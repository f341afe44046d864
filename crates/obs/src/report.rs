//! The JSON run-report sink: a [`RunReport`] snapshots a registry and
//! serializes it through the workspace's one JSON emitter
//! ([`crate::json`]), like every other artifact.
//!
//! Schema (stable; the snapshot test in `tests/report_schema.rs` pins it):
//!
//! ```json
//! {
//!   "version": 1,
//!   "bin": "perf_ptq",
//!   "spans": [
//!     {"name": "...", "count": 2, "total_ns": 4000,
//!      "min_ns": 1500, "max_ns": 2500, "mean_ns": 2000.0}
//!   ],
//!   "counters": [{"name": "...", "value": 4096}],
//!   "histograms": [
//!     {"name": "...", "count": 1, "sum": 1024.0, "min": 1024.0,
//!      "max": 1024.0, "buckets": [{"le": 2048.0, "count": 1}]}
//!   ]
//! }
//! ```

use crate::json::{block_arr, block_obj, float, line_arr, line_obj};
use crate::registry::{Registry, Snapshot, HIST_BIAS, N_HIST_BUCKETS};
use std::path::Path;

/// Schema version stamped into every report.
pub const REPORT_VERSION: u32 = 1;

/// A serializable snapshot of a registry, labelled with the binary (or
/// phase) that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the producing binary / run.
    pub bin: String,
    /// The captured metrics.
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Snapshots an explicit registry.
    pub fn of(bin: &str, registry: &Registry) -> Self {
        Self {
            bin: bin.to_owned(),
            snapshot: registry.snapshot(),
        }
    }

    /// Snapshots the process-global registry (see [`crate::global`]).
    pub fn capture(bin: &str) -> Self {
        Self::of(bin, crate::global())
    }

    /// Renders the report as a JSON string (schema above).
    pub fn to_json(&self) -> String {
        let snap = &self.snapshot;
        let spans = snap.spans.iter().map(|s| {
            let mean = s.stats.total_ns as f64 / s.stats.count.max(1) as f64;
            line_obj([
                ("name", (&s.name).into()),
                ("count", s.stats.count.into()),
                ("total_ns", s.stats.total_ns.into()),
                ("min_ns", s.stats.min_ns.into()),
                ("max_ns", s.stats.max_ns.into()),
                ("mean_ns", float(mean)),
            ])
        });
        let counters = snap
            .counters
            .iter()
            .map(|c| line_obj([("name", (&c.name).into()), ("value", c.value.into())]));
        let histograms = snap.histograms.iter().map(|h| {
            let buckets = h.stats.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
            let buckets = buckets.map(|(b, &n)| {
                line_obj([("le", float(bucket_upper_bound(b))), ("count", n.into())])
            });
            line_obj([
                ("name", (&h.name).into()),
                ("count", h.stats.count.into()),
                ("sum", float(h.stats.sum)),
                ("min", float(h.stats.min)),
                ("max", float(h.stats.max)),
                ("buckets", line_arr(buckets)),
            ])
        });
        block_obj([
            ("version", REPORT_VERSION.into()),
            ("bin", (&self.bin).into()),
            ("spans", block_arr(spans)),
            ("counters", block_arr(counters)),
            ("histograms", block_arr(histograms)),
        ])
        .into_document()
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Captures the global registry and writes `OBS_<bin>.json` **iff** the
/// `MERSIT_OBS` toggle is on. Returns the path written, if any. This is
/// the one-liner the bench binaries end with.
///
/// # Errors
///
/// Propagates the underlying filesystem error from writing the file.
pub fn write_global_report(bin: &str) -> std::io::Result<Option<String>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let path = format!("OBS_{bin}.json");
    RunReport::capture(bin).write_json(&path)?;
    Ok(Some(path))
}

/// Upper bound (exclusive) of histogram bucket `i`.
fn bucket_upper_bound(i: usize) -> f64 {
    debug_assert!(i < N_HIST_BUCKETS);
    let i = i32::try_from(i).expect("bucket index is small");
    2f64.powi(i + 1 - HIST_BIAS)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact powers of two, exact comparisons
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_shape() {
        let reg = Registry::new();
        let json = RunReport::of("empty", &reg).to_json();
        assert!(json.contains("\"spans\": [\n  ]"));
        assert!(json.contains("\"counters\": [\n  ]"));
        assert!(json.contains("\"bin\": \"empty\""));
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_upper_bound(16), 2.0);
        assert_eq!(bucket_upper_bound(15), 1.0);
        assert_eq!(bucket_upper_bound(0), 2f64.powi(-15));
    }
}
