//! # mersit-obs — zero-dependency observability for the MERSIT pipeline
//!
//! Spans (monotonic wall-clock timing), counters, and log2-bucketed
//! histograms, recorded into a thread-safe [`Registry`] and serialized as
//! a JSON [`RunReport`] — the artifact every perf/robustness study in
//! this repository reports through. The [`json`] module is the one JSON
//! emitter behind that report and every other artifact writer.
//!
//! ## The `MERSIT_OBS` toggle
//!
//! Recording through the module-level convenience functions ([`fn@span`],
//! [`add`], [`observe`], …) goes to a process-global registry and is
//! **disabled by default**. It turns on when the `MERSIT_OBS` environment
//! variable is set to `1`/`true`/`on` (checked once, lazily), or
//! programmatically via [`set_enabled`]. While disabled, every recording
//! call is a no-op behind a single relaxed atomic load: no allocation, no
//! clock syscall, no lock — so instrumented hot paths stay at full speed,
//! and instrumentation never changes numeric results either way (it only
//! observes).
//!
//! ## Quick example: record a span and emit a report
//!
//! ```
//! use mersit_obs::{Registry, RunReport};
//!
//! // A local registry (the global one works the same way, gated by
//! // `MERSIT_OBS`).
//! let reg = Registry::new();
//! reg.record_span_ns("quantize", 1_500);
//! reg.record_span_ns("quantize", 2_500);
//! reg.add("elements", 4096);
//! reg.observe("chunk_units", 1024.0);
//!
//! let report = RunReport::of("example", &reg);
//! let json = report.to_json();
//! assert!(json.contains("\"name\": \"quantize\""));
//! assert!(json.contains("\"count\": 2"));
//! assert!(json.contains("\"total_ns\": 4000"));
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::must_use_candidate,
    clippy::module_name_repetitions,
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::missing_panics_doc
)]

pub mod json;
pub mod registry;
pub mod report;
pub mod span;

pub use registry::{CounterSnapshot, HistogramSnapshot, Registry, Snapshot, SpanSnapshot};
pub use report::RunReport;
pub use span::SpanGuard;

use std::borrow::Cow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Tri-state enabled flag: 0 = uninitialized, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 1;
const ON: u8 = 2;

/// Whether global recording is on. The first call reads `MERSIT_OBS` from
/// the environment; later calls are a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == ON,
    }
}

/// Reads `MERSIT_OBS` and latches the toggle (`1`, `true`, `on`, `yes`
/// enable it; anything else, or unset, disables it). Returns the resulting
/// state. Called lazily by [`enabled`]; binaries may call it eagerly.
pub fn init_from_env() -> bool {
    let on = std::env::var("MERSIT_OBS").is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        matches!(v.as_str(), "1" | "true" | "on" | "yes")
    });
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Forces the toggle on or off, overriding the environment (used by tests
/// and by binaries that manage their own reporting).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// The process-global registry that the convenience functions record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Clears every span, counter, and histogram in the global registry.
pub fn reset() {
    global().clear();
}

/// Starts a span with a static name. Returns an inert guard (no clock
/// read) when recording is disabled; otherwise the guard records the
/// elapsed monotonic time into the global registry on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::active(Cow::Borrowed(name))
    } else {
        SpanGuard::inert()
    }
}

/// Starts a span whose name is built lazily — the closure (and its
/// allocation) runs only when recording is enabled. Use for per-layer /
/// per-format span names.
#[inline]
pub fn span_dyn(name: impl FnOnce() -> String) -> SpanGuard {
    if enabled() {
        SpanGuard::active(Cow::Owned(name()))
    } else {
        SpanGuard::inert()
    }
}

/// Adds `n` to the named global counter (no-op while disabled).
#[inline]
pub fn add(name: &'static str, n: u64) {
    if enabled() {
        global().add(name, n);
    }
}

/// Increments the named global counter by one (no-op while disabled).
#[inline]
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// Records one observation into the named global histogram (no-op while
/// disabled).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Records one observation into a histogram whose name is built lazily —
/// the closure (and its allocation) runs only when recording is enabled.
/// Use for per-site / per-format histogram names, mirroring [`span_dyn`].
#[inline]
pub fn observe_dyn(name: impl FnOnce() -> String, value: f64) {
    if enabled() {
        global().observe(name(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: tests that flip the *global* toggle live in the integration
    // test files (one process each) so they cannot race unit tests that
    // rely on the default-off state.

    #[test]
    fn span_guard_is_small() {
        // The inert guard must stay cheap to construct and carry around.
        assert!(std::mem::size_of::<SpanGuard>() <= 64);
    }

    #[test]
    fn local_registry_records_without_global_toggle() {
        let reg = Registry::new();
        reg.record_span_ns("s", 10);
        reg.add("c", 3);
        reg.observe("h", 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }
}
