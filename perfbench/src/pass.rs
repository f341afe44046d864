//! What one measured window of a workload observed, and how answers are
//! checked against locally computed references.

use crate::hostspeed;
use crate::stats::{median, quantile};
use crate::zoo::{self, Combo};
use mersit_nn::Model;
use mersit_ptq::Calibration;
use mersit_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Groups of consecutive slices the latency summary takes its median over.
const LATENCY_GROUPS: usize = 5;

/// One answered operation: which inputs it ran on and what came back.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Index into the workload's combo list.
    pub combo: usize,
    /// Index into the workload's sample pool.
    pub sample: usize,
    /// The program's prediction.
    pub pred: usize,
    /// Whether it arrived within the workload's latency limit.
    pub in_limit: bool,
}

/// Everything one measured window observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations issued.
    pub attempted: u64,
    /// Operations failed, rejected, or never answered.
    pub failed: u64,
    /// Answered operations, checked after the window by a [`Verifier`].
    pub answers: Vec<Answer>,
    /// Peak RSS of the process at the end of the window, MB.
    pub peak_rss_mb: f64,
    /// The window cut into slices of whole rounds of the mix, so every
    /// slice holds each mix entry equally often.
    pub slices: Vec<Slice>,
    /// Per-operation latency as the caller observes it:
    /// `(combo index, µs)`.
    pub latency_us: Vec<(usize, f64)>,
    /// Program CPU seconds per combo, where ops run one at a time.
    pub entry_cpu_s: BTreeMap<usize, f64>,
    /// Named per-operation samples for the per-layer report
    /// (`queue_us`, `service_us`, `batch`, `front_door_us`, `late_us`, ...).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

/// One slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Answered operations.
    pub ops: usize,
    /// Program CPU seconds.
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Length of the window's `latency_us` when the slice ended.
    pub latency_end: usize,
    /// How much slower than the reference the host ran meanwhile.
    pub slowdown: f64,
}

/// Where the current slice of a window began.
pub struct SliceMark {
    ops: usize,
    cpu_s: f64,
    at: Instant,
    /// The host speed probe taken just before the slice began.
    probe_s: f64,
}

impl SliceMark {
    /// A slice that begins now, after the answers `pass` holds, once the
    /// host's speed has been probed.
    pub fn now(pass: &Pass) -> Self {
        let probe_s = hostspeed::probe_s();
        Self {
            ops: pass.answers.len(),
            cpu_s: crate::sys::process_cpu_s(),
            at: Instant::now(),
            probe_s,
        }
    }

    /// Seconds since the slice began.
    pub fn elapsed_s(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }
}

/// Latency of one mix entry: sample count, p50 and p99, µs.
#[derive(Debug, Clone, Copy)]
pub struct EntryLatency {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Pass {
    /// Latency quantiles per mix entry (combo index) over the window.
    pub fn by_entry(&self) -> BTreeMap<usize, EntryLatency> {
        entry_latency(&self.latency_us)
    }

    /// The latency summary `(p50_us, p99_us)`, µs at the reference host
    /// speed: each latency divided by its slice's slowdown. The window's
    /// slices are cut into [`LATENCY_GROUPS`] groups of consecutive
    /// slices; in each group, the geometric mean over mix entries of each
    /// entry's p50, and of each entry's p99; then the median over groups. Every
    /// entry and its tail feed both figures, and a few slow seconds of
    /// the host set one group's figure, not the run's. Summarizing per
    /// entry keeps the tenfold cost differences between entries from
    /// making a pooled quantile jump between them from run to run.
    pub fn latency_summary(&self) -> (f64, f64) {
        let per_group = self.slices.len().div_ceil(LATENCY_GROUPS).max(1);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut start = 0;
        for group in self.slices.chunks(per_group) {
            let mut scaled = Vec::new();
            for s in group {
                let lat = &self.latency_us[start..s.latency_end];
                scaled.extend(lat.iter().map(|&(c, us)| (c, us / s.slowdown)));
                start = s.latency_end;
            }
            let entries = entry_latency(&scaled);
            p50s.push(geomean(entries.values().map(|e| e.p50)));
            p99s.push(geomean(entries.values().map(|e| e.p99)));
        }
        (median(&p50s), median(&p99s))
    }

    /// Ends the slice begun at `mark` and begins the next, probing the
    /// host's speed in between, outside both.
    pub fn end_slice(&mut self, mark: SliceMark) -> SliceMark {
        let (cpu_s, at) = (crate::sys::process_cpu_s(), Instant::now());
        let next = SliceMark::now(self);
        self.slices.push(Slice {
            ops: next.ops - mark.ops,
            cpu_s: cpu_s - mark.cpu_s,
            wall_s: at.duration_since(mark.at).as_secs_f64(),
            latency_end: self.latency_us.len(),
            slowdown: hostspeed::slowdown(mark.probe_s, next.probe_s),
        });
        next
    }

    /// `(cpu_us_per_op, throughput_ops)` at the reference host speed: the
    /// median over slices of each slice's CPU per op divided by its
    /// slowdown, and of its ops per wall second multiplied by it. A
    /// median over slices keeps a few slow seconds from setting the
    /// figure.
    pub fn cost_summary(&self) -> (f64, f64) {
        let ops = |s: &Slice| s.ops.max(1) as f64;
        let cpu: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.cpu_s * 1e6 / ops(s) / s.slowdown)
            .collect();
        let rate: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.ops as f64 / s.wall_s * s.slowdown)
            .collect();
        (median(&cpu), median(&rate))
    }

    /// The median over slices of the host's slowdown.
    pub fn slowdown(&self) -> f64 {
        median(&self.slices.iter().map(|s| s.slowdown).collect::<Vec<_>>())
    }

    /// Appends one named sample.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }
}

/// Latency quantiles per mix entry (combo index) of `(combo, µs)` samples.
fn entry_latency(latency_us: &[(usize, f64)]) -> BTreeMap<usize, EntryLatency> {
    let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(c, us) in latency_us {
        per.entry(c).or_default().push(us);
    }
    per.into_iter()
        .map(|(c, v)| {
            let e = EntryLatency {
                n: v.len(),
                p50: quantile(&v, 0.5),
                p99: quantile(&v, 0.99),
            };
            (c, e)
        })
        .collect()
}

/// The geometric mean of positive `xs`; 0 when there are none.
fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut logs, mut n) = (0.0, 0usize);
    for x in xs {
        logs += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (logs / n as f64).exp()
    }
}

/// Checks answers against reference predictions computed locally, one
/// sample at a time, for the same (sample, model, assignment, executor) —
/// independent of any server, plan cache or batch. References are
/// computed once per combo, on first use.
pub struct Verifier {
    stacked: Tensor,
    refs: BTreeMap<usize, Vec<usize>>,
}

impl Verifier {
    /// A verifier for answers on this sample pool.
    pub fn new(samples: &[Tensor]) -> Self {
        Self {
            stacked: zoo::stack(samples),
            refs: BTreeMap::new(),
        }
    }

    /// Returns `(wrong, good)`: answers that disagree with the reference,
    /// and answers that agree and arrived within the latency limit.
    /// `models` are the verifier's own copies, not the program's.
    pub fn check(
        &mut self,
        models: &[(Model, Calibration)],
        combos: &[Combo],
        answers: &[Answer],
    ) -> (u64, u64) {
        let mut wrong = 0;
        let mut good = 0;
        for a in answers {
            let refs = self.refs.entry(a.combo).or_insert_with(|| {
                let combo = &combos[a.combo];
                let (model, cal) = zoo::loaded(models, combo.model);
                zoo::reference(model, cal, combo, &self.stacked)
            });
            if refs[a.sample] == a.pred {
                good += u64::from(a.in_limit);
            } else {
                wrong += 1;
            }
        }
        (wrong, good)
    }
}
