//! The repository benchmark: drives the MERSIT serving and PTQ stack from
//! outside, through public APIs only, on one of two seeded workloads.
//!
//! ```text
//! perfbench --workload <inproc_lone|ptq_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every trace off.
//! `--trace 1` runs the workload untraced and traced for half the time
//! each, then times each layer's public calls on the workload's inputs,
//! and prints the per-layer metrics; the spans are written to
//! `.bench_out/trace-<workload>-<seed>.json`. The untraced run also
//! times the set-up in fresh processes of itself (`--setup-only 1`),
//! each from spawn until its first op could start. Every answer is checked
//! against a locally computed prediction in both modes. The last line
//! of standard output is the result object; the line before it carries
//! sample counts, the run configuration and workload-specific figures.

mod hostspeed;
mod inproc;
mod layers;
mod pass;
mod socket;
mod stats;
mod sweep;
mod sys;
mod trace;
mod zoo;

use mersit_nn::Model;
use mersit_ptq::{Calibration, Executor};
use pass::{Pass, Verifier};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use zoo::Combo;

/// Set-ups per untraced run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 11;
/// The socket probe's fixed Poisson rate, req/s, and request count: lone
/// traffic (the server idles between most requests), and enough requests
/// that its p99 rests on a dozen samples above it.
const NET_RATE: f64 = 400.0;
const NET_REQUESTS: usize = 1200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, report readiness on standard output, and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" | "1" => value == "1",
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["inproc_lone", "ptq_sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// A set-up workload.
enum Workload {
    Lone(inproc::Lone),
    Sweep(sweep::Sweep),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Self {
        match name {
            "inproc_lone" => Self::Lone(inproc::setup(seed)),
            _ => Self::Sweep(sweep::setup(seed)),
        }
    }

    fn run(&mut self, seed: u64, seconds: f64) -> Pass {
        let mut pass = match self {
            Self::Lone(w) => w.run(seed, seconds),
            Self::Sweep(w) => w.run(seconds),
        };
        pass.peak_rss_mb = sys::peak_rss_mb();
        pass
    }

    fn combos(&self) -> &[Combo] {
        match self {
            Self::Lone(w) => &w.combos,
            Self::Sweep(w) => &w.combos,
        }
    }

    fn samples(&self) -> &[mersit_tensor::Tensor] {
        match self {
            Self::Lone(w) => &w.samples,
            Self::Sweep(w) => &w.samples,
        }
    }

    fn model_names(&self) -> &'static [&'static str] {
        match self {
            Self::Lone(_) => &inproc::MODELS,
            Self::Sweep(_) => &sweep::MODELS,
        }
    }

    /// The batch the workload's forwards see.
    fn batch(&self) -> usize {
        match self {
            Self::Lone(_) => 1,
            Self::Sweep(_) => sweep::BATCH,
        }
    }
}

/// A checked window: the pass plus its verification outcome.
struct Checked {
    pass: Pass,
    wrong: u64,
    good: u64,
}

fn check(
    w: &Workload,
    models: &[(Model, Calibration)],
    verifier: &mut Verifier,
    pass: Pass,
) -> Checked {
    let (wrong, good) = verifier.check(models, w.combos(), &pass.answers);
    Checked { pass, wrong, good }
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The gated metrics. `p99_us` is not among them: on a host whose
/// vCPUs stall for milliseconds at a time, the round-trip tail spread
/// past any bound `BENCHMARK.json` allows, so it is printed on the detail
/// line instead.
fn end_to_end(c: &Checked, setup_s: f64) -> Metrics {
    let p = &c.pass;
    let done = p.answers.len() as f64;
    let fail_ratio = (p.failed + c.wrong) as f64 / p.attempted.max(1) as f64;
    let (cpu_us_per_op, throughput_ops) = p.cost_summary();
    let (p50_us, _) = p.latency_summary();
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("cpu_us_per_op".into(), cpu_us_per_op, "us"),
        ("throughput_ops".into(), throughput_ops, "ops/s"),
        ("p50_us".into(), p50_us, "us"),
        (
            "goodput_rps".into(),
            throughput_ops * c.good as f64 / done.max(1.0),
            "ops/s",
        ),
        ("ok_ratio".into(), 1.0 - fail_ratio, "ratio"),
        ("peak_rss_mb".into(), p.peak_rss_mb, "MB"),
    ]
}

/// Latency per mix entry, with its CPU cost per op where ops ran one at
/// a time.
fn entries_json(combos: &[Combo], p: &Pass) -> String {
    let mut ops: BTreeMap<usize, usize> = BTreeMap::new();
    for a in &p.answers {
        *ops.entry(a.combo).or_default() += 1;
    }
    let mut s = String::from("{");
    for (i, (c, e)) in p.by_entry().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"n\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}",
            combos[*c].label(),
            e.n,
            e.p50,
            e.p99
        );
        if let Some(cpu) = p.entry_cpu_s.get(c) {
            let _ = write!(s, ", \"cpu_us_per_op\": {:.1}", cpu * 1e6 / ops[c] as f64);
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// How many samples stand behind each traced figure, by the pass that
/// recorded them.
fn sample_counts(passes: &[(&str, &Pass)]) -> String {
    let mut s = String::from("{");
    for (i, (label, p)) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{label}\": {{\"latency\": {}, \"ops\": {}",
            p.latency_us.len(),
            p.answers.len()
        );
        for (name, v) in &p.samples {
            let _ = write!(s, ", \"{name}\": {}", v.len());
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn json_metrics(ms: &[(String, f64, &'static str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in ms.iter().enumerate() {
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn counters() -> BTreeMap<String, u64> {
    mersit_obs::global()
        .snapshot()
        .counters
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace && std::env::var_os("MERSIT_OBS").is_some() {
        eprintln!("perfbench: MERSIT_OBS is set; the untraced run measures with telemetry off");
        return ExitCode::from(2);
    }
    mersit_obs::set_enabled(false);
    // Pin the pool size before the first dispatch latches it. Unless the
    // caller sets MERSIT_THREADS, one pool thread, and every thread of the
    // process (caller, server worker, pool, event loop) bound to one CPU:
    // the reference host's vCPUs share physical cores with other
    // machines, so a pool spread over them waits at each join for
    // whichever vCPU was descheduled, and a request handed between
    // threads on two vCPUs waits for a cross-CPU wake-up. Either makes
    // the wall-clock figures follow the neighbours' load.
    let nproc = sys::nproc();
    let mut cpu = None;
    if std::env::var_os("MERSIT_THREADS").is_none() {
        std::env::set_var("MERSIT_THREADS", "1");
        match sys::pin_to_current_cpu() {
            Ok(c) => cpu = Some(c),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let threads = std::env::var("MERSIT_THREADS").unwrap_or_default();

    if args.setup_only {
        let _w = Workload::setup(&args.workload, args.seed);
        println!("ready");
        let _ = std::io::stdout().flush();
        return ExitCode::SUCCESS;
    }
    let setup_times = if args.trace {
        Vec::new()
    } else {
        match (0..SETUP_REPS).map(|_| timed_setup(&args)).collect() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let mut w = Workload::setup(&args.workload, args.seed);
    // Fresh copies of the models for checking answers and for the probes.
    let models: Vec<_> = w
        .model_names()
        .iter()
        .map(|m| zoo::build_model(m))
        .collect();
    let mut verifier = Verifier::new(w.samples());

    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"MERSIT_THREADS\": \"{threads}\", \"pool_size\": {}, \"simd\": \"{}\", \"nproc\": {}, \"pinned_cpu\": {}, \"setup_s_each\": {setup_times:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mersit_tensor::pool_size(),
        mersit_core::simd_level().name(),
        nproc,
        cpu.map_or("null".to_string(), |c| c.to_string()),
    );
    let outcome = if args.trace {
        measure_traced(&mut w, &models, &mut verifier, &args, &mut detail)
    } else {
        let setup_s = stats::median(&setup_times);
        measure(&mut w, &models, &mut verifier, &args, setup_s, &mut detail)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    drop(w);
    detail.push('}');
    println!("{detail}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    ExitCode::SUCCESS
}

/// What a run reports: its metrics and how many operations it tried and
/// lost (failed, rejected, unanswered or answered wrongly).
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// Times one set-up in a fresh process of this benchmark, from spawning
/// it until it reports that its first op could start: process start,
/// pool and SIMD initialisation, model build, calibration, server start
/// and plan warm-up. Seconds at the reference host speed, like every
/// timed end-to-end figure.
fn timed_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let probe_before = hostspeed::probe_s();
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    let slowdown = hostspeed::slowdown(probe_before, hostspeed::probe_s());
    match read {
        Ok(_) if status.success() && line.trim() == "ready" => Ok(elapsed / slowdown),
        _ => Err(format!("set-up process ended with {status}")),
    }
}

/// The untraced run: the end-to-end metrics over one window.
fn measure(
    w: &mut Workload,
    models: &[(Model, Calibration)],
    verifier: &mut Verifier,
    args: &Args,
    setup_s: f64,
    detail: &mut String,
) -> Result<Outcome, String> {
    let pass = w.run(args.seed, args.seconds);
    let c = check(w, models, verifier, pass);
    let _ = write!(
        detail,
        ", \"host_slowdown\": {:.4}, \"p99_us\": {:.1}, \"samples\": {{\"latency\": {}, \"ops\": {}, \"slices\": {}}}, \"failed\": {}, \"wrong\": {}, \"entries\": {}",
        c.pass.slowdown(),
        c.pass.latency_summary().1,
        c.pass.latency_us.len(),
        c.pass.answers.len(),
        c.pass.slices.len(),
        c.pass.failed,
        c.wrong,
        entries_json(w.combos(), &c.pass),
    );
    Ok(Outcome {
        metrics: end_to_end(&c, setup_s),
        attempted: c.pass.attempted,
        failed: c.pass.failed + c.wrong,
    })
}

/// The traced run: the workload untraced, then traced, for half the
/// time each, then the per-layer probes on the workload's inputs.
fn measure_traced(
    w: &mut Workload,
    models: &[(Model, Calibration)],
    verifier: &mut Verifier,
    args: &Args,
    detail: &mut String,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let untraced = w.run(args.seed, half);
    let untraced = check(w, models, verifier, untraced);
    mersit_obs::reset();
    mersit_obs::set_enabled(true);
    trace::set_enabled(true);
    let traced = w.run(args.seed, half);
    let obs = counters();
    let traced = check(w, models, verifier, traced);
    let inputs = layers::Inputs {
        models,
        combos: w.combos(),
        samples: w.samples(),
        batch: w.batch(),
    };
    let c = |n: &str| obs.get(n).copied().unwrap_or(0) as f64;
    let per_op = |p: &Pass| p.cost_summary().0;
    let (lut, scalar) = (c("ptq.quantize.lut_path"), c("ptq.quantize.scalar_path"));
    let mut metrics: Metrics = vec![
        (
            "core.lut_hit_ratio".into(),
            lut / (lut + scalar).max(1.0),
            "ratio",
        ),
        (
            "tensor.par_calls_per_op".into(),
            (c("tensor.par.calls_serial") + c("tensor.par.calls_parallel"))
                / traced.pass.answers.len().max(1) as f64,
            "count",
        ),
        (
            "obs.overhead_pct".into(),
            (per_op(&traced.pass) / per_op(&untraced.pass) - 1.0) * 100.0,
            "%",
        ),
    ];
    // Operations the stand-in probes try, and those they get wrong or lose.
    let (mut probe_attempted, mut probe_failed) = (0, 0);
    let mut counts = vec![("window", &traced.pass)];
    let burst;
    if let Workload::Sweep(_) = w {
        // A burst through a server stands in for the serving layer this
        // workload bypasses.
        mersit_obs::reset();
        burst = layers::serve_burst(&inputs);
        let (wrong, _) = verifier.check(models, w.combos(), &burst.answers);
        probe_attempted += burst.attempted;
        probe_failed += burst.failed + wrong;
        metrics.extend(layers::serve(&burst, &counters()));
        counts.push(("serve_probe", &burst));
    } else {
        metrics.extend(layers::serve(&traced.pass, &obs));
    }
    mersit_obs::set_enabled(false);
    // Both workloads bypass the socket layer; lone FP32 traffic over a
    // socket stands in for it.
    let fp32 = zoo::combos(&["vgg_t"], &[(None, Executor::Float)]);
    let mut rig = socket::setup(args.seed, &["vgg_t"], fp32.clone());
    let lone = rig.drive(&socket::schedule(args.seed, NET_RATE, NET_REQUESTS, 1));
    let (wrong, _) = Verifier::new(&rig.samples).check(models, &fp32, &lone.answers);
    drop(rig);
    probe_attempted += lone.attempted;
    probe_failed += lone.failed + wrong;
    metrics.extend(layers::net(&lone));
    counts.push(("net_probe", &lone));
    metrics.extend(layers::core(&inputs));
    metrics.extend(layers::tensor(&inputs));
    let (nn_ptq, entries) = layers::nn_ptq(&inputs);
    metrics.extend(nn_ptq);
    metrics.extend(layers::wire(&inputs));
    trace::set_enabled(false);
    let spans = trace::take();
    let path = PathBuf::from(format!(
        ".bench_out/trace-{}-{}.json",
        args.workload, args.seed
    ));
    trace::write(&path, &spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let _ = write!(
        detail,
        ", \"p99_us\": {:.1}, \"samples\": {}, \"entries\": {}, \"trace_file\": \"{}\", \"spans\": {}",
        untraced.pass.latency_summary().1,
        sample_counts(&counts),
        json_metrics(&entries),
        path.display(),
        spans.len()
    );
    let lost = |c: &Checked| c.pass.failed + c.wrong;
    Ok(Outcome {
        metrics,
        attempted: untraced.pass.attempted + traced.pass.attempted + probe_attempted,
        failed: lost(&untraced) + lost(&traced) + probe_failed,
    })
}
