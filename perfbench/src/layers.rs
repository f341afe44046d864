//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions on the workload's own models, mixes and
//! samples, inside a benchmark span named after the call.

use crate::pass::{Answer, Pass};
use crate::stats::quantile;
use crate::trace;
use crate::zoo::{self, Combo};
use mersit_core::{FixTable, Format, QuantLut};
use mersit_nn::{predict_one_batch_ref, Ctx, Layer, Model, Site, Tap};
use mersit_ptq::{
    calibrate, layer_macs, scale_anchor, site_scale, Calibration, Executor, FormatAssignment,
    QuantPlan, INPUT_PATH,
};
use mersit_serve::{wire, Response, Server};
use mersit_tensor::{gemm, qgemm, PackedCodeRhs, PackedRhs, Rng, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One per-layer figure: `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// What the probes run on.
pub struct Inputs<'a> {
    pub models: &'a [(Model, Calibration)],
    /// The workload's (model × assignment × executor) mix.
    pub combos: &'a [Combo],
    /// The workload's sample pool (at least 32 samples).
    pub samples: &'a [Tensor],
    /// The batch the workload's forwards see, for site lengths.
    pub batch: usize,
}

/// Runs `f` in a span and returns its result with the elapsed seconds.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(name, 0);
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn quantized<'a>(inputs: &'a Inputs<'_>) -> impl Iterator<Item = (&'a Combo, FormatAssignment)> {
    inputs.combos.iter().filter_map(|c| {
        c.format
            .map(|f| (c, FormatAssignment::parse(f).expect("mix specs parse")))
    })
}

/// Records every activation a forward produces, by site path.
struct Capture {
    sites: Vec<(String, Vec<f32>)>,
}

impl Tap for Capture {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.sites.push((site.path.to_owned(), t.data().to_vec()));
        t
    }
}

/// `core`: `quantize_slice`, `QuantLut::build` and `Format::encode` at
/// the site lengths and calibrated scales the workload's plans use.
pub fn core(inputs: &Inputs<'_>) -> Vec<Metric> {
    let x = zoo::stack(&inputs.samples[..inputs.batch]);
    let mut captured: BTreeMap<&str, Vec<(String, Vec<f32>)>> = BTreeMap::new();
    for (model, _) in inputs.models {
        let mut cap = Capture {
            sites: vec![(INPUT_PATH.to_owned(), x.data().to_vec())],
        };
        let _ = model
            .net
            .forward_ref(x.clone(), &mut Ctx::with_tap(&mut cap));
        captured.insert(model.name.as_str(), cap.sites);
    }
    let (mut quant_s, mut quant_elems) = (0.0, 0usize);
    let (mut encode_s, mut encode_elems) = (0.0, 0usize);
    let (mut lut_s, mut luts) = (0.0, 0usize);
    let mut seen = std::collections::BTreeSet::new();
    for (combo, assign) in quantized(inputs) {
        if !seen.insert((combo.model, assign.name())) {
            continue;
        }
        let (_, cal) = zoo::loaded(inputs.models, combo.model);
        for (path, data) in &captured[combo.model] {
            let fmt = assign.format_for(path);
            let Some(scale) = site_scale(scale_anchor(fmt.as_ref()), cal.max_for(path)) else {
                continue;
            };
            let mut xs = data.clone();
            let ((), s) = timed("core.quantize_slice", || {
                mersit_ptq::quantize_slice(fmt.as_ref(), &mut xs, scale);
            });
            quant_s += s;
            quant_elems += xs.len();
            let ((), s) = timed("core.encode", || {
                for &v in data {
                    black_box(fmt.encode(f64::from(v) / scale));
                }
            });
            encode_s += s;
            encode_elems += data.len();
            if QuantLut::supports(scale) {
                let spec = fmt.quant_spec();
                let (lut, s) = timed("core.lut_build", || QuantLut::build(&spec, scale));
                black_box(lut);
                lut_s += s;
                luts += 1;
            }
        }
    }
    vec![
        (
            "core.quantize_ns_per_elem".into(),
            quant_s * 1e9 / quant_elems.max(1) as f64,
            "ns",
        ),
        (
            "core.encode_ns_per_elem".into(),
            encode_s * 1e9 / encode_elems.max(1) as f64,
            "ns",
        ),
        (
            "core.lut_build_us".into(),
            lut_s * 1e6 / luts.max(1) as f64,
            "us",
        ),
    ]
}

/// One GEMM of a zoo layer: `[m, k] × [k, n]` per sample row block.
struct GemmShape {
    spatial: usize,
    k: usize,
    n: usize,
    w: Vec<f32>,
}

fn gemm_shapes(model: &Model, sample: &Tensor) -> Vec<GemmShape> {
    let lifted = Tensor::from_vec(sample.data().to_vec(), &[1, 3, zoo::HW, zoo::HW]);
    let macs: BTreeMap<String, u64> = layer_macs(model, &lifted)
        .into_iter()
        .map(|l| (l.path, l.macs))
        .collect();
    let mut out = Vec::new();
    model.net.visit_params_ref("", &mut |path, p| {
        if !p.gemm_rhs || p.value.shape().len() != 2 {
            return;
        }
        let (n, k) = (p.value.shape()[0], p.value.shape()[1]);
        let layer = path.rsplit_once('.').map_or(path, |(l, _)| l);
        let spatial = (macs.get(layer).copied().unwrap_or(0) as usize / (n * k)).max(1);
        out.push(GemmShape {
            spatial,
            k,
            n,
            w: p.value.data().to_vec(),
        });
    });
    out
}

/// Encodes `xs` row by row (per-row max scaling) into fixed-point
/// multiply operands of `fmt`.
fn fix_codes(fmt: &dyn Format, table: &FixTable, xs: &[f32], k: usize) -> Vec<i64> {
    let anchor = fmt.scale_anchor();
    xs.chunks_exact(k)
        .flat_map(|row| {
            let m = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let s = if m > 0.0 { f64::from(m) / anchor } else { 1.0 };
            row.iter()
                .map(move |&v| table.fix(fmt.encode(f64::from(v) / s)))
        })
        .collect()
}

/// `tensor`: the f32 GEMM and the integer qgemm on the zoo's own layer
/// shapes at batch 1 and 32. FLOPs come from `layer_macs`; bytes are the
/// operand and result tensor sizes.
pub fn tensor(inputs: &Inputs<'_>) -> Vec<Metric> {
    let fmt = mersit_core::parse_format("MERSIT(8,2)").expect("valid format");
    let table = FixTable::build(fmt.as_ref()).expect("MERSIT(8,2) has a fixed-point table");
    let mut rng = Rng::new(0x6E33);
    let mut out = Vec::new();
    for (batch, reps) in [(1usize, 20usize), (32, 2)] {
        let (mut flops, mut bytes, mut gemm_s) = (0.0, 0.0, 0.0);
        let (mut macs, mut qgemm_s) = (0.0, 0.0);
        for (model, _) in inputs.models {
            for g in gemm_shapes(model, &inputs.samples[0]) {
                let m = batch * g.spatial;
                let a = Tensor::randn(&[m, g.k], 1.0, &mut rng);
                let packed = PackedRhs::pack_t(&g.w, g.n, g.k);
                let mut c = vec![0.0f32; m * g.n];
                let ((), s) = timed("tensor.gemm", || {
                    for _ in 0..reps {
                        gemm::gemm_rows_par(a.data(), g.k, &packed, &mut c);
                    }
                });
                gemm_s += s;
                flops += (2 * m * g.k * g.n * reps) as f64;
                bytes += (4 * (m * g.k + g.k * g.n + m * g.n) * reps) as f64;
                let wq = fix_codes(fmt.as_ref(), &table, &g.w, g.k);
                let aq = fix_codes(fmt.as_ref(), &table, a.data(), g.k);
                let qpacked = PackedCodeRhs::pack_t(&wq, g.n, g.k);
                let mut qc = vec![0i128; m * g.n];
                let ((), s) = timed("tensor.qgemm", || {
                    for _ in 0..reps {
                        qgemm::qgemm_rows_par(&aq, g.k, &qpacked, &mut qc);
                    }
                });
                qgemm_s += s;
                macs += (m * g.k * g.n * reps) as f64;
            }
        }
        out.push((
            format!("tensor.gemm_gflops.b{batch}"),
            flops / gemm_s / 1e9,
            "GFLOP/s",
        ));
        out.push((
            format!("tensor.gemm_gbytes_s.b{batch}"),
            bytes / gemm_s / 1e9,
            "GB/s",
        ));
        out.push((
            format!("tensor.qgemm_gmacs.b{batch}"),
            macs / qgemm_s / 1e9,
            "GMAC/s",
        ));
    }
    out
}

/// `nn` and `ptq`: calibration, plan builds, the FP32 forward and the
/// quantized forwards per executor at batch 1 and at `max_batch`.
/// Returns the per-layer metrics and, per quantized mix entry, its plan
/// build time and batch-1 forward time.
pub fn nn_ptq(inputs: &Inputs<'_>) -> (Vec<Metric>, Vec<Metric>) {
    let mut out = Vec::new();
    let mut entries = Vec::new();
    let mut rng = Rng::new(0xCA11);
    let calib = Tensor::randn(&[16, 3, zoo::HW, zoo::HW], 1.0, &mut rng);
    let mut cal_s = 0.0;
    for (model, _) in inputs.models {
        cal_s += timed("ptq.calibrate", || calibrate(model, &calib, 8)).1;
    }
    out.push((
        "ptq.calibrate_ms".into(),
        cal_s * 1e3 / inputs.models.len() as f64,
        "ms",
    ));

    let one =
        |i: usize| Tensor::from_vec(inputs.samples[i].data().to_vec(), &[1, 3, zoo::HW, zoo::HW]);
    const B1: usize = 8;
    let bmax = zoo::serve_config().max_batch;
    let (mut fp_b1, mut fp_b32) = (0.0, 0.0);
    for (model, _) in inputs.models {
        for i in 0..B1 {
            fp_b1 += timed("nn.predict_one_batch_ref", || {
                predict_one_batch_ref(&model.net, one(i))
            })
            .1;
        }
        let x = zoo::stack(&inputs.samples[..32]);
        fp_b32 += timed("nn.predict_one_batch_ref", || {
            predict_one_batch_ref(&model.net, x)
        })
        .1;
    }
    let nm = inputs.models.len() as f64;
    let fp_b1_us = fp_b1 * 1e6 / (nm * B1 as f64);
    out.push(("nn.fwd_fp32_us.b1".into(), fp_b1_us, "us"));
    out.push((
        "nn.fwd_fp32_us.b32".into(),
        fp_b32 * 1e6 / (nm * 32.0),
        "us",
    ));

    for exec in [Executor::Float, Executor::BitTrue] {
        let (mut build_s, mut b1_s, mut bmax_s, mut plans) = (0.0, 0.0, 0.0, 0usize);
        let xmax = zoo::stack(&inputs.samples[..bmax]);
        for (combo, assign) in quantized(inputs).filter(|(c, _)| c.executor == exec) {
            let (model, cal) = zoo::loaded(inputs.models, combo.model);
            let (plan, s) = timed("ptq.plan_build", || {
                QuantPlan::build_with(model, assign, cal, exec)
            });
            build_s += s;
            let mut fwd_s = 0.0;
            for i in 0..B1 {
                fwd_s += timed("ptq.predict_one_batch", || {
                    plan.predict_one_batch(model, one(i))
                })
                .1;
            }
            b1_s += fwd_s;
            let label = combo.label();
            entries.push((format!("{label}.plan_build_ms"), s * 1e3, "ms"));
            entries.push((format!("{label}.fwd_us.b1"), fwd_s * 1e6 / B1 as f64, "us"));
            bmax_s += timed("ptq.predict_one_batch", || {
                plan.predict_one_batch(model, xmax.clone())
            })
            .1;
            plans += 1;
        }
        let plans = plans.max(1) as f64;
        let b1_us = b1_s * 1e6 / (plans * B1 as f64);
        out.push((
            format!("ptq.plan_build_ms.{exec}"),
            build_s * 1e3 / plans,
            "ms",
        ));
        out.push((format!("ptq.fwd_us.{exec}.b1"), b1_us, "us"));
        out.push((
            format!("ptq.fwd_us.{exec}.b{bmax}"),
            bmax_s * 1e6 / (plans * bmax as f64),
            "us",
        ));
        out.push((format!("ptq.overhead_x.{exec}"), b1_us / fp_b1_us, "x"));
    }
    (out, entries)
}

/// `wire`: request-frame encode and decode per frame, and the bytes a
/// request and its response put on the wire.
pub fn wire(inputs: &Inputs<'_>) -> Vec<Metric> {
    let reqs: Vec<wire::WireRequest> = inputs
        .combos
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            inputs.samples[..8]
                .iter()
                .enumerate()
                .map(move |(si, s)| wire::WireRequest {
                    id: (ci * 8 + si) as u64,
                    model: c.model.to_owned(),
                    assignment: c.format.map(str::to_owned),
                    executor: c.format.map(|_| c.executor),
                    shape: s.shape().to_vec(),
                    data: s.data().to_vec(),
                })
        })
        .collect();
    const REPS: usize = 20;
    let mut frames = Vec::new();
    let ((), enc_s) = timed("wire.encode_request", || {
        for _ in 0..REPS {
            frames.clear();
            for r in &reqs {
                let mut f = Vec::new();
                wire::encode_request(r, &mut f);
                frames.push(f);
            }
        }
    });
    let ((), dec_s) = timed("wire.decode_frame", || {
        for _ in 0..REPS {
            for f in &frames {
                black_box(wire::decode_frame(f, 1 << 20).expect("own frames decode"));
            }
        }
    });
    let mut resp = Vec::new();
    let answer = Response {
        prediction: 0,
        batch_size: 1,
        queue_us: 0,
        total_us: 0,
    };
    wire::encode_response(0, &answer, &mut resp);
    let n = (reqs.len() * REPS) as f64;
    let req_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    vec![
        ("wire.encode_ns".into(), enc_s * 1e9 / n, "ns"),
        ("wire.decode_ns".into(), dec_s * 1e9 / n, "ns"),
        (
            "net.bytes_per_req".into(),
            req_bytes + resp.len() as f64,
            "bytes",
        ),
    ]
}

/// `serve` probe for workloads that bypass the server: one burst of the
/// workload's mix submitted at once, so a queue forms and batches
/// coalesce. Records the same samples a served workload records.
pub fn serve_burst(inputs: &Inputs<'_>) -> Pass {
    let models = inputs
        .models
        .iter()
        .map(|(m, _)| zoo::build_model(&m.name))
        .collect();
    let server = Server::start(models, zoo::serve_config());
    for c in inputs.combos {
        server
            .infer(zoo::request(c, &inputs.samples[0]))
            .expect("warm-up request is served");
    }
    let mut pass = Pass::default();
    let depth = zoo::serve_config().queue_depth;
    let picks: Vec<(usize, usize)> = (0..depth)
        .map(|i| (i % inputs.combos.len(), i % inputs.samples.len()))
        .collect();
    let tickets: Vec<_> = picks
        .iter()
        .enumerate()
        .map(|(i, &(c, s))| {
            trace::scoped("serve.submit", i as u64 + 1, || {
                server.submit(zoo::request(&inputs.combos[c], &inputs.samples[s]))
            })
        })
        .collect();
    for (t, &(combo, sample)) in tickets.into_iter().zip(&picks) {
        pass.attempted += 1;
        match t.and_then(|t| trace::scoped("serve.wait", 0, || t.wait())) {
            Ok(r) => {
                pass.sample("queue_us", r.queue_us as f64);
                pass.sample("service_us", (r.total_us - r.queue_us) as f64);
                pass.sample("batch", r.batch_size as f64);
                pass.answers.push(Answer {
                    combo,
                    sample,
                    pred: r.prediction,
                    in_limit: true,
                });
            }
            Err(_) => pass.failed += 1,
        }
    }
    pass
}

/// Server-side figures from a traced window's samples and the
/// `mersit-obs` counters it left. Admission efficiency counts requests
/// admitted against admission attempts refused (a refused socket
/// request is parked and retried, so each retry counts).
pub fn serve(pass: &Pass, counters: &BTreeMap<String, u64>) -> Vec<Metric> {
    let c = |n: &str| counters.get(n).copied().unwrap_or(0) as f64;
    let get = |n: &str| pass.samples.get(n).map_or(&[][..], Vec::as_slice);
    let batch = get("batch");
    let hits = c("serve.plan.cache.hit");
    vec![
        (
            "serve.queue_wait_us.p50".into(),
            quantile(get("queue_us"), 0.5),
            "us",
        ),
        (
            "serve.queue_wait_us.p99".into(),
            quantile(get("queue_us"), 0.99),
            "us",
        ),
        (
            "serve.service_us.p50".into(),
            quantile(get("service_us"), 0.5),
            "us",
        ),
        (
            "serve.batch_mean".into(),
            batch.iter().sum::<f64>() / batch.len().max(1) as f64,
            "count",
        ),
        (
            "serve.admission_efficiency".into(),
            c("serve.requests") / (c("serve.requests") + c("serve.admission.rejected")).max(1.0),
            "ratio",
        ),
        (
            "serve.plan_cache_hit_ratio".into(),
            hits / (hits + c("serve.plan.cache.miss")).max(1.0),
            "ratio",
        ),
    ]
}

/// Socket-side figures from a window's samples.
pub fn net(pass: &Pass) -> Vec<Metric> {
    let get = |n: &str| pass.samples.get(n).map_or(&[][..], Vec::as_slice);
    vec![
        (
            "net.front_door_us.p50".into(),
            quantile(get("front_door_us"), 0.5),
            "us",
        ),
        (
            "net.front_door_us.p99".into(),
            quantile(get("front_door_us"), 0.99),
            "us",
        ),
        (
            "loadgen.late_p99_us".into(),
            quantile(get("late_us"), 0.99),
            "us",
        ),
    ]
}
