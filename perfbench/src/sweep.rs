//! `ptq_sweep`: the offline Table-2 evaluation. Every pass builds a plan
//! per (model × format × executor) and evaluates one batch of 32 seeded
//! samples through it; the serving layer and the socket are bypassed.

use crate::pass::{Answer, Pass, SliceMark};
use crate::trace;
use crate::zoo::{self, Combo};
use mersit_nn::Model;
use mersit_ptq::{Calibration, Executor, QuantPlan};
use mersit_tensor::Tensor;
use std::time::{Duration, Instant};

/// Models evaluated.
pub const MODELS: [&str; 2] = ["vgg_t", "mobilenet_v3_t"];
/// Samples per evaluated batch.
pub const BATCH: usize = 32;
/// A batch counts toward goodput when its plan build and forward finish
/// within this, µs.
pub const LATENCY_LIMIT_US: f64 = 1_000_000.0;

/// Every Table-2 format under both executors, over both models.
pub fn sweep_combos() -> Vec<Combo> {
    let names: Vec<&'static str> = mersit_core::table2_formats()
        .iter()
        .map(|f| &*Box::leak(f.name().into_boxed_str()))
        .collect();
    let assignments: Vec<(Option<&'static str>, Executor)> = names
        .iter()
        .flat_map(|&n| [(Some(n), Executor::Float), (Some(n), Executor::BitTrue)])
        .collect();
    zoo::combos(&MODELS, &assignments)
}

/// Loaded models plus the seeded evaluation batch.
pub struct Sweep {
    pub models: Vec<(Model, Calibration)>,
    pub combos: Vec<Combo>,
    pub samples: Vec<Tensor>,
    batch: Tensor,
}

/// Builds and calibrates the models and the evaluation batch, and warms
/// up by building one plan per sweep entry.
pub fn setup(seed: u64) -> Sweep {
    let samples = zoo::samples(seed, BATCH);
    let sweep = Sweep {
        models: MODELS.iter().map(|m| zoo::build_model(m)).collect(),
        combos: sweep_combos(),
        batch: zoo::stack(&samples),
        samples,
    };
    for combo in &sweep.combos {
        drop(sweep.plan(combo));
    }
    sweep
}

impl Sweep {
    fn plan(&self, combo: &Combo) -> QuantPlan {
        let (model, cal) = zoo::loaded(&self.models, combo.model);
        let spec = combo.format.expect("sweep combos are quantized");
        let fmt = mersit_core::parse_format(spec).expect("table-2 format");
        QuantPlan::build_with(model, fmt, cal, combo.executor)
    }

    /// Runs whole passes over the sweep until `seconds` have passed, one
    /// slice each; each op is one sample.
    pub fn run(&self, seconds: f64) -> Pass {
        let mut pass = Pass::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        // Whole passes only, so every window holds each combo equally often.
        let mut mark = SliceMark::now(&pass);
        while Instant::now() < deadline {
            for (ci, combo) in self.combos.iter().enumerate() {
                let _eval = trace::span("sweep.eval", ci as u64 + 1);
                let cpu = crate::sys::process_cpu_s();
                let start = Instant::now();
                let plan = trace::scoped("ptq.plan_build", 0, || self.plan(combo));
                let preds = trace::scoped("ptq.predict_one_batch", 0, || {
                    plan.predict_one_batch(
                        &zoo::loaded(&self.models, combo.model).0,
                        self.batch.clone(),
                    )
                });
                let us = start.elapsed().as_secs_f64() * 1e6;
                *pass.entry_cpu_s.entry(ci).or_default() += crate::sys::process_cpu_s() - cpu;
                pass.attempted += BATCH as u64;
                pass.latency_us.push((ci, us));
                pass.answers
                    .extend(preds.into_iter().enumerate().map(|(sample, pred)| Answer {
                        combo: ci,
                        sample,
                        pred,
                        in_limit: us <= LATENCY_LIMIT_US,
                    }));
            }
            mark = pass.end_slice(mark);
        }
        pass
    }
}
