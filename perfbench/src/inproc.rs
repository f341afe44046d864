//! `inproc_lone`: one in-process caller, one request in flight, drawing
//! a seeded (model × assignment × executor) mix. Every request is served
//! at batch 1, so per-request fixed costs dominate and no socket is used.

use crate::pass::{Answer, Pass, SliceMark};
use crate::trace;
use crate::zoo::{self, Combo};
use mersit_serve::Server;
use mersit_tensor::{Rng, Tensor};
use std::time::{Duration, Instant};

/// Models of the mix.
pub const MODELS: [&str; 2] = ["vgg_t", "mobilenet_v3_t"];
/// Samples per seed the mix draws from.
const POOL: usize = 32;
/// A request counts toward goodput when answered within this, µs.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// Slices of the window are at least this long, seconds.
const SLICE_S: f64 = 1.0;

/// A started server with every plan of the mix already built.
pub struct Lone {
    pub server: Server,
    pub combos: Vec<Combo>,
    pub samples: Vec<Tensor>,
}

/// Builds the models, starts the server and warms one plan per mix entry.
pub fn setup(seed: u64) -> Lone {
    let models = MODELS.iter().map(|m| zoo::build_model(m)).collect();
    let server = Server::start(models, zoo::serve_config());
    let combos = zoo::combos(&MODELS, &zoo::LONE_ASSIGNMENTS);
    let samples = zoo::samples(seed, POOL);
    for c in &combos {
        server
            .infer(zoo::request(c, &samples[0]))
            .expect("warm-up request is served");
    }
    Lone {
        server,
        combos,
        samples,
    }
}

impl Lone {
    /// Closed loop for `seconds`: submit, wait, repeat, in rounds that
    /// hold every mix entry once in a seeded order, each on a seeded
    /// sample. The window ends with the round that crosses `seconds`.
    pub fn run(&self, seed: u64, seconds: f64) -> Pass {
        let mut rng = Rng::new(seed ^ 0x10E1);
        let mut pass = Pass::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut round: Vec<usize> = (0..self.combos.len()).collect();
        let mut mark = SliceMark::now(&pass);
        let mut open = false;
        while Instant::now() < deadline {
            rng.shuffle(&mut round);
            for &combo in &round {
                let sample = rng.below(self.samples.len());
                self.request(combo, sample, &mut pass);
            }
            open = true;
            if mark.elapsed_s() >= SLICE_S {
                mark = pass.end_slice(mark);
                open = false;
            }
        }
        if open {
            pass.end_slice(mark);
        }
        pass
    }

    /// One request, timed and recorded in `pass`.
    fn request(&self, combo: usize, sample: usize, pass: &mut Pass) {
        pass.attempted += 1;
        let req = zoo::request(&self.combos[combo], &self.samples[sample]);
        let _request = trace::span("request", pass.attempted);
        let cpu = crate::sys::process_cpu_s();
        let start = Instant::now();
        let res = trace::scoped("serve.submit", 0, || self.server.submit(req))
            .and_then(|t| trace::scoped("serve.wait", 0, || t.wait()));
        let us = start.elapsed().as_secs_f64() * 1e6;
        *pass.entry_cpu_s.entry(combo).or_default() += crate::sys::process_cpu_s() - cpu;
        match res {
            Ok(resp) => {
                pass.latency_us.push((combo, us));
                pass.answers.push(Answer {
                    combo,
                    sample,
                    pred: resp.prediction,
                    in_limit: us <= LATENCY_LIMIT_US,
                });
                pass.sample("queue_us", resp.queue_us as f64);
                pass.sample("service_us", (resp.total_us - resp.queue_us) as f64);
                pass.sample("batch", resp.batch_size as f64);
            }
            Err(_) => pass.failed += 1,
        }
    }
}
