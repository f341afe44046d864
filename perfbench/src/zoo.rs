//! What the workloads serve: the model zoo, the (model × assignment ×
//! executor) mixes, seeded sample pools, and locally computed reference
//! predictions that every answer is checked against.

use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_nn::{predict_ref, Model};
use mersit_ptq::{calibrate, Calibration, Executor, QuantPlan};
use mersit_tensor::{Rng, Tensor};

/// Input side length of the image models (3 × HW × HW samples).
pub const HW: usize = 10;
/// Output classes of every model.
pub const CLASSES: usize = 10;
/// Calibration set size, in samples.
const CALIB_SAMPLES: usize = 16;
/// Model weights and calibration data are fixed, like a deployed model;
/// only the requests (samples, mix order, arrival times) follow `--seed`.
const MODEL_SEED: u64 = 0x5E4E;

/// The per-layer assignment spec of the mixes: MERSIT(8,2) everywhere
/// except the first convolution, which both models name `0_conv`.
pub const MIXED_SPEC: &str = "MERSIT(8,2);0_conv=FP(8,4)";

/// One serving combination: `format == None` is the FP32 reference forward.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Combo {
    /// Model name.
    pub model: &'static str,
    /// Format name or assignment spec; `None` for FP32.
    pub format: Option<&'static str>,
    /// Executor (ignored for FP32).
    pub executor: Executor,
}

impl Combo {
    /// `model/format/executor`, as printed in reports.
    pub fn label(&self) -> String {
        match self.format {
            Some(f) => format!("{}/{f}/{}", self.model, self.executor),
            None => format!("{}/fp32", self.model),
        }
    }
}

/// The (assignment × executor) pairs of the `inproc_lone` mix.
pub const LONE_ASSIGNMENTS: [(Option<&str>, Executor); 6] = [
    (None, Executor::Float),
    (Some("MERSIT(8,2)"), Executor::Float),
    (Some("MERSIT(8,2)"), Executor::BitTrue),
    (Some("INT8"), Executor::Float),
    (Some("Posit(8,1)"), Executor::BitTrue),
    (Some(MIXED_SPEC), Executor::BitTrue),
];

/// Every `model × assignment` combination, in a fixed order.
pub fn combos(
    models: &[&'static str],
    assignments: &[(Option<&'static str>, Executor)],
) -> Vec<Combo> {
    models
        .iter()
        .flat_map(|&model| {
            assignments.iter().map(move |&(format, executor)| Combo {
                model,
                format,
                executor,
            })
        })
        .collect()
}

/// Builds a zoo model by name with the fixed weights and its calibration.
pub fn build_model(name: &str) -> (Model, Calibration) {
    let mut rng = Rng::new(MODEL_SEED);
    let model = match name {
        "vgg_t" => vgg_t(HW, CLASSES, &mut rng),
        "mobilenet_v3_t" => mobilenet_v3_t(HW, CLASSES, &mut rng),
        other => panic!("no zoo model {other:?}"),
    };
    let calib = Tensor::randn(&[CALIB_SAMPLES, 3, HW, HW], 1.0, &mut rng);
    let cal = calibrate(&model, &calib, 8);
    (model, cal)
}

/// The loaded model (and its calibration) a combo names.
pub fn loaded<'a>(models: &'a [(Model, Calibration)], name: &str) -> &'a (Model, Calibration) {
    models
        .iter()
        .find(|(m, _)| m.name == name)
        .expect("combo model is loaded")
}

/// `n` seeded single samples (`[3, HW, HW]`, no batch dimension).
pub fn samples(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = Rng::new(seed ^ 0x5A3B_1E5E);
    (0..n)
        .map(|_| Tensor::randn(&[3, HW, HW], 1.0, &mut rng))
        .collect()
}

/// Stacks single samples into one `[n, 3, HW, HW]` batch.
pub fn stack(samples: &[Tensor]) -> Tensor {
    let lifted: Vec<Tensor> = samples
        .iter()
        .map(|s| Tensor::from_vec(s.data().to_vec(), &[1, 3, HW, HW]))
        .collect();
    Tensor::cat_outer(&lifted.iter().collect::<Vec<_>>())
}

/// Reference predictions for `inputs` (`[n, ...]`) under `combo`,
/// computed one sample at a time through a freshly built plan (or the
/// FP32 reference forward) — independent of any server cache or batch.
pub fn reference(model: &Model, cal: &Calibration, combo: &Combo, inputs: &Tensor) -> Vec<usize> {
    match combo.format {
        Some(spec) => {
            let assign = mersit_ptq::FormatAssignment::parse(spec).expect("mix specs parse");
            QuantPlan::build_with(model, assign, cal, combo.executor).predict(model, inputs, 1)
        }
        None => predict_ref(&model.net, inputs, 1),
    }
}

/// The server configuration every workload runs, set explicitly so no
/// `MERSIT_SERVE_*` variable can change what is measured.
pub fn serve_config() -> mersit_serve::ServeConfig {
    mersit_serve::ServeConfig {
        max_batch: 8,
        max_wait_us: 2000,
        queue_depth: 64,
        default_executor: Executor::Float,
    }
}

/// The serving request for one sample under `combo`.
pub fn request(combo: &Combo, sample: &Tensor) -> mersit_serve::Request {
    let req = mersit_serve::Request::new(combo.model, sample.clone());
    match combo.format {
        Some(f) => req.format(f).executor(combo.executor),
        None => req,
    }
}
