//! Mixed (genuinely heterogeneous) assignments end to end on zoo models:
//! every site compiles against the format its path resolves to, on both
//! executors, and batching stays invisible — a batched predict is
//! bit-identical to per-sample predicts under the same mixed plan.

use mersit_core::parse_format;
use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_ptq::{calibrate, Executor, FormatAssignment, QuantPlan};
use mersit_tensor::{Rng, Tensor};

#[test]
fn mixed_assignment_batched_equals_single_sample_on_both_executors() {
    let mut rng = Rng::new(0x21F0);
    let models = [vgg_t(8, 10, &mut rng), mobilenet_v3_t(8, 10, &mut rng)];
    let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    let inputs = Tensor::randn(&[11, 3, 8, 8], 1.0, &mut rng);
    // One override per model family: vgg paths are flat (`5_conv`),
    // mobilenet paths are nested (`ir1.6_se.fc2`); a dotted-prefix
    // override must catch a whole subtree.
    let assigns = [
        FormatAssignment::parse("MERSIT(8,2);5_conv=FP(8,4);11_linear=Posit(8,1);0_conv=INT8")
            .unwrap(),
        FormatAssignment::parse("MERSIT(8,2);ir1=FP(8,4);head=Posit(8,1)").unwrap(),
    ];
    for (model, assign) in models.iter().zip(&assigns) {
        let cal = calibrate(model, &calib, 4);
        for executor in [Executor::Float, Executor::BitTrue] {
            let plan = QuantPlan::build_with(model, assign.clone(), &cal, executor);
            // The plan keeps the mixed assignment as its identity.
            let kept = plan
                .assignment()
                .expect("format plans keep their assignment");
            assert!(!kept.is_uniform());
            assert_eq!(kept.name(), assign.name());
            assert!(
                kept.formats().len() >= 2,
                "assignment must be genuinely heterogeneous"
            );
            let single = plan.predict(model, &inputs, 1);
            for batch in [3usize, 7, 11] {
                assert_eq!(
                    single,
                    plan.predict(model, &inputs, batch),
                    "batch {batch} diverged under {} on {} ({executor:?})",
                    assign.name(),
                    model.name
                );
            }
        }
    }
}

/// Overrides are load-bearing, not cosmetic: the same mixed layout
/// expressed through two opposite routes must compile to bit-identical
/// plans. Route A defaults to MERSIT and demotes the stem to FP(8,2);
/// route B defaults to FP(8,2) and promotes everything *else* (every
/// activation site and the network input) back to MERSIT. If overrides
/// were ignored, route A would be uniform MERSIT and route B uniform
/// FP(8,2) — two very different plans.
#[test]
fn mixed_layout_is_route_independent() {
    let mut rng = Rng::new(0x21F1);
    let model = vgg_t(8, 10, &mut rng);
    let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    let inputs = Tensor::randn(&[9, 3, 8, 8], 1.0, &mut rng);
    let cal = calibrate(&model, &calib, 4);
    let mersit = parse_format("MERSIT(8,2)").unwrap();
    let fp82 = parse_format("FP(8,2)").unwrap();

    let route_a = FormatAssignment::uniform(mersit.clone()).with_override("0_conv", fp82.clone());
    let mut route_b = FormatAssignment::uniform(fp82);
    for (_, path) in cal.sites().iter() {
        if path != "0_conv" && !path.starts_with("0_conv.") {
            route_b = route_b.with_override(path, mersit.clone());
        }
    }
    route_b = route_b.with_override(mersit_ptq::INPUT_PATH, mersit.clone());
    assert!(route_b.overrides().len() > 3, "vgg_t has several sites");

    for executor in [Executor::Float, Executor::BitTrue] {
        let a = QuantPlan::build_with(&model, route_a.clone(), &cal, executor);
        let b = QuantPlan::build_with(&model, route_b.clone(), &cal, executor);
        for batch in [1usize, 4] {
            assert_eq!(
                a.predict(&model, &inputs, batch),
                b.predict(&model, &inputs, batch),
                "routes diverged ({executor:?}, batch {batch})"
            );
        }
    }
}
