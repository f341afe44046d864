//! End-to-end bit-true execution over the model zoo: every registered
//! Table 2 format must run the [`Executor::BitTrue`] engine through a
//! full model forward — including Posit(8,3), whose fixed-point operands
//! overflow `i64` and take the 256-bit wide-accumulator fallback — and
//! the co-verification harness must report bounded divergence against
//! the float executor on every hardware format.

use mersit_core::{hardware_formats, table2_formats};
use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_ptq::{calibrate, coverify, DivergenceReport, Executor, QuantPlan, SiteDivergence};
use mersit_tensor::{Rng, Tensor};

#[test]
fn bit_true_runs_every_table2_format_end_to_end() {
    let mut rng = Rng::new(0xB17);
    let model = vgg_t(8, 10, &mut rng);
    let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    let inputs = Tensor::randn(&[10, 3, 8, 8], 1.0, &mut rng);
    let cal = calibrate(&model, &calib, 4);
    let formats = table2_formats();
    assert_eq!(formats.len(), 11, "Table 2 grid changed size");
    for fmt in &formats {
        let plan = QuantPlan::build_with(&model, fmt.clone(), &cal, Executor::BitTrue);
        assert_eq!(plan.executor(), Executor::BitTrue);
        let preds = plan.predict(&model, &inputs, 4);
        assert_eq!(preds.len(), 10, "{}", fmt.name());
        assert!(
            preds.iter().all(|&p| p < 10),
            "{}: prediction out of class range",
            fmt.name()
        );
    }
}

#[test]
fn bit_true_tracks_float_executor_predictions() {
    // On the well-conditioned hardware formats the two executors should
    // agree on most argmax decisions (they share quantization scales;
    // only the activation re-encoding differs).
    let mut rng = Rng::new(0xB18);
    for model in [vgg_t(8, 10, &mut rng), mobilenet_v3_t(8, 10, &mut rng)] {
        let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let inputs = Tensor::randn(&[12, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &calib, 4);
        for fmt in hardware_formats() {
            let float_plan = QuantPlan::build_with(&model, fmt.clone(), &cal, Executor::Float);
            let bt_plan = QuantPlan::build_with(&model, fmt.clone(), &cal, Executor::BitTrue);
            let f = float_plan.predict(&model, &inputs, 4);
            let b = bt_plan.predict(&model, &inputs, 4);
            let agree = f.iter().zip(&b).filter(|(x, y)| x == y).count();
            assert!(
                agree >= 8,
                "{} on {}: only {agree}/12 predictions agree",
                fmt.name(),
                model.name
            );
        }
    }
}

#[test]
fn bit_true_predictions_stable_across_batch_sizes() {
    // Integer accumulation is exact and the activation scale is
    // dynamic *per row* of a GEMM input — and every row the engine sees
    // (a Linear sample, an im2col patch) comes from exactly one sample —
    // so predictions must not depend on how samples are grouped into
    // batches. This is the invariant the serving layer's dynamic batcher
    // leans on (see `mersit-serve`).
    let mut rng = Rng::new(0xB19);
    let model = vgg_t(8, 10, &mut rng);
    let calib = Tensor::randn(&[5, 3, 8, 8], 1.0, &mut rng);
    let inputs = Tensor::randn(&[11, 3, 8, 8], 1.0, &mut rng);
    let cal = calibrate(&model, &calib, 4);
    let fmt = mersit_core::parse_format("MERSIT(8,2)").unwrap();
    let plan = QuantPlan::build_with(&model, fmt, &cal, Executor::BitTrue);
    let single = plan.predict(&model, &inputs, 1);
    for batch in [3, 4, 11] {
        let grouped = plan.predict(&model, &inputs, batch);
        assert_eq!(single, grouped, "batch {batch} changed bit-true output");
    }
}

#[test]
fn coverify_bounds_divergence_on_hardware_formats() {
    let mut rng = Rng::new(0xB20);
    let model = vgg_t(8, 10, &mut rng);
    let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    let inputs = Tensor::randn(&[8, 3, 8, 8], 1.0, &mut rng);
    let cal = calibrate(&model, &calib, 4);
    for fmt in hardware_formats() {
        let name = fmt.name();
        let report = coverify(&model, fmt, &cal, &inputs, 4);
        assert_eq!(report.samples, 8, "{name}");
        assert!(!report.sites.is_empty(), "{name}: no sites compared");
        assert!(
            report.agreement >= 0.5,
            "{name}: agreement collapsed to {}",
            report.agreement
        );
        assert!(
            report.logits_max_abs.is_finite(),
            "{name}: non-finite logit divergence"
        );
        for s in &report.sites {
            assert!(
                s.max_abs.is_finite() && s.elems > 0,
                "{name} @ {}: degenerate divergence entry",
                s.path
            );
        }
        // The JSON artifact round-trips its headline fields.
        let json = report.to_json();
        assert!(json.contains(&format!("{:?}", report.model)), "{name}");
        assert!(json.contains("\"agreement\""), "{name}");
    }
}

/// Site paths come from layer names: quotes and control characters must
/// come out as JSON escapes, and non-finite statistics as `null`.
#[test]
fn divergence_json_escapes_hostile_site_paths() {
    let report = DivergenceReport {
        model: "m".into(),
        format: "MERSIT(8,2)".into(),
        samples: 1,
        sites: vec![SiteDivergence {
            path: "blk\"0\u{1b}conv".into(),
            elems: 4,
            max_abs: 0.5,
            mean_abs: f64::NAN,
        }],
        logits_max_abs: f64::INFINITY,
        agreement: 1.0,
    };
    let json = report.to_json();
    assert!(
        json.contains(r#"{"path": "blk\"0\u001bconv", "elems": 4, "max_abs": 5.000000000e-1, "mean_abs": null}"#),
        "{json}"
    );
    assert!(json.contains("\"logits_max_abs\": null,"), "{json}");
    assert!(
        !json.contains('\u{1b}') && !json.contains(r"\u{1b}"),
        "{json}"
    );
}
