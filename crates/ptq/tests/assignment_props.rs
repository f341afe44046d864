//! Bit-identity contract of the assignment refactor: a *uniform*
//! [`FormatAssignment`] — whether written as the `From<FormatRef>` sugar
//! or as an explicit assignment that redundantly overrides every single
//! parameter path to the same format — must be bit-for-bit identical to
//! the historical single-format plan, for every Table-2 format, on both
//! executors, at pool sizes 1, 2 and 7. At the same pool sizes, a §2.1
//! plan's sharded `predict` equals its serial `predict_one_batch` loop:
//! those quantizers scale over the whole batch tensor, so this pins that
//! `predict` shards on whole-batch boundaries.
//!
//! The thread sweep reuses the `pool_stress` idiom: `MERSIT_THREADS` is
//! a process-global latch, so the sweep lives in one `#[test]` and
//! re-latches via `pool::shutdown()`.

mod reference;

use mersit_core::table2_formats;
use mersit_nn::models::vgg_t;
use mersit_nn::Layer;
use mersit_ptq::{calibrate, AltQuant, Executor, FormatAssignment, QuantPlan};
use mersit_tensor::{pool, Rng, Tensor};
use reference::Quantizer;

#[test]
fn uniform_assignment_is_bit_identical_across_formats_executors_threads() {
    let formats = table2_formats();
    assert_eq!(formats.len(), 11, "Table 2 grid changed size");
    for threads in [1usize, 2, 7] {
        std::env::set_var("MERSIT_THREADS", threads.to_string());
        pool::shutdown(); // re-latch the pool at the new size
        let mut rng = Rng::new(0xA55 ^ threads as u64);
        let mut model = vgg_t(8, 10, &mut rng);
        let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        // 10 samples at batch 4: an uneven final shard in predict.
        let inputs = Tensor::randn(&[10, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &calib, 4);

        // Every parameter path, for the redundant-override spelling.
        let mut param_paths = Vec::new();
        model.net.visit_params_ref("", &mut |path, _| {
            param_paths.push(path.to_owned());
        });
        assert!(param_paths.len() > 4, "vgg_t has several parameters");

        for fmt in &formats {
            // Leg 1 (float only): the sugar plan matches the reference
            // executor exactly.
            let quant = Quantizer::Format(fmt.clone());
            let want = reference::predict(&mut model, &quant, &cal, &inputs, 4);
            for executor in [Executor::Float, Executor::BitTrue] {
                let sugar = QuantPlan::build_with(&model, fmt.clone(), &cal, executor);
                assert!(sugar.assignment().is_some_and(FormatAssignment::is_uniform));
                let sugar_preds = sugar.predict(&model, &inputs, 4);
                if executor == Executor::Float {
                    assert_eq!(
                        want,
                        sugar_preds,
                        "{} diverged from the reference at {threads} threads",
                        fmt.name()
                    );
                }
                // Leg 2 (both executors): redundantly overriding every
                // parameter path to the same format changes nothing.
                let mut redundant = FormatAssignment::uniform(fmt.clone());
                for p in &param_paths {
                    redundant = redundant.with_override(p.clone(), fmt.clone());
                }
                assert!(!redundant.is_uniform());
                let explicit = QuantPlan::build_with(&model, redundant, &cal, executor);
                assert_eq!(
                    sugar_preds,
                    explicit.predict(&model, &inputs, 4),
                    "redundant overrides diverged: {} {executor:?} at {threads} threads",
                    fmt.name()
                );
            }
        }

        // §2.1 plans: sharded predict == the serial batch loop, with the
        // short final batch (10 = 4 + 4 + 2) scaled on its own. Sample 4
        // is a 1e6× outlier, so the AdaptivFloat bias of whichever batch
        // holds it flushes its batch-mates: a shard boundary off the
        // batch grid changes predictions.
        let mut skewed = inputs.clone();
        let per_sample = skewed.len() / 10;
        for v in &mut skewed.data_mut()[4 * per_sample..5 * per_sample] {
            *v *= 1e6;
        }
        for alt in [
            AltQuant::AdaptivFloat {
                exp_bits: 4,
                frac_bits: 3,
            },
            AltQuant::Bfp {
                mant_bits: 7,
                group: 16,
            },
        ] {
            let plan = QuantPlan::build_alt(&model, alt, &cal);
            let serial: Vec<usize> = (0..10)
                .step_by(4)
                .flat_map(|lo| {
                    plan.predict_one_batch(&model, skewed.slice_outer(lo, (lo + 4).min(10)))
                })
                .collect();
            assert_eq!(
                plan.predict(&model, &skewed, 4),
                serial,
                "{alt:?} sharded predict diverged at {threads} threads"
            );
        }
    }
    std::env::remove_var("MERSIT_THREADS");
    pool::shutdown();
}
