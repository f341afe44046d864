//! Pins the compiled [`QuantPlan`] against the independent reference
//! executor in `reference/mod.rs` (weights quantized in place, scales
//! looked up by path string, no site table, overrides or packing). Every
//! Table 2 format and both §2.1 quantizers, on two zoo models, must
//! produce *exactly* the same predictions both ways.

mod reference;

use mersit_core::table2_formats;
use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_ptq::{calibrate, AltQuant, QuantPlan};
use mersit_tensor::{Rng, Tensor};
use reference::Quantizer;

#[test]
fn plan_matches_reference_for_every_quantizer() {
    let mut rng = Rng::new(0x51AB);
    let mut models = [vgg_t(8, 10, &mut rng), mobilenet_v3_t(8, 10, &mut rng)];
    let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    // 12 samples with batch 5 forces an uneven final shard in the
    // plan's parallel predict path.
    let inputs = Tensor::randn(&[12, 3, 8, 8], 1.0, &mut rng);
    let formats = table2_formats();
    assert_eq!(formats.len(), 11, "Table 2 grid changed size");
    let mut quants: Vec<Quantizer> = formats.into_iter().map(Quantizer::Format).collect();
    quants.push(Quantizer::Alt(AltQuant::AdaptivFloat {
        exp_bits: 4,
        frac_bits: 3,
    }));
    quants.push(Quantizer::Alt(AltQuant::Bfp {
        mant_bits: 7,
        group: 16,
    }));
    for model in &mut models {
        let cal = calibrate(model, &calib, 4);
        for quant in &quants {
            let want = reference::predict(model, quant, &cal, &inputs, 5);
            let plan = match quant {
                Quantizer::Format(fmt) => QuantPlan::build(model, fmt.clone(), &cal),
                Quantizer::Alt(alt) => QuantPlan::build_alt(model, *alt, &cal),
            };
            assert_eq!(
                want,
                plan.predict(model, &inputs, 5),
                "plan disagrees with the reference: {} on {}",
                quant.name(),
                model.name
            );
        }
    }
}
