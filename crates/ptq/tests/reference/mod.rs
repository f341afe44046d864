//! A minimal reference PTQ executor: the independent oracle that the
//! compiled `QuantPlan` is checked against.
//!
//! It quantizes the model's rank-≥2 parameters in place (restoring the
//! FP32 values afterwards) and runs plain forwards whose tap looks each
//! site's scale up by path string through `Calibration::max_for`. It has
//! no site table, no weight overrides and no packed panels, so a plan
//! that matches it bit for bit is checked against separate code.

// Shared by several test crates, each using a subset.
#![allow(dead_code)]

use mersit_core::FormatRef;
use mersit_nn::{argmax_rows, Ctx, InputKind, Layer, Model, Site, Tap};
use mersit_ptq::{
    quantize_per_channel, quantize_tensor, scale_anchor, site_scale, AltQuant, Calibration,
    INPUT_PATH,
};
use mersit_tensor::Tensor;

/// What the reference quantizes every weight and activation through.
#[derive(Debug, Clone)]
pub enum Quantizer {
    /// A registry format at calibrated scales.
    Format(FormatRef),
    /// A §2.1 quantizer, self-scaling per tensor (weights per channel).
    Alt(AltQuant),
}

impl Quantizer {
    /// Label for assertion messages.
    pub fn name(&self) -> String {
        match self {
            Self::Format(fmt) => fmt.name(),
            Self::Alt(alt) => format!("{alt:?}"),
        }
    }

    fn activation(&self, path: &str, cal: &Calibration, t: Tensor) -> Tensor {
        match self {
            Self::Format(fmt) => match site_scale(scale_anchor(fmt.as_ref()), cal.max_for(path)) {
                Some(s) => quantize_tensor(fmt.as_ref(), &t, s),
                None => t,
            },
            Self::Alt(alt) => {
                let mut t = t;
                alt.quantize_slice(t.data_mut());
                t
            }
        }
    }

    fn weight(&self, w: &Tensor) -> Tensor {
        match self {
            Self::Format(fmt) => quantize_per_channel(fmt.as_ref(), w),
            Self::Alt(alt) => alt.quantize_per_channel(w),
        }
    }
}

struct RefTap<'a> {
    quant: &'a Quantizer,
    cal: &'a Calibration,
}

impl Tap for RefTap<'_> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.quant.activation(site.path, self.cal, t)
    }
}

/// Reference predictions over consecutive `batch`-sample slices. The
/// model's weights are quantized for the run and restored bit for bit
/// before returning.
pub fn predict(
    model: &mut Model,
    quant: &Quantizer,
    cal: &Calibration,
    inputs: &Tensor,
    batch: usize,
) -> Vec<usize> {
    let mut fp32 = Vec::new();
    model.net.visit_params("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            let q = quant.weight(&p.value);
            fp32.push(std::mem::replace(&mut p.value, q));
        }
    });
    let n = inputs.shape()[0];
    let mut preds = Vec::with_capacity(n);
    for lo in (0..n).step_by(batch) {
        let mut x = inputs.slice_outer(lo, (lo + batch).min(n));
        if model.input == InputKind::Image {
            x = quant.activation(INPUT_PATH, cal, x);
        }
        let mut tap = RefTap { quant, cal };
        let logits = model.net.forward_ref(x, &mut Ctx::with_tap(&mut tap));
        preds.extend(argmax_rows(&logits));
    }
    let mut fp32 = fp32.into_iter();
    model.net.visit_params("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            p.value = fp32.next().expect("parameter count changed");
        }
    });
    preds
}
