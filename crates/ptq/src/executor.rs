//! Fake-quantized inference: weights quantized per output channel,
//! activations quantized per layer at every tap point.
//!
//! [`QuantPlan`] is the one PTQ executor. It compiles a model plus a
//! quantizer choice into plan-owned quantized weights and one quantizer
//! per activation site, then runs shared-reference forwards with weight
//! overrides — so many plans evaluate concurrently over one read-only
//! model, with batch shards inside each plan. Two quantizer families
//! compile into it: the registry formats of Table 2, resolved per layer
//! through a [`FormatAssignment`] and scaled by the calibrated maxima
//! (§4.1), and the §2.1 [`AltQuant`] quantizers, which scale themselves.
//!
//! # Invariants
//!
//! * **The tap sites are the contract.** Quantized inference must visit
//!   exactly the activation sites calibration recorded — a site seen only
//!   at calibration means a scale silently goes unused; a site seen only
//!   at inference runs unquantized. Pinned by
//!   `quantized_inference_visits_calibrated_sites` in `calibrate.rs`.
//! * **The plan matches an independent oracle.** A plan's predictions
//!   equal, bit for bit, those of the minimal reference executor in
//!   `tests/reference/mod.rs` — which quantizes the model's weights in
//!   place and looks each site's scale up by path string, with no site
//!   table, no overrides and no packing — for every Table 2 format and
//!   both §2.1 quantizers. Pinned by `tests/plan_matches_reference.rs`.
//! * **Whole-batch shards.** [`QuantPlan::predict`] shards on `batch`
//!   boundaries, so it equals the serial [`QuantPlan::predict_one_batch`]
//!   loop at any thread count — even for the §2.1 quantizers, whose
//!   scales depend on every sample in the batch tensor.
//! * **Rank rule.** Only rank-≥2 parameters are quantized; rank-1
//!   parameters (biases, norm scale/shift) stay FP32, matching common
//!   PTQ practice where they fold into the high-precision accumulator.
//! * **Unseen sites pass through.** A format site whose calibrated
//!   maximum is 0 (never fired, or all-zero data) passes the tensor
//!   through untouched rather than dividing by a degenerate scale.
//!
//! # Observability
//!
//! With `MERSIT_OBS` on, every tap point records a `ptq.layer.<path>`
//! span (the per-layer executor timings; the path string comes from the
//! interned site table, never rebuilt per activation), and the plan
//! records `ptq.plan.build` / `ptq.plan.predict` /
//! `ptq.plan.predict_batch` spans. Instrumentation observes only — the
//! quantized values are bit-identical with the toggle on or off.

use crate::assign::FormatAssignment;
use crate::bittrue::{Executor, QuantGemm};
use crate::calibrate::{Calibration, INPUT_PATH};
use crate::other_formats::AltQuant;
use crate::quantizer::{quantize_per_channel, quantize_slice, scale_anchor, site_scale};
use mersit_core::FormatRef;
use mersit_nn::{argmax_rows, Ctx, InputKind, Layer, Model, PlanWeight, Site, SiteTable, Tap};
use mersit_tensor::{par, Tensor};
use std::sync::Arc;

/// How one activation site, the network input, or one weight tensor
/// quantizes.
#[derive(Debug, Clone)]
enum SiteQuant {
    /// A registry format. Activations quantize per tensor at the
    /// calibrated `scale` (`None` = unseen site, passes through); weights
    /// quantize per output channel.
    Format { fmt: FormatRef, scale: Option<f64> },
    /// A §2.1 quantizer, choosing its own scale from each activation
    /// tensor or weight channel.
    Alt(AltQuant),
}

impl SiteQuant {
    /// `fmt` at the scale calibrated from a site maximum.
    fn calibrated(fmt: &FormatRef, max_abs: f32) -> Self {
        Self::Format {
            fmt: fmt.clone(),
            scale: site_scale(scale_anchor(fmt.as_ref()), max_abs),
        }
    }

    /// The activation seam: quantizes `t` in place.
    fn activation(&self, mut t: Tensor) -> Tensor {
        match self {
            Self::Format {
                fmt,
                scale: Some(s),
            } => quantize_slice(fmt.as_ref(), t.data_mut(), *s),
            Self::Format { scale: None, .. } => mersit_obs::incr("ptq.layer.unseen_sites"),
            Self::Alt(alt) => alt.quantize_slice(t.data_mut()),
        }
        t
    }

    /// The weight path: quantizes a rank-≥2 parameter per output channel.
    fn weight(&self, w: &Tensor) -> Tensor {
        match self {
            Self::Format { fmt, .. } => quantize_per_channel(fmt.as_ref(), w),
            Self::Alt(alt) => alt.quantize_per_channel(w),
        }
    }
}

/// A compiled, immutable evaluation plan for one (model, quantizer
/// choice) pair: plan-owned quantized weight slots (rank-≥2, in
/// parameter-visit order) plus one quantizer per activation site — each
/// weight and site quantized through the format its path resolves to
/// under the plan's [`FormatAssignment`] (a uniform assignment reproduces
/// the historical single-format plan bit for bit), or through one §2.1
/// [`AltQuant`]. GEMM-rhs weights (Linear / im2col Conv2d) are
/// additionally pre-packed into cache-blocked panels at build time —
/// once per plan, not once per sample. Building the plan never mutates
/// the model, and [`QuantPlan::predict`] needs only `&` access — so plans
/// run concurrently over one model, and batch shards run concurrently
/// inside one plan.
#[derive(Debug)]
pub struct QuantPlan {
    /// `None` for a §2.1 plan.
    assign: Option<FormatAssignment>,
    weights: Vec<PlanWeight>,
    sites: SiteTable,
    /// Per-site quantizers, in [`SiteTable`] id order.
    quants: Vec<SiteQuant>,
    /// The network input's quantizer ([`INPUT_PATH`] resolution); `None`
    /// for token-id inputs, which never quantize.
    input: Option<SiteQuant>,
    executor: Executor,
}

/// The plan's tap: shows each incoming activation to the observer, then
/// quantizes it through its site's quantizer.
struct PlanTap<'a> {
    quants: &'a [SiteQuant],
    observe: &'a mut dyn FnMut(Site<'_>, &Tensor),
}

impl Tap for PlanTap<'_> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        (self.observe)(site, &t);
        // The per-layer executor timing: one span per tap visit, named
        // after the layer path (resolved from the interned table).
        let _span = mersit_obs::span_dyn(|| format!("ptq.layer.{}", site.path));
        self.quants[site.id.index()].activation(t)
    }
}

impl QuantPlan {
    /// Compiles the plan with the default [`Executor::Float`] engine:
    /// per-channel-quantizes every rank-≥2 parameter into plan-owned
    /// tensors and precomputes the per-site activation scales. The model
    /// is only read. Accepts a plain [`FormatRef`] (uniform assignment)
    /// or a full [`FormatAssignment`].
    #[must_use]
    pub fn build(model: &Model, assign: impl Into<FormatAssignment>, cal: &Calibration) -> Self {
        Self::build_with(model, assign, cal, Executor::Float)
    }

    /// Compiles the plan for a chosen execution engine. Every weight and
    /// activation site quantizes through the format its path resolves to
    /// under the assignment (`FormatRef` arguments convert into uniform
    /// assignments, preserving the historical single-format behavior bit
    /// for bit). With [`Executor::BitTrue`], every GEMM-rhs rank-2 weight
    /// additionally gets a [`QuantGemm`] engine built from the **original
    /// FP32** weights under **that layer's** format (same per-channel
    /// scales as the fake-quantized tensor, so the code matrix corresponds
    /// element for element — and each layer's codes, row scales and
    /// `FixTable` follow its own format) — Linear and im2col Conv2d
    /// forwards then multiply raw codes with exact Kulisch accumulation
    /// instead of running the float GEMM.
    #[must_use]
    pub fn build_with(
        model: &Model,
        assign: impl Into<FormatAssignment>,
        cal: &Calibration,
        executor: Executor,
    ) -> Self {
        let assign = assign.into();
        let plan = Self::compile(model, cal, executor, |path, max_abs| {
            SiteQuant::calibrated(assign.format_for(path), max_abs)
        });
        Self {
            assign: Some(assign),
            ..plan
        }
    }

    /// Compiles a §2.1 plan: every weight (per output channel), activation
    /// site and image input quantizes through `alt`. §2.1 plans run on the
    /// float executor only — the bit-true engines exist for registry
    /// formats.
    #[must_use]
    pub fn build_alt(model: &Model, alt: AltQuant, cal: &Calibration) -> Self {
        Self::compile(model, cal, Executor::Float, |_, _| SiteQuant::Alt(alt))
    }

    /// The shared build: `quant_for(path, calibrated_max)` picks each
    /// weight's, site's and the input's quantizer. Weights pass a maximum
    /// of 0: they scale per output channel, never by a calibrated site
    /// maximum.
    fn compile(
        model: &Model,
        cal: &Calibration,
        executor: Executor,
        quant_for: impl Fn(&str, f32) -> SiteQuant,
    ) -> Self {
        let _span = mersit_obs::span("ptq.plan.build");
        let mut weights = Vec::new();
        model.net.visit_params_ref("", &mut |path, p| {
            if p.value.shape().len() < 2 {
                return;
            }
            mersit_obs::incr("ptq.weights.tensors");
            let quant = quant_for(path, 0.0);
            let q = quant.weight(&p.value);
            weights.push(if p.gemm_rhs && q.shape().len() == 2 {
                match quant {
                    SiteQuant::Format { fmt, .. } if executor == Executor::BitTrue => {
                        mersit_obs::incr("ptq.bittrue.engines");
                        let engine = QuantGemm::build(fmt, &p.value);
                        PlanWeight::with_bit_true(q, Arc::new(engine))
                    }
                    _ => PlanWeight::packed_rhs(q),
                }
            } else {
                PlanWeight::plain(q)
            });
        });
        let sites = cal.sites().clone();
        let quants = sites
            .iter()
            .map(|(id, path)| quant_for(path, cal.max_of(id)))
            .collect();
        let input =
            (model.input == InputKind::Image).then(|| quant_for(INPUT_PATH, cal.input_max()));
        Self {
            assign: None,
            weights,
            sites,
            quants,
            input,
            executor,
        }
    }

    /// The per-layer format assignment this plan quantizes through
    /// (`None` for a §2.1 plan).
    #[must_use]
    pub fn assignment(&self) -> Option<&FormatAssignment> {
        self.assign.as_ref()
    }

    /// The execution engine the plan was compiled for.
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// Number of quantized weight tensors the plan owns.
    #[must_use]
    pub fn num_weight_slots(&self) -> usize {
        self.weights.len()
    }

    /// Runs one batch and returns its logits: quantize the input (image
    /// models), then a shared-reference forward with weight overrides and
    /// the plan tap. `observe` sees every activation as it arrives at a
    /// tap site, before quantization.
    ///
    /// # Panics
    ///
    /// Panics if the forward consumes a different number of weight
    /// overrides than the plan owns (a model/plan mismatch).
    pub(crate) fn forward(
        &self,
        model: &Model,
        x: Tensor,
        observe: &mut dyn FnMut(Site<'_>, &Tensor),
    ) -> Tensor {
        let x = match &self.input {
            Some(q) => q.activation(x),
            None => x,
        };
        let mut tap = PlanTap {
            quants: &self.quants,
            observe,
        };
        let mut ctx = Ctx::compiled(&self.sites, &mut tap).with_overrides(&self.weights);
        let logits = model.net.forward_ref(x, &mut ctx);
        assert_eq!(
            ctx.overrides_consumed(),
            self.weights.len(),
            "forward consumed a different number of weight overrides than the plan owns"
        );
        logits
    }

    fn predict_batch(&self, model: &Model, x: Tensor) -> Vec<usize> {
        argmax_rows(&self.forward(model, x, &mut |_, _| {}))
    }

    /// Runs one already-coalesced batch through the plan and returns the
    /// argmax prediction per sample — the serving layer's entry point: a
    /// dynamic batcher concatenates single-sample requests and runs one
    /// forward here. For format plans, per-sample arithmetic never
    /// depends on batch-mates (float taps scale per element with
    /// calibrated per-site scales; bit-true GEMMs encode activations with
    /// per-row scales), so each prediction is bit-identical to running
    /// that sample alone. §2.1 plans scale over the whole batch tensor.
    ///
    /// # Panics
    ///
    /// Panics if the forward consumes a different number of weight
    /// overrides than the plan owns (a model/plan mismatch).
    #[must_use]
    pub fn predict_one_batch(&self, model: &Model, x: Tensor) -> Vec<usize> {
        let _span = mersit_obs::span("ptq.plan.predict_batch");
        self.predict_batch(model, x)
    }

    /// Fake-quantized inference through the plan: consecutive `batch`-
    /// sample slices (the last may be short), sharded across
    /// `mersit_tensor::par` on whole-batch boundaries. Predictions are
    /// bit-identical to the serial [`QuantPlan::predict_one_batch`] loop
    /// over the same slices for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is 0.
    #[must_use]
    pub fn predict(&self, model: &Model, inputs: &Tensor, batch: usize) -> Vec<usize> {
        let _span = mersit_obs::span("ptq.plan.predict");
        assert!(batch > 0, "batch size must be positive");
        let n = inputs.shape()[0];
        mersit_obs::add("ptq.predict.samples", n as u64);
        // One `batch`-long unit per batch; the padding past `n` in the
        // last unit is cut off below.
        let mut preds = vec![0usize; n.div_ceil(batch) * batch];
        par::par_chunks_mut(&mut preds, batch, 1, |b0, chunk| {
            for (b, unit) in chunk.chunks_mut(batch).enumerate() {
                let lo = (b0 + b) * batch;
                let hi = (lo + batch).min(n);
                let x = inputs.slice_outer(lo, hi);
                unit[..hi - lo].copy_from_slice(&self.predict_batch(model, x));
            }
        });
        preds.truncate(n);
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use mersit_core::parse_format;
    use mersit_nn::models::vgg_t;
    use mersit_nn::predict;
    use mersit_tensor::Rng;

    #[test]
    fn rank1_params_stay_fp32() {
        // Only rank-≥2 parameters get a quantized plan slot; biases and
        // norm scale/shift are read from the untouched model in FP32.
        let mut rng = Rng::new(2);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 2);
        let mut ranks = Vec::new();
        model
            .net
            .visit_params_ref("", &mut |_, p| ranks.push(p.value.shape().len()));
        let plan = QuantPlan::build(&model, parse_format("INT8").unwrap(), &cal);
        let quantized = ranks.iter().filter(|&&r| r >= 2).count();
        assert!(quantized < ranks.len(), "vgg_t has rank-1 parameters");
        assert_eq!(plan.num_weight_slots(), quantized);
        assert!(plan.weights.iter().all(|w| w.value.shape().len() >= 2));
    }

    #[test]
    fn high_precision_format_preserves_predictions() {
        // Quantizing through a wide format (MERSIT at 4-bit fraction) on a
        // random model should keep most predictions identical.
        let mut rng = Rng::new(3);
        let mut model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[16, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 8);
        let fp = predict(&mut model.net, &x, 8);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let q = QuantPlan::build(&model, fmt, &cal).predict(&model, &x, 8);
        let agree = fp.iter().zip(&q).filter(|(a, b)| a == b).count();
        assert!(agree >= 12, "only {agree}/16 predictions agree");
    }

    #[test]
    fn degenerate_format_degrades_more() {
        // FP(8,2) has a tiny dynamic range; it should disagree with FP32 at
        // least as much as MERSIT(8,2) does.
        let mut rng = Rng::new(4);
        let mut model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[24, 3, 12, 12], 2.0, &mut rng);
        let cal = calibrate(&model, &x, 8);
        let fp = predict(&mut model.net, &x, 8);
        let agree = |name: &str| {
            let fmt = parse_format(name).unwrap();
            let q = QuantPlan::build(&model, fmt, &cal).predict(&model, &x, 8);
            fp.iter().zip(&q).filter(|(a, b)| a == b).count()
        };
        let good = agree("MERSIT(8,2)");
        let bad = agree("FP(8,2)");
        assert!(good >= bad, "MERSIT {good} vs FP(8,2) {bad}");
    }

    #[test]
    fn plan_predictions_stable_across_batch_sizes() {
        // Per-sample independence: the plan's sharded predict must not
        // depend on how samples are grouped into batches.
        let mut rng = Rng::new(5);
        let model = vgg_t(8, 10, &mut rng);
        let x = Tensor::randn(&[11, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 4);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let plan = QuantPlan::build(&model, fmt, &cal);
        let a = plan.predict(&model, &x, 3);
        let b = plan.predict(&model, &x, 11);
        assert_eq!(a, b);
        assert!(plan.num_weight_slots() >= 6);
    }
}
