//! The "Other Formats" of the paper's §2.1: AdaptivFloat [Tambe+, DAC'20]
//! and 8-bit block floating point [Yeh+, ICML'22].
//!
//! The paper argues these "align with FP8" once channel-/layer-level
//! scaling is applied, "eliminating the need for a separate comparison".
//! This module implements both so that claim can be *measured* (see the
//! `other_formats` bench binary) instead of assumed.
//!
//! Both are [`AltQuant`] values: a §2.1 [`crate::QuantPlan`]
//! (`QuantPlan::build_alt`) quantizes every weight per output channel and
//! every activation site tensor-wide through one of them. Neither needs a
//! calibrated scale — each picks its own from the data it quantizes — so
//! their results depend on which samples share a batch tensor.

use mersit_tensor::{par, Tensor};

/// AdaptivFloat quantization: sign + `exp_bits` exponent + `frac_bits`
/// fraction, **no subnormals**, with a per-tensor integer exponent bias
/// chosen so the largest magnitude is representable — the format's
/// "adaptive" part.
///
/// # Panics
///
/// Panics unless `1 <= exp_bits <= 6` and `1 + exp_bits + frac_bits == 8`
/// (8-bit words, as compared in the paper).
#[must_use]
pub fn quantize_adaptivfloat(t: &Tensor, exp_bits: u32, frac_bits: u32) -> Tensor {
    let mut out = t.clone();
    adaptivfloat_slice(out.data_mut(), exp_bits, frac_bits);
    out
}

/// [`quantize_adaptivfloat`] in place, with the bias chosen from the
/// slice's own maximum.
fn adaptivfloat_slice(xs: &mut [f32], exp_bits: u32, frac_bits: u32) {
    assert!((1..=6).contains(&exp_bits), "exp_bits out of range");
    assert_eq!(1 + exp_bits + frac_bits, 8, "must form an 8-bit word");
    let max = f64::from(xs.iter().fold(0.0f32, |m, &x| m.max(x.abs())));
    if max == 0.0 {
        return;
    }
    // Choose the bias so the top exponent matches the data maximum.
    let e_top = max.log2().floor() as i32;
    let e_min = e_top - (1 << exp_bits) + 1;
    let fscale = f64::from(1u32 << frac_bits);
    let quantize = |x: f32| -> f32 {
        let xf = f64::from(x);
        if xf == 0.0 {
            return 0.0;
        }
        let sign = xf.signum();
        let mag = xf.abs();
        let mut e = mag.log2().floor() as i32;
        if e < e_min {
            // No subnormals: underflow region rounds to zero or the
            // smallest normal, whichever is nearer.
            let min_normal = 2f64.powi(e_min);
            return if mag < min_normal / 2.0 {
                0.0
            } else {
                (sign * min_normal) as f32
            };
        }
        e = e.min(e_top);
        let step = 2f64.powi(e) / fscale;
        let q = (mag / step).round_ties_even() * step;
        // Rounding up may carry into the next binade; cap at the max.
        let max_val = (2.0 - 1.0 / fscale) * 2f64.powi(e_top);
        (sign * q.min(max_val)) as f32
    };
    par::par_chunks_mut(xs, 1, par::min_units(4), |_, chunk| {
        for v in chunk {
            *v = quantize(*v);
        }
    });
}

/// Block-floating-point quantization: values are split into groups of
/// `group` consecutive elements sharing one exponent; each element keeps a
/// signed `mant_bits`-bit mantissa.
///
/// # Panics
///
/// Panics if `group == 0` or `mant_bits` is not in `2..=15`.
#[must_use]
pub fn quantize_bfp(t: &Tensor, mant_bits: u32, group: usize) -> Tensor {
    let mut out = t.clone();
    bfp_slice(out.data_mut(), mant_bits, group);
    out
}

/// [`quantize_bfp`] in place.
fn bfp_slice(xs: &mut [f32], mant_bits: u32, group: usize) {
    assert!(group > 0, "empty group");
    assert!((2..=15).contains(&mant_bits), "mantissa width out of range");
    let half = f64::from((1i32 << (mant_bits - 1)) - 1); // symmetric mantissa range
    for chunk in xs.chunks_mut(group) {
        let max = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if max == 0.0 {
            continue;
        }
        // Shared exponent: scale so the max uses the full mantissa.
        let e = f64::from(max).log2().ceil() as i32;
        let step = 2f64.powi(e) / (half + 1.0);
        for v in chunk.iter_mut() {
            let q = (f64::from(*v) / step).round_ties_even().clamp(-half, half);
            *v = (q * step) as f32;
        }
    }
}

/// One §2.1 alternative quantizer with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltQuant {
    /// AdaptivFloat with `exp_bits` exponent and `frac_bits` fraction
    /// bits (see [`quantize_adaptivfloat`]).
    AdaptivFloat {
        /// Exponent field width.
        exp_bits: u32,
        /// Fraction field width.
        frac_bits: u32,
    },
    /// Block floating point with `mant_bits`-bit mantissas over groups of
    /// `group` elements (see [`quantize_bfp`]).
    Bfp {
        /// Signed mantissa width.
        mant_bits: u32,
        /// Elements sharing one exponent.
        group: usize,
    },
}

impl AltQuant {
    /// Quantizes a slice in place as one tensor (per-layer scaling: the
    /// quantizer picks its scale from the whole slice).
    pub fn quantize_slice(&self, xs: &mut [f32]) {
        match *self {
            AltQuant::AdaptivFloat {
                exp_bits,
                frac_bits,
            } => adaptivfloat_slice(xs, exp_bits, frac_bits),
            AltQuant::Bfp { mant_bits, group } => bfp_slice(xs, mant_bits, group),
        }
    }

    /// Quantizes per output channel (outermost dimension) — the weight
    /// path, matching the main pipeline's per-channel scales. BFP already
    /// groups internally, so it applies tensor-wide.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    #[must_use]
    pub fn quantize_per_channel(&self, t: &Tensor) -> Tensor {
        let inner: usize = t.shape()[1..].iter().product();
        let mut out = t.clone();
        match self {
            // `max(1)`: a zero-size channel means an empty tensor.
            AltQuant::AdaptivFloat { .. } => {
                for ch in out.data_mut().chunks_mut(inner.max(1)) {
                    self.quantize_slice(ch);
                }
            }
            AltQuant::Bfp { .. } => self.quantize_slice(out.data_mut()),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::relative_rmse;
    use mersit_tensor::Rng;

    #[test]
    fn alt_quant_matches_free_functions() {
        let mut rng = Rng::new(9);
        let t = Tensor::randn(&[4, 16], 1.0, &mut rng);
        let af = AltQuant::AdaptivFloat {
            exp_bits: 4,
            frac_bits: 3,
        };
        let mut xs = t.data().to_vec();
        af.quantize_slice(&mut xs);
        assert_eq!(xs, quantize_adaptivfloat(&t, 4, 3).data());
        // Per channel: each row adapts its own bias.
        let per_ch = af.quantize_per_channel(&t);
        for c in 0..4 {
            let row = t.slice_outer(c, c + 1);
            let want = quantize_adaptivfloat(&row, 4, 3);
            assert_eq!(per_ch.slice_outer(c, c + 1).data(), want.data());
        }
        let bf = AltQuant::Bfp {
            mant_bits: 7,
            group: 16,
        };
        let mut xs = t.data().to_vec();
        bf.quantize_slice(&mut xs);
        assert_eq!(xs, quantize_bfp(&t, 7, 16).data());
        assert_eq!(bf.quantize_per_channel(&t).data(), xs);
    }

    #[test]
    fn adaptivfloat_representable_values_fixed() {
        // Exact powers of two and simple fractions survive.
        let t = Tensor::from_vec(vec![1.0, 0.5, -2.0, 1.5, 0.0], &[5]);
        let q = quantize_adaptivfloat(&t, 4, 3);
        assert_eq!(q.data(), t.data());
    }

    #[test]
    fn adaptivfloat_adapts_bias_to_scale() {
        // The same relative precision at wildly different scales — the
        // point of the adaptive bias.
        let mut rng = Rng::new(1);
        let base = Tensor::randn(&[2000], 1.0, &mut rng);
        let scaled = base.scale(1e-6);
        let e1 = relative_rmse(&quantize_adaptivfloat(&base, 4, 3), &base);
        let e2 = relative_rmse(&quantize_adaptivfloat(&scaled, 4, 3), &scaled);
        assert!((e1 - e2).abs() < 0.01, "{e1} vs {e2}");
        assert!(e1 < 0.1, "precision sane: {e1}");
    }

    #[test]
    fn adaptivfloat_flushes_deep_underflow() {
        // Values far below the (biased) normal range flush to zero.
        let t = Tensor::from_vec(vec![1.0, 1e-30], &[2]);
        let q = quantize_adaptivfloat(&t, 3, 4);
        assert_eq!(q.data()[0], 1.0);
        assert_eq!(q.data()[1], 0.0);
    }

    #[test]
    fn bfp_exact_within_group_scale() {
        let t = Tensor::from_vec(vec![0.5, 0.25, -0.75, 1.0], &[4]);
        let q = quantize_bfp(&t, 8, 4);
        for (a, b) in q.data().iter().zip(t.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn bfp_group_size_trades_accuracy() {
        // Small groups adapt better to locally varying magnitudes.
        let mut rng = Rng::new(2);
        let mut data = Vec::new();
        for i in 0..64 {
            let scale = if i % 2 == 0 { 1.0 } else { 1e-3 };
            for _ in 0..16 {
                data.push((rng.normal() * scale) as f32);
            }
        }
        let t = Tensor::from_vec(data, &[64 * 16]);
        let small = relative_rmse(&quantize_bfp(&t, 8, 16), &t);
        let large = relative_rmse(&quantize_bfp(&t, 8, 512), &t);
        assert!(small < large, "group 16: {small}, group 512: {large}");
    }

    #[test]
    fn bfp_zero_group_is_noop() {
        let t = Tensor::zeros(&[32]);
        let q = quantize_bfp(&t, 8, 8);
        assert_eq!(q.data(), t.data());
    }
}
