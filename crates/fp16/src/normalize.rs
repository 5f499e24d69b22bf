//! Adaptive normalization (paper §III-C1).
//!
//! Half precision has a narrow dynamic range (max 65504, smallest normal
//! 6.1e-5). The paper avoids overflow and minimizes underflow by scaling the
//! evolving iterate by a factor derived from its max-norm before each
//! half-precision type cast, and undoing the scaling after the kernel:
//!
//! > "The (de)normalization factor is adaptively changed in each iteration
//! > with respect to the max-norm of the evolving input vector to prevent
//! > overflows while minimizing underflows."

use crate::convert;
use crate::f16::F16;

/// Returns the max-norm (largest absolute value) of a slice, ignoring NaNs.
///
/// NaNs are skipped rather than propagated because a single corrupted
/// detector pixel must not disable normalization for the whole iterate.
///
/// The maximum does not depend on the order it is taken in, so the scan
/// keeps eight independent running maxima — a loop the compiler turns
/// into vector compares instead of one serial dependency chain.
pub fn max_abs(data: &[f32]) -> f32 {
    lane_max(data, 0.0, f32::abs)
}

/// [`max_abs`] of an `f64` slice: the max-norm of a reduction's `f64`
/// accumulator, which each exchange level scales its rounded output by.
pub fn max_abs_f64(data: &[f64]) -> f64 {
    lane_max(data, 0.0, f64::abs)
}

/// The largest `abs(x)` over `data` from `zero`, NaNs skipped, in eight
/// independent lanes.
fn lane_max<T: Copy + PartialOrd>(data: &[T], zero: T, abs: impl Fn(T) -> T + Copy) -> T {
    let larger = |acc: T, x: T| {
        let a = abs(x);
        if a > acc {
            a
        } else {
            acc
        }
    };
    let mut lanes = [zero; 8];
    let chunks = data.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = larger(*m, x);
        }
    }
    lanes
        .iter()
        .chain(tail)
        .fold(zero, |acc, &x| larger(acc, x))
}

/// The largest power of two not above `x`, a finite positive `f32`
/// (subnormals included).
fn pow2_floor(x: f32) -> f32 {
    let bits = x.to_bits();
    if bits >= f32::MIN_POSITIVE.to_bits() {
        // A normal: keep the exponent, clear the mantissa.
        f32::from_bits(bits & 0xff80_0000)
    } else {
        // A subnormal: keep the highest mantissa bit.
        f32::from_bits(1 << (31 - bits.leading_zeros()))
    }
}

/// A vector that has been scaled into half-precision-safe range together
/// with the factor needed to undo the scaling.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The scale that was *applied*; multiply by `1.0 / factor` to undo.
    pub factor: f32,
    /// The scaled values, quantized to half precision.
    pub data: Vec<F16>,
}

/// Computes per-iteration normalization factors from the max-norm of the
/// evolving iterate (paper §III-C1).
///
/// The factor is the largest power of two that maps the max-norm to at
/// most `headroom_target`, so the peak lands in `(target/2, target]`.
/// Power-of-two factors make every rescaling exact outside f16's
/// subnormal range: widening `h · 2^-e` rounds nothing, and a value
/// already held under one factor moves to another without rounding twice.
/// This is the one §III-C1 rule — the serial kernel's input scale and
/// every distributed sender's per-slice scale alike. The default target
/// of `256.0` leaves multiplicative headroom below 65504 for sums formed
/// at half precision; the distributed exchange widens each contribution
/// to `f64` before it adds and scales every level's sum anew, so its
/// reductions need none.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveNormalizer {
    headroom_target: f32,
}

impl Default for AdaptiveNormalizer {
    fn default() -> Self {
        AdaptiveNormalizer {
            headroom_target: 256.0,
        }
    }
}

impl AdaptiveNormalizer {
    /// Creates a normalizer mapping the max-norm to `headroom_target`.
    ///
    /// # Panics
    /// Panics if the target is not a finite positive number within the
    /// half-precision normal range.
    pub fn new(headroom_target: f32) -> Self {
        assert!(
            headroom_target.is_finite()
                && headroom_target >= F16::MIN_POSITIVE.to_f32()
                && headroom_target <= F16::MAX.to_f32(),
            "headroom target {headroom_target} outside half-precision normal range"
        );
        AdaptiveNormalizer { headroom_target }
    }

    /// Returns the scale factor for a vector with the given max-norm: the
    /// largest power of two `k` with `max_norm · k ≤ target`.
    ///
    /// A zero (or denormal-small) max-norm yields factor 1.0: the vector is
    /// all zeros (or effectively so) and needs no scaling; so does a
    /// non-finite one. The factor is always finite and nonzero: a max-norm
    /// so small that `target / max_norm` would overflow `f32` gets 2¹²⁷,
    /// which still maps it below the target — an infinite factor would
    /// quantize every nonzero to ±∞ — and its reciprocal (the undo) is a
    /// finite power of two too.
    pub fn factor_for(&self, max_norm: f32) -> f32 {
        if !max_norm.is_finite() || max_norm < f32::MIN_POSITIVE {
            1.0
        } else {
            pow2_floor((self.headroom_target / max_norm).min(f32::MAX))
        }
    }

    /// Scales `data` into half-precision range and quantizes.
    pub fn normalize(&self, data: &[f32]) -> Normalized {
        let mut quantized = vec![F16::ZERO; data.len()];
        let factor = self.normalize_into(data, &mut quantized);
        Normalized {
            factor,
            data: quantized,
        }
    }

    /// [`normalize`](Self::normalize) into a caller-owned buffer, for hot
    /// paths that quantize every iteration and must not allocate. Returns
    /// the applied factor.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn normalize_into(&self, data: &[f32], out: &mut [F16]) -> f32 {
        let factor = self.factor_for(max_abs(data));
        self.quantize_into(data, factor, out);
        factor
    }

    /// The elementwise half of [`normalize_into`](Self::normalize_into):
    /// scales by a `factor` the caller derived from the whole vector's
    /// max-norm and quantizes — `F16::from_f32(x * factor)` for every
    /// element, through [`convert`]. Chunks of one vector can be
    /// quantized independently (on different threads) under the same
    /// factor.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn quantize_into(&self, data: &[f32], factor: f32, out: &mut [F16]) {
        assert_eq!(data.len(), out.len(), "normalize length mismatch");
        convert::narrow_scaled_into(data, factor, out);
    }

    /// Undoes a previous [`normalize`](Self::normalize), widening to `f32`.
    pub fn denormalize(&self, normalized: &Normalized) -> Vec<f32> {
        let mut out = vec![0.0; normalized.data.len()];
        self.denormalize_into(&normalized.data, normalized.factor, &mut out);
        out
    }

    /// [`denormalize`](Self::denormalize) into a caller-owned buffer — the
    /// allocation-free counterpart of [`normalize_into`](Self::normalize_into).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn denormalize_into(&self, data: &[F16], factor: f32, out: &mut [f32]) {
        assert_eq!(data.len(), out.len(), "denormalize length mismatch");
        convert::widen_scaled_into(data, 1.0 / factor, out);
    }
}

/// Relative quantization error bound for one half-precision roundtrip of a
/// *normalized* value: half an ulp at 10 mantissa bits.
pub const HALF_RELATIVE_EPS: f32 = 4.8828125e-4; // 2^-11

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_basic() {
        assert_eq!(max_abs(&[]), 0.0);
        assert_eq!(max_abs(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(max_abs(&[0.0, -0.0]), 0.0);
    }

    #[test]
    fn max_abs_ignores_nan() {
        assert_eq!(max_abs(&[1.0, f32::NAN, -2.0]), 2.0);
    }

    #[test]
    fn max_abs_finds_the_peak_in_any_lane_and_in_the_tail() {
        // 19 elements: two full groups of eight and a three-element tail.
        for peak_at in 0..19 {
            let mut data = [0.25f32; 19];
            data[(peak_at + 7) % 19] = f32::NAN;
            data[peak_at] = -3.5;
            assert_eq!(max_abs(&data), 3.5, "peak at {peak_at}");
        }
    }

    #[test]
    fn normalize_roundtrip_within_half_eps() {
        let norm = AdaptiveNormalizer::default();
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-7).collect();
        let n = norm.normalize(&data);
        let back = norm.denormalize(&n);
        for (orig, rec) in data.iter().zip(&back) {
            let tol = orig.abs().max(1e-12) * 2.0 * HALF_RELATIVE_EPS;
            assert!((orig - rec).abs() <= tol, "orig {orig} rec {rec} tol {tol}");
        }
    }

    #[test]
    fn tiny_values_survive_normalization() {
        // Without normalization these underflow half precision entirely.
        let data = [1e-9f32, -2e-9, 3e-9];
        assert_eq!(F16::from_f32(data[0]).to_f32(), 0.0);
        let norm = AdaptiveNormalizer::default();
        let n = norm.normalize(&data);
        let back = norm.denormalize(&n);
        for (orig, rec) in data.iter().zip(&back) {
            assert!((orig - rec).abs() <= orig.abs() * 2.0 * HALF_RELATIVE_EPS);
        }
    }

    #[test]
    fn huge_values_survive_normalization() {
        // Without normalization these overflow to infinity.
        let data = [1e9f32, -2e9, 0.5e9];
        assert!(F16::from_f32(data[0]).is_infinite());
        let norm = AdaptiveNormalizer::default();
        let n = norm.normalize(&data);
        assert!(n.data.iter().all(|h| h.is_finite()));
        let back = norm.denormalize(&n);
        for (orig, rec) in data.iter().zip(&back) {
            assert!((orig - rec).abs() <= orig.abs() * 2.0 * HALF_RELATIVE_EPS);
        }
    }

    #[test]
    fn zero_vector_gets_identity_factor() {
        let norm = AdaptiveNormalizer::default();
        assert_eq!(norm.factor_for(0.0), 1.0);
        let n = norm.normalize(&[0.0, 0.0]);
        assert_eq!(n.factor, 1.0);
        assert!(n.data.iter().all(|h| h.to_f32() == 0.0));
    }

    #[test]
    fn factor_tracks_evolving_max_norm() {
        // As the residual shrinks over CG iterations the factor must grow so
        // the data keeps occupying the half-precision sweet spot.
        let norm = AdaptiveNormalizer::default();
        let f1 = norm.factor_for(100.0);
        let f2 = norm.factor_for(1.0);
        let f3 = norm.factor_for(0.01);
        assert!(f1 < f2 && f2 < f3);
        assert_eq!(f2, 256.0);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let norm = AdaptiveNormalizer::default();
        let data: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 3e-6).collect();
        let n = norm.normalize(&data);
        let mut q = vec![F16::ZERO; data.len()];
        let factor = norm.normalize_into(&data, &mut q);
        assert_eq!(factor, n.factor);
        assert_eq!(q, n.data);
        let back = norm.denormalize(&n);
        let mut out = vec![0.0f32; data.len()];
        norm.denormalize_into(&q, factor, &mut out);
        assert_eq!(out, back);
    }

    /// Every probe value at an index the 8-wide hardware conversion takes
    /// (where the CPU has it) and again in the `len % 8` tail the
    /// software conversion takes: 8 + 3 copies of each, interleaved.
    fn in_body_and_tail(probes: &[f32]) -> Vec<f32> {
        let mut data = Vec::new();
        for &p in probes {
            data.extend([p; 11]);
        }
        data
    }

    /// Must hold at the top of the f16 range, through both conversion
    /// paths: the element carrying the max-norm lands in the top binade
    /// below the headroom target, never on ±inf — for any target `new` accepts (65 504
    /// itself included) and any finite max-norm, the smallest normals
    /// (whose exact factor overflows `f32` and is clamped) included.
    #[test]
    fn the_max_norm_never_quantizes_to_infinity() {
        for target in [256.0f32, 65504.0, F16::MIN_POSITIVE.to_f32()] {
            let norm = AdaptiveNormalizer::new(target);
            let maxima = [
                f32::MAX,
                1e30,
                65520.0,
                65504.0,
                1.0,
                1e-30,
                1.2e-38,
                f32::MIN_POSITIVE,
            ];
            for max in maxima {
                let data = in_body_and_tail(&[-max, max * 0.37, max]);
                let mut q = vec![F16::ZERO; data.len()];
                let factor = norm.normalize_into(&data, &mut q);
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "{target} {max}: {factor}"
                );
                for (h, &x) in q.iter().zip(&data) {
                    assert!(h.is_finite(), "{target} {max}: {x} -> {h:?}");
                    assert_eq!(h.to_bits(), F16::from_f32(x * factor).to_bits());
                }
                // Unless the factor was clamped to 2¹²⁷ (or is subnormal),
                // the peak lands in the binade below the target.
                if (f32::MIN_POSITIVE..2f32.powi(127)).contains(&factor) {
                    let peak = q[data.len() - 1].to_f32();
                    assert!(peak <= target, "{target} {max}: {peak}");
                    assert!(peak >= target / 2.0 * (1.0 - 2.0 * HALF_RELATIVE_EPS));
                    assert_eq!(q[0].to_f32(), -peak);
                }
            }
        }
    }

    /// Must hold at both ends of the f16 range under factor 1.0, in the
    /// hardware body and the software tail alike: 65 504 round-trips and
    /// everything below the rounding boundary 65 520 lands on it; the
    /// boundary itself ties to even, which is infinity; 2⁻²⁴ is the
    /// smallest subnormal, half of it ties to zero, anything above half
    /// of it rounds up to it, 1.5 × 2⁻²⁴ ties to the even 2 × 2⁻²⁴, and
    /// zeros keep their sign.
    #[test]
    fn f16_edges_quantize_as_the_software_conversion_does() {
        let floor = 2.0f32.powi(-24);
        let cases: [(f32, u16); 12] = [
            (65504.0, 0x7bff),
            (65519.996, 0x7bff),
            (65520.0, 0x7c00),
            (-65504.0, 0xfbff),
            (floor, 0x0001),
            (-floor, 0x8001),
            (floor / 2.0, 0x0000),
            (-floor / 2.0, 0x8000),
            (f32::from_bits((floor / 2.0).to_bits() + 1), 0x0001),
            (floor * 1.5, 0x0002),
            (floor / 4.0, 0x0000),
            (-0.0, 0x8000),
        ];
        let norm = AdaptiveNormalizer::default();
        let data = in_body_and_tail(&cases.map(|(x, _)| x));
        let mut q = vec![F16::ZERO; data.len()];
        norm.quantize_into(&data, 1.0, &mut q);
        for (i, (h, &x)) in q.iter().zip(&data).enumerate() {
            assert_eq!(h.to_bits(), cases[i / 11].1, "{x:e} at {i}");
            assert_eq!(h.to_bits(), F16::from_f32(x).to_bits(), "{x:e} at {i}");
        }
        let mut back = vec![0.0f32; q.len()];
        norm.denormalize_into(&q, 1.0, &mut back);
        for (i, (b, h)) in back.iter().zip(&q).enumerate() {
            assert_eq!(b.to_bits(), h.to_f32().to_bits(), "at {i}");
        }
        assert_eq!(back[0], 65504.0);
        assert_eq!(back[4 * 11], floor);
    }

    /// Factor 1.0 is the identity on both directions for every half that
    /// is not a signalling NaN (see `convert` for those): widening gives
    /// `to_f32` exactly and narrowing that gives the half back.
    #[test]
    fn unit_factor_is_the_identity_on_every_half() {
        let halves: Vec<F16> = (0..=u16::MAX)
            .map(F16::from_bits)
            .filter(|h| !h.is_signalling_nan())
            .collect();
        let norm = AdaptiveNormalizer::default();
        let mut wide = vec![0.0f32; halves.len()];
        norm.denormalize_into(&halves, 1.0, &mut wide);
        for (w, h) in wide.iter().zip(&halves) {
            assert_eq!(w.to_bits(), h.to_f32().to_bits(), "{:#06x}", h.to_bits());
        }
        let mut back = vec![F16::ZERO; halves.len()];
        norm.quantize_into(&wide, 1.0, &mut back);
        for (b, h) in back.iter().zip(&halves) {
            assert_eq!(b.to_bits(), h.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "outside half-precision normal range")]
    fn rejects_unrepresentable_target() {
        AdaptiveNormalizer::new(1e6);
    }

    #[test]
    fn factors_are_powers_of_two_placing_the_peak_in_the_top_binade() {
        let norm = AdaptiveNormalizer::default();
        for max in [
            1e-30f32, 3e-7, 0.3, 1.0, 3.0, 255.0, 256.0, 257.0, 7e4, 3e38,
        ] {
            let k = norm.factor_for(max);
            assert_eq!(k.to_bits() & 0x007f_ffff, 0, "{max:e}: {k:e} is not 2^e");
            assert!(
                max * k <= 256.0 && max * k > 128.0,
                "{max:e} -> {}",
                max * k
            );
            let undo = 1.0 / k;
            assert_eq!(undo * k, 1.0, "{max:e}: the undo is exact");
        }
        // Subnormal ratios floor to a subnormal power of two.
        let tiny = AdaptiveNormalizer::new(F16::MIN_POSITIVE.to_f32());
        let k = tiny.factor_for(f32::MAX);
        assert!(k > 0.0 && k < f32::MIN_POSITIVE && k.to_bits().is_power_of_two());
    }

    /// §III-C1 at the edges of `f32`: a maximum below, at or just above
    /// the smallest normal once made the factor infinite and its undo
    /// zero, an infinite one the reverse — either way `0 × ∞` put NaN into
    /// every row scaled by them. Every maximum gets a finite factor with a
    /// finite undo, and rows quantized and widened through them hold no
    /// NaN.
    #[test]
    fn extreme_maxima_get_finite_factors_and_nan_free_rows() {
        let norm = AdaptiveNormalizer::default();
        let just_above = f32::from_bits(f32::MIN_POSITIVE.to_bits() + 1);
        for max in [
            1e-40,
            1e-38,
            f32::MIN_POSITIVE,
            just_above,
            f32::MAX,
            f32::INFINITY,
        ] {
            let factor = norm.factor_for(max);
            let undo = 1.0 / factor;
            assert!(
                factor.is_finite() && factor > 0.0,
                "{max:e}: factor {factor}"
            );
            assert!(undo.is_finite() && undo > 0.0, "{max:e}: undo {undo}");
            assert!(!(max * factor * undo).is_nan(), "{max:e}");
            let row = in_body_and_tail(&[max, -max * 0.5, 0.0]);
            let mut q = vec![F16::ZERO; row.len()];
            norm.quantize_into(&row, factor, &mut q);
            let mut back = vec![0.0f32; row.len()];
            norm.denormalize_into(&q, factor, &mut back);
            assert!(!back.iter().any(|v| v.is_nan()), "{max:e}: {back:?}");
        }
    }

    #[test]
    fn max_abs_f64_matches_the_f32_scan() {
        let data: Vec<f32> = (0..37).map(|i| (i as f32 - 20.0) * 0.37).collect();
        let wide: Vec<f64> = data.iter().map(|&v| f64::from(v)).collect();
        assert_eq!(max_abs_f64(&wide), f64::from(max_abs(&data)));
        assert_eq!(max_abs_f64(&[f64::NAN, -2.5, 1.0]), 2.5);
        assert_eq!(max_abs_f64(&[]), 0.0);
    }

    #[test]
    fn headroom_prevents_reduction_overflow() {
        // Simulate a 64-way reduction of same-signed partials: with the
        // default headroom of 256 the normalized sum stays finite.
        let norm = AdaptiveNormalizer::default();
        let partials = vec![7.5f32; 64];
        let n = norm.normalize(&partials);
        let sum: f32 = n.data.iter().map(|h| h.to_f32()).sum();
        assert!(F16::from_f32(sum).is_finite());
    }
}
