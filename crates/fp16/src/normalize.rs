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
//!
//! The rule is [`scale_for`]; the scaled width changes it brackets are
//! [`StorageScalar`](crate::StorageScalar)'s.

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

/// The max-norm [`scale_for`] maps into `(target / 2, target]`: it
/// leaves multiplicative headroom below 65 504 for sums formed at half
/// precision. The distributed exchange widens each contribution to `f64`
/// before it adds and scales every level's sum anew, so its reductions
/// need none.
pub const HEADROOM_TARGET: f32 = 256.0;

/// The §III-C1 scale for a vector with the given max-norm: the largest
/// power of two `k` with `max_norm · k ≤` [`HEADROOM_TARGET`], so the
/// peak lands in the top binade below the target.
///
/// This is the one rule — the serial kernel's input scale and every
/// distributed sender's per-slice scale alike. Power-of-two factors make
/// every rescaling exact outside f16's subnormal range: widening
/// `h · 2^-e` rounds nothing, and a value already held under one factor
/// moves to another without rounding twice.
///
/// A zero (or denormal-small) max-norm yields factor 1.0: the vector is
/// all zeros (or effectively so) and needs no scaling; so does a
/// non-finite one. The factor is always finite and nonzero: a max-norm
/// so small that `target / max_norm` would overflow `f32` gets 2¹²⁷,
/// which still maps it below the target — an infinite factor would
/// quantize every nonzero to ±∞ — and its reciprocal (the undo) is a
/// finite power of two too. The ratio is never below
/// `256 / f32::MAX ≈ 7.5e-37`, a normal, so clearing its mantissa is the
/// floor to a power of two.
pub fn scale_for(max_norm: f32) -> f32 {
    if !max_norm.is_finite() || max_norm < f32::MIN_POSITIVE {
        1.0
    } else {
        let ratio = (HEADROOM_TARGET / max_norm).min(f32::MAX);
        f32::from_bits(ratio.to_bits() & 0xff80_0000)
    }
}

/// Relative quantization error bound for one half-precision roundtrip of a
/// *normalized* value: half an ulp at 10 mantissa bits.
pub const HALF_RELATIVE_EPS: f32 = 4.8828125e-4; // 2^-11

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageScalar, F16};

    /// `data` quantized to halves under the scale of its own max-norm,
    /// and that scale.
    fn normalize(data: &[f32]) -> (Vec<F16>, f32) {
        let factor = scale_for(max_abs(data));
        let mut q = vec![F16::ZERO; data.len()];
        F16::narrow_scaled_into(data, factor, &mut q);
        (q, factor)
    }

    /// Halves quantized under `factor`, widened with its undo.
    fn denormalize(q: &[F16], factor: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; q.len()];
        F16::widen_scaled_into(q, 1.0 / factor, &mut out);
        out
    }

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
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-7).collect();
        let (q, factor) = normalize(&data);
        let back = denormalize(&q, factor);
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
        let (q, factor) = normalize(&data);
        let back = denormalize(&q, factor);
        for (orig, rec) in data.iter().zip(&back) {
            assert!((orig - rec).abs() <= orig.abs() * 2.0 * HALF_RELATIVE_EPS);
        }
    }

    #[test]
    fn huge_values_survive_normalization() {
        // Without normalization these overflow to infinity.
        let data = [1e9f32, -2e9, 0.5e9];
        assert!(F16::from_f32(data[0]).is_infinite());
        let (q, factor) = normalize(&data);
        assert!(q.iter().all(|h| h.is_finite()));
        let back = denormalize(&q, factor);
        for (orig, rec) in data.iter().zip(&back) {
            assert!((orig - rec).abs() <= orig.abs() * 2.0 * HALF_RELATIVE_EPS);
        }
    }

    #[test]
    fn zero_vector_gets_identity_factor() {
        assert_eq!(scale_for(0.0), 1.0);
        let (q, factor) = normalize(&[0.0, 0.0]);
        assert_eq!(factor, 1.0);
        assert!(q.iter().all(|h| h.to_f32() == 0.0));
    }

    #[test]
    fn factor_tracks_evolving_max_norm() {
        // As the residual shrinks over CG iterations the factor must grow so
        // the data keeps occupying the half-precision sweet spot.
        let f1 = scale_for(100.0);
        let f2 = scale_for(1.0);
        let f3 = scale_for(0.01);
        assert!(f1 < f2 && f2 < f3);
        assert_eq!(f2, 256.0);
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
    /// below the headroom target, never on ±inf — for any finite
    /// max-norm, the smallest normals (whose exact factor overflows `f32`
    /// and is clamped) included.
    #[test]
    fn the_max_norm_never_quantizes_to_infinity() {
        let target = HEADROOM_TARGET;
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
            let (q, factor) = normalize(&data);
            assert!(factor.is_finite() && factor > 0.0, "{max}: {factor}");
            for (h, &x) in q.iter().zip(&data) {
                assert!(h.is_finite(), "{max}: {x} -> {h:?}");
                assert_eq!(h.to_bits(), F16::from_f32(x * factor).to_bits());
            }
            // Unless the factor was clamped to 2¹²⁷, the peak lands in
            // the binade below the target.
            if factor < 2f32.powi(127) {
                let peak = q[data.len() - 1].to_f32();
                assert!(peak <= target, "{max}: {peak}");
                assert!(peak >= target / 2.0 * (1.0 - 2.0 * HALF_RELATIVE_EPS));
                assert_eq!(q[0].to_f32(), -peak);
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
        let data = in_body_and_tail(&cases.map(|(x, _)| x));
        let mut q = vec![F16::ZERO; data.len()];
        F16::narrow_scaled_into(&data, 1.0, &mut q);
        for (i, (h, &x)) in q.iter().zip(&data).enumerate() {
            assert_eq!(h.to_bits(), cases[i / 11].1, "{x:e} at {i}");
            assert_eq!(h.to_bits(), F16::from_f32(x).to_bits(), "{x:e} at {i}");
        }
        let back = denormalize(&q, 1.0);
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
        let wide = denormalize(&halves, 1.0);
        for (w, h) in wide.iter().zip(&halves) {
            assert_eq!(w.to_bits(), h.to_f32().to_bits(), "{:#06x}", h.to_bits());
        }
        let mut back = vec![F16::ZERO; halves.len()];
        F16::narrow_scaled_into(&wide, 1.0, &mut back);
        for (b, h) in back.iter().zip(&halves) {
            assert_eq!(b.to_bits(), h.to_bits());
        }
    }

    #[test]
    fn factors_are_powers_of_two_placing_the_peak_in_the_top_binade() {
        for max in [
            1e-30f32, 3e-7, 0.3, 1.0, 3.0, 255.0, 256.0, 257.0, 7e4, 3e38,
        ] {
            let k = scale_for(max);
            assert_eq!(k.to_bits() & 0x007f_ffff, 0, "{max:e}: {k:e} is not 2^e");
            assert!(
                max * k <= 256.0 && max * k > 128.0,
                "{max:e} -> {}",
                max * k
            );
            let undo = 1.0 / k;
            assert_eq!(undo * k, 1.0, "{max:e}: the undo is exact");
        }
        // The smallest ratio, the target over `f32::MAX`, is a normal.
        let k = scale_for(f32::MAX);
        assert!(
            k >= f32::MIN_POSITIVE && k.to_bits() & 0x007f_ffff == 0,
            "{k:e}"
        );
    }

    /// §III-C1 at the edges of `f32`: a maximum below, at or just above
    /// the smallest normal once made the factor infinite and its undo
    /// zero, an infinite one the reverse — either way `0 × ∞` put NaN into
    /// every row scaled by them. Every maximum gets a finite factor with a
    /// finite undo, and rows quantized and widened through them hold no
    /// NaN.
    #[test]
    fn extreme_maxima_get_finite_factors_and_nan_free_rows() {
        let just_above = f32::from_bits(f32::MIN_POSITIVE.to_bits() + 1);
        for max in [
            1e-40,
            1e-38,
            f32::MIN_POSITIVE,
            just_above,
            f32::MAX,
            f32::INFINITY,
        ] {
            let factor = scale_for(max);
            let undo = 1.0 / factor;
            assert!(
                factor.is_finite() && factor > 0.0,
                "{max:e}: factor {factor}"
            );
            assert!(undo.is_finite() && undo > 0.0, "{max:e}: undo {undo}");
            assert!(!(max * factor * undo).is_nan(), "{max:e}");
            let row = in_body_and_tail(&[max, -max * 0.5, 0.0]);
            let mut q = vec![F16::ZERO; row.len()];
            F16::narrow_scaled_into(&row, factor, &mut q);
            let back = denormalize(&q, factor);
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
        let partials = vec![7.5f32; 64];
        let (q, _) = normalize(&partials);
        let sum: f32 = q.iter().map(|h| h.to_f32()).sum();
        assert!(F16::from_f32(sum).is_finite());
    }
}
