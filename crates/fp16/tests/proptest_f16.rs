//! Property-based tests for the software half-precision type.

use proptest::prelude::*;
use xct_fp16::{max_abs, scale_for, StorageScalar, F16};

proptest! {
    /// f32 -> f16 -> f32 stays within half an f16 ulp for in-range values.
    #[test]
    fn conversion_is_correctly_rounded(x in -60000.0f32..60000.0) {
        let h = F16::from_f32(x).to_f32();
        // Relative error bound for normals, absolute bound for subnormals.
        let bound = (x.abs() * 4.8828125e-4).max(2.0f32.powi(-25));
        prop_assert!((h - x).abs() <= bound, "x={x} h={h}");
    }

    /// Conversion is monotone: a <= b implies f16(a) <= f16(b).
    #[test]
    fn conversion_is_monotone(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo) <= F16::from_f32(hi));
    }

    /// from_f64 agrees with from_f32 whenever the f64 is exactly an f32.
    #[test]
    fn f64_path_agrees_on_exact_f32(x in any::<f32>()) {
        let via32 = F16::from_f32(x);
        let via64 = F16::from_f64(x as f64);
        if via32.is_nan() {
            prop_assert!(via64.is_nan());
        } else {
            prop_assert_eq!(via32.to_bits(), via64.to_bits());
        }
    }

    /// Negation is exact and an involution.
    #[test]
    fn negation_involution(x in any::<f32>()) {
        let h = F16::from_f32(x);
        prop_assert_eq!((-(-h)).to_bits(), h.to_bits());
        if h.is_finite() {
            prop_assert_eq!((-h).to_f32(), -(h.to_f32()));
        }
    }

    /// Addition commutes bit-exactly (it is f32 addition plus rounding).
    #[test]
    fn addition_commutes(a in -1e4f32..1e4, b in -1e4f32..1e4) {
        let (x, y) = (F16::from_f32(a), F16::from_f32(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
    }

    /// abs clears the sign and never changes magnitude.
    #[test]
    fn abs_is_magnitude(x in any::<f32>()) {
        let h = F16::from_f32(x).abs();
        prop_assert!(!h.is_sign_negative());
        if h.is_finite() {
            prop_assert_eq!(h.to_f32(), F16::from_f32(x).to_f32().abs());
        }
    }

    /// Normalize/denormalize roundtrip keeps relative error within one
    /// half-precision quantization step for well-scaled vectors.
    #[test]
    fn normalization_roundtrip(scale in -20i32..20, v in prop::collection::vec(-1.0f32..1.0, 1..64)) {
        let s = 2.0f32.powi(scale);
        let data: Vec<f32> = v.iter().map(|x| x * s).collect();
        let factor = scale_for(max_abs(&data));
        let mut q = vec![F16::ZERO; data.len()];
        F16::narrow_scaled_into(&data, factor, &mut q);
        let mut back = vec![0.0f32; data.len()];
        F16::widen_scaled_into(&q, 1.0 / factor, &mut back);
        let m = max_abs(&data);
        for (orig, rec) in data.iter().zip(&back) {
            // Error is relative to the vector max-norm (the normalization
            // target), not to each element.
            prop_assert!((orig - rec).abs() <= m * 1.5 * 4.8828125e-4 + f32::MIN_POSITIVE,
                "orig={orig} rec={rec} max={m}");
        }
    }

    /// Per-sender scales are never coarser than a shared one: whatever
    /// way a vector is split among senders, each part's §III-C1 factor
    /// is at least the factor of the whole (a part's max-norm is at most
    /// the whole's, and the rule is monotone), so quantizing with local
    /// scales never pushes a value nearer f16's subnormals than a
    /// cluster-wide agreement would.
    #[test]
    fn every_senders_scale_is_at_least_the_shared_factor(
        exps in prop::collection::vec(-40i32..40, 2..48),
        cuts in prop::collection::vec(0usize..48, 0..6),
    ) {
        let data: Vec<f32> = exps
            .iter()
            .enumerate()
            .map(|(i, &e)| 2.0f32.powi(e) * (1.0 + i as f32 * 0.013) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let shared = scale_for(max_abs(&data));
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % data.len()).collect();
        bounds.extend([0, data.len()]);
        bounds.sort_unstable();
        for part in bounds.windows(2).map(|w| &data[w[0]..w[1]]) {
            if max_abs(part) >= f32::MIN_POSITIVE {
                let own = scale_for(max_abs(part));
                prop_assert!(own >= shared, "own {own:e} < shared {shared:e}");
            }
        }
    }

    /// total_cmp is consistent with partial_cmp on non-NaN values.
    #[test]
    fn total_cmp_refines_partial_cmp(a in any::<f32>(), b in any::<f32>()) {
        let (x, y) = (F16::from_f32(a), F16::from_f32(b));
        prop_assume!(!x.is_nan() && !y.is_nan());
        if let Some(ord) = x.partial_cmp(&y) {
            if x.to_f32() != 0.0 || y.to_f32() != 0.0 {
                prop_assert_eq!(x.total_cmp(&y), ord);
            }
        }
    }
}
