//! Bulk half↔single conversion: the one place the workspace turns a run
//! of `F16` into `f32` or back, or a run of `f64` into `F16`.
//!
//! On x86-64 with F16C (and AVX, which F16C's 256-bit forms need)
//! detected at run time, eight values convert per `vcvtph2ps` /
//! `vcvtps2ph` — the CPU's `__half2float` / `__float2half`. Everywhere
//! else, and for the last `len % 8` values of every call, the software
//! [`F16`] conversions run. There is no switch: the CPU check is the only
//! dispatch.
//!
//! The two paths are interchangeable bit for bit, with one documented
//! exception (verified exhaustively by the `#[ignore]`d release-mode
//! tests below, by a strided sample in every `cargo test`):
//!
//! * **Narrowing** (`f32 → F16`, round-to-nearest-even, the rounding mode
//!   encoded in the instruction so `MXCSR.RC` is irrelevant) is identical
//!   on all 2³² `f32` bit patterns: overflow goes to ±∞, results below
//!   2⁻²⁴ round to the subnormals or flush to ±0 exactly as
//!   [`F16::from_f32`] does, and a NaN keeps its sign and top ten payload
//!   bits with the quiet bit forced.
//! * **Widening** (`F16 → f32`, exact) is identical on every half except
//!   the 1 022 *signalling* NaNs (exponent all ones, mantissa `0x001
//!   ..=0x1ff`, either sign): `vcvtph2ps` returns them quieted (mantissa
//!   bit 22 set), [`F16::to_f32`] widens the payload untouched. **NaN
//!   policy:** a NaN stays a NaN with its sign and payload on both paths;
//!   only the quiet bit of a signalling half may differ between hosts.
//!   Nothing in the workspace produces a signalling half — every `F16`
//!   comes out of a narrowing, which quiets — so no production value
//!   depends on the path.
//!
//! The scaled forms multiply in `f32` before narrowing / after widening
//! (`vmulps` and the scalar `*` round identically), which is what the
//! §III-C1 scales ([`scale_for`](crate::scale_for)) need.
//! [`narrow_f64_scaled_into`] multiplies in `f64` and rounds once, as
//! [`F16::from_f64`] does: through the `f32` narrowing where the product
//! is exact in `f32`, in software where it is not.
//!
//! This file is the crate's only `unsafe`: calling a
//! `#[target_feature]` function after `is_x86_feature_detected!` proved
//! the features, and unaligned vector loads/stores through pointers
//! taken from `&[f32; 8]` / `&[F16; 8]` array references (`F16` is
//! `repr(transparent)` over `u16`). Each site carries its argument.

use crate::f16::F16;

/// Whether the bulk conversions run on the CPU's F16C instructions on
/// this machine (otherwise the software path runs, same results).
pub fn hardware() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("f16c") && is_x86_feature_detected!("avx") {
        return true;
    }
    false
}

/// `dst[i] = src[i].to_f32()`.
///
/// # Panics
/// Panics on length mismatch.
pub fn widen_into(src: &[F16], dst: &mut [f32]) {
    widen::<false>(src, 1.0, dst);
}

/// `dst[i] = src[i].to_f32() * scale`.
///
/// # Panics
/// Panics on length mismatch.
pub fn widen_scaled_into(src: &[F16], scale: f32, dst: &mut [f32]) {
    widen::<true>(src, scale, dst);
}

/// `dst[i] = F16::from_f32(src[i])`.
///
/// # Panics
/// Panics on length mismatch.
pub fn narrow_into(src: &[f32], dst: &mut [F16]) {
    narrow::<false>(src, 1.0, dst);
}

/// `dst[i] = F16::from_f32(src[i] * scale)`.
///
/// # Panics
/// Panics on length mismatch.
pub fn narrow_scaled_into(src: &[f32], scale: f32, dst: &mut [F16]) {
    narrow::<true>(src, scale, dst);
}

/// `dst[i] = F16::from_f64(src[i] * scale)`: one rounding from `f64`.
///
/// A product whose `f32` image is exact narrows through
/// [`narrow_into`]'s instructions: rounding the exact value to half is
/// the one rounding. Every other product — NaN, beyond `f32`'s range, or
/// with bits below `f32`'s precision — rounds in software, since going
/// through `f32` would round it twice.
///
/// # Panics
/// Panics on length mismatch.
// The `f32` image is only used where it is exact; the rest re-round.
#[allow(clippy::cast_possible_truncation)]
pub fn narrow_f64_scaled_into(src: &[f64], scale: f64, dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow length mismatch");
    const RUN: usize = 256;
    let mut single = [0.0f32; RUN];
    for (src, dst) in src.chunks(RUN).zip(dst.chunks_mut(RUN)) {
        let single = &mut single[..src.len()];
        let mut exact = true;
        for (s, &x) in single.iter_mut().zip(src) {
            let p = x * scale;
            *s = p as f32;
            exact &= f64::from(*s) == p;
        }
        narrow_into(single, dst);
        if !exact {
            for (d, &x) in dst.iter_mut().zip(src) {
                let p = x * scale;
                if f64::from(p as f32) != p {
                    *d = F16::from_f64(p);
                }
            }
        }
    }
}

fn widen<const SCALED: bool>(src: &[F16], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen length mismatch");
    #[cfg(target_arch = "x86_64")]
    if hardware() {
        // SAFETY: `hardware()` just verified avx and f16c with
        // `is_x86_feature_detected!`, the features the callee enables.
        unsafe { x86::widen::<SCALED>(src, scale, dst) };
        return;
    }
    widen_software::<SCALED>(src, scale, dst);
}

fn narrow<const SCALED: bool>(src: &[f32], scale: f32, dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow length mismatch");
    #[cfg(target_arch = "x86_64")]
    if hardware() {
        // SAFETY: `hardware()` just verified avx and f16c with
        // `is_x86_feature_detected!`, the features the callee enables.
        unsafe { x86::narrow::<SCALED>(src, scale, dst) };
        return;
    }
    narrow_software::<SCALED>(src, scale, dst);
}

/// The fallback, the vector path's tail, and the tests' oracle.
fn widen_software<const SCALED: bool>(src: &[F16], scale: f32, dst: &mut [f32]) {
    for (d, h) in dst.iter_mut().zip(src) {
        *d = if SCALED {
            h.to_f32() * scale
        } else {
            h.to_f32()
        };
    }
}

/// The fallback, the vector path's tail, and the tests' oracle.
fn narrow_software<const SCALED: bool>(src: &[f32], scale: f32, dst: &mut [F16]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(if SCALED { x * scale } else { x });
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{narrow_software, widen_software, F16};
    use core::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_storeu_ps, _mm_loadu_si128, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };

    /// Eight halves per `vcvtph2ps`; the `len % 8` tail in software.
    #[target_feature(enable = "avx", enable = "f16c")]
    pub(super) fn widen<const SCALED: bool>(src: &[F16], scale: f32, dst: &mut [f32]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        let factor = _mm256_set1_ps(scale);
        for (h, d) in src8.iter().zip(dst8) {
            // SAFETY: `h` is a `&[F16; 8]` — sixteen readable bytes, `F16`
            // being `repr(transparent)` over `u16` — and the load is the
            // unaligned form.
            let halves = unsafe { _mm_loadu_si128(h.as_ptr().cast::<__m128i>()) };
            let mut wide = _mm256_cvtph_ps(halves);
            if SCALED {
                wide = _mm256_mul_ps(wide, factor);
            }
            // SAFETY: `d` is a `&mut [f32; 8]`: thirty-two writable bytes
            // under an unaligned store.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), wide) };
        }
        widen_software::<SCALED>(src_tail, scale, dst_tail);
    }

    /// Eight singles per `vcvtps2ph`, round-to-nearest-even; the
    /// `len % 8` tail in software.
    #[target_feature(enable = "avx", enable = "f16c")]
    pub(super) fn narrow<const SCALED: bool>(src: &[f32], scale: f32, dst: &mut [F16]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        let factor = _mm256_set1_ps(scale);
        for (s, d) in src8.iter().zip(dst8) {
            // SAFETY: `s` is a `&[f32; 8]`: thirty-two readable bytes under
            // an unaligned load.
            let mut wide = unsafe { _mm256_loadu_ps(s.as_ptr()) };
            if SCALED {
                wide = _mm256_mul_ps(wide, factor);
            }
            let halves = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(wide);
            // SAFETY: `d` is a `&mut [F16; 8]` — sixteen writable bytes,
            // `F16` being `repr(transparent)` over `u16` — and the store is
            // the unaligned form.
            unsafe { _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), halves) };
        }
        narrow_software::<SCALED>(src_tail, scale, dst_tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Widens `halves` through the dispatching entry point and through
    /// the software oracle; returns the bit patterns that differ as
    /// `(half bits, dispatched f32 bits, software f32 bits)`.
    fn widen_mismatches(halves: &[F16]) -> Vec<(u16, u32, u32)> {
        let mut got = vec![0.0f32; halves.len()];
        let mut want = vec![0.0f32; halves.len()];
        widen_into(halves, &mut got);
        widen_software::<false>(halves, 1.0, &mut want);
        halves
            .iter()
            .zip(got.iter().zip(&want))
            .filter(|(_, (g, w))| g.to_bits() != w.to_bits())
            .map(|(h, (g, w))| (h.to_bits(), g.to_bits(), w.to_bits()))
            .collect()
    }

    /// Narrows the `f32` bit patterns `first, first + step, …` (`count` of
    /// them, in blocks through one reused buffer) on both paths and
    /// asserts they agree.
    fn assert_narrowing_agrees(first: u32, step: u32, count: u64) {
        const BLOCK: usize = 1 << 12;
        let mut src = vec![0.0f32; BLOCK];
        let (mut got, mut want) = (vec![F16::ZERO; BLOCK], vec![F16::ZERO; BLOCK]);
        let mut bits = first;
        let mut left = count;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            for s in &mut src[..n] {
                *s = f32::from_bits(bits);
                bits = bits.wrapping_add(step);
            }
            narrow_into(&src[..n], &mut got[..n]);
            narrow_software::<false>(&src[..n], 1.0, &mut want[..n]);
            for i in 0..n {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "f32 bits {:#010x}",
                    src[i].to_bits()
                );
            }
            left -= n as u64;
        }
    }

    /// All 2¹⁶ halves: the paths agree except — where the hardware runs —
    /// on exactly the 1 022 signalling NaNs, which come back with the
    /// quiet bit set and everything else (sign, payload) the same.
    #[test]
    fn widening_agrees_on_every_half_but_the_signalling_nans() {
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mismatches = widen_mismatches(&halves);
        if hardware() {
            assert_eq!(mismatches.len(), 1022);
        } else {
            assert!(mismatches.is_empty());
        }
        for (h, got, want) in mismatches {
            assert!(F16::from_bits(h).is_signalling_nan(), "half {h:#06x}");
            assert_eq!(got, want | 0x0040_0000, "half {h:#06x}");
        }
    }

    /// A strided sample of the `f32` patterns (every 4 099th, ≈ 1 M of
    /// them, so every exponent and both signs are visited many times)
    /// plus every pattern within 64 of a half-precision rounding
    /// boundary's neighbourhood at the overflow and subnormal edges.
    #[test]
    fn narrowing_agrees_on_a_strided_sample() {
        assert_narrowing_agrees(0, 4099, (1u64 << 32) / 4099);
        for edge in [
            65504.0f32,
            65520.0,
            6.103_515_6e-5,
            5.960_464_5e-8,
            2.980_232_2e-8,
        ] {
            for sign in [0u32, 0x8000_0000] {
                assert_narrowing_agrees((edge.to_bits() | sign) - 64, 1, 129);
            }
        }
        // NaNs with every top-ten payload and a few low payloads.
        assert_narrowing_agrees(0x7f80_0000, 1, 4096);
        assert_narrowing_agrees(0xff80_0000, 8191, 1024);
    }

    /// All 2³² `f32` bit patterns, split over two threads: ≈ 6 s in
    /// release, minutes in debug — run by CI as
    /// `cargo test --release -p xct-fp16 -- --ignored`.
    #[test]
    #[ignore = "exhaustive: run in release (CI step)"]
    fn narrowing_agrees_on_all_f32_bit_patterns() {
        // xct-allow(one-fan-out): a test splitting the exhaustive sweep over two threads
        std::thread::scope(|scope| {
            for half in 0..2u32 {
                scope.spawn(move || assert_narrowing_agrees(half << 31, 1, 1 << 31));
            }
        });
    }

    /// Every length 0..=40 at every offset 0..8 into a buffer: the
    /// 8-wide body and the software tail meet without a gap, plain and
    /// scaled, both directions.
    #[test]
    fn any_length_and_alignment_matches_elementwise() {
        let values: Vec<f32> = (0..64)
            .map(|i| (i as f32 - 31.5) * 1.37e-3 * (1 << (i % 11)) as f32)
            .collect();
        let halves: Vec<F16> = values.iter().map(|&v| F16::from_f32(v * 7.0)).collect();
        for offset in 0..8 {
            for len in 0..=40 {
                let (src, h) = (&values[offset..][..len], &halves[offset..][..len]);
                let mut narrow = vec![F16::ZERO; len];
                narrow_into(src, &mut narrow);
                let want: Vec<F16> = src.iter().map(|&x| F16::from_f32(x)).collect();
                assert_eq!(narrow, want, "narrow {offset}+{len}");
                narrow_scaled_into(src, 3.25, &mut narrow);
                let want: Vec<F16> = src.iter().map(|&x| F16::from_f32(x * 3.25)).collect();
                assert_eq!(narrow, want, "narrow scaled {offset}+{len}");

                let mut wide = vec![0.0f32; len];
                widen_into(h, &mut wide);
                let want: Vec<f32> = h.iter().map(|x| x.to_f32()).collect();
                assert_eq!(wide, want, "widen {offset}+{len}");
                widen_scaled_into(h, 0.3, &mut wide);
                let want: Vec<f32> = h.iter().map(|x| x.to_f32() * 0.3).collect();
                assert_eq!(wide, want, "widen scaled {offset}+{len}");
            }
        }
    }

    /// `narrow_f64_scaled_into(src, scale)` against `F16::from_f64` of
    /// every product, at every scale of `scales`.
    fn assert_f64_narrowing_is_from_f64(src: &[f64], scales: &[f64]) {
        let mut got = vec![F16::ZERO; src.len()];
        for &scale in scales {
            narrow_f64_scaled_into(src, scale, &mut got);
            for (&x, g) in src.iter().zip(&got) {
                let want = F16::from_f64(x * scale);
                assert_eq!(g.to_bits(), want.to_bits(), "{x:e} × {scale}");
            }
        }
    }

    /// The double-rounding traps: for every pair of adjacent positive
    /// halves `a < b` (subnormal, normal, and 65504 → ∞, whose midpoint is
    /// the 65520 overflow edge), the midpoint `m` is exact in `f32`, and
    /// `m·(1 ± 2⁻³⁰)` narrows to `m` in `f32` — so rounding through `f32`
    /// is a tie, resolved to even, where one rounding from `f64` goes to
    /// the nearer neighbour. Both signs, the midpoints themselves, the
    /// subnormal/normal boundary, ±0, ±∞ and NaNs, each under scales that
    /// are powers of two; then a strided sample of `f64` patterns.
    #[test]
    fn narrowing_from_f64_is_one_rounding() {
        let mut src = Vec::new();
        for bits in 0..0x7c00u16 {
            let a = F16::from_bits(bits).to_f64();
            let b = if bits == 0x7bff {
                65536.0
            } else {
                F16::from_bits(bits + 1).to_f64()
            };
            let m = (a + b) / 2.0;
            assert_eq!(f64::from(m as f32), m, "midpoint {m:e} exact in f32");
            for x in [m * (1.0 - 2f64.powi(-30)), m, m * (1.0 + 2f64.powi(-30))] {
                assert_eq!(x as f32, m as f32, "{x:e} is a trap");
                src.extend([x, -x]);
            }
        }
        let boundary = 2f64.powi(-14);
        src.extend([boundary, boundary * (1.0 - 2f64.powi(-40)), -boundary]);
        src.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        src.extend([-f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)]);
        src.extend([65520.0, 65_519.999_999_999, 1e300, f64::MIN_POSITIVE]);
        // Lengths that end mid-run and mid-chunk of the 8-wide body.
        src.truncate(src.len() / 8 * 8 - 3);
        assert_f64_narrowing_is_from_f64(&src, &[1.0]);
        let down: Vec<f64> = src.iter().map(|x| x * 4.0).collect();
        assert_f64_narrowing_is_from_f64(&down, &[0.25]);
        let up: Vec<f64> = src.iter().map(|x| x / 1024.0).collect();
        assert_f64_narrowing_is_from_f64(&up, &[1024.0]);

        let stride = (u64::MAX / (1 << 20)) | 1;
        let sample: Vec<f64> = (0..1u64 << 20)
            .map(|k| f64::from_bits(k.wrapping_mul(stride)))
            .collect();
        assert_f64_narrowing_is_from_f64(&sample, &[1.0, 0.5, 2f64.powi(40), 2f64.powi(-40)]);
    }

    #[test]
    #[should_panic(expected = "narrow length mismatch")]
    fn narrow_rejects_unequal_lengths() {
        narrow_into(&[1.0; 9], &mut [F16::ZERO; 8]);
    }

    #[test]
    #[should_panic(expected = "widen length mismatch")]
    fn widen_rejects_unequal_lengths() {
        widen_into(&[F16::ONE; 8], &mut [0.0; 9]);
    }
}
