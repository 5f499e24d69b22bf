//! Bit-exact software IEEE 754 binary16.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE 754 binary16 ("half precision") floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// Conversions use round-to-nearest-even, matching the CUDA `__float2half`
/// intrinsic used in the paper's kernels, so convergence results obtained
/// with this type are faithful to the GPU implementation.
///
/// Arithmetic operators convert to `f32`, operate, and round back — the
/// same semantics as promoting `__half` operands on pre-Volta hardware and
/// the exact behaviour of the paper's mixed-precision kernel, which performs
/// FMAs in `f32` and stores results in half (Listing 1, lines 25–36).
///
/// ```
/// use xct_fp16::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);              // exactly representable
/// assert_eq!(F16::from_f32(65519.0), F16::MAX); // rounds to max finite
/// assert!(F16::from_f32(1e6).is_infinite());    // overflow saturates
/// assert_eq!(F16::from_f32(1e-9).to_f32(), 0.0); // underflow flushes
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct F16(u16);

const EXP_MASK: u16 = 0x7c00;
const MANT_MASK: u16 = 0x03ff;
const SIGN_MASK: u16 = 0x8000;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xbc00);
    /// Largest finite value: 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Most negative finite value: −65504.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive *normal* value: 2⁻¹⁴ ≈ 6.1035e-5.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value: 2⁻²⁴ ≈ 5.9605e-8.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: 2⁻¹⁰.
    // xct-allow(exchange-vocabulary): a half-precision bit pattern, not a level tag
    pub const EPSILON: F16 = F16(0x1400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);

    /// Constructs a half from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to half precision with round-to-nearest-even.
    #[inline]
    pub const fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x.to_bits()))
    }

    /// Converts an `f64` to half precision with round-to-nearest-even.
    ///
    /// This is a *single* rounding step directly from the f64 mantissa —
    /// not a double rounding through `f32` — so results are correctly
    /// rounded for all inputs.
    #[inline]
    pub const fn from_f64(x: f64) -> Self {
        F16(f64_to_f16_bits(x.to_bits()))
    }

    /// Widens to `f32`. Exact: every half value is representable in `f32`.
    #[inline]
    pub const fn to_f32(self) -> f32 {
        f32::from_bits(f16_to_f32_bits(self.0))
    }

    /// Widens to `f64`. Exact.
    #[inline]
    pub const fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` if this value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MANT_MASK != 0
    }

    /// `true` for a signalling NaN (quiet bit clear) — the one class of
    /// halves the hardware widening changes; see `convert`.
    #[cfg(test)]
    pub(crate) const fn is_signalling_nan(self) -> bool {
        self.is_nan() && self.0 & 0x0200 == 0
    }

    /// `true` if this value is +∞ or −∞.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MANT_MASK == 0
    }

    /// `true` if this value is neither NaN nor infinite.
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    /// `true` for subnormal values (nonzero, exponent field zero).
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.0 & EXP_MASK == 0 && self.0 & MANT_MASK != 0
    }

    /// `true` if the sign bit is set (including −0.0 and NaNs with sign).
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub const fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Returns the minimum of two values, propagating non-NaN operands
    /// like `f32::min`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Returns the maximum of two values, propagating non-NaN operands
    /// like `f32::max`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// IEEE 754 totalOrder predicate, mirroring `f32::total_cmp`.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        let mut l = self.0 as i16;
        let mut r = other.0 as i16;
        // Flip the ordering of negative values (sign-magnitude to
        // two's-complement trick, same as std's f32::total_cmp).
        l ^= (((l >> 15) as u16) >> 1) as i16;
        r ^= (((r >> 15) as u16) >> 1) as i16;
        l.cmp(&r)
    }
}

/// Converts raw `f32` bits to raw half bits, round-to-nearest-even.
const fn f32_to_f16_bits(x: u32) -> u16 {
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = ((x >> 23) & 0xff) as i32;
    let mant = x & 0x007f_ffff;

    if exp == 0xff {
        if mant == 0 {
            return sign | 0x7c00; // infinity
        }
        // NaN: keep top payload bits, force quiet bit so payload-less
        // signaling NaNs stay NaN.
        return sign | 0x7e00 | ((mant >> 13) as u16);
    }

    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow to infinity
    }
    if unbiased >= -14 {
        // Normal half-precision result (modulo rounding carry).
        let exp16 = (unbiased + 15) as u16;
        let mant16 = (mant >> 13) as u16;
        let round = mant & 0x1fff;
        let bits = sign | (exp16 << 10) | mant16;
        // Round to nearest even; a carry out of the mantissa correctly
        // increments the exponent because the encoding is monotone.
        if round > 0x1000 || (round == 0x1000 && (mant16 & 1) == 1) {
            return bits.wrapping_add(1);
        }
        return bits;
    }
    if unbiased >= -25 {
        // Subnormal half (or rounds up into the smallest normal/zero).
        let full = mant | 0x0080_0000; // restore implicit leading one
        let shift = (13 - 14 - unbiased) as u32; // in 14..=24
        let mant16 = (full >> shift) as u16;
        let halfway = 1u32 << (shift - 1);
        let round = full & ((1u32 << shift) - 1);
        let bits = sign | mant16;
        if round > halfway || (round == halfway && (mant16 & 1) == 1) {
            return bits.wrapping_add(1);
        }
        return bits;
    }
    sign // underflow to signed zero
}

/// Converts raw `f64` bits to raw half bits, round-to-nearest-even,
/// in a single rounding step.
const fn f64_to_f16_bits(x: u64) -> u16 {
    let sign = ((x >> 48) & 0x8000) as u16;
    let exp = ((x >> 52) & 0x7ff) as i32;
    let mant = x & 0x000f_ffff_ffff_ffff;

    if exp == 0x7ff {
        if mant == 0 {
            return sign | 0x7c00;
        }
        return sign | 0x7e00 | ((mant >> 42) as u16);
    }

    let unbiased = exp - 1023;
    if unbiased > 15 {
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        let exp16 = (unbiased + 15) as u16;
        let mant16 = (mant >> 42) as u16;
        let halfway = 1u64 << 41;
        let round = mant & ((1u64 << 42) - 1);
        let bits = sign | (exp16 << 10) | mant16;
        if round > halfway || (round == halfway && (mant16 & 1) == 1) {
            return bits.wrapping_add(1);
        }
        return bits;
    }
    if unbiased >= -25 {
        let full = mant | (1u64 << 52);
        let shift = (42 - 14 - unbiased) as u32; // in 43..=53
        let mant16 = (full >> shift) as u16;
        let halfway = 1u64 << (shift - 1);
        let round = full & ((1u64 << shift) - 1);
        let bits = sign | mant16;
        if round > halfway || (round == halfway && (mant16 & 1) == 1) {
            return bits.wrapping_add(1);
        }
        return bits;
    }
    // Anything below the halfway point of the smallest subnormal is zero,
    // but exactly 2^-25 ties to even (zero); handled above for
    // unbiased == -25. Smaller magnitudes always truncate to zero.
    sign
}

/// Converts raw half bits to raw `f32` bits (exact widening).
const fn f16_to_f32_bits(h: u16) -> u32 {
    let sign = ((h & SIGN_MASK) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & MANT_MASK) as u32;

    if exp == 0 {
        if mant == 0 {
            return sign; // signed zero
        }
        // Subnormal: renormalize into f32's larger exponent range.
        let mut e = 1i32;
        let mut m = mant;
        while m & 0x0400 == 0 {
            m <<= 1;
            e -= 1;
        }
        let exp32 = (e - 15 + 127) as u32;
        return sign | (exp32 << 23) | ((m & MANT_MASK as u32) << 13);
    }
    if exp == 0x1f {
        // Inf / NaN: widen payload.
        return sign | 0x7f80_0000 | (mant << 13);
    }
    sign | ((exp + 127 - 15) << 23) | (mant << 13)
}

impl From<f32> for F16 {
    #[inline]
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<f64> for F16 {
    #[inline]
    fn from(x: f64) -> Self {
        F16::from_f64(x)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f64()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn roundtrip_exact_values() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
                assert_eq!(
                    F16::from_f64(h.to_f64()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(!F16::from_f32(1e6).is_sign_negative());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_sign_negative());
        assert!(F16::from_f32(f32::INFINITY).is_infinite());
        // 65520 is the rounding boundary: ties-to-even sends it to inf.
        assert!(F16::from_f32(65520.0).is_infinite());
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(F16::from_f32(1e-9).to_bits(), 0);
        assert_eq!(F16::from_f32(-1e-9).to_bits(), SIGN_MASK);
        // Half of the smallest subnormal ties to even (zero)...
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0);
        // ...but anything above it rounds up to the smallest subnormal.
        let just_above = f32::from_bits(2.0f32.powi(-25).to_bits() + 1);
        assert_eq!(F16::from_f32(just_above), F16::MIN_POSITIVE_SUBNORMAL);
    }

    #[test]
    fn round_to_nearest_even_at_mantissa_boundary() {
        // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: rounds to 1 (even).
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)), F16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds up (even).
        let expected = F16::from_bits(F16::ONE.to_bits() + 2);
        assert_eq!(F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-11)), expected);
        // Slightly above halfway always rounds up.
        let up = F16::from_bits(F16::ONE.to_bits() + 1);
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20)), up);
    }

    #[test]
    fn f64_conversion_is_single_rounding() {
        // This value double-rounds incorrectly if converted via f32:
        // x = 1 + 2^-11 + 2^-40 rounds f64→f32 to exactly 1 + 2^-11
        // (a tie), which then ties-to-even down to 1.0 in half. Direct
        // conversion sees the 2^-40 bit and must round *up*.
        let x = 1.0f64 + 2.0f64.powi(-11) + 2.0f64.powi(-40);
        let direct = F16::from_f64(x);
        assert_eq!(direct.to_bits(), F16::ONE.to_bits() + 1);
    }

    #[test]
    fn nan_propagates_through_conversion() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f64(f64::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
    }

    #[test]
    fn subnormals_roundtrip_and_compare() {
        let tiny = F16::MIN_POSITIVE_SUBNORMAL;
        assert!(tiny.is_subnormal());
        assert!(tiny > F16::ZERO);
        assert!(tiny < F16::MIN_POSITIVE);
        let almost_normal = F16::from_bits(0x03ff);
        assert!(almost_normal.is_subnormal());
        assert!(almost_normal < F16::MIN_POSITIVE);
    }

    #[test]
    fn arithmetic_matches_f32_then_round() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((b / a).to_f32(), 1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.to_f32(), 3.75);
    }

    #[test]
    fn neg_flips_sign_bit_only() {
        assert_eq!((-F16::ONE).to_f32(), -1.0);
        assert_eq!((-F16::ZERO).to_bits(), SIGN_MASK);
        assert!((-F16::NAN).is_nan());
    }

    #[test]
    fn total_cmp_orders_all_values() {
        let vals = [
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            F16::NEG_ZERO,
            F16::ZERO,
            F16::MIN_POSITIVE_SUBNORMAL,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
        ];
        for w in vals.windows(2) {
            assert_eq!(
                w[0].total_cmp(&w[1]),
                Ordering::Less,
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(F16::NAN.total_cmp(&F16::NAN), Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", F16::from_f32(0.5)), "0.5");
        assert_eq!(format!("{:?}", F16::from_f32(0.5)), "0.5f16");
    }

    #[test]
    fn quantization_step_matches_paper_expectation() {
        // Around 1000 the half-precision ULP is 0.5: values quantize to
        // multiples of 0.5 — the "lower quantization" issue §III-C handles
        // by normalizing into a better range.
        let x = F16::from_f32(1000.3);
        assert_eq!(x.to_f32(), 1000.5);
        let y = F16::from_f32(1000.2);
        assert_eq!(y.to_f32(), 1000.0);
    }
}
