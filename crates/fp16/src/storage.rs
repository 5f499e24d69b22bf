//! The storage-scalar abstraction the SpMM kernels are generic over.

use crate::f16::F16;

/// A scalar type usable as *storage* in the reconstruction pipeline.
///
/// The paper's kernel (Listing 1) reads `half` from memory, converts to
/// `float` for the FMA, and converts back on store. Making the kernels
/// generic over `StorageScalar` lets one implementation serve all four
/// precision modes: the accumulator type is chosen separately by the
/// precision policy.
pub trait StorageScalar: Copy + Send + Sync + 'static {
    /// Bytes occupied in memory and on the wire.
    const BYTES: usize;
    /// Short name for diagnostics.
    const NAME: &'static str;

    /// Rounds an `f32` into this storage format (`__float2half` analog).
    fn from_f32(x: f32) -> Self;
    /// Widens to `f32` for arithmetic (`__half2float` analog).
    fn to_f32(self) -> f32;
    /// Rounds an `f64` into this storage format.
    fn from_f64(x: f64) -> Self;
    /// Widens to `f64`.
    fn to_f64(self) -> f64;
    /// The additive identity.
    fn zero() -> Self;

    /// Bulk [`to_f32`](Self::to_f32): `dst[i] = src[i].to_f32()`. `F16`
    /// goes through [`convert`](crate::convert), eight per instruction
    /// where the CPU can.
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn widen_into(src: &[Self], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }

    /// Bulk [`from_f32`](Self::from_f32): `dst[i] = Self::from_f32(src[i])`.
    /// `F16` goes through [`convert`](crate::convert).
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn narrow_into(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f32(s);
        }
    }
}

impl StorageScalar for f64 {
    const BYTES: usize = 8;
    const NAME: &'static str = "f64";

    #[inline]
    fn from_f32(x: f32) -> Self {
        x as f64
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn zero() -> Self {
        0.0
    }
}

impl StorageScalar for f32 {
    const BYTES: usize = 4;
    const NAME: &'static str = "f32";

    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn zero() -> Self {
        0.0
    }
}

impl StorageScalar for F16 {
    const BYTES: usize = 2;
    const NAME: &'static str = "f16";

    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        F16::to_f64(self)
    }
    #[inline]
    fn zero() -> Self {
        F16::ZERO
    }
    #[inline]
    fn widen_into(src: &[Self], dst: &mut [f32]) {
        crate::convert::widen_into(src, dst);
    }
    #[inline]
    fn narrow_into(src: &[f32], dst: &mut [Self]) {
        crate::convert::narrow_into(src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_error<S: StorageScalar>(x: f32) -> f32 {
        (S::from_f32(x).to_f32() - x).abs()
    }

    #[test]
    fn byte_sizes_match_declarations() {
        assert_eq!(std::mem::size_of::<f64>(), <f64 as StorageScalar>::BYTES);
        assert_eq!(std::mem::size_of::<f32>(), <f32 as StorageScalar>::BYTES);
        assert_eq!(std::mem::size_of::<F16>(), <F16 as StorageScalar>::BYTES);
    }

    #[test]
    fn wider_storage_is_at_least_as_accurate() {
        for &x in &[0.1f32, 0.77321, 1234.567, 1e-4] {
            assert!(roundtrip_error::<f64>(x) <= roundtrip_error::<f32>(x));
            assert!(roundtrip_error::<f32>(x) <= roundtrip_error::<F16>(x));
        }
    }

    #[test]
    fn bulk_conversions_are_the_elementwise_ones() {
        fn check<S: StorageScalar + PartialEq + core::fmt::Debug>() {
            let x: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.0371).collect();
            let mut narrow = vec![S::zero(); x.len()];
            S::narrow_into(&x, &mut narrow);
            let want: Vec<S> = x.iter().map(|&v| S::from_f32(v)).collect();
            assert_eq!(narrow, want, "{}", S::NAME);
            let mut wide = vec![0.0f32; x.len()];
            S::widen_into(&narrow, &mut wide);
            let want: Vec<f32> = narrow.iter().map(|v| v.to_f32()).collect();
            assert_eq!(wide, want, "{}", S::NAME);
        }
        check::<f64>();
        check::<f32>();
        check::<F16>();
    }

    #[test]
    fn zero_is_additive_identity() {
        assert_eq!(<F16 as StorageScalar>::zero().to_f32(), 0.0);
        assert_eq!(<f32 as StorageScalar>::zero(), 0.0);
        assert_eq!(<f64 as StorageScalar>::zero(), 0.0);
    }
}
