//! The storage-scalar abstraction the SpMM kernels, the exchange and the
//! slice files are generic over: the one place a run of values changes
//! width or becomes bytes.

use crate::convert;
use crate::f16::F16;

/// A scalar type usable as *storage* in the reconstruction pipeline.
///
/// The paper's kernel (Listing 1) reads `half` from memory, converts to
/// `float` for the FMA, and converts back on store. Making the kernels
/// generic over `StorageScalar` lets one implementation serve all four
/// precision modes: the accumulator type is chosen separately by the
/// precision policy.
///
/// It is also the one codec: the byte layout of every value on the wire
/// and in a slice file ([`encode_run`](Self::encode_run) /
/// [`decode_run`](Self::decode_run)), and every width change of a run,
/// plain or under a §III-C1 scale. Each run operation's elementwise
/// default is its definition; `F16` overrides the conversions with the
/// bulk [`convert`] paths, bit for bit.
pub trait StorageScalar: Copy + Send + Sync + 'static {
    /// Bytes occupied in memory, on the wire and in a file.
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

    /// Writes the little-endian bytes of `src` into `dst`, `BYTES` per
    /// value.
    ///
    /// # Panics
    /// Panics unless `dst` holds exactly `src.len() × BYTES` bytes.
    fn encode_run(src: &[Self], dst: &mut [u8]);

    /// Reads `dst.len()` values from their little-endian bytes in `src`.
    ///
    /// # Panics
    /// Panics unless `src` holds exactly `dst.len() × BYTES` bytes.
    fn decode_run(src: &[u8], dst: &mut [Self]);

    /// [`encode_run`](Self::encode_run) of one value into `BYTES` bytes.
    #[inline]
    fn to_le(self, dst: &mut [u8]) {
        Self::encode_run(core::slice::from_ref(&self), dst);
    }

    /// [`decode_run`](Self::decode_run) of one value from `BYTES` bytes.
    #[inline]
    fn from_le(src: &[u8]) -> Self {
        let mut value = Self::zero();
        Self::decode_run(src, core::slice::from_mut(&mut value));
        value
    }

    /// Bulk [`to_f32`](Self::to_f32): `dst[i] = src[i].to_f32()`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    fn widen_into(src: &[Self], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }

    /// Bulk [`from_f32`](Self::from_f32): `dst[i] = Self::from_f32(src[i])`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    fn narrow_into(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f32(s);
        }
    }

    /// `dst[i] = src[i].to_f32() · scale`, the product in `f32`: a
    /// scaled run widened.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    fn widen_scaled_into(src: &[Self], scale: f32, dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32() * scale;
        }
    }

    /// `dst[i] = Self::from_f32(src[i] · factor)`, the product in `f32`:
    /// a run quantized under a §III-C1 scale.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    fn narrow_scaled_into(src: &[f32], factor: f32, dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f32(s * factor);
        }
    }

    /// `dst[i] = Self::from_f64(src[i] · factor)`: the product in `f64`
    /// and one rounding.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[inline]
    fn narrow_f64_scaled_into(src: &[f64], factor: f64, dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f64(s * factor);
        }
    }
}

/// `bytes` as `n` words of `W` bytes.
///
/// # Panics
/// Panics unless `bytes` is exactly `n` words long.
#[inline]
fn words<const W: usize>(bytes: &[u8], n: usize) -> &[[u8; W]] {
    assert_eq!(bytes.len(), n * W, "{n} values of {W} bytes");
    bytes.as_chunks::<W>().0
}

/// [`words`], writable.
#[inline]
fn words_mut<const W: usize>(bytes: &mut [u8], n: usize) -> &mut [[u8; W]] {
    assert_eq!(bytes.len(), n * W, "{n} values of {W} bytes");
    bytes.as_chunks_mut::<W>().0
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
    #[inline]
    fn encode_run(src: &[Self], dst: &mut [u8]) {
        for (d, v) in words_mut::<8>(dst, src.len()).iter_mut().zip(src) {
            *d = v.to_le_bytes();
        }
    }
    #[inline]
    fn decode_run(src: &[u8], dst: &mut [Self]) {
        for (&b, d) in words::<8>(src, dst.len()).iter().zip(dst) {
            *d = f64::from_le_bytes(b);
        }
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
    #[inline]
    fn encode_run(src: &[Self], dst: &mut [u8]) {
        for (d, v) in words_mut::<4>(dst, src.len()).iter_mut().zip(src) {
            *d = v.to_le_bytes();
        }
    }
    #[inline]
    fn decode_run(src: &[u8], dst: &mut [Self]) {
        for (&b, d) in words::<4>(src, dst.len()).iter().zip(dst) {
            *d = f32::from_le_bytes(b);
        }
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
    fn encode_run(src: &[Self], dst: &mut [u8]) {
        for (d, h) in words_mut::<2>(dst, src.len()).iter_mut().zip(src) {
            *d = h.to_bits().to_le_bytes();
        }
    }
    #[inline]
    fn decode_run(src: &[u8], dst: &mut [Self]) {
        for (&b, d) in words::<2>(src, dst.len()).iter().zip(dst) {
            *d = F16::from_bits(u16::from_le_bytes(b));
        }
    }
    #[inline]
    fn widen_into(src: &[Self], dst: &mut [f32]) {
        convert::widen_into(src, dst);
    }
    #[inline]
    fn narrow_into(src: &[f32], dst: &mut [Self]) {
        convert::narrow_into(src, dst);
    }
    #[inline]
    fn widen_scaled_into(src: &[Self], scale: f32, dst: &mut [f32]) {
        convert::widen_scaled_into(src, scale, dst);
    }
    #[inline]
    fn narrow_scaled_into(src: &[f32], factor: f32, dst: &mut [Self]) {
        convert::narrow_scaled_into(src, factor, dst);
    }
    #[inline]
    fn narrow_f64_scaled_into(src: &[f64], factor: f64, dst: &mut [Self]) {
        convert::narrow_f64_scaled_into(src, factor, dst);
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

    /// `len` values cycling through the edges of every width — ±0, the
    /// smallest half subnormal and the ties around it, 65504 and the
    /// 65520 overflow edge, a half-precision double-rounding trap, the
    /// `f32` edges, ±∞, NaN — between ordinary values.
    #[allow(clippy::cast_possible_truncation)]
    fn edge_run(len: usize) -> Vec<f64> {
        let tiny = 2f64.powi(-24);
        let edges = [
            0.0,
            -0.0,
            tiny,
            tiny / 2.0,
            -1.5 * tiny,
            65504.0,
            65520.0,
            (1.0 + 2f64.powi(-11)) * (1.0 + 2f64.powi(-30)),
            3e38,
            1e300,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let ordinary = |k: usize| (k as f64 - 100.0) * 0.013_7 * 1.9f64.powi(k as i32 % 13);
        (0..len)
            .map(|k| {
                if k % 3 == 0 {
                    edges[k / 3 % edges.len()]
                } else {
                    ordinary(k)
                }
            })
            .collect()
    }

    /// Every run operation against its elementwise definition, bit for
    /// bit, at lengths around the 8-wide conversion body and the 256-value
    /// runs, under scales that are powers of two; and the byte runs are
    /// each value's own little-endian bytes.
    #[allow(clippy::cast_possible_truncation)]
    fn runs_are_elementwise<S: StorageScalar>() {
        let bits = |v: &[S]| {
            let mut bytes = vec![0u8; v.len() * S::BYTES];
            S::encode_run(v, &mut bytes);
            bytes
        };
        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 7, 8, 9, 257] {
            let wide = edge_run(len);
            let single: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
            let mut got = vec![S::zero(); len];
            for factor in [1.0f32, 0.25, 2f32.powi(-12), 2f32.powi(14)] {
                S::narrow_scaled_into(&single, factor, &mut got);
                let want: Vec<S> = single.iter().map(|&v| S::from_f32(v * factor)).collect();
                assert_eq!(bits(&got), bits(&want), "{} narrow {len}", S::NAME);
                let factor = f64::from(factor);
                S::narrow_f64_scaled_into(&wide, factor, &mut got);
                let want: Vec<S> = wide.iter().map(|&v| S::from_f64(v * factor)).collect();
                assert_eq!(bits(&got), bits(&want), "{} narrow f64 {len}", S::NAME);
            }
            let mut out = vec![0.0f32; len];
            S::widen_scaled_into(&got, 0.125, &mut out);
            let want: Vec<f32> = got.iter().map(|v| v.to_f32() * 0.125).collect();
            assert_eq!(f32_bits(&out), f32_bits(&want), "{} widen {len}", S::NAME);

            let bytes = bits(&got);
            for (v, b) in got.iter().zip(bytes.chunks_exact(S::BYTES)) {
                let mut one = vec![0u8; S::BYTES];
                v.to_le(&mut one);
                assert_eq!(one, b, "{} to_le", S::NAME);
                assert_eq!(bits(&[S::from_le(b)]), b, "{} from_le", S::NAME);
            }
            let mut back = vec![S::zero(); len];
            S::decode_run(&bytes, &mut back);
            assert_eq!(bits(&back), bytes, "{} decode {len}", S::NAME);
        }
    }

    #[test]
    fn scaled_and_byte_runs_are_the_elementwise_ones() {
        runs_are_elementwise::<f64>();
        runs_are_elementwise::<f32>();
        runs_are_elementwise::<F16>();
        let mut bytes = [0u8; 6];
        F16::encode_run(&[F16::ONE, F16::MAX, F16::NAN], &mut bytes);
        assert_eq!(bytes, [0x00, 0x3c, 0xff, 0x7b, 0x00, 0x7e]);
        let mut bytes = [0u8; 4];
        1.5f32.to_le(&mut bytes);
        assert_eq!(bytes, 1.5f32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "values of 4 bytes")]
    fn a_byte_run_of_the_wrong_length_is_rejected() {
        f32::decode_run(&[0u8; 6], &mut [0.0f32; 2]);
    }

    #[test]
    fn zero_is_additive_identity() {
        assert_eq!(<F16 as StorageScalar>::zero().to_f32(), 0.0);
        assert_eq!(<f32 as StorageScalar>::zero(), 0.0);
        assert_eq!(<f64 as StorageScalar>::zero(), 0.0);
    }
}
