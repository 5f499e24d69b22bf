//! Byte-exact encoding of storage scalars for the message-passing layer.

use xct_fp16::{StorageScalar, F16};

/// A storage scalar that can cross the (simulated) wire losslessly.
///
/// Communication volume per element equals `BYTES` of the storage type —
/// this is precisely how half-precision communication halves the volumes
/// of Table IV relative to single.
pub trait Wire: StorageScalar {
    /// The native float a batch of these values is held in between two
    /// exchange levels ([`HeldScalar`]).
    type Held: HeldScalar;

    /// Appends the little-endian encoding of `self`.
    fn write_to(self, out: &mut Vec<u8>);
    /// Decodes from the start of `bytes`; caller guarantees enough bytes.
    fn read_from(bytes: &[u8]) -> Self;

    /// Encodes a slice.
    fn encode_slice(vals: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(vals.len() * Self::BYTES);
        for &v in vals {
            v.write_to(&mut out);
        }
        out
    }

    /// Decodes a full buffer into values.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of the element size.
    fn decode_slice(bytes: &[u8]) -> Vec<Self> {
        assert!(
            bytes.len().is_multiple_of(Self::BYTES),
            "buffer of {} bytes is not a multiple of {}-byte {}",
            bytes.len(),
            Self::BYTES,
            Self::NAME
        );
        bytes
            .chunks_exact(Self::BYTES)
            .map(Self::read_from)
            .collect()
    }
}

/// A native float that holds every value of a storage type exactly. Each
/// exchange level rounds its output to storage precision once, so the
/// values it hands the next level are exact in the storage type and can
/// be held at that width without loss: `f32` for `f32` and `F16`, `f64`
/// only for `f64`.
pub trait HeldScalar: StorageScalar {
    /// This width's pair of buffers, out of one pair per width.
    fn batch<'a>(
        narrow: &'a mut [Vec<f32>; 2],
        wide: &'a mut [Vec<f64>; 2],
    ) -> &'a mut [Vec<Self>; 2];
}

impl HeldScalar for f32 {
    fn batch<'a>(narrow: &'a mut [Vec<f32>; 2], _: &'a mut [Vec<f64>; 2]) -> &'a mut [Vec<f32>; 2] {
        narrow
    }
}

impl HeldScalar for f64 {
    fn batch<'a>(_: &'a mut [Vec<f32>; 2], wide: &'a mut [Vec<f64>; 2]) -> &'a mut [Vec<f64>; 2] {
        wide
    }
}

impl Wire for f64 {
    type Held = f64;

    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        // xct-allow(no-panic): infallible — the slice taken is exactly 8 bytes
        f64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    }
}

impl Wire for f32 {
    type Held = f32;

    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        // xct-allow(no-panic): infallible — the slice taken is exactly 4 bytes
        f32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
    }
}

impl Wire for F16 {
    type Held = f32;

    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        // xct-allow(no-panic): infallible — the slice taken is exactly 2 bytes
        F16::from_bits(u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let f64s = [0.0f64, -1.5, f64::MAX, 1e-300];
        let back = f64::decode_slice(&f64::encode_slice(&f64s));
        assert_eq!(back, f64s);

        let f32s = [0.5f32, -0.0, f32::MIN_POSITIVE];
        assert_eq!(f32::decode_slice(&f32::encode_slice(&f32s)), f32s);

        let h = [
            F16::ONE,
            F16::MAX,
            F16::MIN_POSITIVE_SUBNORMAL,
            -F16::EPSILON,
        ];
        let back = F16::decode_slice(&F16::encode_slice(&h));
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            h.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn encoded_size_is_storage_bytes() {
        assert_eq!(F16::encode_slice(&[F16::ONE; 10]).len(), 20);
        assert_eq!(f32::encode_slice(&[1.0; 10]).len(), 40);
        assert_eq!(f64::encode_slice(&[1.0; 10]).len(), 80);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_buffer_rejected() {
        f32::decode_slice(&[0u8; 6]);
    }
}
