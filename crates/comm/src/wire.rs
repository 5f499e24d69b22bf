//! Byte-exact encoding of storage scalars for the message-passing layer.

use xct_fp16::{AdaptiveNormalizer, StorageScalar, F16};

/// A storage scalar that can cross the (simulated) wire losslessly.
///
/// Communication volume per element equals `BYTES` of the storage type —
/// this is precisely how half-precision communication halves the volumes
/// of Table IV relative to single.
pub trait Wire: StorageScalar {
    /// Whether values travel scaled (§III-C1): a half-width wire
    /// quantizes every slice with the power-of-two scale of its sender's
    /// own data, and each message starts with one `f32` undo per slice it
    /// carries ([`UNDO_BYTES`] each). Full-width wires carry no header and
    /// every scale on them is 1.
    const SCALED: bool;

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
    const SCALED: bool = false;
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
    const SCALED: bool = false;
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
    const SCALED: bool = true;
    type Held = f32;

    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        // xct-allow(no-panic): infallible — the slice taken is exactly 2 bytes
        F16::from_bits(u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes")))
    }
}

/// Bytes of one slice's undo in a scaled message's header.
pub const UNDO_BYTES: usize = 4;

/// The `(factor, undo)` pair a sender on wire `S` quantizes one slice
/// with: the §III-C1 power of two for the slice's max-norm `max` (taken
/// only on scaled wires) and its exact reciprocal; `(1, 1)` on full-width
/// wires. A finite max-norm beyond `f32` is clamped to `f32::MAX`, so a
/// finite slice always gets a scale that keeps it finite.
// The narrowing of a finite max-norm to `f32` is the clamp documented above.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn slice_scale<S: Wire>(max: impl FnOnce() -> f64) -> (f32, f32) {
    if !S::SCALED {
        return (1.0, 1.0);
    }
    let max = max();
    let max = if max.is_finite() {
        (max as f32).min(f32::MAX)
    } else {
        f32::INFINITY
    };
    let factor = AdaptiveNormalizer::default().factor_for(max);
    (factor, 1.0 / factor)
}

/// Header bytes of a message carrying `slices` slices on wire `S`.
pub(crate) const fn header_bytes<S: Wire>(slices: usize) -> usize {
    if S::SCALED {
        slices * UNDO_BYTES
    } else {
        0
    }
}

/// Appends the header of a message whose slices have `undos` (nothing on
/// a full-width wire).
pub(crate) fn write_header<S: Wire>(undos: &[f32], out: &mut Vec<u8>) {
    if S::SCALED {
        for undo in undos {
            out.extend_from_slice(&undo.to_le_bytes());
        }
    }
}

/// Splits one message of `slices` slices of `len` values each: slice
/// `f`'s undo out of the header (1 on a full-width wire) and its payload.
///
/// # Panics
/// Panics when the message is not exactly a header and `slices × len`
/// values.
pub(crate) fn message_slice<S: Wire>(
    bytes: &[u8],
    slices: usize,
    len: usize,
    f: usize,
) -> (f32, &[u8]) {
    let head = header_bytes::<S>(slices);
    let width = len * S::BYTES;
    assert_eq!(bytes.len(), head + slices * width, "payload/plan mismatch");
    let undo = if S::SCALED {
        let at = f * UNDO_BYTES;
        // xct-allow(no-panic): infallible — the header holds `slices` undos, checked above
        f32::from_le_bytes(bytes[at..at + UNDO_BYTES].try_into().expect("4 bytes"))
    } else {
        1.0
    };
    (undo, &bytes[head + f * width..head + (f + 1) * width])
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
    fn only_half_width_messages_carry_a_scale_header() {
        let mut msg = Vec::new();
        write_header::<F16>(&[0.5, 0.25], &mut msg);
        msg.extend(F16::encode_slice(&[F16::ONE; 6]));
        assert_eq!(msg.len(), header_bytes::<F16>(2) + 12);
        let (undo, payload) = message_slice::<F16>(&msg, 2, 3, 1);
        assert_eq!((undo, payload.len()), (0.25, 6));
        let mut plain = Vec::new();
        write_header::<f32>(&[0.5, 0.25], &mut plain);
        assert!(plain.is_empty());
        assert_eq!(header_bytes::<f64>(9), 0);
        assert_eq!(slice_scale::<f32>(|| unreachable!()), (1.0, 1.0));
        let (k, undo) = slice_scale::<F16>(|| 1e-6);
        assert_eq!(k * undo, 1.0);
        assert!(slice_scale::<F16>(|| 1e300).0 > 0.0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_buffer_rejected() {
        f32::decode_slice(&[0u8; 6]);
    }
}
