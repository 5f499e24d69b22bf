//! Byte-exact encoding of storage scalars for the message-passing layer.

use xct_fp16::{convert, AdaptiveNormalizer, StorageScalar, F16};

/// A storage scalar that can cross the (simulated) wire losslessly.
///
/// Communication volume per element equals `BYTES` of the storage type —
/// this is precisely how half-precision communication halves the volumes
/// of Table IV relative to single.
///
/// An exchange level moves runs, not values: it holds, encodes, lands
/// and rounds whole slices through the four run operations
/// ([`hold_into`](Self::hold_into), [`encode_gather`](Self::encode_gather),
/// [`land`](Self::land), [`round_into`](Self::round_into)). Each default
/// is the elementwise expression that defines the operation; `f32`
/// encodes and lands by byte copies, and `F16` runs all four through the
/// bulk [`convert`] paths, bit for bit (`f64` keeps the defaults).
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

    /// Quantizes one slice into the held batch:
    /// `dst[i] = Held(S(src[i] · factor))`, the product in `f32`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn hold_into(src: &[f32], factor: f32, dst: &mut [Self::Held]) {
        assert_eq!(src.len(), dst.len(), "hold length mismatch");
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = Self::Held::from_f64(Self::from_f32(v * factor).to_f64());
        }
    }

    /// Appends the encoding of `S(vals[i])` for each `i` of `idx`, in
    /// order: one transfer's share of one held slice.
    fn encode_gather(vals: &[Self::Held], idx: &[u32], out: &mut Vec<u8>) {
        for &i in idx {
            Self::from_f64(vals[i as usize].to_f64()).write_to(out);
        }
    }

    /// Lands one slice's payload in the accumulator in plan order:
    /// `acc[idx[k]] += value_k · undo` when `add` (a reduction),
    /// `acc[idx[k]] = value_k · undo` otherwise (a scatter).
    ///
    /// # Panics
    /// Panics when `payload` holds fewer than `idx.len()` values.
    fn land(payload: &[u8], idx: &[u32], undo: f32, add: bool, acc: &mut [f64]) {
        let values = (0..idx.len()).map(|k| Self::read_from(&payload[k * Self::BYTES..]).to_f64());
        land_values(values, idx, undo, add, acc);
    }

    /// Rounds one slice of a level's output into the held batch:
    /// `dst[i] = Held(S(src[i] · factor))`, the product in `f64` and one
    /// rounding to `S`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn round_into(src: &[f64], factor: f64, dst: &mut [Self::Held]) {
        assert_eq!(src.len(), dst.len(), "round length mismatch");
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = Self::Held::from_f64(Self::from_f64(v * factor).to_f64());
        }
    }

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

    // `hold_into` and `round_into` keep their defaults: on `f32` they are
    // one multiply and one rounding per value, vectorized as they stand.
    fn encode_gather(vals: &[f32], idx: &[u32], out: &mut Vec<u8>) {
        for (bytes, &i) in extend_words::<4>(out, idx.len()).iter_mut().zip(idx) {
            *bytes = vals[i as usize].to_le_bytes();
        }
    }
    fn land(payload: &[u8], idx: &[u32], undo: f32, add: bool, acc: &mut [f64]) {
        let values = payload_words::<4>(payload, idx.len());
        let values = values.iter().map(|&b| f64::from(f32::from_le_bytes(b)));
        land_values(values, idx, undo, add, acc);
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

    fn hold_into(src: &[f32], factor: f32, dst: &mut [f32]) {
        held_halves(src, dst, |s, h| convert::narrow_scaled_into(s, factor, h));
    }
    fn encode_gather(vals: &[f32], idx: &[u32], out: &mut Vec<u8>) {
        let (mut single, mut halves) = ([0.0f32; RUN], [F16::ZERO; RUN]);
        for idx in idx.chunks(RUN) {
            let (single, halves) = (&mut single[..idx.len()], &mut halves[..idx.len()]);
            for (s, &i) in single.iter_mut().zip(idx) {
                *s = vals[i as usize];
            }
            convert::narrow_into(single, halves);
            for (bytes, h) in extend_words::<2>(out, idx.len()).iter_mut().zip(&*halves) {
                *bytes = h.to_bits().to_le_bytes();
            }
        }
    }
    fn land(payload: &[u8], idx: &[u32], undo: f32, add: bool, acc: &mut [f64]) {
        let values = payload_words::<2>(payload, idx.len());
        let (mut halves, mut single) = ([F16::ZERO; RUN], [0.0f32; RUN]);
        for (values, idx) in values.chunks(RUN).zip(idx.chunks(RUN)) {
            let (halves, single) = (&mut halves[..idx.len()], &mut single[..idx.len()]);
            for (h, &b) in halves.iter_mut().zip(values) {
                *h = F16::from_bits(u16::from_le_bytes(b));
            }
            convert::widen_into(halves, single);
            land_values(single.iter().map(|&v| f64::from(v)), idx, undo, add, acc);
        }
    }
    fn round_into(src: &[f64], factor: f64, dst: &mut [f32]) {
        held_halves(src, dst, |s, h| {
            convert::narrow_f64_scaled_into(s, factor, h)
        });
    }
}

/// Values per stack-held run of the `F16` run operations.
const RUN: usize = 256;

/// Narrows `src` to halves with `narrow` a run at a time and holds them
/// widened, exactly, in `dst`: `F16`'s hold and round.
///
/// # Panics
/// Panics on length mismatch.
fn held_halves<T>(src: &[T], dst: &mut [f32], narrow: impl Fn(&[T], &mut [F16])) {
    assert_eq!(src.len(), dst.len(), "held run length mismatch");
    let mut halves = [F16::ZERO; RUN];
    for (src, dst) in src.chunks(RUN).zip(dst.chunks_mut(RUN)) {
        let halves = &mut halves[..src.len()];
        narrow(src, halves);
        convert::widen_into(halves, dst);
    }
}

/// Grows `out` by `n` words of `W` bytes and returns them to be written.
fn extend_words<const W: usize>(out: &mut Vec<u8>, n: usize) -> &mut [[u8; W]] {
    let start = out.len();
    out.resize(start + n * W, 0);
    out[start..].as_chunks_mut::<W>().0
}

/// The first `n` words of `W` bytes of `payload`.
///
/// # Panics
/// Panics when `payload` is shorter than `n` words.
fn payload_words<const W: usize>(payload: &[u8], n: usize) -> &[[u8; W]] {
    payload[..n * W].as_chunks::<W>().0
}

/// `acc[idx[k]] (+)= value_k · undo` in `f64`, in order: the landing
/// every [`Wire::land`] performs once its values are decoded.
fn land_values(
    values: impl Iterator<Item = f64>,
    idx: &[u32],
    undo: f32,
    add: bool,
    acc: &mut [f64],
) {
    let undo = f64::from(undo);
    let pairs = values.zip(idx);
    if add {
        pairs.for_each(|(v, &i)| acc[i as usize] += v * undo);
    } else {
        pairs.for_each(|(v, &i)| acc[i as usize] = v * undo);
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

    /// `len` values cycling through the edges of every width — ±0, the
    /// smallest half subnormal and the ties around it, the half
    /// subnormal/normal boundary, 65504 and the 65520 overflow edge, a
    /// half-precision double-rounding trap, the `f32` edges, ±∞, NaN —
    /// between ordinary values.
    #[allow(clippy::cast_possible_truncation)]
    fn edge_run(len: usize) -> Vec<f64> {
        let tiny = 2f64.powi(-24);
        let edges = [
            0.0,
            -0.0,
            tiny,
            tiny / 2.0,
            -1.5 * tiny,
            2f64.powi(-14),
            65504.0,
            65520.0,
            -65519.999,
            (1.0 + 2f64.powi(-11)) * (1.0 + 2f64.powi(-30)),
            3e38,
            1e300,
            f64::INFINITY,
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

    /// Every run operation of `S` against its elementwise expression:
    /// held values and encodings byte for byte, accumulators bit for bit,
    /// at lengths around the 8-wide body and the run size, under scaled
    /// factors.
    #[allow(clippy::cast_possible_truncation)]
    fn run_ops_are_elementwise<S: Wire>()
    where
        S::Held: Wire,
    {
        let held = |v: f64| S::Held::from_f64(S::from_f64(v).to_f64());
        let held_bytes = S::Held::encode_slice;
        for len in [0, 1, 7, 8, 9, 257] {
            let run = edge_run(len);
            let single: Vec<f32> = run.iter().map(|&v| v as f32).collect();
            for factor in [1.0f32, 0.25, 2f32.powi(-12), 2f32.powi(14)] {
                let mut got = vec![S::Held::zero(); len];
                S::hold_into(&single, factor, &mut got);
                let want: Vec<S::Held> = (single.iter())
                    .map(|&v| S::Held::from_f64(S::from_f32(v * factor).to_f64()))
                    .collect();
                assert_eq!(
                    held_bytes(&got),
                    held_bytes(&want),
                    "{} hold {len}",
                    S::NAME
                );

                let factor = f64::from(factor);
                S::round_into(&run, factor, &mut got);
                let want: Vec<S::Held> = run.iter().map(|&v| held(v * factor)).collect();
                assert_eq!(
                    held_bytes(&got),
                    held_bytes(&want),
                    "{} round {len}",
                    S::NAME
                );
            }

            // A buffer of 2·len + 3 held values; every len-long ascending
            // gather of it, as a transfer's positions are.
            let vals: Vec<S::Held> = edge_run(2 * len + 3).into_iter().map(held).collect();
            let idx: Vec<u32> = (0..len).map(|k| (2 * k + k % 3) as u32).collect();
            let mut got = vec![7u8];
            S::encode_gather(&vals, &idx, &mut got);
            let mut want = vec![7u8];
            for &i in &idx {
                S::from_f64(vals[i as usize].to_f64()).write_to(&mut want);
            }
            assert_eq!(got, want, "{} encode {len}", S::NAME);

            let payload = &got[1..];
            for (add, undo) in [(true, 0.5f32), (false, 1024.0)] {
                let mut got: Vec<f64> = (0..vals.len()).map(|k| k as f64 * 0.75).collect();
                let mut want = got.clone();
                S::land(payload, &idx, undo, add, &mut got);
                for (k, &i) in idx.iter().enumerate() {
                    let v = S::read_from(&payload[k * S::BYTES..]).to_f64() * f64::from(undo);
                    let a = &mut want[i as usize];
                    *a = if add { *a + v } else { v };
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} land {add} {len}", S::NAME);
            }
        }
    }

    #[test]
    fn each_run_operation_is_its_elementwise_expression() {
        run_ops_are_elementwise::<f64>();
        run_ops_are_elementwise::<f32>();
        run_ops_are_elementwise::<F16>();
    }
}
