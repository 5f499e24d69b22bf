//! The exchange's message layout and its level-step helpers.
//!
//! Every value crosses the (simulated) wire as its storage scalar's
//! little-endian bytes ([`StorageScalar::encode_run`]), so communication
//! volume per element equals `BYTES` of the storage type — precisely how
//! half-precision communication halves the volumes of Table IV relative
//! to single.
//!
//! A half-width wire travels *scaled* (§III-C1): every slice is
//! quantized with the power-of-two scale of its sender's own data, and
//! each message starts with one `f32` undo per slice it carries
//! ([`UNDO_BYTES`] each). Full-width wires carry no header and every
//! scale on them is 1. Which one a wire is follows from its width alone.
//!
//! A level step gathers and encodes each transfer ([`encode_gather`]),
//! seeds its accumulator with the local carries ([`seed`]) and lands each
//! payload ([`land`]). On a full-width wire each is one fused pass per
//! value; on a half-width wire the carries and payloads first widen in
//! bulk through [`StorageScalar::widen_into`] (F16C where the CPU has
//! it), bit for bit the elementwise expression.

use xct_fp16::{scale_for, StorageScalar};

/// Whether values of `S` travel scaled: a half-width wire, `F16`.
pub(crate) const fn scaled<S: StorageScalar>() -> bool {
    S::BYTES < 4
}

/// Values per stack-held run of a half-width landing.
const RUN: usize = 256;

/// Appends the bytes of `vals`.
pub(crate) fn append<S: StorageScalar>(vals: &[S], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + vals.len() * S::BYTES, 0);
    S::encode_run(vals, &mut out[start..]);
}

/// Decodes a whole buffer of values.
///
/// # Panics
/// Panics when the buffer is not a multiple of the element size.
pub(crate) fn decode<S: StorageScalar>(bytes: &[u8]) -> Vec<S> {
    assert!(
        bytes.len().is_multiple_of(S::BYTES),
        "buffer of {} bytes is not a multiple of {}-byte {}",
        bytes.len(),
        S::BYTES,
        S::NAME
    );
    let mut vals = vec![S::zero(); bytes.len() / S::BYTES];
    S::decode_run(bytes, &mut vals);
    vals
}

/// Appends the bytes of `vals[i]` for each `i` of `idx`, in order: one
/// transfer's share of one held slice.
pub(crate) fn encode_gather<S: StorageScalar>(vals: &[S], idx: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + idx.len() * S::BYTES, 0);
    for (bytes, &i) in out[start..].chunks_exact_mut(S::BYTES).zip(idx) {
        vals[i as usize].to_le(bytes);
    }
}

/// Seeds one slice's accumulator with the level's local carries:
/// `acc[d] = vals[s] · own` for each `(s, d)` of `keeps`. A half-width
/// slice is widened whole into `wide` first (`f32` holds every value of
/// a narrower float, so `f64::from` of a widened value is its `to_f64`).
pub(crate) fn seed<S: StorageScalar>(
    vals: &[S],
    keeps: &[(u32, u32)],
    own: f64,
    wide: &mut Vec<f32>,
    acc: &mut [f64],
) {
    if !scaled::<S>() {
        for &(s, d) in keeps {
            acc[d as usize] = vals[s as usize].to_f64() * own;
        }
        return;
    }
    wide.resize(vals.len(), 0.0);
    S::widen_into(vals, wide);
    for &(s, d) in keeps {
        acc[d as usize] = f64::from(wide[s as usize]) * own;
    }
}

/// Lands one slice's payload in the accumulator in plan order:
/// `acc[idx[k]] += value_k · undo` when `add` (a reduction),
/// `acc[idx[k]] = value_k · undo` otherwise (a scatter). A half-width
/// payload is decoded and widened a stack-held run at a time.
///
/// # Panics
/// Panics when `payload` holds fewer than `idx.len()` values.
pub(crate) fn land<S: StorageScalar>(
    payload: &[u8],
    idx: &[u32],
    undo: f32,
    add: bool,
    acc: &mut [f64],
) {
    let payload = &payload[..idx.len() * S::BYTES];
    let undo = f64::from(undo);
    if !scaled::<S>() {
        let values = payload
            .chunks_exact(S::BYTES)
            .map(|b| S::from_le(b).to_f64());
        return land_values(values, idx, undo, add, acc);
    }
    let (mut run, mut wide) = ([S::zero(); RUN], [0.0f32; RUN]);
    for (bytes, idx) in payload.chunks(RUN * S::BYTES).zip(idx.chunks(RUN)) {
        let (run, wide) = (&mut run[..idx.len()], &mut wide[..idx.len()]);
        S::decode_run(bytes, run);
        S::widen_into(run, wide);
        land_values(wide.iter().map(|&v| f64::from(v)), idx, undo, add, acc);
    }
}

/// `acc[idx[k]] (+)= value_k · undo` in `f64`, in order: the landing
/// every [`land`] performs once its values are decoded.
fn land_values(
    values: impl Iterator<Item = f64>,
    idx: &[u32],
    undo: f64,
    add: bool,
    acc: &mut [f64],
) {
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
pub(crate) fn slice_scale<S: StorageScalar>(max: impl FnOnce() -> f64) -> (f32, f32) {
    if !scaled::<S>() {
        return (1.0, 1.0);
    }
    let max = max();
    let max = if max.is_finite() {
        (max as f32).min(f32::MAX)
    } else {
        f32::INFINITY
    };
    let factor = scale_for(max);
    (factor, 1.0 / factor)
}

/// Header bytes of a message carrying `slices` slices on wire `S`.
pub(crate) const fn header_bytes<S: StorageScalar>(slices: usize) -> usize {
    if scaled::<S>() {
        slices * UNDO_BYTES
    } else {
        0
    }
}

/// Appends the header of a message whose slices have `undos` (nothing on
/// a full-width wire).
pub(crate) fn write_header<S: StorageScalar>(undos: &[f32], out: &mut Vec<u8>) {
    if scaled::<S>() {
        append(undos, out);
    }
}

/// Splits one message of `slices` slices of `len` values each: slice
/// `f`'s undo out of the header (1 on a full-width wire) and its payload.
///
/// # Panics
/// Panics when the message is not exactly a header and `slices × len`
/// values.
pub(crate) fn message_slice<S: StorageScalar>(
    bytes: &[u8],
    slices: usize,
    len: usize,
    f: usize,
) -> (f32, &[u8]) {
    let head = header_bytes::<S>(slices);
    let width = len * S::BYTES;
    assert_eq!(bytes.len(), head + slices * width, "payload/plan mismatch");
    let undo = if scaled::<S>() {
        f32::from_le(&bytes[f * UNDO_BYTES..][..UNDO_BYTES])
    } else {
        1.0
    };
    (undo, &bytes[head + f * width..head + (f + 1) * width])
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::F16;

    #[test]
    fn roundtrip_all_types() {
        fn roundtrip<S: StorageScalar>(vals: &[S]) -> Vec<S> {
            let mut bytes = vec![7u8];
            append(vals, &mut bytes);
            decode(&bytes[1..])
        }
        let f64s = [0.0f64, -1.5, f64::MAX, 1e-300];
        assert_eq!(roundtrip(&f64s), f64s);

        let f32s = [0.5f32, -0.0, f32::MIN_POSITIVE];
        assert_eq!(roundtrip(&f32s), f32s);

        let h = [
            F16::ONE,
            F16::MAX,
            F16::MIN_POSITIVE_SUBNORMAL,
            -F16::EPSILON,
        ];
        assert_eq!(
            roundtrip(&h)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            h.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn encoded_size_is_storage_bytes() {
        fn size<S: StorageScalar>(v: S) -> usize {
            let mut out = Vec::new();
            append(&[v; 10], &mut out);
            out.len()
        }
        assert_eq!(size(F16::ONE), 20);
        assert_eq!(size(1.0f32), 40);
        assert_eq!(size(1.0f64), 80);
    }

    #[test]
    fn only_half_width_messages_carry_a_scale_header() {
        let mut msg = Vec::new();
        write_header::<F16>(&[0.5, 0.25], &mut msg);
        append(&[F16::ONE; 6], &mut msg);
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
        decode::<f32>(&[0u8; 6]);
    }

    /// `len` values of `S` cycling through the edges of every width — ±0,
    /// the smallest half subnormal, 65504, the `f32` edges, ±∞, NaN —
    /// between ordinary values.
    #[allow(clippy::cast_possible_truncation)]
    fn edge_run<S: StorageScalar>(len: usize) -> Vec<S> {
        let edges = [
            0.0,
            -0.0,
            2f64.powi(-24),
            -1.5 * 2f64.powi(-24),
            2f64.powi(-14),
            65504.0,
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
            .map(S::from_f64)
            .collect()
    }

    /// Every level-step helper of `S` against its elementwise expression:
    /// encodings byte for byte, accumulators bit for bit, at lengths
    /// around the 8-wide body and the run size, under scaled undos.
    #[allow(clippy::cast_possible_truncation)]
    fn run_ops_are_elementwise<S: StorageScalar>() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 7, 8, 9, 257, 600] {
            // A buffer of 2·len + 3 held values; every len-long ascending
            // gather of it, as a transfer's positions are.
            let vals: Vec<S> = edge_run(2 * len + 3);
            let idx: Vec<u32> = (0..len).map(|k| (2 * k + k % 3) as u32).collect();
            let mut got = vec![7u8];
            encode_gather(&vals, &idx, &mut got);
            let mut want = vec![7u8];
            for &i in &idx {
                append(&[vals[i as usize]], &mut want);
            }
            assert_eq!(got, want, "{} encode {len}", S::NAME);

            let payload = &got[1..];
            let fresh = || {
                (0..vals.len())
                    .map(|k| k as f64 * 0.75)
                    .collect::<Vec<f64>>()
            };
            for (add, undo) in [(true, 0.5f32), (false, 1024.0)] {
                let (mut got, mut want) = (fresh(), fresh());
                land::<S>(payload, &idx, undo, add, &mut got);
                for (k, &i) in idx.iter().enumerate() {
                    let v = S::from_le(&payload[k * S::BYTES..][..S::BYTES]).to_f64();
                    let a = &mut want[i as usize];
                    *a = if add {
                        *a + v * f64::from(undo)
                    } else {
                        v * f64::from(undo)
                    };
                }
                assert_eq!(bits(&got), bits(&want), "{} land {add} {len}", S::NAME);
            }

            let keeps: Vec<(u32, u32)> = idx.iter().map(|&i| (i, i / 2)).collect();
            let (mut got, mut want) = (fresh(), fresh());
            seed(&vals, &keeps, 0.125, &mut Vec::new(), &mut got);
            for &(s, d) in &keeps {
                want[d as usize] = vals[s as usize].to_f64() * 0.125;
            }
            assert_eq!(bits(&got), bits(&want), "{} seed {len}", S::NAME);
        }
    }

    #[test]
    fn each_run_operation_is_its_elementwise_expression() {
        run_ops_are_elementwise::<f64>();
        run_ops_are_elementwise::<f32>();
        run_ops_are_elementwise::<F16>();
    }
}
