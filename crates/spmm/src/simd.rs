//! AVX2+FMA+F16C f32x8 realization of the block kernel — compiled on
//! every x86-64 build, chosen per launch by a runtime CPU check.
//!
//! This is the one corner of the crate where unsafe code is allowed (the
//! crate-wide `forbid(unsafe_code)` relaxes to
//! `deny(unsafe_op_in_unsafe_fn)` on x86-64, the only arch this module
//! exists on — see `lib.rs`). The unsafe surface is three things, each
//! with a SAFETY argument at the site:
//!
//! 1. calling the `#[target_feature(enable = "avx2", "fma", "f16c")]`
//!    kernel, justified by `is_x86_feature_detected!` at dispatch;
//! 2. the `loadu`/`storeu` intrinsics, each through the pointer of an
//!    array reference of exactly the vector's width: a `&[f32; 8]` /
//!    `&[f32; 4]` element of a stage plane's `as_chunks` view or a slice
//!    just cut by a checked `[..8]`/`[..4]`;
//! 3. the round walk's unchecked read of that plane element,
//!    `plane.get_unchecked(ind)`. Every stored `ind` is below the
//!    stage's [`packed_slots`](crate::PackedStage::packed_slots), which
//!    the packer fixes from the map it fills the rounds against and
//!    nothing after packing can lower; the block body asserts
//!    `packed_slots ≤ plane length` once per stage before it walks any
//!    round, and the group walks are `unsafe fn`s whose contract is that
//!    bound. A `debug_assert!` re-checks each index, so the debug test
//!    suite checks every index it packs.
//!
//! Everything else — the gather through `map` (checked), the index
//! arithmetic, every intrinsic that takes no pointer — is safe code
//! inside the `#[target_feature]` functions. `kernel::spmm_with` calls
//! this body with concrete `f32` buffers once [`eligible`] has shown the
//! compute type *is* `f32`, so no slice is ever reinterpreted.
//!
//! Numerically the path is bit-identical to the scalar reference body:
//! `_mm256_fmadd_ps`/`_mm_fmadd_ps` perform the same single-rounding
//! fused multiply-add as `f32::mul_add`, `vcvtph2ps` widens a packed
//! length to the very `f32` `F16::to_f32` gives, the vector lanes span
//! *different* accumulators (distinct `f` slices of one row), and each
//! accumulator still receives its FMAs in (stage ascending, round
//! ascending) order. `kernel.rs` bit-compares this path against the
//! reference in the test suite.

use core::arch::x86_64::{
    _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    _mm_cvtph_ps, _mm_cvtsi64_si128, _mm_fmadd_ps, _mm_loadu_ps, _mm_set1_ps, _mm_setzero_ps,
    _mm_storeu_ps,
};
use std::any::{Any, TypeId};

use crate::compute::ComputeScalar;
use crate::packed::{PackedBlock, PackedRound, LANE_GROUP};
use xct_fp16::{StorageScalar, F16};

/// Runtime CPU support for the f32x8 path. F16C is part of the
/// condition (no AVX2 CPU lacks it) so the body has one shape: packed
/// half lengths are always widened in hardware.
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
        && is_x86_feature_detected!("f16c")
}

/// Whether compute type `C` dispatches to this path on this machine:
/// f32 accumulation (the single and mixed modes) on a CPU [`detected`]
/// accepts.
pub(crate) fn eligible<C: ComputeScalar>() -> bool {
    TypeId::of::<C>() == TypeId::of::<f32>() && detected()
}

/// The register chunks the fusing axis is cut into, as `(first slice,
/// width)`: 8-wide while they fit, then one 4-wide, then singles. The
/// launch's input and every stage buffer are stored as one *plane* per
/// chunk — `plane[slot][0..width]`, planes in this order — so a slot of
/// a chunk is one array element of an `as_chunks` view.
pub(crate) fn chunks(fusing: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut f = 0;
    std::iter::from_fn(move || {
        let width = match fusing - f {
            0 => return None,
            8.. => 8,
            4.. => 4,
            _ => 1,
        };
        f += width;
        Some((f - width, width))
    })
}

/// Stages the launch's input once: widened to `f32` (in bulk — eight
/// halves per instruction through `xct_fp16::convert`) and rearranged
/// from slice-major `x[f*num_cols + c]` into the chunk planes of
/// [`chunks`], `xt[num_cols*f0 + c*width + (f - f0)]`, so each block's
/// gather through buffmap copies one array per slot and chunk, and a
/// column is widened once, not once per stage that maps it.
pub(crate) fn stage_input<S: StorageScalar>(
    x: &[S],
    num_cols: usize,
    fusing: usize,
    xt: &mut [f32],
) {
    const TILE: usize = 64;
    let mut wide = [0.0f32; TILE];
    for (f0, width) in chunks(fusing) {
        let plane = &mut xt[num_cols * f0..][..num_cols * width];
        if width == 1 {
            S::widen_into(&x[f0 * num_cols..][..num_cols], plane);
            continue;
        }
        for c0 in (0..num_cols).step_by(TILE) {
            let n = TILE.min(num_cols - c0);
            for j in 0..width {
                S::widen_into(&x[(f0 + j) * num_cols + c0..][..n], &mut wide[..n]);
                let slots = plane[c0 * width..][..n * width].chunks_exact_mut(width);
                for (slot, &v) in slots.zip(&wide[..n]) {
                    slot[j] = v;
                }
            }
        }
    }
}

/// Runs one block through the f32x8 kernel, leaving its rows
/// thread-major in `out` (`out[t*fusing + f]`). `xt` is the launch's
/// input as [`stage_input`] left it.
///
/// # Panics
/// Panics unless [`detected`] holds — `kernel::spmm_with` selects this
/// body only then. The check is repeated here because the unsafe call
/// below rests on it.
pub(crate) fn run_block<S: StorageScalar>(
    block: &PackedBlock<S>,
    xt: &[f32],
    fusing: usize,
    acc: &mut [f32],
    staged: &mut [f32],
    out: &mut [S],
) {
    assert!(detected(), "f32x8 body needs AVX2, FMA and F16C");
    // SAFETY: `detected` verified avx2, fma and f16c via
    // `is_x86_feature_detected!`, which is exactly the contract of the
    // `#[target_feature]` kernel below.
    unsafe { run_block_f32(block, xt, fusing, acc, staged) };
    // Round the accumulators to storage in bulk (for f32 storage a
    // copy): the same one-rounding conversion the reference applies
    // per element.
    let written = block.rows.len() * fusing;
    S::narrow_into(&acc[..written], &mut out[..written]);
}

/// The block loop of Listing 1 in a vector-friendly shape, specialized
/// to f32 compute with explicit 8-wide FMAs over the fusing axis:
///
/// * **Chunk-plane staging** — the launch has already widened the input
///   into one plane per register chunk of the fusing axis, so the gather
///   through `buffmap` copies one `[f32; W]` per slot and chunk into the
///   stage buffer's plane, and an element's operand is `plane[ind]`, read
///   unchecked under the stage bound asserted once per stage (see the
///   module doc), with no per-element address arithmetic. Widening is what
///   `f32::load` does and it is deterministic, so the staged values are
///   the very ones the reference loads at each FMA. Slot 0 of every plane
///   is zeroed: the slot padding elements read.
/// * **No row guard** — threads past the block's last row have only
///   padding elements and accumulator space of their own (`acc` is
///   `block_size` rows long), so a lane group is always walked whole;
///   groups with no live lane at all are skipped.
/// * **Register-resident accumulators** — a stage is walked one lane
///   group × one chunk of the fusing axis at a time ([`group_x8`] and
///   siblings); the group's [`LANE_GROUP`] accumulators stay in
///   registers across all of its rounds and are stored once.
///
/// `acc` and `staged` may carry stale data from a previous block: the
/// live part of `acc` is re-zeroed here, and every slot an element can
/// index — the zero slot and one per mapped column — is rewritten by
/// each stage's gather.
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
fn run_block_f32<S: StorageScalar>(
    block: &PackedBlock<S>,
    xt: &[f32],
    fusing: usize,
    acc: &mut [f32],
    staged: &mut [f32],
) {
    let num_cols = xt.len() / fusing;
    let live = block.rows.len().div_ceil(LANE_GROUP);
    let acc = &mut acc[..live * LANE_GROUP * fusing];
    acc.fill(0.0);

    for stage in &block.stages {
        // Cooperative gather through buffmap (lines 15–20).
        let slots = stage.map.len() + 1;
        for (f0, width) in chunks(fusing) {
            let from = &xt[num_cols * f0..][..num_cols * width];
            let to = &mut staged[slots * f0..][..slots * width];
            match width {
                8 => gather::<8>(from, to, &stage.map),
                4 => gather::<4>(from, to, &stage.map),
                _ => gather::<1>(from, to, &stage.map),
            }
        }
        // Every plane just gathered holds `slots` elements; every `ind`
        // of this stage's rounds is below `packed_slots`.
        assert!(
            stage.packed_slots() <= slots,
            "stage packed for {} slots, its map stages {slots}",
            stage.packed_slots()
        );
        // Group rounds (lines 22–29).
        for (rounds, acc) in stage
            .groups()
            .zip(acc.chunks_exact_mut(LANE_GROUP * fusing))
        {
            for (f0, width) in chunks(fusing) {
                let plane = &staged[slots * f0..][..slots * width];
                // SAFETY: each plane is `slots` elements long — `[f32; W]`
                // chunks of a `slots * W` slice — and the assert above put
                // every `ind` of `rounds` below `packed_slots() <= slots`.
                unsafe {
                    match width {
                        8 => group_x8(acc, f0, fusing, plane.as_chunks().0, rounds),
                        4 => group_x4(acc, f0, fusing, plane.as_chunks().0, rounds),
                        _ => group_x1(acc, f0, fusing, plane, rounds),
                    }
                }
            }
        }
    }
}

/// One plane of one stage's gather: slot 0 zeroed, slot `k + 1` the
/// `W` values of column `map[k]`.
#[inline]
fn gather<const W: usize>(from: &[f32], to: &mut [f32], map: &[u32]) {
    let (from, _) = from.as_chunks::<W>();
    let (to, _) = to.as_chunks_mut::<W>();
    to[0] = [0.0; W];
    for (slot, &col) in to[1..].iter_mut().zip(map) {
        *slot = from[col as usize];
    }
}

/// A round's [`LANE_GROUP`] lengths in compute precision: four halves
/// are one 8-byte move and one `vcvtph2ps`; `f32` lengths are copied.
#[inline]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
fn widen_lengths<S: StorageScalar>(len: &[S; LANE_GROUP]) -> [f32; LANE_GROUP] {
    let Some(half) = (len as &dyn Any).downcast_ref::<[F16; LANE_GROUP]>() else {
        return len.map(S::to_f32);
    };
    let bits = half
        .iter()
        .rev()
        .fold(0u64, |bits, h| bits << 16 | u64::from(h.to_bits()));
    let wide = _mm_cvtph_ps(_mm_cvtsi64_si128(bits as i64));
    let mut out = [0.0; LANE_GROUP];
    // SAFETY: `out` is a `[f32; 4]`: sixteen writable bytes under an
    // unaligned 4-wide store.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), wide) };
    out
}

/// One stage's FMAs for one lane group and one 8-wide chunk of the
/// fusing axis (slices `f0..f0 + 8`): loads the group's accumulators
/// (`acc[l*fusing + f]` for group lane `l`) into registers, runs every
/// round over them, and stores them once. Each accumulator receives its
/// lane's elements in ascending round order and nothing else, so its
/// chain is the reference's — only independent accumulators are grouped.
///
/// # Safety
/// Every `ind` of `rounds` must be below `plane.len()`: the stage bound
/// [`run_block_f32`] asserts once per stage.
#[inline]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn group_x8<S: StorageScalar>(
    acc: &mut [f32],
    f0: usize,
    fusing: usize,
    plane: &[[f32; 8]],
    rounds: &[PackedRound<S>],
) {
    let mut a = [_mm256_setzero_ps(); LANE_GROUP];
    for (l, a) in a.iter_mut().enumerate() {
        // SAFETY: the pointer comes from a slice cut to exactly 8
        // elements by a bounds-checked `[..8]`.
        *a = unsafe { _mm256_loadu_ps(acc[l * fusing + f0..][..8].as_ptr()) };
    }
    for round in rounds {
        let len = widen_lengths(&round.len);
        for l in 0..LANE_GROUP {
            let ind = round.ind[l] as usize;
            debug_assert!(ind < plane.len(), "slot {ind} of {}", plane.len());
            // SAFETY: `ind < plane.len()` by this function's contract,
            // which `run_block_f32`'s per-stage assert `packed_slots() <=
            // slots` establishes; the element is an `[f32; 8]`: thirty-two
            // readable bytes under an unaligned load.
            let xs = unsafe { _mm256_loadu_ps(plane.get_unchecked(ind).as_ptr()) };
            a[l] = _mm256_fmadd_ps(xs, _mm256_set1_ps(len[l]), a[l]);
        }
    }
    for (l, a) in a.iter().enumerate() {
        // SAFETY: as for the load — a slice cut to 8 elements by `[..8]`.
        unsafe { _mm256_storeu_ps(acc[l * fusing + f0..][..8].as_mut_ptr(), *a) };
    }
}

/// [`group_x8`] for a 4-wide chunk.
///
/// # Safety
/// As [`group_x8`]: every `ind` of `rounds` below `plane.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn group_x4<S: StorageScalar>(
    acc: &mut [f32],
    f0: usize,
    fusing: usize,
    plane: &[[f32; 4]],
    rounds: &[PackedRound<S>],
) {
    let mut a = [_mm_setzero_ps(); LANE_GROUP];
    for (l, a) in a.iter_mut().enumerate() {
        // SAFETY: the pointer comes from a slice cut to exactly 4
        // elements by a bounds-checked `[..4]`.
        *a = unsafe { _mm_loadu_ps(acc[l * fusing + f0..][..4].as_ptr()) };
    }
    for round in rounds {
        let len = widen_lengths(&round.len);
        for l in 0..LANE_GROUP {
            let ind = round.ind[l] as usize;
            debug_assert!(ind < plane.len(), "slot {ind} of {}", plane.len());
            // SAFETY: `ind < plane.len()` by this function's contract,
            // which `run_block_f32`'s per-stage assert `packed_slots() <=
            // slots` establishes; the element is an `[f32; 4]`: sixteen
            // readable bytes under an unaligned load.
            let xs = unsafe { _mm_loadu_ps(plane.get_unchecked(ind).as_ptr()) };
            a[l] = _mm_fmadd_ps(xs, _mm_set1_ps(len[l]), a[l]);
        }
    }
    for (l, a) in a.iter().enumerate() {
        // SAFETY: as for the load — a slice cut to 4 elements by `[..4]`.
        unsafe { _mm_storeu_ps(acc[l * fusing + f0..][..4].as_mut_ptr(), *a) };
    }
}

/// [`group_x8`] for a single slice (`f32::mul_add` is the scalar FMA).
///
/// # Safety
/// As [`group_x8`]: every `ind` of `rounds` below `plane.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn group_x1<S: StorageScalar>(
    acc: &mut [f32],
    f0: usize,
    fusing: usize,
    plane: &[f32],
    rounds: &[PackedRound<S>],
) {
    let mut a: [f32; LANE_GROUP] = std::array::from_fn(|l| acc[l * fusing + f0]);
    for round in rounds {
        let len = widen_lengths(&round.len);
        for l in 0..LANE_GROUP {
            let ind = round.ind[l] as usize;
            debug_assert!(ind < plane.len(), "slot {ind} of {}", plane.len());
            // SAFETY: `ind < plane.len()` by this function's contract,
            // which `run_block_f32`'s per-stage assert `packed_slots() <=
            // slots` establishes.
            let xs = unsafe { *plane.get_unchecked(ind) };
            a[l] = xs.mul_add(len[l], a[l]);
        }
    }
    for (l, a) in a.iter().enumerate() {
        acc[l * fusing + f0] = *a;
    }
}
