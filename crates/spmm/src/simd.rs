//! AVX2+FMA f32x8 realization of the block kernel — compiled on every
//! x86-64 build, chosen per launch by a runtime CPU check.
//!
//! This is the one corner of the workspace where unsafe code is allowed
//! (the crate-wide `forbid(unsafe_code)` relaxes to
//! `deny(unsafe_op_in_unsafe_fn)` on x86-64, the only arch this module
//! exists on — see `lib.rs`). The unsafe surface is kept to three
//! things, each with a SAFETY argument at the site:
//!
//! 1. identity slice casts between `[C]` and `[f32]`, justified by a
//!    `TypeId` equality check;
//! 2. calling the `#[target_feature(enable = "avx2", enable = "fma")]`
//!    kernel, justified by `is_x86_feature_detected!` at dispatch;
//! 3. the `loadu`/`storeu` intrinsics themselves, each through the
//!    pointer of a slice just cut to the vector's width by a
//!    bounds-checked `[..8]`/`[..4]`.
//!
//! Numerically the path is bit-identical to the scalar reference body:
//! `_mm256_fmadd_ps`/`_mm_fmadd_ps` perform the same single-rounding
//! fused multiply-add as `f32::mul_add`, the vector lanes span
//! *different* accumulators (distinct `f` slices of one row), and each
//! accumulator still receives its FMAs in (stage ascending, round
//! ascending) order. `kernel.rs` bit-compares this path against the
//! reference in the test suite.

use core::arch::x86_64::{
    __m128, __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps, _mm_fmadd_ps, _mm_loadu_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
};
use std::any::TypeId;

use crate::compute::ComputeScalar;
use crate::packed::{PackedBlock, PackedElem, WARP_SIZE};
use xct_fp16::StorageScalar;

/// Runtime CPU support for the f32x8 path.
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// Whether compute type `C` dispatches to this path on this machine:
/// f32 accumulation (the single and mixed modes) on an AVX2+FMA CPU.
pub(crate) fn eligible<C: ComputeScalar>() -> bool {
    TypeId::of::<C>() == TypeId::of::<f32>() && detected()
}

/// Runs one block through the f32x8 kernel, leaving its rows
/// thread-major in `out` (`out[t*fusing + f]`). `xt` is the launch's
/// input, already widened to compute precision and fusing-contiguous
/// (`xt[c*fusing + f]`, see `kernel::spmm_with`).
///
/// # Panics
/// Panics unless [`eligible::<C>()`](eligible) holds — `kernel::spmm_with`
/// selects this body only then. The check is repeated here because the
/// unsafe operations below rest on it.
pub(crate) fn run_block<S: StorageScalar, C: ComputeScalar>(
    block: &PackedBlock<S>,
    xt: &[C],
    fusing: usize,
    acc: &mut [C],
    staged: &mut [C],
    out: &mut [S],
) {
    assert!(eligible::<C>(), "f32x8 body needs f32 compute and AVX2+FMA");
    // SAFETY: the `eligible` assertion above proves `TypeId::of::<C>() ==
    // TypeId::of::<f32>()`, i.e. `C` *is* `f32`, so `&[C]` and `&[f32]`
    // are the same type with identical layout; the casts are identity
    // transmutes of the fat pointers (length preserved).
    let xt_f32: &[f32] = unsafe { &*(xt as *const [C] as *const [f32]) };
    // SAFETY: as above — `C` is `f32`.
    let acc_f32: &mut [f32] = unsafe { &mut *(acc as *mut [C] as *mut [f32]) };
    // SAFETY: as above — `C` is `f32`.
    let staged_f32: &mut [f32] = unsafe { &mut *(staged as *mut [C] as *mut [f32]) };
    // SAFETY: `eligible` verified avx2 and fma via
    // `is_x86_feature_detected!`, which is exactly the contract of the
    // `#[target_feature]` kernel below.
    unsafe { run_block_f32(block, xt_f32, fusing, acc_f32, staged_f32) };
    // Store accumulators through the generic epilogue (for `C` = f32,
    // `store` is the same one-rounding conversion the reference uses).
    for (o, a) in out.iter_mut().zip(&acc[..block.rows.len() * fusing]) {
        *o = a.store();
    }
}

/// Lanes whose accumulators one register group holds at a time.
const LANE_GROUP: usize = 4;

/// The block loop of Listing 1 in a vector-friendly shape, specialized
/// to f32 compute with explicit 8-wide FMAs over the fusing axis:
///
/// * **Fusing-contiguous staging** — the launch has already widened and
///   transposed the input into `xt[c*fusing + f]`, so the gather through
///   `buffmap` is one contiguous `fusing`-wide copy per slot into
///   `staged[slot*fusing + f]`, and the per-element `f` loop walks
///   contiguous memory. Widening is what `f32::load` does and it is
///   deterministic, so the staged values are the very ones the reference
///   loads at each FMA.
/// * **Branch-free lane panels** — within a warp, lanes owning rows are
///   exactly the prefix `t < block.rows.len()`, so the per-element bounds
///   check hoists into one `full`-lane panel per warp (the ELL tail
///   beyond it is skipped wholesale).
/// * **Register-resident accumulators** — a warp's stage is walked in
///   groups of [`LANE_GROUP`] lanes × one chunk of the fusing axis
///   ([`lane_group`]); a group's accumulators stay in registers across
///   all rounds of the stage and are stored once.
///
/// `acc` and `staged` may carry stale data from a previous block, for
/// the reason given at `kernel::run_block_into_reference`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA (checked via
/// `is_x86_feature_detected!` in [`run_block`]). Slice bounds are
/// checked: `acc.len() >= block.rows.len() * fusing`, `staged` holds
/// `slots * fusing` elements for every slot a stage maps, `xt` holds
/// `fusing` elements for every column a stage maps.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_block_f32<S: StorageScalar>(
    block: &PackedBlock<S>,
    xt: &[f32],
    fusing: usize,
    acc: &mut [f32],
    staged: &mut [f32],
) {
    let rows = block.rows.len();
    let acc = &mut acc[..rows * fusing];
    acc.fill(0.0);

    for stage in &block.stages {
        // Cooperative gather through buffmap (lines 15–20).
        let staged = &mut staged[..stage.map.len() * fusing];
        for (dst, &col) in staged.chunks_exact_mut(fusing).zip(&stage.map) {
            dst.copy_from_slice(&xt[col as usize * fusing..][..fusing]);
        }
        // Warp rounds (lines 22–29), panelized per warp.
        for (w, warp) in stage.warps.iter().enumerate() {
            let warp_base = w * WARP_SIZE;
            // The block's row list is assigned to lanes in sequence, so
            // the lanes owning a row are the prefix `[0, full)` — the
            // `row < numrow` guard of Listing 1, hoisted out of the
            // element loop.
            let full = rows.saturating_sub(warp_base).min(WARP_SIZE);
            let indval = &warp.indval[..warp.rounds * WARP_SIZE];
            let mut lane = 0;
            while lane < full {
                let acc = &mut acc[(warp_base + lane) * fusing..];
                // SAFETY: we're inside the target_feature region the
                // function itself declares.
                unsafe {
                    if lane + LANE_GROUP <= full {
                        lane_group::<S, LANE_GROUP>(acc, staged, indval, lane, fusing);
                        lane += LANE_GROUP;
                    } else {
                        lane_group::<S, 1>(acc, staged, indval, lane, fusing);
                        lane += 1;
                    }
                }
            }
        }
    }
}

/// One stage's FMAs for lanes `lane..lane + L` of a warp: for each chunk
/// of the fusing axis (8-wide while they fit, then one 4-wide, then
/// scalars), loads the `L` lanes' accumulators into registers, runs every
/// round of `indval` (`rounds × WARP_SIZE`, round-major) over them, and
/// stores them once. `acc` starts at lane `lane`'s row (`acc[l*fusing +
/// f]` for group lane `l`). Each accumulator receives its rounds'
/// FMAs in ascending order and nothing else, so its chain is the
/// reference's — only independent accumulators are grouped.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available. All indexing is
/// slice-checked.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn lane_group<S: StorageScalar, const L: usize>(
    acc: &mut [f32],
    staged: &[f32],
    indval: &[PackedElem<S>],
    lane: usize,
    fusing: usize,
) {
    let acc = &mut acc[..L * fusing];
    let mut f = 0;
    while f + 8 <= fusing {
        // SAFETY: the unsafe operations in this block are the unaligned
        // 8-wide loads and stores; each takes its pointer from a slice
        // cut to exactly 8 elements by a bounds-checked `[..8]`, so the
        // access stays inside that slice.
        unsafe {
            let mut a: [__m256; L] = [_mm256_setzero_ps(); L];
            for (l, a) in a.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(acc[l * fusing + f..][..8].as_ptr());
            }
            for round in indval.chunks_exact(WARP_SIZE) {
                for (a, e) in a.iter_mut().zip(&round[lane..lane + L]) {
                    let xs = &staged[e.ind as usize * fusing + f..][..8];
                    let len = _mm256_set1_ps(e.len.to_f32());
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(xs.as_ptr()), len, *a);
                }
            }
            for (l, a) in a.iter().enumerate() {
                _mm256_storeu_ps(acc[l * fusing + f..][..8].as_mut_ptr(), *a);
            }
        }
        f += 8;
    }
    if f + 4 <= fusing {
        // SAFETY: as above, with slices of exactly 4 elements (`[..4]`)
        // under the 4-wide loads and stores.
        unsafe {
            let mut a: [__m128; L] = [_mm_setzero_ps(); L];
            for (l, a) in a.iter_mut().enumerate() {
                *a = _mm_loadu_ps(acc[l * fusing + f..][..4].as_ptr());
            }
            for round in indval.chunks_exact(WARP_SIZE) {
                for (a, e) in a.iter_mut().zip(&round[lane..lane + L]) {
                    let xs = &staged[e.ind as usize * fusing + f..][..4];
                    let len = _mm_set1_ps(e.len.to_f32());
                    *a = _mm_fmadd_ps(_mm_loadu_ps(xs.as_ptr()), len, *a);
                }
            }
            for (l, a) in a.iter().enumerate() {
                _mm_storeu_ps(acc[l * fusing + f..][..4].as_mut_ptr(), *a);
            }
        }
        f += 4;
    }
    while f < fusing {
        for l in 0..L {
            let a = &mut acc[l * fusing + f];
            for round in indval.chunks_exact(WARP_SIZE) {
                let e = &round[lane + l];
                *a = staged[e.ind as usize * fusing + f].mul_add(e.len.to_f32(), *a);
            }
        }
        f += 1;
    }
}
