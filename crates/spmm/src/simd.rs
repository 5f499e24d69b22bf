//! AVX2+FMA f32x8 realization of the block kernel — compiled on every
//! x86-64 build, chosen per launch by a runtime CPU check.
//!
//! This is the one corner of the workspace where unsafe code is allowed
//! (the crate-wide `forbid(unsafe_code)` relaxes to
//! `deny(unsafe_op_in_unsafe_fn)` on x86-64, the only arch this module
//! exists on — see `lib.rs`). The unsafe surface is kept to three
//! things, each with a SAFETY argument at the site:
//!
//! 1. identity slice casts `&mut [C]` → `&mut [f32]`, justified by a
//!    `TypeId` equality check;
//! 2. calling the `#[target_feature(enable = "avx2", enable = "fma")]`
//!    kernel, justified by `is_x86_feature_detected!` at dispatch;
//! 3. the `loadu`/`storeu` intrinsics themselves, justified by explicit
//!    in-bounds index arithmetic.
//!
//! Numerically the path is bit-identical to the scalar reference body:
//! `_mm256_fmadd_ps`/`_mm_fmadd_ps` perform the same single-rounding
//! fused multiply-add as `f32::mul_add`, the vector lanes span
//! *different* accumulators (distinct `f` slices of one row), and each
//! accumulator still receives its FMAs in (stage ascending, round
//! ascending) order. `kernel.rs` bit-compares this path against the
//! reference in the test suite.

use core::arch::x86_64::{
    _mm256_castps256_ps128, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps,
    _mm_fmadd_ps, _mm_loadu_ps, _mm_storeu_ps,
};
use std::any::TypeId;

use crate::compute::ComputeScalar;
use crate::packed::{PackedBlock, WARP_SIZE};
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
/// thread-major in `out` (`out[t*fusing + f]`).
///
/// # Panics
/// Panics unless [`eligible::<C>()`](eligible) holds — `kernel::spmm_with`
/// selects this body only then. The check is repeated here because the
/// unsafe operations below rest on it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block<S: StorageScalar, C: ComputeScalar>(
    block: &PackedBlock<S>,
    num_cols: usize,
    x: &[S],
    fusing: usize,
    acc: &mut [C],
    staged: &mut [C],
    out: &mut [S],
) {
    assert!(eligible::<C>(), "f32x8 body needs f32 compute and AVX2+FMA");
    // SAFETY: the `eligible` assertion above proves `TypeId::of::<C>() ==
    // TypeId::of::<f32>()`, i.e. `C` *is* `f32`, so `&mut [C]` and
    // `&mut [f32]` are the same type with identical layout; the casts
    // are identity transmutes of the fat pointers (length preserved).
    let acc_f32: &mut [f32] = unsafe { &mut *(acc as *mut [C] as *mut [f32]) };
    // SAFETY: as above — `C` is `f32`.
    let staged_f32: &mut [f32] = unsafe { &mut *(staged as *mut [C] as *mut [f32]) };
    // SAFETY: `eligible` verified avx2 and fma via
    // `is_x86_feature_detected!`, which is exactly the contract of the
    // `#[target_feature]` kernel below.
    unsafe { run_block_f32(block, num_cols, x, fusing, acc_f32, staged_f32) };
    // Store accumulators through the generic epilogue (for `C` = f32,
    // `store` is the same one-rounding conversion the reference uses).
    let acc = &acc[..block.rows * fusing];
    for t in 0..block.rows {
        for f in 0..fusing {
            out[t * fusing + f] = acc[t * fusing + f].store();
        }
    }
}

/// The block loop of Listing 1 in a vector-friendly shape, specialized
/// to f32 compute with explicit 8-wide FMAs over the fusing axis:
///
/// * **Fusing-contiguous staging** — the gather writes
///   `staged[slot*fusing + f]` (not `shared[f*buffsize + slot]`), so the
///   per-element `f` loop walks contiguous memory, and widening to f32
///   happens once per staged slot instead of once per FMA. `to_f32` is
///   what `f32::load` does, and it is deterministic, so staging in
///   compute precision reads the very same values the reference loads
///   at each FMA.
/// * **Branch-free lane panels** — within a warp, lanes owning rows are
///   exactly the prefix `t < block.rows`, so the per-element bounds
///   check hoists into one `full`-lane panel per warp (the ELL tail
///   beyond it is skipped wholesale).
///
/// `acc` and `staged` may carry stale data from a previous block, for
/// the reason given at `kernel::run_block_into_reference`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA (checked via
/// `is_x86_feature_detected!` in [`run_block`]). Slice bounds are
/// checked: `acc.len() >= block.rows * fusing`, `staged` holds
/// `slots * fusing` elements for every slot a stage maps.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_block_f32<S: StorageScalar>(
    block: &PackedBlock<S>,
    num_cols: usize,
    x: &[S],
    fusing: usize,
    acc: &mut [f32],
    staged: &mut [f32],
) {
    let acc = &mut acc[..block.rows * fusing];
    acc.fill(0.0);

    for stage in &block.stages {
        // Cooperative gather through buffmap (lines 15–20).
        for (slot, &col) in stage.map.iter().enumerate() {
            let col = col as usize;
            let dst = &mut staged[slot * fusing..(slot + 1) * fusing];
            for (f, d) in dst.iter_mut().enumerate() {
                *d = x[f * num_cols + col].to_f32();
            }
        }
        // Warp rounds (lines 22–29), panelized per warp.
        for (w, warp) in stage.warps.iter().enumerate() {
            let warp_base = w * WARP_SIZE;
            // Rows are assigned to lanes in order, so the lanes owning a
            // row are the prefix `[0, full)` — the `row < numrow` guard
            // of Listing 1, hoisted out of the element loop.
            let full = block.rows.saturating_sub(warp_base).min(WARP_SIZE);
            if full == 0 {
                continue;
            }
            for n in 0..warp.rounds {
                let round = &warp.indval[n * WARP_SIZE..n * WARP_SIZE + full];
                for (lane, e) in round.iter().enumerate() {
                    let t = warp_base + lane;
                    let len = e.len.to_f32();
                    let ind = e.ind as usize;
                    // SAFETY: we're inside the target_feature region the
                    // function itself declares.
                    unsafe {
                        fma_span_f32(
                            &mut acc[t * fusing..(t + 1) * fusing],
                            &staged[ind * fusing..(ind + 1) * fusing],
                            len,
                        );
                    }
                }
            }
        }
    }
}

/// `acc[f] += xs[f] * len` over one fusing span with f32x8 FMAs, then an
/// f32x4 step, then scalar `mul_add`. Each accumulator receives exactly
/// one FMA, so the per-accumulator chain order is untouched — only
/// independent lanes are grouped.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and `acc.len() == xs.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_span_f32(acc: &mut [f32], xs: &[f32], len: f32) {
    debug_assert_eq!(acc.len(), xs.len());
    let n = acc.len();
    let len8 = _mm256_set1_ps(len);
    let mut f = 0;
    while f + 8 <= n {
        // SAFETY: `f + 8 <= n` and `xs` has the same length, so both
        // 8-wide unaligned loads and the store stay in bounds.
        unsafe {
            let a = _mm256_loadu_ps(acc.as_ptr().add(f));
            let v = _mm256_loadu_ps(xs.as_ptr().add(f));
            _mm256_storeu_ps(acc.as_mut_ptr().add(f), _mm256_fmadd_ps(v, len8, a));
        }
        f += 8;
    }
    if f + 4 <= n {
        // SAFETY: `f + 4 <= n`; 4-wide unaligned accesses in bounds.
        unsafe {
            let a = _mm_loadu_ps(acc.as_ptr().add(f));
            let v = _mm_loadu_ps(xs.as_ptr().add(f));
            _mm_storeu_ps(
                acc.as_mut_ptr().add(f),
                _mm_fmadd_ps(v, _mm256_castps256_ps128(len8), a),
            );
        }
        f += 4;
    }
    while f < n {
        acc[f] = xs[f].mul_add(len, acc[f]);
        f += 1;
    }
}
