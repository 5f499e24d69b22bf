//! The fused, staged SpMM executor — the CPU realization of Listing 1.
//!
//! Control flow mirrors the CUDA kernel, with the lane group (not the
//! warp) as the unit elements are stored and walked in — see `packed.rs`:
//!
//! ```text
//! for each thread block (claimed by a worker):  // blockIdx.x
//!   acc[thread][FFACTOR] = 0                    // line 10
//!   for each stage:                             // lines 12–13
//!     shared[0] = 0                             // the zero slot
//!     gather x through buffmap into shared[1..] // lines 15–20
//!     for each lane group, round, lane:         // lines 22–24
//!       (ind, len) = round.ind[lane], round.len[lane]
//!       for f in 0..FFACTOR:                    // lines 26–28
//!         acc[f] += shared[f][ind] * len
//!   write y[f*numrow + row] = acc[f]            // lines 32–36
//! ```
//!
//! `row` is read from the block's row list and the gather goes through
//! the stage's `map`, so whatever [`Order`](crate::Order) pair the matrix
//! was packed under, `x` and `y` are in the matrix's own numbering.
//!
//! Storage scalar `S` and compute scalar `C` are independent, giving the
//! double/single/half/mixed modes of §III-C.
//!
//! One launch skeleton ([`launch`]) hands the blocks to the executor's
//! workers in claimed runs and runs one of two block bodies, chosen per
//! launch from what the platform reports — there is no build-time
//! switch:
//!
//! * on x86-64 with AVX2+FMA+F16C detected at run time and `C == f32`
//!   (the single and mixed modes), [`spmm_with`] runs the f32x8 body of
//!   `simd.rs`;
//! * every other case (f64 or f16 compute, no AVX2, other arches) runs
//!   [`run_block_into_reference`], the direct scalar transcription of
//!   Listing 1, which [`spmm_reference_with`] forces on any platform as
//!   the comparison oracle.
//!
//! The two bodies read the same layout and are bit-identical: each
//! accumulator's FMA chain keeps the (stage ascending, round ascending)
//! order of Listing 1, padding FMAs included, and the vector lanes span
//! *different* accumulators.
//!
//! All scratch (accumulators, the shared-memory stand-in, per-block
//! output staging, and the f32x8 body's once-per-launch widened and
//! rearranged copy of `x`) comes from the [`ExecContext`]'s workspace, so a
//! steady-state iteration re-running [`spmm_with`] performs no heap
//! allocation — the CPU analogue of the paper's preallocated device
//! buffers.

use crate::compute::ComputeScalar;
use crate::metrics::KernelMetrics;
use crate::packed::{PackedBlock, PackedMatrix, LANE_GROUP};
use std::sync::{Mutex, PoisonError};
use xct_exec::{BufferRole, ExecContext, WorkspaceScalar};
use xct_fp16::StorageScalar;

/// Runs the fused SpMM `Y = A·X` through an execution context.
///
/// `x` and `y` are slice-major: `x[f*num_cols + c]`, `y[f*num_rows + r]`
/// for `f` in `0..fusing`, matching Listing 1. Scratch buffers are taken
/// from `ctx.workspace` (allocation-free once warm), `ctx.executor`'s
/// workers claim the blocks in runs, and the launch's traffic is added
/// to `ctx.counters`. Returns the per-launch memory-traffic
/// account. Results are bit-identical across executors and across the
/// two block bodies: every block's FMA order is fixed and the scatter
/// into `y` is sequential.
///
/// # Panics
/// Panics when the buffer lengths don't match the matrix shape or the
/// matrix was staged for a different fusing factor.
pub fn spmm_with<S, C>(
    a: &PackedMatrix<S>,
    x: &[S],
    y: &mut [S],
    ctx: &mut ExecContext,
) -> KernelMetrics
where
    S: StorageScalar + WorkspaceScalar,
    C: ComputeScalar + WorkspaceScalar,
{
    #[cfg(target_arch = "x86_64")]
    if crate::simd::eligible::<C>() {
        // `C` is `f32`: launch with the concrete type, so the vector body
        // takes plain `f32` buffers.
        check_shapes(a, x, y);
        let fusing = a.fusing();
        let mut xt: Vec<f32> = ctx.workspace.take_uninit(BufferRole::KernelInput, x.len());
        crate::simd::stage_input(x, a.num_cols(), fusing, &mut xt);
        let metrics = launch::<S, f32, f32>(a, y, ctx, |block, acc, staged, out| {
            crate::simd::run_block(block, &xt, fusing, acc, staged, out);
        });
        ctx.workspace.put(BufferRole::KernelInput, xt);
        return metrics;
    }
    spmm_reference_with::<S, C>(a, x, y, ctx)
}

/// [`spmm_with`] with the scalar reference body forced: the direct
/// transcription of Listing 1 (per-element `t >= rows` branch, f-major
/// shared buffer, storage-precision staging with conversion at every
/// FMA). It is what [`spmm_with`] itself runs wherever the f32x8 body
/// does not apply, the oracle that body is bit-compared against, and the
/// perf baseline for the vectorization win.
pub fn spmm_reference_with<S, C>(
    a: &PackedMatrix<S>,
    x: &[S],
    y: &mut [S],
    ctx: &mut ExecContext,
) -> KernelMetrics
where
    S: StorageScalar + WorkspaceScalar,
    C: ComputeScalar + WorkspaceScalar,
{
    check_shapes(a, x, y);
    let (buffsize, num_cols, fusing) = (a.slots_per_stage() + 1, a.num_cols(), a.fusing());
    launch::<S, C, S>(a, y, ctx, |block, acc, shared, out| {
        run_block_into_reference::<S, C>(block, buffsize, num_cols, x, fusing, acc, shared, out);
    })
}

/// Whether [`spmm_with`] takes the `core::arch` f32x8 body for
/// f32-compute launches on this machine: an x86-64 target with AVX2, FMA
/// and F16C detected at run time. Everything else runs the scalar reference body
/// (same results bit-for-bit).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::detected() {
        return true;
    }
    false
}

/// Blocks a worker claims from a launch's queue at a time: enough that
/// the lock is taken a few dozen times a launch, few enough that the
/// last claims even out the workers' finishing times.
const CLAIM: usize = 8;

/// The one launch skeleton (shapes already checked): runs
/// `body(block, acc, staged, out)` on every block of `a` with per-worker
/// scratch, scatters the block outputs into `y`, and meters the launch.
/// The executor's workers claim the blocks in runs of [`CLAIM`] from one
/// shared queue until it is empty, so a worker whose blocks ran fast
/// takes more of them; each block writes its own output slot, and the
/// scatter afterwards is sequential, so which worker ran a block changes
/// no bit. `T` is the element type of the body's staging buffer (the
/// shared-memory stand-in): compute precision for the f32x8 body,
/// storage precision for the reference.
fn launch<S, C, T>(
    a: &PackedMatrix<S>,
    y: &mut [S],
    ctx: &mut ExecContext,
    body: impl Fn(&PackedBlock<S>, &mut [C], &mut [T], &mut [S]) + Sync,
) -> KernelMetrics
where
    S: StorageScalar + WorkspaceScalar,
    C: ComputeScalar + WorkspaceScalar,
    T: WorkspaceScalar,
{
    let fusing = a.fusing();
    let blocks = a.blocks();
    // Per-block scratch strides. `block_size` bounds `block.rows.len()`
    // and a stage stages its mapped columns plus the zero slot, so one
    // stride fits any block.
    let acc_stride = a.block_size() * fusing;
    let staged_stride = (a.slots_per_stage() + 1) * fusing;
    let workers = ctx.executor.partitions(blocks.len().div_ceil(CLAIM));

    // One acc/staging lane per worker (reused across its blocks), one out
    // slot per block (consumed by the sequential scatter afterwards,
    // because the slice-major layout interleaves block outputs).
    let mut acc: Vec<C> = ctx
        .workspace
        .take_uninit(BufferRole::KernelAcc, workers * acc_stride);
    let mut staged: Vec<T> = ctx
        .workspace
        .take_uninit(BufferRole::KernelShared, workers * staged_stride);
    let mut out: Vec<S> = ctx
        .workspace
        .take_uninit(BufferRole::KernelOut, blocks.len() * acc_stride);

    let queue = Mutex::new(blocks.chunks(CLAIM).zip(out.chunks_mut(CLAIM * acc_stride)));
    let lanes = acc
        .chunks_mut(acc_stride)
        .zip(staged.chunks_mut(staged_stride));
    ctx.executor.for_each_part(lanes, |(acc, staged)| loop {
        // Only `next` runs under the lock, so even a poisoned queue is
        // whole; a worker's panic reaches the caller when the executor
        // joins its scope.
        let claim = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((blocks, outs)) = claim else { break };
        for (block, out) in blocks.iter().zip(outs.chunks_mut(acc_stride)) {
            body(block, acc, staged, out);
        }
    });

    // Sequential scatter of thread-major block outputs into the
    // slice-major `y`, each to the row its block lists for that thread:
    // the write order — and with it cross-executor determinism — is
    // fixed here, for both bodies.
    let num_rows = a.num_rows();
    for (block, out) in blocks.iter().zip(out.chunks(acc_stride)) {
        for (&row, out) in block.rows.iter().zip(out.chunks_exact(fusing)) {
            for (f, &v) in out.iter().enumerate() {
                y[f * num_rows + row as usize] = v;
            }
        }
    }

    ctx.workspace.put(BufferRole::KernelAcc, acc);
    ctx.workspace.put(BufferRole::KernelShared, staged);
    ctx.workspace.put(BufferRole::KernelOut, out);

    let metrics = a.kernel_metrics();
    ctx.counters.record_kernel_padded(
        metrics.flops,
        metrics.padded_flops,
        metrics.bytes_read,
        metrics.bytes_written,
    );
    metrics
}

fn check_shapes<S: StorageScalar>(a: &PackedMatrix<S>, x: &[S], y: &[S]) {
    assert_eq!(
        x.len(),
        a.num_cols() * a.fusing(),
        "input length mismatch: {} vs {}x{}",
        x.len(),
        a.num_cols(),
        a.fusing()
    );
    assert_eq!(
        y.len(),
        a.num_rows() * a.fusing(),
        "output length mismatch: {} vs {}x{}",
        y.len(),
        a.num_rows(),
        a.fusing()
    );
}

/// The scalar transcription of Listing 1 — the production body wherever
/// the f32x8 one does not apply, and the oracle it is compared against:
/// per-element row guard, f-major storage-precision shared buffer
/// (`buffsize` slots per slice, slot 0 the zero slot), conversion at the
/// FMA. Leaves the block's rows thread-major in `out`
/// (`out[t*fusing + f]`).
///
/// `acc` and `shared` may carry stale data from a previous block: `acc`
/// is re-zeroed here (line 10 of the kernel), and every FMA reads a
/// shared slot the current stage wrote — real elements index `1..=` the
/// stage's map length, padding elements the zero slot. So reuse cannot
/// change results.
#[allow(clippy::too_many_arguments)]
// xct-hot
fn run_block_into_reference<S: StorageScalar, C: ComputeScalar>(
    block: &PackedBlock<S>,
    buffsize: usize,
    num_cols: usize,
    x: &[S],
    fusing: usize,
    acc: &mut [C],
    shared: &mut [S],
    out: &mut [S],
) {
    let rows = block.rows.len();
    let acc = &mut acc[..rows * fusing];
    acc.fill(C::default());

    for stage in &block.stages {
        for f in 0..fusing {
            shared[f * buffsize] = S::zero();
            for (slot, &col) in stage.map.iter().enumerate() {
                shared[f * buffsize + slot + 1] = x[f * num_cols + col as usize];
            }
        }
        for (g, rounds) in stage.groups().enumerate() {
            for round in rounds {
                for (lane, (&ind, &len)) in round.ind.iter().zip(&round.len).enumerate() {
                    let t = g * LANE_GROUP + lane;
                    if t >= rows {
                        continue; // thread owns no row (`if(row < numrow)`)
                    }
                    let len = C::load(len);
                    let base = t * fusing;
                    for f in 0..fusing {
                        let xv = C::load(shared[f * buffsize + ind as usize]);
                        acc[base + f] = acc[base + f].fma(xv, len);
                    }
                }
            }
        }
    }

    for t in 0..rows {
        for f in 0..fusing {
            out[t * fusing + f] = acc[t * fusing + f].store();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use xct_exec::Executor;
    use xct_fp16::F16;

    fn random_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> Csr<f32> {
        ragged_csr(rows, cols, |_| per_row, seed)
    }

    /// `per_row(r)` random entries in row `r` (fewer where columns repeat).
    fn ragged_csr(
        rows: usize,
        cols: usize,
        per_row: impl Fn(usize) -> usize,
        seed: u64,
    ) -> Csr<f32> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut triplets = Vec::new();
        for r in 0..rows {
            for _ in 0..per_row(r) {
                let c = next() % cols;
                let v = (next() % 2000) as f32 / 1000.0 - 1.0;
                triplets.push((r as u32, c as u32, v));
            }
        }
        Csr::from_triplets(rows, cols, triplets.into_iter())
    }

    fn random_x(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn buffered_matches_csr_exactly_in_f32() {
        for seed in 0..5u64 {
            let csr = random_csr(150, 90, 6, seed);
            let fusing = 4;
            let packed = PackedMatrix::pack(&csr, 64, 2048, fusing);
            let x = random_x(90 * fusing, seed + 100);
            let mut y_ref = vec![0.0f32; 150 * fusing];
            csr.spmm::<f32>(&x, &mut y_ref, fusing);
            let mut y = vec![0.0f32; 150 * fusing];
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
            for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
                // Same FMAs in a possibly different order within a row:
                // CSR iterates columns ascending; packed iterates stages
                // ascending (also column-ascending) — identical order, so
                // results are bit-equal.
                assert_eq!(a.to_bits(), b.to_bits(), "element {i} differs");
            }
        }
    }

    /// Exact bit patterns of a storage vector (the widening to f64 is
    /// injective for every storage type).
    fn bits<S: StorageScalar>(v: &[S]) -> Vec<u64> {
        v.iter().map(|s| s.to_f64().to_bits()).collect()
    }

    /// `spmm_with` serially and under three worker threads against the
    /// serial reference launch.
    fn assert_matches_serial_reference<S, C>(packed: &PackedMatrix<S>, x: &[S], what: &str)
    where
        S: StorageScalar + WorkspaceScalar,
        C: ComputeScalar + WorkspaceScalar,
    {
        let mut y_ref = vec![S::zero(); packed.num_rows() * packed.fusing()];
        spmm_reference_with::<S, C>(packed, x, &mut y_ref, &mut ExecContext::serial());
        for executor in [Executor::Serial, Executor::threads(3)] {
            let mut ctx = ExecContext::with_executor(executor);
            let mut y = vec![S::zero(); y_ref.len()];
            spmm_with::<S, C>(packed, x, &mut y, &mut ctx);
            assert_eq!(bits(&y), bits(&y_ref), "{what}, {executor:?}");
        }
    }

    /// Bit-identity of the production launch — the f32x8 body where the
    /// CPU has it, the reference body fanned out over the executor
    /// everywhere else (always for f64 and f16 compute) — against the
    /// serial reference, in every precision mode, serially and on three
    /// threads, over
    ///
    /// * fusing ∈ {1, 3, 4, 8, 12, 13, 16, 19}: the f32x8 body's single
    ///   planes, 4-wide plane and 8-wide plane(s), each alone and in
    ///   every combination (13 = 8 + 4 + 1, 19 = 8 + 8 + 3);
    /// * a last block owning 33, 34, 35, 37 or 63 rows (block 64, rows =
    ///   64 + k), which leaves its last live lane group with 1, 2 and 3
    ///   live lanes — dead lanes are walked with the group, on padding —
    ///   and 150 rows, whose 22-row tail block has ten groups with no
    ///   row at all;
    /// * rows of 0–8 nonzeros, so sorted neighbours still differ and the
    ///   groups of one stage have unequal round counts (asserted);
    /// * every block's columns in one stage, and cut into 16-slot stages.
    ///
    /// Neither body reorders any single accumulator's FMA chain, and the
    /// scatter into `y` is sequential, so every cell is bit-identical.
    #[test]
    fn production_kernel_matches_serial_reference_bitwise_in_every_mode() {
        for rows in [97usize, 98, 99, 101, 127, 150] {
            for fusing in [1usize, 3, 4, 8, 12, 13, 16, 19] {
                let seed = (rows * 31 + fusing) as u64;
                let csr32 = ragged_csr(rows, 90, |r| (r * 7 + fusing) % 9, seed);
                let csr64 = csr32.map_values(f64::from);
                let csr16 = csr32.map_values(F16::from_f32);
                let xf = random_x(90 * fusing, fusing as u64 + 41);
                let x64: Vec<f64> = xf.iter().map(|&v| f64::from(v)).collect();
                let x16: Vec<F16> = xf.iter().map(|&v| F16::from_f32(v)).collect();
                for slots in [16usize, 128] {
                    let case =
                        |mode: &str| format!("{mode}, rows {rows}, fusing {fusing}, slots {slots}");
                    let packed = PackedMatrix::pack(&csr32, 64, slots * fusing * 4, fusing);
                    assert_eq!(packed.stages_per_block() > 1.0, slots == 16);
                    let last = packed.blocks().last().expect("blocks");
                    assert_eq!(last.rows.len(), (rows - 1) % 64 + 1);
                    let rounds: Vec<usize> = last.stages[0].groups().map(<[_]>::len).collect();
                    let live = &rounds[..last.rows.len().div_ceil(LANE_GROUP)];
                    assert!(
                        live.iter().any(|&n| n != live[0]),
                        "unequal rounds: {live:?}"
                    );
                    assert_matches_serial_reference::<f32, f32>(&packed, &xf, &case("single"));
                    let packed = PackedMatrix::pack(&csr64, 64, slots * fusing * 8, fusing);
                    assert_matches_serial_reference::<f64, f64>(&packed, &x64, &case("double"));
                    let packed = PackedMatrix::pack(&csr16, 64, slots * fusing * 2, fusing);
                    assert_matches_serial_reference::<F16, f32>(&packed, &x16, &case("mixed"));
                    assert_matches_serial_reference::<F16, F16>(&packed, &x16, &case("half"));
                }
            }
        }
    }

    /// A first block whose rows don't fill it (1 row: one live lane in
    /// one live group; 31, 33, 63: a three-lane last group) — the dead
    /// lanes of the last live group run on padding alone.
    #[test]
    fn ragged_warp_interior_matches_reference() {
        for rows in [1usize, 31, 33, 63] {
            let csr = random_csr(rows, 40, 5, rows as u64);
            let packed = PackedMatrix::pack(&csr, 64, 256, 3);
            let x = random_x(40 * 3, 9);
            assert_matches_serial_reference::<f32, f32>(&packed, &x, &format!("rows={rows}"));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_feature_reports_runtime_dispatch() {
        // Availability is exactly the runtime CPU answer; the bitwise
        // tests above then exercise the unsafe path whenever it is live.
        use crate::simd::eligible;
        assert_eq!(eligible::<f32>(), simd_available());
        assert!(!eligible::<f64>(), "f64 never takes the f32x8 path");
        assert!(!eligible::<F16>(), "half never takes the f32x8 path");
    }

    /// Workers claim blocks in runs of [`CLAIM`]: on 13 blocks (two runs,
    /// the second ragged) every thread count — one worker draining the
    /// queue, more workers than runs — gives the serial reference's bits,
    /// at each register chunking of the fusing axis and in both storage
    /// widths the f32x8 body reads.
    #[test]
    fn claimed_blocks_match_the_reference_on_every_thread_count() {
        for fusing in [1usize, 3, 4, 8, 16] {
            let csr32 = ragged_csr(400, 150, |r| (r * 5 + fusing) % 11, fusing as u64);
            let csr16 = csr32.map_values(F16::from_f32);
            let xf = random_x(150 * fusing, fusing as u64 + 7);
            let x16: Vec<F16> = xf.iter().map(|&v| F16::from_f32(v)).collect();
            let single = PackedMatrix::pack(&csr32, 32, 1 << 16, fusing);
            let half = PackedMatrix::pack(&csr16, 32, 1 << 15, fusing);
            assert_eq!(single.blocks().len() % CLAIM, 5);
            let mut want32 = vec![0.0f32; 400 * fusing];
            spmm_reference_with::<f32, f32>(&single, &xf, &mut want32, &mut ExecContext::serial());
            let mut want16 = vec![F16::ZERO; 400 * fusing];
            spmm_reference_with::<F16, f32>(&half, &x16, &mut want16, &mut ExecContext::serial());
            for threads in [1, 2, 3, 7] {
                let mut ctx = ExecContext::with_executor(Executor::threads(threads));
                let mut y32 = vec![0.0f32; 400 * fusing];
                spmm_with::<f32, f32>(&single, &xf, &mut y32, &mut ctx);
                assert_eq!(bits(&y32), bits(&want32), "f32, fusing {fusing}, {threads}");
                let mut y16 = vec![F16::ZERO; 400 * fusing];
                spmm_with::<F16, f32>(&half, &x16, &mut y16, &mut ctx);
                assert_eq!(bits(&y16), bits(&want16), "F16, fusing {fusing}, {threads}");
            }
        }
    }

    /// A stage whose map is cut after packing stages fewer slots than its
    /// rounds index: the f32x8 body refuses it before walking a round,
    /// instead of reading past the plane. (Only that body walks
    /// unchecked, so this needs a CPU it runs on.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "stage packed for")]
    fn a_map_cut_after_packing_trips_the_stage_bound() {
        let csr = random_csr(64, 40, 6, 3);
        let mut packed = PackedMatrix::pack(&csr, 64, 1 << 12, 8);
        let map = &mut packed.blocks_mut()[0].stages[0].map;
        assert!(map.len() > 2);
        map.truncate(map.len() / 2);
        let x = random_x(40 * 8, 5);
        let mut y = vec![0.0f32; 64 * 8];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let csr = random_csr(200, 120, 8, 11);
        let packed = PackedMatrix::pack(&csr, 32, 1024, 3);
        let x = random_x(120 * 3, 5);
        let mut y_par = vec![0.0f32; 200 * 3];
        let mut y_ser = vec![0.0f32; 200 * 3];
        let mut ctx = ExecContext::with_executor(Executor::threads(2));
        spmm_with::<f32, f32>(&packed, &x, &mut y_par, &mut ctx);
        spmm_with::<f32, f32>(&packed, &x, &mut y_ser, &mut ExecContext::serial());
        assert_eq!(
            y_par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_ser.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_thread_count_agrees_bitwise() {
        let csr = random_csr(310, 140, 7, 23);
        let packed = PackedMatrix::pack(&csr, 32, 1024, 2);
        let x = random_x(140 * 2, 41);
        let mut y_ref = vec![0.0f32; 310 * 2];
        spmm_with::<f32, f32>(&packed, &x, &mut y_ref, &mut ExecContext::serial());
        for threads in [2, 3, 5, 64] {
            let mut ctx = ExecContext::with_executor(Executor::threads(threads));
            let mut y = vec![0.0f32; 310 * 2];
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn workspace_reuse_is_allocation_free_and_exact() {
        let csr = random_csr(100, 60, 5, 3);
        let packed = PackedMatrix::pack(&csr, 32, 512, 2);
        let x = random_x(60 * 2, 7);
        let mut ctx = ExecContext::serial();
        let mut y_first = vec![0.0f32; 100 * 2];
        spmm_with::<f32, f32>(&packed, &x, &mut y_first, &mut ctx);
        let warm = ctx.workspace.alloc_events();
        assert!(warm > 0);
        for _ in 0..4 {
            let mut y = vec![0.0f32; 100 * 2];
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_first.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            ctx.workspace.alloc_events(),
            warm,
            "steady-state launches must reuse the warm workspace"
        );
        assert_eq!(ctx.counters.kernel_launches, 5);
    }

    /// The staging buffer recycles like every other workspace lane when
    /// both block bodies (compute-precision staging for the f32x8 body,
    /// storage-precision for the reference) run in one context.
    #[test]
    fn both_bodies_scratch_is_allocation_free_when_warm() {
        let csr = random_csr(128, 70, 6, 5);
        let packed = PackedMatrix::pack(&csr, 64, 1024, 4);
        let x = random_x(70 * 4, 13);
        let mut ctx = ExecContext::serial();
        let mut y = vec![0.0f32; 128 * 4];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        let warm = ctx.workspace.alloc_events();
        for _ in 0..3 {
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
            spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        }
        assert_eq!(
            ctx.workspace.alloc_events(),
            warm,
            "production + reference scratch must recycle without new allocations"
        );
    }

    #[test]
    fn context_counters_match_kernel_metrics() {
        let csr = random_csr(80, 50, 6, 13);
        let packed = PackedMatrix::pack(&csr, 32, 1024, 3);
        let x = random_x(50 * 3, 17);
        let mut ctx = ExecContext::serial();
        let mut y = vec![0.0f32; 80 * 3];
        let m1 = spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        let m2 = spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        assert_eq!(ctx.counters.flops, m1.flops + m2.flops);
        assert_eq!(ctx.counters.padded_flops, m1.padded_flops + m2.padded_flops);
        assert!(ctx.counters.padded_flops >= ctx.counters.flops);
        assert_eq!(ctx.counters.bytes_read, m1.bytes_read + m2.bytes_read);
        assert_eq!(
            ctx.counters.bytes_written,
            m1.bytes_written + m2.bytes_written
        );
    }

    #[test]
    fn mixed_precision_tracks_f32_within_quantization() {
        let csr32 = random_csr(100, 80, 5, 3);
        let t: Vec<_> = csr32.triplets().collect();
        let csr16 = Csr::<F16>::from_triplets(100, 80, t.into_iter());
        let fusing = 2;
        let packed = PackedMatrix::pack(&csr16, 32, 4096, fusing);
        let xf = random_x(80 * fusing, 9);
        let x16: Vec<F16> = xf.iter().map(|&v| F16::from_f32(v)).collect();
        let mut y16 = vec![F16::ZERO; 100 * fusing];
        spmm_with::<F16, f32>(&packed, &x16, &mut y16, &mut ExecContext::serial());
        let mut y_ref = vec![0.0f32; 100 * fusing];
        csr32.spmm::<f32>(&xf, &mut y_ref, fusing);
        for (h, r) in y16.iter().zip(&y_ref) {
            // ~5 nonzeros/row of O(1) values: error budget a few half ulps.
            assert!(
                (h.to_f32() - r).abs() <= 0.02 * r.abs().max(1.0),
                "half {} vs ref {r}",
                h.to_f32()
            );
        }
    }

    #[test]
    fn double_precision_path() {
        let csr32 = random_csr(60, 40, 4, 17);
        let t: Vec<_> = csr32.triplets().collect();
        let csr64 = Csr::<f64>::from_triplets(60, 40, t.into_iter());
        let packed = PackedMatrix::pack(&csr64, 32, 8192, 1);
        let xf = random_x(40, 21);
        let x64: Vec<f64> = xf.iter().map(|&v| f64::from(v)).collect();
        let mut y64 = vec![0.0f64; 60];
        spmm_with::<f64, f64>(&packed, &x64, &mut y64, &mut ExecContext::serial());
        let mut y_ref = vec![0.0f32; 60];
        csr32.spmv::<f64>(&xf, &mut y_ref);
        for (a, b) in y64.iter().zip(&y_ref) {
            assert!((*a as f32 - b).abs() <= 1e-5 * b.abs().max(1.0));
        }
    }

    #[test]
    fn pure_half_is_less_accurate_than_mixed() {
        // Accumulating 64 equal terms of 0.01: half accumulation loses
        // precision, mixed does not.
        let triplets: Vec<(u32, u32, f32)> = (0..64).map(|c| (0u32, c as u32, 0.01f32)).collect();
        let csr = Csr::<F16>::from_triplets(1, 64, triplets.into_iter());
        let packed = PackedMatrix::pack(&csr, 32, 4096, 1);
        let x = vec![F16::ONE; 64];
        let mut y_half = vec![F16::ZERO; 1];
        spmm_with::<F16, F16>(&packed, &x, &mut y_half, &mut ExecContext::serial());
        let mut y_mixed = vec![F16::ZERO; 1];
        spmm_with::<F16, f32>(&packed, &x, &mut y_mixed, &mut ExecContext::serial());
        let exact = 0.64f32;
        let err_half = (y_half[0].to_f32() - exact).abs();
        let err_mixed = (y_mixed[0].to_f32() - exact).abs();
        assert!(
            err_mixed <= err_half,
            "mixed {err_mixed} should beat half {err_half}"
        );
    }

    #[test]
    fn multi_stage_equals_single_stage() {
        let csr = random_csr(64, 500, 12, 29);
        let x = random_x(500, 31);
        let one_stage = PackedMatrix::pack(&csr, 64, 1 << 20, 1);
        let many_stage = PackedMatrix::pack(&csr, 64, 256, 1); // 64 slots
        assert!(many_stage.total_stages() > one_stage.total_stages());
        let mut y1 = vec![0.0f32; 64];
        let mut y2 = vec![0.0f32; 64];
        spmm_with::<f32, f32>(&one_stage, &x, &mut y1, &mut ExecContext::serial());
        spmm_with::<f32, f32>(&many_stage, &x, &mut y2, &mut ExecContext::serial());
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// However large the shared buffer, a stage maps at most `u16::MAX`
    /// columns: with the zero slot in front, the last one's index is
    /// `u16::MAX` itself. One row over 70 000 columns spills into a
    /// second stage and still sums every column once, in both bodies.
    #[test]
    fn stage_cap_leaves_the_zero_slot_an_index() {
        let cols = 70_000usize;
        let triplets = (0..cols as u32).map(|c| (0u32, c, 1.0f32));
        let csr = Csr::<f32>::from_triplets(3, cols, triplets);
        let packed = PackedMatrix::pack(&csr, 32, 1 << 20, 1);
        assert_eq!(packed.slots_per_stage(), u16::MAX as usize);
        let maps: Vec<usize> = packed.blocks()[0]
            .stages
            .iter()
            .map(|s| s.map.len())
            .collect();
        assert_eq!(maps, [u16::MAX as usize, cols - u16::MAX as usize]);
        let last = packed.blocks()[0].stages[0].groups().next().expect("group");
        assert_eq!(last.last().expect("round").ind[0], u16::MAX);
        let x: Vec<f32> = (0..cols).map(|c| (c % 7) as f32).collect();
        let mut y_ref = vec![0.0f32; 3];
        csr.spmv::<f32>(&x, &mut y_ref);
        let mut y = vec![9.0f32; 3];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        assert_eq!(y, y_ref);
        spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        assert_eq!(y, y_ref);
    }

    #[test]
    fn empty_matrix_writes_zeros() {
        let csr = Csr::<f32>::from_triplets(40, 10, std::iter::empty());
        let packed = PackedMatrix::pack(&csr, 32, 1024, 2);
        let x = vec![1.0f32; 20];
        let mut y = vec![9.0f32; 80];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_x_length_panics() {
        let csr = random_csr(10, 10, 2, 1);
        let packed = PackedMatrix::pack(&csr, 32, 1024, 2);
        let mut y = vec![0.0f32; 20];
        spmm_with::<f32, f32>(&packed, &[0.0; 10], &mut y, &mut ExecContext::serial());
    }
}
