//! The XCT-optimized SpMM kernel of Petascale XCT (paper §III-B) and its
//! baselines.
//!
//! The paper's kernel (Listing 1) achieves 34% of V100 peak by combining:
//!
//! 1. **3D input buffering** — each thread block gathers the (irregular)
//!    input voxels its rows touch into shared memory once per *stage*,
//!    then reuses them from fast memory (§III-B1, §III-B4),
//! 2. **Register reuse / fusing** — many per-slice SpMVs are fused into
//!    one SpMM `A·X = B`; each packed matrix element `(index, length)` is
//!    loaded once and reused for all `FFACTOR` slices of the minibatch
//!    (§III-B2, §III-B3),
//! 3. **Data packing** — `(u16 shared-memory index, f16 length)` in four
//!    bytes, streamed once in full cache lines (§III-C2; on the GPU a
//!    32-thread warp reads one 128-byte line),
//! 4. **Mixed precision** — storage in half, FMAs in single (§III-C).
//!
//! This crate reproduces the kernel *structurally* on CPU threads: thread
//! blocks → executor partitions ([`xct_exec::Executor`]), shared memory →
//! a per-block staging buffer with the exact `buffmap` gather
//! indirection, `FFACTOR` → the runtime `fusing` factor. The packed
//! elements are laid out for the executor that walks them: a block's rows
//! sorted by length, stored **lane-group-major** — [`LANE_GROUP`] rows'
//! indices and lengths side by side per round, each group with its own
//! round count, padding aimed at a reserved always-zero slot — so the
//! element stream is read front to back and (almost) only real nonzeros
//! are multiplied; [`WARP_SIZE`] survives as the block-size granularity
//! the paper's figures are reported in (`packed.rs` has the layout and
//! why no row's FMA chain changes). All kernel scratch comes from the
//! [`xct_exec::Workspace`] so steady-state launches are allocation-free,
//! and every data movement the GPU would perform is metered in
//! [`KernelMetrics`] / accumulated in [`xct_exec::ExecCounters`], which
//! is what the roofline analysis (Fig 9b) and machine model consume.
//! [`spmm_with`] is the entry point, launched on the workers of the
//! caller's [`xct_exec::ExecContext`]. One launch skeleton runs
//! one of two bit-identical block bodies, picked per launch with no
//! build-time switch: an AVX2+FMA+F16C f32x8 body when the CPU reports
//! all three and the compute type is f32 ([`simd_available`]), else the scalar
//! transcription of Listing 1, which [`spmm_reference_with`] forces
//! anywhere as the oracle.
//!
//! [`Csr`] provides the unfused, unstaged baseline standing in for
//! `cusparseSpMM` (§IV-C2).

// The workspace-wide rule is `forbid(unsafe_code)`. This crate is the
// sanctioned exception, *only* on x86-64: the f32x8 block body in
// `simd.rs` — always compiled there, chosen at run time — needs
// `core::arch` intrinsics. The forbid stays in force on every other
// arch, and x86-64 builds still deny any unsafe operation not wrapped in
// an explicitly justified block.
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod compute;
mod csr;
mod kernel;
mod metrics;
mod order;
mod packed;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use compute::ComputeScalar;
pub use csr::Csr;
pub use kernel::{simd_available, spmm_reference_with, spmm_with};
pub use metrics::KernelMetrics;
pub use order::Order;
pub use packed::{
    packed_element_bytes, PackedBlock, PackedMatrix, PackedRound, PackedStage, LANE_GROUP,
    WARP_SIZE,
};
