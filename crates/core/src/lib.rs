//! PetaXCT core: the paper's 3D reconstruction system assembled from its
//! substrates.
//!
//! * [`partition`] — the batch × data partitioning strategy of §III-A and
//!   the computational-complexity formulas of Table I,
//! * [`decompose`] — Hilbert-ordered slice decomposition: voxel/ray
//!   ownership, per-rank operator restrictions, partial-data footprints,
//! * [`distributed`] — the executable multi-rank pipeline: partial
//!   (back)projections through the optimized kernels, hierarchical (or
//!   direct) communication in `xct_comm::protocol`'s tags and exchange
//!   order (§III-E), distributed CGLS — real arithmetic at mini scale,
//! * [`stream`] — plan-driven execution of an `xct_plan::ReconPlan`:
//!   slabs page through `xct-io` on background threads while resident
//!   slabs compute, bit-identical to the fully resident path,
//! * [`model`] — the paper-scale estimator: Table I complexity + measured
//!   kernel/communication shapes mapped through the machine model, for
//!   the Summit-sized experiments (Tables III–IV, Figs 10–12),
//! * [`drift`] — what a run document's profile needs beyond the log:
//!   per-tile costs derived from the operator's nonzero distribution
//!   (written) and the model's predicted shares the drift table scores
//!   the measured run against (read),
//! * [`Reconstructor`] — the single-call public API used by the examples,
//!   a 1×1×1 [`distributed::DistributedSetup`] whose `run` is where every
//!   entry point chooses its solver.
//!
//! # Execution contexts
//!
//! Every hot path in this crate runs through an [`xct_exec::ExecContext`]:
//! the entry points construct one context per logical run —
//! [`Reconstructor::reconstruct`] a threaded one shared by all iterations,
//! [`distributed::reconstruct_distributed`] a serial one per rank — and
//! hand it to the `*_in` solver variants, so per-apply staging (quantized
//! operands, kernel accumulators, CG vectors, distributed footprints) is
//! reused from the context's workspace instead of reallocated. The
//! migration rule for new code: take scratch from `ctx.workspace` keyed by
//! a `BufferRole`, never `vec![...]` inside an apply or an iteration loop.
//! See DESIGN.md §3a; `tests/alloc_free.rs` enforces the discipline with a
//! counting allocator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod distributed;
pub mod drift;
pub mod model;
pub mod partition;
mod recon;
pub mod stream;
pub mod volume;

pub use drift::{model_shares, profile_view, rebalance_preview, tile_costs, tile_nnz};
pub use partition::{Partitioning, TableIComplexity};
pub use recon::{Algorithm, ReconOptions, Reconstructor};
pub use stream::{reconstruct_planned, PlannedError, PlannedOutcome, PlannedStats};
pub use volume::{stream_slabs, PipelineError, SlabTotals, StreamOutcome};
