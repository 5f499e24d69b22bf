//! Hierarchical communications of Petascale XCT (paper §III-D) over an
//! in-process message-passing runtime.
//!
//! After a partial (back)projection, every process holds partial sums for
//! sinogram rows it does not own; those partials must be communicated and
//! reduced at the owners. The paper's contribution is to reduce partials
//! *locally first* — among the 3 GPUs of a CPU socket (NVLink), then the 6
//! GPUs of a node (X-bus) — so that only already-reduced data crosses the
//! slow inter-node network, cutting inter-node volume by ~58–64%.
//!
//! * [`Topology`] — rank ↔ (node, socket, gpu) mapping of a fat-node
//!   machine (Summit: 2 sockets × 3 GPUs),
//! * [`Communicator`] / [`run_ranks`] / [`run_ranks_with`] — the MPI
//!   substitute: one thread per rank, tagged point-to-point messages
//!   filed by `(source, tag)` at send, one blocking wait
//!   ([`Communicator::recv`], which [`RecvRequest::wait`] completes
//!   through),
//! * [`AllreduceSteps`] / [`Communicator::allreduce`] — the small-vector
//!   allreduce as a per-rank step list built from the topology (socket →
//!   node → recursive doubling among node leaders → back down),
//! * [`DirectPlan`] / [`HierarchicalPlan`] — communication schedules with
//!   exact per-pair and per-level volume accounting (Figs 6, 11;
//!   Table IV),
//! * [`CompiledPlans`] — the exchange executor: plans compiled to
//!   per-peer index tables and run on real data across ranks, in any
//!   storage precision, allocation-free, with split `begin`/`finish`
//!   global exchanges so communication overlaps computation (§III-E).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tag and index arithmetic throughout this crate narrows integers; every
// such cast must either be lossless by construction (row/position ids
// inhabit u32 per the `Ownership` contract) or carry a local `allow`
// with the bound spelled out.
#![warn(clippy::cast_possible_truncation)]

mod collective;
mod metrics;
mod plan;
pub mod protocol;
mod runtime;
mod topology;
mod wire;

pub use collective::{AllreduceSteps, CollectiveStep, Leg, StepKind};
pub use metrics::{
    ClassScope, CommMeter, CommReport, RankCommStats, TrafficClass, TRAFFIC_CLASSES,
};
pub use plan::{DirectPlan, Footprints, HierarchicalPlan, Ownership, PlanError, ReductionStep};
pub use runtime::{
    run_ranks, run_ranks_with, ChaosMode, ChaosSchedule, CommError, Communicator, RankOptions,
    RecvRequest, WireModel, REPLY_TAG_SALT,
};
pub use topology::Topology;
pub use wire::UNDO_BYTES;

mod compiled;
/// The row-table executor `compiled`'s bit-identity tests compare against.
#[cfg(test)]
mod exec;
pub use compiled::{CompiledPlans, ExchangeScratch, LevelProgram, RankPlan, Transfer};
