//! xct-verify — static communication-plan verification and deterministic
//! schedule exploration for the xct-comm runtime.
//!
//! The comm stack lowers a sparse-matrix footprint into hierarchical
//! exchange plans (DESIGN.md §3) and executes them over an in-process
//! message runtime. Every bug class it has historically produced —
//! misrouted partials, cross-matched tags, peers that never answer,
//! aliased scratch writes — is a *plan or protocol* property, checkable
//! without running the solver. This crate makes those checks explicit,
//! in two layers:
//!
//! * **Static verification** ([`plan_check`], [`compiled_check`],
//!   [`tags`], [`deadlock`], [`mod@plan_fits`]) proves, per rank and level:
//!   *conservation*
//!   (every footprint element reaches its owner exactly once — keeps
//!   plus receives partition the owned set), *tag disjointness* (no two
//!   concurrently in-flight exchanges emit matchable messages on the
//!   same `(src, dst, tag)`, including every fused slice's salted
//!   exchange and the hierarchical allreduce's up / round / reply legs),
//!   *deadlock freedom* (the send/recv match graph under the runtime's
//!   per-key FIFO rules admits a topological order), *scratch
//!   non-aliasing* (no position written twice within a level), and
//!   *plan fitness* (an `xct_plan::ReconPlan`'s peak footprint fits its
//!   byte budget, its slabs cover the stack exactly once, and its
//!   fusing factor keeps slice tag salts out of the reply namespace).
//!   Violations are structured [`Violation`]s with witnesses, never
//!   booleans.
//! * **Abstract interpretation** ([`absint`], [`lifetime`]) interprets
//!   the compiled index programs over abstract domains instead of
//!   executing them: interval bounds proofs for every Transfer table
//!   access, and scratch lifetime tracking across the post/drain
//!   overlap windows (no read of a slot with pending receives;
//!   DESIGN.md §3i). The lifetime, tag and deadlock passes are folds
//!   over the op lists the executor runs
//!   ([`xct_comm::protocol::Op`]).
//! * **Schedule exploration** ([`mod@explore`]) runs real rank bodies under
//!   seeded chaos schedules (jitter + delay-one-message), making timing
//!   bugs that static analysis cannot see — wrong *progress logic*
//!   rather than wrong plans — reproducible from a seed.
//!
//! The [`corpus`] module reconstructs the three communication bugs fixed
//! in PR 3 as minimal artifacts each layer must reject, plus a seeded
//! case generator for property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Witness positions and row ids are `u32` by the `Ownership` contract;
// enumerate-index casts back into that space are lossless by
// construction and carry local allows where they occur.
#![warn(clippy::cast_possible_truncation)]

pub mod absint;
pub mod compiled_check;
pub mod corpus;
pub mod deadlock;
pub mod diag;
pub mod explore;
pub mod lifetime;
pub mod plan_check;
pub mod plan_fits;
pub mod tags;

pub use absint::verify_bounds;
pub use compiled_check::verify_compiled;
pub use deadlock::{verify_deadlock, CommOp, CommProgram};
pub use diag::{AccessKind, VerifyReport, Violation, ViolationKind, WriteOrigin};
pub use explore::{explore, ExploreReport, SeedOutcome};
pub use lifetime::{scratch_ops, verify_lifetimes, verify_scratch_lifetime, ScratchOp};
pub use plan_check::verify_hierarchical;
pub use plan_fits::plan_fits;
pub use tags::{claims_for_compiled, verify_tags, TagClaim, TagClaimSet};

use xct_comm::{protocol, CompiledPlans, Footprints, HierarchicalPlan, Ownership, Topology};

/// Fused-slice depth the lifetime and deadlock passes run the solve at:
/// deeper than one or two, so under overlap every slice is posted while
/// others are still in flight.
const OVERLAP_CHECK_SLICES: usize = 3;

/// Iterations of the solve the lifetime and deadlock passes prove: two,
/// so the reuse of every tag from one iteration to the next is proved.
const PROVED_ITERATIONS: usize = 2;

/// Every static check against a hierarchical plan and its compilation,
/// for a run on `topo`, merged in this order: the plan's groups fit
/// `topo` (they may be finer, as the flat plan of direct exchange is),
/// the compiled programs' level structure, index bounds and end-to-end
/// conservation ([`verify_compiled`]), scratch lifetimes, tag
/// disjointness, and deadlock freedom — the lifetime and deadlock passes
/// on each rank's solve in the order `overlap` selects
/// ([`protocol::solve`], the op list the executor runs),
/// the tag and deadlock passes with `topo`'s collectives. This is the
/// entry point the distributed pipeline calls in debug builds and under
/// `--verify-plans`.
pub fn verify_all_hierarchical(
    footprints: &Footprints,
    ownership: &Ownership,
    topo: &Topology,
    plan: &HierarchicalPlan,
    compiled: &CompiledPlans,
    overlap: bool,
) -> VerifyReport {
    let mut report = verify_hierarchical(footprints, topo, plan);
    report.merge(verify_compiled(footprints, ownership, compiled));
    let slices = OVERLAP_CHECK_SLICES;
    let ops_of = |p| protocol::solve(compiled.rank(p), slices, overlap, PROVED_ITERATIONS);
    report.merge(verify_lifetimes(compiled, slices, ops_of));
    report.merge(verify_tags(compiled, topo));
    report.merge(verify_deadlock(compiled, topo, ops_of));
    report
}
