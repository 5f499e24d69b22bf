//! Known-bad corpus and random case generation.
//!
//! The corpus reconstructs each communication bug fixed in PR 3 as a
//! minimal artifact the verifier must reject (or the explorer must
//! catch), so the checks are pinned to real historical failures rather
//! than synthetic strawmen:
//!
//! 1. **Barrier peer mispairing** — the dissemination barrier's receive
//!    peer was computed as `rank + n - (dist % n)` (missing the outer
//!    `% n`), waiting on ranks outside the world.
//!    [`barrier_program`]`(.., buggy = true)` rebuilds that skeleton;
//!    the deadlock checker flags every receive as
//!    `UnmatchedRecv`.
//! 2. **Allreduce reply-tag aliasing** — the collective's reply leg
//!    used `tag + 1`, which a neighboring application exchange also
//!    claimed; the reply drained the app's payload.
//!    [`buggy_allreduce_claims`] rebuilds the claim set; the tag checker
//!    reports the `TagCollision`. [`aliased_reply_exchange`] is the
//!    runnable version for the explorer, which fails its oracle even at
//!    baseline.
//! 3. **Unsorted partial-data indices** — merge tables with
//!    non-ascending row indices silently mis-accumulated.
//!    `Transfer::try_new` (promoted to release builds in this PR)
//!    rejects them; [`unsorted_transfer`] exercises it.
//!
//! 4. **Folded-in leader never folded out** — the hierarchical
//!    allreduce on a non-power-of-two node count folds the excess node
//!    leaders into the butterfly and must send them the result back.
//!    [`unfolded_collective`] drops that fold-out send from node leader
//!    0's step list; the deadlock checker reports the excess leader's
//!    `RecvAssign` as `UnmatchedRecv` (on a real run that node would
//!    block until the receive timeout).
//!
//! Beyond the reconstructions, the corpus holds corruptions of valid
//! compiled programs (the `*_compiled` artifacts: routing, bounds and
//! structure), mutations of the op lists the executor runs
//! ([`per_slice_local_level`], [`stale_maxima_collective`],
//! [`round_before_global_drains`]) and of their scratch fold
//! ([`read_before_finish_schedule`]), a plan over its own byte budget
//! ([`over_budget_plan`]), and [`single_sweep_gather`], a *timing* bug —
//! a gather whose root polls each source once without retrying — that
//! passes every static check and the baseline schedule and is caught
//! only by chaos schedules (why the explorer layer exists).
//!
//! [`MUST_REJECT`] is the one list of every static artifact above with
//! the pass that must reject it and the witness it must give; the
//! drivers (`tests/plan_verify.rs`, `petaxct analyze --self-test`, the
//! `verify_corpus` CI binary) loop over it and keep no expectations of
//! their own. The two runnable artifacts need the explorer and an
//! oracle, which a table row cannot hold; `verify_corpus` drives them.
//!
//! [`gen_case`] derives random-but-deterministic topology/footprint/
//! ownership cases from a seed for property tests and the CI corpus
//! sweep.

// Witness positions/offsets are indices into u32-sized buffers; casting
// the enumerate index back to `u32` is lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::deadlock::{CommOp, CommProgram};
use crate::diag::{AccessKind, VerifyReport, Violation, ViolationKind};
use crate::lifetime::{scratch_ops, verify_scratch_lifetime, ScratchOp};
use crate::tags::TagClaimSet;
use xct_comm::protocol::{self, Apply, Collective, ExchangeLevel, Op};
use xct_comm::{
    AllreduceSteps, Communicator, CompiledPlans, Footprints, Leg, LevelProgram, Ownership,
    RankPlan, StepKind, Topology, Transfer, REPLY_TAG_SALT,
};

/// The dissemination-barrier skeleton on `n` ranks at `tag`. With
/// `buggy`, the receive peer uses PR 3's mis-parenthesized formula
/// (missing the outer `% n`), so most receives wait on out-of-range
/// ranks.
pub fn barrier_program(n: usize, tag: u64, buggy: bool) -> CommProgram {
    let mut ops: Vec<Vec<CommOp>> = vec![Vec::new(); n];
    let mut dist = 1usize;
    while dist < n {
        let round_tag = tag ^ ((dist as u64) << 32);
        for (rank, ops) in ops.iter_mut().enumerate() {
            let to = (rank + dist) % n;
            let from = if buggy {
                // PR 3's bug: `(rank + n - dist % n) % n` lost its outer
                // modulus in a refactor, leaving `rank + n - (dist % n)`.
                rank + n - (dist % n)
            } else {
                (rank + n - dist) % n
            };
            ops.push(CommOp::Send { to, tag: round_tag });
            ops.push(CommOp::Recv {
                from,
                tag: round_tag,
            });
        }
        dist *= 2;
    }
    CommProgram { ops }
}

/// The hierarchical allreduce on 3 nodes × 1 × 2 with the fold-out hop
/// removed: node leader 0 absorbs leader 2's contribution (fold-in) but
/// never sends the result back, so rank 4's down-leg receive has no
/// matching send. Returns the per-rank step lists and the starved rank.
pub fn unfolded_collective() -> (Vec<AllreduceSteps>, usize) {
    let topo = Topology::new(3, 1, 2);
    let mut steps = AllreduceSteps::build_all(&topo);
    let excess_leader = 2 * topo.gpus_per_node();
    let kept = steps[0]
        .steps()
        .iter()
        .copied()
        .filter(|s| !(s.kind == StepKind::Send && s.leg == Leg::Down && s.peer == excess_leader))
        .collect();
    steps[0] = AllreduceSteps::from_steps(kept);
    (steps, excess_leader)
}

/// The claim set of PR 3's buggy allreduce on `n` ranks: the reply leg
/// reuses the application namespace at `tag + 1`, where a neighboring
/// exchange legitimately claims its own traffic. `TagClaimSet::check`
/// must report the collision.
pub fn buggy_allreduce_claims(n: usize, tag: u64) -> TagClaimSet {
    let mut set = TagClaimSet::new();
    for r in 1..n {
        set.claim(r, 0, tag, "allreduce gather");
        // The bug: replies went out at `tag + 1` instead of a reserved
        // namespace.
        set.claim(0, r, tag + 1, "allreduce reply");
    }
    // A neighboring exchange that (correctly, per the old convention)
    // claims the adjacent tag for its own root-to-rank traffic.
    for r in 1..n {
        set.claim(0, r, tag + 1, "next exchange");
    }
    set
}

/// Runnable version of the reply-tag bug, shaped like the real failure:
/// rank 0 gathers at `tag`, replies at `reply_tag`, then broadcasts a
/// "next exchange" sentinel at `tag + 1`; non-root ranks service the
/// next exchange *first* (in real code it is a different subsystem that
/// polls ahead of the solver), then collect the reply. With
/// `reply_tag == tag + 1` — PR 3's bug — both messages share one
/// `(src, tag)` FIFO key, so the receiver's first matching recv drains
/// the reply and the second gets the sentinel: values swap, and the
/// oracle fails deterministically at baseline. With a disjoint
/// `reply_tag` the same reordering is harmless. Returns
/// `(reduced, sentinel)` per rank — the oracle expects
/// `(Σ(r+1), -1.0)`.
pub fn aliased_reply_exchange(comm: &Communicator, tag: u64, reply_tag: u64) -> (f64, f64) {
    let me = comm.rank();
    let n = comm.size();
    let value = (me + 1) as f64;
    if me == 0 {
        let mut acc = value;
        for src in 1..n {
            // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
            let v: Vec<f64> = comm.recv_vals(src, tag).expect("gather");
            acc += v[0];
        }
        for dst in 1..n {
            // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
            comm.send_vals(dst, reply_tag, &[acc]).expect("reply");
        }
        for dst in 1..n {
            // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
            comm.send_vals(dst, tag + 1, &[-1.0f64]).expect("bcast");
        }
        (acc, -1.0)
    } else {
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        comm.send_vals(0, tag, &[value]).expect("contribute");
        // The "next exchange" subsystem polls before the solver resumes.
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        let s: Vec<f64> = comm.recv_vals(0, tag + 1).expect("next exchange");
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        let v: Vec<f64> = comm.recv_vals(0, reply_tag).expect("reply");
        (v[0], s[0])
    }
}

/// PR 3's unsorted-merge-table bug as a `Transfer` construction:
/// non-ascending indices must be rejected with the offending position.
pub fn unsorted_transfer() -> Result<xct_comm::Transfer, xct_comm::PlanError> {
    xct_comm::Transfer::try_new(1, vec![3, 3])
}

/// A reconstruction plan whose claimed budget is one byte below its
/// true peak per-rank footprint — the shape of a hand-edited or stale
/// plan file that would overrun (simulated) device memory if executed.
/// `plan_fits` must report `PlanOverBudget` with the exact byte gap.
pub fn over_budget_plan() -> xct_plan::ReconPlan {
    let planner = xct_plan::Planner::default();
    let dims = xct_plan::VolumeDims { n: 16, slices: 6 };
    let topo = Topology::new(1, 2, 2);
    let mut plan = planner
        .plan(dims, 16, None, topo)
        // xct-allow(no-panic): fixture constructs known-valid plan inputs
        .expect("valid plan inputs");
    plan.budget_bytes = Some(plan.per_rank_bytes() - 1);
    plan
}

/// A gather whose root sweeps its sources with `try_recv` exactly once
/// instead of blocking: under the baseline schedule every message has
/// landed by the time the root polls (it waits for each source's "ready"
/// note first), so the sum is correct; under a
/// chaos schedule a delayed message is silently dropped from the sum.
/// Static checks cannot see this (the plan is fine — the *progress
/// logic* is wrong), which is what the explorer layer is for.
pub fn single_sweep_gather(comm: &Communicator, tag: u64) -> f64 {
    let me = comm.rank();
    let n = comm.size();
    let value = (me + 1) as f64;
    if me == 0 {
        // Sources post their contribution, then a "ready" note: once the
        // notes are in, every contribution has been sent, however late a
        // thread started. The grace covers a baseline or jitter hold-back
        // (under 2 ms), not a chaos-delayed message (25 ms).
        for src in 1..n {
            // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
            comm.recv(src, tag ^ 0x20).expect("ready note");
        }
        std::thread::sleep(std::time::Duration::from_millis(3));
        let mut acc = value;
        for src in 1..n {
            if let Ok(Some(bytes)) = comm.try_recv(src, tag) {
                let vals = f64_slice(&bytes);
                acc += vals[0];
            }
        }
        for dst in 1..n {
            // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
            comm.send_vals(dst, tag ^ 0x10, &[acc]).expect("bcast");
        }
        acc
    } else {
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        comm.send_vals(0, tag, &[value]).expect("contribute");
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        comm.send(0, tag ^ 0x20, Vec::new()).expect("ready note");
        // xct-allow(no-panic): corpus fixture harness; an infra failure must abort the reproduction
        let v: Vec<f64> = comm.recv_vals(0, tag ^ 0x10).expect("result");
        v[0]
    }
}

fn f64_slice(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        // xct-allow(no-panic): infallible — chunks_exact(8) yields exactly 8 bytes
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// SplitMix64 — the corpus generator's only randomness source, so every
/// case is a pure function of its seed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One deterministic random verification case.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The machine shape (nodes × sockets × GPUs).
    pub topology: Topology,
    /// Per-rank row footprints.
    pub footprints: Footprints,
    /// Row → owner map.
    pub ownership: Ownership,
}

/// Derives a random case from `seed`: a topology of 1–3 nodes × 1–2
/// sockets × 1–2 GPUs, a row space of a few rows per rank, round-robin-
/// ish ownership, and per-rank footprints that always include the rank's
/// owned rows plus a random selection of foreign ones (mirroring how a
/// projector footprint always covers the rank's own slab).
pub fn gen_case(seed: u64) -> GenCase {
    let mut next = draws(seed);
    let nodes = 1 + (next() % 3) as usize;
    let sockets = 1 + (next() % 2) as usize;
    let gpus = 1 + (next() % 2) as usize;
    case_on(Topology::new(nodes, sockets, gpus), next)
}

/// [`gen_case`]'s footprints and ownership on a machine shape the
/// caller picks.
pub fn gen_case_on(topology: Topology, seed: u64) -> GenCase {
    case_on(topology, draws(seed))
}

/// The generator's draw sequence for `seed`.
fn draws(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = mix64(state.wrapping_add(0xA5A5_A5A5));
        state
    }
}

fn case_on(topology: Topology, mut next: impl FnMut() -> u64) -> GenCase {
    let n = topology.size();
    let rows_per_rank = 2 + (next() % 5) as usize;
    let num_rows = n * rows_per_rank;
    // Contiguous slabs, with slab boundaries perturbed by ±1 where legal.
    let owner: Vec<u32> = (0..num_rows)
        .map(|r| ((r / rows_per_rank) as u32).min(n as u32 - 1))
        .collect();
    let ownership = Ownership::new(owner.clone(), n);
    let per_rank: Vec<Vec<u32>> = (0..n)
        .map(|p| {
            let mut fp: Vec<u32> = Vec::new();
            for r in 0..num_rows as u32 {
                let owned = owner[r as usize] as usize == p;
                // Owned rows are always in the footprint; foreign rows
                // join with seed-dependent probability ~1/2.
                if owned || next().is_multiple_of(2) {
                    fp.push(r);
                }
            }
            fp
        })
        .collect();
    GenCase {
        topology,
        footprints: Footprints::new(per_rank),
        ownership,
    }
}

// ---- Mutated compiled index programs (PR 9: abstract interpretation) --

/// A compiled must-reject artifact: the footprints, ownership and
/// machine its programs were compiled for, and the (mutated) programs.
pub type CompiledArtifact = (Footprints, Ownership, Topology, CompiledPlans);

/// The corpus's small geometry compiled on `topo` (two ranks): rank 0
/// holds rows 0–2 and owns 0–1, rank 1 holds rows 1–3 and owns 2–3, so
/// one foreign row crosses each way.
fn small_compiled_on(topo: Topology) -> CompiledArtifact {
    let fp = Footprints::new(vec![vec![0, 1, 2], vec![1, 2, 3]]);
    let own = Ownership::new(vec![0, 0, 1, 1], 2);
    let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
    (fp, own, topo, compiled)
}

/// A small compiled direct fixture whose index programs the mutations
/// below corrupt, compiled as the flat plan (one GPU per node) — the
/// global level alone. Rank 0 sends row 2 (footprint position 2) to
/// rank 1, which lands it at owned position 0; rank 1 sends row 1
/// (position 0) to rank 0, which lands it at owned position 1.
pub fn small_compiled_fixture() -> CompiledArtifact {
    small_compiled_on(Topology::new(2, 1, 1))
}

/// The mutable parts of one rank's compiled program.
struct RankParts {
    in_len: usize,
    owned_len: usize,
    forward: Vec<LevelProgram>,
    transpose: Vec<LevelProgram>,
}

impl RankParts {
    /// The forward global level: the last of the forward list.
    fn global(&mut self) -> &mut LevelProgram {
        let last = self.forward.len() - 1;
        &mut self.forward[last]
    }
}

/// `artifact` with rank `rank`'s program passed through `mutate`.
fn mutate_rank(
    (fp, own, topo, plans): CompiledArtifact,
    rank: usize,
    mutate: impl FnOnce(&mut RankParts),
) -> CompiledArtifact {
    let mut mutate = Some(mutate);
    let rebuilt = (0..plans.num_ranks())
        .map(|p| {
            let rp = plans.rank(p);
            let mut parts = RankParts {
                in_len: rp.in_len(),
                owned_len: rp.owned_len(),
                forward: rp.forward().to_vec(),
                transpose: rp.transpose().to_vec(),
            };
            if p == rank {
                // xct-allow(no-panic): corpus helper — the rank index is visited exactly once
                (mutate.take().expect("one mutation"))(&mut parts);
            }
            RankPlan::from_parts(
                parts.in_len,
                parts.owned_len,
                parts.forward,
                parts.transpose,
            )
        })
        .collect();
    (fp, own, topo, CompiledPlans::from_ranks(rebuilt))
}

/// The tables of one level program: output length, sends, keeps, recvs.
type LevelTables = (usize, Vec<Transfer>, Vec<(u32, u32)>, Vec<Transfer>);

/// Rewrites `level`'s tables through `edit`, keeping its identity.
fn edit_level(level: &mut LevelProgram, edit: impl FnOnce(&mut LevelTables)) {
    let mut t = (
        level.out_len(),
        level.sends().to_vec(),
        level.keeps().to_vec(),
        level.recvs().to_vec(),
    );
    edit(&mut t);
    *level = LevelProgram::from_parts(level.level(), t.0, t.1, t.2, t.3);
}

/// Bounds mutation: rank 0's global send gathers position 40 from its
/// 3-element footprint buffer — `IndexOutOfBounds` (send gather, 40, 3).
pub fn oob_gather_compiled() -> CompiledArtifact {
    mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| t.1[0].idx = vec![40]);
    })
}

/// Bounds mutation: rank 0's global recv lands a payload element at
/// position 9 of its 2-element owned buffer — `IndexOutOfBounds`
/// (recv landing, 9, 2).
pub fn oob_recv_compiled() -> CompiledArtifact {
    mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| t.3[0].idx = vec![9]);
    })
}

/// Bounds mutation: rank 0's local carry writes output position 30 of a
/// 2-element buffer — `IndexOutOfBounds` (keep destination, 30, 2).
pub fn oob_keep_compiled() -> CompiledArtifact {
    mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| t.2[1].1 = 30);
    })
}

/// Bounds mutation: rank 0's last transpose level (the global scatter of
/// the flat plan) outputs 2 positions where its footprint has 3 — the
/// transpose list ends short of the footprint: `Malformed` at rank 0 on
/// that level.
pub fn short_transpose_compiled() -> CompiledArtifact {
    mutate_rank(small_compiled_fixture(), 0, |r| {
        let last = r.transpose.len() - 1;
        edit_level(&mut r.transpose[last], |t| t.0 -= 1);
    })
}

/// Routing mutation: rank 0 addresses its partial of row 2 to itself
/// instead of the row's owner, rank 1. Nothing on rank 0 receives it —
/// `UnconsumedSend` to rank 0 at rank 0.
pub fn misrouted_compiled() -> CompiledArtifact {
    mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| t.1[0].peer = 0);
    })
}

/// Routing mutation: rank 0 never sends its partial of row 2, and rank 1
/// never waits for it — the programs still match, and the owner's sum
/// lacks a term: `Conservation { holder: 0, row: 2, delivered: 0 }` at
/// rank 1.
pub fn dropped_compiled() -> CompiledArtifact {
    let dropped = mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| t.1.clear());
    });
    mutate_rank(dropped, 1, |r| edit_level(r.global(), |t| t.3.clear()))
}

/// Routing mutation: rank 0 sends its partial of row 2 twice and rank 1
/// lands both copies on row 2 — `Conservation { holder: 0, row: 2,
/// delivered: 2 }` at rank 1. The repeated indices are what
/// `Transfer::new` refuses, so the tables are written as literals.
pub fn duplicated_compiled() -> CompiledArtifact {
    let sent = mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| {
            t.1 = vec![Transfer {
                peer: 1,
                idx: vec![2, 2],
            }]
        });
    });
    mutate_rank(sent, 1, |r| {
        edit_level(r.global(), |t| {
            t.3 = vec![Transfer {
                peer: 0,
                idx: vec![0, 0],
            }]
        });
    })
}

/// Routing mutation: rank 0's payload to rank 1 carries a second
/// element, which rank 1 lands as row 3 — a row rank 0 does not hold.
/// What arrives is rank 0's partial of row 0: `MixedRows { position: 1,
/// rows: (3, 0) }` at rank 1.
pub fn unheld_compiled() -> CompiledArtifact {
    let sent = mutate_rank(small_compiled_fixture(), 0, |r| {
        edit_level(r.global(), |t| {
            t.1 = vec![Transfer {
                peer: 1,
                idx: vec![2, 0],
            }]
        });
    });
    mutate_rank(sent, 1, |r| {
        edit_level(r.global(), |t| t.3[0].idx = vec![0, 1]);
    })
}

/// Routing mutation on one socket of two GPUs, where row 2's owner,
/// rank 1, is its socket designee: rank 0 sends its partial of row 2 to
/// rank 1 at the socket level *and* keeps it as if it were a designee
/// too, then forwards the kept copy to rank 1 at the global level — the
/// partial is counted twice: `Conservation { holder: 0, row: 2,
/// delivered: 2 }` at rank 1.
pub fn duplicate_designee_compiled() -> CompiledArtifact {
    let kept = mutate_rank(small_compiled_on(Topology::new(1, 1, 2)), 0, |r| {
        edit_level(&mut r.forward[0], |t| {
            t.0 += 1;
            t.2.push((2, 2));
        });
        edit_level(r.global(), |t| t.1 = vec![Transfer::new(1, vec![2])]);
    });
    mutate_rank(kept, 1, |r| {
        edit_level(r.global(), |t| t.3 = vec![Transfer::new(0, vec![0])]);
    })
}

/// Structure mutation: a 1×2×2 plan whose rank 1 runs no node level
/// while its peers do — the ranks disagree on their level lists.
/// `verify_compiled` must report `Malformed` at rank 1 on the node
/// level; no pass may panic.
pub fn ragged_levels_compiled() -> CompiledArtifact {
    let topo = Topology::new(1, 2, 2);
    let fp = Footprints::new(vec![(0..8).collect(); 4]);
    let own = Ownership::new((0..8).map(|r| r / 2).collect(), 4);
    let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
    mutate_rank((fp, own, topo, compiled), 1, |r| {
        r.forward.retain(|l| l.level() != ExchangeLevel::Node);
    })
}

/// Every rank's one-iteration solve of `plans` at `slices` fused slices
/// under `overlap`, rank `rank`'s passed through `mutate`, lowered to its
/// messages on `topo`'s collectives.
fn mutated_solve(
    (topo, plans): (Topology, &CompiledPlans),
    (slices, overlap): (usize, bool),
    rank: usize,
    mutate: impl Fn(&mut Vec<Op>),
) -> CommProgram {
    let steps = AllreduceSteps::build_all(&topo);
    CommProgram::lower(plans, &steps, |p| {
        let mut ops: Vec<Op> = protocol::solve(plans.rank(p), slices, overlap, 1).collect();
        if p == rank {
            mutate(&mut ops);
        }
        ops
    })
}

/// Op list mutation: one iteration at three fused slices on one socket
/// of two GPUs, where rank 0 runs the forward socket level once per
/// slice — the lowering from before the local levels moved the whole
/// batch in one rendezvous — while its peer runs it once per apply. Rank
/// 0 sends two socket-level messages its peer never receives and waits
/// for two that never come: `UnconsumedSend` and `UnmatchedRecv` at rank
/// 0 on the socket level's base tag.
pub fn per_slice_local_level() -> CommProgram {
    const SLICES: usize = 3;
    let (_, _, topo, plans) = small_compiled_on(Topology::new(1, 1, 2));
    mutated_solve((topo, &plans), (SLICES, false), 0, |ops| {
        let (level, slice) = (ExchangeLevel::Socket, None);
        let pair = [Op::Post { level, slice }, Op::Drain { level, slice }];
        if let Some(at) = ops.iter().position(|&op| op == pair[0]) {
            ops.splice(at..at + 2, (0..SLICES).flat_map(|_| pair));
        }
    })
}

/// The rank that still lowers the retired forward-maxima collective in
/// [`stale_maxima_collective`].
pub const STALE_MAXIMA_RANK: usize = 1;

/// Op list mutation: one iteration on 1×1×2 at two fused slices in which
/// rank [`STALE_MAXIMA_RANK`] still opens its solve with the per-slice
/// maxima allreduce its peers no longer run — the lowering from before
/// every sender carried its own §III-C1 scale in the message header. Its
/// collective sends linger and its receives starve: `UnconsumedSend` and
/// `UnmatchedRecv` at that rank on the retired site's tag.
pub fn stale_maxima_collective() -> CommProgram {
    let (_, _, topo, plans) = small_compiled_on(Topology::new(1, 1, 2));
    // The retired site's base tag, which no peer lowers any more.
    let tag = 0x7000;
    let stale = Op::Collective(Collective {
        tag,
        name: "maxima",
    });
    mutated_solve((topo, &plans), (2, true), STALE_MAXIMA_RANK, |ops| {
        ops.insert(0, stale);
    })
}

/// Op list mutation: the flat two-rank solve at two fused slices, in
/// the synchronous order, in which rank 0 runs its first forward apply's
/// collective round ahead of the global drains. Rank 0 waits in the
/// allreduce for rank 1, which reaches it only after draining slice 1 —
/// whose message rank 0 posts after the round: a `DeadlockCycle`
/// through both ranks.
pub fn round_before_global_drains() -> CommProgram {
    let (_, _, topo, plans) = small_compiled_fixture();
    mutated_solve((topo, &plans), (2, false), 0, |ops| {
        let (level, slice) = (ExchangeLevel::Global, Some(0));
        let drain = ops.iter().position(|&op| op == Op::Drain { level, slice });
        let round = ops.iter().position(|op| matches!(op, Op::Collective(_)));
        if let (Some(round), Some(drain)) = (round, drain) {
            let op = ops.remove(round);
            ops.insert(drain, op);
        }
    })
}

/// Lifetime mutation: rank 0 of a flat four-rank compile, whose global
/// level receives from three peers, running the two-slice overlapped
/// forward apply with slice 0's received payloads landed *before* its
/// posted receives are waited for — `PendingWriteRead` (acc, slice 0,
/// 3 pending).
pub fn read_before_finish_schedule() -> Vec<ScratchOp> {
    let fp = Footprints::new(vec![(0..8).collect(); 4]);
    let own = Ownership::new((0..8).map(|r| r / 2).collect(), 4);
    let plans = CompiledPlans::build_hierarchical(&fp, &own, &Topology::new(4, 1, 1));
    let rank = plans.rank(0);
    let mut ops = scratch_ops(rank, 2, protocol::apply(rank, Apply::Forward, 2, true));
    let (land, wait) = (ScratchOp::Land(0), ScratchOp::WaitRecvs(0));
    let at = |ops: &[ScratchOp], op| ops.iter().position(|o| *o == op);
    if let (Some(r), Some(w)) = (at(&ops, land), at(&ops, wait)) {
        ops.remove(r);
        ops.insert(w, land);
    }
    ops
}

// ---- The must-reject table ------------------------------------------

/// One static must-reject artifact: its name in the drivers'
/// transcripts, the report of the pass that owns it, and the violation
/// that report must contain.
pub struct MustReject {
    /// Name printed by the drivers (`corpus/<name>: rejected`).
    pub name: &'static str,
    /// Builds the artifact and runs it through the pass that must
    /// reject it.
    pub report: fn() -> VerifyReport,
    /// Recognizes the seeded violation, witness included.
    pub expected: fn(&Violation) -> bool,
}

impl MustReject {
    /// Runs the row: `Err` carries the report that lacks the expected
    /// violation.
    pub fn check(&self) -> Result<(), VerifyReport> {
        let report = (self.report)();
        if report.violations.iter().any(self.expected) {
            Ok(())
        } else {
            Err(report)
        }
    }
}

fn compiled_report((fp, own, _, compiled): CompiledArtifact) -> VerifyReport {
    crate::verify_compiled(&fp, &own, &compiled)
}

/// Every static artifact of this module with the pass that must reject
/// it and the witness it must give.
#[rustfmt::skip] // a table: one artifact per row group, patterns on one line
pub const MUST_REJECT: &[MustReject] = {
    use AccessKind::{KeepDst, RecvLanding, SendGather};
    use ViolationKind::*;
    &[
        MustReject {
            name: "barrier-mispaired",
            report: || barrier_program(4, 0x4000, true).check(),
            expected: |v| matches!(v.kind, UnmatchedRecv { peer, .. } if peer >= 4),
        },
        MustReject {
            name: "allreduce-reply-aliased",
            report: || buggy_allreduce_claims(4, 0x7000).check(),
            expected: |v| matches!(&v.kind,
                TagCollision { src: 0, tag: 0x7001, first, second, .. } if first != second),
        },
        MustReject {
            name: "unsorted-transfer",
            // Rejected at construction, before any pass can see it: the
            // constructor's error is the report.
            report: || {
                let mut report = VerifyReport::new();
                if let Err(e) = unsorted_transfer() {
                    report.push(0, None, Malformed { detail: e.to_string() });
                }
                report
            },
            expected: |v| matches!(&v.kind,
                Malformed { detail } if detail.contains("position 1 holds 3 after 3")),
        },
        MustReject {
            name: "unfolded-collective",
            report: || {
                let (steps, _) = unfolded_collective();
                CommProgram::collective_of(&steps, Collective::INNER_PRODUCTS.tag, 1).check()
            },
            expected: |v| {
                let reply = Collective::INNER_PRODUCTS.tag ^ REPLY_TAG_SALT;
                v.rank == unfolded_collective().1
                    && matches!(v.kind, UnmatchedRecv { peer: 0, tag } if tag == reply)
            },
        },
        MustReject {
            name: "per-slice-local-level",
            report: || per_slice_local_level().check(),
            expected: |v| {
                let socket = ExchangeLevel::Socket.tag();
                v.rank == 0 && matches!(v.kind,
                    UnconsumedSend { tag, .. } | UnmatchedRecv { tag, .. } if tag == socket)
            },
        },
        MustReject {
            name: "round-before-global-drains",
            report: || round_before_global_drains().check(),
            expected: |v| matches!(&v.kind,
                DeadlockCycle { cycle } if cycle.iter().any(|&(r, _)| r == 0)
                    && cycle.iter().any(|&(r, _)| r == 1)),
        },
        MustReject {
            name: "stale-maxima-collective",
            report: || stale_maxima_collective().check(),
            expected: |v| v.rank == STALE_MAXIMA_RANK && matches!(v.kind,
                UnconsumedSend { tag, .. } | UnmatchedRecv { tag, .. }
                    if tag & 0xffff_ffff == 0x7000),
        },
        MustReject {
            name: "misrouted-direct",
            report: || compiled_report(misrouted_compiled()),
            expected: |v| v.rank == 0 && v.level == Some(ExchangeLevel::Global)
                && matches!(v.kind, UnconsumedSend { peer: 0, .. }),
        },
        MustReject {
            name: "dropped-direct",
            report: || compiled_report(dropped_compiled()),
            expected: |v| v.rank == 1
                && matches!(v.kind, Conservation { holder: 0, row: 2, delivered: 0 }),
        },
        MustReject {
            name: "duplicated-direct",
            report: || compiled_report(duplicated_compiled()),
            expected: |v| v.rank == 1
                && matches!(v.kind, Conservation { holder: 0, row: 2, delivered: 2 }),
        },
        MustReject {
            name: "unheld-direct",
            report: || compiled_report(unheld_compiled()),
            expected: |v| v.rank == 1 && matches!(v.kind, MixedRows { position: 1, rows: (3, 0) }),
        },
        MustReject {
            name: "duplicate-designee",
            report: || compiled_report(duplicate_designee_compiled()),
            expected: |v| v.rank == 1
                && matches!(v.kind, Conservation { holder: 0, row: 2, delivered: 2 }),
        },
        MustReject {
            name: "over-budget-plan",
            report: || crate::plan_fits(&over_budget_plan()),
            expected: |v| matches!(v.kind,
                PlanOverBudget { budget, required } if required == budget + 1),
        },
        MustReject {
            name: "oob-gather",
            report: || crate::verify_bounds(&oob_gather_compiled().3),
            expected: |v| v.rank == 0
                && matches!(v.kind, IndexOutOfBounds { access: SendGather, index: 40, len: 3 }),
        },
        MustReject {
            name: "oob-recv-landing",
            report: || crate::verify_bounds(&oob_recv_compiled().3),
            expected: |v| matches!(v.kind,
                IndexOutOfBounds { access: RecvLanding, index: 9, len: 2 }),
        },
        MustReject {
            name: "oob-keep-destination",
            report: || crate::verify_bounds(&oob_keep_compiled().3),
            expected: |v| matches!(v.kind,
                IndexOutOfBounds { access: KeepDst, index: 30, len: 2 }),
        },
        MustReject {
            name: "short-transpose",
            report: || crate::verify_bounds(&short_transpose_compiled().3),
            expected: |v| v.rank == 0 && v.level == Some(ExchangeLevel::ScatterGlobal)
                && matches!(&v.kind, Malformed { detail }
                    if detail.contains("ends with buffer length 2, footprint length is 3")),
        },
        MustReject {
            name: "ragged-levels",
            report: || compiled_report(ragged_levels_compiled()),
            expected: |v| v.rank == 1 && v.level == Some(ExchangeLevel::Node)
                && matches!(&v.kind, Malformed { detail } if detail.contains("no node level")),
        },
        MustReject {
            name: "read-before-finish",
            report: || verify_scratch_lifetime(0, &read_before_finish_schedule()),
            expected: |v| matches!(v.kind,
                PendingWriteRead { buffer: "acc", slice: 0, pending: 3 }),
        },
    ]
};
