//! Scratch-buffer lifetime analysis of the exchange executor.
//!
//! The executor ([`xct_comm::RankPlan::reduce`] and
//! [`xct_comm::RankPlan::scatter`]) keeps three kinds of scratch: the
//! *held batch* every level reads (filled by `Hold`, refilled by each
//! `Advance` with the level's output), one *pending-receive slot* per
//! fused slice (filled by a `Post` with receives that stay pending until
//! its `Drain` waits), and the *one-slice accumulator* a drain forms each
//! output slice in, seeded from the held batch and landed from the slot.
//! Under `overlap` every slice's global exchange is on the wire at once,
//! so that is where a lifetime bug hides: a read of a slot before its
//! receives are waited observes partially delivered data.
//!
//! [`scratch_ops`] folds a rank's op list ([`xct_comm::protocol::Op`],
//! the list the executor runs) into the small language of
//! [`ScratchOp`], and [`verify_scratch_lifetime`] checks any sequence —
//! real or mutated — for the two lifetime properties:
//!
//! * **no pending-write read** — the accumulator does not land a slot
//!   before its receives are waited ([`ViolationKind::PendingWriteRead`]
//!   on `acc`), and a slot is not re-posted, nor the program ended, while
//!   its receives are pending (on `slot`);
//! * **no overwrite of a live batch** — the held batch is not refilled
//!   while one of its slices has yet to be read by its drain (on `held`).
//!
//! The analysis is a linear scan with fixed-size state (at most
//! [`MAX_TRACKED_SLICES`] slices); the clean verdict allocates nothing
//! beyond the expansion.

use crate::diag::{VerifyReport, ViolationKind};
use xct_comm::protocol::Op;
use xct_comm::{CompiledPlans, RankPlan};

/// Most slices the checker tracks: the overlapped order keeps every
/// fused slice of an apply in flight, each in its own slot.
pub const MAX_TRACKED_SLICES: usize = 64;

/// One abstract scratch operation of the executor, in program order for
/// a single rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScratchOp {
    /// The held batch is (re)filled with this many slices: by `Hold`, or
    /// by `Advance` with the output the level's drains formed.
    FillHeld(usize),
    /// A drain seeds the accumulator with the carries out of this slice
    /// of the held batch (its post gathered the sends from it before), or
    /// `Widen` reads it out — the last read of that slice.
    ReadHeld(usize),
    /// A post puts `count` receives into pending slot `slot` (the fused
    /// slice a global level carries; 0 for a local level's whole batch) —
    /// writes that stay pending until [`ScratchOp::WaitRecvs`].
    PostRecvs {
        /// The slot.
        slot: usize,
        /// Number of posted receives.
        count: usize,
    },
    /// A drain waits for this slot's receives (the `CommWait` span).
    WaitRecvs(usize),
    /// A drain lands this slot's payloads in the one-slice accumulator.
    Land(usize),
}

/// The scratch operations `rank` performs running `ops` at `slices`
/// fused slices: `Hold` and `Advance` fill the held batch, `Widen`
/// reads every slice of it, a `Post` fills its slot with the level's
/// receives, and a `Drain` waits for them, then per slice it forms reads
/// the held slice and lands the slot. The corpus mutates the result to
/// seed lifetime bugs.
pub fn scratch_ops(
    rank: &RankPlan,
    slices: usize,
    ops: impl IntoIterator<Item = Op>,
) -> Vec<ScratchOp> {
    let mut scratch = Vec::new();
    for op in ops {
        match op {
            Op::Hold | Op::Advance => scratch.push(ScratchOp::FillHeld(slices)),
            Op::Widen => scratch.extend((0..slices).map(ScratchOp::ReadHeld)),
            Op::Post { level, slice } => {
                let count = rank.level(level).map_or(0, |l| l.recvs().len());
                let slot = slice.unwrap_or(0);
                scratch.push(ScratchOp::PostRecvs { slot, count });
            }
            Op::Drain { slice, .. } => {
                let slot = slice.unwrap_or(0);
                scratch.push(ScratchOp::WaitRecvs(slot));
                let formed = slice.map_or(0..slices, |f| f..f + 1);
                for slice in formed {
                    scratch.extend([ScratchOp::ReadHeld(slice), ScratchOp::Land(slot)]);
                }
            }
            Op::Launch | Op::Collective(_) => {}
        }
    }
    scratch
}

/// Checks an op sequence for pending-write reads and live-batch
/// overwrites. `rank` only labels the witnesses.
pub fn verify_scratch_lifetime(rank: usize, ops: &[ScratchOp]) -> VerifyReport {
    let mut report = VerifyReport::new();
    // Fixed-size state: which slot has receives posted and not yet
    // waited, and how many.
    let mut posted = [false; MAX_TRACKED_SLICES];
    let mut pending = [0usize; MAX_TRACKED_SLICES];
    // The held batch — its slice count and the mask of slices not read
    // since it was filled — or nothing yet.
    let mut held: Option<(usize, u64)> = None;
    let malformed = |report: &mut VerifyReport, detail: String| {
        report.push(rank, None, ViolationKind::Malformed { detail });
    };
    let pending_read = |report: &mut VerifyReport, buffer, slice, pending| {
        let kind = ViolationKind::PendingWriteRead {
            buffer,
            slice,
            pending,
        };
        report.push(rank, None, kind);
    };
    for op in ops {
        let (ScratchOp::FillHeld(id)
        | ScratchOp::ReadHeld(id)
        | ScratchOp::PostRecvs { slot: id, .. }
        | ScratchOp::WaitRecvs(id)
        | ScratchOp::Land(id)) = *op;
        // How many slices the op spans: a fill's count, or one id's.
        let spans = id + usize::from(!matches!(op, ScratchOp::FillHeld(_)));
        if spans > MAX_TRACKED_SLICES {
            let bound = MAX_TRACKED_SLICES;
            malformed(
                &mut report,
                format!("slice id {id} exceeds tracked bound {bound}"),
            );
            continue;
        }
        match *op {
            ScratchOp::FillHeld(slices) => {
                if let Some((_, unread)) = held.filter(|&(_, unread)| unread != 0) {
                    // Overwriting values some slice's drain never read:
                    // its output would be formed from the next batch.
                    let first = unread.trailing_zeros() as usize;
                    pending_read(&mut report, "held", first, unread.count_ones() as usize);
                }
                held = Some((slices, (0..slices).fold(0, |all, f| all | 1 << f)));
            }
            ScratchOp::ReadHeld(slice) => match held {
                Some((n, unread)) if slice < n => held = Some((n, unread & !(1 << slice))),
                other => malformed(
                    &mut report,
                    format!("slice {slice} read from a held batch of {other:?}"),
                ),
            },
            ScratchOp::PostRecvs { slot, count } => {
                if posted[slot] && pending[slot] > 0 {
                    // Re-posting over receives still in flight.
                    pending_read(&mut report, "slot", slot, pending[slot]);
                }
                posted[slot] = true;
                pending[slot] = count;
            }
            ScratchOp::WaitRecvs(slot) => {
                if !posted[slot] {
                    malformed(
                        &mut report,
                        format!("finish of slice {slot}, whose exchange is not posted"),
                    );
                }
                posted[slot] = false;
                pending[slot] = 0;
            }
            ScratchOp::Land(slot) => {
                if pending[slot] > 0 {
                    pending_read(&mut report, "acc", slot, pending[slot]);
                }
            }
        }
    }
    // Anything still in flight at the end of the program was never
    // waited.
    for (slot, &count) in pending.iter().enumerate() {
        if posted[slot] && count > 0 {
            pending_read(&mut report, "slot", slot, count);
        }
    }
    report
}

/// Verifies the scratch usage of every rank of `plans` running the op
/// list `ops_of(rank)` at `slices` fused slices.
pub fn verify_lifetimes<I: IntoIterator<Item = Op>>(
    plans: &CompiledPlans,
    slices: usize,
    ops_of: impl Fn(usize) -> I,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    for rank in 0..plans.num_ranks() {
        let ops = scratch_ops(plans.rank(rank), slices, ops_of(rank));
        report.merge(verify_scratch_lifetime(rank, &ops));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::small_compiled_fixture;
    use xct_comm::protocol::{self, Apply};
    use xct_comm::Topology;

    /// Rank 0 of the corpus's flat two-rank fixture, whose global level
    /// receives one message.
    fn rank0() -> RankPlan {
        small_compiled_fixture().3.rank(0).clone()
    }

    #[test]
    fn the_real_solve_is_clean_in_both_orders() {
        for topo in [Topology::new(2, 1, 1), Topology::new(1, 1, 2)] {
            let (fp, own) = (
                xct_comm::Footprints::new(vec![vec![0, 1, 2], vec![1, 2, 3]]),
                xct_comm::Ownership::new(vec![0, 0, 1, 1], 2),
            );
            let plans = CompiledPlans::build_hierarchical(&fp, &own, &topo);
            for slices in [1, 2, 3, 8] {
                for overlap in [false, true] {
                    let ops_of = |p| protocol::solve(plans.rank(p), slices, overlap, 2);
                    let report = verify_lifetimes(&plans, slices, ops_of);
                    assert!(report.ok(), "slices={slices} overlap={overlap}: {report}");
                }
            }
        }
    }

    #[test]
    fn landing_before_the_wait_is_a_pending_write_read() {
        // Mutate the 2-slice overlapped apply: the drain lands the
        // received payloads before waiting for the posted receives.
        let rank = rank0();
        let mut ops = scratch_ops(&rank, 2, protocol::apply(&rank, Apply::Forward, 2, true));
        let wait = ops
            .iter()
            .position(|op| *op == ScratchOp::WaitRecvs(0))
            .unwrap();
        let land = ops.remove(wait + 2); // after the seed out of the held slice
        assert_eq!(land, ScratchOp::Land(0));
        ops.insert(wait, land);
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "acc",
                slice: 0,
                pending: 1
            }
        )));
    }

    #[test]
    fn the_batch_is_held_once_and_refilled_once_per_level() {
        let rank = rank0();
        let ops = scratch_ops(&rank, 3, protocol::apply(&rank, Apply::Forward, 3, true));
        let fills = ops.iter().filter(|op| matches!(op, ScratchOp::FillHeld(_)));
        assert_eq!(fills.count(), 1 + rank.forward().len());
    }

    #[test]
    fn refilling_the_batch_before_every_slice_is_flagged() {
        // The per-slice lowering: the held batch refilled before each
        // slice's seed, overwriting slices 1 and 2 unread.
        let rank = rank0();
        let mut ops = Vec::new();
        let real = scratch_ops(&rank, 3, protocol::apply(&rank, Apply::Forward, 3, false));
        for op in real {
            if matches!(op, ScratchOp::ReadHeld(_)) {
                ops.push(ScratchOp::FillHeld(3));
            }
            ops.push(op);
        }
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "held",
                slice: 1,
                pending: 2
            }
        )));
    }

    #[test]
    fn unfinished_pipeline_is_flagged() {
        let ops = [
            ScratchOp::FillHeld(1),
            ScratchOp::PostRecvs { slot: 0, count: 2 },
        ];
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "slot",
                slice: 0,
                pending: 2
            }
        )));
    }
}
