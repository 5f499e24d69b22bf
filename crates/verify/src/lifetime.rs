//! Scratch-buffer lifetime and aliasing analysis for the overlap
//! pipeline.
//!
//! The split `global_begin`/`global_finish` (and the scatter twins) on
//! [`xct_comm::RankPlan`] exists so a slice's global exchange drains
//! while the next slice computes. That overlap is exactly where a
//! lifetime bug hides: the in-flight handle owns an accumulator region
//! with *posted but undelivered* irecv writes, and any read of that
//! region before the matching `finish` observes partially-delivered
//! data. This module abstracts the executor's scratch usage into a small
//! op language ([`ScratchOp`]), derives the op sequence the real
//! pipeline performs ([`overlap_schedule`]), and checks any sequence —
//! real or mutated — for the two lifetime properties:
//!
//! * **no pending-write read** — a region acquired by `begin` is not
//!   read until its posted writes are waited
//!   ([`ViolationKind::PendingWriteRead`]);
//! * **no overwrite of a live region** — `cur` is not refilled for the
//!   next slice while the previous slice's `begin` has yet to gather it,
//!   and an accumulator is not re-acquired while still in flight.
//!
//! The analysis is a linear scan with fixed-size state (at most
//! [`MAX_TRACKED_SLICES`] concurrently tracked slices — the real
//! schedule keeps every fused slice of one apply in flight); the clean
//! verdict allocates nothing.

use crate::diag::{VerifyReport, ViolationKind};
use xct_comm::RankPlan;

/// Most slices the checker tracks concurrently. The overlap schedule
/// keeps all fused slices of an apply in flight; the bound only caps
/// *simultaneous* liveness, not schedule length (slice ids wrap through
/// the table by identity).
pub const MAX_TRACKED_SLICES: usize = 64;

/// One abstract scratch operation of the overlapped exchange pipeline,
/// in program order for a single rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScratchOp {
    /// `reduce_local` rewrites `cur` with slice `slice`'s post-node
    /// partials.
    FillCur {
        /// The slice whose values now occupy `cur`.
        slice: usize,
    },
    /// `global_begin` gathers `cur` into send payloads and carries —
    /// the last read of `cur` for this slice.
    ReadCur {
        /// The slice being posted.
        slice: usize,
    },
    /// `global_begin` takes an accumulator region for the slice.
    AcquireAcc {
        /// The slice owning the region.
        slice: usize,
    },
    /// `global_begin` posts `count` irecvs targeting the accumulator —
    /// writes that remain pending until [`ScratchOp::WaitWrites`].
    PostWrites {
        /// The slice owning the region.
        slice: usize,
        /// Number of posted in-flight writes.
        count: usize,
    },
    /// `global_finish` drains the posted irecvs (the `CommWait` span).
    WaitWrites {
        /// The slice being finished.
        slice: usize,
    },
    /// `global_finish` reads the accumulator to produce the owned
    /// totals.
    ReadAcc {
        /// The slice being finished.
        slice: usize,
    },
    /// `global_finish` returns the region to the pool.
    ReleaseAcc {
        /// The slice releasing its region.
        slice: usize,
    },
}

/// The op sequence one rank performs for `slices` fused slices under
/// the §III-E overlap schedule — post every slice (local reduction into
/// `cur`, gather, acquire, post), then drain them in slice order — with
/// `writes_per_slice` posted irecvs per global exchange. This mirrors
/// `xct-core`'s `exchange_schedule(slices, true)` op for op; the corpus
/// mutates copies of it to seed lifetime bugs.
pub fn overlap_schedule(slices: usize, writes_per_slice: usize) -> Vec<ScratchOp> {
    let mut ops = Vec::with_capacity(slices * 7);
    for s in 0..slices {
        ops.push(ScratchOp::FillCur { slice: s });
        ops.push(ScratchOp::ReadCur { slice: s });
        ops.push(ScratchOp::AcquireAcc { slice: s });
        ops.push(ScratchOp::PostWrites {
            slice: s,
            count: writes_per_slice,
        });
    }
    for s in 0..slices {
        ops.push(ScratchOp::WaitWrites { slice: s });
        ops.push(ScratchOp::ReadAcc { slice: s });
        ops.push(ScratchOp::ReleaseAcc { slice: s });
    }
    ops
}

/// [`overlap_schedule`] for a concrete compiled rank program: the
/// posted-write count is the rank's global-level recv transfer count.
pub fn schedule_for(rp: &RankPlan, slices: usize) -> Vec<ScratchOp> {
    overlap_schedule(slices, rp.global_level().recvs().len())
}

/// Checks an op sequence for pending-write reads and live-region
/// overwrites. `rank` only labels the witnesses.
pub fn verify_scratch_lifetime(rank: usize, ops: &[ScratchOp]) -> VerifyReport {
    let mut report = VerifyReport::new();
    // Fixed-size state: which slice's acc region is live and how many of
    // its posted writes are still pending.
    let mut live = [false; MAX_TRACKED_SLICES];
    let mut pending = [0usize; MAX_TRACKED_SLICES];
    // `cur` holds (slice, consumed-by-begin?) or nothing yet.
    let mut cur: Option<(usize, bool)> = None;
    let slot = |s: usize, report: &mut VerifyReport| -> Option<usize> {
        if s < MAX_TRACKED_SLICES {
            Some(s)
        } else {
            report.push(
                rank,
                None,
                ViolationKind::Malformed {
                    detail: format!("slice id {s} exceeds tracked bound {MAX_TRACKED_SLICES}"),
                },
            );
            None
        }
    };
    for op in ops {
        match *op {
            ScratchOp::FillCur { slice } => {
                if let Some((prev, consumed)) = cur {
                    if !consumed {
                        // Overwriting values slice `prev`'s begin never
                        // gathered: its exchange would send garbage.
                        report.push(
                            rank,
                            None,
                            ViolationKind::PendingWriteRead {
                                buffer: "cur",
                                slice: prev,
                                pending: 1,
                            },
                        );
                    }
                }
                cur = Some((slice, false));
            }
            ScratchOp::ReadCur { slice } => match cur {
                Some((held, _)) if held == slice => cur = Some((held, true)),
                other => report.push(
                    rank,
                    None,
                    ViolationKind::Malformed {
                        detail: format!("begin of slice {slice} reads cur holding {other:?}"),
                    },
                ),
            },
            ScratchOp::AcquireAcc { slice } => {
                if let Some(k) = slot(slice, &mut report) {
                    if live[k] {
                        report.push(
                            rank,
                            None,
                            ViolationKind::PendingWriteRead {
                                buffer: "acc",
                                slice,
                                pending: pending[k],
                            },
                        );
                    }
                    live[k] = true;
                    pending[k] = 0;
                }
            }
            ScratchOp::PostWrites { slice, count } => {
                if let Some(k) = slot(slice, &mut report) {
                    if !live[k] {
                        report.push(
                            rank,
                            None,
                            ViolationKind::Malformed {
                                detail: format!(
                                    "writes posted into unacquired acc of slice {slice}"
                                ),
                            },
                        );
                    }
                    pending[k] += count;
                }
            }
            ScratchOp::WaitWrites { slice } => {
                if let Some(k) = slot(slice, &mut report) {
                    pending[k] = 0;
                }
            }
            ScratchOp::ReadAcc { slice } => {
                if let Some(k) = slot(slice, &mut report) {
                    if pending[k] > 0 {
                        report.push(
                            rank,
                            None,
                            ViolationKind::PendingWriteRead {
                                buffer: "acc",
                                slice,
                                pending: pending[k],
                            },
                        );
                    }
                }
            }
            ScratchOp::ReleaseAcc { slice } => {
                if let Some(k) = slot(slice, &mut report) {
                    if pending[k] > 0 {
                        report.push(
                            rank,
                            None,
                            ViolationKind::PendingWriteRead {
                                buffer: "acc",
                                slice,
                                pending: pending[k],
                            },
                        );
                    }
                    live[k] = false;
                }
            }
        }
    }
    // Anything still in flight at pipeline end was never finished.
    for (k, &l) in live.iter().enumerate() {
        if l && pending[k] > 0 {
            report.push(
                rank,
                None,
                ViolationKind::PendingWriteRead {
                    buffer: "acc",
                    slice: k,
                    pending: pending[k],
                },
            );
        }
    }
    report
}

/// Verifies the real overlap pipeline's scratch usage for every rank of
/// `plans` across `slices` fused slices.
pub fn verify_lifetimes(plans: &xct_comm::CompiledPlans, slices: usize) -> VerifyReport {
    let mut report = VerifyReport::new();
    for rank in 0..plans.num_ranks() {
        let ops = schedule_for(plans.rank(rank), slices);
        report.merge(verify_scratch_lifetime(rank, &ops));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_overlap_schedule_is_clean() {
        for slices in [1, 2, 3, 8] {
            let ops = overlap_schedule(slices, 3);
            let report = verify_scratch_lifetime(0, &ops);
            assert!(report.ok(), "slices={slices}: {report}");
        }
    }

    #[test]
    fn read_before_wait_is_a_pending_write_read() {
        // Mutate the 2-slice schedule: finish reads the accumulator
        // before draining the posted irecvs.
        let mut ops = overlap_schedule(2, 3);
        let wait = ops
            .iter()
            .position(|op| matches!(op, ScratchOp::WaitWrites { slice: 0 }))
            .unwrap();
        ops.swap(wait, wait + 1); // ReadAcc(0) now precedes WaitWrites(0)
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "acc",
                slice: 0,
                pending: 3
            }
        )));
    }

    #[test]
    fn overwriting_unposted_cur_is_flagged() {
        // FillCur(1) lands before slice 0's begin gathered cur.
        let ops = [
            ScratchOp::FillCur { slice: 0 },
            ScratchOp::FillCur { slice: 1 },
            ScratchOp::ReadCur { slice: 1 },
        ];
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "cur",
                slice: 0,
                ..
            }
        )));
    }

    #[test]
    fn unfinished_pipeline_is_flagged() {
        let ops = [
            ScratchOp::FillCur { slice: 0 },
            ScratchOp::ReadCur { slice: 0 },
            ScratchOp::AcquireAcc { slice: 0 },
            ScratchOp::PostWrites { slice: 0, count: 2 },
        ];
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "acc",
                slice: 0,
                pending: 2
            }
        )));
    }
}
