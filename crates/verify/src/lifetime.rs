//! Scratch-buffer lifetime and aliasing analysis for the overlap
//! pipeline.
//!
//! The executor's level step ([`xct_comm::RankPlan::reduce`] and
//! [`xct_comm::RankPlan::scatter`]) posts a global level's slice at
//! `Post(f)` and drains it at `Drain(f)`, so a slice's global exchange
//! is on the wire while the next slices are posted. That overlap is
//! exactly where a lifetime bug hides: the pending exchange owns a region
//! with *posted but undelivered* irecv writes, and any read of that
//! region before the matching drain has waited observes
//! partially-delivered data. This module abstracts the executor's
//! scratch usage into a small op language ([`ScratchOp`]), expands the
//! exchange schedule the operator runs
//! ([`xct_comm::protocol::exchange_schedule`], either setting of
//! `overlap`) into it ([`scratch_ops`]), and checks any sequence — real
//! or mutated — for the two lifetime properties:
//!
//! * **no pending-write read** — a region acquired by a post is not
//!   read until its posted writes are waited
//!   ([`ViolationKind::PendingWriteRead`]);
//! * **no overwrite of a live region** — `cur`, the held batch the local
//!   levels leave behind once per apply, is not refilled while one of its
//!   slices has yet to be read by its drain, and a pending region is not
//!   re-acquired while still in flight.
//!
//! The analysis is a linear scan with fixed-size state (at most
//! [`MAX_TRACKED_SLICES`] concurrently tracked slices — the real
//! schedule keeps every fused slice of one apply in flight); the clean
//! verdict allocates nothing.

use crate::diag::{VerifyReport, ViolationKind};
use xct_comm::protocol::ExchangeOp;

/// Most slices the checker tracks concurrently. The overlap schedule
/// keeps all fused slices of an apply in flight; the bound only caps
/// *simultaneous* liveness, not schedule length (slice ids wrap through
/// the table by identity).
pub const MAX_TRACKED_SLICES: usize = 64;

/// One abstract scratch operation of the overlapped exchange pipeline,
/// in program order for a single rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScratchOp {
    /// `reduce` quantizes the kernel's partials into `cur` and the local
    /// levels rewrite it with the post-node partials of the whole batch,
    /// fused slices `0..slices` — once per apply.
    FillCur {
        /// How many slices now occupy `cur`.
        slices: usize,
    },
    /// The drain of slice `slice` seeds its accumulator with the carries
    /// out of `cur` (its post gathered the sends from it before) — the
    /// last read of that slice.
    ReadCur {
        /// The slice being posted.
        slice: usize,
    },
    /// The post takes the pending-exchange region of the slice.
    AcquireAcc {
        /// The slice owning the region.
        slice: usize,
    },
    /// The post posts `count` irecvs into the region — writes that
    /// remain pending until [`ScratchOp::WaitWrites`].
    PostWrites {
        /// The slice owning the region.
        slice: usize,
        /// Number of posted in-flight writes.
        count: usize,
    },
    /// The drain waits for the posted irecvs (the `CommWait` span).
    WaitWrites {
        /// The slice being finished.
        slice: usize,
    },
    /// The drain lands the received payloads to produce the owned
    /// totals.
    ReadAcc {
        /// The slice being finished.
        slice: usize,
    },
    /// The drain returns the region to the pool.
    ReleaseAcc {
        /// The slice releasing its region.
        slice: usize,
    },
}

/// The scratch operations one rank performs when it runs `schedule`
/// with `writes_per_slice` posted irecvs per global exchange: first the
/// local reduction of the whole batch into `cur`, then per `Post(f)` the
/// acquire and the post, per `Drain(f)` the wait, the seed out of slice
/// `f` of `cur`, the read and the release. The corpus mutates the result to seed
/// lifetime bugs.
pub fn scratch_ops(
    schedule: impl IntoIterator<Item = ExchangeOp>,
    writes_per_slice: usize,
) -> Vec<ScratchOp> {
    let schedule: Vec<ExchangeOp> = schedule.into_iter().collect();
    let slices = schedule
        .iter()
        .filter_map(|op| match op {
            ExchangeOp::Post(f) => Some(f + 1),
            ExchangeOp::Drain(_) => None,
        })
        .max()
        .unwrap_or(0);
    let mut ops = vec![ScratchOp::FillCur { slices }];
    for op in schedule {
        match op {
            ExchangeOp::Post(slice) => ops.extend([
                ScratchOp::AcquireAcc { slice },
                ScratchOp::PostWrites {
                    slice,
                    count: writes_per_slice,
                },
            ]),
            ExchangeOp::Drain(slice) => ops.extend([
                ScratchOp::WaitWrites { slice },
                ScratchOp::ReadCur { slice },
                ScratchOp::ReadAcc { slice },
                ScratchOp::ReleaseAcc { slice },
            ]),
        }
    }
    ops
}

/// Checks an op sequence for pending-write reads and live-region
/// overwrites. `rank` only labels the witnesses.
pub fn verify_scratch_lifetime(rank: usize, ops: &[ScratchOp]) -> VerifyReport {
    let mut report = VerifyReport::new();
    // Fixed-size state: which slice's acc region is live and how many of
    // its posted writes are still pending.
    let mut live = [false; MAX_TRACKED_SLICES];
    let mut pending = [0usize; MAX_TRACKED_SLICES];
    // `cur` holds a batch — its slice count and the mask of slices no
    // begin has gathered yet — or nothing yet.
    let mut cur: Option<(usize, u64)> = None;
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
        let (ScratchOp::FillCur { slices: slice }
        | ScratchOp::ReadCur { slice }
        | ScratchOp::AcquireAcc { slice }
        | ScratchOp::PostWrites { slice, .. }
        | ScratchOp::WaitWrites { slice }
        | ScratchOp::ReadAcc { slice }
        | ScratchOp::ReleaseAcc { slice }) = *op;
        // How many slices the op spans: a fill's count, or one id's.
        let spans = slice + usize::from(!matches!(op, ScratchOp::FillCur { .. }));
        if spans > MAX_TRACKED_SLICES {
            let bound = MAX_TRACKED_SLICES;
            malformed(
                &mut report,
                format!("slice id {slice} exceeds tracked bound {bound}"),
            );
            continue;
        }
        match *op {
            ScratchOp::FillCur { slices } => {
                if let Some((_, unread)) = cur.filter(|&(_, unread)| unread != 0) {
                    // Overwriting values some slice's begin never
                    // gathered: its exchange would send the next batch.
                    let first = unread.trailing_zeros() as usize;
                    pending_read(&mut report, "cur", first, unread.count_ones() as usize);
                }
                cur = Some((slices, (0..slices).fold(0, |all, f| all | 1 << f)));
            }
            ScratchOp::ReadCur { .. } => match cur {
                Some((held, unread)) if slice < held => cur = Some((held, unread & !(1 << slice))),
                other => malformed(
                    &mut report,
                    format!("begin of slice {slice} reads cur holding {other:?}"),
                ),
            },
            ScratchOp::AcquireAcc { .. } => {
                if live[slice] {
                    pending_read(&mut report, "acc", slice, pending[slice]);
                }
                live[slice] = true;
                pending[slice] = 0;
            }
            ScratchOp::PostWrites { count, .. } => {
                if !live[slice] {
                    malformed(
                        &mut report,
                        format!("writes posted into unacquired acc of slice {slice}"),
                    );
                }
                pending[slice] += count;
            }
            ScratchOp::WaitWrites { .. } => {
                if !live[slice] {
                    malformed(
                        &mut report,
                        format!("finish of slice {slice}, whose exchange is not posted"),
                    );
                }
                pending[slice] = 0;
            }
            ScratchOp::ReadAcc { .. } | ScratchOp::ReleaseAcc { .. } => {
                if pending[slice] > 0 {
                    pending_read(&mut report, "acc", slice, pending[slice]);
                }
                if matches!(op, ScratchOp::ReleaseAcc { .. }) {
                    live[slice] = false;
                }
            }
        }
    }
    // Anything still in flight at pipeline end was never finished.
    for (slice, &l) in live.iter().enumerate() {
        if l && pending[slice] > 0 {
            pending_read(&mut report, "acc", slice, pending[slice]);
        }
    }
    report
}

/// Verifies the scratch usage of every rank of `plans` running
/// `schedule` on each level it runs per slice, in both lists; such a
/// level posts one irecv per recv transfer.
pub fn verify_lifetimes(plans: &xct_comm::CompiledPlans, schedule: &[ExchangeOp]) -> VerifyReport {
    let mut report = VerifyReport::new();
    for rank in 0..plans.num_ranks() {
        let rp = plans.rank(rank);
        let levels = rp.forward().iter().chain(rp.transpose());
        for level in levels.filter(|l| l.level().per_slice()) {
            let ops = scratch_ops(schedule.iter().copied(), level.recvs().len());
            report.merge(verify_scratch_lifetime(rank, &ops));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::protocol::exchange_schedule;

    #[test]
    fn both_real_schedules_are_clean() {
        for slices in [1, 2, 3, 8] {
            for overlap in [false, true] {
                let ops = scratch_ops(exchange_schedule(slices, overlap), 3);
                let report = verify_scratch_lifetime(0, &ops);
                assert!(report.ok(), "slices={slices} overlap={overlap}: {report}");
            }
        }
    }

    #[test]
    fn read_before_wait_is_a_pending_write_read() {
        // Mutate the 2-slice schedule: the drain reads the received
        // payloads before waiting for the posted irecvs.
        let mut ops = scratch_ops(exchange_schedule(2, true), 3);
        let wait = ops
            .iter()
            .position(|op| *op == ScratchOp::WaitWrites { slice: 0 })
            .unwrap();
        let read = ops.remove(wait + 2); // after the seed out of `cur`
        assert_eq!(read, ScratchOp::ReadAcc { slice: 0 });
        ops.insert(wait, read); // ReadAcc(0) now precedes WaitWrites(0)
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
    fn the_batch_is_filled_once_per_apply() {
        let ops = scratch_ops(exchange_schedule(3, true), 3);
        let fills = ops
            .iter()
            .filter(|op| matches!(op, ScratchOp::FillCur { .. }));
        assert_eq!(
            fills.collect::<Vec<_>>(),
            [&ScratchOp::FillCur { slices: 3 }]
        );
    }

    #[test]
    fn refilling_the_batch_before_every_slice_is_flagged() {
        // The per-slice lowering: the local levels refill `cur` before
        // each slice's seed, overwriting slices 1 and 2 unread.
        let mut ops = Vec::new();
        for op in scratch_ops(exchange_schedule(3, false), 3) {
            if matches!(op, ScratchOp::ReadCur { .. }) {
                ops.push(ScratchOp::FillCur { slices: 3 });
            }
            ops.push(op);
        }
        let report = verify_scratch_lifetime(0, &ops);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "cur",
                slice: 1,
                pending: 2
            }
        )));
    }

    #[test]
    fn unfinished_pipeline_is_flagged() {
        let ops = [
            ScratchOp::FillCur { slices: 1 },
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
