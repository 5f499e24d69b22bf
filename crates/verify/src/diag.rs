//! Structured verification diagnostics.
//!
//! Every check in this crate reports [`Violation`]s, never booleans: a
//! violation pins down the rank it was detected at, the exchange level,
//! and a witness (element, tag, cycle, or position) precise enough to
//! reconstruct the failure by hand. This is the contract that makes the
//! known-bad corpus testable — each corpus entry asserts not just "fails"
//! but *which* diagnostic fires and with what witness.

use std::fmt;
use xct_comm::protocol::ExchangeLevel;

/// Where a scratch-buffer write came from (aliasing witnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOrigin {
    /// A local carry from input position `src`.
    Keep {
        /// Input position the value was carried from.
        src: u32,
    },
    /// Element `offset` of the transfer received from `peer`.
    Recv {
        /// Sending rank.
        peer: usize,
        /// Offset within the received payload.
        offset: u32,
    },
}

impl fmt::Display for WriteOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOrigin::Keep { src } => write!(f, "keep from input position {src}"),
            WriteOrigin::Recv { peer, offset } => {
                write!(f, "recv from rank {peer} payload offset {offset}")
            }
        }
    }
}

/// Which index table of a level program an out-of-bounds access lives
/// in (witness component of [`ViolationKind::IndexOutOfBounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A send transfer's gather index into the level's input buffer.
    SendGather,
    /// A local carry's source position in the input buffer.
    KeepSrc,
    /// A local carry's destination position in the output buffer.
    KeepDst,
    /// A recv transfer's landing position in the output buffer.
    RecvLanding,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccessKind::SendGather => "send gather",
            AccessKind::KeepSrc => "keep source",
            AccessKind::KeepDst => "keep destination",
            AccessKind::RecvLanding => "recv landing",
        };
        f.write_str(name)
    }
}

/// The defect a check found, with its witness.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// Conservation failure: rank `holder`'s contribution for `row` was
    /// delivered to the row's owner `delivered` times instead of exactly
    /// once.
    Conservation {
        /// The rank whose partial sum is lost or duplicated.
        holder: usize,
        /// The witness element (global row id).
        row: u32,
        /// How many copies actually arrive.
        delivered: usize,
    },
    /// One scratch position accumulated contributions belonging to two
    /// different rows — partial sums for unrelated elements combine.
    MixedRows {
        /// The output position.
        position: u32,
        /// The two distinct rows found there.
        rows: (u32, u32),
    },
    /// Two concurrently in-flight exchanges can emit matchable messages
    /// with the same `(src, dst, tag)` — the runtime would cross-match
    /// them.
    TagCollision {
        /// Sending rank of the colliding messages.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// The shared tag.
        tag: u64,
        /// Label of the first claiming exchange.
        first: String,
        /// Label of the second claiming exchange.
        second: String,
    },
    /// An application exchange claims a tag with the reserved reply bit
    /// set, invading the collectives' reply namespace.
    ReservedTagBit {
        /// The offending tag.
        tag: u64,
        /// Label of the claiming exchange.
        exchange: String,
    },
    /// The send/recv match graph admits no topological order: these
    /// `(rank, op index)` ops wait on each other in a cycle.
    DeadlockCycle {
        /// The cyclic ops, in dependency order.
        cycle: Vec<(usize, usize)>,
    },
    /// A receive waits for a message no one sends (or from a rank outside
    /// the world) — it can only time out or steal a later exchange's
    /// message.
    UnmatchedRecv {
        /// The rank the receive expects the message from.
        peer: usize,
        /// The tag it matches on.
        tag: u64,
    },
    /// A sent message is never received; it lingers in the mailbox and
    /// can cross-match a later exchange reusing the tag.
    UnconsumedSend {
        /// The destination rank.
        peer: usize,
        /// The message tag.
        tag: u64,
    },
    /// Two writes land on the same scratch position within one level —
    /// the second silently overwrites the first.
    ScratchAliasing {
        /// The position written twice.
        position: u32,
        /// The first write.
        first: WriteOrigin,
        /// The overwriting write.
        second: WriteOrigin,
    },
    /// Structurally malformed program: index out of bounds, mismatched
    /// payload lengths, or similar.
    Malformed {
        /// Human-readable description with the witness inline.
        detail: String,
    },
    /// A plan's peak per-rank footprint exceeds the byte budget it was
    /// made against — executing it would overrun (simulated) device
    /// memory.
    PlanOverBudget {
        /// The budget the plan claims to honor.
        budget: u64,
        /// The actual peak per-rank footprint.
        required: u64,
    },
    /// Slab `index` does not start where the previous slab ended — the
    /// cover has a gap or an overlap.
    SlabCoverBreak {
        /// The offending slab.
        index: usize,
        /// Where it should start (previous slab's end).
        expected_start: usize,
        /// Where it actually starts.
        start: usize,
    },
    /// The slabs end before the stack does: slices `covered..slices`
    /// are never reconstructed.
    SlabCoverShort {
        /// Slices the slabs cover.
        covered: usize,
        /// Slices the plan promises.
        slices: usize,
    },
    /// A slab holds more slices than the plan's fusing factor — its
    /// footprint was never accounted against the budget.
    SlabTooWide {
        /// The offending slab.
        index: usize,
        /// Its slice count.
        len: usize,
        /// The plan's fusing bound.
        fusing: usize,
    },
    /// A slab's residency contradicts the slab count: a single slab
    /// must be resident, multiple slabs must all stream.
    ResidencyConflict {
        /// The slab whose residency is wrong.
        index: usize,
        /// How many slabs the plan has.
        slabs: usize,
    },
    /// The plan carries measured tile weights whose table does not match
    /// the tile grid its volume decomposes into — the weighted Hilbert
    /// partition would panic (short table) or silently ignore entries
    /// (long table).
    WeightGridMismatch {
        /// Weight entries the plan carries.
        weights: usize,
        /// Tiles per axis of the `n × n` slice plane at the weights'
        /// tile size.
        grid_side: usize,
    },
    /// The interval bounds proof failed: an index table reaches outside
    /// the buffer it addresses.
    IndexOutOfBounds {
        /// Which table of the level program the access lives in.
        access: AccessKind,
        /// The offending index (the interval's upper bound).
        index: u32,
        /// The addressed buffer's declared length.
        len: usize,
    },
    /// A scratch region is read while an in-flight exchange still has
    /// pending writes into it — the read observes partially-delivered
    /// data.
    PendingWriteRead {
        /// The buffer region (e.g. `acc`, `cur`).
        buffer: &'static str,
        /// The pipeline slice whose in-flight exchange owns the region.
        slice: usize,
        /// Outstanding writes (posted irecvs not yet waited).
        pending: usize,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Conservation {
                holder,
                row,
                delivered,
            } => write!(
                f,
                "conservation: rank {holder}'s contribution for row {row} delivered {delivered}× (expected exactly once)"
            ),
            ViolationKind::MixedRows { position, rows } => write!(
                f,
                "mixed rows: position {position} accumulates rows {} and {}",
                rows.0, rows.1
            ),
            ViolationKind::TagCollision {
                src,
                dst,
                tag,
                first,
                second,
            } => write!(
                f,
                "tag collision: {first} and {second} both send {src}→{dst} with tag {tag:#x}"
            ),
            ViolationKind::ReservedTagBit { tag, exchange } => write!(
                f,
                "{exchange} claims tag {tag:#x} with the reserved reply bit set"
            ),
            ViolationKind::DeadlockCycle { cycle } => {
                write!(f, "deadlock cycle:")?;
                for (rank, op) in cycle {
                    write!(f, " (rank {rank}, op {op})")?;
                }
                Ok(())
            }
            ViolationKind::UnmatchedRecv { peer, tag } => write!(
                f,
                "receive from rank {peer} tag {tag:#x} matches no send"
            ),
            ViolationKind::UnconsumedSend { peer, tag } => write!(
                f,
                "send to rank {peer} tag {tag:#x} is never received"
            ),
            ViolationKind::ScratchAliasing {
                position,
                first,
                second,
            } => write!(
                f,
                "scratch aliasing at position {position}: {second} overwrites {first}"
            ),
            ViolationKind::Malformed { detail } => write!(f, "malformed program: {detail}"),
            ViolationKind::PlanOverBudget { budget, required } => write!(
                f,
                "plan over budget: peak per-rank footprint {required} B exceeds budget {budget} B"
            ),
            ViolationKind::SlabCoverBreak {
                index,
                expected_start,
                start,
            } => write!(
                f,
                "slab {index} starts at slice {start}, expected {expected_start} (gap or overlap)"
            ),
            ViolationKind::SlabCoverShort { covered, slices } => write!(
                f,
                "slabs cover {covered} of {slices} slices; the tail is never reconstructed"
            ),
            ViolationKind::SlabTooWide { index, len, fusing } => write!(
                f,
                "slab {index} holds {len} slices, above the fusing bound {fusing}"
            ),
            ViolationKind::ResidencyConflict { index, slabs } => write!(
                f,
                "slab {index} residency contradicts the slab count ({slabs})"
            ),
            ViolationKind::WeightGridMismatch { weights, grid_side } => write!(
                f,
                "tile-weight table has {weights} entries, the volume decomposes into a \
                 {grid_side}x{grid_side} tile grid"
            ),
            ViolationKind::IndexOutOfBounds { access, index, len } => write!(
                f,
                "bounds: {access} index {index} outside buffer of length {len}"
            ),
            ViolationKind::PendingWriteRead {
                buffer,
                slice,
                pending,
            } => write!(
                f,
                "lifetime: `{buffer}` of slice {slice} read with {pending} in-flight write(s) pending"
            ),
        }
    }
}

/// One verification finding: what went wrong, where.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The rank the violation was detected at (the receiver/owner side
    /// for routing defects, the program's rank for deadlock ops).
    pub rank: usize,
    /// The exchange level, when the check is level-scoped.
    pub level: Option<ExchangeLevel>,
    /// The defect and its witness.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}", self.rank)?;
        if let Some(level) = self.level {
            write!(f, " [{level}]")?;
        }
        write!(f, ": {}", self.kind)
    }
}

/// The outcome of one verification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// An empty (passing) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no violations were found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a violation.
    pub fn push(&mut self, rank: usize, level: Option<ExchangeLevel>, kind: ViolationKind) {
        self.violations.push(Violation { rank, level, kind });
    }

    /// Absorbs another report's findings.
    pub fn merge(&mut self, other: VerifyReport) {
        self.violations.extend(other.violations);
    }

    /// Panics with the full diagnostic listing when violations exist —
    /// the debug-mode / `--verify-plans` enforcement hook.
    pub fn assert_ok(&self, what: &str) {
        assert!(self.ok(), "{what} failed verification:\n{self}");
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(f, "no violations");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}
