//! The wire protocol of the distributed operator (paper §III-D, §III-E):
//! the one contract between the crate that executes the exchanges
//! (this one), the crate that drives them (`xct-core`'s `RankOperator`)
//! and the crate that proves them safe (`xct-verify`). Each of them reads
//! the tag layout and the exchange schedule from here; none restates them.
//!
//! **Levels.** [`ExchangeLevel`] names the six exchanges of the compiled
//! pipeline and owns everything that follows from the name: base tag,
//! traffic class, telemetry span and display name. A compiled level
//! program carries its level, so the executor and the verifier read it
//! off the program instead of its position.
//!
//! **Tag namespace.** A tag is 64 bits, matched per `(source, tag)` in
//! FIFO order: a base tag below bit [`SLICE_SALT_SHIFT`] (an exchange
//! level's, or a [`Collective`]'s, whose butterfly rounds add
//! `(k + 1) << 32`: [`crate::Leg::Round`]), the fused slice's
//! [`slice_salt`] from there up to bit 62 — on the two global levels
//! only ([`ExchangeLevel::per_slice`]) — and [`REPLY_TAG_SALT`] in bit
//! 63, which only the collectives' down leg sets. DESIGN.md §3c draws
//! the table.
//!
//! **Schedule**: the rank's kernel runs once per apply over the whole
//! minibatch, and so do the local socket/node levels of both directions —
//! one message per peer carrying every slice, on the level's base tag.
//! What remains per slice is the global exchange: [`ExchangeOp::Post`]
//! — the nonblocking post of the slice's global exchange — and
//! [`ExchangeOp::Drain`] — completing it. [`exchange_schedule`] is the
//! order of the two, for both settings of `overlap`; the forward local
//! levels run before the first post, the transpose ones after the last
//! drain.

use crate::metrics::TrafficClass;
use crate::runtime::REPLY_TAG_SALT;
use std::fmt;
use xct_telemetry::Phase;

/// One exchange of the compiled pipeline: the forward reduction runs
/// socket → node → global, the transpose scatter global → node →
/// socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeLevel {
    /// Forward socket-level reduction.
    Socket,
    /// Forward node-level reduction.
    Node,
    /// Forward global exchange to owners.
    Global,
    /// Scatter global stage (owners fan values back out).
    ScatterGlobal,
    /// Scatter node-level fan-out.
    ScatterNode,
    /// Scatter socket-level fan-out.
    ScatterSocket,
}

impl ExchangeLevel {
    /// The forward reduction's levels, in execution order.
    pub const REDUCE: [ExchangeLevel; 3] = [
        ExchangeLevel::Socket,
        ExchangeLevel::Node,
        ExchangeLevel::Global,
    ];

    /// The transpose scatter's levels, in execution order.
    pub const SCATTER: [ExchangeLevel; 3] = [
        ExchangeLevel::ScatterGlobal,
        ExchangeLevel::ScatterNode,
        ExchangeLevel::ScatterSocket,
    ];

    /// The level's base tag: a local level's messages travel under it
    /// as is, a global level's XORed with the fused slice's
    /// [`slice_salt`].
    pub const fn tag(self) -> u64 {
        match self {
            ExchangeLevel::Socket => 0x1100,
            ExchangeLevel::Node => 0x1200,
            ExchangeLevel::Global => 0x1400,
            ExchangeLevel::ScatterGlobal => 0x1500,
            ExchangeLevel::ScatterNode => 0x1600,
            ExchangeLevel::ScatterSocket => 0x1700,
        }
    }

    /// Whether the level runs once per fused slice, each slice under its
    /// own [`slice_salt`] (the two global levels, whose exchanges
    /// [`exchange_schedule`] posts and drains), or once per apply over
    /// the whole batch on its base tag (the socket and node levels).
    pub const fn per_slice(self) -> bool {
        matches!(self, ExchangeLevel::Global | ExchangeLevel::ScatterGlobal)
    }

    /// The traffic class the level's sends are charged to.
    pub const fn class(self) -> TrafficClass {
        match self {
            ExchangeLevel::Socket | ExchangeLevel::ScatterSocket => TrafficClass::Socket,
            ExchangeLevel::Node | ExchangeLevel::ScatterNode => TrafficClass::Node,
            ExchangeLevel::Global | ExchangeLevel::ScatterGlobal => TrafficClass::Global,
        }
    }

    /// The span the executor's level step opens around each post and
    /// each drain of the level: every forward level has its own phase,
    /// and the three scatter levels share the halo exchange's.
    pub const fn span(self) -> Phase {
        match self {
            ExchangeLevel::Socket => Phase::ReduceSocket,
            ExchangeLevel::Node => Phase::ReduceNode,
            ExchangeLevel::Global => Phase::ReduceGlobal,
            ExchangeLevel::ScatterGlobal
            | ExchangeLevel::ScatterNode
            | ExchangeLevel::ScatterSocket => Phase::HaloExchange,
        }
    }

    /// The level's name in diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            ExchangeLevel::Socket => "socket",
            ExchangeLevel::Node => "node",
            ExchangeLevel::Global => "global",
            ExchangeLevel::ScatterGlobal => "scatter-global",
            ExchangeLevel::ScatterNode => "scatter-node",
            ExchangeLevel::ScatterSocket => "scatter-socket",
        }
    }
}

impl fmt::Display for ExchangeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// First bit of the per-slice salt: base tags stay below it.
pub const SLICE_SALT_SHIFT: u32 = 44;

/// The tag salt of fused slice `slice`, XORed onto the global-level tags
/// of that slice so concurrently in-flight slices never match each
/// other's messages. Slice 0's salt is nonzero: unsalted traffic on a
/// level's base tag belongs to no one slice — it is a local level's,
/// carrying the whole minibatch; per-key FIFO keeps consecutive applies
/// apart, as it does the collectives.
pub const fn slice_salt(slice: usize) -> u64 {
    ((slice as u64) + 1) << SLICE_SALT_SHIFT
}

/// Most slices one apply may fuse: the salts of slices
/// `0..MAX_FUSED_SLICES` fill the bits between [`SLICE_SALT_SHIFT`] and
/// [`REPLY_TAG_SALT`]; one slice more would salt its tags into the reply
/// namespace.
#[allow(clippy::cast_possible_truncation)] // 2^19 − 1 at the shipped shift: fits any usize
pub const MAX_FUSED_SLICES: usize = ((REPLY_TAG_SALT >> SLICE_SALT_SHIFT) - 1) as usize;

/// One collective call site of the solver: its base tag and its name in
/// diagnostics. One tag per site suffices: per-key FIFO keeps
/// consecutive collectives on one tag apart. The operator's applies make
/// none — each sender scales its own data (§III-C1), so no rank waits on
/// another's maximum — and a CGLS iteration makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collective {
    /// The call site's base tag.
    pub tag: u64,
    /// The call site's name in diagnostics.
    pub name: &'static str,
}

impl Collective {
    /// CGLS's inner products: `[(s,s), (t,t), (r,r)]` once per iteration.
    pub const INNER_PRODUCTS: Collective = Collective::at(0x9000, "cg inner products allreduce");

    /// Every call site, in the order an iteration reaches them.
    pub const ALL: [Collective; 1] = [Collective::INNER_PRODUCTS];

    const fn at(tag: u64, name: &'static str) -> Collective {
        Collective { tag, name }
    }
}

/// One step of the exchange schedule, for fused slice `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeOp {
    /// Post slice `f`'s global exchange.
    Post(usize),
    /// Complete slice `f`'s global exchange.
    Drain(usize),
}

/// The order in which a rank posts and drains the global exchanges of
/// `n` fused slices.
///
/// * Synchronous (`overlap = false`): `Post(0) Drain(0) Post(1) Drain(1)
///   …` — one exchange in flight at a time; every slice pays its own wire
///   latency. This is the bit-identity oracle.
/// * Overlapped (`overlap = true`): `Post(0) … Post(n−1) Drain(0) …
///   Drain(n−1)` — every slice's exchange is on the wire while the later
///   slices are posted, and the drains find most messages already
///   delivered: one latency per apply instead of `n`.
///
/// Both orders run the same `Post(f)` before the same `Drain(f)` for
/// every `f`, and the slices are data-independent (distinct tag salts,
/// distinct accumulators, distinct output ranges), so the overlapped
/// schedule is bit-identical to the synchronous one — only the waiting
/// moves.
pub fn exchange_schedule(n: usize, overlap: bool) -> impl Iterator<Item = ExchangeOp> {
    (0..2 * n).map(move |i| match (overlap, i < n) {
        (true, true) => ExchangeOp::Post(i),
        (true, false) => ExchangeOp::Drain(i - n),
        (false, _) if i % 2 == 0 => ExchangeOp::Post(i / 2),
        (false, _) => ExchangeOp::Drain(i / 2),
    })
}

#[cfg(test)]
mod tests {
    use super::ExchangeOp::{Drain, Post};
    use super::*;

    #[test]
    fn fused_slice_cap_is_where_the_salt_reaches_the_reply_bit() {
        assert_eq!(slice_salt(MAX_FUSED_SLICES - 1) & REPLY_TAG_SALT, 0);
        assert_eq!(slice_salt(MAX_FUSED_SLICES), REPLY_TAG_SALT);
    }

    #[test]
    fn base_tags_are_distinct_and_below_the_salt_bits() {
        let levels = ExchangeLevel::REDUCE
            .into_iter()
            .chain(ExchangeLevel::SCATTER);
        let mut tags: Vec<u64> = levels.map(ExchangeLevel::tag).collect();
        tags.extend(Collective::ALL.map(|site| site.tag));
        for (i, &tag) in tags.iter().enumerate() {
            assert_eq!(tag >> SLICE_SALT_SHIFT, 0, "{tag:#x}");
            assert!(!tags[..i].contains(&tag), "{tag:#x} defined twice");
        }
    }

    #[test]
    fn the_solvers_inner_products_are_the_only_collective() {
        assert_eq!(Collective::ALL, [Collective::INNER_PRODUCTS]);
    }

    #[test]
    fn only_the_global_levels_are_salted_per_slice() {
        let per_slice: Vec<_> = ExchangeLevel::REDUCE
            .into_iter()
            .chain(ExchangeLevel::SCATTER)
            .filter(|l| l.per_slice())
            .collect();
        assert_eq!(
            per_slice,
            [ExchangeLevel::Global, ExchangeLevel::ScatterGlobal]
        );
    }

    #[test]
    fn synchronous_schedule_is_strictly_per_slice() {
        let ops: Vec<_> = exchange_schedule(3, false).collect();
        assert_eq!(
            ops,
            vec![Post(0), Drain(0), Post(1), Drain(1), Post(2), Drain(2)]
        );
    }

    #[test]
    fn overlapped_schedule_posts_all_then_drains_in_slice_order() {
        let ops: Vec<_> = exchange_schedule(3, true).collect();
        assert_eq!(
            ops,
            vec![Post(0), Post(1), Post(2), Drain(0), Drain(1), Drain(2)]
        );
    }

    #[test]
    fn both_schedules_post_every_slice_once_before_draining_it() {
        for n in 0..6 {
            for overlap in [false, true] {
                let ops: Vec<_> = exchange_schedule(n, overlap).collect();
                assert_eq!(ops.len(), 2 * n);
                let mut in_flight = 0usize;
                let mut deepest = 0usize;
                for f in 0..n {
                    let post = ops.iter().position(|&o| o == Post(f)).unwrap();
                    let drain = ops.iter().position(|&o| o == Drain(f)).unwrap();
                    assert!(post < drain, "slice {f} drained before it was posted");
                }
                for op in &ops {
                    match op {
                        Post(_) => in_flight += 1,
                        Drain(_) => in_flight -= 1,
                    }
                    deepest = deepest.max(in_flight);
                }
                assert_eq!(in_flight, 0);
                assert_eq!(deepest, if overlap { n } else { n.min(1) });
            }
        }
    }
}
