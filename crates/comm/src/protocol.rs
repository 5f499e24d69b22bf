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
//! **The program**: [`apply`] and [`solve`] list, per rank, the [`Op`]s
//! a run executes, in order: one apply, and the solver's skeleton of
//! applies and collective rounds. The executor (`RankPlan::reduce` /
//! `RankPlan::scatter`) runs the apply segments; `xct-verify`'s
//! deadlock, lifetime and tag passes are folds over the same lists.

use crate::compiled::RankPlan;
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
    /// [`apply`] orders by `overlap`), or once per apply over the whole
    /// batch on its base tag (the socket and node levels).
    pub const fn per_slice(self) -> bool {
        matches!(self, ExchangeLevel::Global | ExchangeLevel::ScatterGlobal)
    }

    /// The tag a [`Op::Post`] / [`Op::Drain`] of `slice` travels under:
    /// the base tag for the whole batch (`None`), XORed with the slice's
    /// [`slice_salt`] otherwise.
    pub const fn wire_tag(self, slice: Option<usize>) -> u64 {
        match slice {
            Some(f) => self.tag() ^ slice_salt(f),
            None => self.tag(),
        }
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
    /// The solver's one round per iteration: CGLS's inner products
    /// `[(s,s), (t,t), (r,r)]`, SIRT's residual norm, and either
    /// solver's measure of its last iterate (and SIRT's `‖y‖²`).
    pub const INNER_PRODUCTS: Collective = Collective::at(0x9000, "cg inner products allreduce");

    /// Every call site, in the order an iteration reaches them.
    pub const ALL: [Collective; 1] = [Collective::INNER_PRODUCTS];

    const fn at(tag: u64, name: &'static str) -> Collective {
        Collective { tag, name }
    }
}

/// Which apply of the operator an op list segment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Apply {
    /// `A·x`: the kernel, then the forward levels (footprint → owned).
    Forward,
    /// `Aᵀ·y`: the transpose levels (owned → footprint), then the kernel.
    Transpose,
}

/// One step of a rank's program, in the order it runs. A global level's
/// `Post` / `Drain` carry the fused slice they move under its
/// [`slice_salt`]; a local level's carry `None`, the whole batch on the
/// level's base tag ([`ExchangeLevel::wire_tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The rank's fused kernel over the whole batch.
    Launch,
    /// Quantize the caller's batch into the held batch.
    Hold,
    /// Send the level's messages out of the held batch and post its
    /// receives into the slice's pending slot.
    Post {
        /// The exchange.
        level: ExchangeLevel,
        /// The fused slice, or `None` for the whole batch.
        slice: Option<usize>,
    },
    /// Wait for the slot's receives and form the slice's output.
    Drain {
        /// The exchange.
        level: ExchangeLevel,
        /// The fused slice, or `None` for the whole batch.
        slice: Option<usize>,
    },
    /// The held batch takes the level's output.
    Advance,
    /// Widen the held batch into the caller's buffer.
    Widen,
    /// One allreduce of the solver.
    Collective(Collective),
}

/// The ops of one apply of `rank` at `slices` fused slices, over its
/// forward or transpose level list: the kernel before the levels
/// ([`Apply::Forward`]) or after them ([`Apply::Transpose`]), the batch
/// held before the first level and widened after the last. Each level is
/// posted, drained and advanced past: a local level is one `Post` /
/// `Drain` pair for the whole batch; a global level
/// ([`ExchangeLevel::per_slice`]) one pair per slice, in the order
/// `overlap` selects:
///
/// * synchronous (`overlap = false`): `Post(0) Drain(0) Post(1) Drain(1)
///   …` — one exchange in flight at a time; every slice pays its own wire
///   latency. This is the bit-identity oracle.
/// * overlapped (`overlap = true`): `Post(0) … Post(n−1) Drain(0) …
///   Drain(n−1)` — every slice's exchange is on the wire while the later
///   slices are posted, and the drains find most messages already
///   delivered: one latency per apply instead of `n`.
///
/// Both orders post every slice before draining it, and the slices are
/// data-independent (distinct tag salts, pending slots and output
/// ranges), so the overlapped order is bit-identical to the synchronous
/// one — only the waiting moves. The iterator allocates nothing.
pub fn apply(
    rank: &RankPlan,
    apply: Apply,
    slices: usize,
    overlap: bool,
) -> impl Iterator<Item = Op> + Clone + '_ {
    let (forward, levels) = match apply {
        Apply::Forward => (true, rank.forward()),
        Apply::Transpose => (false, rank.transpose()),
    };
    let exchanges = levels.iter().flat_map(move |program| {
        let (level, per_slice) = (program.level(), program.level().per_slice());
        let pair = move |f| {
            let slice = per_slice.then_some(f);
            [Op::Post { level, slice }, Op::Drain { level, slice }]
        };
        // Overlapped: every post, then every drain; synchronous: each
        // slice's post, then its drain.
        let n = if per_slice { slices } else { 1 };
        let order = move |i| match overlap {
            true => pair(i % n)[i / n],
            false => pair(i / 2)[i % 2],
        };
        (0..2 * n).map(order).chain([Op::Advance])
    });
    (forward.then_some(Op::Launch).into_iter())
        .chain([Op::Hold])
        .chain(exchanges)
        .chain([Op::Widen])
        .chain((!forward).then_some(Op::Launch))
}

/// The program of one solve of `rank` of `iterations` iterations — the
/// skeleton CGLS and SIRT share: a set-up transpose apply, then per
/// iteration the forward apply, the [`Collective::INNER_PRODUCTS`] round
/// and the transpose apply, then the round that measures the last
/// iterate (none when no iteration ran). SIRT's set-up probes and last
/// measure add applies and rounds around the same iteration body.
pub fn solve(
    rank: &RankPlan,
    slices: usize,
    overlap: bool,
    iterations: usize,
) -> impl Iterator<Item = Op> + Clone + '_ {
    let round = Op::Collective(Collective::INNER_PRODUCTS);
    let forward = apply(rank, Apply::Forward, slices, overlap);
    let back = apply(rank, Apply::Transpose, slices, overlap);
    let body = back.clone();
    back.chain(
        (0..iterations).flat_map(move |_| forward.clone().chain([round]).chain(body.clone())),
    )
    .chain((iterations > 0).then_some(round))
}

#[cfg(test)]
mod tests {
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

    fn global(slice: usize) -> [Op; 2] {
        let slice = Some(slice);
        let level = ExchangeLevel::Global;
        [Op::Post { level, slice }, Op::Drain { level, slice }]
    }

    /// A rank whose two lists run `forward` and `transpose`.
    fn rank(forward: &[ExchangeLevel], transpose: &[ExchangeLevel]) -> RankPlan {
        let programs = |levels: &[ExchangeLevel]| {
            let program = |&l| crate::LevelProgram::from_parts(l, 0, vec![], vec![], vec![]);
            levels.iter().map(program).collect()
        };
        RankPlan::from_parts(0, 0, programs(forward), programs(transpose))
    }

    #[test]
    fn synchronous_apply_is_strictly_per_slice() {
        let flat = rank(&[ExchangeLevel::Global], &[]);
        let ops: Vec<_> = apply(&flat, Apply::Forward, 3, false).collect();
        let ([p0, d0], [p1, d1], [p2, d2]) = (global(0), global(1), global(2));
        let want: Vec<Op> = [Op::Launch, Op::Hold]
            .into_iter()
            .chain([p0, d0, p1, d1, p2, d2])
            .chain([Op::Advance, Op::Widen])
            .collect();
        assert_eq!(ops, want);
    }

    #[test]
    fn overlapped_apply_posts_all_then_drains_in_slice_order() {
        let flat = rank(&[], &[ExchangeLevel::Global]);
        let ops: Vec<_> = apply(&flat, Apply::Transpose, 3, true).collect();
        let ([p0, d0], [p1, d1], [p2, d2]) = (global(0), global(1), global(2));
        let want: Vec<Op> = [Op::Hold]
            .into_iter()
            .chain([p0, p1, p2, d0, d1, d2])
            .chain([Op::Advance, Op::Widen, Op::Launch])
            .collect();
        assert_eq!(ops, want);
    }

    #[test]
    fn a_local_level_is_one_pair_for_the_whole_batch_in_both_orders() {
        let level = ExchangeLevel::Socket;
        let socket = rank(&[level], &[]);
        for overlap in [false, true] {
            let ops: Vec<_> = apply(&socket, Apply::Forward, 8, overlap).collect();
            let slice = None;
            let pair = [Op::Post { level, slice }, Op::Drain { level, slice }];
            let want: Vec<Op> = [Op::Launch, Op::Hold]
                .into_iter()
                .chain(pair)
                .chain([Op::Advance, Op::Widen])
                .collect();
            assert_eq!(ops, want, "overlap={overlap}");
            assert_eq!(level.wire_tag(slice), level.tag());
        }
    }

    #[test]
    fn both_orders_post_every_slice_once_before_draining_it() {
        let full = rank(&ExchangeLevel::REDUCE, &ExchangeLevel::SCATTER);
        for slices in [1, 2, 3, 8] {
            for overlap in [false, true] {
                for (dir, levels) in [
                    (Apply::Forward, ExchangeLevel::REDUCE),
                    (Apply::Transpose, ExchangeLevel::SCATTER),
                ] {
                    let ops: Vec<_> = apply(&full, dir, slices, overlap).collect();
                    let at = |op: Op| ops.iter().position(|&o| o == op);
                    for level in levels {
                        let n = if level.per_slice() { slices } else { 1 };
                        for f in 0..n {
                            let slice = level.per_slice().then_some(f);
                            let post = at(Op::Post { level, slice }).unwrap();
                            let drain = at(Op::Drain { level, slice }).unwrap();
                            assert!(
                                post < drain,
                                "{level} slice {f} drained before it was posted"
                            );
                        }
                    }
                    let (mut pending, mut deepest) = (0usize, 0usize);
                    for op in &ops {
                        match op {
                            Op::Post { .. } => pending += 1,
                            Op::Drain { .. } => pending -= 1,
                            Op::Advance => {
                                assert_eq!(pending, 0, "advanced with receives in flight")
                            }
                            _ => {}
                        }
                        deepest = deepest.max(pending);
                    }
                    assert_eq!(pending, 0);
                    assert_eq!(deepest, if overlap { slices } else { 1 });
                    let posts = ops.iter().filter(|op| matches!(op, Op::Post { .. }));
                    assert_eq!(
                        posts.count(),
                        2 + slices,
                        "slices={slices} overlap={overlap}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_solve_is_the_set_up_transpose_then_forward_round_transpose_per_iteration() {
        let full = rank(&ExchangeLevel::REDUCE, &ExchangeLevel::SCATTER);
        for iterations in [0, 1, 2, 5] {
            let ops: Vec<_> = solve(&full, 2, true, iterations).collect();
            let launches = ops.iter().filter(|&&op| op == Op::Launch).count();
            let rounds: Vec<_> = ops
                .iter()
                .filter(|op| matches!(op, Op::Collective(_)))
                .collect();
            assert_eq!(launches, 1 + 2 * iterations);
            assert_eq!(rounds.len(), iterations + usize::from(iterations > 0));
            assert!(rounds
                .iter()
                .all(|&&op| op == Op::Collective(Collective::INNER_PRODUCTS)));
            // The solve opens with the set-up transpose apply; each
            // iteration is forward, round, transpose.
            let back: Vec<_> = apply(&full, Apply::Transpose, 2, true).collect();
            let forward: Vec<_> = apply(&full, Apply::Forward, 2, true).collect();
            assert_eq!(ops[..back.len()], back[..]);
            if iterations > 0 {
                let body = &ops[back.len()..];
                assert_eq!(body[..forward.len()], forward[..]);
                assert_eq!(body[forward.len()], rounds[0].clone());
                assert_eq!(body[forward.len() + 1..][..back.len()], back[..]);
            }
        }
    }
}
