//! Communication plans: direct vs. three-level hierarchical partial-data
//! reduction (paper §III-D, Figs 6–7).
//!
//! Inputs are geometric, not numeric: the *footprint* of each rank (which
//! global sinogram rows its partial projection touches) and the
//! *ownership* map (which rank owns each row after decomposition). From
//! those two, exact communication volumes fall out per pair and per level
//! — this is how the harness regenerates Fig 6 and Table IV without any
//! timing involved.

// Row and position ids in this module are `u32` by the `Ownership`
// contract (`num_rows` fits `u32`); enumerate-index casts back into that
// space are lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::topology::Topology;
use std::collections::HashMap;
use std::ops::Range;

/// Structured error for malformed plan-construction inputs.
///
/// PR 3 taught us that silently accepting a malformed table (unsorted
/// rows) produces corruption far from the cause, so plan inputs are
/// validated *at build time, in release builds too*, and the rejection
/// carries a witness (the offending row/range/position) instead of a
/// boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An owner entry names a rank outside the world.
    OwnerOutOfRange {
        /// The row whose owner is invalid.
        row: u32,
        /// The out-of-range owner.
        owner: u32,
        /// World size.
        num_ranks: usize,
    },
    /// Two ownership ranges cover a common row.
    OverlappingRanges {
        /// Earlier range (by start), half-open `[start, end)`.
        first: (u32, u32),
        /// The range overlapping it.
        second: (u32, u32),
    },
    /// An ownership range reaches past the row space.
    RangeOutOfBounds {
        /// The offending range, half-open.
        range: (u32, u32),
        /// Number of global rows.
        num_rows: usize,
    },
    /// A row is covered by no ownership range.
    UncoveredRow {
        /// The first uncovered row.
        row: u32,
    },
    /// A transfer's position table is not strictly ascending (duplicate
    /// or out-of-order index).
    UnsortedIndices {
        /// Offset of the violation within the table.
        position: usize,
        /// The entry at `position - 1`.
        prev: u32,
        /// The entry at `position`.
        next: u32,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::OwnerOutOfRange {
                row,
                owner,
                num_ranks,
            } => write!(
                f,
                "owner out of range: row {row} owned by rank {owner} (world size {num_ranks})"
            ),
            PlanError::OverlappingRanges { first, second } => write!(
                f,
                "ownership ranges overlap: [{}, {}) and [{}, {})",
                first.0, first.1, second.0, second.1
            ),
            PlanError::RangeOutOfBounds { range, num_rows } => write!(
                f,
                "ownership range [{}, {}) exceeds row space of {num_rows}",
                range.0, range.1
            ),
            PlanError::UncoveredRow { row } => {
                write!(f, "row {row} is covered by no ownership range")
            }
            PlanError::UnsortedIndices {
                position,
                prev,
                next,
            } => write!(
                f,
                "transfer indices must be strictly ascending: position {position} holds {next} after {prev}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Per-rank partial-data footprints: `per_rank[p]` lists the global row
/// ids rank `p` produces partial sums for, sorted ascending.
#[derive(Debug, Clone, Default)]
pub struct Footprints {
    /// Footprint per rank.
    pub per_rank: Vec<Vec<u32>>,
}

impl Footprints {
    /// Builds from unsorted lists; sorts and dedups each.
    pub fn new(mut per_rank: Vec<Vec<u32>>) -> Self {
        for fp in &mut per_rank {
            fp.sort_unstable();
            fp.dedup();
        }
        Footprints { per_rank }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Total footprint elements (the "partial data" volume of Fig 6a
    /// before any reduction).
    pub fn total_elements(&self) -> u64 {
        self.per_rank.iter().map(|f| f.len() as u64).sum()
    }
}

/// Row → owning rank.
#[derive(Debug, Clone)]
pub struct Ownership {
    /// Owner rank per global row.
    pub owner: Vec<u32>,
}

impl Ownership {
    /// Creates an ownership map; every owner must be a valid rank.
    pub fn new(owner: Vec<u32>, num_ranks: usize) -> Self {
        match Self::try_new(owner, num_ranks) {
            Ok(own) => own,
            // xct-allow(no-panic): validated constructor — rejects invalid owners at the boundary; try_new is the fallible form
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Ownership::new`]: rejects invalid owners with a
    /// structured witness instead of panicking.
    pub fn try_new(owner: Vec<u32>, num_ranks: usize) -> Result<Self, PlanError> {
        for (row, &o) in owner.iter().enumerate() {
            if (o as usize) >= num_ranks {
                return Err(PlanError::OwnerOutOfRange {
                    row: row as u32,
                    owner: o,
                    num_ranks,
                });
            }
        }
        Ok(Ownership { owner })
    }

    /// Builds ownership from contiguous `(rows, rank)` ranges. The ranges
    /// must partition `0..num_rows`: overlapping or duplicate ranges, a
    /// range past the row space, gaps, and out-of-range ranks are all
    /// rejected with a structured error naming the witness.
    pub fn from_ranges(
        ranges: &[(Range<u32>, u32)],
        num_rows: usize,
        num_ranks: usize,
    ) -> Result<Self, PlanError> {
        let mut sorted: Vec<&(Range<u32>, u32)> = ranges.iter().collect();
        sorted.sort_by_key(|(r, _)| (r.start, r.end));
        let mut next_row = 0u32;
        let mut last: (u32, u32) = (0, 0);
        let mut owner = vec![0u32; num_rows];
        for (range, rank) in sorted {
            if range.is_empty() {
                continue;
            }
            if (range.end as usize) > num_rows {
                return Err(PlanError::RangeOutOfBounds {
                    range: (range.start, range.end),
                    num_rows,
                });
            }
            if (*rank as usize) >= num_ranks {
                return Err(PlanError::OwnerOutOfRange {
                    row: range.start,
                    owner: *rank,
                    num_ranks,
                });
            }
            if range.start < next_row {
                // Overlaps the previous non-empty range in start order.
                return Err(PlanError::OverlappingRanges {
                    first: last,
                    second: (range.start, range.end),
                });
            }
            if range.start > next_row {
                return Err(PlanError::UncoveredRow { row: next_row });
            }
            for row in range.clone() {
                owner[row as usize] = *rank;
            }
            next_row = range.end;
            last = (range.start, range.end);
        }
        if (next_row as usize) < num_rows {
            return Err(PlanError::UncoveredRow { row: next_row });
        }
        Ok(Ownership { owner })
    }

    /// Rows owned by `rank`, ascending.
    pub fn rows_of(&self, rank: usize) -> Vec<u32> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == rank)
            .map(|(r, _)| r as u32)
            .collect()
    }
}

/// Direct communication: every rank sends each footprint row straight to
/// its owner (Fig 6a — the baseline the hierarchy is measured against).
#[derive(Debug, Clone)]
pub struct DirectPlan {
    /// `sends[p]` = list of `(dst, rows)` transfers, dst ascending.
    pub sends: Vec<Vec<(usize, Vec<u32>)>>,
    num_ranks: usize,
}

impl DirectPlan {
    /// Builds the plan. Rows a rank owns itself cost nothing.
    pub fn build(footprints: &Footprints, ownership: &Ownership) -> Self {
        let num_ranks = footprints.num_ranks();
        let sends = footprints
            .per_rank
            .iter()
            .enumerate()
            .map(|(p, fp)| {
                let mut by_dst: HashMap<usize, Vec<u32>> = HashMap::new();
                for &r in fp {
                    let owner = ownership.owner[r as usize] as usize;
                    if owner != p {
                        by_dst.entry(owner).or_default().push(r);
                    }
                }
                let mut out: Vec<(usize, Vec<u32>)> = by_dst.into_iter().collect();
                out.sort_unstable_by_key(|&(dst, _)| dst);
                out
            })
            .collect();
        DirectPlan { sends, num_ranks }
    }

    /// Dense pairwise volume matrix in elements: `m[src][dst]`
    /// (the communication matrix of Fig 6a).
    pub fn volume_matrix(&self) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; self.num_ranks]; self.num_ranks];
        for (src, sends) in self.sends.iter().enumerate() {
            for (dst, rows) in sends {
                m[src][*dst] += rows.len() as u64;
            }
        }
        m
    }

    /// Total transferred elements.
    pub fn total_elements(&self) -> u64 {
        self.sends
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, rows)| rows.len() as u64)
            .sum()
    }

    /// Elements crossing node boundaries under `topo` — the slow traffic
    /// the hierarchy exists to shrink.
    pub fn internode_elements(&self, topo: &Topology) -> u64 {
        self.sends
            .iter()
            .enumerate()
            .flat_map(|(src, sends)| {
                sends.iter().filter_map(move |(dst, rows)| {
                    (topo.node_of(src) != topo.node_of(*dst)).then_some(rows.len() as u64)
                })
            })
            .sum()
    }
}

/// One local reduction level: within each group, overlapping rows are
/// gathered at a designated member and summed (§III-D2).
#[derive(Debug, Clone)]
pub struct ReductionStep {
    /// The rank groups (sockets or nodes), each ascending.
    pub groups: Vec<Vec<usize>>,
    /// `sends[p]` = `(designee, rows)` transfers of rank `p`, designee
    /// ascending.
    pub sends: Vec<Vec<(usize, Vec<u32>)>>,
    /// Footprints *after* the reduction: `post[p]` = rows rank `p` holds
    /// the group-reduced partial for.
    pub post: Footprints,
}

impl ReductionStep {
    /// Builds one level. Designation rule per row, within each group:
    /// prefer the row's final owner when it is a group member (so the
    /// global step later costs zero for that row); otherwise pick the
    /// least-loaded member already holding the row (the load balancing of
    /// Fig 6b–d).
    pub fn build(footprints: &Footprints, ownership: &Ownership, groups: Vec<Vec<usize>>) -> Self {
        let num_ranks = footprints.num_ranks();
        let mut sends: Vec<Vec<(usize, Vec<u32>)>> = vec![Vec::new(); num_ranks];
        let mut post: Vec<Vec<u32>> = vec![Vec::new(); num_ranks];

        for group in &groups {
            // Union footprint of the group with holder sets.
            let mut holders: HashMap<u32, Vec<usize>> = HashMap::new();
            for &p in group {
                for &r in &footprints.per_rank[p] {
                    holders.entry(r).or_default().push(p);
                }
            }
            let mut rows: Vec<u32> = holders.keys().copied().collect();
            rows.sort_unstable();

            let mut load: HashMap<usize, usize> = group.iter().map(|&p| (p, 0)).collect();
            let mut by_sender: HashMap<usize, HashMap<usize, Vec<u32>>> = HashMap::new();
            for r in rows {
                let hs = &holders[&r];
                let owner = ownership.owner[r as usize] as usize;
                let designee = if group.contains(&owner) {
                    owner
                } else {
                    // Least-loaded current holder keeps the reduced value.
                    *hs.iter()
                        .min_by_key(|&&p| (load[&p], p))
                        // xct-allow(no-panic): infallible — hs is non-empty (the row appeared in a holder set)
                        .expect("row has at least one holder")
                };
                // xct-allow(no-panic): infallible — designee was drawn from this group's load map
                *load.get_mut(&designee).expect("designee in group") += 1;
                post[designee].push(r);
                for &p in hs {
                    if p != designee {
                        by_sender
                            .entry(p)
                            .or_default()
                            .entry(designee)
                            .or_default()
                            .push(r);
                    }
                }
            }
            for (src, by_dst) in by_sender {
                let mut out: Vec<(usize, Vec<u32>)> = by_dst.into_iter().collect();
                out.sort_unstable_by_key(|&(dst, _)| dst);
                sends[src] = out;
            }
        }

        ReductionStep {
            groups,
            sends,
            post: Footprints::new(post),
        }
    }

    /// Elements moved in this level.
    pub fn total_elements(&self) -> u64 {
        self.sends
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, rows)| rows.len() as u64)
            .sum()
    }

    /// Pairwise volume matrix (block-diagonal by construction — Fig 6b/c).
    pub fn volume_matrix(&self, num_ranks: usize) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; num_ranks]; num_ranks];
        for (src, sends) in self.sends.iter().enumerate() {
            for (dst, rows) in sends {
                m[src][*dst] += rows.len() as u64;
            }
        }
        m
    }
}

/// The full three-level hierarchy: socket reduction → node reduction →
/// global exchange (paper §III-D3).
#[derive(Debug, Clone)]
pub struct HierarchicalPlan {
    /// Socket-level reduction (NVLink).
    pub socket: ReductionStep,
    /// Node-level reduction (X-bus).
    pub node: ReductionStep,
    /// Global exchange of reduced partials to owners (InfiniBand).
    pub global: DirectPlan,
}

impl HierarchicalPlan {
    /// Builds all three levels for `topo`.
    pub fn build(footprints: &Footprints, ownership: &Ownership, topo: &Topology) -> Self {
        assert_eq!(
            footprints.num_ranks(),
            topo.size(),
            "footprints do not match topology size"
        );
        let socket = ReductionStep::build(footprints, ownership, topo.socket_groups());
        let node = ReductionStep::build(&socket.post, ownership, topo.node_groups());
        let global = DirectPlan::build(&node.post, ownership);
        HierarchicalPlan {
            socket,
            node,
            global,
        }
    }

    /// `(socket, node, global)` volumes in elements — the rows of
    /// Table IV.
    pub fn level_elements(&self) -> (u64, u64, u64) {
        (
            self.socket.total_elements(),
            self.node.total_elements(),
            self.global.total_elements(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 nodes × 2 sockets × 2 GPUs, rows 0..16, owner = row / 2,
    /// footprints overlapping heavily within sockets.
    fn example() -> (Footprints, Ownership, Topology) {
        let topo = Topology::new(2, 2, 2);
        let owner: Vec<u32> = (0..16u32).map(|r| r / 2).collect();
        // Every rank's footprint: its own rows plus the next 6 rows
        // (wrapping) — guarantees overlap with socket peers.
        let fp: Vec<Vec<u32>> = (0..8usize)
            .map(|p| (0..8u32).map(|i| (p as u32 * 2 + i) % 16).collect())
            .collect();
        (Footprints::new(fp), Ownership::new(owner, 8), topo)
    }

    #[test]
    fn direct_plan_routes_every_foreign_row() {
        let (fp, own, _) = example();
        let plan = DirectPlan::build(&fp, &own);
        // Each rank holds 8 rows, 2 of which it owns: 6 sends each.
        assert_eq!(plan.total_elements(), 8 * 6);
        let m = plan.volume_matrix();
        for (src, row) in m.iter().enumerate() {
            assert_eq!(row[src], 0, "no self-sends");
        }
    }

    #[test]
    fn hierarchy_reduces_internode_traffic() {
        let (fp, own, topo) = example();
        let direct = DirectPlan::build(&fp, &own);
        let hier = HierarchicalPlan::build(&fp, &own, &topo);
        let direct_internode = direct.internode_elements(&topo);
        let hier_internode = hier.global.internode_elements(&topo);
        assert!(
            hier_internode < direct_internode,
            "hierarchy must shrink inter-node volume: {hier_internode} vs {direct_internode}"
        );
    }

    #[test]
    fn local_steps_stay_inside_groups() {
        let (fp, own, topo) = example();
        let hier = HierarchicalPlan::build(&fp, &own, &topo);
        for (src, sends) in hier.socket.sends.iter().enumerate() {
            for (dst, _) in sends {
                assert_eq!(topo.socket_of(src), topo.socket_of(*dst));
            }
        }
        for (src, sends) in hier.node.sends.iter().enumerate() {
            for (dst, _) in sends {
                assert_eq!(topo.node_of(src), topo.node_of(*dst));
                assert_ne!(
                    topo.socket_of(src),
                    topo.socket_of(*dst),
                    "socket-internal traffic should be gone after socket level"
                );
            }
        }
    }

    #[test]
    fn every_row_reaches_exactly_one_holder_per_level() {
        let (fp, own, topo) = example();
        let hier = HierarchicalPlan::build(&fp, &own, &topo);
        // After node reduction, each (node, row) pair appears at most once.
        for node_group in topo.node_groups() {
            let mut seen = std::collections::HashSet::new();
            for &p in &node_group {
                for &r in &hier.node.post.per_rank[p] {
                    assert!(seen.insert(r), "row {r} duplicated within node");
                }
            }
        }
        let _ = own;
    }

    #[test]
    fn owner_designation_zeroes_global_cost_for_local_rows() {
        // Single node: after node-level reduction every row is at its
        // owner, so the global plan is empty.
        let topo = Topology::new(1, 2, 2);
        let owner: Vec<u32> = (0..8u32).map(|r| r / 2).collect();
        let fp: Vec<Vec<u32>> = (0..4usize).map(|_| (0..8u32).collect()).collect();
        let hier = HierarchicalPlan::build(&Footprints::new(fp), &Ownership::new(owner, 4), &topo);
        assert_eq!(hier.global.total_elements(), 0);
    }

    #[test]
    fn footprints_dedup_and_sort() {
        let fp = Footprints::new(vec![vec![3, 1, 3, 2]]);
        assert_eq!(fp.per_rank[0], vec![1, 2, 3]);
        assert_eq!(fp.total_elements(), 3);
    }

    #[test]
    #[should_panic(expected = "owner out of range")]
    fn bad_owner_rejected() {
        Ownership::new(vec![9], 4);
    }

    #[test]
    fn try_new_reports_witness_row() {
        let err = Ownership::try_new(vec![0, 1, 9], 4).unwrap_err();
        assert_eq!(
            err,
            PlanError::OwnerOutOfRange {
                row: 2,
                owner: 9,
                num_ranks: 4
            }
        );
    }

    #[test]
    fn ownership_from_ranges_partitions() {
        let own = Ownership::from_ranges(&[(4..8, 0), (0..4, 1)], 8, 2).unwrap();
        assert_eq!(own.rows_of(1), vec![0, 1, 2, 3]);
        assert_eq!(own.rows_of(0), vec![4, 5, 6, 7]);
    }

    #[test]
    fn overlapping_ranges_rejected_with_witness() {
        let err = Ownership::from_ranges(&[(0..5, 0), (3..8, 1)], 8, 2).unwrap_err();
        assert_eq!(
            err,
            PlanError::OverlappingRanges {
                first: (0, 5),
                second: (3, 8)
            }
        );
    }

    #[test]
    fn duplicate_range_rejected() {
        let err = Ownership::from_ranges(&[(0..4, 0), (0..4, 1), (4..8, 1)], 8, 2).unwrap_err();
        assert!(matches!(err, PlanError::OverlappingRanges { .. }));
    }

    #[test]
    fn ownership_gap_rejected() {
        let err = Ownership::from_ranges(&[(0..3, 0), (5..8, 1)], 8, 2).unwrap_err();
        assert_eq!(err, PlanError::UncoveredRow { row: 3 });
    }

    #[test]
    fn range_past_row_space_rejected() {
        let err = Ownership::from_ranges(&[(0..9, 0)], 8, 1).unwrap_err();
        assert_eq!(
            err,
            PlanError::RangeOutOfBounds {
                range: (0, 9),
                num_rows: 8
            }
        );
    }
}
