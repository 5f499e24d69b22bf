//! Property tests for the memory-budgeted planner: over random volumes,
//! topologies, precisions, and budgets, every plan the planner emits
//! fits its budget, tiles the slice stack exactly once, and keeps its
//! residency map consistent with the slab count.

use proptest::prelude::*;
use xct_comm::protocol::MAX_FUSED_SLICES;
use xct_comm::Topology;
use xct_fp16::Precision;
use xct_plan::{PlanError, Planner, Residency, VolumeDims};

fn precision(sel: u8) -> Precision {
    match sel % 3 {
        0 => Precision::Single,
        1 => Precision::Mixed,
        _ => Precision::Half,
    }
}

proptest! {
    /// Any budget the planner accepts yields a plan whose peak per-rank
    /// footprint really stays within that budget.
    #[test]
    fn emitted_plans_fit_their_budget(
        n in 4usize..48,
        slices in 1usize..40,
        angles in 4usize..48,
        nodes in 1usize..3,
        sockets in 1usize..3,
        gpus in 1usize..3,
        sel in 0u8..3,
        max_fusing in 1usize..12,
        headroom in 0u64..64,
    ) {
        let planner = Planner {
            precision: precision(sel),
            hierarchical: true,
            overlap: false,
            max_fusing,
            kernel: None,
        };
        let dims = VolumeDims { n, slices };
        let topo = Topology::new(nodes, sockets, gpus);
        let probe = planner.plan(dims, angles, None, topo).unwrap();
        // Anything from the single-slice floor upward must be planable.
        let floor = probe.matrix_bytes_per_rank() + probe.slice_bytes_per_rank();
        let budget = floor + headroom * probe.slice_bytes_per_rank() / 7;
        let plan = planner.plan(dims, angles, Some(budget), topo).unwrap();
        prop_assert!(plan.fits());
        prop_assert!(
            plan.per_rank_bytes() <= budget,
            "peak {} exceeds budget {budget}",
            plan.per_rank_bytes()
        );
        prop_assert!(plan.fusing >= 1);
        prop_assert!(plan.fusing <= max_fusing.min(MAX_FUSED_SLICES));
    }

    /// Budgets below the single-slice floor are rejected with the exact
    /// requirement — the planner never emits a plan it knows cannot run.
    #[test]
    fn impossible_budgets_report_the_exact_requirement(
        n in 4usize..48,
        slices in 1usize..40,
        angles in 4usize..48,
        gpus in 1usize..5,
        sel in 0u8..3,
        shave in 1u64..1_000_000,
    ) {
        let planner = Planner {
            precision: precision(sel),
            hierarchical: true,
            overlap: false,
            max_fusing: 8,
            kernel: None,
        };
        let dims = VolumeDims { n, slices };
        let topo = Topology::new(1, 1, gpus);
        let probe = planner.plan(dims, angles, None, topo).unwrap();
        let floor = probe.matrix_bytes_per_rank() + probe.slice_bytes_per_rank();
        let budget = floor - 1 - shave % floor;
        match planner.plan(dims, angles, Some(budget), topo) {
            Err(PlanError::BudgetTooSmall { budget: b, required }) => {
                prop_assert_eq!(b, budget);
                prop_assert_eq!(required, floor);
                prop_assert!(required > budget);
            }
            other => prop_assert!(false, "expected BudgetTooSmall, got {other:?}"),
        }
    }

    /// Slabs tile the stack exactly once: execution-ordered indices,
    /// contiguous starts from slice 0, every length within the fusing
    /// bound, total length equal to the stack, and residency agreeing
    /// with the slab count (one slab resident, several all streamed).
    #[test]
    fn slabs_tile_the_volume_exactly(
        n in 4usize..48,
        slices in 1usize..60,
        angles in 4usize..48,
        nodes in 1usize..3,
        sockets in 1usize..3,
        gpus in 1usize..3,
        sel in 0u8..3,
        max_fusing in 1usize..12,
        batches in 1u64..6,
    ) {
        let planner = Planner {
            precision: precision(sel),
            hierarchical: true,
            overlap: false,
            max_fusing,
            kernel: None,
        };
        let dims = VolumeDims { n, slices };
        let topo = Topology::new(nodes, sockets, gpus);
        let probe = planner.plan(dims, angles, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + batches * probe.slice_bytes_per_rank();
        let plan = planner.plan(dims, angles, Some(budget), topo).unwrap();
        let mut next = 0usize;
        for (i, slab) in plan.slabs.iter().enumerate() {
            prop_assert_eq!(slab.index, i);
            prop_assert_eq!(slab.start, next, "slab {i} leaves a gap or overlap");
            prop_assert!(slab.len >= 1);
            prop_assert!(slab.len <= plan.fusing, "slab {i} wider than fusing");
            let expect = if plan.slabs.len() == 1 {
                Residency::Resident
            } else {
                Residency::Streamed
            };
            prop_assert_eq!(slab.residency, expect);
            next += slab.len;
        }
        prop_assert_eq!(next, slices, "slabs must cover the stack exactly");
        prop_assert_eq!(plan.streaming(), plan.slabs.len() > 1);
    }

    /// Loosening the budget never shrinks the fusing factor: the planner
    /// is monotone in memory, matching the paper's rule of batching as
    /// wide as the footprint allows.
    #[test]
    fn fusing_is_monotone_in_the_budget(
        n in 4usize..48,
        slices in 2usize..40,
        angles in 4usize..48,
        gpus in 1usize..5,
        sel in 0u8..3,
        batches in 1u64..6,
        extra in 1u64..4,
    ) {
        let planner = Planner {
            precision: precision(sel),
            hierarchical: true,
            overlap: false,
            max_fusing: 64,
            kernel: None,
        };
        let dims = VolumeDims { n, slices };
        let topo = Topology::new(1, 1, gpus);
        let probe = planner.plan(dims, angles, None, topo).unwrap();
        let tight = probe.matrix_bytes_per_rank() + batches * probe.slice_bytes_per_rank();
        let loose = tight + extra * probe.slice_bytes_per_rank();
        let a = planner.plan(dims, angles, Some(tight), topo).unwrap();
        let b = planner.plan(dims, angles, Some(loose), topo).unwrap();
        prop_assert!(
            b.fusing >= a.fusing,
            "budget {loose} fused {} < {} at {tight}",
            b.fusing,
            a.fusing
        );
        prop_assert!(b.slabs.len() <= a.slabs.len());
    }
}
