//! Static verification of [`ReconPlan`]s before any data moves.
//!
//! A plan is a promise: *this* footprint on *this* budget, slabs that
//! cover the stack exactly once, a fusing factor whose per-slice tag
//! salts stay out of the collectives' reply namespace. The executor
//! trusts all of it — `reconstruct_planned` allocates to the plan's
//! slab widths and salts tags by slice index — so a broken plan turns
//! into an out-of-memory, a silently skipped slice run, or a
//! cross-matched message at runtime. [`plan_fits`] proves the promise
//! statically, the same way `verify_compiled` proves routing:
//! structured [`crate::Violation`]s with witnesses, checked against a
//! known-bad corpus.

use crate::diag::{VerifyReport, ViolationKind};
use xct_comm::protocol::{slice_salt, MAX_FUSED_SLICES};
use xct_plan::{ReconPlan, Residency};

/// Every static check against a reconstruction plan:
///
/// * **Budget** — the peak per-rank footprint (operator share + widest
///   slab × per-slice share) fits the budget the plan was made against.
/// * **Cover** — slabs are indexed in execution order, contiguous
///   (each starts where the previous ended), non-empty, no wider than
///   the fusing factor, and together cover `dims.slices` exactly.
/// * **Residency** — one slab runs resident; several slabs all stream
///   (the streaming executor pages *every* slab through I/O).
/// * **Tag discipline** — the fusing factor keeps the per-slice salts
///   ([`slice_salt`]) clear of the reserved reply bit.
/// * **Weights** — measured tile weights (`--weights-from`), when
///   present, cover the `ceil(n / tile_size)²` tile grid exactly, so
///   the weighted Hilbert partition neither panics on a short table
///   nor silently ignores trailing entries.
///
/// Plan-scoped findings carry rank 0 and no exchange level: a plan
/// defect is global, not attributable to a rank or exchange.
pub fn plan_fits(plan: &ReconPlan) -> VerifyReport {
    let mut report = VerifyReport::new();

    if let Some(budget) = plan.budget_bytes {
        let required = plan.per_rank_bytes();
        if required > budget {
            report.push(0, None, ViolationKind::PlanOverBudget { budget, required });
        }
    }

    if plan.fusing == 0 {
        report.push(
            0,
            None,
            ViolationKind::Malformed {
                detail: "plan has zero fusing factor".to_string(),
            },
        );
    }
    if plan.fusing > MAX_FUSED_SLICES {
        // The widest slab's last slice would salt its tags into the
        // reserved reply namespace (bit 63).
        report.push(
            0,
            None,
            ViolationKind::ReservedTagBit {
                tag: slice_salt(plan.fusing - 1),
                exchange: format!("fused slice {} of the plan", plan.fusing - 1),
            },
        );
    }

    if let Some(tw) = &plan.tile_weights {
        if tw.tile_size == 0 {
            report.push(
                0,
                None,
                ViolationKind::Malformed {
                    detail: "tile weights carry a zero tile size".to_string(),
                },
            );
        } else if tw.weights.len() != tw.expected_len(plan.dims.n) {
            report.push(
                0,
                None,
                ViolationKind::WeightGridMismatch {
                    weights: tw.weights.len(),
                    grid_side: tw.grid_side(plan.dims.n),
                },
            );
        }
    }

    let slabs = plan.slabs.len();
    let mut expected_start = 0usize;
    for (i, slab) in plan.slabs.iter().enumerate() {
        if slab.index != i {
            report.push(
                0,
                None,
                ViolationKind::Malformed {
                    detail: format!("slab at position {i} carries index {}", slab.index),
                },
            );
        }
        if slab.len == 0 {
            report.push(
                0,
                None,
                ViolationKind::Malformed {
                    detail: format!("slab {i} is empty"),
                },
            );
        }
        if slab.start != expected_start {
            report.push(
                0,
                None,
                ViolationKind::SlabCoverBreak {
                    index: i,
                    expected_start,
                    start: slab.start,
                },
            );
            // Re-anchor so one misplaced slab reports once, not
            // cascading into every successor.
            expected_start = slab.start;
        }
        if slab.len > plan.fusing {
            report.push(
                0,
                None,
                ViolationKind::SlabTooWide {
                    index: i,
                    len: slab.len,
                    fusing: plan.fusing,
                },
            );
        }
        let expected_residency = if slabs == 1 {
            Residency::Resident
        } else {
            Residency::Streamed
        };
        if slab.residency != expected_residency {
            report.push(
                0,
                None,
                ViolationKind::ResidencyConflict { index: i, slabs },
            );
        }
        expected_start += slab.len;
    }
    if expected_start != plan.dims.slices {
        if expected_start < plan.dims.slices {
            report.push(
                0,
                None,
                ViolationKind::SlabCoverShort {
                    covered: expected_start,
                    slices: plan.dims.slices,
                },
            );
        } else {
            report.push(
                0,
                None,
                ViolationKind::SlabCoverBreak {
                    index: slabs,
                    expected_start: plan.dims.slices,
                    start: expected_start,
                },
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::Topology;
    use xct_plan::{Planner, SlabPlan, VolumeDims};

    fn streamed_plan() -> ReconPlan {
        let planner = Planner::default();
        let dims = VolumeDims { n: 16, slices: 7 };
        let topo = Topology::new(1, 2, 2);
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 3 * probe.slice_bytes_per_rank();
        planner.plan(dims, 16, Some(budget), topo).unwrap()
    }

    #[test]
    fn planner_output_passes() {
        let plan = streamed_plan();
        assert!(plan.streaming());
        plan_fits(&plan).assert_ok("planner-emitted plan");
        let resident = Planner::default()
            .plan(
                VolumeDims { n: 12, slices: 4 },
                12,
                None,
                Topology::new(1, 1, 2),
            )
            .unwrap();
        plan_fits(&resident).assert_ok("resident plan");
    }

    #[test]
    fn budget_exactly_at_the_floor_plans_and_verifies() {
        // The planner's documented floor is the operator share plus one
        // slice per rank; a budget of exactly that must produce a
        // streaming plan of single-slice slabs, and plan_fits must
        // accept it (the budget check is strict `>`).
        let planner = Planner::default();
        let dims = VolumeDims { n: 16, slices: 7 };
        let topo = Topology::new(1, 2, 2);
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let floor = probe.matrix_bytes_per_rank() + probe.slice_bytes_per_rank();
        let plan = planner
            .plan(dims, 16, Some(floor), topo)
            .expect("a budget at the floor must plan");
        assert!(plan.streaming());
        assert!(plan.slabs.iter().all(|s| s.len == 1), "{:?}", plan.slabs);
        plan_fits(&plan).assert_ok("floor-budget plan");

        // plan_fits' own boundary: a claimed budget exactly equal to
        // the peak footprint passes.
        let mut exact = plan.clone();
        exact.budget_bytes = Some(exact.per_rank_bytes());
        plan_fits(&exact).assert_ok("budget == peak footprint");
    }

    #[test]
    fn budget_one_below_the_floor_is_rejected_with_the_exact_witness() {
        let planner = Planner::default();
        let dims = VolumeDims { n: 16, slices: 7 };
        let topo = Topology::new(1, 2, 2);
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let floor = probe.matrix_bytes_per_rank() + probe.slice_bytes_per_rank();
        // The planner itself refuses, naming both sides of the gap...
        let err = planner.plan(dims, 16, Some(floor - 1), topo).unwrap_err();
        assert_eq!(
            err,
            xct_plan::PlanError::BudgetTooSmall {
                budget: floor - 1,
                required: floor,
            }
        );
        // ...and a plan whose claimed budget undercuts its peak by one
        // byte is rejected by plan_fits with the exact same shape.
        let mut plan = probe;
        let required = plan.per_rank_bytes();
        plan.budget_bytes = Some(required - 1);
        let report = plan_fits(&plan);
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::PlanOverBudget {
                budget: required - 1,
                required,
            }
        );
    }

    #[test]
    fn over_budget_plan_is_rejected_with_the_exact_gap() {
        let mut plan = streamed_plan();
        // Shrink the claimed budget below the true peak footprint.
        let required = plan.per_rank_bytes();
        plan.budget_bytes = Some(required - 1);
        let report = plan_fits(&plan);
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::PlanOverBudget {
                budget: required - 1,
                required,
            }
        );
    }

    #[test]
    fn cover_gap_is_pinned_to_the_breaking_slab() {
        let mut plan = streamed_plan();
        plan.slabs[1].start += 1; // slice 3 now covered by no slab
        let report = plan_fits(&plan);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::SlabCoverBreak {
                index: 1,
                expected_start: 3,
                start: 4,
            }
        )));
    }

    #[test]
    fn truncated_cover_reports_the_missing_tail() {
        let mut plan = streamed_plan();
        plan.slabs.pop();
        let report = plan_fits(&plan);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::SlabCoverShort {
                covered: 6,
                slices: 7,
            }
        )));
    }

    #[test]
    fn slab_wider_than_fusing_is_rejected() {
        let mut plan = streamed_plan();
        // Widen the tail slab past the fusing bound without breaking
        // the cover: steal the extra slice from the plan's tail.
        plan.fusing = 2;
        let report = plan_fits(&plan);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::SlabTooWide {
                index: 0,
                len: 3,
                fusing: 2,
            }
        )));
    }

    #[test]
    fn residency_must_match_slab_count() {
        let mut plan = streamed_plan();
        plan.slabs[1].residency = xct_plan::Residency::Resident;
        let report = plan_fits(&plan);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::ResidencyConflict { index: 1, .. })));
    }

    #[test]
    fn oversized_fusing_invades_the_reply_namespace() {
        let mut plan = Planner::default()
            .plan(
                VolumeDims { n: 8, slices: 2 },
                8,
                None,
                Topology::new(1, 1, 1),
            )
            .unwrap();
        plan.fusing = MAX_FUSED_SLICES + 1;
        let report = plan_fits(&plan);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::ReservedTagBit { tag, .. } if tag >> 63 == 1
        )));
    }

    #[test]
    fn measured_weights_covering_the_grid_pass() {
        let plan = streamed_plan();
        let tile = 4;
        let side = plan.dims.n.div_ceil(tile);
        let weighted = plan.with_tile_weights(xct_plan::TileWeights {
            tile_size: tile,
            weights: vec![1; side * side],
        });
        plan_fits(&weighted).assert_ok("weighted plan");
    }

    #[test]
    fn short_weight_table_is_rejected_with_the_grid_witness() {
        let plan = streamed_plan();
        // 16-cell side at tile 4 → 4x4 grid → 16 weights required.
        let weighted = plan.with_tile_weights(xct_plan::TileWeights {
            tile_size: 4,
            weights: vec![1; 15],
        });
        let report = plan_fits(&weighted);
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::WeightGridMismatch {
                weights: 15,
                grid_side: 4,
            }
        )));
    }

    #[test]
    fn zero_tile_size_weights_are_malformed() {
        let plan = streamed_plan();
        let weighted = plan.with_tile_weights(xct_plan::TileWeights {
            tile_size: 0,
            weights: vec![],
        });
        let report = plan_fits(&weighted);
        assert!(report.violations.iter().any(|v| matches!(
            &v.kind,
            ViolationKind::Malformed { detail } if detail.contains("zero tile size")
        )));
    }

    #[test]
    fn empty_slab_is_malformed() {
        let mut plan = streamed_plan();
        plan.slabs.insert(
            1,
            SlabPlan {
                index: 1,
                start: 3,
                len: 0,
                residency: xct_plan::Residency::Streamed,
            },
        );
        for (i, slab) in plan.slabs.iter_mut().enumerate() {
            slab.index = i;
        }
        let report = plan_fits(&plan);
        assert!(report.violations.iter().any(
            |v| matches!(&v.kind, ViolationKind::Malformed { detail } if detail.contains("empty"))
        ));
    }
}
