//! Property tests for the xct-verify layer, through the `petaxct`
//! facade: every plan the generators can produce verifies cleanly across
//! topology × precision × overlap, the full distributed pipeline accepts
//! verification on real plans, and every known-bad corpus artifact is
//! rejected with the exact structured witness — not just "a failure".

use petaxct::comm::{CompiledPlans, DirectPlan, HierarchicalPlan, PlanError, Topology};
use petaxct::core::distributed::{reconstruct_distributed, DistributedConfig};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use petaxct::phantom::charcoal_like;
use petaxct::verify::corpus::{
    barrier_program, buggy_allreduce_claims, dropped_direct, duplicated_direct, gen_case,
    misrouted_direct, small_direct_fixture, unheld_direct, unsorted_transfer,
};
use petaxct::verify::{verify_all_direct, verify_all_hierarchical, verify_direct, ViolationKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness floor: no topology, footprint shape, plan flavor, or
    /// overlap mode the generator can produce yields a violation.
    #[test]
    fn every_generated_plan_verifies_cleanly(seed in 0u64..1 << 32, overlap in any::<bool>()) {
        let case = gen_case(seed);
        let (fp, own) = (&case.footprints, &case.ownership);

        let direct = DirectPlan::build(fp, own);
        let dc = CompiledPlans::compile_direct(fp, own, &direct);
        let direct_report = verify_all_direct(fp, own, &case.topology, &direct, &dc, overlap);
        prop_assert!(
            direct_report.ok(),
            "seed {seed} overlap={overlap} direct: {direct_report}"
        );

        let hier = HierarchicalPlan::build(fp, own, &case.topology);
        let hc = CompiledPlans::compile_hierarchical(fp, own, &hier);
        let hier_report = verify_all_hierarchical(fp, own, &case.topology, &hier, &hc, overlap);
        prop_assert!(
            hier_report.ok(),
            "seed {seed} overlap={overlap} hierarchical: {hier_report}"
        );
    }
}

proptest! {
    // The pipeline cases run a real (tiny) reconstruction each, so keep
    // the case count low; the plan space is covered by the pure-plan
    // property above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The real pipeline's plans pass verification for every precision ×
    /// overlap × plan-flavor combination, with `verify_plans` forced on
    /// (so this holds in release test runs too, not only via the
    /// debug-build implicit check).
    #[test]
    fn distributed_pipeline_accepts_verification(
        precision_sel in 0u8..4,
        overlap in any::<bool>(),
        hierarchical in any::<bool>(),
    ) {
        let precision = match precision_sel {
            0 => Precision::Double,
            1 => Precision::Single,
            2 => Precision::Half,
            _ => Precision::Mixed,
        };
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let phantom = charcoal_like(12, 9);
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&phantom.data, &mut y);

        let result = reconstruct_distributed(
            &scan,
            &y,
            &DistributedConfig {
                topology: Topology::new(1, 2, 2),
                precision,
                hierarchical,
                overlap,
                iterations: 3,
                verify_plans: true,
                ..Default::default()
            },
        );
        prop_assert!(result.x.iter().all(|v| v.is_finite()));
    }
}

/// Bug 1 of PR 3: the barrier peer formula `rank + n - dist % n` without
/// the outer `% n` names a peer outside the world. The deadlock checker
/// must pin it as an [`ViolationKind::UnmatchedRecv`] from an
/// out-of-range peer, while the corrected formula stays clean.
#[test]
fn known_bad_barrier_yields_unmatched_recv_witness() {
    assert!(barrier_program(4, 0x4000, false).check().ok());
    let report = barrier_program(4, 0x4000, true).check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::UnmatchedRecv { peer, .. } if peer >= 4)),
        "expected out-of-range UnmatchedRecv, got: {report}"
    );
}

/// Bug 2 of PR 3: an allreduce replying at `tag + 1` collides with the
/// next exchange's claim on the same tag. The witness must name the
/// shared tag and both claiming exchanges.
#[test]
fn known_bad_allreduce_yields_tag_collision_witness() {
    let report = buggy_allreduce_claims(4, 0x7000).check();
    let hit = report.violations.iter().find_map(|v| match &v.kind {
        ViolationKind::TagCollision {
            tag, first, second, ..
        } => Some((*tag, first.clone(), second.clone())),
        _ => None,
    });
    let (tag, first, second) = hit.unwrap_or_else(|| panic!("no TagCollision in: {report}"));
    assert_eq!(tag, 0x7001);
    assert_ne!(first, second, "collision must span distinct exchanges");
}

/// Bug 3 of PR 3: unsorted `PartialData` rows are now rejected at
/// `Transfer` construction, with the offending position in the witness.
#[test]
fn known_bad_unsorted_transfer_yields_position_witness() {
    match unsorted_transfer() {
        Err(PlanError::UnsortedIndices {
            position,
            prev,
            next,
        }) => {
            assert_eq!((position, prev, next), (1, 3, 3));
        }
        other => panic!("expected UnsortedIndices, got {other:?}"),
    }
}

/// Each direct-plan corruption maps to its own diagnostic kind with a
/// row-level witness: misrouting names the wrong destination, a dropped
/// row shows `delivered: 0`, a duplicated row `delivered: 2`, and
/// sending a row the rank never held names the phantom sender.
#[test]
fn direct_corruptions_map_to_distinct_witnesses() {
    let (fp, own) = small_direct_fixture();

    let mis = verify_direct(&fp, &own, &misrouted_direct());
    assert!(
        mis.violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::Misrouted { row: 2, .. })),
        "misrouted: {mis}"
    );

    let dropped = verify_direct(&fp, &own, &dropped_direct());
    assert!(
        dropped
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::Conservation { delivered: 0, .. })),
        "dropped: {dropped}"
    );

    let dup = verify_direct(&fp, &own, &duplicated_direct());
    assert!(
        dup.violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::Conservation { delivered: 2, .. })),
        "duplicated: {dup}"
    );

    let unheld = verify_direct(&fp, &own, &unheld_direct());
    assert!(
        unheld
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::UnheldRow { row: 3, .. })),
        "unheld: {unheld}"
    );
}
