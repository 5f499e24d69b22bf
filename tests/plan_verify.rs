//! Property tests for the xct-verify layer, through the `petaxct`
//! facade: every plan the generators can produce verifies cleanly across
//! topology × precision × overlap, the full distributed pipeline accepts
//! verification on real plans, and every known-bad corpus artifact is
//! rejected with the structured witness `verify::corpus::MUST_REJECT`
//! lists for it — not just "a failure".

use petaxct::comm::{CompiledPlans, HierarchicalPlan, Topology};
use petaxct::core::distributed::{reconstruct_distributed, DistributedConfig};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use petaxct::phantom::charcoal_like;
use petaxct::verify::corpus::{barrier_program, gen_case, MUST_REJECT};
use petaxct::verify::verify_all_hierarchical;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness floor: no topology, footprint shape, exchange mode, or
    /// overlap mode the generator can produce yields a violation. Direct
    /// exchange is the flat plan (one GPU per node), verified on the
    /// case's machine.
    #[test]
    fn every_generated_plan_verifies_cleanly(seed in 0u64..1 << 32, overlap in any::<bool>()) {
        let case = gen_case(seed);
        let (fp, own, topo) = (&case.footprints, &case.ownership, &case.topology);
        for (mode, plan_topo) in [("direct", Topology::new(topo.size(), 1, 1)), ("hierarchical", *topo)] {
            let plan = HierarchicalPlan::build(fp, own, &plan_topo);
            let compiled = CompiledPlans::compile_hierarchical(fp, own, &plan);
            let report = verify_all_hierarchical(fp, own, topo, &plan, &compiled, overlap);
            prop_assert!(report.ok(), "seed {seed} overlap={overlap} {mode}: {report}");
        }
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

/// Asserts that the named rows of the must-reject table are rejected
/// with the witness the table lists.
fn assert_rejected(names: &[&str]) {
    for name in names {
        let row = MUST_REJECT
            .iter()
            .find(|row| row.name == *name)
            .unwrap_or_else(|| panic!("no must-reject row named {name}"));
        if let Err(report) = row.check() {
            panic!("{name} not rejected as expected: {report}");
        }
    }
}

/// Bug 1 of PR 3: the barrier peer formula `rank + n - dist % n` without
/// the outer `% n` names a peer outside the world. The deadlock checker
/// must pin it as an `UnmatchedRecv` from an out-of-range peer, while
/// the corrected formula stays clean.
#[test]
fn known_bad_barrier_yields_unmatched_recv_witness() {
    assert!(barrier_program(4, 0x4000, false).check().ok());
    assert_rejected(&["barrier-mispaired"]);
}

/// Bug 2 of PR 3: an allreduce replying at `tag + 1` collides with the
/// next exchange's claim on the same tag. The witness names the shared
/// tag and two distinct claiming exchanges.
#[test]
fn known_bad_allreduce_yields_tag_collision_witness() {
    assert_rejected(&["allreduce-reply-aliased"]);
}

/// Bug 3 of PR 3: unsorted `PartialData` rows are rejected at `Transfer`
/// construction, with the offending position in the witness.
#[test]
fn known_bad_unsorted_transfer_yields_position_witness() {
    assert_rejected(&["unsorted-transfer"]);
}

/// Each direct-plan corruption maps to its own diagnostic kind with a
/// row-level witness: misrouting names the wrong destination, a dropped
/// row shows `delivered: 0`, a duplicated row `delivered: 2`, and
/// sending a row the rank never held names the phantom sender.
#[test]
fn direct_corruptions_map_to_distinct_witnesses() {
    assert_rejected(&[
        "misrouted-direct",
        "dropped-direct",
        "duplicated-direct",
        "unheld-direct",
    ]);
}

/// A rank that runs a local level once per fused slice while its peers
/// move the whole batch in one rendezvous sends messages nobody receives
/// and waits for messages nobody sends; the deadlock pass names the rank
/// and the level's tag.
#[test]
fn per_slice_local_level_yields_unmatched_witness() {
    assert_rejected(&["per-slice-local-level"]);
}

/// A rank that still runs the forward-maxima allreduce its peers retired
/// (every sender now carries its own §III-C1 scale in the message
/// header) sends collective messages nobody receives and waits for
/// replies nobody sends; the deadlock pass names that rank.
#[test]
fn stale_maxima_collective_yields_unmatched_witness() {
    assert_rejected(&["stale-maxima-collective"]);
}
