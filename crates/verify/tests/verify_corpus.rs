//! The known-bad corpus: every communication bug PR 3 fixed must be
//! rejected by the static layer or caught by the schedule explorer, with
//! the *right* diagnostic and witness — and the corresponding correct
//! artifacts must pass cleanly. The exact-witness assertions live here;
//! the drivers that only need "rejected, as expected" loop over
//! `corpus::MUST_REJECT`.

#![forbid(unsafe_code)]

use std::time::Duration;
use xct_comm::protocol::{self, slice_salt, Apply, ExchangeLevel, Op};
use xct_comm::{
    Communicator, CompiledPlans, Footprints, HierarchicalPlan, Ownership, PlanError, Topology,
};
use xct_verify::corpus::{
    aliased_reply_exchange, barrier_program, buggy_allreduce_claims, dropped_compiled,
    duplicate_designee_compiled, duplicated_compiled, gen_case, gen_case_on, misrouted_compiled,
    oob_gather_compiled, oob_keep_compiled, oob_recv_compiled, over_budget_plan,
    per_slice_local_level, ragged_levels_compiled, short_transpose_compiled, single_sweep_gather,
    small_compiled_fixture, stale_maxima_collective, unfolded_collective, unheld_compiled,
    unsorted_transfer, CompiledArtifact, MUST_REJECT, STALE_MAXIMA_RANK,
};
use xct_verify::deadlock::{CommOp, CommProgram};
use xct_verify::{explore, verify_all_hierarchical, verify_compiled, VerifyReport, ViolationKind};

// ---- PR-3 bug 1: barrier peer mispairing (deadlock layer) ----

#[test]
fn correct_barrier_program_is_deadlock_free() {
    for n in [2, 3, 4, 7] {
        let report = barrier_program(n, 0x4000, false).check();
        assert!(report.ok(), "n={n}: {report}");
    }
}

#[test]
fn buggy_barrier_peer_formula_is_flagged() {
    let report = barrier_program(4, 0x4000, true).check();
    assert!(!report.ok(), "mis-paired barrier must not verify");
    // The mis-parenthesized formula waits on out-of-range ranks.
    let unmatched = report
        .violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::UnmatchedRecv { peer, .. } if peer >= 4))
        .count();
    assert!(
        unmatched > 0,
        "expected out-of-range UnmatchedRecv witnesses, got: {report}"
    );
}

// ---- PR-3 bug 2: allreduce reply-tag aliasing (tag layer + explorer) ----

#[test]
fn unfolded_collective_starves_the_excess_leader() {
    // The intact 3-node program verifies; without node leader 0's
    // fold-out send, exactly the excess leader's down-leg receive is
    // unmatched — and nothing else breaks (the members below it wait on
    // *it*, which the match graph reports once, at the source).
    let topo = Topology::new(3, 1, 2);
    let intact = xct_comm::AllreduceSteps::build_all(&topo);
    let report = CommProgram::collective_of(&intact, 0x9000, 1).check();
    assert!(report.ok(), "{report}");

    let (steps, starved) = unfolded_collective();
    let report = CommProgram::collective_of(&steps, 0x9000, 1).check();
    let unmatched: Vec<_> = report
        .violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::UnmatchedRecv { .. }))
        .collect();
    assert_eq!(unmatched.len(), 1, "{report}");
    assert_eq!(unmatched[0].rank, starved);
    assert!(matches!(
        unmatched[0].kind,
        ViolationKind::UnmatchedRecv { peer: 0, tag } if tag == 0x9000 ^ xct_comm::REPLY_TAG_SALT
    ));
}

#[test]
fn buggy_allreduce_claims_collide() {
    let report = buggy_allreduce_claims(4, 0x7000).check();
    let hit = report.violations.iter().any(|v| {
        matches!(
            &v.kind,
            ViolationKind::TagCollision { src: 0, tag, first, second, .. }
                if *tag == 0x7001 && first != second
        )
    });
    assert!(hit, "expected 0→r collision at 0x7001, got: {report}");
}

#[test]
fn aliased_reply_swaps_payloads_at_baseline() {
    let n = 3;
    let expect: f64 = (1..=n).map(|r| r as f64).sum();
    let oracle = move |results: &[(f64, f64)]| {
        results.iter().enumerate().find_map(|(r, &(red, sen))| {
            (red != expect || sen != -1.0)
                .then(|| format!("rank {r} got (reduced={red}, sentinel={sen})"))
        })
    };
    // The buggy reply tag collides with the next exchange: caught at
    // baseline (no chaos needed — the cross-match is deterministic).
    let bad = explore(
        n,
        Duration::from_secs(5),
        &[],
        |c| aliased_reply_exchange(c, 0x7000, 0x7001),
        oracle,
    );
    let fail = bad.first_failure().expect("aliased reply must fail");
    assert_eq!(fail.label, "baseline");
    // A disjoint reply tag survives baseline and chaos schedules.
    let good = explore(
        n,
        Duration::from_secs(5),
        &[1, 2, 3],
        |c| aliased_reply_exchange(c, 0x7000, 0x7007),
        oracle,
    );
    assert!(good.ok(), "{:?}", good.first_failure());
}

// ---- PR-3 bug 3: unsorted partial-data indices (construction layer) ----

#[test]
fn unsorted_transfer_is_rejected_with_position() {
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

// ---- Routing corruptions of compiled programs ----

/// `verify_compiled` on a compiled artifact.
fn compiled_report((fp, own, _, compiled): CompiledArtifact) -> VerifyReport {
    verify_compiled(&fp, &own, &compiled)
}

#[test]
fn misrouted_direct_reports_wrong_destination() {
    // Rank 0's partial of row 2 goes to rank 0 instead of rank 1: the
    // send is never received, and rank 1 waits for a message nobody
    // sends it.
    let report = compiled_report(misrouted_compiled());
    let global = Some(ExchangeLevel::Global);
    assert!(
        report.violations.iter().any(|v| v.rank == 0
            && v.level == global
            && matches!(v.kind, ViolationKind::UnconsumedSend { peer: 0, .. })),
        "{report}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rank == 1 && matches!(v.kind, ViolationKind::UnmatchedRecv { peer: 0, .. })),
        "{report}"
    );
}

#[test]
fn dropped_direct_reports_zero_delivery() {
    let report = compiled_report(dropped_compiled());
    assert!(
        report.violations.iter().any(|v| v.rank == 1
            && v.level == Some(ExchangeLevel::Global)
            && matches!(
                v.kind,
                ViolationKind::Conservation {
                    holder: 0,
                    row: 2,
                    delivered: 0
                }
            )),
        "{report}"
    );
}

#[test]
fn duplicated_direct_reports_double_delivery() {
    let report = compiled_report(duplicated_compiled());
    assert_eq!(report.violations.len(), 1, "{report}");
    let v = &report.violations[0];
    assert_eq!(v.rank, 1);
    assert!(matches!(
        v.kind,
        ViolationKind::Conservation {
            holder: 0,
            row: 2,
            delivered: 2
        }
    ));
}

#[test]
fn unheld_direct_reports_phantom_row() {
    // Rank 1 lands rank 0's second payload element as row 3, which rank
    // 0 never held: the position sums rows 3 and 0.
    let report = compiled_report(unheld_compiled());
    assert!(
        report.violations.iter().any(|v| v.rank == 1
            && matches!(
                v.kind,
                ViolationKind::MixedRows {
                    position: 1,
                    rows: (3, 0)
                }
            )),
        "{report}"
    );
}

#[test]
fn duplicate_designee_reports_double_count() {
    // A partial both sent to the socket designee and kept arrives at the
    // owner twice; no other partial is disturbed.
    let report = compiled_report(duplicate_designee_compiled());
    assert_eq!(report.violations.len(), 1, "{report}");
    let v = &report.violations[0];
    assert_eq!((v.rank, v.level), (1, Some(ExchangeLevel::Global)));
    assert!(matches!(
        v.kind,
        ViolationKind::Conservation {
            holder: 0,
            row: 2,
            delivered: 2
        }
    ));
}

#[test]
fn compiled_must_reject_rows_are_rejected_by_the_entry_point() {
    // Every must-reject row whose artifact is a compiled program, run
    // through the one entry point: the plan the programs were compiled
    // from, unmutated, with the mutated programs, on both schedules.
    type Builder = fn() -> CompiledArtifact;
    let rows: [(&str, Builder); 10] = [
        ("oob-gather", oob_gather_compiled),
        ("oob-recv-landing", oob_recv_compiled),
        ("oob-keep-destination", oob_keep_compiled),
        ("short-transpose", short_transpose_compiled),
        ("misrouted-direct", misrouted_compiled),
        ("dropped-direct", dropped_compiled),
        ("duplicated-direct", duplicated_compiled),
        ("unheld-direct", unheld_compiled),
        ("duplicate-designee", duplicate_designee_compiled),
        ("ragged-levels", ragged_levels_compiled),
    ];
    for (name, artifact) in rows {
        let row = MUST_REJECT
            .iter()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("no must-reject row named {name}"));
        let (fp, own, topo, compiled) = artifact();
        let plan = HierarchicalPlan::build(&fp, &own, &topo);
        let intact = CompiledPlans::compile_hierarchical(&fp, &own, &plan);
        for overlap in [false, true] {
            verify_all_hierarchical(&fp, &own, &topo, &plan, &intact, overlap)
                .assert_ok(&format!("{name}'s unmutated programs"));
            let report = verify_all_hierarchical(&fp, &own, &topo, &plan, &compiled, overlap);
            assert!(
                report.violations.iter().any(row.expected),
                "{name} overlap={overlap}: {report}"
            );
        }
    }
}

// ---- Deadlock: a retired collective still lowered on one rank ----

#[test]
fn stale_maxima_collective_on_one_rank_is_unmatched_at_that_rank_alone() {
    // Rank 1 runs the maxima allreduce nobody else does: every witness
    // names rank 1 on the retired site's tags (a round or reply salt on
    // its base), with at least one of each kind.
    let report = stale_maxima_collective().check();
    let (mut unconsumed, mut unmatched) = (0, 0);
    for v in &report.violations {
        assert_eq!(v.rank, STALE_MAXIMA_RANK, "{report}");
        match v.kind {
            ViolationKind::UnconsumedSend { tag, .. } if tag & 0xffff == 0x7000 => unconsumed += 1,
            ViolationKind::UnmatchedRecv { tag, .. } if tag & 0xffff == 0x7000 => unmatched += 1,
            _ => panic!("unexpected witness: {report}"),
        }
    }
    assert!(unconsumed > 0 && unmatched > 0, "{report}");
}

// ---- Deadlock: a local level lowered per slice on one rank ----

#[test]
fn per_slice_local_level_on_one_rank_is_unmatched_on_the_level_tag() {
    // Rank 0 sends its socket-level message once per slice (three) and
    // waits for three; its peer sends and waits for one. Two sends linger
    // and two receives starve, all on the socket level's base tag, and
    // nothing else is disturbed.
    let socket = ExchangeLevel::Socket.tag();
    let report = per_slice_local_level().check();
    let mut unconsumed = 0;
    let mut unmatched = 0;
    for v in &report.violations {
        assert_eq!(v.rank, 0, "{report}");
        match v.kind {
            ViolationKind::UnconsumedSend { peer: 1, tag } if tag == socket => unconsumed += 1,
            ViolationKind::UnmatchedRecv { peer: 1, tag } if tag == socket => unmatched += 1,
            _ => panic!("unexpected witness: {report}"),
        }
    }
    assert_eq!((unconsumed, unmatched), (2, 2), "{report}");
}

// ---- Deadlock: genuine cyclic wait ----

#[test]
fn cross_wait_cycle_is_extracted() {
    // Rank 0 waits for rank 1's second op; rank 1 waits for rank 0's
    // second op — a classic head-of-line cycle.
    let program = CommProgram {
        ops: vec![
            vec![
                CommOp::Recv { from: 1, tag: 1 },
                CommOp::Send { to: 1, tag: 2 },
            ],
            vec![
                CommOp::Recv { from: 0, tag: 2 },
                CommOp::Send { to: 0, tag: 1 },
            ],
        ],
    };
    let report = program.check();
    let cycle = report
        .violations
        .iter()
        .find_map(|v| match &v.kind {
            ViolationKind::DeadlockCycle { cycle } => Some(cycle.clone()),
            _ => None,
        })
        .expect("cycle must be reported");
    assert!(cycle.len() >= 2, "cycle too short: {cycle:?}");
    assert!(cycle.iter().any(|&(r, _)| r == 0) && cycle.iter().any(|&(r, _)| r == 1));
}

// ---- Explorer: progress bug invisible to static checks ----

#[test]
fn single_sweep_gather_passes_baseline_fails_under_chaos() {
    let n = 4;
    let expect: f64 = (1..=n).map(|r| r as f64).sum();
    let oracle = move |results: &[f64]| {
        results
            .iter()
            .enumerate()
            .find_map(|(r, &v)| (v != expect).then(|| format!("rank {r} got {v}, want {expect}")))
    };
    let seeds: Vec<u64> = (0..48).collect();
    let report = explore(
        n,
        Duration::from_secs(10),
        &seeds,
        |c| single_sweep_gather(c, 0x5000),
        oracle,
    );
    assert!(
        report.outcomes[0].failure.is_none(),
        "baseline must pass: {:?}",
        report.outcomes[0]
    );
    let fail = report
        .first_failure()
        .expect("some chaos schedule must expose the dropped contribution");
    assert!(
        fail.label.starts_with("delay-one"),
        "expected a delay-one schedule to catch it, got {}",
        fail.label
    );
    // Determinism: re-running the failing schedule alone reproduces it.
    let seed: u64 = fail
        .label
        .rsplit("seed=0x")
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .expect("label carries the seed");
    let again = explore(
        n,
        Duration::from_secs(10),
        &[seed],
        |c| single_sweep_gather(c, 0x5000),
        oracle,
    );
    let repro = again
        .outcomes
        .iter()
        .find(|o| o.label == fail.label)
        .expect("same schedule present");
    assert_eq!(
        repro.failure, fail.failure,
        "seeded schedule must reproduce"
    );

    // Every failing chaos schedule carries a post-mortem: the seed
    // re-ran with the flight recorder armed, and the dump names the
    // schedule so the post-mortem is reproducible from the label alone.
    let dump = fail
        .flight_dump
        .as_ref()
        .expect("failing chaos schedule must produce a flight dump");
    let doc = xct_telemetry::Json::parse(dump).expect("flight dump is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(xct_telemetry::Json::as_str),
        Some("petaxct-flightrec-v1")
    );
    assert!(
        doc.get("reason")
            .and_then(xct_telemetry::Json::as_str)
            .is_some_and(|r| r.contains(&fail.label)),
        "dump reason must name the failing schedule"
    );
    let events = doc
        .get("events")
        .and_then(xct_telemetry::Json::as_array)
        .expect("dump carries events");
    assert!(!events.is_empty(), "flight ring must hold the last moments");
    // Passing schedules carry no dump.
    assert!(report.outcomes[0].flight_dump.is_none());
}

// ---- Reconstruction plans: budgets and streamed schedules ----

#[test]
fn over_budget_plan_artifact_is_rejected_with_the_exact_gap() {
    let plan = over_budget_plan();
    let budget = plan.budget_bytes.expect("artifact carries a budget");
    let required = plan.per_rank_bytes();
    assert!(required > budget, "artifact must actually be over budget");
    let report = xct_verify::plan_fits(&plan);
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PlanOverBudget { budget: b, required: r }
                if b == budget && r == required
        )),
        "expected PlanOverBudget with the exact gap, got: {report}"
    );
}

#[test]
fn streamed_slab_exchanges_survive_chaos_schedules() {
    // The streaming executor runs one exchange sequence per slab; the
    // per-slab tag salt is what keeps a chaos-delayed message from slab
    // k out of slab k+1's matching window. Drive a minimal per-slab
    // gather over a real streamed plan under baseline + chaos schedules
    // and require every schedule to produce the per-slab sums.
    let planner = xct_plan::Planner::default();
    let dims = xct_plan::VolumeDims { n: 16, slices: 6 };
    let topo = Topology::new(1, 1, 2);
    let probe = planner.plan(dims, 16, None, topo).unwrap();
    let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
    let plan = planner.plan(dims, 16, Some(budget), topo).unwrap();
    assert!(plan.streaming(), "budget must force streaming");
    xct_verify::plan_fits(&plan).assert_ok("streamed chaos plan");

    let n = plan.ranks();
    let slabs: Vec<usize> = plan.slabs.iter().map(|s| s.index).collect();
    let expect: Vec<f64> = slabs
        .iter()
        .map(|&s| (1..=n).map(|r| (r * (s + 1)) as f64).sum())
        .collect();
    let body = move |comm: &Communicator| -> Vec<f64> {
        let me = comm.rank();
        let mut sums = Vec::with_capacity(slabs.len());
        for &s in &slabs {
            let tag = 0x9000u64 ^ slice_salt(s);
            let value = ((me + 1) * (s + 1)) as f64;
            if me == 0 {
                let mut acc = value;
                for src in 1..comm.size() {
                    let v: Vec<f64> = comm.recv_vals(src, tag).expect("gather");
                    acc += v[0];
                }
                for dst in 1..comm.size() {
                    comm.send_vals(dst, tag ^ 0x10, &[acc]).expect("bcast");
                }
                sums.push(acc);
            } else {
                comm.send_vals(0, tag, &[value]).expect("contribute");
                let v: Vec<f64> = comm.recv_vals(0, tag ^ 0x10).expect("result");
                sums.push(v[0]);
            }
        }
        sums
    };
    let oracle = move |results: &[Vec<f64>]| {
        results.iter().enumerate().find_map(|(r, sums)| {
            (sums != &expect).then(|| format!("rank {r} got {sums:?}, want {expect:?}"))
        })
    };
    let seeds: Vec<u64> = (0..16).collect();
    let report = explore(n, Duration::from_secs(10), &seeds, body, oracle);
    assert!(report.ok(), "{:?}", report.first_failure());
}

// ---- The must-reject table and the schedule the passes take ----

#[test]
fn every_must_reject_row_is_rejected_with_its_witness() {
    for (i, row) in MUST_REJECT.iter().enumerate() {
        assert!(
            MUST_REJECT[..i].iter().all(|r| r.name != row.name),
            "{} listed twice",
            row.name
        );
        if let Err(report) = row.check() {
            panic!("{} not rejected as expected: {report}", row.name);
        }
    }
}

#[test]
fn draining_a_slice_before_posting_it_is_rejected_by_both_op_list_passes() {
    // A mutated op list goes through the same folds as the lists the
    // executor runs, and both passes that take the list reject it: every
    // rank's forward global level drains slice 1 before posting it.
    let (_, _, _, compiled) = small_compiled_fixture();
    let topo = Topology::new(2, 1, 1);
    let global = |slice| (ExchangeLevel::Global, Some(slice));
    let mutated = |p: usize| {
        let ops = protocol::apply(compiled.rank(p), Apply::Forward, 2, true);
        ops.map(|op| match op {
            Op::Post { level, slice } if (level, slice) == global(1) => Op::Drain { level, slice },
            Op::Drain { level, slice } if (level, slice) == global(1) => Op::Post { level, slice },
            op => op,
        })
        .collect::<Vec<_>>()
    };
    assert!(mutated(0).contains(&Op::Drain {
        level: ExchangeLevel::Global,
        slice: Some(1)
    }));

    let lifetimes = xct_verify::verify_lifetimes(&compiled, 2, mutated);
    assert!(
        lifetimes.violations.iter().any(|v| matches!(
            &v.kind,
            ViolationKind::Malformed { detail } if detail.contains("finish of slice 1")
        )),
        "{lifetimes}"
    );
    // Slice 1's exchange, posted after its drain, is never finished:
    // each rank's one global receive stays pending in its slot.
    assert!(
        lifetimes.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::PendingWriteRead {
                buffer: "slot",
                slice: 1,
                pending: 1
            }
        )),
        "{lifetimes}"
    );

    // Both ranks wait for slice 1's global message before either has
    // sent it.
    let deadlock = xct_verify::verify_deadlock(&compiled, &topo, mutated);
    let cycle = deadlock
        .violations
        .iter()
        .find_map(|v| match &v.kind {
            ViolationKind::DeadlockCycle { cycle } => Some(cycle),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no deadlock cycle in: {deadlock}"));
    assert!(cycle.iter().any(|&(r, _)| r == 0) && cycle.iter().any(|&(r, _)| r == 1));

    for overlap in [false, true] {
        let real = |p| protocol::solve(compiled.rank(p), 2, overlap, 2);
        xct_verify::verify_lifetimes(&compiled, 2, real).assert_ok("real solve lifetimes");
        xct_verify::verify_deadlock(&compiled, &topo, real).assert_ok("real solve deadlock");
    }
}

// ---- Generated plans: the real pipeline must verify cleanly ----

#[test]
fn built_plans_verify_cleanly_across_topologies() {
    // The 64-seed generator corpus plus four machine shapes the generator
    // cannot draw, both exchange modes — direct is the flat plan of
    // one-GPU nodes, run on the case's machine — and both exchange
    // schedules; the tag claims once more on their own, since they do
    // not depend on the schedule.
    let named = [(1, 2, 2), (2, 2, 2), (3, 1, 4), (4, 2, 3)]
        .map(|(n, s, g)| gen_case_on(Topology::new(n, s, g), 7));
    for case in (0..64).map(gen_case).chain(named) {
        let (fp, own, topo) = (&case.footprints, &case.ownership, &case.topology);
        let flat = Topology::new(topo.size(), 1, 1);
        for (mode, plan_topo) in [("direct", flat), ("hier", *topo)] {
            let plan = HierarchicalPlan::build(fp, own, &plan_topo);
            let compiled = CompiledPlans::compile_hierarchical(fp, own, &plan);
            let claims = xct_verify::claims_for_compiled(&compiled, topo).check();
            assert!(claims.ok(), "{topo:?} {mode} tag claims: {claims}");
            for overlap in [false, true] {
                let report = verify_all_hierarchical(fp, own, topo, &plan, &compiled, overlap);
                assert!(report.ok(), "{topo:?} {mode} overlap={overlap}: {report}");
            }
        }
    }
}

#[test]
fn corrupted_compiled_plan_is_caught_end_to_end() {
    // Sanity that verify_compiled is not vacuous: verify a compiled plan
    // against a *different* ownership than it was built for.
    let fp = Footprints::new(vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3]]);
    let own = Ownership::new(vec![0, 0, 1, 1], 2);
    let other = Ownership::new(vec![0, 1, 0, 1], 2);
    let compiled = CompiledPlans::build_hierarchical(&fp, &own, &Topology::new(2, 1, 1));
    let report = xct_verify::verify_compiled(&fp, &other, &compiled);
    assert!(!report.ok(), "mismatched ownership must not verify");
}

#[test]
fn hierarchical_against_wrong_topology_is_malformed() {
    // Socket groups of two GPUs, checked against a machine whose sockets
    // hold one: every socket group straddles two sockets. The reverse —
    // a plan grouping finer than the machine, as the flat plan does —
    // is legal.
    let topo = Topology::new(1, 2, 2);
    let n = topo.size();
    let fp = Footprints::new(
        (0..n)
            .map(|p| vec![p as u32, ((p + 1) % n) as u32])
            .collect(),
    );
    let own = Ownership::new((0..n as u32).collect(), n);
    let hier = HierarchicalPlan::build(&fp, &own, &topo);
    let wrong = Topology::new(2, 2, 1);
    let report = xct_verify::verify_hierarchical(&fp, &wrong, &hier);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.level == Some(ExchangeLevel::Socket)
                && matches!(&v.kind, ViolationKind::Malformed { detail }
                if detail.contains("spans two sockets"))),
        "a socket group straddling two sockets must be malformed: {report}"
    );
    let finer = HierarchicalPlan::build(&fp, &own, &wrong);
    xct_verify::verify_hierarchical(&fp, &topo, &finer).assert_ok("finer groups");
}

// ---- Mutated index programs: the abstract-interpretation layer ----

#[test]
fn oob_gather_is_rejected_with_exact_interval_witness() {
    let report = xct_verify::verify_bounds(&oob_gather_compiled().3);
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            xct_verify::ViolationKind::IndexOutOfBounds {
                access: xct_verify::AccessKind::SendGather,
                index: 40,
                len: 3
            }
        ) && v.rank == 0),
        "expected send-gather OOB (40, len 3) at rank 0, got: {report}"
    );
}

#[test]
fn oob_recv_landing_is_rejected_with_exact_interval_witness() {
    let report = xct_verify::verify_bounds(&oob_recv_compiled().3);
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            xct_verify::ViolationKind::IndexOutOfBounds {
                access: xct_verify::AccessKind::RecvLanding,
                index: 9,
                len: 2
            }
        )),
        "expected recv-landing OOB (9, len 2), got: {report}"
    );
}

#[test]
fn oob_keep_destination_is_rejected() {
    let report = xct_verify::verify_bounds(&oob_keep_compiled().3);
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            xct_verify::ViolationKind::IndexOutOfBounds {
                access: xct_verify::AccessKind::KeepDst,
                index: 30,
                len: 2
            }
        )),
        "expected keep-destination OOB (30, len 2), got: {report}"
    );
}

#[test]
fn short_transpose_chain_is_rejected() {
    let report = xct_verify::verify_bounds(&short_transpose_compiled().3);
    assert!(
        report.violations.iter().any(|v| v.rank == 0
            && v.level == Some(ExchangeLevel::ScatterGlobal)
            && matches!(
                &v.kind,
                xct_verify::ViolationKind::Malformed { detail }
                    if detail == "pipeline ends with buffer length 2, footprint length is 3"
            )),
        "expected the transpose chain to end short at rank 0's global scatter, got: {report}"
    );
}

#[test]
fn read_before_finish_is_a_pending_write_read() {
    let ops = xct_verify::corpus::read_before_finish_schedule();
    let report = xct_verify::verify_scratch_lifetime(0, &ops);
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            xct_verify::ViolationKind::PendingWriteRead {
                buffer: "acc",
                slice: 0,
                pending: 3
            }
        )),
        "expected acc read with 3 pending writes, got: {report}"
    );
}
