//! Deterministic profiler fixture: a scripted 1x2x2 "run" driven by a
//! [`ManualClock`] — four rank tracks, two streamed slabs, two fused
//! slices — with every span duration chosen so each profile cell, each
//! drift row, and every derived per-tile cost is an exact arithmetic
//! consequence of the script. No tolerances anywhere: the profiler adds
//! scripted integers, and the artifact builder's tile spread is floor
//! division over the operator's nonzero counts.

use std::sync::Arc;

use xct_comm::Topology;
use xct_core::{build_profile_report, ProfileInputs};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_telemetry::{
    CostComponent, ManualClock, Phase, ProfileSnapshot, Telemetry, ALL_COMPONENTS,
};

/// Records one root span of exactly `dur` nanoseconds on `tele`'s
/// track, advancing the shared clock from `*t`.
fn span_for(tele: &Telemetry, clock: &ManualClock, t: &mut u64, phase: Phase, dur: u64) {
    clock.set(*t);
    let g = tele.span(phase);
    *t += dur;
    clock.set(*t);
    drop(g);
}

/// Scripted SpMM duration for `(rank, slab, slice)`: distinct at every
/// key so a misrouted attribution cannot cancel out.
fn spmm_ns(rank: u64, slab: u64, slice: u64) -> u64 {
    1000 * (rank + 1) + 100 * slab + 10 * slice
}

/// Each rank's total scripted SpMM time over both slabs and slices.
fn rank_spmm_total(rank: u64) -> u64 {
    (0..2)
        .flat_map(|s| (0..2).map(move |f| spmm_ns(rank, s, f)))
        .sum()
}

#[test]
fn nested_spans_attribute_exact_self_time_per_slice() {
    let clock = ManualClock::new();
    let tele = Telemetry::with_clock(Arc::new(clock.clone()));
    // SpMM span [0, 1000] with a comm-wait child [200, 500]: the parent
    // is charged its SELF time 700, the child its full 300.
    clock.set(0);
    let spmm = tele.span(Phase::SpmmForward);
    clock.set(200);
    let wait = tele.span(Phase::CommWait);
    clock.set(500);
    drop(wait);
    clock.set(1000);
    drop(spmm);
    // A second fused slice gets its own cells.
    tele.profile_slice_set(1);
    let mut t = 1000;
    span_for(&tele, &clock, &mut t, Phase::PrecisionConvert, 100);
    let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
    assert_eq!(snap.get(0, 0, 0, CostComponent::SpmmCompute), 700);
    assert_eq!(snap.get(0, 0, 0, CostComponent::CommWait), 300);
    assert_eq!(snap.get(0, 0, 1, CostComponent::GatherConvert), 100);
    assert_eq!(snap.total_ns(), 1100);
}

#[test]
fn scripted_1x2x2_run_yields_exact_cells_drift_and_tile_costs() {
    let clock = ManualClock::new();
    let tele = Telemetry::with_clock(Arc::new(clock.clone()));
    let topology = Topology::new(1, 2, 2);
    let ranks = topology.size();
    let forks: Vec<Telemetry> = (0..ranks).map(|r| tele.fork(r as u32)).collect();
    // Each rank's spans are laid back-to-back on its own timeline so
    // its causal busy time is the plain sum of scripted durations.
    let mut cursor = vec![0u64; ranks];

    // Streamed slabs run one at a time; the slab context is
    // collector-global, exactly as `stream.rs` drives it.
    for slab in 0..2u64 {
        tele.profile_slab_set(slab as u32);
        for (r, fork) in forks.iter().enumerate() {
            for slice in 0..2u64 {
                fork.profile_slice_set(slice as u32);
                span_for(
                    fork,
                    &clock,
                    &mut cursor[r],
                    Phase::SpmmForward,
                    spmm_ns(r as u64, slab, slice),
                );
            }
        }
    }
    // One scripted span per remaining component, per rank, all charged
    // to (slab 0, slice 0).
    tele.profile_slab_set(0);
    let singles = [
        (Phase::PrecisionConvert, 100u64),
        (Phase::ReduceSocket, 30),
        (Phase::ReduceNode, 40),
        (Phase::ReduceGlobal, 50),
        (Phase::CommWait, 60),
        (Phase::Io, 70),
    ];
    for (r, fork) in forks.iter().enumerate() {
        fork.profile_slice_set(0);
        for (phase, dur) in singles {
            span_for(fork, &clock, &mut cursor[r], phase, dur);
        }
    }
    // Rank 3 (the longest track) sends one message that rank 0 matches
    // 100 simulated wire nanoseconds later: the critical path gains the
    // wire hop and rank 0 the received-wire attribution.
    let sent = cursor[3];
    clock.set(sent + 100);
    forks[0].edge(3, 1, 64, sent, 100);

    // --- exact profile cells -------------------------------------
    let snapshot = tele.snapshot();
    let profile = ProfileSnapshot::from_snapshot(&snapshot);
    for r in 0..ranks as u64 {
        for slab in 0..2 {
            for slice in 0..2 {
                assert_eq!(
                    profile.get(r as usize, slab, slice, CostComponent::SpmmCompute),
                    spmm_ns(r, slab as u64, slice as u64),
                    "cell ({r}, {slab}, {slice})"
                );
            }
        }
    }

    // --- exact artifact ------------------------------------------
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
    let report = build_profile_report(&ProfileInputs {
        scan: &scan,
        slices: 2,
        topology,
        precision: Precision::Single,
        tile: 4,
        tile_weights: None,
        snapshot: &snapshot,
        model: None,
    });

    // Drift table: measured totals are the scripted sums; without a
    // model estimate every predicted share is zero, so the drift IS the
    // measured share.
    let spmm_total: u64 = (0..4).map(rank_spmm_total).sum();
    assert_eq!(spmm_total, 40_880);
    let measured = [spmm_total, 400, 120, 160, 200, 240, 280];
    let total: u64 = measured.iter().sum();
    assert_eq!(total, 42_280);
    assert_eq!(report.drift.len(), ALL_COMPONENTS.len());
    for (row, (&component, &ns)) in report
        .drift
        .iter()
        .zip(ALL_COMPONENTS.iter().zip(measured.iter()))
    {
        assert_eq!(row.component, component);
        assert_eq!(row.measured_ns, ns, "{component}");
        assert_eq!(row.measured_share, ns as f64 / total as f64, "{component}");
        assert_eq!(row.predicted_share, 0.0);
        assert_eq!(row.drift(), row.measured_share);
    }

    // Per-rank costs: busy is the scripted sum, slack is the distance
    // to the 16570 + 100 wire-extended critical path, and only rank 0
    // (the edge's receiver) carries wire time.
    assert_eq!(report.skew.critical_path_ns, sent + 100);
    for r in 0..ranks {
        let rc = &report.ranks[r];
        let busy = rank_spmm_total(r as u64) + 350;
        assert_eq!(rc.rank, r as u32);
        assert_eq!(rc.busy_ns, busy, "rank {r} busy");
        assert_eq!(
            rc.component_ns(CostComponent::SpmmCompute),
            rank_spmm_total(r as u64)
        );
        assert_eq!(rc.component_ns(CostComponent::IoStall), 70);
        assert_eq!(rc.wire_ns, if r == 0 { 100 } else { 0 });
        if r < 3 {
            // Ranks 0..2 do no busy work after the match, so their best
            // chain is their own busy run: pure slack against the
            // wire-extended path.
            assert_eq!(rc.slack_ns, sent + 100 - busy, "rank {r} slack");
        }
    }
    // Rank 3 ends the busy chain the wire hop extends: zero slack.
    assert_eq!(report.ranks[3].slack_ns, 0);
    assert_eq!(report.skew.zero_slack_ranks, vec![3]);
    assert_eq!(
        report.skew.max_rank_slack_ns,
        sent + 100 - report.ranks[0].busy_ns
    );

    // Derived tile costs: floor(rank_spmm * tile_nnz / rank_nnz) over
    // the uniform Hilbert ownership — recomputed here from the operator
    // itself, then compared cell-for-cell.
    let sm = SystemMatrix::build(&scan);
    let mut nnz = [0u64; 16];
    for (_, col, _) in sm.triplets() {
        let x = col as usize % 16;
        let z = col as usize / 16;
        nnz[(z / 4) * 4 + x / 4] += 1;
    }
    let tomo = TileDecomposition::new(Domain2D::new(16, 16), 4, CurveKind::Hilbert);
    let mut expect = vec![0u64; 16];
    for sd in tomo.partition(4) {
        let rank_nnz: u64 = sd.tiles.iter().map(|t| nnz[t.ty * 4 + t.tx]).sum();
        if rank_nnz == 0 {
            continue;
        }
        for t in &sd.tiles {
            let i = t.ty * 4 + t.tx;
            expect[i] = (u128::from(rank_spmm_total(sd.id as u64)) * u128::from(nnz[i])
                / u128::from(rank_nnz)) as u64;
        }
    }
    assert_eq!(report.tile_costs_ns, expect);
    assert_eq!(
        report.skew.max_tile_ns,
        expect.iter().copied().max().unwrap()
    );
    // The scripted skew (rank 3 is 4x rank 0) must show up as a
    // genuinely nonuniform tile table.
    assert!(report.skew.max_over_mean() > 1.0);
}
