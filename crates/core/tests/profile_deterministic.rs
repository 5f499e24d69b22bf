//! Deterministic profiler fixture: a scripted 1x2x2 "run" driven by a
//! [`ManualClock`] — four rank tracks, each running two slabs of two
//! slices — with every span duration chosen so each per-rank cost, each
//! drift row, and every derived per-tile cost is an exact arithmetic
//! consequence of the script. No tolerances anywhere: the profiler adds
//! scripted integers, and the document writer's tile spread is floor
//! division over the operator's nonzero counts. The run document is
//! written, read back and pinned byte for byte; every view is computed
//! from the decoded document.

use std::sync::Arc;

use xct_comm::Topology;
use xct_core::distributed::{DistributedConfig, DistributedSetup};
use xct_core::{profile_view, tile_costs};
use xct_exec::Executor;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_plan::{Partitioning, PlanShape, RunDocument, RunHeader};
use xct_telemetry::{
    chrome_trace, Breakdown, CausalAnalysis, CostComponent, ManualClock, Phase, PhaseHistograms,
    ProfileSnapshot, Telemetry, ALL_COMPONENTS,
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
fn nested_spans_attribute_exact_self_time() {
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
    let mut t = 1000;
    span_for(&tele, &clock, &mut t, Phase::PrecisionConvert, 100);
    let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
    assert_eq!(snap.track_component_ns(0, CostComponent::SpmmCompute), 700);
    assert_eq!(snap.track_component_ns(0, CostComponent::CommWait), 300);
    assert_eq!(
        snap.track_component_ns(0, CostComponent::GatherConvert),
        100
    );
    assert_eq!(snap.total_ns(), 1100);
}

#[test]
fn scripted_1x2x2_run_yields_exact_costs_drift_and_tile_costs() {
    let clock = ManualClock::new();
    let tele = Telemetry::with_clock(Arc::new(clock.clone()));
    let topology = Topology::new(1, 2, 2);
    let ranks = topology.size();
    let forks: Vec<Telemetry> = (0..ranks).map(|r| tele.fork(r as u32)).collect();
    // Each rank's spans are laid back-to-back on its own timeline so
    // its causal busy time is the plain sum of scripted durations.
    let mut cursor = vec![0u64; ranks];

    // Streamed slabs run one at a time, every rank in each.
    for slab in 0..2u64 {
        for (r, fork) in forks.iter().enumerate() {
            for slice in 0..2u64 {
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
    // One scripted span per remaining component, per rank.
    let singles = [
        (Phase::PrecisionConvert, 100u64),
        (Phase::ReduceSocket, 30),
        (Phase::ReduceNode, 40),
        (Phase::ReduceGlobal, 50),
        (Phase::CommWait, 60),
        (Phase::Io, 70),
    ];
    for (r, fork) in forks.iter().enumerate() {
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

    // --- exact per-rank profile ---------------------------------
    let snapshot = tele.snapshot();
    let profile = ProfileSnapshot::from_snapshot(&snapshot);
    for r in 0..ranks {
        assert_eq!(
            profile.track_component_ns(r, CostComponent::SpmmCompute),
            rank_spmm_total(r as u64),
            "rank {r}"
        );
    }
    assert_eq!(
        Breakdown::from_snapshot(&snapshot).render_table(),
        BREAKDOWN
    );

    // --- the run document, written and read back -------------------
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
    // No iteration count, so no model: every predicted share is zero.
    let header = RunHeader {
        topology: Some(topology),
        precision: Some(Precision::Single),
        plan: Some(PlanShape {
            n: 16,
            slices: 2,
            angles: 12,
            fusing: 2,
            slabs: 2,
            partitioning: Partitioning { batch: 1, data: 4 },
        }),
        ..RunHeader::new("scripted", Vec::new())
    };
    let mut doc = RunDocument::capture(header, &tele, None);
    // The nonzeros come off a run's set-up, as `reconstruct` counts them.
    let cfg = DistributedConfig {
        topology,
        tile: 4,
        ..Default::default()
    };
    let nnz = DistributedSetup::build(&scan, &cfg, Executor::Serial).tile_nnz();
    doc.tiles = Some(tile_costs(&scan, topology, 4, None, &nnz, &doc.log));
    let doc = RunDocument::parse(&doc.to_json().to_string()).expect("the document reads back");
    assert_eq!(doc.log, snapshot);
    assert_eq!(
        doc.to_json().to_string(),
        include_str!("data/profile_run.json").trim_end()
    );

    // The views of the decoded document are what the retired
    // per-view writers printed for this script.
    let report = profile_view(&doc).expect("the document has a profile");
    assert_eq!(report.render_text(), PROFILE_TEXT);
    let log = &doc.log;
    assert_eq!(Breakdown::from_snapshot(log).render_table(), BREAKDOWN);
    assert_eq!(
        CausalAnalysis::from_snapshot(log).render_table(),
        CRITICAL_PATH
    );
    assert_eq!(
        PhaseHistograms::from_snapshot(log).render_table(),
        HISTOGRAMS
    );
    let trace = chrome_trace(log);
    let fnv = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!((trace.len(), fnv), (4200, 0x8bfe_0947_4395_e90a));

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
    assert_eq!(report.tiles.weights, expect);
    assert_eq!(report.tiles.weights, PINNED_TILE_COSTS);
    assert_eq!(
        report.skew.max_tile_ns,
        expect.iter().copied().max().unwrap()
    );
    // The scripted skew (rank 3 is 4x rank 0) must show up as a
    // genuinely nonuniform tile table.
    assert!(report.skew.max_over_mean() > 1.0);
    // The values the profile JSON pinned before the run document.
    assert_eq!(report.skew.mean_tile_ns, 2554.5625);
    assert_eq!(report.skew.max_over_mean(), 1.664864335869645);
    let on_path: Vec<u64> = report.ranks.iter().map(|r| r.on_path_ns).collect();
    assert_eq!(on_path, [0, 0, 0, 16570]);
}

/// The scripted run's phase breakdown.
const BREAKDOWN: &str = "\
phase                    count        total         self   % wall\n\
spmm.forward                16    40.880 µs    40.880 µs   246.7%\n\
precision.convert            4       400 ns       400 ns     2.4%\n\
io                           4       280 ns       280 ns     1.7%\n\
comm.wait                    4       240 ns       240 ns     1.4%\n\
comm.reduce.global           4       200 ns       200 ns     1.2%\n\
comm.reduce.node             4       160 ns       160 ns     1.0%\n\
comm.reduce.socket           4       120 ns       120 ns     0.7%\n\
wall  16.570 µs · instrumented coverage 255.2%\n\
";

/// The scripted run's derived tile costs.
const PINNED_TILE_COSTS: [u64; 16] = [
    900, 1106, 4253, 3460, 1106, 1106, 4253, 4253, 2155, 2155, 3204, 3204, 1753, 2155, 3204, 2606,
];

/// The scripted run's drift and skew tables, as `petaxct profile`
/// printed them before the run document.
const PROFILE_TEXT: &str = "\
profile: n=16 slices=2 angles=12 topology=1x2x2 precision=single tiles=4x4 (tile 4)

component              measured      meas%     model%    drift
spmm.compute            40880ns      96.7%       0.0%   +96.7%
gather.convert            400ns       0.9%       0.0%    +0.9%
reduce.socket             120ns       0.3%       0.0%    +0.3%
reduce.node               160ns       0.4%       0.0%    +0.4%
reduce.global             200ns       0.5%       0.0%    +0.5%
comm.wait                 240ns       0.6%       0.0%    +0.6%
io.stall                  280ns       0.7%       0.0%    +0.7%

skew: max tile 4253ns, mean tile 2555ns (max/mean 1.66)
critical path 16670ns, max rank slack 12100ns, zero-slack ranks [3]

rank           busy      on-path        slack         wire
0            4570ns          0ns      12100ns        100ns
1            8570ns          0ns       8100ns          0ns
2           12570ns          0ns       4100ns          0ns
3           16570ns      16570ns          0ns          0ns
";

/// The scripted run's critical-path table.
const CRITICAL_PATH: &str = "\
critical path 16.670 µs · wire on path 100 ns · 1 step(s)
rank         busy    on path      slack  % path
0        4.570 µs       0 ns  12.100 µs    0.0%
1        8.570 µs       0 ns   8.100 µs    0.0%
2       12.570 µs       0 ns   4.100 µs    0.0%
3       16.570 µs  16.570 µs       0 ns   99.4% *
(* = zero slack: the rank bounds end-to-end time)
";

/// The scripted run's duration histograms.
const HISTOGRAMS: &str = "\
phase duration histograms (log2 buckets)
spmm.forward           n=16     min 1.000 µs · max 4.110 µs
  [    512 ns,   1.024 µs)      2 ########
  [  1.024 µs,   2.048 µs)      4 ################
  [  2.048 µs,   4.096 µs)      8 ################################
  [  4.096 µs,   8.192 µs)      2 ########
precision.convert      n=4      min 100 ns · max 100 ns
  [     64 ns,     128 ns)      4 ################################
io                     n=4      min 70 ns · max 70 ns
  [     64 ns,     128 ns)      4 ################################
comm.wait              n=4      min 60 ns · max 60 ns
  [     32 ns,      64 ns)      4 ################################
comm.reduce.global     n=4      min 50 ns · max 50 ns
  [     32 ns,      64 ns)      4 ################################
comm.reduce.node       n=4      min 40 ns · max 40 ns
  [     32 ns,      64 ns)      4 ################################
comm.reduce.socket     n=4      min 30 ns · max 30 ns
  [     16 ns,      32 ns)      4 ################################
";
