//! Fig 11: communication-time breakdown for Charcoal on 128 nodes —
//! direct vs hierarchical vs overlapped, per precision (model mode;
//! 30 projections + 31 backprojections as in Table IV's footnote) —
//! plus a **measured** overlap-on/off comparison on the executable
//! multi-rank pipeline, checked against `simulate_pipeline`'s
//! prediction. `--quick` shrinks the measured run and skips the strict
//! wall-time assertion (for CI, where timing is noisy).

use std::time::{Duration, Instant};

use xct_bench::fmt_time;
use xct_cluster::{simulate_pipeline, MachineSpec, MinibatchWork, PipelineMode};
use xct_comm::{Topology, WireModel};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::model::{HierarchyRatios, ModelExperiment, OptLevel};
use xct_core::Partitioning;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_telemetry::{Phase, Telemetry};

fn run(precision: Precision, hier: bool, overlap: bool) -> xct_core::model::ModelEstimate {
    let machine = MachineSpec::summit(128);
    let partitioning = Partitioning::optimal_for(4500, 4198, 6613, &machine, precision);
    ModelExperiment {
        projections: 4500,
        rows: 4198,
        channels: 6613,
        machine,
        partitioning,
        precision,
        opt: OptLevel {
            kernel_opt: true,
            comm_hierarchical: hier,
            comm_overlap: overlap,
        },
        fusing: 16,
        iterations: 30,
        ratios: HierarchyRatios::paper(),
        imbalance: 0.07,
    }
    .run()
}

/// Total duration (seconds) and count of the spans with `phase`.
fn span_total(snap: &xct_telemetry::TelemetrySnapshot, phase: Phase) -> (f64, usize) {
    let spans = snap.spans.iter().filter(|s| s.phase == phase);
    let total: u64 = spans.clone().map(|s| s.duration_ns()).sum();
    (total as f64 / 1e9, spans.count())
}

/// Measured overlap-on/off comparison on the executable pipeline
/// (in-process ranks), checked against the discrete-event model.
///
/// The config is deliberately **comm-bound**: two simulated nodes with a
/// [`WireModel`] holding inter-node messages on the wire, so the
/// synchronous schedule sleeps out real wire time at every global
/// exchange while the overlapped schedule has every slice's exchange
/// on the wire at once.
fn measured_comparison(quick: bool) {
    let (n, fusing, iterations, reps) = if quick { (24, 4, 3, 1) } else { (32, 8, 8, 3) };
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), n);
    let sm = SystemMatrix::build(&scan);
    let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
    for (i, v) in x_true.iter_mut().enumerate() {
        *v = ((i % 11) as f32) * 0.1;
    }
    let mut y = vec![0.0f32; sm.num_rays() * fusing];
    for f in 0..fusing {
        sm.project(
            &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
        );
    }
    let topology = Topology::new(2, 2, 2);
    let wire = WireModel {
        latency: Duration::from_micros(600),
        bytes_per_sec: 50e6,
        ranks_per_node: topology.size() / 2,
    };
    let cfg = |overlap: bool, telemetry: Telemetry| DistributedConfig {
        topology,
        precision: Precision::Single,
        fusing,
        hierarchical: true,
        overlap,
        wire: Some(wire),
        iterations,
        telemetry,
        ..Default::default()
    };

    // Results must be bit-identical: overlap is a pure scheduling change.
    let sync_result = reconstruct_distributed(&scan, &y, &cfg(false, Telemetry::disabled()));
    let over_result = reconstruct_distributed(&scan, &y, &cfg(true, Telemetry::disabled()));
    assert_eq!(
        sync_result.x, over_result.x,
        "overlap must not change the reconstruction"
    );

    // Wall time: best of `reps`, modes alternated so drift hits both.
    let (mut t_sync, mut t_over) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        for (overlap, best) in [(false, &mut t_sync), (true, &mut t_over)] {
            let start = Instant::now();
            let r = reconstruct_distributed(&scan, &y, &cfg(overlap, Telemetry::disabled()));
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(r.x.len(), sm.num_voxels() * fusing);
            if elapsed < *best {
                *best = elapsed;
            }
        }
    }

    // Feed the discrete-event model the *measured* per-slice activity
    // times from a traced synchronous run and compare its prediction.
    // A rank runs one fused SpmmForward per apply, so the number of
    // slice-applies is (fused launches x fusing); each phase's total
    // time divided by that is its per-minibatch share — for the kernel
    // the fused span split evenly, for the global level the post and
    // the drain of one slice together.
    let telemetry = Telemetry::enabled();
    reconstruct_distributed(&scan, &y, &cfg(false, telemetry.clone()));
    let snap = telemetry.snapshot();
    let (kernel_total, launches) = span_total(&snap, Phase::SpmmForward);
    let slice_applies = (launches * fusing).max(1) as f64;
    let per_slice = |phase| span_total(&snap, phase).0 / slice_applies;
    let mb = MinibatchWork {
        kernel: kernel_total / slice_applies,
        socket_comm: per_slice(Phase::ReduceSocket),
        node_comm: per_slice(Phase::ReduceNode),
        reduction: 0.0,
        global_comm: per_slice(Phase::ReduceGlobal),
        memcpy: 0.0,
    };
    let mbs = vec![mb; fusing];
    let pred_sync = simulate_pipeline(&mbs, PipelineMode::Synchronized);
    let pred_over = simulate_pipeline(&mbs, PipelineMode::OverlappedProjection);

    let measured_gain = 1.0 - t_over / t_sync;
    let predicted_gain = 1.0 - pred_over.total / pred_sync.total;
    println!(
        "MEASURED: executable pipeline, 2x2x2 topology ({} ranks, simulated {:.0} us / {:.0} MB/s inter-node wire), single precision, fusing={fusing}, {iterations} iterations",
        topology.size(),
        wire.latency.as_secs_f64() * 1e6,
        wire.bytes_per_sec / 1e6
    );
    println!(
        "  synchronous {:>9.1} ms   overlapped {:>9.1} ms   gain {:>5.1}%",
        t_sync * 1e3,
        t_over * 1e3,
        measured_gain * 100.0
    );
    println!(
        "  model (per-slice times from trace): sync {:>9.1} ms   overlapped {:>9.1} ms   predicted gain {:>5.1}%",
        pred_sync.total * iterations as f64 * 1e3,
        pred_over.total * iterations as f64 * 1e3,
        predicted_gain * 100.0
    );
    println!("  volumes bit-identical: yes");

    assert!(
        pred_over.total <= pred_sync.total + 1e-12,
        "model must never predict overlap slower than synchronized"
    );
    if quick {
        println!("  (--quick: strict wall-time assertion skipped)");
    } else {
        assert!(
            t_over < t_sync,
            "overlap-on wall time {t_over:.4}s must beat overlap-off {t_sync:.4}s"
        );
        assert!(
            predicted_gain > 0.0,
            "traced run shows global comm, so the model must predict a gain"
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("FIG 11: Communication time breakdown, Charcoal on 128 nodes (768 GPUs)");
    println!();
    let header = format!(
        "{:<8} {:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Prec.", "Scheme", "Kernel", "Socket", "Node", "Global", "Memcpy", "Idle", "Total"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for precision in [Precision::Double, Precision::Single, Precision::Mixed] {
        for (label, hier, overlap) in [
            ("Direct", false, false),
            ("Hierar.", true, false),
            ("Overl.", true, true),
        ] {
            let e = run(precision, hier, overlap);
            let b = &e.breakdown;
            println!(
                "{:<8} {:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                precision.label(),
                label,
                fmt_time(b.kernel),
                fmt_time(b.socket_comm),
                fmt_time(b.node_comm),
                fmt_time(b.global_comm),
                fmt_time(b.memcpy),
                fmt_time(b.idle),
                fmt_time(b.total),
            );
        }
    }

    println!();
    // Headline shape checks (paper IV-D).
    let direct = run(Precision::Mixed, false, false);
    let hier = run(Precision::Mixed, true, false);
    let over = run(Precision::Mixed, true, true);
    let comm_cut = 1.0
        - (hier.breakdown.comm_total() + hier.breakdown.memcpy)
            / (direct.breakdown.comm_total() + direct.breakdown.memcpy);
    let overlap_gain = 1.0 - over.breakdown.total / hier.breakdown.total;
    println!(
        "Hierarchical communication cuts total communication time by {:.0}% (paper: 52%)",
        comm_cut * 100.0
    );
    println!(
        "Overlapping gains an additional {:.0}% of total execution (paper: 21-29%)",
        overlap_gain * 100.0
    );
    assert!(comm_cut > 0.35, "hierarchy must cut comm substantially");
    assert!(
        (0.02..0.5).contains(&overlap_gain),
        "overlap gain {overlap_gain} out of plausible band"
    );
    println!("Shape checks passed.");
    println!();
    measured_comparison(quick);
}
