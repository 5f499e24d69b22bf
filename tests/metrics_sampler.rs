//! Deterministic metrics sampling: under a [`ManualClock`], a fixed
//! 1×2×2 streamed reconstruction produces an exactly predictable
//! snapshot series — sample times from the injected clock, and every
//! arithmetic-determined metric (solver iterations, slab progress,
//! plan gauges) at its exact value.

use std::sync::Arc;

use xct_core::distributed::DistributedConfig;
use xct_core::reconstruct_planned;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_phantom::shale_like;
use xct_plan::{Planner, VolumeDims};
use xct_telemetry::{metrics_series_json, Json, ManualClock, MetricId, Sampler, Telemetry};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xct_metrics_sampler_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn write_sinograms(scan: &ScanGeometry, slices: usize, path: &std::path::Path) {
    let sm = SystemMatrix::build(scan);
    let meta = SliceFile {
        kind: FileKind::Sinogram,
        precision: Precision::Single,
        slices,
        slice_len: sm.num_rays(),
    };
    let mut w = SliceWriter::create(path, meta).unwrap();
    for s in 0..slices {
        let img = shale_like(scan.grid.nx, 7 + s as u64);
        let mut sino = vec![0.0f32; sm.num_rays()];
        sm.project(&img.data, &mut sino);
        w.write_slice(&sino).unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn manual_clock_run_yields_an_exact_snapshot_series() {
    const N: usize = 16;
    const SLICES: usize = 2;
    const ITERATIONS: usize = 3;
    const RANKS: usize = 4; // 1×2×2

    let scan = ScanGeometry::uniform(ImageGrid::square(N, 1.0), 16);
    let sino = tmp("sampler_in.xctd");
    write_sinograms(&scan, SLICES, &sino);

    let clock = ManualClock::new();
    let telemetry = Telemetry::with_clock(Arc::new(clock.clone()));
    let mut sampler = Sampler::new(telemetry.clone(), 100);

    // Sample 1 at t=0: nothing has run, the registry is empty.
    assert!(sampler.tick(), "first tick samples at t=0");

    let topo = xct_comm::Topology::new(1, 2, 2);
    let dims = VolumeDims {
        n: N,
        slices: SLICES,
    };
    let planner = Planner {
        precision: Precision::Single,
        max_fusing: 1, // one slice per slab → exactly SLICES slabs, streamed
        ..Default::default()
    };
    let plan = planner.plan(dims, 16, None, topo).unwrap();
    assert_eq!(plan.slabs.len(), SLICES);
    let base = DistributedConfig {
        iterations: ITERATIONS,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let out = tmp("sampler_out.xctd");
    let writer = SliceWriter::create(
        &out,
        SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices: SLICES,
            slice_len: N * N,
        },
    )
    .unwrap();
    let outcome = reconstruct_planned(
        &scan,
        &plan,
        SliceReader::open(&sino).unwrap(),
        writer,
        &base,
    )
    .unwrap();
    assert_eq!(outcome.stats.slabs, SLICES);

    // Sample 2 at t=100: the finished run's cumulative totals.
    clock.set(100);
    assert!(sampler.tick());
    // t=150 is before the next deadline (200): no sample.
    clock.set(150);
    assert!(!sampler.tick());
    // Sample 3 at t=200: values identical to sample 2 (nothing ran).
    clock.set(200);
    assert!(sampler.tick());

    let samples = sampler.samples();
    let at: Vec<u64> = samples.iter().map(|s| s.at_ns).collect();
    assert_eq!(at, vec![0, 100, 200], "exact deadline-driven series");

    // Sample 1: empty registry (tracks with no touched metrics are
    // dropped from snapshots).
    assert!(samples[0].tracks.is_empty(), "{:?}", samples[0]);

    for sample in &samples[1..] {
        // Solver iterations are arithmetic-determined: every rank runs
        // the full iteration count for every slab (tolerance 0).
        assert_eq!(
            sample.counter_total(MetricId::SolverIterations),
            (RANKS * SLICES * ITERATIONS) as u64
        );
        for rank in 0..RANKS as u32 {
            let track = sample.track(rank).expect("every rank recorded");
            assert_eq!(
                track.counter(MetricId::SolverIterations),
                (SLICES * ITERATIONS) as u64,
                "rank {rank}"
            );
        }
        // Slab progress counters live on the driver track (track 0).
        assert_eq!(
            sample.counter_total(MetricId::StreamSlabsDone),
            SLICES as u64
        );
        assert_eq!(
            sample.counter_total(MetricId::StreamSlicesDone),
            SLICES as u64
        );
        // Plan-shape gauges match the plan exactly.
        assert_eq!(
            sample.gauge(MetricId::ProgressSlabsTotal),
            Some(SLICES as f64)
        );
        assert_eq!(
            sample.gauge(MetricId::ProgressItersPerSlab),
            Some(ITERATIONS as f64)
        );
        assert_eq!(
            sample.gauge(MetricId::PlanUsedBytes),
            Some(plan.per_rank_bytes() as f64)
        );
        // Matched comm traffic balances: nothing left in flight.
        assert_eq!(
            sample.counter_total(MetricId::CommSendBytes),
            sample.counter_total(MetricId::CommRecvBytes)
        );
        // The hierarchical exchange moved bytes on every rank.
        for rank in 0..RANKS as u32 {
            assert!(
                sample.track(rank).unwrap().counter(MetricId::CommSendBytes) > 0,
                "rank {rank} sent nothing"
            );
        }
        // The residual gauge holds the last slab's final relative
        // residual — positive, and bounded by the reported worst.
        let residual = sample
            .gauge(MetricId::SolverResidual)
            .expect("residual gauge set");
        assert!(residual > 0.0);
        assert!(residual <= outcome.stats.worst_residual);
    }

    // Samples 2 and 3 are identical snapshots: the run had finished, so
    // every counter and gauge is frozen. Serialize both and compare.
    let two = metrics_series_json(&samples[1..2]).to_string();
    let three = metrics_series_json(&samples[2..3]).to_string();
    assert_eq!(
        two.replace("\"at_ns\":100", "\"at_ns\":200"),
        three,
        "frozen registry must snapshot identically"
    );

    // And the exported series document round-trips through the parser.
    let doc = metrics_series_json(samples);
    let parsed = Json::parse(&doc.to_string()).expect("series JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("petaxct-metrics-v1")
    );
    assert_eq!(
        parsed
            .get("samples")
            .and_then(Json::as_array)
            .map(|s| s.len()),
        Some(3)
    );
}
