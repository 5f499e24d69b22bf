//! Plan-driven, optionally out-of-core reconstruction — the one
//! file-to-volume entry point, on any topology down to 1×1×1: execute a
//! [`ReconPlan`] slab by slab through the one slab loop
//! ([`crate::volume`]), paging non-resident slabs through `xct-io` while
//! resident compute runs.
//!
//! The set-up — Siddon matrix, decomposition, compiled and verified
//! exchange plans, packed rank operators — is a
//! [`DistributedSetup`] built once per call; every slab streams through
//! it. Slab boundaries — not data movement, and not what an earlier slab
//! left behind — determine the arithmetic: each slab runs the exact same
//! pipeline a fresh [`crate::distributed::reconstruct_distributed`]
//! call at that slab's length would, so a streamed run is bit-identical
//! to an unconstrained run batched at the plan's fusing factor — and on
//! 1×1×1 to [`crate::Reconstructor`] — with whichever algorithm the
//! request names.

use crate::distributed::{DistributedConfig, DistributedSetup};
use crate::recon::ReconOptions;
use crate::volume::{check, stream_slabs, PipelineError, StreamOutcome};
use xct_comm::RankCommStats;
use xct_exec::{ExecContext, ExecCounters, MetricId};
use xct_geometry::ScanGeometry;
use xct_io::{SliceReader, SliceWriter};
use xct_plan::ReconPlan;

/// Outcome of a plan-driven reconstruction.
#[derive(Debug, Clone)]
pub struct PlannedStats {
    /// Slices reconstructed.
    pub slices: usize,
    /// Slabs executed (the plan's slab count).
    pub slabs: usize,
    /// Whether slabs paged through I/O rather than staying resident.
    pub streamed: bool,
    /// Worst final relative residual across slabs.
    pub worst_residual: f64,
    /// Measured per-rank communication traffic merged across slabs.
    pub comm_stats: Vec<RankCommStats>,
    /// Execution counters merged across ranks and slabs.
    pub counters: ExecCounters,
}

/// [`reconstruct_planned`]'s result.
pub type PlannedOutcome = StreamOutcome<PlannedStats>;

/// A [`reconstruct_planned`] run that stopped: the error, with the
/// per-rank traffic and execution counters merged over every slab that
/// ran, the stopped one included (empty when no slab ran). Displays as
/// the error alone.
#[derive(Debug)]
pub struct PlannedError {
    /// What stopped the run.
    pub error: PipelineError,
    /// Measured per-rank communication traffic merged across the slabs
    /// that ran.
    pub comm_stats: Vec<RankCommStats>,
    /// Execution counters merged across ranks and the slabs that ran.
    pub counters: ExecCounters,
}

impl std::fmt::Display for PlannedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for PlannedError {}

impl From<PipelineError> for PlannedError {
    fn from(error: PipelineError) -> Self {
        PlannedError {
            error,
            comm_stats: Vec::new(),
            counters: ExecCounters::default(),
        }
    }
}

/// Executes `plan` against `scan`: reads each slab's sinogram from
/// `reader`, reconstructs it on the plan's simulated topology — one
/// [`DistributedSetup::run`] per slab, of the configuration's
/// [`DistributedConfig::request`] at the slab's length — and writes its
/// tomogram slices to `writer` in order.
///
/// The next slab's read and the previous slab's write run on background
/// threads while the current slab computes. Runtime knobs the plan does
/// not own — algorithm, wire model, iteration count, telemetry, plan
/// verification — come from `base`; the rest from the plan
/// ([`DistributedConfig::from_plan`]).
///
/// A slab whose solve stops ends the run with [`PipelineError::NonFinite`],
/// returned with the traffic and counters of the slabs that ran.
pub fn reconstruct_planned(
    scan: &ScanGeometry,
    plan: &ReconPlan,
    reader: SliceReader,
    writer: SliceWriter,
    base: &DistributedConfig,
) -> Result<PlannedOutcome, PlannedError> {
    check(plan.dims.n == scan.detector.channels, || {
        format!(
            "plan made for n = {}, scan has {} channels",
            plan.dims.n, scan.detector.channels
        )
    })?;
    check(reader.meta().slices == plan.dims.slices, || {
        format!(
            "plan covers {} slices, file holds {}",
            plan.dims.slices,
            reader.meta().slices
        )
    })?;
    debug_assert!(plan.fits(), "executing an over-budget plan");

    let cfg = DistributedConfig::from_plan(plan, base);
    let telemetry = cfg.telemetry.clone();
    #[allow(clippy::cast_precision_loss)] // gauges are approximate by nature
    {
        if let Some(budget) = plan.budget_bytes {
            telemetry.gauge_set(MetricId::PlanBudgetBytes, budget as f64);
        }
        telemetry.gauge_set(MetricId::PlanUsedBytes, plan.per_rank_bytes() as f64);
    }

    let setup = DistributedSetup::build(scan, &cfg);
    let request = cfg.request();
    // A lone rank's launches fan out across cores, as the serial path's do.
    let mut ctx = ExecContext::parallel().with_telemetry(telemetry.clone());
    let mut comm_stats: Vec<RankCommStats> = Vec::new();
    let mut counters = ExecCounters::default();
    let slab_lens: Vec<usize> = plan.slabs.iter().map(|slab| slab.len).collect();
    let outcome = stream_slabs(
        scan,
        reader,
        writer,
        &slab_lens,
        cfg.iterations,
        &telemetry,
        |data, len| {
            let slab = ReconOptions {
                fusing: len,
                ..request
            };
            let result = setup.run(data, &slab, &mut ctx);
            counters.merge(&result.counters);
            for rank_stats in &result.comm_stats {
                match comm_stats.iter_mut().find(|m| m.rank == rank_stats.rank) {
                    Some(m) => m.merge(rank_stats),
                    None => comm_stats.push(rank_stats.clone()),
                }
            }
            if let Some(fault) = result.non_finite {
                return Err(fault);
            }
            let residual = *result.residual_history.last().unwrap_or(&1.0);
            Ok((result.x, residual))
        },
    );
    match outcome {
        Ok(outcome) => Ok(StreamOutcome {
            stats: PlannedStats {
                slices: outcome.stats.slices,
                slabs: outcome.stats.slabs,
                streamed: plan.streaming(),
                worst_residual: outcome.stats.worst_residual,
                comm_stats,
                counters,
            },
            reader: outcome.reader,
            writer: outcome.writer,
        }),
        Err(error) => Err(PlannedError {
            error,
            comm_stats,
            counters,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::Precision;
    use xct_geometry::ImageGrid;
    use xct_io::{FileKind, SliceFile};
    use xct_phantom::shale_like;
    use xct_plan::{Planner, VolumeDims};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_core_stream_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn write_sinograms(scan: &ScanGeometry, slices: usize, path: &std::path::Path) {
        let sm = xct_geometry::SystemMatrix::build(scan);
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices,
            slice_len: sm.num_rays(),
        };
        let mut w = SliceWriter::create(path, meta).unwrap();
        for s in 0..slices {
            let img = shale_like(scan.grid.nx, 40 + s as u64);
            let mut sino = vec![0.0f32; sm.num_rays()];
            sm.project(&img.data, &mut sino);
            w.write_slice(&sino).unwrap();
        }
        w.finish().unwrap();
    }

    fn volume_writer(path: &std::path::Path, slices: usize, num_voxels: usize) -> SliceWriter {
        SliceWriter::create(
            path,
            SliceFile {
                kind: FileKind::Volume,
                precision: Precision::Single,
                slices,
                slice_len: num_voxels,
            },
        )
        .unwrap()
    }

    #[test]
    fn streamed_run_is_bit_identical_to_resident_batches() {
        let n = 16;
        let slices = 6;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 16);
        let sino = tmp("stream_in.xctd");
        write_sinograms(&scan, slices, &sino);
        let planner = Planner {
            precision: Precision::Single,
            max_fusing: slices,
            ..Default::default()
        };
        let dims = VolumeDims { n, slices };
        let topo = xct_comm::Topology::new(1, 2, 2);
        let base = DistributedConfig {
            iterations: 6,
            ..Default::default()
        };

        // Budget forcing fusing 2 → 3 streamed slabs.
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
        let plan = planner.plan(dims, 16, Some(budget), topo).unwrap();
        assert!(plan.streaming());
        let streamed_out = tmp("stream_out.xctd");
        let outcome = reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&streamed_out, slices, n * n),
            &base,
        )
        .unwrap();
        assert!(outcome.stats.streamed);
        assert_eq!(outcome.stats.slabs, 3);
        assert_eq!(outcome.stats.slices, slices);
        outcome.reader.verify_checksum().unwrap();
        outcome.writer.finish().unwrap();

        // A resident plan at the same fusing (no budget pressure, fusing
        // capped to 2) must produce byte-identical output.
        let resident = Planner {
            max_fusing: 2,
            ..planner
        }
        .plan(dims, 16, None, topo)
        .unwrap();
        assert_eq!(resident.fusing, 2);
        let resident_out = tmp("resident_out.xctd");
        let outcome = reconstruct_planned(
            &scan,
            &resident,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&resident_out, slices, n * n),
            &base,
        )
        .unwrap();
        outcome.writer.finish().unwrap();
        assert_eq!(
            std::fs::read(&streamed_out).unwrap(),
            std::fs::read(&resident_out).unwrap(),
            "streamed and resident runs must be bit-identical"
        );
    }

    #[test]
    fn metrics_of_every_slabs_rank_tracks_are_kept() {
        // Each slab's run forks a fresh track per rank, so a streamed run
        // registers every rank id once per slab: the metric snapshot must
        // add up the wait histograms of all of them and keep the last
        // slab's gauges.
        use xct_exec::Telemetry;
        use xct_telemetry::Phase;
        let (n, slices) = (16, 6);
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 16);
        let sino = tmp("reregistered_in.xctd");
        write_sinograms(&scan, slices, &sino);
        let planner = Planner {
            precision: Precision::Single,
            max_fusing: slices,
            ..Default::default()
        };
        let dims = VolumeDims { n, slices };
        let topo = xct_comm::Topology::new(1, 2, 2);
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
        let plan = planner.plan(dims, 16, Some(budget), topo).unwrap();
        assert_eq!(plan.slabs.len(), 3);
        let telemetry = Telemetry::enabled();
        let base = DistributedConfig {
            iterations: 5,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let out = tmp("reregistered_out.xctd");
        let outcome = reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&out, slices, n * n),
            &base,
        )
        .unwrap();
        assert_eq!(outcome.stats.slabs, 3);
        let (log, metrics) = (telemetry.snapshot(), telemetry.metrics_snapshot());
        for rank in 0..4u32 {
            let track = metrics.track(rank).expect("every rank recorded");
            let waits = (log.spans.iter())
                .filter(|s| s.track == rank && s.phase == Phase::CommWait)
                .count() as u64;
            let hist = track.histogram(MetricId::CommWaitNs).expect("waits");
            assert_eq!(hist.count(), waits, "rank {rank}");
            let last = (log.events.iter())
                .rfind(|e| e.track == rank && e.name == "cgls.residual")
                .expect("every rank records its residuals")
                .value;
            let gauge = track.gauge(MetricId::SolverResidual);
            assert_eq!(gauge, Some(last), "rank {rank}");
        }
    }

    #[test]
    fn a_stopped_run_returns_the_traffic_of_every_slab_that_ran() {
        // Two slabs of one slice on 1×2×2; the second slice holds a NaN,
        // so slab 1's first γ is not finite. The error carries what every
        // rank sent over both slabs, as the rank's own track counted it.
        use xct_exec::Telemetry;
        let n = 16;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 16);
        let sm = xct_geometry::SystemMatrix::build(&scan);
        let sino = tmp("stopped_in.xctd");
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: 2,
            slice_len: sm.num_rays(),
        };
        let mut w = SliceWriter::create(&sino, meta).unwrap();
        let mut slice = vec![1.0f32; sm.num_rays()];
        w.write_slice(&slice).unwrap();
        slice[sm.num_rays() / 2] = f32::NAN;
        w.write_slice(&slice).unwrap();
        w.finish().unwrap();
        let planner = Planner {
            precision: Precision::Single,
            max_fusing: 1,
            ..Default::default()
        };
        let plan = planner
            .plan(
                VolumeDims { n, slices: 2 },
                16,
                None,
                xct_comm::Topology::new(1, 2, 2),
            )
            .unwrap();
        assert_eq!(plan.slabs.len(), 2);
        let telemetry = Telemetry::enabled();
        let base = DistributedConfig {
            iterations: 4,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let Err(stopped) = reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&tmp("stopped_out.xctd"), 2, n * n),
            &base,
        ) else {
            panic!("a NaN slab must stop the run");
        };
        assert!(matches!(
            stopped.error,
            PipelineError::NonFinite { slab: 1, .. }
        ));
        assert_eq!(
            stopped.to_string(),
            "slab 1: solve stopped, gamma is not finite at iteration 1"
        );
        assert!(stopped.counters.kernel_launches > 0);
        let metrics = telemetry.metrics_snapshot();
        assert_eq!(stopped.comm_stats.len(), 4);
        for stats in &stopped.comm_stats {
            let track = metrics
                .track(stats.rank as u32)
                .expect("every rank recorded");
            let sent = track.counter(MetricId::CommSendMsgs);
            assert!(sent > 0, "rank {}", stats.rank);
            assert_eq!(stats.total_msgs(), sent, "rank {}", stats.rank);
        }
    }

    #[test]
    fn plan_file_mismatch_is_reported() {
        let n = 12;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 12);
        let sino = tmp("mismatch_in.xctd");
        write_sinograms(&scan, 3, &sino);
        // Plan made for 5 slices against a 3-slice file.
        let plan = Planner {
            precision: Precision::Single,
            ..Default::default()
        }
        .plan(
            VolumeDims { n, slices: 5 },
            12,
            None,
            xct_comm::Topology::new(1, 1, 2),
        )
        .unwrap();
        let out = tmp("mismatch_out.xctd");
        match reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&out, 5, n * n),
            &DistributedConfig::default(),
        ) {
            Err(PlannedError {
                error: PipelineError::Geometry(m),
                ..
            }) => assert!(m.contains("5 slices"), "{m}"),
            Err(other) => panic!("expected geometry error, got {other:?}"),
            Ok(_) => panic!("mismatched plan must not run"),
        }
    }

    #[test]
    fn set_up_is_built_once_for_all_slabs() {
        // The rebalance decision is recorded where the weighted
        // decomposition is built; a three-slab run that rebuilt its
        // set-up per slab would record it three times.
        use xct_exec::Telemetry;
        let n = 16;
        let slices = 5;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 16);
        let sino = tmp("once_in.xctd");
        write_sinograms(&scan, slices, &sino);
        let planner = Planner {
            precision: Precision::Single,
            max_fusing: slices,
            ..Default::default()
        };
        let dims = VolumeDims { n, slices };
        let topo = xct_comm::Topology::new(1, 2, 2);
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
        let side = n.div_ceil(4);
        let mut weights = vec![10u64; side * side];
        weights[0] = 1_000;
        let plan = planner
            .plan(dims, 16, Some(budget), topo)
            .unwrap()
            .with_tile_weights(xct_plan::TileWeights {
                tile_size: 4,
                weights,
            });
        assert_eq!(plan.slabs.len(), 3);
        let telemetry = Telemetry::enabled();
        let outcome = reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&tmp("once_out.xctd"), slices, n * n),
            &DistributedConfig {
                iterations: 2,
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.stats.slabs, 3);
        let decisions = (telemetry.snapshot().events.iter())
            .filter(|e| e.name == "rebalance.tiles_moved")
            .count();
        assert_eq!(decisions, 1, "set-up must be built once per planned run");
    }
}
