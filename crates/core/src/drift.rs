//! The two parts of a run document's profile that need more than the
//! log: the per-tile costs the writer derives from the operator, and
//! the analytic model's predicted shares the reader scores the measured
//! run against (model-drift attribution).
//!
//! Per-tile costs are *derived*, not timed: timing individual tiles
//! would change the kernel's loop structure (and with it the
//! floating-point reduction order), breaking the bit-identity guarantees
//! the executor is built on. Instead the owning rank's measured SpMM
//! self time is spread over its tiles proportionally to the per-tile
//! operator nonzeros — the same quantity the SpMM's work scales with.

use crate::model::{ModelEstimate, ModelExperiment};
use xct_comm::Topology;
use xct_geometry::ScanGeometry;
use xct_hilbert::{CurveKind, Domain2D, Subdomain, TileDecomposition};
use xct_plan::{ProfileReport, RunDocument, TileWeights};
use xct_telemetry::{CostComponent, ProfileSnapshot, TelemetrySnapshot, COMPONENT_COUNT};

/// The model's predicted per-component share of total predicted time,
/// in [`xct_telemetry::ALL_COMPONENTS`] order.
///
/// Mapping from the model's activity breakdown: `kernel` is SpMM
/// compute, `memcpy` is the staging gather/convert, `socket_comm` maps
/// to the socket reduction, `node_comm + reduction` to the node
/// reduction, `global_comm` to the global exchange, `idle` (the model's
/// imbalance plus pipeline bubbles) to comm-wait, and `io_seconds` to
/// I/O stall.
pub fn model_shares(estimate: &ModelEstimate) -> [f64; COMPONENT_COUNT] {
    let b = &estimate.breakdown;
    let mut shares = [0.0f64; COMPONENT_COUNT];
    shares[CostComponent::SpmmCompute.index()] = b.kernel;
    shares[CostComponent::GatherConvert.index()] = b.memcpy;
    shares[CostComponent::ReduceSocket.index()] = b.socket_comm;
    shares[CostComponent::ReduceNode.index()] = b.node_comm + b.reduction;
    shares[CostComponent::ReduceGlobal.index()] = b.global_comm;
    shares[CostComponent::CommWait.index()] = b.idle;
    shares[CostComponent::IoStall.index()] = estimate.io_seconds;
    let total: f64 = shares.iter().sum();
    if total > 0.0 {
        for s in &mut shares {
            *s /= total;
        }
    }
    shares
}

/// Per-tile nonzero counts of an operator with `count` nonzeros in
/// each `(voxel, count)` of `columns` (global voxel ids), row-major over
/// the `ceil(n / tile) × ceil(n / tile)` tomogram tile grid of `scan`.
pub fn tile_nnz(
    scan: &ScanGeometry,
    tile: usize,
    columns: impl Iterator<Item = (u32, u64)>,
) -> Vec<u64> {
    let nx = scan.grid.nx;
    let tiles_x = nx.div_ceil(tile);
    let tiles_y = scan.grid.nz.div_ceil(tile);
    let mut nnz = vec![0u64; tiles_x * tiles_y];
    for (voxel, count) in columns {
        let x = voxel as usize % nx;
        let z = voxel as usize / nx;
        nnz[(z / tile) * tiles_x + x / tile] += count;
    }
    nnz
}

/// Spreads each rank's measured SpMM self time over its tiles in
/// proportion to per-tile nonzeros. Tiles of a rank that recorded no
/// SpMM time (or holds no nonzeros) cost zero.
fn derive_tile_costs(
    tomo: &TileDecomposition,
    ranks: usize,
    tile_weights: Option<&[u64]>,
    nnz: &[u64],
    spmm_ns_of: impl Fn(usize) -> u64,
) -> Vec<u64> {
    let (tiles_x, _) = tomo.tile_grid();
    let subdomains = match tile_weights {
        Some(w) => tomo.partition_weighted(ranks, w),
        None => tomo.partition(ranks),
    };
    let mut costs = vec![0u64; nnz.len()];
    for sd in subdomains {
        let rank_nnz: u64 = sd.tiles.iter().map(|t| nnz[t.ty * tiles_x + t.tx]).sum();
        if rank_nnz == 0 {
            continue;
        }
        let spmm_ns = spmm_ns_of(sd.id);
        for t in sd.tiles {
            let idx = t.ty * tiles_x + t.tx;
            let share = u128::from(spmm_ns) * u128::from(nnz[idx]) / u128::from(rank_nnz);
            // xct-allow(no-panic): share <= spmm_ns, which fits u64
            costs[idx] = u64::try_from(share).unwrap();
        }
    }
    costs
}

/// The per-tile costs a run document stores: each rank's SpMM self
/// time in `log` spread over its tiles of `tile` cells by the operator's
/// per-tile nonzeros `nnz` ([`tile_nnz`]; a run's own set-up counts them,
/// [`crate::PlannedStats::tile_nnz`]), under the ownership the run
/// executed (`tile_weights`, or uniform), row-major over the tile grid.
pub fn tile_costs(
    scan: &ScanGeometry,
    topology: Topology,
    tile: usize,
    tile_weights: Option<&[u64]>,
    nnz: &[u64],
    log: &TelemetrySnapshot,
) -> TileWeights {
    let profile = ProfileSnapshot::from_snapshot(log);
    let tomo = TileDecomposition::new(
        Domain2D::new(scan.grid.nx, scan.grid.nz),
        tile,
        CurveKind::Hilbert,
    );
    let weights = derive_tile_costs(&tomo, topology.size(), tile_weights, nnz, |rank| {
        profile.track_component_ns(rank, CostComponent::SpmmCompute)
    });
    TileWeights {
        tile_size: tile,
        weights,
    }
}

/// Passes and minibatches the model may walk for a document: it takes
/// one step for each, and a document is external input.
const MODEL_STEPS: usize = 1 << 24;

/// The profile view of `doc`, scored against the analytic model of the
/// run its header describes ([`ModelExperiment::from_header`]), or
/// against zero shares when the header names no plan.
pub fn profile_view(doc: &RunDocument) -> Result<ProfileReport, String> {
    let model = ModelExperiment::from_header(&doc.header);
    if let Some(m) = model.as_ref().filter(|m| {
        let minibatches = m.rows.div_ceil(m.partitioning.batch.max(1)) / m.fusing.max(1);
        m.iterations.max(minibatches) > MODEL_STEPS
    }) {
        return Err(format!(
            "{} iterations over {} slices are past the {MODEL_STEPS} steps the model walks",
            m.iterations, m.rows
        ));
    }
    let model = model.map(|m| m.run());
    let predicted = model
        .as_ref()
        .map(model_shares)
        .unwrap_or([0.0; COMPONENT_COUNT]);
    ProfileReport::from_document(doc, predicted)
}

/// The rebalance preview of a profile: the largest per-rank sum of its
/// measured tile costs under the uniform ownership versus a
/// re-partition weighted by those same costs. Deterministic given the
/// document — exactly the imbalance `--weights-from` removes,
/// independent of run-to-run timing noise. Sums are taken in `u128`: a
/// document's costs are external input, each up to 2^53.
pub fn rebalance_preview(profile: &ProfileReport) -> String {
    let (n, costs) = (profile.plan.n, profile.tiles.weights.as_slice());
    let ranks = profile.topology.size();
    let tomo = TileDecomposition::new(
        Domain2D::new(n, n),
        profile.tiles.tile_size,
        CurveKind::Hilbert,
    );
    let (tiles_x, _) = tomo.tile_grid();
    let rank_max = |subs: &[Subdomain]| -> u128 {
        (subs.iter())
            .map(|sd| {
                (sd.tiles.iter())
                    .map(|t| u128::from(costs[t.ty * tiles_x + t.tx]))
                    .sum::<u128>()
            })
            .max()
            .unwrap_or(0)
    };
    let moved = tomo.rehomed_tiles(ranks, costs);
    let uniform = rank_max(&tomo.partition(ranks));
    let weighted = rank_max(&tomo.partition_weighted(ranks, costs));
    let total: u128 = costs.iter().copied().map(u128::from).sum();
    let ideal = total.div_ceil(ranks.max(1) as u128);
    format!(
        "rebalance preview (measured tile costs, {ranks} ranks, ideal {ideal}ns/rank):\n  \
         uniform ownership:  max rank {uniform}ns, slack {}ns\n  \
         weighted ownership: max rank {weighted}ns, slack {}ns ({moved} tiles re-homed)",
        uniform.saturating_sub(ideal),
        weighted.saturating_sub(ideal),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::{ImageGrid, SystemMatrix};

    fn matrix_nnz(sm: &SystemMatrix, scan: &ScanGeometry, tile: usize) -> Vec<u64> {
        tile_nnz(scan, tile, sm.triplets().map(|(_, col, _)| (col, 1)))
    }

    #[test]
    fn tile_nnz_covers_every_nonzero_exactly_once() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let nnz = matrix_nnz(&sm, &scan, 4);
        assert_eq!(nnz.len(), 16);
        assert_eq!(nnz.iter().sum::<u64>(), sm.triplets().count() as u64);
        // Central tiles see more rays than corners for a centered scan.
        assert!(nnz.iter().any(|&c| c > 0));
    }

    #[test]
    fn derived_tile_costs_conserve_rank_spmm_time_within_rounding() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let tomo = TileDecomposition::new(Domain2D::new(16, 16), 4, CurveKind::Hilbert);
        let nnz = matrix_nnz(&sm, &scan, 4);
        let spmm = [10_000u64, 20_000, 30_000, 40_000];
        let costs = derive_tile_costs(&tomo, 4, None, &nnz, |r| spmm[r]);
        assert_eq!(costs.len(), 16);
        for sd in tomo.partition(4) {
            let rank_total: u64 = sd.tiles.iter().map(|t| costs[t.ty * 4 + t.tx]).sum();
            // Floor division loses at most one nanosecond per tile.
            let budget = spmm[sd.id];
            assert!(
                rank_total <= budget && budget - rank_total <= sd.tiles.len() as u64,
                "rank {} spread {rank_total} of {budget}",
                sd.id
            );
        }
    }

    #[test]
    fn the_set_up_counts_the_traced_operators_nonzeros_per_tile() {
        use crate::distributed::{DistributedConfig, DistributedSetup};
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        for (ranks, tile) in [(1, 4), (4, 4), (4, 3)] {
            let cfg = DistributedConfig {
                topology: Topology::new(1, 1, ranks),
                tile,
                ..Default::default()
            };
            let setup = DistributedSetup::build(&scan, &cfg, xct_exec::Executor::Serial);
            assert_eq!(
                setup.tile_nnz(),
                matrix_nnz(&sm, &scan, tile),
                "{ranks} ranks, tile {tile}"
            );
        }
    }

    #[test]
    fn model_shares_sum_to_one_and_map_every_component() {
        use crate::model::ModelExperiment;
        use xct_cluster::MachineSpec;
        use xct_plan::Planner;
        let machine = MachineSpec::summit(2);
        let plan = Planner::default().plan_machine(512, 64, 512, &machine, 16);
        let mut header = xct_plan::RunHeader::default();
        header.planned(&plan, 10);
        assert_eq!(header.topology.map(|t| t.nodes), Some(machine.nodes));
        let est = ModelExperiment::from_header(&header).unwrap().run();
        let shares = model_shares(&est);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(shares[CostComponent::SpmmCompute.index()] > 0.0);
        assert!(shares[CostComponent::IoStall.index()] > 0.0);
    }

    #[test]
    fn a_header_asking_the_model_for_more_steps_than_a_run_takes_is_refused() {
        use xct_plan::{Partitioning, PlanShape, RunHeader};
        let plan = PlanShape {
            n: 8,
            slices: 2,
            angles: 8,
            fusing: 2,
            slabs: 1,
            partitioning: Partitioning { batch: 1, data: 1 },
        };
        let doc = RunDocument {
            header: RunHeader {
                topology: Some(Topology::new(1, 1, 1)),
                precision: Some(xct_fp16::Precision::Single),
                iterations: Some(1 << 30),
                plan: Some(plan),
                ..RunHeader::default()
            },
            ..RunDocument::default()
        };
        let err = profile_view(&doc).unwrap_err();
        assert!(err.contains("steps the model walks"), "{err}");
    }
}
