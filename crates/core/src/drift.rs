//! Builds the `petaxct-profile-v1` artifact: joins the telemetry cost
//! profile's measured per-component self times with the causal layer's
//! critical-path attribution, derives per-tile costs from the operator's
//! nonzero distribution, and scores the measured run against the
//! Tables III–IV analytic model (model-drift attribution).
//!
//! Per-tile costs are *derived*, not timed: timing individual tiles
//! would change the kernel's loop structure (and with it the
//! floating-point reduction order), breaking the bit-identity guarantees
//! the executor is built on. Instead the owning rank's measured SpMM
//! self time is spread over its tiles proportionally to the per-tile
//! operator nonzeros — the same quantity the SpMM's work scales with.

use crate::model::ModelEstimate;
use xct_comm::Topology;
use xct_fp16::Precision;
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_plan::{ComponentDrift, ProfileReport, RankCost, SkewReport};
use xct_telemetry::{
    CausalAnalysis, CostComponent, ProfileSnapshot, TelemetrySnapshot, ALL_COMPONENTS,
    COMPONENT_COUNT,
};

/// Everything a profiled run leaves behind, gathered for the artifact
/// builder.
pub struct ProfileInputs<'a> {
    /// Geometry the run reconstructed.
    pub scan: &'a ScanGeometry,
    /// Slices in the profiled stack.
    pub slices: usize,
    /// Rank topology the run executed on.
    pub topology: Topology,
    /// Precision mode of the run.
    pub precision: Precision,
    /// Hilbert tile size of the run's decomposition.
    pub tile: usize,
    /// Tile weights the run partitioned with (`None` = uniform); the
    /// derived per-tile costs must attribute to the ownership that
    /// actually executed.
    pub tile_weights: Option<&'a [u64]>,
    /// The full span/event/edge snapshot: the cost profile and the
    /// causal analysis are both derived from it.
    pub snapshot: &'a TelemetrySnapshot,
    /// Analytic-model estimate for the same problem, when available;
    /// without it the drift table's predicted shares are zero.
    pub model: Option<&'a ModelEstimate>,
}

/// The model's predicted per-component share of total predicted time,
/// in [`ALL_COMPONENTS`] order.
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

/// Per-tile nonzero counts of `sm`, row-major over the
/// `ceil(n / tile) ×  ceil(n / tile)` tomogram tile grid.
fn tile_nnz(sm: &SystemMatrix, scan: &ScanGeometry, tile: usize) -> Vec<u64> {
    let nx = scan.grid.nx;
    let tiles_x = nx.div_ceil(tile);
    let tiles_y = scan.grid.nz.div_ceil(tile);
    let mut nnz = vec![0u64; tiles_x * tiles_y];
    for (_, col, _) in sm.triplets() {
        let x = col as usize % nx;
        let z = col as usize / nx;
        nnz[(z / tile) * tiles_x + x / tile] += 1;
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

/// Builds the full [`ProfileReport`] from a profiled run's leavings.
pub fn build_profile_report(inputs: &ProfileInputs) -> ProfileReport {
    let scan = inputs.scan;
    let ranks = inputs.topology.size();
    let causal = CausalAnalysis::from_snapshot(inputs.snapshot);
    let profile = ProfileSnapshot::from_snapshot(inputs.snapshot);

    // Per-rank wire time: simulated wire nanoseconds of messages this
    // rank received (matched), summed from the causal edges.
    let mut wire_by_rank = vec![0u64; ranks];
    for e in &inputs.snapshot.edges {
        if let Some(w) = wire_by_rank.get_mut(e.dst_track as usize) {
            *w = w.saturating_add(e.wire_ns);
        }
    }

    let mut rank_costs = Vec::with_capacity(ranks);
    for (rank, &wire_ns) in wire_by_rank.iter().enumerate() {
        let components = ALL_COMPONENTS.map(|c| profile.track_component_ns(rank, c));
        let path = causal.per_rank.iter().find(|r| r.track as usize == rank);
        rank_costs.push(RankCost {
            rank: rank as u32,
            busy_ns: path.map_or(0, |r| r.busy_ns),
            on_path_ns: path.map_or(0, |r| r.on_path_ns),
            slack_ns: path.map_or(0, |r| r.slack_ns),
            wire_ns,
            components,
        });
    }

    // Derived per-tile costs over the same ownership the run executed.
    let sm = SystemMatrix::build(scan);
    let tomo = TileDecomposition::new(
        Domain2D::new(scan.grid.nx, scan.grid.nz),
        inputs.tile,
        CurveKind::Hilbert,
    );
    let (tiles_x, tiles_y) = tomo.tile_grid();
    let nnz = tile_nnz(&sm, scan, inputs.tile);
    let tile_costs_ns = derive_tile_costs(&tomo, ranks, inputs.tile_weights, &nnz, |rank| {
        rank_costs[rank].component_ns(CostComponent::SpmmCompute)
    });

    // Model-vs-measured drift, in shares of the respective totals.
    let predicted = inputs.model.map(model_shares).unwrap_or_default();
    let measured_total = profile.total_ns();
    let drift = ALL_COMPONENTS
        .iter()
        .map(|&component| {
            let measured_ns = profile.component_ns(component);
            let measured_share = if measured_total == 0 {
                0.0
            } else {
                measured_ns as f64 / measured_total as f64
            };
            ComponentDrift {
                component,
                measured_ns,
                measured_share,
                predicted_share: predicted[component.index()],
            }
        })
        .collect();

    let max_tile_ns = tile_costs_ns.iter().copied().max().unwrap_or(0);
    let mean_tile_ns = if tile_costs_ns.is_empty() {
        0.0
    } else {
        tile_costs_ns.iter().sum::<u64>() as f64 / tile_costs_ns.len() as f64
    };
    let mut zero_slack_ranks: Vec<u32> = causal
        .per_rank
        .iter()
        .filter(|r| r.slack_ns == 0)
        .map(|r| r.track)
        .collect();
    zero_slack_ranks.sort_unstable();
    let skew = SkewReport {
        max_tile_ns,
        mean_tile_ns,
        critical_path_ns: causal.critical_path_ns,
        max_rank_slack_ns: causal
            .per_rank
            .iter()
            .map(|r| r.slack_ns)
            .max()
            .unwrap_or(0),
        zero_slack_ranks,
    };

    ProfileReport {
        precision: inputs.precision,
        n: scan.detector.channels,
        slices: inputs.slices,
        angles: scan.angles.len(),
        topology: inputs.topology,
        tile_size: inputs.tile,
        tiles_x,
        tiles_y,
        tile_costs_ns,
        ranks: rank_costs,
        drift,
        skew,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::ImageGrid;

    #[test]
    fn tile_nnz_covers_every_nonzero_exactly_once() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let nnz = tile_nnz(&sm, &scan, 4);
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
        let nnz = tile_nnz(&sm, &scan, 4);
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
    fn model_shares_sum_to_one_and_map_every_component() {
        use crate::model::{ModelExperiment, OptLevel};
        use xct_cluster::MachineSpec;
        use xct_plan::Planner;
        let machine = MachineSpec::summit(2);
        let plan = Planner::default().plan_machine(512, 64, 512, &machine, 16);
        let est = ModelExperiment::from_plan(&plan, machine, OptLevel::full(), 10).run();
        let shares = model_shares(&est);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(shares[CostComponent::SpmmCompute.index()] > 0.0);
        assert!(shares[CostComponent::IoStall.index()] > 0.0);
    }
}
