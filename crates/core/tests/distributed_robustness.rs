//! Distributed-pipeline robustness: larger topologies, noise, fused
//! half-precision hierarchical runs, and degenerate rank counts.

use xct_comm::Topology;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_exec::{Phase, Telemetry};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_phantom::{add_poisson_noise, charcoal_like};

fn sinogram_for(scan: &ScanGeometry, seed: u64, flux: f64) -> (Vec<f32>, Vec<f32>) {
    let sm = SystemMatrix::build(scan);
    let mut phantom = charcoal_like(scan.grid.nx, seed);
    // Keep line integrals in the physical transmission regime (≤ ~3
    // attenuation lengths) so Poisson noise carries signal.
    for v in &mut phantom.data {
        *v *= 0.15;
    }
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&phantom.data, &mut y);
    if flux > 0.0 {
        add_poisson_noise(&mut y, flux, seed);
    }
    (y, phantom.data)
}

fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&p, &q)| (f64::from(p) - f64::from(q)).powi(2))
        .sum();
    let den: f64 = b.iter().map(|&q| f64::from(q).powi(2)).sum();
    (num / den.max(1e-30)).sqrt()
}

#[test]
fn twelve_ranks_three_nodes_with_noise() {
    let scan = ScanGeometry::uniform(ImageGrid::square(24, 1.0), 24);
    let (y, truth) = sinogram_for(&scan, 5, 2e4);
    let result = reconstruct_distributed(
        &scan,
        &y,
        &DistributedConfig {
            topology: Topology::new(3, 2, 2),
            precision: Precision::Mixed,
            fusing: 1,
            hierarchical: true,
            iterations: 20,
            ..Default::default()
        },
    );
    let err = rel_err(&result.x, &truth);
    assert!(err < 0.35, "noisy 12-rank reconstruction error {err}");
    assert!(result.residual_history.last().unwrap() < &0.1);
}

#[test]
fn single_rank_topology_works() {
    // Degenerate distribution: one GPU owns everything, and the run is
    // the serial solve on the caller's thread — no rank thread, no
    // exchange, no message.
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let (y, truth) = sinogram_for(&scan, 9, 0.0);
    let telemetry = Telemetry::enabled();
    let caller = telemetry.span(Phase::Custom("caller"));
    let result = reconstruct_distributed(
        &scan,
        &y,
        &DistributedConfig {
            topology: Topology::new(1, 1, 1),
            precision: Precision::Single,
            fusing: 1,
            hierarchical: true,
            iterations: 25,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    drop(caller);
    assert!(rel_err(&result.x, &truth) < 0.2);
    let (s, n, _) = result.comm_elements;
    assert_eq!(s + n, 0, "one rank has no local peers");
    assert_eq!(result.comm_stats.len(), 1);
    assert_eq!(
        result.comm_stats[0].total_msgs(),
        0,
        "one rank sends nothing"
    );

    // A rank thread records on a forked track whose spans never nest
    // under the caller's; here every iteration nests under the span the
    // caller held open, so the solve ran on the caller's own handle.
    let snap = telemetry.snapshot();
    let root = snap
        .spans
        .iter()
        .position(|s| s.phase == Phase::Custom("caller"))
        .unwrap();
    let iterations: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.phase == Phase::SolverIteration)
        .collect();
    assert_eq!(iterations.len(), 25);
    assert!(iterations.iter().all(|s| s.parent == Some(root)));
    assert!(snap.spans.iter().all(|s| s.track == snap.spans[root].track));
    assert!(!snap.spans.iter().any(|s| matches!(
        s.phase,
        Phase::ReduceSocket | Phase::ReduceNode | Phase::ReduceGlobal | Phase::Allreduce
    )));
}

#[test]
fn fused_half_precision_hierarchical() {
    // The full stack at its most aggressive: half storage AND half
    // compute, fused slices, hierarchical exchange both directions.
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
    let sm = SystemMatrix::build(&scan);
    let fusing = 2;
    let mut y = Vec::new();
    let mut truths = Vec::new();
    for f in 0..fusing {
        let phantom = charcoal_like(16, 20 + f as u64);
        let mut s = vec![0.0f32; sm.num_rays()];
        sm.project(&phantom.data, &mut s);
        y.extend(s);
        truths.push(phantom.data);
    }
    let result = reconstruct_distributed(
        &scan,
        &y,
        &DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Half,
            fusing,
            hierarchical: true,
            iterations: 15,
            ..Default::default()
        },
    );
    for (f, truth) in truths.iter().enumerate() {
        let piece = &result.x[f * sm.num_voxels()..(f + 1) * sm.num_voxels()];
        let err = rel_err(piece, truth);
        assert!(err < 0.4, "half-everything slice {f} error {err}");
    }
}

#[test]
fn more_ranks_than_tiles_leaves_spare_ranks_idle_but_correct() {
    // 16 ranks on an 8x8 grid with 4-cell tiles: only 4 tomogram tiles
    // exist per domain, so most ranks own nothing — the pipeline must
    // still complete and agree with the reference.
    let scan = ScanGeometry::uniform(ImageGrid::square(8, 1.0), 12);
    let (y, _) = sinogram_for(&scan, 31, 0.0);
    let result = reconstruct_distributed(
        &scan,
        &y,
        &DistributedConfig {
            topology: Topology::new(4, 2, 2),
            precision: Precision::Single,
            fusing: 1,
            hierarchical: true,
            iterations: 10,
            tile: 4,
            ..Default::default()
        },
    );
    assert_eq!(result.x.len(), 64);
    assert!(result.residual_history.last().unwrap() < &0.2);
}
