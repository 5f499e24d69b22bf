//! Streaming must be a pure data-movement change.
//!
//! A plan whose budget forces several streamed slabs runs the exact
//! same multi-rank arithmetic per slab as an unconstrained resident
//! plan batched at the same fusing factor — paging slabs through
//! `xct-io` moves bytes, never changes them. The reconstructed volume
//! must therefore match **bit for bit** across precisions and exchange
//! modes, not merely within a tolerance.
//!
//! Slabs also share one set-up (`DistributedSetup`, built once per
//! `reconstruct_planned` call) and nothing else: the last test pins each
//! slab to a fresh `reconstruct_distributed` call that builds its own.

use xct_comm::Topology;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::reconstruct_planned;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_phantom::shale_like;
use xct_plan::{Planner, VolumeDims};

const N: usize = 12;
const SLICES: usize = 5;
const ANGLES: usize = 12;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("petaxct_stream_equivalence");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn write_sinograms(scan: &ScanGeometry, path: &std::path::Path) {
    let sm = SystemMatrix::build(scan);
    let mut w = SliceWriter::create(
        path,
        SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: SLICES,
            slice_len: sm.num_rays(),
        },
    )
    .unwrap();
    for s in 0..SLICES {
        let img = shale_like(scan.grid.nx, 90 + s as u64);
        let mut sino = vec![0.0f32; sm.num_rays()];
        sm.project(&img.data, &mut sino);
        w.write_slice(&sino).unwrap();
    }
    w.finish().unwrap();
}

fn volume_writer(path: &std::path::Path, num_voxels: usize) -> SliceWriter {
    SliceWriter::create(
        path,
        SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices: SLICES,
            slice_len: num_voxels,
        },
    )
    .unwrap()
}

/// Runs the same volume twice — once streamed under a two-slice budget,
/// once fully resident at the same fusing — and demands byte-identical
/// output files.
fn assert_stream_equivalent(precision: Precision, hierarchical: bool) {
    let scan = ScanGeometry::uniform(ImageGrid::square(N, 1.0), ANGLES);
    let num_voxels = scan.grid.nx * scan.grid.nz;
    let tag = format!("{precision:?}_{hierarchical}");
    let sino = tmp(&format!("sino_{tag}.xctd"));
    write_sinograms(&scan, &sino);

    let planner = Planner {
        precision,
        hierarchical,
        overlap: false,
        max_fusing: SLICES,
        kernel: None,
    };
    let dims = VolumeDims {
        n: N,
        slices: SLICES,
    };
    let topo = Topology::new(1, 2, 2);
    let base = DistributedConfig {
        iterations: 6,
        ..Default::default()
    };

    // Budget for two slices at a time → ceil(5/2) = 3 streamed slabs.
    let probe = planner.plan(dims, ANGLES, None, topo).unwrap();
    let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
    let plan = planner.plan(dims, ANGLES, Some(budget), topo).unwrap();
    assert!(plan.streaming(), "{tag}: budget must force streaming");
    assert_eq!(plan.slabs.len(), 3);
    let streamed_out = tmp(&format!("streamed_{tag}.xctd"));
    let outcome = reconstruct_planned(
        &scan,
        &plan,
        SliceReader::open(&sino).unwrap(),
        volume_writer(&streamed_out, num_voxels),
        &base,
    )
    .unwrap();
    assert!(outcome.stats.streamed);
    outcome.reader.verify_checksum().unwrap();
    outcome.writer.finish().unwrap();

    // Same fusing without budget pressure: one pass, resident batches.
    let resident = Planner {
        max_fusing: plan.fusing,
        ..planner
    }
    .plan(dims, ANGLES, None, topo)
    .unwrap();
    assert_eq!(resident.fusing, plan.fusing);
    let resident_out = tmp(&format!("resident_{tag}.xctd"));
    let outcome = reconstruct_planned(
        &scan,
        &resident,
        SliceReader::open(&sino).unwrap(),
        volume_writer(&resident_out, num_voxels),
        &base,
    )
    .unwrap();
    outcome.writer.finish().unwrap();

    assert_eq!(
        std::fs::read(&streamed_out).unwrap(),
        std::fs::read(&resident_out).unwrap(),
        "{tag}: streamed and resident runs must be bit-identical"
    );
}

#[test]
fn streamed_matches_resident_single_direct() {
    assert_stream_equivalent(Precision::Single, false);
}

#[test]
fn streamed_matches_resident_single_hierarchical() {
    assert_stream_equivalent(Precision::Single, true);
}

#[test]
fn streamed_matches_resident_mixed_direct() {
    assert_stream_equivalent(Precision::Mixed, false);
}

#[test]
fn streamed_matches_resident_mixed_hierarchical() {
    assert_stream_equivalent(Precision::Mixed, true);
}

#[test]
fn streamed_matches_resident_half_direct() {
    assert_stream_equivalent(Precision::Half, false);
}

#[test]
fn streamed_matches_resident_half_hierarchical() {
    assert_stream_equivalent(Precision::Half, true);
}

/// A planned run over slabs of (2, 2, 1) slices must equal, bit for bit,
/// the concatenation of fresh `reconstruct_distributed` calls — each
/// building its own set-up — one per slab. Both sides of
/// `assert_stream_equivalent` go through `reconstruct_planned`, so state
/// leaking from one slab into the next through the shared set-up would
/// cancel out there; it cannot here.
#[test]
fn planned_slabs_match_fresh_distributed_runs_per_slab() {
    let scan = ScanGeometry::uniform(ImageGrid::square(N, 1.0), ANGLES);
    let num_voxels = scan.grid.nx * scan.grid.nz;
    let num_rays = ANGLES * N;
    let sino = tmp("sino_oracle.xctd");
    write_sinograms(&scan, &sino);
    let sinogram = SliceReader::open(&sino)
        .unwrap()
        .read_batch(SLICES)
        .unwrap()
        .unwrap();
    let dims = VolumeDims {
        n: N,
        slices: SLICES,
    };
    let topology = Topology::new(1, 2, 2);
    let iterations = 6;

    for precision in [Precision::Single, Precision::Mixed, Precision::Half] {
        for hierarchical in [false, true] {
            for overlap in [false, true] {
                let tag = format!("{precision:?}_{hierarchical}_{overlap}");
                let planner = Planner {
                    precision,
                    hierarchical,
                    overlap,
                    max_fusing: SLICES,
                    kernel: None,
                };
                let probe = planner.plan(dims, ANGLES, None, topology).unwrap();
                let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
                let plan = planner.plan(dims, ANGLES, Some(budget), topology).unwrap();
                let lens: Vec<usize> = plan.slabs.iter().map(|slab| slab.len).collect();
                assert_eq!(lens, [2, 2, 1], "{tag}");

                let out = tmp(&format!("oracle_{tag}.xctd"));
                let outcome = reconstruct_planned(
                    &scan,
                    &plan,
                    SliceReader::open(&sino).unwrap(),
                    volume_writer(&out, num_voxels),
                    &DistributedConfig {
                        iterations,
                        ..Default::default()
                    },
                )
                .unwrap();
                outcome.writer.finish().unwrap();
                let planned = SliceReader::open(&out)
                    .unwrap()
                    .read_batch(SLICES)
                    .unwrap()
                    .unwrap();

                let mut fresh = Vec::with_capacity(planned.len());
                for slab in &plan.slabs {
                    let cfg = DistributedConfig {
                        topology,
                        precision,
                        fusing: slab.len,
                        hierarchical,
                        overlap,
                        iterations,
                        ..Default::default()
                    };
                    let rays = &sinogram[slab.start * num_rays..(slab.start + slab.len) * num_rays];
                    fresh.extend(reconstruct_distributed(&scan, rays, &cfg).x);
                }
                assert_eq!(planned.len(), fresh.len(), "{tag}");
                assert!(
                    planned
                        .iter()
                        .zip(&fresh)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{tag}: a slab of the planned run differs from a fresh run of that slab"
                );
            }
        }
    }
}
