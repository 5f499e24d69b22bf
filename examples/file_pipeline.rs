//! End-to-end file pipeline with I/O batching (paper §III-A2): write a
//! measurement file in half precision, stream it through
//! `reconstruct_planned` on a one-process (1×1×1) plan — slabs
//! prefetched and written back on background threads, each slab one pass
//! through the fused kernels — into the volume file, then check the
//! volume against the phantoms and render one slice as a PGM for
//! inspection.
//!
//! ```sh
//! cargo run --release --example file_pipeline
//! ```

use petaxct::comm::Topology;
use petaxct::core::distributed::DistributedConfig;
use petaxct::core::reconstruct_planned;
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use petaxct::io::{FileKind, SliceFile, SliceReader, SliceWriter};
use petaxct::phantom::{shale_like, Image2D};
use petaxct::plan::{Planner, VolumeDims};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 32;
    let slices = 12;
    let io_batch = 4; // slices per slab (each slab = one fused kernel pass)
    let dir = std::env::temp_dir().join("petaxct_pipeline");
    std::fs::create_dir_all(&dir)?;
    let sino_path = dir.join("shale_mini.sino.xctd");
    let vol_path = dir.join("shale_mini.vol.xctd");

    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
    let matrix = SystemMatrix::build(&scan);

    // --- acquisition: write the measurement file in half precision -----
    let meta = SliceFile {
        kind: FileKind::Sinogram,
        precision: Precision::Half,
        slices,
        slice_len: matrix.num_rays(),
    };
    let mut writer = SliceWriter::create(&sino_path, meta)?;
    let mut truths = Vec::new();
    let mut sinogram = vec![0.0f32; matrix.num_rays()];
    for s in 0..slices {
        let slice = shale_like(n, 400 + s as u64);
        matrix.project(&slice.data, &mut sinogram);
        writer.write_slice(&sinogram)?;
        truths.push(slice);
    }
    writer.finish()?;
    println!(
        "wrote {} ({} slices, half precision, {} payload bytes)",
        sino_path.display(),
        slices,
        meta.payload_bytes()
    );

    // --- reconstruction: plan slabs, stream them, write the volume -----
    let vol_meta = SliceFile {
        kind: FileKind::Volume,
        precision: Precision::Half,
        slices,
        slice_len: matrix.num_voxels(),
    };
    let plan = Planner {
        precision: Precision::Mixed,
        max_fusing: io_batch,
        ..Default::default()
    }
    .plan(VolumeDims { n, slices }, 32, None, Topology::new(1, 1, 1))?;
    let outcome = reconstruct_planned(
        &scan,
        &plan,
        SliceReader::open(&sino_path)?,
        SliceWriter::create(&vol_path, vol_meta)?,
        &DistributedConfig {
            iterations: 30,
            ..Default::default()
        },
    )?;
    outcome.reader.verify_checksum()?;
    outcome.writer.finish()?;
    println!(
        "reconstructed {} slices in {} fused slabs (worst residual {:.5}); volume written to {}",
        outcome.stats.slices,
        outcome.stats.slabs,
        outcome.stats.worst_residual,
        vol_path.display()
    );

    // --- accuracy: read the volume back against the phantoms -----------
    let mut vol_reader = SliceReader::open(&vol_path)?;
    let volume = vol_reader.read_batch(slices)?.expect("volume has slices");
    vol_reader.verify_checksum()?;
    let mut worst_err = 0.0f64;
    for (piece, truth) in volume.chunks_exact(matrix.num_voxels()).zip(&truths) {
        let num: f64 = piece
            .iter()
            .zip(&truth.data)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum();
        let den: f64 = truth.data.iter().map(|&v| f64::from(v).powi(2)).sum();
        worst_err = worst_err.max((num / den).sqrt());
    }
    println!("worst per-slice relative error: {worst_err:.4}");
    assert!(worst_err < 0.25, "pipeline accuracy check");

    // --- inspection: render the first slice ----------------------------
    let img = Image2D::from_data(n, n, volume[..matrix.num_voxels()].to_vec());
    let pgm = dir.join("slice0.pgm");
    img.write_pgm(&pgm)?;
    println!("rendered first slice to {}", pgm.display());
    Ok(())
}
