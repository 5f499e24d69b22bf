//! The 3D volume pipeline: stream sinogram slices from disk slab by
//! slab, reconstruct each slab, stream the tomogram slices back out
//! (paper §III-A2).
//!
//! There is one read → solve → write loop, [`stream_slabs`]: while slab
//! `k` reconstructs, slab `k+1`'s sinogram prefetches on a background
//! thread and slab `k-1`'s volume writes back on another (the paper
//! overlaps I/O with compute the same way it overlaps communication,
//! §III-E). Memory stays bounded regardless of volume size. Its callers
//! differ only in what solves a slab: the plan-driven pipeline in
//! [`crate::stream`] (a [`crate::distributed::DistributedSetup`] on any
//! topology, where each slab *is* the fused minibatch — one trip through
//! the packed matrix reconstructs the whole slab) or a direct method
//! (the CLI's `fbp`).

use xct_exec::{MetricId, Phase, Telemetry};
use xct_geometry::ScanGeometry;
use xct_io::{DeferredWriter, IoError, PrefetchReader, SliceReader, SliceWriter};
use xct_solver::NonFinite;

/// Volume-pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Underlying file error.
    Io(IoError),
    /// The input file does not match the reconstructor geometry.
    Geometry(String),
    /// A slab's solve stopped on a scalar that was not finite.
    NonFinite {
        /// The slab, from 0.
        slab: usize,
        /// Which scalar, in which iteration.
        fault: NonFinite,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "pipeline I/O error: {e}"),
            PipelineError::Geometry(m) => write!(f, "geometry mismatch: {m}"),
            PipelineError::NonFinite { slab, fault } => {
                write!(f, "slab {slab}: solve stopped, {fault}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<IoError> for PipelineError {
    fn from(e: IoError) -> Self {
        PipelineError::Io(e)
    }
}

/// A finished file-to-volume run: the stats plus the drained reader and
/// completed writer, returned so the caller can verify the input
/// checksum and finish (checksum-seal) the output.
pub struct StreamOutcome<S> {
    /// Run statistics.
    pub stats: S,
    /// The input reader, fully drained.
    pub reader: SliceReader,
    /// The output writer, all slices written but not yet finished.
    pub writer: SliceWriter,
}

/// What [`stream_slabs`] counts itself; its callers add what only their
/// solver knows.
#[derive(Debug, Clone, Copy)]
pub struct SlabTotals {
    /// Slices reconstructed.
    pub slices: usize,
    /// Slabs processed.
    pub slabs: usize,
    /// Worst final relative residual `solve` reported across slabs.
    pub worst_residual: f64,
}

pub(crate) fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), PipelineError> {
    if cond {
        Ok(())
    } else {
        Err(PipelineError::Geometry(msg()))
    }
}

/// The one read → solve → write loop. Reads `slab_lens[k]` sinogram
/// slices of `scan`'s geometry from `reader`, hands them to `solve`
/// (data, slice count) → (slice-major volume, final relative residual),
/// and writes the volume to `writer`, in order. The next slab's read and
/// the previous slab's write run on background threads while the
/// current slab solves. `iterations` is each slab's solver iteration
/// budget, published with the slab count so progress reporting has its
/// denominators before the first slab lands.
pub fn stream_slabs(
    scan: &ScanGeometry,
    reader: SliceReader,
    writer: SliceWriter,
    slab_lens: &[usize],
    iterations: usize,
    telemetry: &Telemetry,
    mut solve: impl FnMut(&[f32], usize) -> Result<(Vec<f32>, f64), NonFinite>,
) -> Result<StreamOutcome<SlabTotals>, PipelineError> {
    let num_rays = scan.angles.len() * scan.detector.channels;
    let num_voxels = scan.grid.nx * scan.grid.nz;
    check(reader.meta().slice_len == num_rays, || {
        format!(
            "file has {} scalars per slice, scan produces {num_rays}",
            reader.meta().slice_len
        )
    })?;
    check(writer.meta().slice_len == num_voxels, || {
        format!(
            "output expects {} scalars per slice, volume slices have {num_voxels}",
            writer.meta().slice_len
        )
    })?;
    let slices: usize = slab_lens.iter().sum();
    check(reader.meta().slices == slices, || {
        format!(
            "slabs cover {slices} slices, file holds {}",
            reader.meta().slices
        )
    })?;
    check(writer.meta().slices == slices, || {
        format!(
            "slabs cover {slices} slices, output file expects {}",
            writer.meta().slices
        )
    })?;
    telemetry.gauge_set(MetricId::ProgressSlabsTotal, slab_lens.len() as f64);
    telemetry.gauge_set(MetricId::ProgressItersPerSlab, iterations as f64);

    let mut totals = SlabTotals {
        slices: 0,
        slabs: 0,
        worst_residual: 0.0,
    };
    let mut input = PrefetchReader::with_telemetry(reader, telemetry.clone());
    let mut output = DeferredWriter::with_telemetry(writer, telemetry.clone());
    if let Some(&first) = slab_lens.first() {
        input.prefetch(first);
    }
    // xct-hot
    for (index, &len) in slab_lens.iter().enumerate() {
        telemetry.gauge_set(MetricId::StreamSlabCurrent, index as f64);
        let data = {
            let _io = telemetry.span(Phase::Io);
            input.next(len)?
        }
        .ok_or_else(|| {
            // xct-allow(hot-alloc): cold error path — only reached when the input file is truncated
            PipelineError::Geometry(format!("input exhausted before slab {index}"))
        })?;
        // Kick off the next slab's read before this slab computes.
        if let Some(&next) = slab_lens.get(index + 1) {
            input.prefetch(next);
        }
        let (x, residual) =
            solve(&data, len).map_err(|fault| PipelineError::NonFinite { slab: index, fault })?;
        {
            // Queue the write-back; blocks only on the previous slab's
            // write, so the stall (if any) is what the span measures.
            let _io = telemetry.span(Phase::Io);
            output.write_slab(x)?;
        }
        totals.slices += len;
        totals.slabs += 1;
        totals.worst_residual = totals.worst_residual.max(residual);
        telemetry.metric_inc(MetricId::StreamSlabsDone);
        telemetry.metric_add(MetricId::StreamSlicesDone, len as u64);
    }
    Ok(StreamOutcome {
        stats: totals,
        reader: input.into_inner()?,
        writer: output.into_inner()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recon::{ReconOptions, Reconstructor};
    use xct_exec::ExecContext;
    use xct_fp16::Precision;
    use xct_geometry::ImageGrid;
    use xct_io::{FileKind, SliceFile};
    use xct_phantom::shale_like;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_core_volume_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn build_dataset(
        recon: &Reconstructor,
        slices: usize,
        path: &std::path::Path,
    ) -> Vec<Vec<f32>> {
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices,
            slice_len: recon.num_rays(),
        };
        let mut w = SliceWriter::create(path, meta).unwrap();
        let mut truths = Vec::new();
        for s in 0..slices {
            let img = shale_like(recon.scan().grid.nx, 900 + s as u64);
            w.write_slice(&recon.project(&img.data)).unwrap();
            truths.push(img.data);
        }
        w.finish().unwrap();
        truths
    }

    fn volume_writer(path: &std::path::Path, slices: usize, slice_len: usize) -> SliceWriter {
        SliceWriter::create(
            path,
            SliceFile {
                kind: FileKind::Volume,
                precision: Precision::Single,
                slices,
                slice_len,
            },
        )
        .unwrap()
    }

    #[test]
    fn streams_and_reconstructs_whole_volume() {
        let n = 24;
        let slices = 10;
        let recon = Reconstructor::new(ScanGeometry::uniform(ImageGrid::square(n, 1.0), 24));
        let sino_path = tmp("vol_in.xctd");
        let vol_path = tmp("vol_out.xctd");
        let truths = build_dataset(&recon, slices, &sino_path);

        let opts = ReconOptions {
            precision: Precision::Mixed,
            iterations: 25,
            ..Default::default()
        };
        let mut ctx = ExecContext::parallel();
        let outcome = stream_slabs(
            recon.scan(),
            SliceReader::open(&sino_path).unwrap(),
            volume_writer(&vol_path, slices, recon.num_voxels()),
            &[4, 4, 2],
            opts.iterations,
            &Telemetry::disabled(),
            |data, fusing| {
                let result = recon.reconstruct_in(data, &ReconOptions { fusing, ..opts }, &mut ctx);
                let residual = *result.report.residual_history.last().unwrap_or(&1.0);
                Ok((result.x, residual))
            },
        )
        .unwrap();
        outcome.reader.verify_checksum().unwrap();
        outcome.writer.finish().unwrap();
        let stats = outcome.stats;

        assert_eq!(stats.slices, slices);
        assert_eq!(stats.slabs, 3);
        assert!(stats.worst_residual < 0.05, "{}", stats.worst_residual);

        // Read back and compare to the phantoms.
        let mut vr = SliceReader::open(&vol_path).unwrap();
        let all = vr.read_batch(slices).unwrap().unwrap();
        vr.verify_checksum().unwrap();
        for (s, truth) in truths.iter().enumerate() {
            let piece = &all[s * recon.num_voxels()..(s + 1) * recon.num_voxels()];
            let num: f64 = piece
                .iter()
                .zip(truth)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            let den: f64 = truth.iter().map(|&v| f64::from(v).powi(2)).sum();
            let err = (num / den).sqrt();
            assert!(err < 0.25, "slice {s} error {err}");
        }
    }

    #[test]
    fn geometry_mismatch_is_reported() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let path = tmp("mismatch.xctd");
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: 1,
            slice_len: 99, // wrong
        };
        let mut w = SliceWriter::create(&path, meta).unwrap();
        w.write_slice(&vec![0.0; 99]).unwrap();
        w.finish().unwrap();
        let reader = SliceReader::open(&path).unwrap();
        let writer = volume_writer(&tmp("mismatch_out.xctd"), 1, 256);
        match stream_slabs(
            &scan,
            reader,
            writer,
            &[1],
            1,
            &Telemetry::disabled(),
            |_, _| unreachable!("a mismatched file is refused before any slab solves"),
        ) {
            Err(PipelineError::Geometry(m)) => assert!(m.contains("99")),
            other => panic!(
                "expected geometry error, got {:?}",
                other.map(|o| o.stats.slices)
            ),
        }
    }
}
