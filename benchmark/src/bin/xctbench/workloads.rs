//! Seeded inputs and one timed repetition of each workload, driven
//! through the crates' public entry points only.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xct_comm::{RankCommStats, Topology, WireModel};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::{reconstruct_planned, ReconOptions, Reconstructor};
use xct_exec::{ExecContext, ExecCounters, Executor, Phase, Telemetry};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_phantom::{brain_like, chip_like, shale_like, Image2D};
use xct_plan::{Planner, ReconPlan, VolumeDims};

use crate::spec::{Entry, Phantom, Spec};

/// Everything the program under test receives: the geometry and the
/// sinogram stack. `truth` stays with the harness for the PSNR check.
pub struct Inputs {
    pub scan: ScanGeometry,
    pub truth: Vec<Image2D>,
    /// Slice-major, `slices × num_rays`.
    pub sinogram: Vec<f32>,
}

/// Slice `s` of a run seeded `seed` is the phantom seeded `seed + s`,
/// forward-projected through the exact system matrix.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let scan = ScanGeometry::uniform(ImageGrid::square(spec.n, 1.0), spec.angles);
    let sm = SystemMatrix::build(&scan);
    let mut truth = Vec::with_capacity(spec.slices);
    let mut sinogram = vec![0.0f32; sm.num_rays() * spec.slices];
    for (s, sino) in sinogram.chunks_mut(sm.num_rays()).enumerate() {
        let slice_seed = seed.wrapping_add(s as u64);
        let image = match spec.phantom {
            Phantom::Shale => shale_like(spec.n, slice_seed),
            Phantom::Chip => chip_like(spec.n, slice_seed),
            Phantom::Brain => brain_like(spec.n, slice_seed),
        };
        sm.project(&image.data, sino);
        truth.push(image);
    }
    Inputs {
        scan,
        truth,
        sinogram,
    }
}

/// The span the harness opens around the serial entry call. The rank
/// entries get none: their rank threads record on forked tracks that
/// never nest under the caller's.
pub const ENTRY_SPAN: Phase = Phase::Custom("bench.entry");

/// Kernel threads `serial_fused` runs on.
pub fn kernel_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one repetition produced.
pub struct RepOutput {
    /// Wall time of the public entry call(s).
    pub seconds: f64,
    /// The volume, slice-major.
    pub x: Vec<f32>,
    /// Relative residual after the last iteration (worst over slabs).
    pub residual: f64,
    pub counters: ExecCounters,
    pub comm: Vec<RankCommStats>,
}

/// A workload ready to repeat: whatever the public API lets a caller
/// hoist out of the per-stack call is built here, once.
pub enum Runner {
    Serial {
        recon: Reconstructor,
        opts: ReconOptions,
        ctx: ExecContext,
    },
    Ranks {
        cfg: DistributedConfig,
    },
    Streamed {
        plan: ReconPlan,
        base: DistributedConfig,
        sino: PathBuf,
        out: PathBuf,
    },
}

pub fn topology((nodes, sockets, gpus): (usize, usize, usize)) -> Topology {
    Topology::new(nodes, sockets, gpus)
}

pub fn volume_meta(spec: &Spec) -> SliceFile {
    SliceFile {
        kind: FileKind::Volume,
        precision: Precision::Single,
        slices: spec.slices,
        slice_len: spec.n * spec.n,
    }
}

/// Writes the sinogram stack as an f32 slice file (the streamed
/// workload's input; also the `io.write_*` probe).
pub fn write_slices(path: &Path, meta: SliceFile, data: &[f32]) -> Result<(), String> {
    let mut w = SliceWriter::create(path, meta).map_err(|e| e.to_string())?;
    for slice in data.chunks(meta.slice_len) {
        w.write_slice(slice).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())
}

/// Reads a whole slice file back and verifies its checksum.
pub fn read_slices(path: &Path, slices: usize) -> Result<Vec<f32>, String> {
    let mut r = SliceReader::open(path).map_err(|e| e.to_string())?;
    if r.meta().slices != slices {
        return Err(format!(
            "{} holds {} slices, want {slices}",
            path.display(),
            r.meta().slices
        ));
    }
    let data = r
        .read_batch(slices)
        .map_err(|e| e.to_string())?
        .ok_or("slice file is empty")?;
    r.verify_checksum().map_err(|e| e.to_string())?;
    Ok(data)
}

fn sinogram_meta(spec: &Spec) -> SliceFile {
    SliceFile {
        kind: FileKind::Sinogram,
        precision: Precision::Single,
        slices: spec.slices,
        slice_len: spec.angles * spec.n,
    }
}

impl Runner {
    /// Builds the runner; the streamed workload writes its sinogram file
    /// into `workdir` here, outside every timed region.
    pub fn prepare(spec: &Spec, inputs: &Inputs, workdir: &Path) -> Result<Runner, String> {
        Ok(match spec.entry {
            Entry::Serial => Runner::Serial {
                recon: Reconstructor::new(inputs.scan.clone()),
                opts: ReconOptions {
                    precision: spec.precision,
                    fusing: spec.slices,
                    iterations: spec.iterations,
                    ..Default::default()
                },
                ctx: ExecContext::with_executor(Executor::threads(kernel_threads())),
            },
            Entry::Ranks {
                topology: t,
                overlap,
                wire,
            } => {
                let topo = topology(t);
                Runner::Ranks {
                    cfg: DistributedConfig {
                        topology: topo,
                        precision: spec.precision,
                        fusing: spec.slices,
                        hierarchical: true,
                        overlap,
                        wire: wire.map(|w| WireModel {
                            latency: std::time::Duration::from_micros(w.latency_us),
                            bytes_per_sec: w.mb_per_s * 1e6,
                            ranks_per_node: topo.gpus_per_node(),
                        }),
                        iterations: spec.iterations,
                        ..Default::default()
                    },
                }
            }
            Entry::Streamed {
                topology: t,
                slab_slices,
            } => {
                let planner = Planner {
                    precision: spec.precision,
                    hierarchical: true,
                    overlap: false,
                    max_fusing: spec.slices,
                    kernel: None,
                };
                let dims = VolumeDims {
                    n: spec.n,
                    slices: spec.slices,
                };
                let probe = planner
                    .plan(dims, spec.angles, None, topology(t))
                    .map_err(|e| e.to_string())?;
                let budget = probe.matrix_bytes_per_rank()
                    + slab_slices as u64 * probe.slice_bytes_per_rank();
                let plan = planner
                    .plan(dims, spec.angles, Some(budget), topology(t))
                    .map_err(|e| e.to_string())?;
                let sino = workdir.join("sinogram.xctd");
                write_slices(&sino, sinogram_meta(spec), &inputs.sinogram)?;
                Runner::Streamed {
                    plan,
                    base: DistributedConfig {
                        iterations: spec.iterations,
                        ..Default::default()
                    },
                    sino,
                    out: workdir.join("volume.xctd"),
                }
            }
        })
    }

    /// One repetition, recording into `telemetry` (disabled for the
    /// end-to-end reps). Only the entry call(s) are timed.
    pub fn rep(
        &mut self,
        spec: &Spec,
        inputs: &Inputs,
        telemetry: &Telemetry,
    ) -> Result<RepOutput, String> {
        match self {
            Runner::Serial { recon, opts, ctx } => {
                ctx.telemetry = telemetry.clone();
                ctx.counters.reset();
                let start = Instant::now();
                // The harness's own span around the entry call: its self
                // time is what the call spends outside the program's
                // spans (the clone shares the context's nesting stack).
                let entry = telemetry.span(ENTRY_SPAN);
                let result = recon.reconstruct_in(&inputs.sinogram, &*opts, ctx);
                drop(entry);
                let seconds = start.elapsed().as_secs_f64();
                Ok(RepOutput {
                    seconds,
                    residual: result
                        .report
                        .residual_history
                        .last()
                        .copied()
                        .unwrap_or(1.0),
                    x: result.x,
                    counters: ctx.counters,
                    comm: Vec::new(),
                })
            }
            Runner::Ranks { cfg } => {
                cfg.telemetry = telemetry.clone();
                let start = Instant::now();
                let result = reconstruct_distributed(&inputs.scan, &inputs.sinogram, cfg);
                let seconds = start.elapsed().as_secs_f64();
                Ok(RepOutput {
                    seconds,
                    residual: result.residual_history.last().copied().unwrap_or(1.0),
                    x: result.x,
                    counters: result.counters,
                    comm: result.comm_stats,
                })
            }
            Runner::Streamed {
                plan,
                base,
                sino,
                out,
            } => {
                base.telemetry = telemetry.clone();
                let reader = SliceReader::open(&*sino).map_err(|e| e.to_string())?;
                let writer =
                    SliceWriter::create(&*out, volume_meta(spec)).map_err(|e| e.to_string())?;
                let start = Instant::now();
                let outcome = reconstruct_planned(&inputs.scan, plan, reader, writer, base)
                    .map_err(|e| e.to_string())?;
                outcome.writer.finish().map_err(|e| e.to_string())?;
                let seconds = start.elapsed().as_secs_f64();
                outcome
                    .reader
                    .verify_checksum()
                    .map_err(|e| format!("input checksum: {e}"))?;
                Ok(RepOutput {
                    seconds,
                    x: read_slices(out, spec.slices)?,
                    residual: outcome.stats.worst_residual,
                    counters: outcome.stats.counters,
                    comm: outcome.stats.comm_stats,
                })
            }
        }
    }

    /// The `serial_fused` repetition on one kernel thread, for
    /// `exec.parallel_speedup`.
    pub fn serial_rep_one_thread(&self, inputs: &Inputs) -> Option<f64> {
        let Runner::Serial { recon, opts, .. } = self else {
            return None;
        };
        let mut ctx = ExecContext::serial();
        let start = Instant::now();
        let result = recon.reconstruct_in(&inputs.sinogram, opts, &mut ctx);
        std::hint::black_box(result.x);
        Some(start.elapsed().as_secs_f64())
    }

    /// The same distributed run with `overlap: false` — the bit-identity
    /// oracle of the overlapped workload.
    pub fn without_overlap(&self) -> Option<Runner> {
        match self {
            Runner::Ranks { cfg } if cfg.overlap => Some(Runner::Ranks {
                cfg: DistributedConfig {
                    overlap: false,
                    ..cfg.clone()
                },
            }),
            _ => None,
        }
    }
}
