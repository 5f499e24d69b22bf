//! The single-call public API: memoize the operator once, reconstruct
//! many (batches of) slices, through a 1×1×1 [`DistributedSetup`], whose
//! [`DistributedSetup::run`] chooses the solver from [`ReconOptions`].

use xct_comm::Topology;
use xct_exec::ExecContext;
use xct_fp16::Precision;
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_plan::KernelShape;
use xct_solver::NonFinite;

use crate::distributed::{DistributedConfig, DistributedSetup, PackKey};

/// Which iterative algorithm drives the reconstruction.
///
/// CGLS is the paper's solver; SIRT is the standard companion that
/// admits the constraint `C` of Eq. 1. Both run on the same operator on
/// every topology — the optimized kernels, adaptive normalization and
/// the hierarchical exchange apply whatever the algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Conjugate gradient on the normal equations (the paper's choice),
    /// minimizing `‖y − Ax‖² + λ²‖x‖²`.
    Cgls {
        /// Tikhonov damping λ (the `R(x)` hook of Eq. 1; 0 is plain
        /// least squares).
        damping: f64,
    },
    /// SIRT with relaxation 1, projected onto `x ≥ 0` every iteration.
    Sirt,
}

impl Default for Algorithm {
    /// Undamped CGLS.
    fn default() -> Self {
        Algorithm::Cgls { damping: 0.0 }
    }
}

/// Reconstruction options: the per-call request [`DistributedSetup::run`]
/// solves by.
#[derive(Debug, Clone, Copy)]
pub struct ReconOptions {
    /// The iterative algorithm (default: undamped CGLS, the paper's
    /// solver).
    pub algorithm: Algorithm,
    /// Precision mode (default: mixed — the paper's recommendation).
    pub precision: Precision,
    /// Slices reconstructed simultaneously through the fused kernels.
    pub fusing: usize,
    /// Solver iterations (paper: 24 CG iterations for noisy data, 30 for
    /// benchmarks).
    pub iterations: usize,
    /// Threads per simulated GPU block.
    pub block_size: usize,
    /// Staging-buffer bytes per block (96 KB on V100).
    pub shared_bytes: usize,
}

impl Default for ReconOptions {
    fn default() -> Self {
        ReconOptions {
            algorithm: Algorithm::default(),
            precision: Precision::Mixed,
            fusing: 1,
            iterations: 24,
            block_size: KernelShape::DEFAULT.block_size,
            shared_bytes: KernelShape::DEFAULT.shared_bytes,
        }
    }
}

impl ReconOptions {
    /// The key the set-up packs the operator under for this request.
    pub(crate) fn pack_key(&self) -> PackKey {
        (
            self.precision,
            self.fusing,
            self.block_size,
            self.shared_bytes,
        )
    }
}

/// A memoized reconstructor for one scan geometry.
///
/// ```
/// use xct_core::{Reconstructor, ReconOptions};
/// use xct_geometry::{ImageGrid, ScanGeometry};
///
/// let scan = ScanGeometry::uniform(ImageGrid::square(32, 1.0), 32);
/// let recon = Reconstructor::new(scan);
/// // Forward-model a phantom, then invert it.
/// let phantom = vec![0.5f32; recon.num_voxels()];
/// let sinogram = recon.project(&phantom);
/// let result = recon.reconstruct(&sinogram, &ReconOptions::default());
/// assert!(result.report.residual_history.last().unwrap() < &0.1);
/// ```
pub struct Reconstructor {
    matrix: SystemMatrix,
    /// The one-rank set-up over `matrix`, and with it the operator packed
    /// for the most recent call's options.
    setup: DistributedSetup,
}

/// Reconstruction outcome.
pub struct ReconResult {
    /// The volume, slice-major (`fusing × num_voxels`).
    pub x: Vec<f32>,
    /// Solver diagnostics.
    pub report: ReconReport,
}

/// What a reconstruction reports besides its volume.
pub struct ReconReport {
    /// Relative residual `‖y − Ax‖/‖y‖` after each iteration
    /// (`residual_history[0]` is the initial 1.0).
    pub residual_history: Vec<f64>,
    /// The scalar that ended the solve by not being finite, if one did.
    pub non_finite: Option<NonFinite>,
}

impl Reconstructor {
    /// Traces and memoizes the system matrix for `scan` (§II-B: done
    /// once, reused every iteration and every slice).
    pub fn new(scan: ScanGeometry) -> Self {
        let matrix = SystemMatrix::build(&scan);
        let one_rank = DistributedConfig {
            topology: Topology::new(1, 1, 1),
            ..DistributedConfig::default()
        };
        let setup = DistributedSetup::from_matrix(&matrix, scan, &one_rank);
        Reconstructor { matrix, setup }
    }

    /// The scan geometry.
    pub fn scan(&self) -> &ScanGeometry {
        &self.setup.scan
    }

    /// Voxels per slice.
    pub fn num_voxels(&self) -> usize {
        self.matrix.num_voxels()
    }

    /// Sinogram bins per slice.
    pub fn num_rays(&self) -> usize {
        self.matrix.num_rays()
    }

    /// The memoized operator.
    pub fn system_matrix(&self) -> &SystemMatrix {
        &self.matrix
    }

    /// Forward-models one slice: `sinogram = A · image` (for synthetic
    /// experiments and residual checks).
    pub fn project(&self, image: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.num_rays()];
        self.matrix.project(image, &mut y);
        y
    }

    /// [`Reconstructor::reconstruct_in`] inside a fresh parallel
    /// [`ExecContext`] (kernel launches fan out across cores).
    pub fn reconstruct(&self, sinogram: &[f32], opts: &ReconOptions) -> ReconResult {
        self.reconstruct_in(sinogram, opts, &mut ExecContext::parallel())
    }

    /// Reconstructs `opts.fusing` slices from their sinograms
    /// (slice-major, `fusing × num_rays`) with `opts.algorithm` — the
    /// one-rank [`DistributedSetup::run`] of `opts` — inside a
    /// caller-owned [`ExecContext`]: repeated batches reuse the context's
    /// warm workspace, its telemetry handle (if enabled) records solver
    /// and kernel phases, and the solve's counters are added to its
    /// counters. The context's precision is aligned with
    /// `opts.precision`. The operator is packed by the first call with a
    /// given `(precision, fusing, block_size, shared_bytes)` and reused by
    /// the calls that follow with the same four.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn reconstruct_in(
        &self,
        sinogram: &[f32],
        opts: &ReconOptions,
        ctx: &mut ExecContext,
    ) -> ReconResult {
        let result = self.setup.run(sinogram, opts, ctx);
        ctx.counters.merge(&result.counters);
        ReconResult {
            x: result.x,
            report: ReconReport {
                residual_history: result.residual_history,
                non_finite: result.non_finite,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::packing_orders;
    use std::sync::Arc;
    use xct_geometry::ImageGrid;
    use xct_phantom::shepp_logan;
    use xct_solver::{cgls_in, sirt_in, CglsConfig, PrecisionOperator, SirtConfig};
    use xct_spmm::Csr;

    /// The one rank's operator packed for `opts`, out of the set-up's
    /// cache.
    fn packed(recon: &Reconstructor, opts: &ReconOptions) -> Arc<[PrecisionOperator]> {
        recon.setup.operators(opts.pack_key())
    }

    #[test]
    fn reconstructs_shepp_logan() {
        let n = 32;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
        let recon = Reconstructor::new(scan);
        let phantom = shepp_logan(n);
        let y = recon.project(&phantom.data);
        let result = recon.reconstruct(
            &y,
            &ReconOptions {
                iterations: 40,
                ..Default::default()
            },
        );
        let err: f64 = {
            let num: f64 = result
                .x
                .iter()
                .zip(&phantom.data)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            let den: f64 = phantom.data.iter().map(|&v| f64::from(v).powi(2)).sum();
            (num / den).sqrt()
        };
        assert!(err < 0.25, "Shepp-Logan reconstruction error {err}");
    }

    #[test]
    fn fused_batch_reconstruction() {
        let n = 16;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 20);
        let recon = Reconstructor::new(scan);
        let fusing = 4;
        let mut sino = Vec::new();
        let mut truths = Vec::new();
        for f in 0..fusing {
            let img: Vec<f32> = (0..n * n)
                .map(|i| if (i + f) % 3 == 0 { 0.8 } else { 0.2 })
                .collect();
            sino.extend(recon.project(&img));
            truths.push(img);
        }
        let result = recon.reconstruct(
            &sino,
            &ReconOptions {
                fusing,
                iterations: 30,
                precision: Precision::Single,
                ..Default::default()
            },
        );
        assert_eq!(result.x.len(), n * n * fusing);
        assert!(result.report.residual_history.last().unwrap() < &0.05);
    }

    /// The operator is packed by the first call with a key and reused
    /// (same allocation) by the next; a call with another fusing or
    /// precision replaces the one entry; and memoized or not, first call
    /// or second, the volume has the bits a fresh `Reconstructor` gives.
    #[test]
    fn operator_is_packed_once_per_key_and_results_equal_a_fresh_reconstructor() {
        let n = 16;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 20);
        let recon = Reconstructor::new(scan.clone());
        let image: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.2).collect();
        let sino1 = recon.project(&image);
        let sino2 = [sino1.clone(), sino1.iter().map(|v| v * 0.5).collect()].concat();
        let bits = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
        let fresh = |sino: &[f32], opts: &ReconOptions| {
            bits(&Reconstructor::new(scan.clone()).reconstruct(sino, opts).x)
        };

        let mixed1 = ReconOptions {
            iterations: 8,
            ..Default::default()
        };
        let first = recon.reconstruct(&sino1, &mixed1);
        let packed_by_first = packed(&recon, &mixed1);
        let second = recon.reconstruct(&sino1, &mixed1);
        assert!(Arc::ptr_eq(&packed_by_first, &packed(&recon, &mixed1)));
        assert_eq!(bits(&first.x), bits(&second.x));
        assert_eq!(bits(&first.x), fresh(&sino1, &mixed1));

        let mixed2 = ReconOptions {
            fusing: 2,
            ..mixed1
        };
        let fused = recon.reconstruct(&sino2, &mixed2);
        let packed_fused = packed(&recon, &mixed2);
        assert_eq!(packed_fused[0].fusing(), 2);
        assert_eq!(bits(&fused.x), fresh(&sino2, &mixed2));

        let single2 = ReconOptions {
            precision: Precision::Single,
            ..mixed2
        };
        let single = recon.reconstruct(&sino2, &single2);
        assert_eq!(packed(&recon, &single2)[0].precision(), Precision::Single);
        assert!(!Arc::ptr_eq(&packed_fused, &packed(&recon, &mixed2)));
        assert_eq!(bits(&single.x), fresh(&sino2, &single2));
        assert_ne!(bits(&single.x), bits(&fused.x));

        // Back to the first key: packed again, same bits as before.
        let again = recon.reconstruct(&sino1, &mixed1);
        assert!(!Arc::ptr_eq(&packed_by_first, &packed(&recon, &mixed1)));
        assert_eq!(bits(&again.x), bits(&first.x));
    }

    /// The Hilbert orders the reconstructor packs under change the
    /// layout, not the solve: against an identity-order operator driven
    /// through the same CGLS, the volume is the same bit for bit while
    /// every block fits one stage (a row's FMA chain is then its CSR
    /// sequence in both layouts), and within 1e-3 relative — after the
    /// same number of iterations — when a small staging buffer cuts
    /// blocks into stages and the chains run stage by stage.
    #[test]
    fn ordered_operator_solves_like_the_identity_order() {
        let n = 32;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
        let recon = Reconstructor::new(scan);
        let sino = recon.project(&shepp_logan(n).data);
        for (shared_bytes, single_stage) in [(96 * 1024, true), (512, false)] {
            let opts = ReconOptions {
                precision: Precision::Single,
                iterations: 12,
                shared_bytes,
                ..Default::default()
            };
            let ordered = recon.reconstruct(&sino, &opts);
            let (fwd, bwd) = packed(&recon, &opts)[0].stage_counts();
            let blocks = recon.num_rays().div_ceil(64) + recon.num_voxels().div_ceil(64);
            assert_eq!(fwd + bwd == blocks, single_stage);

            let csr = Csr::from_system_matrix(recon.system_matrix());
            let identity = PrecisionOperator::new(&csr, Precision::Single, 1, 64, shared_bytes);
            let config = CglsConfig {
                max_iters: opts.iterations,
                tolerance: 0.0,
                damping: 0.0,
            };
            let natural = cgls_in(
                &identity,
                &sino,
                &config,
                &mut ExecContext::parallel(),
                &mut |_| {},
            );

            assert_eq!(
                ordered.report.residual_history.len(),
                natural.residual_history.len()
            );
            if single_stage {
                let bits = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&ordered.x), bits(&natural.x));
            } else {
                assert_ne!(
                    ordered.x, natural.x,
                    "multi-stage chains differ in rounding"
                );
            }
            let diff: f64 = ordered
                .x
                .iter()
                .zip(&natural.x)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            let norm: f64 = natural.x.iter().map(|&v| f64::from(v).powi(2)).sum();
            assert!(
                (diff / norm).sqrt() <= 1e-3,
                "relative {}",
                (diff / norm).sqrt()
            );
        }
    }

    /// One answer for a one-process reconstruction: a 1×1×1
    /// `DistributedSetup::run`, `Reconstructor::reconstruct_in` and the
    /// serial layout as packed before the set-up held it (the full CSR
    /// under the scan's Hilbert orders through
    /// `PrecisionOperator::ordered`, solved by `cgls_in` or `sirt_in`)
    /// agree bit for bit — volume and residual history — for CGLS,
    /// damped CGLS and SIRT, in every precision, fused or not, whatever
    /// executor runs the launches, on a matched detector and on one wider
    /// than the grid, whose rays that hit nothing carry data here.
    #[test]
    fn one_rank_set_up_reconstructor_and_serial_oracle_agree_bit_for_bit() {
        use crate::distributed::{DistributedConfig, DistributedSetup};
        use xct_exec::Executor;

        let n = 16;
        let iterations = 6;
        let matched = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 12);
        let mut wide = matched.clone();
        wide.detector.channels = n + 6;
        let bits32 = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
        let bits64 = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
        for (scan, misses) in [(matched, false), (wide, true)] {
            let recon = Reconstructor::new(scan.clone());
            let sm = recon.system_matrix();
            let empty = (0..sm.num_rays()).filter(|&r| sm.row(r).is_empty()).count();
            assert_eq!(empty > 0, misses);
            let csr = Csr::from_system_matrix(sm);
            let shape = KernelShape::DEFAULT;
            let (rays, voxels) = packing_orders(&scan, shape.block_size);
            let phantom = shepp_logan(n);
            let setup = DistributedSetup::build(
                &scan,
                &DistributedConfig {
                    topology: Topology::new(1, 1, 1),
                    ..Default::default()
                },
            );
            for fusing in [1, 3] {
                let mut sino = vec![0.0f32; sm.num_rays() * fusing];
                for (f, slice) in sino.chunks_mut(sm.num_rays()).enumerate() {
                    let image: Vec<f32> =
                        phantom.data.iter().map(|v| v * (1.0 + f as f32)).collect();
                    sm.project(&image, slice);
                    for (r, y) in slice.iter_mut().enumerate() {
                        *y += 0.01 * ((r * 7 + f) % 13) as f32;
                    }
                }
                for precision in Precision::ALL {
                    let oracle = PrecisionOperator::ordered(
                        &csr,
                        (&rays, &voxels),
                        precision,
                        fusing,
                        shape.block_size,
                        shape.shared_bytes,
                    );
                    let cgls = |damping| {
                        let config = CglsConfig {
                            max_iters: iterations,
                            tolerance: 0.0,
                            damping,
                        };
                        cgls_in(
                            &oracle,
                            &sino,
                            &config,
                            &mut ExecContext::serial(),
                            &mut |_| {},
                        )
                    };
                    let sirt = SirtConfig {
                        max_iters: iterations,
                        relaxation: 1.0,
                        nonneg: true,
                        tolerance: 0.0,
                    };
                    let solves = [
                        (Algorithm::Cgls { damping: 0.0 }, cgls(0.0)),
                        (Algorithm::Cgls { damping: 0.5 }, cgls(0.5)),
                        (
                            Algorithm::Sirt,
                            sirt_in(
                                &oracle,
                                &sino,
                                &sirt,
                                &mut ExecContext::serial(),
                                &mut |_| {},
                            ),
                        ),
                    ];
                    for (algorithm, want) in solves {
                        let what =
                            format!("{algorithm:?}, {precision}, fusing {fusing}, misses {misses}");
                        let opts = ReconOptions {
                            algorithm,
                            precision,
                            fusing,
                            iterations,
                            ..Default::default()
                        };
                        let facade = recon.reconstruct_in(&sino, &opts, &mut ExecContext::serial());
                        let run = setup.run(
                            &sino,
                            &opts,
                            &mut ExecContext::with_executor(Executor::threads(2)),
                        );
                        assert_eq!(bits32(&facade.x), bits32(&want.x), "façade x, {what}");
                        assert_eq!(bits32(&run.x), bits32(&want.x), "run x, {what}");
                        let history = bits64(&want.residual_history);
                        assert_eq!(bits64(&facade.report.residual_history), history, "{what}");
                        assert_eq!(bits64(&run.residual_history), history, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sinogram length mismatch")]
    fn wrong_sinogram_length_panics() {
        let scan = ScanGeometry::uniform(ImageGrid::square(8, 1.0), 8);
        let recon = Reconstructor::new(scan);
        recon.reconstruct(&[0.0; 3], &ReconOptions::default());
    }

    #[test]
    fn all_algorithms_reconstruct_the_same_scene() {
        let n = 20;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 24);
        let recon = Reconstructor::new(scan);
        let truth: Vec<f32> = (0..n * n)
            .map(|i| {
                let (ix, iz) = ((i % n) as f32 - 9.5, (i / n) as f32 - 9.5);
                if ix * ix + iz * iz < 36.0 {
                    0.7
                } else {
                    0.0
                }
            })
            .collect();
        let y = recon.project(&truth);
        let err_of = |alg: Algorithm, iters: usize| {
            let r = recon.reconstruct(
                &y,
                &ReconOptions {
                    algorithm: alg,
                    precision: Precision::Single,
                    iterations: iters,
                    ..Default::default()
                },
            );
            let num: f64 =
                r.x.iter()
                    .zip(&truth)
                    .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                    .sum();
            let den: f64 = truth.iter().map(|&v| f64::from(v).powi(2)).sum();
            (num / den).sqrt()
        };
        assert!(err_of(Algorithm::default(), 40) < 0.15);
        assert!(err_of(Algorithm::Sirt, 150) < 0.25);
    }
}
