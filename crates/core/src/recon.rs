//! The single-call public API: memoize the operator once, reconstruct
//! many (batches of) slices.

use xct_exec::ExecContext;
use xct_fp16::Precision;
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_solver::{
    cgls_in, sirt_in, tv_reconstruct_in, CglsConfig, CglsReport, PrecisionOperator, SirtConfig,
    TvConfig,
};
use xct_spmm::Csr;

/// Which iterative algorithm drives the reconstruction.
///
/// CGLS is the paper's solver; SIRT and TV are the standard companions
/// (constraints and regularization — the `C` and `R(x)` of Eq. 1). All
/// three run on the same precision-policy operator, so the optimized
/// kernels and adaptive normalization apply regardless of algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Conjugate gradient on the normal equations (the paper's choice).
    Cgls,
    /// SIRT with optional nonnegativity projection.
    Sirt {
        /// Relaxation λ ∈ (0, 2).
        relaxation: f32,
        /// Project onto `x ≥ 0` each iteration.
        nonneg: bool,
    },
    /// Total-variation-regularized gradient descent (fusing must be 1).
    Tv {
        /// Regularization weight.
        lambda: f32,
        /// TV smoothing parameter.
        epsilon: f32,
    },
}

/// Reconstruction options.
#[derive(Debug, Clone, Copy)]
pub struct ReconOptions {
    /// The iterative algorithm (default: CGLS, the paper's solver).
    pub algorithm: Algorithm,
    /// Precision mode (default: mixed — the paper's recommendation).
    pub precision: Precision,
    /// Slices reconstructed simultaneously through the fused kernels.
    pub fusing: usize,
    /// Solver iterations (paper: 24 CG iterations for noisy data, 30 for
    /// benchmarks).
    pub iterations: usize,
    /// Tikhonov damping λ.
    pub damping: f64,
    /// Early-stop tolerance on the relative residual (0 disables).
    pub tolerance: f64,
    /// Threads per simulated GPU block.
    pub block_size: usize,
    /// Staging-buffer bytes per block (96 KB on V100).
    pub shared_bytes: usize,
}

impl Default for ReconOptions {
    fn default() -> Self {
        ReconOptions {
            algorithm: Algorithm::Cgls,
            precision: Precision::Mixed,
            fusing: 1,
            iterations: 24,
            damping: 0.0,
            tolerance: 0.0,
            block_size: 64,
            shared_bytes: 96 * 1024,
        }
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
    scan: ScanGeometry,
    matrix: SystemMatrix,
    csr: Csr<f32>,
}

/// Reconstruction outcome.
pub struct ReconResult {
    /// The volume, slice-major (`fusing × num_voxels`).
    pub x: Vec<f32>,
    /// Solver diagnostics (residual/time histories).
    pub report: CglsReport,
}

impl Reconstructor {
    /// Traces and memoizes the system matrix for `scan` (§II-B: done
    /// once, reused every iteration and every slice).
    pub fn new(scan: ScanGeometry) -> Self {
        let matrix = SystemMatrix::build(&scan);
        let csr = Csr::from_system_matrix(&matrix);
        Reconstructor { scan, matrix, csr }
    }

    /// The scan geometry.
    pub fn scan(&self) -> &ScanGeometry {
        &self.scan
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
    /// (slice-major, `fusing × num_rays`) with `opts.algorithm`, inside
    /// a caller-owned [`ExecContext`] — repeated batches reuse the
    /// context's warm workspace, and its telemetry handle (if enabled)
    /// records solver and kernel phases. The context's precision is
    /// aligned with `opts.precision` for the duration of the call.
    ///
    /// # Panics
    /// Panics on shape mismatches, or when TV is requested with
    /// `fusing > 1` (TV couples voxels within one slice grid).
    pub fn reconstruct_in(
        &self,
        sinogram: &[f32],
        opts: &ReconOptions,
        ctx: &mut ExecContext,
    ) -> ReconResult {
        assert_eq!(
            sinogram.len(),
            self.num_rays() * opts.fusing,
            "sinogram length mismatch: {} vs {}×{}",
            sinogram.len(),
            self.num_rays(),
            opts.fusing
        );
        let op = PrecisionOperator::new(
            &self.csr,
            opts.precision,
            opts.fusing,
            opts.block_size,
            opts.shared_bytes,
        );
        ctx.precision = opts.precision;
        let report = match opts.algorithm {
            Algorithm::Cgls => cgls_in(
                &op,
                sinogram,
                &CglsConfig {
                    max_iters: opts.iterations,
                    tolerance: opts.tolerance,
                    damping: opts.damping,
                },
                ctx,
                &mut |_| {},
            ),
            Algorithm::Sirt { relaxation, nonneg } => sirt_in(
                &op,
                sinogram,
                &SirtConfig {
                    max_iters: opts.iterations,
                    relaxation,
                    nonneg,
                    tolerance: opts.tolerance,
                },
                ctx,
            ),
            Algorithm::Tv { lambda, epsilon } => {
                assert_eq!(opts.fusing, 1, "TV reconstruction requires fusing = 1");
                tv_reconstruct_in(
                    &op,
                    sinogram,
                    self.scan.grid.nx,
                    self.scan.grid.nz,
                    &TvConfig {
                        iterations: opts.iterations,
                        lambda,
                        epsilon,
                        nonneg: true,
                    },
                    ctx,
                )
            }
        };
        ReconResult {
            x: report.x.clone(),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::ImageGrid;
    use xct_phantom::shepp_logan;

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
        assert!(err_of(Algorithm::Cgls, 40) < 0.15);
        assert!(
            err_of(
                Algorithm::Sirt {
                    relaxation: 1.0,
                    nonneg: true
                },
                150
            ) < 0.25
        );
        assert!(
            err_of(
                Algorithm::Tv {
                    lambda: 0.5,
                    epsilon: 0.01
                },
                300
            ) < 0.25
        );
    }

    #[test]
    #[should_panic(expected = "TV reconstruction requires fusing = 1")]
    fn tv_rejects_fused_batches() {
        let scan = ScanGeometry::uniform(ImageGrid::square(8, 1.0), 8);
        let recon = Reconstructor::new(scan);
        let y = vec![0.0f32; recon.num_rays() * 2];
        recon.reconstruct(
            &y,
            &ReconOptions {
                algorithm: Algorithm::Tv {
                    lambda: 1.0,
                    epsilon: 0.01,
                },
                fusing: 2,
                ..Default::default()
            },
        );
    }
}
