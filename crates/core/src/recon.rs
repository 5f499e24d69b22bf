//! The single-call public API: memoize the operator once, reconstruct
//! many (batches of) slices.

use std::sync::{Arc, Mutex};

use xct_exec::ExecContext;
use xct_fp16::Precision;
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_solver::{
    cgls_in, sirt_in, tv_reconstruct_in, CglsConfig, CglsReport, PrecisionOperator, SirtConfig,
    TvConfig,
};
use xct_spmm::Csr;

use crate::decompose::packing_orders;

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
    /// The operator packed by the most recent call, with the options it
    /// was packed for: one entry, replaced when a call asks for another
    /// key. Batches of one volume share a key, so they share one packing.
    packed: Mutex<Option<(PackKey, Arc<PrecisionOperator>)>>,
}

/// What a packed operator depends on besides the geometry:
/// `(precision, fusing, block_size, shared_bytes)`.
type PackKey = (Precision, usize, usize, usize);

/// Reconstruction outcome.
pub struct ReconResult {
    /// The volume, slice-major (`fusing × num_voxels`).
    pub x: Vec<f32>,
    /// Solver diagnostics (residual/time histories). Its own `x` is
    /// empty: the volume is moved into [`ReconResult::x`], not copied.
    pub report: CglsReport,
}

impl Reconstructor {
    /// Traces and memoizes the system matrix for `scan` (§II-B: done
    /// once, reused every iteration and every slice).
    pub fn new(scan: ScanGeometry) -> Self {
        let matrix = SystemMatrix::build(&scan);
        let csr = Csr::from_system_matrix(&matrix);
        Reconstructor {
            scan,
            matrix,
            csr,
            packed: Mutex::new(None),
        }
    }

    /// The operator packed for `opts`, packing it first unless the
    /// previous call used the same key. The old entry is dropped before
    /// its replacement is built, so at most one packing is resident.
    fn packed_operator(&self, opts: &ReconOptions) -> Arc<PrecisionOperator> {
        let key = (
            opts.precision,
            opts.fusing,
            opts.block_size,
            opts.shared_bytes,
        );
        // A panic while packing leaves `None` behind — a valid entry — so
        // a poisoned lock is recovered, not propagated.
        let mut entry = self
            .packed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, op)) = entry.as_ref().filter(|(k, _)| *k == key) {
            return Arc::clone(op);
        }
        *entry = None;
        let (rays, voxels) = packing_orders(&self.scan, opts.block_size);
        let op = Arc::new(PrecisionOperator::ordered(
            &self.csr,
            (&rays, &voxels),
            opts.precision,
            opts.fusing,
            opts.block_size,
            opts.shared_bytes,
        ));
        *entry = Some((key, Arc::clone(&op)));
        op
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
    /// aligned with `opts.precision` for the duration of the call. The
    /// operator is packed by the first call with a given `(precision,
    /// fusing, block_size, shared_bytes)` and reused by the calls that
    /// follow with the same four.
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
        let op = self.packed_operator(opts);
        let op = &*op;
        ctx.precision = opts.precision;
        let mut report = match opts.algorithm {
            Algorithm::Cgls => cgls_in(
                op,
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
                op,
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
                    op,
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
            x: std::mem::take(&mut report.x),
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
        let key_of = |recon: &Reconstructor| recon.packed.lock().unwrap().as_ref().unwrap().0;

        let mixed1 = ReconOptions {
            iterations: 8,
            ..Default::default()
        };
        let first = recon.reconstruct(&sino1, &mixed1);
        let packed_by_first = recon.packed_operator(&mixed1);
        let second = recon.reconstruct(&sino1, &mixed1);
        assert!(Arc::ptr_eq(
            &packed_by_first,
            &recon.packed_operator(&mixed1)
        ));
        assert_eq!(bits(&first.x), bits(&second.x));
        assert_eq!(bits(&first.x), fresh(&sino1, &mixed1));
        assert!(first.report.x.is_empty(), "the volume is moved, not copied");

        let mixed2 = ReconOptions {
            fusing: 2,
            ..mixed1
        };
        let fused = recon.reconstruct(&sino2, &mixed2);
        assert_eq!(key_of(&recon), (Precision::Mixed, 2, 64, 96 * 1024));
        assert_eq!(bits(&fused.x), fresh(&sino2, &mixed2));

        let single2 = ReconOptions {
            precision: Precision::Single,
            ..mixed2
        };
        let single = recon.reconstruct(&sino2, &single2);
        assert_eq!(key_of(&recon).0, Precision::Single);
        assert_eq!(bits(&single.x), fresh(&sino2, &single2));
        assert_ne!(bits(&single.x), bits(&fused.x));

        // Back to the first key: packed again, same bits as before.
        let again = recon.reconstruct(&sino1, &mixed1);
        assert!(!Arc::ptr_eq(
            &packed_by_first,
            &recon.packed_operator(&mixed1)
        ));
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
                iterations: 60,
                tolerance: 0.02,
                shared_bytes,
                ..Default::default()
            };
            let ordered = recon.reconstruct(&sino, &opts);
            let (fwd, bwd) = recon.packed_operator(&opts).stage_counts();
            let blocks = recon.num_rays().div_ceil(64) + recon.num_voxels().div_ceil(64);
            assert_eq!(fwd + bwd == blocks, single_stage);

            let identity =
                PrecisionOperator::new(&recon.csr, Precision::Single, 1, 64, shared_bytes);
            let config = CglsConfig {
                max_iters: opts.iterations,
                tolerance: opts.tolerance,
                damping: 0.0,
            };
            let natural = cgls_in(
                &identity,
                &sino,
                &config,
                &mut ExecContext::parallel(),
                &mut |_| {},
            );

            let iterations = ordered.report.residual_history.len();
            assert!(
                iterations < 60,
                "the tolerance, not the cap, ends the solve"
            );
            assert_eq!(iterations, natural.residual_history.len());
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
