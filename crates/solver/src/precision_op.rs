//! Precision-policy operator: the optimized fused kernels plus adaptive
//! normalization, behind the [`LinearOperator`] interface.

use crate::operator::LinearOperator;
use xct_exec::{BufferRole, ExecContext, Executor, Phase};
use xct_fp16::{max_abs, scale_for, Precision, StorageScalar, F16};
use xct_spmm::{spmm_with, Csr, Order, PackedMatrix};

/// `A` and `Aᵀ` packed for the buffered SpMM at a chosen precision, with
/// the adaptive (de)normalization of §III-C1 around every half-precision
/// cast.
///
/// Two normalizations compose:
/// * **matrix scale** (static): Siddon lengths are scaled once at build
///   time so the largest length sits at 1.0 — the "artificially
///   increasing the voxel size" trick that keeps lengths out of the
///   half-precision subnormal range,
/// * **iterate factor** (dynamic): each `apply` measures the input
///   max-norm and rescales into the half sweet spot, undoing the factor
///   on output; CG's evolving residual therefore never under- or
///   overflows (§III-C1).
///
/// Quantization staging (`xq`/`yq`) comes from the context's workspace
/// under [`BufferRole::QuantIn`] / [`BufferRole::QuantOut`], so repeated
/// applies reuse the same buffers instead of allocating per call.
pub struct PrecisionOperator {
    precision: Precision,
    fusing: usize,
    rows_total: usize,
    cols_total: usize,
    matrix_scale: f32,
    adaptive: bool,
    inner: Inner,
}

enum Inner {
    Double {
        a: PackedMatrix<f64>,
        at: PackedMatrix<f64>,
    },
    Single {
        a: PackedMatrix<f32>,
        at: PackedMatrix<f32>,
    },
    HalfFamily {
        a: PackedMatrix<F16>,
        at: PackedMatrix<F16>,
        half_compute: bool,
    },
}

impl PrecisionOperator {
    /// [`ordered`](Self::ordered) under the identity orders — blocks are
    /// runs of consecutive rows, stages cut columns in ascending index —
    /// at the machine's width ([`Executor::parallel`]).
    pub fn new(
        csr: &Csr<f32>,
        precision: Precision,
        fusing: usize,
        block_size: usize,
        shared_bytes: usize,
    ) -> Self {
        let rows = Order::identity(csr.num_rows());
        let cols = Order::identity(csr.num_cols());
        Self::ordered(
            csr,
            (&rows, &cols),
            precision,
            fusing,
            block_size,
            shared_bytes,
            // xct-allow(machine-width): a convenience for callers with no executor of their own; xctbench times this signature
            &Executor::parallel(),
        )
    }

    /// Packs `csr` (one slice's `A`) and its transpose for `fusing`
    /// simultaneous slices at `precision`, with `block_size` threads per
    /// block and `shared_bytes` of staging buffer, laid out under
    /// `(row order, column order)`: `A` is packed with its rows (rays)
    /// grouped into blocks by the first and its columns (voxels) staged
    /// in the sequence of the second; `Aᵀ` with the pair swapped. The
    /// orders shape the layout only — `apply` and `apply_transpose` take
    /// and return vectors in `csr`'s own numbering
    /// (see [`PackedMatrix::pack_ordered`]).
    ///
    /// `csr` is sorted and duplicate-free already, so re-typing it is a
    /// bulk narrowing of its values under the matrix scale — no
    /// triplets, no per-row sort, no copy of its indices — and `Aᵀ` is
    /// the transpose of the typed matrix; both are packed block-parallel
    /// on `executor` ([`PackedMatrix::pack_pair`]), with the same bytes
    /// as a sequential packing.
    pub fn ordered(
        csr: &Csr<f32>,
        (rows, cols): (&Order, &Order),
        precision: Precision,
        fusing: usize,
        block_size: usize,
        shared_bytes: usize,
        executor: &Executor,
    ) -> Self {
        let max_len = csr.values().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        // Static matrix normalization: largest length → 1.0.
        let matrix_scale = if precision.quantizes_to_half() && max_len > 0.0 {
            1.0 / max_len
        } else {
            1.0
        };
        let orders = (rows, cols);
        let inner = match precision {
            Precision::Double => {
                let (a, at) = PackedMatrix::pack_pair(
                    csr,
                    matrix_scale,
                    orders,
                    block_size,
                    shared_bytes,
                    fusing,
                    executor,
                );
                Inner::Double { a, at }
            }
            Precision::Single => {
                let (a, at) = PackedMatrix::pack_pair(
                    csr,
                    matrix_scale,
                    orders,
                    block_size,
                    shared_bytes,
                    fusing,
                    executor,
                );
                Inner::Single { a, at }
            }
            Precision::Half | Precision::Mixed => {
                let (a, at) = PackedMatrix::pack_pair(
                    csr,
                    matrix_scale,
                    orders,
                    block_size,
                    shared_bytes,
                    fusing,
                    executor,
                );
                Inner::HalfFamily {
                    a,
                    at,
                    half_compute: precision == Precision::Half,
                }
            }
        };

        PrecisionOperator {
            precision,
            fusing,
            rows_total: csr.num_rows() * fusing,
            cols_total: csr.num_cols() * fusing,
            matrix_scale,
            adaptive: true,
            inner,
        }
    }

    /// The precision mode.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Disables the *dynamic* adaptive normalization (the matrix-scale
    /// normalization is baked in at pack time and stays). Exists for the
    /// normalization ablation: without it, shrinking CG residuals
    /// underflow half precision and convergence stalls.
    pub fn disable_adaptive_normalization(&mut self) {
        self.adaptive = false;
    }

    /// Slices fused per kernel call.
    pub fn fusing(&self) -> usize {
        self.fusing
    }

    /// Stage counts `(forward, transpose)` for sync-overhead modeling.
    pub fn stage_counts(&self) -> (usize, usize) {
        match &self.inner {
            Inner::Double { a, at } => (a.total_stages(), at.total_stages()),
            Inner::Single { a, at } => (a.total_stages(), at.total_stages()),
            Inner::HalfFamily { a, at, .. } => (a.total_stages(), at.total_stages()),
        }
    }

    /// [`PackedMatrix::layout_digest`] of `(A, Aᵀ)`: equal digests, equal
    /// packed bytes.
    pub fn layout_digests(&self) -> (u64, u64) {
        match &self.inner {
            Inner::Double { a, at } => (a.layout_digest(), at.layout_digest()),
            Inner::Single { a, at } => (a.layout_digest(), at.layout_digest()),
            Inner::HalfFamily { a, at, .. } => (a.layout_digest(), at.layout_digest()),
        }
    }

    /// Runs a packed f64 kernel, widening in and narrowing out through
    /// workspace staging.
    fn run_double(
        &self,
        m: &PackedMatrix<f64>,
        input: &[f32],
        output: &mut [f32],
        ctx: &mut ExecContext,
    ) {
        let mut xd = ctx
            .workspace
            .take_uninit::<f64>(BufferRole::QuantIn, input.len());
        {
            let _convert = ctx.telemetry.span(Phase::PrecisionConvert);
            ctx.executor.zip_chunks(input, &mut xd, |input, xd| {
                for (q, &v) in xd.iter_mut().zip(input) {
                    *q = f64::from(v);
                }
            });
        }
        let mut yd = ctx
            .workspace
            .take::<f64>(BufferRole::QuantOut, output.len());
        spmm_with::<f64, f64>(m, &xd, &mut yd, ctx);
        {
            let _convert = ctx.telemetry.span(Phase::PrecisionConvert);
            ctx.executor.zip_chunks(&yd, output, |yd, output| {
                for (o, v) in output.iter_mut().zip(yd) {
                    *o = *v as f32;
                }
            });
        }
        ctx.workspace.put(BufferRole::QuantIn, xd);
        ctx.workspace.put(BufferRole::QuantOut, yd);
    }

    /// Runs a packed half kernel with dynamic normalization, returning
    /// denormalized f32 output.
    fn run_half<const HALF_COMPUTE: bool>(
        &self,
        m: &PackedMatrix<F16>,
        input: &[f32],
        output: &mut [f32],
        ctx: &mut ExecContext,
    ) {
        let mut xq = ctx
            .workspace
            .take_uninit::<F16>(BufferRole::QuantIn, input.len());
        // One pass at memory speed (eight values per `vcvtps2ph` where the
        // CPU has F16C): about 2 % of the launch it brackets, and less
        // than the spawn that fanning it out would cost, so it stays on
        // the calling thread. Factor 1.0 is the exact identity.
        let factor = {
            let _convert = ctx.telemetry.span(Phase::PrecisionConvert);
            let factor = if self.adaptive {
                scale_for(max_abs(input))
            } else {
                1.0
            };
            F16::narrow_scaled_into(input, factor, &mut xq);
            factor
        };
        let mut yq = ctx
            .workspace
            .take::<F16>(BufferRole::QuantOut, output.len());
        if HALF_COMPUTE {
            spmm_with::<F16, F16>(m, &xq, &mut yq, ctx);
        } else {
            spmm_with::<F16, f32>(m, &xq, &mut yq, ctx);
        }
        // Undo both the dynamic factor and the static matrix scale.
        {
            let _convert = ctx.telemetry.span(Phase::PrecisionConvert);
            let applied = factor * self.matrix_scale;
            F16::widen_scaled_into(&yq, 1.0 / applied, output);
        }
        ctx.workspace.put(BufferRole::QuantIn, xq);
        ctx.workspace.put(BufferRole::QuantOut, yq);
    }
}

impl LinearOperator for PrecisionOperator {
    fn rows(&self) -> usize {
        self.rows_total
    }

    fn cols(&self) -> usize {
        self.cols_total
    }

    fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
        assert_eq!(x.len(), self.cols_total, "input length mismatch");
        assert_eq!(y.len(), self.rows_total, "output length mismatch");
        let _span = ctx.telemetry.span(Phase::SpmmForward);
        match &self.inner {
            Inner::Double { a, .. } => {
                self.run_double(a, x, y, ctx);
            }
            Inner::Single { a, .. } => {
                spmm_with::<f32, f32>(a, x, y, ctx);
            }
            Inner::HalfFamily {
                a, half_compute, ..
            } => {
                if *half_compute {
                    self.run_half::<true>(a, x, y, ctx);
                } else {
                    self.run_half::<false>(a, x, y, ctx);
                }
            }
        }
    }

    fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
        assert_eq!(y.len(), self.rows_total, "input length mismatch");
        assert_eq!(x.len(), self.cols_total, "output length mismatch");
        let _span = ctx.telemetry.span(Phase::SpmmTranspose);
        match &self.inner {
            Inner::Double { at, .. } => {
                self.run_double(at, y, x, ctx);
            }
            Inner::Single { at, .. } => {
                spmm_with::<f32, f32>(at, y, x, ctx);
            }
            Inner::HalfFamily {
                at, half_compute, ..
            } => {
                if *half_compute {
                    self.run_half::<true>(at, y, x, ctx);
                } else {
                    self.run_half::<false>(at, y, x, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgls::{cgls, CglsConfig};
    use crate::operator::SystemMatrixOperator;
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};

    fn setup(n: usize, angles: usize) -> (SystemMatrix, Csr<f32>) {
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
        let sm = SystemMatrix::build(&scan);
        let csr = Csr::from_system_matrix(&sm);
        (sm, csr)
    }

    #[test]
    fn all_precisions_approximate_the_reference() {
        let (sm, csr) = setup(16, 12);
        let x: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 31 + 7) % 89) as f32 / 89.0)
            .collect();
        let mut y_ref = vec![0.0f32; sm.num_rays()];
        sm.project(&x, &mut y_ref);
        for precision in Precision::ALL {
            let op = PrecisionOperator::new(&csr, precision, 1, 64, 48 * 1024);
            let mut ctx = ExecContext::serial().with_precision(precision);
            let mut y = vec![0.0f32; sm.num_rays()];
            op.apply(&x, &mut y, &mut ctx);
            let tol = match precision {
                Precision::Double | Precision::Single => 1e-4,
                Precision::Mixed => 2e-2,
                Precision::Half => 5e-2,
            };
            for (a, b) in y.iter().zip(&y_ref) {
                assert!(
                    (a - b).abs() <= tol * b.abs().max(1.0),
                    "{precision}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn normalization_handles_tiny_inputs() {
        // Residuals shrink by orders of magnitude during CG; unnormalized
        // half precision would flush them to zero.
        let (_, csr) = setup(12, 8);
        let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 32, 48 * 1024);
        let mut ctx = ExecContext::serial();
        let x = vec![1e-6f32; op.cols()];
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x, &mut y, &mut ctx);
        let nonzero = y.iter().filter(|v| **v != 0.0).count();
        assert!(
            nonzero > y.len() / 2,
            "tiny inputs must survive: {nonzero}/{} nonzero",
            y.len()
        );
    }

    #[test]
    fn fused_slices_are_independent() {
        let (sm, csr) = setup(12, 10);
        let fusing = 3;
        let op = PrecisionOperator::new(&csr, Precision::Mixed, fusing, 32, 48 * 1024);
        let mut ctx = ExecContext::serial();
        // Slice 1 nonzero, slices 0 and 2 zero.
        let mut x = vec![0.0f32; op.cols()];
        for i in 0..sm.num_voxels() {
            x[sm.num_voxels() + i] = 0.5 + (i % 7) as f32 * 0.05;
        }
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x, &mut y, &mut ctx);
        assert!(y[..sm.num_rays()].iter().all(|&v| v == 0.0));
        assert!(y[2 * sm.num_rays()..].iter().all(|&v| v == 0.0));
        assert!(y[sm.num_rays()..2 * sm.num_rays()]
            .iter()
            .any(|&v| v != 0.0));
    }

    /// The conversions around the kernel are elementwise under one
    /// whole-vector factor, so where they are cut over executor
    /// partitions (the double mode's widening and narrowing; the half
    /// modes convert on the calling thread) no output bit changes. Sized
    /// so both cut directions happen: the forward input and the transpose
    /// output are 4096 × 16 elements, two `Executor::MIN_CHUNK`s.
    #[test]
    fn conversions_over_executor_partitions_keep_every_bit() {
        let (_, csr) = setup(64, 16);
        let fusing = 16;
        assert!(csr.num_cols() * fusing >= 2 * xct_exec::Executor::MIN_CHUNK);
        for precision in [Precision::Mixed, Precision::Double] {
            let op = PrecisionOperator::new(&csr, precision, fusing, 64, 96 * 1024);
            let x: Vec<f32> = (0..op.cols())
                .map(|i| ((i * 37 + 11) % 101) as f32 * 1e-3 - 0.04)
                .collect();
            let run = |executor| {
                let mut ctx = ExecContext::with_executor(executor);
                let mut y = vec![0.0f32; op.rows()];
                op.apply(&x, &mut y, &mut ctx);
                let mut back = vec![0.0f32; op.cols()];
                op.apply_transpose(&y, &mut back, &mut ctx);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                (bits(&y), bits(&back))
            };
            assert_eq!(
                run(xct_exec::Executor::Serial),
                run(xct_exec::Executor::threads(2)),
                "{precision}"
            );
        }
    }

    #[test]
    fn repeated_applies_reuse_quantization_buffers() {
        let (_, csr) = setup(12, 10);
        let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 32, 48 * 1024);
        let mut ctx = ExecContext::serial();
        let x = vec![0.3f32; op.cols()];
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x, &mut y, &mut ctx);
        let mut xt = vec![0.0f32; op.cols()];
        op.apply_transpose(&y, &mut xt, &mut ctx);
        let warm = ctx.workspace.alloc_events();
        for _ in 0..4 {
            op.apply(&x, &mut y, &mut ctx);
            op.apply_transpose(&y, &mut xt, &mut ctx);
        }
        assert_eq!(
            ctx.workspace.alloc_events(),
            warm,
            "steady-state applies must not grow the workspace"
        );
    }

    #[test]
    fn mixed_precision_cgls_converges_like_fig13() {
        let (sm, csr) = setup(16, 16);
        let ref_op = SystemMatrixOperator::new(&sm);
        // Disk phantom measurements.
        let x_true: Vec<f32> = (0..sm.num_voxels())
            .map(|i| {
                let (ix, iz) = ((i % 16) as f32 - 7.5, (i / 16) as f32 - 7.5);
                if ix * ix + iz * iz < 30.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        ref_op.apply(&x_true, &mut y, &mut ExecContext::serial());

        let config = CglsConfig {
            max_iters: 24,
            tolerance: 0.0,
            damping: 0.0,
        };
        let double = cgls(
            &PrecisionOperator::new(&csr, Precision::Double, 1, 64, 48 * 1024),
            &y,
            &config,
        );
        let mixed = cgls(
            &PrecisionOperator::new(&csr, Precision::Mixed, 1, 64, 48 * 1024),
            &y,
            &config,
        );
        let d_final = *double.residual_history.last().unwrap();
        let m_final = *mixed.residual_history.last().unwrap();
        // Fig 13: "No serious convergence problem is observed with reduced
        // precisions" — mixed tracks double until the half-precision noise
        // floor, which sits well below the 24-iteration residual.
        assert!(d_final < 0.05, "double residual {d_final}");
        assert!(m_final < 0.08, "mixed residual {m_final}");
    }

    #[test]
    fn half_compute_is_worse_than_mixed_but_converges() {
        let (sm, csr) = setup(12, 12);
        let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 3) as f32 * 0.3).collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        SystemMatrixOperator::new(&sm).apply(&x_true, &mut y, &mut ExecContext::serial());
        let config = CglsConfig {
            max_iters: 20,
            tolerance: 0.0,
            damping: 0.0,
        };
        let half = cgls(
            &PrecisionOperator::new(&csr, Precision::Half, 1, 32, 48 * 1024),
            &y,
            &config,
        );
        let final_res = *half.residual_history.last().unwrap();
        assert!(
            final_res < 0.2,
            "half-precision CGLS must still descend: {final_res}"
        );
    }
}
