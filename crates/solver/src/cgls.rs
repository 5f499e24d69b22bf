//! Damped CGLS: conjugate gradient on the least-squares normal equations.

use crate::operator::LinearOperator;
use std::time::Instant;
use xct_exec::{BufferRole, ExecContext, MetricId, Phase};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct CglsConfig {
    /// Iteration cap. The paper stops Chip at 24 iterations to avoid
    /// noise overfitting (§IV-F); scaling runs use 30 (§IV-E).
    pub max_iters: usize,
    /// Stop when `‖r‖/‖y‖` falls below this (0 disables).
    pub tolerance: f64,
    /// Tikhonov damping λ: minimizes `‖y − Ax‖² + λ²‖x‖²` (the `R(x)`
    /// hook of Eq. 1).
    pub damping: f64,
}

impl Default for CglsConfig {
    fn default() -> Self {
        CglsConfig {
            max_iters: 30,
            tolerance: 0.0,
            damping: 0.0,
        }
    }
}

/// Solver outcome.
#[derive(Debug, Clone)]
pub struct CglsReport {
    /// The reconstruction.
    pub x: Vec<f32>,
    /// Relative residual `‖y − Ax‖/‖y‖` *after* each iteration
    /// (`history[0]` is the initial 1.0).
    pub residual_history: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the cap.
    pub converged: bool,
    /// Wall-clock seconds per recorded residual (same indexing as
    /// `residual_history`) — the x-axis of Fig 13.
    pub time_history: Vec<f64>,
}

/// Solves `min ‖y − Ax‖² + λ²‖x‖²` with local (single-process) inner
/// products and a private serial context: [`cgls_in`] with the identity
/// reducer, kept as the crate's doc-tested quick-start.
///
/// ```
/// use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
/// use xct_solver::{cgls, CglsConfig, ExecContext, LinearOperator, SystemMatrixOperator};
///
/// let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
/// let sm = SystemMatrix::build(&scan);
/// let op = SystemMatrixOperator::new(&sm);
/// let phantom = vec![0.5f32; op.cols()];
/// let mut y = vec![0.0f32; op.rows()];
/// op.apply(&phantom, &mut y, &mut ExecContext::serial());
/// let report = cgls(&op, &y, &CglsConfig::default());
/// assert!(report.residual_history.last().unwrap() < &0.05);
/// ```
pub fn cgls(op: &dyn LinearOperator, y: &[f32], config: &CglsConfig) -> CglsReport {
    cgls_in(op, y, config, &mut ExecContext::serial(), &mut |_| {})
}

/// CGLS running inside a caller-owned [`ExecContext`]: a loop over
/// [`CglsSolver::step`] that records the report.
///
/// `reduce` is applied, in place, to every group of inner products that
/// is needed at the same point of the iteration. A distributed caller
/// passes an element-wise allreduce-sum here; partial dot products from
/// each rank then combine into global scalars, which is all CG needs to
/// stay coherent across processes. Products with no data dependence
/// between them arrive in one slice — `[γ, ‖r‖²]` after the
/// backprojection, `[γ₀, ‖y‖²]` at set-up — so an iteration costs two
/// reduction rounds, not three. A single process passes `&mut |_| {}`.
///
/// All iteration vectors (`r`, `s`, `p`, `q`) come from the context's
/// workspace, so after the first call every subsequent solve — and every
/// iteration within a solve — is allocation-free apart from the returned
/// report. The caller keeps the context (and its warm buffers, counters,
/// and executor policy) across solves.
pub fn cgls_in(
    op: &dyn LinearOperator,
    y: &[f32],
    config: &CglsConfig,
    ctx: &mut ExecContext,
    reduce: &mut dyn FnMut(&mut [f64]),
) -> CglsReport {
    // xct-allow(wall-clock): the solver report carries real wall time even with telemetry disabled
    let t0 = Instant::now();
    let mut solver = CglsSolver::new(op, y, config.damping, ctx, reduce);
    let mut history = Vec::with_capacity(config.max_iters + 1);
    history.push(1.0f64);
    let mut times = Vec::with_capacity(config.max_iters + 1);
    times.push(t0.elapsed().as_secs_f64());
    let mut converged = false;

    for _ in 0..config.max_iters {
        let Some(rel) = solver.step(op, ctx, reduce) else {
            // A vanished gradient is the exact solution; otherwise `p`
            // fell in the null space and the solve cannot progress.
            converged = solver.gamma <= 0.0;
            break;
        };
        history.push(rel);
        times.push(t0.elapsed().as_secs_f64());
        if config.tolerance > 0.0 && rel <= config.tolerance {
            converged = true;
            break;
        }
    }

    CglsReport {
        x: solver.finish(ctx),
        iterations: history.len() - 1,
        residual_history: history,
        converged,
        time_history: times,
    }
}

/// One damped-CGLS solve advanced an iteration at a time — the single
/// iteration body. [`cgls_in`] is a loop over [`step`](Self::step);
/// harnesses that meter individual iterations (the perf suite, the tile
/// sweep, the allocation guard) drive it directly.
///
/// The Krylov state (`r`, `p`) and the work vectors (`q`, `s`) are taken
/// from the [`ExecContext`]'s workspace and go back in
/// [`finish`](Self::finish), so neither a step nor a warm solve
/// allocates.
pub struct CglsSolver {
    x: Vec<f32>,
    r: Vec<f32>,
    s: Vec<f32>,
    p: Vec<f32>,
    q: Vec<f32>,
    /// Current `‖Aᵀr − λ²x‖²`.
    gamma: f64,
    /// `‖y‖` (for relative residuals).
    y_norm: f64,
    lambda: f64,
}

impl CglsSolver {
    /// Initializes from zero (`x = 0`) with Tikhonov damping `damping`;
    /// `reduce` is as for [`cgls_in`].
    ///
    /// # Panics
    /// Panics when `y` is not `op.rows()` long.
    pub fn new(
        op: &dyn LinearOperator,
        y: &[f32],
        damping: f64,
        ctx: &mut ExecContext,
        reduce: &mut dyn FnMut(&mut [f64]),
    ) -> Self {
        assert_eq!(y.len(), op.rows(), "measurement length mismatch");
        let n = op.cols();
        let m = op.rows();
        let _span = ctx.telemetry.span(Phase::SolverSetup);
        // r = y − A·x = y (x starts at zero).
        let mut r = ctx.workspace.take_uninit::<f32>(BufferRole::CgResidual, m);
        r.copy_from_slice(y);
        // s = Aᵀ·r − λ²·x = Aᵀ·y.
        let mut s = ctx.workspace.take::<f32>(BufferRole::CgNormal, n);
        op.apply_transpose(&r, &mut s, ctx);
        let mut p = ctx.workspace.take_uninit::<f32>(BufferRole::CgDirection, n);
        p.copy_from_slice(&s);
        let mut setup = [dot(&s, &s), dot(y, y)];
        reduce(&mut setup);
        CglsSolver {
            x: vec![0.0f32; n],
            r,
            s,
            p,
            q: ctx.workspace.take::<f32>(BufferRole::CgProjected, m),
            gamma: setup[0],
            y_norm: setup[1].sqrt(),
            lambda: damping,
        }
    }

    /// Performs one CGLS iteration; returns the relative residual
    /// afterwards, or `None` when the solve cannot progress (the gradient
    /// has vanished, or the search direction is in the null space) or a
    /// scalar it needs is not finite — an overflow or NaN anywhere in an
    /// apply reaches δ or γ, so the solve stops on the last finite
    /// iterate instead of running to the cap on NaN. Distributed callers
    /// stay in step: the scalars are reduced across ranks, so every rank
    /// sees the same NaN and stops on the same iteration.
    // `!(v > 0.0)` is true for NaN, which `v <= 0.0` is not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn step(
        &mut self,
        op: &dyn LinearOperator,
        ctx: &mut ExecContext,
        reduce: &mut dyn FnMut(&mut [f64]),
    ) -> Option<f64> {
        let _span = ctx.telemetry.span(Phase::SolverIteration);
        let CglsSolver { x, r, s, p, q, .. } = self;
        let lambda = self.lambda;
        if !(self.gamma > 0.0) {
            return None;
        }
        op.apply(p, q, ctx);
        let delta = if lambda > 0.0 {
            let mut qp = [dot(q, q), dot(p, p)];
            reduce(&mut qp);
            qp[0] + lambda * lambda * qp[1]
        } else {
            let mut qq = [dot(q, q)];
            reduce(&mut qq);
            qq[0]
        };
        if !(delta > 0.0) {
            return None;
        }
        let alpha = self.gamma / delta;
        axpy(alpha as f32, p, x);
        axpy(-(alpha as f32), q, r);
        // s = Aᵀ·r − λ²·x
        op.apply_transpose(r, s, ctx);
        if lambda > 0.0 {
            let l2 = (lambda * lambda) as f32;
            for (si, xi) in s.iter_mut().zip(x.iter()) {
                *si -= l2 * xi;
            }
        }
        // γ and ‖r‖² are both known here and independent: one round.
        let mut products = [dot(s, s), dot(r, r)];
        reduce(&mut products);
        let [gamma_new, r_norm2] = products;
        if !gamma_new.is_finite() {
            return None;
        }
        let beta = gamma_new / self.gamma;
        self.gamma = gamma_new;
        // p = s + β·p
        for (pi, &si) in p.iter_mut().zip(s.iter()) {
            *pi = si + (beta as f32) * *pi;
        }

        let rel = if self.y_norm > 0.0 {
            r_norm2.sqrt() / self.y_norm
        } else {
            0.0
        };
        ctx.telemetry.event("cgls.residual", rel);
        ctx.telemetry.metric_inc(MetricId::SolverIterations);
        ctx.telemetry.gauge_set(MetricId::SolverResidual, rel);
        Some(rel)
    }

    /// Ends the solve: returns the iteration vectors to `ctx`'s workspace
    /// and yields the iterate.
    pub fn finish(self, ctx: &mut ExecContext) -> Vec<f32> {
        ctx.workspace.put(BufferRole::CgResidual, self.r);
        ctx.workspace.put(BufferRole::CgNormal, self.s);
        ctx.workspace.put(BufferRole::CgDirection, self.p);
        ctx.workspace.put(BufferRole::CgProjected, self.q);
        self.x
    }
}

/// f64-accumulated dot product of f32 slices.
fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&p, &q)| f64::from(p) * f64::from(q))
        .sum()
}

/// `y += alpha * x`.
fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CsrOperator, SystemMatrixOperator};
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
    use xct_spmm::Csr;

    /// Identity-ish diagonal operator for exact-solution tests.
    fn diagonal(n: usize) -> CsrOperator {
        let t = (0..n as u32).map(|i| (i, i, 1.0 + i as f32 * 0.1));
        CsrOperator::new(Csr::from_triplets(n, n, t))
    }

    #[test]
    fn solves_diagonal_system_exactly() {
        let op = diagonal(20);
        let x_true: Vec<f32> = (0..20).map(|i| (i as f32 - 10.0) / 5.0).collect();
        let mut y = vec![0.0f32; 20];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 50,
                tolerance: 1e-10,
                damping: 0.0,
            },
        );
        assert!(report.converged);
        for (a, b) in report.x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_history_is_monotone_nonincreasing() {
        // CGLS monotonically decreases ‖r‖ in exact arithmetic; allow
        // tiny float slack.
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true: Vec<f32> = (0..op.cols())
            .map(|i| ((i * 13 + 5) % 97) as f32 / 97.0)
            .collect();
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(&op, &y, &CglsConfig::default());
        for w in report.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-6), "{} -> {}", w[0], w[1]);
        }
        assert!(*report.residual_history.last().unwrap() < 0.05);
    }

    #[test]
    fn reconstructs_from_consistent_measurements() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 24);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        // A disk phantom.
        let x_true: Vec<f32> = (0..144)
            .map(|i| {
                let (ix, iz) = ((i % 12) as f32 - 5.5, (i / 12) as f32 - 5.5);
                if ix * ix + iz * iz < 16.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 100,
                tolerance: 1e-6,
                damping: 0.0,
            },
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum::<f64>()
            .sqrt()
            / (x_true.iter().map(|v| f64::from(*v).powi(2)).sum::<f64>()).sqrt();
        assert!(err < 0.05, "relative reconstruction error {err}");
    }

    #[test]
    fn damping_shrinks_the_solution_norm() {
        let scan = ScanGeometry::uniform(ImageGrid::square(10, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true = vec![1.0f32; op.cols()];
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let plain = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 40,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        let damped = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 40,
                tolerance: 0.0,
                damping: 2.0,
            },
        );
        let norm = |v: &[f32]| v.iter().map(|x| f64::from(*x).powi(2)).sum::<f64>();
        assert!(norm(&damped.x) < norm(&plain.x));
    }

    #[test]
    fn zero_measurement_returns_zero() {
        let op = diagonal(8);
        let report = cgls(&op, &[0.0; 8], &CglsConfig::default());
        assert!(report.x.iter().all(|&v| v == 0.0));
        assert!(report.converged);
    }

    #[test]
    fn reducer_is_used_for_inner_products() {
        // A reducer that doubles everything must not change the solution
        // (alpha and beta are ratios of reduced quantities). One group at
        // set-up, then two per iteration.
        let op = diagonal(10);
        let x_true: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut y = vec![0.0f32; 10];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let mut calls = 0usize;
        let report = cgls_in(
            &op,
            &y,
            &CglsConfig {
                max_iters: 30,
                tolerance: 1e-10,
                damping: 0.0,
            },
            &mut ExecContext::serial(),
            &mut |vals| {
                calls += 1;
                for v in vals {
                    *v *= 2.0;
                }
            },
        );
        assert_eq!(calls, 1 + 2 * report.iterations);
        for (a, b) in report.x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let y = vec![1.0f32; op.rows()];
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 5,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        assert_eq!(report.iterations, 5);
        assert_eq!(report.residual_history.len(), 6);
        assert_eq!(report.time_history.len(), 6);
        assert!(!report.converged);
    }

    #[test]
    fn repeated_solves_share_one_workspace() {
        let op = diagonal(16);
        let x_true: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        let mut ctx = ExecContext::serial();
        let mut y = vec![0.0f32; 16];
        op.apply(&x_true, &mut y, &mut ctx);
        let config = CglsConfig {
            max_iters: 20,
            tolerance: 1e-12,
            damping: 0.0,
        };
        let first = cgls_in(&op, &y, &config, &mut ctx, &mut |_| {});
        let warm = ctx.workspace.alloc_events();
        let second = cgls_in(&op, &y, &config, &mut ctx, &mut |_| {});
        assert_eq!(
            ctx.workspace.alloc_events(),
            warm,
            "warm solve must reuse buffers"
        );
        for (a, b) in first.x.iter().zip(&second.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "warm solve must be bit-identical");
        }
    }

    /// `inner` with a NaN written into its output on iteration `at`'s
    /// forward apply, or on its backprojection — the transpose also runs
    /// once at set-up.
    struct NanAt<'a> {
        inner: &'a dyn LinearOperator,
        forward: bool,
        at: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl NanAt<'_> {
        fn poisons_this_call(&self, forward: bool) -> bool {
            use std::sync::atomic::Ordering;
            if forward != self.forward {
                return false;
            }
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            call == self.at + usize::from(!forward)
        }
    }

    impl LinearOperator for NanAt<'_> {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
            self.inner.apply(x, y, ctx);
            if self.poisons_this_call(true) {
                y[0] = f32::NAN;
            }
        }
        fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
            self.inner.apply_transpose(y, x, ctx);
            if self.poisons_this_call(false) {
                x[0] = f32::NAN;
            }
        }
    }

    #[test]
    fn a_non_finite_scalar_stops_the_solve_on_the_last_finite_iterate() {
        // A NaN in iteration 3's forward apply makes δ NaN, one in its
        // backprojection γ: either way the solve stops after two recorded
        // iterations, unconverged, with a finite iterate and history.
        let op = diagonal(10);
        let x_true: Vec<f32> = (0..10).map(|i| i as f32 - 4.5).collect();
        let mut y = vec![0.0f32; 10];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        for forward in [true, false] {
            let poisoned = NanAt {
                inner: &op,
                forward,
                at: 3,
                calls: Default::default(),
            };
            let report = cgls(&poisoned, &y, &CglsConfig::default());
            assert_eq!(report.iterations, 2, "forward={forward}");
            assert!(!report.converged, "forward={forward}");
            assert!(report.x.iter().all(|v| v.is_finite()), "forward={forward}");
            assert!(report.residual_history.iter().all(|r| r.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "measurement length mismatch")]
    fn wrong_y_length_panics() {
        let op = diagonal(4);
        cgls(&op, &[1.0; 3], &CglsConfig::default());
    }
}
