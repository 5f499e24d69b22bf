//! Damped CGLS: conjugate gradient on the least-squares normal equations,
//! in the one-reduction form of Chronopoulos & Gear (1989).

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
    /// (`history[0]` is the initial 1.0) — the norm of the solver's
    /// actual residual vector, never a recurrence.
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
/// `reduce` is applied, in place, to every group of inner products. A
/// distributed caller passes an element-wise allreduce-sum here; partial
/// dot products from each rank then combine into global scalars, which is
/// all CG needs to stay coherent across processes. Every iteration needs
/// exactly one group, `[(s,s), (t,t), (r,r)]` (see [`CglsSolver`]): one
/// reduction round per iteration and none at set-up, plus one scalar
/// round after the last iteration for its residual — `N + 1` for `N`
/// iterations. A single process passes `&mut |_| {}`.
///
/// All iteration vectors (`r`, `s`, `t`, `p`, `q`) come from the
/// context's workspace, so after the first call every subsequent solve —
/// and every iteration within a solve — is allocation-free apart from the
/// returned report. The caller keeps the context (and its warm buffers,
/// counters, and executor policy) across solves.
pub fn cgls_in(
    op: &dyn LinearOperator,
    y: &[f32],
    config: &CglsConfig,
    ctx: &mut ExecContext,
    reduce: &mut dyn FnMut(&mut [f64]),
) -> CglsReport {
    // xct-allow(wall-clock): the solver report carries real wall time even with telemetry disabled
    let t0 = Instant::now();
    let mut solver = CglsSolver::new(op, y, config, ctx);
    let mut history = Vec::with_capacity(config.max_iters + 1);
    history.push(1.0f64);
    let mut times = Vec::with_capacity(config.max_iters + 1);
    times.push(t0.elapsed().as_secs_f64());
    let mut converged = false;

    for iteration in 0..config.max_iters {
        // Each step reports the residual of the iterate it started from;
        // the first reports `‖y‖` itself, whose history entry is the
        // initial 1.0.
        let step = solver.step(op, ctx, reduce);
        if iteration > 0 {
            history.push(step.residual());
        }
        match step {
            CglsStep::Advanced { .. } => times.push(t0.elapsed().as_secs_f64()),
            CglsStep::Stopped { converged: c, .. } => {
                converged = c;
                break;
            }
        }
    }
    // An iterate that no step started from has no residual yet.
    if history.len() < times.len() {
        history.push(solver.residual(ctx, reduce));
    }

    CglsReport {
        x: solver.finish(ctx),
        iterations: history.len() - 1,
        residual_history: history,
        converged,
        time_history: times,
    }
}

/// What one [`CglsSolver::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CglsStep {
    /// The iterate advanced. `residual` is the relative residual of the
    /// iterate the step started from.
    Advanced {
        /// `‖r‖/‖y‖` before the update.
        residual: f64,
    },
    /// The solve ends on the iterate the step started from, whose
    /// relative residual is `residual`: it met the tolerance or its
    /// gradient vanished (`converged`), or the direction fell in the null
    /// space or a scalar was not finite (not `converged`).
    Stopped {
        /// `‖r‖/‖y‖` of the final iterate.
        residual: f64,
        /// Whether the final iterate solves the problem to tolerance.
        converged: bool,
    },
}

impl CglsStep {
    /// The relative residual of the iterate the step started from.
    pub fn residual(self) -> f64 {
        match self {
            CglsStep::Advanced { residual } | CglsStep::Stopped { residual, .. } => residual,
        }
    }
}

/// One damped-CGLS solve advanced an iteration at a time — the single
/// iteration body. [`cgls_in`] is a loop over [`step`](Self::step);
/// harnesses that meter individual iterations (the perf suite, the tile
/// sweep, the allocation guard) drive it directly.
///
/// The iteration is the Chronopoulos–Gear form of CGLS: with
/// `M = AᵀA + λ²I`, `s = Aᵀr − λ²x` and `t = A·s`, every scalar an
/// iteration needs follows from the three inner products
/// `[(s,s), (t,t), (r,r)]`, which arrive in **one** reduction:
///
/// 1. `t = A·s`; reduce `[(s,s), (t,t), (r,r)]` — `γ = (s,s)`;
/// 2. `β = γ/γ₋₁` (0 on the first step), `μ = ‖t‖² + λ²γ`,
///    `δ = μ − β²δ₋₁` (`= (p, M p)`, by the orthogonality of successive
///    gradients);
/// 3. `p = s + βp`, `q = t + βq` (`= A·p`), `α = γ/δ`, `x += αp`,
///    `r −= αq`;
/// 4. `s = Aᵀr − λ²x`.
///
/// One forward and one transpose application per iteration, as the
/// classic form; the set-up (`r = y`, `s = Aᵀy`) reduces nothing. The
/// reduction also yields `‖r‖` of the iterate the step starts from, so
/// the residual history costs no extra round except after the last
/// iteration ([`residual`](Self::residual)). The three local products
/// are formed in one pass over `s`, `t` and `r`, three independent
/// `f64` sums each kept in index order — the bits of three separate dot
/// products, without their three serial add chains.
///
/// The Krylov state (`r`, `s`, `p`, `q`) and the work vector `t` are
/// taken from the [`ExecContext`]'s workspace and go back in
/// [`finish`](Self::finish), so neither a step nor a warm solve
/// allocates.
pub struct CglsSolver {
    x: Vec<f32>,
    r: Vec<f32>,
    s: Vec<f32>,
    t: Vec<f32>,
    p: Vec<f32>,
    q: Vec<f32>,
    /// The previous step's `γ` and `δ`; `None` before the first step.
    previous: Option<(f64, f64)>,
    /// `‖y‖` (for relative residuals), known from the first step on.
    y_norm: f64,
    lambda: f64,
    tolerance: f64,
}

impl CglsSolver {
    /// Initializes from zero (`x = 0`, `r = y`, `s = Aᵀy`) with
    /// `config`'s damping and tolerance (`max_iters` is the caller's
    /// loop). Makes no reduction.
    ///
    /// # Panics
    /// Panics when `y` is not `op.rows()` long.
    pub fn new(
        op: &dyn LinearOperator,
        y: &[f32],
        config: &CglsConfig,
        ctx: &mut ExecContext,
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
        CglsSolver {
            x: vec![0.0f32; n],
            r,
            s,
            t: ctx.workspace.take::<f32>(BufferRole::CgProjectedNormal, m),
            p: ctx.workspace.take::<f32>(BufferRole::CgDirection, n),
            q: ctx.workspace.take::<f32>(BufferRole::CgProjected, m),
            previous: None,
            y_norm: 0.0,
            lambda: config.damping,
            tolerance: config.tolerance,
        }
    }

    /// Performs one CGLS iteration unless the iterate it starts from is
    /// final: the gradient has vanished or the residual meets the
    /// tolerance (converged), or the search direction is in the null
    /// space (`δ ≤ 0`, which the recurrence can also reach by
    /// cancellation) or a scalar it needs is not finite — an overflow or
    /// NaN anywhere in an apply reaches γ or δ, so the solve stops on the
    /// last finite iterate instead of running to the cap on NaN.
    /// Distributed callers stay in step: the scalars are reduced across
    /// ranks, so every rank sees the same NaN and stops on the same
    /// iteration.
    // `!(v > 0.0)` is true for NaN, which `v <= 0.0` is not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn step(
        &mut self,
        op: &dyn LinearOperator,
        ctx: &mut ExecContext,
        reduce: &mut dyn FnMut(&mut [f64]),
    ) -> CglsStep {
        let _span = ctx.telemetry.span(Phase::SolverIteration);
        let CglsSolver {
            x, r, s, t, p, q, ..
        } = self;
        // t = A·s
        op.apply(s, t, ctx);
        // The iteration's one round: γ, ‖t‖² and ‖r‖² are independent.
        let mut products = squared_norms(s, t, r);
        reduce(&mut products);
        let [gamma, t_norm2, r_norm2] = products;
        if self.previous.is_none() {
            self.y_norm = r_norm2.sqrt();
        }
        let residual = relative(r_norm2, self.y_norm);
        if self.previous.is_some() {
            ctx.telemetry.event("cgls.residual", residual);
            ctx.telemetry.gauge_set(MetricId::SolverResidual, residual);
        }
        let stop = |converged| CglsStep::Stopped {
            residual,
            converged,
        };
        if !(gamma > 0.0) {
            // A vanished gradient is the exact solution.
            return stop(gamma <= 0.0);
        }
        if !gamma.is_finite() {
            return stop(false);
        }
        if self.previous.is_some() && self.tolerance > 0.0 && residual <= self.tolerance {
            return stop(true);
        }
        let lambda2 = self.lambda * self.lambda;
        let mu = t_norm2 + lambda2 * gamma;
        let (beta, delta) = match self.previous {
            Some((gamma_prev, delta_prev)) => {
                let beta = gamma / gamma_prev;
                (beta, mu - beta * beta * delta_prev)
            }
            None => (0.0, mu),
        };
        if !(delta > 0.0) {
            return stop(false);
        }
        // p = s + β·p, q = t + β·q (= A·p); on the first step β = 0 over
        // the zeroed `p` and `q` of `new`.
        let beta = beta as f32;
        for (pi, &si) in p.iter_mut().zip(s.iter()) {
            *pi = si + beta * *pi;
        }
        for (qi, &ti) in q.iter_mut().zip(t.iter()) {
            *qi = ti + beta * *qi;
        }
        let alpha = gamma / delta;
        axpy(alpha as f32, p, x);
        axpy(-(alpha as f32), q, r);
        // s = Aᵀ·r − λ²·x
        op.apply_transpose(r, s, ctx);
        if lambda2 > 0.0 {
            let l2 = lambda2 as f32;
            for (si, xi) in s.iter_mut().zip(x.iter()) {
                *si -= l2 * xi;
            }
        }
        self.previous = Some((gamma, delta));
        ctx.telemetry.metric_inc(MetricId::SolverIterations);
        CglsStep::Advanced { residual }
    }

    /// The relative residual `‖r‖/‖y‖` of the current iterate, at the
    /// cost of one scalar reduction — what the history needs after the
    /// last step, whose own reduction came before its update.
    pub fn residual(&mut self, ctx: &mut ExecContext, reduce: &mut dyn FnMut(&mut [f64])) -> f64 {
        let mut r_norm2 = [dot(&self.r, &self.r)];
        reduce(&mut r_norm2);
        let residual = relative(r_norm2[0], self.y_norm);
        ctx.telemetry.event("cgls.residual", residual);
        ctx.telemetry.gauge_set(MetricId::SolverResidual, residual);
        residual
    }

    /// Ends the solve: returns the iteration vectors to `ctx`'s workspace
    /// and yields the iterate.
    pub fn finish(self, ctx: &mut ExecContext) -> Vec<f32> {
        ctx.workspace.put(BufferRole::CgResidual, self.r);
        ctx.workspace.put(BufferRole::CgNormal, self.s);
        ctx.workspace.put(BufferRole::CgProjectedNormal, self.t);
        ctx.workspace.put(BufferRole::CgDirection, self.p);
        ctx.workspace.put(BufferRole::CgProjected, self.q);
        self.x
    }
}

/// `‖r‖/‖y‖` for a reduced `‖r‖²` (0 for a zero measurement).
fn relative(r_norm2: f64, y_norm: f64) -> f64 {
    if y_norm > 0.0 {
        r_norm2.sqrt() / y_norm
    } else {
        0.0
    }
}

/// f64-accumulated dot product of f32 slices.
fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&p, &q)| f64::from(p) * f64::from(q))
        .sum()
}

/// `[(s,s), (t,t), (r,r)]` in one pass over the three vectors — three
/// independent `f64` chains interleaved, where three [`dot`]s would run
/// one add-latency-bound chain after another — over their common prefix
/// and then each tail (`s` is `n` long, `t` and `r` are `m`). Every sum
/// still adds its terms in index order from `-0.0`, as `Iterator::sum`
/// does, so each is bit for bit its [`dot`].
fn squared_norms(s: &[f32], t: &[f32], r: &[f32]) -> [f64; 3] {
    debug_assert_eq!(t.len(), r.len(), "t and r are both m long");
    let square = |v: f32| f64::from(v) * f64::from(v);
    let common = s.len().min(t.len());
    let (mut ss, mut tt, mut rr) = (-0.0f64, -0.0f64, -0.0f64);
    let (s, s_tail) = s.split_at(common);
    let (t, t_tail) = t.split_at(common);
    let (r, r_tail) = r.split_at(common);
    for ((&si, &ti), &ri) in s.iter().zip(t).zip(r) {
        ss += square(si);
        tt += square(ti);
        rr += square(ri);
    }
    for &si in s_tail {
        ss += square(si);
    }
    for (&ti, &ri) in t_tail.iter().zip(r_tail) {
        tt += square(ti);
        rr += square(ri);
    }
    [ss, tt, rr]
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
        // (alpha and beta are ratios of reduced quantities). One group per
        // iteration and none at set-up; the step that meets the tolerance
        // makes the last.
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
        assert!(report.converged);
        assert_eq!(calls, report.iterations + 1);
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

    /// `inner` with a NaN written into its output on the `at`-th call of
    /// the poisoned direction: iteration `at`'s forward apply, or
    /// iteration `at − 1`'s backprojection — the transpose also runs once
    /// at set-up.
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
            self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.at
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
        // A NaN in iteration 3's forward apply makes its ‖t‖², so δ, NaN;
        // one in iteration 2's backprojection makes the `s` iteration 3
        // starts from, so its γ, NaN: either way the solve stops after two
        // recorded iterations, unconverged, with a finite iterate and
        // history.
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

    /// The classic CGLS body — two reduction rounds per iteration,
    /// `[(q,q) (+ (p,p))]` then `[(s,s), (r,r)]` — kept as the oracle
    /// the one-round form is checked against.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn classic_cgls(op: &dyn LinearOperator, y: &[f32], config: &CglsConfig) -> CglsReport {
        let ctx = &mut ExecContext::serial();
        let (n, m) = (op.cols(), op.rows());
        let mut x = vec![0.0f32; n];
        let mut r = y.to_vec();
        let mut s = vec![0.0f32; n];
        op.apply_transpose(&r, &mut s, ctx);
        let mut p = s.clone();
        let mut q = vec![0.0f32; m];
        let (mut gamma, y_norm) = (dot(&s, &s), dot(y, y).sqrt());
        let lambda = config.damping;
        let mut history = vec![1.0];
        let mut converged = false;
        for _ in 0..config.max_iters {
            if !(gamma > 0.0) {
                converged = gamma <= 0.0;
                break;
            }
            op.apply(&p, &mut q, ctx);
            let delta = dot(&q, &q) + lambda * lambda * dot(&p, &p);
            if !(delta > 0.0) {
                break;
            }
            let alpha = gamma / delta;
            axpy(alpha as f32, &p, &mut x);
            axpy(-(alpha as f32), &q, &mut r);
            op.apply_transpose(&r, &mut s, ctx);
            let l2 = (lambda * lambda) as f32;
            for (si, xi) in s.iter_mut().zip(&x) {
                *si -= l2 * xi;
            }
            let gamma_new = dot(&s, &s);
            if !gamma_new.is_finite() {
                break;
            }
            let beta = (gamma_new / gamma) as f32;
            gamma = gamma_new;
            for (pi, &si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
            let rel = dot(&r, &r).sqrt() / y_norm;
            history.push(rel);
            if config.tolerance > 0.0 && rel <= config.tolerance {
                converged = true;
                break;
            }
        }
        CglsReport {
            x,
            iterations: history.len() - 1,
            time_history: vec![0.0; history.len()],
            residual_history: history,
            converged,
        }
    }

    /// The largest relative gap between two residual histories.
    fn history_gap(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs() / v.abs())
            .fold(0.0, f64::max)
    }

    /// A 16×16 scan of a smooth phantom: the projections and the packed
    /// operator at `precision`.
    fn fig13_problem(precision: xct_fp16::Precision) -> (crate::PrecisionOperator, Vec<f32>) {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let sm = SystemMatrix::build(&scan);
        let x_true: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 31 + 7) % 89) as f32 / 89.0)
            .collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);
        let csr = Csr::from_system_matrix(&sm);
        let op = crate::PrecisionOperator::new(&csr, precision, 1, 64, 48 * 1024);
        (op, y)
    }

    #[test]
    fn one_round_and_classic_cgls_agree_in_every_precision() {
        // Fig 13 in miniature: on the same operator, in all four
        // precisions, the one-reduction form reaches the tolerance on the
        // same iteration as the classic body and their residual histories
        // agree within the stated gap (measured: 9e-8, 6e-7, 4e-3, 5e-3).
        use xct_fp16::Precision;
        for (precision, gap) in [
            (Precision::Double, 1e-6),
            (Precision::Single, 1e-5),
            (Precision::Mixed, 1e-2),
            (Precision::Half, 1e-2),
        ] {
            let (op, y) = fig13_problem(precision);
            let config = CglsConfig {
                max_iters: 60,
                tolerance: 2e-2,
                damping: 0.0,
            };
            let ctx = &mut ExecContext::serial().with_precision(precision);
            let one_round = cgls_in(&op, &y, &config, ctx, &mut |_| {});
            let classic = classic_cgls(&op, &y, &config);
            assert!(one_round.converged && classic.converged, "{precision}");
            assert_eq!(one_round.iterations, classic.iterations, "{precision}");
            let got = history_gap(&one_round.residual_history, &classic.residual_history);
            assert!(
                got <= gap,
                "{precision}: histories differ by {got:e} > {gap:e}"
            );
        }
    }

    #[test]
    fn damped_recurrence_carries_the_lambda_squared_term() {
        // δ = μ − β²δ₋₁ with μ = ‖t‖² + λ²γ: the damped one-round solve
        // follows the classic oracle to f32 rounding (≈ 4e-5 here), while
        // dropping the λ² term leaves it as far from the oracle as the
        // undamped solve is (≈ 0.6).
        let (op, y) = fig13_problem(xct_fp16::Precision::Double);
        let config = CglsConfig {
            max_iters: 12,
            tolerance: 0.0,
            damping: 1.5,
        };
        let one_round = cgls(&op, &y, &config);
        let classic = classic_cgls(&op, &y, &config);
        let undamped = classic_cgls(
            &op,
            &y,
            &CglsConfig {
                damping: 0.0,
                ..config
            },
        );
        let gap = history_gap(&one_round.residual_history, &classic.residual_history);
        assert!(gap <= 1e-4, "damped histories differ by {gap:e}");
        let x_gap = one_round
            .x
            .iter()
            .zip(&classic.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(x_gap <= 1e-4, "damped iterates differ by {x_gap:e}");
        let apart = history_gap(&undamped.residual_history, &classic.residual_history);
        assert!(apart > 0.1, "λ = 1.5 must change the solve ({apart:e})");
    }

    /// Deterministic values in `[-1, 1)` with a few exact zeros and
    /// negative zeros among them.
    fn values(len: usize, seed: u32) -> Vec<f32> {
        (0..len as u32)
            .map(|i| match (i * 7 + seed) % 23 {
                0 => 0.0,
                1 => -0.0,
                k => (k as f32 - 11.5) / 11.5 * (1.0 + (i % 5) as f32 / 3.0),
            })
            .collect()
    }

    /// The one pass forms each product bit for bit as its own `dot`,
    /// whichever of `s` (`n` long) and `t`, `r` (`m` long) is longer.
    #[test]
    fn one_pass_products_are_three_dots() {
        for (n, m) in [(37, 100), (100, 37), (64, 64), (0, 5), (5, 0)] {
            let (s, t, r) = (values(n, 1), values(m, 2), values(m, 3));
            let bits = |v: [f64; 3]| v.map(f64::to_bits);
            assert_eq!(
                bits(squared_norms(&s, &t, &r)),
                bits([dot(&s, &s), dot(&t, &t), dot(&r, &r)]),
                "n = {n}, m = {m}"
            );
        }
    }

    /// 64-bit FNV-1a over the bits of a solve's residual history and
    /// iterate.
    fn report_digest(report: &CglsReport) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let history = report.residual_history.iter().map(|v| v.to_bits());
        let x = report.x.iter().map(|v| u64::from(v.to_bits()));
        for word in history.chain(x) {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// A damped solve on an operator with more rays than voxels, and an
    /// undamped one on an operator with fewer, bit for bit as recorded
    /// before the iteration formed its three products in one pass.
    #[test]
    fn non_square_solves_are_the_recorded_ones() {
        let mut digests = Vec::new();
        for (n, angles, damping) in [(12, 20, 0.5), (16, 6, 0.0)] {
            let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
            let sm = SystemMatrix::build(&scan);
            let op = SystemMatrixOperator::new(&sm);
            assert_ne!(op.rows() > op.cols(), damping == 0.0);
            let x_true = values(op.cols(), 5);
            let mut y = vec![0.0f32; op.rows()];
            op.apply(&x_true, &mut y, &mut ExecContext::serial());
            let config = CglsConfig {
                max_iters: 9,
                tolerance: 0.0,
                damping,
            };
            digests.push(report_digest(&cgls(&op, &y, &config)));
        }
        assert_eq!(digests, [8643335791780420810, 15988791500704429730]);
    }

    #[test]
    #[should_panic(expected = "measurement length mismatch")]
    fn wrong_y_length_panics() {
        let op = diagonal(4);
        cgls(&op, &[1.0; 3], &CglsConfig::default());
    }
}
