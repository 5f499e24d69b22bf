//! Total-variation regularized reconstruction — the "advanced
//! regularizers" the paper's Eq. (1) reserves the `R(x)` term for.
//!
//! Minimizes `‖y − Ax‖² + λ·TVε(x)` by projected gradient descent, where
//! `TVε(x) = Σ √(|∇x|² + ε²)` is the smoothed isotropic total variation
//! over the slice's 2D grid. TV preserves edges while suppressing noise —
//! the regularizer of choice for piecewise-constant specimens like the
//! IC chip.

use crate::cgls::CglsReport;
use crate::operator::LinearOperator;
use std::time::Instant;
use xct_exec::{BufferRole, ExecContext, Phase};

/// TV solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct TvConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Regularization weight λ (0 = plain least squares).
    pub lambda: f32,
    /// TV smoothing ε (smaller = sharper edges, stiffer problem).
    pub epsilon: f32,
    /// Project onto `x ≥ 0` each step.
    pub nonneg: bool,
}

impl Default for TvConfig {
    fn default() -> Self {
        TvConfig {
            iterations: 100,
            lambda: 1.0,
            epsilon: 1e-3,
            nonneg: true,
        }
    }
}

/// Reconstructs one `nx × nz` slice with TV regularization inside a
/// caller-owned [`ExecContext`]; all iteration vectors (forward
/// projection, residual, both gradients) come from the context's
/// workspace.
///
/// # Panics
/// Panics when the operator shape does not match the grid or measurement.
pub fn tv_reconstruct_in(
    op: &dyn LinearOperator,
    y: &[f32],
    nx: usize,
    nz: usize,
    config: &TvConfig,
    ctx: &mut ExecContext,
) -> CglsReport {
    assert_eq!(op.cols(), nx * nz, "operator/grid shape mismatch");
    assert_eq!(y.len(), op.rows(), "measurement length mismatch");
    assert!(config.epsilon > 0.0, "epsilon must be positive");
    assert!(config.lambda >= 0.0, "lambda must be nonnegative");
    // xct-allow(wall-clock): the solver report carries real wall time even with telemetry disabled
    let t0 = Instant::now();
    let n = op.cols();
    let m = op.rows();

    let setup_span = ctx.telemetry.span(Phase::SolverSetup);
    // Lipschitz estimate of 2AᵀA by power iteration, for the step size.
    let lip = {
        let mut v = ctx.workspace.take_uninit::<f32>(BufferRole::Probe, n);
        for (i, vi) in v.iter_mut().enumerate() {
            *vi = ((i * 37 + 11) % 101) as f32 / 101.0 + 0.01;
        }
        let mut av = ctx.workspace.take::<f32>(BufferRole::Forward, m);
        let mut atav = ctx.workspace.take::<f32>(BufferRole::Update, n);
        let mut norm = 1.0f64;
        for _ in 0..12 {
            op.apply(&v, &mut av, ctx);
            op.apply_transpose(&av, &mut atav, ctx);
            norm = atav
                .iter()
                .map(|&x| f64::from(x).powi(2))
                .sum::<f64>()
                .sqrt();
            if norm <= 0.0 {
                break;
            }
            for (vi, &ai) in v.iter_mut().zip(&atav) {
                *vi = (f64::from(ai) / norm) as f32;
            }
        }
        ctx.workspace.put(BufferRole::Probe, v);
        ctx.workspace.put(BufferRole::Forward, av);
        ctx.workspace.put(BufferRole::Update, atav);
        2.0 * norm
    };
    // TV gradient Lipschitz bound ≈ 8λ/ε on a 4-neighbour grid.
    let step = (1.0 / (lip + f64::from(8.0 * config.lambda / config.epsilon))) as f32;

    let y_norm = y.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>().sqrt();
    let mut x = vec![0.0f32; n];
    let mut ax = ctx.workspace.take::<f32>(BufferRole::Forward, m);
    let mut residual = ctx.workspace.take::<f32>(BufferRole::CgResidual, m);
    let mut grad_ls = ctx.workspace.take::<f32>(BufferRole::Update, n);
    let mut tv_grad = ctx.workspace.take::<f32>(BufferRole::Gradient, n);
    let mut history = Vec::with_capacity(config.iterations + 1);
    history.push(1.0f64);
    let mut times = Vec::with_capacity(config.iterations + 1);
    times.push(t0.elapsed().as_secs_f64());
    drop(setup_span);

    for _ in 0..config.iterations {
        let _iter_span = ctx.telemetry.span(Phase::SolverIteration);
        op.apply(&x, &mut ax, ctx);
        let mut res_norm = 0.0f64;
        for ((r, &yi), &axi) in residual.iter_mut().zip(y).zip(ax.iter()) {
            *r = axi - yi;
            res_norm += f64::from(*r).powi(2);
        }
        op.apply_transpose(&residual, &mut grad_ls, ctx);
        tv_gradient_into(&x, nx, nz, config.epsilon, &mut tv_grad);
        for ((xi, &g), &tg) in x.iter_mut().zip(&grad_ls).zip(tv_grad.iter()) {
            *xi -= step * (2.0 * g + config.lambda * tg);
            if config.nonneg && *xi < 0.0 {
                *xi = 0.0;
            }
        }
        let rel = if y_norm > 0.0 {
            res_norm.sqrt() / y_norm
        } else {
            0.0
        };
        history.push(rel);
        times.push(t0.elapsed().as_secs_f64());
        ctx.telemetry.event("tv.residual", rel);
    }

    ctx.workspace.put(BufferRole::Forward, ax);
    ctx.workspace.put(BufferRole::CgResidual, residual);
    ctx.workspace.put(BufferRole::Update, grad_ls);
    ctx.workspace.put(BufferRole::Gradient, tv_grad);

    CglsReport {
        x,
        iterations: config.iterations,
        converged: false,
        residual_history: history,
        time_history: times,
    }
}

/// Smoothed isotropic TV value of a slice (for tests and diagnostics).
pub fn tv_value(x: &[f32], nx: usize, nz: usize, epsilon: f32) -> f64 {
    assert_eq!(x.len(), nx * nz, "shape mismatch");
    let mut acc = 0.0f64;
    for iz in 0..nz {
        for ix in 0..nx {
            let v = x[iz * nx + ix];
            let dx = if ix + 1 < nx {
                x[iz * nx + ix + 1] - v
            } else {
                0.0
            };
            let dz = if iz + 1 < nz {
                x[(iz + 1) * nx + ix] - v
            } else {
                0.0
            };
            acc += f64::from(dx * dx + dz * dz + epsilon * epsilon).sqrt();
        }
    }
    acc
}

/// Gradient of [`tv_value`] with respect to `x`, written into `grad`.
fn tv_gradient_into(x: &[f32], nx: usize, nz: usize, epsilon: f32, grad: &mut [f32]) {
    assert_eq!(grad.len(), x.len(), "gradient shape mismatch");
    grad.fill(0.0);
    for iz in 0..nz {
        for ix in 0..nx {
            let at = iz * nx + ix;
            let v = x[at];
            let dx = if ix + 1 < nx { x[at + 1] - v } else { 0.0 };
            let dz = if iz + 1 < nz { x[at + nx] - v } else { 0.0 };
            let mag = (dx * dx + dz * dz + epsilon * epsilon).sqrt();
            // ∂/∂v of √(dx²+dz²+ε²) with dx, dz both containing −v.
            grad[at] += -(dx + dz) / mag;
            if ix + 1 < nx {
                grad[at + 1] += dx / mag;
            }
            if iz + 1 < nz {
                grad[at + nx] += dz / mag;
            }
        }
    }
}

/// Gradient of [`tv_value`] with respect to `x` (allocating convenience).
#[cfg(test)]
fn tv_gradient(x: &[f32], nx: usize, nz: usize, epsilon: f32) -> Vec<f32> {
    let mut grad = vec![0.0f32; x.len()];
    tv_gradient_into(x, nx, nz, epsilon, &mut grad);
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgls::{cgls, CglsConfig};
    use crate::operator::SystemMatrixOperator;
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};

    fn tv_reconstruct(
        op: &dyn LinearOperator,
        y: &[f32],
        nx: usize,
        nz: usize,
        config: &TvConfig,
    ) -> CglsReport {
        tv_reconstruct_in(op, y, nx, nz, config, &mut ExecContext::serial())
    }

    fn blocky_phantom(n: usize) -> Vec<f32> {
        // Piecewise-constant: two rectangles on background — TV's best case.
        let mut x = vec![0.0f32; n * n];
        for iz in n / 6..n / 2 {
            for ix in n / 6..n / 2 {
                x[iz * n + ix] = 1.0;
            }
        }
        for iz in n / 2..(5 * n / 6) {
            for ix in n / 2..(5 * n / 6) {
                x[iz * n + ix] = 0.6;
            }
        }
        x
    }

    fn noisy_setup(n: usize) -> (SystemMatrix, Vec<f32>, Vec<f32>) {
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), n);
        let sm = SystemMatrix::build(&scan);
        let x_true = blocky_phantom(n);
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);
        let mut state = 99u64;
        for v in &mut y {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v += ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 1.5;
        }
        (sm, x_true, y)
    }

    fn rel_err(a: &[f32], b: &[f32]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(&p, &q)| (f64::from(p) - f64::from(q)).powi(2))
            .sum();
        let den: f64 = b.iter().map(|&q| f64::from(q).powi(2)).sum();
        (num / den).sqrt()
    }

    #[test]
    fn tv_gradient_matches_finite_differences() {
        let (nx, nz) = (6, 5);
        let x: Vec<f32> = (0..nx * nz)
            .map(|i| ((i * 17 + 3) % 23) as f32 / 23.0)
            .collect();
        let eps = 0.05f32;
        let grad = tv_gradient(&x, nx, nz, eps);
        let f0 = tv_value(&x, nx, nz, eps);
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let fd = (tv_value(&xp, nx, nz, eps) - f0) / f64::from(h);
            assert!(
                (fd - f64::from(grad[i])).abs() < 2e-2 * fd.abs().max(1.0),
                "voxel {i}: fd {fd} vs grad {}",
                grad[i]
            );
        }
    }

    #[test]
    fn tv_beats_plain_cgls_on_noisy_blocky_data() {
        let n = 24;
        let (sm, x_true, y) = noisy_setup(n);
        let op = SystemMatrixOperator::new(&sm);
        let plain = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 60,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        let tv = tv_reconstruct(
            &op,
            &y,
            n,
            n,
            &TvConfig {
                iterations: 400,
                lambda: 2.0,
                epsilon: 0.01,
                nonneg: true,
            },
        );
        let e_plain = rel_err(&plain.x, &x_true);
        let e_tv = rel_err(&tv.x, &x_true);
        assert!(
            e_tv < e_plain,
            "TV ({e_tv}) must beat plain CGLS ({e_plain}) on noisy piecewise-constant data"
        );
        // And the TV solution really is smoother.
        assert!(
            tv_value(&tv.x, n, n, 1e-3) < tv_value(&plain.x, n, n, 1e-3),
            "TV regularization must reduce total variation"
        );
    }

    #[test]
    fn zero_lambda_reduces_to_least_squares_descent() {
        let n = 16;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 20);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true = blocky_phantom(n);
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);
        let report = tv_reconstruct(
            &op,
            &y,
            n,
            n,
            &TvConfig {
                iterations: 300,
                lambda: 0.0,
                epsilon: 0.01,
                nonneg: false,
            },
        );
        assert!(
            *report.residual_history.last().unwrap() < 0.1,
            "plain gradient descent must make progress: {}",
            report.residual_history.last().unwrap()
        );
        // Monotone descent (fixed small step).
        for w in report.residual_history.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn nonneg_projection_is_respected() {
        let n = 12;
        let (sm, _, y) = noisy_setup(n);
        let op = SystemMatrixOperator::new(&sm);
        let report = tv_reconstruct(&op, &y, n, n, &TvConfig::default());
        assert!(report.x.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn tv_steady_state_reuses_workspace() {
        let n = 12;
        let (sm, _, y) = noisy_setup(n);
        let op = SystemMatrixOperator::new(&sm);
        let mut ctx = ExecContext::serial();
        let config = TvConfig {
            iterations: 3,
            ..Default::default()
        };
        tv_reconstruct_in(&op, &y, n, n, &config, &mut ctx);
        let warm = ctx.workspace.alloc_events();
        tv_reconstruct_in(&op, &y, n, n, &config, &mut ctx);
        assert_eq!(ctx.workspace.alloc_events(), warm);
    }

    #[test]
    #[should_panic(expected = "operator/grid shape mismatch")]
    fn shape_mismatch_panics() {
        let scan = ScanGeometry::uniform(ImageGrid::square(8, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        tv_reconstruct(&op, &vec![0.0; op.rows()], 4, 4, &TvConfig::default());
    }
}
