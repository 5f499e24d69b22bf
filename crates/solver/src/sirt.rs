//! SIRT (Simultaneous Iterative Reconstruction Technique): the classic
//! alternative iterative solver, with support for the constraint set `C`
//! of the paper's Eq. (1) (nonnegativity projection).
//!
//! `x_{k+1} = P_C( x_k + λ · C·Aᵀ·R·(y − A·x_k) )` where `R` and `C` are
//! the inverse row/column sums of `A`. SIRT converges more slowly than
//! CG per iteration (the comparison test pins this down) but admits
//! constraints naturally — which CG does not — making it the standard
//! companion solver in tomography toolkits (TomoPy, ASTRA).

use crate::cgls::CglsReport;
use crate::operator::LinearOperator;
use std::time::Instant;
use xct_exec::{BufferRole, ExecContext, MetricId, Phase};

/// SIRT configuration.
#[derive(Debug, Clone, Copy)]
pub struct SirtConfig {
    /// Iteration cap.
    pub max_iters: usize,
    /// Relaxation factor λ ∈ (0, 2); 1.0 is the classic choice.
    pub relaxation: f32,
    /// Project onto `x ≥ 0` after every update (the constraint `C` of
    /// Eq. 1 — attenuation coefficients are physically nonnegative).
    pub nonneg: bool,
    /// Stop when the relative residual falls below this (0 disables).
    pub tolerance: f64,
}

impl Default for SirtConfig {
    fn default() -> Self {
        SirtConfig {
            max_iters: 100,
            relaxation: 1.0,
            nonneg: false,
            tolerance: 0.0,
        }
    }
}

/// Runs SIRT inside a caller-owned [`ExecContext`]; all probe and
/// iteration vectors come from the context's workspace. Returns the same
/// report shape as CGLS for comparability.
///
/// `history[k]` is the relative residual `‖y − A·x‖/‖y‖` of the iterate
/// after `k` updates, and the last entry is the returned iterate's. Each
/// iteration measures the iterate it starts from with the forward apply
/// its update needs anyway, so only the iterate the last update leaves
/// costs one more forward apply, after the loop — none when the
/// tolerance stops the solve, which returns the iterate it measured.
///
/// `reduce` is applied, in place, to the squared norms the residual
/// history needs, as in [`crate::cgls_in`]: `[‖y‖²]` once at set-up,
/// `[‖y − Ax‖²]` once per iteration, between the forward and the
/// transpose apply, and once more for the last iterate — `2 + N` calls
/// for `N` iterations that run to the cap. A distributed caller passes
/// an element-wise allreduce-sum; the row and column sums need none,
/// because its operator's probes already return global sums. The norms
/// feed the history (and the tolerance) only, never the iterate. A
/// single process passes `&mut |_| {}`.
pub fn sirt_in(
    op: &dyn LinearOperator,
    y: &[f32],
    config: &SirtConfig,
    ctx: &mut ExecContext,
    reduce: &mut dyn FnMut(&mut [f64]),
) -> CglsReport {
    assert_eq!(y.len(), op.rows(), "measurement length mismatch");
    assert!(
        config.relaxation > 0.0 && config.relaxation < 2.0,
        "relaxation {} outside (0, 2)",
        config.relaxation
    );
    let (m, n) = (op.rows(), op.cols());
    // xct-allow(wall-clock): the solver report carries real wall time even with telemetry disabled
    let t0 = Instant::now();

    let setup_span = ctx.telemetry.span(Phase::SolverSetup);
    // Row and column sums via matrix-free probes with the ones vector,
    // inverted in place into the scaling diagonals R and C.
    let mut probe = ctx.workspace.take_uninit::<f32>(BufferRole::Probe, n);
    probe.fill(1.0);
    let mut r_inv = ctx.workspace.take::<f32>(BufferRole::RowScale, m);
    op.apply(&probe, &mut r_inv, ctx);
    ctx.workspace.put(BufferRole::Probe, probe);
    let mut probe = ctx.workspace.take_uninit::<f32>(BufferRole::Probe, m);
    probe.fill(1.0);
    let mut c_inv = ctx.workspace.take::<f32>(BufferRole::ColScale, n);
    op.apply_transpose(&probe, &mut c_inv, ctx);
    ctx.workspace.put(BufferRole::Probe, probe);
    let inv = |v: f32| if v.abs() > 1e-12 { 1.0 / v } else { 0.0 };
    for v in r_inv.iter_mut() {
        *v = inv(*v);
    }
    for v in c_inv.iter_mut() {
        *v = inv(*v);
    }

    let mut y_norm2 = [y.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>()];
    reduce(&mut y_norm2);
    let y_norm = y_norm2[0].sqrt();
    let mut x = vec![0.0f32; n];
    let mut ax = ctx.workspace.take::<f32>(BufferRole::Forward, m);
    let mut residual = ctx.workspace.take::<f32>(BufferRole::CgResidual, m);
    let mut update = ctx.workspace.take::<f32>(BufferRole::Update, n);
    let mut history = Vec::with_capacity(config.max_iters + 1);
    history.push(1.0f64);
    let mut times = Vec::with_capacity(config.max_iters + 1);
    times.push(t0.elapsed().as_secs_f64());
    let mut converged = false;
    drop(setup_span);

    // `‖y − A·x‖/‖y‖` of the current `x`, leaving `R·(y − A·x)` in
    // `residual`: one forward apply and one reduction.
    let mut measure = |x: &[f32], residual: &mut [f32], ctx: &mut ExecContext| {
        op.apply(x, &mut ax, ctx);
        let mut res_norm2 = [0.0f64];
        for ((res, &yi), (&axi, &ri)) in residual.iter_mut().zip(y).zip(ax.iter().zip(&r_inv)) {
            let raw = yi - axi;
            res_norm2[0] += f64::from(raw).powi(2);
            *res = raw * ri;
        }
        reduce(&mut res_norm2);
        if y_norm > 0.0 {
            res_norm2[0].sqrt() / y_norm
        } else {
            0.0
        }
    };
    let record = |history: &mut Vec<f64>, rel: f64, ctx: &mut ExecContext| {
        history.push(rel);
        ctx.telemetry.event("sirt.residual", rel);
        ctx.telemetry.gauge_set(MetricId::SolverResidual, rel);
    };
    for iteration in 0..config.max_iters {
        let _iter_span = ctx.telemetry.span(Phase::SolverIteration);
        // The iterate after `iteration` updates; the zero iterate's
        // entry is the initial 1.0.
        let rel = measure(&x, &mut residual, ctx);
        if iteration > 0 {
            record(&mut history, rel, ctx);
            if config.tolerance > 0.0 && rel <= config.tolerance {
                converged = true;
                break;
            }
        }
        op.apply_transpose(&residual, &mut update, ctx);
        for ((xi, &ui), &ci) in x.iter_mut().zip(&update).zip(&c_inv) {
            *xi += config.relaxation * ci * ui;
            if config.nonneg && *xi < 0.0 {
                *xi = 0.0;
            }
        }
        times.push(t0.elapsed().as_secs_f64());
        ctx.telemetry.metric_inc(MetricId::SolverIterations);
    }
    // The last update's iterate, unless the tolerance stop returned one
    // already measured.
    if history.len() < times.len() {
        let rel = measure(&x, &mut residual, ctx);
        record(&mut history, rel, ctx);
    }
    let iterations = times.len() - 1;

    ctx.workspace.put(BufferRole::RowScale, r_inv);
    ctx.workspace.put(BufferRole::ColScale, c_inv);
    ctx.workspace.put(BufferRole::Forward, ax);
    ctx.workspace.put(BufferRole::CgResidual, residual);
    ctx.workspace.put(BufferRole::Update, update);

    CglsReport {
        x,
        residual_history: history,
        iterations,
        converged,
        time_history: times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgls::{cgls, CglsConfig};
    use crate::operator::SystemMatrixOperator;
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};

    fn sirt(op: &dyn LinearOperator, y: &[f32], config: &SirtConfig) -> CglsReport {
        sirt_in(op, y, config, &mut ExecContext::serial(), &mut |_| {})
    }

    fn disk_setup(n: usize, angles: usize) -> (SystemMatrix, Vec<f32>, Vec<f32>) {
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
        let sm = SystemMatrix::build(&scan);
        let x_true: Vec<f32> = (0..n * n)
            .map(|i| {
                let (ix, iz) = (
                    (i % n) as f32 - n as f32 / 2.0,
                    (i / n) as f32 - n as f32 / 2.0,
                );
                if ix * ix + iz * iz < (n as f32 / 3.0).powi(2) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);
        (sm, x_true, y)
    }

    #[test]
    fn sirt_converges_on_consistent_data() {
        let (sm, x_true, y) = disk_setup(16, 20);
        let op = SystemMatrixOperator::new(&sm);
        let report = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 200,
                ..Default::default()
            },
        );
        assert!(*report.residual_history.last().unwrap() < 0.05);
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum::<f64>()
            .sqrt()
            / x_true
                .iter()
                .map(|&v| f64::from(v).powi(2))
                .sum::<f64>()
                .sqrt();
        assert!(err < 0.25, "SIRT error {err}");
    }

    #[test]
    fn sirt_residual_is_monotone() {
        let (sm, _, y) = disk_setup(12, 16);
        let op = SystemMatrixOperator::new(&sm);
        let report = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 50,
                ..Default::default()
            },
        );
        for w in report.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-6), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn cgls_converges_faster_per_iteration_than_sirt() {
        // The reason the paper builds its system around CG.
        let (sm, _, y) = disk_setup(16, 20);
        let op = SystemMatrixOperator::new(&sm);
        let budget = 20;
        let c = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: budget,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        let s = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: budget,
                ..Default::default()
            },
        );
        assert!(
            c.residual_history.last().unwrap() < s.residual_history.last().unwrap(),
            "CG {} should beat SIRT {} at equal iterations",
            c.residual_history.last().unwrap(),
            s.residual_history.last().unwrap()
        );
    }

    #[test]
    fn nonnegativity_constraint_is_enforced() {
        let (sm, _, mut y) = disk_setup(16, 12);
        // Perturb measurements so the unconstrained solution dips negative.
        for (i, v) in y.iter_mut().enumerate() {
            *v += ((i % 7) as f32 - 3.0) * 0.3;
        }
        let op = SystemMatrixOperator::new(&sm);
        let unconstrained = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 60,
                ..Default::default()
            },
        );
        assert!(
            unconstrained.x.iter().any(|&v| v < 0.0),
            "perturbation should create negative voxels"
        );
        let constrained = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 60,
                nonneg: true,
                ..Default::default()
            },
        );
        assert!(constrained.x.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn over_relaxation_speeds_early_convergence() {
        let (sm, _, y) = disk_setup(12, 16);
        let op = SystemMatrixOperator::new(&sm);
        let slow = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 10,
                relaxation: 0.5,
                ..Default::default()
            },
        );
        let fast = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 10,
                relaxation: 1.5,
                ..Default::default()
            },
        );
        assert!(fast.residual_history.last().unwrap() < slow.residual_history.last().unwrap());
    }

    #[test]
    fn sirt_steady_state_reuses_workspace() {
        let (sm, _, y) = disk_setup(12, 12);
        let op = SystemMatrixOperator::new(&sm);
        let mut ctx = ExecContext::serial();
        let config = SirtConfig {
            max_iters: 5,
            ..Default::default()
        };
        sirt_in(&op, &y, &config, &mut ctx, &mut |_| {});
        let warm = ctx.workspace.alloc_events();
        sirt_in(&op, &y, &config, &mut ctx, &mut |_| {});
        assert_eq!(ctx.workspace.alloc_events(), warm);
    }

    #[test]
    fn a_doubling_reducer_leaves_the_iterate_alone() {
        // Doubling every reduced entry doubles ‖y‖² and every ‖y − Ax‖²
        // alike: the iterate never reads them, and the history is their
        // ratio.
        let (sm, _, y) = disk_setup(12, 16);
        let op = SystemMatrixOperator::new(&sm);
        let config = SirtConfig {
            max_iters: 7,
            nonneg: true,
            ..Default::default()
        };
        let plain = sirt(&op, &y, &config);
        let doubled = sirt_in(&op, &y, &config, &mut ExecContext::serial(), &mut |vals| {
            for v in vals {
                *v *= 2.0;
            }
        });
        let bits = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&doubled.x), bits(&plain.x));
        assert_eq!(doubled.residual_history.len(), plain.residual_history.len());
        for (a, b) in doubled.residual_history.iter().zip(&plain.residual_history) {
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn the_reducer_sees_one_norm_at_set_up_and_one_per_iteration() {
        let (sm, _, y) = disk_setup(12, 16);
        let op = SystemMatrixOperator::new(&sm);
        let config = SirtConfig {
            max_iters: 5,
            ..Default::default()
        };
        let mut lengths = Vec::new();
        sirt_in(&op, &y, &config, &mut ExecContext::serial(), &mut |vals| {
            lengths.push(vals.len())
        });
        assert_eq!(lengths, vec![1; 2 + config.max_iters]);
    }

    /// `‖y − A·x‖/‖y‖` of `x`, computed apart from the solver.
    fn relative_residual(sm: &SystemMatrix, y: &[f32], x: &[f32]) -> f64 {
        let mut ax = vec![0.0f32; y.len()];
        sm.project(x, &mut ax);
        let norm2 = |v: &mut dyn Iterator<Item = f32>| v.map(|e| f64::from(e).powi(2)).sum::<f64>();
        let misfit = norm2(&mut y.iter().zip(&ax).map(|(&yi, &ai)| yi - ai));
        (misfit / norm2(&mut y.iter().copied())).sqrt()
    }

    /// `history[k]` is the iterate after `k` updates: the first update
    /// already lowers it, and the last entry is the returned iterate's,
    /// whether the solve runs to the cap or stops on the tolerance.
    #[test]
    fn the_history_ends_on_the_returned_iterate() {
        let (sm, _, y) = disk_setup(64, 64);
        let op = SystemMatrixOperator::new(&sm);
        let capped = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 6,
                ..Default::default()
            },
        );
        let history = &capped.residual_history;
        assert_eq!((capped.iterations, history.len()), (6, 7));
        assert_eq!(history[0], 1.0);
        assert!(history[1] < 1.0, "history[1] = {}", history[1]);
        let last = history[6];
        let oracle = relative_residual(&sm, &y, &capped.x);
        assert!((last - oracle).abs() <= 1e-6 * oracle, "{last} vs {oracle}");

        // A tolerance between `history[2]` and `history[3]` stops on the
        // iterate after three updates and returns it.
        let tolerance = (history[2] + history[3]) / 2.0;
        let stopped = sirt(
            &op,
            &y,
            &SirtConfig {
                max_iters: 6,
                tolerance,
                ..Default::default()
            },
        );
        assert!(stopped.converged);
        assert_eq!(stopped.iterations, 3);
        assert_eq!(stopped.residual_history, history[..4]);
        let oracle = relative_residual(&sm, &y, &stopped.x);
        assert!((history[3] - oracle).abs() <= 1e-6 * oracle);
    }

    #[test]
    #[should_panic(expected = "relaxation")]
    fn bad_relaxation_rejected() {
        let (sm, _, y) = disk_setup(8, 8);
        let op = SystemMatrixOperator::new(&sm);
        sirt(
            &op,
            &y,
            &SirtConfig {
                relaxation: 2.5,
                ..Default::default()
            },
        );
    }
}
