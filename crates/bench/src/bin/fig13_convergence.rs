//! Fig 13: iterative convergence for the (noisy) Chip dataset with four
//! precisions — residual norms from *real* CGLS runs through the real
//! kernels at every precision; the wall-time axis uses the per-iteration
//! times of the V100 model (paper: 24 iterations in 372 ms double,
//! 224 ms single, 165/166 ms half/mixed).

use xct_bench::hilbert_ordered_operator;
use xct_cluster::{kernel_time, GpuSpec};
use xct_exec::Executor;
use xct_fp16::Precision;
use xct_phantom::{add_poisson_noise, chip_like};
use xct_solver::{cgls, CglsConfig, PrecisionOperator};

fn main() {
    let n = 64;
    let angles = 64;
    let op = hilbert_ordered_operator(n, angles, 128);
    let sm = &op.sm;

    // Chip-like phantom with Poisson measurement noise — the
    // "numerically challenging case with contaminating noise" of §IV-F.
    let phantom = chip_like(n, 42);
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&phantom.data, &mut y);
    add_poisson_noise(&mut y, 5e3, 7);

    println!("FIG 13: Convergence for noisy Chip analog, four precisions (real CGLS)");
    println!();

    // Per-iteration time model (one projection + one backprojection).
    let gpu = GpuSpec::v100();
    let iter_time = |p: Precision| -> f64 {
        let (metrics, stages) = op.kernel_metrics(p, 128, 96 * 1024, 16);
        2.0 * kernel_time(&gpu, &metrics, stages, 16, p)
    };

    let mut final_residuals = Vec::new();
    let executor = Executor::parallel();
    for precision in Precision::ALL {
        let orders = (&op.rays, &op.voxels);
        let packed =
            PrecisionOperator::ordered(&op.csr, orders, precision, 1, 64, 96 * 1024, &executor);
        let report = cgls(
            &packed,
            &y,
            &CglsConfig {
                max_iters: 24,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        let dt = iter_time(precision);
        println!(
            "{} — 24 iterations in {:.1} model-ms (paper: double 372, single 224, half/mixed 165-166 ms)",
            precision.label(),
            24.0 * dt * 1e3
        );
        print!("  residuals:");
        for (i, r) in report.residual_history.iter().enumerate() {
            if i % 4 == 0 || i == report.residual_history.len() - 1 {
                print!(" {r:.4}");
            }
        }
        println!();
        final_residuals.push((precision, *report.residual_history.last().unwrap(), dt));
    }

    println!();
    // Paper shape checks: no serious convergence problem with reduced
    // precision — all modes descend to the measurement-noise floor;
    // reduced precision iterates faster per unit work.
    let double_final = final_residuals[0].1;
    for &(p, r, _) in &final_residuals {
        assert!(
            r < 0.6,
            "{p}: residual {r} did not descend below the noise-dominated start"
        );
        assert!(
            r < 2.0 * double_final + 0.05,
            "{p}: residual {r} strays from double's {double_final}"
        );
    }
    let t_double = final_residuals[0].2;
    let t_mixed = final_residuals[3].2;
    assert!(
        t_double / t_mixed > 1.5,
        "mixed must be >1.5x faster per iteration (paper: 2.25x)"
    );
    println!(
        "Shape checks passed: all precisions converge to the noise floor (residual ~{double_final:.3});"
    );
    println!(
        "mixed runs {:.2}x faster per iteration than double (paper: 372/165 = 2.25x).",
        t_double / t_mixed
    );
}
