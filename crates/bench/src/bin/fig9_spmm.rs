//! Fig 9: optimized SpMM speedup vs minibatch size (a) and roofline
//! analysis (b), four precisions.
//!
//! Kernel work and data movement are *measured* from the real packed
//! operator (Hilbert-ordered Siddon matrix) at each fusing factor; the
//! time mapping uses the V100 roofline model, including the
//! register-pressure behaviour that caps each precision at the paper's
//! observed minibatch limits (double/half 18, single 28, mixed 20).
//! Also prints the cuSPARSE-shaped baseline comparison of §IV-C2.

use xct_bench::hilbert_ordered_operator;
use xct_cluster::{kernel_time, roofline_point, GpuSpec};
use xct_exec::{ExecContext, ExecCounters, Executor};
use xct_fp16::Precision;
use xct_solver::{LinearOperator, PrecisionOperator};
use xct_spmm::Csr;

fn main() {
    let gpu = GpuSpec::v100();
    let op = hilbert_ordered_operator(96, 96, 128);
    let csr = &op.csr;
    let metrics_for =
        |precision: Precision, fusing: usize| op.kernel_metrics(precision, 128, 96 * 1024, fusing);
    println!("FIG 9a: Optimized SpMM speedup vs minibatch size");
    println!("(work/traffic measured from the real packed operator, time via V100 roofline)");
    println!();

    // Baseline: double precision, fusing factor 1.
    let (m0, s0) = metrics_for(Precision::Double, 1);
    let t0 = kernel_time(&gpu, &m0, s0, 1, Precision::Double);

    let fusings = [1usize, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48];
    print!("{:>8}", "fusing");
    for p in Precision::ALL {
        print!("{:>10}", p.label());
    }
    println!();
    println!("{}", "-".repeat(8 + 40));

    let mut best: Vec<(Precision, usize, f64)> = Vec::new();
    let mut curves: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for &f in &fusings {
        print!("{f:>8}");
        for (pi, p) in Precision::ALL.iter().enumerate() {
            let (m, stages) = metrics_for(*p, f);
            // Speedup normalized per slice: (time per slice of the
            // double-precision no-fusing baseline) / (time per slice at
            // fusing f) — the normalization of Fig 9a.
            let per_slice = kernel_time(&gpu, &m, stages, f, *p) / f as f64;
            let speedup = t0 / per_slice;
            print!("{speedup:>10.2}");
            curves[pi].push(speedup);
            match best.iter_mut().find(|(bp, _, _)| bp == p) {
                Some(b) if speedup > b.2 => *b = (*p, f, speedup),
                None => best.push((*p, f, speedup)),
                _ => {}
            }
        }
        println!();
    }

    println!();
    println!("Best minibatch per precision (paper: 18, 28, 16, 20 giving");
    println!("6.47x, 7.77x, 6.30x, 6.58x kernel speedup over same-precision no-fusing):");
    for (p, f, s) in &best {
        let (m1, s1) = metrics_for(*p, 1);
        let own_base = kernel_time(&gpu, &m1, s1, 1, *p);
        let (mb, sb) = metrics_for(*p, *f);
        let own_speed = own_base / (kernel_time(&gpu, &mb, sb, *f, *p) / *f as f64);
        println!(
            "  {:<8} best fusing {:>2}: {:.2}x vs double-1 ({:.2}x vs own fusing-1)",
            p.label(),
            f,
            s,
            own_speed
        );
    }
    // Shape checks: rise then fall; mixed best overall.
    for curve in &curves {
        let peak = curve.iter().cloned().fold(0.0, f64::max);
        assert!(peak > curve[0] * 3.0, "fusing must speed up >3x");
        assert!(
            *curve.last().unwrap() < peak,
            "perf must drop past the cliff"
        );
    }

    println!();
    println!("FIG 9b: Roofline (arithmetic intensity vs per-GPU GFLOPS)");
    let header = format!(
        "{:<8} {:>8} {:>16} {:>14} {:>14}",
        "prec", "fusing", "AI (flops/B)", "GFLOPS", "BW bound"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for p in Precision::ALL {
        for &f in &[1usize, 8, 16, 28] {
            let (m, stages) = metrics_for(p, f);
            let pt = roofline_point(&gpu, &m, stages, f, p);
            println!(
                "{:<8} {:>8} {:>16.2} {:>14.1} {:>14.1}",
                p.label(),
                f,
                pt.arithmetic_intensity,
                pt.achieved_flops / 1e9,
                pt.bandwidth_bound / 1e9
            );
        }
    }

    println!();
    println!("cuSPARSE-shaped baseline comparison (paper IV-C2: 1.53x-2.38x):");
    for p in [Precision::Double, Precision::Single] {
        // Baseline: unfused CSR metrics (matrix re-read per slice).
        let base_metrics = {
            let t: Vec<_> = csr.triplets().collect();
            match p {
                Precision::Double => {
                    Csr::<f64>::from_triplets(csr.num_rows(), csr.num_cols(), t.into_iter())
                        .spmm_metrics(16)
                }
                _ => Csr::<f32>::from_triplets(csr.num_rows(), csr.num_cols(), t.into_iter())
                    .spmm_metrics(16),
            }
        };
        let base_t = kernel_time(&gpu, &base_metrics, 0, 1, p);
        let (m, stages) = metrics_for(p, 16);
        let opt_t = kernel_time(&gpu, &m, stages, 16, p);
        println!(
            "  {:<8} optimized vs baseline: {:.2}x",
            p.label(),
            base_t / opt_t
        );
        assert!(
            base_t / opt_t > 1.2,
            "optimized kernel must beat the baseline"
        );
    }

    // Measured data movement per precision: one forward+transpose pass
    // through the real precision-policy operator, metered by the
    // ExecCounters the roofline numbers above are modeled from.
    println!();
    println!("Measured counters (one A / A^T pass at fusing 16):");
    let fusing = 16;
    let mut total = ExecCounters::default();
    let executor = Executor::parallel();
    for p in Precision::ALL {
        let orders = (&op.rays, &op.voxels);
        let op = PrecisionOperator::ordered(csr, orders, p, fusing, 128, 96 * 1024, &executor);
        let mut ctx = ExecContext::serial().with_precision(p);
        let x = vec![0.5f32; op.cols()];
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x, &mut y, &mut ctx);
        let mut xt = vec![0.0f32; op.cols()];
        op.apply_transpose(&y, &mut xt, &mut ctx);
        println!("  {:<8} {}", p.label(), ctx.counters);
        total.merge(&ctx.counters);
    }
    println!("  {:<8} {}", "all", total);
    assert!(total.kernel_launches >= 8, "two launches per precision");
}
