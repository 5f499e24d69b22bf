//! Criterion benches for the non-kernel pipeline components: Siddon
//! tracing / matrix build, Hilbert decomposition, communication planning,
//! and a full mini CGLS iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xct_bench::mini_operator;
use xct_comm::{DirectPlan, HierarchicalPlan, Topology};
use xct_core::decompose::SliceDecomposition;
use xct_exec::ExecContext;
use xct_geometry::{trace_ray, ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{gilbert_order, CurveKind};
use xct_solver::{cgls, cgls_in, CglsConfig, PrecisionOperator};
use xct_spmm::{spmm_buffered_serial, spmm_with, Csr, PackedMatrix};

fn bench_siddon(c: &mut Criterion) {
    let grid = ImageGrid::square(256, 1.0);
    c.bench_function("siddon_trace_ray_256", |b| {
        b.iter(|| trace_ray(black_box(&grid), black_box(0.7), black_box(13.0)))
    });
    let scan = ScanGeometry::uniform(ImageGrid::square(64, 1.0), 64);
    c.bench_function("system_matrix_build_64x64", |b| {
        b.iter(|| SystemMatrix::build(black_box(&scan)))
    });
}

fn bench_hilbert(c: &mut Criterion) {
    c.bench_function("gilbert_order_512x512", |b| {
        b.iter(|| gilbert_order(black_box(512), black_box(512)))
    });
}

fn bench_comm_planning(c: &mut Criterion) {
    let (scan, sm, _) = mini_operator(64, 64);
    let topo = Topology::summit(4);
    let d = SliceDecomposition::build(&sm, &scan, topo.size(), 4, CurveKind::Hilbert);
    let ownership = d.ray_ownership();
    c.bench_function("direct_plan_24ranks", |b| {
        b.iter(|| DirectPlan::build(black_box(&d.footprints), black_box(&ownership)))
    });
    c.bench_function("hierarchical_plan_24ranks", |b| {
        b.iter(|| HierarchicalPlan::build(black_box(&d.footprints), black_box(&ownership), &topo))
    });
}

fn bench_cgls(c: &mut Criterion) {
    let (_, sm, csr) = mini_operator(32, 32);
    let op = PrecisionOperator::new(&csr, xct_fp16::Precision::Mixed, 1, 64, 96 * 1024);
    let x = vec![0.5f32; sm.num_voxels()];
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x, &mut y);
    c.bench_function("cgls_5iter_mixed_32", |b| {
        b.iter(|| {
            cgls(
                black_box(&op),
                black_box(&y),
                &CglsConfig {
                    max_iters: 5,
                    tolerance: 0.0,
                    damping: 0.0,
                },
            )
        })
    });
    let _ = Csr::<f32>::from_system_matrix(&sm);
}

/// Allocating vs workspace-backed execution of the same work: the per-call
/// wrappers build a throwaway `ExecContext` (fresh staging buffers every
/// launch) while the `_in`/`_with` entry points reuse one warm context —
/// the difference is exactly the allocation + zero-fill traffic the
/// workspace layer removes from the steady state.
fn bench_workspace_reuse(c: &mut Criterion) {
    let (_, sm, csr) = mini_operator(64, 64);
    let packed = PackedMatrix::<f32>::pack(&csr, 64, 96 * 1024, 1);
    let x = vec![0.5f32; sm.num_voxels()];
    let mut y = vec![0.0f32; sm.num_rays()];

    c.bench_function("spmm_alloc_per_call_64", |b| {
        b.iter(|| spmm_buffered_serial::<f32, f32>(black_box(&packed), black_box(&x), &mut y))
    });
    let mut ctx = ExecContext::serial();
    spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx); // warm the workspace
    c.bench_function("spmm_workspace_warm_64", |b| {
        b.iter(|| spmm_with::<f32, f32>(black_box(&packed), black_box(&x), &mut y, &mut ctx))
    });

    let op = PrecisionOperator::new(&csr, xct_fp16::Precision::Mixed, 1, 64, 96 * 1024);
    let mut sino = vec![0.0f32; sm.num_rays()];
    sm.project(&x, &mut sino);
    let cfg = CglsConfig {
        max_iters: 5,
        tolerance: 0.0,
        damping: 0.0,
    };
    c.bench_function("cgls_5iter_alloc_per_solve_64", |b| {
        b.iter(|| cgls(black_box(&op), black_box(&sino), &cfg))
    });
    let mut solver_ctx = ExecContext::serial();
    cgls_in(&op, &sino, &cfg, &mut solver_ctx, &mut |_| {}); // warm
    c.bench_function("cgls_5iter_workspace_warm_64", |b| {
        b.iter(|| {
            cgls_in(
                black_box(&op),
                black_box(&sino),
                &cfg,
                &mut solver_ctx,
                &mut |_| {},
            )
        })
    });

    // Parity check (not a timing): cumulative ExecCounters must reproduce
    // the sum of per-call KernelMetrics for the same launches.
    let mut parity_ctx = ExecContext::serial();
    let mut total = xct_spmm::KernelMetrics::default();
    for _ in 0..3 {
        total = total + spmm_with::<f32, f32>(&packed, &x, &mut y, &mut parity_ctx);
    }
    assert_eq!(parity_ctx.counters.flops, total.flops);
    assert_eq!(parity_ctx.counters.bytes_read, total.bytes_read);
    assert_eq!(parity_ctx.counters.bytes_written, total.bytes_written);
    assert_eq!(parity_ctx.counters.kernel_launches, 3);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_siddon, bench_hilbert, bench_comm_planning, bench_cgls,
        bench_workspace_reuse
}
criterion_main!(benches);
