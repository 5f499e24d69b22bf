//! Adjointness property tests: every `LinearOperator` implementation must
//! satisfy `⟨A·x, y⟩ ≈ ⟨x, Aᵀ·y⟩` — forward projection and backprojection
//! are transposes of the *same* matrix, whatever precision or kernel path
//! computes them. A broken transpose silently stalls CGLS convergence, so
//! this is the single most load-bearing invariant in the solver stack.
//!
//! Vectors are drawn positive-only (`0..1`) so the two inner products are
//! sums of same-signed terms: cancellation cannot mask a defect, and the
//! relative tolerance is meaningful. Tolerances scale with the storage
//! precision of each path (half roundtrips cost ~2^-11 per element).

use proptest::prelude::*;
use xct_core::decompose::packing_orders;
use xct_exec::Executor;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_solver::{
    CsrOperator, ExecContext, LinearOperator, PrecisionOperator, SystemMatrixOperator,
};
use xct_spmm::{Csr, Order};

const N: usize = 12;
const ANGLES: usize = 10;

fn scan() -> (ScanGeometry, SystemMatrix) {
    let scan = ScanGeometry::uniform(ImageGrid::square(N, 1.0), ANGLES);
    let sm = SystemMatrix::build(&scan);
    (scan, sm)
}

/// ⟨A·x, y⟩ and ⟨x, Aᵀ·y⟩ in f64, via the trait object entry points.
fn inner_products(
    op: &dyn LinearOperator,
    x: &[f32],
    y: &[f32],
    ctx: &mut ExecContext,
) -> (f64, f64) {
    let mut ax = vec![0.0f32; op.rows()];
    op.apply(x, &mut ax, ctx);
    let lhs: f64 = ax
        .iter()
        .zip(y)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum();
    let mut aty = vec![0.0f32; op.cols()];
    op.apply_transpose(y, &mut aty, ctx);
    let rhs: f64 = aty
        .iter()
        .zip(x)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum();
    (lhs, rhs)
}

fn assert_adjoint(op: &dyn LinearOperator, x: &[f32], y: &[f32], tol: f64, label: &str) {
    let mut ctx = ExecContext::serial();
    let (lhs, rhs) = inner_products(op, x, y, &mut ctx);
    let scale = lhs.abs().max(rhs.abs()).max(1.0);
    assert!(
        (lhs - rhs).abs() <= tol * scale,
        "{label}: ⟨Ax,y⟩ = {lhs} vs ⟨x,Aᵀy⟩ = {rhs} (tol {tol})"
    );
}

/// Checks `PrecisionOperator` at `fusing` under the identity orders and
/// under the production Hilbert orders — the latter also with a staging
/// buffer small enough that blocks run several stages, where a row's
/// accumulation sequence differs between the two layouts.
fn assert_precision_operators_adjoint(p: Precision, fusing: usize, x: &[f32], y: &[f32]) {
    let (scan, sm) = scan();
    let csr = Csr::from_system_matrix(&sm);
    let identity = (
        Order::identity(csr.num_rows()),
        Order::identity(csr.num_cols()),
    );
    let hilbert = packing_orders(&scan, 64);
    for (name, (rays, voxels), shared) in [
        ("identity", &identity, 96 * 1024),
        ("hilbert", &hilbert, 96 * 1024),
        ("hilbert, multi-stage", &hilbert, 64 * fusing),
    ] {
        let serial = &Executor::Serial;
        let op = PrecisionOperator::ordered(&csr, (rays, voxels), p, fusing, 64, shared, serial);
        if shared < 1024 {
            let (fwd, bwd) = op.stage_counts();
            assert!(fwd > csr.num_rows().div_ceil(64) && bwd > csr.num_cols().div_ceil(64));
        }
        let label = format!("PrecisionOperator({p:?}, fusing {fusing}, {name})");
        assert_adjoint(&op, x, y, tolerance(p), &label);
    }
}

fn tolerance(p: Precision) -> f64 {
    match p {
        Precision::Double | Precision::Single => 1e-3,
        Precision::Mixed => 5e-2,
        Precision::Half => 1e-1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn system_matrix_operator_is_adjoint(
        x in prop::collection::vec(0.0f32..1.0, N * N),
        y in prop::collection::vec(0.0f32..1.0, N * ANGLES),
    ) {
        let (_, sm) = scan();
        let op = SystemMatrixOperator::new(&sm);
        assert_adjoint(&op, &x, &y, 1e-3, "SystemMatrixOperator");
    }

    #[test]
    fn csr_operator_is_adjoint(
        x in prop::collection::vec(0.0f32..1.0, N * N),
        y in prop::collection::vec(0.0f32..1.0, N * ANGLES),
    ) {
        let (_, sm) = scan();
        let op = CsrOperator::new(Csr::from_system_matrix(&sm));
        assert_adjoint(&op, &x, &y, 1e-3, "CsrOperator");
    }

    #[test]
    fn precision_operator_is_adjoint_at_all_precisions(
        x in prop::collection::vec(0.0f32..1.0, N * N),
        y in prop::collection::vec(0.0f32..1.0, N * ANGLES),
    ) {
        for p in Precision::ALL {
            assert_precision_operators_adjoint(p, 1, &x, &y);
        }
    }

    #[test]
    fn precision_operator_is_adjoint_when_fused(
        x in prop::collection::vec(0.0f32..1.0, 3 * N * N),
        y in prop::collection::vec(0.0f32..1.0, 3 * N * ANGLES),
    ) {
        // Fused multi-slice batches go through the strided kernel paths.
        for p in [Precision::Single, Precision::Mixed] {
            assert_precision_operators_adjoint(p, 3, &x, &y);
        }
    }
}
