//! Seeded violation: a second solve dispatch — an entry point that
//! calls `cgls_in` itself instead of going through
//! `DistributedSetup::run`. Must be rejected by `solve-dispatch`.

pub fn solve(op: &Operator, b: &[f32], iterations: usize, ctx: &mut ExecContext) -> CglsReport {
    cgls_in(op, b, iterations, ctx)
}
