//! The iterative solver of Petascale XCT: conjugate gradient on the
//! least-squares normal equations (CGLS), in any of the four precision
//! modes (paper §II-A, §IV-F).
//!
//! The paper solves `x̂ = argmin ‖y − Ax‖² (+ R(x))` with CG, running a
//! forward projection and a backprojection per iteration. Convergence
//! under reduced precision (Fig 13) works because (a) all FMAs stay in
//! single precision (mixed mode), and (b) the iterate and residual are
//! adaptively renormalized before each half-precision cast so quantization
//! noise stays below measurement noise.
//!
//! * [`LinearOperator`] — the `A` abstraction (reference, CSR-backed, or
//!   the optimized packed kernels at any precision),
//! * [`cgls_in`] — damped CGLS with residual history and a pluggable
//!   inner-product reducer (the distributed reconstructor in `xct-core`
//!   injects an allreduce there), a loop over the one iteration body
//!   [`CglsSolver::step`]; [`sirt_in`] is the constrained companion,
//!   with the same reducer for its residual norms,
//! * [`PrecisionOperator`] — wraps the fused buffered SpMM kernels with
//!   adaptive normalization for any [`Precision`](xct_fp16::Precision).
//!
//! # Execution contexts
//!
//! Every operator apply and solver loop threads an [`ExecContext`]:
//! scratch buffers come from its [`Workspace`] (keyed by
//! [`BufferRole`]), parallel kernel launches go through its
//! [`Executor`], and data movement is metered in its [`ExecCounters`].
//! Each algorithm has one entry point — [`cgls_in`], [`sirt_in`] — borrowing
//! a caller-owned context so that
//! repeated solves — and every iteration after the first — reuse warm
//! buffers and allocate nothing; a one-off caller passes
//! `&mut ExecContext::serial()`. [`cgls`] does exactly that with the
//! identity reducer and is kept only as the doc-tested quick-start. The
//! migration rule for new code:
//! take per-apply staging from `ctx.workspace`, never `vec![...]` inside
//! an apply or an iteration loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cgls;
mod operator;
mod precision_op;
mod sirt;

pub use cgls::{cgls, cgls_in, CglsConfig, CglsReport, CglsSolver, CglsStep, NonFinite};
pub use operator::{CsrOperator, LinearOperator, SystemMatrixOperator};
pub use precision_op::PrecisionOperator;
pub use sirt::{sirt_in, SirtConfig};
pub use xct_exec::{
    BufferRole, ExecContext, ExecCounters, Executor, Phase, SpanGuard, Telemetry, Workspace,
};
