//! IEEE 754 binary16 ("half") storage and the adaptive normalization
//! scheme of Petascale XCT (Hidayetoglu et al., SC20, §III-C).
//!
//! The paper stores and communicates data in half precision while performing
//! all fused multiply-adds in single precision (`__half2float` /
//! `__float2half` in CUDA). This crate provides:
//!
//! * [`F16`] — a bit-exact half-precision type whose scalar conversions
//!   from/to `f32` and `f64` are software, round-to-nearest-even,
//! * [`convert`] — the bulk `F16`↔`f32` conversions every hot path goes
//!   through: eight values per `vcvtph2ps`/`vcvtps2ph` where the CPU
//!   reports F16C at run time, the software conversions (same bits)
//!   everywhere else,
//! * [`StorageScalar`] — the abstraction the SpMM kernels, the exchange
//!   and the slice files are generic over, so the same code runs in
//!   double, single, or half storage: the one codec of a run's bytes and
//!   of its width changes, plain or scaled,
//! * [`Precision`] — the four precision modes evaluated in the paper
//!   (double, single, half, mixed),
//! * [`scale_for`] — the per-iteration max-norm scale that prevents
//!   half-precision overflow while minimizing underflow (§III-C1).

// The workspace-wide rule is `forbid(unsafe_code)`. `convert.rs` is the
// sanctioned exception, *only* on x86-64, where the F16C conversion
// instructions need `core::arch`; the forbid stays in force on every
// other arch, and x86-64 builds still deny any unsafe operation not
// wrapped in an explicitly justified block.
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod convert;
mod f16;
mod normalize;
mod precision;
mod storage;

pub use f16::F16;
pub use normalize::{max_abs, max_abs_f64, scale_for, HALF_RELATIVE_EPS, HEADROOM_TARGET};
pub use precision::Precision;
pub use storage::StorageScalar;
