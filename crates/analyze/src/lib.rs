//! `xct-analyze` — Layer 1 of the workspace invariant checker.
//!
//! A dependency-free static analyzer that walks every `.rs` file in
//! the workspace and enforces the project rules DESIGN.md states in
//! prose: the single `unsafe` boundary, `SAFETY:` justifications,
//! panic-free library code, injectable clocks, allocation-free hot
//! regions, crate-root unsafe headers, and the "one of each" rules —
//! one wire protocol, one exchange vocabulary and op-list builder, one
//! storage codec, one fan-out, one solve dispatch, no retired name.
//! Most are rows of one table, [`lint::ROWS`]. Findings are structured
//! [`lint::LintViolation`] witnesses (file/line/rule/excerpt), never
//! booleans — the same diagnostic contract as `xct-verify`.
//!
//! Layer 2 (abstract interpretation over compiled communication
//! programs) lives in `xct-verify`, next to the plan data it checks;
//! `petaxct analyze` drives both.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lint;
pub mod selftest;
pub mod workspace;

pub use lint::{LintViolation, Role, Rule, SANCTIONED_UNSAFE};
pub use workspace::{analyze_workspace, classify, WalkError};
