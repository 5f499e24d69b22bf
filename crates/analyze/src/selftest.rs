//! The Layer-1 must-reject sweep: every artifact under `testdata/` must
//! be rejected with exactly the rule it seeds.
//!
//! This is the analyzer analyzing its own corpus — the proof that each
//! lint actually fires. `petaxct analyze --self-test` and the
//! `lints.rs` integration test both drive [`sweep`], so the corpus
//! table has one home.

use crate::lint::{check_file, Rule};
use crate::workspace::classify;
use std::path::Path;

/// The corpus: (testdata file, impersonated workspace path, rule that
/// must fire). Each artifact is narrowly broken — it must trip its own
/// rule and no other.
pub const CORPUS: &[(&str, &str, Rule)] = &[
    (
        "unsafe_outside.rs",
        "crates/comm/src/evil.rs",
        Rule::UnsafeBoundary,
    ),
    (
        "unsafe_no_safety.rs",
        "crates/spmm/src/simd.rs",
        Rule::SafetyComment,
    ),
    ("unwrap_in_lib.rs", "crates/io/src/evil.rs", Rule::NoPanic),
    ("panic_in_lib.rs", "crates/core/src/evil.rs", Rule::NoPanic),
    (
        "wall_clock.rs",
        "crates/solver/src/evil.rs",
        Rule::WallClock,
    ),
    (
        "machine_width.rs",
        "crates/geometry/src/evil.rs",
        Rule::MachineWidth,
    ),
    ("hot_alloc.rs", "crates/spmm/src/evil.rs", Rule::HotAlloc),
    (
        "missing_header.rs",
        "crates/evil/src/lib.rs",
        Rule::CrateRootHeader,
    ),
    (
        "allow_no_reason.rs",
        "crates/comm/src/evil2.rs",
        Rule::AllowJustification,
    ),
];

/// Runs the must-reject sweep against the corpus under
/// `testdata_dir`. Returns one line per artifact on success; returns
/// `Err` with every failure (artifact not rejected, rejected for the
/// wrong rule, or unreadable) — a self-test that cannot read its corpus
/// has proven nothing.
pub fn sweep(testdata_dir: &Path) -> Result<Vec<String>, Vec<String>> {
    let mut passed = Vec::new();
    let mut failed = Vec::new();
    for &(file, fake_path, rule) in CORPUS {
        let path = testdata_dir.join(file);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                failed.push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        let mut violations = Vec::new();
        check_file(fake_path, &source, classify(fake_path), &mut violations);
        let hit = violations.iter().find(|v| v.rule == rule);
        match hit {
            None => failed.push(format!(
                "testdata/{file}: expected {rule} to fire, got {violations:?}"
            )),
            Some(_) if violations.iter().any(|o| o.rule != rule) => failed.push(format!(
                "testdata/{file}: tripped rules besides {rule}: {violations:?}"
            )),
            Some(v) => passed.push(format!(
                "testdata/{file}: rejected by {rule} at line {}",
                v.line
            )),
        }
    }
    if failed.is_empty() {
        Ok(passed)
    } else {
        Err(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_passes_on_the_shipped_corpus() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
        let lines = sweep(&dir).expect("corpus sweep");
        assert_eq!(lines.len(), CORPUS.len());
    }

    #[test]
    fn sweep_fails_on_a_missing_corpus() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir");
        let failures = sweep(&dir).expect_err("missing corpus must fail");
        assert_eq!(failures.len(), CORPUS.len());
    }
}
