//! The workspace's design rules, checked by the suite itself: the tree
//! scans clean under every lint, and every must-reject artifact under
//! `crates/analyze/testdata/` is rejected by exactly the rule it seeds.
//! `petaxct analyze` and its `--self-test` run the same two checks.

use std::path::Path;
use xct_analyze::analyze_workspace;
use xct_analyze::selftest::{sweep, CORPUS};

#[test]
fn workspace_is_lint_clean() {
    let violations =
        analyze_workspace(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("walk workspace");
    for v in &violations {
        eprintln!("{v}");
    }
    assert!(
        violations.is_empty(),
        "{} lint violations in the workspace (listed above)",
        violations.len()
    );
}

#[test]
fn every_corpus_artifact_is_rejected_by_exactly_its_rule() {
    let testdata = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/analyze/testdata");
    match sweep(&testdata) {
        Ok(lines) => assert_eq!(lines.len(), CORPUS.len(), "{lines:?}"),
        Err(failures) => panic!("{}", failures.join("\n")),
    }
}
