//! Workspace walker: finds every `.rs` file under the repo root,
//! classifies its build role, and runs the Layer-1 lints over it.

use crate::lint::{check_file, LintViolation, Role};
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into. `testdata` holds the analyzer's
/// own must-reject corpus — deliberately broken sources that are not
/// part of the build.
const SKIP_DIRS: &[&str] = &["target", ".git", "testdata", ".github"];

/// Errors from walking the workspace (I/O, not lint findings).
#[derive(Debug)]
pub struct WalkError {
    /// Path that failed.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for WalkError {}

/// Classifies a workspace-relative path into its build role.
pub fn classify(rel_path: &str) -> Role {
    let has_seg = |seg: &str| {
        rel_path
            .split('/')
            .rev()
            .skip(1) // a *directory* segment, not the file name
            .any(|s| s == seg)
    };
    if rel_path.starts_with("shims/") {
        Role::Shim
    } else if rel_path.ends_with("build.rs") && !rel_path.contains("/src/") {
        Role::BuildScript
    } else if has_seg("tests") {
        Role::Test
    } else if has_seg("benches") {
        Role::Bench
    } else if has_seg("examples") {
        Role::Example
    } else if has_seg("bin") || rel_path.ends_with("src/main.rs") || rel_path == "main.rs" {
        Role::Bin
    } else {
        Role::Lib
    }
}

/// Walks `root` and lints every `.rs` file. Lint findings accumulate
/// in the returned vec; unreadable files are hard errors (a linter
/// that silently skips files proves nothing).
pub fn analyze_workspace(root: &Path) -> Result<Vec<LintViolation>, WalkError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    // Deterministic report order regardless of directory iteration.
    files.sort();
    let mut out = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let source = fs::read_to_string(&path).map_err(|e| WalkError {
            path: path.clone(),
            message: e.to_string(),
        })?;
        out.push_violations(rel, &source);
    }
    Ok(out)
}

/// Small extension so the walk loop reads naturally.
trait PushViolations {
    fn push_violations(&mut self, rel: &str, source: &str);
}

impl PushViolations for Vec<LintViolation> {
    fn push_violations(&mut self, rel: &str, source: &str) {
        check_file(rel, source, classify(rel), self);
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), WalkError> {
    let entries = fs::read_dir(dir).map_err(|e| WalkError {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| WalkError {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_shapes() {
        assert_eq!(classify("crates/comm/src/runtime.rs"), Role::Lib);
        assert_eq!(classify("src/cli.rs"), Role::Lib);
        assert_eq!(classify("src/lib.rs"), Role::Lib);
        assert_eq!(classify("src/main.rs"), Role::Bin);
        assert_eq!(classify("crates/bench/src/bin/perf_suite.rs"), Role::Bin);
        assert_eq!(classify("tests/alloc_free.rs"), Role::Test);
        assert_eq!(classify("crates/io/tests/proptest_io.rs"), Role::Test);
        assert_eq!(
            classify("crates/bench/benches/spmm_kernels.rs"),
            Role::Bench
        );
        assert_eq!(classify("examples/quickstart.rs"), Role::Example);
        assert_eq!(classify("shims/proptest/src/lib.rs"), Role::Shim);
        assert_eq!(classify("build.rs"), Role::BuildScript);
        // A file merely *named* tests.rs in src stays Lib.
        assert_eq!(classify("crates/foo/src/tests.rs"), Role::Lib);
    }
}
