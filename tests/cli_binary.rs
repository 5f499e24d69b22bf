//! End-to-end test of the compiled `petaxct` binary (spawned as a real
//! process, exercising main.rs, exit codes, and stdout/stderr routing).

use std::process::Command;

fn petaxct(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_petaxct"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit status is 0 or 1, got {:?}",
        out.status
    );
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn binary_happy_path() {
    let dir = std::env::temp_dir().join("xct_cli_binary_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let sino = dir.join("bin_sino.xctd");
    let vol = dir.join("bin_vol.xctd");

    let (ok, stdout, stderr) = petaxct(&[
        "simulate",
        "--phantom",
        "shale",
        "--out",
        sino.to_str().unwrap(),
        "--n",
        "24",
        "--angles",
        "24",
        "--slices",
        "2",
    ]);
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("shale sinograms"));

    let (ok, stdout, stderr) = petaxct(&[
        "reconstruct",
        "--in",
        sino.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--iterations",
        "15",
    ]);
    assert!(ok, "reconstruct failed: {stderr}");
    assert!(stdout.contains("reconstructed 2 slices"));
}

/// A memory budget without `--topology` plans the run on 1×1×1, and one
/// rank is the serial solve: both arms write the same volume, byte for
/// byte, mixed precision included.
#[test]
fn plain_and_budgeted_one_process_runs_write_the_same_volume() {
    let dir = std::env::temp_dir().join("xct_cli_binary_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let sino = path("one_sino.xctd");
    let (ok, _, stderr) = petaxct(&[
        "simulate",
        "--phantom",
        "shale",
        "--out",
        &sino,
        "--n",
        "24",
        "--angles",
        "24",
        "--slices",
        "3",
    ]);
    assert!(ok, "simulate failed: {stderr}");

    let reconstruct = |out: &str, extra: &[&str]| {
        let args = [
            &[
                "reconstruct",
                "--in",
                &sino,
                "--out",
                out,
                "--precision",
                "mixed",
            ][..],
            &["--iterations", "12"],
            extra,
        ]
        .concat();
        let (ok, stdout, stderr) = petaxct(&args);
        assert!(ok, "reconstruct {extra:?} failed: {stderr}");
        stdout
    };
    let (plain, budgeted) = (path("one_plain.xctd"), path("one_budgeted.xctd"));
    reconstruct(&plain, &[]);
    let stdout = reconstruct(&budgeted, &["--memory-budget", "1000000000"]);
    assert!(stdout.contains("on 1 simulated ranks"), "{stdout}");
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&budgeted).unwrap(),
        "a one-process reconstruction has one answer"
    );
}

#[test]
fn binary_reports_errors_on_stderr_with_nonzero_exit() {
    let (ok, stdout, stderr) = petaxct(&[
        "reconstruct",
        "--in",
        "/nonexistent.xctd",
        "--out",
        "/tmp/z",
    ]);
    assert!(!ok, "must exit nonzero");
    assert!(stdout.is_empty());
    assert!(stderr.contains("error:"), "stderr: {stderr}");

    let (ok, _, stderr) = petaxct(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn binary_refuses_flags_it_would_not_read() {
    // A misspelt flag used to be kept and never read: the run succeeded
    // on the default.
    let (ok, stdout, stderr) = petaxct(&[
        "simulate",
        "--phantom",
        "shepp",
        "--out",
        "/tmp/z",
        "--sedd",
        "9",
    ]);
    assert!(!ok, "must exit nonzero");
    assert!(stdout.is_empty());
    assert!(
        stderr.contains("--sedd") && stderr.contains("petaxct simulate"),
        "stderr: {stderr}"
    );

    // `tv` names no solver.
    let (ok, _, stderr) = petaxct(&[
        "reconstruct",
        "--in",
        "/nonexistent.xctd",
        "--out",
        "/tmp/z",
        "--solver",
        "tv",
    ]);
    assert!(!ok, "must exit nonzero");
    assert!(stderr.contains("unknown solver"), "stderr: {stderr}");
}

#[test]
fn binary_help_prints_usage() {
    let (ok, stdout, _) = petaxct(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
    assert!(stdout.contains("model"));
}
