//! `xctbench`: the repository's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! xctbench --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! xctbench --seed N --out FILE [--seconds S]                  every workload, untraced then traced
//! xctbench --list                                             workloads and metrics, nothing runs
//! xctbench --agree A.json B.json                              compare two --out files by the bounds
//! ```
//!
//! `--manifest PATH` names `BENCHMARK.json` when the working directory
//! is not the repository root.

mod layers;
mod predict;
mod report;
mod run;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xct_telemetry::Json;

use crate::spec::{Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    detail: Option<String>,
    manifest: String,
    list: bool,
    agree: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: false,
        out: None,
        detail: None,
        manifest: "BENCHMARK.json".to_string(),
        list: false,
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => {
                args.seed = value(&flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value(&flag, &mut it)?),
            "--detail" => args.detail = Some(value(&flag, &mut it)?),
            "--manifest" => args.manifest = value(&flag, &mut it)?,
            "--list" => args.list = true,
            "--agree" => args.agree = Some((value(&flag, &mut it)?, value(&flag, &mut it)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A scratch directory beside the executable, which the build places
/// inside the checkout (`CARGO_TARGET_DIR`), so nothing is written
/// outside it. Removed when the guard drops.
struct Workdir(PathBuf);

impl Workdir {
    fn create() -> Result<Workdir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("xctbench-tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Workdir(dir))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only wastes space under the
        // build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn find_workload(name: &str) -> Result<&'static Spec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })
}

/// One workload in this process; the result line goes last. Exits 0
/// whenever that line was printed: its `correct` key carries the verdict.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = find_workload(name)?;
    let workdir = Workdir::create()?;
    let outcome = run::run_workload(spec, args.seed, args.seconds, args.trace, &workdir.0)?;
    if let Some(path) = &args.detail {
        std::fs::write(path, outcome.detail.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(true)
}

/// Every workload, untraced then traced, each in a child process of its
/// own so `peak_rss_mb` never sees another workload's high-water mark.
fn run_all(args: &Args, out: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workdir = Workdir::create()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let mut sections = vec![("name", Json::from(spec.name))];
        for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let detail = workdir.0.join(format!("{}-{section}.json", spec.name));
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--detail")
                .arg(&detail)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {status}",
                    spec.name
                ));
            }
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{}: {e}", detail.display()))?;
            let detail = Json::parse(&text)?;
            all_correct &= matches!(detail.get("correct"), Some(Json::Bool(true)));
            sections.push((section, detail));
        }
        workloads.push(Json::object(sections));
    }
    let result = Json::object(vec![
        ("schema", Json::from(report::RESULT_SCHEMA)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("environment", report::environment()),
        ("workloads", Json::from(workloads)),
    ]);
    std::fs::write(out, result.to_string()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.list {
            report::print_list(&args.manifest).map(|()| true)
        } else if let Some((a, b)) = &args.agree {
            report::agree(&args.manifest, a, b)
        } else if let Some(name) = &args.workload {
            run_one(&args, name)
        } else if let Some(out) = &args.out {
            run_all(&args, out)
        } else {
            Err(
                "nothing to do: give --workload NAME, --out FILE, --list or --agree A B"
                    .to_string(),
            )
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xctbench: {message}");
            ExitCode::from(2)
        }
    }
}
