//! `BENCHMARK.json` as the source of directions and bounds, `--list`,
//! `--agree`, and the environment recorded beside a full result.

use std::process::Command;

use xct_telemetry::Json;

use crate::spec::{Kind, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::kernel_threads;

pub const RESULT_SCHEMA: &str = "xctbench-result-v1";

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub struct Manifest {
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn text(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key:?}"))
}

fn list<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    json.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array {key:?}"))
}

impl Manifest {
    pub fn read(path: &str) -> Result<Manifest, String> {
        let doc = read_json(path)?;
        let mut end_to_end = Vec::new();
        for m in list(&doc, "end_to_end")? {
            end_to_end.push(Declared {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match text(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("{path}: better is {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("missing bound")?,
            });
        }
        Ok(Manifest {
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end,
            per_layer: list(&doc, "per_layer")?
                .iter()
                .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }

    /// The manifest and the tables in `spec.rs` must name the same
    /// workloads and metrics, in the same order, with the same units.
    fn check_against_code(&self) -> Result<(), String> {
        let same = |what: &str, declared: Vec<String>, coded: Vec<String>| {
            if declared == coded {
                Ok(())
            } else {
                Err(format!(
                    "{what} differ:\n  BENCHMARK.json: {declared:?}\n  xctbench:       {coded:?}"
                ))
            }
        };
        same(
            "workloads",
            self.workloads
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
            WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
        )?;
        same(
            "end-to-end metrics",
            self.end_to_end
                .iter()
                .map(|m| format!("{} [{}]", m.name, m.unit))
                .collect(),
            END_TO_END
                .iter()
                .map(|(n, u)| format!("{n} [{u}]"))
                .collect(),
        )?;
        same(
            "per-layer metrics",
            self.per_layer
                .iter()
                .map(|(n, u)| format!("{n} [{u}]"))
                .collect(),
            PER_LAYER
                .iter()
                .map(|(n, u, _)| format!("{n} [{u}]"))
                .collect(),
        )
    }
}

/// `--list`: every workload with its parameters, every metric with
/// unit, direction and bound. Runs nothing.
pub fn print_list(manifest_path: &str) -> Result<(), String> {
    let manifest = Manifest::read(manifest_path)?;
    println!("workloads (closed loop, one call at a time):");
    for (w, (_, why)) in WORKLOADS.iter().zip(&manifest.workloads) {
        println!("  {:<16} {}", w.name, w.describe());
        println!("  {:<16} why: {why}", "");
        println!(
            "  {:<16} a repetition fails above residual {} or below {} dB",
            "", w.residual_max, w.psnr_min_db
        );
    }
    println!("end-to-end metrics (--trace 0), per workload:");
    for m in &manifest.end_to_end {
        println!(
            "  {:<34} {:<6} {} is better, may worsen by {} of the parent's median",
            m.name,
            m.unit,
            if m.lower_is_better { "lower" } else { "higher" },
            m.bound
        );
    }
    println!("  failed_frac is the result line's failed / attempted; its bound is 0");
    println!("per-layer metrics (--trace 1), no bound; o = timed from outside, t = traced self time, c = exact count, d = derived:");
    for (name, unit, kind) in &PER_LAYER {
        println!("  {} {name:<34} {unit}", kind.letter());
    }
    manifest.check_against_code()
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_line(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The machine and toolchain a full result was measured on.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |index: u32| {
        file_line(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
    };
    Json::object(vec![
        (
            "git_commit",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(first_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("kernel_threads", Json::from(kernel_threads())),
        ("cpu_model", Json::from(cpu_model)),
        ("l2", Json::from(cache(2))),
        ("l3", Json::from(cache(3))),
    ])
}

/// `workloads[name].<section>.metrics[metric].value` of a result file.
fn value_of(result: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    section_of(result, workload, section)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn section_of<'a>(result: &'a Json, workload: &str, section: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get(section)
}

/// `--agree A B`: is B no worse than A by more than each end-to-end
/// bound, is every exact count identical, and is everything correct?
/// Prints one row per metric × workload; `Ok(false)` on any miss.
pub fn agree(manifest_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = Manifest::read(manifest_path)?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
            return Err(format!("{path} is not a {RESULT_SCHEMA} file"));
        }
    }
    let mut misses = 0usize;
    let mut row = |workload: &str,
                   metric: &str,
                   a: Option<f64>,
                   b: Option<f64>,
                   rule: &str,
                   verdict: Option<bool>| {
        let show = |v: Option<f64>| match v {
            None => "missing".to_string(),
            Some(v) if v.fract() == 0.0 => format!("{v:.0}"),
            Some(v) => format!("{v:.6}"),
        };
        let change = match (a, b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b / a - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        let verdict = match verdict {
            Some(true) => "ok",
            Some(false) => {
                misses += 1;
                "MISS"
            }
            None => "info",
        };
        println!(
            "{workload:<16} {metric:<34} {:>16} {:>16} {change:>9}  {rule:<12} {verdict}",
            show(a),
            show(b)
        );
    };
    for (workload, _) in &manifest.workloads {
        for (label, doc) in [("A", &a), ("B", &b)] {
            for section in ["end_to_end", "per_layer"] {
                let correct = section_of(doc, workload, section)
                    .is_some_and(|s| matches!(s.get("correct"), Some(Json::Bool(true))));
                if !correct {
                    row(
                        workload,
                        &format!("correct ({label} {section})"),
                        None,
                        None,
                        "must hold",
                        Some(false),
                    );
                }
            }
        }
        for m in &manifest.end_to_end {
            let (va, vb) = (
                value_of(&a, workload, "end_to_end", &m.name),
                value_of(&b, workload, "end_to_end", &m.name),
            );
            let within = match (va, vb) {
                (Some(va), Some(vb)) => {
                    let worse_by = if m.lower_is_better { vb - va } else { va - vb };
                    worse_by <= m.bound * va.abs()
                }
                _ => false,
            };
            row(
                workload,
                &m.name,
                va,
                vb,
                &format!("bound {}", m.bound),
                Some(within),
            );
        }
        for (name, _, kind) in &PER_LAYER {
            let (va, vb) = (
                value_of(&a, workload, "per_layer", name),
                value_of(&b, workload, "per_layer", name),
            );
            let verdict = match kind {
                Kind::Count => Some(va.is_some() && va == vb),
                _ => (va.is_none() || vb.is_none()).then_some(false),
            };
            let rule = if *kind == Kind::Count {
                "exact"
            } else {
                "no bound"
            };
            row(workload, name, va, vb, rule, verdict);
        }
    }
    println!("{misses} miss(es)");
    Ok(misses == 0)
}
