//! Continuous-benchmark report format and regression gate.
//!
//! [`crate::perf`] defines the schema behind the `BENCH_*.json` artifacts
//! written by the `perf_suite` binary: a versioned, flat document holding
//! one [`ScenarioResult`] per pinned reconstruction scenario (wall time,
//! per-phase self time, communication volume per traffic class,
//! critical-path length, heap allocations, counter totals). CI runs the
//! suite on every push, uploads the artifact, and gates merges with
//! [`compare`]: any metric that regresses past a relative threshold
//! against the committed baseline fails the job.

/// Schema tag stamped into every report; [`BenchReport::from_json`]
/// rejects documents carrying any other value.
pub const BENCH_SCHEMA: &str = "petaxct-bench-v1";

use xct_telemetry::Json;

/// Measurements for one pinned scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Stable scenario name (e.g. `"wired_2x2x2_overlap"`).
    pub name: String,
    /// End-to-end wall time of the reconstruction call.
    pub wall_ns: u64,
    /// Longest weighted span+wire chain from the causal DAG (0 when the
    /// scenario is untraced).
    pub critical_path_ns: u64,
    /// Heap allocations during the call (global counting allocator).
    pub allocations: u64,
    /// Effective floating-point operations reported by the execution
    /// counters (real nonzeros only — ELL padding FMAs excluded, so
    /// flops rates are honest).
    pub flops: u64,
    /// Issued floating-point operations including padding FMAs
    /// (`>= flops`); the gap is the packing waste.
    pub padded_flops: u64,
    /// Kernel launches reported by the execution counters.
    pub kernel_launches: u64,
    /// Self time per telemetry phase, `(phase label, ns)`.
    pub phase_self_ns: Vec<(String, u64)>,
    /// Payload bytes per traffic class, `(class name, bytes)`.
    pub comm_bytes: Vec<(String, u64)>,
}

impl ScenarioResult {
    fn to_json(&self) -> Json {
        let pairs = |items: &[(String, u64)]| {
            Json::object(
                items
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect::<Vec<_>>(),
            )
        };
        Json::object(vec![
            ("name", Json::from(self.name.as_str())),
            ("wall_ns", Json::from(self.wall_ns)),
            ("critical_path_ns", Json::from(self.critical_path_ns)),
            ("allocations", Json::from(self.allocations)),
            ("flops", Json::from(self.flops)),
            ("padded_flops", Json::from(self.padded_flops)),
            ("kernel_launches", Json::from(self.kernel_launches)),
            ("phase_self_ns", pairs(&self.phase_self_ns)),
            ("comm_bytes", pairs(&self.comm_bytes)),
        ])
    }

    fn from_json(json: &Json) -> Result<ScenarioResult, String> {
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            let Some(Json::Obj(items)) = json.get(key) else {
                return Err(format!("scenario missing object field {key:?}"));
            };
            items
                .iter()
                .map(|(k, v)| match v.as_u64() {
                    Some(count) => Ok((k.clone(), count)),
                    None => Err(format!("scenario {key} entry {k:?} is not a count")),
                })
                .collect()
        };
        Ok(ScenarioResult {
            name: json.str_at("name")?.to_string(),
            wall_ns: json.u64_at("wall_ns")?,
            critical_path_ns: json.u64_at("critical_path_ns")?,
            allocations: json.u64_at("allocations")?,
            flops: json.u64_at("flops")?,
            padded_flops: json.u64_at("padded_flops")?,
            kernel_launches: json.u64_at("kernel_launches")?,
            phase_self_ns: pairs("phase_self_ns")?,
            comm_bytes: pairs("comm_bytes")?,
        })
    }
}

/// One run of the whole suite: schema + mode + scenario list.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// True when produced under `--quick` (smaller problem, CI mode).
    /// Quick and full reports are never comparable.
    pub quick: bool,
    /// Results in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serializes to the `petaxct-bench-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::from(BENCH_SCHEMA)),
            ("quick", Json::from(self.quick)),
            (
                "scenarios",
                Json::from(
                    self.scenarios
                        .iter()
                        .map(ScenarioResult::to_json)
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    /// Decodes a parsed document, validating the schema tag.
    pub fn from_json(json: &Json) -> Result<BenchReport, String> {
        json.expect_schema(BENCH_SCHEMA)?;
        let quick = matches!(json.get("quick"), Some(Json::Bool(true)));
        let scenarios = json
            .array_at("scenarios")?
            .iter()
            .map(ScenarioResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport { quick, scenarios })
    }

    /// Parses report text (convenience over [`Json::parse`] +
    /// [`BenchReport::from_json`]).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        BenchReport::from_json(&Json::parse(text)?)
    }
}

/// One metric that got worse than the baseline by more than the
/// threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name (`wall_ns`, `allocations`, `comm_bytes.global`, ...).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current (regressed) value.
    pub current: u64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = (self.current as f64 / self.baseline as f64 - 1.0) * 100.0;
        write!(
            f,
            "{}/{}: {} -> {} (+{:.1}%)",
            self.scenario, self.metric, self.baseline, self.current, pct
        )
    }
}

/// Compares `current` against `baseline`, returning every metric whose
/// current value exceeds `baseline * (1 + threshold_pct/100)`.
///
/// Scenarios present on only one side are skipped (the suite may grow);
/// zero baselines are skipped (no meaningful relative change). Errors if
/// the reports were produced in different modes (`quick` vs full) —
/// their numbers are not comparable.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold_pct: f64,
) -> Result<Vec<Regression>, String> {
    if current.quick != baseline.quick {
        return Err(format!(
            "cannot compare a quick={} run against a quick={} baseline",
            current.quick, baseline.quick
        ));
    }
    let limit = 1.0 + threshold_pct / 100.0;
    let mut regressions = Vec::new();
    let mut gate = |scenario: &str, metric: &str, base: u64, cur: u64| {
        if base > 0 && (cur as f64) > (base as f64) * limit {
            regressions.push(Regression {
                scenario: scenario.to_string(),
                metric: metric.to_string(),
                baseline: base,
                current: cur,
            });
        }
    };
    for cur in &current.scenarios {
        let Some(base) = baseline.scenarios.iter().find(|s| s.name == cur.name) else {
            continue;
        };
        gate(&cur.name, "wall_ns", base.wall_ns, cur.wall_ns);
        gate(
            &cur.name,
            "critical_path_ns",
            base.critical_path_ns,
            cur.critical_path_ns,
        );
        gate(&cur.name, "allocations", base.allocations, cur.allocations);
        gate(&cur.name, "flops", base.flops, cur.flops);
        gate(
            &cur.name,
            "padded_flops",
            base.padded_flops,
            cur.padded_flops,
        );
        for (class, bytes) in &cur.comm_bytes {
            if let Some((_, b)) = base.comm_bytes.iter().find(|(c, _)| c == class) {
                gate(&cur.name, &format!("comm_bytes.{class}"), *b, *bytes);
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str, wall_ns: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            wall_ns,
            critical_path_ns: wall_ns / 2,
            allocations: 100,
            flops: 1_000_000,
            padded_flops: 1_250_000,
            kernel_launches: 42,
            phase_self_ns: vec![("SpmmForward".to_string(), wall_ns / 3)],
            comm_bytes: vec![("global".to_string(), 4096), ("socket".to_string(), 0)],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            quick: true,
            scenarios: vec![scenario("serial", 1_000_000), scenario("wired", 9_999_999)],
        };
        let text = report.to_json().to_string();
        assert!(text.contains(BENCH_SCHEMA));
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn check_rejects_an_artificially_slowed_run() {
        let baseline = BenchReport {
            quick: true,
            scenarios: vec![scenario("serial", 100)],
        };
        let mut slowed = baseline.clone();
        slowed.scenarios[0].wall_ns = 200;
        slowed.scenarios[0].comm_bytes[0].1 = 10_000;
        let regressions = compare(&slowed, &baseline, 20.0).unwrap();
        let metrics: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"wall_ns"));
        assert!(metrics.contains(&"comm_bytes.global"));
        // Zero baselines never trip the relative gate.
        assert!(!metrics.contains(&"comm_bytes.socket"));
        let shown = regressions[0].to_string();
        assert!(shown.contains("serial/"), "{shown}");
        assert!(
            shown.contains("+100.0%") || shown.contains("100.0%"),
            "{shown}"
        );
    }

    #[test]
    fn changes_within_the_threshold_pass() {
        let baseline = BenchReport {
            quick: false,
            scenarios: vec![scenario("serial", 100)],
        };
        let mut wobble = baseline.clone();
        wobble.scenarios[0].wall_ns = 115;
        assert!(compare(&wobble, &baseline, 20.0).unwrap().is_empty());
        // New scenarios absent from the baseline are not gated.
        wobble.scenarios.push(scenario("brand_new", 1));
        assert!(compare(&wobble, &baseline, 20.0).unwrap().is_empty());
    }

    #[test]
    fn quick_and_full_reports_never_compare() {
        let quick = BenchReport {
            quick: true,
            scenarios: vec![],
        };
        let full = BenchReport {
            quick: false,
            scenarios: vec![],
        };
        assert!(compare(&quick, &full, 20.0).is_err());
    }
}
