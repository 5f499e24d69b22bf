//! Counter-ledger report format and its exact gate.
//!
//! [`crate::perf`] defines the schema behind the `BENCH_*.json` artifacts
//! written by the `perf_suite` binary: a versioned, flat document holding
//! one [`ScenarioResult`] per pinned reconstruction scenario, made only of
//! counts that repeat exactly from run to run (heap allocations, kernel
//! flops, launches and bytes, communication bytes and messages per
//! traffic class). CI runs the suite on every push, uploads the artifact,
//! and gates merges with [`compare`]: any column that differs from the
//! committed baseline, in either direction, fails the job, and so does a
//! scenario present on one side only. Wall time is not a column; the
//! end-to-end wall is `xctbench`'s.

/// Schema tag stamped into every report; [`BenchReport::from_json`]
/// rejects documents carrying any other value.
pub const BENCH_SCHEMA: &str = "petaxct-bench-v2";

use xct_telemetry::Json;

/// Counts for one pinned scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Stable scenario name (e.g. `"wired_2x2x2_overlap"`).
    pub name: String,
    /// Heap allocations during the call (global counting allocator).
    pub allocations: u64,
    /// Effective floating-point operations reported by the execution
    /// counters (real nonzeros only — ELL padding FMAs excluded).
    pub flops: u64,
    /// Issued floating-point operations including padding FMAs
    /// (`>= flops`); the gap is the packing waste.
    pub padded_flops: u64,
    /// Kernel launches reported by the execution counters.
    pub kernel_launches: u64,
    /// Bytes the kernels read and wrote (`ExecCounters::bytes`).
    pub kernel_bytes: u64,
    /// Payload bytes per traffic class, `(class name, bytes)`.
    pub comm_bytes: Vec<(String, u64)>,
    /// Messages per traffic class, `(class name, messages)`.
    pub comm_msgs: Vec<(String, u64)>,
}

impl ScenarioResult {
    /// Every column as `(name, count)`, per-class ones as
    /// `comm_bytes.<class>` / `comm_msgs.<class>`.
    fn columns(&self) -> Vec<(String, u64)> {
        let mut columns: Vec<(String, u64)> = [
            ("allocations", self.allocations),
            ("flops", self.flops),
            ("padded_flops", self.padded_flops),
            ("kernel_launches", self.kernel_launches),
            ("kernel_bytes", self.kernel_bytes),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .into();
        for (prefix, classes) in [
            ("comm_bytes", &self.comm_bytes),
            ("comm_msgs", &self.comm_msgs),
        ] {
            columns.extend(classes.iter().map(|(c, v)| (format!("{prefix}.{c}"), *v)));
        }
        columns
    }

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
            ("allocations", Json::from(self.allocations)),
            ("flops", Json::from(self.flops)),
            ("padded_flops", Json::from(self.padded_flops)),
            ("kernel_launches", Json::from(self.kernel_launches)),
            ("kernel_bytes", Json::from(self.kernel_bytes)),
            ("comm_bytes", pairs(&self.comm_bytes)),
            ("comm_msgs", pairs(&self.comm_msgs)),
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
            allocations: json.u64_at("allocations")?,
            flops: json.u64_at("flops")?,
            padded_flops: json.u64_at("padded_flops")?,
            kernel_launches: json.u64_at("kernel_launches")?,
            kernel_bytes: json.u64_at("kernel_bytes")?,
            comm_bytes: pairs("comm_bytes")?,
            comm_msgs: pairs("comm_msgs")?,
        })
    }
}

/// One run of the whole suite: schema + scenario list.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Results in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serializes to the `petaxct-bench-v2` JSON document.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::from(BENCH_SCHEMA)),
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
        let scenarios = json
            .array_at("scenarios")?
            .iter()
            .map(ScenarioResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport { scenarios })
    }

    /// Parses report text (convenience over [`Json::parse`] +
    /// [`BenchReport::from_json`]).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        BenchReport::from_json(&Json::parse(text)?)
    }

    fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// What [`compare`] found differing between a run and its baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum Difference {
    /// A scenario present in one report only.
    Scenario {
        /// The scenario.
        name: String,
        /// True when the baseline has it and the run does not.
        in_baseline: bool,
    },
    /// A column whose counts differ; a side without the column reads
    /// `None`.
    Column {
        /// Scenario the column belongs to.
        scenario: String,
        /// Column name (`allocations`, `comm_bytes.global`, ...).
        column: String,
        /// Baseline count.
        baseline: Option<u64>,
        /// This run's count.
        current: Option<u64>,
    },
}

impl std::fmt::Display for Difference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = |v: &Option<u64>| v.map_or("absent".to_string(), |v| v.to_string());
        match self {
            Difference::Scenario { name, in_baseline } => {
                let side = if *in_baseline { "baseline" } else { "run" };
                write!(f, "{name}: only in the {side}")
            }
            Difference::Column {
                scenario,
                column,
                baseline,
                current,
            } => write!(
                f,
                "{scenario}/{column}: {} -> {}",
                count(baseline),
                count(current)
            ),
        }
    }
}

/// Every difference between `current` and `baseline`: each scenario on
/// one side only, and each column of a shared scenario whose count is
/// not the baseline's, in either direction. Empty means the run matches
/// the ledger exactly.
pub fn compare(current: &BenchReport, baseline: &BenchReport) -> Vec<Difference> {
    let unmatched = |side: &BenchReport, other: &BenchReport, in_baseline: bool| {
        (side.scenarios.iter())
            .filter(|s| other.scenario(&s.name).is_none())
            .map(|s| Difference::Scenario {
                name: s.name.clone(),
                in_baseline,
            })
            .collect::<Vec<_>>()
    };
    let mut differences = unmatched(baseline, current, true);
    differences.extend(unmatched(current, baseline, false));
    for cur in &current.scenarios {
        let Some(base) = baseline.scenario(&cur.name) else {
            continue;
        };
        let (cur_columns, base_columns) = (cur.columns(), base.columns());
        let find = |columns: &[(String, u64)], name: &str| {
            columns.iter().find(|(c, _)| c == name).map(|(_, v)| *v)
        };
        let names = (base_columns.iter().map(|(c, _)| c)).chain(
            (cur_columns.iter().map(|(c, _)| c)).filter(|c| find(&base_columns, c).is_none()),
        );
        for column in names {
            let (baseline, current) = (find(&base_columns, column), find(&cur_columns, column));
            if baseline != current {
                differences.push(Difference::Column {
                    scenario: cur.name.clone(),
                    column: column.clone(),
                    baseline,
                    current,
                });
            }
        }
    }
    differences
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            allocations: 100,
            flops: 1_000_000,
            padded_flops: 1_250_000,
            kernel_launches: 42,
            kernel_bytes: 4_000_000,
            comm_bytes: vec![("global".to_string(), 4096), ("socket".to_string(), 0)],
            comm_msgs: vec![("global".to_string(), 16), ("socket".to_string(), 0)],
        }
    }

    fn report(names: &[&str]) -> BenchReport {
        BenchReport {
            scenarios: names.iter().map(|n| scenario(n)).collect(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = report(&["serial", "wired"]);
        let text = report.to_json().to_string();
        assert!(text.contains(BENCH_SCHEMA));
        assert_eq!(BenchReport::parse(&text).unwrap(), report);
    }

    #[test]
    fn a_grown_count_is_a_difference() {
        let baseline = report(&["serial"]);
        let mut grown = baseline.clone();
        grown.scenarios[0].allocations = 101;
        grown.scenarios[0].comm_msgs[0].1 = 17;
        let differences = compare(&grown, &baseline);
        let shown: Vec<String> = differences.iter().map(Difference::to_string).collect();
        assert_eq!(
            shown,
            [
                "serial/allocations: 100 -> 101",
                "serial/comm_msgs.global: 16 -> 17"
            ]
        );
        assert!(compare(&baseline, &baseline).is_empty());
    }

    #[test]
    fn a_lowered_count_is_a_difference() {
        let baseline = report(&["serial"]);
        let mut lowered = baseline.clone();
        lowered.scenarios[0].kernel_bytes -= 1;
        assert_eq!(
            compare(&lowered, &baseline),
            [Difference::Column {
                scenario: "serial".to_string(),
                column: "kernel_bytes".to_string(),
                baseline: Some(4_000_000),
                current: Some(3_999_999),
            }]
        );
    }

    #[test]
    fn a_scenario_missing_on_either_side_is_a_difference() {
        let (both, one) = (report(&["serial", "setup_1x2x2"]), report(&["serial"]));
        let missing = |in_baseline| {
            vec![Difference::Scenario {
                name: "setup_1x2x2".to_string(),
                in_baseline,
            }]
        };
        assert_eq!(compare(&one, &both), missing(true));
        assert_eq!(compare(&both, &one), missing(false));
        assert_eq!(
            compare(&one, &both)[0].to_string(),
            "setup_1x2x2: only in the baseline"
        );
        // A traffic class on one side only is a column difference.
        let mut extra = one.clone();
        extra.scenarios[0].comm_bytes.push(("node".to_string(), 0));
        assert_eq!(
            compare(&extra, &one)[0].to_string(),
            "serial/comm_bytes.node: absent -> 0"
        );
    }

    #[test]
    fn a_v1_document_is_refused_naming_the_schema() {
        let v1 = report(&["serial"])
            .to_json()
            .to_string()
            .replace(BENCH_SCHEMA, "petaxct-bench-v1");
        let err = BenchReport::parse(&v1).unwrap_err();
        assert!(err.contains("petaxct-bench-v1"), "{err}");
    }
}
