//! CI validator for the telemetry artifacts: checks that a
//! `--metrics-out` JSON file round-trips as `petaxct-metrics-v1` (with
//! its Prometheus sibling following the text exposition line format),
//! that a `petaxct profile` artifact round-trips as
//! `petaxct-profile-v1` with a coherent rank/tile grammar, or that a
//! flight dump (`--flightrec-out`, the chaos explorer's post-mortems)
//! is a well-formed `petaxct-flightrec-v1` document.
//!
//! Usage: `metrics_check FILE.json [FILE.prom]`. The schema tag in the
//! JSON selects the validator; profile artifacts and flight dumps have
//! no Prometheus sibling, so the second argument is ignored for them.
//! The Prometheus path defaults to `FILE.json.prom`, matching what the
//! CLI writes. Exits nonzero with a diagnostic on the first malformed
//! construct.

#![forbid(unsafe_code)]

use xct_plan::ProfileReport;
use xct_telemetry::{Json, ALL_COMPONENTS, COMPONENT_COUNT};

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}");
    std::process::exit(1);
}

/// Parses `text` and checks that re-serializing and re-parsing it is
/// stable.
fn parse_round_trip(text: &str) -> Json {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("JSON does not parse: {e}")),
    };
    let reparsed = Json::parse(&doc.to_string()).ok();
    if reparsed.as_ref().map(Json::to_string) != Some(doc.to_string()) {
        fail("JSON does not round-trip through serialize/parse");
    }
    doc
}

/// One metrics sample — its time and per-track counter/gauge/histogram
/// sections — as both `petaxct-metrics-v1` and a flight dump's
/// `metrics` carry it. `what` names the sample in diagnostics. Returns
/// the sample's time and the number of metric values in it.
fn check_sample(what: &str, sample: &Json) -> (u64, usize) {
    let in_sample = |e: String| -> ! { fail(&format!("{what}: {e}")) };
    let at = sample.u64_at("at_ns").unwrap_or_else(|e| in_sample(e));
    let mut values = 0usize;
    for track in sample.array_at("tracks").unwrap_or_else(|e| in_sample(e)) {
        track.u64_at("track").unwrap_or_else(|e| in_sample(e));
        for section in ["counters", "gauges"] {
            match track.get(section) {
                Some(Json::Obj(pairs)) => values += pairs.len(),
                _ => fail(&format!("{what}: missing {section} object")),
            }
        }
        let hists = track
            .array_at("histograms")
            .unwrap_or_else(|e| in_sample(e));
        for h in hists {
            for field in ["metric", "count", "sum_ns", "buckets"] {
                if h.get(field).is_none() {
                    fail(&format!("{what}: histogram missing {field}"));
                }
            }
            values += 1;
        }
    }
    (at, values)
}

/// `petaxct-metrics-v1` structural checks: schema tag, monotone sample
/// times, and per-track counter/gauge/histogram sections. Returns the
/// total number of metric values seen (CI asserts it is non-trivial).
fn check_json(text: &str) -> usize {
    let doc = parse_round_trip(text);
    doc.expect_schema("petaxct-metrics-v1")
        .unwrap_or_else(|e| fail(&e));
    let samples = doc.array_at("samples").unwrap_or_else(|e| fail(&e));
    if samples.is_empty() {
        fail("samples array is empty");
    }
    let mut last_at = 0;
    let mut values = 0usize;
    for (i, sample) in samples.iter().enumerate() {
        let (at, seen) = check_sample(&format!("sample {i}"), sample);
        if at < last_at {
            fail(&format!("sample {i} at_ns {at} < previous {last_at}"));
        }
        last_at = at;
        values += seen;
    }
    values
}

/// `petaxct-flightrec-v1` checks: a reason string, an integer
/// `dropped`, records in non-decreasing `at_ns` whose kinds are
/// `span_begin`, `span_end`, `event` or `match`, and a `metrics` sample
/// checked like a `petaxct-metrics-v1` one. Returns the number of
/// records.
fn check_flightrec(text: &str) -> usize {
    let doc = parse_round_trip(text);
    doc.expect_schema("petaxct-flightrec-v1")
        .unwrap_or_else(|e| fail(&e));
    doc.str_at("reason").unwrap_or_else(|e| fail(&e));
    doc.u64_at("dropped").unwrap_or_else(|e| fail(&e));
    let events = doc.array_at("events").unwrap_or_else(|e| fail(&e));
    let mut last_at = 0;
    for (i, event) in events.iter().enumerate() {
        let in_event = |e: String| -> ! { fail(&format!("event {i}: {e}")) };
        let at = event.u64_at("at_ns").unwrap_or_else(|e| in_event(e));
        if at < last_at {
            fail(&format!("event {i} at_ns {at} < previous {last_at}"));
        }
        last_at = at;
        let kind = event.str_at("kind").unwrap_or_else(|e| in_event(e));
        if !matches!(kind, "span_begin" | "span_end" | "event" | "match") {
            fail(&format!("event {i}: unknown kind {kind:?}"));
        }
    }
    let metrics = doc
        .get("metrics")
        .unwrap_or_else(|| fail("missing metrics sample"));
    check_sample("metrics", metrics);
    events.len()
}

/// A Prometheus exposition sample line: `name{labels} value` with a
/// `petaxct_`-prefixed metric name and a parseable float value.
fn check_prom_sample_line(lineno: usize, line: &str) {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| fail(&format!("line {lineno}: no value separator: {line:?}")));
    if value.parse::<f64>().is_err() {
        fail(&format!("line {lineno}: value {value:?} is not a number"));
    }
    let name = series.split('{').next().unwrap_or(series);
    if !name.starts_with("petaxct_") {
        fail(&format!(
            "line {lineno}: metric {name:?} lacks petaxct_ prefix"
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        fail(&format!("line {lineno}: invalid metric name {name:?}"));
    }
    if let Some(rest) = series.strip_prefix(name) {
        if !rest.is_empty() {
            let labels = rest
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .unwrap_or_else(|| fail(&format!("line {lineno}: malformed labels: {rest:?}")));
            for label in labels.split(',') {
                let (k, v) = label.split_once('=').unwrap_or_else(|| {
                    fail(&format!("line {lineno}: label without '=': {label:?}"))
                });
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    fail(&format!("line {lineno}: malformed label {label:?}"));
                }
            }
        }
    }
}

/// Prometheus text-format checks: every line is a comment (`# HELP` /
/// `# TYPE`) or a well-formed sample line, every TYPE is a known kind,
/// and each metric's TYPE precedes its samples.
fn check_prom(text: &str) -> usize {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) => {
                    if !name.starts_with("petaxct_") {
                        fail(&format!(
                            "line {lineno}: HELP for non-petaxct metric {name:?}"
                        ));
                    }
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        fail(&format!("line {lineno}: unknown TYPE {kind:?}"));
                    }
                    typed.push(name.to_owned());
                }
                _ => fail(&format!("line {lineno}: malformed comment: {line:?}")),
            }
            continue;
        }
        check_prom_sample_line(lineno, line);
        let name = line.split(['{', ' ']).next().unwrap_or("");
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.iter().any(|t| t == base))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == base) {
            fail(&format!(
                "line {lineno}: sample for untyped metric {name:?}"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        fail("Prometheus file has no sample lines");
    }
    samples
}

/// `petaxct-profile-v1` checks: the typed decoder's structural
/// validation (schema tag, tile table vs declared grid, ascending
/// ranks), a serialize/parse round trip that must reproduce the report,
/// and the cross-table invariants the artifact builder guarantees —
/// drift rows enumerate every component in canonical order, each
/// drift row's measured time equals the sum of that component over the
/// rank table, the skew's max tile cost is the max of the tile table,
/// and every zero-slack rank names a rank that exists. Returns the
/// number of tiles (CI asserts the table is non-trivial).
fn check_profile(text: &str) -> usize {
    let report = ProfileReport::parse(text)
        .unwrap_or_else(|e| fail(&format!("profile does not decode: {e}")));
    let round = ProfileReport::parse(&report.to_json().to_string())
        .unwrap_or_else(|e| fail(&format!("profile does not round-trip: {e}")));
    if round != report {
        fail("profile round trip changed the report");
    }
    if report.drift.len() != COMPONENT_COUNT {
        fail(&format!(
            "drift table has {} rows, want one per component ({COMPONENT_COUNT})",
            report.drift.len()
        ));
    }
    for (row, &component) in report.drift.iter().zip(ALL_COMPONENTS.iter()) {
        if row.component != component {
            fail(&format!(
                "drift rows out of canonical order: found {:?} where {:?} belongs",
                row.component.as_str(),
                component.as_str()
            ));
        }
        let rank_sum: u64 = report.ranks.iter().map(|r| r.component_ns(component)).sum();
        if row.measured_ns != rank_sum {
            fail(&format!(
                "drift row {:?} measures {} ns but the rank table sums to {} ns",
                component.as_str(),
                row.measured_ns,
                rank_sum
            ));
        }
    }
    let max_tile = report.tile_costs_ns.iter().copied().max().unwrap_or(0);
    if report.skew.max_tile_ns != max_tile {
        fail(&format!(
            "skew reports max tile {} ns, tile table maxes at {max_tile} ns",
            report.skew.max_tile_ns
        ));
    }
    if report
        .skew
        .zero_slack_ranks
        .windows(2)
        .any(|w| w[0] >= w[1])
    {
        fail("zero-slack ranks are not strictly ascending");
    }
    let ranks = report.ranks.len() as u32;
    if let Some(&r) = report.skew.zero_slack_ranks.iter().find(|&&r| r >= ranks) {
        fail(&format!(
            "zero-slack rank {r} is outside the {ranks}-rank table"
        ));
    }
    report.tile_costs_ns.len()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .first()
        .unwrap_or_else(|| fail("usage: metrics_check FILE.json [FILE.prom]"));
    let prom_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("{json_path}.prom"));
    let json_text = std::fs::read_to_string(json_path)
        .unwrap_or_else(|e| fail(&format!("reading {json_path}: {e}")));
    let schema = Json::parse(&json_text)
        .ok()
        .and_then(|doc| doc.get("schema").and_then(Json::as_str).map(str::to_owned));
    if schema.as_deref() == Some("petaxct-profile-v1") {
        let tiles = check_profile(&json_text);
        println!("metrics_check: {json_path} ok (petaxct-profile-v1, {tiles} tiles)");
        return;
    }
    if schema.as_deref() == Some("petaxct-flightrec-v1") {
        let records = check_flightrec(&json_text);
        println!("metrics_check: {json_path} ok (petaxct-flightrec-v1, {records} records)");
        return;
    }
    let values = check_json(&json_text);
    let prom_text = std::fs::read_to_string(&prom_path)
        .unwrap_or_else(|e| fail(&format!("reading {prom_path}: {e}")));
    let samples = check_prom(&prom_text);
    println!(
        "metrics_check: {json_path} ok ({values} metric values), {prom_path} ok ({samples} sample lines)"
    );
}
