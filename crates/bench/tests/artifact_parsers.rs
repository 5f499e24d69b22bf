//! Hostile-input tests for the artifact parsers: the run document
//! ([`RunDocument::parse`]), the metrics series
//! ([`metrics_series_from_json`]), `petaxct-tune-v1`
//! ([`TuneReport::parse`]), `petaxct-bench-v2` ([`BenchReport::parse`])
//! and the [`Json::parse`] they share. A must-reject table pins the
//! documents each parser has to refuse (with the field named), and a
//! seeded mutation test — truncate, flip a byte, replace a number token —
//! asserts that whatever the bytes are, parsing returns `Ok` or `Err` and
//! never panics.

use proptest::prelude::*;
use xct_bench::perf::BenchReport;
use xct_core::{profile_view, rebalance_preview};
use xct_plan::{ProfileReport, RunDocument, TuneReport};
use xct_telemetry::{
    chrome_trace, metrics_series_from_json, metrics_series_json, Breakdown, CausalAnalysis, Json,
    MetricsSnapshot, PhaseHistograms, COMPONENT_COUNT,
};

/// One committed document per schema, as the writers emit them (modulo
/// line breaks).
const RUN: &str = r#"{"schema":"petaxct-run-v1","header":{"command":"reconstruct","topology":"1x1x2",
"precision":"mixed","iterations":4,"plan":{"n":8,"slices":2,"angles":24,"fusing":2,"slabs":1,
"batch":1,"data":2},"options":{"in":"sino.xctd","report":"run.json"}},"reason":null,
"counters":{"flops":1000,"padded_flops":1200,"bytes_read":64,"bytes_written":32,"kernel_launches":2},
"comm":[{"rank":0,"bytes_to":[0,64],"msgs_to":[0,1],"class_bytes":[64,0,0,0,0],"class_msgs":[1,0,0,0,0]},
{"rank":1,"bytes_to":[64,0],"msgs_to":[1,0],"class_bytes":[64,0,0,0,0],"class_msgs":[1,0,0,0,0]}],
"metrics":{"at_ns":90,"tracks":[{"track":0,"counters":{"comm.send.msgs":1},"gauges":{"solver.residual":0.25},
"histograms":[{"metric":"comm.wait.ns","count":1,"min_ns":5,"max_ns":5,"sum_ns":5,"buckets":[{"lo_ns":4,
"hi_ns":8,"count":1}]}]},{"track":1,"counters":{"comm.send.msgs":1},"gauges":{},"histograms":[]}]},
"dropped":0,"log":{"spans":[{"track":0,"phase":"solver.iteration","start_ns":10,"end_ns":30,"parent":null},
{"track":0,"phase":"comm.wait","start_ns":12,"end_ns":17,"parent":0},{"track":1,"phase":"bench.warmup",
"start_ns":15,"end_ns":80,"parent":null}],"events":[{"track":0,"name":"cgls.residual","value":0.25,
"at_ns":29}],"edges":[{"src":1,"dst":0,"tag":"0x55","bytes":64,"sent_ns":11,"matched_ns":17,"wire_ns":0}]},
"tiles":{"tile_size":4,"costs_ns":[0,100,200,300]}}"#;
const METRICS: &str = r#"{"schema":"petaxct-metrics-v1","samples":[{"at_ns":100,"tracks":[{"track":0,
"counters":{"comm.send.msgs":3},"gauges":{"solver.residual":0.5},"histograms":[{"metric":"comm.wait.ns",
"count":2,"min_ns":3,"max_ns":1000,"sum_ns":1003,"buckets":[{"lo_ns":2,"hi_ns":4,"count":1},{"lo_ns":512,
"hi_ns":1024,"count":1}]}]}]},{"at_ns":300,"tracks":[{"track":0,"counters":{"comm.send.msgs":5},
"gauges":{},"histograms":[]},{"track":1,"counters":{"solver.iterations":2},"gauges":{},"histograms":[]}]}]}"#;
const TUNE: &str = r#"{"schema":"petaxct-tune-v1","precision":"half","n":64,"angles":48,"points":[
{"block_size":32,"shared_bytes":4096,"fusing":4,"wall_ns":120000,"flops":9000000},
{"block_size":64,"shared_bytes":8192,"fusing":8,"wall_ns":90000,"flops":9000000}]}"#;
const BENCH: &str = r#"{"schema":"petaxct-bench-v2","scenarios":[{"name":"dist_sync",
"allocations":4271,"flops":123456789,"padded_flops":130000000,"kernel_launches":488,
"kernel_bytes":303472,"comm_bytes":{"socket":1303936},"comm_msgs":{"node":108}}]}"#;

/// Applies each `from => to => names` row of `table` to `doc` (the
/// pattern must be present, so a stale row cannot pass by leaving the
/// document valid) and checks that `parse` refuses the result with an
/// error containing `names`. Lines starting with `#` are comments.
fn must_reject<T: std::fmt::Debug>(
    parse: impl Fn(&str) -> Result<T, String>,
    doc: &str,
    table: &str,
) {
    parse(doc).expect("the unedited document is valid");
    for row in table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let [from, to, names] = row.split(" => ").collect::<Vec<_>>()[..] else {
            panic!("malformed row {row:?}");
        };
        assert!(doc.contains(from), "fixture has no {from:?}");
        let err = parse(&doc.replacen(from, to, 1)).expect_err(row);
        assert!(err.contains(names), "{row}: {err}");
    }
}

/// The metrics series reader over text.
fn parse_series(text: &str) -> Result<Vec<MetricsSnapshot>, String> {
    metrics_series_from_json(&Json::parse(text)?)
}

#[test]
fn run_document_reader_rejects_hostile_documents() {
    let table = r#"
        # A zero factor used to reach Topology::new's assert.
        "1x1x2" => "0x1x2" => 0x1x2
        "1x1x2" => "1x2" => 1x2
        "topology":"1x1x2" => "topology":4 => topology
        # Negative, fractional and huge counts.
        "n":8 => "n":2.5 => "n"
        "slices":2 => "slices":1e300 => slices
        "angles":24 => "angles":9007199254740994 => angles
        # A plan has at least one of each.
        "angles":24 => "angles":0 => zero count
        "fusing":2 => "fusing":0 => zero count
        "data":2 => "data":0 => zero count
        # A plane whose n² cells no count holds.
        "n":8 => "n":134217728 => n² voxels
        "tile_size":4 => "tile_size":"4" => tile_size
        "flops":1000 => "flops":-7 => flops
        "start_ns":10 => "start_ns":0.5 => start_ns
        "dropped":0 => "dropped":-1 => dropped
        # The tile table against the plan's tile grid.
        [0,100,200,300] => [0,100,200] => 3 entries
        "n":8 => "n":12 => 4 entries
        # Ranks and tracks out of order.
        "rank":0, => "rank":1, => out of order
        "track":0,"counters" => "track":2,"counters" => out of order
        # A log whose spans do not nest or end before they start.
        "parent":0 => "parent":1 => parent
        "end_ns":30 => "end_ns":5 => end_ns
        "tag":"0x55" => "tag":"55" => tag
        "value":0.25 => "value":"x" => value
        # Per-rank tables against the traffic classes.
        "class_bytes":[64,0,0,0,0] => "class_bytes":[64,0,0,0] => class_bytes
        "bytes_to":[0,64] => "bytes_to":[0] => bytes_to
        # Histograms whose buckets are no log2 buckets or do not sum.
        "lo_ns":4 => "lo_ns":3 => lower bound
        "count":1,"min_ns" => "count":2,"min_ns" => count
        # Schema tag, missing keys, unknown names.
        petaxct-run-v1 => petaxct-run-v2 => petaxct-run-v2
        "schema": => "scheme": => schema
        "header": => "headers": => header
        "tiles": => "tile": => tiles
        "reason":null => "reason":7 => reason
        "mixed" => "quad" => precision
        "comm.send.msgs":1 => "comm.sent.msgs":1 => comm.sent.msgs
        "metric":"comm.wait.ns" => "metric":"comm.wait" => comm.wait
    "#;
    must_reject(RunDocument::parse, RUN, table);
    // The fixture has a profile, so the mutation test reaches that view.
    let doc = RunDocument::parse(RUN).expect("the fixture reads");
    assert!(ProfileReport::from_document(&doc, [0.0; COMPONENT_COUNT]).is_ok());
}

#[test]
fn a_tile_table_summing_past_u64_reads_and_renders() {
    // 48² tiles of one cell at 2^53 ns, the largest count the reader
    // takes: their sum is past u64::MAX, and no view may wrap or panic.
    let cost = 1u64 << 53;
    let costs = vec![cost.to_string(); 48 * 48].join(",");
    let run = RUN.replacen(r#""n":8"#, r#""n":48"#, 1).replacen(
        r#""tile_size":4,"costs_ns":[0,100,200,300]"#,
        &format!(r#""tile_size":1,"costs_ns":[{costs}]"#),
        1,
    );
    let doc = RunDocument::parse(&run).expect("the document reads");
    let profile = profile_view(&doc).expect("the document has a profile");
    assert_eq!(profile.skew.mean_tile_ns, cost as f64);
    profile.render_text();
    let ideal = u128::from(cost) * 48 * 48 / 2;
    let preview = rebalance_preview(&profile);
    assert!(
        preview.contains(&format!("ideal {ideal}ns/rank")),
        "{preview}"
    );
}

#[test]
fn metrics_series_reader_rejects_hostile_series() {
    let table = r#"
        "at_ns":100 => "at_ns":-100 => at_ns
        "at_ns":300 => "at_ns":50 => after
        "comm.send.msgs":3 => "comm.send.msgs":-3 => comm.send.msgs
        "solver.residual":0.5 => "solver.residual":"x" => solver.residual
        # A gauge among the counters, a counter as a histogram.
        "comm.send.msgs":3 => "solver.residual":3 => no such metric
        "metric":"comm.wait.ns" => "metric":"comm.send.msgs" => no such metric
        "track":1 => "track":0 => out of order
        "count":2 => "count":3 => sum of the buckets
        "lo_ns":2 => "lo_ns":3 => lower bound
        petaxct-metrics-v1 => petaxct-metrics-v2 => petaxct-metrics-v2
        "schema": => "scheme": => schema
        "samples": => "sample": => samples
    "#;
    must_reject(parse_series, METRICS, table);
}

#[test]
fn tune_parser_rejects_hostile_artifacts() {
    let table = r#"
        "n":64 => "n":-64 => "n"
        "angles":48 => "angles":48.5 => angles
        "block_size":32 => "block_size":1e300 => block_size
        "fusing":4 => "fusing":null => fusing
        "wall_ns":120000 => "wall_ns":-1 => wall_ns
        "flops": => "flop": => flops
        "points": => "pints": => points
        petaxct-tune-v1 => petaxct-tune-v0 => petaxct-tune-v0
        "schema": => "scheme": => schema
        "half" => "quarter" => precision
    "#;
    must_reject(TuneReport::parse, TUNE, table);
}

#[test]
fn bench_parser_rejects_hostile_artifacts() {
    let table = r#"
        "allocations":4271 => "allocations":4271.5 => allocations
        "flops":123456789 => "flops":1e300 => flops
        "padded_flops":130000000 => "padded_flops":-1 => padded_flops
        "kernel_launches":488 => "kernel_launches":"488" => kernel_launches
        "kernel_bytes": => "kernel_byte": => kernel_bytes
        "socket":1303936 => "socket":0.25 => socket
        "comm_bytes": => "comm_byte": => comm_bytes
        "node":108 => "node":-108 => node
        "comm_msgs": => "comm_msg": => comm_msgs
        "name":"dist_sync" => "name":7 => name
        "scenarios": => "scenario": => scenarios
        # The wall-time schema is history: its documents are refused.
        petaxct-bench-v2 => petaxct-bench-v1 => petaxct-bench-v1
        "schema": => "scheme": => schema
    "#;
    must_reject(BenchReport::parse, BENCH, table);
}

/// Number tokens a mutation may substitute (comma-separated, the last
/// one empty): counts that are not counts, numbers JSON does not have,
/// and a few that stay valid.
const NUMBERS: &str =
    "-1,2.5,1e300,1e999,-1e999,9007199254740993,18446744073709551616,0,-0,1e-7,00,1e,--1,";

/// One seeded mutation of `doc`: truncate at a byte, flip one bit of a
/// byte, or replace the first number token at or after a byte (wrapping
/// around). Lossy UTF-8 decoding keeps the result a `&str` whatever the
/// flip produced.
fn mutate(doc: &str, kind: u8, at: usize, pick: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = at % bytes.len();
    match kind % 3 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << (pick % 8),
        _ => {
            let number = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
            let start = (at..bytes.len())
                .chain(0..at)
                .find(|&i| bytes[i].is_ascii_digit() && (i == 0 || !number(&bytes[i - 1])))
                .expect("every fixture holds a number");
            let len = bytes[start..].iter().take_while(|b| number(b)).count();
            let token = NUMBERS.split(',').cycle().nth(pick).unwrap_or_default();
            bytes.splice(start..start + len, token.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `parse` on the mutated document returns — `Ok` or `Err`; the harness
/// turns a panic into a failure — and whatever it accepts survives its
/// own writer.
fn survives<T: PartialEq + std::fmt::Debug>(
    parse: impl Fn(&str) -> Result<T, String>,
    write: impl Fn(&T) -> String,
    mutated: &str,
) {
    if let Ok(accepted) = parse(mutated) {
        assert_eq!(parse(&write(&accepted)).as_ref(), Ok(&accepted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn mutated_artifacts_never_panic(kind in 0u8..3, at in 0usize..1 << 20, pick in 0usize..1 << 10) {
        let run = mutate(RUN, kind, at, pick);
        survives(RunDocument::parse, |r| r.to_json().to_string(), &run);
        // Whatever the reader accepts, the views read without panicking.
        if let Ok(doc) = RunDocument::parse(&run) {
            Breakdown::from_snapshot(&doc.log).render_table();
            CausalAnalysis::from_snapshot(&doc.log).render_table();
            PhaseHistograms::from_snapshot(&doc.log).render_table();
            chrome_trace(&doc.log);
            let _ = profile_view(&doc).map(|p| p.render_text() + &rebalance_preview(&p));
        }
        survives(parse_series, |s| metrics_series_json(s).to_string(), &mutate(METRICS, kind, at, pick));
        survives(TuneReport::parse, |r| r.to_json().to_string(), &mutate(TUNE, kind, at, pick));
        survives(BenchReport::parse, |r| r.to_json().to_string(), &mutate(BENCH, kind, at, pick));
        for doc in [RUN, METRICS, TUNE, BENCH] {
            survives(Json::parse, Json::to_string, &mutate(doc, kind, at, pick));
        }
    }
}
