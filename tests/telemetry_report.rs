//! End-to-end validation of the run document: drive the CLI on a tiny
//! phantom with `reconstruct --report` and `petaxct report --trace`, and
//! check the views — the phase breakdown's coverage, the counters, the
//! per-rank communication matrices in distributed mode, and the Chrome
//! `trace_event` file's structure — computed from the decoded document.

use petaxct::cli::run;
use xct_comm::{CommReport, TrafficClass};
use xct_plan::RunDocument;
use xct_telemetry::{Breakdown, Json};

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("xct_telemetry_report_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

fn run_cmd(parts: &[&str]) -> String {
    let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    run(&args).expect("command succeeds")
}

fn simulate(sino: &str) {
    run_cmd(&[
        "simulate",
        "--phantom",
        "shepp",
        "--out",
        sino,
        "--n",
        "24",
        "--angles",
        "24",
        "--slices",
        "2",
    ]);
}

#[test]
fn cli_emits_breakdown_json_and_trace() {
    let sino = tmp("report_sino.xctd");
    let vol = tmp("report_vol.xctd");
    let json_path = tmp("report.json");
    let trace_path = tmp("report_trace.json");
    simulate(&sino);

    run_cmd(&[
        "reconstruct",
        "--in",
        &sino,
        "--out",
        &vol,
        "--iterations",
        "6",
        "--report",
        &json_path,
    ]);
    let out = run_cmd(&["report", "--in", &json_path, "--trace", &trace_path]);
    // The summary table reaches the user, with the headline columns.
    assert!(out.contains("phase"), "{out}");
    assert!(out.contains("% wall"), "{out}");
    assert!(out.contains("solver.iteration"), "{out}");
    assert!(out.contains("instrumented coverage"), "{out}");
    assert!(
        out.contains(&format!("trace written to {trace_path}")),
        "{out}"
    );

    // The document decodes, and its breakdown is the one printed.
    let text = std::fs::read_to_string(&json_path).expect("report written");
    let doc = RunDocument::parse(&text).expect("report parses");
    assert_eq!(doc.header.command, "reconstruct");
    let breakdown = Breakdown::from_snapshot(&doc.log);
    assert!(out.contains(&breakdown.render_table()), "{out}");
    let wall = breakdown.wall_ns as f64;
    assert!(wall > 0.0);
    // Single-track run under a root `total` span: the instrumented spans
    // must cover at least 95% of the wall time.
    let coverage = breakdown.coverage();
    assert!(coverage >= 0.95, "coverage {coverage}");
    // Per-phase self times partition the covered time: their sum must
    // itself account for >= 95% of the wall.
    assert!(!breakdown.stats.is_empty());
    let self_sum: u64 = breakdown.stats.iter().map(|p| p.self_ns).sum();
    assert!(
        self_sum as f64 >= 0.95 * wall,
        "phase self times {self_sum} vs wall {wall}"
    );
    let names: Vec<&str> = breakdown.stats.iter().map(|p| p.phase.as_str()).collect();
    for expected in ["total", "solver.iteration", "spmm.forward", "io"] {
        assert!(names.contains(&expected), "missing phase {expected}");
    }
    // Counters rode along.
    assert!(doc.counters.kernel_launches > 0);

    // The trace file is valid JSON in Chrome trace_event shape.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let trace = Json::parse(&trace_text).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());
    let mut complete = 0;
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("X") => {
                complete += 1;
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).is_some());
                assert!(e.get("name").and_then(Json::as_str).is_some());
                assert!(e.get("tid").and_then(Json::as_f64).is_some());
            }
            Some("C") => {
                assert!(e.get("args").is_some());
            }
            // Per-track metadata naming the rank lanes.
            Some("M") => {
                let name = e.get("name").and_then(Json::as_str);
                assert!(
                    name == Some("process_name") || name == Some("thread_name"),
                    "metadata event with name {name:?}"
                );
            }
            // Flow arrows for cross-rank match edges (absent in this
            // serial run, but legal trace members).
            Some("s") | Some("f") => {
                assert!(e.get("id").and_then(Json::as_f64).is_some());
            }
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(complete > 0, "trace must contain complete (X) events");
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
}

#[test]
fn distributed_cli_reports_comm_matrices() {
    let sino = tmp("dist_sino.xctd");
    let vol = tmp("dist_vol.xctd");
    let json_path = tmp("dist_report.json");
    simulate(&sino);

    let out = run_cmd(&[
        "reconstruct",
        "--in",
        &sino,
        "--out",
        &vol,
        "--iterations",
        "4",
        "--precision",
        "single",
        "--topology",
        "1x2x2",
        "--report",
        &json_path,
    ]);
    assert!(out.contains("4 simulated ranks"), "{out}");
    let shown = run_cmd(&["report", "--in", &json_path]);
    assert!(
        shown.contains("src\\dst"),
        "comm matrix in the report: {shown}"
    );

    let text = std::fs::read_to_string(&json_path).expect("report written");
    let doc = RunDocument::parse(&text).expect("report parses");
    let comm = CommReport::new(doc.comm);
    let matrix = comm.byte_matrix();
    assert_eq!(matrix.len(), 4, "one row per rank");
    let mut off_diagonal = 0;
    for (src, row) in matrix.iter().enumerate() {
        assert_eq!(row.len(), 4);
        for (dst, &bytes) in row.iter().enumerate() {
            if src == dst {
                assert_eq!(bytes, 0, "no self-traffic on the diagonal");
            } else {
                off_diagonal += bytes;
            }
        }
    }
    assert!(off_diagonal > 0, "ranks must have exchanged bytes");
    // 1-node topology: socket and node reductions carry traffic, the
    // global (internode) level has nowhere to send.
    let levels = comm.level_bytes();
    assert!(levels[TrafficClass::Socket as usize] > 0);
    assert!(levels[TrafficClass::Node as usize] > 0);
    assert_eq!(levels[TrafficClass::Global as usize], 0);
    // Phases from every layer appear in the breakdown.
    let breakdown = Breakdown::from_snapshot(&doc.log);
    let names: Vec<&str> = breakdown.stats.iter().map(|p| p.phase.as_str()).collect();
    for expected in [
        "total",
        "solver.iteration",
        "comm.reduce.socket",
        "comm.reduce.node",
        "comm.halo",
        "comm.allreduce",
    ] {
        assert!(names.contains(&expected), "missing phase {expected}");
    }
}

#[test]
fn telemetry_flags_off_means_no_artifacts_mentioned() {
    let sino = tmp("quiet_sino.xctd");
    let vol = tmp("quiet_vol.xctd");
    simulate(&sino);
    let out = run_cmd(&[
        "reconstruct",
        "--in",
        &sino,
        "--out",
        &vol,
        "--iterations",
        "4",
    ]);
    assert!(!out.contains("% wall"), "{out}");
    assert!(!out.contains("report written"), "{out}");
    assert!(!out.contains("trace written"), "{out}");
}
