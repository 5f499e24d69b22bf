//! The run document on a scripted two-track `ManualClock` run: written
//! and read back, a finished run gives the snapshot it recorded field by
//! field, its views are the bytes the retired per-view writers printed,
//! and a stopped run keeps every value the retired flight dump of the
//! same script held. The stopped run's document is pinned byte for byte.

use std::sync::Arc;
use xct_comm::Topology;
use xct_fp16::Precision;
use xct_plan::{RunDocument, RunHeader};
use xct_telemetry::{
    chrome_trace, Breakdown, CausalAnalysis, Clock, Json, ManualClock, Phase, PhaseHistograms,
    SpanGuard, Telemetry, FLIGHT_CAPACITY,
};

/// Two tracks on a `ManualClock`, every timestamp distinct within its
/// track, track 0 past the window, one span left open on track 1,
/// events and match edges, and no metric calls.
fn scripted_run() -> (Telemetry, SpanGuard) {
    let clock = ManualClock::new();
    let tele = Telemetry::with_clock(Arc::new(clock.clone()));
    let peer = tele.fork(1);
    for i in 0..60u64 {
        let sent_ns = clock.now_ns();
        let iteration = tele.span(Phase::SolverIteration);
        clock.advance(3);
        // Every fifth iteration the peer opens, matches and closes at
        // the instants track 0 does: cross-track ties.
        let wait = tele.span(Phase::CommWait);
        let reduce = (i % 5 == 0).then(|| peer.span(Phase::ReduceSocket));
        clock.advance(2);
        tele.edge(1, i, 32 * (i + 1), sent_ns, 0);
        if reduce.is_some() {
            peer.edge(0, i, 64, sent_ns, 10);
        }
        clock.advance(4);
        drop(wait);
        drop(reduce);
        clock.advance(1);
        #[allow(clippy::cast_precision_loss)]
        tele.event("cgls.residual", 1.0 / (i + 1) as f64);
        clock.advance(1);
        drop(iteration);
        clock.advance(7);
    }
    let open = peer.span(Phase::Io);
    clock.advance(2);
    peer.event("io.queued", 2.0);
    clock.advance(5);
    (tele, open)
}

fn header() -> RunHeader {
    RunHeader {
        topology: Some(Topology::new(1, 1, 2)),
        precision: Some(Precision::Single),
        iterations: Some(60),
        ..RunHeader::new("scripted", vec![("iterations".into(), "60".into())])
    }
}

/// Writes `doc` and reads it back.
fn round_trip(doc: &RunDocument) -> RunDocument {
    RunDocument::parse(&doc.to_json().to_string()).expect("the writer's output reads back")
}

/// FNV-1a 64 of a view's text.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_finished_run_reads_back_field_by_field_and_its_views_are_unchanged() {
    let (tele, _open) = scripted_run();
    let doc = RunDocument::capture(header(), &tele, None);
    let back = round_trip(&doc);
    assert_eq!(back, doc);
    assert_eq!(back.log, tele.snapshot());
    assert_eq!((back.log.spans.len(), back.log.edges.len()), (133, 72));
    assert_eq!(back.dropped, 0);

    // What the retired `--telemetry-summary`, `--critical-path` and
    // `--trace` printed for this script, computed from the document.
    let log = &back.log;
    assert_eq!(Breakdown::from_snapshot(log).render_table(), BREAKDOWN);
    assert_eq!(
        CausalAnalysis::from_snapshot(log).render_table(),
        CRITICAL_PATH
    );
    assert_eq!(
        PhaseHistograms::from_snapshot(log).render_table(),
        HISTOGRAMS
    );
    let trace = chrome_trace(log);
    assert_eq!((trace.len(), fnv(&trace)), (32976, 0x5235_675a_4652_8b29));
}

#[test]
fn a_stopped_run_keeps_every_value_of_the_retired_flight_dump() {
    let (tele, _open) = scripted_run();
    let doc = round_trip(&RunDocument::capture(
        header(),
        &tele,
        Some("scripted".into()),
    ));
    // The document, byte for byte.
    let pinned = include_str!("data/scripted_run.json");
    assert_eq!(doc.to_json().to_string(), pinned.trim_end());

    // The dump this script produced before the run document: its
    // reason, time and window, and every record it listed.
    let dump = Json::parse(include_str!("data/flight_records.json")).expect("fixture is JSON");
    assert_eq!(doc.reason.as_deref(), dump.str_at("reason").ok());
    assert_eq!(Ok(doc.metrics.at_ns), dump.u64_at("dumped_at_ns"));
    assert_eq!(Ok(doc.dropped), dump.u64_at("dropped"));
    assert_eq!(doc.dropped, 360 - FLIGHT_CAPACITY as u64);
    assert_eq!(doc.metrics, tele.metrics_snapshot());
    let records = dump.array_at("events").expect("records");
    assert_eq!(records.len(), FLIGHT_CAPACITY + 38);
    let log = &doc.log;
    for record in records {
        let field = |key| record.u64_at(key).expect("a count");
        let (at, track, code) = (field("at_ns"), field("track") as u32, record.str_at("code"));
        let code = code.expect("a code");
        let span = |s: &&xct_telemetry::SpanRecord| s.track == track && s.phase.as_str() == code;
        let held = match record.str_at("kind").expect("a kind") {
            "span_begin" => log.spans.iter().filter(span).any(|s| s.start_ns == at),
            "span_end" => (log.spans.iter().filter(span))
                .any(|s| s.end_ns == at && s.duration_ns() == field("a")),
            "event" => log.events.iter().any(|e| {
                (e.track, e.name, e.at_ns) == (track, code, at)
                    && Ok(e.value) == record.f64_at("value")
            }),
            "match" => log.edges.iter().any(|e| {
                (e.dst_track, e.matched_ns, u64::from(e.src_track), e.bytes)
                    == (track, at, field("a"), field("b"))
            }),
            kind => panic!("unknown record kind {kind}"),
        };
        assert!(held, "the document lost {record}");
    }
}

/// The retired `--telemetry-summary` table of the script.
const BREAKDOWN: &str = "\
phase                    count        total         self   % wall
comm.wait                   60       360 ns       360 ns    33.1%
solver.iteration            60       660 ns       300 ns    27.6%
comm.reduce.socket          12        72 ns        72 ns     6.6%
io                           1         7 ns         7 ns     0.6%
wall   1.087 µs · instrumented coverage 68.0%
";

/// The retired `--critical-path` table of the script.
const CRITICAL_PATH: &str = "\
critical path 660 ns · wire on path 0 ns · 1 step(s)
rank         busy    on path      slack  % path
0          660 ns     660 ns       0 ns  100.0% *
1           79 ns       0 ns       2 ns    0.0%
(* = zero slack: the rank bounds end-to-end time)
";

/// The retired `--critical-path` histograms of the script.
const HISTOGRAMS: &str = "\
phase duration histograms (log2 buckets)
solver.iteration       n=60     min 11 ns · max 11 ns
  [      8 ns,      16 ns)     60 ################################
comm.wait              n=60     min 6 ns · max 6 ns
  [      4 ns,       8 ns)     60 ################################
comm.reduce.socket     n=12     min 6 ns · max 6 ns
  [      4 ns,       8 ns)     12 ################################
io                     n=1      min 7 ns · max 7 ns
  [      4 ns,       8 ns)      1 ################################
";
