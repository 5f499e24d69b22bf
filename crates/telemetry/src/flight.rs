//! The flight recorder: a view of each track's log, dumped as
//! `petaxct-flightrec-v1` JSON when a run dies.
//!
//! Post-hoc telemetry needs the run to finish; the flight recorder
//! exists for runs that do not. It keeps no store of its own: a dump
//! takes each track's last [`FLIGHT_CAPACITY`] log records under that
//! track's lock, merges the tracks by time and adds the metric slabs as
//! they stand, so a panic hook or error path can show what each rank
//! was doing in its final moments. Disabled telemetry records nothing
//! and dumps nothing.

use crate::{EdgeRecord, EventRecord, Json, SpanRecord, Telemetry};
use std::path::PathBuf;

/// Records a dump keeps per track. Sized so a dump spans several solver
/// iterations of comm/solver activity per rank.
pub const FLIGHT_CAPACITY: usize = 256;

/// One log record as the flight dump lists it: a span counts twice,
/// once where it opened and once where it closed.
#[derive(Clone, Copy)]
pub(crate) enum Recent<'a> {
    /// A span opened; `code` is the phase name.
    SpanBegin(&'a SpanRecord),
    /// A scalar event; `code` is the event name.
    Event(&'a EventRecord),
    /// A send→recv match; `a` is the sender's track, `b` the payload
    /// bytes.
    Match(&'a EdgeRecord),
    /// A span closed; `code` is the phase name, `a` its duration in ns.
    SpanEnd(&'a SpanRecord),
}

impl Recent<'_> {
    /// When the record happened.
    pub(crate) fn at_ns(self) -> u64 {
        match self {
            Recent::SpanBegin(span) => span.start_ns,
            Recent::Event(event) => event.at_ns,
            Recent::Match(edge) => edge.matched_ns,
            Recent::SpanEnd(span) => span.end_ns,
        }
    }

    /// The dump's record: time, track, kind and code, then the event's
    /// `value` or the two payload words `a` and `b`.
    pub(crate) fn to_json(self) -> Json {
        let words = |a: u64, b: u64| vec![("a", Json::from(a)), ("b", Json::from(b))];
        let (track, kind, code, payload) = match self {
            Recent::SpanBegin(span) => (span.track, "span_begin", span.phase.as_str(), words(0, 0)),
            Recent::Event(event) => (
                event.track,
                "event",
                event.name,
                vec![("value", Json::from(event.value))],
            ),
            Recent::Match(edge) => (
                edge.dst_track,
                "match",
                "comm.match",
                words(u64::from(edge.src_track), edge.bytes),
            ),
            Recent::SpanEnd(span) => (
                span.track,
                "span_end",
                span.phase.as_str(),
                words(span.duration_ns(), 0),
            ),
        };
        let mut fields = vec![
            ("at_ns", Json::from(self.at_ns())),
            ("track", Json::from(u64::from(track))),
            ("kind", Json::from(kind)),
            ("code", Json::from(code)),
        ];
        fields.extend(payload);
        Json::object(fields)
    }
}

/// The `petaxct-flightrec-v1` document. `dropped` is the number of log
/// records older than the window, so readers know whether it is the
/// whole run; `metrics` is the metric slabs at dump time, one
/// `petaxct-metrics-v1` sample.
pub(crate) fn flight_json(
    reason: &str,
    at_ns: u64,
    dropped: u64,
    events: Vec<Json>,
    metrics: Json,
) -> Json {
    Json::object(vec![
        ("schema", Json::from("petaxct-flightrec-v1")),
        ("reason", Json::from(reason)),
        ("dumped_at_ns", Json::from(at_ns)),
        ("dropped", Json::from(dropped)),
        ("events", Json::Arr(events)),
        ("metrics", metrics),
    ])
}

/// Chains a panic hook that writes this handle's flight dump to `path`
/// before the previous hook runs. No-op for a disabled handle. The hook
/// is process-global; install it once, from the top of a run.
pub fn install_flight_panic_hook(telemetry: &Telemetry, path: PathBuf) {
    if !telemetry.is_enabled() {
        return;
    }
    let tele = telemetry.clone();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(json) = tele.flight_dump_json(&format!("panic: {info}")) {
            let _ = std::fs::write(&path, json);
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_json;
    use crate::{Clock, ManualClock, MetricId, Phase, SpanGuard};
    use std::sync::Arc;

    /// The scripted run whose flight dump is pinned: two tracks on a
    /// `ManualClock`, every timestamp distinct within its track, track 0
    /// past the window, one span left open on track 1, events and match
    /// edges, and no metric calls.
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

    fn dump(tele: &Telemetry) -> Json {
        let text = tele.flight_dump_json("scripted").expect("enabled");
        Json::parse(&text).expect("a dump is JSON")
    }

    #[test]
    fn dump_of_a_scripted_run_reproduces_the_ring_it_replaced() {
        // The fixture is the dump this script produced when each track
        // kept a separate 256-record ring for the flight recorder; the
        // view of the log lists the same records.
        let pinned = include_str!("../tests/data/flightrec_scripted_run.json");
        let pinned = Json::parse(pinned).expect("fixture is JSON");
        let (tele, _open) = scripted_run();
        let doc = dump(&tele);
        for field in ["schema", "reason", "dumped_at_ns", "dropped", "events"] {
            assert_eq!(doc.get(field), pinned.get(field), "{field}");
        }
        // Track 0 recorded 360 records, track 1 38: the window holds
        // the last 256 of each, merged by time.
        assert_eq!(doc.u64_at("dropped"), Ok(360 - FLIGHT_CAPACITY as u64));
        let events = doc.array_at("events").expect("events");
        assert_eq!(events.len(), FLIGHT_CAPACITY + 38);
        assert_eq!(
            doc.get("metrics"),
            Some(&sample_json(&tele.metrics_snapshot()))
        );
    }

    #[test]
    fn a_tracks_records_at_one_instant_open_then_happen_then_close() {
        // A clock that never advances: every record on the track ties.
        let tele = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let outer = tele.span(Phase::SolverIteration);
        {
            let _inner = tele.span(Phase::CommWait);
            tele.edge(1, 0, 8, 0, 0);
            tele.event("tick", 1.0);
        }
        drop(outer);
        let _open = tele.span(Phase::Io);
        tele.metric_add(MetricId::CommSendMsgs, 3);
        let doc = dump(&tele);
        let listed: Vec<(&str, &str)> = (doc.array_at("events").expect("events").iter())
            .map(|e| (e.str_at("kind").unwrap(), e.str_at("code").unwrap()))
            .collect();
        assert_eq!(
            listed,
            [
                ("span_begin", "solver.iteration"),
                ("span_begin", "comm.wait"),
                ("span_begin", "io"),
                ("event", "tick"),
                ("match", "comm.match"),
                ("span_end", "comm.wait"),
                ("span_end", "solver.iteration"),
            ]
        );
        // Metric updates are no records: they show in the slabs.
        assert_eq!(doc.u64_at("dropped"), Ok(0));
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(metrics, &sample_json(&tele.metrics_snapshot()));
    }
}
