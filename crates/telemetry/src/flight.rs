//! The flight recorder: a fixed-capacity per-track ring of recent
//! spans, events, and metric updates, dumped as `petaxct-flightrec-v1`
//! JSON when a run dies.
//!
//! Post-hoc telemetry needs the run to finish; the flight recorder
//! exists for runs that do not. Every enabled track keeps the last
//! [`FLIGHT_CAPACITY`] records in a preallocated ring — recording is a
//! short uncontended lock plus a fixed-size store, never an allocation —
//! and a panic hook or error path can serialize the merged rings into a
//! post-mortem that shows what each rank was doing in its final
//! moments. Disabled telemetry records nothing and dumps nothing.

use crate::{Json, Telemetry};
use std::path::PathBuf;

/// Records retained per track. Sized so a dump spans several solver
/// iterations of comm/solver activity per rank while the whole recorder
/// stays a few tens of kilobytes per track.
pub const FLIGHT_CAPACITY: usize = 256;

/// What a flight record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlightKind {
    /// A span opened; `code` is the phase name.
    SpanBegin,
    /// A span closed; `code` is the phase name, `a` its duration in ns.
    SpanEnd,
    /// A scalar event; `code` is the event name, `a` the value's f64
    /// bits.
    Event,
    /// A gauge write; `code` is the metric name, `a` the value's f64
    /// bits.
    Gauge,
    /// A counter increment; `code` is the metric name, `a` the delta.
    Counter,
    /// A send→recv match observed by the receiver; `a` is the sender's
    /// track, `b` the payload bytes.
    Match,
    /// A free-form marker from an instrumentation site; `a`/`b` are
    /// site-defined.
    Point,
}

impl FlightKind {
    /// Stable name used in the dump schema.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanBegin => "span_begin",
            FlightKind::SpanEnd => "span_end",
            FlightKind::Event => "event",
            FlightKind::Gauge => "gauge",
            FlightKind::Counter => "counter",
            FlightKind::Match => "match",
            FlightKind::Point => "point",
        }
    }
}

/// One fixed-size flight record. `&'static str` codes keep recording
/// allocation-free; the interpretation of `a`/`b` depends on `kind`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Collector clock time of the record.
    pub at_ns: u64,
    /// Track (rank) that recorded it.
    pub track: u32,
    /// Record type.
    pub kind: FlightKind,
    /// Phase, metric, or site name.
    pub code: &'static str,
    /// First payload word (see [`FlightKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// One track's preallocated overwrite-oldest ring of [`FlightEvent`]s.
#[derive(Debug)]
pub(crate) struct FlightRing {
    track: u32,
    buf: Vec<FlightEvent>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Records ever pushed (so dumps can report how many were dropped).
    total: u64,
}

impl FlightRing {
    pub(crate) fn new(track: u32) -> Self {
        FlightRing {
            track,
            buf: Vec::with_capacity(FLIGHT_CAPACITY),
            next: 0,
            total: 0,
        }
    }

    /// Pushes a record, overwriting the oldest once full. Never
    /// allocates: capacity is reserved up front.
    pub(crate) fn push(
        &mut self,
        at_ns: u64,
        kind: FlightKind,
        code: &'static str,
        a: u64,
        b: u64,
    ) {
        let event = FlightEvent {
            at_ns,
            track: self.track,
            kind,
            code,
            a,
            b,
        };
        if self.buf.len() < FLIGHT_CAPACITY {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % FLIGHT_CAPACITY;
        }
        self.total += 1;
    }

    /// Records ever pushed, including overwritten ones.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Retained records, oldest first.
    pub(crate) fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// Serializes merged flight events into the `petaxct-flightrec-v1`
/// document. `dropped` is the number of records lost to ring overwrite
/// across all tracks, so readers know whether the window is complete.
/// Gauge and event records carry an f64 as raw bits in `a`; the dump
/// decodes them to a `value` field so JSON numbers stay exact.
pub fn flight_json(reason: &str, at_ns: u64, dropped: u64, events: &[FlightEvent]) -> Json {
    Json::object(vec![
        ("schema", Json::from("petaxct-flightrec-v1")),
        ("reason", Json::from(reason)),
        ("dumped_at_ns", Json::from(at_ns)),
        ("dropped", Json::from(dropped)),
        (
            "events",
            Json::Arr(
                events
                    .iter()
                    .map(|e| {
                        let mut fields = vec![
                            ("at_ns", Json::from(e.at_ns)),
                            ("track", Json::from(u64::from(e.track))),
                            ("kind", Json::from(e.kind.as_str())),
                            ("code", Json::from(e.code)),
                        ];
                        match e.kind {
                            FlightKind::Gauge | FlightKind::Event => {
                                fields.push(("value", Json::from(f64::from_bits(e.a))));
                            }
                            _ => {
                                fields.push(("a", Json::from(e.a)));
                                fields.push(("b", Json::from(e.b)));
                            }
                        }
                        Json::object(fields)
                    })
                    .collect(),
            ),
        ),
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

    fn ev(at_ns: u64) -> FlightEvent {
        FlightEvent {
            at_ns,
            track: 0,
            kind: FlightKind::Point,
            code: "test",
            a: at_ns,
            b: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_total() {
        let mut ring = FlightRing::new(0);
        let n = FLIGHT_CAPACITY as u64 + 10;
        for i in 0..n {
            ring.push(i, FlightKind::Point, "test", i, 0);
        }
        assert_eq!(ring.total(), n);
        let events = ring.events();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events.first().unwrap().at_ns, 10, "oldest 10 overwritten");
        assert_eq!(events.last().unwrap().at_ns, n - 1);
        // Strictly ordered: the rotation restored push order.
        assert!(events.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
    }

    #[test]
    fn dump_schema_round_trips() {
        let events = [ev(1), ev(2)];
        let json = flight_json("test reason", 99, 0, &events);
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("petaxct-flightrec-v1")
        );
        assert_eq!(
            parsed.get("reason").and_then(Json::as_str),
            Some("test reason")
        );
        assert_eq!(
            parsed.get("dumped_at_ns").and_then(Json::as_f64),
            Some(99.0)
        );
        let arr = parsed
            .get("events")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("kind").and_then(Json::as_str), Some("point"));
        assert_eq!(arr[1].get("at_ns").and_then(Json::as_f64), Some(2.0));
    }
}
