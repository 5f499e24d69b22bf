//! The one recording path (see the crate docs for the three stores).
//!
//! A [`Telemetry`] handle is either *disabled* (the default — every call
//! is a branch on `None`, no locking, no allocation) or *enabled*, in
//! which case it records into its *track*: one log per handle (per rank,
//! in distributed runs) behind one lock that only that rank's thread
//! takes while the run is going. Every recording call reads the clock
//! once and takes that lock once; everything derived is a fold over the
//! [`TelemetrySnapshot`], not a second record.

use crate::flight::{flight_json, FlightEvent, FlightKind, FlightRing};
use crate::metrics::{
    MetricId, MetricsSnapshot, TrackHistograms, TrackMetrics, TrackMetricsSnapshot,
};
use crate::{Clock, MonotonicClock, Phase};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel end time for a span that has not been closed yet.
const OPEN: u64 = u64::MAX;

/// One timed span, closed by the time it appears in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase label.
    pub phase: Phase,
    /// Track (rank) the span was recorded on.
    pub track: u32,
    /// Start time in clock nanoseconds.
    pub start_ns: u64,
    /// End time in clock nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Index into the snapshot's span list of the enclosing span on the
    /// same track, if any.
    pub parent: Option<usize>,
    /// Streamed slab the span closed under
    /// ([`Telemetry::profile_slab_set`]).
    pub slab: u32,
    /// First fused slice the span closed under
    /// ([`Telemetry::profile_slices_set`]).
    pub first_slice: u32,
    /// Number of fused slices the span closed under (at least 1).
    pub slices: u32,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Closes the span at `end_ns` under the given slab and packed
    /// (`first << 32 | count`) slice context.
    fn close(&mut self, end_ns: u64, slab: u32, slice_ctx: u64) {
        self.end_ns = end_ns.max(self.start_ns);
        self.slab = slab;
        self.first_slice = (slice_ctx >> 32) as u32;
        self.slices = slice_ctx as u32;
    }
}

/// One scalar event (e.g. a residual norm) pinned to a point in time.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Event name (e.g. `"cgls.residual"`).
    pub name: &'static str,
    /// Scalar payload.
    pub value: f64,
    /// Track (rank) the event was recorded on.
    pub track: u32,
    /// Timestamp in clock nanoseconds.
    pub at_ns: u64,
}

/// One send→recv match edge between two tracks.
///
/// Recorded by the *receiver* at the instant the runtime matches a
/// message to a posted receive. Together with the per-track span lists
/// these edges define the happens-before DAG consumed by
/// [`crate::CausalAnalysis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Track (rank) of the sender.
    pub src_track: u32,
    /// Track (rank) of the receiver that matched the message.
    pub dst_track: u32,
    /// Message tag (the runtime's match key, minus the source rank).
    pub tag: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Sender's clock at send time, in collector nanoseconds.
    pub sent_ns: u64,
    /// Receiver's clock at match time, in collector nanoseconds.
    pub matched_ns: u64,
    /// Simulated wire cost of the message in nanoseconds (0 when no
    /// wire model applies, e.g. intra-node traffic).
    pub wire_ns: u64,
}

/// What one track records, all of it behind the track's one lock. Log
/// entries carry the collector-wide sequence number they were stamped
/// with, so a snapshot can interleave the tracks back into recording
/// order; `parent` links inside `spans` are indices into this log.
struct TrackLog {
    spans: Vec<(u64, SpanRecord)>,
    events: Vec<(u64, EventRecord)>,
    edges: Vec<(u64, EdgeRecord)>,
    /// Log indices of the currently-open spans, innermost last.
    stack: Vec<usize>,
    hists: TrackHistograms,
    flight: FlightRing,
}

/// One handle's storage, shared between the handle (which records) and
/// the collector's registry (which snapshots).
struct Track {
    id: u32,
    /// Counters and gauges: relaxed atomics, updated without the lock.
    metrics: TrackMetrics,
    /// Current fused-slice range, packed `first << 32 | count` so both
    /// halves change together. Per track because pipelined ranks work
    /// different slices at once.
    slice_ctx: AtomicU64,
    log: Mutex<TrackLog>,
}

struct Collector {
    clock: Arc<dyn Clock>,
    /// Stamped on every span open, event and edge: the order
    /// [`Telemetry::snapshot`] lists the tracks' records in.
    seq: AtomicU64,
    /// Current streamed-slab index. Collector-global: the streaming loop
    /// runs one slab at a time and re-forks rank handles per slab.
    slab_ctx: AtomicU32,
    /// One entry per handle created via `with_clock`/`fork`, in creation
    /// order. Only touched at fork and snapshot time.
    tracks: Mutex<Vec<Arc<Track>>>,
}

impl Collector {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Visits every track's log in registration order, one lock at a
    /// time.
    fn for_each_log(&self, mut visit: impl FnMut(&Track, &TrackLog)) {
        for track in locked(&self.tracks).iter() {
            visit(track, &locked(&track.log));
        }
    }

    /// Every track's retained flight records merged in time order, and
    /// how many were ever pushed.
    fn flight(&self) -> (Vec<FlightEvent>, u64) {
        let (mut events, mut total) = (Vec::new(), 0);
        self.for_each_log(|_, log| {
            events.extend(log.flight.events());
            total += log.flight.total();
        });
        events.sort_by_key(|e| e.at_ns);
        (events, total)
    }
}

struct TrackHandle {
    collector: Arc<Collector>,
    track: Arc<Track>,
}

impl std::fmt::Debug for TrackHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackHandle")
            .field("track", &self.track.id)
            .finish_non_exhaustive()
    }
}

/// Locks a telemetry mutex. Poisoning means another telemetry thread
/// already panicked mid-write; the recording is unrecoverable, so the
/// panic is propagated rather than papered over.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // xct-allow(no-panic): lock poisoning propagates a panic already in flight
    m.lock().unwrap()
}

/// Strips the sequence stamps off merged log entries, in stamp order.
fn in_order<T>(mut entries: Vec<(u64, T)>) -> Vec<T> {
    entries.sort_by_key(|&(seq, _)| seq);
    entries.into_iter().map(|(_, record)| record).collect()
}

impl TrackHandle {
    /// Creates a handle for track `id` and registers its storage with
    /// the collector. Runs at enable/fork time only; the flight ring is
    /// preallocated here.
    fn register(collector: Arc<Collector>, id: u32) -> TrackHandle {
        let track = Arc::new(Track {
            id,
            metrics: TrackMetrics::new(),
            slice_ctx: AtomicU64::new(1),
            log: Mutex::new(TrackLog {
                spans: Vec::new(),
                events: Vec::new(),
                edges: Vec::new(),
                stack: Vec::new(),
                hists: TrackHistograms::default(),
                flight: FlightRing::new(id),
            }),
        });
        locked(&collector.tracks).push(Arc::clone(&track));
        TrackHandle { collector, track }
    }

    /// The one way anything is recorded: reads the clock once, takes the
    /// track lock once, and hands both to `write`.
    fn record<R>(&self, write: impl FnOnce(&mut TrackLog, u64) -> R) -> R {
        let now_ns = self.collector.clock.now_ns();
        write(&mut locked(&self.track.log), now_ns)
    }

    /// Records one flight-only entry (no log storage).
    fn flight_push(&self, kind: FlightKind, code: &'static str, a: u64, b: u64) {
        self.record(|log, at_ns| log.flight.push(at_ns, kind, code, a, b));
    }
}

/// A copy of everything recorded so far.
///
/// Each track's log is copied under its own lock and the copies are
/// interleaved by the collector-wide sequence stamp, so the lists read
/// in recording order across tracks. Open spans are closed at snapshot
/// time (at the current clock and profile context), so `end_ns` is
/// always valid.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All spans, in the order they were opened.
    pub spans: Vec<SpanRecord>,
    /// All events, in the order they were recorded.
    pub events: Vec<EventRecord>,
    /// All send→recv match edges, in the order they were matched.
    pub edges: Vec<EdgeRecord>,
}

impl TelemetrySnapshot {
    /// Per-span *self* time — duration minus the durations of the span's
    /// direct children, saturating at zero — aligned with `spans`.
    ///
    /// Self times are exhaustive and disjoint: summed over every span
    /// they reproduce the root-span total exactly (saturation needs a
    /// child longer than its parent, which only a rewound
    /// [`crate::ManualClock`] produces). The phase breakdown and the cost
    /// profile are both sums of these.
    pub fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(SpanRecord::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent.and_then(|p| self_ns.get_mut(p)) {
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }
}

/// A cloneable tracing handle.
///
/// `Telemetry::default()` / [`Telemetry::disabled`] is a no-op handle:
/// [`Telemetry::span`] and [`Telemetry::event`] cost one `None` check and
/// touch no locks and no heap. [`Telemetry::enabled`] records into a
/// collector shared by all clones and forks of the handle.
///
/// *Clones* share the collector **and** the track — log, nesting stack
/// and all (use within one thread of control); [`Telemetry::fork`] shares
/// the collector but starts a fresh track under a new id (use one fork
/// per rank thread).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<TrackHandle>>,
}

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle on track 0, timed by a [`MonotonicClock`].
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A recording handle on track 0 with an injected clock (see
    /// [`crate::ManualClock`] for deterministic tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let collector = Arc::new(Collector {
            clock,
            seq: AtomicU64::new(0),
            slab_ctx: AtomicU32::new(0),
            tracks: Mutex::new(Vec::new()),
        });
        Telemetry {
            inner: Some(Arc::new(TrackHandle::register(collector, 0))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This handle's track id (0 when disabled).
    pub fn track(&self) -> u32 {
        self.inner.as_ref().map_or(0, |h| h.track.id)
    }

    /// A handle on a new track sharing this handle's collector.
    ///
    /// Spans recorded through the fork nest among themselves but never
    /// under spans of the parent handle — exactly what per-rank threads
    /// need. Forking a disabled handle yields a disabled handle.
    pub fn fork(&self, track: u32) -> Telemetry {
        Telemetry {
            inner: self
                .inner
                .as_ref()
                .map(|h| Arc::new(TrackHandle::register(Arc::clone(&h.collector), track))),
        }
    }

    /// Opens a span; it closes (and records its duration) when the
    /// returned guard drops. Guards must drop in LIFO order per handle.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        let Some(handle) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let index = handle.record(|log, start_ns| {
            let index = log.spans.len();
            let record = SpanRecord {
                phase,
                track: handle.track.id,
                start_ns,
                end_ns: OPEN,
                parent: log.stack.last().copied(),
                slab: 0,
                first_slice: 0,
                slices: 1,
            };
            log.spans.push((handle.collector.next_seq(), record));
            log.stack.push(index);
            log.flight
                .push(start_ns, FlightKind::SpanBegin, phase.as_str(), 0, 0);
            index
        });
        SpanGuard {
            inner: Some((Arc::clone(handle), index)),
        }
    }

    /// The collector clock's current time in nanoseconds, or `None`
    /// when this handle is disabled.
    ///
    /// Senders use this to stamp outgoing messages so the receiver can
    /// record a complete [`EdgeRecord`]; all forks of one handle share
    /// a single clock, so stamps from different tracks are comparable.
    pub fn now_ns(&self) -> Option<u64> {
        self.inner.as_ref().map(|h| h.collector.clock.now_ns())
    }

    /// Records a send→recv match edge observed by this handle's track
    /// (the receiver) at the current clock time.
    ///
    /// `src_track` is the sender's track, `sent_ns` the sender's
    /// [`Telemetry::now_ns`] stamp at send time, and `wire_ns` the
    /// simulated wire cost of the message. No-op when disabled.
    pub fn edge(&self, src_track: u32, tag: u64, bytes: u64, sent_ns: u64, wire_ns: u64) {
        let Some(handle) = &self.inner else { return };
        handle.record(|log, matched_ns| {
            let record = EdgeRecord {
                src_track,
                dst_track: handle.track.id,
                tag,
                bytes,
                sent_ns,
                matched_ns,
                wire_ns,
            };
            log.edges.push((handle.collector.next_seq(), record));
            let src = u64::from(src_track);
            log.flight
                .push(matched_ns, FlightKind::Match, "comm.match", src, bytes);
        });
    }

    /// Records a scalar event at the current time.
    pub fn event(&self, name: &'static str, value: f64) {
        let Some(handle) = &self.inner else { return };
        handle.record(|log, at_ns| {
            let record = EventRecord {
                name,
                value,
                track: handle.track.id,
                at_ns,
            };
            log.events.push((handle.collector.next_seq(), record));
            log.flight
                .push(at_ns, FlightKind::Event, name, value.to_bits(), 0);
        });
    }

    /// Adds `delta` to a counter on this track. One `None` check when
    /// disabled; a relaxed atomic add (plus, for coarse-grained
    /// counters, a flight record) when enabled.
    pub fn metric_add(&self, id: MetricId, delta: u64) {
        let Some(handle) = &self.inner else { return };
        handle.track.metrics.add(id, delta);
        if id.flight_worthy() {
            handle.flight_push(FlightKind::Counter, id.as_str(), delta, 0);
        }
    }

    /// Adds 1 to a counter on this track.
    pub fn metric_inc(&self, id: MetricId) {
        self.metric_add(id, 1);
    }

    /// Sets a gauge on this track.
    pub fn gauge_set(&self, id: MetricId, value: f64) {
        let Some(handle) = &self.inner else { return };
        handle.track.metrics.gauge_set(id, value);
        handle.flight_push(FlightKind::Gauge, id.as_str(), value.to_bits(), 0);
    }

    /// Records a duration into a histogram metric on this track.
    pub fn observe_ns(&self, id: MetricId, ns: u64) {
        let Some(handle) = &self.inner else { return };
        locked(&handle.track.log).hists.observe_ns(id, ns);
    }

    /// Records a free-form flight-recorder marker (no metric storage).
    pub fn flight_point(&self, code: &'static str, a: u64, b: u64) {
        let Some(handle) = &self.inner else { return };
        handle.flight_push(FlightKind::Point, code, a, b);
    }

    /// Sets the collector-global streamed-slab context: spans closing
    /// from now on are stamped with it ([`SpanRecord::slab`]). A relaxed
    /// atomic store; no-op when disabled.
    pub fn profile_slab_set(&self, slab: u32) {
        let Some(handle) = &self.inner else { return };
        handle.collector.slab_ctx.store(slab, Ordering::Relaxed);
    }

    /// Sets this track's fused-slice context to the single slice
    /// `slice`. A relaxed atomic store; no-op when disabled.
    pub fn profile_slice_set(&self, slice: u32) {
        self.profile_slices_set(slice, 1);
    }

    /// Sets this track's context to the `count` fused slices starting at
    /// `first`: a span closing under it (one fused kernel launch working
    /// all of them) is stamped with the range, and
    /// [`crate::ProfileSnapshot`] splits its self time evenly over those
    /// slices.
    pub fn profile_slices_set(&self, first: u32, count: u32) {
        let Some(handle) = &self.inner else { return };
        let packed = u64::from(first) << 32 | u64::from(count.max(1));
        handle.track.slice_ctx.store(packed, Ordering::Relaxed);
    }

    /// A point-in-time copy of every track's touched metrics (empty
    /// when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(handle) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let at_ns = handle.collector.clock.now_ns();
        let mut slabs: Vec<TrackMetricsSnapshot> = Vec::new();
        handle
            .collector
            .for_each_log(|track, log| slabs.push(track.metrics.snapshot(track.id, &log.hists)));
        MetricsSnapshot::assemble(at_ns, slabs)
    }

    /// The retained flight records of every track, merged and ordered
    /// by time (empty when disabled).
    pub fn flight_snapshot(&self) -> Vec<FlightEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |h| h.collector.flight().0)
    }

    /// Serializes the flight recorder into a `petaxct-flightrec-v1`
    /// post-mortem document, or `None` when disabled.
    pub fn flight_dump_json(&self, reason: &str) -> Option<String> {
        let handle = self.inner.as_ref()?;
        let at_ns = handle.collector.clock.now_ns();
        let (events, total) = handle.collector.flight();
        let dropped = total - events.len() as u64;
        Some(flight_json(reason, at_ns, dropped, &events).to_string())
    }

    /// Copies out everything recorded so far, closing still-open spans at
    /// the current time. Returns an empty snapshot when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(handle) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let collector = &handle.collector;
        let now = collector.clock.now_ns();
        let slab = collector.slab_ctx.load(Ordering::Relaxed);
        // (stamp, position in the concatenated logs, record); `parent`
        // is rebased from log index to concatenated position here and
        // to snapshot index once the interleaving is known.
        let mut spans: Vec<(u64, usize, SpanRecord)> = Vec::new();
        let (mut events, mut edges) = (Vec::new(), Vec::new());
        collector.for_each_log(|track, log| {
            let base = spans.len();
            for (at, (seq, span)) in log.spans.iter().enumerate() {
                let mut span = span.clone();
                if span.end_ns == OPEN {
                    span.close(now, slab, track.slice_ctx.load(Ordering::Relaxed));
                }
                span.parent = span.parent.map(|p| base + p);
                spans.push((*seq, base + at, span));
            }
            events.extend(log.events.iter().cloned());
            edges.extend(log.edges.iter().cloned());
        });
        spans.sort_by_key(|&(seq, _, _)| seq);
        let mut index_of = vec![0usize; spans.len()];
        for (index, &(_, position, _)) in spans.iter().enumerate() {
            index_of[position] = index;
        }
        let spans = spans
            .into_iter()
            .map(|(_, _, mut span)| {
                span.parent = span.parent.map(|p| index_of[p]);
                span
            })
            .collect();
        TelemetrySnapshot {
            spans,
            events: in_order(events),
            edges: in_order(edges),
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span's end
/// time on drop. A guard from a disabled handle is inert.
#[derive(Debug)]
#[must_use = "a span guard times the scope it lives in; dropping it immediately records a zero-length span"]
pub struct SpanGuard {
    /// The recording handle and the span's index in its track log.
    inner: Option<(Arc<TrackHandle>, usize)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((handle, index)) = self.inner.take() else {
            return;
        };
        handle.record(|log, end_ns| {
            if let Some(pos) = log.stack.iter().rposition(|&i| i == index) {
                log.stack.remove(pos);
            }
            let Some((_, span)) = log.spans.get_mut(index) else {
                return;
            };
            span.close(
                end_ns,
                handle.collector.slab_ctx.load(Ordering::Relaxed),
                handle.track.slice_ctx.load(Ordering::Relaxed),
            );
            let (phase, duration_ns) = (span.phase, span.duration_ns());
            // comm.wait spans feed the live histogram metric as they
            // close, so the sampler sees the wait distribution mid-run
            // instead of only in the post-hoc span analysis.
            if phase == Phase::CommWait {
                log.hists.observe_ns(MetricId::CommWaitNs, duration_ns);
            }
            log.flight
                .push(end_ns, FlightKind::SpanEnd, phase.as_str(), duration_ns, 0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostComponent, ManualClock, ProfileSnapshot};

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        {
            let _g = tele.span(Phase::SolverIteration);
            tele.event("residual", 1.0);
        }
        let snap = tele.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn manual_clock_gives_exact_durations() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        {
            let _outer = tele.span(Phase::SolverIteration);
            clock.advance(100);
            {
                let _inner = tele.span(Phase::SpmmForward);
                clock.advance(40);
            }
            clock.advance(10);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.phase, Phase::SolverIteration);
        assert_eq!(outer.duration_ns(), 150);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.phase, Phase::SpmmForward);
        assert_eq!(inner.duration_ns(), 40);
        assert_eq!(inner.parent, Some(0));
    }

    #[test]
    fn events_carry_time_and_track() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        clock.advance(5);
        tele.event("cgls.residual", 0.25);
        let snap = tele.snapshot();
        assert_eq!(
            snap.events,
            vec![EventRecord {
                name: "cgls.residual",
                value: 0.25,
                track: 0,
                at_ns: 5,
            }]
        );
    }

    #[test]
    fn forks_nest_independently_but_share_the_collector() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let _root = tele.span(Phase::Total);
        let fork = tele.fork(3);
        assert_eq!(fork.track(), 3);
        {
            let _g = fork.span(Phase::ReduceSocket);
            clock.advance(7);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let forked = &snap.spans[1];
        assert_eq!(forked.track, 3);
        // Fork spans are roots on their own track, not children of the
        // parent handle's open span.
        assert_eq!(forked.parent, None);
        assert_eq!(forked.duration_ns(), 7);
    }

    #[test]
    fn edges_are_recorded_at_match_time_on_the_receiving_track() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let receiver = tele.fork(2);
        clock.set(40);
        let sent_ns = tele.now_ns().expect("enabled handle has a clock");
        clock.set(100);
        receiver.edge(0, 7, 64, sent_ns, 55);
        let snap = tele.snapshot();
        assert_eq!(
            snap.edges,
            vec![EdgeRecord {
                src_track: 0,
                dst_track: 2,
                tag: 7,
                bytes: 64,
                sent_ns: 40,
                matched_ns: 100,
                wire_ns: 55,
            }]
        );
        // Disabled handles record no edges and report no time.
        let off = Telemetry::disabled();
        assert_eq!(off.now_ns(), None);
        off.edge(0, 7, 64, 0, 0);
        assert!(off.snapshot().edges.is_empty());
    }

    #[test]
    fn snapshot_closes_open_spans_at_now() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let _g = tele.span(Phase::Io);
        clock.advance(12);
        let snap = tele.snapshot();
        assert_eq!(snap.spans[0].duration_ns(), 12);
    }

    #[test]
    fn clones_share_one_nesting_stack() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let alias = tele.clone();
        let _outer = tele.span(Phase::SolverIteration);
        {
            let _inner = alias.span(Phase::SpmmForward);
            clock.advance(1);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.spans[1].parent, Some(0));
    }

    #[test]
    fn profile_charges_exact_self_time_per_component() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let rank = tele.fork(1);
        rank.profile_slice_set(1);
        {
            // solver.iteration is orchestration (unattributed); the
            // nested spmm.forward gets 40ns of self time, and the
            // iteration's own 110ns of self time is dropped.
            let _outer = rank.span(Phase::SolverIteration);
            clock.advance(100);
            {
                let _inner = rank.span(Phase::SpmmForward);
                clock.advance(40);
            }
            clock.advance(10);
        }
        tele.profile_slab_set(1);
        {
            let _w = rank.span(Phase::CommWait);
            clock.advance(7);
        }
        let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
        assert_eq!(snap.get(1, 0, 1, CostComponent::SpmmCompute), 40);
        assert_eq!(snap.get(1, 1, 1, CostComponent::CommWait), 7);
        assert_eq!(snap.total_ns(), 47);
        // Extents are inferred; keys outside them read as zero.
        assert_eq!((snap.tracks, snap.slabs, snap.slices), (2, 2, 2));
        assert_eq!(snap.get(9, 0, 0, CostComponent::SpmmCompute), 0);
        assert_eq!(snap.track_component_ns(1, CostComponent::CommWait), 7);
        // Disabled handles have nothing to profile.
        assert!(ProfileSnapshot::from_snapshot(&Telemetry::disabled().snapshot()).is_empty());
    }

    #[test]
    fn fused_slice_range_splits_self_time_with_remainder_on_the_first() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        // One fused launch over slices 1..=4 with a 100 ns child: self
        // time 1003 = 4 x 250 + 3, the remainder lands on slice 1.
        tele.profile_slices_set(1, 4);
        {
            let _launch = tele.span(Phase::SpmmForward);
            clock.advance(500);
            {
                let _convert = tele.span(Phase::PrecisionConvert);
                clock.advance(100);
            }
            clock.advance(503);
        }
        let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
        assert_eq!(snap.get(0, 0, 0, CostComponent::SpmmCompute), 0);
        assert_eq!(snap.get(0, 0, 1, CostComponent::SpmmCompute), 253);
        for slice in 2..5 {
            assert_eq!(snap.get(0, 0, slice, CostComponent::SpmmCompute), 250);
        }
        assert_eq!(snap.component_ns(CostComponent::SpmmCompute), 1003);
        assert_eq!(snap.component_ns(CostComponent::GatherConvert), 100);
        // Back to a single slice: the whole self time goes to it.
        tele.profile_slice_set(0);
        {
            let _wait = tele.span(Phase::CommWait);
            clock.advance(7);
        }
        let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
        assert_eq!(snap.get(0, 0, 0, CostComponent::CommWait), 7);
    }

    #[test]
    fn nested_same_phase_spans_do_not_double_charge() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        {
            let _outer = tele.span(Phase::ReduceGlobal);
            clock.advance(5);
            {
                let _inner = tele.span(Phase::ReduceGlobal);
                clock.advance(3);
            }
            clock.advance(2);
        }
        let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
        // 3 (inner) + 7 (outer self) = total 10, not 13.
        assert_eq!(snap.get(0, 0, 0, CostComponent::ReduceGlobal), 10);
    }

    #[test]
    fn snapshot_interleaves_tracks_in_recording_order_under_clock_ties() {
        // A ManualClock that never advances: only the sequence stamp can
        // order the tracks' records.
        let tele = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let (a, b) = (tele.fork(1), tele.fork(2));
        let _root = tele.span(Phase::Total);
        let _a0 = a.span(Phase::SolverIteration);
        let _b0 = b.span(Phase::SolverIteration);
        b.event("tick", 2.0);
        let _a1 = a.span(Phase::SpmmForward);
        a.event("tick", 1.0);
        b.edge(1, 7, 8, 0, 0);
        a.edge(2, 7, 8, 0, 0);
        let _b1 = b.span(Phase::ReduceSocket);
        let snap = tele.snapshot();
        let opened: Vec<(u32, Phase, Option<usize>)> = snap
            .spans
            .iter()
            .map(|s| (s.track, s.phase, s.parent))
            .collect();
        assert_eq!(
            opened,
            vec![
                (0, Phase::Total, None),
                (1, Phase::SolverIteration, None),
                (2, Phase::SolverIteration, None),
                (1, Phase::SpmmForward, Some(1)),
                (2, Phase::ReduceSocket, Some(2)),
            ]
        );
        let ticks: Vec<u32> = snap.events.iter().map(|e| e.track).collect();
        assert_eq!(ticks, vec![2, 1]);
        let matched: Vec<u32> = snap.edges.iter().map(|e| e.dst_track).collect();
        assert_eq!(matched, vec![2, 1]);
    }

    #[test]
    fn sampled_wait_histograms_are_never_torn() {
        // One track records comm waits (span closes and direct
        // observations) while a second thread samples: count, sum and
        // buckets of every sample must describe the same recordings.
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let rank = tele.fork(1);
        const WAITS: u64 = 20_000;
        std::thread::scope(|scope| {
            let recorder = scope.spawn(move || {
                for i in 0..WAITS {
                    if i % 2 == 0 {
                        let _wait = rank.span(Phase::CommWait);
                        clock.advance(3);
                    } else {
                        rank.observe_ns(MetricId::CommWaitNs, 3);
                    }
                }
            });
            let mut seen = 0;
            while !recorder.is_finished() || seen < WAITS {
                let snap = tele.metrics_snapshot();
                let track = snap.track(1);
                let Some(hist) = track.and_then(|t| t.histogram(MetricId::CommWaitNs)) else {
                    continue;
                };
                let in_buckets: u64 = hist.buckets().iter().map(|&(_, _, n)| n).sum();
                assert_eq!(hist.count(), in_buckets);
                assert_eq!(hist.sum_ns(), 3 * hist.count());
                assert!(hist.count() >= seen, "histograms only grow");
                seen = hist.count();
            }
            assert_eq!(seen, WAITS);
        });
    }

    #[test]
    fn concurrent_rank_tracks_do_not_corrupt_each_other() {
        let tele = Telemetry::enabled();
        std::thread::scope(|scope| {
            for rank in 0..4u32 {
                let fork = tele.fork(rank);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _outer = fork.span(Phase::SolverIteration);
                        let _inner = fork.span(Phase::SpmmForward);
                        fork.event("tick", f64::from(rank));
                    }
                });
            }
        });
        let snap = tele.snapshot();
        assert_eq!(snap.spans.len(), 4 * 50 * 2);
        assert_eq!(snap.events.len(), 4 * 50);
        // Per track the snapshot keeps open order — outer, inner, outer,
        // … — and every inner span's remapped parent is the outer span
        // its own track opened just before it.
        let mut outer = [None; 4];
        let mut opened = [0; 4];
        for (index, span) in snap.spans.iter().enumerate() {
            let track = span.track as usize;
            if opened[track] % 2 == 0 {
                assert_eq!((span.phase, span.parent), (Phase::SolverIteration, None));
                outer[track] = Some(index);
            } else {
                assert_eq!(
                    (span.phase, span.parent),
                    (Phase::SpmmForward, outer[track])
                );
                let parent = &snap.spans[outer[track].expect("outer opened first")];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            }
            opened[track] += 1;
        }
        assert_eq!(opened, [100; 4]);
        let roots = snap.spans.iter().filter(|s| s.parent.is_none());
        let roots: u64 = roots.map(SpanRecord::duration_ns).sum();
        assert_eq!(snap.self_times().iter().sum::<u64>(), roots);
    }
}
