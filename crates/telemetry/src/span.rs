//! The one recording path (see the crate docs for the two stores).
//!
//! A [`Telemetry`] handle is either *disabled* (the default — every call
//! is a branch on `None`, no locking, no allocation) or *enabled*, in
//! which case it records into its *track*: one log per handle (per rank,
//! in distributed runs) behind one lock that only that rank's thread
//! takes while the run is going. Every recording call reads the clock
//! once and takes that lock once, and touches no other shared state;
//! everything derived is a fold over the [`TelemetrySnapshot`], not a
//! second record.

use crate::flight::{flight_json, Recent};
use crate::metrics::{
    MetricId, MetricsSnapshot, TrackHistograms, TrackMetrics, TrackMetricsSnapshot,
};
use crate::sampler::sample_json;
use crate::{Clock, Json, MonotonicClock, Phase, FLIGHT_CAPACITY};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
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

/// What one track records, all of it behind the track's one lock, in
/// the order the track recorded it; `parent` links inside `spans` are
/// indices into this log.
struct TrackLog {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    edges: Vec<EdgeRecord>,
    /// Log indices of the currently-open spans, innermost last.
    stack: Vec<usize>,
    /// Log indices of the closed spans, in the order they closed.
    closed: Vec<usize>,
    hists: TrackHistograms,
}

impl TrackLog {
    /// Records in the log; a closed span counts twice, as it opened and
    /// as it closed.
    fn len(&self) -> usize {
        self.spans.len() + self.events.len() + self.edges.len() + self.closed.len()
    }

    /// The last [`FLIGHT_CAPACITY`] records, oldest first, each with
    /// its time and encoded for the flight dump. Each kind of record is
    /// kept in the order the track recorded it, and the kinds are merged
    /// by time; at one instant a track lists the spans it opened, then
    /// its events, then its match edges, then the spans it closed. Only
    /// the window's records are encoded.
    fn recent(&self) -> Vec<(u64, Json)> {
        fn tail<T>(records: &[T]) -> &[T] {
            &records[records.len().saturating_sub(FLIGHT_CAPACITY)..]
        }
        let closed = tail(&self.closed).iter().filter_map(|&i| self.spans.get(i));
        let kinds = vec![
            tail(&self.spans).iter().map(Recent::SpanBegin).collect(),
            tail(&self.events).iter().map(Recent::Event).collect(),
            tail(&self.edges).iter().map(Recent::Match).collect(),
            closed.map(Recent::SpanEnd).collect(),
        ];
        let merged = merge_by_time(kinds, |record| record.at_ns());
        let older = merged.len().saturating_sub(FLIGHT_CAPACITY);
        (merged.into_iter().skip(older))
            .map(|(_, record)| (record.at_ns(), record.to_json()))
            .collect()
    }
}

/// One handle's storage, shared between the handle (which records) and
/// the collector's registry (which snapshots).
struct Track {
    id: u32,
    /// Counters and gauges: relaxed atomics, updated without the lock.
    metrics: TrackMetrics,
    log: Mutex<TrackLog>,
}

struct Collector {
    clock: Arc<dyn Clock>,
    /// One entry per handle created via `with_clock`/`fork`, in creation
    /// order. Only touched at fork and snapshot time.
    tracks: Mutex<Vec<Arc<Track>>>,
}

impl Collector {
    /// Visits every track's log in registration order, one lock at a
    /// time.
    fn for_each_log(&self, mut visit: impl FnMut(&Track, &TrackLog)) {
        for track in locked(&self.tracks).iter() {
            visit(track, &locked(&track.log));
        }
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

/// Merges per-track record lists into one by `time`, each record
/// tagged with the index of the list it came from. Ties go to the
/// earlier list (the track registered first), and each list keeps its
/// own order even where its times run backwards (a rewound
/// [`crate::ManualClock`]): the merge only ever compares list heads.
fn merge_by_time<T>(lists: Vec<Vec<T>>, time: impl Fn(&T) -> u64) -> Vec<(usize, T)> {
    let mut lists: Vec<VecDeque<T>> = lists.into_iter().map(VecDeque::from).collect();
    let mut heads: BinaryHeap<_> = (lists.iter().enumerate())
        .filter_map(|(list, records)| Some(Reverse((time(records.front()?), list))))
        .collect();
    let mut merged = Vec::with_capacity(lists.iter().map(VecDeque::len).sum());
    while let Some(Reverse((_, list))) = heads.pop() {
        let records = &mut lists[list];
        merged.extend(records.pop_front().map(|record| (list, record)));
        if let Some(next) = records.front() {
            heads.push(Reverse((time(next), list)));
        }
    }
    merged
}

impl TrackHandle {
    /// Creates a handle for track `id` and registers its storage with
    /// the collector. Runs at enable/fork time only.
    fn register(collector: Arc<Collector>, id: u32) -> TrackHandle {
        let track = Arc::new(Track {
            id,
            metrics: TrackMetrics::new(),
            log: Mutex::new(TrackLog {
                spans: Vec::new(),
                events: Vec::new(),
                edges: Vec::new(),
                stack: Vec::new(),
                closed: Vec::new(),
                hists: TrackHistograms::default(),
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
}

/// A copy of everything recorded so far.
///
/// Each track's log is copied under its own lock and the copies are
/// merged by timestamp: ties go to the track registered first, and each
/// track's records keep the order the track recorded them in. Open
/// spans are closed at snapshot time (at the current clock), so
/// `end_ns` is always valid.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All spans, merged by `start_ns`; each track's in opening order.
    pub spans: Vec<SpanRecord>,
    /// All events, merged by `at_ns`; each track's in recording order.
    pub events: Vec<EventRecord>,
    /// All send→recv match edges, merged by `matched_ns`; each track's
    /// in matching order.
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
            };
            log.spans.push(record);
            log.stack.push(index);
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
            log.edges.push(record);
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
            log.events.push(record);
        });
    }

    /// Adds `delta` to a counter on this track. One `None` check when
    /// disabled; one relaxed atomic add, and no lock, when enabled.
    pub fn metric_add(&self, id: MetricId, delta: u64) {
        let Some(handle) = &self.inner else { return };
        handle.track.metrics.add(id, delta);
    }

    /// Adds 1 to a counter on this track.
    pub fn metric_inc(&self, id: MetricId) {
        self.metric_add(id, 1);
    }

    /// Sets a gauge on this track: one relaxed atomic store, and no
    /// lock, when enabled.
    pub fn gauge_set(&self, id: MetricId, value: f64) {
        let Some(handle) = &self.inner else { return };
        handle.track.metrics.gauge_set(id, value);
    }

    /// Records a duration into a histogram metric on this track.
    pub fn observe_ns(&self, id: MetricId, ns: u64) {
        let Some(handle) = &self.inner else { return };
        locked(&handle.track.log).hists.observe_ns(id, ns);
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

    /// Serializes the flight recorder into a `petaxct-flightrec-v1`
    /// post-mortem document, or `None` when disabled: each track's last
    /// [`FLIGHT_CAPACITY`] log records, copied under that track's lock
    /// and merged by time (ties to the track registered first), and the
    /// metric slabs as they stand.
    pub fn flight_dump_json(&self, reason: &str) -> Option<String> {
        let handle = self.inner.as_ref()?;
        let at_ns = handle.collector.clock.now_ns();
        let (mut windows, mut dropped) = (Vec::new(), 0);
        handle.collector.for_each_log(|_, log| {
            let window = log.recent();
            dropped += log.len() - window.len();
            windows.push(window);
        });
        let events = merge_by_time(windows, |&(at_ns, _)| at_ns);
        let events = events.into_iter().map(|(_, (_, json))| json).collect();
        let metrics = sample_json(&self.metrics_snapshot());
        Some(flight_json(reason, at_ns, dropped as u64, events, metrics).to_string())
    }

    /// Copies out everything recorded so far, closing still-open spans at
    /// the current time. Returns an empty snapshot when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(handle) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let collector = &handle.collector;
        let now = collector.clock.now_ns();
        let (mut spans, mut events, mut edges) = (Vec::new(), Vec::new(), Vec::new());
        collector.for_each_log(|_, log| {
            let mut track_spans = log.spans.clone();
            for span in track_spans.iter_mut().filter(|s| s.end_ns == OPEN) {
                span.end_ns = now.max(span.start_ns);
            }
            spans.push(track_spans);
            events.push(log.events.clone());
            edges.push(log.edges.clone());
        });
        // A span's parent opened before it on the same track, so it is
        // already placed when the span is: `placed[track][i]` is the
        // snapshot index of that track's `i`-th span.
        let mut placed = vec![Vec::new(); spans.len()];
        let spans = merge_by_time(spans, |s| s.start_ns)
            .into_iter()
            .enumerate()
            .map(|(index, (track, mut span))| {
                let track = &mut placed[track];
                span.parent = span.parent.map(|p| track[p]);
                track.push(index);
                span
            })
            .collect();
        let events = merge_by_time(events, |e| e.at_ns);
        let edges = merge_by_time(edges, |e| e.matched_ns);
        TelemetrySnapshot {
            spans,
            events: events.into_iter().map(|(_, event)| event).collect(),
            edges: edges.into_iter().map(|(_, edge)| edge).collect(),
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
            let Some(span) = log.spans.get_mut(index) else {
                return;
            };
            span.end_ns = end_ns.max(span.start_ns);
            // comm.wait spans feed the live histogram metric as they
            // close, so the sampler sees the wait distribution mid-run
            // instead of only in the post-hoc span analysis.
            if span.phase == Phase::CommWait {
                log.hists
                    .observe_ns(MetricId::CommWaitNs, span.duration_ns());
            }
            log.closed.push(index);
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
        {
            let _w = rank.span(Phase::CommWait);
            clock.advance(7);
        }
        let snap = ProfileSnapshot::from_snapshot(&tele.snapshot());
        assert_eq!(snap.track_component_ns(1, CostComponent::SpmmCompute), 40);
        assert_eq!(snap.track_component_ns(1, CostComponent::CommWait), 7);
        assert_eq!(snap.component_ns(CostComponent::CommWait), 7);
        assert_eq!(snap.total_ns(), 47);
        // One row per track up to the highest that charged anything;
        // tracks past it read as zero.
        assert_eq!(snap.tracks.len(), 2);
        assert_eq!(snap.track_component_ns(0, CostComponent::SpmmCompute), 0);
        assert_eq!(snap.track_component_ns(9, CostComponent::SpmmCompute), 0);
        // Disabled handles have nothing to profile.
        assert!(ProfileSnapshot::from_snapshot(&Telemetry::disabled().snapshot()).is_empty());
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
        assert_eq!(snap.track_component_ns(0, CostComponent::ReduceGlobal), 10);
    }

    #[test]
    fn snapshot_merges_tracks_by_time_with_ties_to_the_first_registered() {
        // A ManualClock that never advances: every record ties, so the
        // tracks come out whole, in registration order, each in the
        // order it recorded — however the calls interleaved.
        let tele = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let (a, b) = (tele.fork(1), tele.fork(2));
        let _b0 = b.span(Phase::SolverIteration);
        let _a0 = a.span(Phase::SolverIteration);
        b.event("tick", 2.0);
        let _b1 = b.span(Phase::ReduceSocket);
        a.event("tick", 1.0);
        b.edge(1, 7, 8, 0, 0);
        a.edge(2, 7, 8, 0, 0);
        let _a1 = a.span(Phase::SpmmForward);
        let _root = tele.span(Phase::Total);
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
                (1, Phase::SpmmForward, Some(1)),
                (2, Phase::SolverIteration, None),
                (2, Phase::ReduceSocket, Some(3)),
            ]
        );
        let ticks: Vec<u32> = snap.events.iter().map(|e| e.track).collect();
        assert_eq!(ticks, vec![1, 2]);
        let matched: Vec<u32> = snap.edges.iter().map(|e| e.dst_track).collect();
        assert_eq!(matched, vec![1, 2]);
    }

    #[test]
    fn snapshot_keeps_each_tracks_order_under_a_rewound_clock() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let (a, b) = (tele.fork(1), tele.fork(2));
        clock.set(10);
        let _a0 = a.span(Phase::SolverIteration);
        a.event("tick", 10.0);
        clock.set(5);
        let _a1 = a.span(Phase::SpmmForward);
        a.event("tick", 5.0);
        clock.set(7);
        let _b0 = b.span(Phase::ReduceSocket);
        b.event("tick", 7.0);
        let snap = tele.snapshot();
        // Earliest head first; track 1 keeps its 10-then-5 order, and
        // its rewound child still points at its own parent.
        let opened: Vec<(u32, u64, Option<usize>)> = snap
            .spans
            .iter()
            .map(|s| (s.track, s.start_ns, s.parent))
            .collect();
        assert_eq!(opened, vec![(2, 7, None), (1, 10, None), (1, 5, Some(1))]);
        let ticks: Vec<f64> = snap.events.iter().map(|e| e.value).collect();
        assert_eq!(ticks, vec![7.0, 10.0, 5.0]);
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
        // xct-allow(one-fan-out): a test racing a sampler against a recorder
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
        // xct-allow(one-fan-out): a test recording on four rank tracks at once
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
