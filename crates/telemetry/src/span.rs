//! The span/event recording layer.
//!
//! A [`Telemetry`] handle is either *disabled* (the default — every call
//! is a branch on `None`, no locking, no allocation) or *enabled*, in
//! which case it records into a shared, thread-safe [`Collector`]. Each
//! handle carries a *track* id (rank, in distributed runs) and its own
//! nesting stack, so spans opened by different rank threads interleave in
//! the collector without corrupting each other's parent links.
//!
//! [`Collector`]: struct@self::Telemetry

use crate::flight::{flight_json, FlightEvent, FlightKind, FlightRing};
use crate::metrics::{MetricId, MetricsSnapshot, TrackMetrics, TrackMetricsSnapshot};
use crate::profile::{CostComponent, ProfileDims, ProfileSlabs, ProfileSnapshot};
use crate::{Clock, MonotonicClock, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    edges: Vec<EdgeRecord>,
}

/// One handle's always-on storage registered with the collector so
/// snapshots can reach every track's metrics and flight ring.
struct TrackSlab {
    track: u32,
    metrics: Arc<TrackMetrics>,
    flight: Arc<Mutex<FlightRing>>,
}

struct Collector {
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    /// One entry per handle created via `with_clock`/`fork`, in creation
    /// order. Only touched at fork and snapshot time, never on the
    /// metric hot path.
    slabs: Mutex<Vec<TrackSlab>>,
    /// Cost-profile storage, installed at most once by
    /// [`Telemetry::enable_profile`]. `OnceLock::get` is one atomic
    /// load, so an unprofiled span close costs a single `None` check.
    profile: OnceLock<Arc<ProfileSlabs>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

struct TrackHandle {
    collector: Arc<Collector>,
    track: u32,
    /// Currently-open spans on this track, innermost last: the span's
    /// index in the collector plus the nanoseconds its *children* have
    /// accumulated so far, so a closing span can report self time.
    stack: Mutex<Vec<(usize, u64)>>,
    /// This track's metric slab (shared with the collector registry).
    metrics: Arc<TrackMetrics>,
    /// This track's flight-recorder ring (shared with the registry).
    flight: Arc<Mutex<FlightRing>>,
    /// Current fused-slice range for cost-profile attribution, packed
    /// `first << 32 | count` so both halves change together. Per track
    /// because pipelined ranks work different slices at once.
    slice_ctx: AtomicU64,
}

impl std::fmt::Debug for TrackHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackHandle")
            .field("track", &self.track)
            .finish_non_exhaustive()
    }
}

/// Locks a collector mutex. Poisoning means another telemetry thread
/// already panicked mid-write; the recording is unrecoverable, so the
/// panic is propagated rather than papered over.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // xct-allow(no-panic): lock poisoning propagates a panic already in flight
    m.lock().unwrap()
}

impl TrackHandle {
    /// Creates a handle for `track` and registers its slab with the
    /// collector. Runs at enable/fork time only.
    fn register(collector: Arc<Collector>, track: u32) -> TrackHandle {
        let metrics = Arc::new(TrackMetrics::new());
        let flight = Arc::new(Mutex::new(FlightRing::new()));
        locked(&collector.slabs).push(TrackSlab {
            track,
            metrics: Arc::clone(&metrics),
            flight: Arc::clone(&flight),
        });
        TrackHandle {
            collector,
            track,
            stack: Mutex::new(Vec::new()),
            metrics,
            flight,
            slice_ctx: AtomicU64::new(1),
        }
    }

    /// Pushes one flight record. Uncontended in practice (one thread per
    /// track) and never allocates: the ring is preallocated.
    fn flight_push(&self, kind: FlightKind, code: &'static str, a: u64, b: u64) {
        let at_ns = self.collector.clock.now_ns();
        locked(&self.flight).push(FlightEvent {
            at_ns,
            track: self.track,
            kind,
            code,
            a,
            b,
        });
    }
}

/// A consistent copy of everything recorded so far.
///
/// Open spans are closed at snapshot time, so `end_ns` is always valid.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All spans, in the order they were opened.
    pub spans: Vec<SpanRecord>,
    /// All events, in the order they were recorded.
    pub events: Vec<EventRecord>,
    /// All send→recv match edges, in the order they were matched.
    pub edges: Vec<EdgeRecord>,
}

/// A cloneable tracing handle.
///
/// `Telemetry::default()` / [`Telemetry::disabled`] is a no-op handle:
/// [`Telemetry::span`] and [`Telemetry::event`] cost one `None` check and
/// touch no locks and no heap. [`Telemetry::enabled`] records into a
/// collector shared by all clones and forks of the handle.
///
/// *Clones* share the collector **and** the nesting stack (use within one
/// thread of control); [`Telemetry::fork`] shares the collector but starts
/// a fresh stack under a new track id (use one fork per rank thread).
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
            state: Mutex::new(State::default()),
            slabs: Mutex::new(Vec::new()),
            profile: OnceLock::new(),
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
        self.inner.as_ref().map_or(0, |h| h.track)
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
        let start_ns = handle.collector.clock.now_ns();
        // Lock order is stack → state everywhere (see SpanGuard::drop).
        let mut stack = locked(&handle.stack);
        let parent = stack.last().map(|&(index, _)| index);
        let index = {
            let mut state = locked(&handle.collector.state);
            let index = state.spans.len();
            state.spans.push(SpanRecord {
                phase,
                track: handle.track,
                start_ns,
                end_ns: OPEN,
                parent,
            });
            index
        };
        stack.push((index, 0));
        drop(stack);
        handle.flight_push(FlightKind::SpanBegin, phase.as_str(), 0, 0);
        SpanGuard {
            inner: Some((Arc::clone(handle), index, phase)),
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
        let matched_ns = handle.collector.clock.now_ns();
        {
            let mut state = locked(&handle.collector.state);
            state.edges.push(EdgeRecord {
                src_track,
                dst_track: handle.track,
                tag,
                bytes,
                sent_ns,
                matched_ns,
                wire_ns,
            });
        }
        handle.flight_push(FlightKind::Match, "comm.match", u64::from(src_track), bytes);
    }

    /// Records a scalar event at the current time.
    pub fn event(&self, name: &'static str, value: f64) {
        let Some(handle) = &self.inner else { return };
        let at_ns = handle.collector.clock.now_ns();
        {
            let mut state = locked(&handle.collector.state);
            state.events.push(EventRecord {
                name,
                value,
                track: handle.track,
                at_ns,
            });
        }
        handle.flight_push(FlightKind::Event, name, value.to_bits(), 0);
    }

    /// Adds `delta` to a counter on this track. One `None` check when
    /// disabled; a relaxed atomic add (plus, for coarse-grained
    /// counters, a flight record) when enabled.
    pub fn metric_add(&self, id: MetricId, delta: u64) {
        let Some(handle) = &self.inner else { return };
        handle.metrics.add(id, delta);
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
        handle.metrics.gauge_set(id, value);
        handle.flight_push(FlightKind::Gauge, id.as_str(), value.to_bits(), 0);
    }

    /// Records a duration into a histogram metric on this track.
    pub fn observe_ns(&self, id: MetricId, ns: u64) {
        let Some(handle) = &self.inner else { return };
        handle.metrics.observe_ns(id, ns);
    }

    /// Records a free-form flight-recorder marker (no metric storage).
    pub fn flight_point(&self, code: &'static str, a: u64, b: u64) {
        let Some(handle) = &self.inner else { return };
        handle.flight_push(FlightKind::Point, code, a, b);
    }

    /// Installs preallocated cost-profile storage sized for `dims`.
    ///
    /// Call once, before forking rank handles and before the profiled
    /// region runs. Returns `true` if profiling is now enabled (idempo-
    /// tent: a second call keeps the first slab and returns `true`);
    /// `false` on a disabled handle. After this, every closing span
    /// whose phase maps to a [`CostComponent`] charges its *self* time
    /// to the `(track, slab, slice)` context.
    pub fn enable_profile(&self, dims: ProfileDims) -> bool {
        let Some(handle) = &self.inner else {
            return false;
        };
        let _ = handle
            .collector
            .profile
            .set(Arc::new(ProfileSlabs::new(dims)));
        true
    }

    /// Whether cost-profile storage is installed on this collector.
    pub fn profile_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|h| h.collector.profile.get().is_some())
    }

    /// Sets the collector-global streamed-slab context for subsequent
    /// cost attribution. No-op when disabled or unprofiled.
    pub fn profile_slab_set(&self, slab: u32) {
        let Some(handle) = &self.inner else { return };
        if let Some(profile) = handle.collector.profile.get() {
            profile.set_slab(slab);
        }
    }

    /// Sets this track's fused-slice context for subsequent cost
    /// attribution. A relaxed atomic store; no-op when disabled.
    pub fn profile_slice_set(&self, slice: u32) {
        self.profile_slices_set(slice, 1);
    }

    /// Sets this track's context to the `count` fused slices starting at
    /// `first`: a span closing under it (one fused kernel launch working
    /// all of them) has its self time split evenly over those slices —
    /// floor division, the remainder charged to `first`, so the cells
    /// still sum to the exact self time.
    pub fn profile_slices_set(&self, first: u32, count: u32) {
        let Some(handle) = &self.inner else { return };
        let packed = u64::from(first) << 32 | u64::from(count.max(1));
        handle.slice_ctx.store(packed, Ordering::Relaxed);
    }

    /// A point-in-time copy of the cost profile, or `None` when this
    /// handle is disabled or profiling was never enabled.
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        let handle = self.inner.as_ref()?;
        Some(handle.collector.profile.get()?.snapshot())
    }

    /// A point-in-time copy of every track's touched metrics (empty
    /// when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(handle) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let at_ns = handle.collector.clock.now_ns();
        let slabs: Vec<TrackMetricsSnapshot> = locked(&handle.collector.slabs)
            .iter()
            .map(|slab| slab.metrics.snapshot(slab.track))
            .collect();
        MetricsSnapshot::assemble(at_ns, slabs)
    }

    /// The retained flight records of every track, merged and ordered
    /// by time (empty when disabled).
    pub fn flight_snapshot(&self) -> Vec<FlightEvent> {
        let Some(handle) = &self.inner else {
            return Vec::new();
        };
        let slabs = locked(&handle.collector.slabs);
        let mut events: Vec<FlightEvent> = Vec::new();
        for slab in slabs.iter() {
            events.extend(locked(&slab.flight).events());
        }
        drop(slabs);
        events.sort_by_key(|e| e.at_ns);
        events
    }

    /// Serializes the flight recorder into a `petaxct-flightrec-v1`
    /// post-mortem document, or `None` when disabled.
    pub fn flight_dump_json(&self, reason: &str) -> Option<String> {
        let handle = self.inner.as_ref()?;
        let at_ns = handle.collector.clock.now_ns();
        let events = self.flight_snapshot();
        let dropped = {
            let slabs = locked(&handle.collector.slabs);
            let total: u64 = slabs.iter().map(|slab| locked(&slab.flight).total()).sum();
            total - events.len() as u64
        };
        Some(flight_json(reason, at_ns, dropped, &events).to_string())
    }

    /// Copies out everything recorded so far, closing still-open spans at
    /// the current time. Returns an empty snapshot when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(handle) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let now = handle.collector.clock.now_ns();
        let state = locked(&handle.collector.state);
        let spans = state
            .spans
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if s.end_ns == OPEN {
                    s.end_ns = now.max(s.start_ns);
                }
                s
            })
            .collect();
        TelemetrySnapshot {
            spans,
            events: state.events.clone(),
            edges: state.edges.clone(),
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span's end
/// time on drop. A guard from a disabled handle is inert.
#[derive(Debug)]
#[must_use = "a span guard times the scope it lives in; dropping it immediately records a zero-length span"]
pub struct SpanGuard {
    inner: Option<(Arc<TrackHandle>, usize, Phase)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((handle, index, phase)) = self.inner.take() else {
            return;
        };
        let end_ns = handle.collector.clock.now_ns();
        // Same lock order as Telemetry::span: stack → state.
        let mut stack = locked(&handle.stack);
        let mut child_ns = 0;
        if let Some(pos) = stack.iter().rposition(|&(i, _)| i == index) {
            child_ns = stack.remove(pos).1;
        }
        let mut duration_ns = 0;
        {
            let mut state = locked(&handle.collector.state);
            if let Some(span) = state.spans.get_mut(index) {
                span.end_ns = end_ns.max(span.start_ns);
                duration_ns = span.duration_ns();
            }
        }
        // The enclosing span's self time excludes this whole span.
        if let Some(top) = stack.last_mut() {
            top.1 = top.1.saturating_add(duration_ns);
        }
        drop(stack);
        // Charge this span's *self* time (duration minus children) to
        // the cost profile, if one is installed. One atomic load + one
        // fetch_add; nothing allocates.
        if let Some(profile) = handle.collector.profile.get() {
            if let Some(component) = CostComponent::from_phase(phase) {
                let self_ns = duration_ns.saturating_sub(child_ns);
                let packed = handle.slice_ctx.load(Ordering::Relaxed);
                let (first, count) = ((packed >> 32) as u32, packed as u32);
                let share = self_ns / u64::from(count);
                let remainder = self_ns % u64::from(count);
                profile.record(handle.track, first, component, share + remainder);
                for slice in first + 1..first + count {
                    profile.record(handle.track, slice, component, share);
                }
            }
        }
        // comm.wait spans feed the live histogram metric as they close,
        // so the sampler sees the wait distribution mid-run instead of
        // only in the post-hoc span analysis.
        if phase == Phase::CommWait {
            handle.metrics.observe_ns(MetricId::CommWaitNs, duration_ns);
        }
        handle.flight_push(FlightKind::SpanEnd, phase.as_str(), duration_ns, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

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
        use crate::profile::{CostComponent, ProfileDims};
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        assert!(!tele.profile_enabled());
        assert!(tele.enable_profile(ProfileDims {
            tracks: 2,
            slabs: 2,
            slices: 2,
        }));
        assert!(tele.profile_enabled());
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
        let snap = tele.profile_snapshot().expect("profile enabled");
        assert_eq!(snap.get(1, 0, 1, CostComponent::SpmmCompute), 40);
        assert_eq!(snap.get(1, 1, 1, CostComponent::CommWait), 7);
        assert_eq!(snap.total_ns(), 47);
        // Disabled handles report no profile.
        assert_eq!(Telemetry::disabled().profile_snapshot(), None);
        assert!(!Telemetry::disabled().enable_profile(ProfileDims {
            tracks: 1,
            slabs: 1,
            slices: 1,
        }));
    }

    #[test]
    fn fused_slice_range_splits_self_time_with_remainder_on_the_first() {
        use crate::profile::{CostComponent, ProfileDims};
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        tele.enable_profile(ProfileDims {
            tracks: 1,
            slabs: 1,
            slices: 5,
        });
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
        let snap = tele.profile_snapshot().expect("profile enabled");
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
        let snap = tele.profile_snapshot().expect("profile enabled");
        assert_eq!(snap.get(0, 0, 0, CostComponent::CommWait), 7);
    }

    #[test]
    fn nested_same_phase_spans_do_not_double_charge() {
        use crate::profile::{CostComponent, ProfileDims};
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        tele.enable_profile(ProfileDims {
            tracks: 1,
            slabs: 1,
            slices: 1,
        });
        {
            let _outer = tele.span(Phase::ReduceGlobal);
            clock.advance(5);
            {
                let _inner = tele.span(Phase::ReduceGlobal);
                clock.advance(3);
            }
            clock.advance(2);
        }
        let snap = tele.profile_snapshot().expect("profile enabled");
        // 3 (inner) + 7 (outer self) = total 10, not 13.
        assert_eq!(snap.get(0, 0, 0, CostComponent::ReduceGlobal), 10);
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
        for span in &snap.spans {
            if let Some(parent) = span.parent {
                assert_eq!(
                    snap.spans[parent].track, span.track,
                    "parent links must stay within a track"
                );
            }
        }
    }
}
