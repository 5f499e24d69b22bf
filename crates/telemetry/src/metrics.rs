//! The always-available metrics registry: named counters, gauges, and
//! log2 duration histograms with a stable taxonomy.
//!
//! Spans answer *where did the time go* after a run; metrics answer *is
//! the run healthy right now*. Each telemetry track (rank) owns one
//! fixed-size slab — counters and gauges as relaxed atomics, the wait
//! histograms as plain values under the track's lock; no allocation
//! after the track is forked — and a sampler thread (or test) copies
//! snapshots out at any time through the shared collector. A disabled
//! [`crate::Telemetry`] handle records nothing: every metric call is one
//! `None` check.
//!
//! The taxonomy is a closed enum rather than free-form strings so that
//! exporters, dashboards, and tests agree on names forever, and so the
//! per-track storage can be a flat array indexed by discriminant.

use crate::DurationHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter metrics (the first `COUNTER_COUNT` discriminants).
const COUNTER_COUNT: usize = 11;
/// Number of gauge metrics (discriminants after the counters).
const GAUGE_COUNT: usize = 9;
/// Counters and gauges share one scalar slab.
const SCALAR_COUNT: usize = COUNTER_COUNT + GAUGE_COUNT;
/// Number of histogram metrics (the last discriminants).
const HIST_COUNT: usize = 3;

/// Sentinel bit pattern for a gauge that has never been set. It decodes
/// to a NaN, so no meaningful gauge value collides with it.
const GAUGE_UNSET: u64 = u64::MAX;

/// What a metric measures and how it aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`; deltas between samples are rates.
    Counter,
    /// Last-written `f64` (a level, not a total).
    Gauge,
    /// Log2-bucketed duration distribution in nanoseconds.
    Histogram,
}

/// The stable metric taxonomy.
///
/// Names are dotted lowercase and form a public contract with the
/// `petaxct-metrics-v1` schema, the Prometheus exporter, and dashboards;
/// add variants rather than renaming. Discriminant order is storage
/// layout: counters first, then gauges, then histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MetricId {
    // -- counters ----------------------------------------------------
    /// Messages sent by this track.
    CommSendMsgs = 0,
    /// Payload bytes sent by this track.
    CommSendBytes = 1,
    /// Messages matched (received) by this track.
    CommRecvMsgs = 2,
    /// Payload bytes matched by this track. Summed over all tracks,
    /// `comm.send.bytes - comm.recv.bytes` is the bytes still in flight.
    CommRecvBytes = 3,
    /// Condvar parks spent waiting for a message.
    CommWaitParks = 4,
    /// Messages whose delivery a chaos schedule delayed.
    CommChaosDelays = 5,
    /// Slab reads served by an already-running prefetch.
    IoPrefetchHits = 6,
    /// Slab reads that had to run synchronously.
    IoPrefetchMisses = 7,
    /// Solver iterations completed on this track.
    SolverIterations = 8,
    /// Slabs fully reconstructed and queued for write-back.
    StreamSlabsDone = 9,
    /// Slices fully reconstructed.
    StreamSlicesDone = 10,
    // -- gauges ------------------------------------------------------
    /// Depth of this rank's mailbox (sent but unmatched messages) at
    /// its last receive attempt.
    CommMailboxDepth = 11,
    /// Most recent relative residual reported by the solver.
    SolverResidual = 12,
    /// Index of the slab currently reconstructing.
    StreamSlabCurrent = 13,
    /// Total slabs the plan will execute (progress denominator).
    ProgressSlabsTotal = 14,
    /// Solver iterations per slab (progress denominator).
    ProgressItersPerSlab = 15,
    /// Per-rank memory budget the plan was made under, in bytes.
    PlanBudgetBytes = 16,
    /// Bytes per rank the plan actually uses at its chosen fusing.
    PlanUsedBytes = 17,
    /// Whether a prefetch read is in flight (0 or 1).
    IoReadQueue = 18,
    /// Whether a deferred write is in flight (0 or 1).
    IoWriteQueue = 19,
    // -- histograms --------------------------------------------------
    /// Durations of blocking comm waits, in nanoseconds.
    CommWaitNs = 20,
    /// Time the compute thread stalled collecting a slab read.
    IoReadStallNs = 21,
    /// Time the compute thread stalled on the previous slab's write.
    IoWriteStallNs = 22,
}

/// Every metric, in storage order.
pub const ALL_METRICS: [MetricId; SCALAR_COUNT + HIST_COUNT] = [
    MetricId::CommSendMsgs,
    MetricId::CommSendBytes,
    MetricId::CommRecvMsgs,
    MetricId::CommRecvBytes,
    MetricId::CommWaitParks,
    MetricId::CommChaosDelays,
    MetricId::IoPrefetchHits,
    MetricId::IoPrefetchMisses,
    MetricId::SolverIterations,
    MetricId::StreamSlabsDone,
    MetricId::StreamSlicesDone,
    MetricId::CommMailboxDepth,
    MetricId::SolverResidual,
    MetricId::StreamSlabCurrent,
    MetricId::ProgressSlabsTotal,
    MetricId::ProgressItersPerSlab,
    MetricId::PlanBudgetBytes,
    MetricId::PlanUsedBytes,
    MetricId::IoReadQueue,
    MetricId::IoWriteQueue,
    MetricId::CommWaitNs,
    MetricId::IoReadStallNs,
    MetricId::IoWriteStallNs,
];

impl MetricId {
    /// The stable dotted name.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricId::CommSendMsgs => "comm.send.msgs",
            MetricId::CommSendBytes => "comm.send.bytes",
            MetricId::CommRecvMsgs => "comm.recv.msgs",
            MetricId::CommRecvBytes => "comm.recv.bytes",
            MetricId::CommWaitParks => "comm.wait.parks",
            MetricId::CommChaosDelays => "comm.chaos.delays",
            MetricId::IoPrefetchHits => "io.prefetch.hits",
            MetricId::IoPrefetchMisses => "io.prefetch.misses",
            MetricId::SolverIterations => "solver.iterations",
            MetricId::StreamSlabsDone => "stream.slabs.done",
            MetricId::StreamSlicesDone => "stream.slices.done",
            MetricId::CommMailboxDepth => "comm.mailbox.depth",
            MetricId::SolverResidual => "solver.residual",
            MetricId::StreamSlabCurrent => "stream.slab.current",
            MetricId::ProgressSlabsTotal => "progress.slabs.total",
            MetricId::ProgressItersPerSlab => "progress.iters_per_slab",
            MetricId::PlanBudgetBytes => "plan.budget.bytes",
            MetricId::PlanUsedBytes => "plan.used.bytes",
            MetricId::IoReadQueue => "io.read.queue",
            MetricId::IoWriteQueue => "io.write.queue",
            MetricId::CommWaitNs => "comm.wait.ns",
            MetricId::IoReadStallNs => "io.read.stall.ns",
            MetricId::IoWriteStallNs => "io.write.stall.ns",
        }
    }

    /// What this metric measures.
    pub fn kind(self) -> MetricKind {
        let index = self as usize;
        if index < COUNTER_COUNT {
            MetricKind::Counter
        } else if index < SCALAR_COUNT {
            MetricKind::Gauge
        } else {
            MetricKind::Histogram
        }
    }

    /// Whether the flight recorder logs individual updates of this
    /// metric. The park counter ticks far too often to ring-log.
    pub(crate) fn flight_worthy(self) -> bool {
        self != MetricId::CommWaitParks
    }

    fn scalar_index(self) -> Option<usize> {
        let index = self as usize;
        (index < SCALAR_COUNT).then_some(index)
    }

    fn hist_index(self) -> Option<usize> {
        (self as usize).checked_sub(SCALAR_COUNT)
    }
}

/// One track's histogram metrics: plain [`DurationHistogram`]s the owner
/// keeps under the track lock, so a sample never sees a count without
/// its bucket.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrackHistograms([DurationHistogram; HIST_COUNT]);

impl TrackHistograms {
    pub(crate) fn observe_ns(&mut self, id: MetricId, ns: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Histogram, "observe on {id:?}");
        if let Some(hist) = id.hist_index().and_then(|i| self.0.get_mut(i)) {
            hist.record(ns);
        }
    }
}

/// One track's counters and gauges: a flat slab of relaxed atomics,
/// allocated once when the track is forked and updated without a lock.
pub(crate) struct TrackMetrics {
    scalars: [AtomicU64; SCALAR_COUNT],
}

impl TrackMetrics {
    pub(crate) fn new() -> Self {
        TrackMetrics {
            // Gauges start at the unset sentinel, counters at zero.
            scalars: std::array::from_fn(|i| {
                AtomicU64::new(if i < COUNTER_COUNT { 0 } else { GAUGE_UNSET })
            }),
        }
    }

    pub(crate) fn add(&self, id: MetricId, delta: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Counter, "add on non-counter {id:?}");
        if let Some(index) = id.scalar_index() {
            self.scalars[index].fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub(crate) fn gauge_set(&self, id: MetricId, value: f64) {
        debug_assert_eq!(id.kind(), MetricKind::Gauge, "gauge_set on {id:?}");
        if let Some(index) = id.scalar_index() {
            self.scalars[index].store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Copies out the touched metrics (untouched ones are omitted so
    /// exports stay compact and tests can assert exact contents).
    /// [`ALL_METRICS`] is in storage order, so zipping it with the slots
    /// pairs every id with its storage.
    pub(crate) fn snapshot(&self, track: u32, hists: &TrackHistograms) -> TrackMetricsSnapshot {
        let mut snap = TrackMetricsSnapshot {
            track,
            ..Default::default()
        };
        for (id, slot) in ALL_METRICS.into_iter().zip(&self.scalars) {
            let bits = slot.load(Ordering::Relaxed);
            match id.kind() {
                MetricKind::Counter if bits != 0 => snap.counters.push((id, bits)),
                MetricKind::Gauge if bits != GAUGE_UNSET => {
                    snap.gauges.push((id, f64::from_bits(bits)));
                }
                _ => {}
            }
        }
        for (id, hist) in ALL_METRICS.into_iter().skip(SCALAR_COUNT).zip(&hists.0) {
            if hist.count() > 0 {
                snap.histograms.push((id, hist.clone()));
            }
        }
        snap
    }
}

/// One track's touched metrics at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct TrackMetricsSnapshot {
    /// Track (rank) id.
    pub track: u32,
    /// Non-zero counters, in taxonomy order.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauges that have been set at least once, in taxonomy order.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histograms with at least one recording, in taxonomy order.
    pub histograms: Vec<(MetricId, DurationHistogram)>,
}

impl TrackMetricsSnapshot {
    /// This track's value of a counter (0 when untouched).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters
            .iter()
            .find(|&&(i, _)| i == id)
            .map_or(0, |&(_, v)| v)
    }

    /// This track's value of a gauge, if it was ever set.
    pub fn gauge(&self, id: MetricId) -> Option<f64> {
        self.gauges.iter().find(|&&(i, _)| i == id).map(|&(_, v)| v)
    }

    /// This track's histogram for `id`, if anything was recorded.
    pub fn histogram(&self, id: MetricId) -> Option<&DurationHistogram> {
        self.histograms
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, h)| h)
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    fn merge(&mut self, other: TrackMetricsSnapshot) {
        for (id, v) in other.counters {
            match self.counters.iter_mut().find(|(i, _)| *i == id) {
                Some((_, have)) => *have += v,
                None => self.counters.push((id, v)),
            }
        }
        for (id, v) in other.gauges {
            // Same-track gauges from distinct handles: last registration
            // wins; in practice each track forks one handle.
            if !self.gauges.iter().any(|(i, _)| *i == id) {
                self.gauges.push((id, v));
            }
        }
        for (id, h) in other.histograms {
            if !self.histograms.iter().any(|(i, _)| *i == id) {
                self.histograms.push((id, h));
            }
        }
    }
}

/// A point-in-time copy of every track's touched metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Collector clock time the snapshot was taken at.
    pub at_ns: u64,
    /// Per-track metrics, ascending by track id; tracks with nothing
    /// recorded are omitted.
    pub tracks: Vec<TrackMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from per-handle slabs, merging slabs that share
    /// a track id and dropping untouched tracks.
    pub(crate) fn assemble(at_ns: u64, slabs: Vec<TrackMetricsSnapshot>) -> MetricsSnapshot {
        let mut tracks: Vec<TrackMetricsSnapshot> = Vec::new();
        for slab in slabs {
            if slab.is_empty() {
                continue;
            }
            match tracks.iter_mut().find(|t| t.track == slab.track) {
                Some(t) => t.merge(slab),
                None => tracks.push(slab),
            }
        }
        tracks.sort_by_key(|t| t.track);
        MetricsSnapshot { at_ns, tracks }
    }

    /// The snapshot for one track, if it recorded anything.
    pub fn track(&self, track: u32) -> Option<&TrackMetricsSnapshot> {
        self.tracks.iter().find(|t| t.track == track)
    }

    /// A counter summed over every track.
    pub fn counter_total(&self, id: MetricId) -> u64 {
        self.tracks.iter().map(|t| t.counter(id)).sum()
    }

    /// The value of a gauge on the lowest track that set it.
    pub fn gauge(&self, id: MetricId) -> Option<f64> {
        self.tracks.iter().find_map(|t| t.gauge(id))
    }

    /// The maximum of a counter across tracks (e.g. the busiest rank's
    /// iteration count for progress estimation).
    pub fn counter_max(&self, id: MetricId) -> u64 {
        self.tracks.iter().map(|t| t.counter(id)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_dense_unique_and_ordered() {
        for (index, id) in ALL_METRICS.iter().enumerate() {
            assert_eq!(*id as usize, index, "{id:?} out of storage order");
        }
        let mut names: Vec<&str> = ALL_METRICS.iter().map(|id| id.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_METRICS.len(), "duplicate metric name");
        assert_eq!(MetricId::CommSendMsgs.kind(), MetricKind::Counter);
        assert_eq!(MetricId::SolverResidual.kind(), MetricKind::Gauge);
        assert_eq!(MetricId::CommWaitNs.kind(), MetricKind::Histogram);
    }

    #[test]
    fn slab_records_and_snapshots_touched_metrics_only() {
        let slab = TrackMetrics::new();
        slab.add(MetricId::CommSendBytes, 128);
        slab.add(MetricId::CommSendBytes, 64);
        slab.gauge_set(MetricId::SolverResidual, 0.25);
        slab.gauge_set(MetricId::SolverResidual, 0.125);
        let mut hists = TrackHistograms::default();
        hists.observe_ns(MetricId::CommWaitNs, 0);
        hists.observe_ns(MetricId::CommWaitNs, 1000);
        let snap = slab.snapshot(3, &hists);
        assert_eq!(snap.track, 3);
        assert_eq!(snap.counters, vec![(MetricId::CommSendBytes, 192)]);
        assert_eq!(snap.gauge(MetricId::SolverResidual), Some(0.125));
        assert_eq!(snap.gauge(MetricId::CommMailboxDepth), None);
        let hist = snap.histogram(MetricId::CommWaitNs).expect("recorded");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum_ns(), 1000);
        assert_eq!(hist.buckets(), vec![(0, 1, 1), (512, 1024, 1)]);
        assert!(snap.histogram(MetricId::IoReadStallNs).is_none());
    }

    #[test]
    fn assemble_merges_same_track_slabs_and_sorts() {
        let a = TrackMetrics::new();
        a.add(MetricId::CommSendMsgs, 2);
        let b = TrackMetrics::new();
        b.add(MetricId::CommSendMsgs, 3);
        let c = TrackMetrics::new();
        c.add(MetricId::SolverIterations, 1);
        let none = TrackHistograms::default();
        let snap = MetricsSnapshot::assemble(
            77,
            vec![
                c.snapshot(5, &none),
                a.snapshot(1, &none),
                b.snapshot(1, &none),
                TrackMetrics::new().snapshot(9, &none),
            ],
        );
        assert_eq!(snap.at_ns, 77);
        assert_eq!(snap.tracks.len(), 2, "untouched track 9 omitted");
        assert_eq!(snap.tracks[0].track, 1);
        assert_eq!(snap.counter_total(MetricId::CommSendMsgs), 5);
        assert_eq!(snap.counter_max(MetricId::SolverIterations), 1);
    }
}
