//! Span-based tracing and phase-breakdown reporting for PetaXCT.
//!
//! The paper's evidence is instrumentation: Fig. 10's per-phase time
//! breakdown (SpMM kernels vs. socket/node/global reduction), Fig. 6's
//! communication matrices, and the measured inter-node volume savings of
//! hierarchical reduction. This crate provides the measurement layer those
//! figures are rebuilt from:
//!
//! * [`Telemetry`] — a cloneable handle with **one recording path**. A
//!   disabled handle (the default) is a no-op: one `None` check, no
//!   locking, no allocation. An enabled handle records into its *track*
//!   (one per rank), which owns everything that rank records behind one
//!   lock no other rank takes; a recording call reads the clock once,
//!   takes that lock once and touches no other shared state. A track
//!   keeps three stores, with three retention policies:
//!   - the **log** — every span (RAII-timed), scalar event and
//!     send→recv match edge ([`EdgeRecord`]), in the order the track
//!     recorded them; unbounded; copied out, the tracks merged by
//!     timestamp (ties to the track registered first), as a
//!     [`TelemetrySnapshot`];
//!   - the **metric slab** — aggregates only: the [`MetricId`]
//!     counters and gauges as relaxed atomics, the wait histograms as
//!     plain [`DurationHistogram`]s under the track lock (a sampled
//!     histogram's count, sum and buckets always agree); copied by
//!     [`Sampler`] into [`MetricsSnapshot`] time series and exported as
//!     `petaxct-metrics-v1` JSON ([`metrics_series_json`]), Prometheus
//!     text ([`prometheus_text`]), CSV ([`metrics_csv`]), or the human
//!     [`render_progress`] line;
//!   - the **flight ring** — the last [`FLIGHT_CAPACITY`] records
//!     ([`FlightEvent`]), preallocated; [`Telemetry::flight_dump_json`]
//!     and [`install_flight_panic_hook`] turn them into a
//!     `petaxct-flightrec-v1` post-mortem when a run dies.
//! * Views — every analysis is a fold over the [`TelemetrySnapshot`],
//!   never a second record: [`TelemetrySnapshot::self_times`] (computed
//!   in one place), [`Breakdown`] (the Fig. 10-style per-phase table and
//!   JSON report), [`PhaseHistograms`] (log2 duration buckets per
//!   phase), [`CausalAnalysis`] (the happens-before DAG of spans and
//!   match edges, its critical path and per-rank slack),
//!   [`ProfileSnapshot`] (self time per [`CostComponent`] and track —
//!   the `petaxct-profile-v1` drift/skew artifact's input), and
//!   [`chrome_trace`] (a Chrome `trace_event` file loadable in
//!   `about://tracing` / Perfetto).
//! * [`Phase`] — the stable phase taxonomy (SpMM forward/transpose,
//!   precision conversion, socket/node/global reduction, halo exchange,
//!   solver iterations/bookkeeping, I/O).
//! * [`Clock`] — injectable time source with a monotonic default
//!   ([`MonotonicClock`]) and a deterministic [`ManualClock`] so
//!   span-duration tests are exact rather than sleep-based.
//! * [`Json`] — a tiny dependency-free JSON value (builder, parser, and
//!   the typed `*_at` field accessors the artifact decoders read
//!   through) used by the report sinks and by tests that validate report
//!   schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod clock;
mod flight;
mod histogram;
mod json;
mod metrics;
mod phase;
mod profile;
mod report;
mod sampler;
mod span;

pub use causal::{CausalAnalysis, PathStep, RankPath};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use flight::{
    flight_json, install_flight_panic_hook, FlightEvent, FlightKind, FLIGHT_CAPACITY,
};
pub use histogram::{DurationHistogram, PhaseHistograms};
pub use json::Json;
pub use metrics::{MetricId, MetricKind, MetricsSnapshot, TrackMetricsSnapshot, ALL_METRICS};
pub use phase::Phase;
pub use profile::{CostComponent, ProfileSnapshot, ALL_COMPONENTS, COMPONENT_COUNT};
pub use report::{chrome_trace, fmt_ns, Breakdown, PhaseStat};
pub use sampler::{metrics_csv, metrics_series_json, prometheus_text, render_progress, Sampler};
pub use span::{EdgeRecord, EventRecord, SpanGuard, SpanRecord, Telemetry, TelemetrySnapshot};
