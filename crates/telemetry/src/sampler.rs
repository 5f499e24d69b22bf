//! Time-series sampling of the metrics registry plus its exporters:
//! `petaxct-metrics-v1` JSON, Prometheus text exposition, CSV, and the
//! human progress line.
//!
//! A [`Sampler`] owns nothing but a telemetry handle and an interval;
//! each [`tick`](Sampler::tick) that lands on or past the next deadline
//! appends one [`MetricsSnapshot`] of *cumulative* values (counters are
//! running totals — consumers diff adjacent samples for rates, exactly
//! like Prometheus counters). Timing comes from the handle's injected
//! [`crate::Clock`], so tests drive the series deterministically with a
//! [`crate::ManualClock`] while the CLI drives it from a wall-clock
//! thread.

use crate::metrics::{MetricId, MetricsSnapshot};
use crate::{fmt_ns, Json, Telemetry};

/// Collects a time series of metric snapshots on a fixed interval.
#[derive(Debug)]
pub struct Sampler {
    telemetry: Telemetry,
    interval_ns: u64,
    /// Clock time at or after which the next tick samples. Starts at 0
    /// so the first tick always samples.
    next_ns: u64,
    samples: Vec<MetricsSnapshot>,
}

impl Sampler {
    /// A sampler over `telemetry`'s collector clock. `interval_ns` is
    /// the minimum spacing between samples taken via [`tick`][Self::tick].
    pub fn new(telemetry: Telemetry, interval_ns: u64) -> Self {
        Sampler {
            telemetry,
            interval_ns: interval_ns.max(1),
            next_ns: 0,
            samples: Vec::new(),
        }
    }

    /// Samples if the clock has reached the next deadline; returns
    /// whether a sample was taken. No-op (false) on disabled telemetry.
    pub fn tick(&mut self) -> bool {
        let Some(now) = self.telemetry.now_ns() else {
            return false;
        };
        if now < self.next_ns {
            return false;
        }
        self.force();
        true
    }

    /// Samples unconditionally (used for the final sample of a run).
    pub fn force(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let snap = self.telemetry.metrics_snapshot();
        // Deadlines advance from the sample time, so a series driven
        // past its deadline stays exactly periodic under a manual clock.
        self.next_ns = snap.at_ns + self.interval_ns;
        self.samples.push(snap);
    }

    /// The samples taken so far.
    pub fn samples(&self) -> &[MetricsSnapshot] {
        &self.samples
    }
}

/// Schema tag of the live metrics series.
const METRICS_SCHEMA: &str = "petaxct-metrics-v1";

/// Serializes a sample series as the `petaxct-metrics-v1` document: one
/// [`MetricsSnapshot::to_json`] per sample.
pub fn metrics_series_json(samples: &[MetricsSnapshot]) -> Json {
    Json::object(vec![
        ("schema", Json::from(METRICS_SCHEMA)),
        (
            "samples",
            Json::Arr(samples.iter().map(MetricsSnapshot::to_json).collect()),
        ),
    ])
}

/// Reads a `petaxct-metrics-v1` document back: a non-empty series whose
/// samples do not go back in time.
pub fn metrics_series_from_json(json: &Json) -> Result<Vec<MetricsSnapshot>, String> {
    json.expect_schema(METRICS_SCHEMA)?;
    let samples = (json.array_at("samples")?.iter().enumerate())
        .map(|(i, s)| MetricsSnapshot::from_json(s).map_err(|e| format!("samples[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if samples.is_empty() {
        return Err("field \"samples\" is empty".to_owned());
    }
    if let Some(w) = samples.windows(2).find(|w| w[1].at_ns < w[0].at_ns) {
        return Err(format!("sample at_ns {} after {}", w[1].at_ns, w[0].at_ns));
    }
    Ok(samples)
}

/// Dotted metric name → Prometheus metric name.
fn prom_name(id: MetricId) -> String {
    format!("petaxct_{}", id.as_str().replace('.', "_"))
}

/// Renders the latest snapshot in the Prometheus text exposition
/// format, one time series per `(metric, track)` pair. Counters and
/// gauges map directly; log2 histograms map to cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut seen_help: Vec<MetricId> = Vec::new();
    let mut help = |out: &mut String, id: MetricId, prom_kind: &str| {
        if !seen_help.contains(&id) {
            seen_help.push(id);
            let name = prom_name(id);
            out.push_str(&format!("# HELP {name} PetaXCT metric {}\n", id.as_str()));
            out.push_str(&format!("# TYPE {name} {prom_kind}\n"));
        }
    };
    for track in &snap.tracks {
        let counter = |&(id, v): &(MetricId, u64)| (id, "counter", v.to_string());
        let gauge = |&(id, v): &(MetricId, f64)| (id, "gauge", v.to_string());
        let scalars = track.counters.iter().map(counter);
        for (id, kind, v) in scalars.chain(track.gauges.iter().map(gauge)) {
            help(&mut out, id, kind);
            out.push_str(&format!(
                "{}{{track=\"{}\"}} {v}\n",
                prom_name(id),
                track.track
            ));
        }
        for &(id, ref hist) in &track.histograms {
            help(&mut out, id, "histogram");
            let name = prom_name(id);
            let mut cumulative = 0u64;
            for (_, hi, count) in hist.buckets() {
                cumulative += count;
                out.push_str(&format!(
                    "{name}_bucket{{track=\"{}\",le=\"{hi}\"}} {cumulative}\n",
                    track.track
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{track=\"{}\",le=\"+Inf\"}} {}\n",
                track.track,
                hist.count()
            ));
            out.push_str(&format!(
                "{name}_sum{{track=\"{}\"}} {}\n",
                track.track,
                hist.sum_ns()
            ));
            out.push_str(&format!(
                "{name}_count{{track=\"{}\"}} {}\n",
                track.track,
                hist.count()
            ));
        }
    }
    out
}

/// Renders a sample series as CSV with one row per `(sample, track,
/// metric)` value. Histograms contribute `<name>.count` and
/// `<name>.sum_ns` rows.
pub fn metrics_csv(samples: &[MetricsSnapshot]) -> String {
    let mut out = String::from("at_ns,track,metric,value\n");
    for snap in samples {
        for track in &snap.tracks {
            let mut row = |metric: String, value: String| {
                out.push_str(&format!(
                    "{},{},{metric},{value}\n",
                    snap.at_ns, track.track
                ));
            };
            for &(id, v) in &track.counters {
                row(id.as_str().to_string(), v.to_string());
            }
            for &(id, v) in &track.gauges {
                row(id.as_str().to_string(), v.to_string());
            }
            for (id, hist) in &track.histograms {
                row(format!("{}.count", id.as_str()), hist.count().to_string());
                row(format!("{}.sum_ns", id.as_str()), hist.sum_ns().to_string());
            }
        }
    }
    out
}

/// Renders the one-line human progress report: slab and iteration
/// progress, the latest residual, and an ETA extrapolated from the
/// fraction of total work done over `elapsed_ns`.
///
/// Work is measured in solver iterations: the plan's slab count (the
/// `progress.slabs.total` gauge) times iterations per slab
/// (`progress.iters_per_slab`), against the busiest rank's completed
/// iterations. Returns a placeholder until the totals gauges are set.
pub fn render_progress(snap: &MetricsSnapshot, elapsed_ns: u64) -> String {
    let slabs_total = snap.gauge(MetricId::ProgressSlabsTotal).unwrap_or(0.0);
    let iters_per_slab = snap.gauge(MetricId::ProgressItersPerSlab).unwrap_or(0.0);
    if slabs_total < 1.0 || iters_per_slab < 1.0 {
        return "starting…".to_string();
    }
    let slabs_done = snap.counter_total(MetricId::StreamSlabsDone) as f64;
    let iters_done = snap.counter_max(MetricId::SolverIterations) as f64;
    // Iterations inside the current slab (the busiest rank's count is
    // cumulative across finished slabs).
    let cur_iter = (iters_done - slabs_done * iters_per_slab).clamp(0.0, iters_per_slab);
    let done_units = slabs_done * iters_per_slab + cur_iter;
    let total_units = slabs_total * iters_per_slab;
    let fraction = (done_units / total_units).clamp(0.0, 1.0);
    let mut line = format!(
        "slab {}/{} · iter {}/{}",
        (slabs_done as u64 + u64::from(slabs_done < slabs_total)).min(slabs_total as u64),
        slabs_total as u64,
        cur_iter as u64,
        iters_per_slab as u64,
    );
    if let Some(residual) = snap.gauge(MetricId::SolverResidual) {
        line.push_str(&format!(" · residual {residual:.3e}"));
    }
    line.push_str(&format!(" · {:.1}%", fraction * 100.0));
    if fraction > 0.0 && fraction < 1.0 {
        let eta_ns = (elapsed_ns as f64 * (1.0 - fraction) / fraction) as u64;
        line.push_str(&format!(" · eta {}", fmt_ns(eta_ns).trim_start()));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKind;
    use crate::{ManualClock, Telemetry};
    use std::sync::Arc;

    #[test]
    fn sampler_is_deadline_driven_and_periodic() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let mut sampler = Sampler::new(tele.clone(), 100);
        assert!(sampler.tick(), "first tick samples at t=0");
        assert!(!sampler.tick(), "deadline not reached");
        clock.set(99);
        assert!(!sampler.tick());
        clock.set(100);
        tele.metric_add(MetricId::CommSendBytes, 7);
        assert!(sampler.tick());
        clock.set(250);
        assert!(sampler.tick(), "late tick still samples");
        let at: Vec<u64> = sampler.samples().iter().map(|s| s.at_ns).collect();
        assert_eq!(at, vec![0, 100, 250]);
        assert_eq!(
            sampler.samples()[1].counter_total(MetricId::CommSendBytes),
            7
        );
    }

    #[test]
    fn disabled_sampler_never_samples() {
        let mut sampler = Sampler::new(Telemetry::disabled(), 1);
        assert!(!sampler.tick());
        sampler.force();
        assert!(sampler.samples().is_empty());
    }

    #[test]
    fn json_series_round_trips() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        tele.metric_add(MetricId::CommSendMsgs, 3);
        tele.gauge_set(MetricId::SolverResidual, 0.5);
        tele.observe_ns(MetricId::CommWaitNs, 1000);
        let mut sampler = Sampler::new(tele, 10);
        sampler.force();
        let doc = metrics_series_json(sampler.samples());
        let parsed = Json::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("petaxct-metrics-v1")
        );
        let samples = parsed.get("samples").and_then(Json::as_array).unwrap();
        assert_eq!(samples.len(), 1);
        let track = samples[0].get("tracks").and_then(Json::as_array).unwrap()[0].clone();
        assert_eq!(
            track
                .get("counters")
                .and_then(|c| c.get("comm.send.msgs"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            track
                .get("gauges")
                .and_then(|g| g.get("solver.residual"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        let hists = track.get("histograms").and_then(Json::as_array).unwrap();
        assert_eq!(
            hists[0].get("metric").and_then(Json::as_str),
            Some("comm.wait.ns")
        );
        // The reader gives the series back, field by field.
        assert_eq!(
            metrics_series_from_json(&parsed).as_deref(),
            Ok(sampler.samples())
        );
        let empty = Json::parse(r#"{"schema":"petaxct-metrics-v1","samples":[]}"#).unwrap();
        assert!(metrics_series_from_json(&empty)
            .unwrap_err()
            .contains("samples"));
    }

    #[test]
    fn prometheus_text_has_help_type_and_histogram_series() {
        let tele = Telemetry::enabled();
        tele.metric_add(MetricId::CommSendBytes, 42);
        tele.gauge_set(MetricId::CommMailboxDepth, 2.0);
        tele.observe_ns(MetricId::CommWaitNs, 3);
        tele.observe_ns(MetricId::CommWaitNs, 900);
        let text = prometheus_text(&tele.metrics_snapshot());
        assert!(text.contains("# HELP petaxct_comm_send_bytes"), "{text}");
        assert!(text.contains("# TYPE petaxct_comm_send_bytes counter"));
        assert!(text.contains("petaxct_comm_send_bytes{track=\"0\"} 42"));
        assert!(text.contains("# TYPE petaxct_comm_mailbox_depth gauge"));
        assert!(text.contains("petaxct_comm_wait_ns_bucket{track=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("petaxct_comm_wait_ns_sum{track=\"0\"} 903"));
        assert!(text.contains("petaxct_comm_wait_ns_count{track=\"0\"} 2"));
        // Cumulative bucket counts: the le="1024" bucket includes the
        // 3 ns recording from the le="4" bucket.
        assert!(text.contains("petaxct_comm_wait_ns_bucket{track=\"0\",le=\"1024\"} 2"));
    }

    /// Checks `text` line by line against the Prometheus text exposition
    /// format: `# HELP name text` and `# TYPE name kind` comments (kind a
    /// counter, gauge or histogram, each metric typed once, before its
    /// samples) and `name{k="v",...} value` samples of `petaxct_` metric
    /// names, a histogram's series suffixed `_bucket` (with an `le`
    /// label), `_sum` or `_count`. Returns the metrics typed.
    fn check_exposition(text: &str) -> Vec<(String, String)> {
        let mut typed: Vec<(String, String)> = Vec::new();
        let valid_name = |name: &str| {
            name.starts_with("petaxct_")
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut samples = 0;
        for (i, line) in text.lines().enumerate() {
            let at = format!("line {}: {line:?}", i + 1);
            if let Some(comment) = line.strip_prefix("# ") {
                let parts: Vec<&str> = comment.splitn(3, ' ').collect();
                let [tag, name, rest] = parts[..] else {
                    panic!("{at}: malformed comment");
                };
                assert!(valid_name(name), "{at}: metric name");
                match tag {
                    "HELP" => assert!(!rest.is_empty(), "{at}: empty help"),
                    "TYPE" => {
                        assert!(matches!(rest, "counter" | "gauge" | "histogram"), "{at}");
                        assert!(typed.iter().all(|(n, _)| n != name), "{at}: typed twice");
                        typed.push((name.to_owned(), rest.to_owned()));
                    }
                    _ => panic!("{at}: unknown comment"),
                }
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{at}"));
            assert!(value.parse::<f64>().is_ok(), "{at}: value");
            let (name, labels) = series.split_once('{').unwrap_or_else(|| panic!("{at}"));
            let labels = labels.strip_suffix('}').unwrap_or_else(|| panic!("{at}"));
            let keys: Vec<&str> = (labels.split(','))
                .map(|label| {
                    let (k, v) = label.split_once('=').unwrap_or_else(|| panic!("{at}"));
                    let quoted = v.len() >= 2 && v.starts_with('"') && v.ends_with('"');
                    assert!(!k.is_empty() && quoted, "{at}: label {label:?}");
                    k
                })
                .collect();
            // The longest typed name the series extends.
            let (kind, base) = (typed.iter())
                .filter_map(|(n, kind)| name.strip_prefix(n.as_str()).map(|rest| (kind, rest)))
                .min_by_key(|(_, rest)| rest.len())
                .unwrap_or_else(|| panic!("{at}: sample before its TYPE"));
            match (kind.as_str(), base) {
                ("histogram", "_bucket") => assert!(keys.contains(&"le"), "{at}: no le"),
                ("histogram", "_sum" | "_count") | ("counter" | "gauge", "") => {}
                _ => panic!("{at}: series {name} of a {kind}"),
            }
            samples += 1;
        }
        assert!(samples > 0, "no sample lines");
        typed
    }

    #[test]
    fn prometheus_text_follows_the_exposition_format() {
        // Every metric on two tracks, histograms with several buckets.
        let tele = Telemetry::enabled();
        for track in [tele.fork(0), tele.fork(3)] {
            for id in crate::ALL_METRICS {
                match id.kind() {
                    MetricKind::Counter => track.metric_add(id, 7),
                    MetricKind::Gauge => track.gauge_set(id, -0.25),
                    MetricKind::Histogram => {
                        for ns in [3, 900, 1 << 40] {
                            track.observe_ns(id, ns);
                        }
                    }
                }
            }
        }
        let typed = check_exposition(&prometheus_text(&tele.metrics_snapshot()));
        assert_eq!(typed.len(), crate::ALL_METRICS.len());
        for id in crate::ALL_METRICS {
            let kind = match id.kind() {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            assert!(typed.contains(&(prom_name(id), kind.to_owned())), "{id:?}");
        }
    }

    #[test]
    fn csv_lists_each_metric_value() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        clock.set(5);
        tele.metric_add(MetricId::StreamSlabsDone, 1);
        let mut sampler = Sampler::new(tele, 1);
        sampler.force();
        let csv = metrics_csv(sampler.samples());
        assert!(csv.starts_with("at_ns,track,metric,value\n"), "{csv}");
        assert!(csv.contains("5,0,stream.slabs.done,1\n"), "{csv}");
    }

    #[test]
    fn progress_line_reports_slab_iter_residual_and_eta() {
        let tele = Telemetry::enabled();
        assert_eq!(render_progress(&tele.metrics_snapshot(), 0), "starting…");
        tele.gauge_set(MetricId::ProgressSlabsTotal, 4.0);
        tele.gauge_set(MetricId::ProgressItersPerSlab, 10.0);
        tele.metric_add(MetricId::StreamSlabsDone, 1);
        tele.metric_add(MetricId::SolverIterations, 15);
        tele.gauge_set(MetricId::SolverResidual, 2.5e-3);
        // 15 of 40 iteration-units done in 3 s → 5 s remain.
        let line = render_progress(&tele.metrics_snapshot(), 3_000_000_000);
        assert!(line.contains("slab 2/4"), "{line}");
        assert!(line.contains("iter 5/10"), "{line}");
        assert!(line.contains("residual 2.500e-3"), "{line}");
        assert!(line.contains("37.5%"), "{line}");
        assert!(line.contains("eta 5.000  s"), "{line}");
    }
}
