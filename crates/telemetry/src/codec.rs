//! One JSON encoder and one decoder each for the log
//! ([`TelemetrySnapshot`]) and a metric sample ([`MetricsSnapshot`]):
//! what a run document carries from this crate. Decoding what was
//! encoded gives the value back field by field; decoding hostile bytes
//! is an `Err` naming the field, never a panic.

use crate::metrics::MetricKind;
use crate::{
    DurationHistogram, EdgeRecord, EventRecord, Json, MetricId, MetricsSnapshot, Phase, SpanRecord,
    TelemetrySnapshot, TrackMetricsSnapshot,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// A `'static` copy of `name`, for the event names and custom phases a
/// decoded document carries. Each distinct name is leaked once and
/// reused after.
pub(crate) fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.insert(leaked);
    leaked
}

/// The elements of the array under `key`, each decoded by `read`; an
/// element's error names its index.
fn each<T>(
    json: &Json,
    key: &str,
    mut read: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = json.array_at(key)?;
    (items.iter().enumerate())
        .map(|(i, item)| read(item).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

/// The track id under `key`.
fn track_at(json: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(json.u64_at(key)?).map_err(|_| format!("field {key:?} is not a track id"))
}

/// A number that may have been written as `null` (a non-finite value).
fn f64_or_nan(json: &Json, key: &str) -> Result<f64, String> {
    match json.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        _ => json.f64_at(key),
    }
}

impl TelemetrySnapshot {
    /// The log as JSON: spans (each naming its parent by index), scalar
    /// events and match edges, in snapshot order. Tags are hex strings,
    /// since they use all 64 bits.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::object(vec![
                ("track", Json::from(u64::from(s.track))),
                ("phase", Json::from(s.phase.as_str())),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
            ])
        });
        let events = self.events.iter().map(|e| {
            Json::object(vec![
                ("track", Json::from(u64::from(e.track))),
                ("name", Json::from(e.name)),
                ("value", Json::from(e.value)),
                ("at_ns", Json::from(e.at_ns)),
            ])
        });
        let edges = self.edges.iter().map(|e| {
            Json::object(vec![
                ("src", Json::from(u64::from(e.src_track))),
                ("dst", Json::from(u64::from(e.dst_track))),
                ("tag", Json::from(format!("{:#x}", e.tag))),
                ("bytes", Json::from(e.bytes)),
                ("sent_ns", Json::from(e.sent_ns)),
                ("matched_ns", Json::from(e.matched_ns)),
                ("wire_ns", Json::from(e.wire_ns)),
            ])
        });
        Json::object(vec![
            ("spans", Json::Arr(spans.collect())),
            ("events", Json::Arr(events.collect())),
            ("edges", Json::Arr(edges.collect())),
        ])
    }

    /// Decodes [`TelemetrySnapshot::to_json`]'s form. A span must end no
    /// earlier than it starts, and its parent must come before it.
    pub fn from_json(json: &Json) -> Result<TelemetrySnapshot, String> {
        let mut index = 0;
        let spans = each(json, "spans", |s| {
            let parent = match s.get("parent") {
                Some(Json::Null) => None,
                _ => match s.usize_at("parent")? {
                    p if p < index => Some(p),
                    _ => return Err("field \"parent\" does not come before the span".to_owned()),
                },
            };
            let span = SpanRecord {
                phase: Phase::parse(s.str_at("phase")?),
                track: track_at(s, "track")?,
                start_ns: s.u64_at("start_ns")?,
                end_ns: s.u64_at("end_ns")?,
                parent,
            };
            if span.end_ns < span.start_ns {
                return Err("field \"end_ns\" is before \"start_ns\"".to_owned());
            }
            index += 1;
            Ok(span)
        })?;
        let events = each(json, "events", |e| {
            Ok(EventRecord {
                name: intern(e.str_at("name")?),
                value: f64_or_nan(e, "value")?,
                track: track_at(e, "track")?,
                at_ns: e.u64_at("at_ns")?,
            })
        })?;
        let edges = each(json, "edges", |e| {
            let tag = e.str_at("tag")?;
            Ok(EdgeRecord {
                src_track: track_at(e, "src")?,
                dst_track: track_at(e, "dst")?,
                tag: (tag.strip_prefix("0x"))
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("field \"tag\" is not a hex tag: {tag:?}"))?,
                bytes: e.u64_at("bytes")?,
                sent_ns: e.u64_at("sent_ns")?,
                matched_ns: e.u64_at("matched_ns")?,
                wire_ns: e.u64_at("wire_ns")?,
            })
        })?;
        Ok(TelemetrySnapshot {
            spans,
            events,
            edges,
        })
    }
}

impl MetricsSnapshot {
    /// One sample: its time and, per track, the touched counters and
    /// gauges by name and the histograms. The `petaxct-metrics-v1`
    /// series is a list of these ([`crate::metrics_series_json`]).
    pub fn to_json(&self) -> Json {
        fn named<T: Copy>(pairs: &[(MetricId, T)]) -> Json
        where
            Json: From<T>,
        {
            Json::object(
                pairs
                    .iter()
                    .map(|&(id, v)| (id.as_str(), Json::from(v)))
                    .collect(),
            )
        }
        let track = |t: &TrackMetricsSnapshot| {
            let histograms = t.histograms.iter().map(|(id, h)| h.to_json(id.as_str()));
            Json::object(vec![
                ("track", Json::from(u64::from(t.track))),
                ("counters", named(&t.counters)),
                ("gauges", named(&t.gauges)),
                ("histograms", Json::Arr(histograms.collect())),
            ])
        };
        Json::object(vec![
            ("at_ns", Json::from(self.at_ns)),
            ("tracks", Json::Arr(self.tracks.iter().map(track).collect())),
        ])
    }

    /// Decodes [`MetricsSnapshot::to_json`]'s form: every metric name is
    /// one of [`crate::ALL_METRICS`] of the section's kind, and tracks
    /// ascend.
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        fn metric(name: &str, kind: MetricKind) -> Result<MetricId, String> {
            (MetricId::parse(name).filter(|id| id.kind() == kind))
                .ok_or_else(|| format!("no such metric {name:?} ({kind:?})"))
        }
        fn named<T>(
            track: &Json,
            section: &str,
            kind: MetricKind,
            read: fn(&Json, &str) -> Result<T, String>,
        ) -> Result<Vec<(MetricId, T)>, String> {
            let Some(values @ Json::Obj(pairs)) = track.get(section) else {
                return Err(format!("field {section:?} is not an object"));
            };
            (pairs.iter())
                .map(|(name, _)| Ok((metric(name, kind)?, read(values, name)?)))
                .collect()
        }
        let tracks = each(json, "tracks", |t| {
            Ok(TrackMetricsSnapshot {
                track: track_at(t, "track")?,
                counters: named(t, "counters", MetricKind::Counter, Json::u64_at)?,
                gauges: named(t, "gauges", MetricKind::Gauge, f64_or_nan)?,
                histograms: each(t, "histograms", |h| {
                    let id = metric(h.str_at("metric")?, MetricKind::Histogram)?;
                    Ok((id, DurationHistogram::from_json(h)?))
                })?,
            })
        })?;
        if let Some(w) = tracks.windows(2).find(|w| w[0].track >= w[1].track) {
            return Err(format!(
                "tracks out of order: {} then {}",
                w[0].track, w[1].track
            ));
        }
        Ok(MetricsSnapshot {
            at_ns: json.u64_at("at_ns")?,
            tracks,
        })
    }
}
