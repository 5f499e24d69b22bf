//! Views: the Fig. 10-style phase breakdown table and the Chrome
//! `trace_event` exporter.

use crate::{EventRecord, Json, Phase, TelemetrySnapshot};

/// Aggregated timing for one phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase label.
    pub phase: Phase,
    /// Number of spans with this label.
    pub count: u64,
    /// Total (inclusive) time: sum of span durations.
    pub total_ns: u64,
    /// Self (exclusive) time: total minus time spent in direct children.
    pub self_ns: u64,
}

/// Per-phase breakdown of a snapshot — the Fig. 10 analogue.
///
/// *Self time* excludes direct children, so summing `self_ns` over all
/// phases gives exactly the instrumented root-span time: nothing is
/// double-counted however deeply spans nest. `coverage()` compares that
/// sum against wall time (first span start to last span end).
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Per-phase rows, sorted by descending self time.
    pub stats: Vec<PhaseStat>,
    /// Wall time spanned by the snapshot (max end − min start), ns.
    pub wall_ns: u64,
    /// Sum of root-span durations (equivalently, of all self times), ns.
    pub covered_ns: u64,
}

impl Breakdown {
    /// Computes the breakdown of a snapshot.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> Breakdown {
        let spans = &snap.spans;
        let mut stats: Vec<PhaseStat> = Vec::new();
        let mut covered_ns = 0u64;
        let mut min_start = u64::MAX;
        let mut max_end = 0u64;
        for (span, self_ns) in spans.iter().zip(snap.self_times()) {
            let dur = span.duration_ns();
            min_start = min_start.min(span.start_ns);
            max_end = max_end.max(span.end_ns);
            if span.parent.is_none() {
                covered_ns += dur;
            }
            match stats.iter_mut().find(|s| s.phase == span.phase) {
                Some(stat) => {
                    stat.count += 1;
                    stat.total_ns += dur;
                    stat.self_ns += self_ns;
                }
                None => stats.push(PhaseStat {
                    phase: span.phase,
                    count: 1,
                    total_ns: dur,
                    self_ns,
                }),
            }
        }
        stats.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
        Breakdown {
            stats,
            wall_ns: if spans.is_empty() {
                0
            } else {
                max_end.saturating_sub(min_start)
            },
            covered_ns,
        }
    }

    /// Fraction of wall time covered by instrumented root spans.
    ///
    /// Can exceed 1.0 when root spans on different tracks overlap (e.g.
    /// concurrent rank threads); exactly the root-span share on a single
    /// track.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.wall_ns as f64
        }
    }

    /// Renders the human-readable per-phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>7} {:>12} {:>12} {:>8}\n",
            "phase", "count", "total", "self", "% wall"
        ));
        for stat in &self.stats {
            let pct = if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * stat.self_ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "{:<22} {:>7} {:>12} {:>12} {:>7.1}%\n",
                stat.phase.as_str(),
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(stat.self_ns),
                pct
            ));
        }
        out.push_str(&format!(
            "wall {} · instrumented coverage {:.1}%\n",
            fmt_ns(self.wall_ns),
            100.0 * self.coverage()
        ));
        out
    }
}

/// Serializes a snapshot as a Chrome `trace_event` JSON document.
///
/// Each rank's track maps to its own `pid`/`tid` pair (with `M`
/// metadata naming it "rank N"), so multi-rank traces render as
/// separate lanes instead of interleaving. Spans become `"ph": "X"`
/// complete events (timestamps in µs), scalar events become `"ph": "C"`
/// counter samples, and send→recv match edges become `"ph": "s"`/`"f"`
/// flow events so Perfetto draws cross-rank arrows. The output loads
/// directly in `about://tracing` and Perfetto.
pub fn chrome_trace(snap: &TelemetrySnapshot) -> String {
    let mut tracks: Vec<u32> = snap
        .spans
        .iter()
        .map(|s| s.track)
        .chain(snap.events.iter().map(|e| e.track))
        .chain(snap.edges.iter().flat_map(|e| [e.src_track, e.dst_track]))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut events: Vec<Json> = Vec::with_capacity(
        2 * tracks.len() + snap.spans.len() + snap.events.len() + 2 * snap.edges.len(),
    );
    for &track in &tracks {
        events.push(Json::object(vec![
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(u64::from(track))),
            (
                "args",
                Json::object(vec![("name", Json::from(format!("rank {track}")))]),
            ),
        ]));
        events.push(Json::object(vec![
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(u64::from(track))),
            ("tid", Json::from(u64::from(track))),
            (
                "args",
                Json::object(vec![("name", Json::from(format!("rank {track} timeline")))]),
            ),
        ]));
    }
    for span in &snap.spans {
        events.push(Json::object(vec![
            ("name", Json::from(span.phase.as_str())),
            ("cat", Json::from("phase")),
            ("ph", Json::from("X")),
            ("ts", Json::from(span.start_ns as f64 / 1e3)),
            ("dur", Json::from(span.duration_ns() as f64 / 1e3)),
            ("pid", Json::from(u64::from(span.track))),
            ("tid", Json::from(u64::from(span.track))),
        ]));
    }
    for event in &snap.events {
        events.push(counter_event(event));
    }
    for (id, edge) in snap.edges.iter().enumerate() {
        // Tags can use the full 64-bit namespace (e.g. reply salts), so
        // render them as hex strings rather than lossy f64 numbers.
        events.push(Json::object(vec![
            ("name", Json::from("comm.match")),
            ("cat", Json::from("comm")),
            ("ph", Json::from("s")),
            ("id", Json::from(id)),
            ("ts", Json::from(edge.sent_ns as f64 / 1e3)),
            ("pid", Json::from(u64::from(edge.src_track))),
            ("tid", Json::from(u64::from(edge.src_track))),
            (
                "args",
                Json::object(vec![
                    ("tag", Json::from(format!("{:#x}", edge.tag))),
                    ("bytes", Json::from(edge.bytes)),
                    ("wire_us", Json::from(edge.wire_ns as f64 / 1e3)),
                ]),
            ),
        ]));
        events.push(Json::object(vec![
            ("name", Json::from("comm.match")),
            ("cat", Json::from("comm")),
            ("ph", Json::from("f")),
            ("bp", Json::from("e")),
            ("id", Json::from(id)),
            ("ts", Json::from(edge.matched_ns as f64 / 1e3)),
            ("pid", Json::from(u64::from(edge.dst_track))),
            ("tid", Json::from(u64::from(edge.dst_track))),
        ]));
    }
    Json::object(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_string()
}

fn counter_event(event: &EventRecord) -> Json {
    Json::object(vec![
        ("name", Json::from(event.name)),
        ("ph", Json::from("C")),
        ("ts", Json::from(event.at_ns as f64 / 1e3)),
        ("pid", Json::from(u64::from(event.track))),
        ("tid", Json::from(u64::from(event.track))),
        (
            "args",
            Json::object(vec![("value", Json::from(event.value))]),
        ),
    ])
}

/// Formats a nanosecond duration with an adaptive unit in a fixed
/// 10-character field (`"     12 ns"`, `"  1.500 µs"`), so stacked
/// durations align into columns regardless of magnitude.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:>7.3}  s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:>7.3} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:>7.3} µs", v / 1e3)
    } else {
        format!("{ns:>7} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManualClock, Telemetry};
    use std::sync::Arc;

    fn sample() -> TelemetrySnapshot {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        {
            let _total = tele.span(Phase::Total);
            clock.advance(10);
            for _ in 0..2 {
                let _it = tele.span(Phase::SolverIteration);
                clock.advance(5);
                {
                    let _f = tele.span(Phase::SpmmForward);
                    clock.advance(30);
                }
                {
                    let _t = tele.span(Phase::SpmmTranspose);
                    clock.advance(40);
                }
                tele.event("cgls.residual", 0.5);
            }
            clock.advance(10);
        }
        tele.snapshot()
    }

    #[test]
    fn self_times_partition_the_root_exactly() {
        let snap = sample();
        let breakdown = Breakdown::from_snapshot(&snap);
        assert_eq!(breakdown.wall_ns, 170);
        assert_eq!(breakdown.covered_ns, 170);
        assert!((breakdown.coverage() - 1.0).abs() < 1e-12);
        let self_sum: u64 = breakdown.stats.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, breakdown.covered_ns);
        let get = |phase: Phase| {
            breakdown
                .stats
                .iter()
                .find(|s| s.phase == phase)
                .expect("phase present")
                .clone()
        };
        assert_eq!(get(Phase::Total).self_ns, 20);
        assert_eq!(get(Phase::SolverIteration).count, 2);
        assert_eq!(get(Phase::SolverIteration).self_ns, 10);
        assert_eq!(get(Phase::SolverIteration).total_ns, 150);
        assert_eq!(get(Phase::SpmmForward).self_ns, 60);
        assert_eq!(get(Phase::SpmmTranspose).self_ns, 80);
        // Sorted by descending self time.
        assert_eq!(breakdown.stats[0].phase, Phase::SpmmTranspose);
    }

    #[test]
    fn table_mentions_every_phase_and_wall() {
        let snap = sample();
        let table = Breakdown::from_snapshot(&snap).render_table();
        for needle in [
            "spmm.forward",
            "spmm.transpose",
            "solver.iteration",
            "total",
            "wall",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn chrome_trace_is_parseable_and_nested() {
        let snap = sample();
        let trace = chrome_trace(&snap);
        let back = Json::parse(&trace).expect("trace parses");
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        // One track → 2 metadata events, plus one X per span and one C
        // per counter event; no edges in this sample.
        assert_eq!(events.len(), 2 + snap.spans.len() + snap.events.len());
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), snap.spans.len());
        for x in xs {
            assert!(x.get("ts").unwrap().as_f64().is_some());
            assert!(x.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(x.get("name").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn chrome_trace_gives_each_rank_its_own_lane_and_draws_flow_arrows() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let r0 = tele.fork(0);
        let r1 = tele.fork(1);
        {
            let _g = r0.span(Phase::SpmmForward);
            clock.advance(100);
        }
        {
            let _g = r1.span(Phase::SolverIteration);
            clock.advance(50);
        }
        r1.edge(0, 0x55, 64, 100, 30);
        let snap = tele.snapshot();
        let back = Json::parse(&chrome_trace(&snap)).expect("trace parses");
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        // 2 tracks × 2 metadata + 2 spans + 1 edge × 2 flow halves.
        assert_eq!(events.len(), 4 + 2 + 2);
        // Every rank gets a distinct pid == tid == track pair.
        for x in events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
        {
            assert_eq!(
                x.get("pid").unwrap().as_f64(),
                x.get("tid").unwrap().as_f64()
            );
        }
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert!(names.contains(&"rank 0"), "{names:?}");
        assert!(names.contains(&"rank 1"), "{names:?}");
        let start = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .expect("flow start");
        let finish = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .expect("flow finish");
        assert_eq!(start.get("pid").unwrap().as_f64(), Some(0.0));
        assert_eq!(finish.get("pid").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            start.get("id").unwrap().as_f64(),
            finish.get("id").unwrap().as_f64()
        );
        assert_eq!(finish.get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(
            start.get("args").unwrap().get("tag").unwrap().as_str(),
            Some("0x55")
        );
    }

    #[test]
    fn self_time_partition_survives_gaps_between_children() {
        // Root [0, 93] with two children and three uninstrumented gaps:
        // [gap 7][child 30][gap 11][child 40][gap 5].
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        {
            let _root = tele.span(Phase::Total);
            clock.advance(7);
            {
                let _a = tele.span(Phase::SpmmForward);
                clock.advance(30);
            }
            clock.advance(11);
            {
                let _b = tele.span(Phase::SpmmTranspose);
                clock.advance(40);
            }
            clock.advance(5);
        }
        let breakdown = Breakdown::from_snapshot(&tele.snapshot());
        assert_eq!(breakdown.covered_ns, 93);
        let self_sum: u64 = breakdown.stats.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, breakdown.covered_ns);
        let root = breakdown
            .stats
            .iter()
            .find(|s| s.phase == Phase::Total)
            .unwrap();
        // The gaps (7 + 11 + 5) are the root's self time.
        assert_eq!(root.self_ns, 23);
    }

    #[test]
    fn fmt_ns_picks_units_at_a_stable_width() {
        assert_eq!(fmt_ns(12), "     12 ns");
        assert_eq!(fmt_ns(1_500), "  1.500 µs");
        assert_eq!(fmt_ns(2_500_000), "  2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "  3.000  s");
        // All magnitudes land in the same 10-char field.
        for ns in [0, 7, 999, 1_000, 999_999, 1_000_000, 5_000_000_000] {
            assert_eq!(fmt_ns(ns).chars().count(), 10, "{:?}", fmt_ns(ns));
        }
    }
}
