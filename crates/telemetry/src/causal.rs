//! Happens-before analysis over a [`TelemetrySnapshot`].
//!
//! Fuses the per-rank span tracks with the send→recv match edges the
//! comm runtime records ([`EdgeRecord`]) into a happens-before DAG and
//! computes the **critical path** — the longest weighted chain of busy
//! span time plus wire edges — along with per-rank **slack** (how much
//! a rank could slow down before it moves onto the critical path).
//! See DESIGN.md §3e for the model.
//!
//! The DAG is built over *segments*, not whole spans: each track's
//! timeline is cut at every communication instant it participates in
//! (the `sent_ns` of its outgoing edges, the `matched_ns` of its
//! incoming edges). A match edge then runs from the segment that *ends*
//! at the send instant to the segment that *starts* at the match
//! instant, so every edge points forward in time and the graph is
//! acyclic by construction (edges with `matched_ns < sent_ns`, which
//! only a rewound manual clock can produce, are dropped).
//!
//! A segment's weight is the *busy* time inside it: the overlap of the
//! track's merged root spans with the segment. Blocking waits inside an
//! instrumented span count as busy — like a sampling profiler, the
//! analysis attributes wall time to whichever phase held the rank —
//! while the wire edges bound how early a receive *could* have matched.

use crate::{fmt_ns, EdgeRecord, TelemetrySnapshot};

/// One node of the segment DAG: a slice of one track's timeline.
#[derive(Clone, Debug)]
struct Node {
    track_idx: usize,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
}

/// Per-rank critical-path attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankPath {
    /// Track (rank) id.
    pub track: u32,
    /// Total busy time on this track (union of its root spans).
    pub busy_ns: u64,
    /// Busy time this track contributes to the critical path.
    pub on_path_ns: u64,
    /// How much this track's longest chain falls short of the critical
    /// path: 0 means the rank is a straggler bounding end-to-end time.
    pub slack_ns: u64,
}

/// One hop of the critical path (maximal run on a single track).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Track (rank) the step runs on.
    pub track: u32,
    /// Step start in collector nanoseconds.
    pub start_ns: u64,
    /// Step end in collector nanoseconds.
    pub end_ns: u64,
    /// Busy time inside the step.
    pub busy_ns: u64,
    /// Wire cost of the match edge that entered this step (0 for the
    /// first step or same-track continuation).
    pub wire_in_ns: u64,
}

/// Critical path and slack over one snapshot's happens-before DAG.
#[derive(Clone, Debug, Default)]
pub struct CausalAnalysis {
    /// Length of the critical path: busy time plus wire edges along the
    /// longest chain. Lower-bounds end-to-end wall time.
    pub critical_path_ns: u64,
    /// Portion of the critical path spent on simulated wire edges.
    pub wire_on_path_ns: u64,
    /// Per-rank busy/on-path/slack attribution, sorted by track.
    pub per_rank: Vec<RankPath>,
    /// The critical path itself, earliest step first.
    pub steps: Vec<PathStep>,
}

/// Total busy overlap of sorted disjoint `intervals` with `[s, e)`.
fn overlap_ns(intervals: &[(u64, u64)], s: u64, e: u64) -> u64 {
    intervals
        .iter()
        .map(|&(is, ie)| ie.min(e).saturating_sub(is.max(s)))
        .sum()
}

impl CausalAnalysis {
    /// Builds the segment DAG from a snapshot and extracts the critical
    /// path. Cost is `O(spans + edges · log)` — cheap next to the run
    /// that produced the snapshot.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> CausalAnalysis {
        // -- tracks ----------------------------------------------------
        let mut tracks: Vec<u32> = snap
            .spans
            .iter()
            .map(|s| s.track)
            .chain(snap.edges.iter().flat_map(|e| [e.src_track, e.dst_track]))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        let nt = tracks.len();
        // xct-allow(no-panic): infallible — tracks was built from these same records
        let t_idx = |t: u32| tracks.binary_search(&t).expect("track collected above");
        // Edges a rewound manual clock made non-causal are dropped.
        let edges: Vec<&EdgeRecord> = snap
            .edges
            .iter()
            .filter(|e| e.matched_ns >= e.sent_ns)
            .collect();

        // -- per-track busy intervals (merged root spans) --------------
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nt];
        for s in snap.spans.iter().filter(|s| s.parent.is_none()) {
            busy[t_idx(s.track)].push((s.start_ns, s.end_ns));
        }
        for b in &mut busy {
            b.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(b.len());
            for &(s, e) in b.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *b = merged;
        }

        // -- cut points and segment nodes ------------------------------
        let mut cuts: Vec<Vec<u64>> = vec![Vec::new(); nt];
        for e in &edges {
            cuts[t_idx(e.src_track)].push(e.sent_ns);
            cuts[t_idx(e.dst_track)].push(e.matched_ns);
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut bounds: Vec<Vec<u64>> = Vec::with_capacity(nt);
        let mut offset: Vec<usize> = Vec::with_capacity(nt);
        let mut count: Vec<usize> = Vec::with_capacity(nt);
        for i in 0..nt {
            let mut b = std::mem::take(&mut cuts[i]);
            if let Some(&(s, _)) = busy[i].first() {
                b.push(s);
            }
            if let Some(&(_, e)) = busy[i].last() {
                b.push(e);
            }
            b.sort_unstable();
            b.dedup();
            offset.push(nodes.len());
            match b.len() {
                0 => count.push(0),
                1 => {
                    // A track that only exists at one instant (e.g. a
                    // zero-length span or a lone edge endpoint).
                    count.push(1);
                    nodes.push(Node {
                        track_idx: i,
                        start_ns: b[0],
                        end_ns: b[0],
                        busy_ns: 0,
                    });
                }
                _ => {
                    count.push(b.len() - 1);
                    for w in b.windows(2) {
                        nodes.push(Node {
                            track_idx: i,
                            start_ns: w[0],
                            end_ns: w[1],
                            busy_ns: overlap_ns(&busy[i], w[0], w[1]),
                        });
                    }
                }
            }
            bounds.push(b);
        }
        let n = nodes.len();

        // -- lower match edges onto segment nodes ----------------------
        // src: the segment ending at sent_ns (None when nothing on the
        // sender's timeline precedes the send — the edge then starts the
        // chain with its wire cost). dst: the segment starting at
        // matched_ns (None when nothing follows the match — the edge
        // then extends the chain past its source node).
        let mut in_match: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut free_in: Vec<u64> = vec![0; n];
        let mut tail_out: Vec<u64> = vec![0; n];
        for e in &edges {
            let (si, di) = (t_idx(e.src_track), t_idx(e.dst_track));
            let src = bounds[si].binary_search(&e.sent_ns).ok().and_then(|pos| {
                if count[si] == 0 {
                    None
                } else if bounds[si].len() == 1 {
                    Some(offset[si])
                } else if pos == 0 {
                    None
                } else {
                    Some(offset[si] + pos - 1)
                }
            });
            let dst = bounds[di]
                .binary_search(&e.matched_ns)
                .ok()
                .and_then(|pos| {
                    if count[di] == 0 {
                        None
                    } else if bounds[di].len() == 1 {
                        Some(offset[di])
                    } else if pos == count[di] {
                        None
                    } else {
                        Some(offset[di] + pos)
                    }
                });
            match (src, dst) {
                (Some(s), Some(d)) if s != d => in_match[d].push((s, e.wire_ns)),
                (None, Some(d)) => free_in[d] = free_in[d].max(e.wire_ns),
                (Some(s), None) => tail_out[s] = tail_out[s].max(e.wire_ns),
                _ => {}
            }
        }

        // -- longest-path sweeps ---------------------------------------
        // Every edge (program-order or match) runs from a node ending at
        // time t to a node starting at >= t, so processing nodes in
        // (start, end) order visits all predecessors first; no explicit
        // toposort is needed. (Two zero-length nodes at the same instant
        // with edges both ways would be a degenerate zero-weight cycle;
        // the sort breaks it arbitrarily, costing nothing.)
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| (nodes[v].start_ns, nodes[v].end_ns, v));
        let mut fdist = vec![0u64; n];
        for &v in &order {
            let node = &nodes[v];
            let mut best = free_in[v];
            if v > offset[node.track_idx] {
                best = best.max(fdist[v - 1]);
            }
            for &(s, w) in &in_match[v] {
                best = best.max(fdist[s].saturating_add(w));
            }
            fdist[v] = best.saturating_add(node.busy_ns);
        }
        // Backward pass mirrors the forward one for slack attribution.
        let mut out_match: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for (d, ins) in in_match.iter().enumerate() {
            for &(s, w) in ins {
                out_match[s].push((d, w));
            }
        }
        let mut bdist = vec![0u64; n];
        for &v in order.iter().rev() {
            let node = &nodes[v];
            let mut best = tail_out[v];
            if v + 1 < offset[node.track_idx] + count[node.track_idx] {
                best = best.max(bdist[v + 1]);
            }
            for &(d, w) in &out_match[v] {
                best = best.max(bdist[d].saturating_add(w));
            }
            bdist[v] = best.saturating_add(node.busy_ns);
        }

        // -- critical path ---------------------------------------------
        let mut cp = 0u64;
        let mut cp_end: Option<usize> = None;
        for v in 0..n {
            let total = fdist[v].saturating_add(tail_out[v]);
            if cp_end.is_none() || total > cp {
                cp = total;
                cp_end = Some(v);
            }
        }
        let tail_wire = cp_end.map_or(0, |v| cp - fdist[v]);

        // Walk backwards from the end node, always taking an in-edge
        // that realises fdist, recording the wire cost used to enter
        // each node.
        let mut rev: Vec<(usize, u64)> = Vec::new();
        if let Some(end) = cp_end {
            let mut v = end;
            loop {
                let need = fdist[v].saturating_sub(nodes[v].busy_ns);
                let ti = nodes[v].track_idx;
                let mut pred: Option<(usize, u64)> = None;
                if need > 0 {
                    if v > offset[ti] && fdist[v - 1] == need {
                        pred = Some((v - 1, 0));
                    } else {
                        pred = in_match[v]
                            .iter()
                            .find(|&&(s, w)| fdist[s].saturating_add(w) == need)
                            .copied();
                    }
                }
                match pred {
                    Some((p, w)) => {
                        rev.push((v, w));
                        v = p;
                    }
                    None => {
                        // `need` (if any) came from a free_in wire edge.
                        rev.push((v, need));
                        break;
                    }
                }
            }
        }
        let mut on_path = vec![0u64; nt];
        let mut wire_on_path = tail_wire;
        let mut steps: Vec<PathStep> = Vec::new();
        for &(v, w) in rev.iter().rev() {
            let node = &nodes[v];
            on_path[node.track_idx] += node.busy_ns;
            wire_on_path += w;
            match steps.last_mut() {
                Some(last) if last.track == tracks[node.track_idx] && w == 0 => {
                    last.end_ns = node.end_ns;
                    last.busy_ns += node.busy_ns;
                }
                _ => steps.push(PathStep {
                    track: tracks[node.track_idx],
                    start_ns: node.start_ns,
                    end_ns: node.end_ns,
                    busy_ns: node.busy_ns,
                    wire_in_ns: w,
                }),
            }
        }

        // -- per-rank slack --------------------------------------------
        let per_rank = (0..nt)
            .map(|i| {
                let through = (offset[i]..offset[i] + count[i])
                    .map(|v| {
                        fdist[v]
                            .saturating_add(bdist[v])
                            .saturating_sub(nodes[v].busy_ns)
                    })
                    .max()
                    .unwrap_or(0);
                RankPath {
                    track: tracks[i],
                    busy_ns: busy[i].iter().map(|&(s, e)| e - s).sum(),
                    on_path_ns: on_path[i],
                    slack_ns: cp.saturating_sub(through),
                }
            })
            .collect();

        CausalAnalysis {
            critical_path_ns: cp,
            wire_on_path_ns: wire_on_path,
            per_rank,
            steps,
        }
    }

    /// The Fig-10-style per-rank critical-path/slack table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path {} · wire on path {} · {} step(s)\n",
            fmt_ns(self.critical_path_ns).trim_start(),
            fmt_ns(self.wire_on_path_ns).trim_start(),
            self.steps.len()
        ));
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>10} {:>7}\n",
            "rank", "busy", "on path", "slack", "% path"
        ));
        for r in &self.per_rank {
            let pct = if self.critical_path_ns == 0 {
                0.0
            } else {
                100.0 * r.on_path_ns as f64 / self.critical_path_ns as f64
            };
            let marker = if r.slack_ns == 0 { " *" } else { "" };
            out.push_str(&format!(
                "{:<6} {} {} {} {:>6.1}%{}\n",
                r.track,
                fmt_ns(r.busy_ns),
                fmt_ns(r.on_path_ns),
                fmt_ns(r.slack_ns),
                pct,
                marker
            ));
        }
        out.push_str("(* = zero slack: the rank bounds end-to-end time)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManualClock, Phase, Telemetry};
    use std::sync::Arc;

    /// Records a root span [start, end] on `tele`'s track.
    fn span_at(tele: &Telemetry, clock: &ManualClock, phase: Phase, start: u64, end: u64) {
        clock.set(start);
        let g = tele.span(phase);
        clock.set(end);
        drop(g);
    }

    /// The deterministic 3-rank fixture from DESIGN.md §3e:
    ///
    /// - rank 0 busy [0, 100], sends at 100 (wire 50)
    /// - rank 1 matches at 150, busy [150, 250]
    /// - rank 2 busy [0, 120], no communication
    ///
    /// Critical path = 100 + 50 + 100 = 250 through ranks 0 → 1;
    /// rank 2's longest chain is its own 120, so slack = 130.
    fn three_rank_fixture() -> TelemetrySnapshot {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let r0 = tele.fork(0);
        let r1 = tele.fork(1);
        let r2 = tele.fork(2);
        span_at(&r0, &clock, Phase::SpmmForward, 0, 100);
        span_at(&r2, &clock, Phase::SolverIteration, 0, 120);
        span_at(&r1, &clock, Phase::SolverIteration, 150, 250);
        clock.set(150);
        r1.edge(0, 7, 1024, 100, 50);
        tele.snapshot()
    }

    #[test]
    fn exact_critical_path_and_slack_on_the_three_rank_fixture() {
        let causal = CausalAnalysis::from_snapshot(&three_rank_fixture());
        assert_eq!(causal.critical_path_ns, 250);
        assert_eq!(causal.wire_on_path_ns, 50);
        assert_eq!(
            causal.per_rank,
            vec![
                RankPath {
                    track: 0,
                    busy_ns: 100,
                    on_path_ns: 100,
                    slack_ns: 0
                },
                RankPath {
                    track: 1,
                    busy_ns: 100,
                    on_path_ns: 100,
                    slack_ns: 0
                },
                RankPath {
                    track: 2,
                    busy_ns: 120,
                    on_path_ns: 0,
                    slack_ns: 130
                },
            ]
        );
        // The path itself: rank 0's span, then the wire edge into rank 1.
        assert_eq!(
            causal.steps,
            vec![
                PathStep {
                    track: 0,
                    start_ns: 0,
                    end_ns: 100,
                    busy_ns: 100,
                    wire_in_ns: 0
                },
                PathStep {
                    track: 1,
                    start_ns: 150,
                    end_ns: 250,
                    busy_ns: 100,
                    wire_in_ns: 50
                },
            ]
        );
        // Path accounting closes: busy on path + wire == critical path.
        let busy_on_path: u64 = causal.steps.iter().map(|s| s.busy_ns).sum();
        assert_eq!(
            busy_on_path + causal.wire_on_path_ns,
            causal.critical_path_ns
        );
    }

    #[test]
    fn a_send_mid_span_splits_the_segment_and_keeps_the_local_chain() {
        // rank 0 busy [0, 100] but sends at 40 (wire 20); rank 1 matches
        // at 60 and is busy [60, 90]. rank 0's own chain (100) still
        // dominates the cross-rank chain 40 + 20 + 30 = 90.
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let r0 = tele.fork(0);
        let r1 = tele.fork(1);
        span_at(&r0, &clock, Phase::SpmmForward, 0, 100);
        span_at(&r1, &clock, Phase::SolverIteration, 60, 90);
        clock.set(60);
        r1.edge(0, 3, 8, 40, 20);
        let causal = CausalAnalysis::from_snapshot(&tele.snapshot());
        assert_eq!(causal.critical_path_ns, 100);
        assert_eq!(causal.wire_on_path_ns, 0);
        let r0_path = &causal.per_rank[0];
        let r1_path = &causal.per_rank[1];
        assert_eq!(r0_path.slack_ns, 0);
        assert_eq!(r0_path.on_path_ns, 100);
        // rank 1's best chain is 40 (pre-send on rank 0) + 20 + 30 = 90.
        assert_eq!(r1_path.slack_ns, 10);
        assert_eq!(r1_path.on_path_ns, 0);
    }

    #[test]
    fn wire_edges_extend_past_a_trailing_match() {
        // rank 0 busy [0, 100], sends at 100 with wire 40; rank 1's only
        // presence is the match instant at 140 (no spans). The chain
        // still counts the wire: cp = 140.
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let r0 = tele.fork(0);
        let r1 = tele.fork(1);
        span_at(&r0, &clock, Phase::SpmmForward, 0, 100);
        clock.set(140);
        r1.edge(0, 9, 8, 100, 40);
        let causal = CausalAnalysis::from_snapshot(&tele.snapshot());
        assert_eq!(causal.critical_path_ns, 140);
        assert_eq!(causal.wire_on_path_ns, 40);
    }

    #[test]
    fn empty_snapshot_yields_an_empty_analysis() {
        let causal = CausalAnalysis::from_snapshot(&TelemetrySnapshot::default());
        assert_eq!(causal.critical_path_ns, 0);
        assert!(causal.per_rank.is_empty());
        assert!(causal.steps.is_empty());
    }

    #[test]
    fn non_causal_edges_from_a_rewound_clock_are_ignored() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        let r0 = tele.fork(0);
        let r1 = tele.fork(1);
        span_at(&r0, &clock, Phase::SpmmForward, 0, 50);
        span_at(&r1, &clock, Phase::SpmmForward, 0, 60);
        clock.set(10);
        r1.edge(0, 1, 8, 99, 5); // matched 10 < sent 99: dropped
        let causal = CausalAnalysis::from_snapshot(&tele.snapshot());
        assert_eq!(causal.critical_path_ns, 60);
        assert_eq!(causal.wire_on_path_ns, 0);
    }

    #[test]
    fn table_carries_the_key_fields() {
        let causal = CausalAnalysis::from_snapshot(&three_rank_fixture());
        let table = causal.render_table();
        assert!(table.contains("critical path"), "{table}");
        assert!(table.contains("slack"), "{table}");
        assert!(table.contains('*'), "straggler marker missing: {table}");
        assert!(table.starts_with("critical path 250 ns"), "{table}");
        assert_eq!((causal.per_rank.len(), causal.steps.len()), (3, 2));
    }
}
