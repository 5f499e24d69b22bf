//! The cost profile, a view of a run document:
//! [`ProfileReport::from_document`] joins the log's per-component self
//! times ([`ProfileSnapshot`]) with the causal layer's critical-path
//! attribution and each rank's received wire time, scores the measured
//! shares against a model's (the drift table), and summarises how
//! unevenly tile costs and rank slack are spread (the skew).

use crate::run::{PlanShape, RunDocument};
use crate::TileWeights;
use xct_comm::Topology;
use xct_fp16::Precision;
use xct_telemetry::{
    CausalAnalysis, CostComponent, ProfileSnapshot, ALL_COMPONENTS, COMPONENT_COUNT,
};

/// One rank's measured costs: the profiler's per-component self times
/// joined with the causal layer's critical-path attribution and the
/// wire time charged to messages this rank received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankCost {
    /// Rank (telemetry track) id.
    pub rank: u32,
    /// Total busy nanoseconds (merged root spans, causal layer).
    pub busy_ns: u64,
    /// Nanoseconds of this rank's work on the critical path.
    pub on_path_ns: u64,
    /// Slack: busy time the critical path does not depend on. Zero
    /// marks a straggler.
    pub slack_ns: u64,
    /// Simulated wire nanoseconds of messages matched on this rank.
    pub wire_ns: u64,
    /// Per-component self-time nanoseconds, in
    /// [`ALL_COMPONENTS`] order.
    pub components: [u64; COMPONENT_COUNT],
}

impl RankCost {
    /// The nanoseconds this rank charged to `component`.
    pub fn component_ns(&self, component: CostComponent) -> u64 {
        self.components[component.index()]
    }
}

/// One row of the model-vs-measured drift table: how much of the run a
/// component actually cost against how much the Tables III–IV analytic
/// model predicted it would.
///
/// Shares (fractions of the respective totals) rather than absolute
/// times carry the comparison, because the mini-scale executor and the
/// paper-scale model live at very different magnitudes; the absolute
/// measured time is kept alongside for the skew math.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentDrift {
    /// The attributed component.
    pub component: CostComponent,
    /// Measured self time, nanoseconds.
    pub measured_ns: u64,
    /// Measured fraction of total attributed time.
    pub measured_share: f64,
    /// Model-predicted fraction of total predicted time.
    pub predicted_share: f64,
}

impl ComponentDrift {
    /// Signed drift: measured share minus predicted share. Positive
    /// means the component costs more of the run than the model thinks.
    pub fn drift(&self) -> f64 {
        self.measured_share - self.predicted_share
    }
}

/// The skew summary: how unevenly cost is spread over tiles and ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Cost of the most expensive tile, nanoseconds.
    pub max_tile_ns: u64,
    /// Mean per-tile cost, nanoseconds.
    pub mean_tile_ns: f64,
    /// Causal critical path of the measured run, nanoseconds.
    pub critical_path_ns: u64,
    /// The largest per-rank slack — the quantity weighted repartition
    /// is meant to shrink.
    pub max_rank_slack_ns: u64,
    /// Ranks with zero slack (stragglers the critical path runs
    /// through), ascending.
    pub zero_slack_ranks: Vec<u32>,
}

impl SkewReport {
    /// Max-over-mean tile cost: 1.0 is perfectly uniform.
    pub fn max_over_mean(&self) -> f64 {
        if self.mean_tile_ns == 0.0 {
            0.0
        } else {
            self.max_tile_ns as f64 / self.mean_tile_ns
        }
    }
}

/// One measured cost profile: the problem it profiled, per-rank costs,
/// the drift table and the skew summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Precision mode the profiled run used.
    pub precision: Precision,
    /// The profiled problem and plan.
    pub plan: PlanShape,
    /// Rank topology the run executed on.
    pub topology: Topology,
    /// The document's derived per-tile costs.
    pub tiles: TileWeights,
    /// Per-rank measured costs, ascending by rank.
    pub ranks: Vec<RankCost>,
    /// Model-vs-measured drift rows, in [`ALL_COMPONENTS`] order.
    pub drift: Vec<ComponentDrift>,
    /// The skew summary.
    pub skew: SkewReport,
}

impl ProfileReport {
    /// The profile of `doc`'s run, scored against a model's `predicted`
    /// share per component (zeros without a model). The document must
    /// name its topology, precision and plan, carry tile costs of a
    /// nonzero tile size, and hold a track for each of its ranks.
    pub fn from_document(
        doc: &RunDocument,
        predicted: [f64; COMPONENT_COUNT],
    ) -> Result<ProfileReport, String> {
        let h = &doc.header;
        let missing = |what: &str| format!("the run document names no {what}");
        let topology = h.topology.ok_or_else(|| missing("topology"))?;
        let tiles = doc.tiles.clone().filter(|t| t.tile_size > 0);
        let tiles = tiles.ok_or_else(|| missing("tile costs of a nonzero tile size"))?;
        let precision = h.precision.ok_or_else(|| missing("precision"))?;
        let plan = h.plan.ok_or_else(|| missing("plan"))?;
        // Every rank of a run records on its own track; the check also
        // keeps a document's topology from sizing the rank table alone.
        let ranks = topology.size();
        let tracks = (doc.log.spans.iter()).map(|s| s.track as usize + 1).max();
        if ranks > tracks.unwrap_or(0) {
            return Err(format!("{ranks} ranks, but the log holds fewer tracks"));
        }
        let causal = CausalAnalysis::from_snapshot(&doc.log);
        let profile = ProfileSnapshot::from_snapshot(&doc.log);

        // Per-rank wire time: simulated wire nanoseconds of messages this
        // rank received (matched), summed from the causal edges.
        let mut wire_by_rank = vec![0u64; ranks];
        for e in &doc.log.edges {
            if let Some(w) = wire_by_rank.get_mut(e.dst_track as usize) {
                *w = w.saturating_add(e.wire_ns);
            }
        }
        let rank_costs = (wire_by_rank.iter().enumerate())
            .map(|(rank, &wire_ns)| {
                let path = causal.per_rank.iter().find(|r| r.track as usize == rank);
                RankCost {
                    rank: rank as u32,
                    busy_ns: path.map_or(0, |r| r.busy_ns),
                    on_path_ns: path.map_or(0, |r| r.on_path_ns),
                    slack_ns: path.map_or(0, |r| r.slack_ns),
                    wire_ns,
                    components: ALL_COMPONENTS.map(|c| profile.track_component_ns(rank, c)),
                }
            })
            .collect();

        // Model-vs-measured drift, in shares of the respective totals.
        let measured_total = profile.total_ns();
        let drift = (ALL_COMPONENTS.iter())
            .map(|&component| {
                let measured_ns = profile.component_ns(component);
                ComponentDrift {
                    component,
                    measured_ns,
                    measured_share: if measured_total == 0 {
                        0.0
                    } else {
                        measured_ns as f64 / measured_total as f64
                    },
                    predicted_share: predicted[component.index()],
                }
            })
            .collect();

        let costs = &tiles.weights;
        let mut zero_slack_ranks: Vec<u32> = (causal.per_rank.iter())
            .filter(|r| r.slack_ns == 0)
            .map(|r| r.track)
            .collect();
        zero_slack_ranks.sort_unstable();
        let skew = SkewReport {
            max_tile_ns: costs.iter().copied().max().unwrap_or(0),
            mean_tile_ns: if costs.is_empty() {
                0.0
            } else {
                // A document's costs are external input, each up to
                // 2^53: summed in u128, they cannot wrap.
                costs.iter().copied().map(u128::from).sum::<u128>() as f64 / costs.len() as f64
            },
            critical_path_ns: causal.critical_path_ns,
            max_rank_slack_ns: causal
                .per_rank
                .iter()
                .map(|r| r.slack_ns)
                .max()
                .unwrap_or(0),
            zero_slack_ranks,
        };
        Ok(ProfileReport {
            precision,
            plan,
            topology,
            tiles,
            ranks: rank_costs,
            drift,
            skew,
        })
    }

    /// Renders the drift and skew tables as fixed-width text (the
    /// `petaxct profile` human output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let side = self.plan.n.div_ceil(self.tiles.tile_size);
        let _ = writeln!(
            out,
            "profile: n={} slices={} angles={} topology={} precision={} tiles={side}x{side} (tile {})",
            self.plan.n,
            self.plan.slices,
            self.plan.angles,
            self.topology,
            self.precision.label(),
            self.tiles.tile_size,
        );
        let _ = writeln!(
            out,
            "\n{:<16} {:>14} {:>10} {:>10} {:>8}",
            "component", "measured", "meas%", "model%", "drift"
        );
        for row in &self.drift {
            let _ = writeln!(
                out,
                "{:<16} {:>12}ns {:>9.1}% {:>9.1}% {:>+7.1}%",
                row.component.as_str(),
                row.measured_ns,
                row.measured_share * 100.0,
                row.predicted_share * 100.0,
                row.drift() * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "\nskew: max tile {}ns, mean tile {:.0}ns (max/mean {:.2})",
            self.skew.max_tile_ns,
            self.skew.mean_tile_ns,
            self.skew.max_over_mean(),
        );
        let _ = writeln!(
            out,
            "critical path {}ns, max rank slack {}ns, zero-slack ranks {:?}",
            self.skew.critical_path_ns, self.skew.max_rank_slack_ns, self.skew.zero_slack_ranks,
        );
        let _ = writeln!(
            out,
            "\n{:<6} {:>12} {:>12} {:>12} {:>12}",
            "rank", "busy", "on-path", "slack", "wire"
        );
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "{:<6} {:>10}ns {:>10}ns {:>10}ns {:>10}ns",
                r.rank, r.busy_ns, r.on_path_ns, r.slack_ns, r.wire_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ProfileReport {
        ProfileReport {
            precision: Precision::Single,
            plan: PlanShape {
                n: 16,
                slices: 2,
                angles: 16,
                fusing: 2,
                slabs: 1,
                partitioning: crate::Partitioning { batch: 1, data: 4 },
            },
            topology: Topology::new(1, 2, 2),
            tiles: TileWeights {
                tile_size: 4,
                weights: (0..16u64).map(|i| i * 100).collect(),
            },
            ranks: vec![
                RankCost {
                    rank: 0,
                    busy_ns: 1_000,
                    on_path_ns: 1_000,
                    slack_ns: 0,
                    wire_ns: 50,
                    components: [400, 100, 100, 100, 100, 150, 50],
                },
                RankCost {
                    rank: 1,
                    busy_ns: 800,
                    on_path_ns: 300,
                    slack_ns: 500,
                    wire_ns: 0,
                    components: [300, 100, 100, 100, 100, 100, 0],
                },
            ],
            drift: ALL_COMPONENTS
                .iter()
                .map(|&component| ComponentDrift {
                    component,
                    measured_ns: 700,
                    measured_share: 1.0 / 7.0,
                    predicted_share: 0.125,
                })
                .collect(),
            skew: SkewReport {
                max_tile_ns: 1_500,
                mean_tile_ns: 750.0,
                critical_path_ns: 1_300,
                max_rank_slack_ns: 500,
                zero_slack_ranks: vec![0],
            },
        }
    }

    #[test]
    fn a_document_is_profiled_only_with_what_the_view_needs() {
        let view = |doc: &RunDocument| ProfileReport::from_document(doc, [0.0; COMPONENT_COUNT]);
        let mut doc = RunDocument::default();
        assert!(view(&doc).unwrap_err().contains("topology"));
        doc.header.topology = Some(Topology::new(1, 2, 2));
        doc.tiles = Some(TileWeights {
            tile_size: 0,
            weights: Vec::new(),
        });
        assert!(view(&doc).unwrap_err().contains("nonzero tile size"));
        doc.tiles = report().tiles.into();
        assert!(view(&doc).unwrap_err().contains("precision"));
        doc.header.precision = Some(Precision::Single);
        doc.header.plan = Some(report().plan);
        assert!(view(&doc).unwrap_err().contains("4 ranks"));
        doc.log.spans = (0..4)
            .map(|track| xct_telemetry::SpanRecord {
                phase: xct_telemetry::Phase::SpmmForward,
                track,
                start_ns: 0,
                end_ns: 10,
                parent: None,
            })
            .collect();
        let profile = view(&doc).unwrap();
        assert_eq!(profile.ranks.len(), 4);
        assert_eq!(profile.skew.max_tile_ns, 1_500);
        assert!(profile
            .render_text()
            .starts_with("profile: n=16 slices=2 angles=16"));
    }

    #[test]
    fn drift_and_skew_math_is_exact() {
        let row = ComponentDrift {
            component: CostComponent::SpmmCompute,
            measured_ns: 500,
            measured_share: 0.5,
            predicted_share: 0.25,
        };
        assert_eq!(row.drift(), 0.25);
        let skew = report().skew;
        assert_eq!(skew.max_over_mean(), 2.0);
        let empty = SkewReport {
            mean_tile_ns: 0.0,
            ..skew
        };
        assert_eq!(empty.max_over_mean(), 0.0);
    }

    #[test]
    fn text_rendering_names_every_component_and_rank() {
        let text = report().render_text();
        for c in ALL_COMPONENTS {
            assert!(text.contains(c.as_str()), "missing {c} in:\n{text}");
        }
        assert!(text.contains("max rank slack 500ns"), "{text}");
        assert!(text.contains("zero-slack ranks [0]"), "{text}");
    }
}
