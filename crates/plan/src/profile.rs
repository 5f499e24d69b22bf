//! `petaxct-profile-v1` — measured cost profiles as data.
//!
//! `petaxct profile` (and `reconstruct --profile-out`) runs a
//! reconstruction with telemetry on and writes what it measured as a
//! versioned JSON artifact: per-rank component
//! costs joined with the causal layer's slack, per-tile costs derived
//! from the rank SpMM time and the operator's nonzero distribution, a
//! model-vs-measured drift table, and a skew summary. The planner
//! closes the rebalance loop by consuming the artifact via
//! `--weights-from`: [`ProfileReport::tile_weights`] turns the per-tile
//! costs into the [`TileWeights`] the Hilbert partition re-runs with.

use crate::TileWeights;
use xct_comm::Topology;
use xct_fp16::Precision;
use xct_telemetry::{CostComponent, Json, ALL_COMPONENTS, COMPONENT_COUNT};

/// Schema tag stamped into every profile artifact;
/// [`ProfileReport::from_json`] rejects documents carrying any other
/// value.
pub const PROFILE_SCHEMA: &str = "petaxct-profile-v1";

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

    fn to_json(&self) -> Json {
        let components = ALL_COMPONENTS
            .iter()
            .map(|c| (c.as_str(), Json::from(self.components[c.index()])))
            .collect();
        Json::object(vec![
            ("rank", Json::from(u64::from(self.rank))),
            ("busy_ns", Json::from(self.busy_ns)),
            ("on_path_ns", Json::from(self.on_path_ns)),
            ("slack_ns", Json::from(self.slack_ns)),
            ("wire_ns", Json::from(self.wire_ns)),
            ("components", Json::object(components)),
        ])
    }

    fn from_json(json: &Json) -> Result<RankCost, String> {
        let table = json
            .get("components")
            .ok_or("rank entry has no \"components\" object")?;
        let mut components = [0u64; COMPONENT_COUNT];
        for c in ALL_COMPONENTS {
            components[c.index()] = table.u64_at(c.as_str())?;
        }
        Ok(RankCost {
            rank: u32::try_from(json.u64_at("rank")?).map_err(|_| "rank out of range")?,
            busy_ns: json.u64_at("busy_ns")?,
            on_path_ns: json.u64_at("on_path_ns")?,
            slack_ns: json.u64_at("slack_ns")?,
            wire_ns: json.u64_at("wire_ns")?,
            components,
        })
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

    fn to_json(self) -> Json {
        Json::object(vec![
            ("component", Json::from(self.component.as_str())),
            ("measured_ns", Json::from(self.measured_ns)),
            ("measured_share", Json::from(self.measured_share)),
            ("predicted_share", Json::from(self.predicted_share)),
            ("drift", Json::from(self.drift())),
        ])
    }

    fn from_json(json: &Json) -> Result<ComponentDrift, String> {
        let name = json.str_at("component")?;
        Ok(ComponentDrift {
            component: CostComponent::parse(name)
                .ok_or_else(|| format!("unknown cost component {name:?}"))?,
            measured_ns: json.u64_at("measured_ns")?,
            measured_share: json.f64_at("measured_share")?,
            predicted_share: json.f64_at("predicted_share")?,
        })
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

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("max_tile_ns", Json::from(self.max_tile_ns)),
            ("mean_tile_ns", Json::from(self.mean_tile_ns)),
            ("max_over_mean", Json::from(self.max_over_mean())),
            ("critical_path_ns", Json::from(self.critical_path_ns)),
            ("max_rank_slack_ns", Json::from(self.max_rank_slack_ns)),
            (
                "zero_slack_ranks",
                Json::from(
                    self.zero_slack_ranks
                        .iter()
                        .map(|&r| Json::from(u64::from(r)))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<SkewReport, String> {
        let zero_slack_ranks = json
            .array_at("zero_slack_ranks")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|r| u32::try_from(r).ok())
                    .ok_or("zero-slack rank is not a rank id")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SkewReport {
            max_tile_ns: json.u64_at("max_tile_ns")?,
            mean_tile_ns: json.f64_at("mean_tile_ns")?,
            critical_path_ns: json.u64_at("critical_path_ns")?,
            max_rank_slack_ns: json.u64_at("max_rank_slack_ns")?,
            zero_slack_ranks,
        })
    }
}

/// One full measured cost profile: the problem it profiled, per-tile
/// and per-rank costs, the drift table, and the skew summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Precision mode the profiled run used.
    pub precision: Precision,
    /// Grid side of the profiled problem.
    pub n: usize,
    /// Slices in the profiled stack.
    pub slices: usize,
    /// Projection angles per slice.
    pub angles: usize,
    /// Rank topology the run executed on.
    pub topology: Topology,
    /// Side length of the Hilbert tiles the per-tile costs key on.
    pub tile_size: usize,
    /// Tile-grid width (`ceil(n / tile_size)`).
    pub tiles_x: usize,
    /// Tile-grid height.
    pub tiles_y: usize,
    /// Derived per-tile cost, nanoseconds, row-major over the tile
    /// grid: the owning rank's measured SpMM self time spread over its
    /// tiles proportionally to per-tile operator nonzeros.
    pub tile_costs_ns: Vec<u64>,
    /// Per-rank measured costs, ascending by rank.
    pub ranks: Vec<RankCost>,
    /// Model-vs-measured drift rows, in [`ALL_COMPONENTS`] order.
    pub drift: Vec<ComponentDrift>,
    /// The skew summary.
    pub skew: SkewReport,
}

impl ProfileReport {
    /// The per-tile weights the planner re-partitions with
    /// (`--weights-from`).
    pub fn tile_weights(&self) -> TileWeights {
        TileWeights {
            tile_size: self.tile_size,
            weights: self.tile_costs_ns.clone(),
        }
    }

    /// Serializes to the `petaxct-profile-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::from(PROFILE_SCHEMA)),
            ("precision", Json::from(self.precision.label())),
            ("n", Json::from(self.n as u64)),
            ("slices", Json::from(self.slices as u64)),
            ("angles", Json::from(self.angles as u64)),
            ("topology", Json::from(self.topology.to_string())),
            ("tile_size", Json::from(self.tile_size as u64)),
            ("tiles_x", Json::from(self.tiles_x as u64)),
            ("tiles_y", Json::from(self.tiles_y as u64)),
            (
                "tile_costs_ns",
                Json::from(
                    self.tile_costs_ns
                        .iter()
                        .map(|&ns| Json::from(ns))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "ranks",
                Json::from(self.ranks.iter().map(RankCost::to_json).collect::<Vec<_>>()),
            ),
            (
                "drift",
                Json::from(self.drift.iter().map(|d| d.to_json()).collect::<Vec<_>>()),
            ),
            ("skew", self.skew.to_json()),
        ])
    }

    /// Decodes a parsed document, validating the schema tag, the tile
    /// table length against the declared grid, and rank ordering.
    pub fn from_json(json: &Json) -> Result<ProfileReport, String> {
        json.expect_schema(PROFILE_SCHEMA)?;
        let tile_costs_ns = json
            .array_at("tile_costs_ns")?
            .iter()
            .map(|v| v.as_u64().ok_or("tile cost is not a nanosecond count"))
            .collect::<Result<Vec<_>, _>>()?;
        let ranks = json
            .array_at("ranks")?
            .iter()
            .map(RankCost::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(w) = ranks.windows(2).find(|w| w[0].rank >= w[1].rank) {
            return Err(format!(
                "rank entries out of order: {} then {}",
                w[0].rank, w[1].rank
            ));
        }
        let drift = json
            .array_at("drift")?
            .iter()
            .map(ComponentDrift::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let skew = SkewReport::from_json(json.get("skew").ok_or("missing field \"skew\"")?)?;
        let report = ProfileReport {
            precision: json
                .str_at("precision")?
                .parse()
                .map_err(|e| format!("bad precision: {e}"))?,
            n: json.usize_at("n")?,
            slices: json.usize_at("slices")?,
            angles: json.usize_at("angles")?,
            topology: json.str_at("topology")?.parse()?,
            tile_size: json.usize_at("tile_size")?,
            tiles_x: json.usize_at("tiles_x")?,
            tiles_y: json.usize_at("tiles_y")?,
            tile_costs_ns,
            ranks,
            drift,
            skew,
        };
        if report.tiles_x.checked_mul(report.tiles_y) != Some(report.tile_costs_ns.len()) {
            return Err(format!(
                "tile cost table has {} entries, grid is {}x{}",
                report.tile_costs_ns.len(),
                report.tiles_x,
                report.tiles_y
            ));
        }
        Ok(report)
    }

    /// Parses artifact text (convenience over [`Json::parse`] +
    /// [`ProfileReport::from_json`]).
    pub fn parse(text: &str) -> Result<ProfileReport, String> {
        ProfileReport::from_json(&Json::parse(text)?)
    }

    /// Renders the drift and skew tables as fixed-width text (the
    /// `petaxct profile` human output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: n={} slices={} angles={} topology={} precision={} tiles={}x{} (tile {})",
            self.n,
            self.slices,
            self.angles,
            self.topology,
            self.precision.label(),
            self.tiles_x,
            self.tiles_y,
            self.tile_size,
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
            n: 16,
            slices: 2,
            angles: 16,
            topology: Topology::new(1, 2, 2),
            tile_size: 4,
            tiles_x: 4,
            tiles_y: 4,
            tile_costs_ns: (0..16u64).map(|i| i * 100).collect(),
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
    fn json_round_trip_is_identity() {
        let r = report();
        let text = r.to_json().to_string();
        let back = ProfileReport::parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn weights_extraction_matches_the_tile_table() {
        let r = report();
        let w = r.tile_weights();
        assert_eq!(w.tile_size, 4);
        assert_eq!(w.weights, r.tile_costs_ns);
        assert_eq!(w.expected_len(16), 16);
        assert_eq!(w.grid_side(16), 4);
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
