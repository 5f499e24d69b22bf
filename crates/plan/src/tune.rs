//! `petaxct-tune-v1` — kernel tile-shape autotune results as data.
//!
//! `petaxct tune` sweeps the SpMM tile parameters (thread-block size ×
//! shared-staging bytes × fusing) through the perf-suite machinery and
//! writes the measurements as a versioned JSON artifact. The planner
//! consumes that artifact via `--tune-from`: the best point's
//! [`KernelShape`] overrides the executor's default block size and
//! shared-memory budget, and its fusing seeds the planner's fusing cap.
//! Keeping the sweep's raw points (not just the winner) makes the
//! artifact auditable — a reviewer can re-rank under a different figure
//! of merit without re-measuring.

use xct_fp16::Precision;
use xct_telemetry::Json;

/// Schema tag stamped into every tune artifact; [`TuneReport::from_json`]
/// rejects documents carrying any other value.
pub const TUNE_SCHEMA: &str = "petaxct-tune-v1";

/// The kernel tile shape a plan carries to the executor: the CPU
/// realization's analogs of the CUDA launch geometry (threads per block)
/// and shared-memory carve-out (staging bytes per block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelShape {
    /// Rows per thread block (must be a multiple of the 32-lane warp).
    pub block_size: usize,
    /// Shared-staging bytes per block (bounds slots per stage).
    pub shared_bytes: usize,
}

impl KernelShape {
    /// The shape every run packs at unless a tune artifact says otherwise:
    /// 64 rows per block, a V100's 96 KiB of staging (DESIGN.md §3f).
    pub const DEFAULT: KernelShape = KernelShape {
        block_size: 64,
        shared_bytes: 96 * 1024,
    };
}

/// One swept configuration and its measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunePoint {
    /// Rows per thread block.
    pub block_size: usize,
    /// Shared-staging bytes per block.
    pub shared_bytes: usize,
    /// Slices fused per kernel call.
    pub fusing: usize,
    /// Best-of-reps wall time of the measured solve.
    pub wall_ns: u64,
    /// Effective flops of the measured solve (padding excluded).
    pub flops: u64,
}

impl TunePoint {
    /// Effective floating-point rate — the sweep's figure of merit.
    pub fn flops_rate(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.flops as f64 / (self.wall_ns as f64 * 1e-9)
        }
    }

    /// The tile shape this point measured.
    pub fn shape(&self) -> KernelShape {
        KernelShape {
            block_size: self.block_size,
            shared_bytes: self.shared_bytes,
        }
    }

    fn to_json(self) -> Json {
        Json::object(vec![
            ("block_size", Json::from(self.block_size as u64)),
            ("shared_bytes", Json::from(self.shared_bytes as u64)),
            ("fusing", Json::from(self.fusing as u64)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("flops", Json::from(self.flops)),
        ])
    }

    fn from_json(json: &Json) -> Result<TunePoint, String> {
        Ok(TunePoint {
            block_size: json.usize_at("block_size")?,
            shared_bytes: json.usize_at("shared_bytes")?,
            fusing: json.usize_at("fusing")?,
            wall_ns: json.u64_at("wall_ns")?,
            flops: json.u64_at("flops")?,
        })
    }
}

/// One full sweep: the problem it measured plus every point, in sweep
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Precision mode the sweep ran under.
    pub precision: Precision,
    /// Grid side of the swept problem.
    pub n: usize,
    /// Projection angles of the swept problem.
    pub angles: usize,
    /// Measurements in sweep order.
    pub points: Vec<TunePoint>,
}

impl TuneReport {
    /// The winning point: highest effective flops rate, earliest point on
    /// ties (sweep order is deterministic, so ranking is too). `None`
    /// only for an empty sweep.
    pub fn best(&self) -> Option<&TunePoint> {
        self.points
            .iter()
            .fold(None, |best: Option<&TunePoint>, p| match best {
                Some(b) if b.flops_rate() >= p.flops_rate() => Some(b),
                _ => Some(p),
            })
    }

    /// Serializes to the `petaxct-tune-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::from(TUNE_SCHEMA)),
            ("precision", Json::from(self.precision.label())),
            ("n", Json::from(self.n as u64)),
            ("angles", Json::from(self.angles as u64)),
            (
                "points",
                Json::from(
                    self.points
                        .iter()
                        .copied()
                        .map(TunePoint::to_json)
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    /// Decodes a parsed document, validating the schema tag.
    pub fn from_json(json: &Json) -> Result<TuneReport, String> {
        json.expect_schema(TUNE_SCHEMA)?;
        Ok(TuneReport {
            precision: json
                .str_at("precision")?
                .parse()
                .map_err(|e| format!("bad precision: {e}"))?,
            n: json.usize_at("n")?,
            angles: json.usize_at("angles")?,
            points: json
                .array_at("points")?
                .iter()
                .map(TunePoint::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parses artifact text (convenience over [`Json::parse`] +
    /// [`TuneReport::from_json`]).
    pub fn parse(text: &str) -> Result<TuneReport, String> {
        TuneReport::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TuneReport {
        TuneReport {
            precision: Precision::Single,
            n: 16,
            angles: 16,
            points: vec![
                TunePoint {
                    block_size: 32,
                    shared_bytes: 1024,
                    fusing: 1,
                    wall_ns: 2_000_000,
                    flops: 1_000_000,
                },
                TunePoint {
                    block_size: 64,
                    shared_bytes: 4096,
                    fusing: 8,
                    wall_ns: 1_000_000,
                    flops: 8_000_000,
                },
                TunePoint {
                    block_size: 128,
                    shared_bytes: 4096,
                    fusing: 8,
                    wall_ns: 1_000_000,
                    flops: 8_000_000, // ties the winner; earlier point wins
                },
            ],
        }
    }

    #[test]
    fn best_point_maximizes_flops_rate_with_stable_ties() {
        let r = report();
        let best = r.best().unwrap();
        assert_eq!(best.block_size, 64, "earliest of the tied maxima");
        assert_eq!(
            best.shape(),
            KernelShape {
                block_size: 64,
                shared_bytes: 4096
            }
        );
        assert!(best.flops_rate() > r.points[0].flops_rate());
    }

    #[test]
    fn empty_sweep_has_no_best() {
        let r = TuneReport {
            points: Vec::new(),
            ..report()
        };
        assert_eq!(r.best(), None);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = report();
        let text = r.to_json().to_string();
        let back = TuneReport::parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn zero_wall_time_rates_zero() {
        let p = TunePoint {
            block_size: 32,
            shared_bytes: 1024,
            fusing: 1,
            wall_ns: 0,
            flops: 100,
        };
        assert_eq!(p.flops_rate(), 0.0);
    }
}
