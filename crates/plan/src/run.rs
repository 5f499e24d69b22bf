//! `petaxct-run-v1` — one run, one document (DESIGN.md §3b).
//!
//! A run writes one [`RunDocument`]: its [`RunHeader`], exec counters,
//! per-rank comm totals, each track's metric slab and log, and the
//! derived per-tile costs — what cannot be recomputed, and nothing
//! else. Every report is a view the reader computes from the decoded
//! document. [`RunDocument::to_json`] is the one writer and
//! [`RunDocument::from_json`] the one reader; decoding what was written
//! gives the document back field by field.

use crate::{Partitioning, ReconPlan, TileWeights};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, TryLockError};
use xct_comm::{RankCommStats, Topology, TRAFFIC_CLASSES};
use xct_exec::ExecCounters;
use xct_fp16::Precision;
use xct_telemetry::{Json, MetricsSnapshot, Telemetry, TelemetrySnapshot};

/// Schema tag of every run document; [`RunDocument::from_json`] refuses
/// any other.
pub const RUN_SCHEMA: &str = "petaxct-run-v1";

/// The problem a plan reconstructs — `slices` planes of `n × n` cells,
/// each scanned at `angles` angles — and how it batched the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Grid side.
    pub n: usize,
    /// Slices in the stack.
    pub slices: usize,
    /// Projection angles per slice.
    pub angles: usize,
    /// Slices fused into one solve.
    pub fusing: usize,
    /// Slabs executed.
    pub slabs: usize,
    /// The batch × data split.
    pub partitioning: Partitioning,
}

/// What a document knows of its run, as far as it was known when the
/// document was written: a run refused while planning has no plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHeader {
    /// The command that ran (`reconstruct`, `profile`, …).
    pub command: String,
    /// Its options as `--name value` pairs, in command-line order; a
    /// switch reads `"true"`.
    pub options: Vec<(String, String)>,
    /// The simulated machine.
    pub topology: Option<Topology>,
    /// The precision mode.
    pub precision: Option<Precision>,
    /// Solver iterations per slab.
    pub iterations: Option<usize>,
    /// The problem and the plan's batching.
    pub plan: Option<PlanShape>,
}

impl RunHeader {
    /// A header that knows only the command and its options.
    pub fn new(command: &str, options: Vec<(String, String)>) -> RunHeader {
        RunHeader {
            command: command.to_owned(),
            options,
            ..RunHeader::default()
        }
    }

    /// Records what `plan` and the iteration count say of the run.
    pub fn planned(&mut self, plan: &ReconPlan, iterations: usize) {
        self.topology = Some(plan.topology);
        self.precision = Some(plan.precision);
        self.iterations = Some(iterations);
        self.plan = Some(PlanShape {
            n: plan.dims.n,
            slices: plan.dims.slices,
            angles: plan.angles,
            fusing: plan.fusing,
            slabs: plan.slabs.len(),
            partitioning: plan.partitioning,
        });
    }
}

/// One run, as the reader sees it (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDocument {
    /// What was known of the run.
    pub header: RunHeader,
    /// Why the run stopped before it finished; `None` for a finished
    /// run.
    pub reason: Option<String>,
    /// Kernel work of the whole run.
    pub counters: ExecCounters,
    /// Per-rank communication totals, ascending by rank, from which
    /// `xct_comm::CommReport` derives the matrices; empty for a run that
    /// stopped.
    pub comm: Vec<RankCommStats>,
    /// The metric slabs when the document was written; `at_ns` is that
    /// time.
    pub metrics: MetricsSnapshot,
    /// The log: all of it for a finished run, each track's last
    /// records for one that stopped.
    pub log: TelemetrySnapshot,
    /// Log records older than the kept window.
    pub dropped: u64,
    /// Derived per-tile costs, row-major over the plan's tile grid:
    /// the owning rank's SpMM self time spread over its tiles by
    /// operator nonzeros. What `--weights-from` re-partitions with.
    pub tiles: Option<TileWeights>,
}

impl RunDocument {
    /// The document of `telemetry`'s run: all of the log for a finished
    /// run (`reason` `None`), or each track's last
    /// [`xct_telemetry::FLIGHT_CAPACITY`] records for one that stopped
    /// on `reason`. Counters, comm totals and tile costs are the
    /// caller's to add.
    pub fn capture(
        header: RunHeader,
        telemetry: &Telemetry,
        reason: Option<String>,
    ) -> RunDocument {
        let (log, dropped) = telemetry.log(reason.is_some());
        RunDocument {
            header,
            reason,
            metrics: telemetry.metrics_snapshot(),
            log,
            dropped,
            ..RunDocument::default()
        }
    }

    /// The one writer.
    pub fn to_json(&self) -> Json {
        let h = &self.header;
        let opt = |v: Option<Json>| v.unwrap_or(Json::Null);
        let header = Json::object(vec![
            ("command", Json::from(h.command.as_str())),
            (
                "topology",
                opt(h.topology.map(|t| Json::from(t.to_string()))),
            ),
            ("precision", opt(h.precision.map(|p| Json::from(p.label())))),
            ("iterations", opt(h.iterations.map(Json::from))),
            (
                "plan",
                opt(h.plan.map(|p| {
                    Json::object(vec![
                        ("n", Json::from(p.n)),
                        ("slices", Json::from(p.slices)),
                        ("angles", Json::from(p.angles)),
                        ("fusing", Json::from(p.fusing)),
                        ("slabs", Json::from(p.slabs)),
                        ("batch", Json::from(p.partitioning.batch)),
                        ("data", Json::from(p.partitioning.data)),
                    ])
                })),
            ),
            (
                "options",
                Json::object(
                    h.options
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ]);
        let c = &self.counters;
        let counters = Json::object(vec![
            ("flops", Json::from(c.flops)),
            ("padded_flops", Json::from(c.padded_flops)),
            ("bytes_read", Json::from(c.bytes_read)),
            ("bytes_written", Json::from(c.bytes_written)),
            ("kernel_launches", Json::from(c.kernel_launches)),
        ]);
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        let comm = self.comm.iter().map(|s| {
            Json::object(vec![
                ("rank", Json::from(s.rank)),
                ("bytes_to", counts(&s.bytes_to)),
                ("msgs_to", counts(&s.msgs_to)),
                ("class_bytes", counts(&s.class_bytes)),
                ("class_msgs", counts(&s.class_msgs)),
            ])
        });
        let tiles = self.tiles.as_ref().map(|t| {
            Json::object(vec![
                ("tile_size", Json::from(t.tile_size)),
                ("costs_ns", counts(&t.weights)),
            ])
        });
        Json::object(vec![
            ("schema", Json::from(RUN_SCHEMA)),
            ("header", header),
            ("reason", opt(self.reason.as_deref().map(Json::from))),
            ("counters", counters),
            ("comm", Json::Arr(comm.collect())),
            ("metrics", self.metrics.to_json()),
            ("dropped", Json::from(self.dropped)),
            ("log", self.log.to_json()),
            ("tiles", opt(tiles)),
        ])
    }

    /// The one reader. Besides each field's shape it checks the schema
    /// tag, the topology's factors, the plan's counts (none zero), ranks
    /// in ascending order, each rank's tables against the class count,
    /// and the tile table's length against the plan's tile grid.
    pub fn from_json(json: &Json) -> Result<RunDocument, String> {
        json.expect_schema(RUN_SCHEMA)?;
        let h = field(json, "header")?;
        let Some(Json::Obj(options)) = h.get("options") else {
            return Err("field \"options\" is not an object".to_owned());
        };
        let options = (options.iter())
            .map(|(k, v)| match v.as_str() {
                Some(v) => Ok((k.clone(), v.to_owned())),
                None => Err(format!("option {k:?} is not a string")),
            })
            .collect::<Result<_, String>>()?;
        let header = RunHeader {
            command: h.str_at("command")?.to_owned(),
            options,
            topology: nullable(h, "topology", |v| v.str_at("topology")?.parse())?,
            precision: nullable(h, "precision", |v| {
                (v.str_at("precision")?.parse()).map_err(|e| format!("bad precision: {e}"))
            })?,
            iterations: nullable(h, "iterations", |v| v.usize_at("iterations"))?,
            plan: nullable(h, "plan", |v| {
                let p = field(v, "plan")?;
                Ok(PlanShape {
                    n: p.usize_at("n")?,
                    slices: p.usize_at("slices")?,
                    angles: p.usize_at("angles")?,
                    fusing: p.usize_at("fusing")?,
                    slabs: p.usize_at("slabs")?,
                    partitioning: Partitioning {
                        batch: p.usize_at("batch")?,
                        data: p.usize_at("data")?,
                    },
                })
            })?,
        };
        let c = field(json, "counters")?;
        let counters = ExecCounters {
            flops: c.u64_at("flops")?,
            padded_flops: c.u64_at("padded_flops")?,
            bytes_read: c.u64_at("bytes_read")?,
            bytes_written: c.u64_at("bytes_written")?,
            kernel_launches: c.u64_at("kernel_launches")?,
        };
        let comm = (json.array_at("comm")?.iter())
            .map(|s| {
                let classes = |key| {
                    <[u64; TRAFFIC_CLASSES]>::try_from(counts_at(s, key)?).map_err(|_| {
                        format!("field {key:?} does not hold {TRAFFIC_CLASSES} classes")
                    })
                };
                let stats = RankCommStats {
                    rank: s.usize_at("rank")?,
                    bytes_to: counts_at(s, "bytes_to")?,
                    msgs_to: counts_at(s, "msgs_to")?,
                    class_bytes: classes("class_bytes")?,
                    class_msgs: classes("class_msgs")?,
                };
                if stats.bytes_to.len() != stats.msgs_to.len() {
                    return Err(format!(
                        "rank {}: bytes_to and msgs_to differ in length",
                        stats.rank
                    ));
                }
                Ok(stats)
            })
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(w) = comm.windows(2).find(|w| w[0].rank >= w[1].rank) {
            return Err(format!(
                "comm ranks out of order: {} then {}",
                w[0].rank, w[1].rank
            ));
        }
        if let Some(p) = header.plan {
            let counts = [p.n, p.slices, p.angles, p.fusing, p.slabs];
            if counts.contains(&0) || p.partitioning.total() == 0 {
                return Err("field \"plan\" holds a zero count".to_owned());
            }
            // A slice's n² voxels are a count like any other: the views
            // tile the n × n plane and sum its cells.
            if p.n.checked_mul(p.n).is_none_or(|v| v > 1 << 53) {
                return Err(format!(
                    "field \"plan\": n = {} has n² voxels past 2^53",
                    p.n
                ));
            }
        }
        let tiles = nullable(json, "tiles", |v| {
            let t = field(v, "tiles")?;
            Ok(TileWeights {
                tile_size: t.usize_at("tile_size")?,
                weights: counts_at(t, "costs_ns")?,
            })
        })?;
        if let Some(t) = &tiles {
            let Some(plan) = header.plan else {
                return Err("tile costs without a plan in the header".to_owned());
            };
            // A zero tile size has no grid; plan_fits refuses it by name.
            let grid = (t.tile_size > 0).then(|| plan.n.div_ceil(t.tile_size));
            if let Some(side) = grid.filter(|&s| s.checked_mul(s) != Some(t.weights.len())) {
                return Err(format!(
                    "tile cost table has {} entries, grid is {side}x{side}",
                    t.weights.len()
                ));
            }
        }
        Ok(RunDocument {
            header,
            reason: nullable(json, "reason", |v| Ok(v.str_at("reason")?.to_owned()))?,
            counters,
            comm,
            metrics: MetricsSnapshot::from_json(field(json, "metrics")?)
                .map_err(|e| format!("metrics: {e}"))?,
            dropped: json.u64_at("dropped")?,
            log: TelemetrySnapshot::from_json(field(json, "log")?)
                .map_err(|e| format!("log: {e}"))?,
            tiles,
        })
    }

    /// [`Json::parse`], then [`RunDocument::from_json`].
    pub fn parse(text: &str) -> Result<RunDocument, String> {
        RunDocument::from_json(&Json::parse(text)?)
    }
}

/// The value under `key`, which must be present.
fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// `None` for a `null` under `key`, else what `read` makes of `json`.
fn nullable<T>(
    json: &Json,
    key: &str,
    read: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match field(json, key)? {
        Json::Null => Ok(None),
        _ => read(json).map(Some),
    }
}

/// The array of counts under `key`.
fn counts_at(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    (json.array_at(key)?.iter())
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("field {key:?} holds a non-count"))
        })
        .collect()
}

/// Chains a panic hook that writes `telemetry`'s run document to `path`
/// — the header as it then stands, each track's last records, the
/// metric slabs and the panic as the reason — before the previous hook
/// runs. No-op for a disabled handle. The hook is process-global;
/// install it once, from the top of a run.
pub fn install_panic_hook(header: Arc<Mutex<RunHeader>>, telemetry: &Telemetry, path: PathBuf) {
    if !telemetry.is_enabled() {
        return;
    }
    let telemetry = telemetry.clone();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let header = match header.try_lock() {
            Ok(h) => h.clone(),
            Err(TryLockError::Poisoned(h)) => h.into_inner().clone(),
            Err(TryLockError::WouldBlock) => RunHeader::default(),
        };
        let doc = RunDocument::capture(header, &telemetry, Some(format!("panic: {info}")));
        let _ = std::fs::write(&path, doc.to_json().to_string());
        prev(info);
    }));
}
