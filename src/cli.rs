//! The `petaxct` command-line tool: simulate measurements, reconstruct
//! volumes, inspect files, render slices — the end-user surface over the
//! library.
//!
//! Logic lives here (unit-testable); `main.rs` is a thin shim.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xct_analytic::{filtered_backprojection, FilterKind};
use xct_bench::tune::{run_tune, TuneParams};
use xct_cluster::MachineSpec;
use xct_comm::{CommReport, CompiledPlans, HierarchicalPlan, RankOptions, Topology, WireModel};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::model::{ModelExperiment, OptLevel};
use xct_core::{
    build_profile_report, reconstruct_planned, stream_slabs, Algorithm, ProfileInputs,
    Reconstructor,
};
use xct_exec::ExecCounters;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, Subdomain, TileDecomposition};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_phantom::{add_poisson_noise, DatasetSpec, Image2D};
use xct_plan::{Planner, ProfileReport, TileWeights, TunePoint, TuneReport, VolumeDims};
use xct_telemetry::{
    chrome_trace, install_flight_panic_hook, metrics_csv, metrics_series_json, prometheus_text,
    render_progress, Breakdown, CausalAnalysis, Json, Phase, PhaseHistograms, Sampler, Telemetry,
};
use xct_verify::plan_fits;

/// CLI failure: message for the user, nonzero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<xct_io::IoError> for CliError {
    fn from(e: xct_io::IoError) -> Self {
        CliError(format!("{e}"))
    }
}

impl From<xct_core::PipelineError> for CliError {
    fn from(e: xct_core::PipelineError) -> Self {
        CliError(format!("{e}"))
    }
}

/// One subcommand. `flags` is its part of the usage text and the table
/// its parser checks against, in one: a line that starts with `--name`
/// or `[--name` declares the flags written on it, up to the first run of
/// two spaces; what follows, and every indented line, is help.
struct Command {
    name: &'static str,
    flags: &'static str,
    /// Paragraph printed under the flags.
    about: &'static str,
    run: fn(&Flags) -> Result<String, CliError>,
}

impl Command {
    /// Whether `flags` declares `--key`.
    fn declares(&self, key: &str) -> bool {
        self.flags
            .lines()
            .filter(|line| line.starts_with(['-', '[']))
            .flat_map(|line| line.split("  ").next().unwrap_or(line).split(' '))
            .filter_map(|item| item.trim_start_matches('[').strip_prefix("--"))
            .any(|name| name.trim_end_matches(']') == key)
    }
}

/// A command line parsed against its command's flag table.
struct Flags {
    command: &'static Command,
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs; rejects stray positionals, flags
    /// `command` does not declare and flags given twice. A flag followed
    /// by another flag (or by nothing) is a boolean switch and reads as
    /// `"true"` — e.g. `--telemetry-summary`.
    fn parse(command: &'static Command, args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got {arg:?}")))?;
            if !command.declares(key) {
                return Err(CliError(format!(
                    "unknown flag --{key} for `petaxct {}`; see `petaxct help`",
                    command.name
                )));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(CliError(format!("--{key} is given twice")));
            }
            let value = match it.peek() {
                // xct-allow(no-panic): infallible — the peek above proved the next argument exists
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_owned(),
            };
            pairs.push((key.to_owned(), value));
        }
        Ok(Flags { command, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.command.declares(key),
            "`petaxct {}` reads --{key} without declaring it",
            self.command.name
        );
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError(format!("missing required --{key}")))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// [`Self::parse_or`] for a size that must be at least 1.
    fn size_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.parse_or(key, default)? {
            0 => Err(CliError(format!("--{key} must be at least 1"))),
            v => Ok(v),
        }
    }
}

/// The `--telemetry-*`/`--trace` sink selection shared by commands.
struct TelemetryArgs {
    json: Option<String>,
    trace: Option<String>,
    summary: bool,
    critical_path: bool,
}

impl TelemetryArgs {
    fn from_flags(flags: &Flags) -> TelemetryArgs {
        TelemetryArgs {
            json: flags.get("telemetry-json").map(str::to_owned),
            trace: flags.get("trace").map(str::to_owned),
            summary: flags.switch("telemetry-summary"),
            critical_path: flags.switch("critical-path"),
        }
    }

    /// Any sink requested → collection must be on.
    fn wanted(&self) -> bool {
        self.summary || self.critical_path || self.json.is_some() || self.trace.is_some()
    }

    /// Drains `telemetry` into the requested sinks. Returns text to
    /// append to the command's output (the summary table and/or notes
    /// about written files).
    fn emit(
        &self,
        telemetry: &Telemetry,
        command: &str,
        counters: &ExecCounters,
        comm: Option<&CommReport>,
    ) -> Result<String, CliError> {
        if !self.wanted() {
            return Ok(String::new());
        }
        let snap = telemetry.snapshot();
        let breakdown = Breakdown::from_snapshot(&snap);
        let causal = self.critical_path.then(|| {
            (
                CausalAnalysis::from_snapshot(&snap),
                PhaseHistograms::from_snapshot(&snap),
            )
        });
        let mut extra = String::new();
        if self.summary {
            extra.push_str("\n\n");
            extra.push_str(&breakdown.render_table());
            extra.push_str(&format!("\ncounters: {counters}"));
            if let Some(report) = comm {
                extra.push('\n');
                extra.push_str(&report.render_matrix());
            }
        }
        if let Some((analysis, histograms)) = &causal {
            extra.push_str("\n\n");
            extra.push_str(&analysis.render_table());
            extra.push('\n');
            extra.push_str(&histograms.render_table());
        }
        if let Some(path) = &self.json {
            let mut fields = vec![
                ("schema".to_owned(), Json::from("petaxct-telemetry-v1")),
                ("command".to_owned(), Json::from(command)),
                ("breakdown".to_owned(), breakdown.to_json()),
                (
                    "counters".to_owned(),
                    Json::object(vec![
                        ("flops", Json::from(counters.flops)),
                        ("bytes_read", Json::from(counters.bytes_read)),
                        ("bytes_written", Json::from(counters.bytes_written)),
                        ("kernel_launches", Json::from(counters.kernel_launches)),
                    ]),
                ),
            ];
            if let Some(report) = comm {
                fields.push(("comm".to_owned(), report.to_json()));
            }
            if let Some((analysis, histograms)) = &causal {
                fields.push(("causal".to_owned(), analysis.to_json()));
                fields.push(("phase_histograms".to_owned(), histograms.to_json()));
            }
            write_file(path, &Json::Obj(fields).to_string())?;
            extra.push_str(&format!("\ntelemetry report written to {path}"));
        }
        if let Some(path) = &self.trace {
            write_file(path, &chrome_trace(&snap))?;
            extra.push_str(&format!("\ntrace written to {path}"));
        }
        Ok(extra)
    }
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError(format!("writing {path}: {e}")))
}

/// The `--metrics-*`/`--progress`/`--flightrec-out` observability
/// selection: time-series sampling of the always-on metrics registry,
/// the one-line human progress report, and the post-mortem flight
/// recorder.
struct MetricsArgs {
    out: Option<String>,
    interval_ms: u64,
    progress: bool,
    flightrec: Option<String>,
}

impl MetricsArgs {
    fn from_flags(flags: &Flags) -> Result<MetricsArgs, CliError> {
        Ok(MetricsArgs {
            out: flags.get("metrics-out").map(str::to_owned),
            interval_ms: flags.parse_or("metrics-interval", 200u64)?.max(1),
            progress: flags.switch("progress"),
            flightrec: flags.get("flightrec-out").map(str::to_owned),
        })
    }

    /// Any observability sink requested → collection must be on.
    fn wanted(&self) -> bool {
        self.out.is_some() || self.progress || self.flightrec.is_some()
    }
}

/// A live metrics session: a background thread samples the registry on
/// the configured interval (and repaints the progress line), the flight
/// panic hook is armed, and [`finish`](MetricsSession::finish) writes
/// the requested exporter files.
struct MetricsSession {
    telemetry: Telemetry,
    args: MetricsArgs,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Sampler>>,
    started: Instant,
}

impl MetricsSession {
    fn start(telemetry: &Telemetry, args: MetricsArgs) -> MetricsSession {
        if let Some(path) = &args.flightrec {
            install_flight_panic_hook(telemetry, PathBuf::from(path));
        }
        let stop = Arc::new(AtomicBool::new(false));
        // xct-allow(wall-clock): CLI progress display reports real elapsed wall time, independent of telemetry
        let started = Instant::now();
        let sampling = telemetry.is_enabled() && (args.out.is_some() || args.progress);
        let thread = sampling.then(|| {
            let tele = telemetry.clone();
            let stop = Arc::clone(&stop);
            let interval_ms = args.interval_ms;
            let progress = args.progress;
            std::thread::spawn(move || {
                let mut sampler = Sampler::new(tele, interval_ms.saturating_mul(1_000_000));
                while !stop.load(Ordering::Relaxed) {
                    if sampler.tick() && progress {
                        if let Some(snap) = sampler.samples().last() {
                            let elapsed = started.elapsed().as_nanos() as u64;
                            eprint!("\r{}", render_progress(snap, elapsed));
                            let _ = std::io::Write::flush(&mut std::io::stderr());
                        }
                    }
                    // Sleep a fraction of the interval so stop requests
                    // land promptly even with coarse sampling intervals.
                    std::thread::sleep(Duration::from_millis(interval_ms.min(25)));
                }
                sampler
            })
        });
        MetricsSession {
            telemetry: telemetry.clone(),
            args,
            stop,
            thread,
            started,
        }
    }

    /// Dumps the flight recorder to the configured path; called on
    /// error exits so post-mortems survive even without a panic.
    fn dump_flight(&self, reason: &str) {
        if let (Some(path), Some(dump)) = (
            &self.args.flightrec,
            self.telemetry.flight_dump_json(reason),
        ) {
            let _ = std::fs::write(path, dump);
        }
    }

    /// Stops sampling, takes a final forced sample, and writes the
    /// requested exporter files. Returns notes for the command output.
    fn finish(mut self) -> Result<String, CliError> {
        self.stop.store(true, Ordering::Relaxed);
        let mut notes = String::new();
        let Some(handle) = self.thread.take() else {
            return Ok(notes);
        };
        let mut sampler = handle
            .join()
            .map_err(|_| CliError("metrics sampler thread panicked".to_owned()))?;
        // The final sample captures the finished run regardless of where
        // the interval deadline landed.
        sampler.force();
        if self.args.progress {
            if let Some(snap) = sampler.samples().last() {
                let elapsed = self.started.elapsed().as_nanos() as u64;
                eprintln!("\r{}", render_progress(snap, elapsed));
            }
        }
        if let Some(path) = &self.args.out {
            write_file(path, &metrics_series_json(sampler.samples()).to_string())?;
            // xct-allow(no-panic): infallible — the sampler forces a final sample before the loop exits
            let last = sampler.samples().last().expect("forced sample present");
            write_file(&format!("{path}.prom"), &prometheus_text(last))?;
            write_file(&format!("{path}.csv"), &metrics_csv(sampler.samples()))?;
            notes.push_str(&format!(
                "\nmetrics series written to {path} (+ {path}.prom, {path}.csv)"
            ));
        }
        Ok(notes)
    }
}

/// Parses `--topology NxSxG` (nodes × sockets/node × GPUs/socket).
fn parse_topology(spec: &str) -> Result<Topology, CliError> {
    spec.parse()
        .map_err(|e| CliError(format!("invalid --topology: {e}")))
}

/// Parses `--wire` for distributed runs: bare `--wire` gives the
/// paper-like default (600 µs latency, 50 MB/s — the fig11 wire), and
/// `--wire LAT_USxMBPS` sets both. Ranks on the same simulated node
/// (per the topology) exchange messages with zero wire time.
fn parse_wire(spec: &str, topology: &Topology) -> Result<WireModel, CliError> {
    let (lat_us, mbps): (f64, f64) = if spec == "true" {
        (600.0, 50.0)
    } else {
        let parts: Vec<&str> = spec.split('x').collect();
        let parse = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| CliError(format!("invalid --wire {spec:?}; expected LAT_USxMBPS")))
        };
        match parts.as_slice() {
            [l, b] => (parse(l)?, parse(b)?),
            _ => {
                return Err(CliError(format!(
                    "invalid --wire {spec:?}; expected LAT_USxMBPS (e.g. 600x50)"
                )))
            }
        }
    };
    // A latency past the ranks' receive timeout fails every inter-node
    // receive, and below 1 B/s one message outlasts any run.
    let timeout = RankOptions::default().timeout;
    let latency = Duration::try_from_secs_f64(lat_us * 1e-6)
        .ok()
        .filter(|l| *l < timeout)
        .ok_or_else(|| {
            CliError(format!(
                "invalid --wire {spec:?}: the latency must be below the {timeout:?} receive timeout"
            ))
        })?;
    if mbps > 0.0 && mbps * 1e6 < 1.0 {
        return Err(CliError(format!(
            "invalid --wire {spec:?}: the bandwidth must be at least 1 B/s, or 0 for unlimited"
        )));
    }
    Ok(WireModel {
        latency,
        bytes_per_sec: if mbps > 0.0 {
            mbps * 1e6
        } else {
            f64::INFINITY
        },
        ranks_per_node: topology.gpus_per_node(),
    })
}

/// Every subcommand with the flags it reads.
const COMMANDS: &[Command] = &[
    Command {
        name: "simulate",
        flags: "\
--phantom shepp|shale|chip|charcoal|brain --out FILE
[--n 64] [--angles 64] [--slices 8] [--flux 0]
[--precision half|single|double] [--seed 1]",
        about: "",
        run: simulate,
    },
    Command {
        name: "reconstruct",
        flags: "\
--in FILE --out FILE
[--precision double|single|half|mixed] [--iterations 24]
[--batch 8] [--solver cgls|sirt]
[--damping 0]             CGLS's Tikhonov weight, finite
                          and >= 0 (refused with sirt,
                          which does not damp)
[--tune-from FILE]        use the best kernel shape from a
                          petaxct-tune-v1 artifact (block
                          size, staging bytes; its fusing
                          is the default --batch)
[--topology NxSxG]        simulate N nodes x S sockets x G GPUs
                          (default 1x1x1: one process)
[--memory-budget BYTES]   per-rank device-memory budget: the
                          planner picks the largest slice batch
                          that fits (paper Sec. III-A3) and
                          streams slabs through I/O when the
                          stack no longer fits at once
[--stream]                force out-of-core execution: split
                          the stack into at least two slabs
                          and page them through I/O
[--overlap]               post every fused slice's global exchange
                          before draining any (one wire latency)
[--verify-plans]          statically verify the communication
                          plan (conservation, tags, deadlock)
                          before running it
[--wire [LAT_USxMBPS]]    simulate inter-node wire time
                          (latency µs x bandwidth MB/s;
                          bare --wire means 600x50)
[--telemetry-summary]     print a per-phase breakdown table
[--critical-path]         print the cross-rank critical-path,
                          per-rank slack, and per-phase
                          duration histograms
[--telemetry-json FILE]   write a machine-readable report
[--trace FILE]            write a Chrome/Perfetto trace
[--metrics-out FILE]      sample the metrics registry on an
                          interval and write the series as
                          petaxct-metrics-v1 JSON to FILE,
                          the final snapshot in Prometheus
                          text format to FILE.prom, and the
                          series as CSV to FILE.csv
[--metrics-interval MS]   sampling interval in milliseconds
                          (default 200)
[--progress]              repaint a one-line progress report
                          on stderr (slab, iteration,
                          residual, %, ETA)
[--flightrec-out FILE]    arm the flight recorder: on panic
                          or error, dump the last moments of
                          every rank (spans, events, matches,
                          and the metrics as they stand) as
                          petaxct-flightrec-v1 JSON to FILE
[--profile-out FILE]      record telemetry and write the
                          measured per-rank/
                          per-tile costs, model-drift table,
                          and skew report as a
                          petaxct-profile-v1 artifact
[--weights-from FILE]     re-run the x-z Hilbert partition
                          with the measured per-tile costs
                          of a petaxct-profile-v1 artifact
                          instead of uniform cell counts
                          (offline rebalance; plan_fits
                          still gates the weighted plan)",
        about: "",
        run: reconstruct,
    },
    Command {
        name: "fbp",
        flags: "--in FILE --out FILE [--filter ramlak|shepplogan|hann]",
        about: "",
        run: fbp,
    },
    Command {
        name: "info",
        flags: "--in FILE",
        about: "",
        run: info,
    },
    Command {
        name: "render",
        flags: "--in FILE [--slice 0] --out FILE.pgm",
        about: "",
        run: render,
    },
    Command {
        name: "model",
        flags: "\
--dataset shale|chip|charcoal|brain [--nodes 128]
[--precision mixed] [--iterations 30]",
        about: "",
        run: model,
    },
    Command {
        name: "tune",
        flags: "\
[--quick] [--out TUNE.json] [--precision single]
[--n 24] [--angles 24] [--iterations 4] [--reps 3]
[--blocks 32,64,128] [--shared 4096,32768,98304]
[--fusings 1,4,8]",
        about: "\
sweep the SpMM tile shape (block size x staging bytes x
fusing) and write the measurements as a petaxct-tune-v1
artifact for --tune-from",
        run: tune,
    },
    Command {
        name: "profile",
        flags: "\
[--n 24] [--angles 24] [--slices 2] [--iterations 4]
[--precision single] [--topology 1x2x2] [--tile 4]
[--phantom shale] [--seed 1] [--overlap]
[--wire [LAT_USxMBPS]] [--out PROFILE.json] [--json]
[--weights-from FILE]",
        about: "\
profile a synthetic distributed reconstruction with the
hierarchical cost profiler: per-rank component costs
(SpMM, gather/convert, socket/node/global reduction,
comm-wait, I/O stall) joined with critical-path slack,
per-tile derived costs, and the model-vs-measured drift
table, written as a petaxct-profile-v1 artifact for
--weights-from; --json prints the artifact instead of
the drift/skew tables",
        run: profile,
    },
    Command {
        name: "analyze",
        flags: "[--root DIR] [--self-test]",
        about: "\
two-layer workspace invariant checker (DESIGN.md
Sec. 3i): source lints over every .rs file (unsafe
boundary, SAFETY comments, panic-free library
code, injectable clocks, allocation-free hot
regions) plus abstract interpretation over
compiled communication programs (interval bounds
proofs, scratch lifetimes across the overlap
pipeline); exits nonzero on any violation.
--self-test runs the must-reject corpus sweep for
both layers instead",
        run: analyze,
    },
];

/// The usage text: every command's flag lines and paragraph, as
/// written in the command table, under its name.
pub fn usage() -> String {
    let mut out = String::from(
        "petaxct — iterative X-ray CT reconstruction (PetaXCT reproduction)\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        let mut lead = format!("  petaxct {:<12}", command.name);
        for line in command.flags.lines().chain(command.about.lines()) {
            out.push_str(&format!("{lead}{line}\n"));
            lead = " ".repeat(22);
        }
    }
    out
}

/// Dispatches a full command line (without `argv[0]`).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| CliError(usage()))?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| CliError(format!("unknown command {cmd:?}\n\n{}", usage())))?;
    (command.run)(&Flags::parse(command, rest)?)
}

fn scan_for(n: usize, angles: usize) -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles)
}

fn phantom_slice(kind: &str, n: usize, seed: u64) -> Result<Image2D, CliError> {
    Ok(match kind {
        "shepp" => xct_phantom::shepp_logan(n),
        "shale" => xct_phantom::shale_like(n, seed),
        "chip" => xct_phantom::chip_like(n, seed),
        "charcoal" => xct_phantom::charcoal_like(n, seed),
        "brain" => xct_phantom::brain_like(n, seed),
        other => return Err(CliError(format!("unknown phantom {other:?}"))),
    })
}

fn simulate(flags: &Flags) -> Result<String, CliError> {
    let kind = flags.required("phantom")?.to_owned();
    let out = flags.required("out")?.to_owned();
    let n = flags.size_or("n", 64)?;
    let angles = flags.size_or("angles", 64)?;
    let slices: usize = flags.parse_or("slices", 8)?;
    let flux: f64 = flags.parse_or("flux", 0.0)?;
    if !(flux.is_finite() && flux >= 0.0) {
        return Err(CliError(format!(
            "--flux must be a finite photon count, 0 for no noise; got {flux}"
        )));
    }
    let seed: u64 = flags.parse_or("seed", 1)?;
    let precision: Precision = flags
        .get("precision")
        .unwrap_or("single")
        .parse()
        .map_err(|e| CliError(format!("{e}")))?;

    let recon = Reconstructor::new(scan_for(n, angles));
    let meta = SliceFile {
        kind: FileKind::Sinogram,
        precision,
        slices,
        slice_len: recon.num_rays(),
    };
    let mut writer = SliceWriter::create(&out, meta)?;
    for s in 0..slices {
        let img = phantom_slice(&kind, n, seed + s as u64)?;
        let mut sino = recon.project(&img.data);
        if flux > 0.0 {
            add_poisson_noise(&mut sino, flux, seed + 1000 + s as u64);
        }
        writer.write_slice(&sino)?;
    }
    writer.finish()?;
    Ok(format!(
        "wrote {slices} x {angles}x{n} {kind} sinograms to {out} ({} payload)",
        meta.payload_bytes()
    ))
}

fn open_sinogram(path: &str) -> Result<(SliceReader, usize, usize), CliError> {
    let reader = SliceReader::open(path)?;
    let meta = reader.meta();
    if meta.kind != FileKind::Sinogram {
        return Err(CliError(format!("{path} is not a sinogram file")));
    }
    // The geometry below comes from the header alone: a file shorter
    // than its header claims is refused before anything is traced.
    reader.check_length()?;
    // Infer (angles, channels): our simulate writes square matched
    // detectors, so slice_len = angles × channels with channels = n.
    // The geometry is recoverable when slice_len is a perfect square per
    // the matched convention; otherwise require explicit flags upstream.
    let len = meta.slice_len;
    let side = (len as f64).sqrt().round() as usize;
    if side * side != len {
        return Err(CliError(format!(
            "cannot infer geometry from slice length {len}; expected angles == channels"
        )));
    }
    Ok((reader, side, side))
}

fn reconstruct(flags: &Flags) -> Result<String, CliError> {
    let tel_args = TelemetryArgs::from_flags(flags);
    let metrics_args = MetricsArgs::from_flags(flags)?;
    // Any sink — telemetry report, live metrics, or the cost profile —
    // turns collection on.
    let telemetry =
        if tel_args.wanted() || metrics_args.wanted() || flags.get("profile-out").is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
    let metrics = MetricsSession::start(&telemetry, metrics_args);
    match reconstruct_inner(flags, &telemetry, &tel_args) {
        Ok(text) => Ok(text + &metrics.finish()?),
        Err(e) => {
            // A failed run still gets its post-mortem flight dump and
            // whatever metrics series accumulated before the error.
            metrics.dump_flight(&e.0);
            let _ = metrics.finish();
            Err(e)
        }
    }
}

fn reconstruct_inner(
    flags: &Flags,
    telemetry: &Telemetry,
    tel_args: &TelemetryArgs,
) -> Result<String, CliError> {
    let input = flags.required("in")?.to_owned();
    let out = flags.required("out")?.to_owned();
    let precision: Precision = flags
        .get("precision")
        .unwrap_or("mixed")
        .parse()
        .map_err(|e| CliError(format!("{e}")))?;
    let iterations: usize = flags.parse_or("iterations", 24)?;
    // A tune artifact (petaxct tune → --tune-from) supplies the measured
    // best kernel shape; its fusing also becomes the default batch when
    // --batch is not given explicitly.
    let tuned = flags.get("tune-from").map(load_tuned_point).transpose()?;
    let default_batch = tuned.as_ref().map_or(8, |t| t.fusing.max(1));
    let batch: usize = flags.parse_or("batch", default_batch)?;
    let damping: f64 = flags.parse_or("damping", 0.0)?;
    // CGLS weighs the penalty by λ², so a negative λ would run as |λ|
    // and an overflowing one would stop the first iteration.
    if !(damping >= 0.0 && (damping * damping).is_finite()) {
        return Err(CliError(format!(
            "--damping must be a finite weight >= 0 whose square is finite, got {damping}"
        )));
    }
    let budget: Option<u64> = flags
        .get("memory-budget")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError(format!("invalid value for --memory-budget: {v:?}")))
        })
        .transpose()?;
    let stream = flags.switch("stream");
    // Every run is a planned run; one process is the smallest simulated
    // machine.
    let topology = flags
        .get("topology")
        .map(parse_topology)
        .transpose()?
        .unwrap_or(Topology::new(1, 1, 1));
    let solver = flags.get("solver").unwrap_or("cgls").to_owned();
    let algorithm = match solver.as_str() {
        "cgls" => Algorithm::Cgls { damping },
        "sirt" if flags.get("damping").is_some() => {
            return Err(CliError(
                "--damping is CGLS's weight; --solver sirt does not damp".into(),
            ))
        }
        "sirt" => Algorithm::Sirt,
        other => {
            return Err(CliError(format!(
                "unknown solver {other:?}; expected cgls|sirt"
            )))
        }
    };
    let (reader, angles, n) = open_sinogram(&input)?;
    let slices = reader.meta().slices;
    let scan = scan_for(n, angles);
    let writer = SliceWriter::create(
        &out,
        SliceFile {
            kind: FileKind::Volume,
            precision: reader.meta().precision,
            slices,
            slice_len: scan.grid.nx * scan.grid.nz,
        },
    )?;
    // The whole command runs under one root span so the breakdown's
    // coverage is measured against a well-defined wall time.
    let total_span = telemetry.span(Phase::Total);
    // Plan first (the paper's §III-A3 rule against the optional memory
    // budget), statically verify the plan, then execute it slab by slab —
    // every slab runs the full pipeline on the simulated ranks, and
    // non-resident slabs page through I/O on background threads.
    let overlap = flags.switch("overlap");
    let wire = flags
        .get("wire")
        .map(|spec| parse_wire(spec, &topology))
        .transpose()?;
    let verify_plans = flags.switch("verify-plans");
    let mut max_fusing = batch.max(1);
    if stream && slices > 1 {
        // Force out-of-core execution: at least two slabs, so every slab
        // pages through xct-io.
        max_fusing = max_fusing.min(slices.div_ceil(2));
    }
    let planner = Planner {
        precision,
        hierarchical: true,
        overlap,
        max_fusing,
        kernel: tuned.as_ref().map(|t| t.shape()),
    };
    let mut plan = planner
        .plan(VolumeDims { n, slices }, angles, budget, topology)
        .map_err(|e| CliError(format!("{e}")))?;
    // Measured tile weights (petaxct profile → --weights-from) ride on
    // the plan so plan_fits gates them like every other promise before
    // the decomposition re-runs with them.
    let weights = flags
        .get("weights-from")
        .map(load_profile_weights)
        .transpose()?;
    if let Some(w) = weights {
        plan = plan.with_tile_weights(w);
    }
    check_fits(&plan)?;
    let profile_out = flags.get("profile-out").map(str::to_owned);
    let base = DistributedConfig {
        algorithm,
        iterations,
        wire,
        telemetry: telemetry.clone(),
        verify_plans,
        ..Default::default()
    };
    let outcome = reconstruct_planned(&scan, &plan, reader, writer, &base).map_err(|e| e.error)?;
    let stats = outcome.stats;
    outcome.reader.verify_checksum()?;
    outcome.writer.finish()?;
    let comm_report = CommReport::new(stats.comm_stats.clone());
    let plan_note = match plan.budget_bytes {
        Some(b) => format!(
            "\nplan: fusing {}, {} slabs, peak {} B/rank within budget {b} B",
            plan.fusing,
            plan.slabs.len(),
            plan.per_rank_bytes()
        ),
        None => String::new(),
    };
    let text = format!(
        "reconstructed {} slices in {} batches on {} simulated ranks ({solver}, {} precision, {} iters/batch{}{}{}{}{}); worst residual {:.5}; volume in {out}{plan_note}",
        stats.slices, stats.slabs, topology.size(), precision, iterations,
        if overlap { ", comm overlapped" } else { "" },
        if base.wire.is_some() { ", wired" } else { "" },
        if verify_plans { ", plans verified" } else { "" },
        if stats.streamed { ", streamed" } else { "" },
        if plan.tile_weights.is_some() { ", rebalanced" } else { "" },
        stats.worst_residual
    );
    drop(total_span);
    let profile_note = match &profile_out {
        Some(path) => {
            // Attribute per-tile costs at the tile size the executor
            // decomposed at.
            let tile = DistributedConfig::from_plan(&plan, &base).tile;
            let report = build_profile_artifact(
                &scan, &plan, topology, precision, iterations, tile, telemetry,
            );
            write_file(path, &report.to_json().to_string())?;
            format!(
                "\nprofile: max rank slack {} ns, max/mean tile cost {:.2}; wrote {path}",
                report.skew.max_rank_slack_ns,
                report.skew.max_over_mean(),
            )
        }
        None => String::new(),
    };
    Ok(text
        + &profile_note
        + &tel_args.emit(
            telemetry,
            "reconstruct",
            &stats.counters,
            Some(&comm_report),
        )?)
}

/// Loads a `petaxct-tune-v1` artifact and returns its winning point.
fn load_tuned_point(path: &str) -> Result<TunePoint, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read tune file {path}: {e}")))?;
    let report = TuneReport::parse(&text)
        .map_err(|e| CliError(format!("cannot parse tune file {path}: {e}")))?;
    report
        .best()
        .copied()
        .ok_or_else(|| CliError(format!("tune file {path} has an empty sweep")))
}

/// Loads a `petaxct-profile-v1` artifact and returns its measured
/// per-tile weights (`--weights-from`).
fn load_profile_weights(path: &str) -> Result<TileWeights, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read profile file {path}: {e}")))?;
    let report = ProfileReport::parse(&text)
        .map_err(|e| CliError(format!("cannot parse profile file {path}: {e}")))?;
    Ok(report.tile_weights())
}

/// Joins a run's telemetry snapshot (the cost profile and the critical
/// path are both views of it) with the analytic model's prediction for
/// the same plan into the `petaxct-profile-v1` report.
fn build_profile_artifact(
    scan: &ScanGeometry,
    plan: &xct_plan::ReconPlan,
    topology: Topology,
    precision: Precision,
    iterations: usize,
    tile: usize,
    telemetry: &Telemetry,
) -> ProfileReport {
    let snapshot = telemetry.snapshot();
    // Score the measured run against the analytic model at the smallest
    // machine carrying the run's node count; shares (not magnitudes)
    // make the comparison meaningful across scales.
    let machine = MachineSpec::summit(topology.nodes.max(1));
    let est = ModelExperiment::from_plan(plan, machine, OptLevel::full(), iterations).run();
    build_profile_report(&ProfileInputs {
        scan,
        slices: plan.dims.slices,
        topology,
        precision,
        tile,
        tile_weights: plan.tile_weights.as_ref().map(|tw| tw.weights.as_slice()),
        snapshot: &snapshot,
        model: Some(&est),
    })
}

/// Plan-level rebalance preview: the per-rank sums of the artifact's
/// measured tile costs under the executed uniform ownership versus a
/// re-partition weighted by those same costs. Deterministic given the
/// artifact — this is exactly the imbalance `--weights-from` removes,
/// independent of run-to-run timing noise.
fn rebalance_preview(scan: &ScanGeometry, tile: usize, ranks: usize, costs: &[u64]) -> String {
    let tomo = TileDecomposition::new(
        Domain2D::new(scan.grid.nx, scan.grid.nz),
        tile,
        CurveKind::Hilbert,
    );
    let (tiles_x, _) = tomo.tile_grid();
    let rank_max = |subs: &[Subdomain]| -> u64 {
        subs.iter()
            .map(|sd| {
                sd.tiles
                    .iter()
                    .map(|t| costs[t.ty * tiles_x + t.tx])
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    };
    let moved = tomo.rehomed_tiles(ranks, costs);
    let uniform = rank_max(&tomo.partition(ranks));
    let weighted = rank_max(&tomo.partition_weighted(ranks, costs));
    let total: u64 = costs.iter().sum();
    let ideal = total.div_ceil(ranks.max(1) as u64);
    format!(
        "rebalance preview (measured tile costs, {ranks} ranks, ideal {ideal}ns/rank):\n  \
         uniform ownership:  max rank {uniform}ns, slack {}ns\n  \
         weighted ownership: max rank {weighted}ns, slack {}ns ({moved} tiles re-homed)",
        uniform.saturating_sub(ideal),
        weighted.saturating_sub(ideal),
    )
}

/// Refuses a plan `plan_fits` rejects, naming its witnesses.
fn check_fits(plan: &xct_plan::ReconPlan) -> Result<(), CliError> {
    let fits = plan_fits(plan);
    fits.ok()
        .then_some(())
        .ok_or_else(|| CliError(format!("reconstruction plan rejected:\n{fits}")))
}

/// `petaxct profile` — run a synthetic distributed reconstruction with
/// telemetry on and emit the `petaxct-profile-v1` artifact
/// plus the human drift/skew tables. With `--weights-from` the run
/// itself repartitions by a previous profile's measured tile costs, so
/// two invocations close the rebalance loop end to end.
fn profile(flags: &Flags) -> Result<String, CliError> {
    let n = flags.size_or("n", 24)?;
    let angles = flags.size_or("angles", 24)?;
    let slices: usize = flags.parse_or("slices", 2)?;
    let iterations: usize = flags.parse_or("iterations", 4)?;
    let seed: u64 = flags.parse_or("seed", 1)?;
    let precision: Precision = flags
        .get("precision")
        .unwrap_or("single")
        .parse()
        .map_err(|e| CliError(format!("{e}")))?;
    let topology = flags
        .get("topology")
        .map(parse_topology)
        .transpose()?
        .unwrap_or_else(|| Topology::new(1, 2, 2));
    let phantom = flags.get("phantom").unwrap_or("shale").to_owned();
    let out = flags.get("out").unwrap_or("PROFILE.json").to_owned();
    let overlap = flags.switch("overlap");
    let wire = flags
        .get("wire")
        .map(|spec| parse_wire(spec, &topology))
        .transpose()?;
    let weights = flags
        .get("weights-from")
        .map(load_profile_weights)
        .transpose()?;
    let mut tile: usize = flags.parse_or("tile", 4)?;
    if let Some(w) = &weights {
        if flags.get("tile").is_none() {
            tile = w.tile_size;
        } else if tile != w.tile_size {
            return Err(CliError(format!(
                "--tile {tile} contradicts the weights' tile size {}",
                w.tile_size
            )));
        }
    }

    // The run is derived from a plan of the same problem, gated by
    // `plan_fits` like `reconstruct`'s: weights measured on another grid
    // are refused before they reach the decomposition, and they ride on
    // the plan so the per-tile attribution matches the executed ownership.
    let mut plan = Planner {
        precision,
        hierarchical: true,
        overlap,
        max_fusing: slices.max(1),
        kernel: None,
    }
    .plan(VolumeDims { n, slices }, angles, None, topology)
    .map_err(|e| CliError(format!("{e}")))?;
    if let Some(w) = weights {
        plan = plan.with_tile_weights(w);
    }
    check_fits(&plan)?;

    let scan = scan_for(n, angles);
    let sm = SystemMatrix::build(&scan);
    let mut sino = vec![0.0f32; sm.num_rays() * slices];
    for s in 0..slices {
        let img = phantom_slice(&phantom, n, seed + s as u64)?;
        sm.project(
            &img.data,
            &mut sino[s * sm.num_rays()..(s + 1) * sm.num_rays()],
        );
    }

    let telemetry = Telemetry::enabled();
    let base = DistributedConfig {
        wire,
        iterations,
        tile,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let result = reconstruct_distributed(&scan, &sino, &DistributedConfig::from_plan(&plan, &base));
    let report = build_profile_artifact(
        &scan, &plan, topology, precision, iterations, tile, &telemetry,
    );
    let json_text = report.to_json().to_string();
    write_file(&out, &json_text)?;
    if flags.switch("json") {
        return Ok(json_text);
    }
    let residual = result.residual_history.last().copied().unwrap_or(1.0);
    let preview = rebalance_preview(&scan, tile, topology.size(), &report.tile_costs_ns);
    Ok(format!(
        "{}\n{preview}\nfinal residual {residual:.5}\nwrote {out}; close the loop with \
         `petaxct reconstruct --weights-from {out}` or `petaxct profile --weights-from {out}`",
        report.render_text().trim_end(),
    ))
}

/// Parses a comma-separated list flag (`--blocks 32,64,128`).
fn parse_list(flags: &Flags, key: &str) -> Result<Option<Vec<usize>>, CliError> {
    let Some(spec) = flags.get(key) else {
        return Ok(None);
    };
    spec.split(',')
        .map(|v| {
            v.trim()
                .parse::<usize>()
                .map_err(|_| CliError(format!("invalid value in --{key}: {v:?}")))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn tune(flags: &Flags) -> Result<String, CliError> {
    let quick = flags.switch("quick");
    let out = flags.get("out").unwrap_or("TUNE.json").to_owned();
    let mut p = TuneParams::new(quick);
    if let Some(v) = flags.get("precision") {
        p.precision = v.parse().map_err(|e| CliError(format!("{e}")))?;
    }
    p.n = flags.parse_or("n", p.n)?;
    p.angles = flags.parse_or("angles", p.angles)?;
    p.iterations = flags.parse_or("iterations", p.iterations)?;
    p.reps = flags.parse_or("reps", p.reps)?;
    if let Some(v) = parse_list(flags, "blocks")? {
        p.blocks = v;
    }
    if let Some(v) = parse_list(flags, "shared")? {
        p.shared = v;
    }
    if let Some(v) = parse_list(flags, "fusings")? {
        p.fusings = v;
    }

    let report = run_tune(&p, |i, total, pt| {
        eprintln!(
            "tune [{i}/{total}] block {} shared {} fusing {}: {:.2} ms, {:.1} Mflop/s",
            pt.block_size,
            pt.shared_bytes,
            pt.fusing,
            pt.wall_ns as f64 / 1e6,
            pt.flops_rate() / 1e6,
        );
    })
    .map_err(CliError)?;
    let text = report.to_json().to_string();
    std::fs::write(&out, &text)
        .map_err(|e| CliError(format!("cannot write tune file {out}: {e}")))?;

    let best = report
        .best()
        .ok_or_else(|| CliError("tune sweep produced no points".to_owned()))?;
    Ok(format!(
        "tuned {} points on n={} angles={} ({} precision, AVX2+FMA {}):\n\
         best shape: block {} | shared {} B | fusing {} -> {:.1} Mflop/s\n\
         wrote {out}; feed it back with `petaxct reconstruct --tune-from {out}`",
        report.points.len(),
        report.n,
        report.angles,
        report.precision,
        if xct_spmm::simd_available() {
            "detected"
        } else {
            "not detected"
        },
        best.block_size,
        best.shared_bytes,
        best.fusing,
        best.flops_rate() / 1e6,
    ))
}

fn model(flags: &Flags) -> Result<String, CliError> {
    let dataset = flags.required("dataset")?;
    let nodes: usize = flags.parse_or("nodes", 128)?;
    let iterations: usize = flags.parse_or("iterations", 30)?;
    let precision: Precision = flags
        .get("precision")
        .unwrap_or("mixed")
        .parse()
        .map_err(|e| CliError(format!("{e}")))?;
    let spec = match dataset {
        "shale" => DatasetSpec::shale(),
        "chip" => DatasetSpec::chip(),
        "charcoal" => DatasetSpec::charcoal(),
        "brain" => DatasetSpec::brain(),
        other => return Err(CliError(format!("unknown dataset {other:?}"))),
    };
    let machine = MachineSpec::summit(nodes);
    // Machine-granularity planning: the Table III batch × data split
    // wrapped in a ReconPlan, consumed by the paper-scale estimator.
    let plan = Planner {
        precision,
        hierarchical: true,
        overlap: false,
        max_fusing: 16,
        kernel: None,
    }
    .plan_machine(spec.projections, spec.rows, spec.channels, &machine, 16);
    let partitioning = plan.partitioning;
    let est = ModelExperiment::from_plan(&plan, machine, OptLevel::full(), iterations).run();
    Ok(format!(
        "{} on {} Summit nodes ({} GPUs), {} precision, {} CG iterations:\n\
         partitioning {}x({}x6) (batch x data nodes)\n\
         kernel {:.1} s | comm {:.1} s | I/O {:.1} s | total {:.1} s\n\
         kernel sustains {:.2} PFLOPS across the machine",
        spec.name,
        nodes,
        machine.total_gpus(),
        precision,
        iterations,
        partitioning.batch,
        partitioning.data / 6,
        est.breakdown.kernel,
        est.breakdown.comm_total(),
        est.io_seconds,
        est.total_seconds,
        est.sustained_flops / 1e15,
    ))
}

fn fbp(flags: &Flags) -> Result<String, CliError> {
    let input = flags.required("in")?.to_owned();
    let out = flags.required("out")?.to_owned();
    let filter = match flags.get("filter").unwrap_or("ramlak") {
        "ramlak" => FilterKind::RamLak,
        "shepplogan" => FilterKind::SheppLogan,
        "hann" => FilterKind::Hann,
        other => return Err(CliError(format!("unknown filter {other:?}"))),
    };
    let (reader, angles, n) = open_sinogram(&input)?;
    let slices = reader.meta().slices;
    let scan = scan_for(n, angles);
    let writer = SliceWriter::create(
        &out,
        SliceFile {
            kind: FileKind::Volume,
            precision: reader.meta().precision,
            slices,
            slice_len: n * n,
        },
    )?;
    // One slice per slab; FBP is direct, so there is no iteration
    // budget and no residual to report.
    let outcome = stream_slabs(
        &scan,
        reader,
        writer,
        &vec![1; slices],
        0,
        &Telemetry::disabled(),
        |sinogram, _| Ok((filtered_backprojection(&scan, sinogram, filter), 0.0)),
    )?;
    outcome.reader.verify_checksum()?;
    outcome.writer.finish()?;
    let done = outcome.stats.slices;
    Ok(format!("FBP-reconstructed {done} slices to {out}"))
}

fn info(flags: &Flags) -> Result<String, CliError> {
    let input = flags.required("in")?.to_owned();
    let reader = SliceReader::open(&input)?;
    let meta = reader.meta();
    Ok(format!(
        "{input}: {:?} file, {} slices x {} scalars, {} storage, {} payload",
        meta.kind,
        meta.slices,
        meta.slice_len,
        meta.precision,
        meta.payload_bytes()
    ))
}

fn render(flags: &Flags) -> Result<String, CliError> {
    let input = flags.required("in")?.to_owned();
    let out = flags.required("out")?.to_owned();
    let slice: usize = flags.parse_or("slice", 0)?;
    let mut reader = SliceReader::open(&input)?;
    let meta = reader.meta();
    if slice >= meta.slices {
        return Err(CliError(format!(
            "slice {slice} out of range (file has {})",
            meta.slices
        )));
    }
    let side = (meta.slice_len as f64).sqrt().round() as usize;
    if side * side != meta.slice_len {
        return Err(CliError("can only render square slices".into()));
    }
    let mut data = None;
    let mut at = 0;
    while let Some(batch) = reader.read_batch(1)? {
        if at == slice {
            data = Some(batch);
            break;
        }
        at += 1;
    }
    // xct-allow(no-panic): infallible — the search above only breaks once data is set
    let data = data.expect("bounds checked above");
    let img = Image2D::from_data(side, side, data);
    img.write_pgm(Path::new(&out))
        .map_err(|e| CliError(format!("writing {out}: {e}")))?;
    Ok(format!("rendered slice {slice} ({side}x{side}) to {out}"))
}

/// Planner seeds the Layer-2 analyze pass sweeps: reproducible
/// arbitrary topologies and footprints from the verify corpus
/// generator, each built, compiled, and pushed through every static
/// check plus the interval/lifetime abstract interpretation.
const ANALYZE_SEEDS: u64 = 12;

fn analyze(flags: &Flags) -> Result<String, CliError> {
    let root = PathBuf::from(flags.get("root").unwrap_or("."));
    if flags.switch("self-test") {
        return analyze_self_test(&root);
    }
    let mut out = String::new();

    // Layer 1: source lints over every workspace `.rs` file.
    let lint_violations =
        xct_analyze::analyze_workspace(&root).map_err(|e| CliError(format!("analyze: {e}")))?;
    for v in &lint_violations {
        out.push_str(&format!("{v}\n"));
    }
    out.push_str(&format!(
        "layer 1 (source lints): {} violation(s)\n",
        lint_violations.len()
    ));

    // Layer 2: abstract interpretation over compiled communication
    // programs from representative planner topologies.
    let mut report = xct_verify::VerifyReport::new();
    for seed in 0..ANALYZE_SEEDS {
        let case = xct_verify::corpus::gen_case(seed);
        let plan = HierarchicalPlan::build(&case.footprints, &case.ownership, &case.topology);
        let compiled =
            CompiledPlans::compile_hierarchical(&case.footprints, &case.ownership, &plan);
        report.merge(xct_verify::verify_all_hierarchical(
            &case.footprints,
            &case.ownership,
            &case.topology,
            &plan,
            &compiled,
            true,
        ));
    }
    for v in &report.violations {
        out.push_str(&format!("{v}\n"));
    }
    out.push_str(&format!(
        "layer 2 (abstract interpretation): {ANALYZE_SEEDS} planner topologies, {} violation(s)\n",
        report.violations.len()
    ));

    if lint_violations.is_empty() && report.ok() {
        out.push_str("analyze: clean");
        Ok(out)
    } else {
        Err(CliError(out))
    }
}

/// `analyze --self-test`: the must-reject sweep over both corpora. A
/// checker that cannot reject its own seeded violations proves nothing
/// about a clean workspace.
fn analyze_self_test(root: &Path) -> Result<String, CliError> {
    let mut out = String::new();

    // Layer 1: every doctored source artifact must be rejected with
    // exactly the rule it seeds.
    let testdata = root.join("crates/analyze/testdata");
    match xct_analyze::selftest::sweep(&testdata) {
        Ok(lines) => {
            for l in &lines {
                out.push_str(l);
                out.push('\n');
            }
        }
        Err(failures) => return Err(CliError(failures.join("\n"))),
    }

    // Layer 2: every artifact of the verifier's must-reject table must
    // be rejected by the pass that owns it, with the witness the table
    // lists.
    let mut failed = Vec::new();
    for row in xct_verify::corpus::MUST_REJECT {
        match row.check() {
            Ok(()) => out.push_str(&format!("corpus/{}: rejected\n", row.name)),
            Err(report) => failed.push(format!("corpus/{}: NOT rejected\n{report}", row.name)),
        }
    }
    if failed.is_empty() {
        out.push_str("analyze --self-test: every corpus artifact rejected");
        Ok(out)
    } else {
        Err(CliError(format!("{out}{}", failed.join("\n"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("xct_cli_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn run_cmd(parts: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run(&args)
    }

    #[test]
    fn analyze_reports_the_workspace_clean() {
        let out = run_cmd(&["analyze", "--root", env!("CARGO_MANIFEST_DIR")]).unwrap();
        assert!(
            out.contains("layer 1 (source lints): 0 violation(s)"),
            "{out}"
        );
        assert!(out.contains("layer 2 (abstract interpretation)"), "{out}");
        assert!(out.contains("analyze: clean"), "{out}");
    }

    #[test]
    fn analyze_self_test_rejects_every_corpus_artifact() {
        let out = run_cmd(&[
            "analyze",
            "--root",
            env!("CARGO_MANIFEST_DIR"),
            "--self-test",
        ])
        .unwrap();
        assert!(out.contains("every corpus artifact rejected"), "{out}");
        // Both layers' sweeps are present in the transcript.
        assert!(out.contains("testdata/unsafe_outside.rs"), "{out}");
        let rows = xct_verify::corpus::MUST_REJECT;
        assert_eq!(rows.len(), 19, "static artifacts in the must-reject table");
        for row in rows {
            assert!(
                out.contains(&format!("corpus/{}: rejected", row.name)),
                "{out}"
            );
        }
    }

    #[test]
    fn full_cli_workflow() {
        let sino = tmp("cli_sino.xctd");
        let vol = tmp("cli_vol.xctd");
        let pgm = tmp("cli_slice.pgm");

        let out = run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "32",
            "--angles",
            "32",
            "--slices",
            "3",
        ])
        .unwrap();
        assert!(out.contains("3 x 32x32 shepp"));

        let out = run_cmd(&["info", "--in", &sino]).unwrap();
        assert!(out.contains("Sinogram"), "{out}");
        assert!(out.contains("3 slices"), "{out}");

        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--precision",
            "mixed",
            "--iterations",
            "20",
            "--batch",
            "2",
        ])
        .unwrap();
        assert!(out.contains("reconstructed 3 slices in 2 batches"), "{out}");

        let out = run_cmd(&["render", "--in", &vol, "--slice", "1", "--out", &pgm]).unwrap();
        assert!(out.contains("rendered slice 1 (32x32)"), "{out}");
        assert!(std::fs::read(&pgm).unwrap().starts_with(b"P5\n"));
    }

    #[test]
    fn fbp_command_works() {
        let sino = tmp("cli_fbp_sino.xctd");
        let vol = tmp("cli_fbp_vol.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "charcoal",
            "--out",
            &sino,
            "--n",
            "32",
            "--angles",
            "32",
            "--slices",
            "2",
        ])
        .unwrap();
        let out = run_cmd(&["fbp", "--in", &sino, "--out", &vol, "--filter", "hann"]).unwrap();
        assert!(out.contains("FBP-reconstructed 2 slices"), "{out}");
    }

    #[test]
    fn a_sinogram_shorter_than_its_header_is_refused_before_tracing() {
        // A real one-slice header patched to claim 1 × 2³² single
        // scalars (a 65 536² geometry), cut to 34 bytes: the header and
        // 8 payload bytes.
        let (path, out) = (tmp("short_sino.xctd"), tmp("short_rec.xctd"));
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: 1,
            slice_len: 4,
        };
        let mut w = SliceWriter::create(&path, meta).unwrap();
        w.write_slice(&[1.0; 4]).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[18..26].copy_from_slice(&(1u64 << 32).to_le_bytes());
        bytes.truncate(34);
        std::fs::write(&path, bytes).unwrap();
        let _ = std::fs::remove_file(&out);
        let err = run_cmd(&["reconstruct", "--in", &path, "--out", &out]).unwrap_err();
        let short = xct_io::IoError::ShortRead {
            path: path.clone(),
            expected: 4 << 32,
            actual: 8,
        };
        assert_eq!(err.0, short.to_string());
        assert!(!Path::new(&out).exists(), "{out} was created");
    }

    #[test]
    fn a_non_finite_sinogram_fails_naming_the_slab_and_the_iteration() {
        // Two slices reconstructed one per slab; the second holds a NaN,
        // so its backprojection, and with it the first γ, is NaN.
        let (path, out) = (tmp("nan_sino.xctd"), tmp("nan_rec.xctd"));
        let n = 16;
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: 2,
            slice_len: n * n,
        };
        let mut w = SliceWriter::create(&path, meta).unwrap();
        let mut slice = vec![1.0f32; n * n];
        w.write_slice(&slice).unwrap();
        slice[n * n / 2] = f32::NAN;
        w.write_slice(&slice).unwrap();
        w.finish().unwrap();
        for solver in ["cgls", "sirt"] {
            let args = [
                "reconstruct",
                "--in",
                &path,
                "--out",
                &out,
                "--batch",
                "1",
                "--iterations",
                "4",
                "--precision",
                "single",
                "--solver",
                solver,
            ];
            let err = run_cmd(&args).unwrap_err();
            let what = if solver == "cgls" {
                "gamma"
            } else {
                "residual norm"
            };
            let want = format!("slab 1: solve stopped, {what} is not finite at iteration 1");
            assert_eq!(err.0, want, "{solver}");
        }

        // On four ranks the run stops the same way, and its flight dump
        // shows every rank.
        let dump = tmp("nan_flightrec.json");
        let _ = std::fs::remove_file(&dump);
        let args = [
            "reconstruct",
            "--in",
            &path,
            "--out",
            &out,
            "--batch",
            "1",
            "--iterations",
            "4",
            "--precision",
            "single",
            "--topology",
            "1x2x2",
            "--flightrec-out",
            &dump,
        ];
        let err = run_cmd(&args).unwrap_err().0;
        assert_eq!(
            err,
            "slab 1: solve stopped, gamma is not finite at iteration 1"
        );
        let doc = Json::parse(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        assert_eq!(doc.str_at("reason"), Ok(err.as_str()));
        let events = doc.array_at("events").unwrap();
        for track in 0..4 {
            let closes = events
                .iter()
                .filter(|e| e.u64_at("track") == Ok(track) && e.str_at("kind") == Ok("span_end"));
            assert!(closes.count() > 0, "track {track} closed no span");
        }
        // Each rank's send counter is what its communicator metered, over
        // both slabs: a replay of the two solves counts the messages.
        let plan = Planner {
            precision: Precision::Single,
            hierarchical: true,
            max_fusing: 1,
            ..Default::default()
        }
        .plan(VolumeDims { n, slices: 2 }, n, None, Topology::new(1, 2, 2))
        .unwrap();
        let base = DistributedConfig {
            iterations: 4,
            ..Default::default()
        };
        let cfg = DistributedConfig::from_plan(&plan, &base);
        let mut reader = SliceReader::open(&path).unwrap();
        let mut metered = [0u64; 4];
        while let Some(slice) = reader.read_batch(1).unwrap() {
            let result = reconstruct_distributed(&scan_for(n, n), &slice, &cfg);
            for stats in &result.comm_stats {
                metered[stats.rank] += stats.total_msgs();
            }
        }
        let tracks = doc.get("metrics").unwrap().array_at("tracks").unwrap();
        for (rank, &msgs) in metered.iter().enumerate() {
            let track = tracks.iter().find(|t| t.usize_at("track") == Ok(rank));
            let counters = track.and_then(|t| t.get("counters")).unwrap();
            assert_eq!(counters.u64_at("comm.send.msgs"), Ok(msgs), "rank {rank}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run_cmd(&["bogus"]).is_err());
        assert!(run_cmd(&["simulate", "--phantom", "shepp"])
            .unwrap_err()
            .0
            .contains("--out"));
        assert!(run_cmd(&["simulate", "--phantom", "wat", "--out", "/tmp/x"]).is_err());
        assert!(run_cmd(&["reconstruct", "--in", "/nonexistent", "--out", "/tmp/y"]).is_err());
        assert!(run_cmd(&["info"]).unwrap_err().0.contains("--in"));
        let usage = run_cmd(&["help"]).unwrap();
        assert!(usage.contains("USAGE"));
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_an_error_naming_both() {
        for (args, flag, command) in [
            (
                &[
                    "simulate",
                    "--phantom",
                    "shepp",
                    "--out",
                    "/tmp/x",
                    "--sedd",
                    "9",
                ][..],
                "--sedd",
                "petaxct simulate",
            ),
            (
                &["reconstruct", "--in", "a", "--out", "b", "--iteratons", "3"][..],
                "--iteratons",
                "petaxct reconstruct",
            ),
            (
                &["info", "--in", "a", "--slice", "0"][..],
                "--slice",
                "petaxct info",
            ),
            (
                &["analyze", "--selftest"][..],
                "--selftest",
                "petaxct analyze",
            ),
        ] {
            let err = run_cmd(args).unwrap_err().0;
            assert!(err.contains("unknown flag"), "{err}");
            assert!(err.contains(flag) && err.contains(command), "{err}");
        }
    }

    #[test]
    fn every_reconstruct_flag_is_read_whatever_the_solver_and_topology() {
        // One arm reads every flag: a distributed flag without a topology
        // (the default 1x1x1), SIRT with any of them and damping on ranks
        // all get as far as the file, and fail as a run without them
        // does. TV is no solver.
        let base = ["reconstruct", "--in", "/nonexistent", "--out", "/tmp/y"];
        let error = |extra: &[&str]| run_cmd(&[&base[..], extra].concat()).unwrap_err().0;
        let missing = error(&[]);
        for extra in [
            &["--overlap", "--wire", "--verify-plans"][..],
            &["--profile-out", "/tmp/p.json"][..],
            &["--weights-from", "/tmp/w.json"][..],
            &[
                "--solver",
                "sirt",
                "--topology",
                "1x2x2",
                "--overlap",
                "--wire",
            ][..],
            &["--solver", "sirt", "--memory-budget", "1000000"][..],
            &["--solver", "sirt", "--stream", "--verify-plans"][..],
            &["--topology", "1x2x2", "--damping", "0.1"][..],
        ] {
            assert_eq!(error(extra), missing, "{extra:?}");
        }
        let err = error(&["--solver", "tv"]);
        assert!(err.contains("unknown solver \"tv\""), "{err}");
    }

    #[test]
    fn sirt_refuses_a_damping_it_would_not_apply() {
        // Whatever its value, and before the input is opened: SIRT would
        // drop the flag silently.
        for value in ["0.1", "0"] {
            let args = [
                "reconstruct",
                "--in",
                "/nonexistent",
                "--out",
                "/tmp/y",
                "--damping",
                value,
                "--solver",
                "sirt",
            ];
            let err = run_cmd(&args).unwrap_err().0;
            assert!(err.contains("--damping") && err.contains("sirt"), "{err}");
        }
    }

    #[test]
    fn damping_that_is_no_finite_weight_is_refused_while_parsing() {
        // Refused before the input is opened or the output created:
        // the input does not exist, and no output appears.
        let out = tmp("damping_refused.xctd");
        let _ = std::fs::remove_file(&out);
        for value in ["nan", "inf", "-inf", "1e308", "-1", "-1e-300"] {
            let args = [
                "reconstruct",
                "--in",
                "/nonexistent",
                "--out",
                &out,
                "--damping",
                value,
            ];
            let err = run_cmd(&args).unwrap_err().0;
            assert!(
                err.starts_with("--damping must be a finite weight"),
                "{value}: {err}"
            );
            assert!(!Path::new(&out).exists(), "{value}: {out} was created");
        }
        // Zero and a weight whose square is finite get as far as the file.
        for value in ["0", "-0", "1e150"] {
            let args = [
                "reconstruct",
                "--in",
                "/nonexistent",
                "--out",
                &out,
                "--damping",
                value,
            ];
            let err = run_cmd(&args).unwrap_err().0;
            assert!(!err.contains("--damping"), "{value}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_declared_flag_and_the_readme_uses_no_other() {
        // What the parser accepts is what the usage text shows: the
        // declarations are read off the printed lines.
        let usage = usage();
        for command in COMMANDS {
            assert!(usage.contains(&format!("  petaxct {}", command.name)));
            assert!(command.flags.lines().all(|line| usage.contains(line)));
        }
        let reconstruct = &COMMANDS[1];
        for key in ["in", "solver", "wire", "weights-from", "metrics-interval"] {
            assert!(reconstruct.declares(key), "--{key}");
        }
        // Help text and values declare nothing.
        for key in [
            "topology 1x1x1",
            "batch)",
            "LAT_USxMBPS",
            "tile",
            "self-test",
        ] {
            assert!(!reconstruct.declares(key), "--{key}");
        }
        // Every `petaxct <command> --flag …` line of the README (its
        // shell continuations joined) parses against the same table.
        let readme = include_str!("../README.md").replace("\\\n", " ");
        let mut checked = 0;
        for line in readme.lines() {
            let Some(at) = line.find("petaxct ") else {
                continue;
            };
            let mut words = line[at + "petaxct ".len()..].split_whitespace();
            let Some(command) = words
                .next()
                .and_then(|w| COMMANDS.iter().find(|c| c.name == w))
            else {
                continue;
            };
            for word in words.take_while(|w| !matches!(*w, "#" | "|" | ">")) {
                if let Some(flag) = word.strip_prefix("--") {
                    let flag = flag.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                    assert!(
                        command.declares(flag),
                        "README runs `petaxct {} --{flag}`, which the command does not declare",
                        command.name
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "README flag uses checked: {checked}");
    }

    #[test]
    fn profile_artifact_closes_the_loop_and_hostile_ones_are_parse_errors() {
        let (sino, vol) = (tmp("cli_profile_sino.xctd"), tmp("cli_profile_vol.xctd"));
        let (artifact, hostile) = (tmp("cli_profile.json"), tmp("cli_profile_bad.json"));
        let run = |line: String| run_cmd(&line.split(' ').collect::<Vec<_>>());
        let problem = "--n 16 --angles 16 --slices 2";
        run(format!("simulate --phantom shale --out {sino} {problem}")).unwrap();
        let run_opts = "--topology 1x2x2 --iterations 3";
        let out = run(format!("profile {problem} {run_opts} --out {artifact}")).unwrap();
        assert!(out.contains("spmm.compute") && out.contains("max rank slack"));
        // The artifact is a view of the run's spans: every rank charged
        // SpMM time, and the drift table sums the per-rank tables.
        let text = std::fs::read_to_string(&artifact).unwrap();
        let report = ProfileReport::parse(&text).unwrap();
        assert_eq!(report.ranks.len(), 4);
        assert!(report.ranks.iter().all(|r| r.components[0] > 0), "{text}");
        for row in &report.drift {
            let ranks = report.ranks.iter();
            let by_rank: u64 = ranks.map(|r| r.component_ns(row.component)).sum();
            assert_eq!(row.measured_ns, by_rank, "{}", row.component);
        }
        let reconstruct = |weights: &str| {
            run(format!(
                "reconstruct --in {sino} --out {vol} {run_opts} --weights-from {weights}"
            ))
        };
        assert!(reconstruct(&artifact).unwrap().contains("rebalanced"));
        for (from, to, names) in [
            (r#""topology":"1x2x2""#, r#""topology":"0x2x2""#, "0x2x2"),
            (r#""tiles_x":4"#, r#""tiles_x":-1"#, "tiles_x"),
            (r#""n":16"#, r#""n":2.5"#, r#""n""#),
        ] {
            assert!(text.contains(from), "{text}");
            std::fs::write(&hostile, text.replacen(from, to, 1)).unwrap();
            let err = reconstruct(&hostile).unwrap_err().0;
            assert!(
                err.contains("cannot parse profile file") && err.contains(names),
                "{err}"
            );
        }
    }

    #[test]
    fn weights_that_do_not_fit_the_plan_are_refused_by_profile_and_reconstruct() {
        // An artifact measured on a 16² grid fed to a 24² problem, and one
        // claiming tile size 0: both commands refuse them with the
        // plan_fits witness before the decomposition could panic on them.
        let (sino, vol) = (tmp("cli_misfit_sino.xctd"), tmp("cli_misfit_vol.xctd"));
        let (measured, zero) = (tmp("cli_misfit_n16.json"), tmp("cli_misfit_tile0.json"));
        let out = tmp("cli_misfit_out.json");
        let run = |line: String| run_cmd(&line.split(' ').collect::<Vec<_>>());
        let run_opts = "--topology 1x2x2 --iterations 2";
        run(format!(
            "profile --n 16 --angles 16 --slices 1 {run_opts} --out {measured}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&measured).unwrap();
        assert!(text.contains(r#""tile_size":4"#), "{text}");
        std::fs::write(
            &zero,
            text.replacen(r#""tile_size":4"#, r#""tile_size":0"#, 1),
        )
        .unwrap();
        let problem = "--n 24 --angles 24 --slices 1";
        run(format!("simulate --phantom shale --out {sino} {problem}")).unwrap();
        let commands = [
            format!("profile {problem} --out {out}"),
            format!("reconstruct --in {sino} --out {vol}"),
        ];
        for (weights, witness) in [(&measured, "6x6 tile grid"), (&zero, "zero tile size")] {
            for command in &commands {
                let line = format!("{command} {run_opts} --weights-from {weights}");
                let err = run(line).unwrap_err().0;
                assert!(
                    err.contains("plan rejected") && err.contains(witness),
                    "{command}: {err}"
                );
            }
        }
    }

    #[test]
    fn sirt_and_damped_cgls_via_cli_on_every_topology() {
        let sino = tmp("cli_solver_sino.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "24",
            "--angles",
            "24",
            "--slices",
            "2",
        ])
        .unwrap();
        for (extra, label, ranks) in [
            (&["--solver", "sirt"][..], "sirt", 1),
            (&["--solver", "sirt", "--topology", "1x2x2"][..], "sirt", 4),
            (&["--damping", "0.1", "--topology", "1x2x2"][..], "cgls", 4),
        ] {
            let vol = tmp(&format!("cli_solver_{label}_{ranks}.xctd"));
            let _ = std::fs::remove_file(&vol);
            let args = [
                &[
                    "reconstruct",
                    "--in",
                    &sino,
                    "--out",
                    &vol,
                    "--iterations",
                    "30",
                ][..],
                extra,
            ]
            .concat();
            let out = run_cmd(&args).unwrap();
            assert!(
                out.contains(&format!("on {ranks} simulated ranks ({label},")),
                "{extra:?}: {out}"
            );
            let mut volume = SliceReader::open(&vol).unwrap();
            assert_eq!(volume.meta().slices, 2, "{extra:?}");
            volume.read_batch(2).unwrap().unwrap();
            volume.verify_checksum().unwrap();
        }
        for solver in ["magic", "tv"] {
            let err = run_cmd(&[
                "reconstruct",
                "--in",
                &sino,
                "--out",
                "/tmp/x",
                "--solver",
                solver,
            ])
            .unwrap_err()
            .0;
            assert!(err.contains("unknown solver"), "{solver}: {err}");
        }
    }

    #[test]
    fn distributed_reconstruction_with_overlap_and_summary() {
        let sino = tmp("cli_overlap_sino.xctd");
        let vol = tmp("cli_overlap_vol.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "24",
            "--angles",
            "24",
            "--slices",
            "3",
        ])
        .unwrap();
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--topology",
            "1x2x2",
            "--overlap",
            "--iterations",
            "8",
            "--telemetry-summary",
        ])
        .unwrap();
        assert!(out.contains("on 4 simulated ranks"), "{out}");
        assert!(out.contains("comm overlapped"), "{out}");
        // The per-phase breakdown table must make it to stdout.
        assert!(out.contains("% wall"), "{out}");
        assert!(out.contains("reduce.global"), "{out}");
        assert!(out.contains("spmm.forward"), "{out}");
    }

    #[test]
    fn wired_reconstruct_prints_the_critical_path_table() {
        let sino = tmp("cli_cp_sino.xctd");
        let vol = tmp("cli_cp_vol.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "2",
        ])
        .unwrap();
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--topology",
            "2x2x2",
            "--overlap",
            "--iterations",
            "2",
            "--wire",
            "200x50",
            "--critical-path",
        ])
        .unwrap();
        assert!(out.contains("wired"), "{out}");
        // The per-rank critical-path/slack table and the per-phase
        // histograms must make it to stdout.
        assert!(out.contains("critical path"), "{out}");
        assert!(out.contains("slack"), "{out}");
        assert!(out.contains("zero slack"), "{out}");
        assert!(out.contains("duration histograms"), "{out}");
        for rank in 0..8 {
            assert!(
                out.lines().any(|l| l.starts_with(&format!("{rank} "))),
                "missing rank {rank} row in:\n{out}"
            );
        }
    }

    #[test]
    fn wire_flag_rejects_malformed_specs() {
        let err = parse_wire("banana", &Topology::new(2, 1, 2)).unwrap_err();
        assert!(err.0.contains("--wire"), "{err}");
        let model = parse_wire("true", &Topology::new(2, 2, 3)).unwrap();
        assert_eq!(model.latency, Duration::from_micros(600));
        assert_eq!(model.ranks_per_node, 6);
        let pure_latency = parse_wire("250x0", &Topology::new(2, 1, 1)).unwrap();
        assert_eq!(pure_latency.bytes_per_sec, f64::INFINITY);
    }

    /// Reconstructs a 1-slice 8x8 sinogram on 1x1x2 over `--wire spec`.
    fn reconstruct_over_wire(name: &str, spec: &str) -> Result<String, CliError> {
        let sino = tmp(&format!("cli_{name}_sino.xctd"));
        let vol = tmp(&format!("cli_{name}_vol.xctd"));
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "8",
            "--angles",
            "8",
            "--slices",
            "1",
        ])
        .unwrap();
        run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--topology",
            "1x1x2",
            "--wire",
            spec,
            "--iterations",
            "1",
        ])
    }

    #[test]
    fn a_wire_latency_no_duration_holds_is_refused_naming_the_flag() {
        let err = reconstruct_over_wire("wire_latency", "1e300x50").unwrap_err();
        assert!(
            err.0.contains("--wire") && err.0.contains("latency"),
            "{err}"
        );
        assert!(parse_wire("3e7x50", &Topology::new(1, 1, 2)).is_err());
    }

    #[test]
    fn a_wire_bandwidth_below_one_byte_per_second_is_refused_naming_the_flag() {
        let err = reconstruct_over_wire("wire_bandwidth", "600x1e-300").unwrap_err();
        assert!(err.0.contains("--wire") && err.0.contains("1 B/s"), "{err}");
        // 0 is unlimited, 1 B/s the slowest wire.
        reconstruct_over_wire("wire_unlimited", "600x0").unwrap();
        assert!(parse_wire("600x1e-6", &Topology::new(1, 1, 2)).is_ok());
    }

    #[test]
    fn simulate_refuses_an_empty_grid_or_scan_naming_the_flag() {
        let out = tmp("cli_empty_sino.xctd");
        for flag in ["--n", "--angles"] {
            let err =
                run_cmd(&["simulate", "--phantom", "shepp", "--out", &out, flag, "0"]).unwrap_err();
            assert!(
                err.0.contains(flag) && err.0.contains("at least 1"),
                "{err}"
            );
        }
    }

    #[test]
    fn simulate_refuses_a_flux_that_is_no_photon_count() {
        let out = tmp("cli_flux_sino.xctd");
        for flux in ["inf", "NaN", "-5"] {
            let err = run_cmd(&[
                "simulate",
                "--phantom",
                "shepp",
                "--out",
                &out,
                "--flux",
                flux,
            ])
            .unwrap_err();
            assert!(err.0.contains("--flux"), "{flux}: {err}");
        }
    }

    #[test]
    fn a_flag_given_twice_is_refused() {
        let out = tmp("cli_twice_sino.xctd");
        let err = run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &out,
            "--n",
            "8",
            "--n",
            "16",
        ])
        .unwrap_err();
        assert_eq!(err.0, "--n is given twice");
    }

    #[test]
    fn distributed_reconstruction_with_verified_plans() {
        let sino = tmp("cli_verify_sino.xctd");
        let vol = tmp("cli_verify_vol.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "2",
        ])
        .unwrap();
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--topology",
            "1x2x2",
            "--verify-plans",
            "--iterations",
            "4",
        ])
        .unwrap();
        assert!(out.contains("plans verified"), "{out}");
    }

    #[test]
    fn budgeted_reconstruct_streams_and_matches_the_unconstrained_batching() {
        let sino = tmp("cli_budget_sino.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "4",
        ])
        .unwrap();
        // A budget that admits exactly two fused slices per rank.
        let dims = VolumeDims { n: 16, slices: 4 };
        let topo = Topology::new(1, 2, 2);
        let probe = Planner {
            precision: Precision::Single,
            hierarchical: true,
            overlap: false,
            max_fusing: 8,
            kernel: None,
        }
        .plan(dims, 16, None, topo)
        .unwrap();
        let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();

        let budgeted = tmp("cli_budget_vol.xctd");
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &budgeted,
            "--topology",
            "1x2x2",
            "--precision",
            "single",
            "--iterations",
            "4",
            "--memory-budget",
            &budget.to_string(),
        ])
        .unwrap();
        assert!(out.contains("in 2 batches"), "{out}");
        assert!(out.contains("streamed"), "{out}");
        assert!(out.contains("within budget"), "{out}");

        // The same run batched at fusing 2 without a budget must be
        // bit-identical: slab boundaries, not data movement, determine
        // the arithmetic.
        let batched = tmp("cli_batch_vol.xctd");
        run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &batched,
            "--topology",
            "1x2x2",
            "--precision",
            "single",
            "--iterations",
            "4",
            "--batch",
            "2",
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&budgeted).unwrap(),
            std::fs::read(&batched).unwrap(),
            "budgeted streaming must be bit-identical to plain batching"
        );

        // An impossible budget is rejected by the planner, not executed.
        let err = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            "/tmp/never.xctd",
            "--topology",
            "1x2x2",
            "--memory-budget",
            "16",
        ])
        .unwrap_err();
        assert!(err.0.contains("too small"), "{err}");
    }

    #[test]
    fn stream_flag_forces_out_of_core_on_the_default_topology() {
        let sino = tmp("cli_stream_sino.xctd");
        let vol = tmp("cli_stream_vol.xctd");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "3",
        ])
        .unwrap();
        // No --topology: --stream implies a planned run on 1x1x1.
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--stream",
            "--iterations",
            "4",
        ])
        .unwrap();
        assert!(out.contains("on 1 simulated ranks"), "{out}");
        assert!(out.contains("streamed"), "{out}");
        assert!(out.contains("in 2 batches"), "{out}");
    }

    #[test]
    fn metrics_out_writes_json_prometheus_and_csv_for_a_wired_streamed_run() {
        let sino = tmp("cli_metrics_sino.xctd");
        let vol = tmp("cli_metrics_vol.xctd");
        let metrics = tmp("cli_metrics.json");
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "4",
        ])
        .unwrap();
        let out = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            &vol,
            "--topology",
            "2x2x2",
            "--iterations",
            "4",
            "--batch",
            "2",
            "--stream",
            "--wire",
            "200x50",
            "--metrics-out",
            &metrics,
            "--metrics-interval",
            "10",
        ])
        .unwrap();
        assert!(out.contains("metrics series written"), "{out}");
        assert!(out.contains("streamed"), "{out}");

        // The JSON series round-trips and carries comm, io, and solver
        // metrics with non-trivial values.
        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("petaxct-metrics-v1")
        );
        let samples = doc.get("samples").and_then(Json::as_array).unwrap();
        assert!(!samples.is_empty());
        let last = samples.last().unwrap();
        let tracks = last.get("tracks").and_then(Json::as_array).unwrap();
        assert!(!tracks.is_empty());
        let sum_counter = |name: &str| -> f64 {
            tracks
                .iter()
                .filter_map(|t| t.get("counters").and_then(|c| c.get(name)))
                .filter_map(Json::as_f64)
                .sum()
        };
        assert!(sum_counter("comm.send.bytes") > 0.0, "comm metrics empty");
        assert!(
            sum_counter("solver.iterations") > 0.0,
            "solver metrics empty"
        );
        assert!(
            sum_counter("stream.slabs.done") >= 2.0,
            "streamed run must finish at least two slabs"
        );
        assert!(
            sum_counter("io.prefetch.hits") + sum_counter("io.prefetch.misses") > 0.0,
            "io metrics empty"
        );

        // The Prometheus exposition carries the same metrics.
        let prom = std::fs::read_to_string(format!("{metrics}.prom")).unwrap();
        assert!(
            prom.contains("# TYPE petaxct_comm_send_bytes counter"),
            "{prom}"
        );
        assert!(prom.contains("petaxct_solver_iterations{track="), "{prom}");
        assert!(prom.contains("petaxct_comm_wait_ns_bucket"), "{prom}");

        // And the CSV has the header plus at least one data row.
        let csv = std::fs::read_to_string(format!("{metrics}.csv")).unwrap();
        assert!(csv.starts_with("at_ns,track,metric,value\n"), "{csv}");
        assert!(csv.contains("solver.iterations"), "{csv}");
    }

    #[test]
    fn failed_run_dumps_the_flight_recorder() {
        let sino = tmp("cli_flight_sino.xctd");
        let dump = tmp("cli_flight_dump.json");
        let _ = std::fs::remove_file(&dump);
        run_cmd(&[
            "simulate",
            "--phantom",
            "shepp",
            "--out",
            &sino,
            "--n",
            "16",
            "--angles",
            "16",
            "--slices",
            "2",
        ])
        .unwrap();
        // An impossible memory budget fails after telemetry is armed.
        let err = run_cmd(&[
            "reconstruct",
            "--in",
            &sino,
            "--out",
            "/tmp/never_flight.xctd",
            "--topology",
            "1x2x2",
            "--memory-budget",
            "16",
            "--flightrec-out",
            &dump,
        ])
        .unwrap_err();
        assert!(err.0.contains("too small"), "{err}");
        let doc = Json::parse(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("petaxct-flightrec-v1")
        );
        assert!(doc
            .get("reason")
            .and_then(Json::as_str)
            .unwrap()
            .contains("too small"));
    }

    #[test]
    fn model_subcommand_reports_summit_estimate() {
        let out = run_cmd(&["model", "--dataset", "charcoal", "--nodes", "128"]).unwrap();
        assert!(
            out.contains("Activated Charcoal on 128 Summit nodes"),
            "{out}"
        );
        assert!(
            out.contains("4x(32x6)"),
            "partitioning must match Table III: {out}"
        );
        assert!(out.contains("PFLOPS"), "{out}");
    }

    #[test]
    fn noisy_simulation_differs_from_clean() {
        let clean = tmp("cli_clean.xctd");
        let noisy = tmp("cli_noisy.xctd");
        for (path, flux) in [(&clean, "0"), (&noisy, "1000")] {
            run_cmd(&[
                "simulate",
                "--phantom",
                "shepp",
                "--out",
                path,
                "--n",
                "24",
                "--angles",
                "24",
                "--slices",
                "1",
                "--flux",
                flux,
            ])
            .unwrap();
        }
        let read = |p: &str| {
            let mut r = SliceReader::open(p).unwrap();
            r.read_batch(1).unwrap().unwrap()
        };
        assert_ne!(read(&clean), read(&noisy));
    }

    #[test]
    fn rebalance_preview_counts_the_tiles_the_run_moves() {
        // The profile loop's preview and the set-up's recorded decision
        // count one quantity: on a skewed table they must agree, and be
        // nonzero.
        use xct_core::distributed::DistributedSetup;
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let mut weights = vec![10u64; 16];
        weights[..2].fill(1_000);
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            tile: 4,
            tile_weights: Some(TileWeights {
                tile_size: 4,
                weights: weights.clone(),
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        DistributedSetup::build(&scan, &cfg, xct_exec::Executor::Serial);
        let moved = (telemetry.snapshot().events.into_iter())
            .find(|e| e.name == "rebalance.tiles_moved")
            .expect("rebalance decision recorded")
            .value;
        assert!(moved > 0.0);
        let preview = rebalance_preview(&scan, 4, 4, &weights);
        assert!(
            preview.contains(&format!("({moved} tiles re-homed)")),
            "{preview}"
        );
    }
}
