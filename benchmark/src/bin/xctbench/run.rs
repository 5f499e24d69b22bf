//! One run of one workload: warm-up, timed repetitions for `--seconds`,
//! correctness checks, set-up replays, and (traced runs) the per-layer
//! probes. Closed loop: one call at a time from this one process.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use xct_comm::TrafficClass;
use xct_exec::Telemetry;
use xct_geometry::SystemMatrix;
use xct_phantom::{psnr_db, Image2D};
use xct_telemetry::Json;

use crate::layers::{
    io_alone, kernel_rates, packed_matrix_bytes, read_trace, replay_setup_many, RankSetup, Samples,
};
use crate::predict::{predictions, Observed, Prediction};
use crate::spec::{Entry, Kind, Spec, END_TO_END, PER_LAYER};
use crate::stats::{hash_bits, median, peak_rss_mib};
use crate::workloads::{generate, kernel_threads, Inputs, RepOutput, Runner};

/// What a run reports: the contract's four keys plus everything the
/// result file keeps beside them.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub detail: Json,
}

impl Outcome {
    /// The contract's last line.
    pub fn result_line(&self) -> Json {
        Json::object(vec![
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Json {
    Json::object(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name,
                    Json::object(vec![
                        ("value", Json::from(value)),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Judges every repetition against the first good one and the pinned
/// quality bounds.
struct Checker<'a> {
    spec: &'a Spec,
    truth: &'a [Image2D],
    /// Hash, residual and PSNR of the first repetition that passed.
    reference: Option<(u64, f64, f64)>,
    failures: Vec<String>,
}

impl Checker<'_> {
    /// Mean over slices of the PSNR against the phantom.
    fn psnr(&self, x: &[f32]) -> f64 {
        let n = self.spec.n;
        let total: f64 = x
            .chunks(n * n)
            .zip(self.truth)
            .map(|(slice, truth)| psnr_db(&Image2D::from_data(n, n, slice.to_vec()), truth))
            .sum();
        total / self.truth.len() as f64
    }

    /// Returns the output when the repetition passed every check.
    fn judge(&mut self, what: &str, rep: Result<RepOutput, String>) -> Option<RepOutput> {
        let verdict = rep.and_then(|out| {
            let hash = hash_bits(&out.x);
            match self.reference {
                Some((want, _, _)) if hash != want => Err(format!(
                    "output bits differ from the first repetition ({hash:016x} vs {want:016x})"
                )),
                Some(_) => Ok(out),
                None => {
                    let psnr = self.psnr(&out.x);
                    // A NaN is a failure too.
                    if out.residual.is_nan() || out.residual > self.spec.residual_max {
                        Err(format!(
                            "final residual {} above {}",
                            out.residual, self.spec.residual_max
                        ))
                    } else if psnr.is_nan() || psnr < self.spec.psnr_min_db {
                        Err(format!("PSNR {psnr} dB below {} dB", self.spec.psnr_min_db))
                    } else {
                        self.reference = Some((hash, out.residual, psnr));
                        Ok(out)
                    }
                }
            }
        });
        match verdict {
            Ok(out) => Some(out),
            Err(why) => {
                eprintln!("{}: {what} FAILED: {why}", self.spec.name);
                self.failures.push(format!("{what}: {why}"));
                None
            }
        }
    }
}

/// A repetition that reports a panic in the program (rank threads
/// included: `run_ranks` re-raises theirs) as a failed repetition.
fn guarded_rep(
    runner: &mut Runner,
    spec: &Spec,
    inputs: &Inputs,
    telemetry: &Telemetry,
) -> Result<RepOutput, String> {
    catch_unwind(AssertUnwindSafe(|| runner.rep(spec, inputs, telemetry))).unwrap_or_else(
        |payload| {
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {text}"))
        },
    )
}

fn print_timing(label: &str, samples: &[f64]) {
    if samples.is_empty() {
        return;
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!(
        "  {label:<34} median {:.6} s  n={} min {min:.6} max {max:.6}",
        median(samples),
        samples.len(),
    );
}

/// Everything the repetitions and the set-up replays measured; both
/// metric sets are read off this.
struct Measured {
    /// Wall time of each untraced / traced repetition that passed.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Per-phase self times and coverage of the traced repetitions.
    trace: Samples,
    /// Set-up stage times, one sample per replay.
    setup: Samples,
    /// The last untraced repetition: counters, traffic and the volume.
    last: RepOutput,
    residual: f64,
    psnr: f64,
    peak_rss: f64,
    sm: SystemMatrix,
    rank_setup: Option<RankSetup>,
}

impl Measured {
    fn recon_s(&self) -> f64 {
        median(&self.untraced)
    }

    /// In `END_TO_END` order.
    fn end_to_end(&self, spec: &Spec) -> [f64; 6] {
        let work = (spec.slices * spec.iterations) as f64;
        [
            self.recon_s(),
            work / self.recon_s(),
            self.setup.median("setup_s"),
            self.residual,
            self.psnr,
            self.peak_rss,
        ]
    }
}

/// The per-layer metrics of a traced run, the probes that only a traced
/// run pays for included. Metrics of layers the workload does not touch
/// stay 0.
fn per_layer(
    spec: &Spec,
    runner: &Runner,
    inputs: &Inputs,
    m: &Measured,
    workdir: &Path,
    failures: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        assert!(
            PER_LAYER.iter().any(|l| l.0 == name),
            "{name} is not a per-layer metric"
        );
        layer.insert(name, value);
    };
    for samples in [&m.setup, &m.trace] {
        for name in samples
            .names()
            .filter(|n| PER_LAYER.iter().any(|l| l.0 == *n))
        {
            set(name, samples.median(name));
        }
    }
    set("geometry.nnz", m.sm.nnz() as f64);

    let c = m.last.counters;
    let spmm_s = m.trace.median("spmm.forward_s") + m.trace.median("spmm.transpose_s");
    set("spmm.flops", c.flops as f64);
    set("spmm.padded_flops", c.padded_flops as f64);
    set("spmm.bytes_computed", c.bytes() as f64);
    set("spmm.launches", c.kernel_launches as f64);
    set(
        "spmm.pad_efficiency",
        c.flops as f64 / c.padded_flops as f64,
    );
    set("spmm.flop_per_byte_computed", c.arithmetic_intensity());
    set("spmm.gflops", c.flops as f64 / spmm_s / 1e9);

    let class_bytes = |class| {
        m.last
            .comm
            .iter()
            .map(|s| s.class_bytes_of(class))
            .sum::<u64>() as f64
    };
    set("comm.bytes_socket", class_bytes(TrafficClass::Socket));
    set("comm.bytes_node", class_bytes(TrafficClass::Node));
    set("comm.bytes_global", class_bytes(TrafficClass::Global));
    set("comm.bytes_control", class_bytes(TrafficClass::Control));
    set(
        "comm.msgs",
        m.last.comm.iter().map(|s| s.total_msgs()).sum::<u64>() as f64,
    );

    set(
        "telemetry.trace_overhead_frac",
        median(&m.traced) / m.recon_s() - 1.0,
    );

    if let Some(one_thread) = runner.serial_rep_one_thread(inputs) {
        set("exec.parallel_speedup", one_thread / m.recon_s());
        let (kernel, reference) = kernel_rates(&m.sm);
        set("spmm.kernel_gflops_1t", kernel);
        set("spmm.reference_gflops_1t", reference);
    }
    if let Some(ranks) = &m.rank_setup {
        set(
            "comm.internode_reduction_frac",
            ranks.internode_reduction_frac(),
        );
        let overlap = matches!(spec.entry, Entry::Ranks { overlap: true, .. });
        let (seconds, clean) = ranks.verify(overlap);
        set("verify.plan_check_s", seconds);
        if !clean {
            failures.push("static plan verification found violations".to_string());
        }
    }
    if let Runner::Streamed { plan, sino, .. } = runner {
        set("plan.slabs", plan.slabs.len() as f64);
        set("plan.fusing", plan.fusing as f64);
        set("plan.per_rank_bytes", plan.per_rank_bytes() as f64);
        let (read_s, write_s) = io_alone(spec, sino, &m.last.x, workdir)?;
        let read_bytes = (inputs.sinogram.len() * 4) as f64;
        let write_bytes = (m.last.x.len() * 4) as f64;
        set("io.read_s", read_s);
        set("io.write_s", write_s);
        set("io.read_bytes", read_bytes);
        set("io.write_bytes", write_bytes);
        set("io.read_mb_per_s", read_bytes / read_s / 1e6);
        set("io.write_mb_per_s", write_bytes / write_s / 1e6);
    }
    Ok(layer)
}

/// Runs `spec` once. `workdir` (inside the checkout) holds the streamed
/// workload's files and is the caller's to remove.
pub fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: &Path,
) -> Result<Outcome, String> {
    println!("== {} seed {seed} trace {} ==", spec.name, u8::from(trace));
    println!("  {}", spec.describe());
    let inputs = generate(spec, seed);
    let mut runner = Runner::prepare(spec, &inputs, workdir)?;
    let mut checker = Checker {
        spec,
        truth: &inputs.truth,
        reference: None,
        failures: Vec::new(),
    };
    let off = Telemetry::disabled();

    // The first repetition measured 8–10 % slow (cold workspace, page
    // faults), so one is run and checked but not timed.
    let mut attempted = 1u64;
    let mut failed = 0u64;
    if checker
        .judge("warm-up", guarded_rep(&mut runner, spec, &inputs, &off))
        .is_none()
    {
        failed += 1;
    }

    // Timed repetitions. A traced run alternates untraced and traced
    // ones, so both see the same machine state and their difference is
    // the tracing overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut trace_samples = Samples::default();
    let mut last_untraced: Option<RepOutput> = None;
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < seconds || attempted < 4 {
        let with_trace = trace && untraced.len() > traced.len();
        let telemetry = if with_trace {
            Telemetry::enabled()
        } else {
            off.clone()
        };
        let rep = guarded_rep(&mut runner, spec, &inputs, &telemetry);
        attempted += 1;
        match checker.judge("repetition", rep) {
            None => failed += 1,
            Some(out) if with_trace => {
                traced.push(out.seconds);
                read_trace(&telemetry.snapshot(), out.seconds, &mut trace_samples);
            }
            Some(out) => {
                untraced.push(out.seconds);
                last_untraced = Some(out);
            }
        }
    }
    // Read before the replays and probes below can raise it.
    let peak_rss = peak_rss_mib()?;
    let (Some(last), Some((_, residual, psnr))) = (last_untraced, checker.reference) else {
        return Err(format!(
            "{}: no repetition passed: {:?}",
            spec.name, checker.failures
        ));
    };

    // The overlapped schedule must equal the synchronous one bit for bit.
    if let Some(mut sync) = runner.without_overlap() {
        let out = guarded_rep(&mut sync, spec, &inputs, &off);
        checker.judge("overlap-off oracle", out);
    }

    let mut setup = Samples::default();
    let (sm, rank_setup) = replay_setup_many(spec, &inputs.scan, &mut setup);
    let m = Measured {
        untraced,
        traced,
        trace: trace_samples,
        setup,
        last,
        residual,
        psnr,
        peak_rss,
        sm,
        rank_setup,
    };
    print_timing("recon_s (untraced)", &m.untraced);
    print_timing("recon_s (traced)", &m.traced);
    println!("  set-up replays: {}", m.setup.count("setup_s"));

    let seconds_json =
        |samples: &[f64]| Json::from(samples.iter().map(|&s| Json::from(s)).collect::<Vec<_>>());
    let mut detail = vec![
        ("workload", Json::from(spec.name)),
        ("parameters", Json::from(spec.describe())),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("kernel_threads", Json::from(kernel_threads())),
        ("ranks", Json::from(spec.ranks())),
        ("reps_untraced_s", seconds_json(&m.untraced)),
        ("reps_traced_s", seconds_json(&m.traced)),
        ("setup_replays", Json::from(m.setup.count("setup_s"))),
    ];

    let metrics: Vec<(&'static str, &'static str, f64)> = if trace {
        let layer = per_layer(spec, &runner, &inputs, &m, workdir, &mut checker.failures)?;

        let matrix_bytes = packed_matrix_bytes(spec, &m.sm, m.rank_setup.as_ref());
        let operand_bytes = (inputs.sinogram.len() + m.last.x.len()) * 4;
        println!("  packed matrices {matrix_bytes} B, operand arrays {operand_bytes} B (computed from array sizes)");
        detail.push(("packed_matrix_bytes", Json::from(matrix_bytes)));
        detail.push(("operand_bytes", Json::from(operand_bytes)));

        let verdicts = predictions(
            spec,
            &layer,
            &Observed {
                traced_wall: median(&m.traced),
                self_total: m.trace.median("trace.self_total_s"),
                coverage_min: m.trace.median("trace.coverage_min"),
                entry_self: m.trace.median("trace.entry_self_s"),
                recon_s: m.recon_s(),
                setup_s: m.setup.median("setup_s"),
            },
        );
        for p in &verdicts {
            println!("  {}", p.render());
        }
        detail.push((
            "predictions",
            Json::from(verdicts.iter().map(Prediction::to_json).collect::<Vec<_>>()),
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(m.end_to_end(spec))
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };

    for &(name, unit, value) in &metrics {
        let kind = PER_LAYER
            .iter()
            .find(|l| l.0 == name)
            .map_or("e", |l| Kind::letter(l.2));
        println!("  {kind} {name:<34} {value} {unit}");
    }
    println!(
        "  failed_frac {} ({failed} of {attempted} repetitions)",
        failed as f64 / attempted as f64
    );

    let correct = failed == 0 && checker.failures.is_empty();
    detail.extend([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "failures",
            Json::from(
                checker
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("metrics", metrics_json(&metrics)),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail: Json::object(detail),
    })
}
