//! Continuous-benchmark suite: pinned reconstruct scenarios measured
//! under a counting allocator, written as a `petaxct-bench-v1` JSON
//! artifact at the path `--out` names.
//!
//! Scenarios (fixed problem sizes, so runs are comparable):
//!
//! * `serial`             — single-process CGLS on the mini operator;
//! * `spmm_serial_f32` / `spmm_reference_f32` — the kernel layer: one
//!   packed f32 matrix at fusing 8 through the production launch and
//!   through the forced reference body;
//! * `pack`               — the packing layer: Siddon matrix → CSR →
//!   `PrecisionOperator` (mixed, fusing 8, default block and staging
//!   size — the `xctbench` `serial_fused` shape at n = 128; n = 64 in
//!   quick mode), whose allocation count is exact;
//! * `setup_1x2x2`        — the set-up layer through the program's own
//!   calls: `DistributedSetup::build` on 1×2×2 (Siddon trace,
//!   decomposition, plans) plus the first packing of every rank's
//!   operator, the first `run` minus a warm one, on `pack`'s geometry;
//! * `dist_sync`          — 4 ranks (1×2×2), hierarchical, no overlap;
//! * `dist_overlap`       — same topology with compute/comm overlap;
//! * `wired_2x2x2_sync`   — 8 ranks across 2 simulated nodes with a
//!   latency/bandwidth [`WireModel`] on inter-node messages;
//! * `wired_2x2x2_overlap` — the wired run with overlap, whose critical
//!   path must come out shorter than the synchronous one;
//! * `streamed_1x2x2`     — a memory budget that admits only half the
//!   stack per slab, so the planner emits ≥2 slabs and the run pages
//!   them through `xct-io` (the sinogram file is written outside the
//!   timed region).
//!
//! Flags: `--out PATH` (required; the ledger copy of a run lives in
//! `crates/bench/baselines/`), `--quick` (CI-sized problem), `--check
//! BASELINE` (exit 1 on any metric regressing past `--threshold` percent,
//! default 20). With AVX2+FMA detected the suite also fails when the
//! production SpMM kernel is under [`VECTORIZATION_FLOOR`]× the scalar
//! reference's flops rate.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use count_alloc::{allocations, CountingAllocator};
use xct_bench::perf::{compare, BenchReport, ScenarioResult, BENCH_SCHEMA};
use xct_comm::{Topology, TrafficClass, WireModel};
use xct_core::decompose::packing_orders;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig, DistributedSetup};
use xct_core::{reconstruct_planned, ReconOptions};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_plan::{KernelShape, Planner, VolumeDims};
use xct_solver::{CglsConfig, CglsSolver, ExecContext, PrecisionOperator};
use xct_spmm::{simd_available, spmm_reference_with, spmm_with, Csr, PackedMatrix};
use xct_telemetry::{Breakdown, CausalAnalysis, Telemetry};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The layout every run packs at: `KernelShape::DEFAULT`.
const BLOCK: usize = KernelShape::DEFAULT.block_size;
const SHARED: usize = KernelShape::DEFAULT.shared_bytes;

/// Problem sizes pinned per mode; changing them invalidates baselines.
struct SuiteParams {
    quick: bool,
    n: usize,
    angles: usize,
    fusing: usize,
    iterations: usize,
    wire_latency: Duration,
    /// Runs per scenario; the minimum-wall run is reported, which damps
    /// scheduler noise enough for a relative regression gate.
    reps: usize,
}

impl SuiteParams {
    fn new(quick: bool) -> SuiteParams {
        if quick {
            SuiteParams {
                quick,
                n: 16,
                angles: 16,
                fusing: 2,
                iterations: 3,
                wire_latency: Duration::from_micros(300),
                reps: 5,
            }
        } else {
            SuiteParams {
                quick,
                n: 24,
                angles: 24,
                fusing: 4,
                iterations: 6,
                wire_latency: Duration::from_micros(600),
                reps: 3,
            }
        }
    }

    fn sinogram(&self, sm: &SystemMatrix) -> Vec<f32> {
        let mut x_true = vec![0.0f32; sm.num_voxels() * self.fusing];
        for (i, v) in x_true.iter_mut().enumerate() {
            *v = ((i % 11) as f32) * 0.1;
        }
        let mut y = vec![0.0f32; sm.num_rays() * self.fusing];
        for f in 0..self.fusing {
            sm.project(
                &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
            );
        }
        y
    }
}

/// Finalizes one scenario's record from its traced run.
fn finish(
    name: &str,
    wall: Duration,
    allocs: u64,
    counters: xct_exec::ExecCounters,
    comm_stats: &[xct_comm::RankCommStats],
    telemetry: &Telemetry,
) -> ScenarioResult {
    let snap = telemetry.snapshot();
    let causal = CausalAnalysis::from_snapshot(&snap);
    let breakdown = Breakdown::from_snapshot(&snap);
    let mut comm_bytes: Vec<(String, u64)> = Vec::new();
    for class in TrafficClass::ALL {
        let total: u64 = comm_stats.iter().map(|s| s.class_bytes_of(class)).sum();
        comm_bytes.push((class.as_str().to_string(), total));
    }
    ScenarioResult {
        name: name.to_string(),
        wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        critical_path_ns: causal.critical_path_ns,
        allocations: allocs,
        flops: counters.flops,
        padded_flops: counters.padded_flops,
        kernel_launches: counters.kernel_launches,
        phase_self_ns: breakdown
            .stats
            .iter()
            .map(|s| (s.phase.as_str().to_string(), s.self_ns))
            .collect(),
        comm_bytes,
    }
}

fn serial_scenario(p: &SuiteParams) -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(p.n, 1.0), p.angles);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let orders = (&rays, &voxels);
    let op = PrecisionOperator::ordered(&csr, orders, Precision::Single, p.fusing, BLOCK, SHARED);
    let y = p.sinogram(&sm);

    let telemetry = Telemetry::enabled();
    let mut ctx = ExecContext::serial()
        .with_precision(Precision::Single)
        .with_telemetry(telemetry.clone());
    let before = allocations();
    let start = Instant::now();
    let mut solver = CglsSolver::new(&op, &y, &CglsConfig::default(), &mut ctx);
    for _ in 0..p.iterations {
        solver.step(&op, &mut ctx, &mut |_| {});
    }
    let wall = start.elapsed();
    let allocs = allocations() - before;
    finish("serial", wall, allocs, ctx.counters, &[], &telemetry)
}

/// The SpMM microbenchmarks behind the vectorization gate: one packed
/// f32 matrix at fusing 8 driven through the production kernel
/// (`spmm_serial_f32` — the f32x8 body where the CPU has AVX2+FMA) and
/// through the forced scalar reference body (`spmm_reference_f32`). Both
/// issue identical effective flops by construction, so the flops-rate
/// ratio is exactly the kernel speedup (1.0 by construction where the
/// production kernel *is* the reference body).
fn spmm_kernel_scenario(name: &str, p: &SuiteParams, reference: bool) -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(p.n, 1.0), p.angles);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let fusing = 8;
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let packed = PackedMatrix::pack_ordered(&csr, &rays, &voxels, BLOCK, SHARED, fusing);
    let mut x = vec![0.0f32; csr.num_cols() * fusing];
    for (i, v) in x.iter_mut().enumerate() {
        *v = ((i % 13) as f32) * 0.125 - 0.5;
    }
    let mut y = vec![0.0f32; csr.num_rows() * fusing];
    let launches = if p.quick { 300 } else { 1200 };

    let telemetry = Telemetry::enabled();
    let mut ctx = ExecContext::serial().with_telemetry(telemetry.clone());
    let before = allocations();
    let start = Instant::now();
    for _ in 0..launches {
        if reference {
            spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        } else {
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        }
    }
    let wall = start.elapsed();
    let allocs = allocations() - before;
    finish(name, wall, allocs, ctx.counters, &[], &telemetry)
}

/// The packing layer alone: from the memoized Siddon matrix to the
/// operator `Reconstructor` keeps — `Csr::from_system_matrix`, the
/// Hilbert orders of both planes, then `PrecisionOperator::ordered`
/// (transpose, re-type and scale, pack both directions under the
/// orders). No kernel runs, so flops and launches are zero; wall and
/// the allocation count are the record.
fn pack_scenario(p: &SuiteParams) -> ScenarioResult {
    let n = if p.quick { 64 } else { 128 };
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), n);
    let sm = SystemMatrix::build(&scan);
    let before = allocations();
    let start = Instant::now();
    let csr = Csr::from_system_matrix(&sm);
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let op = PrecisionOperator::ordered(&csr, (&rays, &voxels), Precision::Mixed, 8, BLOCK, SHARED);
    let wall = start.elapsed();
    let allocs = allocations() - before;
    std::hint::black_box(&op);
    finish(
        "pack",
        wall,
        allocs,
        xct_exec::ExecCounters::default(),
        &[],
        &Telemetry::disabled(),
    )
}

/// The set-up layer through the program's own calls, on `pack`'s
/// geometry (n = 64 in quick mode, 128 otherwise — the suite's mini
/// geometry is below every fan-out threshold) and topology 1×2×2:
/// `DistributedSetup::build` — Siddon trace, decomposition with its
/// restricted operators, plans — plus the first packing of the four
/// ranks' operators, which the first `run` performs and memoizes. The
/// packing is the first `run` minus a warm one under the same key; with
/// zero iterations both runs are otherwise only the ranks' start-up.
/// Wall and allocations are the record: `build` plus that difference.
fn setup_scenario(p: &SuiteParams) -> ScenarioResult {
    let n = if p.quick { 64 } else { 128 };
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), n);
    let sinogram = vec![0.5f32; scan.num_rays() * p.fusing];
    let cfg = DistributedConfig {
        topology: Topology::new(1, 2, 2),
        precision: Precision::Mixed,
        iterations: 0,
        ..Default::default()
    };
    let request = ReconOptions {
        fusing: p.fusing,
        ..cfg.request()
    };
    let mut ctx = ExecContext::serial();
    let (before, start) = (allocations(), Instant::now());
    let setup = DistributedSetup::build(&scan, &cfg);
    let first = setup.run(&sinogram, &request, &mut ctx);
    let (cold, cold_allocs) = (start.elapsed(), allocations() - before);
    let (before, start) = (allocations(), Instant::now());
    let warm = setup.run(&sinogram, &request, &mut ctx);
    let (warm_wall, warm_allocs) = (start.elapsed(), allocations() - before);
    std::hint::black_box((first, warm));
    finish(
        "setup_1x2x2",
        cold.saturating_sub(warm_wall),
        cold_allocs.saturating_sub(warm_allocs),
        xct_exec::ExecCounters::default(),
        &[],
        &Telemetry::disabled(),
    )
}

fn distributed_scenario(
    name: &str,
    p: &SuiteParams,
    topology: Topology,
    overlap: bool,
    wired: bool,
) -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(p.n, 1.0), p.angles);
    let sm = SystemMatrix::build(&scan);
    let y = p.sinogram(&sm);
    let wire = wired.then(|| WireModel {
        latency: p.wire_latency,
        bytes_per_sec: 50e6,
        ranks_per_node: topology.gpus_per_node(),
    });

    let telemetry = Telemetry::enabled();
    let cfg = DistributedConfig {
        topology,
        precision: Precision::Single,
        fusing: p.fusing,
        hierarchical: true,
        overlap,
        wire,
        iterations: p.iterations,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let before = allocations();
    let start = Instant::now();
    let result = reconstruct_distributed(&scan, &y, &cfg);
    let wall = start.elapsed();
    let allocs = allocations() - before;
    finish(
        name,
        wall,
        allocs,
        result.counters,
        &result.comm_stats,
        &telemetry,
    )
}

/// Writes `slices` projected sinogram slices to `path` — the streaming
/// scenario's input, produced outside the timed region.
fn write_streaming_input(p: &SuiteParams, slices: usize, path: &std::path::Path) {
    let scan = ScanGeometry::uniform(ImageGrid::square(p.n, 1.0), p.angles);
    let sm = SystemMatrix::build(&scan);
    let meta = SliceFile {
        kind: FileKind::Sinogram,
        precision: Precision::Single,
        slices,
        slice_len: sm.num_rays(),
    };
    let mut w = SliceWriter::create(path, meta).expect("create streaming sinogram");
    let mut x = vec![0.0f32; sm.num_voxels()];
    let mut y = vec![0.0f32; sm.num_rays()];
    for s in 0..slices {
        for (i, v) in x.iter_mut().enumerate() {
            *v = (((i + 7 * s) % 11) as f32) * 0.1;
        }
        sm.project(&x, &mut y);
        w.write_slice(&y).expect("write sinogram slice");
    }
    w.finish().expect("finish streaming sinogram");
}

/// The out-of-core scenario: a per-rank budget admitting only `fusing`
/// of the stack's `2·fusing` slices, so the planner emits two streamed
/// slabs that page through `xct-io` while the multi-rank pipeline runs.
fn streamed_scenario(p: &SuiteParams, sino: &std::path::Path) -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(p.n, 1.0), p.angles);
    let slices = p.fusing * 2;
    let topology = Topology::new(1, 2, 2);
    let planner = Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap: false,
        max_fusing: slices,
        kernel: None,
    };
    let dims = VolumeDims { n: p.n, slices };
    let probe = planner
        .plan(dims, p.angles, None, topology)
        .expect("probe plan");
    let budget = probe.matrix_bytes_per_rank() + p.fusing as u64 * probe.slice_bytes_per_rank();
    let plan = planner
        .plan(dims, p.angles, Some(budget), topology)
        .expect("streamed plan");
    assert!(plan.streaming(), "budget must force streaming");

    let telemetry = Telemetry::enabled();
    let base = DistributedConfig {
        iterations: p.iterations,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let out = std::env::temp_dir().join("petaxct_perf_streamed_vol.xctd");
    let reader = SliceReader::open(sino).expect("open streaming sinogram");
    let writer = SliceWriter::create(
        &out,
        SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices,
            slice_len: p.n * p.n,
        },
    )
    .expect("create streaming volume");
    let before = allocations();
    let start = Instant::now();
    let outcome = reconstruct_planned(&scan, &plan, reader, writer, &base).expect("streamed run");
    let wall = start.elapsed();
    let allocs = allocations() - before;
    let stats = outcome.stats;
    finish(
        "streamed_1x2x2",
        wall,
        allocs,
        stats.counters,
        &stats.comm_stats,
        &telemetry,
    )
}

/// The Layer-2 analyzer's allocation guard: after setup (plans built,
/// rank 0's solve folded into scratch ops), reaching a
/// clean verdict from every abstract-interpretation pass must perform
/// **zero** heap allocations — the passes run inside `--verify-plans`
/// on the reconstruction path, so an allocating verdict would bill
/// verification against the solver's allocation budget. Returns the
/// allocation count over the verdict region.
fn analysis_verdict_allocs() -> u64 {
    // Setup: everything the passes consume, produced outside the
    // counted region.
    let case = xct_verify::corpus::gen_case(3);
    let plan = xct_comm::HierarchicalPlan::build(&case.footprints, &case.ownership, &case.topology);
    let plans =
        xct_comm::CompiledPlans::compile_hierarchical(&case.footprints, &case.ownership, &plan);
    let rank = plans.rank(0);
    let ops = xct_verify::scratch_ops(rank, 3, xct_comm::protocol::solve(rank, 3, true, 2));

    // Warm-up outside the count (first-use lazy init, if any).
    assert!(xct_verify::verify_bounds(&plans).ok());
    assert!(xct_verify::verify_scratch_lifetime(0, &ops).ok());

    let before = allocations();
    let bounds = xct_verify::verify_bounds(&plans);
    let lifetime = xct_verify::verify_scratch_lifetime(0, &ops);
    let allocs = allocations() - before;
    assert!(bounds.ok() && lifetime.ok());
    allocs
}

/// Best-of-`reps`: keeps the run with the smallest wall time (and with
/// it, that run's critical path / allocation figures).
fn best_of(reps: usize, mut run: impl FnMut() -> ScenarioResult) -> ScenarioResult {
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        if next.wall_ns < best.wall_ns {
            best = next;
        }
    }
    best
}

fn run_suite(p: &SuiteParams) -> BenchReport {
    let mut scenarios = Vec::new();
    eprintln!("running serial ...");
    scenarios.push(best_of(p.reps, || serial_scenario(p)));
    for (name, reference) in [("spmm_serial_f32", false), ("spmm_reference_f32", true)] {
        eprintln!("running {name} ...");
        scenarios.push(best_of(p.reps, || spmm_kernel_scenario(name, p, reference)));
    }
    eprintln!("running pack ...");
    scenarios.push(best_of(p.reps, || pack_scenario(p)));
    eprintln!("running setup_1x2x2 ...");
    scenarios.push(best_of(p.reps, || setup_scenario(p)));
    for (name, topology, overlap, wired) in [
        ("dist_sync", Topology::new(1, 2, 2), false, false),
        ("dist_overlap", Topology::new(1, 2, 2), true, false),
        ("wired_2x2x2_sync", Topology::new(2, 2, 2), false, true),
        ("wired_2x2x2_overlap", Topology::new(2, 2, 2), true, true),
    ] {
        eprintln!("running {name} ...");
        scenarios.push(best_of(p.reps, || {
            distributed_scenario(name, p, topology, overlap, wired)
        }));
    }
    eprintln!("running streamed_1x2x2 ...");
    let sino = std::env::temp_dir().join("petaxct_perf_streamed_sino.xctd");
    write_streaming_input(p, p.fusing * 2, &sino);
    scenarios.push(best_of(p.reps, || streamed_scenario(p, &sino)));
    BenchReport {
        quick: p.quick,
        scenarios,
    }
}

/// Flops-rate ratio of the production SpMM kernel over the retained
/// scalar reference (`> 1.0` means the f32x8 body won).
fn spmm_speedup(report: &BenchReport) -> Option<f64> {
    let rate = |name: &str| {
        report
            .scenarios
            .iter()
            .find(|s| s.name == name)
            .filter(|s| s.wall_ns > 0)
            .map(|s| s.flops as f64 / (s.wall_ns as f64 * 1e-9))
    };
    match (rate("spmm_serial_f32"), rate("spmm_reference_f32")) {
        (Some(fast), Some(base)) if base > 0.0 => Some(fast / base),
        _ => None,
    }
}

fn print_summary(report: &BenchReport) {
    println!(
        "PERF SUITE ({BENCH_SCHEMA}, {} mode)",
        if report.quick { "quick" } else { "full" }
    );
    let header = format!(
        "{:<22} {:>12} {:>14} {:>12} {:>14} {:>10}",
        "scenario", "wall ms", "crit path ms", "allocs", "flops", "launches"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for s in &report.scenarios {
        println!(
            "{:<22} {:>12.2} {:>14.2} {:>12} {:>14} {:>10}",
            s.name,
            s.wall_ns as f64 / 1e6,
            s.critical_path_ns as f64 / 1e6,
            s.allocations,
            s.flops,
            s.kernel_launches
        );
    }
    let cp = |name: &str| {
        report
            .scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.critical_path_ns)
    };
    if let (Some(sync), Some(over)) = (cp("wired_2x2x2_sync"), cp("wired_2x2x2_overlap")) {
        if sync > 0 {
            println!(
                "wired critical path: overlap/sync = {:.2} (lower is better)",
                over as f64 / sync as f64
            );
        }
    }
    if let Some(speedup) = spmm_speedup(report) {
        println!(
            "spmm flops rate: kernel/reference = {:.2}x (simd {})",
            speedup,
            if simd_available() { "on" } else { "off" }
        );
    }
}

/// Least flops-rate ratio of the production kernel over the reference
/// body the suite accepts where the f32x8 body runs. On these
/// cache-resident matrices the development host reads 15–20× (one run
/// in a dozen, beside a busy neighbour, read 11×) and read 5.2× with the
/// body this one replaced (per-stage widening gather, accumulators
/// through memory; EXPERIMENTS.md). The floor is the geometric midpoint
/// of 5.2 and 11: the old body cannot reach it, so losing the
/// launch-level staging or the register-resident walk trips it, and the
/// slowest reading of the new body clears it by half.
const VECTORIZATION_FLOOR: f64 = 7.5;

const USAGE: &str = "usage: perf_suite --out PATH [--quick] [--check BASELINE] [--threshold PCT]";

fn main() -> ExitCode {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut threshold = 20.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next(),
            "--check" => check = args.next(),
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a number")
            }
            other => {
                eprintln!("unknown flag {other}; {USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out) = out else {
        eprintln!("--out PATH is required; {USAGE}");
        return ExitCode::FAILURE;
    };

    // Analyzer allocation guard: a clean Layer-2 verdict (bounds,
    // scratch lifetime, transfer safety) must allocate nothing after
    // setup.
    let verdict_allocs = analysis_verdict_allocs();
    if verdict_allocs > 0 {
        eprintln!(
            "analysis allocation guard: clean Layer-2 verdict performed \
             {verdict_allocs} allocation(s); required 0"
        );
        return ExitCode::FAILURE;
    }
    println!("analysis allocation guard: clean Layer-2 verdict allocation-free");

    let report = run_suite(&SuiteParams::new(quick));
    print_summary(&report);

    // The vectorization floor: where the f32x8 body is what runs, the
    // production kernel must beat the scalar reference by the floor in
    // effective flops rate, or the suite fails outright.
    if simd_available() {
        match spmm_speedup(&report) {
            Some(speedup) if speedup < VECTORIZATION_FLOOR => {
                eprintln!(
                    "spmm vectorization floor: {speedup:.2}x < {VECTORIZATION_FLOOR:.2}x \
                     required (spmm_serial_f32 vs spmm_reference_f32)"
                );
                return ExitCode::FAILURE;
            }
            Some(_) => {}
            None => {
                eprintln!("spmm vectorization floor: kernel scenarios missing from the report");
                return ExitCode::FAILURE;
            }
        }
    }

    let text = report.to_json().to_string();
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    if let Some(baseline_path) = check {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => match BenchReport::parse(&t) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot parse baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match compare(&report, &baseline, threshold) {
            Ok(regressions) if regressions.is_empty() => {
                println!("check: no regressions past {threshold}% against {baseline_path}");
            }
            Ok(regressions) => {
                eprintln!(
                    "check: {} regression(s) past {threshold}%:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
