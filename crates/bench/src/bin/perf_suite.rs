//! Counter ledger: pinned reconstruct scenarios, each run once and
//! untraced under a counting allocator, written as a `petaxct-bench-v2`
//! JSON artifact of exact counts at the path `--out` names.
//!
//! Scenarios (one pinned size each; changing one invalidates the ledger):
//!
//! * `serial`             — single-process CGLS on the mini operator;
//! * `spmm_serial_f32` / `spmm_reference_f32` — the kernel layer: one
//!   packed f32 matrix at fusing 8 through the production launch and
//!   through the forced reference body;
//! * `pack`               — the packing layer: Siddon matrix → CSR →
//!   `PrecisionOperator` (mixed, fusing 8, default block and staging
//!   size, n = 64);
//! * `setup_1x2x2`        — the set-up layer through the program's own
//!   calls: `DistributedSetup::build` on 1×2×2 (Siddon trace,
//!   decomposition, plans) plus the first packing of every rank's
//!   operator, the first `run` minus a warm one, on `pack`'s geometry;
//! * `dist_sync`          — 4 ranks (1×2×2), hierarchical, no overlap;
//! * `dist_sync_traced`   — `dist_sync` with telemetry on, so its
//!   allocations less `dist_sync`'s are what tracing allocates;
//! * `dist_overlap`       — same topology with compute/comm overlap;
//! * `wired_2x2x2_sync` / `wired_2x2x2_overlap` — 8 ranks across 2
//!   simulated nodes with a latency/bandwidth [`WireModel`] on
//!   inter-node messages, without and with overlap;
//! * `streamed_1x2x2`     — a memory budget that admits only half the
//!   stack per slab, so the planner emits ≥2 slabs and the run pages
//!   them through `xct-io` (the sinogram file is written outside the
//!   counted region).
//!
//! Flags: `--out PATH` (required; the ledger copy of a run lives in
//! `crates/bench/baselines/`) and `--check BASELINE` (exit 1 on any
//! column that differs from the baseline, or a scenario on one side
//! only). Wall time is not recorded: the end-to-end wall is `xctbench`'s.
//! With AVX2+FMA detected the suite also fails when the production SpMM
//! kernel is under [`VECTORIZATION_FLOOR`]× the scalar reference's flops
//! rate, timed best-of-5 outside the artifact.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use count_alloc::{allocations, CountingAllocator};
use xct_bench::perf::{compare, BenchReport, ScenarioResult, BENCH_SCHEMA};
use xct_comm::{RankCommStats, Topology, TrafficClass, WireModel};
use xct_core::decompose::packing_orders;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig, DistributedSetup};
use xct_core::{reconstruct_planned, ReconOptions};
use xct_exec::{ExecCounters, Executor};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_plan::{KernelShape, Planner, VolumeDims};
use xct_solver::{CglsConfig, CglsSolver, ExecContext, PrecisionOperator};
use xct_spmm::{simd_available, spmm_reference_with, spmm_with, Csr, PackedMatrix};
use xct_telemetry::Telemetry;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The layout every run packs at: `KernelShape::DEFAULT`.
const BLOCK: usize = KernelShape::DEFAULT.block_size;
const SHARED: usize = KernelShape::DEFAULT.shared_bytes;

/// The pinned problem: the mini operator's side and angle count, the
/// fused slices per apply and the CGLS iterations of the solving
/// scenarios.
const N: usize = 16;
const ANGLES: usize = 16;
const FUSING: usize = 2;
const ITERATIONS: usize = 3;
/// The packing and set-up layers' side (the mini geometry is below every
/// fan-out threshold).
const PACK_N: usize = 64;
/// Launches per kernel scenario run.
const LAUNCHES: usize = 300;
/// Inter-node latency of the wired scenarios.
const WIRE_LATENCY: Duration = Duration::from_micros(300);
/// Workers the suite hands the set-up, whatever the host's core count:
/// each scoped worker allocates, so `pack` and `setup_1x2x2` count these.
const WORKERS: Executor = Executor::Threads(NonZeroUsize::new(2).unwrap());

fn mini_scan() -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(N, 1.0), ANGLES)
}

fn sinogram(sm: &SystemMatrix) -> Vec<f32> {
    let mut x_true = vec![0.0f32; sm.num_voxels() * FUSING];
    for (i, v) in x_true.iter_mut().enumerate() {
        *v = ((i % 11) as f32) * 0.1;
    }
    let mut y = vec![0.0f32; sm.num_rays() * FUSING];
    for f in 0..FUSING {
        sm.project(
            &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
        );
    }
    y
}

/// One scenario's record: its allocations, the kernels' counters and the
/// ranks' traffic summed per class.
fn finish(
    name: &str,
    allocations: u64,
    counters: &ExecCounters,
    comm_stats: &[RankCommStats],
) -> ScenarioResult {
    let per_class = |of: fn(&RankCommStats, usize) -> u64| {
        (TrafficClass::ALL.iter())
            .map(|&class| {
                let total = comm_stats.iter().map(|s| of(s, class as usize)).sum();
                (class.as_str().to_string(), total)
            })
            .collect()
    };
    ScenarioResult {
        name: name.to_string(),
        allocations,
        flops: counters.flops,
        padded_flops: counters.padded_flops,
        kernel_launches: counters.kernel_launches,
        kernel_bytes: counters.bytes(),
        comm_bytes: per_class(|s, c| s.class_bytes[c]),
        comm_msgs: per_class(|s, c| s.class_msgs[c]),
    }
}

fn serial_scenario() -> ScenarioResult {
    let scan = mini_scan();
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let (orders, precision) = ((&rays, &voxels), Precision::Single);
    let op = PrecisionOperator::ordered(&csr, orders, precision, FUSING, BLOCK, SHARED, &WORKERS);
    let y = sinogram(&sm);

    let mut ctx = ExecContext::serial().with_precision(precision);
    let before = allocations();
    let mut solver = CglsSolver::new(&op, &y, &CglsConfig::default(), &mut ctx);
    for _ in 0..ITERATIONS {
        solver.step(&op, &mut ctx, &mut |_| {});
    }
    finish("serial", allocations() - before, &ctx.counters, &[])
}

/// The SpMM microbenchmarks behind the vectorization floor: one packed
/// f32 matrix at fusing 8 driven through the production kernel
/// (`spmm_serial_f32` — the f32x8 body where the CPU has AVX2+FMA) and
/// through the forced scalar reference body (`spmm_reference_f32`). Both
/// issue identical effective flops by construction, so the flops-rate
/// ratio is exactly the kernel speedup (1.0 by construction where the
/// production kernel *is* the reference body). Returns the counted run's
/// record and the best wall time of five more.
fn spmm_kernel_scenario(name: &str, reference: bool) -> (ScenarioResult, Duration) {
    let scan = mini_scan();
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let fusing = 8;
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let packed = PackedMatrix::pack_ordered(&csr, &rays, &voxels, BLOCK, SHARED, fusing, &WORKERS);
    let mut x = vec![0.0f32; csr.num_cols() * fusing];
    for (i, v) in x.iter_mut().enumerate() {
        *v = ((i % 13) as f32) * 0.125 - 0.5;
    }
    let mut y = vec![0.0f32; csr.num_rows() * fusing];
    let mut launch_all = |ctx: &mut ExecContext| {
        for _ in 0..LAUNCHES {
            if reference {
                spmm_reference_with::<f32, f32>(&packed, &x, &mut y, ctx);
            } else {
                spmm_with::<f32, f32>(&packed, &x, &mut y, ctx);
            }
        }
    };

    let mut ctx = ExecContext::serial();
    let before = allocations();
    launch_all(&mut ctx);
    let record = finish(name, allocations() - before, &ctx.counters, &[]);
    let wall = (0..5)
        .map(|_| {
            let start = Instant::now();
            launch_all(&mut ctx);
            start.elapsed()
        })
        .min()
        .unwrap_or_default();
    (record, wall)
}

/// The packing layer alone: from the memoized Siddon matrix to the
/// operator `Reconstructor` keeps — `Csr::from_system_matrix`, the
/// Hilbert orders of both planes, then `PrecisionOperator::ordered`
/// (transpose, re-type and scale, pack both directions under the
/// orders). No kernel runs, so the allocation count is the record.
fn pack_scenario() -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(PACK_N, 1.0), PACK_N);
    let sm = SystemMatrix::build(&scan);
    let before = allocations();
    let csr = Csr::from_system_matrix(&sm);
    let (rays, voxels) = packing_orders(&scan, BLOCK);
    let (orders, precision) = ((&rays, &voxels), Precision::Mixed);
    let op = PrecisionOperator::ordered(&csr, orders, precision, 8, BLOCK, SHARED, &WORKERS);
    let allocs = allocations() - before;
    std::hint::black_box(&op);
    finish("pack", allocs, &ExecCounters::default(), &[])
}

/// The set-up layer through the program's own calls, on `pack`'s
/// geometry and topology 1×2×2: `DistributedSetup::build` — Siddon
/// trace, decomposition with its restricted operators, plans — plus the
/// first packing of the four ranks' operators, which the first `run`
/// performs and memoizes. The packing is the first `run` minus a warm
/// one under the same key; with zero iterations both runs are otherwise
/// only the ranks' start-up. The allocations of `build` plus that
/// difference are the record.
fn setup_scenario() -> ScenarioResult {
    let scan = ScanGeometry::uniform(ImageGrid::square(PACK_N, 1.0), PACK_N);
    let sinogram = vec![0.5f32; scan.num_rays() * FUSING];
    let cfg = DistributedConfig {
        topology: Topology::new(1, 2, 2),
        precision: Precision::Mixed,
        iterations: 0,
        ..Default::default()
    };
    let request = ReconOptions {
        fusing: FUSING,
        ..cfg.request()
    };
    let mut ctx = ExecContext::serial();
    let before = allocations();
    let setup = DistributedSetup::build(&scan, &cfg, WORKERS);
    let first = setup.run(&sinogram, &request, &mut ctx);
    let cold = allocations() - before;
    let before = allocations();
    let warm = setup.run(&sinogram, &request, &mut ctx);
    let warm_allocs = allocations() - before;
    std::hint::black_box((first, warm));
    let allocs = cold.saturating_sub(warm_allocs);
    finish("setup_1x2x2", allocs, &ExecCounters::default(), &[])
}

fn distributed_scenario(
    name: &str,
    topology: Topology,
    overlap: bool,
    wired: bool,
    traced: bool,
) -> ScenarioResult {
    let scan = mini_scan();
    let sm = SystemMatrix::build(&scan);
    let y = sinogram(&sm);
    let wire = wired.then(|| WireModel {
        latency: WIRE_LATENCY,
        bytes_per_sec: 50e6,
        ranks_per_node: topology.gpus_per_node(),
    });
    let cfg = DistributedConfig {
        topology,
        precision: Precision::Single,
        fusing: FUSING,
        hierarchical: true,
        overlap,
        wire,
        iterations: ITERATIONS,
        telemetry: if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        },
        ..Default::default()
    };
    let before = allocations();
    let result = reconstruct_distributed(&scan, &y, &cfg);
    let allocs = allocations() - before;
    finish(name, allocs, &result.counters, &result.comm_stats)
}

/// Writes `slices` projected sinogram slices to `path` — the streaming
/// scenario's input, produced outside the counted region.
fn write_streaming_input(slices: usize, path: &std::path::Path) {
    let sm = SystemMatrix::build(&mini_scan());
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

/// The out-of-core scenario: a per-rank budget admitting only `FUSING`
/// of the stack's `2·FUSING` slices, so the planner emits two streamed
/// slabs that page through `xct-io` while the multi-rank pipeline runs.
fn streamed_scenario() -> ScenarioResult {
    let scan = mini_scan();
    let slices = FUSING * 2;
    // Named per process, so that runs side by side read their own input.
    let stem = std::env::temp_dir().join(format!("petaxct_perf_{}", std::process::id()));
    let sino = stem.with_extension("sino.xctd");
    let out = stem.with_extension("vol.xctd");
    write_streaming_input(slices, &sino);
    let topology = Topology::new(1, 2, 2);
    let planner = Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap: false,
        max_fusing: slices,
        kernel: None,
    };
    let dims = VolumeDims { n: N, slices };
    let probe = planner
        .plan(dims, ANGLES, None, topology)
        .expect("probe plan");
    let budget = probe.matrix_bytes_per_rank() + FUSING as u64 * probe.slice_bytes_per_rank();
    let plan = planner
        .plan(dims, ANGLES, Some(budget), topology)
        .expect("streamed plan");
    assert!(plan.streaming(), "budget must force streaming");

    let base = DistributedConfig {
        iterations: ITERATIONS,
        ..Default::default()
    };
    let reader = SliceReader::open(&sino).expect("open streaming sinogram");
    let writer = SliceWriter::create(
        &out,
        SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices,
            slice_len: N * N,
        },
    )
    .expect("create streaming volume");
    let before = allocations();
    let outcome = reconstruct_planned(&scan, &plan, reader, writer, &base).expect("streamed run");
    let allocs = allocations() - before;
    let stats = outcome.stats;
    for path in [sino, out] {
        std::fs::remove_file(&path).expect("remove streaming file");
    }
    finish("streamed_1x2x2", allocs, &stats.counters, &stats.comm_stats)
}

/// The Layer-2 analyzer's allocation guard: after setup (plans built,
/// rank 0's solve folded into scratch ops), reaching a clean verdict
/// from the bounds and scratch-lifetime passes must perform **zero**
/// heap allocations — the passes run inside `--verify-plans` on the
/// reconstruction path, so an allocating verdict would bill
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

/// Runs every scenario once, in ledger order. Also returns the
/// production kernel's flops rate over the reference body's, from their
/// best-of-5 walls.
fn run_suite() -> (BenchReport, f64) {
    let mut scenarios = Vec::new();
    eprintln!("running serial ...");
    scenarios.push(serial_scenario());
    let mut kernel_rate = |name: &str, reference| {
        eprintln!("running {name} ...");
        let (record, wall) = spmm_kernel_scenario(name, reference);
        let rate = record.flops as f64 / wall.as_secs_f64();
        scenarios.push(record);
        rate
    };
    let speedup = kernel_rate("spmm_serial_f32", false) / kernel_rate("spmm_reference_f32", true);
    eprintln!("running pack ...");
    scenarios.push(pack_scenario());
    eprintln!("running setup_1x2x2 ...");
    scenarios.push(setup_scenario());
    let (node, two_nodes) = (Topology::new(1, 2, 2), Topology::new(2, 2, 2));
    for (name, topology, overlap, wired, traced) in [
        ("dist_sync", node, false, false, false),
        ("dist_sync_traced", node, false, false, true),
        ("dist_overlap", node, true, false, false),
        ("wired_2x2x2_sync", two_nodes, false, true, false),
        ("wired_2x2x2_overlap", two_nodes, true, true, false),
    ] {
        eprintln!("running {name} ...");
        scenarios.push(distributed_scenario(name, topology, overlap, wired, traced));
    }
    eprintln!("running streamed_1x2x2 ...");
    scenarios.push(streamed_scenario());
    (BenchReport { scenarios }, speedup)
}

fn print_summary(report: &BenchReport) {
    println!("PERF SUITE ({BENCH_SCHEMA})");
    let header = format!(
        "{:<22} {:>8} {:>12} {:>9} {:>12} {:>11} {:>7}",
        "scenario", "allocs", "flops", "launches", "kernel B", "comm B", "msgs"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for s in &report.scenarios {
        let total = |classes: &[(String, u64)]| classes.iter().map(|(_, v)| v).sum::<u64>();
        println!(
            "{:<22} {:>8} {:>12} {:>9} {:>12} {:>11} {:>7}",
            s.name,
            s.allocations,
            s.flops,
            s.kernel_launches,
            s.kernel_bytes,
            total(&s.comm_bytes),
            total(&s.comm_msgs)
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

const USAGE: &str = "usage: perf_suite --out PATH [--check BASELINE]";

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--check" => check = args.next(),
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

    // The machine's width is read once per process, and the read
    // allocates: make it before the first counted region, so no
    // scenario pays for it.
    let _ = Executor::parallel();

    // Analyzer allocation guard: a clean Layer-2 verdict (bounds,
    // scratch lifetime) must allocate nothing after setup.
    let verdict_allocs = analysis_verdict_allocs();
    if verdict_allocs > 0 {
        eprintln!(
            "analysis allocation guard: clean Layer-2 verdict performed \
             {verdict_allocs} allocation(s); required 0"
        );
        return ExitCode::FAILURE;
    }
    println!("analysis allocation guard: clean Layer-2 verdict allocation-free");

    let (report, speedup) = run_suite();
    print_summary(&report);
    let simd = simd_available();
    println!(
        "spmm flops rate: kernel/reference = {speedup:.2}x (simd {})",
        if simd { "on" } else { "off" }
    );
    // The vectorization floor: where the f32x8 body is what runs, the
    // production kernel must beat the scalar reference by the floor in
    // effective flops rate, or the suite fails outright.
    if simd && (speedup.is_nan() || speedup < VECTORIZATION_FLOOR) {
        eprintln!(
            "spmm vectorization floor: {speedup:.2}x < {VECTORIZATION_FLOOR:.2}x \
             required (spmm_serial_f32 vs spmm_reference_f32)"
        );
        return ExitCode::FAILURE;
    }

    let text = report.to_json().to_string();
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    let Some(baseline_path) = check else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => BenchReport::parse(&t)
            .map_err(|e| format!("cannot parse baseline {baseline_path}: {e}")),
        Err(e) => Err(format!("cannot read baseline {baseline_path}: {e}")),
    };
    let baseline = match baseline {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let differences = compare(&report, &baseline);
    if differences.is_empty() {
        println!("check: every count equals {baseline_path}");
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "check: {} difference(s) from {baseline_path}:",
        differences.len()
    );
    for d in &differences {
        eprintln!("  {d}");
    }
    ExitCode::FAILURE
}
