//! Steady-state allocation discipline, enforced by a counting allocator.
//!
//! The ExecContext/Workspace refactor exists so that *iterating* is free of
//! heap traffic: every per-apply staging buffer (quantized operands, kernel
//! accumulators, CG state) is taken from a warm workspace instead of
//! `vec![...]`-ed per call. These tests pin that property:
//!
//! - single-process CGLS stepping performs **zero** heap allocations once
//!   the workspace is warm (first step populates it) — and since the solver
//!   loops are instrumented with telemetry spans, this also proves the
//!   disabled-telemetry path is allocation-free;
//! - a disabled [`Telemetry`] handle performs zero allocations per
//!   span/event (the zero-overhead rule of DESIGN.md §3b), while an enabled
//!   one records spans without disturbing the workspace's steady state;
//! - a warm `SliceWriter::write_slice` allocates nothing at half or
//!   single width;
//! - a `Reconstructor::reconstruct_in` call after the first allocates its
//!   result and nothing else — the packed operator is kept, not rebuilt —
//!   and so does a one-rank `DistributedSetup::run`, the same solve;
//! - the distributed path's per-iteration allocation count is **bounded and
//!   constant**: wire buffers are owned `Vec`s moved into channels (that is
//!   inherent to message passing), but the count per iteration must not
//!   grow, and the compute side must not add per-apply allocations on top.
//!
//! The allocator counts every `alloc`/`realloc`/`alloc_zeroed` globally, so
//! the two tests serialize on a mutex to keep their windows disjoint.

use std::sync::Mutex;

use count_alloc::{allocations, CountingAllocator};
use xct_comm::{run_ranks, CompiledPlans, ExchangeScratch, Footprints, Ownership, Topology};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig, DistributedSetup};
use xct_core::{ReconOptions, Reconstructor};
use xct_exec::Executor;
use xct_fp16::{Precision, F16};
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceWriter};
use xct_plan::{RunDocument, RunHeader};
use xct_solver::{CglsConfig, CglsSolver, ExecContext, Phase, PrecisionOperator, Telemetry};
use xct_spmm::Csr;
use xct_telemetry::{MetricId, ProfileSnapshot, TelemetrySnapshot};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the measuring windows. A failed assertion in one test
/// poisons the mutex; the guard protects no data, so the others carry on
/// instead of cascading. The counter is process-global, so before a
/// window opens this also waits until no other thread (libtest spawning
/// or reporting tests) has allocated for a few milliseconds — a
/// mitigation, not the per-scope accounting ROADMAP P0 asks for.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    loop {
        let before = allocations();
        std::thread::sleep(std::time::Duration::from_millis(5));
        if allocations() == before {
            return guard;
        }
    }
}

#[test]
fn steady_state_cgls_steps_do_not_allocate() {
    let _guard = serial();

    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    // Mixed precision exercises the widest staging path: adaptive f16
    // quantization on the way in, f32 accumulation, dequantization out.
    let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 64, 96 * 1024);
    let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x_true, &mut y);

    let mut ctx = ExecContext::serial().with_precision(Precision::Mixed);
    // The default context carries a *disabled* telemetry handle — the
    // instrumented solver loop must stay allocation-free through it.
    assert!(!ctx.telemetry.is_enabled());
    let mut solver = CglsSolver::new(&op, &y, &CglsConfig::default(), &mut ctx);
    // Warm-up: the first steps grow the workspace to its steady-state
    // footprint (quantization staging, kernel accumulators).
    for _ in 0..2 {
        solver.step(&op, &mut ctx, &mut |_| {});
    }

    let events_before = ctx.workspace.alloc_events();
    let heap_before = allocations();
    for _ in 0..10 {
        solver.step(&op, &mut ctx, &mut |_| {});
    }
    let heap_after = allocations();
    let events_after = ctx.workspace.alloc_events();

    assert_eq!(
        heap_after - heap_before,
        0,
        "steady-state CGLS steps must not touch the heap"
    );
    assert_eq!(
        events_before, events_after,
        "workspace must not grow after warm-up"
    );
}

#[test]
fn repeated_reconstruct_in_allocates_only_its_result() {
    let _guard = serial();

    // `Reconstructor` packs its operator on the first call with a given
    // (precision, fusing, block, shared) and keeps it. Every later call
    // with the same options then allocates its result and the solver's
    // report — a handful of vectors, independent of the matrix — where
    // re-packing would cost allocations in proportion to the nonzeros.
    let scan = ScanGeometry::uniform(ImageGrid::square(24, 1.0), 24);
    let recon = Reconstructor::new(scan);
    let fusing = 2;
    let image: Vec<f32> = (0..recon.num_voxels())
        .map(|i| (i % 7) as f32 * 0.1)
        .collect();
    let sinogram = recon.project(&image).repeat(fusing);
    let opts = ReconOptions {
        fusing,
        iterations: 6,
        ..Default::default()
    };
    let mut ctx = ExecContext::serial();
    let mut call = || {
        let before = allocations();
        let result = recon.reconstruct_in(&sinogram, &opts, &mut ctx);
        assert_eq!(result.x.len(), recon.num_voxels() * fusing);
        allocations() - before
    };
    let (first, second, third) = (call(), call(), call());
    // Measured: 157, 4, 4 (the volume, the residual and time histories,
    // the one rank's traffic record: this is the one-rank `run`).
    assert!(
        second <= 8,
        "a call on a packed operator allocated {second} times"
    );
    assert_eq!(second, third, "the count per call is a constant");
    assert!(
        first >= 10 * second,
        "only the first call packs: {first} allocations against {second}"
    );
}

#[test]
fn repeated_one_rank_run_allocates_only_its_result() {
    let _guard = serial();

    // A 1×1×1 set-up is the serial solve: after the first run packs the
    // operator, a run allocates its result — the volume, the solver's
    // histories, one rank's traffic record — and nothing that grows
    // with the matrix, under the bound `Reconstructor::reconstruct_in`
    // is held to.
    let scan = ScanGeometry::uniform(ImageGrid::square(24, 1.0), 24);
    let sm = SystemMatrix::build(&scan);
    let fusing = 2;
    let image: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut slice = vec![0.0f32; sm.num_rays()];
    sm.project(&image, &mut slice);
    let sinogram = slice.repeat(fusing);
    let setup = DistributedSetup::build(
        &scan,
        &DistributedConfig {
            topology: Topology::new(1, 1, 1),
            ..Default::default()
        },
        Executor::Serial,
    );
    let opts = ReconOptions {
        fusing,
        iterations: 6,
        ..Default::default()
    };
    let mut ctx = ExecContext::serial();
    let mut call = || {
        let before = allocations();
        let result = setup.run(&sinogram, &opts, &mut ctx);
        assert_eq!(result.x.len(), sm.num_voxels() * fusing);
        allocations() - before
    };
    let (first, second, third) = (call(), call(), call());
    // Measured: 157, 4, 4 (the volume, the residual and time histories,
    // the one rank's traffic record).
    assert!(
        second <= 8,
        "a run on a packed operator allocated {second} times"
    );
    assert_eq!(second, third, "the count per run is a constant");
    assert!(
        first >= 10 * second,
        "only the first run packs: {first} allocations against {second}"
    );
}

#[test]
fn warm_slice_writer_does_not_allocate() {
    let _guard = serial();
    // The writer encodes each slice into the buffer it owns, through the
    // storage codec's stack-held runs: after the first slice, writing
    // one touches no heap at half or single width.
    let slice: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.37).collect();
    for precision in [Precision::Half, Precision::Single] {
        let path = std::env::temp_dir().join(format!(
            "petaxct_alloc_free_writer_{}_{}.xctd",
            precision.label(),
            std::process::id()
        ));
        let meta = SliceFile {
            kind: FileKind::Volume,
            precision,
            slices: 5,
            slice_len: slice.len(),
        };
        let mut writer = SliceWriter::create(&path, meta).unwrap();
        writer.write_slice(&slice).unwrap();
        let before = allocations();
        for _ in 1..5 {
            writer.write_slice(&slice).unwrap();
        }
        let during = allocations() - before;
        writer.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(during, 0, "{precision}: a warm write_slice allocated");
    }
}

#[test]
fn disabled_telemetry_spans_and_events_do_not_allocate() {
    let _guard = serial();

    let telemetry = Telemetry::disabled();
    let before = allocations();
    for i in 0..1000 {
        let _outer = telemetry.span(Phase::SolverIteration);
        let _inner = telemetry.span(Phase::SpmmForward);
        telemetry.event("residual", f64::from(i) * 0.001);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled telemetry must be a no-op on the heap"
    );
    // Nothing was recorded, so the cost profile — a fold over the span
    // snapshot — has nothing to attribute.
    assert!(ProfileSnapshot::from_snapshot(&telemetry.snapshot()).is_empty());
}

#[test]
fn enabled_telemetry_leaves_workspace_steady_state_alone() {
    let _guard = serial();

    let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 64, 96 * 1024);
    let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x_true, &mut y);

    let telemetry = Telemetry::enabled();
    let mut ctx = ExecContext::serial()
        .with_precision(Precision::Mixed)
        .with_telemetry(telemetry.clone());
    let mut solver = CglsSolver::new(&op, &y, &CglsConfig::default(), &mut ctx);
    for _ in 0..2 {
        solver.step(&op, &mut ctx, &mut |_| {});
    }
    // Recording goes to the collector, never through the workspace: the
    // buffer-reuse discipline is unchanged with collection switched on.
    let events_before = ctx.workspace.alloc_events();
    for _ in 0..5 {
        solver.step(&op, &mut ctx, &mut |_| {});
    }
    assert_eq!(ctx.workspace.alloc_events(), events_before);
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.spans
            .iter()
            .filter(|s| s.phase == Phase::SolverIteration)
            .count(),
        7
    );
}

#[test]
fn disabled_metrics_and_flight_recorder_record_nothing_and_do_not_allocate() {
    let _guard = serial();

    // Every metric primitive — counter add/inc, gauge set, histogram
    // observe — must be a single None-check when the handle is
    // disabled: no heap traffic, nothing recorded and nothing to dump.
    let telemetry = Telemetry::disabled();
    let before = allocations();
    for i in 0..1000u64 {
        telemetry.metric_add(MetricId::CommSendBytes, i);
        telemetry.metric_inc(MetricId::SolverIterations);
        telemetry.gauge_set(MetricId::SolverResidual, i as f64 * 1e-3);
        telemetry.observe_ns(MetricId::CommWaitNs, i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled metrics/flight recorder must be a no-op on the heap"
    );
    assert!(
        telemetry.metrics_snapshot().tracks.is_empty(),
        "disabled registry must record nothing"
    );
    assert!(
        telemetry.snapshot().events.is_empty(),
        "disabled log must record nothing"
    );
    // A post-mortem of a disabled handle holds nothing either.
    let post_mortem = RunDocument::capture(RunHeader::default(), &telemetry, Some("probe".into()));
    assert_eq!(post_mortem.log, TelemetrySnapshot::default());
    assert_eq!(
        (post_mortem.dropped, post_mortem.metrics.tracks.len()),
        (0, 0)
    );
}

#[test]
fn the_machine_width_is_read_once_per_process() {
    let _guard = serial();
    // The first call reads the host, which may allocate; every later
    // call reuses the width it read.
    let first = Executor::parallel();
    let before = allocations();
    let again = Executor::parallel();
    assert_eq!(
        allocations() - before,
        0,
        "a second width read must not touch the heap"
    );
    assert_eq!(again, first);
}

#[test]
fn disabled_profile_context_calls_do_not_allocate() {
    let _guard = serial();

    // The cost profile's only context is the span's own track. Forking a
    // disabled handle onto a per-rank track, reading its id and opening
    // spans on profiled phases must be no-ops on the heap; and with no
    // span closed on either handle the profile has nothing to attribute.
    let disabled = Telemetry::disabled();
    let enabled = Telemetry::enabled();
    let forks: Vec<Telemetry> = (1..=4).map(|track| enabled.fork(track)).collect();
    let before = allocations();
    for i in 0..1000u32 {
        let rank = disabled.fork(i % 4 + 1);
        assert_eq!(rank.track(), 0);
        let _span = rank.span(Phase::SpmmForward);
        assert_eq!(forks[(i % 4) as usize].track(), i % 4 + 1);
    }
    assert_eq!(
        allocations() - before,
        0,
        "profile context calls must not touch the heap"
    );
    assert!(ProfileSnapshot::from_snapshot(&disabled.snapshot()).is_empty());
    assert!(ProfileSnapshot::from_snapshot(&enabled.snapshot()).is_empty());
}

#[test]
fn enabled_metrics_are_allocation_free_after_handle_creation() {
    let _guard = serial();

    // Enabled is the always-on production mode: the per-track atomic
    // slab and the wait histograms are allocated when the handle
    // registers, after which every metric call is heap-free: counters
    // and gauges are atomics, and none of them writes a log record.
    let telemetry = Telemetry::enabled();
    let before = allocations();
    for i in 0..1000u64 {
        telemetry.metric_add(MetricId::CommSendBytes, i);
        telemetry.metric_inc(MetricId::SolverIterations);
        telemetry.gauge_set(MetricId::SolverResidual, i as f64 * 1e-3);
        telemetry.observe_ns(MetricId::CommWaitNs, i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "enabled metric recording must not touch the heap"
    );
    let snap = telemetry.metrics_snapshot();
    assert_eq!(snap.counter_total(MetricId::SolverIterations), 1000);
    let log = telemetry.snapshot();
    assert!(log.spans.is_empty() && log.events.is_empty() && log.edges.is_empty());
}

#[test]
fn steady_state_compiled_exchange_does_not_allocate() {
    let _guard = serial();

    // Same fixture as the compiled-plan unit tests: 8 ranks on 2×2×2,
    // 32 rows, deterministic overlapping footprints.
    let topo = Topology::new(2, 2, 2);
    let owner: Vec<u32> = (0..32u32).map(|r| r / 4).collect();
    let fp: Vec<Vec<u32>> = (0..8usize)
        .map(|p| {
            (0..32u32)
                .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                .collect()
        })
        .collect();
    let footprints = Footprints::new(fp);
    let ownership = Ownership::new(owner, 8);
    let compiled = CompiledPlans::build_hierarchical(&footprints, &ownership, &topo);
    let compiled = &compiled;

    // Four fused slices per apply: every local level moves the whole
    // batch in one message per peer, the globals one slice at a time.
    const FUSING: usize = 4;
    let deltas = run_ranks(8, move |comm| {
        let rp = compiled.rank(comm.rank());
        let mut scratch = ExchangeScratch::new();
        let vals: Vec<f32> = (0..FUSING * rp.in_len())
            .map(|i| (comm.rank() + 1) as f32 * 0.125 + i as f32 * 0.01)
            .collect();
        let mut owned = vec![0.0f32; FUSING * rp.owned_len()];
        let mut back = vec![0.0f32; FUSING * rp.in_len()];

        // One block = five back-to-back reduce+scatter rounds with no
        // barrier in between, bracketed by barriers so only exchange work
        // from the 8 rank threads lands between the two counter reads.
        // Blocks must match the measured regime exactly: without barriers
        // ranks drift, and drifting deepens mailbox queues beyond what
        // barrier-separated rounds ever exercise. Rounds alternate the
        // synchronous and the overlapped schedule, so both must reach the
        // steady state (the wired workload runs overlapped).
        let run_block =
            |scratch: &mut ExchangeScratch<F16>, owned: &mut [f32], back: &mut [f32]| -> u64 {
                comm.barrier(0xA110).unwrap();
                let before = allocations();
                for round in 0..5 {
                    let overlap = round % 2 == 1;
                    rp.reduce::<F16>(comm, scratch, &vals, FUSING, overlap, owned)
                        .unwrap();
                    rp.scatter::<F16>(comm, scratch, owned, FUSING, overlap, back)
                        .unwrap();
                }
                comm.barrier(0xA110).unwrap();
                allocations() - before
            };

        // The assertion: the exchange must reach AND SUSTAIN an
        // allocation-free steady state — three consecutive blocks
        // (15 reduce+scatter rounds) during which no thread touches the
        // heap. A per-apply allocation regression (a `vec![...]` back in
        // the hot path) makes every block dirty and fails this
        // deterministically. The only tolerated dirt is a mailbox queue
        // growing past a new scheduling-dependent high-water mark, which
        // becomes rarer every block (capacity never shrinks) — the loop
        // simply retries until the high-water marks saturate.
        let mut stable = 0u32;
        let mut blocks = 0u32;
        while stable < 3 && blocks < 40 {
            let dirty = f64::from(u8::from(
                run_block(&mut scratch, &mut owned, &mut back) != 0,
            ));
            // Collective verdict so every rank runs the same number of
            // blocks (a per-rank decision would desynchronize barriers):
            // a sum of 0 means every rank is clean.
            if comm.allreduce_sum(0xA120, dirty).unwrap() == 0.0 {
                stable += 1;
            } else {
                stable = 0;
            }
            blocks += 1;
        }
        assert!(
            stable >= 3,
            "rank {}: compiled exchange never sustained a zero-allocation \
             steady state within {blocks} blocks",
            comm.rank()
        );
        assert!(back.iter().all(|v| v.is_finite()));
        blocks
    });

    // The collective verdict forces every rank through the same number of
    // blocks; disagreement would mean the barrier protocol desynced.
    assert!(
        deltas.windows(2).all(|w| w[0] == w[1]),
        "ranks disagree on block count: {deltas:?}"
    );
}

#[test]
fn disabled_telemetry_match_edges_do_not_allocate() {
    let _guard = serial();

    // The comm runtime records a causal [`EdgeRecord`] at every
    // send→recv match — but only when telemetry is on. With a disabled
    // handle the sender stamps nothing and the receiver's finish_match
    // must be a no-op on the heap: a warm pooled ping-pong stays at
    // exactly zero allocations per matched message.
    let deltas = run_ranks(2, |comm| {
        let peer = 1 - comm.rank();
        let round = |comm: &xct_comm::Communicator| {
            if comm.rank() == 0 {
                let mut buf = comm.pooled_buf(64);
                buf.extend_from_slice(&[0xABu8; 64]);
                comm.send(peer, 7, buf).unwrap();
                let back = comm.recv(peer, 8).unwrap();
                comm.recycle(back);
            } else {
                let msg = comm.recv(peer, 7).unwrap();
                comm.send(peer, 8, msg).unwrap();
            }
        };
        // Warm-up saturates the buffer pool and mailbox high-water marks.
        for _ in 0..32 {
            round(comm);
        }
        comm.barrier(0xE0).unwrap();
        let before = allocations();
        for _ in 0..64 {
            round(comm);
        }
        comm.barrier(0xE0).unwrap();
        allocations() - before
    });
    assert_eq!(
        deltas,
        vec![0, 0],
        "matching with telemetry disabled must never touch the heap"
    );
}

#[test]
fn distributed_iterations_allocate_a_bounded_constant_amount() {
    let _guard = serial();

    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let sm = SystemMatrix::build(&scan);

    // Setup costs (decomposition, plans, thread spawns) are identical for
    // every run, so the difference between runs isolates the per-iteration
    // allocation count. Wire buffers moved into channels make it nonzero,
    // but it must be the same for iterations 7..12 as for 13..18 — any
    // growth means an apply path regressed to per-call allocation.
    //
    // Two shapes: the single-slice node run, and a mixed-precision fused
    // run across two nodes with every slice's exchange in flight — the
    // vector collective of per-slice maxima, the butterfly between node
    // leaders, the fused kernel staging and the in-flight queue are all
    // on its per-iteration path and must all come from pools.
    for (topology, fusing, overlap) in [
        (Topology::new(1, 2, 2), 1, false),
        (Topology::new(2, 2, 2), 4, true),
    ] {
        let mut y = vec![0.0f32; sm.num_rays() * fusing];
        for f in 0..fusing {
            let phantom: Vec<f32> = (0..sm.num_voxels())
                .map(|i| ((i + f) % 5) as f32 * 0.2)
                .collect();
            sm.project(&phantom, &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()]);
        }
        let run = |iterations: usize| -> u64 {
            let cfg = DistributedConfig {
                topology,
                precision: Precision::Mixed,
                fusing,
                hierarchical: true,
                overlap,
                iterations,
                ..Default::default()
            };
            let before = allocations();
            let result = reconstruct_distributed(&scan, &y, &cfg);
            assert_eq!(result.x.len(), sm.num_voxels() * fusing);
            allocations() - before
        };
        let a = run(6);
        let b = run(12);
        let c = run(18);
        let delta_early = b.saturating_sub(a);
        let delta_late = c.saturating_sub(b);
        let tolerance = delta_early / 10 + 64;
        assert!(
            delta_late <= delta_early + tolerance,
            "{topology:?} fusing {fusing}: per-iteration allocations grew: \
             iterations 7..12 cost {delta_early}, 13..18 cost {delta_late}"
        );
    }
}
