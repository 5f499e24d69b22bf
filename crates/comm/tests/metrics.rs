//! Communication-metering integration tests: the recorded matrices and
//! per-level volumes must match what the plans predict, exactly.

use std::time::Duration;
use xct_comm::{
    run_ranks, run_ranks_with, CommReport, Communicator, CompiledPlans, ExchangeScratch,
    Footprints, HierarchicalPlan, Ownership, RankOptions, Topology, TrafficClass, WireModel,
    UNDO_BYTES,
};
use xct_fp16::{StorageScalar, F16};
use xct_telemetry::{MetricId, Phase, Telemetry};

/// Shared fixture: 8 ranks on a 2-node × 2-socket × 2-GPU topology,
/// 32 rows, deterministic staggered footprints (mirrors the unit fixture
/// in `xct-comm`'s plan tests).
fn fixture() -> (Footprints, Ownership, Topology) {
    let topo = Topology::new(2, 2, 2);
    let owner: Vec<u32> = (0..32u32).map(|r| r / 4).collect();
    let fp: Vec<Vec<u32>> = (0..8usize)
        .map(|p| {
            (0..32u32)
                .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                .collect()
        })
        .collect();
    (Footprints::new(fp), Ownership::new(owner, 8), topo)
}

/// One blocking hierarchical reduction of `row id` partials at storage
/// scalar `S` on this rank.
fn reduce_row_ids<S: StorageScalar>(
    comm: &Communicator,
    compiled: &CompiledPlans,
    fp: &Footprints,
) {
    let rp = compiled.rank(comm.rank());
    let vals: Vec<f32> = fp.per_rank[comm.rank()].iter().map(|&r| r as f32).collect();
    let mut out = vec![0.0f32; rp.owned_len()];
    rp.reduce::<S>(comm, &mut ExchangeScratch::new(), &vals, 1, false, &mut out)
        .unwrap();
}

fn traced(telemetry: &Telemetry, wire: Option<WireModel>) -> RankOptions {
    RankOptions {
        telemetry: telemetry.clone(),
        wire,
        ..RankOptions::default()
    }
}

#[test]
fn ring_exchange_records_exact_byte_matrix() {
    const N: usize = 4;
    const VALS: usize = 8; // 8 × f32 = 32 payload bytes per message
    let stats = run_ranks(N, |comm| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let payload = vec![comm.rank() as f32; VALS];
        comm.send_vals::<f32>(next, 7, &payload).unwrap();
        let got = comm.recv_vals::<f32>(prev, 7).unwrap();
        assert_eq!(got.len(), VALS);
        comm.comm_stats()
    });
    let report = CommReport::new(stats);
    let mut expected = vec![vec![0u64; N]; N];
    for src in 0..N {
        expected[src][(src + 1) % N] = (VALS * std::mem::size_of::<f32>()) as u64;
    }
    assert_eq!(report.byte_matrix(), expected);
    for (src, row) in report.message_matrix().iter().enumerate() {
        for (dst, &msgs) in row.iter().enumerate() {
            assert_eq!(msgs, u64::from(dst == (src + 1) % N), "msgs {src}->{dst}");
        }
    }
    // Plain sends outside any plan scope land in the Other class.
    assert_eq!(
        report.level_bytes()[TrafficClass::Other as usize],
        (N * VALS * std::mem::size_of::<f32>()) as u64
    );
}

#[test]
fn hierarchical_reduction_volumes_match_plan_prediction() {
    let (fp, own, topo) = fixture();
    let plan = HierarchicalPlan::build(&fp, &own, &topo);
    let compiled = CompiledPlans::compile_hierarchical(&fp, &own, &plan);
    let (socket_el, node_el, global_el) = plan.level_elements();

    // Every message of a half-width wire also carries its slice's undo:
    // `header` bytes per message on top of the elements.
    let run = |elem_bytes: u64, header: u64, stats: Vec<xct_comm::RankCommStats>| {
        let msgs = |class: TrafficClass| -> u64 {
            stats.iter().map(|s| s.class_msgs[class as usize]).sum()
        };
        let expect =
            |class: TrafficClass, elements: u64| elements * elem_bytes + msgs(class) * header;
        let report = CommReport::new(stats.clone());
        let levels = report.level_bytes();
        let (socket, node, global) = (
            expect(TrafficClass::Socket, socket_el),
            expect(TrafficClass::Node, node_el),
            expect(TrafficClass::Global, global_el),
        );
        assert_eq!(
            levels[TrafficClass::Socket as usize],
            socket,
            "socket level"
        );
        assert_eq!(levels[TrafficClass::Node as usize], node, "node level");
        assert_eq!(
            levels[TrafficClass::Global as usize],
            global,
            "global level"
        );
        assert_eq!(levels[TrafficClass::Control as usize], 0);
        assert_eq!(levels[TrafficClass::Other as usize], 0);
        assert_eq!(report.total_bytes(), socket + node + global);
    };

    // Single precision: 4 bytes per element on every level, no header.
    let stats = run_ranks(8, |comm| {
        reduce_row_ids::<f32>(comm, &compiled, &fp);
        comm.comm_stats()
    });
    run(4, 0, stats);

    // Half precision literally moves half the payload bytes (Table IV's
    // point), plus one undo per message.
    let stats = run_ranks(8, |comm| {
        reduce_row_ids::<F16>(comm, &compiled, &fp);
        comm.comm_stats()
    });
    run(2, UNDO_BYTES as u64, stats);
}

#[test]
fn traced_ranks_record_per_level_spans_on_their_own_tracks() {
    let (fp, own, topo) = fixture();
    let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
    let tele = Telemetry::enabled();
    run_ranks_with(8, &traced(&tele, None), |comm| {
        assert_eq!(comm.telemetry().track(), comm.rank() as u32);
        reduce_row_ids::<f32>(comm, &compiled, &fp);
    });
    let snap = tele.snapshot();
    for rank in 0..8u32 {
        // Every level runs through one step: its post and its drain
        // each carry the level's span, quantizing the partial into the
        // held batch carries the first level's, and widening the held
        // totals into the output the last level's.
        for (phase, spans) in [
            (Phase::ReduceSocket, 3),
            (Phase::ReduceNode, 2),
            (Phase::ReduceGlobal, 3),
        ] {
            assert_eq!(
                snap.spans
                    .iter()
                    .filter(|s| s.track == rank && s.phase == phase)
                    .count(),
                spans,
                "rank {rank} {phase}"
            );
        }
    }
}

/// A wired `irecv` posted before the send exists captures nothing, so
/// `wait` is what blocks — on the condvar, counted as parks — and the
/// match records one causal edge carrying the wire cost.
#[test]
fn wired_irecv_then_wait_parks_and_records_the_wire_edge() {
    let wire = WireModel {
        latency: Duration::from_millis(3),
        bytes_per_sec: f64::INFINITY,
        ranks_per_node: 1, // every pair inter-node: all messages wired
    };
    let tele = Telemetry::enabled();
    run_ranks_with(2, &traced(&tele, Some(wire)), |comm| {
        if comm.rank() == 0 {
            // Released only once rank 1 has posted its receive.
            let release = comm.recv(1, 4).unwrap();
            comm.recycle(release);
            comm.send_vals::<f32>(1, 5, &[1.0, 2.0]).unwrap();
        } else {
            let req = comm.irecv(0, 5).unwrap();
            comm.send(0, 4, Vec::new()).unwrap();
            let got = req.wait(comm).unwrap();
            assert_eq!(got.len(), 8);
            comm.recycle(got);
        }
    });
    let metrics = tele.metrics_snapshot();
    let receiver = metrics.track(1).expect("rank 1 recorded metrics");
    assert!(
        receiver.counter(MetricId::CommWaitParks) >= 1,
        "parks: {}",
        receiver.counter(MetricId::CommWaitParks)
    );
    let snap = tele.snapshot();
    let edges: Vec<_> = snap.edges.iter().filter(|e| e.tag == 5).collect();
    assert_eq!(edges.len(), 1, "one causal edge per match");
    assert_eq!((edges[0].src_track, edges[0].dst_track), (0, 1));
    assert_eq!(edges[0].wire_ns, 3_000_000);
    // Send/recv accounting is exact: the 8-byte payload one way, the
    // empty release the other (plus nothing else in this run).
    let sender = metrics.track(0).expect("rank 0 recorded metrics");
    assert_eq!(sender.counter(MetricId::CommSendBytes), 8);
    assert_eq!(receiver.counter(MetricId::CommRecvBytes), 8);
    assert_eq!(
        metrics.counter_total(MetricId::CommSendBytes),
        metrics.counter_total(MetricId::CommRecvBytes),
        "all messages matched"
    );
}

/// A blocking `recv` that arrives late parks on the condvar; the park
/// counter and the comm.wait mailbox-depth gauge must reflect it.
#[test]
fn blocking_recv_counts_parks_and_depth() {
    let wire = WireModel {
        latency: Duration::from_millis(2),
        bytes_per_sec: f64::INFINITY,
        ranks_per_node: 1,
    };
    let tele = Telemetry::enabled();
    run_ranks_with(2, &traced(&tele, Some(wire)), |comm| {
        if comm.rank() == 0 {
            // Sent only once rank 1 is about to block, so the 2 ms wire
            // time falls inside its receive whenever the threads start.
            let release = comm.recv(1, 8).unwrap();
            comm.recycle(release);
            comm.send_vals::<f32>(1, 9, &[3.0]).unwrap();
        } else {
            comm.send(0, 8, Vec::new()).unwrap();
            let got = comm.recv_vals::<f32>(0, 9).unwrap();
            assert_eq!(got, vec![3.0]);
        }
    });
    let metrics = tele.metrics_snapshot();
    let receiver = metrics.track(1).expect("rank 1 recorded metrics");
    assert!(
        receiver.counter(MetricId::CommWaitParks) >= 1,
        "parks: {}",
        receiver.counter(MetricId::CommWaitParks)
    );
    assert_eq!(
        receiver.gauge(MetricId::CommMailboxDepth),
        Some(0.0),
        "mailbox drained by the final match"
    );
}
