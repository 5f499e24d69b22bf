//! §III-D3: "the method is general and applicable to other node
//! architectures with different number of sockets and GPUs" — exercised
//! on several non-Summit topologies, plus failure-propagation checks for
//! the runtime.

use xct_comm::protocol::ExchangeLevel;
use xct_comm::{
    run_ranks, CompiledPlans, DirectPlan, ExchangeScratch, Footprints, HierarchicalPlan, Ownership,
    Topology,
};

fn fixture(ranks: usize, rows: usize) -> (Footprints, Ownership) {
    let owner: Vec<u32> = (0..rows as u32).map(|r| r % ranks as u32).collect();
    let fp: Vec<Vec<u32>> = (0..ranks)
        .map(|p| {
            (0..rows as u32)
                .filter(|&r| !(r as usize * 13 + p * 7).is_multiple_of(4))
                .collect()
        })
        .collect();
    (Footprints::new(fp), Ownership::new(owner, ranks))
}

fn check_topology(topo: Topology) {
    let ranks = topo.size();
    let (fp, own) = fixture(ranks, 64);
    let dplan = DirectPlan::build(&fp, &own);
    let hplan = HierarchicalPlan::build(&fp, &own, &topo);

    // Hierarchy never increases inter-node traffic.
    assert!(
        hplan.global.internode_elements(&topo) <= dplan.internode_elements(&topo),
        "topology {topo:?}"
    );

    // And numerics agree between schemes: owned totals, one per owned row.
    let reduce = |compiled: &CompiledPlans| {
        run_ranks(ranks, |comm| {
            let p = comm.rank();
            let rp = compiled.rank(p);
            let vals: Vec<f32> = fp.per_rank[p]
                .iter()
                .map(|&r| (p as f32 + 1.0) + r as f32 * 0.01)
                .collect();
            let mut out = vec![0.0f32; rp.owned_len()];
            rp.reduce::<f32>(comm, &mut ExchangeScratch::new(), &vals, 1, false, &mut out)
                .unwrap();
            out
        })
    };
    // Direct exchange is the hierarchy of one-GPU nodes.
    let flat = Topology::new(ranks, 1, 1);
    let direct = reduce(&CompiledPlans::build_hierarchical(&fp, &own, &flat));
    let hier = reduce(&CompiledPlans::compile_hierarchical(&fp, &own, &hplan));
    for (p, (d, h)) in direct.iter().zip(&hier).enumerate() {
        assert_eq!(d.len(), own.rows_of(p).len());
        assert_eq!(d.len(), h.len());
        for (a, b) in d.iter().zip(h) {
            assert!((a - b).abs() < 1e-4, "topology {topo:?}: {a} vs {b}");
        }
    }
}

#[test]
fn summit_two_sockets_of_three() {
    check_topology(Topology::summit(2));
}

#[test]
fn frontier_like_four_sockets_of_two() {
    // Frontier-style: 4 NUMA domains × 2 GCDs.
    check_topology(Topology::new(2, 4, 2));
}

#[test]
fn dgx_like_single_socket_of_eight() {
    // One big NVLink island per node: the socket level does all the
    // local reduction; the node level degenerates to a no-op.
    let topo = Topology::new(2, 1, 8);
    let (fp, own) = fixture(topo.size(), 64);
    let hplan = HierarchicalPlan::build(&fp, &own, &topo);
    assert_eq!(
        hplan.node.total_elements(),
        0,
        "single-socket nodes have no inter-socket traffic"
    );
    // A level that moves nothing is not compiled, on any rank.
    let compiled = CompiledPlans::compile_hierarchical(&fp, &own, &hplan);
    for p in 0..topo.size() {
        assert_eq!(
            local_levels(&compiled, p),
            [ExchangeLevel::Socket, ExchangeLevel::ScatterSocket]
        );
    }
    check_topology(topo);
}

#[test]
fn one_gpu_per_node_degenerates_to_direct() {
    // No local peers at all: both local levels are empty and global
    // equals direct.
    let topo = Topology::new(6, 1, 1);
    let (fp, own) = fixture(topo.size(), 48);
    let dplan = DirectPlan::build(&fp, &own);
    let hplan = HierarchicalPlan::build(&fp, &own, &topo);
    assert_eq!(hplan.socket.total_elements(), 0);
    assert_eq!(hplan.node.total_elements(), 0);
    assert_eq!(hplan.global.total_elements(), dplan.total_elements());
    assert_eq!(hplan.global.sends, dplan.sends);
    let compiled = CompiledPlans::compile_hierarchical(&fp, &own, &hplan);
    for p in 0..topo.size() {
        assert_eq!(local_levels(&compiled, p), []);
    }
    check_topology(topo);
}

/// The local levels rank `p` of `compiled` runs, forward then scatter.
fn local_levels(compiled: &CompiledPlans, p: usize) -> Vec<ExchangeLevel> {
    let rp = compiled.rank(p);
    let levels = rp.forward().iter().chain(rp.transpose());
    let local = levels.filter(|l| !l.level().per_slice());
    local.map(|l| l.level()).collect()
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn rank_panic_propagates_to_the_caller() {
    run_ranks(4, |comm| {
        if comm.rank() == 2 {
            panic!("injected failure");
        }
        // Other ranks exit normally; the harness must still surface the
        // failure instead of hanging.
    });
}
