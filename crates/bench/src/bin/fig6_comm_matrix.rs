//! Fig 6: direct vs three-level hierarchical communication matrices for
//! the 24-subdomain example of Fig 7 — *real* plans from a real
//! decomposition (4 Summit nodes = 24 GPUs).
//!
//! The paper's instance moves 1.35 GB directly; socket-level reduction
//! brings the remainder to 768 MB (43% reduction) and node-level to
//! 492 MB (36% more), 64% total.

use xct_comm::{
    run_ranks, CommReport, CompiledPlans, DirectPlan, ExchangeScratch, HierarchicalPlan, Topology,
    TrafficClass,
};
use xct_core::decompose::SliceDecomposition;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::CurveKind;

fn print_matrix(label: &str, m: &[Vec<u64>]) {
    println!("{label} (elements, row = sender):");
    print!("      ");
    for dst in 0..m.len() {
        print!("{dst:>6}");
    }
    println!();
    for (src, row) in m.iter().enumerate() {
        print!("  {src:>2} |");
        for &v in row {
            if v == 0 {
                print!("{:>6}", ".");
            } else {
                print!("{v:>6}");
            }
        }
        println!();
    }
    println!();
}

fn main() {
    // 24 ranks on 4 Summit-like nodes, as in Figs 3/6/7.
    let topo = Topology::summit(4);
    let scan = ScanGeometry::uniform(ImageGrid::square(96, 1.0), 96);
    let sm = SystemMatrix::build(&scan);
    let d = SliceDecomposition::build(&sm, &scan, topo.size(), 8, CurveKind::Hilbert);
    let ownership = d.ray_ownership();
    let direct = DirectPlan::build(&d.footprints, &ownership);
    let hier = HierarchicalPlan::build(&d.footprints, &ownership, &topo);

    println!("FIG 6: Communication matrices, 24 subdomains on 4 nodes (real plans)");
    println!();
    print_matrix("(a) Direct communication", &direct.volume_matrix());
    print_matrix(
        "(b) Socket-level communication",
        &hier.socket.volume_matrix(24),
    );
    print_matrix("(c) Node-level communication", &hier.node.volume_matrix(24));
    print_matrix("(d) Global communication", &hier.global.volume_matrix());

    let direct_total = direct.total_elements();
    let (socket, node, global) = hier.level_elements();
    println!("Totals (elements):");
    println!("  direct          : {direct_total}");
    println!(
        "  socket-level    : {socket}  (post-reduction remainder {:.0}% of direct; paper: 57%)",
        100.0 * (direct_total - socket_reduction(&hier, direct_total)) as f64 / direct_total as f64
    );
    println!("  node-level      : {node}");
    println!(
        "  global          : {global}  ({:.0}% of direct; paper: 36%)",
        100.0 * global as f64 / direct_total as f64
    );
    println!();
    println!(
        "Inter-node traffic cut by {:.0}% (paper: 64%)",
        100.0 * (1.0 - global as f64 / direct_total as f64)
    );

    // Structural checks.
    for (src, row) in hier.socket.volume_matrix(24).iter().enumerate() {
        for (dst, &v) in row.iter().enumerate() {
            if v > 0 {
                assert_eq!(
                    topo.socket_of(src),
                    topo.socket_of(dst),
                    "socket step leaked"
                );
            }
        }
    }
    for (src, row) in hier.node.volume_matrix(24).iter().enumerate() {
        for (dst, &v) in row.iter().enumerate() {
            if v > 0 {
                assert_eq!(topo.node_of(src), topo.node_of(dst), "node step leaked");
            }
        }
    }
    assert!(
        global < direct_total,
        "hierarchy must shrink global traffic"
    );

    // Measured companion: run the hierarchical exchange for real and let
    // the per-rank communication meters reproduce the planned volumes.
    println!();
    println!("Measured byte matrix (one hierarchical reduction, f32 wire):");
    let compiled = CompiledPlans::compile_hierarchical(&d.footprints, &ownership, &hier);
    let stats = run_ranks(topo.size(), |comm| {
        let rank = comm.rank();
        let rp = compiled.rank(rank);
        let vals: Vec<f32> = d.footprints.per_rank[rank]
            .iter()
            .map(|&r| (r % 97) as f32 / 97.0 + rank as f32)
            .collect();
        let mut owned = vec![0.0f32; rp.owned_len()];
        let mut scratch = ExchangeScratch::new();
        rp.reduce::<f32>(comm, &mut scratch, &vals, 1, false, &mut owned)
            .expect("exchange");
        comm.comm_stats()
    });
    let report = CommReport::new(stats);
    println!("{}", report.render_matrix());
    let measured = report.level_bytes();
    let f32_bytes = std::mem::size_of::<f32>() as u64;
    assert_eq!(
        measured[TrafficClass::Socket as usize],
        socket * f32_bytes,
        "measured socket bytes must match the plan"
    );
    assert_eq!(
        measured[TrafficClass::Node as usize],
        node * f32_bytes,
        "measured node bytes must match the plan"
    );
    assert_eq!(
        measured[TrafficClass::Global as usize],
        global * f32_bytes,
        "measured global bytes must match the plan"
    );
    println!("Measured per-level bytes match the plan prediction (socket/node/global).");
}

/// Elements absorbed by socket-level reduction: direct minus what still
/// needs to leave sockets afterwards.
fn socket_reduction(hier: &HierarchicalPlan, direct_total: u64) -> u64 {
    let remaining: u64 = hier
        .socket
        .post
        .per_rank
        .iter()
        .map(|f| f.len() as u64)
        .sum();
    direct_total.saturating_sub(remaining)
}
