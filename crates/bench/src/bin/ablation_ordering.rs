//! Ablation: Hilbert vs row-major vs Morton tile ordering (DESIGN.md §5).
//!
//! Measures, on the real operator, the two quantities the ordering is
//! supposed to improve: (a) the partial-data footprint (= communication
//! volume) of each data process, and (b) the shared-memory data reuse of
//! the packed kernel.

use xct_comm::{DirectPlan, HierarchicalPlan, Topology};
use xct_core::decompose::SliceDecomposition;
use xct_exec::Executor;
use xct_fp16::F16;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_spmm::{Csr, Order, PackedMatrix};

fn main() {
    let n = 64;
    let angles = 64;
    let ranks = 24;
    let topo = Topology::summit(4);
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::<f32>::from_system_matrix(&sm).map_values(F16::from_f32);
    let voxels = Order::identity(sm.num_voxels());

    println!("ABLATION: tile-ordering curves (communication volume + kernel reuse)");
    println!();
    let header = format!(
        "{:<10} {:>16} {:>16} {:>16} {:>12}",
        "ordering", "footprint", "direct comm", "inter-node", "kern reuse"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    let mut results = Vec::new();
    for (name, kind) in [
        ("hilbert", CurveKind::Hilbert),
        ("row-major", CurveKind::RowMajor),
        ("morton", CurveKind::Morton),
    ] {
        let d = SliceDecomposition::build(&sm, &scan, ranks, 4, kind);
        let ownership = d.ray_ownership();
        let direct = DirectPlan::build(&d.footprints, &ownership);
        let hier = HierarchicalPlan::build(&d.footprints, &ownership, &topo);
        let _ = &hier;

        // Rays in `kind`'s order over the sinogram plane (`n` channels
        // wide, `angles` high), voxels left as they are.
        let sinogram = TileDecomposition::new(Domain2D::new(n, angles), 8, kind);
        let rays = Order::new(sinogram.cell_order());
        let executor = Executor::parallel();
        let packed =
            PackedMatrix::pack_ordered(&csr, &rays, &voxels, 128, 96 * 1024, 16, &executor);

        println!(
            "{:<10} {:>16} {:>16} {:>16} {:>12.2}",
            name,
            d.footprints.total_elements(),
            direct.total_elements(),
            direct.internode_elements(&topo),
            packed.average_reuse(),
        );
        results.push((
            name,
            d.footprints.total_elements(),
            direct.internode_elements(&topo),
            packed.average_reuse(),
        ));
    }

    println!();
    let hilbert = &results[0];
    let row_major = &results[1];
    assert!(
        hilbert.1 < row_major.1,
        "Hilbert must shrink footprints vs row-major"
    );
    assert!(
        hilbert.3 > row_major.3,
        "Hilbert must raise kernel reuse vs row-major"
    );
    println!(
        "Hilbert vs row-major: {:.0}% less partial data, {:.2}x more kernel reuse.",
        100.0 * (1.0 - hilbert.1 as f64 / row_major.1 as f64),
        hilbert.3 / row_major.3,
    );
}
