//! Shared infrastructure for the per-table / per-figure harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the index) and prints both
//! the paper's reported value and the reproduced value. Experiments that
//! need Summit run in *model mode* (complexity + machine model);
//! everything numerical (kernels, plans, convergence) runs for real at
//! mini scale.

#![forbid(unsafe_code)]

pub mod perf;
pub mod tune;

use xct_core::decompose::packing_orders;
use xct_exec::Executor;
use xct_fp16::{Precision, StorageScalar, F16};
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_spmm::{Csr, KernelMetrics, Order, PackedMatrix};

/// A mini scan with matched detector (N channels = N voxels across).
pub fn mini_scan(n: usize, angles: usize) -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles)
}

/// Builds the memoized operator and its CSR form for a mini scan.
pub fn mini_operator(n: usize, angles: usize) -> (ScanGeometry, SystemMatrix, Csr<f32>) {
    let scan = mini_scan(n, angles);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    (scan, sm, csr)
}

/// The mini operator, in its natural numbering, with the `(ray, voxel)`
/// orders production packs it under ([`packing_orders`]) — the layout
/// every optimized-kernel experiment measures.
pub struct OrderedOperator {
    /// The memoized Siddon matrix.
    pub sm: SystemMatrix,
    /// Its CSR form.
    pub csr: Csr<f32>,
    /// Hilbert order of the sinogram plane.
    pub rays: Order,
    /// Hilbert order of the tomogram plane.
    pub voxels: Order,
}

/// Builds the mini operator and the orders for `block_size`-row blocks.
pub fn hilbert_ordered_operator(n: usize, angles: usize, block_size: usize) -> OrderedOperator {
    let (scan, sm, csr) = mini_operator(n, angles);
    let (rays, voxels) = packing_orders(&scan, block_size);
    OrderedOperator {
        sm,
        csr,
        rays,
        voxels,
    }
}

impl OrderedOperator {
    /// The forward operator re-typed to `S` and packed under the orders,
    /// on the calling thread.
    pub fn pack<S: StorageScalar>(
        &self,
        block_size: usize,
        shared_bytes: usize,
        fusing: usize,
    ) -> PackedMatrix<S> {
        let typed = self.csr.map_values(S::from_f32);
        let (rows, cols, serial) = (&self.rays, &self.voxels, &Executor::Serial);
        PackedMatrix::pack_ordered(&typed, rows, cols, block_size, shared_bytes, fusing, serial)
    }

    /// Traffic account and total stage count of [`pack`](Self::pack) at
    /// `precision`'s storage type — what the V100 kernel-time model takes.
    pub fn kernel_metrics(
        &self,
        precision: Precision,
        block_size: usize,
        shared_bytes: usize,
        fusing: usize,
    ) -> (KernelMetrics, usize) {
        fn of<S: StorageScalar>(p: &PackedMatrix<S>) -> (KernelMetrics, usize) {
            (p.kernel_metrics(), p.total_stages())
        }
        match precision {
            Precision::Double => of(&self.pack::<f64>(block_size, shared_bytes, fusing)),
            Precision::Single => of(&self.pack::<f32>(block_size, shared_bytes, fusing)),
            Precision::Half | Precision::Mixed => {
                of(&self.pack::<F16>(block_size, shared_bytes, fusing))
            }
        }
    }
}

/// Formats a byte count the way the paper does (GB/TB, decimal).
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e12 {
        format!("{:.2} TB", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else {
        format!("{:.1} KB", b / 1e3)
    }
}

/// Formats seconds as the paper's mixed s/min style.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 120.0 {
        format!("{:.1} m", seconds / 60.0)
    } else {
        format!("{:.1} s", seconds)
    }
}

/// Prints a rule line sized to a header.
pub fn rule(header: &str) -> String {
    "-".repeat(header.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_operator_orders_both_planes_of_the_natural_matrix() {
        let (_, _, natural) = mini_operator(16, 12);
        let op = hilbert_ordered_operator(16, 12, 64);
        assert_eq!(op.csr.nnz(), natural.nnz());
        assert_eq!((op.rays.len(), op.voxels.len()), (12 * 16, 16 * 16));
        // Block 64 = one 8×8 tile: the first block's rays are channels
        // 0..8 of angles 0..8.
        assert!(op.rays.indices()[..64]
            .iter()
            .all(|&ray| ray % 16 < 8 && ray / 16 < 8));
        let packed = op.pack::<F16>(64, 96 * 1024, 2);
        // The block owns exactly that run of the order (it lists the
        // rows longest first).
        let (mut block, mut run) = (
            packed.blocks()[0].rows.clone(),
            op.rays.indices()[..64].to_vec(),
        );
        block.sort_unstable();
        run.sort_unstable();
        assert_eq!(block, run);
        let (metrics, stages) = op.kernel_metrics(Precision::Mixed, 64, 96 * 1024, 2);
        assert_eq!(metrics, packed.kernel_metrics());
        assert_eq!(stages, packed.total_stages());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(52_100_000_000), "52.1 GB");
        assert_eq!(fmt_bytes(6_560_000_000_000), "6.56 TB");
        assert_eq!(fmt_time(42.23), "42.2 s");
        assert_eq!(fmt_time(258.0), "4.3 m");
    }
}
