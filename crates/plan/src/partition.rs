//! The optimal partitioning strategy (paper §III-A3) and the complexity
//! model of Table I.

use xct_cluster::MachineSpec;
use xct_fp16::Precision;

/// A batch × data split of the GPUs (Fig 3): `batch` groups each hold a
/// full copy of the per-slice operator and an equal share of the slices;
/// within a group, `data` GPUs partition each slice's x–z plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioning {
    /// Batch processes (Pb): slice-parallel, no communication.
    pub batch: usize,
    /// Data processes (Pd): plane-parallel, communication per iteration.
    pub data: usize,
}

impl Partitioning {
    /// Total GPUs.
    pub fn total(&self) -> usize {
        self.batch * self.data
    }

    /// Fraction of GPU memory usable for data and matrix. The remainder
    /// holds I/O-batch buffers, partial-data send/receive buffers (each
    /// up to a footprint in size), pinned staging, and CUDA context.
    /// Calibrated so every Table III partitioning reproduces exactly —
    /// and, consistently, so the Brain dataset *just* fits 128 nodes in
    /// mixed precision, which the paper states is its minimum (§IV-E1).
    pub const USABLE_MEMORY_FRACTION: f64 = 0.465;

    /// The paper's optimal strategy at node granularity (§III-A3,
    /// Table III): *"minimize partitioning of the 3D data cube in the
    /// x–z dimension; only until per-process memory footprint fits into
    /// GPU memory. Then batch partitioning should take over."*
    ///
    /// Batch groups *duplicate* the memoized matrix but split the
    /// data, so per-GPU footprint = `matrix/(data_nodes·g) +
    /// data/(nodes·g)`. The largest batch factor whose footprint fits
    /// wins; lower precision shrinks both terms — exactly the
    /// 1×/2×/4× progression of Table III.
    pub fn optimal(
        matrix_bytes: u64,
        data_bytes: u64,
        nodes: usize,
        gpus_per_node: usize,
        gpu_memory: u64,
        slices: usize,
    ) -> Partitioning {
        assert!(
            nodes > 0 && gpus_per_node > 0 && gpu_memory > 0 && slices > 0,
            "degenerate inputs"
        );
        let usable = gpu_memory as f64 * Self::USABLE_MEMORY_FRACTION;
        let g = gpus_per_node as f64;
        let mut best = Partitioning {
            batch: 1,
            data: nodes * gpus_per_node,
        };
        for batch in 1..=nodes {
            if !nodes.is_multiple_of(batch) || batch > slices {
                continue;
            }
            let data_nodes = (nodes / batch) as f64;
            let per_gpu =
                matrix_bytes as f64 / (data_nodes * g) + data_bytes as f64 / (nodes as f64 * g);
            if per_gpu <= usable {
                best = Partitioning {
                    batch,
                    data: (nodes / batch) * gpus_per_node,
                };
            }
        }
        best
    }

    /// Memoized-matrix footprint (one `A` + one `Aᵀ`, packed) for a
    /// dataset with `channels` detector channels and `projections`
    /// angles, at `precision`.
    pub fn matrix_bytes(projections: usize, channels: usize, precision: Precision) -> u64 {
        let nnz = 0.55 * projections as f64 * (channels as f64).powi(2);
        2 * (nnz as u64) * precision.matrix_element_bytes() as u64
    }

    /// Sinogram + tomogram footprint at `precision`.
    pub fn data_bytes(
        projections: usize,
        rows: usize,
        channels: usize,
        precision: Precision,
    ) -> u64 {
        let s = precision.storage_bytes() as u64;
        let (k, m, n) = (projections as u64, rows as u64, channels as u64);
        (k * m * n + m * n * n) * s
    }

    /// Convenience: optimal partitioning for a dataset on a machine.
    pub fn optimal_for(
        projections: usize,
        rows: usize,
        channels: usize,
        machine: &MachineSpec,
        precision: Precision,
    ) -> Partitioning {
        Self::optimal(
            Self::matrix_bytes(projections, channels, precision),
            Self::data_bytes(projections, rows, channels, precision),
            machine.nodes,
            machine.sockets_per_node * machine.gpus_per_socket,
            machine.gpu.mem_capacity,
            rows,
        )
    }
}

/// The asymptotic cost model of Table I, evaluated concretely.
///
/// `M` = detector rows (slices), `N` = channels, `Pb` = batch processes,
/// `Pd` = data processes. Units: elements (multiply by storage bytes for
/// bytes) and FLOPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableIComplexity {
    /// Per-process computation, FLOPs (`MN²/PbPd + MN/Pb√Pd`).
    pub compute_per_process: f64,
    /// Per-process memory, elements (`N²/Pd + N/√Pd` per slice share).
    pub memory_per_process: f64,
    /// Per-process communication, elements (`MN/Pb√Pd`).
    pub comm_per_process: f64,
    /// Total computation, FLOPs (`MN² + MN√Pd`).
    pub compute_total: f64,
    /// Total communication, elements (`MN√Pd`).
    pub comm_total: f64,
}

impl TableIComplexity {
    /// Evaluates the Table I formulas (constant factors set to 1, as in
    /// the paper's asymptotic table; the projection-count factor `K` is
    /// folded into per-iteration costs by the caller).
    pub fn evaluate(m: usize, n: usize, part: Partitioning) -> Self {
        let (m, n) = (m as f64, n as f64);
        let pb = part.batch as f64;
        let pd = part.data as f64;
        let sqrt_pd = pd.sqrt();
        TableIComplexity {
            compute_per_process: m * n * n / (pb * pd) + m * n / (pb * sqrt_pd),
            memory_per_process: n * n / pd + n / sqrt_pd,
            comm_per_process: m * n / (pb * sqrt_pd),
            compute_total: m * n * n + m * n * sqrt_pd,
            comm_total: m * n * sqrt_pd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_maximizes_batch_when_memory_allows() {
        // Tiny matrix: everything goes to batch (no data-parallel comm).
        let p = Partitioning::optimal(1 << 30, 4 << 30, 8, 6, 16 << 30, 1000);
        assert_eq!(p.batch, 8);
        assert_eq!(p.data, 6);
        // Huge matrix: all nodes must share one copy.
        let p = Partitioning::optimal(400 << 30, 4 << 30, 8, 6, 16 << 30, 1000);
        assert_eq!(p.batch, 1);
        assert_eq!(p.data, 48);
    }

    #[test]
    fn batch_capped_by_slice_count() {
        let p = Partitioning::optimal(1 << 20, 1 << 20, 24, 6, 16 << 30, 3);
        assert!(p.batch <= 3);
    }

    #[test]
    fn table3_shale_partitionings_match_paper() {
        // Table III, Shale on 4 nodes: double → 1×(4×6),
        // single → 2×(2×6), mixed → 4×(1×6).
        let m = MachineSpec::summit(4);
        let d = Partitioning::optimal_for(1501, 1792, 2048, &m, Precision::Double);
        let s = Partitioning::optimal_for(1501, 1792, 2048, &m, Precision::Single);
        let x = Partitioning::optimal_for(1501, 1792, 2048, &m, Precision::Mixed);
        assert_eq!((d.batch, d.data), (1, 24), "double {d:?}");
        assert_eq!((s.batch, s.data), (2, 12), "single {s:?}");
        assert_eq!((x.batch, x.data), (4, 6), "mixed {x:?}");
    }

    #[test]
    fn table3_charcoal_partitionings_match_paper() {
        // Table III, Charcoal on 128 nodes: double → 1×(128×6),
        // single → 2×(64×6), mixed → 4×(32×6).
        let m = MachineSpec::summit(128);
        let d = Partitioning::optimal_for(4500, 4198, 6613, &m, Precision::Double);
        let s = Partitioning::optimal_for(4500, 4198, 6613, &m, Precision::Single);
        let x = Partitioning::optimal_for(4500, 4198, 6613, &m, Precision::Mixed);
        assert_eq!((d.batch, d.data), (1, 768), "double {d:?}");
        assert_eq!((s.batch, s.data), (2, 384), "single {s:?}");
        assert_eq!((x.batch, x.data), (4, 192), "mixed {x:?}");
    }

    #[test]
    fn table1_complexity_shapes() {
        let m = 128;
        let n = 2048;
        let base = TableIComplexity::evaluate(m, n, Partitioning { batch: 1, data: 1 });
        let dp4 = TableIComplexity::evaluate(m, n, Partitioning { batch: 1, data: 4 });
        let bp4 = TableIComplexity::evaluate(m, n, Partitioning { batch: 4, data: 1 });

        // Data parallelism: compute divides by Pd, comm grows √Pd total.
        assert!((dp4.compute_per_process / base.compute_per_process - 0.25).abs() < 0.01);
        assert!((dp4.comm_total / base.comm_total - 2.0).abs() < 0.01);
        // Batch parallelism: compute divides by Pb, total comm unchanged.
        assert!((bp4.compute_per_process / base.compute_per_process - 0.25).abs() < 0.01);
        assert!((bp4.comm_total - base.comm_total).abs() < 1.0);
        // Quadrupling Pd halves the per-process communication
        // ("the cross-section of each subdomain on the detector halves
        // only when Pd is quadrupled").
        let dp16 = TableIComplexity::evaluate(m, n, Partitioning { batch: 1, data: 16 });
        assert!((dp16.comm_per_process / dp4.comm_per_process - 0.5).abs() < 0.01);
    }

    #[test]
    fn slice_bytes_shrink_with_precision() {
        let d = Partitioning::matrix_bytes(1501, 2048, Precision::Double);
        let s = Partitioning::matrix_bytes(1501, 2048, Precision::Single);
        let x = Partitioning::matrix_bytes(1501, 2048, Precision::Mixed);
        assert!((d as f64 / s as f64 - 2.0).abs() < 0.05);
        assert!((s as f64 / x as f64 - 2.0).abs() < 0.05);
    }
}
