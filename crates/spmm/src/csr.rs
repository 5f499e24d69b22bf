//! Compressed sparse row baseline — the unfused, unstaged comparator
//! standing in for `cusparseSpMM` (paper §IV-C2).

use crate::compute::ComputeScalar;
use crate::metrics::KernelMetrics;
use crate::order::Order;
use xct_fp16::StorageScalar;
use xct_geometry::SystemMatrix;

/// A CSR sparse matrix with values in storage scalar `S`.
#[derive(Debug, Clone)]
pub struct Csr<S> {
    num_rows: usize,
    num_cols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
    values: Vec<S>,
}

impl<S: StorageScalar> Csr<S> {
    /// Builds from `(row, col, value)` triplets; triplets may arrive in any
    /// order, duplicates are summed.
    pub fn from_triplets(
        num_rows: usize,
        num_cols: usize,
        triplets: impl Iterator<Item = (u32, u32, f32)>,
    ) -> Self {
        let mut per_row: Vec<Vec<(u32, f32)>> = vec![Vec::new(); num_rows];
        for (r, c, v) in triplets {
            assert!((r as usize) < num_rows, "row {r} out of range");
            assert!((c as usize) < num_cols, "col {c} out of range");
            per_row[r as usize].push((c, v));
        }
        let mut csr = Csr::with_capacity(num_rows, num_cols, 0);
        for row in &mut per_row {
            csr.push_row(row);
        }
        csr
    }

    /// Builds the per-slice projection operator from a memoized
    /// [`SystemMatrix`]: one pass over its rays straight into
    /// `rowptr/colidx/values`, sized up front from its nonzero count,
    /// each ray through the sort-and-sum of
    /// [`from_triplets`](Self::from_triplets) (whose result this equals)
    /// in one reused scratch row.
    pub fn from_system_matrix(a: &SystemMatrix) -> Self {
        let mut csr = Csr::with_capacity(a.num_rays(), a.num_voxels(), a.nnz());
        let mut row: Vec<(u32, f32)> = Vec::new();
        for r in 0..a.num_rays() {
            row.clear();
            row.extend(a.row(r).iter().map(|h| (h.voxel, h.length)));
            assert!(
                row.iter().all(|&(c, _)| (c as usize) < csr.num_cols),
                "ray {r} crosses a voxel out of range"
            );
            csr.push_row(&mut row);
        }
        csr
    }

    /// An empty matrix with room for `nnz` entries, filled by
    /// [`push_row`](Self::push_row) one row after the other.
    pub fn with_capacity(num_rows: usize, num_cols: usize, nnz: usize) -> Self {
        let mut rowptr = Vec::with_capacity(num_rows + 1);
        rowptr.push(0);
        Csr {
            num_rows,
            num_cols,
            rowptr,
            colidx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends the next row from `(column < num_cols, value)` entries in
    /// any order: sorted by column, duplicates summed in `f32`, then
    /// rounded to `S` — the row [`from_triplets`](Self::from_triplets) builds.
    pub fn push_row(&mut self, row: &mut [(u32, f32)]) {
        assert!(self.rowptr.len() <= self.num_rows, "every row is in");
        row.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < row.len() {
            let c = row[i].0;
            let mut v = 0.0f32;
            while i < row.len() && row[i].0 == c {
                v += row[i].1;
                i += 1;
            }
            self.colidx.push(c);
            self.values.push(S::from_f32(v));
        }
        self.rowptr.push(self.colidx.len());
    }

    /// The same sparsity pattern with every value mapped through `f`,
    /// indices copied. The precision modes re-type without the copy
    /// ([`PackedMatrix::pack_pair`](crate::PackedMatrix::pack_pair)); the
    /// tests re-type through this.
    pub fn map_values<T: StorageScalar>(&self, f: impl Fn(S) -> T) -> Csr<T> {
        Csr {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// All stored values, row by row.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Stored nonzeroes.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Column indices and values of one row.
    pub fn row(&self, r: usize) -> (&[u32], &[S]) {
        let range = self.span(r);
        (&self.colidx[range.clone()], &self.values[range])
    }

    /// Iterates all `(row, col, value-as-f32)` triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.num_rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r as u32, c, v.to_f32()))
        })
    }

    /// The transpose (used for backprojection: `Aᵀ` is itself a CSR
    /// operator over sinogram inputs).
    pub fn transpose(&self) -> Csr<S> {
        self.transpose_with(&self.values)
    }

    /// The transpose of this pattern carrying `values` (one per stored
    /// entry, row by row) in place of the matrix's own: transposing only
    /// moves values, so a re-typed matrix is transposed without a
    /// re-typed copy of its indices.
    pub(crate) fn transpose_with<T: StorageScalar>(&self, values: &[T]) -> Csr<T> {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        let mut counts = vec![0usize; self.num_cols];
        for &c in &self.colidx {
            counts[c as usize] += 1;
        }
        let mut rowptr = Vec::with_capacity(self.num_cols + 1);
        rowptr.push(0usize);
        for c in 0..self.num_cols {
            rowptr.push(rowptr[c] + counts[c]);
        }
        let mut colidx = vec![0u32; self.nnz()];
        let mut moved = vec![T::zero(); self.nnz()];
        // `counts` becomes each transposed row's fill cursor.
        counts.copy_from_slice(&rowptr[..self.num_cols]);
        for r in 0..self.num_rows {
            let span = self.span(r);
            for (&c, &v) in self.colidx[span.clone()].iter().zip(&values[span]) {
                let at = &mut counts[c as usize];
                colidx[*at] = r as u32;
                moved[*at] = v;
                *at += 1;
            }
        }
        Csr {
            num_rows: self.num_cols,
            num_cols: self.num_rows,
            rowptr,
            colidx,
            values: moved,
        }
    }

    /// Where row `r`'s entries sit in the column and value arrays.
    pub(crate) fn span(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r]..self.rowptr[r + 1]
    }

    /// Column indices of every stored entry, row by row.
    pub(crate) fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Where each row starts in the column and value arrays, and where
    /// the last one ends.
    pub(crate) fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Renumbers the matrix by an order pair: row `r` of the result is
    /// old row `rows.indices()[r]`, and old column `c` becomes
    /// `cols.rank()[c]`.
    ///
    /// This imposes an ordering on the *vectors* — the result multiplies
    /// a permuted `x` into a permuted `y`.
    /// [`PackedMatrix::pack_ordered`](crate::PackedMatrix::pack_ordered)
    /// gets the same locality without renumbering anything; `permute` is
    /// the independent route its tests compare against.
    ///
    /// # Panics
    /// Panics when an order's length is not the matrix's.
    pub fn permute(&self, rows: &Order, cols: &Order) -> Csr<S> {
        assert_eq!(rows.len(), self.num_rows, "row order length");
        assert_eq!(cols.len(), self.num_cols, "column order length");
        let col_rank = cols.rank();
        let mut rowptr = Vec::with_capacity(self.num_rows + 1);
        let mut colidx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        rowptr.push(0);
        for &old_r in rows.indices() {
            let (cols, vals) = self.row(old_r as usize);
            let mut entries: Vec<(u32, S)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (col_rank[c as usize], v))
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                colidx.push(c);
                values.push(v);
            }
            rowptr.push(colidx.len());
        }
        Csr {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Unfused sparse matrix–vector product `y = A·x` with compute type
    /// `C` (the baseline of Fig 9a at fusing factor 1).
    pub fn spmv<C: ComputeScalar>(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.num_cols, "input length mismatch");
        assert_eq!(y.len(), self.num_rows, "output length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = C::default();
            for (&c, &v) in cols.iter().zip(vals) {
                acc = acc.fma(C::load(x[c as usize]), C::load(v));
            }
            *yr = acc.store();
        }
    }

    /// Fused multi-vector product `Y = A·X` over `fusing` slices in
    /// slice-major layout (`x[f·num_cols + c]`, `y[f·num_rows + r]`), the
    /// layout of the paper's Listing 1. Unlike the optimized kernel the
    /// baseline re-reads the matrix for every slice — this is exactly the
    /// cuSPARSE-shaped comparator.
    pub fn spmm<C: ComputeScalar>(&self, x: &[S], y: &mut [S], fusing: usize) {
        assert!(fusing > 0, "fusing factor must be nonzero");
        assert_eq!(x.len(), self.num_cols * fusing, "input length mismatch");
        assert_eq!(y.len(), self.num_rows * fusing, "output length mismatch");
        for f in 0..fusing {
            let xs = &x[f * self.num_cols..(f + 1) * self.num_cols];
            let ys = &mut y[f * self.num_rows..(f + 1) * self.num_rows];
            self.spmv::<C>(xs, ys);
        }
    }

    /// Fraction of per-nonzero input gathers that miss the cache in the
    /// cuSPARSE-shaped baseline model. Without shared-memory staging,
    /// irregular x-gathers rely on L2, whose 6 MB is far smaller than
    /// the slice footprint; 45% misses calibrates the
    /// optimized-vs-baseline ratio to the paper's measured 1.53×–2.38×
    /// (§IV-C2).
    pub const BASELINE_GATHER_MISS_RATE: f64 = 0.45;

    /// The data-movement/flop account of one cuSPARSE-shaped
    /// [`spmm`](Self::spmm) call (the §IV-C2 comparator): the matrix
    /// streams once per call as unpacked `(u32 index, value)` elements,
    /// and input gathers hit L2 at `1 −` [`Self::BASELINE_GATHER_MISS_RATE`].
    pub fn spmm_metrics(&self, fusing: usize) -> KernelMetrics {
        let unpacked_elem = (4 + S::BYTES) as u64;
        let gather_miss =
            (self.nnz() as f64 * fusing as f64 * S::BYTES as f64 * Self::BASELINE_GATHER_MISS_RATE)
                as u64;
        KernelMetrics {
            flops: 2 * self.nnz() as u64 * fusing as u64,
            // CSR issues no padding FMAs: effective == issued.
            padded_flops: 2 * self.nnz() as u64 * fusing as u64,
            bytes_read: self.nnz() as u64 * unpacked_elem                  // matrix
                + gather_miss                                              // x misses
                + (self.num_cols * fusing * S::BYTES) as u64               // x compulsory
                + (self.num_rows as u64 + 1) * 8, // rowptr
            bytes_written: (self.num_rows * fusing * S::BYTES) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::F16;
    use xct_geometry::{ImageGrid, ScanGeometry};

    fn toy() -> Csr<f32> {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        Csr::from_triplets(
            2,
            3,
            vec![(0u32, 0u32, 1.0f32), (0, 2, 2.0), (1, 1, 3.0)].into_iter(),
        )
    }

    #[test]
    fn spmv_matches_dense() {
        let a = toy();
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [0.0f32; 2];
        a.spmv::<f32>(&x, &mut y);
        assert_eq!(y, [7.0, 6.0]);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let a =
            Csr::<f32>::from_triplets(1, 2, vec![(0u32, 1u32, 1.5f32), (0, 1, 2.5)].into_iter());
        assert_eq!(a.nnz(), 1);
        let mut y = [0.0f32];
        a.spmv::<f32>(&[0.0, 1.0], &mut y);
        assert_eq!(y[0], 4.0);
    }

    #[test]
    fn transpose_is_involution_and_adjoint() {
        let a = toy();
        let at = a.transpose();
        assert_eq!(at.num_rows(), 3);
        assert_eq!(at.num_cols(), 2);
        let att = at.transpose();
        let t1: Vec<_> = a.triplets().collect();
        let t2: Vec<_> = att.triplets().collect();
        assert_eq!(t1, t2);
        // <Ax, y> == <x, Aᵀy>
        let x = [1.0f32, -2.0, 0.5];
        let y = [2.0f32, 3.0];
        let mut ax = [0.0f32; 2];
        a.spmv::<f32>(&x, &mut ax);
        let mut aty = [0.0f32; 3];
        at.spmv::<f32>(&y, &mut aty);
        let lhs: f32 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn spmm_slices_are_independent_spmvs() {
        let a = toy();
        let x = [1.0f32, 2.0, 3.0, /* slice 2 */ 0.0, 1.0, 0.0];
        let mut y = [0.0f32; 4];
        a.spmm::<f32>(&x, &mut y, 2);
        assert_eq!(&y[..2], &[7.0, 6.0]);
        assert_eq!(&y[2..], &[0.0, 3.0]);
    }

    #[test]
    fn csr_from_system_matrix_preserves_projection() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let a = Csr::<f32>::from_system_matrix(&sm);
        let x: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 5) as f32).collect();
        let mut y_ref = vec![0.0f32; sm.num_rays()];
        sm.project(&x, &mut y_ref);
        let mut y = vec![0.0f32; sm.num_rays()];
        a.spmv::<f32>(&x, &mut y);
        for (p, q) in y.iter().zip(&y_ref) {
            assert!((p - q).abs() <= 1e-4 * q.abs().max(1.0));
        }
    }

    /// The direct build against the route it replaced (`triplets` through
    /// `from_triplets`), field for field, on a scan with both kinds of
    /// ray: views up to 90° cross voxels in ascending index order, views
    /// past it do not.
    #[test]
    fn from_system_matrix_equals_the_triplet_route() {
        fn check<S: StorageScalar>(sm: &SystemMatrix) {
            let direct = Csr::<S>::from_system_matrix(sm);
            let via = Csr::<S>::from_triplets(sm.num_rays(), sm.num_voxels(), sm.triplets());
            assert_eq!(direct.rowptr, via.rowptr);
            assert_eq!(direct.colidx, via.colidx);
            let bits = |c: &Csr<S>| -> Vec<u64> {
                c.values.iter().map(|v| v.to_f64().to_bits()).collect()
            };
            assert_eq!(bits(&direct), bits(&via));
        }
        let scan = ScanGeometry::uniform(ImageGrid::square(24, 1.0), 18);
        let sm = SystemMatrix::build(&scan);
        let ascending = |r: usize| sm.row(r).windows(2).all(|w| w[0].voxel < w[1].voxel);
        let sorted_rows = (0..sm.num_rays()).filter(|&r| ascending(r)).count();
        assert!(0 < sorted_rows && sorted_rows < sm.num_rays());
        check::<f32>(&sm);
        check::<F16>(&sm);
    }

    #[test]
    fn map_values_keeps_the_pattern() {
        let a = toy();
        let b = a.map_values(|v| F16::from_f32(v * 0.5));
        assert_eq!((b.num_rows(), b.num_cols(), b.nnz()), (2, 3, 3));
        let got: Vec<_> = b.triplets().collect();
        assert_eq!(got, vec![(0, 0, 0.5), (0, 2, 1.0), (1, 1, 1.5)]);
    }

    #[test]
    fn half_storage_quantizes_values() {
        let a =
            Csr::<F16>::from_triplets(1, 1, vec![(0u32, 0u32, 0.3f32 + f32::EPSILON)].into_iter());
        let (_, vals) = a.row(0);
        assert_eq!(vals[0].to_f32(), F16::from_f32(0.3).to_f32());
    }

    #[test]
    fn permute_reorders_rows_and_relabels_cols() {
        let a = toy();
        // Swap rows; columns in the order 2, 0, 1: old column 2 becomes
        // 0, old 0 becomes 1, old 1 becomes 2.
        let p = a.permute(&Order::new(vec![1, 0]), &Order::new(vec![2, 0, 1]));
        let mut y = [0.0f32; 2];
        p.spmv::<f32>(&[10.0, 20.0, 30.0], &mut y);
        assert_eq!(y[0], 3.0 * 30.0); // old row 1: 3 at old col 1 -> new col 2
        assert_eq!(y[1], 1.0 * 20.0 + 2.0 * 10.0); // old row 0 relabeled
    }

    /// An order is a permutation by construction, so the one way left to
    /// hand `permute` a wrong one is a wrong length.
    #[test]
    #[should_panic(expected = "column order length")]
    fn permute_rejects_an_order_of_another_length() {
        toy().permute(&Order::identity(2), &Order::identity(2));
    }

    #[test]
    fn metrics_scale_with_fusing() {
        let a = toy();
        let m1 = a.spmm_metrics(1);
        let m4 = a.spmm_metrics(4);
        assert_eq!(m4.flops, 4 * m1.flops);
        // The baseline streams the matrix once per call, so fused bytes
        // grow sublinearly — but gathers still miss per nonzero, so the
        // intensity gain is far below the packed kernel's (whose gathers
        // are staged once per stage, not per nonzero).
        assert!(m4.bytes() < 4 * m1.bytes());
        assert!(m4.arithmetic_intensity() > m1.arithmetic_intensity());
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn triplet_bounds_checked() {
        Csr::<f32>::from_triplets(2, 2, vec![(5u32, 0u32, 1.0f32)].into_iter());
    }
}
