//! The memoized sparse system matrix `A` (paper §II-B).
//!
//! MemXCT's key observation is that `A` is fixed by geometry alone, so it
//! is traced *once* and reused every iteration ("memoization"), instead of
//! recomputing Siddon rays inside each (back)projection. In 3D the same
//! per-slice matrix is additionally shared by every slice in a batch
//! (paper §III-A4: "it is sufficient to store a single sparse matrix with
//! O(N²) nonzeroes and reuse it for all M slices").

use crate::grid::ScanGeometry;
use crate::siddon::{trace_ray, RayHit};

/// Per-slice system matrix in ray-major (row-major) form.
///
/// Row `a·N + c` holds the voxels crossed by the ray of angle index `a`
/// and detector channel `c`. This is the *reference* operator; the
/// optimized packed/staged kernels live in `xct-spmm` and are tested
/// against [`project`](Self::project) / [`backproject`](Self::backproject).
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    rows: Vec<Vec<RayHit>>,
    num_voxels: usize,
    nnz: usize,
}

impl SystemMatrix {
    /// Traces every ray of `scan` and memoizes the result.
    pub fn build(scan: &ScanGeometry) -> Self {
        let mut rows = Vec::with_capacity(scan.num_rays());
        let mut nnz = 0usize;
        for &theta in &scan.angles {
            for c in 0..scan.detector.channels {
                let hits = trace_ray(&scan.grid, theta, scan.detector.offset(c));
                nnz += hits.len();
                rows.push(hits);
            }
        }
        SystemMatrix {
            rows,
            num_voxels: scan.grid.voxels(),
            nnz,
        }
    }

    /// Number of rays (matrix rows).
    pub fn num_rays(&self) -> usize {
        self.rows.len()
    }

    /// Number of voxels (matrix columns).
    pub fn num_voxels(&self) -> usize {
        self.num_voxels
    }

    /// Number of stored nonzeroes.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The hits of one ray.
    pub fn row(&self, ray: usize) -> &[RayHit] {
        &self.rows[ray]
    }

    /// Iterates `(ray, voxel, length)` triplets in row-major order; the
    /// packed formats in `xct-spmm` are built from this.
    pub fn triplets(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, hits)| hits.iter().map(move |h| (r as u32, h.voxel, h.length)))
    }

    /// Forward projection `y = A·x` (reference implementation).
    ///
    /// # Panics
    /// Panics when slice lengths do not match the operator shape.
    pub fn project(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.num_voxels, "tomogram length mismatch");
        assert_eq!(y.len(), self.rows.len(), "sinogram length mismatch");
        for (yi, hits) in y.iter_mut().zip(&self.rows) {
            let mut acc = 0.0f64;
            for h in hits {
                acc += f64::from(x[h.voxel as usize]) * f64::from(h.length);
            }
            *yi = acc as f32;
        }
    }

    /// Back projection `x = Aᵀ·y` (reference implementation).
    ///
    /// # Panics
    /// Panics when slice lengths do not match the operator shape.
    pub fn backproject(&self, y: &[f32], x: &mut [f32]) {
        assert_eq!(y.len(), self.rows.len(), "sinogram length mismatch");
        assert_eq!(x.len(), self.num_voxels, "tomogram length mismatch");
        x.fill(0.0);
        for (yi, hits) in y.iter().zip(&self.rows) {
            for h in hits {
                x[h.voxel as usize] += *yi * h.length;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ImageGrid, ScanGeometry};

    fn small_scan() -> ScanGeometry {
        ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12)
    }

    #[test]
    fn build_shapes() {
        let scan = small_scan();
        let a = SystemMatrix::build(&scan);
        assert_eq!(a.num_rays(), 12 * 16);
        assert_eq!(a.num_voxels(), 256);
        assert!(a.nnz() > 0);
        assert_eq!(a.nnz(), a.triplets().count());
    }

    #[test]
    fn project_constant_image_gives_chord_lengths() {
        let scan = small_scan();
        let a = SystemMatrix::build(&scan);
        let x = vec![1.0f32; a.num_voxels()];
        let mut y = vec![0.0f32; a.num_rays()];
        a.project(&x, &mut y);
        // Each measurement equals the ray's total chord length.
        for (ray, &val) in y.iter().enumerate() {
            let chord: f32 = a.row(ray).iter().map(|h| h.length).sum();
            assert!((val - chord).abs() < 1e-4);
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        // <A x, y> == <x, Aᵀ y> for random-ish vectors.
        let scan = small_scan();
        let a = SystemMatrix::build(&scan);
        let x: Vec<f32> = (0..a.num_voxels())
            .map(|i| ((i * 37 + 11) % 101) as f32 / 101.0 - 0.5)
            .collect();
        let y: Vec<f32> = (0..a.num_rays())
            .map(|i| ((i * 53 + 7) % 89) as f32 / 89.0 - 0.5)
            .collect();
        let mut ax = vec![0.0f32; a.num_rays()];
        a.project(&x, &mut ax);
        let mut aty = vec![0.0f32; a.num_voxels()];
        a.backproject(&y, &mut aty);
        let lhs: f64 = ax
            .iter()
            .zip(&y)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let rhs: f64 = x
            .iter()
            .zip(&aty)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        assert!(
            (lhs - rhs).abs() <= 1e-5 * lhs.abs().max(rhs.abs()).max(1.0),
            "lhs {lhs} rhs {rhs}"
        );
    }

    #[test]
    fn single_voxel_impulse_projects_to_its_rays_only() {
        let scan = small_scan();
        let a = SystemMatrix::build(&scan);
        let mut x = vec![0.0f32; a.num_voxels()];
        let voxel = 8 * 16 + 8; // near center
        x[voxel] = 1.0;
        let mut y = vec![0.0f32; a.num_rays()];
        a.project(&x, &mut y);
        for (ray, &val) in y.iter().enumerate() {
            let expected: f32 = a
                .row(ray)
                .iter()
                .filter(|h| h.voxel as usize == voxel)
                .map(|h| h.length)
                .sum();
            assert!((val - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn nnz_scales_linearly_with_resolution() {
        // Each ray crosses O(N) voxels: nnz ~ K·N·N.
        let a8 = SystemMatrix::build(&ScanGeometry::uniform(ImageGrid::square(8, 1.0), 4));
        let a16 = SystemMatrix::build(&ScanGeometry::uniform(ImageGrid::square(16, 0.5), 4));
        let ratio = a16.nnz() as f64 / a8.nnz() as f64;
        assert!((3.0..5.0).contains(&ratio), "nnz ratio {ratio} not ~4");
    }

    #[test]
    #[should_panic(expected = "tomogram length mismatch")]
    fn project_checks_shapes() {
        let a = SystemMatrix::build(&small_scan());
        let mut y = vec![0.0f32; a.num_rays()];
        a.project(&[0.0; 3], &mut y);
    }
}
