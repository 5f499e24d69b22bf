//! The memoized sparse system matrix `A` (paper §II-B).
//!
//! MemXCT's key observation is that `A` is fixed by geometry alone, so it
//! is traced *once* and reused every iteration ("memoization"), instead of
//! recomputing Siddon rays inside each (back)projection. In 3D the same
//! per-slice matrix is additionally shared by every slice in a batch
//! (paper §III-A4: "it is sufficient to store a single sparse matrix with
//! O(N²) nonzeroes and reuse it for all M slices").

use crate::grid::ScanGeometry;
use crate::siddon::{RayHit, Tracer};
use xct_exec::Executor;

/// Fewest rays one part of [`SystemMatrix::build_on`] traces a round —
/// about a millisecond of Siddon, which a spawn's tens of microseconds
/// cannot eat.
const MIN_RAYS_PER_PART: usize = 512;

/// Per-slice system matrix in ray-major (row-major) form.
///
/// Row `a·N + c` holds the voxels crossed by the ray of angle index `a`
/// and detector channel `c`, in order along the ray. The rows are stored
/// flat per view — the hits of one angle's rays in one exactly sized
/// array, ray after ray, with one running end per ray — so the matrix is
/// an allocation per view, not per ray. This is the *reference*
/// operator; the optimized packed/staged kernels live in `xct-spmm` and
/// are tested against [`project`](Self::project) /
/// [`backproject`](Self::backproject).
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    /// View `a` holds the hits of rays `a·channels ..`, ray by ray.
    views: Vec<Vec<RayHit>>,
    channels: usize,
    /// Per ray, where its hits end in its view's array.
    ends: Vec<usize>,
    num_voxels: usize,
    nnz: usize,
}

impl SystemMatrix {
    /// [`build_on`](Self::build_on) the machine's width
    /// ([`Executor::parallel`]).
    pub fn build(scan: &ScanGeometry) -> Self {
        // xct-allow(machine-width): a convenience for callers with no executor of their own; xctbench times this signature
        Self::build_on(scan, &Executor::parallel())
    }

    /// Traces every ray of `scan` and memoizes the result, by angle on
    /// `executor`'s workers, in rounds: each round cuts the next run of
    /// angles into one contiguous run per part of
    /// [`Executor::for_each_part`], each part traces its views into
    /// scratch arrays — one per view, reused round after round, with one
    /// tracer's crossing lists reused from ray to ray — and the calling
    /// thread then copies every view into an array of its exact size.
    /// Every buffer is allocated on the calling thread — a view's scratch
    /// at the most hits its rays can have, so a worker never grows one —
    /// and views are stored in angle order, so the matrix is the
    /// sequential trace's whatever the worker count. A part traces at
    /// least 512 rays a round, so small scans stay on the calling thread.
    ///
    /// Copying views out costs a memcpy of the matrix; tracing straight
    /// into bounded per-view arrays and shrinking them left the
    /// allocator's heap fragmented, and one scratch array per part was
    /// large enough to be mapped fresh on every build: both raised peak
    /// RSS (EXPERIMENTS.md, "Set-up on every core").
    pub fn build_on(scan: &ScanGeometry, executor: &Executor) -> Self {
        Self::build_in_parts(scan, executor, MIN_RAYS_PER_PART)
    }

    /// [`build_on`](Self::build_on) with parts of at least
    /// `min_rays` rays a round (rounded up to whole angles).
    pub(crate) fn build_in_parts(
        scan: &ScanGeometry,
        executor: &Executor,
        min_rays: usize,
    ) -> Self {
        let channels = scan.detector.channels;
        let per_part = min_rays.div_ceil(channels.max(1)).max(1);
        let parts = executor.partitions(scan.angles.len() / per_part);
        // One scratch array per view a round traces, each at the most
        // hits a view can have: a view's worth is small enough to come
        // from memory the allocator already holds.
        let capacity = channels * Tracer::max_hits(&scan.grid);
        let round = parts * per_part;
        let mut scratch: Vec<Vec<RayHit>> = (0..round.min(scan.angles.len()))
            .map(|_| Vec::with_capacity(capacity))
            .collect();
        let mut tracers: Vec<Tracer> = (0..parts).map(|_| Tracer::new(&scan.grid)).collect();
        let mut ends = vec![0usize; scan.num_rays()];
        let mut views = Vec::with_capacity(scan.angles.len());
        for (angles, ends) in scan
            .angles
            .chunks(round)
            .zip(ends.chunks_mut(round * channels))
        {
            let work = angles
                .chunks(per_part)
                .zip(ends.chunks_mut(per_part * channels))
                .zip(scratch.chunks_mut(per_part))
                .zip(&mut tracers);
            executor.for_each_part(work, |(((angles, ends), scratch), tracer)| {
                let views = angles.iter().zip(ends.chunks_mut(channels)).zip(scratch);
                for ((&theta, ends), view) in views {
                    // Pushed through a copy of the header on this thread's
                    // stack: neighbouring headers share a cache line, which
                    // every push would otherwise bounce between the cores.
                    let mut hits = std::mem::take(view);
                    hits.clear();
                    for (c, end) in ends.iter_mut().enumerate() {
                        tracer.trace(theta, scan.detector.offset(c), &mut hits);
                        *end = hits.len();
                    }
                    *view = hits;
                }
            });
            views.extend(scratch[..angles.len()].iter().map(|hits| hits.to_vec()));
        }
        SystemMatrix {
            nnz: views.iter().map(Vec::len).sum(),
            views,
            channels,
            ends,
            num_voxels: scan.grid.voxels(),
        }
    }

    /// Number of rays (matrix rows).
    pub fn num_rays(&self) -> usize {
        self.ends.len()
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
        let (view, channel) = (ray / self.channels, ray % self.channels);
        let start = if channel == 0 { 0 } else { self.ends[ray - 1] };
        &self.views[view][start..self.ends[ray]]
    }

    /// Every row in ray order.
    fn rows(&self) -> impl Iterator<Item = &[RayHit]> {
        let views = self.views.iter().zip(self.ends.chunks(self.channels));
        views.flat_map(|(hits, ends)| {
            let mut start = 0;
            ends.iter().map(move |&end| {
                let row = &hits[start..end];
                start = end;
                row
            })
        })
    }

    /// Iterates `(ray, voxel, length)` triplets in row-major order; the
    /// packed formats in `xct-spmm` are built from this.
    pub fn triplets(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.rows()
            .enumerate()
            .flat_map(|(r, hits)| hits.iter().map(move |h| (r as u32, h.voxel, h.length)))
    }

    /// Forward projection `y = A·x` (reference implementation).
    ///
    /// # Panics
    /// Panics when slice lengths do not match the operator shape.
    pub fn project(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.num_voxels, "tomogram length mismatch");
        assert_eq!(y.len(), self.num_rays(), "sinogram length mismatch");
        for (yi, hits) in y.iter_mut().zip(self.rows()) {
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
        assert_eq!(y.len(), self.num_rays(), "sinogram length mismatch");
        assert_eq!(x.len(), self.num_voxels, "tomogram length mismatch");
        x.fill(0.0);
        for (yi, hits) in y.iter().zip(self.rows()) {
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
    use crate::siddon::trace_ray;

    /// The fanned-out build is the sequential `trace_ray` loop, row for
    /// row and bit for bit, however the angles are cut: 1, 3, 7 and 128
    /// angles (128 is no multiple of three) on one to three parts.
    #[test]
    fn fanned_out_build_is_the_sequential_trace() {
        for angles in [1, 3, 7, 128] {
            let scan = ScanGeometry::uniform(ImageGrid::new(12, 9, 0.75), angles);
            let bits = |hits: &[RayHit]| -> Vec<(u32, u32)> {
                hits.iter().map(|h| (h.voxel, h.length.to_bits())).collect()
            };
            let mut sequential = Vec::new();
            for &theta in &scan.angles {
                for c in 0..scan.detector.channels {
                    sequential.push(bits(&trace_ray(&scan.grid, theta, scan.detector.offset(c))));
                }
            }
            for parts in 1..=3 {
                let a = SystemMatrix::build_in_parts(&scan, &Executor::threads(parts), 1);
                assert_eq!(a.num_rays(), sequential.len());
                assert_eq!(a.nnz(), sequential.iter().map(Vec::len).sum::<usize>());
                for (ray, want) in sequential.iter().enumerate() {
                    assert_eq!(
                        &bits(a.row(ray)),
                        want,
                        "{angles} angles, {parts} parts, ray {ray}"
                    );
                }
            }
        }
    }

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
