//! Siddon's algorithm \[Siddon 1985\]: exact radiological path through a
//! pixel grid.

use crate::grid::ImageGrid;

/// One voxel crossed by a ray, with the exact intersection length.
///
/// This is the logical content of the paper's packed matrix element
/// (`struct matrix { unsigned short ind; half len; }`, Listing 1 line 2);
/// packing into 4 bytes happens in `xct-spmm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayHit {
    /// Linear voxel index within the slice grid.
    pub voxel: u32,
    /// Intersection length in physical units.
    pub length: f32,
}

/// Geometric tolerance: crossings closer than this (in parameter space,
/// which is physical length for unit direction vectors) merge into one.
const EPS: f64 = 1e-12;

/// Traces the ray at rotation angle `theta` (radians) and signed detector
/// `offset` through `grid`, returning every crossed voxel with its exact
/// intersection length (Siddon's algorithm). Rays that miss the grid
/// return an empty vector.
///
/// The ray travels in direction `(cos θ, sin θ)` and passes through the
/// point `offset · (−sin θ, cos θ)` — the parallel-beam geometry of paper
/// Fig 2 where all rays of a view share one direction.
pub fn trace_ray(grid: &ImageGrid, theta: f64, offset: f64) -> Vec<RayHit> {
    let mut hits = Vec::new();
    Tracer::new(grid).trace(theta, offset, &mut hits);
    hits
}

/// Siddon's algorithm over one grid with its working storage: the
/// crossing parameters of each axis and their merge, sized once for the
/// longest possible ray, so tracing ray after ray allocates nothing.
pub(crate) struct Tracer<'g> {
    grid: &'g ImageGrid,
    xs: Vec<f64>,
    zs: Vec<f64>,
    breaks: Vec<f64>,
}

impl<'g> Tracer<'g> {
    /// Most hits one ray through `grid` can have: a ray crosses at most
    /// `nx − 1 + nz − 1` interior lines, which cut it into at most
    /// `nx + nz − 1` segments.
    pub(crate) fn max_hits(grid: &ImageGrid) -> usize {
        grid.nx + grid.nz - 1
    }

    pub(crate) fn new(grid: &'g ImageGrid) -> Self {
        Tracer {
            grid,
            xs: Vec::with_capacity(grid.nx),
            zs: Vec::with_capacity(grid.nz),
            breaks: Vec::with_capacity(grid.nx + grid.nz),
        }
    }

    /// Appends the hits of the ray at `theta` and `offset` (see
    /// [`trace_ray`]) to `hits`, in order along the ray.
    pub(crate) fn trace(&mut self, theta: f64, offset: f64, hits: &mut Vec<RayHit>) {
        let (dx, dz) = (theta.cos(), theta.sin());
        let (px, pz) = (-theta.sin() * offset, theta.cos() * offset);
        trace_ray_dir(self, (px, pz), (dx, dz), hits);
    }
}

/// Siddon trace for an arbitrary unit-direction ray through `(px, pz)`,
/// appended to `hits`.
fn trace_ray_dir(
    tracer: &mut Tracer,
    (px, pz): (f64, f64),
    (dx, dz): (f64, f64),
    hits: &mut Vec<RayHit>,
) {
    let grid = tracer.grid;
    let h = grid.voxel_size;
    let x0 = grid.x_min();
    let z0 = grid.z_min();
    let x1 = x0 + grid.width();
    let z1 = z0 + grid.height();

    // Slab intersection of the infinite ray with the grid bounding box.
    let mut s_min = f64::NEG_INFINITY;
    let mut s_max = f64::INFINITY;
    for (p, d, lo, hi) in [(px, dx, x0, x1), (pz, dz, z0, z1)] {
        if d.abs() < EPS {
            // Half-open convention: a ray exactly on the upper boundary is
            // outside (measure-zero case; avoids double-counting edges).
            if p < lo || p >= hi {
                return; // parallel to slab and outside it
            }
        } else {
            let (mut a, mut b) = ((lo - p) / d, (hi - p) / d);
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            s_min = s_min.max(a);
            s_max = s_max.min(b);
        }
    }
    if s_max - s_min <= EPS {
        return;
    }

    // Crossing parameters with vertical (x = const) grid lines, ascending.
    let xs = &mut tracer.xs;
    axis_crossings(px, dx, x0, h, grid.nx, s_min, s_max, xs);
    // Crossing parameters with horizontal (z = const) grid lines, ascending.
    let zs = &mut tracer.zs;
    axis_crossings(pz, dz, z0, h, grid.nz, s_min, s_max, zs);

    // Merge the two ascending crossing lists together with entry and exit.
    let breaks = &mut tracer.breaks;
    breaks.clear();
    breaks.push(s_min);
    let (mut i, mut j) = (0, 0);
    while i < xs.len() || j < zs.len() {
        let next = match (xs.get(i), zs.get(j)) {
            (Some(&a), Some(&b)) => {
                if a <= b {
                    i += 1;
                    a
                } else {
                    j += 1;
                    b
                }
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (None, Some(&b)) => {
                j += 1;
                b
            }
            // xct-allow(no-panic): unreachable — the merge loop only runs while one list has elements
            (None, None) => unreachable!(),
        };
        // xct-allow(no-panic): infallible — breaks is seeded with s_min before the merge
        if next - breaks.last().unwrap() > EPS {
            breaks.push(next);
        }
    }
    // xct-allow(no-panic): infallible — breaks is seeded with s_min before the merge
    if s_max - breaks.last().unwrap() > EPS {
        breaks.push(s_max);
    }

    // Each consecutive pair lies inside exactly one voxel; identify it by
    // the segment midpoint.
    for w in breaks.windows(2) {
        let (sa, sb) = (w[0], w[1]);
        let len = sb - sa;
        if len <= EPS {
            continue;
        }
        let mid = 0.5 * (sa + sb);
        let mx = px + mid * dx;
        let mz = pz + mid * dz;
        let ix = ((mx - x0) / h).floor();
        let iz = ((mz - z0) / h).floor();
        // Midpoints can land epsilon outside on the boundary; clamp.
        let ix = (ix.max(0.0) as usize).min(grid.nx - 1);
        let iz = (iz.max(0.0) as usize).min(grid.nz - 1);
        hits.push(RayHit {
            voxel: grid.idx(ix, iz) as u32,
            length: len as f32,
        });
    }
}

/// Replaces `out` with the ascending crossing parameters of the ray with
/// the interior grid lines of one axis, clipped to `(s_min, s_max)`.
#[allow(clippy::too_many_arguments)]
fn axis_crossings(
    p: f64,
    d: f64,
    origin: f64,
    h: f64,
    n: usize,
    s_min: f64,
    s_max: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    if d.abs() < EPS {
        return;
    }
    // Interior lines are at origin + i*h for i in 1..n.
    // Solve for the i-range whose crossing parameter lies in (s_min, s_max).
    let coord_at = |s: f64| p + s * d;
    let (c_enter, c_exit) = (coord_at(s_min), coord_at(s_max));
    let (c_lo, c_hi) = if c_enter <= c_exit {
        (c_enter, c_exit)
    } else {
        (c_exit, c_enter)
    };
    let i_lo = (((c_lo - origin) / h).ceil().max(1.0)) as usize;
    let i_hi = (((c_hi - origin) / h).floor().min((n - 1) as f64 + 0.0)) as usize;
    if i_lo > i_hi {
        return;
    }
    out.reserve(i_hi - i_lo + 1);
    if d > 0.0 {
        for i in i_lo..=i_hi {
            out.push((origin + i as f64 * h - p) / d);
        }
    } else {
        for i in (i_lo..=i_hi).rev() {
            out.push((origin + i as f64 * h - p) / d);
        }
    }
    // Clip strictly inside the traversal interval.
    out.retain(|&s| s > s_min + EPS && s < s_max - EPS);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_length(hits: &[RayHit]) -> f64 {
        hits.iter().map(|h| h.length as f64).sum()
    }

    #[test]
    fn horizontal_ray_through_center() {
        let g = ImageGrid::square(8, 1.0);
        let hits = trace_ray(&g, 0.0, 0.25); // offset inside central row
        assert_eq!(hits.len(), 8);
        assert!((total_length(&hits) - 8.0).abs() < 1e-9);
        for h in &hits {
            assert!((h.length - 1.0).abs() < 1e-6);
        }
        // All in the same grid row (z fixed), consecutive x.
        let row = hits[0].voxel / 8;
        assert!(hits.iter().all(|h| h.voxel / 8 == row));
    }

    #[test]
    fn vertical_ray_through_center() {
        let g = ImageGrid::square(8, 1.0);
        let hits = trace_ray(&g, std::f64::consts::FRAC_PI_2, 0.25);
        assert_eq!(hits.len(), 8);
        assert!((total_length(&hits) - 8.0).abs() < 1e-9);
        let col = hits[0].voxel % 8;
        assert!(hits.iter().all(|h| h.voxel % 8 == col));
    }

    #[test]
    fn diagonal_ray_crosses_full_diagonal() {
        let g = ImageGrid::square(16, 1.0);
        let theta = std::f64::consts::FRAC_PI_4;
        let hits = trace_ray(&g, theta, 0.0);
        // Exact diagonal: 16·√2 total length.
        assert!((total_length(&hits) - 16.0 * std::f64::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn ray_missing_grid_is_empty() {
        let g = ImageGrid::square(8, 1.0);
        assert!(trace_ray(&g, 0.0, 100.0).is_empty());
        assert!(trace_ray(&g, 1.0, -50.0).is_empty());
    }

    #[test]
    fn ray_grazing_boundary_is_empty_or_tiny() {
        let g = ImageGrid::square(8, 1.0);
        // Exactly on the top edge: zero measure.
        let hits = trace_ray(&g, 0.0, 4.0);
        assert!(total_length(&hits) < 1e-9, "grazing ray got {hits:?}");
    }

    #[test]
    fn each_voxel_hit_at_most_once() {
        let g = ImageGrid::square(32, 0.7);
        for k in 0..50 {
            let theta = k as f64 * 0.13;
            let offset = (k as f64 - 25.0) * 0.33;
            let hits = trace_ray(&g, theta, offset);
            let mut voxels: Vec<u32> = hits.iter().map(|h| h.voxel).collect();
            voxels.sort_unstable();
            let before = voxels.len();
            voxels.dedup();
            assert_eq!(voxels.len(), before, "theta {theta} offset {offset}");
        }
    }

    #[test]
    fn lengths_are_positive_and_bounded_by_diagonal_step() {
        let g = ImageGrid::square(24, 0.5);
        let max_step = 0.5 * std::f64::consts::SQRT_2 + 1e-9;
        for k in 0..60 {
            let theta = k as f64 * 0.1;
            for c in 0..24 {
                let offset = (c as f64 - 11.5) * 0.5;
                for hit in trace_ray(&g, theta, offset) {
                    assert!(hit.length > 0.0);
                    assert!(
                        (hit.length as f64) <= max_step,
                        "length {} exceeds voxel diagonal",
                        hit.length
                    );
                }
            }
        }
    }

    #[test]
    fn chord_length_matches_analytic_box_intersection() {
        // Total path length must equal the chord of the ray across the
        // bounding box.
        let g = ImageGrid::new(20, 12, 0.8);
        for k in 0..40 {
            let theta = k as f64 * 0.157;
            let offset = (k as f64 - 20.0) * 0.3;
            let hits = trace_ray(&g, theta, offset);
            let chord = analytic_chord(&g, theta, offset);
            assert!(
                (total_length(&hits) - chord).abs() < 1e-6,
                "theta {theta} offset {offset}: sum {} chord {chord}",
                total_length(&hits)
            );
        }
    }

    fn analytic_chord(g: &ImageGrid, theta: f64, offset: f64) -> f64 {
        let (dx, dz) = (theta.cos(), theta.sin());
        let (px, pz) = (-theta.sin() * offset, theta.cos() * offset);
        let (x0, z0) = (g.x_min(), g.z_min());
        let (x1, z1) = (x0 + g.width(), z0 + g.height());
        let mut smin = f64::NEG_INFINITY;
        let mut smax = f64::INFINITY;
        for (p, d, lo, hi) in [(px, dx, x0, x1), (pz, dz, z0, z1)] {
            if d.abs() < 1e-12 {
                if p < lo || p > hi {
                    return 0.0;
                }
            } else {
                let (mut a, mut b) = ((lo - p) / d, (hi - p) / d);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                smin = smin.max(a);
                smax = smax.min(b);
            }
        }
        (smax - smin).max(0.0)
    }

    #[test]
    fn opposite_angles_trace_same_voxels() {
        // θ and θ+π traverse the same line in opposite directions.
        let g = ImageGrid::square(16, 1.0);
        let theta = 0.37;
        let a = trace_ray(&g, theta, 0.9);
        // At θ+π the detector axis flips too, so the same physical line is
        // offset −0.9.
        let b = trace_ray(&g, theta + std::f64::consts::PI, -0.9);
        let mut va: Vec<_> = a
            .iter()
            .map(|h| (h.voxel, (h.length * 1e6).round() as i64))
            .collect();
        let mut vb: Vec<_> = b
            .iter()
            .map(|h| (h.voxel, (h.length * 1e6).round() as i64))
            .collect();
        va.sort_unstable();
        vb.sort_unstable();
        assert_eq!(va, vb);
    }

    #[test]
    fn nonsquare_grid_chord() {
        let g = ImageGrid::new(30, 10, 1.0);
        let hits = trace_ray(&g, 0.0, 0.0);
        assert!((total_length(&hits) - 30.0).abs() < 1e-9);
        let hits = trace_ray(&g, std::f64::consts::FRAC_PI_2, 0.0);
        assert!((total_length(&hits) - 10.0).abs() < 1e-9);
    }
}
