//! Discretized experiment description (paper Fig 2).

/// A square-pixel 2D voxel grid for one tomogram slice, centered at the
/// rotation axis.
///
/// The physical extent is `[-nx·h/2, nx·h/2] × [-nz·h/2, nz·h/2]` where
/// `h` is [`voxel_size`](Self::voxel_size). The 3D volume of the paper is
/// a stack of these grids along `y` (one per detector row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageGrid {
    /// Voxels along x.
    pub nx: usize,
    /// Voxels along z.
    pub nz: usize,
    /// Physical voxel side length.
    ///
    /// The adaptive-normalization trick of §III-C1 ("artificially
    /// increasing the voxel size") is applied by scaling this value, which
    /// scales every intersection length out of the half-precision
    /// subnormal range.
    pub voxel_size: f64,
}

impl ImageGrid {
    /// Creates a grid; dimensions and voxel size must be positive.
    pub fn new(nx: usize, nz: usize, voxel_size: f64) -> Self {
        assert!(nx > 0 && nz > 0, "empty grid {nx}x{nz}");
        assert!(
            voxel_size.is_finite() && voxel_size > 0.0,
            "invalid voxel size {voxel_size}"
        );
        ImageGrid { nx, nz, voxel_size }
    }

    /// Square grid of side `n`.
    pub fn square(n: usize, voxel_size: f64) -> Self {
        Self::new(n, n, voxel_size)
    }

    /// Total voxel count of one slice.
    pub fn voxels(&self) -> usize {
        self.nx * self.nz
    }

    /// Minimum physical x coordinate.
    pub fn x_min(&self) -> f64 {
        -(self.nx as f64) * self.voxel_size / 2.0
    }

    /// Minimum physical z coordinate.
    pub fn z_min(&self) -> f64 {
        -(self.nz as f64) * self.voxel_size / 2.0
    }

    /// Linear voxel index, x-major within rows of z.
    pub fn idx(&self, ix: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iz < self.nz);
        iz * self.nx + ix
    }

    /// Physical width along x.
    pub fn width(&self) -> f64 {
        self.nx as f64 * self.voxel_size
    }

    /// Physical height along z.
    pub fn height(&self) -> f64 {
        self.nz as f64 * self.voxel_size
    }
}

/// A 1D line detector of equally spaced channels, centered on the rotation
/// axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    /// Number of channels (the paper's `N`, horizontal channels).
    pub channels: usize,
    /// Physical distance between channel centers.
    pub spacing: f64,
}

impl Detector {
    /// Creates a detector; channel count and spacing must be positive.
    pub fn new(channels: usize, spacing: f64) -> Self {
        assert!(channels > 0, "detector needs at least one channel");
        assert!(
            spacing.is_finite() && spacing > 0.0,
            "invalid channel spacing {spacing}"
        );
        Detector { channels, spacing }
    }

    /// Signed offset of channel `c` from the detector center.
    pub fn offset(&self, c: usize) -> f64 {
        debug_assert!(c < self.channels);
        (c as f64 - (self.channels as f64 - 1.0) / 2.0) * self.spacing
    }
}

/// Full scan description for one slice: grid, detector, rotation angles.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanGeometry {
    /// The reconstruction grid.
    pub grid: ImageGrid,
    /// The detector.
    pub detector: Detector,
    /// Projection angles in radians (the paper's `K` rotational views).
    pub angles: Vec<f64>,
}

impl ScanGeometry {
    /// Creates a scan; at least one angle is required.
    pub fn new(grid: ImageGrid, detector: Detector, angles: Vec<f64>) -> Self {
        assert!(!angles.is_empty(), "scan needs at least one angle");
        ScanGeometry {
            grid,
            detector,
            angles,
        }
    }

    /// Standard scan: `num_angles` uniform angles over `[0, π)`, detector
    /// matched to the grid (one channel per voxel column, same spacing).
    pub fn uniform(grid: ImageGrid, num_angles: usize) -> Self {
        let detector = Detector::new(grid.nx.max(grid.nz), grid.voxel_size);
        let angles = (0..num_angles)
            .map(|k| k as f64 * std::f64::consts::PI / num_angles as f64)
            .collect();
        Self::new(grid, detector, angles)
    }

    /// Rays per slice: `K · N` (rows of the per-slice system matrix).
    pub fn num_rays(&self) -> usize {
        self.angles.len() * self.detector.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_extents_are_centered() {
        let g = ImageGrid::square(100, 0.5);
        assert_eq!(g.x_min(), -25.0);
        assert_eq!(g.z_min(), -25.0);
        assert_eq!(g.width(), 50.0);
        assert_eq!(g.voxels(), 10_000);
    }

    #[test]
    fn grid_indexing_is_x_major() {
        let g = ImageGrid::new(4, 3, 1.0);
        assert_eq!(g.idx(0, 0), 0);
        assert_eq!(g.idx(3, 0), 3);
        assert_eq!(g.idx(0, 1), 4);
        assert_eq!(g.idx(3, 2), 11);
    }

    #[test]
    fn detector_offsets_are_symmetric() {
        let d = Detector::new(4, 1.0);
        assert_eq!(d.offset(0), -1.5);
        assert_eq!(d.offset(1), -0.5);
        assert_eq!(d.offset(2), 0.5);
        assert_eq!(d.offset(3), 1.5);
        let odd = Detector::new(5, 2.0);
        assert_eq!(odd.offset(2), 0.0);
    }

    #[test]
    fn uniform_scan_covers_half_turn() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 8);
        assert_eq!(scan.angles.len(), 8);
        assert_eq!(scan.angles[0], 0.0);
        assert!(scan.angles[7] < std::f64::consts::PI);
        assert_eq!(scan.num_rays(), 8 * 16);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_rejected() {
        ImageGrid::new(0, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid voxel size")]
    fn nonpositive_voxel_rejected() {
        ImageGrid::new(4, 4, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one angle")]
    fn empty_angles_rejected() {
        ScanGeometry::new(ImageGrid::square(4, 1.0), Detector::new(4, 1.0), vec![]);
    }
}
