//! Slice images.

/// One tomogram slice: `nx × nz` voxels, x-major, f32 attenuation values.
#[derive(Debug, Clone, PartialEq)]
pub struct Image2D {
    /// Voxels along x.
    pub nx: usize,
    /// Voxels along z.
    pub nz: usize,
    /// Values, `data[z * nx + x]`.
    pub data: Vec<f32>,
}

impl Image2D {
    /// All-zero image.
    pub fn zeros(nx: usize, nz: usize) -> Self {
        assert!(nx > 0 && nz > 0, "empty image {nx}x{nz}");
        Image2D {
            nx,
            nz,
            data: vec![0.0; nx * nz],
        }
    }

    /// Value at `(x, z)`.
    pub fn get(&self, x: usize, z: usize) -> f32 {
        self.data[z * self.nx + x]
    }

    /// Mutable value at `(x, z)`.
    pub fn get_mut(&mut self, x: usize, z: usize) -> &mut f32 {
        &mut self.data[z * self.nx + x]
    }

    /// The normalized coordinates of a voxel center, each in `(-1, 1)`.
    pub fn norm_coords(&self, x: usize, z: usize) -> (f64, f64) {
        (
            (x as f64 + 0.5) / self.nx as f64 * 2.0 - 1.0,
            (z as f64 + 0.5) / self.nz as f64 * 2.0 - 1.0,
        )
    }

    /// Fills every voxel from a function of normalized coordinates.
    pub fn fill_with(&mut self, f: impl Fn(f64, f64) -> f32) {
        for z in 0..self.nz {
            for x in 0..self.nx {
                let (u, v) = self.norm_coords(x, z);
                self.data[z * self.nx + x] = f(u, v);
            }
        }
    }

    /// Restricts nonzero support to the inscribed disk (objects must fit
    /// inside the scanned field of view).
    pub fn mask_to_disk(&mut self) {
        for z in 0..self.nz {
            for x in 0..self.nx {
                let (u, v) = self.norm_coords(x, z);
                if u * u + v * v >= 1.0 {
                    self.data[z * self.nx + x] = 0.0;
                }
            }
        }
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.data.len() as f64
    }

    /// Root-mean-square difference against another image, normalized by
    /// the other image's RMS (relative reconstruction error metric).
    pub fn relative_rmse(&self, reference: &Image2D) -> f64 {
        assert_eq!(self.nx, reference.nx, "image width mismatch");
        assert_eq!(self.nz, reference.nz, "image height mismatch");
        let num: f64 = self
            .data
            .iter()
            .zip(&reference.data)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum();
        let den: f64 = reference.data.iter().map(|&v| f64::from(v).powi(2)).sum();
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }

    /// Fraction of voxels with nonzero value.
    pub fn fill_fraction(&self) -> f64 {
        self.data.iter().filter(|v| **v != 0.0).count() as f64 / self.data.len() as f64
    }

    /// Writes the image as a binary PGM (P5), min–max normalized to
    /// 8 bits — enough to eyeball reconstructions like the paper's Fig 1.
    pub fn write_pgm(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in &self.data {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let span = if hi > lo { hi - lo } else { 1.0 };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "P5\n{} {}\n255\n", self.nx, self.nz)?;
        let bytes: Vec<u8> = self
            .data
            .iter()
            .map(|&v| (((v - lo) / span).clamp(0.0, 1.0) * 255.0) as u8)
            .collect();
        out.write_all(&bytes)?;
        out.flush()
    }

    /// Builds an image from raw slice data.
    ///
    /// # Panics
    /// Panics when `data.len() != nx * nz`.
    pub fn from_data(nx: usize, nz: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), nx * nz, "data length mismatch");
        Image2D { nx, nz, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_x_major() {
        let mut img = Image2D::zeros(4, 3);
        *img.get_mut(1, 2) = 5.0;
        assert_eq!(img.data[2 * 4 + 1], 5.0);
        assert_eq!(img.get(1, 2), 5.0);
    }

    #[test]
    fn norm_coords_span_unit_box() {
        let img = Image2D::zeros(10, 10);
        let (u0, v0) = img.norm_coords(0, 0);
        let (u9, v9) = img.norm_coords(9, 9);
        assert!((u0 - (-0.9)).abs() < 1e-12 && (v0 - (-0.9)).abs() < 1e-12);
        assert!((u9 - 0.9).abs() < 1e-12 && (v9 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disk_mask_clears_corners() {
        let mut img = Image2D::zeros(16, 16);
        img.fill_with(|_, _| 1.0);
        img.mask_to_disk();
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(15, 15), 0.0);
        assert_eq!(img.get(8, 8), 1.0);
        assert!(img.fill_fraction() > 0.5);
        assert!(img.fill_fraction() < 0.9);
    }

    #[test]
    fn relative_rmse_zero_for_identical() {
        let mut img = Image2D::zeros(8, 8);
        img.fill_with(|u, v| (u + v) as f32);
        assert_eq!(img.relative_rmse(&img), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty image")]
    fn zero_size_rejected() {
        Image2D::zeros(0, 3);
    }

    #[test]
    fn pgm_roundtrip_header_and_size() {
        let mut img = Image2D::zeros(7, 5);
        img.fill_with(|u, v| (u * v) as f32);
        let path = std::env::temp_dir().join("xct_phantom_test.pgm");
        img.write_pgm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n7 5\n255\n"));
        assert_eq!(bytes.len(), "P5\n7 5\n255\n".len() + 35);
    }

    #[test]
    fn from_data_roundtrips() {
        let img = Image2D::from_data(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(img.get(2, 1), 6.0);
    }
}
