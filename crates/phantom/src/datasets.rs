//! The four paper datasets (Table II): exact dimensions as descriptors,
//! plus footprint models and mini-scale generators.

use crate::analogs;
use crate::image::Image2D;
use xct_fp16::Precision;

/// One tomography dataset: `K` projections of an `M`-row, `N`-channel
/// detector (Table II's `K×M×N` convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Number of projection angles (K).
    pub projections: usize,
    /// Detector rows = slices (M).
    pub rows: usize,
    /// Detector channels (N).
    pub channels: usize,
}

impl DatasetSpec {
    /// Shale Rock: 1501×1792×2048, open (TomoBank).
    pub fn shale() -> Self {
        DatasetSpec {
            name: "Shale Rock",
            projections: 1501,
            rows: 1792,
            channels: 2048,
        }
    }

    /// IC Chip: 1210×1024×2448, proprietary.
    pub fn chip() -> Self {
        DatasetSpec {
            name: "IC Chip",
            projections: 1210,
            rows: 1024,
            channels: 2448,
        }
    }

    /// Activated Charcoal: 4500×4198×6613, open.
    pub fn charcoal() -> Self {
        DatasetSpec {
            name: "Activated Charcoal",
            projections: 4500,
            rows: 4198,
            channels: 6613,
        }
    }

    /// Mouse Brain: 4501×9209×11283 — the 9K×11K×11K flagship volume.
    pub fn brain() -> Self {
        DatasetSpec {
            name: "Mouse Brain",
            projections: 4501,
            rows: 9209,
            channels: 11_283,
        }
    }

    /// Synthetic weak-scaling dataset: `base` with all three dimensions
    /// doubled `steps` times (§IV-E2: each doubling grows nominal
    /// computation 16× and memory 8×).
    pub fn doubled(&self, steps: u32) -> DatasetSpec {
        let f = 1usize << steps;
        DatasetSpec {
            name: "Synthetic (doubled)",
            projections: self.projections * f,
            rows: self.rows * f,
            channels: self.channels * f,
        }
    }

    /// Measurement (sinogram) elements: `K·M·N`.
    pub fn measurement_elements(&self) -> u64 {
        self.projections as u64 * self.rows as u64 * self.channels as u64
    }

    /// Volume (tomogram) elements: `M·N·N`.
    pub fn volume_elements(&self) -> u64 {
        self.rows as u64 * self.channels as u64 * self.channels as u64
    }

    /// I/O footprint in bytes at `precision` storage: sinogram read plus
    /// volume write (the "I/O Data Footprint" column of Table II at
    /// single precision).
    pub fn io_bytes(&self, precision: Precision) -> u64 {
        (self.measurement_elements() + self.volume_elements()) * precision.storage_bytes() as u64
    }

    /// In-memory footprint model in bytes: sinogram + tomogram + the
    /// memoized per-slice `A` and `Aᵀ` in packed form.
    ///
    /// The per-slice matrix has ≈`0.55·K·N²` nonzeroes: the diagonal
    /// bound is `√2·N` voxels per ray, but edge rays cross far fewer and
    /// the specimen is disk-masked, so the effective average calibrates
    /// to ≈0.55·N (fits all four Table II rows within ~±30%; the
    /// remaining spread is the paper's unstated pipeline buffers). The
    /// matrix is stored once per batch group, not per slice (§III-A4) —
    /// this model assumes the minimal single copy.
    pub fn memory_bytes(&self, precision: Precision) -> u64 {
        let data = self.io_bytes(precision);
        let nnz_per_slice =
            (0.55 * self.projections as f64 * self.channels as f64 * self.channels as f64) as u64;
        // A and Aᵀ, packed elements (§III-C2 packing).
        data + 2 * nnz_per_slice * precision.matrix_element_bytes() as u64
    }

    /// Renders a mini-scale analog slice of this dataset (`n × n`).
    pub fn mini_slice(&self, n: usize, seed: u64) -> Image2D {
        match self.name {
            "Shale Rock" => analogs::shale_like(n, seed),
            "IC Chip" => analogs::chip_like(n, seed),
            "Activated Charcoal" => analogs::charcoal_like(n, seed),
            "Mouse Brain" => analogs::brain_like(n, seed),
            _ => analogs::charcoal_like(n, seed),
        }
    }
}

/// All four paper datasets in Table II order.
pub fn paper_datasets() -> [DatasetSpec; 4] {
    [
        DatasetSpec::shale(),
        DatasetSpec::chip(),
        DatasetSpec::charcoal(),
        DatasetSpec::brain(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_io_footprints_match_paper() {
        // Paper (single precision): Shale 52.1 GB, Chip 36.7 GB,
        // Charcoal 1.23 TB, Brain 6.56 TB.
        let expect_gb = [52.1, 36.7, 1230.0, 6560.0];
        for (spec, expect) in paper_datasets().iter().zip(expect_gb) {
            let gb = spec.io_bytes(Precision::Single) as f64 / 1e9;
            let rel = (gb - expect).abs() / expect;
            assert!(
                rel < 0.10,
                "{}: model {gb:.1} GB vs paper {expect} GB",
                spec.name
            );
        }
    }

    #[test]
    fn brain_volume_is_the_43tb_scale_paper_quotes() {
        // "reconstruction of such data generates more than 4.3 TB 3D
        // volumetric image (with 9K×11K×11K voxels)".
        let vol_tb = DatasetSpec::brain().volume_elements() as f64 * 4.0 / 1e12;
        assert!((4.3..5.0).contains(&vol_tb), "volume {vol_tb} TB");
    }

    #[test]
    fn memory_model_is_in_table2_ballpark() {
        // Paper: Shale 120 GB, Chip 139 GB, Charcoal 2.82 TB, Brain 10.9 TB.
        let expect_gb = [120.0, 139.0, 2820.0, 10_900.0];
        for (spec, expect) in paper_datasets().iter().zip(expect_gb) {
            let gb = spec.memory_bytes(Precision::Single) as f64 / 1e9;
            let rel = (gb - expect).abs() / expect;
            assert!(
                rel < 0.30,
                "{}: model {gb:.0} GB vs paper {expect} GB",
                spec.name
            );
        }
    }

    #[test]
    fn lower_precision_shrinks_footprints() {
        let b = DatasetSpec::brain();
        assert!(b.memory_bytes(Precision::Mixed) < b.memory_bytes(Precision::Single));
        assert!(b.memory_bytes(Precision::Single) < b.memory_bytes(Precision::Double));
        assert_eq!(
            b.io_bytes(Precision::Double) / b.io_bytes(Precision::Half),
            4
        );
    }

    #[test]
    fn doubling_scales_like_weak_scaling_experiment() {
        let s = DatasetSpec::shale();
        let d = s.doubled(1);
        // Nominal computation K·N² grows 8× per... the paper counts
        // MN² per slice set: total compute M·K·N² grows 16×.
        let compute =
            |x: &DatasetSpec| x.rows as f64 * x.projections as f64 * (x.channels as f64).powi(2);
        assert_eq!(compute(&d) / compute(&s), 16.0);
        // Memory data footprint grows 8×.
        assert_eq!(d.measurement_elements() / s.measurement_elements(), 8);
    }

    #[test]
    fn mini_slices_render_for_all_datasets() {
        for spec in paper_datasets() {
            let img = spec.mini_slice(32, 5);
            assert_eq!(img.data.len(), 32 * 32);
            assert!(img.fill_fraction() > 0.1, "{}", spec.name);
        }
    }
}
