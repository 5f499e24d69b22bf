//! Tiled ("mosaic") acquisition — how the Mouse Brain dataset was
//! actually collected.
//!
//! Synchrotron beams are narrower than centimeter-scale specimens, so the
//! paper's flagship dataset comes from a *tiled tomography experiment*
//! (§I; Vescovi et al., "Tomosaic", ref [2]): the detector sweeps several
//! overlapping lateral positions, and the per-tile sinograms are stitched
//! into one wide virtual sinogram before reconstruction. This module
//! simulates the acquisition (extract) and implements the stitching
//! (blend) for parallel-beam geometry.

use crate::grid::ScanGeometry;

/// One lateral detector position: a contiguous channel range of the full
/// virtual detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorTile {
    /// First channel of the full detector this tile covers.
    pub start: usize,
    /// Channels in this tile.
    pub channels: usize,
}

/// A tiled scan: the full virtual detector split into overlapping tiles.
#[derive(Debug, Clone)]
pub struct TiledScan {
    tiles: Vec<DetectorTile>,
    full_channels: usize,
    angles: usize,
}

impl TiledScan {
    /// Splits `full`'s detector into `num_tiles` equal tiles overlapping
    /// by `overlap` channels (adjacent tiles share that many channels —
    /// the overlap is what makes seamless blending possible).
    ///
    /// # Panics
    /// Panics when the geometry cannot accommodate the requested tiling.
    pub fn split(full: &ScanGeometry, num_tiles: usize, overlap: usize) -> TiledScan {
        assert!(num_tiles > 0, "need at least one tile");
        let n = full.detector.channels;
        if num_tiles == 1 {
            return TiledScan {
                tiles: vec![DetectorTile {
                    start: 0,
                    channels: n,
                }],
                full_channels: n,
                angles: full.angles.len(),
            };
        }
        // num_tiles·w − (num_tiles−1)·overlap = n  ⇒  w.
        let covered = n + (num_tiles - 1) * overlap;
        assert!(
            covered.is_multiple_of(num_tiles),
            "cannot tile {n} channels into {num_tiles} tiles with overlap {overlap}"
        );
        let width = covered / num_tiles;
        assert!(
            width > overlap,
            "tile width {width} must exceed overlap {overlap}"
        );
        let tiles = (0..num_tiles)
            .map(|t| DetectorTile {
                start: t * (width - overlap),
                channels: width,
            })
            .collect();
        TiledScan {
            tiles,
            full_channels: n,
            angles: full.angles.len(),
        }
    }

    /// The tiles.
    pub fn tiles(&self) -> &[DetectorTile] {
        &self.tiles
    }

    /// Extracts tile `t`'s measurement from a full sinogram (simulating
    /// one lateral acquisition pass). Angle-major layout on both sides.
    pub fn extract(&self, t: usize, full_sino: &[f32]) -> Vec<f32> {
        assert_eq!(
            full_sino.len(),
            self.angles * self.full_channels,
            "full sinogram length mismatch"
        );
        let tile = self.tiles[t];
        let mut out = Vec::with_capacity(self.angles * tile.channels);
        for a in 0..self.angles {
            let row = &full_sino[a * self.full_channels..(a + 1) * self.full_channels];
            out.extend_from_slice(&row[tile.start..tile.start + tile.channels]);
        }
        out
    }

    /// Stitches per-tile sinograms into the full virtual sinogram,
    /// linearly blending across overlaps (Tomosaic-style feathering —
    /// robust to per-tile intensity drift).
    ///
    /// # Panics
    /// Panics when tile counts or shapes do not match the plan.
    pub fn stitch(&self, tile_sinos: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(tile_sinos.len(), self.tiles.len(), "tile count mismatch");
        for (t, s) in tile_sinos.iter().enumerate() {
            assert_eq!(
                s.len(),
                self.angles * self.tiles[t].channels,
                "tile {t} sinogram shape mismatch"
            );
        }
        let mut acc = vec![0.0f64; self.angles * self.full_channels];
        let mut weight = vec![0.0f64; self.angles * self.full_channels];
        for (tile, sino) in self.tiles.iter().zip(tile_sinos) {
            for a in 0..self.angles {
                for c in 0..tile.channels {
                    // Feathering weight: ramps from the tile edges inward
                    // so overlapping tiles cross-fade.
                    let edge = (c + 1).min(tile.channels - c) as f64;
                    let w = edge.min(16.0);
                    let at = a * self.full_channels + tile.start + c;
                    acc[at] += f64::from(sino[a * tile.channels + c]) * w;
                    weight[at] += w;
                }
            }
        }
        acc.iter()
            .zip(&weight)
            .map(|(&v, &w)| if w > 0.0 { (v / w) as f32 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ImageGrid, ScanGeometry};
    use crate::matrix::SystemMatrix;

    fn full_scan() -> ScanGeometry {
        ScanGeometry::uniform(ImageGrid::square(48, 1.0), 48)
    }

    #[test]
    fn split_covers_detector_with_overlap() {
        let scan = full_scan();
        let tiled = TiledScan::split(&scan, 3, 6);
        assert_eq!(tiled.tiles().len(), 3);
        // Tiles: width = (48 + 2·6)/3 = 20, starts 0, 14, 28.
        assert_eq!(
            tiled.tiles()[0],
            DetectorTile {
                start: 0,
                channels: 20
            }
        );
        assert_eq!(
            tiled.tiles()[1],
            DetectorTile {
                start: 14,
                channels: 20
            }
        );
        assert_eq!(
            tiled.tiles()[2],
            DetectorTile {
                start: 28,
                channels: 20
            }
        );
        assert_eq!(tiled.tiles()[2].start + 20, 48);
    }

    #[test]
    fn stitch_of_extracts_is_identity() {
        // Extracting tiles from a full sinogram and stitching them back
        // must reproduce the original exactly (identical data blends to
        // itself).
        let scan = full_scan();
        let sm = SystemMatrix::build(&scan);
        let phantom: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 31 + 5) % 97) as f32 / 97.0)
            .collect();
        let mut full_sino = vec![0.0f32; sm.num_rays()];
        sm.project(&phantom, &mut full_sino);

        let tiled = TiledScan::split(&scan, 3, 6);
        let tiles: Vec<Vec<f32>> = (0..3).map(|t| tiled.extract(t, &full_sino)).collect();
        let stitched = tiled.stitch(&tiles);
        assert_eq!(stitched.len(), full_sino.len());
        for (a, b) in stitched.iter().zip(&full_sino) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn stitch_blends_per_tile_intensity_drift() {
        // Real tiles have slightly different gains; feathering must keep
        // the seam bounded by the drift itself (no amplification).
        let scan = full_scan();
        let sm = SystemMatrix::build(&scan);
        let phantom: Vec<f32> = (0..sm.num_voxels()).map(|_| 0.5).collect();
        let mut full_sino = vec![0.0f32; sm.num_rays()];
        sm.project(&phantom, &mut full_sino);
        let tiled = TiledScan::split(&scan, 3, 6);
        let mut tiles: Vec<Vec<f32>> = (0..3).map(|t| tiled.extract(t, &full_sino)).collect();
        // 2% gain error on the middle tile.
        for v in &mut tiles[1] {
            *v *= 1.02;
        }
        let stitched = tiled.stitch(&tiles);
        for (at, (a, b)) in stitched.iter().zip(&full_sino).enumerate() {
            let rel = (a - b).abs() / b.abs().max(1e-6);
            assert!(rel <= 0.021, "channel {at}: seam error {rel}");
        }
    }

    #[test]
    fn single_tile_is_passthrough() {
        let scan = full_scan();
        let tiled = TiledScan::split(&scan, 1, 0);
        let sino: Vec<f32> = (0..48 * 48).map(|i| i as f32).collect();
        assert_eq!(tiled.extract(0, &sino), sino);
        assert_eq!(tiled.stitch(std::slice::from_ref(&sino)), sino);
    }

    #[test]
    fn reconstruction_from_stitched_matches_direct() {
        let scan = full_scan();
        let sm = SystemMatrix::build(&scan);
        let phantom: Vec<f32> = (0..sm.num_voxels())
            .map(|i| {
                let n = 48;
                let (ix, iz) = ((i % n) as f32 - 24.0, (i / n) as f32 - 24.0);
                if ix * ix + iz * iz < 190.0 {
                    0.8
                } else {
                    0.0
                }
            })
            .collect();
        let mut full_sino = vec![0.0f32; sm.num_rays()];
        sm.project(&phantom, &mut full_sino);
        let tiled = TiledScan::split(&scan, 4, 8);
        let tiles: Vec<Vec<f32>> = (0..4).map(|t| tiled.extract(t, &full_sino)).collect();
        let stitched = tiled.stitch(&tiles);
        // Backproject both and compare (full reconstruction equality
        // follows from sinogram equality; backprojection is cheaper).
        let mut bp_full = vec![0.0f32; sm.num_voxels()];
        let mut bp_stitched = vec![0.0f32; sm.num_voxels()];
        sm.backproject(&full_sino, &mut bp_full);
        sm.backproject(&stitched, &mut bp_stitched);
        for (a, b) in bp_stitched.iter().zip(&bp_full) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "cannot tile")]
    fn impossible_tiling_rejected() {
        // 48 + 4·2 = 56 channels do not divide into 5 equal tiles.
        TiledScan::split(&full_scan(), 5, 2);
    }
}
