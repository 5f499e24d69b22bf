//! Tile → process → thread-block domain decomposition (paper Fig 4).

use crate::curve::CurveKind;

/// A 2D domain of cells (voxels of one slice plane, or sinogram bins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain2D {
    /// Cells along x (columns).
    pub width: usize,
    /// Cells along z for tomograms / along θ for sinograms (rows).
    pub height: usize,
}

impl Domain2D {
    /// Creates a domain; both sides must be nonzero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "empty domain {width}x{height}");
        Domain2D { width, height }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.width * self.height
    }
}

/// Coordinates of a square tile in the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Tile column.
    pub tx: usize,
    /// Tile row.
    pub ty: usize,
}

/// One partition of the domain: a contiguous run of Hilbert-ordered tiles
/// assigned to a single process (GPU) or thread block.
#[derive(Debug, Clone)]
pub struct Subdomain {
    /// Index of this partition (process rank or block id).
    pub id: usize,
    /// The tiles, in curve order.
    pub tiles: Vec<TileCoord>,
    /// Number of domain cells covered (accounts for boundary-clipped tiles).
    pub cells: usize,
}

/// Hilbert-ordered tiling of a 2D domain, partitionable at process and
/// thread-block granularity.
///
/// Construction tiles the domain into `tile_size`-sided square patches
/// (boundary tiles are clipped), orders them along the chosen space-filling
/// curve, and exposes balanced contiguous partitions of that order —
/// exactly the scheme of paper Fig 4(a–c).
#[derive(Debug, Clone)]
pub struct TileDecomposition {
    domain: Domain2D,
    tile_size: usize,
    tiles_x: usize,
    tiles_y: usize,
    /// Tiles in curve order.
    order: Vec<TileCoord>,
}

impl TileDecomposition {
    /// Decomposes `domain` into `tile_size`-sided tiles ordered by `kind`.
    pub fn new(domain: Domain2D, tile_size: usize, kind: CurveKind) -> Self {
        assert!(tile_size > 0, "tile size must be nonzero");
        let tiles_x = domain.width.div_ceil(tile_size);
        let tiles_y = domain.height.div_ceil(tile_size);
        let coords = kind.order(tiles_x, tiles_y);
        let order: Vec<TileCoord> = coords
            .into_iter()
            .map(|(tx, ty)| TileCoord { tx, ty })
            .collect();
        TileDecomposition {
            domain,
            tile_size,
            tiles_x,
            tiles_y,
            order,
        }
    }

    /// The decomposed domain.
    pub fn domain(&self) -> Domain2D {
        self.domain
    }

    /// Side length of the (unclipped) square tiles.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Tile-grid dimensions `(tiles_x, tiles_y)`.
    pub fn tile_grid(&self) -> (usize, usize) {
        (self.tiles_x, self.tiles_y)
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.order.len()
    }

    /// Tiles in curve order.
    pub fn ordered_tiles(&self) -> &[TileCoord] {
        &self.order
    }

    /// Number of domain cells inside a tile (boundary tiles are smaller).
    pub fn tile_cells(&self, t: TileCoord) -> usize {
        let w = self
            .tile_size
            .min(self.domain.width - t.tx * self.tile_size);
        let h = self
            .tile_size
            .min(self.domain.height - t.ty * self.tile_size);
        w * h
    }

    /// Cell coordinates covered by a tile, row-major within the tile.
    pub fn tile_cell_coords(&self, t: TileCoord) -> impl Iterator<Item = (usize, usize)> + '_ {
        let x0 = t.tx * self.tile_size;
        let y0 = t.ty * self.tile_size;
        let x1 = ((t.tx + 1) * self.tile_size).min(self.domain.width);
        let y1 = ((t.ty + 1) * self.tile_size).min(self.domain.height);
        (y0..y1).flat_map(move |y| (x0..x1).map(move |x| (x, y)))
    }

    /// Every cell of the domain exactly once, as its row-major id
    /// `y * width + x`: tiles in curve order, cells row-major within a
    /// tile. A run of `tile_size²` consecutive entries is one compact
    /// patch — the order the packed SpMM operators are laid out under, so
    /// the rows of a thread block share the columns they stage.
    pub fn cell_order(&self) -> Vec<u32> {
        let width = self.domain.width;
        let cell_id = |(x, y)| {
            // xct-allow(no-panic): operator indices are u32 throughout the workspace
            u32::try_from(y * width + x).expect("cell id fits u32")
        };
        self.order
            .iter()
            .flat_map(|&t| self.tile_cell_coords(t).map(cell_id))
            .collect()
    }

    /// Splits the curve-ordered tiles into `parts` balanced contiguous
    /// subdomains (process-level decomposition, Fig 4b).
    ///
    /// Balancing is by *cell count*, so boundary-clipped tiles do not skew
    /// process load. Every tile lands in exactly one subdomain; subdomain
    /// count may be less than `parts` only when there are fewer tiles.
    pub fn partition(&self, parts: usize) -> Vec<Subdomain> {
        self.partition_with(parts, |t| self.tile_cells(t) as u64)
    }

    /// Splits the curve-ordered tiles into `parts` contiguous subdomains
    /// balanced by *measured weights* instead of cell counts (the
    /// offline-rebalance path: weights are per-tile nanoseconds from a
    /// run document).
    ///
    /// `weights` is indexed row-major by tile-grid position
    /// (`ty * tiles_x + tx`) and must cover the whole grid. Exactly the
    /// same prefix-target walk as [`TileDecomposition::partition`], so
    /// passing each tile's cell count reproduces the uniform partition
    /// bit for bit. An all-zero weight table carries no information and
    /// falls back to the uniform cell-count partition; zero-weight runs
    /// inside an otherwise-informative table are legal (tiles are still
    /// conserved — any residue past the last target lands on the last
    /// part).
    pub fn partition_weighted(&self, parts: usize, weights: &[u64]) -> Vec<Subdomain> {
        assert_eq!(
            weights.len(),
            self.tiles_x * self.tiles_y,
            "weight table must cover the {}x{} tile grid",
            self.tiles_x,
            self.tiles_y
        );
        if self
            .order
            .iter()
            .all(|&t| weights[t.ty * self.tiles_x + t.tx] == 0)
        {
            return self.partition(parts);
        }
        self.partition_with(parts, |t| weights[t.ty * self.tiles_x + t.tx])
    }

    /// How many tiles [`TileDecomposition::partition_weighted`] gives a
    /// different part than [`TileDecomposition::partition`]: the tiles a
    /// measured-weight rebalance moves. Both cut the one curve-ordered
    /// tile sequence into contiguous runs, so their k-th tiles are the
    /// same tile.
    pub fn rehomed_tiles(&self, parts: usize, weights: &[u64]) -> usize {
        let owners = |subdomains: Vec<Subdomain>| {
            (subdomains.into_iter()).flat_map(|sd| std::iter::repeat_n(sd.id, sd.tiles.len()))
        };
        owners(self.partition(parts))
            .zip(owners(self.partition_weighted(parts, weights)))
            .filter(|(uniform, weighted)| uniform != weighted)
            .count()
    }

    /// The prefix-target walk shared by the uniform and weighted
    /// partitions: greedy contiguous runs along the curve order, cut at
    /// ideal cumulative-weight boundaries with an overshoot/undershoot
    /// tie-break. Weights are summed in `u128`, so no table of `u64`
    /// weights (measured nanoseconds, read from a document) overflows the
    /// totals or the `total * (id + 1)` targets.
    fn partition_with(&self, parts: usize, weight_of: impl Fn(TileCoord) -> u64) -> Vec<Subdomain> {
        assert!(parts > 0, "cannot partition into zero parts");
        let weight_of = |t| u128::from(weight_of(t));
        let total_weight: u128 = self.order.iter().map(|&t| weight_of(t)).sum();
        let mut subdomains: Vec<Subdomain> = Vec::with_capacity(parts);
        let mut iter = self.order.iter().copied().peekable();
        let mut weight_used = 0u128;
        for id in 0..parts {
            // Ideal prefix boundary for partitions 0..=id.
            let target = (total_weight * (id as u128 + 1)).div_ceil(parts as u128);
            let mut tiles = Vec::new();
            let mut cells = 0usize;
            let mut weight = 0u128;
            while let Some(&t) = iter.peek() {
                let tw = weight_of(t);
                // Take the tile if we have not reached the boundary, or if
                // taking it overshoots less than leaving it undershoots.
                let without = target.saturating_sub(weight_used + weight);
                let with = (weight_used + weight + tw).saturating_sub(target);
                if weight_used + weight >= target || (with > without && !tiles.is_empty()) {
                    break;
                }
                tiles.push(t);
                cells += self.tile_cells(t);
                weight += tw;
                iter.next();
            }
            weight_used += weight;
            subdomains.push(Subdomain { id, tiles, cells });
        }
        // Any residue (rounding, or zero-weight tiles past the last
        // boundary) goes to the last part.
        if let Some(last) = subdomains.last_mut() {
            for t in iter {
                last.cells += self.tile_cells(t);
                last.tiles.push(t);
            }
        }
        subdomains
    }

    /// Builds a dense cell → partition-id map for `parts` partitions.
    pub fn cell_owner_map(&self, parts: usize) -> Vec<usize> {
        Self::owner_map_of(self, self.partition(parts))
    }

    /// Builds a dense cell → partition-id map for a *weighted* partition
    /// (see [`TileDecomposition::partition_weighted`]).
    pub fn cell_owner_map_weighted(&self, parts: usize, weights: &[u64]) -> Vec<usize> {
        Self::owner_map_of(self, self.partition_weighted(parts, weights))
    }

    fn owner_map_of(&self, subdomains: Vec<Subdomain>) -> Vec<usize> {
        let mut owner = vec![usize::MAX; self.domain.cells()];
        for sub in subdomains {
            for &t in &sub.tiles {
                for (x, y) in self.tile_cell_coords(t) {
                    owner[y * self.domain.width + x] = sub.id;
                }
            }
        }
        owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomp(w: usize, h: usize, tile: usize) -> TileDecomposition {
        TileDecomposition::new(Domain2D::new(w, h), tile, CurveKind::Hilbert)
    }

    #[test]
    fn tiles_cover_domain_exactly_once() {
        for &(w, h, tile) in &[(64, 64, 8), (100, 60, 16), (33, 17, 8), (5, 5, 8)] {
            let d = decomp(w, h, tile);
            let mut seen = vec![false; w * h];
            for &t in d.ordered_tiles() {
                for (x, y) in d.tile_cell_coords(t) {
                    assert!(!seen[y * w + x], "cell ({x},{y}) covered twice");
                    seen[y * w + x] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{w}x{h}/{tile}: cells uncovered");
        }
    }

    #[test]
    fn cell_order_lists_every_cell_once_tile_by_tile() {
        for &(w, h, tile) in &[(64, 64, 8), (100, 60, 16), (33, 17, 8), (5, 5, 8)] {
            let d = decomp(w, h, tile);
            let order = d.cell_order();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..(w * h) as u32).collect::<Vec<_>>());
            // The curve's first tile comes first, row-major inside it.
            let first = d.ordered_tiles()[0];
            let cells: Vec<u32> = d
                .tile_cell_coords(first)
                .map(|(x, y)| (y * w + x) as u32)
                .collect();
            assert_eq!(order[..cells.len()], cells);
        }
        // 4×4 cells in 2×2 tiles: tile (0,0) first, then the curve's next.
        let order = decomp(4, 4, 2).cell_order();
        assert_eq!(order[..4], [0, 1, 4, 5]);
    }

    #[test]
    fn partition_covers_all_tiles_disjointly() {
        let d = decomp(128, 96, 16);
        for parts in [1usize, 2, 3, 5, 12, 48] {
            let subs = d.partition(parts);
            assert_eq!(subs.len(), parts);
            let total: usize = subs.iter().map(|s| s.tiles.len()).sum();
            assert_eq!(total, d.num_tiles());
            let cells: usize = subs.iter().map(|s| s.cells).sum();
            assert_eq!(cells, d.domain().cells());
        }
    }

    #[test]
    fn partition_is_balanced() {
        let d = decomp(256, 256, 16);
        let subs = d.partition(12);
        let avg = d.domain().cells() as f64 / 12.0;
        for s in &subs {
            let dev = (s.cells as f64 - avg).abs() / avg;
            assert!(
                dev < 0.10,
                "partition {} has {} cells (avg {avg})",
                s.id,
                s.cells
            );
        }
    }

    #[test]
    fn partition_subdomains_are_connected_runs() {
        // Contiguous runs of the Hilbert order stay spatially compact:
        // bounding-box area should be within a small factor of cell count.
        // 16-cell tiles divide the domain, so no tile is clipped.
        let d = decomp(256, 256, 16);
        for s in d.partition(16) {
            let span = |at: fn(&TileCoord) -> usize| {
                let (lo, hi) = (s.tiles.iter().map(at).min(), s.tiles.iter().map(at).max());
                16 * (hi.unwrap() - lo.unwrap() + 1)
            };
            let area = span(|t| t.tx) * span(|t| t.ty);
            assert!(
                area <= s.cells * 4,
                "partition {} sprawls: bbox area {area} vs {} cells",
                s.id,
                s.cells
            );
        }
    }

    #[test]
    fn owner_map_consistent_with_partition() {
        let d = decomp(64, 48, 8);
        let owner = d.cell_owner_map(6);
        assert!(owner.iter().all(|&o| o < 6));
        // Spot-check: a cell's owner matches the subdomain containing its tile.
        let subs = d.partition(6);
        for sub in &subs {
            for &t in &sub.tiles {
                for (x, y) in d.tile_cell_coords(t) {
                    assert_eq!(owner[y * 64 + x], sub.id);
                }
            }
        }
    }

    #[test]
    fn boundary_tiles_are_clipped() {
        let d = decomp(20, 20, 16);
        // 2x2 tile grid: sizes 16x16, 4x16, 16x4, 4x4.
        let mut sizes: Vec<usize> = d.ordered_tiles().iter().map(|&t| d.tile_cells(t)).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![16, 64, 64, 256]);
    }

    #[test]
    fn more_parts_than_tiles_yields_empty_tails() {
        let d = decomp(16, 16, 16); // single tile
        let subs = d.partition(4);
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].tiles.len(), 1);
        assert!(subs[1..].iter().all(|s| s.tiles.is_empty()));
    }

    #[test]
    fn cell_count_weights_reproduce_the_uniform_partition_exactly() {
        for &(w, h, tile) in &[(64, 64, 8), (100, 60, 16), (33, 17, 8)] {
            let d = decomp(w, h, tile);
            let (tx, ty) = d.tile_grid();
            let mut weights = vec![0u64; tx * ty];
            for &t in d.ordered_tiles() {
                weights[t.ty * tx + t.tx] = d.tile_cells(t) as u64;
            }
            for parts in [1usize, 2, 3, 7] {
                let uniform = d.partition(parts);
                let weighted = d.partition_weighted(parts, &weights);
                for (u, v) in uniform.iter().zip(&weighted) {
                    assert_eq!(u.tiles, v.tiles, "{w}x{h}/{tile} parts={parts}");
                    assert_eq!(u.cells, v.cells);
                }
                assert_eq!(
                    d.cell_owner_map(parts),
                    d.cell_owner_map_weighted(parts, &weights)
                );
            }
        }
    }

    #[test]
    fn skewed_weights_shrink_the_hot_partition() {
        let d = decomp(64, 64, 8); // 8x8 tiles
        let (tx, _) = d.tile_grid();
        // Make the first curve-ordered tile 10x the cost of the rest.
        let mut weights = vec![1u64; 64];
        let hot = d.ordered_tiles()[0];
        weights[hot.ty * tx + hot.tx] = 10;
        let subs = d.partition_weighted(4, &weights);
        let total: usize = subs.iter().map(|s| s.tiles.len()).sum();
        assert_eq!(total, d.num_tiles(), "tiles conserved");
        // The part owning the hot tile carries fewer tiles than average.
        let hot_part = subs
            .iter()
            .find(|s| s.tiles.contains(&hot))
            .expect("hot tile owned");
        assert!(
            hot_part.tiles.len() < 64 / 4,
            "hot part holds {} tiles",
            hot_part.tiles.len()
        );
    }

    #[test]
    fn weights_summing_past_u64_partition_evenly() {
        // 48² tiles at 2^53 each: the total is past u64::MAX.
        let d = decomp(48, 48, 1);
        let weights = vec![1u64 << 53; d.num_tiles()];
        let subs = d.partition_weighted(2, &weights);
        assert_eq!(subs[0].tiles.len(), 48 * 48 / 2);
        assert_eq!(subs[1].tiles.len(), 48 * 48 / 2);
        assert_eq!(d.rehomed_tiles(2, &weights), 0);
    }

    #[test]
    fn weighted_partition_strictly_reduces_max_rank_cost_on_a_skewed_table() {
        let d = decomp(64, 64, 8); // 8x8 tiles
        let (tx, _) = d.tile_grid();
        // A smooth skew: cost grows with curve position, like a detector
        // hot spot smeared across one corner of the domain.
        let mut weights = vec![0u64; d.num_tiles()];
        for (i, t) in d.ordered_tiles().iter().enumerate() {
            weights[t.ty * tx + t.tx] = 100 + (i as u64) * 10;
        }
        let max_rank_cost = |subs: &[Subdomain]| -> u64 {
            subs.iter()
                .map(|s| {
                    s.tiles
                        .iter()
                        .map(|t| weights[t.ty * tx + t.tx])
                        .sum::<u64>()
                })
                .max()
                .unwrap()
        };
        let uniform = max_rank_cost(&d.partition(4));
        let weighted = max_rank_cost(&d.partition_weighted(4, &weights));
        assert!(
            weighted < uniform,
            "weighted max-rank cost {weighted} is not strictly below uniform {uniform}"
        );
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let d = decomp(64, 48, 8);
        let weights = vec![0u64; d.num_tiles()];
        let uniform = d.partition(6);
        let weighted = d.partition_weighted(6, &weights);
        for (u, v) in uniform.iter().zip(&weighted) {
            assert_eq!(u.tiles, v.tiles);
        }
    }

    #[test]
    fn single_hot_tile_degeneracy_conserves_tiles() {
        let d = decomp(32, 32, 8); // 4x4 tiles
        let (tx, _) = d.tile_grid();
        let mut weights = vec![0u64; 16];
        let hot = d.ordered_tiles()[5];
        weights[hot.ty * tx + hot.tx] = 1_000_000;
        let subs = d.partition_weighted(4, &weights);
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            for &t in &s.tiles {
                assert!(seen.insert(t), "tile {t:?} duplicated");
            }
        }
        assert_eq!(seen.len(), d.num_tiles(), "every tile owned exactly once");
        let cells: usize = subs.iter().map(|s| s.cells).sum();
        assert_eq!(cells, d.domain().cells());
    }

    #[test]
    #[should_panic(expected = "weight table must cover")]
    fn short_weight_table_rejected() {
        let d = decomp(32, 32, 8);
        d.partition_weighted(2, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zero_domain_rejected() {
        Domain2D::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_rejected() {
        decomp(8, 8, 4).partition(0);
    }
}
