//! Slice decomposition: Hilbert-ordered ownership of voxels and rays,
//! per-rank operator restrictions, and partial-data footprints
//! (paper §III-A1, Fig 7).
//!
//! Both the tomogram plane (`nx × nz` voxels) and the sinogram plane
//! (`channels × angles` bins) are tiled, Hilbert-ordered, and split into
//! equal contiguous runs — one subdomain per data process. A process's
//! *partial-data footprint* is the set of rays its voxels intersect: the
//! rows it contributes partial sums to in a projection (Fig 7b shades
//! these for subdomains 12–14).

use xct_comm::{Footprints, Ownership};
use xct_exec::Executor;
use xct_geometry::{RayHit, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_spmm::{Csr, Order};

/// The `(ray, voxel)` orders every production operator is packed under
/// (`PrecisionOperator::ordered`): both planes tiled and the tiles
/// Hilbert-ordered, as §III-A1 prescribes, so the rays of one thread
/// block come from one compact (channel, angle) patch and cross the same
/// voxels. The sinogram plane is `channels` wide and `angles` high (ray
/// id = angle·channels + channel), the tomogram plane `nx × nz`.
///
/// The tile edge follows from `block_size` — the largest power of two
/// whose square fits a block (8 at the default 64), so a block is one
/// tile or a run of whole tiles. Smaller edges stage the same number of
/// slots (a run of small tiles along the curve is as compact), larger
/// ones more: a block is then a strip of a tile (EXPERIMENTS.md,
/// "Hilbert-ordered packing").
pub fn packing_orders(scan: &ScanGeometry, block_size: usize) -> (Order, Order) {
    let tile = 1usize << (block_size.max(1).ilog2() / 2);
    let order_of = |width, height| {
        let plane = TileDecomposition::new(Domain2D::new(width, height), tile, CurveKind::Hilbert);
        Order::new(plane.cell_order())
    };
    (
        order_of(scan.detector.channels, scan.angles.len()),
        order_of(scan.grid.nx, scan.grid.nz),
    )
}

/// One rank's restriction of the system matrix: rows = its footprint
/// rays, columns = its owned voxels, both reindexed densely.
#[derive(Debug, Clone)]
pub struct LocalOperator {
    /// Global ray ids of the local rows, ascending.
    pub rows: Vec<u32>,
    /// Global voxel ids of the local columns, ascending.
    pub cols: Vec<u32>,
    /// The local sparse operator `A[rows, cols]`.
    pub csr: Csr<f32>,
}

impl LocalOperator {
    /// The global [`packing_orders`] restricted to this rank: its local
    /// rows in the sequence `rays` lists their global ids, its local
    /// columns in the sequence `voxels` lists theirs.
    pub fn packing_orders(&self, rays: &Order, voxels: &Order) -> (Order, Order) {
        let restrict = |global_ids: &[u32], order: &Order| {
            let mut local: Vec<u32> = (0..global_ids.len() as u32).collect();
            local.sort_unstable_by_key(|&i| order.rank()[global_ids[i as usize] as usize]);
            Order::new(local)
        };
        (restrict(&self.rows, rays), restrict(&self.cols, voxels))
    }
}

/// Every rank's footprint (the rays its voxels touch, ascending) and
/// local operator (those rays × its owned voxels), read straight off the
/// matrix's rows through one dense global → local column table. A lone
/// rank's footprint is every ray, empty ones included, so its operator
/// is the whole matrix row for row: the serial operator.
///
/// One counting sweep over the nonzeros sizes every operator, which is
/// then allocated here, on the calling thread. The fill is fanned out
/// over runs of ranks on `executor`, at least `min_hits` nonzeros a
/// part ([`MIN_HITS_PER_PART`] in production): each part sweeps the
/// rays once, routes the hits its ranks own into their open rows, and
/// closes a ray's rows when the ray ends. A part writes only its own
/// ranks' operators and scratch, all allocated at their final size, so
/// the result is the sequential fill's and no worker allocates.
fn restrict(
    sm: &SystemMatrix,
    voxel_owner: &[u32],
    owned_voxels: &[Vec<u32>],
    executor: &Executor,
    min_hits: usize,
) -> Vec<LocalOperator> {
    let mut local_col = vec![0u32; voxel_owner.len()];
    for cols in owned_voxels {
        for (i, &v) in cols.iter().enumerate() {
            local_col[v as usize] = i as u32;
        }
    }
    let (ranks, lone) = (owned_voxels.len(), owned_voxels.len() == 1);
    let owner = |h: &RayHit| voxel_owner[h.voxel as usize] as usize;

    // Count pass: `last[p]` is the last ray that reached rank `p`.
    let (mut rows, mut nnz, mut last) = (vec![0; ranks], vec![0; ranks], vec![u32::MAX; ranks]);
    let mut widest = 0;
    for ray in 0..sm.num_rays() as u32 {
        let hits = sm.row(ray as usize);
        widest = widest.max(hits.len());
        for h in hits {
            let p = owner(h);
            nnz[p] += 1;
            if last[p] != ray {
                last[p] = ray;
                rows[p] += 1;
            }
        }
    }
    if lone {
        rows[0] = sm.num_rays();
    }

    // One run of ranks per part, each rank with its operator and the
    // open row that collects its part of the current ray.
    let parts = executor.partitions(ranks.min(sm.nnz() / min_hits.max(1)));
    let per_part = ranks.div_ceil(parts);
    let mut runs: Vec<(usize, Vec<LocalOperator>, Vec<_>)> = owned_voxels
        .chunks(per_part)
        .enumerate()
        .map(|(run, owned)| {
            let first = run * per_part;
            let ops = owned.iter().zip(first..).map(|(cols, p)| LocalOperator {
                rows: Vec::with_capacity(rows[p]),
                cols: cols.clone(),
                csr: Csr::with_capacity(rows[p], cols.len(), nnz[p]),
            });
            let open = owned.iter().map(|_| Vec::with_capacity(widest));
            (first, ops.collect(), open.collect())
        })
        .collect();
    executor.for_each_part(runs.iter_mut(), |(first, ops, open)| {
        let mine = *first..*first + ops.len();
        for ray in 0..sm.num_rays() as u32 {
            for h in sm.row(ray as usize) {
                let p = owner(h);
                if mine.contains(&p) {
                    open[p - *first].push((local_col[h.voxel as usize], h.length));
                }
            }
            for (op, row) in ops.iter_mut().zip(open.iter_mut()) {
                if lone || !row.is_empty() {
                    op.rows.push(ray);
                    op.csr.push_row(row);
                    row.clear();
                }
            }
        }
    });
    runs.into_iter().flat_map(|(_, ops, _)| ops).collect()
}

/// Fewest nonzeros worth a part of [`restrict`]'s fill: a sweep of this
/// many hits takes about a millisecond, far more than a spawn.
const MIN_HITS_PER_PART: usize = 1 << 16;

/// The complete decomposition of one slice among `ranks` data processes.
#[derive(Debug, Clone)]
pub struct SliceDecomposition {
    /// Data-process count.
    pub ranks: usize,
    /// Owner rank of every voxel.
    pub voxel_owner: Vec<u32>,
    /// Owner rank of every ray (sinogram bin).
    pub ray_owner: Vec<u32>,
    /// Voxels owned per rank, ascending.
    pub owned_voxels: Vec<Vec<u32>>,
    /// Rays owned per rank, ascending.
    pub owned_rays: Vec<Vec<u32>>,
    /// Partial-data footprints: rays each rank's voxels touch (every ray
    /// for a lone rank).
    pub footprints: Footprints,
    /// Per-rank restricted operators.
    pub local_ops: Vec<LocalOperator>,
}

impl SliceDecomposition {
    /// Decomposes `scan`'s slice among `ranks` processes with square
    /// tiles of `tile` cells, ordered by `kind`.
    pub fn build(
        sm: &SystemMatrix,
        scan: &ScanGeometry,
        ranks: usize,
        tile: usize,
        kind: CurveKind,
    ) -> Self {
        Self::build_weighted(sm, scan, ranks, tile, kind, None)
    }

    /// [`build_on`](Self::build_on) the machine's width
    /// ([`Executor::parallel`]).
    pub fn build_weighted(
        sm: &SystemMatrix,
        scan: &ScanGeometry,
        ranks: usize,
        tile: usize,
        kind: CurveKind,
        tile_weights: Option<&[u64]>,
    ) -> Self {
        // xct-allow(machine-width): a convenience for callers with no executor of their own; xctbench times this signature
        let executor = Executor::parallel();
        Self::build_on(sm, scan, ranks, tile, kind, tile_weights, &executor)
    }

    /// [`SliceDecomposition::build`] with optional measured per-tile
    /// cost weights (row-major over the tomogram tile grid), each rank's
    /// operator restricted on `executor`'s workers. Weights reshape the
    /// *tomogram* partition only — sinogram (ray) ownership stays
    /// uniform, since the measured skew keys on voxel tiles.
    pub fn build_on(
        sm: &SystemMatrix,
        scan: &ScanGeometry,
        ranks: usize,
        tile: usize,
        kind: CurveKind,
        tile_weights: Option<&[u64]>,
        executor: &Executor,
    ) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let grid = scan.grid;
        let channels = scan.detector.channels;
        let angles = scan.angles.len();

        // Tomogram-domain ownership.
        let tomo = TileDecomposition::new(Domain2D::new(grid.nx, grid.nz), tile, kind);
        let owner_map = match tile_weights {
            Some(w) => tomo.cell_owner_map_weighted(ranks, w),
            None => tomo.cell_owner_map(ranks),
        };
        let voxel_owner: Vec<u32> = owner_map.into_iter().map(|o| o as u32).collect();

        // Sinogram-domain ownership: width = channels, height = angles;
        // ray id = angle·channels + channel.
        let sino = TileDecomposition::new(Domain2D::new(channels, angles), tile, kind);
        let sino_owner_cells = sino.cell_owner_map(ranks);
        let ray_owner: Vec<u32> = (0..sm.num_rays())
            .map(|ray| {
                let (a, c) = (ray / channels, ray % channels);
                sino_owner_cells[a * channels + c] as u32
            })
            .collect();

        let mut owned_voxels: Vec<Vec<u32>> = vec![Vec::new(); ranks];
        for (v, &o) in voxel_owner.iter().enumerate() {
            owned_voxels[o as usize].push(v as u32);
        }
        let mut owned_rays: Vec<Vec<u32>> = vec![Vec::new(); ranks];
        for (r, &o) in ray_owner.iter().enumerate() {
            owned_rays[o as usize].push(r as u32);
        }

        let local_ops = restrict(sm, &voxel_owner, &owned_voxels, executor, MIN_HITS_PER_PART);
        SliceDecomposition {
            ranks,
            voxel_owner,
            ray_owner,
            owned_voxels,
            owned_rays,
            footprints: Footprints::new(local_ops.iter().map(|op| op.rows.clone()).collect()),
            local_ops,
        }
    }

    /// The ray-ownership map in `xct-comm` form.
    pub fn ray_ownership(&self) -> Ownership {
        Ownership::new(self.ray_owner.clone(), self.ranks)
    }

    /// Scatters per-rank tomogram pieces back into a full slice
    /// (slice-major over `fusing` fused slices).
    pub fn assemble_volume(
        &self,
        pieces: &[Vec<f32>],
        num_voxels: usize,
        fusing: usize,
    ) -> Vec<f32> {
        assert_eq!(pieces.len(), self.ranks, "piece count mismatch");
        let mut out = vec![0.0f32; num_voxels * fusing];
        for (p, piece) in pieces.iter().enumerate() {
            let cols = &self.owned_voxels[p];
            assert_eq!(piece.len(), cols.len() * fusing, "piece {p} length");
            for f in 0..fusing {
                for (i, &v) in cols.iter().enumerate() {
                    out[f * num_voxels + v as usize] = piece[f * cols.len() + i];
                }
            }
        }
        out
    }

    /// Restricts a full sinogram vector to rank `p`'s owned rays.
    pub fn restrict_sinogram(
        &self,
        full: &[f32],
        num_rays: usize,
        fusing: usize,
        p: usize,
    ) -> Vec<f32> {
        let rays = &self.owned_rays[p];
        let mut out = Vec::with_capacity(rays.len() * fusing);
        for f in 0..fusing {
            for &r in rays {
                out.push(full[f * num_rays + r as usize]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::ImageGrid;

    fn setup(
        n: usize,
        angles: usize,
        ranks: usize,
    ) -> (SystemMatrix, ScanGeometry, SliceDecomposition) {
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
        let sm = SystemMatrix::build(&scan);
        let d = SliceDecomposition::build(&sm, &scan, ranks, 4, CurveKind::Hilbert);
        (sm, scan, d)
    }

    #[test]
    fn packing_orders_tile_both_planes_by_the_block_size() {
        // 24 channels × 20 angles, 16 × 16 voxels.
        let mut scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        scan.detector.channels = 24;
        for (block, tile) in [(32usize, 4usize), (64, 8), (128, 8), (256, 16)] {
            let (rays, voxels) = packing_orders(&scan, block);
            assert_eq!((rays.len(), voxels.len()), (24 * 20, 256));
            // The first tile of each plane sits at the origin: the first
            // tile² entries are its cells, ray id = angle·channels + channel.
            let first = tile * tile;
            assert!(rays.indices()[..first]
                .iter()
                .all(|&r| (r as usize % 24) < tile && (r as usize / 24) < tile));
            assert!(voxels.indices()[..first]
                .iter()
                .all(|&v| (v as usize % 16) < tile && (v as usize / 16) < tile));
        }
    }

    #[test]
    fn local_packing_orders_follow_the_global_ones() {
        let (_, scan, d) = setup(16, 12, 4);
        let (rays, voxels) = packing_orders(&scan, 64);
        for op in &d.local_ops {
            let (rows, cols) = op.packing_orders(&rays, &voxels);
            assert_eq!((rows.len(), cols.len()), (op.rows.len(), op.cols.len()));
            let ascending = |local: &Order, ids: &[u32], global: &Order| {
                local.indices().windows(2).all(|w| {
                    global.rank()[ids[w[0] as usize] as usize]
                        < global.rank()[ids[w[1] as usize] as usize]
                })
            };
            assert!(ascending(&rows, &op.rows, &rays));
            assert!(ascending(&cols, &op.cols, &voxels));
        }
    }

    #[test]
    fn ownership_partitions_both_domains() {
        let (sm, _, d) = setup(16, 12, 4);
        assert_eq!(d.voxel_owner.len(), 256);
        assert_eq!(d.ray_owner.len(), sm.num_rays());
        let total_vox: usize = d.owned_voxels.iter().map(Vec::len).sum();
        assert_eq!(total_vox, 256);
        let total_rays: usize = d.owned_rays.iter().map(Vec::len).sum();
        assert_eq!(total_rays, sm.num_rays());
        // Roughly balanced.
        for ov in &d.owned_voxels {
            assert!(ov.len() >= 256 / 4 / 2, "{}", ov.len());
        }
    }

    #[test]
    fn local_operators_cover_every_nonzero_once() {
        let (sm, _, d) = setup(12, 8, 3);
        let local_nnz: usize = d.local_ops.iter().map(|op| op.csr.nnz()).sum();
        assert_eq!(local_nnz, sm.nnz());
    }

    #[test]
    fn partial_projections_sum_to_full_projection() {
        // The algebraic heart of data parallelism: Σ_p A[:,T_p]·x[T_p] = A·x.
        let (sm, _, d) = setup(16, 10, 4);
        let x: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 29 + 13) % 83) as f32 / 83.0)
            .collect();
        let mut y_ref = vec![0.0f32; sm.num_rays()];
        sm.project(&x, &mut y_ref);

        let mut y_sum = vec![0.0f64; sm.num_rays()];
        for op in &d.local_ops {
            let x_loc: Vec<f32> = op.cols.iter().map(|&c| x[c as usize]).collect();
            let mut y_loc = vec![0.0f32; op.rows.len()];
            op.csr.spmv::<f32>(&x_loc, &mut y_loc);
            for (&r, &v) in op.rows.iter().zip(&y_loc) {
                y_sum[r as usize] += f64::from(v);
            }
        }
        for (a, b) in y_sum.iter().zip(&y_ref) {
            assert!(
                (*a as f32 - b).abs() <= 1e-4 * b.abs().max(1.0),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn footprints_match_local_rows() {
        let (_, _, d) = setup(12, 8, 4);
        for p in 0..4 {
            assert_eq!(d.footprints.per_rank[p], d.local_ops[p].rows);
        }
    }

    #[test]
    fn hilbert_footprints_are_smaller_than_row_major() {
        // The point of Hilbert ordering: compact subdomains cast compact
        // shadows (fewer footprint rays → less communication).
        let scan = ScanGeometry::uniform(ImageGrid::square(32, 1.0), 24);
        let sm = SystemMatrix::build(&scan);
        let hil = SliceDecomposition::build(&sm, &scan, 8, 4, CurveKind::Hilbert);
        let row = SliceDecomposition::build(&sm, &scan, 8, 4, CurveKind::RowMajor);
        assert!(
            hil.footprints.total_elements() < row.footprints.total_elements(),
            "hilbert {} vs row-major {}",
            hil.footprints.total_elements(),
            row.footprints.total_elements()
        );
    }

    #[test]
    fn restrict_assemble_roundtrip() {
        let (sm, _, d) = setup(12, 8, 3);
        let fusing = 2;
        let full: Vec<f32> = (0..sm.num_voxels() * fusing).map(|i| i as f32).collect();
        let (nv, at) = (sm.num_voxels(), |i: usize| full[i]);
        let pieces: Vec<Vec<f32>> = d
            .owned_voxels
            .iter()
            .map(|cols| {
                let slice = |f: usize| cols.iter().map(move |&v| at(f * nv + v as usize));
                (0..fusing).flat_map(slice).collect()
            })
            .collect();
        let back = d.assemble_volume(&pieces, sm.num_voxels(), fusing);
        assert_eq!(back, full);
    }

    #[test]
    fn single_rank_decomposition_is_identity() {
        let (sm, _, d) = setup(10, 6, 1);
        assert_eq!(d.local_ops[0].csr.nnz(), sm.nnz());
        assert_eq!(d.owned_voxels[0].len(), sm.num_voxels());
        assert_eq!(d.footprints.per_rank[0].len(), {
            // All rays that hit anything.
            (0..sm.num_rays())
                .filter(|&r| !sm.row(r).is_empty())
                .count()
        });
    }

    /// The construction the decomposition had before it read the
    /// matrix's rows directly: bucket every nonzero by its column's
    /// owner, then per rank sort the footprint and rebuild the local CSR
    /// from triplets renumbered by binary search.
    fn triplet_local_ops(sm: &SystemMatrix, d: &SliceDecomposition) -> Vec<LocalOperator> {
        let mut buckets: Vec<Vec<(u32, u32, f32)>> = vec![Vec::new(); d.ranks];
        for (row, col, val) in sm.triplets() {
            buckets[d.voxel_owner[col as usize] as usize].push((row, col, val));
        }
        buckets
            .into_iter()
            .zip(&d.owned_voxels)
            .map(|(triplets, cols)| {
                let mut rows: Vec<u32> = triplets.iter().map(|&(r, _, _)| r).collect();
                rows.sort_unstable();
                rows.dedup();
                let local = |ids: &[u32], g: u32| ids.binary_search(&g).unwrap() as u32;
                let csr = Csr::from_triplets(
                    rows.len(),
                    cols.len(),
                    triplets
                        .iter()
                        .map(|&(r, c, v)| (local(&rows, r), local(cols, c), v)),
                );
                LocalOperator {
                    rows,
                    cols: cols.clone(),
                    csr,
                }
            })
            .collect()
    }

    fn assert_same_operator(a: &LocalOperator, b: &LocalOperator, what: &str) {
        assert_eq!((&a.rows, &a.cols), (&b.rows, &b.cols), "{what}: indices");
        assert_eq!(
            (a.csr.num_rows(), a.csr.num_cols(), a.csr.nnz()),
            (b.csr.num_rows(), b.csr.num_cols(), b.csr.nnz()),
            "{what}: shape"
        );
        let bits = |c: &Csr<f32>, r| {
            let (cols, vals) = c.row(r);
            (
                cols.to_vec(),
                vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        for r in 0..a.csr.num_rows() {
            assert_eq!(bits(&a.csr, r), bits(&b.csr, r), "{what}: row {r}");
        }
    }

    /// Row-by-row restriction equals the triplet construction on 1, 4
    /// and 8 ranks, uniform and weighted, footprints included.
    #[test]
    fn local_operators_equal_the_triplet_construction() {
        let scan = ScanGeometry::uniform(ImageGrid::square(20, 1.0), 14);
        let sm = SystemMatrix::build(&scan);
        let weights: Vec<u64> = (0..25).map(|t| 1 + (t * 7 % 5) as u64 * 40).collect();
        for ranks in [1, 4, 8] {
            for tile_weights in [None, Some(weights.as_slice())] {
                let d = SliceDecomposition::build_weighted(
                    &sm,
                    &scan,
                    ranks,
                    4,
                    CurveKind::Hilbert,
                    tile_weights,
                );
                let oracle = triplet_local_ops(&sm, &d);
                for (p, (op, want)) in d.local_ops.iter().zip(&oracle).enumerate() {
                    let what = format!(
                        "{ranks} ranks, weighted {}, rank {p}",
                        tile_weights.is_some()
                    );
                    assert_same_operator(op, want, &what);
                    assert_eq!(d.footprints.per_rank[p], want.rows, "{what}: footprint");
                }
            }
        }
    }

    /// The restriction as it was before it counted: per rank, one scan
    /// of every ray for the footprint, one to count nonzeros, one to
    /// fill — three scans of the matrix per rank.
    fn three_scan_restrict(
        sm: &SystemMatrix,
        voxel_owner: &[u32],
        owned_voxels: &[Vec<u32>],
    ) -> Vec<LocalOperator> {
        let mut local_col = vec![0u32; voxel_owner.len()];
        for cols in owned_voxels {
            for (i, &v) in cols.iter().enumerate() {
                local_col[v as usize] = i as u32;
            }
        }
        let (mut row, lone) = (Vec::new(), owned_voxels.len() == 1);
        (0..owned_voxels.len() as u32)
            .map(|p| {
                let hits = |ray: u32| {
                    let owned = move |h: &&RayHit| voxel_owner[h.voxel as usize] == p;
                    sm.row(ray as usize).iter().filter(owned)
                };
                let rows: Vec<u32> = (0..sm.num_rays() as u32)
                    .filter(|&ray| lone || hits(ray).next().is_some())
                    .collect();
                let cols = owned_voxels[p as usize].clone();
                let nnz = rows.iter().map(|&ray| hits(ray).count()).sum();
                let mut csr = Csr::with_capacity(rows.len(), cols.len(), nnz);
                for &ray in &rows {
                    row.clear();
                    row.extend(hits(ray).map(|h| (local_col[h.voxel as usize], h.length)));
                    csr.push_row(&mut row);
                }
                LocalOperator { rows, cols, csr }
            })
            .collect()
    }

    /// The one-pass restriction equals the three-scan one on 1 to 8
    /// ranks, uniform and weighted, filled on one to three parts, on a
    /// detector wider than the grid — so a lone rank keeps rays that hit
    /// nothing and several ranks drop them.
    #[test]
    fn one_pass_restriction_is_the_three_scan_one() {
        let mut scan = ScanGeometry::uniform(ImageGrid::square(20, 1.0), 14);
        scan.detector.channels = 26;
        let sm = SystemMatrix::build(&scan);
        assert!((0..sm.num_rays()).any(|r| sm.row(r).is_empty()));
        let weights: Vec<u64> = (0..25).map(|t| 1 + (t * 7 % 5) as u64 * 40).collect();
        for ranks in 1..=8 {
            for tile_weights in [None, Some(weights.as_slice())] {
                let d = SliceDecomposition::build_weighted(
                    &sm,
                    &scan,
                    ranks,
                    4,
                    CurveKind::Hilbert,
                    tile_weights,
                );
                let reference = three_scan_restrict(&sm, &d.voxel_owner, &d.owned_voxels);
                for threads in 1..=3 {
                    let executor = Executor::threads(threads);
                    let ops = restrict(&sm, &d.voxel_owner, &d.owned_voxels, &executor, 1);
                    assert_eq!(ops.len(), reference.len());
                    for (p, (op, want)) in ops.iter().zip(&reference).enumerate() {
                        let what = format!(
                            "{ranks} ranks on {threads} threads, weighted {}, rank {p}",
                            tile_weights.is_some()
                        );
                        assert_same_operator(op, want, &what);
                    }
                }
                if ranks == 1 {
                    assert_eq!(d.local_ops[0].rows.len(), sm.num_rays());
                }
            }
        }
    }

    /// On a detector wider than the grid some rays hit nothing: they are
    /// in no footprint among several ranks, while a lone rank's
    /// footprint is every ray and its operator the serial one.
    #[test]
    fn rays_that_hit_nothing_join_only_a_lone_ranks_footprint() {
        let mut scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        scan.detector.channels = 24;
        let sm = SystemMatrix::build(&scan);
        let empty = (0..sm.num_rays()).filter(|&r| sm.row(r).is_empty()).count();
        assert!(empty > 0, "the wide detector must have rays that miss");

        let lone = SliceDecomposition::build(&sm, &scan, 1, 4, CurveKind::Hilbert);
        let serial = LocalOperator {
            rows: (0..sm.num_rays() as u32).collect(),
            cols: (0..sm.num_voxels() as u32).collect(),
            csr: Csr::from_system_matrix(&sm),
        };
        assert_same_operator(&lone.local_ops[0], &serial, "lone rank");
        assert_eq!(lone.footprints.per_rank[0], serial.rows);

        let four = SliceDecomposition::build(&sm, &scan, 4, 4, CurveKind::Hilbert);
        let oracle = triplet_local_ops(&sm, &four);
        for (p, (op, want)) in four.local_ops.iter().zip(&oracle).enumerate() {
            assert_same_operator(op, want, &format!("rank {p} of 4"));
        }
        assert!(four
            .local_ops
            .iter()
            .flat_map(|op| &op.rows)
            .all(|&r| !sm.row(r as usize).is_empty()));
    }
}
