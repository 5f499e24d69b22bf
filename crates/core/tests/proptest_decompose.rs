//! Randomized-shape properties of the slice decomposition: for any grid,
//! angle count, rank count, tile size, and curve, the distributed
//! operator pieces must reassemble the global operator exactly.

use proptest::prelude::*;
use xct_core::decompose::SliceDecomposition;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::CurveKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_operators_reassemble_the_global_matrix(
        n in 6usize..24,
        angles in 3usize..16,
        ranks in 1usize..9,
        tile in 2usize..6,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => CurveKind::Hilbert,
            1 => CurveKind::RowMajor,
            _ => CurveKind::Morton,
        };
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles);
        let sm = SystemMatrix::build(&scan);
        let d = SliceDecomposition::build(&sm, &scan, ranks, tile, kind);

        // Nonzeros are partitioned exactly.
        let local_nnz: usize = d.local_ops.iter().map(|op| op.csr.nnz()).sum();
        prop_assert_eq!(local_nnz, sm.nnz());

        // Partial projections sum to the full projection.
        let x: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 7 + 3) % 13) as f32 / 13.0)
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
            prop_assert!((*a as f32 - b).abs() <= 1e-4 * b.abs().max(1.0));
        }

        // Ownership maps are total and within range.
        prop_assert!(d.voxel_owner.iter().all(|&o| (o as usize) < ranks));
        prop_assert!(d.ray_owner.iter().all(|&o| (o as usize) < ranks));

        // Footprints are exactly the local row sets.
        for p in 0..ranks {
            prop_assert_eq!(&d.footprints.per_rank[p], &d.local_ops[p].rows);
        }
    }

    #[test]
    fn restrict_assemble_roundtrip_any_shape(
        n in 6usize..20,
        ranks in 1usize..7,
        fusing in 1usize..4,
    ) {
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let d = SliceDecomposition::build(&sm, &scan, ranks, 3, CurveKind::Hilbert);
        let full: Vec<f32> = (0..sm.num_voxels() * fusing).map(|i| i as f32 * 0.5).collect();
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
        prop_assert_eq!(back, full);
    }
}
