//! Property tests: the optimized kernel is exactly the CSR baseline for
//! f32, and within quantization error for the real XCT operator in mixed
//! precision.

use proptest::prelude::*;
use xct_exec::{ExecContext, Executor, WorkspaceScalar};
use xct_fp16::{StorageScalar, F16};
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_spmm::{spmm_reference_with, spmm_with, ComputeScalar, Csr, Order, PackedMatrix};

fn csr_strategy() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (2usize..120, 2usize..150).prop_flat_map(|(rows, cols)| {
        let triplet = (0..rows as u32, 0..cols as u32, -1.0f32..1.0);
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(triplet, 0..400),
        )
    })
}

/// A uniformly shuffled order of `0..len` (Fisher–Yates over an LCG).
fn shuffled_order(len: usize, seed: u64) -> Order {
    let mut state = seed | 1;
    let mut indices: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        indices.swap(i, (state >> 33) as usize % (i + 1));
    }
    Order::new(indices)
}

/// Exact bit patterns of a storage vector (widening to f64 is injective
/// for every storage type).
fn bits<S: StorageScalar>(v: &[S]) -> Vec<u64> {
    v.iter().map(|s| s.to_f64().to_bits()).collect()
}

/// One precision mode of the ordered-pack property (see the test below).
/// `eps` is the unit roundoff the mode accumulates and stores at.
fn check_ordered_pack<S, C>(
    csr32: &Csr<f32>,
    (rows, cols): (&Order, &Order),
    fusing: usize,
    slots: Option<usize>,
    eps: f64,
) -> Result<(), String>
where
    S: StorageScalar + WorkspaceScalar,
    C: ComputeScalar + WorkspaceScalar,
{
    let (num_rows, num_cols) = (csr32.num_rows(), csr32.num_cols());
    let csr = csr32.map_values(S::from_f32);
    let x: Vec<S> = (0..num_cols * fusing)
        .map(|i| S::from_f32(((i * 83 + 19) % 997) as f32 / 997.0 - 0.5))
        .collect();
    // `None` = a stage holds every column, so every block is single-stage.
    let shared = slots.unwrap_or(num_cols) * fusing * S::BYTES;
    let run = |packed: &PackedMatrix<S>, x: &[S], executor: Option<Executor>| {
        let mut y = vec![S::zero(); num_rows * fusing];
        match executor {
            Some(e) => {
                spmm_with::<S, C>(packed, x, &mut y, &mut ExecContext::with_executor(e));
            }
            None => {
                spmm_reference_with::<S, C>(packed, x, &mut y, &mut ExecContext::serial());
            }
        }
        y
    };

    // Both block bodies read the same row list and map: bit-identical.
    let ordered =
        PackedMatrix::pack_ordered(&csr, rows, cols, 64, shared, fusing, &Executor::Serial);
    if slots.is_none() {
        prop_assert_eq!(ordered.total_stages(), ordered.blocks().len());
    }
    let y = run(&ordered, &x, Some(Executor::Serial));
    prop_assert_eq!(
        bits(&y),
        bits(&run(&ordered, &x, None)),
        "{} reference",
        S::NAME
    );
    prop_assert_eq!(
        bits(&y),
        bits(&run(&ordered, &x, Some(Executor::threads(3)))),
        "{} on 3 threads",
        S::NAME
    );

    // Single-stage blocks: a row's chain is its CSR sequence under any
    // order, so the identity order's bits come back.
    if slots.is_none() {
        let natural = PackedMatrix::pack(&csr, 64, shared, fusing);
        prop_assert_eq!(bits(&y), bits(&run(&natural, &x, Some(Executor::Serial))));
    }

    // The independent route: renumber the matrix, pack it in its new
    // natural order, permute the input, un-permute the output. Its chains
    // run in rank order, so it agrees to rounding, not to the bit.
    let renumbered = csr.permute(rows, cols);
    let mut x_perm = vec![S::zero(); x.len()];
    for f in 0..fusing {
        for (c, &k) in cols.rank().iter().enumerate() {
            x_perm[f * num_cols + k as usize] = x[f * num_cols + c];
        }
    }
    let y_perm = run(
        &PackedMatrix::pack(&renumbered, 64, shared, fusing),
        &x_perm,
        Some(Executor::Serial),
    );
    for f in 0..fusing {
        for (k, &r) in rows.indices().iter().enumerate() {
            let (rcols, rvals) = csr.row(r as usize);
            let magnitude: f64 = rcols
                .iter()
                .zip(rvals)
                .map(|(&c, v)| (v.to_f64() * x[f * num_cols + c as usize].to_f64()).abs())
                .sum();
            let tol = 2.0 * (rcols.len() + 1) as f64 * eps * magnitude;
            let got = y[f * num_rows + r as usize].to_f64();
            let want = y_perm[f * num_rows + k].to_f64();
            prop_assert!(
                (got - want).abs() <= tol,
                "{} row {r} slice {f}: {got} vs oracle {want} (tol {tol})",
                S::NAME
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing under an order changes the layout, never the operator:
    /// for any matrix, any row order and column order, fusing 1 / 3 / 8,
    /// stages of a few slots or of every column, in all four precision
    /// modes — the two block bodies agree bit for bit (serially and on
    /// three threads), single-stage blocks reproduce the identity
    /// order's bits, and the result is the `Csr::permute` route's to
    /// rounding.
    #[test]
    fn ordered_pack_is_the_same_operator(
        (rows, cols, triplets) in csr_strategy(),
        order_seed in any::<u64>(),
        fusing_pick in 0usize..3,
        single_stage in any::<bool>(),
        few_slots in 2usize..24,
    ) {
        let fusing = [1usize, 3, 8][fusing_pick];
        let slots = (!single_stage).then_some(few_slots);
        let csr = Csr::<f32>::from_triplets(rows, cols, triplets.into_iter());
        let row_order = shuffled_order(rows, order_seed);
        let col_order = shuffled_order(cols, order_seed.rotate_left(17) ^ 0x9e37);
        let orders = (&row_order, &col_order);
        let half = f64::from(f32::EPSILON) * 8192.0; // 2^-10
        check_ordered_pack::<f64, f64>(&csr, orders, fusing, slots, f64::from(f32::EPSILON))?;
        check_ordered_pack::<f32, f32>(&csr, orders, fusing, slots, f64::from(f32::EPSILON))?;
        check_ordered_pack::<F16, f32>(&csr, orders, fusing, slots, half)?;
        check_ordered_pack::<F16, F16>(&csr, orders, fusing, slots, half)?;
    }

    /// Buffered SpMM is bit-identical to the CSR baseline in f32 for any
    /// matrix, fusing factor, block size, and stage capacity.
    #[test]
    fn buffered_equals_csr(
        (rows, cols, triplets) in csr_strategy(),
        fusing in 1usize..6,
        block_pow in 0u32..3,
        shared_bytes in 256usize..8192,
    ) {
        let block_size = 32usize << block_pow;
        let csr = Csr::<f32>::from_triplets(rows, cols, triplets.into_iter());
        let packed = PackedMatrix::pack(&csr, block_size, shared_bytes, fusing);
        let x: Vec<f32> = (0..cols * fusing)
            .map(|i| ((i * 83 + 19) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let mut y_ref = vec![0.0f32; rows * fusing];
        csr.spmm::<f32>(&x, &mut y_ref, fusing);
        let mut y = vec![0.0f32; rows * fusing];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        for (a, b) in y.iter().zip(&y_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// With single-stage blocks a row's chain is its CSR sequence, so the
    /// packed kernel *is* `Csr::spmm`, bit for bit, under any order pair:
    /// sorting a block's rows by length and regrouping lanes move whole
    /// chains between accumulators and reorder none.
    #[test]
    fn single_stage_pack_equals_csr_under_any_orders(
        (rows, cols, triplets) in csr_strategy(),
        order_seed in any::<u64>(),
        fusing_pick in 0usize..4,
        block_pow in 0u32..3,
    ) {
        let fusing = [1usize, 4, 8, 13][fusing_pick];
        let csr = Csr::<f32>::from_triplets(rows, cols, triplets.into_iter());
        let row_order = shuffled_order(rows, order_seed);
        let col_order = shuffled_order(cols, order_seed.rotate_left(29) ^ 0x51ed);
        let packed = PackedMatrix::pack_ordered(
            &csr, &row_order, &col_order, 32 << block_pow, cols * fusing * 4, fusing,
            &Executor::Serial,
        );
        prop_assert_eq!(packed.total_stages(), packed.blocks().len());
        let x: Vec<f32> = (0..cols * fusing)
            .map(|i| ((i * 83 + 19) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let mut y_ref = vec![0.0f32; rows * fusing];
        csr.spmm::<f32>(&x, &mut y_ref, fusing);
        let mut y = vec![0.0f32; rows * fusing];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        prop_assert_eq!(bits(&y), bits(&y_ref));
    }

    /// Padding never leaks: padded elements `(ind 0, len 0)` multiply the
    /// zero slot, so feed extreme values and demand bit-exact agreement
    /// with the unpadded CSR reference.
    #[test]
    fn padding_contributes_nothing_even_with_extreme_inputs(
        (rows, cols, triplets) in csr_strategy(),
    ) {
        let csr = Csr::<f32>::from_triplets(rows, cols, triplets.into_iter());
        let packed = PackedMatrix::pack(&csr, 32, 1024, 1);
        let x: Vec<f32> = (0..cols)
            .map(|i| if i % 2 == 0 { 1e30 } else { -1e30 })
            .collect();
        let mut y_ref = vec![0.0f32; rows];
        csr.spmv::<f32>(&x, &mut y_ref);
        let mut y = vec![0.0f32; rows];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        for (a, b) in y.iter().zip(&y_ref) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Padding reads nothing live: padding elements point at the stage
    /// buffer's reserved zero slot, so whatever subset of `x` is ±inf or
    /// NaN, a row is non-finite exactly when CSR's is — it has a nonzero
    /// in such a column — and every other row is CSR's bit for bit, in
    /// the f32x8 body and in the reference body, single- and multi-stage.
    /// (Non-finite rows agree in kind; which NaN payload survives an FMA
    /// of two NaNs is the instruction's business.)
    #[test]
    fn non_finite_inputs_reach_only_the_rows_csr_says(
        (rows, cols, triplets) in csr_strategy(),
        poison in prop::collection::vec((0usize..150 * 4, 0usize..4), 1..12),
        fusing_pick in 0usize..3,
        single_stage in any::<bool>(),
        few_slots in 2usize..24,
    ) {
        let shared_slots = (!single_stage).then_some(few_slots);
        let fusing = [1usize, 4, 8][fusing_pick];
        let csr = Csr::<f32>::from_triplets(rows, cols, triplets.into_iter());
        let shared = shared_slots.unwrap_or(cols) * fusing * 4;
        let packed = PackedMatrix::pack(&csr, 32, shared, fusing);
        let mut x: Vec<f32> = (0..cols * fusing)
            .map(|i| ((i * 83 + 19) % 997) as f32 / 997.0 - 0.5)
            .collect();
        for (at, kind) in poison {
            let n = x.len();
            x[at % n] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN][kind];
        }
        let mut y_ref = vec![0.0f32; rows * fusing];
        csr.spmm::<f32>(&x, &mut y_ref, fusing);
        let mut y = vec![0.0f32; rows * fusing];
        let mut y_scalar = vec![0.0f32; rows * fusing];
        spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
        spmm_reference_with::<f32, f32>(&packed, &x, &mut y_scalar, &mut ExecContext::serial());
        for (i, want) in y_ref.iter().enumerate() {
            for (body, got) in [("f32x8", y[i]), ("reference", y_scalar[i])] {
                if want.is_finite() && shared_slots.is_none() {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{} cell {}", body, i);
                } else if want.is_finite() {
                    // Multi-stage chains run stage by stage: finite, and
                    // CSR's value to rounding.
                    prop_assert!(got.is_finite(), "{} cell {}: {}", body, i, got);
                    prop_assert!((got - want).abs() <= 1e-4, "{} cell {}", body, i);
                } else {
                    prop_assert!(!got.is_finite(), "{} cell {}: {} vs {}", body, i, got, want);
                    prop_assert_eq!(got.is_nan(), want.is_nan(), "{} cell {}", body, i);
                }
            }
        }
    }
}

/// The one trace padding leaves: the sign of zero. A padding element adds
/// `+0·+0` to its lane's accumulator, and `−0 + +0 = +0` under
/// round-to-nearest, so a partial sum of `−0.0` (here a product that
/// underflows from below) that meets padding comes out `+0.0` where
/// [`Csr::spmm`] keeps `−0.0`. A row with no nonzeros — all padding — is
/// `+0.0` on both. Pinned for both bodies.
#[test]
fn padding_turns_a_negative_zero_positive_and_nothing_else() {
    // Row 0: columns 0, 1. Row 1: column 0 only, so one padding element
    // follows it in the group's second round. Row 2: empty.
    let triplets = vec![(0u32, 0u32, 1e-30f32), (0, 1, 1.0), (1, 0, 1e-30)];
    let csr = Csr::<f32>::from_triplets(3, 2, triplets.into_iter());
    let x = [-1e-30f32, 3.0];
    let mut y_ref = [9.0f32; 3];
    csr.spmm::<f32>(&x, &mut y_ref, 1);
    assert_eq!(
        y_ref.map(f32::to_bits),
        [3.0f32, -0.0, 0.0].map(f32::to_bits)
    );
    let packed = PackedMatrix::pack(&csr, 32, 1024, 1);
    let mut y = [9.0f32; 3];
    spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
    assert_eq!(y.map(f32::to_bits), [3.0f32, 0.0, 0.0].map(f32::to_bits));
    let mut y = [9.0f32; 3];
    spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ExecContext::serial());
    assert_eq!(y.map(f32::to_bits), [3.0f32, 0.0, 0.0].map(f32::to_bits));
}

#[test]
fn mixed_precision_projection_of_real_operator() {
    // Forward-project a smooth phantom through the real Siddon matrix in
    // mixed precision; compare against the f64 reference.
    let scan = ScanGeometry::uniform(ImageGrid::square(32, 1.0), 24);
    let sm = SystemMatrix::build(&scan);
    let fusing = 4;

    // Smooth in-range values (normalization is the solver's job).
    let x: Vec<f32> = (0..sm.num_voxels() * fusing)
        .map(|i| 0.5 + 0.4 * ((i % 101) as f32 / 101.0))
        .collect();

    let mut y_ref = vec![0.0f32; sm.num_rays() * fusing];
    for f in 0..fusing {
        sm.project(
            &x[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            &mut y_ref[f * sm.num_rays()..(f + 1) * sm.num_rays()],
        );
    }

    let t: Vec<_> = sm.triplets().collect();
    let csr16 = Csr::<F16>::from_triplets(sm.num_rays(), sm.num_voxels(), t.into_iter());
    let packed = PackedMatrix::pack(&csr16, 64, 96 * 1024, fusing);
    let x16: Vec<F16> = x.iter().map(|&v| F16::from_f32(v)).collect();
    let mut y16 = vec![F16::ZERO; sm.num_rays() * fusing];
    spmm_with::<F16, f32>(&packed, &x16, &mut y16, &mut ExecContext::serial());

    let mut max_rel = 0.0f32;
    for (h, r) in y16.iter().zip(&y_ref) {
        if r.abs() > 1.0 {
            max_rel = max_rel.max((h.to_f32() - r).abs() / r.abs());
        }
    }
    // Inputs and matrix quantized to half: relative error stays at the
    // half-precision noise floor, far below measurement noise (§IV-F).
    assert!(max_rel < 0.01, "max relative error {max_rel}");
}

#[test]
fn fig5_style_reuse_is_substantial_for_real_operator() {
    // The irregular access footprint of a real XCT block is reused many
    // times from shared memory (Fig 5 reports 46–65× on Summit-scale
    // minibatches; smaller here, but must be well above 1). Hilbert
    // ordering of the sinogram rows is what creates the reuse: a block's
    // rays come from a compact (angle, channel) patch and cross the same
    // voxels.
    let scan = ScanGeometry::uniform(ImageGrid::square(64, 1.0), 64);
    let sm = SystemMatrix::build(&scan);
    let t: Vec<_> = sm.triplets().collect();
    let csr = Csr::<F16>::from_triplets(sm.num_rays(), sm.num_voxels(), t.into_iter());
    // Ray id = angle·channels + channel: the sinogram plane is
    // `channels` wide and `angles` high.
    let sinogram = TileDecomposition::new(Domain2D::new(64, 64), 8, CurveKind::Hilbert);
    let rays = Order::new(sinogram.cell_order());
    let voxels = Order::identity(sm.num_voxels());

    let packed_raw = PackedMatrix::pack(&csr, 128, 96 * 1024, 16);
    let packed_hil =
        PackedMatrix::pack_ordered(&csr, &rays, &voxels, 128, 96 * 1024, 16, &Executor::Serial);
    assert!(
        packed_hil.average_reuse() > 4.0,
        "reuse {} too small",
        packed_hil.average_reuse()
    );
    assert!(
        packed_hil.average_reuse() > 1.5 * packed_raw.average_reuse(),
        "Hilbert ordering should raise reuse: {} vs {}",
        packed_hil.average_reuse(),
        packed_raw.average_reuse()
    );
}
