//! Fig 5: data-reuse of tomogram/sinogram partitions and multi-stage
//! buffer counts — measured on the *real* packed operator at mini scale.
//!
//! The paper reports, for a 256×256×50 minibatch: average reuse 46.63
//! (projection input = tomogram) and 64.73 (backprojection input =
//! sinogram), with 4-stage and 3-stage bufferings. Reuse is set by the
//! thread-block partition size (a block of B Hilbert-local rays revisits
//! each staged voxel ≈√B times), so the harness sweeps the block size
//! and checks √B growth toward the paper's 46–65×; stage counts emerge
//! from the 96 KB shared-memory budget shared by the fused slices.

use xct_bench::hilbert_ordered_operator;
use xct_exec::Executor;
use xct_fp16::F16;
use xct_spmm::PackedMatrix;

struct Measured {
    proj_reuse: f64,
    bproj_reuse: f64,
    proj_stages: f64,
    bproj_stages: f64,
}

fn measure(n: usize, angles: usize, block: usize, fusing: usize) -> Measured {
    let op = hilbert_ordered_operator(n, angles, block);
    let shared = 96 * 1024;
    let pa = op.pack::<F16>(block, shared, fusing);
    // Transpose (backprojection): input domain is the sinogram, so the
    // orders swap roles.
    let at = op.csr.map_values(F16::from_f32).transpose();
    let executor = Executor::parallel();
    let pat =
        PackedMatrix::pack_ordered(&at, &op.voxels, &op.rays, block, shared, fusing, &executor);
    Measured {
        proj_reuse: pa.average_reuse(),
        bproj_reuse: pat.average_reuse(),
        proj_stages: pa.stages_per_block(),
        bproj_stages: pat.stages_per_block(),
    }
}

fn main() {
    println!("FIG 5: Data reuse and multi-stage buffering (real packed operator)");
    println!();
    println!("Paper @ 256x256x50 minibatch: projection reuse 46.63 (4 stages),");
    println!("backprojection reuse 64.73 (3 stages). Reuse scales with the");
    println!("thread-block partition size (~sqrt(B) for B Hilbert-local rays).");
    println!();
    let n = 96;
    let angles = 96;
    let fusing = 50; // the paper's 50-slice minibatch
    let header = format!(
        "{:>6} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "block", "N", "fusing", "proj reuse", "bproj reuse", "proj stages", "bproj stages"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    let mut prev = 0.0;
    let mut last = None;
    for &block in &[32usize, 128, 512, 1024] {
        let m = measure(n, angles, block, fusing);
        println!(
            "{:>6} {:>8} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            block, n, fusing, m.proj_reuse, m.bproj_reuse, m.proj_stages, m.bproj_stages
        );
        assert!(
            m.proj_reuse > 1.0 && m.bproj_reuse > 1.0,
            "staging must pay off"
        );
        assert!(
            m.proj_reuse > prev,
            "reuse must grow with block partition size"
        );
        prev = m.proj_reuse;
        last = Some(m);
    }
    let last = last.unwrap();
    println!();
    println!(
        "At block=1024 (V100 max threads/block): projection reuse {:.1}, \
         backprojection {:.1} — approaching the paper's 46.6/64.7; stages {:.1}/{:.1} \
         (paper: 4/3, from the same 96 KB budget shared by 50 slices).",
        last.proj_reuse, last.bproj_reuse, last.proj_stages, last.bproj_stages
    );
    assert!(last.proj_reuse > 10.0, "big blocks must reach high reuse");
    assert!(
        last.proj_stages > 1.0,
        "50-slice minibatch must force multi-stage buffering"
    );
}
