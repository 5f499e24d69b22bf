//! The noisy IC-chip study (paper §IV-F): iterative reconstruction under
//! Poisson measurement noise, showing (a) why iterative solvers beat
//! analytical ones on noisy data, (b) the noise-overfitting effect that
//! motivates the paper's 24-iteration early stop, and (c) that all four
//! precision modes reach the same noise floor.
//!
//! ```sh
//! cargo run --release --example chip_denoise
//! ```

use petaxct::analytic::{filtered_backprojection, FilterKind};
use petaxct::core::{Algorithm, ReconOptions, Reconstructor};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry};
use petaxct::phantom::{add_poisson_noise, chip_like, snr_db, Image2D};

fn relative_error(x: &[f32], truth: &Image2D) -> f64 {
    let num: f64 = x
        .iter()
        .zip(&truth.data)
        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
        .sum();
    let den: f64 = truth.data.iter().map(|&v| f64::from(v).powi(2)).sum();
    (num / den).sqrt()
}

fn main() {
    let n = 64;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 64);
    let recon = Reconstructor::new(scan);
    let mut chip = chip_like(n, 7);
    // Physical attenuation scaling: line integrals must stay well below
    // ln(I0) or the beam is extinguished and the measurement carries no
    // signal (Beer–Lambert). Peak chords here reach ~2.5.
    for v in &mut chip.data {
        *v *= 0.08;
    }

    // Noisy measurement: Poisson transmission statistics at modest flux.
    let clean = recon.project(&chip.data);
    let mut noisy = clean.clone();
    add_poisson_noise(&mut noisy, 2e3, 99);
    println!(
        "measurement SNR after Poisson noise: {:.1} dB",
        snr_db(&clean, &noisy)
    );

    // (b) Noise overfitting: run long and watch the residual keep
    // falling while the image error turns around — the paper stops at 24
    // iterations for exactly this reason.
    println!("\nnoise overfitting (mixed precision):");
    println!("{:>6} {:>12} {:>12}", "iters", "residual", "image error");
    let mut best = (0usize, f64::MAX);
    for iters in [4usize, 12, 24, 60, 120] {
        let result = recon.reconstruct(
            &noisy,
            &ReconOptions {
                precision: Precision::Mixed,
                iterations: iters,
                ..Default::default()
            },
        );
        let err = relative_error(&result.x, &chip);
        println!(
            "{:>6} {:>12.5} {:>12.5}",
            iters,
            result.report.residual_history.last().unwrap(),
            err
        );
        if err < best.1 {
            best = (iters, err);
        }
    }
    println!(
        "best image error at ~{} iterations — residual keeps shrinking past it \
         (fitting the noise), matching IV-F.",
        best.0
    );

    // (c) Precision sweep at the early-stop point.
    println!("\nprecision sweep at 24 iterations:");
    for precision in Precision::ALL {
        let result = recon.reconstruct(
            &noisy,
            &ReconOptions {
                precision,
                iterations: 24,
                ..Default::default()
            },
        );
        println!(
            "  {:<8} residual {:.5}  image error {:.5}",
            precision.label(),
            result.report.residual_history.last().unwrap(),
            relative_error(&result.x, &chip)
        );
    }
    println!(
        "\nAll precisions land at the same noise floor: the numerical noise of \
         half precision sits below the measurement noise (paper IV-F)."
    );

    // (d) Method shoot-out on the same noisy data: the analytical
    // baseline, plain CG, and SIRT with nonnegativity (the constraint C
    // of Eq. 1), both iterative methods through the same reconstructor.
    println!("\nmethod shoot-out on the noisy chip:");
    let fbp = filtered_backprojection(recon.scan(), &noisy, FilterKind::RamLak);
    println!(
        "  {:<22} image error {:.5}",
        "FBP (Ram-Lak)",
        relative_error(&fbp, &chip)
    );
    let cg = recon.reconstruct(
        &noisy,
        &ReconOptions {
            precision: Precision::Mixed,
            iterations: 24,
            ..Default::default()
        },
    );
    println!(
        "  {:<22} image error {:.5}",
        "CGLS (24 it, mixed)",
        relative_error(&cg.x, &chip)
    );
    let s = recon.reconstruct(
        &noisy,
        &ReconOptions {
            algorithm: Algorithm::Sirt,
            precision: Precision::Mixed,
            iterations: 100,
            ..Default::default()
        },
    );
    println!(
        "  {:<22} image error {:.5}",
        "SIRT (100 it, mixed)",
        relative_error(&s.x, &chip)
    );
}
