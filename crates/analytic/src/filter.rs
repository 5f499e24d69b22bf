//! Reconstruction filters for FBP.

use crate::complex::Complex;
use crate::fft::{fft, ifft};

/// Frequency-domain reconstruction filters.
///
/// The ramp (Ram-Lak) filter is the exact inverse-Radon kernel; it
/// amplifies high frequencies linearly, which is precisely why FBP
/// amplifies measurement noise (the paper's §I argument for iterative
/// methods). The windowed variants trade resolution for noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Pure ramp `|f|`.
    RamLak,
    /// Ramp × sinc window.
    SheppLogan,
    /// Ramp × Hann window.
    Hann,
}

impl FilterKind {
    /// Filter response at normalized frequency `nu ∈ [0, 0.5]` (cycles
    /// per sample).
    pub fn response(self, nu: f64) -> f64 {
        debug_assert!((0.0..=0.5 + 1e-12).contains(&nu));
        let ramp = nu;
        match self {
            FilterKind::RamLak => ramp,
            FilterKind::SheppLogan => {
                if nu == 0.0 {
                    0.0
                } else {
                    let x = std::f64::consts::PI * nu;
                    ramp * x.sin() / x
                }
            }
            FilterKind::Hann => ramp * 0.5 * (1.0 + (std::f64::consts::TAU * nu).cos()),
        }
    }
}

/// Filters one projection row: zero-pads to the next power of two ≥ 2·len,
/// multiplies the spectrum by the filter response (in cycles per physical
/// unit, i.e. divided by `spacing`), and returns the filtered row.
pub fn apply_filter(row: &[f32], spacing: f64, kind: FilterKind) -> Vec<f32> {
    assert!(!row.is_empty(), "empty projection row");
    assert!(spacing > 0.0, "nonpositive channel spacing");
    let n = row.len();
    let padded = (2 * n).next_power_of_two();
    let mut data: Vec<Complex> = row
        .iter()
        .map(|&v| Complex::real(f64::from(v)))
        .chain(std::iter::repeat(Complex::ZERO))
        .take(padded)
        .collect();
    fft(&mut data);
    for (j, z) in data.iter_mut().enumerate() {
        // The normalized frequency of bin j (0..0.5 then mirrored).
        let nu = (j.min(padded - j)) as f64 / padded as f64;
        // Physical frequency response: |f| = nu / spacing.
        *z = z.scale(kind.response(nu) / spacing);
    }
    ifft(&mut data);
    data[..n].iter().map(|z| z.re as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_ramp_limited() {
        for kind in [FilterKind::RamLak, FilterKind::SheppLogan, FilterKind::Hann] {
            assert_eq!(kind.response(0.0), 0.0, "{kind:?} must kill DC");
            for k in 1..=10 {
                let nu = k as f64 * 0.05;
                let r = kind.response(nu);
                // Hann reaches exactly zero at Nyquist; positive below it.
                assert!(r <= nu + 1e-12, "{kind:?}({nu}) = {r}");
                if nu < 0.5 {
                    assert!(r > 0.0, "{kind:?}({nu}) = {r}");
                }
            }
        }
        // Windowing attenuates high frequencies relative to the ramp.
        assert!(FilterKind::Hann.response(0.45) < FilterKind::RamLak.response(0.45) * 0.2);
        assert!(FilterKind::SheppLogan.response(0.45) < FilterKind::RamLak.response(0.45));
    }

    #[test]
    fn filtering_removes_dc() {
        let row = vec![1.0f32; 64];
        let filtered = apply_filter(&row, 1.0, FilterKind::RamLak);
        // The interior of a constant row filters to ~0 (ramp kills DC;
        // edges ring).
        let mid = &filtered[24..40];
        for v in mid {
            assert!(v.abs() < 0.05, "interior {v}");
        }
    }

    #[test]
    fn filter_is_linear() {
        let a: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..32).map(|i| (i as f32 * 0.7).cos()).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = apply_filter(&a, 1.0, FilterKind::SheppLogan);
        let fb = apply_filter(&b, 1.0, FilterKind::SheppLogan);
        let fsum = apply_filter(&sum, 1.0, FilterKind::SheppLogan);
        for ((x, y), s) in fa.iter().zip(&fb).zip(&fsum) {
            assert!((x + y - s).abs() < 1e-4);
        }
    }

    #[test]
    fn spacing_scales_response() {
        let row: Vec<f32> = (0..64)
            .map(|i| ((i as f32 - 32.0) / 8.0).exp2().min(1.0))
            .collect();
        let f1 = apply_filter(&row, 1.0, FilterKind::RamLak);
        let f2 = apply_filter(&row, 2.0, FilterKind::RamLak);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((a - 2.0 * b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
