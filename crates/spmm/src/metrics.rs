//! FLOP and data-movement accounting for roofline analysis (Fig 9b).

/// What one kernel invocation did, in hardware-visible units.
///
/// `bytes_read`/`bytes_written` count *memory* traffic (what the GPU would
/// fetch from HBM), not staging-buffer traffic: the whole point of the 3D
/// input buffering is that shared-memory reuse does not touch DRAM.
///
/// `flops` counts *effective* work only (real nonzeros); `padded_flops`
/// counts every FMA the kernel actually issues, including the `(0, 0)`
/// padding elements of lanes shorter than their group. Their ratio is
/// the packing efficiency —
/// keeping them separate stops padding from inflating flops rates while
/// still making the wasted work visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// Effective floating-point operations (each real-nonzero FMA counts
    /// as two); the number roofline/bench flops rates are built from.
    pub flops: u64,
    /// Issued floating-point operations including padding FMAs
    /// (`padded_flops >= flops`; the gap is wasted lanes).
    pub padded_flops: u64,
    /// Bytes fetched from memory.
    pub bytes_read: u64,
    /// Bytes stored to memory.
    pub bytes_written: u64,
}

impl KernelMetrics {
    /// Total memory traffic.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// FLOPs per byte of memory traffic — the x-axis of Fig 9b. Uses
    /// effective flops: padding FMAs are not useful work.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes() == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes() as f64
        }
    }

    /// Effective fraction of the issued FMAs (1.0 = no padding waste).
    pub fn flop_efficiency(&self) -> f64 {
        if self.padded_flops == 0 {
            1.0
        } else {
            self.flops as f64 / self.padded_flops as f64
        }
    }

    /// Elementwise accumulation (for summing over stages/blocks/minibatches).
    pub fn add(&mut self, other: &KernelMetrics) {
        self.flops += other.flops;
        self.padded_flops += other.padded_flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

impl std::ops::Add for KernelMetrics {
    type Output = KernelMetrics;
    fn add(self, other: KernelMetrics) -> KernelMetrics {
        KernelMetrics {
            flops: self.flops + other.flops,
            padded_flops: self.padded_flops + other.padded_flops,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }
}

impl std::iter::Sum for KernelMetrics {
    fn sum<I: Iterator<Item = KernelMetrics>>(iter: I) -> KernelMetrics {
        iter.fold(KernelMetrics::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_is_flops_per_byte() {
        let m = KernelMetrics {
            flops: 200,
            padded_flops: 250,
            bytes_read: 60,
            bytes_written: 40,
        };
        assert_eq!(m.bytes(), 100);
        assert!((m.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_yields_zero_intensity() {
        assert_eq!(KernelMetrics::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn efficiency_is_effective_over_padded() {
        let m = KernelMetrics {
            flops: 80,
            padded_flops: 100,
            bytes_read: 0,
            bytes_written: 0,
        };
        assert!((m.flop_efficiency() - 0.8).abs() < 1e-12);
        // No issued FMAs at all: vacuously efficient.
        assert_eq!(KernelMetrics::default().flop_efficiency(), 1.0);
    }

    #[test]
    fn sum_accumulates() {
        let a = KernelMetrics {
            flops: 1,
            padded_flops: 4,
            bytes_read: 2,
            bytes_written: 3,
        };
        let total: KernelMetrics = vec![a, a, a].into_iter().sum();
        assert_eq!(total.flops, 3);
        assert_eq!(total.padded_flops, 12);
        assert_eq!(total.bytes(), 15);
    }
}
