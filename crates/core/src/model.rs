//! Paper-scale reconstruction model: maps a dataset + machine +
//! partitioning + optimization level to a per-activity time breakdown
//! (Tables III–IV, Figs 10–12).
//!
//! The model composes (a) the complexity formulas of Table I, (b) the
//! roofline and α–β link models of `xct-cluster`, and (c) hierarchical
//! volume-reduction ratios — by default the ones measured in the paper's
//! Table IV (socket keeps 100%, node level moves 58.5%, global moves
//! 41.5% of the original partial data), overridable with exact ratios
//! measured from real [`xct_comm`] plans at mini scale.

use crate::partition::Partitioning;
use xct_cluster::{simulate_pipeline, MachineSpec, MinibatchWork, PipelineMode, TimeBreakdown};
use xct_fp16::Precision;
use xct_plan::RunHeader;

/// Which optimizations are enabled (the three row groups of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptLevel {
    /// XCT-optimized SpMM (§III-B): fusing, staging, packing. Off = the
    /// unfused baseline kernel.
    pub kernel_opt: bool,
    /// Hierarchical communications (§III-D). Off = direct.
    pub comm_hierarchical: bool,
    /// Communication overlapping (§III-E). Off = synchronized.
    pub comm_overlap: bool,
}

impl OptLevel {
    /// Partitioning only (baseline rows of Table III).
    pub fn partitioning_only() -> Self {
        OptLevel {
            kernel_opt: false,
            comm_hierarchical: false,
            comm_overlap: false,
        }
    }

    /// + optimized SpMM.
    pub fn with_kernel() -> Self {
        OptLevel {
            kernel_opt: true,
            comm_hierarchical: false,
            comm_overlap: false,
        }
    }

    /// + hierarchical communications and overlapping (full system).
    pub fn full() -> Self {
        OptLevel {
            kernel_opt: true,
            comm_hierarchical: true,
            comm_overlap: true,
        }
    }
}

/// Hierarchical volume ratios relative to the direct partial-data volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyRatios {
    /// Socket-level moved volume / direct volume.
    pub socket: f64,
    /// Node-level moved volume / direct volume.
    pub node: f64,
    /// Global moved volume / direct volume.
    pub global: f64,
}

impl HierarchyRatios {
    /// Table IV measured ratios: 36.6 → 21.4 → 15.2 TB (double row).
    pub fn paper() -> Self {
        HierarchyRatios {
            socket: 1.0,
            node: 21.4 / 36.6,
            global: 15.2 / 36.6,
        }
    }
}

/// A full-scale experiment description.
#[derive(Debug, Clone)]
pub struct ModelExperiment {
    /// Projections (K).
    pub projections: usize,
    /// Detector rows / slices (M).
    pub rows: usize,
    /// Detector channels (N).
    pub channels: usize,
    /// The machine.
    pub machine: MachineSpec,
    /// Batch × data split.
    pub partitioning: Partitioning,
    /// Precision mode.
    pub precision: Precision,
    /// Optimization level.
    pub opt: OptLevel,
    /// Fusing factor when the kernel optimization is on (paper uses 16).
    pub fusing: usize,
    /// CG iterations (30 in the scaling study; each does one projection
    /// + one backprojection, plus one initial backprojection).
    pub iterations: usize,
    /// Hierarchical volume ratios.
    pub ratios: HierarchyRatios,
    /// Load-imbalance fraction added as idle time (Fig 10 shows ~5–10%).
    pub imbalance: f64,
}

/// Model outcome.
#[derive(Debug, Clone)]
pub struct ModelEstimate {
    /// Per-activity totals over the whole reconstruction.
    pub breakdown: TimeBreakdown,
    /// I/O time (read measurements + write volume).
    pub io_seconds: f64,
    /// CG vector-operation time.
    pub cg_seconds: f64,
    /// End-to-end seconds.
    pub total_seconds: f64,
    /// Sustained kernel FLOP/s across the whole machine.
    pub sustained_flops: f64,
    /// Per-pass wire volumes in bytes `(socket, node, global)` across
    /// all GPUs (Table IV rows).
    pub pass_volumes: (u64, u64, u64),
}

impl ModelExperiment {
    /// Fraction of the roofline bound the real kernel sustains: ELL
    /// padding, imperfectly coalesced stage gathers, and load imbalance
    /// within warps cost the remainder. Calibrated so the Brain run at
    /// 4,096 nodes sustains the paper's 65.4 PFLOPS kernel rate.
    pub const KERNEL_EFFICIENCY: f64 = 0.40;

    /// The experiment a run document's header describes — its problem,
    /// plan shape (the batch × data split and fusing of a planner's
    /// plan), precision and iterations — on the smallest Summit machine
    /// carrying its node count, fully optimized, with the paper's
    /// Table IV ratios and a 7% imbalance (override fields afterwards as
    /// needed); `None` when the header lacks any of these.
    pub fn from_header(header: &RunHeader) -> Option<Self> {
        let shape = header.plan?;
        Some(ModelExperiment {
            projections: shape.angles,
            rows: shape.slices,
            channels: shape.n,
            machine: MachineSpec::summit(header.topology?.nodes.max(1)),
            partitioning: shape.partitioning,
            precision: header.precision?,
            opt: OptLevel::full(),
            fusing: shape.fusing,
            iterations: header.iterations?,
            ratios: HierarchyRatios::paper(),
            imbalance: 0.07,
        })
    }

    /// Effective nonzeros per slice: ≈0.55·K·N² (see
    /// `xct-phantom::DatasetSpec::memory_bytes` for the calibration).
    fn nnz_per_slice(&self) -> f64 {
        0.55 * self.projections as f64 * (self.channels as f64).powi(2)
    }

    /// Runs the model.
    pub fn run(&self) -> ModelEstimate {
        let gpus = self.partitioning.total().min(self.machine.total_gpus());
        let pd = self.partitioning.data as f64;
        let s_bytes = self.precision.storage_bytes() as f64;

        // --- Kernel work per GPU per projection pass -------------------
        let slices_per_gpu = (self.rows as f64 / self.partitioning.batch as f64).ceil();
        let nnz_per_gpu_slice = self.nnz_per_slice() / pd;
        let flops_pass = 2.0 * nnz_per_gpu_slice * slices_per_gpu;

        let fusing = if self.opt.kernel_opt { self.fusing } else { 1 };
        let minibatches = (slices_per_gpu / fusing as f64).ceil().max(1.0) as usize;

        // Memory traffic per GPU per pass: the matrix streams once per
        // minibatch; inputs/outputs stream once per slice. Without the
        // kernel opt the matrix is unpacked (u32 index + full-width
        // value) and re-read per slice, and gathers go to DRAM.
        let bytes_pass = if self.opt.kernel_opt {
            let elem = self.precision.matrix_element_bytes() as f64;
            let matrix = nnz_per_gpu_slice * elem * minibatches as f64;
            let vectors = (self.channels as f64).powi(2) / pd * slices_per_gpu * s_bytes * 2.0;
            matrix + vectors
        } else {
            let unpacked_elem = 4.0 + self.precision.compute_bytes() as f64;
            nnz_per_gpu_slice * slices_per_gpu * (unpacked_elem + s_bytes)
        };

        let peak = self.machine.gpu.peak_flops(self.precision);
        let spill = xct_cluster::spill_penalty(self.precision, fusing);
        let kernel_pass = (flops_pass / peak).max(bytes_pass / self.machine.gpu.mem_bandwidth)
            * spill
            / Self::KERNEL_EFFICIENCY;

        // --- Communication per GPU per pass ----------------------------
        // Partial-data footprint (Table I): each subdomain's shadow is
        // √2·N/√Pd channels wide per angle.
        let footprint_per_slice =
            std::f64::consts::SQRT_2 * self.projections as f64 * self.channels as f64 / pd.sqrt();
        let direct_elems = footprint_per_slice * slices_per_gpu;
        let direct_bytes = direct_elems * s_bytes;

        let (socket_b, node_b, global_b) = if self.opt.comm_hierarchical {
            (
                direct_bytes * self.ratios.socket,
                direct_bytes * self.ratios.node,
                direct_bytes * self.ratios.global,
            )
        } else {
            (0.0, 0.0, direct_bytes)
        };

        let socket_t = socket_b / self.machine.socket_link.bandwidth;
        let node_t = node_b / self.machine.node_link.bandwidth;
        let global_t = global_b / self.machine.global_link.bandwidth
            + minibatches as f64 * self.machine.global_link.latency * (pd.sqrt()).max(1.0);
        // Global messages stage through pinned host buffers, both ways.
        let memcpy_t = 2.0 * global_b / self.machine.memcpy_bandwidth;

        // --- Pipeline over minibatches ---------------------------------
        let per_mb = MinibatchWork {
            kernel: kernel_pass / minibatches as f64,
            socket_comm: socket_t / minibatches as f64,
            node_comm: node_t / minibatches as f64,
            reduction: 0.1 * (socket_t + node_t) / minibatches as f64,
            global_comm: global_t / minibatches as f64,
            memcpy: memcpy_t / minibatches as f64,
        };
        let mode = if self.opt.comm_overlap {
            PipelineMode::OverlappedProjection
        } else {
            PipelineMode::Synchronized
        };
        let works = vec![per_mb; minibatches];
        let pass = simulate_pipeline(&works, mode);

        // One projection + one backprojection per iteration, plus the
        // initial backprojection of CGLS (30 proj + 31 backproj for 30
        // iterations, as in Table IV's footnote).
        let passes = (2 * self.iterations + 1) as f64;
        let mut breakdown = TimeBreakdown::default();
        for _ in 0..(2 * self.iterations + 1) {
            breakdown.accumulate(&pass);
        }
        // Load imbalance shows up as idle.
        let imbalance_idle = breakdown.total * self.imbalance;
        breakdown.idle += imbalance_idle;
        breakdown.total += imbalance_idle;

        // --- CG vector ops and I/O -------------------------------------
        let vol_per_gpu = (self.channels as f64).powi(2) / pd * slices_per_gpu;
        let cg_seconds = self.iterations as f64
            * (10.0 * vol_per_gpu * s_bytes / self.machine.gpu.mem_bandwidth
                + 4.0 * self.machine.global_link.latency * (gpus as f64).log2().max(1.0));
        let io_elements = self.projections as f64 * self.rows as f64 * self.channels as f64
            + self.rows as f64 * (self.channels as f64).powi(2);
        let io_seconds = self.machine.io_time((io_elements * s_bytes) as u64);

        let total_seconds = breakdown.total + cg_seconds + io_seconds;
        // Kernel-only sustained rate — the paper's "65.4 PFLOPS" metric
        // measures the optimized SpMM, not the communication-inclusive
        // wall time.
        let sustained_flops = flops_pass * passes * gpus as f64 / breakdown.kernel.max(1e-30);

        ModelEstimate {
            breakdown,
            io_seconds,
            cg_seconds,
            total_seconds,
            sustained_flops,
            pass_volumes: (
                (socket_b * gpus as f64) as u64,
                (node_b * gpus as f64) as u64,
                (global_b * gpus as f64) as u64,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charcoal_experiment(nodes: usize, precision: Precision, opt: OptLevel) -> ModelExperiment {
        let machine = MachineSpec::summit(nodes);
        // Table III: partitioning adapts to precision (double 1×128,
        // single 2×64, mixed 4×32 node groups).
        let shrink = precision.footprint_shrink_vs_double();
        let data_nodes = (nodes / shrink).max(1);
        ModelExperiment {
            projections: 4500,
            rows: 4198,
            channels: 6613,
            machine,
            partitioning: Partitioning {
                batch: nodes / data_nodes,
                data: data_nodes * 6,
            },
            precision,
            opt,
            fusing: 16,
            iterations: 30,
            ratios: HierarchyRatios::paper(),
            imbalance: 0.07,
        }
    }

    #[test]
    fn table3_optimizations_compound() {
        // Each optimization must speed up Charcoal on 128 nodes, and the
        // full stack must land in the paper's 3×–20× speedup band.
        let base = charcoal_experiment(128, Precision::Double, OptLevel::partitioning_only())
            .run()
            .total_seconds;
        let kernel = charcoal_experiment(128, Precision::Double, OptLevel::with_kernel())
            .run()
            .total_seconds;
        let full = charcoal_experiment(128, Precision::Mixed, OptLevel::full())
            .run()
            .total_seconds;
        assert!(kernel < base, "kernel opt must help: {base} -> {kernel}");
        assert!(
            full < kernel,
            "comm opt must help further: {kernel} -> {full}"
        );
        let speedup = base / full;
        assert!(
            (6.0..60.0).contains(&speedup),
            "full-stack speedup {speedup} outside plausible band (paper: 18.19×)"
        );
    }

    #[test]
    fn charcoal_mixed_full_matches_paper_minutes() {
        // Paper Table III: Charcoal, 128 nodes, mixed, all opts: 4.3 min.
        let est = charcoal_experiment(128, Precision::Mixed, OptLevel::full()).run();
        let minutes = est.total_seconds / 60.0;
        assert!(
            (1.0..15.0).contains(&minutes),
            "model {minutes:.1} min vs paper 4.3 min — order of magnitude must hold"
        );
    }

    #[test]
    fn hierarchy_cuts_global_volume_by_table4_ratio() {
        let direct = charcoal_experiment(128, Precision::Mixed, OptLevel::with_kernel()).run();
        let hier = charcoal_experiment(128, Precision::Mixed, OptLevel::full()).run();
        let (_, _, g_direct) = direct.pass_volumes;
        let (_, _, g_hier) = hier.pass_volumes;
        let ratio = g_hier as f64 / g_direct as f64;
        assert!(
            (0.35..0.5).contains(&ratio),
            "global volume ratio {ratio} vs paper 0.415"
        );
    }

    #[test]
    fn precision_shrinks_comm_volume_proportionally() {
        let d = charcoal_experiment(128, Precision::Double, OptLevel::full()).run();
        let m = charcoal_experiment(128, Precision::Mixed, OptLevel::full()).run();
        // Mixed halves bytes/element vs single, quarters vs double; the
        // partitioning also changes (more batch), shrinking footprints
        // further — so expect at least 4×.
        assert!(
            d.pass_volumes.2 as f64 / m.pass_volumes.2 as f64 >= 4.0,
            "double {} vs mixed {}",
            d.pass_volumes.2,
            m.pass_volumes.2
        );
    }

    #[test]
    fn overlap_reduces_total_but_not_below_dominant() {
        let sync = charcoal_experiment(
            128,
            Precision::Mixed,
            OptLevel {
                kernel_opt: true,
                comm_hierarchical: true,
                comm_overlap: false,
            },
        )
        .run();
        let over = charcoal_experiment(128, Precision::Mixed, OptLevel::full()).run();
        assert!(over.breakdown.total < sync.breakdown.total);
        // Paper §IV-D: overlap gains 21–29% when comm dominates; must
        // never exceed ~50%.
        let gain = 1.0 - over.breakdown.total / sync.breakdown.total;
        assert!((0.0..0.5).contains(&gain), "overlap gain {gain}");
    }

    #[test]
    fn brain_strong_scaling_follows_inverse_p() {
        // Fig 12b: Brain scales O(1/P) from 128 to 4096 nodes.
        let time = |nodes: usize| {
            let machine = MachineSpec::summit(nodes);
            ModelExperiment {
                projections: 4501,
                rows: 9209,
                channels: 11_283,
                machine,
                partitioning: Partitioning {
                    batch: nodes / 32,
                    data: 192,
                },
                precision: Precision::Mixed,
                opt: OptLevel::full(),
                fusing: 16,
                iterations: 30,
                ratios: HierarchyRatios::paper(),
                imbalance: 0.07,
            }
            .run()
        };
        let t128 = time(128);
        let t1024 = time(1024);
        let t4096 = time(4096);
        let s8 = t128.breakdown.total / t1024.breakdown.total;
        let s32 = t128.breakdown.total / t4096.breakdown.total;
        assert!((6.0..10.0).contains(&s8), "8× nodes gave {s8}× speedup");
        assert!((20.0..40.0).contains(&s32), "32× nodes gave {s32}×");
        // And the flagship number: at 4096 nodes the sustained rate must
        // be tens of PFLOPS (paper: 65.4 PF).
        let pf = t4096.sustained_flops / 1e15;
        assert!((20.0..130.0).contains(&pf), "sustained {pf} PFLOPS");
    }

    #[test]
    fn io_becomes_visible_at_scale() {
        // Fig 12b: I/O performance degrades relative to compute past
        // 1024 nodes (filesystem saturation).
        let frac = |nodes: usize| {
            let machine = MachineSpec::summit(nodes);
            let e = ModelExperiment {
                projections: 4501,
                rows: 9209,
                channels: 11_283,
                machine,
                partitioning: Partitioning {
                    batch: nodes / 32,
                    data: 192,
                },
                precision: Precision::Mixed,
                opt: OptLevel::full(),
                fusing: 16,
                iterations: 30,
                ratios: HierarchyRatios::paper(),
                imbalance: 0.07,
            }
            .run();
            e.io_seconds / e.total_seconds
        };
        assert!(frac(4096) > frac(128), "I/O share must grow with scale");
    }
}
