//! xct-plan — reconstruction plans as first-class, checkable values.
//!
//! The paper states one optimal-partitioning rule (§III-A3): *partition
//! the 3D data cube in x–z only until the per-GPU footprint fits into
//! GPU memory, then batch over angles/slices*. Historically that
//! decision was smeared across `core::partition`, the slice
//! decomposition, the paper-scale model, and ad-hoc CLI flags — and a
//! volume larger than memory simply could not run. This crate owns the
//! decision as data: a [`ReconPlan`] records the x–z split (the
//! [`Partitioning`] and the rank topology), the fused-slice count, and a
//! per-slab residency map, and a memory-budgeted [`Planner`] produces it
//! by applying the paper's rule against an explicit byte budget.
//!
//! Plans are *data*, so they can be verified (`xct-verify`'s
//! `plan_fits` proves footprint ≤ budget and exact slab cover before a
//! single byte moves) and executed out-of-core (`xct-core`'s streaming
//! pipeline pages non-resident slabs through `xct-io` while resident
//! slabs compute, bit-identical to the fully resident path because slab
//! boundaries — not data movement — determine the arithmetic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod profile;
pub mod run;
pub mod tune;

pub use partition::{Partitioning, TableIComplexity};
pub use profile::{ComponentDrift, ProfileReport, RankCost, SkewReport};
pub use run::{install_panic_hook, PlanShape, RunDocument, RunHeader, RUN_SCHEMA};
pub use tune::{KernelShape, TunePoint, TuneReport, TUNE_SCHEMA};

use xct_cluster::MachineSpec;
use xct_comm::protocol::MAX_FUSED_SLICES;
use xct_comm::Topology;
use xct_fp16::Precision;

/// Reconstruction volume shape at mini scale: a stack of `slices`
/// square `n × n` tomogram planes scanned by a matched detector
/// (`angles × n` sinogram rows per slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeDims {
    /// Grid side (voxels per edge = detector channels).
    pub n: usize,
    /// Number of slices in the stack.
    pub slices: usize,
}

/// Whether a slab's working set lives in (simulated) device memory for
/// the whole run or is paged through `xct-io`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// The slab is loaded once and stays resident.
    Resident,
    /// The slab streams: its sinogram is prefetched while the previous
    /// slab computes, and its volume is written back while the next one
    /// computes.
    Streamed,
}

/// One contiguous run of slices reconstructed together (a fused
/// minibatch in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabPlan {
    /// Position in execution order.
    pub index: usize,
    /// First slice (inclusive).
    pub start: usize,
    /// Slice count (`<=` the plan's fusing factor).
    pub len: usize,
    /// Where the slab lives during the run.
    pub residency: Residency,
}

/// Measured per-tile cost weights for the x–z Hilbert decomposition:
/// a run document's tile costs (`--weights-from`).
///
/// `weights[ty * tiles_x + tx]` is the measured cost (nanoseconds) of
/// the tile at grid position `(tx, ty)`, row-major over the
/// `ceil(n / tile_size)²` tile grid of one slice plane. A plan carrying
/// weights re-runs the Hilbert partition with these instead of uniform
/// cell counts, shrinking the tile runs of measured-hot ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileWeights {
    /// Side length of the square Hilbert tiles the weights were
    /// measured against. The executor must decompose with this same
    /// tile size for the grid indices to line up.
    pub tile_size: usize,
    /// Row-major per-tile cost table over the full tile grid.
    pub weights: Vec<u64>,
}

impl TileWeights {
    /// Tiles per axis for a grid side of `n` cells.
    pub fn grid_side(&self, n: usize) -> usize {
        n.div_ceil(self.tile_size)
    }

    /// The number of weights a square `n × n` plane requires.
    pub fn expected_len(&self, n: usize) -> usize {
        let side = self.grid_side(n);
        side * side
    }
}

/// The complete, checkable description of how one reconstruction runs:
/// topology mapping, x–z partitioning, precision, fused-slice count,
/// per-slab residency, and the budget the plan was made against.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconPlan {
    /// Node × socket × GPU structure executing the plan.
    pub topology: Topology,
    /// Precision mode (storage + wire + compute).
    pub precision: Precision,
    /// Batch × data split at machine granularity (Table III). At mini
    /// scale the executable pipeline uses one batch group whose `data`
    /// ranks split every slice's x–z plane.
    pub partitioning: Partitioning,
    /// Slices reconstructed simultaneously (the minibatch/fusing
    /// factor); every slab holds at most this many slices.
    pub fusing: usize,
    /// Execution-ordered slabs covering `dims.slices` exactly.
    pub slabs: Vec<SlabPlan>,
    /// The byte budget the planner worked against, if any.
    pub budget_bytes: Option<u64>,
    /// Hierarchical (true) or direct (false) partial-data exchange.
    pub hierarchical: bool,
    /// Overlap each slice's global exchange with the next slice's local
    /// compute (§III-E).
    pub overlap: bool,
    /// Volume shape the plan covers.
    pub dims: VolumeDims,
    /// Projection angles per slice.
    pub angles: usize,
    /// Tuned kernel tile shape (from a `petaxct-tune-v1` artifact via
    /// `--tune-from`); `None` leaves the executor's defaults in place.
    pub kernel: Option<KernelShape>,
    /// Measured per-tile cost weights (a run document's tile costs, via
    /// `--weights-from`); `None` keeps the uniform
    /// cell-count Hilbert partition.
    pub tile_weights: Option<TileWeights>,
}

impl ReconPlan {
    /// Stamps measured tile weights onto the plan (builder style); the
    /// executor re-runs the Hilbert decomposition with them.
    pub fn with_tile_weights(mut self, weights: TileWeights) -> ReconPlan {
        self.tile_weights = Some(weights);
        self
    }

    /// Ranks executing the plan.
    pub fn ranks(&self) -> usize {
        self.topology.size()
    }

    /// True when any slab pages through I/O rather than staying
    /// resident.
    pub fn streaming(&self) -> bool {
        self.slabs
            .iter()
            .any(|s| s.residency == Residency::Streamed)
    }

    /// Per-rank share of the memoized per-slice operator (`A` + `Aᵀ`,
    /// restricted to the rank's x–z subdomain).
    pub fn matrix_bytes_per_rank(&self) -> u64 {
        Partitioning::matrix_bytes(self.angles, self.dims.n, self.precision)
            .div_ceil(self.ranks() as u64)
    }

    /// Per-rank bytes one slice's data (sinogram row block + tomogram
    /// plane) adds to the working set.
    pub fn slice_bytes_per_rank(&self) -> u64 {
        Partitioning::data_bytes(self.angles, 1, self.dims.n, self.precision)
            .div_ceil(self.ranks() as u64)
    }

    /// Peak per-rank footprint over the whole run: the operator share
    /// plus the largest slab's data share. This is the quantity the
    /// budget constrains and `xct-verify`'s `plan_fits` re-checks.
    pub fn per_rank_bytes(&self) -> u64 {
        let widest = self.slabs.iter().map(|s| s.len).max().unwrap_or(0) as u64;
        self.matrix_bytes_per_rank() + widest * self.slice_bytes_per_rank()
    }

    /// Whether the peak footprint fits the budget (vacuously true for
    /// unbudgeted plans).
    pub fn fits(&self) -> bool {
        self.budget_bytes
            .is_none_or(|budget| self.per_rank_bytes() <= budget)
    }
}

/// Why a plan could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Even a single slice per rank exceeds the budget: the volume
    /// cannot run on this topology at this precision.
    BudgetTooSmall {
        /// The offered budget.
        budget: u64,
        /// The smallest achievable per-rank footprint (fusing = 1).
        required: u64,
    },
    /// Zero-sized volume, angle count, or fusing bound.
    Degenerate(&'static str),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget {budget} B too small: even one slice per rank needs {required} B \
                 (use more ranks or lower precision)"
            ),
            PlanError::Degenerate(what) => write!(f, "degenerate plan input: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The memory-budgeted planner: applies the paper's §III-A3 rule to a
/// concrete volume, topology, and byte budget.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    /// Precision mode the run will use.
    pub precision: Precision,
    /// Hierarchical or direct exchanges.
    pub hierarchical: bool,
    /// Overlap communication with compute (§III-E).
    pub overlap: bool,
    /// Upper bound on the fusing factor (the I/O batch the caller is
    /// willing to stage); the planner only ever shrinks it.
    pub max_fusing: usize,
    /// Tuned kernel tile shape to stamp into emitted plans, typically
    /// the best point of a `petaxct tune` sweep.
    pub kernel: Option<KernelShape>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            precision: Precision::Mixed,
            hierarchical: true,
            overlap: false,
            max_fusing: 8,
            kernel: None,
        }
    }
}

impl Planner {
    /// Produces the plan for `dims` scanned at `angle_count` angles on
    /// `topology`, honoring `budget_bytes` per rank.
    ///
    /// The paper's rule, applied at mini scale: the x–z split is fixed
    /// by the topology (every rank takes a Hilbert-ordered subdomain of
    /// every slice — partitioning the plane *first*), so the planner's
    /// free variable is the slice batch. It picks the largest fusing
    /// `f ≤ max_fusing` whose per-rank footprint
    /// `matrix/ranks + f · slice/ranks` fits the budget, then covers
    /// the stack with `ceil(slices / f)` slabs. One slab → everything
    /// is resident; more → the run streams, and every slab pages
    /// through `xct-io`.
    pub fn plan(
        &self,
        dims: VolumeDims,
        angle_count: usize,
        budget_bytes: Option<u64>,
        topology: Topology,
    ) -> Result<ReconPlan, PlanError> {
        if dims.n == 0 || dims.slices == 0 {
            return Err(PlanError::Degenerate("empty volume"));
        }
        if angle_count == 0 {
            return Err(PlanError::Degenerate("no projection angles"));
        }
        if self.max_fusing == 0 {
            return Err(PlanError::Degenerate("zero fusing bound"));
        }
        let ranks = topology.size();
        let mut plan = ReconPlan {
            topology,
            precision: self.precision,
            partitioning: Partitioning {
                batch: 1,
                data: ranks,
            },
            fusing: 0,
            slabs: Vec::new(),
            budget_bytes,
            hierarchical: self.hierarchical,
            overlap: self.overlap,
            dims,
            angles: angle_count,
            kernel: self.kernel,
            tile_weights: None,
        };
        // A slab fuses no more slices than have tag salts clear of the
        // collectives' reply namespace.
        let cap = self.max_fusing.min(dims.slices).min(MAX_FUSED_SLICES);
        let fusing = match budget_bytes {
            None => cap,
            Some(budget) => {
                let fixed = plan.matrix_bytes_per_rank();
                let per_slice = plan.slice_bytes_per_rank();
                if fixed + per_slice > budget {
                    return Err(PlanError::BudgetTooSmall {
                        budget,
                        required: fixed + per_slice,
                    });
                }
                // Largest f with fixed + f·per_slice ≤ budget, capped.
                let headroom = (budget - fixed) / per_slice.max(1);
                cap.min(usize::try_from(headroom).unwrap_or(cap))
            }
        };
        plan.fusing = fusing;
        let slab_count = dims.slices.div_ceil(fusing);
        let residency = if slab_count == 1 {
            Residency::Resident
        } else {
            Residency::Streamed
        };
        let mut start = 0;
        for index in 0..slab_count {
            let len = fusing.min(dims.slices - start);
            plan.slabs.push(SlabPlan {
                index,
                start,
                len,
                residency,
            });
            start += len;
        }
        debug_assert_eq!(start, dims.slices, "slabs must cover the stack");
        debug_assert!(plan.fits(), "planner emitted an over-budget plan");
        Ok(plan)
    }

    /// Machine-granularity planning for the paper-scale model (Tables
    /// III–IV): derives the batch × data split with
    /// [`Partitioning::optimal_for`] and wraps it, the machine's
    /// topology, and the dataset shape into one resident-slab plan the
    /// model layer consumes.
    pub fn plan_machine(
        &self,
        projections: usize,
        rows: usize,
        channels: usize,
        machine: &MachineSpec,
        fusing: usize,
    ) -> ReconPlan {
        let partitioning =
            Partitioning::optimal_for(projections, rows, channels, machine, self.precision);
        ReconPlan {
            topology: Topology::new(
                machine.nodes,
                machine.sockets_per_node,
                machine.gpus_per_socket,
            ),
            precision: self.precision,
            partitioning,
            fusing,
            slabs: vec![SlabPlan {
                index: 0,
                start: 0,
                len: rows,
                residency: Residency::Resident,
            }],
            budget_bytes: None,
            hierarchical: self.hierarchical,
            overlap: self.overlap,
            dims: VolumeDims {
                n: channels,
                slices: rows,
            },
            angles: projections,
            kernel: self.kernel,
            tile_weights: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> Planner {
        Planner {
            precision: Precision::Single,
            hierarchical: true,
            overlap: false,
            max_fusing: 8,
            kernel: None,
        }
    }

    #[test]
    fn tuned_shape_propagates_into_plans() {
        let shape = KernelShape {
            block_size: 64,
            shared_bytes: 4096,
        };
        let plan = Planner {
            kernel: Some(shape),
            ..planner()
        }
        .plan(
            VolumeDims { n: 16, slices: 4 },
            16,
            None,
            Topology::new(1, 1, 2),
        )
        .unwrap();
        assert_eq!(plan.kernel, Some(shape));
        assert_eq!(
            planner()
                .plan(
                    VolumeDims { n: 16, slices: 4 },
                    16,
                    None,
                    Topology::new(1, 1, 2),
                )
                .unwrap()
                .kernel,
            None
        );
    }

    #[test]
    fn unbudgeted_plan_is_one_resident_slab_per_batch() {
        let plan = planner()
            .plan(
                VolumeDims { n: 16, slices: 6 },
                16,
                None,
                Topology::new(1, 2, 2),
            )
            .unwrap();
        assert_eq!(plan.fusing, 6);
        assert_eq!(plan.slabs.len(), 1);
        assert_eq!(plan.slabs[0].residency, Residency::Resident);
        assert!(!plan.streaming());
        assert!(plan.fits());
    }

    #[test]
    fn budget_shrinks_fusing_until_it_fits() {
        let dims = VolumeDims { n: 16, slices: 8 };
        let topo = Topology::new(1, 2, 2);
        let unbounded = planner().plan(dims, 16, None, topo).unwrap();
        // A budget just above the two-slice footprint forces fusing 2.
        let two = unbounded.matrix_bytes_per_rank() + 2 * unbounded.slice_bytes_per_rank();
        let plan = planner().plan(dims, 16, Some(two), topo).unwrap();
        assert_eq!(plan.fusing, 2);
        assert_eq!(plan.slabs.len(), 4);
        assert!(plan.streaming());
        assert!(plan.fits());
        for (i, slab) in plan.slabs.iter().enumerate() {
            assert_eq!(slab.index, i);
            assert_eq!(slab.residency, Residency::Streamed);
        }
    }

    #[test]
    fn impossible_budget_is_rejected() {
        let err = planner()
            .plan(
                VolumeDims { n: 16, slices: 4 },
                16,
                Some(16),
                Topology::new(1, 1, 2),
            )
            .unwrap_err();
        match err {
            PlanError::BudgetTooSmall { budget, required } => {
                assert_eq!(budget, 16);
                assert!(required > 16);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn ragged_tail_slab_is_shorter() {
        let dims = VolumeDims { n: 12, slices: 7 };
        let topo = Topology::new(1, 1, 2);
        let probe = planner().plan(dims, 12, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 3 * probe.slice_bytes_per_rank();
        let plan = planner().plan(dims, 12, Some(budget), topo).unwrap();
        assert_eq!(plan.fusing, 3);
        let lens: Vec<usize> = plan.slabs.iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![3, 3, 1]);
        let covered: usize = lens.iter().sum();
        assert_eq!(covered, 7);
    }

    #[test]
    fn more_ranks_admit_tighter_budgets() {
        // The x–z rule: partitioning the plane across more ranks shrinks
        // the per-rank footprint, so a budget that fails on 2 ranks can
        // succeed on 8.
        let dims = VolumeDims { n: 32, slices: 4 };
        let small = planner().plan(dims, 32, None, Topology::new(1, 1, 2));
        let tight = small.unwrap().matrix_bytes_per_rank() / 2;
        assert!(matches!(
            planner().plan(dims, 32, Some(tight), Topology::new(1, 1, 2)),
            Err(PlanError::BudgetTooSmall { .. })
        ));
        let wide = planner()
            .plan(dims, 32, Some(tight), Topology::new(2, 2, 2))
            .unwrap();
        assert!(wide.fits());
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let topo = Topology::new(1, 1, 1);
        assert!(planner()
            .plan(VolumeDims { n: 0, slices: 4 }, 8, None, topo)
            .is_err());
        assert!(planner()
            .plan(VolumeDims { n: 8, slices: 0 }, 8, None, topo)
            .is_err());
        assert!(planner()
            .plan(VolumeDims { n: 8, slices: 4 }, 0, None, topo)
            .is_err());
    }

    #[test]
    fn machine_plan_carries_table3_partitioning() {
        let machine = MachineSpec::summit(4);
        let plan = Planner {
            precision: Precision::Mixed,
            ..planner()
        }
        .plan_machine(1501, 1792, 2048, &machine, 16);
        // Table III, Shale, mixed: 4×(1×6).
        assert_eq!(plan.partitioning.batch, 4);
        assert_eq!(plan.partitioning.data, 6);
        assert_eq!(plan.topology.size(), 24);
        assert!(!plan.streaming());
    }
}
