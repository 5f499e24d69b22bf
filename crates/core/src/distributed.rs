//! The executable distributed reconstruction pipeline: every rank is a
//! simulated GPU running the optimized kernels on its subdomain, with
//! partial-data exchanges between (back)projections and a distributed
//! CGLS on top (paper §III, end to end, at mini scale).
//!
//! Forward projection per iteration: each rank runs the buffered SpMM on
//! its voxel subdomain **once for the whole fused minibatch** (the
//! paper's fused kernel, inside the rank) → partial sinograms over its
//! footprint → the socket and node reductions of the whole minibatch at
//! once, one message per peer and level → per slice, the global exchange
//! to ray owners, all through a *compiled* communication plan.
//! Backprojection: owners scatter sinogram values back slice by slice →
//! the node and socket fan-out of the whole minibatch at once → one fused
//! transposed SpMM. On a half-width wire every sender quantizes each
//! slice with the scale of its own data and the undo rides in the
//! message header (§III-C1), so neither apply makes a collective. What
//! an iteration *waits on* is one small collective — CGLS's inner
//! products or SIRT's residual norm, a hierarchical allreduce on the
//! run's [`Topology`] ([`xct_comm::AllreduceSteps`]) — plus one exchange
//! latency per direction.
//!
//! [`DistributedSetup::run`] is where every reconstruction — one rank or
//! many, in memory or streamed — chooses its solver from the call's
//! [`ReconOptions`].
//!
//! With [`DistributedConfig::overlap`] a rank posts every fused slice's
//! global exchange before draining any, in slice order (paper §III-E,
//! Figs 11–12; [`xct_comm::protocol::apply`]), so all
//! slices share one wire latency. Results are bit-identical to the
//! synchronous schedule — the same floating-point operations run in the
//! same order; only the waiting moves.

use crate::decompose::{packing_orders, SliceDecomposition};
use crate::recon::{Algorithm, ReconOptions};
use std::sync::{Arc, Mutex, PoisonError};
use xct_comm::protocol::Collective;
use xct_comm::{
    run_ranks_with, AllreduceSteps, Communicator, CompiledPlans, ExchangeScratch, HierarchicalPlan,
    RankCommStats, RankOptions, RankPlan, Topology, WireModel,
};
use xct_exec::{BufferRole, ExecContext, ExecCounters, Telemetry};
use xct_fp16::{Precision, StorageScalar, F16};
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_plan::{KernelShape, ReconPlan};
use xct_solver::{
    cgls_in, sirt_in, CglsConfig, CglsReport, LinearOperator, NonFinite, PrecisionOperator,
    SirtConfig,
};

/// Distributed run configuration.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Node structure; rank count = `topology.size()`.
    pub topology: Topology,
    /// Precision mode (storage + wire + compute).
    pub precision: Precision,
    /// Slices reconstructed simultaneously (the minibatch/fusing factor).
    pub fusing: usize,
    /// Hierarchical (true) or direct (false) partial-data exchange:
    /// which topology the plan reduces over — `topology`, or one GPU per
    /// node (`Topology::new(ranks, 1, 1)`), whose local levels are empty.
    /// The ranks run on `topology` either way.
    pub hierarchical: bool,
    /// Post every fused slice's global exchange before draining any, so
    /// each one is on the wire under the later slices' socket/node
    /// reductions and all share one latency (§III-E). Output is
    /// bit-identical to the synchronous (post, drain, post, drain …)
    /// schedule.
    pub overlap: bool,
    /// The iterative algorithm (default: undamped CGLS).
    pub algorithm: Algorithm,
    /// Optional simulated wire time for inter-node messages. The
    /// in-process transport is a memcpy, so without this, overlap has no
    /// wire time to hide; with it, comm-bound behavior (and overlap's
    /// wall-clock gain) is measurable. `None` (default) delivers
    /// instantly. Purely a scheduling delay — results are unaffected.
    pub wire: Option<WireModel>,
    /// Solver iterations.
    pub iterations: usize,
    /// Hilbert tile size for both domain decompositions.
    pub tile: usize,
    /// Threads per simulated GPU block.
    pub block_size: usize,
    /// Staging-buffer bytes per block.
    pub shared_bytes: usize,
    /// Telemetry sink of the entry points (`run` records on its context's).
    /// Disabled by default — pass [`Telemetry::enabled`] to collect
    /// per-rank spans (each rank on its own track) and the breakdown.
    pub telemetry: Telemetry,
    /// Run the xct-verify static checks (conservation, tag disjointness,
    /// deadlock freedom, scratch non-aliasing) on the communication plan
    /// before executing it, panicking with the full diagnostic listing on
    /// any violation. Always on in debug builds; this flag (the CLI's
    /// `--verify-plans`) extends the check to release builds.
    pub verify_plans: bool,
    /// Measured per-tile cost weights (`--weights-from`): when present,
    /// the x–z Hilbert partition balances these instead of uniform cell
    /// counts, so measured-hot tiles get fewer neighbors per rank. The
    /// weight table's tile size must match [`DistributedConfig::tile`].
    pub tile_weights: Option<xct_plan::TileWeights>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Mixed,
            fusing: 1,
            hierarchical: true,
            overlap: false,
            algorithm: Algorithm::default(),
            wire: None,
            iterations: 30,
            tile: 4,
            block_size: KernelShape::DEFAULT.block_size,
            shared_bytes: KernelShape::DEFAULT.shared_bytes,
            telemetry: Telemetry::disabled(),
            verify_plans: false,
            tile_weights: None,
        }
    }
}

impl DistributedConfig {
    /// The configuration that executes `plan`: topology, precision,
    /// exchange mode, overlap and fusing come from the plan, as do a
    /// tuned kernel shape (`petaxct tune` → `--tune-from`) and measured
    /// tile weights (`petaxct profile` → `--weights-from`, which also
    /// fix the decomposition's tile size to the one they were measured
    /// at) when it carries them; the runtime knobs a plan does not own —
    /// algorithm, wire model, iterations, telemetry, plan verification —
    /// come from `base`.
    pub fn from_plan(plan: &ReconPlan, base: &DistributedConfig) -> Self {
        let mut cfg = DistributedConfig {
            topology: plan.topology,
            precision: plan.precision,
            fusing: plan.fusing,
            hierarchical: plan.hierarchical,
            overlap: plan.overlap,
            ..base.clone()
        };
        if let Some(shape) = plan.kernel {
            cfg.block_size = shape.block_size;
            cfg.shared_bytes = shape.shared_bytes;
        }
        if let Some(tw) = &plan.tile_weights {
            cfg.tile = tw.tile_size;
            cfg.tile_weights = Some(tw.clone());
        }
        cfg
    }

    /// The per-call request [`DistributedSetup::run`] solves by:
    /// algorithm, precision, fusing, iterations and kernel shape.
    pub fn request(&self) -> ReconOptions {
        ReconOptions {
            algorithm: self.algorithm,
            precision: self.precision,
            fusing: self.fusing,
            iterations: self.iterations,
            block_size: self.block_size,
            shared_bytes: self.shared_bytes,
        }
    }
}

/// Distributed run outcome.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// Reconstructed volume, slice-major (`fusing × num_voxels`).
    pub x: Vec<f32>,
    /// Relative residual after each iteration (from rank 0's view of the
    /// global reduced norms — identical on all ranks).
    pub residual_history: Vec<f64>,
    /// Elements exchanged per level per (back)projection pass:
    /// `(socket, node, global)`; direct mode reports all volume as
    /// global.
    pub comm_elements: (u64, u64, u64),
    /// Measured per-rank communication traffic (byte/message counts per
    /// peer and per traffic class), ordered by rank.
    pub comm_stats: Vec<RankCommStats>,
    /// Execution counters merged across all ranks.
    pub counters: ExecCounters,
    /// The scalar that ended the solve by not being finite, if one did
    /// (reduced, so the same on every rank).
    pub non_finite: Option<NonFinite>,
}

/// One rank's distributed operator for one run: the set-up's packed
/// restriction of the matrix at this run's fusing factor — one fused
/// kernel launch per apply and direction — plus compiled plan-driven
/// exchanges at wire precision `S`: one per local level and apply, one
/// global per fused slice.
struct RankOperator<'a, S> {
    comm: &'a Communicator,
    cfg: &'a DistributedConfig,
    /// This rank's compiled exchange: footprint partials in, owned rays
    /// out.
    exchange: &'a RankPlan,
    /// This rank's restriction: owned voxels in, footprint partials out.
    local: &'a PrecisionOperator,
    /// Reusable exchange buffers and the in-flight exchanges; a
    /// (never-contended) `Mutex` because `LinearOperator` takes `&self`
    /// and requires `Sync`, while the exchange needs scratch mutably.
    /// Each rank thread owns its operator, so the lock is always free.
    scratch: Mutex<ExchangeScratch<S>>,
}

/// This rank's operator for one run, `local` being its operator out of
/// `setup` packed for the run's request: the one place the request's
/// precision picks the storage type its exchange holds and sends.
fn rank_operator<'a>(
    comm: &'a Communicator,
    setup: &'a DistributedSetup,
    local: &'a PrecisionOperator,
) -> Box<dyn LinearOperator + 'a> {
    fn at<'a, S: StorageScalar>(
        comm: &'a Communicator,
        setup: &'a DistributedSetup,
        local: &'a PrecisionOperator,
    ) -> Box<dyn LinearOperator + 'a> {
        Box::new(RankOperator::<S> {
            comm,
            cfg: &setup.cfg,
            exchange: setup.compiled.rank(comm.rank()),
            local,
            scratch: Mutex::new(ExchangeScratch::new()),
        })
    }
    match local.precision() {
        Precision::Double => at::<f64>(comm, setup, local),
        Precision::Single => at::<f32>(comm, setup, local),
        Precision::Half | Precision::Mixed => at::<F16>(comm, setup, local),
    }
}

impl<S: StorageScalar> LinearOperator for RankOperator<'_, S> {
    fn rows(&self) -> usize {
        self.exchange.owned_len() * self.local.fusing()
    }

    fn cols(&self) -> usize {
        self.local.cols()
    }

    /// One fused SpMM over the whole minibatch, then its reduction to the
    /// ray owners ([`xct_comm::RankPlan::reduce`]: the socket/node levels
    /// of the whole batch at once — each slice quantized with the scale of
    /// this rank's own partial — then per slice the global exchange in
    /// the order [`xct_comm::protocol::apply`] lists). No collective.
    fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
        let fusing = self.local.fusing();
        let mut partial = ctx
            .workspace
            .take::<f32>(BufferRole::Forward, self.local.rows());
        self.local.apply(x, &mut partial, ctx);
        // xct-allow(no-panic): lock poisoning means this rank's thread already panicked; propagate
        let mut scratch = self.scratch.lock().expect("scratch mutex");
        self.exchange
            .reduce(
                self.comm,
                &mut scratch,
                &partial,
                fusing,
                self.cfg.overlap,
                y,
            )
            // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
            .expect("forward exchange");
        ctx.workspace.put(BufferRole::Forward, partial);
    }

    /// The scatter of the owned values back over the footprint
    /// ([`xct_comm::RankPlan::scatter`]: per slice the global scatter from
    /// the owners — each scaling the slice by its own max-norm — in
    /// the order [`xct_comm::protocol::apply`] lists, then the
    /// node/socket fan-out of the whole batch at once), then one fused
    /// transposed SpMM over the whole minibatch. No collective.
    fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
        let mut footprint = ctx
            .workspace
            .take::<f32>(BufferRole::Footprint, self.local.rows());
        {
            // xct-allow(no-panic): lock poisoning means this rank's thread already panicked; propagate
            let mut scratch = self.scratch.lock().expect("scratch mutex");
            self.exchange
                .scatter(
                    self.comm,
                    &mut scratch,
                    y,
                    self.local.fusing(),
                    self.cfg.overlap,
                    &mut footprint,
                )
                // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                .expect("transpose exchange");
        }
        self.local.apply_transpose(&footprint, x, ctx);
        ctx.workspace.put(BufferRole::Footprint, footprint);
    }
}

/// A solver's one collective per iteration (CGLS's inner products,
/// SIRT's residual norm): the element-wise sum of `products` over every
/// rank, on the run's topology.
fn inner_products(comm: &Communicator, steps: &AllreduceSteps, products: &mut [f64]) {
    let tag = Collective::INNER_PRODUCTS.tag;
    comm.allreduce(steps, tag, products)
        // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
        .expect("allreduce");
}

/// Flight-records what a measured-weight rebalance actually changed:
/// how many Hilbert tiles moved to a different rank compared to the
/// uniform (cell-count) partition, out of how many total. A post-mortem
/// flight dump then shows whether a `--weights-from` run repartitioned
/// at all and how aggressively.
fn record_rebalance_decision(
    scan: &ScanGeometry,
    ranks: usize,
    cfg: &DistributedConfig,
    weights: &[u64],
) {
    if !cfg.telemetry.is_enabled() {
        return;
    }
    let tomo = TileDecomposition::new(
        Domain2D::new(scan.grid.nx, scan.grid.nz),
        cfg.tile,
        CurveKind::Hilbert,
    );
    let moved = tomo.rehomed_tiles(ranks, weights);
    cfg.telemetry
        .flight_point("rebalance.decision", moved as u64, tomo.num_tiles() as u64);
}

/// What a packed operator depends on besides the geometry:
/// `(precision, fusing, block_size, shared_bytes)`, a request's
/// [`ReconOptions::pack_key`].
pub(crate) type PackKey = (Precision, usize, usize, usize);

/// Everything a reconstruction computes from the geometry and the
/// configuration alone, built once and reused by every batch of slices
/// that streams through it (paper §III-A2: the Siddon matrix, the
/// Hilbert decomposition and the communication structures are memoized
/// per geometry): the slice decomposition with its per-rank restricted
/// matrices, the compiled (and, under `verify_plans` or in debug builds,
/// statically verified) exchange plans, and the rank operators. One rank
/// is the serial solve; [`crate::Reconstructor`] is a 1×1×1 set-up.
pub struct DistributedSetup {
    pub(crate) scan: ScanGeometry,
    cfg: DistributedConfig,
    decomp: SliceDecomposition,
    compiled: CompiledPlans,
    comm_elements: (u64, u64, u64),
    /// Every rank's operator, packed for one key and replaced when a call
    /// asks for another: the tree's one packed-operator cache.
    packed: Mutex<Option<(PackKey, Arc<[PrecisionOperator]>)>>,
}

impl DistributedSetup {
    /// Traces the Siddon matrix of `scan` (by angle, on every core:
    /// [`SystemMatrix::build`]), decomposes it among the ranks of
    /// `cfg.topology` (weighted by `cfg.tile_weights` when present; each
    /// rank's operator restricted in one counting pass over the matrix),
    /// plans and compiles the partial-data exchange, and verifies the
    /// compiled plan. What [`DistributedConfig::request`] holds —
    /// algorithm, precision, fusing, iterations, kernel shape — is not
    /// read: [`DistributedSetup::run`] takes it per call.
    ///
    /// # Panics
    /// Panics when the weights' tile size contradicts `cfg.tile`, or
    /// with the full diagnostic listing when plan verification finds a
    /// violation.
    pub fn build(scan: &ScanGeometry, cfg: &DistributedConfig) -> Self {
        Self::from_matrix(&SystemMatrix::build(scan), scan.clone(), cfg)
    }

    /// [`build`](Self::build) on `sm`, `scan`'s Siddon matrix traced already.
    pub(crate) fn from_matrix(
        sm: &SystemMatrix,
        scan: ScanGeometry,
        cfg: &DistributedConfig,
    ) -> Self {
        let ranks = cfg.topology.size();
        if let Some(tw) = &cfg.tile_weights {
            assert_eq!(
                tw.tile_size, cfg.tile,
                "weights were measured at tile size {}, run uses {}",
                tw.tile_size, cfg.tile
            );
            record_rebalance_decision(&scan, ranks, cfg, &tw.weights);
        }
        let decomp = SliceDecomposition::build_weighted(
            sm,
            &scan,
            ranks,
            cfg.tile,
            CurveKind::Hilbert,
            cfg.tile_weights.as_ref().map(|tw| tw.weights.as_slice()),
        );
        let ownership = decomp.ray_ownership();
        // Direct exchange is the hierarchy of one-GPU nodes: both local
        // levels are empty and compile to nothing.
        let plan_topology = if cfg.hierarchical {
            cfg.topology
        } else {
            Topology::new(ranks, 1, 1)
        };
        let plan = HierarchicalPlan::build(&decomp.footprints, &ownership, &plan_topology);
        // Compile the plan once into per-peer index tables; every rank
        // then executes pure index arithmetic with zero steady-state
        // allocations. Debug builds always statically verify the plan —
        // against the topology the ranks run on — before running it;
        // release builds do so under `--verify-plans`.
        let compiled = CompiledPlans::compile_hierarchical(&decomp.footprints, &ownership, &plan);
        if cfg.verify_plans || cfg!(debug_assertions) {
            xct_verify::verify_all_hierarchical(
                &decomp.footprints,
                &ownership,
                &cfg.topology,
                &plan,
                &compiled,
                cfg.overlap,
            )
            .assert_ok("communication plan");
        }
        DistributedSetup {
            scan,
            cfg: cfg.clone(),
            decomp,
            compiled,
            comm_elements: plan.level_elements(),
            packed: Mutex::new(None),
        }
    }

    /// Every rank's operator packed for `key` under the scan's Hilbert
    /// orders at the key's block size ([`packing_orders`]), ordered by
    /// rank, unless the previous call used the same key; the old entry
    /// is dropped first, so at most one packing is resident.
    ///
    /// Ranks are packed one after the other, each across every core:
    /// [`PrecisionOperator::ordered`] narrows the values in bulk, takes
    /// `Aᵀ` from the typed matrix and fans the blocks of each matrix out
    /// on [`xct_exec::Executor::parallel`] into arrays allocated on this
    /// thread. Rank threads have not started yet, so the cores are free;
    /// packing whole ranks on threads of their own instead kept every
    /// rank's transients alive at once in worker malloc arenas and
    /// raised peak RSS by a third to a half (DESIGN.md, "Set-up on every
    /// core").
    pub(crate) fn operators(&self, key: PackKey) -> Arc<[PrecisionOperator]> {
        // A panic while packing leaves `None` behind — a valid entry — so
        // a poisoned lock is recovered, not propagated.
        let mut entry = self.packed.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, operators)) = entry.as_ref().filter(|(k, _)| *k == key) {
            return Arc::clone(operators);
        }
        *entry = None;
        let (precision, fusing, block_size, shared_bytes) = key;
        let (rays, voxels) = packing_orders(&self.scan, block_size);
        let operators: Arc<[PrecisionOperator]> = self
            .decomp
            .local_ops
            .iter()
            .map(|op| {
                let (rows, cols) = op.packing_orders(&rays, &voxels);
                PrecisionOperator::ordered(
                    &op.csr,
                    (&rows, &cols),
                    precision,
                    fusing,
                    block_size,
                    shared_bytes,
                )
            })
            .collect();
        *entry = Some((key, Arc::clone(&operators)));
        operators
    }

    /// Reconstructs one batch of `opts.fusing` slices that share the
    /// set-up's geometry with `opts.algorithm`, on the operator packed
    /// for `opts` (`ReconOptions::pack_key`). `sinogram` is slice-major
    /// (`fusing × num_rays`). Returns the assembled volume and the run's
    /// counters (`ctx`'s are left as they were). Batches are
    /// independent: nothing but the memoized structures carries over.
    ///
    /// This is the one place a reconstruction chooses its solver; every
    /// entry point — [`crate::Reconstructor::reconstruct_in`],
    /// [`reconstruct_distributed`], [`crate::reconstruct_planned`] —
    /// reaches it. One rank solves in `ctx` on the calling thread — no
    /// rank thread, exchange, wire quantization or collective, so the
    /// result is the serial solve's bit for bit — with launches fanned
    /// out over `ctx`'s executor. More ranks run a thread each in a
    /// serial context of its own, recording on a fork of
    /// `ctx.telemetry`, and sum the solver's inner products over the
    /// ranks.
    pub fn run(
        &self,
        sinogram: &[f32],
        opts: &ReconOptions,
        ctx: &mut ExecContext,
    ) -> DistributedResult {
        let (num_rays, fusing) = (self.scan.num_rays(), opts.fusing);
        assert_eq!(
            sinogram.len(),
            num_rays * fusing,
            "sinogram length mismatch: {} vs {num_rays}×{fusing}",
            sinogram.len()
        );
        let operators = self.operators(opts.pack_key());
        let solve = |op: &dyn LinearOperator,
                     y: &[f32],
                     ctx: &mut ExecContext,
                     reduce: &mut dyn FnMut(&mut [f64])|
         -> CglsReport {
            let max_iters = opts.iterations;
            match opts.algorithm {
                Algorithm::Cgls { damping } => cgls_in(
                    op,
                    y,
                    &CglsConfig {
                        max_iters,
                        tolerance: 0.0,
                        damping,
                    },
                    ctx,
                    reduce,
                ),
                Algorithm::Sirt => sirt_in(
                    op,
                    y,
                    &SirtConfig {
                        max_iters,
                        relaxation: 1.0,
                        nonneg: true,
                        tolerance: 0.0,
                    },
                    ctx,
                    reduce,
                ),
            }
        };
        if let [serial] = &*operators {
            // The lone rank owns every ray and voxel in ascending order,
            // so its local vectors are the global ones.
            let outer = std::mem::take(&mut ctx.counters);
            ctx.precision = opts.precision;
            let report = solve(serial, sinogram, ctx, &mut |_| {});
            let counters = std::mem::replace(&mut ctx.counters, outer);
            return DistributedResult {
                x: report.x,
                residual_history: report.residual_history,
                comm_elements: self.comm_elements,
                comm_stats: vec![RankCommStats::default()],
                counters,
                non_finite: report.non_finite,
            };
        }
        let (cfg, decomp) = (&self.cfg, &self.decomp);
        let world = RankOptions {
            telemetry: ctx.telemetry.clone(),
            wire: cfg.wire,
            ..RankOptions::default()
        };
        let outputs = run_ranks_with(decomp.ranks, &world, |comm| {
            let rank_op = rank_operator(comm, self, &operators[comm.rank()]);
            let steps = AllreduceSteps::build(&cfg.topology, comm.rank());
            let y_local = decomp.restrict_sinogram(sinogram, num_rays, fusing, comm.rank());
            // One context per rank — each simulated GPU owns its workspace.
            // The rank's telemetry handle is the communicator's fork, so
            // solver spans and exchange spans nest on one per-rank track.
            let mut ctx = ExecContext::serial()
                .with_precision(opts.precision)
                .with_telemetry(comm.telemetry().clone());
            let report = solve(&*rank_op, &y_local, &mut ctx, &mut |products| {
                inner_products(comm, &steps, products);
            });
            (report, comm.comm_stats(), ctx.counters)
        });

        let pieces: Vec<Vec<f32>> = outputs.iter().map(|(r, _, _)| r.x.clone()).collect();
        let x = decomp.assemble_volume(&pieces, self.scan.grid.voxels(), fusing);
        let comm_stats: Vec<RankCommStats> = outputs.iter().map(|(_, s, _)| s.clone()).collect();
        let mut counters = ExecCounters::default();
        for (_, _, c) in &outputs {
            counters.merge(c);
        }
        DistributedResult {
            x,
            residual_history: outputs[0].0.residual_history.clone(),
            comm_elements: self.comm_elements,
            comm_stats,
            counters,
            non_finite: outputs[0].0.non_finite,
        }
    }
}

/// Runs a complete distributed reconstruction of `cfg.fusing` slices
/// that share the geometry `scan`: [`DistributedSetup::build`] followed
/// by one [`DistributedSetup::run`] of [`DistributedConfig::request`] in
/// a serial context recording on `cfg.telemetry`. `sinogram` is
/// slice-major (`fusing × num_rays`). Returns the assembled volume.
pub fn reconstruct_distributed(
    scan: &ScanGeometry,
    sinogram: &[f32],
    cfg: &DistributedConfig,
) -> DistributedResult {
    let mut ctx = ExecContext::serial().with_telemetry(cfg.telemetry.clone());
    DistributedSetup::build(scan, cfg).run(sinogram, &cfg.request(), &mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::run_ranks;
    use xct_geometry::ImageGrid;
    use xct_solver::{cgls, SystemMatrixOperator};

    /// The relative error of `x` against `reference` and the largest
    /// gap between their residual histories, which must be as long.
    fn gaps(x: &[f32], history: &[f64], reference: &CglsReport) -> (f64, f64) {
        assert_eq!(history.len(), reference.residual_history.len());
        let worst = history
            .iter()
            .zip(&reference.residual_history)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        (rel_err(x, &reference.x), worst)
    }

    /// `(topology, precision, fusing, shared bytes, digest)`: the packed
    /// layouts of every rank's `A` and `Aᵀ`, recorded before the set-up
    /// was threaded. The last two rows stage into a buffer small enough
    /// to cut blocks into several stages.
    type GoldenLayout = ((usize, usize, usize), Precision, usize, usize, u64);
    const GOLDEN_LAYOUTS: [GoldenLayout; 20] = [
        ((1, 1, 1), Precision::Double, 1, 0, 0x8da3a202c6c8b23b),
        ((1, 1, 1), Precision::Double, 4, 0, 0x14efda36157c0fd5),
        ((1, 1, 1), Precision::Double, 8, 0, 0x49bb42bff0693481),
        ((1, 1, 1), Precision::Single, 1, 0, 0x0dbb14d2f9e852c7),
        ((1, 1, 1), Precision::Single, 4, 0, 0x379cd673282034b9),
        ((1, 1, 1), Precision::Single, 8, 0, 0x9177bc5209808939),
        ((1, 1, 1), Precision::Mixed, 1, 0, 0x0e52cff9ff893d9f),
        ((1, 1, 1), Precision::Mixed, 4, 0, 0xe31746bd9aebd199),
        ((1, 1, 1), Precision::Mixed, 8, 0, 0xf9f7df9042854a39),
        ((1, 2, 2), Precision::Double, 1, 0, 0x67e1dcf6243af8d7),
        ((1, 2, 2), Precision::Double, 4, 0, 0xc18aaa9937303637),
        ((1, 2, 2), Precision::Double, 8, 0, 0xdbca0d4cee78f273),
        ((1, 2, 2), Precision::Single, 1, 0, 0xc54fd0ba131e4eeb),
        ((1, 2, 2), Precision::Single, 4, 0, 0xf0f7846e425fe4a3),
        ((1, 2, 2), Precision::Single, 8, 0, 0x0e56d7c5c5b9a9c3),
        ((1, 2, 2), Precision::Mixed, 1, 0, 0xead18861d831a563),
        ((1, 2, 2), Precision::Mixed, 4, 0, 0xd16de506ca70075b),
        ((1, 2, 2), Precision::Mixed, 8, 0, 0xb7bdc25114c4f133),
        ((1, 1, 1), Precision::Mixed, 4, 1024, 0xb7677b9dbd7918c8),
        ((1, 2, 2), Precision::Double, 4, 2048, 0xf8a6e8a243f0c990),
    ];

    /// Every packed byte the set-up produces — rows, stage maps, group
    /// ends, and the bits of every round index and length, of `A` and
    /// `Aᵀ` on every rank — is the recorded one, for f64, f32 and `F16`
    /// storage (Mixed and Half share `F16`), one rank and 1×2×2, fusing 1,
    /// 4 and 8, and multi-stage blocks.
    #[test]
    fn packed_layouts_are_the_recorded_ones() {
        let scan = ScanGeometry::uniform(ImageGrid::square(32, 1.0), 28);
        let mut wrong = Vec::new();
        for ((nodes, sockets, gpus), precision, fusing, shared, want) in GOLDEN_LAYOUTS {
            let cfg = DistributedConfig {
                topology: Topology::new(nodes, sockets, gpus),
                precision,
                ..Default::default()
            };
            let bytes = if shared == 0 {
                cfg.shared_bytes
            } else {
                shared
            };
            let setup = DistributedSetup::build(&scan, &cfg);
            let operators = setup.operators((precision, fusing, cfg.block_size, bytes));
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for op in operators.iter() {
                let (a, at) = op.layout_digests();
                for d in [a, at] {
                    digest = (digest ^ d).wrapping_mul(0x0100_0000_01b3);
                }
                if bytes < cfg.shared_bytes {
                    let blocks = (op.rows() / fusing).div_ceil(cfg.block_size);
                    assert!(op.stage_counts().0 > blocks, "blocks are cut into stages");
                }
            }
            if digest != want {
                wrong.push(format!(
                    "(({nodes}, {sockets}, {gpus}), Precision::{precision:?}, {fusing}, {shared}, {digest:#018x})"
                ));
            }
        }
        assert!(wrong.is_empty(), "layouts moved:\n{}", wrong.join("\n"));
    }

    fn phantom_sinogram(scan: &ScanGeometry, fusing: usize) -> (SystemMatrix, Vec<f32>, Vec<f32>) {
        let sm = SystemMatrix::build(scan);
        let n = scan.grid.nx;
        let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
        for f in 0..fusing {
            for i in 0..sm.num_voxels() {
                let (ix, iz) = (
                    (i % n) as f32 - n as f32 / 2.0 + 0.5,
                    (i / n) as f32 - n as f32 / 2.0 + 0.5,
                );
                let r2 = ix * ix + iz * iz;
                x_true[f * sm.num_voxels() + i] = if r2 < (n as f32 / 3.0).powi(2) {
                    0.8 + 0.1 * f as f32
                } else {
                    0.0
                };
            }
        }
        let mut y = vec![0.0f32; sm.num_rays() * fusing];
        for f in 0..fusing {
            sm.project(
                &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
            );
        }
        (sm, x_true, y)
    }

    fn rel_err(a: &[f32], b: &[f32]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(&p, &q)| (f64::from(p) - f64::from(q)).powi(2))
            .sum();
        let den: f64 = b.iter().map(|&q| f64::from(q).powi(2)).sum();
        (num / den.max(1e-30)).sqrt()
    }

    #[test]
    fn distributed_matches_single_process_reference() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let (sm, _x_true, y) = phantom_sinogram(&scan, 1);
        // Single-process reference CGLS.
        let reference = cgls(
            &SystemMatrixOperator::new(&sm),
            &y,
            &CglsConfig {
                max_iters: 12,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        // Distributed, single precision (no quantization noise), direct.
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            fusing: 1,
            hierarchical: false,
            iterations: 12,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &cfg);
        let err = rel_err(&dist.x, &reference.x);
        assert!(err < 5e-3, "distributed vs reference error {err}");
        // Residual histories agree too.
        for (a, b) in dist
            .residual_history
            .iter()
            .zip(&reference.residual_history)
        {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// SIRT and damped CGLS run on ranks like undamped CGLS: on 1×2×2 in
    /// single precision each lands within the single-process solve's
    /// bounds above.
    #[test]
    fn sirt_and_damped_cgls_match_the_single_process_reference() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let (sm, _x_true, y) = phantom_sinogram(&scan, 1);
        let op = SystemMatrixOperator::new(&sm);
        let iterations = 12;
        let sirt = SirtConfig {
            max_iters: iterations,
            relaxation: 1.0,
            nonneg: true,
            tolerance: 0.0,
        };
        let damped = CglsConfig {
            max_iters: iterations,
            tolerance: 0.0,
            damping: 0.5,
        };
        let serial = &mut ExecContext::serial();
        for (algorithm, reference) in [
            (
                Algorithm::Sirt,
                sirt_in(&op, &y, &sirt, serial, &mut |_| {}),
            ),
            (Algorithm::Cgls { damping: 0.5 }, cgls(&op, &y, &damped)),
        ] {
            let cfg = DistributedConfig {
                topology: Topology::new(1, 2, 2),
                precision: Precision::Single,
                algorithm,
                iterations,
                ..Default::default()
            };
            let dist = reconstruct_distributed(&scan, &y, &cfg);
            let (err, history) = gaps(&dist.x, &dist.residual_history, &reference);
            assert!(err < 5e-3, "{algorithm:?}: error {err}");
            assert!(history < 1e-3, "{algorithm:?}: history gap {history}");
        }
    }

    #[test]
    fn hierarchical_equals_direct_distributed() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let base = DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Single,
            fusing: 1,
            iterations: 8,
            ..Default::default()
        };
        let direct = reconstruct_distributed(
            &scan,
            &y,
            &DistributedConfig {
                hierarchical: false,
                ..base.clone()
            },
        );
        let hier = reconstruct_distributed(
            &scan,
            &y,
            &DistributedConfig {
                hierarchical: true,
                ..base
            },
        );
        let err = rel_err(&hier.x, &direct.x);
        assert!(err < 1e-4, "hierarchical vs direct error {err}");
    }

    #[test]
    fn mixed_precision_distributed_converges() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let (sm, x_true, y) = phantom_sinogram(&scan, 1);
        let cfg = DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Mixed,
            fusing: 1,
            hierarchical: true,
            iterations: 25,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &cfg);
        let _ = sm;
        let err = rel_err(&dist.x, &x_true);
        assert!(err < 0.15, "mixed distributed reconstruction error {err}");
        // Residuals descend.
        let hist = &dist.residual_history;
        assert!(
            hist.last().unwrap() < &0.1,
            "final residual {}",
            hist.last().unwrap()
        );
    }

    #[test]
    fn mixed_precision_distributed_sirt_converges() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let (_, x_true, y) = phantom_sinogram(&scan, 1);
        let cfg = DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Mixed,
            algorithm: Algorithm::Sirt,
            iterations: 40,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &cfg);
        let err = rel_err(&dist.x, &x_true);
        assert!(err < 0.1, "mixed distributed SIRT error {err}");
        let hist = &dist.residual_history;
        assert!(
            hist.last().unwrap() < &0.05,
            "final residual {}",
            hist.last().unwrap()
        );
    }

    #[test]
    fn fused_slices_reconstruct_together() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 16);
        let fusing = 3;
        let (sm, x_true, y) = phantom_sinogram(&scan, fusing);
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            fusing,
            hierarchical: true,
            iterations: 20,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &cfg);
        for f in 0..fusing {
            let err = rel_err(
                &dist.x[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            );
            assert!(err < 0.15, "slice {f} error {err}");
        }
    }

    #[test]
    fn rank_operator_is_adjoint_across_ranks() {
        // ⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩ must hold for the *distributed* operator:
        // partial SpMM + exchange on the forward side against scatter +
        // transposed SpMM on the backward side, summed over all ranks.
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        for &(precision, hierarchical, tol) in &[
            (Precision::Single, false, 1e-6),
            (Precision::Single, true, 1e-6),
            (Precision::Double, true, 1e-6),
            (Precision::Mixed, true, 2e-2),
            (Precision::Half, true, 5e-2),
        ] {
            let cfg = DistributedConfig {
                topology: Topology::new(1, 2, 2),
                precision,
                fusing: 1,
                hierarchical,
                iterations: 1,
                ..Default::default()
            };
            let ranks = cfg.topology.size();
            let setup = DistributedSetup::build(&scan, &cfg);
            let operators = setup.operators((precision, 1, cfg.block_size, cfg.shared_bytes));
            let (setup, decomp) = (&setup, &setup.decomp);
            let x_global: Vec<f32> = (0..sm.num_voxels())
                .map(|i| ((i * 23 + 7) % 41) as f32 / 41.0)
                .collect();
            let y_global: Vec<f32> = (0..sm.num_rays())
                .map(|i| ((i * 17 + 3) % 29) as f32 / 29.0)
                .collect();
            let outputs = run_ranks(ranks, |comm| {
                let rank = comm.rank();
                let rank_op = rank_operator(comm, setup, &operators[rank]);
                let mut ctx = ExecContext::serial();
                let x_local: Vec<f32> = decomp.owned_voxels[rank]
                    .iter()
                    .map(|&v| x_global[v as usize])
                    .collect();
                let y_local: Vec<f32> = decomp.owned_rays[rank]
                    .iter()
                    .map(|&r| y_global[r as usize])
                    .collect();
                let mut ax = vec![0.0f32; rank_op.rows()];
                rank_op.apply(&x_local, &mut ax, &mut ctx);
                let lhs_part: f64 = ax
                    .iter()
                    .zip(&y_local)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let mut aty = vec![0.0f32; rank_op.cols()];
                rank_op.apply_transpose(&y_local, &mut aty, &mut ctx);
                let rhs_part: f64 = aty
                    .iter()
                    .zip(&x_local)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let lhs = comm.allreduce_sum(0x6000, lhs_part).expect("allreduce");
                let rhs = comm.allreduce_sum(0x6002, rhs_part).expect("allreduce");
                (lhs, rhs)
            });
            let (lhs, rhs) = outputs[0];
            assert!(
                (lhs - rhs).abs() <= tol * lhs.abs().max(1.0),
                "{precision:?} hier={hierarchical}: ⟨Ax,y⟩ = {lhs} vs ⟨x,Aᵀy⟩ = {rhs}"
            );
        }
    }

    /// A rank's operator whose forward output gets a NaN on iteration
    /// `at`'s apply when `poisoned`.
    struct NanAt<'a> {
        inner: Box<dyn LinearOperator + 'a>,
        poisoned: bool,
        at: usize,
        applies: std::sync::atomic::AtomicUsize,
    }

    impl LinearOperator for NanAt<'_> {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
            self.inner.apply(x, y, ctx);
            let call = 1 + self
                .applies
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.poisoned && call == self.at {
                y[0] = f32::NAN;
            }
        }
        fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
            self.inner.apply_transpose(y, x, ctx);
        }
    }

    #[test]
    fn a_non_finite_scalar_on_one_rank_stops_every_rank_on_a_finite_iterate() {
        // Rank 0's projection turns NaN on iteration 3. ‖t‖², and with it
        // δ, is allreduced, so every rank sees the NaN, stops there and
        // names it (δ in iteration 3): two recorded
        // iterations, unconverged, a finite iterate and history on all —
        // on every wire width, so the NaN also crosses the half wire's
        // bulk conversions.
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        for precision in [Precision::Single, Precision::Mixed, Precision::Double] {
            let cfg = DistributedConfig {
                topology: Topology::new(1, 2, 2),
                precision,
                ..Default::default()
            };
            let setup = DistributedSetup::build(&scan, &cfg);
            let operators = setup.operators((cfg.precision, 1, cfg.block_size, cfg.shared_bytes));
            let (setup, y) = (&setup, &y);
            let solve = CglsConfig {
                max_iters: 8,
                tolerance: 0.0,
                damping: 0.0,
            };
            let reports = run_ranks(cfg.topology.size(), |comm| {
                let steps = AllreduceSteps::build(&cfg.topology, comm.rank());
                let op = NanAt {
                    inner: rank_operator(comm, setup, &operators[comm.rank()]),
                    poisoned: comm.rank() == 0,
                    at: 3,
                    applies: Default::default(),
                };
                let rays = setup.scan.num_rays();
                let y_local = setup.decomp.restrict_sinogram(y, rays, 1, comm.rank());
                let mut ctx = ExecContext::serial();
                cgls_in(&op, &y_local, &solve, &mut ctx, &mut |products| {
                    inner_products(comm, &steps, products);
                })
            });
            for (rank, report) in reports.iter().enumerate() {
                let case = format!("{precision:?} rank {rank}");
                assert_eq!(report.iterations, 2, "{case}");
                assert!(!report.converged, "{case}");
                let fault = NonFinite {
                    iteration: 3,
                    what: "delta",
                };
                assert_eq!(report.non_finite, Some(fault), "{case}");
                assert!(report.x.iter().all(|v| v.is_finite()), "{case}");
                assert!(
                    report.residual_history.iter().all(|r| r.is_finite()),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn extreme_values_through_the_operator_give_nan_free_rows() {
        // §III-C1 per sender at the edges of `f32` (the scale rule's own
        // edges are `xct-fp16`'s `extreme_maxima_get_finite_factors_and_nan_free_rows`).
        // Through the operator, half on the wire. Forward: voxels at the
        // smallest normal give partial maxima a few path lengths above it;
        // voxels near `f32::MAX` overflow the partials, so a sender's
        // maximum is infinite. Transpose: the maximum is that of the
        // rays themselves, subnormal or the smallest normal.
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Mixed,
            ..Default::default()
        };
        let setup = DistributedSetup::build(&scan, &cfg);
        let operators = setup.operators((cfg.precision, 1, cfg.block_size, cfg.shared_bytes));
        let setup = &setup;
        for (voxel, ray) in [(f32::MIN_POSITIVE, 1e-40), (3e38, f32::MIN_POSITIVE)] {
            let outputs = run_ranks(cfg.topology.size(), |comm| {
                let rank_op = rank_operator(comm, setup, &operators[comm.rank()]);
                let mut ctx = ExecContext::serial();
                let mut ax = vec![0.0f32; rank_op.rows()];
                rank_op.apply(&vec![voxel; rank_op.cols()], &mut ax, &mut ctx);
                let mut aty = vec![0.0f32; rank_op.cols()];
                rank_op.apply_transpose(&vec![ray; rank_op.rows()], &mut aty, &mut ctx);
                (ax, aty)
            });
            for (rank, (ax, aty)) in outputs.iter().enumerate() {
                assert!(
                    !ax.iter().chain(aty).any(|v| v.is_nan()),
                    "rank {rank}: voxels {voxel:e}, rays {ray:e}"
                );
                assert!(ax.iter().any(|&v| v > 0.0), "rank {rank}: A·{voxel:e}");
            }
        }
    }

    /// A traced 3-slice hierarchical 1×2×2 run under the given schedule.
    fn traced_three_slice_run(overlap: bool) -> xct_telemetry::TelemetrySnapshot {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 16);
        let fusing = 3;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            fusing,
            hierarchical: true,
            overlap,
            iterations: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &cfg);
        telemetry.snapshot()
    }

    /// Whether, on some rank, two exchanges of `phase` were in flight at
    /// once: among the rank's `phase` spans, in opening order, two
    /// drains (`*_finish`: a `phase` span with a `CommWait` child) follow
    /// each other with nothing between them. Every drain follows its own
    /// post (`*_begin`: a `phase` span without one), so the second
    /// exchange was posted before the first drained. The spans that hold
    /// and widen the batch carry no `CommWait` either; like posts, they
    /// can only separate drains, never join them.
    fn some_post_precedes_the_previous_drain_end(
        snap: &xct_telemetry::TelemetrySnapshot,
        phase: xct_exec::Phase,
    ) -> bool {
        use xct_exec::Phase;
        let is_drain = |i: usize| {
            snap.spans
                .iter()
                .any(|c| c.parent == Some(i) && c.phase == Phase::CommWait)
        };
        (0..4u32).any(|track| {
            let kinds: Vec<bool> = (snap.spans.iter().enumerate())
                .filter(|(_, s)| s.track == track && s.phase == phase)
                .map(|(i, _)| is_drain(i))
                .collect();
            assert!(kinds.contains(&false), "rank {track} posted no {phase:?}");
            assert!(kinds.contains(&true), "rank {track} drained no {phase:?}");
            kinds.windows(2).any(|pair| pair == [true, true])
        })
    }

    #[test]
    fn overlap_run_shows_global_exchange_over_spmm() {
        // The §III-E acceptance evidence, from timestamps: with overlap
        // on, some rank posts slice s+1's global exchange before slice
        // s's drain has ended — more than one exchange is in flight.
        // Spans close inside the call that opened them, so the evidence
        // cannot be nesting (and in-flight exchanges cannot inflate the
        // iteration's self time by chaining under each other).
        use xct_exec::Phase;
        let snap = traced_three_slice_run(true);
        assert!(
            some_post_precedes_the_previous_drain_end(&snap, Phase::ReduceGlobal),
            "overlap run must post a global exchange while the previous one is in flight"
        );
        // Transpose direction too: scatters posted ahead of the drains.
        assert!(
            some_post_precedes_the_previous_drain_end(&snap, Phase::HaloExchange),
            "overlap run must post a scatter while the previous one is in flight"
        );
        // No exchange span stays open across calls: every ReduceGlobal /
        // HaloExchange span hangs directly under the iteration (or the
        // solver set-up), never under another exchange.
        for s in &snap.spans {
            if matches!(s.phase, Phase::ReduceGlobal | Phase::HaloExchange) {
                let parent = s.parent.map(|i| snap.spans[i].phase);
                assert!(
                    matches!(
                        parent,
                        Some(Phase::SolverIteration) | Some(Phase::SolverSetup)
                    ),
                    "{:?} span nested under {parent:?}",
                    s.phase
                );
            }
        }
    }

    #[test]
    fn synchronous_run_keeps_spmm_outside_exchange() {
        // Control for the overlap evidence: without overlap every post
        // waits for the previous exchange's drain to end, on every rank.
        use xct_exec::Phase;
        let snap = traced_three_slice_run(false);
        assert!(
            !some_post_precedes_the_previous_drain_end(&snap, Phase::ReduceGlobal),
            "synchronous run must keep one global exchange in flight at a time"
        );
        assert!(
            !some_post_precedes_the_previous_drain_end(&snap, Phase::HaloExchange),
            "synchronous run must keep one scatter in flight at a time"
        );
        // And the fused kernels run outside any exchange span.
        let nested = snap.spans.iter().any(|s| {
            (s.phase == Phase::SpmmForward || s.phase == Phase::SpmmTranspose)
                && s.parent.is_some_and(|i| {
                    matches!(
                        snap.spans[i].phase,
                        Phase::ReduceGlobal | Phase::HaloExchange
                    )
                })
        });
        assert!(
            !nested,
            "synchronous run must not interleave SpMM with exchanges"
        );
    }

    #[test]
    fn comm_accounting_reports_hierarchy() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let cfg = DistributedConfig {
            topology: Topology::new(2, 2, 2),
            precision: Precision::Single,
            iterations: 1,
            hierarchical: true,
            ..Default::default()
        };
        let res = reconstruct_distributed(&scan, &y, &cfg);
        let (s, n, g) = res.comm_elements;
        assert!(s > 0, "socket traffic expected");
        assert!(g > 0, "global traffic expected");
        // Global (post-reduction) must not exceed socket-level input.
        assert!(g <= s + n + g);
        // Measured traffic and merged counters ride along with the plan.
        assert_eq!(res.comm_stats.len(), cfg.topology.size());
        assert!(res.comm_stats.iter().any(|st| st.total_bytes() > 0));
        assert!(res.counters.kernel_launches > 0);
        assert!(res.counters.flops > 0);
    }

    #[test]
    fn distributed_run_records_per_rank_spans() {
        use xct_exec::{Phase, Telemetry};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            iterations: 3,
            hierarchical: true,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &cfg);
        let snap = telemetry.snapshot();
        for rank in 0..cfg.topology.size() as u32 {
            let iters = snap
                .spans
                .iter()
                .filter(|s| s.track == rank && s.phase == Phase::SolverIteration)
                .count();
            assert_eq!(iters, 3, "rank {rank} iteration spans");
            assert!(
                snap.spans
                    .iter()
                    .any(|s| s.track == rank && s.phase == Phase::ReduceSocket),
                "rank {rank} socket-reduce span"
            );
        }
        // Residual events were emitted per rank per iteration.
        let events = snap
            .events
            .iter()
            .filter(|e| e.name == "cgls.residual")
            .count();
        assert_eq!(events, 3 * cfg.topology.size());
    }

    #[test]
    fn profiled_run_attributes_spmm_and_reduce_cost_to_every_rank() {
        use xct_exec::{Phase, Telemetry};
        use xct_telemetry::{CostComponent, ProfileSnapshot};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let fusing = 2;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            fusing,
            hierarchical: true,
            iterations: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &cfg);
        let snap = telemetry.snapshot();
        let profile = ProfileSnapshot::from_snapshot(&snap);
        for rank in 0..4 {
            assert!(
                profile.track_component_ns(rank, CostComponent::SpmmCompute) > 0,
                "rank {rank} recorded no SpMM cost"
            );
            assert!(
                profile.track_component_ns(rank, CostComponent::ReduceSocket) > 0,
                "rank {rank} recorded no socket-reduce cost"
            );
            // One fused launch per apply works both slices: the set-up
            // transpose and a forward and a transpose per iteration.
            let launches = snap
                .spans
                .iter()
                .filter(|s| {
                    s.track == rank as u32
                        && matches!(s.phase, Phase::SpmmForward | Phase::SpmmTranspose)
                })
                .count();
            assert_eq!(launches, 2 * 2 + 1, "one fused launch per apply");
        }
    }

    #[test]
    fn weighted_run_rebalances_and_flight_records_the_decision() {
        use xct_exec::Telemetry;
        use xct_telemetry::FlightKind;
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let (sm, x_true, y) = phantom_sinogram(&scan, 1);
        // A sharply skewed weight table: the first curve-order tiles are
        // two orders of magnitude hotter than the rest.
        let side = 16usize.div_ceil(4);
        let mut weights = vec![10u64; side * side];
        weights[0] = 1_000;
        weights[1] = 1_000;
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Single,
            iterations: 20,
            hierarchical: true,
            telemetry: telemetry.clone(),
            tile_weights: Some(xct_plan::TileWeights {
                tile_size: 4,
                weights,
            }),
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &cfg);
        // The repartitioned run still reconstructs the phantom.
        let _ = sm;
        let err = rel_err(&dist.x, &x_true);
        assert!(err < 0.15, "weighted reconstruction error {err}");
        // The flight recorder kept the rebalance decision: some tiles
        // moved, out of the full 4x4 grid.
        let decision = telemetry
            .flight_snapshot()
            .into_iter()
            .find(|e| e.kind == FlightKind::Point && e.code == "rebalance.decision")
            .expect("rebalance decision recorded");
        assert_eq!(decision.b, (side * side) as u64);
        assert!(decision.a > 0, "skewed weights must move at least one tile");
    }

    #[test]
    fn every_rank_receives_in_the_order_of_the_proved_solve() {
        // The executor runs the op list the verifier proves: on a traced,
        // wired 2×2×2 CGLS run each rank's match edges — recorded as its
        // program completes each receive — are, in order, the receives
        // of its solve lowered for the iterations that ran, on both
        // schedules. A reordered executor or a wrong lowering moves one.
        use xct_verify::{CommOp, CommProgram};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let fusing = 3;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        for overlap in [false, true] {
            let telemetry = Telemetry::enabled();
            let cfg = DistributedConfig {
                topology: Topology::new(2, 2, 2),
                precision: Precision::Mixed,
                fusing,
                iterations: 3,
                hierarchical: true,
                overlap,
                wire: Some(WireModel {
                    latency: std::time::Duration::from_micros(100),
                    bytes_per_sec: f64::INFINITY,
                    ranks_per_node: 4,
                }),
                telemetry: telemetry.clone(),
                ..Default::default()
            };
            let setup = DistributedSetup::build(&scan, &cfg);
            let mut ctx = ExecContext::serial().with_telemetry(telemetry.clone());
            let ran = setup
                .run(&y, &cfg.request(), &mut ctx)
                .residual_history
                .len()
                - 1;
            assert_eq!(ran, cfg.iterations);
            let snap = telemetry.snapshot();
            let steps = AllreduceSteps::build_all(&cfg.topology);
            let plans = &setup.compiled;
            let ops_of = |p| xct_comm::protocol::solve(plans.rank(p), fusing, overlap, ran);
            let program = CommProgram::lower(plans, &steps, ops_of);
            for (rank, ops) in program.ops.iter().enumerate() {
                let proved: Vec<(usize, u64)> = (ops.iter())
                    .filter_map(|op| match *op {
                        CommOp::Recv { from, tag } => Some((from, tag)),
                        CommOp::Send { .. } => None,
                    })
                    .collect();
                let traced: Vec<(usize, u64)> = (snap.edges.iter())
                    .filter(|e| e.dst_track as usize == rank)
                    .map(|e| (e.src_track as usize, e.tag))
                    .collect();
                assert!(!proved.is_empty());
                assert_eq!(traced, proved, "rank {rank}, overlap {overlap}");
            }
        }
    }

    #[test]
    fn traced_run_records_match_edges_and_a_dominating_critical_path() {
        // End-to-end causal evidence: a wired distributed run leaves
        // send→recv match edges in the snapshot (with wire cost on
        // inter-node ones), and the critical path computed from them
        // dominates every rank's local busy time.
        use xct_exec::Telemetry;
        use xct_telemetry::CausalAnalysis;
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let telemetry = Telemetry::enabled();
        let cfg = DistributedConfig {
            topology: Topology::new(2, 1, 2),
            precision: Precision::Single,
            iterations: 2,
            hierarchical: true,
            wire: Some(WireModel {
                latency: std::time::Duration::from_micros(200),
                bytes_per_sec: f64::INFINITY,
                ranks_per_node: 2,
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &cfg);
        let snap = telemetry.snapshot();
        assert!(!snap.edges.is_empty(), "wired run must record match edges");
        assert!(
            snap.edges.iter().any(|e| e.wire_ns >= 200_000),
            "inter-node edges must carry the wire latency"
        );
        assert!(
            snap.edges.iter().any(|e| e.wire_ns == 0),
            "intra-node edges must carry zero wire cost"
        );
        let causal = CausalAnalysis::from_snapshot(&snap);
        assert!(causal.critical_path_ns > 0);
        assert_eq!(causal.per_rank.len(), cfg.topology.size());
        for rank in &causal.per_rank {
            assert!(
                causal.critical_path_ns >= rank.busy_ns,
                "critical path {} shorter than rank {}'s busy time {}",
                causal.critical_path_ns,
                rank.track,
                rank.busy_ns
            );
            assert!(
                rank.slack_ns <= causal.critical_path_ns,
                "slack cannot exceed the critical path"
            );
        }
        assert!(
            causal.per_rank.iter().any(|r| r.slack_ns == 0),
            "some rank must bound end-to-end time"
        );
    }
}
