//! Per-layer measurements, all taken from outside the crates: set-up
//! stages replayed through their public constructors, self times read
//! from a traced repetition's snapshot, and a few probes timed alone.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use xct_comm::{CompiledPlans, DirectPlan, HierarchicalPlan, Ownership, Topology};
use xct_core::decompose::SliceDecomposition;
use xct_core::distributed::DistributedConfig;
use xct_core::ReconOptions;
use xct_exec::{ExecContext, Phase};
use xct_fp16::{Precision, StorageScalar, F16};
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_hilbert::CurveKind;
use xct_solver::PrecisionOperator;
use xct_spmm::{packed_element_bytes, spmm_reference_with, spmm_with, Csr, PackedMatrix};
use xct_telemetry::{Breakdown, CausalAnalysis, TelemetrySnapshot};

use crate::spec::{Entry, Spec};
use crate::stats::median;
use crate::workloads::{read_slices, topology, volume_meta, write_slices, ENTRY_SPAN};

/// Named samples; a metric's value is the median of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of the samples pushed under `name`; 0 when there are none
    /// (the layer is absent from this workload).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What the rank workloads' set-up leaves behind: the inputs of the
/// plan verifier and of the inter-node volume comparison.
pub struct RankSetup {
    pub topology: Topology,
    pub decomp: SliceDecomposition,
    pub ownership: Ownership,
    pub direct: DirectPlan,
    pub hier: HierarchicalPlan,
    pub compiled: CompiledPlans,
}

/// One replay of the set-up the program performs before its first
/// iteration, stage by stage, through the same public constructors
/// with the same defaults (`ReconOptions::default()` for the serial
/// entry, `DistributedConfig::default()` for the rank entries). Pushes
/// one sample per stage plus their sum as `setup_s`.
pub fn replay_setup(
    spec: &Spec,
    scan: &ScanGeometry,
    out: &mut Samples,
) -> (SystemMatrix, Option<RankSetup>) {
    let mut mark = Instant::now();
    let mut lap = || {
        let now = Instant::now();
        let seconds = (now - mark).as_secs_f64();
        mark = now;
        seconds
    };
    let mut total = 0.0;
    let mut stage = |name: &'static str, seconds: f64| {
        out.push(name, seconds);
        total += seconds;
    };

    let sm = SystemMatrix::build(scan);
    stage("geometry.siddon_build_s", lap());
    let rank_setup = match spec.entry {
        Entry::Serial => {
            let d = ReconOptions::default();
            let csr = Csr::from_system_matrix(&sm);
            black_box(PrecisionOperator::new(
                &csr,
                spec.precision,
                spec.slices,
                d.block_size,
                d.shared_bytes,
            ));
            stage("spmm.pack_s", lap());
            None
        }
        Entry::Ranks { topology: t, .. } | Entry::Streamed { topology: t, .. } => {
            let d = DistributedConfig::default();
            let topology = topology(t);
            let decomp = SliceDecomposition::build_weighted(
                &sm,
                scan,
                topology.size(),
                d.tile,
                CurveKind::Hilbert,
                None,
            );
            stage("core.decompose_s", lap());
            let ownership = decomp.ray_ownership();
            let direct = DirectPlan::build(&decomp.footprints, &ownership);
            let hier = HierarchicalPlan::build(&decomp.footprints, &ownership, &topology);
            stage("comm.plan_s", lap());
            let compiled =
                CompiledPlans::compile_hierarchical(&decomp.footprints, &ownership, &hier);
            stage("comm.compile_s", lap());
            // Each rank packs its own restriction at an internal fusing
            // of 1 (core::distributed); here one after the other.
            for op in &decomp.local_ops {
                black_box(PrecisionOperator::new(
                    &op.csr,
                    spec.precision,
                    1,
                    d.block_size,
                    d.shared_bytes,
                ));
            }
            stage("spmm.pack_s", lap());
            Some(RankSetup {
                topology,
                decomp,
                ownership,
                direct,
                hier,
                compiled,
            })
        }
    };
    out.push("setup_s", total);
    (sm, rank_setup)
}

/// Replays the set-up at least 15 times and for at least 1.5 s, so the
/// small workloads get enough samples for a steady median.
pub fn replay_setup_many(
    spec: &Spec,
    scan: &ScanGeometry,
    out: &mut Samples,
) -> (SystemMatrix, Option<RankSetup>) {
    let start = Instant::now();
    let mut last = replay_setup(spec, scan, out);
    while out.count("setup_s") < 15
        || (start.elapsed().as_secs_f64() < 1.5 && out.count("setup_s") < 400)
    {
        last = replay_setup(spec, scan, out);
    }
    last
}

impl RankSetup {
    /// 1 − hierarchical global elements ÷ direct inter-node elements
    /// (paper Table IV: 0.58–0.64). 0 on a single node, where nothing
    /// crosses nodes either way.
    pub fn internode_reduction_frac(&self) -> f64 {
        let direct = self.direct.internode_elements(&self.topology);
        if direct == 0 {
            0.0
        } else {
            1.0 - self.hier.level_elements().2 as f64 / direct as f64
        }
    }

    /// Median time of the static plan verification the release build
    /// skips, and whether it found the plan clean.
    pub fn verify(&self, overlap: bool) -> (f64, bool) {
        let mut times = Vec::new();
        let mut clean = true;
        for _ in 0..5 {
            let start = Instant::now();
            let report = xct_verify::verify_all_hierarchical(
                &self.decomp.footprints,
                &self.ownership,
                &self.topology,
                &self.hier,
                &self.compiled,
                overlap,
            );
            times.push(start.elapsed().as_secs_f64());
            clean &= report.ok();
        }
        (median(&times), clean)
    }
}

/// Bytes of the packed forward and transposed matrices of `csr` at
/// storage scalar `S`: stored elements (padding included) plus the
/// stage gather maps.
fn packed_bytes_of<S: StorageScalar>(
    csr: &Csr<f32>,
    fusing: usize,
    block: usize,
    shared: usize,
) -> u64 {
    let one = |c: &Csr<f32>| {
        let typed = Csr::<S>::from_triplets(c.num_rows(), c.num_cols(), c.triplets());
        let packed = PackedMatrix::pack(&typed, block, shared, fusing);
        let maps: usize = packed
            .blocks()
            .iter()
            .flat_map(|b| &b.stages)
            .map(|s| s.map.len())
            .sum();
        (packed.padded_nnz() * packed_element_bytes::<S>() + maps * 4) as u64
    };
    one(csr) + one(&csr.transpose())
}

/// Bytes of every packed matrix the workload keeps resident (both
/// directions; summed over ranks) — the size the "everything fits in
/// L3" statement in the README rests on.
pub fn packed_matrix_bytes(spec: &Spec, sm: &SystemMatrix, ranks: Option<&RankSetup>) -> u64 {
    let of = |csr: &Csr<f32>, fusing: usize, block: usize, shared: usize| match spec.precision {
        Precision::Double => packed_bytes_of::<f64>(csr, fusing, block, shared),
        Precision::Single => packed_bytes_of::<f32>(csr, fusing, block, shared),
        Precision::Half | Precision::Mixed => packed_bytes_of::<F16>(csr, fusing, block, shared),
    };
    match ranks {
        None => {
            let d = ReconOptions::default();
            of(
                &Csr::from_system_matrix(sm),
                spec.slices,
                d.block_size,
                d.shared_bytes,
            )
        }
        Some(r) => {
            let d = DistributedConfig::default();
            r.decomp
                .local_ops
                .iter()
                .map(|op| of(&op.csr, 1, d.block_size, d.shared_bytes))
                .sum()
        }
    }
}

/// Single-threaded f32 rates of the production panel kernel and the
/// retained reference loop on the workload's own matrix at fusing 8,
/// launches alternating so both see the same machine state:
/// `(kernel GF/s, reference GF/s)`.
pub fn kernel_rates(sm: &SystemMatrix) -> (f64, f64) {
    let fusing = 8;
    let d = ReconOptions::default();
    let csr = Csr::from_system_matrix(sm);
    let packed = PackedMatrix::pack(&csr, d.block_size, d.shared_bytes, fusing);
    let x: Vec<f32> = (0..csr.num_cols() * fusing)
        .map(|i| ((i % 13) as f32) * 0.125 - 0.5)
        .collect();
    let mut y = vec![0.0f32; csr.num_rows() * fusing];
    let mut ctx = ExecContext::serial();
    let (mut kernel, mut reference) = (Vec::new(), Vec::new());
    let mut flops = 0u64;
    // One untimed launch of each warms the context's workspace.
    for timed in [false, true, true, true, true, true, true, true] {
        let start = Instant::now();
        flops = spmm_with::<f32, f32>(&packed, black_box(&x), &mut y, &mut ctx).flops;
        let k = start.elapsed().as_secs_f64();
        black_box(&y);
        let start = Instant::now();
        spmm_reference_with::<f32, f32>(&packed, black_box(&x), &mut y, &mut ctx);
        let r = start.elapsed().as_secs_f64();
        black_box(&y);
        if timed {
            kernel.push(k);
            reference.push(r);
        }
    }
    let rate = |times: &[f64]| flops as f64 / median(times) / 1e9;
    (rate(&kernel), rate(&reference))
}

/// Whole-file read and write timed alone (no compute beside them):
/// `(read_s, write_s)`, medians of five.
pub fn io_alone(
    spec: &Spec,
    sino: &Path,
    volume: &[f32],
    workdir: &Path,
) -> Result<(f64, f64), String> {
    let probe = workdir.join("io_probe.xctd");
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let start = Instant::now();
        black_box(read_slices(sino, spec.slices)?);
        reads.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        write_slices(&probe, volume_meta(spec), volume)?;
        writes.push(start.elapsed().as_secs_f64());
    }
    Ok((median(&reads), median(&writes)))
}

/// The per-layer metric a phase's self time is reported under.
fn phase_metric(phase: Phase) -> Option<&'static str> {
    Some(match phase {
        Phase::SpmmForward => "spmm.forward_s",
        Phase::SpmmTranspose => "spmm.transpose_s",
        Phase::PrecisionConvert => "fp16.convert_s",
        Phase::SolverIteration => "solver.iteration_s",
        Phase::SolverSetup => "solver.setup_s",
        Phase::HaloExchange => "comm.halo_s",
        Phase::ReduceSocket => "comm.reduce_socket_s",
        Phase::ReduceNode => "comm.reduce_node_s",
        Phase::ReduceGlobal => "comm.reduce_global_s",
        Phase::CommWait => "comm.wait_s",
        Phase::Allreduce => "comm.allreduce_s",
        Phase::Io => "io.stall_s",
        _ => return None,
    })
}

/// Reads one traced repetition: self time per phase summed over tracks,
/// the causal critical path, the iteration count, and how much of the
/// repetition's wall time (measured from outside) the spans recorded on
/// each track account for.
pub fn read_trace(snap: &TelemetrySnapshot, wall_s: f64, out: &mut Samples) {
    let breakdown = Breakdown::from_snapshot(snap);
    for stat in &breakdown.stats {
        if let Some(name) = phase_metric(stat.phase) {
            out.push(name, stat.self_ns as f64 * 1e-9);
        }
        if stat.phase == Phase::SolverIteration {
            out.push("solver.iterations", stat.count as f64);
        }
        if stat.phase == ENTRY_SPAN {
            out.push("trace.entry_self_s", stat.self_ns as f64 * 1e-9);
        }
    }
    out.push("trace.self_total_s", breakdown.covered_ns as f64 * 1e-9);
    out.push(
        "comm.critical_path_s",
        CausalAnalysis::from_snapshot(snap).critical_path_ns as f64 * 1e-9,
    );
    // Root spans of one track never overlap, so their summed duration
    // is the time that track's self times add up to.
    let mut per_track: BTreeMap<u32, u64> = BTreeMap::new();
    for span in snap.spans.iter().filter(|s| s.parent.is_none()) {
        *per_track.entry(span.track).or_default() += span.duration_ns();
    }
    let least = per_track.values().min().copied().unwrap_or(0);
    out.push("trace.coverage_min", least as f64 * 1e-9 / wall_s);
}
