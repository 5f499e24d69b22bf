//! The predictions written down before measuring (README "How the
//! metrics interact"), each printed as PASS or FAIL beside the measured
//! number. A FAIL is a finding about the program or about the
//! prediction, explained in the README; it does not fail the run.

use std::collections::BTreeMap;

use xct_telemetry::Json;

use crate::spec::{Entry, Spec};

pub struct Prediction {
    pub claim: String,
    pub measured: f64,
    pub pass: bool,
}

impl Prediction {
    pub fn render(&self) -> String {
        format!(
            "{} {} (measured {:.4})",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.measured
        )
    }

    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("claim", Json::from(self.claim.as_str())),
            ("measured", Json::from(self.measured)),
            ("pass", Json::from(self.pass)),
        ])
    }
}

/// What the predictions read beside the per-layer metrics.
pub struct Observed {
    /// Median traced repetition, timed from outside.
    pub traced_wall: f64,
    /// Self time summed over every phase and track of a traced repetition.
    pub self_total: f64,
    /// The least covered track's share of `traced_wall`.
    pub coverage_min: f64,
    /// Self time of the harness's span around the serial entry call.
    pub entry_self: f64,
    /// This run's untraced medians.
    pub recon_s: f64,
    pub setup_s: f64,
}

pub fn predictions(
    spec: &Spec,
    layer: &BTreeMap<&'static str, f64>,
    seen: &Observed,
) -> Vec<Prediction> {
    let Observed {
        traced_wall,
        self_total,
        coverage_min,
        entry_self,
        recon_s,
        setup_s,
    } = *seen;
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    let mut claim = |claim: &str, measured: f64, pass: bool| {
        out.push(Prediction {
            claim: claim.to_string(),
            measured,
            pass,
        });
    };

    let spmm = get("spmm.forward_s") + get("spmm.transpose_s");
    let solver = get("solver.iteration_s") + get("solver.setup_s");
    let comm: f64 = [
        "comm.halo_s",
        "comm.reduce_socket_s",
        "comm.reduce_node_s",
        "comm.reduce_global_s",
        "comm.wait_s",
        "comm.allreduce_s",
    ]
    .iter()
    .map(|n| get(n))
    .sum();

    claim(
        "solver self time (iteration + setup) is under 5 % of summed self time",
        solver / self_total,
        solver / self_total < 0.05,
    );
    let overhead = get("telemetry.trace_overhead_frac");
    claim(
        "tracing costs under 5 % of recon_s (cheap enough to leave on)",
        overhead,
        overhead < 0.05,
    );

    match spec.entry {
        Entry::Serial => {
            claim(
                "self times (harness entry span included) cover at least 90 % of traced wall",
                coverage_min,
                coverage_min >= 0.90,
            );
            claim(
                "the program's own spans cover at least 90 % of traced wall",
                coverage_min - entry_self / traced_wall,
                coverage_min - entry_self / traced_wall >= 0.90,
            );
            claim(
                "time in the entry call outside program spans is the per-call operator packing: entry self time <= spmm.pack_s",
                entry_self / get("spmm.pack_s"),
                entry_self <= get("spmm.pack_s"),
            );
            claim(
                "spmm.forward_s + spmm.transpose_s is at least 80 % of traced wall",
                spmm / traced_wall,
                spmm / traced_wall >= 0.80,
            );
            claim(
                "no comm or io phase appears (summed seconds)",
                comm + get("io.stall_s"),
                comm + get("io.stall_s") == 0.0,
            );
            let ratio = get("spmm.kernel_gflops_1t") / get("spmm.reference_gflops_1t");
            claim(
                "default-build panel kernel is slower than the reference loop (EXPERIMENTS.md: 0.89x)",
                ratio,
                ratio < 1.0,
            );
        }
        Entry::Ranks { wire: None, .. } => {
            claim(
                "single precision: fp16.convert_s is under 1 % of summed self time",
                get("fp16.convert_s") / self_total,
                get("fp16.convert_s") / self_total < 0.01,
            );
            claim(
                "one node: the global level carries 0 bytes",
                get("comm.bytes_global"),
                get("comm.bytes_global") == 0.0,
            );
            claim(
                "runtime overhead: comm self time exceeds spmm self time at zero wire cost",
                comm / spmm,
                comm > spmm,
            );
            let per_apply = get("spmm.launches") / (spec.ranks() * 2 * spec.iterations) as f64;
            claim(
                "rank operators run at an internal fusing of 1: launches per rank per apply >= slices",
                per_apply,
                per_apply >= spec.slices as f64,
            );
        }
        Entry::Ranks { wire: Some(_), .. } => {
            let waiting = get("comm.wait_s") + get("comm.allreduce_s");
            claim(
                "comm.wait_s + comm.allreduce_s is at least 50 % of summed self time",
                waiting / self_total,
                waiting / self_total >= 0.50,
            );
            claim(
                "spmm self time is under 10 % of summed self time (a kernel change moves nothing)",
                spmm / self_total,
                spmm / self_total < 0.10,
            );
            let frac = get("comm.internode_reduction_frac");
            claim(
                "hierarchy removes 58-64 % of inter-node elements (paper Table IV)",
                frac,
                (0.58..=0.64).contains(&frac),
            );
        }
        Entry::Streamed { slab_slices, .. } => {
            let slabs = spec.slices.div_ceil(slab_slices) as f64;
            claim(
                "the planner emits slices / slab_slices slabs",
                get("plan.slabs"),
                get("plan.slabs") == slabs,
            );
            claim(
                "set-up is rebuilt for every slab: slabs x setup_s is at least 25 % of recon_s",
                slabs * setup_s / recon_s,
                slabs * setup_s / recon_s >= 0.25,
            );
            claim(
                "prefetch and write-back hide the files: io.stall_s is under io.read_s + io.write_s",
                get("io.stall_s") / (get("io.read_s") + get("io.write_s")),
                get("io.stall_s") < get("io.read_s") + get("io.write_s"),
            );
        }
    }
    out
}
