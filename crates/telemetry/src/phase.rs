//! The stable phase taxonomy.
//!
//! Every span is labelled with a [`Phase`]; the names returned by
//! [`Phase::as_str`] are a public contract — they appear in the run
//! document, the Chrome trace and the breakdown table, and the
//! integration tests key on them; [`Phase::parse`] reads them back. Add
//! variants rather than renaming.

/// Where time goes in a reconstruction, at the granularity of the paper's
/// Fig. 10 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Forward projection SpMM (`A x`).
    SpmmForward,
    /// Back projection SpMM (`Aᵀ y`).
    SpmmTranspose,
    /// Precision conversion: widen/narrow or quantize/dequantize staging.
    PrecisionConvert,
    /// Intra-socket stage of a hierarchical partial-sum reduction.
    ReduceSocket,
    /// Intra-node (cross-socket) stage of a hierarchical reduction.
    ReduceNode,
    /// Global (inter-node) reduction stage, or a direct all-to-all
    /// reduction when no hierarchy is used.
    ReduceGlobal,
    /// Halo / boundary exchange scattering owned slabs back out.
    HaloExchange,
    /// Small control-plane collectives: allreduce, barrier.
    Allreduce,
    /// Blocking completion of a previously posted exchange: the time a
    /// rank spends waiting on in-flight irecvs when the overlap window
    /// closes. Kept separate from the exchange phases so pipeline stall
    /// time never inflates the enclosing compute span's self time.
    CommWait,
    /// One solver iteration (CGLS/SIRT outer step).
    SolverIteration,
    /// Solver bookkeeping outside the iteration loop: probes, initial
    /// residuals, workspace priming.
    SolverSetup,
    /// Sinogram reads and slice writes.
    Io,
    /// Root span covering an entire run; the summary's coverage figure is
    /// measured against spans like this one.
    Total,
    /// An ad-hoc phase named at the call site.
    Custom(&'static str),
}

impl Phase {
    /// The stable dotted name used across all sinks.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::SpmmForward => "spmm.forward",
            Phase::SpmmTranspose => "spmm.transpose",
            Phase::PrecisionConvert => "precision.convert",
            Phase::ReduceSocket => "comm.reduce.socket",
            Phase::ReduceNode => "comm.reduce.node",
            Phase::ReduceGlobal => "comm.reduce.global",
            Phase::HaloExchange => "comm.halo",
            Phase::Allreduce => "comm.allreduce",
            Phase::CommWait => "comm.wait",
            Phase::SolverIteration => "solver.iteration",
            Phase::SolverSetup => "solver.setup",
            Phase::Io => "io",
            Phase::Total => "total",
            Phase::Custom(name) => name,
        }
    }
}

impl Phase {
    /// Every phase but [`Phase::Custom`].
    const NAMED: [Phase; 13] = [
        Phase::SpmmForward,
        Phase::SpmmTranspose,
        Phase::PrecisionConvert,
        Phase::ReduceSocket,
        Phase::ReduceNode,
        Phase::ReduceGlobal,
        Phase::HaloExchange,
        Phase::Allreduce,
        Phase::CommWait,
        Phase::SolverIteration,
        Phase::SolverSetup,
        Phase::Io,
        Phase::Total,
    ];

    /// The phase [`Phase::as_str`] names `name`: one of the taxonomy,
    /// or a [`Phase::Custom`] one.
    pub fn parse(name: &str) -> Phase {
        (Phase::NAMED.into_iter())
            .find(|p| p.as_str() == name)
            .unwrap_or_else(|| Phase::Custom(crate::codec::intern(name)))
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let all = Phase::NAMED;
        for phase in all {
            assert_eq!(Phase::parse(phase.as_str()), phase);
        }
        assert_eq!(Phase::parse("bench.warmup"), Phase::Custom("bench.warmup"));
        let mut names: Vec<&str> = all.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "phase names must be unique");
        assert_eq!(Phase::SpmmForward.to_string(), "spmm.forward");
        assert_eq!(Phase::Custom("bench.warmup").as_str(), "bench.warmup");
    }
}
