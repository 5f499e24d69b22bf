//! Hierarchical cost profiling: a view of the span snapshot.
//!
//! The profile attributes span *self time* (duration minus enclosed
//! child spans) to a fixed [`CostComponent`] taxonomy, keyed by
//! `(track, component)`. Nothing is recorded for it beyond the spans
//! themselves: [`ProfileSnapshot::from_snapshot`] folds
//! [`TelemetrySnapshot::self_times`] into one row per track afterwards.
//!
//! Per-*tile* costs are deliberately **not** timed here: timing
//! individual Hilbert tiles inside the SpMM would change the summation
//! order and break bit-identity. Instead the artifact builder
//! (`xct-core`) spreads a rank's measured SpMM nanoseconds over its
//! tiles proportionally to per-tile nonzeros — see DESIGN.md §3j.

use crate::{Phase, TelemetrySnapshot};

/// The cost components the profiler attributes self time to.
///
/// The dotted names returned by [`CostComponent::as_str`] are part of
/// the `petaxct-profile-v1` schema contract; add variants rather than
/// renaming.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostComponent {
    /// Forward/transpose SpMM kernel self time.
    SpmmCompute,
    /// Precision gather/convert staging self time.
    GatherConvert,
    /// Intra-socket reduction self time.
    ReduceSocket,
    /// Intra-node (cross-socket) reduction self time.
    ReduceNode,
    /// Global exchange self time (inter-node reduce, halo scatter,
    /// control-plane collectives).
    ReduceGlobal,
    /// Blocking waits on in-flight exchanges.
    CommWait,
    /// Sinogram-read / slice-write stalls.
    IoStall,
}

/// Every component, in storage order.
pub const ALL_COMPONENTS: [CostComponent; COMPONENT_COUNT] = [
    CostComponent::SpmmCompute,
    CostComponent::GatherConvert,
    CostComponent::ReduceSocket,
    CostComponent::ReduceNode,
    CostComponent::ReduceGlobal,
    CostComponent::CommWait,
    CostComponent::IoStall,
];

/// Number of cost components (the innermost storage stride).
pub const COMPONENT_COUNT: usize = 7;

impl CostComponent {
    /// The stable dotted name used in the `petaxct-profile-v1` artifact.
    pub fn as_str(self) -> &'static str {
        match self {
            CostComponent::SpmmCompute => "spmm.compute",
            CostComponent::GatherConvert => "gather.convert",
            CostComponent::ReduceSocket => "reduce.socket",
            CostComponent::ReduceNode => "reduce.node",
            CostComponent::ReduceGlobal => "reduce.global",
            CostComponent::CommWait => "comm.wait",
            CostComponent::IoStall => "io.stall",
        }
    }

    /// This component's index in [`ALL_COMPONENTS`] (the storage slot).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a dotted component name back into a component.
    pub fn parse(name: &str) -> Option<CostComponent> {
        ALL_COMPONENTS.iter().copied().find(|c| c.as_str() == name)
    }

    /// Maps a span phase to the component its self time is charged to.
    ///
    /// Phases outside the cost taxonomy (solver bookkeeping, `Total`,
    /// custom phases) return `None` and are not attributed — their
    /// self time is orchestration, not per-tile cost.
    pub fn from_phase(phase: Phase) -> Option<CostComponent> {
        match phase {
            Phase::SpmmForward | Phase::SpmmTranspose => Some(CostComponent::SpmmCompute),
            Phase::PrecisionConvert => Some(CostComponent::GatherConvert),
            Phase::ReduceSocket => Some(CostComponent::ReduceSocket),
            Phase::ReduceNode => Some(CostComponent::ReduceNode),
            Phase::ReduceGlobal | Phase::HaloExchange | Phase::Allreduce => {
                Some(CostComponent::ReduceGlobal)
            }
            Phase::CommWait => Some(CostComponent::CommWait),
            Phase::Io => Some(CostComponent::IoStall),
            _ => None,
        }
    }
}

impl std::fmt::Display for CostComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-`(track, component)` self time of one snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Nanoseconds per component, one row per track up to the highest
    /// track that charged anything.
    pub tracks: Vec<[u64; COMPONENT_COUNT]>,
}

impl ProfileSnapshot {
    /// Folds the self time of every span whose phase maps to a
    /// [`CostComponent`] into its track's row.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> ProfileSnapshot {
        let mut profile = ProfileSnapshot::default();
        for (span, self_ns) in snap.spans.iter().zip(snap.self_times()) {
            let Some(component) = CostComponent::from_phase(span.phase) else {
                continue;
            };
            let track = span.track as usize;
            if profile.tracks.len() <= track {
                profile.tracks.resize(track + 1, [0; COMPONENT_COUNT]);
            }
            profile.tracks[track][component.index()] += self_ns;
        }
        profile
    }

    /// Nanoseconds charged to `component` on `track` (0 for a track
    /// that charged nothing).
    pub fn track_component_ns(&self, track: usize, component: CostComponent) -> u64 {
        self.tracks
            .get(track)
            .map_or(0, |row| row[component.index()])
    }

    /// Total nanoseconds charged to `component` across all tracks.
    pub fn component_ns(&self, component: CostComponent) -> u64 {
        self.tracks.iter().map(|row| row[component.index()]).sum()
    }

    /// Sum over every track and component: the total attributed time.
    pub fn total_ns(&self) -> u64 {
        self.tracks.iter().flatten().sum()
    }

    /// Whether any cost at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ns() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_names_and_indices_are_a_dense_bijection() {
        for (i, c) in ALL_COMPONENTS.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(CostComponent::parse(c.as_str()), Some(*c));
        }
        let mut names: Vec<&str> = ALL_COMPONENTS.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMPONENT_COUNT);
        assert_eq!(CostComponent::parse("no.such.component"), None);
    }

    #[test]
    fn phase_mapping_covers_the_cost_taxonomy_and_skips_orchestration() {
        use CostComponent::*;
        for (phase, component) in [
            (Phase::SpmmForward, Some(SpmmCompute)),
            (Phase::SpmmTranspose, Some(SpmmCompute)),
            (Phase::PrecisionConvert, Some(GatherConvert)),
            (Phase::ReduceSocket, Some(ReduceSocket)),
            (Phase::ReduceNode, Some(ReduceNode)),
            (Phase::ReduceGlobal, Some(ReduceGlobal)),
            (Phase::HaloExchange, Some(ReduceGlobal)),
            (Phase::Allreduce, Some(ReduceGlobal)),
            (Phase::CommWait, Some(CommWait)),
            (Phase::Io, Some(IoStall)),
            (Phase::SolverIteration, None),
            (Phase::SolverSetup, None),
            (Phase::Total, None),
            (Phase::Custom("bench.warmup"), None),
        ] {
            assert_eq!(CostComponent::from_phase(phase), component, "{phase:?}");
        }
    }
}
