//! Per-rank communication metering.
//!
//! Every [`Communicator`](crate::Communicator) carries a [`CommMeter`]
//! that counts messages and bytes per destination peer and per *traffic
//! class* (the level of the hierarchical plan the bytes belong to). The
//! per-peer counts reconstruct the paper's Fig. 6 communication matrices;
//! the per-class counts reconstruct the per-level reduction volumes that
//! the hierarchical scheme's 58–64% inter-node savings are measured from.
//!
//! Metering is always on: the counters are preallocated atomics, so the
//! hot send path does one atomic add per counter and never allocates.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Which stage of the communication schedule bytes belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Intra-socket reduction/scatter traffic.
    Socket = 0,
    /// Intra-node (cross-socket) reduction/scatter traffic.
    Node = 1,
    /// Global (inter-node, or direct all-to-all) traffic.
    Global = 2,
    /// Control plane: allreduces, barriers.
    Control = 3,
    /// Anything sent outside a classified scope.
    Other = 4,
}

/// Number of traffic classes (array dimension of per-class counters).
pub const TRAFFIC_CLASSES: usize = 5;

impl TrafficClass {
    /// All classes, index order.
    pub const ALL: [TrafficClass; TRAFFIC_CLASSES] = [
        TrafficClass::Socket,
        TrafficClass::Node,
        TrafficClass::Global,
        TrafficClass::Control,
        TrafficClass::Other,
    ];

    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            TrafficClass::Socket => "socket",
            TrafficClass::Node => "node",
            TrafficClass::Global => "global",
            TrafficClass::Control => "control",
            TrafficClass::Other => "other",
        }
    }

    fn from_index(i: usize) -> TrafficClass {
        Self::ALL[i]
    }
}

/// Lock-free per-rank communication counters.
///
/// One meter lives inside each `Communicator`; the send path attributes
/// every payload to the destination peer and to the currently-scoped
/// [`TrafficClass`] (default [`TrafficClass::Other`]).
#[derive(Debug)]
pub struct CommMeter {
    bytes_to: Vec<AtomicU64>,
    msgs_to: Vec<AtomicU64>,
    class_bytes: [AtomicU64; TRAFFIC_CLASSES],
    class_msgs: [AtomicU64; TRAFFIC_CLASSES],
    current_class: AtomicUsize,
}

impl CommMeter {
    /// A zeroed meter for a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        CommMeter {
            bytes_to: (0..size).map(|_| AtomicU64::new(0)).collect(),
            msgs_to: (0..size).map(|_| AtomicU64::new(0)).collect(),
            class_bytes: Default::default(),
            class_msgs: Default::default(),
            current_class: AtomicUsize::new(TrafficClass::Other as usize),
        }
    }

    /// Records one outgoing message of `bytes` payload bytes to `dst`.
    pub fn record(&self, dst: usize, bytes: usize) {
        if let Some(slot) = self.bytes_to.get(dst) {
            slot.fetch_add(bytes as u64, Ordering::Relaxed);
            self.msgs_to[dst].fetch_add(1, Ordering::Relaxed);
        }
        let class = self.current_class.load(Ordering::Relaxed);
        self.class_bytes[class].fetch_add(bytes as u64, Ordering::Relaxed);
        self.class_msgs[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Attributes sends to `class` until the returned guard drops (scopes
    /// nest; the previous class is restored).
    pub fn scope_class(&self, class: TrafficClass) -> ClassScope<'_> {
        let prev = self.current_class.swap(class as usize, Ordering::Relaxed);
        ClassScope { meter: self, prev }
    }

    /// The class sends are currently attributed to.
    pub fn current_class(&self) -> TrafficClass {
        TrafficClass::from_index(self.current_class.load(Ordering::Relaxed))
    }

    /// Copies the counters out.
    pub fn snapshot(&self, rank: usize) -> RankCommStats {
        RankCommStats {
            rank,
            bytes_to: self
                .bytes_to
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            msgs_to: self
                .msgs_to
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            class_bytes: std::array::from_fn(|i| self.class_bytes[i].load(Ordering::Relaxed)),
            class_msgs: std::array::from_fn(|i| self.class_msgs[i].load(Ordering::Relaxed)),
        }
    }
}

/// RAII guard restoring the previous traffic class on drop.
#[derive(Debug)]
#[must_use = "the class scope lasts only while this guard lives"]
pub struct ClassScope<'a> {
    meter: &'a CommMeter,
    prev: usize,
}

impl Drop for ClassScope<'_> {
    fn drop(&mut self) {
        self.meter.current_class.store(self.prev, Ordering::Relaxed);
    }
}

/// One rank's communication totals, copied out of its meter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankCommStats {
    /// The sending rank.
    pub rank: usize,
    /// Payload bytes sent to each destination rank.
    pub bytes_to: Vec<u64>,
    /// Messages sent to each destination rank.
    pub msgs_to: Vec<u64>,
    /// Payload bytes per traffic class (index = `TrafficClass as usize`).
    pub class_bytes: [u64; TRAFFIC_CLASSES],
    /// Messages per traffic class.
    pub class_msgs: [u64; TRAFFIC_CLASSES],
}

impl RankCommStats {
    /// Total payload bytes sent by this rank.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to.iter().sum()
    }

    /// Total messages sent by this rank.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_to.iter().sum()
    }

    /// Bytes sent under one traffic class.
    pub fn class_bytes_of(&self, class: TrafficClass) -> u64 {
        self.class_bytes[class as usize]
    }

    /// Adds another rank-stats record (same rank, e.g. across batches)
    /// into this one.
    pub fn merge(&mut self, other: &RankCommStats) {
        if self.bytes_to.len() < other.bytes_to.len() {
            self.bytes_to.resize(other.bytes_to.len(), 0);
            self.msgs_to.resize(other.msgs_to.len(), 0);
        }
        for (dst, &b) in other.bytes_to.iter().enumerate() {
            self.bytes_to[dst] += b;
        }
        for (dst, &m) in other.msgs_to.iter().enumerate() {
            self.msgs_to[dst] += m;
        }
        for i in 0..TRAFFIC_CLASSES {
            self.class_bytes[i] += other.class_bytes[i];
            self.class_msgs[i] += other.class_msgs[i];
        }
    }
}

/// World-level view assembled from every rank's [`RankCommStats`] — the
/// Fig. 6 analogue.
#[derive(Clone, Debug, Default)]
pub struct CommReport {
    /// Per-rank stats, sorted by rank.
    pub per_rank: Vec<RankCommStats>,
}

impl CommReport {
    /// Builds a report from per-rank snapshots (sorted by rank).
    pub fn new(mut per_rank: Vec<RankCommStats>) -> Self {
        per_rank.sort_by_key(|s| s.rank);
        CommReport { per_rank }
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// `matrix[src][dst]` = payload bytes sent from `src` to `dst`.
    pub fn byte_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.ranks();
        self.per_rank
            .iter()
            .map(|s| {
                let mut row = s.bytes_to.clone();
                row.resize(n, 0);
                row
            })
            .collect()
    }

    /// `matrix[src][dst]` = messages sent from `src` to `dst`.
    pub fn message_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.ranks();
        self.per_rank
            .iter()
            .map(|s| {
                let mut row = s.msgs_to.clone();
                row.resize(n, 0);
                row
            })
            .collect()
    }

    /// Bytes summed over all ranks, per traffic class.
    pub fn level_bytes(&self) -> [u64; TRAFFIC_CLASSES] {
        let mut out = [0u64; TRAFFIC_CLASSES];
        for stats in &self.per_rank {
            for (slot, bytes) in out.iter_mut().zip(stats.class_bytes.iter()) {
                *slot += bytes;
            }
        }
        out
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|s| s.total_bytes()).sum()
    }

    /// Renders the byte matrix as a right-aligned table (Fig. 6 style).
    pub fn render_matrix(&self) -> String {
        let matrix = self.byte_matrix();
        let width = matrix
            .iter()
            .flatten()
            .map(|v| v.to_string().len())
            .max()
            .unwrap_or(1)
            .max(3);
        let mut out = String::new();
        out.push_str(&format!("{:>6} ", "src\\dst"));
        for dst in 0..self.ranks() {
            out.push_str(&format!("{:>width$} ", dst, width = width));
        }
        out.push('\n');
        for (src, row) in matrix.iter().enumerate() {
            out.push_str(&format!("{:>6} ", src));
            for &bytes in row {
                out.push_str(&format!("{:>width$} ", bytes, width = width));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_attributes_bytes_to_peers_and_classes() {
        let meter = CommMeter::new(3);
        meter.record(1, 100);
        {
            let _socket = meter.scope_class(TrafficClass::Socket);
            meter.record(2, 40);
            {
                let _node = meter.scope_class(TrafficClass::Node);
                meter.record(0, 8);
            }
            assert_eq!(meter.current_class(), TrafficClass::Socket);
            meter.record(2, 2);
        }
        assert_eq!(meter.current_class(), TrafficClass::Other);
        let stats = meter.snapshot(7);
        assert_eq!(stats.rank, 7);
        assert_eq!(stats.bytes_to, vec![8, 100, 42]);
        assert_eq!(stats.msgs_to, vec![1, 1, 2]);
        assert_eq!(stats.class_bytes_of(TrafficClass::Other), 100);
        assert_eq!(stats.class_bytes_of(TrafficClass::Socket), 42);
        assert_eq!(stats.class_bytes_of(TrafficClass::Node), 8);
        assert_eq!(stats.total_bytes(), 150);
        assert_eq!(stats.total_msgs(), 4);
    }

    #[test]
    fn report_builds_matrices_and_levels() {
        let mut a = RankCommStats {
            rank: 0,
            bytes_to: vec![0, 10],
            msgs_to: vec![0, 1],
            ..Default::default()
        };
        a.class_bytes[TrafficClass::Global as usize] = 10;
        let mut b = RankCommStats {
            rank: 1,
            bytes_to: vec![20, 0],
            msgs_to: vec![2, 0],
            ..Default::default()
        };
        b.class_bytes[TrafficClass::Socket as usize] = 20;
        let report = CommReport::new(vec![b, a]);
        assert_eq!(report.byte_matrix(), vec![vec![0, 10], vec![20, 0]]);
        assert_eq!(report.message_matrix(), vec![vec![0, 1], vec![2, 0]]);
        let levels = report.level_bytes();
        assert_eq!(levels[TrafficClass::Socket as usize], 20);
        assert_eq!(levels[TrafficClass::Global as usize], 10);
        assert_eq!(report.total_bytes(), 30);
    }

    #[test]
    fn rank_stats_merge_accumulates() {
        let mut a = RankCommStats {
            rank: 0,
            bytes_to: vec![1, 2],
            msgs_to: vec![1, 1],
            ..Default::default()
        };
        let mut b = RankCommStats {
            rank: 0,
            bytes_to: vec![10, 20, 30],
            msgs_to: vec![1, 2, 3],
            ..Default::default()
        };
        b.class_bytes[0] = 60;
        a.merge(&b);
        assert_eq!(a.bytes_to, vec![11, 22, 30]);
        assert_eq!(a.msgs_to, vec![2, 3, 3]);
        assert_eq!(a.class_bytes[0], 60);
    }
}
