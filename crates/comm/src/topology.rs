//! Fat-node machine topology: rank ↔ (node, socket, gpu).

/// A machine of `nodes × sockets_per_node × gpus_per_socket` ranks, with
/// ranks assigned contiguously (gpu fastest, then socket, then node) —
/// matching the adjacent-subdomains-in-one-node placement of Fig 3(b).
///
/// On Summit (paper §IV-A1): sockets connect 3 GPUs with NVLink
/// (50 GB/s/link), the two sockets of a node share a 64 GB/s X-bus, and
/// nodes talk over InfiniBand. Effective measured bandwidth ratios are
/// ~100 : 15 : 1 (Table IV discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: usize,
    /// CPU sockets per node (Summit: 2).
    pub sockets_per_node: usize,
    /// GPUs per socket (Summit: 3).
    pub gpus_per_socket: usize,
}

impl Topology {
    /// Creates a topology; all dimensions must be nonzero.
    pub fn new(nodes: usize, sockets_per_node: usize, gpus_per_socket: usize) -> Self {
        assert!(
            nodes > 0 && sockets_per_node > 0 && gpus_per_socket > 0,
            "degenerate topology {nodes}x{sockets_per_node}x{gpus_per_socket}"
        );
        Topology {
            nodes,
            sockets_per_node,
            gpus_per_socket,
        }
    }

    /// Summit-like node structure with the given node count.
    pub fn summit(nodes: usize) -> Self {
        Self::new(nodes, 2, 3)
    }

    /// Total ranks (GPUs).
    pub fn size(&self) -> usize {
        self.nodes * self.sockets_per_node * self.gpus_per_socket
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.sockets_per_node * self.gpus_per_socket
    }

    /// Node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.size());
        rank / self.gpus_per_node()
    }

    /// Global socket index of a rank.
    pub fn socket_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.size());
        rank / self.gpus_per_socket
    }

    /// `(node, socket-in-node, gpu-in-socket)` of a rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        let node = self.node_of(rank);
        let within = rank % self.gpus_per_node();
        (
            node,
            within / self.gpus_per_socket,
            within % self.gpus_per_socket,
        )
    }

    /// Ranks grouped by socket, each group sorted ascending.
    pub fn socket_groups(&self) -> Vec<Vec<usize>> {
        (0..self.size() / self.gpus_per_socket)
            .map(|s| (s * self.gpus_per_socket..(s + 1) * self.gpus_per_socket).collect())
            .collect()
    }

    /// Ranks grouped by node, each group sorted ascending.
    pub fn node_groups(&self) -> Vec<Vec<usize>> {
        (0..self.nodes)
            .map(|n| (n * self.gpus_per_node()..(n + 1) * self.gpus_per_node()).collect())
            .collect()
    }
}

/// The one text form of a topology: `NxSxG` (nodes × sockets/node ×
/// GPUs/socket), as `--topology` takes it and a run document's header
/// stores it.
impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, s, g) = (self.nodes, self.sockets_per_node, self.gpus_per_socket);
        write!(f, "{n}x{s}x{g}")
    }
}

/// Parses `NxSxG`; an `Err` on anything but three nonzero factors whose
/// product (the rank count) fits a `usize`.
impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(text: &str) -> Result<Topology, String> {
        let bad = || format!("bad topology {text:?}: want NxSxG with nonzero factors");
        let factors: Vec<usize> = text
            .split('x')
            .map(|factor| factor.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        let [nodes, sockets, gpus] = factors[..] else {
            return Err(bad());
        };
        match nodes.checked_mul(sockets).and_then(|r| r.checked_mul(gpus)) {
            Some(1..) => Ok(Topology::new(nodes, sockets, gpus)),
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_round_trips_and_rejects_everything_else() {
        let t = Topology::new(4, 2, 3);
        assert_eq!(t.to_string(), "4x2x3");
        assert_eq!("4x2x3".parse(), Ok(t));
        let huge = format!("{0}x{0}x2", usize::MAX / 2 + 1);
        for bad in [
            "", "4", "4x2", "4x2x3x1", "0x2x3", "4x0x3", "4x2x0", "-1x2x3", "4x2x3.0", "4 x2x3",
            "axbxc", "4x2x", "x2x3", &huge,
        ] {
            let err = bad.parse::<Topology>().unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn summit_node_structure() {
        let t = Topology::summit(4);
        assert_eq!(t.size(), 24);
        assert_eq!(t.gpus_per_node(), 6);
        assert_eq!(t.coords_of(0), (0, 0, 0));
        assert_eq!(t.coords_of(5), (0, 1, 2));
        assert_eq!(t.coords_of(6), (1, 0, 0));
        assert_eq!(t.coords_of(23), (3, 1, 2));
    }

    #[test]
    fn groups_partition_ranks() {
        let t = Topology::new(3, 2, 4);
        let sockets = t.socket_groups();
        assert_eq!(sockets.len(), 6);
        let all: Vec<usize> = sockets.into_iter().flatten().collect();
        assert_eq!(all, (0..24).collect::<Vec<_>>());
        let nodes = t.node_groups();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1], (8..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "degenerate topology")]
    fn zero_dimension_rejected() {
        Topology::new(0, 2, 3);
    }
}
