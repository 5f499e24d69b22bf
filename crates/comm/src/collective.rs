//! The small-vector allreduce, expressed as data: a per-rank step list
//! built from a [`Topology`].
//!
//! The partial-data exchanges reduce socket → node → global (§III-D);
//! this module gives the scalars and short vectors on every CG
//! iteration's critical path the same shape. One collective combines a
//! `&mut [f64]` element-wise across all ranks in three legs:
//!
//! * **up** — socket members send to their socket leader (the socket's
//!   lowest rank), socket leaders send to their node leader (the node's
//!   lowest rank); each leader combines what it receives in ascending
//!   source order. Node leaders beyond the largest power of two `p ≤
//!   nodes` *fold in*: leader `i ≥ p` sends its node's value to leader
//!   `i − p`.
//! * **rounds** — recursive doubling among the first `p` node leaders:
//!   in round `k` leader `i` exchanges with leader `i ^ (1 << k)` and
//!   both combine, so after `log₂ p` rounds every one of them holds the
//!   full result. This is the only leg that crosses nodes (plus one
//!   fold hop each way when `nodes` is not a power of two).
//! * **down** — the mirror image: fold-out to the excess leaders, node
//!   leader → socket leaders → members, each receiver overwriting its
//!   values with the result.
//!
//! **Canonical order.** Every combine puts the lower-ranked
//! participant's operand first, so both partners of a butterfly round
//! evaluate the same expression on the same ordered pair and the down
//! leg only copies: every rank ends with bit-identical values, and the
//! value is a pure function of `(topology, op, inputs)` — the fixed tree
//! the tests replay serially. A one-node topology degenerates to
//! gather-at-leader-then-broadcast, which is what a communicator that
//! was never told its topology runs ([`Communicator::allreduce_sum`]).
//!
//! The step list is public data so `xct-verify` derives its tag claims
//! and deadlock programs from the very steps the runtime executes.

use crate::metrics::TrafficClass;
use crate::runtime::{CommError, Communicator, REPLY_TAG_SALT};
use crate::topology::Topology;
use xct_telemetry::Phase;

/// Which leg of the collective a step belongs to; decides its wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Towards the node leaders (including the fold-in hop).
    Up,
    /// Recursive-doubling round `k` among node leaders.
    Round(u32),
    /// Back towards the members (including the fold-out hop); travels in
    /// the reserved reply-tag namespace, so a collective at tag `t` can
    /// never cross-match application traffic near `t`.
    Down,
}

impl Leg {
    /// The wire tag of this leg for a collective called with `tag`.
    pub fn tag(self, tag: u64) -> u64 {
        match self {
            Leg::Up => tag,
            Leg::Round(k) => tag ^ ((u64::from(k) + 1) << 32),
            Leg::Down => tag ^ REPLY_TAG_SALT,
        }
    }
}

/// What one step does with the rank's current values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Send the current values to the peer.
    Send,
    /// Receive the peer's values and combine them in (canonical order).
    RecvCombine,
    /// Receive the peer's values and overwrite the current ones.
    RecvAssign,
}

/// One step of a rank's collective program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveStep {
    /// What to do.
    pub kind: StepKind,
    /// With whom (a world rank).
    pub peer: usize,
    /// On which leg (decides the tag).
    pub leg: Leg,
}

/// One rank's allreduce program, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllreduceSteps {
    steps: Vec<CollectiveStep>,
}

impl AllreduceSteps {
    /// The program `rank` executes on `topo`.
    pub fn build(topo: &Topology, rank: usize) -> Self {
        assert!(rank < topo.size(), "rank {rank} outside {topo:?}");
        let gps = topo.gpus_per_socket;
        let gpn = topo.gpus_per_node();
        let (node, socket, gpu) = topo.coords_of(rank);
        let leader_of = |n: usize| n * gpn;
        let node_leader = leader_of(node);
        let socket_leader = rank - gpu;
        let mut steps = Vec::new();
        let mut push = |kind, peer, leg| steps.push(CollectiveStep { kind, peer, leg });

        if gpu != 0 {
            push(StepKind::Send, socket_leader, Leg::Up);
            push(StepKind::RecvAssign, socket_leader, Leg::Down);
            return AllreduceSteps { steps };
        }
        for g in 1..gps {
            push(StepKind::RecvCombine, rank + g, Leg::Up);
        }
        if socket != 0 {
            push(StepKind::Send, node_leader, Leg::Up);
            push(StepKind::RecvAssign, node_leader, Leg::Down);
        } else {
            for s in 1..topo.sockets_per_node {
                push(StepKind::RecvCombine, node_leader + s * gps, Leg::Up);
            }
            // Largest power of two not above the node count.
            let p = 1usize << topo.nodes.ilog2();
            if node >= p {
                push(StepKind::Send, leader_of(node - p), Leg::Up);
                push(StepKind::RecvAssign, leader_of(node - p), Leg::Down);
            } else {
                let folded = node + p < topo.nodes;
                if folded {
                    push(StepKind::RecvCombine, leader_of(node + p), Leg::Up);
                }
                for k in 0..p.ilog2() {
                    let partner = leader_of(node ^ (1 << k));
                    push(StepKind::Send, partner, Leg::Round(k));
                    push(StepKind::RecvCombine, partner, Leg::Round(k));
                }
                if folded {
                    push(StepKind::Send, leader_of(node + p), Leg::Down);
                }
            }
            for s in 1..topo.sockets_per_node {
                push(StepKind::Send, node_leader + s * gps, Leg::Down);
            }
        }
        for g in 1..gps {
            push(StepKind::Send, rank + g, Leg::Down);
        }
        AllreduceSteps { steps }
    }

    /// Every rank's program on `topo`, indexed by rank.
    pub fn build_all(topo: &Topology) -> Vec<Self> {
        (0..topo.size()).map(|r| Self::build(topo, r)).collect()
    }

    /// Assembles a program from raw steps. [`AllreduceSteps::build`] is
    /// the production constructor; this one exists so the static
    /// verifier can check *mutated* programs in its must-reject corpus.
    pub fn from_steps(steps: Vec<CollectiveStep>) -> Self {
        AllreduceSteps { steps }
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[CollectiveStep] {
        &self.steps
    }
}

impl Communicator {
    /// Element-wise sum of `vals` across all ranks, executing this
    /// rank's `steps` (every rank must pass the program built for the
    /// same topology, the same `tag` and length). On return every rank
    /// holds bit-identical results. Wire buffers come from and
    /// return to the pool, so the steady state allocates nothing.
    // xct-hot
    pub fn allreduce(
        &self,
        steps: &AllreduceSteps,
        tag: u64,
        vals: &mut [f64],
    ) -> Result<(), CommError> {
        let _class = self.meter().scope_class(TrafficClass::Control);
        let _span = self.telemetry().span(Phase::Allreduce);
        for step in steps.steps() {
            let wire_tag = step.leg.tag(tag);
            if step.kind == StepKind::Send {
                let mut buf = self.pooled_buf(vals.len() * 8);
                for v in vals.iter() {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                self.send(step.peer, wire_tag, buf)?;
                continue;
            }
            let bytes = self.recv(step.peer, wire_tag)?;
            assert_eq!(bytes.len(), vals.len() * 8, "collective length mismatch");
            for (v, chunk) in vals.iter_mut().zip(bytes.chunks_exact(8)) {
                let mut le = [0u8; 8];
                le.copy_from_slice(chunk);
                let got = f64::from_le_bytes(le);
                *v = match step.kind {
                    StepKind::RecvAssign => got,
                    _ if step.peer < self.rank() => got + *v,
                    _ => *v + got,
                };
            }
            self.recycle(bytes);
        }
        Ok(())
    }

    /// Sum-allreduce of one f64 on the communicator's own (one-node)
    /// program.
    pub fn allreduce_sum(&self, tag: u64, value: f64) -> Result<f64, CommError> {
        let mut one = [value];
        self.allreduce(self.flat_steps(), tag, &mut one)?;
        Ok(one[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_ranks_with, ChaosSchedule, RankOptions};

    /// The fixed reduction tree replayed serially: what every rank of
    /// `topo` must hold after an allreduce of `inputs[rank]`.
    /// Shares no code with the step builder — it walks groups, not steps —
    /// so the tests check one against the other.
    fn reference_allreduce(topo: &Topology, inputs: &[Vec<f64>]) -> Vec<f64> {
        let fold = |acc: &mut Vec<f64>, other: &[f64]| {
            for (a, &b) in acc.iter_mut().zip(other) {
                *a += b;
            }
        };
        let mut nodes: Vec<Vec<f64>> = topo
            .node_groups()
            .iter()
            .map(|ranks| {
                let mut node_acc: Option<Vec<f64>> = None;
                for socket in ranks.chunks(topo.gpus_per_socket) {
                    let mut acc = inputs[socket[0]].clone();
                    for &r in &socket[1..] {
                        fold(&mut acc, &inputs[r]);
                    }
                    match &mut node_acc {
                        None => node_acc = Some(acc),
                        Some(n) => fold(n, &acc),
                    }
                }
                node_acc.unwrap()
            })
            .collect();
        let p = 1usize << topo.nodes.ilog2();
        for i in p..topo.nodes {
            let excess = nodes[i].clone();
            fold(&mut nodes[i - p], &excess);
        }
        let mut dist = 1;
        while dist < p {
            let prev = nodes.clone();
            for (i, node) in nodes.iter_mut().enumerate().take(p) {
                let (lo, hi) = (i.min(i ^ dist), i.max(i ^ dist));
                *node = prev[lo].clone();
                fold(node, &prev[hi]);
            }
            dist *= 2;
        }
        nodes.swap_remove(0)
    }

    /// Topologies the properties sweep: single rank, one node, power of
    /// two and non-power-of-two node counts, lopsided shapes.
    const TOPOLOGIES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (1, 1, 5),
        (1, 2, 2),
        (2, 2, 2),
        (3, 1, 1),
        (3, 2, 2),
        (4, 1, 2),
        (5, 1, 1),
        (6, 2, 1),
    ];

    /// Deterministic per-rank inputs with mixed signs and magnitudes, so
    /// a changed summation order shows in the low bits.
    fn input(rank: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let k = (rank * 31 + i * 17 + 5) % 97;
                (k as f64 - 48.0) * 0.1 + 1e-9 * (rank as f64 + 1.0) * (i as f64 + 1.0)
            })
            .collect()
    }

    fn run_allreduce(topo: &Topology, len: usize, chaos: Option<ChaosSchedule>) -> Vec<Vec<f64>> {
        let body = |comm: &Communicator| {
            let steps = AllreduceSteps::build(topo, comm.rank());
            let mut vals = input(comm.rank(), len);
            // Twice on one tag: per-key FIFO must keep rounds apart.
            comm.allreduce(&steps, 0x7000, &mut vals).unwrap();
            let first = vals.clone();
            let mut again = input(comm.rank(), len);
            comm.allreduce(&steps, 0x7000, &mut again).unwrap();
            assert_eq!(first, again, "back-to-back collectives diverged");
            vals
        };
        let opts = RankOptions {
            chaos,
            ..RankOptions::default()
        };
        run_ranks_with(topo.size(), &opts, body)
    }

    #[test]
    fn every_rank_gets_the_fixed_tree_result_bit_for_bit() {
        for &(n, s, g) in &TOPOLOGIES {
            let topo = Topology::new(n, s, g);
            for len in 1..=16 {
                let inputs: Vec<Vec<f64>> = (0..topo.size()).map(|r| input(r, len)).collect();
                let expect = reference_allreduce(&topo, &inputs);
                let got = run_allreduce(&topo, len, None);
                for (rank, vals) in got.iter().enumerate() {
                    let same = vals
                        .iter()
                        .zip(&expect)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{n}x{s}x{g} len {len} rank {rank}: {vals:?} vs {expect:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn chaos_schedules_leave_results_unchanged() {
        for &(n, s, g) in &[(2, 2, 2), (3, 2, 2), (5, 1, 1)] {
            let topo = Topology::new(n, s, g);
            let calm = run_allreduce(&topo, 5, None);
            for seed in 0..3u64 {
                let jitter = run_allreduce(&topo, 5, Some(ChaosSchedule::jitter(seed)));
                assert_eq!(jitter, calm, "{n}x{s}x{g} jitter seed {seed}");
                let one = ChaosSchedule::delay_one(seed, topo.size());
                let delayed = run_allreduce(&topo, 5, Some(one));
                assert_eq!(delayed, calm, "{n}x{s}x{g} delay-one seed {seed}");
            }
        }
    }

    #[test]
    fn only_the_rounds_and_fold_hops_cross_nodes() {
        for &(n, s, g) in &TOPOLOGIES {
            let topo = Topology::new(n, s, g);
            let p = 1usize << n.ilog2();
            let mut crossing = 0usize;
            let mut sends = 0usize;
            for rank in 0..topo.size() {
                for step in AllreduceSteps::build(&topo, rank).steps() {
                    if step.kind != StepKind::Send {
                        continue;
                    }
                    sends += 1;
                    if topo.node_of(rank) != topo.node_of(step.peer) {
                        crossing += 1;
                        let leaders = rank % topo.gpus_per_node() == 0
                            && step.peer % topo.gpus_per_node() == 0;
                        assert!(leaders, "{n}x{s}x{g}: non-leader {rank} crosses nodes");
                    }
                }
            }
            let log2p = p.ilog2() as usize;
            assert_eq!(crossing, p * log2p + 2 * (n - p), "{n}x{s}x{g}");
            // Up and down each cost one message per non-leader.
            assert_eq!(sends, 2 * (topo.size() - n) + crossing, "{n}x{s}x{g}");
        }
    }

    #[test]
    fn legs_map_to_disjoint_tag_namespaces() {
        let t = 0x9000u64;
        assert_eq!(Leg::Up.tag(t), t);
        assert_eq!(Leg::Down.tag(t), t ^ REPLY_TAG_SALT);
        assert_ne!(Leg::Round(0).tag(t), t);
        assert_ne!(Leg::Round(0).tag(t), Leg::Round(1).tag(t));
        assert_eq!(Leg::Round(12).tag(t) & REPLY_TAG_SALT, 0);
    }
}
