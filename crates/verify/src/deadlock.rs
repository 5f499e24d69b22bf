//! Deadlock-freedom verification of abstract communication programs.
//!
//! A [`CommProgram`] is each rank's ordered list of send/recv operations
//! — the communication skeleton of an exchange, with payloads erased.
//! Under the runtime's matching rules (buffered non-blocking sends,
//! blocking receives matched by `(source, tag)` with per-key FIFO), the
//! `i`-th receive at rank `q` for key `(p, t)` completes exactly when
//! rank `p` has executed its `i`-th send to `q` with tag `t`. The
//! program is deadlock-free iff the resulting wait-for graph — program
//! order within each rank, plus one edge from every send to the receive
//! it satisfies — admits a topological order. A cycle is reported with
//! the participating `(rank, op)` pairs; a receive whose send never
//! exists is reported as [`ViolationKind::UnmatchedRecv`] (it can only
//! time out, or steal a later exchange's message).

use crate::diag::{VerifyReport, ViolationKind};
use std::collections::HashMap;
use xct_comm::protocol::{slice_salt, Collective, ExchangeOp};
use xct_comm::{AllreduceSteps, CollectiveStep, CompiledPlans, LevelProgram, StepKind, Topology};

/// One communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// Buffered non-blocking send: executes when reached, never blocks.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
    },
    /// Blocking receive matched by `(from, tag)`.
    Recv {
        /// Expected source rank.
        from: usize,
        /// Expected tag.
        tag: u64,
    },
}

impl CommOp {
    /// The operation's tag.
    pub fn tag(self) -> u64 {
        match self {
            CommOp::Send { tag, .. } | CommOp::Recv { tag, .. } => tag,
        }
    }
}

/// Per-rank ordered operation lists.
#[derive(Debug, Clone, Default)]
pub struct CommProgram {
    /// `ops[rank]` in program order.
    pub ops: Vec<Vec<CommOp>>,
}

impl CommProgram {
    /// World size.
    pub fn num_ranks(&self) -> usize {
        self.ops.len()
    }

    /// The skeleton of one solver iteration of the distributed operator
    /// running `schedule` in both directions, payloads erased — what one
    /// CGLS step executes, call for call:
    ///
    /// * forward apply (`t = A·s`): the forward list in order, each
    ///   level lowered as the executor runs it — a local level once for
    ///   the whole batch, on its base tag (sends, then receives in plan
    ///   order); a global level
    ///   ([`ExchangeLevel::per_slice`](xct_comm::protocol::ExchangeLevel::per_slice))
    ///   per `Post(f)` with the sends of slice `f` under its salt, per
    ///   `Drain(f)` with the receives;
    /// * the iteration's one collective, the inner products;
    /// * transpose apply (`s = Aᵀ·r`): the transpose list, lowered the
    ///   same way.
    ///
    /// The applies make no collective: every sender's §III-C1 scale
    /// travels in its message header.
    pub fn operator_of(
        plans: &CompiledPlans,
        steps: &[AllreduceSteps],
        schedule: &[ExchangeOp],
    ) -> Self {
        let ops = (0..plans.num_ranks())
            .map(|p| {
                let rp = plans.rank(p);
                let mut ops = Vec::new();
                // A local level once for the whole batch, on its base
                // tag; a global level per slice, in schedule order.
                let lower = |ops: &mut Vec<CommOp>, level: &LevelProgram| {
                    if !level.level().per_slice() {
                        push_sends(ops, level, 0);
                        push_recvs(ops, level, 0);
                        return;
                    }
                    for op in schedule {
                        match *op {
                            ExchangeOp::Post(f) => push_sends(ops, level, slice_salt(f)),
                            ExchangeOp::Drain(f) => push_recvs(ops, level, slice_salt(f)),
                        }
                    }
                };
                for level in rp.forward() {
                    lower(&mut ops, level);
                }
                let tag = Collective::INNER_PRODUCTS.tag;
                ops.extend(steps[p].steps().iter().map(|s| step_op(s, tag)));
                for level in rp.transpose() {
                    lower(&mut ops, level);
                }
                ops
            })
            .collect();
        CommProgram { ops }
    }

    /// The skeleton of `rounds` back-to-back allreduces at `tag`: every
    /// rank's step list — the one the runtime executes — with payloads
    /// erased. More than one round proves that reusing the tag is safe
    /// under per-key FIFO matching.
    pub fn collective_of(steps: &[AllreduceSteps], tag: u64, rounds: usize) -> Self {
        let ops = steps
            .iter()
            .map(|program| {
                (0..rounds)
                    .flat_map(|_| program.steps().iter().map(|s| step_op(s, tag)))
                    .collect()
            })
            .collect();
        CommProgram { ops }
    }

    /// Checks deadlock freedom; violations carry the blocking cycle or
    /// the unmatched operation as witness.
    pub fn check(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        let n = self.num_ranks();
        // Node id for (rank, op index).
        let base: Vec<usize> = self
            .ops
            .iter()
            .scan(0usize, |acc, ops| {
                let b = *acc;
                *acc += ops.len();
                Some(b)
            })
            .collect();
        let total: usize = self.ops.iter().map(Vec::len).sum();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut indeg: Vec<usize> = vec![0; total];
        let mut edge = |from: usize, to: usize, succs: &mut Vec<Vec<usize>>| {
            succs[from].push(to);
            indeg[to] += 1;
        };
        // Program order.
        for (rank, ops) in self.ops.iter().enumerate() {
            for i in 1..ops.len() {
                edge(base[rank] + i - 1, base[rank] + i, &mut succs);
            }
        }
        // Match edges: i-th recv of key (from, tag) at q ↔ i-th send of
        // (to=q, tag) at `from`.
        // send_index[(src, dst, tag)] -> ordered op indices of the sends.
        let mut send_ops: HashMap<(usize, usize, u64), Vec<usize>> = HashMap::new();
        for (rank, ops) in self.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if let CommOp::Send { to, tag } = op {
                    send_ops
                        .entry((rank, *to, *tag))
                        .or_default()
                        .push(base[rank] + i);
                }
            }
        }
        let mut recv_counts: HashMap<(usize, usize, u64), usize> = HashMap::new();
        let mut matched_sends = 0usize;
        for (rank, ops) in self.ops.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if let CommOp::Recv { from, tag } = op {
                    let key = (*from, rank, *tag);
                    let k = recv_counts.entry(key).or_insert(0);
                    let sends = send_ops.get(&key).map(Vec::as_slice).unwrap_or(&[]);
                    if *from >= n || *k >= sends.len() {
                        report.push(
                            rank,
                            None,
                            ViolationKind::UnmatchedRecv {
                                peer: *from,
                                tag: *tag,
                            },
                        );
                    } else {
                        edge(sends[*k], base[rank] + i, &mut succs);
                        matched_sends += 1;
                    }
                    *k += 1;
                }
            }
        }
        // Sends beyond the receive count linger in the mailbox, where a
        // later exchange reusing the tag can cross-match them.
        let total_sends: usize = send_ops.values().map(Vec::len).sum();
        if total_sends > matched_sends {
            for ((src, dst, tag), ops) in &send_ops {
                let consumed = recv_counts.get(&(*src, *dst, *tag)).copied().unwrap_or(0);
                for _ in consumed..ops.len() {
                    report.push(
                        *src,
                        None,
                        ViolationKind::UnconsumedSend {
                            peer: *dst,
                            tag: *tag,
                        },
                    );
                }
            }
        }
        // Kahn's algorithm; whatever survives is cyclically blocked.
        let mut queue: Vec<usize> = (0..total).filter(|&v| indeg[v] == 0).collect();
        let mut done = vec![false; total];
        let mut remaining = total;
        while let Some(v) = queue.pop() {
            done[v] = true;
            remaining -= 1;
            for &w in &succs[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if remaining > 0 {
            // Extract one concrete cycle: walk predecessors among the
            // undone nodes until a repeat.
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); total];
            for (v, ss) in succs.iter().enumerate() {
                for &w in ss {
                    if !done[v] && !done[w] {
                        preds[w].push(v);
                    }
                }
            }
            // xct-allow(no-panic): infallible — remaining > 0 guarantees an undone vertex
            let start = (0..total).find(|&v| !done[v]).expect("remaining > 0");
            let mut path = vec![start];
            let mut seen: HashMap<usize, usize> = HashMap::new();
            seen.insert(start, 0);
            let cycle = loop {
                // xct-allow(no-panic): infallible — path starts non-empty and only grows
                let cur = *path.last().expect("path non-empty");
                // xct-allow(no-panic): infallible — every vertex on the path is blocked, so it has a predecessor
                let prev = preds[cur].first().copied().expect("blocked node has pred");
                if let Some(&at) = seen.get(&prev) {
                    let mut cyc: Vec<usize> = path[at..].to_vec();
                    cyc.reverse();
                    break cyc;
                }
                seen.insert(prev, path.len());
                path.push(prev);
            };
            let who = |v: usize| -> (usize, usize) {
                // xct-allow(no-panic): infallible — base starts at 0, so rposition always finds a block
                let rank = base.iter().rposition(|&b| b <= v).expect("base covers v");
                (rank, v - base[rank])
            };
            let rank0 = who(cycle[0]).0;
            report.push(
                rank0,
                None,
                ViolationKind::DeadlockCycle {
                    cycle: cycle.iter().map(|&v| who(v)).collect(),
                },
            );
        }
        report
    }
}

/// One allreduce step at base tag `tag`, payload erased.
fn step_op(step: &CollectiveStep, tag: u64) -> CommOp {
    let tag = step.leg.tag(tag);
    match step.kind {
        StepKind::Send => CommOp::Send { to: step.peer, tag },
        StepKind::RecvCombine | StepKind::RecvAssign => CommOp::Recv {
            from: step.peer,
            tag,
        },
    }
}

/// Appends one level's sends under `salt` (0 for a local level, which
/// travels on its base tag).
fn push_sends(ops: &mut Vec<CommOp>, level: &LevelProgram, salt: u64) {
    ops.extend(level.sends().iter().map(|t| CommOp::Send {
        to: t.peer,
        tag: level.level().tag() ^ salt,
    }));
}

/// Appends one level's receives under `salt`, in plan (completion)
/// order.
fn push_recvs(ops: &mut Vec<CommOp>, level: &LevelProgram, salt: u64) {
    ops.extend(level.recvs().iter().map(|t| CommOp::Recv {
        from: t.peer,
        tag: level.level().tag() ^ salt,
    }));
}

/// Verifies deadlock freedom of one iteration of the distributed
/// operator on `topo` running `schedule`
/// ([`CommProgram::operator_of`]).
pub fn verify_deadlock(
    plans: &CompiledPlans,
    topo: &Topology,
    schedule: &[ExchangeOp],
) -> VerifyReport {
    CommProgram::operator_of(plans, &AllreduceSteps::build_all(topo), schedule).check()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_programs_are_deadlock_free_and_fully_matched() {
        for (n, s, g) in [(1, 1, 1), (1, 2, 2), (2, 2, 2), (3, 1, 4), (4, 2, 3)] {
            let topo = Topology::new(n, s, g);
            let steps = AllreduceSteps::build_all(&topo);
            for rounds in [1, 3] {
                let tag = Collective::INNER_PRODUCTS.tag;
                let program = CommProgram::collective_of(&steps, tag, rounds);
                assert_eq!(program.num_ranks(), topo.size());
                let report = program.check();
                assert!(report.ok(), "{n}x{s}x{g} x{rounds}: {report}");
            }
        }
    }
}
