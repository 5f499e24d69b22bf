//! Static verification of routing plans (`DirectPlan`, `ReductionStep`,
//! `HierarchicalPlan`) against the footprints and ownership they were
//! built from.
//!
//! These checks operate on the *row tables* of the plan, before any
//! compilation: every foreign row must be routed to exactly one correct
//! destination, senders may only transmit rows they hold, local levels
//! must stay inside their groups, and each group must designate exactly
//! one member per row. The compiled-program checker
//! ([`crate::compiled_check`]) then re-proves conservation end-to-end on
//! the lowered index programs.

use crate::diag::{VerifyReport, ViolationKind};
use std::collections::HashMap;
use xct_comm::protocol::ExchangeLevel;
use xct_comm::{DirectPlan, Footprints, HierarchicalPlan, Ownership, ReductionStep, Topology};

/// Verifies a direct plan: every rank's foreign footprint rows are sent
/// to their owner exactly once, owned rows are kept, and no rank sends a
/// row it does not hold.
pub fn verify_direct(
    footprints: &Footprints,
    ownership: &Ownership,
    plan: &DirectPlan,
) -> VerifyReport {
    verify_global_stage(footprints, ownership, plan, ExchangeLevel::Global)
}

fn verify_global_stage(
    footprints: &Footprints,
    ownership: &Ownership,
    plan: &DirectPlan,
    level: ExchangeLevel,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    for (p, sends) in plan.sends.iter().enumerate() {
        let fp = &footprints.per_rank[p];
        // How often each row leaves this rank.
        let mut sent: HashMap<u32, usize> = HashMap::new();
        for (dst, rows) in sends {
            for &r in rows {
                if fp.binary_search(&r).is_err() {
                    report.push(
                        p,
                        Some(level),
                        ViolationKind::UnheldRow { sender: p, row: r },
                    );
                    continue;
                }
                let owner = ownership.owner[r as usize] as usize;
                if *dst != owner {
                    report.push(
                        p,
                        Some(level),
                        ViolationKind::Misrouted {
                            row: r,
                            dst: *dst,
                            expected: owner,
                        },
                    );
                }
                *sent.entry(r).or_insert(0) += 1;
            }
        }
        for &r in fp {
            let owner = ownership.owner[r as usize] as usize;
            let expected = usize::from(owner != p);
            let got = sent.get(&r).copied().unwrap_or(0);
            if got != expected {
                // Owned rows are kept implicitly, so the owner side always
                // counts one extra delivery for them.
                report.push(
                    owner,
                    Some(level),
                    ViolationKind::Conservation {
                        holder: p,
                        row: r,
                        delivered: got + usize::from(owner == p),
                    },
                );
            }
        }
    }
    report
}

/// Verifies one local reduction level against the footprints feeding it:
/// within each group, every row present in the group is designated to
/// exactly one member (its entry in `step.post`), every other holder
/// sends its partial to that designee exactly once, traffic stays inside
/// the group, and nobody sends a row it does not hold.
pub fn verify_reduce_step(
    pre: &Footprints,
    step: &ReductionStep,
    level: ExchangeLevel,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    let mut group_of: HashMap<usize, usize> = HashMap::new();
    for (g, group) in step.groups.iter().enumerate() {
        for &p in group {
            group_of.insert(p, g);
        }
    }
    // Per-sender structural checks.
    for (p, sends) in step.sends.iter().enumerate() {
        let fp = &pre.per_rank[p];
        for (dst, rows) in sends {
            if group_of.get(&p) != group_of.get(dst) || !group_of.contains_key(&p) {
                report.push(
                    p,
                    Some(level),
                    ViolationKind::Malformed {
                        detail: format!("send from rank {p} to rank {dst} crosses group boundary"),
                    },
                );
            }
            for &r in rows {
                if fp.binary_search(&r).is_err() {
                    report.push(
                        p,
                        Some(level),
                        ViolationKind::UnheldRow { sender: p, row: r },
                    );
                }
            }
        }
    }
    // Per-group designation + conservation.
    for group in &step.groups {
        // Designee per row (from the post footprints).
        let mut designees: HashMap<u32, Vec<usize>> = HashMap::new();
        for &p in group {
            for &r in &step.post.per_rank[p] {
                designees.entry(r).or_default().push(p);
            }
        }
        for &p in group {
            for &r in &pre.per_rank[p] {
                let designated = designees.get(&r).map(Vec::as_slice).unwrap_or(&[]);
                if designated.len() != 1 {
                    report.push(
                        *group.first().unwrap_or(&p),
                        Some(level),
                        ViolationKind::Conservation {
                            holder: p,
                            row: r,
                            delivered: designated.len(),
                        },
                    );
                    continue;
                }
                let designee = designated[0];
                // This holder's contribution must reach the designee
                // exactly once: kept locally iff p is the designee, sent
                // exactly once otherwise.
                let sent_to_designee: usize = step.sends[p]
                    .iter()
                    .filter(|(dst, _)| *dst == designee)
                    .map(|(_, rows)| rows.iter().filter(|&&x| x == r).count())
                    .sum();
                let sent_elsewhere: usize = step.sends[p]
                    .iter()
                    .filter(|(dst, _)| *dst != designee)
                    .map(|(_, rows)| rows.iter().filter(|&&x| x == r).count())
                    .sum();
                let delivered = sent_to_designee + usize::from(p == designee);
                if delivered != 1 {
                    report.push(
                        designee,
                        Some(level),
                        ViolationKind::Conservation {
                            holder: p,
                            row: r,
                            delivered,
                        },
                    );
                }
                if sent_elsewhere != 0 {
                    report.push(
                        p,
                        Some(level),
                        ViolationKind::Misrouted {
                            row: r,
                            dst: step.sends[p]
                                .iter()
                                .find(|(dst, rows)| *dst != designee && rows.contains(&r))
                                .map(|(dst, _)| *dst)
                                .unwrap_or(designee),
                            expected: designee,
                        },
                    );
                }
            }
        }
        // Post rows nobody held are phantom values.
        for &p in group {
            for &r in &step.post.per_rank[p] {
                let held = group
                    .iter()
                    .any(|&q| pre.per_rank[q].binary_search(&r).is_ok());
                if !held {
                    report.push(
                        p,
                        Some(level),
                        ViolationKind::UnheldRow { sender: p, row: r },
                    );
                }
            }
        }
    }
    report
}

/// Verifies a full three-level hierarchical plan: the socket step against
/// the original footprints, the node step against the socket-reduced
/// footprints, and the global exchange against the node-reduced
/// footprints — so a cross-level inconsistency (a step built from the
/// wrong footprints) surfaces at the level that introduces it.
pub fn verify_hierarchical(
    footprints: &Footprints,
    ownership: &Ownership,
    topo: &Topology,
    plan: &HierarchicalPlan,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if footprints.num_ranks() != topo.size() {
        report.push(
            0,
            None,
            ViolationKind::Malformed {
                detail: format!(
                    "footprints cover {} ranks but topology has {}",
                    footprints.num_ranks(),
                    topo.size()
                ),
            },
        );
        return report;
    }
    report.merge(verify_reduce_step(
        footprints,
        &plan.socket,
        ExchangeLevel::Socket,
    ));
    report.merge(verify_reduce_step(
        &plan.socket.post,
        &plan.node,
        ExchangeLevel::Node,
    ));
    report.merge(verify_global_stage(
        &plan.node.post,
        ownership,
        &plan.global,
        ExchangeLevel::Global,
    ));
    // Every rank sits in one group per level, and a group never spans
    // two sockets (socket level) or two nodes (node level) of `topo`. The
    // plan may group finer than the machine: the flat plan of direct
    // exchange has singleton groups on any topology.
    for (level, step) in [
        (ExchangeLevel::Socket, &plan.socket),
        (ExchangeLevel::Node, &plan.node),
    ] {
        let unit_of = |p| match level {
            ExchangeLevel::Socket => topo.socket_of(p),
            _ => topo.node_of(p),
        };
        let mut memberships = vec![0usize; topo.size()];
        for group in &step.groups {
            let ranks = || group.iter().copied();
            if let Some(p) = ranks().find(|&p| p >= topo.size()) {
                let detail = format!("{level} group {group:?} names rank {p} outside {topo}");
                report.push(p, Some(level), ViolationKind::Malformed { detail });
            } else if let Some(p) = ranks().find(|&p| unit_of(p) != unit_of(group[0])) {
                let detail = format!("{level} group {group:?} spans two {level}s of {topo}");
                report.push(p, Some(level), ViolationKind::Malformed { detail });
            }
            ranks()
                .filter(|&p| p < topo.size())
                .for_each(|p| memberships[p] += 1);
        }
        if let Some(p) = memberships.iter().position(|&m| m != 1) {
            let detail = format!("rank {p} is in {} {level} groups", memberships[p]);
            report.push(p, Some(level), ViolationKind::Malformed { detail });
        }
    }
    report
}
