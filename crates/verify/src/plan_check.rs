//! Static verification of a `HierarchicalPlan`'s *structure* against the
//! machine it runs on: every rank sits in one group per local level, and
//! no group crosses a socket or node boundary of the topology.
//!
//! Routing — that every partial reaches its owner exactly once — is not
//! proved here but on the compiled index programs that execute
//! ([`crate::compiled_check`]); the row tables are only their source.

use crate::diag::{VerifyReport, ViolationKind};
use xct_comm::protocol::ExchangeLevel;
use xct_comm::{Footprints, HierarchicalPlan, Topology};

/// Verifies that a hierarchical plan's groups fit `topo`: the footprints
/// cover `topo`'s ranks, every rank is in exactly one group per local
/// level, and a socket (node) group lies inside one socket (node) of
/// `topo`. The plan may group finer than the machine: the flat plan of
/// direct exchange has singleton groups on any topology.
pub fn verify_hierarchical(
    footprints: &Footprints,
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
