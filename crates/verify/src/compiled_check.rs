//! Symbolic execution of compiled index programs.
//!
//! The compiled plans are position arithmetic: per level, gather these
//! input positions to that peer, carry these positions locally, land each
//! received payload element at these output positions. This checker
//! replays the whole pipeline with *tokens* instead of floats — a reduce
//! token is `(holder rank, row)`, a scatter token is the row id — which
//! turns every numerical property into an exact set property:
//!
//! * **conservation** — after the global level, the owner of row `r`
//!   holds exactly one token `(q, r)` for every rank `q` whose footprint
//!   contains `r`; keeps + recvs partition the owned set; and after the
//!   last transpose level, output position `k` of every rank holds its
//!   footprint row `k`;
//! * **no mixing** — a position never accumulates tokens of two
//!   different rows (summing unrelated partials);
//! * **non-aliasing** — within a level, no two writes land on the same
//!   scratch position where the semantics are assignment (scatters), and
//!   no two local carries collide where the semantics are accumulation
//!   seeded by the carry (reduces);
//! * **structure** — every send matched by exactly one equal-length recv
//!   on the peer, nothing unmatched in flight, and every rank running the
//!   same levels in pipeline order.
//!
//! This is the one prover of routing and conservation; index bounds are
//! [`crate::absint`]'s, which runs first, so the simulation never checks
//! an index. Levels are matched across ranks by the [`ExchangeLevel`]
//! each program carries, never by position. The compiler builds each
//! transpose level from its forward twin, but the two lists are still
//! proved independently: [`RankPlan::from_parts`] accepts a transpose
//! list that is not the forward one transposed.

// Witness positions/offsets are indices into u32-sized buffers; casting
// the enumerate index back to `u32` is lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::absint::verify_bounds;
use crate::diag::{VerifyReport, ViolationKind, WriteOrigin};
use std::collections::HashMap;
use xct_comm::protocol::ExchangeLevel;
use xct_comm::{CompiledPlans, Footprints, LevelProgram, Ownership, RankPlan};

/// One pipeline's programs grouped by level: for every level of
/// `pipeline` that some rank runs, in pipeline order, every rank's
/// program for it, indexed by rank. A rank whose level list differs —
/// one missing, or out of pipeline order — is reported `Malformed` and
/// the table is `None`: the ranks would not be running one pipeline.
fn by_level<'a>(
    plans: &'a CompiledPlans,
    pipeline: &[ExchangeLevel],
    programs: fn(&RankPlan) -> &[LevelProgram],
    report: &mut VerifyReport,
) -> Option<Vec<(ExchangeLevel, Vec<&'a LevelProgram>)>> {
    let per_rank: Vec<&[LevelProgram]> = (0..plans.num_ranks())
        .map(|p| programs(plans.rank(p)))
        .collect();
    let runs = |ls: &[LevelProgram], level| ls.iter().any(|l| l.level() == level);
    let levels: Vec<ExchangeLevel> = (pipeline.iter().copied())
        .filter(|&level| per_rank.iter().any(|ls| runs(ls, level)))
        .collect();
    let before = report.violations.len();
    for (p, ls) in per_rank.iter().enumerate() {
        let mine: Vec<ExchangeLevel> = ls.iter().map(|l| l.level()).collect();
        if mine == levels {
            continue;
        }
        let (level, detail) = match levels.iter().find(|&&l| !runs(ls, l)) {
            Some(&missing) => (Some(missing), format!("rank {p} has no {missing} level")),
            None => (
                None,
                format!("rank {p} runs the levels {mine:?}, not {levels:?}"),
            ),
        };
        report.push(p, level, ViolationKind::Malformed { detail });
    }
    (report.violations.len() == before).then(|| {
        let stage = |i: usize| per_rank.iter().map(|ls| &ls[i]).collect();
        levels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, stage(i)))
            .collect()
    })
}

/// Pairs every send with its matching recv on the peer for one level of
/// every rank, reporting unmatched traffic. Returns, per rank, the list
/// of `(sender, send transfer index, recv transfer index)` pairs driving
/// delivery.
fn match_level(
    levels: &[&LevelProgram],
    level_name: ExchangeLevel,
    report: &mut VerifyReport,
) -> Vec<Vec<(usize, usize, usize)>> {
    let n = levels.len();
    let tag = level_name.tag();
    let mut matches: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
    for (p, level) in levels.iter().enumerate() {
        for (si, t) in level.sends().iter().enumerate() {
            if t.peer >= n {
                report.push(
                    p,
                    Some(level_name),
                    ViolationKind::UnconsumedSend { peer: t.peer, tag },
                );
                continue;
            }
            let peer_recvs = levels[t.peer].recvs();
            let hits: Vec<usize> = peer_recvs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.peer == p)
                .map(|(i, _)| i)
                .collect();
            match hits.as_slice() {
                [] => report.push(
                    p,
                    Some(level_name),
                    ViolationKind::UnconsumedSend { peer: t.peer, tag },
                ),
                [ri] => {
                    let recv = &peer_recvs[*ri];
                    if recv.idx.len() != t.idx.len() {
                        report.push(
                            t.peer,
                            Some(level_name),
                            ViolationKind::Malformed {
                                detail: format!(
                                    "send {p}→{} carries {} elements but the recv lands {}",
                                    t.peer,
                                    t.idx.len(),
                                    recv.idx.len()
                                ),
                            },
                        );
                    } else {
                        matches[t.peer].push((p, si, *ri));
                    }
                }
                _ => report.push(
                    t.peer,
                    Some(level_name),
                    ViolationKind::Malformed {
                        detail: format!(
                            "rank {} posts {} receives for rank {p} in one level (ambiguous match)",
                            t.peer,
                            hits.len()
                        ),
                    },
                ),
            }
        }
        // Receives with no corresponding send.
        for recv in level.recvs() {
            let sent = recv.peer < n && levels[recv.peer].sends().iter().any(|t| t.peer == p);
            if !sent {
                report.push(
                    p,
                    Some(level_name),
                    ViolationKind::UnmatchedRecv {
                        peer: recv.peer,
                        tag,
                    },
                );
            }
        }
    }
    matches
}

/// Verifies `plans` against the geometry they were compiled from, in
/// three steps, each on programs the steps before it accepted: the level
/// structure of both pipelines, index bounds ([`verify_bounds`], the one
/// bounds prover), then the token simulation of the forward (reduce)
/// pipeline and of the transpose (scatter) pipeline. The simulation
/// indexes its token tables unchecked: bounds proved against the
/// programs' buffer lengths hold for the tables once those lengths match
/// the footprints and ownership.
pub fn verify_compiled(
    footprints: &Footprints,
    ownership: &Ownership,
    plans: &CompiledPlans,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    let reduce = by_level(
        plans,
        &ExchangeLevel::REDUCE,
        RankPlan::forward,
        &mut report,
    );
    let scatter = by_level(
        plans,
        &ExchangeLevel::SCATTER,
        RankPlan::transpose,
        &mut report,
    );
    let (Some(reduce), Some(scatter)) = (reduce, scatter) else {
        return report;
    };
    // The structure holds, so nothing is reported yet.
    let mut report = verify_bounds(plans);
    if !report.ok() {
        return report;
    }
    let owned: Vec<Vec<u32>> = (0..plans.num_ranks())
        .map(|p| ownership.rows_of(p))
        .collect();
    check_seeds(footprints, &owned, plans, &mut report);
    if report.ok() {
        reduce_tokens(footprints, &owned, reduce, &mut report);
        scatter_tokens(footprints, ownership, &owned, scatter, &mut report);
    }
    report
}

/// Checks that every rank's buffers have the lengths of the geometry the
/// tokens are seeded from: the footprint fills the forward input and the
/// transpose output, the owned rows the forward output and the transpose
/// input.
fn check_seeds(
    footprints: &Footprints,
    owned: &[Vec<u32>],
    plans: &CompiledPlans,
    report: &mut VerifyReport,
) {
    for (p, rows) in owned.iter().enumerate() {
        let rp = plans.rank(p);
        let fp = footprints.per_rank[p].len();
        let global = rp.forward().last().map(LevelProgram::level);
        if rp.in_len() != fp {
            let detail = format!(
                "footprint buffer holds {} positions for {fp} rows",
                rp.in_len()
            );
            report.push(p, None, ViolationKind::Malformed { detail });
        }
        if rp.owned_len() != rows.len() {
            let detail = format!(
                "owned buffer holds {} positions for {} owned rows",
                rp.owned_len(),
                rows.len()
            );
            report.push(p, global, ViolationKind::Malformed { detail });
        }
    }
}

fn reduce_tokens(
    footprints: &Footprints,
    owned: &[Vec<u32>],
    table: Vec<(ExchangeLevel, Vec<&LevelProgram>)>,
    report: &mut VerifyReport,
) {
    let n = owned.len();
    // Multiset of (holder, row) tokens per buffer position, per rank.
    let mut cur: Vec<Vec<Vec<(usize, u32)>>> = (0..n)
        .map(|p| {
            footprints.per_rank[p]
                .iter()
                .map(|&r| vec![(p, r)])
                .collect()
        })
        .collect();
    // The level whose output is the owned buffer.
    let global = table.last().map(|&(level, _)| level);
    for (name, levels) in table {
        let matches = match_level(&levels, name, report);
        let mut next: Vec<Vec<Vec<(usize, u32)>>> = Vec::with_capacity(n);
        for p in 0..n {
            let level = levels[p];
            let mut out: Vec<Vec<(usize, u32)>> = vec![Vec::new(); level.out_len()];
            // Local carries seed the accumulator; two carries on one
            // position overwrite each other in the real executor.
            let mut carried: HashMap<u32, u32> = HashMap::new();
            for &(s, d) in level.keeps() {
                if let Some(&prev) = carried.get(&d) {
                    report.push(
                        p,
                        Some(name),
                        ViolationKind::ScratchAliasing {
                            position: d,
                            first: WriteOrigin::Keep { src: prev },
                            second: WriteOrigin::Keep { src: s },
                        },
                    );
                    continue;
                }
                carried.insert(d, s);
                out[d as usize].extend_from_slice(&cur[p][s as usize]);
            }
            // Deliveries from matched sends.
            for &(src, si, ri) in &matches[p] {
                let send = &levels[src].sends()[si];
                let recv = &levels[p].recvs()[ri];
                for (&gi, &di) in send.idx.iter().zip(&recv.idx) {
                    out[di as usize].extend_from_slice(&cur[src][gi as usize]);
                }
            }
            // No position may mix rows.
            for (pos, tokens) in out.iter().enumerate() {
                if let Some(&(_, first_row)) = tokens.first() {
                    if let Some(&(_, other)) = tokens.iter().find(|&&(_, r)| r != first_row) {
                        report.push(
                            p,
                            Some(name),
                            ViolationKind::MixedRows {
                                position: pos as u32,
                                rows: (first_row, other),
                            },
                        );
                    }
                }
            }
            next.push(out);
        }
        cur = next;
        if !report.ok() {
            // Downstream findings would be echoes of the same defect.
            return;
        }
    }
    // Final conservation: the owner of each row holds exactly one token
    // per original holder.
    for (p, held) in cur.iter().enumerate() {
        for (pos, &row) in owned[p].iter().enumerate() {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &(holder, r) in &held[pos] {
                if r != row {
                    report.push(
                        p,
                        global,
                        ViolationKind::MixedRows {
                            position: pos as u32,
                            rows: (row, r),
                        },
                    );
                }
                *counts.entry(holder).or_insert(0) += 1;
            }
            for q in 0..n {
                let expected = usize::from(footprints.per_rank[q].binary_search(&row).is_ok());
                let got = counts.get(&q).copied().unwrap_or(0);
                if got != expected {
                    report.push(
                        p,
                        global,
                        ViolationKind::Conservation {
                            holder: q,
                            row,
                            delivered: got,
                        },
                    );
                }
            }
        }
    }
}

fn scatter_tokens(
    footprints: &Footprints,
    ownership: &Ownership,
    owned: &[Vec<u32>],
    table: Vec<(ExchangeLevel, Vec<&LevelProgram>)>,
    report: &mut VerifyReport,
) {
    let n = owned.len();
    // Scatter semantics are assignment: each position holds at most one
    // row token, plus the origin of the write for aliasing witnesses.
    let mut cur: Vec<Vec<Option<u32>>> = owned
        .iter()
        .map(|rows| rows.iter().copied().map(Some).collect())
        .collect();
    // The level whose output is the footprint.
    let last = table.last().map(|&(level, _)| level);
    for (name, levels) in table {
        let matches = match_level(&levels, name, report);
        let mut next: Vec<Vec<Option<u32>>> = Vec::with_capacity(n);
        for p in 0..n {
            let level = levels[p];
            let mut out: Vec<Option<u32>> = vec![None; level.out_len()];
            let mut origin: HashMap<u32, WriteOrigin> = HashMap::new();
            let mut write = |pos: u32,
                             val: Option<u32>,
                             from: WriteOrigin,
                             out: &mut Vec<Option<u32>>,
                             report: &mut VerifyReport| {
                if let Some(&first) = origin.get(&pos) {
                    report.push(
                        p,
                        Some(name),
                        ViolationKind::ScratchAliasing {
                            position: pos,
                            first,
                            second: from,
                        },
                    );
                    return;
                }
                origin.insert(pos, from);
                out[pos as usize] = val;
            };
            for &(s, d) in level.keeps() {
                let val = cur[p][s as usize];
                write(d, val, WriteOrigin::Keep { src: s }, &mut out, report);
            }
            for &(src, si, ri) in &matches[p] {
                let send = &levels[src].sends()[si];
                let recv = &levels[p].recvs()[ri];
                for (k, (&gi, &di)) in send.idx.iter().zip(&recv.idx).enumerate() {
                    let val = cur[src][gi as usize];
                    if val.is_none() {
                        report.push(
                            src,
                            Some(name),
                            ViolationKind::Malformed {
                                detail: format!(
                                    "send gathers unwritten position {gi} (payload offset {k})"
                                ),
                            },
                        );
                    }
                    write(
                        di,
                        val,
                        WriteOrigin::Recv {
                            peer: src,
                            offset: k as u32,
                        },
                        &mut out,
                        report,
                    );
                }
            }
            next.push(out);
        }
        cur = next;
        if !report.ok() {
            return;
        }
    }
    // Output position `k` of the last level must hold footprint row `k`.
    for (p, held) in cur.iter().enumerate() {
        for (pos, (&row, &got)) in footprints.per_rank[p].iter().zip(held).enumerate() {
            match got {
                None => report.push(
                    p,
                    last,
                    ViolationKind::Conservation {
                        holder: ownership.owner[row as usize] as usize,
                        row,
                        delivered: 0,
                    },
                ),
                Some(got) if got != row => report.push(
                    p,
                    last,
                    ViolationKind::MixedRows {
                        position: pos as u32,
                        rows: (row, got),
                    },
                ),
                Some(_) => {}
            }
        }
    }
}
