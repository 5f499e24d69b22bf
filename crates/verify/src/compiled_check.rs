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
//!   contains `r`; keeps + recvs partition the owned set;
//! * **no mixing** — a position never accumulates tokens of two
//!   different rows (summing unrelated partials);
//! * **non-aliasing** — within a level, no two writes land on the same
//!   scratch position where the semantics are assignment (scatters), and
//!   no two local carries collide where the semantics are accumulation
//!   seeded by the carry (reduces);
//! * **structure** — all indices in bounds, every send matched by exactly
//!   one equal-length recv on the peer, nothing unmatched in flight, and
//!   every rank running the same levels in pipeline order.
//!
//! Levels are matched across ranks by the [`ExchangeLevel`] each program
//! carries, never by position.

// Witness positions/offsets are indices into u32-sized buffers; casting
// the enumerate index back to `u32` is lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::diag::{VerifyReport, ViolationKind, WriteOrigin};
use std::collections::HashMap;
use xct_comm::protocol::ExchangeLevel;
use xct_comm::{CompiledPlans, Footprints, LevelProgram, Ownership, RankPlan};

/// A rank's forward programs, in execution order.
fn reduce_levels(rp: &RankPlan) -> Vec<&LevelProgram> {
    rp.local_levels()
        .iter()
        .chain([rp.global_level()])
        .collect()
}

/// A rank's transpose (scatter) programs, in execution order.
fn scatter_levels(rp: &RankPlan) -> Vec<&LevelProgram> {
    [rp.scatter_global_level()]
        .into_iter()
        .chain(rp.scatter_local_levels())
        .collect()
}

/// One pipeline's programs grouped by level: for every level of
/// `pipeline` that some rank runs, in pipeline order, every rank's
/// program for it, indexed by rank. A rank whose level list differs —
/// one missing, or out of pipeline order — is reported `Malformed` and
/// the table is `None`: the ranks would not be running one pipeline.
fn by_level<'a>(
    plans: &'a CompiledPlans,
    pipeline: &[ExchangeLevel],
    programs: fn(&RankPlan) -> Vec<&LevelProgram>,
    report: &mut VerifyReport,
) -> Option<Vec<(ExchangeLevel, Vec<&'a LevelProgram>)>> {
    let per_rank: Vec<Vec<&LevelProgram>> = (0..plans.num_ranks())
        .map(|p| programs(plans.rank(p)))
        .collect();
    let runs = |ls: &[&LevelProgram], level| ls.iter().any(|l| l.level() == level);
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
        let stage = |i: usize| per_rank.iter().map(|ls| ls[i]).collect();
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

/// Verifies the forward (reduce) pipeline of `plans` by token
/// simulation, then the transpose (scatter) pipeline, against the
/// geometry they were compiled from.
pub fn verify_compiled(
    footprints: &Footprints,
    ownership: &Ownership,
    plans: &CompiledPlans,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    verify_reduce_pipeline(footprints, ownership, plans, &mut report);
    verify_scatter_pipeline(footprints, ownership, plans, &mut report);
    report
}

fn verify_reduce_pipeline(
    footprints: &Footprints,
    ownership: &Ownership,
    plans: &CompiledPlans,
    report: &mut VerifyReport,
) {
    let n = plans.num_ranks();
    // Multiset of (holder, row) tokens per buffer position, per rank.
    let mut cur: Vec<Vec<Vec<(usize, u32)>>> = (0..n)
        .map(|p| {
            footprints.per_rank[p]
                .iter()
                .map(|&r| vec![(p, r)])
                .collect()
        })
        .collect();
    let Some(table) = by_level(plans, &ExchangeLevel::REDUCE, reduce_levels, report) else {
        return;
    };
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
                if (s as usize) >= cur[p].len() || (d as usize) >= out.len() {
                    report.push(
                        p,
                        Some(name),
                        ViolationKind::Malformed {
                            detail: format!("keep ({s}, {d}) out of bounds"),
                        },
                    );
                    continue;
                }
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
                let tokens = cur[p][s as usize].clone();
                out[d as usize].extend(tokens);
            }
            // Deliveries from matched sends.
            for &(src, si, ri) in &matches[p] {
                let send = &levels[src].sends()[si];
                let recv = &levels[p].recvs()[ri];
                for (k, (&gi, &di)) in send.idx.iter().zip(&recv.idx).enumerate() {
                    if (gi as usize) >= cur[src].len() {
                        report.push(
                            src,
                            Some(name),
                            ViolationKind::Malformed {
                                detail: format!("send gather index {gi} out of bounds"),
                            },
                        );
                        continue;
                    }
                    if (di as usize) >= out.len() {
                        report.push(
                            p,
                            Some(name),
                            ViolationKind::Malformed {
                                detail: format!(
                                    "recv landing index {di} (payload offset {k}) out of bounds"
                                ),
                            },
                        );
                        continue;
                    }
                    let tokens = cur[src][gi as usize].clone();
                    out[di as usize].extend(tokens);
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
        let owned = ownership.rows_of(p);
        let global = Some(plans.rank(p).global_level().level());
        if held.len() != owned.len() {
            report.push(
                p,
                global,
                ViolationKind::Malformed {
                    detail: format!(
                        "owned buffer holds {} positions for {} owned rows",
                        held.len(),
                        owned.len()
                    ),
                },
            );
            continue;
        }
        for (pos, &row) in owned.iter().enumerate() {
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

fn verify_scatter_pipeline(
    footprints: &Footprints,
    ownership: &Ownership,
    plans: &CompiledPlans,
    report: &mut VerifyReport,
) {
    let n = plans.num_ranks();
    // Scatter semantics are assignment: each position holds at most one
    // row token, plus the origin of the write for aliasing witnesses.
    let mut cur: Vec<Vec<Option<u32>>> = (0..n)
        .map(|p| ownership.rows_of(p).into_iter().map(Some).collect())
        .collect();
    let Some(table) = by_level(plans, &ExchangeLevel::SCATTER, scatter_levels, report) else {
        return;
    };
    // The level whose output the restriction reads.
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
                if (pos as usize) >= out.len() {
                    report.push(
                        p,
                        Some(name),
                        ViolationKind::Malformed {
                            detail: format!("write index {pos} out of bounds"),
                        },
                    );
                    return;
                }
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
                if (s as usize) >= cur[p].len() {
                    report.push(
                        p,
                        Some(name),
                        ViolationKind::Malformed {
                            detail: format!("keep source {s} out of bounds"),
                        },
                    );
                    continue;
                }
                let val = cur[p][s as usize];
                write(d, val, WriteOrigin::Keep { src: s }, &mut out, report);
            }
            for &(src, si, ri) in &matches[p] {
                let send = &levels[src].sends()[si];
                let recv = &levels[p].recvs()[ri];
                for (k, (&gi, &di)) in send.idx.iter().zip(&recv.idx).enumerate() {
                    if (gi as usize) >= cur[src].len() {
                        report.push(
                            src,
                            Some(name),
                            ViolationKind::Malformed {
                                detail: format!("send gather index {gi} out of bounds"),
                            },
                        );
                        continue;
                    }
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
    // Restriction: each footprint row must come back as itself.
    for (p, held) in cur.iter().enumerate() {
        let restrict = plans.rank(p).restrict_idx();
        if restrict.len() != footprints.per_rank[p].len() {
            report.push(
                p,
                last,
                ViolationKind::Malformed {
                    detail: format!(
                        "restriction covers {} positions for {} footprint rows",
                        restrict.len(),
                        footprints.per_rank[p].len()
                    ),
                },
            );
            continue;
        }
        for (&pos, &row) in restrict.iter().zip(&footprints.per_rank[p]) {
            match held.get(pos as usize) {
                None => report.push(
                    p,
                    last,
                    ViolationKind::Malformed {
                        detail: format!("restriction index {pos} out of bounds"),
                    },
                ),
                Some(None) => report.push(
                    p,
                    last,
                    ViolationKind::Conservation {
                        holder: ownership.owner[row as usize] as usize,
                        row,
                        delivered: 0,
                    },
                ),
                Some(Some(got)) if *got != row => report.push(
                    p,
                    last,
                    ViolationKind::MixedRows {
                        position: pos,
                        rows: (row, *got),
                    },
                ),
                Some(Some(_)) => {}
            }
        }
    }
}
