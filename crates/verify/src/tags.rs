//! Static tag-disjointness verification.
//!
//! The runtime matches messages by `(source, tag)` with per-key FIFO, so
//! two *different* exchanges that are ever in flight concurrently must
//! never emit messages with the same `(src, dst, tag)` triple — otherwise
//! one exchange's receive can drain the other's payload (exactly PR 3's
//! allreduce reply-tag bug). A [`TagClaimSet`] enumerates every triple a
//! set of concurrent exchanges can put in flight, each labelled with the
//! exchange that claims it, and [`TagClaimSet::check`] proves pairwise
//! disjointness across labels (same-label duplicates are legal: per-key
//! FIFO orders them).
//!
//! What counts as "concurrent" comes from the distributed operator's
//! schedule (DESIGN.md §3c): under overlap every fused slice's global
//! exchange is in flight at once, and even the synchronous schedule lets
//! a fast rank run slices ahead of a slow peer — so the claim covers the
//! whole **slice-salt family** of each global level, not a window of
//! adjacent slices. The local levels run once per apply over the whole
//! batch and claim their base tag. A salted claim at base tag `t` stands for
//! `t ^ `[`xct_comm::protocol::slice_salt`]`(s)`
//! for every legal `s`; because the salts occupy bits the base tags must
//! leave clear, two family members collide exactly when their base tags
//! do, and the check stays one lookup per claim. The collectives
//! interleave with all of it; their claims are the runtime's own
//! [`AllreduceSteps`] — up, butterfly rounds, and the down leg in the
//! reply namespace. [`claims_for_compiled`] builds the corresponding
//! claim set.

use crate::diag::{VerifyReport, ViolationKind};
use std::collections::HashMap;
use xct_comm::protocol::{Collective, SLICE_SALT_SHIFT};
use xct_comm::{
    AllreduceSteps, CompiledPlans, Leg, LevelProgram, StepKind, Topology, REPLY_TAG_SALT,
};

/// One potential in-flight message: who sends it, who can match it, and
/// under which tag, attributed to a named exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagClaim {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// The wire tag.
    pub tag: u64,
    /// The exchange claiming the triple (for the collision witness).
    pub exchange: String,
    /// Whether this is internal reply traffic (allowed to use the
    /// reserved reply bit).
    pub reply: bool,
    /// Whether the claim stands for the whole slice-salt family
    /// `tag ^ slice_salt(s)` of the base tag `tag`.
    pub salted: bool,
}

/// A set of claims from exchanges that may be in flight concurrently.
#[derive(Debug, Clone, Default)]
pub struct TagClaimSet {
    claims: Vec<TagClaim>,
}

impl TagClaimSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The claims recorded so far.
    pub fn claims(&self) -> &[TagClaim] {
        &self.claims
    }

    fn push(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        exchange: &str,
        reply: bool,
        salted: bool,
    ) {
        self.claims.push(TagClaim {
            src,
            dst,
            tag,
            exchange: exchange.to_string(),
            reply,
            salted,
        });
    }

    /// Records one application claim.
    pub fn claim(&mut self, src: usize, dst: usize, tag: u64, exchange: &str) {
        self.push(src, dst, tag, exchange, false, false);
    }

    /// Records one reply-namespace claim.
    pub fn claim_reply(&mut self, src: usize, dst: usize, tag: u64, exchange: &str) {
        self.push(src, dst, tag, exchange, true, false);
    }

    /// Records every message rank `src` sends on one compiled level,
    /// under the level's name: a global level's sends claim the
    /// slice-salt family of its base tag, for every fused slice at once;
    /// a local level's, which carry the whole batch, the base tag itself.
    pub fn claim_level(&mut self, src: usize, program: &LevelProgram) {
        let level = program.level();
        for t in program.sends() {
            let salted = level.per_slice();
            self.push(src, t.peer, level.tag(), level.name(), false, salted);
        }
    }

    /// Records every message of one allreduce at `tag`: each rank's
    /// sends, read off the step list the runtime executes. The down leg
    /// travels in the reserved reply namespace.
    pub fn claim_collective(&mut self, steps: &[AllreduceSteps], tag: u64, exchange: &str) {
        for (src, program) in steps.iter().enumerate() {
            for step in program.steps() {
                if step.kind == StepKind::Send {
                    let reply = step.leg == Leg::Down;
                    self.push(src, step.peer, step.leg.tag(tag), exchange, reply, false);
                }
            }
        }
    }

    /// Proves pairwise disjointness: no `(src, dst, tag)` triple may be
    /// claimed by two different exchanges, and no application claim may
    /// set the reserved reply bit. A plain claim whose tag carries a
    /// slice salt is also a member of the family on its base tag, so it
    /// collides with a salted claim there. (Salted claims sit on level
    /// base tags, which `xct_comm::protocol` keeps below the salt bits.)
    pub fn check(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        let collision = |first: &TagClaim, claim: &TagClaim| ViolationKind::TagCollision {
            src: claim.src,
            dst: claim.dst,
            tag: claim.tag,
            first: first.exchange.clone(),
            second: claim.exchange.clone(),
        };
        // Families first, so the verdict does not depend on claim order.
        let mut families: HashMap<(usize, usize, u64), &TagClaim> = HashMap::new();
        for claim in self.claims.iter().filter(|c| c.salted) {
            match families.get(&(claim.src, claim.dst, claim.tag)) {
                Some(first) if first.exchange != claim.exchange => {
                    report.push(claim.dst, None, collision(first, claim));
                }
                Some(_) => {}
                None => {
                    families.insert((claim.src, claim.dst, claim.tag), claim);
                }
            }
        }
        let mut seen: HashMap<(usize, usize, u64), &TagClaim> = HashMap::new();
        for claim in self.claims.iter().filter(|c| !c.salted) {
            if !claim.reply && claim.tag & REPLY_TAG_SALT != 0 {
                report.push(
                    claim.src,
                    None,
                    ViolationKind::ReservedTagBit {
                        tag: claim.tag,
                        exchange: claim.exchange.clone(),
                    },
                );
            }
            // Bits at and above SLICE_SALT_SHIFT with the reply bit clear are
            // some slice's salt (the reply bit exceeds every legal one).
            if claim.tag & REPLY_TAG_SALT == 0 && claim.tag >> SLICE_SALT_SHIFT != 0 {
                let base = claim.tag & ((1 << SLICE_SALT_SHIFT) - 1);
                if let Some(first) = families.get(&(claim.src, claim.dst, base)) {
                    if first.exchange != claim.exchange {
                        report.push(claim.dst, None, collision(first, claim));
                    }
                }
            }
            match seen.get(&(claim.src, claim.dst, claim.tag)) {
                Some(first) if first.exchange != claim.exchange => {
                    report.push(claim.dst, None, collision(first, claim));
                }
                Some(_) => {}
                None => {
                    seen.insert((claim.src, claim.dst, claim.tag), claim);
                }
            }
        }
        report
    }
}

/// Builds the concurrent claim set for `plans` run on `topo`: every
/// level program of every rank for the whole slice-salt family, plus the
/// operator's collectives ([`Collective::ALL`]) on the topology's step
/// list.
pub fn claims_for_compiled(plans: &CompiledPlans, topo: &Topology) -> TagClaimSet {
    let mut set = TagClaimSet::new();
    for p in 0..plans.num_ranks() {
        let rp = plans.rank(p);
        for program in rp.forward().iter().chain(rp.transpose()) {
            set.claim_level(p, program);
        }
    }
    // Control traffic that may interleave with the exchanges.
    let steps = AllreduceSteps::build_all(topo);
    for site in Collective::ALL {
        set.claim_collective(&steps, site.tag, site.name);
    }
    set
}

/// Verifies tag disjointness for a compiled plan run on `topo`.
pub fn verify_tags(plans: &CompiledPlans, topo: &Topology) -> VerifyReport {
    claims_for_compiled(plans, topo).check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::protocol::{slice_salt, ExchangeLevel};

    #[test]
    fn reserved_bit_boundary_is_exact() {
        // The highest application tag — every bit below the reply bit
        // set — is legal, and the reply namespace may use the bit from
        // its side. Only an *application* claim carrying bit 63 trips
        // the rule.
        let mut set = TagClaimSet::new();
        set.claim(0, 1, REPLY_TAG_SALT - 1, "app tag just below the bit");
        set.claim_reply(1, 0, REPLY_TAG_SALT, "reply tag at the bit");
        set.check().assert_ok("boundary tags from the right sides");

        let mut bad = TagClaimSet::new();
        bad.claim(0, 1, REPLY_TAG_SALT, "app tag at the bit");
        let report = bad.check();
        assert!(
            report.violations.iter().any(|v| matches!(
                &v.kind,
                ViolationKind::ReservedTagBit { tag, .. } if *tag == REPLY_TAG_SALT
            )),
            "expected the exact reserved-bit witness, got: {report}"
        );
    }

    #[test]
    fn global_levels_claim_salt_families_and_local_levels_their_base_tag() {
        use xct_comm::protocol::ExchangeLevel::{Global, ScatterGlobal, Socket};
        let sending = |level| {
            LevelProgram::from_parts(
                level,
                0,
                vec![xct_comm::Transfer::new(1, vec![])],
                vec![],
                vec![],
            )
        };
        let collides_with = |set: &TagClaimSet, level: ExchangeLevel, stray: &str| {
            set.check().violations.iter().any(|v| {
                matches!(&v.kind, ViolationKind::TagCollision { first, second, .. }
                    if first == level.name() && second == stray)
            })
        };
        // Distinct levels claim distinct tags.
        let mut set = TagClaimSet::new();
        for level in [Global, ScatterGlobal, Socket] {
            set.claim_level(0, &sending(level));
        }
        set.check().assert_ok("distinct levels");

        // A plain claim carrying a legal slice salt is a member of a
        // global level's family; an unsalted one is not.
        set.claim(0, 1, Global.tag(), "unsalted neighbour");
        set.check()
            .assert_ok("unsalted tag is outside every family");
        set.claim(0, 1, ScatterGlobal.tag() ^ slice_salt(5), "stray slice-5");
        assert!(collides_with(&set, ScatterGlobal, "stray slice-5"));

        // A local level carries the whole batch on its base tag: that is
        // what it claims, and no salted tag.
        let mut local = TagClaimSet::new();
        local.claim_level(0, &sending(Socket));
        local.claim(0, 1, Socket.tag() ^ slice_salt(5), "slice-5 message");
        local
            .check()
            .assert_ok("a salted tag is outside a local level");
        local.claim(0, 1, Socket.tag(), "stray batch message");
        assert!(collides_with(&local, Socket, "stray batch message"));

        // Two plain members collide only on the very same salt.
        let mut plain = TagClaimSet::new();
        plain.claim(0, 1, 0x9000 ^ slice_salt(0), "slab 0");
        plain.claim(0, 1, 0x9000 ^ slice_salt(1), "slab 1");
        plain.check().assert_ok("distinct salts of one base tag");
    }

    #[test]
    fn collective_claims_are_the_runtime_step_list() {
        for (n, s, g) in [(1, 1, 1), (1, 2, 2), (2, 2, 2), (3, 1, 4), (4, 2, 3)] {
            let topo = Topology::new(n, s, g);
            let steps = AllreduceSteps::build_all(&topo);
            let mut set = TagClaimSet::new();
            for site in Collective::ALL {
                set.claim_collective(&steps, site.tag, site.name);
            }
            set.check().assert_ok("operator collectives");
            let sends: usize = steps
                .iter()
                .flat_map(|p| p.steps())
                .filter(|st| st.kind == StepKind::Send)
                .count();
            assert_eq!(set.claims().len(), Collective::ALL.len() * sends);
            // Exactly the down leg sits in the reply namespace.
            for c in set.claims() {
                assert_eq!(c.reply, c.tag & REPLY_TAG_SALT != 0, "{c:?}");
            }
        }
    }
}
