//! The exchange schedule of the distributed operator (paper §III-E,
//! Figs 11–12): in which order a rank posts and drains the per-slice
//! global exchanges of one fused (back)projection.
//!
//! The rank's kernel runs once per apply over the whole minibatch, so
//! nothing is left to compute *between* slices; what remains per slice
//! is `Post(f)` — the local socket/node reduction plus the nonblocking
//! post of slice `f`'s global exchange — and `Drain(f)` — completing it.
//!
//! * Synchronous (`overlap = false`): `Post(0) Drain(0) Post(1) Drain(1)
//!   …` — one exchange in flight at a time; every slice pays its own wire
//!   latency. This is the bit-identity oracle.
//! * Overlapped (`overlap = true`): `Post(0) … Post(n−1) Drain(0) …
//!   Drain(n−1)` — every slice's exchange is on the wire while the later
//!   slices run their local reductions, and the drains find most
//!   messages already delivered: one latency per apply instead of `n`.
//!
//! Both orders run the same `Post(f)` before the same `Drain(f)` for
//! every `f`, and the slices are data-independent (distinct tag salts,
//! distinct accumulators, distinct output ranges), so the overlapped
//! schedule is bit-identical to the synchronous one — only the waiting
//! moves. `xct-verify`'s `lifetime::overlap_schedule` mirrors this
//! driver op for op.

/// One step of the schedule, for fused slice `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeOp {
    /// Run slice `f`'s local work and post its global exchange.
    Post(usize),
    /// Complete slice `f`'s global exchange.
    Drain(usize),
}

/// The order in which a rank posts and drains the global exchanges of
/// `n` fused slices.
pub fn exchange_schedule(n: usize, overlap: bool) -> impl Iterator<Item = ExchangeOp> {
    (0..2 * n).map(move |i| match (overlap, i < n) {
        (true, true) => ExchangeOp::Post(i),
        (true, false) => ExchangeOp::Drain(i - n),
        (false, _) if i % 2 == 0 => ExchangeOp::Post(i / 2),
        (false, _) => ExchangeOp::Drain(i / 2),
    })
}

#[cfg(test)]
mod tests {
    use super::ExchangeOp::{Drain, Post};
    use super::*;

    #[test]
    fn synchronous_schedule_is_strictly_per_slice() {
        let ops: Vec<_> = exchange_schedule(3, false).collect();
        assert_eq!(
            ops,
            vec![Post(0), Drain(0), Post(1), Drain(1), Post(2), Drain(2)]
        );
    }

    #[test]
    fn overlapped_schedule_posts_all_then_drains_in_slice_order() {
        let ops: Vec<_> = exchange_schedule(3, true).collect();
        assert_eq!(
            ops,
            vec![Post(0), Post(1), Post(2), Drain(0), Drain(1), Drain(2)]
        );
    }

    #[test]
    fn verifier_lifetime_model_mirrors_the_overlapped_schedule() {
        // xct-verify cannot depend on this crate, so its scratch-lifetime
        // pass restates the schedule; pin the two together here.
        use xct_verify::ScratchOp;
        for n in 0..5 {
            let modelled: Vec<_> = xct_verify::overlap_schedule(n, 2)
                .iter()
                .filter_map(|op| match *op {
                    ScratchOp::FillCur { slice } => Some(Post(slice)),
                    ScratchOp::WaitWrites { slice } => Some(Drain(slice)),
                    _ => None,
                })
                .collect();
            let driven: Vec<_> = exchange_schedule(n, true).collect();
            assert_eq!(modelled, driven, "{n} slices");
        }
    }

    #[test]
    fn both_schedules_post_every_slice_once_before_draining_it() {
        for n in 0..6 {
            for overlap in [false, true] {
                let ops: Vec<_> = exchange_schedule(n, overlap).collect();
                assert_eq!(ops.len(), 2 * n);
                let mut in_flight = 0usize;
                let mut deepest = 0usize;
                for f in 0..n {
                    let post = ops.iter().position(|&o| o == Post(f)).unwrap();
                    let drain = ops.iter().position(|&o| o == Drain(f)).unwrap();
                    assert!(post < drain, "slice {f} drained before it was posted");
                }
                for op in &ops {
                    match op {
                        Post(_) => in_flight += 1,
                        Drain(_) => in_flight -= 1,
                    }
                    deepest = deepest.max(in_flight);
                }
                assert_eq!(in_flight, 0);
                assert_eq!(deepest, if overlap { n } else { n.min(1) });
            }
        }
    }
}
