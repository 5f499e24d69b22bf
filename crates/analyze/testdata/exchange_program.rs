//! Seeded violation: a second lowering — the lifetime pass building its
//! own per-slice `Post` ops instead of folding the list
//! `protocol::apply` built. Must be rejected by `exchange-program`.

pub fn per_slice_posts(level: ExchangeLevel, slices: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for f in 0..slices {
        ops.push(Op::Post { level, slice: Some(f) });
    }
    ops
}
