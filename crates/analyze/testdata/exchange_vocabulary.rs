//! Seeded violation: an exchange level named outside xct-comm's
//! protocol module — a test that spells the scatter levels' tags and
//! names instead of asking `ExchangeLevel`. Must be rejected by
//! `exchange-vocabulary`.

pub fn scatter_level(tag: u64) -> &'static str {
    match tag {
        0x1500 => "scatter-socket",
        0x1600 => "scatter-node",
        _ => "scatter-global",
    }
}
