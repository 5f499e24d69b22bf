//! Seeded violation: a second definition of the wire protocol — the
//! slice-salt shift and the inner-product tag spelled out beside the
//! pipeline instead of read from `xct_comm::protocol`. Must be rejected
//! by `wire-protocol`.

pub const INNER_PRODUCTS_TAG: u64 = 0x7000;

/// Salts a tag with its slice, the way `protocol::slice_salt` does.
pub fn salted(tag: u64, slice: u64) -> u64 {
    tag | (slice << 44)
}
