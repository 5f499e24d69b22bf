//! Seeded violation: the F16 byte layout spelled out in the exchange
//! instead of encoded through `StorageScalar::encode_run`. Must be
//! rejected by `storage-codec`.

pub fn encode(values: &[F16], out: &mut Vec<u8>) {
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}
