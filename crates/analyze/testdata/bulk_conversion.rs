//! Seeded violation: the exchange executor converting value by value —
//! each held element narrowed on its own with `S::from_f64` — instead
//! of moving whole runs through `StorageScalar`. Must be rejected by
//! `bulk-conversion`.

pub fn hold<S: StorageScalar>(batch: &[f64], held: &mut [S]) {
    for (h, &x) in held.iter_mut().zip(batch) {
        *h = S::from_f64(x);
    }
}
