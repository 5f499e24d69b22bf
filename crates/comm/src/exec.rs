//! The reference executor: communication plans run on real data across
//! ranks straight from the row tables. Compiled only under `cfg(test)`,
//! as the oracle [`crate::compiled`]'s bit-identity tests compare
//! against; production exchanges run [`crate::CompiledPlans`].
//!
//! Forward (projection) direction: partial sums flow *up* the hierarchy —
//! socket reduction, node reduction, global exchange to owners. Backward
//! (backprojection) direction is the transpose: owners *scatter* total
//! sinogram values back down to every rank whose footprint needs them
//! (paper §III-D1: "this description is also valid for backprojection as
//! it is a transpose of projection").
//!
//! Reductions accumulate in f64 and round to the storage scalar once per
//! level — communication stays at storage width (half precision moves
//! half the bytes), which is the property the paper's Table IV measures.

// Row and position ids in this module are `u32` by the `Ownership`
// contract (`num_rows` fits `u32`); enumerate-index casts back into that
// space are lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::metrics::TrafficClass;
use crate::plan::{DirectPlan, HierarchicalPlan, Ownership, ReductionStep};
use crate::runtime::{CommError, Communicator};
use crate::wire::{append, decode, message_slice, slice_scale, write_header};
use std::collections::HashMap;
use xct_fp16::{max_abs, max_abs_f64, StorageScalar};
use xct_telemetry::Phase;

/// Sorted rows with one value each — a rank's partial (or reduced) data,
/// held at storage width under one scale: value `i` stands for
/// `vals[i] × undo`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialData<S> {
    /// Global row ids, ascending.
    pub rows: Vec<u32>,
    /// Value per row.
    pub vals: Vec<S>,
    /// What every value is multiplied by to widen it (1 unless the
    /// values were quantized with a §III-C1 scale).
    pub undo: f32,
}

impl<S: StorageScalar> PartialData<S> {
    /// Creates unscaled partial data; rows must be strictly ascending
    /// (sorted, no duplicates) and match `vals` in length.
    ///
    /// Validated in release builds too: unsorted or duplicate rows would
    /// silently corrupt the `binary_search` used by `gather`, surfacing
    /// much later as a misleading "row not in local data" panic.
    pub fn new(rows: Vec<u32>, vals: Vec<S>) -> Self {
        assert_eq!(rows.len(), vals.len(), "rows/vals length mismatch");
        if let Some(w) = rows.windows(2).find(|w| w[0] >= w[1]) {
            // xct-allow(no-panic): validated constructor — rejects corrupt inputs at the boundary, documented above
            panic!(
                "PartialData rows must be strictly ascending: row {} followed by {}",
                w[0], w[1]
            );
        }
        PartialData {
            rows,
            vals,
            undo: 1.0,
        }
    }

    /// The sender rule: `vals` quantized to storage precision under the
    /// §III-C1 scale of their own max-norm (1 on a full-width wire).
    pub fn quantize(rows: Vec<u32>, vals: &[f32]) -> Self {
        let (factor, undo) = slice_scale::<S>(|| f64::from(max_abs(vals)));
        let vals = vals.iter().map(|&v| S::from_f32(v * factor)).collect();
        PartialData {
            undo,
            ..PartialData::new(rows, vals)
        }
    }

    /// The values widened to `f32` by their undo.
    pub fn widened(&self) -> Vec<f32> {
        self.vals.iter().map(|v| v.to_f32() * self.undo).collect()
    }

    /// Row → widened value.
    fn value_map(&self) -> HashMap<u32, f64> {
        let undo = f64::from(self.undo);
        self.rows
            .iter()
            .zip(&self.vals)
            .map(|(&r, &v)| (r, v.to_f64() * undo))
            .collect()
    }

    /// Gathers values for `rows` (each must be present).
    fn gather(&self, rows: &[u32]) -> Vec<S> {
        rows.iter()
            .map(|r| {
                let at = self.rows.binary_search(r).unwrap_or_else(|_| {
                    // xct-allow(no-panic): plan invariant — gather rows come from the verified plan's footprint
                    panic!("row {r} not in local data");
                });
                self.vals[at]
            })
            .collect()
    }

    /// Sends the values of `rows` to `dst` as one message: the undo
    /// header (scaled wires only), then the values.
    fn send_rows(
        &self,
        comm: &Communicator,
        dst: usize,
        tag: u64,
        rows: &[u32],
    ) -> Result<(), CommError> {
        let mut bytes = Vec::new();
        write_header::<S>(&[self.undo], &mut bytes);
        append(&self.gather(rows), &mut bytes);
        comm.send(dst, tag, bytes)
    }

    /// A level's output: the widened sums in `acc`, rounded to storage
    /// precision under the scale of their own max-norm.
    fn from_map(mut acc: HashMap<u32, f64>) -> Self {
        let mut rows: Vec<u32> = acc.keys().copied().collect();
        rows.sort_unstable();
        let sums: Vec<f64> = rows
            .iter()
            // xct-allow(no-panic): infallible — rows was built from acc's own keys
            .map(|r| acc.remove(r).expect("row present"))
            .collect();
        let (factor, undo) = slice_scale::<S>(|| max_abs_f64(&sums));
        let factor = f64::from(factor);
        let vals = sums.iter().map(|&v| S::from_f64(v * factor)).collect();
        PartialData { rows, vals, undo }
    }
}

/// Receives one message of [`PartialData::send_rows`]: its values, each
/// widened by the sender's undo. `len` is the row count the plan expects.
fn recv_widened<S: StorageScalar>(
    comm: &Communicator,
    src: usize,
    tag: u64,
    len: usize,
) -> Result<Vec<f64>, CommError> {
    let bytes = comm.recv(src, tag)?;
    let (undo, payload) = message_slice::<S>(&bytes, 1, len, 0);
    let undo = f64::from(undo);
    Ok(decode::<S>(payload)
        .into_iter()
        .map(|v| v.to_f64() * undo)
        .collect())
}

const TAG_DIRECT: u64 = 0x100;
const TAG_SOCKET: u64 = 0x200;
const TAG_NODE: u64 = 0x300;
const TAG_GLOBAL: u64 = 0x400;
const TAG_SCATTER: u64 = 0x800;

/// Runs one reduce level: sends my rows designated elsewhere, receives and
/// sums rows designated to me. Returns my post-level data.
fn reduce_step<S: StorageScalar>(
    comm: &Communicator,
    step: &ReductionStep,
    mine: &PartialData<S>,
    tag: u64,
) -> Result<PartialData<S>, CommError> {
    let me = comm.rank();
    // Post sends first (non-blocking), then drain receives — the
    // Issend/Irecv overlap pattern of §III-D4.
    for (dst, rows) in &step.sends[me] {
        mine.send_rows(comm, *dst, tag, rows)?;
    }
    let mut acc: HashMap<u32, f64> = HashMap::new();
    // Seed with my own partials for rows designated to me.
    let my_post = &step.post.per_rank[me];
    let my_map = mine.value_map();
    for &r in my_post {
        if let Some(&v) = my_map.get(&r) {
            acc.insert(r, v);
        } else {
            acc.insert(r, 0.0);
        }
    }
    for (src, sends) in step.sends.iter().enumerate() {
        for (dst, rows) in sends {
            if *dst != me {
                continue;
            }
            let vals = recv_widened::<S>(comm, src, tag, rows.len())?;
            for (&r, v) in rows.iter().zip(vals) {
                *acc.entry(r).or_insert(0.0) += v;
            }
        }
    }
    Ok(PartialData::from_map(acc))
}

/// Direct exchange (Fig 6a): every rank ships partials straight to owners
/// and reduces what it receives for its own rows. Returns the totals for
/// the rows this rank owns.
pub fn execute_direct<S: StorageScalar>(
    comm: &Communicator,
    plan: &DirectPlan,
    ownership: &Ownership,
    mine: &PartialData<S>,
) -> Result<PartialData<S>, CommError> {
    // Direct exchange is all-to-owners over the network: one global level.
    let _class = comm.meter().scope_class(TrafficClass::Global);
    let _span = comm.telemetry().span(Phase::ReduceGlobal);
    let me = comm.rank();
    for (dst, rows) in &plan.sends[me] {
        mine.send_rows(comm, *dst, TAG_DIRECT, rows)?;
    }
    let mut acc: HashMap<u32, f64> = HashMap::new();
    // My own partials for rows I own.
    for (r, v) in mine.value_map() {
        if ownership.owner[r as usize] as usize == me {
            *acc.entry(r).or_insert(0.0) += v;
        }
    }
    // Ensure owned rows nobody touched still appear (as zero).
    for (r, &o) in ownership.owner.iter().enumerate() {
        if o as usize == me {
            acc.entry(r as u32).or_insert(0.0);
        }
    }
    for (src, sends) in plan.sends.iter().enumerate() {
        for (dst, rows) in sends {
            if *dst != me {
                continue;
            }
            let vals = recv_widened::<S>(comm, src, TAG_DIRECT, rows.len())?;
            for (&r, v) in rows.iter().zip(vals) {
                *acc.entry(r).or_insert(0.0) += v;
            }
        }
    }
    Ok(PartialData::from_map(acc))
}

/// The full three-level exchange (Fig 6b–d): socket reduction, node
/// reduction, global exchange. Returns the totals for owned rows.
pub fn execute_hierarchical<S: StorageScalar>(
    comm: &Communicator,
    plan: &HierarchicalPlan,
    ownership: &Ownership,
    mine: &PartialData<S>,
) -> Result<PartialData<S>, CommError> {
    let after_socket = {
        let _class = comm.meter().scope_class(TrafficClass::Socket);
        let _span = comm.telemetry().span(Phase::ReduceSocket);
        reduce_step(comm, &plan.socket, mine, TAG_SOCKET)?
    };
    let after_node = {
        let _class = comm.meter().scope_class(TrafficClass::Node);
        let _span = comm.telemetry().span(Phase::ReduceNode);
        reduce_step(comm, &plan.node, &after_socket, TAG_NODE)?
    };
    // Global: the direct plan built on post-node footprints, but tagged
    // separately so hierarchical and direct traffic cannot mix.
    let _class = comm.meter().scope_class(TrafficClass::Global);
    let _span = comm.telemetry().span(Phase::ReduceGlobal);
    let me = comm.rank();
    for (dst, rows) in &plan.global.sends[me] {
        after_node.send_rows(comm, *dst, TAG_GLOBAL, rows)?;
    }
    let mut acc: HashMap<u32, f64> = HashMap::new();
    for (r, v) in after_node.value_map() {
        if ownership.owner[r as usize] as usize == me {
            *acc.entry(r).or_insert(0.0) += v;
        }
    }
    for (r, &o) in ownership.owner.iter().enumerate() {
        if o as usize == me {
            acc.entry(r as u32).or_insert(0.0);
        }
    }
    for (src, sends) in plan.global.sends.iter().enumerate() {
        for (dst, rows) in sends {
            if *dst != me {
                continue;
            }
            let vals = recv_widened::<S>(comm, src, TAG_GLOBAL, rows.len())?;
            for (&r, v) in rows.iter().zip(vals) {
                *acc.entry(r).or_insert(0.0) += v;
            }
        }
    }
    Ok(PartialData::from_map(acc))
}

/// Transpose direction (backprojection input): owners scatter total row
/// values to every rank whose footprint contains them, using the same
/// direct plan with roles reversed. `owned` holds my rows' totals;
/// `footprint` lists the rows I need. Returns my footprint filled in.
pub fn scatter_direct<S: StorageScalar>(
    comm: &Communicator,
    plan: &DirectPlan,
    ownership: &Ownership,
    owned: &PartialData<S>,
    footprint: &[u32],
) -> Result<PartialData<S>, CommError> {
    let _class = comm.meter().scope_class(TrafficClass::Global);
    let _span = comm.telemetry().span(Phase::HaloExchange);
    let me = comm.rank();
    // Reversed roles: for plan entry sends[p] = (me, rows), I (the owner)
    // send those rows' totals back to p.
    for (src, sends) in plan.sends.iter().enumerate() {
        for (dst, rows) in sends {
            if *dst == me {
                owned.send_rows(comm, src, TAG_SCATTER, rows)?;
            }
        }
    }
    let mut acc: HashMap<u32, f64> = HashMap::new();
    let owned_map = owned.value_map();
    for &r in footprint {
        if ownership.owner[r as usize] as usize == me {
            // xct-allow(no-panic): plan invariant — ownership says this rank holds r
            acc.insert(r, *owned_map.get(&r).expect("owner holds all its rows"));
        }
    }
    for (dst, rows) in &plan.sends[me] {
        let vals = recv_widened::<S>(comm, *dst, TAG_SCATTER, rows.len())?;
        for (&r, v) in rows.iter().zip(vals) {
            acc.insert(r, v);
        }
    }
    Ok(PartialData::from_map(acc))
}

/// One reversed reduce level: designees return row values to the ranks
/// that contributed partials, restoring the pre-step footprint.
fn scatter_step<S: StorageScalar>(
    comm: &Communicator,
    step: &ReductionStep,
    mine: &PartialData<S>,
    tag: u64,
) -> Result<PartialData<S>, CommError> {
    let me = comm.rank();
    // Reversed roles: wherever rank q sent rows to designee me in the
    // forward direction, I now send those rows' totals back to q.
    for (src, sends) in step.sends.iter().enumerate() {
        for (dst, rows) in sends {
            if *dst == me {
                mine.send_rows(comm, src, tag, rows)?;
            }
        }
    }
    // My pre-step footprint = rows I kept as designee + rows I sent away.
    let mut acc: HashMap<u32, f64> = HashMap::new();
    let my_map = mine.value_map();
    for &r in &step.post.per_rank[me] {
        if let Some(&v) = my_map.get(&r) {
            acc.insert(r, v);
        }
    }
    for (dst, rows) in &step.sends[me] {
        let vals = recv_widened::<S>(comm, *dst, tag, rows.len())?;
        for (&r, v) in rows.iter().zip(vals) {
            acc.insert(r, v);
        }
    }
    Ok(PartialData::from_map(acc))
}

/// Transpose direction through the full hierarchy (the backprojection
/// pipeline of Fig 8, reversed): owners scatter totals to node designees
/// (global), designees fan out within nodes (node level), then within
/// sockets — restoring every rank's original footprint. Per-level wire
/// volumes are identical to the forward reduction, which is why the
/// paper reports one set of Table IV volumes for both directions.
pub fn scatter_hierarchical<S: StorageScalar>(
    comm: &Communicator,
    plan: &HierarchicalPlan,
    ownership: &Ownership,
    owned: &PartialData<S>,
    footprint: &[u32],
) -> Result<PartialData<S>, CommError> {
    let _halo = comm.telemetry().span(Phase::HaloExchange);
    let me = comm.rank();
    let post_node: PartialData<S> = {
        let _class = comm.meter().scope_class(TrafficClass::Global);
        // Reversed global: owners send totals back along the global plan.
        for (src, sends) in plan.global.sends.iter().enumerate() {
            for (dst, rows) in sends {
                if *dst == me {
                    owned.send_rows(comm, src, TAG_SCATTER | 0x10, rows)?;
                }
            }
        }
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let owned_map = owned.value_map();
        for &r in &plan.node.post.per_rank[me] {
            if ownership.owner[r as usize] as usize == me {
                // xct-allow(no-panic): plan invariant — ownership says this rank holds r
                acc.insert(r, *owned_map.get(&r).expect("owner holds its rows"));
            }
        }
        for (dst, rows) in &plan.global.sends[me] {
            let vals = recv_widened::<S>(comm, *dst, TAG_SCATTER | 0x10, rows.len())?;
            for (&r, v) in rows.iter().zip(vals) {
                acc.insert(r, v);
            }
        }
        PartialData::from_map(acc)
    };
    // Reversed node and socket levels. Intermediate results legitimately
    // carry rows designated to this rank on *peers'* behalf (they must be
    // forwarded onward); the final answer restricts to the caller's own
    // footprint.
    let post_socket = {
        let _class = comm.meter().scope_class(TrafficClass::Node);
        scatter_step(comm, &plan.node, &post_node, TAG_SCATTER | 0x20)?
    };
    let full = {
        let _class = comm.meter().scope_class(TrafficClass::Socket);
        scatter_step(comm, &plan.socket, &post_socket, TAG_SCATTER | 0x30)?
    };
    // The last level's rounding, restricted to the footprint.
    Ok(PartialData {
        undo: full.undo,
        ..PartialData::new(footprint.to_vec(), full.gather(footprint))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Footprints;
    use crate::runtime::run_ranks;
    use crate::topology::Topology;
    use xct_fp16::F16;

    /// Shared fixture: 8 ranks on 2×2×2, 32 rows, random-ish footprints.
    fn fixture() -> (Footprints, Ownership, Topology) {
        let topo = Topology::new(2, 2, 2);
        let owner: Vec<u32> = (0..32u32).map(|r| r / 4).collect();
        let fp: Vec<Vec<u32>> = (0..8usize)
            .map(|p| {
                (0..32u32)
                    .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                    .collect()
            })
            .collect();
        (Footprints::new(fp), Ownership::new(owner, 8), topo)
    }

    /// Partial value: deterministic function of (rank, row).
    fn partial(p: usize, r: u32) -> f32 {
        ((p as f32 + 1.0) * 0.125) + (r as f32) * 0.01
    }

    /// Expected total per row: sum over holders.
    fn expected_total(fp: &Footprints, r: u32) -> f64 {
        (0..fp.num_ranks())
            .filter(|&p| fp.per_rank[p].contains(&r))
            .map(|p| f64::from(partial(p, r)))
            .sum()
    }

    fn my_data(fp: &Footprints, p: usize) -> PartialData<f32> {
        let rows = fp.per_rank[p].clone();
        let vals = rows.iter().map(|&r| partial(p, r)).collect();
        PartialData::new(rows, vals)
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_rows_rejected_in_release_builds_too() {
        // Must panic with the clear message even with debug_asserts off.
        let _ = PartialData::new(vec![3, 1, 2], vec![0.0f32, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_rows_rejected() {
        let _ = PartialData::new(vec![1, 2, 2], vec![0.0f32, 1.0, 2.0]);
    }

    #[test]
    fn direct_exchange_produces_exact_totals() {
        let (fp, own, _) = fixture();
        let plan = DirectPlan::build(&fp, &own);
        let results = run_ranks(8, |comm| {
            let mine = my_data(&fp, comm.rank());
            execute_direct(comm, &plan, &own, &mine).unwrap()
        });
        for (p, res) in results.iter().enumerate() {
            assert_eq!(res.rows, own.rows_of(p), "rank {p} owned rows");
            for (&r, &v) in res.rows.iter().zip(&res.vals) {
                let expect = expected_total(&fp, r);
                assert!(
                    (f64::from(v) - expect).abs() < 1e-4,
                    "rank {p} row {r}: {v} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn hierarchical_equals_direct() {
        let (fp, own, topo) = fixture();
        let dplan = DirectPlan::build(&fp, &own);
        let hplan = HierarchicalPlan::build(&fp, &own, &topo);
        let direct = run_ranks(8, |comm| {
            execute_direct(comm, &dplan, &own, &my_data(&fp, comm.rank())).unwrap()
        });
        let hier = run_ranks(8, |comm| {
            execute_hierarchical(comm, &hplan, &own, &my_data(&fp, comm.rank())).unwrap()
        });
        for (d, h) in direct.iter().zip(&hier) {
            assert_eq!(d.rows, h.rows);
            for (a, b) in d.vals.iter().zip(&h.vals) {
                assert!((a - b).abs() < 1e-4, "direct {a} vs hierarchical {b}");
            }
        }
    }

    #[test]
    fn hierarchical_moves_less_between_nodes() {
        let (fp, own, topo) = fixture();
        let dplan = DirectPlan::build(&fp, &own);
        let hplan = HierarchicalPlan::build(&fp, &own, &topo);
        assert!(hplan.global.internode_elements(&topo) <= dplan.internode_elements(&topo));
    }

    #[test]
    fn half_precision_exchange_stays_close() {
        let (fp, own, topo) = fixture();
        let hplan = HierarchicalPlan::build(&fp, &own, &topo);
        let results = run_ranks(8, |comm| {
            let p = comm.rank();
            let rows = fp.per_rank[p].clone();
            let vals: Vec<f32> = rows.iter().map(|&r| partial(p, r)).collect();
            let mine = PartialData::<F16>::quantize(rows, &vals);
            execute_hierarchical(comm, &hplan, &own, &mine).unwrap()
        });
        for res in &results {
            for (&r, v) in res.rows.iter().zip(res.widened()) {
                let expect = expected_total(&fp, r);
                // Half quantization at each of ≤3 hops.
                assert!(
                    (f64::from(v) - expect).abs() <= expect.abs() * 3e-3 + 1e-3,
                    "row {r}: {v} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn scatter_returns_footprint_values() {
        let (fp, own, _) = fixture();
        let plan = DirectPlan::build(&fp, &own);
        let results = run_ranks(8, |comm| {
            let p = comm.rank();
            // Owners hold totals = row id as value.
            let rows = own.rows_of(p);
            let vals: Vec<f32> = rows.iter().map(|&r| r as f32).collect();
            let owned = PartialData::new(rows, vals);
            scatter_direct(comm, &plan, &own, &owned, &fp.per_rank[p]).unwrap()
        });
        for (p, res) in results.iter().enumerate() {
            assert_eq!(res.rows, fp.per_rank[p], "rank {p} footprint");
            for (&r, &v) in res.rows.iter().zip(&res.vals) {
                assert_eq!(v, r as f32);
            }
        }
    }

    #[test]
    fn hierarchical_scatter_matches_direct_scatter() {
        let (fp, own, topo) = fixture();
        let dplan = DirectPlan::build(&fp, &own);
        let hplan = HierarchicalPlan::build(&fp, &own, &topo);
        let make_owned = |p: usize| {
            let rows = own.rows_of(p);
            let vals: Vec<f32> = rows.iter().map(|&r| 10.0 + r as f32).collect();
            PartialData::new(rows, vals)
        };
        let direct = run_ranks(8, |comm| {
            let p = comm.rank();
            scatter_direct(comm, &dplan, &own, &make_owned(p), &fp.per_rank[p]).unwrap()
        });
        let hier = run_ranks(8, |comm| {
            let p = comm.rank();
            scatter_hierarchical(comm, &hplan, &own, &make_owned(p), &fp.per_rank[p]).unwrap()
        });
        for (p, (d, h)) in direct.iter().zip(&hier).enumerate() {
            assert_eq!(d.rows, h.rows, "rank {p} footprint rows");
            for ((&r, a), b) in d.rows.iter().zip(&d.vals).zip(&h.vals) {
                assert!((a - b).abs() < 1e-5, "rank {p} row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn hierarchical_scatter_half_precision() {
        let (fp, own, topo) = fixture();
        let hplan = HierarchicalPlan::build(&fp, &own, &topo);
        let results = run_ranks(8, |comm| {
            let p = comm.rank();
            let rows = own.rows_of(p);
            let vals: Vec<f32> = rows.iter().map(|&r| r as f32 * 0.25).collect();
            let owned = PartialData::<F16>::quantize(rows, &vals);
            scatter_hierarchical(comm, &hplan, &own, &owned, &fp.per_rank[p]).unwrap()
        });
        for (p, res) in results.iter().enumerate() {
            assert_eq!(res.rows, fp.per_rank[p]);
            for (&r, v) in res.rows.iter().zip(res.widened()) {
                // Values pass through ≤3 half-precision hops unchanged:
                // 0.25·r is exact in half precision under every
                // power-of-two scale the hops choose.
                assert_eq!(v, r as f32 * 0.25, "rank {p} row {r}");
            }
        }
    }

    #[test]
    fn rows_owned_by_nobody_in_footprints_still_appear_as_zero() {
        // Row 31 owned by rank 7; strip it from all footprints.
        let topo = Topology::new(1, 2, 2);
        let owner: Vec<u32> = (0..8u32).map(|r| r / 2).collect();
        let fp = Footprints::new(vec![vec![0, 1], vec![2], vec![4], vec![6]]);
        let own = Ownership::new(owner, 4);
        let plan = DirectPlan::build(&fp, &own);
        let results = run_ranks(4, |comm| {
            let p = comm.rank();
            let rows = fp.per_rank[p].clone();
            let vals = vec![1.0f32; rows.len()];
            execute_direct(comm, &plan, &own, &PartialData::new(rows, vals)).unwrap()
        });
        let _ = topo;
        // Rank 0 owns rows 0,1: got 1.0 each. Rank 1 owns 2,3: row 3 is
        // in nobody's footprint — must still be present, as zero.
        assert_eq!(results[1].rows, vec![2, 3]);
        assert_eq!(results[1].vals[1], 0.0);
    }
}
