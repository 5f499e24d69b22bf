//! Compiled communication plans: allocation-free, overlappable execution.
//!
//! The one exchange executor. The test-only *reference* (`exec.rs`)
//! re-derives row routing from the plan on every call through
//! `HashMap<u32, f64>` scratch, which is clear but allocates in steady
//! state and forces every exchange to complete before local work
//! continues. This module compiles a [`HierarchicalPlan`] plus an
//! [`Ownership`] once, into per-rank tables of *positions*: for every
//! level, which indices of the current value buffer go to which peer,
//! which indices carry over locally (`keeps`), and where each received
//! element lands. Execution is then pure index arithmetic over reusable
//! buffers ([`ExchangeScratch`]). Each program carries its
//! [`ExchangeLevel`], which gives its tag, traffic class and span.
//!
//! **The scatter is the reduction transposed (§III-D1).** Each forward
//! level is compiled once, and its scatter twin is its transpose: the
//! twin sends what the level received, receives what it sent, runs its
//! carries backwards, and outputs the level's input. A [`RankPlan`] is
//! the two program lists, [`RankPlan::forward`] (footprint → owned) and
//! [`RankPlan::transpose`] (owned → footprint); the last transpose
//! level's output is the footprint itself, so no restriction exists.
//!
//! **One level step.** [`RankPlan::reduce`] and [`RankPlan::scatter`]
//! are the executor's entry points — one body, run over one list or the
//! other — and every level of both directions — socket, node and global,
//! and their three scatter twins — runs through the same `post` /
//! `drain` pair. `post` sends one message per peer,
//! headed by its slices' undos on a scaled wire, then posts the receives;
//! `drain` waits for them in plan order and forms the level one slice at
//! a time in a one-slice `f64` accumulator: seeded with the local carries
//! times the slice's own undo, each payload times its sender's undo
//! landed in plan order (accumulated when reducing, assigned when
//! scattering), and the slice rounded for the next level. The input of
//! every level is the *held batch* — every slice's values at storage
//! width, beside their undos: the caller's batch quantized into it first,
//! each level's output rounded into it for the next, and the last
//! level's widened into the caller's buffer.
//!
//! **One rendezvous per local level per apply.** The socket and node
//! levels run once for the whole fused minibatch — posted and drained at
//! once, one message per peer carrying every slice, slice-major, on the
//! level's base tag. Only the global levels run per slice, under the
//! slice's salt.
//!
//! Direct exchange is the hierarchy of one-GPU nodes: a plan built on
//! `Topology::new(ranks, 1, 1)` has singleton socket and node groups.
//! A local level on which no rank sends is not compiled at all: its
//! keeps would be the identity map, it would receive nothing, and its
//! rounding to storage precision is idempotent on values already at
//! storage precision (its power-of-two rescale is at most an exact
//! doubling) — so omitting it changes no finite output bit. The flat plan
//! therefore compiles to the global exchange alone.
//!
//! **Per-sender scales (§III-C1).** On a half-width wire every sender
//! quantizes each slice with the power-of-two scale of its own data, and
//! the slice's undo travels in the message header — one `f32` per slice,
//! ahead of the payload. A level seeds its `f64` accumulator with its
//! own carries times its own undo, adds each payload times its sender's
//! undo in plan order, and holds its output rounded under the scale of
//! that output's own max-norm, its undo beside it. No rank waits on
//! another's maximum, and a slice far smaller than its neighbours, or
//! than another rank's partial, keeps its precision. Full-width wires
//! carry no header and every scale on them is 1.
//!
//! **Runs, not values.** The held batch is in the storage type `S`
//! itself ([`ExchangeScratch<S>`]), so a level step converts only where
//! the width changes, and whole runs at a time through
//! [`StorageScalar`]: each slice of the caller's batch quantized at once
//! ([`StorageScalar::narrow_scaled_into`]), each level's output slice
//! rounded at once ([`StorageScalar::narrow_f64_scaled_into`]), the last
//! level's widened at once ([`StorageScalar::widen_scaled_into`]) —
//! through the F16C conversions on a half wire. Each transfer is
//! gathered straight to bytes (`encode_gather`: a held value is already
//! in `S`), and the carries and payloads widen into the accumulator
//! through the wire module's `seed` and `land`.
//!
//! Numerical contract: results are **bit-identical** to the reference
//! executor run slice by slice. Both quantize with the same scales, seed
//! each level's accumulator the same way, add received contributions in
//! the same (source-ascending) plan order in f64, and round to the
//! storage scalar once per level — identical floating-point operations in
//! identical order, per element, run in bulk here and one value at a time
//! there; batching changes what travels in one message, not what is
//! added.
//!
//! Splitting the step is what makes the paper's §III-E overlap
//! executable: a global level posts slice `f` at `Post(f)` of
//! [`exchange_schedule`] and drains it at `Drain(f)`; under `overlap`
//! every slice's exchange is on the wire before the first drain, each
//! pending in its own slot of the scratch. Telemetry spans close inside
//! the call that opened them (the level's [`ExchangeLevel::span`] around
//! each post and each drain, `CommWait` around every blocking wait), so
//! in-flight exchanges never chain spans under each other; the overlap
//! shows in the timestamps instead.

// Row and position ids in this module are `u32` by the `Ownership`
// contract (`num_rows` fits `u32`); enumerate-index casts back into that
// space are lossless by construction.
#![allow(clippy::cast_possible_truncation)]
use crate::plan::{HierarchicalPlan, Ownership};
use crate::protocol::{exchange_schedule, slice_salt, ExchangeLevel, ExchangeOp};
use crate::runtime::{CommError, Communicator, RecvRequest};
use crate::topology::Topology;
use crate::wire::{
    encode_gather, header_bytes, land, message_slice, seed, slice_scale, write_header,
};
use std::collections::HashMap;
use xct_fp16::{max_abs, max_abs_f64, StorageScalar};
use xct_telemetry::Phase;

/// One precomputed point-to-point transfer: the buffer positions whose
/// values go to (or arrive from) `peer`, in wire order.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// The peer rank.
    pub peer: usize,
    /// Positions in the local value buffer (send: gather order;
    /// recv: landing positions).
    pub idx: Vec<u32>,
}

impl Transfer {
    /// Validated constructor: position tables must be strictly ascending
    /// (every compile path gathers sorted row lists through monotone
    /// position maps, so a violation means a corrupted plan). Checked in
    /// release builds too, because an unsorted table silently scrambles
    /// payload/position pairing far from the cause.
    pub fn new(peer: usize, idx: Vec<u32>) -> Self {
        match Self::try_new(peer, idx) {
            Ok(t) => t,
            // xct-allow(no-panic): validated constructor — rejects corrupted plans at the boundary; try_new is the fallible form
            Err(e) => panic!("invalid transfer for peer {peer}: {e}"),
        }
    }

    /// Fallible [`Transfer::new`], returning the structured witness.
    pub fn try_new(peer: usize, idx: Vec<u32>) -> Result<Self, crate::plan::PlanError> {
        if let Some(k) = idx.windows(2).position(|w| w[0] >= w[1]) {
            return Err(crate::plan::PlanError::UnsortedIndices {
                position: k + 1,
                prev: idx[k],
                next: idx[k + 1],
            });
        }
        Ok(Transfer { peer, idx })
    }
}

/// One compiled exchange level: input buffer → output buffer. Fields are
/// private (execution owns the invariants); the read-only accessors below
/// exist for the static plan verifier (xct-verify), which symbolically
/// replays these programs.
#[derive(Debug, Clone)]
pub struct LevelProgram {
    /// Which exchange this is: tag, traffic class and span follow.
    level: ExchangeLevel,
    /// Output buffer length.
    out_len: usize,
    /// Outgoing transfers, gathered from the input buffer.
    sends: Vec<Transfer>,
    /// Local carries: `(input position, output position)`.
    keeps: Vec<(u32, u32)>,
    /// Incoming transfers in the reference executor's completion order
    /// (source-ascending for reductions, destination-ascending for
    /// scatters); indices are output positions.
    recvs: Vec<Transfer>,
}

impl LevelProgram {
    /// Assembles a level program from raw tables: the one constructor,
    /// which the compile paths use and the static verifier (xct-verify)
    /// builds its *mutated* must-reject programs with.
    pub fn from_parts(
        level: ExchangeLevel,
        out_len: usize,
        sends: Vec<Transfer>,
        keeps: Vec<(u32, u32)>,
        recvs: Vec<Transfer>,
    ) -> Self {
        LevelProgram {
            level,
            out_len,
            sends,
            keeps,
            recvs,
        }
    }

    /// Which exchange of the pipeline this program runs.
    pub fn level(&self) -> ExchangeLevel {
        self.level
    }

    /// Output buffer length.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Outgoing transfers (indices gather from the input buffer).
    pub fn sends(&self) -> &[Transfer] {
        &self.sends
    }

    /// Local carries as `(input position, output position)` pairs.
    pub fn keeps(&self) -> &[(u32, u32)] {
        &self.keeps
    }

    /// Incoming transfers (indices land in the output buffer), in
    /// completion order.
    pub fn recvs(&self) -> &[Transfer] {
        &self.recvs
    }

    /// This forward level transposed, run as `twin` (§III-D1: the
    /// backprojection exchange is a transpose of the projection's): what
    /// it received it sends back, what it sent it receives, its carries
    /// run backwards, and its output is this level's `in_len`-long input.
    fn transposed(&self, twin: ExchangeLevel, in_len: usize) -> Self {
        let keeps = self.keeps.iter().map(|&(s, d)| (d, s)).collect();
        let (sends, recvs) = (self.recvs.clone(), self.sends.clone());
        LevelProgram::from_parts(twin, in_len, sends, keeps, recvs)
    }
}

/// Everything one rank needs to run the exchange without consulting the
/// plan row tables again: the forward level programs and their
/// transposes. Each list's buffer lengths chain from its input to the
/// other's: footprint → … → owned forward, owned → … → footprint back.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Footprint length (reduce input / scatter output).
    in_len: usize,
    /// Owned-row count (reduce output / scatter input).
    owned_len: usize,
    /// Forward levels that move data (socket, node, global, in order).
    forward: Vec<LevelProgram>,
    /// Their transposes, in execution order (global, node, socket).
    transpose: Vec<LevelProgram>,
}

/// Per-rank compiled plans for one decomposition.
#[derive(Debug, Clone)]
pub struct CompiledPlans {
    per_rank: Vec<RankPlan>,
}

/// Position-lookup table for a sorted row list.
fn positions(rows: &[u32]) -> HashMap<u32, u32> {
    rows.iter()
        .enumerate()
        .map(|(i, &r)| (r, i as u32))
        .collect()
}

fn gather_idx(rows: &[u32], pos: &HashMap<u32, u32>) -> Vec<u32> {
    rows.iter()
        // xct-allow(no-panic): plan invariant — compile gathers only rows present in the position map
        .map(|r| *pos.get(r).unwrap_or_else(|| panic!("row {r} not held")))
        .collect()
}

/// Compiles one forward level for `me`: input rows `cur_rows`, output
/// rows `out_rows`, routed by the level's `sends` table (a reduction
/// step's designee routing, or the global level's owner routing).
fn compile_level(
    level: ExchangeLevel,
    me: usize,
    sends: &[Vec<(usize, Vec<u32>)>],
    cur_rows: &[u32],
    out_rows: &[u32],
) -> LevelProgram {
    let cur_pos = positions(cur_rows);
    let out_pos = positions(out_rows);
    let my_sends = sends[me]
        .iter()
        .map(|(dst, rows)| Transfer::new(*dst, gather_idx(rows, &cur_pos)))
        .collect();
    // Output rows I already hold carry over locally; the rest of the
    // output starts at zero.
    let keeps = out_rows
        .iter()
        .enumerate()
        .filter_map(|(d, r)| cur_pos.get(r).map(|&s| (s, d as u32)))
        .collect();
    // Source-ascending, matching the reference receive loop.
    let mut recvs = Vec::new();
    for (src, routed) in sends.iter().enumerate() {
        for (dst, rows) in routed {
            if *dst == me {
                recvs.push(Transfer::new(src, gather_idx(rows, &out_pos)));
            }
        }
    }
    LevelProgram::from_parts(level, out_rows.len(), my_sends, keeps, recvs)
}

impl CompiledPlans {
    /// Compiles a three-level hierarchical plan for every rank: each
    /// forward level once, and its scatter twin as its transpose. A local
    /// level (and its twin) on which no rank sends is left out: every row
    /// of such a level has one holder, its designee, so the level's output
    /// rows are its input rows and the next level reads them unchanged.
    /// The global level is always compiled; it assembles the owned output.
    pub fn compile_hierarchical(
        footprints: &crate::plan::Footprints,
        ownership: &Ownership,
        plan: &HierarchicalPlan,
    ) -> Self {
        use ExchangeLevel::{Global, Node, ScatterGlobal, ScatterNode, ScatterSocket, Socket};
        // (forward level, scatter twin, step) of the local levels, in
        // forward order; `None` where no rank sends.
        let local = [
            (Socket, ScatterSocket, &plan.socket),
            (Node, ScatterNode, &plan.node),
        ]
        .map(|l| l.2.sends.iter().any(|s| !s.is_empty()).then_some(l));
        let per_rank = (0..footprints.num_ranks())
            .map(|me| {
                let fp = &footprints.per_rank[me];
                let owned = ownership.rows_of(me);
                let levels = (local.iter().flatten())
                    .map(|&(level, twin, step)| {
                        (level, twin, &step.sends, &step.post.per_rank[me][..])
                    })
                    .chain([(Global, ScatterGlobal, &plan.global.sends, &owned[..])]);
                let (mut forward, mut transpose) = (Vec::new(), Vec::new());
                let mut rows: &[u32] = fp;
                for (level, twin, sends, out_rows) in levels {
                    let program = compile_level(level, me, sends, rows, out_rows);
                    transpose.push(program.transposed(twin, rows.len()));
                    forward.push(program);
                    rows = out_rows;
                }
                transpose.reverse();
                RankPlan::from_parts(fp.len(), owned.len(), forward, transpose)
            })
            .collect();
        CompiledPlans { per_rank }
    }

    /// Convenience: hierarchical compilation straight from geometry.
    pub fn build_hierarchical(
        footprints: &crate::plan::Footprints,
        ownership: &Ownership,
        topo: &Topology,
    ) -> Self {
        let plan = HierarchicalPlan::build(footprints, ownership, topo);
        Self::compile_hierarchical(footprints, ownership, &plan)
    }

    /// Assembles compiled plans from per-rank programs built with
    /// [`RankPlan::from_parts`] (corpus use).
    pub fn from_ranks(per_rank: Vec<RankPlan>) -> Self {
        CompiledPlans { per_rank }
    }

    /// The compiled program for `rank`.
    pub fn rank(&self, rank: usize) -> &RankPlan {
        &self.per_rank[rank]
    }

    /// Number of ranks compiled.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }
}

/// Reusable buffers for compiled exchanges. One per rank thread; after a
/// warm-up apply every buffer has reached steady capacity and execution
/// allocates nothing (asserted in `tests/alloc_free.rs`).
///
/// Between two levels the scratch holds every slice's values in the
/// storage type `S` — each level rounds its output to `S` once — beside
/// each slice's undo; that held batch is the only input a level reads. A
/// level is formed one slice at a time in a one-slice `f64` accumulator.
#[derive(Debug)]
pub struct ExchangeScratch<S> {
    /// The held batch, slice-major: the current level's input (`[0]`)
    /// and the output being formed (`[1]`).
    held: [Vec<S>; 2],
    /// One undo per slice of the held batch (`[0]`) and of the output
    /// being formed (`[1]`): a held value times its slice's undo is the
    /// value it stands for.
    undos: [Vec<f32>; 2],
    /// The buffers of the level step.
    step: Step,
}

impl<S> Default for ExchangeScratch<S> {
    fn default() -> Self {
        ExchangeScratch {
            held: [Vec::new(), Vec::new()],
            undos: Default::default(),
            step: Step::default(),
        }
    }
}

impl<S: StorageScalar> ExchangeScratch<S> {
    /// Fresh scratch (buffers grow to steady size during warm-up).
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes `vals`, `slices` slices of `len` values, into the held
    /// batch under the whole batch's profile context: each slice as
    /// `S(value · factor)` under the §III-C1 scale of its own max-norm
    /// ([`StorageScalar::narrow_scaled_into`]), its undo beside it.
    fn hold(&mut self, comm: &Communicator, vals: &[f32], slices: usize, len: usize) {
        assert_eq!(vals.len(), slices * len, "batch length mismatch");
        // Whole-batch work: every slice's cost.
        comm.telemetry().profile_slices_set(0, slices as u32);
        let (cur, undos) = (&mut self.held[0], &mut self.undos[0]);
        cur.clear();
        cur.resize(vals.len(), S::zero());
        undos.clear();
        for f in 0..slices {
            let (slice, held) = (
                &vals[f * len..(f + 1) * len],
                &mut cur[f * len..(f + 1) * len],
            );
            let (factor, undo) = slice_scale::<S>(|| f64::from(max_abs(slice)));
            S::narrow_scaled_into(slice, factor, held);
            undos.push(undo);
        }
    }

    /// Runs `level` over the held batch of `len`-long slices and holds
    /// its output in its place, each slice rounded under the scale of its
    /// own max-norm.
    fn advance(
        &mut self,
        comm: &Communicator,
        level: &LevelProgram,
        len: usize,
        overlap: bool,
    ) -> Result<(), CommError> {
        let ExchangeScratch {
            held: [cur, nxt],
            undos: [undo_cur, undo_nxt],
            step,
        } = self;
        // Every slice of the output is formed whole: nothing to reset.
        nxt.resize(undo_cur.len() * level.out_len, S::zero());
        undo_nxt.resize(undo_cur.len(), 1.0);
        let input = Batch {
            vals: cur,
            len,
            undos: undo_cur,
        };
        step.run::<S>(comm, level, input, overlap, nxt, undo_nxt)?;
        std::mem::swap(cur, nxt);
        std::mem::swap(undo_cur, undo_nxt);
        Ok(())
    }

    /// Widens the held batch of `len`-long slices into `out`: each held
    /// value times its slice's undo.
    fn widen(&self, out: &mut [f32], len: usize) {
        for (f, &undo) in self.undos[0].iter().enumerate() {
            let range = f * len..(f + 1) * len;
            S::widen_scaled_into(&self.held[0][range.clone()], undo, &mut out[range]);
        }
    }
}

/// A held batch as a level reads it: `undos.len()` slices of `len`
/// values each, slice-major, each slice's undo beside it.
#[derive(Clone, Copy)]
struct Batch<'a, H> {
    vals: &'a [H],
    len: usize,
    undos: &'a [f32],
}

impl<'a, H: Copy> Batch<'a, H> {
    /// The values of slice `f`.
    fn values(self, f: usize) -> &'a [H] {
        &self.vals[f * self.len..(f + 1) * self.len]
    }

    /// Slice `f` alone, as a batch of one.
    fn slice(self, f: usize) -> Self {
        Batch {
            vals: self.values(f),
            len: self.len,
            undos: &self.undos[f..=f],
        }
    }
}

/// The buffers of the one level step: the one-slice accumulator (and, on
/// a half-width wire, one input slice widened), the received payloads of
/// the level being drained, and the receives of every exchange in flight.
#[derive(Debug, Default)]
struct Step {
    /// One slice of the level being formed.
    acc: Vec<f64>,
    /// One input slice of a half-width wire, widened for its carries.
    wide: Vec<f32>,
    /// The drained level's received payloads, in plan order.
    payloads: Vec<Vec<u8>>,
    /// The posted receives of each exchange in flight, by the fused
    /// slice a global level carries (a local level, drained as soon as
    /// it is posted, uses the first).
    pending: Vec<Vec<RecvRequest>>,
}

impl Step {
    /// Runs `level` over `input` into `out` and its `undos`, which hold
    /// as many slices of `level.out_len` values: a local level is posted
    /// and drained at once, on its base tag, carrying the whole batch; a
    /// global level posts slice `f` under its [`slice_salt`] at `Post(f)`
    /// of [`exchange_schedule`] and drains it at `Drain(f)`, so under
    /// `overlap` every slice is on the wire before the first drain.
    fn run<S: StorageScalar>(
        &mut self,
        comm: &Communicator,
        level: &LevelProgram,
        input: Batch<'_, S>,
        overlap: bool,
        out: &mut [S],
        undos: &mut [f32],
    ) -> Result<(), CommError> {
        let tag = level.level.tag();
        let slices = input.undos.len();
        let per_slice = level.level.per_slice();
        let slots = if per_slice { slices } else { 1 };
        if self.pending.len() < slots {
            self.pending.resize_with(slots, Vec::new);
        }
        if !per_slice {
            self.post::<S>(comm, level, tag, 0, input)?;
            return self.drain::<S>(comm, level, 0, input, out, undos);
        }
        let telemetry = comm.telemetry();
        let len = level.out_len;
        for op in exchange_schedule(slices, overlap) {
            match op {
                ExchangeOp::Post(f) => {
                    telemetry.profile_slice_set(f as u32);
                    let tag = tag ^ slice_salt(f);
                    self.post::<S>(comm, level, tag, f, input.slice(f))?;
                }
                ExchangeOp::Drain(f) => {
                    telemetry.profile_slice_set(f as u32);
                    let out = &mut out[f * len..(f + 1) * len];
                    let undos = &mut undos[f..=f];
                    self.drain::<S>(comm, level, f, input.slice(f), out, undos)?;
                }
            }
        }
        // Whole-batch work again: every slice's cost.
        telemetry.profile_slices_set(0, slices as u32);
        Ok(())
    }

    /// Posts one exchange of `level` under `tag`: one message per peer
    /// carrying every slice of `input` — the header of the slices' undos
    /// (half-width wires only), then the transfer's positions slice-major,
    /// gathered as their bytes into the communicator's buffer pool — then
    /// the receives, into pending slot `slot`.
    fn post<S: StorageScalar>(
        &mut self,
        comm: &Communicator,
        level: &LevelProgram,
        tag: u64,
        slot: usize,
        input: Batch<'_, S>,
    ) -> Result<(), CommError> {
        let _span = comm.telemetry().span(level.level.span());
        let slices = input.undos.len();
        {
            let _class = comm.meter().scope_class(level.level.class());
            for t in &level.sends {
                let bytes = header_bytes::<S>(slices) + slices * t.idx.len() * S::BYTES;
                let mut buf = comm.pooled_buf(bytes);
                write_header::<S>(input.undos, &mut buf);
                for f in 0..slices {
                    encode_gather(input.values(f), &t.idx, &mut buf);
                }
                comm.send(t.peer, tag, buf)?;
            }
        }
        let reqs = &mut self.pending[slot];
        for t in &level.recvs {
            reqs.push(comm.irecv(t.peer, tag)?);
        }
        Ok(())
    }

    /// Completes the exchange posted into `slot`: waits for its receives
    /// in plan order (the blocking part, under its own `CommWait` span),
    /// then forms the level one slice at a time in the accumulator —
    /// seeded with the local carries of `input` times the slice's own
    /// undo, each payload slice times its sender's undo landed in plan
    /// order (accumulated on the [`ExchangeLevel::REDUCE`] levels,
    /// assigned on the [`ExchangeLevel::SCATTER`] ones) — and rounds it
    /// into its slice of `out`, its undo into `undos`.
    // xct-hot
    fn drain<S: StorageScalar>(
        &mut self,
        comm: &Communicator,
        level: &LevelProgram,
        slot: usize,
        input: Batch<'_, S>,
        out: &mut [S],
        undos: &mut [f32],
    ) -> Result<(), CommError> {
        let _span = comm.telemetry().span(level.level.span());
        let Step {
            acc,
            wide,
            payloads,
            pending,
        } = self;
        payloads.clear();
        {
            // Blocked time, not exchange work: under overlap this is
            // pipeline stall, and charging it to the level's span would
            // misattribute the wait. Each message's length is checked
            // where its slices are read (`message_slice`).
            let _wait = comm.telemetry().span(Phase::CommWait);
            for (req, t) in pending[slot].drain(..).zip(&level.recvs) {
                debug_assert_eq!(req.src(), t.peer);
                payloads.push(req.wait(comm)?);
            }
        }
        let add = ExchangeLevel::REDUCE.contains(&level.level);
        let slices = input.undos.len();
        for (f, &undo) in input.undos.iter().enumerate() {
            acc.clear();
            acc.resize(level.out_len, 0.0);
            seed(input.values(f), &level.keeps, f64::from(undo), wide, acc);
            for (t, bytes) in level.recvs.iter().zip(payloads.iter()) {
                let (undo, payload) = message_slice::<S>(bytes, slices, t.idx.len(), f);
                land::<S>(payload, &t.idx, undo, add, acc);
            }
            let len = level.out_len;
            undos[f] = round_scaled::<S>(acc, &mut out[f * len..(f + 1) * len]);
        }
        for bytes in payloads.drain(..) {
            comm.recycle(bytes);
        }
        Ok(())
    }
}

/// Rounds one slice of a level's output to storage precision — once per
/// level, as the reference executor materializes its per-level data —
/// under the scale of the slice's own max-norm, holds it in `out` and
/// returns its undo. One pass over `vals` for the max-norm, one to round
/// ([`StorageScalar::narrow_f64_scaled_into`]); on a full-width wire the
/// scale is 1 and the first is skipped.
fn round_scaled<S: StorageScalar>(vals: &[f64], out: &mut [S]) -> f32 {
    let (factor, undo) = slice_scale::<S>(|| max_abs_f64(vals));
    S::narrow_f64_scaled_into(vals, f64::from(factor), out);
    undo
}

impl RankPlan {
    /// Assembles a rank plan from raw level programs — the corpus
    /// counterpart of [`LevelProgram::from_parts`]. Nothing ties
    /// `transpose` to `forward` here: the verifier proves each list on
    /// its own.
    pub fn from_parts(
        in_len: usize,
        owned_len: usize,
        forward: Vec<LevelProgram>,
        transpose: Vec<LevelProgram>,
    ) -> Self {
        RankPlan {
            in_len,
            owned_len,
            forward,
            transpose,
        }
    }

    /// Footprint length (reduce input / scatter output).
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Owned-row count (reduce output / scatter input).
    pub fn owned_len(&self) -> usize {
        self.owned_len
    }

    /// The forward levels that move data (socket, node, global), in
    /// execution order: footprint in, owned rows out. Read-only view for
    /// the static verifier.
    pub fn forward(&self) -> &[LevelProgram] {
        &self.forward
    }

    /// The forward levels transposed (global, node, socket), in execution
    /// order: owned rows in, footprint out.
    pub fn transpose(&self) -> &[LevelProgram] {
        &self.transpose
    }

    /// The forward reduction of a batch: `partial` holds `slices` slices
    /// of footprint partials, slice-major (the fused kernel's output),
    /// `out` receives as many slices of owned totals. Slice `f` is
    /// quantized under the §III-C1 scale of this rank's own partial for
    /// it and reduced within socket then node groups, the whole batch at
    /// once; then each slice's global exchange to its owners runs in
    /// [`exchange_schedule`]`(slices, overlap)` order, and each total is
    /// rounded under the scale of its own max-norm.
    pub fn reduce<S: StorageScalar>(
        &self,
        comm: &Communicator,
        scratch: &mut ExchangeScratch<S>,
        partial: &[f32],
        slices: usize,
        overlap: bool,
        out: &mut [f32],
    ) -> Result<(), CommError> {
        let levels = (&self.forward[..], self.in_len);
        Self::exchange(comm, scratch, levels, partial, slices, overlap, out)
    }

    /// The transpose scatter of a batch: `owned` holds `slices` slices of
    /// owned totals, `out` receives as many slices of footprint values.
    /// Each owner quantizes slice `f` under the scale of its own max-norm
    /// and scatters it in [`exchange_schedule`]`(slices, overlap)` order;
    /// the node and socket fan-out then run once for the whole batch,
    /// each level rounding each slice under the scale of its own output.
    pub fn scatter<S: StorageScalar>(
        &self,
        comm: &Communicator,
        scratch: &mut ExchangeScratch<S>,
        owned: &[f32],
        slices: usize,
        overlap: bool,
        out: &mut [f32],
    ) -> Result<(), CommError> {
        let levels = (&self.transpose[..], self.owned_len);
        Self::exchange(comm, scratch, levels, owned, slices, overlap, out)
    }

    /// The one body of both directions: holds `input` — `slices` slices
    /// of the `len` values `levels` start from — under the first level's
    /// span, advances the held batch through every level, and widens it
    /// into `out` under the last level's span.
    fn exchange<S: StorageScalar>(
        comm: &Communicator,
        scratch: &mut ExchangeScratch<S>,
        (levels, mut len): (&[LevelProgram], usize),
        input: &[f32],
        slices: usize,
        overlap: bool,
        out: &mut [f32],
    ) -> Result<(), CommError> {
        let out_len = levels.last().map_or(len, |level| level.out_len);
        assert_eq!(out.len(), slices * out_len, "output length mismatch");
        let span = |level: Option<&LevelProgram>| {
            level.map(|level| comm.telemetry().span(level.level.span()))
        };
        {
            let _span = span(levels.first());
            scratch.hold(comm, input, slices, len);
        }
        for level in levels {
            scratch.advance(comm, level, len, overlap)?;
            len = level.out_len;
        }
        let _span = span(levels.last());
        scratch.widen(out, len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{
        execute_direct, execute_hierarchical, scatter_direct, scatter_hierarchical, PartialData,
    };
    use crate::metrics::TrafficClass;
    use crate::plan::{DirectPlan, Footprints};
    use crate::runtime::run_ranks;
    use xct_fp16::{F16, HALF_RELATIVE_EPS};

    /// The reference executor's fixture on `topo`: four rows per rank,
    /// deterministic overlapping footprints (32 rows on 2×2×2).
    fn fixture_on(topo: Topology) -> (Footprints, Ownership) {
        let ranks = topo.size();
        let rows = 4 * ranks as u32;
        let owner: Vec<u32> = (0..rows).map(|r| r / 4).collect();
        let fp: Vec<Vec<u32>> = (0..ranks)
            .map(|p| {
                (0..rows)
                    .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                    .collect()
            })
            .collect();
        (Footprints::new(fp), Ownership::new(owner, ranks))
    }

    fn fixture() -> (Footprints, Ownership, Topology) {
        let topo = Topology::new(2, 2, 2);
        let (fp, own) = fixture_on(topo);
        (fp, own, topo)
    }

    fn partial(p: usize, r: u32) -> f32 {
        ((p as f32 + 1.0) * 0.125) + (r as f32) * 0.01
    }

    fn bits(vals: &[f32]) -> Vec<u32> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    /// A batch of `fusing` slices reduced and scattered by the compiled
    /// executor against the reference executor run slice by slice: every
    /// owned total and every scattered footprint value bit for bit, each
    /// slice of a different magnitude, so on a half-width wire every
    /// sender's scale differs per slice. Returns each rank's socket- and
    /// node-class message count for the one batch.
    fn batch_matches_reference<S: StorageScalar>(topo: Topology, fusing: usize) -> Vec<u64> {
        let (fp, own) = fixture_on(topo);
        let plan = HierarchicalPlan::build(&fp, &own, &topo);
        let compiled = CompiledPlans::compile_hierarchical(&fp, &own, &plan);
        let magnitude = |f: usize| 8.0f32.powi(f as i32 - 2);
        let slice_val =
            |f: usize, p: usize, r: u32| (partial(p, r) + f as f32 * 0.375) * magnitude(f);
        let total = |f: usize, r: u32| (0.5 + (r as f32) * 0.03125) / magnitude(f);
        let reference = run_ranks(topo.size(), |comm| {
            let me = comm.rank();
            let (rows, mine) = (&fp.per_rank[me], own.rows_of(me));
            let (mut owned, mut back) = (Vec::new(), Vec::new());
            for f in 0..fusing {
                let vals: Vec<f32> = rows.iter().map(|&r| slice_val(f, me, r)).collect();
                let part = PartialData::<S>::quantize(rows.clone(), &vals);
                let out = execute_hierarchical(comm, &plan, &own, &part).unwrap();
                owned.extend(out.widened());
                let vals: Vec<f32> = mine.iter().map(|&r| total(f, r)).collect();
                let totals = PartialData::<S>::quantize(mine.clone(), &vals);
                let out = scatter_hierarchical(comm, &plan, &own, &totals, rows).unwrap();
                back.extend(out.widened());
            }
            (bits(&owned), bits(&back))
        });
        let batched = run_ranks(topo.size(), |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            let (rows, mine) = (&fp.per_rank[me], own.rows_of(me));
            let part: Vec<f32> = (0..fusing)
                .flat_map(|f| rows.iter().map(move |&r| slice_val(f, me, r)))
                .collect();
            let totals: Vec<f32> = (0..fusing)
                .flat_map(|f| mine.iter().map(move |&r| total(f, r)))
                .collect();
            let mut scratch = ExchangeScratch::new();
            let mut owned = vec![0.0f32; fusing * rp.owned_len()];
            rp.reduce::<S>(comm, &mut scratch, &part, fusing, false, &mut owned)
                .unwrap();
            let mut back = vec![0.0f32; fusing * rp.in_len()];
            rp.scatter::<S>(comm, &mut scratch, &totals, fusing, false, &mut back)
                .unwrap();
            let msgs = comm.comm_stats().class_msgs;
            let local = msgs[TrafficClass::Socket as usize] + msgs[TrafficClass::Node as usize];
            ((bits(&owned), bits(&back)), local)
        });
        for (p, (r, (b, _))) in reference.iter().zip(&batched).enumerate() {
            assert_eq!(
                r, b,
                "{topo} fusing {fusing} rank {p}: batch must be bit-identical"
            );
        }
        batched.into_iter().map(|(_, local)| local).collect()
    }

    #[test]
    fn batched_reduce_and_scatter_are_the_reference_slice_by_slice() {
        // Every precision, fusing 1 (a batch of one), 3 and 8, on machines
        // with both local levels, one, or three GPUs per socket — and a
        // local level's sends are one message per peer and apply, whatever
        // the batch holds.
        for topo in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 4)] {
            let topo = Topology::new(topo.0, topo.1, topo.2);
            let one = batch_matches_reference::<f32>(topo, 1);
            assert!(one.iter().any(|&m| m > 0), "{topo}: no local traffic");
            for fusing in [1, 3, 8] {
                assert_eq!(batch_matches_reference::<f64>(topo, fusing), one);
                assert_eq!(batch_matches_reference::<f32>(topo, fusing), one);
                assert_eq!(batch_matches_reference::<F16>(topo, fusing), one);
            }
        }
    }

    /// The levels `rp` runs, forward then scatter.
    fn levels_of(rp: &RankPlan) -> Vec<ExchangeLevel> {
        let levels = rp.forward().iter().chain(rp.transpose());
        levels.map(LevelProgram::level).collect()
    }

    #[test]
    fn emptied_levels_are_not_compiled_and_outputs_still_match_the_reference() {
        // On one-socket nodes the node level moves nothing; on one-GPU
        // nodes neither local level does. The reference executor still
        // runs every level, so equal outputs show that leaving them out
        // changes no bit.
        use ExchangeLevel::*;
        let one_socket = vec![Socket, Global, ScatterGlobal, ScatterSocket];
        for (topo, expected) in [
            (Topology::new(1, 1, 2), one_socket.clone()),
            (Topology::new(2, 1, 8), one_socket),
            (Topology::new(6, 1, 1), vec![Global, ScatterGlobal]),
        ] {
            let (fp, own) = fixture_on(topo);
            let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
            for p in 0..topo.size() {
                assert_eq!(levels_of(compiled.rank(p)), expected, "{topo} rank {p}");
            }
            for fusing in [1, 3] {
                batch_matches_reference::<f32>(topo, fusing);
                batch_matches_reference::<F16>(topo, fusing);
            }
        }
    }

    /// The flat plan (one GPU per node) against the direct reference:
    /// no local level on any rank, and owned totals and scattered
    /// footprint values equal bit for bit.
    fn flat_matches_direct_reference<S: StorageScalar>() {
        let (fp, own, _) = fixture();
        let flat = HierarchicalPlan::build(&fp, &own, &Topology::new(8, 1, 1));
        let compiled = CompiledPlans::compile_hierarchical(&fp, &own, &flat);
        let plan = DirectPlan::build(&fp, &own);
        let reference = run_ranks(8, |comm| {
            let me = comm.rank();
            let rows = fp.per_rank[me].clone();
            let vals: Vec<f32> = rows.iter().map(|&r| partial(me, r)).collect();
            let mine = PartialData::<S>::quantize(rows, &vals);
            let owned = execute_direct(comm, &plan, &own, &mine).unwrap().widened();
            let totals = PartialData::<S>::quantize(own.rows_of(me), &owned);
            let back = scatter_direct(comm, &plan, &own, &totals, &fp.per_rank[me]).unwrap();
            (owned, back.widened())
        });
        let fast = run_ranks(8, |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            assert_eq!(
                levels_of(rp),
                [ExchangeLevel::Global, ExchangeLevel::ScatterGlobal]
            );
            let vals: Vec<f32> = fp.per_rank[me].iter().map(|&r| partial(me, r)).collect();
            let mut scratch = ExchangeScratch::new();
            let mut owned = vec![0.0f32; rp.owned_len()];
            rp.reduce::<S>(comm, &mut scratch, &vals, 1, false, &mut owned)
                .unwrap();
            let mut back = vec![0.0f32; rp.in_len()];
            rp.scatter::<S>(comm, &mut scratch, &owned, 1, false, &mut back)
                .unwrap();
            (owned, back)
        });
        assert_eq!(reference, fast);
    }

    #[test]
    fn direct_reduce_and_scatter_match_reference() {
        flat_matches_direct_reference::<f32>();
        flat_matches_direct_reference::<f64>();
        flat_matches_direct_reference::<F16>();
    }

    #[test]
    fn half_width_exchange_round_trips_near_the_f32_values() {
        // Every sender's scale on the way in, its undo on the way out:
        // with S = F16 the exchange must land near the unscaled f32 sums.
        let (fp, own, topo) = fixture();
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        let results = run_ranks(8, |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            let vals: Vec<f32> = fp.per_rank[me].iter().map(|&r| partial(me, r)).collect();
            let mut scratch = ExchangeScratch::new();
            let mut out = vec![0.0f32; rp.owned_len()];
            rp.reduce::<F16>(comm, &mut scratch, &vals, 1, false, &mut out)
                .unwrap();
            out
        });
        for (p, out) in results.iter().enumerate() {
            for (&r, &v) in own.rows_of(p).iter().zip(out) {
                let expect: f64 = (0..8usize)
                    .filter(|&q| fp.per_rank[q].binary_search(&r).is_ok())
                    .map(|q| f64::from(partial(q, r)))
                    .sum();
                assert!(
                    (f64::from(v) - expect).abs() < 0.02,
                    "rank {p} row {r}: {v} vs {expect}"
                );
            }
        }
    }

    /// The relative gap between `got` and `want`.
    fn rel(got: f32, want: f64) -> f64 {
        (f64::from(got) - want).abs() / want.abs()
    }

    #[test]
    fn a_level_sum_far_past_the_headroom_target_rounds_finite() {
        // Must hold: a level's f64 sum 300× the headroom target (76 800,
        // past f16's 65 504) is held under the scale of its own max-norm.
        // One factor shared by every contribution overflows to ∞ past
        // 256-way growth.
        let sum = 300.0 * 256.0;
        let acc = [sum, -sum * 0.5, 1.0, 0.0];
        let mut held = [F16::ZERO; 4];
        let undo = round_scaled(&acc, &mut held);
        for (&h, &want) in held.iter().zip(&acc) {
            let widened = h.to_f32() * undo;
            assert!(widened.is_finite(), "{want} -> {widened}");
            if want != 0.0 {
                assert!(
                    rel(widened, want) <= f64::from(HALF_RELATIVE_EPS),
                    "{want}: {widened}"
                );
            }
        }
        assert!(
            F16::from_f64(sum).is_infinite(),
            "the unscaled sum overflows"
        );
    }

    #[test]
    fn a_rank_a_millionth_of_its_peer_keeps_its_rows_at_f16_precision() {
        // Must hold: on 1×1×2, rank 1's partial peaks at 10⁻⁶ of rank 0's
        // and spans two decades below that. Rank 1 also sends its share of
        // rank 0's rows up the socket level. Its own rows come back within
        // f16's relative precision; one factor taken from the pair's
        // maximum put their low end into f16's subnormals.
        let topo = Topology::new(1, 1, 2);
        let own = Ownership::new((0..8).map(|r| r / 4).collect(), 2);
        let fp = Footprints::new(vec![(0..4).collect(), (0..8).collect()]);
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        let value = |p: usize, r: u32| {
            let spread = 10f32.powf(-2.0 * (r % 4) as f32 / 3.0);
            if p == 0 {
                0.5 + r as f32 * 0.1
            } else {
                1e-6 * spread * (1.0 + r as f32 * 0.01)
            }
        };
        let results = run_ranks(2, |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            let vals: Vec<f32> = fp.per_rank[me].iter().map(|&r| value(me, r)).collect();
            let mut scratch = ExchangeScratch::new();
            let mut out = vec![0.0f32; rp.owned_len()];
            rp.reduce::<F16>(comm, &mut scratch, &vals, 1, false, &mut out)
                .unwrap();
            out
        });
        for (&r, &got) in own.rows_of(1).iter().zip(&results[1]) {
            let want = f64::from(value(1, r));
            assert!(
                rel(got, want) <= f64::from(HALF_RELATIVE_EPS),
                "row {r}: {got:e} vs {want:e}"
            );
        }
        for (&r, &got) in own.rows_of(0).iter().zip(&results[0]) {
            let want = f64::from(value(0, r)) + f64::from(value(1, r));
            assert!(
                rel(got, want) <= f64::from(HALF_RELATIVE_EPS),
                "row {r}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn a_small_slice_in_a_fused_transpose_batch_keeps_f16_precision() {
        // Must hold: two fused slices 10⁵ apart, each spanning two
        // decades. Every owner scales each slice by its own max-norm, so
        // the small slice comes back within f16's relative precision;
        // one factor for the whole batch quantized it into subnormals.
        let (fp, own, topo) = fixture();
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        let total = |f: usize, r: u32| {
            let spread = 10f32.powf(-2.0 * (r % 7) as f32 / 6.0);
            spread * (1.0 + r as f32 * 0.01) * if f == 1 { 1e-5 } else { 1.0 }
        };
        let results = run_ranks(8, |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            let totals: Vec<f32> = (0..2)
                .flat_map(|f| own.rows_of(me).into_iter().map(move |r| total(f, r)))
                .collect();
            let mut scratch = ExchangeScratch::new();
            let mut back = vec![0.0f32; 2 * rp.in_len()];
            rp.scatter::<F16>(comm, &mut scratch, &totals, 2, false, &mut back)
                .unwrap();
            back
        });
        for (p, back) in results.iter().enumerate() {
            let rows = &fp.per_rank[p];
            for (f, slice) in back.chunks(rows.len()).enumerate() {
                for (&r, &got) in rows.iter().zip(slice) {
                    let want = f64::from(total(f, r));
                    assert!(
                        rel(got, want) <= f64::from(HALF_RELATIVE_EPS),
                        "rank {p} slice {f} row {r}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_width_wires_carry_no_header() {
        // Single and double exchanges move exactly their payload: the
        // bytes on every class are the element count times the width,
        // and a half-width one adds one undo per slice per message.
        let (fp, own, topo) = fixture();
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        fn traffic<S: StorageScalar>(compiled: &CompiledPlans, fp: &Footprints) -> (u64, u64) {
            let stats = run_ranks(8, |comm| {
                let rp = compiled.rank(comm.rank());
                let vals: Vec<f32> = (0..3 * rp.in_len()).map(|i| 1.0 + i as f32).collect();
                let mut scratch = ExchangeScratch::new();
                let mut out = vec![0.0f32; 3 * rp.owned_len()];
                rp.reduce::<S>(comm, &mut scratch, &vals, 3, false, &mut out)
                    .unwrap();
                comm.comm_stats()
            });
            let _ = fp;
            let bytes = stats.iter().map(|s| s.total_bytes()).sum();
            let msgs = stats.iter().map(|s| s.class_msgs.iter().sum::<u64>()).sum();
            (bytes, msgs)
        }
        let (single, msgs) = traffic::<f32>(&compiled, &fp);
        let (double, _) = traffic::<f64>(&compiled, &fp);
        let (half, half_msgs) = traffic::<F16>(&compiled, &fp);
        assert_eq!(double, 2 * single);
        assert_eq!(half_msgs, msgs);
        // Local levels carry all three slices per message, global ones one.
        let local_msgs: u64 = (0..8)
            .map(|p| {
                (compiled.rank(p).forward().iter())
                    .filter(|l| !l.level().per_slice())
                    .map(|l| l.sends().len() as u64)
                    .sum::<u64>()
            })
            .sum();
        let header = (local_msgs * 3 + (msgs - local_msgs)) * crate::wire::UNDO_BYTES as u64;
        assert_eq!(half, single / 2 + header);
    }

    /// A batch of `fusing` slices reduced and scattered with both global
    /// schedules: the owned totals and the scattered footprint values of
    /// every rank, bit for bit.
    fn both_schedules_agree<S: StorageScalar>(topo: Topology, fusing: usize) {
        let (fp, own) = fixture_on(topo);
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        let (compiled, fp, own) = (&compiled, &fp, &own);
        let run = |overlap: bool| {
            run_ranks(topo.size(), move |comm| {
                let me = comm.rank();
                let rp = compiled.rank(me);
                let part: Vec<f32> = (0..fusing)
                    .flat_map(|f| {
                        fp.per_rank[me]
                            .iter()
                            .map(move |&r| partial(me, r) * 4f32.powi(f as i32 - 3))
                    })
                    .collect();
                let totals: Vec<f32> = (0..fusing)
                    .flat_map(|f| {
                        own.rows_of(me)
                            .into_iter()
                            .map(move |r| 0.5 + r as f32 * 0.03125 + f as f32)
                    })
                    .collect();
                let mut scratch = ExchangeScratch::new();
                let mut owned = vec![0.0f32; fusing * rp.owned_len()];
                rp.reduce::<S>(comm, &mut scratch, &part, fusing, overlap, &mut owned)
                    .unwrap();
                let mut back = vec![0.0f32; fusing * rp.in_len()];
                rp.scatter::<S>(comm, &mut scratch, &totals, fusing, overlap, &mut back)
                    .unwrap();
                (bits(&owned), bits(&back))
            })
        };
        assert_eq!(
            run(true),
            run(false),
            "{topo} fusing {fusing} {}: overlap must not change results",
            S::NAME
        );
    }

    #[test]
    fn overlapped_and_synchronous_schedules_are_bit_identical() {
        // Every slice's global exchange in flight at once (the §III-E
        // post-all/drain-all shape) against post, drain, post, drain …,
        // in both directions, on the machines of the reference test.
        for topo in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 4)] {
            let topo = Topology::new(topo.0, topo.1, topo.2);
            for fusing in [1, 3, 8] {
                both_schedules_agree::<f64>(topo, fusing);
                both_schedules_agree::<f32>(topo, fusing);
                both_schedules_agree::<F16>(topo, fusing);
            }
        }
    }

    /// The relative gap between ⟨reduce(p), y⟩ and ⟨p, scatter(y)⟩ summed
    /// over every rank, for `fusing` slices of positive pseudo-random
    /// footprint partials `p` and owned values `y`. Both lie on a 2⁻¹⁰
    /// grid, so every sum a level forms is exact in the `f32` output and
    /// the gap on a full-width wire is routing, not rounding.
    fn adjoint_gap<S: StorageScalar>(topo: Topology, fusing: usize, overlap: bool) -> f64 {
        let (fp, own) = fixture_on(topo);
        let compiled = CompiledPlans::build_hierarchical(&fp, &own, &topo);
        let (compiled, fp, own) = (&compiled, &fp, &own);
        let value = |salt: usize, r: u32, f: usize| {
            let h = ((salt as u64) << 40 ^ u64::from(r) << 8 ^ f as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) % 1024 + 1) as f32 / 1024.0
        };
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        };
        let dots = run_ranks(topo.size(), move |comm| {
            let me = comm.rank();
            let rp = compiled.rank(me);
            let (rows, mine) = (&fp.per_rank[me], own.rows_of(me));
            let p: Vec<f32> = (0..fusing)
                .flat_map(|f| rows.iter().map(move |&r| value(me + 1, r, f)))
                .collect();
            let y: Vec<f32> = (0..fusing)
                .flat_map(|f| mine.iter().map(move |&r| value(0, r, f)))
                .collect();
            let mut scratch = ExchangeScratch::new();
            let mut reduced = vec![0.0f32; y.len()];
            rp.reduce::<S>(comm, &mut scratch, &p, fusing, overlap, &mut reduced)
                .unwrap();
            let mut scattered = vec![0.0f32; p.len()];
            rp.scatter::<S>(comm, &mut scratch, &y, fusing, overlap, &mut scattered)
                .unwrap();
            (dot(&reduced, &y), dot(&p, &scattered))
        });
        let (lhs, rhs) = (dots.iter()).fold((0.0, 0.0), |(l, r), &(a, b)| (l + a, r + b));
        (lhs - rhs).abs() / lhs
    }

    #[test]
    fn the_scatter_is_the_adjoint_of_the_reduce() {
        // ⟨reduce(p), y⟩ = ⟨p, scatter(y)⟩ through the executor, on the
        // machines of the schedule test, both schedules.
        for topo in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 4)] {
            let topo = Topology::new(topo.0, topo.1, topo.2);
            for (fusing, overlap) in [(1, false), (1, true), (3, false), (3, true)] {
                let case = format!("{topo} fusing {fusing} overlap {overlap}");
                let gap = adjoint_gap::<f64>(topo, fusing, overlap);
                assert!(gap <= 1e-12, "{case} f64: {gap:e}");
                let gap = adjoint_gap::<f32>(topo, fusing, overlap);
                assert!(gap <= 1e-5, "{case} f32: {gap:e}");
            }
        }
    }
}
