//! The packed, staged matrix format of Listing 1 (paper §III-B, §III-C2),
//! laid out for the executor that walks it.
//!
//! Rows are assigned to *thread blocks*; each block's irregular input
//! footprint is split into *stages* that fit the 96 KB shared memory of an
//! SM, and each stage carries a gather map (`buffmap`) from shared-memory
//! slots to global columns. The element stores a `u16` shared-memory
//! index — not a global column — which is what makes the 4-byte
//! `(u16 index, f16 length)` packing possible.
//!
//! Which rows share a block, and which columns share a stage, is the
//! [`Order`] pair the matrix is packed under (§III-A1: both domains are
//! Hilbert-ordered so a block's rays cross the same voxels). The order
//! lives in the layout only — a block lists the rows it writes, a stage
//! maps its slots to the columns it reads — so `x` and `y` keep the
//! matrix's own numbering and the two indirections the kernel already
//! performs (gather through `map`, scatter of block outputs) absorb it.
//!
//! # Element layout: lane-group-major, per-group rounds
//!
//! On the GPU a warp's elements are round-major and 32-lane interleaved
//! (`indval[n*WARPSIZE + wind]`) so that 32 threads read one 128-byte
//! line, and every lane runs the warp's longest row. The CPU bodies
//! vectorize across the *fused slices* of one row, [`LANE_GROUP`] rows at
//! a time, so here the unit is the **lane group**:
//!
//! * a block's rows are sorted by nonzero count, longest first (ties keep
//!   the row order's sequence, so the layout is a function of its
//!   inputs), and thread `t` takes the `t`-th of them — neighbours in a
//!   group have near-equal lengths;
//! * group `g` = threads `g·LANE_GROUP ..`, and a stage stores each
//!   group's elements contiguously as [`PackedRound`]s — `LANE_GROUP`
//!   indices then `LANE_GROUP` lengths, one element per lane — with the
//!   group's **own** round count (its longest lane in that stage), one
//!   group after the other in a single array. The kernel streams that
//!   array front to back exactly once per chunk of the fusing axis;
//! * lanes shorter than their group's rounds (and threads past the
//!   block's last row) are padded with `(0, 0)` elements. Slot 0 of every
//!   stage buffer is reserved and always holds zeros — mapped column `k`
//!   of a stage lives in slot `k + 1` — so a padding element multiplies
//!   zero by zero and never reads live data: an `inf`/NaN input reaches
//!   exactly the rows that have a nonzero in its column, as in
//!   [`Csr::spmm`].
//!
//! Sorting rows inside a block and regrouping lanes move whole rows
//! between accumulators; a row's own sequence of FMAs — stage ascending,
//! CSR order within a stage — is untouched, which is why results are
//! bit-identical to the round-major layout this replaced. The one
//! visible trace of padding is the sign of zero: a partial sum of `−0.0`
//! that meets a padding element becomes `+0.0` (`−0 + (+0·+0) = +0` under
//! round-to-nearest) where CSR keeps `−0.0`; nonzero values are never
//! affected, and a row with no nonzeros is `+0.0` on both.
//!
//! [`WARP_SIZE`] remains the granularity of `block_size` — the GPU shape
//! Figs 5 and 9 are reported in — but nothing is stored per warp.

use crate::csr::Csr;
use crate::metrics::KernelMetrics;
use crate::order::Order;
use xct_exec::Executor;
use xct_fp16::StorageScalar;

/// Threads per warp, as on NVIDIA hardware: the unit `block_size` is a
/// multiple of.
pub const WARP_SIZE: usize = 32;

/// Lanes (rows) whose elements are stored side by side and whose
/// accumulators the vector body holds in registers at a time.
pub const LANE_GROUP: usize = 4;

/// Physical bytes of one packed element: the `u16` index plus the length
/// — 4 for half (`struct matrix { unsigned short ind; half len; }` of
/// Listing 1 line 2), 6 for single, 10 for double. Indices and lengths
/// sit in separate runs of a [`PackedRound`], so no alignment padding is
/// stored.
pub const fn packed_element_bytes<S: StorageScalar>() -> usize {
    2 + S::BYTES
}

/// One round of one lane group: the `n`-th element of each of its
/// [`LANE_GROUP`] lanes, indices side by side, then lengths side by side
/// (four half lengths are one 8-byte load and one `vcvtph2ps`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct PackedRound<S> {
    /// Stage-buffer slot per lane: mapped column `k` is slot `k + 1`;
    /// slot 0 is the reserved zero slot padding points at.
    pub ind: [u16; LANE_GROUP],
    /// Intersection length per lane (zero for padding).
    pub len: [S; LANE_GROUP],
}

/// One shared-memory stage of a block (§III-B4).
#[derive(Debug, Clone)]
pub struct PackedStage<S> {
    /// Gather map: stage column → global column (`buffmap`), in the
    /// column order's sequence. Column `k` is staged in slot `k + 1`.
    pub map: Vec<u32>,
    /// Per lane group of the block, where its rounds end in `rounds`
    /// (running totals: group `g` owns `ends[g - 1]..ends[g]`).
    ends: Vec<u32>,
    /// Every group's rounds, group after group.
    rounds: Vec<PackedRound<S>>,
    /// One past the largest slot any round's `ind` may hold: the map's
    /// length at packing, plus the zero slot. The packer writes only
    /// `slot + 1` for `slot < map.len()` (and 0 for padding), and
    /// `rounds` is private, so every stored index is below it; the f32x8
    /// body checks it against its stage buffer once per stage, and its
    /// unchecked slot reads rest on that: nothing outside this module may
    /// write `rounds` or `slots`. Not part of the layout: neither hashed
    /// nor counted as stored bytes.
    slots: u32,
}

impl<S> PackedStage<S> {
    /// The stage's elements, one slice of rounds per lane group of the
    /// block (`block_size / LANE_GROUP` of them, in thread order; a group
    /// with nothing in this stage is empty).
    pub fn groups(&self) -> impl Iterator<Item = &[PackedRound<S>]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let group = &self.rounds[start..end as usize];
            start = end as usize;
            group
        })
    }

    /// The stage-buffer slots every round's `ind` is below, fixed when
    /// the stage was packed: its map's length then, plus the zero slot.
    /// Cutting `map` afterwards does not lower it.
    pub fn packed_slots(&self) -> usize {
        self.slots as usize
    }

    /// Stored elements, padding included: `LANE_GROUP` per round.
    fn stored_elements(&self) -> usize {
        self.rounds.len() * LANE_GROUP
    }
}

/// One thread block's rows and stages.
#[derive(Debug, Clone)]
pub struct PackedBlock<S> {
    /// The rows this block computes (≤ block size): thread `t` writes
    /// `y[rows[t]]`. A run of the row order, longest row first.
    pub rows: Vec<u32>,
    /// The multi-stage buffering schedule.
    pub stages: Vec<PackedStage<S>>,
}

/// A complete packed matrix, built for a specific fusing factor (the
/// shared buffer is shared by all `fusing` slices, so larger minibatches
/// mean fewer slots per stage and more stages — §III-B4).
#[derive(Debug, Clone)]
pub struct PackedMatrix<S> {
    num_rows: usize,
    num_cols: usize,
    block_size: usize,
    fusing: usize,
    slots_per_stage: usize,
    blocks: Vec<PackedBlock<S>>,
    nnz: usize,
    padded_nnz: usize,
}

impl<S: StorageScalar> PackedMatrix<S> {
    /// [`pack_ordered`](Self::pack_ordered) under the identity orders —
    /// block `b` owns rows `b·block_size..`, stages cut a block's columns
    /// in ascending index — at the machine's width
    /// ([`Executor::parallel`]).
    pub fn pack(csr: &Csr<S>, block_size: usize, shared_bytes: usize, fusing: usize) -> Self {
        let rows = Order::identity(csr.num_rows());
        let cols = Order::identity(csr.num_cols());
        // xct-allow(machine-width): a convenience for callers with no executor of their own; xctbench times this signature
        let executor = Executor::parallel();
        Self::pack_ordered(
            csr,
            &rows,
            &cols,
            block_size,
            shared_bytes,
            fusing,
            &executor,
        )
    }

    /// Packs a CSR matrix for execution with `fusing` slices per
    /// minibatch, `block_size` threads (= rows) per block, and
    /// `shared_bytes` of staging buffer per block.
    ///
    /// `rows` decides which rows share a block — block `b` owns
    /// `rows.indices()[b·block_size..]`, which it then sorts longest
    /// first — and `cols` the sequence in which a block's distinct
    /// columns fill its stages. Orders that keep spatial neighbours
    /// together (Hilbert tiles of the sinogram and tomogram planes) make
    /// the rows of a block share the columns they stage, mirroring the
    /// buffer shapes of paper Fig 5(c–d). The packed matrix still
    /// computes `y = A·x` in `csr`'s own row and column numbering.
    ///
    /// Within one stage a row's nonzeros keep `csr`'s (ascending-column)
    /// sequence, so a row whose block has a single stage accumulates in
    /// exactly the order [`Csr::spmv`] does, whatever the orders; only a
    /// block cut into several stages visits a row's columns stage by
    /// stage.
    ///
    /// Blocks are packed in parallel on `executor` (see
    /// [`pack_pair`](Self::pack_pair)); the layout does not depend on it.
    ///
    /// # Panics
    /// Panics when `block_size` is not a multiple of [`WARP_SIZE`], when
    /// the shared buffer cannot hold even one slot per slice, or when an
    /// order's length is not the matrix's. A stage never maps more than
    /// `u16::MAX` columns, whatever `shared_bytes` would allow: with the
    /// zero slot, that is what a `u16` index reaches.
    pub fn pack_ordered(
        csr: &Csr<S>,
        rows: &Order,
        cols: &Order,
        block_size: usize,
        shared_bytes: usize,
        fusing: usize,
        executor: &Executor,
    ) -> Self {
        let shape = Shape::new::<S>(csr, (rows, cols), block_size, shared_bytes, fusing);
        let [packed] = pack_together(
            [Packing::new(shape, csr, csr.values())],
            executor,
            MIN_BLOCKS_PER_PART,
        );
        packed
    }

    /// `A` and `Aᵀ` of `csr` re-typed to `S` under `scale`: what
    /// [`pack_ordered`](Self::pack_ordered) makes of `csr` with every
    /// value `S::from_f32(v · scale)`, under `(rows, cols)`, and of its
    /// transpose under `(cols, rows)` — bit for bit. The values are
    /// narrowed once, in bulk ([`StorageScalar::narrow_scaled_into`]), `A`
    /// is packed from `csr`'s own indices, and `Aᵀ` is the transpose of
    /// the typed values (transposing only moves them, so transpose-then-
    /// type equals type-then-transpose); no index array is copied for the
    /// re-type.
    ///
    /// The two matrices are packed together on `executor`, in two
    /// passes over contiguous runs of blocks, every part taking one run
    /// of each: a shape pass sorts each block's rows and finds its staged
    /// columns and round counts, then — with every block's arrays
    /// allocated here, on the calling thread, at their final size — a
    /// fill pass writes each run's blocks. A worker touches only its own
    /// runs and the O(columns) scratch it is handed, and allocates
    /// nothing (long-lived buffers allocated on short-lived threads pin
    /// their malloc arenas: DESIGN.md, "Set-up on the caller's workers").
    ///
    /// # Panics
    /// As [`pack_ordered`](Self::pack_ordered).
    pub fn pack_pair(
        csr: &Csr<f32>,
        scale: f32,
        (rows, cols): (&Order, &Order),
        block_size: usize,
        shared_bytes: usize,
        fusing: usize,
        executor: &Executor,
    ) -> (Self, Self) {
        let mut values = vec![S::zero(); csr.nnz()];
        S::narrow_scaled_into(csr.values(), scale, &mut values);
        let at = csr.transpose_with(&values);
        let forward = Shape::new::<S>(csr, (rows, cols), block_size, shared_bytes, fusing);
        let backward = Shape::new::<S>(&at, (cols, rows), block_size, shared_bytes, fusing);
        let [a, packed_at] = pack_together(
            [
                Packing::new(forward, csr, &values),
                Packing::new(backward, &at, at.values()),
            ],
            executor,
            MIN_BLOCKS_PER_PART,
        );
        (a, packed_at)
    }

    /// Rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// The fusing factor this matrix was staged for.
    pub fn fusing(&self) -> usize {
        self.fusing
    }

    /// Threads (rows) per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Columns a stage can map (per slice). The stage buffer holds one
    /// slot more: the zero slot.
    pub fn slots_per_stage(&self) -> usize {
        self.slots_per_stage
    }

    /// The thread blocks.
    pub fn blocks(&self) -> &[PackedBlock<S>] {
        &self.blocks
    }

    /// The thread blocks, open to the tests that damage a layout.
    #[cfg(test)]
    pub(crate) fn blocks_mut(&mut self) -> &mut [PackedBlock<S>] {
        &mut self.blocks
    }

    /// Real (unpadded) nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored elements including padding — `LANE_GROUP` per stored
    /// round; `padded_nnz - nnz` FMAs are wasted work, what is left of it
    /// once every lane group runs only its own longest lane.
    pub fn padded_nnz(&self) -> usize {
        self.padded_nnz
    }

    /// Total number of stages across all blocks (Fig 5 reports 3–4 per
    /// block for a 256×256×50 minibatch); more stages mean more
    /// synchronization overhead (§III-B4).
    pub fn total_stages(&self) -> usize {
        self.blocks.iter().map(|b| b.stages.len()).sum()
    }

    /// Average stages per block.
    pub fn stages_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.total_stages() as f64 / self.blocks.len() as f64
        }
    }

    /// Average data reuse: nonzeros served per staged input element
    /// (Fig 5 reports 46.63 for tomogram and 64.73 for sinogram
    /// partitions). Values above 1 are what make shared-memory staging
    /// profitable.
    pub fn average_reuse(&self) -> f64 {
        let staged: usize = self
            .blocks
            .iter()
            .flat_map(|b| &b.stages)
            .map(|s| s.map.len())
            .sum();
        if staged == 0 {
            0.0
        } else {
            self.nnz as f64 / staged as f64
        }
    }

    /// A fingerprint of every stored byte (64-bit FNV-1a): the shape,
    /// then per block its rows and per stage its map, its group ends and
    /// every round — the four indices, then the four lengths in `S`'s
    /// little-endian encoding. Two packings with equal digests are, up
    /// to a hash collision, the same layout; the golden-layout tests pin
    /// the packer with it.
    pub fn layout_digest(&self) -> u64 {
        let mut hash = Fnv::default();
        for n in [
            self.num_rows,
            self.num_cols,
            self.block_size,
            self.fusing,
            self.slots_per_stage,
            self.nnz,
            self.padded_nnz,
        ] {
            hash.write(&(n as u64).to_le_bytes());
        }
        let mut lengths = [0u8; LANE_GROUP * 8];
        let lengths = &mut lengths[..LANE_GROUP * S::BYTES];
        for block in &self.blocks {
            hash.words(&block.rows);
            for stage in &block.stages {
                hash.words(&stage.map);
                hash.words(&stage.ends);
                for round in &stage.rounds {
                    for ind in round.ind {
                        hash.write(&ind.to_le_bytes());
                    }
                    S::encode_run(&round.len, lengths);
                    hash.write(lengths);
                }
            }
        }
        hash.0
    }

    /// The memory-traffic/flop account of one fused SpMM with this
    /// matrix, assuming perfect shared-memory reuse (gathers hit DRAM
    /// once per staged slot, the arrays the layout stores — elements,
    /// group ends, maps, row lists — stream once, output written once
    /// through the block's row list). This is the model behind the
    /// Fig 9b roofline points.
    pub fn kernel_metrics(&self) -> KernelMetrics {
        let elem = packed_element_bytes::<S>() as u64;
        let mut bytes_read = 0u64;
        for block in &self.blocks {
            // The row list (u32 each) the output scatter reads.
            bytes_read += block.rows.len() as u64 * 4;
            for stage in &block.stages {
                // buffmap (u32 each) + gathered x for all fused slices.
                bytes_read += stage.map.len() as u64 * (4 + (self.fusing * S::BYTES) as u64);
                // One running total (u32) per lane group, then the rounds.
                bytes_read += stage.ends.len() as u64 * 4;
                bytes_read += stage.stored_elements() as u64 * elem;
            }
        }
        KernelMetrics {
            flops: 2 * self.nnz as u64 * self.fusing as u64,
            // Every stored element is one FMA per fused slice, filler
            // included — what the bodies actually issue.
            padded_flops: 2 * self.padded_nnz as u64 * self.fusing as u64,
            bytes_read,
            bytes_written: (self.num_rows * self.fusing * S::BYTES) as u64,
        }
    }
}

/// Fewest blocks one part of a packing pass takes: a block is tens of
/// microseconds of work, so a part is a few hundred — more than a spawn
/// costs. Smaller matrices pack on the calling thread.
const MIN_BLOCKS_PER_PART: usize = 16;

/// What a packing is cut to, checked against the matrix it packs:
/// block size, slots per stage, fusing, and the `(row, column)` orders.
struct Shape<'o> {
    block_size: usize,
    slots: usize,
    fusing: usize,
    rows: &'o Order,
    cols: &'o Order,
}

impl<'o> Shape<'o> {
    fn new<S: StorageScalar>(
        csr: &Csr<impl StorageScalar>,
        (rows, cols): (&'o Order, &'o Order),
        block_size: usize,
        shared_bytes: usize,
        fusing: usize,
    ) -> Self {
        assert!(
            block_size > 0 && block_size.is_multiple_of(WARP_SIZE),
            "block size {block_size} must be a positive multiple of {WARP_SIZE}"
        );
        assert!(fusing > 0, "fusing factor must be nonzero");
        assert_eq!(rows.len(), csr.num_rows(), "row order length");
        assert_eq!(cols.len(), csr.num_cols(), "column order length");
        // Shared memory holds `fusing` copies of every staged slot.
        let slots = shared_bytes / (fusing * S::BYTES);
        assert!(
            slots > 0,
            "shared buffer of {shared_bytes} B cannot stage fusing={fusing} slices of {}",
            S::NAME
        );
        Shape {
            block_size,
            slots: slots.min(u16::MAX as usize),
            fusing,
            rows,
            cols,
        }
    }
}

/// One worker's scratch, allocated by the caller and reused by every
/// block of the worker's runs in both passes. `staged` has one bit per
/// column-order rank, set while a block collects its distinct columns
/// and cleared as they are read back in order. `cells` starts with one
/// place per column — column `c`'s place among the block's distinct
/// columns, valid for exactly the columns of the current block, so
/// never cleared — followed by one count or cursor per (stage, thread)
/// of the block. A worker moves its scratch onto its own stack for the
/// pass: the headers of neighbouring parts' scratch share cache lines.
/// Every part's scratch is a slice of two allocations the caller makes.
#[derive(Default)]
struct Scratch<'s> {
    staged: &'s mut [u64],
    cells: &'s mut [u32],
    columns: usize,
}

impl Scratch<'_> {
    /// `(place per column, counts)`.
    fn split(&mut self) -> (&mut [u32], &mut [u32]) {
        self.cells.split_at_mut(self.columns)
    }
}

/// The matrix a packing reads: its shape, and its rows with the values
/// packed in place of its own.
struct Source<'a, S> {
    shape: Shape<'a>,
    rowptr: &'a [usize],
    colidx: &'a [u32],
    values: &'a [S],
}

/// One matrix being packed: its source and the flat arrays its shape
/// pass fills, each block's share at the block's offsets.
struct Packing<'a, S> {
    source: Source<'a, S>,
    /// Per block and one past the last: where its nonzeros start if laid
    /// end to end (its distinct columns are at most that many), and
    /// where its group ends start if every block had the most stages its
    /// nonzeros allow.
    bounds: Vec<(usize, usize)>,
    /// The most stages any block can have.
    most: usize,
    /// The row order, each block's run sorted in place.
    sorted: Vec<u32>,
    /// Per block, how many distinct columns it stages.
    distinct: Vec<u32>,
    /// Per block, its distinct columns' ranks in the column order,
    /// ascending.
    ranks: Vec<u32>,
    /// Per block, its stages' group ends.
    ends: Vec<u32>,
}

/// One part's share of one matrix: a run of blocks, its first block's
/// index, and the run's slices of the shape pass's flat arrays.
struct Run<'p, 'a, S> {
    source: &'p Source<'a, S>,
    bounds: &'p [(usize, usize)],
    first: usize,
    sorted: &'p mut [u32],
    distinct: &'p mut [u32],
    ranks: &'p mut [u32],
    ends: &'p mut [u32],
}

/// Packs every matrix of `packings` together on `executor`: each part
/// of a pass takes one contiguous run of blocks of every matrix, with
/// at least `min_blocks` blocks a part in all. Between the two passes
/// the calling thread allocates every block's arrays at their final
/// size; see [`PackedMatrix::pack_pair`].
fn pack_together<S: StorageScalar, const N: usize>(
    mut packings: [Packing<'_, S>; N],
    executor: &Executor,
    min_blocks: usize,
) -> [PackedMatrix<S>; N] {
    let blocks = packings.iter().map(|p| p.distinct.len()).sum::<usize>();
    let parts = executor.partitions(blocks / min_blocks.max(1));
    let columns = packings
        .iter()
        .map(|p| p.source.shape.cols.len())
        .max()
        .unwrap_or(0);
    let counts = packings
        .iter()
        .map(|p| p.most * p.source.shape.block_size)
        .max()
        .unwrap_or(0);
    let words = columns.div_ceil(64);
    let mut bits = vec![0; parts * words];
    let mut places = vec![0; parts * (columns + counts)];
    let (mut bits_left, mut places_left) = (bits.as_mut_slice(), places.as_mut_slice());
    let mut scratch: Vec<Scratch> = (0..parts)
        .map(|_| {
            let staged;
            (staged, bits_left) = std::mem::take(&mut bits_left).split_at_mut(words);
            let cells;
            (cells, places_left) = std::mem::take(&mut places_left).split_at_mut(columns + counts);
            Scratch {
                staged,
                cells,
                columns,
            }
        })
        .collect();

    // Shape pass.
    {
        let mut runs = packings.each_mut().map(|p| p.runs(parts));
        let work = (0..parts).map(|_| runs.each_mut().map(Iterator::next));
        executor.for_each_part(work.zip(&mut scratch), |(runs, scratch)| {
            let mut mine = std::mem::take(scratch);
            for run in runs.into_iter().flatten() {
                run.shape(&mut mine);
            }
            *scratch = mine;
        });
    }

    // Every block's arrays, allocated here.
    let mut blocks = packings.each_ref().map(Packing::allocate);

    // Fill pass.
    let mut runs = zip_map(packings.each_ref(), blocks.each_mut(), |p, (blocks, _)| {
        let per = blocks.len().div_ceil(parts).max(1);
        let runs = blocks.chunks_mut(per).map(move |run| (&p.source, run));
        runs.chain(std::iter::repeat_with(|| (&p.source, &mut [][..])))
    });
    let work = (0..parts).map(|_| runs.each_mut().map(Iterator::next));
    executor.for_each_part(work.zip(&mut scratch), |(runs, scratch)| {
        let mut mine = std::mem::take(scratch);
        for (source, blocks) in runs.into_iter().flatten() {
            for block in blocks {
                source.fill_block(block, &mut mine);
            }
        }
    });

    zip_map(packings, blocks, |p, (blocks, padded_nnz)| {
        let shape = &p.source.shape;
        PackedMatrix {
            num_rows: shape.rows.len(),
            num_cols: shape.cols.len(),
            block_size: shape.block_size,
            fusing: shape.fusing,
            slots_per_stage: shape.slots,
            blocks,
            nnz: p.source.colidx.len(),
            padded_nnz,
        }
    })
}

/// `f` over the pairs of `a` and `b`, in order.
fn zip_map<T, U, V, const N: usize>(a: [T; N], b: [U; N], mut f: impl FnMut(T, U) -> V) -> [V; N] {
    let mut b = b.into_iter();
    // xct-allow(no-panic): infallible — both arrays hold N elements
    a.map(|t| f(t, b.next().unwrap()))
}

impl<'a, S: StorageScalar> Packing<'a, S> {
    /// Sizes the shape pass's arrays for `pattern`'s rows under `shape`.
    fn new<T: StorageScalar>(shape: Shape<'a>, pattern: &'a Csr<T>, values: &'a [S]) -> Self {
        let (block_size, slots) = (shape.block_size, shape.slots);
        let num_blocks = pattern.num_rows().div_ceil(block_size);
        let mut bounds = Vec::with_capacity(num_blocks + 1);
        let (mut nnz, mut stages, mut most) = (0, 0, 0);
        for run in shape.rows.indices().chunks(block_size) {
            bounds.push((nnz, stages));
            let block_nnz: usize = run.iter().map(|&r| pattern.span(r as usize).len()).sum();
            let bound = block_nnz.div_ceil(slots).max(1);
            (nnz, stages, most) = (nnz + block_nnz, stages + bound, most.max(bound));
        }
        bounds.push((nnz, stages));
        Packing {
            sorted: shape.rows.indices().to_vec(),
            distinct: vec![0; num_blocks],
            ranks: vec![0; nnz],
            ends: vec![0; stages * (block_size / LANE_GROUP)],
            source: Source {
                shape,
                rowptr: pattern.rowptr(),
                colidx: pattern.colidx(),
                values,
            },
            bounds,
            most,
        }
    }

    /// The blocks cut into `parts` contiguous runs, the last ones empty
    /// when there are fewer blocks than parts.
    fn runs(&mut self, parts: usize) -> impl Iterator<Item = Run<'_, 'a, S>> {
        let Packing {
            source,
            bounds,
            sorted,
            distinct,
            ranks,
            ends,
            ..
        } = self;
        let (source, bounds): (&Source<'a, S>, &[(usize, usize)]) = (source, bounds);
        let (num_blocks, block_size) = (distinct.len(), source.shape.block_size);
        let groups = block_size / LANE_GROUP;
        let per = num_blocks.div_ceil(parts).max(1);
        let (mut sorted, mut distinct) = (sorted.as_mut_slice(), distinct.as_mut_slice());
        let (mut ranks, mut ends) = (ranks.as_mut_slice(), ends.as_mut_slice());
        (0..parts).map(move |k| {
            let (first, last) = ((k * per).min(num_blocks), ((k + 1) * per).min(num_blocks));
            let ((nnz, stages), (nnz_end, stages_end)) = (bounds[first], bounds[last]);
            let rows = (last * block_size).min(source.shape.rows.len()) - first * block_size;
            let run;
            (run, sorted) = std::mem::take(&mut sorted).split_at_mut(rows);
            let counted;
            (counted, distinct) = std::mem::take(&mut distinct).split_at_mut(last - first);
            let staged;
            (staged, ranks) = std::mem::take(&mut ranks).split_at_mut(nnz_end - nnz);
            let stage_ends;
            (stage_ends, ends) =
                std::mem::take(&mut ends).split_at_mut((stages_end - stages) * groups);
            Run {
                source,
                bounds,
                first,
                sorted: run,
                distinct: counted,
                ranks: staged,
                ends: stage_ends,
            }
        })
    }

    /// Every block with its rows, maps and group ends in place and its
    /// rounds allocated, and the padded size they add up to.
    fn allocate(&self) -> (Vec<PackedBlock<S>>, usize) {
        let shape = &self.source.shape;
        let (slots, groups) = (shape.slots, shape.block_size / LANE_GROUP);
        let col_at = shape.cols.indices();
        let mut padded_nnz = 0usize;
        let blocks = self
            .sorted
            .chunks(shape.block_size)
            .enumerate()
            .map(|(b, rows)| {
                let (nnz, stages) = self.bounds[b];
                let staged = &self.ranks[nnz..][..self.distinct[b] as usize];
                let num_stages = staged.len().div_ceil(slots).max(1);
                let ends = &self.ends[stages * groups..][..num_stages * groups];
                let stages = ends.chunks_exact(groups).enumerate().map(|(stage, ends)| {
                    let total = ends.last().copied().unwrap_or(0) as usize;
                    padded_nnz += total * LANE_GROUP;
                    let map = staged.chunks(slots).nth(stage).unwrap_or_default();
                    PackedStage {
                        map: map.iter().map(|&k| col_at[k as usize]).collect(),
                        ends: ends.to_vec(),
                        // Padded by the fill pass, on its worker.
                        rounds: Vec::with_capacity(total),
                        // The fill pass writes `ind = slot + 1`, `slot <
                        // map.len()`; `slots` ≤ `u16::MAX`, so this fits.
                        slots: map.len() as u32 + 1,
                    }
                });
                PackedBlock {
                    rows: rows.to_vec(),
                    stages: stages.collect(),
                }
            })
            .collect();
        (blocks, padded_nnz)
    }
}

impl<S: StorageScalar> Run<'_, '_, S> {
    /// The shape of every block of the run, into the run's slices.
    fn shape(self, scratch: &mut Scratch) {
        let block_size = self.source.shape.block_size;
        let (base_nnz, base_stages) = self.bounds[self.first];
        let groups = block_size / LANE_GROUP;
        let blocks = self.sorted.chunks_mut(block_size).zip(self.distinct);
        for (b, (rows, distinct)) in (self.first..).zip(blocks) {
            let ((nnz, stages), (nnz_end, _)) = (self.bounds[b], self.bounds[b + 1]);
            let ranks = &mut self.ranks[nnz - base_nnz..nnz_end - base_nnz];
            let ends = &mut self.ends[(stages - base_stages) * groups..];
            *distinct = self.source.shape_block(rows, ranks, ends, scratch);
        }
    }
}

impl<S: StorageScalar> Source<'_, S> {
    /// The columns of row `r`.
    fn row(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.colidx[self.rowptr[r]..self.rowptr[r + 1]]
    }

    /// A block's shape: sorts its `rows` longest first (the place in
    /// the row order breaks ties, which makes the unstable sort's result
    /// the stable one), writes the column-order ranks of its distinct
    /// columns ascending to the front of `ranks` and every stage's group
    /// ends to the front of `ends`; returns how many distinct columns it
    /// stages. Stage and slot of a column follow from its place in that
    /// list: place / capacity, place % capacity + 1.
    fn shape_block(
        &self,
        rows: &mut [u32],
        ranks: &mut [u32],
        ends: &mut [u32],
        scratch: &mut Scratch,
    ) -> u32 {
        let shape = &self.shape;
        let (block_size, slots) = (shape.block_size, shape.slots);
        let (col_rank, col_at) = (shape.cols.rank(), shape.cols.indices());
        let row_rank = shape.rows.rank();
        rows.sort_unstable_by_key(|&r| {
            (std::cmp::Reverse(self.row(r).len()), row_rank[r as usize])
        });

        // The distinct columns' ranks, ascending: a bit per rank, read
        // back word by word over the words the block touched — a pass
        // over a bitmap where sorting would cost a log factor.
        let staged = &mut scratch.staged;
        let (mut low, mut high) = (staged.len(), 0);
        for &r in rows.iter() {
            for &c in self.row(r) {
                let k = col_rank[c as usize] as usize;
                staged[k / 64] |= 1 << (k % 64);
                (low, high) = (low.min(k / 64), high.max(k / 64 + 1));
            }
        }
        let mut distinct = 0;
        for (w, word) in staged[low.min(high)..high].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                ranks[distinct] = ((low + w) * 64) as u32 + bits.trailing_zeros();
                distinct += 1;
                bits &= bits - 1;
            }
        }
        let (position, counts) = scratch.split();
        for (place, &k) in ranks[..distinct].iter().enumerate() {
            position[col_at[k as usize] as usize] = place as u32;
        }
        // A block of empty rows still gets one (empty) stage so the
        // executor writes its zeros.
        let num_stages = distinct.div_ceil(slots).max(1);

        // Nonzeros per (stage, thread); with a single stage that is the
        // row length the sort already read. A group's rounds are its
        // longest lane, and the running total of rounds is where each
        // group's elements go.
        let counts = &mut counts[..num_stages * block_size];
        counts.fill(0);
        if num_stages == 1 {
            for (n, &r) in counts.iter_mut().zip(rows.iter()) {
                *n = self.row(r).len() as u32;
            }
        } else {
            for (t, &r) in rows.iter().enumerate() {
                for &c in self.row(r) {
                    let stage = position[c as usize] as usize / slots;
                    counts[stage * block_size + t] += 1;
                }
            }
        }
        let groups = block_size / LANE_GROUP;
        let stages = counts
            .chunks_exact(block_size)
            .zip(ends.chunks_exact_mut(groups));
        for (counts, ends) in stages {
            let mut total = 0u32;
            for (lanes, end) in counts.chunks_exact(LANE_GROUP).zip(ends) {
                total += lanes.iter().copied().max().unwrap_or(0);
                *end = total;
            }
        }
        distinct as u32
    }

    /// Writes every element of `block`, whose rows, maps and group ends
    /// are in place and whose rounds are allocated: the rounds are
    /// padded, then a thread's count becomes the place of its next
    /// element — its group's first round, then round by round — so a
    /// lane's elements keep their row order.
    fn fill_block(&self, block: &mut PackedBlock<S>, scratch: &mut Scratch) {
        let (block_size, slots) = (self.shape.block_size, self.shape.slots);
        let (position, counts) = scratch.split();
        let PackedBlock { rows, stages } = block;
        let padding = PackedRound {
            ind: [0; LANE_GROUP],
            len: [S::zero(); LANE_GROUP],
        };
        let cursors = stages.iter_mut().zip(counts.chunks_exact_mut(block_size));
        for (stage, (staged, cursors)) in cursors.enumerate() {
            for (i, &c) in staged.map.iter().enumerate() {
                position[c as usize] = (stage * slots + i) as u32;
            }
            let mut start = 0;
            for (lanes, &end) in cursors.chunks_exact_mut(LANE_GROUP).zip(&staged.ends) {
                lanes.fill(start);
                start = end;
            }
            // Within the capacity allocated for it: every group's rounds.
            staged.rounds.resize(start as usize, padding);
        }
        for (t, &r) in rows.iter().enumerate() {
            let span = self.rowptr[r as usize]..self.rowptr[r as usize + 1];
            let lane = t % LANE_GROUP;
            for (&c, &v) in self.colidx[span.clone()].iter().zip(&self.values[span]) {
                let place = position[c as usize] as usize;
                let (stage, slot) = (place / slots, place % slots);
                let n = &mut counts[stage * block_size + t];
                let round = &mut stages[stage].rounds[*n as usize];
                round.ind[lane] = (slot + 1) as u16;
                round.len[lane] = v;
                *n += 1;
            }
        }
    }
}

/// 64-bit FNV-1a, the hash of [`PackedMatrix::layout_digest`]: fixed by
/// its definition, so a recorded digest stays valid across toolchains.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A run behind its length, so runs that concatenate to the same
    /// bytes still hash apart.
    fn words(&mut self, words: &[u32]) {
        self.write(&(words.len() as u64).to_le_bytes());
        for w in words {
            self.write(&w.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::F16;

    fn random_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> Csr<f32> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut triplets = Vec::new();
        for r in 0..rows {
            for _ in 0..per_row {
                let c = next() % cols;
                let v = (next() % 1000) as f32 / 1000.0 + 0.001;
                triplets.push((r as u32, c as u32, v));
            }
        }
        Csr::from_triplets(rows, cols, triplets.into_iter())
    }

    #[test]
    fn element_bytes_match_paper_packing() {
        // Half is the paper's 4-byte element; wider lengths add only
        // their own bytes, and a round is exactly its elements.
        assert_eq!(packed_element_bytes::<F16>(), 4);
        assert_eq!(packed_element_bytes::<f32>(), 6);
        assert_eq!(packed_element_bytes::<f64>(), 10);
        assert_eq!(size_of::<PackedRound<F16>>(), LANE_GROUP * 4);
        assert_eq!(size_of::<PackedRound<f32>>(), LANE_GROUP * 6);
        assert_eq!(size_of::<PackedRound<f64>>(), LANE_GROUP * 10);
    }

    /// A fixed scramble of `0..len` (`stride` coprime to `len`).
    fn strided_order(len: usize, stride: usize) -> Order {
        Order::new((0..len).map(|i| ((i * stride + 5) % len) as u32).collect())
    }

    #[test]
    fn pack_preserves_every_nonzero() {
        let csr = random_csr(100, 300, 7, 42);
        let natural = PackedMatrix::pack(&csr, 64, 512, 2);
        let scrambled = PackedMatrix::pack_ordered(
            &csr,
            &strided_order(100, 37),
            &strided_order(300, 71),
            64,
            512,
            2,
            &Executor::Serial,
        );
        assert!(scrambled.total_stages() > scrambled.blocks().len());
        for packed in [natural, scrambled] {
            assert_eq!(packed.nnz(), csr.nnz());
            let mut expected: Vec<(u32, u32, u32)> = csr
                .triplets()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect();
            let mut got = unpack(&packed);
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected);
            let mut written: Vec<u32> = packed
                .blocks()
                .iter()
                .flat_map(|b| b.rows.iter().copied())
                .collect();
            written.sort_unstable();
            assert_eq!(written, (0..100).collect::<Vec<u32>>(), "each row once");
        }
    }

    /// The `(row, column, value bits)` triplets a packed layout encodes:
    /// every element that is not padding (slot 0), through the stage's
    /// map and the block's row list.
    fn unpack(packed: &PackedMatrix<f32>) -> Vec<(u32, u32, u32)> {
        let mut got: Vec<(u32, u32, u32)> = Vec::new();
        for block in packed.blocks() {
            for stage in &block.stages {
                assert_eq!(stage.groups().count(), packed.block_size() / LANE_GROUP);
                for (g, rounds) in stage.groups().enumerate() {
                    for round in rounds {
                        for lane in 0..LANE_GROUP {
                            let (ind, len) = (round.ind[lane], round.len[lane]);
                            if ind == 0 {
                                assert_eq!(len.to_bits(), 0, "padding is (0, +0)");
                                continue;
                            }
                            let row = block.rows[g * LANE_GROUP + lane];
                            let col = stage.map[ind as usize - 1];
                            got.push((row, col, len.to_bits()));
                        }
                    }
                }
            }
        }
        got
    }

    /// One round as `(ind, len bits)` per lane.
    type RoundLayout = [(u16, u64); LANE_GROUP];
    /// One stage as `(map, per-group rounds)`.
    type StageLayout = (Vec<u32>, Vec<Vec<RoundLayout>>);
    /// One block as `(rows in thread order, stages)`.
    type BlockLayout = (Vec<u32>, Vec<StageLayout>);

    /// The layout `pack_ordered` must produce, built the slow obvious
    /// way: per block (a run of the row order) the rows stably sorted
    /// longest first; the distinct columns in column order cut into
    /// stages; per (stage, lane group) one list per lane in the row's own
    /// sequence — slot = place in the stage's map + 1 — padded with
    /// `(0, +0)` to the *group's* longest and stored round by round.
    fn lane_list_layout<S: StorageScalar>(
        csr: &Csr<S>,
        row_order: &Order,
        col_order: &Order,
        block_size: usize,
        slots: usize,
    ) -> Vec<BlockLayout> {
        let mut blocks = Vec::new();
        for run in row_order.indices().chunks(block_size) {
            let mut block_rows = run.to_vec();
            block_rows.sort_by_key(|&r| std::cmp::Reverse(csr.row(r as usize).0.len()));
            let mut cols: Vec<u32> = block_rows
                .iter()
                .flat_map(|&r| csr.row(r as usize).0.iter().copied())
                .collect();
            cols.sort_unstable_by_key(|&c| col_order.rank()[c as usize]);
            cols.dedup();
            let num_stages = cols.len().div_ceil(slots).max(1);
            let mut stages = Vec::new();
            for stage in 0..num_stages {
                let map: Vec<u32> = cols
                    .iter()
                    .copied()
                    .skip(stage * slots)
                    .take(slots)
                    .collect();
                let mut groups = Vec::new();
                for group in 0..block_size / LANE_GROUP {
                    let lists: Vec<Vec<(u16, u64)>> = (0..LANE_GROUP)
                        .map(|lane| {
                            let Some(&row) = block_rows.get(group * LANE_GROUP + lane) else {
                                return Vec::new();
                            };
                            let (rc, rv) = csr.row(row as usize);
                            rc.iter()
                                .zip(rv)
                                .filter_map(|(c, v)| {
                                    let at = map.iter().position(|m| m == c)?;
                                    Some((at as u16 + 1, v.to_f64().to_bits()))
                                })
                                .collect()
                        })
                        .collect();
                    let rounds = lists.iter().map(Vec::len).max().unwrap_or(0);
                    let padding = (0u16, 0.0f64.to_bits());
                    groups.push(
                        (0..rounds)
                            .map(|n| {
                                std::array::from_fn(|lane| {
                                    lists[lane].get(n).copied().unwrap_or(padding)
                                })
                            })
                            .collect(),
                    );
                }
                stages.push((map, groups));
            }
            blocks.push((block_rows, stages));
        }
        blocks
    }

    /// 168 rows × 300 columns in blocks of 64: 64, 64 (all rows empty)
    /// and 40 (ragged: ten full groups, six empty ones); 0–6 nonzeros per
    /// row.
    fn ragged_csr() -> Csr<f32> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut triplets = Vec::new();
        for r in (0..64).chain(128..168) {
            for _ in 0..r % 7 {
                let v = (next() % 1000) as f32 / 1000.0 + 0.001;
                triplets.push((r as u32, (next() % 300) as u32, v));
            }
        }
        Csr::<f32>::from_triplets(168, 300, triplets.into_iter())
    }

    /// The precision modes' pack — `pack_pair`: the sorted `f32` operator
    /// narrowed in bulk under a scale, `A` packed from its own indices,
    /// `Aᵀ` from the transposed typed values — against the route it
    /// replaced, scaled triplets through `from_triplets` (and their
    /// transpose), laid out by lane lists: block for block the same row
    /// lists, maps, per-group rounds, element bits and padded size, for
    /// every storage type, under the identity orders and under scrambled
    /// ones, on a ragged multi-stage matrix with 64 empty rows (one whole
    /// block of the identity order) whose groups have unequal round
    /// counts.
    #[test]
    fn direct_scaled_pack_equals_the_triplet_route_structurally() {
        fn check<S: StorageScalar>(csr: &Csr<f32>, scale: f32, rows: &Order, cols: &Order) {
            let (block_size, slots, fusing) = (64, 24, 3);
            let (a, at) = PackedMatrix::<S>::pack_pair(
                csr,
                scale,
                (rows, cols),
                block_size,
                slots * fusing * S::BYTES,
                fusing,
                &Executor::Serial,
            );
            let scaled = csr.triplets().map(|(r, c, v)| (r, c, v * scale));
            let typed = Csr::<S>::from_triplets(csr.num_rows(), csr.num_cols(), scaled);
            // Every typed value widens to `f32` exactly, so the
            // transposed triplets rebuild it exactly.
            let transposed = typed.triplets().map(|(r, c, v)| (c, r, v));
            let typed_t = Csr::<S>::from_triplets(csr.num_cols(), csr.num_rows(), transposed);
            for (direct, expected, what) in [
                (
                    &a,
                    lane_list_layout(&typed, rows, cols, block_size, slots),
                    "A",
                ),
                (
                    &at,
                    lane_list_layout(&typed_t, cols, rows, block_size, slots),
                    "At",
                ),
            ] {
                assert_eq!(direct.slots_per_stage(), slots);
                assert_eq!(direct.blocks().len(), expected.len(), "{} {what}", S::NAME);
                let (mut padded, mut unequal) = (0, false);
                for (b, (block, (want_rows, want))) in
                    direct.blocks().iter().zip(&expected).enumerate()
                {
                    let at = format!("{} {what} block {b}", S::NAME);
                    assert_eq!(&block.rows, want_rows, "{at}");
                    assert_eq!(block.stages.len(), want.len(), "{at}");
                    for (stage, (map, groups)) in block.stages.iter().zip(want) {
                        assert_eq!(&stage.map, map, "{at}");
                        assert_eq!(stage.groups().count(), groups.len());
                        for (group, rounds) in stage.groups().zip(groups) {
                            let got: Vec<RoundLayout> = group
                                .iter()
                                .map(|r| {
                                    std::array::from_fn(|l| (r.ind[l], r.len[l].to_f64().to_bits()))
                                })
                                .collect();
                            assert_eq!(&got, rounds, "{at}");
                            padded += rounds.len() * LANE_GROUP;
                        }
                        let lens: Vec<usize> = stage.groups().map(<[_]>::len).collect();
                        unequal |= lens.iter().any(|&n| n != lens[0]);
                    }
                }
                assert_eq!(direct.padded_nnz(), padded);
                assert_eq!(direct.nnz(), csr.nnz());
                assert!(direct.total_stages() > direct.blocks().len(), "multi-stage");
                assert!(unequal, "groups of unequal round counts");
            }
        }

        let csr = ragged_csr();
        for (rows, cols) in [
            (Order::identity(168), Order::identity(300)),
            (strided_order(168, 47), strided_order(300, 71)),
        ] {
            check::<f64>(&csr, 1.0, &rows, &cols);
            check::<f32>(&csr, 1.0, &rows, &cols);
            check::<F16>(&csr, 1.0 / 1.0005, &rows, &cols);
        }
    }

    /// Both packing passes fan out over runs of blocks, each part taking
    /// a run of every matrix packed together. However the blocks are
    /// cut — one to three parts, down to one block a run, a matrix alone
    /// or `A` with `Aᵀ` — the bytes are the sequential packing's, single-
    /// and multi-stage, and `pack_pair` is `pack_ordered` of the re-typed
    /// matrix and of its transpose.
    #[test]
    fn fanned_out_packing_is_the_sequential_one() {
        fn check<S: StorageScalar>(csr: &Csr<f32>, scale: f32) {
            let (rows, cols) = (strided_order(168, 47), strided_order(300, 71));
            let typed = csr.map_values(|v| S::from_f32(v * scale));
            let typed_t = typed.transpose();
            let serial = Executor::Serial;
            for shared in [1 << 16, 24 * 3 * S::BYTES] {
                let want = (
                    PackedMatrix::pack_ordered(&typed, &rows, &cols, 64, shared, 3, &serial),
                    PackedMatrix::pack_ordered(&typed_t, &cols, &rows, 64, shared, 3, &serial),
                );
                let want = (want.0.layout_digest(), want.1.layout_digest());
                for parts in 1..=3 {
                    let executor = Executor::threads(parts);
                    let (a, at) = PackedMatrix::<S>::pack_pair(
                        csr,
                        scale,
                        (&rows, &cols),
                        64,
                        shared,
                        3,
                        &executor,
                    );
                    assert_eq!((a.layout_digest(), at.layout_digest()), want, "{}", S::NAME);
                    let forward = || Shape::new::<S>(&typed, (&rows, &cols), 64, shared, 3);
                    let backward = Shape::new::<S>(&typed_t, (&cols, &rows), 64, shared, 3);
                    let [a, at] = pack_together(
                        [
                            Packing::new(forward(), &typed, typed.values()),
                            Packing::new(backward, &typed_t, typed_t.values()),
                        ],
                        &executor,
                        1,
                    );
                    let what = format!("{} on {parts} parts", S::NAME);
                    assert_eq!((a.layout_digest(), at.layout_digest()), want, "{what}");
                    let [alone] = pack_together(
                        [Packing::new(forward(), &typed, typed.values())],
                        &executor,
                        1,
                    );
                    assert_eq!(alone.layout_digest(), want.0, "{what}, alone");
                }
            }
        }
        let csr = ragged_csr();
        check::<f64>(&csr, 1.0);
        check::<f32>(&csr, 1.0);
        check::<F16>(&csr, 1.0 / 1.0005);
    }

    /// `pack` is `pack_ordered` under the identity orders, and says so in
    /// the layout: block `b` lists rows `b·block_size..` — longest first,
    /// equal lengths ascending — and every map ascends.
    #[test]
    fn pack_is_the_identity_order() {
        let csr = random_csr(100, 300, 7, 42);
        let packed = PackedMatrix::pack(&csr, 64, 512, 2);
        assert!(packed.total_stages() > packed.blocks().len());
        for (block, run) in packed.blocks().iter().zip([0..64u32, 64..100]) {
            let key = |r: u32| (std::cmp::Reverse(csr.row(r as usize).0.len()), r);
            let mut want: Vec<u32> = run.collect();
            want.sort_unstable_by_key(|&r| key(r));
            assert_eq!(block.rows, want);
            let staged: Vec<u32> = block.stages.iter().flat_map(|s| s.map.clone()).collect();
            assert!(staged.windows(2).all(|w| w[0] < w[1]));
        }
        let lengths = |b: usize| -> Vec<usize> {
            let rows = &packed.blocks()[b].rows;
            rows.iter().map(|&r| csr.row(r as usize).0.len()).collect()
        };
        assert!(
            lengths(0).first() > lengths(0).last(),
            "rows differ in length"
        );
    }

    #[test]
    #[should_panic(expected = "row order length")]
    fn short_row_order_rejected() {
        let csr = random_csr(10, 10, 2, 1);
        let (rows, cols) = (Order::identity(9), Order::identity(10));
        PackedMatrix::pack_ordered(&csr, &rows, &cols, 32, 1024, 1, &Executor::Serial);
    }

    #[test]
    #[should_panic(expected = "column order length")]
    fn long_column_order_rejected() {
        let csr = random_csr(10, 10, 2, 1);
        PackedMatrix::pack_ordered(
            &csr,
            &Order::identity(10),
            &Order::identity(11),
            32,
            1024,
            1,
            &Executor::Serial,
        );
    }

    /// The counts the traffic account is built from — staged slots,
    /// stored elements, group ends, row-list entries — against a
    /// two-block layout worked out by hand, under orders that move them.
    ///
    /// 34 rows × 6 columns: row `r < 32` holds column `r % 2`; row 32
    /// holds {2, 3, 4}, row 33 holds {4, 5}: 37 nonzeros. Blocks of 32
    /// threads are 8 lane groups.
    #[test]
    fn metrics_count_the_ordered_layout_by_hand() {
        let triplets = (0..32u32)
            .map(|r| (r, r % 2, 1.0f32))
            .chain([(32, 2, 1.0), (32, 3, 1.0), (32, 4, 1.0)])
            .chain([(33, 4, 1.0), (33, 5, 1.0)]);
        let csr = Csr::<f32>::from_triplets(34, 6, triplets);
        let fusing = 2;
        let maps = |p: &PackedMatrix<f32>| -> Vec<Vec<Vec<u32>>> {
            p.blocks()
                .iter()
                .map(|b| b.stages.iter().map(|s| s.map.clone()).collect())
                .collect()
        };
        let group_rounds = |p: &PackedMatrix<f32>| -> Vec<Vec<Vec<usize>>> {
            p.blocks()
                .iter()
                .map(|b| {
                    let rounds = |s: &PackedStage<f32>| s.groups().map(<[_]>::len).collect();
                    b.stages.iter().map(rounds).collect()
                })
                .collect()
        };
        // bytes_read = 4 B per row id + (4 + fusing·4) B per staged slot
        // + 4 B per group end (8 per stage) + 6 B per stored f32 element.
        let bytes = |slots: u64, stages: u64, stored: u64| {
            34 * 4 + slots * (4 + 2 * 4) + stages * 8 * 4 + stored * 6
        };

        // Identity, everything in one stage: block 0 = rows 0..32 stages
        // {0, 1}, every group one round (32 elements); block 1 = rows 32,
        // 33 stages {2, 3, 4, 5}: its first group runs row 32's three
        // rounds (12 elements, 7 of them padding), the others nothing.
        let natural = PackedMatrix::pack(&csr, 32, 1 << 10, fusing);
        assert_eq!(maps(&natural), [[vec![0, 1]], [vec![2, 3, 4, 5]]]);
        assert_eq!(
            group_rounds(&natural),
            [[vec![1; 8]], [vec![3, 0, 0, 0, 0, 0, 0, 0]]]
        );
        assert_eq!(natural.padded_nnz(), 32 + 12);
        assert!((natural.kernel_metrics().flop_efficiency() - 37.0 / 44.0).abs() < 1e-12);
        assert!((natural.average_reuse() - 37.0 / 6.0).abs() < 1e-12);
        assert_eq!(natural.kernel_metrics().bytes_read, bytes(6, 2, 44));

        // Rows 32 and 33 first, columns descending, four slots a stage:
        // block 0 = rows 32, 33, 0..30 (already longest first) stages
        // [5, 4, 3, 2] — only its first group has elements there, three
        // rounds (12) — then [1, 0], one round in every group (32, the
        // first group's two long rows padded); block 1 = rows 30, 31
        // stages [1, 0], one round in its first group (4).
        let rows = Order::new([32, 33].into_iter().chain(0..32).collect());
        let cols = Order::new((0..6).rev().collect());
        let shared = 4 * fusing * 4;
        let ordered =
            PackedMatrix::pack_ordered(&csr, &rows, &cols, 32, shared, fusing, &Executor::Serial);
        assert_eq!(
            maps(&ordered),
            [vec![vec![5, 4, 3, 2], vec![1, 0]], vec![vec![1, 0]]]
        );
        assert_eq!(
            group_rounds(&ordered),
            [
                vec![vec![3, 0, 0, 0, 0, 0, 0, 0], vec![1; 8]],
                vec![vec![1, 0, 0, 0, 0, 0, 0, 0]]
            ]
        );
        assert_eq!(ordered.blocks()[0].rows[..3], [32, 33, 0]);
        assert_eq!(ordered.blocks()[1].rows, [30, 31]);
        assert_eq!(ordered.padded_nnz(), 12 + 32 + 4);
        assert!((ordered.kernel_metrics().flop_efficiency() - 37.0 / 48.0).abs() < 1e-12);
        assert!((ordered.average_reuse() - 37.0 / 8.0).abs() < 1e-12);
        let (m, n) = (ordered.kernel_metrics(), natural.kernel_metrics());
        assert_eq!(m.bytes_read, bytes(8, 3, 48));
        assert_eq!(m.padded_flops, 2 * 48 * fusing as u64);
        // What the order cannot move: the useful work and the output.
        assert_eq!(m.flops, 2 * 37 * fusing as u64);
        assert_eq!((m.flops, m.bytes_written), (n.flops, n.bytes_written));
    }

    #[test]
    fn stage_capacity_respected() {
        let csr = random_csr(64, 1000, 20, 7);
        let packed = PackedMatrix::pack(&csr, 64, 512, 1); // 128 f32 slots
        assert_eq!(packed.slots_per_stage(), 128);
        for block in packed.blocks() {
            for stage in &block.stages {
                assert!(stage.map.len() <= 128);
            }
        }
        assert!(packed.total_stages() > 1);
    }

    #[test]
    fn larger_fusing_means_more_stages() {
        // Fixed shared bytes: doubling the minibatch halves the slots.
        let csr = random_csr(64, 2000, 30, 9);
        let p1 = PackedMatrix::pack(&csr, 64, 2048, 1);
        let p4 = PackedMatrix::pack(&csr, 64, 2048, 4);
        assert!(p4.slots_per_stage() < p1.slots_per_stage());
        assert!(p4.total_stages() > p1.total_stages());
    }

    #[test]
    fn fusing_raises_arithmetic_intensity() {
        // The whole point of register reuse (§III-B2): flops grow with
        // the minibatch while matrix bytes are amortized.
        let csr = random_csr(128, 400, 10, 3);
        let big_shared = 1 << 20;
        let i1 = PackedMatrix::pack(&csr, 64, big_shared, 1)
            .kernel_metrics()
            .arithmetic_intensity();
        let i16 = PackedMatrix::pack(&csr, 64, big_shared, 16)
            .kernel_metrics()
            .arithmetic_intensity();
        assert!(i16 > 3.0 * i1, "AI should grow with fusing: {i1} -> {i16}");
    }

    #[test]
    fn half_packing_beats_single_intensity() {
        let csr32 = random_csr(128, 400, 10, 3);
        let csr16 = {
            let t: Vec<_> = csr32.triplets().collect();
            Csr::<F16>::from_triplets(128, 400, t.into_iter())
        };
        let i32 = PackedMatrix::pack(&csr32, 64, 1 << 20, 8)
            .kernel_metrics()
            .arithmetic_intensity();
        let i16 = PackedMatrix::pack(&csr16, 64, 1 << 20, 8)
            .kernel_metrics()
            .arithmetic_intensity();
        assert!(
            i16 > 1.5 * i32,
            "half packing should shrink bytes: {i32} vs {i16}"
        );
    }

    #[test]
    fn kernel_metrics_reconcile_with_structure_walk() {
        // The metrics the roofline model consumes must equal an
        // independent walk over the packed structure.
        let csr = random_csr(90, 250, 9, 77);
        let fusing = 5;
        let packed = PackedMatrix::pack(&csr, 64, 2048, fusing);
        let m = packed.kernel_metrics();
        let elem = packed_element_bytes::<f32>() as u64;
        let mut bytes_read = 90 * 4; // one u32 row id per output row
        let mut stored = 0;
        for block in packed.blocks() {
            for stage in &block.stages {
                bytes_read += stage.map.len() as u64 * (4 + (fusing * 4) as u64);
                for group in stage.groups() {
                    // One u32 end per group, LANE_GROUP elements per round.
                    bytes_read += 4 + (group.len() * LANE_GROUP) as u64 * elem;
                    stored += group.len() * LANE_GROUP;
                }
            }
        }
        assert_eq!(packed.padded_nnz(), stored);
        assert_eq!(m.bytes_read, bytes_read);
        assert_eq!(m.flops, 2 * csr.nnz() as u64 * fusing as u64);
        assert_eq!(
            m.padded_flops,
            2 * packed.padded_nnz() as u64 * fusing as u64
        );
        assert!(m.padded_flops >= m.flops, "padding can only add FMAs");
        assert_eq!(m.bytes_written, (90 * fusing * 4) as u64);
    }

    #[test]
    fn padding_efficiency_reflects_row_balance() {
        // Uniform rows pack perfectly; one long row among empties wastes
        // 3/4 of its lane group — and nothing in the seven groups beside
        // it, which store no rounds at all.
        let uniform: Csr<f32> = {
            let t = (0..64u32).flat_map(|r| (0..4u32).map(move |c| (r, c, 1.0f32)));
            Csr::from_triplets(64, 4, t)
        };
        let p = PackedMatrix::pack(&uniform, 64, 4096, 1);
        assert!((p.kernel_metrics().flop_efficiency() - 1.0).abs() < 1e-12);

        let skewed: Csr<f32> = {
            let t = (0..16u32).map(|c| (0u32, c, 1.0f32));
            Csr::from_triplets(32, 16, t)
        };
        let p = PackedMatrix::pack(&skewed, 32, 4096, 1);
        assert!((p.kernel_metrics().flop_efficiency() - 1.0 / 4.0).abs() < 1e-12);
        assert_eq!(p.padded_nnz(), 16 * LANE_GROUP);
    }

    #[test]
    fn empty_rows_still_produce_blocks() {
        let csr = Csr::<f32>::from_triplets(100, 10, std::iter::empty());
        let packed = PackedMatrix::pack(&csr, 32, 1024, 1);
        assert_eq!(packed.blocks().len(), 4);
        for b in packed.blocks() {
            assert!(!b.stages.is_empty());
        }
    }

    #[test]
    fn reuse_counts_nonzeros_per_staged_slot() {
        // 2 rows sharing the same 3 columns: 6 nonzeros, 3 staged slots.
        let csr = Csr::<f32>::from_triplets(
            2,
            3,
            vec![
                (0u32, 0u32, 1.0f32),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
            ]
            .into_iter(),
        );
        let packed = PackedMatrix::pack(&csr, 32, 4096, 1);
        assert!((packed.average_reuse() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn non_warp_multiple_block_rejected() {
        let csr = random_csr(10, 10, 2, 1);
        PackedMatrix::pack(&csr, 48, 1024, 1);
    }

    #[test]
    #[should_panic(expected = "cannot stage")]
    fn zero_slot_shared_rejected() {
        let csr = random_csr(10, 10, 2, 1);
        PackedMatrix::pack(&csr, 32, 4, 64);
    }
}
