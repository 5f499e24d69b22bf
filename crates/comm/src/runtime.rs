//! In-process message-passing runtime: the MPI substitute.
//!
//! One OS thread plays one MPI rank. Point-to-point messages are tagged
//! and matched like MPI envelopes `(source, tag)`; sends are buffered and
//! non-blocking, and receives may be posted ahead of time with
//! [`Communicator::irecv`] and completed later (the paper's
//! `MPI_Issend` / `MPI_Irecv` usage pattern — post sends and receives, do
//! local work, then complete — maps onto this directly).
//!
//! Transport is a per-rank mailbox — one FIFO queue per `(source, tag)`
//! envelope behind a `Mutex`, plus a `Condvar` — rather than an `mpsc`
//! channel. The sender knows the envelope, so it files the message under
//! its key at send and a receive looks at the front of exactly one
//! queue; the condvar wait inside [`Communicator::recv`] is the only
//! place a rank blocks. A mailbox also lets wire buffers be *pooled*: a
//! payload `Vec<u8>` travels from the sender's pool through the mailbox
//! to the receiver, which hands it back via [`Communicator::recycle`].
//! Because the scatter schedule is the exact transpose of the reduce
//! schedule, every rank receives the same multiset of message sizes it
//! sends over a full solver iteration, so the pools reach a steady state
//! after warm-up and the exchange hot path stops allocating (see
//! `tests/alloc_free.rs`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::collective::AllreduceSteps;
use crate::metrics::{CommMeter, RankCommStats, TrafficClass};
use crate::topology::Topology;
use crate::wire::{append, decode};
use xct_fp16::StorageScalar;
use xct_telemetry::{MetricId, Phase, Telemetry};

/// Tag bit reserved for internal reply traffic (allreduce responses).
/// Application tags must keep this bit clear; the collectives salt their
/// leader-to-member replies with it so a collective at tag `t` can never
/// cross-match application traffic at `t + 1`. Public so the static tag
/// verifier (xct-verify) models the reply namespace with the real bit.
pub const REPLY_TAG_SALT: u64 = 1 << 63;

/// Upper bound on pooled wire buffers kept per rank (a backstop against
/// pathological send/receive imbalance, far above any plan's needs).
const POOL_MAX: usize = 1024;

/// Sentinel send stamp meaning "the sender's telemetry was disabled":
/// the receiver records no match edge for such messages.
const UNSTAMPED: u64 = u64::MAX;

/// Communication failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Destination or source rank does not exist.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// No matching message arrived within the timeout.
    Timeout {
        /// Expected source.
        src: usize,
        /// Expected tag.
        tag: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range (world size {size})")
            }
            CommError::Timeout { src, tag } => {
                write!(f, "timed out waiting for message from rank {src} tag {tag}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Simulated wire time for inter-node messages.
///
/// The in-process transport is a memcpy, so without help every "network"
/// is infinitely fast and communication/computation overlap has nothing
/// to hide. A `WireModel` restores the paper's resource separation: an
/// inter-node message is *sent* instantly (the sender never blocks, like
/// a buffered `MPI_Issend`) but cannot be *matched* by the receiver until
/// its wire time — `latency + len / bytes_per_sec` — has elapsed, exactly
/// like bytes still in flight on InfiniBand. Intra-node messages
/// (NVLink/X-bus in the paper) are delivered immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Per-message latency.
    pub latency: Duration,
    /// Sustained bandwidth in bytes per second (`f64::INFINITY` for a
    /// pure-latency model).
    pub bytes_per_sec: f64,
    /// Ranks per node: ranks with equal `rank / ranks_per_node` share a
    /// node and exchange messages with zero wire time. `0` makes every
    /// pair inter-node.
    pub ranks_per_node: usize,
}

impl WireModel {
    /// Simulated time on the wire for a message of `len` bytes from
    /// `src` to `dst` — `latency + len / bytes_per_sec` — or `None` for
    /// undelayed (intra-node) delivery. This is both the matchability
    /// delay the runtime enforces and the wire weight stamped onto the
    /// causal match edge ([`xct_telemetry::EdgeRecord`]).
    pub fn wire_time(&self, src: usize, dst: usize, len: usize) -> Option<Duration> {
        if self.ranks_per_node > 0 && src / self.ranks_per_node == dst / self.ranks_per_node {
            return None;
        }
        let mut wire = self.latency;
        if self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0 {
            wire += Duration::from_secs_f64(len as f64 / self.bytes_per_sec);
        }
        Some(wire)
    }
}

/// SplitMix64 finalizer: the deterministic hash behind every chaos
/// decision, so a schedule is a pure function of `(seed, src, dst, seq)`
/// and never of thread timing.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a [`ChaosSchedule`] perturbs message matchability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Every message draws a small seed-derived matchability delay
    /// (roughly half draw none), permuting the order in which concurrent
    /// messages become matchable.
    Jitter,
    /// Exactly one message — the `nth` message sent from `src` to `dst` —
    /// is held back by the schedule's full delay while everything else
    /// flows untouched (the delay-one-message DPOR-lite mode: races that
    /// need one specific reordering are found by enumerating targets).
    DelayOne {
        /// Sender of the delayed message.
        src: usize,
        /// Receiver of the delayed message.
        dst: usize,
        /// Which message in `(src, dst)` send order is delayed (0-based).
        nth: u64,
    },
}

/// Deterministic schedule perturbation for race hunting.
///
/// The runtime already has a mechanism for "sent but not yet matchable":
/// [`WireModel`] stamps envelopes with a `ready_at` instant. A
/// `ChaosSchedule` drives the same mechanism from a seed instead of a
/// bandwidth model: each message's artificial delay is a pure function of
/// `(seed, src, dst, per-pair sequence number)`, so a failing
/// interleaving is reproducible from the seed alone — the schedule
/// explorer in xct-verify reports that seed as the repro. Delays change
/// *when* a message may be matched, never its content or per-key FIFO
/// order, so correct programs must produce identical results under every
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The seed every delay is derived from.
    pub seed: u64,
    /// Upper bound on the artificial matchability delay.
    pub max_delay: Duration,
    /// Upper bound on the per-rank start stagger (skews rank step
    /// interleavings the way unequal kernel times do on a real machine).
    pub stagger: Duration,
    /// Delay policy.
    pub mode: ChaosMode,
}

impl ChaosSchedule {
    /// Jitter schedule: small random delays on every message.
    pub fn jitter(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            max_delay: Duration::from_micros(1500),
            stagger: Duration::from_millis(2),
            mode: ChaosMode::Jitter,
        }
    }

    /// Delay-one schedule: the seed picks one `(src, dst, nth)` target in
    /// an `n`-rank world and holds only that message back, long enough to
    /// drain everything else first.
    pub fn delay_one(seed: u64, n: usize) -> Self {
        // Bounded: `% n` keeps both ranks inside the (usize-sized) world.
        #[allow(clippy::cast_possible_truncation)]
        let src = (mix64(seed ^ 0x51) % n as u64) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let mut dst = (mix64(seed ^ 0xD5) % n as u64) as usize;
        if dst == src {
            dst = (dst + 1) % n;
        }
        ChaosSchedule {
            seed,
            max_delay: Duration::from_millis(25),
            stagger: Duration::from_millis(2),
            mode: ChaosMode::DelayOne {
                src,
                dst,
                nth: mix64(seed ^ 0x9E) % 4,
            },
        }
    }

    /// The artificial delay for the `seq`-th message from `src` to `dst`,
    /// if any.
    fn delay_for(&self, src: usize, dst: usize, seq: u64) -> Option<Duration> {
        match self.mode {
            ChaosMode::Jitter => {
                let h = mix64(
                    self.seed
                        ^ (src as u64).wrapping_mul(0x0100_0000_01b3)
                        ^ (dst as u64).wrapping_mul(0x1_0001)
                        ^ seq.wrapping_mul(0x5851_f42d_4c95_7f2d),
                );
                if h & 1 == 0 {
                    return None;
                }
                let span = u64::try_from(self.max_delay.as_micros()).unwrap_or(u64::MAX);
                (span > 0).then(|| Duration::from_micros((h >> 32) % span))
            }
            ChaosMode::DelayOne {
                src: s,
                dst: d,
                nth,
            } => (src == s && dst == d && seq == nth).then_some(self.max_delay),
        }
    }

    /// Start stagger for `rank`.
    fn stagger_for(&self, rank: usize) -> Duration {
        let span = u64::try_from(self.stagger.as_micros()).unwrap_or(u64::MAX);
        if span == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(mix64(self.seed ^ 0xC0FFEE ^ (rank as u64) << 17) % span)
    }
}

/// Per-communicator chaos state: the schedule plus per-destination send
/// sequence numbers (atomics only so `Communicator` stays `Sync`; each
/// rank sends from its own thread).
struct ChaosState {
    schedule: ChaosSchedule,
    seq: Vec<AtomicU64>,
}

/// One sent-but-unmatched message, filed under its `(src, tag)` key.
#[derive(Debug)]
struct Message {
    /// When a [`WireModel`] or chaos schedule is in force: the earliest
    /// instant the receiver may match this message.
    ready_at: Option<Instant>,
    /// Sender's telemetry clock at send time ([`UNSTAMPED`] when the
    /// sender records nothing).
    sent_ns: u64,
    /// Simulated wire cost in nanoseconds. Only [`WireModel`] time
    /// counts — chaos delays perturb matchability without representing
    /// real network cost, so they never appear on causal edges.
    wire_ns: u64,
    payload: Vec<u8>,
}

#[derive(Default)]
struct MailboxInner {
    /// Unmatched messages by `(src, tag)`; FIFO per key preserves send
    /// order. Drained queues stay in the map: a solver reuses its keys
    /// every iteration, so the map stops allocating after warm-up.
    queues: HashMap<(usize, u64), VecDeque<Message>>,
    /// Running count of unmatched messages across all keys, so the
    /// mailbox-depth metric is O(1) to read.
    depth: usize,
}

/// Outcome of one matching attempt against the mailbox.
enum MatchOutcome {
    /// A matching message, ready now.
    Ready(Message),
    /// The next matching message exists but its simulated wire time has
    /// not elapsed; retry at the contained instant.
    NotUntil(Instant),
    /// No matching message has arrived.
    Absent,
}

#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    ready: Condvar,
}

/// One rank's endpoint in the world communicator.
pub struct Communicator {
    rank: usize,
    mailboxes: Arc<Vec<Mailbox>>,
    /// Free-listed wire buffers (see module docs on pooling).
    pool: Mutex<Vec<Vec<u8>>>,
    timeout: Duration,
    wire: Option<WireModel>,
    chaos: Option<ChaosState>,
    meter: CommMeter,
    telemetry: Telemetry,
    /// The one-node collective program the scalar allreduce wrappers
    /// run: a communicator is never told its topology, and a flat world
    /// is the one-node case of the same step list.
    flat: AllreduceSteps,
}

impl Communicator {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// This rank's communication meter (always on; see [`CommMeter`]).
    pub fn meter(&self) -> &CommMeter {
        &self.meter
    }

    /// Snapshot of this rank's communication totals.
    pub fn comm_stats(&self) -> RankCommStats {
        self.meter.snapshot(self.rank)
    }

    /// The tracing handle attached to this rank (disabled unless the world
    /// was started with a [`RankOptions::telemetry`]). Forked per rank, so
    /// solver code running on this rank thread can clone it into an
    /// `ExecContext` and share one nesting stack with the comm layer.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// This rank's collective program on a one-node world of all ranks.
    pub(crate) fn flat_steps(&self) -> &AllreduceSteps {
        &self.flat
    }

    /// Takes a wire buffer from this rank's pool (empty, with at least
    /// `cap` bytes of capacity when the pool can supply it). Buffers
    /// received from peers should be returned with [`recycle`] so the
    /// steady-state exchange paths stop allocating.
    ///
    /// [`recycle`]: Communicator::recycle
    pub fn pooled_buf(&self, cap: usize) -> Vec<u8> {
        // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
        let mut pool = self.pool.lock().expect("pool mutex poisoned");
        // Best fit: the smallest pooled buffer that already holds `cap`.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in pool.iter().enumerate() {
            let c = buf.capacity();
            if c >= cap && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
            }
        }
        match best {
            Some((i, _)) => pool.swap_remove(i),
            None => Vec::with_capacity(cap),
        }
    }

    /// Returns a wire buffer (typically one obtained from [`recv`]) to
    /// this rank's pool for reuse by later sends.
    ///
    /// [`recv`]: Communicator::recv
    pub fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
        let mut pool = self.pool.lock().expect("pool mutex poisoned");
        if pool.len() < POOL_MAX {
            pool.push(buf);
        }
    }

    /// Sends raw bytes to `dst` with `tag`. Non-blocking (buffered).
    pub fn send(&self, dst: usize, tag: u64, payload: Vec<u8>) -> Result<(), CommError> {
        let mailbox = self.mailboxes.get(dst).ok_or(CommError::RankOutOfRange {
            rank: dst,
            size: self.size(),
        })?;
        self.meter.record(dst, payload.len());
        self.telemetry.metric_inc(MetricId::CommSendMsgs);
        self.telemetry
            .metric_add(MetricId::CommSendBytes, payload.len() as u64);
        let wire_time = self
            .wire
            .and_then(|w| w.wire_time(self.rank, dst, payload.len()));
        // xct-allow(wall-clock): the in-process wire model delays real threads — genuine wall time, not telemetry
        let wire_at = wire_time.map(|d| Instant::now() + d);
        let wire_ns = wire_time.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let sent_ns = self.telemetry.now_ns().unwrap_or(UNSTAMPED);
        let chaos_at = self.chaos.as_ref().and_then(|c| {
            let seq = c.seq[dst].fetch_add(1, Ordering::Relaxed);
            c.schedule
                .delay_for(self.rank, dst, seq)
                // xct-allow(wall-clock): the in-process wire model delays real threads — genuine wall time, not telemetry
                .map(|d| Instant::now() + d)
        });
        if chaos_at.is_some() {
            self.telemetry.metric_inc(MetricId::CommChaosDelays);
        }
        let ready_at = match (wire_at, chaos_at) {
            (Some(w), Some(c)) => Some(w.max(c)),
            (at, None) | (None, at) => at,
        };
        // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
        let mut inner = mailbox.inner.lock().expect("mailbox mutex poisoned");
        inner
            .queues
            .entry((self.rank, tag))
            .or_default()
            .push_back(Message {
                ready_at,
                sent_ns,
                wire_ns,
                payload,
            });
        inner.depth += 1;
        drop(inner);
        mailbox.ready.notify_all();
        Ok(())
    }

    /// Sends a typed slice (encoded at the storage-scalar width, so half
    /// precision literally moves half the bytes of single). The wire
    /// buffer comes from the pool.
    pub fn send_vals<S: StorageScalar>(
        &self,
        dst: usize,
        tag: u64,
        vals: &[S],
    ) -> Result<(), CommError> {
        let mut buf = self.pooled_buf(vals.len() * S::BYTES);
        append(vals, &mut buf);
        self.send(dst, tag, buf)
    }

    /// Pops the oldest message filed under `(src, tag)`. One still "on
    /// the wire" (see [`WireModel`]) is not delivered, nor is anything
    /// queued behind it; the caller learns when to retry.
    fn take_match(inner: &mut MailboxInner, src: usize, tag: u64) -> MatchOutcome {
        let Some(queue) = inner.queues.get_mut(&(src, tag)) else {
            return MatchOutcome::Absent;
        };
        match queue.front().map(|m| m.ready_at) {
            None => MatchOutcome::Absent,
            // xct-allow(wall-clock): the in-process wire model delays real threads — genuine wall time, not telemetry
            Some(Some(at)) if at > Instant::now() => MatchOutcome::NotUntil(at),
            Some(_) => {
                inner.depth -= 1;
                // xct-allow(no-panic): infallible — the match above proved the front exists
                MatchOutcome::Ready(queue.pop_front().expect("front checked above"))
            }
        }
    }

    /// Records the causal match edge for a completed delivery (when
    /// both sides trace) and unwraps the payload. Must be called with
    /// the mailbox lock already released: the edge goes to the
    /// telemetry collector, whose lock never nests inside a mailbox
    /// lock.
    fn finish_match(&self, src: usize, delivery: Message, tag: u64) -> Vec<u8> {
        self.telemetry.metric_inc(MetricId::CommRecvMsgs);
        self.telemetry
            .metric_add(MetricId::CommRecvBytes, delivery.payload.len() as u64);
        if delivery.sent_ns != UNSTAMPED {
            self.telemetry.edge(
                u32::try_from(src).unwrap_or(u32::MAX),
                tag,
                u64::try_from(delivery.payload.len()).unwrap_or(u64::MAX),
                delivery.sent_ns,
                delivery.wire_ns,
            );
        }
        delivery.payload
    }

    /// Receives the next message matching `(src, tag)`, blocking until
    /// it is matchable or the timeout passes. Messages from one sender
    /// with one tag are delivered in send order.
    pub fn recv(&self, src: usize, tag: u64) -> Result<Vec<u8>, CommError> {
        if src >= self.size() {
            return Err(CommError::RankOutOfRange {
                rank: src,
                size: self.size(),
            });
        }
        // xct-allow(wall-clock): recv timeout deadline bounds a real blocking wait
        let deadline = Instant::now() + self.timeout;
        let mailbox = &self.mailboxes[self.rank];
        // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
        let mut inner = mailbox.inner.lock().expect("mailbox mutex poisoned");
        loop {
            let wake_at = match Self::take_match(&mut inner, src, tag) {
                MatchOutcome::Ready(delivery) => {
                    self.note_mailbox_depth(inner.depth);
                    drop(inner);
                    return Ok(self.finish_match(src, delivery, tag));
                }
                // Nobody notifies when a wire deadline passes, so bound
                // the sleep by it and re-poll.
                MatchOutcome::NotUntil(at) => at.min(deadline),
                MatchOutcome::Absent => deadline,
            };
            self.note_mailbox_depth(inner.depth);
            // xct-allow(wall-clock): the in-process wire model delays real threads — genuine wall time, not telemetry
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout { src, tag });
            }
            self.telemetry.metric_inc(MetricId::CommWaitParks);
            let (guard, _timed_out) = mailbox
                .ready
                .wait_timeout(inner, wake_at.saturating_duration_since(now))
                // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
                .expect("mailbox mutex poisoned");
            inner = guard;
        }
    }

    /// Publishes this rank's mailbox depth (unmatched messages) as a
    /// gauge. Called at receive attempts with the mailbox lock held; the
    /// gauge store is a relaxed atomic, and the flight ring it also
    /// touches is a leaf lock, so no lock-order cycle is possible.
    fn note_mailbox_depth(&self, depth: usize) {
        self.telemetry
            .gauge_set(MetricId::CommMailboxDepth, depth as f64);
    }

    /// Non-blocking receive: returns the next matching message if one has
    /// already arrived, `None` otherwise.
    pub fn try_recv(&self, src: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
        let taken = self.try_take(src, tag)?;
        Ok(taken.map(|delivery| self.finish_match(src, delivery, tag)))
    }

    /// Takes the next matching message out of the mailbox if one has
    /// already arrived, without recording its match.
    fn try_take(&self, src: usize, tag: u64) -> Result<Option<Message>, CommError> {
        if src >= self.size() {
            return Err(CommError::RankOutOfRange {
                rank: src,
                size: self.size(),
            });
        }
        let outcome = {
            let mut inner = self.mailboxes[self.rank]
                .inner
                .lock()
                // xct-allow(no-panic): lock poisoning means a sibling rank thread already panicked; propagate
                .expect("mailbox mutex poisoned");
            let outcome = Self::take_match(&mut inner, src, tag);
            self.note_mailbox_depth(inner.depth);
            outcome
        };
        Ok(match outcome {
            MatchOutcome::Ready(delivery) => Some(delivery),
            MatchOutcome::NotUntil(_) | MatchOutcome::Absent => None,
        })
    }

    /// Posts a nonblocking receive for `(src, tag)` — the `MPI_Irecv`
    /// analog. A message that has already arrived is captured immediately;
    /// otherwise the returned [`RecvRequest`] completes it later via
    /// [`RecvRequest::wait`], letting local work run while the peer's
    /// send is still in flight. Either way the match is recorded when the
    /// request is waited, so a rank's match edges follow the order its
    /// program completes its receives in.
    pub fn irecv(&self, src: usize, tag: u64) -> Result<RecvRequest, CommError> {
        let done = self.try_take(src, tag)?;
        Ok(RecvRequest { src, tag, done })
    }

    /// Typed receive. The wire buffer is recycled into the pool.
    pub fn recv_vals<S: StorageScalar>(&self, src: usize, tag: u64) -> Result<Vec<S>, CommError> {
        let bytes = self.recv(src, tag)?;
        let vals = decode(&bytes);
        self.recycle(bytes);
        Ok(vals)
    }

    /// Simple dissemination barrier over the world communicator.
    pub fn barrier(&self, tag: u64) -> Result<(), CommError> {
        let _class = self.meter.scope_class(TrafficClass::Control);
        let _span = self.telemetry.span(Phase::Allreduce);
        // ceil(log2(n)) rounds of pairwise token exchange; works at any
        // world size, power of two or not.
        let n = self.size();
        let mut dist = 1;
        while dist < n {
            let to = (self.rank + dist) % n;
            let from = (self.rank + n - dist) % n;
            self.send(to, tag ^ (dist as u64) << 32, Vec::new())?;
            let token = self.recv(from, tag ^ (dist as u64) << 32)?;
            self.recycle(token);
            dist *= 2;
        }
        Ok(())
    }
}

/// A nonblocking receive posted with [`Communicator::irecv`] — the
/// `MPI_Irecv` request handle analog. Plain data (no borrow of the
/// communicator), so requests can be stored in reusable scratch vectors.
#[derive(Debug)]
pub struct RecvRequest {
    src: usize,
    tag: u64,
    done: Option<Message>,
}

impl RecvRequest {
    /// The source rank this request matches.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Blocks until the message arrives and returns its payload
    /// (`MPI_Wait`). Consumes the request.
    // xct-hot
    pub fn wait(mut self, comm: &Communicator) -> Result<Vec<u8>, CommError> {
        match self.done.take() {
            Some(delivery) => Ok(comm.finish_match(self.src, delivery, self.tag)),
            None => comm.recv(self.src, self.tag),
        }
    }
}

/// Spawns `n` rank threads, runs `body` on each with its communicator, and
/// returns the results in rank order. Panics in any rank propagate.
///
/// ```
/// use xct_comm::run_ranks;
///
/// // Every rank sends its rank id to rank 0, which sums them.
/// let results = run_ranks(4, |comm| {
///     if comm.rank() == 0 {
///         (1..comm.size())
///             .map(|src| comm.recv_vals::<f32>(src, 1).unwrap()[0])
///             .sum::<f32>()
///     } else {
///         comm.send_vals::<f32>(0, 1, &[comm.rank() as f32]).unwrap();
///         0.0
///     }
/// });
/// assert_eq!(results[0], 6.0);
/// ```
pub fn run_ranks<T: Send>(n: usize, body: impl Fn(&Communicator) -> T + Sync) -> Vec<T> {
    run_ranks_with(n, &RankOptions::default(), body)
}

/// What a world of ranks can be started with beyond its size; the
/// default is [`run_ranks`]'s world.
#[derive(Debug, Clone)]
pub struct RankOptions {
    /// Receive timeout (30 s by default; shorter for failure tests).
    pub timeout: Duration,
    /// Each rank's communicator carries a fork of this handle on track =
    /// rank, so spans, metrics and flight events of all rank threads
    /// land in one shared collector with correct per-rank nesting.
    /// Disabled by default.
    pub telemetry: Telemetry,
    /// Inter-node messages are held back for their simulated wire time
    /// before the receiver can match them, making communication-bound
    /// configurations measurable in-process.
    pub wire: Option<WireModel>,
    /// Rank starts are staggered and message matchability is delayed,
    /// both as pure functions of the schedule's seed. Correct programs
    /// must produce results identical to an unperturbed run; a
    /// divergence or error is a race, and the seed is its repro. This is
    /// the execution hook the xct-verify schedule explorer drives.
    pub chaos: Option<ChaosSchedule>,
}

impl Default for RankOptions {
    fn default() -> Self {
        RankOptions {
            timeout: Duration::from_secs(30),
            telemetry: Telemetry::disabled(),
            wire: None,
            chaos: None,
        }
    }
}

/// [`run_ranks`] on a world configured by `opts` — the one place rank
/// threads start.
pub fn run_ranks_with<T: Send>(
    n: usize,
    opts: &RankOptions,
    body: impl Fn(&Communicator) -> T + Sync,
) -> Vec<T> {
    assert!(n > 0, "need at least one rank");
    let telemetry = &opts.telemetry;
    let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..n).map(|_| Mailbox::default()).collect());
    let comms: Vec<Communicator> = (0..n)
        .map(|rank| Communicator {
            rank,
            mailboxes: Arc::clone(&mailboxes),
            pool: Mutex::new(Vec::new()),
            timeout: opts.timeout,
            wire: opts.wire,
            chaos: opts.chaos.map(|schedule| ChaosState {
                schedule,
                seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }),
            meter: CommMeter::new(n),
            // xct-allow(no-panic): infallible — rank counts are tiny (bounded by the topology)
            telemetry: telemetry.fork(u32::try_from(rank).expect("rank fits u32")),
            flat: AllreduceSteps::build(&Topology::new(1, 1, n), rank),
        })
        .collect();
    // Mailboxes outlive every rank thread (the Arc is shared), so a
    // premature peer exit is never observable as a disconnect; receive
    // timeouts cover premature-exit deadlocks instead.
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                scope.spawn(|| {
                    if let Some(c) = &opts.chaos {
                        std::thread::sleep(c.stagger_for(comm.rank));
                    }
                    body(comm)
                })
            })
            .collect();
        handles
            .into_iter()
            // xct-allow(no-panic): test-cluster harness — a panicked rank must propagate to the driver
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::F16;

    fn wired(wire: WireModel, telemetry: &Telemetry) -> RankOptions {
        RankOptions {
            telemetry: telemetry.clone(),
            wire: Some(wire),
            ..RankOptions::default()
        }
    }

    fn timed(timeout: Duration, chaos: Option<ChaosSchedule>) -> RankOptions {
        RankOptions {
            timeout,
            chaos,
            ..RankOptions::default()
        }
    }

    #[test]
    fn wire_model_holds_inter_node_messages_back() {
        let wire = WireModel {
            latency: Duration::from_millis(40),
            bytes_per_sec: f64::INFINITY,
            ranks_per_node: 1, // every pair is inter-node
        };
        let stamps = run_ranks_with(2, &wired(wire, &Telemetry::disabled()), |comm| {
            if comm.rank() == 0 {
                let sent_at = Instant::now();
                comm.send_vals::<f32>(1, 5, &[42.0]).unwrap();
                (sent_at, sent_at)
            } else {
                let got = comm.recv_vals::<f32>(0, 5).unwrap();
                assert_eq!(got, vec![42.0]);
                (Instant::now(), Instant::now())
            }
        });
        let in_flight = stamps[1].0.duration_since(stamps[0].0);
        assert!(
            in_flight >= Duration::from_millis(35),
            "wire time not enforced: delivered after {in_flight:?}"
        );
    }

    #[test]
    fn wire_model_leaves_intra_node_messages_alone() {
        // Same world, but both ranks share a node: payloads must flow
        // untouched and `try_recv` must see them without a wire wait.
        let wire = WireModel {
            latency: Duration::from_secs(3600),
            bytes_per_sec: f64::INFINITY,
            ranks_per_node: 2,
        };
        let results = run_ranks_with(2, &wired(wire, &Telemetry::disabled()), |comm| {
            let peer = 1 - comm.rank();
            comm.send_vals::<f32>(peer, 9, &[comm.rank() as f32])
                .unwrap();
            comm.recv_vals::<f32>(peer, 9).unwrap()[0]
        });
        assert_eq!(results, vec![1.0, 0.0]);
    }

    #[test]
    fn matches_record_causal_edges_with_wire_cost() {
        let wire = WireModel {
            latency: Duration::from_millis(5),
            bytes_per_sec: f64::INFINITY,
            ranks_per_node: 1, // every pair is inter-node
        };
        let telemetry = Telemetry::enabled();
        run_ranks_with(2, &wired(wire, &telemetry), |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, 5, &[1.0, 2.0]).unwrap();
            } else {
                let bytes = comm.recv(0, 5).unwrap();
                comm.recycle(bytes);
            }
        });
        let snap = telemetry.snapshot();
        let edge = snap
            .edges
            .iter()
            .find(|e| e.tag == 5)
            .expect("application match edge recorded");
        assert_eq!(edge.src_track, 0);
        assert_eq!(edge.dst_track, 1);
        assert_eq!(edge.bytes, 8);
        assert_eq!(edge.wire_ns, 5_000_000);
        assert!(
            edge.matched_ns >= edge.sent_ns + edge.wire_ns,
            "match at {} cannot precede send at {} plus wire {}",
            edge.matched_ns,
            edge.sent_ns,
            edge.wire_ns
        );
    }

    #[test]
    fn intra_node_edges_carry_zero_wire_cost() {
        let wire = WireModel {
            latency: Duration::from_secs(3600),
            bytes_per_sec: f64::INFINITY,
            ranks_per_node: 2, // both ranks share a node
        };
        let telemetry = Telemetry::enabled();
        run_ranks_with(2, &wired(wire, &telemetry), |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, 11, &[3.0]).unwrap();
            } else {
                let bytes = comm.recv(0, 11).unwrap();
                comm.recycle(bytes);
            }
        });
        let snap = telemetry.snapshot();
        let edge = snap.edges.iter().find(|e| e.tag == 11).expect("edge");
        assert_eq!(edge.wire_ns, 0);
    }

    #[test]
    fn ring_pass() {
        let results = run_ranks(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_vals::<f32>(next, 7, &[comm.rank() as f32])
                .unwrap();
            let got = comm.recv_vals::<f32>(prev, 7).unwrap();
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn tag_matching_reorders() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, 1, &[1.0]).unwrap();
                comm.send_vals::<f32>(1, 2, &[2.0]).unwrap();
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = comm.recv_vals::<f32>(0, 2).unwrap();
                let a = comm.recv_vals::<f32>(0, 1).unwrap();
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn same_tag_preserves_order() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..5 {
                    comm.send_vals::<f32>(1, 9, &[i as f32]).unwrap();
                }
                Vec::new()
            } else {
                (0..5)
                    .map(|_| comm.recv_vals::<f32>(0, 9).unwrap()[0])
                    .collect()
            }
        });
        assert_eq!(results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn half_precision_on_the_wire() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<F16>(1, 3, &[F16::from_f32(0.1), F16::MAX])
                    .unwrap();
                0
            } else {
                let v = comm.recv_vals::<F16>(0, 3).unwrap();
                assert_eq!(v[0].to_bits(), F16::from_f32(0.1).to_bits());
                assert_eq!(v[1].to_bits(), F16::MAX.to_bits());
                v.len()
            }
        });
        assert_eq!(results[1], 2);
    }

    #[test]
    fn barrier_completes() {
        let results = run_ranks(5, |comm| comm.barrier(77).is_ok());
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn barrier_completes_at_non_power_of_two_world_sizes() {
        // Regression for the operator-precedence bug in the dissemination
        // peer computation: `(rank + n - dist % n) % n` parsed as
        // `n - (dist % n)`, which silently pairs the wrong peers once the
        // two expressions diverge. Exercise odd world sizes with skewed
        // rank arrival order so any mispairing deadlocks (and trips the
        // receive timeout) instead of passing by accident.
        for &n in &[3usize, 5, 7] {
            let results = run_ranks_with(n, &timed(Duration::from_secs(5), None), |comm| {
                // Stagger arrival so matching must happen across rounds.
                std::thread::sleep(Duration::from_millis(3 * comm.rank() as u64));
                comm.barrier(0xB000 + n as u64)
            });
            assert!(
                results.iter().all(|r| r.is_ok()),
                "barrier failed at world size {n}: {results:?}"
            );
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let results = run_ranks(6, |comm| {
            comm.allreduce_sum(11, comm.rank() as f64).unwrap()
        });
        assert!(results.iter().all(|&v| v == 15.0));
    }

    #[test]
    fn allreduce_reply_does_not_collide_with_adjacent_tag_traffic() {
        // Regression for the reply-tag collision: replies used to go out
        // at `tag + 1`, so application traffic rank 0 sends at `t + 1`
        // *before* the collective could be mistaken for the reply of the
        // collective at `t`. With the reserved reply namespace both the
        // collective and the app message complete correctly.
        let t = 40u64;
        let results = run_ranks(3, |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, t + 1, &[123.0]).unwrap();
            }
            let sum = comm.allreduce_sum(t, 1.0).unwrap();
            let app = if comm.rank() == 1 {
                comm.recv_vals::<f32>(0, t + 1).unwrap()[0]
            } else {
                123.0
            };
            (sum, app)
        });
        for &(sum, app) in &results {
            assert_eq!(sum, 3.0);
            assert_eq!(app, 123.0);
        }
    }

    #[test]
    fn back_to_back_collectives_on_adjacent_tags() {
        // A sum at tag t immediately followed by another at t + 1: under
        // the old `tag + 1` reply scheme the first one's broadcast could
        // be consumed as the second one's gather leg. Both must come out
        // exact.
        let results = run_ranks(4, |comm| {
            let first = comm.allreduce_sum(500, comm.rank() as f64 + 1.0).unwrap();
            let second = comm
                .allreduce_sum(501, (comm.rank() as f64) * 100.0)
                .unwrap();
            (first, second)
        });
        for &(first, second) in &results {
            assert_eq!(first, 10.0);
            assert_eq!(second, 600.0);
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                // Nothing has been sent to rank 0 at this tag.
                let empty = comm.try_recv(1, 7).unwrap().is_none();
                comm.send_vals::<f32>(1, 8, &[5.0]).unwrap();
                empty
            } else {
                comm.recv_vals::<f32>(0, 8).unwrap();
                true
            }
        });
        assert!(results[0], "try_recv must not block or invent messages");
    }

    #[test]
    fn irecv_captures_already_arrived_message() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, 21, &[9.0]).unwrap();
                comm.send_vals::<f32>(1, 22, &[0.0]).unwrap(); // release
                0.0
            } else {
                comm.recv_vals::<f32>(0, 22).unwrap(); // tag 21 already queued
                let req = comm.irecv(0, 21).unwrap();
                assert!(req.done.is_some(), "message already arrived");
                decode::<f32>(&req.wait(comm).unwrap())[0]
            }
        });
        assert_eq!(results[1], 9.0);
    }

    #[test]
    fn recycled_buffers_are_reused_by_sends() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send_vals::<f32>(1, 1, &[1.0, 2.0, 3.0]).unwrap();
                true
            } else {
                let bytes = comm.recv(0, 1).unwrap();
                let cap = bytes.capacity();
                comm.recycle(bytes);
                let reused = comm.pooled_buf(12);
                // Best-fit hands back the very buffer we recycled.
                reused.capacity() == cap && reused.is_empty()
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let results = run_ranks(2, |comm| comm.send(5, 0, Vec::new()));
        assert_eq!(
            results[0],
            Err(CommError::RankOutOfRange { rank: 5, size: 2 })
        );
    }

    #[test]
    fn chaos_jitter_preserves_correctness() {
        // A correct program must be schedule-independent: the ring pass
        // yields identical results under every jitter seed.
        for seed in 0..4u64 {
            let results = run_ranks_with(
                4,
                &timed(Duration::from_secs(20), Some(ChaosSchedule::jitter(seed))),
                |comm| {
                    let next = (comm.rank() + 1) % comm.size();
                    let prev = (comm.rank() + comm.size() - 1) % comm.size();
                    comm.send_vals::<f32>(next, 7, &[comm.rank() as f32])
                        .unwrap();
                    comm.recv_vals::<f32>(prev, 7).unwrap()[0]
                },
            );
            assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0], "seed {seed}");
        }
    }

    #[test]
    fn chaos_preserves_per_key_fifo() {
        // Delays permute matchability *across* keys, never within one
        // (src, tag) stream: the key's queue completes in send order even
        // when a later message drew a shorter delay.
        for seed in [1u64, 7, 23] {
            let results = run_ranks_with(
                2,
                &timed(Duration::from_secs(20), Some(ChaosSchedule::jitter(seed))),
                |comm| {
                    if comm.rank() == 0 {
                        for i in 0..5 {
                            comm.send_vals::<f32>(1, 9, &[i as f32]).unwrap();
                        }
                        Vec::new()
                    } else {
                        (0..5)
                            .map(|_| comm.recv_vals::<f32>(0, 9).unwrap()[0])
                            .collect()
                    }
                },
            );
            assert_eq!(results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0], "seed {seed}");
        }
    }

    #[test]
    fn chaos_delay_one_is_deterministic_and_never_self_directed() {
        for seed in 0..32u64 {
            let a = ChaosSchedule::delay_one(seed, 4);
            assert_eq!(a, ChaosSchedule::delay_one(seed, 4));
            let ChaosMode::DelayOne { src, dst, .. } = a.mode else {
                panic!("delay_one must build a DelayOne schedule");
            };
            assert_ne!(src, dst, "seed {seed} targets a self-send");
            assert!(src < 4 && dst < 4);
        }
    }

    #[test]
    fn recv_timeout_fires() {
        let results = run_ranks_with(2, &timed(Duration::from_millis(50), None), |comm| {
            if comm.rank() == 1 {
                comm.recv(0, 99).err()
            } else {
                None
            }
        });
        assert_eq!(results[1], Some(CommError::Timeout { src: 0, tag: 99 }));
    }
}
