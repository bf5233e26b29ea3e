//! Command batches and batching policy.
//!
//! The paper's throughput analysis (Section VI-D) attributes Paxos's
//! small-command advantage to the leader "batching more commands when
//! sending and receiving messages". This module makes batching a
//! first-class protocol concept rather than a CPU-model artifact: drivers
//! coalesce queued client requests into a [`Batch`], protocols replicate
//! the whole batch with **one** wire message and **one** acknowledgement,
//! and per-command ordering coordinates are derived from a single head
//! coordinate plus each command's offset within the batch.
//!
//! A `Batch` is strictly ordered: command `i` executes before command
//! `i + 1`, and a protocol maps offset `i` onto its own order space —
//! Clock-RSM assigns timestamp `head + i`, Paxos instance `first + i`,
//! Mencius the `i`-th own slot after `first`.
//!
//! Two hot-path concerns live here besides the data type:
//!
//! * **Allocation-lean fan-out.** A batch's command vector is stored
//!   behind an [`Arc`], so cloning a `Batch` (and therefore cloning a
//!   `PrepareBatch`/`Accept`/`Propose` message once per peer during a
//!   broadcast) bumps a reference count instead of deep-copying every
//!   command. An N-peer fan-out of a 64-command batch shares one
//!   allocation N + 1 ways; [`Batch::ptr_eq`] makes the sharing testable.
//! * **Adaptive batching.** [`BatchPolicy`] can be static (a fixed
//!   flush threshold) or adaptive; the per-node [`BatchController`]
//!   turns the policy into an effective per-drain threshold from
//!   observed inbox depth and a decaying commit-latency estimate. See
//!   the controller docs for the algorithm and its tuning constants.

use std::fmt;
use std::sync::Arc;

use crate::command::Command;
use crate::time::Micros;
use crate::wire::WireSize;

/// An ordered, non-empty group of client commands replicated as one unit.
///
/// # Examples
///
/// ```
/// use rsm_core::{Batch, Command, CommandId, ClientId, ReplicaId};
/// use bytes::Bytes;
///
/// let client = ClientId::new(ReplicaId::new(0), 0);
/// let cmds: Vec<Command> = (1..=3)
///     .map(|seq| Command::new(CommandId::new(client, seq), Bytes::from_static(b"op")))
///     .collect();
/// let batch = Batch::new(cmds);
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.get(2).id.seq, 3);
/// let shared = batch.clone(); // O(1): clones share the command vector
/// assert!(batch.ptr_eq(&shared));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Batch {
    /// Shared storage: cloning a batch — which every per-peer message
    /// clone in a broadcast does — is a reference-count bump, never a
    /// deep copy of the commands.
    cmds: Arc<Vec<Command>>,
}

impl Batch {
    /// Wraps an ordered command sequence.
    ///
    /// # Panics
    ///
    /// Panics if `cmds` is empty: protocols rely on every batch carrying
    /// at least one command (a head coordinate with zero span is
    /// meaningless).
    pub fn new(cmds: Vec<Command>) -> Self {
        assert!(!cmds.is_empty(), "batches are non-empty");
        Batch {
            cmds: Arc::new(cmds),
        }
    }

    /// A batch holding a single command (the unbatched fast path).
    pub fn single(cmd: Command) -> Self {
        Batch {
            cmds: Arc::new(vec![cmd]),
        }
    }

    /// Whether two batches share the same backing storage (the
    /// `Bytes::ptr_eq` analogue for command vectors). True between a
    /// batch and its clones — which is exactly what a broadcast produces
    /// — and the property the allocation-lean fan-out tests assert.
    pub fn ptr_eq(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.cmds, &other.cmds)
    }

    /// Number of commands in the batch.
    #[allow(clippy::len_without_is_empty)] // batches are never empty
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// The command at offset `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &Command {
        &self.cmds[i]
    }

    /// Iterates the commands in batch order.
    pub fn iter(&self) -> std::slice::Iter<'_, Command> {
        self.cmds.iter()
    }

    /// The commands as a slice.
    pub fn as_slice(&self) -> &[Command] {
        &self.cmds
    }

    /// Consumes the batch, yielding its commands. Free when this is the
    /// last reference to the storage; clones the commands once otherwise
    /// (a batch just received off a broadcast usually still shares its
    /// storage with the sender's other in-flight copies, so hot
    /// receive paths should prefer [`iter`](Batch::iter) and clone the
    /// individual commands they keep — `Command` clones are cheap).
    pub fn into_vec(self) -> Vec<Command> {
        Arc::try_unwrap(self.cmds).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Total payload bytes across all commands.
    pub fn payload_bytes(&self) -> usize {
        self.cmds.iter().map(Command::size).sum()
    }
}

impl IntoIterator for Batch {
    type Item = Command;
    type IntoIter = std::vec::IntoIter<Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Command;
    type IntoIter = std::slice::Iter<'a, Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.cmds.iter()
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Batch({} cmds, {}B)",
            self.cmds.len(),
            self.payload_bytes()
        )
    }
}

impl WireSize for Batch {
    fn wire_size(&self) -> usize {
        // Encodes exactly like the underlying Vec<Command>; the enclosing
        // message pays its own header once for the whole batch — that
        // amortization is the point.
        self.cmds.wire_size()
    }
}

/// How a driver coalesces queued client requests into batches.
///
/// Drivers flush **opportunistically, never waiting intentionally** (the
/// paper's own batching discipline): whatever requests are queued when the
/// replica gets scheduled form the next batch, capped at
/// [`max_batch`](BatchPolicy::max_batch) commands *and* at
/// [`max_bytes`](BatchPolicy::max_bytes) of accumulated payload — a batch
/// of kilobyte commands flushes on the byte budget long before the count
/// cap, so one wire message never balloons. A batch always carries at
/// least one command, however large. `max_batch == 1` disables batching
/// and reproduces the per-command protocol exactly.
///
/// With [`adaptive`](BatchPolicy::adaptive) set, `max_batch` becomes a
/// ceiling rather than the operating point: each driver node runs a
/// [`BatchController`] that moves the effective flush threshold between 1
/// and `max_batch` with load, so light load keeps single-command latency
/// and heavy load gets full amortization without retuning the knob.
///
/// # Examples
///
/// ```
/// use rsm_core::BatchPolicy;
/// assert_eq!(BatchPolicy::max(8).max_batch, 8);
/// assert_eq!(BatchPolicy::DISABLED.max_batch, 1);
/// let p = BatchPolicy::max(64).with_max_bytes(4 * 1024);
/// assert!(!p.fits(3, 4 * 1024)); // byte budget reached: flush
/// assert!(p.fits(3, 100));
/// let a = BatchPolicy::adaptive(64);
/// assert!(a.adaptive && a.max_batch == 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on commands per batch. Under an adaptive policy this is
    /// the ceiling the controller may widen the threshold to.
    pub max_batch: usize,
    /// Budget on accumulated payload bytes per batch: once a batch
    /// reaches it, the batch flushes even if `max_batch` is not. The
    /// first command of a batch is always admitted regardless.
    pub max_bytes: usize,
    /// Whether the flush threshold adapts to load (see
    /// [`BatchController`]) instead of sitting at `max_batch`.
    pub adaptive: bool,
}

impl BatchPolicy {
    /// Batching off: every command travels alone.
    pub const DISABLED: BatchPolicy = BatchPolicy {
        max_batch: 1,
        max_bytes: usize::MAX,
        adaptive: false,
    };

    /// A policy flushing at most `max_batch` commands per batch, with no
    /// byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn max(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        BatchPolicy {
            max_batch,
            max_bytes: usize::MAX,
            adaptive: false,
        }
    }

    /// An adaptive policy: the effective flush threshold tracks load
    /// between 1 and `max_batch` (see [`BatchController`] for the
    /// algorithm), with no byte budget unless one is added.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is not at least 2 — an adaptive policy with
    /// nothing to adapt between is a contradiction; use
    /// [`DISABLED`](BatchPolicy::DISABLED) for unbatched runs.
    pub fn adaptive(max_batch: usize) -> Self {
        assert!(max_batch > 1, "adaptive batching needs max_batch > 1");
        BatchPolicy {
            max_batch,
            max_bytes: usize::MAX,
            adaptive: true,
        }
    }

    /// Adds a payload byte budget to the policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero (a batch always carries at least one
    /// command; a zero budget is a contradiction, not "no batching").
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        assert!(max_bytes > 0, "max_bytes must be at least 1");
        self.max_bytes = max_bytes;
        self
    }

    /// Whether this policy ever coalesces requests at all — i.e. whether
    /// a driver needs to route requests through its inbox to give the
    /// policy something to work with.
    pub fn coalesces(&self) -> bool {
        self.max_batch > 1
    }

    /// Whether a batch currently holding `len` commands and
    /// `payload_bytes` of payload may admit another command, **at the
    /// policy's full threshold** (`max_batch`). The first command
    /// (`len == 0`) is always admitted. Adaptive drivers ask their
    /// [`BatchController`] instead, which applies the current effective
    /// threshold.
    pub fn fits(&self, len: usize, payload_bytes: usize) -> bool {
        len == 0 || (len < self.max_batch && payload_bytes < self.max_bytes)
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::DISABLED
    }
}

// ---------------------------------------------------------------------
// Adaptive batching controller
// ---------------------------------------------------------------------

/// Decay factor for the inbox-depth estimate: each drain folds the
/// observed queued-request count in with weight 1/4 (`depth ← depth +
/// (observed − depth)/4`). Small enough to ride out single-drain bursts,
/// large enough to track a real load shift within a handful of drains.
pub const DEPTH_ALPHA: f64 = 0.25;

/// Decay factor for the commit-latency estimate (weight 1/8). Latency is
/// a noisier, laggier signal than depth — it includes the WAN round trip
/// — so it decays slower.
pub const LATENCY_ALPHA: f64 = 0.125;

/// The latency floor creeps up at this fractional rate per second of
/// **sample time**, so the light-load baseline re-learns after a
/// permanent environment change (say, a replica moving farther away)
/// instead of pinning to a historical minimum forever. The rate is
/// time-based, not per-sample: a node committing tens of thousands of
/// commands per second must not erode the floor thousands of times
/// faster than an idle one — a per-sample creep would race the floor up
/// to an *elevated* latency estimate within a second of heavy load and
/// neutralize the narrowing gate exactly when it matters. At 5 %/s, a
/// genuinely doubled baseline is re-learned in ~15 s, while a transient
/// multi-second backlog keeps the gate closed throughout.
pub const LATENCY_FLOOR_CREEP_PER_SEC: f64 = 0.05;

/// Cap on the creep applied by any single sample, in seconds of
/// elapsed time. Without it, the first commit after a long commit-idle
/// gap would apply the whole gap's worth of creep at once and snap the
/// floor up to the current (possibly backlogged) estimate, opening the
/// narrowing gate exactly when a burst needs it closed. With the cap,
/// re-learning only advances while commits actually flow.
pub const LATENCY_FLOOR_CREEP_MAX_STEP_SECS: f64 = 1.0;

/// Narrowing is suppressed while the latency estimate exceeds the floor
/// by more than this factor: an empty inbox under elevated latency means
/// the backlog lives downstream (in the pipeline), not that load is gone.
pub const LATENCY_SLACK: f64 = 1.25;

/// Narrowing requires the depth estimate to fall below `threshold /
/// NARROW_DIV` — together with doubling-only widening this gives the
/// hysteresis band `[threshold/4, threshold)` in which the threshold
/// holds still, so depth oscillating around the operating point cannot
/// make the threshold thrash.
pub const NARROW_DIV: usize = 4;

/// Per-node adaptive batching state: turns a [`BatchPolicy`] into an
/// *effective* flush threshold for each inbox drain.
///
/// # Algorithm
///
/// The controller keeps two decaying estimates and one output:
///
/// * **depth** — an EWMA (weight [`1/4`](DEPTH_ALPHA)) over the number
///   of client requests waiting in the node's inbox at each drain. This
///   is the load signal: a deep inbox means arrivals outpace drains.
/// * **latency** — an EWMA (weight [`1/8`](LATENCY_ALPHA)) over
///   locally-originated commit latencies, plus a decaying minimum (the
///   *floor*, creeping up [5 %](LATENCY_FLOOR_CREEP_PER_SEC) per second
///   of sample time) that serves as the light-load baseline.
/// * **threshold** — the effective `max_batch` for the next drain,
///   always in `[1, policy.max_batch]`.
///
/// Each drain moves the threshold multiplicatively, with hysteresis:
///
/// * **widen** (`depth ≥ threshold`): the queue fills as fast as we
///   drain it — double the threshold (capped at `max_batch`) so the next
///   batch amortizes more per message.
/// * **narrow** (`depth < threshold/`[`4`](NARROW_DIV) *and* latency
///   within [25 %](LATENCY_SLACK) of its floor): load is gone *and* the
///   pipeline has caught up — halve the threshold (floored at 1), moving
///   back toward single-command latency.
/// * otherwise hold. The dead band `[threshold/4, threshold)` is what
///   prevents thrashing; requiring quiescent latency to narrow prevents
///   a momentarily empty inbox (the drain just emptied it) from
///   shrinking batches while commits are still backed up downstream.
///
/// At light load the threshold decays within a few drains to the
/// trickle floor (`1 · NARROW_DIV = 4` under 1-deep drains; see
/// [`begin_drain`](BatchController::begin_drain)). That floor costs
/// nothing: flushes are opportunistic, so a lone request still commits
/// with batch-of-1 latency under *any* threshold — the threshold only
/// caps how much a deep queue may coalesce. Under a sustained burst the
/// threshold doubles per drain, reaching a ceiling of 64 in six drains.
/// A **static** policy yields a degenerate controller whose threshold
/// is pinned at `max_batch`.
///
/// The byte budget adapts **in lockstep** with the count threshold: under
/// an adaptive policy with a finite `max_bytes`, the effective budget
/// starts at `max_bytes / max_batch` (one count-threshold's worth of
/// average headroom), doubles on every widen and halves on every narrow,
/// clamped to `[max_bytes / max_batch, max_bytes]`. Large-payload load
/// therefore grows the byte budget exactly as small-command load grows
/// the count threshold, and `max_bytes` itself remains the hard
/// transport bound a wire message can never exceed. A policy with no
/// byte budget (`usize::MAX`) never adapts one into existence.
///
/// # Examples
///
/// ```
/// use rsm_core::{BatchController, BatchPolicy};
/// let mut c = BatchController::new(BatchPolicy::adaptive(64));
/// assert_eq!(c.effective_max_batch(), 1); // light-load-first
/// for _ in 0..8 {
///     c.begin_drain(64); // sustained pressure
/// }
/// assert_eq!(c.effective_max_batch(), 64);
/// for _ in 0..24 {
///     c.begin_drain(1); // load subsides to a trickle
/// }
/// assert!(c.effective_max_batch() <= 4);
/// ```
#[derive(Debug, Clone)]
pub struct BatchController {
    policy: BatchPolicy,
    threshold: usize,
    /// Effective payload byte budget, moved in lockstep with
    /// `threshold` between `bytes_floor(policy)` and `policy.max_bytes`.
    bytes_threshold: usize,
    depth_ewma: f64,
    latency_ewma_us: f64,
    latency_floor_us: f64,
    /// Timestamp of the last latency sample (driver clock, µs) — the
    /// time base for the floor's creep.
    last_latency_at_us: Micros,
}

/// The smallest byte budget an adaptive controller may narrow to: one
/// count-threshold's worth of average per-command headroom. A policy
/// without a byte budget keeps `usize::MAX` (nothing to adapt).
fn bytes_floor(policy: &BatchPolicy) -> usize {
    if policy.max_bytes == usize::MAX {
        usize::MAX
    } else {
        (policy.max_bytes / policy.max_batch).max(1)
    }
}

impl BatchController {
    /// Creates a controller for the policy. Adaptive policies start at
    /// threshold 1 (latency-safe until load proves otherwise); static
    /// policies pin the threshold at `max_batch`.
    pub fn new(policy: BatchPolicy) -> Self {
        BatchController {
            threshold: if policy.adaptive { 1 } else { policy.max_batch },
            bytes_threshold: if policy.adaptive {
                bytes_floor(&policy)
            } else {
                policy.max_bytes
            },
            depth_ewma: 0.0,
            latency_ewma_us: 0.0,
            latency_floor_us: f64::INFINITY,
            last_latency_at_us: 0,
            policy,
        }
    }

    /// The policy this controller was built from.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The effective flush threshold the next drain will use.
    pub fn effective_max_batch(&self) -> usize {
        self.threshold
    }

    /// The effective payload byte budget the next drain will use. Pinned
    /// at `policy.max_bytes` for static policies; adapts alongside
    /// [`effective_max_batch`](BatchController::effective_max_batch)
    /// otherwise.
    pub fn effective_max_bytes(&self) -> usize {
        self.bytes_threshold
    }

    /// Called at the start of each inbox drain with the number of client
    /// requests observed waiting; updates the depth estimate and applies
    /// the widen/narrow rules. Returns the threshold for this drain.
    /// No-op (returns `max_batch`) for static policies.
    ///
    /// Drains carrying **no** requests (a message-only inbox) are also a
    /// no-op: under protocol-heavy traffic most drains process only
    /// peer messages, and letting them vote "depth 0" would drag the
    /// estimate to zero and thrash the threshold while clients are in
    /// fact saturating the node. The depth signal is *requests per
    /// request-carrying drain* — its floor is 1, which is why a 1-deep
    /// trickle rests the threshold at 4 (= 1 · [`NARROW_DIV`]) rather
    /// than 1; that costs nothing, because flushes are opportunistic
    /// (a threshold only caps a batch, it never delays one).
    pub fn begin_drain(&mut self, queued_requests: usize) -> usize {
        if !self.policy.adaptive || queued_requests == 0 {
            return self.threshold;
        }
        self.depth_ewma += DEPTH_ALPHA * (queued_requests as f64 - self.depth_ewma);
        if self.depth_ewma >= self.threshold as f64 {
            self.threshold = (self.threshold * 2).min(self.policy.max_batch);
            self.bytes_threshold = self
                .bytes_threshold
                .saturating_mul(2)
                .min(self.policy.max_bytes);
        } else if self.depth_ewma < self.threshold as f64 / NARROW_DIV as f64
            && self.latency_quiescent()
        {
            self.threshold = (self.threshold / 2).max(1);
            self.bytes_threshold = (self.bytes_threshold / 2).max(bytes_floor(&self.policy));
        }
        self.threshold
    }

    /// Feeds one locally-originated commit latency sample, in
    /// microseconds, taken at driver-clock time `now_us`. The sample
    /// should approximate request-to-commit time at the origin; the
    /// [`NodeCore`](crate::node::NodeCore) measures from the arrival
    /// instant its driver passed with the request (the simulator's
    /// request event, the threaded runtime's drain — the latter misses
    /// inbox wait, so it under-reports backlog slightly). The signal only
    /// gates *narrowing* relative to its own floor, so a
    /// consistently-measured under-estimate still works. The clock only needs to be monotonic
    /// per node — it is the time base for the floor's creep, which is
    /// deliberately per-second rather than per-sample (see
    /// [`LATENCY_FLOOR_CREEP_PER_SEC`]). Ignored for static policies.
    pub fn record_commit_latency(&mut self, latency_us: Micros, now_us: Micros) {
        if !self.policy.adaptive {
            return;
        }
        let sample = latency_us as f64;
        if self.latency_floor_us.is_finite() {
            self.latency_ewma_us += LATENCY_ALPHA * (sample - self.latency_ewma_us);
            let dt_secs = (now_us.saturating_sub(self.last_latency_at_us) as f64 / 1e6)
                .min(LATENCY_FLOOR_CREEP_MAX_STEP_SECS);
            self.latency_floor_us = (self.latency_floor_us
                * (1.0 + LATENCY_FLOOR_CREEP_PER_SEC * dt_secs))
                .min(self.latency_ewma_us);
        } else {
            // First sample seeds both estimates.
            self.latency_ewma_us = sample;
            self.latency_floor_us = sample;
        }
        self.last_latency_at_us = now_us;
    }

    /// Whether recent commit latency sits near its light-load floor (or
    /// no samples exist yet, in which case depth alone governs).
    fn latency_quiescent(&self) -> bool {
        !self.latency_floor_us.is_finite()
            || self.latency_ewma_us <= self.latency_floor_us * LATENCY_SLACK
    }

    /// Whether a batch currently holding `len` commands and
    /// `payload_bytes` of payload may admit another command under the
    /// **current effective thresholds** (count and byte budget both
    /// adapt). The first command is always admitted.
    pub fn fits(&self, len: usize, payload_bytes: usize) -> bool {
        len == 0 || (len < self.threshold && payload_bytes < self.bytes_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandId;
    use crate::id::{ClientId, ReplicaId};
    use crate::wire::MSG_HEADER_BYTES;
    use bytes::Bytes;

    fn cmd(seq: u64, len: usize) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from(vec![0u8; len]),
        )
    }

    #[test]
    fn batch_preserves_order() {
        let b = Batch::new(vec![cmd(1, 4), cmd(2, 4), cmd(3, 4)]);
        let seqs: Vec<u64> = b.iter().map(|c| c.id.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(b.payload_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_rejected() {
        let _ = Batch::new(Vec::new());
    }

    #[test]
    fn batch_wire_size_amortizes_headers() {
        let cmds: Vec<Command> = (0..10).map(|i| cmd(i, 10)).collect();
        let batched = Batch::new(cmds.clone()).wire_size() + MSG_HEADER_BYTES;
        let unbatched: usize = cmds.iter().map(|c| c.wire_size() + MSG_HEADER_BYTES).sum();
        assert!(batched < unbatched, "{batched} !< {unbatched}");
    }

    #[test]
    fn policy_defaults_to_disabled() {
        assert_eq!(BatchPolicy::default(), BatchPolicy::DISABLED);
        assert_eq!(BatchPolicy::max(16).max_batch, 16);
        assert_eq!(BatchPolicy::max(16).max_bytes, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_rejected() {
        let _ = BatchPolicy::max(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_byte_budget_rejected() {
        let _ = BatchPolicy::max(8).with_max_bytes(0);
    }

    #[test]
    fn clones_share_storage_and_into_vec_recovers_it() {
        let b = Batch::new(vec![cmd(1, 8), cmd(2, 8)]);
        let c = b.clone();
        assert!(b.ptr_eq(&c), "clones must share the command vector");
        assert!(!b.ptr_eq(&Batch::new(vec![cmd(1, 8), cmd(2, 8)])));
        // Shared: into_vec falls back to one copy.
        let v = c.into_vec();
        assert_eq!(v.len(), 2);
        // Unique again: into_vec moves the storage out without copying.
        let payload_ptr = b.get(0).payload.as_ptr();
        let v = b.into_vec();
        assert_eq!(v[0].payload.as_ptr(), payload_ptr);
    }

    #[test]
    fn adaptive_policy_shape() {
        let p = BatchPolicy::adaptive(64);
        assert!(p.adaptive);
        assert_eq!(p.max_batch, 64);
        assert!(p.coalesces());
        assert!(!BatchPolicy::DISABLED.coalesces());
        assert!(!BatchPolicy::max(8).adaptive);
    }

    #[test]
    #[should_panic(expected = "max_batch > 1")]
    fn adaptive_without_headroom_rejected() {
        let _ = BatchPolicy::adaptive(1);
    }

    #[test]
    fn static_controller_is_pinned() {
        let mut c = BatchController::new(BatchPolicy::max(8));
        assert_eq!(c.effective_max_batch(), 8);
        assert_eq!(c.begin_drain(1000), 8);
        c.record_commit_latency(1, 0);
        assert_eq!(c.begin_drain(0), 8);
        assert!(c.fits(7, 0) && !c.fits(8, 0));
    }

    #[test]
    fn adaptive_widens_under_pressure_and_narrows_when_idle() {
        let mut c = BatchController::new(BatchPolicy::adaptive(64));
        assert_eq!(c.effective_max_batch(), 1, "starts latency-safe");
        let mut widen_drains = 0;
        while c.effective_max_batch() < 64 {
            c.begin_drain(64);
            widen_drains += 1;
            assert!(widen_drains <= 10, "widening must be fast");
        }
        let mut narrow_drains = 0;
        while c.effective_max_batch() > 4 {
            c.begin_drain(1);
            narrow_drains += 1;
            assert!(narrow_drains <= 64, "a trickle must decay the threshold");
        }
        // Message-only drains (no requests) carry no depth signal.
        c.begin_drain(0);
        assert_eq!(c.effective_max_batch(), 4, "zero-request drains hold");
        assert!(c.fits(3, 0) && !c.fits(4, 0));
    }

    #[test]
    fn hysteresis_band_holds_the_threshold_still() {
        let mut c = BatchController::new(BatchPolicy::adaptive(64));
        // Push to a mid operating point.
        while c.effective_max_batch() < 16 {
            c.begin_drain(16);
        }
        let t = c.effective_max_batch();
        // Depth oscillating inside [t/4, t) must not move the threshold.
        for depth in [t / 4, t - 1, t / 2, t / 4 + 1, t - 1] {
            c.begin_drain(depth);
            assert_eq!(c.effective_max_batch(), t, "thrash at depth {depth}");
        }
    }

    #[test]
    fn elevated_latency_blocks_narrowing() {
        let mut c = BatchController::new(BatchPolicy::adaptive(64));
        while c.effective_max_batch() < 64 {
            c.begin_drain(64);
        }
        // Establish a light-load floor, then drive latency well above
        // it: 10 ms apart, so the floor's 5 %/s creep stays negligible
        // over the elevated window (~0.32 s).
        let mut now = 0;
        for _ in 0..32 {
            now += 10_000;
            c.record_commit_latency(10_000, now);
        }
        for _ in 0..32 {
            now += 10_000;
            c.record_commit_latency(100_000, now);
        }
        let before = c.effective_max_batch();
        for _ in 0..8 {
            c.begin_drain(1);
        }
        assert_eq!(
            c.effective_max_batch(),
            before,
            "a shallow inbox with backed-up commits must not shrink batches"
        );
        // Once latency returns to the floor, narrowing resumes.
        for _ in 0..64 {
            now += 10_000;
            c.record_commit_latency(10_000, now);
        }
        for _ in 0..32 {
            c.begin_drain(1);
        }
        assert_eq!(c.effective_max_batch(), 4, "trickle floor once quiescent");
    }

    #[test]
    fn floor_creep_is_time_based_not_per_sample() {
        // A node committing 10k samples/s at elevated latency must NOT
        // erode the floor: 2 000 samples spaced 100 µs span only 0.2 s,
        // so the gate stays closed and the threshold holds.
        let mut c = BatchController::new(BatchPolicy::adaptive(64));
        while c.effective_max_batch() < 64 {
            c.begin_drain(64);
        }
        let mut now = 0;
        for _ in 0..32 {
            now += 10_000;
            c.record_commit_latency(10_000, now);
        }
        for _ in 0..2_000 {
            now += 100;
            c.record_commit_latency(100_000, now);
        }
        let before = c.effective_max_batch();
        for _ in 0..8 {
            c.begin_drain(1);
        }
        assert_eq!(
            c.effective_max_batch(),
            before,
            "a sample flood must not open the narrowing gate"
        );
        // The same elevation sustained for ~80 s of sample time is a new
        // baseline: the floor re-learns and narrowing resumes.
        for _ in 0..80 {
            now += 1_000_000;
            c.record_commit_latency(100_000, now);
        }
        for _ in 0..32 {
            c.begin_drain(1);
        }
        assert_eq!(
            c.effective_max_batch(),
            4,
            "a persistent latency shift must re-learn the floor"
        );
    }

    #[test]
    fn idle_gap_does_not_erase_the_floor() {
        // A long commit-free stretch must not apply its whole duration
        // of creep at once: the first burst after the gap may arrive
        // with the pipeline backed up, and the gate must still hold.
        let mut c = BatchController::new(BatchPolicy::adaptive(64));
        while c.effective_max_batch() < 64 {
            c.begin_drain(64);
        }
        let mut now = 0;
        for _ in 0..32 {
            now += 10_000;
            c.record_commit_latency(10_000, now);
        }
        now += 600_000_000; // 10 minutes without a local commit
        for _ in 0..32 {
            now += 10_000;
            c.record_commit_latency(100_000, now);
        }
        let before = c.effective_max_batch();
        for _ in 0..8 {
            c.begin_drain(1);
        }
        assert_eq!(
            c.effective_max_batch(),
            before,
            "an idle gap must not open the narrowing gate"
        );
    }

    #[test]
    fn adaptive_fits_respects_byte_budget() {
        let mut c = BatchController::new(BatchPolicy::adaptive(64).with_max_bytes(1024));
        for _ in 0..8 {
            c.begin_drain(64);
        }
        assert!(c.fits(3, 100));
        assert!(!c.fits(3, 1024), "byte budget still flushes");
    }

    #[test]
    fn large_payload_load_grows_the_byte_budget() {
        // 64 KiB cap over a 64-command ceiling: the budget starts at one
        // threshold's worth (1 KiB) and must widen with sustained load.
        let mut c = BatchController::new(BatchPolicy::adaptive(64).with_max_bytes(64 * 1024));
        assert_eq!(
            c.effective_max_bytes(),
            1024,
            "starts at max_bytes/max_batch"
        );
        assert!(
            !c.fits(1, 1024),
            "a kilobyte batch flushes under the starting budget"
        );
        // Sustained pressure (a backlog of large-payload requests) widens
        // the byte budget in lockstep with the count threshold, up to the
        // policy cap.
        for _ in 0..12 {
            c.begin_drain(64);
        }
        assert_eq!(c.effective_max_batch(), 64);
        assert_eq!(c.effective_max_bytes(), 64 * 1024, "budget reaches the cap");
        assert!(c.fits(4, 32 * 1024), "large batches now amortize");
        assert!(!c.fits(4, 64 * 1024), "the policy cap stays a hard bound");
        // Load subsiding narrows the budget back toward its floor.
        for _ in 0..64 {
            c.begin_drain(1);
        }
        assert!(
            c.effective_max_bytes() <= 4 * 1024,
            "trickle load decays the budget ({} B)",
            c.effective_max_bytes()
        );
        // A policy with no byte budget never adapts one into existence.
        let mut open = BatchController::new(BatchPolicy::adaptive(64));
        assert_eq!(open.effective_max_bytes(), usize::MAX);
        open.begin_drain(64);
        assert_eq!(open.effective_max_bytes(), usize::MAX);
        assert!(open.fits(1, usize::MAX - 1));
    }

    #[test]
    fn byte_budget_flushes_before_the_count_cap() {
        // Kilobyte payloads against a 2 KiB budget: the third command
        // must start a new batch even though max_batch is far away.
        let p = BatchPolicy::max(64).with_max_bytes(2 * 1024);
        assert!(p.fits(0, 0), "first command always admitted");
        assert!(p.fits(1, 1024));
        assert!(!p.fits(2, 2 * 1024), "budget reached: flush");
        // A single oversized command still rides alone in its own batch.
        assert!(p.fits(0, 0));
        assert!(!p.fits(1, 8 * 1024));
        // Count cap still applies when payloads are tiny.
        assert!(!p.fits(64, 64));
    }
}
