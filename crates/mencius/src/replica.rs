//! The Mencius-bcast replica state machine.
//!
//! The data plane is fully batched: a coordinator proposes a whole client
//! [`Batch`] across its next own slots with one `PROPOSE`, and replicas
//! answer with one cumulative `ACCEPTACK` watermark per batch instead of
//! one ack per slot. Per-slot ack counters collapse into a small
//! per-(acker, owner) watermark matrix.

use std::collections::{BTreeMap, HashMap};

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{
    Checkpoint, CheckpointPolicy, Checkpointer, StateTransferReply, StateTransferRequest,
};
use rsm_core::command::{Command, Committed, Reply};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::ReplicaId;
use rsm_core::obs::{names, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::{ReadPath, ReadProbes, ReadQueue, ReadReply, MAX_READ_PROBES};
use rsm_core::session::SessionTable;
use rsm_core::time::Micros;

use crate::msg::MenciusMsg;

/// Timer token for the queued-probe-read escape flush (the crate uses no
/// other timers).
pub(crate) const TOKEN_PROBE_FLUSH: TimerToken = TimerToken(1);
/// How long queued reads wait behind in-flight probes before getting
/// their own probe anyway. Probes are fire-once (no retransmit), so
/// without this bound a probe whose marks were lost would strand every
/// read queued behind it.
pub(crate) const PROBE_FLUSH_US: Micros = 5_000;
/// Reads queue behind in-flight probes only past this concurrency cap.
/// Below it, each read probes immediately — queuing a lone read behind a
/// wide-area probe RTT just trades latency for nothing — while a burst
/// that would otherwise fan out one broadcast per read coalesces onto
/// the next flush.
pub(crate) const MAX_INFLIGHT_PROBES: usize = 4;

/// Stable log record of Mencius-bcast.
#[derive(Debug, Clone)]
pub enum MenciusLogRec {
    /// A logged (accepted) proposal for a slot.
    Accept {
        /// Slot number.
        slot: u64,
        /// The command.
        cmd: Command,
        /// Originating replica (the slot owner).
        origin: ReplicaId,
    },
    /// A commit mark: the slot's command was executed.
    Commit {
        /// Slot number.
        slot: u64,
    },
    /// A skip mark: the slot resolved to a no-op.
    Skip {
        /// Slot number.
        slot: u64,
    },
    /// A durable record of a [`MenciusMsg::GapFill`] confirmation: the
    /// owner vouched that every proposal it ever made at own slots in
    /// `[from_slot, below)` is in our log (the fill's `Accept` records
    /// precede this one). Persisting the range keeps absence proofs —
    /// and the cumulative acks built on them — valid across our own
    /// crashes, since an empty confirmed slot leaves no other trace in
    /// the log.
    GapConfirm {
        /// The confirming owner.
        owner: ReplicaId,
        /// First confirmed slot (inclusive).
        from_slot: u64,
        /// End of the confirmed range (exclusive).
        below: u64,
    },
    /// A state machine checkpoint (shared subsystem,
    /// `rsm_core::checkpoint`): the snapshot reflects every slot
    /// **below** the (exclusive) applied watermark. `history_floor`
    /// persists the own-proposal retention floor, so a recovered replica
    /// never confirms emptiness of a slot whose proposal a compaction
    /// dropped from the log.
    Checkpoint {
        /// The checkpoint (slot watermark, epoch/config, snapshot).
        cp: Checkpoint<u64>,
        /// The own-history retention floor at checkpoint time.
        history_floor: u64,
    },
}

/// Default cap on retained own proposals for gap retransmission (see
/// `MenciusBcast::own_history`): beyond this the oldest entries are
/// dropped and the retention floor advances, so a peer that stayed down
/// long enough to need them cannot be given a wrong emptiness
/// confirmation — it fetches a checkpoint from a peer instead
/// ([`MenciusMsg::StateRequest`]). Override per replica with
/// [`MenciusBcast::with_history_cap`].
pub const MAX_OWN_HISTORY: usize = 4096;

/// How long an unanswered [`MenciusMsg::StateRequest`] stays deduplicated
/// before it may be re-sent (same rationale as [`GAP_RETRY_US`]).
const TRANSFER_RETRY_US: Micros = 500_000;

/// How long an unanswered [`MenciusMsg::GapRequest`] stays deduplicated
/// before it may be re-sent. Comfortably above a WAN round trip, so a
/// request/fill exchange in flight is never duplicated by the owner's
/// ongoing traffic, while a request lost to the owner's downtime is
/// retried promptly once traffic gives `try_execute` another pass.
const GAP_RETRY_US: Micros = 500_000;

/// A Mencius replica with the broadcast-acknowledgement optimization.
///
/// Slot `s` is owned by replica `s mod N`; replicas propose only in their
/// own slots and *skip* (promise never to use) their unused slots below any
/// slot they acknowledge. See the crate docs for the protocol sketch and
/// latency behaviour.
#[derive(Debug)]
pub struct MenciusBcast {
    id: ReplicaId,
    membership: Membership,
    n: u64,
    /// The smallest own slot this replica may still propose in.
    next_own_slot: u64,
    /// Per-replica skip promise: replica `k` will never issue a *new*
    /// proposal in a `k`-owned slot below `floor[k]`.
    floor: Vec<u64>,
    /// Pending proposals by slot.
    slots: BTreeMap<u64, (Command, ReplicaId)>,
    /// Cumulative acknowledgement watermarks: `acked_below[k][o]` means
    /// replica `k` has logged **every** slot owned by `o` below that
    /// value. Slot `c` (owner `o`) is acknowledged by `k` iff
    /// `acked_below[k][o] > c`. One cumulative ack per batch replaces
    /// per-slot counters.
    acked_below: Vec<Vec<u64>>,
    /// Whether this replica has received every proposal owner `o` ever
    /// made (true while continuously up: owners propose their slots in
    /// increasing order over FIFO channels, so nothing can be missed).
    /// Cleared for the other owners by a crash — proposals in flight to
    /// a down replica are lost — after which this replica stops issuing
    /// cumulative acks for them: it can no longer bound what it missed.
    /// Own proposals are logged synchronously, so the own entry is
    /// always true. Restored per owner once every own slot of theirs
    /// below the first post-recovery receipt is accounted for — held in
    /// the slot table, already resolved, or confirmed absent by a
    /// `GapFill` — since FIFO receipt bounds everything at and above
    /// that first receipt (see `resync_floor`).
    recv_synced: Vec<bool>,
    /// First slot received from each owner after a desync: the only
    /// proposals a crash can have cost us sit **below** it (FIFO — the
    /// owner proposes its slots in increasing order, and nothing sent
    /// after our recovery is lost). Once every one of the owner's slots
    /// in `[exec_cursor, floor)` is held, resolved, or covered by
    /// `gap_trust`, cumulative acks for the owner are truthful again.
    /// Crucially this needs no execution progress, so a recovered
    /// replica re-arms its quorum duty even while the cluster is
    /// blocked waiting for exactly that ack — execution-gated resync
    /// deadlocks when two replicas desync in overlapping windows.
    resync_floor: Vec<Option<u64>>,
    /// Own proposals retained for gap retransmission: a peer that was
    /// down while a proposal was in flight can no longer tell a skipped
    /// own slot from a lost one and asks the owner ([`MenciusMsg::GapRequest`]).
    /// Entries are pruned once every replica's cumulative watermark over
    /// our slots covers them (a crashed peer's watermark freezes, so
    /// anything it may still ask about stays retained), and capped at
    /// [`MAX_OWN_HISTORY`] entries so a permanently dead peer cannot
    /// grow memory without bound.
    own_history: BTreeMap<u64, Command>,
    /// Smallest own slot still answerable from `own_history`: advanced by
    /// watermark pruning and by the [`MAX_OWN_HISTORY`] cap. A `GapFill`
    /// never confirms emptiness below it — a peer that stayed down long
    /// enough to need capped-out history stalls instead of being handed
    /// a wrong "permanently empty" answer (safety over liveness).
    history_floor: u64,
    /// Ranges `[from, below)` the owner confirmed via
    /// [`MenciusMsg::GapFill`]: we hold every proposal it ever made at
    /// own slots inside them, so absence there proves a skip even while
    /// `recv_synced[o]` is false. Cleared on resync (no longer needed).
    gap_trust: Vec<Vec<(u64, u64)>>,
    /// Rate limiter: the hole (`from_slot`) last queried per owner and
    /// when; cleared when the fill arrives, and expired after
    /// [`GAP_RETRY_US`] so a request or fill lost to the owner's
    /// downtime is eventually re-sent.
    gap_requested: Vec<Option<(u64, Micros)>>,
    /// Highest retention floor each owner has echoed in a [`MenciusMsg::GapFill`]:
    /// the owner's cap has dropped its proposals below this, so gap
    /// requests starting under it can never be answered and are not
    /// re-sent — the hole resolves through checkpoint transfer instead
    /// ([`MenciusMsg::StateRequest`]).
    gap_unanswerable: Vec<u64>,
    /// Next slot to execute or skip; all smaller slots are resolved.
    exec_cursor: u64,
    /// Cap on `own_history` (defaults to [`MAX_OWN_HISTORY`]).
    history_cap: usize,
    /// Shared checkpoint scheduler (`rsm_core::checkpoint`).
    checkpointer: Checkpointer,
    /// When the last [`MenciusMsg::StateRequest`] left (rate limiter).
    last_transfer_req: Option<Micros>,
    /// Rotation cursor over the peers for state transfer requests: one
    /// peer is asked per round (a snapshot is large; asking everyone
    /// would make every peer serialize and ship one while the requester
    /// installs exactly one), and an unhelpful or dead peer just means
    /// the next retry asks the next one.
    transfer_target: usize,

    // ------ local reads (`rsm_core::read`) ------
    /// Reads parked on a slot mark — the fold of the per-owner bounds a
    /// majority probe established — served once `exec_cursor` passes it.
    read_queue: ReadQueue<u64>,
    /// Quorum-read probes awaiting a majority of marks.
    read_probes: ReadProbes,
    /// Per-owner mark state for each in-flight probe, keyed by probe
    /// seq (the shared [`ReadProbes`] tracks only the folded scalar).
    probe_marks: HashMap<u64, ProbeMarks>,
    /// Reads that arrived while a probe was in flight: they ride the
    /// next probe (launched when the current one completes, or when the
    /// [`TOKEN_PROBE_FLUSH`] escape timer fires) instead of paying one
    /// probe broadcast each.
    queued_probe_reads: Vec<Command>,
    /// Whether the escape-flush timer is armed.
    probe_flush_armed: bool,

    // ------ client sessions (`rsm_core::session`) ------
    /// Per-client dedup window, consulted at execution time beside the
    /// read-probe bookkeeping: a retried command whose seq was already
    /// applied is answered from the cached reply instead of re-applied.
    sessions: SessionTable,
}

/// The requester-side per-owner bounds accumulated for one read probe.
///
/// Soundness of the two kinds of entry (see [`MenciusMsg::ReadMark`]):
/// an owner's answer about its **own** slot space is its execution
/// cursor, which covers every own write it completed before answering —
/// tight, because it excludes the owner's in-flight proposals. For an
/// owner that never answers, the element-wise maximum of the responders'
/// logged-top bounds covers its completed writes by quorum intersection
/// (committed ⇒ logged by a majority ⇒ logged by some responder).
#[derive(Debug)]
struct ProbeMarks {
    /// Owner `o`'s bound for its own slots, when `o` answered the probe
    /// (seeded for self at probe start).
    own: Vec<Option<u64>>,
    /// Element-wise maximum over every answer's mark vector (seeded with
    /// the requester's own vector): the fallback bound for owners that
    /// never answered.
    all: Vec<u64>,
}

impl MenciusBcast {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the membership spec.
    pub fn new(id: ReplicaId, membership: Membership) -> Self {
        assert!(membership.in_spec(id), "replica {id} not in spec");
        let n = membership.spec().len() as u64;
        let floor = (0..n).collect();
        MenciusBcast {
            id,
            n,
            next_own_slot: id.index() as u64,
            floor,
            slots: BTreeMap::new(),
            acked_below: vec![vec![0; n as usize]; n as usize],
            recv_synced: vec![true; n as usize],
            resync_floor: vec![None; n as usize],
            own_history: BTreeMap::new(),
            history_floor: 0,
            gap_trust: vec![Vec::new(); n as usize],
            gap_requested: vec![None; n as usize],
            gap_unanswerable: vec![0; n as usize],
            exec_cursor: 0,
            history_cap: MAX_OWN_HISTORY,
            checkpointer: Checkpointer::new(CheckpointPolicy::DISABLED),
            last_transfer_req: None,
            transfer_target: 0,
            read_queue: ReadQueue::new(),
            read_probes: ReadProbes::new(),
            probe_marks: HashMap::new(),
            queued_probe_reads: Vec::new(),
            probe_flush_armed: false,
            sessions: SessionTable::default(),
            membership,
        }
    }

    /// Enables periodic checkpoints (and, per the policy, log compaction)
    /// for this replica.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpointer = Checkpointer::new(policy);
        self
    }

    /// Overrides the client-session dedup window bound (defaults to
    /// [`rsm_core::session::DEFAULT_SESSION_WINDOW`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_session_window(mut self, n: usize) -> Self {
        self.sessions = SessionTable::new(n);
        self
    }

    /// Sets the session-table chaos-canary knob (**test-only**): when on,
    /// duplicate writes re-apply instead of deduplicating — the bug the
    /// chaos fuzzer proves it can find and shrink.
    pub fn with_session_canary(mut self, on: bool) -> Self {
        self.sessions.set_canary_skip_dedup(on);
        self
    }

    /// Overrides the own-proposal retention cap (tests and memory-tight
    /// deployments; defaults to [`MAX_OWN_HISTORY`]).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_history_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "history cap must be positive");
        self.history_cap = cap;
        self
    }

    /// The owner (round-robin coordinator) of `slot`.
    pub fn owner_of_slot(&self, slot: u64) -> ReplicaId {
        ReplicaId::new((slot % self.n) as u16)
    }

    /// Number of slots resolved (executed or skipped) so far.
    pub fn resolved(&self) -> u64 {
        self.exec_cursor
    }

    fn majority(&self) -> usize {
        self.membership.majority()
    }

    /// The smallest slot owned by this replica that is strictly greater
    /// than `s`.
    fn own_slot_after(&self, s: u64) -> u64 {
        let me = self.id.index() as u64;
        let base = (s + 1).max(me);
        // Round base up to ≡ me (mod n).
        let rem = (base + self.n - me % self.n) % self.n;
        let candidate = if rem == 0 { base } else { base + self.n - rem };
        debug_assert!(candidate % self.n == me && candidate > s);
        candidate
    }

    fn broadcast(&self, msg: MenciusMsg, ctx: &mut dyn Context<Self>) {
        for r in self.membership.config().to_vec() {
            ctx.send(r, msg.clone());
        }
    }

    /// Handles a batch proposal filling the owner's consecutive own slots
    /// `first_slot, first_slot + n, …`; acknowledges the whole run with
    /// one cumulative ack.
    fn on_propose(
        &mut self,
        first_slot: u64,
        cmds: Batch,
        origin: ReplicaId,
        ctx: &mut dyn Context<Self>,
    ) {
        let k = cmds.len() as u64;
        let last_slot = first_slot + (k - 1) * self.n;
        // Iterate by reference: the batch's storage is typically still
        // shared with the owner's other in-flight broadcast copies, so
        // consuming it would deep-clone the whole command vector just to
        // move commands we clone anyway (Command clones are cheap).
        for (i, cmd) in cmds.iter().enumerate() {
            let slot = first_slot + i as u64 * self.n;
            if slot < self.exec_cursor {
                continue; // stale
            }
            ctx.log_append(MenciusLogRec::Accept {
                slot,
                cmd: cmd.clone(),
                origin,
            });
            if origin == self.id {
                self.own_history.insert(slot, cmd.clone());
                self.cap_own_history();
            }
            self.slots.insert(slot, (cmd.clone(), origin));
        }
        // The owner will not propose below its next own slot again.
        let owner = self.owner_of_slot(first_slot);
        self.floor[owner.index()] = self.floor[owner.index()].max(last_slot + self.n);
        // Acknowledging the run implicitly skips our own unused slots
        // below its last slot.
        if self.next_own_slot <= last_slot {
            self.next_own_slot = self.own_slot_after(last_slot);
        }
        self.floor[self.id.index()] = self.floor[self.id.index()].max(self.next_own_slot);
        // The cumulative watermark is only truthful while we provably
        // received every proposal this owner ever made (FIFO + up the
        // whole time). After a crash we may have missed some, so vouch
        // for our own slots instead — trivially complete in our log —
        // which still carries the skip promise everyone needs for
        // liveness of the gap slots. Coverage becomes truthful again
        // once the window a crash can have punctured — the owner's
        // slots between our cursor and our first post-recovery receipt
        // — is fully accounted for (held, resolved, or confirmed empty
        // by a gap fill); anything missing is fetched from the owner
        // right here, so resync never waits on execution progress.
        let oi = owner.index();
        if !self.recv_synced[oi] {
            if self.resync_floor[oi].is_none() {
                // First post-recovery receipt from this owner: the
                // resync round for its slot space starts here.
                self.resync_floor[oi] = Some(first_slot);
                ctx.obs_count(names::RESYNCS, 1);
            }
            let f = self.resync_floor[oi].expect("just initialized");
            match self.resync_coverage_hole(oi, f) {
                None => self.restore_recv_sync(oi),
                Some(hole) => self.request_gap_fill(hole, owner, ctx),
            }
        }
        let up_to_slot = if self.recv_synced[oi] {
            last_slot
        } else {
            self.own_ack_mark()
        };
        self.broadcast(
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below: self.next_own_slot,
            },
            ctx,
        );
        self.try_execute(ctx);
    }

    /// The highest own slot this replica could have proposed — own
    /// proposals are logged synchronously, so claiming cumulative
    /// coverage of them is always sound. Used as the ack watermark when
    /// coverage of another owner cannot be claimed.
    fn own_ack_mark(&self) -> u64 {
        if self.next_own_slot >= self.n {
            self.next_own_slot - self.n
        } else {
            // Never proposed: our first own slot; it holds no command
            // from anyone else, so the claim is vacuous but well-formed.
            self.id.index() as u64
        }
    }

    /// First uncovered own slot of owner `o` in `[exec_cursor, f)`, or
    /// `None` when the whole window is accounted for and cumulative
    /// acks for `o` are truthful again. A slot is covered when its
    /// proposal is in hand (logged in the slot table), it already
    /// resolved (below the cursor), or a `GapFill` confirmed the owner
    /// never proposed there (`gap_trust`). FIFO receipt covers `[f, ∞)`
    /// by construction, so the window is the entire claim.
    fn resync_coverage_hole(&self, o: usize, f: u64) -> Option<u64> {
        let o64 = o as u64;
        let r = self.exec_cursor % self.n;
        // Smallest slot ≥ exec_cursor owned by `o` (slots stripe round
        // robin: owner_of_slot(s) = s mod n).
        let mut s = if r <= o64 {
            self.exec_cursor + (o64 - r)
        } else {
            self.exec_cursor + self.n - (r - o64)
        };
        while s < f {
            if !self.slots.contains_key(&s)
                && !self.gap_trust[o].iter().any(|&(a, b)| a <= s && s < b)
            {
                return Some(s);
            }
            s += self.n;
        }
        None
    }

    /// Re-arms cumulative acknowledgements for owner `o` after its
    /// coverage window closed (see [`Self::resync_coverage_hole`]).
    fn restore_recv_sync(&mut self, o: usize) {
        self.recv_synced[o] = true;
        self.resync_floor[o] = None;
        // The blanket claim subsumes per-range confirmations: a held
        // proposal stays in the slot table until it executes, and an
        // absent covered slot was confirmed empty for good (the range's
        // durable `GapConfirm` record keeps that proof across crashes).
        self.gap_trust[o].clear();
    }

    fn on_accept_ack(
        &mut self,
        from: ReplicaId,
        up_to_slot: u64,
        skip_below: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        self.floor[from.index()] = self.floor[from.index()].max(skip_below);
        let owner = self.owner_of_slot(up_to_slot).index();
        let below = up_to_slot + 1;
        if self.acked_below[from.index()][owner] < below {
            self.acked_below[from.index()][owner] = below;
        }
        // Prune retained own proposals every replica has now covered:
        // nobody can ask about a slot it already acknowledged (an ack
        // implies the proposal is in the acker's stable log).
        if owner == self.id.index() {
            let min_acked = self
                .membership
                .config()
                .iter()
                .map(|k| self.acked_below[k.index()][owner])
                .min()
                .unwrap_or(0);
            self.own_history = self.own_history.split_off(&min_acked);
            self.history_floor = self.history_floor.max(min_acked);
        }
        self.try_execute(ctx);
    }

    /// Whether slot `c` has been acknowledged by a majority, read off the
    /// cumulative watermark matrix.
    fn majority_acked(&self, c: u64) -> bool {
        let owner = self.owner_of_slot(c).index();
        let acks = self
            .membership
            .config()
            .iter()
            .filter(|k| self.acked_below[k.index()][owner] > c)
            .count();
        acks >= self.majority()
    }

    /// Resolves slots in order: execute a slot once it has a command and a
    /// majority of acknowledgements; skip it once its owner's promise
    /// covers it; otherwise stop and wait (the delayed-commit behaviour).
    fn try_execute(&mut self, ctx: &mut dyn Context<Self>) {
        loop {
            let c = self.exec_cursor;
            if self.slots.contains_key(&c) {
                if !self.majority_acked(c) {
                    break;
                }
                let (cmd, origin) = self.slots.remove(&c).expect("checked above");
                if ctx.obs_active() && origin == self.id {
                    // Resolution requires the majority ack — the commit
                    // event is the replication event in Mencius. Stamped
                    // from the owner's vantage only: that is where the
                    // round trip gates the client's commit (a peer can
                    // resolve the slot a one-way hop earlier).
                    ctx.trace(cmd.id, TraceStage::Replicated);
                }
                ctx.log_append(MenciusLogRec::Commit { slot: c });
                self.exec_cursor = c + 1;
                let payload_len = cmd.payload.len();
                let applied = self.sessions.commit_dedup(
                    self.id,
                    Committed {
                        cmd,
                        origin,
                        order_hint: c,
                    },
                    ctx,
                );
                if applied {
                    self.checkpointer.note_commit(payload_len);
                }
                continue;
            }
            let owner = self.owner_of_slot(c);
            let o = owner.index();
            if self.floor[o] <= c {
                break; // no skip promise yet: wait for owner activity
            }
            if self.recv_synced[o] || self.gap_trust[o].iter().any(|&(f, b)| f <= c && c < b) {
                // The owner promised never to fill this slot with a NEW
                // proposal, and we provably hold every proposal it ever
                // made here (continuous FIFO receipt, or an explicit
                // GapFill): the slot is a no-op.
                ctx.obs_count(names::GAP_FILLS, 1);
                ctx.log_append(MenciusLogRec::Skip { slot: c });
                self.exec_cursor = c + 1;
            } else if c < self.gap_unanswerable[o] {
                // The owner's retention cap has dropped the range: no
                // gap fill can ever answer. Only a peer's checkpoint —
                // which reflects however the cluster resolved the slot —
                // can cover the hole (this closes the permanent stall a
                // long outage used to cause).
                self.request_state_transfer(ctx);
                break;
            } else {
                // Post-crash hole: the floor rules out new proposals, but
                // one may have been in flight and lost while we were
                // down — skipping could omit a globally committed
                // command. Ask the owner to retransmit the range.
                self.request_gap_fill(c, owner, ctx);
                break;
            }
        }
        self.maybe_checkpoint(ctx);
        // The resolution cursor may have passed parked read marks.
        self.release_reads(ctx);
    }

    // ------------------------------------------------------------------
    // Local reads (`rsm_core::read`): per-owner watermarks
    // ------------------------------------------------------------------
    //
    // Mencius has no leader to lease, so every read takes the clock-free
    // quorum path: probe the replicas for their read marks, park the
    // read, and serve it once the local resolution cursor passes the
    // park point. What makes the Mencius path fast is *which* marks the
    // answers carry. A scalar logged-top mark (what Paxos followers use)
    // forces the read to wait out every slot any responder has ever
    // logged — including the responders' own **in-flight** proposals,
    // which commit a full WAN round later. That made the read-mix p50
    // identical to the write p50.
    //
    // Per-owner marks break that tie. Each answer carries one bound per
    // owner ([`MenciusMsg::ReadMark`]):
    //
    // * the responder's bound for its **own** slot space is its
    //   execution cursor — an owner replies to its client only after
    //   executing the write, so every *completed* own write is strictly
    //   below it, while its in-flight proposals (logged, uncommitted,
    //   not yet visible to any client) are above it and stop gating the
    //   read;
    // * its bound for every **other** owner is the logged-top fallback,
    //   needed only for owners that never answer: a completed write of
    //   such an owner was logged by a majority, which intersects the
    //   responders, so the element-wise maximum covers it.
    //
    // The fold back to the scalar `ReadQueue` coordinate is exact
    // because execution is total-order by slot: waiting for owner `o`'s
    // slots below bound `p` means waiting for the largest `o`-owned slot
    // below `p`, so the park point is the maximum of those largest
    // slots, plus one ([`park_mark`](Self::park_mark)). Latency is one
    // local quorum round trip plus the resolution of slots below the
    // *completed-write* frontier — not below the in-flight frontier.

    /// This replica's scalar read mark: an exclusive upper bound on
    /// every slot it has ever logged, across all owners (carried in
    /// [`ReadReply::mark`] as the conservative fallback).
    fn local_read_mark(&self) -> u64 {
        self.slots
            .keys()
            .next_back()
            .map_or(self.exec_cursor, |&top| top + 1)
            .max(self.exec_cursor)
    }

    /// This replica's per-owner mark vector: entry `o` bounds the slots
    /// of owner `o` a completed write could occupy — the execution
    /// cursor for our own slot space (in-flight own proposals excluded),
    /// raised past every *other* owner's slot in the pending table.
    fn owner_marks(&self) -> Vec<u64> {
        let mut marks = vec![self.exec_cursor; self.n as usize];
        for &slot in self.slots.keys() {
            let o = (slot % self.n) as usize;
            if o != self.id.index() {
                marks[o] = marks[o].max(slot + 1);
            }
        }
        marks
    }

    /// Starts a quorum-read probe carrying `cmds`.
    fn start_read_probe(&mut self, cmds: Vec<Command>, ctx: &mut dyn Context<Self>) {
        let req = self.read_probes.begin(self.local_read_mark(), cmds);
        let mut marks = ProbeMarks {
            own: vec![None; self.n as usize],
            all: self.owner_marks(),
        };
        marks.own[self.id.index()] = Some(self.exec_cursor);
        self.probe_marks.insert(req.seq, marks);
        // `ReadProbes` silently evicts the oldest probe past its cap;
        // seqs are dense, so everything at or below seq - cap is dead.
        if self.probe_marks.len() > MAX_READ_PROBES {
            let floor = req.seq.saturating_sub(MAX_READ_PROBES as u64);
            self.probe_marks.retain(|&s, _| s > floor);
        }
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(r, MenciusMsg::ReadProbe(req));
            }
        }
        // A single-replica configuration is its own majority.
        self.complete_ready_probes(ctx);
    }

    /// Answers a peer's probe with our read marks.
    fn on_read_probe(&mut self, from: ReplicaId, seq: u64, ctx: &mut dyn Context<Self>) {
        let mark = self.local_read_mark();
        ctx.send(
            from,
            MenciusMsg::ReadMark {
                reply: ReadReply { seq, mark },
                owner_marks: self.owner_marks(),
            },
        );
    }

    /// Collects a probe answer; on a majority, parks the probe's reads
    /// at the fold of the accumulated per-owner bounds.
    fn on_read_mark(
        &mut self,
        from: ReplicaId,
        reply: ReadReply,
        owner_marks: Vec<u64>,
        ctx: &mut dyn Context<Self>,
    ) {
        if let Some(marks) = self.probe_marks.get_mut(&reply.seq) {
            if owner_marks.len() == self.n as usize {
                for (a, &m) in marks.all.iter_mut().zip(&owner_marks) {
                    *a = (*a).max(m);
                }
                let fi = from.index();
                marks.own[fi] = Some(marks.own[fi].unwrap_or(0).max(owner_marks[fi]));
            } else {
                // Malformed vector (wrong configuration size): fold the
                // scalar mark into every entry — it bounds every owner's
                // logged slots at the responder, so the quorum-
                // intersection fallback stays sound.
                for a in marks.all.iter_mut() {
                    *a = (*a).max(reply.mark);
                }
            }
        }
        self.read_probes.on_reply(from, reply);
        self.complete_ready_probes(ctx);
    }

    /// Folds a completed probe's per-owner bounds into the single
    /// [`ReadQueue`] coordinate: the smallest cursor position at which
    /// every bound is honored. Owner `o` with (exclusive) bound `p` has
    /// its largest constrained slot at `p - 1 - ((p - 1 - o) mod n)`
    /// when `p > o`, and none otherwise; execution is total-order by
    /// slot, so waiting for the maximum of those slots waits for all.
    fn park_mark(&self, marks: &ProbeMarks) -> u64 {
        let mut needed = 0u64;
        for o in 0..self.n {
            let p = marks.own[o as usize].unwrap_or(marks.all[o as usize]);
            if p > o {
                let last = p - 1 - ((p - 1 - o) % self.n);
                needed = needed.max(last + 1);
            }
        }
        needed
    }

    /// Moves every probe that reached a majority (self plus responders)
    /// into the read queue and releases whatever is already resolvable.
    fn complete_ready_probes(&mut self, ctx: &mut dyn Context<Self>) {
        let ready = self.read_probes.take_ready(self.majority());
        if ready.is_empty() {
            return;
        }
        for (seq, scalar_mark, cmds) in ready {
            let mark = match self.probe_marks.remove(&seq) {
                Some(marks) => self.park_mark(&marks),
                // Side state evicted (probe-cap overflow): the folded
                // scalar is the conservative all-owners bound.
                None => scalar_mark,
            };
            for cmd in cmds {
                self.read_queue.park(mark, cmd);
            }
        }
        self.release_reads(ctx);
        self.flush_queued_probe_reads(ctx);
    }

    /// Launches one probe carrying every read queued behind the probe
    /// that just completed (or timed out).
    fn flush_queued_probe_reads(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.queued_probe_reads.is_empty() {
            let cmds = std::mem::take(&mut self.queued_probe_reads);
            self.start_read_probe(cmds, ctx);
        }
    }

    /// Serves every parked read whose mark the resolution cursor has
    /// passed.
    fn release_reads(&mut self, ctx: &mut dyn Context<Self>) {
        if self.read_queue.is_empty() {
            return;
        }
        for cmd in self.read_queue.release(self.exec_cursor) {
            match ctx.sm_read(&cmd) {
                Some(result) => ctx.send_reply(Reply::new(cmd.id, result)),
                // Driver cannot serve reads (or the command is not
                // actually read-only): replicate it like a write.
                None => self.on_client_batch(Batch::single(cmd), ctx),
            }
        }
    }

    /// Number of reads parked or riding probes (test observability).
    pub fn pending_reads(&self) -> usize {
        self.read_queue.len() + self.read_probes.pending() + self.queued_probe_reads.len()
    }

    /// Writes a checkpoint when one is due and the driver supports
    /// snapshots; with compaction, rewrites the log to the checkpoint,
    /// the own proposals still retained for gap retransmission, and the
    /// unresolved slots above the watermark.
    fn maybe_checkpoint(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.checkpointer.due() {
            return;
        }
        let Some(snapshot) = ctx.sm_snapshot() else {
            return; // driver without snapshot support: replay-only recovery
        };
        self.checkpointer.taken();
        let cp = Checkpoint {
            applied: self.exec_cursor,
            epoch: Epoch::ZERO,
            config: self.membership.config().to_vec(),
            snapshot,
            sessions: self.sessions.export(),
        };
        if self.checkpointer.policy().compact {
            self.compact_log(cp, ctx);
        } else {
            ctx.log_append(MenciusLogRec::Checkpoint {
                cp,
                history_floor: self.history_floor,
            });
        }
    }

    /// Rewrites the stable log to `cp` plus the records still live above
    /// (or retained below) its watermark: own proposals kept for gap
    /// retransmission — peers whose crash lost them in flight may still
    /// ask — and the unresolved slots. The persisted `history_floor`
    /// keeps emptiness confirmations sound across the truncation.
    fn compact_log(&self, cp: Checkpoint<u64>, ctx: &mut dyn Context<Self>) {
        let cursor = cp.applied;
        let mut recs = Vec::with_capacity(1 + self.own_history.len() + self.slots.len());
        recs.push(MenciusLogRec::Checkpoint {
            cp,
            history_floor: self.history_floor,
        });
        // Own proposals below the cursor (those at or above it are in
        // `slots` and re-emitted there).
        for (&slot, cmd) in self.own_history.range(..cursor) {
            recs.push(MenciusLogRec::Accept {
                slot,
                cmd: cmd.clone(),
                origin: self.id,
            });
        }
        for (&slot, (cmd, origin)) in &self.slots {
            recs.push(MenciusLogRec::Accept {
                slot,
                cmd: cmd.clone(),
                origin: *origin,
            });
        }
        ctx.log_rewrite(recs);
    }

    /// Asks the peers for a checkpoint covering our resolved prefix; see
    /// `rsm_core::checkpoint` for the transfer invariants. Unlike the
    /// Paxos trigger, no confirmation window is needed: the caller has a
    /// clamped [`MenciusMsg::GapFill`] in hand proving the hole can
    /// never resolve through retransmission.
    fn request_state_transfer(&mut self, ctx: &mut dyn Context<Self>) {
        let now = ctx.clock();
        if let Some(at) = self.last_transfer_req {
            if now.saturating_sub(at) < TRANSFER_RETRY_US {
                return; // an exchange is (presumed) in flight
            }
        }
        self.last_transfer_req = Some(now);
        if let Some(to) = self.next_transfer_target() {
            ctx.send(
                to,
                MenciusMsg::StateRequest(StateTransferRequest {
                    have: self.exec_cursor,
                }),
            );
        }
    }

    /// The next peer to ask for a checkpoint (round-robin over the
    /// configuration, skipping self).
    fn next_transfer_target(&mut self) -> Option<ReplicaId> {
        let config = self.membership.config();
        for _ in 0..config.len() {
            let candidate = config[self.transfer_target % config.len()];
            self.transfer_target = (self.transfer_target + 1) % config.len();
            if candidate != self.id {
                return Some(candidate);
            }
        }
        None // single-replica configuration: no peer to ask
    }

    /// Serves a state transfer request with a fresh snapshot of our
    /// resolved prefix.
    fn on_state_request(&mut self, from: ReplicaId, have: u64, ctx: &mut dyn Context<Self>) {
        if self.exec_cursor <= have {
            return; // nothing the requester does not already have
        }
        let Some(snapshot) = ctx.sm_snapshot() else {
            return; // cannot snapshot: let a peer that can answer
        };
        ctx.send(
            from,
            MenciusMsg::StateReply(StateTransferReply {
                checkpoint: Checkpoint {
                    applied: self.exec_cursor,
                    epoch: Epoch::ZERO,
                    config: self.membership.config().to_vec(),
                    snapshot,
                    sessions: self.sessions.export(),
                },
            }),
        );
    }

    /// Installs a transferred checkpoint: every slot below its watermark
    /// resolved at the sender exactly as the cluster decided (commit or
    /// skip), so the state machine jumps there and resolution resumes
    /// from the watermark. Our own slots below it were all either
    /// proposed by us or covered by a skip promise we made, so
    /// `next_own_slot` already clears them — the `max` is a defensive
    /// restatement of that invariant.
    fn on_state_reply(&mut self, cp: Checkpoint<u64>, ctx: &mut dyn Context<Self>) {
        if cp.applied <= self.exec_cursor {
            return; // stale or duplicate reply
        }
        if !ctx.sm_install(cp.snapshot.clone()) {
            return; // driver cannot install snapshots
        }
        let _ = self.sessions.install(&cp.sessions);
        self.last_transfer_req = None;
        self.slots = self.slots.split_off(&cp.applied);
        self.exec_cursor = cp.applied;
        self.next_own_slot = self.next_own_slot.max(self.own_slot_after(cp.applied - 1));
        self.floor[self.id.index()] = self.floor[self.id.index()].max(self.next_own_slot);
        // Gap bookkeeping below the watermark is obsolete.
        for g in self.gap_requested.iter_mut() {
            if matches!(g, Some((f, _)) if *f < cp.applied) {
                *g = None;
            }
        }
        if self.checkpointer.policy().compact {
            self.compact_log(cp, ctx);
        } else {
            ctx.log_append(MenciusLogRec::Checkpoint {
                cp,
                history_floor: self.history_floor,
            });
        }
        self.try_execute(ctx);
    }

    /// Enforces the history cap: drops the oldest retained own proposals
    /// and advances `history_floor` past them, so emptiness is never
    /// confirmed for a slot whose command was dropped.
    fn cap_own_history(&mut self) {
        while self.own_history.len() > self.history_cap {
            let (dropped, _) = self.own_history.pop_first().expect("len checked");
            self.history_floor = self.history_floor.max(dropped + self.n);
        }
    }

    /// Sends one [`MenciusMsg::GapRequest`] for the unresolved range
    /// `[from_slot, floor[owner])`. An identical request stays
    /// deduplicated for [`GAP_RETRY_US`] — long enough that the owner's
    /// ongoing traffic never duplicates an exchange in flight, short
    /// enough that a request or fill lost to the owner's downtime is
    /// retried once traffic gives `try_execute` another pass.
    fn request_gap_fill(&mut self, from_slot: u64, owner: ReplicaId, ctx: &mut dyn Context<Self>) {
        let o = owner.index();
        if from_slot < self.gap_unanswerable[o] {
            return; // the owner's retention cap already said it cannot answer
        }
        let below = self.floor[o];
        let now = ctx.clock();
        // Dedup on the hole alone: the owner's pipelined traffic keeps
        // raising its floor (a different `below` every message), but the
        // in-flight fill for this hole will cover it regardless — a
        // wider range can be requested after that fill, or after the
        // retry window expires.
        if let Some((f, sent_at)) = self.gap_requested[o] {
            if f == from_slot && now.saturating_sub(sent_at) < GAP_RETRY_US {
                return; // request for this hole in flight, not yet timed out
            }
        }
        self.gap_requested[o] = Some((from_slot, now));
        ctx.obs_count(names::GAP_REQUESTS, 1);
        ctx.send(owner, MenciusMsg::GapRequest { from_slot, below });
    }

    /// Owner side of gap retransmission: answer with every retained own
    /// proposal in the range. Slots the requester already acknowledged
    /// are never queried (the ack proves they are in its log), so the
    /// pruned prefix of `own_history` cannot be needed.
    fn on_gap_request(
        &mut self,
        from: ReplicaId,
        from_slot: u64,
        below: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        // The requester's floor for us can never outrun our own promise,
        // but clamp defensively: we must not confirm emptiness of slots
        // we could still propose in, nor of slots the retention cap
        // already dropped (the echoed `from_slot` tells the requester
        // how far back the confirmation actually reaches).
        let below = below.min(self.next_own_slot);
        let from_slot = from_slot.max(self.history_floor);
        // The clamps can invert the range (cap advanced past the
        // requested bound, or a malformed request): answer with an
        // empty fill — the echoed `from_slot` still tells the requester
        // how far back we can answer at all.
        let cmds: Vec<(u64, Command)> = if from_slot < below {
            self.own_history
                .range(from_slot..below)
                .map(|(s, c)| (*s, c.clone()))
                .collect()
        } else {
            Vec::new()
        };
        ctx.send(
            from,
            MenciusMsg::GapFill {
                from_slot,
                below,
                cmds,
            },
        );
    }

    /// Requester side: log and register the retransmitted proposals, then
    /// trust absence across the confirmed range.
    fn on_gap_fill(
        &mut self,
        from: ReplicaId,
        from_slot: u64,
        below: u64,
        cmds: Vec<(u64, Command)>,
        ctx: &mut dyn Context<Self>,
    ) {
        let o = from.index();
        self.gap_requested[o] = None;
        // The echoed start carries the owner's retention floor when it
        // exceeds what we asked for: ranges below it will never be
        // answerable, so remember it and stop re-requesting them.
        self.gap_unanswerable[o] = self.gap_unanswerable[o].max(from_slot);
        for (slot, cmd) in cmds {
            debug_assert_eq!(self.owner_of_slot(slot), from);
            if slot < self.exec_cursor || self.slots.contains_key(&slot) {
                continue;
            }
            ctx.log_append(MenciusLogRec::Accept {
                slot,
                cmd: cmd.clone(),
                origin: from,
            });
            self.slots.insert(slot, (cmd, from));
        }
        // Absence now proves a skip anywhere in `[from_slot, below)` —
        // and only there: an owner that clamped `from_slot` upward
        // (retention cap) has not confirmed the slots below it, so a
        // hole at the cursor stays blocked rather than being skipped
        // over a possibly dropped command. The confirmation is logged:
        // cumulative acks will lean on it, and they must stay truthful
        // across our own crashes (the owner prunes history behind them).
        let covered = self.gap_trust[o]
            .iter()
            .any(|&(f, b)| f <= from_slot && below <= b);
        if from_slot < below && !covered {
            ctx.log_append(MenciusLogRec::GapConfirm {
                owner: from,
                from_slot,
                below,
            });
            self.gap_trust[o].push((from_slot, below));
        }
        // The fill may have closed the owner's desync window. Check
        // here, not just on the owner's next proposal: peers may be
        // blocked waiting for precisely the cumulative ack we have been
        // withholding — and when two replicas desync in overlapping
        // windows, every cursor in the cluster can be stuck on a slot
        // whose majority needs that ack, so no proposal-side resync
        // would ever fire. Announce restored coverage immediately, up
        // to the highest of the owner's slots in hand.
        if !self.recv_synced[o] {
            if let Some(f) = self.resync_floor[o] {
                if self.resync_coverage_hole(o, f).is_none() {
                    self.restore_recv_sync(o);
                    let up_to_slot = self
                        .slots
                        .keys()
                        .rev()
                        .find(|&&s| self.owner_of_slot(s) == from)
                        .copied()
                        .unwrap_or(f)
                        .max(f);
                    self.broadcast(
                        MenciusMsg::AcceptAck {
                            up_to_slot,
                            skip_below: self.next_own_slot,
                        },
                        ctx,
                    );
                }
            }
        }
        self.try_execute(ctx);
    }
}

impl Protocol for MenciusBcast {
    type Msg = MenciusMsg;
    type LogRec = MenciusLogRec;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}

    fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.on_client_batch(Batch::single(cmd), ctx);
    }

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        if self.read_probes.in_flight() >= MAX_INFLIGHT_PROBES {
            // Ride the next probe instead of broadcasting one per read;
            // the escape timer bounds the wait if the in-flight probes'
            // marks were lost.
            self.queued_probe_reads.push(cmd);
            if !self.probe_flush_armed {
                self.probe_flush_armed = true;
                ctx.set_timer(PROBE_FLUSH_US, TOKEN_PROBE_FLUSH);
            }
        } else {
            self.start_read_probe(vec![cmd], ctx);
        }
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::CommitWatermark
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        let first_slot = self.next_own_slot;
        debug_assert_eq!(self.owner_of_slot(first_slot), self.id);
        self.next_own_slot = first_slot + batch.len() as u64 * self.n;
        if ctx.obs_active() {
            for cmd in batch.iter() {
                ctx.trace(cmd.id, TraceStage::Proposed);
            }
        }
        // Send to the peers, then register the proposal locally *before*
        // anything else can advance our own skip floor past it: if a
        // peer's proposal raced ahead of our self-delivery, the skip
        // check could otherwise resolve our own in-flight slots to no-ops
        // while everyone else executes them.
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(
                    r,
                    MenciusMsg::Propose {
                        first_slot,
                        cmds: batch.clone(),
                        origin: self.id,
                    },
                );
            }
        }
        self.on_propose(first_slot, batch, self.id, ctx);
    }

    fn on_message(&mut self, from: ReplicaId, msg: MenciusMsg, ctx: &mut dyn Context<Self>) {
        match msg {
            MenciusMsg::Propose {
                first_slot,
                cmds,
                origin,
            } => self.on_propose(first_slot, cmds, origin, ctx),
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below,
            } => self.on_accept_ack(from, up_to_slot, skip_below, ctx),
            MenciusMsg::GapRequest { from_slot, below } => {
                self.on_gap_request(from, from_slot, below, ctx)
            }
            MenciusMsg::GapFill {
                from_slot,
                below,
                cmds,
            } => self.on_gap_fill(from, from_slot, below, cmds, ctx),
            MenciusMsg::StateRequest(req) => self.on_state_request(from, req.have, ctx),
            MenciusMsg::StateReply(reply) => self.on_state_reply(reply.checkpoint, ctx),
            MenciusMsg::ReadProbe(req) => self.on_read_probe(from, req.seq, ctx),
            MenciusMsg::ReadMark { reply, owner_marks } => {
                self.on_read_mark(from, reply, owner_marks, ctx)
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        if token == TOKEN_PROBE_FLUSH {
            self.probe_flush_armed = false;
            // A probe always begins after its riders arrived, so an
            // extra overlapping probe is safe — just extra traffic.
            self.flush_queued_probe_reads(ctx);
        }
    }

    fn on_recover(&mut self, log: &[MenciusLogRec], ctx: &mut dyn Context<Self>) {
        // Proposals in flight while we were down are gone (no
        // retransmission), so cumulative ack coverage of the other
        // owners can never be claimed again — only our own slots stay
        // vouchable (see `recv_synced`).
        let me = self.id.index();
        for (o, synced) in self.recv_synced.iter_mut().enumerate() {
            *synced = o == me;
        }
        self.resync_floor.fill(None);
        // Checkpoint fast path (shared subsystem): restore the newest
        // durable checkpoint and resume resolution at its watermark
        // instead of replaying from slot zero. Falls back to a full
        // replay when the driver cannot install snapshots (sound only
        // while the log is uncompacted). The persisted history floor
        // survives the truncation: emptiness below it is never
        // confirmed, whatever the rebuilt history happens to hold.
        let mut base = 0u64;
        for rec in log.iter().rev() {
            if let MenciusLogRec::Checkpoint { cp, history_floor } = rec {
                if ctx.sm_install(cp.snapshot.clone()) {
                    base = cp.applied;
                    let _ = self.sessions.install(&cp.sessions);
                }
                self.history_floor = *history_floor;
                break;
            }
        }
        self.exec_cursor = base;
        // Rebuild the slot table above the base, then re-execute the
        // resolved suffix in slot order exactly as before the crash.
        let mut resolved: BTreeMap<u64, Option<(Command, ReplicaId)>> = BTreeMap::new();
        for rec in log {
            match rec {
                MenciusLogRec::Accept { slot, cmd, origin } => {
                    if *origin == self.id {
                        // Own proposals stay answerable for peers whose
                        // crash may have lost them in flight — including
                        // those below the checkpoint watermark.
                        self.own_history.insert(*slot, cmd.clone());
                    }
                    if *slot >= base {
                        self.slots.insert(*slot, (cmd.clone(), *origin));
                    }
                }
                MenciusLogRec::Commit { slot } if *slot >= base => {
                    let cmd = self
                        .slots
                        .get(slot)
                        .cloned()
                        .expect("commit mark must follow its accept record");
                    resolved.insert(*slot, Some(cmd));
                }
                MenciusLogRec::Skip { slot } if *slot >= base => {
                    resolved.insert(*slot, None);
                }
                MenciusLogRec::GapConfirm {
                    owner,
                    from_slot,
                    below,
                } if *below > base => {
                    // Confirmed-empty ranges hold for good (the owner
                    // never proposes below the promise it echoed), so
                    // the absence proofs — and the cumulative acks we
                    // issued on their strength — survive the crash.
                    self.gap_trust[owner.index()].push((*from_slot, *below));
                }
                MenciusLogRec::Commit { .. }
                | MenciusLogRec::Skip { .. }
                | MenciusLogRec::GapConfirm { .. }
                | MenciusLogRec::Checkpoint { .. } => {}
            }
        }
        // The log holds every own proposal the compactions have not
        // folded below the persisted floor, so the rebuilt history is
        // complete above it; re-apply the retention cap to bound memory.
        self.cap_own_history();
        while let Some(entry) = resolved.remove(&self.exec_cursor) {
            let c = self.exec_cursor;
            self.exec_cursor += 1;
            self.slots.remove(&c);
            if let Some((cmd, origin)) = entry {
                self.sessions.commit_dedup(
                    self.id,
                    Committed {
                        cmd,
                        origin,
                        order_hint: c,
                    },
                    ctx,
                );
            }
        }
        // Never reuse own slots: continue at the smallest own slot that
        // is ≥ the replayed cursor position and strictly above every
        // slot the log showed — an uncommitted Accept still counts as
        // "seen", since peers may have logged or committed it, and
        // re-proposing its slot with a different command would fork the
        // log. Own proposals are logged synchronously, so an empty floor
        // proves nothing was ever proposed and the replica may start
        // from its first own slot again.
        let mut floor = self.next_own_slot.max(self.exec_cursor);
        if let Some(m) = self.slots.keys().max() {
            floor = floor.max(m + 1);
        }
        self.next_own_slot = if floor == 0 {
            self.id.index() as u64
        } else {
            self.own_slot_after(floor - 1)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::CommandId;
    use rsm_core::id::ClientId;
    use rsm_core::read::ReadRequest;

    type TestCtx = rsm_core::testing::TestCtx<MenciusBcast>;

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"op"),
        )
    }

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// Single-command propose, the shape most tests drive by hand.
    fn propose(m: &mut MenciusBcast, ctx: &mut TestCtx, slot: u64, c: Command, origin: ReplicaId) {
        m.on_propose(slot, Batch::single(c), origin, ctx);
    }

    /// Single-slot ack with a skip promise (cumulative watermark = slot).
    fn ack(m: &mut MenciusBcast, ctx: &mut TestCtx, from: ReplicaId, slot: u64, skip: u64) {
        m.on_accept_ack(from, slot, skip, ctx);
    }

    #[test]
    fn own_slot_progression() {
        let m = MenciusBcast::new(r(1), Membership::uniform(3));
        assert_eq!(m.own_slot_after(0), 1);
        assert_eq!(m.own_slot_after(1), 4);
        assert_eq!(m.own_slot_after(2), 4);
        assert_eq!(m.own_slot_after(5), 7);
        let m0 = MenciusBcast::new(r(0), Membership::uniform(3));
        assert_eq!(m0.own_slot_after(0), 3);
        assert_eq!(m0.own_slot_after(2), 3);
    }

    #[test]
    fn propose_fanout_shares_the_batch_payload_across_peers() {
        // Allocation-lean fan-out: the per-peer PROPOSE clones share one
        // Arc-backed command vector with the submitted batch instead of
        // deep-copying it per destination.
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        let batch = Batch::new((1..=64).map(cmd).collect());
        m.on_client_batch(batch.clone(), &mut ctx);
        let proposes: Vec<&Batch> = ctx
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose { cmds, .. } => Some(cmds),
                _ => None,
            })
            .collect();
        assert_eq!(proposes.len(), 2, "one PROPOSE per peer");
        for sent in &proposes {
            assert!(
                sent.ptr_eq(&batch),
                "a peer copy deep-cloned the command payload"
            );
        }
    }

    #[test]
    fn proposer_uses_own_slots_in_order() {
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_client_request(cmd(1), &mut ctx);
        m.on_client_request(cmd(2), &mut ctx);
        let slots: Vec<u64> = ctx
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose { first_slot, .. } => Some(*first_slot),
                _ => None,
            })
            .collect();
        // Both peers (the proposer handles its own copy inline) get both
        // proposals in own-slot order: 1,1 then 4,4.
        assert_eq!(slots, vec![1, 1, 4, 4]);
        // The local registration also acknowledged both slots.
        let acks = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, MenciusMsg::AcceptAck { .. }))
            .count();
        assert_eq!(acks, 6, "one ack broadcast (3 dests) per own proposal");
    }

    #[test]
    fn batched_proposal_strides_own_slots_with_one_message() {
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), &mut ctx);
        let proposes: Vec<(u64, usize)> = ctx
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose {
                    first_slot, cmds, ..
                } => Some((*first_slot, cmds.len())),
                _ => None,
            })
            .collect();
        // One batch message per peer (2 peers; own copy handled inline).
        assert_eq!(proposes, vec![(1, 3), (1, 3)]);
        // The batch occupies own slots 1, 4, 7; the local registration
        // logged all three and acked once with the last slot's watermark.
        assert_eq!(ctx.log.len(), 3);
        let acks: Vec<(u64, u64)> = ctx
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::AcceptAck {
                    up_to_slot,
                    skip_below,
                } => Some((*up_to_slot, *skip_below)),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 3, "ONE cumulative ack broadcast, not 3");
        assert!(acks.iter().all(|&(u, s)| u == 7 && s == 10));
        assert_eq!(m.next_own_slot, 10);
    }

    #[test]
    fn ack_carries_skip_promise_and_advances_own_slot() {
        let mut m = MenciusBcast::new(r(2), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        // r0 proposes slot 3 (its second slot); r2 must skip its slot 2.
        propose(&mut m, &mut ctx, 3, cmd(1), r(0));
        let (_, ack) = ctx
            .sends
            .iter()
            .find(|(_, msg)| matches!(msg, MenciusMsg::AcceptAck { .. }))
            .unwrap();
        match ack {
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below,
            } => {
                assert_eq!(*up_to_slot, 3);
                assert_eq!(*skip_below, 5, "next own slot of r2 after 3 is 5");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn slot_zero_commits_with_majority_and_no_predecessors() {
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 0, cmd(1), r(0));
        ack(&mut m, &mut ctx, r(0), 0, 3);
        assert!(ctx.commits.is_empty());
        ack(&mut m, &mut ctx, r(1), 0, 1);
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(ctx.commits[0].order_hint, 0);
    }

    #[test]
    fn later_slot_waits_for_skip_promises_from_all_owners() {
        // Imbalanced workload shape: only r0 proposes; its second command
        // sits in slot 3 and needs r1's and r2's promises covering slots
        // 1 and 2.
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 0, cmd(1), r(0));
        propose(&mut m, &mut ctx, 3, cmd(2), r(0));
        // Majority acks for both slots from r0 (self) and r1.
        ack(&mut m, &mut ctx, r(0), 0, 3);
        ack(&mut m, &mut ctx, r(0), 3, 6);
        ack(&mut m, &mut ctx, r(1), 0, 1);
        ack(&mut m, &mut ctx, r(1), 3, 4);
        // Slot 0 commits; slot 3 blocked: r2's promise for slot 2 missing.
        assert_eq!(ctx.commits.len(), 1);
        // r2's ack arrives: skip_below 5 covers its slot 2; slot 1 covered
        // by r1's skip_below 4.
        ack(&mut m, &mut ctx, r(2), 3, 5);
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[1].order_hint, 3);
        assert_eq!(m.resolved(), 4);
    }

    #[test]
    fn delayed_commit_blocks_on_concurrent_smaller_slot() {
        // r1 observes its own slot-1 proposal fully acked, but r0's
        // concurrent slot-0 command is still short of a majority: slot 1
        // must wait (the delayed-commit problem).
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 0, cmd(1), r(0));
        propose(&mut m, &mut ctx, 1, cmd(2), r(1));
        ack(&mut m, &mut ctx, r(1), 1, 4);
        ack(&mut m, &mut ctx, r(2), 1, 5);
        ack(&mut m, &mut ctx, r(0), 1, 3);
        assert!(ctx.commits.is_empty(), "slot 1 must wait for slot 0");
        ack(&mut m, &mut ctx, r(0), 0, 3);
        ack(&mut m, &mut ctx, r(2), 0, 2);
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].order_hint, 0);
        assert_eq!(ctx.commits[1].order_hint, 1);
    }

    #[test]
    fn cumulative_ack_covers_earlier_slots_of_the_same_owner() {
        // r2 receives r0's slots 0 and 3 and acks only once for slot 3:
        // the watermark must count for slot 0 as well.
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 0, cmd(1), r(0));
        propose(&mut m, &mut ctx, 3, cmd(2), r(0));
        // One cumulative ack per replica, watermark at slot 3.
        ack(&mut m, &mut ctx, r(0), 3, 6);
        ack(&mut m, &mut ctx, r(1), 3, 4);
        ack(&mut m, &mut ctx, r(2), 3, 5);
        assert_eq!(ctx.commits.len(), 2, "both slots commit off one watermark");
        assert_eq!(ctx.commits[0].order_hint, 0);
        assert_eq!(ctx.commits[1].order_hint, 3);
    }

    #[test]
    fn skipped_slots_resolve_without_commands() {
        let mut m = MenciusBcast::new(r(2), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        // r1 proposes in its slot 4; everyone skips 0..4.
        propose(&mut m, &mut ctx, 4, cmd(1), r(1));
        ack(&mut m, &mut ctx, r(0), 4, 6); // r0 skips 0 and 3
        ack(&mut m, &mut ctx, r(1), 4, 7); // r1 skips 1 (4 proposed)
        ack(&mut m, &mut ctx, r(2), 4, 5); // r2 skips 2
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(ctx.commits[0].order_hint, 4);
        assert_eq!(m.resolved(), 5);
        let skips = ctx
            .log
            .iter()
            .filter(|r| matches!(r, MenciusLogRec::Skip { .. }))
            .count();
        assert_eq!(skips, 4);
    }

    #[test]
    fn recovered_replica_never_vouches_for_other_owners() {
        // r1 crashes while r0's slot-0 proposal is in flight (lost),
        // recovers, then receives r0's next proposal in slot 3. A
        // cumulative ack up to slot 3 would falsely cover the lost
        // slot 0; the replica must fall back to vouching only for its
        // own slots (still carrying the skip promise).
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_recover(&[], &mut ctx);
        propose(&mut m, &mut ctx, 3, cmd(2), r(0));
        let acks: Vec<(u64, u64)> = ctx
            .sends
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::AcceptAck {
                    up_to_slot,
                    skip_below,
                } => Some((*up_to_slot, *skip_below)),
                _ => None,
            })
            .collect();
        assert!(!acks.is_empty());
        for (up_to, skip) in acks {
            assert_eq!(
                m.owner_of_slot(up_to),
                r(1),
                "post-recovery ack must only reference own slots"
            );
            assert!(skip > 3, "skip promise must still cover the gap slots");
        }
        // Own proposals remain fully vouchable after recovery.
        m.on_client_request(cmd(9), &mut ctx);
        let own_acks = ctx
            .sends
            .iter()
            .filter(|(_, msg)| {
                matches!(msg, MenciusMsg::AcceptAck { up_to_slot, .. }
                if *up_to_slot == m.next_own_slot - 3)
            })
            .count();
        assert!(own_acks >= 3, "own-slot acks keep flowing");
    }

    #[test]
    fn recovered_replica_resyncs_once_the_gap_resolves() {
        // r1 recovers, first hears r0 at slot 3 (slots 0..3 may have
        // been missed). Once everything below 3 resolves locally, the
        // gap is globally decided, so cumulative coverage of r0 becomes
        // truthful again and full acks resume.
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_recover(&[], &mut ctx);
        propose(&mut m, &mut ctx, 3, cmd(1), r(0));
        // Unsynced: the ack references r1's own slots, not slot 3.
        let last_ack = |ctx: &TestCtx| {
            ctx.sends
                .iter()
                .rev()
                .find_map(|(_, msg)| match msg {
                    MenciusMsg::AcceptAck { up_to_slot, .. } => Some(*up_to_slot),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(m.owner_of_slot(last_ack(&ctx)), r(1));
        // Majority watermarks for slot 3 arrive.
        ack(&mut m, &mut ctx, r(0), 0, 3);
        ack(&mut m, &mut ctx, r(2), 0, 5);
        ack(&mut m, &mut ctx, r(0), 3, 6);
        ack(&mut m, &mut ctx, r(2), 3, 5);
        // Gap slots 0 and 2 cannot resolve off the owners' floors alone
        // (a proposal may have been lost in r1's crash); the owners
        // confirm emptiness, then 0..3 skip and slot 3 commits.
        assert!(m.resolved() < 4, "holes must wait for owner confirmation");
        m.on_message(
            r(0),
            MenciusMsg::GapFill {
                from_slot: 0,
                below: 6,
                cmds: Vec::new(),
            },
            &mut ctx,
        );
        m.on_message(
            r(2),
            MenciusMsg::GapFill {
                from_slot: 2,
                below: 5,
                cmds: Vec::new(),
            },
            &mut ctx,
        );
        assert!(m.resolved() >= 4, "gap resolved: {}", m.resolved());
        // Next proposal from r0: resynced, full cumulative ack again.
        propose(&mut m, &mut ctx, 6, cmd(2), r(0));
        assert_eq!(
            last_ack(&ctx),
            6,
            "cumulative acks must resume after resync"
        );
    }

    #[test]
    fn recovered_replica_fetches_lost_proposals_instead_of_skipping() {
        // r0 proposed slot 0 (committed by r0+r2) while the Propose to a
        // crashed r1 was lost. On recovery r1 must not resolve slot 0 as
        // a skip off r0's floor — that would fork its committed sequence.
        // It queries r0, which retransmits from its retained history, and
        // r1 commits the same command everyone else executed.
        let mut owner = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut owner_ctx = TestCtx::new(0);
        owner.on_client_request(cmd(7), &mut owner_ctx); // fills slot 0
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_recover(&[], &mut ctx);
        // r0's next batch is the first thing r1 hears: its floor now
        // covers slot 0, which the old code skipped locally.
        propose(&mut m, &mut ctx, 3, cmd(8), r(0));
        assert_eq!(m.resolved(), 0, "slot 0 must not resolve as a skip");
        let (to, from_slot, below) = ctx
            .sends
            .iter()
            .find_map(|(to, msg)| match msg {
                MenciusMsg::GapRequest { from_slot, below } => Some((*to, *from_slot, *below)),
                _ => None,
            })
            .expect("recovered replica must query the owner");
        assert_eq!(to, r(0));
        // The owner answers from its retained own-proposal history.
        owner_ctx.sends.clear();
        owner.on_message(
            r(1),
            MenciusMsg::GapRequest { from_slot, below },
            &mut owner_ctx,
        );
        let fill = owner_ctx
            .sends
            .iter()
            .find_map(|(to, msg)| match (to, msg) {
                (to, MenciusMsg::GapFill { .. }) if *to == r(1) => Some(msg.clone()),
                _ => None,
            })
            .expect("owner must answer a gap request");
        assert!(
            matches!(&fill, MenciusMsg::GapFill { cmds, .. } if cmds.len() == 1),
            "retransmission must carry the lost slot-0 proposal"
        );
        m.on_message(r(0), fill, &mut ctx);
        // r2 confirms its own slots in the gap are empty.
        m.on_message(
            r(2),
            MenciusMsg::GapFill {
                from_slot: 2,
                below: 5,
                cmds: Vec::new(),
            },
            &mut ctx,
        );
        // Majority watermarks for slots 0 and 3 arrive: everything
        // resolves, slot 0 first and with the original command.
        ack(&mut m, &mut ctx, r(0), 0, 6);
        ack(&mut m, &mut ctx, r(2), 0, 5);
        ack(&mut m, &mut ctx, r(0), 3, 6);
        ack(&mut m, &mut ctx, r(2), 3, 5);
        assert!(m.resolved() >= 4, "gap resolved: {}", m.resolved());
        assert_eq!(ctx.commits[0].order_hint, 0);
        assert_eq!(
            ctx.commits[0].cmd.id.seq, 7,
            "slot 0 must commit the owner's original command"
        );
    }

    #[test]
    fn lost_gap_request_is_retried_when_the_owner_is_heard_from() {
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        m.on_recover(&[], &mut ctx);
        propose(&mut m, &mut ctx, 3, cmd(1), r(0));
        let count_reqs = |ctx: &TestCtx| {
            ctx.sends
                .iter()
                .filter(|(_, msg)| matches!(msg, MenciusMsg::GapRequest { .. }))
                .count()
        };
        assert_eq!(count_reqs(&ctx), 1, "stall at slot 0 queries the owner");
        // Owner traffic within the retry window must not duplicate the
        // in-flight exchange…
        m.on_message(
            r(0),
            MenciusMsg::AcceptAck {
                up_to_slot: 3,
                skip_below: 6,
            },
            &mut ctx,
        );
        assert_eq!(count_reqs(&ctx), 1, "in-flight request is deduplicated");
        // …but once the window expires, the request (or its fill) is
        // presumed lost to the owner's downtime and is re-sent.
        ctx.clock = 1_000_000;
        m.on_message(
            r(0),
            MenciusMsg::AcceptAck {
                up_to_slot: 3,
                skip_below: 6,
            },
            &mut ctx,
        );
        assert_eq!(count_reqs(&ctx), 2, "timed-out request is retried");
    }

    #[test]
    fn own_history_is_capped_and_capped_ranges_never_confirm_emptiness() {
        let mut owner = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        for s in 0..(MAX_OWN_HISTORY as u64 + 8) {
            owner.on_client_request(cmd(s), &mut ctx);
        }
        assert!(owner.own_history.len() <= MAX_OWN_HISTORY);
        assert!(owner.history_floor > 0, "cap must advance the floor");
        // A request reaching below the retention floor is answered with
        // a clamped range…
        let mut reply_ctx = TestCtx::new(0);
        owner.on_message(
            r(1),
            MenciusMsg::GapRequest {
                from_slot: 0,
                below: owner.next_own_slot,
            },
            &mut reply_ctx,
        );
        let fill = reply_ctx
            .sends
            .iter()
            .find_map(|(_, msg)| match msg {
                MenciusMsg::GapFill { .. } => Some(msg.clone()),
                _ => None,
            })
            .expect("owner must still answer");
        let MenciusMsg::GapFill { from_slot, .. } = &fill else {
            unreachable!()
        };
        assert_eq!(*from_slot, owner.history_floor);
        // …and the requester refuses to treat it as proof of emptiness
        // at its cursor: the capped-out slot 0 may have held a command.
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut mctx = TestCtx::new(0);
        m.on_recover(&[], &mut mctx);
        ack(&mut m, &mut mctx, r(0), 0, owner.next_own_slot);
        m.on_message(r(0), fill, &mut mctx);
        assert!(
            !m.gap_trust[0].iter().any(|&(f, b)| f == 0 && b > 0),
            "trust must not reach below the owner's retention floor"
        );
        assert_eq!(m.resolved(), 0, "the hole at slot 0 must keep waiting");
        // Further owner traffic must not restart the request/fill
        // ping-pong: the range is recorded as unanswerable.
        let reqs = |ctx: &TestCtx| {
            ctx.sends
                .iter()
                .filter(|(_, msg)| matches!(msg, MenciusMsg::GapRequest { .. }))
                .count()
        };
        let before = reqs(&mctx);
        m.on_message(
            r(0),
            MenciusMsg::AcceptAck {
                up_to_slot: 0,
                skip_below: owner.next_own_slot,
            },
            &mut mctx,
        );
        assert_eq!(
            reqs(&mctx),
            before,
            "unanswerable range is not re-requested"
        );
    }

    #[test]
    fn capped_out_hole_fetches_a_checkpoint_instead_of_stalling() {
        // The ROADMAP's permanent-stall hole: r1 stays down while r0
        // proposes past its retention cap. On rejoin, r0's clamped
        // GapFill cannot confirm the early slots — previously a quiet
        // forever-stall; now the hole resolves via checkpoint transfer.
        let mut owner = MenciusBcast::new(r(0), Membership::uniform(3)).with_history_cap(4);
        let mut octx = TestCtx::with_snapshots();
        for s in 0..8 {
            owner.on_client_request(cmd(s), &mut octx);
        }
        assert!(owner.history_floor > 0, "cap must have advanced the floor");
        // Majority watermarks + skip promises resolve everything at the
        // owner: its own 8 slots commit, everyone else's skip.
        ack(&mut owner, &mut octx, r(1), 21, 22);
        ack(&mut owner, &mut octx, r(2), 21, 23);
        ack(&mut owner, &mut octx, r(0), 21, 24);
        assert_eq!(owner.resolved(), 22, "owner resolved its whole prefix");

        // r1 recovers from a long outage with an empty log and hears the
        // owner's promise; the gap request comes back clamped.
        let mut m = MenciusBcast::new(r(1), Membership::uniform(3));
        let mut ctx = TestCtx::with_snapshots();
        m.on_recover(&[], &mut ctx);
        ack(&mut m, &mut ctx, r(0), 21, 24);
        let (from_slot, below) = ctx
            .sends
            .iter()
            .find_map(|(to, msg)| match msg {
                MenciusMsg::GapRequest { from_slot, below } if *to == r(0) => {
                    Some((*from_slot, *below))
                }
                _ => None,
            })
            .expect("hole must first try a gap request");
        octx.sends.clear();
        owner.on_message(r(1), MenciusMsg::GapRequest { from_slot, below }, &mut octx);
        let fill = octx
            .sends
            .iter()
            .find_map(|(to, msg)| match (to, msg) {
                (to, MenciusMsg::GapFill { .. }) if *to == r(1) => Some(msg.clone()),
                _ => None,
            })
            .expect("owner answers with a clamped fill");
        m.on_message(r(0), fill, &mut ctx);
        // The clamped fill proves retransmission can never cover the
        // hole: a state transfer request must leave for a peer (one per
        // retry round — a snapshot is large, so peers are tried
        // round-robin rather than all at once).
        let reqs: Vec<ReplicaId> = ctx
            .sends
            .iter()
            .filter_map(|(to, msg)| match msg {
                MenciusMsg::StateRequest(_) => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(reqs, vec![r(0)], "one transfer request, first peer");

        // The owner serves its checkpoint; installing it converges r1 on
        // the owner's exact state and unblocks resolution.
        octx.sends.clear();
        owner.on_message(
            r(1),
            MenciusMsg::StateRequest(StateTransferRequest { have: 0 }),
            &mut octx,
        );
        let reply = octx
            .sends
            .iter()
            .find_map(|(to, msg)| match (to, msg) {
                (to, MenciusMsg::StateReply(_)) if *to == r(1) => Some(msg.clone()),
                _ => None,
            })
            .expect("owner must serve a checkpoint");
        m.on_message(r(0), reply, &mut ctx);
        assert_eq!(m.resolved(), 22, "hole covered by the checkpoint");
        assert_eq!(
            ctx.executed, octx.executed,
            "recovered replica reaches the owner's exact state"
        );
        // And it can keep proposing above everything resolved.
        m.on_client_request(cmd(99), &mut ctx);
        assert!(m.next_own_slot > 22);
    }

    #[test]
    fn checkpoints_compact_the_log_and_recovery_restores_them() {
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3))
            .with_checkpoints(CheckpointPolicy::every(2).with_compaction(true));
        let mut ctx = TestCtx::with_snapshots();
        for s in 0..6 {
            m.on_client_request(cmd(s), &mut ctx);
        }
        ack(&mut m, &mut ctx, r(1), 15, 16);
        ack(&mut m, &mut ctx, r(2), 15, 17);
        ack(&mut m, &mut ctx, r(0), 15, 18);
        assert_eq!(m.resolved(), 16, "all six own slots + skips resolved");
        // Compaction keeps the log at the checkpoint + retained own
        // proposals — far below the 6 accepts + 16 commit/skip marks a
        // plain log would hold.
        let checkpoints = ctx
            .log
            .iter()
            .filter(|l| matches!(l, MenciusLogRec::Checkpoint { .. }))
            .count();
        assert_eq!(checkpoints, 1, "log holds exactly the newest checkpoint");
        assert!(
            ctx.log.len() <= 1 + 6,
            "log must stay bounded, got {} records",
            ctx.log.len()
        );
        // Recovery from the compacted log reproduces the full state.
        let mut m2 = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx2 = TestCtx::with_snapshots();
        m2.on_recover(&ctx.log.clone(), &mut ctx2);
        assert_eq!(ctx2.executed, ctx.executed);
        assert!(m2.resolved() >= 14, "cursor resumes at the watermark");
        assert!(m2.next_own_slot >= m2.resolved(), "own slots never reused");
        // Own proposals below the watermark stay answerable after the
        // round trip (they are retained in the compacted log).
        assert!(!m2.own_history.is_empty());
    }

    #[test]
    fn recovery_replays_resolved_prefix() {
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let log = vec![
            MenciusLogRec::Accept {
                slot: 0,
                cmd: cmd(1),
                origin: r(0),
            },
            MenciusLogRec::Commit { slot: 0 },
            MenciusLogRec::Skip { slot: 1 },
            MenciusLogRec::Skip { slot: 2 },
            MenciusLogRec::Accept {
                slot: 3,
                cmd: cmd(2),
                origin: r(0),
            },
        ];
        let mut ctx = TestCtx::new(0);
        m.on_recover(&log, &mut ctx);
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(m.resolved(), 3);
        // Own slots never reused below what the log shows.
        assert!(m.next_own_slot > 3);
        assert_eq!(m.next_own_slot % 3, 0);
    }

    #[test]
    fn recovery_never_reuses_slot_zero() {
        // An uncommitted Accept for slot 0 must push replica 0 past it:
        // peers may have logged or committed the original proposal, so
        // re-proposing slot 0 with a new command would fork the log.
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let log = vec![MenciusLogRec::Accept {
            slot: 0,
            cmd: cmd(1),
            origin: r(0),
        }];
        let mut ctx = TestCtx::new(0);
        m.on_recover(&log, &mut ctx);
        assert_eq!(m.next_own_slot, 3, "slot 0 was seen; next own slot is 3");
        // A genuinely empty log is a fresh start from the replica's own
        // first slot — for every replica id, not just 0.
        for i in 0..3 {
            let mut fresh = MenciusBcast::new(r(i), Membership::uniform(3));
            fresh.on_recover(&[], &mut ctx);
            assert_eq!(fresh.next_own_slot, i as u64);
        }
    }
    fn read(seq: u64) -> Command {
        Command::read(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"get"),
        )
    }

    #[test]
    fn read_probes_a_majority_and_parks_on_the_max_mark() {
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        // Slot 1 (owned by r1) is logged here but unresolved.
        propose(&mut m, &mut ctx, 1, cmd(11), r(1));
        ctx.sends.clear();
        m.on_client_read(read(5), &mut ctx);
        assert!(ctx.read_replies.is_empty(), "reads never serve eagerly");
        assert_eq!(
            ctx.sends
                .iter()
                .filter(|(_, msg)| matches!(msg, MenciusMsg::ReadProbe(_)))
                .count(),
            2,
            "probe goes to both peers"
        );
        // One answer + self = majority of 3. The peer's own-slot bound
        // (owner 1, bound 4) constrains the read: its largest owner-1
        // slot below 4 is slot 1, so the read parks at cursor mark 2.
        m.on_message(
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 4 },
                owner_marks: vec![0, 4, 0],
            },
            &mut ctx,
        );
        assert_eq!(m.pending_reads(), 1, "parked until slots 0..2 resolve");
        assert!(ctx.read_replies.is_empty());
        // Resolve slots 0..4: acks give slot 1 a majority, and the skip
        // promises cover the empty slots of every owner.
        ack(&mut m, &mut ctx, r(1), 1, 7);
        ack(&mut m, &mut ctx, r(2), 1, 8);
        m.on_client_request(cmd(1), &mut ctx); // fills own slot 3... (slot 0 skipped by own floor)
        ack(&mut m, &mut ctx, r(1), 3, 7);
        ack(&mut m, &mut ctx, r(2), 3, 8);
        assert!(
            m.resolved() >= 4,
            "slots below the mark resolved: {}",
            m.resolved()
        );
        assert_eq!(ctx.read_replies.len(), 1);
        assert_eq!(ctx.read_replies[0].id.seq, 5);
        assert_eq!(m.pending_reads(), 0);
    }

    #[test]
    fn any_replica_answers_read_probes_with_its_log_top() {
        let mut m = MenciusBcast::new(r(2), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 4, cmd(9), r(1));
        ctx.sends.clear();
        m.on_message(
            r(0),
            MenciusMsg::ReadProbe(ReadRequest { seq: 7 }),
            &mut ctx,
        );
        match &ctx.sends[..] {
            [(to, MenciusMsg::ReadMark { reply, owner_marks })] => {
                assert_eq!(*to, r(0));
                assert_eq!(reply.seq, 7);
                assert_eq!(reply.mark, 5, "scalar mark covers the whole slot table");
                assert_eq!(
                    owner_marks,
                    &vec![0, 5, 0],
                    "per-owner: only owner 1's logged slot 4 constrains; \
                     the responder's own entry is its execution cursor"
                );
            }
            other => panic!("expected one ReadMark, got {other:?}"),
        }
    }

    #[test]
    fn in_flight_proposals_do_not_block_probed_reads() {
        // Replica 1 has an own proposal in flight (logged at the reader,
        // unacked, uncommitted — no client has seen its result). Under
        // the old scalar logged-top mark the read would park above it
        // and wait out the proposal's full commit round; per-owner marks
        // let the owner's answer exclude it.
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        propose(&mut m, &mut ctx, 1, cmd(11), r(1));
        ctx.sends.clear();
        m.on_client_read(read(9), &mut ctx);
        assert!(ctx.read_replies.is_empty(), "waiting on the probe quorum");
        // Owner 1 answers: its execution cursor is still 0, so its own
        // entry excludes the in-flight slot 1 even though its scalar
        // logged-top mark (2) covers it.
        m.on_message(
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 2 },
                owner_marks: vec![0, 0, 0],
            },
            &mut ctx,
        );
        assert_eq!(
            ctx.read_replies.len(),
            1,
            "read served without waiting for the in-flight proposal"
        );
        assert_eq!(ctx.read_replies[0].id.seq, 9);
        assert_eq!(m.pending_reads(), 0);
    }

    #[test]
    fn read_falls_back_to_replication_without_sm_access() {
        let mut m = MenciusBcast::new(r(0), Membership::uniform(3));
        let mut ctx = TestCtx::new(0);
        ctx.serve_reads = false;
        m.on_client_read(read(4), &mut ctx);
        m.on_message(
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 0 },
                owner_marks: vec![0, 0, 0],
            },
            &mut ctx,
        );
        assert!(ctx.read_replies.is_empty());
        assert!(
            ctx.sends
                .iter()
                .any(|(_, msg)| matches!(msg, MenciusMsg::Propose { .. })),
            "unserveable read must be replicated as an ordinary command"
        );
    }

    #[test]
    fn mencius_reports_commit_watermark_read_path() {
        let m = MenciusBcast::new(r(0), Membership::uniform(3));
        assert_eq!(m.read_path(), ReadPath::CommitWatermark);
    }
}
