//! The Clock-RSM replica: Algorithms 1 and 2 of the paper.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{Checkpoint, Checkpointer};
use rsm_core::command::{Command, Committed, Reply};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::ReplicaId;
use rsm_core::obs::{names, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::{ReadPath, ReadQueue};
use rsm_core::session::SessionTable;
use rsm_core::time::{Micros, Timestamp};

use crate::config::ClockRsmConfig;
use crate::log::LogRec;
use crate::msg::RsmMsg;
use crate::reconfig::ReconfigEngine;

/// Timer token: periodic CLOCKTIME broadcast check (Algorithm 2).
pub(crate) const TOKEN_CLOCKTIME: TimerToken = TimerToken(1);
/// Timer token: drain the PREPAREOK wait queue (Algorithm 1, line 8).
pub(crate) const TOKEN_ACK_WAIT: TimerToken = TimerToken(2);
/// Timer token: failure detector sweep.
pub(crate) const TOKEN_FD: TimerToken = TimerToken(3);
/// Timer token: reconfiguration consensus retry.
pub(crate) const TOKEN_SYNOD_RETRY: TimerToken = TimerToken(4);
/// Timer token: suspend-collection / state-transfer retry.
pub(crate) const TOKEN_RECONFIG_RETRY: TimerToken = TimerToken(5);

/// Packs `(epoch, ts)` into a single strictly increasing execution-order
/// coordinate: epoch-major, then timestamp micros, then originating
/// replica. Commands of epoch `e+1` always order after all of epoch `e`.
///
/// Layout: 12 bits of epoch, 44 bits of microseconds, 8 bits of replica
/// id. The replica lane holds ids up to 255; [`ClockRsm::new`] rejects
/// memberships beyond that so the truncation below can never fold two
/// distinct replicas onto one key (ids ≥ 256 would otherwise silently
/// collide). 44 bits of microseconds is ~204 days of continuous run time
/// (clocks are process-relative — the runtime counts from spawn and the
/// simulator from virtual time zero, never the wall-clock epoch), and
/// epochs wrap after 4096 reconfigurations — both asserted.
pub(crate) fn order_key(epoch: Epoch, ts: Timestamp) -> u64 {
    // Hard asserts even in release: an out-of-range timestamp or epoch
    // would silently corrupt the execution order. order_key runs only at
    // commit time, so the two comparisons are off the per-message path.
    assert!(ts.micros() < 1 << 44, "timestamp exceeds order-key range");
    assert!(epoch.0 < 1 << 12, "epoch exceeds order-key range");
    debug_assert!(
        ts.replica().as_u16() < MAX_ORDER_KEY_REPLICAS,
        "replica id exceeds order-key range"
    );
    (epoch.0 << 52) | (ts.micros() << 8) | (ts.replica().as_u16() as u64 & 0xFF)
}

/// Largest membership the order-key layout can distinguish (8-bit replica
/// lane). Enforced at construction.
pub const MAX_ORDER_KEY_REPLICAS: u16 = 1 << 8;

/// What to do with an incoming data-plane message, by epoch tag.
enum Admission {
    /// Current epoch: handle now.
    Process,
    /// Future epoch: stash until the missing decisions apply.
    Buffer,
    /// Stale epoch: discard.
    Drop,
}

/// A Clock-RSM replica (Algorithm 1), with the clock-time broadcast
/// extension (Algorithm 2) and reconfiguration (Algorithm 3).
///
/// Drive it with the `simnet` simulator or the `rsm-runtime` threaded
/// runtime via the [`Protocol`] implementation; see the crate docs for the
/// protocol description.
#[derive(Debug)]
pub struct ClockRsm {
    pub(crate) id: ReplicaId,
    pub(crate) membership: Membership,
    pub(crate) cfg: ClockRsmConfig,

    // ------ Algorithm 1 soft state (Table I) ------
    /// `PendingCmds`: commands not yet committed, ordered by timestamp.
    pub(crate) pending: BTreeMap<Timestamp, (Command, ReplicaId)>,
    /// Cumulative replication watermarks replacing the paper's
    /// `RepCounter`: `acked[k][o]` is the largest timestamp value `t`
    /// such that replica `k` has acknowledged logging **every** prepare
    /// from origin `o` with timestamp micros ≤ `t`. A pending command
    /// `(ts, o)` is replicated at `k` iff `acked[k][o] ≥ ts.micros()`, so
    /// the hot path is a handful of integer comparisons instead of a
    /// per-timestamp hash-map counter.
    pub(crate) acked: Vec<Vec<Micros>>,
    /// `LatestTV`: latest clock timestamp known from each replica
    /// (indexed by replica index over Spec; only Config entries are read).
    pub(crate) latest_tv: Vec<Timestamp>,
    /// Timestamp of the last commit mark appended to the log.
    pub(crate) last_committed: Timestamp,

    // ------ sending discipline ------
    /// Strictly increasing floor over every timestamp this replica has
    /// sent; enforces the paper's requirement that PREPARE, PREPAREOK and
    /// CLOCKTIME leave in timestamp order.
    pub(crate) send_floor: Micros,

    // ------ PREPAREOK wait queue (line 8: wait until ts < Clock) ------
    pub(crate) wait_queue: BTreeSet<Timestamp>,
    pub(crate) wait_armed_for: Option<Micros>,

    // ------ reconfiguration ------
    /// Frozen by SUSPEND (Algorithm 3 line 8): REQUEST and PREPARE
    /// processing and commits pause until the decision applies.
    pub(crate) frozen: bool,
    /// Local clock value when the freeze began (liveness backstop).
    pub(crate) frozen_since: Micros,
    /// Client batches received while frozen or awaiting rejoin, re-issued
    /// with their original batch boundaries on unfreeze (so batching
    /// stays a driver decision — a freeze never merges or splits
    /// batches).
    pub(crate) queued_requests: VecDeque<Batch>,
    pub(crate) queued_msgs: VecDeque<(ReplicaId, RsmMsg)>,
    pub(crate) reconfig: ReconfigEngine,
    /// Set by recovery: rejoin via reconfiguration before serving.
    pub(crate) needs_rejoin: bool,
    /// Index of every PREPARE in the stable log by timestamp, serving
    /// `SUSPENDOK` collection and `RETRIEVECMDS` state transfer.
    /// Maintained only when failure handling is enabled; a production
    /// system would bound it with checkpointing (Section V-B).
    pub(crate) history: BTreeMap<Timestamp, (ReplicaId, Command)>,

    // ------ failure detector ------
    /// Local-clock time we last heard from each replica.
    pub(crate) last_heard: Vec<Micros>,

    // ------ local reads (stable-timestamp, `rsm_core::read`) ------
    /// Reads parked against their stamp, released once the stable
    /// timestamp passes it (see [`ClockRsm::release_ready_reads`]).
    pub(crate) read_queue: ReadQueue<Timestamp>,
    /// Reads received while frozen or awaiting rejoin, re-stamped on
    /// unfreeze (a stamp taken mid-freeze could release against a
    /// stale configuration's stable timestamp).
    pub(crate) queued_reads: VecDeque<Command>,

    // ------ client sessions (exactly-once; `rsm_core::session`) ------
    /// Per-client dedup window: a retried command that already executed
    /// is answered from here instead of re-applying. Rides checkpoints;
    /// rebuilt by replay on recovery.
    pub(crate) sessions: SessionTable,

    // ------ counters (observability) ------
    pub(crate) committed_count: u64,
    /// Trace-stage floors (only advanced while the driver is observing;
    /// see [`ClockRsm::obs_scan`]): the `min(LatestTV)` value up to
    /// which pending commands have been stamped
    /// [`Stable`](rsm_core::obs::TraceStage::Stable) …
    pub(crate) obs_stable_floor: Timestamp,
    /// … and, per origin, the majority-ack watermark up to which its
    /// pending commands have been stamped
    /// [`Replicated`](rsm_core::obs::TraceStage::Replicated).
    pub(crate) obs_repl_floor: Vec<Micros>,
    /// Shared checkpoint scheduler (Section V-B; `rsm_core::checkpoint`).
    pub(crate) checkpointer: Checkpointer,
}

impl ClockRsm {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the membership spec, or if any spec id is
    /// ≥ [`MAX_ORDER_KEY_REPLICAS`] (the execution-order key reserves an
    /// 8-bit lane for the replica id; larger ids would silently collide).
    pub fn new(id: ReplicaId, membership: Membership, cfg: ClockRsmConfig) -> Self {
        assert!(membership.in_spec(id), "replica {id} not in spec");
        if let Some(big) = membership
            .spec()
            .iter()
            .find(|r| r.as_u16() >= MAX_ORDER_KEY_REPLICAS)
        {
            panic!(
                "replica id {big} does not fit the order-key layout \
                 (max {MAX_ORDER_KEY_REPLICAS} replicas)"
            );
        }
        let n = membership.spec().len();
        ClockRsm {
            id,
            cfg,
            pending: BTreeMap::new(),
            acked: vec![vec![0; n]; n],
            latest_tv: vec![Timestamp::ZERO; n],
            last_committed: Timestamp::ZERO,
            send_floor: 0,
            wait_queue: BTreeSet::new(),
            wait_armed_for: None,
            frozen: false,
            frozen_since: 0,
            queued_requests: VecDeque::new(),
            queued_msgs: VecDeque::new(),
            reconfig: ReconfigEngine::new(id, membership.spec().to_vec()),
            needs_rejoin: false,
            history: BTreeMap::new(),
            last_heard: vec![0; n],
            read_queue: ReadQueue::new(),
            queued_reads: VecDeque::new(),
            sessions: SessionTable::new(cfg.session_window),
            committed_count: 0,
            obs_stable_floor: Timestamp::ZERO,
            obs_repl_floor: vec![0; n],
            checkpointer: Checkpointer::new(cfg.checkpoint),
            membership,
        }
    }

    /// Sets the session-table chaos-canary knob (**test-only**): when on,
    /// duplicate writes re-apply instead of deduplicating — the bug the
    /// chaos fuzzer proves it can find and shrink.
    pub fn with_session_canary(mut self, on: bool) -> Self {
        self.sessions.set_canary_skip_dedup(on);
        self
    }

    /// Whether the replica maintains the prepared-command history index
    /// (required by reconfiguration; enabled with failure detection).
    pub(crate) fn keeps_history(&self) -> bool {
        self.cfg.fd_timeout_us.is_some()
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.membership.epoch()
    }

    /// The membership (spec, config, epoch).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Number of commands committed (executed) by this replica instance.
    pub fn committed_count(&self) -> u64 {
        self.committed_count
    }

    /// Number of commands currently pending (not yet committed).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether the replica is frozen by an in-flight reconfiguration.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Timestamp of the most recent commit mark.
    pub fn last_committed_ts(&self) -> Timestamp {
        self.last_committed
    }

    // ------------------------------------------------------------------
    // Sending discipline
    // ------------------------------------------------------------------

    /// Produces the next timestamp to put on an outgoing message: the
    /// current clock reading, bumped to stay strictly above everything
    /// this replica has already sent (and above everything it has applied
    /// across epoch changes).
    pub(crate) fn next_send_ts(&mut self, ctx: &mut dyn Context<Self>) -> Timestamp {
        self.next_send_ts_span(1, ctx)
    }

    /// Reserves `k` consecutive timestamps and returns the head: a batch
    /// of `k` commands occupies `[head, head + k)` in this replica's
    /// timestamp space, and everything sent afterwards is strictly above
    /// the whole run.
    pub(crate) fn next_send_ts_span(&mut self, k: u64, ctx: &mut dyn Context<Self>) -> Timestamp {
        debug_assert!(k >= 1);
        let clock = ctx.clock();
        let micros = clock.max(self.send_floor + 1);
        self.send_floor = micros + (k - 1);
        Timestamp::new(micros, self.id)
    }

    pub(crate) fn broadcast_config(&self, msg: RsmMsg, ctx: &mut dyn Context<Self>) {
        for r in self.membership.config().to_vec() {
            ctx.send(r, msg.clone());
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1
    // ------------------------------------------------------------------

    /// Lines 1–3, generalized: stamp the whole batch with one head
    /// timestamp and broadcast a single PREPAREBATCH.
    fn handle_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        if self.frozen || self.needs_rejoin {
            self.queued_requests.push_back(batch);
            return;
        }
        let ts = self.next_send_ts_span(batch.len() as u64, ctx);
        if ctx.obs_active() {
            for cmd in batch.iter() {
                ctx.trace(cmd.id, TraceStage::Proposed);
            }
        }
        let msg = RsmMsg::PrepareBatch {
            epoch: self.epoch(),
            ts,
            origin: self.id,
            cmds: batch,
        };
        self.broadcast_config(msg, ctx);
    }

    /// Lines 4–10, generalized: log every command of the batch, then
    /// acknowledge the whole run with one cumulative PREPAREOK carrying a
    /// clock reading greater than its last timestamp (waiting out clock
    /// skew if necessary).
    fn handle_prepare_batch(
        &mut self,
        head: Timestamp,
        origin: ReplicaId,
        cmds: Batch,
        ctx: &mut dyn Context<Self>,
    ) {
        let last = Timestamp::new(head.micros() + cmds.len() as Micros - 1, origin);
        // Iterate by reference: the batch's storage is typically still
        // shared with the sender's other in-flight broadcast copies, so
        // consuming it would deep-clone the whole command vector just to
        // move commands we clone anyway (Command clones are cheap —
        // Bytes payloads are refcounted).
        for (i, cmd) in cmds.iter().enumerate() {
            let ts = Timestamp::new(head.micros() + i as Micros, origin);
            self.pending.insert(ts, (cmd.clone(), origin));
            if self.keeps_history() {
                self.history.insert(ts, (origin, cmd.clone()));
            }
            ctx.log_append(LogRec::Prepare {
                ts,
                origin,
                cmd: cmd.clone(),
            });
        }
        let o = origin.index();
        self.latest_tv[o] = self.latest_tv[o].max(last);
        if self.needs_rejoin {
            // A recovered replica may have lost prepares that were in
            // flight while it was down, so a cumulative ack would
            // falsely cover them. Log the batch (it shrinks the
            // post-rejoin state transfer) but promise nothing: acks
            // resume after the rejoin reconfiguration installs a fresh
            // epoch, which resets every ack watermark in the system.
            self.try_commit(ctx);
            return;
        }
        let clock = ctx.clock();
        if clock > last.micros() {
            self.send_prepare_ok(last, ctx);
        } else {
            // Local clock is behind the originator's: promise nothing
            // until our clock passes the batch's last timestamp (paper:
            // "highly unlikely with reasonably synchronized clocks").
            self.wait_queue.insert(last);
            self.arm_wait_timer(last.micros(), clock, ctx);
        }
        self.try_commit(ctx);
    }

    fn send_prepare_ok(&mut self, up_to: Timestamp, ctx: &mut dyn Context<Self>) {
        let clock_ts = self.next_send_ts(ctx);
        debug_assert!(clock_ts > up_to);
        let msg = RsmMsg::PrepareOk {
            epoch: self.epoch(),
            up_to,
            clock_ts,
        };
        self.broadcast_config(msg, ctx);
    }

    fn arm_wait_timer(&mut self, target: Micros, clock: Micros, ctx: &mut dyn Context<Self>) {
        let fire_in = target.saturating_sub(clock) + 1;
        match self.wait_armed_for {
            Some(armed) if armed <= target => {}
            _ => {
                self.wait_armed_for = Some(target);
                ctx.set_timer(fire_in, TOKEN_ACK_WAIT);
            }
        }
    }

    /// Timer: acknowledge every queued PREPARE watermark the local clock
    /// has now passed, in timestamp order. A later ready watermark from
    /// the same originator subsumes earlier ones (acks are cumulative),
    /// so at most one PREPAREOK per originator leaves per drain.
    #[allow(clippy::while_let_loop)] // the miss arm re-arms the timer
    fn drain_wait_queue(&mut self, ctx: &mut dyn Context<Self>) {
        self.wait_armed_for = None;
        let mut ready: Vec<Timestamp> = Vec::new();
        loop {
            let Some(&ts) = self.wait_queue.iter().next() else {
                break;
            };
            let clock = ctx.clock();
            if clock > ts.micros() {
                self.wait_queue.remove(&ts);
                // Keep only the largest ready watermark per originator.
                ready.retain(|r| r.replica() != ts.replica());
                ready.push(ts);
            } else {
                self.arm_wait_timer(ts.micros(), clock, ctx);
                break;
            }
        }
        for ts in ready {
            self.send_prepare_ok(ts, ctx);
        }
    }

    /// Lines 11–13, generalized: advance the acker's cumulative watermark
    /// for the acknowledged originator.
    fn handle_prepare_ok(
        &mut self,
        from: ReplicaId,
        up_to: Timestamp,
        clock_ts: Timestamp,
        ctx: &mut dyn Context<Self>,
    ) {
        let k = from.index();
        self.latest_tv[k] = self.latest_tv[k].max(clock_ts);
        let o = up_to.replica().index();
        if self.acked[k][o] < up_to.micros() {
            self.acked[k][o] = up_to.micros();
        }
        self.try_commit(ctx);
    }

    /// Algorithm 2, receive side.
    fn handle_clock_time(&mut self, from: ReplicaId, ts: Timestamp, ctx: &mut dyn Context<Self>) {
        let k = from.index();
        self.latest_tv[k] = self.latest_tv[k].max(ts);
        self.try_commit(ctx);
    }

    /// The smallest `LatestTV` entry over the current configuration
    /// (line 22).
    pub(crate) fn min_latest_tv(&self) -> Timestamp {
        self.membership
            .config()
            .iter()
            .map(|r| self.latest_tv[r.index()])
            .min()
            .expect("config is never empty")
    }

    /// Lines 14–23: commit every pending command that satisfies majority
    /// replication, stable order, and prefix replication — always working
    /// on the smallest pending timestamp so prefix order is automatic.
    ///
    /// Majority replication is read off the cumulative watermark matrix:
    /// command `(ts, o)` is logged at replica `k` iff `acked[k][o]`
    /// reaches `ts` — no per-command counter state exists or needs
    /// cleanup.
    pub(crate) fn try_commit(&mut self, ctx: &mut dyn Context<Self>) {
        if self.frozen {
            return;
        }
        if ctx.obs_active() {
            self.obs_scan(ctx);
        }
        let majority = self.membership.majority();
        while let Some((&ts, _)) = self.pending.iter().next() {
            let o = ts.replica().index();
            let acks = self
                .membership
                .config()
                .iter()
                .filter(|k| self.acked[k.index()][o] >= ts.micros())
                .count();
            if acks < majority || ts > self.min_latest_tv() {
                break;
            }
            // Exact-cut discipline: before applying the write at `ts`,
            // serve every parked read stamped strictly below it. At this
            // point the pending prefix below `ts` is empty and
            // `min(LatestTV) ≥ ts`, so nothing below `ts` can still
            // arrive: the local state contains *exactly* the writes below
            // each released stamp — the invariant cross-shard snapshot
            // reads rely on (serving only after the whole drain could
            // leak writes newer than the stamp into the answer).
            if !self.read_queue.is_empty() && !self.needs_rejoin {
                for cmd in self.read_queue.release_before(ts) {
                    self.serve_read(cmd, ctx);
                }
            }
            let (cmd, origin) = self.pending.remove(&ts).expect("first key exists");
            ctx.log_append(LogRec::Commit { ts });
            debug_assert!(ts > self.last_committed, "commits must be ts-ordered");
            self.last_committed = ts;
            self.committed_count += 1;
            let payload_len = cmd.payload.len();
            let order_hint = order_key(self.epoch(), ts);
            // The session dedup window decides whether this command
            // actually reaches the state machine: a client retry that
            // already executed is answered from the cache instead.
            let applied = self.sessions.commit_dedup(
                self.id,
                Committed {
                    cmd,
                    origin,
                    order_hint,
                },
                ctx,
            );
            if applied {
                self.checkpointer.note_commit(payload_len);
            }
            self.maybe_checkpoint(ctx);
        }
        // The stable timestamp may have advanced: serve any read whose
        // stamp it passed. Riding on try_commit puts the check on every
        // path that moves `LatestTV` or drains `pending` (PREPAREOK,
        // CLOCKTIME, prepares, epoch installs).
        self.release_ready_reads(ctx);
    }

    /// Stamps trace-stage transitions on pending commands **this
    /// replica originated**: a command is
    /// [`Replicated`](TraceStage::Replicated) once a majority's
    /// cumulative ack watermark covers its timestamp, and
    /// [`Stable`](TraceStage::Stable) once `min(LatestTV)` passes it.
    /// Only the origin's vantage is stamped — the origin is where both
    /// conditions gate the commit, so its waits are the paper's latency
    /// decomposition (a remote replica can see a command
    /// majority-logged a full one-way hop before the origin's quorum
    /// ack returns, which would under-report the replication term).
    /// Both conditions are monotone in a watermark, so each scan only
    /// walks the pending commands a watermark newly passed (tracked by
    /// the `obs_*_floor` cursors) and stamps each stage exactly once —
    /// at the event that made it true. Only called while the driver is
    /// observing; stamps are write-only (commit decisions never read
    /// them).
    fn obs_scan(&mut self, ctx: &mut dyn Context<Self>) {
        use std::ops::Bound::{Excluded, Included};
        let top_lane = ReplicaId::new(u16::MAX);
        let stable = self.min_latest_tv();
        if stable > self.obs_stable_floor {
            let range = (Excluded(self.obs_stable_floor), Included(stable));
            for (&ts, (cmd, _)) in self.pending.range(range) {
                if ts.replica() == self.id {
                    ctx.trace(cmd.id, TraceStage::Stable);
                }
            }
            self.obs_stable_floor = stable;
        }
        let majority = self.membership.majority();
        let o = self.id;
        // The majority-th largest per-replica ack watermark for our own
        // lane: every pending command of ours at or below it is logged
        // by a majority.
        let mut acks: Vec<Micros> = self
            .membership
            .config()
            .iter()
            .map(|k| self.acked[k.index()][o.index()])
            .collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        let w = acks[majority - 1];
        let floor = self.obs_repl_floor[o.index()];
        if w > floor {
            let range = (
                Excluded(Timestamp::new(floor, top_lane)),
                Included(Timestamp::new(w, top_lane)),
            );
            for (&ts, (cmd, _)) in self.pending.range(range) {
                if ts.replica() == o {
                    ctx.trace(cmd.id, TraceStage::Replicated);
                }
            }
            self.obs_repl_floor[o.index()] = w;
        }
    }

    // ------------------------------------------------------------------
    // Local reads (stable-timestamp rule; see `rsm_core::read`)
    // ------------------------------------------------------------------

    /// Handles a client read: stamp it from the monotonic send-timestamp
    /// discipline and park it until the stable timestamp passes the
    /// stamp.
    ///
    /// Why the stamp makes the released prefix linearizable: a write `W`
    /// whose reply preceded this read's issue committed at its origin
    /// only after **this** replica's clock evidence (`LatestTV[self]` at
    /// the origin — a timestamp this replica itself sent, hence ≤
    /// `send_floor`) exceeded `ts_W`. The stamp is strictly above
    /// `send_floor`, so `ts_W < stamp` for every such `W`, and releasing
    /// at `stable ≥ stamp` guarantees `W` is already executed locally.
    /// Clock skew shifts only how long the wait takes — a fast local
    /// clock stamps high and waits for `min(LatestTV)` to catch up, a
    /// slow one stamps low and releases sooner — never the answer.
    fn handle_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        if self.frozen || self.needs_rejoin {
            self.queued_reads.push_back(cmd);
            return;
        }
        let stamp = match cmd.read_at {
            // A router-pinned snapshot read: park at the external cut
            // instead of stamping locally. The lane sits above every
            // real replica id, so a write stamped at the same
            // microsecond orders *below* the cut and is included —
            // "snapshot at t" means exactly the writes with ts ≤ t.
            // Every shard of a multi-key read parks at the same t, and
            // the exact-cut release in `try_commit` guarantees each
            // serves from precisely that prefix.
            Some(at) => Timestamp::new(at, ReplicaId::new(u16::MAX - 1)),
            None => self.next_send_ts(ctx),
        };
        self.read_queue.park(stamp, cmd);
        self.release_ready_reads(ctx);
    }

    /// Serves every parked read whose stamp the stable timestamp has
    /// passed: `min(LatestTV)` over the configuration has reached the
    /// stamp (no replica will ever send a smaller timestamp, so nothing
    /// below it can still arrive) **and** every pending command at or
    /// below the stamp has committed (commits drain in timestamp order,
    /// so an empty prefix of `pending` proves local execution covers
    /// the stamp).
    pub(crate) fn release_ready_reads(&mut self, ctx: &mut dyn Context<Self>) {
        if self.read_queue.is_empty() || self.frozen || self.needs_rejoin {
            return;
        }
        let stable = self.stable_timestamp();
        for cmd in self.read_queue.release(stable) {
            self.serve_read(cmd, ctx);
        }
    }

    /// The replica's current **stable timestamp**: every command at or
    /// below it has executed locally, and no replica will ever send a
    /// smaller timestamp — `min(LatestTV)` over the configuration,
    /// lowered below the first still-pending command. Reads parked at or
    /// below it are servable; a sharded router compares it against a
    /// chosen snapshot cut.
    pub fn stable_timestamp(&self) -> Timestamp {
        let mut stable = self.min_latest_tv();
        if let Some((&first_pending, _)) = self.pending.iter().next() {
            // Commands at or below the first pending timestamp are not
            // all executed yet; reads stamped past it must keep waiting.
            // (Timestamps are unique, so releasing strictly below it is
            // exact, not conservative.)
            stable = stable.min(Timestamp::new(
                first_pending.micros().saturating_sub(1),
                ReplicaId::new(u16::MAX - 1),
            ));
        }
        stable
    }

    /// Serves one released read from the local state machine, falling
    /// back to ordinary replication when the driver cannot serve reads
    /// (no state machine access) or the command is not actually
    /// read-only.
    fn serve_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        if let Some(at) = cmd.read_at {
            // A pinned snapshot read is only servable while the applied
            // prefix still sits at or below its cut — normally
            // guaranteed by the exact-cut release in `try_commit`. A
            // part arriving *after* the state passed its cut (delivery
            // slower than the router's lead, or a rejoin that installed
            // a newer checkpoint) cannot be answered exactly without
            // multi-versioning, so it is dropped, never answered
            // inexactly: the router times out and retries the whole
            // snapshot under a fresh cut.
            let cut = Timestamp::new(at, ReplicaId::new(u16::MAX - 1));
            if self.last_committed > cut {
                return;
            }
        }
        match ctx.sm_read(&cmd) {
            Some(result) => ctx.send_reply(Reply::new(cmd.id, result)),
            None => self.handle_batch(Batch::single(cmd), ctx),
        }
    }

    /// Number of reads currently parked (test observability).
    pub fn parked_reads(&self) -> usize {
        self.read_queue.len()
    }

    /// Writes a checkpoint record when the policy says one is due and the
    /// driver supports state machine snapshots. With compaction enabled
    /// (and the prepared-command history index not required — see
    /// [`ClockRsmConfig::checkpoint`]), the stable log is rewritten to the
    /// checkpoint plus the records still live above its watermark — the
    /// pending (uncommitted) prepares; the epoch and configuration travel
    /// inside the checkpoint itself.
    pub(crate) fn maybe_checkpoint(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.checkpointer.due() {
            return;
        }
        let Some(state) = ctx.sm_snapshot() else {
            return; // driver without snapshot support: replay-only recovery
        };
        self.checkpointer.taken();
        let cp = Checkpoint {
            applied: self.last_committed,
            epoch: self.epoch(),
            config: self.membership.config().to_vec(),
            snapshot: state,
            sessions: self.sessions.export(),
        };
        if self.checkpointer.policy().compact && !self.keeps_history() {
            let mut recs: Vec<LogRec> = Vec::with_capacity(1 + self.pending.len());
            recs.push(LogRec::Checkpoint(cp));
            for (&ts, (cmd, origin)) in &self.pending {
                recs.push(LogRec::Prepare {
                    ts,
                    origin: *origin,
                    cmd: cmd.clone(),
                });
            }
            ctx.log_rewrite(recs);
        } else {
            ctx.log_append(LogRec::Checkpoint(cp));
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 2: periodic clock broadcast (also the FD heartbeat)
    // ------------------------------------------------------------------

    fn clocktime_tick(&mut self, ctx: &mut dyn Context<Self>) {
        let Some(delta) = self.cfg.delta_us else {
            return;
        };
        // Re-arm first so a panic-free return always keeps the timer alive.
        ctx.set_timer(delta / 2, TOKEN_CLOCKTIME);
        if self.needs_rejoin {
            return;
        }
        let clock = ctx.clock();
        let my_latest = self.latest_tv[self.id.index()];
        if clock >= my_latest.micros().saturating_add(delta) {
            let ts = self.next_send_ts(ctx);
            self.broadcast_config(
                RsmMsg::ClockTime {
                    epoch: self.epoch(),
                    ts,
                },
                ctx,
            );
        }
    }

    // ------------------------------------------------------------------
    // Failure detector
    // ------------------------------------------------------------------

    fn fd_tick(&mut self, ctx: &mut dyn Context<Self>) {
        let Some(timeout) = self.cfg.fd_timeout_us else {
            return;
        };
        ctx.set_timer(timeout / 4, TOKEN_FD);
        if self.needs_rejoin || !self.reconfig.is_idle() {
            return;
        }
        let clock = ctx.clock();
        let suspects: Vec<ReplicaId> = self
            .membership
            .config()
            .iter()
            .copied()
            .filter(|&k| k != self.id && clock.saturating_sub(self.last_heard[k.index()]) > timeout)
            .collect();
        if self.frozen {
            // Liveness backstop: if the reconfigurer that froze us died
            // before reaching a decision, take over the reconfiguration
            // ourselves (the consensus instance keeps competing proposals
            // safe).
            if clock.saturating_sub(self.frozen_since) > 2 * timeout {
                self.frozen_since = clock; // back off before retrying again
                let new_config: Vec<ReplicaId> = self
                    .membership
                    .config()
                    .iter()
                    .copied()
                    .filter(|r| !suspects.contains(r))
                    .collect();
                if new_config.len() >= self.membership.majority() {
                    self.trigger_reconfigure(new_config, ctx);
                }
            }
            return;
        }
        if suspects.is_empty() {
            return;
        }
        let new_config: Vec<ReplicaId> = self
            .membership
            .config()
            .iter()
            .copied()
            .filter(|r| !suspects.contains(r))
            .collect();
        if new_config.len() >= self.membership.majority() {
            self.trigger_reconfigure(new_config, ctx);
        }
    }

    pub(crate) fn note_heard(&mut self, from: ReplicaId, ctx: &mut dyn Context<Self>) {
        let clock = ctx.clock();
        self.last_heard[from.index()] = clock;
    }

    // ------------------------------------------------------------------
    // Epoch hygiene
    // ------------------------------------------------------------------

    /// Classifies a data-plane message by its epoch tag: older epochs
    /// are dropped; newer ones must be buffered while we request the
    /// decisions we missed; current-epoch messages are processed. The
    /// caller rebuilds the owned message only on the buffering path, so
    /// the hot path never clones a batch.
    fn admit_epoch(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        ctx: &mut dyn Context<Self>,
    ) -> Admission {
        if epoch < self.epoch() {
            return Admission::Drop;
        }
        if epoch > self.epoch() {
            ctx.send(
                from,
                RsmMsg::DecisionRequest {
                    have_epoch: self.epoch(),
                },
            );
            return Admission::Buffer;
        }
        Admission::Process
    }

    /// Re-dispatches buffered requests and messages after an epoch install
    /// or unfreeze. Queued client batches are re-issued exactly as the
    /// driver delivered them — a freeze never merges or splits batches,
    /// so the batch policy holds across reconfigurations.
    pub(crate) fn drain_buffers(&mut self, ctx: &mut dyn Context<Self>) {
        let msgs: Vec<(ReplicaId, RsmMsg)> = self.queued_msgs.drain(..).collect();
        for (from, msg) in msgs {
            self.on_message(from, msg, ctx);
        }
        let batches: Vec<Batch> = self.queued_requests.drain(..).collect();
        for batch in batches {
            self.handle_batch(batch, ctx);
        }
        let reads: Vec<Command> = self.queued_reads.drain(..).collect();
        for cmd in reads {
            self.handle_read(cmd, ctx);
        }
        self.release_ready_reads(ctx);
    }
}

impl Protocol for ClockRsm {
    type Msg = RsmMsg;
    type LogRec = LogRec;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut dyn Context<Self>) {
        let clock = ctx.clock();
        for h in &mut self.last_heard {
            *h = clock;
        }
        if let Some(delta) = self.cfg.delta_us {
            ctx.set_timer(delta / 2, TOKEN_CLOCKTIME);
        }
        if let Some(timeout) = self.cfg.fd_timeout_us {
            ctx.set_timer(timeout / 4, TOKEN_FD);
        }
        if self.needs_rejoin {
            self.start_rejoin(ctx);
        }
    }

    fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.handle_batch(Batch::single(cmd), ctx);
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        self.handle_batch(batch, ctx);
    }

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.handle_read(cmd, ctx);
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::LocalStable
    }

    fn on_message(&mut self, from: ReplicaId, msg: RsmMsg, ctx: &mut dyn Context<Self>) {
        self.note_heard(from, ctx);
        match msg {
            RsmMsg::PrepareBatch {
                epoch,
                ts,
                origin,
                cmds,
            } => match self.admit_epoch(from, epoch, ctx) {
                // Algorithm 3 line 8: stop processing PREPARE while
                // suspended (buffered and replayed on unfreeze).
                Admission::Process if !self.frozen => {
                    self.handle_prepare_batch(ts, origin, cmds, ctx)
                }
                Admission::Process | Admission::Buffer => self.queued_msgs.push_back((
                    from,
                    RsmMsg::PrepareBatch {
                        epoch,
                        ts,
                        origin,
                        cmds,
                    },
                )),
                Admission::Drop => {}
            },
            RsmMsg::PrepareOk {
                epoch,
                up_to,
                clock_ts,
            } => match self.admit_epoch(from, epoch, ctx) {
                Admission::Process => self.handle_prepare_ok(from, up_to, clock_ts, ctx),
                Admission::Buffer => self.queued_msgs.push_back((
                    from,
                    RsmMsg::PrepareOk {
                        epoch,
                        up_to,
                        clock_ts,
                    },
                )),
                Admission::Drop => {}
            },
            RsmMsg::ClockTime { epoch, ts } => match self.admit_epoch(from, epoch, ctx) {
                Admission::Process => self.handle_clock_time(from, ts, ctx),
                Admission::Buffer => self
                    .queued_msgs
                    .push_back((from, RsmMsg::ClockTime { epoch, ts })),
                Admission::Drop => {}
            },
            RsmMsg::Suspend { epoch, cts } => self.handle_suspend(from, epoch, cts, ctx),
            RsmMsg::SuspendOk { epoch, cmds } => self.handle_suspend_ok(from, epoch, cmds, ctx),
            RsmMsg::Synod { epoch, msg } => self.handle_synod(from, epoch, msg, ctx),
            RsmMsg::RetrieveCmds { from_ts, to_ts } => {
                self.handle_retrieve(from, from_ts, to_ts, ctx)
            }
            RsmMsg::RetrieveReply {
                from_ts,
                to_ts,
                cmds,
            } => self.handle_retrieve_reply(from, from_ts, to_ts, cmds, ctx),
            RsmMsg::DecisionRequest { have_epoch } => {
                self.handle_decision_request(from, have_epoch, ctx)
            }
            RsmMsg::DecisionCatchup { decisions } => self.handle_decision_catchup(decisions, ctx),
        }
    }

    fn obs_poll(&mut self, ctx: &mut dyn Context<Self>) {
        // The stable-wait a command stamped right now would pay locally:
        // how far the stable timestamp trails this replica's clock.
        let clock = ctx.clock();
        let stable = self.stable_timestamp();
        ctx.obs_gauge(
            names::STABLE_LAG_US,
            clock.saturating_sub(stable.micros()) as i64,
        );
        // Per-peer LatestTV staleness — the peer holding the minimum is
        // the one gating the stable timestamp (paper §IV: commit latency
        // is dominated by the slowest clock-time stream).
        for peer in self.membership.config().to_vec() {
            let tv = self.latest_tv[peer.index()];
            ctx.obs_gauge_idx(
                names::LATEST_TV_STALENESS_US,
                peer,
                clock.saturating_sub(tv.micros()) as i64,
            );
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        match token {
            TOKEN_CLOCKTIME => self.clocktime_tick(ctx),
            TOKEN_ACK_WAIT => self.drain_wait_queue(ctx),
            TOKEN_FD => self.fd_tick(ctx),
            TOKEN_SYNOD_RETRY => self.synod_retry(ctx),
            TOKEN_RECONFIG_RETRY => self.reconfig_retry(ctx),
            _ => {}
        }
    }

    fn on_recover(&mut self, log: &[LogRec], ctx: &mut dyn Context<Self>) {
        // Checkpoint fast path (Section V-B): restore the most recent
        // snapshot and skip re-executing everything at or below its
        // timestamp. Falls back to a full replay when the driver cannot
        // restore snapshots (sound only while the log is uncompacted —
        // compaction requires install support, which both in-tree
        // drivers provide).
        let mut base_ts = Timestamp::ZERO;
        for rec in log.iter().rev() {
            if let LogRec::Checkpoint(cp) = rec {
                if ctx.sm_install(cp.snapshot.clone()) {
                    base_ts = cp.applied;
                    self.last_committed = cp.applied;
                    // The dedup window travels with the snapshot: restore
                    // it so retries of pre-checkpoint commands stay
                    // recognised (a malformed frame leaves it empty and
                    // replay above the watermark rebuilds what it can).
                    let _ = self.sessions.install(&cp.sessions);
                    // A compacted log may hold no Epoch records below the
                    // checkpoint; the checkpoint itself pins the
                    // membership it was taken in.
                    if cp.epoch > self.epoch() {
                        self.membership.install(cp.epoch, cp.config.clone());
                        self.reconfig.forget_instances_up_to(cp.epoch);
                    }
                }
                break;
            }
        }
        // Section V-B: scan the log, inserting PREPARE entries into a hash
        // table and executing them as their COMMIT marks are encountered —
        // commit marks are in timestamp order, so execution replays
        // exactly.
        let mut prepared: HashMap<Timestamp, (Command, ReplicaId)> = HashMap::new();
        let mut max_ts = Timestamp::ZERO;
        for rec in log {
            match rec {
                LogRec::Prepare { ts, origin, cmd } => {
                    prepared.insert(*ts, (cmd.clone(), *origin));
                    if self.keeps_history() {
                        self.history.insert(*ts, (*origin, cmd.clone()));
                    }
                    max_ts = max_ts.max(*ts);
                }
                LogRec::Commit { ts } => {
                    let entry = prepared.remove(ts);
                    if *ts <= base_ts {
                        continue; // already reflected in the checkpoint
                    }
                    if let Some((cmd, origin)) = entry {
                        self.last_committed = *ts;
                        self.committed_count += 1;
                        // Replay through the same dedup path as live
                        // execution so the rebuilt window matches what
                        // the replica held before the crash.
                        self.sessions.commit_dedup(
                            self.id,
                            Committed {
                                cmd,
                                origin,
                                order_hint: order_key(self.membership.epoch(), *ts),
                            },
                            ctx,
                        );
                    }
                }
                LogRec::Epoch { epoch, config } => {
                    if *epoch > self.epoch() {
                        self.membership.install(*epoch, config.clone());
                        self.reconfig.forget_instances_up_to(*epoch);
                    }
                }
                LogRec::Checkpoint(_) => {}
            }
        }
        // Never reuse timestamps at or below anything we logged before the
        // crash: peers hold our old promises. A compacted log may have
        // dropped our own prepares, but the checkpoint watermark bounds
        // them: nothing we sent before the crash can exceed both.
        self.send_floor = self
            .send_floor
            .max(max_ts.micros())
            .max(self.last_committed.micros());
        // Tail PREPAREs without commit marks are left to the rejoin
        // reconfiguration: any of them that reached a majority will be in
        // the decision (paper, Claim 3); the rest are discarded.
        self.needs_rejoin = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::CommandId;
    use rsm_core::id::ClientId;
    use rsm_core::Batch;

    type TestCtx = rsm_core::testing::TestCtx<ClockRsm>;

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"op"),
        )
    }

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn replica(i: u16, n: u16) -> ClockRsm {
        ClockRsm::new(
            r(i),
            Membership::uniform(n),
            ClockRsmConfig::default().with_delta_us(None),
        )
    }

    fn ts(micros: Micros, i: u16) -> Timestamp {
        Timestamp::new(micros, r(i))
    }

    /// Builds a single-command PREPAREBATCH (most tests drive the
    /// protocol one command at a time).
    fn prepare(epoch: Epoch, t: Timestamp, origin: ReplicaId, c: Command) -> RsmMsg {
        RsmMsg::PrepareBatch {
            epoch,
            ts: t,
            origin,
            cmds: Batch::single(c),
        }
    }

    #[test]
    fn broadcast_shares_the_batch_payload_across_peers() {
        // The allocation-lean fan-out contract: the per-peer clones of a
        // PREPAREBATCH share one command vector (Arc), so an N-peer
        // broadcast of a k-command batch clones pointers, not commands.
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        let batch = Batch::new((1..=64).map(cmd).collect());
        p.on_client_batch(batch.clone(), &mut ctx);
        let prepares: Vec<&Batch> = ctx
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                RsmMsg::PrepareBatch { cmds, .. } => Some(cmds),
                _ => None,
            })
            .collect();
        assert_eq!(prepares.len(), 3, "one PREPAREBATCH per config member");
        for sent in &prepares {
            assert!(
                sent.ptr_eq(&batch),
                "a peer copy deep-cloned the command payload"
            );
        }
    }

    #[test]
    fn request_broadcasts_prepare_to_everyone() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_client_request(cmd(1), &mut ctx);
        let prepares: Vec<&RsmMsg> = ctx
            .sends
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareBatch { .. }))
            .collect();
        assert_eq!(prepares.len(), 3, "PREPARE goes to all replicas incl self");
        match prepares[0] {
            RsmMsg::PrepareBatch { ts, origin, .. } => {
                assert_eq!(*origin, r(0));
                assert!(ts.micros() > 1_000);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn batched_request_reserves_contiguous_timestamps() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), &mut ctx);
        let heads: Vec<(Timestamp, usize)> = ctx
            .sends
            .iter()
            .filter_map(|(_, m)| match m {
                RsmMsg::PrepareBatch { ts, cmds, .. } => Some((*ts, cmds.len())),
                _ => None,
            })
            .collect();
        assert_eq!(heads.len(), 3, "one batch message per destination");
        assert!(heads.iter().all(|&(t, k)| t == heads[0].0 && k == 3));
        // The next stamp clears the whole reserved run.
        let next = p.next_send_ts(&mut ctx);
        assert!(next.micros() >= heads[0].0.micros() + 3);
    }

    #[test]
    fn prepare_is_logged_and_acked_with_greater_clock() {
        let mut p = replica(1, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_message(
            r(0),
            prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)),
            &mut ctx,
        );
        assert_eq!(ctx.log.len(), 1);
        let oks: Vec<&RsmMsg> = ctx
            .sends
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareOk { .. }))
            .collect();
        assert_eq!(oks.len(), 3, "PREPAREOK broadcast to all incl self");
        match oks[0] {
            RsmMsg::PrepareOk {
                up_to, clock_ts, ..
            } => {
                assert_eq!(*up_to, ts(500, 0));
                assert!(clock_ts.micros() > 500);
                assert_eq!(clock_ts.replica(), r(1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn batched_prepare_acks_once_covering_the_whole_run() {
        let mut p = replica(1, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_message(
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts: ts(500, 0),
                origin: r(0),
                cmds: Batch::new(vec![cmd(1), cmd(2), cmd(3), cmd(4)]),
            },
            &mut ctx,
        );
        assert_eq!(ctx.log.len(), 4, "every command of the batch is logged");
        assert_eq!(p.pending_count(), 4);
        let oks: Vec<&RsmMsg> = ctx
            .sends
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareOk { .. }))
            .collect();
        assert_eq!(oks.len(), 3, "ONE cumulative ack broadcast, not 4");
        match oks[0] {
            RsmMsg::PrepareOk { up_to, .. } => {
                assert_eq!(*up_to, ts(503, 0), "watermark covers the last command");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn prepare_from_the_future_waits_for_local_clock() {
        let mut p = replica(1, 3);
        let mut ctx = TestCtx::new(100);
        // Originator's clock (10_000) is far ahead of ours (≈100).
        p.on_message(
            r(0),
            prepare(Epoch::ZERO, ts(10_000, 0), r(0), cmd(1)),
            &mut ctx,
        );
        assert!(
            !ctx.sends
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. })),
            "must not ack before local clock passes ts"
        );
        assert_eq!(ctx.timers.len(), 1, "wait timer armed");
        // Fire the timer once the clock has advanced past ts.
        ctx.clock = 10_050;
        p.on_timer(TOKEN_ACK_WAIT, &mut ctx);
        let oks = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. }))
            .count();
        assert_eq!(oks, 3);
    }

    /// Drives a full three-replica commit at replica 0 by hand.
    #[test]
    fn command_commits_after_majority_and_stable_order() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_client_request(cmd(1), &mut ctx);
        let tcmd = match &ctx.take_sends()[0] {
            (_, RsmMsg::PrepareBatch { ts, .. }) => *ts,
            _ => unreachable!(),
        };
        // Self-delivery of own PREPARE.
        p.on_message(r(0), prepare(Epoch::ZERO, tcmd, r(0), cmd(1)), &mut ctx);
        // Own PREPAREOK (self-delivery).
        let own_ok = ctx
            .take_sends()
            .into_iter()
            .find_map(|(to, m)| match (to, &m) {
                (to, RsmMsg::PrepareOk { .. }) if to == r(0) => Some(m),
                _ => None,
            })
            .unwrap();
        p.on_message(r(0), own_ok, &mut ctx);
        assert!(ctx.commits.is_empty(), "one ack is not a majority");
        // r1 acks: majority reached, but r2's latest timestamp is unknown
        // (stable order not yet satisfied).
        p.on_message(
            r(1),
            RsmMsg::PrepareOk {
                epoch: Epoch::ZERO,
                up_to: tcmd,
                clock_ts: ts(tcmd.micros() + 10, 1),
            },
            &mut ctx,
        );
        assert!(
            ctx.commits.is_empty(),
            "stable order requires a newer timestamp from every replica"
        );
        // r2's clock time arrives (e.g. a CLOCKTIME or another command's
        // PREPAREOK): now ts ≤ min(LatestTV) and the command commits.
        p.on_message(
            r(2),
            RsmMsg::ClockTime {
                epoch: Epoch::ZERO,
                ts: ts(tcmd.micros() + 12, 2),
            },
            &mut ctx,
        );
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(ctx.commits[0].origin, r(0));
        assert_eq!(p.committed_count(), 1);
        assert_eq!(p.pending_count(), 0);
        // Commit mark appended after the prepare record.
        assert!(ctx.log.iter().any(|l| l.is_commit()));
    }

    #[test]
    fn commits_follow_timestamp_order_across_originators() {
        let mut p = replica(2, 3);
        let mut ctx = TestCtx::new(1_000);
        let t0 = ts(5_000, 0);
        let t1 = ts(4_000, 1); // smaller timestamp from r1
        for (origin, t) in [(r(0), t0), (r(1), t1)] {
            p.on_message(
                origin,
                prepare(Epoch::ZERO, t, origin, cmd(t.micros())),
                &mut ctx,
            );
        }
        ctx.take_sends();
        // Majority acks for BOTH, with clock_ts > both commands.
        for t in [t0, t1] {
            for k in [0u16, 1, 2] {
                p.on_message(
                    r(k),
                    RsmMsg::PrepareOk {
                        epoch: Epoch::ZERO,
                        up_to: t,
                        clock_ts: ts(6_000 + k as u64, k),
                    },
                    &mut ctx,
                );
            }
        }
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].cmd.id.seq, 4_000, "smaller ts first");
        assert_eq!(ctx.commits[1].cmd.id.seq, 5_000);
        assert!(ctx.commits[0].order_hint < ctx.commits[1].order_hint);
    }

    #[test]
    fn prefix_replication_blocks_later_commands() {
        // A command with a larger timestamp reaches majority + stability,
        // but an earlier pending command hasn't: nothing commits.
        let mut p = replica(2, 3);
        let mut ctx = TestCtx::new(1_000);
        let early = ts(4_000, 0);
        let late = ts(5_000, 1);
        for (origin, t) in [(r(0), early), (r(1), late)] {
            p.on_message(
                origin,
                prepare(Epoch::ZERO, t, origin, cmd(t.micros())),
                &mut ctx,
            );
        }
        // Acks only for the late command.
        for k in [0u16, 1, 2] {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: late,
                    clock_ts: ts(6_000 + k as u64, k),
                },
                &mut ctx,
            );
        }
        assert!(
            ctx.commits.is_empty(),
            "prefix replication must hold back the later command"
        );
        // Early command's majority arrives: both commit, in order.
        for k in [0u16, 1] {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: early,
                    clock_ts: ts(6_100 + k as u64, k),
                },
                &mut ctx,
            );
        }
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].cmd.id.seq, 4_000);
    }

    #[test]
    fn stale_epoch_messages_dropped_and_newer_buffered() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        // Move to epoch 1 so an Epoch::ZERO message is genuinely stale.
        p.membership.install(Epoch(1), vec![r(0), r(1), r(2)]);
        let before = p.latest_tv[1];
        // Stale epoch: dropped outright, LatestTV untouched.
        p.on_message(
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch::ZERO,
                ts: ts(2_000, 1),
            },
            &mut ctx,
        );
        assert_eq!(p.latest_tv[1], before, "stale-epoch msg must be dropped");
        // Current epoch: applied.
        p.on_message(
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch(1),
                ts: ts(2_500, 1),
            },
            &mut ctx,
        );
        assert_eq!(p.latest_tv[1], ts(2_500, 1));
        // Future epoch: buffered + decision request sent.
        p.on_message(
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch(3),
                ts: ts(9_000, 1),
            },
            &mut ctx,
        );
        assert_eq!(p.latest_tv[1], ts(2_500, 1), "future-epoch msg not applied");
        assert!(ctx
            .sends
            .iter()
            .any(|(_, m)| matches!(m, RsmMsg::DecisionRequest { .. })));
        assert_eq!(p.queued_msgs.len(), 1);
    }

    #[test]
    fn clocktime_broadcast_fires_when_quiet() {
        let mut p = ClockRsm::new(
            r(0),
            Membership::uniform(3),
            ClockRsmConfig::default().with_delta_us(Some(5_000)),
        );
        let mut ctx = TestCtx::new(0);
        p.on_start(&mut ctx);
        assert!(ctx.timers.iter().any(|(_, t)| *t == TOKEN_CLOCKTIME));
        ctx.clock = 10_000; // quiet for > delta
        p.on_timer(TOKEN_CLOCKTIME, &mut ctx);
        let sent = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::ClockTime { .. }))
            .count();
        assert_eq!(sent, 3);
        // Self-delivery updates our own LatestTV entry; the next tick
        // within delta must not rebroadcast.
        let (_, m) = ctx.sends[0].clone();
        p.on_message(r(0), m, &mut ctx);
        ctx.take_sends();
        p.on_timer(TOKEN_CLOCKTIME, &mut ctx);
        assert_eq!(
            ctx.sends
                .iter()
                .filter(|(_, m)| matches!(m, RsmMsg::ClockTime { .. }))
                .count(),
            0,
            "no rebroadcast within delta"
        );
    }

    #[test]
    fn send_timestamps_strictly_increase() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        ctx.clock_step = 0; // frozen clock: stamper must still increase
        let a = p.next_send_ts(&mut ctx);
        let b = p.next_send_ts(&mut ctx);
        let c = p.next_send_ts(&mut ctx);
        assert!(a < b && b < c);
    }

    #[test]
    fn rejoining_replica_logs_but_never_acks() {
        // Prepares may have been lost while this replica was down; a
        // cumulative PREPAREOK sent before the rejoin reconfiguration
        // completes would falsely cover them. The replica still logs
        // (shrinking the post-rejoin state transfer) but stays silent.
        let mut p = replica(1, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_recover(&[], &mut ctx);
        assert!(p.needs_rejoin);
        p.on_message(
            r(0),
            prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)),
            &mut ctx,
        );
        assert_eq!(ctx.log.len(), 1, "the prepare is still logged");
        assert!(
            !ctx.sends
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. })),
            "no cumulative ack may leave before the rejoin completes"
        );
        assert!(p.wait_queue.is_empty(), "no deferred ack either");
    }

    #[test]
    fn freeze_preserves_client_batch_boundaries() {
        // Batches queued during a freeze must re-issue exactly as the
        // driver delivered them: never merged (policy cap would be
        // violated) and never split.
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.frozen = true;
        p.on_client_batch(Batch::new(vec![cmd(1), cmd(2)]), &mut ctx);
        p.on_client_request(cmd(3), &mut ctx);
        assert!(ctx.sends.is_empty(), "frozen: nothing leaves");
        p.frozen = false;
        p.drain_buffers(&mut ctx);
        let shapes: Vec<usize> = ctx
            .sends
            .iter()
            .filter_map(|(to, m)| match m {
                RsmMsg::PrepareBatch { cmds, .. } if *to == r(0) => Some(cmds.len()),
                _ => None,
            })
            .collect();
        assert_eq!(shapes, vec![2, 1], "original batch boundaries kept");
    }

    #[test]
    fn recovery_replays_committed_prefix_in_order() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        let t1 = ts(100, 1);
        let t2 = ts(200, 0);
        let log = vec![
            LogRec::Prepare {
                ts: t2,
                origin: r(0),
                cmd: cmd(2),
            },
            LogRec::Prepare {
                ts: t1,
                origin: r(1),
                cmd: cmd(1),
            },
            LogRec::Commit { ts: t1 },
            LogRec::Commit { ts: t2 },
            LogRec::Prepare {
                ts: ts(300, 0),
                origin: r(0),
                cmd: cmd(3),
            }, // tail without commit
        ];
        p.on_recover(&log, &mut ctx);
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].cmd.id.seq, 1);
        assert_eq!(ctx.commits[1].cmd.id.seq, 2);
        assert!(p.needs_rejoin);
        assert!(p.send_floor >= 300, "must not reuse logged timestamps");
    }

    fn read(seq: u64) -> Command {
        Command::read(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"get"),
        )
    }

    /// Advances every replica's `LatestTV` entry past `micros` via
    /// CLOCKTIME messages (the stable-timestamp feed).
    fn advance_latest_tv(p: &mut ClockRsm, micros: Micros, ctx: &mut TestCtx) {
        for k in 0..3u16 {
            p.on_message(
                r(k),
                RsmMsg::ClockTime {
                    epoch: p.epoch(),
                    ts: ts(micros, k),
                },
                ctx,
            );
        }
    }

    #[test]
    fn read_parks_until_stable_timestamp_passes_its_stamp() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.on_client_read(read(7), &mut ctx);
        assert_eq!(p.parked_reads(), 1);
        assert!(
            ctx.read_replies.is_empty() && ctx.sends.is_empty(),
            "a read neither answers early nor touches the wire"
        );
        // Two of three clocks pass the stamp: still not stable.
        for k in 0..2u16 {
            p.on_message(
                r(k),
                RsmMsg::ClockTime {
                    epoch: Epoch::ZERO,
                    ts: ts(5_000, k),
                },
                &mut ctx,
            );
        }
        assert_eq!(p.parked_reads(), 1, "min(LatestTV) still below the stamp");
        // The third clock arrives: stable timestamp passes the stamp.
        p.on_message(
            r(2),
            RsmMsg::ClockTime {
                epoch: Epoch::ZERO,
                ts: ts(5_000, 2),
            },
            &mut ctx,
        );
        assert_eq!(p.parked_reads(), 0);
        assert_eq!(ctx.read_replies.len(), 1);
        assert_eq!(ctx.read_replies[0].id.seq, 7);
        assert_eq!(&ctx.read_replies[0].result[..], b"read:7");
        assert!(
            ctx.commits.is_empty() && ctx.log.is_empty(),
            "local reads never commit or log"
        );
    }

    #[test]
    fn read_waits_for_smaller_pending_commands_to_commit() {
        let mut p = replica(2, 3);
        let mut ctx = TestCtx::new(1_000);
        // A write with a small timestamp is pending (not yet majority-
        // acked); a read stamped above it must wait even once every
        // clock passed the stamp.
        p.on_message(
            r(0),
            prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)),
            &mut ctx,
        );
        ctx.take_sends();
        p.on_client_read(read(9), &mut ctx);
        advance_latest_tv(&mut p, 50_000, &mut ctx);
        assert_eq!(
            p.parked_reads(),
            1,
            "a pending write below the stamp blocks the read"
        );
        assert!(ctx.read_replies.is_empty());
        // Majority acks arrive, the write commits, the read releases.
        for k in [0u16, 1, 2] {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: ts(500, 0),
                    clock_ts: ts(60_000 + k as u64, k),
                },
                &mut ctx,
            );
        }
        assert_eq!(ctx.commits.len(), 1, "the write committed");
        assert_eq!(p.parked_reads(), 0);
        assert_eq!(ctx.read_replies.len(), 1);
    }

    #[test]
    fn read_falls_back_to_replication_without_sm_access() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        ctx.serve_reads = false; // driver cannot answer reads locally
        p.on_client_read(read(3), &mut ctx);
        advance_latest_tv(&mut p, 50_000, &mut ctx);
        assert_eq!(p.parked_reads(), 0);
        assert!(ctx.read_replies.is_empty());
        assert!(
            ctx.sends
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareBatch { .. })),
            "unserveable read must be replicated as an ordinary command"
        );
    }

    #[test]
    fn frozen_replica_queues_reads_and_restamps_on_unfreeze() {
        let mut p = replica(0, 3);
        let mut ctx = TestCtx::new(1_000);
        p.frozen = true;
        p.on_client_read(read(4), &mut ctx);
        assert_eq!(p.parked_reads(), 0, "frozen: not stamped yet");
        assert_eq!(p.queued_reads.len(), 1);
        p.frozen = false;
        p.drain_buffers(&mut ctx);
        assert_eq!(p.queued_reads.len(), 0);
        assert_eq!(p.parked_reads(), 1, "re-stamped and parked");
        advance_latest_tv(&mut p, 50_000, &mut ctx);
        assert_eq!(ctx.read_replies.len(), 1);
    }

    #[test]
    fn clock_rsm_reports_local_stable_read_path() {
        let p = replica(0, 3);
        assert_eq!(p.read_path(), ReadPath::LocalStable);
    }

    #[test]
    fn order_key_is_epoch_major() {
        let a = order_key(Epoch(0), ts(999_999, 7));
        let b = order_key(Epoch(1), ts(1, 0));
        assert!(a < b);
        let c = order_key(Epoch(1), ts(1, 1));
        assert!(b < c);
    }

    #[test]
    fn order_keys_distinct_across_max_membership() {
        // All 256 replica ids at the same micros must produce distinct,
        // ordered keys (the full width of the 8-bit lane).
        let keys: Vec<u64> = (0..MAX_ORDER_KEY_REPLICAS)
            .map(|i| order_key(Epoch::ZERO, ts(42, i)))
            .collect();
        let mut sorted = keys.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "order-key layout")]
    fn oversized_membership_is_rejected_at_construction() {
        // Replica ids ≥ 256 would silently collide in the order key's
        // 8-bit replica lane; construction must refuse them outright.
        let _ = ClockRsm::new(
            r(0),
            Membership::uniform(300),
            ClockRsmConfig::default().with_delta_us(None),
        );
    }
}
