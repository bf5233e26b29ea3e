//! The sans-io protocol abstraction.
//!
//! A replication protocol is a deterministic state machine driven by four
//! kinds of events — startup, client requests, peer messages, and timers —
//! and it reacts by invoking operations on a [`Context`]: reading its local
//! physical clock, sending messages, appending to its stable log, committing
//! commands, and arming timers.
//!
//! The embedding driver (the `simnet` simulator or the threaded
//! `rsm-runtime`) owns the transport, the clock, and the stable storage, and
//! is responsible for:
//!
//! * delivering messages FIFO per sender→receiver pair (the paper's channel
//!   assumption, Section II-A);
//! * delivering self-addressed messages (a protocol broadcasting "to all
//!   replicas in Config" includes itself, as in the paper's pseudocode);
//! * applying committed commands to the replicated state machine in the
//!   exact order [`Context::commit`] was called, and replying to the client
//!   when the committed command originated at this replica;
//! * persisting appended log records so they survive crash/recovery.

use std::fmt;

use crate::batch::Batch;
use crate::command::{Command, Committed, Reply};
use crate::id::ReplicaId;
use crate::read::ReadPath;
use crate::time::Micros;

/// A protocol-chosen timer discriminant, echoed back in
/// [`Protocol::on_timer`] when the timer fires.
///
/// Protocols encode what the timer means in the value (e.g. "CLOCKTIME
/// broadcast due", "ack for timestamp t can now be sent"). Timers are
/// one-shot; periodic behaviour is obtained by re-arming.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

impl fmt::Debug for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer({})", self.0)
    }
}

/// The environment a protocol runs in. Implemented by drivers; used by
/// protocols.
///
/// All methods take `&mut self` because the driver records effects (and the
/// clock applies a monotonicity bump on every read).
pub trait Context<P: Protocol + ?Sized> {
    /// Reads this replica's **physical clock**, in microseconds.
    ///
    /// The clock is loosely synchronized across replicas (e.g. by NTP) and
    /// strictly monotonic: repeated reads return strictly increasing values.
    /// Nothing about protocol *safety* may depend on the synchronization
    /// quality — only latency may (the paper's central design rule).
    fn clock(&mut self) -> Micros;

    /// Sends `msg` to replica `to`. Sending to self is allowed and is
    /// delivered like any other message (with near-zero latency), so
    /// protocol code can broadcast "to all replicas in Config" exactly as
    /// the paper's pseudocode does.
    fn send(&mut self, to: ReplicaId, msg: P::Msg);

    /// Appends a record to this replica's stable log. The record is durable
    /// once the call returns (the simulator models write latency by
    /// scheduling, the runtime by synchronous appends).
    fn log_append(&mut self, rec: P::LogRec);

    /// Rewrites the entire stable log. Only the reconfiguration protocol
    /// uses this (Algorithm 3 removes un-executed `PREPARE` records beyond
    /// the decided timestamp); normal operation is append-only.
    fn log_rewrite(&mut self, recs: Vec<P::LogRec>);

    /// Hands a decided command to the state machine for execution.
    ///
    /// Must be called in execution order; the driver applies commands
    /// serially and replies to the issuing client if `committed.origin`
    /// is this replica. Returns the state machine's result for the
    /// command, so protocols can cache it in their session dedup window
    /// ([`SessionTable`](crate::session::SessionTable)) and re-serve it
    /// to a retrying client without re-applying.
    fn commit(&mut self, committed: Committed) -> bytes::Bytes;

    /// Arms a one-shot timer that fires `after` microseconds from now,
    /// delivering `token` to [`Protocol::on_timer`].
    fn set_timer(&mut self, after: Micros, token: TimerToken);

    /// Takes a snapshot of the replicated state machine, if the driver
    /// supports it. Used by protocols implementing checkpointing
    /// (Section V-B of the paper); the default returns `None`, which
    /// simply disables the optimization.
    fn sm_snapshot(&mut self) -> Option<bytes::Bytes> {
        None
    }

    /// Restores the replicated state machine from a checkpoint snapshot
    /// during recovery. Returns false (checkpoint ignored, full replay
    /// required) when the driver does not support snapshots.
    fn sm_install(&mut self, _snapshot: bytes::Bytes) -> bool {
        false
    }

    /// Executes a read-only command against the local state machine's
    /// current applied prefix, returning its result **without** counting
    /// a commit or mutating anything (the local-read path,
    /// `rsm_core::read`). The protocol must only call this once it has
    /// established that the local prefix is linearizable for the read
    /// (stable timestamp passed the stamp, leader lease valid, quorum
    /// mark executed). Returns `None` when the driver has no state
    /// machine access or the command is not actually read-only; the
    /// protocol then falls back to replicating the read as an ordinary
    /// command.
    fn sm_read(&mut self, _cmd: &Command) -> Option<bytes::Bytes> {
        None
    }

    /// Routes `reply` to the issuing client attached to this replica,
    /// bypassing the commit path. Used exclusively for locally served
    /// reads (which never commit); protocols only call it at the read's
    /// origin replica. The default drops the reply, which is only
    /// correct for drivers whose [`sm_read`](Context::sm_read) never
    /// returns `Some` (the two always come as a pair).
    fn send_reply(&mut self, _reply: Reply) {}

    /// Whether the driver is recording observations. Protocols may use
    /// this to skip work that exists only to produce observations (e.g.
    /// scanning pending entries for trace-stage transitions) — never to
    /// change protocol behaviour.
    fn obs_active(&self) -> bool {
        false
    }

    /// Adds `delta` to this replica's counter `name` (see
    /// [`obs::names`](crate::obs::names)). Defaults to a no-op: drivers
    /// with an observability registry forward into it, everything else
    /// pays nothing. Like all `obs_*` hooks this must never influence
    /// protocol behaviour — observations are write-only.
    fn obs_count(&mut self, _name: &'static str, _delta: u64) {}

    /// Sets this replica's gauge `name` (no-op by default).
    fn obs_gauge(&mut self, _name: &'static str, _value: i64) {}

    /// Sets this replica's per-peer gauge `name.idx` (no-op by
    /// default), e.g. `LatestTV` staleness per peer.
    fn obs_gauge_idx(&mut self, _name: &'static str, _idx: ReplicaId, _value: i64) {}

    /// Stamps trace stage `stage` on command `id`'s span at the current
    /// time (no-op by default). Protocols stamp the ordering stages
    /// ([`Proposed`](crate::obs::TraceStage::Proposed),
    /// [`Replicated`](crate::obs::TraceStage::Replicated),
    /// [`Stable`](crate::obs::TraceStage::Stable)) from the command's
    /// origin replica; drivers own submission, commit, execution, and
    /// reply stamps.
    fn trace(&mut self, _id: crate::command::CommandId, _stage: crate::obs::TraceStage) {}
}

/// A replication protocol, written sans-io.
///
/// Implementations in this workspace: `clock_rsm::ClockRsm`,
/// `paxos::MultiPaxos` (plain and bcast), `mencius::MenciusBcast`.
///
/// Determinism contract: given the same sequence of callback invocations
/// with the same arguments and the same `Context` responses, a protocol must
/// perform the same `Context` calls. This is what makes simulation runs
/// reproducible and lets the property tests explore schedules.
pub trait Protocol {
    /// Wire message type exchanged between replicas of this protocol.
    type Msg: Clone + fmt::Debug + Send + crate::wire::WireSize + 'static;

    /// Stable log record type of this protocol.
    type LogRec: Clone + fmt::Debug + Send + 'static;

    /// This replica's id.
    fn id(&self) -> ReplicaId;

    /// Invoked once when the replica starts (or restarts after recovery),
    /// before any other event. Protocols arm their periodic timers here.
    fn on_start(&mut self, ctx: &mut dyn Context<Self>);

    /// A local client submitted `cmd` for replication (the paper's
    /// `⟨REQUEST cmd⟩`).
    fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>);

    /// A driver coalesced several queued client requests into one ordered
    /// [`Batch`] (see [`BatchPolicy`](crate::BatchPolicy)).
    ///
    /// Protocols that replicate whole batches — one wire message, one
    /// acknowledgement, contiguous order coordinates — override this. The
    /// default expands the batch into per-command requests, so a protocol
    /// without native batching still behaves correctly (it merely gains
    /// nothing from coalescing). Implementations must commit the batch's
    /// commands in batch order, exactly as if each had been submitted
    /// individually: batching must never be observable in the committed
    /// sequence.
    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        for cmd in batch {
            self.on_client_request(cmd, ctx);
        }
    }

    /// A local client submitted a **read-only** command (one with
    /// [`Command::read_only`] set; drivers route those here, outside the
    /// write batching pipeline). The default replicates the read as an
    /// ordinary command — always linearizable, full commit latency —
    /// matching a [`read_path`](Protocol::read_path) of
    /// [`ReadPath::Replicated`]. Protocols with a local read path
    /// override both.
    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.on_client_request(cmd, ctx);
    }

    /// The local-read capability this protocol implements (see
    /// `rsm_core::read` for the invariant behind each variant).
    fn read_path(&self) -> ReadPath {
        ReadPath::Replicated
    }

    /// Where clients of this replica's site should send **read-only**
    /// commands, when somewhere other than their own site is better.
    ///
    /// Leader-lease protocols return the believed lease holder: a read
    /// sent straight there is served from the lease without a quorum
    /// probe, so a client paying one WAN hop to the leader beats paying
    /// a probe round trip from its local follower. Protocols whose reads
    /// are symmetric (Clock-RSM's stable-timestamp reads, Mencius's
    /// commit-watermark probes) return `None`: the local site is already
    /// the right target. The hint is advisory and may be stale across a
    /// fail-over — a read routed to a deposed leader is simply lost and
    /// retried, like any command lost to reconfiguration.
    fn lease_holder_hint(&self) -> Option<ReplicaId> {
        None
    }

    /// A message arrived from replica `from` (possibly self).
    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self>);

    /// A timer armed via [`Context::set_timer`] fired.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>);

    /// The replica restarted after a crash with its stable log intact.
    /// `log` is the full sequence of records appended before the crash.
    /// Protocols rebuild volatile state; commands already known committed
    /// must be re-committed (in order) so the driver can rebuild the state
    /// machine.
    fn on_recover(&mut self, log: &[Self::LogRec], ctx: &mut dyn Context<Self>);

    /// Periodic observability poll: the driver invokes this at the
    /// configured interval when observation is on, and the protocol
    /// publishes gauge-shaped state through the `Context::obs_*` hooks
    /// (Clock-RSM: stable-timestamp lag and per-peer `LatestTV`
    /// staleness; Paxos: current ballot). **Read-only by contract**:
    /// implementations must not mutate protocol state, send messages,
    /// or arm timers — an instrumented run must commit the same
    /// sequence as an uninstrumented one. The default publishes
    /// nothing.
    fn obs_poll(&mut self, _ctx: &mut dyn Context<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandId;
    use crate::id::ClientId;
    use bytes::Bytes;

    /// A trivial protocol that commits every request immediately; exercises
    /// the trait surface and documents the driver contract in miniature.
    struct Echo {
        id: ReplicaId,
        order: u64,
    }

    impl Protocol for Echo {
        type Msg = ();
        type LogRec = Command;

        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, ctx: &mut dyn Context<Self>) {
            ctx.set_timer(5, TimerToken(1));
        }
        fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
            ctx.log_append(cmd.clone());
            self.order += 1;
            ctx.commit(Committed {
                cmd,
                origin: self.id,
                order_hint: self.order,
            });
        }
        fn on_message(&mut self, _: ReplicaId, _: (), _: &mut dyn Context<Self>) {}
        fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, log: &[Command], ctx: &mut dyn Context<Self>) {
            for cmd in log {
                self.order += 1;
                ctx.commit(Committed {
                    cmd: cmd.clone(),
                    origin: self.id,
                    order_hint: self.order,
                });
            }
        }
    }

    type TestCtx = crate::testing::TestCtx<Echo>;

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn echo_protocol_commits_immediately() {
        let mut p = Echo {
            id: ReplicaId::new(0),
            order: 0,
        };
        let mut ctx = TestCtx::new(0);
        p.on_start(&mut ctx);
        assert_eq!(ctx.timers, vec![(5, TimerToken(1))]);
        p.on_client_request(cmd(1), &mut ctx);
        p.on_client_request(cmd(2), &mut ctx);
        assert_eq!(ctx.commits.len(), 2);
        assert!(ctx.commits[0].order_hint < ctx.commits[1].order_hint);
        assert_eq!(ctx.log.len(), 2);
    }

    #[test]
    fn echo_protocol_recovers_from_log() {
        let mut p = Echo {
            id: ReplicaId::new(0),
            order: 0,
        };
        let mut ctx = TestCtx::new(0);
        let log = vec![cmd(1), cmd(2), cmd(3)];
        p.on_recover(&log, &mut ctx);
        assert_eq!(ctx.commits.len(), 3);
    }

    #[test]
    fn commit_dedup_skips_duplicates_and_serves_cached_reply() {
        use crate::session::SessionTable;
        let me = ReplicaId::new(0);
        let mut table = SessionTable::new(4);
        let mut ctx = TestCtx::new(0);
        let committed = Committed {
            cmd: cmd(1),
            origin: me,
            order_hint: 1,
        };
        assert!(table.commit_dedup(me, committed.clone(), &mut ctx));
        assert_eq!(ctx.commits.len(), 1);
        // A duplicate (same CommandId) is not re-applied: the origin gets
        // the cached reply instead.
        assert!(!table.commit_dedup(me, committed.clone(), &mut ctx));
        assert_eq!(ctx.commits.len(), 1);
        assert_eq!(ctx.read_replies.len(), 1);
        assert_eq!(ctx.read_replies[0].id, committed.cmd.id);
        assert_eq!(ctx.read_replies[0].result, committed.cmd.payload);
        // At a non-origin replica the duplicate is dropped silently.
        let elsewhere = Committed {
            origin: ReplicaId::new(1),
            ..committed
        };
        assert!(!table.commit_dedup(me, elsewhere, &mut ctx));
        assert_eq!(ctx.read_replies.len(), 1);
    }

    #[test]
    fn recording_clock_is_strictly_monotonic() {
        let mut ctx = TestCtx::new(0);
        let a = Context::<Echo>::clock(&mut ctx);
        let b = Context::<Echo>::clock(&mut ctx);
        assert!(b > a);
    }
}
