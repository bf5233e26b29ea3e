//! The per-replica node thread: a [`NodeCore`] behind an inbox.
//!
//! The thread owns only what threads need: the inbox receiver, the timer
//! heap, the observability poll interval, and the outbound halves that
//! carry the core's [`Effects`] to peers and clients. Each wake-up drains
//! what is queued in the inbox, up to one full batch's worth of inputs
//! (`max_batch`), into one [`NodeCore::drain`] step, so the core sees
//! the same shape of input the simulator gives it while sends, replies
//! and due timers still go out after every batch's worth of work.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use bytes::Bytes;

use rsm_core::command::{Command, Reply};
use rsm_core::id::ReplicaId;
use rsm_core::node::{Clock, Effects, Input, NodeCore};
use rsm_core::obs::span_key;
use rsm_core::protocol::{Protocol, TimerToken};
use rsm_core::time::{Micros, MonotonicStamper};

use rsm_obs::{Gauge, Tracer};
use rsm_transport::MsgSink;

use crate::net::{NetInput, Wire};

/// Where a node's outbound peer messages go — decided once at cluster
/// spawn by the configured [`ClusterTransport`](crate::ClusterTransport).
pub(crate) enum Outbound<P: Protocol> {
    /// In-process transport: every message is a channel send to the
    /// WAN-emulator thread, which routes it to the destination inbox
    /// after the emulated delay.
    Wan(Sender<NetInput<P::Msg>>),
    /// Socket transport: messages are encoded once and framed onto
    /// per-peer TCP/UDS links by an `rsm_transport::Hub` (which also
    /// short-circuits self-sends back into this node's inbox).
    Socket(Box<dyn MsgSink<P::Msg>>),
}

/// Input to a node thread.
pub(crate) enum NodeInput<M> {
    /// A peer message.
    Msg(Wire<M>),
    /// A client request routed to this (local) replica.
    Request(Command),
    /// Graceful shutdown; the thread answers with its final report.
    Stop,
}

/// The sending half of a node's inbox. Every sender counts what it
/// queues into a shared depth gauge and the node thread subtracts what
/// it receives, so admission control reads the inbox depth without
/// touching the channel.
pub(crate) struct InboxTx<M> {
    tx: Sender<NodeInput<M>>,
    depth: Gauge,
}

impl<M> Clone for InboxTx<M> {
    fn clone(&self) -> Self {
        InboxTx {
            tx: self.tx.clone(),
            depth: self.depth.clone(),
        }
    }
}

impl<M> InboxTx<M> {
    /// Queues `input`; dropped when the node thread has exited.
    pub(crate) fn send(&self, input: NodeInput<M>) {
        self.depth.add(1);
        if self.tx.send(input).is_err() {
            self.depth.add(-1);
        }
    }

    /// Inputs queued and not yet received by the node thread.
    pub(crate) fn depth(&self) -> i64 {
        self.depth.get()
    }
}

/// The receiving half of a node's inbox (see [`InboxTx`]).
pub(crate) struct InboxRx<M> {
    rx: Receiver<NodeInput<M>>,
    depth: Gauge,
}

impl<M> InboxRx<M> {
    /// Waits up to `timeout` (forever when `None`) for the next input.
    pub(crate) fn recv(&self, timeout: Option<Duration>) -> Result<NodeInput<M>, RecvTimeoutError> {
        let input = match timeout {
            Some(t) => self.rx.recv_timeout(t)?,
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)?,
        };
        self.depth.add(-1);
        Ok(input)
    }

    /// The next input if one is already queued.
    pub(crate) fn try_recv(&self) -> Option<NodeInput<M>> {
        let input = self.rx.try_recv().ok()?;
        self.depth.add(-1);
        Some(input)
    }
}

/// A node inbox channel.
pub(crate) fn inbox<M>() -> (InboxTx<M>, InboxRx<M>) {
    let (tx, rx) = mpsc::channel();
    let depth = Gauge::default();
    (
        InboxTx {
            tx,
            depth: depth.clone(),
        },
        InboxRx { rx, depth },
    )
}

/// What a node reports when it stops.
#[derive(Debug)]
pub struct NodeReport {
    /// The replica.
    pub id: ReplicaId,
    /// Commands executed over the node's lifetime.
    pub commit_count: u64,
    /// Final state machine snapshot.
    pub snapshot: Bytes,
    /// Number of stable log records written.
    pub log_len: usize,
}

/// The replies one step produced, shipped to the reply router as
/// **one** channel send however many co-located clients it answered.
pub(crate) type ReplyBatch = Vec<Reply>;

/// A replica's physical clock: microseconds since the cluster epoch plus
/// the configured offset, made strictly monotonic. Read live, so time
/// advances within a step the way it does on a real machine.
pub(crate) struct WallClock {
    epoch: Instant,
    offset_us: i64,
    stamper: MonotonicStamper,
}

impl WallClock {
    pub(crate) fn new(epoch: Instant, offset_us: i64) -> Self {
        WallClock {
            epoch,
            offset_us,
            stamper: MonotonicStamper::new(),
        }
    }
}

impl Clock for WallClock {
    fn read(&mut self, _now: Micros) -> Micros {
        let elapsed = self.epoch.elapsed().as_micros() as i64;
        self.stamper
            .stamp((elapsed + self.offset_us).max(0) as Micros)
    }
}

pub(crate) struct NodeHarness<P: Protocol> {
    pub core: NodeCore<P, WallClock>,
    pub inbox: InboxRx<P::Msg>,
    pub outbound: Outbound<P>,
    pub reply_tx: Sender<ReplyBatch>,
    /// The cluster epoch. Step instants and trace stamps are monotonic
    /// microseconds since it — the shared cross-node timeline, never the
    /// per-node skewed protocol clock.
    pub epoch: Instant,
    /// Span collector when the cluster observes (the node opens each
    /// write's span when it drains the request).
    pub tracer: Option<Tracer>,
    /// How often `Protocol::obs_poll` runs (from `ObsConfig`); `None`
    /// when not observing.
    pub poll_every: Option<Duration>,
    /// Most inputs one step takes from the inbox: the batch policy's
    /// `max_batch`. A backlog is worked off in steps of this size, so
    /// no step withholds its sends and replies, or delays due timers,
    /// behind an unbounded drain.
    pub max_drain: usize,
}

/// Armed one-shot protocol timers, earliest first (ties in arming
/// order).
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, u64, TimerToken)>>,
    armed: u64,
}

impl Timers {
    fn arm(&mut self, due: Instant, token: TimerToken) {
        self.armed += 1;
        self.heap.push(Reverse((due, self.armed, token)));
    }

    fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((due, _, _))| *due)
    }

    /// The earliest timer due by `now`, disarmed.
    fn pop_due(&mut self, now: Instant) -> Option<TimerToken> {
        if self.next_due()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse((_, _, token))| token)
    }
}

impl<P: Protocol> NodeHarness<P> {
    fn now_us(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    /// Carries out one step's effects: commit bookkeeping at "now",
    /// peer sends, timers, and one reply batch.
    fn carry_out(&mut self, eff: Effects<P>, timers: &mut Timers) {
        let now = self.now_us();
        self.core.finish(&eff, now, 0);
        let from = self.core.id();
        let armed = Instant::now();
        let Effects {
            sends,
            timers: new_timers,
            commits,
            read_replies,
            installed: _,
        } = eff;
        for (to, msg) in sends {
            match &mut self.outbound {
                Outbound::Wan(tx) => {
                    let _ = tx.send(NetInput::Send(Wire { from, to, msg }));
                }
                Outbound::Socket(sink) => sink.send_msg(to, msg),
            }
        }
        for (after, token) in new_timers {
            timers.arm(armed + Duration::from_micros(after), token);
        }
        let replies: ReplyBatch = commits
            .into_iter()
            .filter_map(|(_, reply)| reply)
            .chain(read_replies)
            .collect();
        if !replies.is_empty() {
            let _ = self.reply_tx.send(replies);
        }
    }

    /// The node thread body: run timers, polls, and drained inbox
    /// batches through the core until asked to stop.
    pub(crate) fn run(mut self) -> NodeReport {
        let mut timers = Timers::default();
        let eff = self.core.step(self.now_us(), Input::Start);
        self.carry_out(eff, &mut timers);

        // First sweep fires immediately so every gauge series exists
        // from node start (a short-lived cluster would otherwise
        // snapshot before the first interval elapses).
        let mut next_poll = self.poll_every.map(|_| Instant::now());
        let mut inputs: Vec<Input<P::Msg>> = Vec::new();

        loop {
            // Fire due timers first.
            let now = Instant::now();
            while let Some(token) = timers.pop_due(now) {
                let eff = self.core.step(self.now_us(), Input::Timer(token));
                self.carry_out(eff, &mut timers);
            }

            // Periodic gauge poll (observing clusters only): ask the
            // protocol for its instantaneous state — stable-timestamp
            // lag, per-peer LatestTV staleness, ballot.
            if let (Some(every), Some(np)) = (self.poll_every, next_poll) {
                if Instant::now() >= np {
                    let eff = self.core.step(self.now_us(), Input::ObsPoll);
                    self.carry_out(eff, &mut timers);
                    next_poll = Some(Instant::now() + every);
                }
            }

            // Sleep until the next timer or gauge poll, whichever is
            // sooner (forever when neither is pending).
            let deadline = match (timers.next_due(), next_poll) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let timeout = deadline.map(|due| due.saturating_duration_since(Instant::now()));
            let first = match self.inbox.recv(timeout) {
                Ok(i) => i,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };

            // Drain what is already queued, up to `max_drain` inputs,
            // never waiting for more: the core coalesces the writes
            // among it into batches.
            let now = self.now_us();
            let me = self.core.id().as_u16();
            let mut stop = false;
            let mut next = Some(first);
            while let Some(input) = next {
                match input {
                    NodeInput::Msg(wire) => inputs.push(Input::Msg(wire.from, wire.msg)),
                    NodeInput::Request(cmd) => {
                        // Span origin: this node, the command's local
                        // replica. Reads are untraced: they skip the
                        // ordering pipeline the span describes.
                        if let (false, Some(t)) = (cmd.read_only, &self.tracer) {
                            t.begin(span_key(cmd.id), me, now);
                        }
                        inputs.push(Input::Request(cmd, now));
                    }
                    NodeInput::Stop => {
                        stop = true;
                        break;
                    }
                }
                next = if inputs.len() < self.max_drain {
                    self.inbox.try_recv()
                } else {
                    None
                };
            }
            if !inputs.is_empty() {
                let eff = self.core.drain(now, &mut inputs);
                self.carry_out(eff, &mut timers);
            }
            if stop {
                break;
            }
        }

        NodeReport {
            id: self.core.id(),
            commit_count: self.core.commit_count(),
            snapshot: self.core.sm().snapshot(),
            log_len: self.core.log().len(),
        }
    }
}
