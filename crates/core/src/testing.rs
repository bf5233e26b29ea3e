//! Test support: a [`Context`] that records every effect.
//!
//! Protocol unit and property tests drive a replica's callbacks by hand
//! and inspect what it did. [`TestCtx`] is that driver's context: a
//! clock that advances one microsecond per read, captured sends,
//! commits, log records, timers and read replies, and a trivial state
//! machine — the list of executed command sequence numbers — whose
//! snapshot support and read serving can be switched off.

use bytes::Bytes;

use crate::command::{Command, Committed, Reply};
use crate::id::ReplicaId;
use crate::protocol::{Context, Protocol, TimerToken};
use crate::time::Micros;

/// A recording [`Context`] for protocol tests (see the module docs).
pub struct TestCtx<P: Protocol> {
    /// The last clock reading; the next read returns `clock +
    /// clock_step`. Set it to start the clock elsewhere.
    pub clock: Micros,
    /// How far each read advances the clock (1 µs by default; 0 models a
    /// frozen clock).
    pub clock_step: Micros,
    /// Messages sent, in order.
    pub sends: Vec<(ReplicaId, P::Msg)>,
    /// Commands committed, in execution order.
    pub commits: Vec<Committed>,
    /// The stable log.
    pub log: Vec<P::LogRec>,
    /// Timers armed: `(after, token)`.
    pub timers: Vec<(Micros, TimerToken)>,
    /// Replies routed through `send_reply` (served local reads).
    pub read_replies: Vec<Reply>,
    /// The state machine: sequence numbers of executed commands.
    pub executed: Vec<u64>,
    /// Whether `sm_snapshot`/`sm_install` are supported (off by
    /// default, which disables checkpointing).
    pub snapshots: bool,
    /// Whether `sm_read` answers (on by default; off models a driver
    /// without state machine access, forcing the replicated fallback).
    /// A served read returns `read:<seq>`.
    pub serve_reads: bool,
}

impl<P: Protocol> TestCtx<P> {
    /// A context whose first clock read returns `start_clock + 1`.
    pub fn new(start_clock: Micros) -> Self {
        TestCtx {
            clock: start_clock,
            clock_step: 1,
            sends: Vec::new(),
            commits: Vec::new(),
            log: Vec::new(),
            timers: Vec::new(),
            read_replies: Vec::new(),
            executed: Vec::new(),
            snapshots: false,
            serve_reads: true,
        }
    }

    /// A context at clock 0 with snapshot support on.
    pub fn with_snapshots() -> Self {
        TestCtx {
            snapshots: true,
            ..TestCtx::new(0)
        }
    }

    /// Takes the captured sends.
    pub fn take_sends(&mut self) -> Vec<(ReplicaId, P::Msg)> {
        std::mem::take(&mut self.sends)
    }
}

impl<P: Protocol> Context<P> for TestCtx<P> {
    fn clock(&mut self) -> Micros {
        self.clock += self.clock_step;
        self.clock
    }
    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        self.sends.push((to, msg));
    }
    fn log_append(&mut self, rec: P::LogRec) {
        self.log.push(rec);
    }
    fn log_rewrite(&mut self, recs: Vec<P::LogRec>) {
        self.log = recs;
    }
    fn commit(&mut self, c: Committed) -> Bytes {
        let result = c.cmd.payload.clone();
        self.executed.push(c.cmd.id.seq);
        self.commits.push(c);
        result
    }
    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.timers.push((after, token));
    }
    fn sm_snapshot(&mut self) -> Option<Bytes> {
        if !self.snapshots {
            return None;
        }
        let mut buf = Vec::with_capacity(self.executed.len() * 8);
        for s in &self.executed {
            buf.extend_from_slice(&s.to_be_bytes());
        }
        Some(Bytes::from(buf))
    }
    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        if !self.snapshots {
            return false;
        }
        self.executed = snapshot
            .chunks(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8-byte chunks")))
            .collect();
        true
    }
    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        self.serve_reads
            .then(|| Bytes::from(format!("read:{}", cmd.id.seq).into_bytes()))
    }
    fn send_reply(&mut self, reply: Reply) {
        self.read_replies.push(reply);
    }
}
