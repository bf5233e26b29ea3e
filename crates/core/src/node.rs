//! The sans-IO node core every driver runs.
//!
//! A replica is a [`Protocol`] plus everything the paper's model puts
//! beside it on one site: the replicated state machine, the stable log,
//! and the request-coalescing [`BatchController`]. [`NodeCore`] owns all
//! of them and implements the one driver-side [`Context`]. Drivers feed
//! it [`Input`]s with the current instant and get every effect back in
//! one [`Effects`] value; they never call the protocol themselves.
//!
//! What stays in a driver is how it moves time and bytes: `simnet`
//! keeps its event queue, link model, CPU pricing and fault injection;
//! the threaded runtime keeps its inbox, timer heap and outbound links.
//! What the core decides, once for both:
//!
//! * **Coalescing.** [`NodeCore::drain`] hands runs of queued writes to
//!   [`Protocol::on_client_batch`] under the controller's effective
//!   thresholds. Reads and peer messages end a run and go straight to
//!   the protocol, so arrival order is kept and no read waits for a
//!   flush.
//! * **The depth signal.** The adaptive controller sees the number of
//!   write requests in each drain; reads carry no depth.
//! * **The latency feed.** Under an adaptive policy, a write's commit
//!   latency runs from the arrival instant its driver passed with it to
//!   the completion instant of the step that executed it.
//! * **Replies and origin stamps.** Each executed command carries the
//!   reply owed to its client when this replica is its origin (none
//!   while replaying the log on recovery). The `Committed`/`Executed`
//!   trace stamps and the executed counter are taken in
//!   [`NodeCore::finish`], at the completion instant the driver reports.

use std::collections::HashMap;

use bytes::Bytes;
use rsm_obs::{NodeObs, Tracer};

use crate::batch::{Batch, BatchController, BatchPolicy};
use crate::command::{Command, CommandId, Committed, Reply};
use crate::id::ReplicaId;
use crate::obs::{names, span_key, TraceStage};
use crate::protocol::{Context, Protocol, TimerToken};
use crate::sm::StateMachine;
use crate::time::Micros;

/// Size at which the adaptive latency map sheds entries older than
/// [`ARRIVAL_MAX_AGE_US`]: a write that never executes at this replica
/// (dropped as a duplicate, lost with a superseded proposal) must not
/// stay in the map forever.
const ARRIVAL_CAP: usize = 4096;

/// Age past which an unanswered arrival entry is presumed dead.
const ARRIVAL_MAX_AGE_US: Micros = 30_000_000;

/// A replica's physical clock, as its driver models it.
pub trait Clock {
    /// Reads the clock during a step taken at driver instant `now`.
    /// Reads must be strictly increasing. A simulated clock derives the
    /// reading from `now`; a real-time driver may read its wall clock.
    fn read(&mut self, now: Micros) -> Micros;
}

/// One event for the protocol.
#[derive(Debug)]
pub enum Input<M> {
    /// The replica starts (or restarts after recovery).
    Start,
    /// A timer armed through [`Effects::timers`] fired.
    Timer(TimerToken),
    /// A peer message (possibly from this replica itself).
    Msg(ReplicaId, M),
    /// A client command and the driver instant it arrived at this
    /// replica. Read-only commands go to the protocol's read path.
    Request(Command, Micros),
    /// The periodic observability poll.
    ObsPoll,
}

/// Everything one step produced, for the driver to carry out.
#[derive(Debug)]
pub struct Effects<P: Protocol> {
    /// Peer messages, in send order.
    pub sends: Vec<(ReplicaId, P::Msg)>,
    /// One-shot timers: `(after, token)`, relative to the step.
    pub timers: Vec<(Micros, TimerToken)>,
    /// Executed commands in execution order, each with the reply owed
    /// to its client: `Some` exactly when this replica is the command's
    /// origin and is not replaying its log.
    pub commits: Vec<(Committed, Option<Reply>)>,
    /// Replies to locally served reads.
    pub read_replies: Vec<Reply>,
    /// A checkpoint was installed: the state machine jumped over
    /// commands this replica never executed one by one.
    pub installed: bool,
}

impl<P: Protocol> Default for Effects<P> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            commits: Vec::new(),
            read_replies: Vec::new(),
            installed: false,
        }
    }
}

/// One replica: protocol, state machine, stable log, batching, and
/// observation handles, driven through [`Input`]s (see the module docs).
pub struct NodeCore<P: Protocol, C: Clock> {
    id: ReplicaId,
    proto: P,
    sm: Box<dyn StateMachine>,
    clock: C,
    log: Vec<P::LogRec>,
    batcher: BatchController,
    /// Arrival instant of each locally submitted write not yet executed
    /// here: the adaptive controller's latency feed. Empty under a
    /// static policy.
    arrivals: HashMap<CommandId, Micros>,
    commit_count: u64,
    obs: Option<NodeObs>,
    tracer: Option<Tracer>,
}

impl<P: Protocol, C: Clock> NodeCore<P, C> {
    /// A replica around `proto`. `obs` and `tracer` are set when the
    /// driver observes; trace stamps carry the driver's instants.
    pub fn new(
        proto: P,
        sm: Box<dyn StateMachine>,
        clock: C,
        batch: BatchPolicy,
        obs: Option<NodeObs>,
        tracer: Option<Tracer>,
    ) -> Self {
        NodeCore {
            id: proto.id(),
            proto,
            sm,
            clock,
            log: Vec::new(),
            batcher: BatchController::new(batch),
            arrivals: HashMap::new(),
            commit_count: 0,
            obs,
            tracer,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// The replicated state machine.
    pub fn sm(&self) -> &dyn StateMachine {
        self.sm.as_ref()
    }

    /// The stable log.
    pub fn log(&self) -> &[P::LogRec] {
        &self.log
    }

    /// The physical clock (drivers inject clock faults through it).
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// Commands executed over the replica's lifetime, replays included.
    pub fn commit_count(&self) -> u64 {
        self.commit_count
    }

    /// The batch controller's current flush threshold.
    pub fn batch_threshold(&self) -> usize {
        self.batcher.effective_max_batch()
    }

    /// Runs one event through the protocol at instant `now`. A write
    /// request goes to [`Protocol::on_client_request`] alone.
    pub fn step(&mut self, now: Micros, input: Input<P::Msg>) -> Effects<P> {
        if let Input::Request(cmd, at) = &input {
            self.note_arrival(cmd, *at, now);
        }
        let mut eff = Effects::default();
        let (proto, _, mut ctx) = self.parts(now, false, &mut eff);
        dispatch(proto, &mut ctx, input);
        eff
    }

    /// Runs a drained inbox through the protocol at instant `now`,
    /// coalescing consecutive writes into batches under the controller's
    /// thresholds, and leaves `inputs` empty. The number of writes in
    /// `inputs` is the controller's depth signal.
    pub fn drain(&mut self, now: Micros, inputs: &mut Vec<Input<P::Msg>>) -> Effects<P> {
        let mut writes = 0;
        for input in inputs.iter() {
            if let Input::Request(cmd, at) = input {
                if !cmd.read_only {
                    writes += 1;
                    self.note_arrival(cmd, *at, now);
                }
            }
        }
        self.batcher.begin_drain(writes);
        let threshold = self.batcher.effective_max_batch();
        if let Some(o) = &mut self.obs {
            o.gauge(names::BATCH_THRESHOLD, threshold as i64);
        }
        let mut eff = Effects::default();
        let (proto, batcher, mut ctx) = self.parts(now, false, &mut eff);
        let mut run: Vec<Command> = Vec::new();
        let mut run_bytes = 0usize;
        for input in inputs.drain(..) {
            match input {
                Input::Request(cmd, _) if !cmd.read_only => {
                    // Flush when the effective count or byte budget is
                    // full: kilobyte payloads flush long before the count.
                    if !batcher.fits(run.len(), run_bytes) {
                        proto.on_client_batch(Batch::new(std::mem::take(&mut run)), &mut ctx);
                        run_bytes = 0;
                    }
                    run_bytes += cmd.size();
                    run.push(cmd);
                }
                other => {
                    if !run.is_empty() {
                        proto.on_client_batch(Batch::new(std::mem::take(&mut run)), &mut ctx);
                        run_bytes = 0;
                    }
                    dispatch(proto, &mut ctx, other);
                }
            }
        }
        if !run.is_empty() {
            proto.on_client_batch(Batch::new(run), &mut ctx);
        }
        eff
    }

    /// Restarts the replica after a crash as `proto`, a fresh instance:
    /// the state machine and all batching state reset, the stable log
    /// survives, and the protocol replays it with client replies
    /// suppressed (clients saw them before the crash). The driver then
    /// steps [`Input::Start`].
    pub fn recover(&mut self, now: Micros, proto: P) -> Effects<P> {
        self.proto = proto;
        self.sm.reset();
        self.batcher = BatchController::new(self.batcher.policy());
        self.arrivals.clear();
        let log = self.log.clone();
        let mut eff = Effects::default();
        let (proto, _, mut ctx) = self.parts(now, true, &mut eff);
        proto.on_recover(&log, &mut ctx);
        eff
    }

    /// Books the step that produced `eff` as complete at instant `done`:
    /// counts the executed commands, closes the adaptive latency loop,
    /// and stamps `Committed` at `done` and `Executed` at
    /// `done + spread·k` on the k-th executed command this replica
    /// answers.
    pub fn finish(&mut self, eff: &Effects<P>, done: Micros, spread: Micros) {
        if eff.commits.is_empty() {
            return;
        }
        self.commit_count += eff.commits.len() as u64;
        if let Some(o) = &mut self.obs {
            o.count(names::EXECUTED, eff.commits.len() as u64);
        }
        for (k, (committed, reply)) in eff.commits.iter().enumerate() {
            let id = committed.cmd.id;
            if let (Some(t), Some(_)) = (&self.tracer, reply) {
                let (key, me) = (span_key(id), self.id.as_u16());
                t.record_at_origin(key, me, TraceStage::Committed.index(), done);
                let executed = done + spread * k as Micros;
                t.record_at_origin(key, me, TraceStage::Executed.index(), executed);
            }
            if !self.arrivals.is_empty() {
                if let Some(t0) = self.arrivals.remove(&id) {
                    self.batcher
                        .record_commit_latency(done.saturating_sub(t0), done);
                }
            }
        }
    }

    /// Records a write's arrival for the adaptive latency feed.
    fn note_arrival(&mut self, cmd: &Command, at: Micros, now: Micros) {
        if cmd.read_only || !self.batcher.policy().adaptive {
            return;
        }
        if self.arrivals.len() >= ARRIVAL_CAP {
            self.arrivals
                .retain(|_, t0| now.saturating_sub(*t0) < ARRIVAL_MAX_AGE_US);
        }
        self.arrivals.insert(cmd.id, at);
    }

    /// Splits the core into the protocol, the batch controller, and a
    /// context over everything else.
    fn parts<'a>(
        &'a mut self,
        now: Micros,
        replay: bool,
        eff: &'a mut Effects<P>,
    ) -> (&'a mut P, &'a mut BatchController, Ctx<'a, P, C>) {
        let ctx = Ctx {
            now,
            me: self.id,
            replay,
            clock: &mut self.clock,
            log: &mut self.log,
            sm: self.sm.as_mut(),
            eff,
            obs: self.obs.as_mut(),
            tracer: self.tracer.as_ref(),
        };
        (&mut self.proto, &mut self.batcher, ctx)
    }
}

fn dispatch<P: Protocol>(proto: &mut P, ctx: &mut dyn Context<P>, input: Input<P::Msg>) {
    match input {
        Input::Start => proto.on_start(ctx),
        Input::Timer(token) => proto.on_timer(token, ctx),
        Input::Msg(from, msg) => proto.on_message(from, msg, ctx),
        Input::Request(cmd, _) if cmd.read_only => proto.on_client_read(cmd, ctx),
        Input::Request(cmd, _) => proto.on_client_request(cmd, ctx),
        Input::ObsPoll => proto.obs_poll(ctx),
    }
}

/// The protocol's view of its node during one step.
struct Ctx<'a, P: Protocol, C> {
    now: Micros,
    me: ReplicaId,
    /// Replaying the stable log on recovery: no client replies.
    replay: bool,
    clock: &'a mut C,
    log: &'a mut Vec<P::LogRec>,
    sm: &'a mut dyn StateMachine,
    eff: &'a mut Effects<P>,
    obs: Option<&'a mut NodeObs>,
    tracer: Option<&'a Tracer>,
}

impl<P: Protocol, C: Clock> Context<P> for Ctx<'_, P, C> {
    fn clock(&mut self) -> Micros {
        self.clock.read(self.now)
    }
    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        self.eff.sends.push((to, msg));
    }
    fn log_append(&mut self, rec: P::LogRec) {
        self.log.push(rec);
    }
    fn log_rewrite(&mut self, recs: Vec<P::LogRec>) {
        *self.log = recs;
    }
    fn commit(&mut self, committed: Committed) -> Bytes {
        let result = self.sm.apply(&committed.cmd);
        let reply = (!self.replay && committed.origin == self.me)
            .then(|| Reply::new(committed.cmd.id, result.clone()));
        self.eff.commits.push((committed, reply));
        result
    }
    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.eff.timers.push((after, token));
    }
    fn sm_snapshot(&mut self) -> Option<Bytes> {
        Some(self.sm.snapshot())
    }
    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        let ok = self.sm.restore(&snapshot);
        self.eff.installed |= ok;
        ok
    }
    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        self.sm.query(cmd)
    }
    fn send_reply(&mut self, reply: Reply) {
        if !self.replay {
            self.eff.read_replies.push(reply);
        }
    }
    fn obs_active(&self) -> bool {
        self.obs.is_some()
    }
    fn obs_count(&mut self, name: &'static str, delta: u64) {
        if let Some(o) = &mut self.obs {
            o.count(name, delta);
        }
    }
    fn obs_gauge(&mut self, name: &'static str, value: i64) {
        if let Some(o) = &mut self.obs {
            o.gauge(name, value);
        }
    }
    fn obs_gauge_idx(&mut self, name: &'static str, idx: ReplicaId, value: i64) {
        if let Some(o) = &mut self.obs {
            o.gauge_idx(name, idx.as_u16(), value);
        }
    }
    fn trace(&mut self, id: CommandId, stage: TraceStage) {
        if let Some(t) = self.tracer {
            t.record(span_key(id), stage.index(), self.now);
        }
    }
}
