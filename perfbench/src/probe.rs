//! Outside probes around the program's layers.
//!
//! Nothing here reaches inside a crate: [`Probe`] is a `Protocol` that
//! wraps a real one and hands it a `Context` adapter ([`ProbeCtx`]) which
//! forwards every call to the driver's context and times it; [`ProbeSm`]
//! is a `StateMachine` that wraps the `KvStore` and stamps, at each
//! command's origin replica, the first `apply`/`query` of every command
//! the generator sent. Both forward every trait method, so a wrapped
//! replica behaves exactly like a bare one (the `transparency` test holds
//! them to that on seeded simulator runs).
//!
//! Per-command stamps live in [`Stamps`], indexed by the command number
//! the generator minted (the client number of a one-command client).
//! [`Stamps`] also carries the measurement window: the probes report only
//! what happened between [`Stamps::open_window`] and
//! [`Stamps::close_window`], the span the run's CPU time is read over.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use kvstore::KvStore;
use rsm_core::batch::Batch;
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::ReplicaId;
use rsm_core::obs::TraceStage;
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::ReadPath;
use rsm_core::sm::StateMachine;
use rsm_core::time::Micros;
use rsm_core::wire::{decode_payload, encode_payload, WireMsg};

thread_local! {
    /// Nanoseconds the current thread spent inside `ProbeSm::apply` since
    /// the last take: lets `ProbeCtx::commit` split its own duration into
    /// the state machine's share and the commit path's overhead. Both
    /// drivers apply synchronously inside `Context::commit`, on the
    /// thread running the protocol callback.
    static APPLY_NS: Cell<u64> = const { Cell::new(0) };
}

/// Per-command timestamps, in nanoseconds since `epoch` plus one (zero
/// means "not yet"). Slot `k` belongs to the generator's command `k`.
pub struct Stamps {
    epoch: Instant,
    /// When the generator called `Cluster::submit`.
    pub submit: Vec<AtomicU64>,
    /// When the origin's protocol callback (batch or read) received it.
    pub callback: Vec<AtomicU64>,
    /// When the origin's protocol called `Context::commit` on it.
    pub commit: Vec<AtomicU64>,
    /// When the origin's protocol called `Context::sm_read` on it.
    pub read_ready: Vec<AtomicU64>,
    /// First `apply`/`query` at the origin: the command's completion.
    pub done: Vec<AtomicU64>,
    /// Commands with a `done` stamp.
    pub completed: AtomicUsize,
    /// A second `apply`/`query` of one command at its origin.
    pub duplicates: AtomicU64,
    /// A `query` of a generator command away from its origin replica.
    pub misrouted: AtomicU64,
    /// [`BEFORE`], [`INSIDE`] or [`AFTER`] the measurement window.
    window: AtomicU8,
}

/// The measurement window has not opened yet.
const BEFORE: u8 = 0;
/// The measurement window is open.
const INSIDE: u8 = 1;
/// The measurement window has closed.
const AFTER: u8 = 2;

fn slots(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Stamps {
    /// Slots for `n` commands; the per-layer slots exist only when
    /// `traced`.
    pub fn new(n: usize, traced: bool) -> Arc<Stamps> {
        let m = if traced { n } else { 0 };
        Arc::new(Stamps {
            epoch: Instant::now(),
            submit: slots(m),
            callback: slots(m),
            commit: slots(m),
            read_ready: slots(m),
            done: slots(n),
            completed: AtomicUsize::new(0),
            duplicates: AtomicU64::new(0),
            misrouted: AtomicU64::new(0),
            window: AtomicU8::new(BEFORE),
        })
    }

    /// Opens the measurement window.
    pub fn open_window(&self) {
        self.window.store(INSIDE, Ordering::Release);
    }

    /// Closes the measurement window.
    pub fn close_window(&self) {
        self.window.store(AFTER, Ordering::Release);
    }

    /// Now, in the stamps' timeline (never zero).
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// Converts an instant to the stamps' timeline.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64 + 1
    }

    /// The generator slot of a command, if it is one of the generator's.
    pub fn slot(&self, id: CommandId) -> Option<usize> {
        let k = id.client.number() as usize;
        (k < self.done.len()).then_some(k)
    }

    fn first(slots: &[AtomicU64], k: usize, now: u64) {
        if let Some(s) = slots.get(k) {
            let _ = s.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Stamps `slots[k]` once, at the command's origin replica only.
    fn first_at_origin(&self, slots: &[AtomicU64], at: ReplicaId, id: CommandId) {
        if id.client.site() == at && !slots.is_empty() {
            if let Some(k) = self.slot(id) {
                Self::first(slots, k, self.now());
            }
        }
    }

    fn complete(&self, at: ReplicaId, id: CommandId) {
        if id.client.site() != at {
            return;
        }
        if let Some(k) = self.slot(id) {
            let now = self.now();
            match self.done[k].compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    self.completed.fetch_add(1, Ordering::Release);
                }
                Err(_) => {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A `(calls, nanoseconds)` pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Time spent in them.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn combine(&mut self, o: &Tally, f: fn(u64, u64) -> u64) {
        self.calls = f(self.calls, o.calls);
        self.ns = f(self.ns, o.ns);
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// What one replica's probes measured inside the measurement window.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStats {
    /// Protocol callbacks by kind: self time (callback minus the
    /// `Context` calls it made).
    pub batch: Tally,
    /// `on_message` self time.
    pub msg: Tally,
    /// `on_timer` self time.
    pub timer: Tally,
    /// `on_client_read` self time.
    pub read: Tally,
    /// `on_start`, `on_client_request`, `on_recover`, `obs_poll`.
    pub other: Tally,
    /// Whole callbacks, `Context` calls included: the node's busy time.
    pub busy_ns: u64,
    /// Commands handed over in `on_client_batch`.
    pub batched_cmds: u64,
    /// `Context::send`.
    pub send: Tally,
    /// `Context::commit`, minus the state machine apply inside it.
    pub commit_overhead: Tally,
    /// `Context::log_append` and `log_rewrite`.
    pub log: Tally,
    /// `Context::clock`.
    pub clock: Tally,
    /// `Context::set_timer`.
    pub timer_arm: Tally,
    /// `Context::sm_read`, `sm_snapshot`, `sm_install`, `send_reply`.
    pub sm_other: Tally,
    /// `Context::trace`.
    pub trace: Tally,
    /// `Context::obs_count`.
    pub obs_count: Tally,
    /// `Context::obs_gauge` and `obs_gauge_idx`.
    pub obs_gauge: Tally,
    /// Sampled peer messages run through the wire codec by the probe.
    pub wire_encode: Tally,
    /// Decode of the same samples.
    pub wire_decode: Tally,
    /// Encoded bytes of the sampled messages.
    pub wire_bytes: u64,
    /// Sends to peers (the messages the codec would see over sockets).
    pub peer_sends: u64,
    /// `StateMachine::apply` (from [`ProbeSm`]).
    pub apply: Tally,
    /// `StateMachine::query` (from [`ProbeSm`]).
    pub query: Tally,
}

impl LayerStats {
    /// Adds another replica's stats into this one.
    pub fn merge(&mut self, o: &LayerStats) {
        self.combine(o, u64::wrapping_add);
    }

    /// What was added to `earlier` to reach `self`.
    fn since(mut self, earlier: &LayerStats) -> LayerStats {
        self.combine(earlier, u64::wrapping_sub);
        self
    }

    fn combine(&mut self, o: &LayerStats, f: fn(u64, u64) -> u64) {
        for (a, b) in [
            (&mut self.batch, &o.batch),
            (&mut self.msg, &o.msg),
            (&mut self.timer, &o.timer),
            (&mut self.read, &o.read),
            (&mut self.other, &o.other),
            (&mut self.send, &o.send),
            (&mut self.commit_overhead, &o.commit_overhead),
            (&mut self.log, &o.log),
            (&mut self.clock, &o.clock),
            (&mut self.timer_arm, &o.timer_arm),
            (&mut self.sm_other, &o.sm_other),
            (&mut self.trace, &o.trace),
            (&mut self.obs_count, &o.obs_count),
            (&mut self.obs_gauge, &o.obs_gauge),
            (&mut self.wire_encode, &o.wire_encode),
            (&mut self.wire_decode, &o.wire_decode),
            (&mut self.apply, &o.apply),
            (&mut self.query, &o.query),
        ] {
            a.combine(b, f);
        }
        self.busy_ns = f(self.busy_ns, o.busy_ns);
        self.batched_cmds = f(self.batched_cmds, o.batched_cmds);
        self.wire_bytes = f(self.wire_bytes, o.wire_bytes);
        self.peer_sends = f(self.peer_sends, o.peer_sends);
    }

    /// Protocol self time over every callback kind.
    pub fn proto_self(&self) -> Tally {
        let mut t = Tally::default();
        for k in [&self.batch, &self.msg, &self.timer, &self.read, &self.other] {
            t.combine(k, u64::wrapping_add);
        }
        t
    }
}

/// Where probes deposit their stats when the replica (or its state
/// machine) is dropped at cluster shutdown: `(replica, stats)`.
pub type StatsSink = Arc<Mutex<Vec<(ReplicaId, LayerStats)>>>;

/// One probe's running totals, and what they were when the probe first
/// saw the measurement window open and closed. Probes look at the window
/// at each call, so a replica that is idle across a window edge places
/// that edge at its next call, when it has done nothing in between.
#[derive(Default)]
struct Windowed {
    totals: LayerStats,
    seen: u8,
    at_open: LayerStats,
    at_close: Option<LayerStats>,
}

impl Windowed {
    /// Catches up with the window's state.
    fn follow(&mut self, stamps: &Stamps) {
        let now = stamps.window.load(Ordering::Acquire);
        if now == self.seen {
            return;
        }
        if self.seen == BEFORE {
            self.at_open = self.totals;
        }
        if now == AFTER {
            self.at_close = Some(self.totals);
        }
        self.seen = now;
    }

    /// What the probe measured inside the window (its whole life if the
    /// window never opened).
    fn inside(&self) -> LayerStats {
        self.at_close.unwrap_or(self.totals).since(&self.at_open)
    }

    fn deposit(&self, replica: ReplicaId, sink: &StatsSink) {
        if let Ok(mut sink) = sink.lock() {
            sink.push((replica, self.inside()));
        }
    }
}

/// How a [`Probe`] records.
#[derive(Clone)]
pub struct ProbeConfig {
    /// Per-command stamps shared with the generator.
    pub stamps: Arc<Stamps>,
    /// Run one in this many peer sends through the wire codec (0 = off).
    pub wire_sample_every: u64,
    /// Where the replica's stats go when it is dropped.
    pub sink: StatsSink,
}

/// A transparent protocol wrapper timing every callback and every
/// `Context` call the wrapped protocol makes.
pub struct Probe<P> {
    inner: P,
    id: ReplicaId,
    cfg: ProbeConfig,
    stats: Windowed,
}

impl<P: Protocol> Probe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, cfg: ProbeConfig) -> Self {
        let id = inner.id();
        Probe {
            inner,
            id,
            cfg,
            stats: Windowed::default(),
        }
    }
}

impl<P> Drop for Probe<P> {
    fn drop(&mut self) {
        self.stats.deposit(self.id, &self.cfg.sink);
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Batch,
    Msg,
    Timer,
    Read,
    Other,
}

/// The `Context` the wrapped protocol sees: forwards to the driver's.
pub struct ProbeCtx<'a, P: Protocol> {
    inner: &'a mut dyn Context<Probe<P>>,
    id: ReplicaId,
    cfg: &'a ProbeConfig,
    stats: &'a mut LayerStats,
    /// Time inside forwarded calls during this callback.
    ctx_ns: u64,
    /// Time the probe itself spent (codec sampling) during this callback.
    probe_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

macro_rules! timed {
    ($self:ident, $tally:ident, $call:expr) => {{
        let t = Instant::now();
        let r = $call;
        let ns = ns_since(t);
        $self.ctx_ns += ns;
        $self.stats.$tally.add(ns);
        r
    }};
}

impl<P: Protocol> Probe<P>
where
    P::Msg: WireMsg,
{
    fn run<R>(
        &mut self,
        kind: Kind,
        ctx: &mut dyn Context<Probe<P>>,
        f: impl FnOnce(&mut P, &mut dyn Context<P>) -> R,
    ) -> R {
        self.stats.follow(&self.cfg.stamps);
        let t = Instant::now();
        let mut pc = ProbeCtx {
            inner: ctx,
            id: self.id,
            cfg: &self.cfg,
            stats: &mut self.stats.totals,
            ctx_ns: 0,
            probe_ns: 0,
        };
        let r = f(&mut self.inner, &mut pc);
        let (ctx_ns, probe_ns) = (pc.ctx_ns, pc.probe_ns);
        let total = ns_since(t).saturating_sub(probe_ns);
        let own = total.saturating_sub(ctx_ns);
        let s = &mut self.stats.totals;
        s.busy_ns += total;
        match kind {
            Kind::Batch => s.batch.add(own),
            Kind::Msg => s.msg.add(own),
            Kind::Timer => s.timer.add(own),
            Kind::Read => s.read.add(own),
            Kind::Other => s.other.add(own),
        }
        r
    }
}

impl<P: Protocol> Context<P> for ProbeCtx<'_, P>
where
    P::Msg: WireMsg,
{
    fn clock(&mut self) -> Micros {
        timed!(self, clock, self.inner.clock())
    }

    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        if to != self.id {
            self.stats.peer_sends += 1;
            let every = self.cfg.wire_sample_every;
            if every > 0 && self.stats.peer_sends % every == 1 % every {
                let t = Instant::now();
                let enc = Instant::now();
                let buf = encode_payload(&msg);
                self.stats.wire_encode.add(ns_since(enc));
                self.stats.wire_bytes += buf.len() as u64;
                let dec = Instant::now();
                let back = decode_payload::<P::Msg>(buf);
                self.stats.wire_decode.add(ns_since(dec));
                assert!(back.is_ok(), "a sent message failed to decode");
                self.probe_ns += ns_since(t);
            }
        }
        timed!(self, send, self.inner.send(to, msg))
    }

    fn log_append(&mut self, rec: P::LogRec) {
        timed!(self, log, self.inner.log_append(rec))
    }

    fn log_rewrite(&mut self, recs: Vec<P::LogRec>) {
        timed!(self, log, self.inner.log_rewrite(recs))
    }

    fn commit(&mut self, committed: Committed) -> Bytes {
        let id = committed.cmd.id;
        if committed.origin == self.id {
            self.cfg
                .stamps
                .first_at_origin(&self.cfg.stamps.commit, self.id, id);
        }
        APPLY_NS.with(|c| c.set(0));
        let t = Instant::now();
        let r = self.inner.commit(committed);
        let ns = ns_since(t);
        self.ctx_ns += ns;
        let apply = APPLY_NS.with(|c| c.take());
        self.stats.commit_overhead.add(ns.saturating_sub(apply));
        r
    }

    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        timed!(self, timer_arm, self.inner.set_timer(after, token))
    }

    fn sm_snapshot(&mut self) -> Option<Bytes> {
        timed!(self, sm_other, self.inner.sm_snapshot())
    }

    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        timed!(self, sm_other, self.inner.sm_install(snapshot))
    }

    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        self.cfg
            .stamps
            .first_at_origin(&self.cfg.stamps.read_ready, self.id, cmd.id);
        timed!(self, sm_other, self.inner.sm_read(cmd))
    }

    fn send_reply(&mut self, reply: Reply) {
        timed!(self, sm_other, self.inner.send_reply(reply))
    }

    fn obs_active(&self) -> bool {
        self.inner.obs_active()
    }

    fn obs_count(&mut self, name: &'static str, delta: u64) {
        timed!(self, obs_count, self.inner.obs_count(name, delta))
    }

    fn obs_gauge(&mut self, name: &'static str, value: i64) {
        timed!(self, obs_gauge, self.inner.obs_gauge(name, value))
    }

    fn obs_gauge_idx(&mut self, name: &'static str, idx: ReplicaId, value: i64) {
        timed!(self, obs_gauge, self.inner.obs_gauge_idx(name, idx, value))
    }

    fn trace(&mut self, id: CommandId, stage: TraceStage) {
        timed!(self, trace, self.inner.trace(id, stage))
    }
}

impl<P: Protocol> Protocol for Probe<P>
where
    P::Msg: WireMsg,
{
    type Msg = P::Msg;
    type LogRec = P::LogRec;

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_start(&mut self, ctx: &mut dyn Context<Self>) {
        self.run(Kind::Other, ctx, |p, c| p.on_start(c))
    }

    fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.cfg
            .stamps
            .first_at_origin(&self.cfg.stamps.callback, self.id, cmd.id);
        self.run(Kind::Other, ctx, |p, c| p.on_client_request(cmd, c))
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        let stamps = &self.cfg.stamps;
        for cmd in batch.iter() {
            stamps.first_at_origin(&stamps.callback, self.id, cmd.id);
        }
        self.stats.totals.batched_cmds += batch.len() as u64;
        self.run(Kind::Batch, ctx, |p, c| p.on_client_batch(batch, c))
    }

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.cfg
            .stamps
            .first_at_origin(&self.cfg.stamps.callback, self.id, cmd.id);
        self.run(Kind::Read, ctx, |p, c| p.on_client_read(cmd, c))
    }

    fn read_path(&self) -> ReadPath {
        self.inner.read_path()
    }

    fn lease_holder_hint(&self) -> Option<ReplicaId> {
        self.inner.lease_holder_hint()
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self>) {
        self.run(Kind::Msg, ctx, |p, c| p.on_message(from, msg, c))
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        self.run(Kind::Timer, ctx, |p, c| p.on_timer(token, c))
    }

    fn on_recover(&mut self, log: &[Self::LogRec], ctx: &mut dyn Context<Self>) {
        self.run(Kind::Other, ctx, |p, c| p.on_recover(log, c))
    }

    fn obs_poll(&mut self, ctx: &mut dyn Context<Self>) {
        self.run(Kind::Other, ctx, |p, c| p.obs_poll(c))
    }
}

/// A transparent state machine wrapper: stamps completions at the
/// command's origin and, when `timed`, times `apply`/`query`.
pub struct ProbeSm {
    inner: Box<dyn StateMachine>,
    replica: ReplicaId,
    stamps: Arc<Stamps>,
    timed: Option<StatsSink>,
    /// `apply` and `query` tallies (`query` takes `&self`).
    stats: RefCell<Windowed>,
}

impl ProbeSm {
    /// Wraps `inner`, running at `replica`. With `timed` set, the apply
    /// and query tallies go to that sink when the machine is dropped.
    pub fn new(
        inner: Box<dyn StateMachine>,
        replica: ReplicaId,
        stamps: Arc<Stamps>,
        timed: Option<StatsSink>,
    ) -> Self {
        ProbeSm {
            inner,
            replica,
            stamps,
            timed,
            stats: RefCell::default(),
        }
    }
}

/// Runs `f` and adds its duration, which it also returns, to the tally
/// `pick` selects.
fn time_into<R>(
    stats: &RefCell<Windowed>,
    stamps: &Stamps,
    pick: fn(&mut LayerStats) -> &mut Tally,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    let ns = ns_since(t);
    let mut s = stats.borrow_mut();
    s.follow(stamps);
    pick(&mut s.totals).add(ns);
    (r, ns)
}

impl Drop for ProbeSm {
    fn drop(&mut self) {
        if let Some(sink) = &self.timed {
            self.stats.borrow().deposit(self.replica, sink);
        }
    }
}

impl StateMachine for ProbeSm {
    fn apply(&mut self, cmd: &Command) -> Bytes {
        let r = if self.timed.is_some() {
            let (r, ns) = time_into(
                &self.stats,
                &self.stamps,
                |s| &mut s.apply,
                || self.inner.apply(cmd),
            );
            APPLY_NS.with(|c| c.set(c.get() + ns));
            r
        } else {
            self.inner.apply(cmd)
        };
        self.stamps.complete(self.replica, cmd.id);
        r
    }

    fn snapshot(&self) -> Bytes {
        self.inner.snapshot()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore(snapshot)
    }

    fn query(&self, cmd: &Command) -> Option<Bytes> {
        let r = if self.timed.is_some() {
            time_into(
                &self.stats,
                &self.stamps,
                |s| &mut s.query,
                || self.inner.query(cmd),
            )
            .0
        } else {
            self.inner.query(cmd)
        };
        if r.is_some() {
            if cmd.id.client.site() == self.replica {
                self.stamps.complete(self.replica, cmd.id);
            } else if self.stamps.slot(cmd.id).is_some() {
                self.stamps.misrouted.fetch_add(1, Ordering::Relaxed);
            }
        }
        r
    }
}

/// Builds a `ProbeSm` around a fresh `KvStore` per replica, in replica
/// order. Both drivers call their state machine factory once per
/// replica, replica 0 first; a misnumbered machine would be caught by
/// [`Stamps::misrouted`] (reads are queried at their origin only).
pub fn sm_factory(
    stamps: Arc<Stamps>,
    timed: Option<StatsSink>,
) -> impl Fn() -> Box<dyn StateMachine> {
    let next = AtomicUsize::new(0);
    move || {
        let replica = ReplicaId::new(next.fetch_add(1, Ordering::Relaxed) as u16);
        let kv = Box::new(KvStore::new());
        Box::new(ProbeSm::new(kv, replica, stamps.clone(), timed.clone()))
    }
}
