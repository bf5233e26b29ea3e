//! The simulation driver: virtual time, network, nodes, and fault injection.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::node::{Effects, Input, NodeCore};
use rsm_core::obs::{span_key, TraceStage};
use rsm_core::protocol::{Protocol, TimerToken};
use rsm_core::sm::StateMachine;
use rsm_core::time::Micros;
use rsm_core::wire::WireSize;
use rsm_core::CommandId;
use rsm_obs::{MetricsSnapshot, NodeObs, ObsConfig, Registry, Tracer};

use crate::clock::{ClockAnomaly, ClockModel, PhysicalClock};
use crate::cpu::CpuModel;
use crate::sched::EventQueue;

/// Static configuration of a simulation run.
///
/// Built with a fluent API; see the crate-level example.
#[derive(Debug, Clone)]
pub struct SimConfig {
    latency: LatencyMatrix,
    jitter_us: Micros,
    local_delivery_us: Micros,
    seed: u64,
    clock_model: ClockModel,
    clock_overrides: Vec<(usize, ClockModel)>,
    clock_anomalies: Vec<(usize, Micros, ClockAnomaly)>,
    cpu: Option<CpuModel>,
    batch: BatchPolicy,
    record_history: bool,
    max_events: u64,
    observe: Option<ObsConfig>,
}

impl SimConfig {
    /// Creates a configuration for the given wide-area latency matrix with
    /// paper-faithful defaults: no jitter, 0.3 ms client↔replica latency
    /// (the paper reports ~0.6 ms intra-DC RTT), perfect clocks, no CPU
    /// model, history recording on.
    pub fn new(latency: LatencyMatrix) -> Self {
        SimConfig {
            latency,
            jitter_us: 0,
            local_delivery_us: 300,
            seed: 0,
            clock_model: ClockModel::perfect(),
            clock_overrides: Vec::new(),
            clock_anomalies: Vec::new(),
            cpu: None,
            batch: BatchPolicy::DISABLED,
            record_history: true,
            max_events: u64::MAX,
            observe: None,
        }
    }

    /// Sets the RNG seed controlling jitter, clock offsets, and any
    /// application randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum uniform per-message jitter, in microseconds.
    /// Per-link FIFO order is preserved regardless.
    pub fn jitter_us(mut self, jitter: Micros) -> Self {
        self.jitter_us = jitter;
        self
    }

    /// Sets the one-way latency between a client and its local replica.
    pub fn local_delivery_us(mut self, d: Micros) -> Self {
        self.local_delivery_us = d;
        self
    }

    /// Sets the default clock model for all replicas. When the model has a
    /// non-zero sync bound, each replica receives a deterministic random
    /// initial offset within ±bound.
    pub fn clock_model(mut self, m: ClockModel) -> Self {
        self.clock_model = m;
        self
    }

    /// Overrides the clock model of one replica.
    pub fn clock_override(mut self, replica: usize, m: ClockModel) -> Self {
        self.clock_overrides.push((replica, m));
        self
    }

    /// Scripts a [`ClockAnomaly`] on one replica's clock at an absolute
    /// virtual time — steps, freezes, and drift bursts composed into fault
    /// schedules by the chaos fuzzer. Anomalies survive crash/recovery
    /// (the clock is hardware, not process state).
    pub fn clock_anomaly(mut self, replica: usize, at: Micros, anomaly: ClockAnomaly) -> Self {
        self.clock_anomalies.push((replica, at, anomaly));
        self
    }

    /// Enables the CPU cost model (throughput experiments).
    pub fn cpu_model(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Sets the request-coalescing policy: client requests queued at a
    /// replica when it gets scheduled are handed to the protocol as one
    /// [`Batch`](rsm_core::Batch) of up to `max_batch` commands (never
    /// waiting intentionally). The default is [`BatchPolicy::DISABLED`],
    /// which reproduces per-command behaviour exactly. An
    /// [adaptive](BatchPolicy::adaptive) policy moves each node's flush
    /// threshold with the writes queued at each drain and the commit
    /// latency of its own clients' requests (see [`NodeCore`]).
    pub fn batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Disables per-commit history recording (for long throughput runs).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Caps the number of processed events (safety valve for tests).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Enables observability: a metrics [`Registry`] fed by every
    /// replica (protocol counters/gauges plus driver-side execution
    /// counters), per-command trace [`Span`](rsm_obs::Span)s stamped in
    /// **virtual time**, and a periodic
    /// [`obs_poll`](rsm_core::protocol::Protocol::obs_poll) sweep every
    /// [`ObsConfig::poll_interval`] microseconds. Off by default —
    /// uninstrumented runs pay only a `None` check per hook, and
    /// instrumentation cannot consume virtual time, so enabling it
    /// never perturbs a deterministic schedule.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.observe = Some(obs);
        self
    }

    /// Number of replicas in the topology.
    pub fn num_replicas(&self) -> usize {
        self.latency.len()
    }

    /// The latency matrix of this configuration.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }
}

/// One committed command as observed at one replica, for test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Virtual time of execution at this replica.
    pub at: Micros,
    /// Protocol ordering coordinate (timestamp / instance / slot).
    pub order_hint: u64,
    /// Originating replica of the command.
    pub origin: ReplicaId,
    /// Identity of the command.
    pub cmd_id: CommandId,
}

/// The application driving a simulation: submits client commands, receives
/// replies, and observes commits. Workload generators and fault scripts in
/// the `harness` crate implement this.
pub trait Application<P: Protocol> {
    /// Called once at simulation start; schedule initial work here.
    fn on_init(&mut self, api: &mut SimApi<'_, P>);

    /// A reply reached the issuing client.
    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>);

    /// An event scheduled via [`SimApi::schedule`] fired.
    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>);

    /// A replica executed a command (observability hook; default no-op).
    fn on_commit(&mut self, _replica: ReplicaId, _committed: &Committed, _at: Micros) {}
}

/// An application that does nothing; useful when a test drives replicas
/// by scheduling events directly.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApplication;

impl<P: Protocol> Application<P> for NullApplication {
    fn on_init(&mut self, _api: &mut SimApi<'_, P>) {}
    fn on_reply(&mut self, _client: ClientId, _reply: Reply, _api: &mut SimApi<'_, P>) {}
    fn on_event(&mut self, _key: u64, _api: &mut SimApi<'_, P>) {}
}

/// Capabilities the simulator exposes to the application.
pub struct SimApi<'a, P: Protocol> {
    now: Micros,
    local_delivery_us: Micros,
    latency: &'a LatencyMatrix,
    /// Per-site read-routing hints (see [`SimApi::read_target`]).
    read_hints: &'a [ReplicaId],
    queue: &'a mut EventQueue<Event<P>>,
    rng: &'a mut StdRng,
    stop: &'a mut bool,
}

impl<'a, P: Protocol> SimApi<'a, P> {
    /// Current virtual time, microseconds.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Submits a client command to replica `to`; it arrives after the
    /// configured client↔replica latency.
    pub fn submit(&mut self, to: ReplicaId, cmd: Command) {
        self.queue.push(
            self.now + self.local_delivery_us,
            Event::Request { to, cmd },
        );
    }

    /// Submits a client command from a client at site `from` to replica
    /// `to`. Same-site submission costs the local delivery hop; a
    /// cross-site submission pays the configured one-way WAN latency —
    /// client-side routing to a remote lease holder is not free, and an
    /// honest model must charge it.
    pub fn submit_from(&mut self, from: ReplicaId, to: ReplicaId, cmd: Command) {
        let delay = if from == to {
            self.local_delivery_us
        } else {
            self.latency.one_way(from, to)
        };
        self.queue
            .push(self.now + delay, Event::Request { to, cmd });
    }

    /// Where a client at `site` should send a **read-only** command:
    /// the site replica's [`lease_holder_hint`], or the site itself when
    /// the protocol's reads are local/symmetric. This models a client
    /// caching the leader hint its local replica advertises — the hint
    /// may be stale across a fail-over, in which case the read is lost
    /// at the dead leader and retried like any lost command.
    ///
    /// [`lease_holder_hint`]: rsm_core::protocol::Protocol::lease_holder_hint
    pub fn read_target(&self, site: ReplicaId) -> ReplicaId {
        self.read_hints.get(site.index()).copied().unwrap_or(site)
    }

    /// Schedules an application event `after` microseconds from now.
    pub fn schedule(&mut self, after: Micros, key: u64) {
        self.queue.push(self.now + after, Event::App { key });
    }

    /// Crashes a replica `after` microseconds from now: it stops processing
    /// and loses volatile state, keeping its stable log.
    pub fn crash(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Crash { node });
    }

    /// Restarts a crashed replica `after` microseconds from now: it runs
    /// protocol recovery from its stable log.
    pub fn recover(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Recover { node });
    }

    /// Cuts the link between `a` and `b` (both directions) `after`
    /// microseconds from now; messages park and deliver on heal, modelling
    /// TCP retransmission.
    pub fn partition(&mut self, a: ReplicaId, b: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Partition { a, b });
    }

    /// Heals the link between `a` and `b` `after` microseconds from now.
    pub fn heal(&mut self, a: ReplicaId, b: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Heal { a, b });
    }

    /// Steps a replica's physical clock by `delta_us` (positive or
    /// negative) `after` microseconds from now. Reads stay monotonic; a
    /// backwards step simply freezes the observed clock until true time
    /// catches up.
    pub fn clock_jump(&mut self, node: ReplicaId, delta_us: i64, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockJump { node, delta_us });
    }

    /// Freezes a replica's physical clock for `dur_us` of virtual time,
    /// starting `after` microseconds from now — a VM pause. The clock
    /// resumes from the pinned value, permanently behind by the freeze.
    pub fn clock_freeze(&mut self, node: ReplicaId, dur_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockFreeze { node, dur_us });
    }

    /// Adds `ppm` of drift to a replica's clock for `dur_us` of virtual
    /// time, starting `after` microseconds from now. The offset the burst
    /// accumulates persists after it ends.
    pub fn clock_drift_burst(&mut self, node: ReplicaId, ppm: f64, dur_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockDrift { node, ppm, dur_us });
    }

    /// Sets an extra fixed one-way delay on the link between `a` and `b`
    /// (both directions), starting `after` microseconds from now. Zero
    /// clears it. Per-link FIFO order is preserved; relative to other
    /// links, messages reorder — cross-link reordering is the only kind
    /// the drivers' per-link FIFO contract permits.
    pub fn link_delay(&mut self, a: ReplicaId, b: ReplicaId, extra_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::LinkDelay { a, b, extra_us });
    }

    /// Sets extra uniform per-message jitter on the link between `a` and
    /// `b` (both directions), starting `after` microseconds from now. Zero
    /// clears it. Per-link FIFO order is preserved regardless.
    pub fn link_jitter(&mut self, a: ReplicaId, b: ReplicaId, jitter_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::LinkJitter { a, b, jitter_us });
    }

    /// The deterministic RNG shared with the simulator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Requests the simulation to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

enum Event<P: Protocol> {
    Deliver {
        from: ReplicaId,
        to: ReplicaId,
        msg: P::Msg,
    },
    Timer {
        node: ReplicaId,
        incarnation: u64,
        token: TimerToken,
    },
    Request {
        to: ReplicaId,
        cmd: Command,
    },
    ReplyArrive {
        client: ClientId,
        reply: Reply,
    },
    App {
        key: u64,
    },
    Crash {
        node: ReplicaId,
    },
    Recover {
        node: ReplicaId,
    },
    Partition {
        a: ReplicaId,
        b: ReplicaId,
    },
    Heal {
        a: ReplicaId,
        b: ReplicaId,
    },
    ClockJump {
        node: ReplicaId,
        delta_us: i64,
    },
    ClockFreeze {
        node: ReplicaId,
        dur_us: Micros,
    },
    ClockDrift {
        node: ReplicaId,
        ppm: f64,
        dur_us: Micros,
    },
    LinkDelay {
        a: ReplicaId,
        b: ReplicaId,
        extra_us: Micros,
    },
    LinkJitter {
        a: ReplicaId,
        b: ReplicaId,
        jitter_us: Micros,
    },
    ProcessInbox {
        node: ReplicaId,
        incarnation: u64,
    },
    /// Periodic observability sweep: run every live protocol's
    /// `obs_poll` and re-arm. Only ever scheduled when observing.
    ObsPoll,
}

/// One replica: the shared node core plus what only the simulator
/// tracks about it.
struct Node<P: Protocol> {
    core: NodeCore<P, PhysicalClock>,
    up: bool,
    incarnation: u64,
    commits: Vec<CommitRecord>,
    inbox: Vec<Input<P::Msg>>,
    inbox_scheduled: bool,
    cpu_free: Micros,
}

/// A deterministic discrete-event simulation of `P`-replicas on a wide-area
/// network, driven by an [`Application`].
///
/// See the crate docs for the model; see `harness` for ready-made
/// workloads.
pub struct Simulation<P: Protocol, A: Application<P>> {
    cfg: SimConfig,
    now: Micros,
    queue: EventQueue<Event<P>>,
    nodes: Vec<Node<P>>,
    factory: Box<dyn FnMut(ReplicaId) -> P>,
    app: A,
    rng: StdRng,
    fifo_floor: Vec<Vec<Micros>>,
    partitioned: HashSet<(usize, usize)>,
    /// Per-link chaos: `(extra fixed delay, extra jitter bound)` applied to
    /// cross-node sends on that (unordered) link. FIFO floors still apply,
    /// so within-link order is preserved; only cross-link reordering occurs.
    link_chaos: HashMap<(usize, usize), (Micros, Micros)>,
    parked: ParkedLinks<P::Msg>,
    stop: bool,
    events_processed: u64,
    /// The shared metrics registry (populated only when observing).
    registry: Registry,
    /// The span collector, when observing.
    tracer: Option<Tracer>,
}

/// Messages held on a cut link, in order: `(from, to, msg)`.
type ParkedQueue<M> = VecDeque<(ReplicaId, ReplicaId, M)>;

/// Parked queues keyed by the (unordered) link they wait on.
type ParkedLinks<M> = Vec<((usize, usize), ParkedQueue<M>)>;

impl<P: Protocol, A: Application<P>> Simulation<P, A> {
    /// Builds a simulation: one replica per row of the latency matrix,
    /// protocols created by `factory`, state machines by `sm_factory`.
    /// Calls every protocol's `on_start` and the application's `on_init`.
    pub fn new(
        cfg: SimConfig,
        mut factory: impl FnMut(ReplicaId) -> P + 'static,
        sm_factory: impl Fn() -> Box<dyn StateMachine>,
        app: A,
    ) -> Self {
        let n = cfg.num_replicas();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let registry = Registry::new();
        // Trace stamps carry virtual time, never a replica's (possibly
        // skewed) physical clock, so stages across replicas share one
        // timeline.
        let tracer = cfg.observe.map(Tracer::new);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let id = ReplicaId::new(i as u16);
            let mut model = cfg.clock_model;
            // Spread initial offsets within the sync bound, deterministically.
            if model.sync_bound_us > 0 && model.offset_us == 0 {
                let b = model.sync_bound_us as i64;
                model.offset_us = rng.gen_range(-b..=b);
            }
            if let Some((_, m)) = cfg.clock_overrides.iter().find(|(r, _)| *r == i) {
                model = *m;
            }
            let anomalies: Vec<(Micros, ClockAnomaly)> = cfg
                .clock_anomalies
                .iter()
                .filter(|(r, _, _)| *r == i)
                .map(|&(_, at, a)| (at, a))
                .collect();
            let obs = cfg
                .observe
                .map(|_| NodeObs::new(registry.clone(), i as u16));
            nodes.push(Node {
                core: NodeCore::new(
                    factory(id),
                    sm_factory(),
                    PhysicalClock::with_anomalies(model, anomalies),
                    cfg.batch,
                    obs,
                    tracer.clone(),
                ),
                up: true,
                incarnation: 0,
                commits: Vec::new(),
                inbox: Vec::new(),
                inbox_scheduled: false,
                cpu_free: 0,
            });
        }
        let mut sim = Simulation {
            fifo_floor: vec![vec![0; n]; n],
            partitioned: HashSet::new(),
            link_chaos: HashMap::new(),
            parked: Vec::new(),
            queue: EventQueue::new(),
            nodes,
            factory: Box::new(factory),
            app,
            rng,
            now: 0,
            stop: false,
            events_processed: 0,
            registry,
            tracer,
            cfg,
        };
        if let Some(obs) = sim.cfg.observe {
            sim.queue.push(obs.poll_interval, Event::ObsPoll);
        }
        for i in 0..n {
            sim.invoke(i, Input::Start);
        }
        let hints = sim.read_hints();
        let Simulation {
            queue,
            rng,
            app,
            stop,
            cfg,
            now,
            ..
        } = &mut sim;
        let mut api = SimApi {
            now: *now,
            local_delivery_us: cfg.local_delivery_us,
            latency: &cfg.latency,
            read_hints: &hints,
            queue,
            rng,
            stop,
        };
        app.on_init(&mut api);
        sim
    }

    /// Per-site read-routing hints: each site's current
    /// [`lease_holder_hint`], defaulting to the site itself (see
    /// [`SimApi::read_target`]).
    ///
    /// [`lease_holder_hint`]: rsm_core::protocol::Protocol::lease_holder_hint
    fn read_hints(&self) -> Vec<ReplicaId> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                n.core
                    .protocol()
                    .lease_holder_hint()
                    .unwrap_or(ReplicaId::new(i as u16))
            })
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The driving application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the driving application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Injects a client command from **outside** the application — an
    /// external router (e.g. a sharded driver coordinating several
    /// simulations) submitting into this group. Arrives at `to` after
    /// the client-local delivery hop, exactly like
    /// [`SimApi::submit`].
    pub fn submit(&mut self, to: ReplicaId, cmd: Command) {
        self.queue.push(
            self.now + self.cfg.local_delivery_us,
            Event::Request { to, cmd },
        );
    }

    /// Injects a client command from an external router on behalf of a
    /// client at site `from`, aimed at replica `to`. Same-site costs the
    /// local delivery hop; cross-site pays the configured one-way WAN
    /// latency, exactly like [`SimApi::submit_from`].
    pub fn submit_from(&mut self, from: ReplicaId, to: ReplicaId, cmd: Command) {
        let delay = if from == to {
            self.cfg.local_delivery_us
        } else {
            self.cfg.latency.one_way(from, to)
        };
        self.queue
            .push(self.now + delay, Event::Request { to, cmd });
    }

    /// The read-routing target for a client at `site` (external-router
    /// counterpart of [`SimApi::read_target`]).
    pub fn read_target(&self, site: ReplicaId) -> ReplicaId {
        self.nodes[site.index()]
            .core
            .protocol()
            .lease_holder_hint()
            .unwrap_or(site)
    }

    /// Crashes a replica `after` microseconds from now (external-router
    /// counterpart of [`SimApi::crash`]).
    pub fn crash(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Crash { node });
    }

    /// Restarts a crashed replica `after` microseconds from now
    /// (external-router counterpart of [`SimApi::recover`]).
    pub fn recover(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Recover { node });
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Commit history of a replica (empty unless history recording is on;
    /// cleared when the replica recovers and replays).
    pub fn commits(&self, r: ReplicaId) -> &[CommitRecord] {
        &self.nodes[r.index()].commits
    }

    /// Total number of commands a replica has executed (monotonic across
    /// recoveries).
    pub fn commit_count(&self, r: ReplicaId) -> u64 {
        self.nodes[r.index()].core.commit_count()
    }

    /// Snapshot of a replica's state machine.
    pub fn snapshot(&self, r: ReplicaId) -> bytes::Bytes {
        self.nodes[r.index()].core.sm().snapshot()
    }

    /// The stable log of a replica (test observability).
    pub fn log(&self, r: ReplicaId) -> &[P::LogRec] {
        self.nodes[r.index()].core.log()
    }

    /// Whether a replica is currently up.
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.nodes[r.index()].up
    }

    /// The replica's current effective batch flush threshold (test and
    /// bench observability; `max_batch` under a static policy, moving
    /// with load under an adaptive one).
    pub fn batch_threshold(&self, r: ReplicaId) -> usize {
        self.nodes[r.index()].core.batch_threshold()
    }

    /// Immutable access to a replica's protocol instance.
    pub fn protocol(&self, r: ReplicaId) -> &P {
        self.nodes[r.index()].core.protocol()
    }

    /// A deterministic snapshot of every metric, or `None` when
    /// [`SimConfig::observe`] was not set. Two runs of the same seed and
    /// schedule produce `==`-equal snapshots.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.cfg.observe.map(|_| self.registry.snapshot())
    }

    /// The span collector, when observing. Stage stamps are virtual
    /// time; completed spans are in completion order (deterministic).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Reads a replica's physical clock at the current virtual time — the
    /// same observation the protocol makes through its context, advancing
    /// the monotonic stamper identically (test observability for clock
    /// anomaly schedules).
    pub fn read_clock(&mut self, r: ReplicaId) -> Micros {
        let now = self.now;
        self.nodes[r.index()].core.clock_mut().read(now)
    }

    /// Runs until the queue drains, `until` is reached, a stop is
    /// requested, or the event cap triggers. Returns the virtual time.
    pub fn run_until(&mut self, until: Micros) -> Micros {
        while !self.stop && self.events_processed < self.cfg.max_events {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = self
            .now
            .max(until.min(self.queue.peek_time().unwrap_or(until)));
        self.now
    }

    /// Runs for `duration` more microseconds of virtual time.
    pub fn run_for(&mut self, duration: Micros) -> Micros {
        let until = self.now + duration;
        self.run_until(until)
    }

    /// Processes a single event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        self.dispatch(ev);
        true
    }

    fn dispatch(&mut self, ev: Event<P>) {
        match ev {
            Event::Deliver { from, to, msg } => self.handle_deliver(from, to, msg),
            Event::Timer {
                node,
                incarnation,
                token,
            } => {
                let idx = node.index();
                if self.nodes[idx].up && self.nodes[idx].incarnation == incarnation {
                    self.invoke(idx, Input::Timer(token));
                }
            }
            Event::Request { to, cmd } => {
                let idx = to.index();
                if !self.nodes[idx].up {
                    return; // site down: client request lost
                }
                // Open (or re-enter, for a retry of the same command id)
                // the command's trace span at the replica that will
                // answer the client. Reads are untraced: they skip the
                // ordering pipeline the span stages describe.
                if !cmd.read_only {
                    if let Some(t) = &self.tracer {
                        t.begin(span_key(cmd.id), to.as_u16(), self.now);
                    }
                }
                // A request passes through the node's inbox when that
                // buys something: a CPU model prices the processing step,
                // and a batch policy coalesces queued writes (reads never
                // coalesce). Otherwise (the default for latency
                // experiments) the hop only doubles event-queue traffic,
                // so invoke directly.
                let read_only = cmd.read_only;
                let input = Input::Request(cmd, self.now);
                if self.cfg.cpu.is_some() || (!read_only && self.cfg.batch.coalesces()) {
                    self.enqueue_input(idx, input);
                } else {
                    self.invoke(idx, input);
                }
            }
            Event::ReplyArrive { client, reply } => {
                // Terminal stamp: the reply reached the issuing client.
                // No-op for reads (never begun) and unsampled keys.
                if let Some(t) = &self.tracer {
                    t.complete(span_key(reply.id), TraceStage::Replied.index(), self.now);
                }
                let hints = self.read_hints();
                let Simulation {
                    queue,
                    rng,
                    app,
                    stop,
                    cfg,
                    now,
                    ..
                } = self;
                let mut api = SimApi {
                    now: *now,
                    local_delivery_us: cfg.local_delivery_us,
                    latency: &cfg.latency,
                    read_hints: &hints,
                    queue,
                    rng,
                    stop,
                };
                app.on_reply(client, reply, &mut api);
            }
            Event::App { key } => {
                let hints = self.read_hints();
                let Simulation {
                    queue,
                    rng,
                    app,
                    stop,
                    cfg,
                    now,
                    ..
                } = self;
                let mut api = SimApi {
                    now: *now,
                    local_delivery_us: cfg.local_delivery_us,
                    latency: &cfg.latency,
                    read_hints: &hints,
                    queue,
                    rng,
                    stop,
                };
                app.on_event(key, &mut api);
            }
            Event::Crash { node } => {
                let n = &mut self.nodes[node.index()];
                if n.up {
                    n.up = false;
                    n.incarnation += 1;
                    n.inbox.clear();
                    n.inbox_scheduled = false;
                }
            }
            Event::Recover { node } => self.handle_recover(node),
            Event::Partition { a, b } => {
                self.partitioned.insert(link_key(a, b));
            }
            Event::Heal { a, b } => self.handle_heal(a, b),
            Event::ClockJump { node, delta_us } => {
                self.nodes[node.index()].core.clock_mut().jump(delta_us);
            }
            Event::ClockFreeze { node, dur_us } => {
                let now = self.now;
                self.nodes[node.index()]
                    .core
                    .clock_mut()
                    .freeze(now, dur_us);
            }
            Event::ClockDrift { node, ppm, dur_us } => {
                let now = self.now;
                self.nodes[node.index()]
                    .core
                    .clock_mut()
                    .drift_burst(now, ppm, dur_us);
            }
            Event::LinkDelay { a, b, extra_us } => {
                let e = self.link_chaos.entry(link_key(a, b)).or_insert((0, 0));
                e.0 = extra_us;
                if *e == (0, 0) {
                    self.link_chaos.remove(&link_key(a, b));
                }
            }
            Event::LinkJitter { a, b, jitter_us } => {
                let e = self.link_chaos.entry(link_key(a, b)).or_insert((0, 0));
                e.1 = jitter_us;
                if *e == (0, 0) {
                    self.link_chaos.remove(&link_key(a, b));
                }
            }
            Event::ProcessInbox { node, incarnation } => {
                self.handle_process_inbox(node, incarnation)
            }
            Event::ObsPoll => {
                for i in 0..self.nodes.len() {
                    if self.nodes[i].up {
                        self.invoke(i, Input::ObsPoll);
                    }
                }
                if let Some(obs) = self.cfg.observe {
                    self.queue
                        .push(self.now + obs.poll_interval, Event::ObsPoll);
                }
            }
        }
    }

    fn handle_deliver(&mut self, from: ReplicaId, to: ReplicaId, msg: P::Msg) {
        if from != to && self.partitioned.contains(&link_key(from, to)) {
            // Park until heal: models TCP retransmission after repair.
            let key = link_key(from, to);
            match self.parked.iter_mut().find(|(k, _)| *k == key) {
                Some((_, q)) => q.push_back((from, to, msg)),
                None => {
                    let mut q = VecDeque::new();
                    q.push_back((from, to, msg));
                    self.parked.push((key, q));
                }
            }
            return;
        }
        let idx = to.index();
        if !self.nodes[idx].up {
            return; // destination crashed: message lost
        }
        if self.cfg.cpu.is_some() {
            self.enqueue_input(idx, Input::Msg(from, msg));
        } else {
            self.invoke(idx, Input::Msg(from, msg));
        }
    }

    fn handle_recover(&mut self, node: ReplicaId) {
        let idx = node.index();
        if self.nodes[idx].up {
            return;
        }
        let proto = (self.factory)(node);
        let n = &mut self.nodes[idx];
        n.up = true;
        n.incarnation += 1;
        n.commits.clear();
        n.cpu_free = self.now;
        // The core replays the stable log into a fresh state machine with
        // replies suppressed, and drops the volatile batching state.
        let eff = n.core.recover(self.now, proto);
        self.apply_effects(idx, eff, self.now);
        self.invoke(idx, Input::Start);
    }

    fn handle_heal(&mut self, a: ReplicaId, b: ReplicaId) {
        let key = link_key(a, b);
        self.partitioned.remove(&key);
        if let Some(pos) = self.parked.iter().position(|(k, _)| *k == key) {
            let (_, q) = self.parked.remove(pos);
            // Deliver the backlog synchronously at the heal instant, in
            // park order, AHEAD of any same-link message already queued
            // for this or a later instant. Spreading the flush over
            // future ticks (or re-queueing it) would let a later-sent
            // in-flight message overtake the backlog — a per-link FIFO
            // violation, and FIFO is a driver contract the protocols'
            // cumulative acknowledgements rely on for safety.
            for (from, to, msg) in q {
                self.handle_deliver(from, to, msg);
            }
        }
    }

    fn enqueue_input(&mut self, idx: usize, input: Input<P::Msg>) {
        let (at, incarnation) = {
            let n = &mut self.nodes[idx];
            n.inbox.push(input);
            if n.inbox_scheduled {
                return;
            }
            n.inbox_scheduled = true;
            (n.cpu_free.max(self.now), n.incarnation)
        };
        self.queue.push(
            at,
            Event::ProcessInbox {
                node: ReplicaId::new(idx as u16),
                incarnation,
            },
        );
    }

    /// Inbox processing step: the node core runs the drained inbox as
    /// one receive batch (coalescing queued writes into client batches),
    /// then the produced messages ship as per-destination send batches.
    /// With a CPU model the node is busy for the step's total cost and
    /// its effects take hold when it completes; without one the step is
    /// free and instantaneous (pure coalescing).
    fn handle_process_inbox(&mut self, node: ReplicaId, incarnation: u64) {
        let idx = node.index();
        // Same staleness guard as Timer: a crash (and the subsequent
        // recovery) bumps the incarnation, so an event scheduled before
        // the crash must not drain the recovered node's inbox — it would
        // process input at the pre-crash instant and regress cpu_free
        // below work the recovery already planned.
        if self.nodes[idx].incarnation != incarnation {
            return;
        }
        let cpu = self.cfg.cpu;
        let n = &mut self.nodes[idx];
        n.inbox_scheduled = false;
        if !n.up || n.inbox.is_empty() {
            n.inbox.clear();
            return;
        }
        let recv_cost = match cpu {
            Some(cpu) => {
                let recv_bytes: usize = n
                    .inbox
                    .iter()
                    .map(|i| match i {
                        Input::Msg(_, m) => m.wire_size(),
                        Input::Request(c, _) => c.wire_size(),
                        _ => 0,
                    })
                    .sum();
                cpu.batch_cost(n.inbox.len(), recv_bytes)
            }
            None => 0,
        };
        let eff = n.core.drain(self.now, &mut n.inbox);

        // Send batches: group by destination (order-preserving).
        let mut send_cost: Micros = 0;
        if let Some(cpu) = cpu {
            let mut dests: Vec<ReplicaId> = Vec::new();
            for (to, _) in &eff.sends {
                if !dests.contains(to) {
                    dests.push(*to);
                }
            }
            for d in &dests {
                let (k, bytes) = eff
                    .sends
                    .iter()
                    .filter(|(to, _)| to == d)
                    .fold((0usize, 0usize), |(k, b), (_, m)| {
                        (k + 1, b + m.wire_size())
                    });
                send_cost += cpu.batch_cost(k, bytes);
            }
            // Replies to local clients are one more small send batch.
            let reply_count = eff.commits.iter().filter(|(_, r)| r.is_some()).count();
            if reply_count > 0 {
                send_cost += cpu.batch_cost(reply_count, reply_count * 16);
            }
        }

        let done = self.now + recv_cost + send_cost;
        self.nodes[idx].cpu_free = done;
        self.apply_effects(idx, eff, done);

        // More input may have queued while this step was being planned.
        let n = &mut self.nodes[idx];
        if !n.inbox.is_empty() && !n.inbox_scheduled {
            n.inbox_scheduled = true;
            let incarnation = n.incarnation;
            self.queue
                .push(done, Event::ProcessInbox { node, incarnation });
        }
    }

    /// Runs one input through node `idx`'s core and applies its effects
    /// at the current instant.
    fn invoke(&mut self, idx: usize, input: Input<P::Msg>) {
        let eff = self.nodes[idx].core.step(self.now, input);
        self.apply_effects(idx, eff, self.now);
    }

    /// Carries out the effects node `idx` produced in a step completing
    /// at `at`: schedules message deliveries (with latency, jitter, and
    /// per-link FIFO floors), arms timers, records executed commands, and
    /// routes replies.
    fn apply_effects(&mut self, idx: usize, eff: Effects<P>, at: Micros) {
        // Executing a flushed batch is not instantaneous: under a CPU
        // model, the k-th commit of one step finishes (and its reply
        // departs) k executions later than the first. Without the
        // spread, every reply of a saturating flush lands at one instant
        // and the sampled latency distribution collapses to a point
        // (p99 == p50) under heavy batched load.
        let per_exec_us = self.cfg.cpu.as_ref().map(|c| c.per_msg_us).unwrap_or(0);
        self.nodes[idx].core.finish(&eff, at, per_exec_us);
        let from = ReplicaId::new(idx as u16);
        for (to, msg) in eff.sends {
            // Link chaos (extra delay + jitter set by the fuzzer) applies
            // only to cross-node links; the FIFO floor below keeps each
            // link in order regardless, so chaos reorders across links
            // only — the one kind the drivers' FIFO contract permits.
            let (chaos_delay, chaos_jitter) = if to != from {
                self.link_chaos
                    .get(&link_key(from, to))
                    .copied()
                    .unwrap_or((0, 0))
            } else {
                (0, 0)
            };
            let base = if to == from {
                0
            } else {
                self.cfg.latency.one_way(from, to) + chaos_delay
            };
            let jitter_bound = if to != from {
                self.cfg.jitter_us + chaos_jitter
            } else {
                0
            };
            let jitter = if jitter_bound > 0 {
                self.rng.gen_range(0..=jitter_bound)
            } else {
                0
            };
            let floor = self.fifo_floor[idx][to.index()];
            let deliver_at = (at + base + jitter).max(floor);
            self.fifo_floor[idx][to.index()] = deliver_at;
            self.queue
                .push(deliver_at, Event::Deliver { from, to, msg });
        }
        for (after, token) in eff.timers {
            let incarnation = self.nodes[idx].incarnation;
            self.queue.push(
                at + after,
                Event::Timer {
                    node: from,
                    incarnation,
                    token,
                },
            );
        }
        if eff.installed {
            // A snapshot install jumped the state machine over commands
            // this node never executed individually, so its recorded
            // history would have a hole mid-stream. Restart the history
            // at the install (exactly like crash-recovery restarts it):
            // the total-order checker aligns mid-stream starts, but it
            // cannot align across interior gaps. The cumulative
            // commit_count is deliberately left alone.
            self.nodes[idx].commits.clear();
        }
        // Locally served reads: route straight back to the issuing
        // client — no commit, no history record, one delivery hop
        // (local, or the WAN hop home when the client routed the read
        // to a remote replica).
        for reply in eff.read_replies {
            let client = reply.id.client;
            self.queue.push(
                at + self.reply_delay(from, client),
                Event::ReplyArrive { client, reply },
            );
        }
        for (k, (committed, reply)) in eff.commits.into_iter().enumerate() {
            if self.cfg.record_history {
                self.nodes[idx].commits.push(CommitRecord {
                    at,
                    order_hint: committed.order_hint,
                    origin: committed.origin,
                    cmd_id: committed.cmd.id,
                });
            }
            self.app.on_commit(from, &committed, at);
            if let Some(reply) = reply {
                let client = reply.id.client;
                let done_at = at + per_exec_us * k as Micros;
                self.queue.push(
                    done_at + self.reply_delay(from, client),
                    Event::ReplyArrive { client, reply },
                );
            }
        }
    }

    /// Delay for a reply travelling from the replica that produced it
    /// back to the issuing client: the local hop when the client is
    /// co-located, the one-way WAN latency otherwise (a client that
    /// routed its request to a remote replica pays the trip home too).
    fn reply_delay(&self, from: ReplicaId, client: ClientId) -> Micros {
        if client.site() == from {
            self.cfg.local_delivery_us
        } else {
            self.cfg.latency.one_way(from, client.site())
        }
    }
}

fn link_key(a: ReplicaId, b: ReplicaId) -> (usize, usize) {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::CommandId;
    use rsm_core::protocol::Context;

    /// A toy protocol: the origin broadcasts a command; every replica
    /// commits on receipt (no coordination). Exercises delivery, FIFO,
    /// commits, replies, crash/recover, and CPU batching paths.
    struct Flood {
        id: ReplicaId,
        n: u16,
        delivered: u64,
    }

    #[derive(Clone, Debug)]
    struct FloodMsg(Command, ReplicaId);

    impl WireSize for FloodMsg {
        fn wire_size(&self) -> usize {
            32 + self.0.payload.len()
        }
    }

    impl Protocol for Flood {
        type Msg = FloodMsg;
        type LogRec = Command;

        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}
        fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
            for i in 0..self.n {
                ctx.send(ReplicaId::new(i), FloodMsg(cmd.clone(), self.id));
            }
        }
        fn on_message(&mut self, _from: ReplicaId, msg: FloodMsg, ctx: &mut dyn Context<Self>) {
            ctx.log_append(msg.0.clone());
            self.delivered += 1;
            ctx.commit(Committed {
                cmd: msg.0,
                origin: msg.1,
                order_hint: self.delivered,
            });
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, log: &[Command], ctx: &mut dyn Context<Self>) {
            for cmd in log {
                self.delivered += 1;
                ctx.commit(Committed {
                    cmd: cmd.clone(),
                    origin: self.id,
                    order_hint: self.delivered,
                });
            }
        }
    }

    struct CollectApp {
        replies: Vec<(Micros, CommandId)>,
        submitted: bool,
    }

    impl Application<Flood> for CollectApp {
        fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
            api.schedule(1_000, 0);
        }
        fn on_event(&mut self, _key: u64, api: &mut SimApi<'_, Flood>) {
            if !self.submitted {
                self.submitted = true;
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"x")),
                );
            }
        }
        fn on_reply(&mut self, _c: ClientId, reply: Reply, api: &mut SimApi<'_, Flood>) {
            self.replies.push((api.now(), reply.id));
        }
    }

    fn sm() -> Box<dyn StateMachine> {
        #[derive(Default)]
        struct Count(u64);
        impl StateMachine for Count {
            fn apply(&mut self, _cmd: &Command) -> Bytes {
                self.0 += 1;
                Bytes::copy_from_slice(&self.0.to_be_bytes())
            }
            fn snapshot(&self) -> Bytes {
                Bytes::copy_from_slice(&self.0.to_be_bytes())
            }
            fn reset(&mut self) {
                self.0 = 0;
            }
        }
        Box::new(Count::default())
    }

    fn flood_sim(cfg: SimConfig) -> Simulation<Flood, CollectApp> {
        let n = cfg.num_replicas() as u16;
        Simulation::new(
            cfg,
            move |id| Flood {
                id,
                n,
                delivered: 0,
            },
            sm,
            CollectApp {
                replies: Vec::new(),
                submitted: false,
            },
        )
    }

    #[test]
    fn command_floods_and_reply_arrives() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(1_000_000);
        // Reply path: 1ms sched + 0.3ms to replica + self deliver(0) + 0.3ms back.
        assert_eq!(sim.app().replies.len(), 1);
        let (at, _) = sim.app().replies[0];
        assert_eq!(at, 1_000 + 300 + 300);
        // All three replicas committed the command.
        for r in 0..3 {
            assert_eq!(sim.commit_count(ReplicaId::new(r)), 1);
        }
    }

    #[test]
    fn remote_delivery_takes_one_way_latency() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(1_000_000);
        let far = sim.commits(ReplicaId::new(1));
        assert_eq!(far.len(), 1);
        assert_eq!(far[0].at, 1_000 + 300 + 10_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = SimConfig::new(LatencyMatrix::uniform(5, 20_000))
                .seed(seed)
                .jitter_us(2_000);
            let mut sim = flood_sim(cfg);
            sim.run_until(1_000_000);
            sim.commits(ReplicaId::new(3)).to_vec()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn jitter_preserves_per_link_fifo() {
        // Two requests back-to-back; with huge jitter the two PREPAREs from
        // r0 to r1 must still arrive in order.
        struct TwoApp;
        impl Application<Flood> for TwoApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                for seq in 0..20 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"y")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000))
            .seed(9)
            .jitter_us(9_000);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TwoApp,
        );
        sim.run_until(10_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "FIFO violated: {seqs:?}");
    }

    #[test]
    fn crash_drops_messages_and_recovery_replays_log() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        // Crash r1 before the command reaches it (in flight at 1.3ms+10ms).
        sim.app_mut();
        {
            // Schedule crash at t=5ms (message in flight), recover at 50ms.
            let Simulation { queue, .. } = &mut sim;
            queue.push(
                5_000,
                Event::Crash {
                    node: ReplicaId::new(1),
                },
            );
            queue.push(
                50_000,
                Event::Recover {
                    node: ReplicaId::new(1),
                },
            );
        }
        sim.run_until(1_000_000);
        // r1 lost the in-flight message and its log is empty: zero commits.
        assert_eq!(sim.commit_count(ReplicaId::new(1)), 0);
        assert!(sim.is_up(ReplicaId::new(1)));
        // Other replicas unaffected.
        assert_eq!(sim.commit_count(ReplicaId::new(0)), 1);
        assert_eq!(sim.commit_count(ReplicaId::new(2)), 1);
    }

    #[test]
    fn stale_process_inbox_from_previous_incarnation_is_ignored() {
        // A ProcessInbox event scheduled while the node was busy, then
        // orphaned by a crash + recovery, must not fire against the new
        // incarnation: it would drain the recovered inbox early and
        // regress cpu_free below work the recovery already planned.
        struct NullApp;
        impl Application<Flood> for NullApp {
            fn on_init(&mut self, _: &mut SimApi<'_, Flood>) {}
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cpu = CpuModel {
            fixed_batch_us: 100_000,
            per_msg_us: 0,
            per_kb_us: 0,
        };
        let cfg = SimConfig::new(LatencyMatrix::uniform(1, 10_000)).cpu_model(cpu);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 1,
                delivered: 0,
            },
            sm,
            NullApp,
        );
        let node = ReplicaId::new(0);
        let req = |seq| Event::Request {
            to: node,
            cmd: Command::new(
                CommandId::new(ClientId::new(node, 0), seq),
                Bytes::from_static(b"x"),
            ),
        };
        {
            let Simulation { queue, .. } = &mut sim;
            // Processed at t=1ms; the node is then busy until ~201ms.
            queue.push(1_000, req(1));
            // Arrives while busy: ProcessInbox scheduled at ~201ms with
            // the pre-crash incarnation — the stale event under test.
            queue.push(2_000, req(2));
            queue.push(3_000, Event::Crash { node });
            queue.push(4_000, Event::Recover { node });
            // Post-recovery: one request processed immediately (busy
            // until ~205ms), one queued behind it.
            queue.push(5_000, req(3));
            queue.push(6_000, req(4));
        }
        sim.run_until(7_000);
        let busy_until = sim.nodes[0].cpu_free;
        assert!(
            busy_until > 201_000,
            "setup: node busy past the stale event"
        );
        assert_eq!(sim.nodes[0].inbox.len(), 1, "setup: one request queued");
        // Run past the stale event's fire time (but before the real one).
        sim.run_until(203_000);
        assert_eq!(
            sim.nodes[0].cpu_free, busy_until,
            "stale ProcessInbox regressed cpu_free"
        );
        assert!(
            !sim.nodes[0].inbox.is_empty(),
            "stale ProcessInbox drained the recovered inbox early"
        );
    }

    #[test]
    fn partition_parks_and_heal_delivers_in_order() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        struct ManyApp;
        impl Application<Flood> for ManyApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.partition(ReplicaId::new(0), ReplicaId::new(1), 0);
                for seq in 0..5 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
                api.heal(ReplicaId::new(0), ReplicaId::new(1), 200_000);
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            ManyApp,
        );
        sim.run_until(1_000_000);
        let commits = sim.commits(ReplicaId::new(1));
        assert_eq!(commits.len(), 5, "parked messages must deliver after heal");
        assert!(commits[0].at >= 200_000);
        let seqs: Vec<u64> = commits.iter().map(|c| c.cmd_id.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heal_flush_never_lets_in_flight_messages_overtake_the_backlog() {
        // Three messages park during a partition. A fourth is sent late
        // enough that its in-flight delivery time lands exactly on the
        // heal instant — its Deliver event sits in the queue with an
        // older sequence number than anything the heal schedules. Per-
        // link FIFO (a contract the protocols' cumulative acks rely on)
        // demands it still arrive AFTER the whole parked backlog.
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        struct TieApp;
        impl Application<Flood> for TieApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.partition(ReplicaId::new(0), ReplicaId::new(1), 0);
                for seq in 0..3 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
                // Request lands at 9_700 + 300 = 10_000; its broadcast
                // departs then and would arrive at 20_000 — the heal
                // instant — ahead of any event the heal enqueues.
                api.schedule(9_700, 42);
                api.heal(ReplicaId::new(0), ReplicaId::new(1), 20_000);
            }
            fn on_event(&mut self, _: u64, api: &mut SimApi<'_, Flood>) {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 99);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"t")),
                );
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
        }
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TieApp,
        );
        sim.run_until(1_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        assert_eq!(
            seqs,
            vec![0, 1, 2, 99],
            "the late message must not overtake the parked backlog"
        );
    }

    #[test]
    fn cpu_model_delays_processing_and_batches() {
        let cpu = CpuModel {
            fixed_batch_us: 100,
            per_msg_us: 10,
            per_kb_us: 0,
        };
        struct BurstApp;
        impl Application<Flood> for BurstApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                for seq in 0..10 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"c")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000)).cpu_model(cpu);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            BurstApp,
        );
        sim.run_until(10_000_000);
        assert_eq!(sim.commit_count(ReplicaId::new(1)), 10);
        // The 10 requests arrive together at t=300; the first CPU step
        // handles the whole batch: recv cost 100+10*10 = 200.
        let first_remote_commit = sim.commits(ReplicaId::new(1))[0].at;
        // Send batch to r1: 10 msgs -> 100+100 = 200; self batch too.
        // Departure at 300+200+200+200(self)=900, + 1000 link.
        assert!(first_remote_commit >= 300 + 200 + 1_000);
    }

    /// A protocol that records the sizes of the client batches handed to
    /// it, to observe driver coalescing directly.
    struct BatchObserver {
        id: ReplicaId,
        batch_sizes: Vec<usize>,
    }

    impl Protocol for BatchObserver {
        type Msg = ();
        type LogRec = ();

        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}
        fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
            self.on_client_batch(rsm_core::Batch::single(cmd), ctx);
        }
        fn on_client_batch(&mut self, batch: rsm_core::Batch, ctx: &mut dyn Context<Self>) {
            self.batch_sizes.push(batch.len());
            for cmd in batch {
                ctx.commit(Committed {
                    cmd,
                    origin: self.id,
                    order_hint: self.batch_sizes.len() as u64,
                });
            }
        }
        fn on_message(&mut self, _: ReplicaId, _: (), _: &mut dyn Context<Self>) {}
        fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, _: &[()], _: &mut dyn Context<Self>) {}
    }

    struct TenAtOnce;
    impl Application<BatchObserver> for TenAtOnce {
        fn on_init(&mut self, api: &mut SimApi<'_, BatchObserver>) {
            for seq in 0..10 {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"b")),
                );
            }
        }
        fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, BatchObserver>) {}
        fn on_event(&mut self, _: u64, _: &mut SimApi<'_, BatchObserver>) {}
    }

    fn observer_sim(batch: rsm_core::BatchPolicy) -> Vec<usize> {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000)).batch_policy(batch);
        let mut sim = Simulation::new(
            cfg,
            |id| BatchObserver {
                id,
                batch_sizes: Vec::new(),
            },
            sm,
            TenAtOnce,
        );
        sim.run_until(1_000_000);
        sim.protocol(ReplicaId::new(0)).batch_sizes.clone()
    }

    #[test]
    fn same_instant_requests_coalesce_up_to_the_policy_cap() {
        // All ten requests arrive at t = 300 (same local delivery delay).
        assert_eq!(observer_sim(rsm_core::BatchPolicy::DISABLED), vec![1; 10]);
        assert_eq!(observer_sim(rsm_core::BatchPolicy::max(4)), vec![4, 4, 2]);
        assert_eq!(observer_sim(rsm_core::BatchPolicy::max(64)), vec![10]);
    }

    struct MixedAtOnce;
    impl Application<BatchObserver> for MixedAtOnce {
        fn on_init(&mut self, api: &mut SimApi<'_, BatchObserver>) {
            // Five writes and five reads, all landing at t = 300.
            for seq in 0..10 {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                let cmd = if seq % 2 == 0 {
                    Command::new(id, Bytes::from_static(b"w"))
                } else {
                    Command::read(id, Bytes::from_static(b"r"))
                };
                api.submit(ReplicaId::new(0), cmd);
            }
        }
        fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, BatchObserver>) {}
        fn on_event(&mut self, _: u64, _: &mut SimApi<'_, BatchObserver>) {}
    }

    #[test]
    fn reads_never_join_write_batches() {
        // With a generous cap, the five writes coalesce into one batch;
        // the five reads bypass the coalescing path entirely (the
        // observer's default read path maps each to a single-command
        // dispatch). A read must never wait for a flush threshold.
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000))
            .batch_policy(rsm_core::BatchPolicy::max(64));
        let mut sim = Simulation::new(
            cfg,
            |id| BatchObserver {
                id,
                batch_sizes: Vec::new(),
            },
            sm,
            MixedAtOnce,
        );
        sim.run_until(1_000_000);
        let sizes = sim.protocol(ReplicaId::new(0)).batch_sizes.clone();
        assert_eq!(sizes.iter().sum::<usize>(), 10, "nothing lost");
        assert!(
            sizes.contains(&5),
            "the five writes must coalesce: {sizes:?}"
        );
        assert_eq!(
            sizes.iter().filter(|&&s| s == 1).count(),
            5,
            "each read dispatches alone: {sizes:?}"
        );
    }

    /// Sustained bursts under an adaptive policy, then a trickle: the
    /// effective threshold must widen to the cap under pressure and
    /// narrow again once the load subsides.
    struct BurstsThenTrickle {
        seq: u64,
    }
    impl BurstsThenTrickle {
        fn submit(&mut self, k: usize, api: &mut SimApi<'_, BatchObserver>) {
            for _ in 0..k {
                self.seq += 1;
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), self.seq);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"a")),
                );
            }
        }
    }
    impl Application<BatchObserver> for BurstsThenTrickle {
        fn on_init(&mut self, api: &mut SimApi<'_, BatchObserver>) {
            // 30 bursts of 16 same-instant requests, 1 ms apart…
            for burst in 0..30u64 {
                api.schedule(burst * 1_000, 0);
            }
            // …then 40 lone requests 10 ms apart.
            for i in 0..40u64 {
                api.schedule(100_000 + i * 10_000, 1);
            }
        }
        fn on_event(&mut self, key: u64, api: &mut SimApi<'_, BatchObserver>) {
            let k = if key == 0 { 16 } else { 1 };
            self.submit(k, api);
        }
        fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, BatchObserver>) {}
    }

    #[test]
    fn adaptive_policy_widens_with_load_and_narrows_back() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000))
            .batch_policy(rsm_core::BatchPolicy::adaptive(8));
        let mut sim = Simulation::new(
            cfg,
            |id| BatchObserver {
                id,
                batch_sizes: Vec::new(),
            },
            sm,
            BurstsThenTrickle { seq: 0 },
        );
        let r0 = ReplicaId::new(0);
        // Run through the burst phase: the threshold must hit the cap.
        sim.run_until(50_000);
        assert_eq!(
            sim.batch_threshold(r0),
            8,
            "sustained 16-deep bursts must widen the threshold to the cap"
        );
        let sizes = sim.protocol(r0).batch_sizes.clone();
        assert_eq!(sizes.iter().sum::<usize>(), 16 * 30);
        assert!(
            sizes[0] <= 2,
            "the first drain must stay near batch-of-1 latency: {sizes:?}"
        );
        assert!(
            sizes.contains(&8),
            "later bursts must coalesce at the cap: {sizes:?}"
        );
        // Run through the trickle: the threshold must narrow again.
        sim.run_until(1_000_000);
        assert!(
            sim.batch_threshold(r0) < 8,
            "a 1-deep trickle must narrow the threshold from the cap"
        );
        let sizes = sim.protocol(r0).batch_sizes.clone();
        assert_eq!(sizes.iter().sum::<usize>(), 16 * 30 + 40);
        assert!(
            sizes[sizes.len() - 40..].iter().all(|&s| s == 1),
            "trickle requests flush immediately"
        );
    }

    struct OversizedBurst;
    impl Application<BatchObserver> for OversizedBurst {
        fn on_init(&mut self, api: &mut SimApi<'_, BatchObserver>) {
            for seq in 0..6 {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from(vec![0u8; 1_000])),
                );
            }
        }
        fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, BatchObserver>) {}
        fn on_event(&mut self, _: u64, _: &mut SimApi<'_, BatchObserver>) {}
    }

    #[test]
    fn byte_budget_flushes_oversized_commands_before_the_count_cap() {
        // Six kilobyte commands under a 2 000-byte budget: the count cap
        // (64) never fills, but each pair of commands exhausts the byte
        // budget, so three two-command batches come out.
        let policy = rsm_core::BatchPolicy::max(64).with_max_bytes(2_000);
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000)).batch_policy(policy);
        let mut sim = Simulation::new(
            cfg,
            |id| BatchObserver {
                id,
                batch_sizes: Vec::new(),
            },
            sm,
            OversizedBurst,
        );
        sim.run_until(1_000_000);
        assert_eq!(
            sim.protocol(ReplicaId::new(0)).batch_sizes,
            vec![2, 2, 2],
            "the byte budget must flush before the count cap"
        );
    }

    #[test]
    fn run_until_stops_at_bound() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(500);
        assert!(sim.now() <= 1_000);
        assert_eq!(sim.app().replies.len(), 0);
    }

    #[test]
    fn scripted_clock_anomalies_stay_monotonic_through_the_sim() {
        // The observed-clock monotonicity guard must hold across every
        // anomaly kind when driven through the simulation, and the net
        // offsets must land where the schedule says.
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000))
            .clock_anomaly(1, 50_000, ClockAnomaly::Step(-40_000))
            .clock_anomaly(1, 120_000, ClockAnomaly::Freeze(30_000))
            .clock_anomaly(
                1,
                200_000,
                ClockAnomaly::DriftBurst {
                    ppm: 50_000.0,
                    dur_us: 100_000,
                },
            );
        let mut sim = flood_sim(cfg);
        let r = ReplicaId::new(1);
        let mut prev = 0;
        for k in 1..=40u64 {
            sim.run_until(k * 10_000);
            let v = sim.read_clock(r);
            assert!(
                v > prev,
                "clock regressed at t={}: {v} <= {prev}",
                k * 10_000
            );
            prev = v;
        }
        // Net: −40ms step, −30ms freeze, +5ms accumulated burst drift.
        assert_eq!(sim.now(), 400_000);
        assert_eq!(sim.read_clock(r), 400_000 - 40_000 - 30_000 + 5_000 + 1);
        // Replica 0's clock is untouched by replica 1's schedule.
        assert_eq!(sim.read_clock(ReplicaId::new(0)), 400_000);
    }

    #[test]
    fn link_delay_reorders_across_links_only() {
        // Extra delay on link (0,1) slows that link's delivery while the
        // (0,2) link is unaffected — cross-link reordering.
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.queue.push(
            0,
            Event::LinkDelay {
                a: ReplicaId::new(0),
                b: ReplicaId::new(1),
                extra_us: 50_000,
            },
        );
        sim.run_until(1_000_000);
        let r1 = sim.commits(ReplicaId::new(1))[0].at;
        let r2 = sim.commits(ReplicaId::new(2))[0].at;
        assert_eq!(r2, 1_000 + 300 + 10_000, "untouched link: base latency");
        assert_eq!(r1, 1_000 + 300 + 10_000 + 50_000, "chaos link: +50ms");
    }

    #[test]
    fn link_jitter_preserves_per_link_fifo() {
        // Same contract as global jitter, but injected per-link: the 20
        // floods from r0 to r1 must still commit in submission order.
        struct TwentyApp;
        impl Application<Flood> for TwentyApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.link_jitter(ReplicaId::new(0), ReplicaId::new(1), 9_000, 0);
                for seq in 0..20 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000)).seed(7);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TwentyApp,
        );
        sim.run_until(10_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        assert_eq!(seqs.len(), 20);
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "per-link FIFO violated: {seqs:?}");
    }
}
