//! Replay fingerprints: fixed-seed simulations whose complete observable
//! output is folded into one FNV-1a 64-bit digest per scenario and
//! compared against constants recorded once.
//!
//! `obs_determinism` and `chaos_regressions` compare two runs of the
//! *same* build; these digests compare a run against every earlier
//! build. A driver refactor that keeps the digests keeps simnet replays
//! byte-identical: the same commit histories, final state machines,
//! reply arrival instants, metric snapshots and span streams.
//!
//! Each scenario drives one of the driver paths a node can take:
//!
//! * `direct` — no CPU model and no coalescing: every event invokes the
//!   protocol at once (writes and local reads);
//! * `cpu_adaptive` — `CpuModel` pricing with an adaptive batch policy
//!   (inbox drains, coalescing, the adaptive latency feed), plus reads;
//! * `crash_recover` — a replica crashes and recovers from its stable
//!   log (replay with replies suppressed) under a static batch policy,
//!   with client retries;
//! * `snapshot_install` — a replica down past log compaction rejoins by
//!   installing a peer's checkpoint;
//! * `observed` — the CPU/adaptive/crash mix again with
//!   `ObsConfig::all()`, folding in the metrics JSON and the span stream.
//!
//! If a change alters a digest on purpose (a protocol change, a new
//! metric), the new constants must be recorded and the reason stated
//! alongside the change.

use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rand::Rng;
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::command::{Command, CommandId, Reply};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::{Micros, MILLIS};
use rsm_core::{BatchPolicy, LatencyMatrix};
use rsm_obs::ObsConfig;
use simnet::{Application, ClockModel, CpuModel, SimApi, SimConfig, Simulation};

/// FNV-1a, 64-bit: stable across builds and platforms, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn id(&mut self, id: CommandId) {
        self.u64(u64::from(id.client.site().as_u16()));
        self.u64(u64::from(id.client.number()));
        self.u64(id.seq);
    }
}

/// Client-side retry timeout: a request lost at a crashed replica is
/// re-submitted under the same id.
const RETRY_US: Micros = 300 * MILLIS;

/// Closed-loop clients, one command outstanding each, that fold every
/// reply arrival (instant, client, id, result) into a digest.
struct Clients {
    sites: u16,
    per_site: u32,
    read_percent: u64,
    /// Per client: its sequence number and in-flight command.
    state: Vec<(u64, Option<Command>)>,
    replies: Fnv,
}

impl Clients {
    fn new(sites: u16, per_site: u32, read_percent: u64) -> Self {
        Clients {
            sites,
            per_site,
            read_percent,
            state: vec![(0, None); sites as usize * per_site as usize],
            replies: Fnv::new(),
        }
    }

    fn client(&self, k: usize) -> ClientId {
        let site = ReplicaId::new((k / self.per_site as usize) as u16);
        ClientId::new(site, (k % self.per_site as usize) as u32)
    }

    fn issue<P: Protocol>(&mut self, k: usize, api: &mut SimApi<'_, P>) {
        let client = self.client(k);
        let seq = self.state[k].0 + 1;
        let key = format!("k{}", api.rng().gen_range(0..32u32));
        let id = CommandId::new(client, seq);
        let read = api.rng().gen_range(0..100u64) < self.read_percent;
        let cmd = if read {
            Command::read(id, KvOp::get(key).encode())
        } else {
            Command::new(id, KvOp::put(key, format!("v{seq}")).encode())
        };
        self.state[k] = (seq, Some(cmd.clone()));
        self.send(client.site(), cmd, api);
        api.schedule(RETRY_US, ((k as u64) << 32) | seq);
    }

    fn send<P: Protocol>(&self, site: ReplicaId, cmd: Command, api: &mut SimApi<'_, P>) {
        if cmd.read_only {
            let target = api.read_target(site);
            api.submit_from(site, target, cmd);
        } else {
            api.submit(site, cmd);
        }
    }
}

impl<P: Protocol> Application<P> for Clients {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        for k in 0..self.sites as usize * self.per_site as usize {
            self.issue(k, api);
        }
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>) {
        self.replies.u64(api.now());
        self.replies.id(reply.id);
        self.replies.bytes(&reply.result);
        let k = client.site().index() * self.per_site as usize + client.number() as usize;
        let current = self.state[k].1.as_ref().map(|c| c.id);
        if current == Some(reply.id) {
            self.state[k].1 = None;
            self.issue(k, api);
        }
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>) {
        let (k, seq) = ((key >> 32) as usize, key & 0xFFFF_FFFF);
        if let (s, Some(cmd)) = &self.state[k] {
            if *s == seq {
                let cmd = cmd.clone();
                self.send(self.client(k).site(), cmd, api);
                api.schedule(RETRY_US, key);
            }
        }
    }
}

/// A fault injected by the scenario: crash `replica` at `down`, recover
/// it at `up` (virtual µs).
#[derive(Clone, Copy)]
struct Outage {
    replica: u16,
    down: Micros,
    up: Micros,
}

#[derive(Clone, Copy)]
struct Scenario {
    latency_us: Micros,
    per_site: u32,
    read_percent: u64,
    cpu: bool,
    batch: BatchPolicy,
    outage: Option<Outage>,
    checkpoint: CheckpointPolicy,
    observe: bool,
    duration: Micros,
}

const DIRECT: Scenario = Scenario {
    latency_us: 10 * MILLIS,
    per_site: 2,
    read_percent: 30,
    cpu: false,
    batch: BatchPolicy::DISABLED,
    outage: None,
    checkpoint: CheckpointPolicy::DISABLED,
    observe: false,
    duration: 1_500 * MILLIS,
};

const CPU_ADAPTIVE: Scenario = Scenario {
    latency_us: 250,
    per_site: 12,
    read_percent: 20,
    cpu: true,
    batch: BatchPolicy {
        max_batch: 16,
        max_bytes: usize::MAX,
        adaptive: true,
    },
    outage: None,
    checkpoint: CheckpointPolicy::DISABLED,
    observe: false,
    duration: 400 * MILLIS,
};

const CRASH_RECOVER: Scenario = Scenario {
    latency_us: 2 * MILLIS,
    per_site: 3,
    read_percent: 10,
    cpu: true,
    batch: BatchPolicy {
        max_batch: 4,
        max_bytes: usize::MAX,
        adaptive: false,
    },
    outage: Some(Outage {
        replica: 1,
        down: 400 * MILLIS,
        up: 900 * MILLIS,
    }),
    checkpoint: CheckpointPolicy::DISABLED,
    observe: false,
    duration: 2_500 * MILLIS,
};

const SNAPSHOT_INSTALL: Scenario = Scenario {
    latency_us: 2 * MILLIS,
    per_site: 3,
    read_percent: 0,
    cpu: false,
    batch: BatchPolicy::DISABLED,
    outage: Some(Outage {
        replica: 2,
        down: 300 * MILLIS,
        up: 2_300 * MILLIS,
    }),
    checkpoint: CheckpointPolicy::DISABLED,
    observe: false,
    duration: 4_000 * MILLIS,
};

const OBSERVED: Scenario = Scenario {
    observe: true,
    batch: CPU_ADAPTIVE.batch,
    ..CRASH_RECOVER
};

impl Scenario {
    fn config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::new(LatencyMatrix::uniform(3, self.latency_us))
            .seed(seed)
            .jitter_us(self.latency_us / 10)
            .local_delivery_us(self.latency_us.min(300))
            .clock_model(ClockModel::ntp(MILLIS))
            .batch_policy(self.batch);
        if self.cpu {
            cfg = cfg.cpu_model(CpuModel::default());
        }
        if self.observe {
            cfg = cfg.observe(ObsConfig::all().poll_interval(50 * MILLIS));
        }
        cfg
    }

    fn run<P: Protocol + 'static>(
        &self,
        seed: u64,
        factory: impl FnMut(ReplicaId) -> P + 'static,
    ) -> u64 {
        let clients = Clients::new(3, self.per_site, self.read_percent);
        let mut sim = Simulation::new(
            self.config(seed),
            factory,
            || Box::new(KvStore::new()),
            clients,
        );
        if let Some(o) = self.outage {
            sim.crash(ReplicaId::new(o.replica), o.down);
            sim.recover(ReplicaId::new(o.replica), o.up);
        }
        sim.run_until(self.duration);
        let mut d = Fnv::new();
        for i in 0..3u16 {
            let r = ReplicaId::new(i);
            d.u64(sim.commit_count(r));
            for c in sim.commits(r) {
                d.u64(c.at);
                d.u64(c.order_hint);
                d.u64(u64::from(c.origin.as_u16()));
                d.id(c.cmd_id);
            }
            d.bytes(&sim.snapshot(r));
            d.u64(sim.log(r).len() as u64);
        }
        d.u64(sim.app().replies.0);
        if let Some(m) = sim.metrics() {
            d.bytes(m.to_json().as_bytes());
        }
        if let Some(t) = sim.tracer() {
            for s in t.completed().iter().chain(t.open_spans().iter()) {
                d.u64(s.key);
                d.u64(u64::from(s.origin));
                for stage in s.stages {
                    d.u64(stage.map_or(u64::MAX, |v| v));
                }
                d.u64(u64::from(s.retries));
            }
        }
        d.0
    }

    fn clock_rsm(&self, seed: u64) -> u64 {
        let checkpoint = self.checkpoint;
        // Failure detection lets the survivors reconfigure around a
        // crashed replica (Clock-RSM otherwise waits for every clock).
        let cfg = ClockRsmConfig::default()
            .with_delta_us(Some(5 * MILLIS))
            .with_failure_detection(Some(150 * MILLIS))
            .with_synod_retry_us(50 * MILLIS)
            .with_reconfig_retry_us(50 * MILLIS);
        let cfg = if checkpoint.enabled() {
            cfg.with_checkpoint(checkpoint)
        } else {
            cfg
        };
        self.run(seed, move |id| {
            ClockRsm::new(id, Membership::uniform(3), cfg)
        })
    }

    fn paxos_bcast(&self, seed: u64) -> u64 {
        let checkpoint = self.checkpoint;
        self.run(seed, move |id| {
            MultiPaxos::new(
                id,
                Membership::uniform(3),
                ReplicaId::new(0),
                PaxosVariant::Bcast,
            )
            .with_checkpoints(checkpoint)
        })
    }

    fn mencius_bcast(&self, seed: u64) -> u64 {
        let checkpoint = self.checkpoint;
        self.run(seed, move |id| {
            MenciusBcast::new(id, Membership::uniform(3)).with_checkpoints(checkpoint)
        })
    }

    /// Digests for Clock-RSM, Paxos-bcast and Mencius-bcast, in order.
    fn digests(&self, seed: u64) -> [u64; 3] {
        [
            self.clock_rsm(seed),
            self.paxos_bcast(seed),
            self.mencius_bcast(seed),
        ]
    }
}

fn snapshot_install() -> Scenario {
    Scenario {
        checkpoint: CheckpointPolicy::every(16).with_compaction(true),
        ..SNAPSHOT_INSTALL
    }
}

fn check(name: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "{name}: replay digests changed (Clock-RSM, Paxos-bcast, Mencius-bcast); \
         got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn direct_invoke_replays_unchanged() {
    check(
        "direct",
        DIRECT.digests(11),
        [0xe62b69e867855512, 0x533e408216fa7f2b, 0x85216a6cf99384d2],
    );
}

#[test]
fn cpu_adaptive_replays_unchanged() {
    check(
        "cpu_adaptive",
        CPU_ADAPTIVE.digests(12),
        [0x4db3bbf2efb002d9, 0xfddd53ae34c72c9b, 0xde8224db199e88aa],
    );
}

#[test]
fn crash_recover_replays_unchanged() {
    check(
        "crash_recover",
        CRASH_RECOVER.digests(13),
        [0x0834feb590d98497, 0x3fe117fa8fac587e, 0xd90ba7cbdbaf35ef],
    );
}

#[test]
fn snapshot_install_replays_unchanged() {
    check(
        "snapshot_install",
        snapshot_install().digests(14),
        [0x230eb1cd98220c3c, 0xfbcd2fdac6eb4c06, 0xbf62f7969322b9dc],
    );
}

#[test]
fn observed_replays_unchanged() {
    check(
        "observed",
        OBSERVED.digests(15),
        [0xa8fe8d15235789f7, 0xb9e49aa5e08f38e8, 0xf7097c6f2dde6e41],
    );
}
