//! The simulator workload: `simnet` on Fig. 8's local-cluster setup.

use std::sync::Arc;
use std::time::Instant;

use clock_rsm::{ClockRsm, ClockRsmConfig};
use harness::lin::check_all;
use harness::{WorkloadApp, WorkloadConfig};
use kvstore::KvStore;
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::batch::BatchPolicy;
use rsm_core::config::Membership;
use rsm_core::id::ReplicaId;
use rsm_core::matrix::LatencyMatrix;
use rsm_core::protocol::Protocol;
use rsm_core::sm::StateMachine;
use rsm_core::time::MILLIS;
use rsm_core::wire::WireMsg;
use simnet::{ClockModel, CpuModel, SimConfig, Simulation};

use crate::probe::{sm_factory, LayerStats, Probe, ProbeConfig, Stamps, StatsSink};
use crate::sys;
use crate::workloads::{SimSpec, KEY_SPACE};

/// The protocols Fig. 8 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Clock-RSM.
    ClockRsm,
    /// Multi-Paxos with broadcast phase 2b, leader at replica 0.
    PaxosBcast,
    /// Mencius with broadcast acknowledgements.
    MenciusBcast,
}

impl Proto {
    /// All three, in the order the workload runs them.
    pub const ALL: [Proto; 3] = [Proto::ClockRsm, Proto::PaxosBcast, Proto::MenciusBcast];
}

/// What one simulated run measured.
pub struct SimOut {
    /// Commands executed at replica 0 during the timed run.
    pub commits: u64,
    /// Wall time of the timed run, ns.
    pub wall_ns: u64,
    /// Process CPU time of the timed run, ns.
    pub cpu_ns: u64,
    /// Simulated issue-to-reply latency of each command issued after
    /// warm-up and answered inside the window, virtual µs.
    pub virtual_lat_us: Vec<u64>,
    /// Probe stats over the timed run, all replicas merged (traced runs).
    pub layers: LayerStats,
}

/// The simulation for `spec`, seeded.
pub fn sim_config(spec: &SimSpec, seed: u64) -> SimConfig {
    SimConfig::new(LatencyMatrix::uniform(spec.replicas, spec.one_way_us))
        .seed(seed)
        .clock_model(ClockModel::ntp(MILLIS))
        .cpu_model(CpuModel::default())
        .batch_policy(BatchPolicy::DISABLED)
        .record_history(true)
}

/// `harness`'s closed-loop clients for `spec`, updates only: Fig. 8's
/// saturating clients send their next `put` the moment a reply arrives.
fn workload(spec: &SimSpec, measure_until: u64) -> WorkloadConfig {
    WorkloadConfig {
        n_sites: spec.replicas,
        active_sites: (0..spec.replicas as u16).map(ReplicaId::new).collect(),
        clients_per_site: spec.clients_per_site,
        think_max_us: 0,
        value_bytes: spec.value_bytes,
        key_space: KEY_SPACE,
        read_fraction: 0.0,
        warmup_until: spec.warmup_us,
        measure_until,
        record_ops: false,
        faults: Vec::new(),
        retry_timeout_us: None,
        cas_fraction: 0.0,
    }
}

fn kv() -> Box<dyn StateMachine> {
    Box::new(KvStore::new())
}

/// Builds `proto`'s replica `id` in a cluster of `n`.
fn with_proto<R>(proto: Proto, n: usize, run: impl ProtoRun<R>) -> R {
    let m = Membership::uniform(n as u16);
    match proto {
        Proto::ClockRsm => {
            run.go(move |id| ClockRsm::new(id, m.clone(), ClockRsmConfig::default()))
        }
        Proto::PaxosBcast => {
            run.go(move |id| MultiPaxos::new(id, m.clone(), ReplicaId::new(0), PaxosVariant::Bcast))
        }
        Proto::MenciusBcast => run.go(move |id| MenciusBcast::new(id, m.clone())),
    }
}

/// A computation generic over the protocol type.
pub trait ProtoRun<R> {
    /// Runs with replicas built by `factory`.
    fn go<P>(self, factory: impl FnMut(ReplicaId) -> P + Clone + 'static) -> R
    where
        P: Protocol + 'static,
        P::Msg: WireMsg;
}

struct Measure<'a> {
    spec: &'a SimSpec,
    seed: u64,
    traced: bool,
}

impl ProtoRun<Result<SimOut, String>> for Measure<'_> {
    fn go<P>(self, factory: impl FnMut(ReplicaId) -> P + Clone + 'static) -> Result<SimOut, String>
    where
        P: Protocol + 'static,
        P::Msg: WireMsg,
    {
        if self.traced {
            let sink: StatsSink = Default::default();
            let cfg = ProbeConfig {
                stamps: Stamps::new(0, true),
                wire_sample_every: 0,
                sink: sink.clone(),
            };
            let mut f = factory;
            let stamps = cfg.stamps.clone();
            let sms = sm_factory(stamps.clone(), Some(sink.clone()));
            let mut out = measure(
                self.spec,
                self.seed,
                move |id| Probe::new(f(id), cfg.clone()),
                sms,
                Some(stamps),
            )?;
            for (_, s) in sink.lock().expect("stats sink").iter() {
                out.layers.merge(s);
            }
            Ok(out)
        } else {
            measure(self.spec, self.seed, factory, kv, None)
        }
    }
}

fn measure<P>(
    spec: &SimSpec,
    seed: u64,
    factory: impl FnMut(ReplicaId) -> P + 'static,
    sms: impl Fn() -> Box<dyn StateMachine>,
    window: Option<Arc<Stamps>>,
) -> Result<SimOut, String>
where
    P: Protocol + 'static,
{
    let end = spec.warmup_us + spec.measure_us;
    let app = WorkloadApp::new(workload(spec, end));
    if let Some(w) = &window {
        w.open_window();
    }
    let (t, cpu0) = (Instant::now(), sys::cpu_ns());
    let mut sim = Simulation::new(sim_config(spec, seed), factory, sms, app);
    sim.run_until(end);
    let (wall_ns, cpu_ns) = (t.elapsed().as_nanos() as u64, sys::cpu_ns() - cpu0);
    if let Some(w) = &window {
        w.close_window();
    }
    let r0 = ReplicaId::new(0);
    let commits = sim.commit_count(r0);

    // Correctness gate: after the clients stop, every replica must reach
    // the same state through one total order with no duplicates.
    sim.run_until(end + 2_000 * MILLIS);
    let replicas: Vec<ReplicaId> = (0..spec.replicas as u16).map(ReplicaId::new).collect();
    let histories: Vec<_> = replicas.iter().map(|&r| sim.commits(r).to_vec()).collect();
    let checks = check_all(&histories, &[]);
    if !checks.all_ok() {
        return Err(format!(
            "simulated run failed its checks: {:?}",
            checks.violation
        ));
    }
    let snap = sim.snapshot(r0);
    if replicas.iter().any(|&r| sim.snapshot(r) != snap) {
        return Err("simulated replicas' snapshots disagree".into());
    }
    if commits == 0 {
        return Err("the simulated run committed nothing".into());
    }
    Ok(SimOut {
        commits,
        wall_ns,
        cpu_ns,
        virtual_lat_us: sim.app().write_stats().samples().to_vec(),
        layers: LayerStats::default(),
    })
}

/// Runs `proto` for the workload's window, timing the run.
pub fn run(spec: &SimSpec, proto: Proto, seed: u64, traced: bool) -> Result<SimOut, String> {
    with_proto(proto, spec.replicas, Measure { spec, seed, traced })
}

struct Setup<'a> {
    spec: &'a SimSpec,
    seed: u64,
}

impl ProtoRun<Result<f64, String>> for Setup<'_> {
    fn go<P>(self, factory: impl FnMut(ReplicaId) -> P + Clone + 'static) -> Result<f64, String>
    where
        P: Protocol + 'static,
        P::Msg: WireMsg,
    {
        let app = WorkloadApp::new(workload(self.spec, u64::MAX));
        let t = Instant::now();
        let mut sim = Simulation::new(sim_config(self.spec, self.seed), factory, kv, app);
        let n = self.spec.replicas as u16;
        while (0..n).any(|r| sim.commit_count(ReplicaId::new(r)) == 0) {
            if !sim.step() {
                return Err("simulation ran dry before every replica committed".into());
            }
        }
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Wall time from building the simulation to the first commit at every
/// replica, seconds.
pub fn setup_once(spec: &SimSpec, proto: Proto, seed: u64) -> Result<f64, String> {
    with_proto(proto, spec.replicas, Setup { spec, seed })
}

/// Per replica: how many commands it executed, and its whole history and
/// final snapshot rendered for comparison.
pub type Replay = Vec<(u64, String)>;

/// Runs a small seeded simulation of `proto` (read mix, think time) twice,
/// bare and wrapped in the probes with every peer message sampled through
/// the codec, and returns both runs' per-replica histories and snapshots.
pub fn transparency_pair(proto: Proto, seed: u64) -> (Replay, Replay) {
    struct Pair {
        seed: u64,
        wrapped: bool,
    }
    impl ProtoRun<Replay> for Pair {
        fn go<P>(self, factory: impl FnMut(ReplicaId) -> P + Clone + 'static) -> Replay
        where
            P: Protocol + 'static,
            P::Msg: WireMsg,
        {
            let spec = SimSpec {
                replicas: 3,
                one_way_us: 5_000,
                clients_per_site: 4,
                value_bytes: 16,
                warmup_us: 0,
                measure_us: 400_000,
            };
            let mut wl = workload(&spec, spec.measure_us);
            wl.read_fraction = 0.3;
            wl.think_max_us = 2_000;
            let cfg = sim_config(&spec, self.seed);
            if !self.wrapped {
                return replay(cfg, wl, factory, kv);
            }
            let probe = ProbeConfig {
                stamps: Stamps::new(0, true),
                wire_sample_every: 1,
                sink: Default::default(),
            };
            let sms = sm_factory(probe.stamps.clone(), Some(probe.sink.clone()));
            let mut f = factory;
            replay(cfg, wl, move |id| Probe::new(f(id), probe.clone()), sms)
        }
    }
    let bare = with_proto(
        proto,
        3,
        Pair {
            seed,
            wrapped: false,
        },
    );
    let wrapped = with_proto(
        proto,
        3,
        Pair {
            seed,
            wrapped: true,
        },
    );
    (bare, wrapped)
}

fn replay<P: Protocol + 'static>(
    cfg: SimConfig,
    wl: WorkloadConfig,
    factory: impl FnMut(ReplicaId) -> P + 'static,
    sms: impl Fn() -> Box<dyn StateMachine>,
) -> Replay {
    let until = wl.measure_until + 500_000;
    let n = wl.n_sites as u16;
    let mut sim = Simulation::new(cfg, factory, sms, WorkloadApp::<P>::new(wl));
    sim.run_until(until);
    (0..n)
        .map(ReplicaId::new)
        .map(|r| {
            let history = sim.commits(r);
            (
                sim.commit_count(r),
                format!("{history:?} / {:?}", sim.snapshot(r)),
            )
        })
        .collect()
}
