//! Runtime workloads: open-loop load on a live `rsm_runtime::Cluster`.
//!
//! Every phase spawns a fresh cluster, sends a seeded command plan on a
//! fixed schedule through `Cluster::submit` (one fresh client per
//! command, numbered below `CLIENT_BASE`), waits for every command to
//! complete at its origin, fences each site with a read, shuts the
//! cluster down and checks the replicas agree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::KvOp;
use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::protocol::Protocol;
use rsm_core::sm::StateMachine;
use rsm_core::wire::WireMsg;
use rsm_obs::{Gauge, MetricsSnapshot, ObsConfig};
use rsm_runtime::cluster::CLIENT_BASE;
use rsm_runtime::{Cluster, ClusterConfig, ClusterTransport};

use crate::gen::{open_loop, Sent};
use crate::probe::{sm_factory, LayerStats, Probe, ProbeConfig, Stamps, StatsSink};
use crate::stats::{percentile, Rng};
use crate::sys;
use crate::workloads::{
    RtSpec, DRAIN_TIMEOUT_S, KEY_SPACE, RT_MAX_BATCH, RT_REPLICAS, VALUE_BYTES, WARMUP_FRAC,
    WIRE_SAMPLE_EVERY,
};

/// A seeded command plan: which site each command goes to and what it
/// does.
pub struct Plan {
    cmds: Vec<Command>,
    reads: Vec<bool>,
}

impl Plan {
    /// `n` commands, `read_frac` of them `get`s, spread uniformly over
    /// the sites and a `KEY_SPACE`-key space.
    pub fn new(seed: u64, n: usize, read_frac: f64) -> Plan {
        assert!(n < CLIENT_BASE as usize);
        let mut rng = Rng::new(seed);
        let mut cmds = Vec::with_capacity(n);
        let mut reads = Vec::with_capacity(n);
        for k in 0..n {
            let site = ReplicaId::new(rng.below(RT_REPLICAS as u64) as u16);
            let id = CommandId::new(ClientId::new(site, k as u32), 1);
            let key = format!("k{:05}", rng.below(KEY_SPACE));
            let read = rng.unit() < read_frac;
            cmds.push(if read {
                Command::read(id, KvOp::get(key).encode())
            } else {
                let value: Vec<u8> = (0..VALUE_BYTES)
                    .map(|_| b'a' + rng.below(26) as u8)
                    .collect();
                Command::new(id, KvOp::put(key, value).encode())
            });
            reads.push(read);
        }
        Plan { cmds, reads }
    }

    fn len(&self) -> usize {
        self.cmds.len()
    }
}

/// What one phase measured.
pub struct PhaseOut {
    /// Commands sent.
    pub sent: usize,
    /// Commands not complete within the drain timeout.
    pub failed: usize,
    /// Latency (intended send to completion) of each measured command,
    /// in send order, ns.
    pub lat: Vec<u64>,
    /// Whether each measured command was a read.
    pub is_read: Vec<bool>,
    /// Generator lateness, ns, every command.
    pub late: Vec<u64>,
    /// Mean time inside `Cluster::submit`, ns.
    pub submit_ns: f64,
    /// Whether the backlog grew over the second half of the schedule.
    pub backlog_grew: bool,
    /// Process CPU time from the first send to the last completion, ns.
    pub cpu_ns: u64,
    /// Wall time of the same window, ns.
    pub window_ns: u64,
    /// Peak RSS over the phase, MiB.
    pub peak_rss_mb: f64,
    /// Traced phases: per-replica stats (protocol and state machine
    /// probes merged per replica) over the same window.
    pub layers: Vec<LayerStats>,
    /// Traced phases: per-command waits, µs.
    pub inbox_wait_us: Vec<u64>,
    /// Callback at the origin to `Context::commit` at the origin, µs.
    pub order_wait_us: Vec<u64>,
    /// Read callback to `Context::sm_read`, µs.
    pub stable_wait_us: Vec<u64>,
    /// Final registry snapshot (observing clusters).
    pub metrics: Option<MetricsSnapshot>,
    /// Deepest per-peer socket queue seen while sending.
    pub outq_max: i64,
    /// Spans the tracer dropped (observing clusters).
    pub spans_dropped: u64,
}

impl PhaseOut {
    fn lat_where(&self, read: bool) -> Vec<u64> {
        self.lat
            .iter()
            .zip(&self.is_read)
            .filter(|(_, r)| **r == read)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Latencies of the measured reads, ns.
    pub fn read_lat(&self) -> Vec<u64> {
        self.lat_where(true)
    }

    /// Latencies of the measured writes, ns.
    pub fn write_lat(&self) -> Vec<u64> {
        self.lat_where(false)
    }

    /// p99 of every measured latency, ms.
    pub fn p99_ms(&self) -> f64 {
        percentile(&self.lat, 0.99) / 1e6
    }

    /// Commands completed.
    pub fn completed(&self) -> usize {
        self.sent - self.failed
    }
}

fn clock_rsm(id: ReplicaId) -> ClockRsm {
    ClockRsm::new(
        id,
        Membership::uniform(RT_REPLICAS as u16),
        ClockRsmConfig::default(),
    )
}

fn config(spec: &RtSpec, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(LatencyMatrix::uniform(RT_REPLICAS, spec.one_way_us))
        .batch_policy(BatchPolicy::adaptive(RT_MAX_BATCH))
        .transport(spec.transport);
    if spec.clock_skew_us > 0 {
        let mut rng = Rng::new(seed ^ 0xC10C);
        let span = 2 * spec.clock_skew_us as u64 + 1;
        for i in 0..RT_REPLICAS {
            cfg = cfg.clock_offset_us(i, rng.below(span) as i64 - spec.clock_skew_us);
        }
    }
    if spec.observe {
        cfg = cfg.observe(ObsConfig::all());
    }
    cfg
}

/// Time from `Cluster::spawn` to the first completion at every site,
/// seconds: one `put` per site, submitted right after spawn, timed by
/// the completion stamps (not by how often this thread polls them).
pub fn setup_once(spec: &RtSpec, seed: u64) -> Result<f64, String> {
    let plan: Vec<Command> = (0..RT_REPLICAS)
        .map(|i| {
            let id = CommandId::new(ClientId::new(ReplicaId::new(i as u16), i as u32), 1);
            Command::new(id, KvOp::put(format!("setup{i}"), "v").encode())
        })
        .collect();
    let stamps = Stamps::new(plan.len(), false);
    let spawned = stamps.now();
    let cluster = Cluster::spawn(
        config(spec, seed),
        clock_rsm,
        sm_factory(stamps.clone(), None),
    );
    for cmd in plan {
        cluster.submit(cmd.id.client.site(), cmd);
    }
    let timeout = Duration::from_secs_f64(DRAIN_TIMEOUT_S);
    let ok = wait_complete(&stamps, RT_REPLICAS, timeout);
    cluster.shutdown();
    if !ok {
        return Err("setup: a site never completed its first command".into());
    }
    let last = stamps.done.iter().map(|d| d.load(Ordering::Relaxed)).max();
    Ok((last.unwrap_or(spawned) - spawned) as f64 / 1e9)
}

fn wait_complete(stamps: &Stamps, n: usize, timeout: Duration) -> bool {
    let t = Instant::now();
    while stamps.completed.load(Ordering::Acquire) < n {
        if t.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    true
}

/// How a phase runs.
pub struct PhaseCfg<'a> {
    /// The workload.
    pub spec: &'a RtSpec,
    /// Seed of the clock offsets.
    pub seed: u64,
    /// Offered rate, commands per second.
    pub rate: f64,
    /// Whether the protocol and state machine are probed.
    pub traced: bool,
}

/// Runs one phase of `plan` at `cfg.rate` on a fresh cluster.
pub fn phase(cfg: &PhaseCfg<'_>, plan: Plan) -> Result<PhaseOut, String> {
    if cfg.traced {
        let sink: StatsSink = Arc::new(Mutex::new(Vec::new()));
        let stamps = Stamps::new(plan.len(), true);
        let wire_every = match cfg.spec.transport {
            ClusterTransport::InProcess => 0,
            _ => WIRE_SAMPLE_EVERY,
        };
        let probe = ProbeConfig {
            stamps: stamps.clone(),
            wire_sample_every: wire_every,
            sink: sink.clone(),
        };
        let sms = sm_factory(stamps.clone(), Some(sink.clone()));
        run_phase(
            cfg,
            plan,
            stamps,
            Some(sink),
            move |id| Probe::new(clock_rsm(id), probe.clone()),
            sms,
        )
    } else {
        let stamps = Stamps::new(plan.len(), false);
        let sms = sm_factory(stamps.clone(), None);
        run_phase(cfg, plan, stamps, None, clock_rsm, sms)
    }
}

fn run_phase<P>(
    cfg: &PhaseCfg<'_>,
    plan: Plan,
    stamps: Arc<Stamps>,
    sink: Option<StatsSink>,
    factory: impl FnMut(ReplicaId) -> P,
    sms: impl Fn() -> Box<dyn StateMachine>,
) -> Result<PhaseOut, String>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let n = plan.len();
    let writes = plan.reads.iter().filter(|r| !**r).count() as u64;
    sys::reset_peak_rss();
    let cluster = Cluster::spawn(config(cfg.spec, cfg.seed), factory, sms);
    let timeout = Duration::from_secs_f64(DRAIN_TIMEOUT_S);
    // Warm-up outside the schedule: one blocking write per site brings
    // up every link before the clock starts.
    for i in 0..RT_REPLICAS {
        let site = ReplicaId::new(i as u16);
        cluster
            .execute(site, KvOp::put("warm", "up").encode(), timeout)
            .map_err(|e| format!("warm-up write at {site}: {e}"))?;
    }
    let outq: Vec<Gauge> = match cluster.registry() {
        Some(r) if cfg.spec.transport != ClusterTransport::InProcess => (0..RT_REPLICAS)
            .flat_map(|i| {
                (0..RT_REPLICAS)
                    .filter(move |&j| j != i)
                    .map(move |j| (i, j))
            })
            .map(|(i, j)| r.gauge(&format!("r{i}.transport.outq.{j}")))
            .collect(),
        _ => Vec::new(),
    };
    let mut outq_max = 0i64;
    let mut last_sample = Instant::now();

    // The window over which CPU time is read and the probes tally.
    stamps.open_window();
    let (cpu0, wall0) = (sys::cpu_ns(), Instant::now());
    let mut cmds = plan.cmds.into_iter();
    let traced = !stamps.submit.is_empty();
    let sent: Sent = open_loop(
        n,
        cfg.rate,
        |t| stamps.at(t),
        |k| {
            let cmd = cmds.next().expect("plan covers the schedule");
            if traced {
                stamps.submit[k].store(stamps.now(), Ordering::Relaxed);
            }
            cluster.submit(cmd.id.client.site(), cmd);
        },
        || {
            if !outq.is_empty() && last_sample.elapsed() >= Duration::from_millis(1) {
                last_sample = Instant::now();
                outq_max = outq_max.max(rsm_obs::gauge_max(&outq));
            }
        },
    );
    wait_complete(&stamps, n, timeout);
    let cpu_ns = sys::cpu_ns() - cpu0;
    let window_ns = wall0.elapsed().as_nanos() as u64;
    stamps.close_window();

    // Fence: a read served at a site proves the site executed every
    // write stamped before it, so the final reports are comparable.
    for i in 0..RT_REPLICAS {
        let site = ReplicaId::new(i as u16);
        cluster
            .read(site, KvOp::get("fence").encode(), timeout)
            .map_err(|e| format!("fence read at {site}: {e}"))?;
    }
    let metrics = cluster.metrics();
    let spans_dropped = cluster.tracer().map_or(0, |t| t.dropped());
    let reports = cluster.shutdown();
    let peak_rss_mb = sys::peak_rss_mb();

    // Correctness gate.
    let failed = n - stamps.completed.load(Ordering::Acquire);
    let dups = stamps.duplicates.load(Ordering::Relaxed);
    if dups > 0 {
        return Err(format!("{dups} commands completed twice at their origin"));
    }
    let misrouted = stamps.misrouted.load(Ordering::Relaxed);
    if misrouted > 0 {
        return Err(format!(
            "{misrouted} reads were served away from their origin"
        ));
    }
    if let Some(r) = reports.iter().find(|r| r.snapshot != reports[0].snapshot) {
        return Err(format!("replica {} snapshot differs from replica 0", r.id));
    }
    // Every planned write plus one warm-up write per site, exactly once.
    let expect = writes + RT_REPLICAS as u64;
    if failed == 0 {
        if let Some(r) = reports.iter().find(|r| r.commit_count != expect) {
            return Err(format!(
                "replica {} executed {} commands, expected {expect}",
                r.id, r.commit_count
            ));
        }
    } else if let Some(r) = reports
        .iter()
        .find(|r| r.commit_count != reports[0].commit_count)
    {
        return Err(format!(
            "replica {} commit count differs from replica 0",
            r.id
        ));
    }

    // Latencies from the intended send time.
    let skip = (n as f64 * WARMUP_FRAC) as usize;
    let (mut lat, mut is_read) = (Vec::new(), Vec::new());
    let done = |k: usize| stamps.done[k].load(Ordering::Relaxed);
    for k in skip..n {
        let d = done(k);
        if d > 0 {
            lat.push(d.saturating_sub(sent.due[k]));
            is_read.push(plan.reads[k]);
        }
    }

    // Backlog: sent-but-incomplete commands at the end of the schedule
    // versus halfway through it, beyond half a limit's worth of sends.
    let backlog = |t: u64| {
        let sent_by = sent.due.partition_point(|&d| d <= t);
        let done_by = (0..sent_by).filter(|&k| (1..=t).contains(&done(k))).count();
        sent_by - done_by
    };
    let (t_mid, t_end) = (sent.due[n / 2], sent.due[n - 1]);
    let slack = (cfg.rate * cfg.spec.limit_ms / 1e3 / 2.0) as usize;
    let backlog_grew = backlog(t_end) > backlog(t_mid) + slack;

    let mut out = PhaseOut {
        sent: n,
        failed,
        lat,
        is_read,
        submit_ns: sent.send_ns as f64 / n as f64,
        late: sent.late_ns,
        backlog_grew,
        cpu_ns,
        window_ns,
        peak_rss_mb,
        layers: Vec::new(),
        inbox_wait_us: Vec::new(),
        order_wait_us: Vec::new(),
        stable_wait_us: Vec::new(),
        metrics,
        outq_max,
        spans_dropped,
    };
    if let Some(sink) = sink {
        let mut per = vec![LayerStats::default(); RT_REPLICAS];
        for (id, s) in sink.lock().expect("stats sink").iter() {
            per[id.index()].merge(s);
        }
        out.layers = per;
        let get = |v: &[AtomicU64], k: usize| v[k].load(Ordering::Relaxed);
        for k in skip..n {
            let (sub, cb) = (get(&stamps.submit, k), get(&stamps.callback, k));
            if sub == 0 || cb == 0 {
                continue;
            }
            out.inbox_wait_us.push(cb.saturating_sub(sub) / 1_000);
            if plan.reads[k] {
                let ready = get(&stamps.read_ready, k);
                if ready > 0 {
                    out.stable_wait_us.push(ready.saturating_sub(cb) / 1_000);
                }
            } else {
                let commit = get(&stamps.commit, k);
                if commit > 0 {
                    out.order_wait_us.push(commit.saturating_sub(cb) / 1_000);
                }
            }
        }
    }
    Ok(out)
}

/// The capacity sweep gives up below this rate, kops.
const MIN_KOPS: f64 = 0.25;

/// Rate ratio between staircase steps before its first reversal.
const STAIR_COARSE: f64 = 1.2;

/// Rate ratio between staircase steps after its first reversal.
const STAIR_FINE: f64 = 1.07;

/// One step of the capacity sweep.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, kops.
    pub kops: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Latency samples behind `p99_ms`.
    pub samples: usize,
    /// Commands sent.
    pub sent: usize,
    /// Commands that never completed.
    pub failed: usize,
    /// Whether the step met the limit without a growing backlog.
    pub pass: bool,
}

/// The highest offered rate whose p99 stays within `spec.limit_ms` with
/// no growing backlog, kops, and the steps that found it.
///
/// Near the knee one step's pass or fail is a coin flip on whether a
/// scheduler stall hit it, so the answer is the rate at which steps pass
/// half the time, found with an up-and-down staircase: short steps
/// double from `sweep_start_kops` (or halve, if that already fails) to
/// bracket the knee; then `stair` full-length steps start inside the
/// bracket, each going up after a pass and down after a fail. The
/// estimate is the geometric mean of the staircase's rates from its
/// first reversal on. Every step is a fresh cluster running `step_s`
/// seconds of schedule.
pub fn capacity(
    spec: &RtSpec,
    seed: u64,
    step_s: f64,
    stair: usize,
    max_kops: f64,
) -> Result<(f64, Vec<Step>), String> {
    let mut steps: Vec<Step> = Vec::new();
    let run = |kops: f64, secs: f64, steps: &mut Vec<Step>| -> Result<Step, String> {
        let n = (kops * 1e3 * secs) as usize;
        let plan = Plan::new(seed.wrapping_add(steps.len() as u64 + 1), n, spec.read_frac);
        let cfg = PhaseCfg {
            spec,
            seed,
            rate: kops * 1e3,
            traced: false,
        };
        let out = phase(&cfg, plan)?;
        let p99_ms = out.p99_ms();
        let step = Step {
            kops,
            p99_ms,
            samples: out.lat.len(),
            sent: out.sent,
            failed: out.failed,
            pass: out.failed == 0 && !out.backlog_grew && p99_ms <= spec.limit_ms,
        };
        steps.push(step);
        Ok(step)
    };

    let coarse = step_s / 2.0;
    let first = run(spec.sweep_start_kops, coarse, &mut steps)?;
    let (mut pass, mut fail) = (first.kops, (!first.pass).then_some(first.kops));
    let mut passed = first.pass;
    while fail.is_none() && pass * 2.0 <= max_kops {
        if run(pass * 2.0, coarse, &mut steps)?.pass {
            pass *= 2.0;
        } else {
            fail = Some(pass * 2.0);
        }
    }
    while !passed {
        if pass / 2.0 < MIN_KOPS {
            return Err(format!(
                "capacity: below {MIN_KOPS} kops every step missed the limit"
            ));
        }
        fail = Some(pass);
        pass /= 2.0;
        passed = run(pass, coarse, &mut steps)?.pass;
    }
    let Some(fail) = fail else {
        return Ok((pass, steps));
    };

    // The staircase takes big strides until its first reversal, then
    // small ones; the estimate averages the rates from the first
    // reversal on (and the one it would try next), so the walk in from
    // the start does not bias it.
    let mut kops = (pass * fail).sqrt();
    let mut prev: Option<bool> = None;
    let mut counted: Vec<f64> = Vec::new();
    for _ in 0..stair {
        let passed = run(kops, step_s, &mut steps)?.pass;
        if prev.is_some_and(|p| p != passed) || !counted.is_empty() {
            counted.push(kops);
        }
        let factor = if counted.is_empty() {
            STAIR_COARSE
        } else {
            STAIR_FINE
        };
        kops = if passed { kops * factor } else { kops / factor };
        prev = Some(passed);
    }
    counted.push(kops);
    let mean_log = counted.iter().map(|k| k.ln()).sum::<f64>() / counted.len() as f64;
    Ok((mean_log.exp(), steps))
}
