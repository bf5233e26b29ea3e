//! Runs a workload and turns its phases into the reported metrics.

use crate::probe::LayerStats;
use crate::rt::{self, PhaseCfg, PhaseOut, Plan};
use crate::sim::{self, Proto};
use crate::stats::{band_mean, median, percentile, ratio};
use crate::sys;
use crate::workloads::{
    self, RtSpec, SimSpec, Spec, SETUP_TRIALS, SIM_SETUP_TRIALS, SWEEP_MAX_KOPS, SWEEP_STAIR,
};

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("capacity_kops", "kops"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports (zero where the
/// workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.submit_ns", "ns"),
    ("runtime.inbox_wait_us_p50", "us"),
    ("runtime.inbox_wait_us_p99", "us"),
    ("runtime.order_wait_us_p50", "us"),
    ("runtime.order_wait_us_p99", "us"),
    ("runtime.node_busy_frac", "frac"),
    ("proto.self_ns_per_op", "ns"),
    ("proto.batch_self_ns", "ns"),
    ("proto.msg_self_ns", "ns"),
    ("proto.timer_self_ns", "ns"),
    ("proto.read_self_ns", "ns"),
    ("proto.callbacks_per_op", "count"),
    ("batch.ops_per_batch", "count"),
    ("net.msgs_per_op", "count"),
    ("net.send_ns", "ns"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_op", "B"),
    ("wire.sampled_msgs", "count"),
    ("transport.frames_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("transport.outq_max", "count"),
    ("transport.reconnects", "count"),
    ("commit.overhead_ns", "ns"),
    ("log.append_ns", "ns"),
    ("log.appends_per_op", "count"),
    ("kv.apply_ns", "ns"),
    ("kv.query_ns", "ns"),
    ("kv.applies_per_op", "count"),
    ("read.stable_wait_us_p50", "us"),
    ("read.stable_wait_us_p99", "us"),
    ("obs.trace_ns", "ns"),
    ("obs.trace_calls_per_op", "count"),
    ("obs.count_ns", "ns"),
    ("obs.count_calls_per_op", "count"),
    ("obs.spans_dropped", "count"),
    ("sim.driver_ns_per_callback", "ns"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("cpu_ns_per_op", "ns"),
    ("residue_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_samples", "count"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("write_samples", "count"),
    ("p99_ms", "ms"),
    ("latency_samples", "count"),
    ("failed_frac", "frac"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Commands the run sent (or, simulated, executed).
    pub attempted: u64,
    /// Commands that did not complete.
    pub failed: u64,
    /// The metrics, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Human-readable detail (sample counts, sweep steps), printed before
    /// the result line.
    pub notes: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Lays the measured values out as `list`, with its units. A value
    /// the list does not name is a bug; a listed metric nobody measured
    /// is one too, unless `zero_missing` (per-layer metrics of layers the
    /// workload does not exercise read zero).
    fn finish(
        mut self,
        list: &[(&'static str, &'static str)],
        zero_missing: bool,
    ) -> Result<Report, String> {
        if let Some((name, _)) = self
            .values
            .iter()
            .find(|(n, _)| !list.iter().any(|(l, _)| l == n))
        {
            return Err(format!("{name} is not a listed metric"));
        }
        for &(name, unit) in list {
            let value = match self.values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                Some(_) => return Err(format!("{name} is not a number")),
                None if zero_missing => 0.0,
                None => return Err(format!("{name} was not measured")),
            };
            self.metrics.push(Metric { name, value, unit });
        }
        Ok(self)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` and reports its end-to-end metrics (`trace` false) or
/// its per-layer metrics from a separate traced run (`trace` true).
/// `Err` means a correctness check failed or the workload is unknown.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let spec = workloads::spec(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    match (spec, trace) {
        (Spec::Runtime(s), false) => rt_end_to_end(&s, seed, seconds)?.finish(END_TO_END, false),
        (Spec::Runtime(s), true) => rt_layers(&s, seed, seconds)?.finish(PER_LAYER, true),
        (Spec::Sim(s), false) => sim_end_to_end(&s, seed, seconds)?.finish(END_TO_END, false),
        (Spec::Sim(s), true) => sim_layers(&s, seed)?.finish(PER_LAYER, true),
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn lat_note(label: &str, lat: &[u64]) -> String {
    format!(
        "{label}: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} samples",
        ms(percentile(lat, 0.5)),
        ms(percentile(lat, 0.99)),
        ms(percentile(lat, 1.0)),
        lat.len()
    )
}

fn nominal(spec: &RtSpec, seed: u64, secs: f64, traced: bool) -> Result<PhaseOut, String> {
    let cfg = PhaseCfg {
        spec,
        seed,
        rate: spec.nominal_kops * 1e3,
        traced,
    };
    let n = (spec.nominal_kops * 1e3 * secs) as usize;
    rt::phase(&cfg, Plan::new(seed, n, spec.read_frac))
}

/// The nominal phase runs on this many fresh clusters in turn, and
/// `p50_ms` is the median of their p50s: one cluster's sub-millisecond
/// latency can sit tens of percent off (where its threads landed on the
/// cores, a stall during its life), and a median over clusters is
/// steadier than one draw per run.
const NOMINAL_CLUSTERS: usize = 5;

/// The nominal-rate clusters, each after `SETUP_TRIALS` setup trials,
/// then the capacity sweep.
fn rt_end_to_end(spec: &RtSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let per = 0.3 * seconds / NOMINAL_CLUSTERS as f64;
    let (mut setup, mut nom) = (Vec::new(), Vec::new());
    for i in 0..NOMINAL_CLUSTERS as u64 {
        let seed = seed.wrapping_add(i);
        for j in 0..SETUP_TRIALS as u64 {
            setup.push(rt::setup_once(spec, seed.wrapping_add(j))?);
        }
        nom.push(nominal(spec, seed, per, false)?);
    }
    let (capacity, steps) = rt::capacity(spec, seed, 0.02 * seconds, SWEEP_STAIR, SWEEP_MAX_KOPS)?;

    let p50s: Vec<f64> = nom.iter().map(|p| ms(percentile(&p.lat, 0.5))).collect();
    let pooled = |f: fn(&PhaseOut) -> Vec<u64>| nom.iter().flat_map(f).collect::<Vec<u64>>();
    let sent = nom.iter().map(|p| p.sent).sum::<usize>();
    let failed = nom.iter().map(|p| p.failed).sum::<usize>();
    r.attempted = (sent + steps.iter().map(|s| s.sent).sum::<usize>()) as u64;
    r.failed = (failed + steps.iter().map(|s| s.failed).sum::<usize>()) as u64;
    r.put("capacity_kops", capacity);
    r.put("p50_ms", median(&p50s));
    r.put("setup_s", median(&setup));
    // The first cluster starts from a small heap; later ones start from
    // whatever the allocator kept of the ones before them.
    r.put("peak_rss_mb", nom[0].peak_rss_mb);

    r.notes.push(format!(
        "nominal rate {} kops on {NOMINAL_CLUSTERS} fresh clusters: {sent} commands sent, {failed} failed",
        spec.nominal_kops
    ));
    r.notes.push(format!("p50 per cluster (ms): {p50s:?}"));
    r.notes.push(lat_note("all", &pooled(|p| p.lat.clone())));
    r.notes.push(lat_note("reads", &pooled(PhaseOut::read_lat)));
    r.notes
        .push(lat_note("writes", &pooled(PhaseOut::write_lat)));
    r.notes
        .push(lat_note("generator lateness", &pooled(|p| p.late.clone())));
    r.notes.push(format!("setup trials (s): {setup:?}"));
    for s in &steps {
        r.notes.push(format!(
            "capacity step {:.2} kops: p99 {:.3} ms over {} samples, {}",
            s.kops,
            s.p99_ms,
            s.samples,
            if s.pass { "pass" } else { "FAIL" }
        ));
    }
    r.notes.push(format!(
        "capacity at p99 <= {} ms: {capacity:.3} kops",
        spec.limit_ms
    ));
    Ok(r)
}

/// The layer costs every workload reports, from merged probe stats.
/// `ops` is the number of commands the stats cover.
fn layer_metrics(r: &mut Report, l: &LayerStats, ops: f64) {
    let per_op = |x: u64| ratio(x as f64, ops);
    let proto = l.proto_self();
    r.put("proto.self_ns_per_op", per_op(proto.ns));
    r.put("proto.batch_self_ns", l.batch.mean_ns());
    r.put("proto.msg_self_ns", l.msg.mean_ns());
    r.put("proto.timer_self_ns", l.timer.mean_ns());
    r.put("proto.read_self_ns", l.read.mean_ns());
    r.put("proto.callbacks_per_op", per_op(proto.calls));
    r.put(
        "batch.ops_per_batch",
        ratio(l.batched_cmds as f64, l.batch.calls as f64),
    );
    r.put("net.msgs_per_op", per_op(l.send.calls));
    r.put("net.send_ns", l.send.mean_ns());
    r.put("wire.encode_ns_per_msg", l.wire_encode.mean_ns());
    r.put("wire.decode_ns_per_msg", l.wire_decode.mean_ns());
    let bytes_per_sample = ratio(l.wire_bytes as f64, l.wire_encode.calls as f64);
    r.put("wire.bytes_per_op", bytes_per_sample * per_op(l.peer_sends));
    r.put("wire.sampled_msgs", l.wire_encode.calls as f64);
    r.put("commit.overhead_ns", l.commit_overhead.mean_ns());
    r.put("log.append_ns", l.log.mean_ns());
    r.put("log.appends_per_op", per_op(l.log.calls));
    r.put("kv.apply_ns", l.apply.mean_ns());
    r.put("kv.query_ns", l.query.mean_ns());
    r.put("kv.applies_per_op", per_op(l.apply.calls));
    r.put("obs.trace_ns", l.trace.mean_ns());
    r.put("obs.trace_calls_per_op", per_op(l.trace.calls));
    r.put("obs.count_ns", l.obs_count.mean_ns());
    r.put("obs.count_calls_per_op", per_op(l.obs_count.calls));
}

/// Time the probes attribute to the program's layers, ns, all replicas:
/// protocol self time plus every `Context` call (the state machine's
/// apply is inside neither, so it is added on its own).
fn attributed_ns(l: &LayerStats) -> f64 {
    let ctx = [
        &l.send,
        &l.commit_overhead,
        &l.log,
        &l.clock,
        &l.timer_arm,
        &l.sm_other,
        &l.trace,
        &l.obs_count,
        &l.obs_gauge,
        &l.apply,
    ];
    (l.proto_self().ns + ctx.iter().map(|t| t.ns).sum::<u64>()) as f64
}

fn counter_sum(m: &Option<rsm_obs::MetricsSnapshot>, suffix: &str) -> f64 {
    m.as_ref().map_or(0.0, |m| {
        m.counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    })
}

/// An untraced and a traced nominal-rate phase on the same plan.
fn rt_layers(spec: &RtSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let base = nominal(spec, seed, 0.4 * seconds, false)?;
    let tr = nominal(spec, seed, 0.4 * seconds, true)?;
    r.attempted = (base.sent + tr.sent) as u64;
    r.failed = (base.failed + tr.failed) as u64;
    if tr.spans_dropped > 0 {
        return Err(format!("the tracer dropped {} spans", tr.spans_dropped));
    }

    let ops = tr.completed() as f64;
    let mut all = LayerStats::default();
    for l in &tr.layers {
        all.merge(l);
    }
    let busy = tr
        .layers
        .iter()
        .map(|l| ratio(l.busy_ns as f64, tr.window_ns as f64))
        .fold(0.0, f64::max);
    let us = |v: &[u64], q| percentile(v, q);
    r.put("runtime.submit_ns", tr.submit_ns);
    r.put("runtime.inbox_wait_us_p50", us(&tr.inbox_wait_us, 0.5));
    r.put("runtime.inbox_wait_us_p99", us(&tr.inbox_wait_us, 0.99));
    r.put("runtime.order_wait_us_p50", us(&tr.order_wait_us, 0.5));
    r.put("runtime.order_wait_us_p99", us(&tr.order_wait_us, 0.99));
    r.put("runtime.node_busy_frac", busy);
    layer_metrics(&mut r, &all, ops);
    r.put("read.stable_wait_us_p50", us(&tr.stable_wait_us, 0.5));
    r.put("read.stable_wait_us_p99", us(&tr.stable_wait_us, 0.99));
    let frames_recv = counter_sum(&tr.metrics, ".transport.frames_recv");
    r.put(
        "transport.frames_per_op",
        ratio(counter_sum(&tr.metrics, ".transport.frames_sent"), ops),
    );
    r.put(
        "transport.bytes_per_op",
        ratio(counter_sum(&tr.metrics, ".transport.bytes_sent"), ops),
    );
    r.put("transport.outq_max", tr.outq_max as f64);
    r.put(
        "transport.reconnects",
        counter_sum(&tr.metrics, ".transport.reconnects"),
    );
    r.put("obs.spans_dropped", tr.spans_dropped as f64);
    r.put("gen.late_p99_ms", ms(percentile(&base.late, 0.99)));
    r.put("gen.late_max_ms", ms(percentile(&base.late, 1.0)));

    let cpu_base = ratio(base.cpu_ns as f64, base.completed() as f64);
    let cpu_traced = ratio(tr.cpu_ns as f64, ops);
    // Layers the probes reach, plus the generator's submit and the
    // socket readers' decode (priced by the codec sample).
    let decode = all.wire_decode.mean_ns() * ratio(frames_recv, ops);
    let explained = ratio(attributed_ns(&all), ops) + tr.submit_ns + decode;
    r.put("cpu_ns_per_op", cpu_base);
    r.put("residue_frac", 1.0 - ratio(explained, cpu_traced));
    r.put("trace_overhead_frac", ratio(cpu_traced, cpu_base) - 1.0);
    let (reads, writes) = (base.read_lat(), base.write_lat());
    r.put("read_p50_ms", ms(percentile(&reads, 0.5)));
    r.put("read_p99_ms", ms(percentile(&reads, 0.99)));
    r.put("read_samples", reads.len() as f64);
    r.put("write_p50_ms", ms(percentile(&writes, 0.5)));
    r.put("write_p99_ms", ms(percentile(&writes, 0.99)));
    r.put("write_samples", writes.len() as f64);
    r.put("p99_ms", ms(percentile(&base.lat, 0.99)));
    r.put("latency_samples", base.lat.len() as f64);
    r.put("failed_frac", ratio(r.failed as f64, r.attempted as f64));

    r.notes.push(format!(
        "untraced: {:.0} CPU ns/op; traced: {:.0} CPU ns/op, of which the probes attribute {:.0}",
        cpu_base, cpu_traced, explained
    ));
    r.notes.push(lat_note("untraced reads", &reads));
    r.notes.push(lat_note("untraced writes", &writes));
    r.notes.push(lat_note("traced all", &tr.lat));
    Ok(r)
}

/// Simulated rounds that fill most of a run: each round runs the three
/// protocols once.
fn sim_rounds(seconds: f64) -> usize {
    ((seconds / 4.5).round() as usize).max(2)
}

/// Rounds of the three protocols, each protocol's run preceded by
/// `SIM_SETUP_TRIALS` setup trials, so the setup timings are spread over
/// the run like the throughput ones. `capacity_kops` is the median
/// round's simulated commits per wall-clock second. `p50_ms` is the
/// simulated issue-to-reply latency at the median, averaged over the
/// three protocols so that each protocol's waits count alike. Simulated
/// time ticks in whole microseconds and a saturated protocol's latencies
/// bunch on a few ticks, so a plain median reads the same tick for most
/// seeds; each protocol's median is taken as the mean of its samples
/// between the 40th and 60th percentiles, which resolves between ticks.
fn sim_end_to_end(spec: &SimSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    sys::reset_peak_rss();
    let (mut rates, mut setup) = (Vec::new(), Vec::new());
    let mut virt = vec![Vec::new(); Proto::ALL.len()];
    for round in 0..sim_rounds(seconds) as u64 {
        let (mut commits, mut wall) = (0u64, 0u64);
        let seed = seed.wrapping_add(round);
        for (k, p) in Proto::ALL.into_iter().enumerate() {
            for i in 0..SIM_SETUP_TRIALS as u64 {
                setup.push(sim::setup_once(spec, p, seed.wrapping_add(i))?);
            }
            let out = sim::run(spec, p, seed, false)?;
            commits += out.commits;
            wall += out.wall_ns;
            virt[k].extend(out.virtual_lat_us.iter().map(|us| us * 1_000));
        }
        r.attempted += commits;
        rates.push(commits as f64 / (wall as f64 / 1e9) / 1e3);
    }
    r.put("capacity_kops", median(&rates));
    let mids: Vec<f64> = virt.iter().map(|v| band_mean(v, 0.4, 0.6)).collect();
    r.put("p50_ms", ms(mids.iter().sum::<f64>() / mids.len() as f64));
    r.put("setup_s", median(&setup));
    r.put("peak_rss_mb", sys::peak_rss_mb());
    r.notes.push(format!(
        "simulated kcmds per wall second by round: {rates:?}"
    ));
    for ((p, v), mid) in Proto::ALL.iter().zip(&virt).zip(&mids) {
        r.notes.push(format!(
            "{} (40-60th percentile mean {:.4} ms)",
            lat_note(&format!("{p:?} simulated issue-to-reply"), v),
            ms(*mid)
        ));
    }
    r.notes.push(format!(
        "setup median {:.6} s over {} trials",
        median(&setup),
        setup.len()
    ));
    Ok(r)
}

/// One untraced and one traced run of each protocol.
fn sim_layers(spec: &SimSpec, seed: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let mut all = LayerStats::default();
    let (mut base_cpu, mut base_ops, mut tr_cpu, mut tr_wall, mut ops) = (0, 0, 0, 0, 0);
    for p in Proto::ALL {
        let base = sim::run(spec, p, seed, false)?;
        let tr = sim::run(spec, p, seed, true)?;
        base_cpu += base.cpu_ns;
        base_ops += base.commits;
        tr_cpu += tr.cpu_ns;
        tr_wall += tr.wall_ns;
        ops += tr.commits;
        all.merge(&tr.layers);
    }
    r.attempted = base_ops + ops;
    let opsf = ops as f64;
    layer_metrics(&mut r, &all, opsf);
    let proto = all.proto_self();
    let driver = tr_wall as f64 - proto.ns as f64 - all.apply.ns as f64 - all.query.ns as f64;
    r.put(
        "sim.driver_ns_per_callback",
        ratio(driver, proto.calls as f64),
    );
    let cpu_base = ratio(base_cpu as f64, base_ops as f64);
    let cpu_traced = ratio(tr_cpu as f64, opsf);
    r.put("cpu_ns_per_op", cpu_base);
    r.put(
        "residue_frac",
        1.0 - ratio(ratio(attributed_ns(&all), opsf), cpu_traced),
    );
    r.put("trace_overhead_frac", ratio(cpu_traced, cpu_base) - 1.0);
    r.notes.push(format!(
        "untraced: {cpu_base:.0} CPU ns per simulated commit; traced: {cpu_traced:.0}"
    ));
    Ok(r)
}
