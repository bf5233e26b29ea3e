//! The workloads, with their frozen nominal rates and latency limits.
//!
//! These numbers are part of the benchmark's definition: a change to the
//! program is measured at the same offered load and judged against the
//! same limits as its parent. Phase lengths are shares of the run's
//! `--seconds`; everything else is fixed here.

use rsm_runtime::ClusterTransport;

/// A workload on the threaded runtime (`rsm-runtime`): Clock-RSM on
/// three replicas, adaptive batching (64), open-loop load.
#[derive(Debug, Clone)]
pub struct RtSpec {
    /// Message plane.
    pub transport: ClusterTransport,
    /// Whether the cluster records metrics and spans (`ObsConfig::all()`).
    pub observe: bool,
    /// Emulated one-way delay between every pair of sites, µs. The lan
    /// workloads use Fig. 8's 0.25 ms: with none, their p50 is mostly
    /// thread wake-ups, which a virtual machine's host load moves by
    /// tens of percent between runs.
    pub one_way_us: u64,
    /// Replica clock offsets are drawn from `±clock_skew_us` (seeded).
    pub clock_skew_us: i64,
    /// Share of commands that are `get`s (the rest are 16 B `put`s).
    pub read_frac: f64,
    /// The fixed offered rate at which `p50_ms`/`p99_ms` are measured,
    /// thousand commands per second.
    pub nominal_kops: f64,
    /// The p99 limit that defines `capacity_kops`, ms.
    pub limit_ms: f64,
    /// First rate the capacity sweep offers, kops.
    pub sweep_start_kops: f64,
}

/// The simulator workload: Fig. 8's local-cluster configuration.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Replicas.
    pub replicas: usize,
    /// One-way delay, µs.
    pub one_way_us: u64,
    /// Saturating closed-loop clients per site.
    pub clients_per_site: usize,
    /// Command value size, bytes.
    pub value_bytes: usize,
    /// Virtual warm-up before latencies are recorded, µs.
    pub warmup_us: u64,
    /// Virtual measurement window per protocol run, µs.
    pub measure_us: u64,
}

/// One workload.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Threaded runtime.
    Runtime(RtSpec),
    /// Simulator.
    Sim(SimSpec),
}

/// Keys are drawn from this many (seeded, uniform).
pub const KEY_SPACE: u64 = 10_000;
/// `put` value size, bytes.
pub const VALUE_BYTES: usize = 16;
/// Replicas of every runtime workload.
pub const RT_REPLICAS: usize = 3;
/// Request-coalescing ceiling of every runtime workload.
pub const RT_MAX_BATCH: usize = 64;
/// Setup trials before each nominal-rate cluster of a runtime run;
/// `setup_s` is the median of them all.
pub const SETUP_TRIALS: usize = 6;
/// Setup trials of each protocol before each of its simulated runs;
/// `setup_s` is the median of them all.
pub const SIM_SETUP_TRIALS: usize = 10;
/// Leading share of each phase's commands left out of its latency
/// statistics (the adaptive batch controller settling). They are still
/// checked for completion.
pub const WARMUP_FRAC: f64 = 0.1;
/// A command not complete this long after the last send has failed.
pub const DRAIN_TIMEOUT_S: f64 = 10.0;
/// Staircase steps of the capacity sweep, after the bracketing steps.
pub const SWEEP_STAIR: usize = 20;
/// Highest rate the sweep will offer, kops.
pub const SWEEP_MAX_KOPS: f64 = 2048.0;
/// One in this many peer sends goes through the probe's codec sample
/// (socket workloads only).
pub const WIRE_SAMPLE_EVERY: u64 = 16;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let lan = RtSpec {
        transport: ClusterTransport::InProcess,
        observe: false,
        one_way_us: 250,
        clock_skew_us: 0,
        read_frac: 0.0,
        nominal_kops: 10.0,
        limit_ms: 100.0,
        sweep_start_kops: 16.0,
    };
    Some(match name {
        "lan-inproc" => Spec::Runtime(lan),
        "lan-tcp-obs" => Spec::Runtime(RtSpec {
            transport: ClusterTransport::Tcp,
            observe: true,
            ..lan
        }),
        "geo-readmix" => Spec::Runtime(RtSpec {
            one_way_us: 25_000,
            clock_skew_us: 1_000,
            read_frac: 0.9,
            nominal_kops: 2.0,
            limit_ms: 200.0,
            sweep_start_kops: 32.0,
            ..lan
        }),
        "sim-fig8" => Spec::Sim(SimSpec {
            replicas: 5,
            one_way_us: 250,
            clients_per_site: 60,
            value_bytes: 10,
            warmup_us: 200_000,
            measure_us: 1_000_000,
        }),
        _ => return None,
    })
}
