//! Observability vocabulary shared by protocols and drivers.
//!
//! Protocols never touch the `rsm-obs` registry: they emit
//! observations through the default-no-op hooks on
//! [`Context`](crate::protocol::Context) (`obs_count` / `obs_gauge` /
//! `trace`) and the periodic
//! [`Protocol::obs_poll`](crate::protocol::Protocol::obs_poll)
//! callback, and the [`NodeCore`](crate::node::NodeCore) records them
//! when its driver observes. This module pins down the shared
//! vocabulary: the trace-stage enum, the span-key packing, and the
//! metric name constants, so drivers and the report tooling agree on
//! what every series means.

use crate::command::CommandId;

/// The stages of a command's life, in pipeline order. Drivers stamp the
/// driver-owned stages (submission, commit, execution, reply); protocols
/// stamp the ordering stages through
/// [`Context::trace`](crate::protocol::Context::trace).
///
/// The numeric value is the span stage index (all below
/// `rsm_obs::MAX_STAGES`), and stamps must be monotone along the enum
/// order — the breakdown terms are differences of adjacent stamped
/// stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum TraceStage {
    /// The client handed the command to its local replica.
    Submitted = 0,
    /// The protocol assigned the command its order coordinate (a
    /// Clock-RSM timestamp, a Paxos slot under a ballot, a Mencius
    /// slot) and started replicating it.
    Proposed = 1,
    /// A majority acknowledged the command's prepare/accept — the
    /// paper's prepare-replication term ends here.
    Replicated = 2,
    /// Clock-RSM only: the stable timestamp passed the command's
    /// timestamp (every replica's `LatestTV` caught up) — the paper's
    /// stable-wait term ends here.
    Stable = 3,
    /// The origin replica decided the command (all commit conditions
    /// held) and enqueued it for execution.
    Committed = 4,
    /// The origin replica's state machine executed the command.
    Executed = 5,
    /// The reply reached the issuing client (terminal).
    Replied = 6,
}

impl TraceStage {
    /// All stages in pipeline order.
    pub const ALL: [TraceStage; 7] = [
        TraceStage::Submitted,
        TraceStage::Proposed,
        TraceStage::Replicated,
        TraceStage::Stable,
        TraceStage::Committed,
        TraceStage::Executed,
        TraceStage::Replied,
    ];

    /// The span stage slot this stage stamps.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (JSON keys, test labels).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Submitted => "submitted",
            TraceStage::Proposed => "proposed",
            TraceStage::Replicated => "replicated",
            TraceStage::Stable => "stable",
            TraceStage::Committed => "committed",
            TraceStage::Executed => "executed",
            TraceStage::Replied => "replied",
        }
    }
}

/// Packs a [`CommandId`] into the 64-bit span key drivers hand to the
/// tracer: origin site in the top 8 bits, client number in the middle
/// 32, command sequence (mod 2^24) in the bottom 24. Client retries
/// reuse their command id and therefore its key, so a retry re-enters
/// the same span. The packing is unique for deployments under 256
/// sites and per-client sequences under ~16.7M commands — beyond any
/// run in this workspace — and collision merely merges two spans.
pub fn span_key(id: CommandId) -> u64 {
    (u64::from(id.client.site().as_u16()) << 56)
        | (u64::from(id.client.number()) << 24)
        | (id.seq & 0xFF_FFFF)
}

/// Metric name constants. Driver-side recording prefixes each with the
/// replica (`r<id>.`), so e.g. replica 2's dedup hits appear as
/// `r2.session.dedup_hits` in a snapshot.
pub mod names {
    /// Commands the replica's state machine executed (one per command,
    /// batches counted per member).
    pub const EXECUTED: &str = "commands.executed";
    /// Duplicate writes absorbed by the session dedup window.
    pub const SESSION_DEDUP_HITS: &str = "session.dedup_hits";
    /// Stale (below-window) writes dropped by the session table.
    pub const SESSION_STALE_DROPS: &str = "session.stale_drops";
    /// The batch controller's current drain threshold.
    pub const BATCH_THRESHOLD: &str = "batch.threshold";
    /// Lag between the replica's clock and its stable timestamp, µs
    /// (Clock-RSM; the stable-wait a fresh command would pay locally).
    pub const STABLE_LAG_US: &str = "clock_rsm.stable_lag_us";
    /// Per-peer `LatestTV` staleness, µs (Clock-RSM; indexed by peer).
    pub const LATEST_TV_STALENESS_US: &str = "clock_rsm.latest_tv_staleness_us";
    /// Elections started (Paxos: a candidacy began).
    pub const ELECTIONS_STARTED: &str = "paxos.elections_started";
    /// Elections won (Paxos: this replica became leader).
    pub const ELECTIONS_WON: &str = "paxos.elections_won";
    /// The replica's current ballot number (Paxos).
    pub const BALLOT: &str = "paxos.ballot";
    /// Pre-vote rounds begun (Paxos).
    pub const PREVOTES: &str = "paxos.prevotes";
    /// Slots resolved as no-ops (skips) under an absent peer's skip
    /// promise (Mencius).
    pub const GAP_FILLS: &str = "mencius.gap_fills";
    /// Gap-fill requests sent while blocked on a missing slot (Mencius).
    pub const GAP_REQUESTS: &str = "mencius.gap_requests";
    /// Resync rounds started after a desync was detected (Mencius).
    pub const RESYNCS: &str = "mencius.resyncs";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ClientId, ReplicaId};

    #[test]
    fn stage_indexes_are_ordered_and_distinct() {
        let mut last = None;
        for stage in TraceStage::ALL {
            assert!(stage.index() < 8);
            if let Some(prev) = last {
                assert!(stage.index() > prev);
            }
            last = Some(stage.index());
        }
    }

    #[test]
    fn span_keys_distinguish_site_client_and_seq() {
        let id =
            |site, number, seq| CommandId::new(ClientId::new(ReplicaId::new(site), number), seq);
        let a = span_key(id(0, 0, 1));
        assert_ne!(a, span_key(id(1, 0, 1)));
        assert_ne!(a, span_key(id(0, 1, 1)));
        assert_ne!(a, span_key(id(0, 0, 2)));
        // Retries reuse the id, hence the key.
        assert_eq!(a, span_key(id(0, 0, 1)));
    }
}
