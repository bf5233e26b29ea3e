//! Protocol-level property tests: drive a cluster of `ClockRsm` replicas
//! through randomized message schedules (respecting per-link FIFO, the
//! paper's channel assumption) with skewed clocks, and assert the paper's
//! safety claims directly:
//!
//! * Claim 1 — every replica executes commands in strictly increasing
//!   timestamp order;
//! * Claim 2 — all replicas execute the same total order;
//! * Agreement under full delivery — once every message drains, every
//!   replica has executed every command.
//!
//! This pump explores interleavings the discrete-event simulator (which
//! ties delivery order to latencies) cannot reach.

use std::collections::VecDeque;

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig, RsmMsg};
use proptest::prelude::*;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::testing::TestCtx;
use rsm_core::time::Micros;

/// Per-replica context: a skewed logical clock plus captured effects.
type PumpCtx = TestCtx<ClockRsm>;

struct Pump {
    n: usize,
    replicas: Vec<ClockRsm>,
    ctxs: Vec<PumpCtx>,
    /// FIFO per (from, to) link.
    links: Vec<Vec<VecDeque<RsmMsg>>>,
}

impl Pump {
    fn new(n: usize, clock_offsets: &[Micros]) -> Self {
        let replicas = (0..n)
            .map(|i| {
                ClockRsm::new(
                    ReplicaId::new(i as u16),
                    Membership::uniform(n as u16),
                    ClockRsmConfig::default().with_delta_us(None),
                )
            })
            .collect();
        let ctxs = (0..n).map(|i| PumpCtx::new(clock_offsets[i])).collect();
        Pump {
            n,
            replicas,
            ctxs,
            links: vec![vec![VecDeque::new(); n]; n],
        }
    }

    fn flush_sends(&mut self, from: usize) {
        for (to, msg) in std::mem::take(&mut self.ctxs[from].sends) {
            self.links[from][to.index()].push_back(msg);
        }
    }

    fn submit(&mut self, at: usize, seq: u64) {
        let cmd = Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(at as u16), 0), seq),
            Bytes::from_static(b"w"),
        );
        self.replicas[at].on_client_request(cmd, &mut self.ctxs[at]);
        self.flush_sends(at);
    }

    /// Delivers the head of one link, if non-empty. Returns true on work.
    fn deliver(&mut self, from: usize, to: usize) -> bool {
        let Some(msg) = self.links[from][to].pop_front() else {
            return false;
        };
        self.replicas[to].on_message(ReplicaId::new(from as u16), msg, &mut self.ctxs[to]);
        self.flush_sends(to);
        true
    }

    /// Fires one pending timer at a replica (advancing its clock past the
    /// deadline so waited PREPAREOKs become sendable).
    fn fire_timer(&mut self, at: usize) -> bool {
        let Some((after, token)) = self.ctxs[at].timers.pop() else {
            return false;
        };
        self.ctxs[at].clock += after;
        self.replicas[at].on_timer(token, &mut self.ctxs[at]);
        self.flush_sends(at);
        true
    }

    /// Drains everything deterministically: rotate links and timers until
    /// quiescent.
    fn drain(&mut self) {
        loop {
            let mut progressed = false;
            for from in 0..self.n {
                for to in 0..self.n {
                    while self.deliver(from, to) {
                        progressed = true;
                    }
                }
            }
            for r in 0..self.n {
                while self.fire_timer(r) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn committed_ids(&self, r: usize) -> Vec<CommandId> {
        self.ctxs[r].commits.iter().map(|c| c.cmd.id).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random submissions interleaved with random (FIFO) deliveries and
    /// timer fires, then a full drain: total order, timestamp order, and
    /// agreement must all hold.
    #[test]
    fn random_schedules_preserve_safety(
        n in 3usize..=5,
        offsets in proptest::collection::vec(1_000u64..500_000, 5),
        // (replica, action) stream: 0..n submit, n.. deliver choices.
        script in proptest::collection::vec((0usize..5, 0usize..25, any::<bool>()), 1..120),
    ) {
        let mut pump = Pump::new(n, &offsets[..n]);
        let mut seq = 0u64;
        for (who, link, fire) in script {
            let who = who % n;
            // Interleave: submit, then a few random delivery attempts.
            seq += 1;
            pump.submit(who, seq);
            let (from, to) = (link % n, (link / n) % n);
            pump.deliver(from, to);
            if fire {
                pump.fire_timer(who);
            }
        }
        pump.drain();

        // Agreement: everyone executed every command.
        for r in 0..n {
            prop_assert_eq!(
                pump.ctxs[r].commits.len() as u64, seq,
                "replica {} executed {} of {} commands",
                r, pump.ctxs[r].commits.len(), seq
            );
        }
        // Total order (Claim 2): identical sequences everywhere.
        let reference = pump.committed_ids(0);
        for r in 1..n {
            prop_assert_eq!(&pump.committed_ids(r), &reference, "replica {} diverged", r);
        }
        // Timestamp order (Claim 1): order hints strictly increase.
        for r in 0..n {
            let hints: Vec<u64> = pump.ctxs[r].commits.iter().map(|c| c.order_hint).collect();
            prop_assert!(hints.windows(2).all(|w| w[0] < w[1]), "replica {r} out of order");
        }
    }

    /// With wildly different clock offsets (up to half a second apart, vs
    /// zero network latency), the wait-out path (Algorithm 1 line 8) must
    /// keep acknowledgements timestamp-ordered and commits correct.
    #[test]
    fn extreme_skew_unit_level(
        offsets in proptest::collection::vec(1u64..500_000, 3),
        order in proptest::collection::vec(0usize..3, 3..30),
    ) {
        let mut pump = Pump::new(3, &offsets);
        let mut seq = 0u64;
        for who in order {
            seq += 1;
            pump.submit(who, seq);
        }
        pump.drain();
        let reference = pump.committed_ids(0);
        prop_assert_eq!(reference.len() as u64, seq);
        for r in 1..3 {
            prop_assert_eq!(&pump.committed_ids(r), &reference);
        }
    }
}

/// Deterministic regression: concurrent submissions at every replica with
/// adversarial delivery (deliver all PREPAREs before any PREPAREOK).
#[test]
fn prepares_before_acks_schedule() {
    let mut pump = Pump::new(3, &[10_000, 20_000, 30_000]);
    for (i, seq) in [(0usize, 1u64), (1, 2), (2, 3)] {
        pump.submit(i, seq);
    }
    // Deliver only PREPAREs first: acks queue up behind the waits.
    for from in 0..3 {
        for to in 0..3 {
            pump.deliver(from, to);
        }
    }
    pump.drain();
    let a = pump.committed_ids(0);
    assert_eq!(a.len(), 3);
    assert_eq!(pump.committed_ids(1), a);
    assert_eq!(pump.committed_ids(2), a);
}
