//! Property tests for Mencius-bcast: under random FIFO delivery schedules
//! and proposal placements, all replicas resolve the slot space in the
//! same way (total order) and every command eventually executes
//! everywhere once messages drain.

use std::collections::VecDeque;

use bytes::Bytes;
use mencius::{MenciusBcast, MenciusMsg};
use proptest::prelude::*;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::testing::TestCtx;

type PumpCtx = TestCtx<MenciusBcast>;

struct Pump {
    n: usize,
    replicas: Vec<MenciusBcast>,
    ctxs: Vec<PumpCtx>,
    links: Vec<Vec<VecDeque<MenciusMsg>>>,
}

impl Pump {
    fn new(n: usize) -> Self {
        Pump {
            n,
            replicas: (0..n)
                .map(|i| MenciusBcast::new(ReplicaId::new(i as u16), Membership::uniform(n as u16)))
                .collect(),
            ctxs: (0..n).map(|_| PumpCtx::new(0)).collect(),
            links: vec![vec![VecDeque::new(); n]; n],
        }
    }

    fn flush(&mut self, from: usize) {
        for (to, msg) in std::mem::take(&mut self.ctxs[from].sends) {
            self.links[from][to.index()].push_back(msg);
        }
    }

    fn submit(&mut self, at: usize, seq: u64) {
        let cmd = Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(at as u16), 0), seq),
            Bytes::from_static(b"m"),
        );
        self.replicas[at].on_client_request(cmd, &mut self.ctxs[at]);
        self.flush(at);
    }

    fn deliver(&mut self, from: usize, to: usize) -> bool {
        let Some(msg) = self.links[from][to].pop_front() else {
            return false;
        };
        self.replicas[to].on_message(ReplicaId::new(from as u16), msg, &mut self.ctxs[to]);
        self.flush(to);
        true
    }

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

    /// Random proposers, random partial deliveries, then a drain: all
    /// replicas execute all commands in the same slot order.
    #[test]
    fn random_schedules_agree(
        n in 3usize..=5,
        submissions in proptest::collection::vec(0usize..5, 1..40),
        partial in proptest::collection::vec((0usize..5, 0usize..5), 0..150),
    ) {
        let mut pump = Pump::new(n);
        let mut seq = 0;
        let mut partial = partial.into_iter();
        for who in submissions {
            seq += 1;
            pump.submit(who % n, seq);
            if let Some((f, t)) = partial.next() {
                pump.deliver(f % n, t % n);
            }
        }
        pump.drain();
        for r in 0..n {
            prop_assert_eq!(
                pump.ctxs[r].commits.len() as u64, seq,
                "replica {} executed {}/{} commands", r, pump.ctxs[r].commits.len(), seq
            );
        }
        let reference = pump.committed_ids(0);
        for r in 1..n {
            prop_assert_eq!(&pump.committed_ids(r), &reference, "replica {} diverged", r);
        }
        // Slot order strictly increases.
        for r in 0..n {
            let slots: Vec<u64> = pump.ctxs[r].commits.iter().map(|c| c.order_hint).collect();
            prop_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A single proposer's commands always execute in submission order —
    /// its own slots are taken in increasing order.
    #[test]
    fn single_proposer_fifo(count in 1u64..30, who in 0usize..3) {
        let mut pump = Pump::new(3);
        for seq in 1..=count {
            pump.submit(who, seq);
        }
        pump.drain();
        let seqs: Vec<u64> = pump.ctxs[0].commits.iter().map(|c| c.cmd.id.seq).collect();
        prop_assert_eq!(seqs, (1..=count).collect::<Vec<_>>());
    }
}
