//! The reconfiguration protocol (Algorithm 3) and recovery reintegration
//! (Section V-B).
//!
//! Reconfiguration removes suspected replicas from — and reintegrates
//! recovered replicas into — the active configuration:
//!
//! 1. A reconfigurer broadcasts `SUSPEND(e, cts)` where `e` is the next
//!    epoch and `cts` its last commit mark. Receivers freeze their logs
//!    (stop processing `REQUEST`/`PREPARE`) and return every logged
//!    command with a timestamp greater than `cts`.
//! 2. With a majority of `SUSPENDOK`s collected, the reconfigurer proposes
//!    `(config_new, cts, ∪cmds)` in the `e`-th consensus instance — a
//!    single-decree Paxos from the `paxos` crate. Any command that could
//!    have committed anywhere was logged by a majority and therefore
//!    appears in the collected union (overlapping majorities — the paper's
//!    Claim 3).
//! 3. On `DECIDE`, every replica applies the decision: replicas whose last
//!    commit mark is below the decided timestamp first fetch the missing
//!    commands from a majority (`STATETRANSFER`); un-executed `PREPARE`
//!    records beyond the decided timestamp are dropped from the log; the
//!    decided commands are executed in timestamp order; finally the new
//!    epoch and configuration are installed and normal processing resumes.
//!
//! Replicas that missed decisions (crashed or partitioned) catch up via
//! `DecisionRequest`/`DecisionCatchup` and apply decisions strictly in
//! epoch order.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound::{Excluded, Unbounded};

use paxos::synod::{SynodInstance, SynodMsg};
use rsm_core::command::Committed;
use rsm_core::config::Epoch;
use rsm_core::id::ReplicaId;
use rsm_core::protocol::Context;
use rsm_core::time::Timestamp;

use crate::log::LogRec;
use crate::msg::{Decision, LoggedCmd, RsmMsg};
use crate::replica::{order_key, ClockRsm, TOKEN_RECONFIG_RETRY, TOKEN_SYNOD_RETRY};

/// Where a replica currently stands in the reconfiguration protocol.
#[derive(Debug)]
pub(crate) enum Phase {
    /// Normal operation.
    Idle,
    /// This replica is the reconfigurer, collecting `SUSPENDOK`s
    /// (Algorithm 3, lines 4–5).
    Collecting {
        /// The epoch being established.
        target_epoch: Epoch,
        /// Our last commit mark when the reconfiguration started.
        cts: Timestamp,
        /// The configuration we will propose.
        new_config: Vec<ReplicaId>,
        /// Union of commands collected so far, keyed by timestamp.
        collected: BTreeMap<Timestamp, LoggedCmd>,
        /// Replicas that have answered.
        responders: HashSet<ReplicaId>,
    },
    /// Proposal handed to consensus; waiting for the decision.
    AwaitingDecision {
        /// The epoch being decided.
        target_epoch: Epoch,
    },
    /// Applying a decision but lagging: fetching missed commands from a
    /// majority (lines 25–28).
    FetchingState {
        /// The epoch whose decision is being applied.
        epoch: Epoch,
        /// The decision awaiting application.
        decision: Decision,
        /// Commands fetched so far.
        fetched: BTreeMap<Timestamp, LoggedCmd>,
        /// Replicas that have answered.
        responders: HashSet<ReplicaId>,
        /// Exclusive lower bound of the fetch.
        from_ts: Timestamp,
        /// Inclusive upper bound of the fetch.
        to_ts: Timestamp,
    },
}

/// Reconfiguration state carried by every replica: the current phase, the
/// per-epoch consensus instances, and the full decision history used to
/// catch up lagging replicas.
#[derive(Debug)]
pub struct ReconfigEngine {
    id: ReplicaId,
    spec: Vec<ReplicaId>,
    pub(crate) phase: Phase,
    synods: BTreeMap<Epoch, SynodInstance<Decision>>,
    pub(crate) decisions: BTreeMap<Epoch, Decision>,
    /// The decision value this replica proposed for its own rejoin
    /// reconfiguration, keyed by target epoch. A recovered replica only
    /// trusts a decision built from its *own* post-recovery `SUSPEND`
    /// collection to cover the commands it missed while down — see
    /// `finish_apply`.
    pub(crate) rejoin_proposal: Option<(Epoch, Decision)>,
}

impl ReconfigEngine {
    pub(crate) fn new(id: ReplicaId, spec: Vec<ReplicaId>) -> Self {
        ReconfigEngine {
            id,
            spec,
            phase: Phase::Idle,
            synods: BTreeMap::new(),
            decisions: BTreeMap::new(),
            rejoin_proposal: None,
        }
    }

    /// Whether no reconfiguration activity is in flight at this replica.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }

    /// Drops consensus instances for epochs at or below `epoch` (their
    /// decisions are retained for catch-up).
    pub(crate) fn forget_instances_up_to(&mut self, epoch: Epoch) {
        self.synods = self.synods.split_off(&Epoch(epoch.0 + 1));
    }

    fn synod_for(&mut self, epoch: Epoch) -> &mut SynodInstance<Decision> {
        let (id, spec) = (self.id, self.spec.clone());
        self.synods
            .entry(epoch)
            .or_insert_with(|| SynodInstance::new(id, spec))
    }
}

impl ClockRsm {
    // ------------------------------------------------------------------
    // Trigger paths
    // ------------------------------------------------------------------

    /// Starts a reconfiguration establishing `new_config` in the next
    /// epoch (Algorithm 3, lines 1–6). No-op when one is already running.
    pub fn trigger_reconfigure(&mut self, new_config: Vec<ReplicaId>, ctx: &mut dyn Context<Self>) {
        if !self.reconfig.is_idle() {
            return;
        }
        if new_config.len() < self.membership.majority() {
            return; // cannot survive below a majority of Spec
        }
        let target_epoch = self.epoch().next();
        let cts = self.last_committed;
        self.reconfig.phase = Phase::Collecting {
            target_epoch,
            cts,
            new_config,
            collected: BTreeMap::new(),
            responders: HashSet::new(),
        };
        for r in self.membership.spec().to_vec() {
            ctx.send(
                r,
                RsmMsg::Suspend {
                    epoch: target_epoch,
                    cts,
                },
            );
        }
        ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
    }

    /// Recovery reintegration: rejoin the configuration via a
    /// reconfiguration that includes this replica (Section V-B).
    pub(crate) fn start_rejoin(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.reconfig.is_idle() {
            return;
        }
        let mut config = self.membership.config().to_vec();
        if !config.contains(&self.id) {
            config.push(self.id);
            config.sort_unstable();
        }
        self.trigger_reconfigure(config, ctx);
    }

    // ------------------------------------------------------------------
    // SUSPEND / SUSPENDOK (lines 4–10)
    // ------------------------------------------------------------------

    pub(crate) fn handle_suspend(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        cts: Timestamp,
        ctx: &mut dyn Context<Self>,
    ) {
        if epoch <= self.epoch() {
            // The reconfigurer is behind: hand it the decisions it missed.
            self.send_catchup(from, Epoch(epoch.0.saturating_sub(1)), ctx);
            return;
        }
        self.freeze(ctx);
        let cmds: Vec<LoggedCmd> = self
            .history
            .range((Excluded(cts), Unbounded))
            .map(|(&ts, (origin, cmd))| LoggedCmd {
                ts,
                origin: *origin,
                cmd: cmd.clone(),
            })
            .collect();
        ctx.send(from, RsmMsg::SuspendOk { epoch, cmds });
    }

    pub(crate) fn handle_suspend_ok(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        cmds: Vec<LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        let majority = self.membership.majority();
        let ready = match &mut self.reconfig.phase {
            Phase::Collecting {
                target_epoch,
                collected,
                responders,
                cts,
                ..
            } if *target_epoch == epoch => {
                if responders.insert(from) {
                    for lc in cmds {
                        if lc.ts > *cts {
                            collected.insert(lc.ts, lc);
                        }
                    }
                }
                responders.len() >= majority
            }
            _ => false,
        };
        if !ready {
            return;
        }
        // PROPOSE(e, config_new, cts, ∪cmds) — line 6.
        let Phase::Collecting {
            target_epoch,
            cts,
            new_config,
            collected,
            ..
        } = std::mem::replace(&mut self.reconfig.phase, Phase::Idle)
        else {
            unreachable!("checked above");
        };
        let decision = Decision {
            config: new_config,
            cts,
            cmds: collected.into_values().collect(),
        };
        if self.needs_rejoin {
            self.reconfig.rejoin_proposal = Some((target_epoch, decision.clone()));
        }
        self.reconfig.phase = Phase::AwaitingDecision { target_epoch };
        let mut out = Vec::new();
        self.reconfig
            .synod_for(target_epoch)
            .propose(decision, &mut out);
        self.route_synod(target_epoch, out, ctx);
        ctx.set_timer(self.cfg.synod_retry_us, TOKEN_SYNOD_RETRY);
    }

    // ------------------------------------------------------------------
    // Consensus plumbing
    // ------------------------------------------------------------------

    fn route_synod(
        &mut self,
        epoch: Epoch,
        out: Vec<(ReplicaId, SynodMsg<Decision>)>,
        ctx: &mut dyn Context<Self>,
    ) {
        for (to, msg) in out {
            ctx.send(to, RsmMsg::Synod { epoch, msg });
        }
    }

    pub(crate) fn handle_synod(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        msg: SynodMsg<Decision>,
        ctx: &mut dyn Context<Self>,
    ) {
        if epoch <= self.epoch() {
            // Already installed: the sender lags behind.
            self.send_catchup(from, Epoch(epoch.0.saturating_sub(1)), ctx);
            return;
        }
        let mut out = Vec::new();
        let decided = self
            .reconfig
            .synod_for(epoch)
            .on_message(from, msg, &mut out);
        self.route_synod(epoch, out, ctx);
        if let Some(decision) = decided {
            self.receive_decision(epoch, decision, ctx);
        }
    }

    pub(crate) fn synod_retry(&mut self, ctx: &mut dyn Context<Self>) {
        let Phase::AwaitingDecision { target_epoch } = self.reconfig.phase else {
            return;
        };
        if target_epoch <= self.epoch() {
            self.reconfig.phase = Phase::Idle;
            return;
        }
        let mut out = Vec::new();
        self.reconfig.synod_for(target_epoch).on_retry(&mut out);
        self.route_synod(target_epoch, out, ctx);
        ctx.set_timer(self.cfg.synod_retry_us, TOKEN_SYNOD_RETRY);
    }

    // ------------------------------------------------------------------
    // Decisions (lines 11–24)
    // ------------------------------------------------------------------

    fn receive_decision(&mut self, epoch: Epoch, decision: Decision, ctx: &mut dyn Context<Self>) {
        self.reconfig.decisions.entry(epoch).or_insert(decision);
        self.apply_ready_decisions(ctx);
    }

    /// Applies stashed decisions strictly in epoch order; pauses when a
    /// state transfer is required and resumes when it completes.
    pub(crate) fn apply_ready_decisions(&mut self, ctx: &mut dyn Context<Self>) {
        loop {
            if matches!(self.reconfig.phase, Phase::FetchingState { .. }) {
                return; // resumes from handle_retrieve_reply
            }
            let next = self.epoch().next();
            let Some(decision) = self.reconfig.decisions.get(&next).cloned() else {
                return;
            };
            if !self.begin_apply(next, decision, ctx) {
                return;
            }
        }
    }

    /// Starts applying the decision for epoch `e`; returns false when a
    /// state transfer was kicked off instead of completing synchronously.
    fn begin_apply(&mut self, e: Epoch, decision: Decision, ctx: &mut dyn Context<Self>) -> bool {
        self.freeze(ctx);
        let cts_local = self.last_committed;
        if decision.cts > cts_local {
            // Lines 13–14: we lag behind the decided commit point.
            let (from_ts, to_ts) = (cts_local, decision.cts);
            self.reconfig.phase = Phase::FetchingState {
                epoch: e,
                decision,
                fetched: BTreeMap::new(),
                responders: HashSet::new(),
                from_ts,
                to_ts,
            };
            for r in self.membership.spec().to_vec() {
                ctx.send(r, RsmMsg::RetrieveCmds { from_ts, to_ts });
            }
            ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
            return false;
        }
        self.finish_apply(e, decision, BTreeMap::new(), ctx);
        true
    }

    /// Lines 15–24: prune the log, execute the decided commands in
    /// timestamp order, install the new epoch/configuration, and resume.
    fn finish_apply(
        &mut self,
        e: Epoch,
        decision: Decision,
        fetched: BTreeMap<Timestamp, LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        self.reconfig.phase = Phase::Idle;
        let mut to_apply = fetched;
        for lc in &decision.cmds {
            to_apply.insert(lc.ts, lc.clone());
        }

        // Line 15: drop un-executed PREPAREs beyond the decided timestamp
        // that did not make it into the decision — they can never have
        // committed anywhere.
        self.history.retain(|ts, _| {
            *ts <= decision.cts || to_apply.contains_key(ts) || *ts <= self.last_committed
        });

        // Lines 16–20: execute everything not yet executed, in ts order.
        let old_epoch = self.epoch();
        for (ts, lc) in to_apply {
            if ts <= self.last_committed {
                continue; // already executed locally
            }
            if self.keeps_history() {
                self.history.insert(ts, (lc.origin, lc.cmd.clone()));
            }
            ctx.log_append(LogRec::Prepare {
                ts,
                origin: lc.origin,
                cmd: lc.cmd.clone(),
            });
            ctx.log_append(LogRec::Commit { ts });
            self.last_committed = ts;
            self.committed_count += 1;
            let payload_len = lc.cmd.payload.len();
            let applied = self.sessions.commit_dedup(
                self.id,
                Committed {
                    cmd: lc.cmd,
                    origin: lc.origin,
                    order_hint: order_key(old_epoch, ts),
                },
                ctx,
            );
            if applied {
                self.checkpointer.note_commit(payload_len);
            }
        }

        // Lines 21–23: install epoch + configuration, reset LatestTV.
        self.membership.install(e, decision.config.clone());
        ctx.log_append(LogRec::Epoch {
            epoch: e,
            config: decision.config.clone(),
        });
        self.reconfig.forget_instances_up_to(e);
        for tv in &mut self.latest_tv {
            *tv = Timestamp::ZERO;
        }
        self.pending.clear();
        for row in &mut self.acked {
            row.fill(0);
        }
        // The trace cursors track the watermarks just reset; left high
        // they would suppress Replicated/Stable stamps for the new epoch.
        self.obs_stable_floor = Timestamp::ZERO;
        self.obs_repl_floor.fill(0);
        self.wait_queue.clear();
        self.wait_armed_for = None;
        self.send_floor = self.send_floor.max(self.last_committed.micros());
        // Reset the failure detector horizon so surviving members are not
        // immediately re-suspected after a long freeze.
        let clock = ctx.clock();
        for h in &mut self.last_heard {
            *h = clock;
        }

        // Line 24: resume.
        self.frozen = false;
        if self.membership.in_config(self.id) {
            if self.needs_rejoin {
                // A recovered replica's prepared history has a hole:
                // every command prepared while it was down. Of the
                // decisions it may apply, only one built from its *own*
                // post-recovery SUSPEND collection provably covers that
                // hole — the collection freezes a majority after the
                // recovery, so every command prepared earlier is either
                // committed below `cts` (fetched by state transfer) or
                // in a responder's returned log tail. A decision learned
                // by catch-up, or a competing proposal that won the
                // epoch, may have been collected before the recovery and
                // would silently omit commands committed during the
                // outage. Keep rejoining until our own proposal wins.
                let healed = self
                    .reconfig
                    .rejoin_proposal
                    .as_ref()
                    .is_some_and(|(pe, pd)| *pe == e && *pd == decision);
                if healed {
                    self.needs_rejoin = false;
                    self.reconfig.rejoin_proposal = None;
                } else {
                    ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
                }
            }
        } else {
            // We are alive but excluded (removed while partitioned, or a
            // competing decision won): ask to rejoin, as a recovered
            // replica would (Section V-B).
            self.needs_rejoin = true;
            ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
        }
        self.drain_buffers(ctx);
        self.try_commit(ctx);
    }

    fn freeze(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.frozen {
            self.frozen = true;
            self.frozen_since = ctx.clock();
        }
    }

    // ------------------------------------------------------------------
    // State transfer (lines 25–31)
    // ------------------------------------------------------------------

    pub(crate) fn handle_retrieve(
        &mut self,
        from: ReplicaId,
        from_ts: Timestamp,
        to_ts: Timestamp,
        ctx: &mut dyn Context<Self>,
    ) {
        let cmds: Vec<LoggedCmd> = self
            .history
            .range((Excluded(from_ts), Unbounded))
            .take_while(|(&ts, _)| ts <= to_ts)
            .map(|(&ts, (origin, cmd))| LoggedCmd {
                ts,
                origin: *origin,
                cmd: cmd.clone(),
            })
            .collect();
        ctx.send(
            from,
            RsmMsg::RetrieveReply {
                from_ts,
                to_ts,
                cmds,
            },
        );
    }

    pub(crate) fn handle_retrieve_reply(
        &mut self,
        from: ReplicaId,
        from_ts: Timestamp,
        to_ts: Timestamp,
        cmds: Vec<LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        let majority = self.membership.majority();
        let ready = match &mut self.reconfig.phase {
            Phase::FetchingState {
                fetched,
                responders,
                from_ts: f,
                to_ts: t,
                ..
            } if *f == from_ts && *t == to_ts => {
                if responders.insert(from) {
                    for lc in cmds {
                        if lc.ts > from_ts && lc.ts <= to_ts {
                            fetched.insert(lc.ts, lc);
                        }
                    }
                }
                responders.len() >= majority
            }
            _ => false,
        };
        if !ready {
            return;
        }
        let Phase::FetchingState {
            epoch,
            decision,
            fetched,
            ..
        } = std::mem::replace(&mut self.reconfig.phase, Phase::Idle)
        else {
            unreachable!("checked above");
        };
        self.finish_apply(epoch, decision, fetched, ctx);
        self.apply_ready_decisions(ctx);
    }

    // ------------------------------------------------------------------
    // Epoch catch-up
    // ------------------------------------------------------------------

    pub(crate) fn send_catchup(
        &mut self,
        to: ReplicaId,
        have_epoch: Epoch,
        ctx: &mut dyn Context<Self>,
    ) {
        let decisions: Vec<(Epoch, Decision)> = self
            .reconfig
            .decisions
            .range(Epoch(have_epoch.0 + 1)..)
            .map(|(e, d)| (*e, d.clone()))
            .collect();
        if !decisions.is_empty() {
            ctx.send(to, RsmMsg::DecisionCatchup { decisions });
        }
    }

    pub(crate) fn handle_decision_request(
        &mut self,
        from: ReplicaId,
        have_epoch: Epoch,
        ctx: &mut dyn Context<Self>,
    ) {
        self.send_catchup(from, have_epoch, ctx);
    }

    pub(crate) fn handle_decision_catchup(
        &mut self,
        decisions: Vec<(Epoch, Decision)>,
        ctx: &mut dyn Context<Self>,
    ) {
        for (e, d) in decisions {
            self.reconfig.decisions.entry(e).or_insert(d);
        }
        self.apply_ready_decisions(ctx);
    }

    // ------------------------------------------------------------------
    // Retry / liveness backstop
    // ------------------------------------------------------------------

    pub(crate) fn reconfig_retry(&mut self, ctx: &mut dyn Context<Self>) {
        match &self.reconfig.phase {
            Phase::Collecting {
                target_epoch,
                cts,
                responders,
                ..
            } => {
                if *target_epoch <= self.epoch() {
                    // Superseded by an installed decision.
                    self.reconfig.phase = Phase::Idle;
                    if self.needs_rejoin {
                        self.start_rejoin(ctx);
                    }
                    return;
                }
                let (epoch, cts) = (*target_epoch, *cts);
                let missing: Vec<ReplicaId> = self
                    .membership
                    .spec()
                    .iter()
                    .copied()
                    .filter(|r| !responders.contains(r))
                    .collect();
                for r in missing {
                    ctx.send(r, RsmMsg::Suspend { epoch, cts });
                }
                ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
            }
            Phase::FetchingState {
                from_ts,
                to_ts,
                responders,
                ..
            } => {
                let (from_ts, to_ts) = (*from_ts, *to_ts);
                let missing: Vec<ReplicaId> = self
                    .membership
                    .spec()
                    .iter()
                    .copied()
                    .filter(|r| !responders.contains(r))
                    .collect();
                for r in missing {
                    ctx.send(r, RsmMsg::RetrieveCmds { from_ts, to_ts });
                }
                ctx.set_timer(self.cfg.reconfig_retry_us, TOKEN_RECONFIG_RETRY);
            }
            Phase::AwaitingDecision { .. } => {
                // The synod retry timer drives this phase.
            }
            Phase::Idle => {
                if self.needs_rejoin {
                    self.start_rejoin(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClockRsmConfig;
    use bytes::Bytes;
    use rsm_core::command::{Command, CommandId};
    use rsm_core::config::Membership;
    use rsm_core::id::ClientId;
    use rsm_core::protocol::Protocol;

    type TestCtx = rsm_core::testing::TestCtx<ClockRsm>;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn replica(i: u16) -> ClockRsm {
        ClockRsm::new(
            r(i),
            Membership::uniform(3),
            ClockRsmConfig::default().with_failure_detection(Some(100_000)),
        )
    }

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(r(0), 0), seq),
            Bytes::from_static(b"x"),
        )
    }

    fn lc(micros: u64, origin: u16, seq: u64) -> LoggedCmd {
        LoggedCmd {
            ts: Timestamp::new(micros, r(origin)),
            origin: r(origin),
            cmd: cmd(seq),
        }
    }

    #[test]
    fn trigger_broadcasts_suspend_to_spec() {
        let mut p = replica(0);
        let mut ctx = TestCtx::new(1_000);
        p.trigger_reconfigure(vec![r(0), r(1)], &mut ctx);
        let suspends = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::Suspend { .. }))
            .count();
        assert_eq!(suspends, 3, "SUSPEND goes to all of Spec incl self");
        assert!(!p.reconfig.is_idle());
    }

    #[test]
    fn trigger_refuses_sub_majority_config() {
        let mut p = replica(0);
        let mut ctx = TestCtx::new(1_000);
        p.trigger_reconfigure(vec![r(0)], &mut ctx);
        assert!(p.reconfig.is_idle());
        assert!(ctx.sends.is_empty());
    }

    #[test]
    fn suspend_freezes_and_returns_log_tail() {
        let mut p = replica(1);
        let mut ctx = TestCtx::new(1_000);
        // Seed the history with two prepares.
        p.history.insert(Timestamp::new(100, r(0)), (r(0), cmd(1)));
        p.history.insert(Timestamp::new(200, r(0)), (r(0), cmd(2)));
        p.handle_suspend(r(0), Epoch(1), Timestamp::new(100, r(0)), &mut ctx);
        assert!(p.is_frozen());
        let (_, reply) = ctx
            .sends
            .iter()
            .find(|(_, m)| matches!(m, RsmMsg::SuspendOk { .. }))
            .unwrap();
        match reply {
            RsmMsg::SuspendOk { cmds, .. } => {
                assert_eq!(cmds.len(), 1, "only entries beyond cts are returned");
                assert_eq!(cmds[0].ts, Timestamp::new(200, r(0)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn stale_suspend_gets_catchup_not_freeze() {
        let mut p = replica(1);
        let mut ctx = TestCtx::new(1_000);
        p.reconfig.decisions.insert(
            Epoch(1),
            Decision {
                config: vec![r(0), r(1)],
                cts: Timestamp::ZERO,
                cmds: vec![],
            },
        );
        p.membership.install(Epoch(1), vec![r(0), r(1), r(2)]);
        p.handle_suspend(r(2), Epoch(1), Timestamp::ZERO, &mut ctx);
        assert!(!p.is_frozen());
        assert!(ctx
            .sends
            .iter()
            .any(|(to, m)| *to == r(2) && matches!(m, RsmMsg::DecisionCatchup { .. })));
    }

    /// End-to-end reconfiguration across three hand-driven replicas:
    /// remove r2, verify everyone installs epoch 1 and the surviving
    /// configuration, and that a collected command commits everywhere.
    #[test]
    fn full_reconfiguration_round() {
        let mut nodes: Vec<ClockRsm> = (0..3).map(replica).collect();
        let mut ctxs: Vec<TestCtx> = (0..3).map(|_| TestCtx::new(1_000)).collect();

        // r1 has logged a command that r0 (the reconfigurer) hasn't seen.
        let orphan = lc(500, 1, 42);
        nodes[1]
            .history
            .insert(orphan.ts, (orphan.origin, orphan.cmd.clone()));

        // r0 suspects r2 and starts removing it.
        nodes[0].trigger_reconfigure(vec![r(0), r(1)], &mut ctxs[0]);

        // Message pump between r0 and r1 only (r2 is "dead").
        let mut inflight: Vec<(ReplicaId, ReplicaId, RsmMsg)> = Vec::new();
        let drain = |i: usize,
                     ctxs: &mut Vec<TestCtx>,
                     inflight: &mut Vec<(ReplicaId, ReplicaId, RsmMsg)>| {
            for (to, m) in std::mem::take(&mut ctxs[i].sends) {
                inflight.push((r(i as u16), to, m));
            }
        };
        drain(0, &mut ctxs, &mut inflight);
        let mut steps = 0;
        while let Some((from, to, msg)) = inflight.pop() {
            steps += 1;
            assert!(steps < 1_000, "reconfiguration did not converge");
            if to == r(2) {
                continue; // r2 is down
            }
            let idx = to.index();
            nodes[idx].on_message(from, msg, &mut ctxs[idx]);
            drain(idx, &mut ctxs, &mut inflight);
        }

        for i in [0usize, 1] {
            assert_eq!(nodes[i].epoch(), Epoch(1), "replica {i}");
            assert_eq!(nodes[i].membership().config(), &[r(0), r(1)]);
            assert!(!nodes[i].is_frozen());
            // The orphan command was collected from r1 and executed.
            assert_eq!(ctxs[i].commits.len(), 1, "replica {i}");
            assert_eq!(ctxs[i].commits[0].cmd.id.seq, 42);
        }
        // Epoch record landed in both logs.
        for ctx in &ctxs[..2] {
            assert!(ctx
                .log
                .iter()
                .any(|l| matches!(l, LogRec::Epoch { epoch, .. } if *epoch == Epoch(1))));
        }
    }

    #[test]
    fn fetching_state_requests_missing_range() {
        let mut p = replica(2);
        let mut ctx = TestCtx::new(1_000);
        // A decision whose commit point is ahead of ours.
        let d = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::new(900, r(0)),
            cmds: vec![lc(950, 0, 7)],
        };
        p.reconfig.decisions.insert(Epoch(1), d);
        p.apply_ready_decisions(&mut ctx);
        assert!(matches!(p.reconfig.phase, Phase::FetchingState { .. }));
        let retrieves = ctx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::RetrieveCmds { .. }))
            .count();
        assert_eq!(retrieves, 3);
        // Majority replies with the missing command at ts 800.
        for k in [0u16, 1] {
            p.handle_retrieve_reply(
                r(k),
                Timestamp::ZERO,
                Timestamp::new(900, r(0)),
                vec![lc(800, 0, 6)],
                &mut ctx,
            );
        }
        assert!(p.reconfig.is_idle());
        assert_eq!(p.epoch(), Epoch(1));
        // Both the fetched (800) and decided (950) commands executed, in order.
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].cmd.id.seq, 6);
        assert_eq!(ctx.commits[1].cmd.id.seq, 7);
    }

    #[test]
    fn decision_catchup_applies_in_epoch_order() {
        let mut p = replica(2);
        let mut ctx = TestCtx::new(1_000);
        let d1 = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::ZERO,
            cmds: vec![lc(100, 0, 1)],
        };
        let d2 = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::new(100, r(0)),
            cmds: vec![lc(200, 0, 2)],
        };
        // Deliver out of order: epoch 2 first.
        p.handle_decision_catchup(vec![(Epoch(2), d2)], &mut ctx);
        assert_eq!(p.epoch(), Epoch(0), "cannot apply epoch 2 before 1");
        p.handle_decision_catchup(vec![(Epoch(1), d1)], &mut ctx);
        assert_eq!(p.epoch(), Epoch(2));
        assert_eq!(ctx.commits.len(), 2);
        assert_eq!(ctx.commits[0].cmd.id.seq, 1);
        assert_eq!(ctx.commits[1].cmd.id.seq, 2);
        assert!(ctx.commits[0].order_hint < ctx.commits[1].order_hint);
    }

    #[test]
    fn retrieve_serves_requested_range() {
        let mut p = replica(0);
        let mut ctx = TestCtx::new(1_000);
        for (m, seq) in [(100u64, 1u64), (200, 2), (300, 3)] {
            p.history.insert(Timestamp::new(m, r(0)), (r(0), cmd(seq)));
        }
        p.handle_retrieve(
            r(1),
            Timestamp::new(100, r(0)),
            Timestamp::new(250, r(0)),
            &mut ctx,
        );
        let (_, reply) = &ctx.sends[0];
        match reply {
            RsmMsg::RetrieveReply { cmds, .. } => {
                assert_eq!(cmds.len(), 1);
                assert_eq!(cmds[0].cmd.id.seq, 2);
            }
            _ => unreachable!(),
        }
    }
}
