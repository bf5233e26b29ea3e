use super::*;
use crate::msg::SuffixEntry;
use bytes::Bytes;
use rsm_core::command::CommandId;
use rsm_core::id::ClientId;
use rsm_core::read::ReadRequest;

type TestCtx = rsm_core::testing::TestCtx<MultiPaxos>;

fn cmd(seq: u64) -> Command {
    Command::new(
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
        Bytes::from_static(b"op"),
    )
}

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// The initial regime of a leader-0 deployment.
fn b0() -> Ballot {
    Ballot {
        round: 0,
        proposer: r(0),
    }
}

fn b(round: u64, proposer: u16) -> Ballot {
    Ballot {
        round,
        proposer: r(proposer),
    }
}

fn accept(ballot: Ballot, first_instance: u64, cmds: Vec<Command>, origin: ReplicaId) -> PaxosMsg {
    PaxosMsg::Accept {
        ballot,
        first_instance,
        cmds: Batch::new(cmds),
        origin,
    }
}

fn acked(ballot: Ballot, up_to: u64) -> PaxosMsg {
    PaxosMsg::Accepted { ballot, up_to }
}

fn lease() -> LeaseConfig {
    LeaseConfig::after(400_000)
}

fn last_ack(ctx: &TestCtx) -> Option<u64> {
    ctx.sends.iter().rev().find_map(|(_, m)| match m {
        PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
        _ => None,
    })
}

fn prepares(ctx: &TestCtx) -> Vec<Ballot> {
    ctx.sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Prepare { ballot, .. } => Some(*ballot),
            _ => None,
        })
        .collect()
}

// ----------------------------------------------------------------------
// The stable-leader data plane (fail-over disabled)
// ----------------------------------------------------------------------

#[test]
fn follower_forwards_to_leader() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_client_request(cmd(1), &mut ctx);
    assert_eq!(ctx.sends.len(), 1);
    assert_eq!(ctx.sends[0].0, r(0));
    assert!(matches!(ctx.sends[0].1, PaxosMsg::Forward { .. }));
}

#[test]
fn leader_assigns_consecutive_instances() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_client_request(cmd(1), &mut ctx);
    p.on_client_request(cmd(2), &mut ctx);
    let firsts: Vec<u64> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { first_instance, .. } => Some(*first_instance),
            _ => None,
        })
        .collect();
    // 2 peers × 2 commands (the leader self-delivers synchronously).
    assert_eq!(firsts.len(), 4);
    assert_eq!(firsts[0], 0);
    assert_eq!(firsts[3], 1);
}

#[test]
fn leader_binds_a_batch_to_one_instance_run() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), &mut ctx);
    let accepts: Vec<(u64, usize)> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept {
                first_instance,
                cmds,
                ..
            } => Some((*first_instance, cmds.len())),
            _ => None,
        })
        .collect();
    assert_eq!(accepts.len(), 2, "one ACCEPT per peer for 3 cmds");
    assert!(accepts.iter().all(|&(f, k)| f == 0 && k == 3));
    assert_eq!(p.next_instance, 3);
    assert_eq!(ctx.log.len(), 3, "leader logs its own run synchronously");
}

#[test]
fn accept_fanout_shares_the_batch_payload_across_peers() {
    // Allocation-lean fan-out: the leader's per-peer ACCEPT clones share
    // one Arc-backed command vector with the submitted batch instead of
    // deep-copying it per destination.
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    let batch = Batch::new((1..=64).map(cmd).collect());
    p.on_client_batch(batch.clone(), &mut ctx);
    let accepts: Vec<&Batch> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { cmds, .. } => Some(cmds),
            _ => None,
        })
        .collect();
    assert_eq!(accepts.len(), 2, "one ACCEPT per peer");
    for sent in &accepts {
        assert!(
            sent.ptr_eq(&batch),
            "a peer copy deep-cloned the command payload"
        );
    }
}

#[test]
fn bcast_commits_on_majority_acks() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    // Logged and broadcast its own cumulative 2b.
    assert_eq!(ctx.log.len(), 1);
    let own_acks = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { up_to: 1, .. }))
        .count();
    assert_eq!(own_acks, 3);
    // Two 2b watermarks arrive (majority of 3 incl. someone else's).
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    assert!(ctx.commits.is_empty());
    p.on_message(r(1), acked(b0(), 1), &mut ctx);
    assert_eq!(ctx.commits.len(), 1);
    assert_eq!(ctx.commits[0].origin, r(0));
}

#[test]
fn one_ack_covers_a_whole_batch() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_message(
        r(0),
        accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3)], r(0)),
        &mut ctx,
    );
    assert_eq!(ctx.log.len(), 3, "all three commands logged");
    let acks: Vec<u64> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
            _ => None,
        })
        .collect();
    assert_eq!(acks, vec![3, 3, 3], "ONE watermark ack per destination");
    // Majority watermarks commit the whole run at once, in order.
    p.on_message(r(0), acked(b0(), 3), &mut ctx);
    p.on_message(r(1), acked(b0(), 3), &mut ctx);
    assert_eq!(ctx.commits.len(), 3);
    let hints: Vec<u64> = ctx.commits.iter().map(|c| c.order_hint).collect();
    assert_eq!(hints, vec![0, 1, 2]);
}

#[test]
fn plain_follower_waits_for_commit_message() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Plain);
    let mut ctx = TestCtx::new(0);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(2)), &mut ctx);
    // 2b goes to the leader only.
    let (to, _) = ctx
        .sends
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .unwrap();
    assert_eq!(*to, r(0));
    // Acks from others do nothing at a plain follower.
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    p.on_message(r(2), acked(b0(), 1), &mut ctx);
    assert!(ctx.commits.is_empty());
    p.on_message(
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 1,
        },
        &mut ctx,
    );
    assert_eq!(ctx.commits.len(), 1);
}

#[test]
fn plain_leader_broadcasts_commit_on_majority() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Plain);
    let mut ctx = TestCtx::new(0);
    // propose() self-delivers the Accept synchronously: the run is
    // logged and the leader's own Accepted is already in flight.
    p.on_client_request(cmd(1), &mut ctx);
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    p.on_message(r(1), acked(b0(), 1), &mut ctx);
    let commit_sends = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Commit { .. }))
        .count();
    assert_eq!(commit_sends, 3);
}

#[test]
fn execution_is_in_instance_order_despite_commit_reorder() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    for i in 0..2 {
        p.on_message(r(0), accept(b0(), i, vec![cmd(i)], r(0)), &mut ctx);
    }
    // A watermark only covering instance 0 from one replica: nothing
    // commits yet (one ack is not a majority).
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    assert!(ctx.commits.is_empty(), "one ack is not a majority");
    // Majority watermarks covering both instances commit them in
    // instance order (cumulative acks make out-of-order commit of a
    // later instance impossible by construction).
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(1), acked(b0(), 2), &mut ctx);
    assert_eq!(ctx.commits.len(), 2);
    assert_eq!(ctx.commits[0].order_hint, 0);
    assert_eq!(ctx.commits[1].order_hint, 1);
}

#[test]
fn recovered_replica_never_acks_across_a_gap() {
    // B logged instances 0..2, crashed while 2..5 were in flight
    // (lost), recovered, and then receives the run starting at 5.
    // Its cumulative ack must stay at the gap — claiming 5..8 would
    // falsely vouch for the lost 2..5 and break quorum intersection.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    let log = vec![
        PaxosLogRec::Accept {
            instance: 0,
            ballot: b0(),
            cmd: cmd(1),
            origin: r(0),
        },
        PaxosLogRec::Accept {
            instance: 1,
            ballot: b0(),
            cmd: cmd(2),
            origin: r(0),
        },
    ];
    p.on_recover(&log, &mut ctx);
    p.on_message(
        r(0),
        accept(b0(), 5, vec![cmd(6), cmd(7), cmd(8)], r(0)),
        &mut ctx,
    );
    let acks: Vec<u64> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
            _ => None,
        })
        .collect();
    assert!(
        acks.iter().all(|&w| w <= 2),
        "watermark crossed the gap: {acks:?}"
    );
    // The post-gap commands are still logged for state transfer.
    assert_eq!(ctx.log.len(), 3);
}

#[test]
fn late_accept_fills_an_already_committed_instance_and_executes() {
    // Accepted watermarks can outrun the Accept itself via faster
    // relays (the EC2 matrix violates the triangle inequality): the
    // commit watermark covers instance 0 before its command arrives.
    // The late Accept must trigger execution — nothing else retries.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    p.on_message(r(2), acked(b0(), 1), &mut ctx);
    assert!(ctx.commits.is_empty(), "command not yet known");
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    assert_eq!(ctx.commits.len(), 1, "late accept must resume execution");
    assert_eq!(ctx.commits[0].order_hint, 0);
}

#[test]
fn recovered_replica_resumes_acking_once_the_gap_commits() {
    // Same gap as above, but the cluster then commits past it
    // (Commit watermark from the leader): the hole is now globally
    // decided, so covering it cumulatively adds no false quorum
    // evidence — the replica's watermark may jump and it resumes
    // quorum duty for new instances.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Plain);
    let mut ctx = TestCtx::new(0);
    let log = vec![PaxosLogRec::Accept {
        instance: 0,
        ballot: b0(),
        cmd: cmd(1),
        origin: r(0),
    }];
    p.on_recover(&log, &mut ctx);
    // Gap: instances 1..3 were lost; the run starting at 3 must not
    // be vouched for yet.
    p.on_message(r(0), accept(b0(), 3, vec![cmd(4)], r(0)), &mut ctx);
    assert_eq!(last_ack(&ctx), Some(1));
    // The leader announces everything below 4 committed, then sends
    // the next run: the watermark jumps over the decided hole.
    p.on_message(
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 4,
        },
        &mut ctx,
    );
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5), cmd(6)], r(0)), &mut ctx);
    assert_eq!(
        last_ack(&ctx),
        Some(6),
        "ack watermark must resume past a committed gap"
    );
}

#[test]
fn leader_recovery_never_reuses_instances() {
    // The leader logs its own Accept run synchronously in propose();
    // a crash right after proposing (before any network round-trip)
    // must not let recovery re-assign the same instance numbers to
    // new commands — followers may have logged or committed the
    // originals, and a re-proposal would fork execution.
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_client_batch(Batch::new(vec![cmd(1), cmd(2)]), &mut ctx);
    assert_eq!(ctx.log.len(), 2, "run logged before any network round-trip");
    let mut p2 = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx2 = TestCtx::new(0);
    p2.on_recover(&ctx.log, &mut ctx2);
    p2.on_client_request(cmd(3), &mut ctx2);
    let firsts: Vec<u64> = ctx2
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { first_instance, .. } => Some(*first_instance),
            _ => None,
        })
        .collect();
    assert!(!firsts.is_empty());
    assert!(
        firsts.iter().all(|&f| f >= 2),
        "instances 0..2 must not be reused: {firsts:?}"
    );
}

#[test]
fn recovered_replica_reextends_watermark_past_a_committed_gap_under_load() {
    // B logged instance 0 and lost 1..3 in its crash. Under
    // pipelined load the commit watermark always trails the newest
    // accept run, so the on_accept jump alone never fires; the
    // watermark must also re-extend when commits advance past the
    // gap, or B acks up_to=1 forever and never rejoins quorums.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    let log = vec![PaxosLogRec::Accept {
        instance: 0,
        ballot: b0(),
        cmd: cmd(1),
        origin: r(0),
    }];
    p.on_recover(&log, &mut ctx);
    // Run [3,4) arrives while the gap is still uncommitted.
    p.on_message(r(0), accept(b0(), 3, vec![cmd(4)], r(0)), &mut ctx);
    assert_eq!(last_ack(&ctx), Some(1));
    // Peer watermarks commit through the gap (to 3) while run [4,5)
    // is already in flight.
    p.on_message(r(0), acked(b0(), 3), &mut ctx);
    p.on_message(r(2), acked(b0(), 3), &mut ctx);
    // The pipelined run arrives with committed_next (3) still below
    // its first instance (4): the watermark must nevertheless cover
    // the decided gap plus the contiguously logged instance 3.
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5)], r(0)), &mut ctx);
    assert_eq!(last_ack(&ctx), Some(5), "watermark frozen at the gap");
}

#[test]
fn checkpoints_compact_the_log_below_the_watermark() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_checkpoints(CheckpointPolicy::every(2).with_compaction(true));
    let mut ctx = TestCtx::with_snapshots();
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)), &mut ctx);
    // A pending third instance that must survive compaction.
    p.on_message(r(0), accept(b0(), 2, vec![cmd(3)], r(0)), &mut ctx);
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    assert_eq!(ctx.commits.len(), 2, "first run committed");
    // Compaction replaced 3 accepts + 2 commit marks with checkpoint
    // + promise + the pending accept for instance 2.
    assert_eq!(ctx.log.len(), 3, "log: {:?}", ctx.log);
    assert!(matches!(&ctx.log[0], PaxosLogRec::Checkpoint(cp) if cp.applied == 2));
    assert!(matches!(&ctx.log[1], PaxosLogRec::Promised(_)));
    assert!(matches!(
        &ctx.log[2],
        PaxosLogRec::Accept { instance: 2, .. }
    ));
}

#[test]
fn recovery_restores_checkpoint_and_replays_only_the_suffix() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_checkpoints(CheckpointPolicy::every(2).with_compaction(true));
    let mut ctx = TestCtx::with_snapshots();
    // Two bursts: the first trips the checkpoint at watermark 2, the
    // third command lands after it and stays in the log suffix.
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)), &mut ctx);
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    p.on_message(r(0), accept(b0(), 2, vec![cmd(3)], r(0)), &mut ctx);
    p.on_message(r(0), acked(b0(), 3), &mut ctx);
    p.on_message(r(2), acked(b0(), 3), &mut ctx);
    assert_eq!(ctx.executed, vec![1, 2, 3]);
    let log = ctx.log.clone();

    let mut p2 = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx2 = TestCtx::with_snapshots();
    p2.on_recover(&log, &mut ctx2);
    assert_eq!(ctx2.executed, vec![1, 2, 3], "snapshot prefix + suffix");
    assert_eq!(ctx2.commits.len(), 1, "only instance 2 replayed");
    assert_eq!(p2.executed(), 3);
    // The ack watermark resumes above the checkpoint.
    p2.on_message(r(0), accept(b0(), 3, vec![cmd(4)], r(0)), &mut ctx2);
    assert_eq!(last_ack(&ctx2), Some(4));
}

#[test]
fn confirmed_stall_requests_transfer_and_install_converges() {
    // Healthy r2 executes instances 0..4.
    let mut healthy = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut hctx = TestCtx::with_snapshots();
    healthy.on_message(
        r(0),
        accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3), cmd(4)], r(0)),
        &mut hctx,
    );
    healthy.on_message(r(0), acked(b0(), 4), &mut hctx);
    healthy.on_message(r(1), acked(b0(), 4), &mut hctx);
    assert_eq!(healthy.executed(), 4);

    // r1 recovered with an empty log: instances 0..4 were lost in its
    // outage. The next run plus peer watermarks commit through 5, but
    // execution stalls at the hole.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::with_snapshots();
    p.on_recover(&[], &mut ctx);
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5)], r(0)), &mut ctx);
    p.on_message(r(0), acked(b0(), 5), &mut ctx);
    p.on_message(r(2), acked(b0(), 5), &mut ctx);
    let requests = |ctx: &TestCtx| {
        ctx.sends
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::StateRequest(_)))
            .count()
    };
    assert_eq!(
        requests(&ctx),
        0,
        "a fresh hole must not trigger a transfer (accepts may be in flight)"
    );
    // The hole persists past the confirmation window: the next pass
    // over it queries one peer (round-robin; the other peer is next
    // if this round goes unanswered).
    ctx.clock = 1_000_000;
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5)], r(0)), &mut ctx);
    assert_eq!(requests(&ctx), 1, "confirmed stall queries one peer");
    // Another confirmation window with no reply: the retry rotates
    // to the remaining peer.
    ctx.clock = 2_000_000;
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5)], r(0)), &mut ctx);
    let targets: Vec<ReplicaId> = ctx
        .sends
        .iter()
        .filter_map(|(to, m)| match m {
            PaxosMsg::StateRequest(_) => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(targets, vec![r(0), r(2)], "retries rotate over the peers");

    // The healthy peer answers with its checkpoint; installing it
    // fills the hole and execution converges on the same state.
    hctx.sends.clear();
    healthy.on_message(
        r(1),
        PaxosMsg::StateRequest(StateTransferRequest { have: 0 }),
        &mut hctx,
    );
    let (to, reply) = hctx
        .sends
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::StateReply { .. }))
        .cloned()
        .expect("healthy peer must serve a checkpoint");
    assert_eq!(to, r(1));
    p.on_message(r(2), reply, &mut ctx);
    assert_eq!(
        ctx.executed,
        vec![1, 2, 3, 4, 5],
        "installed prefix + executed suffix must match the healthy replica"
    );
    // Acks resumed from the installed watermark.
    assert!(
        ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accepted { up_to, .. } if *up_to >= 5)),
        "watermark must resume past the installed prefix"
    );
}

#[test]
fn stale_state_reply_is_ignored() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::with_snapshots();
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)), &mut ctx);
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    assert_eq!(p.executed(), 2);
    let stale = PaxosMsg::StateReply {
        reply: StateTransferReply {
            checkpoint: Checkpoint {
                applied: 1,
                epoch: Epoch::ZERO,
                config: vec![r(0), r(1), r(2)],
                snapshot: Bytes::from_static(b""),
                sessions: Bytes::new(),
            },
        },
        promised: b0(),
    };
    p.on_message(r(0), stale, &mut ctx);
    assert_eq!(p.executed(), 2, "a stale reply must not regress anything");
    assert_eq!(ctx.executed, vec![1, 2], "state machine untouched");
}

#[test]
fn recovery_replays_committed_prefix() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    let log = vec![
        PaxosLogRec::Accept {
            instance: 0,
            ballot: b0(),
            cmd: cmd(1),
            origin: r(0),
        },
        PaxosLogRec::Accept {
            instance: 1,
            ballot: b0(),
            cmd: cmd(2),
            origin: r(2),
        },
        PaxosLogRec::Commit { instance: 0 },
    ];
    p.on_recover(&log, &mut ctx);
    assert_eq!(ctx.commits.len(), 1);
    assert_eq!(ctx.commits[0].order_hint, 0);
    assert_eq!(p.executed(), 1);
    // The uncommitted instance 1 stays pending; later watermarks
    // covering it resume execution.
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    assert_eq!(ctx.commits.len(), 2);
}

// ----------------------------------------------------------------------
// Leader election and lease-based fail-over
// ----------------------------------------------------------------------

#[test]
fn stale_ballot_accept_from_deposed_leader_is_rejected() {
    // The acceptance-criterion regression: an acceptor that promised a
    // candidate must Nack the deposed leader's in-flight Accept — not
    // log it, not ack it.
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    assert_eq!(ctx.log.len(), 1);
    // r1's candidacy: once this acceptor's own lease has expired
    // (leader stickiness), it promises ballot (1, r1).
    ctx.clock += lease().timeout_us + 1;
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert_eq!(p.promised(), b(1, 1));
    let logged_before = ctx.log.len();
    let acks_before = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .count();
    // The deposed leader's in-flight run arrives at the old ballot.
    p.on_message(r(0), accept(b0(), 1, vec![cmd(2)], r(0)), &mut ctx);
    let nacks: Vec<(ReplicaId, Ballot)> = ctx
        .sends
        .iter()
        .filter_map(|(to, m)| match m {
            PaxosMsg::Nack { promised } => Some((*to, *promised)),
            _ => None,
        })
        .collect();
    assert_eq!(nacks, vec![(r(0), b(1, 1))], "stale accept must be nacked");
    assert_eq!(ctx.log.len(), logged_before, "stale accept must not log");
    let acks_after = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .count();
    assert_eq!(acks_after, acks_before, "stale accept must not be acked");
}

#[test]
fn lease_expiry_starts_a_staggered_election() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    // Before the staggered timeout (400ms + 1×100ms for index 1): quiet.
    ctx.clock = 400_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(prepares(&ctx).is_empty(), "lease not yet expired");
    assert!(!p.is_campaigning());
    // Past it: a candidacy at round 1 solicits everyone, self included.
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert_eq!(prepares(&ctx), vec![b(1, 1); 3]);
    assert!(p.is_campaigning());
}

#[test]
fn heartbeat_renews_the_lease() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 450_000;
    p.on_message(
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
        &mut ctx,
    );
    // Half a lease later the renewal still holds.
    ctx.clock = 800_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(prepares(&ctx).is_empty(), "heartbeat must renew the lease");
    // Silence past the stagger finally triggers suspicion.
    ctx.clock = 2_000_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(!prepares(&ctx).is_empty());
}

#[test]
fn leader_heartbeats_when_idle() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_timer(TOKEN_LEASE, &mut ctx);
    let heartbeats = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Heartbeat { .. }))
        .count();
    assert_eq!(heartbeats, 2, "one heartbeat per peer, none to self");
}

#[test]
fn promise_reports_the_accepted_suffix_with_ballots() {
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_message(
        r(0),
        accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3)], r(0)),
        &mut ctx,
    );
    ctx.clock += lease().timeout_us + 1; // leader stickiness: lease must lapse
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 1,
        },
        &mut ctx,
    );
    let (to, promise) = ctx
        .sends
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Promise { .. }))
        .cloned()
        .expect("promise must be sent");
    assert_eq!(to, r(1));
    let PaxosMsg::Promise {
        ballot,
        from_instance,
        committed,
        entries,
    } = promise
    else {
        unreachable!()
    };
    assert_eq!((ballot, from_instance, committed), (b(1, 1), 1, 0));
    let reported: Vec<(u64, Ballot)> = entries.iter().map(|e| (e.instance, e.ballot)).collect();
    assert_eq!(reported, vec![(1, b0()), (2, b0())]);
    assert!(entries.iter().all(|e| e.value.is_some()));
    // The promise is durable before it leaves.
    assert!(ctx
        .log
        .iter()
        .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(1, 1))));
}

#[test]
fn election_win_merges_highest_ballot_and_noops_holes() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    let ballot = b(1, 1);
    assert_eq!(prepares(&ctx), vec![ballot; 3]);
    // Own promise (empty log, nothing committed).
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
        &mut ctx,
    );
    p.on_message(
        r(1),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
        &mut ctx,
    );
    assert!(!p.is_leader(), "one promise is not a majority");
    // r2 reports instance 1 accepted at the old regime — instance 0 is
    // a hole nobody accepted, provably unchosen.
    p.on_message(
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![SuffixEntry {
                instance: 1,
                ballot: b0(),
                value: Some((cmd(42), r(0))),
            }],
        },
        &mut ctx,
    );
    assert!(p.is_leader(), "majority of promises elects");
    assert_eq!(p.regime(), ballot);
    assert_eq!(p.leader(), r(1));
    // The repair closes the hole with a no-op and re-proposes the
    // inherited value at the new ballot.
    let (_, repair) = ctx
        .sends
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Repair { .. }))
        .cloned()
        .expect("winner must broadcast a repair");
    let PaxosMsg::Repair {
        ballot: rb,
        floor,
        entries,
    } = repair
    else {
        unreachable!()
    };
    assert_eq!((rb, floor), (ballot, 0));
    assert_eq!(entries.len(), 2);
    assert!(entries[0].value.is_none(), "hole closed with a no-op");
    assert_eq!(entries[1].value.as_ref().unwrap().0.id.seq, 42);
    // The new leader logged its own repair durably and vouches for it.
    assert!(ctx
        .log
        .iter()
        .any(|rec| matches!(rec, PaxosLogRec::Noop { instance: 0, .. })));
    assert_eq!(last_ack(&ctx), Some(2));
    // Majority acks at the new regime (own looped-back broadcast plus
    // r2's) commit the repaired suffix; the no-op advances execution
    // without reaching the state machine.
    p.on_message(r(1), acked(ballot, 2), &mut ctx);
    p.on_message(r(2), acked(ballot, 2), &mut ctx);
    assert_eq!(p.executed(), 2, "noop + inherited command executed");
    assert_eq!(ctx.commits.len(), 1, "the noop never reaches the app");
    assert_eq!(ctx.commits[0].order_hint, 1);
    assert_eq!(ctx.commits[0].cmd.id.seq, 42);
    // The data plane resumes above the repaired suffix.
    p.on_client_request(cmd(7), &mut ctx);
    let new_accepts: Vec<(Ballot, u64)> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept {
                ballot,
                first_instance,
                ..
            } => Some((*ballot, *first_instance)),
            _ => None,
        })
        .collect();
    assert!(new_accepts.contains(&(ballot, 2)), "{new_accepts:?}");
}

#[test]
fn repair_supersedes_stale_acceptances_and_drops_the_uncommitted_tail() {
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    // Old-regime acceptances at instances 0 and 3 (1 and 2 lost).
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    p.on_message(r(0), accept(b0(), 3, vec![cmd(4)], r(0)), &mut ctx);
    // The new leader's repair chose a different value for 0 and proved
    // 1 unchosen; everything above its top (instance 2+) was never
    // merged, so the stale acceptance at 3 is dropped.
    let ballot = b(1, 1);
    p.on_message(
        r(1),
        PaxosMsg::Repair {
            ballot,
            floor: 0,
            entries: vec![
                SuffixEntry {
                    instance: 0,
                    ballot,
                    value: Some((cmd(10), r(1))),
                },
                SuffixEntry {
                    instance: 1,
                    ballot,
                    value: None,
                },
            ],
        },
        &mut ctx,
    );
    assert_eq!(p.regime(), ballot);
    assert_eq!(last_ack(&ctx), Some(2), "vouch covers exactly the repair");
    // A later prepare (after the new regime's lease lapses) sees the
    // repaired suffix only.
    ctx.clock += lease().timeout_us + 1;
    p.on_message(
        r(0),
        PaxosMsg::Prepare {
            ballot: b(2, 0),
            from_instance: 0,
        },
        &mut ctx,
    );
    let PaxosMsg::Promise { entries, .. } = ctx
        .sends
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap()
    else {
        unreachable!()
    };
    let reported: Vec<u64> = entries.iter().map(|e| e.instance).collect();
    assert_eq!(reported, vec![0, 1], "stale instance 3 must be dropped");
    assert!(entries.iter().all(|e| e.ballot == ballot));
    assert_eq!(entries[0].value.as_ref().unwrap().0.id.seq, 10);
}

#[test]
fn deposed_leader_steps_down_on_nack_and_forwards() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_client_request(cmd(1), &mut ctx);
    assert!(p.is_leader());
    p.on_message(r(2), PaxosMsg::Nack { promised: b(3, 1) }, &mut ctx);
    assert!(!p.is_leader(), "a higher promise deposes the leader");
    // Subsequent client traffic flows toward the fencing candidate.
    p.on_client_request(cmd(2), &mut ctx);
    let (to, last) = ctx.sends.last().unwrap();
    assert_eq!(*to, r(1));
    assert!(matches!(last, PaxosMsg::Forward { .. }));
    // And the step-down is durable: recovery must not resurrect the
    // old regime's proposer role at the stale ballot.
    let mut p2 = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx2 = TestCtx::new(0);
    p2.on_recover(&ctx.log, &mut ctx2);
    assert_eq!(p2.promised(), b(3, 1));
    assert!(!p2.is_leader());
}

#[test]
fn dueling_candidate_defers_to_a_higher_ballot() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(p.is_campaigning());
    // A competing candidacy at a higher ballot solicits us: grant it
    // and stand down.
    p.on_message(
        r(2),
        PaxosMsg::Prepare {
            ballot: b(2, 2),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert!(!p.is_campaigning(), "outbid candidacy must stand down");
    assert_eq!(p.promised(), b(2, 2));
    assert!(
        ctx.sends
            .iter()
            .any(|(to, m)| *to == r(2) && matches!(m, PaxosMsg::Promise { .. })),
        "the higher candidacy still gets our promise"
    );
}

#[test]
fn candidacy_round_is_durable_before_the_prepare_leaves() {
    // A crash mid-candidacy must never let recovery reuse the same
    // ballot: peers may have promised it, and a second campaign at an
    // identical ballot could count stale first-campaign promises. The
    // round is logged synchronously in start_election (the same crash
    // window propose() closes), not via the async self-sent Prepare.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(
        ctx.log
            .iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(1, 1))),
        "candidacy ballot must be durable before the broadcast: {:?}",
        ctx.log
    );
    // Crash before any self-delivery; the recovered replica's next
    // candidacy outbids its own lost one.
    let mut p2 = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx2 = TestCtx::new(0);
    p2.on_recover(&ctx.log, &mut ctx2);
    p2.on_start(&mut ctx2);
    ctx2.clock = 600_000;
    p2.on_timer(TOKEN_LEASE, &mut ctx2);
    assert_eq!(
        prepares(&ctx2),
        vec![b(2, 1); 3],
        "round 1 must not be reused"
    );
}

#[test]
fn candidate_retries_at_a_higher_round() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    // A nack tells us round 4 exists somewhere; the retry outbids it.
    p.on_message(r(2), PaxosMsg::Nack { promised: b(4, 2) }, &mut ctx);
    assert!(!p.is_campaigning(), "outbid candidacy stands down");
    ctx.clock = 900_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    let rounds: Vec<u64> = prepares(&ctx).iter().map(|b| b.round).collect();
    assert_eq!(rounds, vec![1, 1, 1, 5, 5, 5], "retry outbids round 4");
}

#[test]
fn acks_from_an_older_regime_are_never_counted() {
    // The new leader must not commit on vouches earned under the old
    // one: the sender's prefix may hold superseded values.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    // Election: r1 wins at (1, r1) with an empty merge except r2's
    // report of instance 0.
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    let ballot = b(1, 1);
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
        &mut ctx,
    );
    let own_promise = ctx
        .sends
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap();
    p.on_message(r(1), own_promise, &mut ctx);
    p.on_message(
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
        &mut ctx,
    );
    assert!(p.is_leader());
    // Old-regime acks arrive late: ignored, nothing commits.
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    p.on_message(r(2), acked(b0(), 1), &mut ctx);
    assert!(ctx.commits.is_empty(), "old-regime acks must not commit");
    // Current-regime acks (own looped-back one plus r2's) do.
    p.on_message(r(1), acked(ballot, 1), &mut ctx);
    p.on_message(r(2), acked(ballot, 1), &mut ctx);
    assert_eq!(p.executed(), 1);
}

#[test]
fn compaction_preserves_the_promise_across_recovery() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_checkpoints(CheckpointPolicy::every(2).with_compaction(true))
        .with_failover(lease());
    let mut ctx = TestCtx::with_snapshots();
    p.on_start(&mut ctx);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)), &mut ctx);
    // Promise a candidate (once the lease lapses — leader stickiness),
    // then let the checkpoint compact the log.
    ctx.clock += lease().timeout_us + 1;
    p.on_message(
        r(2),
        PaxosMsg::Prepare {
            ballot: b(5, 2),
            from_instance: 0,
        },
        &mut ctx,
    );
    p.on_message(r(0), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    assert!(
        ctx.log
            .iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(5, 2))),
        "compaction must preserve the promise: {:?}",
        ctx.log
    );
    // Recovery restores it, and the deposed regime stays fenced.
    let mut p2 = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx2 = TestCtx::with_snapshots();
    p2.on_recover(&ctx.log, &mut ctx2);
    assert_eq!(p2.promised(), b(5, 2));
    p2.on_message(r(0), accept(b0(), 2, vec![cmd(3)], r(0)), &mut ctx2);
    assert!(
        ctx2.sends
            .iter()
            .any(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Nack { .. })),
        "a recovered acceptor must not regress its promise"
    );
}

#[test]
fn recovered_suffix_is_not_executed_under_a_newer_regime_until_revalidated() {
    // r1 logged an uncommitted acceptance, crashed, and an election it
    // slept through may have superseded the value. Commit evidence from
    // the *new* regime must not execute the stale slot; the repair's
    // re-proposal (or a checkpoint install) is what re-validates it.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    let log = vec![PaxosLogRec::Accept {
        instance: 0,
        ballot: b0(),
        cmd: cmd(1),
        origin: r(0),
    }];
    p.on_recover(&log, &mut ctx);
    p.on_start(&mut ctx);
    let ballot = b(2, 2);
    p.on_message(r(2), PaxosMsg::Commit { ballot, up_to: 1 }, &mut ctx);
    assert!(
        ctx.commits.is_empty(),
        "a suspect slot must not execute under a newer regime"
    );
    // The new leader's repair re-proposes the (here: same) value at its
    // ballot — now it is trusted and executes.
    p.on_message(
        r(2),
        PaxosMsg::Repair {
            ballot,
            floor: 0,
            entries: vec![SuffixEntry {
                instance: 0,
                ballot,
                value: Some((cmd(1), r(0))),
            }],
        },
        &mut ctx,
    );
    assert_eq!(ctx.commits.len(), 1);
    assert_eq!(ctx.commits[0].cmd.id.seq, 1);
}

#[test]
fn recovered_suffix_still_executes_under_its_own_regime() {
    // The same recovery without any election: commit evidence at the
    // slot's own ballot proves the value committed as-is (a regime's
    // leader has one value per instance), so the replay-era gap rule
    // keeps working with fail-over enabled.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    let log = vec![PaxosLogRec::Accept {
        instance: 0,
        ballot: b0(),
        cmd: cmd(1),
        origin: r(0),
    }];
    p.on_recover(&log, &mut ctx);
    p.on_start(&mut ctx);
    p.on_message(
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 1,
        },
        &mut ctx,
    );
    assert_eq!(ctx.commits.len(), 1, "own-regime commit evidence executes");
}

#[test]
fn vouch_gap_requests_leader_fill_and_resumes_acking() {
    // r1 recovered while the leader proposed [0,3) without a majority:
    // nothing there is committed, so the committed-gap jump never fires
    // and, before leader retransmission existed, the cluster deadlocked
    // (no survivor could ever vouch across the hole).
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_recover(&[], &mut ctx);
    p.on_message(r(0), accept(b0(), 3, vec![cmd(4)], r(0)), &mut ctx);
    let fills: Vec<(ReplicaId, u64, u64)> = ctx
        .sends
        .iter()
        .filter_map(|(to, m)| match m {
            PaxosMsg::FillRequest {
                from_instance,
                to_instance,
            } => Some((*to, *from_instance, *to_instance)),
            _ => None,
        })
        .collect();
    assert_eq!(fills, vec![(r(0), 0, 3)], "gap must ask the leader");
    // A second run over the same gap inside the pacing window must not
    // storm another request.
    p.on_message(r(0), accept(b0(), 4, vec![cmd(5)], r(0)), &mut ctx);
    assert_eq!(
        ctx.sends
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::FillRequest { .. }))
            .count(),
        1
    );
    // The leader's retransmission closes the gap; the cumulative ack
    // jumps over everything logged contiguously.
    let entries: Vec<SuffixEntry> = (0..3)
        .map(|i| SuffixEntry {
            instance: i,
            ballot: b0(),
            value: Some((cmd(i + 1), r(0))),
        })
        .collect();
    p.on_message(
        r(0),
        PaxosMsg::Fill {
            ballot: b0(),
            entries,
        },
        &mut ctx,
    );
    assert_eq!(last_ack(&ctx), Some(5), "fill must close the vouch gap");
    // And the whole range commits once a majority vouches.
    p.on_message(r(0), acked(b0(), 5), &mut ctx);
    p.on_message(r(2), acked(b0(), 5), &mut ctx);
    assert_eq!(p.executed(), 5);
}

#[test]
fn leader_serves_fill_from_pending_instances() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3), cmd(4)]), &mut ctx);
    ctx.sends.clear();
    p.on_message(
        r(2),
        PaxosMsg::FillRequest {
            from_instance: 1,
            to_instance: 3,
        },
        &mut ctx,
    );
    let (to, fill) = ctx.sends.last().cloned().expect("leader must answer");
    assert_eq!(to, r(2));
    let PaxosMsg::Fill { ballot, entries } = fill else {
        panic!("expected a Fill, got {fill:?}");
    };
    assert_eq!(ballot, b0());
    let instances: Vec<u64> = entries.iter().map(|e| e.instance).collect();
    assert_eq!(instances, vec![1, 2], "exactly the requested pending range");
    // A deposed leader must not serve fills: its values may be
    // superseded by a repair it has not seen.
    p.on_message(r(1), PaxosMsg::Nack { promised: b(2, 1) }, &mut ctx);
    ctx.sends.clear();
    p.on_message(
        r(2),
        PaxosMsg::FillRequest {
            from_instance: 1,
            to_instance: 3,
        },
        &mut ctx,
    );
    assert!(ctx.sends.is_empty(), "deposed leader must stay silent");
}

#[test]
fn client_batches_buffered_during_candidacy_are_proposed_on_victory() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    p.on_client_request(cmd(9), &mut ctx);
    assert!(
        !ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Forward { .. } | PaxosMsg::Accept { .. })),
        "mid-candidacy batches are held"
    );
    let ballot = b(1, 1);
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
        &mut ctx,
    );
    let own_promise = ctx
        .sends
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap();
    p.on_message(r(1), own_promise, &mut ctx);
    p.on_message(
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
        &mut ctx,
    );
    assert!(p.is_leader());
    let proposed: Vec<u64> = ctx
        .sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { cmds, .. } => Some(cmds.iter().next().unwrap().id.seq),
            _ => None,
        })
        .collect();
    assert!(
        proposed.contains(&9),
        "buffered batch must be proposed on victory: {proposed:?}"
    );
}

// ----------------------------------------------------------------------
// Local reads: leader lease fast path and quorum-mark fallback
// ----------------------------------------------------------------------

fn read(seq: u64) -> Command {
    Command::read(
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
        Bytes::from_static(b"get"),
    )
}

/// Drives one command through commit on a 3-replica bcast leader.
fn commit_one_at_leader(p: &mut MultiPaxos, ctx: &mut TestCtx, seq: u64) {
    let next = p.executed();
    p.on_client_batch(Batch::new(vec![cmd(seq)]), ctx);
    p.on_message(r(1), acked(p.regime(), next + 1), ctx);
    p.on_message(r(2), acked(p.regime(), next + 1), ctx);
    assert_eq!(p.executed(), next + 1, "setup: command must commit");
}

#[test]
fn fixed_leader_serves_reads_locally_without_wire_traffic() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    commit_one_at_leader(&mut p, &mut ctx, 1);
    ctx.sends.clear();
    p.on_client_read(read(7), &mut ctx);
    assert_eq!(
        ctx.read_replies.len(),
        1,
        "fixed leader: immediate local read"
    );
    assert_eq!(ctx.read_replies[0].id.seq, 7);
    assert!(
        ctx.sends.is_empty(),
        "a leader-local read must not touch the wire: {:?}",
        ctx.sends
    );
    assert_eq!(p.pending_reads(), 0);
}

#[test]
fn bcast_leader_read_waits_out_its_proposed_tail() {
    // In bcast Paxos a follower can observe commitment — and reply to
    // its client — before the leader's own watermark advances, so the
    // leader's read index is its log top: a read behind an uncommitted
    // proposal waits for that proposal to commit and execute.
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    commit_one_at_leader(&mut p, &mut ctx, 1);
    // Propose another command; not yet acked by a majority.
    p.on_client_batch(Batch::new(vec![cmd(2)]), &mut ctx);
    p.on_client_read(read(9), &mut ctx);
    assert!(
        ctx.read_replies.is_empty(),
        "bcast leader must not serve below its proposed tail"
    );
    p.on_message(r(1), acked(b0(), 2), &mut ctx);
    p.on_message(r(2), acked(b0(), 2), &mut ctx);
    assert_eq!(p.executed(), 2);
    assert_eq!(
        ctx.read_replies.len(),
        1,
        "read released once the tail committed"
    );
}

#[test]
fn plain_leader_read_serves_at_the_commit_watermark_despite_a_tail() {
    // In plain Paxos only the leader counts 2b: nothing can be client-
    // visible above its commit watermark, so an uncommitted tail does
    // not delay leader reads.
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Plain);
    let mut ctx = TestCtx::new(0);
    p.on_client_batch(Batch::new(vec![cmd(1)]), &mut ctx);
    p.on_message(r(0), acked(b0(), 1), &mut ctx); // looped-back self ack
    p.on_message(r(1), acked(b0(), 1), &mut ctx);
    assert_eq!(p.executed(), 1, "setup: first command committed");
    // A second proposal with no majority yet.
    p.on_client_batch(Batch::new(vec![cmd(2)]), &mut ctx);
    p.on_client_read(read(9), &mut ctx);
    assert_eq!(
        ctx.read_replies.len(),
        1,
        "plain leader reads at its commit watermark, tail notwithstanding"
    );
}

#[test]
fn failover_leader_without_regime_evidence_probes_instead_of_serving() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    // No Accepted/ReadMark at our regime has arrived: the read lease is
    // unearned and the leader must nack its own fast path.
    p.on_client_read(read(1), &mut ctx);
    assert!(ctx.read_replies.is_empty());
    let probes = ctx
        .sends
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_)))
        .count();
    assert_eq!(probes, 2, "lease-uncertain leader falls back to a probe");
    assert_eq!(p.pending_reads(), 1);
}

#[test]
fn failover_leader_with_fresh_majority_evidence_reads_locally() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    commit_one_at_leader(&mut p, &mut ctx, 1);
    // The two Accepted messages above are regime evidence from r1 and
    // r2, well within timeout/2 of the current clock.
    ctx.sends.clear();
    p.on_client_read(read(5), &mut ctx);
    assert_eq!(ctx.read_replies.len(), 1, "leased leader reads locally");
    assert!(ctx.sends.is_empty());
    // Let the lease age past timeout/2: the fast path must close again.
    ctx.clock += lease().timeout_us;
    p.on_client_read(read(6), &mut ctx);
    assert_eq!(ctx.read_replies.len(), 1, "stale lease: no local serve");
    assert!(ctx
        .sends
        .iter()
        .any(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_))));
}

#[test]
fn follower_quorum_read_parks_on_the_max_mark_until_executed() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    // The follower logs instance 0 (not yet known committed).
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    ctx.sends.clear();
    p.on_client_read(read(3), &mut ctx);
    assert!(ctx.read_replies.is_empty(), "follower never serves eagerly");
    assert_eq!(
        ctx.sends
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_)))
            .count(),
        2,
        "probe goes to both peers"
    );
    // One peer answers: with self that is a majority of 3. Its mark (1)
    // matches our own log top, so the read parks at instance mark 1.
    p.on_message(
        r(0),
        PaxosMsg::ReadMark(ReadReply { seq: 1, mark: 1 }),
        &mut ctx,
    );
    assert_eq!(p.pending_reads(), 1, "parked: instance 0 not yet executed");
    assert!(ctx.read_replies.is_empty());
    // Majority acks arrive, instance 0 executes, the read releases.
    p.on_message(r(0), acked(b0(), 1), &mut ctx);
    p.on_message(r(2), acked(b0(), 1), &mut ctx);
    assert_eq!(p.executed(), 1);
    assert_eq!(ctx.read_replies.len(), 1);
    assert_eq!(p.pending_reads(), 0);
}

#[test]
fn any_replica_answers_read_probes_with_its_log_top() {
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)), &mut ctx);
    ctx.sends.clear();
    p.on_message(r(1), PaxosMsg::ReadProbe(ReadRequest { seq: 42 }), &mut ctx);
    match &ctx.sends[..] {
        [(to, PaxosMsg::ReadMark(reply))] => {
            assert_eq!(*to, r(1));
            assert_eq!(reply.seq, 42);
            assert_eq!(reply.mark, 2, "mark covers the whole accepted log");
        }
        other => panic!("expected one ReadMark, got {other:?}"),
    }
}

#[test]
fn read_falls_back_to_replication_without_sm_access() {
    let mut p = MultiPaxos::new(r(0), Membership::uniform(3), r(0), PaxosVariant::Bcast);
    let mut ctx = TestCtx::new(0);
    ctx.serve_reads = false;
    p.on_client_read(read(4), &mut ctx);
    assert!(ctx.read_replies.is_empty());
    assert!(
        ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { .. })),
        "unserveable read must be replicated as an ordinary command"
    );
}

#[test]
fn new_leader_reads_wait_out_the_repaired_suffix() {
    // r1 wins an election inheriting an instance that may already have
    // committed — and replied — under the old regime. Its local reads
    // must not be served below the repaired suffix top.
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    ctx.clock = 1_000_000;
    p.on_timer(TOKEN_LEASE, &mut ctx); // lease expired at start: campaign
    assert!(p.is_campaigning());
    let ballot = p.promised();
    // Loop back the self-addressed Prepare, then the resulting Promise.
    let own_prepare = ctx
        .sends
        .iter()
        .find_map(|(to, m)| match m {
            PaxosMsg::Prepare { .. } if *to == r(1) => Some(m.clone()),
            _ => None,
        })
        .expect("self prepare");
    p.on_message(r(1), own_prepare, &mut ctx);
    let own_promise = ctx
        .sends
        .iter()
        .rev()
        .find_map(|(to, m)| match m {
            PaxosMsg::Promise { .. } if *to == r(1) => Some(m.clone()),
            _ => None,
        })
        .expect("self promise");
    p.on_message(r(1), own_promise, &mut ctx);
    p.on_message(
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![SuffixEntry {
                instance: 0,
                ballot: b0(),
                value: Some((cmd(1), r(0))),
            }],
        },
        &mut ctx,
    );
    assert!(p.is_leader());
    // Both peers acked the repair run at the new ballot: the leader's
    // read lease is fresh. A read now must still wait for the inherited
    // instance to commit and execute.
    p.on_message(r(2), acked(ballot, 1), &mut ctx);
    p.on_message(r(0), acked(ballot, 0), &mut ctx);
    let executed_before = p.executed();
    if executed_before == 0 {
        p.on_client_read(read(8), &mut ctx);
        assert!(
            ctx.read_replies.is_empty(),
            "read served below the repaired suffix top"
        );
    }
    // Our own vouch (r0's ack was 0, r2 acked 1; our logged_next is 1)
    // plus r2 commits instance 0; the read releases.
    p.on_message(r(0), acked(ballot, 1), &mut ctx);
    assert_eq!(p.executed(), 1);
    p.on_client_read(read(9), &mut ctx);
    assert!(!ctx.read_replies.is_empty());
}

#[test]
fn fresh_lease_acceptor_refuses_to_promise_a_new_ballot() {
    // Leader stickiness: a follower that heard its leader within the
    // suspicion timeout must not grant promises — otherwise one
    // isolated replica could depose a healthy leader through fresh
    // followers and race the leader's read lease.
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    // Current-regime leader traffic renews the lease.
    p.on_message(r(0), accept(b0(), 0, vec![cmd(1)], r(0)), &mut ctx);
    ctx.sends.clear();
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert!(
        !ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })),
        "fresh-leased acceptor granted a promise: {:?}",
        ctx.sends
    );
    // Once the lease expires, the same Prepare is granted.
    ctx.clock += lease().timeout_us + 1;
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert!(
        ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })),
        "expired-lease acceptor must grant"
    );
}

#[test]
fn heartbeat_draws_a_cumulative_ack_as_lease_evidence() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_message(
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
        &mut ctx,
    );
    let acks: Vec<_> = ctx
        .sends
        .iter()
        .filter(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Accepted { .. }))
        .collect();
    assert_eq!(acks.len(), 1, "heartbeat must be acked to the leader");
}

// ----------------------------------------------------------------------
// Pre-vote (opt-in): probe electability before burning a ballot
// ----------------------------------------------------------------------

fn prevote_lease() -> LeaseConfig {
    lease().with_pre_vote()
}

fn prevotes(ctx: &TestCtx) -> Vec<Ballot> {
    ctx.sends
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::PreVote { ballot } => Some(*ballot),
            _ => None,
        })
        .collect()
}

#[test]
fn prevote_expiry_probes_instead_of_preparing() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000; // past the staggered timeout for index 1
    p.on_timer(TOKEN_LEASE, &mut ctx);
    // A probe at the prospective round goes to everyone, self included —
    // but no Prepare, no durable promise, no round burned.
    assert_eq!(prevotes(&ctx), vec![b(1, 1); 3]);
    assert!(prepares(&ctx).is_empty(), "probe must precede any Prepare");
    assert!(p.is_pre_voting() && !p.is_campaigning());
    assert_eq!(p.promised(), b0(), "a probe must not move the promise");
    assert_eq!(p.max_round_seen, 0, "a probe must not burn a round");
    assert!(
        !ctx.log
            .iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(_))),
        "a probe must not write the durable log"
    );
}

#[test]
fn prevote_answer_is_pure() {
    // A peer whose lease on the leader is fresh refuses the probe
    // silently; one whose lease lapsed grants it. Neither answer
    // mutates anything — promise, lease, log, or round counter.
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    p.on_message(r(1), PaxosMsg::PreVote { ballot: b(1, 1) }, &mut ctx);
    assert!(
        ctx.sends.is_empty(),
        "fresh-lease peer must refuse the probe silently"
    );
    ctx.clock += lease().timeout_us + 1;
    p.on_message(r(1), PaxosMsg::PreVote { ballot: b(1, 1) }, &mut ctx);
    assert_eq!(
        ctx.sends,
        vec![(r(1), PaxosMsg::PreVoteGrant { ballot: b(1, 1) })]
    );
    assert_eq!(p.promised(), b0(), "granting a probe is not promising");
    assert_eq!(p.max_round_seen, 0);
    assert!(ctx.log.is_empty(), "granting a probe must not log");
    // The grant did not renew the grantor's lease either: unlike a real
    // promise there is no election window to protect, so its own (pre-)
    // candidacy timing is untouched. A real Prepare at the same ballot
    // is still granted afterwards.
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert!(ctx
        .sends
        .iter()
        .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })));
}

#[test]
fn stale_prevote_draws_a_nack() {
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock += lease().timeout_us + 1;
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(3, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert_eq!(p.promised(), b(3, 1));
    ctx.sends.clear();
    // A probe below the promise teaches the prober the round to beat.
    p.on_message(r(0), PaxosMsg::PreVote { ballot: b(1, 0) }, &mut ctx);
    assert_eq!(
        ctx.sends,
        vec![(r(0), PaxosMsg::Nack { promised: b(3, 1) })]
    );
}

#[test]
fn prevote_majority_escalates_to_a_real_election() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert_eq!(prevotes(&ctx), vec![b(1, 1); 3]);
    // Self-addressed probe loops back (own lease expired → grant)...
    p.on_message(r(1), PaxosMsg::PreVote { ballot: b(1, 1) }, &mut ctx);
    p.on_message(r(1), PaxosMsg::PreVoteGrant { ballot: b(1, 1) }, &mut ctx);
    assert!(p.is_pre_voting(), "one grant is not a majority");
    assert!(prepares(&ctx).is_empty());
    // ...and a second grant makes the majority: the real election starts,
    // burning the round only now.
    p.on_message(r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) }, &mut ctx);
    assert!(!p.is_pre_voting() && p.is_campaigning());
    assert_eq!(prepares(&ctx), vec![b(1, 1); 3]);
    assert_eq!(p.promised(), b(1, 1), "the election is durably promised");
}

#[test]
fn duplicate_grants_do_not_make_a_majority() {
    let mut p = MultiPaxos::new(r(1), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 600_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    p.on_message(r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) }, &mut ctx);
    p.on_message(r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) }, &mut ctx);
    assert!(p.is_pre_voting(), "a re-delivered grant counts once");
    assert!(prepares(&ctx).is_empty());
}

#[test]
fn isolated_prevoter_burns_no_ballots_and_rejoins_quietly() {
    // The disruption scenario pre-vote exists for: a replica cut off
    // behind a partition suspects the leader and campaigns into the
    // void. With classic elections every retry durably self-promises a
    // higher round, so on heal its inflated promise Nacks the healthy
    // leader's traffic and deposes it. With pre-vote the castaway only
    // ever probes: heal finds it exactly where it left — same promise,
    // same regime — and the leader's next heartbeat is acked, not
    // Nacked.
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    // Partitioned: many retry periods pass, every probe unanswered.
    for tick in 1..=20u64 {
        ctx.clock = 600_000 + tick * lease().election_retry_us;
        p.on_timer(TOKEN_LEASE, &mut ctx);
    }
    assert!(prevotes(&ctx).len() >= 3, "castaway must keep re-probing");
    assert!(prepares(&ctx).is_empty(), "castaway must never Prepare");
    assert_eq!(p.promised(), b0(), "no self-promise accumulated");
    assert_eq!(p.max_round_seen, 0, "no rounds burned while isolated");
    // Heal: the leader's heartbeat arrives. No Nack — the castaway is
    // still a clean follower of the original regime.
    ctx.sends.clear();
    p.on_message(
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
        &mut ctx,
    );
    assert!(
        !ctx.sends
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Nack { .. })),
        "healed castaway must not depose the leader"
    );
    assert!(
        ctx.sends
            .iter()
            .any(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Accepted { .. })),
        "heartbeat must be acked as usual"
    );
    // The heartbeat renewed its lease; the next tick stands the probe
    // down instead of escalating.
    ctx.clock += 1_000;
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(!p.is_pre_voting() && !p.is_campaigning());
}

#[test]
fn prevote_stands_down_when_outbid_by_a_real_candidacy() {
    let mut p = MultiPaxos::new(r(2), Membership::uniform(3), r(0), PaxosVariant::Bcast)
        .with_failover(prevote_lease());
    let mut ctx = TestCtx::new(0);
    p.on_start(&mut ctx);
    ctx.clock = 800_000; // past the index-2 stagger
    p.on_timer(TOKEN_LEASE, &mut ctx);
    assert!(p.is_pre_voting());
    // A real candidate at a higher ballot solicits us: grant and defer.
    p.on_message(
        r(1),
        PaxosMsg::Prepare {
            ballot: b(2, 1),
            from_instance: 0,
        },
        &mut ctx,
    );
    assert!(!p.is_pre_voting(), "a real candidacy trumps our probe");
    assert_eq!(p.promised(), b(2, 1));
}
