//! Checkpointing (Section V-B): recovery restores the latest snapshot and
//! replays only the log suffix, instead of re-executing everything.

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig, LogRec, RsmMsg};
use rsm_core::batch::Batch;
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::testing::TestCtx;
use rsm_core::time::Timestamp;

type CtxWithSm = TestCtx<ClockRsm>;

/// A context whose "state machine" is the list of executed sequence
/// numbers, with or without snapshot/restore support.
fn ctx_with_sm(snapshots: bool) -> CtxWithSm {
    TestCtx {
        snapshots,
        ..TestCtx::new(1_000)
    }
}

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn cmd(seq: u64) -> Command {
    Command::new(
        CommandId::new(ClientId::new(r(0), 0), seq),
        Bytes::from_static(b"x"),
    )
}

fn replica(checkpoint_every: Option<u64>) -> ClockRsm {
    ClockRsm::new(
        r(2),
        Membership::uniform(3),
        ClockRsmConfig::default()
            .with_delta_us(None)
            .with_checkpoint_every(checkpoint_every),
    )
}

fn replica_with(policy: CheckpointPolicy) -> ClockRsm {
    ClockRsm::new(
        r(2),
        Membership::uniform(3),
        ClockRsmConfig::default()
            .with_delta_us(None)
            .with_checkpoint(policy),
    )
}

/// Drives `count` full commits through a replica by hand.
fn commit_n(p: &mut ClockRsm, ctx: &mut CtxWithSm, count: u64) {
    for seq in 1..=count {
        let ts = Timestamp::new(10_000 * seq, r(0));
        p.on_message(
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts,
                origin: r(0),
                cmds: Batch::single(cmd(seq)),
            },
            ctx,
        );
        for k in 0..3u16 {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: ts,
                    clock_ts: Timestamp::new(ts.micros() + 10 + k as u64, r(k)),
                },
                ctx,
            );
        }
    }
}

#[test]
fn checkpoints_are_written_at_the_interval() {
    let mut p = replica(Some(3));
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 7);
    let checkpoints: Vec<&LogRec> = ctx
        .log
        .iter()
        .filter(|l| matches!(l, LogRec::Checkpoint { .. }))
        .collect();
    assert_eq!(
        checkpoints.len(),
        2,
        "7 commits at interval 3 -> 2 checkpoints"
    );
    match checkpoints[1] {
        LogRec::Checkpoint(cp) => {
            assert_eq!(
                cp.applied.micros(),
                60_000,
                "second checkpoint covers commit 6"
            );
            assert_eq!(cp.snapshot.len(), 6 * 8);
        }
        _ => unreachable!(),
    }
}

#[test]
fn byte_budget_triggers_checkpoints_before_the_count_interval() {
    // 1-byte commands, a 2-byte budget and a distant count interval: the
    // byte trigger must fire every two commits.
    let mut p = replica_with(CheckpointPolicy::every(1_000_000).with_every_bytes(Some(2)));
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 6);
    let checkpoints = ctx
        .log
        .iter()
        .filter(|l| matches!(l, LogRec::Checkpoint(_)))
        .count();
    assert_eq!(checkpoints, 3, "6 one-byte commits over a 2-byte budget");
}

#[test]
fn compaction_truncates_the_log_below_the_watermark() {
    let mut p = replica_with(CheckpointPolicy::every(3).with_compaction(true));
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 7);
    // The last compaction ran at commit 6: the log holds that checkpoint
    // plus only the records above its watermark (commit 7's pair).
    let below_watermark = ctx
        .log
        .iter()
        .filter_map(LogRec::ts)
        .filter(|ts| ts.micros() <= 60_000)
        .count();
    assert_eq!(below_watermark, 0, "records below the watermark survive");
    assert!(
        ctx.log.len() <= 4,
        "log must stay bounded, got {} records",
        ctx.log.len()
    );
    // Recovery from the compacted log reproduces the full state.
    let mut p2 = replica_with(CheckpointPolicy::every(3).with_compaction(true));
    let mut ctx2 = ctx_with_sm(true);
    p2.on_recover(&ctx.log.clone(), &mut ctx2);
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(p2.last_committed_ts().micros(), 70_000);
}

#[test]
fn recovery_restores_snapshot_and_replays_only_suffix() {
    let mut p = replica(Some(3));
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 7);
    let log = ctx.log.clone();

    // Fresh replica + fresh context: recover from the log.
    let mut p2 = replica(Some(3));
    let mut ctx2 = ctx_with_sm(true);
    p2.on_recover(&log, &mut ctx2);

    // The snapshot restored commands 1..=6; only command 7 was replayed.
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(ctx2.commits.len(), 1, "only the suffix is re-executed");
    assert_eq!(ctx2.commits[0].cmd.id.seq, 7);
    assert_eq!(p2.last_committed_ts().micros(), 70_000);
}

#[test]
fn recovery_without_snapshot_support_replays_everything() {
    let mut p = replica(Some(3));
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 7);
    let log = ctx.log.clone();

    // The recovering driver cannot restore snapshots: full replay.
    let mut p2 = replica(Some(3));
    let mut ctx2 = ctx_with_sm(false);
    p2.on_recover(&log, &mut ctx2);
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(ctx2.commits.len(), 7);
}

#[test]
fn no_checkpoints_without_configuration() {
    let mut p = replica(None);
    let mut ctx = ctx_with_sm(true);
    commit_n(&mut p, &mut ctx, 10);
    assert!(
        !ctx.log
            .iter()
            .any(|l| matches!(l, LogRec::Checkpoint { .. })),
        "checkpointing must be opt-in"
    );
}

#[test]
fn snapshotless_driver_never_receives_checkpoint_records() {
    let mut p = replica(Some(2));
    let mut ctx = ctx_with_sm(false);
    commit_n(&mut p, &mut ctx, 6);
    assert!(
        !ctx.log
            .iter()
            .any(|l| matches!(l, LogRec::Checkpoint { .. })),
        "no snapshots -> no checkpoint records"
    );
}
