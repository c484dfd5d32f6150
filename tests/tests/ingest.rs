//! Ingestion chaos suite: the governor's backpressure contract and the
//! crash-mid-ingest recovery story, end to end across `rex-kb`'s WAL
//! and `rex-core`'s serving stack.
//!
//! The headline scenario: a scripted torn write kills ingestion mid-
//! stream, the process "restarts" (recovery over checkpoint + WAL,
//! torn tail truncated), and a fresh governor **resumes serving from
//! the recovered epoch** — readers see every committed batch, none of
//! the torn one, and ingestion continues from exactly where durability
//! left off.

use std::sync::Arc;

use rex_core::ranking::fault::site;
use rex_core::ranking::{
    Backpressure, FaultAction, FaultPlan, IngestConfig, IngestGovernor, IngestOp, RankPairsConfig,
    ServingState,
};
use rex_core::CoreError;
use rex_kb::{toy, DurableKb, KnowledgeBase, SyncPolicy};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rex-ingest-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn paths(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    (dir.join("checkpoint.rexc"), dir.join("delta.rexw"))
}

/// One ingest batch: a fresh node plus an edge anchoring it.
fn batch(n: u32) -> Vec<IngestOp> {
    vec![
        IngestOp::InsertNode { name: format!("stream-{n}"), ty: "Person".into() },
        IngestOp::InsertEdge {
            src: format!("stream-{n}"),
            dst: "brad_pitt".into(),
            label: "knows".into(),
            directed: true,
        },
    ]
}

fn fresh_governor(
    dir: &std::path::Path,
    cfg: IngestConfig,
    plan: Option<Arc<FaultPlan>>,
) -> IngestGovernor {
    let (ckpt, wal) = paths(dir);
    let durable =
        DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
    let serving = Arc::new(ServingState::build(durable.kb(), &RankPairsConfig::default()).unwrap());
    let g = IngestGovernor::new(durable, serving, cfg);
    match plan {
        Some(p) => g.with_fault_plan(p),
        None => g,
    }
}

/// Crash mid-ingest (scripted torn WAL record), recover, resume: the
/// rebuilt serving session starts at the recovered epoch and keeps
/// flipping as ingestion continues.
#[test]
fn recovery_mid_ingest_resumes_serving_from_recovered_epoch() {
    let dir = temp_dir("resume");
    let (ckpt, wal) = paths(&dir);
    // Commits 1 and 2 succeed; commit 3 tears mid-record.
    let plan = Arc::new(
        FaultPlan::seeded(0xC4A5)
            .one_shot(site::WAL_APPEND, FaultAction::Delay(std::time::Duration::ZERO))
            .one_shot(site::WAL_APPEND, FaultAction::Delay(std::time::Duration::ZERO))
            .one_shot(site::WAL_APPEND, FaultAction::TornWrite(9)),
    );
    let cfg = IngestConfig { checkpoint_interval: 0, ..Default::default() };
    let mut g = fresh_governor(&dir, cfg, Some(Arc::clone(&plan)));

    g.submit(batch(0), Backpressure::Shed).unwrap();
    g.submit(batch(1), Backpressure::Shed).unwrap();
    g.submit(batch(2), Backpressure::Shed).unwrap();
    assert!(g.pump().unwrap());
    assert!(g.pump().unwrap());
    let err = g.pump().unwrap_err();
    assert!(matches!(err, CoreError::Durability(_)), "torn write fails the commit: {err}");
    assert_eq!(plan.pending(), 0);
    let served_before_crash = g.serving().epoch();
    drop(g); // the "crash": queued + torn state is gone

    // --- Restart: recover, rebuild serving, resume ingestion. --------
    let (durable, report) = DurableKb::open(&ckpt, &wal, SyncPolicy::PerCommit).unwrap();
    assert_eq!(report.replayed_batches, 2, "exactly the committed prefix: {report:?}");
    assert!(report.truncated_bytes > 0, "torn tail was cut: {report:?}");
    assert!(report.truncated_reason.is_some(), "truncation is reported: {report:?}");

    let recovered_epoch = durable.kb().epoch();
    let serving = Arc::new(ServingState::build(durable.kb(), &RankPairsConfig::default()).unwrap());
    assert_eq!(serving.epoch(), recovered_epoch, "serving resumes from the recovered epoch");
    assert!(
        serving.epoch() >= served_before_crash,
        "recovered epoch covers everything that was ever served \
         ({} served, {} recovered)",
        served_before_crash,
        recovered_epoch,
    );
    let snap = serving.snapshot();
    let nodes_at_recovery = snap.kb().node_count();

    let mut g = IngestGovernor::new(durable, Arc::clone(&serving), cfg);
    // Re-submit the batch the crash ate, plus fresh ones.
    for n in 2..6 {
        g.submit(batch(n), Backpressure::Shed).unwrap();
    }
    g.drain().unwrap();
    assert_eq!(g.epoch_lag(), 0);
    assert!(g.serving().epoch() > recovered_epoch, "ingestion resumed and flipped");
    assert_eq!(
        g.serving().snapshot().kb().node_count(),
        nodes_at_recovery + 4,
        "readers see every post-recovery batch"
    );
    // Old pinned snapshots keep serving their epoch (epoch pinning
    // survives the whole crash-recover-resume cycle).
    assert_eq!(snap.kb().epoch(), recovered_epoch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sustained ingestion with a reader holding a pinned snapshot: the
/// queue depth never exceeds capacity, backpressure sheds above it, and
/// the reader's epoch never moves underneath it.
#[test]
fn sustained_ingest_sheds_above_capacity_and_pins_readers() {
    let dir = temp_dir("sustained");
    let cfg = IngestConfig {
        queue_capacity: 4,
        flip_queue_threshold: 0,
        max_epoch_lag: 10_000,
        checkpoint_interval: 8,
    };
    let mut g = fresh_governor(&dir, cfg, None);
    let reader_snap = g.serving().snapshot();
    let reader_epoch = reader_snap.kb().epoch();

    let mut shed = 0u32;
    let mut peak = 0;
    for n in 0..64 {
        match g.submit(batch(n), Backpressure::Shed) {
            Ok(()) => {}
            Err(e) => {
                assert!(e.is_retryable());
                shed += 1;
                // Back off like a real producer: drain one batch, retry.
                g.pump().unwrap();
                g.submit(batch(n), Backpressure::Shed).unwrap();
            }
        }
        assert!(g.queue_depth() <= 4, "bounded queue never exceeds capacity");
        peak = peak.max(g.queue_depth());
    }
    assert!(shed > 0, "sustained load above capacity must shed");
    assert_eq!(peak, 4, "load actually filled the queue");
    g.drain().unwrap();
    assert_eq!(g.queue_depth(), 0);

    let stats = g.stats();
    assert_eq!(stats.applied_ops, 128, "every batch eventually landed");
    assert!(stats.deferred_flips > 0, "deep queue deferred flips");
    assert!(stats.flips < stats.committed_batches, "flips are paced, not per-commit");
    assert!(stats.checkpoints >= 1, "interval checkpointing ran under load");
    assert_eq!(reader_snap.kb().epoch(), reader_epoch, "reader stayed pinned throughout");
    assert!(g.serving().epoch() > reader_epoch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash around the checkpoint itself (before and after the atomic
/// rename) never loses committed batches: either the old checkpoint +
/// full WAL or the new checkpoint + skip-replay covers everything.
#[test]
fn checkpoint_crashes_on_either_side_of_the_rename_lose_nothing() {
    for (tag, s, action_site) in
        [("before", 0, site::CHECKPOINT_BEFORE), ("after", 1, site::CHECKPOINT_AFTER)]
    {
        let dir = temp_dir(&format!("ckpt-crash-{tag}"));
        let (ckpt, wal) = paths(&dir);
        let plan =
            Arc::new(FaultPlan::seeded(0xCC + s).one_shot(action_site, FaultAction::CrashHere));
        let cfg = IngestConfig { checkpoint_interval: 0, ..Default::default() };
        let mut g = fresh_governor(&dir, cfg, Some(plan));
        for n in 0..3 {
            g.submit(batch(n), Backpressure::Shed).unwrap();
        }
        g.drain().unwrap();
        let expected_nodes = g.kb().node_count();
        let err = g.checkpoint().unwrap_err();
        assert!(matches!(err, CoreError::Durability(_)), "{tag}: {err}");
        drop(g);

        let (recovered, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(
            recovered.node_count(),
            expected_nodes,
            "{tag}-rename checkpoint crash must not lose committed batches: {report:?}"
        );
        assert_eq!(
            report.replayed_batches + report.skipped_batches,
            3,
            "{tag}: every batch is accounted for, replayed or checkpoint-covered: {report:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
