//! Backpressure-governed ingestion: a bounded delta queue between
//! writers and the serving stack, with durable commits and paced
//! epoch flips.
//!
//! The REX serving story so far let callers mutate the [`KnowledgeBase`]
//! directly and call [`ServingState::maintain`] per delta. That is fine
//! for a test harness but wrong for sustained ingestion: every delta
//! pays a full index-patch + frame check, writers outrun readers with
//! no signal to slow down, and nothing is durable. The
//! [`IngestGovernor`] fixes all three:
//!
//! * **Durability** — queued delta batches are applied to a
//!   [`DurableKb`], so every drained batch is group-committed to the
//!   write-ahead log before it can ever reach a reader. Commit receipts
//!   feed the `committed_batches` / `wal_bytes` counters of
//!   [`IngestStats`].
//! * **Backpressure** — the queue is bounded. A full queue either sheds
//!   the submission with the retryable [`CoreError::Overloaded`] (the
//!   same vocabulary the admission controller speaks) or, in
//!   [`Backpressure::Block`] mode, makes room by draining queued work
//!   inline — the single-threaded equivalent of blocking the producer.
//! * **Paced maintenance** — epoch flips are scheduled by queue depth
//!   and observed read load, not per delta. While the queue is deep the
//!   governor keeps absorbing writes and defers the flip; while readers
//!   hold most of the admission pool it defers too (a flip invalidates
//!   their next cache probe); an idle system flips promptly. A hard
//!   epoch-lag bound caps staleness regardless.
//!
//! Fault injection reuses the serving [`FaultPlan`]: the I/O sites
//! ([`site::WAL_APPEND`], [`site::WAL_SYNC`], [`site::CHECKPOINT_BEFORE`],
//! [`site::CHECKPOINT_AFTER`], [`site::INGEST_ENQUEUE`]) are fired on
//! the governor's paths and translated into the `rex-kb` WAL's scripted
//! faults ([`WalFaults`], [`CheckpointCrash`]), so one chaos plan can
//! script a torn write at a byte offset and assert the recovery story
//! end to end.

use std::collections::VecDeque;
use std::sync::Arc;

use rex_kb::{CheckpointCrash, CheckpointReceipt, DurableKb, KnowledgeBase, WalFaults};
use rex_relstore::metrics;

use crate::error::{CoreError, Result};
use crate::ranking::fault::{site, FaultAction, FaultPlan};
use crate::ranking::serve::{MaintainOutcome, ServingState};

/// One name-addressed mutation, the unit the ingest stream speaks
/// (matching the `N` / `+` / `-` records of the TSV delta format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOp {
    /// Upsert a node by name; a no-op if the name already exists.
    InsertNode {
        /// Unique entity name.
        name: String,
        /// Entity type name (interned on first use).
        ty: String,
    },
    /// Insert one edge between two existing nodes.
    InsertEdge {
        /// Source entity name (must exist).
        src: String,
        /// Destination entity name (must exist).
        dst: String,
        /// Relationship label (interned on first use).
        label: String,
        /// Directed vs undirected.
        directed: bool,
    },
    /// Remove one edge matching the quadruple exactly.
    RemoveEdge {
        /// Source entity name.
        src: String,
        /// Destination entity name.
        dst: String,
        /// Relationship label (must exist).
        label: String,
        /// Directed vs undirected.
        directed: bool,
    },
}

impl IngestOp {
    /// Applies the op to `kb`, resolving names: an edge op needs both
    /// endpoints to exist, and a removal needs a matching edge.
    pub fn apply(&self, kb: &mut KnowledgeBase) -> Result<()> {
        match self {
            IngestOp::InsertNode { name, ty } => {
                kb.insert_node(name, ty);
                Ok(())
            }
            IngestOp::InsertEdge { src, dst, label, directed } => {
                let s = kb
                    .node_by_name(src)
                    .ok_or_else(|| CoreError::Durability(format!("unknown node {src:?}")))?;
                let d = kb
                    .node_by_name(dst)
                    .ok_or_else(|| CoreError::Durability(format!("unknown node {dst:?}")))?;
                kb.insert_edge_named(s, d, label, *directed)
                    .map_err(|e| CoreError::Durability(e.to_string()))?;
                Ok(())
            }
            IngestOp::RemoveEdge { src, dst, label, directed } => {
                let s = kb
                    .node_by_name(src)
                    .ok_or_else(|| CoreError::Durability(format!("unknown node {src:?}")))?;
                let d = kb
                    .node_by_name(dst)
                    .ok_or_else(|| CoreError::Durability(format!("unknown node {dst:?}")))?;
                let l = kb
                    .label_by_name(label)
                    .ok_or_else(|| CoreError::Durability(format!("unknown label {label:?}")))?;
                let id = kb.find_edge(s, d, l, *directed).ok_or_else(|| {
                    CoreError::Durability(format!("no edge {src:?} -[{label}]-> {dst:?} to remove"))
                })?;
                kb.remove_edge(id).map_err(|e| CoreError::Durability(e.to_string()))?;
                Ok(())
            }
        }
    }
}

/// What a full queue does to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Make room by draining queued batches inline before enqueueing —
    /// the producer pays the ingestion latency itself.
    Block,
    /// Reject with the retryable [`CoreError::Overloaded`] and count a
    /// shed; the producer is expected to back off and retry.
    Shed,
}

/// Tuning for the governor. Defaults suit tests and the CLI; the bench
/// harness overrides capacity and pacing to stress specific regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Maximum queued (not yet committed) delta batches. Submissions
    /// beyond this shed or block per [`Backpressure`].
    pub queue_capacity: usize,
    /// Flip the serving epoch only when the queue is at most this deep
    /// (deep queue = absorb writes first, batch the flip).
    pub flip_queue_threshold: usize,
    /// Hard staleness bound: once the KB is this many epochs ahead of
    /// the serving state, flip regardless of queue depth or read load.
    pub max_epoch_lag: u64,
    /// Checkpoint (snapshot + WAL reset) every this many WAL commits;
    /// `0` disables automatic checkpoints.
    pub checkpoint_interval: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 64,
            flip_queue_threshold: 1,
            max_epoch_lag: 256,
            checkpoint_interval: 32,
        }
    }
}

/// Counters the governor accumulates over its lifetime; exposed for
/// tests, the CLI summary line, and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Batches accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected with [`CoreError::Overloaded`].
    pub shed: u64,
    /// WAL commits (non-empty windows only).
    pub committed_batches: u64,
    /// Bytes appended to the WAL across all commits.
    pub wal_bytes: u64,
    /// Individual [`IngestOp`]s applied to the KB.
    pub applied_ops: u64,
    /// Serving-epoch flips performed.
    pub flips: u64,
    /// Times the pacing policy deferred a possible flip.
    pub deferred_flips: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// The ingestion governor: owns the durable KB, feeds a shared
/// [`ServingState`], and schedules maintenance.
///
/// Single-writer by construction (`&mut self` on every mutating path);
/// readers go through the `Arc<ServingState>` concurrently as usual.
pub struct IngestGovernor {
    durable: DurableKb,
    serving: Arc<ServingState>,
    queue: VecDeque<Vec<IngestOp>>,
    cfg: IngestConfig,
    faults: Option<Arc<FaultPlan>>,
    stats: IngestStats,
}

impl IngestGovernor {
    /// Wraps a durable KB and a serving session. The serving state must
    /// have been built from (a prefix of) the same KB.
    pub fn new(durable: DurableKb, serving: Arc<ServingState>, cfg: IngestConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "ingest queue capacity must be positive");
        IngestGovernor {
            durable,
            serving,
            queue: VecDeque::new(),
            cfg,
            faults: None,
            stats: IngestStats::default(),
        }
    }

    /// Attaches a fault plan whose I/O sites are fired on the commit,
    /// checkpoint, and enqueue paths.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The serving session readers share.
    pub fn serving(&self) -> &Arc<ServingState> {
        &self.serving
    }

    /// The durable KB (current, possibly not-yet-served state).
    pub fn kb(&self) -> &KnowledgeBase {
        self.durable.kb()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Batches queued but not yet committed.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Epochs the durable KB is ahead of the serving state.
    pub fn epoch_lag(&self) -> u64 {
        self.durable.kb().epoch().saturating_sub(self.serving.epoch())
    }

    /// Tears the governor down, returning the durable KB (callers
    /// typically `checkpoint()` first for a clean shutdown).
    pub fn into_durable(self) -> DurableKb {
        self.durable
    }

    /// Submits one delta batch. A full queue sheds or blocks per
    /// `mode`; an accepted batch is applied and committed by a later
    /// [`pump`](IngestGovernor::pump) / [`drain`](IngestGovernor::drain).
    pub fn submit(&mut self, ops: Vec<IngestOp>, mode: Backpressure) -> Result<()> {
        if let Some(plan) = &self.faults {
            plan.fire(site::INGEST_ENQUEUE);
        }
        while self.queue.len() >= self.cfg.queue_capacity {
            match mode {
                Backpressure::Shed => {
                    self.stats.shed += 1;
                    return Err(CoreError::Overloaded { needed: 1, available: 0 });
                }
                // Blocking producer, single-threaded: make room by doing
                // the consumer's work inline.
                Backpressure::Block => {
                    self.pump()?;
                }
            }
        }
        self.queue.push_back(ops);
        self.stats.accepted += 1;
        metrics::record_ingest_queue_depth(self.queue.len());
        Ok(())
    }

    /// Processes at most one queued batch: apply, group-commit to the
    /// WAL, then consult the pacing policy for a flip and the
    /// checkpoint schedule. Returns `true` if a batch was consumed.
    /// With an empty queue it still gives pacing a chance to flip.
    pub fn pump(&mut self) -> Result<bool> {
        let Some(ops) = self.queue.pop_front() else {
            self.maybe_flip()?;
            return Ok(false);
        };
        for op in &ops {
            op.apply(self.durable.kb_mut())?;
        }
        self.stats.applied_ops += ops.len() as u64;
        self.commit()?;
        self.maybe_flip()?;
        if self.cfg.checkpoint_interval > 0
            && self.stats.committed_batches > 0
            && self.stats.committed_batches.is_multiple_of(self.cfg.checkpoint_interval)
        {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Pumps until the queue is empty, then forces a final flip so the
    /// serving state reflects everything committed.
    pub fn drain(&mut self) -> Result<()> {
        while self.pump()? {}
        if self.epoch_lag() > 0 {
            self.flip()?;
        }
        Ok(())
    }

    /// Commits the current mutation window to the WAL, translating any
    /// scripted I/O faults first. Exposed for callers that mutate the
    /// KB through other paths and want durability on the same log.
    pub fn commit(&mut self) -> Result<()> {
        self.arm_wal_faults();
        match self.durable.commit() {
            Ok(Some(receipt)) => {
                self.stats.committed_batches += 1;
                self.stats.wal_bytes += receipt.bytes;
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(CoreError::Durability(e.to_string())),
        }
    }

    /// Takes a checkpoint now (commit + snapshot + WAL reset),
    /// regardless of the automatic schedule. The serving state is
    /// flipped first so log compaction cannot strand it behind the
    /// compaction horizon.
    pub fn checkpoint(&mut self) -> Result<CheckpointReceipt> {
        self.commit()?;
        if self.epoch_lag() > 0 {
            self.flip()?;
        }
        self.arm_checkpoint_faults();
        let receipt =
            self.durable.checkpoint().map_err(|e| CoreError::Durability(e.to_string()))?;
        self.stats.checkpoints += 1;
        Ok(receipt)
    }

    /// The pacing policy. Flip when the hard lag bound is hit; defer
    /// while the queue is deeper than the flip threshold (keep
    /// absorbing writes) or while readers hold most of the admission
    /// pool (they are mid-burst; a flip would churn their cache).
    fn maybe_flip(&mut self) -> Result<Option<MaintainOutcome>> {
        if self.epoch_lag() == 0 {
            return Ok(None);
        }
        if self.epoch_lag() < self.cfg.max_epoch_lag {
            if self.queue.len() > self.cfg.flip_queue_threshold {
                self.stats.deferred_flips += 1;
                return Ok(None);
            }
            if let Some(adm) = self.serving.admission() {
                // More than half the row pool is out with readers:
                // observed read load is high, defer.
                if adm.available() * 2 < adm.capacity() {
                    self.stats.deferred_flips += 1;
                    return Ok(None);
                }
            }
        }
        self.flip().map(Some)
    }

    fn flip(&mut self) -> Result<MaintainOutcome> {
        let outcome = self.serving.maintain(self.durable.kb())?;
        self.stats.flips += 1;
        Ok(outcome)
    }

    /// Translates scripted WAL-site actions into the kb layer's
    /// scripted faults for the *next* commit.
    fn arm_wal_faults(&mut self) {
        let Some(plan) = &self.faults else { return };
        let mut faults = WalFaults::default();
        let mut armed = false;
        if let Some(FaultAction::TornWrite(cut)) = plan.fire_io(site::WAL_APPEND) {
            faults.torn_write = Some((self.durable.next_seq(), cut));
            armed = true;
        }
        if let Some(FaultAction::FailSync) = plan.fire_io(site::WAL_SYNC) {
            faults.fail_sync_at = Some(self.durable.next_seq());
            armed = true;
        }
        if armed {
            self.durable.set_wal_faults(faults);
        }
    }

    /// Translates scripted checkpoint-site actions into the kb layer's
    /// scripted crash points for the *next* checkpoint.
    fn arm_checkpoint_faults(&mut self) {
        let Some(plan) = &self.faults else { return };
        if let Some(FaultAction::CrashHere) = plan.fire_io(site::CHECKPOINT_BEFORE) {
            self.durable.set_checkpoint_crash(Some(CheckpointCrash::Before));
        } else if let Some(FaultAction::CrashHere) = plan.fire_io(site::CHECKPOINT_AFTER) {
            self.durable.set_checkpoint_crash(Some(CheckpointCrash::After));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_kb::{toy, SyncPolicy};

    use crate::ranking::RankPairsConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rex-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn governor(tag: &str, cfg: IngestConfig) -> IngestGovernor {
        let dir = temp_dir(tag);
        let kb = toy::entertainment();
        let durable = DurableKb::create(
            kb,
            &dir.join("checkpoint.rexc"),
            &dir.join("delta.rexw"),
            SyncPolicy::PerCommit,
        )
        .unwrap();
        let serving =
            Arc::new(ServingState::build(durable.kb(), &RankPairsConfig::default()).unwrap());
        IngestGovernor::new(durable, serving, cfg)
    }

    fn add(n: u32) -> Vec<IngestOp> {
        vec![
            IngestOp::InsertNode { name: format!("ingest-{n}"), ty: "Test".into() },
            IngestOp::InsertEdge {
                src: format!("ingest-{n}"),
                dst: "brad_pitt".into(),
                label: "starring".into(),
                directed: true,
            },
        ]
    }

    #[test]
    fn shed_mode_rejects_when_full_and_is_retryable() {
        let mut g = governor("shed", IngestConfig { queue_capacity: 2, ..Default::default() });
        g.submit(add(0), Backpressure::Shed).unwrap();
        g.submit(add(1), Backpressure::Shed).unwrap();
        let err = g.submit(add(2), Backpressure::Shed).unwrap_err();
        assert!(err.is_retryable(), "queue shed must reuse the retryable admission vocabulary");
        assert_eq!(g.stats().shed, 1);
        // Draining makes room again.
        g.drain().unwrap();
        g.submit(add(2), Backpressure::Shed).unwrap();
        g.drain().unwrap();
        assert_eq!(g.stats().applied_ops, 6);
        assert_eq!(g.epoch_lag(), 0, "drain leaves serving current");
    }

    #[test]
    fn block_mode_makes_room_by_draining_inline() {
        let mut g = governor("block", IngestConfig { queue_capacity: 1, ..Default::default() });
        for n in 0..5 {
            g.submit(add(n), Backpressure::Block).unwrap();
        }
        assert_eq!(g.stats().shed, 0, "block mode never sheds");
        assert!(g.stats().committed_batches >= 4, "room was made by committing");
        g.drain().unwrap();
        assert_eq!(g.stats().applied_ops, 10);
    }

    #[test]
    fn deep_queue_defers_flips_until_drained() {
        let mut g = governor(
            "pace",
            IngestConfig {
                queue_capacity: 16,
                flip_queue_threshold: 0,
                max_epoch_lag: 1_000,
                checkpoint_interval: 0,
            },
        );
        for n in 0..8 {
            g.submit(add(n), Backpressure::Shed).unwrap();
        }
        // Pump while the queue stays deep: flips are deferred.
        for _ in 0..7 {
            g.pump().unwrap();
        }
        assert!(g.stats().deferred_flips >= 6, "deep queue defers: {:?}", g.stats());
        assert!(g.stats().flips <= 1);
        g.drain().unwrap();
        assert_eq!(g.epoch_lag(), 0);
        assert!(g.serving().epoch() >= 8, "all deltas served after drain");
    }

    #[test]
    fn lag_bound_forces_flip_despite_read_load() {
        let dir = temp_dir("lagbound");
        let kb = toy::entertainment();
        let durable = DurableKb::create(
            kb,
            &dir.join("checkpoint.rexc"),
            &dir.join("delta.rexw"),
            SyncPolicy::Off,
        )
        .unwrap();
        let serving = Arc::new(
            ServingState::build(durable.kb(), &RankPairsConfig::default())
                .unwrap()
                .with_admission_control(100),
        );
        // Pin most of the row pool so observed read load is high.
        let _permit = serving.admit(80).unwrap();
        let mut g = IngestGovernor::new(
            durable,
            Arc::clone(&serving),
            IngestConfig {
                queue_capacity: 16,
                flip_queue_threshold: 16,
                max_epoch_lag: 3,
                checkpoint_interval: 0,
            },
        );
        let mut forced = 0;
        for n in 0..6 {
            g.submit(add(n), Backpressure::Shed).unwrap();
            g.pump().unwrap();
            forced = g.stats().flips;
        }
        assert!(forced > 0, "lag bound must force a flip under read load: {:?}", g.stats());
        assert!(g.epoch_lag() <= 2 * 3, "staleness stays bounded by the lag cap");
        assert!(g.stats().deferred_flips > 0, "read load deferred at least one flip");
    }

    #[test]
    fn checkpoint_schedule_resets_wal_and_keeps_serving_current() {
        let mut g = governor(
            "ckpt",
            IngestConfig {
                queue_capacity: 4,
                flip_queue_threshold: 4,
                max_epoch_lag: 64,
                checkpoint_interval: 2,
            },
        );
        for n in 0..4 {
            g.submit(add(n), Backpressure::Block).unwrap();
        }
        g.drain().unwrap();
        assert!(g.stats().checkpoints >= 1, "interval checkpointing ran: {:?}", g.stats());
        assert_eq!(g.epoch_lag(), 0, "checkpoint flips before compacting");
        // Reopen from disk: everything drained must be durable.
        let dir = std::env::temp_dir().join(format!("rex-ingest-ckpt-{}", std::process::id()));
        let expected = g.kb().node_count();
        let receipt = g.checkpoint().unwrap();
        assert!(receipt.snapshot_bytes > 0);
        drop(g);
        let (recovered, report) =
            rex_kb::KnowledgeBase::open(&dir.join("checkpoint.rexc"), &dir.join("delta.rexw"))
                .unwrap();
        assert_eq!(recovered.node_count(), expected);
        assert!(report.checkpoint_loaded);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn scripted_torn_write_fails_commit_and_recovery_drops_only_the_tail() {
        let dir = temp_dir("torn");
        let kb = toy::entertainment();
        let durable = DurableKb::create(
            kb,
            &dir.join("checkpoint.rexc"),
            &dir.join("delta.rexw"),
            SyncPolicy::PerCommit,
        )
        .unwrap();
        let serving =
            Arc::new(ServingState::build(durable.kb(), &RankPairsConfig::default()).unwrap());
        // The first commit consumes a harmless delay; the second hits
        // the torn write.
        let plan = Arc::new(
            FaultPlan::seeded(0x70_52)
                .one_shot(site::WAL_APPEND, FaultAction::Delay(std::time::Duration::ZERO))
                .one_shot(site::WAL_APPEND, FaultAction::TornWrite(5)),
        );
        let mut g = IngestGovernor::new(
            durable,
            serving,
            IngestConfig { checkpoint_interval: 0, ..Default::default() },
        )
        .with_fault_plan(Arc::clone(&plan));
        g.submit(add(0), Backpressure::Shed).unwrap();
        g.pump().unwrap();
        let committed_nodes = g.kb().node_count();
        // Second batch hits the scripted torn write mid-record.
        g.submit(add(1), Backpressure::Shed).unwrap();
        let err = g.pump().unwrap_err();
        assert!(matches!(err, CoreError::Durability(_)), "torn write surfaces as durability error");
        assert_eq!(plan.pending(), 0, "the scripted fault fired");
        drop(g);
        let (recovered, report) =
            rex_kb::KnowledgeBase::open(&dir.join("checkpoint.rexc"), &dir.join("delta.rexw"))
                .unwrap();
        assert_eq!(report.replayed_batches, 1, "only the intact batch replays");
        assert!(report.truncated_bytes > 0, "the torn tail was truncated: {report:?}");
        assert_eq!(recovered.node_count(), committed_nodes, "{report:?}");
    }
}
