//! Epoch-versioned snapshot serving — lock-free ranking reads during KB
//! maintenance.
//!
//! REX's interactive use case (§1: explanations computed "in real time"
//! for user-facing related-entity queries) means ranking traffic must
//! never stall behind knowledge-base maintenance. [`ServingState`] is the
//! serving-side session that makes that hold:
//!
//! * the session's read state — a [`KbSnapshot`] pin, the [`EdgeIndex`],
//!   and the [`SampleFrame`] — lives behind one `RwLock<Arc<…>>` slot;
//! * a reader calls [`ServingState::snapshot`], which clones the `Arc`
//!   under a read lock held for O(1), and then ranks entirely against
//!   that pinned [`Snapshot`] — no further synchronization, no lock held
//!   while ranking;
//! * maintenance ([`ServingState::maintain`]) builds the **next** epoch
//!   off to the side: a copy-on-write [`EdgeIndex::next_epoch`] (only
//!   delta-touched partitions are copied), the frame redraw policy, and
//!   [`DistributionCache::apply_delta`] (which itself publishes a new
//!   cache generation with an O(1) swap) — then **flips** the slot with a
//!   single `Arc` swap. Readers that pinned before the flip keep ranking
//!   against the old epoch; readers that pin after it observe the new
//!   epoch — in full, never a torn mix.
//!
//! The epoch attribution works because every piece a snapshot hands out
//! is immutable once published: the index is never edited in place after
//! publication, cache entries carry a fixed epoch and are refused (and
//! transparently recomputed *at the pinned epoch*) whenever they do not
//! match the snapshot's index, and the frame is a plain immutable sample.
//!
//! When the KB's mutation log has been compacted past the session's epoch
//! ([`DeltaSince::Compacted`]), `maintain` degrades gracefully: the index
//! is rebuilt from scratch, stale cache entries are purged wholesale
//! ([`DistributionCache::purge_older_than`]), and the next ranking pass
//! re-evaluates cold — correct, just not cheap, and reported via
//! [`MaintainOutcome::compaction_fallback`].
//!
//! Writers are serialized by an internal mutex that readers never touch,
//! so "single writer, many readers" is enforced rather than assumed.
//!
//! **Robustness.** Three degradation layers keep the session answering
//! under stress instead of stalling or crashing:
//!
//! * **Admission control** ([`ServingState::with_admission_control`]): a
//!   concurrent-request *row pool* sized in estimated intermediate rows.
//!   [`ServingState::try_serve`] prices each request with the index's
//!   exact per-start incident-row statistics
//!   ([`EdgeIndex::estimate_starts_rows`] — the same cost model the row-
//!   ceiling tiler packs tiles with) and sheds over-budget requests with
//!   the retryable [`CoreError::Overloaded`] before they touch the
//!   evaluation stack.
//! * **Budgeted reads** ([`Snapshot::rank_budgeted`]): a per-request
//!   [`Budget`] (deadline / cancellation / row cap) checked at every tile
//!   boundary; the workload degrades pair-by-pair, and aborted
//!   evaluations leave the cache untouched.
//! * **Panic quarantine** ([`ServingState::maintain`]): the delta branch
//!   runs under `catch_unwind`. A panic before the flip can never publish
//!   torn state (the flip is the only publication point); the target
//!   epoch is quarantined and the session recovers by scratch rebuild
//!   with bounded, backed-off retries — readers keep serving the last
//!   good epoch throughout. The [`fault`](crate::ranking::fault) plan
//!   injects exactly these failures deterministically for tests and
//!   benches.
//!
//! [`CoreError::Overloaded`]: crate::error::CoreError::Overloaded
//! [`Budget`]: rex_relstore::budget::Budget

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use rex_kb::{DeltaSince, KbSnapshot, KnowledgeBase, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{EdgeIndex, ShardSpec, ShardedEdgeIndex};

use crate::canonical::CanonicalKey;
use crate::error::{CoreError, Result};
use crate::explanation::Explanation;
use crate::measures::cache::{DeltaMaintenance, DistributionCache};
use crate::measures::frame::SampleFrame;
use crate::ranking::fault::{site, FaultPlan};
use crate::ranking::pairs::{
    rank_pairs_with, rank_pairs_with_budget, PairExplanations, RankPairsConfig, RankPairsOutcome,
};

/// The atomically published read state: everything a reader needs,
/// flipped together so a snapshot can never pair an old frame with a new
/// index.
#[derive(Debug)]
struct PinnedState {
    kb: KbSnapshot,
    index: Arc<ShardedEdgeIndex>,
    frame: Arc<SampleFrame>,
}

/// A reader's pin of one serving epoch: the [`KbSnapshot`], edge index,
/// and sample frame published together at that epoch, plus the shared
/// distribution cache (whose per-entry epoch guard keeps reads consistent
/// with the pinned index even while maintenance publishes newer
/// generations). Cheap to clone; hold it for the duration of one read
/// pass and every value observed belongs to [`Snapshot::epoch`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pinned: Arc<PinnedState>,
    cache: Arc<DistributionCache>,
}

impl Snapshot {
    /// The KB epoch this snapshot pins: every read through the snapshot
    /// reflects exactly this epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.pinned.kb.epoch()
    }

    /// The pinned KB snapshot (epoch + coarse counts).
    #[inline]
    pub fn kb(&self) -> KbSnapshot {
        self.pinned.kb
    }

    /// The pinned (sharded) edge index.
    #[inline]
    pub fn index(&self) -> &Arc<ShardedEdgeIndex> {
        &self.pinned.index
    }

    /// The pinned flat edge index — the sharded index's base, which
    /// always holds every partition in full. Flat callers (plan probes,
    /// cost estimation) read through this.
    #[inline]
    pub fn edge_index(&self) -> &Arc<EdgeIndex> {
        self.pinned.index.base()
    }

    /// The pinned sample frame.
    #[inline]
    pub fn frame(&self) -> &Arc<SampleFrame> {
        &self.pinned.frame
    }

    /// The shared distribution cache (epoch-guarded against this
    /// snapshot's index on every read).
    #[inline]
    pub fn cache(&self) -> &DistributionCache {
        &self.cache
    }

    /// Ranks a workload against the pinned epoch — the serving read path.
    /// Equivalent to [`rank_pairs_with`] over the snapshot's index,
    /// frame, and cache.
    pub fn rank(&self, pairs: &[PairExplanations<'_>], cfg: &RankPairsConfig) -> RankPairsOutcome {
        rank_pairs_with(pairs, cfg, &self.pinned.index, &self.pinned.frame, &self.cache)
    }

    /// [`Snapshot::rank`] under a [`Budget`]: the deadline, cancellation
    /// token, and row budget are checked at every tile boundary, the
    /// workload degrades pair-by-pair
    /// ([`RankPairsOutcome::shed`](crate::ranking::pairs::ShedPair)), and
    /// aborted evaluations leave the shared cache untouched.
    pub fn rank_budgeted(
        &self,
        pairs: &[PairExplanations<'_>],
        cfg: &RankPairsConfig,
        budget: &Budget,
    ) -> RankPairsOutcome {
        rank_pairs_with_budget(
            pairs,
            cfg,
            &self.pinned.index,
            &self.pinned.frame,
            &self.cache,
            budget,
        )
    }

    /// Sampled global position of one explanation over the pinned frame,
    /// skipping `exclude` (the pair's own start) at read time — the
    /// single-explanation hot read, pinned to this snapshot's epoch.
    pub fn global_position_excluding(&self, e: &Explanation, exclude: Option<NodeId>) -> usize {
        self.cache
            .global_position_excluding_sharded_budgeted(
                &self.pinned.index,
                e,
                self.pinned.frame.starts(),
                exclude,
                &Budget::unlimited(),
            )
            .expect("unlimited budget never aborts")
    }
}

/// The concurrent-request row pool behind
/// [`ServingState::with_admission_control`]: a fixed capacity of
/// *estimated intermediate rows*, drawn down by admitted requests and
/// released when their [`AdmissionPermit`] drops. Costs above the pool's
/// total capacity are clamped to it, so the heaviest request is always
/// admissible on an idle pool (it is shed only while other work holds
/// rows) — admission bounds *concurrency*, it never starves a request
/// outright.
#[derive(Debug)]
pub struct AdmissionController {
    capacity: usize,
    available: AtomicUsize,
    admitted: AtomicUsize,
    shed: AtomicUsize,
}

impl AdmissionController {
    /// A pool of `capacity` estimated rows. Zero is rejected loudly — a
    /// zero-capacity pool would shed every request forever, which is an
    /// outage configured as a knob.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "admission row pool must be positive: a zero-row pool sheds every request"
        );
        AdmissionController {
            capacity,
            available: AtomicUsize::new(capacity),
            admitted: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
        }
    }

    /// The pool's total capacity (estimated rows).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently available.
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Acquire)
    }

    /// `(admitted, shed)` request counters over the pool's lifetime.
    pub fn stats(&self) -> (usize, usize) {
        (self.admitted.load(Ordering::Relaxed), self.shed.load(Ordering::Relaxed))
    }

    /// Tries to draw `cost` rows (clamped to capacity, floored at 1) from
    /// the pool. `Err((needed, available))` means the request was shed;
    /// nothing was drawn and the caller should surface a retryable error.
    fn try_admit(&self, cost: usize) -> std::result::Result<usize, (usize, usize)> {
        let needed = cost.min(self.capacity).max(1);
        match self
            .available
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |avail| avail.checked_sub(needed))
        {
            Ok(_) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(needed)
            }
            Err(avail) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err((needed, avail))
            }
        }
    }

    fn release(&self, rows: usize) {
        self.available.fetch_add(rows, Ordering::AcqRel);
    }
}

/// RAII admission: the rows drawn by [`ServingState::admit`] return to
/// the pool when the permit drops — on success, on abort, and on panic
/// alike, so a crashed request can never leak capacity.
#[derive(Debug)]
#[must_use = "dropping the permit immediately releases the admitted rows"]
pub struct AdmissionPermit<'a> {
    controller: Option<&'a AdmissionController>,
    rows: usize,
}

impl AdmissionPermit<'_> {
    /// Rows this permit holds (0 on sessions without admission control).
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(controller) = self.controller {
            controller.release(self.rows);
        }
    }
}

/// What [`ServingState::maintain`] did to advance the session.
#[derive(Debug, Clone, Copy)]
pub struct MaintainOutcome {
    /// The epoch the session served before maintenance.
    pub from_epoch: u64,
    /// The epoch the session serves now.
    pub to_epoch: u64,
    /// Per-shape cache maintenance accounting (all zeros on the
    /// compaction fallback, where the cache is purged instead).
    pub maintenance: DeltaMaintenance,
    /// Whether the redraw policy replaced the sample frame.
    pub frame_redrawn: bool,
    /// Edge churn applied to the index (0 on the compaction fallback).
    pub index_churn: usize,
    /// Whether the KB's log was compacted past the session's epoch, so
    /// the session fell back to a full rebuild + cache purge instead of
    /// incremental maintenance.
    pub compaction_fallback: bool,
    /// Cache entries purged by the compaction fallback.
    pub purged_entries: usize,
    /// Whether incremental maintenance panicked mid-pass and the session
    /// recovered by quarantining the target epoch and rebuilding from
    /// scratch. Readers never observed the abandoned epoch — the panic
    /// necessarily happened before the flip.
    pub recovered_from_panic: bool,
    /// Scratch-rebuild attempts that panicked before one succeeded (0
    /// when the first attempt went through).
    pub rebuild_retries: usize,
    /// Index shards rebuilt by this pass. On the incremental path only
    /// shards owning a delta-touched start are rebuilt (the rest share
    /// their `Arc` with the previous epoch, copy-on-write); scratch
    /// rebuilds count every shard.
    pub shards_rebuilt: usize,
}

/// The shared serving session: one epoch-versioned `(kb, index, frame)`
/// publication slot plus the shared [`DistributionCache`]. Readers pin
/// [`Snapshot`]s; a single logical writer advances epochs with
/// [`ServingState::maintain`]. See the module docs for the flip
/// semantics.
#[derive(Debug)]
pub struct ServingState {
    current: RwLock<Arc<PinnedState>>,
    cache: Arc<DistributionCache>,
    /// Serializes writers; readers never touch it.
    writer: Mutex<()>,
    /// Optional concurrent-request row pool; `None` admits everything.
    admission: Option<AdmissionController>,
    /// Optional scripted fault injection; `None` fires nothing.
    faults: Option<FaultPlan>,
    /// Epochs abandoned because incremental maintenance panicked before
    /// the flip (each is followed by a recovery rebuild or a
    /// [`CoreError::MaintenanceFailed`]).
    quarantined_epochs: AtomicUsize,
    /// Scratch rebuilds that successfully recovered a quarantined epoch.
    recovery_rebuilds: AtomicUsize,
}

impl ServingState {
    /// Builds a serving session at `kb`'s current epoch, deriving the
    /// frame and cache from `cfg` (`global_samples`, `seed`,
    /// `row_ceiling`).
    pub fn build(kb: &KnowledgeBase, cfg: &RankPairsConfig) -> Result<ServingState> {
        let cache = match cfg.row_ceiling {
            Some(ceiling) => DistributionCache::with_row_ceiling(ceiling),
            None => DistributionCache::new(),
        };
        Self::build_with_cache(kb, cfg, cache)
    }

    /// [`ServingState::build`] with a caller-constructed cache (e.g. a
    /// custom rebatch fraction). The cache's row ceiling must agree with
    /// `cfg.row_ceiling` — the same contract [`rank_pairs_with`]
    /// enforces.
    pub fn build_with_cache(
        kb: &KnowledgeBase,
        cfg: &RankPairsConfig,
        cache: DistributionCache,
    ) -> Result<ServingState> {
        assert_eq!(
            cache.row_ceiling(),
            cfg.row_ceiling,
            "ServingState: the cache's row ceiling disagrees with cfg.row_ceiling"
        );
        let frame = Arc::new(SampleFrame::sample(kb, cfg.global_samples, cfg.seed)?);
        let index = Arc::new(ShardedEdgeIndex::build(kb, ShardSpec::new(cfg.shards, cfg.seed)));
        Ok(ServingState {
            current: RwLock::new(Arc::new(PinnedState { kb: kb.snapshot(), index, frame })),
            cache: Arc::new(cache),
            writer: Mutex::new(()),
            admission: None,
            faults: None,
            quarantined_epochs: AtomicUsize::new(0),
            recovery_rebuilds: AtomicUsize::new(0),
        })
    }

    /// [`ServingState::build`] around an index built elsewhere — the warm
    /// start for an on-disk snapshot loaded via
    /// [`ShardedEdgeIndex::load`](rex_relstore::engine::ShardedEdgeIndex).
    /// The loaded index must already sit at `kb`'s current epoch;
    /// otherwise the caller should fall back to a cold
    /// [`ServingState::build`].
    pub fn build_with_index(
        kb: &KnowledgeBase,
        cfg: &RankPairsConfig,
        index: ShardedEdgeIndex,
    ) -> Result<ServingState> {
        if index.epoch() != kb.epoch() {
            return Err(CoreError::Durability(format!(
                "index snapshot is at epoch {} but the KB is at epoch {}; rebuild instead",
                index.epoch(),
                kb.epoch()
            )));
        }
        let cache = match cfg.row_ceiling {
            Some(ceiling) => DistributionCache::with_row_ceiling(ceiling),
            None => DistributionCache::new(),
        };
        let frame = Arc::new(SampleFrame::sample(kb, cfg.global_samples, cfg.seed)?);
        Ok(ServingState {
            current: RwLock::new(Arc::new(PinnedState {
                kb: kb.snapshot(),
                index: Arc::new(index),
                frame,
            })),
            cache: Arc::new(cache),
            writer: Mutex::new(()),
            admission: None,
            faults: None,
            quarantined_epochs: AtomicUsize::new(0),
            recovery_rebuilds: AtomicUsize::new(0),
        })
    }

    /// Adds an admission controller with a `row_pool`-row concurrent
    /// budget: [`ServingState::try_serve`] prices each request in
    /// estimated intermediate rows and sheds (retryable
    /// [`CoreError::Overloaded`]) whatever the pool cannot hold. Zero is
    /// rejected loudly (see [`AdmissionController::new`]). Chainable at
    /// construction.
    pub fn with_admission_control(mut self, row_pool: usize) -> Self {
        self.admission = Some(AdmissionController::new(row_pool));
        self
    }

    /// Attaches a scripted [`FaultPlan`]; the named sites in maintenance
    /// and serving consume it deterministically. Chainable at
    /// construction; test/bench only by convention (production sessions
    /// simply never attach one).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The admission controller, when one was configured.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Epochs quarantined after a mid-maintenance panic.
    pub fn quarantined_epochs(&self) -> usize {
        self.quarantined_epochs.load(Ordering::Relaxed)
    }

    /// Scratch rebuilds that recovered a quarantined epoch.
    pub fn recovery_rebuilds(&self) -> usize {
        self.recovery_rebuilds.load(Ordering::Relaxed)
    }

    /// Fires the fault plan at `site` (no-op without a plan). Returns
    /// whether a `ForceCompaction` was scripted there.
    fn fire(&self, site: &'static str) -> bool {
        self.faults.as_ref().is_some_and(|plan| plan.fire(site))
    }

    /// Prices a request in estimated intermediate rows: per distinct
    /// shape, the index's exact per-start incident-row estimate over the
    /// serving frame ([`EdgeIndex::estimate_starts_rows`] — the same
    /// statistics the row-ceiling tiler packs tiles with), summed.
    /// Floored at 1 so even a trivial request draws *something* from the
    /// pool and concurrency stays bounded.
    pub fn estimate_request_rows(&self, pairs: &[PairExplanations<'_>]) -> usize {
        let snapshot = self.snapshot();
        let starts: Vec<u64> = snapshot.frame().starts().iter().map(|s| s.0 as u64).collect();
        let mut shapes: std::collections::HashMap<&CanonicalKey, &Explanation> =
            std::collections::HashMap::new();
        for pair in pairs {
            for e in pair.explanations {
                shapes.entry(e.key()).or_insert(e);
            }
        }
        shapes
            .into_values()
            .map(|e| snapshot.edge_index().estimate_starts_rows(&e.pattern.to_spec(), &starts))
            .fold(0usize, |acc, rows| acc.saturating_add(rows))
            .max(1)
    }

    /// Draws `cost` rows from the admission pool, returning the RAII
    /// permit that releases them on drop — or the retryable
    /// [`CoreError::Overloaded`] when the pool cannot hold the request.
    /// Sessions without admission control admit everything (zero-row
    /// permit).
    pub fn admit(&self, cost: usize) -> Result<AdmissionPermit<'_>> {
        match &self.admission {
            None => Ok(AdmissionPermit { controller: None, rows: 0 }),
            Some(controller) => match controller.try_admit(cost) {
                Ok(rows) => Ok(AdmissionPermit { controller: Some(controller), rows }),
                Err((needed, available)) => Err(CoreError::Overloaded { needed, available }),
            },
        }
    }

    /// The full admission-controlled, budgeted serving read: price the
    /// request, admit or shed it, then rank under `budget` against a
    /// pinned snapshot. A session without admission control admits
    /// everything, so it skips the pricing walk over every shape's
    /// postings. Shed requests ([`CoreError::Overloaded`],
    /// [`CoreError::is_retryable`]) never touched the evaluation stack —
    /// retrying after backoff is safe and expected. The admitted rows are
    /// held for exactly the duration of the ranking pass.
    pub fn try_serve(
        &self,
        pairs: &[PairExplanations<'_>],
        cfg: &RankPairsConfig,
        budget: &Budget,
    ) -> Result<RankPairsOutcome> {
        self.fire(site::SERVE_ADMIT);
        let cost = if self.admission.is_some() { self.estimate_request_rows(pairs) } else { 0 };
        let _permit = self.admit(cost)?;
        self.fire(site::SERVE_EVAL);
        Ok(self.snapshot().rank_budgeted(pairs, cfg, budget))
    }

    /// Pins the current epoch for a read pass: an O(1) `Arc` clone under
    /// a read lock released before this returns.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { pinned: Arc::clone(&self.current.read()), cache: Arc::clone(&self.cache) }
    }

    /// The epoch the session currently serves.
    pub fn epoch(&self) -> u64 {
        self.current.read().kb.epoch()
    }

    /// The shared distribution cache (for counter inspection).
    pub fn cache(&self) -> &DistributionCache {
        &self.cache
    }

    /// Advances the session to `kb`'s current epoch. The next epoch's
    /// index, frame, and cache entries are built **off to the side**
    /// while readers keep pinning and ranking against the current one;
    /// publication is a single O(1) `Arc` swap (the *flip*), after which
    /// new snapshots observe the new epoch and old snapshots keep serving
    /// theirs. Falls back to a full rebuild + cache purge when the KB's
    /// log was compacted past the session's epoch. A no-op when already
    /// current.
    pub fn maintain(&self, kb: &KnowledgeBase) -> Result<MaintainOutcome> {
        let _writer = self.writer.lock();
        let pinned = Arc::clone(&self.current.read());
        let from_epoch = pinned.kb.epoch();
        let mut outcome = MaintainOutcome {
            from_epoch,
            to_epoch: kb.epoch(),
            maintenance: DeltaMaintenance::default(),
            frame_redrawn: false,
            index_churn: 0,
            compaction_fallback: false,
            purged_entries: 0,
            recovered_from_panic: false,
            rebuild_retries: 0,
            shards_rebuilt: 0,
        };
        if kb.epoch() == from_epoch {
            return Ok(outcome);
        }
        let force_compacted = self.fire(site::MAINTAIN_DELTA_SOURCE);
        match kb.delta_since(from_epoch) {
            DeltaSince::Delta(delta) if !force_compacted => {
                // The whole delta branch runs under catch_unwind: the
                // flip below is the ONLY publication point, so a panic
                // anywhere before it — index COW, frame refresh, cache
                // maintenance, an injected fault — abandons next-epoch
                // state that no reader ever saw. (apply_delta publishes
                // cache generations internally, but entries carry their
                // epoch and are refused by readers pinned to the old
                // index, so even a post-apply_delta panic leaves reads
                // consistent.)
                let attempt = catch_unwind(AssertUnwindSafe(
                    || -> Result<(DeltaMaintenance, bool, usize, Arc<PinnedState>)> {
                        // Build the next epoch off to the side: COW index
                        // (only shards owning a delta-touched start are
                        // rebuilt; the rest share their Arc), frame
                        // redraw policy.
                        let next_index = Arc::new(pinned.index.next_epoch(&delta)?);
                        let shards_rebuilt = next_index.shards_rebuilt_from(&pinned.index);
                        let (next_frame, frame_redrawn) = pinned.frame.refresh(kb)?;
                        self.fire(site::MAINTAIN_APPLY_DELTA);
                        // Maintain the cache BEFORE the flip: while
                        // apply_delta builds the next generation (the
                        // expensive part of the pass), readers still pin
                        // the old index and keep warm-hitting the old
                        // generation — reader throughput stays flat for
                        // the whole maintenance window. Readers are never
                        // blocked either way (no lock is held across any
                        // evaluation); the cold window is only the
                        // instants between the generation swap and the
                        // flip below, and a reader caught there
                        // recomputes *privately* at its pinned epoch (the
                        // install path never lets an old-epoch result
                        // clobber a maintained entry).
                        let maintenance = self.cache.apply_delta_sharded(kb, &next_index, &delta);
                        self.fire(site::MAINTAIN_BEFORE_FLIP);
                        let next = Arc::new(PinnedState {
                            kb: kb.snapshot(),
                            index: next_index,
                            frame: Arc::new(next_frame),
                        });
                        Ok((maintenance, frame_redrawn, shards_rebuilt, next))
                    },
                ));
                match attempt {
                    Ok(Ok((maintenance, frame_redrawn, shards_rebuilt, next))) => {
                        // The flip: one swap publishes kb/index/frame
                        // together.
                        *self.current.write() = next;
                        outcome.maintenance = maintenance;
                        outcome.frame_redrawn = frame_redrawn;
                        outcome.index_churn = delta.edge_churn();
                        outcome.shards_rebuilt = shards_rebuilt;
                    }
                    Ok(Err(err)) => return Err(err),
                    Err(_panic) => {
                        // Quarantine: the target epoch is abandoned
                        // (readers still serve from_epoch — nothing was
                        // flipped) and the session recovers by scratch
                        // rebuild. The purge afterwards drops every cache
                        // entry the interrupted pass may have left behind
                        // at older epochs; entries apply_delta completed
                        // at the target epoch are exact (scratch parity)
                        // and keep serving.
                        self.quarantined_epochs.fetch_add(1, Ordering::Relaxed);
                        let (retries, frame_redrawn) = self.rebuild_with_retry(kb, &pinned)?;
                        self.recovery_rebuilds.fetch_add(1, Ordering::Relaxed);
                        outcome.purged_entries = self.cache.purge_older_than(kb.epoch());
                        outcome.recovered_from_panic = true;
                        outcome.rebuild_retries = retries;
                        outcome.frame_redrawn = frame_redrawn;
                        outcome.shards_rebuilt = pinned.index.shard_count();
                    }
                }
            }
            _ => {
                // Graceful degradation: no faithful delta exists (or an
                // injected fault forced this branch), so rebuild the
                // index from scratch — with the same bounded retry the
                // panic path uses — and purge unpatched cache entries.
                let (retries, frame_redrawn) = self.rebuild_with_retry(kb, &pinned)?;
                outcome.purged_entries = self.cache.purge_older_than(kb.epoch());
                outcome.frame_redrawn = frame_redrawn;
                outcome.compaction_fallback = true;
                outcome.rebuild_retries = retries;
                outcome.shards_rebuilt = pinned.index.shard_count();
            }
        }
        Ok(outcome)
    }

    /// Scratch-rebuilds `(index, frame)` at `kb`'s epoch and flips it in,
    /// retrying a panicking rebuild up to [`REBUILD_ATTEMPTS`] times with
    /// doubling backoff. Returns `(panicked_attempts, frame_redrawn)` on
    /// success; [`CoreError::MaintenanceFailed`] when every attempt
    /// panicked (the session then keeps serving its last good epoch).
    /// Plain `Err`s from sampling propagate immediately — they are
    /// deterministic, not transient.
    fn rebuild_with_retry(
        &self,
        kb: &KnowledgeBase,
        pinned: &PinnedState,
    ) -> Result<(usize, bool)> {
        let mut last_panic = String::new();
        for attempt in 0..REBUILD_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(1 << attempt));
            }
            let result = catch_unwind(AssertUnwindSafe(|| -> Result<(Arc<PinnedState>, bool)> {
                self.fire(site::MAINTAIN_REBUILD_ATTEMPT);
                let next_index = Arc::new(ShardedEdgeIndex::build(kb, pinned.index.spec()));
                let (next_frame, frame_redrawn) = pinned.frame.refresh(kb)?;
                let next = Arc::new(PinnedState {
                    kb: kb.snapshot(),
                    index: next_index,
                    frame: Arc::new(next_frame),
                });
                Ok((next, frame_redrawn))
            }));
            match result {
                Ok(Ok((next, frame_redrawn))) => {
                    *self.current.write() = next;
                    return Ok((attempt, frame_redrawn));
                }
                Ok(Err(err)) => return Err(err),
                Err(payload) => last_panic = panic_message(&payload),
            }
        }
        Err(CoreError::MaintenanceFailed(format!(
            "scratch rebuild panicked through {REBUILD_ATTEMPTS} attempts \
             (last panic: {last_panic}); still serving epoch {}",
            self.epoch()
        )))
    }
}

/// Bounded retries for a panicking scratch rebuild, with `1ms << attempt`
/// backoff between attempts.
const REBUILD_ATTEMPTS: usize = 3;

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::EnumConfig;

    fn toy_session() -> (rex_kb::KnowledgeBase, Vec<Explanation>, RankPairsConfig) {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let explanations =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let cfg = RankPairsConfig {
            k: 5,
            global_samples: 10,
            seed: 3,
            threads: 1,
            row_ceiling: None,
            shards: 2,
        };
        (kb, explanations.explanations, cfg)
    }

    /// Snapshots pin the epoch they were taken at: a snapshot taken
    /// before maintenance keeps serving the old epoch (same values),
    /// while post-flip snapshots observe the new one.
    #[test]
    fn snapshots_pin_their_epoch_across_a_flip() {
        let (mut kb, explanations, cfg) = toy_session();
        let state = ServingState::build(&kb, &cfg).unwrap();
        let old = state.snapshot();
        assert_eq!(old.epoch(), 0);
        let before: Vec<usize> =
            explanations.iter().map(|e| old.global_position_excluding(e, None)).collect();

        // Mutate along a hot label and flip.
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let m = state.maintain(&kb).unwrap();
        assert_eq!(m.from_epoch, 0);
        assert_eq!(m.to_epoch, kb.epoch());
        assert!(!m.compaction_fallback);
        assert_eq!(m.index_churn, 1);
        // One edge touches at most two shards (and at least one).
        assert!(
            (1..=2).contains(&m.shards_rebuilt),
            "expected 1..=2 shards rebuilt, got {}",
            m.shards_rebuilt
        );

        // The old snapshot still answers at its pinned epoch.
        assert_eq!(old.epoch(), 0);
        let after_flip: Vec<usize> =
            explanations.iter().map(|e| old.global_position_excluding(e, None)).collect();
        assert_eq!(before, after_flip, "pinned snapshot must not observe the flip");

        // A new snapshot observes the new epoch and matches a cold build.
        let new = state.snapshot();
        assert_eq!(new.epoch(), kb.epoch());
        let cold = ServingState::build(&kb, &cfg).unwrap();
        let cold_snap = cold.snapshot();
        for e in &explanations {
            assert_eq!(
                new.global_position_excluding(e, None),
                cold_snap.global_position_excluding(e, None),
                "{}",
                e.describe(&kb)
            );
        }
    }

    /// maintain() is a no-op at the current epoch, and the compaction
    /// fallback rebuilds + purges instead of erroring.
    #[test]
    fn maintain_noop_and_compaction_fallback() {
        let (mut kb, explanations, cfg) = toy_session();
        let state = ServingState::build(&kb, &cfg).unwrap();
        // Warm the cache so the purge has something to drop.
        let snap = state.snapshot();
        for e in &explanations {
            snap.global_position_excluding(e, None);
        }
        let noop = state.maintain(&kb).unwrap();
        assert_eq!(noop.from_epoch, noop.to_epoch);
        assert!(!noop.compaction_fallback);

        // Churn + compact the whole log: the session cannot diff.
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let e1 = kb.insert_edge(jr, fc, starring, true).unwrap();
        kb.remove_edge(e1).unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        kb.compact_log(kb.epoch());
        assert!(kb.delta_since(state.epoch()).is_compacted());

        let m = state.maintain(&kb).unwrap();
        assert!(m.compaction_fallback);
        assert!(m.purged_entries > 0, "warmed entries must be purged");
        assert_eq!(state.epoch(), kb.epoch());
        // Post-fallback reads re-evaluate cold and equal a fresh build.
        let snap = state.snapshot();
        let cold = ServingState::build(&kb, &cfg).unwrap();
        let cold_snap = cold.snapshot();
        for e in &explanations {
            assert_eq!(
                snap.global_position_excluding(e, None),
                cold_snap.global_position_excluding(e, None),
                "{}",
                e.describe(&kb)
            );
        }
    }

    /// The serving rank path equals the plain shared-frame driver.
    #[test]
    fn snapshot_rank_matches_rank_pairs() {
        let (kb, explanations, cfg) = toy_session();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let tasks = [PairExplanations { start: a, end: b, explanations: &explanations }];
        let state = ServingState::build(&kb, &cfg).unwrap();
        let served = state.snapshot().rank(&tasks, &cfg);
        let plain = crate::ranking::rank_pairs(&kb, &tasks, &cfg).unwrap();
        for (s, p) in served.rankings.iter().zip(&plain.rankings) {
            let sv: Vec<(usize, f64)> = s.iter().map(|r| (r.index, r.score)).collect();
            let pv: Vec<(usize, f64)> = p.iter().map(|r| (r.index, r.score)).collect();
            assert_eq!(sv, pv);
        }
    }
}
