//! Shared distribution cache — the "amortizing the computation over
//! different pairs by sharing the computation involved" optimization the
//! paper sketches in §5.3.2, taken to its batched conclusion.
//!
//! The expensive ingredient of every distribution measure is the *local
//! count multiset* of a pattern for a start entity. That multiset depends
//! only on the pattern **up to isomorphism** and the start entity — not on
//! the end entity, not on the aggregate value being positioned — and the
//! global-position estimate needs it for ~100 sampled starts per pattern.
//!
//! The cache is therefore keyed **per canonical pattern shape** and holds
//! an [`AllStartsDistribution`]: one `Arc`'d map from start entity to its
//! descending count multiset, produced by a *single* batched relational
//! evaluation ([`rex_relstore::engine::count_distributions`]) whose start
//! variable ranges over the whole requested sample at once. Any position
//! query against a cached shape is then a hash lookup plus a binary
//! search — the asymptotics drop from ~`starts` full evaluations per
//! shape to 1.
//!
//! Every method takes a [`ShardedEdgeIndex`]: a cold shape's batch fans
//! out across the index's shards, and the flat index is simply the
//! 1-shard case ([`ShardSpec::single`]). Warm reads never care how many
//! shards computed a batch. A read ([`DistributionCache::all_starts`])
//! reports whether *it* evaluated ([`BatchRead`]), so a request can
//! account its own evaluations apart from concurrent readers and
//! maintenance that share the cache.
//!
//! [`ShardSpec::single`]: rex_relstore::engine::ShardSpec::single
//!
//! A secondary per-`(shape, start)` overlay serves single-start queries
//! (local distributions, starts outside a cached batch's domain) with the
//! cheap bound per-start probe, so a purely local workload never pays for
//! a batched evaluation it does not need.
//!
//! **KB updates.** Every cached batch carries the KB *epoch* it was
//! computed at; a read against an index at a newer epoch treats the entry
//! as stale and re-evaluates (the refuse/refresh guarantee). The cheap
//! path is [`DistributionCache::apply_delta`]: given the [`KbDelta`]
//! between the cache's epoch and the KB's, each cached shape is either
//! **untouched** (label set disjoint from the delta — re-published at the
//! new epoch sharing the same multisets), **patched** (the delta-affected
//! starts inside its domain are re-grouped with a partial evaluation and
//! overlaid onto the old multisets), or **rebatched** (the affected
//! fraction exceeded the configurable threshold, so the whole domain is
//! re-evaluated). Either way, the next read is a warm hit.
//!
//! **Snapshot-keyed publication.** The batched map is an immutable
//! *generation* behind `RwLock<Arc<…>>`: readers pin the current
//! generation with one O(1) `Arc` clone, every cached entry is immutable
//! once published, and maintenance builds the **next** generation
//! entirely off to the side — the write lock is held only for the final
//! pointer swap (plus an O(shapes) merge of entries installed by
//! concurrent readers), never across an evaluation. Combined with the
//! per-entry epoch guard, a reader that pinned an index at epoch
//! `E` either hits entries computed at `E` or recomputes at `E` — it can
//! never observe a torn mix of epochs, and it never waits on an in-flight
//! [`DistributionCache::apply_delta`] pass.
//!
//! Thread-safe (`parking_lot::RwLock`, O(1) critical sections on the hot
//! read path) so the parallel ranker can share it; hit/miss counters make
//! the sharing observable in tests and benches.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rex_kb::{KbDelta, KnowledgeBase, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{
    count_distributions, delta_affected_starts, EvalKind, EvalRequest, ShardedEdgeIndex,
};
use rex_relstore::plan::PatternSpec;

use crate::canonical::CanonicalKey;
use crate::explanation::Explanation;
use crate::measures::distribution::position_in;

/// The batched all-starts distribution of one canonical pattern shape:
/// for every start entity in `domain`, the descending multiset of per-end
/// instance counts. Starts in the domain without instances simply have no
/// entry (empty distribution, position always 0).
///
/// **Immutable once published**: the epoch is fixed at construction and
/// the multisets never change, so a reader holding the `Arc` can trust
/// every field for as long as it likes — maintenance publishes *new*
/// entries (sharing the `Arc`'d counts and domain when untouched) instead
/// of editing live ones.
#[derive(Debug)]
pub struct AllStartsDistribution {
    counts: Arc<HashMap<u64, Arc<Vec<u64>>>>,
    domain: Arc<HashSet<u64>>,
    tiles: usize,
    peak_rows: usize,
    est_peak_rows: usize,
    overflow_tiles: usize,
    /// The KB epoch the multisets reflect (fixed at publication).
    epoch: u64,
    /// The shape's relational spec, retained so delta maintenance can
    /// re-evaluate without the originating [`Explanation`].
    spec: PatternSpec,
}

impl AllStartsDistribution {
    /// The KB epoch this batch reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Start tiles the batched evaluation was split into (1 when the
    /// domain fit under the row ceiling, or no ceiling was set).
    pub fn eval_tiles(&self) -> usize {
        self.tiles
    }

    /// Largest intermediate relation (rows) the evaluation materialized —
    /// carried on the batch so consumers can attribute peaks to the
    /// shapes they actually use, independent of cache lifetime.
    pub fn peak_rows(&self) -> usize {
        self.peak_rows
    }

    /// Largest **estimated** input rows of any tile — the quantity a row
    /// ceiling actually bounds (see [`EvalTrace::est_peak_rows`]).
    /// The measured [`peak_rows`](Self::peak_rows) may legally exceed the
    /// ceiling on estimate error or singleton hub tiles.
    ///
    /// [`EvalTrace::est_peak_rows`]: rex_relstore::metrics::EvalTrace::est_peak_rows
    pub fn est_peak_rows(&self) -> usize {
        self.est_peak_rows
    }

    /// Tiles whose estimated rows exceeded the requested ceiling —
    /// necessarily singleton hub starts no split could shrink.
    pub fn overflow_tiles(&self) -> usize {
        self.overflow_tiles
    }

    /// Whether `start` was covered by the batched evaluation (queries
    /// outside the domain must fall back to a per-start probe).
    pub fn covers(&self, start: u64) -> bool {
        self.domain.contains(&start)
    }

    /// The descending count multiset of `start`, `None` when `start` is
    /// outside the evaluated domain.
    pub fn counts_for(&self, start: u64) -> Option<Arc<Vec<u64>>> {
        if !self.covers(start) {
            return None;
        }
        Some(self.counts.get(&start).cloned().unwrap_or_default())
    }

    /// Position of aggregate value `a` in `start`'s distribution, `None`
    /// when `start` is outside the evaluated domain.
    pub fn position(&self, start: u64, a: u64) -> Option<usize> {
        if !self.covers(start) {
            return None;
        }
        Some(self.counts.get(&start).map_or(0, |c| position_in(c, a)))
    }

    /// Sampled global position of aggregate value `a`: the sum of its
    /// positions over `starts`, skipping `exclude` (the pair's own start)
    /// at read time. Panics when a start is outside the evaluated domain.
    pub fn position_sum(&self, starts: &[NodeId], exclude: Option<NodeId>, a: u64) -> usize {
        starts
            .iter()
            .filter(|&&s| Some(s) != exclude)
            .map(|s| self.position(s.0 as u64, a).expect("batch covers requested starts"))
            .sum()
    }

    /// Number of starts covered by the evaluation.
    pub fn domain_len(&self) -> usize {
        self.domain.len()
    }

    /// Number of covered starts with at least one instance.
    pub fn nonempty_starts(&self) -> usize {
        self.counts.len()
    }
}

/// The per-`(shape, start)` overlay's key.
type PerStartKey = (CanonicalKey, u32);

/// The per-`(shape, start)` overlay's value: the KB epoch it was probed
/// at (stale entries are recomputed on read), the multiset, and the
/// shape's sorted distinct label set — retained so
/// [`DistributionCache::apply_delta`] can keep label-disjoint overlays
/// alive across a delta instead of discarding them.
type PerStartEntry = (u64, Arc<Vec<u64>>, Arc<[u64]>);

/// One published generation of the batched map: immutable once behind the
/// `Arc`, replaced wholesale by an O(1) pointer swap.
type BatchedGeneration = HashMap<CanonicalKey, Arc<AllStartsDistribution>>;

/// The sorted distinct labels of a spec (the overlay's disjointness key).
fn spec_labels(spec: &PatternSpec) -> Arc<[u64]> {
    let mut labels: Vec<u64> = spec.edges.iter().map(|e| e.label).collect();
    labels.sort_unstable();
    labels.dedup();
    labels.into()
}

/// One read of a shape's batch through [`DistributionCache::all_starts`]:
/// the batch, plus what this call itself evaluated to produce it — so a
/// request accounts only its own evaluations, never a concurrent
/// reader's miss or a maintenance rebatch that shares the cache.
#[derive(Debug)]
pub struct BatchRead {
    /// The batch covering the requested starts.
    pub batch: Arc<AllStartsDistribution>,
    /// Start tiles this call evaluated; `None` when a published batch
    /// served the read.
    pub evaluated_tiles: Option<usize>,
}

/// What [`DistributionCache::apply_delta`] did to each cached shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaMaintenance {
    /// Shapes whose affected starts were re-grouped with a partial
    /// evaluation and overlaid onto the cached multisets.
    pub patched: usize,
    /// Shapes fully re-evaluated because the delta's blast radius
    /// exceeded the rebatch fraction of their domain.
    pub rebatched: usize,
    /// Shapes untouched by the delta (label-disjoint, or no affected
    /// start inside the domain): republished at the new epoch with the
    /// multisets shared, not recomputed.
    pub untouched: usize,
    /// Shapes dropped because their epoch did not match the delta's
    /// window (skewed bookkeeping); the next read re-evaluates them.
    pub dropped: usize,
    /// Total affected starts re-grouped across all patched shapes.
    pub affected_starts: usize,
}

/// Thread-safe cache of distribution multisets, keyed per canonical
/// pattern shape (batched) with a per-`(shape, start)` fallback overlay.
/// Epoch-aware: see the module docs for the staleness and
/// delta-maintenance contract.
#[derive(Debug)]
pub struct DistributionCache {
    /// The published batched generation. Readers pin it with one O(1)
    /// `Arc` clone; writers (miss installs, delta maintenance) build a
    /// new map off to the side and swap the pointer.
    batched: RwLock<Arc<BatchedGeneration>>,
    per_start: RwLock<HashMap<PerStartKey, PerStartEntry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    batched_evals: AtomicUsize,
    /// Best-effort ceiling on join-produced intermediate rows per batched
    /// evaluation; `None` evaluates each batch as a single tile.
    row_ceiling: Option<usize>,
    /// When a delta affects more than this fraction of a cached domain,
    /// patching degrades to a full re-batch of the shape.
    rebatch_fraction: f64,
    tiles: AtomicUsize,
    peak_rows: AtomicUsize,
    delta_evals: AtomicUsize,
    /// Highest KB epoch observed through any index handed to this cache.
    epoch: AtomicU64,
}

/// The default share of a domain a delta may touch before patching a
/// shape costs more than re-batching it.
const DEFAULT_REBATCH_FRACTION: f64 = 0.25;

impl Default for DistributionCache {
    fn default() -> Self {
        DistributionCache {
            batched: RwLock::default(),
            per_start: RwLock::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            batched_evals: AtomicUsize::new(0),
            row_ceiling: None,
            rebatch_fraction: DEFAULT_REBATCH_FRACTION,
            tiles: AtomicUsize::new(0),
            peak_rows: AtomicUsize::new(0),
            delta_evals: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }
}

impl DistributionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose batched evaluations are tiled so
    /// join-produced intermediate rows stay (best-effort) under
    /// `max_rows` — the memory-bounded evaluation mode of the shared
    /// workload driver. Tiles are packed per shape from the **exact**
    /// per-start incident-row counts of the edge index's endpoint
    /// postings
    /// ([`EdgeIndex::tile_starts_for_ceiling`](rex_relstore::engine::EdgeIndex::tile_starts_for_ceiling)).
    pub fn with_row_ceiling(max_rows: usize) -> Self {
        DistributionCache { row_ceiling: Some(max_rows), ..Default::default() }
    }

    /// The configured intermediate-row ceiling, if any.
    pub fn row_ceiling(&self) -> Option<usize> {
        self.row_ceiling
    }

    /// Overrides the delta-maintenance rebatch threshold: when a delta
    /// affects more than `fraction` of a cached shape's domain,
    /// [`DistributionCache::apply_delta`] re-evaluates the whole shape
    /// instead of patching. Accepted range: any **finite** value `>= 0.0`
    /// — `0.0` always rebatches touched shapes, `1.0` (or more) always
    /// patches. `NaN` and infinities are rejected loudly (a `NaN` would
    /// silently disable every threshold comparison downstream), as are
    /// negative values. Chainable at construction.
    pub fn with_rebatch_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite(),
            "rebatch fraction must be a finite value >= 0.0 \
             (0.0 always rebatches, >= 1.0 always patches); got {fraction}"
        );
        assert!(
            fraction >= 0.0,
            "rebatch fraction must be non-negative \
             (0.0 always rebatches, >= 1.0 always patches); got {fraction}"
        );
        self.rebatch_fraction = fraction;
        self
    }

    /// The delta-maintenance rebatch threshold.
    pub fn rebatch_fraction(&self) -> f64 {
        self.rebatch_fraction
    }

    /// The highest KB epoch this cache has observed (through indexes or
    /// deltas). Entries computed at older epochs are stale: reads refresh
    /// them, [`DistributionCache::apply_delta`] patches them.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Partial (delta-maintenance) evaluations performed by
    /// [`DistributionCache::apply_delta`], as the engine's returned
    /// traces count them.
    pub fn delta_evals(&self) -> usize {
        self.delta_evals.load(Ordering::Relaxed)
    }

    fn note_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// `(tiles, peak_rows)` across this cache's batched evaluations: how
    /// many start tiles were evaluated, and the largest intermediate
    /// relation any of them materialized.
    pub fn tiling_stats(&self) -> (usize, usize) {
        (self.tiles.load(Ordering::Relaxed), self.peak_rows.load(Ordering::Relaxed))
    }

    /// Evaluates `spec` over `domain` (tiled under the row ceiling) and
    /// wraps the result as a batch at the index's epoch, updating the
    /// tiling counters. The engine checks `budget` at every tile
    /// boundary, and on abort this returns the typed error **without
    /// touching a single counter** — the abort-leaves-no-trace half of
    /// the robustness contract.
    fn eval_batch(
        &self,
        index: &ShardedEdgeIndex,
        spec: PatternSpec,
        domain: HashSet<u64>,
        budget: &Budget,
    ) -> rex_relstore::Result<Arc<AllStartsDistribution>> {
        let list: Vec<u64> = domain.iter().copied().collect();
        let req = EvalRequest {
            starts: &list,
            row_ceiling: self.row_ceiling,
            kind: EvalKind::Full,
            budget: budget.clone(),
        };
        let batch = count_distributions(index, &spec, &req)?;
        let trace = batch.trace;
        self.tiles.fetch_add(trace.tiles, Ordering::Relaxed);
        self.peak_rows.fetch_max(trace.peak_rows, Ordering::Relaxed);
        Ok(Arc::new(AllStartsDistribution {
            counts: Arc::new(batch.per_start.into_iter().map(|(s, v)| (s, Arc::new(v))).collect()),
            domain: Arc::new(domain),
            tiles: trace.tiles,
            peak_rows: trace.peak_rows,
            est_peak_rows: trace.est_peak_rows,
            overflow_tiles: trace.overflow_tiles,
            epoch: index.epoch(),
            spec,
        }))
    }

    /// Whether a cached batch can serve a read against an index at
    /// `epoch` for the given starts: current epoch and covering domain.
    fn batch_serves(batch: &AllStartsDistribution, epoch: u64, starts: &[NodeId]) -> bool {
        batch.epoch() == epoch && starts.iter().all(|s| batch.covers(s.0 as u64))
    }

    /// Pins the current batched generation: one O(1) `Arc` clone under a
    /// read lock that is released before this returns, so no reader ever
    /// holds a lock while evaluating or while maintenance runs.
    fn generation(&self) -> Arc<BatchedGeneration> {
        Arc::clone(&self.batched.read())
    }

    /// Installs `computed` for `key` unless the live generation already
    /// holds an entry that is as good or better: an entry that serves the
    /// requested `(index, starts)` read wins outright, and an entry at a
    /// *newer* epoch is never clobbered by a reader still pinned to an
    /// older index (its result stays private to that reader). Returns the
    /// batch the caller should use. The write lock covers an O(shapes)
    /// map clone — never an evaluation.
    fn install_batch(
        &self,
        key: &CanonicalKey,
        computed: Arc<AllStartsDistribution>,
        epoch: u64,
        starts: &[NodeId],
    ) -> Arc<AllStartsDistribution> {
        let mut guard = self.batched.write();
        if let Some(live) = guard.get(key) {
            if Self::batch_serves(live, epoch, starts) {
                return Arc::clone(live);
            }
            if live.epoch() > computed.epoch() {
                return computed;
            }
        }
        let mut next: BatchedGeneration = (**guard).clone();
        next.insert(key.clone(), Arc::clone(&computed));
        *guard = Arc::new(next);
        computed
    }

    /// The all-starts distribution of `e`'s pattern shape covering (at
    /// least) `starts`: **one** batched relational evaluation per shape,
    /// shared by every start in the sample, every explanation with an
    /// isomorphic pattern, and every thread. If a previously cached batch
    /// misses some of `starts`, the batch is recomputed over the union of
    /// domains (rare: the sample is fixed per context). A batch computed
    /// at an older KB epoch than `index`'s is **stale** and likewise
    /// recomputed — the refuse/refresh half of the epoch contract;
    /// [`DistributionCache::apply_delta`] is the cheap alternative.
    ///
    /// A cold shape evaluates under `budget`, checked at every tile
    /// boundary. On abort (deadline, cancellation, row-budget exhaustion)
    /// the cache is left **byte-identical** to its pre-call state:
    /// nothing is installed, no counter moves, not even the observed-epoch
    /// high-water mark — a retried or budget-relaxed call recomputes
    /// exactly what this one would have. Accounting (epoch note,
    /// hit/miss/eval counters) and publication happen only after the
    /// evaluation completes. A warm hit never aborts.
    pub fn all_starts(
        &self,
        index: &ShardedEdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        budget: &Budget,
    ) -> rex_relstore::Result<BatchRead> {
        let key = e.key();
        let generation = self.generation();
        if let Some(cached) = generation.get(key) {
            if Self::batch_serves(cached, index.epoch(), starts) {
                self.note_epoch(index.epoch());
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(BatchRead { batch: Arc::clone(cached), evaluated_tiles: None });
            }
        }
        let mut domain: HashSet<u64> = starts.iter().map(|s| s.0 as u64).collect();
        if let Some(cached) = generation.get(key) {
            domain.extend(cached.domain.iter().copied());
        }
        drop(generation);
        // Evaluation runs without any lock held; a racing thread may have
        // installed a batch meanwhile — install_batch arbitrates. An
        // abort propagates here, before any observable state changes.
        let computed = self.eval_batch(index, e.pattern.to_spec(), domain, budget)?;
        let evaluated_tiles = Some(computed.eval_tiles());
        self.note_epoch(index.epoch());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.batched_evals.fetch_add(1, Ordering::Relaxed);
        let batch = self.install_batch(key, computed, index.epoch(), starts);
        Ok(BatchRead { batch, evaluated_tiles })
    }

    /// The descending count multiset of `e`'s pattern for `start`. Served
    /// from a cached batch when a **current-epoch** one covers `start`;
    /// otherwise computed with a single bound per-start probe and cached
    /// in the overlay (also epoch-guarded) — the right cost model for
    /// local (single-start) queries; the probe reads the index's base.
    pub fn counts(&self, index: &ShardedEdgeIndex, e: &Explanation, start: u32) -> Arc<Vec<u64>> {
        self.note_epoch(index.epoch());
        let key = e.key();
        if let Some(batch) = self.generation().get(key) {
            if batch.epoch() == index.epoch() {
                if let Some(counts) = batch.counts_for(start as u64) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return counts;
                }
            }
        }
        let overlay_key = (key.clone(), start);
        if let Some((epoch, hit, _)) = self.per_start.read().get(&overlay_key) {
            if *epoch == index.epoch() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let spec = e.pattern.to_spec();
        let dist = rex_relstore::engine::local_count_distribution_indexed(
            index.base(),
            &spec,
            start as u64,
        )
        .expect("explanation patterns are valid specs");
        let mut counts: Vec<u64> = dist.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let counts = Arc::new(counts);
        let labels = spec_labels(&spec);
        // A racing thread may have inserted meanwhile: an entry at the
        // same epoch is identical (keep it), and an entry at a *newer*
        // epoch must not be clobbered by a reader pinned to an older
        // index — its probe stays private.
        let mut guard = self.per_start.write();
        let entry = guard.entry(overlay_key).or_insert((
            index.epoch(),
            Arc::clone(&counts),
            labels.clone(),
        ));
        if entry.0 < index.epoch() {
            *entry = (index.epoch(), Arc::clone(&counts), labels);
        } else if entry.0 > index.epoch() {
            return counts;
        }
        Arc::clone(&entry.1)
    }

    /// Local position of `e` (count aggregate) for `start`, if the answer
    /// is already cached at the cache's current epoch — never computes,
    /// never counts a hit or miss. The pruned rankers use this for free
    /// exactness before falling back to a bounded streaming probe.
    pub fn cached_local_position(&self, e: &Explanation, start: u32) -> Option<usize> {
        let a = e.count() as u64;
        let epoch = self.current_epoch();
        if let Some(batch) = self.generation().get(e.key()) {
            if batch.epoch() == epoch {
                if let Some(pos) = batch.position(start as u64, a) {
                    return Some(pos);
                }
            }
        }
        self.per_start
            .read()
            .get(&(e.key().clone(), start))
            .filter(|(e, _, _)| *e == epoch)
            .map(|(_, counts, _)| position_in(counts, a))
    }

    /// Incrementally maintains every cached batch across `delta`,
    /// advancing the cache to `kb`'s epoch. `index` must already be
    /// advanced to the delta's target epoch
    /// ([`ShardedEdgeIndex::next_epoch`]); patch and rebatch evaluations
    /// fan out across its shards. Per shape:
    ///
    /// * labels disjoint from the delta, or no affected start inside the
    ///   domain → re-published at the new epoch sharing the same counts
    ///   and domain (**untouched**, O(1));
    /// * affected starts ≤ [`rebatch_fraction`] of the domain → one
    ///   partial evaluation over just those starts, overlaid onto the old
    ///   multisets (**patched**);
    /// * otherwise → full re-evaluation of the domain (**rebatched**).
    ///
    /// The entire pass builds the **next generation off to the side**
    /// while readers keep hitting the published one: no lock is held
    /// across any evaluation, and publication is an O(1) `Arc` swap (plus
    /// a merge of entries concurrent readers installed meanwhile). A
    /// reader pinned to the pre-delta index keeps reading old-epoch
    /// values; a reader that picks up the post-delta index sees the new
    /// generation — never a mix.
    ///
    /// Per-start overlay entries whose shape labels are **disjoint** from
    /// the delta are still exact, so they ride along with their epoch
    /// bumped; the rest are dropped (they are single-start probes —
    /// re-probing on demand is their cost model). Patched and rebatched
    /// shapes produce multisets byte-identical to a scratch rebuild at
    /// the new epoch — the parity the incremental test suite pins down.
    ///
    /// [`rebatch_fraction`]: DistributionCache::rebatch_fraction
    pub fn apply_delta(
        &self,
        kb: &KnowledgeBase,
        index: &ShardedEdgeIndex,
        delta: &KbDelta,
    ) -> DeltaMaintenance {
        assert_eq!(
            index.epoch(),
            delta.to_epoch,
            "apply_delta: refresh the index to the delta's target epoch first"
        );
        self.note_epoch(delta.to_epoch);
        let mut outcome = DeltaMaintenance::default();
        // Pin the generation being maintained; every evaluation below
        // runs against this immutable map with no lock held.
        let current = self.generation();
        let mut next: BatchedGeneration = HashMap::with_capacity(current.len());
        for (key, entry) in current.iter() {
            if entry.epoch() == delta.to_epoch {
                // Already current — a reader racing a publication of this
                // same window evaluated it fresh; keep it.
                outcome.untouched += 1;
                next.insert(key.clone(), Arc::clone(entry));
                continue;
            }
            if entry.epoch() != delta.from_epoch {
                // Skewed entry (behind the window): drop it and let the
                // next read re-evaluate.
                outcome.dropped += 1;
                continue;
            }
            let affected_in_domain: Vec<u64> = match delta_affected_starts(kb, &entry.spec, delta) {
                None => Vec::new(),
                Some(affected) => {
                    affected.into_iter().filter(|s| entry.domain.contains(s)).collect()
                }
            };
            if affected_in_domain.is_empty() {
                // Untouched: republish at the new epoch, sharing the
                // multisets and domain (O(1) — entries are immutable, so
                // the old generation's copy stays valid for its readers).
                outcome.untouched += 1;
                next.insert(
                    key.clone(),
                    Arc::new(AllStartsDistribution {
                        counts: Arc::clone(&entry.counts),
                        domain: Arc::clone(&entry.domain),
                        tiles: entry.tiles,
                        peak_rows: entry.peak_rows,
                        est_peak_rows: entry.est_peak_rows,
                        overflow_tiles: entry.overflow_tiles,
                        epoch: delta.to_epoch,
                        spec: entry.spec.clone(),
                    }),
                );
                continue;
            }
            let threshold = self.rebatch_fraction * entry.domain.len() as f64;
            if affected_in_domain.len() as f64 > threshold {
                // Blast radius too large: re-batch the whole domain.
                self.batched_evals.fetch_add(1, Ordering::Relaxed);
                let fresh = self
                    .eval_batch(
                        index,
                        entry.spec.clone(),
                        (*entry.domain).clone(),
                        &Budget::unlimited(),
                    )
                    .expect("cached batch specs are valid");
                outcome.rebatched += 1;
                next.insert(key.clone(), fresh);
                continue;
            }
            // Patch: re-group only the affected starts — the endpoint
            // postings make this touch only rows incident to them — and
            // overlay.
            let req = EvalRequest {
                starts: &affected_in_domain,
                row_ceiling: self.row_ceiling,
                kind: EvalKind::Delta,
                budget: Budget::unlimited(),
            };
            let partial = count_distributions(index, &entry.spec, &req)
                .expect("cached batch specs are valid");
            let trace = partial.trace;
            self.delta_evals.fetch_add(trace.delta, Ordering::Relaxed);
            self.tiles.fetch_add(trace.tiles, Ordering::Relaxed);
            self.peak_rows.fetch_max(trace.peak_rows, Ordering::Relaxed);
            let mut counts = (*entry.counts).clone();
            for s in &affected_in_domain {
                counts.remove(s);
            }
            for (s, multiset) in partial.per_start {
                counts.insert(s, Arc::new(multiset));
            }
            outcome.patched += 1;
            outcome.affected_starts += affected_in_domain.len();
            next.insert(
                key.clone(),
                Arc::new(AllStartsDistribution {
                    counts: Arc::new(counts),
                    domain: Arc::clone(&entry.domain),
                    tiles: entry.tiles,
                    peak_rows: entry.peak_rows.max(trace.peak_rows),
                    est_peak_rows: entry.est_peak_rows.max(trace.est_peak_rows),
                    overflow_tiles: entry.overflow_tiles.max(trace.overflow_tiles),
                    epoch: delta.to_epoch,
                    spec: entry.spec.clone(),
                }),
            );
        }
        // Publish: O(1) pointer swap. Readers may have installed entries
        // while we built the next generation — keep any key we did not
        // maintain ourselves (ours, already at to_epoch, win on overlap).
        let mut guard = self.batched.write();
        if !Arc::ptr_eq(&guard, &current) {
            for (key, entry) in guard.iter() {
                next.entry(key.clone()).or_insert_with(|| Arc::clone(entry));
            }
        }
        *guard = Arc::new(next);
        drop(guard);
        // Overlay: label-disjoint entries are provably unaffected — bump
        // their epoch in place (counts unchanged, so readers pinned to
        // either epoch get identical values); everything else is dropped.
        let touched: HashSet<u64> = delta.touched_labels().iter().map(|l| l.0 as u64).collect();
        self.per_start.write().retain(|_, entry| {
            if entry.0 == delta.to_epoch {
                return true;
            }
            if entry.0 == delta.from_epoch && entry.2.iter().all(|l| !touched.contains(l)) {
                entry.0 = delta.to_epoch;
                return true;
            }
            false
        });
        outcome
    }

    /// Drops every cached entry (batched and overlay) computed before
    /// `epoch` — the **compaction fallback**: when the KB's delta log no
    /// longer reaches back to the cache's epoch, stale entries can never
    /// be patched, so they are purged wholesale and the next read
    /// re-evaluates cold. Returns the number of entries dropped. Like
    /// maintenance, the new generation is built off to the side and
    /// published with an O(1) swap.
    pub fn purge_older_than(&self, epoch: u64) -> usize {
        self.note_epoch(epoch);
        let current = self.generation();
        let mut next: BatchedGeneration = HashMap::new();
        for (key, entry) in current.iter() {
            if entry.epoch() >= epoch {
                next.insert(key.clone(), Arc::clone(entry));
            }
        }
        let mut dropped = current.len() - next.len();
        let mut guard = self.batched.write();
        if !Arc::ptr_eq(&guard, &current) {
            for (key, entry) in guard.iter() {
                if entry.epoch() >= epoch {
                    next.entry(key.clone()).or_insert_with(|| Arc::clone(entry));
                }
            }
        }
        *guard = Arc::new(next);
        drop(guard);
        let mut overlay = self.per_start.write();
        let before = overlay.len();
        overlay.retain(|_, (e, _, _)| *e >= epoch);
        dropped += before - overlay.len();
        dropped
    }

    /// Local position of `e` (count aggregate) via the cache.
    pub fn local_position(&self, index: &ShardedEdgeIndex, e: &Explanation, start: u32) -> usize {
        position_in(&self.counts(index, e, start), e.count() as u64)
    }

    /// Sampled global position of `e` via the cache: the sum of `e`'s
    /// positions in the local distributions of `starts`, answered from
    /// one shared batched evaluation per pattern shape
    /// ([`DistributionCache::all_starts`], under `budget`). `exclude` —
    /// the pair's own start entity — is skipped at **read time**: the
    /// batched evaluation covers all of `starts` (the shared sample
    /// frame, identical for every pair of a workload), so one cache
    /// serves every pair of a workload with zero recomputation.
    pub fn global_position(
        &self,
        index: &ShardedEdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        exclude: Option<NodeId>,
        budget: &Budget,
    ) -> rex_relstore::Result<usize> {
        let read = self.all_starts(index, e, starts, budget)?;
        Ok(read.batch.position_sum(starts, exclude, e.count() as u64))
    }

    /// Number of cached entries (batched shapes + per-start overlays).
    pub fn len(&self) -> usize {
        self.batched.read().len() + self.per_start.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of batched (all-starts) relational evaluations performed —
    /// the count the tentpole optimization bounds by the number of
    /// distinct canonical pattern shapes.
    pub fn batched_evals(&self) -> usize {
        self.batched_evals.load(Ordering::Relaxed)
    }

    /// An opaque fingerprint of the published batched generation: changes
    /// on every publication (miss install, delta maintenance, purge) and
    /// only then. Generations are immutable once behind the `Arc`, so an
    /// unchanged fingerprint proves no entry was added, dropped, or
    /// replaced — the abort-leaves-no-trace property the robustness
    /// proptests pin down without hashing the whole map.
    pub fn generation_fingerprint(&self) -> usize {
        Arc::as_ptr(&*self.batched.read()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::measures::distribution::{
        global_position, global_position_per_start, local_position,
    };
    use crate::measures::MeasureContext;
    use crate::EnumConfig;
    use rex_relstore::engine::ShardSpec;

    /// The unbudgeted batch read of `e` over `starts`.
    fn read_batch(
        cache: &DistributionCache,
        index: &ShardedEdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
    ) -> Arc<AllStartsDistribution> {
        cache.all_starts(index, e, starts, &Budget::unlimited()).unwrap().batch
    }

    /// The unbudgeted global position of `e` over `starts`, skipping
    /// `exclude`.
    fn global(
        cache: &DistributionCache,
        index: &ShardedEdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        exclude: Option<NodeId>,
    ) -> usize {
        cache.global_position(index, e, starts, exclude, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn cached_positions_match_uncached() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out = GeneralEnumerator::new(EnumConfig::default()).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(10, 3);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let starts = ctx.global_sample_starts();
        for e in &out.explanations {
            assert_eq!(
                cache.local_position(index, e, a.0),
                local_position(&ctx, e, usize::MAX),
                "{}",
                e.describe(&kb)
            );
            assert_eq!(
                global(&cache, index, e, &starts, None),
                global_position(&ctx, e, usize::MAX),
                "{}",
                e.describe(&kb)
            );
            assert_eq!(
                global(&cache, index, e, &starts, None),
                global_position_per_start(&ctx, e, usize::MAX).0,
                "per-start baseline disagrees for {}",
                e.describe(&kb)
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        for e in &out.explanations {
            cache.local_position(index, e, a.0);
        }
        let (_, misses_first) = cache.stats();
        for e in &out.explanations {
            cache.local_position(index, e, a.0);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, misses_first, "second pass must not miss");
        assert!(hits >= out.explanations.len());
        assert!(!cache.is_empty());
        assert!(cache.len() <= out.explanations.len());
    }

    /// One batched evaluation per shape serves every sampled start; local
    /// queries for covered starts are answered from the same batch.
    #[test]
    fn batched_entry_serves_all_starts_and_locals() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(12, 5);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let mut starts = ctx.global_sample_starts();
        starts.push(a); // cover the pair's own start too
        for e in &out.explanations {
            global(&cache, index, e, &starts, None);
        }
        assert_eq!(cache.batched_evals(), out.explanations.len());
        let (_, misses) = cache.stats();
        assert_eq!(misses, out.explanations.len(), "one miss per shape");
        // Every per-start query against a covered start is now a hit.
        for e in &out.explanations {
            for s in &starts {
                cache.counts(index, e, s.0);
            }
            global(&cache, index, e, &starts, None);
        }
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_after, misses, "covered starts never miss");
    }

    /// A start outside the batch's domain falls back to the per-start
    /// overlay; re-requesting the batch with a larger sample recomputes
    /// it once and then covers the union.
    #[test]
    fn domain_growth_recomputes_once() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(6, 5);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let starts = ctx.global_sample_starts();
        let e = &out.explanations[0];
        let (small, grown) = (&starts[..3], &starts[..]);
        read_batch(&cache, index, e, small);
        assert_eq!(cache.batched_evals(), 1);
        // Outside the small domain: overlay probe, not covered by batch.
        let outside = starts[4];
        cache.counts(index, e, outside.0);
        // Growing the domain recomputes the batch once.
        let batch = read_batch(&cache, index, e, grown);
        assert_eq!(cache.batched_evals(), 2);
        assert!(batch.covers(outside.0 as u64));
        // And the grown batch is reused thereafter.
        read_batch(&cache, index, e, grown);
        read_batch(&cache, index, e, small);
        assert_eq!(cache.batched_evals(), 2);
    }

    /// Read-time exclusion over one shared batch equals a position sum
    /// over the pre-filtered start list — without changing the batch
    /// domain, so no extra evaluation happens.
    #[test]
    fn read_time_exclusion_matches_prefiltered_sum() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        // Find (deterministically) a seed whose frame draws the pair's own
        // start, so the read-time exclusion actually has rows to drop.
        let seed = (0..64)
            .find(|&s| crate::measures::frame::SampleFrame::sample(&kb, 40, s).unwrap().contains(a))
            .expect("some 40-draw frame contains the start");
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(40, seed);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let frame = ctx.sample_frame().clone();
        assert!(frame.contains(a));
        let filtered = frame.starts_excluding(a);
        for e in &out.explanations {
            let excluded = global(&cache, index, e, frame.starts(), Some(a));
            let evals = cache.batched_evals();
            // Same batch answers the pre-filtered sum: no new evaluation.
            let prefiltered: usize = {
                let batch = read_batch(&cache, index, e, frame.starts());
                filtered.iter().map(|s| batch.position(s.0 as u64, e.count() as u64).unwrap()).sum()
            };
            assert_eq!(excluded, prefiltered, "{}", e.describe(&kb));
            assert_eq!(cache.batched_evals(), evals, "exclusion must not re-evaluate");
        }
    }

    /// A row ceiling makes batched evaluations tile without changing any
    /// answer, and the per-cache tiling counters observe it.
    #[test]
    fn row_ceiling_tiles_without_changing_positions() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(15, 4);
        let index = ctx.edge_index();
        let starts = ctx.sample_frame().starts().to_vec();
        let plain = DistributionCache::new();
        let tiled = DistributionCache::with_row_ceiling(1); // degenerate: 1-start tiles
        assert_eq!(tiled.row_ceiling(), Some(1));
        for e in &out.explanations {
            assert_eq!(
                global(&plain, index, e, &starts, None),
                global(&tiled, index, e, &starts, None),
                "{}",
                e.describe(&kb)
            );
        }
        let (plain_tiles, _) = plain.tiling_stats();
        let (tiled_tiles, tiled_peak) = tiled.tiling_stats();
        assert_eq!(plain_tiles, out.explanations.len(), "untiled: one tile per shape");
        assert!(tiled_tiles > plain_tiles, "ceiling must split the batches");
        let (_, plain_peak) = plain.tiling_stats();
        assert!(tiled_peak <= plain_peak, "tiling must not raise the peak");
    }

    /// The epoch contract: a batch computed at epoch N refuses to serve
    /// an index at epoch N+1 and refreshes instead — and apply_delta is
    /// the cheap alternative that keeps it serving.
    #[test]
    fn stale_epoch_refuses_and_refreshes() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let e = &out.explanations[0];
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().take(8).collect();
        let mut index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        let cache = DistributionCache::new();

        let batch0 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 1);
        assert_eq!(batch0.epoch(), 0);
        cache.counts(&index, e, a.0);
        assert!(cache.cached_local_position(e, a.0).is_some());

        // Mutate the KB; the refreshed index moves to epoch N+1.
        let epoch0 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();

        // Batched read: the epoch-N batch is refused; a fresh evaluation
        // replaces it.
        let batch1 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2, "stale batch must re-evaluate");
        assert_eq!(batch1.epoch(), kb.epoch());
        // The stale batch also stops serving cached_local_position (the
        // cache-level epoch moved past it)... and the refreshed one
        // serves again.
        assert!(cache.cached_local_position(e, a.0).is_some());
        // A second read is a warm hit — refresh happened exactly once.
        read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2);
    }

    /// apply_delta accounting: label-disjoint shapes ride for free,
    /// touched shapes are patched (or rebatched under a zero fraction),
    /// and every maintained shape serves warm reads at the new epoch.
    #[test]
    fn apply_delta_maintains_batches() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().collect();
        let mut index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        let cache = DistributionCache::new();
        for e in &out.explanations {
            read_batch(&cache, &index, e, &starts);
        }
        let shapes = cache.batched_evals();

        let epoch0 = kb.epoch();
        let award = kb.intern_label("awarded");
        let oscar = kb.insert_node("a_new_award", "Award");
        kb.insert_edge(a, oscar, award, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();

        // The delta touches only a brand-new label: every cached shape is
        // label-disjoint → untouched, zero evaluations.
        let m = cache.apply_delta(&kb, &index, &delta);
        assert_eq!(m.untouched, shapes);
        assert_eq!(m.patched + m.rebatched + m.dropped, 0);
        let evals = cache.batched_evals();
        for e in &out.explanations {
            read_batch(&cache, &index, e, &starts);
        }
        assert_eq!(cache.batched_evals(), evals, "maintained shapes serve warm");

        // Now touch 'starring': shapes over it are patched; with a zero
        // rebatch fraction they would all rebatch instead.
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        let m2 = cache.apply_delta(&kb, &index, &delta2);
        assert_eq!(m2.patched + m2.rebatched + m2.untouched, shapes);
        assert!(m2.patched + m2.rebatched > 0, "starring shapes are touched");
        if m2.patched > 0 {
            assert!(cache.delta_evals() > 0);
            assert!(m2.affected_starts > 0);
        }
        // Maintained counts equal a scratch evaluation at the new epoch.
        let scratch = DistributionCache::new();
        for e in &out.explanations {
            let maintained = read_batch(&cache, &index, e, &starts);
            let fresh = read_batch(&scratch, &index, e, &starts);
            for s in &starts {
                assert_eq!(
                    maintained.counts_for(s.0 as u64),
                    fresh.counts_for(s.0 as u64),
                    "start {s} of {}",
                    e.describe(&kb)
                );
            }
        }
    }

    /// The rebatch-fraction validation: NaN and negatives are rejected
    /// with messages naming the accepted range (a NaN would otherwise
    /// compare false against every threshold and silently disable
    /// rebatching); the documented range is accepted verbatim.
    #[test]
    fn rebatch_fraction_accepts_documented_range() {
        assert_eq!(DistributionCache::new().with_rebatch_fraction(0.0).rebatch_fraction(), 0.0);
        assert_eq!(DistributionCache::new().with_rebatch_fraction(1.0).rebatch_fraction(), 1.0);
        assert_eq!(DistributionCache::new().with_rebatch_fraction(2.5).rebatch_fraction(), 2.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rebatch_fraction_panics_clearly() {
        let _ = DistributionCache::new().with_rebatch_fraction(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_rebatch_fraction_panics_clearly() {
        let _ = DistributionCache::new().with_rebatch_fraction(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rebatch_fraction_panics_clearly() {
        let _ = DistributionCache::new().with_rebatch_fraction(-0.25);
    }

    /// The overlay-retention bugfix: per-start overlays whose shape labels
    /// are disjoint from a delta survive `apply_delta` with their epoch
    /// bumped (no recomputation on the next read), while overlays whose
    /// shapes touch a delta label are dropped and re-probed.
    #[test]
    fn label_disjoint_overlays_survive_apply_delta() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let mut index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        let cache = DistributionCache::new();
        // Warm the per-start overlay only (no batched entries).
        for e in &out.explanations {
            cache.counts(&index, e, a.0);
        }
        let (_, misses_warm) = cache.stats();

        // Delta on a brand-new label: disjoint from every cached shape.
        let epoch0 = kb.epoch();
        let award = kb.intern_label("awarded");
        let trophy = kb.insert_node("a_trophy", "Award");
        kb.insert_edge(a, trophy, award, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();
        cache.apply_delta(&kb, &index, &delta);
        for e in &out.explanations {
            cache.counts(&index, e, a.0);
        }
        let (_, misses_disjoint) = cache.stats();
        assert_eq!(
            misses_disjoint, misses_warm,
            "label-disjoint overlays must ride the delta for free"
        );

        // Delta on 'starring': overlays of starring shapes re-probe, the
        // rest stay warm.
        let starring = kb.label_by_name("starring").unwrap();
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        cache.apply_delta(&kb, &index, &delta2);
        for e in &out.explanations {
            cache.counts(&index, e, a.0);
        }
        let (_, misses_touched) = cache.stats();
        let starring_shapes = out
            .explanations
            .iter()
            .filter(|e| e.pattern.to_spec().edges.iter().any(|se| se.label == starring.0 as u64))
            .count();
        assert!(starring_shapes > 0, "the toy pair has starring-shaped explanations");
        assert!(
            starring_shapes < out.explanations.len(),
            "the toy pair also has spouse-only shapes"
        );
        assert_eq!(
            misses_touched - misses_disjoint,
            starring_shapes,
            "exactly the touched shapes re-probe; disjoint overlays stay warm"
        );
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let serial: Vec<usize> = out
            .explanations
            .iter()
            .map(|e| DistributionCache::new().local_position(index, e, a.0))
            .collect();
        let parallel: Vec<usize> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = out
                .explanations
                .chunks(2)
                .map(|chunk| {
                    let cache = &cache;
                    scope.spawn(move |_| {
                        chunk
                            .iter()
                            .map(|e| cache.local_position(index, e, a.0))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("no panic")).collect()
        })
        .expect("scope");
        assert_eq!(serial, parallel);
    }
}
