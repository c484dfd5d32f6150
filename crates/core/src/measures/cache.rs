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
//! an [`AllStartsDistribution`]: every covered start entity with its
//! descending count multiset, produced by batched relational evaluation
//! ([`count_distributions`]) whose start variable ranges over a whole set
//! of starts at once. Any position query against a cached shape is then
//! two binary searches — the asymptotics drop from ~`starts` full
//! evaluations per shape to 1.
//!
//! A read ([`DistributionCache::all_starts`]) reports whether *it*
//! evaluated ([`BatchRead`]), so a request can account its own
//! evaluations apart from concurrent readers and maintenance that share
//! the cache.
//!
//! **One map, extended by reads.** The cache is a single
//! `RwLock<HashMap<CanonicalKey, Arc<AllStartsDistribution>>>`. An entry
//! holds its covered starts in one ascending array and, parallel to it,
//! each start's multiset as runs of equal counts, so a warm hit — the
//! covering check and every position of a position sum — is binary
//! searches with no hashing past the one map lookup. A read clones one
//! entry's `Arc` under the read lock, then evaluates — with no lock held
//! — only the requested starts the entry lacks, in one
//! [`count_distributions`] call, converts the evaluation's per-start
//! multisets to runs once, and publishes the sorted merge of the two
//! start arrays in place. A one-start read
//! ([`DistributionCache::counts`]) is simply a read of `[start]`, so
//! local and global queries of a shape share one entry, and a grown
//! sample pays only for its new starts.
//!
//! **KB updates.** Every entry carries the KB *epoch* it was computed at;
//! a read against an index at another epoch ignores it and evaluates
//! afresh (the refuse/refresh guarantee). The cheap path is
//! [`DistributionCache::apply_delta`]: given the [`KbDelta`] between the
//! entries' epoch and the KB's, each cached shape is either **untouched**
//! (label set disjoint from the delta, or no affected start inside its
//! domain — republished at the new epoch sharing the same multisets) or
//! **patched** (the affected starts inside its domain are re-evaluated
//! with one partial evaluation and merged over the old multisets, the
//! same merge a read uses to extend an entry). Either way, the next read
//! is a warm hit.
//!
//! **Publication.** Entries are immutable once published; a write lock is
//! held only to insert entries, never across an evaluation:
//!
//! * a reader whose shape gained an entry at a **newer** epoch meanwhile
//!   keeps its result private; a live entry that already serves the read
//!   wins; a same-epoch live entry that does not is merged with the new
//!   one (same-epoch multisets agree on shared starts);
//! * maintenance reads a snapshot of the entries, builds the maintained
//!   ones with no lock held, and publishes them together in one
//!   write-lock section. Maintained entries win over concurrent installs,
//!   and an entry dropped as skewed is removed only if it is still the one
//!   maintenance saw.
//!
//! Combined with the per-entry epoch guard, a reader that pinned an index
//! at epoch `E` either hits entries computed at `E` or computes at `E` —
//! it can never observe a torn mix of epochs, and it never waits on an
//! in-flight [`DistributionCache::apply_delta`] pass. Hit/miss counters
//! make the sharing observable in tests and benches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rex_kb::{KbDelta, KnowledgeBase, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{
    count_distributions, delta_affected_starts, EdgeIndex, EvalKind, EvalRequest,
};
use rex_relstore::metrics::EvalTrace;
use rex_relstore::plan::PatternSpec;

use crate::canonical::CanonicalKey;
use crate::explanation::Explanation;

/// One run of equal counts in a descending count multiset: the count, and
/// how many ends have a count of at least that much — the multiset's
/// length through the end of the run, so a position is one binary search
/// over a start's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    count: u64,
    through: u32,
}

/// Appends the runs of the descending multiset `counts` to `runs`.
fn push_runs(runs: &mut Vec<Run>, counts: &[u64]) {
    let mut through = 0;
    for equal in counts.chunk_by(|a, b| a == b) {
        through += equal.len();
        let through = u32::try_from(through).expect("a multiset holds one count per end entity");
        runs.push(Run { count: equal[0], through });
    }
}

/// Position of `a` in the multiset `runs` encode: the number of ends
/// whose count exceeds `a`, as
/// [`position_in`](crate::measures::distribution::position_in) counts
/// them on the expanded multiset.
fn runs_position(runs: &[Run], a: u64) -> usize {
    let above = runs.partition_point(|r| r.count > a);
    above.checked_sub(1).map_or(0, |last| runs[last].through as usize)
}

/// The descending multiset `runs` encode, expanded.
fn expand(runs: &[Run]) -> Vec<u64> {
    let mut counts = Vec::with_capacity(runs.last().map_or(0, |r| r.through as usize));
    for r in runs {
        counts.resize(r.through as usize, r.count);
    }
    counts
}

/// An entry's covered starts in one ascending array and, parallel to it,
/// each start's runs, stored back to back.
#[derive(Debug)]
struct StartRuns {
    starts: Vec<u64>,
    /// `runs[bounds[i]..bounds[i + 1]]` are `starts[i]`'s runs.
    bounds: Vec<u32>,
    runs: Vec<Run>,
}

impl StartRuns {
    fn with_capacity(starts: usize) -> Self {
        let mut bounds = Vec::with_capacity(starts + 1);
        bounds.push(0);
        StartRuns { starts: Vec::with_capacity(starts), bounds, runs: Vec::new() }
    }

    /// Converts one evaluation's output: `starts` (any order, repeats
    /// allowed), each with its multiset in `per_start` or none.
    fn from_batch(starts: &[u64], per_start: &HashMap<u64, Vec<u64>>) -> Self {
        let mut sorted = starts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut table = StartRuns::with_capacity(sorted.len());
        for s in sorted {
            push_runs(&mut table.runs, per_start.get(&s).map_or(&[], Vec::as_slice));
            table.seal(s);
        }
        table
    }

    /// Closes the runs pushed since the last seal as `start`'s, which
    /// must exceed every start already sealed.
    fn seal(&mut self, start: u64) {
        debug_assert!(self.starts.last().is_none_or(|&s| s < start), "starts ascend");
        self.starts.push(start);
        self.bounds.push(u32::try_from(self.runs.len()).expect("an entry's runs fit u32"));
    }

    /// The runs of `starts[i]`.
    fn runs(&self, i: usize) -> &[Run] {
        &self.runs[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// The runs of `start`, `None` when it is not covered.
    fn runs_of(&self, start: u64) -> Option<&[Run]> {
        self.starts.binary_search(&start).ok().map(|i| self.runs(i))
    }

    /// This table with `newer` merged over it, in one pass over both
    /// ascending start arrays: a start of `newer` takes `newer`'s runs.
    fn merged(&self, newer: &StartRuns) -> StartRuns {
        let mut out = StartRuns::with_capacity(self.starts.len() + newer.starts.len());
        out.runs.reserve(self.runs.len() + newer.runs.len());
        let (mut i, mut j) = (0, 0);
        loop {
            let from_newer = match (self.starts.get(i), newer.starts.get(j)) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(old), Some(new)) => {
                    if old == new {
                        i += 1;
                    }
                    new <= old
                }
            };
            let (table, at) = if from_newer { (newer, &mut j) } else { (self, &mut i) };
            out.runs.extend_from_slice(table.runs(*at));
            out.seal(table.starts[*at]);
            *at += 1;
        }
        out
    }
}

/// The batched all-starts distribution of one canonical pattern shape:
/// for every start entity in its domain, the descending multiset of
/// per-end instance counts.
///
/// **Layout.** The covered starts sit in one ascending array and, parallel
/// to it, each start's multiset is stored as runs of equal counts (most
/// ends of a start share a few small counts, so a multiset of hundreds
/// of counts is a few runs). A start without instances has no runs.
/// Covering, positions and position sums are binary searches over the
/// two arrays, with no hashing, and merging two entries is one sorted
/// merge of their start arrays. [`AllStartsDistribution::counts_for`]
/// expands a start's runs back into its multiset.
///
/// **Immutable once published**: the epoch is fixed at construction and
/// the multisets never change, so a reader holding the `Arc` can trust
/// every field for as long as it likes — reads and maintenance publish
/// *new* entries (sharing the `Arc`'d runs when untouched) instead of
/// editing live ones.
#[derive(Debug)]
pub struct AllStartsDistribution {
    table: Arc<StartRuns>,
    /// The merged traffic of every evaluation the entry was built from.
    trace: EvalTrace,
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

    /// The merged traffic of the evaluations this entry was built from
    /// (its cold batch, plus every extension and patch since): tiles,
    /// rows, and the largest measured and estimated per-tile rows (see
    /// [`EvalTrace::est_peak_rows`] for what a row ceiling bounds).
    pub fn trace(&self) -> &EvalTrace {
        &self.trace
    }

    /// Whether `start` was covered by the batched evaluation.
    pub fn covers(&self, start: u64) -> bool {
        self.table.starts.binary_search(&start).is_ok()
    }

    /// The descending count multiset of `start` (empty when it has no
    /// instances), `None` when `start` is outside the evaluated domain.
    /// Each call expands the start's runs into a new multiset.
    pub fn counts_for(&self, start: u64) -> Option<Arc<Vec<u64>>> {
        self.table.runs_of(start).map(|runs| Arc::new(expand(runs)))
    }

    /// Position of aggregate value `a` in `start`'s distribution, `None`
    /// when `start` is outside the evaluated domain.
    pub fn position(&self, start: u64, a: u64) -> Option<usize> {
        self.table.runs_of(start).map(|runs| runs_position(runs, a))
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
        self.table.starts.len()
    }

    /// Whether this entry can serve a read against an index at `epoch`
    /// for `starts`: same epoch and a covering domain.
    fn serves(&self, epoch: u64, starts: &[NodeId]) -> bool {
        self.epoch == epoch && starts.iter().all(|s| self.covers(s.0 as u64))
    }

    /// This entry with `newer` merged over it: `newer`'s multisets
    /// replace this entry's on `newer`'s domain, the domains unite, the
    /// traces merge, and the result takes `newer`'s epoch. One merge
    /// serves both a read that extends an entry with starts it lacked and
    /// delta maintenance that patches the affected starts.
    fn merged(&self, newer: &AllStartsDistribution) -> AllStartsDistribution {
        let mut trace = self.trace;
        trace.merge(&newer.trace);
        AllStartsDistribution {
            table: Arc::new(self.table.merged(&newer.table)),
            trace,
            epoch: newer.epoch,
            spec: self.spec.clone(),
        }
    }
}

/// One read of a shape's batch through [`DistributionCache::all_starts`]:
/// the batch, plus what this call itself evaluated to produce it — so a
/// request accounts only its own evaluations, never a concurrent
/// reader's miss or a maintenance patch that shares the cache.
#[derive(Debug)]
pub struct BatchRead {
    /// The batch covering the requested starts.
    pub batch: Arc<AllStartsDistribution>,
    /// Start tiles this call evaluated (only the starts the entry
    /// lacked); `None` when a published batch served the read.
    pub evaluated_tiles: Option<usize>,
}

/// What [`DistributionCache::apply_delta`] did to each cached shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaMaintenance {
    /// Shapes whose affected starts were re-evaluated with a partial
    /// evaluation and merged over the cached multisets.
    pub patched: usize,
    /// Shapes untouched by the delta (label-disjoint, no affected start
    /// inside the domain, or already current): republished at the new
    /// epoch with the multisets shared, not recomputed.
    pub untouched: usize,
    /// Shapes dropped because their epoch did not match the delta's
    /// window (skewed bookkeeping); the next read re-evaluates them.
    pub dropped: usize,
    /// Total affected starts re-evaluated across all patched shapes.
    pub affected_starts: usize,
}

/// Thread-safe cache of distribution multisets, one entry per canonical
/// pattern shape. Epoch-aware: see the module docs for the staleness,
/// publication and delta-maintenance contract.
#[derive(Debug, Default)]
pub struct DistributionCache {
    entries: RwLock<HashMap<CanonicalKey, Arc<AllStartsDistribution>>>,
    /// Write-lock sections that published something; backs
    /// [`DistributionCache::generation_fingerprint`].
    publications: AtomicUsize,
    hits: AtomicUsize,
    /// Reads that evaluated; every miss is one batched evaluation, so
    /// this also backs [`DistributionCache::batched_evals`].
    misses: AtomicUsize,
    /// Ceiling on each tile's estimated instance rows per batched
    /// evaluation; `None` evaluates each batch as a single tile.
    row_ceiling: Option<usize>,
    tiles: AtomicUsize,
    peak_rows: AtomicUsize,
    delta_evals: AtomicUsize,
}

impl DistributionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose batched evaluations are tiled so each
    /// tile's estimated instance rows stay under `max_rows`, which bounds
    /// the work of one tile between budget checks (a walk's memory does
    /// not grow with its tile). Tiles are packed per shape from the
    /// **exact** per-start incident-row counts of the edge index's
    /// endpoint postings ([`EdgeIndex::tile_starts_for_ceiling`]).
    pub fn with_row_ceiling(max_rows: usize) -> Self {
        DistributionCache { row_ceiling: Some(max_rows), ..Default::default() }
    }

    /// The configured per-tile row ceiling, if any.
    pub fn row_ceiling(&self) -> Option<usize> {
        self.row_ceiling
    }

    /// Partial (delta-maintenance) evaluations performed by
    /// [`DistributionCache::apply_delta`], as the engine's returned
    /// traces count them.
    pub fn delta_evals(&self) -> usize {
        self.delta_evals.load(Ordering::Relaxed)
    }

    /// `(tiles, peak_rows)` across this cache's evaluations: how many
    /// start tiles were evaluated, and the most bindings one level of any
    /// tile's depth-first walk made ([`EvalTrace::peak_rows`]).
    pub fn tiling_stats(&self) -> (usize, usize) {
        (self.tiles.load(Ordering::Relaxed), self.peak_rows.load(Ordering::Relaxed))
    }

    /// Evaluates `spec` over `starts` (tiled under the row ceiling) and
    /// wraps the result as an entry at the index's epoch, updating the
    /// tile and delta counters. The engine checks `budget` at every tile
    /// boundary, and on abort this returns the typed error **without
    /// touching a single counter** — the abort-leaves-no-trace half of
    /// the robustness contract.
    fn evaluate(
        &self,
        index: &EdgeIndex,
        spec: PatternSpec,
        starts: &[u64],
        kind: EvalKind,
        budget: &Budget,
    ) -> rex_relstore::Result<AllStartsDistribution> {
        let req =
            EvalRequest { starts, row_ceiling: self.row_ceiling, kind, budget: budget.clone() };
        let batch = count_distributions(index, &spec, &req)?;
        let trace = batch.trace;
        self.tiles.fetch_add(trace.tiles, Ordering::Relaxed);
        self.peak_rows.fetch_max(trace.peak_rows, Ordering::Relaxed);
        self.delta_evals.fetch_add(trace.delta, Ordering::Relaxed);
        Ok(AllStartsDistribution {
            table: Arc::new(StartRuns::from_batch(starts, &batch.per_start)),
            trace,
            epoch: index.epoch(),
            spec,
        })
    }

    /// The published entry of `key`: one `Arc` clone under a read lock
    /// that is released before this returns.
    fn entry(&self, key: &CanonicalKey) -> Option<Arc<AllStartsDistribution>> {
        self.entries.read().get(key).cloned()
    }

    /// Installs `computed` — `base`, the entry the reader extended, merged
    /// with its fresh starts — for a read of `starts`, under the rules in
    /// the module docs: a live entry that serves the read wins, a live
    /// entry at a newer epoch keeps `computed` private, and a same-epoch
    /// live entry other than `base` is merged with it. Returns the batch
    /// the caller should use. The write lock never covers an evaluation.
    fn install(
        &self,
        key: &CanonicalKey,
        base: Option<&Arc<AllStartsDistribution>>,
        mut computed: AllStartsDistribution,
        starts: &[NodeId],
    ) -> Arc<AllStartsDistribution> {
        let mut entries = self.entries.write();
        if let Some(live) = entries.get(key) {
            if live.serves(computed.epoch, starts) {
                return Arc::clone(live);
            }
            if live.epoch > computed.epoch {
                return Arc::new(computed);
            }
            if live.epoch == computed.epoch && !base.is_some_and(|b| Arc::ptr_eq(b, live)) {
                computed = live.merged(&computed);
            }
        }
        let computed = Arc::new(computed);
        entries.insert(key.clone(), Arc::clone(&computed));
        self.publications.fetch_add(1, Ordering::Relaxed);
        computed
    }

    /// The warm half of [`DistributionCache::all_starts`]: the published
    /// entry of `e`'s shape when it serves `starts` at `index`'s epoch,
    /// counted as a hit. Otherwise nothing is counted, and the error
    /// carries the current-epoch entry a miss extends, if any.
    pub(crate) fn lookup(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
    ) -> std::result::Result<BatchRead, Option<Arc<AllStartsDistribution>>> {
        match self.entry(e.key()).filter(|b| b.epoch == index.epoch()) {
            Some(batch) if batch.serves(index.epoch(), starts) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(BatchRead { batch, evaluated_tiles: None })
            }
            base => Err(base),
        }
    }

    /// The all-starts distribution of `e`'s pattern shape covering (at
    /// least) `starts`: batched relational evaluation shared by every
    /// start in the sample, every explanation with an isomorphic pattern,
    /// and every thread. When the shape's current-epoch entry lacks some
    /// of `starts`, **only those** are evaluated, in one call, and merged
    /// into the entry. An entry at another epoch than `index`'s is stale
    /// and ignored — the refuse/refresh half of the epoch contract;
    /// [`DistributionCache::apply_delta`] is the cheap alternative.
    ///
    /// The evaluation runs under `budget`, checked at every tile
    /// boundary. On abort (deadline, cancellation, row-budget exhaustion)
    /// the cache is left **byte-identical** to its pre-call state:
    /// nothing is installed and no counter moves — a retried or
    /// budget-relaxed call recomputes exactly what this one would have.
    /// Accounting and publication happen only after the evaluation
    /// completes. A warm hit never aborts.
    pub fn all_starts(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        budget: &Budget,
    ) -> rex_relstore::Result<BatchRead> {
        let base = match self.lookup(index, e, starts) {
            Ok(hit) => return Ok(hit),
            Err(base) => base,
        };
        let key = e.key();
        let missing: Vec<u64> = starts
            .iter()
            .map(|s| s.0 as u64)
            .filter(|&s| !base.as_ref().is_some_and(|b| b.covers(s)))
            .collect();
        // No lock is held while evaluating; an abort propagates here,
        // before any observable state changes.
        let fresh = self.evaluate(index, e.pattern.to_spec(), &missing, EvalKind::Full, budget)?;
        let evaluated_tiles = Some(fresh.trace.tiles);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = match &base {
            Some(b) => b.merged(&fresh),
            None => fresh,
        };
        let batch = self.install(key, base.as_ref(), computed, starts);
        Ok(BatchRead { batch, evaluated_tiles })
    }

    /// The descending count multiset of `e`'s pattern for `start`: a
    /// read of `[start]` through [`DistributionCache::all_starts`], so a
    /// start outside the shape's entry extends that entry.
    pub fn counts(&self, index: &EdgeIndex, e: &Explanation, start: u32) -> Arc<Vec<u64>> {
        let read = self
            .all_starts(index, e, &[NodeId(start)], &Budget::unlimited())
            .expect("unlimited budget never aborts");
        read.batch.counts_for(start as u64).expect("the read covers its start")
    }

    /// Local position of `e` (count aggregate) for `start`, if an entry
    /// at `index`'s epoch already covers it — never computes, never
    /// counts a hit or miss. The pruned rankers use this for free
    /// exactness before falling back to a bounded streaming probe.
    pub fn cached_local_position(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        start: u32,
    ) -> Option<usize> {
        let entry = self.entry(e.key()).filter(|b| b.epoch == index.epoch())?;
        entry.position(start as u64, e.count() as u64)
    }

    /// Incrementally maintains every cached entry across `delta`.
    /// `index` must already be advanced to the delta's target epoch
    /// ([`EdgeIndex::next_epoch`]). Per shape:
    ///
    /// * labels disjoint from the delta, or no affected start inside the
    ///   domain → republished at the new epoch sharing the same starts
    ///   and runs (**untouched**, O(1));
    /// * otherwise → one partial evaluation over just the affected starts
    ///   inside the domain, merged over the old multisets (**patched**).
    ///
    /// The pass reads a snapshot of the entries and builds every
    /// maintained entry with no lock held, while readers keep hitting the
    /// published ones; one write-lock section then publishes them
    /// together. A reader pinned to the pre-delta index keeps reading
    /// old-epoch values (or computes them privately); a reader that picks
    /// up the post-delta index sees the maintained entries — never a mix.
    /// Patched shapes hold multisets byte-identical to a scratch rebuild
    /// at the new epoch — the parity the incremental test suite pins
    /// down.
    pub fn apply_delta(
        &self,
        kb: &KnowledgeBase,
        index: &EdgeIndex,
        delta: &KbDelta,
    ) -> DeltaMaintenance {
        assert_eq!(
            index.epoch(),
            delta.to_epoch,
            "apply_delta: refresh the index to the delta's target epoch first"
        );
        let mut outcome = DeltaMaintenance::default();
        let snapshot: Vec<(CanonicalKey, Arc<AllStartsDistribution>)> =
            self.entries.read().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        let mut maintained = Vec::with_capacity(snapshot.len());
        let mut dropped = Vec::new();
        for (key, entry) in snapshot {
            if entry.epoch == delta.to_epoch {
                // Already current: a reader of the new index evaluated it.
                outcome.untouched += 1;
                continue;
            }
            if entry.epoch != delta.from_epoch {
                // Skewed entry (outside the window): drop it and let the
                // next read re-evaluate.
                outcome.dropped += 1;
                dropped.push((key, entry));
                continue;
            }
            let affected: Vec<u64> = delta_affected_starts(kb, &entry.spec, delta)
                .unwrap_or_default()
                .into_iter()
                .filter(|s| entry.covers(*s))
                .collect();
            let next = if affected.is_empty() {
                outcome.untouched += 1;
                AllStartsDistribution {
                    table: Arc::clone(&entry.table),
                    trace: entry.trace,
                    epoch: delta.to_epoch,
                    spec: entry.spec.clone(),
                }
            } else {
                // The endpoint postings make the partial evaluation touch
                // only rows incident to the affected starts.
                let partial = self
                    .evaluate(
                        index,
                        entry.spec.clone(),
                        &affected,
                        EvalKind::Delta,
                        &Budget::unlimited(),
                    )
                    .expect("cached batch specs are valid");
                outcome.patched += 1;
                outcome.affected_starts += affected.len();
                entry.merged(&partial)
            };
            maintained.push((key, Arc::new(next)));
        }
        let mut entries = self.entries.write();
        for (key, seen) in dropped {
            if entries.get(&key).is_some_and(|live| Arc::ptr_eq(live, &seen)) {
                entries.remove(&key);
            }
        }
        entries.extend(maintained);
        self.publications.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Drops every cached entry computed before `epoch` — the
    /// **compaction fallback**: when the KB's delta log no longer reaches
    /// back to the cache's epoch, stale entries can never be patched, so
    /// they are purged wholesale and the next read re-evaluates cold.
    /// Returns the number of entries dropped.
    pub fn purge_older_than(&self, epoch: u64) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|_, entry| entry.epoch >= epoch);
        self.publications.fetch_add(1, Ordering::Relaxed);
        before - entries.len()
    }

    /// Local position of `e` (count aggregate) via the cache.
    pub fn local_position(&self, index: &EdgeIndex, e: &Explanation, start: u32) -> usize {
        let read = self
            .all_starts(index, e, &[NodeId(start)], &Budget::unlimited())
            .expect("unlimited budget never aborts");
        read.batch.position(start as u64, e.count() as u64).expect("the read covers its start")
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
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        exclude: Option<NodeId>,
        budget: &Budget,
    ) -> rex_relstore::Result<usize> {
        let read = self.all_starts(index, e, starts, budget)?;
        Ok(read.batch.position_sum(starts, exclude, e.count() as u64))
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of batched (full) relational evaluations performed by
    /// reads — one per miss, so always the miss count of
    /// [`DistributionCache::stats`]. A ranking pass performs at most one
    /// per distinct canonical pattern shape.
    pub fn batched_evals(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// An opaque fingerprint of the published entries: changes on every
    /// publication (read install, delta maintenance, purge) and only
    /// then. Entries are immutable once published, so an unchanged
    /// fingerprint proves no entry was added, dropped, or replaced — the
    /// abort-leaves-no-trace property the robustness proptests pin down
    /// without hashing the whole map.
    pub fn generation_fingerprint(&self) -> usize {
        self.publications.load(Ordering::Relaxed)
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
    use proptest::prelude::*;

    /// `counts` sorted into a descending multiset.
    fn descending(mut counts: Vec<u64>) -> Vec<u64> {
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// The runs of `counts` answer every position from 0 to max + 1 as
    /// [`position_in`] does on `counts`, and expand back to `counts`.
    fn assert_runs_match(counts: &[u64]) {
        use crate::measures::distribution::position_in;
        let mut runs = Vec::new();
        push_runs(&mut runs, counts);
        assert_eq!(expand(&runs), counts);
        let max = counts.first().copied().unwrap_or(0);
        for a in 0..=max + 1 {
            assert_eq!(runs_position(&runs, a), position_in(counts, a), "a = {a} in {counts:?}");
        }
    }

    #[test]
    fn run_length_multiset_edge_cases() {
        for counts in [vec![], vec![1], vec![4, 4, 4], vec![0, 0], vec![9, 3, 3, 1, 1, 1, 0]] {
            assert_runs_match(&counts);
        }
    }

    proptest! {
        /// Random descending multisets — the values come from a range of
        /// `width`, so width 1 makes a single run and wider ones many.
        #[test]
        fn run_length_multiset_matches_expanded(
            (width, raw) in (1u64..12, proptest::collection::vec(0u64..1000, 0..80))
        ) {
            assert_runs_match(&descending(raw.iter().map(|v| 1 + v % width).collect()));
        }

        /// Merging two run tables keeps every start of either, with the
        /// newer table's multiset wherever both cover a start.
        #[test]
        fn run_tables_merge_like_maps(
            old in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..6)), 0..30),
            new in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..6)), 0..30)
        ) {
            let table = |entries: &[(u64, Vec<u64>)]| {
                let starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
                let per_start: HashMap<u64, Vec<u64>> = entries
                    .iter()
                    .filter(|(_, c)| !c.is_empty())
                    .map(|(s, c)| (*s, descending(c.clone())))
                    .collect();
                (StartRuns::from_batch(&starts, &per_start), per_start)
            };
            let ((older, mut expected), (newer, newest)) = (table(&old), table(&new));
            for (s, _) in &new {
                expected.remove(s);
            }
            expected.extend(newest);
            let merged = older.merged(&newer);
            let mut covered: Vec<u64> = old.iter().chain(&new).map(|(s, _)| *s).collect();
            covered.sort_unstable();
            covered.dedup();
            prop_assert_eq!(&merged.starts, &covered);
            for &s in &covered {
                let runs = merged.runs_of(s).expect("merged table covers its starts");
                prop_assert_eq!(expand(runs), expected.get(&s).cloned().unwrap_or_default());
            }
        }
    }

    /// The unbudgeted batch read of `e` over `starts`.
    fn read_batch(
        cache: &DistributionCache,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
    ) -> Arc<AllStartsDistribution> {
        cache.all_starts(index, e, starts, &Budget::unlimited()).unwrap().batch
    }

    /// The unbudgeted global position of `e` over `starts`, skipping
    /// `exclude`.
    fn global(
        cache: &DistributionCache,
        index: &EdgeIndex,
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

    /// Growing a shape's domain evaluates only the starts it adds: under
    /// a zero row ceiling every start with incident rows is a tile of its
    /// own, so the growing read's tiles count exactly its new starts, not
    /// the union. A one-start read outside the domain extends the same
    /// entry, and covered reads are hits thereafter.
    #[test]
    fn domain_growth_recomputes_once() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let index = EdgeIndex::build(&kb);
        let cache = DistributionCache::with_row_ceiling(0);
        let e = &out.explanations[0];
        let spec = e.pattern.to_spec();
        let starts: Vec<NodeId> = kb
            .node_ids()
            .filter(|s| index.estimate_starts_rows(&spec, &[s.0 as u64]) > 0)
            .collect();
        assert!(starts.len() >= 4, "the toy shape has starts with incident rows");
        let (small, grown) = (&starts[..2], &starts[..starts.len() - 1]);
        let unlimited = Budget::unlimited();
        let first = cache.all_starts(&index, e, small, &unlimited).unwrap();
        assert_eq!(first.evaluated_tiles, Some(small.len()));
        let growing = cache.all_starts(&index, e, grown, &unlimited).unwrap();
        assert_eq!(
            growing.evaluated_tiles,
            Some(grown.len() - small.len()),
            "a grown read evaluates its new starts only"
        );
        assert_eq!(cache.batched_evals(), 2);
        // A one-start read outside the domain extends the same entry.
        let outside = starts[starts.len() - 1];
        assert!(!growing.batch.covers(outside.0 as u64));
        cache.counts(&index, e, outside.0);
        assert_eq!(cache.batched_evals(), 3);
        assert_eq!(cache.len(), 1, "one entry per shape");
        let all = cache.all_starts(&index, e, &starts, &unlimited).unwrap();
        assert_eq!(all.evaluated_tiles, None, "the entry covers every start read so far");
        read_batch(&cache, &index, e, small);
        assert_eq!(cache.batched_evals(), 3);
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
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().take(8).chain([a]).collect();
        let mut index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();

        let batch0 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 1);
        assert_eq!(batch0.epoch(), 0);
        cache.counts(&index, e, a.0);
        assert!(cache.cached_local_position(&index, e, a.0).is_some());

        // Mutate the KB; the refreshed index moves to epoch N+1.
        let epoch0 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();
        // The epoch-N entry no longer answers for the new index.
        assert!(cache.cached_local_position(&index, e, a.0).is_none());

        // Batched read: the epoch-N batch is refused; a fresh evaluation
        // replaces it, and it serves cached_local_position again.
        let batch1 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2, "stale batch must re-evaluate");
        assert_eq!(batch1.epoch(), kb.epoch());
        assert!(cache.cached_local_position(&index, e, a.0).is_some());
        // A second read is a warm hit — refresh happened exactly once.
        read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2);
    }

    /// apply_delta accounting: label-disjoint shapes ride for free,
    /// touched shapes are patched with one partial evaluation each, and
    /// every maintained shape serves warm reads at the new epoch.
    #[test]
    fn apply_delta_maintains_batches() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().collect();
        let mut index = EdgeIndex::build(&kb);
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
        assert_eq!(m.patched + m.dropped, 0);
        let evals = cache.batched_evals();
        for e in &out.explanations {
            read_batch(&cache, &index, e, &starts);
        }
        assert_eq!(cache.batched_evals(), evals, "maintained shapes serve warm");

        // Now touch 'starring': shapes over it are patched, never
        // re-evaluated whole.
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        let m2 = cache.apply_delta(&kb, &index, &delta2);
        assert_eq!(m2.patched + m2.untouched, shapes);
        assert!(m2.patched > 0, "starring shapes are touched");
        assert_eq!(cache.delta_evals(), m2.patched, "one partial evaluation per patched shape");
        assert!(m2.affected_starts > 0);
        assert_eq!(cache.batched_evals(), evals, "maintenance runs no full batch");
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

    /// One-start entries ride `apply_delta` like any other: entries whose
    /// shape labels are disjoint from a delta are republished unchanged,
    /// touched ones are patched — and either way the next read is a hit
    /// that equals a scratch rebuild at the new epoch.
    #[test]
    fn label_disjoint_overlays_survive_apply_delta() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let mut index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();
        // Warm one-start entries only.
        let warm: Vec<Arc<Vec<u64>>> =
            out.explanations.iter().map(|e| cache.counts(&index, e, a.0)).collect();
        let shapes = cache.len();
        let (_, misses_warm) = cache.stats();

        // Delta on a brand-new label: disjoint from every cached shape.
        let epoch0 = kb.epoch();
        let award = kb.intern_label("awarded");
        let trophy = kb.insert_node("a_trophy", "Award");
        kb.insert_edge(a, trophy, award, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();
        let m = cache.apply_delta(&kb, &index, &delta);
        assert_eq!((m.untouched, m.patched), (shapes, 0));
        for (e, before) in out.explanations.iter().zip(&warm) {
            assert_eq!(&cache.counts(&index, e, a.0), before, "{}", e.describe(&kb));
        }
        assert_eq!(cache.stats().1, misses_warm, "label-disjoint entries ride the delta for free");

        // Delta on 'starring': entries of starring shapes around the pair
        // are patched, the rest ride along; no read misses, and every
        // answer equals a scratch rebuild.
        let starring = kb.label_by_name("starring").unwrap();
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        let m2 = cache.apply_delta(&kb, &index, &delta2);
        assert!(m2.patched > 0, "brad_pitt's starring shapes are touched");
        assert_eq!(m2.patched + m2.untouched, shapes);
        let scratch_index = EdgeIndex::build(&kb);
        let scratch = DistributionCache::new();
        for (e, before) in out.explanations.iter().zip(&warm) {
            let maintained = cache.counts(&index, e, a.0);
            assert_eq!(maintained, scratch.counts(&scratch_index, e, a.0), "{}", e.describe(&kb));
            if e.pattern.to_spec().edges.iter().all(|se| se.label != starring.0 as u64) {
                assert_eq!(&maintained, before, "{}", e.describe(&kb));
            }
        }
        assert_eq!(cache.stats().1, misses_warm, "maintained entries serve without a miss");
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

        // Two threads extending one entry with disjoint start sets both
        // end up covered, whichever installs first.
        let e = &out.explanations[0];
        let starts: Vec<NodeId> = kb.node_ids().collect();
        let (left, right) = starts.split_at(starts.len() / 2);
        let barrier = std::sync::Barrier::new(2);
        crossbeam::thread::scope(|scope| {
            for half in [left, right] {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move |_| {
                    barrier.wait();
                    read_batch(cache, index, e, half);
                });
            }
        })
        .expect("scope");
        let read = cache.all_starts(index, e, &starts, &Budget::unlimited()).unwrap();
        assert_eq!(read.evaluated_tiles, None, "both extensions must survive");
    }
}
