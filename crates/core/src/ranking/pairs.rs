//! Cross-pair ranking over one shared sample frame — the workload-level
//! driver for Table 1 / Figure 10 style deployments that rank
//! explanations for **many** target pairs of the same knowledge base.
//!
//! The per-pair pipeline (PR 1) already evaluates each pattern shape once
//! per pair; this driver takes §5.3.2's amortization across pairs:
//!
//! 1. **One shared [`SampleFrame`]** (fixed, seeded start sample per KB)
//!    with per-pair start exclusion applied at *read* time, so every
//!    pair's batched evaluation covers the identical domain.
//! 2. **One shared [`DistributionCache`]**: the batched evaluation budget
//!    for the workload is the number of *distinct canonical shapes across
//!    all pairs*, not Σ per-pair shapes.
//! 3. **Hits first, then a cost-ordered prewarm of the misses**: every
//!    distinct shape whose published entry already serves the frame is
//!    read first, on the calling thread, with nothing priced. Only the
//!    shapes that miss are priced from the per-label edge-relation sizes
//!    ([`EdgeIndex::estimate_eval_cost`], the same label-cardinality
//!    statistics `rex_kb::stats::label_cardinalities` exposes) and handed
//!    to the workers heaviest-first, so an all-hit request prices nothing
//!    and builds no pool. Workers claim the next shape as they free up,
//!    so this is longest-processing-time-first scheduling (Graham 1969):
//!    the heavy shapes start at once and the light ones fill in behind
//!    them, instead of one worker finishing the pass alone on a heavy
//!    shape it reached last.
//! 4. **Work-bounded evaluation**: a row ceiling tiles each batch's start
//!    set by estimated instance rows
//!    ([`DistributionCache::with_row_ceiling`]), so each tile's work — and
//!    the row budget charged per tile — stays bounded regardless of frame
//!    size.
//! 5. **One read per shape**: the hit reads and the prewarm's reads are
//!    the pass's only cache accesses. Every pair is then scored from
//!    those reads in a plain loop, so a request reads each distinct shape
//!    exactly once.
//! 6. **Merge walks over the frame**: the frame keeps its draws as a
//!    [`DrawTable`](crate::measures::frame::DrawTable), its distinct
//!    starts ascending with their multiplicities, and a cache entry keeps
//!    its starts ascending. A hit's covering check and each
//!    explanation's position sum are therefore one merge walk of the two
//!    arrays. The sum skips every draw of the pair's own start at once
//!    and counts each other start's position once per draw.
//!
//! Every ranking request runs this one pass, under a [`Budget`] that the
//! unbudgeted entry points leave unlimited: [`rank_pairs`] (a one-shot
//! session), [`rank_pairs_with`] (caller-provided pieces),
//! [`Snapshot::rank`](crate::ranking::Snapshot::rank) (a pinned serving
//! epoch) and [`ServingState::try_serve`] (admission control first). The
//! outcome's evaluation counts are the request's own: every cache read
//! reports whether it evaluated ([`BatchRead`]), so concurrent readers
//! and maintenance sharing the cache are never charged to it.
//!
//! [`ServingState::try_serve`]: crate::ranking::ServingState::try_serve

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::budget::{AbortReason, Budget};
use rex_relstore::engine::EdgeIndex;
use rex_relstore::RelError;

use crate::canonical::CanonicalKey;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::measures::cache::{BatchRead, DistributionCache};
use crate::measures::frame::SampleFrame;
use crate::ranking::general::{rank_with_scores, Ranked};

/// One target pair's share of a workload: the pair and its enumerated
/// explanations (enumeration is pair-local and stays with the caller).
#[derive(Debug, Clone, Copy)]
pub struct PairExplanations<'a> {
    /// Start target entity.
    pub start: NodeId,
    /// End target entity.
    pub end: NodeId,
    /// The pair's enumerated explanations.
    pub explanations: &'a [Explanation],
}

/// Configuration of a [`rank_pairs`] run.
#[derive(Debug, Clone)]
pub struct RankPairsConfig {
    /// Ranking depth per pair.
    pub k: usize,
    /// Sample-frame size (the paper's ~100).
    pub global_samples: usize,
    /// Sample-frame seed.
    pub seed: u64,
    /// Worker threads for the prewarm's reads of the shapes that miss the
    /// cache (0 = rayon's default width).
    pub threads: usize,
    /// Best-effort ceiling on the estimated instance rows of each tile of
    /// a batched evaluation; `None` disables tiling.
    pub row_ceiling: Option<usize>,
    /// Ignored: start-hash buckets are retired, and `threads` is the one
    /// parallelism setting. Kept so configs written against the sharded
    /// API still compile.
    pub shards: usize,
}

impl Default for RankPairsConfig {
    fn default() -> Self {
        RankPairsConfig {
            k: 10,
            global_samples: 100,
            seed: 0xDB9,
            threads: 0,
            // Generous default: large enough that most batches run as one
            // tile, small enough to split genuinely hub-heavy shapes so
            // that no single tile's walk (and row-budget charge) grows
            // without bound. The depth-first walk holds no intermediate
            // relation, so this bounds work per tile, not memory.
            row_ceiling: Some(1 << 20),
            shards: 1,
        }
    }
}

/// One pair a budgeted run could not finish: the evaluation of some
/// shape it needed aborted (deadline, cancellation, row budget). Its slot
/// in [`RankPairsOutcome::rankings`] is an **empty** ranking — never a
/// partial or silently-wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPair {
    /// Index into the input `pairs` slice.
    pub pair: usize,
    /// Why the pair's evaluation stopped.
    pub reason: AbortReason,
}

/// The result of a [`rank_pairs`] run: per-pair rankings (parallel to the
/// input slice) plus the workload-level accounting that makes the sharing
/// observable.
#[derive(Debug)]
pub struct RankPairsOutcome {
    /// Top-k per input pair, in input order. Shed pairs (budgeted runs
    /// only) hold an empty ranking.
    pub rankings: Vec<Vec<Ranked>>,
    /// Distinct canonical pattern shapes across the whole workload.
    pub distinct_shapes: usize,
    /// Batched relational evaluations this run performed itself, at most
    /// one per shape (≤ `distinct_shapes`); evaluations by other readers
    /// or by maintenance sharing the cache are not counted.
    pub batched_evals: usize,
    /// Start tiles evaluated by this run's own batches.
    pub tiles: usize,
    /// Largest number of bindings one level of one tile made in any batch
    /// *backing this workload's shapes* — carried on the batches
    /// themselves, so it is attributed correctly even when a reused cache
    /// answers some shapes without re-evaluating them.
    pub peak_rows: usize,
    /// Largest **estimated** per-tile input rows of any batch — the
    /// quantity the row ceiling actually bounds. The measured
    /// [`peak_rows`](Self::peak_rows) may legally exceed the ceiling on
    /// estimate error or singleton hub tiles; this one may not, unless
    /// [`overflow_tiles`](Self::overflow_tiles) is non-zero.
    pub est_peak_rows: usize,
    /// Tiles whose estimated rows exceeded the ceiling — singleton hub
    /// starts no split could shrink (0 without a ceiling).
    pub overflow_tiles: usize,
    /// Pairs a budgeted run shed instead of finishing, in input order —
    /// the graceful-degradation ledger. Always empty for unbudgeted runs.
    pub shed: Vec<ShedPair>,
}

/// Ranks every pair of a workload by (negated) global distributional
/// position through one shared frame, index, and cache — a one-shot
/// [`ServingState`](crate::ranking::ServingState) session: build, pin a
/// snapshot, rank. Use [`rank_pairs_with`] to share pre-built pieces
/// (e.g. to keep index construction out of a benchmark's timed region),
/// or keep the [`ServingState`](crate::ranking::ServingState) around to
/// serve further reads and KB updates.
pub fn rank_pairs(
    kb: &KnowledgeBase,
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
) -> Result<RankPairsOutcome> {
    let state = crate::ranking::serve::ServingState::build(kb, cfg)?;
    Ok(state.snapshot().rank(pairs, cfg, &Budget::unlimited()))
}

/// [`rank_pairs`] over caller-provided frame, edge index, and cache (the
/// KB itself is not needed: its statistics reach the driver through the
/// edge index). Tiling is governed by the **cache's** row ceiling — set
/// at construction via [`DistributionCache::with_row_ceiling`] — so the
/// config's `row_ceiling` must agree with it; a mismatch panics rather
/// than silently running with a ceiling the caller didn't ask for.
pub fn rank_pairs_with(
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
    index: &EdgeIndex,
    frame: &Arc<SampleFrame>,
    cache: &DistributionCache,
) -> RankPairsOutcome {
    rank_pass(pairs, cfg, index, frame, cache, &Budget::unlimited())
}

/// The ranking pass behind every entry point, under a [`Budget`]: the
/// deadline, cancellation token, and row budget are checked at every tile
/// boundary of every batched evaluation, and the workload **degrades
/// pair-by-pair** rather than all-or-nothing. The pass reads each
/// distinct shape from the cache exactly once, then scores every pair
/// from those reads with no further cache access. A pair whose shapes
/// were all read is ranked exactly; a pair that needs a shape whose read
/// aborted lands in [`RankPairsOutcome::shed`] with an empty ranking
/// slot. Aborted evaluations leave the shared cache untouched, so a
/// follow-up run (with a fresh budget) picks up exactly where the warm
/// shapes left off.
pub(crate) fn rank_pass(
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
    index: &EdgeIndex,
    frame: &Arc<SampleFrame>,
    cache: &DistributionCache,
    budget: &Budget,
) -> RankPairsOutcome {
    assert_eq!(
        cache.row_ceiling(),
        cfg.row_ceiling,
        "rank_pairs_with: the cache's row ceiling disagrees with cfg.row_ceiling; \
         construct the cache with DistributionCache::with_row_ceiling to match"
    );
    // Distinct shapes across the whole workload, one representative each.
    let mut shapes: HashMap<&CanonicalKey, &Explanation> = HashMap::new();
    for pair in pairs {
        for e in pair.explanations {
            shapes.entry(e.key()).or_insert(e);
        }
    }
    let distinct_shapes = shapes.len();

    // The pass's only cache reads, one per shape, under the budget. The
    // shapes a published entry serves are read first, on this thread.
    let draws = frame.draws();
    let mut reads: HashMap<&CanonicalKey, std::result::Result<BatchRead, AbortReason>> =
        HashMap::with_capacity(distinct_shapes);
    let mut missed = Vec::new();
    for (key, e) in shapes {
        match cache.lookup(index, e, draws) {
            Ok(read) => {
                reads.insert(key, Ok(read));
            }
            Err(_) => missed.push(e),
        }
    }
    if !missed.is_empty() {
        // Cost-ordered evaluation of the misses: heaviest shapes first,
        // ties by canonical key, cost read from the edge index's
        // per-(label, orientation) relation sizes — one cost model shared
        // with the tiling estimator.
        let mut ordered: Vec<(u64, &Explanation)> = missed
            .into_iter()
            .map(|e| (index.estimate_eval_cost(&e.pattern.to_spec()), e))
            .collect();
        ordered.sort_by(|(ca, a), (cb, b)| cb.cmp(ca).then_with(|| a.key().cmp(b.key())));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.threads)
            .build()
            .expect("thread pool construction is infallible");
        // An aborted read leaves its shape cold and the cache untouched;
        // scoring sheds exactly the pairs that need it.
        reads.extend(pool.install(|| {
            ordered
                .par_iter()
                .map(|&(_, e)| {
                    let read = match cache.read(index, e, draws, budget) {
                        Ok(read) => Ok(read),
                        Err(RelError::Aborted(reason)) => Err(reason),
                        Err(err) => panic!("explanation patterns are valid specs: {err}"),
                    };
                    (e.key(), read)
                })
                .collect::<Vec<_>>()
        }));
    }

    let mut outcome = RankPairsOutcome {
        rankings: Vec::with_capacity(pairs.len()),
        distinct_shapes,
        batched_evals: 0,
        tiles: 0,
        peak_rows: 0,
        est_peak_rows: 0,
        overflow_tiles: 0,
        shed: Vec::new(),
    };
    for read in reads.values().flatten() {
        let trace = read.batch.trace();
        outcome.peak_rows = outcome.peak_rows.max(trace.peak_rows);
        outcome.est_peak_rows = outcome.est_peak_rows.max(trace.est_peak_rows);
        outcome.overflow_tiles += trace.overflow_tiles;
        if let Some(tiles) = read.evaluated_tiles {
            outcome.batched_evals += 1;
            outcome.tiles += tiles;
        }
    }

    // Scoring: each pair applies its own read-time exclusion to the shared
    // batches. A pair that needs an aborted shape is shed whole, with the
    // reason of its first such explanation — partial scores would rank
    // explanations against each other on incomparable evidence.
    for (i, pair) in pairs.iter().enumerate() {
        let scores: std::result::Result<Vec<f64>, AbortReason> = pair
            .explanations
            .iter()
            .map(|e| {
                let read = reads[e.key()].as_ref().map_err(|reason| *reason)?;
                let pos = read.batch.position_sum(draws, Some(pair.start), e.count() as u64);
                Ok(-(pos as f64))
            })
            .collect();
        outcome.rankings.push(match scores {
            Ok(scores) => rank_with_scores(pair.explanations, &scores, cfg.k),
            Err(reason) => {
                outcome.shed.push(ShedPair { pair: i, reason });
                Vec::new()
            }
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::measures::MeasureContext;
    use crate::ranking::distribution::{rank_by_position, Scope};
    use crate::EnumConfig;

    fn toy_workload() -> (rex_kb::KnowledgeBase, Vec<(NodeId, NodeId, Vec<Explanation>)>) {
        let kb = rex_kb::toy::entertainment();
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3));
        let pairs = [
            ("brad_pitt", "angelina_jolie"),
            ("kate_winslet", "leonardo_dicaprio"),
            ("george_clooney", "julia_roberts"),
        ];
        let prepared = pairs
            .iter()
            .map(|(s, e)| {
                let a = kb.require_node(s).unwrap();
                let b = kb.require_node(e).unwrap();
                let out = enumerator.enumerate(&kb, a, b);
                (a, b, out.explanations)
            })
            .collect();
        (kb, prepared)
    }

    /// The shared-frame workload ranking equals each pair ranked alone
    /// with a private cache over the same frame parameters — the
    /// cross-pair sharing is a pure optimization.
    #[test]
    fn shared_frame_matches_private_per_pair_ranking() {
        let (kb, prepared) = toy_workload();
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let cfg = RankPairsConfig {
            k: 5,
            global_samples: 20,
            seed: 11,
            threads: 2,
            row_ceiling: Some(64),
            ..RankPairsConfig::default()
        };
        let outcome = rank_pairs(&kb, &tasks, &cfg).unwrap();
        assert_eq!(outcome.rankings.len(), tasks.len());
        for ((s, e, ex), ranking) in prepared.iter().zip(&outcome.rankings) {
            let ctx = MeasureContext::new(&kb, *s, *e).with_global_samples(20, 11);
            let private = rank_by_position(ex, &ctx, 5, Scope::Global, false);
            let shared_scores: Vec<f64> = ranking.iter().map(|r| r.score).collect();
            let private_scores: Vec<f64> = private.iter().map(|r| r.score).collect();
            assert_eq!(shared_scores, private_scores, "pair {s:?}→{e:?}");
            let shared_idx: Vec<usize> = ranking.iter().map(|r| r.index).collect();
            let private_idx: Vec<usize> = private.iter().map(|r| r.index).collect();
            assert_eq!(shared_idx, private_idx, "pair {s:?}→{e:?}");
        }
    }

    /// The workload-wide evaluation budget is the number of distinct
    /// shapes across all pairs — strictly fewer than Σ per-pair shapes
    /// when shapes recur (they do on the toy KB) — and a pass reads the
    /// cache exactly once per distinct shape, cold or warm.
    #[test]
    fn workload_evaluates_once_per_distinct_shape() {
        let (kb, prepared) = toy_workload();
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let per_pair_shapes: usize = prepared.iter().map(|(_, _, ex)| ex.len()).sum();
        let cfg = RankPairsConfig {
            k: 5,
            global_samples: 12,
            seed: 3,
            threads: 1,
            row_ceiling: None,
            ..RankPairsConfig::default()
        };
        let index = EdgeIndex::build(&kb);
        let frame = Arc::new(SampleFrame::sample(&kb, cfg.global_samples, cfg.seed).unwrap());
        let cache = DistributionCache::new();
        let reads = || {
            let (hits, misses) = cache.stats();
            hits + misses
        };
        for pass in ["cold", "warm"] {
            let before = reads();
            let outcome = rank_pairs_with(&tasks, &cfg, &index, &frame, &cache);
            assert_eq!(reads() - before, outcome.distinct_shapes, "{pass} pass cache reads");
            assert!(outcome.distinct_shapes > 0);
            assert!(outcome.batched_evals <= outcome.distinct_shapes);
            assert!(
                outcome.distinct_shapes < per_pair_shapes,
                "toy pairs share shapes ({} vs {per_pair_shapes})",
                outcome.distinct_shapes
            );
            // Untiled: exactly one tile per batch.
            assert_eq!(outcome.tiles, outcome.batched_evals);
        }
    }

    /// `k = 0` ranks nothing for any pair, and sheds none.
    #[test]
    fn zero_depth_ranks_nothing() {
        let (kb, prepared) = toy_workload();
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let cfg =
            RankPairsConfig { k: 0, global_samples: 8, seed: 5, ..RankPairsConfig::default() };
        let outcome = rank_pairs(&kb, &tasks, &cfg).unwrap();
        assert!(outcome.distinct_shapes > 0);
        assert_eq!(outcome.rankings.len(), tasks.len());
        assert!(outcome.rankings.iter().all(Vec::is_empty));
        assert!(outcome.shed.is_empty());
    }

    /// A tight row ceiling tiles the batches without changing rankings.
    #[test]
    fn row_ceiling_changes_tiling_not_results() {
        let (kb, prepared) = toy_workload();
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let base = RankPairsConfig {
            k: 4,
            global_samples: 16,
            seed: 6,
            threads: 2,
            row_ceiling: None,
            ..RankPairsConfig::default()
        };
        let tight = RankPairsConfig { row_ceiling: Some(1), ..base.clone() };
        let untiled = rank_pairs(&kb, &tasks, &base).unwrap();
        let tiled = rank_pairs(&kb, &tasks, &tight).unwrap();
        for (u, t) in untiled.rankings.iter().zip(&tiled.rankings) {
            let us: Vec<(usize, f64)> = u.iter().map(|r| (r.index, r.score)).collect();
            let ts: Vec<(usize, f64)> = t.iter().map(|r| (r.index, r.score)).collect();
            assert_eq!(us, ts);
        }
        assert!(tiled.tiles > untiled.tiles);
        assert!(tiled.peak_rows <= untiled.peak_rows.max(1));
    }

    #[test]
    fn empty_workload_is_fine() {
        let kb = rex_kb::toy::entertainment();
        let outcome = rank_pairs(&kb, &[], &RankPairsConfig::default()).unwrap();
        assert!(outcome.rankings.is_empty());
        assert_eq!(outcome.distinct_shapes, 0);
        assert_eq!(outcome.batched_evals, 0);
    }

    /// A cache whose ceiling disagrees with the config is a configuration
    /// bug; it must fail loudly, not silently run with the wrong bound.
    #[test]
    #[should_panic(expected = "row ceiling disagrees")]
    fn mismatched_row_ceiling_panics() {
        let kb = rex_kb::toy::entertainment();
        let cfg = RankPairsConfig { row_ceiling: Some(4096), ..RankPairsConfig::default() };
        let frame = Arc::new(SampleFrame::sample(&kb, 4, 1).unwrap());
        let index = EdgeIndex::build(&kb);
        let unbounded = DistributionCache::new();
        let _ = rank_pairs_with(&[], &cfg, &index, &frame, &unbounded);
    }
}
