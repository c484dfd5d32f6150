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
//! 3. **Cost-ordered prewarm**: distinct shapes are evaluated
//!    cheapest-first, the cost estimated from the per-label edge-relation
//!    sizes ([`EdgeIndex::estimate_eval_cost`], the same label-cardinality
//!    statistics `rex_kb::stats::label_cardinalities` exposes) — the
//!    Discover-style "small relations first" lesson the enumerator
//!    already applies to join ordering, lifted to whole shapes. The
//!    sorted shapes are dealt round-robin across workers so
//!    contiguous-chunk schedulers don't hand the whole heavy tail to one
//!    worker.
//! 4. **Memory-bounded evaluation**: an intermediate-row ceiling tiles
//!    each batch's start set ([`DistributionCache::with_row_ceiling`]) so
//!    peak join intermediates stay bounded regardless of frame size.
//! 5. **Parallel position phase**: pairs fan out over rayon; every
//!    position query is a cache hit by then.
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
//! [`EdgeIndex::estimate_eval_cost`]:
//!     rex_relstore::engine::EdgeIndex::estimate_eval_cost
//! [`ServingState::try_serve`]: crate::ranking::ServingState::try_serve

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::budget::{AbortReason, Budget};
use rex_relstore::engine::ShardedEdgeIndex;

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
    /// Worker threads for the prewarm and position phases (0 = rayon's
    /// default width).
    pub threads: usize,
    /// Best-effort ceiling on join-produced intermediate rows per batched
    /// evaluation; `None` disables tiling.
    pub row_ceiling: Option<usize>,
    /// Entity-hash shards of the edge index (≥ 1): cold batched
    /// evaluations split their start set by shard residency and fan out
    /// in parallel ([`ShardedEdgeIndex`]). `1` is the unsharded path.
    pub shards: usize,
}

impl Default for RankPairsConfig {
    fn default() -> Self {
        RankPairsConfig {
            k: 10,
            global_samples: 100,
            seed: 0xDB9,
            threads: 0,
            // Generous default: roughly the intermediate size at which
            // materialized joins start to dominate memory on commodity
            // hardware; small enough to split genuinely hub-heavy shapes.
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
    /// Batched relational evaluations this run performed itself
    /// (≤ `distinct_shapes` when no concurrent maintenance outdates its
    /// batches); evaluations by other readers or by maintenance sharing
    /// the cache are not counted.
    pub batched_evals: usize,
    /// Start tiles evaluated by this run's own batches.
    pub tiles: usize,
    /// Largest intermediate relation (rows) materialized by any batch
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
    index: &ShardedEdgeIndex,
    frame: &Arc<SampleFrame>,
    cache: &DistributionCache,
) -> RankPairsOutcome {
    rank_pass(pairs, cfg, index, frame, cache, &Budget::unlimited())
}

/// `(evaluations, tiles)` a cache read performed itself.
fn own_work(read: &BatchRead) -> (usize, usize) {
    read.evaluated_tiles.map_or((0, 0), |tiles| (1, tiles))
}

/// The ranking pass behind every entry point, under a [`Budget`]: the
/// deadline, cancellation token, and row budget are checked at every tile
/// boundary of every batched evaluation, and the workload **degrades
/// pair-by-pair** rather than all-or-nothing. A pair whose shapes were
/// all evaluated (or warm) before the budget fired is ranked exactly; a
/// pair that needed an aborted evaluation lands in
/// [`RankPairsOutcome::shed`] with an empty ranking slot. Aborted
/// evaluations leave the shared cache untouched, so a follow-up run (with
/// a fresh budget) picks up exactly where the warm shapes left off.
pub(crate) fn rank_pass(
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
    index: &ShardedEdgeIndex,
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

    // Cost-ordered prewarm: cheapest shapes first (deterministic ties),
    // cost read from the edge index's per-(label, orientation) relation
    // sizes — one cost model shared with the tiling estimator.
    let mut ordered: Vec<(u64, &Explanation)> = shapes
        .into_values()
        .map(|e| (index.base().estimate_eval_cost(&e.pattern.to_spec()), e))
        .collect();
    ordered.sort_by(|(ca, a), (cb, b)| ca.cmp(cb).then_with(|| a.key().cmp(b.key())));

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .expect("thread pool construction is infallible");
    pool.install(|| {
        // Deal the cost-sorted shapes round-robin into one lane per worker
        // and concatenate: a contiguous-chunk scheduler (the vendored
        // rayon) then gives every worker a similar cost mix instead of
        // handing the entire heavy tail to the last chunk; a
        // work-stealing scheduler is indifferent to the permutation.
        let workers = rayon::current_num_threads().max(1);
        let mut dealt: Vec<&Explanation> = Vec::with_capacity(ordered.len());
        for lane in 0..workers {
            dealt.extend(ordered.iter().skip(lane).step_by(workers).map(|(_, e)| *e));
        }
        // Prewarm under the budget: a shape whose evaluation aborts stays
        // cold (the cache is untouched) and is simply skipped here — the
        // position phase retries it per pair and sheds exactly the pairs
        // that still need it.
        let reads: Vec<Option<BatchRead>> = dealt
            .par_iter()
            .map(|e| cache.all_starts(index, e, frame.starts(), budget).ok())
            .collect();
        let batches = || reads.iter().flatten().map(|r| &r.batch);
        let peak_rows = batches().map(|b| b.peak_rows()).max().unwrap_or(0);
        let est_peak_rows = batches().map(|b| b.est_peak_rows()).max().unwrap_or(0);
        let overflow_tiles: usize = batches().map(|b| b.overflow_tiles()).sum();
        let (mut batched_evals, mut tiles) = (0, 0);
        for (evals, t) in reads.iter().flatten().map(own_work) {
            batched_evals += evals;
            tiles += t;
        }

        // Position phase: warm shapes are cache hits; pairs fan out, each
        // applying its own read-time exclusion to the shared batches. A
        // pair that hits an aborted (still-cold) shape is shed whole —
        // partial scores would rank explanations against each other on
        // incomparable evidence.
        type PairResult = (std::result::Result<Vec<Ranked>, AbortReason>, (usize, usize));
        let per_pair: Vec<PairResult> = pairs
            .par_iter()
            .map(|pair| {
                let mut work = (0, 0);
                let mut scores: Vec<f64> = Vec::with_capacity(pair.explanations.len());
                for e in pair.explanations {
                    match cache.all_starts(index, e, frame.starts(), budget) {
                        Ok(read) => {
                            let (evals, t) = own_work(&read);
                            work = (work.0 + evals, work.1 + t);
                            let a = e.count() as u64;
                            let pos = read.batch.position_sum(frame.starts(), Some(pair.start), a);
                            scores.push(-(pos as f64));
                        }
                        Err(rex_relstore::RelError::Aborted(reason)) => return (Err(reason), work),
                        Err(err) => panic!("explanation patterns are valid specs: {err}"),
                    }
                }
                (Ok(rank_with_scores(pair.explanations, &scores, cfg.k)), work)
            })
            .collect();
        let mut rankings: Vec<Vec<Ranked>> = Vec::with_capacity(per_pair.len());
        let mut shed: Vec<ShedPair> = Vec::new();
        for (i, (outcome, (evals, t))) in per_pair.into_iter().enumerate() {
            batched_evals += evals;
            tiles += t;
            match outcome {
                Ok(ranked) => rankings.push(ranked),
                Err(reason) => {
                    shed.push(ShedPair { pair: i, reason });
                    rankings.push(Vec::new());
                }
            }
        }

        RankPairsOutcome {
            rankings,
            distinct_shapes,
            batched_evals,
            tiles,
            peak_rows,
            est_peak_rows,
            overflow_tiles,
            shed,
        }
    })
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
            shards: 3,
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
    /// when shapes recur (they do on the toy KB).
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
            shards: 1,
        };
        let outcome = rank_pairs(&kb, &tasks, &cfg).unwrap();
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
            shards: 2,
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
        let index = ShardedEdgeIndex::build(&kb, rex_relstore::engine::ShardSpec::single());
        let unbounded = DistributionCache::new();
        let _ = rank_pairs_with(&[], &cfg, &index, &frame, &unbounded);
    }
}
