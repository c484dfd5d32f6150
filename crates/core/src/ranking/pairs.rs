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
//! 3. **Hits first, then the misses cheapest-first**: every distinct
//!    shape whose published entry already answers its explanations is
//!    read first, on the calling thread, with nothing priced — a covering
//!    entry answers exactly; a partial one answers when its explanations
//!    are already ranked out (item 5). Only the shapes that miss are
//!    priced from the per-label edge-relation sizes
//!    ([`EdgeIndex::estimate_eval_cost`], the same label-cardinality
//!    statistics `rex_kb::stats::label_cardinalities` exposes) and handed
//!    to the workers cheapest-first, so an all-hit request prices nothing
//!    and builds no pool, and the cheap shapes complete first and tighten
//!    the bounds the heavy ones are read under. Workers claim the next
//!    shape as they free up.
//! 4. **One walk per batch, preemptible at every start**: a miss
//!    evaluates all the starts it lacks in one depth-first walk, which
//!    holds one value per variable however many starts it covers, and
//!    the request's [`Budget`] is checked before each start, so a
//!    deadline or cancellation stops a batch after at most one more
//!    start, whatever the frame size.
//! 5. **One bounded read per shape** (§5.3.2's `LIMIT p` pruning, as a
//!    threshold stop in the manner of Fagin, Lotem and Naor's threshold
//!    algorithm): each pair keeps the k-th smallest exact position sum
//!    known so far, seeded from the hits before anything is evaluated and
//!    tightened as each miss completes. An explanation's position sum
//!    over the starts evaluated so far, its pair's own start excluded, is
//!    a lower bound on its full sum; once it exceeds the pair's bound the
//!    explanation cannot enter the top-k and is ranked out without an
//!    exact score. A miss's walk stops at the first start after which
//!    this holds for every explanation waiting on the shape, and the
//!    cache keeps the starts it evaluated
//!    ([`DistributionCache`]'s partial entries). The hit reads and the
//!    misses' reads are the pass's only cache accesses, one per shape;
//!    every pair is then scored from their answers in a plain loop.
//!    Rankings and scores equal the unpruned pass's: a ranked-out
//!    explanation's true sum exceeds the final k-th best, which only
//!    falls as the pass goes on.
//! 6. **Merge walks over the frame**: the frame keeps its draws as a
//!    [`DrawTable`](crate::measures::frame::DrawTable), its distinct
//!    starts ascending with their multiplicities, and a cache entry keeps
//!    its starts ascending. An explanation's position sum over what an
//!    entry covers, and whether it covers every draw the sum counts, are
//!    therefore one merge walk of the two arrays. The sum skips every
//!    draw of the pair's own start at once and counts each other start's
//!    position once per draw.
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

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;
use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::budget::{AbortReason, Budget};
use rex_relstore::engine::EdgeIndex;
use rex_relstore::RelError;

use crate::canonical::CanonicalKey;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::measures::cache::{BatchRead, DistributionCache, Waiter};
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
    /// Worker threads for the ranking pass's reads of the shapes that
    /// miss the cache (0 = rayon's default width).
    pub threads: usize,
    /// Ignored: the row ceiling is retired, every batch is one walk, and
    /// the budget is checked before each start. Kept so configs written
    /// against the tiled API still compile.
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
            row_ceiling: None,
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
    /// Walks evaluated by this run's own batches: one per batched
    /// evaluation ([`EvalTrace::tiles`](rex_relstore::metrics::EvalTrace::tiles)).
    pub tiles: usize,
    /// Largest number of bindings one level of one walk made in any batch
    /// *backing this workload's shapes* — carried on the batches
    /// themselves, so it is attributed correctly even when a reused cache
    /// answers some shapes without re-evaluating them.
    pub peak_rows: usize,
    /// Always 0: the row ceiling whose estimates this reported is
    /// retired. Kept so code written against the tiled API still
    /// compiles.
    pub est_peak_rows: usize,
    /// Always 0, like [`est_peak_rows`](Self::est_peak_rows).
    pub overflow_tiles: usize,
    /// Explanations of the ranked pairs that the pruning bound ranked out
    /// without an exact score: their position sum over the starts read
    /// so far already exceeded their pair's k-th best.
    pub ranked_out: usize,
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
/// edge index).
pub fn rank_pairs_with(
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
    index: &EdgeIndex,
    frame: &Arc<SampleFrame>,
    cache: &DistributionCache,
) -> RankPairsOutcome {
    rank_pass(pairs, cfg, index, frame, cache, &Budget::unlimited())
}

/// Takes one exact position sum of a pair's explanation into the pair's
/// pruning bound: `smallest`, a max-heap of the k smallest exact sums
/// known, and `cutoff`, one more than the k-th smallest once k are known
/// — an explanation whose lower bound reaches the cutoff is strictly
/// worse than k others and cannot enter the top-k.
fn admit(smallest: &mut BinaryHeap<usize>, k: usize, cutoff: &AtomicUsize, sum: usize) {
    if smallest.len() == k {
        match smallest.peek() {
            Some(&kth) if sum < kth => {
                smallest.pop();
            }
            _ => return,
        }
    }
    smallest.push(sum);
    if smallest.len() == k {
        let kth = *smallest.peek().expect("k > 0 sums");
        cutoff.store(kth.saturating_add(1), Ordering::Relaxed);
    }
}

/// The ranking pass behind every entry point, under a [`Budget`]: the
/// deadline, cancellation token, and row budget are checked before every
/// start of every batched evaluation, and the workload **degrades
/// pair-by-pair** rather than all-or-nothing. The pass reads each
/// distinct shape from the cache exactly once, as a bounded read for the
/// explanations waiting on it, and scores every pair from those reads
/// with no further cache access.
///
/// Each pair keeps a bound: the k-th smallest exact position sum known
/// so far. Published entries seed it before anything is evaluated, and
/// every shape that completes tightens it. A read stops evaluating once
/// each of its explanations' position sums over the starts evaluated so
/// far, the pair's own start excluded, exceeds its pair's bound: such an
/// explanation is ranked out without an exact score, which cannot change
/// the top-k, since its true sum exceeds the final k-th best. Rankings
/// and scores are therefore those of the unpruned pass.
///
/// A pair that needs a shape whose read aborted lands in
/// [`RankPairsOutcome::shed`] with an empty ranking slot. Aborted
/// evaluations leave the shared cache untouched, so a follow-up run (with
/// a fresh budget) picks up exactly where the warm shapes left off.
pub(crate) fn rank_pass(
    pairs: &[PairExplanations<'_>],
    cfg: &RankPairsConfig,
    index: &EdgeIndex,
    frame: &Arc<SampleFrame>,
    cache: &DistributionCache,
    budget: &Budget,
) -> RankPairsOutcome {
    let k = cfg.k;
    // Each pair's bound: its cutoff (0 when k is 0: every explanation is
    // out; `usize::MAX` until k exact sums are known; it only falls) and
    // the max-heap of the k smallest exact sums it derives from. A cutoff
    // publishes no other data, and a reader that misses a store sees a
    // larger one and only prunes less, so its loads and stores are
    // relaxed.
    let cutoffs: Vec<AtomicUsize> =
        pairs.iter().map(|_| AtomicUsize::new(if k == 0 { 0 } else { usize::MAX })).collect();
    let mut smallest: Vec<Mutex<BinaryHeap<usize>>> = pairs
        .iter()
        .map(|pair| Mutex::new(BinaryHeap::with_capacity(k.min(pair.explanations.len()))))
        .collect();

    // Every explanation of the workload is a slot, in pair order, and
    // slots with one canonical key share a shape. The waiters are the
    // slots ordered by shape, so each shape's waiters are one range.
    let slots: Vec<(usize, &Explanation)> = pairs
        .iter()
        .enumerate()
        .flat_map(|(p, pair)| pair.explanations.iter().map(move |e| (p, e)))
        .collect();
    let mut by_key: HashMap<&CanonicalKey, usize> = HashMap::with_capacity(slots.len());
    let mut reps: Vec<&Explanation> = Vec::new();
    let shape_of: Vec<usize> = slots
        .iter()
        .map(|&(_, e)| {
            *by_key.entry(e.key()).or_insert_with(|| {
                reps.push(e);
                reps.len() - 1
            })
        })
        .collect();
    let distinct_shapes = reps.len();
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_unstable_by_key(|&t| (shape_of[t], t));
    let mut waiter_of = vec![0; slots.len()];
    for (w, &t) in order.iter().enumerate() {
        waiter_of[t] = w;
    }
    let waiting: Vec<Waiter<'_>> = order
        .iter()
        .map(|&t| {
            let (p, e) = slots[t];
            Waiter::new(Some(pairs[p].start), e.count() as u64, &cutoffs[p])
        })
        .collect();
    // `ranges[s]..ranges[s + 1]` are shape `s`'s waiters.
    let mut ranges = vec![0; distinct_shapes + 1];
    for &s in &shape_of {
        ranges[s + 1] += 1;
    }
    for s in 0..distinct_shapes {
        ranges[s + 1] += ranges[s];
    }
    let waiters_of = |s: usize| &waiting[ranges[s]..ranges[s + 1]];
    // The exact answers of shape `s`'s waiters, with their pairs.
    let exact = |s: usize| {
        (ranges[s]..ranges[s + 1])
            .filter_map(|w| waiting[w].answer().map(|sum| (slots[order[w]].0, sum)))
    };

    // The pass's only cache reads, one per shape, under the budget. The
    // shapes whose published starts answer them are read first, on this
    // thread, in two looks: the second, once the first has seeded the
    // bounds, finds the partial entries whose explanations are out.
    let draws = frame.draws();
    let mut reads: Vec<Option<std::result::Result<BatchRead, AbortReason>>> =
        (0..distinct_shapes).map(|_| None).collect();
    let mut missed: Vec<usize> = (0..distinct_shapes).collect();
    for _ in 0..2 {
        missed.retain(|&s| match cache.lookup(index, reps[s], draws, Some(waiters_of(s))) {
            Ok(read) => {
                for (p, sum) in exact(s) {
                    admit(smallest[p].get_mut(), k, &cutoffs[p], sum);
                }
                reads[s] = Some(Ok(read));
                false
            }
            Err(_) => true,
        });
    }
    if !missed.is_empty() {
        // Cost-ordered evaluation of the misses: cheapest shapes first,
        // ties by canonical key, cost read from the edge index's
        // per-(label, orientation) relation sizes — one cost model shared
        // with admission pricing. The cheap shapes complete first and
        // tighten the bounds the heavy ones are read under.
        let mut ordered: Vec<(u64, usize)> = missed
            .into_iter()
            .map(|s| (index.estimate_eval_cost(&reps[s].pattern.to_spec()), s))
            .collect();
        ordered.sort_by(|&(ca, a), &(cb, b)| {
            ca.cmp(&cb).then_with(|| reps[a].key().cmp(reps[b].key()))
        });
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.threads)
            .build()
            .expect("thread pool construction is infallible");
        let smallest = &smallest;
        // An aborted read leaves its shape cold and the cache untouched;
        // scoring sheds exactly the pairs that need it.
        let done = pool.install(|| {
            ordered
                .par_iter()
                .map(|&(_, s)| {
                    let read = match cache.read(index, reps[s], draws, budget, Some(waiters_of(s)))
                    {
                        Ok(read) => {
                            for (p, sum) in exact(s) {
                                admit(&mut smallest[p].lock(), k, &cutoffs[p], sum);
                            }
                            Ok(read)
                        }
                        Err(RelError::Aborted(reason)) => Err(reason),
                        Err(err) => panic!("explanation patterns are valid specs: {err}"),
                    };
                    (s, read)
                })
                .collect::<Vec<_>>()
        });
        for (s, read) in done {
            reads[s] = Some(read);
        }
    }
    let reads: Vec<std::result::Result<BatchRead, AbortReason>> =
        reads.into_iter().map(|read| read.expect("the pass reads every shape")).collect();

    let mut outcome = RankPairsOutcome {
        rankings: Vec::with_capacity(pairs.len()),
        distinct_shapes,
        batched_evals: 0,
        tiles: 0,
        peak_rows: 0,
        est_peak_rows: 0,
        overflow_tiles: 0,
        ranked_out: 0,
        shed: Vec::new(),
    };
    for read in reads.iter().flatten() {
        let trace = read.batch.trace();
        outcome.peak_rows = outcome.peak_rows.max(trace.peak_rows);
        if let Some(tiles) = read.evaluated_tiles {
            outcome.batched_evals += 1;
            outcome.tiles += tiles;
        }
    }

    // Scoring: each explanation's answer — its exact position sum, or
    // ranked out — from its shape's read. A pair that needs an aborted
    // shape is shed whole, with the reason of its first such explanation
    // — partial scores would rank explanations against each other on
    // incomparable evidence. A ranked-out explanation scores below every
    // exact one: at least k exact sums of its pair are smaller than its
    // own.
    let mut next = 0;
    for (i, pair) in pairs.iter().enumerate() {
        let own = next..next + pair.explanations.len();
        next = own.end;
        let answers: std::result::Result<Vec<Option<usize>>, AbortReason> = own
            .map(|t| match &reads[shape_of[t]] {
                Ok(_) => Ok(waiting[waiter_of[t]].answer()),
                Err(reason) => Err(*reason),
            })
            .collect();
        outcome.rankings.push(match answers {
            Ok(answers) => {
                outcome.ranked_out += answers.iter().filter(|a| a.is_none()).count();
                let scores: Vec<f64> = answers
                    .iter()
                    .map(|a| a.map_or(f64::NEG_INFINITY, |sum| -(sum as f64)))
                    .collect();
                rank_with_scores(pair.explanations, &scores, k)
            }
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
            // One walk per batch.
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

    #[test]
    fn empty_workload_is_fine() {
        let kb = rex_kb::toy::entertainment();
        let outcome = rank_pairs(&kb, &[], &RankPairsConfig::default()).unwrap();
        assert!(outcome.rankings.is_empty());
        assert_eq!(outcome.distinct_shapes, 0);
        assert_eq!(outcome.batched_evals, 0);
    }

    /// The default config ranks over a default cache exactly as the
    /// one-shot driver does: a caller-built cache needs no setting to
    /// agree with the config.
    #[test]
    fn default_config_ranks_with_a_default_cache() {
        let (kb, prepared) = toy_workload();
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let cfg = RankPairsConfig::default();
        let index = EdgeIndex::build(&kb);
        let frame = Arc::new(SampleFrame::sample(&kb, cfg.global_samples, cfg.seed).unwrap());
        let with = rank_pairs_with(&tasks, &cfg, &index, &frame, &DistributionCache::new());
        let one_shot = rank_pairs(&kb, &tasks, &cfg).unwrap();
        let scored = |rankings: &[Vec<Ranked>]| -> Vec<Vec<(usize, u64)>> {
            rankings
                .iter()
                .map(|r| r.iter().map(|r| (r.index, r.score.to_bits())).collect())
                .collect()
        };
        assert!(with.rankings.iter().any(|r| !r.is_empty()));
        assert_eq!(scored(&with.rankings), scored(&one_shot.rankings));
    }
}
