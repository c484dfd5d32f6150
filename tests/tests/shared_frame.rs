//! Parity and accounting tests for the shared sample frame and the
//! cost-ordered workload driver (`rank_pairs`):
//!
//! * shared-frame global positions must be **identical** to per-pair
//!   private-cache positions, including the read-time exclusion semantics
//!   (a pair whose own start was drawn into the frame skips exactly those
//!   rows);
//! * the workload-wide batched-evaluation budget is the number of
//!   distinct canonical shapes across all pairs — strictly fewer than the
//!   per-pair-cache baseline's Σ per-pair shapes whenever shapes recur;
//! * the bound-pruned pass ranks every pair exactly as the per-pair
//!   sequential ranker does, for any k and worker count, and leaves
//!   partial entries that later passes answer or extend.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::distribution::{global_position, global_position_per_start};
use rex_core::measures::{DistributionCache, MeasureContext, SampleFrame};
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::ranking::{rank_pairs, rank_pairs_with, PairExplanations, RankPairsConfig};
use rex_core::{EnumConfig, Explanation};
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::engine::{local_count_distribution_indexed, EdgeIndex};

/// One pair's enumerated explanations in the shared workload.
type PreparedPair = (NodeId, NodeId, Vec<Explanation>);

/// A seeded synthetic workload shared by the tests in this file.
fn workload() -> &'static (KnowledgeBase, Vec<PreparedPair>) {
    static WORKLOAD: OnceLock<(KnowledgeBase, Vec<PreparedPair>)> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let kb = generate(&GeneratorConfig::tiny(2027));
        let pairs = sample_pairs(&kb, 2, 4, 2027);
        assert!(!pairs.is_empty(), "sampler found no pairs");
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4));
        let prepared = pairs
            .iter()
            .take(4)
            .map(|p| {
                let out = enumerator.enumerate(&kb, p.start, p.end);
                (p.start, p.end, out.explanations)
            })
            .filter(|(_, _, ex)| !ex.is_empty())
            .collect::<Vec<_>>();
        assert!(prepared.len() >= 2, "need at least two pairs");
        (kb, prepared)
    })
}

/// Shared-frame workload positions equal each pair's private-cache
/// positions — scores, indices, and the raw global positions — for both
/// the `rank_pairs` driver and the single-pair batched/per-start paths.
#[test]
fn shared_frame_positions_match_private_cache() {
    let (kb, prepared) = workload();
    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    let cfg = RankPairsConfig {
        k: usize::MAX, // full ranking: every position compared
        global_samples: 18,
        seed: 5,
        threads: 2,
        ..RankPairsConfig::default()
    };
    let outcome = rank_pairs(kb, &tasks, &cfg).unwrap();
    for ((s, e, ex), shared) in prepared.iter().zip(&outcome.rankings) {
        // Private context: own cache, lazily derived frame with the same
        // (size, seed) — deterministic, so the identical frame.
        let ctx = MeasureContext::new(kb, *s, *e).with_global_samples(18, 5);
        let private = rank_by_position(ex, &ctx, usize::MAX, Scope::Global, false);
        let sh: Vec<(usize, f64)> = shared.iter().map(|r| (r.index, r.score)).collect();
        let pr: Vec<(usize, f64)> = private.iter().map(|r| (r.index, r.score)).collect();
        assert_eq!(sh, pr, "pair {s} → {e}");
        // And both equal the per-start reference engine.
        for expl in ex {
            assert_eq!(
                global_position(&ctx, expl, usize::MAX),
                global_position_per_start(&ctx, expl, usize::MAX).0,
                "pair {s} → {e}: {}",
                expl.describe(kb)
            );
        }
    }
}

/// Read-time exclusion semantics: a pair whose start entity occurs in the
/// frame gets positions equal to the sum over the frame *minus its own
/// start's occurrences*, computed from per-start grouped queries.
#[test]
fn read_time_exclusion_drops_own_start_rows() {
    let kb = rex_kb::toy::entertainment();
    let a = kb.require_node("brad_pitt").unwrap();
    let b = kb.require_node("angelina_jolie").unwrap();
    // 60 draws over the toy KB: find a seed whose frame contains `a`
    // (deterministic search, so the test cannot rot with RNG changes).
    let seed = (0..64)
        .find(|&s| SampleFrame::sample(&kb, 60, s).unwrap().contains(a))
        .expect("some frame draws the start");
    let frame = Arc::new(SampleFrame::sample(&kb, 60, seed).unwrap());
    let occurrences = frame.starts().iter().filter(|&&s| s == a).count();
    assert!(occurrences >= 1);

    let out = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
    let ctx = MeasureContext::new(&kb, a, b).with_sample_frame(Arc::clone(&frame));
    let index = rex_relstore::engine::EdgeIndex::build(&kb);
    for e in &out.explanations {
        let spec = e.pattern.to_spec();
        let a_val = e.count() as u64;
        // Reference: per-start grouped queries over the excluded view,
        // respecting multiplicity.
        let expected: usize = frame
            .starts_excluding(a)
            .iter()
            .map(|s| {
                let dist = local_count_distribution_indexed(&index, &spec, s.0 as u64).unwrap();
                dist.values().filter(|&&c| c > a_val).count()
            })
            .sum();
        assert_eq!(
            global_position(&ctx, e, usize::MAX),
            expected,
            "exclusion mismatch for {}",
            e.describe(&kb)
        );
    }
}

/// The workload evaluation budget: distinct shapes across all pairs, and
/// strictly fewer evaluations than per-pair private caches perform.
#[test]
fn workload_budget_beats_per_pair_caches() {
    let (kb, prepared) = workload();
    // The workload ranks the first pair twice — the cross-pair reuse
    // scenario (many requests over the same KB hit recurring pairs and
    // shapes); recurring shapes are what the shared cache amortizes and
    // what per-pair private caches re-evaluate.
    let mut tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    tasks.push(tasks[0]);
    let distinct: HashSet<_> =
        tasks.iter().flat_map(|t| t.explanations.iter().map(|e| e.key().clone())).collect();
    let cfg = RankPairsConfig {
        k: 5,
        global_samples: 12,
        seed: 9,
        threads: 2,
        ..RankPairsConfig::default()
    };
    let outcome = rank_pairs(kb, &tasks, &cfg).unwrap();
    assert_eq!(outcome.distinct_shapes, distinct.len());
    assert!(outcome.batched_evals <= distinct.len());

    // Per-pair private caches evaluate once per (pair, shape).
    let per_pair_budget: usize = tasks
        .iter()
        .map(|t| {
            let ctx = MeasureContext::new(kb, t.start, t.end).with_global_samples(12, 9);
            let _ = rank_by_position(t.explanations, &ctx, 5, Scope::Global, false);
            ctx.distributions().batched_evals()
        })
        .sum();
    assert!(
        outcome.batched_evals < per_pair_budget,
        "shared {} vs per-pair {per_pair_budget}: recurring shapes must be amortized",
        outcome.batched_evals
    );

    // Re-ranking through the same shared session is eval-free.
    let frame = Arc::new(SampleFrame::sample(kb, 12, 9).unwrap());
    let index = EdgeIndex::build(kb);
    let cache = DistributionCache::new();
    let first = rank_pairs_with(&tasks, &cfg, &index, &frame, &cache);
    let second = rank_pairs_with(&tasks, &cfg, &index, &frame, &cache);
    assert_eq!(second.batched_evals, 0, "second workload pass must be all cache hits");
    for (r1, r2) in first.rankings.iter().zip(&second.rankings) {
        let v1: Vec<(usize, f64)> = r1.iter().map(|r| (r.index, r.score)).collect();
        let v2: Vec<(usize, f64)> = r2.iter().map(|r| (r.index, r.score)).collect();
        assert_eq!(v1, v2);
    }
}

/// A generated KB with the explanations of its sampled pairs, for the
/// pruned-pass differential.
struct PrunedWorkload {
    kb: KnowledgeBase,
    index: EdgeIndex,
    frame: Arc<SampleFrame>,
    pairs: Vec<PreparedPair>,
}

/// The sample frame of the pruned-pass differential: its size and seed.
const PRUNED_FRAME: (usize, u64) = (40, 17);

/// `keep` sampled pairs with more than one explanation, and one pair
/// whose start the frame drew, so that the read-time exclusion of a drawn
/// start shapes a bound too.
fn pruned_workload(config: GeneratorConfig, max_nodes: usize, keep: usize) -> PrunedWorkload {
    let kb = generate(&config);
    let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(max_nodes));
    let prepare = |start: NodeId, end: NodeId| {
        let explanations = enumerator.enumerate(&kb, start, end).explanations;
        (explanations.len() > 1).then_some((start, end, explanations))
    };
    let mut pairs: Vec<PreparedPair> = sample_pairs(&kb, 2, 4, config.seed)
        .iter()
        .filter_map(|p| prepare(p.start, p.end))
        .take(keep)
        .collect();
    assert!(pairs.len() >= 2, "need at least two pairs with a choice to rank");
    let (size, seed) = PRUNED_FRAME;
    let frame = Arc::new(SampleFrame::sample(&kb, size, seed).unwrap());
    let drawn = frame.starts().iter().find_map(|&start| {
        kb.neighbors(start)
            .iter()
            .flat_map(|hop| kb.neighbors(hop.other()))
            .filter(|hop| hop.other() != start)
            .find_map(|hop| prepare(start, hop.other()))
    });
    pairs.push(drawn.expect("a drawn start has a pair with a choice to rank"));
    let index = EdgeIndex::build(&kb);
    PrunedWorkload { kb, index, frame, pairs }
}

fn tiny_pruned() -> &'static PrunedWorkload {
    static WORKLOAD: OnceLock<PrunedWorkload> = OnceLock::new();
    WORKLOAD.get_or_init(|| pruned_workload(GeneratorConfig::tiny(2029), 4, 4))
}

fn small_pruned() -> &'static PrunedWorkload {
    static WORKLOAD: OnceLock<PrunedWorkload> = OnceLock::new();
    WORKLOAD.get_or_init(|| pruned_workload(GeneratorConfig::small(2029), 4, 4))
}

/// `(index, score bits)` of a ranking, so equal scores compare bit for bit.
fn bits(ranking: &[rex_core::ranking::Ranked]) -> Vec<(usize, u64)> {
    ranking.iter().map(|r| (r.index, r.score.to_bits())).collect()
}

/// The pruned shared pass against the per-pair sequential ranker. For
/// every k in {0, 1, 3, 10}, over a workload whose first pair is listed twice, three passes share
/// one cache: a cold pass, a second pass at the same k, which must be all
/// hits, and a third at `k = usize::MAX`, which ranks nothing out and
/// must extend exactly the partial entries the first pass left. Every
/// pair's top-k equals `rank_by_position(.., Scope::Global, false)` on a
/// private cache, indices and score bits. Returns how many explanations
/// the cold passes with `k > 0` ranked out (at `k = 0` every explanation
/// is out before anything is read).
fn pruned_pass_matches_per_pair_ranking(w: &PrunedWorkload, threads: usize) -> usize {
    let mut tasks: Vec<PairExplanations<'_>> = w
        .pairs
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    tasks.push(tasks[0]);
    let (size, seed) = PRUNED_FRAME;
    let contexts: Vec<MeasureContext<'_>> = tasks
        .iter()
        .map(|t| MeasureContext::new(&w.kb, t.start, t.end).with_global_samples(size, seed))
        .collect();
    let expected = |k: usize| -> Vec<Vec<(usize, u64)>> {
        tasks
            .iter()
            .zip(&contexts)
            .map(|(t, ctx)| bits(&rank_by_position(t.explanations, ctx, k, Scope::Global, false)))
            .collect()
    };
    let mut ranked_out = 0;
    for k in [0, 1, 3, 10] {
        let cfg = RankPairsConfig {
            k,
            global_samples: size,
            seed,
            threads,
            ..RankPairsConfig::default()
        };
        let cache = DistributionCache::new();
        let case = format!("k {k}, threads {threads}");
        let check = |outcome: &rex_core::ranking::RankPairsOutcome, k: usize, pass: &str| {
            let got: Vec<Vec<(usize, u64)>> = outcome.rankings.iter().map(|r| bits(r)).collect();
            assert_eq!(got, expected(k), "{case}: {pass} pass");
            assert!(outcome.shed.is_empty(), "{case}: {pass} pass");
        };
        let first = rank_pairs_with(&tasks, &cfg, &w.index, &w.frame, &cache);
        check(&first, k, "cold");
        if k > 0 {
            ranked_out += first.ranked_out;
        }
        // The same bounds again: every partial entry is already out.
        let second = rank_pairs_with(&tasks, &cfg, &w.index, &w.frame, &cache);
        check(&second, k, "second");
        assert_eq!(second.batched_evals, 0, "{case}: the second pass must be all hits");
        assert_eq!(second.ranked_out, first.ranked_out, "{case}: second pass");
        // No bound: the partial entries, and only they, are extended.
        let all = RankPairsConfig { k: usize::MAX, ..cfg.clone() };
        let third = rank_pairs_with(&tasks, &all, &w.index, &w.frame, &cache);
        check(&third, usize::MAX, "unbounded");
        assert_eq!(third.ranked_out, 0, "{case}: unbounded pass");
        assert_eq!(
            third.batched_evals > 0,
            first.ranked_out > 0,
            "{case}: the unbounded pass extends exactly the partial entries"
        );
    }
    ranked_out
}

#[test]
fn pruned_pass_matches_per_pair_ranking_threads_1() {
    pruned_pass_matches_per_pair_ranking(tiny_pruned(), 1);
    let ranked_out = pruned_pass_matches_per_pair_ranking(small_pruned(), 1);
    assert!(ranked_out > 0, "the bound must rank explanations out on the small KB");
}

/// Two workers share the pairs' bounds: how much of the frame a
/// ranked-out shape covers may vary from run to run, the rankings may
/// not.
#[test]
fn pruned_pass_matches_per_pair_ranking_threads_2() {
    pruned_pass_matches_per_pair_ranking(tiny_pruned(), 2);
    let ranked_out = pruned_pass_matches_per_pair_ranking(small_pruned(), 2);
    assert!(ranked_out > 0, "the bound must rank explanations out on the small KB");
}
