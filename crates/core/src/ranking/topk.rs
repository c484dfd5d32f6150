//! Interleaved top-k ranking for anti-monotonic measures (§4.4,
//! Theorem 4).
//!
//! For an anti-monotonic measure, any explanation derived (by path union)
//! from `re` scores no higher than `re`; so once `re` falls outside the
//! current top-k it can never contribute a top-k descendant, and expansion
//! can be restricted to the current top-k list. The algorithm interleaves
//! the three steps of the general framework: enumerate a little (one
//! explanation's expansions), score, re-rank, repeat.

use std::collections::HashSet;

use rex_kb::{KnowledgeBase, NodeId};

use crate::canonical::CanonicalKey;
use crate::config::EnumConfig;
use crate::enumerate::paths::enumerate_paths;
use crate::enumerate::union::Queue;
use crate::enumerate::{EnumStats, PathAlgo};
use crate::explanation::Explanation;
use crate::measures::{Measure, MeasureContext};
use crate::ranking::general::{rank_with_scores, Ranked};
use crate::{CoreError, Result};

/// Output of the pruned top-k ranking.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The explanations that were materialized (a subset of the full
    /// enumeration when pruning bites).
    pub explanations: Vec<Explanation>,
    /// Best-first top-k indices into `explanations`, with scores.
    pub ranking: Vec<Ranked>,
    /// Work counters (compare with a full enumeration's to see the
    /// pruning effect — Figure 9).
    pub stats: EnumStats,
}

/// Ranks the top-`k` explanations for `(vstart, vend)` under an
/// anti-monotonic measure, pruning enumeration per Theorem 4. Fails when
/// the measure is not anti-monotonic, since the pruning would be unsound.
pub fn rank_topk_pruned(
    kb: &KnowledgeBase,
    vstart: NodeId,
    vend: NodeId,
    config: &EnumConfig,
    measure: &dyn Measure,
    ctx: &MeasureContext<'_>,
    k: usize,
) -> Result<TopKResult> {
    if !measure.anti_monotonic() {
        return Err(CoreError::InvalidPattern(format!(
            "top-k pruning requires an anti-monotonic measure; {} is not",
            measure.name()
        )));
    }
    let mut stats = EnumStats::default();
    let paths = enumerate_paths(kb, vstart, vend, config, PathAlgo::Prioritized, &mut stats);

    let mut q = Queue::default();
    let mut scores: Vec<f64> = Vec::new();
    let mut seen: HashSet<CanonicalKey> = HashSet::new();
    for p in paths {
        if !seen.insert(p.key().clone()) {
            stats.duplicates += 1;
            continue;
        }
        scores.push(measure.score(ctx, &p));
        q.push(p);
    }
    q.index_paths();
    let path_count = q.explanations().len();
    let mut expanded: HashSet<usize> = HashSet::new();

    loop {
        // Current top-k (Step 2): explanations not in it are pruned from
        // expansion (Step 3).
        let top = rank_with_scores(q.explanations(), &scores, k);
        let Some(next) = top.iter().map(|r| r.index).find(|i| !expanded.contains(i)) else {
            stats.explanations = q.explanations().len();
            return Ok(TopKResult { explanations: q.into_explanations(), ranking: top, stats });
        };
        expanded.insert(next);
        for i2 in 0..path_count {
            for re in q.merge(next, i2, config, &mut stats) {
                if !seen.insert(re.key().clone()) {
                    stats.duplicates += 1;
                    continue;
                }
                scores.push(measure.score(ctx, &re)); // Step 1
                q.push(re);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::measures::{CountMeasure, MonocountMeasure, SizeMeasure};
    use crate::ranking::rank;

    fn setup() -> (rex_kb::KnowledgeBase, NodeId, NodeId) {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("kate_winslet").unwrap();
        let b = kb.require_node("leonardo_dicaprio").unwrap();
        (kb, a, b)
    }

    #[test]
    fn rejects_non_anti_monotonic_measures() {
        let (kb, a, b) = setup();
        let ctx = MeasureContext::new(&kb, a, b);
        let err = rank_topk_pruned(&kb, a, b, &EnumConfig::default(), &CountMeasure, &ctx, 10);
        assert!(err.is_err());
    }

    #[test]
    fn pruned_topk_matches_full_ranking_scores() {
        let (kb, a, b) = setup();
        let config = EnumConfig::default();
        let ctx = MeasureContext::new(&kb, a, b);
        for k in [1usize, 3, 10] {
            let pruned = rank_topk_pruned(&kb, a, b, &config, &MonocountMeasure, &ctx, k).unwrap();
            let full = GeneralEnumerator::new(config.clone()).enumerate(&kb, a, b);
            let full_rank = rank(&full.explanations, &MonocountMeasure, &ctx, k);
            // Scores (and hence the score multiset of the top-k) must
            // agree; identities can differ among ties.
            let ps: Vec<f64> = pruned.ranking.iter().map(|r| r.score).collect();
            let fs: Vec<f64> = full_rank.iter().map(|r| r.score).collect();
            assert_eq!(ps, fs, "k={k}");
        }
    }

    #[test]
    fn pruned_topk_matches_full_ranking_for_size() {
        let (kb, a, b) = setup();
        let config = EnumConfig::default();
        let ctx = MeasureContext::new(&kb, a, b);
        let pruned = rank_topk_pruned(&kb, a, b, &config, &SizeMeasure, &ctx, 5).unwrap();
        let full = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        let full_rank = rank(&full.explanations, &SizeMeasure, &ctx, 5);
        let ps: Vec<f64> = pruned.ranking.iter().map(|r| r.score).collect();
        let fs: Vec<f64> = full_rank.iter().map(|r| r.score).collect();
        assert_eq!(ps, fs);
    }

    #[test]
    fn small_k_prunes_work() {
        let (kb, a, b) = setup();
        let config = EnumConfig::default();
        let ctx = MeasureContext::new(&kb, a, b);
        let pruned = rank_topk_pruned(&kb, a, b, &config, &SizeMeasure, &ctx, 1).unwrap();
        let full = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        assert!(
            pruned.stats.merge_calls < full.stats.merge_calls,
            "pruned {} vs full {}",
            pruned.stats.merge_calls,
            full.stats.merge_calls
        );
        assert!(pruned.explanations.len() <= full.explanations.len());
    }

    #[test]
    fn k_zero_returns_empty() {
        let (kb, a, b) = setup();
        let ctx = MeasureContext::new(&kb, a, b);
        let r = rank_topk_pruned(&kb, a, b, &EnumConfig::default(), &SizeMeasure, &ctx, 0).unwrap();
        assert!(r.ranking.is_empty());
    }
}
