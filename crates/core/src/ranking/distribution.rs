//! `LIMIT`-pruned ranking for distribution-based measures (§5.3.2).
//!
//! Distribution measures are not anti-monotonic, so Theorem 4 does not
//! apply; instead the paper prunes the *measure computation*: while
//! maintaining a top-k list (smaller position = better), an explanation
//! whose position is already known to be ≥ the current k-th best position
//! cannot enter the list — so its position query runs with `LIMIT p`,
//! aborting as soon as `p` qualifying entities are found.
//!
//! Position queries flow through the context's shared
//! [`DistributionCache`](crate::measures::DistributionCache): local
//! positions are cached per `(shape, start)`, and **global** positions are
//! answered from one batched all-starts evaluation per pattern shape —
//! §5.3.2's amortization. This sequential ranker reads each global
//! position whole, so here the `LIMIT` bound only caps the reported
//! position; bounded *local* queries use the streaming `LIMIT p` plan
//! when the distribution is not already cached. The shared ranking pass
//! ([`rank_pairs`](crate::ranking::rank_pairs) and the serving paths)
//! applies the bound to global positions too: it stops a shape's batched
//! walk once every explanation waiting on it has a position sum, over
//! the starts evaluated so far, beyond its pair's k-th best, so pruning
//! and sharing combine rather than compete.

use crate::explanation::Explanation;
use crate::measures::distribution::{global_position, local_position};
use crate::measures::MeasureContext;
use crate::ranking::general::{rank_with_scores, Ranked};

/// Which distribution the position is computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Vary only the end entity (one grouped query).
    Local,
    /// Vary both entities, estimated over the context's sampled starts.
    Global,
}

/// Ranks explanations by (negated) distributional position. With
/// `prune = true`, position queries are bounded by the current k-th best
/// position plus one (`LIMIT p`), exactly reproducing the paper's
/// optimization; the returned top-k is identical to the unpruned ranking.
///
/// Returns `(ranking, positions_computed)` where the second component
/// counts fully- or partially-evaluated position queries for reporting.
pub fn rank_by_position(
    explanations: &[Explanation],
    ctx: &MeasureContext<'_>,
    k: usize,
    scope: Scope,
    prune: bool,
) -> Vec<Ranked> {
    // Current k-th best position (pruning bound); usize::MAX = no bound.
    let mut kth_best = usize::MAX;
    // Worst-case position per explanation; pruned queries record the
    // saturated bound, which keeps them out of the top-k by construction.
    let mut positions: Vec<usize> = Vec::with_capacity(explanations.len());
    let mut best_so_far: Vec<usize> = Vec::new(); // positions of current top-k
    for e in explanations {
        let limit = if prune && kth_best != usize::MAX {
            // Position ≥ kth_best cannot improve the list; one extra unit
            // distinguishes "equal" from "worse".
            kth_best.saturating_add(1)
        } else {
            usize::MAX
        };
        let pos = match scope {
            Scope::Local => local_position(ctx, e, limit),
            Scope::Global => global_position(ctx, e, limit),
        };
        positions.push(pos);
        // Maintain the k-th best bound.
        best_so_far.push(pos);
        best_so_far.sort_unstable();
        best_so_far.truncate(k);
        if let Some(&kth) = k.checked_sub(1).and_then(|last| best_so_far.get(last)) {
            kth_best = kth;
        }
    }
    let scores: Vec<f64> = positions.iter().map(|&p| -(p as f64)).collect();
    rank_with_scores(explanations, &scores, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::EnumConfig;

    fn setup() -> (rex_kb::KnowledgeBase, rex_kb::NodeId, rex_kb::NodeId) {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        (kb, a, b)
    }

    #[test]
    fn pruned_and_unpruned_agree_locally() {
        let (kb, a, b) = setup();
        let out = GeneralEnumerator::new(EnumConfig::default()).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        for k in [1usize, 3, 10] {
            let exact = rank_by_position(&out.explanations, &ctx, k, Scope::Local, false);
            let pruned = rank_by_position(&out.explanations, &ctx, k, Scope::Local, true);
            let es: Vec<f64> = exact.iter().map(|r| r.score).collect();
            let ps: Vec<f64> = pruned.iter().map(|r| r.score).collect();
            assert_eq!(es, ps, "k={k}");
        }
    }

    #[test]
    fn pruned_and_unpruned_agree_globally() {
        let (kb, a, b) = setup();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(10, 5);
        let exact = rank_by_position(&out.explanations, &ctx, 3, Scope::Global, false);
        let pruned = rank_by_position(&out.explanations, &ctx, 3, Scope::Global, true);
        let es: Vec<f64> = exact.iter().map(|r| r.score).collect();
        let ps: Vec<f64> = pruned.iter().map(|r| r.score).collect();
        assert_eq!(es, ps);
    }

    /// `k = 0` ranks nothing, pruned or not, in either scope.
    #[test]
    fn zero_depth_ranks_nothing() {
        let (kb, a, b) = setup();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(10, 5);
        for scope in [Scope::Local, Scope::Global] {
            for prune in [false, true] {
                assert!(rank_by_position(&out.explanations, &ctx, 0, scope, prune).is_empty());
            }
        }
    }

    #[test]
    fn spouse_tops_local_distribution_ranking() {
        let (kb, a, b) = setup();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let top = rank_by_position(&out.explanations, &ctx, 1, Scope::Local, true);
        assert_eq!(out.explanations[top[0].index].pattern.describe(&kb), "(start)-[spouse]-(end)");
        assert_eq!(top[0].score, 0.0); // position 0: nothing rarer
    }
}
