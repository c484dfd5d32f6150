//! Parallel distribution-based ranking — §5.3.2's observation that
//! "distributional measures can be computed in parallel as count for
//! different node pairs can be computed separately", realized as a rayon
//! fan-out over the explanations sharing the context's
//! [`DistributionCache`].
//!
//! Positions for different explanations are independent, so the
//! explanation list is mapped in parallel; each worker answers global
//! queries from the cache's **batched all-starts** distribution (one
//! relational evaluation per pattern shape, shared across threads). With
//! `prune = true`, workers cooperate through a shared top-k bound — a
//! max-heap of the k best positions seen so far — and each position is
//! capped by the current bound. Cooperative pruning is *sound* (a
//! saturated position can never belong to the true top-k) but the amount
//! pruned depends on scheduling; results are identical either way.

use std::collections::BinaryHeap;

use parking_lot::Mutex;
use rayon::prelude::*;
use rex_kb::NodeId;
use rex_relstore::budget::Budget;

use crate::explanation::Explanation;
use crate::measures::cache::DistributionCache;
use crate::measures::distribution::position_in;
use crate::measures::MeasureContext;
use crate::ranking::distribution::Scope;
use crate::ranking::general::{rank_with_scores, Ranked};

/// Shared, thread-safe k-th-best-position bound: a max-heap holding the k
/// best (smallest) positions recorded so far, so reading the bound is a
/// `peek` and recording a result is O(log k) — no re-sorting per insert.
struct SharedBound {
    k: usize,
    best: Mutex<BinaryHeap<usize>>,
}

impl SharedBound {
    fn new(k: usize) -> SharedBound {
        SharedBound { k, best: Mutex::new(BinaryHeap::with_capacity(k + 1)) }
    }

    /// The current pruning limit (`usize::MAX` until k results exist).
    fn limit(&self) -> usize {
        let best = self.best.lock();
        if best.len() == self.k {
            best.peek().copied().unwrap_or(usize::MAX).saturating_add(1)
        } else {
            usize::MAX
        }
    }

    fn record(&self, position: usize) {
        let mut best = self.best.lock();
        if best.len() < self.k {
            best.push(position);
        } else if best.peek().is_some_and(|&worst| position < worst) {
            best.pop();
            best.push(position);
        }
    }
}

/// Computes one explanation's position under the given scope, bounded by
/// `limit`. Uses the shared cache; a bounded query answered from a cached
/// or batched distribution is answered exactly (free precision). Global
/// positions run over the full shared frame with the pair's start
/// excluded at read time, so the batch domain matches any other pair
/// sharing the cache.
fn position(
    cache: &DistributionCache,
    index: &rex_relstore::engine::ShardedEdgeIndex,
    e: &Explanation,
    vstart: NodeId,
    frame_starts: &[NodeId],
    scope: Scope,
    limit: usize,
) -> usize {
    match scope {
        Scope::Local => {
            let counts = cache.counts(index, e, vstart.0);
            position_in(&counts, e.count() as u64).min(limit)
        }
        Scope::Global => cache
            .global_position(index, e, frame_starts, Some(vstart), &Budget::unlimited())
            .expect("unlimited budget never aborts")
            .min(limit),
    }
}

/// Parallel analogue of
/// [`rank_by_position`](crate::ranking::distribution::rank_by_position):
/// same top-k (scores included), computed by `threads` workers sharing
/// the context's distribution cache. `k = 0` returns an empty ranking.
pub fn rank_by_position_parallel(
    explanations: &[Explanation],
    ctx: &MeasureContext<'_>,
    k: usize,
    scope: Scope,
    prune: bool,
    threads: usize,
) -> Vec<Ranked> {
    if explanations.is_empty() || k == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(explanations.len());
    let cache = ctx.distributions();
    let index = ctx.edge_index();
    let vstart = ctx.vstart;
    let frame_starts = ctx.sample_frame().starts().to_vec();
    let bound = SharedBound::new(k);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction is infallible");
    let positions: Vec<usize> = pool.install(|| {
        explanations
            .par_iter()
            .map(|e| {
                let limit = if prune { bound.limit() } else { usize::MAX };
                let p = position(cache, index, e, vstart, &frame_starts, scope, limit);
                if prune {
                    bound.record(p);
                }
                p
            })
            .collect()
    });

    let scores: Vec<f64> = positions.iter().map(|&p| -(p as f64)).collect();
    rank_with_scores(explanations, &scores, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::ranking::distribution::rank_by_position;
    use crate::EnumConfig;

    fn setup() -> (rex_kb::KnowledgeBase, rex_kb::NodeId, rex_kb::NodeId) {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        (kb, a, b)
    }

    #[test]
    fn parallel_matches_sequential_local() {
        let (kb, a, b) = setup();
        let out = GeneralEnumerator::new(EnumConfig::default()).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        for threads in [1usize, 2, 4] {
            for prune in [false, true] {
                let par = rank_by_position_parallel(
                    &out.explanations,
                    &ctx,
                    5,
                    Scope::Local,
                    prune,
                    threads,
                );
                let seq = rank_by_position(&out.explanations, &ctx, 5, Scope::Local, false);
                let ps: Vec<f64> = par.iter().map(|r| r.score).collect();
                let ss: Vec<f64> = seq.iter().map(|r| r.score).collect();
                assert_eq!(ps, ss, "threads={threads} prune={prune}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_global() {
        let (kb, a, b) = setup();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(8, 5);
        let par = rank_by_position_parallel(&out.explanations, &ctx, 3, Scope::Global, true, 3);
        let seq = rank_by_position(&out.explanations, &ctx, 3, Scope::Global, false);
        let ps: Vec<f64> = par.iter().map(|r| r.score).collect();
        let ss: Vec<f64> = seq.iter().map(|r| r.score).collect();
        assert_eq!(ps, ss);
    }

    #[test]
    fn shared_bound_tracks_kth_best() {
        let bound = SharedBound::new(3);
        assert_eq!(bound.limit(), usize::MAX);
        for p in [9, 4, 7] {
            bound.record(p);
        }
        // Worst of the best three is 9 → limit 10.
        assert_eq!(bound.limit(), 10);
        bound.record(2); // evicts 9
        assert_eq!(bound.limit(), 8);
        bound.record(100); // worse than all: no change
        assert_eq!(bound.limit(), 8);
    }

    #[test]
    fn degenerate_inputs() {
        let (kb, a, b) = setup();
        let ctx = MeasureContext::new(&kb, a, b);
        assert!(rank_by_position_parallel(&[], &ctx, 5, Scope::Local, true, 4).is_empty());
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        assert!(
            rank_by_position_parallel(&out.explanations, &ctx, 0, Scope::Local, true, 4).is_empty()
        );
    }
}
