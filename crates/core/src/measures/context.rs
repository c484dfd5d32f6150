//! Shared evaluation context for measures.

use std::cell::OnceCell;
use std::sync::Arc;

use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::engine::EdgeIndex;

use crate::measures::cache::DistributionCache;
use crate::measures::frame::SampleFrame;

/// Everything a measure may need besides the explanation itself: the
/// knowledge base, the target pair, a lazily materialized oriented edge
/// relation (for the SQL-style distribution queries of §5.3.2), the
/// KB-level [`SampleFrame`] estimating global distributions, and the
/// shared [`DistributionCache`] through which every distribution measure
/// and ranker in this context amortizes its relational evaluations
/// (§5.3.2's batching).
///
/// The frame and the cache are both `Arc`-shareable across the contexts
/// of many target pairs; a multi-pair workload that shares them pays one
/// batched evaluation per **distinct pattern shape across the whole
/// workload** (the pair's own start entity is excluded from global
/// positions at *read* time, so the shared batch domain is identical for
/// every pair — see [`crate::ranking::pairs`]).
pub struct MeasureContext<'a> {
    /// The knowledge base.
    pub kb: &'a KnowledgeBase,
    /// Start target entity.
    pub vstart: NodeId,
    /// End target entity.
    pub vend: NodeId,
    /// Number of sampled local distributions estimating the global one
    /// (the paper uses 100).
    pub global_samples: usize,
    /// Seed for the global sample.
    pub sample_seed: u64,
    edge_index: OnceCell<EdgeIndex>,
    distributions: OnceCell<Arc<DistributionCache>>,
    frame: OnceCell<Arc<SampleFrame>>,
}

impl<'a> MeasureContext<'a> {
    /// Context with the paper's defaults (100 global samples).
    pub fn new(kb: &'a KnowledgeBase, vstart: NodeId, vend: NodeId) -> Self {
        MeasureContext {
            kb,
            vstart,
            vend,
            global_samples: 100,
            sample_seed: 0xDB9,
            edge_index: OnceCell::new(),
            distributions: OnceCell::new(),
            frame: OnceCell::new(),
        }
    }

    /// Overrides the global-distribution sample size. Call before the
    /// frame is first used (or provided via
    /// [`MeasureContext::with_sample_frame`]).
    pub fn with_global_samples(mut self, samples: usize, seed: u64) -> Self {
        assert!(
            self.frame.get().is_none(),
            "with_global_samples called after the context's sample frame was initialized"
        );
        self.global_samples = samples;
        self.sample_seed = seed;
        self
    }

    /// Shares a pre-existing distribution cache (e.g. across the contexts
    /// of many target pairs, where isomorphic pattern shapes recur); by
    /// default each context lazily creates its own.
    pub fn with_distribution_cache(self, cache: Arc<DistributionCache>) -> Self {
        assert!(
            self.distributions.set(cache).is_ok(),
            "with_distribution_cache called after the context's cache was initialized"
        );
        self
    }

    /// Shares a pre-existing KB-level sample frame across the contexts of
    /// many target pairs. With a shared frame **and** a shared cache, the
    /// pairs' global distributions come from one batched evaluation per
    /// distinct shape across all of them. Also aligns `global_samples` /
    /// `sample_seed` with the frame, so a lazily re-derived frame is
    /// identical **when the shared frame was freshly drawn at the KB's
    /// current state** — a frame carried across KB updates by
    /// [`SampleFrame::refresh`] keeps (or epoch-mixes) its original draw
    /// and generally differs from what `SampleFrame::sample` would draw
    /// from the updated eligible-entity list.
    pub fn with_sample_frame(mut self, frame: Arc<SampleFrame>) -> Self {
        self.global_samples = frame.len();
        self.sample_seed = frame.seed();
        assert!(
            self.frame.set(frame).is_ok(),
            "with_sample_frame called after the context's frame was initialized"
        );
        self
    }

    /// The label-partitioned edge index, built on first use and shared by
    /// all distribution-measure evaluations in this context.
    pub fn edge_index(&self) -> &EdgeIndex {
        self.edge_index.get_or_init(|| EdgeIndex::build(self.kb))
    }

    /// The shared distribution cache, created on first use. All
    /// distribution measures and rankers in this context answer position
    /// queries through it, so a pattern shape's distributions are
    /// evaluated once and reused everywhere.
    pub fn distributions(&self) -> &DistributionCache {
        self.distributions.get_or_init(|| Arc::new(DistributionCache::new()))
    }

    /// The KB-level sample frame (one fixed start sample per
    /// `(kb, seed, size)`), created on first use when not shared via
    /// [`MeasureContext::with_sample_frame`]. Panics — loudly, by design —
    /// when the KB has no eligible start entity; construct the frame with
    /// [`SampleFrame::sample`] to handle that case as a `Result`.
    pub fn sample_frame(&self) -> &Arc<SampleFrame> {
        self.frame.get_or_init(|| {
            Arc::new(
                SampleFrame::sample(self.kb, self.global_samples, self.sample_seed)
                    .expect("global-distribution sample frame"),
            )
        })
    }

    /// Allocation-free walk of the deterministic random start entities
    /// for global-distribution estimation: the shared frame with this
    /// pair's own start entity excluded at read time (so the local
    /// distribution is not double counted). May yield fewer than
    /// `global_samples` entries when the start entity was drawn into the
    /// frame; the frame itself — and hence any shared batched
    /// evaluation — is identical across pairs.
    pub fn sample_starts_excluding(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sample_frame().iter_excluding(self.vstart)
    }

    /// [`MeasureContext::sample_starts_excluding`], collected — for
    /// callers that need a reusable list (the batched position APIs take
    /// slices).
    pub fn global_sample_starts(&self) -> Vec<NodeId> {
        self.sample_starts_excluding().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_index_is_cached() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let ctx = MeasureContext::new(&kb, a, b);
        let r1 = ctx.edge_index() as *const EdgeIndex;
        let r2 = ctx.edge_index() as *const EdgeIndex;
        assert_eq!(r1, r2);
        assert!(ctx.edge_index().total_rows() >= kb.edge_count());
    }

    #[test]
    fn global_samples_deterministic_and_exclude_start() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(10, 7);
        let s1 = ctx.global_sample_starts();
        let s2 = ctx.global_sample_starts();
        assert_eq!(s1, s2);
        // The frame holds exactly 10 draws; the pair's view drops its own
        // start's occurrences (if any) at read time.
        let frame = ctx.sample_frame();
        assert_eq!(frame.len(), 10);
        let a_draws = frame.starts().iter().filter(|&&s| s == a).count();
        assert_eq!(s1.len(), 10 - a_draws);
        assert!(s1.iter().all(|&x| x != a));
    }

    #[test]
    fn frame_is_shared_across_contexts() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let frame = Arc::new(SampleFrame::sample(&kb, 12, 5).unwrap());
        let ctx1 = MeasureContext::new(&kb, a, b).with_sample_frame(Arc::clone(&frame));
        let ctx2 = MeasureContext::new(&kb, b, a).with_sample_frame(Arc::clone(&frame));
        assert!(Arc::ptr_eq(ctx1.sample_frame(), ctx2.sample_frame()));
        assert_eq!(ctx1.global_samples, 12);
        assert_eq!(ctx1.sample_seed, 5);
        // Different pairs see different exclusions of the same frame.
        assert!(ctx1.global_sample_starts().iter().all(|&s| s != a));
        assert!(ctx2.global_sample_starts().iter().all(|&s| s != b));
    }

    /// A context that never set a frame derives one identical to the
    /// shared construction — so per-pair private contexts and a shared
    /// workload agree on the sample by construction.
    #[test]
    fn lazy_frame_matches_explicit_frame() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let explicit = SampleFrame::sample(&kb, 9, 42).unwrap();
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(9, 42);
        assert_eq!(ctx.sample_frame().as_ref(), &explicit);
    }
}
