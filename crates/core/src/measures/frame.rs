//! The KB-level shared sample frame.
//!
//! §5.3.2 estimates a pattern's global distribution from ~100 sampled
//! start entities. Before this module, every [`MeasureContext`] drew its
//! *own* sample and excluded its own start entity **at sample time** — so
//! two pairs over the same KB had start domains differing by one entity,
//! which defeated [`DistributionCache`] sharing across pairs (each pair's
//! batched evaluation covered a slightly different domain and forced a
//! recomputation).
//!
//! A [`SampleFrame`] is one fixed, seeded start sample per
//! `(KnowledgeBase, seed, size)`. The per-pair exclusion moves to **read
//! time**: a batched all-starts distribution is evaluated once over the
//! whole frame, and a pair's global position simply skips the excluded
//! start's row when summing positions
//! ([`DistributionCache::global_position`]). Every pair of a workload
//! therefore shares one cache with zero recomputation: the
//! batched evaluation budget drops from Σ per-pair shapes to the number
//! of *distinct* shapes across the whole workload.
//!
//! Sampling is direct (index into the eligible-entity list), never
//! rejection-based: the previous rejection sampler could silently return
//! fewer than the requested number of starts when its retry guard
//! tripped on small or sparse KBs. The frame draws uniformly **with
//! replacement** from the entities with at least one edge — matching the
//! old estimator's with-replacement semantics — and errors loudly when
//! the KB has no eligible start entity at all.
//!
//! [`MeasureContext`]: crate::measures::MeasureContext
//! [`DistributionCache`]: crate::measures::DistributionCache
//! [`DistributionCache::global_position`]:
//!     crate::measures::DistributionCache::global_position

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_kb::{KnowledgeBase, NodeId};

use crate::error::{CoreError, Result};

/// One fixed, seeded start-entity sample shared by every target pair of a
/// workload over the same knowledge base. Immutable once sampled; cheap
/// to clone behind an `Arc`.
///
/// The frame remembers the KB [`epoch`](SampleFrame::epoch) it was drawn
/// at. Under KB updates, [`SampleFrame::refresh`] applies the **redraw
/// policy**: the seeded sample is kept as long as every drawn start stays
/// eligible (degree > 0) — so warm caches over the frame's domain survive
/// the update — and is redrawn deterministically from
/// `(kb, seed, size, epoch)` the moment an update invalidates one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFrame {
    starts: Vec<NodeId>,
    seed: u64,
    epoch: u64,
}

impl SampleFrame {
    /// Draws `size` start entities uniformly (with replacement) from the
    /// entities with at least one incident edge, deterministically for a
    /// fixed `(kb, size, seed)`. Errors when `size > 0` but the KB has no
    /// eligible start entity — the loud failure the old rejection
    /// sampler's silent under-fill is replaced by.
    pub fn sample(kb: &KnowledgeBase, size: usize, seed: u64) -> Result<SampleFrame> {
        Self::draw(kb, size, seed, seed)
    }

    /// Draws a frame with an explicit RNG stream (the redraw path mixes
    /// the epoch into it; the initial draw uses `seed` itself).
    fn draw(kb: &KnowledgeBase, size: usize, seed: u64, stream: u64) -> Result<SampleFrame> {
        if size == 0 {
            return Ok(SampleFrame { starts: Vec::new(), seed, epoch: kb.epoch() });
        }
        let eligible: Vec<NodeId> = kb.node_ids().filter(|&n| kb.degree(n) > 0).collect();
        if eligible.is_empty() {
            return Err(CoreError::EmptySampleFrame { requested: size, nodes: kb.node_count() });
        }
        let mut rng = StdRng::seed_from_u64(stream);
        let starts = (0..size).map(|_| eligible[rng.gen_range(0..eligible.len())]).collect();
        Ok(SampleFrame { starts, seed, epoch: kb.epoch() })
    }

    /// Applies the redraw policy against the current state of `kb` and
    /// returns `(frame, redrawn)`:
    ///
    /// * every drawn start still eligible → the **same** starts, with the
    ///   frame's epoch advanced (cached batches over the domain stay
    ///   reusable);
    /// * some start lost its last edge → a fresh deterministic draw from
    ///   `(kb, seed, size, epoch)` (`redrawn = true`), or an error when
    ///   the KB no longer has any eligible start.
    pub fn refresh(&self, kb: &KnowledgeBase) -> Result<(SampleFrame, bool)> {
        if kb.epoch() == self.epoch {
            return Ok((self.clone(), false));
        }
        if self.starts.iter().all(|&s| kb.degree(s) > 0) {
            let kept =
                SampleFrame { starts: self.starts.clone(), seed: self.seed, epoch: kb.epoch() };
            return Ok((kept, false));
        }
        let stream = self.seed ^ kb.epoch().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let redrawn = Self::draw(kb, self.starts.len(), self.seed, stream)?;
        Ok((redrawn, true))
    }

    /// The KB epoch the frame was drawn at (or last refreshed to).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sampled starts, in draw order, with multiplicity (a start drawn
    /// twice contributes two rows to every global-position sum).
    pub fn starts(&self) -> &[NodeId] {
        &self.starts
    }

    /// Allocation-free view of the starts with every occurrence of
    /// `exclude` dropped — the read-time exclusion a pair applies so its
    /// own start's local distribution is not double counted. The hot call
    /// sites (position sums inside `DistributionCache`, the context's
    /// sampled-start walk) iterate this directly; collect with
    /// [`SampleFrame::starts_excluding`] only when a `Vec` is genuinely
    /// needed.
    pub fn iter_excluding(&self, exclude: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.starts.iter().copied().filter(move |&s| s != exclude)
    }

    /// [`SampleFrame::iter_excluding`], collected. Equivalent to the old
    /// sample-time exclusion for position sums, but leaves the frame (and
    /// hence the cached batch domain) identical across pairs.
    pub fn starts_excluding(&self, exclude: NodeId) -> Vec<NodeId> {
        self.iter_excluding(exclude).collect()
    }

    /// Whether `node` occurs in the frame.
    pub fn contains(&self, node: NodeId) -> bool {
        self.starts.contains(&node)
    }

    /// Number of draws (== the requested sample size).
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The seed the frame was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_exactly_sized() {
        let kb = rex_kb::toy::entertainment();
        let f1 = SampleFrame::sample(&kb, 50, 7).unwrap();
        let f2 = SampleFrame::sample(&kb, 50, 7).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 50);
        assert!(f1.starts().iter().all(|&s| kb.degree(s) > 0));
        // A different seed draws a different frame (overwhelmingly).
        let f3 = SampleFrame::sample(&kb, 50, 8).unwrap();
        assert_ne!(f1.starts(), f3.starts());
    }

    #[test]
    fn exclusion_drops_every_occurrence() {
        let kb = rex_kb::toy::entertainment();
        // 200 draws from ~20 entities: every entity occurs, most several
        // times — the case the read-time exclusion must handle.
        let frame = SampleFrame::sample(&kb, 200, 3).unwrap();
        let victim = frame.starts()[0];
        assert!(frame.contains(victim));
        let without = frame.starts_excluding(victim);
        assert!(without.iter().all(|&s| s != victim));
        let occurrences = frame.starts().iter().filter(|&&s| s == victim).count();
        assert!(occurrences >= 2, "with-replacement draw should repeat");
        assert_eq!(without.len(), frame.len() - occurrences);
    }

    #[test]
    fn small_kb_never_underfills() {
        let mut b = rex_kb::KbBuilder::new();
        let a = b.add_node("a", "T");
        let c = b.add_node("c", "T");
        b.add_node("isolated", "T"); // degree 0: never sampled
        b.add_directed_edge(a, c, "r");
        let kb = b.build();
        let frame = SampleFrame::sample(&kb, 100, 1).unwrap();
        assert_eq!(frame.len(), 100, "direct sampling must fill the frame");
        assert!(frame.starts().iter().all(|&s| s == a || s == c));
    }

    #[test]
    fn iter_excluding_matches_collected_variant() {
        let kb = rex_kb::toy::entertainment();
        let frame = SampleFrame::sample(&kb, 80, 9).unwrap();
        let victim = frame.starts()[3];
        let collected = frame.starts_excluding(victim);
        let iterated: Vec<NodeId> = frame.iter_excluding(victim).collect();
        assert_eq!(collected, iterated);
        assert_eq!(
            frame.iter_excluding(victim).count(),
            frame.len() - frame.starts().iter().filter(|&&s| s == victim).count()
        );
    }

    /// Redraw policy: edge churn that keeps every sampled start eligible
    /// keeps the sample; knocking a sampled start to degree 0 redraws
    /// deterministically from `(kb, seed, size, epoch)`.
    #[test]
    fn refresh_keeps_eligible_samples_and_redraws_otherwise() {
        let mut b = rex_kb::KbBuilder::new();
        let nodes: Vec<_> = (0..8).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        for w in nodes.windows(2) {
            b.add_directed_edge(w[0], w[1], "r");
        }
        let mut kb = b.build();
        let frame = SampleFrame::sample(&kb, 6, 4).unwrap();
        assert_eq!(frame.epoch(), 0);

        // Same epoch: refresh is the identity.
        let (same, redrawn) = frame.refresh(&kb).unwrap();
        assert!(!redrawn);
        assert_eq!(same, frame);

        // Churn that leaves all sampled starts eligible: starts kept,
        // epoch advanced.
        let r = kb.label_by_name("r").unwrap();
        let extra = kb.insert_edge(nodes[0], nodes[7], r, true).unwrap();
        let (kept, redrawn) = frame.refresh(&kb).unwrap();
        assert!(!redrawn);
        assert_eq!(kept.starts(), frame.starts());
        assert_eq!(kept.epoch(), kb.epoch());
        kb.remove_edge(extra).unwrap();

        // Strip one sampled start of its last edge: redraw, determinstic
        // per (kb, seed, size, epoch), and all-eligible.
        let victim = frame.starts()[0];
        while kb.degree(victim) > 0 {
            let eid = kb.neighbors(victim)[0].edge;
            kb.remove_edge(eid).unwrap();
        }
        let (redrawn1, flag1) = frame.refresh(&kb).unwrap();
        let (redrawn2, flag2) = frame.refresh(&kb).unwrap();
        assert!(flag1 && flag2);
        assert_eq!(redrawn1, redrawn2, "redraw must be deterministic");
        assert_eq!(redrawn1.len(), frame.len());
        assert_eq!(redrawn1.epoch(), kb.epoch());
        assert!(redrawn1.starts().iter().all(|&s| kb.degree(s) > 0));
        assert!(!redrawn1.contains(victim));

        // A later epoch redraws a (generally) different sample: the
        // stream mixes the epoch in.
        let e2 = kb.insert_edge(nodes[2], nodes[3], r, true).unwrap();
        kb.remove_edge(e2).unwrap();
        let (redrawn3, _) = frame.refresh(&kb).unwrap();
        assert_eq!(redrawn3.epoch(), kb.epoch());

        // Removing every edge leaves no eligible start: loud error.
        while kb.edge_count() > 0 {
            kb.remove_edge(rex_kb::EdgeId(0)).unwrap();
        }
        assert!(frame.refresh(&kb).is_err());
    }

    #[test]
    fn empty_kb_errors_loudly() {
        let kb = rex_kb::KbBuilder::new().build();
        let err = SampleFrame::sample(&kb, 10, 0).unwrap_err();
        assert!(err.to_string().contains("sample frame"));
        // Size 0 is a legitimate empty frame, not an error.
        assert!(SampleFrame::sample(&kb, 0, 0).unwrap().is_empty());
        // Edge-free KBs have no eligible starts either.
        let mut b = rex_kb::KbBuilder::new();
        b.add_node("a", "T");
        assert!(SampleFrame::sample(&b.build(), 5, 0).is_err());
    }
}
