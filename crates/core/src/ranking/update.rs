//! Re-ranking a workload after KB updates — the warm-cache path.
//!
//! [`rank_pairs`](crate::ranking::rank_pairs) builds a session — edge
//! index, sample frame, distribution cache — and pays one batched
//! evaluation per distinct shape. When the KB then changes, the naive
//! answer is to rebuild all three and pay the whole budget again. The
//! warm path keeps the session in a
//! [`ServingState`](crate::ranking::ServingState) and re-ranks in two
//! steps: [`ServingState::maintain`] advances it, then
//! [`Snapshot::rank`] ranks against a fresh snapshot. `maintain`:
//!
//! 1. builds the next epoch's
//!    [`EdgeIndex`](rex_relstore::engine::EdgeIndex) copy-on-write off
//!    to the side (only delta-touched partitions are copied);
//! 2. runs the [`SampleFrame`](crate::measures::SampleFrame) redraw
//!    policy (keep the seeded sample while its starts stay eligible;
//!    deterministic redraw otherwise);
//! 3. delta-maintains the
//!    [`DistributionCache`](crate::measures::DistributionCache)
//!    ([`DistributionCache::apply_delta`]): label-disjoint shapes are
//!    republished for free, and every touched shape is patched with one
//!    partial evaluation over just its affected starts;
//! 4. **flips** the new `(kb, index, frame)` triple into the serving slot
//!    with one O(1) `Arc` swap — concurrent readers pinned to the old
//!    epoch never wait and never observe a torn mix.
//!
//! The re-rank then hits the maintained cache instead of re-evaluating
//! every shape; its [`MaintainOutcome`] reports what maintenance did.
//!
//! When the KB's mutation log has been **compacted** past the session's
//! epoch ([`rex_kb::DeltaSince::Compacted`]), no faithful delta exists:
//! the session falls back to a full index rebuild + cache purge, and the
//! re-rank pays a cold evaluation per shape — correct, just not cheap,
//! and reported through [`MaintainOutcome::compaction_fallback`].
//!
//! The caller re-enumerates its pairs against the updated KB first
//! (updates can create or destroy explanations); enumeration is pair-local
//! and cheap next to batched evaluation, and genuinely *new* shapes
//! simply miss the cache and are evaluated once, as always. The tests
//! below pin this path against cold evaluation of the updated KB.
//!
//! [`ServingState::maintain`]: crate::ranking::ServingState::maintain
//! [`Snapshot::rank`]: crate::ranking::Snapshot::rank
//! [`MaintainOutcome`]: crate::ranking::MaintainOutcome
//! [`MaintainOutcome::compaction_fallback`]:
//!     crate::ranking::MaintainOutcome::compaction_fallback
//! [`DistributionCache::apply_delta`]:
//!     crate::measures::DistributionCache::apply_delta

#[cfg(test)]
mod tests {
    use crate::enumerate::GeneralEnumerator;
    use crate::measures::{DistributionCache, SampleFrame};
    use crate::ranking::{rank_pairs, PairExplanations, RankPairsConfig, ServingState};
    use crate::EnumConfig;
    use rex_kb::NodeId;
    use rex_relstore::budget::Budget;
    use std::sync::Arc;

    /// After a small delta, the warm path re-ranks with strictly fewer
    /// full evaluations than a cold re-rank, and its rankings equal the
    /// cold ones exactly.
    #[test]
    fn delta_rerank_matches_cold_with_fewer_evals() {
        let mut kb = rex_kb::toy::entertainment();
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3));
        let names = [
            ("brad_pitt", "angelina_jolie"),
            ("kate_winslet", "leonardo_dicaprio"),
            ("george_clooney", "julia_roberts"),
        ];
        let pairs: Vec<(NodeId, NodeId)> = names
            .iter()
            .map(|(s, e)| (kb.require_node(s).unwrap(), kb.require_node(e).unwrap()))
            .collect();
        let enumerate = |kb: &rex_kb::KnowledgeBase| -> Vec<(NodeId, NodeId, Vec<_>)> {
            pairs
                .iter()
                .map(|&(s, e)| (s, e, enumerator.enumerate(kb, s, e).explanations))
                .collect()
        };
        let cfg = RankPairsConfig {
            k: 5,
            global_samples: 16,
            seed: 11,
            threads: 1,
            ..RankPairsConfig::default()
        };

        // Cold session on the pre-update KB.
        let state = ServingState::build(&kb, &cfg).unwrap();
        let prepared = enumerate(&kb);
        let tasks: Vec<PairExplanations<'_>> = prepared
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let cold = state.snapshot().rank(&tasks, &cfg, &Budget::unlimited());
        assert!(cold.batched_evals > 0);

        // A small delta: one new co-starring edge.
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();

        // Warm delta re-rank (re-enumerated against the new KB).
        let prepared2 = enumerate(&kb);
        let tasks2: Vec<PairExplanations<'_>> = prepared2
            .iter()
            .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
            .collect();
        let evals_before = state.cache().batched_evals();
        let maintained = state.maintain(&kb).unwrap();
        let updated = state.snapshot().rank(&tasks2, &cfg, &Budget::unlimited());
        let warm_full_evals = state.cache().batched_evals() - evals_before;
        assert!(!maintained.frame_redrawn, "no sampled start lost its edges");
        assert!(!maintained.compaction_fallback);
        assert_eq!(maintained.index_churn, 1);
        let m = maintained.maintenance;
        assert_eq!(m.dropped, 0);
        assert!(m.untouched > 0, "label-disjoint shapes must ride for free");
        assert!(m.patched + m.untouched >= cold.distinct_shapes);

        // Cold re-rank on the updated KB: fresh cache, same index/frame.
        let snap = state.snapshot();
        let cold_cache = DistributionCache::new();
        let recold =
            crate::ranking::rank_pairs_with(&tasks2, &cfg, snap.index(), snap.frame(), &cold_cache);
        assert!(
            warm_full_evals < recold.batched_evals,
            "warm path must issue strictly fewer full evaluations \
             ({warm_full_evals} vs {})",
            recold.batched_evals
        );

        // And identical rankings.
        for (w, c) in updated.rankings.iter().zip(&recold.rankings) {
            let wv: Vec<(usize, f64)> = w.iter().map(|r| (r.index, r.score)).collect();
            let cv: Vec<(usize, f64)> = c.iter().map(|r| (r.index, r.score)).collect();
            assert_eq!(wv, cv);
        }
    }

    /// A delta that empties a sampled start's adjacency triggers the
    /// redraw policy; the update path survives and reports it.
    #[test]
    fn frame_redraw_is_reported() {
        let mut b = rex_kb::KbBuilder::new();
        let nodes: Vec<_> = (0..10).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        for w in nodes.windows(2) {
            b.add_directed_edge(w[0], w[1], "r").unwrap();
        }
        let mut kb = b.build();
        let cfg = RankPairsConfig {
            k: 3,
            global_samples: 8,
            seed: 2,
            threads: 1,
            ..RankPairsConfig::default()
        };
        let state = ServingState::build(&kb, &cfg).unwrap();
        // Strip a sampled start bare.
        let victim = state.snapshot().frame().starts()[0];
        while kb.degree(victim) > 0 {
            let eid = kb.neighbors(victim)[0].edge();
            kb.remove_edge(eid).unwrap();
        }
        let maintained = state.maintain(&kb).unwrap();
        assert!(maintained.frame_redrawn);
        let snap = state.snapshot();
        assert!(!snap.frame().contains(victim));
        assert_eq!(snap.frame().epoch(), kb.epoch());
        assert_eq!(snap.index().epoch(), kb.epoch());
    }

    /// The full driver wiring: rank → mutate → rank_pairs_updated equals
    /// a from-scratch rank_pairs on the updated KB.
    #[test]
    fn update_path_agrees_with_scratch_driver() {
        let mut kb = rex_kb::toy::entertainment();
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3));
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let cfg = RankPairsConfig {
            k: 4,
            global_samples: 10,
            seed: 7,
            threads: 1,
            ..RankPairsConfig::default()
        };
        let state = ServingState::build(&kb, &cfg).unwrap();
        let ex0 = enumerator.enumerate(&kb, a, b).explanations;
        let tasks0 = [PairExplanations { start: a, end: b, explanations: &ex0 }];
        let _ = state.snapshot().rank(&tasks0, &cfg, &Budget::unlimited());

        let spouse = kb.label_by_name("spouse").unwrap();
        let old = kb.find_edge(a, b, spouse, false).unwrap();
        kb.remove_edge(old).unwrap();

        let ex1 = enumerator.enumerate(&kb, a, b).explanations;
        let tasks1 = [PairExplanations { start: a, end: b, explanations: &ex1 }];
        let maintained = state.maintain(&kb).unwrap();
        let updated = state.snapshot().rank(&tasks1, &cfg, &Budget::unlimited());
        // Scratch driver over the mutated KB (epoch carried by the KB, so
        // the lazily derived frame matches the refreshed one as long as
        // no redraw happened).
        assert!(!maintained.frame_redrawn);
        let scratch = rank_pairs(&kb, &tasks1, &cfg).unwrap();
        for (u, s) in updated.rankings.iter().zip(&scratch.rankings) {
            let uv: Vec<(usize, f64)> = u.iter().map(|r| (r.index, r.score)).collect();
            let sv: Vec<(usize, f64)> = s.iter().map(|r| (r.index, r.score)).collect();
            assert_eq!(uv, sv);
        }
    }

    /// When compaction destroys the session's delta window, the update
    /// path falls back to a cold re-evaluation and still ranks correctly.
    #[test]
    fn compaction_forces_full_rebatch_fallback() {
        let mut kb = rex_kb::toy::entertainment();
        let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3));
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let cfg = RankPairsConfig {
            k: 4,
            global_samples: 10,
            seed: 7,
            threads: 1,
            ..RankPairsConfig::default()
        };
        let state = ServingState::build(&kb, &cfg).unwrap();
        let ex0 = enumerator.enumerate(&kb, a, b).explanations;
        let tasks0 = [PairExplanations { start: a, end: b, explanations: &ex0 }];
        let warm = state.snapshot().rank(&tasks0, &cfg, &Budget::unlimited());
        assert!(warm.batched_evals > 0);

        // Retention-policy compaction destroys the session's window.
        kb.set_log_retention(Some(1));
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let e1 = kb.insert_edge(jr, fc, starring, true).unwrap();
        kb.remove_edge(e1).unwrap();
        assert!(kb.delta_since(state.epoch()).is_compacted());

        let ex1 = enumerator.enumerate(&kb, a, b).explanations;
        let tasks1 = [PairExplanations { start: a, end: b, explanations: &ex1 }];
        let maintained = state.maintain(&kb).unwrap();
        let updated = state.snapshot().rank(&tasks1, &cfg, &Budget::unlimited());
        assert!(maintained.compaction_fallback);
        assert_eq!(maintained.index_churn, 0);
        // The re-rank paid cold evaluations (the purged cache refills).
        assert!(updated.batched_evals > 0);
        // And the rankings equal a from-scratch driver.
        let scratch = rank_pairs(&kb, &tasks1, &cfg).unwrap();
        for (u, s) in updated.rankings.iter().zip(&scratch.rankings) {
            let uv: Vec<(usize, f64)> = u.iter().map(|r| (r.index, r.score)).collect();
            let sv: Vec<(usize, f64)> = s.iter().map(|r| (r.index, r.score)).collect();
            assert_eq!(uv, sv);
        }
    }

    /// The serving frame equals a directly sampled frame for the same
    /// (kb, samples, seed) — the session introduces no sampling drift.
    #[test]
    fn serving_frame_matches_direct_sample() {
        let kb = rex_kb::toy::entertainment();
        let cfg = RankPairsConfig {
            k: 3,
            global_samples: 12,
            seed: 9,
            threads: 1,
            ..RankPairsConfig::default()
        };
        let state = ServingState::build(&kb, &cfg).unwrap();
        let direct = Arc::new(SampleFrame::sample(&kb, 12, 9).unwrap());
        assert_eq!(state.snapshot().frame().starts(), direct.starts());
    }
}
