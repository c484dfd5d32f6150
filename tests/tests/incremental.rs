//! Parity and staleness tests for the incremental maintenance engine:
//!
//! * **proptest parity** — apply a random sequence of edge inserts,
//!   edge deletes, and node inserts to a KB; the delta-maintained
//!   `EdgeIndex` + `DistributionCache` must produce distributions
//!   **byte-identical** to a KB rebuilt from scratch at the final state,
//!   for every shape and every start;
//! * **epoch staleness** — a cache computed at epoch N refuses to serve
//!   epoch N+1 reads and refreshes to correct values instead;
//! * metric regions use `relstore::metrics::scoped()`, so the counter
//!   assertions are per-test deterministic even under the parallel test
//!   runner.

use std::sync::Arc;

use proptest::prelude::*;
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::{DistributionCache, MeasureContext, SampleFrame};
use rex_core::{EnumConfig, Explanation};
use rex_kb::{KbBuilder, KnowledgeBase, LabelId, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{ShardSpec, ShardedEdgeIndex};
use rex_relstore::metrics;
use rex_relstore::plan::dir_code;
use rex_tests::scaffold::{apply_ops, base_kb};

/// The suite's deterministic base KB (distinct tail from the concurrent
/// suite via the salt).
fn suite_kb(seed: u64) -> KnowledgeBase {
    base_kb(seed, 0xA5A5)
}

/// Rebuilds `kb`'s current state from scratch through the bulk builder,
/// preserving node, type, and label id assignment (so distributions are
/// comparable id-for-id).
fn scratch_rebuild(kb: &KnowledgeBase) -> KnowledgeBase {
    let mut b = KbBuilder::new();
    for id in kb.node_ids() {
        b.add_node(kb.node_name(id), kb.node_type_name(id));
    }
    for (_, l) in kb.labels() {
        b.intern_label(l);
    }
    for eid in kb.edge_ids() {
        let e = kb.edge(eid);
        let l = kb.label_name(e.label);
        if e.directed {
            b.add_directed_edge(e.src, e.dst, l);
        } else {
            b.add_undirected_edge(e.src, e.dst, l);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Delta-maintained distributions are byte-identical to those of a KB
    /// rebuilt from scratch at the final state — all shapes, all starts —
    /// and serving them after maintenance costs zero further full
    /// evaluations.
    #[test]
    fn delta_maintained_counts_match_scratch_rebuild(
        base_seed in 0u64..6,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            1..24,
        ),
        tight_ceiling in any::<bool>(),
    ) {
        let scope = metrics::scoped();
        let mut kb = suite_kb(base_seed);
        let starts: Vec<NodeId> = kb.node_ids().collect();
        let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        let unlimited = Budget::unlimited();
        let cache = if tight_ceiling {
            DistributionCache::with_row_ceiling(8)
        } else {
            DistributionCache::new()
        };
        let a = kb.require_node("n0").unwrap();
        let b = kb.require_node("n1").unwrap();
        let explanations: Vec<Explanation> =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3))
                .enumerate(&kb, a, b)
                .explanations;
        prop_assert!(!explanations.is_empty(), "base core guarantees explanations");
        for e in &explanations {
            cache.all_starts(&index, e, &starts, &unlimited).unwrap();
        }
        let warm_evals = cache.batched_evals();

        // Mutate, capture the delta, maintain index + cache.
        let epoch0 = kb.epoch();
        apply_ops(&mut kb, &ops, "i");
        prop_assert!(kb.epoch() > epoch0);
        kb.check_invariants().unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        let index = index.next_epoch(&delta).unwrap();
        prop_assert_eq!(index.epoch(), kb.epoch());
        let maintenance = cache.apply_delta(&kb, &index, &delta);
        prop_assert_eq!(maintenance.dropped, 0);
        prop_assert_eq!(
            maintenance.patched + maintenance.rebatched + maintenance.untouched,
            warm_evals,
            "every warmed shape is accounted for"
        );
        // The per-cache partial-eval counter and the scoped global one
        // agree — the determinism the scoped guard exists for.
        prop_assert_eq!(scope.counts().delta, cache.delta_evals());

        // Scratch rebuild at the final state.
        let kb2 = scratch_rebuild(&kb);
        prop_assert_eq!(kb2.edge_count(), kb.edge_count());
        let index2 = ShardedEdgeIndex::build(&kb2, ShardSpec::single());
        let cache2 = DistributionCache::new();

        // Index parity: every (label, dir) partition has the same size.
        for label in 0..kb.label_count() as u64 {
            for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
                prop_assert_eq!(
                    index.base().scan_len(label, dir),
                    index2.base().scan_len(label, dir),
                    "partition ({}, {})", label, dir
                );
            }
        }
        prop_assert_eq!(index.base().total_rows(), index2.base().total_rows());

        // Distribution parity, all shapes × all (original) starts; the
        // maintained cache must serve them warm.
        let evals_after_maintenance = cache.batched_evals();
        for e in &explanations {
            let maintained = cache.all_starts(&index, e, &starts, &unlimited).unwrap().batch;
            let scratch = cache2.all_starts(&index2, e, &starts, &unlimited).unwrap().batch;
            for s in &starts {
                prop_assert_eq!(
                    maintained.counts_for(s.0 as u64),
                    scratch.counts_for(s.0 as u64),
                    "shape {} start {}", e.describe(&kb), s
                );
            }
        }
        prop_assert_eq!(
            cache.batched_evals(),
            evals_after_maintenance,
            "maintained shapes must serve without re-evaluation"
        );
    }
}

/// A cache whose batches were computed at epoch N must not serve an
/// epoch-N+1 index stale answers: reads refresh and return the values a
/// cold cache computes.
#[test]
fn stale_cache_refreshes_to_correct_values() {
    let _scope = metrics::scoped();
    let mut kb = suite_kb(1);
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    let explanations = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3))
        .enumerate(&kb, a, b)
        .explanations;
    let starts: Vec<NodeId> = kb.node_ids().collect();
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
    let unlimited = Budget::unlimited();
    let cache = DistributionCache::new();
    for e in &explanations {
        cache.all_starts(&index, e, &starts, &unlimited).unwrap();
        cache.counts(&index, e, a.0);
    }
    let evals_warm = cache.batched_evals();

    // Mutate along the first explanation's own labels so distributions
    // really change.
    let epoch0 = kb.epoch();
    let spec = explanations[0].pattern.to_spec();
    let label = LabelId(spec.edges[0].label as u32);
    let directed = spec.edges[0].directed;
    kb.insert_edge(a, b, label, directed).unwrap();
    let index = index.next_epoch(&kb.delta_since(epoch0).into_delta().unwrap()).unwrap();

    // No apply_delta on the cache: reads must detect the skew themselves.
    let fresh = DistributionCache::new();
    for e in &explanations {
        let refreshed = cache.all_starts(&index, e, &starts, &unlimited).unwrap().batch;
        assert_eq!(refreshed.epoch(), kb.epoch());
        let cold = fresh.all_starts(&index, e, &starts, &unlimited).unwrap().batch;
        for s in &starts {
            assert_eq!(
                refreshed.counts_for(s.0 as u64),
                cold.counts_for(s.0 as u64),
                "stale value served for {}",
                e.describe(&kb)
            );
        }
        // The per-start overlay is epoch-guarded too.
        assert_eq!(cache.counts(&index, e, a.0), fresh.counts(&index, e, a.0));
    }
    assert!(cache.batched_evals() > evals_warm, "stale batches must re-evaluate");
}

/// End-to-end staleness through the measure context: a shared cache
/// carried across a KB update yields the same global positions as a
/// freshly built context, even without an explicit apply_delta.
#[test]
fn measure_context_survives_kb_updates() {
    let _scope = metrics::scoped();
    let mut kb = suite_kb(2);
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    let explanations = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3))
        .enumerate(&kb, a, b)
        .explanations;
    let shared = Arc::new(DistributionCache::new());

    // Warm through a context on the pre-update KB.
    {
        let frame = Arc::new(SampleFrame::sample(&kb, 12, 3).unwrap());
        let ctx = MeasureContext::new(&kb, a, b)
            .with_distribution_cache(Arc::clone(&shared))
            .with_sample_frame(frame);
        for e in &explanations {
            global(&ctx, e);
        }
    }

    // Mutate the KB; a context over the updated KB must not serve stale
    // positions from the shared cache.
    let l0 = kb.label_by_name("l0").unwrap();
    kb.insert_edge(a, b, l0, true).unwrap();
    let frame = Arc::new(SampleFrame::sample(&kb, 12, 3).unwrap());
    let warm_ctx = MeasureContext::new(&kb, a, b)
        .with_distribution_cache(Arc::clone(&shared))
        .with_sample_frame(Arc::clone(&frame));
    let cold_ctx = MeasureContext::new(&kb, a, b).with_sample_frame(frame);
    for e in &explanations {
        let (warm, cold) = (global(&warm_ctx, e), global(&cold_ctx, e));
        assert_eq!(warm, cold, "stale position served for {}", e.describe(&kb));
    }
}

/// The global position of `e` over `ctx`'s frame, through its cache.
fn global(ctx: &MeasureContext<'_>, e: &Explanation) -> usize {
    let starts = ctx.sample_frame().starts();
    let pos = ctx.distributions().global_position(
        ctx.edge_index(),
        e,
        starts,
        None,
        &Budget::unlimited(),
    );
    pos.expect("unlimited budget never aborts")
}
