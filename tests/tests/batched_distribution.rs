//! Parity and accounting tests for the batched all-starts distribution
//! pipeline (§5.3.2's amortization): the batched engine must agree with
//! the per-start reference on the toy KB and a seeded synthetic KB —
//! including `LIMIT`-pruned paths — and the rekeyed cache must make the
//! sharing observable: ranking a workload under global distribution
//! measures performs at most one full relational evaluation per distinct
//! canonical pattern shape.

use std::collections::HashSet;

use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::distribution::{global_position, global_position_per_start};
use rex_core::measures::MeasureContext;
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::ranking::parallel::rank_by_position_parallel;
use rex_core::EnumConfig;
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_kb::KnowledgeBase;
use rex_relstore::engine::{
    count_distributions, local_count_distribution_indexed, local_position_indexed, EvalRequest,
    ShardSpec, ShardedEdgeIndex,
};

/// Batched vs per-start parity for every enumerated pattern of `(a, b)`,
/// over every start in `starts` — multisets, positions, and pruned
/// (`limit < usize::MAX`) position queries.
fn assert_parity(kb: &KnowledgeBase, a: rex_kb::NodeId, b: rex_kb::NodeId, starts: &[u64]) {
    let out = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4)).enumerate(kb, a, b);
    assert!(!out.explanations.is_empty(), "no explanations to test");
    let sharded = ShardedEdgeIndex::build(kb, ShardSpec::single());
    let index = sharded.base();
    for e in &out.explanations {
        let spec = e.pattern.to_spec();
        let req = EvalRequest { starts, ..Default::default() };
        let batched = count_distributions(&sharded, &spec, &req).unwrap().per_start;
        let a_val = e.count() as u64;
        for &s in starts {
            // Multiset parity.
            let per_start = local_count_distribution_indexed(index, &spec, s).unwrap();
            let mut expected: Vec<u64> = per_start.into_values().collect();
            expected.sort_unstable_by(|x, y| y.cmp(x));
            let got = batched.get(&s).cloned().unwrap_or_default();
            assert_eq!(got, expected, "multiset mismatch, start {s}");
            // Exact and pruned position parity: the engine's per-start
            // query (streaming when bounded) must equal the position
            // derived from the batched multiset, saturated at the limit.
            let exact = got.partition_point(|&c| c > a_val);
            for limit in [0usize, 1, 2, usize::MAX] {
                let engine_pos = local_position_indexed(index, &spec, s, a_val, limit).unwrap();
                assert_eq!(
                    engine_pos,
                    exact.min(limit),
                    "position mismatch, start {s} limit {limit}"
                );
            }
        }
    }
}

#[test]
fn toy_kb_batched_parity() {
    let kb = rex_kb::toy::entertainment();
    let a = kb.require_node("brad_pitt").unwrap();
    let b = kb.require_node("angelina_jolie").unwrap();
    let starts: Vec<u64> = (0..kb.node_count() as u64).collect();
    assert_parity(&kb, a, b, &starts);
}

#[test]
fn seeded_datagen_kb_batched_parity() {
    let kb = generate(&GeneratorConfig::tiny(2026));
    let pairs = sample_pairs(&kb, 2, 4, 2026);
    assert!(!pairs.is_empty(), "sampler found no pairs");
    let pair = &pairs[0];
    // Every 7th entity plus the pair's own start: a spread of hub and
    // fringe starts without testing all |V| of them.
    let mut starts: Vec<u64> = (0..kb.node_count() as u64).step_by(7).collect();
    starts.push(pair.start.0 as u64);
    starts.sort_unstable();
    starts.dedup();
    assert_parity(&kb, pair.start, pair.end, &starts);
}

/// The acceptance bar of the batching tentpole: ranking a workload under
/// the global distribution measure performs at most one full (batched)
/// relational evaluation per **distinct canonical pattern shape**, pruned
/// or not — observable through the shared cache's counters.
#[test]
fn global_ranking_evaluates_once_per_shape() {
    let kb = generate(&GeneratorConfig::tiny(2011));
    let pairs = sample_pairs(&kb, 2, 4, 2011);
    assert!(!pairs.is_empty(), "sampler found no pairs");
    let enumerator = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4));
    for pair in pairs.iter().take(3) {
        let out = enumerator.enumerate(&kb, pair.start, pair.end);
        if out.explanations.is_empty() {
            continue;
        }
        let distinct_shapes: HashSet<_> =
            out.explanations.iter().map(|e| e.key().clone()).collect();
        let ctx = MeasureContext::new(&kb, pair.start, pair.end).with_global_samples(25, 7);
        for prune in [false, true] {
            let _ = rank_by_position(&out.explanations, &ctx, 5, Scope::Global, prune);
        }
        let _ = rank_by_position_parallel(&out.explanations, &ctx, 5, Scope::Global, true, 4);
        let cache = ctx.distributions();
        assert!(
            cache.batched_evals() <= distinct_shapes.len(),
            "{} batched evaluations for {} distinct shapes",
            cache.batched_evals(),
            distinct_shapes.len()
        );
        // Rerunning the ranking must be answered entirely from the cache.
        let (_, misses_before) = cache.stats();
        let _ = rank_by_position(&out.explanations, &ctx, 5, Scope::Global, false);
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_after, misses_before, "second ranking pass missed the cache");
    }
}

/// Pruned, unpruned, sequential, and parallel global rankings agree on a
/// synthetic KB; the batched path agrees with the per-start baseline.
#[test]
fn datagen_rankings_agree_across_engines() {
    let kb = generate(&GeneratorConfig::tiny(42));
    let pairs = sample_pairs(&kb, 1, 4, 42);
    assert!(!pairs.is_empty(), "sampler found no pairs");
    let pair = &pairs[0];
    let out = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4))
        .enumerate(&kb, pair.start, pair.end);
    if out.explanations.is_empty() {
        return;
    }
    let ctx = MeasureContext::new(&kb, pair.start, pair.end).with_global_samples(15, 3);
    for e in &out.explanations {
        assert_eq!(
            global_position(&ctx, e, usize::MAX),
            global_position_per_start(&ctx, e, usize::MAX),
            "batched vs per-start divergence"
        );
    }
    for scope in [Scope::Local, Scope::Global] {
        let exact = rank_by_position(&out.explanations, &ctx, 5, scope, false);
        let pruned = rank_by_position(&out.explanations, &ctx, 5, scope, true);
        let par = rank_by_position_parallel(&out.explanations, &ctx, 5, scope, true, 3);
        let es: Vec<f64> = exact.iter().map(|r| r.score).collect();
        let ps: Vec<f64> = pruned.iter().map(|r| r.score).collect();
        let rs: Vec<f64> = par.iter().map(|r| r.score).collect();
        assert_eq!(es, ps, "pruned ranking diverged ({scope:?})");
        assert_eq!(es, rs, "parallel ranking diverged ({scope:?})");
    }
}
