//! Ablation micro-benchmarks for the implementation choices DESIGN.md
//! calls out:
//!
//! * duplicate detection: canonical-key hash set vs. the paper-literal
//!   pairwise isomorphism scan;
//! * merge instance combination: hash join vs. the paper-literal nested
//!   loop;
//! * distribution queries: shared cache vs. recomputation;
//! * parallel distribution ranking: 1 vs. 4 worker threads.

use criterion::{criterion_group, criterion_main, Criterion};
use rex_core::canonical::{are_isomorphic, canonical_key};
use rex_core::enumerate::union::{merge, merge_nested};
use rex_core::enumerate::{EnumStats, GeneralEnumerator};
use rex_core::measures::cache::DistributionCache;
use rex_core::measures::distribution::global_position_per_start;
use rex_core::measures::MeasureContext;
use rex_core::ranking::distribution::Scope;
use rex_core::ranking::parallel::rank_by_position_parallel;
use rex_core::{EnumConfig, Explanation};
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_relstore::budget::Budget;

fn explanations_for_bench(
) -> (rex_kb::KnowledgeBase, rex_kb::NodeId, rex_kb::NodeId, Vec<Explanation>) {
    let kb = generate(&GeneratorConfig::tiny(2011));
    let pairs = sample_pairs(&kb, 1, 4, 2011);
    let pair = pairs.iter().max_by_key(|p| p.connectedness).expect("pairs sampled");
    let out = GeneralEnumerator::new(EnumConfig::default().with_instance_cap(2_000))
        .enumerate(&kb, pair.start, pair.end);
    (kb.clone(), pair.start, pair.end, out.explanations)
}

fn bench_dedup(c: &mut Criterion) {
    let (_, _, _, explanations) = explanations_for_bench();
    let patterns: Vec<_> = explanations.iter().map(|e| e.pattern.clone()).collect();
    let mut group = c.benchmark_group("ablation_dedup");
    group.sample_size(10);
    group.bench_function("canonical_hashset", |b| {
        b.iter(|| {
            let mut seen = std::collections::HashSet::new();
            patterns.iter().filter(|p| seen.insert(canonical_key(p))).count()
        })
    });
    group.bench_function("pairwise_scan", |b| {
        b.iter(|| {
            let mut kept: Vec<&rex_core::Pattern> = Vec::new();
            for p in &patterns {
                if !kept.iter().any(|q| are_isomorphic(p, q)) {
                    kept.push(p);
                }
            }
            kept.len()
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let (_, _, _, explanations) = explanations_for_bench();
    // Pick the two path explanations with the most instances.
    let mut paths: Vec<&Explanation> =
        explanations.iter().filter(|e| e.pattern.is_path()).collect();
    paths.sort_by_key(|e| std::cmp::Reverse(e.count()));
    if paths.len() < 2 {
        return;
    }
    let (a, b) = (paths[0], paths[1]);
    let mut group = c.benchmark_group("ablation_merge");
    group.sample_size(10);
    group.bench_function("hash_join", |bch| {
        bch.iter(|| {
            let mut stats = EnumStats::default();
            merge(a, b, 5, None, &mut stats)
        })
    });
    group.bench_function("nested_loop", |bch| {
        bch.iter(|| {
            let mut stats = EnumStats::default();
            merge_nested(a, b, 5, None, &mut stats)
        })
    });
    group.finish();
}

fn bench_cache_and_parallel(c: &mut Criterion) {
    let (kb, start, end, explanations) = explanations_for_bench();
    let explanations = &explanations[..explanations.len().min(20)];
    let mut group = c.benchmark_group("ablation_distribution");
    group.sample_size(10);
    group.bench_function("global_per_start", |b| {
        b.iter(|| {
            let ctx = MeasureContext::new(&kb, start, end).with_global_samples(10, 7);
            let _ = ctx.edge_index();
            explanations
                .iter()
                .map(|e| global_position_per_start(&ctx, e, usize::MAX))
                .sum::<usize>()
        })
    });
    group.bench_function("global_cached", |b| {
        b.iter(|| {
            let ctx = MeasureContext::new(&kb, start, end).with_global_samples(10, 7);
            let index = ctx.edge_index();
            let starts = ctx.global_sample_starts();
            let cache = DistributionCache::new();
            explanations
                .iter()
                .map(|e| cache.global_position(index, e, &starts, None, &Budget::unlimited()))
                .map(|pos| pos.expect("unlimited budget never aborts"))
                .sum::<usize>()
        })
    });
    for threads in [1usize, 4] {
        group.bench_function(format!("global_parallel_t{threads}"), |b| {
            b.iter(|| {
                let ctx = MeasureContext::new(&kb, start, end).with_global_samples(10, 7);
                let _ = ctx.edge_index();
                rank_by_position_parallel(explanations, &ctx, 10, Scope::Global, false, threads)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dedup, bench_merge, bench_cache_and_parallel);
criterion_main!(benches);
