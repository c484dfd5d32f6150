//! Criterion micro-benchmarks for Figure 11: distribution-based top-10
//! ranking — local vs. global scope, pruned vs. exact — plus the raw
//! relational position query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::MeasureContext;
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::EnumConfig;
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_relstore::engine::{local_position_indexed, EdgeIndex};

fn bench_distribution(c: &mut Criterion) {
    let kb = generate(&GeneratorConfig::tiny(2011));
    let pairs = sample_pairs(&kb, 1, 4, 2011);
    let Some(pair) = pairs.first() else { return };
    let config = EnumConfig::default().with_instance_cap(2_000);
    let out = GeneralEnumerator::new(config).enumerate(&kb, pair.start, pair.end);
    let explanations = out.explanations;
    assert!(!explanations.is_empty());

    let mut group = c.benchmark_group("fig11_distribution");
    group.sample_size(10);
    for (name, scope, prune) in [
        ("local", Scope::Local, false),
        ("local_pruned", Scope::Local, true),
        ("global", Scope::Global, false),
        ("global_pruned", Scope::Global, true),
    ] {
        group.bench_function(BenchmarkId::new(name, pair.group.name()), |b| {
            b.iter(|| {
                let ctx =
                    MeasureContext::new(&kb, pair.start, pair.end).with_global_samples(20, 2011);
                let _ = ctx.edge_index();
                rank_by_position(&explanations, &ctx, 10, scope, prune)
            })
        });
    }
    // The raw SQL-equivalent position query on one pattern.
    let index = EdgeIndex::build(&kb);
    let spec = explanations[0].pattern.to_spec();
    group.bench_function("position_query", |b| {
        b.iter(|| {
            local_position_indexed(&index, &spec, pair.start.0 as u64, 1, usize::MAX)
                .expect("valid spec")
                .0
        })
    });
    group.finish();
}

criterion_group!(benches, bench_distribution);
criterion_main!(benches);
