//! Criterion micro-benchmarks for Figure 11: distribution-based top-10
//! ranking — local vs. global scope, pruned vs. exact — plus the raw
//! relational position query, and the depth-first walk that counts every
//! sampled distribution, once per kind of end level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::{MeasureContext, SampleFrame};
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::EnumConfig;
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_relstore::engine::{count_distributions, local_position_indexed, EdgeIndex, EvalRequest};
use rex_relstore::plan::{PatternSpec, StartBinding};

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

/// `count_distributions` over the starts of a 100-draw sample frame on
/// the `small` KB, for one enumerated spec of each end-level kind the
/// walk has: one list, two intersected lists, and a counted tail. Each
/// is the kind's spec that reads the most list rows among the
/// explanations of the pairs `sample_pairs` draws.
fn bench_walk(c: &mut Criterion) {
    let kb = generate(&GeneratorConfig::small(2011));
    let index = EdgeIndex::build(&kb);
    let frame = SampleFrame::sample(&kb, 100, 2011).expect("the KB has edges");
    let starts: Vec<u64> = frame.draws().iter().map(|(start, _)| start).collect();
    let binding = StartBinding::among(starts.iter().copied());
    let req = EvalRequest { starts: &starts, ..Default::default() };
    let enumerator = GeneralEnumerator::new(EnumConfig::default().with_instance_cap(5_000));
    let mut kinds: [(&str, Option<(usize, PatternSpec)>); 3] =
        [("one_list_end", None), ("two_list_end", None), ("counted_tail", None)];
    for pair in sample_pairs(&kb, 10, 4, 2011) {
        for explanation in enumerator.enumerate(&kb, pair.start, pair.end).explanations {
            let spec = explanation.pattern.to_spec();
            let plan = spec.plan(&index, &binding);
            let end = plan.levels.last().expect("a plan binds the start and the end");
            let kind = match (plan.counted_tail, end.reads.len(), end.loops.is_empty()) {
                (true, _, _) => 2,
                (false, 1, true) => 0,
                (false, 2, _) => 1,
                _ => continue,
            };
            let rows = count_distributions(&index, &spec, &req).expect("valid spec").trace;
            if kinds[kind].1.as_ref().is_none_or(|(most, _)| rows.rows_probed > *most) {
                kinds[kind].1 = Some((rows.rows_probed, spec));
            }
        }
    }

    let mut group = c.benchmark_group("walk");
    group.sample_size(20);
    for (name, found) in kinds {
        let (_, spec) = found.unwrap_or_else(|| panic!("no sampled explanation ends in {name}"));
        group.bench_function(name, |b| {
            b.iter(|| count_distributions(&index, &spec, &req).expect("valid spec"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distribution, bench_walk);
criterion_main!(benches);
