//! Extension experiments — features the paper sketches but defers, built
//! here and measured:
//!
//! 1. the **learned measure combination** (§5.4.1 future work) vs. the
//!    hand-tuned combinations of Table 1;
//! 2. the **deviation-based distributional measure** (§4.3's alternative);
//! 3. **explanation decoration** (§2.3's deferred stage);
//! 4. the **shared distribution cache** and the **shared ranking pass**
//!    (§5.3.2's amortization/parallelism remarks) — wall-clock effect.
//!    The pass ([`rank_pairs_with`] with 4 threads over the context's
//!    index, frame and cache) must rank exactly as the sequential ranker.

use std::time::Instant;

use rex_bench::report::{section, Table};
use rex_core::decorate::decorate;
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::cache::DistributionCache;
use rex_core::measures::{table1_measures, LocalDeviationMeasure, Measure, MeasureContext};
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::ranking::{rank, rank_pairs_with, PairExplanations, RankPairsConfig};
use rex_oracle::dcg::dcg_score;
use rex_oracle::judge::{features, JudgePanel};
use rex_oracle::study::paper_pairs;
use rex_oracle::{StudyConfig, TrainedCombination};
use rex_relstore::budget::Budget;

fn main() {
    println!("# REX extension experiments\n");
    let kb = rex_kb::toy::entertainment();
    let pairs = paper_pairs(&kb);
    let cfg = StudyConfig { global_samples: 30, ..Default::default() };
    let panel = JudgePanel::new(cfg.judges, cfg.seed);

    // ---- 1. learned combination: train on P1–P3, evaluate on P4–P5 ----
    let model = TrainedCombination::train(&kb, &pairs[..3], &cfg, 1.0)
        .expect("training pairs have explanations");
    let eval_pairs = &pairs[3..];
    let mut table = Table::new(["measure", "held-out DCG (P4, P5 avg)"]);
    let evaluate = |m: &dyn Measure| -> f64 {
        let mut total = 0.0;
        for &(a, b) in eval_pairs {
            let out = GeneralEnumerator::new(cfg.enum_config.clone()).enumerate(&kb, a, b);
            let ctx =
                MeasureContext::new(&kb, a, b).with_global_samples(cfg.global_samples, cfg.seed);
            let ranking = rank(&out.explanations, m, &ctx, cfg.k);
            let labels: Vec<f64> = ranking
                .iter()
                .map(|r| panel.average_label(&features(&ctx, &out.explanations[r.index])))
                .collect();
            total += dcg_score(&labels, cfg.k, 2.0);
        }
        total / eval_pairs.len() as f64
    };
    for m in table1_measures() {
        table.row([m.name().to_string(), format!("{:.1}", evaluate(m.as_ref()))]);
    }
    table.row([
        "local-deviation".to_string(),
        format!("{:.1}", evaluate(&LocalDeviationMeasure::new())),
    ]);
    table.row(["learned (ridge LS)".to_string(), format!("{:.1}", evaluate(&model))]);
    section("Learned combination vs. Table-1 measures (held-out pairs)", &table.render());
    println!(
        "learned weights over standardized [size, walk, count, monocount, local-dist]: {:?}, bias {:.3}",
        model.weights.map(|w| (w * 1000.0).round() / 1000.0),
        model.bias
    );

    // ---- 2/3. decoration demo on the Kate–Leo co-star explanation ----
    let a = kb.require_node("kate_winslet").unwrap();
    let b = kb.require_node("leonardo_dicaprio").unwrap();
    let out = GeneralEnumerator::new(cfg.enum_config.clone()).enumerate(&kb, a, b);
    let ctx = MeasureContext::new(&kb, a, b);
    println!("\n## Decoration (§2.3's deferred stage)\n");
    for r in rank(&out.explanations, &rex_core::measures::SizeMeasure, &ctx, 2) {
        let e = &out.explanations[r.index];
        println!("{}", e.describe(&kb));
        for d in decorate(&kb, e, 2) {
            println!("   + {}", d.describe(&kb));
        }
    }

    // ---- 4. cache + parallel wall clock on a synthetic pair ----
    let skb = rex_datagen::generate(&rex_datagen::GeneratorConfig::tiny(2011));
    let spairs = rex_datagen::sample_pairs(&skb, 1, 4, 2011);
    if let Some(p) = spairs.iter().max_by_key(|p| p.connectedness) {
        let out = GeneralEnumerator::new(cfg.enum_config.clone()).enumerate(&skb, p.start, p.end);
        let sctx = MeasureContext::new(&skb, p.start, p.end).with_global_samples(20, 7);
        let _ = sctx.edge_index();
        let t0 = Instant::now();
        let seq = rank_by_position(&out.explanations, &sctx, 10, Scope::Global, false);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let cache = DistributionCache::new();
        let starts = sctx.global_sample_starts();
        let index = sctx.edge_index();
        for e in &out.explanations {
            let _ = cache.global_position(index, e, &starts, None, &Budget::unlimited());
        }
        let t_cached = t0.elapsed();
        let t0 = Instant::now();
        let pair = PairExplanations { start: p.start, end: p.end, explanations: &out.explanations };
        let pass_cfg = RankPairsConfig {
            k: 10,
            global_samples: 20,
            seed: 7,
            threads: 4,
            ..RankPairsConfig::default()
        };
        let pass =
            rank_pairs_with(&[pair], &pass_cfg, index, sctx.sample_frame(), sctx.distributions());
        let t_pass = t0.elapsed();
        let (hits, misses) = cache.stats();
        let mut t = Table::new(["variant", "time", "notes"]);
        t.row([
            "sequential, uncached".to_string(),
            format!("{:.1} ms", t_seq.as_secs_f64() * 1e3),
            format!("{} explanations × 20 samples", out.explanations.len()),
        ]);
        t.row([
            "shared cache".to_string(),
            format!("{:.1} ms", t_cached.as_secs_f64() * 1e3),
            format!("{hits} hits / {misses} misses"),
        ]);
        t.row([
            "shared pass ×4 (cached)".to_string(),
            format!("{:.1} ms", t_pass.as_secs_f64() * 1e3),
            "same top-k as sequential".to_string(),
        ]);
        section("Distribution-computation amortization (§5.3.2 remarks)", &t.render());
        assert_eq!(
            seq.iter().map(|r| r.score).collect::<Vec<_>>(),
            pass.rankings[0].iter().map(|r| r.score).collect::<Vec<_>>(),
            "shared ranking pass diverged"
        );
    }
}
