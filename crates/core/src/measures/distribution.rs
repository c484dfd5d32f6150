//! Distribution-based measures (§4.3): the rarity of an explanation's
//! aggregate value among alternative target pairs.
//!
//! For an explanation with aggregate (count) value `A`:
//!
//! * the **local** position counts end entities `y` whose instance count
//!   between `vstart` and `y` strictly exceeds `A`;
//! * the **global** position does the same varying *both* targets; the
//!   true global distribution is prohibitively expensive, so — exactly as
//!   §5.3.2 — it is estimated as the sum of positions over a fixed sample
//!   of local distributions with random start entities (100 by default).
//!
//! A position of 0 means nothing beats this pair (maximally rare =
//! maximally interesting), so the score is the *negated* position.
//! Evaluation runs through the relational engine ([`rex_relstore`]),
//! mirroring the paper's SQL `GROUP BY … HAVING count > c`.

use std::sync::Arc;

use rex_relstore::budget::Budget;

use crate::explanation::Explanation;
use crate::measures::{Measure, MeasureContext};

/// Computes the local position of `explanation` (aggregate = count).
/// Exact queries (`limit == usize::MAX`) run through the context's shared
/// [`DistributionCache`](crate::measures::DistributionCache); bounded
/// queries use the engine's streaming `LIMIT p` plan (§5.3.2's pruning),
/// which aborts without materializing a cacheable distribution.
pub fn local_position(ctx: &MeasureContext<'_>, explanation: &Explanation, limit: usize) -> usize {
    if limit == usize::MAX {
        return ctx.distributions().local_position(ctx.edge_index(), explanation, ctx.vstart.0);
    }
    // Free exactness: a cached distribution answers any bounded query.
    if let Some(pos) = ctx.distributions().cached_local_position(explanation, ctx.vstart.0) {
        return pos.min(limit);
    }
    let spec = explanation.pattern.to_spec();
    let a = explanation.count() as u64;
    rex_relstore::engine::local_position_indexed(
        ctx.edge_index().base(),
        &spec,
        ctx.vstart.0 as u64,
        a,
        limit,
    )
    .expect("explanation patterns are valid specs")
}

/// Computes the sampled global position of `explanation` through the
/// context's shared cache: **one** batched all-starts relational
/// evaluation per pattern shape covers the whole shared sample frame, and
/// the pair's own start entity is excluded at *read* time (its rows are
/// skipped in the position sum), so the evaluated domain — and therefore
/// the cached batch — is identical for every pair sharing the frame.
/// `limit` caps the returned position (the batched evaluation subsumes
/// the paper's per-start `LIMIT` pruning — sharing the computation beats
/// aborting it).
pub fn global_position(ctx: &MeasureContext<'_>, explanation: &Explanation, limit: usize) -> usize {
    let frame = ctx.sample_frame();
    let pos = ctx
        .distributions()
        .global_position(
            ctx.edge_index(),
            explanation,
            frame.starts(),
            Some(ctx.vstart),
            &Budget::unlimited(),
        )
        .expect("unlimited budget never aborts");
    pos.min(limit)
}

/// The pre-batching baseline: estimates the global position with one
/// bounded relational evaluation **per sampled start** (`LIMIT`-pruned
/// once the accumulated position reaches `limit`). Kept as the reference
/// implementation for parity tests and as the "before" side of the
/// ranking benchmark; production paths use [`global_position`].
pub fn global_position_per_start(
    ctx: &MeasureContext<'_>,
    explanation: &Explanation,
    limit: usize,
) -> usize {
    let spec = explanation.pattern.to_spec();
    let a = explanation.count() as u64;
    let mut total = 0usize;
    for start in ctx.sample_starts_excluding() {
        let remaining = limit.saturating_sub(total);
        if remaining == 0 {
            break;
        }
        total += rex_relstore::engine::local_position_indexed(
            ctx.edge_index().base(),
            &spec,
            start.0 as u64,
            a,
            remaining,
        )
        .expect("explanation patterns are valid specs");
    }
    total
}

/// The full local count distribution of an explanation's pattern: the
/// multiset of per-end-entity instance counts `{c : count(vstart, y) = c}`
/// for all end entities with at least one instance. Sorted descending so
/// `partition_point` gives positions directly. Served from the context's
/// shared cache.
pub fn local_count_multiset(ctx: &MeasureContext<'_>, e: &Explanation) -> Arc<Vec<u64>> {
    ctx.distributions().counts(ctx.edge_index(), e, ctx.vstart.0)
}

/// Position of aggregate value `a` within a descending count multiset:
/// the number of entries strictly greater than `a`.
pub fn position_in(counts: &[u64], a: u64) -> usize {
    counts.partition_point(|&c| c > a)
}

/// `M_local-deviation` (§4.3's alternative formulation): how many standard
/// deviations the explanation's count sits **above** the mean of its local
/// distribution. The paper reports it "similarly effective" to the
/// position measure; it reuses a materialized distribution cheaply and is
/// less sensitive to heavy ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalDeviationMeasure;

impl LocalDeviationMeasure {
    /// Creates the measure.
    pub fn new() -> Self {
        LocalDeviationMeasure
    }
}

impl Measure for LocalDeviationMeasure {
    fn name(&self) -> &'static str {
        "local-deviation"
    }

    fn score(&self, ctx: &MeasureContext<'_>, e: &Explanation) -> f64 {
        let counts = local_count_multiset(ctx, e);
        if counts.is_empty() {
            return 0.0;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        let a = e.count() as f64;
        if std < 1e-12 {
            // Degenerate distribution: every pair looks alike; rarity
            // carries no information — score neutrally.
            0.0
        } else {
            (a - mean) / std
        }
    }
}

/// `M_local-position`: negated position in the local count distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalDistMeasure;

impl LocalDistMeasure {
    /// Creates the measure.
    pub fn new() -> Self {
        LocalDistMeasure
    }
}

impl Measure for LocalDistMeasure {
    fn name(&self) -> &'static str {
        "local-dist"
    }

    fn score(&self, ctx: &MeasureContext<'_>, e: &Explanation) -> f64 {
        -(local_position(ctx, e, usize::MAX) as f64)
    }
}

/// `M_global-position`: negated position in the sampled global count
/// distribution (sample size and seed come from the context).
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalDistMeasure;

impl GlobalDistMeasure {
    /// Creates the measure.
    pub fn new() -> Self {
        GlobalDistMeasure
    }
}

impl Measure for GlobalDistMeasure {
    fn name(&self) -> &'static str {
        "global-dist"
    }

    fn score(&self, ctx: &MeasureContext<'_>, e: &Explanation) -> f64 {
        -(global_position(ctx, e, usize::MAX) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::EnumConfig;

    /// Example 7 of the paper, transposed to the toy KB: spousal and
    /// co-starring explanations both have count 1 for Brad & Angelina, but
    /// the spousal one is rarer (no other spouse of Brad's beats count 1,
    /// while Julia Roberts beats the co-star count), so local-dist ranks
    /// spouse strictly higher.
    #[test]
    fn spouse_outranks_costar_by_rarity() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let spouse = out
            .explanations
            .iter()
            .find(|e| e.pattern.describe(&kb) == "(start)-[spouse]-(end)")
            .expect("spouse explanation");
        let costar = out
            .explanations
            .iter()
            .find(|e| {
                e.pattern.is_path()
                    && e.pattern.var_count() == 3
                    && e.pattern.describe(&kb).contains("starring")
            })
            .expect("costar explanation");
        assert_eq!(spouse.count(), 1);
        assert_eq!(costar.count(), 1);
        let m = LocalDistMeasure::new();
        assert!(
            m.score(&ctx, spouse) > m.score(&ctx, costar),
            "spouse {} vs costar {}",
            m.score(&ctx, spouse),
            m.score(&ctx, costar)
        );
        // Spouse position is exactly 0.
        assert_eq!(m.score(&ctx, spouse), 0.0);
    }

    #[test]
    fn limits_saturate_positions() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let costar = out
            .explanations
            .iter()
            .find(|e| e.pattern.is_path() && e.pattern.var_count() == 3)
            .expect("some 2-hop explanation");
        let exact = local_position(&ctx, costar, usize::MAX);
        let limited = local_position(&ctx, costar, 1);
        assert!(limited <= exact.min(1));
    }

    /// The batched global position must agree with the per-start baseline
    /// for every explanation of the pair (the tentpole's parity bar).
    #[test]
    fn batched_global_matches_per_start_baseline() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(7, 11);
        for e in &out.explanations {
            assert_eq!(
                global_position(&ctx, e, usize::MAX),
                global_position_per_start(&ctx, e, usize::MAX),
                "{}",
                e.describe(&kb)
            );
        }
    }

    #[test]
    fn global_position_bounded_by_sample_sum() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(5, 3);
        let e = &out.explanations[0];
        let exact = global_position(&ctx, e, usize::MAX);
        let limited = global_position(&ctx, e, 2);
        assert!(limited <= 2);
        assert!(limited <= exact);
        let m = GlobalDistMeasure::new();
        assert_eq!(m.score(&ctx, e), -(exact as f64));
    }
}

#[cfg(test)]
mod deviation_tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::EnumConfig;

    #[test]
    fn multiset_and_position_agree_with_engine() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        for e in &out.explanations {
            let counts = local_count_multiset(&ctx, e);
            // Descending order.
            assert!(counts.windows(2).all(|w| w[0] >= w[1]));
            // Position derived from the multiset equals the engine's.
            let pos = position_in(&counts, e.count() as u64);
            assert_eq!(pos, local_position(&ctx, e, usize::MAX), "{}", e.describe(&kb));
        }
    }

    #[test]
    fn deviation_ranks_spouse_over_costar() {
        // The spousal distribution is all-ones (std 0 → score 0) while the
        // co-star count of 1 sits *below* the co-star distribution's mean
        // (Julia Roberts has 2) → negative score. Spouse wins.
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let m = LocalDeviationMeasure::new();
        let spouse = out
            .explanations
            .iter()
            .find(|e| e.pattern.describe(&kb) == "(start)-[spouse]-(end)")
            .unwrap();
        let costar = out
            .explanations
            .iter()
            .find(|e| {
                e.pattern.is_path()
                    && e.pattern.var_count() == 3
                    && e.pattern.describe(&kb).contains("starring")
                    && e.pattern.edges().iter().all(|pe| kb.label_name(pe.label) == "starring")
            })
            .unwrap();
        assert!(
            m.score(&ctx, spouse) >= m.score(&ctx, costar),
            "spouse {} vs costar {}",
            m.score(&ctx, spouse),
            m.score(&ctx, costar)
        );
    }

    #[test]
    fn empty_distribution_scores_zero() {
        // A pattern with no instances anywhere from this start (wrong
        // direction) yields an empty multiset.
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let p = crate::pattern::Pattern::path(&[
            (starring, crate::pattern::EdgeDir::Backward),
            (starring, crate::pattern::EdgeDir::Forward),
        ])
        .unwrap();
        let e = crate::Explanation::new(p, vec![]);
        let ctx = MeasureContext::new(&kb, a, b);
        assert_eq!(LocalDeviationMeasure::new().score(&ctx, &e), 0.0);
    }
}
