//! Sampling evaluation entity pairs stratified by connectedness (§5.1).
//!
//! The paper draws a random start entity, picks one of its search-engine
//! "related" suggestions as the end entity, and buckets the pair by
//! *connectedness* — the number of simple paths between the two entities
//! within a length limit (4 in the paper, matching the pattern-size limit
//! of 5): **low** 1–30, **medium** 31–100, **high** > 100. Ten pairs per
//! bucket make up the 30-pair performance workload.
//!
//! We stand in for the query-log relatedness signal with short biased
//! random walks from the start entity (co-session entities are
//! overwhelmingly graph-close), then apply the exact same stratification.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_kb::{KnowledgeBase, NodeId};

/// Connectedness bucket of an entity pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnGroup {
    /// 1–30 simple paths within the length limit.
    Low,
    /// 31–100 simple paths.
    Medium,
    /// More than 100 simple paths.
    High,
}

impl ConnGroup {
    /// Buckets a (positive) connectedness value; `None` for disconnected
    /// pairs, which the evaluation discards.
    pub fn classify(connectedness: usize) -> Option<ConnGroup> {
        match connectedness {
            0 => None,
            1..=30 => Some(ConnGroup::Low),
            31..=100 => Some(ConnGroup::Medium),
            _ => Some(ConnGroup::High),
        }
    }

    /// Display name used in reports ("low" / "medium" / "high").
    pub fn name(self) -> &'static str {
        match self {
            ConnGroup::Low => "low",
            ConnGroup::Medium => "medium",
            ConnGroup::High => "high",
        }
    }

    /// All groups in report order.
    pub const ALL: [ConnGroup; 3] = [ConnGroup::Low, ConnGroup::Medium, ConnGroup::High];
}

/// A sampled evaluation pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSample {
    /// Start entity (the one "searched for").
    pub start: NodeId,
    /// End entity (the "related" suggestion).
    pub end: NodeId,
    /// Number of simple paths within the length limit (saturating at the
    /// internal cap; High-group membership is still exact).
    pub connectedness: usize,
    /// The connectedness bucket.
    pub group: ConnGroup,
}

/// Counts simple paths between `a` and `b` up to `max_len` edges, with both
/// a result cap and an exploration-step budget so hub-heavy regions cannot
/// stall the sampler. Returns `(count, exhausted_budget)`; when the budget
/// was exhausted the count is a lower bound.
fn bounded_connectedness(
    kb: &KnowledgeBase,
    a: NodeId,
    b: NodeId,
    max_len: usize,
    path_cap: usize,
    step_budget: usize,
) -> (usize, bool) {
    struct Ctx<'a> {
        kb: &'a KnowledgeBase,
        target: NodeId,
        path_cap: usize,
        steps_left: usize,
        count: usize,
        on_path: Vec<bool>,
    }
    fn rec(ctx: &mut Ctx<'_>, cur: NodeId, budget: usize) {
        for n in ctx.kb.neighbors(cur) {
            if ctx.count >= ctx.path_cap || ctx.steps_left == 0 {
                return;
            }
            ctx.steps_left -= 1;
            if n.other() == ctx.target {
                ctx.count += 1;
                continue;
            }
            if budget > 1 && !ctx.on_path[n.other().index()] {
                ctx.on_path[n.other().index()] = true;
                rec(ctx, n.other(), budget - 1);
                ctx.on_path[n.other().index()] = false;
            }
        }
    }
    if a == b || max_len == 0 {
        return (0, false);
    }
    let mut ctx = Ctx {
        kb,
        target: b,
        path_cap,
        steps_left: step_budget,
        count: 0,
        on_path: vec![false; kb.node_count()],
    };
    ctx.on_path[a.index()] = true;
    rec(&mut ctx, a, max_len);
    let exhausted = ctx.steps_left == 0 || ctx.count >= path_cap;
    (ctx.count, exhausted)
}

/// Public wrapper over the bounded connectedness count (used by benches to
/// report pair statistics).
pub fn connectedness(kb: &KnowledgeBase, a: NodeId, b: NodeId, max_len: usize) -> usize {
    bounded_connectedness(kb, a, b, max_len, 10_000, 2_000_000).0
}

/// Samples up to `per_group` related pairs for each connectedness bucket.
///
/// `max_len` is the simple-path length limit (the paper uses 4 to match a
/// pattern-size limit of 5). Deterministic in `seed`. For very small or
/// sparse KBs some buckets may come back short — callers should check.
pub fn sample_pairs(
    kb: &KnowledgeBase,
    per_group: usize,
    max_len: usize,
    seed: u64,
) -> Vec<PairSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result: Vec<PairSample> = Vec::with_capacity(per_group * 3);
    let mut fill = [0usize; 3];
    let slot = |g: ConnGroup| match g {
        ConnGroup::Low => 0,
        ConnGroup::Medium => 1,
        ConnGroup::High => 2,
    };
    if kb.node_count() == 0 || per_group == 0 {
        return result;
    }
    let budget = per_group.max(1) * 3000;
    for _ in 0..budget {
        if fill.iter().all(|&f| f >= per_group) {
            break;
        }
        let start = NodeId(rng.gen_range(0..kb.node_count() as u32));
        if kb.degree(start) == 0 {
            continue;
        }
        // Biased random walk of 1..=max_len steps to a "related" entity.
        let mut cur = start;
        let steps = rng.gen_range(1..=max_len.max(1));
        for _ in 0..steps {
            let nbrs = kb.neighbors(cur);
            if nbrs.is_empty() {
                break;
            }
            cur = nbrs[rng.gen_range(0..nbrs.len())].other();
        }
        let end = cur;
        if end == start || result.iter().any(|p| p.start == start && p.end == end) {
            continue;
        }
        let (count, truncated) = bounded_connectedness(kb, start, end, max_len, 1_000, 400_000);
        // A truncated search cannot distinguish buckets below the cap.
        let effective = if truncated && count <= 100 { continue } else { count };
        let Some(group) = ConnGroup::classify(effective) else { continue };
        let s = slot(group);
        if fill[s] >= per_group {
            continue;
        }
        fill[s] += 1;
        result.push(PairSample { start, end, connectedness: effective, group });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn classify_buckets() {
        assert_eq!(ConnGroup::classify(0), None);
        assert_eq!(ConnGroup::classify(1), Some(ConnGroup::Low));
        assert_eq!(ConnGroup::classify(30), Some(ConnGroup::Low));
        assert_eq!(ConnGroup::classify(31), Some(ConnGroup::Medium));
        assert_eq!(ConnGroup::classify(100), Some(ConnGroup::Medium));
        assert_eq!(ConnGroup::classify(101), Some(ConnGroup::High));
        assert_eq!(ConnGroup::Low.name(), "low");
    }

    #[test]
    fn sampled_pairs_match_their_buckets() {
        let kb = generate(&GeneratorConfig::tiny(21));
        let pairs = sample_pairs(&kb, 3, 4, 99);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert_ne!(p.start, p.end);
            assert_eq!(ConnGroup::classify(p.connectedness), Some(p.group));
            // Recompute connectedness independently (unbounded enough).
            let c = kb.count_simple_paths(p.start, p.end, 4, 10_000);
            assert_eq!(ConnGroup::classify(c), Some(p.group), "bucket mismatch for {p:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let kb = generate(&GeneratorConfig::tiny(21));
        let a = sample_pairs(&kb, 2, 4, 5);
        let b = sample_pairs(&kb, 2, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        let kb = rex_kb::KbBuilder::new().build();
        assert!(sample_pairs(&kb, 3, 4, 1).is_empty());
        let kb = generate(&GeneratorConfig::tiny(21));
        assert!(sample_pairs(&kb, 0, 4, 1).is_empty());
    }

    #[test]
    fn connectedness_wrapper_agrees_with_kb() {
        let kb = generate(&GeneratorConfig::tiny(33));
        let pairs = sample_pairs(&kb, 2, 4, 7);
        for p in pairs.iter().take(2) {
            let via_kb = kb.count_simple_paths(p.start, p.end, 4, 10_000);
            assert_eq!(connectedness(&kb, p.start, p.end, 4), via_kb);
        }
    }
}
