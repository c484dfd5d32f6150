//! `NaiveEnum` (paper Algorithm 1): the gSpan-style pattern-growth
//! baseline.
//!
//! Starting from the empty pattern over the two targets, patterns grow one
//! edge at a time following the graph-expansion discipline of gSpan (Yan &
//! Han 2002) adapted to anchored patterns: candidate edges are discovered
//! from the *instances* of the parent pattern (so only patterns with
//! support in the knowledge base are ever materialized), duplicates are
//! pruned by canonical form, and a pattern is emitted as an explanation
//! when it is minimal. Non-minimal patterns are **not** pruned from the
//! queue — they may grow into minimal ones — which is exactly why this
//! baseline is orders of magnitude slower than the path-union framework
//! (Figure 7).
//!
//! A configurable work budget guards benchmark runs: the expansion loop
//! aborts (reporting how far it got) once either the pattern-expansion
//! budget or the derived instance-pair budget (`budget × 200`) is
//! exhausted, because on highly connected pairs both the intermediate
//! pattern space and the per-pattern instance sets are enormous. The
//! configured `instance_cap` additionally bounds each intermediate
//! pattern's materialized instances (the default exact configuration uses
//! no cap; capped runs trade exactness for boundedness, exactly like the
//! capped path-union runs).

use std::collections::HashSet;

use rex_kb::{KnowledgeBase, Neighbor, NodeId, Orientation};

use crate::canonical::{canonical_key, CanonicalKey};
use crate::config::EnumConfig;
use crate::enumerate::{EnumOutput, EnumStats};
use crate::explanation::Explanation;
use crate::instance::Instance;
use crate::pattern::{Pattern, PatternEdge, VarId};
use crate::properties::is_minimal;

/// The baseline enumerator.
#[derive(Debug, Clone)]
pub struct NaiveEnumerator {
    config: EnumConfig,
    /// Maximum number of pattern expansions before aborting (`usize::MAX`
    /// = unbounded, the default).
    budget: usize,
}

/// A queued pattern with its instances.
struct Entry {
    pattern: Pattern,
    instances: Vec<Instance>,
}

impl NaiveEnumerator {
    /// Unbounded baseline enumerator.
    pub fn new(config: EnumConfig) -> Self {
        NaiveEnumerator { config, budget: usize::MAX }
    }

    /// Baseline enumerator with an expansion budget (for benchmarks that
    /// must terminate on hub-heavy pairs).
    pub fn with_budget(config: EnumConfig, budget: usize) -> Self {
        NaiveEnumerator { config, budget }
    }

    /// Runs Algorithm 1. Returns all minimal explanations (same result set
    /// as the path-union framework when the budget is not hit).
    pub fn enumerate(&self, kb: &KnowledgeBase, vstart: NodeId, vend: NodeId) -> EnumOutput {
        let mut stats = EnumStats::default();
        let mut out: Vec<Explanation> = Vec::new();
        if vstart == vend {
            return EnumOutput { explanations: out, stats };
        }
        let n = self.config.max_pattern_nodes;
        let seed_pattern = Pattern::new(2, Vec::new()).expect("two isolated targets are valid");
        let seed =
            Entry { pattern: seed_pattern, instances: vec![Instance::new(vec![vstart, vend])] };
        let mut seen: HashSet<CanonicalKey> = HashSet::new();
        seen.insert(canonical_key(&seed.pattern));
        let mut queue: Vec<Entry> = vec![seed];
        // Instance-pair work budget: expanding one hub pattern can cost
        // millions of pair probes even when few patterns are expanded.
        let pair_budget = self.budget.saturating_mul(200);
        let mut i = 0;
        while i < queue.len() {
            if stats.patterns_expanded >= self.budget || stats.instance_pairs >= pair_budget {
                break;
            }
            stats.patterns_expanded += 1;
            let children = self.expand(kb, &queue[i], vstart, vend, n, &mut stats);
            for child in children {
                let key = canonical_key(&child.pattern);
                if !seen.insert(key) {
                    stats.duplicates += 1;
                    continue;
                }
                if is_minimal(&child.pattern) {
                    out.push(Explanation::new(child.pattern.clone(), child.instances.clone()));
                }
                queue.push(child);
            }
            i += 1;
        }
        stats.explanations = out.len();
        EnumOutput { explanations: out, stats }
    }

    /// Generates all one-edge expansions of `entry` that keep ≥ 1 instance.
    fn expand(
        &self,
        kb: &KnowledgeBase,
        entry: &Entry,
        vstart: NodeId,
        vend: NodeId,
        n: usize,
        stats: &mut EnumStats,
    ) -> Vec<Entry> {
        // Collect candidate new edges from the instances: for each instance,
        // each bound variable, each incident KB edge.
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Candidate {
            /// New edge between two existing variables.
            Closing(PatternEdge),
            /// New edge from an existing variable to a fresh variable,
            /// oriented as seen from the existing endpoint.
            Opening(VarId, rex_kb::LabelId, Orientation),
        }
        let mut candidates: HashSet<Candidate> = HashSet::new();
        let var_count = entry.pattern.var_count();
        for inst in &entry.instances {
            for v in 0..var_count as u8 {
                let var = VarId(v);
                let node = inst.get(var);
                let mut prev: Option<(rex_kb::LabelId, Orientation, NodeId)> = None;
                for nb in kb.neighbors(node) {
                    let dedup_key = (nb.label(), nb.orientation(), nb.other());
                    if prev == Some(dedup_key) {
                        continue;
                    }
                    prev = Some(dedup_key);
                    // Closing edges: neighbor is bound to some variable.
                    for u in 0..var_count as u8 {
                        if inst.get(VarId(u)) == nb.other() && u != v {
                            candidates.insert(Candidate::Closing(edge_from(var, VarId(u), nb)));
                        }
                    }
                    // Opening edges: fresh variable, if the size limit and
                    // target-exclusion allow.
                    if var_count < n && nb.other() != vstart && nb.other() != vend {
                        candidates.insert(Candidate::Opening(var, nb.label(), nb.orientation()));
                    }
                }
            }
        }
        // Materialize each candidate child with its full instance set.
        let mut children = Vec::new();
        for cand in candidates {
            match cand {
                Candidate::Closing(edge) => {
                    if entry.pattern.edges().contains(&edge) {
                        continue; // not an expansion
                    }
                    let mut edges = entry.pattern.edges().to_vec();
                    edges.push(edge);
                    let Ok(pattern) = Pattern::new(var_count as u8, edges) else {
                        continue;
                    };
                    let cap = self.config.instance_cap.unwrap_or(usize::MAX);
                    let mut instances: Vec<Instance> = Vec::new();
                    for i in &entry.instances {
                        stats.instance_pairs += 1;
                        if edge_holds(kb, &edge, i) {
                            instances.push(i.clone());
                            if instances.len() >= cap {
                                break;
                            }
                        }
                    }
                    if !instances.is_empty() {
                        children.push(Entry { pattern, instances });
                    }
                }
                Candidate::Opening(var, label, orientation) => {
                    let fresh = VarId(var_count as u8);
                    let edge = match orientation {
                        Orientation::Out => PatternEdge::new(var, fresh, label, true),
                        Orientation::In => PatternEdge::new(fresh, var, label, true),
                        Orientation::Undirected => PatternEdge::new(var, fresh, label, false),
                    };
                    let mut edges = entry.pattern.edges().to_vec();
                    edges.push(edge);
                    let Ok(pattern) = Pattern::new(var_count as u8 + 1, edges) else {
                        continue;
                    };
                    let cap = self.config.instance_cap.unwrap_or(usize::MAX);
                    let mut instances = Vec::new();
                    'insts: for inst in &entry.instances {
                        let node = inst.get(var);
                        let mut prev: Option<(rex_kb::LabelId, Orientation, NodeId)> = None;
                        for nb in kb.neighbors_labeled_oriented(node, label, orientation) {
                            let dedup_key = (nb.label(), nb.orientation(), nb.other());
                            if prev == Some(dedup_key) {
                                continue;
                            }
                            prev = Some(dedup_key);
                            stats.instance_pairs += 1;
                            if nb.other() == vstart || nb.other() == vend {
                                continue;
                            }
                            if inst.as_slice().contains(&nb.other()) {
                                continue;
                            }
                            let mut assignment = inst.as_slice().to_vec();
                            assignment.push(nb.other());
                            instances.push(Instance::new(assignment));
                            if instances.len() >= cap {
                                break 'insts;
                            }
                        }
                    }
                    if !instances.is_empty() {
                        children.push(Entry { pattern, instances });
                    }
                }
            }
        }
        children
    }
}

/// Builds the pattern edge for a closing candidate, oriented as seen from
/// `from` via the adjacency entry `nb`.
fn edge_from(from: VarId, to: VarId, nb: &Neighbor) -> PatternEdge {
    match nb.orientation() {
        Orientation::Out => PatternEdge::new(from, to, nb.label(), true),
        Orientation::In => PatternEdge::new(to, from, nb.label(), true),
        Orientation::Undirected => PatternEdge::new(from, to, nb.label(), false),
    }
}

/// Whether `edge` is realized by `instance` in the knowledge base.
fn edge_holds(kb: &KnowledgeBase, edge: &PatternEdge, instance: &Instance) -> bool {
    let u = instance.get(edge.u);
    let v = instance.get(edge.v);
    if edge.directed {
        kb.has_edge(u, v, edge.label, Orientation::Out)
    } else {
        kb.has_edge(u, v, edge.label, Orientation::Undirected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::instance::satisfies;
    use crate::testutil::signature;

    #[test]
    fn agrees_with_path_union_on_toy_pairs() {
        let kb = rex_kb::toy::entertainment();
        // n = 4 keeps the baseline fast enough for a unit test.
        let config = EnumConfig::default().with_max_nodes(4);
        for (a, b) in rex_kb::toy::STUDY_PAIRS.iter().take(3) {
            let va = kb.require_node(a).unwrap();
            let vb = kb.require_node(b).unwrap();
            let naive = NaiveEnumerator::new(config.clone()).enumerate(&kb, va, vb);
            let framework = GeneralEnumerator::new(config.clone()).enumerate(&kb, va, vb);
            assert_eq!(
                signature(&naive.explanations),
                signature(&framework.explanations),
                "{a}-{b}"
            );
        }
    }

    #[test]
    fn emits_only_minimal_patterns_with_instances() {
        let kb = rex_kb::toy::entertainment();
        let config = EnumConfig::default().with_max_nodes(4);
        let va = kb.require_node("brad_pitt").unwrap();
        let vb = kb.require_node("angelina_jolie").unwrap();
        let out = NaiveEnumerator::new(config).enumerate(&kb, va, vb);
        assert!(!out.explanations.is_empty());
        for e in &out.explanations {
            assert!(is_minimal(&e.pattern));
            assert!(!e.instances.is_empty());
            for i in &e.instances {
                assert!(satisfies(&kb, &e.pattern, i, true));
            }
        }
    }

    #[test]
    fn budget_aborts_early() {
        let kb = rex_kb::toy::entertainment();
        let config = EnumConfig::default().with_max_nodes(5);
        let va = kb.require_node("brad_pitt").unwrap();
        let vb = kb.require_node("angelina_jolie").unwrap();
        let out = NaiveEnumerator::with_budget(config, 3).enumerate(&kb, va, vb);
        assert!(out.stats.patterns_expanded <= 3);
    }

    #[test]
    fn degenerate_same_node_query() {
        let kb = rex_kb::toy::entertainment();
        let va = kb.require_node("brad_pitt").unwrap();
        let out = NaiveEnumerator::new(EnumConfig::default()).enumerate(&kb, va, va);
        assert!(out.explanations.is_empty());
    }

    #[test]
    fn expands_more_patterns_than_framework_merges() {
        // The inefficiency the paper reports: NaiveEnum touches far more
        // intermediate patterns than the framework performs merges.
        let kb = rex_kb::toy::entertainment();
        let config = EnumConfig::default().with_max_nodes(4);
        let va = kb.require_node("kate_winslet").unwrap();
        let vb = kb.require_node("leonardo_dicaprio").unwrap();
        let naive = NaiveEnumerator::new(config.clone()).enumerate(&kb, va, vb);
        let framework = GeneralEnumerator::new(config).enumerate(&kb, va, vb);
        assert!(
            naive.stats.patterns_expanded > framework.stats.merge_calls,
            "naive {} vs framework {}",
            naive.stats.patterns_expanded,
            framework.stats.merge_calls
        );
    }
}
