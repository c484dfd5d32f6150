//! Path explanation combination (paper §3.3): merging path explanations
//! into all minimal explanations.
//!
//! * [`merge`] — the `merge(re1, re2, n)` primitive of Algorithm 3:
//!   enumerate partial one-to-one mappings between the non-target variables
//!   of two patterns (at least one pair matched — requirement (4), which
//!   guarantees non-decomposability of the result), union the patterns
//!   under each mapping, and combine instance pairs that agree on matched
//!   variables. Instance combination is implemented as a hash join on the
//!   matched-variable values rather than the paper's literal nested loop —
//!   identical output, better complexity.
//! * The *column pre-check* in [`merge`]. Almost every merge joins
//!   nothing: on one generated-KB pair, 124,595 merges examine 234
//!   instance pairs in total. So each queue entry carries its *columns*,
//!   the sorted, distinct entities each non-target variable binds across
//!   its stored instances, computed once when the entry enters the queue.
//!   A joined instance pair agrees on every matched variable pair, and
//!   every mapping matches at least one, so `merge` returns at once when
//!   no column of `re1` shares an entity with a column of `re2`, and skips
//!   a mapping whose matched pair has disjoint columns before it builds the
//!   pattern or the hash table. Output and [`EnumStats`] are unchanged. On
//!   the 100 `cold_explain` pairs of `rexbench` (2-vCPU Xeon, one thread,
//!   median of three runs), enumeration took 5.0 s before and 0.39 s
//!   after. [`merge_nested`] stays unfiltered, as the paper-literal oracle.
//! * [`path_union_basic`] — Algorithm 3: breadth rounds, each new
//!   explanation merged with every path explanation.
//! * [`path_union_prune`] — Algorithm 4: composition-history pruning.
//!   By Theorem 3, a `MinP(k)` pattern (k > 2) is the merge of two
//!   `MinP(k-1)` *siblings* — patterns sharing a `MinP(k-2)` parent — so an
//!   explanation only needs to merge with the paths that its siblings were
//!   composed from.
//!
//! Duplicate detection uses canonical keys ([`crate::canonical`]) in a hash
//! set: exact isomorphism dedup at O(1) amortized per candidate instead of
//! the paper's linear scan of pairwise isomorphism checks.

use std::collections::{HashMap, HashSet};

use rex_kb::NodeId;

use crate::canonical::CanonicalKey;
use crate::config::EnumConfig;
use crate::enumerate::EnumStats;
use crate::explanation::Explanation;
use crate::instance::{column, Instance};
use crate::pattern::{Pattern, PatternEdge, VarId};

/// Enumerates the partial one-to-one mappings from the non-target variables
/// of `right` into the non-target variables of `left` with at least one
/// matched pair. Each mapping is a vector indexed by right-variable id
/// (offset by 2) holding `Some(left var)` or `None`.
fn mappings(left_vars: usize, right_vars: usize) -> Vec<Vec<Option<VarId>>> {
    let right_free = right_vars.saturating_sub(2);
    let left_free: Vec<VarId> = (2..left_vars as u8).map(VarId).collect();
    let mut out = Vec::new();
    let mut current: Vec<Option<VarId>> = vec![None; right_free];
    fn rec(
        idx: usize,
        left_free: &[VarId],
        used: &mut Vec<bool>,
        current: &mut Vec<Option<VarId>>,
        out: &mut Vec<Vec<Option<VarId>>>,
    ) {
        if idx == current.len() {
            if current.iter().any(Option::is_some) {
                out.push(current.clone());
            }
            return;
        }
        // Leave right variable `idx` unmatched…
        current[idx] = None;
        rec(idx + 1, left_free, used, current, out);
        // …or match it to any unused left variable.
        for (i, &lv) in left_free.iter().enumerate() {
            if used[i] {
                continue;
            }
            used[i] = true;
            current[idx] = Some(lv);
            rec(idx + 1, left_free, used, current, out);
            current[idx] = None;
            used[i] = false;
        }
    }
    let mut used = vec![false; left_free.len()];
    rec(0, &left_free, &mut used, &mut current, &mut out);
    out
}

/// An explanation's *columns*: for each non-target variable, from
/// variable 2 in order, the sorted, distinct entities it binds across the
/// explanation's stored instances.
type Columns = Vec<Vec<NodeId>>;

fn columns(e: &Explanation) -> Columns {
    (2..e.pattern.var_count()).map(|v| column(&e.instances, VarId(v as u8))).collect()
}

/// Whether two sorted slices share an element.
fn intersects(a: &[NodeId], b: &[NodeId]) -> bool {
    let (small, mut large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for x in small {
        let i = large.partition_point(|y| y < x);
        match large.get(i) {
            Some(y) if y == x => return true,
            Some(_) => large = &large[i..],
            None => return false,
        }
    }
    false
}

/// `joinable[r * cols1.len() + l]`: whether right variable `r + 2` and left
/// variable `l + 2` bind a common entity.
fn joinable(cols1: &[Vec<NodeId>], cols2: &[Vec<NodeId>]) -> Vec<bool> {
    cols2.iter().flat_map(|c2| cols1.iter().map(move |c1| intersects(c1, c2))).collect()
}

/// Merges two explanations under all admissible variable mappings,
/// returning every resulting explanation with ≥ 1 instance and pattern size
/// ≤ `max_nodes`. The result patterns are minimal by construction (§3.3.1).
/// Computes both explanations' columns for the pre-check (module docs); a
/// union queue keeps them with its entries instead.
pub fn merge(
    re1: &Explanation,
    re2: &Explanation,
    max_nodes: usize,
    instance_cap: Option<usize>,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    merge_columns(re1, &columns(re1), re2, &columns(re2), max_nodes, instance_cap, stats)
}

/// [`merge`] with both explanations' [`Columns`] given.
fn merge_columns(
    re1: &Explanation,
    cols1: &[Vec<NodeId>],
    re2: &Explanation,
    cols2: &[Vec<NodeId>],
    max_nodes: usize,
    instance_cap: Option<usize>,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    stats.merge_calls += 1;
    let joinable = joinable(cols1, cols2);
    // Every mapping matches some pair, and no pair shares an entity.
    if !joinable.contains(&true) {
        return Vec::new();
    }
    let p1 = &re1.pattern;
    let p2 = &re2.pattern;
    let mut out = Vec::new();
    for mapping in mappings(p1.var_count(), p2.var_count()) {
        // ---- merged pattern ---------------------------------------------
        let matched = mapping.iter().filter(|m| m.is_some()).count();
        let new_vars = (p2.var_count() - 2) - matched;
        let merged_var_count = p1.var_count() + new_vars;
        if merged_var_count > max_nodes {
            continue;
        }
        // No instance pair agrees on a matched pair with disjoint columns.
        let disjoint = |(r, m): (usize, &Option<VarId>)| {
            m.is_some_and(|lv| !joinable[r * cols1.len() + lv.index() - 2])
        };
        if mapping.iter().enumerate().any(disjoint) {
            continue;
        }
        // Translate p2's variables: targets stay, matched map through
        // `mapping`, unmatched get fresh ids after p1's.
        let mut translate: Vec<VarId> = Vec::with_capacity(p2.var_count());
        let mut next_fresh = p1.var_count() as u8;
        for v in 0..p2.var_count() as u8 {
            let var = VarId(v);
            if var.is_target() {
                translate.push(var);
            } else {
                match mapping[(v - 2) as usize] {
                    Some(lv) => translate.push(lv),
                    None => {
                        translate.push(VarId(next_fresh));
                        next_fresh += 1;
                    }
                }
            }
        }
        let mut edges: Vec<PatternEdge> = p1.edges().to_vec();
        edges.extend(p2.edges().iter().map(|e| {
            PatternEdge::new(translate[e.u.index()], translate[e.v.index()], e.label, e.directed)
        }));
        let Ok(pattern) = Pattern::new(merged_var_count as u8, edges) else {
            continue;
        };
        // A mapping can merge p2 entirely *into* p1 (all edges collapse
        // onto existing ones), reproducing p1 itself — skip those.
        if pattern == *p1 {
            continue;
        }

        // ---- merged instances (hash join on matched variables) ----------
        // Probe side: re2 instances grouped by their matched-variable
        // values; build side: iterate re1 instances.
        let matched_pairs: Vec<(usize, usize)> = mapping
            .iter()
            .enumerate()
            .filter_map(|(rv, m)| m.map(|lv| (rv + 2, lv.index())))
            .collect();
        let mut by_key: HashMap<Vec<rex_kb::NodeId>, Vec<&Instance>> = HashMap::new();
        for i2 in &re2.instances {
            let key: Vec<rex_kb::NodeId> =
                matched_pairs.iter().map(|&(rv, _)| i2.get(VarId(rv as u8))).collect();
            by_key.entry(key).or_default().push(i2);
        }
        let cap = instance_cap.unwrap_or(usize::MAX);
        let mut instances = Vec::new();
        let mut saturated = re1.saturated || re2.saturated;
        'outer: for i1 in &re1.instances {
            let key: Vec<rex_kb::NodeId> =
                matched_pairs.iter().map(|&(_, lv)| i1.get(VarId(lv as u8))).collect();
            let Some(partners) = by_key.get(&key) else { continue };
            'pair: for i2 in partners {
                stats.instance_pairs += 1;
                // Injective semantics: unmatched right values must not
                // collide with any left value.
                let mut assignment: Vec<rex_kb::NodeId> = Vec::with_capacity(merged_var_count);
                assignment.extend_from_slice(i1.as_slice());
                for rv in 2..p2.var_count() as u8 {
                    if mapping[(rv - 2) as usize].is_none() {
                        let val = i2.get(VarId(rv));
                        if i1.as_slice().contains(&val)
                            || assignment[p1.var_count()..].contains(&val)
                        {
                            continue 'pair;
                        }
                        assignment.push(val);
                    }
                }
                instances.push(Instance::new(assignment));
                if instances.len() >= cap {
                    saturated = true;
                    break 'outer;
                }
            }
        }
        if instances.is_empty() {
            continue;
        }
        let expl = if saturated {
            Explanation::new_saturated(pattern, instances)
        } else {
            Explanation::new(pattern, instances)
        };
        out.push(expl);
    }
    out
}

/// A union queue: explanations in discovery order, each with its
/// [`Columns`], computed once when it enters.
#[derive(Default)]
pub(crate) struct Queue {
    explanations: Vec<Explanation>,
    columns: Vec<Columns>,
}

impl Queue {
    /// Appends `e` and returns its index.
    pub(crate) fn push(&mut self, e: Explanation) -> usize {
        self.columns.push(columns(&e));
        self.explanations.push(e);
        self.explanations.len() - 1
    }

    /// The explanations, in discovery order.
    pub(crate) fn explanations(&self) -> &[Explanation] {
        &self.explanations
    }

    pub(crate) fn into_explanations(self) -> Vec<Explanation> {
        self.explanations
    }

    /// [`merge`] of entries `i1` and `i2` under `config`'s size limit and
    /// instance cap.
    pub(crate) fn merge(
        &self,
        i1: usize,
        i2: usize,
        config: &EnumConfig,
        stats: &mut EnumStats,
    ) -> Vec<Explanation> {
        merge_columns(
            &self.explanations[i1],
            &self.columns[i1],
            &self.explanations[i2],
            &self.columns[i2],
            config.max_pattern_nodes,
            config.instance_cap,
            stats,
        )
    }
}

/// The paper-literal variant of [`merge`]: instance combination by the
/// nested loop of Algorithm 3 lines 31–35 instead of a hash join on the
/// matched-variable values. Output is identical (asserted by tests); kept
/// for the merge-strategy ablation benchmark.
pub fn merge_nested(
    re1: &Explanation,
    re2: &Explanation,
    max_nodes: usize,
    instance_cap: Option<usize>,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    stats.merge_calls += 1;
    let p1 = &re1.pattern;
    let p2 = &re2.pattern;
    let mut out = Vec::new();
    for mapping in mappings(p1.var_count(), p2.var_count()) {
        let matched = mapping.iter().filter(|m| m.is_some()).count();
        let new_vars = (p2.var_count() - 2) - matched;
        let merged_var_count = p1.var_count() + new_vars;
        if merged_var_count > max_nodes {
            continue;
        }
        let mut translate: Vec<VarId> = Vec::with_capacity(p2.var_count());
        let mut next_fresh = p1.var_count() as u8;
        for v in 0..p2.var_count() as u8 {
            let var = VarId(v);
            if var.is_target() {
                translate.push(var);
            } else {
                match mapping[(v - 2) as usize] {
                    Some(lv) => translate.push(lv),
                    None => {
                        translate.push(VarId(next_fresh));
                        next_fresh += 1;
                    }
                }
            }
        }
        let mut edges: Vec<PatternEdge> = p1.edges().to_vec();
        edges.extend(p2.edges().iter().map(|e| {
            PatternEdge::new(translate[e.u.index()], translate[e.v.index()], e.label, e.directed)
        }));
        let Ok(pattern) = Pattern::new(merged_var_count as u8, edges) else {
            continue;
        };
        if pattern == *p1 {
            continue;
        }
        let matched_pairs: Vec<(usize, usize)> = mapping
            .iter()
            .enumerate()
            .filter_map(|(rv, m)| m.map(|lv| (rv + 2, lv.index())))
            .collect();
        let cap = instance_cap.unwrap_or(usize::MAX);
        let mut instances = Vec::new();
        let mut saturated = re1.saturated || re2.saturated;
        'outer: for i1 in &re1.instances {
            'pair: for i2 in &re2.instances {
                stats.instance_pairs += 1;
                // Agreement on every matched pair (Algorithm 3 line 32).
                for &(rv, lv) in &matched_pairs {
                    if i2.get(VarId(rv as u8)) != i1.get(VarId(lv as u8)) {
                        continue 'pair;
                    }
                }
                let mut assignment: Vec<rex_kb::NodeId> = Vec::with_capacity(merged_var_count);
                assignment.extend_from_slice(i1.as_slice());
                for rv in 2..p2.var_count() as u8 {
                    if mapping[(rv - 2) as usize].is_none() {
                        let val = i2.get(VarId(rv));
                        if i1.as_slice().contains(&val)
                            || assignment[p1.var_count()..].contains(&val)
                        {
                            continue 'pair;
                        }
                        assignment.push(val);
                    }
                }
                instances.push(Instance::new(assignment));
                if instances.len() >= cap {
                    saturated = true;
                    break 'outer;
                }
            }
        }
        if instances.is_empty() {
            continue;
        }
        let expl = if saturated {
            Explanation::new_saturated(pattern, instances)
        } else {
            Explanation::new(pattern, instances)
        };
        out.push(expl);
    }
    out
}

/// Algorithm 3 (`PathUnionBasic`): iteratively merge each newly discovered
/// explanation with every path explanation until no new minimal
/// explanations emerge.
pub fn path_union_basic(
    paths: Vec<Explanation>,
    config: &EnumConfig,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    let mut q = Queue::default();
    let mut seen: HashSet<CanonicalKey> = HashSet::new();
    for p in paths {
        if seen.insert(p.key().clone()) {
            q.push(p);
        } else {
            stats.duplicates += 1;
        }
    }
    let path_count = q.explanations().len();
    let mut expand: Vec<usize> = (0..path_count).collect();
    while !expand.is_empty() {
        let mut fresh: Vec<usize> = Vec::new();
        for &i1 in &expand {
            for i2 in 0..path_count {
                for re in q.merge(i1, i2, config, stats) {
                    if seen.insert(re.key().clone()) {
                        fresh.push(q.push(re));
                    } else {
                        stats.duplicates += 1;
                    }
                }
            }
        }
        expand = fresh;
    }
    q.into_explanations()
}

/// Algorithm 4 (`PathUnionPrune`): like [`path_union_basic`], but each
/// explanation of round `k` only merges with the paths that explanations
/// sharing one of its parents were composed from (Theorem 3).
pub fn path_union_prune(
    paths: Vec<Explanation>,
    config: &EnumConfig,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    let mut q = Queue::default();
    // Canonical key → queue index, for O(1) duplicate resolution.
    let mut key_index: HashMap<CanonicalKey, usize> = HashMap::new();
    for p in paths {
        if key_index.contains_key(p.key()) {
            stats.duplicates += 1;
        } else {
            let key = p.key().clone();
            key_index.insert(key, q.push(p));
        }
    }
    let path_count = q.explanations().len();
    let mut expand: Vec<usize> = (0..path_count).collect();
    // Composition history of the current round: history[j] lists the
    // (parent queue index, path queue index) pairs that produced expand[j].
    let mut history: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut first_round = true;
    while !expand.is_empty() {
        // For round k > 1: paths associated with each parent across the
        // whole round (union of sibling compositions).
        let mut parent_paths: HashMap<usize, Vec<usize>> = HashMap::new();
        if !first_round {
            for h in &history {
                for &(parent, path) in h {
                    parent_paths.entry(parent).or_default().push(path);
                }
            }
            for v in parent_paths.values_mut() {
                v.sort_unstable();
                v.dedup();
            }
        }
        let mut fresh: Vec<usize> = Vec::new();
        let mut fresh_history: Vec<Vec<(usize, usize)>> = Vec::new();
        // Queue index → history slot for explanations created this round.
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        for (j1, &i1) in expand.iter().enumerate() {
            // Candidate paths for this explanation (Theorem 3 pruning).
            let candidates: Vec<usize> = if first_round {
                (0..path_count).collect()
            } else {
                let mut s: Vec<usize> = history[j1]
                    .iter()
                    .filter_map(|(parent, _)| parent_paths.get(parent))
                    .flatten()
                    .copied()
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            for i2 in candidates {
                for re in q.merge(i1, i2, config, stats) {
                    if let Some(&pos) = key_index.get(re.key()) {
                        if let Some(&slot) = slot_of.get(&pos) {
                            // Rediscovered within this round: record the
                            // extra composition (Algorithm 4 lines 23–24) —
                            // it widens the next round's sibling sets.
                            fresh_history[slot].push((i1, i2));
                        } else {
                            stats.duplicates += 1;
                        }
                        continue;
                    }
                    let key = re.key().clone();
                    let qidx = q.push(re);
                    key_index.insert(key, qidx);
                    fresh.push(qidx);
                    fresh_history.push(vec![(i1, i2)]);
                    slot_of.insert(qidx, fresh_history.len() - 1);
                }
            }
        }
        expand = fresh;
        history = fresh_history;
        first_round = false;
    }
    q.into_explanations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::paths::enumerate_paths;
    use crate::enumerate::PathAlgo;
    use crate::instance::satisfies;
    use crate::properties::is_minimal;
    use crate::testutil::signature;
    use rex_kb::KnowledgeBase;

    fn paths_for(kb: &KnowledgeBase, a: &str, b: &str, n: usize) -> Vec<Explanation> {
        let mut stats = EnumStats::default();
        enumerate_paths(
            kb,
            kb.require_node(a).unwrap(),
            kb.require_node(b).unwrap(),
            &EnumConfig::default().with_max_nodes(n),
            PathAlgo::Prioritized,
            &mut stats,
        )
    }

    #[test]
    fn mappings_enumeration_counts() {
        // 1 left free var, 1 right free var: match-or-not minus the empty
        // mapping = 1.
        assert_eq!(mappings(3, 3).len(), 1);
        // 2 left, 1 right: right var matches either of two = 2.
        assert_eq!(mappings(4, 3).len(), 2);
        // 2 left, 2 right: total injective partial maps = 1 (both none) +
        // 4 (one matched) + 2 (both matched) = 7; minus empty = 6.
        assert_eq!(mappings(4, 4).len(), 6);
        // No free vars on either side: no admissible mapping.
        assert!(mappings(2, 3).is_empty());
        assert!(mappings(3, 2).is_empty());
    }

    #[test]
    fn merged_explanations_are_minimal_with_valid_instances() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("kate_winslet").unwrap();
        let b = kb.require_node("leonardo_dicaprio").unwrap();
        let path_expls = paths_for(&kb, "kate_winslet", "leonardo_dicaprio", 5);
        let mut stats = EnumStats::default();
        let config = EnumConfig::default();
        let all = path_union_basic(path_expls, &config, &mut stats);
        assert!(!all.is_empty());
        let mut saw_non_path = false;
        for e in &all {
            assert!(is_minimal(&e.pattern), "{}", e.describe(&kb));
            assert!(!e.instances.is_empty());
            assert!(e.pattern.var_count() <= 5);
            if !e.pattern.is_path() {
                saw_non_path = true;
            }
            for i in &e.instances {
                assert!(satisfies(&kb, &e.pattern, i, true), "{}", e.describe(&kb));
            }
        }
        assert!(saw_non_path, "expected merged (non-path) explanations");
        assert_eq!(a, kb.require_node("kate_winslet").unwrap());
        assert_eq!(b, kb.require_node("leonardo_dicaprio").unwrap());
    }

    #[test]
    fn prune_agrees_with_basic() {
        let kb = rex_kb::toy::entertainment();
        for (a, b) in rex_kb::toy::STUDY_PAIRS {
            let config = EnumConfig::default();
            let mut s1 = EnumStats::default();
            let mut s2 = EnumStats::default();
            let basic = path_union_basic(paths_for(&kb, a, b, 5), &config, &mut s1);
            let pruned = path_union_prune(paths_for(&kb, a, b, 5), &config, &mut s2);
            assert_eq!(signature(&basic), signature(&pruned), "{a}-{b}");
            assert!(
                s2.merge_calls <= s1.merge_calls,
                "{a}-{b}: pruning did not reduce merges ({} vs {})",
                s2.merge_calls,
                s1.merge_calls
            );
        }
    }

    #[test]
    fn no_duplicate_canonical_keys_in_output() {
        let kb = rex_kb::toy::entertainment();
        let mut stats = EnumStats::default();
        let out = path_union_basic(
            paths_for(&kb, "brad_pitt", "angelina_jolie", 5),
            &EnumConfig::default(),
            &mut stats,
        );
        let mut keys: Vec<_> = out.iter().map(|e| e.key().as_slice().to_vec()).collect();
        let total = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), total);
    }

    #[test]
    fn instance_counts_match_matcher_on_merged_patterns() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("julia_roberts").unwrap();
        let mut stats = EnumStats::default();
        let out = path_union_basic(
            paths_for(&kb, "brad_pitt", "julia_roberts", 5),
            &EnumConfig::default(),
            &mut stats,
        );
        for e in &out {
            let m = crate::matcher::find_instances(
                &kb,
                &e.pattern,
                a,
                b,
                crate::matcher::MatchOptions::default(),
            );
            assert_eq!(e.count(), m.instances.len(), "instance mismatch for {}", e.describe(&kb));
        }
    }

    #[test]
    fn size_limit_respected_after_merging() {
        let kb = rex_kb::toy::entertainment();
        for n in 3..=5 {
            let config = EnumConfig::default().with_max_nodes(n);
            let mut stats = EnumStats::default();
            let out = path_union_basic(
                paths_for(&kb, "tom_cruise", "will_smith", n),
                &config,
                &mut stats,
            );
            for e in &out {
                assert!(e.pattern.var_count() <= n);
            }
        }
    }
}

#[cfg(test)]
mod merge_nested_tests {
    use super::*;
    use crate::enumerate::paths::enumerate_paths;
    use crate::enumerate::PathAlgo;
    use rex_datagen::{generate, sample_pairs, GeneratorConfig};
    use rex_kb::KnowledgeBase;

    /// What the merges of [`assert_merges_agree`] did.
    #[derive(Default)]
    struct Cases {
        /// Merges whose columns share no entity, which `merge` returns
        /// from before it enumerates a mapping.
        rejected: usize,
        /// Merges that returned at least one explanation.
        joined: usize,
        /// Saturated explanations among the merge results.
        saturated: usize,
    }

    /// Merges every ordered pair of path explanations of each pair with
    /// both [`merge`] and the paper-literal [`merge_nested`], and requires
    /// identical results: the same explanations in the same order, each
    /// with the same instances in the same order and the same saturation
    /// flag, and the same `merge_calls`.
    fn assert_merges_agree(
        kb: &KnowledgeBase,
        pairs: &[(NodeId, NodeId)],
        config: &EnumConfig,
    ) -> Cases {
        let mut cases = Cases::default();
        for &(a, b) in pairs {
            let mut stats = EnumStats::default();
            let paths = enumerate_paths(kb, a, b, config, PathAlgo::Prioritized, &mut stats);
            for re1 in &paths {
                for re2 in &paths {
                    let (n, cap) = (config.max_pattern_nodes, config.instance_cap);
                    let mut s1 = EnumStats::default();
                    let mut s2 = EnumStats::default();
                    let fast = merge(re1, re2, n, cap, &mut s1);
                    let slow = merge_nested(re1, re2, n, cap, &mut s2);
                    assert_eq!(fast, slow, "{} + {}", re1.describe(kb), re2.describe(kb));
                    assert_eq!(s1.merge_calls, s2.merge_calls);
                    // The hash join examines no more pairs than the
                    // nested loop.
                    assert!(s1.instance_pairs <= s2.instance_pairs);
                    // The pre-check is exact: entry (r, l) is set iff some
                    // instance pair agrees on right variable r + 2 and left
                    // variable l + 2.
                    let joinable = joinable(&columns(re1), &columns(re2));
                    let free1 = re1.pattern.var_count() - 2;
                    for (k, &shared) in joinable.iter().enumerate() {
                        let (rv, lv) = (VarId((k / free1 + 2) as u8), VarId((k % free1 + 2) as u8));
                        let agree = re1
                            .instances
                            .iter()
                            .any(|i1| re2.instances.iter().any(|i2| i1.get(lv) == i2.get(rv)));
                        assert_eq!(shared, agree);
                    }
                    if !joinable.contains(&true) {
                        cases.rejected += 1;
                    }
                    cases.joined += usize::from(!fast.is_empty());
                    cases.saturated += fast.iter().filter(|e| e.saturated).count();
                }
            }
        }
        cases
    }

    #[test]
    fn nested_and_hash_join_merges_agree() {
        let kb = rex_kb::toy::entertainment();
        let pairs: Vec<(NodeId, NodeId)> = rex_kb::toy::STUDY_PAIRS
            .iter()
            .take(3)
            .map(|(a, b)| (kb.require_node(a).unwrap(), kb.require_node(b).unwrap()))
            .collect();
        assert_merges_agree(&kb, &pairs, &EnumConfig::default());
    }

    /// The same agreement at the benchmark's pattern size on a generated
    /// KB, with an instance cap low enough that some inputs and results
    /// saturate. The cases reach both sides of the column pre-check.
    #[test]
    fn merge_matches_nested_on_generated_pairs() {
        let kb = generate(&GeneratorConfig::tiny(2011));
        let pairs: Vec<(NodeId, NodeId)> =
            sample_pairs(&kb, 1, 4, 2011).iter().map(|p| (p.start, p.end)).collect();
        let config = EnumConfig::default().with_max_nodes(5).with_instance_cap(5);
        let cases = assert_merges_agree(&kb, &pairs, &config);
        assert!(cases.rejected > 0, "no merge was rejected by the column pre-check");
        assert!(cases.joined > 0, "no merge joined");
        assert!(cases.saturated > 0, "no merge result hit the instance cap");
    }
}
