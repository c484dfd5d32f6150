//! Path explanation combination (paper §3.3): merging path explanations
//! into all minimal explanations.
//!
//! * [`merge`] — the `merge(re1, re2, n)` primitive of Algorithm 3:
//!   enumerate partial one-to-one mappings between the non-target variables
//!   of two patterns (at least one pair matched — requirement (4), which
//!   guarantees non-decomposability of the result), union the patterns
//!   under each mapping, and combine instance pairs that agree on matched
//!   variables. Instance combination is a join on the matched-variable
//!   values rather than the paper's literal nested loop: `re2`'s instances
//!   are ordered by their values at the matched variables, ties in
//!   instance order, and each `re1` instance finds its partners as one run
//!   by binary search. The output is identical, the join makes
//!   O((|I1| + |I2|) log |I2|) comparisons instead of |I1|·|I2|, and it
//!   allocates nothing per instance.
//! * *Only what can join is built.* Almost every merge joins nothing: on
//!   one generated-KB pair, 124,595 merges examine 234 instance pairs in
//!   total. A joined instance pair agrees on every matched variable pair,
//!   and every mapping matches at least one, so the union checks
//!   agreement before it builds anything:
//!   - Each queue entry carries its *columns*: per non-target variable,
//!     the sorted, distinct entities it binds across the entry's stored
//!     instances, computed once when the entry enters the queue.
//!   - The queue indexes which path entries' columns hold each entity. A
//!     candidate path whose columns share no entity with the
//!     explanation's is skipped without calling `merge`, and still counts
//!     as a merge call. `merge` itself returns at once on the same
//!     condition.
//!   - Within a merge, a mapping is skipped when one of its matched pairs
//!     has disjoint columns, or when no instance pair agrees on all its
//!     matched variables. Only a mapping that passes builds and validates
//!     its merged pattern, joins instances and canonicalizes.
//!   - A mapping's translation table depends only on the two variable
//!     counts, so a queue prepares each table once.
//!
//!   Output and [`EnumStats`] are unchanged. On the 100 `cold_explain`
//!   pairs of `rexbench`, one thread on a 2-vCPU Xeon, the column
//!   pre-check took enumeration from 5.0 s to 0.39 s (median of three
//!   runs). The candidate index, the agreement check, the prepared
//!   mapping tables and the path arena of [`super::paths`] then took it
//!   from 390 ms to 99 ms (medians of five alternating runs; the union
//!   itself from 342 ms to 66 ms). [`merge_nested`] stays unfiltered, as
//!   the paper-literal oracle.
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

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use rex_kb::NodeId;

use crate::canonical::CanonicalKey;
use crate::config::EnumConfig;
use crate::enumerate::EnumStats;
use crate::explanation::Explanation;
use crate::instance::{column, Instance};
use crate::pattern::{Pattern, PatternEdge, VarId, END_VAR, START_VAR};

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

/// One mapping of [`mappings`], prepared for merging a pattern with
/// `left_vars` variables and one with `right_vars`. It depends only on the
/// two variable counts, so a union queue prepares each table once.
struct Mapping {
    /// `(right variable, left variable)` for each matched pair.
    matched: Vec<(VarId, VarId)>,
    /// The unmatched right variables, in order; they become the merged
    /// pattern's variables after the left ones.
    unmatched: Vec<VarId>,
    /// Each right variable's variable in the merged pattern: targets stay,
    /// matched ones map to their left variable, unmatched ones get fresh
    /// ids.
    translate: Vec<VarId>,
    /// Variables of the merged pattern.
    var_count: usize,
}

fn prepared_mappings(left_vars: usize, right_vars: usize) -> Vec<Mapping> {
    let right_free: Vec<VarId> = (2..right_vars as u8).map(VarId).collect();
    mappings(left_vars, right_vars)
        .into_iter()
        .map(|mapping| {
            let mut matched = Vec::new();
            let mut unmatched = Vec::new();
            let mut translate = vec![START_VAR, END_VAR];
            for (&rv, m) in right_free.iter().zip(mapping) {
                match m {
                    Some(lv) => {
                        matched.push((rv, lv));
                        translate.push(lv);
                    }
                    None => {
                        translate.push(VarId((left_vars + unmatched.len()) as u8));
                        unmatched.push(rv);
                    }
                }
            }
            Mapping { var_count: left_vars + unmatched.len(), matched, unmatched, translate }
        })
        .collect()
}

/// An explanation's *columns*: for each non-target variable, from
/// variable 2 in order, the sorted, distinct entities it binds across the
/// explanation's stored instances.
type Columns = Vec<Vec<NodeId>>;

fn columns(e: &Explanation) -> Columns {
    (2..e.pattern.var_count()).map(|v| column(&e.instances, VarId(v as u8))).collect()
}

/// The positions in `b` of the entities `a` and `b` share, ascending; both
/// sorted and distinct. Walks the shorter slice and binary-searches the
/// longer one from where the previous search ended.
fn shared<'a>(a: &'a [NodeId], b: &'a [NodeId]) -> impl Iterator<Item = usize> + 'a {
    let a_shorter = a.len() <= b.len();
    let (short, long) = if a_shorter { (a, b) } else { (b, a) };
    let mut lo = 0;
    short
        .iter()
        .enumerate()
        .map_while(move |(i, x)| {
            lo += long[lo..].partition_point(|y| y < x);
            let y = long.get(lo)?;
            Some((y == x).then_some(if a_shorter { lo } else { i }))
        })
        .flatten()
}

/// `joinable[r * cols1.len() + l]`: whether right variable `r + 2` and left
/// variable `l + 2` bind a common entity.
fn joinable(cols1: &[Vec<NodeId>], cols2: &[Vec<NodeId>]) -> Vec<bool> {
    cols2
        .iter()
        .flat_map(|c2| cols1.iter().map(move |c1| shared(c1, c2).next().is_some()))
        .collect()
}

/// Compares `i2`'s values at the matched right variables, in order, with
/// `other`'s value for each matched pair.
fn compare(
    matched: &[(VarId, VarId)],
    i2: &Instance,
    other: impl Fn((VarId, VarId)) -> NodeId,
) -> Ordering {
    let mut orders = matched.iter().map(|&pair| i2.get(pair.0).cmp(&other(pair)));
    orders.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// Merges two explanations under all admissible variable mappings,
/// returning every resulting explanation with ≥ 1 instance and pattern size
/// ≤ `max_nodes`. The result patterns are minimal by construction (§3.3.1).
/// Computes both explanations' columns for the pre-check and the mapping
/// table (module docs); a union queue keeps them instead.
pub fn merge(
    re1: &Explanation,
    re2: &Explanation,
    max_nodes: usize,
    instance_cap: Option<usize>,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    let table = prepared_mappings(re1.pattern.var_count(), re2.pattern.var_count());
    let config = EnumConfig { max_pattern_nodes: max_nodes, instance_cap };
    merge_columns(re1, &columns(re1), re2, &columns(re2), &table, &config, stats)
}

/// [`merge`] under `config`'s size limit and instance cap, with both
/// explanations' [`Columns`] and the mapping table for their variable
/// counts given.
fn merge_columns(
    re1: &Explanation,
    cols1: &[Vec<NodeId>],
    re2: &Explanation,
    cols2: &[Vec<NodeId>],
    table: &[Mapping],
    config: &EnumConfig,
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
    for m in table {
        if m.var_count > config.max_pattern_nodes {
            continue;
        }
        // No instance pair agrees on a matched pair with disjoint columns.
        let disjoint =
            |&(rv, lv): &(VarId, VarId)| !joinable[(rv.index() - 2) * cols1.len() + lv.index() - 2];
        if m.matched.iter().any(disjoint) {
            continue;
        }
        // The join's build side: re2's instances ordered by their values
        // at the matched variables, ties in instance order, so an
        // instance's partners are one run found by binary search.
        let i2 = |k: usize| &re2.instances[k];
        let mut order: Vec<usize> = (0..re2.instances.len()).collect();
        order.sort_by(|&a, &b| compare(&m.matched, i2(a), |(rv, _)| i2(b).get(rv)));
        let partners = |i1: &Instance| {
            let vs_i1 = |k: usize| compare(&m.matched, i2(k), |(_, lv)| i1.get(lv));
            let lo = order.partition_point(|&k| vs_i1(k).is_lt());
            let len = order[lo..].partition_point(|&k| vs_i1(k).is_eq());
            &order[lo..lo + len]
        };
        // Only a mapping under which some instance pair agrees can join.
        let Some(first) = re1.instances.iter().position(|i1| !partners(i1).is_empty()) else {
            continue;
        };

        // ---- merged pattern ---------------------------------------------
        let mut edges: Vec<PatternEdge> = p1.edges().to_vec();
        edges.extend(p2.edges().iter().map(|e| {
            PatternEdge::new(
                m.translate[e.u.index()],
                m.translate[e.v.index()],
                e.label,
                e.directed,
            )
        }));
        let Ok(pattern) = Pattern::new(m.var_count as u8, edges) else {
            continue;
        };
        // A mapping can merge p2 entirely *into* p1 (all edges collapse
        // onto existing ones), reproducing p1 itself — skip those.
        if pattern == *p1 {
            continue;
        }

        // ---- merged instances (join on matched variables) ---------------
        let cap = config.instance_cap.unwrap_or(usize::MAX);
        let mut instances = Vec::new();
        let mut saturated = re1.saturated || re2.saturated;
        'outer: for i1 in &re1.instances[first..] {
            'pair: for &k in partners(i1) {
                stats.instance_pairs += 1;
                // Injective semantics: unmatched right values must not
                // collide with any left value.
                let mut assignment: Vec<NodeId> = Vec::with_capacity(m.var_count);
                assignment.extend_from_slice(i1.as_slice());
                for &rv in &m.unmatched {
                    let val = i2(k).get(rv);
                    if assignment.contains(&val) {
                        continue 'pair;
                    }
                    assignment.push(val);
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
/// [`Columns`], computed once when it enters. The entries pushed before
/// [`Queue::index_paths`] are the path explanations, the only entries
/// merged into others; the queue indexes which of them hold each entity.
#[derive(Default)]
pub(crate) struct Queue {
    explanations: Vec<Explanation>,
    columns: Vec<Columns>,
    /// Number of path entries.
    paths: usize,
    /// The entities the path entries' columns bind, sorted and distinct.
    entities: Vec<NodeId>,
    /// `holders[starts[k]..starts[k + 1]]`: the path entries whose columns
    /// hold `entities[k]`.
    starts: Vec<usize>,
    holders: Vec<usize>,
    /// For the entry merged last, which path entries' columns share an
    /// entity with its columns.
    sharing: Option<(usize, Vec<bool>)>,
    /// The prepared mappings per pair of variable counts.
    tables: HashMap<(usize, usize), Vec<Mapping>>,
}

impl Queue {
    /// Appends `e` and returns its index.
    pub(crate) fn push(&mut self, e: Explanation) -> usize {
        self.columns.push(columns(&e));
        self.explanations.push(e);
        self.explanations.len() - 1
    }

    /// Marks the entries pushed so far as the path entries and indexes
    /// their columns by entity.
    pub(crate) fn index_paths(&mut self) {
        self.paths = self.explanations.len();
        let mut held: Vec<(NodeId, usize)> = Vec::new();
        for (p, cols) in self.columns.iter().enumerate() {
            held.extend(cols.iter().flatten().map(|&x| (x, p)));
        }
        held.sort_unstable();
        held.dedup();
        for (k, &(x, p)) in held.iter().enumerate() {
            if self.entities.last() != Some(&x) {
                self.entities.push(x);
                self.starts.push(k);
            }
            self.holders.push(p);
        }
        self.starts.push(held.len());
    }

    /// Which path entries' columns share an entity with entry `i1`'s.
    fn sharing_paths(&self, i1: usize) -> Vec<bool> {
        let mut sharing = vec![false; self.paths];
        for col in &self.columns[i1] {
            for k in shared(col, &self.entities) {
                for &p in &self.holders[self.starts[k]..self.starts[k + 1]] {
                    sharing[p] = true;
                }
            }
        }
        sharing
    }

    /// The explanations, in discovery order.
    pub(crate) fn explanations(&self) -> &[Explanation] {
        &self.explanations
    }

    pub(crate) fn into_explanations(self) -> Vec<Explanation> {
        self.explanations
    }

    /// [`merge`] of entry `i1` and path entry `i2` under `config`'s size
    /// limit and instance cap. A path whose columns share no entity with
    /// `i1`'s is counted as a merge call and skipped: `merge` would return
    /// nothing from its pre-check.
    pub(crate) fn merge(
        &mut self,
        i1: usize,
        i2: usize,
        config: &EnumConfig,
        stats: &mut EnumStats,
    ) -> Vec<Explanation> {
        debug_assert!(i2 < self.paths, "merge candidates are indexed path entries");
        if self.sharing.as_ref().is_none_or(|(i, _)| *i != i1) {
            self.sharing = Some((i1, self.sharing_paths(i1)));
        }
        if self.sharing.as_ref().is_some_and(|(_, sharing)| !sharing[i2]) {
            stats.merge_calls += 1;
            return Vec::new();
        }
        let (re1, re2) = (&self.explanations[i1], &self.explanations[i2]);
        let vars = (re1.pattern.var_count(), re2.pattern.var_count());
        let table = self.tables.entry(vars).or_insert_with(|| prepared_mappings(vars.0, vars.1));
        merge_columns(re1, &self.columns[i1], re2, &self.columns[i2], table, config, stats)
    }
}

/// The paper-literal variant of [`merge`]: instance combination by the
/// nested loop of Algorithm 3 lines 31–35 instead of a join on the
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
    q.index_paths();
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
    q.index_paths();
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
                    // The join examines no more pairs than the nested
                    // loop.
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

    /// The union queue's candidate index is exact: over every (queue
    /// entry, path) pair of generated pairs' union queues, it admits the
    /// path exactly when `joinable` has a true entry, the pre-check `merge`
    /// returns from.
    #[test]
    fn candidate_index_admits_exactly_the_joinable_paths() {
        let kb = generate(&GeneratorConfig::tiny(2011));
        let config = EnumConfig::default().with_max_nodes(5).with_instance_cap(5);
        let (mut admitted, mut skipped) = (0, 0);
        for pair in sample_pairs(&kb, 2, 4, 2011) {
            let mut stats = EnumStats::default();
            let algo = PathAlgo::Prioritized;
            let paths = enumerate_paths(&kb, pair.start, pair.end, &config, algo, &mut stats);
            let entries = path_union_prune(paths.clone(), &config, &mut stats);
            assert_eq!(entries[..paths.len()], paths[..], "the queue starts with the paths");
            let mut q = Queue::default();
            let (path_entries, merged) = entries.split_at(paths.len());
            for e in path_entries {
                q.push(e.clone());
            }
            q.index_paths();
            for e in merged {
                q.push(e.clone());
            }
            for i1 in 0..entries.len() {
                let sharing = q.sharing_paths(i1);
                assert_eq!(sharing.len(), paths.len());
                for (i2, &admits) in sharing.iter().enumerate() {
                    let joins = joinable(&q.columns[i1], &q.columns[i2]).contains(&true);
                    assert_eq!(admits, joins, "entry {i1}, path {i2}");
                    admitted += usize::from(joins);
                    skipped += usize::from(!joins);
                }
            }
        }
        assert!(admitted > 0, "the index admitted no path");
        assert!(skipped > 0, "the index skipped no path");
    }
}
