//! Path explanation enumeration (paper §3.2).
//!
//! Enumerates **all simple paths** between the target entities with length
//! up to `l = n - 1`, then groups the path instances by their label/
//! direction sequence into path *patterns* (`MinP(1)` explanations).
//!
//! Three algorithms, identical output:
//!
//! * **Naive** — unidirectional DFS from the start entity; explores the
//!   whole length-limited neighborhood (the strawman of §5.2).
//! * **Basic** — bidirectional expansion à la BANKS: the start side grows
//!   partial paths to depth ⌈l/2⌉, the end side to ⌊l/2⌋, shorter paths
//!   first; partial paths meeting at a node are joined.
//! * **Prioritized** — bidirectional expansion à la BANKS2: per-side depths
//!   are not fixed in advance; at each step the side whose frontier has the
//!   higher *activation* (lower total degree — cheaper to expand) grows by
//!   one level, until the two depths sum to `l`. A hub-adjacent target thus
//!   expands less, letting the cheap side cover more of the length budget.
//!
//! Duplicate suppression: full paths are generated through a *unique split*
//! rule — a path of length `L` is produced only by the join whose forward
//! prefix has length `min(d_fwd, L)` — so no full path is produced twice.
//! Parallel knowledge-base edges with the same label are collapsed while
//! scanning adjacency (they yield the same instance).
//!
//! The bidirectional algorithms keep each side's partial paths in one
//! parent-pointer arena: an entry holds its terminal node, its last step
//! and the index of the entry it extends, and each length is one index
//! range. Extending a partial path pushes those three values instead of
//! copying its node and step vectors, which matters because almost none
//! of them join: one backward level of a `cold_explain` pair holds 7,183
//! partial paths, and 74 full paths come out of the whole search. Node
//! and step sequences are rebuilt only for the full paths the join emits.

use std::collections::HashMap;
use std::ops::Range;

use rex_kb::{KnowledgeBase, Neighbor, NodeId, Orientation};

use crate::config::EnumConfig;
use crate::enumerate::EnumStats;
use crate::explanation::Explanation;
use crate::instance::Instance;
use crate::pattern::{EdgeDir, Pattern};

use super::PathAlgo;

/// One step of a (partial) path: the label and the edge direction relative
/// to the traversal.
type Step = (rex_kb::LabelId, EdgeDir);

/// One side's partial paths, every level in one parent-pointer arena:
/// entry `i` is the partial path that extends entry `parent[i]` by
/// `step[i]` to `node[i]`. Entry 0 is the seed, the side's target, with a
/// placeholder step. The paths of length `d` are the entries
/// `levels[d]..levels[d + 1]`. Node and step sequences are rebuilt only for
/// the full paths a join emits.
struct Arena {
    node: Vec<NodeId>,
    step: Vec<Step>,
    parent: Vec<usize>,
    levels: Vec<usize>,
}

impl Arena {
    fn seed(origin: NodeId) -> Arena {
        let placeholder = (rex_kb::LabelId(0), EdgeDir::Forward);
        Arena { node: vec![origin], step: vec![placeholder], parent: vec![0], levels: vec![0, 1] }
    }

    /// Length of the longest partial paths.
    fn depth(&self) -> usize {
        self.levels.len() - 2
    }

    /// The entries of the partial paths of length `d`.
    fn level(&self, d: usize) -> Range<usize> {
        self.levels[d]..self.levels[d + 1]
    }

    /// Entry `i` and the entries it extends, back to the seed.
    fn chain(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(i), |&j| (j != 0).then(|| self.parent[j]))
    }

    /// Whether partial path `i` visits `node`.
    fn contains(&self, i: usize, node: NodeId) -> bool {
        self.chain(i).any(|j| self.node[j] == node)
    }

    /// Partial path `i`'s steps and nodes, origin first.
    fn sequence(&self, i: usize) -> FullPath {
        let mut steps: Vec<Step> =
            self.chain(i).filter(|&j| j != 0).map(|j| self.step[j]).collect();
        let mut nodes: Vec<NodeId> = self.chain(i).map(|j| self.node[j]).collect();
        steps.reverse();
        nodes.reverse();
        (steps, nodes)
    }

    /// Extends every partial path of the deepest level by one step, as a
    /// new level, honoring the simple-path constraints: never revisit a
    /// node on the same partial path (its origin included), never extend
    /// beyond `stop` (a partial path that reached the opposite target is
    /// terminal).
    fn expand(&mut self, kb: &KnowledgeBase, stop: NodeId, stats: &mut EnumStats) {
        for i in self.level(self.depth()) {
            let t = self.node[i];
            if t == stop {
                continue; // reached the opposite target: terminal
            }
            stats.partial_paths += 1;
            for n in dedup_neighbors(kb, t) {
                if self.contains(i, n.other()) {
                    continue;
                }
                self.node.push(n.other());
                self.step.push((n.label(), orientation_to_dir(n.orientation())));
                self.parent.push(i);
            }
        }
        self.levels.push(self.node.len());
    }

    /// Total degree of the deepest level's terminal nodes; the BANKS2-style
    /// activation is its inverse (cheaper frontiers have higher
    /// activation).
    fn frontier_cost(&self, kb: &KnowledgeBase, stop: NodeId) -> usize {
        let terminals = self.level(self.depth()).map(|i| self.node[i]);
        terminals.filter(|&t| t != stop).map(|t| kb.degree(t)).sum()
    }
}

fn orientation_to_dir(o: Orientation) -> EdgeDir {
    match o {
        Orientation::Out => EdgeDir::Forward,
        Orientation::In => EdgeDir::Backward,
        Orientation::Undirected => EdgeDir::Undirected,
    }
}

fn flip(d: EdgeDir) -> EdgeDir {
    match d {
        EdgeDir::Forward => EdgeDir::Backward,
        EdgeDir::Backward => EdgeDir::Forward,
        EdgeDir::Undirected => EdgeDir::Undirected,
    }
}

/// Iterates the adjacency of `node`, skipping consecutive duplicates
/// (parallel edges with identical label/orientation/endpoint), which the
/// sorted adjacency guarantees are adjacent.
fn dedup_neighbors(kb: &KnowledgeBase, node: NodeId) -> impl Iterator<Item = &Neighbor> {
    let mut prev: Option<(rex_kb::LabelId, Orientation, NodeId)> = None;
    kb.neighbors(node).iter().filter(move |n| {
        let key = (n.label(), n.orientation(), n.other());
        if prev == Some(key) {
            false
        } else {
            prev = Some(key);
            true
        }
    })
}

/// A full start→end path as (steps, node sequence).
type FullPath = (Vec<Step>, Vec<NodeId>);

/// Groups full paths into path-pattern explanations.
fn group_into_explanations(
    full_paths: Vec<FullPath>,
    config: &EnumConfig,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    stats.path_instances += full_paths.len();
    let mut groups: HashMap<Vec<Step>, Vec<Vec<NodeId>>> = HashMap::new();
    for (steps, nodes) in full_paths {
        groups.entry(steps).or_default().push(nodes);
    }
    // Deterministic output order: sort group keys.
    let mut keys: Vec<Vec<Step>> = groups.keys().cloned().collect();
    keys.sort_unstable();
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let mut node_seqs = groups.remove(&key).expect("key from map");
        node_seqs.sort_unstable();
        node_seqs.dedup();
        let pattern = Pattern::path(&key).expect("path patterns from real paths are valid");
        let cap = config.instance_cap.unwrap_or(usize::MAX);
        let saturated = node_seqs.len() > cap;
        node_seqs.truncate(cap);
        let instances: Vec<Instance> = node_seqs
            .into_iter()
            .map(|nodes| {
                // Path node i maps to variable: 0 → start, last → end,
                // interior i → var i+1.
                let len = nodes.len();
                let mut assignment = vec![NodeId(u32::MAX); len];
                assignment[0] = nodes[0];
                assignment[1] = nodes[len - 1];
                for (i, &n) in nodes.iter().enumerate().take(len - 1).skip(1) {
                    assignment[i + 1] = n;
                }
                Instance::new(assignment)
            })
            .collect();
        let expl = if saturated {
            Explanation::new_saturated(pattern, instances)
        } else {
            Explanation::new(pattern, instances)
        };
        out.push(expl);
    }
    stats.path_patterns += out.len();
    out
}

/// `PathEnumNaive`: DFS from the start entity over all simple paths of
/// length ≤ l, keeping those that end at the end entity.
fn enumerate_naive(
    kb: &KnowledgeBase,
    vstart: NodeId,
    vend: NodeId,
    l: usize,
    stats: &mut EnumStats,
) -> Vec<FullPath> {
    let mut out = Vec::new();
    let mut nodes = vec![vstart];
    let mut steps: Vec<Step> = Vec::new();
    fn dfs(
        kb: &KnowledgeBase,
        vend: NodeId,
        l: usize,
        nodes: &mut Vec<NodeId>,
        steps: &mut Vec<Step>,
        out: &mut Vec<FullPath>,
        stats: &mut EnumStats,
    ) {
        let cur = *nodes.last().expect("nonempty");
        if cur == vend {
            out.push((steps.clone(), nodes.clone()));
            return; // simple paths cannot continue through the end target
        }
        if steps.len() == l {
            return;
        }
        stats.partial_paths += 1;
        // Collect to avoid borrowing kb across recursion.
        let nbrs: Vec<Neighbor> = dedup_neighbors(kb, cur).copied().collect();
        for n in nbrs {
            if nodes.contains(&n.other()) {
                continue;
            }
            nodes.push(n.other());
            steps.push((n.label(), orientation_to_dir(n.orientation())));
            dfs(kb, vend, l, nodes, steps, out, stats);
            steps.pop();
            nodes.pop();
        }
    }
    if vstart != vend && l > 0 {
        dfs(kb, vend, l, &mut nodes, &mut steps, &mut out, stats);
    }
    out
}

/// Joins the forward and backward partial paths into full paths using the
/// unique-split rule: a full path of length `L` is assembled only from the
/// forward prefix of length `min(d_fwd, L)`, where `d_fwd` is the forward
/// depth. So a forward path that reaches the end target is a full path at
/// any length, and any other joins only from the deepest forward level,
/// whose entries are looked up by terminal node.
fn join_bidirectional(fwd: &Arena, bwd: &Arena, vend: NodeId, l: usize) -> Vec<FullPath> {
    let d_fwd = fwd.depth();
    let mut out: Vec<FullPath> = (1..=d_fwd)
        .flat_map(|a| fwd.level(a))
        .filter(|&f| fwd.node[f] == vend)
        .map(|f| fwd.sequence(f))
        .collect();
    let mut meets: Vec<(NodeId, usize)> =
        fwd.level(d_fwd).map(|f| (fwd.node[f], f)).filter(|&(meet, _)| meet != vend).collect();
    meets.sort_unstable();
    for b in 1..=bwd.depth().min(l - d_fwd) {
        for back in bwd.level(b) {
            let meet = bwd.node[back];
            let first = meets.partition_point(|&(n, _)| n < meet);
            for &(_, f) in meets[first..].iter().take_while(|&&(n, _)| n == meet) {
                // Interior disjointness: share only the meet node.
                if bwd.chain(back).skip(1).any(|j| fwd.contains(f, bwd.node[j])) {
                    continue;
                }
                // Assemble: forward nodes + the backward interior toward
                // the end target, its steps reversed.
                let (mut steps, mut nodes) = fwd.sequence(f);
                nodes.extend(bwd.chain(back).skip(1).map(|j| bwd.node[j]));
                let back_steps = bwd.chain(back).filter(|&j| j != 0).map(|j| bwd.step[j]);
                steps.extend(back_steps.map(|(lab, dir)| (lab, flip(dir))));
                out.push((steps, nodes));
            }
        }
    }
    out
}

/// Bidirectional enumeration with either a fixed or an adaptive depth
/// split.
fn enumerate_bidirectional(
    kb: &KnowledgeBase,
    vstart: NodeId,
    vend: NodeId,
    l: usize,
    adaptive: bool,
    stats: &mut EnumStats,
) -> Vec<FullPath> {
    if vstart == vend || l == 0 {
        return Vec::new();
    }
    let mut fwd = Arena::seed(vstart);
    let mut bwd = Arena::seed(vend);
    // The first expansion is always the forward side so that d_fwd ≥ 1 and
    // the unique-split rule needs no special case at the start target.
    while fwd.depth() + bwd.depth() < l {
        let expand_fwd = if fwd.depth() == 0 {
            true
        } else if !adaptive {
            // Fixed split: grow the forward side to ⌈l/2⌉ first.
            fwd.depth() < l.div_ceil(2)
        } else {
            // Adaptive split: grow the cheaper frontier (higher activation).
            fwd.frontier_cost(kb, vend) <= bwd.frontier_cost(kb, vstart)
        };
        if expand_fwd {
            fwd.expand(kb, vend, stats);
        } else {
            bwd.expand(kb, vstart, stats);
        }
    }
    join_bidirectional(&fwd, &bwd, vend, l)
}

/// Enumerates all simple-path explanations between the targets with length
/// up to `config.path_len_limit()`, using the chosen algorithm.
pub fn enumerate_paths(
    kb: &KnowledgeBase,
    vstart: NodeId,
    vend: NodeId,
    config: &EnumConfig,
    algo: PathAlgo,
    stats: &mut EnumStats,
) -> Vec<Explanation> {
    let l = config.path_len_limit();
    let full = match algo {
        PathAlgo::Naive => enumerate_naive(kb, vstart, vend, l, stats),
        PathAlgo::Basic => enumerate_bidirectional(kb, vstart, vend, l, false, stats),
        PathAlgo::Prioritized => enumerate_bidirectional(kb, vstart, vend, l, true, stats),
    };
    group_into_explanations(full, config, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::satisfies;
    use crate::properties::is_minimal;
    use crate::testutil::signature;

    fn run(kb: &KnowledgeBase, a: &str, b: &str, algo: PathAlgo, n: usize) -> Vec<Explanation> {
        let mut stats = EnumStats::default();
        let config = EnumConfig::default().with_max_nodes(n);
        enumerate_paths(
            kb,
            kb.require_node(a).unwrap(),
            kb.require_node(b).unwrap(),
            &config,
            algo,
            &mut stats,
        )
    }

    #[test]
    fn all_three_algorithms_agree_on_toy_kb() {
        let kb = rex_kb::toy::entertainment();
        for (a, b) in rex_kb::toy::STUDY_PAIRS {
            if kb.node_by_name(a).is_none() {
                continue;
            }
            let naive = run(&kb, a, b, PathAlgo::Naive, 5);
            let basic = run(&kb, a, b, PathAlgo::Basic, 5);
            let prio = run(&kb, a, b, PathAlgo::Prioritized, 5);
            assert_eq!(signature(&naive), signature(&basic), "{a}-{b} naive vs basic");
            assert_eq!(signature(&naive), signature(&prio), "{a}-{b} naive vs prioritized");
            assert!(!naive.is_empty(), "{a}-{b} found no paths");
        }
    }

    #[test]
    fn instances_satisfy_their_patterns() {
        let kb = rex_kb::toy::entertainment();
        let expls = run(&kb, "brad_pitt", "angelina_jolie", PathAlgo::Prioritized, 5);
        for e in &expls {
            assert!(!e.instances.is_empty());
            assert!(is_minimal(&e.pattern), "paths are minimal");
            assert!(e.pattern.is_path());
            for i in &e.instances {
                assert!(satisfies(&kb, &e.pattern, i, true), "{}", e.describe(&kb));
            }
        }
    }

    #[test]
    fn direct_spouse_edge_found() {
        let kb = rex_kb::toy::entertainment();
        let expls = run(&kb, "brad_pitt", "angelina_jolie", PathAlgo::Basic, 2);
        // Length limit 1: only the direct spouse edge.
        assert_eq!(expls.len(), 1);
        assert_eq!(expls[0].pattern.describe(&kb), "(start)-[spouse]-(end)");
    }

    #[test]
    fn length_limit_respected() {
        let kb = rex_kb::toy::entertainment();
        for n in 2..=5 {
            let expls = run(&kb, "kate_winslet", "leonardo_dicaprio", PathAlgo::Prioritized, n);
            for e in &expls {
                assert!(e.pattern.var_count() <= n);
                assert!(e.pattern.edge_count() < n);
            }
        }
    }

    #[test]
    fn costar_pattern_has_two_instances_for_kate_leo() {
        let kb = rex_kb::toy::entertainment();
        let expls = run(&kb, "kate_winslet", "leonardo_dicaprio", PathAlgo::Prioritized, 3);
        let starring = kb.label_by_name("starring").unwrap();
        let costar =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        let found = expls.iter().find(|e| e.pattern == costar).expect("co-star pattern present");
        // Titanic and Revolutionary Road.
        assert_eq!(found.count(), 2);
    }

    #[test]
    fn matches_matcher_on_each_pattern() {
        // Independent oracle: for every discovered path pattern, the
        // backtracking matcher finds exactly the same instances.
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("tom_cruise").unwrap();
        let b = kb.require_node("will_smith").unwrap();
        let expls = run(&kb, "tom_cruise", "will_smith", PathAlgo::Prioritized, 5);
        assert!(!expls.is_empty());
        for e in &expls {
            let m = crate::matcher::find_instances(
                &kb,
                &e.pattern,
                a,
                b,
                crate::matcher::MatchOptions::default(),
            );
            let mut got: Vec<&Instance> = e.instances.iter().collect();
            let mut want: Vec<&Instance> = m.instances.iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", e.describe(&kb));
        }
    }

    #[test]
    fn parallel_same_label_edges_collapse() {
        let mut b = rex_kb::KbBuilder::new();
        let s = b.add_node("s", "P");
        let e = b.add_node("e", "P");
        b.add_directed_edge(s, e, "r").unwrap();
        b.add_directed_edge(s, e, "r").unwrap();
        let kb = b.build();
        let mut stats = EnumStats::default();
        let expls =
            enumerate_paths(&kb, s, e, &EnumConfig::default(), PathAlgo::Prioritized, &mut stats);
        assert_eq!(expls.len(), 1);
        assert_eq!(expls[0].count(), 1);
    }

    #[test]
    fn instance_cap_saturates() {
        let kb = rex_kb::toy::entertainment();
        let config = EnumConfig::default().with_max_nodes(5).with_instance_cap(1);
        let mut stats = EnumStats::default();
        let expls = enumerate_paths(
            &kb,
            kb.require_node("brad_pitt").unwrap(),
            kb.require_node("julia_roberts").unwrap(),
            &config,
            PathAlgo::Prioritized,
            &mut stats,
        );
        let saturated = expls.iter().filter(|e| e.saturated).count();
        assert!(saturated > 0, "expected some saturation with cap 1");
        for e in &expls {
            assert!(e.count() <= 1);
        }
    }

    #[test]
    fn disconnected_pair_yields_nothing() {
        let mut b = rex_kb::KbBuilder::new();
        let s = b.add_node("s", "P");
        let e = b.add_node("e", "P");
        let x = b.add_node("x", "P");
        b.add_directed_edge(s, x, "r").unwrap();
        let kb = b.build();
        for algo in [PathAlgo::Naive, PathAlgo::Basic, PathAlgo::Prioritized] {
            let mut stats = EnumStats::default();
            let expls = enumerate_paths(&kb, s, e, &EnumConfig::default(), algo, &mut stats);
            assert!(expls.is_empty());
        }
    }
}
