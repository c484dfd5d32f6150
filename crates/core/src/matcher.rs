//! Backtracking pattern matcher: evaluates a pattern against the knowledge
//! base for a fixed target pair, producing all instances (Definition 2).
//!
//! Used by the [`crate::enumerate::naive`] baseline (instance-guided
//! pattern growth needs fresh instance sets), by tests as an independent
//! oracle for the path-union framework, and by measures that need instance
//! sets for patterns outside the enumeration result.
//!
//! The matcher orders pattern edges so each processed edge touches an
//! already-bound variable (patterns are connected through their targets),
//! turning evaluation into a backtracking join: *check* edges (both
//! endpoints bound) filter, *extend* edges (one endpoint bound) branch over
//! the label-restricted adjacency slice of the bound endpoint.

use rex_kb::{KnowledgeBase, NodeId, Orientation};

use crate::instance::Instance;
use crate::pattern::{Pattern, PatternEdge, VarId, END_VAR, START_VAR};

/// Matching options.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchOptions {
    /// Stop after this many instances (`None` = exhaustive).
    pub cap: Option<usize>,
}

/// The result of a match: instances plus a saturation flag (true when the
/// cap stopped the search early).
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The instances found (all of them unless `saturated`).
    pub instances: Vec<Instance>,
    /// Whether the cap cut the search short.
    pub saturated: bool,
}

/// Orders pattern edges so that every edge touches a variable bound by the
/// preceding prefix (targets start out bound). Check edges (both endpoints
/// already bound) are preferred — they only filter. Returns `None` for
/// patterns not connected to the targets.
fn edge_order(pattern: &Pattern) -> Option<Vec<usize>> {
    let m = pattern.edge_count();
    let mut order = Vec::with_capacity(m);
    let mut used = vec![false; m];
    let mut bound = vec![false; pattern.var_count()];
    bound[START_VAR.index()] = true;
    bound[END_VAR.index()] = true;
    for _ in 0..m {
        let edges = pattern.edges();
        let pick = (0..m)
            .filter(|&i| !used[i])
            .filter(|&i| bound[edges[i].u.index()] || bound[edges[i].v.index()])
            // Prefer check edges, then smaller index for determinism.
            .min_by_key(|&i| {
                let both = bound[edges[i].u.index()] && bound[edges[i].v.index()];
                (usize::from(!both), i)
            })?;
        used[pick] = true;
        bound[edges[pick].u.index()] = true;
        bound[edges[pick].v.index()] = true;
        order.push(pick);
    }
    Some(order)
}

struct Search<'a> {
    kb: &'a KnowledgeBase,
    pattern: &'a Pattern,
    order: &'a [usize],
    opts: MatchOptions,
    vstart: NodeId,
    vend: NodeId,
    assignment: Vec<Option<NodeId>>,
    /// The set of KB nodes currently bound by `assignment` (targets
    /// included), maintained incrementally on bind/unbind so the
    /// injectivity check is a set lookup instead of an O(vars) scan of
    /// the assignment — the scan sat on the innermost loop of every
    /// extension.
    bound_nodes: std::collections::HashSet<NodeId>,
    out: Vec<Instance>,
    saturated: bool,
}

impl Search<'_> {
    fn full(&self) -> bool {
        self.opts.cap.is_some_and(|c| self.out.len() >= c)
    }

    /// Whether `node` may be bound to non-target variable `var` now.
    fn admissible(&self, _var: VarId, node: NodeId) -> bool {
        if node == self.vstart || node == self.vend {
            return false; // Definition 2: targets are excluded
        }
        !self.bound_nodes.contains(&node)
    }

    /// Binds `var := node` for the duration of the recursion below it.
    fn bind(&mut self, var: VarId, node: NodeId) {
        self.assignment[var.index()] = Some(node);
        self.bound_nodes.insert(node);
    }

    fn unbind(&mut self, var: VarId, node: NodeId) {
        self.assignment[var.index()] = None;
        self.bound_nodes.remove(&node);
    }

    fn edge_holds(&self, e: &PatternEdge, u: NodeId, v: NodeId) -> bool {
        if e.directed {
            self.kb.has_edge(u, v, e.label, Orientation::Out)
        } else {
            self.kb.has_edge(u, v, e.label, Orientation::Undirected)
        }
    }

    fn go(&mut self, depth: usize) {
        if self.full() {
            self.saturated = true;
            return;
        }
        if depth == self.order.len() {
            let assignment: Vec<NodeId> =
                self.assignment.iter().map(|a| a.expect("all variables bound")).collect();
            self.out.push(Instance::new(assignment));
            return;
        }
        let e = self.pattern.edges()[self.order[depth]];
        let bu = self.assignment[e.u.index()];
        let bv = self.assignment[e.v.index()];
        match (bu, bv) {
            (Some(u), Some(v)) => {
                if self.edge_holds(&e, u, v) {
                    self.go(depth + 1);
                }
            }
            (Some(u), None) => {
                // Extend from u along out/undirected slots. Parallel edges
                // with the same label are adjacent in the sorted slice and
                // would produce duplicate instances — skip them.
                let orient = if e.directed { Orientation::Out } else { Orientation::Undirected };
                let mut prev: Option<NodeId> = None;
                for n in self.kb.neighbors_labeled_oriented(u, e.label, orient) {
                    if self.full() {
                        self.saturated = true;
                        return;
                    }
                    if prev == Some(n.other()) {
                        continue;
                    }
                    prev = Some(n.other());
                    if !self.admissible(e.v, n.other()) {
                        continue;
                    }
                    self.bind(e.v, n.other());
                    self.go(depth + 1);
                    self.unbind(e.v, n.other());
                }
            }
            (None, Some(v)) => {
                // Extend from v along in/undirected slots (same parallel-
                // edge dedup as above).
                let orient = if e.directed { Orientation::In } else { Orientation::Undirected };
                let mut prev: Option<NodeId> = None;
                for n in self.kb.neighbors_labeled_oriented(v, e.label, orient) {
                    if self.full() {
                        self.saturated = true;
                        return;
                    }
                    if prev == Some(n.other()) {
                        continue;
                    }
                    prev = Some(n.other());
                    if !self.admissible(e.u, n.other()) {
                        continue;
                    }
                    self.bind(e.u, n.other());
                    self.go(depth + 1);
                    self.unbind(e.u, n.other());
                }
            }
            (None, None) => {
                unreachable!("edge order guarantees at least one bound endpoint")
            }
        }
    }
}

/// Finds all instances of `pattern` between `vstart` and `vend`.
///
/// Degenerate queries (`vstart == vend`, disconnected patterns) return no
/// instances. Instances are produced in a deterministic order and are
/// pairwise distinct.
pub fn find_instances(
    kb: &KnowledgeBase,
    pattern: &Pattern,
    vstart: NodeId,
    vend: NodeId,
    opts: MatchOptions,
) -> MatchResult {
    if vstart == vend {
        return MatchResult { instances: Vec::new(), saturated: false };
    }
    let Some(order) = edge_order(pattern) else {
        return MatchResult { instances: Vec::new(), saturated: false };
    };
    let mut assignment = vec![None; pattern.var_count()];
    assignment[START_VAR.index()] = Some(vstart);
    assignment[END_VAR.index()] = Some(vend);
    // Targets enter the bound-node set once and never leave it (admissible
    // rejects them before bind/unbind can touch them).
    let bound_nodes = [vstart, vend].into_iter().collect();
    let mut search = Search {
        kb,
        pattern,
        order: &order,
        opts,
        vstart,
        vend,
        assignment,
        bound_nodes,
        out: Vec::new(),
        saturated: false,
    };
    search.go(0);
    MatchResult { instances: search.out, saturated: search.saturated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::satisfies;
    use crate::pattern::EdgeDir;

    fn toy() -> KnowledgeBase {
        rex_kb::toy::entertainment()
    }

    fn node(kb: &KnowledgeBase, name: &str) -> NodeId {
        kb.require_node(name).unwrap()
    }

    #[test]
    fn finds_costar_instance() {
        let kb = toy();
        let starring = kb.label_by_name("starring").unwrap();
        let p =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "brad_pitt"),
            node(&kb, "angelina_jolie"),
            MatchOptions::default(),
        );
        assert_eq!(r.instances.len(), 1);
        assert_eq!(r.instances[0].get(VarId(2)), node(&kb, "mr_and_mrs_smith"));
        assert!(!r.saturated);
        for i in &r.instances {
            assert!(satisfies(&kb, &p, i, true));
        }
    }

    #[test]
    fn respects_direction() {
        let kb = toy();
        let starring = kb.label_by_name("starring").unwrap();
        // start <-starring- v2 -starring-> end : movies "starring" people —
        // wrong direction, no instances.
        let p =
            Pattern::path(&[(starring, EdgeDir::Backward), (starring, EdgeDir::Forward)]).unwrap();
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "brad_pitt"),
            node(&kb, "angelina_jolie"),
            MatchOptions::default(),
        );
        assert!(r.instances.is_empty());
    }

    #[test]
    fn undirected_spouse_matches() {
        let kb = toy();
        let spouse = kb.label_by_name("spouse").unwrap();
        let p = Pattern::path(&[(spouse, EdgeDir::Undirected)]).unwrap();
        for (a, b) in [("brad_pitt", "angelina_jolie"), ("angelina_jolie", "brad_pitt")] {
            let r = find_instances(&kb, &p, node(&kb, a), node(&kb, b), MatchOptions::default());
            assert_eq!(r.instances.len(), 1, "{a} - {b}");
        }
    }

    #[test]
    fn multi_instance_costar() {
        let kb = toy();
        let starring = kb.label_by_name("starring").unwrap();
        let p =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        // Brad Pitt and Julia Roberts co-star in Ocean's Eleven and The
        // Mexican.
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "brad_pitt"),
            node(&kb, "julia_roberts"),
            MatchOptions::default(),
        );
        assert_eq!(r.instances.len(), 2);
    }

    #[test]
    fn cap_saturates() {
        let kb = toy();
        let starring = kb.label_by_name("starring").unwrap();
        let p =
            Pattern::path(&[(starring, EdgeDir::Forward), (starring, EdgeDir::Backward)]).unwrap();
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "brad_pitt"),
            node(&kb, "julia_roberts"),
            MatchOptions { cap: Some(1) },
        );
        assert_eq!(r.instances.len(), 1);
        assert!(r.saturated);
    }

    #[test]
    fn nontarget_vars_avoid_targets() {
        let kb = toy();
        let spouse = kb.label_by_name("spouse").unwrap();
        // start -spouse- v2 -spouse- end: Kate -spouse- Sam, Sam -spouse-?
        // Kate's only other spouse path would revisit targets; expect none
        // between kate and sam via an intermediate.
        let p =
            Pattern::path(&[(spouse, EdgeDir::Undirected), (spouse, EdgeDir::Undirected)]).unwrap();
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "kate_winslet"),
            node(&kb, "sam_mendes"),
            MatchOptions::default(),
        );
        assert!(r.instances.is_empty());
    }

    #[test]
    fn same_director_non_path_pattern() {
        let kb = toy();
        let starring = kb.label_by_name("starring").unwrap();
        let db = kb.label_by_name("directed_by").unwrap();
        // Figure 4(d): start->v2, v2->v3, v4->v3, end->v4 — Tom Cruise and
        // Will Smith both worked with Michael Mann (Collateral / Ali).
        let p = Pattern::new(
            5,
            vec![
                PatternEdge::new(START_VAR, VarId(2), starring, true),
                PatternEdge::new(VarId(2), VarId(3), db, true),
                PatternEdge::new(VarId(4), VarId(3), db, true),
                PatternEdge::new(END_VAR, VarId(4), starring, true),
            ],
        )
        .unwrap();
        let r = find_instances(
            &kb,
            &p,
            node(&kb, "tom_cruise"),
            node(&kb, "will_smith"),
            MatchOptions::default(),
        );
        assert_eq!(r.instances.len(), 1);
        let i = &r.instances[0];
        assert_eq!(i.get(VarId(2)), node(&kb, "collateral"));
        assert_eq!(i.get(VarId(3)), node(&kb, "michael_mann"));
        assert_eq!(i.get(VarId(4)), node(&kb, "ali"));
    }

    #[test]
    fn injective_vs_homomorphism() {
        // A diamond that admits a non-injective mapping: start->m1<-end
        // and start->m2<-end over label r; pattern start->v2<-end,
        // start->v3<-end (two co-star squares). A homomorphism could map
        // v2 and v3 to the same movie (4 combinations); the matcher is
        // injective, so v2 != v3 leaves 2.
        let mut b = rex_kb::KbBuilder::new();
        let s = b.add_node("s", "P");
        let e = b.add_node("e", "P");
        let m1 = b.add_node("m1", "M");
        let m2 = b.add_node("m2", "M");
        for m in [m1, m2] {
            b.add_directed_edge(s, m, "r").unwrap();
            b.add_directed_edge(e, m, "r").unwrap();
        }
        let kb = b.build();
        let r = kb.label_by_name("r").unwrap();
        let p = Pattern::new(
            4,
            vec![
                PatternEdge::new(START_VAR, VarId(2), r, true),
                PatternEdge::new(END_VAR, VarId(2), r, true),
                PatternEdge::new(START_VAR, VarId(3), r, true),
                PatternEdge::new(END_VAR, VarId(3), r, true),
            ],
        )
        .unwrap();
        let found = find_instances(&kb, &p, s, e, MatchOptions::default());
        assert_eq!(found.instances.len(), 2);
        assert!(found.instances.iter().all(|i| i.get(VarId(2)) != i.get(VarId(3))));
    }

    #[test]
    fn degenerate_queries_empty() {
        let kb = toy();
        let spouse = kb.label_by_name("spouse").unwrap();
        let p = Pattern::path(&[(spouse, EdgeDir::Undirected)]).unwrap();
        let bp = node(&kb, "brad_pitt");
        let r = find_instances(&kb, &p, bp, bp, MatchOptions::default());
        assert!(r.instances.is_empty());
    }
}
