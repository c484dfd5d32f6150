//! Explanation patterns (paper Definition 1).
//!
//! A pattern is a 5-tuple `(V, E, λ, v_start, v_end)`: node *variables*
//! (two distinguished targets), a multiset of labeled edges, and per-edge
//! direction. Variables are dense small integers ([`VarId`]): variable 0 is
//! always the start target, variable 1 the end target, and 2… the
//! existential variables.
//!
//! Patterns are kept **normalized**: undirected edges store their smaller
//! endpoint first, the edge list is sorted, and exact duplicates are merged
//! (the paper's merge step collapses same-label parallel edges). Normalized
//! equality is *labeled-graph* equality; equality up to variable renaming is
//! the business of [`crate::canonical`].

use rex_kb::{KnowledgeBase, LabelId};

use crate::{CoreError, Result};

/// A pattern variable. Variable 0 is the start target, 1 the end target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u8);

/// The start target variable (`v_start`).
pub const START_VAR: VarId = VarId(0);
/// The end target variable (`v_end`).
pub const END_VAR: VarId = VarId(1);

impl VarId {
    /// Index into instance arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the two target variables.
    #[inline]
    pub fn is_target(self) -> bool {
        self == START_VAR || self == END_VAR
    }
}

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            START_VAR => write!(f, "start"),
            END_VAR => write!(f, "end"),
            VarId(i) => write!(f, "v{i}"),
        }
    }
}

/// Direction of a path step or pattern edge relative to its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeDir {
    /// Directed `u → v`.
    Forward,
    /// Directed `v → u`.
    Backward,
    /// Undirected.
    Undirected,
}

impl From<EdgeDir> for rex_query::templates::StepDir {
    fn from(dir: EdgeDir) -> Self {
        match dir {
            EdgeDir::Forward => rex_query::templates::StepDir::Forward,
            EdgeDir::Backward => rex_query::templates::StepDir::Backward,
            EdgeDir::Undirected => rex_query::templates::StepDir::Undirected,
        }
    }
}

/// One pattern edge.
///
/// Directed edges point `u → v`; undirected edges are normalized so that
/// `u <= v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternEdge {
    /// Tail variable (source for directed edges).
    pub u: VarId,
    /// Head variable (destination for directed edges).
    pub v: VarId,
    /// Knowledge-base relationship label.
    pub label: LabelId,
    /// Whether the edge is directed `u → v`.
    pub directed: bool,
}

impl PatternEdge {
    /// Creates a normalized edge (undirected edges order their endpoints).
    pub fn new(u: VarId, v: VarId, label: LabelId, directed: bool) -> PatternEdge {
        if !directed && v < u {
            PatternEdge { u: v, v: u, label, directed }
        } else {
            PatternEdge { u, v, label, directed }
        }
    }

    /// The endpoint opposite to `var`, if `var` is an endpoint.
    pub fn other(&self, var: VarId) -> Option<VarId> {
        if self.u == var {
            Some(self.v)
        } else if self.v == var {
            Some(self.u)
        } else {
            None
        }
    }

    /// Whether `var` is an endpoint.
    pub fn touches(&self, var: VarId) -> bool {
        self.u == var || self.v == var
    }
}

/// An explanation pattern (Definition 1), normalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    var_count: u8,
    edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Creates a pattern from parts, normalizing edge order and merging
    /// exact duplicates.
    ///
    /// Fails when `var_count < 2`, an edge references an out-of-range
    /// variable, or a non-target variable is isolated (patterns denote
    /// connection structures; isolated existential variables are
    /// meaningless and break essentiality anyway).
    pub fn new(var_count: u8, edges: Vec<PatternEdge>) -> Result<Pattern> {
        if var_count < 2 {
            return Err(CoreError::InvalidPattern("need at least the two targets".into()));
        }
        let mut normalized: Vec<PatternEdge> =
            edges.into_iter().map(|e| PatternEdge::new(e.u, e.v, e.label, e.directed)).collect();
        for e in &normalized {
            if e.u.0 >= var_count || e.v.0 >= var_count {
                return Err(CoreError::InvalidPattern(format!(
                    "edge ({}, {}) out of range for {var_count} variables",
                    e.u, e.v
                )));
            }
        }
        normalized.sort_unstable();
        normalized.dedup();
        for var in 2..var_count {
            let var = VarId(var);
            if !normalized.iter().any(|e| e.touches(var)) {
                return Err(CoreError::InvalidPattern(format!("isolated variable {var}")));
            }
        }
        Ok(Pattern { var_count, edges: normalized })
    }

    /// Builds a path pattern from a step sequence. Step `i` connects the
    /// previous node on the path (start for `i = 0`) to the next (end for
    /// the last step) with the given label and direction, direction being
    /// relative to the start→end traversal.
    ///
    /// ```
    /// use rex_core::pattern::{EdgeDir, Pattern};
    ///
    /// let kb = rex_kb::toy::entertainment();
    /// let starring = kb.label_by_name("starring").unwrap();
    /// // The co-starring pattern of Figure 4(b):
    /// // (start)-[starring]->(v2)<-[starring]-(end)
    /// let costar = Pattern::path(&[
    ///     (starring, EdgeDir::Forward),
    ///     (starring, EdgeDir::Backward),
    /// ]).unwrap();
    /// assert!(costar.is_path());
    /// assert_eq!(costar.var_count(), 3);
    /// ```
    ///
    /// The shape is produced by the `rex-query` canned path template and
    /// lowered through the same [`rex_query::compile()`] pass as
    /// user-written MATCH queries — there is exactly one
    /// variable-numbering convention in the system.
    pub fn path(steps: &[(LabelId, EdgeDir)]) -> Result<Pattern> {
        if steps.is_empty() {
            return Err(CoreError::InvalidPattern("empty path".into()));
        }
        let template: Vec<(u32, rex_query::templates::StepDir)> =
            steps.iter().map(|&(label, dir)| (label.0, dir.into())).collect();
        let graph = rex_query::templates::path(&template);
        let compiled = rex_query::compile_resolved(&graph)
            .map_err(|e| CoreError::InvalidPattern(e.to_string()))?;
        Pattern::from_compiled(&compiled)
    }

    /// Builds a star pattern — `k` parallel 2-paths through fresh
    /// intermediates, each spoke `(label_in, dir_in, label_out, dir_out)`
    /// — via the `rex-query` star template and compiler.
    pub fn star(spokes: &[(LabelId, EdgeDir, LabelId, EdgeDir)]) -> Result<Pattern> {
        if spokes.is_empty() {
            return Err(CoreError::InvalidPattern("empty star".into()));
        }
        let template: Vec<(
            u32,
            rex_query::templates::StepDir,
            u32,
            rex_query::templates::StepDir,
        )> = spokes
            .iter()
            .map(|&(l_in, d_in, l_out, d_out)| (l_in.0, d_in.into(), l_out.0, d_out.into()))
            .collect();
        let graph = rex_query::templates::star(&template);
        let compiled = rex_query::compile_resolved(&graph)
            .map_err(|e| CoreError::InvalidPattern(e.to_string()))?;
        Pattern::from_compiled(&compiled)
    }

    /// Builds a pattern from a compiled `rex-query` pattern — the single
    /// entry point through which both user-written MATCH queries and the
    /// canned paper-shape templates become core patterns.
    pub fn from_compiled(compiled: &rex_query::CompiledPattern) -> Result<Pattern> {
        let edges = compiled
            .edges
            .iter()
            .map(|e| PatternEdge::new(VarId(e.u), VarId(e.v), LabelId(e.label), e.directed))
            .collect();
        Pattern::new(compiled.var_count, edges)
    }

    /// Number of variables (pattern nodes), including the targets.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count as usize
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The normalized edges, sorted.
    #[inline]
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Degree of a variable.
    pub fn degree(&self, var: VarId) -> usize {
        self.edges.iter().filter(|e| e.touches(var)).count()
    }

    /// Per-variable adjacency: `(edge index, other endpoint)` lists.
    /// Self-loop edges appear once.
    pub fn adjacency(&self) -> Vec<Vec<(usize, VarId)>> {
        let mut adj = vec![Vec::new(); self.var_count()];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.u.index()].push((i, e.v));
            if e.u != e.v {
                adj[e.v.index()].push((i, e.u));
            }
        }
        adj
    }

    /// Whether the pattern is a simple start–end path: exactly
    /// `var_count - 1` edges, targets of degree 1, every other variable of
    /// degree 2, and connected. Used by the §5.4.2 path-vs-non-path study.
    pub fn is_path(&self) -> bool {
        if self.edge_count() != self.var_count() - 1 {
            return false;
        }
        if self.degree(START_VAR) != 1 || self.degree(END_VAR) != 1 {
            return false;
        }
        for v in 2..self.var_count {
            if self.degree(VarId(v)) != 2 {
                return false;
            }
        }
        self.is_connected()
    }

    /// Whether the pattern's edges connect all variables (treating edges as
    /// undirected). Patterns with no edges are connected only when they
    /// have just the two targets — and those are never valid explanations.
    pub fn is_connected(&self) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; self.var_count()];
        let mut stack = vec![START_VAR];
        seen[START_VAR.index()] = true;
        while let Some(v) = stack.pop() {
            for &(_, w) in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    /// Converts to the relational planner's pattern shape.
    pub fn to_spec(&self) -> rex_relstore::plan::PatternSpec {
        rex_relstore::plan::PatternSpec {
            var_count: self.var_count(),
            start: START_VAR.index(),
            end: END_VAR.index(),
            edges: self
                .edges
                .iter()
                .map(|e| rex_relstore::plan::SpecEdge {
                    u: e.u.index(),
                    v: e.v.index(),
                    label: e.label.0 as u64,
                    directed: e.directed,
                })
                .collect(),
        }
    }

    /// Human-readable rendering, e.g.
    /// `(start)-[starring]->(v2)<-[starring]-(end)` for the co-starring
    /// pattern; non-path patterns list edges separated by `; `.
    pub fn describe(&self, kb: &KnowledgeBase) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let label = kb.label_name(e.label);
            if e.directed {
                parts.push(format!("({})-[{label}]->({})", e.u, e.v));
            } else {
                parts.push(format!("({})-[{label}]-({})", e.u, e.v));
            }
        }
        parts.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    #[test]
    fn normalization_orders_undirected_edges() {
        let e = PatternEdge::new(VarId(3), VarId(1), l(0), false);
        assert_eq!((e.u, e.v), (VarId(1), VarId(3)));
        let d = PatternEdge::new(VarId(3), VarId(1), l(0), true);
        assert_eq!((d.u, d.v), (VarId(3), VarId(1)));
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let p = Pattern::new(
            2,
            vec![
                PatternEdge::new(START_VAR, END_VAR, l(0), false),
                PatternEdge::new(END_VAR, START_VAR, l(0), false),
            ],
        )
        .unwrap();
        assert_eq!(p.edge_count(), 1);
        // Opposite-direction directed edges are distinct.
        let p = Pattern::new(
            2,
            vec![
                PatternEdge::new(START_VAR, END_VAR, l(0), true),
                PatternEdge::new(END_VAR, START_VAR, l(0), true),
            ],
        )
        .unwrap();
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn rejects_bad_patterns() {
        assert!(Pattern::new(1, vec![]).is_err());
        assert!(Pattern::new(2, vec![PatternEdge::new(VarId(0), VarId(5), l(0), true)]).is_err());
        // Isolated non-target variable.
        assert!(Pattern::new(3, vec![PatternEdge::new(START_VAR, END_VAR, l(0), true)]).is_err());
        assert!(Pattern::path(&[]).is_err());
    }

    #[test]
    fn path_construction() {
        // start --starring--> v2 <--starring-- end  (co-starring)
        let p = Pattern::path(&[(l(1), EdgeDir::Forward), (l(1), EdgeDir::Backward)]).unwrap();
        assert_eq!(p.var_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert!(p.is_path());
        assert!(p.is_connected());
        let edges = p.edges();
        assert!(edges.iter().any(|e| e.u == START_VAR && e.v == VarId(2) && e.directed));
        assert!(edges.iter().any(|e| e.u == END_VAR && e.v == VarId(2) && e.directed));
    }

    #[test]
    fn direct_edge_is_a_path() {
        let p = Pattern::path(&[(l(0), EdgeDir::Undirected)]).unwrap();
        assert_eq!(p.var_count(), 2);
        assert!(p.is_path());
    }

    #[test]
    fn non_path_shapes_detected() {
        // Co-star pattern with an extra produced edge (Figure 4(c)):
        // start->v2, end->v2, start->v2 (produced) — 3 edges, 3 vars.
        let p = Pattern::new(
            3,
            vec![
                PatternEdge::new(START_VAR, VarId(2), l(1), true),
                PatternEdge::new(END_VAR, VarId(2), l(1), true),
                PatternEdge::new(START_VAR, VarId(2), l(2), true),
            ],
        )
        .unwrap();
        assert!(!p.is_path());
        assert!(p.is_connected());
    }

    #[test]
    fn degree_and_adjacency() {
        let p = Pattern::path(&[(l(0), EdgeDir::Forward), (l(1), EdgeDir::Forward)]).unwrap();
        assert_eq!(p.degree(START_VAR), 1);
        assert_eq!(p.degree(VarId(2)), 2);
        let adj = p.adjacency();
        assert_eq!(adj[VarId(2).index()].len(), 2);
    }

    #[test]
    fn disconnected_detected() {
        // Two parallel components can't be expressed without isolated
        // variables... but a direct edge plus a 2-path IS connected.
        let p = Pattern::new(
            3,
            vec![
                PatternEdge::new(START_VAR, END_VAR, l(0), false),
                PatternEdge::new(START_VAR, VarId(2), l(1), true),
                PatternEdge::new(END_VAR, VarId(2), l(1), true),
            ],
        )
        .unwrap();
        assert!(p.is_connected());
        assert!(!p.is_path());
    }

    #[test]
    fn describe_renders_edges() {
        let kb = rex_kb::toy::entertainment();
        let spouse = kb.label_by_name("spouse").unwrap();
        let p = Pattern::path(&[(spouse, EdgeDir::Undirected)]).unwrap();
        assert_eq!(p.describe(&kb), "(start)-[spouse]-(end)");
    }

    #[test]
    fn to_spec_round_trip_shape() {
        let p = Pattern::path(&[(l(1), EdgeDir::Forward), (l(1), EdgeDir::Backward)]).unwrap();
        let spec = p.to_spec();
        assert_eq!(spec.var_count, 3);
        assert_eq!(spec.edges.len(), 2);
        assert!(spec.validate().is_ok());
    }
}
