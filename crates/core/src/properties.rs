//! Structural properties of explanation patterns (paper §2.3):
//! **essentiality**, **decomposability**, and their conjunction
//! **minimality**.

use crate::pattern::{Pattern, VarId, END_VAR, START_VAR};

/// Marks which nodes and edges lie on at least one simple start–end path
/// (edges treated as undirected, nodes not repeated — Definition 3).
/// Returns `(node_covered, edge_covered)` indexed by variable / edge index.
pub fn simple_path_coverage(pattern: &Pattern) -> (Vec<bool>, Vec<bool>) {
    let n = pattern.var_count();
    let adj = pattern.adjacency();
    let mut node_covered = vec![false; n];
    let mut edge_covered = vec![false; pattern.edge_count()];
    let mut on_path_nodes: Vec<VarId> = vec![START_VAR];
    let mut on_path_edges: Vec<usize> = Vec::new();
    let mut visited = vec![false; n];
    visited[START_VAR.index()] = true;

    fn dfs(
        adj: &[Vec<(usize, VarId)>],
        cur: VarId,
        visited: &mut [bool],
        on_path_nodes: &mut Vec<VarId>,
        on_path_edges: &mut Vec<usize>,
        node_covered: &mut [bool],
        edge_covered: &mut [bool],
    ) {
        if cur == END_VAR {
            for v in on_path_nodes.iter() {
                node_covered[v.index()] = true;
            }
            for &e in on_path_edges.iter() {
                edge_covered[e] = true;
            }
            return;
        }
        for &(eidx, next) in &adj[cur.index()] {
            if next == cur || visited[next.index()] {
                continue; // self-loops and revisits can't extend a simple path
            }
            visited[next.index()] = true;
            on_path_nodes.push(next);
            on_path_edges.push(eidx);
            dfs(adj, next, visited, on_path_nodes, on_path_edges, node_covered, edge_covered);
            on_path_edges.pop();
            on_path_nodes.pop();
            visited[next.index()] = false;
        }
    }

    dfs(
        &adj,
        START_VAR,
        &mut visited,
        &mut on_path_nodes,
        &mut on_path_edges,
        &mut node_covered,
        &mut edge_covered,
    );
    (node_covered, edge_covered)
}

/// Definition 3: every node and edge lies on a simple start–end path.
pub fn is_essential(pattern: &Pattern) -> bool {
    let (nodes, edges) = simple_path_coverage(pattern);
    nodes.iter().all(|&c| c) && edges.iter().all(|&c| c)
}

/// Definition 4: the edge multiset can be split into two non-empty parts
/// that share no *non-target* endpoint. Equivalently: the graph whose
/// vertices are pattern edges, adjacent when two edges share a non-target
/// variable, has more than one connected component. Two adjacent edges
/// must land in the same part, so every such split keeps whole components
/// together, and any one component against the rest is such a split.
pub fn is_decomposable(pattern: &Pattern) -> bool {
    let m = pattern.edge_count();
    if m < 2 {
        return false;
    }
    // Union-find over edge indices.
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Group edges by each non-target variable they touch.
    for v in 2..pattern.var_count() {
        let var = VarId(v as u8);
        let mut first: Option<usize> = None;
        for (i, e) in pattern.edges().iter().enumerate() {
            if e.touches(var) {
                match first {
                    None => first = Some(i),
                    Some(f) => {
                        let (ra, rb) = (find(&mut parent, f), find(&mut parent, i));
                        if ra != rb {
                            parent[ra] = rb;
                        }
                    }
                }
            }
        }
    }
    let root0 = find(&mut parent, 0);
    (1..m).any(|i| find(&mut parent, i) != root0)
}

/// Minimality (§2.3): essential and non-decomposable.
pub fn is_minimal(pattern: &Pattern) -> bool {
    is_essential(pattern) && !is_decomposable(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{EdgeDir, PatternEdge};
    use rex_kb::LabelId;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    #[test]
    fn direct_edge_is_minimal() {
        let p = Pattern::path(&[(l(0), EdgeDir::Undirected)]).unwrap();
        assert!(is_essential(&p));
        assert!(!is_decomposable(&p));
        assert!(is_minimal(&p));
    }

    #[test]
    fn costar_is_minimal() {
        let p = Pattern::path(&[(l(1), EdgeDir::Forward), (l(1), EdgeDir::Backward)]).unwrap();
        assert!(is_minimal(&p));
    }

    #[test]
    fn figure_5a_dangling_node_not_essential() {
        // start->v2<-end plus v2->v3 (dangling director info): v3 and its
        // edge are not on any simple start–end path.
        let p = Pattern::new(
            4,
            vec![
                PatternEdge::new(VarId(0), VarId(2), l(1), true),
                PatternEdge::new(VarId(1), VarId(2), l(1), true),
                PatternEdge::new(VarId(2), VarId(3), l(2), true),
            ],
        )
        .unwrap();
        let (nodes, edges) = simple_path_coverage(&p);
        assert!(!nodes[3]);
        assert!(edges.iter().filter(|&&c| !c).count() == 1);
        assert!(!is_essential(&p));
        assert!(!is_minimal(&p));
    }

    #[test]
    fn figure_5b_spouse_plus_costar_is_decomposable() {
        // Direct spouse edge + co-starring 2-path: decomposes into 4(a), 4(b).
        let p = Pattern::new(
            3,
            vec![
                PatternEdge::new(VarId(0), VarId(1), l(0), false),
                PatternEdge::new(VarId(0), VarId(2), l(1), true),
                PatternEdge::new(VarId(1), VarId(2), l(1), true),
            ],
        )
        .unwrap();
        assert!(is_essential(&p));
        assert!(is_decomposable(&p));
        assert!(!is_minimal(&p));
    }

    #[test]
    fn two_disjoint_two_paths_are_decomposable() {
        // start->v2<-end and start->v3<-end share only the targets.
        let p = Pattern::new(
            4,
            vec![
                PatternEdge::new(VarId(0), VarId(2), l(1), true),
                PatternEdge::new(VarId(1), VarId(2), l(1), true),
                PatternEdge::new(VarId(0), VarId(3), l(2), true),
                PatternEdge::new(VarId(1), VarId(3), l(2), true),
            ],
        )
        .unwrap();
        assert!(is_essential(&p));
        assert!(is_decomposable(&p));
    }

    #[test]
    fn shared_internal_node_not_decomposable() {
        // Figure 6(a)-style: start->v2<-end plus start->v3->v2 — v2 glues
        // everything.
        let p = Pattern::new(
            4,
            vec![
                PatternEdge::new(VarId(0), VarId(2), l(1), true),
                PatternEdge::new(VarId(1), VarId(2), l(1), true),
                PatternEdge::new(VarId(0), VarId(3), l(2), true),
                PatternEdge::new(VarId(3), VarId(2), l(3), true),
            ],
        )
        .unwrap();
        assert!(is_essential(&p));
        assert!(!is_decomposable(&p));
        assert!(is_minimal(&p));
    }

    #[test]
    fn parallel_multi_labels_minimal() {
        // Two direct edges with different labels: both on simple paths; the
        // partition {e1}, {e2} shares no non-target node, so decomposable.
        let p = Pattern::new(
            2,
            vec![
                PatternEdge::new(VarId(0), VarId(1), l(0), false),
                PatternEdge::new(VarId(0), VarId(1), l(1), false),
            ],
        )
        .unwrap();
        assert!(is_essential(&p));
        assert!(is_decomposable(&p));
        assert!(!is_minimal(&p));
    }

    #[test]
    fn cycle_through_targets_essential() {
        // Figure 4(d) same-director pattern:
        // start->v2 (starring), v2->v3 (directed_by), v4->v3 (directed_by),
        // end->v4 (starring). A single simple path start-v2-v3-v4-end.
        let p = Pattern::new(
            5,
            vec![
                PatternEdge::new(VarId(0), VarId(2), l(1), true),
                PatternEdge::new(VarId(2), VarId(3), l(2), true),
                PatternEdge::new(VarId(4), VarId(3), l(2), true),
                PatternEdge::new(VarId(1), VarId(4), l(1), true),
            ],
        )
        .unwrap();
        assert!(is_essential(&p));
        assert!(!is_decomposable(&p));
        assert!(is_minimal(&p));
    }
}
