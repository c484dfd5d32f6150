//! Canned MATCH templates for the paper's enumerated shapes.
//!
//! The enumeration layer used to hand-assemble variable numberings for
//! its path and star shapes; these builders produce the equivalent
//! [`PatternGraph`]s (labels pre-resolved, since the shapes are born from
//! interned ids, not text) so the shapes flow through the *same*
//! [`crate::compile()`] lowering as user-written queries. [`path_text`] and
//! [`star_text`] render the same templates as parseable MATCH text given
//! label names — the form the differential tests and docs use.

use crate::ast::{GraphEdge, GraphNode, LabelRef, PatternGraph, Span};

/// Direction of one template step relative to the start→end traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepDir {
    /// The KB edge points along the traversal.
    Forward,
    /// The KB edge points against the traversal.
    Backward,
    /// The KB edge is undirected.
    Undirected,
}

fn node(name: String) -> GraphNode {
    GraphNode { name, anonymous: false, span: Span::default() }
}

/// The path template: step `i` connects the previous node on the path
/// (start for `i = 0`) to the next (end for the last step), direction
/// relative to the start→end traversal. Node order is start, end, then
/// the intermediates — matching the dense numbering
/// [`crate::compile::compile`] assigns, so the compiled shape is
/// byte-identical to the legacy hand-numbered construction.
pub fn path(steps: &[(u32, StepDir)]) -> PatternGraph {
    let len = steps.len();
    let mut graph = PatternGraph {
        nodes: vec![node("a".into()), node("b".into())],
        edges: Vec::with_capacity(len),
        start: Some(0),
        end: Some(1),
        returns: vec![0, 1],
    };
    // Intermediates v2 … v_len; a 1-step path has none.
    for i in 2..=len {
        graph.nodes.push(node(format!("v{i}")));
    }
    let node_at = |i: usize| -> usize {
        if i == 0 {
            0
        } else if i == len {
            1
        } else {
            i + 1
        }
    };
    for (i, &(label, dir)) in steps.iter().enumerate() {
        let (a, b) = (node_at(i), node_at(i + 1));
        let (u, v, directed) = match dir {
            StepDir::Forward => (a, b, true),
            StepDir::Backward => (b, a, true),
            StepDir::Undirected => (a, b, false),
        };
        graph.edges.push(GraphEdge {
            u,
            v,
            label: LabelRef::Resolved(label),
            directed,
            span: Span::default(),
        });
    }
    graph
}

/// The star template: every spoke connects the start target to the end
/// target through its own intermediate — the union layer's fork shapes
/// generalized to `k` parallel 2-paths.
pub fn star(spokes: &[(u32, StepDir, u32, StepDir)]) -> PatternGraph {
    let mut graph = PatternGraph {
        nodes: vec![node("a".into()), node("b".into())],
        edges: Vec::with_capacity(spokes.len() * 2),
        start: Some(0),
        end: Some(1),
        returns: vec![0, 1],
    };
    for (k, &(l_in, d_in, l_out, d_out)) in spokes.iter().enumerate() {
        let mid = graph.nodes.len();
        graph.nodes.push(node(format!("v{}", k + 2)));
        for (a, b, label, dir) in [(0, mid, l_in, d_in), (mid, 1, l_out, d_out)] {
            let (u, v, directed) = match dir {
                StepDir::Forward => (a, b, true),
                StepDir::Backward => (b, a, true),
                StepDir::Undirected => (a, b, false),
            };
            graph.edges.push(GraphEdge {
                u,
                v,
                label: LabelRef::Resolved(label),
                directed,
                span: Span::default(),
            });
        }
    }
    graph
}

fn arrow(label: &str, dir: StepDir) -> String {
    let quoted = if label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && label.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_').unwrap_or(false)
    {
        label.to_string()
    } else {
        format!("`{label}`")
    };
    match dir {
        StepDir::Forward => format!("-[:{quoted}]->"),
        StepDir::Backward => format!("<-[:{quoted}]-"),
        StepDir::Undirected => format!("-[:{quoted}]-"),
    }
}

/// Renders the path template as MATCH text over label *names*:
/// `MATCH (a)-[:l0]->(v2)<-[:l1]-(b) WHERE a = $start AND b = $end`.
pub fn path_text(steps: &[(&str, StepDir)]) -> String {
    let len = steps.len();
    let node_name = |i: usize| -> String {
        if i == 0 {
            "a".into()
        } else if i == len {
            "b".into()
        } else {
            format!("v{}", i + 1)
        }
    };
    let mut out = String::from("MATCH ");
    for (i, &(label, dir)) in steps.iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("({})", node_name(0)));
        }
        out.push_str(&arrow(label, dir));
        out.push_str(&format!("({})", node_name(i + 1)));
    }
    out.push_str(" WHERE a = $start AND b = $end RETURN a, b");
    out
}

/// Renders the star template as MATCH text over label names, one chain
/// per spoke.
pub fn star_text(spokes: &[(&str, StepDir, &str, StepDir)]) -> String {
    let mut out = String::from("MATCH ");
    for (k, &(l_in, d_in, l_out, d_out)) in spokes.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("(a){}(v{}){}(b)", arrow(l_in, d_in), k + 2, arrow(l_out, d_out)));
    }
    out.push_str(" WHERE a = $start AND b = $end RETURN a, b");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_resolved};
    use crate::parser::parse;

    #[test]
    fn path_template_matches_parsed_text() {
        // Template over resolved ids vs the same shape written as text:
        // identical compiled patterns.
        let steps = [(0u32, StepDir::Forward), (1, StepDir::Backward), (2, StepDir::Undirected)];
        let compiled = compile_resolved(&path(&steps)).unwrap();
        let text = path_text(&[
            ("l0", StepDir::Forward),
            ("l1", StepDir::Backward),
            ("l2", StepDir::Undirected),
        ]);
        let parsed = compile(&parse(&text).unwrap(), |name| {
            name.strip_prefix('l').and_then(|n| n.parse().ok())
        })
        .unwrap();
        assert_eq!(compiled.var_count, parsed.var_count);
        assert_eq!(compiled.edges, parsed.edges);
    }

    #[test]
    fn single_step_path_has_only_targets() {
        let c = compile_resolved(&path(&[(7, StepDir::Undirected)])).unwrap();
        assert_eq!(c.var_count, 2);
        assert_eq!(c.edges.len(), 1);
        assert!(!c.edges[0].directed);
    }

    #[test]
    fn star_template_matches_parsed_text() {
        let spokes = [(0u32, StepDir::Forward, 0, StepDir::Backward)];
        let compiled = compile_resolved(&star(&spokes)).unwrap();
        let text = star_text(&[("l0", StepDir::Forward, "l0", StepDir::Backward)]);
        let parsed = compile(&parse(&text).unwrap(), |name| {
            name.strip_prefix('l').and_then(|n| n.parse().ok())
        })
        .unwrap();
        assert_eq!(compiled.edges, parsed.edges);
        assert_eq!(compiled.var_count, 3);
    }
}
