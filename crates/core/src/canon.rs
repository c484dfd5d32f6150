//! Canonical MATCH text: a [`Pattern`] printed under its canonical
//! relabeling.
//!
//! [`crate::canonical`] finds the relabeling; this module only renames
//! and prints. Patterns with equal canonical keys print identically, so
//! the text is the form the distribution cache keys on. `rex plan` shows
//! it as a query's `canonical:` line.

use rex_kb::{KnowledgeBase, LabelId};
use rex_query::{pretty_with, GraphEdge, GraphNode, LabelRef, PatternGraph, Span};

use crate::canonical::canonical_form;
use crate::pattern::{Pattern, PatternEdge, VarId};

/// Prints `pattern`'s canonical form as MATCH text: variables renumbered
/// by [`canonical_form`]'s relabeling and named `a` (start), `b` (end),
/// `v2`, `v3`, …, edges in sorted order, labels by their `kb` names.
/// Patterns with equal canonical keys print identically, so this is the
/// form the distribution cache keys on.
pub fn canonical_text(pattern: &Pattern, kb: &KnowledgeBase) -> String {
    let (_, relabel) = canonical_form(pattern);
    let var = |v: VarId| VarId(relabel[v.index()]);
    let mut edges: Vec<PatternEdge> = pattern
        .edges()
        .iter()
        .map(|e| PatternEdge::new(var(e.u), var(e.v), e.label, e.directed))
        .collect();
    edges.sort_unstable();
    let name = |i: usize| match i {
        0 => "a".to_string(),
        1 => "b".to_string(),
        i => format!("v{i}"),
    };
    let graph = PatternGraph {
        nodes: (0..pattern.var_count())
            .map(|i| GraphNode { name: name(i), anonymous: false, span: Span::default() })
            .collect(),
        edges: edges
            .iter()
            .map(|e| GraphEdge {
                u: e.u.index(),
                v: e.v.index(),
                label: LabelRef::Resolved(e.label.0),
                directed: e.directed,
                span: Span::default(),
            })
            .collect(),
        start: Some(0),
        end: Some(1),
        returns: vec![0, 1],
    };
    pretty_with(&graph, &|id| Some(kb.label_name(LabelId(id)).to_string()))
        .expect("both targets are bound and every label has a name")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_key;
    use crate::query::compile_text;

    fn canonical(text: &str, kb: &KnowledgeBase) -> String {
        canonical_text(&compile_text(text, kb).unwrap().pattern, kb)
    }

    #[test]
    fn isomorphic_queries_canonicalize_identically() {
        let kb = rex_kb::toy::entertainment();
        let one = canonical(
            "MATCH (x)-[:starring]->(film)<-[:starring]-(y) WHERE x = $start AND y = $end",
            &kb,
        );
        let two = canonical(
            "MATCH (q)-[:starring]->(movie), (r)-[:starring]->(movie) \
             WHERE q = $start AND r = $end RETURN *",
            &kb,
        );
        assert_eq!(one, two);
    }

    #[test]
    fn canonical_form_is_a_pretty_parse_fixed_point() {
        let kb = rex_kb::toy::entertainment();
        let q = compile_text(
            "MATCH (p)-[:spouse]-(q)-[:spouse]-(r), (p)-[:starring]->(r) \
             WHERE p = $start AND r = $end",
            &kb,
        )
        .unwrap();
        let text = canonical_text(&q.pattern, &kb);
        let again = compile_text(&text, &kb).unwrap();
        assert_eq!(canonical_key(&again.pattern), canonical_key(&q.pattern));
        assert_eq!(canonical_text(&again.pattern, &kb), text);
    }

    #[test]
    fn duplicate_edges_merge() {
        let kb = rex_kb::toy::entertainment();
        assert_eq!(
            canonical(
                "MATCH (a)-[:spouse]-(b), (b)-[:spouse]-(a) WHERE a = $start AND b = $end",
                &kb
            ),
            "MATCH (a)-[:spouse]-(b) WHERE a = $start AND b = $end RETURN a, b"
        );
    }

    #[test]
    fn missing_targets_are_rejected() {
        // A query has a canonical form only once both targets are bound;
        // compilation refuses it before there is a pattern to print.
        let kb = rex_kb::toy::entertainment();
        let no_end = compile_text("MATCH (a)-[:spouse]->(b) WHERE a = $start", &kb).unwrap_err();
        assert!(no_end.message.contains("$end"));
        let no_start = compile_text("MATCH (a)-[:spouse]->(b) WHERE b = $end", &kb).unwrap_err();
        assert!(no_start.message.contains("$start"));
    }

    #[test]
    fn canonical_text_of_the_costar_query() {
        let kb = rex_kb::toy::entertainment();
        assert_eq!(
            canonical(
                "MATCH (a)-[:starring]->(m)<-[:starring]-(b) WHERE a = $start AND b = $end",
                &kb
            ),
            "MATCH (a)-[:starring]->(v2), (b)-[:starring]->(v2) \
             WHERE a = $start AND b = $end RETURN a, b"
        );
    }

    #[test]
    fn canonical_text_orders_by_label_id() {
        // `starring` is interned before `genre`, so label-id order and
        // label-name order disagree on which existential comes first.
        // Every spelling prints the id-ordered form the cache keys on.
        let kb = rex_kb::toy::entertainment();
        let compiled = |edges: &str| {
            compile_text(&format!("MATCH {edges} WHERE a = $start AND b = $end"), &kb)
                .unwrap()
                .pattern
        };
        let spelled = compiled(
            "(a)-[:starring]->(x), (a)-[:genre]->(y), (x)-[:spouse]-(b), (y)-[:spouse]-(b)",
        );
        let swapped = compiled(
            "(a)-[:starring]->(y), (a)-[:genre]->(x), (y)-[:spouse]-(b), (x)-[:spouse]-(b)",
        );
        let genre_first = compiled(
            "(a)-[:genre]->(y), (a)-[:starring]->(x), (x)-[:spouse]-(b), (y)-[:spouse]-(b)",
        );
        assert_ne!(spelled, genre_first, "first-appearance numbering differs");
        let expected = "MATCH (a)-[:starring]->(v2), (a)-[:genre]->(v3), \
                        (b)-[:spouse]-(v2), (b)-[:spouse]-(v3) \
                        WHERE a = $start AND b = $end RETURN a, b";
        for p in [&spelled, &swapped, &genre_first] {
            assert_eq!(canonical_text(p, &kb), expected);
        }
    }
}
