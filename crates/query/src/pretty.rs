//! Pretty-printing of pattern graphs as parseable MATCH text.
//!
//! Names that would not lex as plain identifiers (keywords, spaces,
//! punctuation) are backtick-quoted, so the printed text always parses.
//! This crate does not canonicalize: `rex-core` renumbers a compiled
//! pattern by its canonical key and prints the result through
//! [`pretty_with`].

use crate::ast::{LabelRef, PatternGraph};
use crate::diag::QueryError;
use crate::Result;

/// Pretty-prints a pattern graph as parseable MATCH text, one chain per
/// edge. Labels must be [`LabelRef::Named`]; use [`pretty_with`] to render
/// resolved label ids through a name lookup.
pub fn pretty(graph: &PatternGraph) -> Result<String> {
    pretty_with(graph, &|_| None)
}

/// [`pretty`] with a resolver mapping resolved label ids back to names.
pub fn pretty_with(
    graph: &PatternGraph,
    label_name: &dyn Fn(u32) -> Option<String>,
) -> Result<String> {
    let mut out = String::from("MATCH ");
    for (i, e) in graph.edges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let label = match &e.label {
            LabelRef::Named { name, .. } => name.clone(),
            LabelRef::Resolved(id) => label_name(*id)
                .ok_or_else(|| QueryError::bare(format!("no name for resolved label id {id}")))?,
        };
        let u = quote_ident(&graph.nodes[e.u].name);
        let v = quote_ident(&graph.nodes[e.v].name);
        let arrow = if e.directed { ">" } else { "" };
        out.push_str(&format!("({u})-[:{}]-{arrow}({v})", quote_ident(&label)));
    }
    let start = graph
        .start
        .ok_or_else(|| QueryError::bare("cannot print a pattern with no `$start` binding"))?;
    let end = graph
        .end
        .ok_or_else(|| QueryError::bare("cannot print a pattern with no `$end` binding"))?;
    out.push_str(&format!(
        " WHERE {} = $start AND {} = $end",
        quote_ident(&graph.nodes[start].name),
        quote_ident(&graph.nodes[end].name)
    ));
    if !graph.returns.is_empty() {
        out.push_str(" RETURN ");
        for (i, &node) in graph.returns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote_ident(&graph.nodes[node].name));
        }
    }
    Ok(out)
}

/// Backtick-quotes a name unless it lexes as a plain, non-keyword
/// identifier.
fn quote_ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_').unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !matches!(name.to_ascii_lowercase().as_str(), "match" | "where" | "and" | "return");
    if plain {
        name.to_string()
    } else {
        format!("`{name}`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn exotic_labels_round_trip_through_backticks() {
        let g = parse("MATCH (a)-[:`acted in`]->(b) WHERE a = $start AND b = $end").unwrap();
        let text = pretty(&g).unwrap();
        assert!(text.contains("`acted in`"));
        assert_eq!(pretty(&parse(&text).unwrap()).unwrap(), text);
    }
}
