//! MATCH text → core [`Pattern`] bridge.
//!
//! `rex-query` is deliberately KB-agnostic (labels resolve through a
//! closure); this module closes the loop against a concrete
//! [`KnowledgeBase`]: parse, resolve labels, lower to a [`Pattern`], and
//! keep the intermediate forms around for explain output. Canonical forms
//! come from the pattern's [`crate::canonical`] key, the same key the
//! distribution cache uses; [`canonical_text`] prints that form.

use rex_kb::KnowledgeBase;
use rex_query::{compile, parse, CompiledPattern, PatternGraph, QueryError};

pub use crate::canon::canonical_text;
use crate::pattern::Pattern;

/// A user query carried through every compilation stage: the parsed
/// graph (spans intact, for diagnostics), the compiled dense-variable
/// pattern (variable names for explain output), and the core [`Pattern`]
/// the enumeration and ranking stack consumes.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The parsed pattern graph, source spans intact.
    pub graph: PatternGraph,
    /// The compiled dense-variable pattern (names per variable).
    pub compiled: CompiledPattern,
    /// The core pattern; flows through specs, budgets, caches.
    pub pattern: Pattern,
}

/// Compiles MATCH text against a knowledge base. Errors carry byte
/// spans into `text` — render them with [`QueryError::render`].
pub fn compile_text(text: &str, kb: &KnowledgeBase) -> Result<CompiledQuery, QueryError> {
    let graph = parse(text)?;
    let compiled = compile(&graph, |name| kb.label_by_name(name).map(|l| l.0))?;
    let pattern = Pattern::from_compiled(&compiled).map_err(|e| QueryError::bare(e.to_string()))?;
    Ok(CompiledQuery { graph, compiled, pattern })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_key;

    #[test]
    fn compile_text_builds_the_costar_pattern() {
        let kb = rex_kb::toy::entertainment();
        let q = compile_text(
            "MATCH (a)-[:starring]->(m)<-[:starring]-(b) WHERE a = $start AND b = $end",
            &kb,
        )
        .unwrap();
        assert_eq!(q.pattern.var_count(), 3);
        assert_eq!(q.pattern.edge_count(), 2);
        assert!(q.pattern.is_path());
        assert_eq!(q.compiled.var_names, vec!["a", "b", "m"]);
    }

    #[test]
    fn unknown_label_errors_carry_spans() {
        let kb = rex_kb::toy::entertainment();
        let src = "MATCH (a)-[:flies_with]->(b) WHERE a = $start AND b = $end";
        let err = compile_text(src, &kb).unwrap_err();
        let span = err.span.unwrap();
        assert_eq!(&src[span.start..span.end], "flies_with");
        assert!(err.render(src).contains('^'));
    }

    #[test]
    fn isomorphic_queries_share_a_canonical_key() {
        let kb = rex_kb::toy::entertainment();
        // Same shape, different variable names and chain grouping: the
        // distribution cache keys on the canonical pattern, so these
        // share one cache entry.
        let q1 = compile_text(
            "MATCH (x)-[:starring]->(film)<-[:starring]-(y) WHERE x = $start AND y = $end",
            &kb,
        )
        .unwrap();
        let q2 = compile_text(
            "MATCH (p)-[:starring]->(m), (q)-[:starring]->(m) \
             WHERE p = $start AND q = $end RETURN *",
            &kb,
        )
        .unwrap();
        assert_eq!(canonical_key(&q1.pattern), canonical_key(&q2.pattern));
    }
}
