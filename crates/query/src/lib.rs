//! The REX pattern query language.
//!
//! A minimal Cypher-like MATCH dialect over the knowledge base's labeled,
//! optionally-directed edges:
//!
//! ```text
//! MATCH (a)-[:ActedIn]->(m)<-[:Directed]-(b)
//! WHERE a = $start AND b = $end
//! RETURN a, b
//! ```
//!
//! The pipeline is `parse` → [`PatternGraph`] (a logical pattern graph with
//! byte-span diagnostics) → [`compile()`] → [`CompiledPattern`] (dense
//! variable ids, resolved label ids — the shape `rex-core` turns into a
//! `Pattern` and `rex-relstore` plans). The paper's enumerated path shapes
//! are generated through the *same* lowering via [`templates`], so a
//! user-written query and a canned shape that happen to be isomorphic
//! compile to patterns with the same canonical form (and share
//! distribution-cache entries downstream).
//!
//! Grammar (identifiers may be backtick-quoted to escape keywords or
//! exotic label names):
//!
//! ```text
//! query  := MATCH chain (',' chain)* [WHERE cond (AND cond)*] [RETURN items]
//! chain  := node (edge node)*
//! node   := '(' [ident] ')'
//! edge   := '-[' ':' ident ']->' | '<-[' ':' ident ']-' | '-[' ':' ident ']-'
//! cond   := ident '=' ('$start' | '$end')
//! items  := '*' | ident (',' ident)*
//! ```
//!
//! Binding rules: the variable equated with `$start` becomes the start
//! target, `$end` the end target; both are required, must be distinct, and
//! must occur in the pattern. Every other variable — named or anonymous
//! `()` — is existential. Edges between the same variable pair with the
//! same label and direction are merged (the paper's multiset merge).

pub mod ast;
pub mod canon;
pub mod compile;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod templates;

pub use ast::{GraphEdge, GraphNode, LabelRef, PatternGraph, Span};
pub use canon::{canonicalize, pretty, pretty_with};
pub use compile::{compile, compile_resolved, CompiledEdge, CompiledPattern};
pub use diag::QueryError;
pub use parser::parse;

/// Convenience result alias for query-layer fallible operations.
pub type Result<T> = std::result::Result<T, QueryError>;
