//! The logical pattern graph a parsed MATCH query denotes.

/// A half-open byte range into the query source, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

/// An edge label: still a source name (from the parser) or already an
/// interned KB label id (from [`crate::templates`] or canned shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelRef {
    /// A label name to be resolved against the KB at compile time.
    Named {
        /// The label name as written (backtick quotes stripped).
        name: String,
        /// Source location of the name, for unknown-label diagnostics.
        span: Span,
    },
    /// A pre-resolved label id (no KB lookup needed).
    Resolved(u32),
}

/// One pattern variable (a parenthesized node in the query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// Variable name; generated (`_0`, `_1`, …) for anonymous `()` nodes.
    pub name: String,
    /// Whether the node was written `()` with no name.
    pub anonymous: bool,
    /// Source location of the node.
    pub span: Span,
}

/// One pattern edge between node indices, normalized so a directed edge
/// always points `u → v` (the parser folds `<-[:L]-` by swapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Tail node index.
    pub u: usize,
    /// Head node index.
    pub v: usize,
    /// The edge label.
    pub label: LabelRef,
    /// Whether the KB edge must be directed `u → v`.
    pub directed: bool,
    /// Source location of the edge syntax.
    pub span: Span,
}

/// The logical pattern graph: variables, labeled edges, and the target
/// bindings from the WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PatternGraph {
    /// Pattern variables in declaration order.
    pub nodes: Vec<GraphNode>,
    /// Pattern edges in source order.
    pub edges: Vec<GraphEdge>,
    /// Node index bound to `$start`, once a WHERE clause names it.
    pub start: Option<usize>,
    /// Node index bound to `$end`.
    pub end: Option<usize>,
    /// Node indices listed in RETURN; empty means `RETURN *` or omitted.
    pub returns: Vec<usize>,
}

impl PatternGraph {
    /// Looks up a node index by variable name (named nodes only).
    pub fn node_by_name(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| !n.anonymous && n.name == name)
    }
}
