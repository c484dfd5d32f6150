//! Mutable construction API for [`KnowledgeBase`].

use crate::graph::{intern_label_within, KnowledgeBase, NodeRecord, StoredEdge};
use crate::ids::{LabelId, NodeId, TypeId, LABEL_LIMIT};
use crate::interner::Interner;
use crate::Result;

/// Accumulates nodes and edges, then freezes them into a
/// [`KnowledgeBase`] with [`KbBuilder::build`].
///
/// Node names are unique: adding an existing name returns the existing id
/// (idempotent upsert), which makes TSV loading and incremental generators
/// straightforward. The names interner holds node names only and each new
/// name makes exactly one node, so a node's id is its name's interned id
/// and a lookup by name is one interner probe. Edges may reference any
/// previously added node. A KB holds at most [`LABEL_LIMIT`] labels, so
/// the methods that intern a label return a [`Result`]: a new label past
/// the limit is refused with [`crate::KbError::LabelLimit`].
///
/// ```
/// use rex_kb::KbBuilder;
///
/// let mut b = KbBuilder::new();
/// let kate = b.add_node("kate_winslet", "Person");
/// let titanic = b.add_node("titanic", "Movie");
/// b.add_directed_edge(kate, titanic, "starring")?;
/// let kb = b.build();
/// assert_eq!(kb.node_count(), 2);
/// assert_eq!(kb.neighbors(kate).len(), 1);
/// # Ok::<(), rex_kb::KbError>(())
/// ```
#[derive(Debug)]
pub struct KbBuilder {
    nodes: Vec<NodeRecord>,
    edges: Vec<StoredEdge>,
    names: Interner,
    types: Interner,
    labels: Interner,
    /// The most labels the builder takes: [`LABEL_LIMIT`], lower in tests.
    label_limit: u32,
}

impl Default for KbBuilder {
    fn default() -> Self {
        KbBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            names: Interner::new(),
            types: Interner::new(),
            labels: Interner::new(),
            label_limit: LABEL_LIMIT,
        }
    }
}

impl KbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with preallocated capacity, for bulk generators.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// This builder, taking at most `limit` labels: lets tests reach the
    /// label limit without interning 2^30 labels.
    #[cfg(test)]
    pub(crate) fn with_label_limit(self, limit: u32) -> Self {
        Self { label_limit: limit, ..self }
    }

    /// Adds (or finds) a node with the given unique name and type. If the
    /// name already exists the existing id is returned and the type is left
    /// unchanged.
    pub fn add_node(&mut self, name: &str, ty: &str) -> NodeId {
        let name_id = self.names.intern(name);
        if (name_id as usize) < self.nodes.len() {
            return NodeId(name_id);
        }
        let ty = TypeId(self.types.intern(ty));
        self.nodes.push(NodeRecord { ty });
        NodeId(name_id)
    }

    /// Looks a node up by name without inserting.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(NodeId)
    }

    /// Adds a directed edge `src --label--> dst`, unless its label is
    /// new and refused (see [`KbBuilder::intern_label`]).
    pub fn add_directed_edge(&mut self, src: NodeId, dst: NodeId, label: &str) -> Result<()> {
        let label = self.intern_label(label)?;
        self.edges.push(StoredEdge::new(src, dst, label, true));
        Ok(())
    }

    /// Adds an undirected edge between `a` and `b`, unless its label is
    /// new and refused (see [`KbBuilder::intern_label`]).
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, label: &str) -> Result<()> {
        let label = self.intern_label(label)?;
        self.edges.push(StoredEdge::new(a, b, label, false));
        Ok(())
    }

    /// Interns a label without adding an edge (useful to pre-register a
    /// label universe so `LabelId`s are stable across generated KBs). A
    /// label the builder holds keeps its id; a new one is refused with
    /// [`crate::KbError::LabelLimit`] once it holds [`LABEL_LIMIT`].
    pub fn intern_label(&mut self, label: &str) -> Result<LabelId> {
        intern_label_within(&mut self.labels, label, self.label_limit)
    }

    /// Current number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the index-backed knowledge base at epoch 0. Further changes
    /// go through the KB's own mutation API
    /// ([`KnowledgeBase::insert_edge`] and friends), which maintains the
    /// indexes in place and bumps the epoch. The node and edge tables and
    /// the interners' string tables are sized to their lengths.
    pub fn build(self) -> KnowledgeBase {
        KnowledgeBase::assemble(self.nodes, self.edges, self.names, self.types, self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_is_idempotent() {
        let mut b = KbBuilder::new();
        let a1 = b.add_node("alice", "Person");
        let a2 = b.add_node("alice", "Person");
        assert_eq!(a1, a2);
        assert_eq!(b.node_count(), 1);
    }

    #[test]
    fn builder_lookup() {
        let mut b = KbBuilder::new();
        let a = b.add_node("alice", "Person");
        assert_eq!(b.node_by_name("alice"), Some(a));
        assert_eq!(b.node_by_name("bob"), None);
    }

    #[test]
    fn capacities_do_not_change_semantics() {
        let mut b = KbBuilder::with_capacity(10, 10);
        let a = b.add_node("a", "T");
        let c = b.add_node("c", "T");
        b.add_directed_edge(a, c, "r").unwrap();
        let kb = b.build();
        assert_eq!(kb.node_count(), 2);
        assert_eq!(kb.edge_count(), 1);
    }

    #[test]
    fn intern_label_registers_universe() {
        let mut b = KbBuilder::new();
        let l0 = b.intern_label("rare_label").unwrap();
        let a = b.add_node("a", "T");
        let c = b.add_node("c", "T");
        b.add_directed_edge(a, c, "rare_label").unwrap();
        let kb = b.build();
        assert_eq!(kb.label_by_name("rare_label"), Some(l0));
        assert_eq!(kb.label_count(), 1);
    }

    /// Past its label limit a builder refuses each new label with a typed
    /// error and adds no edge, while labels it holds keep working.
    #[test]
    fn labels_past_the_limit_are_refused() {
        let mut b = KbBuilder::new().with_label_limit(2);
        let (a, c) = (b.add_node("a", "T"), b.add_node("c", "T"));
        assert_eq!(b.intern_label("r"), Ok(LabelId(0)));
        b.add_undirected_edge(a, c, "s").unwrap();
        let refused = crate::KbError::LabelLimit("t".into());
        assert_eq!(b.intern_label("t"), Err(refused.clone()));
        assert_eq!(b.add_directed_edge(a, c, "t"), Err(refused.clone()));
        assert_eq!(b.add_undirected_edge(a, c, "t"), Err(refused));
        b.add_directed_edge(c, a, "r").unwrap();
        assert_eq!(b.intern_label("s"), Ok(LabelId(1)));
        let kb = b.build();
        assert_eq!((kb.label_count(), kb.edge_count()), (2, 2));
        kb.check_invariants().unwrap();
    }
}
