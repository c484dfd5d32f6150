//! Mutable construction API for [`KnowledgeBase`].

use crate::graph::{EdgeRecord, KnowledgeBase, NodeRecord};
use crate::ids::{LabelId, NodeId, TypeId};
use crate::interner::Interner;

/// Accumulates nodes and edges, then freezes them into a
/// [`KnowledgeBase`] with [`KbBuilder::build`].
///
/// Node names are unique: adding an existing name returns the existing id
/// (idempotent upsert), which makes TSV loading and incremental generators
/// straightforward. The names interner holds node names only and each new
/// name makes exactly one node, so a node's id is its name's interned id
/// and a lookup by name is one interner probe. Edges may reference any
/// previously added node.
///
/// ```
/// use rex_kb::KbBuilder;
///
/// let mut b = KbBuilder::new();
/// let kate = b.add_node("kate_winslet", "Person");
/// let titanic = b.add_node("titanic", "Movie");
/// b.add_directed_edge(kate, titanic, "starring");
/// let kb = b.build();
/// assert_eq!(kb.node_count(), 2);
/// assert_eq!(kb.neighbors(kate).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct KbBuilder {
    nodes: Vec<NodeRecord>,
    edges: Vec<EdgeRecord>,
    names: Interner,
    types: Interner,
    labels: Interner,
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

    /// Adds (or finds) a node with the given unique name and type. If the
    /// name already exists the existing id is returned and the type is left
    /// unchanged.
    pub fn add_node(&mut self, name: &str, ty: &str) -> NodeId {
        let name_id = self.names.intern(name);
        if (name_id as usize) < self.nodes.len() {
            return NodeId(name_id);
        }
        let ty = TypeId(self.types.intern(ty));
        self.nodes.push(NodeRecord { name: name_id, ty });
        NodeId(name_id)
    }

    /// Looks a node up by name without inserting.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(NodeId)
    }

    /// Adds a directed edge `src --label--> dst`.
    pub fn add_directed_edge(&mut self, src: NodeId, dst: NodeId, label: &str) {
        let label = LabelId(self.labels.intern(label));
        self.edges.push(EdgeRecord { src, dst, label, directed: true });
    }

    /// Adds an undirected edge between `a` and `b`.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, label: &str) {
        let label = LabelId(self.labels.intern(label));
        self.edges.push(EdgeRecord { src: a, dst: b, label, directed: false });
    }

    /// Interns a label without adding an edge (useful to pre-register a
    /// label universe so `LabelId`s are stable across generated KBs).
    pub fn intern_label(&mut self, label: &str) -> LabelId {
        LabelId(self.labels.intern(label))
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
        b.add_directed_edge(a, c, "r");
        let kb = b.build();
        assert_eq!(kb.node_count(), 2);
        assert_eq!(kb.edge_count(), 1);
    }

    #[test]
    fn intern_label_registers_universe() {
        let mut b = KbBuilder::new();
        let l0 = b.intern_label("rare_label");
        let a = b.add_node("a", "T");
        let c = b.add_node("c", "T");
        b.add_directed_edge(a, c, "rare_label");
        let kb = b.build();
        assert_eq!(kb.label_by_name("rare_label"), Some(l0));
        assert_eq!(kb.label_count(), 1);
    }
}
