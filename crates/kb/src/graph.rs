//! The knowledge-base store.
//!
//! [`KnowledgeBase`] is a labeled multigraph in CSR (compressed sparse
//! row) layout. Every edge — directed or not — contributes an entry
//! to the adjacency slice of **both** endpoints, because REX's structural
//! notions (simple paths, essentiality) ignore direction while its pattern
//! constraints respect it; each entry therefore carries an
//! [`Orientation`](crate::Orientation) telling how the edge is seen from
//! that endpoint.
//!
//! Per-node adjacency is sorted by `(label, orientation, other, edge)`,
//! so label-restricted scans — the hot operation of path enumeration and
//! pattern matching — are a binary search plus a contiguous slice walk.
//!
//! Every edge is stored three times: once in the edge table and once in
//! each endpoint's adjacency. Each copy takes 12 bytes. A [`Neighbor`]
//! keeps its label id and its orientation's 2-bit code in one `u32`
//! word (`label << 2 | code`), beside the other endpoint and the edge id,
//! so comparing the words compares `(label, orientation)` and the
//! adjacency order is the order of `(word, other, edge)`. The edge table
//! keeps the direction bit below the label the same way
//! (`label << 1 | directed`). The packing caps label ids below
//! [`LABEL_LIMIT`] (2^30). A node record is its entity type alone, 4
//! bytes, since a node's id is its name's id.
//!
//! The store is bulk-built through [`crate::KbBuilder`] but no longer
//! frozen: the **mutation API** ([`KnowledgeBase::insert_edge`],
//! [`KnowledgeBase::remove_edge`], [`KnowledgeBase::insert_node`])
//! maintains the sorted-adjacency invariant in place, bumps a
//! monotonically increasing [`epoch`](KnowledgeBase::epoch), and logs the
//! edge-level change so downstream indexes and caches can refresh from a
//! [`KbDelta`](crate::KbDelta) instead of rebuilding. Single-edge
//! mutations shift the CSR arrays (`O(V + E)` worst case) — the right
//! trade for a read-dominated store whose readers must stay branch-free.

use rayon::prelude::*;

use crate::delta::{DeltaOp, DeltaSince, KbDelta, LogEntry};
use crate::ids::{EdgeId, LabelId, NodeId, Orientation, TypeId, LABEL_LIMIT};
use crate::interner::Interner;
use crate::{KbError, Result};

/// A node (entity) of the knowledge base. Its name needs no field: a
/// node's id is its name's interned id (resolve it with
/// [`KnowledgeBase::node_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// The entity type (e.g. `Person`, `Movie`).
    pub ty: TypeId,
}

/// A lightweight pin of a knowledge base's state at a moment in time: the
/// update [`epoch`](KbSnapshot::epoch) a reader started at, plus the
/// coarse counts belonging to that epoch. Obtained from
/// [`KnowledgeBase::snapshot`]; serving layers carry it inside their
/// published read handles so every read pass can be attributed to exactly
/// one epoch (the "old or new in full, never a torn mix" contract of
/// snapshot-isolated ranking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KbSnapshot {
    epoch: u64,
    node_count: usize,
    edge_count: usize,
}

impl KbSnapshot {
    /// The KB update epoch this snapshot pins.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Entity count at the pinned epoch.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Edge count at the pinned epoch.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }
}

/// An edge (primary relationship) of the knowledge base, as
/// [`KnowledgeBase::edge`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Source endpoint (arbitrary endpoint for undirected edges).
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Relationship label.
    pub label: LabelId,
    /// Whether the relationship is directed (`starring`) or not (`spouse`).
    pub directed: bool,
}

/// An edge as the edge table stores it: its endpoints, and its label id
/// and direction bit in one word (`label << 1 | directed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoredEdge {
    src: NodeId,
    dst: NodeId,
    word: u32,
}

impl StoredEdge {
    /// Packs an edge.
    ///
    /// # Panics
    /// When the label id is not below [`LABEL_LIMIT`].
    #[inline]
    pub(crate) fn new(src: NodeId, dst: NodeId, label: LabelId, directed: bool) -> StoredEdge {
        assert!(label.0 < LABEL_LIMIT, "label id {} is past the label limit", label.0);
        StoredEdge { src, dst, word: label.0 << 1 | u32::from(directed) }
    }

    /// The edge's fields.
    #[inline]
    pub(crate) fn record(self) -> EdgeRecord {
        EdgeRecord {
            src: self.src,
            dst: self.dst,
            label: LabelId(self.word >> 1),
            directed: self.word & 1 == 1,
        }
    }
}

/// One adjacency entry: an incident edge seen from a particular endpoint.
///
/// Entries are 12 bytes: the label id and the orientation's code share
/// one word (`label << 2 | code`), beside the other endpoint and the edge
/// id. Entries order by `(label, orientation, other, edge)`, which is the
/// order of `(word, other, edge)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    word: u32,
    other: NodeId,
    edge: EdgeId,
}

impl Neighbor {
    /// The entry of `edge`, labeled `label`, seen with `orientation`, and
    /// leading to `other`.
    ///
    /// # Panics
    /// When the label id is not below [`LABEL_LIMIT`].
    #[inline]
    pub fn new(label: LabelId, orientation: Orientation, other: NodeId, edge: EdgeId) -> Neighbor {
        assert!(label.0 < LABEL_LIMIT, "label id {} is past the label limit", label.0);
        Neighbor { word: label.0 << 2 | u32::from(orientation.code()), other, edge }
    }

    /// Relationship label.
    #[inline]
    pub fn label(&self) -> LabelId {
        LabelId(self.word >> 2)
    }

    /// How the edge is oriented relative to the owning node.
    #[inline]
    pub fn orientation(&self) -> Orientation {
        Orientation::from_low_bits(self.word)
    }

    /// The opposite endpoint.
    #[inline]
    pub fn other(&self) -> NodeId {
        self.other
    }

    /// The underlying edge.
    #[inline]
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The `(label, orientation, other, edge)` order as one integer.
    #[inline]
    fn sort_key(&self) -> u128 {
        u128::from(self.word) << 64 | u128::from(self.other.0) << 32 | u128::from(self.edge.0)
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Neighbor) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Neighbor) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The word that an entry labeled `label` and seen with `orientation`
/// holds, widened so that a label id past [`LABEL_LIMIT`] stays apart
/// from every entry's word.
#[inline]
fn probe_word(label: LabelId, orientation: Orientation) -> u64 {
    u64::from(label.0) << 2 | u64::from(orientation.code())
}

// Every edge costs one edge record and two adjacency entries (one for a
// self-loop), and every node one node record.
const _: () = assert!(std::mem::size_of::<Neighbor>() == 12);
const _: () = assert!(std::mem::size_of::<StoredEdge>() == 12);
const _: () = assert!(std::mem::size_of::<NodeRecord>() == 4);

/// Interns `name` in the label table `labels`, which holds at most
/// `limit` labels: a label it holds keeps its id, and a new label is
/// refused with [`KbError::LabelLimit`] once it is full. Every path that
/// interns a label checks it here against [`LABEL_LIMIT`].
pub(crate) fn intern_label_within(
    labels: &mut Interner,
    name: &str,
    limit: u32,
) -> Result<LabelId> {
    let hash = labels.hash(name);
    if let Some(id) = labels.get_hashed(name, hash) {
        return Ok(LabelId(id));
    }
    if labels.len() >= limit as usize {
        return Err(KbError::LabelLimit(name.to_string()));
    }
    Ok(LabelId(labels.intern_hashed(name, hash)))
}

/// Heap bytes of the tables that hold a knowledge base's nodes and edges,
/// from [`KnowledgeBase::heap_bytes`]. Each counts what its allocations
/// hold (capacity, not length).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KbHeapBytes {
    /// The adjacency: an entry per edge endpoint (one per self-loop) and
    /// an offset per node.
    pub adjacency: usize,
    /// The edge table: a record per edge.
    pub edges: usize,
    /// The node table: a record per node.
    pub nodes: usize,
    /// The entity names interner: the names' text, where each ends, and
    /// its hash table.
    pub names: usize,
}

/// The knowledge base. Bulk-construct with [`crate::KbBuilder`]; mutate
/// in place with the epoch-bumping update API.
///
/// A node's id is its name's interned id: the names interner holds node
/// names only, and every new name makes exactly one node, so
/// [`KnowledgeBase::node_by_name`] is one interner lookup.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    pub(crate) nodes: Vec<NodeRecord>,
    pub(crate) edges: Vec<StoredEdge>,
    pub(crate) names: Interner,
    pub(crate) types: Interner,
    pub(crate) labels: Interner,
    /// CSR offsets into `adj`; length is `nodes.len() + 1`.
    pub(crate) adj_offsets: Vec<u32>,
    /// Per-node adjacency, sorted by `(label, orientation, other, edge)`.
    pub(crate) adj: Vec<Neighbor>,
    /// Monotonically increasing update counter; 0 for a fresh build.
    pub(crate) epoch: u64,
    /// Edge-level mutation log, ordered by epoch (see [`crate::KbDelta`]).
    pub(crate) log: Vec<LogEntry>,
    /// Epoch through which log entries have been compacted away:
    /// [`KnowledgeBase::delta_since`] can only answer for epochs
    /// `>= compacted_through`; older requests get
    /// [`DeltaSince::Compacted`]. 0 until the first compaction.
    pub(crate) compacted_through: u64,
    /// Retention policy: maximum retained log entries (`None` =
    /// unbounded). Enforced after every logged mutation by compacting the
    /// oldest entries.
    pub(crate) log_retention: Option<usize>,
}

impl KnowledgeBase {
    /// A KB at epoch 0 over these tables, with its adjacency built. The
    /// node and edge tables and the interners' string tables are sized to
    /// their lengths.
    pub(crate) fn assemble(
        mut nodes: Vec<NodeRecord>,
        mut edges: Vec<StoredEdge>,
        mut names: Interner,
        mut types: Interner,
        mut labels: Interner,
    ) -> KnowledgeBase {
        nodes.shrink_to_fit();
        edges.shrink_to_fit();
        for interner in [&mut names, &mut types, &mut labels] {
            interner.shrink_to_fit();
        }
        let (adj_offsets, adj) = build_adjacency(nodes.len(), &edges);
        KnowledgeBase {
            nodes,
            edges,
            names,
            types,
            labels,
            adj_offsets,
            adj,
            epoch: 0,
            log: Vec::new(),
            compacted_through: 0,
            log_retention: None,
        }
    }

    /// Number of entities.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary relationships.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct relationship labels.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct entity types.
    #[inline]
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The node record for `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeRecord {
        &self.nodes[id.index()]
    }

    /// The edge record for `id`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> EdgeRecord {
        self.edges[id.index()].record()
    }

    /// The entity name of `id`: the name whose interned id is `id`.
    #[inline]
    pub fn node_name(&self, id: NodeId) -> &str {
        self.names.resolve(id.0)
    }

    /// The type name of `id`'s entity type.
    #[inline]
    pub fn node_type_name(&self, id: NodeId) -> &str {
        self.types.resolve(self.nodes[id.index()].ty.0)
    }

    /// The string for a relationship label.
    #[inline]
    pub fn label_name(&self, label: LabelId) -> &str {
        self.labels.resolve(label.0)
    }

    /// The string for an entity type.
    #[inline]
    pub fn type_name(&self, ty: TypeId) -> &str {
        self.types.resolve(ty.0)
    }

    /// Looks an entity up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(NodeId)
    }

    /// Looks an entity up by name, erroring when absent.
    pub fn require_node(&self, name: &str) -> Result<NodeId> {
        self.node_by_name(name).ok_or_else(|| KbError::NameNotFound(name.to_string()))
    }

    /// Looks a relationship label up by string.
    pub fn label_by_name(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).map(LabelId)
    }

    /// Looks an entity type up by string.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.types.get(name).map(TypeId)
    }

    /// Degree of a node, counting every incident edge once (directed edges
    /// count regardless of direction; self-loops count once).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// All adjacency entries of `node`, sorted by `(label, orientation,
    /// other, edge)`.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[Neighbor] {
        let lo = self.adj_offsets[node.index()] as usize;
        let hi = self.adj_offsets[node.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Adjacency entries of `node` restricted to `label` (contiguous thanks
    /// to the sort order; found by binary search).
    pub fn neighbors_labeled(&self, node: NodeId, label: LabelId) -> &[Neighbor] {
        let all = self.neighbors(node);
        let lo = all.partition_point(|n| n.label() < label);
        let hi = all.partition_point(|n| n.label() <= label);
        &all[lo..hi]
    }

    /// Adjacency entries of `node` restricted to `label` *and* orientation.
    pub fn neighbors_labeled_oriented(
        &self,
        node: NodeId,
        label: LabelId,
        orientation: Orientation,
    ) -> &[Neighbor] {
        let all = self.neighbors(node);
        let word = probe_word(label, orientation);
        let lo = all.partition_point(|n| u64::from(n.word) < word);
        let hi = all.partition_point(|n| u64::from(n.word) <= word);
        &all[lo..hi]
    }

    /// Whether there exists at least one edge `(u, v)` with the given label
    /// and orientation as seen from `u`.
    pub fn has_edge(&self, u: NodeId, v: NodeId, label: LabelId, orientation: Orientation) -> bool {
        // Self-loops live in exactly one adjacency slot; probe it directly.
        if u == v {
            let slice = self.neighbors_labeled_oriented(u, label, orientation);
            return slice.binary_search_by(|n| n.other.cmp(&v)).is_ok();
        }
        // The same edge appears in `v`'s adjacency with the reversed
        // orientation, so probe whichever endpoint has the shorter
        // `(label, orientation)` slice; slices are sorted by `other`
        // within it, so either probe is a binary search.
        let from_u = self.neighbors_labeled_oriented(u, label, orientation);
        let from_v = self.neighbors_labeled_oriented(v, label, orientation.reversed());
        if from_u.len() <= from_v.len() {
            from_u.binary_search_by(|n| n.other.cmp(&v)).is_ok()
        } else {
            from_v.binary_search_by(|n| n.other.cmp(&u)).is_ok()
        }
    }

    /// Heap bytes of the adjacency, the edge table, the node table and
    /// the entity names — the tables whose size grows with the KB.
    pub fn heap_bytes(&self) -> KbHeapBytes {
        use std::mem::size_of;
        KbHeapBytes {
            adjacency: self.adj.capacity() * size_of::<Neighbor>()
                + self.adj_offsets.capacity() * size_of::<u32>(),
            edges: self.edges.capacity() * size_of::<StoredEdge>(),
            nodes: self.nodes.capacity() * size_of::<NodeRecord>(),
            names: self.names.heap_bytes(),
        }
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over `(LabelId, &str)` for all labels.
    pub fn labels(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.labels.iter().map(|(id, s)| (LabelId(id), s))
    }

    /// Iterates over `(TypeId, &str)` for all entity types.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.types.iter().map(|(id, s)| (TypeId(id), s))
    }

    /// Counts the simple paths between `a` and `b` of length (edge count) at
    /// most `max_len`, treating all edges as undirected. This is the
    /// "connectedness" statistic of §5.1 used to stratify entity pairs into
    /// low / medium / high groups. Search is capped at `cap` paths so that
    /// hub-heavy pairs cannot blow up the sampler; the result saturates at
    /// `cap`.
    pub fn count_simple_paths(&self, a: NodeId, b: NodeId, max_len: usize, cap: usize) -> usize {
        if a == b || max_len == 0 {
            return 0;
        }
        let mut on_path = vec![false; self.node_count()];
        let mut count = 0usize;
        on_path[a.index()] = true;
        self.count_paths_rec(a, b, max_len, cap, &mut on_path, &mut count);
        count
    }

    fn count_paths_rec(
        &self,
        cur: NodeId,
        target: NodeId,
        budget: usize,
        cap: usize,
        on_path: &mut [bool],
        count: &mut usize,
    ) {
        if *count >= cap {
            return;
        }
        for n in self.neighbors(cur) {
            if *count >= cap {
                return;
            }
            if n.other == target {
                *count += 1;
                continue;
            }
            if budget > 1 && !on_path[n.other.index()] {
                on_path[n.other.index()] = true;
                self.count_paths_rec(n.other, target, budget - 1, cap, on_path, count);
                on_path[n.other.index()] = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutation API: epoch-bumping in-place updates.
    // ------------------------------------------------------------------

    /// The KB's update epoch: 0 for a fresh build, incremented by every
    /// successful mutation. Caches and indexes derived from the KB carry
    /// the epoch they were computed at and refresh when it moves.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Interns a relationship label (existing labels return their id).
    /// A new label is refused with [`KbError::LabelLimit`] once the KB
    /// holds [`LABEL_LIMIT`] labels.
    pub fn intern_label(&mut self, label: &str) -> Result<LabelId> {
        intern_label_within(&mut self.labels, label, LABEL_LIMIT)
    }

    /// Inserts (or finds) a node with the given unique name and type —
    /// the same idempotent-upsert semantics as
    /// [`crate::KbBuilder::add_node`]. A genuinely new node bumps the
    /// epoch; re-adding an existing name is a read.
    pub fn insert_node(&mut self, name: &str, ty: &str) -> NodeId {
        let name_id = self.names.intern(name);
        if (name_id as usize) < self.nodes.len() {
            return NodeId(name_id);
        }
        let ty = TypeId(self.types.intern(ty));
        let id = NodeId(name_id);
        self.nodes.push(NodeRecord { ty });
        // A fresh node has an empty adjacency slice.
        let end = *self.adj_offsets.last().expect("offsets are never empty");
        self.adj_offsets.push(end);
        self.epoch += 1;
        id
    }

    /// Inserts an edge, maintaining the sorted adjacency in place, and
    /// returns its id. The label must already be interned (bulk loads
    /// intern through the builder; incremental callers use
    /// [`KnowledgeBase::intern_label`] or
    /// [`KnowledgeBase::insert_edge_named`]).
    pub fn insert_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: LabelId,
        directed: bool,
    ) -> Result<EdgeId> {
        if src.index() >= self.nodes.len() {
            return Err(KbError::UnknownNode(src.0));
        }
        if dst.index() >= self.nodes.len() {
            return Err(KbError::UnknownNode(dst.0));
        }
        if label.index() >= self.labels.len() {
            return Err(KbError::Parse(format!("label id {} is not interned", label.0)));
        }
        let eid = EdgeId(self.edges.len() as u32);
        let record = EdgeRecord { src, dst, label, directed };
        self.edges.push(StoredEdge::new(src, dst, label, directed));
        let [fwd, bwd] = entries(&record, eid);
        self.adj_insert(src, fwd);
        if src != dst {
            self.adj_insert(dst, bwd);
        }
        self.epoch += 1;
        self.log.push(LogEntry { epoch: self.epoch, op: DeltaOp::InsertEdge(record) });
        self.enforce_log_retention();
        Ok(eid)
    }

    /// [`KnowledgeBase::insert_edge`] by label string, interning the
    /// label when new: refused with [`KbError::LabelLimit`] when the KB
    /// holds [`LABEL_LIMIT`] labels already.
    pub fn insert_edge_named(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: &str,
        directed: bool,
    ) -> Result<EdgeId> {
        let label = self.intern_label(label)?;
        self.insert_edge(src, dst, label, directed)
    }

    /// Removes the edge `id`, returning its record. The last edge takes
    /// over the freed id (swap-remove), so at most one *other* edge is
    /// renumbered per removal — its adjacency entries are re-threaded to
    /// the new id, preserving the sort invariant.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<EdgeRecord> {
        if id.index() >= self.edges.len() {
            return Err(KbError::Parse(format!("edge id {} out of range", id.0)));
        }
        let record = self.edges[id.index()].record();
        let [fwd, bwd] = entries(&record, id);
        self.adj_remove(record.src, fwd);
        if record.src != record.dst {
            self.adj_remove(record.dst, bwd);
        }
        let last = EdgeId((self.edges.len() - 1) as u32);
        self.edges.swap_remove(id.index());
        if id != last {
            // The moved edge (previously `last`) now answers to `id`:
            // re-thread its adjacency entries. Remove + reinsert keeps
            // parallel-edge runs (equal label/orientation/other) sorted
            // by the edge-id tiebreaker.
            let moved = self.edges[id.index()].record();
            let ([old_fwd, old_bwd], [new_fwd, new_bwd]) =
                (entries(&moved, last), entries(&moved, id));
            self.adj_remove(moved.src, old_fwd);
            self.adj_insert(moved.src, new_fwd);
            if moved.src != moved.dst {
                self.adj_remove(moved.dst, old_bwd);
                self.adj_insert(moved.dst, new_bwd);
            }
        }
        self.epoch += 1;
        self.log.push(LogEntry { epoch: self.epoch, op: DeltaOp::RemoveEdge(record) });
        self.enforce_log_retention();
        Ok(record)
    }

    /// Finds one edge `(src, dst)` with the given label and directedness,
    /// if any (an arbitrary representative among parallel edges). For an
    /// undirected edge either endpoint order matches.
    pub fn find_edge(
        &self,
        src: NodeId,
        dst: NodeId,
        label: LabelId,
        directed: bool,
    ) -> Option<EdgeId> {
        let orientation = if directed { Orientation::Out } else { Orientation::Undirected };
        let slice = self.neighbors_labeled_oriented(src, label, orientation);
        let at = slice.binary_search_by(|n| n.other.cmp(&dst)).ok()?;
        Some(slice[at].edge)
    }

    /// Pins the KB's current state as a [`KbSnapshot`]: the epoch a
    /// reader starts at plus the coarse counts belonging to it.
    #[inline]
    pub fn snapshot(&self) -> KbSnapshot {
        KbSnapshot { epoch: self.epoch, node_count: self.nodes.len(), edge_count: self.edges.len() }
    }

    /// The condensed delta between `epoch` (exclusive) and the current
    /// state: the edge records added and removed since, plus the current
    /// node count. Returns [`DeltaSince::Delta`] with an edge-empty delta
    /// when `epoch` is current or ahead, and [`DeltaSince::Compacted`]
    /// when `epoch` predates the retained log history (after
    /// [`compact_log`] or the retention policy discarded the entries a
    /// faithful delta would need) — the caller must then fall back to a
    /// full rebuild instead of silently applying a partial window.
    /// Deltas are multisets — see [`crate::KbDelta`].
    ///
    /// [`compact_log`]: KnowledgeBase::compact_log
    pub fn delta_since(&self, epoch: u64) -> DeltaSince {
        if epoch < self.compacted_through {
            return DeltaSince::Compacted {
                requested: epoch,
                oldest_retained: self.compacted_through,
                to_epoch: self.epoch,
            };
        }
        let from = self.log.partition_point(|e| e.epoch <= epoch);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for entry in &self.log[from..] {
            match entry.op {
                DeltaOp::InsertEdge(r) => added.push(r),
                DeltaOp::RemoveEdge(r) => removed.push(r),
            }
        }
        DeltaSince::Delta(KbDelta {
            from_epoch: epoch.min(self.epoch),
            to_epoch: self.epoch,
            added,
            removed,
            node_count: self.nodes.len(),
        })
    }

    /// Number of logged edge mutations retained for [`delta_since`].
    ///
    /// [`delta_since`]: KnowledgeBase::delta_since
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The epoch boundary the mutation log has been compacted through:
    /// [`delta_since`] answers faithfully for any `epoch >=
    /// compacted_through` and signals [`DeltaSince::Compacted`] below it.
    /// 0 until the first compaction.
    ///
    /// [`delta_since`]: KnowledgeBase::delta_since
    #[inline]
    pub fn compacted_through(&self) -> u64 {
        self.compacted_through
    }

    /// Discards log entries at epochs `<= before_epoch` (clamped to the
    /// current epoch) and advances [`compacted_through`] accordingly, so
    /// a long-lived process can bound the log's memory. Returns the
    /// number of entries dropped. After compaction, `delta_since(e)` for
    /// `e < before_epoch` reports [`DeltaSince::Compacted`] instead of a
    /// silently partial delta.
    ///
    /// [`compacted_through`]: KnowledgeBase::compacted_through
    pub fn compact_log(&mut self, before_epoch: u64) -> usize {
        let boundary = before_epoch.min(self.epoch);
        let cut = self.log.partition_point(|e| e.epoch <= boundary);
        self.log.drain(..cut);
        self.compacted_through = self.compacted_through.max(boundary);
        cut
    }

    /// Sets the log retention policy: after every logged mutation, the
    /// oldest entries are compacted away so at most `max_entries` remain
    /// (`None` restores the default unbounded log). Consumers that fall
    /// behind further than the retained window observe
    /// [`DeltaSince::Compacted`] and rebuild.
    pub fn set_log_retention(&mut self, max_entries: Option<usize>) {
        self.log_retention = max_entries;
        self.enforce_log_retention();
    }

    /// The configured log retention cap, if any.
    #[inline]
    pub fn log_retention(&self) -> Option<usize> {
        self.log_retention
    }

    /// Applies the retention policy after a logged mutation.
    fn enforce_log_retention(&mut self) {
        if let Some(max) = self.log_retention {
            if self.log.len() > max {
                let cut = self.log.len() - max;
                self.compacted_through = self.compacted_through.max(self.log[cut - 1].epoch);
                self.log.drain(..cut);
            }
        }
    }

    /// Inserts an adjacency entry for `node` at its sorted position,
    /// shifting the CSR arrays.
    fn adj_insert(&mut self, node: NodeId, n: Neighbor) {
        let lo = self.adj_offsets[node.index()] as usize;
        let hi = self.adj_offsets[node.index() + 1] as usize;
        let pos = self.adj[lo..hi].partition_point(|x| *x < n);
        self.adj.insert(lo + pos, n);
        for off in &mut self.adj_offsets[node.index() + 1..] {
            *off += 1;
        }
    }

    /// Removes the exact adjacency entry `n` from `node`'s slice.
    fn adj_remove(&mut self, node: NodeId, n: Neighbor) {
        let lo = self.adj_offsets[node.index()] as usize;
        let hi = self.adj_offsets[node.index() + 1] as usize;
        let pos = self.adj[lo..hi].binary_search(&n).expect("adjacency entry for an existing edge");
        self.adj.remove(lo + pos);
        for off in &mut self.adj_offsets[node.index() + 1..] {
            *off -= 1;
        }
    }

    /// Debug check: every node has exactly one name (its id's), and
    /// per-node adjacency is sorted and consistent with the edge table.
    /// Used by tests; not on any hot path.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<()> {
        if self.names.len() != self.nodes.len() {
            return Err(KbError::Parse("names table length".into()));
        }
        if self.adj_offsets.len() != self.nodes.len() + 1 {
            return Err(KbError::Parse("offset table length".into()));
        }
        let expected: usize = self.edges.iter().map(|e| if e.src == e.dst { 1 } else { 2 }).sum();
        if self.adj.len() != expected || *self.adj_offsets.last().unwrap() as usize != expected {
            return Err(KbError::Parse("adjacency length".into()));
        }
        for v in 0..self.nodes.len() {
            let slice = self.neighbors(NodeId(v as u32));
            let sorted = slice.windows(2).all(|w| w[0] <= w[1]);
            if !sorted {
                return Err(KbError::Parse(format!("adjacency of node {v} unsorted")));
            }
            for n in slice {
                let e = self.edges.get(n.edge.index()).map(|e| e.record()).ok_or_else(|| {
                    KbError::Parse(format!("dangling edge id {} at node {v}", n.edge.0))
                })?;
                let me = NodeId(v as u32);
                let ok = (e.src == me && e.dst == n.other) || (e.dst == me && e.src == n.other);
                if !ok || e.label != n.label() {
                    return Err(KbError::Parse(format!("adjacency of node {v} disagrees")));
                }
            }
        }
        Ok(())
    }
}

/// The adjacency entries of edge `edge`, whose fields are `e`: the one
/// `e.src` holds, then the one `e.dst` holds (a self-loop keeps only the
/// first).
fn entries(e: &EdgeRecord, edge: EdgeId) -> [Neighbor; 2] {
    let (fwd, bwd) = if e.directed {
        (Orientation::Out, Orientation::In)
    } else {
        (Orientation::Undirected, Orientation::Undirected)
    };
    [Neighbor::new(e.label, fwd, e.dst, edge), Neighbor::new(e.label, bwd, e.src, edge)]
}

/// Builds the CSR adjacency for a frozen node/edge set. Shared by the
/// builder and the binary decoder (through [`KnowledgeBase::assemble`]).
///
/// One pass over the edges counts each node's entries; the offsets are
/// their running sums. The nodes are then cut into one range per worker
/// of the current rayon width, each holding about the same number of
/// entries, and each worker fills and sorts its own range: it walks all
/// edges, keeps the entries whose owning node is in its range, and sorts
/// each of its nodes' slices by `(label, orientation, other, edge)`, so
/// label scans are contiguous and `has_edge` can binary-search. Every
/// width builds the same arrays.
pub(crate) fn build_adjacency(
    node_count: usize,
    edges: &[StoredEdge],
) -> (Vec<u32>, Vec<Neighbor>) {
    let mut offsets = vec![0u32; node_count + 1];
    for e in edges {
        offsets[e.src.index() + 1] += 1;
        if e.src != e.dst {
            offsets[e.dst.index() + 1] += 1;
        }
    }
    for v in 0..node_count {
        offsets[v + 1] += offsets[v];
    }
    let total = offsets[node_count] as usize;
    let unset = Neighbor { word: 0, other: NodeId(0), edge: EdgeId(0) };
    let mut adj = vec![unset; total];
    let width = rayon::current_num_threads().clamp(1, node_count.max(1));
    let mut ranges = Vec::with_capacity(width);
    let (mut rest, mut first) = (adj.as_mut_slice(), 0);
    for part in 1..=width {
        let end = if part == width {
            node_count
        } else {
            offsets
                .partition_point(|&o| (o as usize) * width < total * part)
                .clamp(first, node_count)
        };
        let len = (offsets[end] - offsets[first]) as usize;
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut(len);
        ranges.push((first..end, slice));
        (rest, first) = (tail, end);
    }
    ranges
        .par_iter_mut()
        .for_each(|(nodes, slice)| fill_range(nodes.clone(), slice, &offsets, edges));
    (offsets, adj)
}

/// Fills and sorts the adjacency of the nodes in `nodes`, whose entries
/// are `slice` (see [`build_adjacency`]).
fn fill_range(
    nodes: std::ops::Range<usize>,
    slice: &mut [Neighbor],
    offsets: &[u32],
    edges: &[StoredEdge],
) {
    let base = offsets[nodes.start];
    let mut cursor: Vec<u32> = offsets[nodes.clone()].iter().map(|&o| o - base).collect();
    let mut put = |node: NodeId, n: Neighbor| {
        if let Some(at) = node.index().checked_sub(nodes.start).filter(|&i| i < cursor.len()) {
            slice[cursor[at] as usize] = n;
            cursor[at] += 1;
        }
    };
    for (i, e) in edges.iter().enumerate() {
        let e = e.record();
        let [fwd, bwd] = entries(&e, EdgeId(i as u32));
        put(e.src, fwd);
        if e.src != e.dst {
            put(e.dst, bwd);
        }
    }
    for v in nodes {
        let (lo, hi) = ((offsets[v] - base) as usize, (offsets[v + 1] - base) as usize);
        slice[lo..hi].sort_unstable_by_key(Neighbor::sort_key);
    }
}

#[cfg(test)]
mod tests {
    use crate::KbBuilder;

    use super::*;

    fn tiny() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "Person");
        let m = b.add_node("m", "Movie");
        let c = b.add_node("c", "Person");
        b.add_directed_edge(a, m, "starring").unwrap();
        b.add_directed_edge(c, m, "starring").unwrap();
        b.add_undirected_edge(a, c, "spouse").unwrap();
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let kb = tiny();
        assert_eq!(kb.node_count(), 3);
        assert_eq!(kb.edge_count(), 3);
        assert_eq!(kb.label_count(), 2);
        assert_eq!(kb.type_count(), 2);
        let a = kb.require_node("a").unwrap();
        assert_eq!(kb.node_name(a), "a");
        assert_eq!(kb.node_type_name(a), "Person");
        assert!(kb.node_by_name("zzz").is_none());
        assert!(kb.require_node("zzz").is_err());
    }

    #[test]
    fn adjacency_orientations() {
        let kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let spouse = kb.label_by_name("spouse").unwrap();

        let a_star = kb.neighbors_labeled(a, starring);
        assert_eq!(a_star.len(), 1);
        assert_eq!(a_star[0].orientation(), Orientation::Out);
        assert_eq!(a_star[0].other(), m);

        let m_star = kb.neighbors_labeled(m, starring);
        assert_eq!(m_star.len(), 2);
        assert!(m_star.iter().all(|n| n.orientation() == Orientation::In));

        let a_spouse = kb.neighbors_labeled(a, spouse);
        assert_eq!(a_spouse.len(), 1);
        assert_eq!(a_spouse[0].orientation(), Orientation::Undirected);
    }

    #[test]
    fn has_edge_respects_orientation() {
        let kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        assert!(kb.has_edge(a, m, starring, Orientation::Out));
        assert!(!kb.has_edge(a, m, starring, Orientation::In));
        assert!(kb.has_edge(m, a, starring, Orientation::In));
    }

    /// `has_edge` must agree with a linear adjacency scan no matter which
    /// endpoint's slice is shorter — including when the flipped probe runs
    /// against a hub endpoint, and for directed self-loops (which occupy a
    /// single adjacency slot).
    #[test]
    fn has_edge_scans_smaller_endpoint() {
        let mut b = KbBuilder::new();
        let hub = b.add_node("hub", "T");
        let lone = b.add_node("lone", "T");
        let absent = b.add_node("absent", "T");
        // Hub has a long `r` slice; `lone` a single entry.
        for i in 0..50 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(hub, x, "r").unwrap();
        }
        b.add_directed_edge(hub, lone, "r").unwrap();
        b.add_undirected_edge(hub, lone, "s").unwrap();
        b.add_directed_edge(lone, lone, "r").unwrap();
        let kb = b.build();
        let r = kb.label_by_name("r").unwrap();
        let s = kb.label_by_name("s").unwrap();
        // Probing from the hub side must flip to lone's one-entry slice
        // and still find (or reject) correctly.
        assert!(kb.has_edge(hub, lone, r, Orientation::Out));
        assert!(kb.has_edge(lone, hub, r, Orientation::In));
        assert!(!kb.has_edge(hub, lone, r, Orientation::In));
        assert!(!kb.has_edge(hub, absent, r, Orientation::Out));
        assert!(!kb.has_edge(absent, hub, r, Orientation::In));
        assert!(kb.has_edge(hub, lone, s, Orientation::Undirected));
        assert!(kb.has_edge(lone, hub, s, Orientation::Undirected));
        // Directed self-loop: stored once, visible as Out only.
        assert!(kb.has_edge(lone, lone, r, Orientation::Out));
        assert!(!kb.has_edge(lone, lone, r, Orientation::In));
        // Exhaustive agreement with a linear scan over all node pairs.
        for u in kb.node_ids() {
            for v in kb.node_ids() {
                for o in [Orientation::Out, Orientation::In, Orientation::Undirected] {
                    let expect = kb
                        .neighbors(u)
                        .iter()
                        .any(|n| n.label() == r && n.orientation() == o && n.other() == v);
                    assert_eq!(kb.has_edge(u, v, r, o), expect, "{u} {v} {o:?}");
                }
            }
        }
    }

    #[test]
    fn degree_counts_incident_edges() {
        let kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        assert_eq!(kb.degree(a), 2);
        assert_eq!(kb.degree(m), 2);
    }

    #[test]
    fn simple_path_counting() {
        let kb = tiny();
        let a = kb.require_node("a").unwrap();
        let c = kb.require_node("c").unwrap();
        // a-c directly (spouse), and a->m<-c (length 2).
        assert_eq!(kb.count_simple_paths(a, c, 1, usize::MAX), 1);
        assert_eq!(kb.count_simple_paths(a, c, 2, usize::MAX), 2);
        assert_eq!(kb.count_simple_paths(a, c, 4, usize::MAX), 2);
        // The cap saturates the count.
        assert_eq!(kb.count_simple_paths(a, c, 4, 1), 1);
        // Degenerate queries.
        assert_eq!(kb.count_simple_paths(a, a, 4, usize::MAX), 0);
        assert_eq!(kb.count_simple_paths(a, c, 0, usize::MAX), 0);
    }

    #[test]
    fn self_loop_counts_once() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "T");
        b.add_undirected_edge(a, a, "self").unwrap();
        let kb = b.build();
        assert_eq!(kb.degree(a), 1);
    }

    /// In-place mutations keep every adjacency invariant a bulk rebuild
    /// would establish, and bump the epoch once per mutation.
    #[test]
    fn mutations_preserve_invariants_and_epoch() {
        let mut kb = tiny();
        assert_eq!(kb.epoch(), 0);
        let a = kb.require_node("a").unwrap();
        let c = kb.require_node("c").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();

        // Node insert: epoch bumps, empty adjacency; idempotent re-add
        // does not bump.
        let d = kb.insert_node("d", "Person");
        assert_eq!(kb.epoch(), 1);
        assert_eq!(kb.insert_node("d", "Person"), d);
        assert_eq!(kb.epoch(), 1);
        assert_eq!(kb.degree(d), 0);
        kb.check_invariants().unwrap();

        // Edge insert: visible through every read path.
        let e1 = kb.insert_edge(d, m, starring, true).unwrap();
        assert_eq!(kb.epoch(), 2);
        assert!(kb.has_edge(d, m, starring, Orientation::Out));
        assert_eq!(kb.neighbors_labeled(m, starring).len(), 3);
        kb.check_invariants().unwrap();

        // find_edge sees it; removal takes it back out.
        assert_eq!(kb.find_edge(d, m, starring, true), Some(e1));
        let removed = kb.remove_edge(e1).unwrap();
        assert_eq!(removed.src, d);
        assert_eq!(kb.epoch(), 3);
        assert!(!kb.has_edge(d, m, starring, Orientation::Out));
        assert_eq!(kb.find_edge(d, m, starring, true), None);
        kb.check_invariants().unwrap();

        // Removing a *middle* edge renumbers the moved last edge; reads
        // must stay consistent.
        let spouse = kb.label_by_name("spouse").unwrap();
        kb.remove_edge(EdgeId(0)).unwrap();
        kb.check_invariants().unwrap();
        assert!(kb.has_edge(a, c, spouse, Orientation::Undirected));
        assert!(kb.has_edge(c, m, starring, Orientation::Out));
        assert!(!kb.has_edge(a, m, starring, Orientation::Out));

        // Errors: out-of-range ids and uninterned labels.
        assert!(kb.remove_edge(EdgeId(999)).is_err());
        assert!(kb.insert_edge(NodeId(999), m, starring, true).is_err());
        assert!(kb.insert_edge(m, NodeId(999), starring, true).is_err());
        assert!(kb.insert_edge(a, m, LabelId(999), true).is_err());
    }

    /// The delta log condenses into per-window added/removed lists.
    #[test]
    fn delta_since_windows() {
        let mut kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let mid = kb.epoch();
        let e = kb.insert_edge(a, m, starring, true).unwrap();
        let after_insert = kb.epoch();
        kb.remove_edge(e).unwrap();

        let full = kb.delta_since(mid).into_delta().unwrap();
        assert_eq!(full.from_epoch, mid);
        assert_eq!(full.to_epoch, kb.epoch());
        assert_eq!(full.added.len(), 1);
        assert_eq!(full.removed.len(), 1);
        assert_eq!(full.node_count, kb.node_count());

        let tail = kb.delta_since(after_insert).into_delta().unwrap();
        assert_eq!(tail.added.len(), 0);
        assert_eq!(tail.removed.len(), 1);

        let empty = kb.delta_since(kb.epoch()).into_delta().unwrap();
        assert!(empty.is_empty());
        assert_eq!(kb.log_len(), 2);
    }

    /// Snapshots pin `(epoch, node_count, edge_count)` at the moment of
    /// the call and stay fixed as the KB moves on.
    #[test]
    fn snapshot_pins_epoch_and_counts() {
        let mut kb = tiny();
        let snap = kb.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.node_count(), kb.node_count());
        assert_eq!(snap.edge_count(), kb.edge_count());
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(a, m, starring, true).unwrap();
        assert_eq!(snap.epoch(), 0, "snapshot must not move with the KB");
        assert_eq!(snap.edge_count() + 1, kb.edge_count());
        assert_eq!(kb.snapshot().epoch(), kb.epoch());
    }

    /// Compaction bounds the log and turns out-of-window delta requests
    /// into an explicit `Compacted` signal instead of a partial delta.
    #[test]
    fn compaction_signals_instead_of_partial_deltas() {
        let mut kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let e1 = kb.insert_edge(a, m, starring, true).unwrap(); // epoch 1
        kb.remove_edge(e1).unwrap(); // epoch 2
        let mid = kb.epoch();
        kb.insert_edge(a, m, starring, true).unwrap(); // epoch 3
        assert_eq!(kb.log_len(), 3);

        // Compact everything up to `mid`: requests at or after `mid`
        // still answer faithfully; older ones signal Compacted.
        assert_eq!(kb.compact_log(mid), 2);
        assert_eq!(kb.log_len(), 1);
        assert_eq!(kb.compacted_through(), mid);
        let ok = kb.delta_since(mid).into_delta().unwrap();
        assert_eq!(ok.added.len(), 1);
        let refused = kb.delta_since(0);
        assert!(refused.is_compacted());
        assert!(refused.as_delta().is_none());
        match refused {
            DeltaSince::Compacted { requested, oldest_retained, to_epoch } => {
                assert_eq!(requested, 0);
                assert_eq!(oldest_retained, mid);
                assert_eq!(to_epoch, kb.epoch());
            }
            DeltaSince::Delta(_) => unreachable!(),
        }
        // Compacting past the current epoch clamps and empties the log.
        assert_eq!(kb.compact_log(u64::MAX), 1);
        assert_eq!(kb.compacted_through(), kb.epoch());
        assert!(kb.delta_since(kb.epoch()).into_delta().unwrap().is_empty());
    }

    /// The retention policy auto-compacts the oldest entries after each
    /// logged mutation, keeping the log bounded.
    #[test]
    fn log_retention_policy_bounds_the_log() {
        let mut kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.set_log_retention(Some(4));
        assert_eq!(kb.log_retention(), Some(4));
        let base = kb.epoch();
        for _ in 0..10 {
            let e = kb.insert_edge(a, m, starring, true).unwrap();
            kb.remove_edge(e).unwrap();
        }
        assert_eq!(kb.log_len(), 4);
        // The last 4 mutations are still diffable; older windows signal.
        let window_start = kb.epoch() - 4;
        assert_eq!(kb.compacted_through(), window_start);
        let tail = kb.delta_since(window_start).into_delta().unwrap();
        assert_eq!(tail.edge_churn(), 4);
        assert!(kb.delta_since(base).is_compacted());
        // Node inserts bump the epoch without logging; retention holds.
        kb.insert_node("fresh", "Person");
        assert_eq!(kb.log_len(), 4);
        // Lifting the policy stops further compaction.
        kb.set_log_retention(None);
        let e = kb.insert_edge(a, m, starring, true).unwrap();
        kb.remove_edge(e).unwrap();
        assert_eq!(kb.log_len(), 6);
    }

    /// Self-loops (one adjacency slot) survive insert/remove round trips.
    #[test]
    fn mutation_self_loops() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "T");
        b.add_undirected_edge(a, a, "self").unwrap();
        let mut kb = b.build();
        let l = kb.label_by_name("self").unwrap();
        let e = kb.insert_edge(a, a, l, true).unwrap();
        kb.check_invariants().unwrap();
        assert_eq!(kb.degree(a), 2);
        kb.remove_edge(e).unwrap();
        kb.check_invariants().unwrap();
        assert_eq!(kb.degree(a), 1);
        // Removing the remaining loop through the swap-remove path.
        kb.remove_edge(EdgeId(0)).unwrap();
        kb.check_invariants().unwrap();
        assert_eq!(kb.degree(a), 0);
        assert_eq!(kb.edge_count(), 0);
    }

    /// A long random mutation sequence matches a scratch rebuild edge for
    /// edge (the invariant the incremental engine leans on).
    #[test]
    fn mutated_kb_matches_scratch_rebuild() {
        let mut b = KbBuilder::new();
        for i in 0..12 {
            b.add_node(&format!("n{i}"), "T");
        }
        for l in ["r", "s", "t"] {
            b.intern_label(l).unwrap();
        }
        let mut kb = b.build();
        // Deterministic pseudo-random walk of inserts and removes.
        let mut state = 0x9E37u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for step in 0..200 {
            if step % 3 != 0 || kb.edge_count() == 0 {
                let src = NodeId(next(kb.node_count() as u64) as u32);
                let dst = NodeId(next(kb.node_count() as u64) as u32);
                let label = LabelId(next(3) as u32);
                kb.insert_edge(src, dst, label, next(2) == 0).unwrap();
            } else {
                kb.remove_edge(EdgeId(next(kb.edge_count() as u64) as u32)).unwrap();
            }
        }
        kb.check_invariants().unwrap();
        // Scratch rebuild from the surviving records.
        let mut b2 = KbBuilder::new();
        for id in kb.node_ids() {
            b2.add_node(kb.node_name(id), kb.node_type_name(id));
        }
        for (_, l) in kb.labels() {
            b2.intern_label(l).unwrap();
        }
        for eid in kb.edge_ids() {
            let e = kb.edge(eid);
            let l = kb.label_name(e.label);
            if e.directed {
                b2.add_directed_edge(e.src, e.dst, l).unwrap();
            } else {
                b2.add_undirected_edge(e.src, e.dst, l).unwrap();
            }
        }
        let fresh = b2.build();
        assert_eq!(fresh.edge_count(), kb.edge_count());
        for v in kb.node_ids() {
            let a: Vec<_> =
                kb.neighbors(v).iter().map(|n| (n.label(), n.orientation(), n.other())).collect();
            let f: Vec<_> = fresh
                .neighbors(v)
                .iter()
                .map(|n| (n.label(), n.orientation(), n.other()))
                .collect();
            assert_eq!(a, f, "adjacency of {v}");
        }
    }

    #[test]
    fn multigraph_parallel_edges() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "T");
        let c = b.add_node("c", "T");
        b.add_directed_edge(a, c, "knows").unwrap();
        b.add_directed_edge(a, c, "knows").unwrap();
        let kb = b.build();
        let knows = kb.label_by_name("knows").unwrap();
        assert_eq!(kb.neighbors_labeled(a, knows).len(), 2);
        assert!(kb.has_edge(a, c, knows, Orientation::Out));
    }

    /// Every width builds the adjacency that one worker builds, on a
    /// multigraph with self-loops, parallel edges, both directions and
    /// nodes without edges, and that adjacency passes the invariant
    /// check.
    #[test]
    fn adjacency_is_the_same_at_every_width() {
        let mut b = KbBuilder::new();
        let nodes: Vec<NodeId> = (0..40).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (src, dst) = (nodes[(x >> 33) as usize % 30], nodes[(x >> 17) as usize % 30]);
            let label = ["a", "b", "c"][(x >> 8) as usize % 3];
            if x & 1 == 0 {
                b.add_directed_edge(src, dst, label).unwrap();
            } else {
                b.add_undirected_edge(src, dst, label).unwrap();
            }
        }
        let kb = b.build();
        kb.check_invariants().unwrap();
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let expected = one.install(|| build_adjacency(kb.node_count(), &kb.edges));
        for width in 2..=5 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let built = pool.install(|| build_adjacency(kb.node_count(), &kb.edges));
            assert_eq!(built, expected, "width {width}");
        }
        assert_eq!((kb.adj_offsets, kb.adj), expected);
    }

    /// The packing constructors keep every field at the largest label id
    /// that fits, and the `(label, orientation, other, edge)` order.
    #[test]
    fn packing_round_trips_up_to_the_label_limit() {
        let top = LabelId(LABEL_LIMIT - 1);
        let (other, edge) = (NodeId(u32::MAX), EdgeId(u32::MAX - 1));
        for o in [Orientation::Out, Orientation::In, Orientation::Undirected] {
            let n = Neighbor::new(top, o, other, edge);
            assert_eq!((n.label(), n.orientation(), n.other(), n.edge()), (top, o, other, edge));
        }
        for directed in [false, true] {
            let e = StoredEdge::new(other, NodeId(0), top, directed);
            let record = EdgeRecord { src: other, dst: NodeId(0), label: top, directed };
            assert_eq!(e.record(), record);
        }
        let entries = [
            Neighbor::new(LabelId(1), Orientation::Out, NodeId(9), EdgeId(9)),
            Neighbor::new(LabelId(1), Orientation::In, NodeId(0), EdgeId(0)),
            Neighbor::new(LabelId(1), Orientation::Undirected, NodeId(0), EdgeId(0)),
            Neighbor::new(LabelId(2), Orientation::Out, NodeId(0), EdgeId(5)),
            Neighbor::new(LabelId(2), Orientation::Out, NodeId(1), EdgeId(0)),
            Neighbor::new(LabelId(2), Orientation::Out, NodeId(1), EdgeId(1)),
            Neighbor::new(top, Orientation::Out, NodeId(0), EdgeId(0)),
        ];
        for w in entries.windows(2) {
            let key = |n: &Neighbor| (n.label(), n.orientation(), n.other(), n.edge());
            assert!(w[0] < w[1] && key(&w[0]) < key(&w[1]), "{w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "past the label limit")]
    fn adjacency_entries_refuse_a_label_past_the_limit() {
        Neighbor::new(LabelId(LABEL_LIMIT), Orientation::Out, NodeId(0), EdgeId(0));
    }

    #[test]
    #[should_panic(expected = "past the label limit")]
    fn edge_records_refuse_a_label_past_the_limit() {
        StoredEdge::new(NodeId(0), NodeId(1), LabelId(LABEL_LIMIT), true);
    }

    /// A full label table refuses each new label, naming it, and still
    /// resolves the labels it holds; below the limit labels intern as
    /// usual.
    #[test]
    fn interning_refuses_the_first_label_past_the_limit() {
        let mut labels = Interner::new();
        assert_eq!(intern_label_within(&mut labels, "a", 2), Ok(LabelId(0)));
        assert_eq!(intern_label_within(&mut labels, "b", 2), Ok(LabelId(1)));
        assert_eq!(intern_label_within(&mut labels, "c", 2), Err(KbError::LabelLimit("c".into())));
        assert_eq!(intern_label_within(&mut labels, "b", 2), Ok(LabelId(1)));
        assert_eq!(intern_label_within(&mut labels, "a", 2), Ok(LabelId(0)));
        assert_eq!(labels.len(), 2);
        let mut empty = Interner::new();
        assert_eq!(intern_label_within(&mut empty, "a", 0), Err(KbError::LabelLimit("a".into())));
        assert!(empty.is_empty());
        assert_eq!(intern_label_within(&mut labels, "c", LABEL_LIMIT), Ok(LabelId(2)));
    }

    /// A label id past the packing limit finds nothing, rather than the
    /// entries of the label its low 30 bits name.
    #[test]
    fn lookups_past_the_label_limit_find_nothing() {
        let kb = tiny();
        let a = kb.require_node("a").unwrap();
        let m = kb.require_node("m").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let aliased = LabelId(LABEL_LIMIT + starring.0);
        assert_eq!(kb.find_edge(a, m, starring, true), Some(EdgeId(0)));
        assert_eq!(kb.find_edge(a, m, aliased, true), None);
        assert!(!kb.has_edge(a, m, aliased, Orientation::Out));
        assert!(kb.neighbors_labeled(a, aliased).is_empty());
    }

    /// `heap_bytes` counts 12 bytes per adjacency entry and edge record
    /// and 4 per node record and adjacency offset, on a KB sized to its
    /// tables; batches that remove edges before inserting as many, as
    /// the ingest writer's do, leave every table at that size.
    #[test]
    fn heap_bytes_counts_each_table() {
        let mut kb = tiny();
        let bytes = kb.heap_bytes();
        assert_eq!(bytes.adjacency, 6 * 12 + 4 * 4);
        assert_eq!(bytes.edges, 3 * 12);
        assert_eq!(bytes.nodes, 3 * 4);
        assert_eq!(bytes.names, kb.names.heap_bytes());
        assert!(bytes.names >= "amc".len());
        let (a, c) = (kb.require_node("a").unwrap(), kb.require_node("c").unwrap());
        for round in 0..6 {
            let removed = kb.remove_edge(EdgeId(round % 3)).unwrap();
            let (src, dst) = if round % 2 == 0 { (a, c) } else { (removed.dst, removed.src) };
            kb.insert_edge(src, dst, removed.label, round % 4 != 0).unwrap();
            assert_eq!(kb.heap_bytes(), bytes, "round {round}");
        }
        kb.check_invariants().unwrap();
    }
}
