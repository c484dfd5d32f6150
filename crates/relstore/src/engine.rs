//! The distribution queries REX runs against the relational store.
//!
//! These functions implement §5.3.2 of the paper: computing a pattern's
//! aggregate value for *every* candidate end entity in one grouped query
//! (the local distribution), and computing the *position* of a given
//! aggregate value within that distribution — optionally pruned with a
//! `LIMIT` once a position bound is known.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rex_kb::{EdgeRecord, KbDelta, KnowledgeBase, LabelId, Neighbor, NodeId, Orientation};

use crate::budget::Budget;
use crate::exec::Sink;
use crate::metrics::EvalTrace;
use crate::ops::group_count_having_limit;
use crate::plan::{dir_code, PatternSpec, SpecEdge, StartBinding};
use crate::relation::{ColumnPosting, PostingWriter, Relation, Schema};
use crate::{RelError, Result};

/// One `(label, dir)` partition of the oriented edge relation, stored
/// once, as its adjacency lists: a [`ColumnPosting`] over each endpoint.
/// `by_src` maps each `from` id to its `to` ids and `by_dst` each `to` id
/// to its `from` ids, each list ascending, a parallel KB edge repeated
/// once per row; `by_dst` is the transpose of `by_src`, and the partition
/// keeps no other copy of its rows. Binding a pattern variable next to a
/// bound one reads exactly one such list, and a variable with several
/// bound neighbours intersects theirs.
///
/// An undirected partition holds each edge in both orientations, so its
/// rows are their own transpose and `by_dst` would equal `by_src`: it
/// stores `by_src` alone and serves both endpoints from it.
///
/// A partition is immutable: delta maintenance rebuilds every partition
/// it edits and leaves the rest shared behind their `Arc` across
/// [`EdgeIndex::next_epoch`] (copy-on-write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPosting {
    by_src: ColumnPosting,
    /// `None` for an undirected partition, whose `by_dst` is `by_src`.
    by_dst: Option<ColumnPosting>,
}

impl PartitionPosting {
    /// Builds the adjacency lists of a partition from its oriented
    /// `(from, to)` rows, given in any order; an undirected partition's
    /// rows are symmetric, and it builds `by_src` alone.
    fn build(rows: &[(u64, u64)], undirected: bool) -> PartitionPosting {
        let by_dst =
            (!undirected).then(|| ColumnPosting::build(rows.iter().map(|&(from, to)| (to, from))));
        PartitionPosting { by_src: ColumnPosting::build(rows.iter().copied()), by_dst }
    }

    /// The posting over the requested endpoint.
    pub fn endpoint(&self, src: bool) -> &ColumnPosting {
        match &self.by_dst {
            Some(by_dst) if !src => by_dst,
            _ => &self.by_src,
        }
    }

    /// The partition's `(from, to)` rows in `by_src` order: by `from`,
    /// then by `to`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.by_src
            .lists()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (u64::from(from), u64::from(to))))
    }

    /// Heap bytes held by its postings — the partition's whole storage.
    pub fn heap_bytes(&self) -> usize {
        self.by_src.heap_bytes() + self.by_dst.as_ref().map_or(0, ColumnPosting::heap_bytes)
    }
}

/// Aggregate posting statistics of an [`EdgeIndex`] — what `rex stats`
/// reports as the index's build cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingStats {
    /// `(label, dir)` partitions.
    pub partitions: usize,
    /// Total rows indexed across all postings (equals the index's rows).
    pub rows: usize,
    /// Distinct `from` values summed over partitions.
    pub src_keys: usize,
    /// Distinct `to` values summed over partitions.
    pub dst_keys: usize,
    /// Heap bytes held by all postings, key directories included — the
    /// index's whole row storage.
    pub heap_bytes: usize,
}

/// The oriented edge relation pre-partitioned by `(label, dir)` — the
/// relational analogue of a composite index on `R(rel)` — with each
/// partition stored once, as its [`PartitionPosting`] adjacency lists.
/// Every evaluation reads those lists: a pattern edge touches only its
/// label's partition, and only the lists around the values already
/// bound, which is what makes repeated distribution queries (Figure 11)
/// viable.
///
/// The index carries the KB [`epoch`](EdgeIndex::epoch) it reflects and
/// refreshes **incrementally** from a [`KbDelta`]
/// ([`EdgeIndex::apply_delta`]): only the touched `(label, dir)`
/// partitions are rebuilt, instead of rebuilding every partition from
/// scratch on each KB update.
///
/// Partitions are held behind `Arc` (copy-on-write): cloning an index is
/// O(labels), sharing every partition, and a delta application rebuilds
/// only the partitions it touches. This is what makes **versioned index
/// publication** cheap — [`EdgeIndex::next_epoch`] builds the next
/// epoch's index off to the side while readers keep reading the current
/// one, and the publisher swaps an `Arc<EdgeIndex>` in O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeIndex {
    partitions: HashMap<(u64, u64), Arc<PartitionPosting>>,
    total_rows: usize,
    node_count: usize,
    epoch: u64,
}

impl EdgeIndex {
    /// Builds the index from a knowledge base at the KB's current epoch,
    /// reading every posting list straight off the KB's adjacency.
    ///
    /// Each node's adjacency entries are sorted by `(label, orientation,
    /// other, edge)`, so a node's entries of one label and orientation
    /// form one run, already sorted, and walking the nodes in id order
    /// hands every posting its keys ascending: a node's `Out` run is its
    /// list in the label's forward `by_src`, its `In` run its list in the
    /// forward `by_dst`, and its `Undirected` run its list in the
    /// undirected partition's one posting. One walk counts
    /// every posting's keys and pairs and a second fills arrays
    /// allocated at exactly that size: no rows are bucketed and nothing
    /// is sorted. A directed self-loop is stored once, as an `Out` entry,
    /// so a label with one gets its forward `by_dst` from its `by_src`
    /// pairs, transposed by [`ColumnPosting::build`]. The result equals
    /// postings built with [`ColumnPosting::build`] from the
    /// [`oriented_edge_relation`] rows; a differential test keeps the
    /// two equal.
    pub fn build(kb: &KnowledgeBase) -> EdgeIndex {
        // Per label, the (keys, pairs) of its postings in orientation
        // order, and whether it has a directed self-loop.
        let mut sizes = vec![[(0usize, 0usize); 3]; kb.label_count()];
        let mut looped = vec![false; kb.label_count()];
        for_each_run(kb, |node, run| {
            let (label, orientation) = (run[0].label().index(), run[0].orientation());
            let size = &mut sizes[label][usize::from(orientation.code())];
            *size = (size.0 + 1, size.1 + run.len());
            if orientation == Orientation::Out && run.iter().any(|n| n.other().0 == node) {
                looped[label] = true;
            }
        });
        let mut writers: Vec<[PostingWriter; 3]> = sizes
            .iter()
            .map(|size| size.map(|(keys, pairs)| PostingWriter::with_capacity(keys, pairs)))
            .collect();
        for_each_run(kb, |node, run| {
            let (label, orientation) = (run[0].label().index(), run[0].orientation());
            let writer = &mut writers[label][usize::from(orientation.code())];
            writer.open(node);
            writer.extend(run.iter().map(|n| n.other().0));
        });
        let mut partitions = HashMap::new();
        for (label, [by_src, by_dst, undirected]) in writers.into_iter().enumerate() {
            if !by_src.is_empty() {
                let by_src = by_src.finish();
                let by_dst = if looped[label] {
                    ColumnPosting::build(by_src.lists().flat_map(|(from, tos)| {
                        tos.iter().map(move |&to| (to.into(), from.into()))
                    }))
                } else {
                    by_dst.finish()
                };
                let posting = Arc::new(PartitionPosting { by_src, by_dst: Some(by_dst) });
                partitions.insert((label as u64, dir_code::FORWARD), posting);
            }
            if !undirected.is_empty() {
                let posting = PartitionPosting { by_src: undirected.finish(), by_dst: None };
                partitions.insert((label as u64, dir_code::UNDIRECTED), Arc::new(posting));
            }
        }
        let total_rows = partitions.values().map(|p| p.by_src.len()).sum();
        EdgeIndex { partitions, total_rows, node_count: kb.node_count(), epoch: kb.epoch() }
    }

    /// The KB epoch this index reflects.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies a [`KbDelta`] in place: every `(label, dir)` partition the
    /// delta touches is rebuilt from its own `by_src` rows plus the
    /// delta's additions, less its retractions, and the index's epoch
    /// advanced to `delta.to_epoch`. A partition left without rows is
    /// removed, so the result equals a fresh [`EdgeIndex::build`] of the
    /// updated KB. Errors when the delta does not start at this index's
    /// epoch or retracts a row the index does not hold — both mean the
    /// caller's delta bookkeeping diverged; the index is then left as it
    /// was and a full [`EdgeIndex::build`] is required.
    pub fn apply_delta(&mut self, delta: &KbDelta) -> Result<()> {
        if delta.from_epoch != self.epoch {
            return Err(RelError::DeltaSkew(format!(
                "index at epoch {} cannot apply delta starting at {}",
                self.epoch, delta.from_epoch
            )));
        }
        // Each touched partition's added and retracted `(from, to)` rows.
        type Rows = Vec<(u64, u64)>;
        let mut edits: HashMap<(u64, u64), [Rows; 2]> = HashMap::new();
        for (side, records) in [&delta.added, &delta.removed].into_iter().enumerate() {
            for record in records {
                for [from, to, label, dir] in oriented_rows(record) {
                    edits.entry((label, dir)).or_default()[side].push((from, to));
                }
            }
        }
        // Additions go in before retractions come out: a retraction may
        // target an edge inserted within the same window (rows are a
        // multiset, so which copy is retracted never matters — only that
        // one exists by then). Both sides sorted, one merge pass drops one
        // row per retraction; a retraction it cannot match is left over.
        let mut rebuilt = Vec::with_capacity(edits.len());
        for (key, [added, mut retracted]) in edits {
            let mut rows: Vec<(u64, u64)> =
                self.partitions.get(&key).map(|p| p.rows().collect()).unwrap_or_default();
            rows.extend(added);
            rows.sort_unstable();
            retracted.sort_unstable();
            let mut retract = retracted.into_iter().peekable();
            rows.retain(|row| retract.next_if_eq(row).is_none());
            if let Some((from, to)) = retract.next() {
                return Err(RelError::DeltaSkew(format!(
                    "delta retracts edge ({from}, {to}, label {}) the index does not hold",
                    key.0
                )));
            }
            rebuilt.push((key, PartitionPosting::build(&rows, key.1 == dir_code::UNDIRECTED)));
        }
        // Every untouched partition keeps sharing its `Arc` with older
        // index versions (the copy-on-write half of versioned
        // publication).
        for ((label, dir), posting) in rebuilt {
            self.total_rows = self.total_rows - self.scan_len(label, dir) + posting.by_src.len();
            if posting.by_src.is_empty() {
                self.partitions.remove(&(label, dir));
            } else {
                self.partitions.insert((label, dir), Arc::new(posting));
            }
        }
        self.node_count = delta.node_count;
        self.epoch = delta.to_epoch;
        Ok(())
    }

    /// Builds the **next epoch's** index off to the side: a copy-on-write
    /// clone of this index (O(labels), partitions shared) with `delta`
    /// applied, leaving `self` untouched for in-flight readers. This is
    /// the maintenance half of versioned index publication — the caller
    /// wraps the result in an `Arc` and swaps it into its published slot
    /// in O(1), so no reader ever waits on the delta application.
    pub fn next_epoch(&self, delta: &KbDelta) -> Result<EdgeIndex> {
        let mut next = self.clone();
        next.apply_delta(delta)?;
        Ok(next)
    }

    /// The `from` (`src`) or `to` posting of the `(label, dir)`
    /// partition, borrowed; `None` when the partition does not exist.
    pub(crate) fn endpoint_posting(
        &self,
        label: u64,
        dir: u64,
        src: bool,
    ) -> Option<&ColumnPosting> {
        self.partitions.get(&(label, dir)).map(|p| p.endpoint(src))
    }

    /// Rows of the `(label, dir)` partition incident to `keys` on the
    /// requested endpoint, counted from the posting lists without
    /// materializing anything — the exact selectivity statistic behind
    /// admission pricing ([`EdgeIndex::estimate_starts_rows`]). `keys`
    /// must be sorted (adjacent duplicates are skipped).
    pub fn incident_len(&self, label: u64, dir: u64, src: bool, keys: &[u64]) -> usize {
        let Some(posting) = self.endpoint_posting(label, dir, src) else {
            return 0;
        };
        let mut total = 0;
        let mut last = None;
        for &k in keys {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            total += posting.count(k);
        }
        total
    }

    /// The `(label, dir)` partition, `Arc`-cloned — `None` when the
    /// partition does not exist. Exposed so the COW contract (untouched
    /// partitions are shared across [`EdgeIndex::next_epoch`], touched
    /// ones rebuild) is testable with `Arc::ptr_eq`, and a maintained
    /// partition comparable by value with a fresh build's.
    pub fn posting(&self, label: u64, dir: u64) -> Option<Arc<PartitionPosting>> {
        self.partitions.get(&(label, dir)).cloned()
    }

    /// Aggregate posting statistics (partitions, rows, distinct keys,
    /// heap bytes) — the index build cost `rex stats` reports.
    pub fn posting_stats(&self) -> PostingStats {
        let mut stats = PostingStats::default();
        for posting in self.partitions.values() {
            stats.partitions += 1;
            stats.rows += posting.endpoint(true).len();
            stats.src_keys += posting.endpoint(true).distinct_keys();
            stats.dst_keys += posting.endpoint(false).distinct_keys();
            stats.heap_bytes += posting.heap_bytes();
        }
        stats
    }

    /// Rows in the `(label, dir)` partition — its `by_src` list entries —
    /// the label-cardinality statistic cost-based ordering reads.
    pub fn scan_len(&self, label: u64, dir: u64) -> usize {
        self.endpoint_posting(label, dir, true).map_or(0, ColumnPosting::len)
    }

    /// Total indexed rows (equals the oriented relation's row count).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Entities in the indexed knowledge base (join-selectivity domain).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Distinct values of `e`'s `from` (`src`) or `to` column in its
    /// partition, at least 1: the `V(edge, col)` of a join selectivity.
    pub(crate) fn endpoint_distinct(&self, e: &SpecEdge, src: bool) -> f64 {
        let posting = self.endpoint_posting(e.label, e.dir(), src);
        posting.map_or(1, ColumnPosting::distinct_keys).max(1) as f64
    }

    /// The factor by which joining `e` multiplies an intermediate whose
    /// bound variables are `bound`: the edge's rows divided by `V(edge,
    /// col)` for every already-bound endpoint column, under the
    /// containment assumption (a self-loop edge divides once, by its
    /// larger column). The one join-selectivity formula of the row
    /// estimate and the planner.
    pub(crate) fn join_multiplier(&self, e: &SpecEdge, bound: &[bool]) -> f64 {
        let mut mult = self.scan_len(e.label, e.dir()) as f64;
        if e.u == e.v {
            if bound[e.u] {
                mult /= self.endpoint_distinct(e, true).max(self.endpoint_distinct(e, false));
            }
        } else {
            if bound[e.u] {
                mult /= self.endpoint_distinct(e, true);
            }
            if bound[e.v] {
                mult /= self.endpoint_distinct(e, false);
            }
        }
        mult
    }

    /// System-R estimate of the **unbound** instance relation's row count
    /// for `spec`, with join selectivities read from the endpoint
    /// postings' real distinct-value counts instead of the entity-domain
    /// size. The estimate walks a greedy join order of its own (smallest
    /// partition first, then the smallest connected partition), not the
    /// evaluator's plan, which [`PatternSpec::plan`] orders by
    /// estimated output; each join multiplies by the planner's factor,
    /// the edge's rows divided by `V(edge, col)` — the distinct values of
    /// every already-bound endpoint column, under the containment
    /// assumption.
    ///
    /// The old formula multiplied raw `scan_len` per edge and divided by
    /// the node count once per join, which assumed every join column
    /// ranges uniformly over all entities: selective joins (columns with
    /// nearly-distinct values, fanout ≈ 1) were overestimated by the
    /// `rows / n` factor, and hub joins (few distinct values, huge
    /// fanout) underestimated by the same factor — inverting cost
    /// orderings on skewed labels. Used to order shapes by cost and to
    /// price admission, never for correctness.
    pub fn estimate_instance_rows(&self, spec: &PatternSpec) -> f64 {
        let m = spec.edges.len();
        let mut used = vec![false; m];
        let mut bound = vec![false; spec.var_count];
        let edge_rows = |i: usize| self.scan_len(spec.edges[i].label, spec.edges[i].dir());
        let mut est = 0.0f64;
        for step in 0..m {
            let pick = (0..m)
                .filter(|&i| !used[i])
                .filter(|&i| step == 0 || bound[spec.edges[i].u] || bound[spec.edges[i].v])
                .min_by_key(|&i| (edge_rows(i), i))
                // Disconnected specs never validate; fall back to any
                // remaining edge so the estimate stays total.
                .unwrap_or_else(|| (0..m).find(|&i| !used[i]).expect("step < m"));
            used[pick] = true;
            let e = spec.edges[pick];
            est = if step == 0 {
                edge_rows(pick) as f64
            } else {
                est * self.join_multiplier(&e, &bound)
            };
            bound[e.u] = true;
            bound[e.v] = true;
        }
        est
    }

    /// Estimated evaluation cost of one batched evaluation of `spec`: the
    /// rows of every partition its edges read from plus the estimated
    /// instance rows — a relative weight, not a count of rows any walk
    /// reads (a walk reads only the lists around values already bound).
    /// Used to hand a workload's missed shapes to the ranking pass's
    /// workers cheapest-first.
    pub fn estimate_eval_cost(&self, spec: &PatternSpec) -> u64 {
        let scans: f64 = spec
            .edges
            .iter()
            .map(|e| {
                let dir = e.dir();
                self.scan_len(e.label, dir) as f64
            })
            .sum();
        (scans + self.estimate_instance_rows(spec)).min(u64::MAX as f64) as u64
    }

    /// Estimated join-produced rows of one batched evaluation of `spec`
    /// restricted to `starts` — the **admission-control cost** of a
    /// request: proportional to the rows actually incident to its starts,
    /// not to the KB. Each start is weighted by its **exact** incident
    /// rows on the start variable's anchor edge (its smallest
    /// start-incident partition), read from that edge's endpoint posting,
    /// times the estimated instances per anchor row — at least 1.0, so
    /// the incident rows themselves count even for highly selective
    /// shapes.
    pub fn estimate_starts_rows(&self, spec: &PatternSpec, starts: &[u64]) -> usize {
        let anchor = spec
            .edges
            .iter()
            .filter(|e| e.u == spec.start || e.v == spec.start)
            .min_by_key(|e| self.scan_len(e.label, e.dir()));
        let Some(anchor) = anchor else {
            // No start-incident edge: the start variable is unconstrained,
            // so the whole estimated instance relation is the cost.
            return self.estimate_instance_rows(spec).min(usize::MAX as f64) as usize;
        };
        let (label, dir) = (anchor.label, anchor.dir());
        let mut sorted: Vec<u64> = starts.to_vec();
        sorted.sort_unstable();
        let rows = self.incident_len(label, dir, anchor.u == spec.start, &sorted);
        let anchor_rows = self.scan_len(label, dir).max(1) as f64;
        let per_row = (self.estimate_instance_rows(spec) / anchor_rows).max(1.0);
        (rows as f64 * per_row).min(usize::MAX as f64) as usize
    }
}

/// Calls `visit(node, run)` for every node in id order and each run of
/// its adjacency entries that share a label and an orientation, in
/// adjacency order.
fn for_each_run(kb: &KnowledgeBase, mut visit: impl FnMut(u32, &[Neighbor])) {
    for node in kb.node_ids() {
        let runs = kb
            .neighbors(node)
            .chunk_by(|a, b| (a.label(), a.orientation()) == (b.label(), b.orientation()));
        runs.for_each(|run| visit(node.0, run));
    }
}

/// Compatibility shim: start-hash shard specs are retired. Every
/// [`count_distributions`] call walks its starts inline over one
/// [`EdgeIndex`], so a spec carries nothing; it remains only so code
/// written against the sharded API still compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec;

impl ShardSpec {
    /// Ignores both arguments.
    pub fn new(_shards: usize, _seed: u64) -> ShardSpec {
        ShardSpec
    }
}

/// Compatibility shim for the retired sharded index: only its
/// [`ShardedEdgeIndex::build`] remains, and it builds the one
/// [`EdgeIndex`].
#[derive(Debug)]
pub enum ShardedEdgeIndex {}

impl ShardedEdgeIndex {
    /// [`EdgeIndex::build`]; the spec is ignored.
    pub fn build(kb: &KnowledgeBase, _spec: ShardSpec) -> EdgeIndex {
        EdgeIndex::build(kb)
    }
}

/// Materializes the knowledge base's *oriented* edge relation
/// `R(from, to, label, dir)`:
///
/// * each **directed** KB edge `s → d` contributes one row
///   `(s, d, label, FORWARD)`;
/// * each **undirected** KB edge `{a, b}` contributes two rows
///   `(a, b, label, UNDIRECTED)` and `(b, a, label, UNDIRECTED)`, so an
///   undirected pattern edge can be traversed in either orientation by a
///   plain equi-join.
///
/// This is the analogue of the paper's `R(eid1, eid2, rel)` table.
pub fn oriented_edge_relation(kb: &KnowledgeBase) -> Relation {
    let mut data = Vec::with_capacity(kb.edge_count() * 4);
    for eid in kb.edge_ids() {
        for row in oriented_rows(&kb.edge(eid)) {
            data.extend_from_slice(&row);
        }
    }
    let schema = Schema::new(["from", "to", "label", "dir"]);
    Relation::from_flat(schema, data).expect("oriented rows have arity 4")
}

/// The oriented rows one KB edge contributes to the edge relation: one
/// `FORWARD` row for a directed edge; both orientations (one for a
/// self-loop) for an undirected edge. Shared by
/// [`oriented_edge_relation`] and delta application; [`EdgeIndex::build`]
/// reads the KB's adjacency instead, and a differential test holds its
/// postings equal to ones built from these rows.
fn oriented_rows(e: &EdgeRecord) -> impl Iterator<Item = [u64; 4]> {
    let (s, d, l) = (e.src.0 as u64, e.dst.0 as u64, e.label.0 as u64);
    let (dir, count) = match (e.directed, s == d) {
        (true, _) => (dir_code::FORWARD, 1),
        (false, true) => (dir_code::UNDIRECTED, 1),
        (false, false) => (dir_code::UNDIRECTED, 2),
    };
    [[s, d, l, dir], [d, s, l, dir]].into_iter().take(count)
}

/// The starts whose grouped `(start, end)` counts for `spec` **may**
/// change under `delta` — a sound over-approximation, or `None` when the
/// shape is provably unaffected (its label set is disjoint from the
/// delta's touched labels).
///
/// A delta edge inside an instance occupies a pattern-edge position
/// **with its own label**, so its distance to the instance's start node
/// is bounded by the label's worst pattern-distance from the start
/// variable — usually far less than the pattern size. Concretely: walk
/// the image of a shortest pattern path from the start to the occupied
/// position; on a shortest path, the *first* delta edge along it sits at
/// prefix length equal to its own position's distance, so the prefix
/// (which uses only surviving, shape-labeled edges present in the
/// post-update KB) is within that delta edge's **per-label budget**
/// `max over pattern edges with the label of min(dist(start, u),
/// dist(start, v))`. The budgeted multi-source BFS below therefore
/// discovers every start whose distribution can change, for insertions
/// and removals alike (removed edges need no special casing: their
/// endpoints seed the search too).
///
/// The tight per-label budgets are what keep the blast radius local on
/// small-world KBs: a delta label that only occurs on start-incident
/// pattern edges has budget 0, so only the delta endpoints themselves
/// are affected candidates.
pub fn delta_affected_starts(
    kb: &KnowledgeBase,
    spec: &PatternSpec,
    delta: &KbDelta,
) -> Option<Vec<u64>> {
    let shape_labels: HashSet<u64> = spec.edges.iter().map(|e| e.label).collect();
    if !delta.touched_labels().iter().any(|l| shape_labels.contains(&(l.0 as u64))) {
        return None;
    }
    // Pattern-graph distances of every variable from the start variable
    // (patterns are connected: validate() guarantees it).
    let mut dist = vec![usize::MAX; spec.var_count];
    dist[spec.start] = 0;
    let mut frontier = vec![spec.start];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for e in &spec.edges {
                for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                    if a == v && dist[b] == usize::MAX {
                        dist[b] = dist[v] + 1;
                        next.push(b);
                    }
                }
            }
        }
        frontier = next;
    }
    // Per-label budget: the worst distance from the start variable to a
    // pattern edge carrying the label (closest endpoint).
    let mut label_budget: HashMap<u64, usize> = HashMap::new();
    for e in &spec.edges {
        // The clamp only matters for malformed (disconnected) specs,
        // where unreachable variables sit at usize::MAX.
        let d = dist[e.u].min(dist[e.v]).min(spec.edges.len());
        let slot = label_budget.entry(e.label).or_insert(0);
        *slot = (*slot).max(d);
    }
    // Budgeted multi-source BFS from the delta endpoints, each seeded
    // with its label's budget, traversing shape-labeled edges only.
    let mut best: HashMap<NodeId, usize> = HashMap::new();
    let mut queue: Vec<(NodeId, usize)> = Vec::new();
    for record in delta.added.iter().chain(&delta.removed) {
        let Some(&budget) = label_budget.get(&(record.label.0 as u64)) else {
            continue;
        };
        for node in [record.src, record.dst] {
            let slot = best.entry(node).or_insert(usize::MAX);
            if *slot == usize::MAX || budget > *slot {
                *slot = budget;
                queue.push((node, budget));
            }
        }
    }
    while let Some((node, remaining)) = queue.pop() {
        if best.get(&node).copied().unwrap_or(0) > remaining {
            continue; // superseded by a larger budget
        }
        if remaining == 0 {
            continue;
        }
        for &label in &shape_labels {
            for n in kb.neighbors_labeled(node, LabelId(label as u32)) {
                let slot = best.entry(n.other()).or_insert(usize::MAX);
                if *slot == usize::MAX || remaining - 1 > *slot {
                    *slot = remaining - 1;
                    queue.push((n.other(), remaining - 1));
                }
            }
        }
    }
    let mut starts: Vec<u64> = best.into_keys().map(|n| n.0 as u64).collect();
    starts.sort_unstable();
    Some(starts)
}

/// The local count distribution of a pattern for a fixed start entity:
/// for every end entity `y` with at least one instance, the number of
/// distinct instances of the pattern between `start` and `y`.
///
/// Equivalent to the paper's
/// `SELECT v_start, end, count(*) ... GROUP BY v_start, end`.
pub fn local_count_distribution(
    edge_rel: &Relation,
    spec: &PatternSpec,
    start: u64,
) -> Result<HashMap<u64, u64>> {
    let instances = spec.evaluate(edge_rel, Some(start))?;
    let end_col = spec.end;
    let grouped = group_count_having_limit(&instances, &[end_col], 0, usize::MAX)?;
    Ok(grouped.rows().map(|r| (r[0], r[1])).collect())
}

/// [`local_count_distribution`] over a prebuilt [`EdgeIndex`]: one
/// start-bound evaluation, kept as the per-start reference the batched
/// [`count_distributions`] is checked against.
pub fn local_count_distribution_indexed(
    index: &EdgeIndex,
    spec: &PatternSpec,
    start: u64,
) -> Result<HashMap<u64, u64>> {
    let (instances, _) = spec.evaluate_indexed(index, &StartBinding::Const(start))?;
    let grouped = group_count_having_limit(&instances, &[spec.end], 0, usize::MAX)?;
    Ok(grouped.rows().map(|r| (r[0], r[1])).collect())
}

/// The result of a batched evaluation ([`count_distributions`]): the
/// per-start descending count multisets, the starts evaluated, and the
/// evaluation's trace — its row traffic and peak bindings.
#[derive(Debug, Clone, Default)]
pub struct BatchDistributions {
    /// For every evaluated start with at least one instance, the
    /// descending multiset of per-end instance counts (starts without
    /// instances are absent: their distribution is empty).
    pub per_start: HashMap<u64, Vec<u64>>,
    /// The distinct requested starts the evaluation covered, ascending:
    /// every one of them, unless [`EvalRequest::after_start`] stopped it.
    pub evaluated: Vec<u64>,
    /// The traffic of this evaluation alone.
    pub trace: EvalTrace,
}

/// How a [`count_distributions`] call is accounted in its
/// [`EvalTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvalKind {
    /// A whole batch: one full evaluation.
    #[default]
    Full,
    /// A delta-maintenance patch over the starts a [`KbDelta`] may have
    /// affected ([`delta_affected_starts`]): one *partial* evaluation.
    /// The point of incremental maintenance is that these touch a
    /// fraction of the start domain — and, with the endpoint postings,
    /// only the rows *incident* to that fraction.
    Delta,
}

/// Decides after each start of a [`count_distributions`] call whether
/// the evaluation goes on: it gets the start and its descending multiset
/// (empty when the start has no instances) and returns `false` to stop.
pub type AfterStart<'a> = &'a (dyn Fn(u64, &[u64]) -> bool + Sync);

/// One batched distribution request: which starts to group, how to
/// account the evaluation, and when to give up or stop.
#[derive(Default)]
pub struct EvalRequest<'a> {
    /// The start entities (any order; duplicates are ignored). Ids with
    /// no incident rows — or outside the KB — simply produce no entry.
    pub starts: &'a [u64],
    /// Full or delta accounting.
    pub kind: EvalKind,
    /// Checked before every start; the walk's growth in peak rows is
    /// charged against its row pool after each start. Unlimited by
    /// default.
    pub budget: Budget,
    /// Called after each start, in ascending start order; once it
    /// returns `false` no further start is evaluated, and the result
    /// holds the starts evaluated so far. A stop is not an abort: the
    /// result is returned and folded like any other. `None` evaluates
    /// every start.
    pub after_start: Option<AfterStart<'a>>,
}

impl std::fmt::Debug for EvalRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalRequest")
            .field("starts", &self.starts)
            .field("kind", &self.kind)
            .field("budget", &self.budget)
            .field("after_start", &self.after_start.is_some())
            .finish()
    }
}

/// The batched distribution query (§5.3.2's amortization): evaluates
/// `spec` with the start variable restricted to `req.starts`, grouped by
/// `(start, end)`, producing for every start the descending multiset of
/// per-end instance counts — exactly
/// `local_count_distribution_indexed(s).values()` sorted descending. One
/// call plans once for all its starts and walks them in one depth-first
/// walk on the calling thread, which counts each start's instances per
/// end in place instead of materializing them; each start's ends
/// accumulate in one dense per-end array.
///
/// Budget: checked before **every start**, so an expired deadline, a
/// tripped cancellation token or an exhausted row pool stops the
/// evaluation with [`RelError::Aborted`] after at most one more start.
/// An aborted evaluation returns no partial result.
///
/// Stopping: the starts are evaluated in ascending order, and
/// [`EvalRequest::after_start`] sees each one as it completes. Once it
/// returns `false` the walk stops and the result holds exactly the
/// starts evaluated so far ([`BatchDistributions::evaluated`]).
///
/// Trace: the returned [`EvalTrace`] counts one full or delta evaluation
/// (per `req.kind`), one tile (the walk), and the rows the walk read. A
/// completed or stopped call folds the trace into
/// [`crate::metrics::snapshot`]'s totals; an aborted one folds nothing.
/// An empty start set is a no-op, not an evaluation.
pub fn count_distributions(
    index: &EdgeIndex,
    spec: &PatternSpec,
    req: &EvalRequest<'_>,
) -> Result<BatchDistributions> {
    spec.validate()?;
    let mut values: Vec<u64> = req.starts.to_vec();
    values.sort_unstable();
    values.dedup();
    if values.is_empty() {
        return Ok(BatchDistributions::default());
    }
    let mut ends = EndCounts::new(index.node_count(), spec.end, req.after_start);
    let binding = StartBinding::Among(values);
    let mut trace = spec.walk_starts(index, &binding, &req.budget, true, &mut ends)?;
    trace.tiles = 1;
    match req.kind {
        EvalKind::Full => trace.full = 1,
        EvalKind::Delta => trace.delta = 1,
    }
    crate::metrics::fold(&trace);
    Ok(BatchDistributions { per_start: ends.per_start, evaluated: ends.evaluated, trace })
}

/// The `(start, end)` group-by of a walk: the current start's instance
/// count per end entity in a dense array over the entity ids, reused for
/// every start — only the ends a start touched are read back and reset.
/// Each finished start's multiset is sorted descending and shown to the
/// request's [`EvalRequest::after_start`], which may stop the walk.
struct EndCounts<'a> {
    end: usize,
    counts: Vec<u64>,
    touched: Vec<usize>,
    per_start: HashMap<u64, Vec<u64>>,
    evaluated: Vec<u64>,
    after_start: Option<AfterStart<'a>>,
}

impl<'a> EndCounts<'a> {
    fn new(node_count: usize, end: usize, after_start: Option<AfterStart<'a>>) -> EndCounts<'a> {
        EndCounts {
            end,
            counts: vec![0; node_count],
            touched: Vec::new(),
            per_start: HashMap::new(),
            evaluated: Vec::new(),
            after_start,
        }
    }
}

impl Sink for EndCounts<'_> {
    fn emit(&mut self, assignment: &[u64], n: u64) -> bool {
        let end = assignment[self.end] as usize;
        if end >= self.counts.len() {
            self.counts.resize(end + 1, 0);
        }
        if self.counts[end] == 0 {
            self.touched.push(end);
        }
        self.counts[end] += n;
        true
    }

    fn start_done(&mut self, start: u64) -> bool {
        self.evaluated.push(start);
        // Sized exactly: the cache holds these vectors as they are.
        let mut counts: Vec<u64> =
            self.touched.drain(..).map(|end| std::mem::take(&mut self.counts[end])).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let go_on = self.after_start.is_none_or(|go_on| go_on(start, &counts));
        if !counts.is_empty() {
            self.per_start.insert(start, counts);
        }
        go_on
    }
}

/// Counts the end entities whose **distinct** instance count strictly
/// exceeds `c` — the pattern's *position* in `start`'s local distribution
/// (`HAVING count > c`) — over a prebuilt [`EdgeIndex`], returned with the
/// query's trace: one streaming evaluation and the neighbour-list rows it
/// read. `limit` bounds the answer, which saturates at `limit`: the walk
/// stops as soon as `limit` qualifying end entities are known — the
/// pipelined `LIMIT` execution a SQL engine performs, and the heart of the
/// paper's `LIMIT p` pruning (§5.3.2). `usize::MAX` bounds nothing.
///
/// The walk counts a trailing existential instead of enumerating it, and
/// hands each end its instances as they are found. Counting per end
/// entity is monotone (distinct assignments only accumulate), so an
/// entity qualifies the moment its count crosses `c` — no grouping
/// barrier is needed.
pub fn local_position_indexed(
    index: &EdgeIndex,
    spec: &PatternSpec,
    start: u64,
    c: u64,
    limit: usize,
) -> Result<(usize, EvalTrace)> {
    spec.validate()?;
    if limit == 0 {
        return Ok((0, EvalTrace::default()));
    }
    let mut per_end: HashMap<u64, u64> = HashMap::new();
    let mut qualified = 0usize;
    let mut count = |assignment: &[u64], n: u64| {
        let count = per_end.entry(assignment[spec.end]).or_insert(0);
        if *count <= c && *count + n > c {
            qualified += 1;
        }
        *count += n;
        qualified < limit
    };
    let binding = StartBinding::Const(start);
    let walked = spec.walk_starts(index, &binding, &Budget::unlimited(), true, &mut count)?;
    let trace = EvalTrace { streaming: 1, ..walked };
    crate::metrics::fold(&trace);
    Ok((qualified, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SpecEdge;
    use rex_kb::{toy, KbBuilder};

    /// [`count_distributions`] of `starts`.
    fn grouped(
        index: &EdgeIndex,
        spec: &PatternSpec,
        starts: &[u64],
    ) -> Result<BatchDistributions> {
        count_distributions(index, spec, &EvalRequest { starts, ..Default::default() })
    }

    /// Every entity's distribution: `spec` grouped over all of `index`'s
    /// entities as starts.
    fn all_distributions(index: &EdgeIndex, spec: &PatternSpec) -> HashMap<u64, Vec<u64>> {
        let all: Vec<u64> = (0..index.node_count() as u64).collect();
        grouped(index, spec, &all).unwrap().per_start
    }

    #[test]
    fn oriented_relation_row_counts() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        let c = b.add_node("c", "P");
        b.add_directed_edge(a, c, "r").unwrap();
        b.add_undirected_edge(a, c, "s").unwrap();
        let kb = b.build();
        let rel = oriented_edge_relation(&kb);
        // 1 row for the directed edge + 2 for the undirected one.
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn undirected_self_loop_single_row() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        b.add_undirected_edge(a, a, "s").unwrap();
        let kb = b.build();
        assert_eq!(oriented_edge_relation(&kb).len(), 1);
    }

    #[test]
    fn costar_distribution_on_toy_kb() {
        let kb = toy::entertainment();
        let rel = oriented_edge_relation(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        };
        let bp = kb.require_node("brad_pitt").unwrap().0 as u64;
        let dist = local_count_distribution(&rel, &spec, bp).unwrap();
        // Brad co-stars with Angelina (1 movie: Mr & Mrs Smith), Tom Cruise
        // (Interview with the Vampire), Julia Roberts (Ocean's Eleven + The
        // Mexican = 2), George Clooney (1)... and himself through each of
        // his own movies.
        let aj = kb.require_node("angelina_jolie").unwrap().0 as u64;
        let jr = kb.require_node("julia_roberts").unwrap().0 as u64;
        let tc = kb.require_node("tom_cruise").unwrap().0 as u64;
        assert_eq!(dist.get(&aj), Some(&1));
        assert_eq!(dist.get(&jr), Some(&2));
        assert_eq!(dist.get(&tc), Some(&1));
        let index = EdgeIndex::build(&kb);
        let position = |c, limit| local_position_indexed(&index, &spec, bp, c, limit).unwrap().0;
        // Position of count=1: entities with count > 1 — only Julia (2).
        assert_eq!(position(1, usize::MAX), 1);
        // Position of Julia's count=2: nobody beats it.
        assert_eq!(position(2, usize::MAX), 0);
        // LIMIT saturates.
        assert_eq!(position(0, 2), 2);
    }

    /// Batched all-starts distributions must agree with per-start grouped
    /// queries for every entity in the KB — unbound and sample-restricted.
    #[test]
    fn batched_distributions_match_per_start() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let costar = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        };
        let spousal = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: spouse, directed: false }],
        };
        for spec in [&costar, &spousal] {
            let batched = all_distributions(&index, spec);
            for node in 0..kb.node_count() as u64 {
                let per_start = local_count_distribution_indexed(&index, spec, node).unwrap();
                let mut expected: Vec<u64> = per_start.into_values().collect();
                expected.sort_unstable_by(|a, b| b.cmp(a));
                match batched.get(&node) {
                    Some(counts) => assert_eq!(counts, &expected, "start {node}"),
                    None => assert!(expected.is_empty(), "start {node}"),
                }
            }
        }
    }

    /// A sample-restricted batch covers exactly the requested starts and
    /// matches the unbound batch on them.
    #[test]
    fn among_restricted_batch_matches_unbound() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        };
        let full = all_distributions(&index, &spec);
        let sample: Vec<u64> = (0..kb.node_count() as u64).step_by(2).collect();
        let restricted = grouped(&index, &spec, &sample).unwrap().per_start;
        // No start outside the sample appears.
        assert!(restricted.keys().all(|s| sample.contains(s)));
        // Sampled starts agree with the unbound evaluation.
        for s in &sample {
            assert_eq!(restricted.get(s), full.get(s), "start {s}");
        }
    }

    /// A check that stops after the `n`-th start leaves exactly the first
    /// `n` distinct starts evaluated, in ascending order, each with the
    /// multiset a whole evaluation gives it. The check sees every start
    /// it lets pass, with its multiset.
    #[test]
    fn after_start_stops_after_any_start() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        };
        // Descending and repeated, so the evaluation sorts and dedups.
        let starts: Vec<u64> = (0..kb.node_count() as u64).rev().chain([3, 3]).collect();
        let mut distinct = starts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let whole = grouped(&index, &spec, &starts).unwrap();
        assert_eq!(whole.evaluated, distinct);
        for n in 1..=distinct.len() {
            let seen = std::sync::Mutex::new(Vec::new());
            let check = |start: u64, counts: &[u64]| {
                let expected = whole.per_start.get(&start).map_or(&[][..], Vec::as_slice);
                assert_eq!(counts, expected, "start {start}");
                let mut seen = seen.lock().unwrap();
                seen.push(start);
                seen.len() < n
            };
            let req =
                EvalRequest { starts: &starts, after_start: Some(&check), ..Default::default() };
            let stopped = count_distributions(&index, &spec, &req).unwrap();
            assert_eq!(stopped.evaluated, &distinct[..n], "n = {n}");
            assert_eq!(*seen.lock().unwrap(), stopped.evaluated);
            let kept: HashMap<u64, Vec<u64>> = whole
                .per_start
                .iter()
                .filter(|(s, _)| distinct[..n].contains(s))
                .map(|(&s, c)| (s, c.clone()))
                .collect();
            assert_eq!(stopped.per_start, kept, "n = {n}");
            assert_eq!((stopped.trace.full, stopped.trace.tiles), (1, 1));
        }
    }

    /// The budget is checked before every start: a token tripped after
    /// the `n`-th start aborts the walk before the next one, and a
    /// one-row pool, charged by the first start that binds a movie,
    /// aborts it at the start after that.
    #[test]
    fn budget_is_checked_before_every_start() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        };
        let starts: Vec<u64> = (0..kb.node_count() as u64).collect();
        let aborted = |req: &EvalRequest<'_>| match count_distributions(&index, &spec, req) {
            Err(RelError::Aborted(reason)) => reason,
            other => panic!("expected an abort, got {other:?}"),
        };
        for n in 1..starts.len() {
            let token = crate::budget::CancelToken::new();
            let seen = std::sync::atomic::AtomicUsize::new(0);
            let trip = |_: u64, _: &[u64]| {
                if seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1 == n {
                    token.cancel();
                }
                true
            };
            let req = EvalRequest {
                starts: &starts,
                budget: Budget::unlimited().with_cancel(token.clone()),
                after_start: Some(&trip),
                ..Default::default()
            };
            assert_eq!(aborted(&req), crate::budget::AbortReason::Cancelled);
            assert_eq!(seen.into_inner(), n, "no start runs past the cancel");
        }
        let first = starts
            .iter()
            .position(|&s| index.incident_len(starring, dir_code::FORWARD, true, &[s]) > 0)
            .expect("someone stars in a movie");
        let seen = std::sync::Mutex::new(Vec::new());
        let record = |start: u64, _: &[u64]| {
            seen.lock().unwrap().push(start);
            true
        };
        let budget = Budget::unlimited().with_row_budget(1);
        let req = EvalRequest {
            starts: &starts,
            budget,
            after_start: Some(&record),
            ..Default::default()
        };
        assert_eq!(aborted(&req), crate::budget::AbortReason::RowBudgetExhausted);
        assert_eq!(req.budget.remaining_rows(), Some(0));
        assert_eq!(seen.into_inner().unwrap(), starts[..=first]);
    }

    /// An empty start set is a no-op: no evaluation, no tiles, empty map.
    #[test]
    fn tiled_batch_with_no_starts_is_a_noop() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: starring, directed: true }],
        };
        let out = grouped(&index, &spec, &[]).unwrap();
        assert!(out.per_start.is_empty());
        assert_eq!(out.trace.tiles, 0);
        assert_eq!(out.trace.peak_rows, 0);
        // Invalid specs still error, even with no starts.
        let bad = PatternSpec { var_count: 2, start: 0, end: 0, edges: vec![] };
        assert!(grouped(&index, &bad, &[]).is_err());
    }

    /// A delta-refreshed index is indistinguishable from one rebuilt from
    /// scratch: an equal index, the same distribution answers —
    /// including undirected edges (two oriented rows), self-loops (one),
    /// parallel edges, the add-then-remove no-op, and a partition whose
    /// last row is retracted (`won`, which then no longer exists).
    #[test]
    fn apply_delta_matches_rebuild() {
        let mut kb = toy::entertainment();
        let mut index = EdgeIndex::build(&kb);
        assert_eq!(index.epoch(), 0);
        let epoch0 = kb.epoch();

        let bp = kb.require_node("brad_pitt").unwrap();
        let aj = kb.require_node("angelina_jolie").unwrap();
        let jr = kb.require_node("julia_roberts").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let spouse = kb.label_by_name("spouse").unwrap();
        // Mixed churn: directed insert (parallel to nothing), undirected
        // insert, undirected remove, an add-then-remove wash, and every
        // `won` edge removed.
        let m = kb.require_node("oceans_eleven").unwrap();
        kb.insert_edge(aj, m, starring, true).unwrap();
        kb.insert_edge(bp, jr, spouse, false).unwrap();
        let old_spouse = kb.find_edge(bp, aj, spouse, false).unwrap();
        kb.remove_edge(old_spouse).unwrap();
        let wash = kb.insert_edge(jr, m, starring, true).unwrap();
        kb.remove_edge(wash).unwrap();
        let won = kb.label_by_name("won").unwrap();
        let won_edges: Vec<_> = kb.edge_ids().filter(|&e| kb.edge(e).label == won).collect();
        // Highest id first: a removal renumbers only the last edge.
        for e in won_edges.into_iter().rev() {
            kb.remove_edge(e).unwrap();
        }

        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index.apply_delta(&delta).unwrap();
        assert_eq!(index.epoch(), kb.epoch());

        let rebuilt = EdgeIndex::build(&kb);
        assert_eq!(index.posting(won.0 as u64, dir_code::FORWARD), None);
        assert_eq!(index, rebuilt);
        // The undirected partition, maintained or built, holds one posting
        // and serves both endpoints from it.
        for idx in [&index, &rebuilt] {
            let spouses = idx.posting(spouse.0 as u64, dir_code::UNDIRECTED).unwrap();
            assert!(std::ptr::eq(spouses.endpoint(true), spouses.endpoint(false)));
            assert_eq!(spouses.heap_bytes(), spouses.endpoint(true).heap_bytes());
            let stars = idx.posting(starring.0 as u64, dir_code::FORWARD).unwrap();
            assert!(!std::ptr::eq(stars.endpoint(true), stars.endpoint(false)));
        }
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring.0 as u64, directed: true },
                SpecEdge { u: 1, v: 2, label: starring.0 as u64, directed: true },
            ],
        };
        let a = all_distributions(&index, &spec);
        let b = all_distributions(&rebuilt, &spec);
        assert_eq!(a, b);
    }

    /// `next_epoch` builds the updated index off to the side: the source
    /// index keeps serving the old epoch unchanged (copy-on-write), and
    /// the result equals an in-place application.
    #[test]
    fn next_epoch_leaves_current_readers_untouched() {
        let mut kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let rows_before = index.total_rows();
        let epoch0 = kb.epoch();
        let bp = kb.require_node("brad_pitt").unwrap();
        let m = kb.require_node("oceans_eleven").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(bp, m, starring, true).unwrap();
        let old_spouse = {
            let aj = kb.require_node("angelina_jolie").unwrap();
            let spouse = kb.label_by_name("spouse").unwrap();
            kb.find_edge(bp, aj, spouse, false).unwrap()
        };
        kb.remove_edge(old_spouse).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();

        let next = index.next_epoch(&delta).unwrap();
        // The old version is bitwise-unchanged: same epoch, same rows.
        assert_eq!(index.epoch(), epoch0);
        assert_eq!(index.total_rows(), rows_before);
        // The new version equals a fresh build.
        assert_eq!(next.epoch(), kb.epoch());
        assert_eq!(next, EdgeIndex::build(&kb));
        // Untouched partitions are shared, not copied: a label the delta
        // never mentions is the same partition in both versions.
        let untouched = kb.label_by_name("directed_by").unwrap().0 as u64;
        let old = index.posting(untouched, dir_code::FORWARD).unwrap();
        assert!(Arc::ptr_eq(&old, &next.posting(untouched, dir_code::FORWARD).unwrap()));
    }

    /// Skewed deltas fail loudly and leave the index as it was.
    #[test]
    fn apply_delta_rejects_skew() {
        let mut kb = toy::entertainment();
        let mut index = EdgeIndex::build(&kb);
        let bp = kb.require_node("brad_pitt").unwrap();
        let aj = kb.require_node("angelina_jolie").unwrap();
        let spouse = kb.label_by_name("spouse").unwrap();
        kb.insert_edge(bp, aj, spouse, false).unwrap();
        // Wrong starting epoch.
        let mut shifted = kb.delta_since(0).into_delta().unwrap();
        shifted.from_epoch = 7;
        assert!(matches!(index.apply_delta(&shifted), Err(crate::RelError::DeltaSkew(_))));
        // Retraction of an edge the index never held.
        let phantom = kb.delta_since(0).into_delta().unwrap();
        let bogus = rex_kb::KbDelta {
            from_epoch: 0,
            to_epoch: 1,
            added: vec![],
            removed: phantom.added.clone(),
            node_count: kb.node_count(),
        };
        let mut fresh = EdgeIndex::build(&rex_kb::KbBuilder::new().build());
        assert!(matches!(fresh.apply_delta(&bogus), Err(crate::RelError::DeltaSkew(_))));
        // A retraction the index cannot match fails the whole delta, its
        // additions included.
        let before = index.clone();
        let phantom_edge = EdgeRecord { src: aj, dst: aj, label: spouse, directed: true };
        let half = rex_kb::KbDelta { removed: vec![phantom_edge], ..phantom.clone() };
        assert!(matches!(index.apply_delta(&half), Err(crate::RelError::DeltaSkew(_))));
        assert_eq!(index, before);
        // The good delta applies cleanly.
        index.apply_delta(&phantom).unwrap();
        assert_eq!(index.epoch(), kb.epoch());
    }

    /// The affected-start over-approximation: label-disjoint shapes are
    /// `None`; otherwise every start whose distribution actually changed
    /// is in the returned set.
    #[test]
    fn affected_starts_cover_every_changed_distribution() {
        let mut kb = toy::entertainment();
        let index_before = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap();
        let spouse = kb.label_by_name("spouse").unwrap();
        let costar = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring.0 as u64, directed: true },
                SpecEdge { u: 1, v: 2, label: starring.0 as u64, directed: true },
            ],
        };
        let spousal = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: spouse.0 as u64, directed: false }],
        };
        let epoch0 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let m = kb.require_node("fight_club").unwrap();
        kb.insert_edge(jr, m, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        let index_after = {
            let mut i = index_before.clone();
            i.apply_delta(&delta).unwrap();
            i
        };
        // Spousal shape: label-disjoint, provably unaffected.
        assert_eq!(delta_affected_starts(&kb, &spousal, &delta), None);
        // Costar shape: every changed start is covered.
        let affected = delta_affected_starts(&kb, &costar, &delta).unwrap();
        let before = all_distributions(&index_before, &costar);
        let after = all_distributions(&index_after, &costar);
        let mut changed = 0;
        for node in 0..kb.node_count() as u64 {
            if before.get(&node) != after.get(&node) {
                changed += 1;
                assert!(affected.contains(&node), "changed start {node} not in affected set");
            }
        }
        assert!(changed > 0, "the insert must change some distribution");

        // The delta-evaluation path recomputes exactly the affected
        // starts, accounted as a partial (not full) evaluation.
        let req = EvalRequest { starts: &affected, kind: EvalKind::Delta, ..Default::default() };
        let partial = count_distributions(&index_after, &costar, &req).unwrap();
        assert_eq!((partial.trace.delta, partial.trace.full), (1, 0));
        for s in &affected {
            assert_eq!(partial.per_start.get(s), after.get(s), "start {s}");
        }
    }

    /// Each key's neighbour list holds exactly the other endpoints of the
    /// rows a filter of the oriented edge relation keeps, ascending, for
    /// both endpoints, including absent keys and keys outside the KB's id
    /// space.
    #[test]
    fn probe_matches_filtered_scan() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let rel = oriented_edge_relation(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let keys = [0u64, 2, 5, 500];
        for (label, dir) in
            [(starring, dir_code::FORWARD), (spouse, dir_code::UNDIRECTED), (starring, 99)]
        {
            let partition = index.posting(label, dir);
            for src in [true, false] {
                let col = usize::from(!src); // from = 0, to = 1
                let listed = |key: u64| -> Vec<u64> {
                    let list =
                        partition.as_ref().map_or(&[][..], |p| p.endpoint(src).neighbours(key));
                    list.iter().map(|&id| u64::from(id)).collect()
                };
                let mut read = 0;
                for &key in &keys {
                    let mut expected: Vec<u64> = rel
                        .rows()
                        .filter(|r| r[2..] == [label, dir] && r[col] == key)
                        .map(|r| r[1 - col])
                        .collect();
                    expected.sort_unstable();
                    let got = listed(key);
                    assert_eq!(got, expected, "label {label} dir {dir} src {src} key {key}");
                    read += got.len();
                }
                assert_eq!(
                    index.incident_len(label, dir, src, &keys),
                    read,
                    "incident_len must equal the listed row count"
                );
                // Duplicate keys must not duplicate rows.
                assert_eq!(index.incident_len(label, dir, src, &[2, 2, 2]), listed(2).len());
            }
            let partition_rows = rel.rows().filter(|r| r[2..] == [label, dir]).count();
            assert_eq!(index.scan_len(label, dir), partition_rows);
        }
    }

    /// Partitions are multisets: retracting one of two parallel copies of
    /// an edge leaves the other in both adjacency lists.
    #[test]
    fn retraction_removes_one_parallel_copy() {
        let mut kb = toy::entertainment();
        let bp = kb.require_node("brad_pitt").unwrap();
        let aj = kb.require_node("angelina_jolie").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        let copies = [(); 2].map(|_| kb.insert_edge(bp, aj, starring, true).unwrap());
        let mut index = EdgeIndex::build(&kb);
        let copies_of = |index: &EdgeIndex| {
            let partition = index.posting(starring.0 as u64, dir_code::FORWARD).unwrap();
            let count = |src: bool, key: NodeId, other: NodeId| {
                let list = partition.endpoint(src).neighbours(key.0 as u64);
                list.iter().filter(|&&id| id == other.0).count()
            };
            (count(true, bp, aj), count(false, aj, bp))
        };
        assert_eq!(copies_of(&index), (2, 2));
        let epoch0 = kb.epoch();
        kb.remove_edge(copies[0]).unwrap();
        index.apply_delta(&kb.delta_since(epoch0).into_delta().unwrap()).unwrap();
        assert_eq!(copies_of(&index), (1, 1));
        assert_eq!(index, EdgeIndex::build(&kb));
    }

    /// The COW contract extends to the postings: `next_epoch` rebuilds
    /// posting lists only for delta-touched partitions; untouched ones
    /// share the same `Arc` with the old version.
    #[test]
    fn next_epoch_rebuilds_only_touched_postings() {
        let mut kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let epoch0 = kb.epoch();
        let bp = kb.require_node("brad_pitt").unwrap();
        let m = kb.require_node("oceans_eleven").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(bp, m, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        let next = index.next_epoch(&delta).unwrap();

        let starring = starring.0 as u64;
        let untouched = kb.label_by_name("directed_by").unwrap().0 as u64;
        let old_touched = index.posting(starring, dir_code::FORWARD).unwrap();
        let new_touched = next.posting(starring, dir_code::FORWARD).unwrap();
        assert!(!Arc::ptr_eq(&old_touched, &new_touched), "touched partition must rebuild");
        let old_shared = index.posting(untouched, dir_code::FORWARD).unwrap();
        let new_shared = next.posting(untouched, dir_code::FORWARD).unwrap();
        assert!(Arc::ptr_eq(&old_shared, &new_shared), "untouched partition must share");
        // The rebuilt posting reflects the new row: bp gained an edge.
        assert_eq!(
            new_touched.endpoint(true).count(bp.0 as u64),
            old_touched.endpoint(true).count(bp.0 as u64) + 1
        );
        // And the old index still probes its old epoch's rows.
        assert_eq!(
            index.incident_len(starring, dir_code::FORWARD, true, &[bp.0 as u64]),
            old_touched.endpoint(true).count(bp.0 as u64)
        );
        // Posting stats cover every partition.
        let stats = index.posting_stats();
        assert_eq!(stats.rows, index.total_rows());
        assert!(stats.partitions > 0 && stats.src_keys > 0 && stats.heap_bytes > 0);
    }

    /// The estimate bugfix (endpoint-index selectivities): on a
    /// skewed-label KB the old raw-`scan_len`-per-edge formula ordered a
    /// hub self-join *cheaper* than a flat two-hop path, inverting the
    /// true instance-row ordering; the posting-based estimate orders them
    /// correctly.
    #[test]
    fn skewed_labels_flip_cost_ordering() {
        let mut b = KbBuilder::new();
        let hub = b.add_node("hub", "T");
        // 120 `common` edges all pointing into one hub: V(dst) = 1.
        for i in 0..120 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(x, hub, "common").unwrap();
        }
        // A flat chain of 240 `flat` edges: nearly-distinct endpoints.
        let chain: Vec<_> = (0..241).map(|i| b.add_node(&format!("c{i}"), "T")).collect();
        for w in chain.windows(2) {
            b.add_directed_edge(w[0], w[1], "flat").unwrap();
        }
        let kb = b.build();
        let index = EdgeIndex::build(&kb);
        let common = kb.label_by_name("common").unwrap().0 as u64;
        let flat = kb.label_by_name("flat").unwrap().0 as u64;
        // Hub co-star: start -common-> v2 <-common- end. True instances
        // ≈ 120 × 119 (every ordered pair through the hub).
        let hub_spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: common, directed: true },
                SpecEdge { u: 1, v: 2, label: common, directed: true },
            ],
        };
        // Flat two-hop: start -flat-> v2 -flat-> end. True instances
        // ≈ 239 (the chain windows).
        let flat_spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: flat, directed: true },
                SpecEdge { u: 2, v: 1, label: flat, directed: true },
            ],
        };
        let true_hub = all_distributions(&index, &hub_spec)
            .values()
            .map(|c| c.iter().sum::<u64>())
            .sum::<u64>();
        let true_flat = all_distributions(&index, &flat_spec)
            .values()
            .map(|c| c.iter().sum::<u64>())
            .sum::<u64>();
        assert!(true_hub > true_flat, "the hub join dominates ({true_hub} vs {true_flat})");
        // The old formula — Π scan_len / n^(edges-1) — inverted that.
        let n = index.node_count() as f64;
        let old = |spec: &PatternSpec| {
            spec.edges
                .iter()
                .map(|e| index.scan_len(e.label, dir_code::FORWARD) as f64)
                .product::<f64>()
                / n.powi(spec.edges.len() as i32 - 1)
        };
        assert!(
            old(&hub_spec) < old(&flat_spec),
            "precondition: the raw-scan_len formula misorders the skewed shapes \
             ({} vs {})",
            old(&hub_spec),
            old(&flat_spec)
        );
        // The posting-based estimate restores the true ordering.
        let est_hub = index.estimate_instance_rows(&hub_spec);
        let est_flat = index.estimate_instance_rows(&flat_spec);
        assert!(
            est_hub > est_flat,
            "endpoint-index estimate must rank the hub join as more expensive \
             ({est_hub} vs {est_flat})"
        );
        assert!(index.estimate_eval_cost(&hub_spec) > index.estimate_eval_cost(&flat_spec));
    }

    #[test]
    fn spouse_distribution_is_rare() {
        let kb = toy::entertainment();
        let rel = oriented_edge_relation(&kb);
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: spouse, directed: false }],
        };
        let bp = kb.require_node("brad_pitt").unwrap().0 as u64;
        let dist = local_count_distribution(&rel, &spec, bp).unwrap();
        // Exactly one spouse.
        assert_eq!(dist.len(), 1);
        // Example 7's punchline: spousal explanation with count 1 has
        // position 0 (nothing beats it), so it outranks co-starring with
        // count 1.
        let index = EdgeIndex::build(&kb);
        assert_eq!(local_position_indexed(&index, &spec, bp, 1, usize::MAX).unwrap().0, 0);
    }
}
