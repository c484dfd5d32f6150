//! The distribution queries REX runs against the relational store.
//!
//! These functions implement §5.3.2 of the paper: computing a pattern's
//! aggregate value for *every* candidate end entity in one grouped query
//! (the local distribution), and computing the *position* of a given
//! aggregate value within that distribution — optionally pruned with a
//! `LIMIT` once a position bound is known.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rex_kb::{EdgeRecord, KbDelta, KnowledgeBase, LabelId, NodeId};

use crate::budget::Budget;
use crate::exec::Sink;
use crate::metrics::EvalTrace;
use crate::ops::{group_count_having_limit, FIB_HASH};
use crate::plan::{dir_code, PatternSpec, SpecEdge, StartBinding};
use crate::relation::{ColumnPosting, Relation, Schema};
use crate::{RelError, Result};

/// The endpoint posting lists of one `(label, dir)` partition: a
/// [`ColumnPosting`] over each endpoint column, so every row incident to
/// an entity on either side is one lookup away. `by_src` maps each `from`
/// id to its `to` ids and `by_dst` each `to` id to its `from` ids —
/// the partition's out- and in-adjacency lists, each ascending, a
/// parallel KB edge repeated once per row. Binding a pattern variable
/// next to a bound one reads exactly one such list, and a variable with
/// several bound neighbours intersects theirs; a scan walks `by_src`
/// key by key, so rows equal on `(from, to)` arrive next to each other.
///
/// Postings are immutable snapshots of their partition's rows: delta
/// maintenance rebuilds the posting of every partition it edits and
/// leaves the rest shared behind their `Arc` (copy-on-write, mirroring
/// the partitions themselves across [`EdgeIndex::next_epoch`]), so the
/// lists always match the rows of their epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPosting {
    by_src: ColumnPosting,
    by_dst: ColumnPosting,
}

impl PartitionPosting {
    /// Builds both endpoint postings over a partition (`from` = column 0,
    /// `to` = column 1 of the oriented schema), each key listing the
    /// other endpoint's ids.
    fn build(rel: &Relation, from_col: usize, to_col: usize) -> PartitionPosting {
        PartitionPosting {
            by_src: ColumnPosting::build(rel, from_col, to_col),
            by_dst: ColumnPosting::build(rel, to_col, from_col),
        }
    }

    /// The posting over the requested endpoint column.
    pub fn endpoint(&self, src: bool) -> &ColumnPosting {
        if src {
            &self.by_src
        } else {
            &self.by_dst
        }
    }

    /// Heap bytes held by both postings.
    pub fn heap_bytes(&self) -> usize {
        self.by_src.heap_bytes() + self.by_dst.heap_bytes()
    }

    /// Both postings, `from` first — the serialization order of the
    /// on-disk snapshot format (`crate::persist`).
    pub(crate) fn parts(&self) -> (&ColumnPosting, &ColumnPosting) {
        (&self.by_src, &self.by_dst)
    }

    /// Reassembles a posting pair from deserialized parts.
    pub(crate) fn from_parts(by_src: ColumnPosting, by_dst: ColumnPosting) -> PartitionPosting {
        PartitionPosting { by_src, by_dst }
    }
}

/// Aggregate endpoint-posting statistics of an [`EdgeIndex`] — what
/// `rex stats` reports as the index's build cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingStats {
    /// `(label, dir)` partitions carrying a posting.
    pub partitions: usize,
    /// Total rows indexed across all postings (equals the index's rows).
    pub rows: usize,
    /// Distinct `from` values summed over partitions.
    pub src_keys: usize,
    /// Distinct `to` values summed over partitions.
    pub dst_keys: usize,
    /// Heap bytes held by all posting arrays.
    pub heap_bytes: usize,
}

/// One `(label, dir)` partition of an [`EdgeIndex`] with its rows and
/// posting, as yielded by the snapshot serializer's partition walk.
pub(crate) type PartitionEntry<'a> = ((u64, u64), &'a Arc<Relation>, &'a Arc<PartitionPosting>);

/// The oriented edge relation pre-partitioned by `(label, dir)` — the
/// relational analogue of a composite index on `R(rel)`. Pattern-edge
/// scans hit exactly their label's partition instead of the full relation,
/// which is what makes repeated distribution queries (Figure 11) viable.
/// Every partition additionally carries a [`PartitionPosting`], so
/// start-restricted evaluations probe incident rows instead of scanning.
///
/// The index carries the KB [`epoch`](EdgeIndex::epoch) it reflects and
/// refreshes **incrementally** from a [`KbDelta`]
/// ([`EdgeIndex::apply_delta`]): only the touched
/// `(label, dir)` partitions are edited, instead of rebuilding every
/// partition from scratch on each KB update.
///
/// Partitions are held behind `Arc` (copy-on-write): cloning an index is
/// O(labels), sharing every partition's rows, and a delta application
/// deep-copies only the partitions it touches. This is what makes
/// **versioned index publication** cheap — [`EdgeIndex::next_epoch`]
/// builds the next epoch's index off to the side while readers keep
/// scanning the current one, and the publisher swaps an `Arc<EdgeIndex>`
/// in O(1).
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    groups: HashMap<(u64, u64), Arc<Relation>>,
    /// Endpoint posting lists, one per partition, `Arc`-shared across
    /// index versions and rebuilt only for delta-touched partitions.
    postings: HashMap<(u64, u64), Arc<PartitionPosting>>,
    schema: Schema,
    total_rows: usize,
    node_count: usize,
    epoch: u64,
}

impl EdgeIndex {
    /// Builds the index from a knowledge base at the KB's current epoch.
    pub fn build(kb: &KnowledgeBase) -> EdgeIndex {
        let schema = oriented_schema();
        // Each partition's rows go straight into its own flat buffer, in
        // KB edge order.
        let mut buckets: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
        let mut total_rows = 0;
        for eid in kb.edge_ids() {
            for row in oriented_rows(kb.edge(eid)) {
                buckets.entry((row[2], row[3])).or_default().extend_from_slice(&row);
                total_rows += 1;
            }
        }
        let groups: HashMap<(u64, u64), Arc<Relation>> = buckets
            .into_iter()
            .map(|(k, data)| {
                (k, Arc::new(Relation::from_flat(schema.clone(), data).expect("partition arity")))
            })
            .collect();
        let from_col = schema.index_of("from").expect("oriented schema");
        let to_col = schema.index_of("to").expect("oriented schema");
        let postings = groups
            .iter()
            .map(|(&k, rel)| (k, Arc::new(PartitionPosting::build(rel, from_col, to_col))))
            .collect();
        EdgeIndex {
            groups,
            postings,
            schema,
            total_rows,
            node_count: kb.node_count(),
            epoch: kb.epoch(),
        }
    }

    /// The KB epoch this index reflects.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies a [`KbDelta`] in place: added edges are appended to their
    /// `(label, dir)` partitions, removed edges retracted from theirs,
    /// and the index's epoch advanced to `delta.to_epoch`. Errors when
    /// the delta does not start at this index's epoch or retracts a row
    /// the index does not hold — both mean the caller's delta bookkeeping
    /// diverged; the index contents are then unspecified (the epoch is
    /// not advanced) and a full [`EdgeIndex::build`] is required.
    pub fn apply_delta(&mut self, delta: &KbDelta) -> Result<()> {
        if delta.from_epoch != self.epoch {
            return Err(RelError::DeltaSkew(format!(
                "index at epoch {} cannot apply delta starting at {}",
                self.epoch, delta.from_epoch
            )));
        }
        // Additions first: a retraction may target an edge inserted
        // within the same window (rows are a multiset, so which copy is
        // retracted never matters — only that one exists by then).
        // `Arc::make_mut` deep-copies a partition only when another index
        // version still shares it (the copy-on-write half of versioned
        // publication).
        let mut touched: HashSet<(u64, u64)> = HashSet::new();
        for record in &delta.added {
            for row in oriented_rows(record) {
                let key = (row[2], row[3]);
                touched.insert(key);
                let partition = self
                    .groups
                    .entry(key)
                    .or_insert_with(|| Arc::new(Relation::empty(self.schema.clone())));
                Arc::make_mut(partition).push(&row).expect("oriented rows have arity 4");
                self.total_rows += 1;
            }
        }
        for record in &delta.removed {
            for row in oriented_rows(record) {
                let key = (row[2], row[3]);
                touched.insert(key);
                let found = self
                    .groups
                    .get_mut(&key)
                    .is_some_and(|partition| Arc::make_mut(partition).remove_row(&row));
                if !found {
                    return Err(RelError::DeltaSkew(format!(
                        "delta retracts edge ({}, {}, label {}) the index does not hold",
                        row[0], row[1], row[2]
                    )));
                }
                self.total_rows -= 1;
            }
        }
        // Rebuild endpoint postings for exactly the partitions this delta
        // edited; every untouched partition keeps sharing its posting
        // `Arc` with older index versions (the COW half of versioned
        // publication, extended to the postings).
        let from_col = self.schema.index_of("from").expect("oriented schema");
        let to_col = self.schema.index_of("to").expect("oriented schema");
        for key in touched {
            let rel = self.groups.get(&key).expect("touched partitions exist");
            self.postings.insert(key, Arc::new(PartitionPosting::build(rel, from_col, to_col)));
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

    /// The rows matching a `(label, dir)` pair — the shared partition
    /// itself, not a copy, in KB edge order; an empty relation when
    /// absent. A **full partition scan**, the access path the endpoint
    /// postings exist to avoid; only the fixed-order baseline
    /// ([`PatternSpec::evaluate_indexed_in_order`]) still scans, walking
    /// the same rows in `by_src` posting order and counting them as
    /// `rows_scanned` in its [`EvalTrace`].
    pub fn scan(&self, label: u64, dir: u64) -> Arc<Relation> {
        self.groups
            .get(&(label, dir))
            .cloned()
            .unwrap_or_else(|| Arc::new(Relation::empty(self.schema.clone())))
    }

    /// Visits every `(from, to)` row of the `(label, dir)` partition in
    /// `by_src` posting order — by `from`, then by `to` — so rows equal
    /// on `(from, to)` arrive next to each other.
    pub(crate) fn for_each_scanned<F: FnMut(u64, u64)>(&self, label: u64, dir: u64, mut visit: F) {
        let Some(posting) = self.endpoint_posting(label, dir, true) else {
            return;
        };
        for (from, tos) in posting.lists() {
            for &to in tos {
                visit(from, u64::from(to));
            }
        }
    }

    /// Materializes exactly the partition rows whose start endpoint —
    /// `from` when `src`, `to` otherwise — is in `keys` (sorted; adjacent
    /// duplicates are skipped), via the partition's endpoint posting
    /// lists: one binary search plus a contiguous id list per key, so
    /// the cost is proportional to the rows *incident to the key set*
    /// instead of the partition size.
    pub fn probe(&self, label: u64, dir: u64, src: bool, keys: &[u64]) -> Relation {
        let mut data = Vec::new();
        self.for_each_probed(label, dir, src, keys, |from, to| {
            data.extend_from_slice(&[from, to, label, dir]);
        });
        Relation::from_flat(self.schema.clone(), data).expect("partition rows match the schema")
    }

    /// Visits the `(from, to)` rows [`EdgeIndex::probe`] would
    /// materialize, in the same order — key by key, each key's rows
    /// ordered by the other endpoint — without copying them.
    pub(crate) fn for_each_probed<F: FnMut(u64, u64)>(
        &self,
        label: u64,
        dir: u64,
        src: bool,
        keys: &[u64],
        mut visit: F,
    ) {
        let Some(posting) = self.endpoint_posting(label, dir, src) else {
            return;
        };
        let mut last = None;
        for &k in keys {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            for &other in posting.neighbours(k) {
                let other = u64::from(other);
                if src {
                    visit(k, other);
                } else {
                    visit(other, k);
                }
            }
        }
    }

    /// The `from` (`src`) or `to` posting of the `(label, dir)`
    /// partition, borrowed; `None` when the partition does not exist.
    pub(crate) fn endpoint_posting(
        &self,
        label: u64,
        dir: u64,
        src: bool,
    ) -> Option<&ColumnPosting> {
        self.postings.get(&(label, dir)).map(|p| p.endpoint(src))
    }

    /// Rows of the `(label, dir)` partition incident to `keys` on the
    /// requested endpoint, counted from the posting lists without
    /// materializing anything — the exact selectivity statistic behind
    /// tile sizing and cost ordering. `keys` must be sorted (adjacent
    /// duplicates are skipped).
    pub fn incident_len(&self, label: u64, dir: u64, src: bool, keys: &[u64]) -> usize {
        let Some(posting) = self.postings.get(&(label, dir)) else {
            return 0;
        };
        let posting = posting.endpoint(src);
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

    /// The endpoint posting of a `(label, dir)` partition, `Arc`-cloned —
    /// `None` when the partition does not exist. Exposed so the COW
    /// contract (untouched partitions share their posting across
    /// [`EdgeIndex::next_epoch`], touched ones rebuild) is testable with
    /// `Arc::ptr_eq`.
    pub fn posting(&self, label: u64, dir: u64) -> Option<Arc<PartitionPosting>> {
        self.postings.get(&(label, dir)).cloned()
    }

    /// Aggregate posting statistics (partitions, rows, distinct keys,
    /// heap bytes) — the index build cost `rex stats` reports.
    pub fn posting_stats(&self) -> PostingStats {
        let mut stats = PostingStats::default();
        for posting in self.postings.values() {
            stats.partitions += 1;
            stats.rows += posting.endpoint(true).len();
            stats.src_keys += posting.endpoint(true).distinct_keys();
            stats.dst_keys += posting.endpoint(false).distinct_keys();
            stats.heap_bytes += posting.heap_bytes();
        }
        stats
    }

    /// Rows in the `(label, dir)` partition without materializing it —
    /// the label-cardinality statistic cost-based ordering reads.
    pub fn scan_len(&self, label: u64, dir: u64) -> usize {
        self.groups.get(&(label, dir)).map_or(0, |r| r.len())
    }

    /// The schema shared by all partitions.
    pub fn schema(&self) -> &Schema {
        &self.schema
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
        let posting = self.postings.get(&(e.label, e.dir()));
        posting.map_or(1, |p| p.endpoint(src).distinct_keys()).max(1) as f64
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
    /// derive tile sizes, never for correctness.
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

    /// Estimated evaluation cost of one batched evaluation of `spec`:
    /// scan rows touched plus estimated join output. Used to hand a
    /// workload's shapes to the ranking pass's workers heaviest-first.
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

    /// Estimated join-produced rows of `spec` over a sorted start set:
    /// the starts' **exact** incident rows on the start variable's anchor
    /// edge (its smallest start-incident partition), read from the
    /// endpoint postings, times the estimated instances per anchor row —
    /// at least 1.0, so the incident rows themselves count even for
    /// highly selective shapes. `None` when no edge touches the start
    /// variable. The one per-start weight of admission and tiling.
    fn start_rows(&self, spec: &PatternSpec) -> Option<impl Fn(&[u64]) -> f64 + '_> {
        let anchor = spec
            .edges
            .iter()
            .filter(|e| e.u == spec.start || e.v == spec.start)
            .min_by_key(|e| self.scan_len(e.label, e.dir()))?;
        let (label, dir, src) = (anchor.label, anchor.dir(), anchor.u == spec.start);
        let anchor_rows = self.scan_len(label, dir).max(1) as f64;
        let per_row = (self.estimate_instance_rows(spec) / anchor_rows).max(1.0);
        Some(move |starts: &[u64]| self.incident_len(label, dir, src, starts) as f64 * per_row)
    }

    /// Estimated join-produced rows of one batched evaluation of `spec`
    /// restricted to `starts` — the same exact per-start incident-row
    /// statistic [`EdgeIndex::tile_starts_for_ceiling`] packs tiles with,
    /// summed over the whole start set instead of split into tiles. This
    /// is the **admission-control cost** of a request: proportional to
    /// the rows actually incident to its starts (measured from the
    /// endpoint postings), not to the KB.
    pub fn estimate_starts_rows(&self, spec: &PatternSpec, starts: &[u64]) -> usize {
        let Some(start_rows) = self.start_rows(spec) else {
            // No start-incident edge: the start variable is unconstrained,
            // so the whole estimated instance relation is the cost.
            return self.estimate_instance_rows(spec).min(usize::MAX as f64) as usize;
        };
        let mut sorted: Vec<u64> = starts.to_vec();
        sorted.sort_unstable();
        start_rows(&sorted).min(usize::MAX as f64) as usize
    }

    /// Packs `starts` (sorted, deduped) into variable-size tiles whose
    /// estimated join-produced rows stay under `max_rows`, weighting each
    /// start by its **exact** incident-row count from the endpoint
    /// postings of the start variable's anchor edge, so hub starts get
    /// small tiles and leaf starts pack densely.
    ///
    /// Every tile holds at least one start; a start whose own weight
    /// exceeds the ceiling gets a singleton tile (its own instances are a
    /// floor no tiling can lower).
    pub fn tile_starts_for_ceiling(
        &self,
        spec: &PatternSpec,
        starts: &[u64],
        max_rows: usize,
    ) -> Vec<Vec<u64>> {
        if starts.is_empty() {
            return Vec::new();
        }
        let Some(start_rows) = self.start_rows(spec) else {
            return vec![starts.to_vec()];
        };
        let mut tiles: Vec<Vec<u64>> = Vec::new();
        let mut tile: Vec<u64> = Vec::new();
        let mut tile_cost = 0.0f64;
        for &s in starts {
            let weight = start_rows(&[s]);
            if !tile.is_empty() && tile_cost + weight > max_rows as f64 {
                tiles.push(std::mem::take(&mut tile));
                tile_cost = 0.0;
            }
            tile.push(s);
            tile_cost += weight;
        }
        if !tile.is_empty() {
            tiles.push(tile);
        }
        tiles
    }

    /// Reassembles an index from its parts — the deserialization path of
    /// the on-disk snapshot format (`crate::persist`).
    pub(crate) fn from_parts(
        groups: HashMap<(u64, u64), Arc<Relation>>,
        postings: HashMap<(u64, u64), Arc<PartitionPosting>>,
        schema: Schema,
        total_rows: usize,
        node_count: usize,
        epoch: u64,
    ) -> EdgeIndex {
        EdgeIndex { groups, postings, schema, total_rows, node_count, epoch }
    }

    /// The index's `(label, dir)` partitions with their postings, in
    /// **sorted key order** (deterministic snapshot bytes).
    pub(crate) fn partitions(&self) -> Vec<PartitionEntry<'_>> {
        let mut keys: Vec<(u64, u64)> = self.groups.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k, &self.groups[&k], self.postings.get(&k).expect("posting per partition")))
            .collect()
    }

    /// Saves this index as a checksummed on-disk snapshot (see
    /// [`crate::persist`]); returns the snapshot size in bytes.
    pub fn save(&self, path: &std::path::Path) -> Result<u64> {
        crate::persist::save_index(self, path)
    }

    /// Loads an index from an on-disk snapshot written by
    /// [`EdgeIndex::save`]. Cold start becomes I/O-bound: the flat CSR
    /// and posting arrays are validated and adopted as-is — no
    /// re-bucketing, no posting sorts — so a load is strictly cheaper
    /// than [`EdgeIndex::build`] at any scale.
    pub fn load(path: &std::path::Path) -> Result<EdgeIndex> {
        crate::persist::load_index(path)
    }
}

/// How a batch's start entities are hash-partitioned across shards:
/// entity `e` resides on shard `shard_of(e)`, computed with a seeded
/// splitmix64 finalizer so residency is uniform, deterministic, and
/// independent of insertion order. `shards == 1` is the degenerate spec
/// every unsharded path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Hash seed, so disjoint deployments can de-correlate residency.
    pub seed: u64,
}

impl ShardSpec {
    /// The degenerate single-shard spec (the unsharded fast path).
    pub fn single() -> ShardSpec {
        ShardSpec { shards: 1, seed: 0 }
    }

    /// A spec with `shards` shards (clamped to ≥ 1) and the given seed.
    pub fn new(shards: usize, seed: u64) -> ShardSpec {
        ShardSpec { shards: shards.max(1), seed }
    }

    /// The shard entity `e` resides on.
    #[inline]
    pub fn shard_of(&self, entity: u64) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        let mut x = entity.wrapping_add(self.seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.shards as u64) as usize
    }
}

/// One [`EdgeIndex`] with the [`ShardSpec`] that partitions a batch's
/// start set. [`count_distributions`] splits its starts by residency
/// ([`ShardSpec::shard_of`]) and evaluates the non-empty buckets in
/// parallel; every bucket plans, probes, scans and tiles against the
/// same base index, and the `(start, end)`-keyed grouped counts merge by
/// disjoint union. The flat index is the 1-shard case
/// ([`ShardSpec::single`]): one bucket, evaluated inline.
///
/// Shards hold no rows of their own, so advancing an epoch
/// ([`ShardedEdgeIndex::next_epoch`]) is the base index's copy-on-write
/// [`EdgeIndex::next_epoch`] under the same spec.
#[derive(Debug, Clone)]
pub struct ShardedEdgeIndex {
    spec: ShardSpec,
    base: Arc<EdgeIndex>,
}

impl ShardedEdgeIndex {
    /// Builds the base index from a knowledge base under `spec`.
    pub fn build(kb: &KnowledgeBase, spec: ShardSpec) -> ShardedEdgeIndex {
        ShardedEdgeIndex::from_base(Arc::new(EdgeIndex::build(kb)), spec)
    }

    /// Pairs an existing base index with a shard layout (`spec.shards`
    /// clamped to ≥ 1). The base is shared, not copied.
    pub fn from_base(base: Arc<EdgeIndex>, spec: ShardSpec) -> ShardedEdgeIndex {
        ShardedEdgeIndex { spec: ShardSpec::new(spec.shards, spec.seed), base }
    }

    /// The shard layout.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The index every evaluation reads.
    pub fn base(&self) -> &Arc<EdgeIndex> {
        &self.base
    }

    /// The KB epoch of the base index.
    pub fn epoch(&self) -> u64 {
        self.base.epoch()
    }

    /// Entities in the indexed KB.
    pub fn node_count(&self) -> usize {
        self.base.node_count()
    }

    /// Splits sorted, deduped start values into per-shard buckets
    /// (`buckets[k]` sorted; empty for shards with no start).
    pub fn split_starts(&self, values: &[u64]) -> Vec<Vec<u64>> {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.spec.shards];
        for &v in values {
            buckets[self.spec.shard_of(v)].push(v);
        }
        buckets
    }

    /// The next epoch's index under the same spec: the base advanced
    /// copy-on-write by `delta` ([`EdgeIndex::next_epoch`]), `self` left
    /// untouched for in-flight readers.
    pub fn next_epoch(&self, delta: &KbDelta) -> Result<ShardedEdgeIndex> {
        Ok(ShardedEdgeIndex { spec: self.spec, base: Arc::new(self.base.next_epoch(delta)?) })
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
        for row in oriented_rows(kb.edge(eid)) {
            data.extend_from_slice(&row);
        }
    }
    Relation::from_flat(oriented_schema(), data).expect("oriented rows have arity 4")
}

/// The schema of the oriented edge relation and of every index partition.
pub(crate) fn oriented_schema() -> Schema {
    Schema::new(["from", "to", "label", "dir"])
}

/// The oriented rows one KB edge contributes to the edge relation: one
/// `FORWARD` row for a directed edge; both orientations (one for a
/// self-loop) for an undirected edge. The single source of truth shared
/// by bulk build and delta application, so they cannot diverge.
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
                let slot = best.entry(n.other).or_insert(usize::MAX);
                if *slot == usize::MAX || remaining - 1 > *slot {
                    *slot = remaining - 1;
                    queue.push((n.other, remaining - 1));
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

/// Sort-free two-level accumulator for a `(start, end)` group-by over an
/// instance relation:
/// level 1 maps the start entity through a **dense** slot table over the
/// interned id domain (entity ids are small consecutive integers — a
/// `Vec` lookup, no hashing); level 2 is an open-addressed table keyed by
/// the packed `(slot << 32) | end` word with Fibonacci hashing — one
/// multiply and a masked probe per instance row, against the generic
/// `HashMap<(u64, u64), u64>`'s SipHash of a 16-byte tuple key. Entity
/// ids are `u32`-backed in the KB, so the packed key is exact.
#[derive(Debug)]
pub struct PairCounter {
    /// Dense start → slot + 1 (0 = unassigned), indexed by entity id.
    start_slot: Vec<u32>,
    /// Slot → start entity id, in first-seen order.
    starts: Vec<u64>,
    /// Open-addressed `(packed_key + 1, count)` entries; 0-key = empty.
    table: Vec<(u64, u64)>,
    /// Occupied table entries.
    len: usize,
    /// `64 - log2(table capacity)` — the Fibonacci-hash shift.
    shift: u32,
}

impl PairCounter {
    /// Creates an accumulator sized for a KB of `domain_hint` entities.
    pub fn new(domain_hint: usize) -> PairCounter {
        let cap = 16usize;
        PairCounter {
            start_slot: vec![0; domain_hint],
            starts: Vec::new(),
            table: vec![(0, 0); cap],
            len: 0,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[inline]
    fn slot_of(&mut self, start: u64) -> u64 {
        let idx = start as usize;
        if idx >= self.start_slot.len() {
            self.start_slot.resize(idx + 1, 0);
        }
        let assigned = self.start_slot[idx];
        if assigned != 0 {
            return u64::from(assigned - 1);
        }
        let slot = self.starts.len() as u32;
        self.starts.push(start);
        self.start_slot[idx] = slot + 1;
        u64::from(slot)
    }

    #[inline]
    fn insert_raw(&mut self, key: u64, count: u64) -> bool {
        let mask = self.table.len() - 1;
        let mut i = (key.wrapping_mul(FIB_HASH) >> self.shift) as usize;
        loop {
            let (stored, _) = self.table[i];
            if stored == 0 {
                self.table[i] = (key + 1, count);
                return true;
            }
            if stored == key + 1 {
                self.table[i].1 += count;
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Counts one `(start, end)` instance row.
    #[inline]
    pub fn record(&mut self, start: u64, end: u64) {
        debug_assert!(end < (1 << 32), "entity ids are u32-backed");
        // Grow at ~70% load so probe chains stay short.
        if (self.len + 1) * 10 >= self.table.len() * 7 {
            let doubled = self.table.len() * 2;
            let old = std::mem::replace(&mut self.table, vec![(0, 0); doubled]);
            self.shift = 64 - doubled.trailing_zeros();
            for (stored, count) in old {
                if stored != 0 {
                    self.insert_raw(stored - 1, count);
                }
            }
        }
        let key = (self.slot_of(start) << 32) | end;
        if self.insert_raw(key, 1) {
            self.len += 1;
        }
    }

    /// Regroups the pair counts per start — the **unsorted** per-end count
    /// multiset of every start seen (callers sort descending once, after
    /// all tiles merged).
    pub fn finish(self) -> HashMap<u64, Vec<u64>> {
        let mut per_start: HashMap<u64, Vec<u64>> = HashMap::with_capacity(self.starts.len());
        for (stored, count) in self.table {
            if stored == 0 {
                continue;
            }
            let slot = ((stored - 1) >> 32) as usize;
            per_start.entry(self.starts[slot]).or_default().push(count);
        }
        per_start
    }
}

/// The specialized `(start, end)` group-by over an instance relation: the
/// per-start **unsorted** count multisets, computed with [`PairCounter`].
/// It replaces [`group_pair_counts_generic`] wherever an instance
/// relation is grouped; the two are answer-identical (pinned by test and
/// measured against each other in the `sharded` bench section). Batched evaluation does not group an
/// instance relation at all: its walk counts each start's ends in place.
pub fn group_pair_counts(
    instances: &Relation,
    start_col: usize,
    end_col: usize,
    domain_hint: usize,
) -> HashMap<u64, Vec<u64>> {
    let mut counter = PairCounter::new(domain_hint);
    for row in instances.rows() {
        counter.record(row[start_col], row[end_col]);
    }
    counter.finish()
}

/// The generic-`HashMap` `(start, end)` group-by the batched pipeline
/// shipped with before [`PairCounter`] — kept as the reference
/// implementation (parity tests, bench baseline).
pub fn group_pair_counts_generic(
    instances: &Relation,
    start_col: usize,
    end_col: usize,
) -> HashMap<u64, Vec<u64>> {
    let mut pair_counts: HashMap<(u64, u64), u64> = HashMap::with_capacity(instances.len());
    for row in instances.rows() {
        *pair_counts.entry((row[start_col], row[end_col])).or_insert(0) += 1;
    }
    let mut per_start: HashMap<u64, Vec<u64>> = HashMap::new();
    for ((start, _end), count) in pair_counts {
        per_start.entry(start).or_default().push(count);
    }
    per_start
}

/// The result of a batched evaluation ([`count_distributions`]): the
/// per-start descending count multisets plus the evaluation's trace —
/// its tiling (tiles, peak and estimated peak rows, overflow tiles) and
/// row traffic.
#[derive(Debug, Clone, Default)]
pub struct TiledDistributions {
    /// For every requested start with at least one instance, the
    /// descending multiset of per-end instance counts (starts without
    /// instances are absent: their distribution is empty).
    pub per_start: HashMap<u64, Vec<u64>>,
    /// The traffic of this evaluation alone.
    pub trace: EvalTrace,
}

impl TiledDistributions {
    /// Merges a disjoint partial result (start sets never overlap across
    /// shards, so the per-start union has no key collisions).
    fn absorb(&mut self, other: TiledDistributions) {
        self.per_start.extend(other.per_start);
        self.trace.merge(&other.trace);
    }
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

/// One batched distribution request: which starts to group, how to tile
/// them, how to account the evaluation, and when to give up.
#[derive(Debug, Default)]
pub struct EvalRequest<'a> {
    /// The start entities (any order; duplicates are ignored). Ids with
    /// no incident rows — or outside the KB — simply produce no entry.
    pub starts: &'a [u64],
    /// Ceiling on each tile's **estimated** input rows: starts are packed
    /// into tiles by their exact incident-row counts
    /// ([`EdgeIndex::tile_starts_for_ceiling`]). `None` evaluates each
    /// shard's starts as one tile; `Some(0)` gives every start with
    /// incident rows its own tile.
    pub row_ceiling: Option<usize>,
    /// Full or delta accounting.
    pub kind: EvalKind,
    /// Checked before every tile; each completed tile's peak rows are
    /// charged against its row pool. Unlimited by default.
    pub budget: Budget,
}

/// The batched distribution query (§5.3.2's amortization): evaluates
/// `spec` with the start variable restricted to `req.starts`, grouped by
/// `(start, end)`, producing for every start the descending multiset of
/// per-end instance counts — exactly
/// `local_count_distribution_indexed(s).values()` sorted descending. One
/// call plans once per tile for all its starts, and the depth-first walk
/// counts each start's instances per end in place instead of
/// materializing them.
///
/// The start set is split by shard residency and the non-empty buckets
/// fan out across rayon workers, each planning, reading and tiling
/// against the one base index; the per-bucket grouped counts merge by
/// disjoint union. A 1-shard index ([`ShardSpec::single`]) is one
/// bucket, evaluated inline. Every bucket reads the same index, so the
/// answer never depends on the shard count, and neither does any start's
/// tile weight. Within a bucket the row ceiling tiles the starts; tiling
/// bounds each tile's work and row-budget charge and never changes the
/// answer either.
///
/// Budget: checked at **every tile boundary** on every worker, so an
/// expired deadline, a tripped cancellation token or an exhausted row
/// pool stops the evaluation with [`RelError::Aborted`] after at most one
/// more tile per worker. An aborted evaluation returns no partial result.
///
/// Trace: the returned [`EvalTrace`] counts one full or delta evaluation
/// (per `req.kind`), one tile per tile, and the rows every tile read;
/// each shard bucket returns its own trace and the merge sums them. A
/// completed call folds the trace into [`crate::metrics::snapshot`]'s
/// totals; an aborted one folds nothing. An empty start set is a no-op,
/// not an evaluation.
pub fn count_distributions(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    req: &EvalRequest<'_>,
) -> Result<TiledDistributions> {
    spec.validate()?;
    let mut values: Vec<u64> = req.starts.to_vec();
    values.sort_unstable();
    values.dedup();
    if values.is_empty() {
        return Ok(TiledDistributions::default());
    }
    let buckets: Vec<Vec<u64>> =
        index.split_starts(&values).into_iter().filter(|b| !b.is_empty()).collect();
    use rayon::prelude::*;
    let results: Vec<Result<TiledDistributions>> =
        buckets.par_iter().map(|bucket| grouped_tiles(index.base(), spec, bucket, req)).collect();
    let mut out = TiledDistributions::default();
    match req.kind {
        EvalKind::Full => out.trace.full = 1,
        EvalKind::Delta => out.trace.delta = 1,
    }
    for part in results {
        out.absorb(part?);
    }
    for counts in out.per_start.values_mut() {
        counts.sort_unstable_by(|a, b| b.cmp(a));
    }
    crate::metrics::fold(&out.trace);
    Ok(out)
}

/// One shard bucket of [`count_distributions`]: evaluates `values`
/// (sorted, deduped, non-empty) tile by tile against `index`
/// ([`PatternSpec::evaluate_tile`]), packing the tiles by `index`'s
/// per-start weights. The depth-first walk counts a trailing existential
/// instead of enumerating it, and each start's ends accumulate in one
/// dense per-end array ([`EndCounts`]); no instance is materialized. The
/// returned trace counts tiles and rows but **not** the batch-level
/// evaluation, which the caller owns. Returned count multisets are
/// unsorted; the caller sorts once at the end of the whole batch.
fn grouped_tiles(
    index: &EdgeIndex,
    spec: &PatternSpec,
    values: &[u64],
    req: &EvalRequest<'_>,
) -> Result<TiledDistributions> {
    let tiles = match req.row_ceiling {
        None => vec![values.to_vec()],
        Some(max_rows) => index.tile_starts_for_ceiling(spec, values, max_rows),
    };
    let mut out = TiledDistributions::default();
    let mut ends = EndCounts::new(index.node_count(), spec.end);
    for tile in tiles {
        if let Some(max_rows) = req.row_ceiling {
            let est = index.estimate_starts_rows(spec, &tile);
            out.trace.est_peak_rows = out.trace.est_peak_rows.max(est);
            if est > max_rows {
                out.trace.overflow_tiles += 1;
            }
        }
        let binding = StartBinding::Among(tile);
        let trace = spec.evaluate_tile(index, &binding, &req.budget, true, &mut ends)?;
        out.trace.merge(&trace);
        out.trace.tiles += 1;
    }
    out.per_start = ends.per_start;
    Ok(out)
}

/// The `(start, end)` group-by of a walk: the current start's instance
/// count per end entity in a dense array over the entity ids, reused for
/// every start — only the ends a start touched are read back and reset.
struct EndCounts {
    end: usize,
    counts: Vec<u64>,
    touched: Vec<usize>,
    per_start: HashMap<u64, Vec<u64>>,
}

impl EndCounts {
    fn new(node_count: usize, end: usize) -> EndCounts {
        EndCounts {
            end,
            counts: vec![0; node_count],
            touched: Vec::new(),
            per_start: HashMap::new(),
        }
    }
}

impl Sink for EndCounts {
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

    fn start_done(&mut self, start: u64) {
        if self.touched.is_empty() {
            return;
        }
        // Sized exactly: the cache holds these vectors as they are.
        let counts = self.touched.drain(..).map(|end| std::mem::take(&mut self.counts[end]));
        self.per_start.insert(start, counts.collect());
    }
}

/// Counts the end entities whose instance count strictly exceeds `c` —
/// the pattern's *position* in `start`'s local distribution (`HAVING
/// count > c`) — over a prebuilt [`EdgeIndex`], returned with the query's
/// trace. `limit` bounds the answer, which saturates at `limit`: bounded
/// queries (`limit < usize::MAX`) run through the streaming walk, which
/// stops as soon as `limit` qualifying end entities are known — the heart
/// of the paper's `LIMIT p` pruning.
pub fn local_position_indexed(
    index: &EdgeIndex,
    spec: &PatternSpec,
    start: u64,
    c: u64,
    limit: usize,
) -> Result<(usize, EvalTrace)> {
    if limit < usize::MAX {
        return spec.streaming_end_position(index, start, c, limit);
    }
    let (instances, trace) = spec.evaluate_indexed(index, &StartBinding::Const(start))?;
    let grouped = group_count_having_limit(&instances, &[spec.end], c, limit)?;
    Ok((grouped.len(), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SpecEdge;
    use rex_kb::{toy, KbBuilder};

    /// [`count_distributions`] over `index` as a 1-shard index.
    fn grouped(
        index: &EdgeIndex,
        spec: &PatternSpec,
        starts: &[u64],
        row_ceiling: Option<usize>,
    ) -> Result<TiledDistributions> {
        let flat = ShardedEdgeIndex::from_base(Arc::new(index.clone()), ShardSpec::single());
        count_distributions(&flat, spec, &EvalRequest { starts, row_ceiling, ..Default::default() })
    }

    /// Every entity's distribution: `spec` grouped over all of `index`'s
    /// entities as starts.
    fn all_distributions(index: &EdgeIndex, spec: &PatternSpec) -> HashMap<u64, Vec<u64>> {
        let all: Vec<u64> = (0..index.node_count() as u64).collect();
        grouped(index, spec, &all, None).unwrap().per_start
    }

    #[test]
    fn oriented_relation_row_counts() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        let c = b.add_node("c", "P");
        b.add_directed_edge(a, c, "r");
        b.add_undirected_edge(a, c, "s");
        let kb = b.build();
        let rel = oriented_edge_relation(&kb);
        // 1 row for the directed edge + 2 for the undirected one.
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn undirected_self_loop_single_row() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        b.add_undirected_edge(a, a, "s");
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
        let restricted = grouped(&index, &spec, &sample, None).unwrap().per_start;
        // No start outside the sample appears.
        assert!(restricted.keys().all(|s| sample.contains(s)));
        // Sampled starts agree with the unbound evaluation.
        for s in &sample {
            assert_eq!(restricted.get(s), full.get(s), "start {s}");
        }
    }

    /// Tiled evaluation equals the untiled batch for every row ceiling
    /// (tile sizes from one start per tile to a single tile).
    #[test]
    fn tiled_batch_matches_untiled_for_all_tile_sizes() {
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
        let untiled = grouped(&index, &spec, &starts, None).unwrap();
        assert_eq!(untiled.trace.tiles, 1);
        // Some(0) gives every start with incident rows its own tile.
        let packing = index.tile_starts_for_ceiling(&spec, &starts, 0);
        for tile in &packing {
            if tile.iter().any(|&s| index.incident_len(starring, dir_code::FORWARD, true, &[s]) > 0)
            {
                assert_eq!(tile.len(), 1, "tile {tile:?}");
            }
        }
        let singles = grouped(&index, &spec, &starts, Some(0)).unwrap();
        assert_eq!(singles.trace.tiles, packing.len());
        for ceiling in [0usize, 1, 2, 3, 7, 1_000_000] {
            let tiled = grouped(&index, &spec, &starts, Some(ceiling)).unwrap();
            assert_eq!(tiled.per_start, untiled.per_start, "ceiling {ceiling}");
            assert!((1..=packing.len()).contains(&tiled.trace.tiles), "ceiling {ceiling}");
            assert!(tiled.trace.peak_rows > 0);
        }
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
        let out = grouped(&index, &spec, &[], Some(8)).unwrap();
        assert!(out.per_start.is_empty());
        assert_eq!(out.trace.tiles, 0);
        assert_eq!(out.trace.peak_rows, 0);
        // Invalid specs still error, even with no starts.
        let bad = PatternSpec { var_count: 2, start: 0, end: 0, edges: vec![] };
        assert!(grouped(&index, &bad, &[], Some(8)).is_err());
    }

    /// Smaller tiles can only lower (never raise) the peak intermediate
    /// row count, and the ceiling-derived tile size is within bounds.
    #[test]
    fn tiling_bounds_peak_rows() {
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
        let one_tile = grouped(&index, &spec, &starts, None).unwrap();
        let many_tiles = grouped(&index, &spec, &starts, Some(0)).unwrap();
        assert!(many_tiles.trace.peak_rows <= one_tile.trace.peak_rows);
        for ceiling in [1usize, 10, 1_000_000] {
            let tiles = index.tile_starts_for_ceiling(&spec, &starts, ceiling);
            assert!(
                (1..=starts.len()).contains(&tiles.len()),
                "ceiling {ceiling} gave {} tiles",
                tiles.len()
            );
        }
        assert!(index.estimate_eval_cost(&spec) > 0);
        assert!(index.estimate_instance_rows(&spec) > 0.0);
        assert_eq!(
            index.scan_len(starring, dir_code::FORWARD),
            index.scan(starring, dir_code::FORWARD).len()
        );
    }

    /// A delta-refreshed index is indistinguishable from one rebuilt from
    /// scratch: same partitions, same distribution answers — including
    /// undirected edges (two oriented rows), self-loops (one), parallel
    /// edges, and the add-then-remove no-op.
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
        // insert, undirected remove, and an add-then-remove wash.
        let m = kb.require_node("oceans_eleven").unwrap();
        kb.insert_edge(aj, m, starring, true).unwrap();
        kb.insert_edge(bp, jr, spouse, false).unwrap();
        let old_spouse = kb.find_edge(bp, aj, spouse, false).unwrap();
        kb.remove_edge(old_spouse).unwrap();
        let wash = kb.insert_edge(jr, m, starring, true).unwrap();
        kb.remove_edge(wash).unwrap();

        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index.apply_delta(&delta).unwrap();
        assert_eq!(index.epoch(), kb.epoch());

        let rebuilt = EdgeIndex::build(&kb);
        assert_eq!(index.total_rows(), rebuilt.total_rows());
        assert_eq!(index.node_count(), rebuilt.node_count());
        for label in [starring.0 as u64, spouse.0 as u64] {
            for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
                assert_eq!(index.scan_len(label, dir), rebuilt.scan_len(label, dir));
            }
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
        // The new version equals an in-place application / fresh build.
        assert_eq!(next.epoch(), kb.epoch());
        let rebuilt = EdgeIndex::build(&kb);
        assert_eq!(next.total_rows(), rebuilt.total_rows());
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let starring = starring.0 as u64;
        for label in [starring, spouse] {
            for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
                assert_eq!(next.scan_len(label, dir), rebuilt.scan_len(label, dir));
            }
        }
        // Untouched partitions are shared, not copied: a label the delta
        // never mentions scans identical rows from both versions.
        let untouched = kb.label_by_name("directed_by").unwrap().0 as u64;
        assert_eq!(
            index.scan(untouched, dir_code::FORWARD),
            next.scan(untouched, dir_code::FORWARD)
        );
    }

    /// Skewed deltas fail loudly instead of corrupting the index.
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
        let flat = ShardedEdgeIndex::from_base(Arc::new(index_after), ShardSpec::single());
        let req = EvalRequest { starts: &affected, kind: EvalKind::Delta, ..Default::default() };
        let partial = count_distributions(&flat, &costar, &req).unwrap();
        assert_eq!((partial.trace.delta, partial.trace.full), (1, 0));
        for s in &affected {
            assert_eq!(partial.per_start.get(s), after.get(s), "start {s}");
        }
    }

    /// A posting probe materializes exactly the rows a scan-and-filter
    /// would, for both endpoints, including absent keys and keys outside
    /// the KB's id space.
    #[test]
    fn probe_matches_filtered_scan() {
        let kb = toy::entertainment();
        let index = EdgeIndex::build(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let sort = |rel: &Relation| {
            let mut rows: Vec<Vec<u64>> = rel.rows().map(<[u64]>::to_vec).collect();
            rows.sort_unstable();
            rows
        };
        for (label, dir) in
            [(starring, dir_code::FORWARD), (spouse, dir_code::UNDIRECTED), (starring, 99)]
        {
            let full = index.scan(label, dir);
            for src in [true, false] {
                let col = usize::from(!src); // from = 0, to = 1
                let keys: Vec<u64> = vec![0, 2, 5, 500];
                let probed = index.probe(label, dir, src, &keys);
                let expected: Vec<Vec<u64>> = {
                    let mut rows: Vec<Vec<u64>> = full
                        .rows()
                        .filter(|r| keys.binary_search(&r[col]).is_ok())
                        .map(|r| r.to_vec())
                        .collect();
                    rows.sort_unstable();
                    rows
                };
                assert_eq!(sort(&probed), expected, "label {label} dir {dir} src {src}");
                assert_eq!(
                    index.incident_len(label, dir, src, &keys),
                    probed.len(),
                    "incident_len must equal the probed row count"
                );
                // Duplicate keys must not duplicate rows.
                let dup: Vec<u64> = vec![2, 2, 2];
                assert_eq!(
                    index.probe(label, dir, src, &dup).len(),
                    index.incident_len(label, dir, src, &[2])
                );
            }
        }
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
            b.add_directed_edge(x, hub, "common");
        }
        // A flat chain of 240 `flat` edges: nearly-distinct endpoints.
        let chain: Vec<_> = (0..241).map(|i| b.add_node(&format!("c{i}"), "T")).collect();
        for w in chain.windows(2) {
            b.add_directed_edge(w[0], w[1], "flat");
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

    /// Ceiling-driven tiling answers identically to the untiled batch,
    /// never raises the peak, and packs hub starts into smaller tiles
    /// than leaf starts (exact per-start weights, not a uniform split).
    #[test]
    fn ceiling_tiling_is_exact_and_answer_preserving() {
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
        let single = grouped(&index, &spec, &starts, None).unwrap();
        for ceiling in [1usize, 8, 64, 1_000_000] {
            let tiled = grouped(&index, &spec, &starts, Some(ceiling)).unwrap();
            assert_eq!(tiled.per_start, single.per_start, "ceiling {ceiling}");
            assert!(tiled.trace.tiles >= 1);
            assert!(tiled.trace.peak_rows <= single.trace.peak_rows, "ceiling {ceiling}");
        }
        // A tight ceiling splits; a huge one does not.
        let tight = grouped(&index, &spec, &starts, Some(1)).unwrap();
        let loose = grouped(&index, &spec, &starts, Some(1_000_000)).unwrap();
        assert!(tight.trace.tiles > loose.trace.tiles);
        assert_eq!(loose.trace.tiles, 1);
        // The packing covers every start exactly once.
        let tiles = index.tile_starts_for_ceiling(&spec, &starts, 8);
        let flat: Vec<u64> = tiles.iter().flatten().copied().collect();
        assert_eq!(flat, starts);
        assert!(index.tile_starts_for_ceiling(&spec, &[], 8).is_empty());
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

    /// The specialized two-level `(start, end)` accumulator must agree
    /// with the generic `HashMap` group-by on every instance relation.
    #[test]
    fn pair_counter_matches_generic_group_by() {
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
        let (instances, _) = spec.evaluate_indexed(&index, &StartBinding::Unbound).unwrap();
        let fast = group_pair_counts(&instances, spec.start, spec.end, index.node_count());
        let slow = group_pair_counts_generic(&instances, spec.start, spec.end);
        assert_eq!(fast.len(), slow.len());
        for (start, counts) in &slow {
            let mut a = counts.clone();
            let mut b = fast.get(start).cloned().unwrap_or_default();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "start {start}");
        }
        // Degenerate inputs: empty relation, zero domain hint (the
        // dense slot table grows on demand past the hint).
        let empty = Relation::empty(instances.schema().clone());
        assert!(group_pair_counts(&empty, spec.start, spec.end, 0).is_empty());
        let hinted_zero = group_pair_counts(&instances, spec.start, spec.end, 0);
        assert_eq!(hinted_zero.len(), slow.len());
    }

    /// Entity-hash sharding never changes an answer: for shard counts
    /// 1, 2, 3, and 7 (including shards that own no start), the sharded
    /// fan-out is byte-identical to the unsharded batch with and without
    /// a row ceiling, and every layout shares the base index outright.
    #[test]
    fn sharded_fanout_matches_unsharded() {
        let kb = toy::entertainment();
        let base = Arc::new(EdgeIndex::build(&kb));
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
        let all: Vec<u64> = (0..kb.node_count() as u64).collect();
        let tiny: Vec<u64> = all.iter().copied().take(2).collect();
        for shards in [1usize, 2, 3, 7] {
            let sharded =
                ShardedEdgeIndex::from_base(Arc::clone(&base), ShardSpec::new(shards, 0xD1CE));
            assert!(Arc::ptr_eq(sharded.base(), &base));
            for spec in [&costar, &spousal] {
                for starts in [&all, &tiny] {
                    let expect = grouped(&base, spec, starts, None).unwrap();
                    for row_ceiling in [None, Some(0), Some(64)] {
                        let req = EvalRequest { starts, row_ceiling, ..Default::default() };
                        let got = count_distributions(&sharded, spec, &req).unwrap();
                        assert_eq!(got.per_start, expect.per_start, "{shards} shards, {req:?}");
                    }
                }
            }
        }
        // The empty start set stays a no-op through the sharded path.
        let sharded = ShardedEdgeIndex::from_base(Arc::clone(&base), ShardSpec::new(3, 1));
        let none = count_distributions(&sharded, &costar, &EvalRequest::default()).unwrap();
        assert!(none.per_start.is_empty());
        assert_eq!(none.trace.tiles, 0);
    }

    /// A sharded index advanced by a delta answers like a fresh build,
    /// and the source version keeps its epoch (copy-on-write, not
    /// in-place).
    #[test]
    fn sharded_next_epoch_matches_fresh_build() {
        let mut kb = toy::entertainment();
        let spec = ShardSpec::new(4, 7);
        let v0 = ShardedEdgeIndex::build(&kb, spec);
        let epoch0 = kb.epoch();

        let bp = kb.require_node("brad_pitt").unwrap();
        let m = kb.require_node("oceans_eleven").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(bp, m, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();

        let v1 = v0.next_epoch(&delta).unwrap();
        assert_eq!(v1.epoch(), kb.epoch());
        assert_eq!(v1.spec(), spec);
        // Parity with a fresh build after the delta.
        let fresh = ShardedEdgeIndex::build(&kb, spec);
        let costar = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring.0 as u64, directed: true },
                SpecEdge { u: 1, v: 2, label: starring.0 as u64, directed: true },
            ],
        };
        let all: Vec<u64> = (0..kb.node_count() as u64).collect();
        let req = EvalRequest { starts: &all, ..Default::default() };
        let a = count_distributions(&v1, &costar, &req).unwrap();
        let b = count_distributions(&fresh, &costar, &req).unwrap();
        assert_eq!(a.per_start, b.per_start);
        // The source version is untouched (copy-on-write, not in-place).
        assert_eq!(v0.epoch(), epoch0);
    }

    /// Regression for the BENCH row-ceiling reading: the ceiling bounds
    /// each tile's **estimated input rows** — `est_peak_rows ≤ ceiling`
    /// for every multi-start tile by construction — while the measured
    /// `peak_rows` may legally exceed it (join fan-out the System-R
    /// estimate under-predicts, or a single hub start heavier than the
    /// ceiling, which no split can shrink). Overweight singletons are
    /// counted in `overflow_tiles`; answers are always preserved.
    #[test]
    fn ceiling_bounds_estimated_tile_input_not_measured_peak() {
        // Hub KB: 120 spokes into one hub make the hub's co-star join
        // explode quadratically past any estimate, and make the hub
        // start itself heavier than a tight ceiling.
        let mut b = KbBuilder::new();
        let hub = b.add_node("hub", "T");
        for i in 0..120 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(x, hub, "common");
        }
        let kb = b.build();
        let index = EdgeIndex::build(&kb);
        let common = kb.label_by_name("common").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: common, directed: true },
                SpecEdge { u: 1, v: 2, label: common, directed: true },
            ],
        };
        let starts: Vec<u64> = (0..kb.node_count() as u64).collect();
        // Each spoke start alone joins to ~120 rows (every co-spoke pair
        // through the hub), so a ceiling of 64 makes every spoke an
        // overweight singleton tile that no split can shrink.
        let ceiling = 64usize;
        // The invariant itself, stated on the tiling primitive: every
        // multi-start tile's estimate fits under the ceiling; only
        // singleton tiles may exceed it.
        let tiles = index.tile_starts_for_ceiling(&spec, &starts, ceiling);
        for tile in &tiles {
            let est = index.estimate_starts_rows(&spec, tile);
            assert!(
                tile.len() == 1 || est <= ceiling,
                "multi-start tile of {} starts estimated at {est} > {ceiling}",
                tile.len()
            );
        }
        let result = grouped(&index, &spec, &starts, Some(ceiling)).unwrap();
        // The estimate the ceiling governs stays bounded unless an
        // overweight singleton overflowed — and those are counted.
        assert!(
            result.trace.est_peak_rows <= ceiling || result.trace.overflow_tiles > 0,
            "est {} over ceiling {ceiling} with no overflow tile recorded",
            result.trace.est_peak_rows
        );
        // The overweight singletons make the *measured* peak legally
        // exceed the ceiling (~120 joined rows from one spoke's tile).
        assert!(result.trace.overflow_tiles > 0, "expected overweight singleton tiles");
        assert!(
            result.trace.peak_rows > ceiling,
            "expected a measured overshoot, got peak {}",
            result.trace.peak_rows
        );
        // Answers unchanged by tiling.
        let untiled = grouped(&index, &spec, &starts, None).unwrap();
        assert_eq!(result.per_start, untiled.per_start);
        // Without a ceiling nothing can overflow.
        assert_eq!(untiled.trace.overflow_tiles, 0);
    }

    /// A sharded batch traces exactly like an unsharded one: the returned
    /// trace holds the one full evaluation, every worker's tiles, and the
    /// row traffic the workers read on their own threads — the same rows
    /// as the batch evaluated inline on one shard.
    #[test]
    fn sharded_fanout_publishes_worker_traffic() {
        let kb = toy::entertainment();
        let sharded = ShardedEdgeIndex::build(&kb, ShardSpec::new(3, 5));
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
        let all: Vec<u64> = (0..kb.node_count() as u64).collect();
        // Each shard bucket packs its own tiles against the base index.
        let tiles: usize = sharded
            .split_starts(&all)
            .iter()
            .filter(|bucket| !bucket.is_empty())
            .map(|bucket| sharded.base().tile_starts_for_ceiling(&spec, bucket, 0).len())
            .sum();
        let req = EvalRequest { starts: &all, row_ceiling: Some(0), ..Default::default() };
        let trace = count_distributions(&sharded, &spec, &req).unwrap().trace;
        assert_eq!((trace.full, trace.delta, trace.streaming), (1, 0, 0));
        assert_eq!(trace.tiles, tiles);
        // Every start-incident row, probed once per start across the
        // workers' buckets.
        let incident: usize = all
            .iter()
            .map(|&s| sharded.base().incident_len(starring, dir_code::FORWARD, true, &[s]))
            .sum();
        assert!(trace.rows_probed >= incident, "worker probe traffic lost");
        let inline = ShardedEdgeIndex::build(&kb, ShardSpec::new(1, 5));
        let one = count_distributions(&inline, &spec, &req).unwrap().trace;
        assert_eq!(
            (trace.rows_probed, trace.rows_scanned, trace.peak_rows),
            (one.rows_probed, one.rows_scanned, one.peak_rows),
            "worker row traffic lost or double-counted in the merge"
        );
    }
}
