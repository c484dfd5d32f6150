//! The distribution queries REX runs against the relational store.
//!
//! These functions implement §5.3.2 of the paper: computing a pattern's
//! aggregate value for *every* candidate end entity in one grouped query
//! (the local distribution), and computing the *position* of a given
//! aggregate value within that distribution — optionally pruned with a
//! `LIMIT` once a position bound is known.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rex_kb::{DeltaSince, EdgeRecord, KbDelta, KnowledgeBase, LabelId, NodeId};

use crate::budget::Budget;
use crate::ops::{group_count_having_limit, FIB_HASH};
use crate::plan::{dir_code, PatternSpec, StartBinding};
use crate::relation::{ColumnPosting, Relation, Schema};
use crate::{RelError, Result};

/// The endpoint posting lists of one `(label, dir)` partition: a
/// [`ColumnPosting`] over each endpoint column (`from` and `to`), so a
/// pattern edge whose start variable sits at either endpoint can
/// materialize exactly the rows incident to a start set — cost
/// proportional to those rows, not to the partition (the `Among` scan
/// floor, removed).
///
/// Postings are immutable snapshots of their partition's rows: delta
/// maintenance rebuilds the posting of every partition it edits and
/// leaves the rest shared behind their `Arc` (copy-on-write, mirroring
/// the partitions themselves across [`EdgeIndex::next_epoch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPosting {
    by_src: ColumnPosting,
    by_dst: ColumnPosting,
}

impl PartitionPosting {
    /// Builds both endpoint postings over a partition (`from` = column 0,
    /// `to` = column 1 of the oriented schema).
    fn build(rel: &Relation, from_col: usize, to_col: usize) -> PartitionPosting {
        PartitionPosting {
            by_src: ColumnPosting::build(rel, from_col),
            by_dst: ColumnPosting::build(rel, to_col),
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
/// ([`EdgeIndex::apply_delta`] / [`EdgeIndex::refresh`]): only the touched
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

/// What [`EdgeIndex::refresh`] had to do to catch up with the KB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// Already at the KB's epoch — nothing to do.
    Current,
    /// A retained delta was applied in place; carries the edge churn.
    Applied(usize),
    /// The KB's log was compacted past this index's epoch: the index was
    /// rebuilt from scratch (the graceful-degradation path).
    Rebuilt,
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

    /// Refreshes the index to `kb`'s current epoch by applying
    /// [`KnowledgeBase::delta_since`] this index's epoch — or rebuilding
    /// from scratch when log compaction has discarded that window
    /// ([`DeltaSince::Compacted`]), the graceful degradation long-lived
    /// processes rely on. A no-op when already current; returns what
    /// happened.
    pub fn refresh(&mut self, kb: &KnowledgeBase) -> Result<Refresh> {
        if kb.epoch() == self.epoch {
            return Ok(Refresh::Current);
        }
        match kb.delta_since(self.epoch) {
            DeltaSince::Delta(delta) => {
                let churn = delta.edge_churn();
                self.apply_delta(&delta)?;
                Ok(Refresh::Applied(churn))
            }
            DeltaSince::Compacted { .. } => {
                *self = EdgeIndex::build(kb);
                Ok(Refresh::Rebuilt)
            }
        }
    }

    /// The rows matching a `(label, dir)` pair — the shared partition
    /// itself, not a copy; an empty relation when absent. A **full
    /// partition scan**: every row is recorded against
    /// [`crate::metrics`]' `rows_scanned` counter, the access path the
    /// endpoint postings exist to avoid whenever a start restriction can
    /// be pushed down ([`EdgeIndex::probe`]).
    pub fn scan(&self, label: u64, dir: u64) -> Arc<Relation> {
        let rel = self
            .groups
            .get(&(label, dir))
            .cloned()
            .unwrap_or_else(|| Arc::new(Relation::empty(self.schema.clone())));
        crate::metrics::record_rows_scanned(rel.len());
        rel
    }

    /// Materializes exactly the partition rows whose start endpoint —
    /// `from` when `src`, `to` otherwise — is in `keys` (sorted; adjacent
    /// duplicates are skipped), via the partition's endpoint posting
    /// lists: one binary search plus a contiguous row-range per key, so
    /// the cost is proportional to the rows *incident to the key set*
    /// instead of the partition size. Recorded against the `rows_probed`
    /// counter.
    pub fn probe(&self, label: u64, dir: u64, src: bool, keys: &[u64]) -> Relation {
        let mut data = Vec::new();
        self.for_each_probed(label, dir, src, keys, |row| data.extend_from_slice(row));
        Relation::from_flat(self.schema.clone(), data).expect("partition rows match the schema")
    }

    /// Visits the rows [`EdgeIndex::probe`] would materialize, in the
    /// same order, without copying them — the evaluator filters and
    /// projects them straight into its own buffer. Recorded against the
    /// `rows_probed` counter.
    pub(crate) fn for_each_probed<F: FnMut(&[u64])>(
        &self,
        label: u64,
        dir: u64,
        src: bool,
        keys: &[u64],
        mut visit: F,
    ) {
        let key = (label, dir);
        let (Some(rel), Some(posting)) = (self.groups.get(&key), self.postings.get(&key)) else {
            return;
        };
        let posting = posting.endpoint(src);
        let mut probed = 0;
        let mut last = None;
        for &k in keys {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            let ids = posting.rows_for(k);
            probed += ids.len();
            for &i in ids {
                visit(rel.row(i as usize));
            }
        }
        crate::metrics::record_rows_probed(probed);
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

    /// System-R estimate of the **unbound** instance relation's row count
    /// for `spec`, with join selectivities read from the endpoint
    /// postings' real distinct-value counts instead of the entity-domain
    /// size. The estimate walks the same greedy join order the evaluator
    /// uses (smallest scan first, then the smallest connected scan); each
    /// join multiplies by the edge's rows divided by `V(edge, col)` — the
    /// distinct values of every already-bound endpoint column, under the
    /// containment assumption.
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
        let edge_rows = |i: usize| {
            let e = &spec.edges[i];
            let dir = e.dir();
            self.scan_len(e.label, dir)
        };
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
            let dir = e.dir();
            let rows = self.scan_len(e.label, dir) as f64;
            if step == 0 {
                est = rows;
            } else {
                let posting = self.postings.get(&(e.label, dir));
                let distinct = |src: bool| {
                    posting.map_or(1, |p| p.endpoint(src).distinct_keys()).max(1) as f64
                };
                let mut mult = rows;
                if e.u == e.v {
                    if bound[e.u] {
                        mult /= distinct(true).max(distinct(false));
                    }
                } else {
                    if bound[e.u] {
                        mult /= distinct(true);
                    }
                    if bound[e.v] {
                        mult /= distinct(false);
                    }
                }
                est *= mult;
            }
            bound[e.u] = true;
            bound[e.v] = true;
        }
        est
    }

    /// Estimated evaluation cost of one batched evaluation of `spec`:
    /// scan rows touched plus estimated join output. Used to order a
    /// workload's shapes cheapest-first.
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

    /// Packs `starts` (sorted, deduped) into variable-size tiles whose
    /// estimated join-produced rows stay under `max_rows`, weighting each
    /// start by its **exact** incident-row count from the endpoint
    /// postings of the start variable's anchor edge (its smallest
    /// start-incident partition). The pre-posting tiling assumed every
    /// start contributes the same `1/n` share of the shape's rows; the
    /// posting counts replace that uniformity with the measured
    /// per-start selectivity, so hub starts get small tiles and leaf
    /// starts pack densely — exact tile sizing instead of estimated.
    ///
    /// Estimated join-produced rows of one batched evaluation of `spec`
    /// restricted to `starts` — the same exact per-start incident-row
    /// statistic [`EdgeIndex::tile_starts_for_ceiling`] packs tiles with,
    /// summed over the whole start set instead of split into tiles. This
    /// is the **admission-control cost** of a request: proportional to
    /// the rows actually incident to its starts (measured from the
    /// endpoint postings), not to the KB.
    pub fn estimate_starts_rows(&self, spec: &PatternSpec, starts: &[u64]) -> usize {
        let mut sorted: Vec<u64> = starts.to_vec();
        sorted.sort_unstable();
        let anchor =
            spec.edges.iter().filter(|e| e.u == spec.start || e.v == spec.start).min_by_key(|e| {
                let dir = e.dir();
                self.scan_len(e.label, dir)
            });
        let Some(anchor) = anchor else {
            // No start-incident edge: the start variable is unconstrained,
            // so the whole estimated instance relation is the cost.
            return self.estimate_instance_rows(spec).min(usize::MAX as f64) as usize;
        };
        let src = anchor.u == spec.start;
        let dir = anchor.dir();
        let anchor_rows = self.scan_len(anchor.label, dir).max(1) as f64;
        let per_row = (self.estimate_instance_rows(spec) / anchor_rows).max(1.0);
        let incident = self.incident_len(anchor.label, dir, src, &sorted) as f64;
        (incident * per_row).min(usize::MAX as f64) as usize
    }

    /// Every tile holds at least one start; a start whose own weight
    /// exceeds the ceiling gets a singleton tile (the per-edge scans are
    /// a floor no tiling can lower).
    pub fn tile_starts_for_ceiling(
        &self,
        spec: &PatternSpec,
        starts: &[u64],
        max_rows: usize,
    ) -> Vec<Vec<u64>> {
        if starts.is_empty() {
            return Vec::new();
        }
        let anchor =
            spec.edges.iter().filter(|e| e.u == spec.start || e.v == spec.start).min_by_key(|e| {
                let dir = e.dir();
                self.scan_len(e.label, dir)
            });
        let Some(anchor) = anchor else {
            return vec![starts.to_vec()];
        };
        let src = anchor.u == spec.start;
        let dir = anchor.dir();
        let anchor_rows = self.scan_len(anchor.label, dir).max(1) as f64;
        // Estimated instances per incident row of the anchor edge; at
        // least 1.0 so the incident rows themselves count against the
        // ceiling even for highly selective shapes.
        let per_row = (self.estimate_instance_rows(spec) / anchor_rows).max(1.0);
        let mut tiles: Vec<Vec<u64>> = Vec::new();
        let mut tile: Vec<u64> = Vec::new();
        let mut tile_cost = 0.0f64;
        for &s in starts {
            let weight = self.incident_len(anchor.label, dir, src, &[s]) as f64 * per_row;
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

    /// The sub-index shard `k` of `spec` holds: every partition row whose
    /// `from` **or** `to` entity hashes to shard `k`, with fresh endpoint
    /// postings over the filtered rows. Because a shard keeps *all* rows
    /// incident to its residents (not just resident→resident rows), a
    /// probe for a resident start returns exactly what the base index
    /// would — the completeness invariant the sharded fan-out rests on.
    /// Non-start pattern edges are *not* evaluated against shards (they
    /// scan the base index via the split plan), so dropping non-incident
    /// rows here loses nothing.
    fn restrict_to_shard(&self, spec: &ShardSpec, k: usize) -> EdgeIndex {
        let from_col = self.schema.index_of("from").expect("oriented schema");
        let to_col = self.schema.index_of("to").expect("oriented schema");
        let mut groups: HashMap<(u64, u64), Arc<Relation>> = HashMap::new();
        let mut total_rows = 0usize;
        for (&key, rel) in &self.groups {
            let mut data = Vec::new();
            for row in rel.rows() {
                if spec.shard_of(row[from_col]) == k || spec.shard_of(row[to_col]) == k {
                    data.extend_from_slice(row);
                }
            }
            if data.is_empty() {
                continue;
            }
            let rel = Relation::from_flat(self.schema.clone(), data).expect("partition arity");
            total_rows += rel.len();
            groups.insert(key, Arc::new(rel));
        }
        let postings = groups
            .iter()
            .map(|(&k, rel)| (k, Arc::new(PartitionPosting::build(rel, from_col, to_col))))
            .collect();
        EdgeIndex {
            groups,
            postings,
            schema: self.schema.clone(),
            total_rows,
            node_count: self.node_count,
            epoch: self.epoch,
        }
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

/// How start entities are hash-partitioned across index shards: entity
/// `e` resides on shard `shard_of(e)`, computed with a seeded splitmix64
/// finalizer so residency is uniform, deterministic, and independent of
/// insertion order. `shards == 1` is the degenerate spec every unsharded
/// path uses.
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

    /// Whether shard `k` owns any endpoint of a KB edge record — the
    /// record-level form of the shard residency rule (equivalent to the
    /// row-level rule for both oriented rows of an undirected edge, since
    /// those rows share the same endpoint set).
    #[inline]
    pub fn owns_record(&self, record: &EdgeRecord, k: usize) -> bool {
        self.shard_of(record.src.0 as u64) == k || self.shard_of(record.dst.0 as u64) == k
    }
}

/// N independent [`EdgeIndex`] shards over one KB epoch, plus the full
/// **base** index. Shard `k` holds the partition rows incident to the
/// start entities residing on `k` ([`ShardSpec::shard_of`]), so a batched
/// `Among` evaluation splits its start set by residency and fans the
/// per-shard batches out in parallel — each worker probes its shard's
/// (smaller) postings and scans the shared base for non-start pattern
/// edges, and the `(start, end)`-keyed grouped counts merge by disjoint
/// union. The base index also serves every non-`Among` path unchanged.
///
/// Copy-on-write across epochs like everything else in this stack:
/// [`ShardedEdgeIndex::next_epoch`] rebuilds only the shards owning a
/// delta endpoint; untouched shards share their `Arc` with the previous
/// version (pointer-equality-testable, like the PR 5 postings).
#[derive(Debug, Clone)]
pub struct ShardedEdgeIndex {
    spec: ShardSpec,
    base: Arc<EdgeIndex>,
    shards: Vec<Arc<EdgeIndex>>,
}

impl ShardedEdgeIndex {
    /// Builds the base index and its shards from a knowledge base.
    pub fn build(kb: &KnowledgeBase, spec: ShardSpec) -> ShardedEdgeIndex {
        ShardedEdgeIndex::from_base(Arc::new(EdgeIndex::build(kb)), spec)
    }

    /// Shards an existing base index. With `spec.shards == 1` the single
    /// "shard" *is* the base (`Arc`-shared, zero copies) — the sharded
    /// paths then degrade to exactly the unsharded evaluation.
    pub fn from_base(base: Arc<EdgeIndex>, spec: ShardSpec) -> ShardedEdgeIndex {
        let spec = ShardSpec::new(spec.shards, spec.seed);
        if spec.shards == 1 {
            return ShardedEdgeIndex { spec, shards: vec![Arc::clone(&base)], base };
        }
        let shards = (0..spec.shards).map(|k| Arc::new(base.restrict_to_shard(&spec, k))).collect();
        ShardedEdgeIndex { spec, base, shards }
    }

    /// Assembles a sharded index from already-built parts (the snapshot
    /// load path); the caller guarantees the shards match the spec.
    pub(crate) fn from_shards(
        spec: ShardSpec,
        base: Arc<EdgeIndex>,
        shards: Vec<Arc<EdgeIndex>>,
    ) -> ShardedEdgeIndex {
        ShardedEdgeIndex { spec, base, shards }
    }

    /// The shard layout.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The full (unsharded) base index — what every non-`Among` path and
    /// every non-start pattern-edge scan evaluates against.
    pub fn base(&self) -> &Arc<EdgeIndex> {
        &self.base
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `k`'s restricted index.
    pub fn shard(&self, k: usize) -> &Arc<EdgeIndex> {
        &self.shards[k]
    }

    /// The KB epoch of the base index. Untouched shards may **lag** this
    /// epoch after COW deltas — by construction those deltas carried no
    /// row a lagging shard owns, so its contents are nonetheless exact.
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
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for &v in values {
            buckets[self.spec.shard_of(v)].push(v);
        }
        buckets
    }

    /// Applies a delta copy-on-write: the base advances as usual, and
    /// each shard advances **only if the delta touches an edge it owns**
    /// — the filtered sub-delta is applied on top of the shard's (possibly
    /// lagging) epoch. Untouched shards share their `Arc` with this
    /// version, so a small delta rebuilds `O(affected shards)` posting
    /// sets instead of all `N`.
    pub fn next_epoch(&self, delta: &KbDelta) -> Result<ShardedEdgeIndex> {
        let base = Arc::new(self.base.next_epoch(delta)?);
        if self.spec.shards == 1 {
            return Ok(ShardedEdgeIndex { spec: self.spec, shards: vec![Arc::clone(&base)], base });
        }
        let shards: Vec<Arc<EdgeIndex>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let added: Vec<EdgeRecord> =
                    delta.added.iter().filter(|e| self.spec.owns_record(e, k)).cloned().collect();
                let removed: Vec<EdgeRecord> =
                    delta.removed.iter().filter(|e| self.spec.owns_record(e, k)).cloned().collect();
                if added.is_empty() && removed.is_empty() {
                    // Nothing this shard owns changed: share the Arc and
                    // let the shard's epoch lag (its rows are exact).
                    return Ok(Arc::clone(shard));
                }
                let sub = KbDelta {
                    from_epoch: shard.epoch(),
                    to_epoch: delta.to_epoch,
                    added,
                    removed,
                    node_count: delta.node_count,
                };
                Ok(Arc::new(shard.next_epoch(&sub)?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedEdgeIndex { spec: self.spec, base, shards })
    }

    /// How many shards were rebuilt (not `Arc`-shared) relative to a
    /// previous version — the COW observability hook `MaintainOutcome`
    /// and the `sharded` bench section report.
    pub fn shards_rebuilt_from(&self, prev: &ShardedEdgeIndex) -> usize {
        if self.shards.len() != prev.shards.len() {
            return self.shards.len();
        }
        self.shards.iter().zip(&prev.shards).filter(|(a, b)| !Arc::ptr_eq(a, b)).count()
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

/// Counts the end entities whose instance count strictly exceeds `c` —
/// the pattern's *position* in the local distribution (`HAVING count > c`).
/// `limit` bounds the answer: scanning stops once `limit` qualifying
/// entities are found (the paper's `LIMIT p` pruning), so the return value
/// saturates at `limit`.
pub fn local_position(
    edge_rel: &Relation,
    spec: &PatternSpec,
    start: u64,
    c: u64,
    limit: usize,
) -> Result<usize> {
    let instances = spec.evaluate(edge_rel, Some(start))?;
    let grouped = group_count_having_limit(&instances, &[spec.end], c, limit)?;
    Ok(grouped.len())
}

/// [`local_count_distribution`] over a prebuilt [`EdgeIndex`].
pub fn local_count_distribution_indexed(
    index: &EdgeIndex,
    spec: &PatternSpec,
    start: u64,
) -> Result<HashMap<u64, u64>> {
    let instances = spec.evaluate_indexed(index, Some(start))?;
    let grouped = group_count_having_limit(&instances, &[spec.end], 0, usize::MAX)?;
    Ok(grouped.rows().map(|r| (r[0], r[1])).collect())
}

/// The batched all-starts distribution query (§5.3.2's amortization,
/// done literally): evaluates `spec` **once** — with the start variable
/// unbound, or restricted to `starts` when provided — then groups the
/// instance relation by `(start, end)` in a single pass, producing for
/// every start entity the descending multiset of per-end instance counts.
///
/// For any start `s` covered by the evaluation, the returned multiset is
/// exactly `local_count_distribution_indexed(index, spec, s).values()`
/// sorted descending; starts with no instances are absent from the map
/// (their distribution is empty). One call replaces one full relational
/// evaluation *per start* — the hot path of the global-position estimate,
/// which samples ~100 starts per pattern — with a single evaluation whose
/// scan, join, and dedup work is shared across all of them.
pub fn global_count_distributions(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: Option<&[u64]>,
) -> Result<HashMap<u64, Vec<u64>>> {
    let binding = match starts {
        Some(list) => StartBinding::among(list.iter().copied()),
        None => StartBinding::Unbound,
    };
    let instances = spec.evaluate_indexed_with(index, &binding)?;
    // GROUP BY v_start, v_end → count(*), in one pass over the (distinct,
    // injective) instance rows — through the specialized two-level
    // accumulator, then regrouped into descending count multisets.
    let mut per_start = group_pair_counts(&instances, spec.start, spec.end, index.node_count());
    for counts in per_start.values_mut() {
        counts.sort_unstable_by(|a, b| b.cmp(a));
    }
    Ok(per_start)
}

/// Sort-free two-level accumulator for the hot `(start, end)` group-by:
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
/// This is the hot-path replacement for [`group_pair_counts_generic`];
/// the two are answer-identical (pinned by test and measured against each
/// other in the `sharded` bench section).
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

/// The result of a tiled batched evaluation: the per-start descending
/// count multisets plus the tiling it actually performed.
#[derive(Debug, Clone)]
pub struct TiledDistributions {
    /// For every start with at least one instance, the descending multiset
    /// of per-end instance counts (identical to
    /// [`global_count_distributions`] over the same starts).
    pub per_start: HashMap<u64, Vec<u64>>,
    /// Number of start tiles evaluated (1 when `tile_size ≥ |starts|`).
    pub tiles: usize,
    /// Largest intermediate relation (rows) any tile materialized.
    pub peak_rows: usize,
    /// Largest **estimated** input rows of any tile — the quantity the
    /// row ceiling actually bounds. Ceiling tiling packs starts by their
    /// estimated incident rows ([`EdgeIndex::tile_starts_for_ceiling`]),
    /// so `est_peak_rows ≤ ceiling` holds for every multi-start tile;
    /// the **measured** [`TiledDistributions::peak_rows`] may legally
    /// exceed the ceiling when the System-R estimate under-predicts join
    /// fan-out, or when a single hub start's own weight tops the ceiling
    /// (a singleton tile no split can shrink — counted in
    /// [`TiledDistributions::overflow_tiles`]).
    pub est_peak_rows: usize,
    /// Tiles whose estimated rows exceeded the requested ceiling —
    /// necessarily singleton hub tiles under ceiling tiling (multi-start
    /// tiles are packed under it by construction); always 0 for
    /// fixed-size tiling, which requests no ceiling.
    pub overflow_tiles: usize,
}

/// Memory-bounded variant of [`global_count_distributions`]: the start set
/// is split into fixed-size tiles of at most `tile_size` starts and the
/// pattern is evaluated once per tile, so join-produced intermediates stay
/// proportional to the tile instead of the whole sample. Because the
/// start values partition across tiles and grouping is keyed by start, the
/// union of per-tile results is exactly the untiled result — tiling trades
/// repeated non-start scans for a bounded peak, it never changes the
/// answer.
///
/// Accounting: the whole call records **one** full evaluation (it is one
/// logical batch) and one [`crate::metrics::record_tile`] per tile.
pub fn global_count_distributions_tiled(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tile_size: usize,
) -> Result<TiledDistributions> {
    global_count_distributions_tiled_budgeted(index, spec, starts, tile_size, &Budget::unlimited())
}

/// [`global_count_distributions_tiled`] under a cooperative [`Budget`]:
/// the budget is checked at **every tile boundary** and each completed
/// tile's peak rows are charged against its row pool, so an expired
/// deadline, a tripped cancellation token, or an exhausted pool stops the
/// evaluation with [`RelError::Aborted`] after at most one more tile of
/// work. An aborted evaluation returns no partial result and publishes no
/// partial counter traffic (its staged metrics are drained).
pub fn global_count_distributions_tiled_budgeted(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tile_size: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    grouped_among_tiled(
        index,
        spec,
        starts,
        Tiling::FixedSize(tile_size),
        crate::metrics::record_full_eval,
        budget,
    )
}

/// [`global_count_distributions_tiled`] with **exact** ceiling-driven
/// tiling: instead of a fixed start count per tile, starts are packed by
/// their measured incident-row counts ([`EdgeIndex::tile_starts_for_ceiling`])
/// so every tile's estimated join-produced rows stay under `max_rows`.
pub fn global_count_distributions_ceiling(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    max_rows: usize,
) -> Result<TiledDistributions> {
    global_count_distributions_ceiling_budgeted(index, spec, starts, max_rows, &Budget::unlimited())
}

/// [`global_count_distributions_ceiling`] under a cooperative [`Budget`]
/// (see [`global_count_distributions_tiled_budgeted`] for the abort
/// semantics). Ceiling tiling is the natural partner of a budget: tiles
/// are already sized so each one's work is bounded, which bounds the
/// overshoot past a deadline by one tile.
pub fn global_count_distributions_ceiling_budgeted(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    max_rows: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    grouped_among_tiled(
        index,
        spec,
        starts,
        Tiling::RowCeiling(max_rows),
        crate::metrics::record_full_eval,
        budget,
    )
}

/// The **delta-evaluation path**: identical grouped `(start, end)`
/// counting restricted to the (few) starts a [`KbDelta`] may have
/// affected — the caller passes the output of [`delta_affected_starts`]
/// intersected with its cached domain. Accounted as one *partial*
/// evaluation ([`crate::metrics::record_delta_eval`]), not a full one:
/// the whole point of incremental maintenance is that these touch a
/// fraction of the start domain — and, with the endpoint postings, only
/// the rows *incident* to that fraction.
pub fn delta_count_distributions(
    index: &EdgeIndex,
    spec: &PatternSpec,
    affected_starts: &[u64],
    tile_size: usize,
) -> Result<TiledDistributions> {
    grouped_among_tiled(
        index,
        spec,
        affected_starts,
        Tiling::FixedSize(tile_size),
        crate::metrics::record_delta_eval,
        &Budget::unlimited(),
    )
}

/// [`delta_count_distributions`] under exact ceiling-driven tiling.
pub fn delta_count_distributions_ceiling(
    index: &EdgeIndex,
    spec: &PatternSpec,
    affected_starts: &[u64],
    max_rows: usize,
) -> Result<TiledDistributions> {
    delta_count_distributions_ceiling_budgeted(
        index,
        spec,
        affected_starts,
        max_rows,
        &Budget::unlimited(),
    )
}

/// [`delta_count_distributions_ceiling`] under a cooperative [`Budget`]
/// — the delta path checks the budget at the same tile boundaries the
/// full path does, so maintenance work is preemptible too.
pub fn delta_count_distributions_ceiling_budgeted(
    index: &EdgeIndex,
    spec: &PatternSpec,
    affected_starts: &[u64],
    max_rows: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    grouped_among_tiled(
        index,
        spec,
        affected_starts,
        Tiling::RowCeiling(max_rows),
        crate::metrics::record_delta_eval,
        budget,
    )
}

/// How a grouped `Among` evaluation splits its start set.
#[derive(Debug, Clone, Copy)]
enum Tiling {
    /// Fixed start count per tile (uniform per-start cost assumption).
    FixedSize(usize),
    /// Row ceiling per tile, packed by exact per-start incident rows.
    RowCeiling(usize),
}

impl TiledDistributions {
    /// The no-op result of an empty start set.
    fn empty() -> TiledDistributions {
        TiledDistributions {
            per_start: HashMap::new(),
            tiles: 0,
            peak_rows: 0,
            est_peak_rows: 0,
            overflow_tiles: 0,
        }
    }

    /// Merges a disjoint partial result (start sets never overlap across
    /// shards, so the per-start union has no key collisions).
    fn absorb(&mut self, other: TiledDistributions) {
        self.per_start.extend(other.per_start);
        self.tiles += other.tiles;
        self.peak_rows = self.peak_rows.max(other.peak_rows);
        self.est_peak_rows = self.est_peak_rows.max(other.est_peak_rows);
        self.overflow_tiles += other.overflow_tiles;
    }
}

/// The tile loop shared by the unsharded batch and every sharded worker:
/// evaluates `values` (sorted, deduped, non-empty) tile by tile with
/// probes against `probe` and non-start scans against `scan`
/// ([`PatternSpec::evaluate_indexed_tile_budgeted_split`]), grouping each
/// tile's instances through the specialized [`PairCounter`]. Tiling and
/// per-start weights are derived from `probe` (a shard's postings count
/// exactly its residents' incident rows). Records tiles but **not** the
/// batch-level evaluation, and does no staging — the caller owns both.
/// Returned count multisets are unsorted; the caller sorts once at the
/// end of the whole batch.
fn grouped_tiles(
    probe: &EdgeIndex,
    scan: &EdgeIndex,
    spec: &PatternSpec,
    values: &[u64],
    tiling: Tiling,
    budget: &Budget,
) -> Result<TiledDistributions> {
    let chunks: Vec<Vec<u64>> = match tiling {
        Tiling::FixedSize(tile_size) => {
            values.chunks(tile_size.max(1)).map(<[u64]>::to_vec).collect()
        }
        Tiling::RowCeiling(max_rows) => probe.tile_starts_for_ceiling(spec, values, max_rows),
    };
    let ceiling = match tiling {
        Tiling::FixedSize(_) => None,
        Tiling::RowCeiling(max_rows) => Some(max_rows),
    };
    let mut out = TiledDistributions::empty();
    for chunk in chunks {
        if let Some(max_rows) = ceiling {
            let est = probe.estimate_starts_rows(spec, &chunk);
            out.est_peak_rows = out.est_peak_rows.max(est);
            if est > max_rows {
                out.overflow_tiles += 1;
            }
        }
        let binding = StartBinding::Among(chunk);
        let (instances, peak) =
            spec.evaluate_indexed_tile_budgeted_split(probe, scan, &binding, budget)?;
        crate::metrics::record_tile();
        out.tiles += 1;
        out.peak_rows = out.peak_rows.max(peak);
        for (start, counts) in
            group_pair_counts(&instances, spec.start, spec.end, scan.node_count())
        {
            out.per_start.entry(start).or_default().extend(counts);
        }
    }
    Ok(out)
}

/// Shared body of the tiled grouped evaluations; `record` is bumped once
/// when at least one tile runs (full vs delta accounting). The `budget`
/// is checked at every tile boundary
/// ([`PatternSpec::evaluate_indexed_tile_budgeted`]); counter traffic is
/// staged ([`crate::metrics::stage_evaluation`]) and committed only when
/// the whole batch completes, so an abort publishes *no* partial counts —
/// scoped metric snapshots see a whole batch or none of it.
fn grouped_among_tiled(
    index: &EdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tiling: Tiling,
    record: fn(),
    budget: &Budget,
) -> Result<TiledDistributions> {
    spec.validate()?;
    let mut values: Vec<u64> = starts.to_vec();
    values.sort_unstable();
    values.dedup();
    // An empty start set is a no-op, not an evaluation: recording an
    // eval here would break the "every batch is ≥ 1 tile" invariant.
    if values.is_empty() {
        return Ok(TiledDistributions::empty());
    }
    // Stage the batch's counter traffic: commit on success, drain on any
    // early exit (`?` below drops the guard, which drains).
    let stage = crate::metrics::stage_evaluation();
    record();
    let mut out = grouped_tiles(index, index, spec, &values, tiling, budget)?;
    for counts in out.per_start.values_mut() {
        counts.sort_unstable_by(|a, b| b.cmp(a));
    }
    stage.commit();
    Ok(out)
}

/// The sharded analogue of [`grouped_among_tiled`]: splits the start set
/// by shard residency, fans the non-empty buckets out across rayon
/// workers — each probing its shard's restricted postings and scanning
/// the shared base index for non-start pattern edges — and merges the
/// per-shard grouped counts by disjoint union (start sets never overlap
/// across shards). Byte-identical to the unsharded evaluation: every
/// bucket's probe returns exactly the base index's incident rows
/// ([`EdgeIndex::restrict_to_shard`]'s completeness invariant), and
/// 1-shard indexes short-circuit onto the unsharded code path.
///
/// Metrics: counter traffic is staged per worker, harvested
/// ([`crate::metrics::StageGuard::into_traffic`]) and replayed into the
/// batch's outer stage, so scoped snapshots see one whole batch (one
/// full/delta eval, all workers' tiles and row traffic) or, on abort,
/// none of it — exactly the unsharded staging contract.
fn sharded_grouped(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tiling: Tiling,
    record: fn(),
    budget: &Budget,
) -> Result<TiledDistributions> {
    if index.shard_count() == 1 {
        return grouped_among_tiled(index.base(), spec, starts, tiling, record, budget);
    }
    spec.validate()?;
    let mut values: Vec<u64> = starts.to_vec();
    values.sort_unstable();
    values.dedup();
    if values.is_empty() {
        return Ok(TiledDistributions::empty());
    }
    let stage = crate::metrics::stage_evaluation();
    record();
    let buckets: Vec<(usize, Vec<u64>)> = index
        .split_starts(&values)
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect();
    use rayon::prelude::*;
    let results: Vec<Result<(TiledDistributions, Option<crate::metrics::EvalTraffic>)>> = buckets
        .par_iter()
        .map(|(k, bucket)| {
            // Stage on the worker thread (staging is thread-local) and
            // hand the harvested traffic back for replay on the batch
            // thread.
            let wstage = crate::metrics::stage_evaluation();
            match grouped_tiles(index.shard(*k), index.base(), spec, bucket, tiling, budget) {
                Ok(part) => Ok((part, wstage.into_traffic())),
                Err(e) => {
                    // Harvest-and-discard so the worker's guard doesn't
                    // count its own aborted evaluation — the batch's
                    // outer stage drains (and counts the abort) once.
                    let _ = wstage.into_traffic();
                    Err(e)
                }
            }
        })
        .collect();
    let mut out = TiledDistributions::empty();
    for r in results {
        let (part, traffic) = r?;
        if let Some(t) = &traffic {
            crate::metrics::replay_traffic(t);
        }
        out.absorb(part);
    }
    for counts in out.per_start.values_mut() {
        counts.sort_unstable_by(|a, b| b.cmp(a));
    }
    stage.commit();
    Ok(out)
}

/// [`global_count_distributions_tiled`] over a [`ShardedEdgeIndex`]:
/// identical result, parallel per-shard fan-out (see [`sharded_grouped`]).
pub fn sharded_count_distributions_tiled(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tile_size: usize,
) -> Result<TiledDistributions> {
    sharded_count_distributions_tiled_budgeted(index, spec, starts, tile_size, &Budget::unlimited())
}

/// [`global_count_distributions_tiled_budgeted`] over a
/// [`ShardedEdgeIndex`] — the shared [`Budget`] is checked at every tile
/// boundary on every worker, so deadline/cancel/row-pool aborts preempt
/// the whole fan-out within one tile per worker.
pub fn sharded_count_distributions_tiled_budgeted(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    tile_size: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    sharded_grouped(
        index,
        spec,
        starts,
        Tiling::FixedSize(tile_size),
        crate::metrics::record_full_eval,
        budget,
    )
}

/// [`global_count_distributions_ceiling`] over a [`ShardedEdgeIndex`].
/// The row ceiling applies **per shard tile**: each worker packs its own
/// starts under `max_rows` using its shard's exact incident weights.
pub fn sharded_count_distributions_ceiling(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    max_rows: usize,
) -> Result<TiledDistributions> {
    sharded_count_distributions_ceiling_budgeted(
        index,
        spec,
        starts,
        max_rows,
        &Budget::unlimited(),
    )
}

/// [`global_count_distributions_ceiling_budgeted`] over a
/// [`ShardedEdgeIndex`] (per-shard row ceilings, shared budget).
pub fn sharded_count_distributions_ceiling_budgeted(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    starts: &[u64],
    max_rows: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    sharded_grouped(
        index,
        spec,
        starts,
        Tiling::RowCeiling(max_rows),
        crate::metrics::record_full_eval,
        budget,
    )
}

/// [`delta_count_distributions`] over a [`ShardedEdgeIndex`] — the
/// incremental-maintenance path fans out too (affected starts of a large
/// delta can span many shards).
pub fn sharded_delta_count_distributions(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    affected_starts: &[u64],
    tile_size: usize,
) -> Result<TiledDistributions> {
    sharded_grouped(
        index,
        spec,
        affected_starts,
        Tiling::FixedSize(tile_size),
        crate::metrics::record_delta_eval,
        &Budget::unlimited(),
    )
}

/// [`delta_count_distributions_ceiling_budgeted`] over a
/// [`ShardedEdgeIndex`].
pub fn sharded_delta_count_distributions_ceiling_budgeted(
    index: &ShardedEdgeIndex,
    spec: &PatternSpec,
    affected_starts: &[u64],
    max_rows: usize,
    budget: &Budget,
) -> Result<TiledDistributions> {
    sharded_grouped(
        index,
        spec,
        affected_starts,
        Tiling::RowCeiling(max_rows),
        crate::metrics::record_delta_eval,
        budget,
    )
}

/// [`local_position`] over a prebuilt [`EdgeIndex`]. Bounded queries
/// (`limit < usize::MAX`) run through the pipelined streaming plan, which
/// aborts the final join as soon as `limit` qualifying end entities are
/// known — the heart of the paper's `LIMIT p` pruning.
pub fn local_position_indexed(
    index: &EdgeIndex,
    spec: &PatternSpec,
    start: u64,
    c: u64,
    limit: usize,
) -> Result<usize> {
    if limit < usize::MAX {
        return spec.streaming_end_position(index, start, c, limit);
    }
    let instances = spec.evaluate_indexed(index, Some(start))?;
    let grouped = group_count_having_limit(&instances, &[spec.end], c, limit)?;
    Ok(grouped.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SpecEdge;
    use rex_kb::{toy, KbBuilder};

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
        // Position of count=1: entities with count > 1 — only Julia (2).
        let pos = local_position(&rel, &spec, bp, 1, usize::MAX).unwrap();
        assert_eq!(pos, 1);
        // Position of Julia's count=2: nobody beats it.
        let pos = local_position(&rel, &spec, bp, 2, usize::MAX).unwrap();
        assert_eq!(pos, 0);
        // LIMIT saturates.
        let pos = local_position(&rel, &spec, bp, 0, 2).unwrap();
        assert_eq!(pos, 2);
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
            let batched = global_count_distributions(&index, spec, None).unwrap();
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
        let full = global_count_distributions(&index, &spec, None).unwrap();
        let sample: Vec<u64> = (0..kb.node_count() as u64).step_by(2).collect();
        let restricted = global_count_distributions(&index, &spec, Some(&sample)).unwrap();
        // No start outside the sample appears.
        assert!(restricted.keys().all(|s| sample.contains(s)));
        // Sampled starts agree with the unbound evaluation.
        for s in &sample {
            assert_eq!(restricted.get(s), full.get(s), "start {s}");
        }
    }

    /// Tiled evaluation equals the untiled batch for every tile size, and
    /// the accounting is one full eval per batch plus one tile per chunk.
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
        let untiled = global_count_distributions(&index, &spec, Some(&starts)).unwrap();
        for tile_size in [1usize, 2, 3, 7, starts.len(), starts.len() + 5] {
            let tiled =
                global_count_distributions_tiled(&index, &spec, &starts, tile_size).unwrap();
            assert_eq!(tiled.per_start, untiled, "tile_size {tile_size}");
            assert_eq!(tiled.tiles, starts.len().div_ceil(tile_size.min(starts.len())));
            assert!(tiled.peak_rows > 0);
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
        let out = global_count_distributions_tiled(&index, &spec, &[], 8).unwrap();
        assert!(out.per_start.is_empty());
        assert_eq!(out.tiles, 0);
        assert_eq!(out.peak_rows, 0);
        // Invalid specs still error, even with no starts.
        let bad = PatternSpec { var_count: 2, start: 0, end: 0, edges: vec![] };
        assert!(global_count_distributions_tiled(&index, &bad, &[], 8).is_err());
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
        let one_tile =
            global_count_distributions_tiled(&index, &spec, &starts, starts.len()).unwrap();
        let many_tiles = global_count_distributions_tiled(&index, &spec, &starts, 2).unwrap();
        assert!(many_tiles.peak_rows <= one_tile.peak_rows);
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
        let a = global_count_distributions(&index, &spec, None).unwrap();
        let b = global_count_distributions(&rebuilt, &spec, None).unwrap();
        assert_eq!(a, b);

        // refresh() is the delta_since + apply_delta composition.
        let e2 = kb.insert_edge(bp, m, starring, true).unwrap();
        let mut refreshed = index.clone();
        assert_eq!(refreshed.refresh(&kb).unwrap(), Refresh::Applied(1));
        assert_eq!(refreshed.epoch(), kb.epoch());
        assert_eq!(refreshed.refresh(&kb).unwrap(), Refresh::Current, "already current");
        kb.remove_edge(e2).unwrap();
        assert_eq!(refreshed.refresh(&kb).unwrap(), Refresh::Applied(1));
        assert_eq!(refreshed.total_rows(), index.total_rows());
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

    /// When the KB's log is compacted past the index's epoch, `refresh`
    /// degrades gracefully to a full rebuild instead of applying a
    /// partial (wrong) delta.
    #[test]
    fn refresh_rebuilds_after_log_compaction() {
        let mut kb = toy::entertainment();
        let mut index = EdgeIndex::build(&kb);
        let bp = kb.require_node("brad_pitt").unwrap();
        let m = kb.require_node("oceans_eleven").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        for _ in 0..3 {
            let e = kb.insert_edge(bp, m, starring, true).unwrap();
            kb.remove_edge(e).unwrap();
        }
        kb.insert_edge(bp, m, starring, true).unwrap();
        kb.compact_log(kb.epoch());
        assert!(kb.delta_since(index.epoch()).is_compacted());
        assert_eq!(index.refresh(&kb).unwrap(), Refresh::Rebuilt);
        assert_eq!(index.epoch(), kb.epoch());
        let rebuilt = EdgeIndex::build(&kb);
        assert_eq!(index.total_rows(), rebuilt.total_rows());
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
        let before = global_count_distributions(&index_before, &costar, None).unwrap();
        let after = global_count_distributions(&index_after, &costar, None).unwrap();
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
        let scope = crate::metrics::scoped();
        let partial = delta_count_distributions(&index_after, &costar, &affected, 8).unwrap();
        let counts = scope.counts();
        assert!(counts.delta >= 1);
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
        // Probe traffic lands on rows_probed, scans on rows_scanned.
        let scope = crate::metrics::scoped();
        let probed = index.probe(starring, dir_code::FORWARD, true, &[0, 1, 2]);
        let scanned = index.scan(starring, dir_code::FORWARD);
        let counts = scope.counts();
        assert_eq!(counts.rows_probed, probed.len());
        assert_eq!(counts.rows_scanned, scanned.len());
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
        let true_hub = global_count_distributions(&index, &hub_spec, None)
            .unwrap()
            .values()
            .map(|c| c.iter().sum::<u64>())
            .sum::<u64>();
        let true_flat = global_count_distributions(&index, &flat_spec, None)
            .unwrap()
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
        let untiled = global_count_distributions(&index, &spec, Some(&starts)).unwrap();
        let single =
            global_count_distributions_tiled(&index, &spec, &starts, starts.len()).unwrap();
        for ceiling in [1usize, 8, 64, 1_000_000] {
            let tiled =
                global_count_distributions_ceiling(&index, &spec, &starts, ceiling).unwrap();
            assert_eq!(tiled.per_start, untiled, "ceiling {ceiling}");
            assert!(tiled.tiles >= 1);
            assert!(tiled.peak_rows <= single.peak_rows, "ceiling {ceiling}");
        }
        // A tight ceiling splits; a huge one does not.
        let tight = global_count_distributions_ceiling(&index, &spec, &starts, 1).unwrap();
        let loose = global_count_distributions_ceiling(&index, &spec, &starts, 1_000_000).unwrap();
        assert!(tight.tiles > loose.tiles);
        assert_eq!(loose.tiles, 1);
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
        assert_eq!(local_position(&rel, &spec, bp, 1, usize::MAX).unwrap(), 0);
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
        let instances = spec.evaluate_indexed_with(&index, &StartBinding::Unbound).unwrap();
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
    /// fan-out is byte-identical to the unsharded batch under fixed-size
    /// *and* ceiling tiling, and the degenerate 1-shard index shares the
    /// base outright.
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
            assert_eq!(sharded.shard_count(), shards);
            if shards == 1 {
                assert!(Arc::ptr_eq(sharded.base(), sharded.shard(0)));
            }
            for spec in [&costar, &spousal] {
                for starts in [&all, &tiny] {
                    let expect = global_count_distributions_tiled(&base, spec, starts, 4).unwrap();
                    let tiled =
                        sharded_count_distributions_tiled(&sharded, spec, starts, 4).unwrap();
                    assert_eq!(tiled.per_start, expect.per_start, "{shards} shards, tiled");
                    let ceiling =
                        sharded_count_distributions_ceiling(&sharded, spec, starts, 64).unwrap();
                    assert_eq!(ceiling.per_start, expect.per_start, "{shards} shards, ceiling");
                }
            }
        }
        // The empty start set stays a no-op through the sharded path.
        let sharded = ShardedEdgeIndex::from_base(Arc::clone(&base), ShardSpec::new(3, 1));
        let none = sharded_count_distributions_tiled(&sharded, &costar, &[], 4).unwrap();
        assert!(none.per_start.is_empty());
        assert_eq!(none.tiles, 0);
    }

    /// Each shard holds **every** row incident to its resident entities,
    /// so a probe against the shard answers exactly like one against the
    /// base index — the completeness invariant the fan-out rests on.
    #[test]
    fn shard_restriction_is_complete_for_residents() {
        let kb = toy::entertainment();
        let base = EdgeIndex::build(&kb);
        let spec = ShardSpec::new(3, 99);
        let sharded = ShardedEdgeIndex::build(&kb, spec);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        let mut total_shard_rows = 0usize;
        for k in 0..3 {
            total_shard_rows += sharded.shard(k).total_rows();
        }
        // Rows incident to two differently-resident endpoints appear in
        // both shards; nothing is lost.
        assert!(total_shard_rows >= base.total_rows());
        for v in 0..kb.node_count() as u64 {
            let k = spec.shard_of(v);
            for src in [true, false] {
                for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
                    assert_eq!(
                        sharded.shard(k).incident_len(starring, dir, src, &[v]),
                        base.incident_len(starring, dir, src, &[v]),
                        "entity {v} shard {k} src {src} dir {dir}"
                    );
                }
            }
        }
    }

    /// COW delta maintenance across shards: only the shards owning a
    /// delta endpoint are rebuilt; the rest share their `Arc` with the
    /// previous version, and the advanced sharded index answers like a
    /// fresh build.
    #[test]
    fn sharded_next_epoch_rebuilds_only_owning_shards() {
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
        // The one added edge touches at most two shards (its endpoints').
        let owners: HashSet<usize> =
            [spec.shard_of(bp.0 as u64), spec.shard_of(m.0 as u64)].into_iter().collect();
        assert_eq!(v1.shards_rebuilt_from(&v0), owners.len());
        for k in 0..4 {
            assert_eq!(Arc::ptr_eq(v0.shard(k), v1.shard(k)), !owners.contains(&k), "shard {k}");
            if !owners.contains(&k) {
                // A lagging untouched shard still reads epoch0 — safe
                // because no row it owns changed.
                assert_eq!(v1.shard(k).epoch(), epoch0);
            } else {
                assert_eq!(v1.shard(k).epoch(), kb.epoch());
            }
        }
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
        let a = sharded_count_distributions_tiled(&v1, &costar, &all, 4).unwrap();
        let b = sharded_count_distributions_tiled(&fresh, &costar, &all, 4).unwrap();
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
        let result = global_count_distributions_ceiling(&index, &spec, &starts, ceiling).unwrap();
        // The estimate the ceiling governs stays bounded unless an
        // overweight singleton overflowed — and those are counted.
        assert!(
            result.est_peak_rows <= ceiling || result.overflow_tiles > 0,
            "est {} over ceiling {ceiling} with no overflow tile recorded",
            result.est_peak_rows
        );
        // The overweight singletons make the *measured* peak legally
        // exceed the ceiling (~120 joined rows from one spoke's tile).
        assert!(result.overflow_tiles > 0, "expected overweight singleton tiles");
        assert!(
            result.peak_rows > ceiling,
            "expected a measured overshoot, got peak {}",
            result.peak_rows
        );
        // Answers unchanged by tiling.
        let untiled = global_count_distributions(&index, &spec, Some(&starts)).unwrap();
        assert_eq!(result.per_start, untiled);
        // Fixed-size tiling requests no ceiling, so it never reports
        // overflow.
        let fixed = global_count_distributions_tiled(&index, &spec, &starts, 8).unwrap();
        assert_eq!(fixed.overflow_tiles, 0);
    }

    /// A sharded batch stages and publishes exactly like an unsharded
    /// one: scoped counters observe the full eval, every worker's tiles,
    /// and the probe/scan row traffic (harvested from worker threads and
    /// replayed on the batch thread).
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
        let buckets = sharded.split_starts(&all).into_iter().filter(|b| !b.is_empty()).count();
        let scope = crate::metrics::scoped();
        let before = scope.counts();
        sharded_count_distributions_tiled(&sharded, &spec, &all, 4).unwrap();
        let after = scope.counts().since(&before);
        // `>=` throughout: other tests run concurrently against the same
        // process-wide counters.
        assert!(after.full >= 1);
        assert!(after.tiles >= buckets, "tiles {} < buckets {buckets}", after.tiles);
        assert!(after.rows_probed >= 1, "worker probe traffic lost");
    }
}
