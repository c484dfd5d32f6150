//! Relations: schemas and flat row-major row storage, and the
//! [`ColumnPosting`] adjacency lists the edge index stores instead of
//! relations. A posting holds entity ids, so its keys, lists, offsets
//! and key directory are all `u32`: a key costs 4 bytes, and so does a
//! pair.
//!
//! A [`Relation`] keeps all of its rows in **one** `Vec<u64>`, row after
//! row, with the schema's arity as the stride: row `i` is
//! `data[i * arity .. (i + 1) * arity]`. Everything REX stores
//! relationally (node ids, label ids, orientation codes, counts) fits in
//! a `u64`, so a relation of `n` rows costs exactly `8 · arity · n` bytes
//! of row data and one heap allocation, however many rows it holds.
//! Operators therefore allocate per relation, never per row:
//! [`Relation::rows`] hands out `&[u64]` row slices from a
//! `chunks_exact` walk, and [`Relation::push`] copies a slice onto the
//! end of the buffer.
//!
//! Arity is at least 1 (a zero-width schema has no stride to walk by);
//! constructors reject it loudly.

use crate::{RelError, Result};

/// Ordered, named columns of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    /// Builds a schema from column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        Schema { columns: names.into_iter().map(Into::into).collect() }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The index of a named column.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.columns
    }

    /// Concatenates two schemas (used by joins). Right-side duplicates get a
    /// `.r` suffix so every column name stays unique.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            if columns.iter().any(|x| x == c) {
                columns.push(format!("{c}.r"));
            } else {
                columns.push(c.clone());
            }
        }
        Schema { columns }
    }
}

/// A materialized relation: a schema plus its rows, stored flat and
/// row-major (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    /// `len() * arity` values, row after row.
    data: Vec<u64>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    ///
    /// # Panics
    /// When the schema has no columns.
    pub fn empty(schema: Schema) -> Self {
        Self::from_flat(schema, Vec::new()).expect("an empty buffer holds no partial row")
    }

    /// Creates a relation from row-major values (`rows * arity` of them).
    ///
    /// # Panics
    /// When the schema has no columns.
    pub fn from_flat(schema: Schema, data: Vec<u64>) -> Result<Self> {
        assert!(schema.arity() > 0, "relations need at least one column");
        let arity = schema.arity();
        if !data.len().is_multiple_of(arity) {
            return Err(RelError::Arity { expected: arity, got: data.len() % arity });
        }
        Ok(Relation { schema, data })
    }

    /// Creates a relation from individual rows, validating each row's
    /// arity (a convenience for tests and small fixtures; operators write
    /// flat buffers directly).
    ///
    /// # Panics
    /// When the schema has no columns.
    pub fn from_rows<R: AsRef<[u64]>, I: IntoIterator<Item = R>>(
        schema: Schema,
        rows: I,
    ) -> Result<Self> {
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.push(row.as_ref())?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns (the row stride).
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The rows, in order, as `&[u64]` slices of the flat buffer.
    #[inline]
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.data.chunks_exact(self.arity())
    }

    /// Row `i`.
    ///
    /// # Panics
    /// When `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let arity = self.arity();
        &self.data[i * arity..(i + 1) * arity]
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.arity()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row, validating arity.
    pub fn push(&mut self, row: &[u64]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(RelError::Arity { expected: self.arity(), got: row.len() });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }
}

/// A sorted posting structure over a list of `(key, other)` id pairs,
/// in CSR form: the sorted distinct keys (`keys`), and for each key
/// `keys[i]` the other ids paired with it, ascending, at
/// `others[offsets[i] .. offsets[i + 1]]` — one entry per pair, so a pair
/// listed twice repeats its other id. Over an edge partition's `(from,
/// to)` rows these are the partition's out-adjacency lists; over its
/// `(to, from)` rows, its in-adjacency lists. Keys and other ids are
/// `u32` entity ids; a lookup of a key outside that range finds nothing.
///
/// A *key directory* finds a key's position. It splits the range from
/// the first key to the last into buckets of one power-of-two width, the
/// widest that still leaves a bucket per four keys (so a bucket holds two
/// to four keys on average), and records the position of each bucket's
/// first key. A selection on a key shifts its distance from the first
/// key to a bucket and binary-searches that bucket's few keys, then
/// hands back the key's other ids as one contiguous sorted slice, which
/// the depth-first executor intersects directly. The directory is
/// derived from the keys when the posting is built.
///
/// A posting is immutable: an edited partition builds new ones
/// (partitions rebuild only their delta-touched postings).
///
/// [`build`]: ColumnPosting::build
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPosting {
    /// Sorted distinct keys.
    keys: Vec<u32>,
    /// CSR offsets into `others`; `len == keys.len() + 1`.
    offsets: Vec<u32>,
    /// Each key's other ids, ascending, grouped by key.
    others: Vec<u32>,
    /// The key directory: bucket `b` holds the keys `k` with
    /// `(k - base) >> shift == b`, at positions `directory[b] ..
    /// directory[b + 1]`; the last entry is `keys.len()`.
    directory: Vec<u32>,
    /// The first key (0 when there are none).
    base: u32,
    /// Log2 of the directory's bucket width.
    shift: u32,
}

/// The most keys a key directory's buckets hold on average.
const KEYS_PER_BUCKET: usize = 4;

impl ColumnPosting {
    /// Builds the posting of `(key, other)` pairs given in any order: one
    /// sort of the packed `(key << 32) | other` words plus a linear pass —
    /// `O(pairs log pairs)`. Both ids must be `u32`-range values, as
    /// entity ids are.
    pub fn build(pairs: impl IntoIterator<Item = (u64, u64)>) -> ColumnPosting {
        let mut packed: Vec<u64> = pairs
            .into_iter()
            .map(|(key, other)| u64::from(u32_id(key)) << 32 | u64::from(u32_id(other)))
            .collect();
        packed.sort_unstable();
        let lists = || packed.chunk_by(|a, b| a >> 32 == b >> 32);
        let mut writer = PostingWriter::with_capacity(lists().count(), packed.len());
        for list in lists() {
            writer.open((list[0] >> 32) as u32);
            writer.extend(list.iter().map(|&p| p as u32));
        }
        writer.finish()
    }

    /// A posting over CSR arrays that satisfy its invariants, with the
    /// key directory derived from the keys in one pass.
    fn assemble(keys: Vec<u32>, offsets: Vec<u32>, others: Vec<u32>) -> ColumnPosting {
        let base = keys.first().copied().unwrap_or(0);
        let span = keys.last().map_or(0, |&last| u64::from(last - base));
        // The widest power-of-two bucket that still leaves at least
        // `keys / KEYS_PER_BUCKET` buckets over the key range.
        let target = (keys.len() / KEYS_PER_BUCKET).max(1) as u64;
        let mut shift = 0;
        while shift < 32 && (span >> (shift + 1)) + 1 >= target {
            shift += 1;
        }
        let mut directory = Vec::with_capacity((span >> shift) as usize + 2);
        for (at, &key) in keys.iter().enumerate() {
            directory.resize((u64::from(key - base) >> shift) as usize + 1, at as u32);
        }
        directory.push(keys.len() as u32);
        ColumnPosting { keys, offsets, others, directory, base, shift }
    }

    /// The other ids paired with `key`, ascending (empty when the key is
    /// absent).
    pub fn neighbours(&self, key: u64) -> &[u32] {
        self.position(key).map_or(&[], |k| self.list(k))
    }

    /// The position of `key` among the sorted keys, if present: a binary
    /// search of the one directory bucket that can hold it.
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        let key = u32::try_from(key).ok()?;
        let bucket = (u64::from(key.checked_sub(self.base)?) >> self.shift) as usize;
        let &[lo, hi] = self.directory.get(bucket..bucket.checked_add(2)?)? else {
            return None;
        };
        let (lo, hi) = (lo as usize, hi as usize);
        self.keys.get(lo..hi)?.binary_search(&key).ok().map(|at| lo + at)
    }

    /// The list of the key at position `k`.
    pub(crate) fn list(&self, k: usize) -> &[u32] {
        &self.others[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// The sorted distinct keys.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Every `(key, list)` pair, in key order.
    pub(crate) fn lists(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        self.keys.iter().enumerate().map(|(k, &key)| (key, self.list(k)))
    }

    /// Number of pairs carrying `key` — the exact per-start cardinality
    /// statistic.
    pub fn count(&self, key: u64) -> usize {
        self.neighbours(key).len()
    }

    /// Number of distinct keys — the `V(R, a)` statistic of System-R
    /// join-selectivity estimation.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total pairs indexed.
    pub fn len(&self) -> usize {
        self.others.len()
    }

    /// Whether the posting indexes no pairs.
    pub fn is_empty(&self) -> bool {
        self.others.is_empty()
    }

    /// Heap bytes held by the posting: its keys, offsets and other ids,
    /// and its key directory, all `u32`.
    pub fn heap_bytes(&self) -> usize {
        (self.keys.len() + self.offsets.len() + self.others.len() + self.directory.len())
            * std::mem::size_of::<u32>()
    }
}

/// A [`ColumnPosting`] written list by list in ascending key order into
/// arrays allocated once, at their final size: the build path for lists
/// that arrive sorted, as a knowledge base's adjacency holds them.
#[derive(Debug)]
pub(crate) struct PostingWriter {
    keys: Vec<u32>,
    offsets: Vec<u32>,
    others: Vec<u32>,
}

impl PostingWriter {
    /// A writer for `keys` lists holding `pairs` pairs in all.
    pub(crate) fn with_capacity(keys: usize, pairs: usize) -> PostingWriter {
        PostingWriter {
            keys: Vec::with_capacity(keys),
            offsets: Vec::with_capacity(keys + 1),
            others: Vec::with_capacity(pairs),
        }
    }

    /// Starts `key`'s list; `key` must exceed every key opened before.
    pub(crate) fn open(&mut self, key: u32) {
        debug_assert!(self.keys.last().is_none_or(|&last| last < key), "keys ascend");
        self.keys.push(key);
        self.offsets.push(u32::try_from(self.others.len()).expect("posting pairs fit u32"));
    }

    /// Appends `others` to the open list; a list's ids must not descend.
    pub(crate) fn extend(&mut self, others: impl IntoIterator<Item = u32>) {
        self.others.extend(others);
    }

    /// Whether no list has been opened.
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The posting written, with its key directory. Every list opened
    /// must hold at least one id.
    pub(crate) fn finish(mut self) -> ColumnPosting {
        self.offsets.push(u32::try_from(self.others.len()).expect("posting pairs fit u32"));
        ColumnPosting::assemble(self.keys, self.offsets, self.others)
    }
}

/// `v` as a `u32` id; panics outside that range.
fn u32_id(v: u64) -> u32 {
    u32::try_from(v).expect("posting pairs hold u32 ids")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(matches!(s.index_of("z"), Err(RelError::UnknownColumn(_))));
    }

    #[test]
    fn schema_join_dedups_names() {
        let l = Schema::new(["a", "b"]);
        let r = Schema::new(["b", "c"]);
        let j = l.join(&r);
        assert_eq!(j.names(), &["a", "b", "b.r", "c"]);
    }

    #[test]
    fn flat_layout_is_row_major() {
        let r = Relation::from_rows(Schema::new(["a", "b"]), [[1u64, 2], [3, 4]]).unwrap();
        assert_eq!(r.row(1), &[3, 4]);
        assert_eq!(r.rows().len(), 2);
        let same = Relation::from_flat(Schema::new(["a", "b"]), vec![1, 2, 3, 4]).unwrap();
        assert_eq!(same, r);
        assert!(Relation::from_flat(Schema::new(["a", "b"]), vec![1, 2, 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_arity_is_rejected() {
        let _ = Relation::empty(Schema::new(Vec::<String>::new()));
    }

    #[test]
    fn column_posting_ranges_cover_exactly_matching_rows() {
        let p = ColumnPosting::build([(5u64, 7u64), (2, 1), (5, 2), (9, 3), (2, 4), (5, 2)]);
        assert_eq!(p.len(), 6);
        assert_eq!(p.distinct_keys(), 3);
        assert_eq!(p.keys(), &[2, 5, 9]);
        assert!(!p.is_empty());
        assert!(p.heap_bytes() > 0);
        // A key's list holds its other ids ascending, a repeated pair once
        // per listing.
        for (key, expect) in [(2u64, vec![1u32, 4]), (5, vec![2, 2, 7]), (9, vec![3])] {
            assert_eq!(p.count(key), expect.len());
            assert_eq!(p.neighbours(key), &expect[..], "key {key}");
        }
        assert_eq!(p.count(7), 0);
        assert!(p.neighbours(7).is_empty());
        // No pairs → empty posting.
        let empty = ColumnPosting::build([]);
        assert!(empty.is_empty());
        assert_eq!(empty.distinct_keys(), 0);
        assert!(empty.neighbours(0).is_empty());
    }

    /// A key set of one kind, ascending and distinct, in the `u32` range:
    /// empty, one key, a dense run, clusters of nearby keys separated by
    /// wide gaps, or keys spread over the whole range. `base` anchors
    /// the set; `len` sizes it; each `(gap, run, step)` of `clusters` is
    /// a cluster `gap` past the previous one, `run` keys `step` apart.
    /// Every kind can reach `u32::MAX`, which the key space ends at.
    fn key_set(kind: u8, base: u32, len: usize, clusters: &[(u32, usize, u32)]) -> Vec<u64> {
        let top = u64::from(u32::MAX);
        let base = u64::from(base);
        let mut keys: Vec<u64> = match kind {
            0 => Vec::new(),
            1 => vec![if len.is_multiple_of(2) { top } else { base }],
            2 => (0..len as u64).map(|i| (base + i).min(top)).collect(),
            3 => {
                let mut at = base;
                let mut keys = Vec::new();
                for &(gap, run, step) in clusters {
                    at = (at + u64::from(gap)).min(top);
                    for _ in 0..run {
                        keys.push(at);
                        at = (at + u64::from(step)).min(top);
                    }
                }
                keys
            }
            _ => (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(base) % (top + 1))
                .chain([top])
                .collect(),
        };
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    proptest! {
        /// The key directory against a whole-array binary search: every
        /// key, every value inside a gap between keys, below the first key
        /// and past the last (ids beyond `u32::MAX` included), on a
        /// posting from `build`; `heap_bytes` counts every array, directory
        /// included, and the directory's buckets hold two to four keys on
        /// average.
        #[test]
        fn key_directory_matches_binary_search(
            kind in 0u8..5,
            base in 0u32..=u32::MAX,
            len in 1usize..300,
            clusters in proptest::collection::vec(
                (0u32..=u32::MAX, 1usize..40, 1u32..4),
                0..6,
            ),
            fanout in 1u64..4,
        ) {
            let keys = key_set(kind, base, len, &clusters);
            let pairs = keys.iter().flat_map(|&k| (0..fanout).map(move |o| (k, (k + o) % 7)));
            let posting = ColumnPosting::build(pairs);
            let keys32: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
            prop_assert_eq!(posting.keys(), &keys32[..]);

            let top = u64::from(u32::MAX);
            let mut probes = vec![0, 1, top - 1, top, top + 1, top << 1, u64::MAX];
            for &key in &keys {
                probes.extend([key.saturating_sub(1), key, key + 1, key + 2]);
            }
            for w in keys.windows(2) {
                probes.push(w[0] + (w[1] - w[0]) / 2);
            }
            for &probe in &probes {
                prop_assert_eq!(
                    posting.position(probe),
                    keys.binary_search(&probe).ok(),
                    "probe {} over {} keys", probe, keys.len()
                );
            }
            let word = std::mem::size_of::<u32>();
            prop_assert_eq!(
                posting.heap_bytes(),
                (keys.len() + posting.offsets.len() + posting.others.len() + posting.directory.len())
                    * word
            );
            let buckets = posting.directory.len() - 1;
            let target = (keys.len() / KEYS_PER_BUCKET).max(1);
            prop_assert!(
                keys.is_empty() || (target..2 * target).contains(&buckets),
                "{} buckets for {} keys", buckets, keys.len()
            );
        }
    }

    #[test]
    fn relation_arity_checked() {
        let s = Schema::new(["a", "b"]);
        let mut r = Relation::empty(s.clone());
        assert!(r.push(&[1, 2]).is_ok());
        assert!(r.push(&[1]).is_err());
        assert_eq!(r.len(), 1);
        assert!(Relation::from_rows(s, [vec![1u64]]).is_err());
    }
}
