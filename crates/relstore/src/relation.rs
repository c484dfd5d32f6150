//! Relations: schemas and flat row-major row storage.
//!
//! A [`Relation`] keeps all of its rows in **one** `Vec<u64>`, row after
//! row, with the schema's arity as the stride: row `i` is
//! `data[i * arity .. (i + 1) * arity]`. Everything REX stores
//! relationally (node ids, label ids, orientation codes, counts) fits in
//! a `u64`, so a relation of `n` rows costs exactly `8 · arity · n` bytes
//! of row data and one heap allocation, however many rows it holds.
//! Operators therefore allocate per relation, never per row:
//! [`Relation::rows`] hands out `&[u64]` row slices from a
//! `chunks_exact` walk, [`Relation::push`] copies a slice onto the end of
//! the buffer, and [`Relation::gather`] is a strided copy into a buffer
//! reserved once.
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
        Self::with_capacity(schema, 0)
    }

    /// Creates an empty relation with room for `rows` rows, so a writer
    /// that knows its output size reserves the buffer exactly once.
    ///
    /// # Panics
    /// When the schema has no columns.
    fn with_capacity(schema: Schema, rows: usize) -> Self {
        assert!(schema.arity() > 0, "relations need at least one column");
        let data = Vec::with_capacity(rows.saturating_mul(schema.arity()));
        Relation { schema, data }
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

    /// The row-major values of every row — the relation's whole storage.
    pub fn as_flat(&self) -> &[u64] {
        &self.data
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

    /// Removes one row equal to `row` (first match; swap-remove, so row
    /// order is not preserved — relations are bags). Returns whether a
    /// match was found. Used by delta maintenance to retract edges.
    pub fn remove_row(&mut self, row: &[u64]) -> bool {
        let Some(at) = self.rows().position(|r| r == row) else {
            return false;
        };
        let arity = self.arity();
        let last = self.len() - 1;
        if at != last {
            self.data.copy_within(last * arity..(last + 1) * arity, at * arity);
        }
        self.data.truncate(last * arity);
        true
    }

    /// Materializes the sub-relation holding exactly the rows at
    /// `indices`, in that order: one strided copy into a buffer reserved
    /// once.
    pub fn gather(&self, indices: &[u32]) -> Relation {
        let mut out = Relation::with_capacity(self.schema.clone(), indices.len());
        for &i in indices {
            out.data.extend_from_slice(self.row(i as usize));
        }
        out
    }
}

/// A sorted posting structure over one column of a relation, in CSR
/// form: the column's sorted distinct values (`keys`), and for each key
/// `keys[i]` the values the relation's second column (`then`) holds in
/// the rows carrying it, ascending, at `others[offsets[i] .. offsets[i +
/// 1]]` — one entry per row, so a value repeats once per row carrying the
/// same pair. Over an edge partition's `from` column this is the
/// partition's out-adjacency lists; over `to`, its in-adjacency lists.
/// A selection on the column costs O(log keys) and hands back the
/// matching rows' other endpoints as one contiguous sorted slice, which
/// the depth-first executor intersects directly.
///
/// The posting is a *snapshot* of the relation it was built from: it
/// copies the endpoint ids, so it must be rebuilt whenever the relation's
/// rows change (partitions rebuild only their delta-touched postings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPosting {
    /// Sorted distinct values of the indexed column.
    keys: Vec<u64>,
    /// CSR offsets into `others`; `len == keys.len() + 1`.
    offsets: Vec<u32>,
    /// Each key's `then` values, ascending, grouped by key.
    others: Vec<u32>,
}

impl ColumnPosting {
    /// Builds the posting over `rel`'s column `col`, each key's list
    /// holding column `then`: one sort of the packed `(col << 32) | then`
    /// words, one per row, plus a linear pass — `O(rows log rows)`. Both
    /// columns must hold `u32`-range values, as entity ids do.
    pub fn build(rel: &Relation, col: usize, then: usize) -> ColumnPosting {
        let mut packed: Vec<u64> =
            rel.rows().map(|row| (u32_id(row[col]) << 32) | u32_id(row[then])).collect();
        packed.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut others = Vec::with_capacity(packed.len());
        for (at, &p) in packed.iter().enumerate() {
            if keys.last() != Some(&(p >> 32)) {
                keys.push(p >> 32);
                offsets.push(at as u32);
            }
            others.push(p as u32);
        }
        offsets.push(packed.len() as u32);
        ColumnPosting { keys, offsets, others }
    }

    /// The `then` values of the rows whose column value equals `key`,
    /// ascending (empty when the value is absent).
    pub fn neighbours(&self, key: u64) -> &[u32] {
        self.position(key).map_or(&[], |k| self.list(k))
    }

    /// The position of `key` among the sorted keys, if present.
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The list of the key at position `k`.
    pub(crate) fn list(&self, k: usize) -> &[u32] {
        &self.others[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// The sorted distinct values of the indexed column.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Every `(key, list)` pair, in key order.
    pub(crate) fn lists(&self) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        self.keys.iter().enumerate().map(|(k, &key)| (key, self.list(k)))
    }

    /// Number of rows whose column value equals `key`, without touching
    /// the rows — the exact per-start cardinality statistic.
    pub fn count(&self, key: u64) -> usize {
        self.neighbours(key).len()
    }

    /// Number of distinct values in the indexed column — the `V(R, a)`
    /// statistic of System-R join-selectivity estimation.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.others.len()
    }

    /// Whether the posting indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.others.is_empty()
    }

    /// Heap bytes held by the posting's three arrays.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>()
            + (self.offsets.len() + self.others.len()) * std::mem::size_of::<u32>()
    }

    /// The posting's flat arrays `(keys, offsets, others)` — the exact
    /// on-disk layout of the index snapshot format (`persist`), exposed
    /// so serialization is a plain memcpy of three arrays.
    pub(crate) fn parts(&self) -> (&[u64], &[u32], &[u32]) {
        (&self.keys, &self.offsets, &self.others)
    }

    /// Reassembles the posting [`ColumnPosting::build`] made over `rel`'s
    /// column `col` from flat arrays (the deserialization path of the
    /// index snapshot format), validating the CSR invariants — strictly
    /// increasing `u32`-range keys, offsets starting at 0, strictly
    /// increasing (no key without a row) and ending at `others.len() ==
    /// rel.len()`, every key's list ascending — and that the lists agree
    /// with the rows: the sum of a bijective 64-bit mix over every `(key,
    /// other)` pair must equal the same sum over the rows' `(col, then)`
    /// pairs, so a list entry moved, changed or dropped is rejected
    /// unless two 64-bit sums collide. A corrupted snapshot is rejected
    /// instead of answering from lists that are not the partition's.
    /// Crucially this performs **no sorting**: loading a posting is
    /// `O(rows)` sequential validation, which is what makes an index load
    /// cheaper than a rebuild.
    pub(crate) fn from_parts(
        keys: Vec<u64>,
        offsets: Vec<u32>,
        others: Vec<u32>,
        rel: &Relation,
        (col, then): (usize, usize),
    ) -> Result<ColumnPosting> {
        let corrupt = |msg: &str| RelError::Corrupt(format!("posting: {msg}"));
        if offsets.len() != keys.len() + 1 {
            return Err(corrupt("offsets length must be keys + 1"));
        }
        if others.len() != rel.len() {
            return Err(corrupt("list entries must equal the row count"));
        }
        if offsets[0] != 0 || offsets[keys.len()] as usize != others.len() {
            return Err(corrupt("offsets must span exactly the lists"));
        }
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("offsets must be strictly increasing"));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("keys must be strictly increasing"));
        }
        if keys.last().is_some_and(|&k| k > u64::from(u32::MAX)) {
            return Err(corrupt("key outside the u32 id range"));
        }
        let posting = ColumnPosting { keys, offsets, others };
        let mut listed = 0u64;
        for (key, list) in posting.lists() {
            if list.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt("a key's list is out of order"));
            }
            for &other in list {
                listed = listed.wrapping_add(pair_mix(key, u64::from(other)));
            }
        }
        let mut stored = 0u64;
        for row in rel.rows() {
            if row[col] > u64::from(u32::MAX) || row[then] > u64::from(u32::MAX) {
                return Err(corrupt("row value outside the u32 id range"));
            }
            stored = stored.wrapping_add(pair_mix(row[col], row[then]));
        }
        if listed != stored {
            return Err(corrupt("lists disagree with the partition's rows"));
        }
        Ok(posting)
    }
}

/// `v` as a `u32`-range id, widened back; panics outside that range.
fn u32_id(v: u64) -> u64 {
    u64::from(u32::try_from(v).expect("posting columns hold u32 ids"))
}

/// The splitmix64 finalizer of the packed pair `(a << 32) | b`: a
/// bijection on `u32`-range pairs, summed over a posting's entries as an
/// order-independent fingerprint of the pairs it lists.
fn pair_mix(a: u64, b: u64) -> u64 {
    let mut x = (a << 32) | b;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(rel: &Relation) -> Vec<Vec<u64>> {
        rel.rows().map(<[u64]>::to_vec).collect()
    }

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
    fn remove_row_is_multiset_retraction() {
        let s = Schema::new(["a", "b"]);
        let mut r = Relation::empty(s);
        r.push(&[1, 2]).unwrap();
        r.push(&[1, 2]).unwrap();
        r.push(&[3, 4]).unwrap();
        assert!(r.remove_row(&[1, 2]));
        assert_eq!(r.len(), 2);
        // Swap-remove: the last row moved into the hole.
        assert_eq!(collect(&r), vec![vec![3, 4], vec![1, 2]]);
        assert!(r.remove_row(&[1, 2]));
        assert!(!r.remove_row(&[1, 2]), "both copies already retracted");
        assert!(!r.remove_row(&[9, 9]));
        assert_eq!(r.len(), 1);
        assert!(r.remove_row(&[3, 4]));
        assert!(r.is_empty());
    }

    #[test]
    fn gather_materializes_selected_rows_in_order() {
        let s = Schema::new(["a", "b"]);
        let mut r = Relation::empty(s);
        for i in 0..4u64 {
            r.push(&[i, 10 + i]).unwrap();
        }
        let g = r.gather(&[3, 1, 1]);
        assert_eq!(collect(&g), vec![vec![3, 13], vec![1, 11], vec![1, 11]]);
        assert!(r.gather(&[]).is_empty());
    }

    #[test]
    fn flat_layout_is_row_major() {
        let r = Relation::from_rows(Schema::new(["a", "b"]), [[1u64, 2], [3, 4]]).unwrap();
        assert_eq!(r.as_flat(), &[1, 2, 3, 4]);
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
        let s = Schema::new(["a", "b"]);
        let rows = [(5u64, 7u64), (2, 1), (5, 2), (9, 3), (2, 4), (5, 2)].map(|(a, b)| [a, b]);
        let r = Relation::from_rows(s, rows).unwrap();
        let p = ColumnPosting::build(&r, 0, 1);
        assert_eq!(p.len(), 6);
        assert_eq!(p.distinct_keys(), 3);
        assert_eq!(p.keys(), &[2, 5, 9]);
        assert!(!p.is_empty());
        assert!(p.heap_bytes() > 0);
        // A key's list holds the second column ascending, a repeated pair
        // once per row.
        for (key, expect) in [(2u64, vec![1u32, 4]), (5, vec![2, 2, 7]), (9, vec![3])] {
            assert_eq!(p.count(key), expect.len());
            assert_eq!(p.neighbours(key), &expect[..], "key {key}");
        }
        assert_eq!(p.count(7), 0);
        assert!(p.neighbours(7).is_empty());
        // Empty relation → empty posting.
        let empty = ColumnPosting::build(&Relation::empty(Schema::new(["a"])), 0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.distinct_keys(), 0);
        assert!(empty.neighbours(0).is_empty());
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
