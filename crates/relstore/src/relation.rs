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
    /// once. Used by posting-list probes to lift a row-id list into a
    /// relation the join pipeline can consume.
    pub fn gather(&self, indices: &[u32]) -> Relation {
        let mut out = Relation::with_capacity(self.schema.clone(), indices.len());
        for &i in indices {
            out.data.extend_from_slice(self.row(i as usize));
        }
        out
    }
}

/// A sorted posting structure over one column of a relation: a row
/// permutation grouped by the column's value, with CSR offsets so the
/// rows carrying value `keys[i]` are exactly `perm[offsets[i] ..
/// offsets[i + 1]]` — the classic adjacency-indexed layout graph engines
/// use to make a selection on the column cost O(log keys + matching
/// rows) instead of a full scan.
///
/// Each key's rows are ordered by a second column (`then`), so rows equal
/// on both columns sit next to each other: the evaluator reads an edge
/// partition as a *set* of `(from, to)` pairs by skipping a row equal to
/// the one before it.
///
/// The posting is a *snapshot* of the relation it was built from: it
/// holds row indices, so it must be rebuilt whenever the relation's rows
/// change (partitions rebuild only their delta-touched postings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPosting {
    /// Sorted distinct values of the indexed column.
    keys: Vec<u64>,
    /// CSR offsets into `perm`; `len == keys.len() + 1`.
    offsets: Vec<u32>,
    /// Row indices grouped by key.
    perm: Vec<u32>,
}

impl ColumnPosting {
    /// Builds the posting over `rel`'s column `col`, each key's rows
    /// ordered by column `then`: one sort of the row permutation on the
    /// packed `(col << 32) | then` word, computed once per row, plus a
    /// linear pass — `O(rows log rows)`. Both columns must hold
    /// `u32`-range values, as entity ids do.
    pub fn build(rel: &Relation, col: usize, then: usize) -> ColumnPosting {
        let half = |v: u64| u64::from(u32::try_from(v).expect("posting columns hold u32 ids"));
        let packed: Vec<u64> =
            rel.rows().map(|row| (half(row[col]) << 32) | half(row[then])).collect();
        let mut perm: Vec<u32> = (0..rel.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| packed[i as usize]);
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (at, &i) in perm.iter().enumerate() {
            let v = packed[i as usize] >> 32;
            if keys.last() != Some(&v) {
                keys.push(v);
                offsets.push(at as u32);
            }
        }
        offsets.push(perm.len() as u32);
        ColumnPosting { keys, offsets, perm }
    }

    /// The row indices whose column value equals `key` (empty when the
    /// value is absent).
    pub fn rows_for(&self, key: u64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(k) => &self.perm[self.offsets[k] as usize..self.offsets[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Every row index, grouped by key in key order and ordered by the
    /// `then` column within a key.
    pub(crate) fn rows_in_order(&self) -> &[u32] {
        &self.perm
    }

    /// Number of rows whose column value equals `key`, without touching
    /// the rows — the exact per-start cardinality statistic.
    pub fn count(&self, key: u64) -> usize {
        self.rows_for(key).len()
    }

    /// Number of distinct values in the indexed column — the `V(R, a)`
    /// statistic of System-R join-selectivity estimation.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the posting indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Heap bytes held by the posting's three arrays.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>()
            + (self.offsets.len() + self.perm.len()) * std::mem::size_of::<u32>()
    }

    /// The posting's flat arrays `(keys, offsets, perm)` — the exact
    /// on-disk layout of the index snapshot format (`persist`), exposed
    /// so serialization is a plain memcpy of three arrays.
    pub(crate) fn parts(&self) -> (&[u64], &[u32], &[u32]) {
        (&self.keys, &self.offsets, &self.perm)
    }

    /// Reassembles the posting [`ColumnPosting::build`] made over `rel`'s
    /// column `col` from flat arrays (the deserialization path of the
    /// index snapshot format), validating the CSR invariants — sorted
    /// strictly-increasing keys, monotone offsets starting at 0 and ending
    /// at `perm.len() == rel.len()`, every permutation entry in range —
    /// and the row order: every row listed under a key carries that key
    /// in `col`, and each key's rows are ordered by `then`. A corrupted
    /// snapshot is rejected instead of producing out-of-bounds probes or
    /// set reads that keep a repeated row. Crucially this performs **no
    /// sorting**: loading a posting is `O(rows)` array validation, which
    /// is what makes an index load strictly cheaper than a rebuild.
    pub(crate) fn from_parts(
        keys: Vec<u64>,
        offsets: Vec<u32>,
        perm: Vec<u32>,
        rel: &Relation,
        (col, then): (usize, usize),
    ) -> Result<ColumnPosting> {
        let corrupt = |msg: &str| RelError::Corrupt(format!("posting: {msg}"));
        if offsets.len() != keys.len() + 1 {
            return Err(corrupt("offsets length must be keys + 1"));
        }
        if perm.len() != rel.len() {
            return Err(corrupt("permutation length must equal row count"));
        }
        if let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) {
            if first != 0 || last as usize != perm.len() {
                return Err(corrupt("offsets must span exactly the permutation"));
            }
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("offsets must be monotone"));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("keys must be strictly increasing"));
        }
        if perm.iter().any(|&i| i as usize >= rel.len()) {
            return Err(corrupt("permutation entry out of range"));
        }
        for (k, &key) in keys.iter().enumerate() {
            let rows = perm[offsets[k] as usize..offsets[k + 1] as usize]
                .iter()
                .map(|&i| rel.row(i as usize));
            let mut prev = 0;
            for row in rows {
                if row[col] != key {
                    return Err(corrupt("row listed under a key it does not carry"));
                }
                if row[then] < prev {
                    return Err(corrupt("a key's rows are out of order"));
                }
                prev = row[then];
            }
        }
        Ok(ColumnPosting { keys, offsets, perm })
    }
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
        let rows = [(5u64, 0u64), (2, 1), (5, 2), (9, 3), (2, 4), (5, 5)].map(|(a, b)| [a, b]);
        let r = Relation::from_rows(s, rows).unwrap();
        let p = ColumnPosting::build(&r, 0, 1);
        assert_eq!(p.len(), 6);
        assert_eq!(p.distinct_keys(), 3);
        assert!(!p.is_empty());
        assert!(p.heap_bytes() > 0);
        for (key, expect) in [(2u64, vec![1u64, 4]), (5, vec![0, 2, 5]), (9, vec![3])] {
            assert_eq!(p.count(key), expect.len());
            // A key's rows come ordered by the second column.
            let got: Vec<u64> = p.rows_for(key).iter().map(|&i| r.row(i as usize)[1]).collect();
            assert_eq!(got, expect, "key {key}");
        }
        assert_eq!(p.count(7), 0);
        assert!(p.rows_for(7).is_empty());
        // Empty relation → empty posting.
        let empty = ColumnPosting::build(&Relation::empty(Schema::new(["a"])), 0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.distinct_keys(), 0);
        assert!(empty.rows_for(0).is_empty());
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
