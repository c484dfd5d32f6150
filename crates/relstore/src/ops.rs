//! Relational operators: filter, hash join, group-count, distinct, project.
//!
//! All operators are materialized (consume a [`Relation`], produce a
//! [`Relation`]) and allocate **per relation, not per row**: every
//! operator writes its output rows into one flat row-major buffer (see
//! [`Relation`]) and builds at most a couple of flat `u32` index
//! arrays for its hash table. The group-count operator supports
//! `HAVING count > c` and `LIMIT n` in one pass, which is what the
//! paper's distributional-measure pruning needs (§5.3.2).
//!
//! # Hashing
//!
//! Join keys and whole rows are hashed with an in-tree multiplicative
//! (Fibonacci) hash — per key value one xor, one rotate and one multiply
//! by 2⁶⁴/φ, and the table index is the product's top bits, the same
//! scheme as the engine's `(start, end)` `PairCounter`. Keys are entity
//! ids and codes, not attacker-chosen strings, so a keyed SipHash buys
//! nothing here and costs a full hash round per row.
//!
//! # Order contract
//!
//! Output order is deterministic and part of the operators' contract
//! (the differential suites pin it):
//!
//! * [`hash_join`] builds its table on the smaller input (the left one on
//!   ties) and emits matches in **probe-row order**, and within one probe
//!   row in the **build side's insertion order**. The table is CSR-style
//!   — build-row ids grouped by bucket, in insertion order — so this
//!   order falls out of one linear walk per probe row.
//! * [`distinct`] keeps the **first occurrence** of every row, in input
//!   order.
//! * [`filter`] and [`project`] preserve input order; [`group_count`]
//!   emits groups in first-occurrence order of their key.

use crate::expr::Predicate;
use crate::relation::{Relation, Schema};
use crate::Result;

/// 2⁶⁴ / φ — the Fibonacci-hashing multiplier.
pub(crate) const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds one value into a running multiplicative hash.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(32) ^ v).wrapping_mul(FIB_HASH)
}

/// Hash of the values at `cols` of `row`.
#[inline]
fn hash_cols(row: &[u64], cols: &[usize]) -> u64 {
    cols.iter().fold(0, |h, &c| mix(h, row[c]))
}

/// Hash of a whole row.
#[inline]
fn hash_row(row: &[u64]) -> u64 {
    row.iter().fold(0, |h, &v| mix(h, v))
}

/// Filters rows by a predicate.
pub fn filter(rel: &Relation, pred: &Predicate) -> Relation {
    let mut data = Vec::new();
    for row in rel.rows().filter(|r| pred.eval(r)) {
        data.extend_from_slice(row);
    }
    Relation::from_flat(rel.schema().clone(), data).expect("filter preserves arity")
}

/// Projects onto the given column indices (may repeat / reorder; at least
/// one column): one strided copy into a buffer reserved once.
pub fn project(rel: &Relation, cols: &[usize]) -> Relation {
    let names: Vec<String> = cols.iter().map(|&c| rel.schema().names()[c].clone()).collect();
    let mut data = Vec::with_capacity(rel.len() * cols.len());
    for row in rel.rows() {
        data.extend(cols.iter().map(|&c| row[c]));
    }
    Relation::from_flat(Schema::new(names), data).expect("projection arity matches schema")
}

/// A hash table over one relation's join-key columns, CSR-style: the
/// build rows' ids grouped by hash bucket, in insertion order, with
/// `offsets[b] .. offsets[b + 1]` delimiting bucket `b`. Building costs
/// two flat `u32` arrays and no per-row allocation; a probe walks one
/// bucket and compares key columns directly against the build rows.
pub(crate) struct JoinTable<'a> {
    rel: &'a Relation,
    keys: &'a [usize],
    /// `64 - log2(buckets)`: a hash's top bits pick its bucket.
    shift: u32,
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

impl<'a> JoinTable<'a> {
    /// Builds the table over `rel` keyed on the columns `keys`.
    pub(crate) fn build(rel: &'a Relation, keys: &'a [usize]) -> JoinTable<'a> {
        let n = rel.len();
        assert!(n <= u32::MAX as usize, "join build side exceeds u32 row ids");
        let bits = n.max(2).next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        let buckets = 1usize << bits;
        let bucket = |row: &[u64]| (hash_cols(row, keys) >> shift) as usize;
        // Counting sort of row ids by bucket: count, prefix-sum into
        // bucket starts, scatter (advancing each start to its bucket's
        // end), then shift the starts back into place.
        let mut offsets = vec![0u32; buckets + 1];
        for row in rel.rows() {
            offsets[bucket(row) + 1] += 1;
        }
        for b in 0..buckets {
            offsets[b + 1] += offsets[b];
        }
        let mut entries = vec![0u32; n];
        for (i, row) in rel.rows().enumerate() {
            let slot = &mut offsets[bucket(row)];
            entries[*slot as usize] = i as u32;
            *slot += 1;
        }
        offsets.copy_within(0..buckets, 1);
        offsets[0] = 0;
        JoinTable { rel, keys, shift, offsets, entries }
    }

    /// The build rows whose key columns equal `probe_row`'s `probe_keys`
    /// columns, in build insertion order.
    #[inline]
    pub(crate) fn matches<'t>(
        &'t self,
        probe_row: &'t [u64],
        probe_keys: &'t [usize],
    ) -> impl Iterator<Item = &'a [u64]> + 't
    where
        'a: 't,
    {
        let b = (hash_cols(probe_row, probe_keys) >> self.shift) as usize;
        self.entries[self.offsets[b] as usize..self.offsets[b + 1] as usize]
            .iter()
            .map(move |&i| self.rel.row(i as usize))
            .filter(move |row| {
                self.keys.iter().zip(probe_keys).all(|(&bk, &pk)| row[bk] == probe_row[pk])
            })
    }
}

/// The equi-join driver behind [`hash_join`]: builds on the smaller input
/// (left on ties) and calls `emit(left_row, right_row)` for every match,
/// in the module's order contract. Callers decide what each output row
/// holds, so a join that needs only some right-hand columns copies just
/// those.
pub(crate) fn join_rows<F: FnMut(&[u64], &[u64])>(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
    mut emit: F,
) {
    assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
    if left.len() <= right.len() {
        let table = JoinTable::build(left, left_keys);
        for r in right.rows() {
            for l in table.matches(r, right_keys) {
                emit(l, r);
            }
        }
    } else {
        let table = JoinTable::build(right, right_keys);
        for l in left.rows() {
            for r in table.matches(l, left_keys) {
                emit(l, r);
            }
        }
    }
}

/// Hash equi-join on `left[left_keys[i]] == right[right_keys[i]]`.
///
/// The smaller side is built into the hash table. Output schema is
/// `left.schema ++ right.schema` (right duplicates suffixed, see
/// [`Schema::join`]); output order follows the module's order contract.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Relation {
    let schema = left.schema().join(right.schema());
    let mut data = Vec::new();
    join_rows(left, right, left_keys, right_keys, |l, r| {
        data.extend_from_slice(l);
        data.extend_from_slice(r);
    });
    Relation::from_flat(schema, data).expect("join arity matches schema")
}

/// An open-addressed set of distinct rows that owns the rows themselves:
/// a flat row-major buffer in first-insertion order plus a table of
/// `row id + 1` slots (0 = empty), grown at half load. The shared kernel
/// of [`distinct`], [`group_count_having_limit`] and the evaluator's
/// final dedup.
pub(crate) struct RowSet {
    arity: usize,
    data: Vec<u64>,
    slots: Vec<u32>,
    shift: u32,
}

impl RowSet {
    /// An empty set of `arity`-wide rows.
    pub(crate) fn new(arity: usize) -> RowSet {
        assert!(arity > 0, "rows need at least one column");
        RowSet { arity, data: Vec::new(), slots: vec![0; 16], shift: 64 - 4 }
    }

    /// Distinct rows held.
    pub(crate) fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    fn row(&self, id: usize) -> &[u64] {
        &self.data[id * self.arity..(id + 1) * self.arity]
    }

    /// Inserts `row` unless an equal row is present. Returns the row's id
    /// (its first-insertion position) and whether it was new.
    pub(crate) fn insert(&mut self, row: &[u64]) -> (usize, bool) {
        debug_assert_eq!(row.len(), self.arity);
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash_row(row) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                0 => {
                    let id = self.len();
                    assert!(id < u32::MAX as usize, "distinct rows exceed u32 ids");
                    self.data.extend_from_slice(row);
                    self.slots[i] = id as u32 + 1;
                    return (id, true);
                }
                s if self.row(s as usize - 1) == row => return (s as usize - 1, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        self.slots = vec![0; doubled];
        self.shift = 64 - doubled.trailing_zeros();
        let mask = doubled - 1;
        for id in 0..self.len() {
            let mut i = (hash_row(self.row(id)) >> self.shift) as usize;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }

    /// The distinct rows, in first-insertion order, under `schema`.
    pub(crate) fn into_relation(self, schema: Schema) -> Relation {
        assert_eq!(schema.arity(), self.arity, "schema must match the set's row width");
        Relation::from_flat(schema, self.data).expect("rows have the set's arity")
    }
}

/// Removes duplicate rows (exact equality), keeping each row's first
/// occurrence in input order.
pub fn distinct(rel: &Relation) -> Relation {
    let mut set = RowSet::new(rel.arity());
    for row in rel.rows() {
        set.insert(row);
    }
    set.into_relation(rel.schema().clone())
}

/// `GROUP BY key_cols` with `count(*)`, then `HAVING count > having_gt`,
/// then `LIMIT limit`. Pass `having_gt = 0` and `limit = usize::MAX` for the
/// unpruned query. The output schema is the key columns (at least one)
/// plus `count`; groups appear in first-occurrence order of their key.
///
/// The LIMIT applies *after* HAVING, matching SQL semantics; because the
/// caller (distribution position counting) only needs `min(limit, total)`
/// qualifying groups, the operator stops emitting groups once the limit
/// is reached.
pub fn group_count_having_limit(
    rel: &Relation,
    key_cols: &[usize],
    having_gt: u64,
    limit: usize,
) -> Result<Relation> {
    let mut names: Vec<String> =
        key_cols.iter().map(|&c| rel.schema().names()[c].clone()).collect();
    names.push("count".to_string());

    let mut groups = RowSet::new(key_cols.len());
    let mut counts: Vec<u64> = Vec::new();
    let mut key: Vec<u64> = Vec::with_capacity(key_cols.len());
    for row in rel.rows() {
        key.clear();
        key.extend(key_cols.iter().map(|&c| row[c]));
        match groups.insert(&key) {
            (_, true) => counts.push(1),
            (id, false) => counts[id] += 1,
        }
    }
    let mut data = Vec::new();
    let mut emitted = 0usize;
    for (id, &count) in counts.iter().enumerate() {
        if emitted >= limit {
            break;
        }
        if count > having_gt {
            data.extend_from_slice(groups.row(id));
            data.push(count);
            emitted += 1;
        }
    }
    Relation::from_flat(Schema::new(names), data)
}

/// Convenience: unrestricted `GROUP BY … count(*)`.
pub fn group_count(rel: &Relation, key_cols: &[usize]) -> Result<Relation> {
    group_count_having_limit(rel, key_cols, 0, usize::MAX)
}

/// Streaming hash equi-join: like [`hash_join`], but instead of
/// materializing the output, invokes `on_row(left_row, right_row)` for
/// every match and stops as soon as the callback returns `false`.
///
/// This is the pipelined execution a SQL engine uses to make `LIMIT`
/// clauses abort upstream work early (§5.3.2's pruning); the materialized
/// operators above cannot stop mid-join. The table is always built on the
/// left (assumed smaller by the caller), so matches stream in right-row
/// order, then left insertion order.
pub fn hash_join_streaming<F: FnMut(&[u64], &[u64]) -> bool>(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
    mut on_row: F,
) {
    assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
    let table = JoinTable::build(left, left_keys);
    for r in right.rows() {
        for l in table.matches(r, right_keys) {
            if !on_row(l, r) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(names: &[&str], rows: &[&[u64]]) -> Relation {
        Relation::from_rows(Schema::new(names.iter().copied()), rows.iter().copied()).unwrap()
    }

    fn collect(rel: &Relation) -> Vec<Vec<u64>> {
        rel.rows().map(<[u64]>::to_vec).collect()
    }

    #[test]
    fn filter_and_project() {
        let r = rel(&["a", "b"], &[&[1, 10], &[2, 20], &[1, 30]]);
        let f = filter(&r, &Predicate::ColEqConst { col: 0, value: 1 });
        assert_eq!(f.len(), 2);
        let p = project(&f, &[1]);
        assert_eq!(p.schema().names(), &["b"]);
        let vals: Vec<u64> = p.rows().map(|r| r[0]).collect();
        assert_eq!(vals, vec![10, 30]);
    }

    #[test]
    fn join_matches_nested_loop() {
        let l = rel(&["a", "b"], &[&[1, 2], &[3, 4], &[1, 9]]);
        let r = rel(&["c", "d"], &[&[2, 100], &[4, 200], &[2, 300]]);
        let j = hash_join(&l, &r, &[1], &[0]);
        // Nested-loop reference.
        let mut expected = Vec::new();
        for lr in l.rows() {
            for rr in r.rows() {
                if lr[1] == rr[0] {
                    expected.push(vec![lr[0], lr[1], rr[0], rr[1]]);
                }
            }
        }
        let mut got = collect(&j);
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
        assert_eq!(j.schema().names(), &["a", "b", "c", "d"]);
    }

    #[test]
    fn join_builds_on_smaller_side_same_result() {
        let small = rel(&["a"], &[&[1]]);
        let large = rel(&["b"], &[&[1], &[1], &[2]]);
        let j1 = hash_join(&small, &large, &[0], &[0]);
        assert_eq!(j1.len(), 2);
        // Column order must follow (left, right) regardless of build side.
        assert_eq!(j1.schema().names(), &["a", "b"]);
        let j2 = hash_join(&large, &small, &[0], &[0]);
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.schema().names(), &["b", "a"]);
    }

    #[test]
    fn join_name_collision_gets_suffix() {
        let l = rel(&["a", "x"], &[&[1, 2]]);
        let r = rel(&["x", "b"], &[&[2, 3]]);
        let j = hash_join(&l, &r, &[1], &[0]);
        assert_eq!(j.schema().names(), &["a", "x", "x.r", "b"]);
    }

    #[test]
    fn join_order_is_probe_then_build_insertion() {
        // Build side = left (smaller): probe rows drive the order, and
        // within one probe row the build rows appear in insertion order.
        let l = rel(&["k", "tag"], &[&[1, 10], &[2, 20], &[1, 11]]);
        let r = rel(&["k", "x"], &[&[2, 0], &[1, 1], &[9, 2], &[1, 3]]);
        let j = hash_join(&l, &r, &[0], &[0]);
        assert_eq!(
            collect(&j),
            vec![
                vec![2, 20, 2, 0],
                vec![1, 10, 1, 1],
                vec![1, 11, 1, 1],
                vec![1, 10, 1, 3],
                vec![1, 11, 1, 3],
            ]
        );
    }

    #[test]
    fn two_key_join_requires_both_columns() {
        let l = rel(&["a", "b"], &[&[1, 2], &[1, 3], &[2, 2]]);
        let r = rel(&["c", "d"], &[&[1, 2], &[2, 2], &[1, 3], &[3, 1]]);
        let j = hash_join(&l, &r, &[0, 1], &[0, 1]);
        let mut got = collect(&j);
        got.sort();
        assert_eq!(got, vec![vec![1, 2, 1, 2], vec![1, 3, 1, 3], vec![2, 2, 2, 2]]);
    }

    #[test]
    fn distinct_dedups() {
        let r = rel(&["a", "b"], &[&[1, 2], &[1, 2], &[3, 4]]);
        assert_eq!(distinct(&r).len(), 2);
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order_across_growth() {
        let rows: Vec<[u64; 2]> = (0..200u64).map(|i| [i % 37, i % 5]).collect();
        let r = Relation::from_rows(Schema::new(["a", "b"]), &rows).unwrap();
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Vec<u64>> =
            rows.iter().filter(|row| seen.insert(**row)).map(|row| row.to_vec()).collect();
        assert_eq!(collect(&distinct(&r)), expected);
    }

    #[test]
    fn group_count_basic() {
        let r = rel(&["g", "v"], &[&[1, 0], &[1, 0], &[2, 0], &[1, 0]]);
        let g = group_count(&r, &[0]).unwrap();
        // First-occurrence order of the keys.
        assert_eq!(collect(&g), vec![vec![1, 3], vec![2, 1]]);
        assert_eq!(g.schema().names(), &["g", "count"]);
    }

    #[test]
    fn having_and_limit() {
        let r = rel(&["g"], &[&[1], &[1], &[1], &[2], &[2], &[3]]);
        let g = group_count_having_limit(&r, &[0], 1, usize::MAX).unwrap();
        // groups with count > 1: {1:3, 2:2}
        assert_eq!(g.len(), 2);
        let g = group_count_having_limit(&r, &[0], 1, 1).unwrap();
        assert_eq!(g.len(), 1);
        let g = group_count_having_limit(&r, &[0], 10, usize::MAX).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let e = rel(&["a"], &[]);
        assert!(filter(&e, &Predicate::always()).is_empty());
        assert!(distinct(&e).is_empty());
        assert!(group_count(&e, &[0]).unwrap().is_empty());
        let r = rel(&["b"], &[&[1]]);
        assert!(hash_join(&e, &r, &[0], &[0]).is_empty());
        assert!(hash_join(&r, &e, &[0], &[0]).is_empty());
    }
}
