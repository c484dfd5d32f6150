//! The depth-first executor behind every indexed evaluation:
//! [`crate::plan::PatternSpec::evaluate_indexed`],
//! [`crate::engine::count_distributions`] and the streaming position
//! query.
//!
//! A walk follows a [`BindingPlan`] one level at a time per start value.
//! A level's candidates are the ids in the shortest of its neighbour
//! lists — the posting lists of its edges to variables already bound,
//! keyed by their values — that every other list holds too (a binary
//! search from a cursor that only moves forward), that differ from every
//! bound value (REX instances are injective) and that pass the
//! variable's self-loop edges. Binding one variable at a time by
//! intersecting sorted adjacency lists needs no intermediate relation
//! (Ngo et al., "Worst-case Optimal Join Algorithms", PODS 2012): a
//! walk's state is one value per variable and one list per read.
//!
//! A *counted tail* — the plan's last level when it binds an existential
//! and the caller only counts — is not enumerated: its instances number
//! the intersection's size, memoized on the values keying its lists,
//! minus the bound values inside it.
//!
//! Trace: `rows_probed` counts the rows of each distinct `(edge, key)`
//! list a walk reads, once (one walk per tile), and `peak_rows` is the
//! largest number of bindings any level past the start made, a counted
//! tail's counted instances included.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::engine::EdgeIndex;
use crate::metrics::EvalTrace;
use crate::ops::FIB_HASH;
use crate::plan::{BindingPlan, PatternSpec};
use crate::relation::ColumnPosting;

/// Where a walk sends the instances it finds.
pub(crate) trait Sink {
    /// `n` instances sharing `assignment`, one value per variable (a
    /// counted tail's slot is stale); returns `false` to stop the walk.
    fn emit(&mut self, assignment: &[u64], n: u64) -> bool;

    /// Every instance of start value `start` has been emitted.
    fn start_done(&mut self, _start: u64) {}
}

impl<F: FnMut(&[u64], u64) -> bool> Sink for F {
    fn emit(&mut self, assignment: &[u64], n: u64) -> bool {
        self(assignment, n)
    }
}

/// Multiplicative hashing for the tail memo's packed `u64` keys.
#[derive(Default)]
struct FibHasher(u64);

impl Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(32) ^ v).wrapping_mul(FIB_HASH);
    }
}

/// One read of a level, resolved against the index, with the list it
/// read last.
struct Read<'a> {
    edge: usize,
    key_var: usize,
    posting: Option<&'a ColumnPosting>,
    /// The key `list` was read for; `None` before the first read.
    key: Option<u64>,
    list: &'a [u32],
}

/// One tile's depth-first walk of a [`BindingPlan`].
pub(crate) struct Walk<'a> {
    plan: &'a BindingPlan,
    /// Per level, its reads.
    reads: Vec<Vec<Read<'a>>>,
    /// Per level, its self-loop edges with their `from` postings.
    loops: Vec<Vec<(usize, Option<&'a ColumnPosting>)>>,
    /// Whether the last level is counted instead of enumerated.
    count_tail: bool,
    /// The counted tail's distinct key variables, when there are at most
    /// two: their values, packed, key `memo`.
    memo_vars: Option<Vec<usize>>,
    memo: HashMap<u64, u64, BuildHasherDefault<FibHasher>>,
    /// Per edge, one bit per key of the posting it reads: set once that
    /// key's list has counted in `rows_probed`.
    counted: Vec<Vec<u64>>,
    assignment: Vec<u64>,
    /// Bindings made per level.
    bindings: Vec<usize>,
    rows_probed: usize,
    /// Per level, reused buffers for its lists and their cursors.
    lists: Vec<Vec<&'a [u32]>>,
    cursors: Vec<Vec<usize>>,
}

impl<'a> Walk<'a> {
    /// A walk of `plan` over `index`; with `count_tail`, a plan's
    /// [`BindingPlan::counted_tail`] is counted.
    pub(crate) fn new(
        index: &'a EdgeIndex,
        spec: &PatternSpec,
        plan: &'a BindingPlan,
        count_tail: bool,
    ) -> Walk<'a> {
        let levels = plan.levels.len();
        let mut counted = vec![Vec::new(); spec.edges.len()];
        let mut bits = |edge: usize, posting: Option<&ColumnPosting>| {
            counted[edge] = vec![0u64; posting.map_or(0, |p| p.distinct_keys().div_ceil(64))];
        };
        let mut reads = Vec::with_capacity(levels);
        let mut loops = Vec::with_capacity(levels);
        for level in &plan.levels {
            let mut level_reads = Vec::with_capacity(level.reads.len());
            for &r in &level.reads {
                let posting = spec.read_posting(index, r);
                bits(r.edge, posting);
                level_reads.push(Read {
                    edge: r.edge,
                    key_var: r.key_var,
                    posting,
                    key: None,
                    list: &[],
                });
            }
            let mut level_loops = Vec::with_capacity(level.loops.len());
            for &edge in &level.loops {
                let e = &spec.edges[edge];
                let posting = index.endpoint_posting(e.label, e.dir(), true);
                bits(edge, posting);
                level_loops.push((edge, posting));
            }
            reads.push(level_reads);
            loops.push(level_loops);
        }
        let count_tail = count_tail && plan.counted_tail;
        let memo_vars = plan.levels.last().filter(|_| count_tail).and_then(|tail| {
            let mut vars: Vec<usize> = tail.reads.iter().map(|r| r.key_var).collect();
            vars.sort_unstable();
            vars.dedup();
            (vars.len() <= 2).then_some(vars)
        });
        Walk {
            plan,
            reads,
            loops,
            count_tail,
            memo_vars,
            memo: HashMap::default(),
            counted,
            assignment: vec![0; spec.var_count],
            bindings: vec![0; levels],
            rows_probed: 0,
            lists: vec![Vec::new(); levels],
            cursors: vec![Vec::new(); levels],
        }
    }

    /// Walks every instance with start value `start` into `sink`;
    /// returns `false` when the sink stopped the walk.
    pub(crate) fn start(&mut self, start: u64, sink: &mut impl Sink) -> bool {
        self.assignment[self.plan.levels[0].var] = start;
        !self.holds_loops(0, start) || self.descend(1, sink)
    }

    /// The walk's trace so far: rows read and the widest level past the
    /// start.
    pub(crate) fn trace(&self) -> EvalTrace {
        EvalTrace {
            rows_probed: self.rows_probed,
            peak_rows: self.bindings.iter().skip(1).copied().max().unwrap_or(0),
            ..EvalTrace::default()
        }
    }

    /// Binds level `i` and everything below it.
    fn descend(&mut self, i: usize, sink: &mut impl Sink) -> bool {
        let mut lists = std::mem::take(&mut self.lists[i]);
        lists.clear();
        for r in 0..self.reads[i].len() {
            lists.push(self.fetch(i, r));
        }
        let go = if i + 1 == self.plan.levels.len() && self.count_tail {
            self.count(i, &lists, sink)
        } else {
            self.enumerate(i, &lists, sink)
        };
        self.lists[i] = lists;
        go
    }

    /// The list of read `r` of level `i` for its key variable's current
    /// value, reread only when that value changed.
    fn fetch(&mut self, i: usize, r: usize) -> &'a [u32] {
        let key = self.assignment[self.reads[i][r].key_var];
        let read = &mut self.reads[i][r];
        if read.key == Some(key) {
            return read.list;
        }
        read.key = Some(key);
        read.list = &[];
        let Some((posting, k)) = read.posting.and_then(|p| p.position(key).map(|k| (p, k))) else {
            return &[];
        };
        read.list = posting.list(k);
        let (edge, list) = (read.edge, read.list);
        self.note(edge, k, list.len());
        list
    }

    /// Counts a list of `len` rows, read for the key at position `k` of
    /// `edge`'s posting, unless this walk counted it already.
    fn note(&mut self, edge: usize, k: usize, len: usize) {
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        let bits = &mut self.counted[edge];
        if bits[word] & bit == 0 {
            bits[word] |= bit;
            self.rows_probed += len;
        }
    }

    /// Whether `c` has a `(c, c)` row in each self-loop edge of level `i`.
    fn holds_loops(&mut self, i: usize, c: u64) -> bool {
        for j in 0..self.loops[i].len() {
            let (edge, posting) = self.loops[i][j];
            let Some((posting, k)) = posting.and_then(|p| p.position(c).map(|k| (p, k))) else {
                return false;
            };
            let list = posting.list(k);
            self.note(edge, k, list.len());
            // A present key is a `u32` id.
            if list.binary_search(&(c as u32)).is_err() {
                return false;
            }
        }
        true
    }

    /// Calls `visit` with each distinct id every list holds, ascending,
    /// until it returns `false`; returns what the last call returned.
    fn intersect(
        &mut self,
        i: usize,
        lists: &[&'a [u32]],
        mut visit: impl FnMut(&mut Self, u64) -> bool,
    ) -> bool {
        let Some(shortest) = (0..lists.len()).min_by_key(|&j| lists[j].len()) else {
            return true;
        };
        let mut cursors = std::mem::take(&mut self.cursors[i]);
        cursors.clear();
        cursors.resize(lists.len(), 0);
        let mut go = true;
        let mut previous = None;
        'candidates: for &c in lists[shortest] {
            if previous.replace(c) == Some(c) {
                continue;
            }
            for (j, list) in lists.iter().enumerate() {
                if j == shortest {
                    continue;
                }
                let at = cursors[j] + list[cursors[j]..].partition_point(|&x| x < c);
                cursors[j] = at;
                match list.get(at) {
                    None => break 'candidates,
                    Some(&x) if x != c => continue 'candidates,
                    Some(_) => {}
                }
            }
            go = visit(self, u64::from(c));
            if !go {
                break;
            }
        }
        self.cursors[i] = cursors;
        go
    }

    /// Whether `c` is bound at a level before `i`.
    fn is_bound(&self, i: usize, c: u64) -> bool {
        self.plan.levels[..i].iter().any(|l| self.assignment[l.var] == c)
    }

    /// Enumerates level `i`'s candidates, descending into each.
    fn enumerate(&mut self, i: usize, lists: &[&'a [u32]], sink: &mut impl Sink) -> bool {
        let var = self.plan.levels[i].var;
        let last = i + 1 == self.plan.levels.len();
        self.intersect(i, lists, |walk, c| {
            if walk.is_bound(i, c) || !walk.holds_loops(i, c) {
                return true;
            }
            walk.assignment[var] = c;
            walk.bindings[i] += 1;
            if last {
                sink.emit(&walk.assignment, 1)
            } else {
                walk.descend(i + 1, sink)
            }
        })
    }

    /// Counts the counted tail at level `i`: the intersection's size
    /// minus the bound values inside it, emitted as one multiplicity.
    fn count(&mut self, i: usize, lists: &[&'a [u32]], sink: &mut impl Sink) -> bool {
        if lists.iter().any(|l| l.is_empty()) {
            return true;
        }
        // Every list is non-empty, so every key variable holds a u32 id.
        let key = self
            .memo_vars
            .as_ref()
            .map(|vars| vars.iter().fold(0u64, |packed, &v| (packed << 32) | self.assignment[v]));
        let cached = key.and_then(|k| self.memo.get(&k).copied());
        let size = match cached {
            Some(size) => size,
            None => {
                let mut size = 0u64;
                self.intersect(i, lists, |walk, c| {
                    size += u64::from(walk.holds_loops(i, c));
                    true
                });
                if let Some(k) = key {
                    self.memo.insert(k, size);
                }
                size
            }
        };
        let mut n = size;
        for l in 0..i {
            let b = self.assignment[self.plan.levels[l].var];
            let listed = u32::try_from(b)
                .is_ok_and(|b| lists.iter().all(|list| list.binary_search(&b).is_ok()));
            if listed && self.holds_loops(i, b) {
                n -= 1;
            }
        }
        self.bindings[i] += n as usize;
        n == 0 || sink.emit(&self.assignment, n)
    }
}
