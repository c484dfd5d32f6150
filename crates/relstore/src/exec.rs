//! The depth-first executor behind every indexed evaluation:
//! [`crate::plan::PatternSpec::evaluate_indexed`],
//! [`crate::engine::count_distributions`] and
//! [`crate::engine::local_position_indexed`].
//!
//! A walk follows a [`BindingPlan`] one level at a time per start value.
//! A level's candidates are the ids in the shortest of its neighbour
//! lists — the posting lists of its edges to variables already bound,
//! keyed by their values and found through each posting's key directory
//! ([`ColumnPosting`]) — that every other list holds too (a binary search
//! from a cursor that only moves forward), that differ from every bound
//! value (REX instances are injective) and that pass the variable's
//! self-loop edges. Binding one variable at a time by intersecting
//! sorted adjacency lists needs no intermediate relation (Ngo et al.,
//! "Worst-case Optimal Join Algorithms", PODS 2012): a walk's state is
//! one value per variable and one list per read.
//!
//! A *one-list end* — an enumerated last level that reads one list and
//! has no self-loop edges, as the end of a path does — skips the
//! intersection: one loop over the list passes repeated ids and the
//! values bound at earlier levels, emits every other id in ascending
//! order until the sink says stop, and adds the level's bindings once.
//!
//! A *counted tail* — the plan's last level when it binds an existential
//! and the caller only counts — is not enumerated: its instances number
//! the intersection's size, memoized on the values keying its lists,
//! minus the bound values inside it.
//!
//! Trace: `rows_probed` counts the rows of each distinct `(edge, key)`
//! list a walk reads, once however many of its starts read it, and
//! `peak_rows` is the largest number of bindings any level past the
//! start made over all the walk's starts, a counted tail's counted
//! instances included.

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

    /// Every instance of start value `start` has been emitted; returns
    /// `false` to stop the walk before the next start.
    fn start_done(&mut self, _start: u64) -> bool {
        true
    }
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

/// One evaluation's depth-first walk of a [`BindingPlan`].
pub(crate) struct Walk<'a> {
    plan: &'a BindingPlan,
    /// Per level, its reads.
    reads: Vec<Vec<Read<'a>>>,
    /// Per level, its self-loop edges with their `from` postings.
    loops: Vec<Vec<(usize, Option<&'a ColumnPosting>)>>,
    /// Whether the last level is counted instead of enumerated.
    count_tail: bool,
    /// Whether the last level is enumerated from one list with no
    /// self-loops, in [`Walk::bind_end`]'s single loop.
    one_list_end: bool,
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
        let one_list_end = !count_tail
            && plan.levels.last().is_some_and(|end| end.reads.len() == 1 && end.loops.is_empty());
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
            one_list_end,
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
            peak_rows: self.peak_rows(),
            ..EvalTrace::default()
        }
    }

    /// The most bindings any level past the start has made so far.
    pub(crate) fn peak_rows(&self) -> usize {
        self.bindings.iter().skip(1).copied().max().unwrap_or(0)
    }

    /// Binds level `i` and everything below it.
    fn descend(&mut self, i: usize, sink: &mut impl Sink) -> bool {
        let last = i + 1 == self.plan.levels.len();
        if last && self.one_list_end {
            let list = self.fetch(i, 0);
            return self.bind_end(i, list, sink);
        }
        let mut lists = std::mem::take(&mut self.lists[i]);
        lists.clear();
        for r in 0..self.reads[i].len() {
            lists.push(self.fetch(i, r));
        }
        let go = if last && self.count_tail {
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

    /// Binds the last level `i` from its one list, which has no self-loop
    /// edges to check: each distinct id of `list`, ascending, that no
    /// earlier level bound is emitted once, until the sink says stop.
    /// Equivalent to [`Walk::enumerate`] on one list, in one loop with no
    /// cursors or self-loop checks that adds the level's bindings once.
    fn bind_end(&mut self, i: usize, list: &[u32], sink: &mut impl Sink) -> bool {
        let var = self.plan.levels[i].var;
        let (mut previous, mut made, mut go) = (None, 0, true);
        for &c in list {
            if previous.replace(c) == Some(c) {
                continue;
            }
            let c = u64::from(c);
            if self.is_bound(i, c) {
                continue;
            }
            self.assignment[var] = c;
            made += 1;
            if !sink.emit(&self.assignment, 1) {
                go = false;
                break;
            }
        }
        self.bindings[i] += made;
        go
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{SpecEdge, StartBinding};
    use rex_kb::{KbBuilder, KnowledgeBase};

    /// Eight nodes; each ordered pair, self-loops included, joined by up
    /// to two parallel directed `r` edges, and each unordered pair by an
    /// undirected `s` edge, as a seeded generator says. Lists then repeat
    /// ids, hold values bound earlier in a walk, and are sometimes empty.
    fn multigraph(seed: u64) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let nodes: Vec<_> = (0..8).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for (i, &x) in nodes.iter().enumerate() {
            for (j, &y) in nodes.iter().enumerate() {
                for _ in 0..next() % 3 {
                    b.add_directed_edge(x, y, "r").unwrap();
                }
                if i <= j && next() % 3 == 0 {
                    b.add_undirected_edge(x, y, "s").unwrap();
                }
            }
        }
        b.build()
    }

    /// Shapes whose plans end in one list (a direct edge, a five-variable
    /// path, and an existential after the end) or do not (a self-loop on
    /// the end).
    fn shapes(kb: &KnowledgeBase) -> Vec<PatternSpec> {
        let r = u64::from(kb.label_by_name("r").unwrap().0);
        let s = u64::from(kb.label_by_name("s").unwrap().0);
        let e = |u: usize, v: usize, label: u64, directed: bool| SpecEdge { u, v, label, directed };
        let spec = |var_count: usize, edges: Vec<SpecEdge>| PatternSpec {
            var_count,
            start: 0,
            end: 1,
            edges,
        };
        vec![
            spec(2, vec![e(0, 1, r, true)]),
            spec(5, vec![e(0, 2, r, true), e(2, 3, s, false), e(3, 4, r, true), e(4, 1, r, true)]),
            spec(3, vec![e(0, 1, r, true), e(1, 2, s, false)]),
            spec(3, vec![e(0, 2, r, true), e(2, 1, r, true), e(1, 1, s, false)]),
        ]
    }

    /// What a walk did: each emission's assignment and multiplicity,
    /// what each start returned, and the trace.
    type Walked = (Vec<(Vec<u64>, u64)>, Vec<bool>, EvalTrace);

    /// Walks every node and one id past the KB as a start, into a sink
    /// that says stop from its `stop`-th emission on; returns what the
    /// walk did and whether it bound its last level in the one-list
    /// loop.
    fn walk(
        index: &EdgeIndex,
        spec: &PatternSpec,
        count_tail: bool,
        one_list_end: bool,
        stop: usize,
    ) -> (Walked, bool) {
        let starts: Vec<u64> = (0..=index.node_count() as u64).collect();
        let plan = spec.plan(index, &StartBinding::among(starts.iter().copied()));
        let mut walk = Walk::new(index, spec, &plan, count_tail);
        walk.one_list_end &= one_list_end;
        let mut seen = Vec::new();
        let mut sink = |assignment: &[u64], n: u64| {
            seen.push((assignment.to_vec(), n));
            seen.len() < stop
        };
        let went = starts.iter().map(|&s| walk.start(s, &mut sink)).collect();
        ((seen, went, walk.trace()), walk.one_list_end)
    }

    /// The one-list end loop against the general intersection it stands
    /// in for: the same instances in the same order, the same stops and
    /// the same trace, counting and enumerating, run to the end and
    /// stopped early.
    #[test]
    fn one_list_end_matches_the_general_intersection() {
        let mut tight_walks = 0;
        for seed in 0..4 {
            let kb = multigraph(seed);
            let index = EdgeIndex::build(&kb);
            for (idx, spec) in shapes(&kb).iter().enumerate() {
                for count_tail in [false, true] {
                    for stop in [1, 7, usize::MAX] {
                        let (walked, tight) = walk(&index, spec, count_tail, true, stop);
                        let (general, off) = walk(&index, spec, count_tail, false, stop);
                        assert!(!off);
                        assert_eq!(
                            walked, general,
                            "seed {seed} shape {idx} count_tail {count_tail} stop {stop}"
                        );
                        tight_walks += usize::from(tight);
                    }
                }
            }
        }
        // Shapes 0 and 1 end in one list either way; shape 2 only when
        // its existential is enumerated.
        assert_eq!(tight_walks, 4 * 3 * (2 + 2 + 1));
    }
}
