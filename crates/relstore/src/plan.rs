//! Compiling explanation-pattern shapes into evaluation plans.
//!
//! A [`PatternSpec`] is the relational shadow of an explanation pattern: a
//! set of variables (two of which are the start and end targets) and a
//! multiset of labeled, optionally-directed edges between them. The paper
//! encodes each pattern edge as one occurrence of the edge table in the
//! `FROM` clause and the connectivity as `WHERE` equalities. Over an
//! [`EdgeIndex`], a pattern is evaluated depth-first instead
//! ([`PatternSpec::plan`], [`BindingPlan`]): one variable at a time per
//! start, each variable's candidates the intersection of the sorted
//! neighbour lists of its edges to variables already bound — a
//! worst-case-optimal join that builds no intermediate relation. The
//! definitional evaluation over the unindexed edge relation
//! ([`PatternSpec::evaluate`]) and the fixed-order baseline
//! ([`PatternSpec::evaluate_indexed_in_order`]) still materialize a
//! left-deep hash-join tree, one column per pattern variable; they are
//! the oracle and the benchmark baseline.

use std::borrow::Cow;

use crate::budget::Budget;
use crate::engine::EdgeIndex;
use crate::exec::{Sink, Walk};
use crate::expr::Predicate;
use crate::metrics::EvalTrace;
use crate::ops::{filter, join_rows, project, RowSet};
use crate::relation::{ColumnPosting, Relation, Schema};
use crate::{RelError, Result};

/// Orientation code of rows in the oriented edge relation (see
/// [`crate::engine::oriented_edge_relation`]).
pub mod dir_code {
    /// A directed KB edge traversed source → destination.
    pub const FORWARD: u64 = 0;
    /// An undirected KB edge (present in both orientations).
    pub const UNDIRECTED: u64 = 2;
}

/// How the start target variable is constrained during evaluation.
///
/// Per-start distribution queries pin it to one entity ([`Const`]); the
/// batched all-starts pipeline evaluates the pattern once for a whole
/// sample of start entities ([`Among`]) or for every entity ([`Unbound`]),
/// sharing the planning, neighbour lists and grouping that per-start
/// queries would repeat — §5.3.2's "amortizing the computation over
/// different pairs by sharing the computation involved".
///
/// [`Const`]: StartBinding::Const
/// [`Among`]: StartBinding::Among
/// [`Unbound`]: StartBinding::Unbound
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartBinding {
    /// No constraint: the start variable ranges over all entities.
    Unbound,
    /// The start variable is pinned to one entity id.
    Const(u64),
    /// The start variable ranges over a set of entity ids (sorted).
    ///
    /// Only the start variable is restricted; other variables may bind
    /// set members freely (each row's target-exclusion applies to *its*
    /// start value only, which the final injectivity filter enforces).
    Among(Vec<u64>),
}

impl StartBinding {
    /// Builds an [`StartBinding::Among`] binding, sorting and deduping.
    pub fn among<I: IntoIterator<Item = u64>>(starts: I) -> StartBinding {
        let mut values: Vec<u64> = starts.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        StartBinding::Among(values)
    }
}

/// One pattern edge: variable `u` connects to variable `v` with `label`.
/// When `directed`, the underlying KB edge must point from `u`'s binding to
/// `v`'s binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecEdge {
    /// Tail variable index.
    pub u: usize,
    /// Head variable index.
    pub v: usize,
    /// Interned KB label id (widened).
    pub label: u64,
    /// Whether the KB edge must be directed `u → v`.
    pub directed: bool,
}

impl SpecEdge {
    /// The orientation code of the oriented-relation rows this edge
    /// scans — the single mapping from pattern-edge directedness to
    /// [`dir_code`].
    pub fn dir(&self) -> u64 {
        if self.directed {
            dir_code::FORWARD
        } else {
            dir_code::UNDIRECTED
        }
    }
}

/// One neighbour-list read of a [`Level`]: the pattern edge joining the
/// level's variable to a variable bound at an earlier level, read from
/// the endpoint posting keyed by that variable's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListRead {
    /// Index of the pattern edge.
    pub edge: usize,
    /// The variable whose value keys the read.
    pub key_var: usize,
    /// Read the `from` posting (`key_var` is the edge's tail) or the
    /// `to` posting.
    pub src: bool,
}

/// One level of a [`BindingPlan`]: the variable it binds, where its
/// candidates come from, and how many bindings the planner expects.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// The variable this level binds.
    pub var: usize,
    /// The reads whose lists the variable's candidates are intersected
    /// from, one per edge to an earlier level's variable (none at the
    /// start level, whose candidates are the start binding's).
    pub reads: Vec<ListRead>,
    /// Self-loop edges on the variable: a candidate `c` needs a `(c, c)`
    /// row in each.
    pub loops: Vec<usize>,
    /// Estimated bindings of this level over the whole start binding.
    pub est_bindings: f64,
}

/// A depth-first evaluation plan ([`PatternSpec::plan`]): the order in
/// which the executor binds the pattern's variables, the start first,
/// with the posting statistics' estimate of each level's bindings —
/// recorded so `rex plan` can explain the order without evaluating
/// anything.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingPlan {
    /// The levels, in binding order; `levels[0]` binds the start.
    pub levels: Vec<Level>,
    /// Whether the last level binds an existential, which a counting
    /// evaluation counts instead of enumerating.
    pub counted_tail: bool,
    /// Under an unbound start, the start-incident posting whose keys the
    /// start ranges over (its `key_var` is the start).
    pub start_posting: Option<ListRead>,
}

impl BindingPlan {
    /// The variables in binding order.
    pub fn order(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.var).collect()
    }
}

/// The relational shape of an explanation pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSpec {
    /// Number of variables (including the two targets).
    pub var_count: usize,
    /// Index of the start target variable.
    pub start: usize,
    /// Index of the end target variable.
    pub end: usize,
    /// The pattern edges.
    pub edges: Vec<SpecEdge>,
}

impl PatternSpec {
    /// Validates variable indices and connectivity.
    pub fn validate(&self) -> Result<()> {
        if self.start >= self.var_count || self.end >= self.var_count {
            return Err(RelError::BadPattern("target variable out of range".into()));
        }
        if self.start == self.end {
            return Err(RelError::BadPattern("start and end coincide".into()));
        }
        if self.edges.is_empty() {
            return Err(RelError::BadPattern("no edges".into()));
        }
        for e in &self.edges {
            if e.u >= self.var_count || e.v >= self.var_count {
                return Err(RelError::BadPattern("edge endpoint out of range".into()));
            }
        }
        if !self.reaches_all_but(None) {
            return Err(RelError::BadPattern("pattern is not connected".into()));
        }
        Ok(())
    }

    /// Whether every variable but `skip` is reachable from the start over
    /// edges that do not touch `skip`.
    fn reaches_all_but(&self, skip: Option<usize>) -> bool {
        let mut seen = vec![false; self.var_count];
        seen[self.start] = true;
        let mut frontier = vec![self.start];
        while let Some(v) = frontier.pop() {
            for e in &self.edges {
                if Some(e.u) == skip || Some(e.v) == skip {
                    continue;
                }
                for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                    if a == v && !seen[b] {
                        seen[b] = true;
                        frontier.push(b);
                    }
                }
            }
        }
        (0..self.var_count).all(|v| seen[v] || Some(v) == skip)
    }

    /// The fixed left-to-right join order: every edge (after the first)
    /// shares a variable with the part already joined, starting from an
    /// edge incident to the start variable, ties broken by edge-list
    /// position. `None` when the pattern is disconnected. The order the
    /// `planner` benchmark runs [`PatternSpec::evaluate_indexed_in_order`]
    /// through, as the baseline of [`PatternSpec::evaluate_indexed`].
    pub fn naive_join_order(&self) -> Option<Vec<usize>> {
        let n = self.edges.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound = vec![false; self.var_count];
        bound[self.start] = true;
        for _ in 0..n {
            let next =
                (0..n).find(|&i| !used[i] && (bound[self.edges[i].u] || bound[self.edges[i].v]))?;
            used[next] = true;
            bound[self.edges[next].u] = true;
            bound[self.edges[next].v] = true;
            order.push(next);
        }
        Some(order)
    }

    /// Materializes every edge's filtered `(from, to)` scan: label and
    /// direction via `scan_for`, plus the self-loop and start-binding
    /// predicates.
    fn filtered_scans<F: Fn(&SpecEdge) -> Relation>(
        &self,
        schema: &Schema,
        binding: &StartBinding,
        scan_for: F,
    ) -> Result<Vec<Relation>> {
        let from = schema.index_of("from")?;
        let to = schema.index_of("to")?;
        Ok(self
            .edges
            .iter()
            .map(|e| {
                let base = scan_for(e);
                let mut preds = Vec::new();
                if e.u == e.v {
                    preds.push(Predicate::ColEqCol { a: from, b: to });
                }
                match binding {
                    StartBinding::Unbound => {}
                    StartBinding::Const(start_val) => {
                        if e.u == self.start {
                            preds.push(Predicate::ColEqConst { col: from, value: *start_val });
                        } else {
                            preds.push(Predicate::ColNeConst { col: from, value: *start_val });
                        }
                        if e.v == self.start {
                            preds.push(Predicate::ColEqConst { col: to, value: *start_val });
                        } else {
                            preds.push(Predicate::ColNeConst { col: to, value: *start_val });
                        }
                    }
                    StartBinding::Among(values) => {
                        // Restrict only the start variable's scans; the
                        // target-exclusion of non-start variables is
                        // per-row (each row excludes *its own* start
                        // value) and is enforced by the final injectivity
                        // filter instead of a scan predicate.
                        if e.u == self.start {
                            preds.push(Predicate::ColInSet { col: from, values: values.clone() });
                        }
                        if e.v == self.start {
                            preds.push(Predicate::ColInSet { col: to, values: values.clone() });
                        }
                    }
                }
                let filtered =
                    if preds.is_empty() { base } else { filter(&base, &Predicate::And(preds)) };
                project(&filtered, &[from, to])
            })
            .collect())
    }

    /// Per-edge `(from, to)` rows over a prebuilt [`EdgeIndex`], with the
    /// start binding **pushed into the endpoint posting lists**: an edge
    /// incident to the start variable materializes only the rows whose
    /// start endpoint is bound, read from that endpoint's lists — cost
    /// proportional to the rows incident to the start set — instead of walking its full
    /// `(label, dir)` partition and filtering. Edges not touching the
    /// start variable scan their partition. Each edge goes through
    /// [`PatternSpec::edge_rows`], so the residual predicates match
    /// [`PatternSpec::filtered_scans`] and the rows read land in `trace`.
    fn indexed_scans(
        &self,
        index: &EdgeIndex,
        binding: &StartBinding,
        trace: &mut EvalTrace,
    ) -> Vec<Relation> {
        let start_keys = sorted_start_keys(binding);
        self.edges
            .iter()
            .map(|&e| {
                let source = match &start_keys {
                    Some(keys) if e.u == self.start || e.v == self.start => {
                        EdgeSource::Probe { src: e.u == self.start, keys }
                    }
                    _ => EdgeSource::Scan,
                };
                self.edge_rows(index, e, binding, source, trace)
            })
            .collect()
    }

    /// Materializes one pattern edge's `(from, to)` rows from `source` in
    /// a single pass into one 2-column buffer: each visited partition row
    /// is checked against the edge's residual predicates — `from == to`
    /// for a self-loop edge, and under a [`StartBinding::Const`] start the
    /// target-exclusion of the pinned value from every non-start endpoint
    /// — and its endpoints copied out. (`Among` exclusion is per-row and
    /// left to the final injectivity filter.) Every partition row read
    /// counts in `trace`, as `rows_scanned` or `rows_probed` by `source`.
    ///
    /// The result is a **set**: probes walk sorted distinct keys and
    /// scans walk the `by_src` posting, and either way rows equal on
    /// `(from, to)` — parallel KB edges — arrive next to each other, so a
    /// row equal to the previous one read is skipped (it still counts as
    /// read).
    fn edge_rows(
        &self,
        index: &EdgeIndex,
        e: SpecEdge,
        binding: &StartBinding,
        source: EdgeSource<'_>,
        trace: &mut EvalTrace,
    ) -> Relation {
        let (exclude_from, exclude_to) = match binding {
            StartBinding::Const(s) => {
                ((e.u != self.start).then_some(*s), (e.v != self.start).then_some(*s))
            }
            _ => (None, None),
        };
        let self_loop = e.u == e.v;
        let mut data = Vec::new();
        let mut read = 0;
        let mut previous = None;
        let mut take = |f: u64, t: u64| {
            read += 1;
            if previous.replace((f, t)) == Some((f, t)) {
                return;
            }
            if (!self_loop || f == t) && exclude_from != Some(f) && exclude_to != Some(t) {
                data.push(f);
                data.push(t);
            }
        };
        let dir = e.dir();
        match source {
            EdgeSource::Scan => {
                index.for_each_scanned(e.label, dir, &mut take);
                trace.rows_scanned += read;
            }
            EdgeSource::Probe { src, keys } => {
                index.for_each_probed(e.label, dir, src, keys, &mut take);
                trace.rows_probed += read;
            }
        }
        Relation::from_flat(Schema::new(["from", "to"]), data).expect("pairs have arity 2")
    }

    /// A cost-based join order: the globally smallest scan first, then —
    /// keeping the joined part connected — the smallest remaining adjacent
    /// scan. Equivalent output to any other connected order; far smaller
    /// intermediates on skewed data.
    fn join_order_by_cost(&self, scans: &[Relation]) -> Vec<usize> {
        let n = self.edges.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound = vec![false; self.var_count];
        for step in 0..n {
            let candidate = (0..n)
                .filter(|&i| !used[i])
                .filter(|&i| step == 0 || bound[self.edges[i].u] || bound[self.edges[i].v])
                .min_by_key(|&i| (scans[i].len(), i))
                .expect("validated patterns are connected");
            used[candidate] = true;
            bound[self.edges[candidate].u] = true;
            bound[self.edges[candidate].v] = true;
            order.push(candidate);
        }
        order
    }

    /// The depth-first evaluation plan for this pattern over `index`
    /// under `binding`: a start-rooted variable order chosen from the
    /// endpoint postings' statistics.
    ///
    /// Each level after the start binds the unbound variable, adjacent to
    /// a bound one, with the fewest estimated bindings after it: the
    /// previous level's estimate times, for every edge the variable
    /// closes, the edge's rows over the distinct keys of its bound
    /// endpoint columns — the System-R selectivity of
    /// [`EdgeIndex::estimate_instance_rows`] — ties to the lower
    /// variable. Where an existential can go last and leave the rest of
    /// the pattern connected, one does, so a counting evaluation counts
    /// it instead of enumerating it; of several, the one whose order
    /// needs the fewest estimated bindings. An unbound start ranges over
    /// the keys of its smallest start-incident posting.
    pub fn plan(&self, index: &EdgeIndex, binding: &StartBinding) -> BindingPlan {
        let (start_posting, starts) = match binding {
            StartBinding::Const(_) => (None, 1),
            StartBinding::Among(values) => (None, values.len()),
            StartBinding::Unbound => {
                let r = self.smallest_start_posting(index);
                (Some(r), self.read_posting(index, r).map_or(0, ColumnPosting::distinct_keys))
            }
        };
        let starts = starts as f64;
        let tails: Vec<usize> = (0..self.var_count)
            .filter(|&x| x != self.start && x != self.end && self.reaches_all_but(Some(x)))
            .collect();
        let options: Vec<Option<usize>> =
            if tails.is_empty() { vec![None] } else { tails.into_iter().map(Some).collect() };
        let (levels, tail) = options
            .into_iter()
            .map(|tail| (self.order_levels(index, starts, tail), tail))
            .min_by(|(a, ta), (b, tb)| {
                walk_cost(a, ta.is_some()).total_cmp(&walk_cost(b, tb.is_some()))
            })
            .expect("at least one option");
        BindingPlan { levels, counted_tail: tail.is_some(), start_posting }
    }

    /// The greedy level order behind [`PatternSpec::plan`], keeping
    /// `tail` (if any) for last.
    fn order_levels(&self, index: &EdgeIndex, starts: f64, tail: Option<usize>) -> Vec<Level> {
        let n = self.var_count;
        let mut bound = vec![false; n];
        let mut est = starts * self.closing_multiplier(index, self.start, &bound);
        bound[self.start] = true;
        let mut levels = vec![Level {
            var: self.start,
            reads: Vec::new(),
            loops: self.loops_of(self.start),
            est_bindings: est,
        }];
        while levels.len() < n {
            let last = levels.len() + 1 == n;
            let mut best: Option<(f64, usize)> = None;
            for x in (0..n).filter(|&x| !bound[x] && (last || Some(x) != tail)) {
                if self.reads_of(x, &bound).next().is_none() {
                    continue;
                }
                let out = est * self.closing_multiplier(index, x, &bound);
                if best.is_none_or(|(b, _)| out < b) {
                    best = Some((out, x));
                }
            }
            let (out, x) = best.expect("validated patterns are connected");
            let reads = self.reads_of(x, &bound).collect();
            bound[x] = true;
            est = out;
            levels.push(Level { var: x, reads, loops: self.loops_of(x), est_bindings: est });
        }
        levels
    }

    /// The reads binding `x` next to the `bound` variables: one per
    /// non-loop edge between `x` and a bound variable.
    fn reads_of<'s>(&'s self, x: usize, bound: &'s [bool]) -> impl Iterator<Item = ListRead> + 's {
        self.edges.iter().enumerate().filter_map(move |(edge, e)| {
            let key_var = match (e.u == x, e.v == x) {
                (true, false) => e.v,
                (false, true) => e.u,
                _ => return None,
            };
            bound[key_var].then_some(ListRead { edge, key_var, src: key_var == e.u })
        })
    }

    /// The self-loop edges on `x`.
    fn loops_of(&self, x: usize) -> Vec<usize> {
        (0..self.edges.len()).filter(|&i| self.edges[i].u == x && self.edges[i].v == x).collect()
    }

    /// The factor by which binding `x` next to the `bound` variables
    /// multiplies the bindings: the join multiplier of every edge `x`
    /// closes, in edge order, then of its self-loops.
    fn closing_multiplier(&self, index: &EdgeIndex, x: usize, bound: &[bool]) -> f64 {
        let mut closed = bound.to_vec();
        let mut mult = 1.0;
        for r in self.reads_of(x, bound) {
            mult *= index.join_multiplier(&self.edges[r.edge], &closed);
            closed[x] = true;
        }
        closed[x] = true;
        for e in self.loops_of(x) {
            mult *= index.join_multiplier(&self.edges[e], &closed);
        }
        mult
    }

    /// The start-incident posting with the fewest keys, ties to the
    /// lower edge: what an unbound start ranges over.
    fn smallest_start_posting(&self, index: &EdgeIndex) -> ListRead {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.u == self.start || e.v == self.start)
            .map(|(edge, e)| ListRead { edge, key_var: self.start, src: e.u == self.start })
            .min_by_key(|&r| {
                (self.read_posting(index, r).map_or(0, ColumnPosting::distinct_keys), r.edge)
            })
            .expect("validated patterns have a start-incident edge")
    }

    /// The posting `r` reads, if its partition exists.
    pub(crate) fn read_posting<'i>(
        &self,
        index: &'i EdgeIndex,
        r: ListRead,
    ) -> Option<&'i ColumnPosting> {
        let e = &self.edges[r.edge];
        index.endpoint_posting(e.label, e.dir(), r.src)
    }

    /// Evaluates the pattern over the oriented edge relation, returning a
    /// relation with one column per variable (named `v0..`, in variable
    /// order) and one row per **distinct** variable assignment (instance).
    ///
    /// `start_binding`, when provided, pins the start variable to a constant
    /// entity id — this is the `v_start = R1.eid1` predicate of the paper's
    /// SQL. Non-target variables are excluded from binding to the pinned
    /// start (Definition 2's target-exclusion), mirroring instance
    /// semantics.
    pub fn evaluate(&self, edge_rel: &Relation, start_binding: Option<u64>) -> Result<Relation> {
        let binding = match start_binding {
            Some(v) => StartBinding::Const(v),
            None => StartBinding::Unbound,
        };
        self.evaluate_with(edge_rel, &binding)
    }

    /// [`PatternSpec::evaluate`] under an arbitrary [`StartBinding`].
    pub fn evaluate_with(&self, edge_rel: &Relation, binding: &StartBinding) -> Result<Relation> {
        let label_col = edge_rel.schema().index_of("label")?;
        let dir_col = edge_rel.schema().index_of("dir")?;
        self.evaluate_scanned(edge_rel.schema(), binding, |e| {
            let mut preds = vec![Predicate::ColEqConst { col: label_col, value: e.label }];
            let dir = e.dir();
            preds.push(Predicate::ColEqConst { col: dir_col, value: dir });
            filter(edge_rel, &Predicate::And(preds))
        })
    }

    /// Like [`PatternSpec::evaluate`], but over a prebuilt [`EdgeIndex`]
    /// through the depth-first executor and [`PatternSpec::plan`]: each
    /// variable's candidates come from the endpoint postings' neighbour
    /// lists, and start restrictions ([`StartBinding::Const`] /
    /// [`StartBinding::Among`]) pick the start values the walk tries, so
    /// a bound or sampled start touches only the lists around it. Returns
    /// the instances, in start order, with the evaluation's trace: one
    /// full evaluation, the neighbour-list rows it read and its widest
    /// level's bindings.
    pub fn evaluate_indexed(
        &self,
        index: &EdgeIndex,
        binding: &StartBinding,
    ) -> Result<(Relation, EvalTrace)> {
        let mut data = Vec::new();
        let mut collect = |instance: &[u64], _: u64| {
            data.extend_from_slice(instance);
            true
        };
        let mut trace =
            self.walk_starts(index, binding, &Budget::unlimited(), false, &mut collect)?;
        trace.full = 1;
        crate::metrics::fold(&trace);
        let schema = Schema::new((0..self.var_count).map(|v| format!("v{v}")));
        Ok((
            Relation::from_flat(schema, data).expect("instances have one value per variable"),
            trace,
        ))
    }

    /// The depth-first walk of an evaluation over `index`: the executor
    /// walks [`PatternSpec::plan`] from each start value of `binding`, in
    /// ascending order, calling `sink.start_done` after each start's last
    /// instance; either call can stop the walk. Each start is the **unit
    /// of preemption** of the budgeted evaluation stack: the budget is
    /// checked *before* every start (an exhausted budget aborts with
    /// [`crate::RelError::Aborted`] instead of walking it), and after it
    /// the walk's growth in peak rows is charged against the row pool, so
    /// the whole walk is charged its peak rows. An unlimited budget skips
    /// both. With `count_tail`, a trailing existential is counted rather
    /// than enumerated (see [`BindingPlan::counted_tail`]). Returns the
    /// walk's trace: its neighbour-list rows read and peak bindings, but
    /// no evaluation or tile count (the caller accounts those).
    pub(crate) fn walk_starts(
        &self,
        index: &EdgeIndex,
        binding: &StartBinding,
        budget: &Budget,
        count_tail: bool,
        sink: &mut impl Sink,
    ) -> Result<EvalTrace> {
        self.validate()?;
        let plan = self.plan(index, binding);
        let starts: Cow<'_, [u64]> = match binding {
            StartBinding::Const(s) => Cow::Borrowed(std::slice::from_ref(s)),
            StartBinding::Among(values) if values.windows(2).all(|w| w[0] < w[1]) => {
                Cow::Borrowed(values)
            }
            StartBinding::Among(_) => Cow::Owned(sorted_start_keys(binding).expect("bound start")),
            StartBinding::Unbound => {
                let r = plan.start_posting.expect("an unbound start ranges over a posting");
                let keys = self.read_posting(index, r).map_or(&[][..], ColumnPosting::keys);
                Cow::Owned(keys.iter().map(|&k| u64::from(k)).collect())
            }
        };
        let mut walk = Walk::new(index, self, &plan, count_tail);
        let budgeted = !budget.is_unlimited();
        let mut charged = 0;
        for &s in starts.iter() {
            if budgeted {
                budget.check().map_err(RelError::Aborted)?;
            }
            let go_on = walk.start(s, sink) && sink.start_done(s);
            if budgeted {
                let peak = walk.peak_rows();
                budget.charge_rows(peak - charged);
                charged = peak;
            }
            if !go_on {
                break;
            }
        }
        Ok(walk.trace())
    }

    /// Streaming position query: counts end entities whose **distinct**
    /// instance count strictly exceeds `c`, stopping the walk as soon as
    /// `limit` qualifying entities are known — the pipelined `LIMIT`
    /// execution a SQL engine performs (§5.3.2). The walk counts a
    /// trailing existential instead of enumerating it, and hands each
    /// end its instances as they are found.
    ///
    /// Counting per end entity is monotone (distinct assignments only
    /// accumulate), so an entity can be declared *qualifying* the moment
    /// its count crosses `c` — no grouping barrier is needed. Returns
    /// `min(limit, true position)` with the query's trace: one streaming
    /// evaluation and the neighbour-list rows it read.
    pub fn streaming_end_position(
        &self,
        index: &EdgeIndex,
        start: u64,
        c: u64,
        limit: usize,
    ) -> Result<(usize, EvalTrace)> {
        self.validate()?;
        if limit == 0 {
            return Ok((0, EvalTrace::default()));
        }
        let mut per_end: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut qualified = 0usize;
        let mut count = |assignment: &[u64], n: u64| {
            let count = per_end.entry(assignment[self.end]).or_insert(0);
            if *count <= c && *count + n > c {
                qualified += 1;
            }
            *count += n;
            qualified < limit
        };
        let binding = StartBinding::Const(start);
        let walked = self.walk_starts(index, &binding, &Budget::unlimited(), true, &mut count)?;
        let trace = EvalTrace { streaming: 1, ..walked };
        crate::metrics::fold(&trace);
        Ok((qualified, trace))
    }

    /// Shared join pipeline: `scan_for` must return the rows matching an
    /// edge's label/direction; binding and self-loop predicates are applied
    /// here.
    ///
    /// Join ordering follows the Discover-style heuristic the paper cites
    /// (§3.2: "the optimizer iteratively chooses the … 'small' relations to
    /// evaluate"): all per-edge scans are materialized (with residual
    /// predicates applied) first, then edges are joined greedily —
    /// smallest connected scan next — so highly selective edges (the bound
    /// start, rare labels) shrink intermediates early.
    fn evaluate_scanned<F: Fn(&SpecEdge) -> Relation>(
        &self,
        schema: &Schema,
        binding: &StartBinding,
        scan_for: F,
    ) -> Result<Relation> {
        self.validate()?;
        let scans = self.filtered_scans(schema, binding, scan_for)?;
        let order = self.join_order_by_cost(&scans);
        let (instances, _) = self.join_scans_in_order(scans, &order)?;
        crate::metrics::fold(&EvalTrace { full: 1, ..EvalTrace::default() });
        Ok(instances)
    }

    /// Joins prepared per-edge `(from, to)` scans into the instance
    /// relation in the given edge order (which must keep the pattern
    /// connected): projection to one column per variable, injectivity
    /// filter, distinct — plus peak intermediate-row tracking. Also the
    /// baseline executor the `planner` benchmark runs the fixed
    /// left-to-right order through.
    fn join_scans_in_order(
        &self,
        scans: Vec<Relation>,
        order: &[usize],
    ) -> Result<(Relation, usize)> {
        let mut state = JoinState::new(self.var_count);
        // Account every materialized scan against the peak up front, as
        // the all-scans-first pipeline always did.
        state.peak = scans.iter().map(Relation::len).max().unwrap_or(0);
        let mut scans: Vec<Option<Relation>> = scans.into_iter().map(Some).collect();
        for &ei in order {
            state.push(self.edges[ei], scans[ei].take().expect("each edge is joined once"));
        }
        state.finish()
    }

    /// Evaluates the pattern over `index` as a left-deep hash-join tree,
    /// joining edges in the given explicit order with every edge's rows
    /// materialized up front (start probes, full partition scans
    /// otherwise) — no neighbour-list walk, no reordering. The benchmark
    /// baseline for [`PatternSpec::evaluate_indexed`]; returns the
    /// instances with the trace of one full evaluation.
    pub fn evaluate_indexed_in_order(
        &self,
        index: &EdgeIndex,
        binding: &StartBinding,
        order: &[usize],
    ) -> Result<(Relation, EvalTrace)> {
        self.validate()?;
        let mut trace = EvalTrace { full: 1, ..EvalTrace::default() };
        let scans = self.indexed_scans(index, binding, &mut trace);
        let (instances, peak_rows) = self.join_scans_in_order(scans, order)?;
        trace.peak_rows = peak_rows;
        crate::metrics::fold(&trace);
        Ok((instances, trace))
    }
}

/// Which of an edge's partition rows [`PatternSpec::edge_rows`] reads.
enum EdgeSource<'a> {
    /// The whole `(label, dir)` partition.
    Scan,
    /// The partition rows whose `from` (`src`) or `to` endpoint is in
    /// `keys` (sorted).
    Probe { src: bool, keys: &'a [u64] },
}

/// The start binding's values, sorted and deduped; `None` when the start
/// variable is unbound.
fn sorted_start_keys(binding: &StartBinding) -> Option<Vec<u64>> {
    match binding {
        StartBinding::Unbound => None,
        StartBinding::Const(s) => Some(vec![*s]),
        StartBinding::Among(values) => {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            Some(sorted)
        }
    }
}

/// Estimated work of a walk over `levels`: the bindings of every level
/// past the start, except that a counted tail costs one intersection per
/// binding of the level before it.
fn walk_cost(levels: &[Level], counted_tail: bool) -> f64 {
    let enumerated = if counted_tail { levels.len() - 1 } else { levels.len() };
    let tail = if counted_tail { levels[enumerated - 1].est_bindings } else { 0.0 };
    levels[1..enumerated].iter().map(|l| l.est_bindings).sum::<f64>() + tail
}

/// Whether every value of an assignment is distinct — REX instance
/// semantics are injective: distinct variables bind distinct entities.
fn is_injective(assignment: &[u64]) -> bool {
    assignment.iter().enumerate().all(|(i, v)| !assignment[i + 1..].contains(v))
}

/// Incremental left-deep join state of the materializing pipelines: the
/// definitional evaluation ([`PatternSpec::evaluate_scanned`]) and the
/// fixed-order baseline ([`PatternSpec::evaluate_indexed_in_order`]).
///
/// The intermediate holds **one column per bound variable**, in binding
/// order: a join step copies the current row plus only the edge columns
/// that bind a new variable, never the join-key columns it already has.
struct JoinState {
    var_count: usize,
    current: Option<Relation>,
    /// Which variables the relation built so far binds, and at which
    /// column position.
    var_col: Vec<Option<usize>>,
    peak: usize,
}

impl JoinState {
    fn new(var_count: usize) -> JoinState {
        JoinState { var_count, current: None, var_col: vec![None; var_count], peak: 0 }
    }

    /// Join keys of edge `e`'s `(from, to)` rows against the current
    /// intermediate: `(current columns, edge columns)` of its already
    /// bound endpoints.
    fn join_keys(&self, e: SpecEdge) -> (Vec<usize>, Vec<usize>) {
        let mut cur_keys = Vec::new();
        let mut edge_keys = Vec::new();
        if let Some(c) = self.var_col[e.u] {
            cur_keys.push(c);
            edge_keys.push(0);
        }
        if e.u != e.v {
            if let Some(c) = self.var_col[e.v] {
                cur_keys.push(c);
                edge_keys.push(1);
            }
        }
        (cur_keys, edge_keys)
    }

    /// Binds `var` to column `*arity`, the next free one, and advances it.
    fn bind(&mut self, var: usize, arity: &mut usize) {
        self.var_col[var] = Some(*arity);
        *arity += 1;
    }

    /// A schema naming each column after the variable it binds.
    fn schema(&self, arity: usize) -> Schema {
        let mut names = vec![String::new(); arity];
        for (v, col) in self.var_col.iter().enumerate() {
            if let Some(c) = col {
                names[*c] = format!("v{v}");
            }
        }
        Schema::new(names)
    }

    /// Joins one edge's prepared `(from, to)` relation into the state.
    fn push(&mut self, e: SpecEdge, rows: Relation) {
        self.peak = self.peak.max(rows.len());
        let Some(cur) = self.current.take() else {
            // First edge: initialize variable bindings.
            let mut arity = 0;
            self.bind(e.u, &mut arity);
            let rel = if e.u == e.v {
                project(&rows, &[0])
            } else {
                self.bind(e.v, &mut arity);
                rows
            };
            self.current = Some(rel);
            return;
        };
        let (cur_keys, edge_keys) = self.join_keys(e);
        debug_assert!(!cur_keys.is_empty(), "join order keeps patterns connected");
        // Edge columns binding a new variable, appended after cur's.
        let mut arity = cur.arity();
        let mut append: Vec<usize> = Vec::with_capacity(2);
        if self.var_col[e.u].is_none() {
            self.bind(e.u, &mut arity);
            append.push(0);
        }
        if e.u != e.v && self.var_col[e.v].is_none() {
            self.bind(e.v, &mut arity);
            append.push(1);
        }
        let mut data = Vec::new();
        join_rows(&cur, &rows, &cur_keys, &edge_keys, |l, r| {
            data.extend_from_slice(l);
            data.extend(append.iter().map(|&c| r[c]));
            true
        });
        let joined = Relation::from_flat(self.schema(arity), data).expect("row width is arity");
        self.peak = self.peak.max(joined.len());
        self.current = Some(joined);
    }

    /// Reorders each row into one column per variable, drops
    /// non-injective rows, and dedups (keeping first occurrences) — the
    /// tail of [`PatternSpec::join_scans_in_order`]. Dedup matters for
    /// the definitional pipeline, whose filter-based scans are multisets:
    /// parallel KB edges with the same label would otherwise multiply
    /// join rows without adding distinct instances.
    fn finish(mut self) -> Result<(Relation, usize)> {
        let current = self.current.take().expect("at least one edge was joined");
        let cols: Vec<usize> = (0..self.var_count)
            .map(|v| self.var_col[v].expect("connected pattern binds every variable"))
            .collect();
        let mut instances = RowSet::new(self.var_count);
        let mut assignment = vec![0u64; self.var_count];
        for row in current.rows() {
            for (slot, &c) in assignment.iter_mut().zip(&cols) {
                *slot = row[c];
            }
            if is_injective(&assignment) {
                instances.insert(&assignment);
            }
        }
        self.peak = self.peak.max(instances.len());
        let schema = Schema::new((0..self.var_count).map(|v| format!("v{v}")));
        Ok((instances.into_relation(schema), self.peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::oriented_edge_relation;
    use rex_kb::KbBuilder;

    /// a --r--> m <--r-- b, plus spouse(a, b).
    fn kb() -> rex_kb::KnowledgeBase {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        let m = b.add_node("m", "M");
        let c = b.add_node("c", "P");
        b.add_directed_edge(a, m, "starring").unwrap();
        b.add_directed_edge(c, m, "starring").unwrap();
        b.add_undirected_edge(a, c, "spouse").unwrap();
        b.build()
    }

    fn costar_spec(kb: &rex_kb::KnowledgeBase) -> PatternSpec {
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: starring, directed: true },
                SpecEdge { u: 1, v: 2, label: starring, directed: true },
            ],
        }
    }

    #[test]
    fn costar_join_finds_instance() {
        let kb = kb();
        let rel = oriented_edge_relation(&kb);
        let spec = costar_spec(&kb);
        let a = kb.require_node("a").unwrap().0 as u64;
        let out = spec.evaluate(&rel, Some(a)).unwrap();
        // One instance: start=a, end=c, v2=m.
        assert_eq!(out.len(), 1);
        let row = out.row(0);
        assert_eq!(row[0], a);
        assert_eq!(row[1], kb.require_node("c").unwrap().0 as u64);
        assert_eq!(row[2], kb.require_node("m").unwrap().0 as u64);
    }

    #[test]
    fn unbound_start_enumerates_all_pairs() {
        let kb = kb();
        let rel = oriented_edge_relation(&kb);
        let spec = costar_spec(&kb);
        let out = spec.evaluate(&rel, None).unwrap();
        // (a,c,m) and (c,a,m); the non-injective rows (a,a,m) and (c,c,m)
        // are filtered out by the injective instance semantics.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn undirected_edge_matches_both_ways() {
        let kb = kb();
        let rel = oriented_edge_relation(&kb);
        let spouse = kb.label_by_name("spouse").unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: spouse, directed: false }],
        };
        let a = kb.require_node("a").unwrap().0 as u64;
        let c = kb.require_node("c").unwrap().0 as u64;
        let out = spec.evaluate(&rel, Some(a)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[1], c);
        let out = spec.evaluate(&rel, Some(c)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[1], a);
    }

    #[test]
    fn directed_edge_does_not_match_reverse() {
        let kb = kb();
        let rel = oriented_edge_relation(&kb);
        let starring = kb.label_by_name("starring").unwrap().0 as u64;
        // Pattern: end --starring--> start, evaluated from a: no movie
        // stars in `a`.
        let spec = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 1, v: 0, label: starring, directed: true }],
        };
        let a = kb.require_node("a").unwrap().0 as u64;
        let out = spec.evaluate(&rel, Some(a)).unwrap();
        assert!(out.is_empty());
        // But from m's perspective there are two.
        let m = kb.require_node("m").unwrap().0 as u64;
        let out = spec.evaluate(&rel, Some(m)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let e = SpecEdge { u: 0, v: 1, label: 0, directed: true };
        assert!(PatternSpec { var_count: 2, start: 0, end: 0, edges: vec![e] }.validate().is_err());
        assert!(PatternSpec { var_count: 1, start: 0, end: 5, edges: vec![e] }.validate().is_err());
        assert!(PatternSpec { var_count: 2, start: 0, end: 1, edges: vec![] }.validate().is_err());
        // Disconnected: edge between v2,v3 unreachable from start.
        let spec = PatternSpec {
            var_count: 4,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 1, label: 0, directed: true },
                SpecEdge { u: 2, v: 3, label: 0, directed: true },
            ],
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn parallel_edges_do_not_double_count() {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        let m = b.add_node("m", "M");
        b.add_directed_edge(a, m, "r").unwrap();
        b.add_directed_edge(a, m, "r").unwrap();
        let kb = b.build();
        let rel = oriented_edge_relation(&kb);
        let spec = PatternSpec {
            var_count: 2,
            start: 0,
            end: 1,
            edges: vec![SpecEdge { u: 0, v: 1, label: 0, directed: true }],
        };
        let out = spec.evaluate(&rel, Some(0)).unwrap();
        // One distinct mapping even though two parallel edges match.
        assert_eq!(out.len(), 1);
    }
}

#[cfg(test)]
mod cost_order_tests {
    use super::*;
    use crate::engine::{local_count_distribution_indexed, EdgeIndex};
    use rex_kb::KbBuilder;

    /// On skewed data the cost-based order must start from the smallest
    /// filtered scan — here the bound-start edge — and the result must be
    /// identical to the definitional evaluation regardless of order.
    #[test]
    fn cost_order_prefers_selective_scans() {
        let mut b = KbBuilder::new();
        // A hub pattern: `common` has thousands of rows, `rare` a handful.
        let hub = b.add_node("hub", "T");
        let start = b.add_node("start", "T");
        for i in 0..300 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(x, hub, "common").unwrap();
        }
        let mid = b.add_node("mid", "T");
        b.add_directed_edge(start, mid, "rare").unwrap();
        b.add_directed_edge(mid, hub, "common").unwrap();
        let kb = b.build();
        let rare = kb.label_by_name("rare").unwrap().0 as u64;
        let common = kb.label_by_name("common").unwrap().0 as u64;
        // start -rare-> v2 -common-> end
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: rare, directed: true },
                SpecEdge { u: 2, v: 1, label: common, directed: true },
            ],
        };
        let index = EdgeIndex::build(&kb);
        let dist = local_count_distribution_indexed(&index, &spec, start.0 as u64).unwrap();
        assert_eq!(dist.len(), 1);
        assert_eq!(dist.get(&(hub.0 as u64)), Some(&1));
    }

    /// The greedy order is itself size-sorted at each connected step.
    #[test]
    fn order_is_greedy_smallest_connected() {
        let spec = PatternSpec {
            var_count: 4,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: 0, directed: true },
                SpecEdge { u: 2, v: 3, label: 1, directed: true },
                SpecEdge { u: 3, v: 1, label: 2, directed: true },
            ],
        };
        let schema = Schema::new(["from", "to", "label", "dir"]);
        let sized = |n: usize| {
            Relation::from_rows(schema.clone(), (0..n).map(|i| [i as u64, i as u64 + 1, 0, 0]))
                .unwrap()
        };
        // Edge sizes 10, 1, 5: the middle edge is smallest overall, then
        // its neighbors by size (5 before 10).
        let scans = vec![sized(10), sized(1), sized(5)];
        let order = spec.join_order_by_cost(&scans);
        assert_eq!(order, vec![1, 2, 0]);
    }

    /// With an all-free pattern (no bound endpoint anywhere) nothing
    /// restricts the start: it ranges over the keys of its smallest
    /// start-incident posting, and every later level reads the neighbour
    /// lists of the values bound before it — no partition is scanned.
    #[test]
    fn all_free_triangle_ranges_start_over_smallest_posting() {
        let mut b = KbBuilder::new();
        let nodes: Vec<_> = (0..12).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        // Three partitions with very different sizes: `big` (30 rows),
        // `mid` (8 rows), `tiny` (2 rows).
        for i in 0..10 {
            for j in 0..3 {
                b.add_directed_edge(nodes[i], nodes[(i + j + 1) % 12], "big").unwrap();
            }
        }
        for i in 0..8 {
            b.add_directed_edge(nodes[i], nodes[(i + 2) % 12], "mid").unwrap();
        }
        b.add_directed_edge(nodes[0], nodes[1], "tiny").unwrap();
        b.add_directed_edge(nodes[2], nodes[3], "tiny").unwrap();
        let kb = b.build();
        let l = |n: &str| kb.label_by_name(n).unwrap().0 as u64;
        // All-free triangle: 0 -big-> 2, 2 -mid-> 1, 1 -tiny-> 0.
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: l("big"), directed: true },
                SpecEdge { u: 2, v: 1, label: l("mid"), directed: true },
                SpecEdge { u: 1, v: 0, label: l("tiny"), directed: true },
            ],
        };
        let index = EdgeIndex::build(&kb);
        let plan = spec.plan(&index, &StartBinding::Unbound);
        // The start ranges over the 2 `to` keys of `tiny`, not the 10
        // `from` keys of `big`.
        assert_eq!(plan.start_posting, Some(ListRead { edge: 2, key_var: 0, src: false }));
        assert_eq!(plan.levels[0].est_bindings, 2.0);
        assert!(plan.levels[1..].iter().all(|l| !l.reads.is_empty()));
        // The walk agrees with the definitional path, reading lists only.
        let (planned, trace) = spec.evaluate_indexed(&index, &StartBinding::Unbound).unwrap();
        let naive = spec
            .evaluate_with(&crate::engine::oriented_edge_relation(&kb), &StartBinding::Unbound)
            .unwrap();
        assert_eq!(planned.len(), naive.len());
        assert_eq!(trace.full, 1);
        assert_eq!(trace.rows_scanned, 0);
        assert!(trace.rows_probed > 0);
    }

    /// Plan metadata records the variable order, each level's reads and
    /// the estimates — the contract `rex plan` explains to users.
    #[test]
    fn plan_metadata_exposes_order_access_and_estimates() {
        let mut b = KbBuilder::new();
        let start = b.add_node("start", "T");
        let hub = b.add_node("hub", "T");
        for i in 0..200 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(x, hub, "common").unwrap();
        }
        let mid = b.add_node("mid", "T");
        b.add_directed_edge(start, mid, "rare").unwrap();
        b.add_directed_edge(mid, hub, "common").unwrap();
        let kb = b.build();
        let l = |n: &str| kb.label_by_name(n).unwrap().0 as u64;
        let spec = PatternSpec {
            var_count: 3,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: l("rare"), directed: true },
                SpecEdge { u: 2, v: 1, label: l("common"), directed: true },
            ],
        };
        let index = EdgeIndex::build(&kb);
        let plan = spec.plan(&index, &StartBinding::Const(start.0 as u64));
        assert_eq!(plan.order(), vec![0, 2, 1]);
        assert_eq!(plan.start_posting, None);
        // A path has no existential that can go last.
        assert!(!plan.counted_tail);
        // Level 1 reads the start's `rare` list; level 2 reads `mid`'s
        // `common` list instead of the 201-row partition.
        assert_eq!(plan.levels[1].reads, vec![ListRead { edge: 0, key_var: 0, src: true }]);
        assert_eq!(plan.levels[2].reads, vec![ListRead { edge: 1, key_var: 2, src: true }]);
        assert_eq!(plan.levels[0].est_bindings, 1.0);
        assert!(plan.levels[2].est_bindings < 201.0);
    }

    /// An existential that can go last does, so a counting walk counts
    /// it; of the fork pair `start -r-> v2 <-r- end`, `start -s-> v3 <-s-
    /// end`, either existential can, and the order keeps one for last.
    #[test]
    fn existential_goes_last_where_the_pattern_allows() {
        let spec = PatternSpec {
            var_count: 4,
            start: 0,
            end: 1,
            edges: vec![
                SpecEdge { u: 0, v: 2, label: 0, directed: true },
                SpecEdge { u: 1, v: 2, label: 0, directed: true },
                SpecEdge { u: 0, v: 3, label: 1, directed: true },
                SpecEdge { u: 1, v: 3, label: 1, directed: true },
            ],
        };
        let mut b = KbBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        b.add_directed_edge(n[0], n[2], "r").unwrap();
        b.add_directed_edge(n[1], n[2], "r").unwrap();
        b.add_directed_edge(n[0], n[3], "s").unwrap();
        b.add_directed_edge(n[1], n[3], "s").unwrap();
        let kb = b.build();
        let index = EdgeIndex::build(&kb);
        let plan = spec.plan(&index, &StartBinding::Unbound);
        assert!(plan.counted_tail);
        let tail = plan.levels.last().unwrap();
        assert!(tail.var == 2 || tail.var == 3, "{plan:?}");
        assert_eq!(tail.reads.len(), 2, "the tail intersects its start and end lists");
    }
}
