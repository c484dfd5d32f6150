//! Compiling explanation-pattern shapes into relational join plans.
//!
//! A [`PatternSpec`] is the relational shadow of an explanation pattern: a
//! set of variables (two of which are the start and end targets) and a
//! multiset of labeled, optionally-directed edges between them. The paper
//! encodes each pattern edge as one occurrence of the edge table in the
//! `FROM` clause and the connectivity as `WHERE` equalities; we do the same,
//! producing a left-deep hash-join tree whose output has one column per
//! pattern variable.

use crate::expr::Predicate;
use crate::ops::{filter, join_rows, project, RowSet};
use crate::relation::{Relation, Schema};
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
/// sharing the scan and join work that per-start probes would repeat —
/// §5.3.2's "amortizing the computation over different pairs by sharing
/// the computation involved".
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

/// How one join step materializes its edge's rows — the physical access
/// path chosen by [`PatternSpec::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Materialize the whole `(label, dir)` partition
    /// ([`crate::engine::EdgeIndex::scan`]). The fallback when no binding
    /// restricts either endpoint — in particular the *first* step of an
    /// all-free pattern, where assuming an indexed probe would be wrong
    /// (there is nothing to probe with yet).
    Scan,
    /// Probe the endpoint posting with the start binding's keys
    /// ([`crate::engine::EdgeIndex::probe`]); `src` picks the `from`
    /// column when the start variable is the edge's tail.
    StartProbe {
        /// Probe the `from` (true) or `to` (false) posting.
        src: bool,
    },
    /// Probe with the distinct values an earlier join step already bound
    /// for `var` — the index-nested-loop path that turns a huge partition
    /// scan into traffic proportional to the intermediate result.
    BoundProbe {
        /// Probe the `from` (true) or `to` (false) posting.
        src: bool,
        /// The pattern variable whose bound values key the probe.
        var: usize,
    },
}

/// One step of a [`JoinPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Index of the pattern edge this step joins.
    pub edge: usize,
    /// The access path materializing the edge's rows.
    pub access: Access,
    /// Estimated rows materialized by the access path.
    pub est_rows: f64,
    /// Estimated intermediate rows after joining this step.
    pub est_out: f64,
}

/// A cost-based physical join plan: the edge order, the access path per
/// step, and the selectivity estimates that chose them — recorded so
/// `rex plan` can explain the ordering without evaluating anything.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The join steps, in execution order.
    pub steps: Vec<JoinStep>,
    /// Total estimated cost: rows materialized plus join output, summed
    /// over the steps.
    pub est_cost: f64,
}

impl JoinPlan {
    /// The edge order the steps follow.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.edge).collect()
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
        if self.naive_join_order().is_none() {
            return Err(RelError::BadPattern("pattern is not connected".into()));
        }
        Ok(())
    }

    /// The fixed left-to-right join order: every edge (after the first)
    /// shares a variable with the part already joined, starting from an
    /// edge incident to the start variable, ties broken by edge-list
    /// position. `None` when the pattern is disconnected. This is the
    /// pre-planner order — kept as the connectivity check and as the
    /// baseline the `planner` benchmark compares [`PatternSpec::plan`]
    /// against.
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

    /// Per-edge `(from, to)` rows over a prebuilt
    /// [`crate::engine::EdgeIndex`], with the start binding **pushed into
    /// the endpoint posting lists**: an edge incident to the start
    /// variable materializes only the rows whose start endpoint is bound
    /// ([`crate::engine::EdgeIndex::probe`]) — cost proportional to the
    /// rows incident to the start set — instead of walking its full
    /// `(label, dir)` partition and filtering. Edges not touching the
    /// start variable scan their partition. Each edge goes through
    /// [`PatternSpec::edge_rows`], so the residual predicates match
    /// [`PatternSpec::filtered_scans`].
    fn indexed_scans(
        &self,
        index: &crate::engine::EdgeIndex,
        binding: &StartBinding,
    ) -> Result<Vec<Relation>> {
        let cols = endpoint_cols(index)?;
        let start_keys = sorted_start_keys(binding);
        Ok(self
            .edges
            .iter()
            .map(|&e| {
                let source = match &start_keys {
                    Some(keys) if e.u == self.start || e.v == self.start => {
                        EdgeSource::Probe { index, src: e.u == self.start, keys }
                    }
                    _ => EdgeSource::Scan(index),
                };
                self.edge_rows(e, binding, cols, source)
            })
            .collect())
    }

    /// Materializes one pattern edge's `(from, to)` rows from `source` in
    /// a single pass into one 2-column buffer: each visited partition row
    /// is checked against the edge's residual predicates — `from == to`
    /// for a self-loop edge, and under a [`StartBinding::Const`] start the
    /// target-exclusion of the pinned value from every non-start endpoint
    /// — and its endpoints copied out. (`Among` exclusion is per-row and
    /// left to the final injectivity filter.) `cols` are the index
    /// schema's `(from, to)` column positions.
    fn edge_rows(
        &self,
        e: SpecEdge,
        binding: &StartBinding,
        (from, to): (usize, usize),
        source: EdgeSource<'_>,
    ) -> Relation {
        let (exclude_from, exclude_to) = match binding {
            StartBinding::Const(s) => {
                ((e.u != self.start).then_some(*s), (e.v != self.start).then_some(*s))
            }
            _ => (None, None),
        };
        let self_loop = e.u == e.v;
        let mut data = Vec::new();
        let mut take = |r: &[u64]| {
            let (f, t) = (r[from], r[to]);
            if (!self_loop || f == t) && exclude_from != Some(f) && exclude_to != Some(t) {
                data.push(f);
                data.push(t);
            }
        };
        let dir = e.dir();
        match source {
            EdgeSource::Scan(index) => index.scan(e.label, dir).rows().for_each(&mut take),
            EdgeSource::Probe { index, src, keys } => {
                index.for_each_probed(e.label, dir, src, keys, take)
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

    /// Builds the cost-based physical join plan for evaluating this
    /// pattern over `index` under `binding` — the selectivity-driven
    /// replacement for the fixed [`PatternSpec::naive_join_order`].
    ///
    /// Greedy System-R ordering: the first step is the edge with the
    /// fewest estimated *materialized* rows (exact posting counts for
    /// start-bound edges, exact partition sizes otherwise — never an
    /// assumed probe when nothing binds an endpoint), and each later step
    /// is the connected edge minimizing the estimated intermediate after
    /// the join, with join selectivities read from the endpoint postings'
    /// distinct-key counts (the statistics behind
    /// [`crate::engine::EdgeIndex::estimate_instance_rows`]). Steps whose
    /// estimated incident traffic undercuts their partition size get a
    /// [`Access::BoundProbe`] access path.
    pub fn plan(&self, index: &crate::engine::EdgeIndex, binding: &StartBinding) -> JoinPlan {
        self.plan_split(index, index, binding)
    }

    /// [`PatternSpec::plan`] over a split probe/scan index pair: start
    /// probes are estimated (and later executed) against `probe`,
    /// partition statistics come from `scan`. With `probe == scan` this
    /// is the unsharded path; the sharded `Among` fan-out passes a shard
    /// (which holds every row incident to its resident starts, so
    /// resident probes are complete) as `probe` and the full base index
    /// as `scan` (non-start pattern edges range over the *whole* KB
    /// regardless of sharding).
    pub fn plan_split(
        &self,
        probe: &crate::engine::EdgeIndex,
        scan: &crate::engine::EdgeIndex,
        binding: &StartBinding,
    ) -> JoinPlan {
        let m = self.edges.len();
        let start_keys = sorted_start_keys(binding);
        let distinct = |e: &SpecEdge, src: bool| -> f64 {
            scan.posting(e.label, e.dir()).map_or(1, |p| p.endpoint(src).distinct_keys()).max(1)
                as f64
        };
        let mut used = vec![false; m];
        let mut bound = vec![false; self.var_count];
        let mut steps: Vec<JoinStep> = Vec::with_capacity(m);
        let mut est_cur = 0.0f64;
        let mut est_cost = 0.0f64;
        for step_no in 0..m {
            let mut best: Option<(f64, f64, usize, Access)> = None;
            for i in (0..m).filter(|&i| !used[i]) {
                let e = &self.edges[i];
                let connected = bound[e.u] || bound[e.v];
                if step_no > 0 && !connected {
                    continue;
                }
                let dir = e.dir();
                let rows = scan.scan_len(e.label, dir) as f64;
                let touches_start = e.u == self.start || e.v == self.start;
                let (access, est_rows) = if touches_start && start_keys.is_some() {
                    // Exact incident count from the endpoint postings.
                    let src = e.u == self.start;
                    let keys = start_keys.as_deref().expect("checked is_some");
                    let incident = probe.incident_len(e.label, dir, src, keys) as f64;
                    (Access::StartProbe { src }, incident)
                } else if step_no > 0 && connected {
                    // Index-nested-loop candidate: probe with the values
                    // already bound for one endpoint. Estimated keys are
                    // capped by both the intermediate size and the
                    // posting's distinct keys (containment).
                    let mut choice = (Access::Scan, rows);
                    for (side_bound, src, var) in
                        [(bound[e.u], true, e.u), (bound[e.v] && e.u != e.v, false, e.v)]
                    {
                        if !side_bound {
                            continue;
                        }
                        let d = distinct(e, src);
                        let est_keys = est_cur.min(d);
                        let est_incident = est_keys * rows / d;
                        if est_incident < choice.1 {
                            choice = (Access::BoundProbe { src, var }, est_incident);
                        }
                    }
                    choice
                } else {
                    // No binding restricts any endpoint: the smallest
                    // partition scan is the only honest first step.
                    (Access::Scan, rows)
                };
                let est_out = if step_no == 0 {
                    est_rows
                } else {
                    let mut mult = rows;
                    if e.u == e.v {
                        if bound[e.u] {
                            mult /= distinct(e, true).max(distinct(e, false));
                        }
                    } else {
                        if bound[e.u] {
                            mult /= distinct(e, true);
                        }
                        if bound[e.v] {
                            mult /= distinct(e, false);
                        }
                    }
                    est_cur * mult
                };
                let better = match &best {
                    None => true,
                    Some((b_out, b_rows, b_i, _)) => {
                        (est_out, est_rows, i) < (*b_out, *b_rows, *b_i)
                    }
                };
                if better {
                    best = Some((est_out, est_rows, i, access));
                }
            }
            // Disconnected specs never validate; stay total anyway by
            // falling back to any remaining edge as a fresh scan.
            let (est_out, est_rows, pick, access) = best.unwrap_or_else(|| {
                let i = (0..m).find(|&i| !used[i]).expect("step_no < m");
                let e = &self.edges[i];
                let rows = scan.scan_len(e.label, e.dir()) as f64;
                (est_cur.max(rows), rows, i, Access::Scan)
            });
            used[pick] = true;
            bound[self.edges[pick].u] = true;
            bound[self.edges[pick].v] = true;
            est_cur = est_out;
            est_cost += est_rows + est_out;
            steps.push(JoinStep { edge: pick, access, est_rows, est_out });
        }
        JoinPlan { steps, est_cost }
    }

    /// Executes a [`JoinPlan`] over a split probe/scan index pair,
    /// materializing each step's rows through its planned access path —
    /// start probes against `probe`, partition scans and bound-value
    /// probes against `scan` — each through [`PatternSpec::edge_rows`]'s
    /// single probe/filter/project pass. Returns the instance relation
    /// and the peak intermediate row count.
    fn join_planned_split(
        &self,
        probe: &crate::engine::EdgeIndex,
        scan: &crate::engine::EdgeIndex,
        binding: &StartBinding,
        plan: &JoinPlan,
    ) -> Result<(Relation, usize)> {
        let cols = endpoint_cols(scan)?;
        let start_keys = sorted_start_keys(binding);
        let mut state = JoinState::new(self.var_count);
        for step in &plan.steps {
            let e = self.edges[step.edge];
            let bound_keys;
            let source = match step.access {
                Access::StartProbe { src } => {
                    let keys = start_keys
                        .as_deref()
                        .expect("plans emit StartProbe only under a start binding");
                    EdgeSource::Probe { index: probe, src, keys }
                }
                Access::BoundProbe { src, var } => {
                    bound_keys = state.bound_values(var);
                    EdgeSource::Probe { index: scan, src, keys: &bound_keys }
                }
                Access::Scan => EdgeSource::Scan(scan),
            };
            state.push(e, self.edge_rows(e, binding, cols, source));
        }
        state.finish()
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

    /// Like [`PatternSpec::evaluate`], but over a prebuilt
    /// [`crate::engine::EdgeIndex`] through the cost-based
    /// [`PatternSpec::plan`]: scans hit `(label, dir)` partitions instead
    /// of filtering the full relation, and start restrictions
    /// ([`StartBinding::Const`] / [`StartBinding::Among`]) are pushed into
    /// the endpoint postings, so a bound or sampled start touches only
    /// its incident rows — the workhorse for repeated distribution
    /// queries. Counts as one full evaluation.
    pub fn evaluate_indexed(
        &self,
        index: &crate::engine::EdgeIndex,
        binding: &StartBinding,
    ) -> Result<Relation> {
        self.validate()?;
        crate::metrics::record_full_eval();
        let (instances, _) =
            self.evaluate_tile(index, index, binding, &crate::budget::Budget::unlimited())?;
        Ok(instances)
    }

    /// One tile of a batched evaluation over a split probe/scan index
    /// pair ([`PatternSpec::plan_split`]): start probes hit `probe` (a
    /// shard, or the index itself), non-start scans hit `scan` (the full
    /// base index). The **tile boundary** of the budgeted evaluation
    /// stack: the budget is checked *before* the tile runs (an exhausted
    /// budget aborts with [`crate::RelError::Aborted`] instead of
    /// evaluating) and the tile's peak intermediate rows are charged
    /// against the row pool *after* it completes, so a tile either runs
    /// to completion and is paid for, or does not run at all — never a
    /// half-evaluated join tree. Records no evaluation (the caller
    /// accounts once per batch) and returns the peak intermediate row
    /// count beside the instances.
    pub(crate) fn evaluate_tile(
        &self,
        probe: &crate::engine::EdgeIndex,
        scan: &crate::engine::EdgeIndex,
        binding: &StartBinding,
        budget: &crate::budget::Budget,
    ) -> Result<(Relation, usize)> {
        budget.check().map_err(crate::RelError::Aborted)?;
        self.validate()?;
        let plan = self.plan_split(probe, scan, binding);
        let (instances, peak) = self.join_planned_split(probe, scan, binding, &plan)?;
        budget.charge_rows(peak);
        Ok((instances, peak))
    }

    /// Streaming position query: counts end entities whose **distinct**
    /// instance count strictly exceeds `c`, stopping the final join as
    /// soon as `limit` qualifying entities are known — the pipelined
    /// `LIMIT` execution a SQL engine performs (§5.3.2). All but the last
    /// (largest) scan are joined as usual; the last join streams through
    /// [`crate::ops::hash_join_streaming`] with an early-abort callback.
    ///
    /// Counting per end entity is monotone (distinct assignments only
    /// accumulate), so an entity can be declared *qualifying* the moment
    /// its count crosses `c` — no grouping barrier is needed. Returns
    /// `min(limit, true position)`.
    pub fn streaming_end_position(
        &self,
        index: &crate::engine::EdgeIndex,
        start: u64,
        c: u64,
        limit: usize,
    ) -> Result<usize> {
        self.validate()?;
        if limit == 0 {
            return Ok(0);
        }
        crate::metrics::record_streaming_eval();
        let scans = self.indexed_scans(index, &StartBinding::Const(start))?;
        let order = self.join_order_by_cost(&scans);
        let (&last, head) = order.split_last().expect("validated patterns have edges");
        let mut scans: Vec<Option<Relation>> = scans.into_iter().map(Some).collect();
        let last_scan = scans[last].take().expect("each edge is joined once");

        // Join every edge except the last with the materialized pipeline.
        let mut state = JoinState::new(self.var_count);
        for &ei in head {
            state.push(self.edges[ei], scans[ei].take().expect("each edge is joined once"));
        }

        // Column positions of each variable in the streamed row space:
        // the joined head's columns first, then the last scan's
        // (from, to).
        let last_edge = self.edges[last];
        let (cur_keys, scan_keys) = state.join_keys(last_edge);
        let cur_arity = state.current.as_ref().map_or(0, Relation::arity);
        let mut stream_col = state.var_col.clone();
        if stream_col[last_edge.u].is_none() {
            stream_col[last_edge.u] = Some(cur_arity);
        }
        if last_edge.u != last_edge.v && stream_col[last_edge.v].is_none() {
            stream_col[last_edge.v] = Some(cur_arity + 1);
        }
        let cols: Vec<usize> = (0..self.var_count)
            .map(|v| stream_col[v].expect("connected pattern binds every variable"))
            .collect();

        // Stream the final join, qualifying ends as their counts cross c.
        // Distinct assignments are deduplicated globally — an assignment
        // carries its end value, so this equals per-end deduplication.
        let mut seen = RowSet::new(self.var_count);
        let mut per_end: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut assignment = vec![0u64; self.var_count];
        let mut qualified = 0usize;
        let mut emit = |l: &[u64], r: &[u64]| -> bool {
            for (slot, &i) in assignment.iter_mut().zip(&cols) {
                *slot = if i < l.len() { l[i] } else { r[i - l.len()] };
            }
            if !is_injective(&assignment) || !seen.insert(&assignment).1 {
                return true;
            }
            let count = per_end.entry(assignment[self.end]).or_insert(0);
            *count += 1;
            if *count == c + 1 {
                qualified += 1;
                if qualified >= limit {
                    return false;
                }
            }
            true
        };
        match &state.current {
            // Single-edge pattern: stream the lone scan.
            None => {
                for row in last_scan.rows() {
                    if !emit(&[], row) {
                        break;
                    }
                }
            }
            Some(cur) => {
                crate::ops::hash_join_streaming(cur, &last_scan, &cur_keys, &scan_keys, emit)
            }
        }
        Ok(qualified)
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
        crate::metrics::record_full_eval();
        let scans = self.filtered_scans(schema, binding, scan_for)?;
        let order = self.join_order_by_cost(&scans);
        self.join_scans_in_order(scans, &order).map(|(rel, _)| rel)
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

    /// Evaluates the pattern over `index` joining edges in the given
    /// explicit order, with every edge's rows materialized up front
    /// (start probes, full partition scans otherwise) — no bound-value
    /// probes, no cost-based reordering. The
    /// benchmark baseline for [`PatternSpec::plan`]; counts as a full
    /// evaluation.
    pub fn evaluate_indexed_in_order(
        &self,
        index: &crate::engine::EdgeIndex,
        binding: &StartBinding,
        order: &[usize],
    ) -> Result<(Relation, usize)> {
        self.validate()?;
        crate::metrics::record_full_eval();
        let scans = self.indexed_scans(index, binding)?;
        self.join_scans_in_order(scans, order)
    }
}

/// Where [`PatternSpec::edge_rows`] reads an edge's partition rows from.
enum EdgeSource<'a> {
    /// The whole `(label, dir)` partition of this index.
    Scan(&'a crate::engine::EdgeIndex),
    /// The partition rows of `index` whose `from` (`src`) or `to`
    /// endpoint is in `keys` (sorted).
    Probe { index: &'a crate::engine::EdgeIndex, src: bool, keys: &'a [u64] },
}

/// The `(from, to)` column positions of an index's oriented schema.
fn endpoint_cols(index: &crate::engine::EdgeIndex) -> Result<(usize, usize)> {
    let schema = index.schema();
    Ok((schema.index_of("from")?, schema.index_of("to")?))
}

/// The start binding's values as sorted probe keys; `None` when the start
/// variable is unbound.
fn sorted_start_keys(binding: &StartBinding) -> Option<Vec<u64>> {
    match binding {
        StartBinding::Unbound => None,
        StartBinding::Const(s) => Some(vec![*s]),
        StartBinding::Among(values) => {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            Some(sorted)
        }
    }
}

/// Whether every value of an assignment is distinct — REX instance
/// semantics are injective: distinct variables bind distinct entities.
fn is_injective(assignment: &[u64]) -> bool {
    assignment.iter().enumerate().all(|(i, v)| !assignment[i + 1..].contains(v))
}

/// Incremental left-deep join state shared by the materialize-everything
/// pipeline ([`PatternSpec::evaluate_scanned`]), the plan-driven executor
/// (which materializes each step's rows lazily so bound-value probes can
/// read the intermediate) and the streaming position query.
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

    /// The distinct values the intermediate binds for `var`, sorted — the
    /// keys of a bound-value probe.
    fn bound_values(&self, var: usize) -> Vec<u64> {
        let col = self.var_col[var].expect("plans probe only already-bound variables");
        let current = self.current.as_ref().expect("bound probes never run on the first step");
        let mut keys: Vec<u64> = current.rows().map(|r| r[col]).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
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
        });
        let joined = Relation::from_flat(self.schema(arity), data).expect("row width is arity");
        self.peak = self.peak.max(joined.len());
        self.current = Some(joined);
    }

    /// Reorders each row into one column per variable, drops
    /// non-injective rows, and dedups (keeping first occurrences) — the
    /// shared tail of every evaluation pipeline, in one pass into one
    /// buffer. Dedup matters because parallel KB edges with the same
    /// label would otherwise multiply join rows without adding distinct
    /// instances.
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
        crate::metrics::record_peak_rows(self.peak);
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
        b.add_directed_edge(a, m, "starring");
        b.add_directed_edge(c, m, "starring");
        b.add_undirected_edge(a, c, "spouse");
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
        b.add_directed_edge(a, m, "r");
        b.add_directed_edge(a, m, "r");
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
            b.add_directed_edge(x, hub, "common");
        }
        let mid = b.add_node("mid", "T");
        b.add_directed_edge(start, mid, "rare");
        b.add_directed_edge(mid, hub, "common");
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

    /// With an all-free pattern (no bound endpoint anywhere) the planner
    /// must *not* assume an indexed probe exists for its first step: it
    /// falls back to a full scan, anchored on the smallest partition.
    #[test]
    fn all_free_triangle_falls_back_to_smallest_partition_scan() {
        let mut b = KbBuilder::new();
        let nodes: Vec<_> = (0..12).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        // Three partitions with very different sizes: `big` (30 rows),
        // `mid` (8 rows), `tiny` (2 rows).
        for i in 0..10 {
            for j in 0..3 {
                b.add_directed_edge(nodes[i], nodes[(i + j + 1) % 12], "big");
            }
        }
        for i in 0..8 {
            b.add_directed_edge(nodes[i], nodes[(i + 2) % 12], "mid");
        }
        b.add_directed_edge(nodes[0], nodes[1], "tiny");
        b.add_directed_edge(nodes[2], nodes[3], "tiny");
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
        // First step: a Scan (nothing is bound — a probe would have no
        // keys), and specifically of the smallest partition (`tiny`).
        assert_eq!(plan.steps[0].access, Access::Scan);
        assert_eq!(plan.steps[0].edge, 2);
        assert_eq!(plan.steps[0].est_rows, 2.0);
        // Later steps have a bound endpoint available and upgrade to
        // bound probes instead of scanning `big`/`mid` outright.
        assert!(plan.steps[1..].iter().all(|s| matches!(s.access, Access::BoundProbe { .. })));
        // And the planned execution agrees with the definitional path.
        let planned = spec.evaluate_indexed(&index, &StartBinding::Unbound).unwrap();
        let naive = spec
            .evaluate_with(&crate::engine::oriented_edge_relation(&kb), &StartBinding::Unbound)
            .unwrap();
        assert_eq!(planned.len(), naive.len());
    }

    /// Plan metadata records the chosen order, access paths, and
    /// estimates — the contract `rex plan` explains to users.
    #[test]
    fn plan_metadata_exposes_order_access_and_estimates() {
        let mut b = KbBuilder::new();
        let start = b.add_node("start", "T");
        let hub = b.add_node("hub", "T");
        for i in 0..200 {
            let x = b.add_node(&format!("x{i}"), "T");
            b.add_directed_edge(x, hub, "common");
        }
        let mid = b.add_node("mid", "T");
        b.add_directed_edge(start, mid, "rare");
        b.add_directed_edge(mid, hub, "common");
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
        assert_eq!(plan.order(), vec![0, 1]);
        // Step 0 probes the start binding on the edge's `from` side;
        // step 1 avoids the 201-row `common` scan via a bound probe.
        assert_eq!(plan.steps[0].access, Access::StartProbe { src: true });
        assert_eq!(plan.steps[1].access, Access::BoundProbe { src: true, var: 2 });
        assert!(plan.steps[1].est_rows < 201.0);
        assert!(plan.est_cost > 0.0);
    }
}
