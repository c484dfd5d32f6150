//! Shared distribution cache — the "amortizing the computation over
//! different pairs by sharing the computation involved" optimization the
//! paper sketches in §5.3.2, taken to its batched conclusion.
//!
//! The expensive ingredient of every distribution measure is the *local
//! count multiset* of a pattern for a start entity. That multiset depends
//! only on the pattern **up to isomorphism** and the start entity — not on
//! the end entity, not on the aggregate value being positioned — and the
//! global-position estimate needs it for ~100 sampled starts per pattern.
//!
//! The cache is therefore keyed **per canonical pattern shape** and holds
//! an [`AllStartsDistribution`]: every covered start entity with its
//! descending count multiset, produced by batched relational evaluation
//! ([`count_distributions`]) whose start variable ranges over a whole set
//! of starts at once. A position query against a cached shape is then a
//! lookup in its runs — the asymptotics drop from ~`starts` full
//! evaluations per shape to 1.
//!
//! A read ([`DistributionCache::all_starts`]) reports whether *it*
//! evaluated ([`BatchRead`]), so a request can account its own
//! evaluations apart from concurrent readers and maintenance that share
//! the cache.
//!
//! **One map, extended by reads.** The cache is a single
//! `RwLock<HashMap<CanonicalKey, Arc<AllStartsDistribution>>>`. An entry
//! holds its covered starts in one ascending array of `u32` node ids and,
//! in a second array, every start's multiset as runs of equal counts,
//! grouped by start in the same order, each run carrying its start. A
//! start without instances has no runs, so it costs only its 4 bytes. A
//! read names its starts as a [`DrawTable`]: the distinct starts,
//! ascending, each with its number of draws (a
//! [`SampleFrame`](crate::measures::SampleFrame) keeps its own). Every
//! read of an entry over those starts is then one merge walk of the draw
//! table against the start array, with a run cursor moved beside it and
//! no hashing past the one map lookup: the covering check of a warm hit,
//! the list of starts a miss lacks, and the position sum, which counts
//! each distinct start's position once per draw. A read clones one
//! entry's `Arc` under the read lock, then evaluates — with no lock held
//! — only the requested starts the entry lacks, in one
//! [`count_distributions`] call, converts the evaluation's per-start
//! multisets to runs once, and publishes the sorted merge of the two
//! tables in place. A one-start read ([`DistributionCache::counts`]) is
//! simply a read of `[start]`, so local and global queries of a shape
//! share one entry, and a grown sample pays only for its new starts.
//!
//! **Partial entries.** An entry need not cover the whole frame. The
//! ranking pass reads a shape *bounded*: for each explanation waiting on
//! it, the entry's position sum over the draws it covers is a lower
//! bound on the full sum (positions are never negative), and once that
//! bound exceeds the explanation's pair's k-th best the explanation
//! cannot enter the top-k. A bounded read is a hit when the published
//! starts already rank out (or answer exactly) every waiter; otherwise
//! it evaluates the missing starts in ascending order and stops at the
//! first start after which every waiter is out — §5.3.2's `LIMIT p`
//! pruning, applied to the shared batch. The starts a stopped read
//! evaluated are published like any others, so a later read, bounded
//! or not, evaluates only what the entry still lacks. A stop is not an
//! abort; an aborted read still publishes nothing. The unbounded reads
//! ([`DistributionCache::all_starts`], [`DistributionCache::counts`],
//! [`DistributionCache::global_position`]) always return an entry
//! covering every start they asked for. A read counts one hit, or one
//! miss when it evaluated at least one start — a read of no start, or
//! one served entirely from published starts, is a hit.
//!
//! **KB updates.** Every entry carries the KB *epoch* it was computed at;
//! a read against an index at another epoch ignores it and evaluates
//! afresh (the refuse/refresh guarantee). The cheap path is
//! [`DistributionCache::apply_delta`]: given the [`KbDelta`] between the
//! entries' epoch and the KB's, each cached shape is either **untouched**
//! (label set disjoint from the delta, or no affected start inside its
//! domain — republished at the new epoch sharing the same multisets) or
//! **patched** (the affected starts inside its domain are re-evaluated
//! with one partial evaluation and merged over the old multisets, the
//! same merge a read uses to extend an entry). Entries hold no pattern:
//! maintenance evaluates the spec read back from the shape's key
//! ([`CanonicalKey::to_spec`]). Either way, the next read is a warm hit.
//!
//! **Publication.** Entries are immutable once published; a write lock is
//! held only to insert entries, never across an evaluation:
//!
//! * a reader whose shape gained an entry at a **newer** epoch meanwhile
//!   keeps its result private; a live entry that already serves the read
//!   wins; a same-epoch live entry that does not is merged with the new
//!   one (same-epoch multisets agree on shared starts);
//! * maintenance reads a snapshot of the entries, builds the maintained
//!   ones with no lock held, and publishes them together in one
//!   write-lock section. Maintained entries win over concurrent installs,
//!   and an entry dropped as skewed is removed only if it is still the one
//!   maintenance saw.
//!
//! Combined with the per-entry epoch guard, a reader that pinned an index
//! at epoch `E` either hits entries computed at `E` or computes at `E` —
//! it can never observe a torn mix of epochs, and it never waits on an
//! in-flight [`DistributionCache::apply_delta`] pass. Hit/miss counters
//! make the sharing observable in tests and benches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rex_kb::{KbDelta, KnowledgeBase, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{
    count_distributions, delta_affected_starts, AfterStart, EdgeIndex, EvalKind, EvalRequest,
};
use rex_relstore::metrics::EvalTrace;
use rex_relstore::plan::PatternSpec;

use crate::canonical::CanonicalKey;
use crate::explanation::Explanation;
use crate::measures::distribution::position_in;
use crate::measures::frame::DrawTable;

/// One run of equal counts in a start's descending count multiset: the
/// count, how many ends have a count of at least that much — the
/// multiset's length through the end of the run, so a position is one
/// binary search over a start's runs — and the start, in the four bytes
/// the count's alignment would otherwise pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    count: u64,
    through: u32,
    start: u32,
}

const _: () = assert!(std::mem::size_of::<Run>() == 16);

/// Appends the runs of `start`'s descending multiset `counts` to `runs`.
fn push_runs(runs: &mut Vec<Run>, start: u32, counts: &[u64]) {
    let mut through = 0;
    for equal in counts.chunk_by(|a, b| a == b) {
        through += equal.len();
        let through = u32::try_from(through).expect("a multiset holds one count per end entity");
        runs.push(Run { count: equal[0], through, start });
    }
}

/// Position of `a` in the multiset `runs` encode: the number of ends
/// whose count exceeds `a`, as
/// [`position_in`](crate::measures::distribution::position_in) counts
/// them on the expanded multiset.
fn runs_position(runs: &[Run], a: u64) -> usize {
    let above = runs.partition_point(|r| r.count > a);
    above.checked_sub(1).map_or(0, |last| runs[last].through as usize)
}

/// The descending multiset `runs` encode, expanded.
fn expand(runs: &[Run]) -> Vec<u64> {
    let mut counts = Vec::with_capacity(runs.last().map_or(0, |r| r.through as usize));
    for r in runs {
        counts.resize(r.through as usize, r.count);
    }
    counts
}

/// An entry's covered starts in one ascending array and every covered
/// start's runs in another, grouped by start in the same order. A run
/// carries its start, so a start without instances takes only its slot
/// in `starts`, and a walk of the starts finds each one's runs with a
/// [`RunCursor`] moved beside it.
#[derive(Debug, Default)]
struct StartRuns {
    /// The covered starts, ascending.
    starts: Box<[u32]>,
    /// The runs of the covered starts, by ascending start.
    runs: Box<[Run]>,
}

/// A cursor over a table's runs, moved forward beside a walk of its
/// ascending starts: each call names a start no smaller than the call
/// before.
struct RunCursor<'a>(&'a [Run]);

impl<'a> RunCursor<'a> {
    /// Passes the runs of every start below `start`.
    fn pass(&mut self, start: u32) {
        while let Some((run, rest)) = self.0.split_first() {
            if run.start >= start {
                break;
            }
            self.0 = rest;
        }
    }

    /// The runs of `start`.
    fn take(&mut self, start: u32) -> &'a [Run] {
        self.pass(start);
        let len = self.0.iter().take_while(|r| r.start == start).count();
        let (runs, rest) = self.0.split_at(len);
        self.0 = rest;
        runs
    }

    /// [`runs_position`] of `a` in `start`'s runs, found by passing the
    /// runs whose count exceeds `a`: the last one's `through` is the
    /// number of ends above `a`. A scan, not a search, because most
    /// covered starts have no runs and most of the rest a few.
    fn position(&mut self, start: u32, a: u64) -> usize {
        self.pass(start);
        let mut through = 0;
        while let Some((run, rest)) = self.0.split_first() {
            if run.start != start || run.count <= a {
                break;
            }
            through = run.through;
            self.0 = rest;
        }
        through as usize
    }
}

impl StartRuns {
    /// Converts one evaluation's output: `starts` (any order, repeats
    /// allowed), each with its multiset in `per_start` or none.
    fn from_batch(starts: &[u64], per_start: &HashMap<u64, Vec<u64>>) -> Self {
        let mut sorted: Vec<u32> = starts
            .iter()
            .map(|&s| u32::try_from(s).expect("an evaluated start is a node id"))
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut runs = Vec::new();
        for &s in &sorted {
            push_runs(&mut runs, s, per_start.get(&u64::from(s)).map_or(&[], Vec::as_slice));
        }
        StartRuns { starts: sorted.into_boxed_slice(), runs: runs.into_boxed_slice() }
    }

    /// `start` as a covered start, `None` when it is not covered.
    fn covered(&self, start: u64) -> Option<u32> {
        let start = u32::try_from(start).ok()?;
        self.starts.binary_search(&start).is_ok().then_some(start)
    }

    /// The runs of `start`, `None` when it is not covered.
    fn runs_of(&self, start: u64) -> Option<&[Run]> {
        let start = self.covered(start)?;
        let from = self.runs.partition_point(|r| r.start < start);
        let to = self.runs.partition_point(|r| r.start <= start);
        Some(&self.runs[from..to])
    }

    /// Walks `draws` against the ascending start array in one pass:
    /// yields each distinct drawn start with its number of draws and,
    /// when this table covers it, the start as stored.
    fn align<'a>(
        &'a self,
        draws: &'a DrawTable,
    ) -> impl Iterator<Item = (u64, usize, Option<u32>)> + 'a {
        let mut at = 0;
        draws.iter().map(move |(start, times)| {
            while self.starts.get(at).is_some_and(|&s| u64::from(s) < start) {
                at += 1;
            }
            let covered = self.starts.get(at).copied().filter(|&s| u64::from(s) == start);
            (start, times, covered)
        })
    }

    /// The drawn starts this table does not cover, ascending and
    /// distinct.
    fn missing(&self, draws: &DrawTable) -> Vec<u64> {
        self.align(draws).filter(|(.., at)| at.is_none()).map(|(start, ..)| start).collect()
    }

    /// The sum of `a`'s positions over every covered draw whose start is
    /// not `exclude`, and whether every such draw is covered (the sum is
    /// then exact, otherwise a lower bound: positions are never negative).
    /// A run cursor moves beside the walk of the starts.
    fn covered_sum(&self, draws: &DrawTable, exclude: Option<u64>, a: u64) -> (usize, bool) {
        let (mut sum, mut exact, mut runs) = (0, true, RunCursor(&self.runs));
        for (start, times, covered) in self.align(draws) {
            if Some(start) == exclude {
                continue;
            }
            match covered {
                Some(s) => sum += times * runs.position(s, a),
                None => exact = false,
            }
        }
        (sum, exact)
    }

    /// This table with `newer` merged over it, in one pass over both
    /// ascending start arrays with a run cursor beside each: a start of
    /// `newer` takes `newer`'s runs.
    fn merged(&self, newer: &StartRuns) -> StartRuns {
        let mut starts = Vec::with_capacity(self.starts.len() + newer.starts.len());
        let mut runs = Vec::with_capacity(self.runs.len() + newer.runs.len());
        let (mut old_runs, mut new_runs) = (RunCursor(&self.runs), RunCursor(&newer.runs));
        let (mut i, mut j) = (0, 0);
        loop {
            let (old, new) = (self.starts.get(i).copied(), newer.starts.get(j).copied());
            let start = match (old, new) {
                (None, None) => break,
                (Some(s), None) | (None, Some(s)) => s,
                (Some(old), Some(new)) => old.min(new),
            };
            i += usize::from(old == Some(start));
            let from = if new == Some(start) {
                j += 1;
                &mut new_runs
            } else {
                &mut old_runs
            };
            runs.extend_from_slice(from.take(start));
            starts.push(start);
        }
        StartRuns { starts: starts.into_boxed_slice(), runs: runs.into_boxed_slice() }
    }
}

/// The batched all-starts distribution of one canonical pattern shape:
/// for every start entity in its domain, the descending multiset of
/// per-end instance counts.
///
/// **Domain.** The covered starts are whatever the reads and patches of
/// the shape evaluated. An entry may be **partial** with respect to a
/// frame: a bounded read that stopped once its explanations were ranked
/// out covers a prefix of the starts it lacked. Over a partial entry,
/// [`AllStartsDistribution::covered_position_sum`] gives a lower bound
/// on a position sum; [`AllStartsDistribution::position_sum`] needs
/// every counted draw covered.
///
/// **Layout.** The covered starts sit in one ascending array of `u32`
/// node ids, and each start's multiset is stored as runs of equal counts
/// (most ends of a start share a few small counts, so a multiset of
/// hundreds of counts is a few runs). The runs of every start sit in a
/// second array, grouped by start in the same order, and each run
/// carries its start in the bytes beside its count, so a run takes 16
/// bytes and a start without instances — most covered starts — takes
/// only its 4. Both arrays are sized exactly. A read over a [`DrawTable`]
/// — whether the entry covers it, and the position sum — is one merge
/// walk of the table against the start array with a run cursor moved
/// beside it, and a position within a start's runs is one binary search
/// over them, with no hashing. A single start is found by binary search
/// in each array, and merging two entries is one sorted merge of their
/// start arrays, each with its run cursor.
/// [`AllStartsDistribution::counts_for`] expands a start's runs back
/// into its multiset. The shape's relational spec is not held: delta
/// maintenance reads it back from the entry's key
/// ([`CanonicalKey::to_spec`]).
///
/// **Immutable once published**: the epoch is fixed at construction and
/// the multisets never change, so a reader holding the `Arc` can trust
/// every field for as long as it likes — reads and maintenance publish
/// *new* entries (sharing the `Arc`'d runs when untouched) instead of
/// editing live ones.
#[derive(Debug)]
pub struct AllStartsDistribution {
    table: Arc<StartRuns>,
    /// The merged traffic of every evaluation the entry was built from.
    trace: EvalTrace,
    /// The KB epoch the multisets reflect (fixed at publication).
    epoch: u64,
}

impl AllStartsDistribution {
    /// The KB epoch this batch reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The merged traffic of the evaluations this entry was built from
    /// (its cold batch, plus every extension and patch since): walks,
    /// rows read, and the largest peak rows of any of them.
    pub fn trace(&self) -> &EvalTrace {
        &self.trace
    }

    /// Whether `start` was covered by the batched evaluation.
    pub fn covers(&self, start: u64) -> bool {
        self.table.covered(start).is_some()
    }

    /// The descending count multiset of `start` (empty when it has no
    /// instances), `None` when `start` is outside the evaluated domain.
    /// Each call expands the start's runs into a new multiset.
    pub fn counts_for(&self, start: u64) -> Option<Arc<Vec<u64>>> {
        self.table.runs_of(start).map(|runs| Arc::new(expand(runs)))
    }

    /// Position of aggregate value `a` in `start`'s distribution, `None`
    /// when `start` is outside the evaluated domain.
    pub fn position(&self, start: u64, a: u64) -> Option<usize> {
        self.table.runs_of(start).map(|runs| runs_position(runs, a))
    }

    /// Sampled global position of aggregate value `a`: the sum of its
    /// positions over every draw of `draws`, skipping each draw of
    /// `exclude` (the pair's own start) at read time — one merge walk of
    /// the table against the entry's starts. Panics when a counted start
    /// is outside the evaluated domain.
    pub fn position_sum(&self, draws: &DrawTable, exclude: Option<NodeId>, a: u64) -> usize {
        let (sum, exact) = self.covered_position_sum(draws, exclude, a);
        assert!(exact, "batch covers requested starts");
        sum
    }

    /// [`AllStartsDistribution::position_sum`] over the counted draws
    /// this entry covers, with whether it covers all of them. A partial
    /// entry's sum is a **lower bound** on the full one, since positions
    /// are never negative; a covering entry's is exact.
    pub fn covered_position_sum(
        &self,
        draws: &DrawTable,
        exclude: Option<NodeId>,
        a: u64,
    ) -> (usize, bool) {
        self.table.covered_sum(draws, exclude.map(|s| s.0 as u64), a)
    }

    /// Number of starts covered by the evaluation.
    pub fn domain_len(&self) -> usize {
        self.table.starts.len()
    }

    /// Whether this entry can serve a read against an index at `epoch`
    /// of `draws`: same epoch and a domain covering every drawn start.
    fn serves(&self, epoch: u64, draws: &DrawTable) -> bool {
        self.epoch == epoch && self.table.align(draws).all(|(.., at)| at.is_some())
    }

    /// An entry covering no start, at `epoch`.
    fn empty(epoch: u64) -> AllStartsDistribution {
        AllStartsDistribution { table: Arc::default(), trace: EvalTrace::default(), epoch }
    }

    /// Heap bytes this entry holds: its own allocation and its table's,
    /// each with an `Arc`'s strong and weak counts, plus the table's
    /// arrays — 4 bytes per covered start and 16 per run.
    fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let arc_counts = 2 * size_of::<usize>();
        2 * arc_counts
            + size_of::<AllStartsDistribution>()
            + size_of::<StartRuns>()
            + size_of_val(&*self.table.starts)
            + size_of_val(&*self.table.runs)
    }

    /// This entry with `newer` merged over it: `newer`'s multisets
    /// replace this entry's on `newer`'s domain, the domains unite, the
    /// traces merge, and the result takes `newer`'s epoch. One merge
    /// serves both a read that extends an entry with starts it lacked and
    /// delta maintenance that patches the affected starts.
    fn merged(&self, newer: &AllStartsDistribution) -> AllStartsDistribution {
        let mut trace = self.trace;
        trace.merge(&newer.trace);
        AllStartsDistribution {
            table: Arc::new(self.table.merged(&newer.table)),
            trace,
            epoch: newer.epoch,
        }
    }
}

/// One read of a shape's batch through [`DistributionCache::all_starts`]:
/// the batch, plus what this call itself evaluated to produce it — so a
/// request accounts only its own evaluations, never a concurrent
/// reader's miss or a maintenance patch that shares the cache.
#[derive(Debug)]
pub struct BatchRead {
    /// The batch covering the requested starts — for a bounded read, at
    /// least the starts its waiters' answers needed.
    pub batch: Arc<AllStartsDistribution>,
    /// Walks this call evaluated — one, over only the starts the entry
    /// lacked ([`EvalTrace::tiles`]); `None` when published starts served
    /// the read.
    pub evaluated_tiles: Option<usize>,
}

/// One explanation a bounded read answers for
/// ([`DistributionCache::read`]): its pair's own start, skipped in its
/// position sum, its aggregate value, its pair's cutoff, and the answer
/// the read leaves.
#[derive(Debug)]
pub(crate) struct Waiter<'a> {
    exclude: Option<NodeId>,
    count: u64,
    /// The smallest position sum that ranks the explanation out of its
    /// pair's top-k — one more than the k-th smallest exact sum the pass
    /// knows, `usize::MAX` while it knows fewer. Other readers of the
    /// pass lower it as their shapes complete; it never rises.
    cutoff: &'a AtomicUsize,
    /// The exact position sum, or [`RANKED_OUT`]. Relaxed: the pass
    /// reads an answer on the thread that stored it, or after joining it.
    answer: AtomicUsize,
}

/// A [`Waiter`]'s answer when the bound ranked it out.
const RANKED_OUT: usize = usize::MAX;

impl<'a> Waiter<'a> {
    pub(crate) fn new(exclude: Option<NodeId>, count: u64, cutoff: &'a AtomicUsize) -> Self {
        Waiter { exclude, count, cutoff, answer: AtomicUsize::new(RANKED_OUT) }
    }

    /// The answer of the last read that answered this waiter: its exact
    /// position sum, `None` when the bound ranked it out.
    pub(crate) fn answer(&self) -> Option<usize> {
        Some(self.answer.load(Ordering::Relaxed)).filter(|&sum| sum != RANKED_OUT)
    }

    /// Whether a lower bound of `sum` ranks the explanation out.
    fn out(&self, sum: usize) -> bool {
        sum >= self.cutoff.load(Ordering::Relaxed)
    }

    /// The waiter's position sum over the draws `entry` covers (none when
    /// there is no entry) and whether it is exact.
    fn covered_sum(
        &self,
        entry: Option<&AllStartsDistribution>,
        draws: &DrawTable,
    ) -> (usize, bool) {
        match entry {
            Some(entry) => entry.covered_position_sum(draws, self.exclude, self.count),
            None => {
                (0, draws.iter().all(|(start, _)| Some(start) == self.exclude.map(|s| s.0 as u64)))
            }
        }
    }
}

/// Answers every waiter from `entry`: its exact position sum when `entry`
/// covers every draw it counts, ranked out when the sum over the covered
/// draws already reaches its cutoff. Returns `false` at the first waiter
/// that is neither — the entry cannot answer the read.
fn answer_all(
    entry: Option<&AllStartsDistribution>,
    draws: &DrawTable,
    waiting: &[Waiter<'_>],
) -> bool {
    waiting.iter().all(|w| {
        let answer = match w.covered_sum(entry, draws) {
            (sum, true) => sum,
            (sum, false) if w.out(sum) => RANKED_OUT,
            _ => return false,
        };
        w.answer.store(answer, Ordering::Relaxed);
        true
    })
}

/// A bounded read's lower bounds while it evaluates: each waiter's
/// position sum over the draws covered so far, raised start by start.
struct LowerBounds<'w> {
    waiting: &'w [Waiter<'w>],
    draws: &'w DrawTable,
    sums: Mutex<Vec<usize>>,
}

impl<'w> LowerBounds<'w> {
    fn new(
        entry: Option<&AllStartsDistribution>,
        draws: &'w DrawTable,
        waiting: &'w [Waiter<'w>],
    ) -> Self {
        let sums = waiting.iter().map(|w| w.covered_sum(entry, draws).0).collect();
        LowerBounds { waiting, draws, sums: Mutex::new(sums) }
    }

    /// Adds the draws of `start`, just evaluated with the descending
    /// multiset `counts`; returns whether some waiter is not ranked out
    /// yet, so the evaluation goes on.
    fn go_on(&self, start: u64, counts: &[u64]) -> bool {
        let times = self.draws.times(start);
        let mut sums = self.sums.lock();
        let mut out = true;
        for (w, sum) in self.waiting.iter().zip(sums.iter_mut()) {
            if w.exclude.map(|s| s.0 as u64) != Some(start) {
                *sum += times * position_in(counts, w.count);
            }
            out &= w.out(*sum);
        }
        !out
    }
}

/// What [`DistributionCache::apply_delta`] did to each cached shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaMaintenance {
    /// Shapes whose affected starts were re-evaluated with a partial
    /// evaluation and merged over the cached multisets.
    pub patched: usize,
    /// Shapes untouched by the delta (label-disjoint, no affected start
    /// inside the domain, or already current): republished at the new
    /// epoch with the multisets shared, not recomputed.
    pub untouched: usize,
    /// Shapes dropped because their epoch did not match the delta's
    /// window (skewed bookkeeping); the next read re-evaluates them.
    pub dropped: usize,
    /// Total affected starts re-evaluated across all patched shapes.
    pub affected_starts: usize,
}

/// Thread-safe cache of distribution multisets, one entry per canonical
/// pattern shape. Epoch-aware: see the module docs for the staleness,
/// publication and delta-maintenance contract.
#[derive(Debug, Default)]
pub struct DistributionCache {
    entries: RwLock<HashMap<CanonicalKey, Arc<AllStartsDistribution>>>,
    /// Write-lock sections that published something; backs
    /// [`DistributionCache::generation_fingerprint`].
    publications: AtomicUsize,
    /// Reads that published starts answered, evaluating nothing.
    hits: AtomicUsize,
    /// Reads that evaluated at least one start; every miss is one
    /// batched evaluation, so this also backs
    /// [`DistributionCache::batched_evals`].
    misses: AtomicUsize,
    delta_evals: AtomicUsize,
}

impl DistributionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compatibility shim: the row ceiling is retired, and every batched
    /// evaluation walks its starts in one walk with the budget checked
    /// before each start. Returns an empty cache; the argument is ignored.
    /// Kept so code written against the tiled API still compiles.
    pub fn with_row_ceiling(_max_rows: usize) -> Self {
        Self::default()
    }

    /// Partial (delta-maintenance) evaluations performed by
    /// [`DistributionCache::apply_delta`], as the engine's returned
    /// traces count them.
    pub fn delta_evals(&self) -> usize {
        self.delta_evals.load(Ordering::Relaxed)
    }

    /// Evaluates `spec` over `starts` and wraps the result as an entry at
    /// the index's epoch, updating the delta counter. The entry covers
    /// the starts the engine evaluated: all of them, unless `after_start`
    /// stopped it. The engine checks `budget` before every start, and on
    /// abort this returns the typed error **without touching a single
    /// counter** — the abort-leaves-no-trace half of the robustness
    /// contract.
    fn evaluate(
        &self,
        index: &EdgeIndex,
        spec: &PatternSpec,
        starts: &[u64],
        kind: EvalKind,
        budget: &Budget,
        after_start: Option<AfterStart<'_>>,
    ) -> rex_relstore::Result<AllStartsDistribution> {
        let req = EvalRequest { starts, kind, budget: budget.clone(), after_start };
        let batch = count_distributions(index, spec, &req)?;
        let trace = batch.trace;
        self.delta_evals.fetch_add(trace.delta, Ordering::Relaxed);
        Ok(AllStartsDistribution {
            table: Arc::new(StartRuns::from_batch(&batch.evaluated, &batch.per_start)),
            trace,
            epoch: index.epoch(),
        })
    }

    /// The published entry of `key`: one `Arc` clone under a read lock
    /// that is released before this returns.
    fn entry(&self, key: &CanonicalKey) -> Option<Arc<AllStartsDistribution>> {
        self.entries.read().get(key).cloned()
    }

    /// Installs `computed` — `base`, the entry the reader extended, merged
    /// with its fresh starts — for a read of `draws`, under the rules in
    /// the module docs: a live entry that serves the read wins, a live
    /// entry at a newer epoch keeps `computed` private, and a same-epoch
    /// live entry other than `base` is merged with it. Returns the batch
    /// the caller should use. The write lock never covers an evaluation.
    fn install(
        &self,
        key: &CanonicalKey,
        base: Option<&Arc<AllStartsDistribution>>,
        mut computed: AllStartsDistribution,
        draws: &DrawTable,
    ) -> Arc<AllStartsDistribution> {
        let mut entries = self.entries.write();
        if let Some(live) = entries.get(key) {
            if live.serves(computed.epoch, draws) {
                return Arc::clone(live);
            }
            if live.epoch > computed.epoch {
                return Arc::new(computed);
            }
            if live.epoch == computed.epoch && !base.is_some_and(|b| Arc::ptr_eq(b, live)) {
                computed = live.merged(&computed);
            }
        }
        let computed = Arc::new(computed);
        entries.insert(key.clone(), Arc::clone(&computed));
        self.publications.fetch_add(1, Ordering::Relaxed);
        computed
    }

    /// The warm half of a read: `e`'s published entry at `index`'s
    /// epoch answers it from its starts alone, counted as a hit. An
    /// unbounded read (`waiting` is `None`) needs every drawn start
    /// covered; with no start drawn it is a hit even with no entry. A
    /// bounded read needs each waiter's position sum over the covered
    /// draws to be exact or to rank it out already. Otherwise nothing is
    /// counted, and the error carries the current-epoch entry a miss
    /// extends, if any.
    pub(crate) fn lookup(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        draws: &DrawTable,
        waiting: Option<&[Waiter<'_>]>,
    ) -> std::result::Result<BatchRead, Option<Arc<AllStartsDistribution>>> {
        let entry = self.entry(e.key()).filter(|b| b.epoch == index.epoch());
        let served = match (waiting, &entry) {
            (Some(waiting), _) => answer_all(entry.as_deref(), draws, waiting),
            (None, Some(batch)) => batch.serves(index.epoch(), draws),
            (None, None) => draws.iter().next().is_none(),
        };
        if !served {
            return Err(entry);
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        let batch = entry.unwrap_or_else(|| Arc::new(AllStartsDistribution::empty(index.epoch())));
        Ok(BatchRead { batch, evaluated_tiles: None })
    }

    /// The all-starts distribution of `e`'s pattern shape covering (at
    /// least) `starts`: batched relational evaluation shared by every
    /// start in the sample, every explanation with an isomorphic pattern,
    /// and every thread. When the shape's current-epoch entry lacks some
    /// of `starts`, **only those** are evaluated, in one call, and merged
    /// into the entry. An entry at another epoch than `index`'s is stale
    /// and ignored — the refuse/refresh half of the epoch contract;
    /// [`DistributionCache::apply_delta`] is the cheap alternative.
    ///
    /// The evaluation runs under `budget`, checked before every start. On
    /// abort (deadline, cancellation, row-budget exhaustion)
    /// the cache is left **byte-identical** to its pre-call state:
    /// nothing is installed and no counter moves — a retried or
    /// budget-relaxed call recomputes exactly what this one would have.
    /// Accounting and publication happen only after the evaluation
    /// completes. A warm hit never aborts.
    pub fn all_starts(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        budget: &Budget,
    ) -> rex_relstore::Result<BatchRead> {
        self.read(index, e, &DrawTable::from_starts(starts), budget, None)
    }

    /// [`DistributionCache::all_starts`] of the starts `draws` holds —
    /// or, for a **bounded** read (`waiting` is `Some`), of only as many
    /// as its waiters need. A bounded read is a hit when the published
    /// starts already answer every waiter ([`DistributionCache::lookup`]).
    /// Otherwise it evaluates the missing starts in ascending order,
    /// adding each one's positions to every waiter's lower bound, and
    /// stops at the first start after which every waiter is ranked out.
    /// Such a stop is not an abort: the starts it evaluated are merged
    /// into the entry and published like any other, so a later read
    /// resumes where it stopped. A bounded read leaves each waiter's
    /// answer in the waiter ([`Waiter::answer`]). A read counts one hit,
    /// or one miss (a batched evaluation) when it evaluated at least one
    /// start.
    pub(crate) fn read(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        draws: &DrawTable,
        budget: &Budget,
        waiting: Option<&[Waiter<'_>]>,
    ) -> rex_relstore::Result<BatchRead> {
        let base = match self.lookup(index, e, draws, waiting) {
            Ok(hit) => return Ok(hit),
            Err(base) => base,
        };
        let key = e.key();
        let missing = match &base {
            Some(b) => b.table.missing(draws),
            None => draws.iter().map(|(start, _)| start).collect(),
        };
        let bounds = waiting.map(|waiting| LowerBounds::new(base.as_deref(), draws, waiting));
        let go_on =
            |start: u64, counts: &[u64]| bounds.as_ref().is_none_or(|b| b.go_on(start, counts));
        let after_start = bounds.is_some().then_some(&go_on as AfterStart<'_>);
        // No lock is held while evaluating; an abort propagates here,
        // before any observable state changes.
        let spec = e.pattern.to_spec();
        let fresh = self.evaluate(index, &spec, &missing, EvalKind::Full, budget, after_start)?;
        let evaluated_tiles = Some(fresh.trace.tiles);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = match &base {
            Some(b) => b.merged(&fresh),
            None => fresh,
        };
        let batch = self.install(key, base.as_ref(), computed, draws);
        // The returned batch holds every start the walk's bounds counted.
        let answered = waiting.is_none_or(|waiting| answer_all(Some(&batch), draws, waiting));
        assert!(answered, "a bounded read stops only once its waiters are out");
        Ok(BatchRead { batch, evaluated_tiles })
    }

    /// The descending count multiset of `e`'s pattern for `start`: a
    /// read of `[start]` through [`DistributionCache::all_starts`], so a
    /// start outside the shape's entry extends that entry.
    pub fn counts(&self, index: &EdgeIndex, e: &Explanation, start: u32) -> Arc<Vec<u64>> {
        let read = self
            .all_starts(index, e, &[NodeId(start)], &Budget::unlimited())
            .expect("unlimited budget never aborts");
        read.batch.counts_for(start as u64).expect("the read covers its start")
    }

    /// Local position of `e` (count aggregate) for `start`, if an entry
    /// at `index`'s epoch already covers it — never computes, never
    /// counts a hit or miss. The pruned rankers use this for free
    /// exactness before falling back to a bounded streaming probe.
    pub fn cached_local_position(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        start: u32,
    ) -> Option<usize> {
        let entry = self.entry(e.key()).filter(|b| b.epoch == index.epoch())?;
        entry.position(start as u64, e.count() as u64)
    }

    /// Incrementally maintains every cached entry across `delta`.
    /// `index` must already be advanced to the delta's target epoch
    /// ([`EdgeIndex::next_epoch`]). Per shape:
    ///
    /// * labels disjoint from the delta, or no affected start inside the
    ///   domain → republished at the new epoch sharing the same starts
    ///   and runs (**untouched**, O(1));
    /// * otherwise → one partial evaluation over just the affected starts
    ///   inside the domain, merged over the old multisets (**patched**).
    ///
    /// The pass reads a snapshot of the entries and builds every
    /// maintained entry with no lock held, while readers keep hitting the
    /// published ones; one write-lock section then publishes them
    /// together. A reader pinned to the pre-delta index keeps reading
    /// old-epoch values (or computes them privately); a reader that picks
    /// up the post-delta index sees the maintained entries — never a mix.
    /// Patched shapes hold multisets byte-identical to a scratch rebuild
    /// at the new epoch — the parity the incremental test suite pins
    /// down.
    pub fn apply_delta(
        &self,
        kb: &KnowledgeBase,
        index: &EdgeIndex,
        delta: &KbDelta,
    ) -> DeltaMaintenance {
        assert_eq!(
            index.epoch(),
            delta.to_epoch,
            "apply_delta: refresh the index to the delta's target epoch first"
        );
        let mut outcome = DeltaMaintenance::default();
        let snapshot: Vec<(CanonicalKey, Arc<AllStartsDistribution>)> =
            self.entries.read().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        let mut maintained = Vec::with_capacity(snapshot.len());
        let mut dropped = Vec::new();
        for (key, entry) in snapshot {
            if entry.epoch == delta.to_epoch {
                // Already current: a reader of the new index evaluated it.
                outcome.untouched += 1;
                continue;
            }
            if entry.epoch != delta.from_epoch {
                // Skewed entry (outside the window): drop it and let the
                // next read re-evaluate.
                outcome.dropped += 1;
                dropped.push((key, entry));
                continue;
            }
            let spec = key.to_spec();
            let affected: Vec<u64> = delta_affected_starts(kb, &spec, delta)
                .unwrap_or_default()
                .into_iter()
                .filter(|&s| entry.covers(s))
                .collect();
            let next = if affected.is_empty() {
                outcome.untouched += 1;
                AllStartsDistribution {
                    table: Arc::clone(&entry.table),
                    trace: entry.trace,
                    epoch: delta.to_epoch,
                }
            } else {
                // The endpoint postings make the partial evaluation touch
                // only rows incident to the affected starts.
                let unlimited = Budget::unlimited();
                let partial = self
                    .evaluate(index, &spec, &affected, EvalKind::Delta, &unlimited, None)
                    .expect("a key's spec is a valid pattern");
                outcome.patched += 1;
                outcome.affected_starts += affected.len();
                entry.merged(&partial)
            };
            maintained.push((key, Arc::new(next)));
        }
        let mut entries = self.entries.write();
        for (key, seen) in dropped {
            if entries.get(&key).is_some_and(|live| Arc::ptr_eq(live, &seen)) {
                entries.remove(&key);
            }
        }
        entries.extend(maintained);
        self.publications.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Drops every cached entry computed before `epoch` — the
    /// **compaction fallback**: when the KB's delta log no longer reaches
    /// back to the cache's epoch, stale entries can never be patched, so
    /// they are purged wholesale and the next read re-evaluates cold.
    /// Returns the number of entries dropped.
    pub fn purge_older_than(&self, epoch: u64) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|_, entry| entry.epoch >= epoch);
        self.publications.fetch_add(1, Ordering::Relaxed);
        before - entries.len()
    }

    /// Local position of `e` (count aggregate) via the cache.
    pub fn local_position(&self, index: &EdgeIndex, e: &Explanation, start: u32) -> usize {
        let read = self
            .all_starts(index, e, &[NodeId(start)], &Budget::unlimited())
            .expect("unlimited budget never aborts");
        read.batch.position(start as u64, e.count() as u64).expect("the read covers its start")
    }

    /// Sampled global position of `e` via the cache: the sum of `e`'s
    /// positions in the local distributions of `starts`, answered from
    /// one shared batched evaluation per pattern shape
    /// ([`DistributionCache::all_starts`], under `budget`). `exclude` —
    /// the pair's own start entity — is skipped at **read time**: the
    /// batched evaluation covers all of `starts` (the shared sample
    /// frame, identical for every pair of a workload), so one cache
    /// serves every pair of a workload with zero recomputation. The
    /// starts are read as their [`DrawTable`], built from the slice.
    pub fn global_position(
        &self,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        exclude: Option<NodeId>,
        budget: &Budget,
    ) -> rex_relstore::Result<usize> {
        let draws = DrawTable::from_starts(starts);
        let read = self.read(index, e, &draws, budget, None)?;
        Ok(read.batch.position_sum(&draws, exclude, e.count() as u64))
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the cached shapes hold: every entry's key, the entry,
    /// its start table and run table, and the map's slots (one key and
    /// one `Arc` per slot, at the map's capacity). Each counts what its
    /// allocations hold, as
    /// [`KnowledgeBase::heap_bytes`](rex_kb::KnowledgeBase::heap_bytes)
    /// does.
    pub fn heap_bytes(&self) -> usize {
        let entries = self.entries.read();
        let slot = std::mem::size_of::<(CanonicalKey, Arc<AllStartsDistribution>)>();
        let held: usize =
            entries.iter().map(|(key, entry)| key.heap_bytes() + entry.heap_bytes()).sum();
        entries.capacity() * slot + held
    }

    /// `(hits, misses)` counters: every read counts one of them, a miss
    /// when it evaluated at least one start.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of batched (full) relational evaluations performed by
    /// reads — one per miss, a bounded read's stopped walk included, so
    /// always the miss count of [`DistributionCache::stats`]. A ranking
    /// pass performs at most one per distinct canonical pattern shape.
    pub fn batched_evals(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// An opaque fingerprint of the published entries: changes on every
    /// publication (read install, delta maintenance, purge) and only
    /// then. Entries are immutable once published, so an unchanged
    /// fingerprint proves no entry was added, dropped, or replaced — the
    /// abort-leaves-no-trace property the robustness proptests pin down
    /// without hashing the whole map.
    pub fn generation_fingerprint(&self) -> usize {
        self.publications.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::GeneralEnumerator;
    use crate::measures::distribution::{
        global_position, global_position_per_start, local_position,
    };
    use crate::measures::MeasureContext;
    use crate::EnumConfig;
    use proptest::prelude::*;

    /// `counts` sorted into a descending multiset.
    fn descending(mut counts: Vec<u64>) -> Vec<u64> {
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// An entry at epoch 0 over `table`.
    fn entry_at_0(table: StartRuns) -> AllStartsDistribution {
        AllStartsDistribution { table: Arc::new(table), trace: EvalTrace::default(), epoch: 0 }
    }

    /// A model of a run table: each covered start's descending multiset,
    /// empty for a start without instances.
    type Model = std::collections::BTreeMap<u64, Vec<u64>>;

    /// The table one evaluation of `entries` gives, and its model: a start
    /// listed twice keeps its last multiset, as an evaluation's output
    /// map would.
    fn table_and_model(entries: &[(u64, Vec<u64>)]) -> (StartRuns, Model) {
        let model: Model = entries.iter().map(|(s, c)| (*s, descending(c.clone()))).collect();
        let starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
        let per_start = model.iter().filter(|(_, c)| !c.is_empty());
        let per_start = per_start.map(|(s, c)| (*s, c.clone())).collect();
        (StartRuns::from_batch(&starts, &per_start), model)
    }

    /// `table` answers every single-start read, the missing list and the
    /// covered position sum over `drawn` as `model` does.
    fn assert_answers_like(table: StartRuns, model: &Model, drawn: &[u64], exclude: u64, a: u64) {
        use crate::measures::distribution::position_in;
        let runs: Vec<Run> = table.runs.to_vec();
        let entry = entry_at_0(table);
        let starts: Vec<u64> = entry.table.starts.iter().map(|&s| u64::from(s)).collect();
        assert_eq!(starts, model.keys().copied().collect::<Vec<_>>());
        assert!(runs.windows(2).all(|w| w[0].start <= w[1].start), "runs by start");
        for s in 0..50 {
            let counts = model.get(&s);
            let runs_of = entry.table.runs_of(s);
            assert_eq!(runs_of.map(expand).as_ref(), counts);
            assert!(runs_of.unwrap_or_default().iter().all(|r| u64::from(r.start) == s));
            assert_eq!(entry.counts_for(s).as_deref(), counts);
            assert_eq!(entry.position(s, a), counts.map(|c| position_in(c, a)));
        }
        let draws =
            DrawTable::from_starts(&drawn.iter().map(|&s| NodeId(s as u32)).collect::<Vec<_>>());
        let mut lacking: Vec<u64> =
            drawn.iter().copied().filter(|s| !model.contains_key(s)).collect();
        lacking.sort_unstable();
        lacking.dedup();
        assert_eq!(entry.table.missing(&draws), lacking);
        let counted = drawn.iter().filter(|&&s| s != exclude);
        let sum = counted.clone().filter_map(|s| model.get(s)).map(|c| position_in(c, a)).sum();
        let exact = counted.clone().all(|s| model.contains_key(s));
        assert_eq!(
            entry.covered_position_sum(&draws, Some(NodeId(exclude as u32)), a),
            (sum, exact)
        );
    }

    /// The runs of `counts` answer every position from 0 to max + 1 as
    /// [`position_in`] does on `counts`, and expand back to `counts`.
    fn assert_runs_match(counts: &[u64]) {
        use crate::measures::distribution::position_in;
        let mut runs = Vec::new();
        push_runs(&mut runs, 7, counts);
        assert!(runs.iter().all(|r| r.start == 7));
        assert_eq!(expand(&runs), counts);
        let max = counts.first().copied().unwrap_or(0);
        for a in 0..=max + 1 {
            assert_eq!(runs_position(&runs, a), position_in(counts, a), "a = {a} in {counts:?}");
        }
    }

    #[test]
    fn run_length_multiset_edge_cases() {
        for counts in [vec![], vec![1], vec![4, 4, 4], vec![0, 0], vec![9, 3, 3, 1, 1, 1, 0]] {
            assert_runs_match(&counts);
        }
    }

    proptest! {
        /// Random descending multisets — the values come from a range of
        /// `width`, so width 1 makes a single run and wider ones many.
        #[test]
        fn run_length_multiset_matches_expanded(
            (width, raw) in (1u64..12, proptest::collection::vec(0u64..1000, 0..80))
        ) {
            assert_runs_match(&descending(raw.iter().map(|v| 1 + v % width).collect()));
        }

        /// Merging two run tables keeps every start of either, with the
        /// newer table's multiset wherever both cover a start.
        #[test]
        fn run_tables_merge_like_maps(
            old in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..6)), 0..30),
            new in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..6)), 0..30)
        ) {
            let table = |entries: &[(u64, Vec<u64>)]| {
                let starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
                let per_start: HashMap<u64, Vec<u64>> = entries
                    .iter()
                    .filter(|(_, c)| !c.is_empty())
                    .map(|(s, c)| (*s, descending(c.clone())))
                    .collect();
                (StartRuns::from_batch(&starts, &per_start), per_start)
            };
            let ((older, mut expected), (newer, newest)) = (table(&old), table(&new));
            for (s, _) in &new {
                expected.remove(s);
            }
            expected.extend(newest);
            let merged = older.merged(&newer);
            let mut covered: Vec<u64> = old.iter().chain(&new).map(|(s, _)| *s).collect();
            covered.sort_unstable();
            covered.dedup();
            prop_assert_eq!(merged.starts.iter().map(|&s| u64::from(s)).collect::<Vec<_>>(), covered.clone());
            for &s in &covered {
                let runs = merged.runs_of(s).expect("merged table covers its starts");
                prop_assert_eq!(expand(runs), expected.get(&s).cloned().unwrap_or_default());
            }
        }

        /// Tables whose starts have empty multisets, tables covering part
        /// of the drawn starts, and newer-wins merges in which a start
        /// gains or loses all its runs answer every read as a map from
        /// start to multiset does. Newer tables re-list some of the older
        /// table's starts with an empty or a fresh multiset, and both draw
        /// multisets of 0 to 3 counts, so a quarter of them are empty.
        #[test]
        fn run_tables_answer_like_a_map_model(
            old in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..4)), 0..30),
            relisted in proptest::collection::vec((0usize..30, proptest::collection::vec(1u64..5, 0..4)), 0..10),
            fresh in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..4)), 0..10),
            drawn in proptest::collection::vec(0u64..48, 0..60),
            (a, exclude) in (0u64..6, 0u64..48)
        ) {
            let new: Vec<(u64, Vec<u64>)> = relisted
                .iter()
                .filter_map(|(at, counts)| old.get(*at).map(|(s, _)| (*s, counts.clone())))
                .chain(fresh)
                .collect();
            let (older, old_model) = table_and_model(&old);
            let (newer, new_model) = table_and_model(&new);
            let mut merged_model = old_model.clone();
            merged_model.extend(new_model.clone());
            let merged = older.merged(&newer);
            assert_answers_like(older, &old_model, &drawn, exclude, a);
            assert_answers_like(newer, &new_model, &drawn, exclude, a);
            assert_answers_like(merged, &merged_model, &drawn, exclude, a);
        }

        /// An entry's merge walks over a multiset of draws answer what one
        /// read per draw would: the entry serves the draws exactly when it
        /// covers every drawn start; the missing list is the uncovered
        /// distinct starts, ascending; and the position sum over covered
        /// draws is the per-draw sum of `position_in` on the start's
        /// multiset, less every draw of the excluded start. Draws repeat
        /// (60 draws from 48 ids), include ids the entry lacks (the entry
        /// holds ids below 40), and the excluded start is drawn or not.
        #[test]
        fn merge_reads_match_per_draw_reads(
            entries in proptest::collection::vec((0u64..40, proptest::collection::vec(1u64..5, 0..6)), 0..30),
            drawn in proptest::collection::vec(0u64..48, 0..60),
            (a, pick, drawn_exclude) in (0u64..6, 0usize..100, any::<bool>())
        ) {
            use crate::measures::distribution::position_in;
            let starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
            let per_start: HashMap<u64, Vec<u64>> = entries
                .iter()
                .filter(|(_, c)| !c.is_empty())
                .map(|(s, c)| (*s, descending(c.clone())))
                .collect();
            let entry = entry_at_0(StartRuns::from_batch(&starts, &per_start));
            let table = |ids: &[u64]| {
                DrawTable::from_starts(&ids.iter().map(|&s| NodeId(s as u32)).collect::<Vec<_>>())
            };
            let covered = |s: &u64| starts.contains(s);

            let draws = table(&drawn);
            prop_assert_eq!(entry.serves(0, &draws), drawn.iter().all(covered));
            prop_assert!(!entry.serves(1, &draws), "another epoch is never served");
            let mut lacking: Vec<u64> = drawn.iter().copied().filter(|s| !covered(s)).collect();
            lacking.sort_unstable();
            lacking.dedup();
            prop_assert_eq!(entry.table.missing(&draws), lacking);

            let kept: Vec<u64> = drawn.iter().copied().filter(covered).collect();
            let exclude = match kept.len() {
                n if drawn_exclude && n > 0 => kept[pick % n],
                _ => pick as u64 % 50,
            };
            let expected: usize = kept
                .iter()
                .filter(|&&s| s != exclude)
                .map(|&s| position_in(&entry.counts_for(s).expect("a covered start"), a))
                .sum();
            let sum = entry.position_sum(&table(&kept), Some(NodeId(exclude as u32)), a);
            prop_assert_eq!(sum, expected);
        }

        /// A bounded read evaluates the starts its entry lacks in
        /// ascending order and stops at the first after which its
        /// waiter's position sum over the covered draws reaches the
        /// cutoff; when the published starts already answer the waiter
        /// (exactly, or ranked out) it is a hit and evaluates nothing.
        /// Either way the entry afterwards covers exactly what it covered
        /// before plus the starts the read evaluated, the read is a miss
        /// exactly when it evaluated one, the covered sum never exceeds
        /// the full position sum, and a full read extending it gives the
        /// multisets and sum of a one-shot read. Draws repeat (30 draws
        /// over 40 ids), the entry may start out covering a few starts,
        /// the cutoffs are the lower bounds the walk passes (so the read
        /// stops after any number of starts), and the excluded start is
        /// drawn or not, so it falls inside or outside the covered prefix.
        #[test]
        fn bounded_reads_publish_what_they_evaluate(
            (shape, a, seeded) in (0usize..64, 0u64..4, proptest::collection::vec(0u32..40, 0..6)),
            drawn in proptest::collection::vec(0u32..40, 0..30),
            (pick, drawn_exclude, cut, bump) in
                (0usize..1000, any::<bool>(), 0usize..1000, 0usize..2)
        ) {
            let (index, explanations) = toy_shapes();
            let e = &explanations[shape % explanations.len()];
            let ids = |v: &[u32]| v.iter().map(|&s| NodeId(s)).collect::<Vec<_>>();
            let draws = DrawTable::from_starts(&ids(&drawn));
            let exclude = match drawn.len() {
                n if drawn_exclude && n > 0 => drawn[pick % n],
                _ => 40 + pick as u32,
            };
            let exclude = Some(NodeId(exclude));
            let reference = read_batch(&DistributionCache::new(), index, e, &ids(&drawn));
            let full = reference.position_sum(&draws, exclude, a);

            let bounded = DistributionCache::new();
            if !seeded.is_empty() {
                read_batch(&bounded, index, e, &ids(&seeded));
            }
            let covered = |c: &DistributionCache| {
                c.entry(e.key()).map_or(Vec::new(), |b| b.table.starts.iter().map(|&s| u64::from(s)).collect())
            };
            let before = covered(&bounded);
            let counted = |s: u64| Some(NodeId(s as u32)) != exclude;
            let position = |s: u64| {
                let at = reference.position(s, a).expect("the reference covers every draw");
                let times = drawn.iter().filter(|&&d| u64::from(d) == s).count();
                if counted(s) { times * at } else { 0 }
            };
            let missing: Vec<u64> =
                draws.iter().map(|(s, _)| s).filter(|s| !before.contains(s)).collect();
            let mut along =
                vec![draws.iter().filter(|(s, _)| before.contains(s)).map(|(s, _)| position(s)).sum::<usize>()];
            for &s in &missing {
                along.push(along[along.len() - 1] + position(s));
            }
            let cutoff = match cut % 10 {
                9 => usize::MAX,
                _ => along[cut % along.len()] + bump,
            };
            let evaluated = if missing.iter().all(|&s| !counted(s)) || along[0] >= cutoff {
                &missing[..0]
            } else {
                let stop = (1..=missing.len()).find(|&n| along[n] >= cutoff);
                &missing[..stop.unwrap_or(missing.len())]
            };

            let cutoff_cell = AtomicUsize::new(cutoff);
            let waiting = [Waiter::new(exclude, a, &cutoff_cell)];
            let (hits, misses) = bounded.stats();
            let read = bounded.read(index, e, &draws, &Budget::unlimited(), Some(&waiting)).unwrap();
            prop_assert_eq!(read.evaluated_tiles.is_some(), !evaluated.is_empty());
            let stats = if evaluated.is_empty() { (hits + 1, misses) } else { (hits, misses + 1) };
            prop_assert_eq!(bounded.stats(), stats);
            let mut published: Vec<u64> = before.iter().chain(evaluated).copied().collect();
            published.sort_unstable();
            prop_assert_eq!(covered(&bounded), published);

            let (sum, exact) = read.batch.covered_position_sum(&draws, exclude, a);
            prop_assert!(sum <= full);
            match waiting[0].answer() {
                Some(answer) => prop_assert!(exact && answer == full),
                None => prop_assert!(!exact && sum >= cutoff),
            }

            let extended = read_batch(&bounded, index, e, &ids(&drawn));
            for (s, _) in draws.iter() {
                prop_assert_eq!(extended.counts_for(s), reference.counts_for(s));
            }
            prop_assert_eq!(extended.position_sum(&draws, exclude, a), full);
        }
    }

    /// The toy KB's edge index and one pair's explanations, shared by the
    /// cases of the bounded-read proptest.
    fn toy_shapes() -> &'static (EdgeIndex, Vec<Explanation>) {
        static SHAPES: std::sync::OnceLock<(EdgeIndex, Vec<Explanation>)> =
            std::sync::OnceLock::new();
        SHAPES.get_or_init(|| {
            let kb = rex_kb::toy::entertainment();
            let a = kb.require_node("brad_pitt").unwrap();
            let b = kb.require_node("angelina_jolie").unwrap();
            let out = GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3))
                .enumerate(&kb, a, b);
            (EdgeIndex::build(&kb), out.explanations)
        })
    }

    /// An entry holds 4 bytes per covered start and 16 per run beside a
    /// fixed 128: its own allocation (an `Arc`'s two counts, the table
    /// pointer, the trace and the epoch) and its table's (the counts and
    /// two array pointers). The cache adds each entry's key and the
    /// map's slots.
    #[test]
    fn heap_bytes_count_starts_runs_and_a_fixed_part() {
        // Starts 3, 5 and 9: 3 has two runs, 5 no instances, 9 one run.
        let per_start = HashMap::from([(3, vec![4, 4, 1]), (9, vec![2])]);
        let entry = entry_at_0(StartRuns::from_batch(&[9, 3, 5, 3], &per_start));
        assert_eq!((entry.domain_len(), entry.table.runs.len()), (3, 3));
        assert_eq!(entry.heap_bytes(), 128 + 3 * 4 + 3 * 16);

        let cache = DistributionCache::new();
        assert_eq!(cache.heap_bytes(), 0);
        let (index, explanations) = toy_shapes();
        let e = &explanations[0];
        let all: Vec<NodeId> = (0..index.node_count() as u32).map(NodeId).collect();
        let batch = read_batch(&cache, index, e, &all);
        let (starts, runs) = (batch.domain_len(), batch.table.runs.len());
        assert!(starts > runs && runs > 0, "{starts} starts, {runs} runs");
        let slots = cache.entries.read().capacity() * 32;
        let key = e.key().as_slice().len() * 8;
        assert_eq!(cache.heap_bytes(), slots + key + 128 + 4 * starts + 16 * runs);
    }

    /// A read of no start evaluates nothing and is a hit, on a cold cache
    /// as on a warm one, and publishes nothing; a ranking pass over an
    /// empty frame reads every shape once, as a hit.
    #[test]
    fn empty_frame_reads_are_hits() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let shapes = out.explanations.len();
        let index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();
        let unlimited = Budget::unlimited();
        for e in &out.explanations {
            let read = cache.all_starts(&index, e, &[], &unlimited).unwrap();
            assert_eq!(read.evaluated_tiles, None);
            assert_eq!(read.batch.domain_len(), 0);
            assert_eq!(cache.global_position(&index, e, &[], Some(a), &unlimited).unwrap(), 0);
        }
        assert_eq!(cache.stats(), (2 * shapes, 0));
        assert!(cache.is_empty(), "a read of no start publishes nothing");

        let frame = Arc::new(crate::measures::SampleFrame::sample(&kb, 0, 1).unwrap());
        let cfg =
            crate::ranking::RankPairsConfig { k: 3, ..crate::ranking::RankPairsConfig::default() };
        let task =
            crate::ranking::PairExplanations { start: a, end: b, explanations: &out.explanations };
        let outcome = crate::ranking::rank_pairs_with(&[task], &cfg, &index, &frame, &cache);
        assert_eq!((outcome.distinct_shapes, outcome.batched_evals, outcome.tiles), (shapes, 0, 0));
        assert_eq!(cache.stats(), (3 * shapes, 0));
        assert_eq!(outcome.rankings[0].len(), 3.min(shapes));
        assert!(outcome.rankings[0].iter().all(|r| r.score == 0.0));
    }

    /// The unbudgeted batch read of `e` over `starts`.
    fn read_batch(
        cache: &DistributionCache,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
    ) -> Arc<AllStartsDistribution> {
        cache.all_starts(index, e, starts, &Budget::unlimited()).unwrap().batch
    }

    /// The unbudgeted global position of `e` over `starts`, skipping
    /// `exclude`.
    fn global(
        cache: &DistributionCache,
        index: &EdgeIndex,
        e: &Explanation,
        starts: &[NodeId],
        exclude: Option<NodeId>,
    ) -> usize {
        cache.global_position(index, e, starts, exclude, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn cached_positions_match_uncached() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out = GeneralEnumerator::new(EnumConfig::default()).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(10, 3);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let starts = ctx.global_sample_starts();
        for e in &out.explanations {
            assert_eq!(
                cache.local_position(index, e, a.0),
                local_position(&ctx, e, usize::MAX),
                "{}",
                e.describe(&kb)
            );
            assert_eq!(
                global(&cache, index, e, &starts, None),
                global_position(&ctx, e, usize::MAX),
                "{}",
                e.describe(&kb)
            );
            assert_eq!(
                global(&cache, index, e, &starts, None),
                global_position_per_start(&ctx, e, usize::MAX).0,
                "per-start baseline disagrees for {}",
                e.describe(&kb)
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        for e in &out.explanations {
            cache.local_position(index, e, a.0);
        }
        let (_, misses_first) = cache.stats();
        for e in &out.explanations {
            cache.local_position(index, e, a.0);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, misses_first, "second pass must not miss");
        assert!(hits >= out.explanations.len());
        assert!(!cache.is_empty());
        assert!(cache.len() <= out.explanations.len());
    }

    /// One batched evaluation per shape serves every sampled start; local
    /// queries for covered starts are answered from the same batch.
    #[test]
    fn batched_entry_serves_all_starts_and_locals() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(12, 5);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let mut starts = ctx.global_sample_starts();
        starts.push(a); // cover the pair's own start too
        for e in &out.explanations {
            global(&cache, index, e, &starts, None);
        }
        assert_eq!(cache.batched_evals(), out.explanations.len());
        let (_, misses) = cache.stats();
        assert_eq!(misses, out.explanations.len(), "one miss per shape");
        // Every per-start query against a covered start is now a hit.
        for e in &out.explanations {
            for s in &starts {
                cache.counts(index, e, s.0);
            }
            global(&cache, index, e, &starts, None);
        }
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_after, misses, "covered starts never miss");
    }

    /// Growing a shape's domain evaluates only the starts it adds: the
    /// growing read's one walk traces exactly what a walk over its new
    /// starts alone does, not the union. A one-start read outside the
    /// domain extends the same entry, and covered reads are hits
    /// thereafter.
    #[test]
    fn domain_growth_recomputes_once() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();
        let e = &out.explanations[0];
        let spec = e.pattern.to_spec();
        let starts: Vec<NodeId> = kb
            .node_ids()
            .filter(|s| index.estimate_starts_rows(&spec, &[s.0 as u64]) > 0)
            .collect();
        assert!(starts.len() >= 4, "the toy shape has starts with incident rows");
        let (small, grown) = (&starts[..2], &starts[..starts.len() - 1]);
        let unlimited = Budget::unlimited();
        let first = cache.all_starts(&index, e, small, &unlimited).unwrap();
        assert_eq!(first.evaluated_tiles, Some(1));
        let growing = cache.all_starts(&index, e, grown, &unlimited).unwrap();
        assert_eq!(growing.evaluated_tiles, Some(1));
        let added = read_batch(&DistributionCache::new(), &index, e, &grown[small.len()..]);
        let mut expected = *first.batch.trace();
        expected.merge(added.trace());
        assert!(added.trace().rows_probed > 0);
        assert_eq!(*growing.batch.trace(), expected, "a grown read evaluates its new starts only");
        assert_eq!(cache.batched_evals(), 2);
        // A one-start read outside the domain extends the same entry.
        let outside = starts[starts.len() - 1];
        assert!(!growing.batch.covers(outside.0 as u64));
        cache.counts(&index, e, outside.0);
        assert_eq!(cache.batched_evals(), 3);
        assert_eq!(cache.len(), 1, "one entry per shape");
        let all = cache.all_starts(&index, e, &starts, &unlimited).unwrap();
        assert_eq!(all.evaluated_tiles, None, "the entry covers every start read so far");
        read_batch(&cache, &index, e, small);
        assert_eq!(cache.batched_evals(), 3);
    }

    /// Read-time exclusion over one shared batch equals a position sum
    /// over the pre-filtered start list — without changing the batch
    /// domain, so no extra evaluation happens.
    #[test]
    fn read_time_exclusion_matches_prefiltered_sum() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        // Find (deterministically) a seed whose frame draws the pair's own
        // start, so the read-time exclusion actually has rows to drop.
        let seed = (0..64)
            .find(|&s| crate::measures::frame::SampleFrame::sample(&kb, 40, s).unwrap().contains(a))
            .expect("some 40-draw frame contains the start");
        let ctx = MeasureContext::new(&kb, a, b).with_global_samples(40, seed);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let frame = ctx.sample_frame().clone();
        assert!(frame.contains(a));
        let filtered = frame.starts_excluding(a);
        for e in &out.explanations {
            let excluded = global(&cache, index, e, frame.starts(), Some(a));
            let evals = cache.batched_evals();
            // Same batch answers the pre-filtered sum: no new evaluation.
            let prefiltered: usize = {
                let batch = read_batch(&cache, index, e, frame.starts());
                filtered.iter().map(|s| batch.position(s.0 as u64, e.count() as u64).unwrap()).sum()
            };
            assert_eq!(excluded, prefiltered, "{}", e.describe(&kb));
            assert_eq!(cache.batched_evals(), evals, "exclusion must not re-evaluate");
        }
    }

    /// A cancel tripped between two starts of a walk aborts it before the
    /// next start, and the aborted evaluation moves nothing the cache
    /// shows: no entry, no read, no batched or delta evaluation.
    #[test]
    fn cancel_between_starts_leaves_the_cache_unchanged() {
        let (index, explanations) = toy_shapes();
        let e = &explanations[0];
        let starts: Vec<u64> = (0..index.node_count() as u64).collect();
        let cache = DistributionCache::new();
        let shown = |c: &DistributionCache| {
            (c.generation_fingerprint(), c.len(), c.stats(), c.batched_evals(), c.delta_evals())
        };
        let before = shown(&cache);
        let token = rex_relstore::budget::CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let walked = AtomicUsize::new(0);
        let trip = |_: u64, _: &[u64]| {
            walked.fetch_add(1, Ordering::Relaxed);
            token.cancel();
            true
        };
        let spec = e.pattern.to_spec();
        let err = cache
            .evaluate(index, &spec, &starts, EvalKind::Delta, &budget, Some(&trip))
            .unwrap_err();
        let cancelled = rex_relstore::budget::AbortReason::Cancelled;
        assert!(matches!(err, rex_relstore::RelError::Aborted(r) if r == cancelled), "{err}");
        assert_eq!(walked.into_inner(), 1, "the walk stops before the second start");
        assert_eq!(shown(&cache), before);
    }

    /// The epoch contract: a batch computed at epoch N refuses to serve
    /// an index at epoch N+1 and refreshes instead — and apply_delta is
    /// the cheap alternative that keeps it serving.
    #[test]
    fn stale_epoch_refuses_and_refreshes() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let e = &out.explanations[0];
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().take(8).chain([a]).collect();
        let mut index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();

        let batch0 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 1);
        assert_eq!(batch0.epoch(), 0);
        cache.counts(&index, e, a.0);
        assert!(cache.cached_local_position(&index, e, a.0).is_some());

        // Mutate the KB; the refreshed index moves to epoch N+1.
        let epoch0 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();
        // The epoch-N entry no longer answers for the new index.
        assert!(cache.cached_local_position(&index, e, a.0).is_none());

        // Batched read: the epoch-N batch is refused; a fresh evaluation
        // replaces it, and it serves cached_local_position again.
        let batch1 = read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2, "stale batch must re-evaluate");
        assert_eq!(batch1.epoch(), kb.epoch());
        assert!(cache.cached_local_position(&index, e, a.0).is_some());
        // A second read is a warm hit — refresh happened exactly once.
        read_batch(&cache, &index, e, &starts);
        assert_eq!(cache.batched_evals(), 2);
    }

    /// apply_delta accounting: label-disjoint shapes ride for free,
    /// touched shapes are patched with one partial evaluation each, and
    /// every maintained shape serves warm reads at the new epoch.
    #[test]
    fn apply_delta_maintains_batches() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let starts: Vec<rex_kb::NodeId> = kb.node_ids().collect();
        let mut index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();
        for e in &out.explanations {
            read_batch(&cache, &index, e, &starts);
        }
        let shapes = cache.batched_evals();

        let epoch0 = kb.epoch();
        let award = kb.intern_label("awarded").unwrap();
        let oscar = kb.insert_node("a_new_award", "Award");
        kb.insert_edge(a, oscar, award, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();

        // The delta touches only a brand-new label: every cached shape is
        // label-disjoint → untouched, zero evaluations.
        let m = cache.apply_delta(&kb, &index, &delta);
        assert_eq!(m.untouched, shapes);
        assert_eq!(m.patched + m.dropped, 0);
        let evals = cache.batched_evals();
        for e in &out.explanations {
            read_batch(&cache, &index, e, &starts);
        }
        assert_eq!(cache.batched_evals(), evals, "maintained shapes serve warm");

        // Now touch 'starring': shapes over it are patched, never
        // re-evaluated whole.
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        let m2 = cache.apply_delta(&kb, &index, &delta2);
        assert_eq!(m2.patched + m2.untouched, shapes);
        assert!(m2.patched > 0, "starring shapes are touched");
        assert_eq!(cache.delta_evals(), m2.patched, "one partial evaluation per patched shape");
        assert!(m2.affected_starts > 0);
        assert_eq!(cache.batched_evals(), evals, "maintenance runs no full batch");
        // Maintained counts equal a scratch evaluation at the new epoch.
        let scratch = DistributionCache::new();
        for e in &out.explanations {
            let maintained = read_batch(&cache, &index, e, &starts);
            let fresh = read_batch(&scratch, &index, e, &starts);
            for s in &starts {
                assert_eq!(
                    maintained.counts_for(s.0 as u64),
                    fresh.counts_for(s.0 as u64),
                    "start {s} of {}",
                    e.describe(&kb)
                );
            }
        }
    }

    /// One-start entries ride `apply_delta` like any other: entries whose
    /// shape labels are disjoint from a delta are republished unchanged,
    /// touched ones are patched — and either way the next read is a hit
    /// that equals a scratch rebuild at the new epoch.
    #[test]
    fn label_disjoint_overlays_survive_apply_delta() {
        let mut kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(&kb, a, b);
        let mut index = EdgeIndex::build(&kb);
        let cache = DistributionCache::new();
        // Warm one-start entries only.
        let warm: Vec<Arc<Vec<u64>>> =
            out.explanations.iter().map(|e| cache.counts(&index, e, a.0)).collect();
        let shapes = cache.len();
        let (_, misses_warm) = cache.stats();

        // Delta on a brand-new label: disjoint from every cached shape.
        let epoch0 = kb.epoch();
        let award = kb.intern_label("awarded").unwrap();
        let trophy = kb.insert_node("a_trophy", "Award");
        kb.insert_edge(a, trophy, award, true).unwrap();
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        index = index.next_epoch(&delta).unwrap();
        let m = cache.apply_delta(&kb, &index, &delta);
        assert_eq!((m.untouched, m.patched), (shapes, 0));
        for (e, before) in out.explanations.iter().zip(&warm) {
            assert_eq!(&cache.counts(&index, e, a.0), before, "{}", e.describe(&kb));
        }
        assert_eq!(cache.stats().1, misses_warm, "label-disjoint entries ride the delta for free");

        // Delta on 'starring': entries of starring shapes around the pair
        // are patched, the rest ride along; no read misses, and every
        // answer equals a scratch rebuild.
        let starring = kb.label_by_name("starring").unwrap();
        let epoch1 = kb.epoch();
        let jr = kb.require_node("julia_roberts").unwrap();
        let fc = kb.require_node("fight_club").unwrap();
        kb.insert_edge(jr, fc, starring, true).unwrap();
        let delta2 = kb.delta_since(epoch1).into_delta().unwrap();
        index = index.next_epoch(&delta2).unwrap();
        let m2 = cache.apply_delta(&kb, &index, &delta2);
        assert!(m2.patched > 0, "brad_pitt's starring shapes are touched");
        assert_eq!(m2.patched + m2.untouched, shapes);
        let scratch_index = EdgeIndex::build(&kb);
        let scratch = DistributionCache::new();
        for (e, before) in out.explanations.iter().zip(&warm) {
            let maintained = cache.counts(&index, e, a.0);
            assert_eq!(maintained, scratch.counts(&scratch_index, e, a.0), "{}", e.describe(&kb));
            if e.pattern.to_spec().edges.iter().all(|se| se.label != starring.0 as u64) {
                assert_eq!(&maintained, before, "{}", e.describe(&kb));
            }
        }
        assert_eq!(cache.stats().1, misses_warm, "maintained entries serve without a miss");
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let kb = rex_kb::toy::entertainment();
        let a = kb.require_node("brad_pitt").unwrap();
        let b = kb.require_node("angelina_jolie").unwrap();
        let out =
            GeneralEnumerator::new(EnumConfig::default().with_max_nodes(4)).enumerate(&kb, a, b);
        let ctx = MeasureContext::new(&kb, a, b);
        let cache = DistributionCache::new();
        let index = ctx.edge_index();
        let serial: Vec<usize> = out
            .explanations
            .iter()
            .map(|e| DistributionCache::new().local_position(index, e, a.0))
            .collect();
        let parallel: Vec<usize> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = out
                .explanations
                .chunks(2)
                .map(|chunk| {
                    let cache = &cache;
                    scope.spawn(move |_| {
                        chunk
                            .iter()
                            .map(|e| cache.local_position(index, e, a.0))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("no panic")).collect()
        })
        .expect("scope");
        assert_eq!(serial, parallel);

        // Two threads extending one entry with disjoint start sets both
        // end up covered, whichever installs first.
        let e = &out.explanations[0];
        let starts: Vec<NodeId> = kb.node_ids().collect();
        let (left, right) = starts.split_at(starts.len() / 2);
        let barrier = std::sync::Barrier::new(2);
        crossbeam::thread::scope(|scope| {
            for half in [left, right] {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move |_| {
                    barrier.wait();
                    read_batch(cache, index, e, half);
                });
            }
        })
        .expect("scope");
        let read = cache.all_starts(index, e, &starts, &Budget::unlimited()).unwrap();
        assert_eq!(read.evaluated_tiles, None, "both extensions must survive");
    }
}
