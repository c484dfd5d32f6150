//! Evaluation traces, and the process-wide totals folded from them.
//!
//! The batched all-starts pipeline exists to change *how many* relational
//! evaluations a ranking run performs (§5.3.2's amortization), so every
//! evaluation counts its own traffic in an [`EvalTrace`]: full pattern
//! evaluations, streaming `LIMIT`-pruned position queries,
//! delta-maintenance re-groups, the walks of batched evaluations, and
//! the endpoint-posting neighbour-list rows they read. No evaluation over
//! the index scans a whole `(label, dir)` partition.
//!
//! The trace is a plain value. An evaluation accumulates it on its own
//! thread and returns it with its result ([`crate::engine::BatchDistributions`],
//! [`crate::plan::PatternSpec::evaluate_indexed`],
//! [`crate::engine::local_position_indexed`]). Callers that need the
//! traffic of their own calls read those returned values, which no other
//! thread can disturb.
//!
//! Each public evaluation entry point also folds its completed trace
//! into process-wide totals, read with [`snapshot`]. The fold happens
//! after the evaluation's last fallible step, so an aborted evaluation
//! (a budget stop before one of its starts, or any other error) folds
//! nothing.
//! Differences between two snapshots describe the whole process, so
//! they are only a per-region figure when nothing else evaluates
//! meanwhile — true for a benchmark run, not for a parallel test binary.

use std::sync::atomic::{AtomicUsize, Ordering};

static FULL_EVALS: AtomicUsize = AtomicUsize::new(0);
static STREAMING_EVALS: AtomicUsize = AtomicUsize::new(0);
static DELTA_EVALS: AtomicUsize = AtomicUsize::new(0);
static TILES: AtomicUsize = AtomicUsize::new(0);
static ROWS_PROBED: AtomicUsize = AtomicUsize::new(0);

// The ingestion queue's peak depth (the WAL lives below this crate in the
// dependency graph, so the ingest governor records here).
static INGEST_QUEUE_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The relational traffic of one evaluation (or of several, merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Full pattern evaluations.
    pub full: usize,
    /// Streaming `LIMIT`-pruned position evaluations.
    pub streaming: usize,
    /// Partial (delta-maintenance) evaluations — grouped re-counts
    /// restricted to the starts a KB delta affected.
    pub delta: usize,
    /// Batched evaluations that walked their starts: one per
    /// [`crate::engine::count_distributions`] call over a non-empty
    /// start set, full or delta.
    pub tiles: usize,
    /// Rows read from **endpoint-posting lists** — only the rows incident
    /// to the keys read, the quantity the endpoint index makes
    /// proportional to the delta instead of the KB. A depth-first walk
    /// counts each distinct `(edge, key)` list it reads once.
    pub rows_probed: usize,
    /// Largest number of bindings one level of a depth-first walk made
    /// over all its starts (past the start; a counted tail's counted
    /// instances included).
    pub peak_rows: usize,
}

impl EvalTrace {
    /// Adds `other` into `self`: counts sum, peaks take the max.
    pub fn merge(&mut self, other: &EvalTrace) {
        self.full += other.full;
        self.streaming += other.streaming;
        self.delta += other.delta;
        self.tiles += other.tiles;
        self.rows_probed += other.rows_probed;
        self.peak_rows = self.peak_rows.max(other.peak_rows);
    }
}

/// Adds a completed evaluation's counts to the process-wide totals.
pub(crate) fn fold(trace: &EvalTrace) {
    FULL_EVALS.fetch_add(trace.full, Ordering::Relaxed);
    STREAMING_EVALS.fetch_add(trace.streaming, Ordering::Relaxed);
    DELTA_EVALS.fetch_add(trace.delta, Ordering::Relaxed);
    TILES.fetch_add(trace.tiles, Ordering::Relaxed);
    ROWS_PROBED.fetch_add(trace.rows_probed, Ordering::Relaxed);
}

/// A point-in-time reading of the process-wide evaluation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCounts {
    /// Full pattern evaluations since process start.
    pub full: usize,
    /// Streaming `LIMIT`-pruned position evaluations since process start.
    pub streaming: usize,
    /// Partial (delta-maintenance) evaluations since process start —
    /// grouped re-counts restricted to the starts a KB delta affected.
    pub delta: usize,
    /// Batched evaluations that walked their starts since process start
    /// (see [`EvalTrace::tiles`]).
    pub tiles: usize,
    /// Compatibility shim: always 0. No evaluation scans a whole
    /// partition; the field remains only because the end-to-end
    /// benchmark still reports it.
    pub rows_scanned: usize,
    /// Rows read from **endpoint-posting lists** since process start.
    pub rows_probed: usize,
}

impl EvalCounts {
    /// Counter increments between `earlier` and `self`.
    pub fn since(&self, earlier: &EvalCounts) -> EvalCounts {
        EvalCounts {
            full: self.full - earlier.full,
            streaming: self.streaming - earlier.streaming,
            delta: self.delta - earlier.delta,
            tiles: self.tiles - earlier.tiles,
            rows_scanned: 0,
            rows_probed: self.rows_probed - earlier.rows_probed,
        }
    }

    /// Total evaluations of any kind (tiles are not evaluations).
    pub fn total(&self) -> usize {
        self.full + self.streaming + self.delta
    }
}

/// Reads the process-wide evaluation totals.
pub fn snapshot() -> EvalCounts {
    EvalCounts {
        full: FULL_EVALS.load(Ordering::Relaxed),
        streaming: STREAMING_EVALS.load(Ordering::Relaxed),
        delta: DELTA_EVALS.load(Ordering::Relaxed),
        tiles: TILES.load(Ordering::Relaxed),
        rows_scanned: 0,
        rows_probed: ROWS_PROBED.load(Ordering::Relaxed),
    }
}

/// Folds the ingestion queue's current depth into the peak-depth
/// watermark.
#[inline]
pub fn record_ingest_queue_depth(depth: usize) {
    INGEST_QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
}

/// The highest queue depth recorded since process start (or the last
/// [`reset_ingest_queue_peak`]).
pub fn ingest_queue_peak() -> usize {
    INGEST_QUEUE_PEAK.load(Ordering::Relaxed)
}

/// Resets the peak queue-depth watermark (a max has no meaningful
/// difference, so regions of interest reset it instead).
pub fn reset_ingest_queue_peak() {
    INGEST_QUEUE_PEAK.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{AbortReason, Budget};
    use crate::engine::{count_distributions, EdgeIndex, EvalRequest};
    use crate::plan::{dir_code, PatternSpec, SpecEdge};
    use crate::RelError;
    use rex_kb::toy;

    /// The toy KB's index, the co-starring pattern `start -starring-> m
    /// <-starring- end`, and every entity as a start.
    fn costar_batch() -> (EdgeIndex, PatternSpec, Vec<u64>) {
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
        let starts = (0..kb.node_count() as u64).collect();
        (index, spec, starts)
    }

    #[test]
    fn counters_are_monotonic() {
        let before = snapshot();
        fold(&EvalTrace {
            full: 1,
            streaming: 1,
            delta: 1,
            tiles: 1,
            rows_probed: 5,
            ..EvalTrace::default()
        });
        let delta = snapshot().since(&before);
        // Other tests in this binary evaluate concurrently, so the
        // difference is at least the folded trace.
        assert!(delta.full >= 1);
        assert!(delta.streaming >= 1);
        assert!(delta.delta >= 1);
        assert!(delta.tiles >= 1);
        assert_eq!(delta.rows_scanned, 0);
        assert!(delta.rows_probed >= 5);
        assert!(delta.total() >= 3);
    }

    /// Merging traces sums their counts and keeps the largest peak.
    #[test]
    fn peak_rows_is_a_max_gauge() {
        let mut trace =
            EvalTrace { tiles: 1, rows_probed: 7, peak_rows: 10, ..EvalTrace::default() };
        trace.merge(&EvalTrace { tiles: 2, rows_probed: 4, peak_rows: 3, ..EvalTrace::default() });
        assert_eq!(
            trace,
            EvalTrace { tiles: 3, rows_probed: 11, peak_rows: 10, ..EvalTrace::default() }
        );
    }

    /// A completed batch's trace is one walk's: one full evaluation and
    /// one tile, every start-incident row read, each list counted once
    /// however many starts read it (so at most what the starts read as
    /// batches of their own), and a widest level that sums the starts'
    /// bindings (so between the largest single start's peak and the sum
    /// of them).
    #[test]
    fn staged_commit_publishes_wholesale() {
        let (index, spec, starts) = costar_batch();
        let req = EvalRequest { starts: &starts, ..Default::default() };
        let whole = count_distributions(&index, &spec, &req).unwrap().trace;
        assert_eq!((whole.full, whole.tiles), (1, 1));
        let alone: Vec<EvalTrace> = starts
            .iter()
            .map(|s| {
                let one = EvalRequest { starts: std::slice::from_ref(s), ..Default::default() };
                count_distributions(&index, &spec, &one).unwrap().trace
            })
            .collect();
        let probed: usize = alone.iter().map(|t| t.rows_probed).sum();
        let peaks = alone.iter().map(|t| t.peak_rows);
        assert!(whole.rows_probed <= probed, "{whole:?}");
        assert!((peaks.clone().max().unwrap()..=peaks.sum()).contains(&whole.peak_rows));
        let starring = spec.edges[0].label;
        let incident: usize = starts
            .iter()
            .map(|&s| index.incident_len(starring, dir_code::FORWARD, true, &[s]))
            .sum();
        assert!(whole.rows_probed >= incident && incident > 0, "{whole:?}");
    }

    /// An aborted batch returns `Err` and takes the traffic of the starts
    /// it walked with it: nothing is left pending, so the next call
    /// traces exactly what a fresh one does.
    #[test]
    fn aborted_stage_drains_instead_of_publishing() {
        let (index, spec, starts) = costar_batch();
        let req = EvalRequest { starts: &starts, ..Default::default() };
        let fresh = count_distributions(&index, &spec, &req).unwrap().trace;
        let starved = EvalRequest { budget: Budget::unlimited().with_row_budget(1), ..req };
        let err = count_distributions(&index, &spec, &starved).unwrap_err();
        assert!(matches!(err, RelError::Aborted(AbortReason::RowBudgetExhausted)), "{err}");
        assert_eq!(starved.budget.remaining_rows(), Some(0), "a start ran and was charged");
        let req = EvalRequest { budget: Budget::unlimited(), ..starved };
        assert_eq!(count_distributions(&index, &spec, &req).unwrap().trace, fresh);
    }

    /// Traffic lands in its own caller's trace and nowhere else: batches
    /// evaluated from several threads at once each return exactly the
    /// trace the same batch returns alone.
    #[test]
    fn harvested_traffic_replays_into_outer_stage() {
        let (index, spec, starts) = costar_batch();
        let req = EvalRequest { starts: &starts, ..Default::default() };
        let alone = count_distributions(&index, &spec, &req).unwrap().trace;
        assert_eq!(alone.tiles, 1, "{alone:?}");
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        count_distributions(&index, &spec, &req).unwrap().trace
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), alone);
            }
        });
    }
}
