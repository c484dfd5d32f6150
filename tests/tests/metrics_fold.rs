//! The process-wide evaluation totals are a fold of completed traces.
//!
//! This binary holds exactly one test, so nothing else in its process
//! evaluates patterns and differences between two
//! [`metrics::snapshot`]s are exact: a completed evaluation moves the
//! totals by precisely the trace it returned, and an aborted one — a
//! budget stop before the first start or after some starts ran — moves
//! them by nothing. The ingest queue's peak-depth gauge is exact here
//! for the same reason.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rex_core::ranking::{
    Backpressure, IngestConfig, IngestGovernor, IngestOp, RankPairsConfig, ServingState,
};
use rex_kb::{toy, DurableKb, SyncPolicy};
use rex_relstore::budget::{AbortReason, Budget, CancelToken};
use rex_relstore::engine::{count_distributions, local_position_indexed, EdgeIndex, EvalRequest};
use rex_relstore::metrics::{self, EvalCounts, EvalTrace};
use rex_relstore::plan::StartBinding;
use rex_relstore::RelError;
use rex_tests::scaffold::{base_kb, shape};

/// The six counters a trace folds into the totals, as a snapshot
/// difference.
fn folded(trace: &EvalTrace) -> EvalCounts {
    EvalCounts {
        full: trace.full,
        streaming: trace.streaming,
        delta: trace.delta,
        tiles: trace.tiles,
        rows_scanned: trace.rows_scanned,
        rows_probed: trace.rows_probed,
    }
}

/// What the totals moved by while `f` ran.
fn moved<T>(f: impl FnOnce() -> T) -> (T, EvalCounts) {
    let before = metrics::snapshot();
    let out = f();
    (out, metrics::snapshot().since(&before))
}

#[test]
fn totals_move_by_exactly_the_completed_traces() {
    let kb = base_kb(7, 0xF01D);
    let index = EdgeIndex::build(&kb);
    // start -l0-> v2 -l1- v3 -l2-> end: the start's list plus lists
    // keyed by the values bound after it.
    let spec = shape(8);
    let starts: Vec<u64> = (0..kb.node_count() as u64).collect();
    let req = EvalRequest { starts: &starts, ..Default::default() };

    // A completed batch moves the totals by its returned trace.
    let (done, by) = moved(|| count_distributions(&index, &spec, &req).unwrap());
    assert_eq!((done.trace.full, done.trace.delta, done.trace.tiles), (1, 0, 1));
    assert!(done.trace.rows_probed > 0);
    assert_eq!(by, folded(&done.trace));

    // Cancelled before the first start: nothing.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = EvalRequest { budget: Budget::unlimited().with_cancel(token), ..req };
    let (err, by) = moved(|| count_distributions(&index, &spec, &cancelled).unwrap_err());
    assert!(matches!(err, RelError::Aborted(AbortReason::Cancelled)), "{err}");
    assert_eq!(by, folded(&EvalTrace::default()));

    // Cancelled by the check after the first start: the second start
    // never runs — and nothing.
    let token = CancelToken::new();
    let walked = AtomicUsize::new(0);
    let trip = |_: u64, _: &[u64]| {
        walked.fetch_add(1, Ordering::Relaxed);
        token.cancel();
        true
    };
    let tripped = EvalRequest {
        starts: &starts,
        budget: Budget::unlimited().with_cancel(token.clone()),
        after_start: Some(&trip),
        ..Default::default()
    };
    let (err, by) = moved(|| count_distributions(&index, &spec, &tripped).unwrap_err());
    assert!(matches!(err, RelError::Aborted(AbortReason::Cancelled)), "{err}");
    assert_eq!(walked.load(Ordering::Relaxed), 1);
    assert_eq!(by, folded(&EvalTrace::default()));

    // A one-row pool over the starts whose walks bind something: the
    // first start drains it, the check before the second start aborts —
    // and still nothing.
    let binding: Vec<u64> = starts
        .iter()
        .copied()
        .filter(|s| {
            let one = EvalRequest { starts: std::slice::from_ref(s), ..Default::default() };
            count_distributions(&index, &spec, &one).unwrap().trace.peak_rows > 0
        })
        .collect();
    assert!(binding.len() > 1, "a multi-start batch");
    let walked = AtomicUsize::new(0);
    let count = |_: u64, _: &[u64]| {
        walked.fetch_add(1, Ordering::Relaxed);
        true
    };
    let starved = EvalRequest {
        starts: &binding,
        budget: Budget::unlimited().with_row_budget(1),
        after_start: Some(&count),
        ..Default::default()
    };
    let (err, by) = moved(|| count_distributions(&index, &spec, &starved).unwrap_err());
    assert!(matches!(err, RelError::Aborted(AbortReason::RowBudgetExhausted)), "{err}");
    assert_eq!(walked.load(Ordering::Relaxed), 1, "the abort comes at the second start");
    assert_eq!(starved.budget.remaining_rows(), Some(0), "the first start was charged");
    assert_eq!(by, folded(&EvalTrace::default()));

    // A single indexed evaluation moves the totals by its trace.
    let binding = StartBinding::among(starts.iter().copied());
    let ((_, trace), by) = moved(|| spec.evaluate_indexed(&index, &binding).unwrap());
    assert_eq!(trace.full, 1);
    assert_eq!(by, folded(&trace));

    // A bounded position query is one streaming evaluation that reads
    // at least the start's own list and scans no partition.
    let start = kb.require_node("n0").unwrap().0 as u64;
    let probed: usize = spec
        .edges
        .iter()
        .filter(|e| e.u == spec.start || e.v == spec.start)
        .map(|e| index.incident_len(e.label, e.dir(), e.u == spec.start, &[start]))
        .sum();
    let ((_, trace), by) = moved(|| local_position_indexed(&index, &spec, start, 0, 1).unwrap());
    assert_eq!((trace.streaming, trace.full, trace.tiles, trace.rows_scanned), (1, 0, 0, 0));
    assert!(trace.rows_probed >= probed, "{trace:?}");
    assert_eq!(by, folded(&trace));
    assert!(probed > 0);

    // Submitting to a capacity-4 governor until it sheds peaks the
    // ingest queue gauge at exactly the capacity.
    let dir = std::env::temp_dir().join(format!("rex-metrics-fold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (ckpt, wal) = (dir.join("checkpoint.rexc"), dir.join("delta.rexw"));
    let durable =
        DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
    let serving = Arc::new(ServingState::build(durable.kb(), &RankPairsConfig::default()).unwrap());
    let cfg = IngestConfig { queue_capacity: 4, ..Default::default() };
    let mut g = IngestGovernor::new(durable, serving, cfg);
    metrics::reset_ingest_queue_peak();
    let mut accepted = 0;
    while g
        .submit(
            vec![IngestOp::InsertNode { name: format!("fold-{accepted}"), ty: "Person".into() }],
            Backpressure::Shed,
        )
        .is_ok()
    {
        accepted += 1;
    }
    assert_eq!(accepted, 4);
    assert_eq!(metrics::ingest_queue_peak(), 4);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}
