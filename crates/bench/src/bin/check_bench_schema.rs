//! Validates a `BENCH_ranking.json` document — the CI guard that keeps
//! the perf-metric plumbing from silently rotting. Checks that every
//! expected key is present with a numeric value (the emitter is
//! hand-rolled, so a refactor can drop a field without any type error)
//! and that the structural invariants of the shared-frame section hold:
//! the workload-wide evaluation budget is bounded by the distinct shapes
//! and never exceeds the per-pair batched baseline's.
//!
//! Usage: `check_bench_schema [path]` (default `BENCH_ranking.json`);
//! exits non-zero with a message on the first violation.

use std::process::ExitCode;

/// Extracts the numeric value following `"key":` inside `text`, searching
/// from `from`. Returns `(value, position_after_key)`.
fn number_after(text: &str, key: &str, from: usize) -> Result<(f64, usize), String> {
    let needle = format!("\"{key}\"");
    let rel = text[from..].find(&needle).ok_or_else(|| format!("missing key {key:?}"))?;
    let at = from + rel + needle.len();
    let rest = text[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    let token = &rest[..end];
    let value: f64 =
        token.parse().map_err(|_| format!("key {key:?} has non-numeric value {token:?}"))?;
    Ok((value, at))
}

/// Validates the document, returning the human-readable failure if any.
fn validate(text: &str) -> Result<(), String> {
    if !text.contains("\"benchmark\"") || !text.contains("global_distribution_ranking") {
        return Err("not a global_distribution_ranking document".into());
    }
    // Top-level numerics.
    let (pairs, _) = number_after(text, "pairs", 0)?;
    let (explanations, _) = number_after(text, "explanations", 0)?;
    let (distinct_shapes, _) = number_after(text, "distinct_shapes", 0)?;
    let (global_samples, _) = number_after(text, "global_samples", 0)?;
    let (k, _) = number_after(text, "k", 0)?;
    for (name, v) in [
        ("pairs", pairs),
        ("explanations", explanations),
        ("distinct_shapes", distinct_shapes),
        ("global_samples", global_samples),
        ("k", k),
    ] {
        if v <= 0.0 {
            return Err(format!("{name} must be positive, got {v}"));
        }
    }

    // Per-section numerics. Each side is a flat object following its
    // section key; key searches are bounded to that object's closing
    // brace, so a field dropped from one section cannot be satisfied by a
    // same-named key in a later section.
    let side = |section: &str, keys: &[&str]| -> Result<Vec<f64>, String> {
        let at = text
            .find(&format!("\"{section}\""))
            .ok_or_else(|| format!("missing section {section:?}"))?;
        let open =
            text[at..].find('{').ok_or_else(|| format!("section {section:?} has no object"))?;
        let close = text[at + open..]
            .find('}')
            .ok_or_else(|| format!("section {section:?} object is unterminated"))?;
        let object = &text[at + open..=at + open + close];
        keys.iter()
            .map(|key| number_after(object, key, 0).map(|(v, _)| v))
            .collect::<Result<Vec<f64>, String>>()
            .map_err(|e| format!("section {section:?}: {e}"))
    };
    let per_start = side("per_start", &["wall_ms", "full_evals", "streaming_evals"])?;
    let batched = side("batched", &["wall_ms", "full_evals", "streaming_evals"])?;
    let shared = side(
        "shared_frame",
        &["wall_ms", "full_evals", "streaming_evals", "distinct_shapes", "tiles", "peak_rows"],
    )?;
    let incremental = side(
        "incremental",
        &[
            "delta_edges",
            "kb_edges",
            "full_rerank_wall_ms",
            "full_rerank_full_evals",
            "delta_rerank_wall_ms",
            "delta_rerank_full_evals",
            "delta_partial_evals",
            "shapes_patched",
            "shapes_untouched",
            "frame_redrawn",
        ],
    )?;
    let concurrent = side(
        "concurrent",
        &[
            "reader_threads",
            "passes_per_reader",
            "quiet_wall_ms",
            "contended_wall_ms",
            "deltas_applied",
            "quiet_passes_per_s",
            "contended_passes_per_s",
        ],
    )?;
    let endpoint = side(
        "endpoint_index",
        &[
            "kb_edges",
            "delta_edges",
            "shapes_touched",
            "affected_starts",
            "rows_probed",
            "scan_floor_rows",
            "patch_wall_ms",
            "index_build_ms",
        ],
    )?;
    let robustness = side(
        "robustness",
        &[
            "quiet_requests",
            "requests",
            "served",
            "shed_requests",
            "request_rows",
            "quiet_p50_ms",
            "quiet_p99_ms",
            "served_p50_ms",
            "served_p99_ms",
            "reader_passes",
            "torn_reads",
            "quarantined_epochs",
            "recovery_rebuilds",
        ],
    )?;
    let ingest = side(
        "ingest",
        &[
            "batches",
            "batch_size",
            "edges_ingested",
            "ingest_wall_ms",
            "sustained_edges_per_s",
            "wal_commits",
            "wal_bytes",
            "flips",
            "deferred_flips",
            "checkpoints",
            "shed_submissions",
            "queue_capacity",
            "queue_peak",
            "reader_passes",
            "quiet_p50_ms",
            "quiet_p99_ms",
            "under_ingest_p50_ms",
            "under_ingest_p99_ms",
            "recovered_parity",
            "recovery_replayed_batches",
            "recovery_truncated_bytes",
        ],
    )?;
    number_after(text, "speedup", 0)?;
    number_after(text, "shared_frame_speedup", 0)?;
    number_after(text, "incremental_speedup", 0)?;

    // Structural invariants of the shared-frame engine.
    let (shared_evals, shared_shapes, shared_tiles) = (shared[1], shared[3], shared[4]);
    if shared_shapes != distinct_shapes {
        return Err(format!(
            "shared_frame.distinct_shapes {shared_shapes} != top-level {distinct_shapes}"
        ));
    }
    if shared_evals > distinct_shapes {
        return Err(format!(
            "shared_frame.full_evals {shared_evals} exceeds distinct shapes {distinct_shapes}"
        ));
    }
    if shared_evals > batched[1] {
        return Err(format!(
            "shared_frame.full_evals {shared_evals} exceeds batched baseline {}",
            batched[1]
        ));
    }
    if shared_tiles < shared_evals {
        return Err(format!(
            "shared_frame.tiles {shared_tiles} < full_evals {shared_evals} (every batch is ≥ 1 tile)"
        ));
    }
    if per_start[1] + per_start[2] < batched[1] + batched[2] {
        return Err("per-start baseline reports less work than the batched engine".into());
    }

    // Structural invariants of the incremental engine.
    let (delta_edges, kb_edges) = (incremental[0], incremental[1]);
    let (full_evals, delta_full_evals) = (incremental[3], incremental[5]);
    let (patched, partial_evals) = (incremental[7], incremental[6]);
    if delta_edges < 1.0 {
        return Err("incremental.delta_edges must be ≥ 1".into());
    }
    if delta_edges > kb_edges {
        return Err(format!("incremental.delta_edges {delta_edges} exceeds kb_edges {kb_edges}"));
    }
    if delta_full_evals >= full_evals {
        return Err(format!(
            "incremental: delta re-rank issued {delta_full_evals} full evaluations, \
             not strictly fewer than the cold re-rank's {full_evals}"
        ));
    }
    if (patched > 0.0) != (partial_evals > 0.0) {
        return Err(format!(
            "incremental: shapes_patched {patched} and delta_partial_evals \
             {partial_evals} must be zero or non-zero together"
        ));
    }

    // Structural invariants of the endpoint-index engine: the delta
    // patch pass must have had work, and its probe traffic must beat the
    // old full-partition scan floor — strictly. This is the "kill the
    // Among scan floor" claim as a CI gate.
    let (ep_shapes, ep_probed, ep_floor) = (endpoint[2], endpoint[4], endpoint[5]);
    if ep_shapes < 1.0 {
        return Err("endpoint_index: the delta touched no shape (nothing measured)".into());
    }
    if ep_floor <= 0.0 {
        return Err("endpoint_index: scan_floor_rows must be positive".into());
    }
    if ep_probed >= ep_floor {
        return Err(format!(
            "endpoint_index: rows_probed {ep_probed} not strictly below the \
             full-partition scan floor {ep_floor}"
        ));
    }

    // Structural invariants of the snapshot-serving (concurrent) engine:
    // readers must have run in both phases, and the contended phase must
    // actually have had maintenance in flight. Throughput *ratios* are
    // machine-dependent and deliberately not asserted.
    let (reader_threads, passes_per_reader) = (concurrent[0], concurrent[1]);
    let (deltas_applied, quiet_tp, contended_tp) = (concurrent[4], concurrent[5], concurrent[6]);
    if reader_threads < 1.0 || passes_per_reader < 1.0 {
        return Err(format!(
            "concurrent: needs ≥ 1 reader thread and ≥ 1 pass \
             (got {reader_threads} threads × {passes_per_reader} passes)"
        ));
    }
    if deltas_applied < 1.0 {
        return Err("concurrent: the contended phase applied no delta".into());
    }
    if quiet_tp <= 0.0 || contended_tp <= 0.0 {
        return Err(format!(
            "concurrent: reader throughput must be positive in both phases \
             (quiet {quiet_tp}, contended {contended_tp})"
        ));
    }

    // Structural invariants of the robustness (admission + panic
    // recovery) scenarios: overload must actually shed, admitted work
    // must stay near the quiet latency, the injected maintenance panic
    // must have been recovered by a scratch rebuild, and no reader may
    // ever have observed a torn epoch.
    let (served, shed, quiet_p99, served_p99) =
        (robustness[2], robustness[3], robustness[6], robustness[8]);
    let (reader_passes, torn, quarantined, rebuilds) =
        (robustness[9], robustness[10], robustness[11], robustness[12]);
    if served < 1.0 {
        return Err("robustness: overload served no request at all".into());
    }
    if shed < 1.0 {
        return Err("robustness: overload shed no request — admission control never engaged".into());
    }
    if quiet_p99 <= 0.0 {
        return Err(format!("robustness: quiet_p99_ms must be positive, got {quiet_p99}"));
    }
    if served_p99 > 2.0 * quiet_p99 {
        return Err(format!(
            "robustness: served p99 {served_p99}ms exceeds 2× the quiet p99 {quiet_p99}ms — \
             shedding failed to protect admitted work"
        ));
    }
    if rebuilds < 1.0 || quarantined < 1.0 {
        return Err(format!(
            "robustness: the injected maintenance panic was not recovered \
             (quarantined_epochs {quarantined}, recovery_rebuilds {rebuilds})"
        ));
    }
    if reader_passes < 1.0 {
        return Err("robustness: no reader pass ran during the panic scenario".into());
    }
    if torn != 0.0 {
        return Err(format!(
            "robustness: {torn} torn reads — a reader observed inconsistent epoch state"
        ));
    }

    // Structural invariants of the durable-ingestion (WAL + governor)
    // section: ingestion must sustain a minimum rate, the bounded queue
    // must never exceed its capacity, reads under ingest must stay near
    // the quiet latency, and torn-tail recovery must reproduce the
    // committed prefix byte-for-byte.
    let (in_batches, in_edges, in_rate) = (ingest[0], ingest[2], ingest[4]);
    let (in_wal_commits, in_checkpoints) = (ingest[5], ingest[9]);
    let (in_queue_capacity, in_queue_peak) = (ingest[11], ingest[12]);
    let (in_quiet_p99, in_under_p99) = (ingest[15], ingest[17]);
    let (in_parity, in_truncated) = (ingest[18], ingest[20]);
    if in_batches < 1.0 || in_edges < 1.0 {
        return Err("ingest: no batch streamed — the ingest phase never ran".into());
    }
    if in_rate < 50.0 {
        return Err(format!(
            "ingest: sustained rate {in_rate} edges/s is below the 50 edges/s floor"
        ));
    }
    if in_wal_commits < in_batches {
        return Err(format!(
            "ingest: {in_wal_commits} WAL commits for {in_batches} batches — \
             commits are not reaching the WAL"
        ));
    }
    if in_checkpoints < 1.0 {
        return Err("ingest: no interval checkpoint ran under sustained load".into());
    }
    if in_queue_peak > in_queue_capacity {
        return Err(format!(
            "ingest: queue peak {in_queue_peak} exceeds capacity {in_queue_capacity} — \
             the bounded queue is not bounded"
        ));
    }
    if in_quiet_p99 <= 0.0 {
        return Err(format!("ingest: quiet_p99_ms must be positive, got {in_quiet_p99}"));
    }
    // The 0.5ms absolute allowance keeps sub-millisecond tiny-scale
    // passes from flaking on scheduler jitter; at real scales the 2×
    // relative bound dominates.
    if in_under_p99 > 2.0 * in_quiet_p99 && in_under_p99 - in_quiet_p99 > 0.5 {
        return Err(format!(
            "ingest: reader p99 under ingest {in_under_p99}ms exceeds 2× the quiet \
             p99 {in_quiet_p99}ms — epoch pinning failed to protect readers"
        ));
    }
    if in_parity != 1.0 {
        return Err("ingest: torn-tail recovery did not reproduce the committed \
             prefix byte-for-byte (recovered_parity != 1)"
            .into());
    }
    if in_truncated < 1.0 {
        return Err(
            "ingest: the recovery scenario truncated nothing — the torn tail was never cut".into(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_ranking.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_bench_schema: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(()) => {
            println!("check_bench_schema: {path} ok");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_bench_schema: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "benchmark": "global_distribution_ranking",
  "scale": "tiny",
  "pairs": 3,
  "explanations": 40,
  "distinct_shapes": 30,
  "global_samples": 8,
  "k": 10,
  "per_start": {"wall_ms": 100.0, "full_evals": 320, "streaming_evals": 10},
  "batched": {"wall_ms": 10.0, "full_evals": 40, "streaming_evals": 0},
  "shared_frame": {"wall_ms": 8.0, "full_evals": 30, "streaming_evals": 0, "distinct_shapes": 30, "tiles": 30, "peak_rows": 2020477},
  "incremental": {"delta_edges": 4, "kb_edges": 600, "full_rerank_wall_ms": 9.0, "full_rerank_full_evals": 30, "delta_rerank_wall_ms": 3.0, "delta_rerank_full_evals": 5, "delta_partial_evals": 7, "shapes_patched": 7, "shapes_untouched": 21, "frame_redrawn": 0},
  "concurrent": {"reader_threads": 2, "passes_per_reader": 12, "quiet_wall_ms": 40.0, "contended_wall_ms": 55.0, "deltas_applied": 3, "quiet_passes_per_s": 600.0, "contended_passes_per_s": 436.0},
  "endpoint_index": {"kb_edges": 600, "delta_edges": 4, "shapes_touched": 7, "affected_starts": 19, "rows_probed": 40, "scan_floor_rows": 900, "patch_wall_ms": 1.5, "index_build_ms": 2.0},
  "robustness": {"quiet_requests": 14, "requests": 24, "served": 9, "shed_requests": 15, "request_rows": 5000, "quiet_p50_ms": 20.0, "quiet_p99_ms": 30.0, "served_p50_ms": 21.0, "served_p99_ms": 35.0, "reader_passes": 400, "torn_reads": 0, "quarantined_epochs": 1, "recovery_rebuilds": 1},
  "ingest": {"batches": 48, "batch_size": 8, "edges_ingested": 384, "ingest_wall_ms": 120.0, "sustained_edges_per_s": 3200.0, "wal_commits": 48, "wal_bytes": 61440, "flips": 14, "deferred_flips": 34, "checkpoints": 4, "shed_submissions": 40, "queue_capacity": 8, "queue_peak": 8, "reader_passes": 13, "quiet_p50_ms": 18.0, "quiet_p99_ms": 25.0, "under_ingest_p50_ms": 19.0, "under_ingest_p99_ms": 27.0, "recovered_parity": 1, "recovery_replayed_batches": 8, "recovery_truncated_bytes": 7},
  "speedup": 10.0,
  "shared_frame_speedup": 1.25,
  "incremental_speedup": 3.0
}"#;

    #[test]
    fn good_document_validates() {
        validate(GOOD).unwrap();
    }

    #[test]
    fn missing_section_rejected() {
        let broken = GOOD.replace("shared_frame", "shared_fame");
        assert!(validate(&broken).is_err());
    }

    #[test]
    fn budget_violation_rejected() {
        // Shared-frame evals above distinct shapes must fail.
        let broken = GOOD.replace(
            "\"full_evals\": 30, \"streaming_evals\": 0, \"distinct_shapes\": 30",
            "\"full_evals\": 31, \"streaming_evals\": 0, \"distinct_shapes\": 30",
        );
        assert!(validate(&broken).is_err());
    }

    #[test]
    fn incremental_budget_violation_rejected() {
        // A delta re-rank as expensive as the cold one must fail.
        let broken =
            GOOD.replace("\"delta_rerank_full_evals\": 5", "\"delta_rerank_full_evals\": 30");
        assert_ne!(broken, GOOD);
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("strictly fewer"), "{err}");
        // Patched shapes without partial evals (or vice versa) is rot.
        let broken = GOOD.replace("\"delta_partial_evals\": 7", "\"delta_partial_evals\": 0");
        assert!(validate(&broken).unwrap_err().contains("together"));
        // A missing incremental section must fail.
        let broken = GOOD.replace("incremental", "incremendull");
        assert!(validate(&broken).is_err());
    }

    #[test]
    fn concurrent_violations_rejected() {
        // A missing concurrent section must fail.
        let broken = GOOD.replace("concurrent", "conkurrent");
        assert!(validate(&broken).is_err());
        // A contended phase that never applied a delta is not a
        // concurrency measurement.
        let broken = GOOD.replace("\"deltas_applied\": 3", "\"deltas_applied\": 0");
        assert_ne!(broken, GOOD);
        assert!(validate(&broken).unwrap_err().contains("no delta"));
        // Zero reader throughput means the readers never ran.
        let broken =
            GOOD.replace("\"contended_passes_per_s\": 436.0", "\"contended_passes_per_s\": 0");
        assert!(validate(&broken).unwrap_err().contains("throughput"));
        // No readers at all.
        let broken = GOOD.replace("\"reader_threads\": 2", "\"reader_threads\": 0");
        assert!(validate(&broken).unwrap_err().contains("reader thread"));
    }

    #[test]
    fn endpoint_index_violations_rejected() {
        // A missing section must fail.
        let broken = GOOD.replace("endpoint_index", "endpoint_indexx");
        assert!(validate(&broken).is_err());
        // Probed rows at (or above) the scan floor: the scan-floor claim
        // regressed.
        let broken = GOOD.replace("\"rows_probed\": 40", "\"rows_probed\": 900");
        assert_ne!(broken, GOOD);
        assert!(validate(&broken).unwrap_err().contains("strictly below"));
        // A patch pass that touched nothing measured nothing.
        let broken = GOOD.replace("\"shapes_touched\": 7", "\"shapes_touched\": 0");
        assert!(validate(&broken).unwrap_err().contains("touched no shape"));
        // A zero scan floor cannot anchor the comparison.
        let broken = GOOD.replace("\"scan_floor_rows\": 900", "\"scan_floor_rows\": 0");
        assert!(validate(&broken).unwrap_err().contains("scan_floor_rows"));
    }

    #[test]
    fn robustness_violations_rejected() {
        // A missing section must fail.
        let broken = GOOD.replace("robustness", "robastness");
        assert!(validate(&broken).is_err());
        // Overload that never shed means admission control never engaged.
        let broken = GOOD.replace("\"shed_requests\": 15", "\"shed_requests\": 0");
        assert_ne!(broken, GOOD);
        assert!(validate(&broken).unwrap_err().contains("never engaged"));
        // Overload that served nothing is an outage, not degradation.
        let broken = GOOD.replace("\"served\": 9", "\"served\": 0");
        assert!(validate(&broken).unwrap_err().contains("served no request"));
        // Served p99 beyond 2× the quiet p99: shedding failed its job.
        let broken = GOOD.replace("\"served_p99_ms\": 35.0", "\"served_p99_ms\": 61.0");
        assert!(validate(&broken).unwrap_err().contains("2×"));
        // An unrecovered injected panic.
        let broken = GOOD.replace("\"recovery_rebuilds\": 1", "\"recovery_rebuilds\": 0");
        assert!(validate(&broken).unwrap_err().contains("not recovered"));
        // Any torn read is a correctness failure, full stop.
        let broken = GOOD.replace("\"torn_reads\": 0", "\"torn_reads\": 1");
        assert!(validate(&broken).unwrap_err().contains("torn"));
    }

    #[test]
    fn ingest_violations_rejected() {
        // A missing section must fail.
        let broken = GOOD.replace("\"ingest\"", "\"inguest\"");
        assert_ne!(broken, GOOD);
        assert!(validate(&broken).is_err());
        // A sustained rate below the floor regressed the ingest path.
        let broken =
            GOOD.replace("\"sustained_edges_per_s\": 3200.0", "\"sustained_edges_per_s\": 12.0");
        assert_ne!(broken, GOOD);
        assert!(validate(&broken).unwrap_err().contains("floor"));
        // Fewer WAL commits than batches: commits are not reaching the WAL.
        let broken = GOOD.replace("\"wal_commits\": 48", "\"wal_commits\": 3");
        assert!(validate(&broken).unwrap_err().contains("WAL commits"));
        // No interval checkpoint ever ran.
        let broken = GOOD.replace("\"checkpoints\": 4", "\"checkpoints\": 0");
        assert!(validate(&broken).unwrap_err().contains("checkpoint"));
        // The bounded queue exceeded its capacity.
        let broken = GOOD.replace("\"queue_peak\": 8", "\"queue_peak\": 9");
        assert!(validate(&broken).unwrap_err().contains("bounded"));
        // Readers slowed beyond 2× quiet p99 under ingest.
        let broken = GOOD.replace("\"under_ingest_p99_ms\": 27.0", "\"under_ingest_p99_ms\": 51.0");
        assert!(validate(&broken).unwrap_err().contains("2×"));
        // Recovery parity is the whole point: a mismatch is fatal.
        let broken = GOOD.replace("\"recovered_parity\": 1", "\"recovered_parity\": 0");
        assert!(validate(&broken).unwrap_err().contains("byte-for-byte"));
        // A recovery scenario that cut nothing exercised nothing.
        let broken =
            GOOD.replace("\"recovery_truncated_bytes\": 7", "\"recovery_truncated_bytes\": 0");
        assert!(validate(&broken).unwrap_err().contains("torn tail"));
    }

    #[test]
    fn non_numeric_rejected() {
        let broken = GOOD.replace("\"pairs\": 3", "\"pairs\": \"three\"");
        assert!(validate(&broken).is_err());
    }

    /// A field dropped from one section must not be satisfied by the
    /// same-named key of a later section (the rot this guard exists for).
    #[test]
    fn dropped_field_not_borrowed_from_later_section() {
        let broken = GOOD.replace(
            "\"per_start\": {\"wall_ms\": 100.0, \"full_evals\": 320, \"streaming_evals\": 10}",
            "\"per_start\": {\"wall_ms\": 100.0, \"full_evals\": 320}",
        );
        assert_ne!(broken, GOOD, "replacement must apply");
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("per_start"), "{err}");
    }
}
