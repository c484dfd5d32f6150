//! Turns a [`RunOutput`] into named metrics, and metrics into the
//! printed lines, the `--out` TSV file and the final JSON line.

use std::fmt::Write as _;

use crate::stats::{fastest_by_key, median, percentile, sorted};
use crate::trace::self_times_ns;
use crate::workloads::{RunOutput, EDGES_PER_BATCH};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
/// Fails when the run has too few requests for p90.
///
/// A request counts at the fastest latency its pair had in the run.
/// Every request for a pair repeats the same work: a cold pass repeats
/// on a fresh session, and an ingest read of a pair hits the same cache
/// entries unless a flip catches it. The host these runs share slows
/// every read by up to 1.65 times for seconds to a minute at a time, so
/// pooled percentiles moved with how much of a run it was slow for.
pub fn end_to_end(run: &RunOutput) -> Result<Vec<Metric>, String> {
    let lat = sorted(&fastest_by_key(&run.latencies_ms, &run.pairs));
    let n = lat.len();
    let pct = |p: f64| {
        percentile(&lat, p).ok_or_else(|| format!("{n} requests cannot support p{}", p * 100.0))
    };
    Ok(vec![
        metric("min_latency_p50_ms", pct(0.5)?, "ms", n),
        metric("min_latency_p90_ms", pct(0.9)?, "ms", n),
        metric("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        metric("heap_mb", run.heap_mb, "MB", 1),
    ])
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Layers are the repository's modules. Times that only some workloads
/// have are given as shares, so no time metric is 0 by construction.
/// Work counts are per client request: how many reads an ingest run
/// makes depends on the machine, so totals would not compare.
///
/// The client's latency percentiles are pooled over every request (0
/// when a run is too short to support them; the command line always
/// makes enough requests). Client throughput is the median over windows
/// that each hold the same request mix (a cold pass, or a block of Zipf
/// traffic). On `ingest_serve` about half the reader's time goes to a
/// few hundred reads caught by a cache publication, each costing from
/// under a millisecond to seconds; a whole-run rate moved by nearly
/// half between runs, and the median window leaves those reads out.
pub fn per_layer(run: &RunOutput) -> Vec<Metric> {
    let own = self_times_ns(&run.spans);
    let with_self = || run.spans.iter().zip(own.iter().copied());
    // Thread 0 is the client (the reader on ingest_serve), 1 the writer.
    let measured = |name: &'static str, thread: u32| {
        with_self().filter(move |(s, _)| s.name == name && s.measured && s.thread == thread)
    };
    let busy_s = |name, thread| measured(name, thread).map(|(_, o)| o).sum::<u64>() as f64 * 1e-9;
    let calls_ms = |name: &'static str| -> Vec<f64> {
        run.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-6).collect()
    };
    let median_of = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let mean_of = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64);
    let setup_median_s = |name| median_of(calls_ms(name)) * 1e-3;
    let n_req = run.latencies_ms.len();
    let per_req = |count: f64| ratio(count, n_req as f64);
    let sum =
        |name, counter| measured(name, 0).map(|(s, _)| s.counter(counter)).sum::<u64>() as f64;
    let max = |name, counter| {
        measured(name, 0).map(|(s, _)| s.counter(counter)).max().unwrap_or(0) as f64
    };

    let wall = run.client_wall_s;
    let setup = setup_median_s("setup");
    let serve_busy = busy_s("serve.try_serve", 0);
    let cold_reads: Vec<u64> = measured("serve.try_serve", 0)
        .filter(|(s, _)| s.counter("batched_evals") > 0)
        .map(|(_, o)| o)
        .collect();
    let cold_read_busy = cold_reads.iter().sum::<u64>() as f64 * 1e-9;

    let r = &run.region;
    let evals = (r.evals.full + r.evals.delta) as f64;
    let rows = (r.evals.rows_probed + r.evals.rows_scanned) as f64;
    let lookups = (r.cache_hits + r.cache_misses) as f64;
    let flips = r.ingest.flips as f64;
    let (writer_wall, batches) = run.writer.map_or((0.0, 0), |w| (w.wall_s, w.batches));
    let edges = (batches * EDGES_PER_BATCH) as f64;
    let writer_share = |name| ratio(busy_s(name, 1), writer_wall);
    let pump_share_with = |counter| {
        let busy: u64 = measured("ingest.pump", 1)
            .filter(|(s, _)| s.counter(counter) > 0)
            .map(|(_, o)| o)
            .sum();
        ratio(busy as f64 * 1e-9, writer_wall)
    };
    let client_spans = run.spans.iter().filter(|s| s.measured && s.thread == 0).count();

    let rates: Vec<f64> = run.windows.iter().map(|w| w.requests.len() as f64 / w.wall_s).collect();
    let lat = sorted(&run.latencies_ms);
    let pooled = |p| percentile(&lat, p).unwrap_or(0.0);

    vec![
        metric("client.latency_p50_ms", pooled(0.5), "ms", n_req),
        metric("client.latency_p90_ms", pooled(0.9), "ms", n_req),
        metric("client.throughput_rps", median(&rates), "req/s", rates.len()),
        metric("kb.load_s", setup_median_s("kb.read_tsv"), "s", calls_ms("kb.read_tsv").len()),
        metric(
            "kb.durable_create_share",
            ratio(setup_median_s("kb.durable_create"), setup),
            "frac",
            1,
        ),
        metric("kb.wal_commits", r.ingest.committed_batches as f64, "count", 1),
        metric("kb.wal_bytes_per_edge", ratio(r.ingest.wal_bytes as f64, edges), "B/edge", batches),
        metric("kb.checkpoints", r.ingest.checkpoints as f64, "count", 1),
        metric("enumerate.share", ratio(busy_s("enumerate", 0), wall), "frac", 1),
        metric(
            "enumerate.p50_ms",
            median_of(calls_ms("enumerate")),
            "ms",
            calls_ms("enumerate").len(),
        ),
        metric(
            "enumerate.mean_ms",
            mean_of(calls_ms("enumerate")),
            "ms",
            calls_ms("enumerate").len(),
        ),
        metric(
            "enumerate.explanations",
            per_req(sum("enumerate", "explanations")),
            "count/req",
            n_req,
        ),
        metric(
            "enumerate.path_patterns",
            per_req(sum("enumerate", "path_patterns")),
            "count/req",
            n_req,
        ),
        metric(
            "enumerate.merge_calls",
            per_req(sum("enumerate", "merge_calls")),
            "count/req",
            n_req,
        ),
        metric("serve.share", ratio(serve_busy, wall), "frac", 1),
        metric(
            "serve.p50_ms",
            median_of(calls_ms("serve.try_serve")),
            "ms",
            calls_ms("serve.try_serve").len(),
        ),
        metric(
            "serve.mean_ms",
            mean_of(calls_ms("serve.try_serve")),
            "ms",
            calls_ms("serve.try_serve").len(),
        ),
        metric("serve.build_s", setup_median_s("serve.build"), "s", calls_ms("serve.build").len()),
        metric("cache.hits", per_req(r.cache_hits as f64), "count/req", n_req),
        metric("cache.misses", per_req(r.cache_misses as f64), "count/req", n_req),
        metric("cache.hit_ratio", ratio(r.cache_hits as f64, lookups), "frac", 1),
        metric("cache.batched_evals", per_req(r.cache_batched_evals as f64), "count/req", n_req),
        metric("cache.entries", r.cache_entries as f64, "count", 1),
        metric("cache.cold_reads", cold_reads.len() as f64, "count", 1),
        metric("cache.cold_reads_per_flip", ratio(cold_reads.len() as f64, flips), "reads/flip", 1),
        metric("cache.cold_read_share", ratio(cold_read_busy, serve_busy), "frac", 1),
        metric("relstore.full_evals", per_req(r.evals.full as f64), "count/req", n_req),
        metric("relstore.delta_evals", per_req(r.evals.delta as f64), "count/req", n_req),
        metric("relstore.tiles", per_req(r.evals.tiles as f64), "count/req", n_req),
        metric("relstore.rows_probed", per_req(r.evals.rows_probed as f64), "rows/req", n_req),
        metric("relstore.rows_scanned", per_req(r.evals.rows_scanned as f64), "rows/req", n_req),
        metric("relstore.rows_per_eval", ratio(rows, evals), "rows/eval", 1),
        metric("relstore.peak_rows", max("serve.try_serve", "peak_rows"), "rows", 1),
        metric("relstore.est_peak_rows", max("serve.try_serve", "est_peak_rows"), "rows", 1),
        metric(
            "relstore.overflow_tiles",
            per_req(sum("serve.try_serve", "overflow_tiles")),
            "count/req",
            n_req,
        ),
        metric("ingest.edges_per_s", ratio(edges, writer_wall), "edges/s", batches),
        metric("ingest.submit_share", writer_share("ingest.submit"), "frac", 1),
        metric("ingest.pump_share", writer_share("ingest.pump"), "frac", 1),
        metric("ingest.flip_pump_share", pump_share_with("flips"), "frac", 1),
        metric("ingest.checkpoint_pump_share", pump_share_with("checkpoints"), "frac", 1),
        metric("ingest.drain_share", writer_share("ingest.drain"), "frac", 1),
        metric("ingest.flips", flips, "count", 1),
        metric("ingest.deferred_flips", r.ingest.deferred_flips as f64, "count", 1),
        metric("ingest.queue_peak", r.queue_peak as f64, "count", 1),
        metric("ingest.shed", r.ingest.shed as f64, "count", 1),
        metric("process.peak_rss_mb", run.peak_rss_mb, "MB", 1),
        metric(
            "trace.overhead_frac",
            ratio(run.span_cost_s * client_spans as f64, wall),
            "frac",
            client_spans,
        ),
    ]
}

/// One `workload metric value unit n=<samples>` line, tab-separated.
pub fn line(workload: &str, m: &Metric) -> String {
    format!("{workload}\t{}\t{}\t{}\tn={}", m.name, m.value, m.unit, m.samples)
}

/// The final JSON line. Values print with every digit Rust keeps.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = [metric("min_latency_p50_ms", 1.25, "ms", 100), metric("setup_s", 0.5, "s", 3)];
        assert_eq!(
            json(true, 100, 0, &m),
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"min_latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            line("ingest_serve", &m[0]),
            "ingest_serve\tmin_latency_p50_ms\t1.25\tms\tn=100"
        );
    }
}
