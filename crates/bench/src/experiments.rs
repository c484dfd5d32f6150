//! The experiment implementations behind each figure/table binary.
//!
//! Every function returns a rendered [`Table`] (plus any series data) so
//! the per-figure binaries and the consolidated `report` binary share one
//! implementation.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_core::enumerate::naive::NaiveEnumerator;
use rex_core::enumerate::{GeneralEnumerator, PathAlgo, UnionAlgo};
use rex_core::measures::distribution::global_position_per_start;
use rex_core::measures::{DistributionCache, MeasureContext, MonocountMeasure, SampleFrame};
use rex_core::ranking::distribution::{rank_by_position, Scope};
use rex_core::ranking::rank;
use rex_core::ranking::topk::rank_topk_pruned;
use rex_core::ranking::{rank_pairs_with, PairExplanations, RankPairsConfig, ServingState};
use rex_datagen::ConnGroup;
use rex_kb::{EdgeId, NodeId};
use rex_oracle::study::{paper_pairs, run_study};
use rex_oracle::{StudyConfig, StudyOutcome};
use rex_relstore::budget::Budget;
use rex_relstore::metrics::{self, EvalTrace};

use crate::report::Table;
use crate::timing::{fmt_duration, mean, time};
use crate::workloads::Workload;

/// The five algorithm combinations of Figure 7, in the paper's order.
pub const FIG7_COMBOS: &[(&str, Option<(PathAlgo, UnionAlgo)>)] = &[
    ("NaiveEnum", None),
    ("PathEnumNaive + PathUnionBasic", Some((PathAlgo::Naive, UnionAlgo::Basic))),
    ("PathEnumBasic + PathUnionBasic", Some((PathAlgo::Basic, UnionAlgo::Basic))),
    ("PathEnumPrioritized + PathUnionBasic", Some((PathAlgo::Prioritized, UnionAlgo::Basic))),
    ("PathEnumPrioritized + PathUnionPrune", Some((PathAlgo::Prioritized, UnionAlgo::Prune))),
];

/// Figure 7: average enumeration time per algorithm combination and
/// connectedness group. `naive_budget` caps the baseline's pattern
/// expansions; when hit, the reported time is a lower bound (marked `>`).
pub fn fig7(w: &Workload, naive_budget: usize) -> Table {
    let mut table = Table::new(["algorithm", "low", "medium", "high"]);
    for (name, combo) in FIG7_COMBOS {
        let mut cells = vec![name.to_string()];
        for group in ConnGroup::ALL {
            let mut durations = Vec::new();
            let mut truncated = false;
            for pair in w.group(group) {
                match combo {
                    None => {
                        let enumerator =
                            NaiveEnumerator::with_budget(w.enum_config.clone(), naive_budget);
                        let (out, d) = time(|| enumerator.enumerate(&w.kb, pair.start, pair.end));
                        truncated |= out.stats.patterns_expanded >= naive_budget;
                        durations.push(d);
                    }
                    Some((path_algo, union_algo)) => {
                        let enumerator = GeneralEnumerator::with_algorithms(
                            w.enum_config.clone(),
                            *path_algo,
                            *union_algo,
                        );
                        let (_, d) = time(|| enumerator.enumerate(&w.kb, pair.start, pair.end));
                        durations.push(d);
                    }
                }
            }
            let avg = mean(&durations);
            let mark = if truncated { ">" } else { "" };
            cells.push(format!("{mark}{}", fmt_duration(avg)));
        }
        table.row(cells);
    }
    table
}

/// Figure 8: enumeration time vs. number of explanation instances for all
/// sampled pairs (PathEnumPrioritized + PathUnionPrune). Returns the table
/// sorted by instance count; the paper plots the same series as a scatter.
pub fn fig8(w: &Workload) -> Table {
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let mut rows: Vec<(usize, usize, Duration, String)> = Vec::new();
    for pair in &w.pairs {
        let (out, d) = time(|| enumerator.enumerate(&w.kb, pair.start, pair.end));
        let instances: usize = out.explanations.iter().map(|e| e.count()).sum();
        rows.push((instances, out.explanations.len(), d, pair.group.name().to_string()));
    }
    rows.sort_by_key(|r| r.0);
    let mut table = Table::new(["instances", "explanations", "group", "time"]);
    for (instances, explanations, d, group) in rows {
        table.row([instances.to_string(), explanations.to_string(), group, fmt_duration(d)]);
    }
    table
}

/// Figure 9: monocount ranking with top-k pruning (k = 10) vs. full
/// enumeration + ranking, per connectedness group.
pub fn fig9(w: &Workload, k: usize) -> Table {
    let mut table = Table::new(["group", "full enumeration", "top-k pruning", "speedup"]);
    for group in ConnGroup::ALL {
        let mut full_times = Vec::new();
        let mut pruned_times = Vec::new();
        for pair in w.group(group) {
            let ctx = MeasureContext::new(&w.kb, pair.start, pair.end);
            let (_, d_full) = time(|| {
                let out = GeneralEnumerator::new(w.enum_config.clone())
                    .enumerate(&w.kb, pair.start, pair.end);
                rank(&out.explanations, &MonocountMeasure, &ctx, k)
            });
            full_times.push(d_full);
            let (_, d_pruned) = time(|| {
                rank_topk_pruned(
                    &w.kb,
                    pair.start,
                    pair.end,
                    &w.enum_config,
                    &MonocountMeasure,
                    &ctx,
                    k,
                )
                .expect("monocount is anti-monotonic")
            });
            pruned_times.push(d_pruned);
        }
        let full = mean(&full_times);
        let pruned = mean(&pruned_times);
        let speedup = if pruned.as_nanos() > 0 {
            full.as_secs_f64() / pruned.as_secs_f64()
        } else {
            f64::INFINITY
        };
        table.row([
            group.name().to_string(),
            fmt_duration(full),
            fmt_duration(pruned),
            format!("{speedup:.1}×"),
        ]);
    }
    table
}

/// Figure 10: average monocount-ranking time for different k, pruned vs.
/// full, per group.
pub fn fig10(w: &Workload, ks: &[usize]) -> Table {
    let mut header: Vec<String> = vec!["group".into(), "full".into()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    let mut table = Table::new(header);
    for group in ConnGroup::ALL {
        let pairs = w.group(group);
        let mut full_times = Vec::new();
        for pair in &pairs {
            let ctx = MeasureContext::new(&w.kb, pair.start, pair.end);
            let (_, d) = time(|| {
                let out = GeneralEnumerator::new(w.enum_config.clone())
                    .enumerate(&w.kb, pair.start, pair.end);
                rank(&out.explanations, &MonocountMeasure, &ctx, usize::MAX)
            });
            full_times.push(d);
        }
        let mut cells = vec![group.name().to_string(), fmt_duration(mean(&full_times))];
        for &k in ks {
            let mut times = Vec::new();
            for pair in &pairs {
                let ctx = MeasureContext::new(&w.kb, pair.start, pair.end);
                let (_, d) = time(|| {
                    rank_topk_pruned(
                        &w.kb,
                        pair.start,
                        pair.end,
                        &w.enum_config,
                        &MonocountMeasure,
                        &ctx,
                        k,
                    )
                    .expect("monocount is anti-monotonic")
                });
                times.push(d);
            }
            cells.push(fmt_duration(mean(&times)));
        }
        table.row(cells);
    }
    table
}

/// Figure 11: top-10 ranking time under the distribution-based position
/// measure — local / local+pruning / global / global+pruning — averaged
/// over `pairs_per_group` pairs per group. Enumeration time is excluded
/// (it is identical across the four scenarios); the global distribution is
/// estimated from `w.global_samples` sampled local distributions, as in
/// §5.3.2.
pub fn fig11(w: &Workload, pairs_per_group: usize, k: usize) -> Table {
    let scenarios: [(&str, Scope, bool); 4] = [
        ("local", Scope::Local, false),
        ("local + pruning", Scope::Local, true),
        ("global", Scope::Global, false),
        ("global + pruning", Scope::Global, true),
    ];
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    // Pre-enumerate each pair once.
    let prepared: Vec<(&rex_datagen::PairSample, Vec<rex_core::Explanation>)> = w
        .truncated(pairs_per_group)
        .into_iter()
        .map(|p| {
            let out = enumerator.enumerate(&w.kb, p.start, p.end);
            (p, out.explanations)
        })
        .collect();
    let mut table = Table::new(["scenario", "low", "medium", "high"]);
    for (name, scope, prune) in scenarios {
        let mut cells = vec![name.to_string()];
        for group in ConnGroup::ALL {
            let mut times = Vec::new();
            for (pair, explanations) in prepared.iter().filter(|(p, _)| p.group == group) {
                let ctx = MeasureContext::new(&w.kb, pair.start, pair.end)
                    .with_global_samples(w.global_samples, w.seed);
                // Warm the shared edge index outside the timed region (the
                // paper's relational table also pre-exists).
                let _ = ctx.edge_index();
                let (_, d) = time(|| rank_by_position(explanations, &ctx, k, scope, prune));
                times.push(d);
            }
            cells.push(fmt_duration(mean(&times)));
        }
        table.row(cells);
    }
    table
}

/// One side of the batched-vs-per-start ranking comparison.
#[derive(Debug, Clone, Copy)]
pub struct RankingBenchSide {
    /// Wall time of the position computation across all pairs.
    pub wall: Duration,
    /// Full relational evaluations performed: the batched side's
    /// all-starts evaluations. The per-start baseline traces every
    /// position query as streaming, so its count is 0.
    pub full_evals: usize,
    /// Streaming position queries performed, `LIMIT`-pruned or not.
    pub streaming_evals: usize,
}

/// The shared-frame workload side: one sample frame + one cache across
/// all pairs, missed shapes handed to the workers cheapest-first.
#[derive(Debug, Clone, Copy)]
pub struct SharedFrameSide {
    /// Wall time of the shared pass (prewarm reads + scoring) across all pairs.
    pub wall: Duration,
    /// Full (batched) relational evaluations — bounded by the distinct
    /// shapes across the *whole workload*, not Σ per-pair shapes.
    pub full_evals: usize,
    /// Streaming evaluations (0: the shared batch answers everything).
    pub streaming_evals: usize,
    /// Distinct canonical shapes across all pairs.
    pub distinct_shapes: usize,
    /// Walks evaluated across all batches: one per batch.
    pub tiles: usize,
    /// Most bindings one level of any batch's walk made.
    pub peak_rows: usize,
}

/// The incremental-maintenance comparison: after a small KB delta, a
/// full (cold-cache) re-rank of the workload versus the delta re-rank
/// that keeps the session's index/frame/cache warm through
/// [`ServingState::maintain`].
#[derive(Debug, Clone, Copy)]
pub struct IncrementalBench {
    /// Edge churn applied (insertions + removals; ≤ 1% of the KB).
    pub delta_edges: usize,
    /// KB edge count after the delta.
    pub kb_edges: usize,
    /// Wall time of the cold-cache re-rank on the updated KB.
    pub full_wall: Duration,
    /// Full (batched) evaluations of the cold re-rank — one per distinct
    /// shape of the post-update workload.
    pub full_evals: usize,
    /// Wall time of the delta re-rank: index refresh + frame policy +
    /// cache maintenance + ranking, all included.
    pub delta_wall: Duration,
    /// Full evaluations the delta re-rank issued: cache misses for
    /// genuinely new shapes (maintenance only patches).
    pub delta_full_evals: usize,
    /// Partial evaluations (affected-start re-groups) of the delta path.
    pub delta_partial_evals: usize,
    /// Shapes patched with a partial evaluation.
    pub shapes_patched: usize,
    /// Shapes untouched by the delta (epoch bump only).
    pub shapes_untouched: usize,
    /// Whether the redraw policy replaced the sample frame.
    pub frame_redrawn: bool,
}

impl IncrementalBench {
    /// Wall-time speedup of the delta re-rank (>1 = incremental faster).
    pub fn speedup(&self) -> f64 {
        let d = self.delta_wall.as_secs_f64();
        if d > 0.0 {
            self.full_wall.as_secs_f64() / d
        } else {
            f64::INFINITY
        }
    }
}

/// The endpoint-index comparison: after a small KB delta, the row
/// traffic of the delta patch pass (partial re-groups over just the
/// affected starts) measured through the probed-rows counter, versus
/// the **scan floor** — the full `(label, dir)` partition rows
/// the pre-index engine walked for exactly the same partial
/// evaluations. `rows_probed` strictly below `scan_floor_rows` is the
/// "scan floor is gone" acceptance bar, enforced by
/// `check_bench_schema`.
#[derive(Debug, Clone, Copy)]
pub struct EndpointIndexBench {
    /// KB edge count after the delta.
    pub kb_edges: usize,
    /// Edge churn applied (insertions + removals).
    pub delta_edges: usize,
    /// Workload shapes with at least one delta-affected start.
    pub shapes_touched: usize,
    /// Total affected starts re-grouped across those shapes.
    pub affected_starts: usize,
    /// Neighbour-list rows the patch pass's walks read.
    pub rows_probed: usize,
    /// Rows the old full-partition path would have walked for the same
    /// partial evaluations: every touched shape's per-edge `scan_len`.
    pub scan_floor_rows: usize,
    /// Wall time of the patch pass (affected-start re-groups only).
    pub patch_wall: Duration,
    /// Wall time of one cold `EdgeIndex::build` (partitions + endpoint
    /// posting lists) on the post-delta KB — the per-epoch price the
    /// probes amortize.
    pub index_build_wall: Duration,
}

/// Measures the endpoint-index row traffic of a delta patch pass over
/// the workload's distinct shapes: for each shape, the affected starts
/// are intersected with a cached domain — the shared sample frame plus
/// the delta's own endpoint entities, mirroring the warm-serving state
/// `DistributionCache::apply_delta` patches (the endpoints ride along so
/// a frame that happened to sample none of the blast radius still
/// leaves the pass measurable). The probed rows are the sum of the
/// traces the patch pass's evaluations return.
pub fn endpoint_index_bench(w: &Workload, pairs_per_group: usize) -> EndpointIndexBench {
    use rex_relstore::engine::{
        count_distributions, delta_affected_starts, EdgeIndex, EvalKind, EvalRequest,
    };

    let mut kb = w.kb.clone();
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let mut specs: Vec<rex_relstore::plan::PatternSpec> = Vec::new();
    let mut seen = HashSet::new();
    for p in w.truncated(pairs_per_group) {
        for e in enumerator.enumerate(&kb, p.start, p.end).explanations {
            if seen.insert(e.key().clone()) {
                specs.push(e.pattern.to_spec());
            }
        }
    }
    let shape_labels: HashSet<u64> =
        specs.iter().flat_map(|s| s.edges.iter().map(|e| e.label)).collect();

    // Deterministic delta, biased onto the shapes' labels so the patch
    // pass has work to measure (a label-disjoint delta would make every
    // shape a no-op): paired remove + rewired re-insert, the same churn
    // model as the incremental section.
    let epoch0 = kb.epoch();
    let mut rng = StdRng::seed_from_u64(w.seed ^ 0xE1DE);
    let target = (kb.edge_count() / 40_000).clamp(1, 8);
    let mut rewired = 0;
    let mut attempts = 0;
    while rewired < target {
        let victim = EdgeId(rng.gen_range(0..kb.edge_count()) as u32);
        let record = kb.edge(victim);
        attempts += 1;
        // Shape labels are the workload's common labels, so this accepts
        // quickly; the attempt bound keeps pathological workloads total.
        if !shape_labels.contains(&(record.label.0 as u64)) && attempts < 10_000 {
            continue;
        }
        kb.remove_edge(victim).expect("edge ids are dense");
        let other = NodeId(rng.gen_range(0..kb.node_count()) as u32);
        kb.insert_edge(record.src, other, record.label, record.directed)
            .expect("template endpoints exist");
        rewired += 1;
    }
    let delta = kb.delta_since(epoch0).into_delta().expect("retained window");

    let (index, index_build_wall) = time(|| EdgeIndex::build(&w.kb));
    let index = index.next_epoch(&delta).expect("delta applies to its own window");

    // The cached domain being patched: the shared sample frame plus the
    // delta's endpoint entities (always inside the blast radius of a
    // shape the delta touches).
    let frame = SampleFrame::sample(&kb, w.global_samples, w.seed).expect("workload KB has edges");
    let mut domain: HashSet<u64> = frame.starts().iter().map(|s| s.0 as u64).collect();
    for record in delta.added.iter().chain(&delta.removed) {
        domain.insert(record.src.0 as u64);
        domain.insert(record.dst.0 as u64);
    }

    let mut shapes_touched = 0usize;
    let mut affected_starts = 0usize;
    let mut scan_floor_rows = 0usize;
    let mut traffic = EvalTrace::default();
    let ((), patch_wall) = time(|| {
        for spec in &specs {
            let Some(affected) = delta_affected_starts(&kb, spec, &delta) else {
                continue;
            };
            let affected: Vec<u64> = affected.into_iter().filter(|s| domain.contains(s)).collect();
            if affected.is_empty() {
                continue;
            }
            let req =
                EvalRequest { starts: &affected, kind: EvalKind::Delta, ..Default::default() };
            let patch =
                count_distributions(&index, spec, &req).expect("workload shapes are valid specs");
            traffic.merge(&patch.trace);
            shapes_touched += 1;
            affected_starts += affected.len();
            scan_floor_rows +=
                spec.edges.iter().map(|e| index.scan_len(e.label, e.dir())).sum::<usize>();
        }
    });

    EndpointIndexBench {
        kb_edges: kb.edge_count(),
        delta_edges: delta.edge_churn(),
        shapes_touched,
        affected_starts,
        rows_probed: traffic.rows_probed,
        scan_floor_rows,
        patch_wall,
        index_build_wall,
    }
}

/// The snapshot-serving comparison: reader throughput over pinned
/// [`rex_core::ranking::Snapshot`]s with **no** writer (quiet) versus
/// with a writer continuously applying deltas through
/// [`rex_core::ranking::ServingState::maintain`] (contended). It records
/// each phase's wall time (hence passes per second) and the maintenance
/// passes that overlapped the readers; it sets no bound on the
/// contended/quiet ratio. Readers never wait on a lock held across
/// maintenance, yet contended throughput is far below quiet: the `small`
/// scale run in `BENCH_ranking.json` records 0.805 vs 342.2 passes/s.
/// The contended-serving collapse item in `ROADMAP.md` tracks the cause.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentBench {
    /// Reader threads per phase.
    pub reader_threads: usize,
    /// Read passes each reader completed per phase (a pass = one pinned
    /// snapshot + a global position for every workload explanation).
    pub passes_per_reader: usize,
    /// Wall time of the quiet phase (readers only).
    pub quiet_wall: Duration,
    /// Wall time of the contended phase, measured up to the moment the
    /// **last reader** finished (the writer's unfinished pass is not
    /// waited out into the reader throughput).
    pub contended_wall: Duration,
    /// Maintenance passes overlapping the reader window, counted at pass
    /// start — the pass the readers raced counts even if it completed
    /// just after they finished.
    pub deltas_applied: usize,
}

impl ConcurrentBench {
    /// Total reader passes per phase.
    pub fn total_passes(&self) -> usize {
        self.reader_threads * self.passes_per_reader
    }

    /// Reader passes per second with no writer.
    pub fn quiet_passes_per_s(&self) -> f64 {
        self.total_passes() as f64 / self.quiet_wall.as_secs_f64().max(1e-9)
    }

    /// Reader passes per second while deltas apply.
    pub fn contended_passes_per_s(&self) -> f64 {
        self.total_passes() as f64 / self.contended_wall.as_secs_f64().max(1e-9)
    }
}

/// Measures reader throughput against a warm [`ServingState`] with and
/// without an in-flight maintenance writer. The reader workload is the
/// serving hot path — pin a snapshot, sum global positions for every
/// explanation of the workload (all warm cache hits at a stable epoch).
/// The contended-phase writer loops deterministic remove+reinsert deltas
/// through `maintain` (build next epoch off to the side + O(1) flip)
/// until every reader finishes its pass quota.
pub fn concurrent_bench(w: &Workload, pairs_per_group: usize) -> ConcurrentBench {
    let mut kb = w.kb.clone();
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let prepared: Vec<(NodeId, Vec<rex_core::Explanation>)> = w
        .truncated(pairs_per_group)
        .into_iter()
        .map(|p| (p.start, enumerator.enumerate(&kb, p.start, p.end).explanations))
        .collect();
    let cfg = RankPairsConfig {
        k: 10,
        global_samples: w.global_samples,
        seed: w.seed,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let state = ServingState::build(&kb, &cfg).expect("workload KB has edges");
    let reader_threads: usize =
        std::env::var("REX_BENCH_READER_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let passes_per_reader: usize =
        std::env::var("REX_BENCH_READER_PASSES").ok().and_then(|v| v.parse().ok()).unwrap_or(12);

    // Warm the session once (untimed): the steady serving state.
    let warm = state.snapshot();
    for (start, explanations) in &prepared {
        for e in explanations {
            warm.global_position_excluding(e, Some(*start));
        }
    }
    drop(warm);

    // Returns the wall time until the **last reader** finished (the
    // writer's tail is deliberately excluded — it would inflate the
    // contended wall with reader-free time) and the number of
    // maintenance passes that overlapped the reader window (counted at
    // pass *start*, so an in-flight pass the readers raced against is
    // counted even if it completes after they finish).
    let read_phase = |writer_active: bool, kb: &mut rex_kb::KnowledgeBase| -> (Duration, usize) {
        let stop_writer = std::sync::atomic::AtomicBool::new(false);
        let deltas_begun = std::sync::atomic::AtomicUsize::new(0);
        // Readers start only once the writer has begun its first delta,
        // so a short contended phase cannot finish before it overlaps any.
        let started = std::sync::Barrier::new(reader_threads + usize::from(writer_active));
        let t0 = std::time::Instant::now();
        let (readers_wall, overlapping) = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..reader_threads)
                .map(|_| {
                    let (state, prepared, started) = (&state, &prepared, &started);
                    scope.spawn(move |_| {
                        started.wait();
                        for _ in 0..passes_per_reader {
                            let snap = state.snapshot();
                            let mut acc = 0usize;
                            for (start, explanations) in prepared {
                                for e in explanations {
                                    acc += snap.global_position_excluding(e, Some(*start));
                                }
                            }
                            std::hint::black_box(acc);
                        }
                    })
                })
                .collect();
            let writer = if writer_active {
                let (state, stop_writer, deltas_begun, started) =
                    (&state, &stop_writer, &deltas_begun, &started);
                let mut rng = StdRng::seed_from_u64(w.seed ^ 0xBEEF);
                let kb: &mut rex_kb::KnowledgeBase = kb;
                Some(scope.spawn(move |_| {
                    // Begin the first delta as the readers start, then keep
                    // the maintenance pressure on until they are done.
                    deltas_begun.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    started.wait();
                    loop {
                        // One small delta: remove + rewired re-insert.
                        let victim = EdgeId(rng.gen_range(0..kb.edge_count()) as u32);
                        kb.remove_edge(victim).expect("edge ids are dense");
                        let template = kb.edge(EdgeId(rng.gen_range(0..kb.edge_count()) as u32));
                        let other = NodeId(rng.gen_range(0..kb.node_count()) as u32);
                        kb.insert_edge(template.src, other, template.label, template.directed)
                            .expect("template endpoints exist");
                        state.maintain(kb).expect("delta maintenance");
                        if stop_writer.load(std::sync::atomic::Ordering::Acquire) {
                            break;
                        }
                        deltas_begun.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }))
            } else {
                None
            };
            for h in handles {
                h.join().expect("reader");
            }
            // Measure at the moment the last reader finished, *before*
            // waiting out the writer's current pass.
            let readers_wall = t0.elapsed();
            let overlapping = deltas_begun.load(std::sync::atomic::Ordering::Relaxed);
            stop_writer.store(true, std::sync::atomic::Ordering::Release);
            if let Some(writer) = writer {
                writer.join().expect("writer");
            }
            (readers_wall, overlapping)
        })
        .expect("scope");
        (readers_wall, overlapping)
    };

    let (quiet_wall, _) = read_phase(false, &mut kb);
    let (contended_wall, deltas_applied) = read_phase(true, &mut kb);

    ConcurrentBench {
        reader_threads,
        passes_per_reader,
        quiet_wall,
        contended_wall,
        deltas_applied,
    }
}

/// The robustness section: admission-controlled serving under overload
/// (excess requests shed, served latency bounded) and a scripted
/// mid-maintenance panic (epoch quarantined, scratch rebuild, readers
/// never observe a torn epoch).
#[derive(Debug, Clone, Copy)]
pub struct RobustnessBench {
    /// Serial requests of the quiet phase (no admission contention).
    pub quiet_requests: usize,
    /// Overload-phase request attempts across all client threads.
    pub requests: usize,
    /// Overload-phase requests that were admitted and ranked.
    pub served: usize,
    /// Overload-phase requests shed by admission control
    /// (`CoreError::Overloaded`, retryable).
    pub shed_requests: usize,
    /// The admission cost of one workload request (estimated rows) — also
    /// the pool capacity, so at most one request holds the pool.
    pub request_rows: usize,
    /// Quiet-phase median request latency.
    pub quiet_p50: Duration,
    /// Quiet-phase p99 request latency.
    pub quiet_p99: Duration,
    /// Overload-phase median latency of *served* requests.
    pub served_p50: Duration,
    /// Overload-phase p99 latency of served requests — the acceptance bar
    /// is ≤ 2× the quiet p99 (shedding keeps admitted work unslowed).
    pub served_p99: Duration,
    /// Reader passes completed while the panic scenario ran.
    pub reader_passes: usize,
    /// Reads that were internally inconsistent or disagreed with another
    /// read at the same epoch. Must be 0: the flip is atomic and a
    /// pre-flip panic publishes nothing.
    pub torn_reads: usize,
    /// Epochs abandoned by the injected mid-maintenance panic.
    pub quarantined_epochs: usize,
    /// Scratch rebuilds that recovered a quarantined epoch.
    pub recovery_rebuilds: usize,
}

/// A percentile of an unsorted latency sample (nearest-rank on the
/// sorted copy; zero on an empty sample).
fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Measures the serving robustness layers end to end.
///
/// **Overload**: a [`ServingState`] gets an admission pool sized to
/// exactly one request's estimated rows, so concurrent clients contend
/// for a single serving slot. A quiet serial phase establishes the
/// baseline latency distribution; then `REX_BENCH_OVERLOAD_THREADS`
/// clients (released together off a barrier, so the pool is genuinely
/// contended) each push `REX_BENCH_OVERLOAD_ATTEMPTS` requests through
/// [`ServingState::try_serve`], backing off 1ms on a shed. Admission is
/// load *shedding*, not queueing — served requests should stay near the
/// quiet latency while the excess is rejected retryably.
///
/// **Panic recovery**: a second session carries a [`FaultPlan`] that
/// panics at `maintain::before_flip` — maximum work done, none of it
/// published. Reader threads continuously pin snapshots and re-read a
/// probe workload, counting a *torn read* whenever one snapshot
/// disagrees with itself or with any other read at the same epoch, while
/// the writer applies a delta (tripping the panic, quarantining the
/// epoch, recovering by scratch rebuild) and then a second, clean delta
/// (incremental maintenance resumes after recovery).
///
/// [`FaultPlan`]: rex_core::ranking::FaultPlan
pub fn robustness_bench(w: &Workload, pairs_per_group: usize, k: usize) -> RobustnessBench {
    use rex_core::ranking::fault::{site, FaultAction, FaultPlan};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let prepared: Vec<(NodeId, NodeId, Vec<rex_core::Explanation>)> = w
        .truncated(pairs_per_group)
        .into_iter()
        .map(|p| (p.start, p.end, enumerator.enumerate(&w.kb, p.start, p.end).explanations))
        .collect();
    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    let cfg = RankPairsConfig {
        k,
        global_samples: w.global_samples,
        seed: w.seed,
        threads: 1,
        ..RankPairsConfig::default()
    };

    // ---- Overload scenario ------------------------------------------
    let quiet_n: usize =
        std::env::var("REX_BENCH_QUIET_REQUESTS").ok().and_then(|v| v.parse().ok()).unwrap_or(14);
    let overload_threads: usize =
        std::env::var("REX_BENCH_OVERLOAD_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let attempts: usize =
        std::env::var("REX_BENCH_OVERLOAD_ATTEMPTS").ok().and_then(|v| v.parse().ok()).unwrap_or(6);
    // Every admitted request pays the same scripted service-time floor
    // (a `Delay` at the serve::eval fault site), in the quiet and
    // overload phases alike. This keeps the scenario meaningful at every
    // workload scale: an admitted request holds the pool long enough
    // that concurrent clients genuinely collide with it (so overload
    // reliably sheds), and the quiet-vs-served latency comparison is not
    // dominated by scheduler noise on microsecond-scale workloads.
    let service_floor = Duration::from_millis(
        std::env::var("REX_BENCH_SERVICE_FLOOR_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5),
    );
    let mut plan = FaultPlan::seeded(w.seed);
    for _ in 0..quiet_n + overload_threads * attempts {
        plan = plan.one_shot(site::SERVE_EVAL, FaultAction::Delay(service_floor));
    }
    let state = ServingState::build(&w.kb, &cfg).expect("workload KB has edges");
    // Warm the shared cache (untimed): request latency should measure
    // the serving read path, not first-touch evaluation.
    let snapshot = state.snapshot();
    let _ = snapshot.rank(&tasks, &cfg, &Budget::unlimited());
    let request_rows = snapshot.estimate_request_rows(&tasks);
    let state = state.with_admission_control(request_rows).with_fault_plan(plan);
    let unlimited = Budget::unlimited();
    let mut quiet = Vec::with_capacity(quiet_n);
    for _ in 0..quiet_n {
        let (outcome, d) = time(|| state.try_serve(&tasks, &cfg, &unlimited));
        outcome.expect("serial requests are admitted alone");
        quiet.push(d);
    }

    let barrier = std::sync::Barrier::new(overload_threads);
    let per_thread: Vec<(Vec<Duration>, usize)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..overload_threads)
            .map(|_| {
                let (state, tasks, cfg, unlimited, barrier) =
                    (&state, &tasks, &cfg, &unlimited, &barrier);
                scope.spawn(move |_| {
                    let mut served = Vec::new();
                    let mut shed = 0usize;
                    barrier.wait();
                    for _ in 0..attempts {
                        let t0 = std::time::Instant::now();
                        match state.try_serve(tasks, cfg, unlimited) {
                            Ok(_) => served.push(t0.elapsed()),
                            Err(err) if err.is_retryable() => {
                                shed += 1;
                                // Back off like a client would before retrying.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(err) => panic!("unexpected serving error: {err}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("overload client")).collect()
    })
    .expect("scope");
    let served: Vec<Duration> = per_thread.iter().flat_map(|(s, _)| s.iter().copied()).collect();
    let shed_requests: usize = per_thread.iter().map(|(_, s)| s).sum();

    // ---- Panic-recovery scenario ------------------------------------
    let mut kb = w.kb.clone();
    let plan = FaultPlan::seeded(w.seed).one_shot(site::MAINTAIN_BEFORE_FLIP, FaultAction::Panic);
    let session =
        ServingState::build(&kb, &cfg).expect("workload KB has edges").with_fault_plan(plan);
    // Probe workload: the first pair's explanations, warmed once so
    // reader passes are the hot-path read.
    let (probe_start, probe): (Option<NodeId>, Vec<&rex_core::Explanation>) = match prepared.first()
    {
        Some((s, _, ex)) => (Some(*s), ex.iter().collect()),
        None => (None, Vec::new()),
    };
    {
        let snap = session.snapshot();
        for e in &probe {
            snap.global_position_excluding(e, probe_start);
        }
    }
    let stop = AtomicBool::new(false);
    let torn = AtomicUsize::new(0);
    let passes = AtomicUsize::new(0);
    let by_epoch: std::sync::Mutex<HashMap<u64, Vec<usize>>> =
        std::sync::Mutex::new(HashMap::new());
    crossbeam::thread::scope(|scope| {
        for _ in 0..2 {
            let (session, probe, stop, torn, passes, by_epoch) =
                (&session, &probe, &stop, &torn, &passes, &by_epoch);
            scope.spawn(move |_| {
                while !stop.load(Ordering::Acquire) {
                    let snap = session.snapshot();
                    let read = || -> Vec<usize> {
                        probe
                            .iter()
                            .map(|e| snap.global_position_excluding(e, probe_start))
                            .collect()
                    };
                    let first = read();
                    // A pinned snapshot must answer identically across the
                    // whole maintenance window, flip and panic included.
                    if first != read() {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    // And every read at one epoch must agree, whichever
                    // snapshot (pre-flip, post-recovery) served it.
                    let mut map = by_epoch.lock().expect("epoch map");
                    if let Some(expected) = map.get(&snap.epoch()) {
                        if *expected != first {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        map.insert(snap.epoch(), first);
                    }
                    drop(map);
                    passes.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        let (session, stop) = (&session, &stop);
        let kb = &mut kb;
        scope.spawn(move |_| {
            let mut rng = StdRng::seed_from_u64(w.seed ^ 0xFA17);
            let mut churn = |kb: &mut rex_kb::KnowledgeBase| {
                let victim = EdgeId(rng.gen_range(0..kb.edge_count()) as u32);
                kb.remove_edge(victim).expect("edge ids are dense");
                let template = kb.edge(EdgeId(rng.gen_range(0..kb.edge_count()) as u32));
                let other = NodeId(rng.gen_range(0..kb.node_count()) as u32);
                kb.insert_edge(template.src, other, template.label, template.directed)
                    .expect("template endpoints exist");
            };
            // Let the readers sample the quiet epoch first.
            std::thread::sleep(Duration::from_millis(2));
            // Delta 1 trips the scripted before-flip panic: the target
            // epoch is quarantined and recovered by scratch rebuild.
            churn(kb);
            session.maintain(kb).expect("panic recovery rebuilds and flips");
            std::thread::sleep(Duration::from_millis(2));
            // Delta 2 takes the clean incremental path: maintenance
            // works normally after a recovery.
            churn(kb);
            session.maintain(kb).expect("incremental maintenance resumes");
            std::thread::sleep(Duration::from_millis(2));
            stop.store(true, Ordering::Release);
        });
    })
    .expect("scope");

    RobustnessBench {
        quiet_requests: quiet.len(),
        requests: overload_threads * attempts,
        served: served.len(),
        shed_requests,
        request_rows,
        quiet_p50: percentile(&quiet, 0.50),
        quiet_p99: percentile(&quiet, 0.99),
        served_p50: percentile(&served, 0.50),
        served_p99: percentile(&served, 0.99),
        reader_passes: passes.load(Ordering::Relaxed),
        torn_reads: torn.load(Ordering::Relaxed),
        quarantined_epochs: session.quarantined_epochs(),
        recovery_rebuilds: session.recovery_rebuilds(),
    }
}

/// The durability section: WAL-backed ingestion through the
/// backpressure governor while a reader keeps ranking, plus a
/// torn-tail recovery parity check over the files the run produced.
#[derive(Debug, Clone, Copy)]
pub struct IngestBench {
    /// Delta batches streamed through the governor.
    pub batches: usize,
    /// Edges inserted per batch (each with a fresh anchor node).
    pub batch_size: usize,
    /// Total edges ingested (`batches * batch_size`).
    pub edges_ingested: usize,
    /// Wall time of the ingest path alone — submit/pump/drain, with the
    /// interleaved reader passes excluded.
    pub ingest_wall: Duration,
    /// WAL commits the governor made (one per batch).
    pub wal_commits: usize,
    /// Bytes appended to the WAL across all commits.
    pub wal_bytes: usize,
    /// Epoch flips the pacing policy actually performed.
    pub flips: u64,
    /// Flips the policy deferred (deep queue or reader pressure).
    pub deferred_flips: u64,
    /// Interval checkpoints taken while ingesting.
    pub checkpoints: u64,
    /// Submissions shed with retryable backpressure before landing.
    pub shed_submissions: u64,
    /// The governor's bounded-queue capacity.
    pub queue_capacity: usize,
    /// Peak queue depth observed by the gauge (≤ capacity, always).
    pub queue_peak: usize,
    /// Reader passes interleaved with ingestion.
    pub reader_passes: usize,
    /// Median reader-pass latency with no ingestion in flight, measured
    /// on the final epoch (so KB growth is held equal).
    pub quiet_p50: Duration,
    /// p99 reader-pass latency with no ingestion in flight.
    pub quiet_p99: Duration,
    /// Median reader-pass latency with ingestion in flight.
    pub under_ingest_p50: Duration,
    /// p99 reader-pass latency with ingestion in flight — the acceptance
    /// bar is ≤ 2× the quiet p99 (epoch pinning keeps reads unslowed).
    pub under_ingest_p99: Duration,
    /// Whether recovery over a deliberately torn copy of the run's
    /// checkpoint + WAL reproduced the committed prefix byte-for-byte.
    pub recovered_parity: bool,
    /// Batches the recovery replayed from the torn WAL copy.
    pub recovery_replayed_batches: usize,
    /// Torn-tail bytes recovery truncated (the garbage we appended).
    pub recovery_truncated_bytes: u64,
}

impl IngestBench {
    /// Sustained ingestion rate over the ingest-only wall time.
    pub fn sustained_edges_per_s(&self) -> f64 {
        let s = self.ingest_wall.as_secs_f64();
        if s > 0.0 {
            self.edges_ingested as f64 / s
        } else {
            f64::INFINITY
        }
    }
}

/// Measures the durable-ingestion stack end to end.
///
/// A clone of the workload KB becomes a [`DurableKb`] (checkpoint +
/// WAL, interval fsync) fronted by an [`IngestGovernor`] over a live
/// [`ServingState`]. `REX_BENCH_INGEST_BATCHES` delta batches stream
/// through the governor under `Backpressure::Shed` (a shed submission
/// pumps one batch and retries, like a real producer), with a timed
/// reader pass interleaved every few batches. Only the submit/pump/
/// drain portions count toward the ingest wall, so the sustained
/// edges/s figure is not diluted by reader time. The quiet latency
/// baseline is measured *after* the drain, on the final epoch — the
/// same KB the late ingest-phase passes saw — so the under-ingest vs
/// quiet comparison isolates ingestion overhead from KB growth.
///
/// Afterwards the run's own files are copied aside, garbage bytes are
/// appended to the WAL copy (a torn tail), and [`KnowledgeBase::open`]
/// recovers it; parity holds when the recovered KB is byte-identical to
/// a reference replay of the intact records over the checkpoint.
///
/// [`DurableKb`]: rex_kb::DurableKb
/// [`IngestGovernor`]: rex_core::ranking::IngestGovernor
/// [`KnowledgeBase::open`]: rex_kb::KnowledgeBase::open
pub fn ingest_bench(w: &Workload, pairs_per_group: usize, k: usize) -> IngestBench {
    use rex_core::ranking::{Backpressure, IngestConfig, IngestGovernor, IngestOp};
    use rex_kb::io::encode_binary;
    use rex_kb::wal::{apply_batch, decode_batch, read_checkpoint, WAL_HEADER_LEN};
    use rex_kb::{DurableKb, KnowledgeBase, SyncPolicy};
    use std::sync::Arc;
    use std::time::Instant;

    let batches: usize =
        std::env::var("REX_BENCH_INGEST_BATCHES").ok().and_then(|v| v.parse().ok()).unwrap_or(48);
    let batch_size: usize =
        std::env::var("REX_BENCH_INGEST_BATCH_SIZE").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let quiet_passes: usize = std::env::var("REX_BENCH_INGEST_READER_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

    let dir = std::env::temp_dir().join(format!("rex-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let (ckpt, wal) = (dir.join("checkpoint.rexc"), dir.join("delta.rexw"));

    let anchor = w.kb.node_name(NodeId(0)).to_string();
    let durable = DurableKb::create(w.kb.clone(), &ckpt, &wal, SyncPolicy::Interval(8))
        .expect("bench durable KB");
    let cfg = RankPairsConfig {
        k,
        global_samples: w.global_samples,
        seed: w.seed,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let serving = Arc::new(ServingState::build(durable.kb(), &cfg).expect("workload KB has edges"));

    // Reader workload: the same prepared-explanation pass the concurrent
    // section uses, one timed snapshot-pinned sweep per call.
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let prepared: Vec<(NodeId, Vec<rex_core::Explanation>)> = w
        .truncated(pairs_per_group)
        .into_iter()
        .map(|p| (p.start, enumerator.enumerate(&w.kb, p.start, p.end).explanations))
        .collect();
    let reader_pass = |serving: &ServingState| -> Duration {
        let t0 = Instant::now();
        let snap = serving.snapshot();
        let mut acc = 0usize;
        for (start, explanations) in &prepared {
            for e in explanations {
                acc += snap.global_position_excluding(e, Some(*start));
            }
        }
        std::hint::black_box(acc);
        t0.elapsed()
    };

    // Warm the session once (untimed). The quiet baseline is measured
    // *after* the ingest phase, on the final epoch: ingestion grows the
    // KB, so comparing mid-ingest passes against a pre-ingest baseline
    // would conflate contention with legitimate KB growth (at tiny
    // scale the growth dominates).
    reader_pass(&serving);

    let ingest_cfg = IngestConfig {
        queue_capacity: 8,
        flip_queue_threshold: 2,
        max_epoch_lag: 64,
        // Off the batch count, so the final WAL keeps a replayable tail
        // for the parity check below.
        checkpoint_interval: 10,
    };
    let queue_capacity = ingest_cfg.queue_capacity;
    let mut governor = IngestGovernor::new(durable, Arc::clone(&serving), ingest_cfg);

    metrics::reset_ingest_queue_peak();
    let mut ingest_wall = Duration::ZERO;
    let mut under: Vec<Duration> = Vec::new();
    for b in 0..batches {
        let ops: Vec<IngestOp> = (0..batch_size)
            .flat_map(|i| {
                let name = format!("ingest-{b}-{i}");
                [
                    IngestOp::InsertNode { name: name.clone(), ty: "Ingested".into() },
                    IngestOp::InsertEdge {
                        src: name,
                        dst: anchor.clone(),
                        label: "ingested".into(),
                        directed: true,
                    },
                ]
            })
            .collect();
        let t0 = Instant::now();
        loop {
            match governor.submit(ops.clone(), Backpressure::Shed) {
                Ok(()) => break,
                Err(e) if e.is_retryable() => {
                    governor.pump().expect("bench ingest pump");
                }
                Err(e) => panic!("bench ingest submit: {e}"),
            }
        }
        ingest_wall += t0.elapsed();
        if b % 4 == 3 {
            under.push(reader_pass(governor.serving()));
        }
    }
    let t0 = Instant::now();
    governor.drain().expect("bench ingest drain");
    ingest_wall += t0.elapsed();
    under.push(reader_pass(governor.serving()));

    // Quiet baseline on the final epoch — same KB as the last ingest
    // passes, no ingestion in flight.
    let quiet: Vec<Duration> = (0..quiet_passes).map(|_| reader_pass(governor.serving())).collect();

    let stats = governor.stats();
    let queue_peak = metrics::ingest_queue_peak();
    let mut durable = governor.into_durable();
    durable.sync().expect("bench wal sync");
    drop(durable);

    // --- Torn-tail recovery parity over the run's own files. ---------
    // Reference: replay the intact WAL records over the checkpoint (the
    // recovered KB must match this byte-for-byte, not the live KB —
    // netting may reorder physical ids).
    let data = std::fs::read(&wal).expect("bench wal read");
    let (mut reference, _seq) = read_checkpoint(&ckpt).expect("bench checkpoint read");
    let header = WAL_HEADER_LEN as usize;
    let mut off = header;
    let mut intact_batches = 0usize;
    while off + 8 <= data.len() {
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        if off + 8 + len > data.len() {
            break;
        }
        let batch = decode_batch(data[off + 8..off + 8 + len].to_vec().into())
            .expect("bench wal record decodes");
        apply_batch(&mut reference, &batch).expect("bench wal record applies");
        intact_batches += 1;
        off += 8 + len;
    }
    let crash_dir = dir.join("crash");
    std::fs::create_dir_all(&crash_dir).expect("bench crash dir");
    let (ckpt2, wal2) = (crash_dir.join("checkpoint.rexc"), crash_dir.join("delta.rexw"));
    std::fs::copy(&ckpt, &ckpt2).expect("bench checkpoint copy");
    let mut torn = data.clone();
    torn.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x7F]);
    std::fs::write(&wal2, &torn).expect("bench torn wal");
    let (recovered, report) = KnowledgeBase::open(&ckpt2, &wal2).expect("bench recovery");
    let recovered_parity = report.replayed_batches == intact_batches
        && encode_binary(&recovered).as_slice() == encode_binary(&reference).as_slice();
    let _ = std::fs::remove_dir_all(&dir);

    IngestBench {
        batches,
        batch_size,
        edges_ingested: batches * batch_size,
        ingest_wall,
        wal_commits: stats.committed_batches as usize,
        wal_bytes: stats.wal_bytes as usize,
        flips: stats.flips,
        deferred_flips: stats.deferred_flips,
        checkpoints: stats.checkpoints,
        shed_submissions: stats.shed,
        queue_capacity,
        queue_peak,
        reader_passes: under.len(),
        quiet_p50: percentile(&quiet, 0.50),
        quiet_p99: percentile(&quiet, 0.99),
        under_ingest_p50: percentile(&under, 0.50),
        under_ingest_p99: percentile(&under, 0.99),
        recovered_parity,
        recovery_replayed_batches: report.replayed_batches,
        recovery_truncated_bytes: report.truncated_bytes,
    }
}

/// The machine-readable ranking baseline behind `BENCH_ranking.json`:
/// global-distribution top-k ranking measured with the pre-batching
/// per-start engine versus the batched all-starts engine.
#[derive(Debug, Clone)]
pub struct RankingBench {
    /// The `REX_BENCH_SCALE` preset name the workload was built from.
    pub scale: String,
    /// Pairs ranked (truncated workload).
    pub pairs: usize,
    /// Total explanations ranked across all pairs.
    pub explanations: usize,
    /// Distinct canonical pattern shapes across all pairs (informational:
    /// shapes recurring across pairs are re-batched per pair, since each
    /// pair's context carries its own cache and sample domain, so the
    /// batched engine's evaluation budget is `explanations`, i.e. one per
    /// per-pair shape — see the cross-pair reuse item in ROADMAP.md).
    pub distinct_shapes: usize,
    /// Sampled local distributions estimating the global one.
    pub global_samples: usize,
    /// Ranking depth.
    pub k: usize,
    /// The pre-batching baseline: one bounded evaluation per (pattern,
    /// sampled start).
    pub per_start: RankingBenchSide,
    /// The batched pipeline: one all-starts evaluation per shape, but a
    /// private cache + sample per pair (PR 1's engine).
    pub batched: RankingBenchSide,
    /// The shared-frame workload driver: one frame + cache for all pairs,
    /// cost-ordered and memory-bounded.
    pub shared_frame: SharedFrameSide,
    /// Full vs delta re-rank after a small KB update.
    pub incremental: IncrementalBench,
    /// Reader throughput with vs without an in-flight delta (the
    /// snapshot-serving engine).
    pub concurrent: ConcurrentBench,
    /// Neighbour-list row traffic of the delta patch pass against the
    /// full-partition scan floor (the endpoint-index engine).
    pub endpoint_index: EndpointIndexBench,
    /// Admission-controlled overload + panic-recovery scenarios (the
    /// serving robustness layers).
    pub robustness: RobustnessBench,
    /// WAL-backed ingestion under backpressure with a torn-tail
    /// recovery parity check (the durability layers).
    pub ingest: IngestBench,
}

impl RankingBench {
    /// Wall-time speedup of the batched side (>1 = batched faster).
    pub fn speedup(&self) -> f64 {
        let b = self.batched.wall.as_secs_f64();
        if b > 0.0 {
            self.per_start.wall.as_secs_f64() / b
        } else {
            f64::INFINITY
        }
    }

    /// Wall-time speedup of the shared-frame driver over the per-pair
    /// batched baseline (>1 = shared frame faster).
    pub fn shared_frame_speedup(&self) -> f64 {
        let s = self.shared_frame.wall.as_secs_f64();
        if s > 0.0 {
            self.batched.wall.as_secs_f64() / s
        } else {
            f64::INFINITY
        }
    }

    /// Renders the baseline as the `BENCH_ranking.json` document.
    pub fn to_json(&self) -> String {
        let side = |s: &RankingBenchSide| {
            format!(
                "{{\"wall_ms\": {:.3}, \"full_evals\": {}, \"streaming_evals\": {}}}",
                s.wall.as_secs_f64() * 1e3,
                s.full_evals,
                s.streaming_evals
            )
        };
        let shared = format!(
            concat!(
                "{{\"wall_ms\": {:.3}, \"full_evals\": {}, \"streaming_evals\": {}, ",
                "\"distinct_shapes\": {}, \"tiles\": {}, \"peak_rows\": {}}}"
            ),
            self.shared_frame.wall.as_secs_f64() * 1e3,
            self.shared_frame.full_evals,
            self.shared_frame.streaming_evals,
            self.shared_frame.distinct_shapes,
            self.shared_frame.tiles,
            self.shared_frame.peak_rows,
        );
        let inc = format!(
            concat!(
                "{{\"delta_edges\": {}, \"kb_edges\": {}, ",
                "\"full_rerank_wall_ms\": {:.3}, \"full_rerank_full_evals\": {}, ",
                "\"delta_rerank_wall_ms\": {:.3}, \"delta_rerank_full_evals\": {}, ",
                "\"delta_partial_evals\": {}, \"shapes_patched\": {}, ",
                "\"shapes_untouched\": {}, \"frame_redrawn\": {}}}"
            ),
            self.incremental.delta_edges,
            self.incremental.kb_edges,
            self.incremental.full_wall.as_secs_f64() * 1e3,
            self.incremental.full_evals,
            self.incremental.delta_wall.as_secs_f64() * 1e3,
            self.incremental.delta_full_evals,
            self.incremental.delta_partial_evals,
            self.incremental.shapes_patched,
            self.incremental.shapes_untouched,
            usize::from(self.incremental.frame_redrawn),
        );
        let endpoint = format!(
            concat!(
                "{{\"kb_edges\": {}, \"delta_edges\": {}, \"shapes_touched\": {}, ",
                "\"affected_starts\": {}, \"rows_probed\": {}, ",
                "\"scan_floor_rows\": {}, \"patch_wall_ms\": {:.3}, ",
                "\"index_build_ms\": {:.3}}}"
            ),
            self.endpoint_index.kb_edges,
            self.endpoint_index.delta_edges,
            self.endpoint_index.shapes_touched,
            self.endpoint_index.affected_starts,
            self.endpoint_index.rows_probed,
            self.endpoint_index.scan_floor_rows,
            self.endpoint_index.patch_wall.as_secs_f64() * 1e3,
            self.endpoint_index.index_build_wall.as_secs_f64() * 1e3,
        );
        let conc = format!(
            concat!(
                "{{\"reader_threads\": {}, \"passes_per_reader\": {}, ",
                "\"quiet_wall_ms\": {:.3}, \"contended_wall_ms\": {:.3}, ",
                "\"deltas_applied\": {}, \"quiet_passes_per_s\": {:.3}, ",
                "\"contended_passes_per_s\": {:.3}}}"
            ),
            self.concurrent.reader_threads,
            self.concurrent.passes_per_reader,
            self.concurrent.quiet_wall.as_secs_f64() * 1e3,
            self.concurrent.contended_wall.as_secs_f64() * 1e3,
            self.concurrent.deltas_applied,
            self.concurrent.quiet_passes_per_s(),
            self.concurrent.contended_passes_per_s(),
        );
        let robust = format!(
            concat!(
                "{{\"quiet_requests\": {}, \"requests\": {}, \"served\": {}, ",
                "\"shed_requests\": {}, \"request_rows\": {}, ",
                "\"quiet_p50_ms\": {:.3}, \"quiet_p99_ms\": {:.3}, ",
                "\"served_p50_ms\": {:.3}, \"served_p99_ms\": {:.3}, ",
                "\"reader_passes\": {}, \"torn_reads\": {}, ",
                "\"quarantined_epochs\": {}, \"recovery_rebuilds\": {}}}"
            ),
            self.robustness.quiet_requests,
            self.robustness.requests,
            self.robustness.served,
            self.robustness.shed_requests,
            self.robustness.request_rows,
            self.robustness.quiet_p50.as_secs_f64() * 1e3,
            self.robustness.quiet_p99.as_secs_f64() * 1e3,
            self.robustness.served_p50.as_secs_f64() * 1e3,
            self.robustness.served_p99.as_secs_f64() * 1e3,
            self.robustness.reader_passes,
            self.robustness.torn_reads,
            self.robustness.quarantined_epochs,
            self.robustness.recovery_rebuilds,
        );
        let ingest = format!(
            concat!(
                "{{\"batches\": {}, \"batch_size\": {}, \"edges_ingested\": {}, ",
                "\"ingest_wall_ms\": {:.3}, \"sustained_edges_per_s\": {:.3}, ",
                "\"wal_commits\": {}, \"wal_bytes\": {}, \"flips\": {}, ",
                "\"deferred_flips\": {}, \"checkpoints\": {}, ",
                "\"shed_submissions\": {}, \"queue_capacity\": {}, ",
                "\"queue_peak\": {}, \"reader_passes\": {}, ",
                "\"quiet_p50_ms\": {:.3}, \"quiet_p99_ms\": {:.3}, ",
                "\"under_ingest_p50_ms\": {:.3}, \"under_ingest_p99_ms\": {:.3}, ",
                "\"recovered_parity\": {}, \"recovery_replayed_batches\": {}, ",
                "\"recovery_truncated_bytes\": {}}}"
            ),
            self.ingest.batches,
            self.ingest.batch_size,
            self.ingest.edges_ingested,
            self.ingest.ingest_wall.as_secs_f64() * 1e3,
            self.ingest.sustained_edges_per_s(),
            self.ingest.wal_commits,
            self.ingest.wal_bytes,
            self.ingest.flips,
            self.ingest.deferred_flips,
            self.ingest.checkpoints,
            self.ingest.shed_submissions,
            self.ingest.queue_capacity,
            self.ingest.queue_peak,
            self.ingest.reader_passes,
            self.ingest.quiet_p50.as_secs_f64() * 1e3,
            self.ingest.quiet_p99.as_secs_f64() * 1e3,
            self.ingest.under_ingest_p50.as_secs_f64() * 1e3,
            self.ingest.under_ingest_p99.as_secs_f64() * 1e3,
            usize::from(self.ingest.recovered_parity),
            self.ingest.recovery_replayed_batches,
            self.ingest.recovery_truncated_bytes,
        );
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"global_distribution_ranking\",\n",
                "  \"scale\": \"{}\",\n",
                "  \"pairs\": {},\n",
                "  \"explanations\": {},\n",
                "  \"distinct_shapes\": {},\n",
                "  \"global_samples\": {},\n",
                "  \"k\": {},\n",
                "  \"per_start\": {},\n",
                "  \"batched\": {},\n",
                "  \"shared_frame\": {},\n",
                "  \"incremental\": {},\n",
                "  \"concurrent\": {},\n",
                "  \"endpoint_index\": {},\n",
                "  \"robustness\": {},\n",
                "  \"ingest\": {},\n",
                "  \"speedup\": {:.3},\n",
                "  \"shared_frame_speedup\": {:.3},\n",
                "  \"incremental_speedup\": {:.3}\n",
                "}}\n"
            ),
            self.scale,
            self.pairs,
            self.explanations,
            self.distinct_shapes,
            self.global_samples,
            self.k,
            side(&self.per_start),
            side(&self.batched),
            shared,
            inc,
            conc,
            endpoint,
            robust,
            ingest,
            self.speedup(),
            self.shared_frame_speedup(),
            self.incremental.speedup()
        )
    }
}

/// Measures global-distribution ranking with the per-start baseline and
/// the batched engine over the same prepared explanations. Enumeration
/// and edge-index construction happen outside the timed regions (identical
/// on both sides). Evaluation counts come from values no other thread
/// touches — the traces the per-start calls return and the caches'
/// own counters — except the streaming counts of the batched and
/// shared-frame sides (0 unless the engine regresses), which are
/// process-wide [`metrics::snapshot`] differences: exact when nothing
/// else evaluates, as in the bench binaries.
pub fn ranking_bench(w: &Workload, pairs_per_group: usize, k: usize) -> RankingBench {
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let prepared: Vec<(&rex_datagen::PairSample, Vec<rex_core::Explanation>)> = w
        .truncated(pairs_per_group)
        .into_iter()
        .map(|p| {
            let out = enumerator.enumerate(&w.kb, p.start, p.end);
            (p, out.explanations)
        })
        .collect();
    let contexts: Vec<MeasureContext<'_>> = prepared
        .iter()
        .map(|(p, _)| {
            let ctx = MeasureContext::new(&w.kb, p.start, p.end)
                .with_global_samples(w.global_samples, w.seed);
            let _ = ctx.edge_index(); // warm outside the timed regions
            ctx
        })
        .collect();
    let explanations: usize = prepared.iter().map(|(_, e)| e.len()).sum();
    let distinct_shapes = prepared
        .iter()
        .flat_map(|(_, es)| es.iter().map(|e| e.key().clone()))
        .collect::<HashSet<_>>()
        .len();

    // Pre-batching baseline: positions via one bounded evaluation per
    // (pattern, sampled start). Bypasses the cache by construction.
    let (traffic, wall) = time(|| {
        let mut traffic = EvalTrace::default();
        for ((_, explanations), ctx) in prepared.iter().zip(&contexts) {
            for e in explanations {
                traffic.merge(&global_position_per_start(ctx, e, usize::MAX).1);
            }
        }
        traffic
    });
    let per_start =
        RankingBenchSide { wall, full_evals: traffic.full, streaming_evals: traffic.streaming };

    // Batched pipeline: the production per-pair ranker, each pair with its
    // own private cache (cold at this point — per_start never touches it),
    // so the caches' batched evaluations are exactly this side's.
    let before = metrics::snapshot();
    let (_, wall) = time(|| {
        for ((_, explanations), ctx) in prepared.iter().zip(&contexts) {
            let _ = rank_by_position(explanations, ctx, k, Scope::Global, false);
        }
    });
    let batched = RankingBenchSide {
        wall,
        full_evals: contexts.iter().map(|ctx| ctx.distributions().batched_evals()).sum(),
        streaming_evals: metrics::snapshot().since(&before).streaming,
    };

    // Shared-frame workload driver: one frame + cache for every pair,
    // cost-ordered misses. Frame and index are built outside the timed
    // region (the index is identical to the contexts' warmed ones; the
    // frame is a few hundred draws).
    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(p, explanations)| PairExplanations { start: p.start, end: p.end, explanations })
        .collect();
    let cfg = RankPairsConfig {
        k,
        global_samples: w.global_samples,
        seed: w.seed,
        // One worker: the batched baseline ranks its pairs sequentially,
        // so a single-threaded shared side isolates the cross-pair
        // sharing effect instead of conflating it with core count.
        threads: 1,
        ..RankPairsConfig::default()
    };
    let frame = std::sync::Arc::new(
        SampleFrame::sample(&w.kb, w.global_samples, w.seed).expect("workload KB has edges"),
    );
    let index = rex_relstore::engine::EdgeIndex::build(&w.kb);
    let cache = DistributionCache::new();
    let before = metrics::snapshot();
    let (outcome, wall) = time(|| rank_pairs_with(&tasks, &cfg, &index, &frame, &cache));
    let delta = metrics::snapshot().since(&before);
    let shared_frame = SharedFrameSide {
        wall,
        full_evals: outcome.batched_evals,
        streaming_evals: delta.streaming,
        distinct_shapes: outcome.distinct_shapes,
        tiles: outcome.tiles,
        peak_rows: outcome.peak_rows,
    };

    let incremental = incremental_bench(w, pairs_per_group, k);
    let concurrent = concurrent_bench(w, pairs_per_group);
    let endpoint_index = endpoint_index_bench(w, pairs_per_group);
    let robustness = robustness_bench(w, pairs_per_group, k);
    let ingest = ingest_bench(w, pairs_per_group, k);

    RankingBench {
        scale: std::env::var("REX_BENCH_SCALE").unwrap_or_else(|_| "small".into()),
        pairs: prepared.len(),
        explanations,
        distinct_shapes,
        global_samples: w.global_samples,
        k,
        per_start,
        batched,
        shared_frame,
        incremental,
        concurrent,
        endpoint_index,
        robustness,
        ingest,
    }
}

/// Measures full vs delta re-ranking after a small KB update. A clone of
/// the workload KB is warmed through the shared-frame driver, mutated
/// with a deterministic ≤ 1% edge churn, and the same workload is then
/// re-ranked twice against the *updated* KB: once through
/// [`ServingState::maintain`] (index refreshed from the delta, frame
/// redraw policy, cache delta-maintained) and a fresh snapshot, and once
/// with a cold cache. Pair
/// explanations are re-enumerated against the updated KB for both sides,
/// so the comparison isolates distribution maintenance.
pub fn incremental_bench(w: &Workload, pairs_per_group: usize, k: usize) -> IncrementalBench {
    let mut kb = w.kb.clone();
    let enumerator = GeneralEnumerator::new(w.enum_config.clone());
    let workload_pairs = w.truncated(pairs_per_group);
    let enumerate =
        |kb: &rex_kb::KnowledgeBase| -> Vec<(NodeId, NodeId, Vec<rex_core::Explanation>)> {
            workload_pairs
                .iter()
                .map(|p| (p.start, p.end, enumerator.enumerate(kb, p.start, p.end).explanations))
                .collect()
        };
    let cfg = RankPairsConfig {
        k,
        global_samples: w.global_samples,
        seed: w.seed,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let state = ServingState::build(&kb, &cfg).expect("workload KB has edges");
    let prepared = enumerate(&kb);
    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    // Warm the session (untimed: this is the steady state a live system
    // is already in when updates arrive).
    let _ = state.snapshot().rank(&tasks, &cfg, &Budget::unlimited());

    // Deterministic churn: paired remove + rewired re-insert, so the
    // label distribution stays realistic. Sized like one streaming
    // update transaction — a handful of edges, orders of magnitude under
    // the 1% acceptance bound. The incremental path's value is that most
    // shapes are label-disjoint from a small batch; random edges are
    // frequency-biased (Zipf labels), so every extra churn pair tends to
    // touch another hot label and a batch of hundreds leaves no
    // label locality to exploit.
    let churn = (kb.edge_count() / 40_000).clamp(1, 8);
    let mut rng = StdRng::seed_from_u64(w.seed ^ 0x1C4E);
    for _ in 0..churn {
        let victim = EdgeId(rng.gen_range(0..kb.edge_count()) as u32);
        kb.remove_edge(victim).expect("edge ids are dense");
        let template = kb.edge(EdgeId(rng.gen_range(0..kb.edge_count()) as u32));
        let other = NodeId(rng.gen_range(0..kb.node_count()) as u32);
        kb.insert_edge(template.src, other, template.label, template.directed)
            .expect("template endpoints exist");
    }

    let prepared2 = enumerate(&kb);
    let tasks2: Vec<PairExplanations<'_>> = prepared2
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();

    // Delta re-rank against the warm session (timed end to end:
    // maintenance + flip + re-rank).
    let cache = state.cache();
    let evals_before = cache.batched_evals();
    let partial_before = cache.delta_evals();
    let (updated, delta_wall) = time(|| {
        let maintained =
            state.maintain(&kb).expect("delta applies to the session it was captured from");
        let _ = state.snapshot().rank(&tasks2, &cfg, &Budget::unlimited());
        maintained
    });
    let delta_full_evals = cache.batched_evals() - evals_before;
    let delta_partial_evals = cache.delta_evals() - partial_before;

    // Full re-rank: cold cache over the same flipped index and frame.
    let snap = state.snapshot();
    let cold_cache = DistributionCache::new();
    let (cold, full_wall) =
        time(|| rank_pairs_with(&tasks2, &cfg, snap.index(), snap.frame(), &cold_cache));

    IncrementalBench {
        delta_edges: updated.index_churn,
        kb_edges: kb.edge_count(),
        full_wall,
        full_evals: cold.batched_evals,
        delta_wall,
        delta_full_evals,
        delta_partial_evals,
        shapes_patched: updated.maintenance.patched,
        shapes_untouched: updated.maintenance.untouched,
        frame_redrawn: updated.frame_redrawn,
    }
}

/// Table 1: measure effectiveness (simulated user study) on the paper's
/// five designated pairs over the toy entertainment KB.
pub fn table1(global_samples: usize) -> (Table, StudyOutcome) {
    let kb = rex_kb::toy::entertainment();
    let cfg = StudyConfig { global_samples, ..Default::default() };
    let outcome = run_study(&kb, &paper_pairs(&kb), &cfg);
    let mut table = Table::new(["measure", "P1", "P2", "P3", "P4", "P5", "Avg"]);
    for m in &outcome.measures {
        let mut cells = vec![m.name.to_string()];
        cells.extend(m.per_pair.iter().map(|s| format!("{s:.0}")));
        cells.push(format!("{:.0}", m.average));
        table.row(cells);
    }
    (table, outcome)
}

/// §5.4.2: share of path-shaped patterns among the top user-judged
/// explanations, on the toy KB study plus a synthetic-pair study.
pub fn path_vs_nonpath(w: &Workload, pairs_per_group: usize, global_samples: usize) -> Table {
    let mut table = Table::new(["workload", "paths in top-5", "paths in top-10"]);
    let kb = rex_kb::toy::entertainment();
    let cfg = StudyConfig { global_samples, ..Default::default() };
    let toy = run_study(&kb, &paper_pairs(&kb), &cfg);
    table.row([
        "toy P1–P5".to_string(),
        format!("{:.0}%", toy.path_fraction_top5 * 100.0),
        format!("{:.0}%", toy.path_fraction_top10 * 100.0),
    ]);
    let pairs: Vec<_> = w.truncated(pairs_per_group).iter().map(|p| (p.start, p.end)).collect();
    let cfg =
        StudyConfig { global_samples, enum_config: w.enum_config.clone(), ..Default::default() };
    let synth = run_study(&w.kb, &pairs, &cfg);
    table.row([
        format!("synthetic ({} pairs)", pairs.len()),
        format!("{:.0}%", synth.path_fraction_top5 * 100.0),
        format!("{:.0}%", synth.path_fraction_top10 * 100.0),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::EnumConfig;
    use rex_datagen::{generate, sample_pairs, GeneratorConfig};

    /// A miniature workload constructed directly (no env-var races with
    /// other tests).
    fn tiny_workload() -> Workload {
        let kb = generate(&GeneratorConfig::tiny(2011));
        let pairs = sample_pairs(&kb, 1, 4, 2011);
        assert!(!pairs.is_empty());
        Workload {
            kb,
            pairs,
            enum_config: EnumConfig::default().with_instance_cap(500),
            seed: 2011,
            global_samples: 5,
        }
    }

    /// The batched side stays within its evaluation budget (one full
    /// evaluation per distinct shape) and the emitted JSON is complete.
    #[test]
    fn ranking_bench_counts_and_json() {
        let w = tiny_workload();
        let b = ranking_bench(&w, 1, 5);
        assert!(b.pairs > 0);
        assert!(b.explanations > 0);
        // The baseline evaluates per (pattern, start); the batched side at
        // most once per per-pair shape — and per-pair shapes are exactly
        // the explanations, since enumeration dedups by canonical key.
        // (The strict per-context "one eval per distinct shape" bound is
        // asserted in tests/tests/batched_distribution.rs.)
        assert!(
            b.batched.full_evals <= b.explanations,
            "batched {} evals > {} explanations",
            b.batched.full_evals,
            b.explanations
        );
        assert!(b.distinct_shapes <= b.explanations);
        // (The batched side's streaming count is a process-wide
        // difference, which other tests here move concurrently;
        // check_bench_schema compares the full totals on the bench
        // binary's output, where it is exact.)
        assert!(
            b.per_start.full_evals + b.per_start.streaming_evals >= b.batched.full_evals,
            "baseline did less work than the batched engine"
        );
        // The shared-frame driver's budget is the workload's distinct
        // shapes — never more than the per-pair batched side's budget.
        assert_eq!(b.shared_frame.distinct_shapes, b.distinct_shapes);
        assert!(
            b.shared_frame.full_evals <= b.distinct_shapes,
            "shared frame {} evals > {} distinct shapes",
            b.shared_frame.full_evals,
            b.distinct_shapes
        );
        assert!(b.shared_frame.full_evals <= b.batched.full_evals);
        assert_eq!(b.shared_frame.tiles, b.shared_frame.full_evals, "one walk per batch");
        // Incremental side: the delta re-rank must beat the cold re-rank
        // on full evaluations — the acceptance bar of the incremental
        // engine — and the delta must stay within its 1% budget.
        let inc = &b.incremental;
        assert!(inc.delta_edges >= 1);
        assert!(inc.delta_edges * 100 <= inc.kb_edges.max(100), "≤ 1% churn");
        assert!(
            inc.delta_full_evals < inc.full_evals,
            "delta re-rank must issue strictly fewer full evaluations \
             ({} vs {})",
            inc.delta_full_evals,
            inc.full_evals
        );
        assert_eq!(
            inc.shapes_patched > 0,
            inc.delta_partial_evals > 0,
            "patched shapes and partial evals travel together"
        );
        // Endpoint-index side: the patch pass had work, and its probe
        // traffic stayed strictly below the full-partition scan floor —
        // the row-level version of the scan-floor acceptance bar.
        let ep = &b.endpoint_index;
        assert!(ep.shapes_touched >= 1, "the biased delta must touch a shape");
        assert!(ep.affected_starts >= 1);
        assert!(ep.scan_floor_rows > 0);
        assert!(
            ep.rows_probed < ep.scan_floor_rows,
            "probed {} rows, old scan floor {}",
            ep.rows_probed,
            ep.scan_floor_rows
        );
        // Concurrent side: readers made progress in both phases and the
        // writer applied at least one delta while they read.
        let conc = &b.concurrent;
        assert!(conc.reader_threads >= 1);
        assert!(conc.total_passes() >= conc.reader_threads);
        assert!(conc.deltas_applied >= 1, "contended phase must apply a delta");
        assert!(conc.quiet_passes_per_s() > 0.0);
        assert!(conc.contended_passes_per_s() > 0.0);
        // Robustness side: the scripted before-flip panic is
        // deterministic — exactly one epoch quarantined, one recovery
        // rebuild — and no reader may ever observe a torn epoch. Shed
        // counts are NOT asserted here: at tiny scale requests finish in
        // microseconds, so the overload threads may never collide (the
        // committed bench-scale document is gated on shed_requests ≥ 1
        // by check_bench_schema instead).
        let rb = &b.robustness;
        assert!(rb.quiet_requests >= 1);
        assert!(rb.served >= 1, "at least one overload request must be served");
        assert!(rb.served + rb.shed_requests == rb.requests, "every attempt served or shed");
        assert_eq!(rb.torn_reads, 0, "readers observed a torn epoch");
        assert!(rb.reader_passes >= 1);
        assert_eq!(rb.quarantined_epochs, 1, "the scripted panic quarantines one epoch");
        assert_eq!(rb.recovery_rebuilds, 1, "one scratch rebuild recovers it");
        assert!(rb.request_rows >= 1);
        let json = b.to_json();
        for key in [
            "\"benchmark\"",
            "\"per_start\"",
            "\"batched\"",
            "\"shared_frame\"",
            "\"incremental\"",
            "\"wall_ms\"",
            "\"full_evals\"",
            "\"distinct_shapes\"",
            "\"tiles\"",
            "\"peak_rows\"",
            "\"delta_edges\"",
            "\"delta_rerank_full_evals\"",
            "\"shapes_patched\"",
            "\"concurrent\"",
            "\"reader_threads\"",
            "\"contended_passes_per_s\"",
            "\"deltas_applied\"",
            "\"endpoint_index\"",
            "\"rows_probed\"",
            "\"scan_floor_rows\"",
            "\"index_build_ms\"",
            "\"robustness\"",
            "\"shed_requests\"",
            "\"quiet_p99_ms\"",
            "\"served_p99_ms\"",
            "\"torn_reads\"",
            "\"quarantined_epochs\"",
            "\"recovery_rebuilds\"",
            "\"speedup\"",
            "\"shared_frame_speedup\"",
            "\"incremental_speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn all_experiments_render_tables() {
        let w = tiny_workload();
        let f7 = fig7(&w, 200).render();
        assert!(f7.contains("NaiveEnum") && f7.contains("PathUnionPrune"));
        let f8 = fig8(&w).render();
        assert!(f8.contains("instances"));
        let f9 = fig9(&w, 5).render();
        assert!(f9.contains("speedup"));
        let f10 = fig10(&w, &[1, 5]).render();
        assert!(f10.contains("k=1") && f10.contains("k=5"));
        let f11 = fig11(&w, 1, 5).render();
        assert!(f11.contains("global + pruning"));
        let (t1, outcome) = table1(5);
        assert!(t1.render().contains("local-dist"));
        assert_eq!(outcome.measures.len(), 8);
        let pnp = path_vs_nonpath(&w, 1, 5).render();
        assert!(pnp.contains("paths in top-5"));
    }
}
