//! The two workloads, their set-up, and their answer checks.
//!
//! Every workload is a closed loop: the caller of `ServingState` waits
//! for each reply before sending the next request. Open loops were
//! rejected because their tail latencies did not repeat on a 2-core
//! machine.
//!
//! **Inputs.** The knowledge base is the `rex_datagen` KB generated from
//! [`DATASET_SEED`], written to a TSV file and loaded through
//! `rex_kb::io::read_tsv`, the reader the CLI uses. The entity pairs
//! come from `rex_datagen::sample_pairs` on the same KB. Both are fixed:
//! generated KBs and pair samples differ so much from seed to seed
//! (cold p50 40–84 ms over six KB seeds) that no regression bound could
//! hold across them. The ingest op stream is fixed for the same reason:
//! a run applies only a few dozen batches, and their labels decide what
//! maintenance costs. `--seed` drives the order of the ingest reader's
//! Zipf traffic.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::DistributionCache;
use rex_core::ranking::{
    rank_pairs_with, Backpressure, IngestConfig, IngestGovernor, IngestOp, IngestStats,
    PairExplanations, RankPairsConfig, RankPairsOutcome, ServingState,
};
use rex_core::{EnumConfig, Explanation};
use rex_datagen::{generate, sample_pairs, GeneratorConfig};
use rex_kb::{DurableKb, EdgeId, KnowledgeBase, NodeId, SyncPolicy};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{ShardSpec, ShardedEdgeIndex};
use rex_relstore::metrics::{self, EvalCounts};

use crate::stats::{Rng, ZipfBlocks};
use crate::trace::{self, Recorder, Span};

/// Seed of the generated KB and of the pair samples (see module docs).
pub const DATASET_SEED: u64 = 2011;
/// Set-up runs per benchmark run; `setup_s` is their median. A set-up
/// takes about a quarter of a second, so seven cost little; with three
/// the median moved by two fifths between runs.
const SETUP_REPS: u64 = 7;
/// Nominal length of one cold pass, in seconds: a run makes one pass
/// per this much of `seconds`. 100 cold pairs take 12–23 s on a 2-core
/// Xeon, so the default 35 s makes two passes.
const COLD_PASS_S: f64 = 20.0;
/// Each ingest batch is this many (remove, insert) edge pairs.
const PAIRS_PER_BATCH: usize = 4;
/// Edge operations per ingest batch.
pub const EDGES_PER_BATCH: usize = 2 * PAIRS_PER_BATCH;
/// Nominal time the ingest writer takes per batch, in seconds: a run
/// applies one batch per this much of `seconds`. At 35 s that is 35
/// batches, more than the default checkpoint interval of 32, so every
/// default-length run takes a checkpoint.
const INGEST_BATCH_S: f64 = 1.0;
/// The writer applies at least this many batches, however short the run.
const MIN_BATCHES: usize = 4;
/// Parent of every run's scratch directory, relative to the working
/// directory so a run writes only inside its checkout.
pub const SCRATCH: &str = ".rexbench-tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdExplain,
    IngestServe,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ColdExplain, Workload::IngestServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExplain => "cold_explain",
            Workload::IngestServe => "ingest_serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::BENCH`] is what the command line runs;
/// [`Scale::TINY`] keeps the smoke test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub kb: fn(u64) -> GeneratorConfig,
    /// `sample_pairs` per-group count for the cold pool.
    pub cold_per_group: usize,
    /// Cold pairs kept (the first of the sample).
    pub cold_pairs: usize,
    /// `sample_pairs` per-group count for the popular pairs.
    pub popular_per_group: usize,
    /// Requests per block of Zipf traffic (see [`ZipfBlocks`]).
    pub zipf_block: usize,
    /// Requests a run makes at least, so p90 has 10 samples beyond it.
    pub min_requests: usize,
}

impl Scale {
    pub const BENCH: Scale = Scale {
        kb: GeneratorConfig::bench,
        cold_per_group: 34,
        cold_pairs: 100,
        popular_per_group: 7,
        zipf_block: 100,
        min_requests: 100,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        kb: GeneratorConfig::tiny,
        cold_per_group: 1,
        cold_pairs: 3,
        popular_per_group: 1,
        zipf_block: 3,
        min_requests: 3,
    };
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// How long the measured region runs (see each workload).
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the KB file and the WAL; removed afterwards.
    pub work_dir: PathBuf,
}

/// Counter deltas over the measured region, read from public getters.
/// Relstore counters are process-global, so on `ingest_serve` they mix
/// the reader's and the writer's evaluations.
#[derive(Debug, Clone, Copy)]
pub struct RegionCounts {
    pub evals: EvalCounts,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub cache_batched_evals: usize,
    pub cache_entries: usize,
    pub ingest: IngestStats,
    pub queue_peak: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct WriterOutput {
    /// From the first submit to the end of the final drain.
    pub wall_s: f64,
    pub batches: usize,
}

/// A stretch of the measured region holding one request mix.
#[derive(Debug, Clone)]
pub struct Window {
    /// Indices into [`RunOutput::latencies_ms`].
    pub requests: std::ops::Range<usize>,
    pub wall_s: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Latency of every completed client request, in ms.
    pub latencies_ms: Vec<f64>,
    /// The pair each request of [`RunOutput::latencies_ms`] asked about,
    /// as an index into the workload's pairs.
    pub pairs: Vec<usize>,
    /// Windows of one request mix each: a cold pass, or a block of Zipf
    /// traffic.
    pub windows: Vec<Window>,
    /// Wall time of the client loop.
    pub client_wall_s: f64,
    /// Wall time of each set-up run.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Answer-check failures; empty when every answer matched.
    pub mismatches: Vec<String>,
    /// Live heap at the end of the measured region, in MB.
    pub heap_mb: f64,
    /// `VmHWM` of the process when the measured region ends, in MB.
    pub peak_rss_mb: f64,
    pub region: RegionCounts,
    pub writer: Option<WriterOutput>,
    /// All spans of all threads; empty when tracing is off.
    pub spans: Vec<Span>,
    /// Measured cost of recording one span (0 when tracing is off).
    pub span_cost_s: f64,
}

/// A ranking as `(explanation index, score bits)`, compared bytewise.
type Ranking = Vec<(usize, u64)>;

fn ranking_of(outcome: &RankPairsOutcome, pair: usize) -> Ranking {
    outcome.rankings[pair].iter().map(|r| (r.index, r.score.to_bits())).collect()
}

fn enumerator() -> GeneralEnumerator {
    GeneralEnumerator::new(EnumConfig::default().with_instance_cap(5_000))
}

/// Runs one workload end to end.
pub fn run(p: &Params) -> Result<RunOutput, String> {
    let work = WorkDir::create(&p.work_dir)?;
    let generated = generate(&(p.scale.kb)(DATASET_SEED));
    let tsv = work.0.join("kb.tsv");
    write_tsv(&generated, &tsv)?;
    match p.workload {
        Workload::ColdExplain => {
            let names = pair_names(&generated, p.scale.cold_per_group, p.scale.cold_pairs);
            drop(generated);
            cold_explain(p, &tsv, &names)
        }
        Workload::IngestServe => {
            let names = pair_names(&generated, p.scale.popular_per_group, usize::MAX);
            let count = ((p.seconds / INGEST_BATCH_S).round() as usize).max(MIN_BATCHES);
            let batches = op_stream(&generated, DATASET_SEED, count);
            drop(generated);
            ingest_serve(p, &work.0, &tsv, &names, batches)
        }
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: &Path) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path.to_path_buf()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn write_tsv(kb: &KnowledgeBase, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    rex_kb::io::write_tsv(kb, &mut out).map_err(|e| format!("write KB TSV: {e}"))?;
    out.flush().map_err(|e| format!("write KB TSV: {e}"))
}

/// The first `keep` pairs of `sample_pairs(kb, per_group, 4, DATASET_SEED)`,
/// by entity name so they resolve in the KB loaded from TSV.
fn pair_names(kb: &KnowledgeBase, per_group: usize, keep: usize) -> Vec<(String, String)> {
    sample_pairs(kb, per_group, 4, DATASET_SEED)
        .into_iter()
        .take(keep)
        .map(|p| (kb.node_name(p.start).to_string(), kb.node_name(p.end).to_string()))
        .collect()
}

fn resolve(
    kb: &KnowledgeBase,
    names: &[(String, String)],
) -> Result<Vec<(NodeId, NodeId)>, String> {
    let node = |n: &str| kb.node_by_name(n).ok_or_else(|| format!("pair entity {n:?} not in KB"));
    names.iter().map(|(s, e)| Ok((node(s)?, node(e)?))).collect()
}

/// The ingest op stream, drawn from the initial KB: each batch removes
/// [`PAIRS_PER_BATCH`] distinct existing edges and inserts as many edges
/// between random distinct nodes, each with the label and direction of a
/// random existing edge. No op can fail: removals name distinct original
/// edges and inserts only add.
pub fn op_stream(kb: &KnowledgeBase, seed: u64, batches: usize) -> Vec<Vec<IngestOp>> {
    let (edges, nodes) = (kb.edge_count(), kb.node_count());
    assert!(batches * PAIRS_PER_BATCH <= edges / 2, "op stream would exhaust the KB's edges");
    let mut rng = Rng::new(seed);
    let mut removed: HashSet<usize> = HashSet::new();
    let name = |n: NodeId| kb.node_name(n).to_string();
    (0..batches)
        .map(|_| {
            let mut ops = Vec::with_capacity(EDGES_PER_BATCH);
            for _ in 0..PAIRS_PER_BATCH {
                let victim = loop {
                    let e = rng.below(edges);
                    if removed.insert(e) {
                        break kb.edge(EdgeId(e as u32));
                    }
                };
                ops.push(IngestOp::RemoveEdge {
                    src: name(victim.src),
                    dst: name(victim.dst),
                    label: kb.label_name(victim.label).to_string(),
                    directed: victim.directed,
                });
                let model = kb.edge(EdgeId(rng.below(edges) as u32));
                let src = rng.below(nodes);
                let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
                ops.push(IngestOp::InsertEdge {
                    src: name(NodeId(src as u32)),
                    dst: name(NodeId(dst as u32)),
                    label: kb.label_name(model.label).to_string(),
                    directed: model.directed,
                });
            }
            ops
        })
        .collect()
}

fn load(tsv: &Path, rec: &mut Recorder, rep: u64) -> Result<KnowledgeBase, String> {
    let open = rec.open("kb.read_tsv", rep);
    let file = File::open(tsv).map_err(|e| format!("open {}: {e}", tsv.display()));
    let kb = file.and_then(|f| {
        rex_kb::io::read_tsv(BufReader::new(f)).map_err(|e| format!("read KB TSV: {e}"))
    });
    rec.close(open, Vec::new);
    kb
}

fn build(
    kb: &KnowledgeBase,
    cfg: &RankPairsConfig,
    rec: &mut Recorder,
    rep: u64,
) -> Result<ServingState, String> {
    let open = rec.open("serve.build", rep);
    let state = ServingState::build(kb, cfg).map_err(|e| format!("ServingState::build: {e}"));
    rec.close(open, Vec::new);
    state
}

fn enumerate(
    kb: &KnowledgeBase,
    (start, end): (NodeId, NodeId),
    rec: &mut Recorder,
    req: u64,
) -> Vec<Explanation> {
    let open = rec.open("enumerate", req);
    let out = enumerator().enumerate(kb, start, end);
    rec.close(open, || {
        vec![
            ("explanations", out.stats.explanations as u64),
            ("path_patterns", out.stats.path_patterns as u64),
            ("merge_calls", out.stats.merge_calls as u64),
        ]
    });
    out.explanations
}

fn serve(
    state: &ServingState,
    cfg: &RankPairsConfig,
    (start, end): (NodeId, NodeId),
    explanations: &[Explanation],
    rec: &mut Recorder,
    req: u64,
) -> Result<Ranking, String> {
    let task = [PairExplanations { start, end, explanations }];
    let open = rec.open("serve.try_serve", req);
    let result = state.try_serve(&task, cfg, &Budget::unlimited());
    rec.close(open, || match &result {
        Ok(o) => vec![
            ("batched_evals", o.batched_evals as u64),
            ("distinct_shapes", o.distinct_shapes as u64),
            ("tiles", o.tiles as u64),
            ("peak_rows", o.peak_rows as u64),
            ("est_peak_rows", o.est_peak_rows as u64),
            ("overflow_tiles", o.overflow_tiles as u64),
        ],
        Err(_) => Vec::new(),
    });
    let outcome = result.map_err(|e| format!("try_serve: {e}"))?;
    if !outcome.shed.is_empty() {
        return Err(format!("try_serve shed the pair: {:?}", outcome.shed));
    }
    Ok(ranking_of(&outcome, 0))
}

/// One explain request: enumerate the pair, then rank its explanations.
fn explain(
    kb: &KnowledgeBase,
    state: &ServingState,
    cfg: &RankPairsConfig,
    pair: (NodeId, NodeId),
    rec: &mut Recorder,
    req: u64,
) -> Result<(Vec<Explanation>, Ranking), String> {
    let open = rec.open("request", req);
    let explanations = enumerate(kb, pair, rec, req);
    let ranking = serve(state, cfg, pair, &explanations, rec, req);
    rec.close(open, Vec::new);
    Ok((explanations, ranking?))
}

/// Client-side tallies of the measured region.
#[derive(Default)]
struct Client {
    latencies_ms: Vec<f64>,
    pairs: Vec<usize>,
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
}

impl Client {
    /// Closes a window opened at `started` when `before` requests had
    /// completed.
    fn close_window(&mut self, started: Instant, before: usize) {
        let requests = before..self.latencies_ms.len();
        self.windows.push(Window { requests, wall_s: started.elapsed().as_secs_f64() });
    }

    fn record<T>(&mut self, started: Instant, pair: usize, result: Result<T, String>) -> Option<T> {
        let elapsed = started.elapsed();
        self.attempted += 1;
        match result {
            Ok(v) => {
                self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                self.pairs.push(pair);
                Some(v)
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Cache counters of one session, accumulated across sessions.
#[derive(Default, Clone, Copy)]
struct CacheTally {
    hits: usize,
    misses: usize,
    batched_evals: usize,
}

impl CacheTally {
    fn read(state: &ServingState) -> CacheTally {
        let (hits, misses) = state.cache().stats();
        CacheTally { hits, misses, batched_evals: state.cache().batched_evals() }
    }

    fn add_since(&mut self, state: &ServingState, base: CacheTally) {
        let now = CacheTally::read(state);
        self.hits += now.hits - base.hits;
        self.misses += now.misses - base.misses;
        self.batched_evals += now.batched_evals - base.batched_evals;
    }
}

fn region_counts(
    evals0: EvalCounts,
    cache: CacheTally,
    state: &ServingState,
    ingest: IngestStats,
) -> RegionCounts {
    RegionCounts {
        evals: metrics::snapshot().since(&evals0),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_batched_evals: cache.batched_evals,
        cache_entries: state.cache().len(),
        ingest,
        queue_peak: metrics::ingest_queue_peak(),
    }
}

/// `(live heap, VmHWM)` of this process, in MB.
fn memory_mb() -> Result<(f64, f64), String> {
    let heap_mb = crate::alloc::live_bytes() as f64 / (1 << 20) as f64;
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let peak_rss_mb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok((heap_mb, peak_rss_mb))
}

fn span_cost(p: &Params) -> f64 {
    if p.trace {
        trace::span_cost_s(6)
    } else {
        0.0
    }
}

/// **cold_explain**: the paper's §5 workload. Each request is a pair the
/// session has not seen: enumerate, then `try_serve`. A pass sends every
/// pair of the pool once, in sample order, on a session whose cache
/// starts empty, so every pass does the same work. A run makes one pass
/// per [`COLD_PASS_S`] of `seconds` (at least one, and enough for
/// `min_requests`), a count that does not depend on how fast the machine
/// runs. The order is fixed because later pairs hit shapes earlier pairs
/// cached: a seeded order moved cold p90 by a third between seeds, so
/// this workload does not depend on `--seed`.
fn cold_explain(p: &Params, tsv: &Path, names: &[(String, String)]) -> Result<RunOutput, String> {
    let cfg = RankPairsConfig::default();
    let mut rec = Recorder::new(p.trace, Instant::now(), 0);
    let mut setup_s = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS {
        drop(session.take());
        let started = Instant::now();
        let open = rec.open("setup", rep);
        let kb = load(tsv, &mut rec, rep)?;
        let state = build(&kb, &cfg, &mut rec, rep)?;
        rec.close(open, Vec::new);
        setup_s.push(started.elapsed().as_secs_f64());
        session = Some((kb, state));
    }
    let (kb, mut state) = session.expect("at least one set-up run");
    let pairs = resolve(&kb, names)?;

    rec.set_measured(true);
    let mut client = Client::default();
    // Every pass must answer each pair as the first did; every 10th pair
    // is also checked against a fresh session below.
    let mut first: Vec<Option<Ranking>> = vec![None; pairs.len()];
    let mut checks: Vec<(usize, Vec<Explanation>, Ranking)> = Vec::new();
    let mut mismatches = Vec::new();
    let evals0 = metrics::snapshot();
    let mut cache = CacheTally::default();
    let mut wall = Duration::ZERO;
    let mut req = 0u64;
    let passes = ((p.seconds / COLD_PASS_S).round() as usize)
        .max(1)
        .max(p.scale.min_requests.div_ceil(pairs.len().max(1)));
    for pass in 0..passes {
        if pass > 0 {
            // Each pass starts from an empty cache.
            state =
                ServingState::build(&kb, &cfg).map_err(|e| format!("ServingState::build: {e}"))?;
        }
        let base = CacheTally::read(&state);
        let pass_started = Instant::now();
        let before = client.latencies_ms.len();
        for (i, &pair) in pairs.iter().enumerate() {
            let started = Instant::now();
            let result = explain(&kb, &state, &cfg, pair, &mut rec, req);
            if let Some((explanations, ranking)) = client.record(started, i, result) {
                if pass == 0 && i.is_multiple_of(10) {
                    checks.push((i, explanations, ranking.clone()));
                }
                match &first[i] {
                    None => first[i] = Some(ranking),
                    Some(earlier) if *earlier != ranking && mismatches.len() < 5 => mismatches
                        .push(format!("cold pair {i}: pass {pass} {ranking:?} != {earlier:?}")),
                    Some(_) => {}
                }
            }
            req += 1;
        }
        wall += pass_started.elapsed();
        client.close_window(pass_started, before);
        cache.add_since(&state, base);
    }
    let region = region_counts(evals0, cache, &state, IngestStats::default());
    let (heap_mb, peak_rss_mb) = memory_mb()?;

    // Sharing the cache across pairs must be exact: every 10th pair's
    // answer equals the same pair served alone on a fresh session.
    for (i, explanations, ranking) in &checks {
        let fresh =
            ServingState::build(&kb, &cfg).map_err(|e| format!("ServingState::build: {e}"))?;
        let alone = serve(
            &fresh,
            &cfg,
            pairs[*i],
            explanations,
            &mut Recorder::new(false, Instant::now(), 0),
            0,
        )?;
        if &alone != ranking {
            mismatches.push(format!(
                "cold pair {i}: shared-cache ranking {ranking:?} != fresh {alone:?}"
            ));
        }
    }

    Ok(RunOutput {
        latencies_ms: client.latencies_ms,
        pairs: client.pairs,
        windows: client.windows,
        client_wall_s: wall.as_secs_f64(),
        setup_s,
        attempted: client.attempted,
        failed: client.failed,
        mismatches,
        heap_mb,
        peak_rss_mb,
        region,
        writer: None,
        span_cost_s: span_cost(p),
        spans: rec.into_spans(),
    })
}

/// Serves every popular pair once, in rank order, returning each pair's
/// explanations: the warm-up that leaves the cache holding every shape.
fn warm_up(
    kb: &KnowledgeBase,
    state: &ServingState,
    cfg: &RankPairsConfig,
    pairs: &[(NodeId, NodeId)],
    rec: &mut Recorder,
) -> Result<Vec<Vec<Explanation>>, String> {
    let open = rec.open("warmup", 0);
    let warmed = pairs
        .iter()
        .enumerate()
        .map(|(i, &pair)| explain(kb, state, cfg, pair, rec, i as u64).map(|(e, _)| e))
        .collect();
    rec.close(open, Vec::new);
    warmed
}

/// Sets the flag when dropped, so the reader stops even if the writer
/// fails.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct WriterRun {
    governor: IngestGovernor,
    out: WriterOutput,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// The ingest writer: submits every batch through the governor, pumping
/// after each, then drains.
fn write_batches(
    mut governor: IngestGovernor,
    batches: Vec<Vec<IngestOp>>,
    mut rec: Recorder,
    done: &AtomicBool,
) -> WriterRun {
    let _done = SetOnDrop(done);
    let started = Instant::now();
    let (mut batches_done, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    for (b, ops) in batches.into_iter().enumerate() {
        let b = b as u64;
        attempted += 1;
        let open = rec.open("ingest.batch", b);
        let submit = rec.open("ingest.submit", b);
        let submitted = governor.submit(ops, Backpressure::Block);
        rec.close(submit, Vec::new);
        let result = submitted.and_then(|()| {
            let before = governor.stats();
            let pump = rec.open("ingest.pump", b);
            let pumped = governor.pump();
            let after = governor.stats();
            rec.close(pump, || {
                vec![
                    ("flips", after.flips - before.flips),
                    ("checkpoints", after.checkpoints - before.checkpoints),
                    ("wal_commits", after.committed_batches - before.committed_batches),
                ]
            });
            pumped
        });
        rec.close(open, Vec::new);
        match result {
            Ok(_) => batches_done += 1,
            Err(e) => {
                eprintln!("ingest batch {b} failed: {e}");
                failed += 1;
            }
        }
    }
    let open = rec.open("ingest.drain", batches_done as u64);
    let drained = governor.drain();
    rec.close(open, Vec::new);
    attempted += 1;
    if let Err(e) = drained {
        eprintln!("ingest drain failed: {e}");
        failed += 1;
    }
    WriterRun {
        governor,
        out: WriterOutput { wall_s: started.elapsed().as_secs_f64(), batches: batches_done },
        attempted,
        failed,
        spans: rec.into_spans(),
    }
}

/// **ingest_serve**: writes beside reads. A writer thread streams one
/// pre-generated batch per [`INGEST_BATCH_S`] of `seconds` through an
/// `IngestGovernor` (default `IngestConfig`, `Backpressure::Block`,
/// `SyncPolicy::Interval(8)`, WAL in the scratch directory, `pump()`
/// after each submit), then drains. The batch count does not depend on
/// how fast the machine runs: with a time limit instead, a faster writer
/// flipped more often and so slowed the reader. A reader thread calls
/// `try_serve` on popular pairs in blocks of `zipf_block` requests that
/// hold the pairs in Zipf(s = 1) proportion, in a seeded order, with
/// the explanations enumerated by a warm-up that also fills the cache,
/// until the writer has drained (finishing its last block). Every pump
/// flips the serving epoch, so reads caught by a flip re-evaluate. The
/// reader does not enumerate: the governor owns the KB being mutated.
fn ingest_serve(
    p: &Params,
    work: &Path,
    tsv: &Path,
    names: &[(String, String)],
    batches: Vec<Vec<IngestOp>>,
) -> Result<RunOutput, String> {
    let cfg = RankPairsConfig { threads: 1, ..RankPairsConfig::default() };
    let (ckpt, wal) = (work.join("checkpoint.rexc"), work.join("delta.rexw"));
    let epoch = Instant::now();
    let mut rec = Recorder::new(p.trace, epoch, 0);
    let mut setup_s = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS {
        drop(session.take());
        let started = Instant::now();
        let open = rec.open("setup", rep);
        let kb = load(tsv, &mut rec, rep)?;
        let state = Arc::new(build(&kb, &cfg, &mut rec, rep)?);
        let create = rec.open("kb.durable_create", rep);
        let durable = DurableKb::create(kb, &ckpt, &wal, SyncPolicy::Interval(8))
            .map_err(|e| format!("DurableKb::create: {e}"));
        rec.close(create, Vec::new);
        let durable = durable?;
        rec.close(open, Vec::new);
        setup_s.push(started.elapsed().as_secs_f64());
        session = Some((durable, state));
    }
    let (durable, state) = session.expect("at least one set-up run");
    let pairs = resolve(durable.kb(), names)?;
    let warmed = warm_up(durable.kb(), &state, &cfg, &pairs, &mut rec)?;
    let pairs: Vec<((NodeId, NodeId), Vec<Explanation>)> = pairs.into_iter().zip(warmed).collect();

    rec.set_measured(true);
    let mut writer_rec = Recorder::new(p.trace, epoch, 1);
    writer_rec.set_measured(true);
    let governor = IngestGovernor::new(durable, Arc::clone(&state), IngestConfig::default());
    let zipf = ZipfBlocks::new(pairs.len(), p.scale.zipf_block);
    let mut rng = Rng::new(p.seed);
    let mut client = Client::default();
    metrics::reset_ingest_queue_peak();
    let evals0 = metrics::snapshot();
    let base = CacheTally::read(&state);
    let done = AtomicBool::new(false);
    let (writer, wall) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_batches(governor, batches, writer_rec, &done));
        let started_all = Instant::now();
        let mut req = 0u64;
        while !done.load(Ordering::SeqCst) || client.latencies_ms.len() < p.scale.min_requests {
            let (block_started, before) = (Instant::now(), client.latencies_ms.len());
            for r in zipf.block(&mut rng) {
                let (pair, explanations) = &pairs[r];
                let started = Instant::now();
                let open = rec.open("request", req);
                let result = serve(&state, &cfg, *pair, explanations, &mut rec, req);
                rec.close(open, Vec::new);
                client.record(started, r, result);
                req += 1;
            }
            client.close_window(block_started, before);
        }
        (writer.join(), started_all.elapsed())
    });
    let writer = writer.map_err(|_| "ingest writer panicked".to_string())?;
    let mut cache = CacheTally::default();
    cache.add_since(&state, base);
    let region = region_counts(evals0, cache, &state, writer.governor.stats());
    let (heap_mb, peak_rss_mb) = memory_mb()?;

    // The maintained session must rank exactly like a cold evaluation of
    // the final KB: fresh index, empty cache, the snapshot's own frame.
    let mut mismatches = Vec::new();
    let kb = writer.governor.kb();
    let snapshot = state.snapshot();
    if snapshot.epoch() != kb.epoch() {
        mismatches.push(format!(
            "served epoch {} != KB epoch {} after drain",
            snapshot.epoch(),
            kb.epoch()
        ));
    }
    let tasks: Vec<PairExplanations<'_>> = pairs
        .iter()
        .map(|((start, end), explanations)| PairExplanations {
            start: *start,
            end: *end,
            explanations,
        })
        .collect();
    let maintained = state
        .try_serve(&tasks, &cfg, &Budget::unlimited())
        .map_err(|e| format!("try_serve: {e}"))?;
    let index = ShardedEdgeIndex::build(kb, ShardSpec::new(cfg.shards, cfg.seed));
    let empty = match cfg.row_ceiling {
        Some(ceiling) => DistributionCache::with_row_ceiling(ceiling),
        None => DistributionCache::new(),
    };
    let cold = rank_pairs_with(&tasks, &cfg, &index, snapshot.frame(), &empty);
    for i in 0..tasks.len() {
        let (m, c) = (ranking_of(&maintained, i), ranking_of(&cold, i));
        if m != c {
            mismatches.push(format!("ingest pair {i}: maintained {m:?} != cold {c:?}"));
        }
    }

    let mut spans = rec.into_spans();
    spans.extend(writer.spans);
    Ok(RunOutput {
        latencies_ms: client.latencies_ms,
        pairs: client.pairs,
        windows: client.windows,
        client_wall_s: wall.as_secs_f64(),
        setup_s,
        attempted: client.attempted + writer.attempted,
        failed: client.failed + writer.failed,
        mismatches,
        heap_mb,
        peak_rss_mb,
        region,
        writer: Some(writer.out),
        span_cost_s: span_cost(p),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(kb: &mut KnowledgeBase, op: &IngestOp) -> Result<(), String> {
        let node = |kb: &KnowledgeBase, n: &str| kb.node_by_name(n).ok_or(format!("no node {n}"));
        match op {
            IngestOp::RemoveEdge { src, dst, label, directed } => {
                let (s, d) = (node(kb, src)?, node(kb, dst)?);
                let l = kb.label_by_name(label).ok_or("no label")?;
                let id = kb.find_edge(s, d, l, *directed).ok_or("no edge to remove")?;
                kb.remove_edge(id).map(drop).map_err(|e| e.to_string())
            }
            IngestOp::InsertEdge { src, dst, label, directed } => {
                let (s, d) = (node(kb, src)?, node(kb, dst)?);
                kb.insert_edge_named(s, d, label, *directed).map(drop).map_err(|e| e.to_string())
            }
            IngestOp::InsertNode { .. } => Err("the op stream inserts no nodes".into()),
        }
    }

    #[test]
    fn op_stream_is_seeded_and_every_op_applies() {
        let kb = generate(&GeneratorConfig::tiny(DATASET_SEED));
        let a = op_stream(&kb, 7, 40);
        assert_eq!(a, op_stream(&kb, 7, 40));
        assert_ne!(a, op_stream(&kb, 8, 40));
        assert!(a.iter().all(|batch| batch.len() == EDGES_PER_BATCH));
        let mut live = kb.clone();
        for op in a.iter().flatten() {
            apply(&mut live, op).unwrap();
        }
        assert_eq!(live.edge_count(), kb.edge_count());
    }

    /// Both workloads at tiny scale, traced, with the answer checks
    /// on: a run must complete, fail nothing, pass its checks and yield
    /// every metric.
    #[test]
    fn every_workload_runs_at_tiny_scale() {
        for workload in Workload::ALL {
            let p = Params {
                workload,
                scale: Scale::TINY,
                seed: 7,
                seconds: 0.0,
                trace: true,
                work_dir: Path::new(SCRATCH).join(format!(
                    "smoke-{}-{}",
                    workload.name(),
                    std::process::id()
                )),
            };
            let run = run(&p).unwrap();
            assert!(!p.work_dir.exists(), "scratch directory removed");
            assert_eq!(run.failed, 0, "{}", workload.name());
            assert!(run.mismatches.is_empty(), "{}: {:?}", workload.name(), run.mismatches);
            assert!(run.latencies_ms.len() >= Scale::TINY.min_requests);
            // A few requests cannot support p90; the command line always
            // makes enough.
            let e2e = crate::report::end_to_end(&run).unwrap_or_else(|e| {
                assert!(run.latencies_ms.len() < 100, "{e}");
                Vec::new()
            });
            let layers = crate::report::per_layer(&run);
            assert_eq!(layers.len(), 47);
            for m in e2e.iter().chain(&layers) {
                assert!(m.value.is_finite(), "{} {} = {}", workload.name(), m.name, m.value);
            }
            assert!(!run.spans.is_empty());
        }
    }
}
