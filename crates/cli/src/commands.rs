//! The `rex` subcommands.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use rex_core::decorate::decorate;
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::{
    Combined, CountMeasure, LocalDeviationMeasure, LocalDistMeasure, Measure, MeasureContext,
    MonocountMeasure, RandomWalkMeasure, SizeMeasure,
};
use rex_core::ranking::rank;
use rex_core::ranking::{
    Backpressure, IngestConfig, IngestGovernor, IngestOp, PairExplanations, RankPairsConfig,
};
use rex_core::EnumConfig;
use rex_kb::{DurableKb, KnowledgeBase, SyncPolicy};

use crate::args::{Args, Spec};

/// Top-level usage text.
pub const USAGE: &str = "\
rex — explain why two entities are related (REX, PVLDB 5(3), 2011)

USAGE:
  rex explain  --kb <kb.tsv> <start> <end> [--top K] [--measure M]
               [--max-nodes N] [--instance-cap C] [--decorate] [--toy]
               [--quiet]
  rex rank     --kb <kb.tsv> [<start> <end>]... [--per-group N] [--top K]
               [--samples S] [--seed S] [--max-nodes N] [--instance-cap C]
               [--threads T] [--deadline-ms D] [--row-budget B]
               [--query <file|MATCH string>] [--toy] [--quiet]
  rex plan     --kb <kb.tsv> | --toy <query string or file> [<start> [<end>]]
  rex update   --kb <kb.tsv> --delta <delta.tsv> [<start> <end>]...
               [--per-group N] [--log-retention N] [--top K] [--samples S]
               [--seed S] [--max-nodes N] [--instance-cap C] [--threads T]
               [--deadline-ms D] [--row-budget B] [--toy] [--quiet]
  rex generate --nodes N --edges M [--labels L] [--seed S] --out <kb.tsv>
  rex stats    --kb <kb.tsv> | --toy
  rex pairs    --kb <kb.tsv> [--per-group N] [--seed S] [--toy]
  rex ingest   --wal <dir> --delta <delta.tsv|-> [--kb <kb.tsv> | --toy]
               [--sync commit|interval[:N]|off] [--batch N] [--queue N]
               [--checkpoint-every N] [--shed]
  rex recover  <dir> | --wal <dir> [--truncate]

`rex rank` ranks many pairs at once by global distributional position,
sharing one sample frame and one distribution cache across all of them
(one batched evaluation per distinct pattern shape in the workload).
Pairs come from positional <start> <end> name pairs, or are sampled per
connectedness group (--per-group) when none are given.

--query replaces shape enumeration with user-written MATCH patterns
(`;`-separated statements, inline or in a file):
  MATCH (a)-[:starring]->(m)<-[:starring]-(b)
  WHERE a = $start AND b = $end RETURN a, b
Each pattern's instances are matched per pair (patterns with none are
dropped for that pair) and the patterns flow through the same shared
frame, distribution cache, budgets, and serving machinery as
enumerated shapes. Parse errors point at the offending bytes.

`rex plan` compiles a MATCH query and prints the depth-first plan —
canonical form, binding kinds per variable, the order in which the
executor binds the variables (chosen from the posting statistics), and
for each level the neighbour lists its candidates are intersected from
and the bindings the planner expects — without evaluating anything. A
trailing existential marked `counted` is counted, not enumerated, when
distributions are grouped. An optional <start> entity makes the start
binding Const; otherwise the plan is explained unbound, where the start
ranges over the keys of its smallest start-incident posting.

`rex ingest --delta -` streams the delta grammar from stdin instead of a
file, for pipeline producers.

--threads T sets the worker count of `rex rank` and `rex update` (0, the
default: the machine's width): the KB load and the ranking pass both run
on that many workers. Other commands load on the machine's width.

--deadline-ms / --row-budget bound the ranking pass (both commands): the
deadline and row budget (each evaluation is charged its widest level's
bindings as it grows) are checked before every start an evaluation
walks, and pairs the budget cannot cover are SHED — reported per pair
with the abort reason — instead of silently ranked on partial evidence.
Zero is rejected for both (it would shed everything before the first
start); omit the flag for no bound.

`rex update` ranks the same workload cold through a serving-session
snapshot, applies an edge-list delta file to the KB, and re-ranks
incrementally: the session builds the next epoch's edge index and
distribution cache off to the side (per shape: patched over just its
delta-affected starts, or untouched) and flips them in with one atomic
swap, so concurrent readers never stall. --log-retention bounds the
KB's mutation log; when compaction outruns the session, the re-rank
falls back to a full rebuild. Delta file lines:
  +<TAB>src<TAB>dst<TAB>label<TAB>d|u    insert edge
  -<TAB>src<TAB>dst<TAB>label<TAB>d|u    remove one matching edge
  N<TAB>name<TAB>type                    insert node

`rex ingest` streams the same delta-file grammar through the durable,
backpressure-governed ingestion path: batches of --batch ops are queued
(at most --queue deep), group-committed to a write-ahead log in <dir>
(--sync picks the fsync discipline), and the serving epoch flips are
paced by queue depth rather than per delta. --shed makes a full queue
reject with the retryable Overloaded error (the producer drains and
retries) instead of blocking. The run ends with a checkpoint: an atomic
KB snapshot plus WAL reset. Rerunning against the same <dir> recovers
first — committed batches replay over the checkpoint; a torn tail is
truncated and reported loudly. --kb/--toy seed the KB only when <dir>
holds no durable state yet.

`rex recover` inspects a durable state directory read-only and reports
what recovery would replay, skip, and truncate; --truncate performs the
repair.

MEASURES (for --measure):
  size, random-walk, count, monocount, local-dist, local-deviation,
  size+monocount, size+local-dist (default)";

// The flags each command reads; `Args::parse` rejects any other.
static EXPLAIN: Spec = Spec {
    command: "explain",
    flags: &["kb", "top", "measure", "max-nodes", "instance-cap"],
    switches: &["toy", "decorate", "quiet"],
};
static RANK: Spec = Spec {
    command: "rank",
    flags: &[
        "kb",
        "per-group",
        "top",
        "samples",
        "seed",
        "max-nodes",
        "instance-cap",
        "threads",
        "deadline-ms",
        "row-budget",
        "query",
    ],
    switches: &["toy", "quiet"],
};
static PLAN: Spec = Spec { command: "plan", flags: &["kb"], switches: &["toy"] };
static UPDATE: Spec = Spec {
    command: "update",
    flags: &[
        "kb",
        "delta",
        "per-group",
        "log-retention",
        "top",
        "samples",
        "seed",
        "max-nodes",
        "instance-cap",
        "threads",
        "deadline-ms",
        "row-budget",
    ],
    switches: &["toy", "quiet"],
};
static GENERATE: Spec = Spec {
    command: "generate",
    flags: &["nodes", "edges", "labels", "seed", "out"],
    switches: &[],
};
static STATS: Spec = Spec { command: "stats", flags: &["kb"], switches: &["toy"] };
static PAIRS: Spec =
    Spec { command: "pairs", flags: &["kb", "per-group", "seed"], switches: &["toy"] };
static INGEST: Spec = Spec {
    command: "ingest",
    flags: &["wal", "delta", "kb", "sync", "batch", "queue", "checkpoint-every"],
    switches: &["toy", "shed"],
};
static RECOVER: Spec = Spec { command: "recover", flags: &["wal"], switches: &["truncate"] };

fn load_kb(args: &Args) -> Result<KnowledgeBase, String> {
    if args.has("toy") {
        return Ok(rex_kb::toy::entertainment());
    }
    let path = args.get("kb").ok_or("need --kb <file.tsv> (or --toy)")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    rex_kb::io::read_tsv(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// [`load_kb`] on `threads` workers (0: the machine's width), the width
/// the command's ranking pass runs at too, so `--threads 1` puts the
/// whole command on one worker.
fn load_kb_on(threads: usize, args: &Args) -> Result<KnowledgeBase, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction is infallible")
        .install(|| load_kb(args))
}

/// Parses and validates the `--deadline-ms` / `--row-budget` pair. Zero
/// is rejected loudly for both — a zero budget sheds every pair before
/// its first evaluation, which is an outage spelled as a flag.
fn budget_flags(args: &Args) -> Result<(Option<u64>, Option<usize>), String> {
    let deadline_ms = match args.get("deadline-ms") {
        None => None,
        Some(v) => {
            let ms: u64 =
                v.parse().map_err(|_| format!("--deadline-ms wants milliseconds, got {v:?}"))?;
            if ms == 0 {
                return Err("--deadline-ms must be positive: a zero-millisecond deadline \
                            sheds every pair before its first evaluation; omit the flag \
                            for no deadline"
                    .into());
            }
            Some(ms)
        }
    };
    let row_budget = match args.get("row-budget") {
        None => None,
        Some(v) => {
            let rows: usize =
                v.parse().map_err(|_| format!("--row-budget wants a row count, got {v:?}"))?;
            if rows == 0 {
                return Err("--row-budget must be positive: a zero-row pool aborts every \
                            evaluation before its first start; omit the flag for no row \
                            budget"
                    .into());
            }
            Some(rows)
        }
    };
    Ok((deadline_ms, row_budget))
}

/// Builds the evaluation [`Budget`](rex_relstore::budget::Budget) at the
/// moment ranking starts (so enumeration time never counts against the
/// deadline).
fn build_budget(
    deadline_ms: Option<u64>,
    row_budget: Option<usize>,
) -> rex_relstore::budget::Budget {
    let mut budget = rex_relstore::budget::Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(rows) = row_budget {
        budget = budget.with_row_budget(rows);
    }
    budget
}

/// Prints the per-pair shed report of a budgeted run and returns the shed
/// lookup (pair index → abort reason). Loud by design: shed pairs are
/// degraded service, not noise, so they print even under --quiet.
fn report_shed(
    shed: &[rex_core::ranking::ShedPair],
    total: usize,
) -> std::collections::HashMap<usize, rex_relstore::budget::AbortReason> {
    if !shed.is_empty() {
        outln!(
            "SHED {} of {total} pairs (budget exhausted mid-workload; re-run with a \
             larger --deadline-ms/--row-budget or fewer pairs):",
            shed.len()
        );
    }
    shed.iter().map(|s| (s.pair, s.reason)).collect()
}

fn measure_by_name(name: &str) -> Result<Box<dyn Measure>, String> {
    Ok(match name {
        "size" => Box::new(SizeMeasure),
        "random-walk" => Box::new(RandomWalkMeasure),
        "count" => Box::new(CountMeasure),
        "monocount" => Box::new(MonocountMeasure),
        "local-dist" => Box::new(LocalDistMeasure::new()),
        "local-deviation" => Box::new(LocalDeviationMeasure::new()),
        "size+monocount" => Box::new(Combined::size_monocount()),
        "size+local-dist" => Box::new(Combined::size_local_dist()),
        other => return Err(format!("unknown measure {other:?} (see `rex help`)")),
    })
}

/// `rex explain`: enumerate and rank explanations for a pair.
pub fn explain(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &EXPLAIN)?;
    let kb = load_kb(&args)?;
    let start_name = args.positional(0).ok_or("need <start> entity name")?;
    let end_name = args.positional(1).ok_or("need <end> entity name")?;
    let start = kb.require_node(start_name).map_err(|e| e.to_string())?;
    let end = kb.require_node(end_name).map_err(|e| e.to_string())?;
    let k: usize = args.get_or("top", 5)?;
    let max_nodes: usize = args.get_or("max-nodes", 5)?;
    let cap: usize = args.get_or("instance-cap", 5_000)?;
    let measure = measure_by_name(args.get("measure").unwrap_or("size+local-dist"))?;

    let config = EnumConfig::default().with_max_nodes(max_nodes).with_instance_cap(cap);
    let t0 = std::time::Instant::now();
    let out = GeneralEnumerator::new(config).enumerate(&kb, start, end);
    let elapsed = t0.elapsed();
    if !args.has("quiet") {
        outln!(
            "{} minimal explanations for {start_name} ↔ {end_name} in {:.1} ms \
             ({} path patterns, {} merges)",
            out.explanations.len(),
            elapsed.as_secs_f64() * 1e3,
            out.stats.path_patterns,
            out.stats.merge_calls,
        );
    }
    let ctx = MeasureContext::new(&kb, start, end);
    for (i, r) in rank(&out.explanations, measure.as_ref(), &ctx, k).iter().enumerate() {
        let e = &out.explanations[r.index];
        outln!("{}. {}", i + 1, e.describe(&kb));
        if args.has("decorate") {
            for d in decorate(&kb, e, 2) {
                outln!("     + {}", d.describe(&kb));
            }
        }
    }
    Ok(())
}

/// Resolves the workload pairs of `rank`/`update`: explicit positional
/// `(start, end)` names, or sampled per connectedness group.
fn resolve_pairs(
    args: &Args,
    kb: &KnowledgeBase,
    seed: u64,
) -> Result<Vec<(rex_kb::NodeId, rex_kb::NodeId)>, String> {
    let positionals = args.positionals();
    if positionals.is_empty() {
        let per_group: usize = args.get_or("per-group", 2)?;
        let sampled = rex_datagen::sample_pairs(kb, per_group, 4, seed);
        if sampled.is_empty() {
            return Err("no related pairs found (KB too sparse?)".into());
        }
        return Ok(sampled.into_iter().map(|p| (p.start, p.end)).collect());
    }
    if !positionals.len().is_multiple_of(2) {
        return Err("pairs must come as <start> <end> name pairs".into());
    }
    positionals
        .chunks(2)
        .map(|c| {
            Ok((
                kb.require_node(&c[0]).map_err(|e| e.to_string())?,
                kb.require_node(&c[1]).map_err(|e| e.to_string())?,
            ))
        })
        .collect()
}

/// `rex rank`: rank explanations for many pairs through one shared
/// sample frame and distribution cache (global distributional position).
/// Each distinct pattern shape of the workload is read once, and its
/// evaluation stops once every explanation waiting on it is ranked out
/// of its pair's top-k; the summary line counts those explanations, and
/// the cache line below it what the cached shapes hold.
pub fn rank_pairs_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &RANK)?;
    let threads: usize = args.get_or("threads", 0)?;
    let kb = load_kb_on(threads, &args)?;
    let k: usize = args.get_or("top", 5)?;
    let samples: usize = args.get_or("samples", 100)?;
    let seed: u64 = args.get_or("seed", 2011)?;
    let max_nodes: usize = args.get_or("max-nodes", 4)?;
    let cap: usize = args.get_or("instance-cap", 5_000)?;
    let (deadline_ms, row_budget) = budget_flags(&args)?;
    let pairs = resolve_pairs(&args, &kb, seed)?;

    let t0 = std::time::Instant::now();
    let prepared: Vec<(rex_kb::NodeId, rex_kb::NodeId, Vec<rex_core::Explanation>)> =
        if let Some(query_arg) = args.get("query") {
            // User-written MATCH patterns instead of enumerated shapes:
            // each statement's instances are matched per pair, then the
            // patterns flow through the same shared-frame ranking stack.
            let source = read_query_source(query_arg)?;
            let queries = compile_queries(&source, &kb)?;
            query_explanations(&kb, &queries, &pairs, cap)
        } else {
            let config = EnumConfig::default().with_max_nodes(max_nodes).with_instance_cap(cap);
            let enumerator = GeneralEnumerator::new(config);
            pairs
                .iter()
                .map(|&(s, e)| (s, e, enumerator.enumerate(&kb, s, e).explanations))
                .collect()
        };
    let enum_elapsed = t0.elapsed();

    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    let cfg =
        RankPairsConfig { k, global_samples: samples, seed, threads, ..RankPairsConfig::default() };
    let t1 = std::time::Instant::now();
    let budget = build_budget(deadline_ms, row_budget);
    let state = rex_core::ranking::ServingState::build(&kb, &cfg).map_err(|e| e.to_string())?;
    let outcome = state.snapshot().rank(&tasks, &cfg, &budget);
    let rank_elapsed = t1.elapsed();

    let shed = report_shed(&outcome.shed, prepared.len());
    for (idx, ((s, e, explanations), ranking)) in prepared.iter().zip(&outcome.rankings).enumerate()
    {
        outln!(
            "{} ↔ {} ({} explanations):",
            kb.node_name(*s),
            kb.node_name(*e),
            explanations.len()
        );
        if let Some(reason) = shed.get(&idx) {
            outln!("  SHED: {reason} (no ranking computed for this pair)");
            continue;
        }
        for (i, r) in ranking.iter().enumerate() {
            outln!("  {}. {}", i + 1, explanations[r.index].describe(&kb));
        }
    }
    if !args.has("quiet") {
        outln!(
            "ranked {} pairs in {:.1} ms (enumeration {:.1} ms): {} distinct shapes, \
             {} batched evaluations, {} explanations ranked out by the bound, {} tiles, \
             peak {} bindings per level",
            prepared.len() - outcome.shed.len(),
            rank_elapsed.as_secs_f64() * 1e3,
            enum_elapsed.as_secs_f64() * 1e3,
            outcome.distinct_shapes,
            outcome.batched_evals,
            outcome.ranked_out,
            outcome.tiles,
            outcome.peak_rows,
        );
        let (shapes, bytes) = (state.cache().len(), state.cache().heap_bytes());
        outln!(
            "cache: {shapes} shapes, {:.1} KiB ({:.1} B per shape)",
            bytes as f64 / 1024.0,
            bytes as f64 / shapes.max(1) as f64
        );
    }
    Ok(())
}

/// `rex update`: rank a workload cold through a serving-session snapshot,
/// apply an edge-list delta to the KB, and re-rank incrementally — the
/// session builds the next epoch's index/cache off to the side and flips
/// it in with one atomic swap (concurrent readers would keep ranking
/// against their pinned epoch meanwhile) — reporting which shapes were
/// patched vs untouched, and whether log compaction forced the full-
/// rebuild fallback.
pub fn update(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &UPDATE)?;
    let threads: usize = args.get_or("threads", 0)?;
    let mut kb = load_kb_on(threads, &args)?;
    let delta_path = args.get("delta").ok_or("need --delta <delta.tsv>")?.to_string();
    let k: usize = args.get_or("top", 5)?;
    let samples: usize = args.get_or("samples", 100)?;
    let seed: u64 = args.get_or("seed", 2011)?;
    let max_nodes: usize = args.get_or("max-nodes", 4)?;
    let cap: usize = args.get_or("instance-cap", 5_000)?;
    let (deadline_ms, row_budget) = budget_flags(&args)?;
    if let Some(retention) = args.get("log-retention") {
        let max: usize = retention
            .parse()
            .map_err(|_| format!("--log-retention wants a count, got {retention:?}"))?;
        kb.set_log_retention(Some(max));
    }
    let pairs = resolve_pairs(&args, &kb, seed)?;

    let config = EnumConfig::default().with_max_nodes(max_nodes).with_instance_cap(cap);
    let enumerator = GeneralEnumerator::new(config);
    let cfg =
        RankPairsConfig { k, global_samples: samples, seed, threads, ..RankPairsConfig::default() };
    let enumerate =
        |kb: &KnowledgeBase| -> Vec<(rex_kb::NodeId, rex_kb::NodeId, Vec<rex_core::Explanation>)> {
            pairs
                .iter()
                .map(|&(s, e)| (s, e, enumerator.enumerate(kb, s, e).explanations))
                .collect()
        };

    // Cold serving session on the pre-delta KB; readers would pin
    // snapshots of it while the update below is maintained.
    let state = rex_core::ranking::ServingState::build(&kb, &cfg).map_err(|e| e.to_string())?;
    let prepared = enumerate(&kb);
    let tasks: Vec<PairExplanations<'_>> = prepared
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    let t0 = std::time::Instant::now();
    let cold = state.snapshot().rank(&tasks, &cfg, &rex_relstore::budget::Budget::unlimited());
    let cold_elapsed = t0.elapsed();

    // Apply the delta and re-rank against the warm session (maintenance
    // builds the next epoch off to the side and flips it atomically).
    let epoch0 = kb.epoch();
    let (mut added, mut removed, mut new_nodes) = (0usize, 0usize, 0usize);
    let file = File::open(&delta_path).map_err(|e| format!("cannot open {delta_path}: {e}"))?;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{delta_path}: I/O error: {e}"))?;
        let context = format!("{delta_path} line {}", lineno + 1);
        let Some(op) = parse_delta_op(&line, &context)? else { continue };
        let nodes_before = kb.node_count();
        op.apply(&mut kb).map_err(|e| format!("{context}: {e}"))?;
        match op {
            IngestOp::InsertNode { .. } => new_nodes += kb.node_count() - nodes_before,
            IngestOp::InsertEdge { .. } => added += 1,
            IngestOp::RemoveEdge { .. } => removed += 1,
        }
    }
    let prepared2 = enumerate(&kb);
    let tasks2: Vec<PairExplanations<'_>> = prepared2
        .iter()
        .map(|(s, e, ex)| PairExplanations { start: *s, end: *e, explanations: ex })
        .collect();
    let t1 = std::time::Instant::now();
    let budget = build_budget(deadline_ms, row_budget);
    let maintained = state.maintain(&kb).map_err(|e| e.to_string())?;
    let updated = state.snapshot().rank(&tasks2, &cfg, &budget);
    let delta_elapsed = t1.elapsed();

    let shed = report_shed(&updated.shed, prepared2.len());
    for (idx, ((s, e, explanations), ranking)) in
        prepared2.iter().zip(&updated.rankings).enumerate()
    {
        outln!(
            "{} ↔ {} ({} explanations):",
            kb.node_name(*s),
            kb.node_name(*e),
            explanations.len()
        );
        if let Some(reason) = shed.get(&idx) {
            outln!("  SHED: {reason} (no ranking computed for this pair)");
            continue;
        }
        for (i, r) in ranking.iter().enumerate() {
            outln!("  {}. {}", i + 1, explanations[r.index].describe(&kb));
        }
    }
    if !args.has("quiet") {
        let m = maintained.maintenance;
        outln!(
            "applied {delta_path}: +{added} -{removed} edges, +{new_nodes} nodes \
             (serving epoch flipped {epoch0} → {})",
            state.epoch()
        );
        outln!(
            "cold rank {:.1} ms ({} full evaluations, {} explanations ranked out by the \
             bound); delta re-rank {:.1} ms ({} cache misses full, {} partial, {} ranked out)",
            cold_elapsed.as_secs_f64() * 1e3,
            cold.batched_evals,
            cold.ranked_out,
            delta_elapsed.as_secs_f64() * 1e3,
            updated.batched_evals,
            state.cache().delta_evals(),
            updated.ranked_out,
        );
        if maintained.compaction_fallback {
            outln!(
                "delta log compacted past the session's epoch: fell back to a \
                 full index rebuild + cold re-evaluation (no incremental maintenance)"
            );
        } else {
            outln!(
                "shapes: {} delta-patched ({} affected starts), {} untouched, \
                 {} dropped; frame redrawn: {}",
                m.patched,
                m.affected_starts,
                m.untouched,
                m.dropped,
                if maintained.frame_redrawn { "yes" } else { "no" },
            );
        }
    }
    Ok(())
}

/// `rex generate`: write a synthetic entertainment KB as TSV.
pub fn generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &GENERATE)?;
    let nodes: usize = args.get_or("nodes", 10_000)?;
    let edges: usize = args.get_or("edges", nodes * 6)?;
    let labels: usize = args.get_or("labels", 280)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out_path = args.get("out").ok_or("need --out <file.tsv>")?;
    let config = rex_datagen::GeneratorConfig {
        nodes,
        edges,
        labels,
        label_zipf_exponent: 1.1,
        preferential_attachment: 0.6,
        seed,
    };
    let kb = rex_datagen::generate(&config);
    let mut buf = Vec::new();
    rex_kb::io::write_tsv(&kb, &mut buf).map_err(|e| format!("write failed: {e}"))?;
    // Temp-file + atomic rename: a crash mid-write can never leave a
    // half-written KB at the destination path.
    rex_kb::io::atomic_write(std::path::Path::new(out_path), &buf)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    outln!("wrote {}: {}", out_path, rex_kb::stats::summary(&kb));
    Ok(())
}

/// `rex stats`: print knowledge-base statistics, including what the
/// evaluation engine's edge index costs to build on this KB (each
/// partition's endpoint posting lists, its only storage) — the price paid
/// once per epoch and amortized over every probe-instead-of-scan
/// evaluation after it.
pub fn stats(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &STATS)?;
    let kb = load_kb(&args)?;
    outln!("{}", rex_kb::stats::summary(&kb));
    let t0 = std::time::Instant::now();
    let index = rex_relstore::engine::EdgeIndex::build(&kb);
    let build = t0.elapsed();
    let posting = index.posting_stats();
    outln!(
        "edge index: {} (label, dir) partitions, {} oriented rows, built in {:.1} ms",
        posting.partitions,
        index.total_rows(),
        build.as_secs_f64() * 1e3
    );
    outln!(
        "endpoint postings: {} src keys, {} dst keys, {:.1} KiB, all of the index's \
         row storage (rebuilt per epoch only for delta-touched partitions)",
        posting.src_keys,
        posting.dst_keys,
        posting.heap_bytes as f64 / 1024.0
    );
    let bytes = kb.heap_bytes();
    let kib = |bytes: usize| bytes as f64 / 1024.0;
    let per = |bytes: usize, count: usize| bytes as f64 / count.max(1) as f64;
    let (edges, nodes) = (kb.edge_count(), kb.node_count());
    outln!(
        "kb adjacency: {:.1} KiB ({:.1} B per edge, node offsets included)",
        kib(bytes.adjacency),
        per(bytes.adjacency, edges)
    );
    outln!(
        "kb edge table: {:.1} KiB ({:.1} B per edge)",
        kib(bytes.edges),
        per(bytes.edges, edges)
    );
    outln!(
        "kb node table: {:.1} KiB ({:.1} B per node)",
        kib(bytes.nodes),
        per(bytes.nodes, nodes)
    );
    outln!("kb names: {:.1} KiB ({:.1} B per node)", kib(bytes.names), per(bytes.names, nodes));
    let cards = rex_kb::stats::label_cardinalities(&kb);
    let mut labels: Vec<(usize, String)> =
        kb.labels().map(|(id, name)| (cards[id.index()], name.to_string())).collect();
    labels.sort_unstable_by(|a, b| b.cmp(a));
    outln!("top relationship labels:");
    for (count, label) in labels.into_iter().take(10) {
        outln!("  {count:>8}  {label}");
    }
    let mut types: Vec<(usize, String)> = rex_kb::stats::type_histogram(&kb)
        .into_iter()
        .map(|(t, c)| (c, kb.type_name(t).to_string()))
        .collect();
    types.sort_unstable_by(|a, b| b.cmp(a));
    outln!("entity types:");
    for (count, ty) in types.into_iter().take(10) {
        outln!("  {count:>8}  {ty}");
    }
    Ok(())
}

/// Reads the `--query` argument: the contents of the named file when one
/// exists at that path, the argument itself otherwise. Returns the MATCH
/// source text.
fn read_query_source(arg: &str) -> Result<String, String> {
    let path = Path::new(arg);
    if path.exists() {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {arg}: {e}"))
    } else {
        Ok(arg.to_string())
    }
}

/// Renders a query error with its caret diagnostic, without the
/// `error: ` prefix `main` adds.
fn render_query_error(err: &rex_query::QueryError, source: &str) -> String {
    let rendered = err.render(source);
    rendered.strip_prefix("error: ").unwrap_or(&rendered).to_string()
}

/// Compiles `;`-separated MATCH statements against a KB, rendering parse
/// and compile errors with byte-span caret diagnostics.
fn compile_queries(
    source: &str,
    kb: &KnowledgeBase,
) -> Result<Vec<rex_core::query::CompiledQuery>, String> {
    let mut queries = Vec::new();
    for stmt in source.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        queries.push(
            rex_core::query::compile_text(stmt, kb).map_err(|e| render_query_error(&e, stmt))?,
        );
    }
    if queries.is_empty() {
        return Err("no MATCH statement in the query input".into());
    }
    Ok(queries)
}

/// Builds per-pair explanations for a fixed set of user-query patterns:
/// each pattern's instances are matched per pair, and patterns with no
/// instance for a pair are dropped from that pair's explanation list.
fn query_explanations(
    kb: &KnowledgeBase,
    queries: &[rex_core::query::CompiledQuery],
    pairs: &[(rex_kb::NodeId, rex_kb::NodeId)],
    cap: usize,
) -> Vec<(rex_kb::NodeId, rex_kb::NodeId, Vec<rex_core::Explanation>)> {
    use rex_core::matcher::{find_instances, MatchOptions};
    pairs
        .iter()
        .map(|&(s, e)| {
            let explanations = queries
                .iter()
                .filter_map(|q| {
                    let opts = MatchOptions { cap: Some(cap) };
                    let res = find_instances(kb, &q.pattern, s, e, opts);
                    if res.instances.is_empty() {
                        return None;
                    }
                    Some(if res.saturated {
                        rex_core::Explanation::new_saturated(q.pattern.clone(), res.instances)
                    } else {
                        rex_core::Explanation::new(q.pattern.clone(), res.instances)
                    })
                })
                .collect();
            (s, e, explanations)
        })
        .collect()
}

/// One human line per plan level: the variable, where its candidates
/// come from, and the bindings the planner expects.
fn describe_plan_level(
    plan: &rex_relstore::plan::BindingPlan,
    at: usize,
    spec: &rex_relstore::plan::PatternSpec,
    var_names: &[String],
    kb: &KnowledgeBase,
) -> String {
    let level = &plan.levels[at];
    let name = |v: usize| var_names.get(v).cloned().unwrap_or_else(|| format!("v{v}"));
    let edge = |i: usize| {
        let e = &spec.edges[i];
        let label = kb.label_name(rex_kb::LabelId(e.label as u32));
        let arrow = if e.directed { "->" } else { "-" };
        format!("edge {i} ({})-[:{label}]{arrow}({})", name(e.u), name(e.v))
    };
    let side = |src: bool| if src { "from" } else { "to" };
    let mut source = if at == 0 {
        match plan.start_posting {
            Some(r) => format!("the keys of {}'s {} posting", edge(r.edge), side(r.src)),
            None => "the start binding".to_string(),
        }
    } else {
        let reads: Vec<String> = level
            .reads
            .iter()
            .map(|r| {
                format!("{} keyed by `{}` ({} posting)", edge(r.edge), name(r.key_var), side(r.src))
            })
            .collect();
        reads.join(" ∩ ")
    };
    for &l in &level.loops {
        source.push_str(&format!(", self-loop {}", edge(l)));
    }
    let counted = if plan.counted_tail && at + 1 == plan.levels.len() { ", counted" } else { "" };
    format!(
        "level {at} `{}`: {source}{counted} — est {:.1} bindings",
        name(level.var),
        level.est_bindings
    )
}

/// `rex plan`: compile a MATCH query and explain the depth-first plan —
/// canonical form, binding kinds, variable order, each level's neighbour
/// lists and estimated bindings — without evaluating anything.
pub fn plan_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &PLAN)?;
    let kb = load_kb(&args)?;
    let query_arg = args.positional(0).ok_or("need a MATCH query (string or file path)")?;
    let source = read_query_source(query_arg)?;
    let queries = compile_queries(&source, &kb)?;
    let binding = match args.positional(1) {
        Some(name) => rex_relstore::plan::StartBinding::Const(
            kb.require_node(name).map_err(|e| e.to_string())?.0 as u64,
        ),
        None => rex_relstore::plan::StartBinding::Unbound,
    };
    let index = rex_relstore::engine::EdgeIndex::build(&kb);
    for (qi, q) in queries.iter().enumerate() {
        if queries.len() > 1 {
            outln!("-- statement {}", qi + 1);
        }
        outln!("query:     {}", rex_query::pretty(&q.graph).map_err(|e| e.to_string())?);
        outln!("canonical: {}", rex_core::query::canonical_text(&q.pattern, &kb));
        let names = &q.compiled.var_names;
        for (v, name) in names.iter().enumerate() {
            let kind = match (v, &binding) {
                (0, rex_relstore::plan::StartBinding::Const(s)) => {
                    format!("Const({})", kb.node_name(rex_kb::NodeId(*s as u32)))
                }
                (0, rex_relstore::plan::StartBinding::Among(vs)) => {
                    format!("Among({} starts)", vs.len())
                }
                (0, rex_relstore::plan::StartBinding::Unbound) => "Unbound (start)".into(),
                (1, _) => "Unbound (end)".into(),
                _ => "Unbound (existential)".into(),
            };
            outln!("  var {v} `{name}`: {kind}");
        }
        let spec = q.pattern.to_spec();
        let plan = spec.plan(&index, &binding);
        outln!("variable order: {:?}", plan.order());
        for at in 0..plan.levels.len() {
            outln!("  {}", describe_plan_level(&plan, at, &spec, names, &kb));
        }
    }
    Ok(())
}

/// `rex pairs`: sample related pairs stratified by connectedness (§5.1).
pub fn pairs(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &PAIRS)?;
    let kb = load_kb(&args)?;
    let per_group: usize = args.get_or("per-group", 10)?;
    let seed: u64 = args.get_or("seed", 2011)?;
    let sampled = rex_datagen::sample_pairs(&kb, per_group, 4, seed);
    if sampled.is_empty() {
        return Err("no related pairs found (KB too sparse?)".into());
    }
    outln!("{:<28} {:<28} {:>12} {:>8}", "start", "end", "connectedness", "group");
    for p in sampled {
        outln!(
            "{:<28} {:<28} {:>12} {:>8}",
            kb.node_name(p.start),
            kb.node_name(p.end),
            p.connectedness,
            p.group.name()
        );
    }
    Ok(())
}

/// Resolves the durable-state file pair inside a `--wal` directory.
fn durable_paths(dir: &str) -> (PathBuf, PathBuf) {
    let dir = Path::new(dir);
    (dir.join("checkpoint.rexc"), dir.join("delta.rexw"))
}

/// Parses one TSV delta line into a name-addressed [`IngestOp`]
/// (`None` for blanks and comments). Same grammar as `rex update`'s
/// delta files; name resolution happens when the governor applies the
/// op, not here.
fn parse_delta_op(line: &str, context: &str) -> Result<Option<IngestOp>, String> {
    let line = line.trim_end();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let at = |msg: &str| format!("{context}: {msg}");
    let fields: Vec<&str> = line.split('\t').collect();
    match fields[0] {
        "N" => {
            let [_, name, ty] = fields[..] else {
                return Err(at("node lines are N<TAB>name<TAB>type"));
            };
            Ok(Some(IngestOp::InsertNode { name: name.into(), ty: ty.into() }))
        }
        op @ ("+" | "-") => {
            let [_, src, dst, label, dir] = fields[..] else {
                return Err(at("edge lines are +/-<TAB>src<TAB>dst<TAB>label<TAB>d|u"));
            };
            let directed = match dir {
                "d" => true,
                "u" => false,
                other => return Err(at(&format!("bad direction {other:?} (want d|u)"))),
            };
            let (src, dst, label) = (src.into(), dst.into(), label.into());
            Ok(Some(if op == "+" {
                IngestOp::InsertEdge { src, dst, label, directed }
            } else {
                IngestOp::RemoveEdge { src, dst, label, directed }
            }))
        }
        other => Err(at(&format!("unknown record tag {other:?}"))),
    }
}

/// Submits one batch under the chosen backpressure discipline. In shed
/// mode the producer behaves like a well-behaved client: on the
/// retryable `Overloaded` it drains one batch itself and retries.
fn submit_batch(
    governor: &mut IngestGovernor,
    ops: Vec<IngestOp>,
    shed_mode: bool,
    shed_retries: &mut u64,
) -> Result<(), String> {
    if !shed_mode {
        return governor.submit(ops, Backpressure::Block).map_err(|e| e.to_string());
    }
    loop {
        match governor.submit(ops.clone(), Backpressure::Shed) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_retryable() => {
                *shed_retries += 1;
                governor.pump().map_err(|e| e.to_string())?;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// `rex ingest`: stream a TSV delta file through the backpressure-
/// governed ingestion path — every batch is group-committed to a
/// write-ahead log before it can reach a reader, the serving session's
/// epoch flips are paced by queue depth, and the run ends with a
/// checkpoint (atomic snapshot + WAL reset). Rerunning after a crash
/// first recovers: the WAL is replayed over the checkpoint and any torn
/// tail is truncated with a report.
pub fn ingest(argv: &[String]) -> Result<(), String> {
    ingest_from(argv, std::io::stdin().lock())
}

/// [`ingest`], streaming `stdin` when `--delta` is `-`.
fn ingest_from(argv: &[String], stdin: impl BufRead + 'static) -> Result<(), String> {
    let args = Args::parse(argv, &INGEST)?;
    let wal_dir = args.get("wal").ok_or("need --wal <dir> (durable state directory)")?;
    let delta_path = args.get("delta").ok_or("need --delta <delta.tsv>")?;
    let sync = SyncPolicy::parse(args.get("sync").unwrap_or("commit"))
        .map_err(|e| format!("--sync: {e}"))?;
    let batch_lines: usize = args.get_or("batch", 32)?;
    if batch_lines == 0 {
        return Err("--batch must be positive (ops per WAL commit)".into());
    }
    let queue_capacity: usize = args.get_or("queue", 64)?;
    if queue_capacity == 0 {
        return Err("--queue must be positive (a zero-slot queue sheds everything)".into());
    }
    let checkpoint_interval: u64 = args.get_or("checkpoint-every", 32)?;
    let shed_mode = args.has("shed");

    std::fs::create_dir_all(wal_dir).map_err(|e| format!("cannot create {wal_dir}: {e}"))?;
    let (ckpt, wal) = durable_paths(wal_dir);
    let (durable, recovery) = if ckpt.exists() || wal.exists() {
        let (d, r) = DurableKb::open(&ckpt, &wal, sync).map_err(|e| e.to_string())?;
        (d, Some(r))
    } else {
        let kb = load_kb(&args)?;
        let d = DurableKb::create(kb, &ckpt, &wal, sync).map_err(|e| e.to_string())?;
        (d, None)
    };
    if let Some(r) = &recovery {
        print_recovery_report(r);
    }

    let serving = std::sync::Arc::new(
        rex_core::ranking::ServingState::build(durable.kb(), &RankPairsConfig::default())
            .map_err(|e| e.to_string())?,
    );
    let cfg = IngestConfig { queue_capacity, checkpoint_interval, ..Default::default() };
    let mut governor = IngestGovernor::new(durable, serving, cfg);

    // `--delta -` streams ops from stdin — the shape a pipeline producer
    // (or `tail -f`) feeds the governor.
    let (reader, source_name): (Box<dyn BufRead>, &str) = if delta_path == "-" {
        (Box::new(stdin), "<stdin>")
    } else {
        let file = File::open(delta_path).map_err(|e| format!("cannot open {delta_path}: {e}"))?;
        (Box::new(BufReader::new(file)), delta_path)
    };
    let mut batch: Vec<IngestOp> = Vec::with_capacity(batch_lines);
    let mut shed_retries = 0u64;
    let mut lines = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{source_name}: I/O error: {e}"))?;
        let context = format!("{source_name} line {}", lineno + 1);
        let Some(op) = parse_delta_op(&line, &context)? else { continue };
        lines += 1;
        batch.push(op);
        if batch.len() >= batch_lines {
            submit_batch(&mut governor, std::mem::take(&mut batch), shed_mode, &mut shed_retries)?;
        }
    }
    if !batch.is_empty() {
        submit_batch(&mut governor, batch, shed_mode, &mut shed_retries)?;
    }
    governor.drain().map_err(|e| e.to_string())?;
    let receipt = governor.checkpoint().map_err(|e| e.to_string())?;
    let stats = governor.stats();
    let kb = governor.kb();
    outln!(
        "ingested {lines} ops in {} batches: {} WAL commits ({} bytes), \
         {} flips ({} deferred by pacing), {} checkpoints, {} shed retries",
        stats.accepted,
        stats.committed_batches,
        stats.wal_bytes,
        stats.flips,
        stats.deferred_flips,
        stats.checkpoints,
        shed_retries,
    );
    outln!(
        "durable through seq {} ({} snapshot bytes); serving epoch {}; {}",
        receipt.last_seq,
        receipt.snapshot_bytes,
        governor.serving().epoch(),
        rex_kb::stats::summary(kb),
    );
    Ok(())
}

fn print_recovery_report(r: &rex_kb::RecoveryReport) {
    outln!(
        "recovered: checkpoint {} (seq {}), {} WAL batches replayed ({} ops), {} skipped",
        if r.checkpoint_loaded { "loaded" } else { "absent" },
        r.checkpoint_seq,
        r.replayed_batches,
        r.replayed_ops,
        r.skipped_batches,
    );
    if let Some(reason) = &r.truncated_reason {
        outln!("TORN TAIL: truncated {} trailing bytes — {reason}", r.truncated_bytes);
    }
}

/// `rex recover`: inspect (and optionally repair) a durable state
/// directory. Replays the WAL over the checkpoint read-only and reports
/// what a real recovery would do: batches replayed and skipped, and any
/// torn tail with its byte count and reason. `--truncate` performs the
/// repair — the torn tail is physically cut from the WAL.
pub fn recover(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &RECOVER)?;
    let dir = args
        .positional(0)
        .or_else(|| args.get("wal"))
        .ok_or("need a durable state directory: rex recover <dir> [--truncate]")?;
    let (ckpt, wal) = durable_paths(dir);
    if !ckpt.exists() && !wal.exists() {
        return Err(format!("{dir}: no checkpoint.rexc or delta.rexw found"));
    }
    let (kb, report) = if args.has("truncate") {
        KnowledgeBase::open(&ckpt, &wal)
    } else {
        KnowledgeBase::peek(&ckpt, &wal)
    }
    .map_err(|e| e.to_string())?;
    print_recovery_report(&report);
    if report.truncated_reason.is_some() {
        if args.has("truncate") {
            outln!("WAL repaired: valid prefix is {} bytes", report.wal_valid_bytes);
        } else {
            outln!("(read-only inspection; rerun with --truncate to repair the WAL)");
        }
    }
    outln!("recovered KB through seq {}: {}", report.last_seq, rex_kb::stats::summary(&kb));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_then_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("rex-cli-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let delta = dir.join("delta.tsv");
        std::fs::write(
            &delta,
            "# stream\n\
             N\tnew_star\tPerson\n\
             +\tnew_star\toceans_eleven\tstarring\td\n\
             -\tbrad_pitt\tangelina_jolie\tspouse\tu\n",
        )
        .unwrap();
        let wal_dir = dir.join("state");
        let wal_dir = wal_dir.to_str().unwrap();
        // First run seeds from the toy KB, streams the delta, checkpoints.
        ingest(&argv(&[
            "--toy",
            "--wal",
            wal_dir,
            "--delta",
            delta.to_str().unwrap(),
            "--sync",
            "off",
            "--batch",
            "2",
        ]))
        .unwrap();
        // Read-only inspection of the durable state.
        recover(&argv(&[wal_dir])).unwrap();
        // Second run must recover from the checkpoint (no --toy/--kb
        // needed) and apply a further delta, exercising the shed path.
        let delta2 = dir.join("delta2.tsv");
        std::fs::write(&delta2, "+\tjulia_roberts\tfight_club\tstarring\td\n").unwrap();
        ingest(&argv(&[
            "--wal",
            wal_dir,
            "--delta",
            delta2.to_str().unwrap(),
            "--sync",
            "interval:2",
            "--queue",
            "1",
            "--shed",
        ]))
        .unwrap();
        recover(&argv(&[wal_dir, "--truncate"])).unwrap();
    }

    #[test]
    fn ingest_and_recover_flag_validation() {
        assert!(recover(&argv(&["/nonexistent-rex-state"])).unwrap_err().contains("no checkpoint"));
        let err = ingest(&argv(&["--toy", "--wal", "x", "--delta", "y", "--batch", "0"]));
        assert!(err.unwrap_err().contains("--batch must be positive"));
        let err = ingest(&argv(&["--toy", "--wal", "x", "--delta", "y", "--sync", "sometimes"]));
        assert!(err.unwrap_err().contains("--sync"));
        assert!(parse_delta_op("?\ta\tb", "ctx").unwrap_err().contains("unknown record tag"));
        assert!(parse_delta_op("+\ta\tb\tl\tx", "ctx").unwrap_err().contains("bad direction"));
        assert!(parse_delta_op("# comment", "ctx").unwrap().is_none());
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_stats_pairs_explain_round_trip() {
        let dir = std::env::temp_dir().join(format!("rex-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kb_path = dir.join("kb.tsv");
        let kb_path = kb_path.to_str().unwrap().to_string();

        generate(&argv(&["--nodes", "400", "--edges", "2400", "--seed", "7", "--out", &kb_path]))
            .expect("generate");
        stats(&argv(&["--kb", &kb_path])).expect("stats");
        pairs(&argv(&["--kb", &kb_path, "--per-group", "1", "--seed", "3"])).expect("pairs");
        // Explain on the toy KB (deterministic entity names).
        explain(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--top", "3", "--quiet"]))
            .expect("explain");
        explain(&argv(&[
            "--toy",
            "kate_winslet",
            "leonardo_dicaprio",
            "--decorate",
            "--measure",
            "local-dist",
            "--quiet",
        ]))
        .expect("explain with decoration");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_explicit_and_sampled_pairs() {
        // Explicit pairs on the toy KB, shared frame across both.
        rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "kate_winslet",
            "leonardo_dicaprio",
            "--top",
            "3",
            "--samples",
            "10",
            "--quiet",
        ]))
        .expect("rank with explicit pairs");
        // Sampled pairs.
        rank_pairs_cmd(&argv(&["--toy", "--per-group", "1", "--samples", "8", "--quiet"]))
            .expect("rank with sampled pairs");
        // Odd positional count and unknown entities are reported.
        assert!(rank_pairs_cmd(&argv(&["--toy", "brad_pitt"])).is_err());
        assert!(rank_pairs_cmd(&argv(&["--toy", "brad_pitt", "nobody"])).is_err());
    }

    #[test]
    fn budgeted_rank_flags_work_and_reject_zero() {
        // Generous budgets rank everything (toy workload is tiny).
        rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--top",
            "3",
            "--samples",
            "10",
            "--deadline-ms",
            "60000",
            "--row-budget",
            "100000000",
            "--quiet",
        ]))
        .expect("rank under generous budget");
        // A 1-row budget sheds pairs instead of erroring out: the command
        // still succeeds and reports the degradation.
        rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--samples",
            "10",
            "--row-budget",
            "1",
            "--quiet",
        ]))
        .expect("rank under an exhausting budget degrades, not fails");
        // Zero budgets are rejected loudly, for both commands.
        let zero_deadline =
            rank_pairs_cmd(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--deadline-ms", "0"]));
        assert!(zero_deadline.unwrap_err().contains("must be positive"));
        let zero_rows =
            rank_pairs_cmd(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--row-budget", "0"]));
        assert!(zero_rows.unwrap_err().contains("must be positive"));
        // Unparsable values name the flag.
        assert!(rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--deadline-ms",
            "soon"
        ]))
        .unwrap_err()
        .contains("deadline-ms"));
    }

    #[test]
    fn update_applies_delta_and_reranks() {
        let dir = std::env::temp_dir().join(format!("rex-cli-update-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let delta_path = dir.join("delta.tsv");
        // A node insert, an edge insert incident to it, a plain edge
        // insert, and an edge removal — plus comments and blanks.
        std::fs::write(
            &delta_path,
            "# delta\n\
             N\tnew_star\tPerson\n\
             +\tnew_star\toceans_eleven\tstarring\td\n\
             +\tjulia_roberts\tfight_club\tstarring\td\n\
             -\tbrad_pitt\tangelina_jolie\tspouse\tu\n",
        )
        .unwrap();
        let delta_path = delta_path.to_str().unwrap().to_string();
        update(&argv(&[
            "--toy",
            "--delta",
            &delta_path,
            "brad_pitt",
            "angelina_jolie",
            "kate_winslet",
            "leonardo_dicaprio",
            "--top",
            "3",
            "--samples",
            "10",
            "--quiet",
        ]))
        .expect("update");
        // A tight log retention compacts the session's window away; the
        // update must fall back to a full rebuild and still succeed.
        update(&argv(&[
            "--toy",
            "--delta",
            &delta_path,
            "--log-retention",
            "1",
            "brad_pitt",
            "angelina_jolie",
            "--top",
            "3",
            "--samples",
            "10",
            "--quiet",
        ]))
        .expect("update with compaction fallback");
        // A budgeted re-rank works end to end (generous budget), and the
        // zero validation applies to update too.
        update(&argv(&[
            "--toy",
            "--delta",
            &delta_path,
            "brad_pitt",
            "angelina_jolie",
            "--top",
            "3",
            "--samples",
            "10",
            "--deadline-ms",
            "60000",
            "--quiet",
        ]))
        .expect("budgeted update");
        assert!(update(&argv(&[
            "--toy",
            "--delta",
            &delta_path,
            "brad_pitt",
            "angelina_jolie",
            "--row-budget",
            "0",
        ]))
        .unwrap_err()
        .contains("must be positive"));
        // Missing --delta and malformed files are reported.
        assert!(update(&argv(&["--toy", "brad_pitt", "angelina_jolie"])).is_err());
        let bad = dir.join("bad.tsv");
        std::fs::write(&bad, "X\twhat\n").unwrap();
        assert!(update(&argv(&[
            "--toy",
            "--delta",
            bad.to_str().unwrap(),
            "brad_pitt",
            "angelina_jolie"
        ]))
        .is_err());
        // Removing a non-existent edge is an error, not a silent no-op.
        let phantom = dir.join("phantom.tsv");
        std::fs::write(&phantom, "-\tbrad_pitt\tkate_winslet\tspouse\tu\n").unwrap();
        assert!(update(&argv(&[
            "--toy",
            "--delta",
            phantom.to_str().unwrap(),
            "brad_pitt",
            "angelina_jolie"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(explain(&argv(&["--toy"])).is_err()); // missing entities
        assert!(explain(&argv(&["--toy", "nobody", "brad_pitt"])).is_err());
        assert!(explain(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--measure", "bogus"]))
            .is_err());
        assert!(stats(&argv(&[])).is_err()); // no --kb and no --toy
        assert!(generate(&argv(&["--nodes", "10"])).is_err()); // no --out
    }

    #[test]
    fn plan_explains_queries_and_rank_accepts_them() {
        // Plan with a bound start: the start first, then its neighbours.
        plan_cmd(&argv(&[
            "--toy",
            "MATCH (a)-[:starring]->(m)<-[:starring]-(b) WHERE a = $start AND b = $end",
            "brad_pitt",
        ]))
        .expect("plan with bound start");
        // Unbound plan (no entity): the orderer falls back to a scan.
        plan_cmd(&argv(&["--toy", "MATCH (a)-[:spouse]-(b) WHERE a = $start AND b = $end"]))
            .expect("plan unbound");
        // rank --query flows end to end through the serving stack.
        rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--query",
            "MATCH (a)-[:spouse]-(b) WHERE a = $start AND b = $end; \
             MATCH (a)-[:starring]->(m)<-[:starring]-(b) WHERE a = $start AND b = $end",
            "--samples",
            "10",
            "--quiet",
        ]))
        .expect("rank --query");
        // ... and under a budget (the serving-state path).
        rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--query",
            "MATCH (a)-[:starring]->(m)<-[:starring]-(b) WHERE a = $start AND b = $end",
            "--samples",
            "10",
            "--deadline-ms",
            "60000",
            "--quiet",
        ]))
        .expect("rank --query budgeted");
        // Query files work too.
        let dir = std::env::temp_dir().join(format!("rex-cli-query-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("q.match");
        std::fs::write(&qfile, "MATCH (a)-[:spouse]-(b) WHERE a = $start AND b = $end\n").unwrap();
        plan_cmd(&argv(&["--toy", qfile.to_str().unwrap()])).expect("plan from file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_errors_carry_caret_diagnostics() {
        // A parse error points at the offending byte.
        let err =
            plan_cmd(&argv(&["--toy", "MATCH (a)-[:spouse]-(b WHERE a = $start AND b = $end"]))
                .unwrap_err();
        assert!(err.contains('^'), "caret missing from: {err}");
        // An unknown label points at the label bytes.
        let err = plan_cmd(&argv(&[
            "--toy",
            "MATCH (a)-[:flies_with]->(b) WHERE a = $start AND b = $end",
        ]))
        .unwrap_err();
        assert!(err.contains("flies_with") && err.contains('^'), "bad diagnostic: {err}");
        // rank --query surfaces the same diagnostics.
        let err = rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--query",
            "MATCH (a)-[:spouse]-(b)",
        ]))
        .unwrap_err();
        assert!(err.contains("$start"), "missing-binding error: {err}");
        // Empty query input is rejected.
        assert!(plan_cmd(&argv(&["--toy", " ; "])).is_err());
    }

    /// `--delta -` streams the reader `ingest` is handed in place of the
    /// process's stdin: the op it carries reaches the durable KB.
    #[test]
    fn ingest_accepts_stdin_sentinel_name() {
        let dir = std::env::temp_dir().join(format!("rex-cli-stdin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_dir = dir.join("state");
        let stdin = std::io::Cursor::new("+\tjulia_roberts\tfight_club\tstarring\td\n");
        ingest_from(
            &argv(&["--toy", "--wal", wal_dir.to_str().unwrap(), "--delta", "-", "--sync", "off"]),
            stdin,
        )
        .expect("ingest from the given reader");
        let (ckpt, wal) = durable_paths(wal_dir.to_str().unwrap());
        let (kb, _) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        let node = |name| kb.require_node(name).unwrap();
        let starring = kb.label_by_name("starring").unwrap();
        assert!(kb.find_edge(node("julia_roberts"), node("fight_club"), starring, true).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every command names a flag it does not read instead of ignoring
    /// it — a typo, a retired flag, or another command's switch.
    #[test]
    fn unknown_flags_are_rejected() {
        let err = rank_pairs_cmd(&argv(&[
            "--toy",
            "brad_pitt",
            "angelina_jolie",
            "--shards",
            "2",
            "--sample",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("--shards") && err.contains("rex rank"), "{err}");
        // The retired on-disk index snapshot's flag is named, not ignored.
        let err =
            rank_pairs_cmd(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--index-dir", "D"]))
                .unwrap_err();
        assert!(err.contains("--index-dir") && err.contains("rex rank"), "{err}");
        let err = stats(&argv(&["--toy", "--index-dir", "D"])).unwrap_err();
        assert!(err.contains("--index-dir") && err.contains("rex stats"), "{err}");
        // So is the retired row ceiling's, on both ranking commands.
        let err =
            rank_pairs_cmd(&argv(&["--toy", "brad_pitt", "angelina_jolie", "--row-ceiling", "4"]))
                .unwrap_err();
        assert!(err.contains("--row-ceiling") && err.contains("rex rank"), "{err}");
        let err = update(&argv(&["--toy", "--delta", "d.tsv", "--row-ceiling", "4"])).unwrap_err();
        assert!(err.contains("--row-ceiling") && err.contains("rex update"), "{err}");
        assert!(explain(&argv(&["--toy", "a", "b", "--shed"])).unwrap_err().contains("--shed"));
        assert!(update(&argv(&["--toy", "--query", "q"])).unwrap_err().contains("--query"));
        assert!(recover(&argv(&["dir", "--truncat"])).unwrap_err().contains("--truncat"));
    }

    /// Every flag the usage text shows for a command is one it accepts.
    #[test]
    fn usage_flags_are_accepted() {
        let specs = [&EXPLAIN, &RANK, &PLAN, &UPDATE, &GENERATE, &STATS, &PAIRS, &INGEST, &RECOVER];
        let usage = USAGE.split("USAGE:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut spec = None;
        let mut seen = 0;
        for line in usage.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("rex ") {
                let command = rest.split_whitespace().next().unwrap();
                spec = specs.iter().find(|s| s.command == command);
                assert!(spec.is_some(), "usage shows unknown command {command}");
                seen += 1;
            }
            let spec = spec.unwrap();
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--") {
                    assert!(
                        spec.flags.contains(&flag) || spec.switches.contains(&flag),
                        "rex {} usage shows --{flag}",
                        spec.command
                    );
                }
            }
        }
        assert_eq!(seen, specs.len(), "usage shows every command");
    }

    #[test]
    fn measure_registry_is_complete() {
        for name in [
            "size",
            "random-walk",
            "count",
            "monocount",
            "local-dist",
            "local-deviation",
            "size+monocount",
            "size+local-dist",
        ] {
            assert!(measure_by_name(name).is_ok(), "{name}");
        }
        assert!(measure_by_name("nope").is_err());
    }
}
