//! `rexbench`: the REX benchmark. See README.md for the workloads, the
//! metrics and how to compare two sets of runs.
//!
//! ```text
//! rexbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! rexbench --compare DIR_A DIR_B [--benchmark BENCHMARK.json]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints one
//! `workload metric value unit n=<samples>` line per metric, then a JSON
//! line with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Without it, runs every workload, each in a
//! child process of its own so memory is measured per workload.

mod alloc;
mod compare;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use workloads::{Params, Scale, Workload, SCRATCH};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` when not given; equals `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 35.0;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

const USAGE: &str = "usage: rexbench [--workload cold_explain|ingest_serve] \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
rexbench --compare DIR_A DIR_B [--benchmark BENCHMARK.json]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: workloads::DATASET_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                cli.compare = Some((a, PathBuf::from(value()?)));
            }
            "--benchmark" => cli.benchmark = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&cli.compare, cli.workload) {
        (Some((a, b)), _) => compare::run(a, b, &cli.benchmark).map(|any_worse| !any_worse),
        (None, Some(workload)) => run_one(&cli, workload),
        (None, None) => run_all(&cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload; `Ok(false)` when an answer check failed.
fn run_one(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let params = Params {
        workload,
        scale: Scale::BENCH,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        work_dir: Path::new(SCRATCH).join(format!("{}-{}", workload.name(), std::process::id())),
    };
    let run = workloads::run(&params)?;
    let metrics = if cli.trace { report::per_layer(&run) } else { report::end_to_end(&run)? };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number: {}", bad.name, bad.value));
    }
    let lines: Vec<String> = metrics.iter().map(|m| report::line(workload.name(), m)).collect();
    for line in &lines {
        println!("{line}");
    }
    for mismatch in &run.mismatches {
        eprintln!("answer check failed: {mismatch}");
    }
    if let Some(dir) = &cli.out {
        write_out(dir, workload, cli, &lines, &run.spans)?;
    }
    let correct = run.mismatches.is_empty();
    println!("{}", report::json(correct, run.attempted, run.failed, &metrics));
    Ok(correct)
}

/// Writes `<dir>/<workload>-s<seed>[-trace].tsv` and, when traced, the
/// spans to `<dir>/<workload>-s<seed>.trace.json`.
fn write_out(
    dir: &Path,
    workload: Workload,
    cli: &Cli,
    lines: &[String],
    spans: &[trace::Span],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-s{}", workload.name(), cli.seed);
    let tsv = dir.join(format!("{stem}{}.tsv", if cli.trace { "-trace" } else { "" }));
    let write = |path: &Path, text: String| {
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(&tsv, lines.iter().map(|l| format!("{l}\n")).collect())?;
    if cli.trace {
        write(&dir.join(format!("{stem}.trace.json")), trace::to_json(spans))?;
    }
    Ok(())
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate rexbench: {e}"))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }]);
        if let Some(dir) = &cli.out {
            cmd.arg("--out").arg(dir);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", workload.name()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read {} output: {e}", workload.name()))?;
            // The JSON line is for harnesses; a person reads the lines above it.
            if !line.starts_with('{') {
                println!("{line}");
            }
        }
        let status = child.wait().map_err(|e| format!("wait for {}: {e}", workload.name()))?;
        if !status.success() {
            eprintln!("{} exited with {status}", workload.name());
            all_ok = false;
        }
    }
    Ok(all_ok)
}
