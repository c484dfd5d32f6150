//! `rex` — command-line interface to the REX relationship-explanation
//! system.
//!
//! ```text
//! rex explain  --kb kb.tsv tom_cruise brad_pitt [--top 5] [--measure size+local-dist]
//!              [--max-nodes 5] [--decorate] [--toy]
//! rex rank     --kb kb.tsv [start end]... [--per-group 2] [--top 5] [--samples 100]
//!              [--query <file|MATCH ...>]
//! rex plan     --kb kb.tsv "MATCH (a)-[:starring]->(m)<-[:starring]-(b)
//!              WHERE a = $start AND b = $end" [start [end]]
//! rex update   --kb kb.tsv --delta delta.tsv [start end]... [--log-retention 10000]
//! rex generate --nodes 10000 --edges 65000 --seed 42 --out kb.tsv
//! rex stats    --kb kb.tsv
//! rex pairs    --kb kb.tsv --per-group 10 [--seed 2011]
//! rex ingest   --wal state/ --delta delta.tsv --toy [--sync commit] [--batch 32]
//! rex recover  state/ [--truncate]
//! ```
//!
//! The knowledge base is the TSV interchange format of `rex_kb::io`
//! (`N<TAB>name<TAB>type` node lines, `E<TAB>src<TAB>dst<TAB>label<TAB>d|u`
//! edge lines). `--toy` substitutes the built-in entertainment example.
//! Output piped into a reader that exits early (`rex explain … | head -3`)
//! ends quietly; the command still finishes and exits 0.

#[macro_use]
mod out;
mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "explain" => commands::explain(rest),
        "rank" => commands::rank_pairs_cmd(rest),
        "plan" => commands::plan_cmd(rest),
        "update" => commands::update(rest),
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "pairs" => commands::pairs(rest),
        "ingest" => commands::ingest(rest),
        "recover" => commands::recover(rest),
        "help" | "--help" | "-h" => {
            outln!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result.and_then(|()| out::finish()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
