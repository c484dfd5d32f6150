//! `rex rank --index-dir` end to end, through the built binary: a
//! snapshot directory shared by runs over two different KBs must never
//! serve one KB's index to the other. Both KBs are read from files, so
//! both sit at epoch 0 and the epoch alone cannot tell them apart.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, UNIX_EPOCH};

/// Runs `rex` with `args`, asserting success; returns its stdout.
fn rex(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rex")).args(args).output().expect("run rex");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "rex {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `rex rank` over `kb`'s sampled pairs, through `index_dir` when given.
fn rank(kb: &Path, index_dir: Option<&Path>, quiet: bool) -> String {
    let kb = kb.to_str().unwrap();
    let mut args =
        vec!["rank", "--kb", kb, "--per-group", "2", "--samples", "30", "--threads", "1"];
    if let Some(dir) = index_dir {
        args.extend(["--index-dir", dir.to_str().unwrap()]);
    }
    if quiet {
        args.push("--quiet");
    }
    rex(&args)
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rex-cli-cross-kb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ranking KB b through a directory that holds KB a's snapshot answers
/// exactly like a cold run of b, rewrites `base.idx`, and leaves a
/// snapshot the next run over b warm-starts from.
#[test]
fn index_dir_never_serves_another_kbs_snapshot() {
    let dir = scratch_dir();
    let kb = |name: &str, seed: &str| {
        let path = dir.join(name);
        let size = ["generate", "--nodes", "300", "--edges", "1200", "--labels", "5"];
        rex(&[&size[..], &["--seed", seed, "--out", path.to_str().unwrap()]].concat());
        path
    };
    let (a, b) = (kb("a.tsv", "1"), kb("b.tsv", "2"));
    let index_dir = dir.join("index");
    let base = index_dir.join("base.idx");

    rank(&a, Some(&index_dir), true);
    let stamp = UNIX_EPOCH + Duration::from_secs(86_400);
    std::fs::File::options().write(true).open(&base).unwrap().set_modified(stamp).unwrap();

    let cold = rank(&b, None, true);
    assert!(!cold.is_empty());
    assert_eq!(rank(&b, Some(&index_dir), true), cold, "b ranked from a's snapshot");
    let modified = std::fs::metadata(&base).unwrap().modified().unwrap();
    assert_ne!(modified, stamp, "base.idx still holds a's index");

    let again = rank(&b, Some(&index_dir), false);
    assert!(again.contains("index: warm start"), "{again}");
    std::fs::remove_dir_all(&dir).ok();
}
