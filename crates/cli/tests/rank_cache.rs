//! `rex rank` reports what its distribution cache holds, on the built
//! binary.

use std::process::{Command, Stdio};

/// The stdout of `rex rank --toy brad_pitt angelina_jolie` with `extra`.
fn rank(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rex"))
        .args(["rank", "--toy", "brad_pitt", "angelina_jolie", "--samples", "20"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("run rex");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "rex exited with {}: {stdout}", out.status);
    stdout
}

/// The word before `suffix` in `line`, parsed.
fn number_before(line: &str, suffix: &str) -> f64 {
    let head = &line[..line.find(suffix).unwrap_or_else(|| panic!("no `{suffix}` in {line}"))];
    let word = head.rsplit([' ', '(']).next().unwrap_or_default();
    word.parse().unwrap_or_else(|_| panic!("`{word}` before `{suffix}` in {line}"))
}

/// The summary is followed by `cache: N shapes, X KiB (Y B per shape)`:
/// one pass publishes every distinct shape it read, and each holds at
/// least an entry's fixed part. `--quiet` drops the line with the
/// summary.
#[test]
fn rank_reports_the_memory_of_its_cache() {
    let stdout = rank(&[]);
    let summary = stdout.lines().find(|l| l.starts_with("ranked "));
    let summary = summary.unwrap_or_else(|| panic!("no summary line in:\n{stdout}"));
    let line = stdout.lines().find(|l| l.starts_with("cache: "));
    let line = line.unwrap_or_else(|| panic!("no `cache` line in:\n{stdout}"));
    let shapes = number_before(line, " shapes,");
    assert!(shapes > 0.0, "{line}");
    assert_eq!(shapes, number_before(summary, " distinct shapes"), "{summary}\n{line}");
    let (kib, per_shape) = (number_before(line, " KiB"), number_before(line, " B per shape)"));
    assert!(per_shape >= 128.0, "{line}");
    assert!((kib * 1024.0 / shapes - per_shape).abs() < 60.0, "{line}");

    let quiet = rank(&["--quiet"]);
    assert!(
        !quiet.lines().any(|l| l.starts_with("cache: ") || l.starts_with("ranked ")),
        "{quiet}"
    );
}
