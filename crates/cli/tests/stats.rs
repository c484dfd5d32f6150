//! `rex stats` reports what the KB's tables and the edge index hold, on
//! the built binary.

use std::process::{Command, Stdio};

/// The memory lines appear for every table: the index's endpoint
/// postings and the KB's adjacency, edge table, node table and names.
#[test]
fn stats_reports_the_memory_of_each_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_rex"))
        .args(["stats", "--toy"])
        .stdin(Stdio::null())
        .output()
        .expect("run rex");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rex exited with {}: {stdout}", out.status);
    for table in ["endpoint postings", "kb adjacency", "kb edge table", "kb node table", "kb names"]
    {
        let line = stdout.lines().find(|l| l.starts_with(&format!("{table}: ")));
        let line = line.unwrap_or_else(|| panic!("no `{table}` line in:\n{stdout}"));
        assert!(line.contains(" KiB"), "{line}");
    }
    // The toy KB's 84 edges take 12 bytes each in the edge table.
    assert!(stdout.contains("kb edge table: 1.0 KiB (12.0 B per edge)"), "{stdout}");
}
