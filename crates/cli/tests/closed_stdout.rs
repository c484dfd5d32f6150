//! A closed stdout is a normal end of output: `rex explain … | true`
//! must exit 0 without a panic, through the built binary.

use std::process::{Command, Stdio};

/// `rex explain` writing into a pipe whose read end is already closed
/// gets `EPIPE` on its first line; it must stop its output quietly and
/// exit 0.
#[test]
fn closed_stdout_ends_output_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rex"))
        .args(["explain", "--toy", "brad_pitt", "angelina_jolie"])
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run rex");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "rex exited with {}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "rex panicked: {stderr}");
}
