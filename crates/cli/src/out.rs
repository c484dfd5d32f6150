//! Command output. Every line a command prints goes through [`line()`] (the
//! `outln!` macro) to stdout.
//!
//! A closed stdout — the reader of a pipe exited, as `head` does after
//! its lines — is a normal end of output: the writer drops every later
//! line, the command finishes its work (a WAL it writes is committed, a
//! checkpoint it takes is saved), and `rex` exits 0. Any other failed
//! write ends the output the same way and makes [`finish`] report it.

use std::fmt;
use std::io::{self, ErrorKind, Write};
use std::sync::OnceLock;

/// The first failed write to stdout; once set, later lines are dropped.
static FAILED: OnceLock<io::Error> = OnceLock::new();

/// Prints `args` and a newline to stdout, unless an earlier write failed.
pub fn line(args: fmt::Arguments<'_>) {
    if FAILED.get().is_some() {
        return;
    }
    if cfg!(test) {
        // The test harness captures `println!`, not writes to stdout.
        println!("{args}");
        return;
    }
    if let Err(err) = writeln!(io::stdout().lock(), "{args}") {
        let _ = FAILED.set(err);
    }
}

/// Flushes stdout once a command is done: `Ok` when every line was
/// written or stdout was closed, the error of any other failed write.
pub fn finish() -> Result<(), String> {
    if FAILED.get().is_none() {
        if let Err(err) = io::stdout().flush() {
            let _ = FAILED.set(err);
        }
    }
    match FAILED.get() {
        Some(err) if err.kind() != ErrorKind::BrokenPipe => Err(format!("writing output: {err}")),
        _ => Ok(()),
    }
}

/// `println!` through [`line()`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::line(format_args!($($arg)*))
    };
}
