//! # rex-relstore — a mini relational engine for distributional measures
//!
//! §5.3.2 of the REX paper computes *distribution-based* interestingness
//! measures by storing the knowledge base's primary relationships in a
//! relational table `R(eid1, eid2, rel)` and evaluating a SQL self-join per
//! explanation pattern:
//!
//! ```sql
//! SELECT v_start, R2.eid1, count(*) AS count
//! FROM R AS R1, R AS R2
//! WHERE v_start = R1.eid1 AND R1.eid2 = R2.eid2
//!   AND R1.rel = 'starring' AND R2.rel = 'starring'
//! GROUP BY v_start, R2.eid1
//! HAVING count > c
//! -- LIMIT p  (added for top-k pruning)
//! ```
//!
//! The number of result rows is the pattern's *position* in the local
//! distribution, and the `LIMIT p` clause implements the paper's top-k
//! pruning: once we know the current k-th best position `p`, positions
//! provably worse than `p` can be abandoned after `p` rows.
//!
//! This crate reproduces exactly that execution stack, built from scratch:
//!
//! * [`Relation`] — a schema'd table of `u64` values, stored flat and
//!   row-major in one buffer.
//! * [`expr`] — conjunctive predicates over rows.
//! * [`ops`] — scan/filter, hash equi-join, group-count with
//!   `HAVING`/`LIMIT`, distinct, projection.
//! * [`plan`] — compiling a *pattern spec* (the relational shape of an
//!   explanation pattern) into a join tree over the edge relation.
//! * [`engine`] — the distribution queries REX needs: per-end-node instance
//!   counts, and `HAVING`/`LIMIT`-pruned position counts.
//!
//! The engine is deliberately *materialized* (operators consume and produce
//! whole relations): explanation patterns are tiny (≤ 4 joins). The
//! intermediates are not always small, though. A single bound start keeps
//! them to the rows around one entity, but a batched `Among` tile over
//! thousands of starts can reach millions of rows (2.6M in the cold
//! serving benchmark). So the cost that matters is the cost per row: every
//! relation is one flat `u64` buffer and every operator allocates per
//! relation, never per row (see [`ops`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod engine;
pub mod expr;
pub mod metrics;
pub mod ops;
pub mod persist;
pub mod plan;
mod relation;

pub use relation::{ColumnPosting, Relation, Schema};

/// Errors raised by relational evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A column name was not found in a schema.
    UnknownColumn(String),
    /// Arity mismatch between a row and its schema.
    Arity {
        /// Expected arity (schema width).
        expected: usize,
        /// Provided row width.
        got: usize,
    },
    /// A pattern spec was malformed (bad variable index, disconnected, ...).
    BadPattern(String),
    /// A delta could not be applied: it does not start at the index's
    /// epoch, or retracts a row the index does not hold.
    DeltaSkew(String),
    /// A budgeted evaluation stopped cooperatively at a tile boundary
    /// (deadline, cancellation, or row-budget exhaustion) instead of
    /// finishing. Partial results are never returned and never published
    /// — the evaluation simply did not happen as far as callers'
    /// observable state is concerned.
    Aborted(budget::AbortReason),
    /// An I/O failure while reading or writing an on-disk index snapshot.
    Io(String),
    /// An on-disk index snapshot failed validation (bad magic/version,
    /// truncation, checksum mismatch, or a CSR invariant violation) —
    /// the load is rejected wholesale; callers fall back to a rebuild.
    Corrupt(String),
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RelError::Arity { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            RelError::BadPattern(msg) => write!(f, "bad pattern spec: {msg}"),
            RelError::DeltaSkew(msg) => write!(f, "delta skew: {msg}"),
            RelError::Aborted(reason) => write!(f, "evaluation aborted: {reason}"),
            RelError::Io(msg) => write!(f, "index snapshot I/O error: {msg}"),
            RelError::Corrupt(msg) => write!(f, "corrupt index snapshot: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

/// Result alias for relational evaluation.
pub type Result<T> = std::result::Result<T, RelError>;
