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
//! * [`engine::EdgeIndex`] — the edge relation partitioned by `(label,
//!   dir)`, each partition stored once, as its out- and in-adjacency
//!   lists (two [`ColumnPosting`]s of `u32` ids, one for an undirected
//!   partition, whose lists are the same both ways) with no row copy
//!   beside them.
//! * [`plan`] — compiling a *pattern spec* (the relational shape of an
//!   explanation pattern) into a depth-first binding plan over the
//!   indexed edge relation.
//! * [`engine`] — the distribution queries REX needs: per-end-node instance
//!   counts, and `HAVING`/`LIMIT`-pruned position counts.
//!
//! Evaluation over the index does not join relations: one depth-first
//! executor, behind batched distributions, single evaluations and
//! position queries alike, binds the pattern's variables one at a time
//! per start, each variable's candidates the intersection of the sorted
//! neighbour lists of its edges to variables already bound, and counts
//! each start's instances per end entity in place. A batched `Among`
//! evaluation over thousands of starts once materialized millions of
//! join rows (2.4M in the cold serving benchmark) to count a fraction as
//! many instances; the walk holds one value per variable instead, and
//! reads only the lists around the values it has bound, never a whole
//! partition. The materializing operators of [`ops`] remain for the
//! definitional evaluation over the unindexed relation
//! ([`plan::PatternSpec::evaluate`]), the oracle the indexed path is
//! tested against; every relation is one flat `u64` buffer and every
//! operator allocates per relation, never per row.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod engine;
mod exec;
pub mod expr;
pub mod metrics;
pub mod ops;
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
    /// A budgeted evaluation stopped cooperatively before one of its
    /// starts (deadline, cancellation, or row-budget exhaustion) instead of
    /// finishing. Partial results are never returned and never published
    /// — the evaluation simply did not happen as far as callers'
    /// observable state is concerned.
    Aborted(budget::AbortReason),
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
        }
    }
}

impl std::error::Error for RelError {}

/// Result alias for relational evaluation.
pub type Result<T> = std::result::Result<T, RelError>;
