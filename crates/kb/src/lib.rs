//! # rex-kb — knowledge-base graph store
//!
//! The knowledge base of the REX system (Fang et al., *REX: Explaining
//! Relationships between Entity Pairs*, PVLDB 5(3), 2011) is a labeled
//! multigraph `G = (V, E, λ)`: nodes are entities (with a type and a unique
//! name), edges are *primary relationships* carrying a label, and each edge
//! is either **directed** (e.g. `starring`) or **undirected** (e.g.
//! `spouse`).
//!
//! This crate provides:
//!
//! * [`KnowledgeBase`] — an index-backed store with O(1) node and
//!   edge access, per-node adjacency sorted by label (so that
//!   label-restricted neighbor scans are `O(log d + k)`), and string
//!   interning for entity names, entity types, and relationship labels.
//!   Mutable in place: `insert_edge`/`remove_edge`/`insert_node` maintain
//!   the indexes, bump the KB's update [`epoch`](KnowledgeBase::epoch),
//!   and log the change for delta consumers ([`KbDelta`]).
//! * [`KbBuilder`] — the bulk construction API.
//! * [`io`] — a TSV interchange format (the natural encoding of DBpedia
//!   extractions) and a compact binary snapshot codec.
//! * [`toy`] — the small entertainment knowledge base used as the running
//!   example in the paper (Figure 3), handy for tests and examples.
//! * [`stats`] — degree/label statistics used by the data generator and by
//!   the experiment harness.
//!
//! The store is deliberately built from scratch (no `petgraph`): the REX
//! algorithms need multigraph semantics, per-edge direction flags, and
//! label-sorted adjacency slices, which are simplest to guarantee with a
//! purpose-built CSR layout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
pub mod delta;
mod graph;
mod ids;
mod interner;
pub mod io;
pub mod stats;
pub mod toy;
pub mod wal;

pub use builder::KbBuilder;
pub use delta::{DeltaOp, DeltaSince, KbDelta};
pub use graph::{EdgeRecord, KbHeapBytes, KbSnapshot, KnowledgeBase, Neighbor, NodeRecord};
pub use ids::{EdgeId, LabelId, NodeId, Orientation, TypeId, LABEL_LIMIT};
pub use interner::Interner;
pub use wal::{
    CheckpointCrash, CheckpointReceipt, CommitReceipt, DurableKb, RecoveryReport, SyncPolicy,
    WalBatch, WalFaults, WalWriter,
};

/// Errors produced while constructing or loading a knowledge base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbError {
    /// A node name was registered twice.
    DuplicateNode(String),
    /// An edge referenced a node id that does not exist.
    UnknownNode(u32),
    /// A lookup by name failed.
    NameNotFound(String),
    /// The TSV/binary input was malformed.
    Parse(String),
    /// A new relationship label was refused: the KB already holds
    /// [`LABEL_LIMIT`] labels. Carries the refused label.
    LabelLimit(String),
    /// A durability-layer file operation failed (WAL append, fsync,
    /// checkpoint write) — includes injected fault crashes.
    Io(String),
    /// WAL replay could not proceed: a checksummed batch references
    /// state the KB does not have, or the WAL and checkpoint disagree
    /// (a gap). Unlike a torn tail — which recovery truncates and
    /// reports — this indicates real inconsistency and is an error.
    Replay(String),
}

impl std::fmt::Display for KbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KbError::DuplicateNode(name) => write!(f, "duplicate node name: {name}"),
            KbError::UnknownNode(id) => write!(f, "unknown node id: {id}"),
            KbError::NameNotFound(name) => write!(f, "name not found: {name}"),
            KbError::Parse(msg) => write!(f, "parse error: {msg}"),
            KbError::LabelLimit(label) => {
                write!(f, "label {label:?} refused: a KB holds at most 2^30 relationship labels")
            }
            KbError::Io(msg) => write!(f, "i/o error: {msg}"),
            KbError::Replay(msg) => write!(f, "replay error: {msg}"),
        }
    }
}

impl std::error::Error for KbError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KbError>;
