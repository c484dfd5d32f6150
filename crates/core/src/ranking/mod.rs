//! Explanation ranking (paper §4.4).
//!
//! * [`rank`] — Algorithm 5, the general framework: enumerate (done by the
//!   caller), score every explanation, sort, take `k`. Works for any
//!   measure.
//! * [`topk`] — the interleaved enumerate-and-prune algorithm for
//!   anti-monotonic measures (Theorem 4): expansion proceeds only from the
//!   current top-k explanations.
//! * [`distribution`] — `LIMIT`-pruned ranking for the (non-anti-monotonic)
//!   distribution-based measures (§5.3.2).
//! * [`pairs`] — the multi-pair workload driver: one shared sample frame
//!   and distribution cache across all pairs, missed shapes handed to
//!   the workers cheapest-first and evaluated in one walk each under the
//!   request's budget, each stopped once its explanations cannot reach
//!   their pair's top-k.
//! * [`serve`] — epoch-versioned snapshot serving: readers pin a
//!   [`Snapshot`] (O(1)) and rank against it lock-free while maintenance
//!   builds the next epoch off to the side and flips it in with one
//!   atomic swap.
//! * [`update`] — the incremental re-rank path: after a batch of KB
//!   updates, [`ServingState::maintain`] advances the serving session from
//!   the delta and [`Snapshot::rank`] re-ranks against the warm cache
//!   instead of rebuilding (with a full-rebuild fallback once the KB's
//!   delta log has been compacted).
//! * [`fault`] — deterministic fault injection (scripted delays, panics,
//!   forced compaction at named sites) driving the chaos suite; the
//!   serving robustness layers (admission control, budgeted degradation,
//!   panic quarantine + bounded-retry rebuild) live in [`serve`].

pub mod distribution;
pub mod fault;
mod general;
pub mod ingest;
pub mod pairs;
pub mod serve;
pub mod topk;
pub mod update;

pub use fault::{FaultAction, FaultPlan};
pub use general::{rank, rank_with_scores, Ranked};
pub use ingest::{Backpressure, IngestConfig, IngestGovernor, IngestOp, IngestStats};
pub use pairs::{
    rank_pairs, rank_pairs_with, PairExplanations, RankPairsConfig, RankPairsOutcome, ShedPair,
};
pub use serve::{AdmissionController, AdmissionPermit, MaintainOutcome, ServingState, Snapshot};
