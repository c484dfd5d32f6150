//! # rex-core — explaining relationships between entity pairs
//!
//! A from-scratch Rust implementation of **REX** (Fang, Das Sarma, Yu,
//! Bohannon — *REX: Explaining Relationships between Entity Pairs*, PVLDB
//! 5(3), 2011). Given a knowledge base ([`rex_kb::KnowledgeBase`]) and a
//! pair of entities, REX enumerates all *minimal relationship explanations*
//! up to a size limit and ranks them by *interestingness*.
//!
//! ## Concepts (paper §2)
//!
//! * An **explanation pattern** ([`Pattern`]) is a small graph whose nodes
//!   are variables — two of them the designated `start`/`end` targets — and
//!   whose edges carry knowledge-base labels and directions.
//! * An **explanation instance** ([`Instance`]) maps the pattern's
//!   variables to knowledge-base entities such that every pattern edge is
//!   realized; the targets map to the query pair.
//! * An **explanation** ([`Explanation`]) is a pattern together with all of
//!   its instances. REX only reports **minimal** explanations: *essential*
//!   (every node/edge lies on a simple start–end path) and
//!   *non-decomposable* (the pattern is not a disjoint union of smaller
//!   explanations) — see [`properties`].
//!
//! ## Pipeline (paper §3–§4)
//!
//! 1. **Enumeration** ([`enumerate`]): either the gSpan-style baseline
//!    [`enumerate::naive`], or the paper's framework — enumerate simple-path
//!    explanations ([`enumerate::paths`], three algorithms) and combine them
//!    bottom-up ([`enumerate::union`], with and without composition-history
//!    pruning).
//! 2. **Ranking** ([`ranking`]): score explanations with structural,
//!    aggregate, and distributional [`measures`] and return the top-k —
//!    optionally interleaving enumeration with anti-monotonic pruning
//!    (Theorem 4) or `LIMIT`-pruned distributional evaluation (§5.3.2).
//!
//! ## Quick start
//!
//! ```
//! use rex_core::{enumerate::GeneralEnumerator, measures::SizeMeasure, ranking};
//! use rex_core::EnumConfig;
//!
//! let kb = rex_kb::toy::entertainment();
//! let start = kb.require_node("brad_pitt").unwrap();
//! let end = kb.require_node("angelina_jolie").unwrap();
//!
//! // Enumerate all minimal explanations with at most 5 pattern nodes.
//! let enumerator = GeneralEnumerator::new(EnumConfig::default());
//! let explanations = enumerator.enumerate(&kb, start, end).explanations;
//!
//! // Rank by pattern size (smaller = more interesting).
//! let ctx = rex_core::measures::MeasureContext::new(&kb, start, end);
//! let top = ranking::rank(&explanations, &SizeMeasure, &ctx, 3);
//! assert!(!top.is_empty());
//! // The most compact explanation of Brad & Angelina is their marriage.
//! let best = &explanations[top[0].index];
//! assert_eq!(best.pattern.describe(&kb), "(start)-[spouse]-(end)");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod canon;
pub mod canonical;
mod config;
pub mod decorate;
pub mod enumerate;
mod error;
pub mod explanation;
pub mod instance;
pub mod matcher;
pub mod measures;
pub mod pattern;
pub mod properties;
pub mod query;
pub mod ranking;

pub use config::EnumConfig;
pub use error::{CoreError, Result};
pub use explanation::Explanation;
pub use instance::Instance;
pub use pattern::{Pattern, PatternEdge, VarId, END_VAR, START_VAR};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for cross-checking enumeration algorithms.

    use crate::canonical::canonical_form;
    use crate::explanation::Explanation;

    /// Canonical signature of an explanation set: for each explanation, the
    /// canonical pattern key plus its instances rewritten into canonical
    /// variable order and sorted. Two algorithm outputs are semantically
    /// identical iff their signatures are equal, regardless of how each
    /// algorithm happened to number the pattern variables.
    pub fn signature(expls: &[Explanation]) -> Vec<(Vec<u64>, Vec<Vec<u32>>)> {
        let mut sig: Vec<(Vec<u64>, Vec<Vec<u32>>)> = expls
            .iter()
            .map(|e| {
                let (key, relabel) = canonical_form(&e.pattern);
                let mut insts: Vec<Vec<u32>> = e
                    .instances
                    .iter()
                    .map(|i| {
                        let vals = i.as_slice();
                        let mut canon = vec![0u32; vals.len()];
                        for (old, &node) in vals.iter().enumerate() {
                            canon[relabel[old] as usize] = node.0;
                        }
                        canon
                    })
                    .collect();
                insts.sort_unstable();
                (key.as_slice().to_vec(), insts)
            })
            .collect();
        sig.sort_unstable();
        sig
    }
}
