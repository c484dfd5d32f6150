//! Explanation enumeration (paper §3).
//!
//! Two routes produce the same set of minimal explanations:
//!
//! * [`naive::NaiveEnumerator`] — Algorithm 1, the gSpan-style
//!   pattern-growth baseline. Generates *all* connected patterns with
//!   instances (minimal or not) and filters; kept as the experimental
//!   baseline of Figure 7 and as a cross-checking oracle in tests.
//! * [`GeneralEnumerator`] — Algorithm 2, the paper's framework:
//!   1. enumerate simple-path explanations ([`paths`], pick one of three
//!      algorithms), then
//!   2. combine them into all minimal explanations ([`union`], with or
//!      without the Theorem-3 composition-history pruning of Algorithm 4).
//!
//! Every algorithm reports [`EnumStats`] counters so benchmarks can explain
//! *why* one variant beats another.

pub mod naive;
pub mod paths;
pub mod union;

use rex_kb::{KnowledgeBase, NodeId};

use crate::config::EnumConfig;
use crate::explanation::Explanation;

/// Which path-enumeration algorithm to run (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathAlgo {
    /// Unidirectional DFS from the start entity (`PathEnumNaive`): explores
    /// the whole length-limited ball around the start node.
    Naive,
    /// Bidirectional expansion with a fixed ⌈l/2⌉ / ⌊l/2⌋ depth split,
    /// shorter paths first (`PathEnumBasic`, after BANKS).
    Basic,
    /// Bidirectional expansion whose per-side depths are chosen adaptively
    /// by activation scores — the side whose frontier is cheaper (higher
    /// activation = lower total degree) expands first (`PathEnumPrioritized`,
    /// after BANKS2). BANKS2 chooses node by node; here a whole frontier
    /// level grows at once, which changes the work done but not the paths
    /// found.
    #[default]
    Prioritized,
}

/// Which path-combination algorithm to run (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnionAlgo {
    /// Algorithm 3: every explanation of the previous round merges with
    /// every path explanation.
    Basic,
    /// Algorithm 4: composition-history pruning (Theorem 3) — an
    /// explanation only merges with the paths its *siblings* (explanations
    /// sharing a parent) were built from.
    #[default]
    Prune,
}

/// Counters describing the work an enumeration performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Partial paths expanded by the path enumerator.
    pub partial_paths: usize,
    /// Full path instances produced.
    pub path_instances: usize,
    /// Path patterns (MinP(1)) produced.
    pub path_patterns: usize,
    /// `merge()` invocations during the union phase.
    pub merge_calls: usize,
    /// Instance pairs examined inside merges.
    pub instance_pairs: usize,
    /// Candidate explanations rejected as duplicates.
    pub duplicates: usize,
    /// Patterns expanded by the naive enumerator.
    pub patterns_expanded: usize,
    /// Final number of minimal explanations.
    pub explanations: usize,
}

/// The result of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumOutput {
    /// All minimal explanations with at least one instance, pattern size
    /// ≤ the configured limit. Order is deterministic.
    pub explanations: Vec<Explanation>,
    /// Work counters.
    pub stats: EnumStats,
}

/// Algorithm 2 (`GeneralEnumFramework`): path enumeration followed by path
/// union. This is the production entry point of REX.
#[derive(Debug, Clone)]
pub struct GeneralEnumerator {
    config: EnumConfig,
    path_algo: PathAlgo,
    union_algo: UnionAlgo,
}

impl GeneralEnumerator {
    /// Enumerator with the default (fastest) algorithms:
    /// `PathEnumPrioritized + PathUnionPrune`.
    pub fn new(config: EnumConfig) -> Self {
        GeneralEnumerator {
            config,
            path_algo: PathAlgo::default(),
            union_algo: UnionAlgo::default(),
        }
    }

    /// Enumerator with explicit algorithm choices (used by the Figure-7
    /// benchmark matrix).
    pub fn with_algorithms(config: EnumConfig, path_algo: PathAlgo, union_algo: UnionAlgo) -> Self {
        GeneralEnumerator { config, path_algo, union_algo }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnumConfig {
        &self.config
    }

    /// Enumerates all minimal explanations for `(vstart, vend)` with
    /// pattern size up to the configured limit.
    pub fn enumerate(&self, kb: &KnowledgeBase, vstart: NodeId, vend: NodeId) -> EnumOutput {
        let mut stats = EnumStats::default();
        let path_expls =
            paths::enumerate_paths(kb, vstart, vend, &self.config, self.path_algo, &mut stats);
        let explanations = match self.union_algo {
            UnionAlgo::Basic => union::path_union_basic(path_expls, &self.config, &mut stats),
            UnionAlgo::Prune => union::path_union_prune(path_expls, &self.config, &mut stats),
        };
        stats.explanations = explanations.len();
        EnumOutput { explanations, stats }
    }
}
