//! Property-based cross-checks between independent implementations:
//! the gSpan-style baseline vs the path-union framework, the native
//! matcher vs the relational engine, and the solver vs first principles.

use proptest::prelude::*;
use rex_core::enumerate::naive::NaiveEnumerator;
use rex_core::enumerate::{GeneralEnumerator, PathAlgo, UnionAlgo};
use rex_core::matcher::{find_instances, MatchOptions};
use rex_core::EnumConfig;
use rex_kb::{KbBuilder, KnowledgeBase, NodeId};
use rex_relstore::engine::{local_count_distribution, oriented_edge_relation};

/// A random small multigraph: `nodes` in 4..=9, a list of edges over 4
/// labels with random direction flags.
fn arb_kb() -> impl Strategy<Value = (KnowledgeBase, NodeId, NodeId)> {
    (4u32..=9, 5usize..=16)
        .prop_flat_map(|(n, m)| {
            let edge = (0..n, 0..n, 0u32..4, any::<bool>());
            (Just(n), proptest::collection::vec(edge, m))
        })
        .prop_map(|(n, edges)| {
            let mut b = KbBuilder::new();
            let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
            for (u, v, l, directed) in edges {
                if u == v {
                    continue; // REX semantics never uses self-loops
                }
                let label = format!("l{l}");
                if directed {
                    b.add_directed_edge(ids[u as usize], ids[v as usize], &label).unwrap();
                } else {
                    b.add_undirected_edge(ids[u as usize], ids[v as usize], &label).unwrap();
                }
            }
            let kb = b.build();
            (kb, ids[0], ids[1])
        })
}

/// Canonical signature (pattern keys only) of an explanation set.
fn keys(expls: &[rex_core::Explanation]) -> Vec<Vec<u64>> {
    let mut ks: Vec<Vec<u64>> = expls.iter().map(|e| e.key().as_slice().to_vec()).collect();
    ks.sort_unstable();
    ks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The central equivalence of the paper's §3: the pattern-growth
    /// baseline (Algorithm 1) and the path-union framework (Algorithm 2)
    /// produce exactly the same minimal explanations.
    #[test]
    fn naive_equals_framework((kb, a, b) in arb_kb()) {
        let config = EnumConfig::default().with_max_nodes(4);
        let naive = NaiveEnumerator::new(config.clone()).enumerate(&kb, a, b);
        let framework = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        prop_assert_eq!(keys(&naive.explanations), keys(&framework.explanations));
    }

    /// All six path × union combinations agree.
    #[test]
    fn framework_variants_agree((kb, a, b) in arb_kb()) {
        let config = EnumConfig::default().with_max_nodes(4);
        let reference = GeneralEnumerator::with_algorithms(
            config.clone(), PathAlgo::Naive, UnionAlgo::Basic,
        ).enumerate(&kb, a, b);
        for path_algo in [PathAlgo::Basic, PathAlgo::Prioritized] {
            for union_algo in [UnionAlgo::Basic, UnionAlgo::Prune] {
                let out = GeneralEnumerator::with_algorithms(
                    config.clone(), path_algo, union_algo,
                ).enumerate(&kb, a, b);
                prop_assert_eq!(
                    keys(&reference.explanations),
                    keys(&out.explanations),
                    "{:?}/{:?}", path_algo, union_algo
                );
            }
        }
    }

    /// Instance sets produced by the union framework match the independent
    /// backtracking matcher, pattern by pattern, at the paper's pattern
    /// size 5, where a path has up to three free variables.
    #[test]
    fn union_instances_match_matcher((kb, a, b) in arb_kb()) {
        let config = EnumConfig::default().with_max_nodes(5);
        let out = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        for e in &out.explanations {
            let m = find_instances(&kb, &e.pattern, a, b, MatchOptions::default());
            let mut got: Vec<_> = e.instances.iter().map(|i| i.as_slice().to_vec()).collect();
            let mut want: Vec<_> = m.instances.iter().map(|i| i.as_slice().to_vec()).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// The relational engine's grouped counts agree with the matcher for
    /// every discovered pattern: for the fixed start, the count of the
    /// fixed end equals the explanation's instance count.
    #[test]
    fn relational_counts_match((kb, a, b) in arb_kb()) {
        let config = EnumConfig::default().with_max_nodes(4);
        let out = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        let rel = oriented_edge_relation(&kb);
        for e in out.explanations.iter().take(10) {
            let dist = local_count_distribution(&rel, &e.pattern.to_spec(), a.0 as u64)
                .expect("valid spec");
            let got = dist.get(&(b.0 as u64)).copied().unwrap_or(0);
            prop_assert_eq!(got, e.count() as u64, "{:?}", e.pattern);
        }
    }

    /// Every reported explanation is minimal, within the size limit, and
    /// has only valid instances.
    #[test]
    fn outputs_are_minimal_and_valid((kb, a, b) in arb_kb()) {
        let config = EnumConfig::default().with_max_nodes(5);
        let out = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        for e in &out.explanations {
            prop_assert!(rex_core::properties::is_minimal(&e.pattern));
            prop_assert!(e.pattern.var_count() <= 5);
            prop_assert!(!e.instances.is_empty());
            for i in &e.instances {
                prop_assert!(rex_core::instance::satisfies(&kb, &e.pattern, i, true));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The streaming (pipelined LIMIT) position query agrees with the
    /// materialized GROUP BY/HAVING/LIMIT computation for every discovered
    /// pattern, every aggregate threshold, and every limit, unbounded
    /// included.
    #[test]
    fn streaming_position_matches_materialized((kb, a, b) in arb_kb()) {
        use rex_relstore::engine::{local_position_indexed, EdgeIndex};
        use rex_relstore::ops::group_count_having_limit;
        use rex_relstore::plan::StartBinding;
        let config = EnumConfig::default().with_max_nodes(4);
        let out = GeneralEnumerator::new(config).enumerate(&kb, a, b);
        let index = EdgeIndex::build(&kb);
        for e in out.explanations.iter().take(8) {
            let spec = e.pattern.to_spec();
            let binding = StartBinding::Const(a.0 as u64);
            let (instances, _) = spec.evaluate_indexed(&index, &binding).expect("valid");
            for c in [0u64, 1, 2] {
                let full = group_count_having_limit(&instances, &[spec.end], c, usize::MAX)
                    .expect("group")
                    .len();
                for limit in [0usize, 1, 2, 1000, usize::MAX] {
                    let (streamed, _) = local_position_indexed(&index, &spec, a.0 as u64, c, limit)
                        .expect("stream");
                    prop_assert_eq!(streamed, full.min(limit), "c={} limit={}", c, limit);
                }
            }
        }
    }
}
