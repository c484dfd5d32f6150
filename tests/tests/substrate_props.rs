//! Property tests for the substrate crates: relational operators against
//! naive reference implementations, knowledge-base adjacency invariants,
//! and the edge index's bulk build against postings built from the
//! oriented edge relation's rows.

use proptest::prelude::*;
use rex_kb::{KbBuilder, Orientation};
use rex_relstore::expr::Predicate;
use rex_relstore::ops::{distinct, filter, group_count, hash_join, project};
use rex_relstore::{Relation, Schema};

fn arb_rows(cols: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..6, cols..=cols), 0..=max_rows)
}

fn relation_of(cols: usize, rows: &[Vec<u64>]) -> Relation {
    Relation::from_rows(Schema::new((0..cols).map(|i| format!("c{i}"))), rows)
        .expect("arity matches")
}

fn arb_relation(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    arb_rows(cols, max_rows).prop_map(move |rows| relation_of(cols, &rows))
}

fn rows_of(rel: &Relation) -> Vec<Vec<u64>> {
    rel.rows().map(<[u64]>::to_vec).collect()
}

/// The join's documented output order, spelled as nested loops over plain
/// rows: the smaller side (left on ties) is the build side; matches come
/// in probe-row order, then build insertion order within one probe row.
fn reference_join(
    l: &[Vec<u64>],
    r: &[Vec<u64>],
    l_keys: &[usize],
    r_keys: &[usize],
) -> Vec<Vec<u64>> {
    let matches =
        |lr: &Vec<u64>, rr: &Vec<u64>| l_keys.iter().zip(r_keys).all(|(&a, &b)| lr[a] == rr[b]);
    let concat = |lr: &Vec<u64>, rr: &Vec<u64>| [lr.as_slice(), rr.as_slice()].concat();
    let mut out = Vec::new();
    if l.len() <= r.len() {
        for rr in r {
            out.extend(l.iter().filter(|lr| matches(lr, rr)).map(|lr| concat(lr, rr)));
        }
    } else {
        for lr in l {
            out.extend(r.iter().filter(|rr| matches(lr, rr)).map(|rr| concat(lr, rr)));
        }
    }
    out
}

/// First occurrences of every row, in input order.
fn reference_distinct(rows: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = Vec::new();
    for row in rows {
        if !out.contains(row) {
            out.push(row.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Hash join equals the nested-loop reference on random relations.
    #[test]
    fn join_matches_nested_loop(l in arb_relation(2, 24), r in arb_relation(2, 24)) {
        let j = hash_join(&l, &r, &[1], &[0]);
        let mut expected: Vec<Vec<u64>> = Vec::new();
        for lr in l.rows() {
            for rr in r.rows() {
                if lr[1] == rr[0] {
                    let mut row = lr.to_vec();
                    row.extend_from_slice(rr);
                    expected.push(row);
                }
            }
        }
        let mut got = rows_of(&j);
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Single- and two-key joins (the planner's cycle-closing join keys on
    /// both endpoints) reproduce the reference rows in the exact order of
    /// the join's order contract, whichever side is smaller.
    #[test]
    fn join_order_matches_reference(
        l in arb_rows(3, 20),
        r in arb_rows(2, 20),
        two_keys in any::<bool>(),
        swap in any::<bool>(),
    ) {
        let (l_keys, r_keys): (&[usize], &[usize]) =
            if two_keys { (&[2, 0], &[0, 1]) } else { (&[1], &[0]) };
        let (lrel, rrel) = (relation_of(3, &l), relation_of(2, &r));
        let (got, expected) = if swap {
            (hash_join(&rrel, &lrel, r_keys, l_keys), reference_join(&r, &l, r_keys, l_keys))
        } else {
            (hash_join(&lrel, &rrel, l_keys, r_keys), reference_join(&l, &r, l_keys, r_keys))
        };
        prop_assert_eq!(got.schema().arity(), 5);
        prop_assert_eq!(rows_of(&got), expected);
    }

    /// Joins with an empty side are empty and keep the combined schema.
    #[test]
    fn zero_row_relations(rel in arb_relation(2, 16), pick in 0usize..4) {
        let empty = relation_of(2, &[]);
        let out = match pick {
            0 => hash_join(&empty, &rel, &[0], &[1]),
            1 => hash_join(&rel, &empty, &[0, 1], &[1, 0]),
            2 => distinct(&empty),
            _ => project(&filter(&empty, &Predicate::always()), &[1]),
        };
        prop_assert!(out.is_empty());
        prop_assert_eq!(out.len(), 0);
        prop_assert_eq!(out.rows().count(), 0);
        prop_assert!(group_count(&empty, &[0]).expect("valid columns").is_empty());
    }

    /// `distinct` keeps the first occurrence of every row, in input order.
    #[test]
    fn distinct_order_matches_reference(rows in arb_rows(2, 48)) {
        let got = distinct(&relation_of(2, &rows));
        prop_assert_eq!(rows_of(&got), reference_distinct(&rows));
    }

    /// A `ColEqCol` self-loop filter followed by an arity-1 projection —
    /// the first step of a self-loop pattern edge.
    #[test]
    fn self_loop_filter_then_unary_project(rows in arb_rows(2, 32)) {
        let rel = relation_of(2, &rows);
        let loops = project(&filter(&rel, &Predicate::ColEqCol { a: 0, b: 1 }), &[0]);
        let expected: Vec<Vec<u64>> =
            rows.iter().filter(|r| r[0] == r[1]).map(|r| vec![r[0]]).collect();
        prop_assert_eq!(loops.schema().names(), &["c0"]);
        prop_assert_eq!(rows_of(&loops), expected);
    }

    /// Filter + project compose like their definitional counterparts.
    #[test]
    fn filter_project_reference(rel in arb_relation(3, 32), value in 0u64..6) {
        let pred = Predicate::ColEqConst { col: 0, value };
        let f = filter(&rel, &pred);
        prop_assert!(f.rows().all(|r| r[0] == value));
        prop_assert_eq!(
            f.len(),
            rel.rows().filter(|r| r[0] == value).count()
        );
        let p = project(&f, &[2, 0]);
        prop_assert_eq!(p.schema().names(), &["c2", "c0"]);
        for (orig, proj) in f.rows().zip(p.rows()) {
            prop_assert_eq!(proj[0], orig[2]);
            prop_assert_eq!(proj[1], orig[0]);
        }
    }

    /// Group-count totals the relation and distinct is idempotent.
    #[test]
    fn group_count_and_distinct(rel in arb_relation(2, 32)) {
        let g = group_count(&rel, &[0]).expect("valid columns");
        let total: u64 = g.rows().map(|r| r[1]).sum();
        prop_assert_eq!(total as usize, rel.len());
        let d = distinct(&rel);
        let dd = distinct(&d);
        prop_assert_eq!(d.len(), dd.len());
        prop_assert!(d.len() <= rel.len());
        // Group keys of the relation and its distinct version coincide.
        let keys = |r: &Relation| {
            let mut k: Vec<u64> = r.rows().map(|x| x[0]).collect();
            k.sort_unstable();
            k.dedup();
            k
        };
        prop_assert_eq!(keys(&rel), keys(&d));
    }
}

mod kb_invariants {
    use super::*;

    pub(super) fn arb_kb() -> impl Strategy<Value = rex_kb::KnowledgeBase> {
        (2u32..=8, proptest::collection::vec((0u32..8, 0u32..8, 0u32..4, any::<bool>()), 1..24))
            .prop_map(|(n, edges)| {
                let mut b = KbBuilder::new();
                let ids: Vec<_> = (0..n).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
                for (u, v, l, directed) in edges {
                    let (u, v) = (ids[(u % n) as usize], ids[(v % n) as usize]);
                    let label = format!("l{l}");
                    if directed {
                        b.add_directed_edge(u, v, &label).unwrap();
                    } else {
                        b.add_undirected_edge(u, v, &label).unwrap();
                    }
                }
                b.build()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Every edge appears in both endpoints' adjacency with matching
        /// orientations, and label-restricted adjacency equals filtering.
        #[test]
        fn adjacency_is_consistent(kb in arb_kb()) {
            for eid in kb.edge_ids() {
                let e = kb.edge(eid);
                let src_entry = kb
                    .neighbors(e.src)
                    .iter()
                    .find(|nb| nb.edge() == eid)
                    .expect("edge in src adjacency");
                prop_assert_eq!(src_entry.other(), e.dst);
                let want = if e.directed { Orientation::Out } else { Orientation::Undirected };
                prop_assert_eq!(src_entry.orientation(), want);
                if e.src != e.dst {
                    let dst_entry = kb
                        .neighbors(e.dst)
                        .iter()
                        .find(|nb| nb.edge() == eid)
                        .expect("edge in dst adjacency");
                    prop_assert_eq!(dst_entry.other(), e.src);
                    prop_assert_eq!(dst_entry.orientation(), want.reversed());
                }
            }
            // Label slices equal filtered full adjacency.
            for node in kb.node_ids() {
                for (label, _) in kb.labels() {
                    let slice = kb.neighbors_labeled(node, label);
                    let filtered: Vec<_> =
                        kb.neighbors(node).iter().filter(|nb| nb.label() == label).collect();
                    prop_assert_eq!(slice.len(), filtered.len());
                }
            }
        }

        /// `has_edge` agrees with scanning the adjacency.
        #[test]
        fn has_edge_matches_scan(kb in arb_kb()) {
            for u in kb.node_ids() {
                for v in kb.node_ids() {
                    for (label, _) in kb.labels() {
                        for orient in [Orientation::Out, Orientation::In, Orientation::Undirected] {
                            let fast = kb.has_edge(u, v, label, orient);
                            let slow = kb.neighbors(u).iter().any(|nb| {
                                nb.other() == v && nb.label() == label && nb.orientation() == orient
                            });
                            prop_assert_eq!(fast, slow);
                        }
                    }
                }
            }
        }

        /// The degree sum equals twice the non-loop edge count plus loops.
        #[test]
        fn degree_sum_identity(kb in arb_kb()) {
            let degree_sum: usize = kb.node_ids().map(|n| kb.degree(n)).sum();
            let loops = kb
                .edge_ids()
                .filter(|&e| kb.edge(e).src == kb.edge(e).dst)
                .count();
            prop_assert_eq!(degree_sum, 2 * (kb.edge_count() - loops) + loops);
        }
    }
}

/// `EdgeIndex::build` reads its postings off the KB's sorted adjacency.
/// The reference builds each posting with `ColumnPosting::build` from the
/// partition's `oriented_edge_relation` rows, and a second reference
/// builds the whole index through delta application, which does the same
/// per partition. The build must match the first posting for posting and
/// equal the second (`==`: epoch, node count, rows and every posting), on
/// KBs with directed and undirected self-loops and parallel edges, and
/// after `insert_edge` and `remove_edge` reordered adjacency (a removal
/// re-threads the last edge's id).
mod index_build {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rex_datagen::{generate, GeneratorConfig};
    use rex_kb::{EdgeId, KbBuilder, KbDelta, KnowledgeBase, LabelId, NodeId};
    use rex_relstore::engine::{oriented_edge_relation, EdgeIndex};
    use rex_relstore::ColumnPosting;

    fn assert_build_matches_reference(kb: &KnowledgeBase, what: &str) {
        let index = EdgeIndex::build(kb);
        let mut rows: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for row in oriented_edge_relation(kb).rows() {
            rows.entry((row[2], row[3])).or_default().push((row[0], row[1]));
        }
        let stats = index.posting_stats();
        let total: usize = rows.values().map(Vec::len).sum();
        assert_eq!((stats.partitions, stats.rows, index.total_rows()), (rows.len(), total, total));
        for (&(label, dir), rows) in &rows {
            let partition = index.posting(label, dir).expect("every row's partition is built");
            let by_src = ColumnPosting::build(rows.iter().copied());
            let by_dst = ColumnPosting::build(rows.iter().map(|&(from, to)| (to, from)));
            assert_eq!(partition.endpoint(true), &by_src, "{what}: ({label}, {dir}) by_src");
            assert_eq!(partition.endpoint(false), &by_dst, "{what}: ({label}, {dir}) by_dst");
        }
        let mut reference = EdgeIndex::build(&KbBuilder::new().build());
        let every_edge = KbDelta {
            from_epoch: 0,
            to_epoch: kb.epoch(),
            added: kb.edge_ids().map(|e| kb.edge(e)).collect(),
            removed: Vec::new(),
            node_count: kb.node_count(),
        };
        reference.apply_delta(&every_edge).unwrap();
        assert!(index == reference, "{what}: the delta-built index differs");
    }

    /// Applies `(kind, a, b, label, directed)` ops: kind 0 removes an
    /// edge, any other kind inserts one (a self-loop when `a == b` modulo
    /// the node count).
    fn mutate(kb: &mut KnowledgeBase, ops: &[(u8, u32, u32, u32, bool)]) {
        let (nodes, labels) = (kb.node_count() as u32, kb.label_count() as u32);
        for &(kind, a, b, label, directed) in ops {
            if kind == 0 && kb.edge_count() > 0 {
                kb.remove_edge(EdgeId(a % kb.edge_count() as u32)).unwrap();
            } else {
                let (src, dst) = (NodeId(a % nodes), NodeId(b % nodes));
                kb.insert_edge(src, dst, LabelId(label % labels), directed).unwrap();
            }
        }
    }

    /// Deterministic ops over the whole node and label range, self-loops
    /// and removals included.
    fn scripted_ops(count: usize, seed: u64) -> Vec<(u8, u32, u32, u32, bool)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..count)
            .map(|i| {
                let a = next();
                let b = if i % 7 == 0 { a } else { next() };
                ((next() % 3) as u8, a, b, next(), next() % 2 == 0)
            })
            .collect()
    }

    #[test]
    fn build_matches_reference_on_toy_and_generated_kbs() {
        let kbs = [
            ("toy", rex_kb::toy::entertainment()),
            ("tiny", generate(&GeneratorConfig::tiny(2030))),
            ("small", generate(&GeneratorConfig::small(2030))),
        ];
        for (what, mut kb) in kbs {
            assert_build_matches_reference(&kb, what);
            let ops = scripted_ops(300, kb.edge_count() as u64);
            mutate(&mut kb, &ops);
            kb.check_invariants().unwrap();
            assert_build_matches_reference(&kb, &format!("{what} mutated"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn build_matches_reference_on_multigraphs(
            kb in super::kb_invariants::arb_kb(),
            ops in proptest::collection::vec(
                (0u8..3, 0u32..64, 0u32..64, 0u32..8, any::<bool>()),
                0..24,
            ),
        ) {
            assert_build_matches_reference(&kb, "arb_kb");
            let mut kb = kb;
            mutate(&mut kb, &ops);
            assert_build_matches_reference(&kb, "arb_kb mutated");
        }
    }
}
