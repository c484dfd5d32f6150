//! Integration test crate (tests live in tests/), plus the shared
//! scaffolding the incremental, concurrent, and endpoint-index suites
//! build on.

pub mod scaffold {
    //! Deterministic KB scaffolding shared by the incremental-maintenance
    //! and snapshot-serving test suites, so the two cannot silently
    //! diverge on the base-KB shape or the mutation-op semantics.

    use rex_kb::{EdgeId, KbBuilder, KnowledgeBase, LabelId, NodeId};

    /// The label universe every scaffolded KB pre-interns.
    pub const LABELS: [&str; 5] = ["l0", "l1", "l2", "l3", "l4"];

    /// A small deterministic base KB: 20 nodes, the label universe
    /// pre-interned, a connected core between `n0` and `n1` (so
    /// enumeration always finds explanations), and a `(seed, salt)`-
    /// dependent tail of edges (the salt keeps suites on distinct yet
    /// reproducible tails).
    pub fn base_kb(seed: u64, salt: u64) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let nodes: Vec<NodeId> = (0..20).map(|i| b.add_node(&format!("n{i}"), "T")).collect();
        for l in LABELS {
            b.intern_label(l).unwrap();
        }
        b.add_directed_edge(nodes[0], nodes[1], "l0").unwrap();
        b.add_undirected_edge(nodes[0], nodes[2], "l1").unwrap();
        b.add_directed_edge(nodes[2], nodes[1], "l1").unwrap();
        b.add_directed_edge(nodes[1], nodes[3], "l2").unwrap();
        let mut state = seed.wrapping_add(salt);
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for _ in 0..30 {
            let u = nodes[next(20) as usize];
            let v = nodes[next(20) as usize];
            let l = LABELS[next(5) as usize];
            if next(2) == 0 {
                b.add_directed_edge(u, v, l).unwrap();
            } else {
                b.add_undirected_edge(u, v, l).unwrap();
            }
        }
        b.build()
    }

    /// One randomized mutation: `(kind, a, b, label, directed)`.
    pub type Op = (u8, usize, usize, usize, bool);

    /// A small universe of connected pattern shapes over the scaffold's
    /// label space — paths of both orientations, a fork, an inverse fork,
    /// a self-loop-at-start shape, a three-edge mixed path, three
    /// shapes whose last bound variable can be an existential the
    /// depth-first walk counts instead of enumerating (two forks sharing
    /// start and end, the same with a self-loop on the counted
    /// candidate, and a five-variable cycle), and a five-variable path
    /// whose end level reads one list, alone and with a doubled last hop
    /// whose end level intersects two — indexed so property tests can
    /// draw a shape with one integer. Every shape passes
    /// `PatternSpec::validate` (checked once at first use).
    pub fn shape(idx: usize) -> rex_relstore::plan::PatternSpec {
        let shapes = shapes();
        shapes[idx % shapes.len()].clone()
    }

    /// Number of shapes [`shape`] cycles through.
    pub fn shape_count() -> usize {
        shapes().len()
    }

    fn shapes() -> &'static [rex_relstore::plan::PatternSpec] {
        use rex_relstore::plan::{PatternSpec, SpecEdge};
        static SHAPES: std::sync::OnceLock<Vec<PatternSpec>> = std::sync::OnceLock::new();
        SHAPES.get_or_init(|| {
            let e =
                |u: usize, v: usize, label: u64, directed: bool| SpecEdge { u, v, label, directed };
            let shapes = vec![
                // start -l0-> end
                PatternSpec { var_count: 2, start: 0, end: 1, edges: vec![e(0, 1, 0, true)] },
                // end -l1-> start (the start variable sits at the head: the
                // probe must go through the dst posting)
                PatternSpec { var_count: 2, start: 0, end: 1, edges: vec![e(1, 0, 1, true)] },
                // start -l2- end (undirected)
                PatternSpec { var_count: 2, start: 0, end: 1, edges: vec![e(0, 1, 2, false)] },
                // start -l0-> v2 -l1-> end
                PatternSpec {
                    var_count: 3,
                    start: 0,
                    end: 1,
                    edges: vec![e(0, 2, 0, true), e(2, 1, 1, true)],
                },
                // v2 -l1-> start, end -l2-> v2 (start at head again)
                PatternSpec {
                    var_count: 3,
                    start: 0,
                    end: 1,
                    edges: vec![e(2, 0, 1, true), e(1, 2, 2, true)],
                },
                // fork: start -l3-> v2 <-l3- end
                PatternSpec {
                    var_count: 3,
                    start: 0,
                    end: 1,
                    edges: vec![e(0, 2, 3, true), e(1, 2, 3, true)],
                },
                // inverse fork: v2 -l4-> start, v2 -l4-> end
                PatternSpec {
                    var_count: 3,
                    start: 0,
                    end: 1,
                    edges: vec![e(2, 0, 4, true), e(2, 1, 4, true)],
                },
                // self-loop at the start plus an edge to the end
                PatternSpec {
                    var_count: 2,
                    start: 0,
                    end: 1,
                    edges: vec![e(0, 0, 0, false), e(0, 1, 1, true)],
                },
                // start -l0-> v2 -l1- v3 -l2-> end
                PatternSpec {
                    var_count: 4,
                    start: 0,
                    end: 1,
                    edges: vec![e(0, 2, 0, true), e(2, 3, 1, false), e(3, 1, 2, true)],
                },
                // two forks sharing start and end: start -l0-> v2 <-l1-
                // end, start -l3-> v3 <-l3- end (either existential can
                // go last, and the walk counts it)
                PatternSpec {
                    var_count: 4,
                    start: 0,
                    end: 1,
                    edges: vec![
                        e(0, 2, 0, true),
                        e(1, 2, 1, true),
                        e(0, 3, 3, true),
                        e(1, 3, 3, true),
                    ],
                },
                // the same with a self-loop v3 -l4- v3 on a counted
                // candidate
                PatternSpec {
                    var_count: 4,
                    start: 0,
                    end: 1,
                    edges: vec![
                        e(0, 2, 0, true),
                        e(1, 2, 1, true),
                        e(0, 3, 3, true),
                        e(1, 3, 3, true),
                        e(3, 3, 4, false),
                    ],
                },
                // a 5-variable cycle with one repeated label: start -l0->
                // v2 <-l0- end -l1-> v4 <-l3- v3 -l2-> v2
                PatternSpec {
                    var_count: 5,
                    start: 0,
                    end: 1,
                    edges: vec![
                        e(0, 2, 0, true),
                        e(1, 2, 0, true),
                        e(1, 4, 1, true),
                        e(3, 2, 2, true),
                        e(3, 4, 3, true),
                    ],
                },
                // a 5-variable path: start -l0-> v2 -l1-> v3 -l2-> v4
                // -l3-> end (the end goes last and reads one list)
                PatternSpec {
                    var_count: 5,
                    start: 0,
                    end: 1,
                    edges: vec![
                        e(0, 2, 0, true),
                        e(2, 3, 1, true),
                        e(3, 4, 2, true),
                        e(4, 1, 3, true),
                    ],
                },
                // the same path with a doubled last hop v4 -l4-> end (the
                // end intersects two lists keyed by v4)
                PatternSpec {
                    var_count: 5,
                    start: 0,
                    end: 1,
                    edges: vec![
                        e(0, 2, 0, true),
                        e(2, 3, 1, true),
                        e(3, 4, 2, true),
                        e(4, 1, 3, true),
                        e(4, 1, 4, true),
                    ],
                },
            ];
            for spec in &shapes {
                spec.validate().expect("scaffold shapes are valid");
            }
            shapes
        })
    }

    /// Applies a proptest-generated op sequence: edge inserts, edge
    /// removes (or a self-loop insert when the KB has no edges), and
    /// node inserts anchored to an existing node. `tag` namespaces the
    /// fresh-node names so repeated calls on one KB stay collision-free.
    pub fn apply_ops(kb: &mut KnowledgeBase, ops: &[Op], tag: &str) {
        let mut fresh = 0usize;
        for &(kind, a, b, label, directed) in ops {
            match kind % 3 {
                0 => {
                    let src = NodeId((a % kb.node_count()) as u32);
                    let dst = NodeId((b % kb.node_count()) as u32);
                    kb.insert_edge(src, dst, LabelId(label as u32 % 5), directed).unwrap();
                }
                1 => {
                    if kb.edge_count() > 0 {
                        kb.remove_edge(EdgeId((a % kb.edge_count()) as u32)).unwrap();
                    } else {
                        let dst = NodeId((b % kb.node_count()) as u32);
                        kb.insert_edge(dst, dst, LabelId(label as u32 % 5), directed).unwrap();
                    }
                }
                _ => {
                    let anchor = NodeId((a % kb.node_count()) as u32);
                    let new = kb.insert_node(&format!("fresh-{tag}-{fresh}"), "T");
                    fresh += 1;
                    kb.insert_edge(new, anchor, LabelId(label as u32 % 5), directed).unwrap();
                }
            }
        }
    }
}

pub mod differential {
    //! The naive full-scan reference evaluator behind the endpoint-index
    //! differential suite: grouped `(start, end)` counts computed over
    //! the **unindexed** oriented edge relation with filter-based scans —
    //! no partitions, no posting lists, no probes — so a divergence
    //! between this and the probe path localizes a bug to the endpoint
    //! index rather than to shared evaluation code.

    use std::collections::HashMap;

    use rex_kb::KnowledgeBase;
    use rex_relstore::engine::{oriented_edge_relation, EdgeIndex};
    use rex_relstore::plan::{PatternSpec, StartBinding};
    use rex_relstore::Relation;

    /// The per-start descending count multisets of `spec` over `kb`,
    /// evaluated the slow definitional way: one filter-based evaluation
    /// of the full oriented relation, grouped by `(start, end)`. With
    /// `starts = None` the start variable ranges over every entity;
    /// otherwise it is restricted to the given set (ids with no incident
    /// rows — or not in the KB at all — simply produce no entry).
    ///
    /// This is exactly the result shape of
    /// `rex_relstore::engine::count_distributions`, so the probe path can
    /// be compared byte-for-byte.
    pub fn reference_distributions(
        kb: &KnowledgeBase,
        spec: &PatternSpec,
        starts: Option<&[u64]>,
    ) -> HashMap<u64, Vec<u64>> {
        let rel = oriented_edge_relation(kb);
        let binding = match starts {
            Some(list) => StartBinding::among(list.iter().copied()),
            None => StartBinding::Unbound,
        };
        let instances =
            spec.evaluate_with(&rel, &binding).expect("reference evaluation accepts valid specs");
        group_by_start(&instances, spec)
    }

    /// The same grouping on the **indexed** probe path: one planned,
    /// enumerating evaluation over `index` (the start variable unbound
    /// when `starts` is `None`), grouped by `(start, end)`. The baseline
    /// the counting `count_distributions` path must reproduce, and the
    /// only way to group an unbound start variable.
    pub fn indexed_distributions(
        index: &EdgeIndex,
        spec: &PatternSpec,
        starts: Option<&[u64]>,
    ) -> HashMap<u64, Vec<u64>> {
        let binding = match starts {
            Some(list) => StartBinding::among(list.iter().copied()),
            None => StartBinding::Unbound,
        };
        let (instances, _) =
            spec.evaluate_indexed(index, &binding).expect("indexed evaluation accepts valid specs");
        group_by_start(&instances, spec)
    }

    /// Groups an instance relation of `spec` by `(start, end)`: per start,
    /// the descending multiset of its per-end instance counts.
    fn group_by_start(instances: &Relation, spec: &PatternSpec) -> HashMap<u64, Vec<u64>> {
        let mut pair_counts: HashMap<(u64, u64), u64> = HashMap::new();
        for row in instances.rows() {
            *pair_counts.entry((row[spec.start], row[spec.end])).or_insert(0) += 1;
        }
        let mut per_start: HashMap<u64, Vec<u64>> = HashMap::new();
        for ((start, _end), count) in pair_counts {
            per_start.entry(start).or_default().push(count);
        }
        for counts in per_start.values_mut() {
            counts.sort_unstable_by(|a, b| b.cmp(a));
        }
        per_start
    }
}
