//! Differential suite for the query-compiler unification: paper shapes
//! generated through the `rex-query` MATCH templates must be identical —
//! structurally and in evaluated distributions, byte for byte — to the
//! legacy hand-numbered shape construction they replaced.

use proptest::prelude::*;
use rex_core::pattern::{EdgeDir, Pattern, PatternEdge, VarId, END_VAR, START_VAR};
use rex_kb::LabelId;
use rex_query::templates::StepDir;
use rex_relstore::engine::EdgeIndex;
use rex_tests::differential::{indexed_distributions, reference_distributions};
use rex_tests::scaffold;

/// The pre-refactor hand-numbered path construction, kept verbatim as
/// the differential reference: if the template + compiler path ever
/// drifts from this numbering, the structural and distribution pins
/// below fail.
fn legacy_path(steps: &[(LabelId, EdgeDir)]) -> Pattern {
    let len = steps.len();
    let var_count = (len + 1) as u8; // start, end, len-1 intermediates
    let node_at = |i: usize| -> VarId {
        if i == 0 {
            START_VAR
        } else if i == len {
            END_VAR
        } else {
            VarId((i + 1) as u8)
        }
    };
    let edges = steps
        .iter()
        .enumerate()
        .map(|(i, &(label, dir))| {
            let (a, b) = (node_at(i), node_at(i + 1));
            match dir {
                EdgeDir::Forward => PatternEdge::new(a, b, label, true),
                EdgeDir::Backward => PatternEdge::new(b, a, label, true),
                EdgeDir::Undirected => PatternEdge::new(a, b, label, false),
            }
        })
        .collect();
    Pattern::new(var_count.max(2), edges).expect("legacy construction is valid")
}

fn dir_of(code: u8) -> EdgeDir {
    match code % 3 {
        0 => EdgeDir::Forward,
        1 => EdgeDir::Backward,
        _ => EdgeDir::Undirected,
    }
}

fn step_dir(dir: EdgeDir) -> StepDir {
    match dir {
        EdgeDir::Forward => StepDir::Forward,
        EdgeDir::Backward => StepDir::Backward,
        EdgeDir::Undirected => StepDir::Undirected,
    }
}

/// The scaffold shape universe expressed as MATCH text over the
/// scaffold's label names — every `scaffold::shape` has a query-language
/// spelling.
fn shape_text(idx: usize) -> String {
    use rex_query::templates::{path_text, star_text};
    let f = StepDir::Forward;
    let b = StepDir::Backward;
    let u = StepDir::Undirected;
    match idx {
        0 => path_text(&[("l0", f)]),
        1 => path_text(&[("l1", b)]),
        2 => path_text(&[("l2", u)]),
        3 => path_text(&[("l0", f), ("l1", f)]),
        4 => path_text(&[("l1", b), ("l2", b)]),
        5 => star_text(&[("l3", f, "l3", b)]),
        6 => star_text(&[("l4", b, "l4", f)]),
        // The self-loop shape has no template; it is plain MATCH text.
        7 => "MATCH (a)-[:l0]-(a), (a)-[:l1]->(b) WHERE a = $start AND b = $end".into(),
        8 => path_text(&[("l0", f), ("l1", u), ("l2", f)]),
        9 => "MATCH (a)-[:l0]->(m), (b)-[:l1]->(m), (a)-[:l3]->(n), (b)-[:l3]->(n) \
              WHERE a = $start AND b = $end"
            .into(),
        10 => "MATCH (a)-[:l0]->(m), (b)-[:l1]->(m), (a)-[:l3]->(n), (b)-[:l3]->(n), \
               (n)-[:l4]-(n) WHERE a = $start AND b = $end"
            .into(),
        11 => "MATCH (a)-[:l0]->(g), (b)-[:l0]->(g), (b)-[:l1]->(w), (v)-[:l2]->(g), \
               (v)-[:l3]->(w) WHERE a = $start AND b = $end"
            .into(),
        _ => unreachable!("scaffold has 12 shapes"),
    }
}

/// Every scaffold shape, compiled from its MATCH spelling, evaluates to
/// byte-identical distributions with the hand-built `PatternSpec` — on
/// both the definitional full-scan path and the planned indexed path.
#[test]
fn match_spelled_scaffold_shapes_pin_distributions() {
    for salt in 0..3u64 {
        let kb = scaffold::base_kb(0xD1FF, salt);
        let index = EdgeIndex::build(&kb);
        for idx in 0..scaffold::shape_count() {
            let text = shape_text(idx);
            let q = rex_core::query::compile_text(&text, &kb)
                .unwrap_or_else(|e| panic!("shape {idx}: {}", e.render(&text)));
            let compiled_spec = q.pattern.to_spec();
            let legacy_spec = scaffold::shape(idx);
            let reference = reference_distributions(&kb, &legacy_spec, None);
            assert_eq!(
                reference_distributions(&kb, &compiled_spec, None),
                reference,
                "shape {idx} (salt {salt}): compiled vs legacy reference distributions"
            );
            assert_eq!(
                indexed_distributions(&index, &compiled_spec, None),
                reference,
                "shape {idx} (salt {salt}): planned indexed path vs reference"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `Pattern::path` (template + compiler) is structurally identical to
    /// the legacy hand-numbered construction for every step sequence.
    #[test]
    fn template_paths_match_legacy_construction(
        raw in proptest::collection::vec((0u32..5, 0u8..3), 1..=5)
    ) {
        let steps: Vec<(LabelId, EdgeDir)> =
            raw.iter().map(|&(l, d)| (LabelId(l), dir_of(d))).collect();
        let template = Pattern::path(&steps).unwrap();
        let legacy = legacy_path(&steps);
        prop_assert_eq!(&template, &legacy, "byte-identical normalized patterns");
    }

    /// The same steps written as MATCH text (via `path_text`) compile to
    /// the same pattern, and all three spellings agree on evaluated
    /// distributions over randomized KBs.
    #[test]
    fn text_template_and_legacy_distributions_agree(
        raw in proptest::collection::vec((0u32..5, 0u8..3), 1..=4),
        seed in 0u64..1000,
        salt in 0u64..4,
    ) {
        let steps: Vec<(LabelId, EdgeDir)> =
            raw.iter().map(|&(l, d)| (LabelId(l), dir_of(d))).collect();
        let named: Vec<(&str, StepDir)> = raw
            .iter()
            .zip(&steps)
            .map(|(&(l, _), &(_, dir))| (scaffold::LABELS[l as usize], step_dir(dir)))
            .collect();
        let kb = scaffold::base_kb(seed, salt);
        let text = rex_query::templates::path_text(&named);
        let q = rex_core::query::compile_text(&text, &kb)
            .unwrap_or_else(|e| panic!("{}", e.render(&text)));
        let template = Pattern::path(&steps).unwrap();
        prop_assert_eq!(&q.pattern, &template, "text vs template pattern");

        let spec = template.to_spec();
        let legacy_spec = legacy_path(&steps).to_spec();
        let reference = reference_distributions(&kb, &legacy_spec, None);
        prop_assert_eq!(
            &reference_distributions(&kb, &spec, None),
            &reference,
            "template vs legacy reference distributions"
        );
        let index = EdgeIndex::build(&kb);
        prop_assert_eq!(
            &indexed_distributions(&index, &spec, None),
            &reference,
            "planned indexed evaluation vs reference"
        );
    }
}

/// Isomorphic user queries share one distribution-cache entry: the cache
/// keys on the canonical compiled form, so the second spelling is a hit.
#[test]
fn isomorphic_queries_share_cache_entries() {
    let kb = scaffold::base_kb(7, 7);
    let index = EdgeIndex::build(&kb);
    let q1 = rex_core::query::compile_text(
        "MATCH (x)-[:l3]->(film)<-[:l3]-(y) WHERE x = $start AND y = $end",
        &kb,
    )
    .unwrap();
    let q2 = rex_core::query::compile_text(
        "MATCH (p)-[:l3]->(m), (q)-[:l3]->(m) WHERE p = $start AND q = $end RETURN *",
        &kb,
    )
    .unwrap();
    assert_eq!(
        rex_core::query::canonical_text(&q1.pattern, &kb),
        rex_core::query::canonical_text(&q2.pattern, &kb),
        "canonical texts agree"
    );

    let cache = rex_core::measures::DistributionCache::new();
    let e1 = rex_core::Explanation::new(q1.pattern.clone(), vec![]);
    let e2 = rex_core::Explanation::new(q2.pattern.clone(), vec![]);
    assert_eq!(e1.key(), e2.key(), "canonical pattern keys agree");
    let c1 = cache.counts(&index, &e1, 0);
    assert_eq!(cache.stats(), (0, 1), "the first spelling misses once");
    let c2 = cache.counts(&index, &e2, 0);
    assert_eq!(cache.stats(), (1, 1), "second spelling must hit the first's cache entry");
    assert_eq!(c1, c2, "both spellings read the same multiset");
}
