//! Differential test harness for the endpoint-indexed partitions: the
//! probe path (posting-list lookups materializing only rows incident to
//! the start set) must produce counts **byte-identical** to the naive
//! full-scan reference evaluator
//! ([`rex_tests::differential::reference_distributions`]), which never
//! touches the index at all — for random KBs × shapes × start sets,
//! including starts with zero incident rows and start ids that are not
//! even entities of the KB.
//!
//! The suite also pins the two claims that make the endpoint index a
//! perf feature rather than a refactor:
//!
//! * **metrics regression** — after a 16-edge delta, the patch pass's
//!   `rows_probed` equals the rows incident to the affected starts and
//!   stays strictly below the partitions' full `scan_len` totals (the
//!   "scan floor is gone" claim as an executable invariant);
//! * **COW postings** — `next_epoch` rebuilds posting lists only for
//!   delta-touched partitions (`Arc` pointer equality for the rest).
//!
//! The differential tests also run on multigraphs ([`with_copies`]): the
//! indexed evaluator reads each partition as a *set* of `(from, to)`
//! rows, relying on the posting order to put repeated rows next to each
//! other, and a KB holding every edge two or three times must answer
//! exactly like the KB holding it once.

use proptest::prelude::*;
use rex_kb::{EdgeId, EdgeRecord, KnowledgeBase};
use rex_relstore::engine::{
    count_distributions, delta_affected_starts, local_count_distribution,
    local_count_distribution_indexed, local_position_indexed, oriented_edge_relation, EdgeIndex,
    EvalKind, EvalRequest,
};
use rex_relstore::plan::{dir_code, StartBinding};
use rex_tests::differential::{indexed_distributions, reference_distributions};
use rex_tests::scaffold::{apply_ops, base_kb, shape, shape_count};

/// The suite's deterministic base KB (distinct tail from the other
/// suites via the salt).
fn suite_kb(seed: u64) -> rex_kb::KnowledgeBase {
    base_kb(seed, 0xE1DE)
}

/// `kb` with every edge re-added until it holds `copies` of each: a
/// directed edge as itself, an undirected edge alternately as `(b, a)`
/// and `(a, b)`, so two copies hold it once each way. Every partition
/// then repeats its `(from, to)` rows.
fn with_copies(mut kb: KnowledgeBase, copies: usize) -> KnowledgeBase {
    let edges: Vec<EdgeRecord> = kb.edge_ids().map(|id| kb.edge(id)).collect();
    for copy in 1..copies {
        for e in &edges {
            let flip = !e.directed && copy % 2 == 1;
            let (src, dst) = if flip { (e.dst, e.src) } else { (e.src, e.dst) };
            kb.insert_edge(src, dst, e.label, e.directed).unwrap();
        }
    }
    kb
}

/// Every scaffold shape, evaluated unbound over the deterministic KB:
/// probe path == full-scan reference, and the whole posting traffic of
/// the `Among` path lands on `rows_probed` for start-incident edges.
#[test]
fn every_shape_matches_reference_unbound_and_among() {
    let kb = suite_kb(3);
    let index = EdgeIndex::build(&kb);
    // Start ids past the KB's node space must behave like any other
    // zero-incident start: no entry, no panic.
    let starts: Vec<u64> = (0..kb.node_count() as u64 + 8).step_by(3).collect();
    let req = EvalRequest { starts: &starts, ..Default::default() };
    for idx in 0..shape_count() {
        let spec = shape(idx);
        let unbound = indexed_distributions(&index, &spec, None);
        assert_eq!(unbound, reference_distributions(&kb, &spec, None), "shape {idx} unbound");
        let among = count_distributions(&index, &spec, &req).unwrap().per_start;
        assert_eq!(among, reference_distributions(&kb, &spec, Some(&starts)), "shape {idx} among");
    }
}

/// The `Const` probe path (single bound start, target-exclusion
/// predicates) matches the unindexed definitional evaluation for every
/// entity — and for ids outside the KB — and so does the streaming
/// position query, on the suite KB and on its 2- and 3-copy multigraphs.
#[test]
fn const_probe_matches_unindexed_local_distributions() {
    for copies in 1..=3 {
        let kb = with_copies(suite_kb(5), copies);
        let index = EdgeIndex::build(&kb);
        let rel = oriented_edge_relation(&kb);
        for idx in 0..shape_count() {
            let spec = shape(idx);
            for start in (0..kb.node_count() as u64 + 4).step_by(2) {
                let probed = local_count_distribution_indexed(&index, &spec, start).unwrap();
                let scanned = local_count_distribution(&rel, &spec, start).unwrap();
                assert_eq!(probed, scanned, "shape {idx} start {start} copies {copies}");
                for (c, limit) in [(0, 1), (0, 3), (1, 2), (0, usize::MAX - 1), (1, usize::MAX - 1)]
                {
                    let position = scanned.values().filter(|&&n| n > c).count().min(limit);
                    let (streamed, _) =
                        local_position_indexed(&index, &spec, start, c, limit).unwrap();
                    assert_eq!(
                        streamed, position,
                        "shape {idx} start {start} copies {copies}: c {c}, limit {limit}"
                    );
                }
            }
        }
    }
}

/// A dense KB over the scaffold's labels: six nodes, each ordered pair
/// (self-loops included) joined by a directed edge of a label when a
/// fixed hash of `(a, b, label)` says so, and each unordered pair likewise
/// by an undirected edge. Unlike the sparse scaffold KBs, every shape has
/// instances here, and the counted shapes' intersections routinely hold
/// values bound earlier in the walk and candidates a self-loop rejects.
fn dense_kb() -> KnowledgeBase {
    let mut b = rex_kb::KbBuilder::new();
    let nodes: Vec<_> = (0..6).map(|i| b.add_node(&format!("d{i}"), "T")).collect();
    let keep = |a: usize, c: usize, label: usize, salt: usize| {
        !(a * 7 + c * 3 + a * c + label * 5 + salt * 2).is_multiple_of(3)
    };
    for (a, &na) in nodes.iter().enumerate() {
        for (c, &nc) in nodes.iter().enumerate() {
            for (label, name) in rex_tests::scaffold::LABELS.iter().enumerate() {
                if keep(a, c, label, 0) {
                    b.add_directed_edge(na, nc, name).unwrap();
                }
                if a <= c && keep(a, c, label, 1) {
                    b.add_undirected_edge(na, nc, name).unwrap();
                }
            }
        }
    }
    b.build()
}

/// Every scaffold shape over [`dense_kb`] and its 2-copy multigraph: the
/// batched walk — which counts a trailing existential instead of
/// enumerating it — and the enumerating walk both match the full-scan
/// reference.
#[test]
fn every_shape_matches_reference_on_a_dense_kb() {
    for copies in 1..=2 {
        let kb = with_copies(dense_kb(), copies);
        let index = EdgeIndex::build(&kb);
        let starts: Vec<u64> = (0..kb.node_count() as u64).collect();
        for idx in 0..shape_count() {
            let spec = shape(idx);
            let expected = reference_distributions(&kb, &spec, None);
            assert!(!expected.is_empty(), "shape {idx} has no instances");
            let unbound = indexed_distributions(&index, &spec, None);
            assert_eq!(unbound, expected, "shape {idx} unbound, {copies} copies");
            let req = EvalRequest { starts: &starts, ..Default::default() };
            let got = count_distributions(&index, &spec, &req).unwrap().per_start;
            assert_eq!(got, expected, "shape {idx} among, {copies} copies");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The differential invariant: for random KBs, shapes, and start
    /// sets, probe-path counts are byte-identical to full-scan reference
    /// counts — unbound and `Among`, with start sets that include
    /// zero-incident and out-of-KB ids — and, on a multigraph holding
    /// every edge `copies` times, to the counts of the KB holding it
    /// once.
    #[test]
    fn probe_path_matches_full_scan_reference(
        seed in 0u64..6,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            0..14,
        ),
        shape_idx in 0usize..shape_count(),
        start_sel in proptest::collection::vec(0u64..64, 0..14),
        copies in 1usize..=3,
    ) {
        let mut once = suite_kb(seed);
        apply_ops(&mut once, &ops, "d");
        let kb = with_copies(once.clone(), copies);
        let spec = shape(shape_idx);
        let index = EdgeIndex::build(&kb);

        let expected_all = reference_distributions(&kb, &spec, None);
        let got_all = indexed_distributions(&index, &spec, None);
        prop_assert_eq!(&got_all, &expected_all, "unbound");

        let expected = reference_distributions(&kb, &spec, Some(&start_sel));
        let once_index = EdgeIndex::build(&once);
        let once_req = EvalRequest { starts: &start_sel, ..Default::default() };
        let once_got = count_distributions(&once_index, &spec, &once_req).unwrap();
        prop_assert_eq!(&once_got.per_start, &expected, "{} copies vs one", copies);
        let req = EvalRequest { starts: &start_sel, ..Default::default() };
        let got = count_distributions(&index, &spec, &req).unwrap();
        prop_assert_eq!(&got.per_start, &expected, "among");
    }

    /// The delta path: after random mutations, an incrementally
    /// maintained index's partial re-group over the affected starts is
    /// byte-identical to the full-scan reference at the new KB state —
    /// and the maintained index's probes equal a scratch rebuild's. The
    /// delta also re-adds every edge until the KB holds `copies` of each,
    /// so maintenance rebuilds postings over repeated rows, and the
    /// maintained multigraph must answer like the KB holding each edge
    /// once.
    #[test]
    fn delta_probe_path_matches_reference_after_delta(
        seed in 0u64..6,
        ops1 in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            0..10,
        ),
        ops2 in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            1..10,
        ),
        shape_idx in 0usize..shape_count(),
        copies in 1usize..=3,
    ) {
        let mut kb = suite_kb(seed);
        apply_ops(&mut kb, &ops1, "a");
        let index = EdgeIndex::build(&kb);
        let epoch0 = kb.epoch();
        apply_ops(&mut kb, &ops2, "b");
        let once = kb.clone();
        let kb = with_copies(kb, copies);
        let delta = kb.delta_since(epoch0).into_delta().unwrap();
        let index = index.next_epoch(&delta).unwrap();

        let spec = shape(shape_idx);
        if let Some(affected) = delta_affected_starts(&kb, &spec, &delta) {
            let expected = reference_distributions(&kb, &spec, Some(&affected));
            let req = EvalRequest { starts: &affected, kind: EvalKind::Delta, ..Default::default() };
            let got = count_distributions(&index, &spec, &req).unwrap();
            prop_assert_eq!(&got.per_start, &expected, "delta partial re-group");
        }
        // The maintained postings answer like a scratch build's, and like
        // the KB holding every edge once.
        let scratch = EdgeIndex::build(&kb);
        let got = indexed_distributions(&index, &spec, None);
        let fresh = indexed_distributions(&scratch, &spec, None);
        prop_assert_eq!(&got, &fresh, "maintained vs scratch");
        let single = indexed_distributions(&EdgeIndex::build(&once), &spec, None);
        prop_assert_eq!(&got, &single, "{} copies vs one", copies);
    }
}

/// The satellite metrics-regression invariant: after a 16-edge delta on
/// a KB three orders of magnitude larger than the delta, the patch
/// pass's traffic is bounded by the rows incident to the affected starts
/// plus the non-start partitions (which the cost-based planner may
/// shrink further via bound probes) — and the total probe traffic stays
/// strictly below the partitions' full-scan total, which is what every
/// `Among` evaluation used to pay.
#[test]
fn patch_pass_rows_probed_bounded_by_incident_rows() {
    let kb0 = rex_datagen::generate(&rex_datagen::GeneratorConfig::tiny(0xE1DE));
    let mut kb = kb0.clone();
    let index = EdgeIndex::build(&kb);
    let epoch0 = kb.epoch();
    // 16-edge delta: 8 remove + rewire pairs over the shapes' label
    // space (labels 0..5 are the KB's most common under the Zipf draw).
    let mut state = 0x16u64;
    let mut next = |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut rewired = 0;
    while rewired < 8 {
        let victim = EdgeId(next(kb.edge_count() as u64) as u32);
        let e = kb.edge(victim);
        if e.label.0 >= 5 {
            continue; // keep the churn on shape labels
        }
        kb.remove_edge(victim).unwrap();
        let other = rex_kb::NodeId(next(kb.node_count() as u64) as u32);
        kb.insert_edge(e.src, other, e.label, e.directed).unwrap();
        rewired += 1;
    }
    let delta = kb.delta_since(epoch0).into_delta().unwrap();
    assert_eq!(delta.edge_churn(), 16);
    let index = &index.next_epoch(&delta).unwrap();

    let mut any_affected = 0usize;
    let mut total_probed = 0usize;
    let mut total_start_incident_scan = 0usize;
    for idx in 0..shape_count() {
        let spec = shape(idx);
        let Some(affected) = delta_affected_starts(&kb, &spec, &delta) else {
            continue;
        };
        if affected.is_empty() {
            continue;
        }
        any_affected += 1;
        let req = EvalRequest { starts: &affected, kind: EvalKind::Delta, ..Default::default() };
        let counts = count_distributions(index, &spec, &req).unwrap().trace;
        assert_eq!((counts.delta, counts.full, counts.streaming), (1, 0, 0));
        assert_eq!(counts.tiles, 1);
        // Probe traffic includes at least the rows incident to the
        // affected starts on the plan's first level — the edges binding
        // the variable after the start, each read keyed by the start —
        // for every start the walk extends past its self-loop edges (the
        // walk adds the lists of later levels, keyed by bound values, on
        // top).
        let plan = spec.plan(index, &StartBinding::among(affected.iter().copied()));
        let extended: Vec<u64> = affected
            .iter()
            .copied()
            .filter(|&s| {
                plan.levels[0].loops.iter().all(|&l| {
                    let e = spec.edges[l];
                    let loops = index.posting(e.label, e.dir());
                    loops.is_some_and(|p| p.endpoint(true).neighbours(s).contains(&(s as u32)))
                })
            })
            .collect();
        let first_level: usize = plan.levels[1]
            .reads
            .iter()
            .map(|r| {
                let e = spec.edges[r.edge];
                index.incident_len(e.label, e.dir(), r.src, &extended)
            })
            .sum();
        assert!(
            counts.rows_probed >= first_level,
            "shape {idx}: probe traffic must cover the first level's rows \
             incident to affected starts ({} < {first_level})",
            counts.rows_probed
        );
        let incident: usize = spec
            .edges
            .iter()
            .filter(|e| e.u == spec.start || e.v == spec.start)
            .map(|e| {
                let dir = e.dir();
                index.incident_len(e.label, dir, e.u == spec.start, &affected)
            })
            .sum();
        // Full scans can cover at most the non-start edges — the
        // cost-based planner turns any of them it can into bound probes,
        // so scanned + probed never exceeds the pre-planner patch-pass
        // traffic (start-incident probes plus all non-start full scans).
        let non_start_scan: usize = spec
            .edges
            .iter()
            .filter(|e| e.u != spec.start && e.v != spec.start)
            .map(|e| {
                let dir = e.dir();
                index.scan_len(e.label, dir)
            })
            .sum();
        assert!(counts.rows_scanned <= non_start_scan, "shape {idx}");
        assert!(
            counts.rows_scanned + counts.rows_probed <= incident + non_start_scan,
            "shape {idx}: planned traffic must not exceed the fixed-order \
             patch pass ({} + {} > {incident} + {non_start_scan})",
            counts.rows_scanned,
            counts.rows_probed
        );
        total_probed += counts.rows_probed;
        total_start_incident_scan += spec
            .edges
            .iter()
            .filter(|e| e.u == spec.start || e.v == spec.start)
            .map(|e| {
                let dir = e.dir();
                index.scan_len(e.label, dir)
            })
            .sum::<usize>();
    }
    assert!(any_affected >= 1, "the delta must touch some shape");
    assert!(
        total_probed < total_start_incident_scan,
        "scan floor must be gone: probed {total_probed} rows where the old \
         path scanned {total_start_incident_scan}"
    );
}

/// COW postings across `next_epoch` at the integration level: only the
/// delta-touched `(label, dir)` partitions rebuild their posting lists.
#[test]
fn next_epoch_shares_untouched_postings() {
    let mut kb = suite_kb(11);
    let index = EdgeIndex::build(&kb);
    let epoch0 = kb.epoch();
    // A directed l0 insert touches exactly the (l0, FORWARD) partition.
    let a = kb.require_node("n3").unwrap();
    let b = kb.require_node("n7").unwrap();
    kb.insert_edge(a, b, rex_kb::LabelId(0), true).unwrap();
    let delta = kb.delta_since(epoch0).into_delta().unwrap();
    let next = index.next_epoch(&delta).unwrap();
    for label in 0u64..5 {
        for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
            let (Some(old), Some(new)) = (index.posting(label, dir), next.posting(label, dir))
            else {
                continue;
            };
            let touched = label == 0 && dir == dir_code::FORWARD;
            assert_eq!(
                !std::sync::Arc::ptr_eq(&old, &new),
                touched,
                "label {label} dir {dir}: only the touched partition rebuilds"
            );
        }
    }
}
