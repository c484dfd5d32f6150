//! `count_distributions` over one `EdgeIndex`, pinned against the naive
//! reference evaluator.
//!
//! The central property: for ANY knowledge base, pattern shape and start
//! set, the batched `Among` evaluation returns per-start count multisets
//! **byte-identical** to both the per-start probe path and the unindexed
//! full-scan reference — including starts outside the KB.
//!
//! Alongside it: a behaviour pin of the evaluation path's answers, walk
//! counts and peak rows.

use proptest::prelude::*;
use rex_datagen::{generate, GeneratorConfig};
use rex_relstore::engine::{count_distributions, BatchDistributions, EdgeIndex, EvalRequest};
use rex_tests::differential::{indexed_distributions, reference_distributions};
use rex_tests::scaffold::{apply_ops, base_kb, shape, shape_count};

/// Start-value universe for a KB: every node id plus a few ids beyond
/// the KB (no incident rows by definition — they must simply produce no
/// entry, on every path).
fn start_universe(node_count: usize) -> Vec<u64> {
    (0..node_count as u64 + 4).collect()
}

/// Selects a subset of the universe from a bitmask draw.
fn select_starts(universe: &[u64], mask: u64) -> Vec<u64> {
    universe.iter().copied().filter(|&v| (mask >> (v % 64)) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Reference parity: random KBs × shapes × start sets (the
    /// universe, a random subset, one start), against the probe path AND
    /// the unindexed reference.
    #[test]
    fn count_distributions_matches_reference(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            0..10,
        ),
        shape_idx in 0usize..32,
        mask in 0u64..u64::MAX,
    ) {
        let mut kb = base_kb(seed, 0xC0DE);
        apply_ops(&mut kb, &ops, "s");
        let spec = shape(shape_idx % shape_count());
        let universe = start_universe(kb.node_count());
        let subset = select_starts(&universe, mask);
        let single = vec![universe[(mask % universe.len() as u64) as usize]];
        let index = EdgeIndex::build(&kb);
        for starts in [&universe, &subset, &single] {
            let expected = reference_distributions(&kb, &spec, Some(starts));
            let flat = indexed_distributions(&index, &spec, Some(starts));
            prop_assert_eq!(&flat, &expected, "probe path");
            let req = EvalRequest { starts, ..Default::default() };
            let got = count_distributions(&index, &spec, &req).unwrap();
            prop_assert_eq!(&got.per_start, &expected, "batched");
        }
    }
}

/// One pinned evaluation: `(shape, per-start hash, tiles, peak_rows)`.
type Pin = (usize, u64, usize, usize);

/// Fingerprints of [`count_distributions`] over every scaffold shape, on
/// `GeneratorConfig::tiny(0xE1DE)` with every 7th entity (plus one id
/// past the KB) as starts. The hash is FNV-1a over the per-start
/// multisets in start order. Recorded from the per-variant entry points
/// this single path replaced, so a change in answers, walk counts or row
/// accounting shows up here. Every `peak_rows` was re-recorded once
/// evaluation became a depth-first walk, where it is the widest level's
/// bindings rather than the largest materialized join (answers and
/// tiles unchanged); shapes 9–11 were recorded under the walk, and
/// shapes 12–13 (the five-variable path, alone and with a doubled last
/// hop) under the walk before its end level read a single list in one
/// loop. The table also held rows with the walk's starts split into
/// tiles under a row ceiling; these are the rows without one. Shapes 2,
/// 6–13 have no instance on this KB, so their hash is the FNV-1a offset
/// basis and their rows pin walk counts, not answers.
const PINS: [Pin; 14] = [
    (0, 0xc99491919640e92a, 1, 118),
    (1, 0xc97772ae50f9bf9c, 1, 48),
    (2, 0xcbf29ce484222325, 1, 0),
    (3, 0xf0a6accba4f9b9f0, 1, 318),
    (4, 0x9b07211fe9cb19ba, 1, 104),
    (5, 0xb1af172f204562d8, 1, 62),
    (6, 0xcbf29ce484222325, 1, 0),
    (7, 0xcbf29ce484222325, 1, 0),
    (8, 0xcbf29ce484222325, 1, 118),
    (9, 0xcbf29ce484222325, 1, 62),
    (10, 0xcbf29ce484222325, 1, 0),
    (11, 0xcbf29ce484222325, 1, 3431),
    (12, 0xcbf29ce484222325, 1, 529),
    (13, 0xcbf29ce484222325, 1, 529),
];

/// FNV-1a over the per-start multisets in start order.
fn per_start_hash(d: &BatchDistributions) -> u64 {
    let mut starts: Vec<_> = d.per_start.iter().collect();
    starts.sort_unstable_by_key(|(s, _)| **s);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (s, counts) in starts {
        mix(*s);
        mix(counts.len() as u64);
        for &c in counts {
            mix(c);
        }
    }
    h
}

/// The behaviour pin: one evaluation path reproduces every pinned
/// fingerprint — the returned values, so the test is deterministic under
/// the parallel runner.
#[test]
fn count_distributions_matches_pinned_fingerprints() {
    let kb = generate(&GeneratorConfig::tiny(0xE1DE));
    let mut starts: Vec<u64> = (0..kb.node_count() as u64).step_by(7).collect();
    starts.push(kb.node_count() as u64 + 3);
    let index = EdgeIndex::build(&kb);
    let mut got: Vec<Pin> = Vec::new();
    for idx in 0..shape_count() {
        let req = EvalRequest { starts: &starts, ..Default::default() };
        let d = count_distributions(&index, &shape(idx), &req).unwrap();
        got.push((idx, per_start_hash(&d), d.trace.tiles, d.trace.peak_rows));
    }
    assert_eq!(got, PINS);
}
