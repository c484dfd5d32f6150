//! `count_distributions` over one `EdgeIndex`, pinned against the naive
//! reference evaluator.
//!
//! The central property: for ANY knowledge base, pattern shape, start
//! set and row ceiling, the tiled `Among` evaluation returns per-start
//! count multisets **byte-identical** to both the untiled probe path and
//! the unindexed full-scan reference — including starts outside the KB.
//!
//! Alongside it: a behaviour pin of the evaluation path's answers,
//! tiling and row accounting across row ceilings.

use proptest::prelude::*;
use rex_datagen::{generate, GeneratorConfig};
use rex_relstore::engine::{count_distributions, EdgeIndex, EvalRequest, TiledDistributions};
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
    /// universe, a random subset, one start) × row ceilings, against the
    /// untiled probe path AND the unindexed reference.
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
            prop_assert_eq!(&flat, &expected, "untiled probe path");
            for row_ceiling in [None, Some(0), Some(64)] {
                let req = EvalRequest { starts, row_ceiling, ..Default::default() };
                let got = count_distributions(&index, &spec, &req).unwrap();
                prop_assert_eq!(&got.per_start, &expected, "ceiling {:?}", row_ceiling);
            }
        }
    }
}

/// One pinned evaluation: `(shape, buckets, row ceiling, per-start
/// hash, tiles, peak_rows, est_peak_rows, overflow_tiles)`. `buckets` is
/// always 1: the pins were recorded when a batch's starts could also be
/// split into hash buckets, and these are the one-bucket rows.
type Pin = (usize, usize, Option<usize>, u64, usize, usize, usize, usize);

/// Fingerprints of [`count_distributions`] over every scaffold shape ×
/// row ceiling {none, 0, 64}, on `GeneratorConfig::tiny(0xE1DE)` with
/// every 7th entity (plus one id past the KB) as starts. The hash is
/// FNV-1a over the per-start multisets in start order. Recorded from the
/// per-variant entry points this single path replaced (fixed-size and
/// ceiling tiling), so a change in answers, tiling or row accounting
/// shows up here. Every `peak_rows` was re-recorded once evaluation
/// became a depth-first walk, where it is the widest level's bindings
/// rather than the largest materialized join (answers, tiles and
/// estimates unchanged); shapes 9–11 were recorded under the walk, and
/// shapes 12–13 (the five-variable path, alone and with a doubled last
/// hop) under the walk before its end level read a single list in one
/// loop. Shapes 2, 6–13 have no instance on this KB, so their hash is the
/// FNV-1a offset basis and their rows pin walk counts, not answers.
const PINS: [Pin; 42] = [
    (0, 1, None, 0xc99491919640e92a, 1, 118, 0, 0),
    (0, 1, Some(0), 0xc99491919640e92a, 43, 21, 26, 34),
    (0, 1, Some(64), 0xc99491919640e92a, 2, 60, 63, 0),
    (1, 1, None, 0xc97772ae50f9bf9c, 1, 48, 0, 0),
    (1, 1, Some(0), 0xc97772ae50f9bf9c, 35, 11, 12, 22),
    (1, 1, Some(64), 0xc97772ae50f9bf9c, 1, 48, 50, 0),
    (2, 1, None, 0xcbf29ce484222325, 1, 0, 0, 0),
    (2, 1, Some(0), 0xcbf29ce484222325, 1, 0, 0, 0),
    (2, 1, Some(64), 0xcbf29ce484222325, 1, 0, 0, 0),
    (3, 1, None, 0xf0a6accba4f9b9f0, 1, 318, 0, 0),
    (3, 1, Some(0), 0xf0a6accba4f9b9f0, 43, 53, 53, 34),
    (3, 1, Some(64), 0xf0a6accba4f9b9f0, 5, 93, 63, 0),
    (4, 1, None, 0x9b07211fe9cb19ba, 1, 104, 0, 0),
    (4, 1, Some(0), 0x9b07211fe9cb19ba, 35, 31, 21, 22),
    (4, 1, Some(64), 0x9b07211fe9cb19ba, 2, 62, 56, 0),
    (5, 1, None, 0xb1af172f204562d8, 1, 62, 0, 0),
    (5, 1, Some(0), 0xb1af172f204562d8, 32, 13, 18, 19),
    (5, 1, Some(64), 0xb1af172f204562d8, 2, 50, 62, 0),
    (6, 1, None, 0xcbf29ce484222325, 1, 0, 0, 0),
    (6, 1, Some(0), 0xcbf29ce484222325, 1, 0, 0, 0),
    (6, 1, Some(64), 0xcbf29ce484222325, 1, 0, 0, 0),
    (7, 1, None, 0xcbf29ce484222325, 1, 0, 0, 0),
    (7, 1, Some(0), 0xcbf29ce484222325, 1, 0, 0, 0),
    (7, 1, Some(64), 0xcbf29ce484222325, 1, 0, 0, 0),
    (8, 1, None, 0xcbf29ce484222325, 1, 118, 0, 0),
    (8, 1, Some(0), 0xcbf29ce484222325, 43, 21, 26, 34),
    (8, 1, Some(64), 0xcbf29ce484222325, 2, 60, 63, 0),
    (9, 1, None, 0xcbf29ce484222325, 1, 62, 0, 0),
    (9, 1, Some(0), 0xcbf29ce484222325, 32, 13, 9, 19),
    (9, 1, Some(64), 0xcbf29ce484222325, 1, 62, 39, 0),
    (10, 1, None, 0xcbf29ce484222325, 1, 0, 0, 0),
    (10, 1, Some(0), 0xcbf29ce484222325, 32, 0, 9, 19),
    (10, 1, Some(64), 0xcbf29ce484222325, 1, 0, 39, 0),
    (11, 1, None, 0xcbf29ce484222325, 1, 3431, 0, 0),
    (11, 1, Some(0), 0xcbf29ce484222325, 43, 586, 26, 34),
    (11, 1, Some(64), 0xcbf29ce484222325, 2, 2330, 63, 0),
    (12, 1, None, 0xcbf29ce484222325, 1, 529, 0, 0),
    (12, 1, Some(0), 0xcbf29ce484222325, 43, 84, 129, 34),
    (12, 1, Some(64), 0xcbf29ce484222325, 11, 84, 129, 1),
    (13, 1, None, 0xcbf29ce484222325, 1, 529, 0, 0),
    (13, 1, Some(0), 0xcbf29ce484222325, 43, 84, 26, 34),
    (13, 1, Some(64), 0xcbf29ce484222325, 2, 268, 63, 0),
];

/// FNV-1a over the per-start multisets in start order.
fn per_start_hash(d: &TiledDistributions) -> u64 {
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
        let spec = shape(idx);
        for row_ceiling in [None, Some(0), Some(64)] {
            let req = EvalRequest { starts: &starts, row_ceiling, ..Default::default() };
            let d = count_distributions(&index, &spec, &req).unwrap();
            let t = d.trace;
            let hash = per_start_hash(&d);
            got.push((
                idx,
                1,
                row_ceiling,
                hash,
                t.tiles,
                t.peak_rows,
                t.est_peak_rows,
                t.overflow_tiles,
            ));
        }
    }
    assert_eq!(got, PINS);
}
