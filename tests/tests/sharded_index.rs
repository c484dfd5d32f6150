//! Sharded-index differential suite: the parallel per-bucket fan-out and
//! the on-disk snapshot codec, pinned against the naive reference
//! evaluator.
//!
//! The central property: for ANY knowledge base, pattern shape, start
//! set, and shard count, the sharded `Among` fan-out returns per-start
//! count multisets **byte-identical** to both the unsharded probe path
//! and the unindexed full-scan reference — including starts that hash to
//! empty shards, starts outside the KB, and the degenerate one-shard
//! spec. A shard spec only partitions a batch's starts over one index; it
//! must never be observable in an answer, nor in the estimate of a tile
//! holding a single start.
//!
//! Alongside it: a save → load → evaluate round-trip property (a
//! reloaded index answers exactly like the one that was saved), the
//! corrupt-a-byte sweep from the durability suite applied to the index
//! snapshot files (every single-byte corruption of any file in the
//! snapshot directory is rejected by a checksum — never a panic, never
//! a silently wrong index), and a behaviour pin of the evaluation path's
//! answers, tiling and row accounting across shard counts and row
//! ceilings.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rex_datagen::{generate, GeneratorConfig};
use rex_relstore::engine::{
    count_distributions, EvalRequest, ShardSpec, ShardedEdgeIndex, TiledDistributions,
};
use rex_tests::differential::{indexed_distributions, reference_distributions};
use rex_tests::scaffold::{apply_ops, base_kb, shape, shape_count};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rex-sharded-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Shard counts every property sweeps: the degenerate single shard, two
/// coprime counts, and one larger than the scaffold's hot-entity count
/// so some shards own no start at all.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

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

    /// Shard parity: random KBs × shapes × start sets × shard counts ×
    /// row ceilings, against the unsharded probe path AND the unindexed
    /// reference.
    #[test]
    fn sharded_fanout_matches_reference_and_unsharded(
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

        // `(est_peak_rows, overflow_tiles)` under `Some(0)` per start set,
        // from the first shard count: one start per tile makes them
        // independent of how the starts are bucketed.
        let mut single_tile_estimates = [None, None];
        for shards in SHARD_COUNTS {
            let index = ShardedEdgeIndex::build(&kb, ShardSpec::new(shards, seed ^ 0x5EED));
            for (set, starts) in [&universe, &subset].into_iter().enumerate() {
                let expected = reference_distributions(&kb, &spec, Some(starts));
                let flat = indexed_distributions(index.base(), &spec, Some(starts));
                prop_assert_eq!(&flat, &expected, "unsharded probe path, {shards} shards");
                for row_ceiling in [None, Some(0), Some(64)] {
                    let req = EvalRequest { starts, row_ceiling, ..Default::default() };
                    let got = count_distributions(&index, &spec, &req).unwrap();
                    prop_assert_eq!(
                        &got.per_start, &expected, "fan-out, {shards} shards, ceiling {:?}",
                        row_ceiling
                    );
                    if row_ceiling == Some(0) {
                        let est = (got.trace.est_peak_rows, got.trace.overflow_tiles);
                        let first = *single_tile_estimates[set].get_or_insert(est);
                        prop_assert_eq!(est, first, "tile estimates at {} shards", shards);
                    }
                }
            }
        }
    }

    /// Save → load → evaluate: a reloaded snapshot answers exactly like
    /// the index that was saved, for every shape over every start.
    #[test]
    fn snapshot_round_trip_preserves_every_answer(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            0..8,
        ),
        shards_idx in 0usize..4,
    ) {
        let mut kb = base_kb(seed, 0xD15C);
        apply_ops(&mut kb, &ops, "p");
        let shards = SHARD_COUNTS[shards_idx];
        let index = ShardedEdgeIndex::build(&kb, ShardSpec::new(shards, 7));

        let dir = case_dir("roundtrip");
        index.save(&dir).unwrap();
        let loaded = ShardedEdgeIndex::load(&dir).unwrap();
        prop_assert_eq!(loaded.spec(), index.spec());
        prop_assert_eq!(loaded.epoch(), index.epoch());

        let starts = start_universe(kb.node_count());
        let req = EvalRequest { starts: &starts, row_ceiling: Some(8), ..Default::default() };
        for idx in 0..shape_count() {
            let spec = shape(idx);
            let before = count_distributions(&index, &spec, &req).unwrap();
            let after = count_distributions(&loaded, &spec, &req).unwrap();
            prop_assert_eq!(&before.per_start, &after.per_start, "shape {}", idx);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A start set landing entirely on one shard of many leaves the other
/// shards' workers with nothing to do — and the answer unchanged.
#[test]
fn single_start_on_many_shards_matches_reference() {
    let kb = base_kb(11, 0xC0DE);
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::new(7, 0));
    for start in start_universe(kb.node_count()) {
        let starts = [start];
        for idx in 0..shape_count() {
            let spec = shape(idx);
            let expected = reference_distributions(&kb, &spec, Some(&starts));
            let req = EvalRequest { starts: &starts, ..Default::default() };
            let got = count_distributions(&index, &spec, &req).unwrap();
            assert_eq!(got.per_start, expected, "shape {idx} start {start}");
        }
    }
}

/// Every single-byte corruption of either file in a sharded snapshot
/// directory — manifest and base — fails the load with a typed error.
/// The FNV checksum trailer covers every byte of every file, so nothing
/// flips silently.
#[test]
fn corrupt_a_byte_sweep_over_snapshot_directory() {
    let kb = base_kb(3, 0xBAD);
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::new(3, 9));
    let dir = case_dir("corrupt");
    index.save(&dir).unwrap();
    ShardedEdgeIndex::load(&dir).expect("pristine snapshot loads");

    let files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 2, "manifest + base, got {files:?}");
    for path in &files {
        let pristine = std::fs::read(path).unwrap();
        for i in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= 0xFF;
            std::fs::write(path, &corrupt).unwrap();
            assert!(
                ShardedEdgeIndex::load(&dir).is_err(),
                "{} byte {i}: corruption must be rejected",
                path.file_name().unwrap().to_string_lossy()
            );
        }
        std::fs::write(path, &pristine).unwrap();
    }

    // Truncations and a missing manifest are rejected too.
    for path in &files {
        let pristine = std::fs::read(path).unwrap();
        std::fs::write(path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(ShardedEdgeIndex::load(&dir).is_err(), "truncated {}", path.display());
        std::fs::write(path, &pristine).unwrap();
    }
    ShardedEdgeIndex::load(&dir).expect("restored snapshot loads again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One pinned evaluation: `(shape, shards, row ceiling, per-start hash,
/// tiles, peak_rows, est_peak_rows, overflow_tiles)`.
type Pin = (usize, usize, Option<usize>, u64, usize, usize, usize, usize);

/// Fingerprints of [`count_distributions`] over every scaffold shape ×
/// shards {1, 3} × row ceiling {none, 0, 64}, on
/// `GeneratorConfig::tiny(0xE1DE)` with every 7th entity (plus one id
/// past the KB) as starts. The hash is FNV-1a over the per-start
/// multisets in start order. Recorded from the per-variant entry points
/// this single path replaced (sharded/flat × fixed-size/ceiling tiling),
/// so a change in answers, tiling or row accounting shows up here. The
/// 3-shard ceiling rows of shapes 3–5 were re-recorded once every shard
/// bucket tiled on the base index's statistics (answers unchanged), and
/// every `peak_rows` once evaluation became a depth-first walk, where it
/// is the widest level's bindings rather than the largest materialized
/// join (answers, tiles and estimates unchanged); shapes 9–11 were
/// recorded under the walk.
const PINS: [Pin; 72] = [
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
    (0, 3, None, 0xc99491919640e92a, 3, 59, 0, 0),
    (0, 3, Some(0), 0xc99491919640e92a, 47, 21, 26, 34),
    (0, 3, Some(64), 0xc99491919640e92a, 4, 56, 62, 0),
    (1, 3, None, 0xc97772ae50f9bf9c, 3, 23, 0, 0),
    (1, 3, Some(0), 0xc97772ae50f9bf9c, 39, 11, 12, 22),
    (1, 3, Some(64), 0xc97772ae50f9bf9c, 3, 23, 24, 0),
    (2, 3, None, 0xcbf29ce484222325, 3, 0, 0, 0),
    (2, 3, Some(0), 0xcbf29ce484222325, 3, 0, 0, 0),
    (2, 3, Some(64), 0xcbf29ce484222325, 3, 0, 0, 0),
    (3, 3, None, 0xf0a6accba4f9b9f0, 3, 166, 0, 0),
    (3, 3, Some(0), 0xf0a6accba4f9b9f0, 47, 53, 53, 34),
    (3, 3, Some(64), 0xf0a6accba4f9b9f0, 6, 83, 63, 0),
    (4, 3, None, 0x9b07211fe9cb19ba, 3, 52, 0, 0),
    (4, 3, Some(0), 0x9b07211fe9cb19ba, 39, 31, 21, 22),
    (4, 3, Some(64), 0x9b07211fe9cb19ba, 3, 52, 42, 0),
    (5, 3, None, 0xb1af172f204562d8, 3, 36, 0, 0),
    (5, 3, Some(0), 0xb1af172f204562d8, 33, 13, 18, 19),
    (5, 3, Some(64), 0xb1af172f204562d8, 3, 36, 40, 0),
    (6, 3, None, 0xcbf29ce484222325, 3, 0, 0, 0),
    (6, 3, Some(0), 0xcbf29ce484222325, 3, 0, 0, 0),
    (6, 3, Some(64), 0xcbf29ce484222325, 3, 0, 0, 0),
    (7, 3, None, 0xcbf29ce484222325, 3, 0, 0, 0),
    (7, 3, Some(0), 0xcbf29ce484222325, 3, 0, 0, 0),
    (7, 3, Some(64), 0xcbf29ce484222325, 3, 0, 0, 0),
    (8, 3, None, 0xcbf29ce484222325, 3, 59, 0, 0),
    (8, 3, Some(0), 0xcbf29ce484222325, 47, 21, 26, 34),
    (8, 3, Some(64), 0xcbf29ce484222325, 4, 56, 62, 0),
    (9, 3, None, 0xcbf29ce484222325, 3, 36, 0, 0),
    (9, 3, Some(0), 0xcbf29ce484222325, 33, 13, 9, 19),
    (9, 3, Some(64), 0xcbf29ce484222325, 3, 36, 20, 0),
    (10, 3, None, 0xcbf29ce484222325, 3, 0, 0, 0),
    (10, 3, Some(0), 0xcbf29ce484222325, 33, 0, 9, 19),
    (10, 3, Some(64), 0xcbf29ce484222325, 3, 0, 20, 0),
    (11, 3, None, 0xcbf29ce484222325, 3, 2135, 0, 0),
    (11, 3, Some(0), 0xcbf29ce484222325, 47, 586, 26, 34),
    (11, 3, Some(64), 0xcbf29ce484222325, 4, 2097, 62, 0),
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
    let mut got: Vec<Pin> = Vec::new();
    for shards in [1usize, 3] {
        let index = ShardedEdgeIndex::build(&kb, ShardSpec::new(shards, 0xE1DE));
        for idx in 0..shape_count() {
            let spec = shape(idx);
            for row_ceiling in [None, Some(0), Some(64)] {
                let req = EvalRequest { starts: &starts, row_ceiling, ..Default::default() };
                let d = count_distributions(&index, &spec, &req).unwrap();
                let hash = per_start_hash(&d);
                got.push((
                    idx,
                    shards,
                    row_ceiling,
                    hash,
                    d.trace.tiles,
                    d.trace.peak_rows,
                    d.trace.est_peak_rows,
                    d.trace.overflow_tiles,
                ));
            }
        }
    }
    assert_eq!(got, PINS);
    // Under `Some(0)` every start with rows is its own tile, so the tile
    // estimates depend on the starts alone, never on the shard count.
    for idx in 0..shape_count() {
        let singles: Vec<(usize, usize)> =
            got.iter().filter(|p| p.0 == idx && p.2 == Some(0)).map(|p| (p.6, p.7)).collect();
        assert!(singles.windows(2).all(|w| w[0] == w[1]), "shape {idx}: {singles:?}");
    }
}
