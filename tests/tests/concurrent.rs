//! Concurrency tests for the epoch-versioned serving stack:
//!
//! * **threaded stress** — reader threads rank against pinned
//!   [`Snapshot`]s in a loop while a writer thread applies a scripted
//!   sequence of deltas through [`ServingState::maintain`]; every read
//!   pass must equal the precomputed expected answers of **exactly one**
//!   published epoch (old or new in full — never a torn mix), and reads
//!   keep completing while maintenance is in flight;
//! * **proptest parity** — a snapshot pinned at epoch `E` keeps answering
//!   byte-identically to a scratch build of the KB at `E`, even after the
//!   serving state has flipped past it under further random mutations;
//! * **per-request accounting** — a ranking outcome counts only its own
//!   evaluations, never a concurrent maintenance patch.
//!
//! [`Snapshot`]: rex_core::ranking::Snapshot
//! [`ServingState::maintain`]: rex_core::ranking::ServingState

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::{DistributionCache, SampleFrame};
use rex_core::ranking::{rank_pairs_with, PairExplanations, RankPairsConfig, ServingState};
use rex_core::{EnumConfig, Explanation};
use rex_kb::{KnowledgeBase, LabelId, NodeId};
use rex_relstore::budget::Budget;
use rex_relstore::engine::{count_distributions, EdgeIndex, EvalRequest};
use rex_tests::scaffold::{apply_ops, base_kb};

/// The suite's deterministic base KB (distinct tail from the
/// incremental suite via the salt).
fn suite_kb(seed: u64) -> KnowledgeBase {
    base_kb(seed, 0x5A5A)
}

fn enumerate_core(kb: &KnowledgeBase) -> Vec<Explanation> {
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(kb, a, b).explanations
}

/// The expected global positions of every explanation at `kb`'s current
/// state, computed from scratch (fresh index, cold cache) over `frame`'s
/// starts — the per-epoch ground truth the stress readers compare against.
fn positions_at(
    kb: &KnowledgeBase,
    frame: &SampleFrame,
    explanations: &[Explanation],
) -> Vec<usize> {
    let index = EdgeIndex::build(kb);
    let cache = DistributionCache::new();
    explanations
        .iter()
        .map(|e| cache.global_position(&index, e, frame.starts(), None, &Budget::unlimited()))
        .map(|pos| pos.expect("unlimited budget never aborts"))
        .collect()
}

/// Reader threads rank against pinned snapshots while a writer applies a
/// scripted delta sequence. Every completed read pass must match the
/// ground truth of exactly one published epoch — the "old or new in
/// full, never a torn mix" acceptance bar — and no read ever blocks on
/// the in-flight maintenance (the loop keeps completing passes, counted
/// per reader).
#[test]
fn concurrent_readers_never_observe_torn_epochs() {
    let mut kb = suite_kb(7);
    let explanations = enumerate_core(&kb);
    assert!(!explanations.is_empty());
    let cfg = RankPairsConfig {
        k: 5,
        global_samples: 12,
        seed: 5,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let state = ServingState::build(&kb, &cfg).unwrap();
    let frame = state.snapshot().frame().clone();

    // Scripted writer deltas: insert-only batches (no sampled start can
    // lose eligibility, so the frame — and hence the ground truth's
    // domain — is identical at every epoch).
    let mut rng_state = 0xC0FFEEu64;
    let mut next = |bound: u64| {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng_state >> 33) % bound
    };
    let node_count = kb.node_count() as u64;
    let script: Vec<Vec<(NodeId, NodeId, LabelId, bool)>> = (0..6)
        .map(|_| {
            (0..2)
                .map(|_| {
                    (
                        NodeId(next(node_count) as u32),
                        NodeId(next(node_count) as u32),
                        LabelId(next(5) as u32),
                        next(2) == 0,
                    )
                })
                .collect()
        })
        .collect();

    // Ground truth per epoch, simulated ahead of time on a clone.
    let mut expected: HashMap<u64, Vec<usize>> = HashMap::new();
    expected.insert(kb.epoch(), positions_at(&kb, &frame, &explanations));
    {
        let mut sim = kb.clone();
        for batch in &script {
            for &(u, v, l, d) in batch {
                sim.insert_edge(u, v, l, d).unwrap();
            }
            expected.insert(sim.epoch(), positions_at(&sim, &frame, &explanations));
        }
    }

    let done = AtomicBool::new(false);
    let passes = AtomicUsize::new(0);
    let final_epoch = kb.epoch() + script.iter().map(Vec::len).sum::<usize>() as u64;
    crossbeam::thread::scope(|scope| {
        for _ in 0..3 {
            let (state, expected, explanations, done, passes) =
                (&state, &expected, &explanations, &done, &passes);
            scope.spawn(move |_| {
                while !done.load(Ordering::Acquire) {
                    // Pin one snapshot for the whole pass; every value read
                    // through it must belong to the pinned epoch.
                    let snap = state.snapshot();
                    let got: Vec<usize> = explanations
                        .iter()
                        .map(|e| snap.global_position_excluding(e, None))
                        .collect();
                    let want = expected
                        .get(&snap.epoch())
                        .expect("snapshots only exist at published epochs");
                    assert_eq!(&got, want, "torn read at epoch {}", snap.epoch());
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let kb = &mut kb;
        let (state, done) = (&state, &done);
        scope.spawn(move |_| {
            for batch in &script {
                for &(u, v, l, d) in batch {
                    kb.insert_edge(u, v, l, d).unwrap();
                }
                let m = state.maintain(kb).unwrap();
                assert!(!m.compaction_fallback);
                // Give readers a window at this epoch before the next flip.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
    })
    .unwrap();

    assert!(passes.load(Ordering::Relaxed) > 0, "readers must make progress");
    assert_eq!(state.epoch(), final_epoch, "every delta flipped in");
    // Post-run, a fresh snapshot serves the final epoch's ground truth.
    let snap = state.snapshot();
    let got: Vec<usize> =
        explanations.iter().map(|e| snap.global_position_excluding(e, None)).collect();
    assert_eq!(&got, expected.get(&final_epoch).unwrap());
}

/// Chaos: a scripted panic at `maintain::before_flip` (maximum work
/// done, none published) plus a panic inside the first recovery-rebuild
/// attempt. Maintenance must quarantine the abandoned epoch, recover by
/// scratch rebuild through the bounded retry, and keep flipping cleanly
/// afterwards — while racing reader threads only ever observe the ground
/// truth of fully published epochs, never a torn mix.
#[test]
fn injected_maintain_panic_quarantines_and_recovers_without_torn_reads() {
    use rex_core::ranking::fault::site;
    use rex_core::ranking::{FaultAction, FaultPlan};

    let mut kb = suite_kb(11);
    let explanations = enumerate_core(&kb);
    assert!(!explanations.is_empty());
    let cfg = RankPairsConfig {
        k: 5,
        global_samples: 12,
        seed: 5,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let plan = FaultPlan::seeded(11)
        .one_shot(site::MAINTAIN_BEFORE_FLIP, FaultAction::Panic)
        .one_shot(site::MAINTAIN_REBUILD_ATTEMPT, FaultAction::Panic);
    let state = ServingState::build(&kb, &cfg).unwrap().with_fault_plan(plan);
    let frame = state.snapshot().frame().clone();

    // Insert-only script, as in the stress test: the frame keeps its
    // starts at every epoch, so per-epoch ground truth shares one domain.
    let mut rng_state = 0xFEED5EEDu64;
    let mut next = |bound: u64| {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng_state >> 33) % bound
    };
    let node_count = kb.node_count() as u64;
    let script: Vec<Vec<(NodeId, NodeId, LabelId, bool)>> = (0..3)
        .map(|_| {
            (0..2)
                .map(|_| {
                    (
                        NodeId(next(node_count) as u32),
                        NodeId(next(node_count) as u32),
                        LabelId(next(5) as u32),
                        next(2) == 0,
                    )
                })
                .collect()
        })
        .collect();

    // Ground truth per epoch, simulated ahead of time on a clone. The
    // recovered epoch is included: a scratch rebuild flips to exactly
    // the state a cold build at that epoch would serve.
    let mut expected: HashMap<u64, Vec<usize>> = HashMap::new();
    expected.insert(kb.epoch(), positions_at(&kb, &frame, &explanations));
    {
        let mut sim = kb.clone();
        for batch in &script {
            for &(u, v, l, d) in batch {
                sim.insert_edge(u, v, l, d).unwrap();
            }
            expected.insert(sim.epoch(), positions_at(&sim, &frame, &explanations));
        }
    }

    let done = AtomicBool::new(false);
    let passes = AtomicUsize::new(0);
    let final_epoch = kb.epoch() + script.iter().map(Vec::len).sum::<usize>() as u64;
    crossbeam::thread::scope(|scope| {
        for _ in 0..3 {
            let (state, expected, explanations, done, passes) =
                (&state, &expected, &explanations, &done, &passes);
            scope.spawn(move |_| {
                while !done.load(Ordering::Acquire) {
                    let snap = state.snapshot();
                    let got: Vec<usize> = explanations
                        .iter()
                        .map(|e| snap.global_position_excluding(e, None))
                        .collect();
                    let want = expected
                        .get(&snap.epoch())
                        .expect("snapshots only exist at published epochs");
                    assert_eq!(&got, want, "torn read at epoch {}", snap.epoch());
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let kb = &mut kb;
        let (state, done) = (&state, &done);
        scope.spawn(move |_| {
            for (i, batch) in script.iter().enumerate() {
                for &(u, v, l, d) in batch {
                    kb.insert_edge(u, v, l, d).unwrap();
                }
                let m = state.maintain(kb).expect("maintenance recovers from injected panics");
                if i == 0 {
                    assert!(m.recovered_from_panic, "the scripted before-flip panic fired");
                    assert_eq!(m.rebuild_retries, 1, "the first rebuild attempt panicked too");
                } else {
                    assert!(!m.recovered_from_panic, "later passes run clean");
                    assert!(!m.compaction_fallback);
                }
                assert_eq!(state.epoch(), kb.epoch(), "every pass flips in, recovery included");
                // Give readers a window at this epoch before the next flip.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
    })
    .unwrap();

    assert!(passes.load(Ordering::Relaxed) > 0, "readers must make progress");
    assert_eq!(state.epoch(), final_epoch);
    assert_eq!(state.quarantined_epochs(), 1, "exactly the scripted panic quarantined");
    assert_eq!(state.recovery_rebuilds(), 1, "one scratch rebuild recovered it");
    // Post-run, a fresh snapshot serves the final epoch's ground truth.
    let snap = state.snapshot();
    let got: Vec<usize> =
        explanations.iter().map(|e| snap.global_position_excluding(e, None)).collect();
    assert_eq!(&got, expected.get(&final_epoch).unwrap());
}

/// Endpoint-posting COW through the serving stack: a maintenance flip
/// rebuilds posting lists only for the delta-touched partitions (the
/// rest stay `Arc`-shared between the pinned and current snapshots), and
/// a snapshot pinned before the flip keeps **probing** its own epoch's
/// rows — its posting-driven counts equal a scratch build at the pinned
/// epoch even while the serving state has moved on.
#[test]
fn pinned_snapshot_probes_survive_concurrent_flip() {
    let mut kb = suite_kb(21);
    let cfg = RankPairsConfig {
        k: 5,
        global_samples: 10,
        seed: 3,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let state = ServingState::build(&kb, &cfg).unwrap();
    let pinned = state.snapshot();
    let kb_at_pin = kb.clone();

    // Flip past the pin with a delta touching exactly (l0, FORWARD).
    let a = kb.require_node("n2").unwrap();
    let b = kb.require_node("n9").unwrap();
    kb.insert_edge(a, b, LabelId(0), true).unwrap();
    state.maintain(&kb).unwrap();
    let current = state.snapshot();
    assert!(current.epoch() > pinned.epoch());

    // COW: only the touched partition's posting rebuilt across the flip.
    use rex_relstore::plan::dir_code;
    for label in 0u64..5 {
        for dir in [dir_code::FORWARD, dir_code::UNDIRECTED] {
            let (Some(old), Some(new)) =
                (pinned.index().posting(label, dir), current.index().posting(label, dir))
            else {
                continue;
            };
            let touched = label == 0 && dir == dir_code::FORWARD;
            assert_eq!(!std::sync::Arc::ptr_eq(&old, &new), touched, "label {label} dir {dir}");
        }
    }

    // The pinned snapshot's probe path answers at its own epoch: every
    // shape × every start equals a scratch build of the pre-flip KB.
    let scratch = EdgeIndex::build(&kb_at_pin);
    let starts: Vec<u64> = (0..kb.node_count() as u64 + 4).collect();
    let req = EvalRequest { starts: &starts, ..Default::default() };
    for idx in 0..rex_tests::scaffold::shape_count() {
        let spec = rex_tests::scaffold::shape(idx);
        let via_pinned = count_distributions(pinned.index(), &spec, &req).unwrap();
        let via_scratch = count_distributions(&scratch, &spec, &req).unwrap();
        assert_eq!(
            via_pinned.per_start, via_scratch.per_start,
            "shape {idx} probed at the pinned epoch"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A snapshot pinned at epoch E answers byte-identically to a scratch
    /// build of the KB at E — all shapes, all starts — even after further
    /// mutations have been maintained and flipped past it.
    #[test]
    fn pinned_snapshot_matches_scratch_build_at_its_epoch(
        base_seed in 0u64..4,
        ops1 in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            1..10,
        ),
        ops2 in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            1..10,
        ),
    ) {
        let mut kb = suite_kb(base_seed);
        let explanations = enumerate_core(&kb);
        prop_assert!(!explanations.is_empty());
        let starts: Vec<NodeId> = kb.node_ids().collect();
        let cfg = RankPairsConfig {
            k: 5, global_samples: 8, seed: 2, threads: 1,
            ..RankPairsConfig::default()
        };
        let state = ServingState::build(&kb, &cfg).unwrap();
        // Warm epoch 0, advance to epoch E1, pin it.
        let warm = state.snapshot();
        for e in &explanations {
            warm.global_position_excluding(e, None);
        }
        apply_ops(&mut kb, &ops1, "a");
        state.maintain(&kb).unwrap();
        let pinned = state.snapshot();
        let kb_at_e1 = kb.clone();
        prop_assert_eq!(pinned.epoch(), kb_at_e1.epoch());

        // Advance past the pin: further mutations, maintained + flipped.
        apply_ops(&mut kb, &ops2, "b");
        state.maintain(&kb).unwrap();
        prop_assert!(state.epoch() > pinned.epoch());

        // Byte-identical multisets: reads through the pinned snapshot vs
        // a scratch build at E1 (fresh index, cold cache).
        let scratch_index = EdgeIndex::build(&kb_at_e1);
        prop_assert_eq!(scratch_index.epoch(), pinned.epoch());
        let scratch_cache = DistributionCache::new();
        for e in &explanations {
            let unlimited = Budget::unlimited();
            let maintained = pinned.cache().all_starts(pinned.index(), e, &starts, &unlimited);
            let maintained = maintained.unwrap().batch;
            prop_assert_eq!(maintained.epoch(), pinned.epoch());
            let scratch = scratch_cache.all_starts(&scratch_index, e, &starts, &unlimited);
            let scratch = scratch.unwrap().batch;
            for s in &starts {
                prop_assert_eq!(
                    maintained.counts_for(s.0 as u64),
                    scratch.counts_for(s.0 as u64),
                    "shape {} start {}", e.describe(&kb_at_e1), s
                );
            }
        }

        // And the whole ranking read path agrees at the pinned epoch.
        let a = kb_at_e1.require_node("n0").unwrap();
        let b = kb_at_e1.require_node("n1").unwrap();
        let tasks = [PairExplanations { start: a, end: b, explanations: &explanations }];
        let served = pinned.rank(&tasks, &cfg, &Budget::unlimited());
        let cold_cache = DistributionCache::new();
        let scratch_rank =
            rank_pairs_with(&tasks, &cfg, &scratch_index, pinned.frame(), &cold_cache);
        for (u, v) in served.rankings.iter().zip(&scratch_rank.rankings) {
            let uv: Vec<(usize, f64)> = u.iter().map(|r| (r.index, r.score)).collect();
            let vv: Vec<(usize, f64)> = v.iter().map(|r| (r.index, r.score)).collect();
            prop_assert_eq!(uv, vv);
        }

        // A fresh snapshot serves the *current* epoch, matching a scratch
        // build at the final state.
        let current = state.snapshot();
        prop_assert_eq!(current.epoch(), kb.epoch());
        let final_index = EdgeIndex::build(&kb);
        let final_cache = DistributionCache::new();
        for e in &explanations {
            let unlimited = Budget::unlimited();
            let served = current.cache().all_starts(current.index(), e, &starts, &unlimited);
            let served = served.unwrap().batch;
            let scratch = final_cache.all_starts(&final_index, e, &starts, &unlimited);
            let scratch = scratch.unwrap().batch;
            for s in &starts {
                prop_assert_eq!(
                    served.counts_for(s.0 as u64),
                    scratch.counts_for(s.0 as u64),
                    "final shape {} start {}", e.describe(&kb), s
                );
            }
        }
    }
}

/// Per-request accounting under a concurrent writer: a reader thread
/// ranks warm pairs back to back while a writer maintains the session,
/// so delta-touched shapes are patched by maintenance while reader
/// passes are in flight (the writer starts each round only once the
/// reader has finished another pass, so the reader is mid-loop at every
/// flip). Maintenance runs no full batch, and each ranking outcome
/// counts only the evaluations its own request performed, so the
/// readers' counts account for every batched evaluation of the shared
/// cache and the writer's patches for every delta evaluation — no
/// maintenance work is charged to a reader, and no reader miss goes
/// missing. A pass reads each shape once, so no pass evaluates more
/// batches than the workload has distinct shapes, however the writer's
/// flips land. The equalities and the bound hold for every interleaving.
#[test]
fn ranking_outcomes_count_only_their_own_evaluations() {
    let mut kb = suite_kb(3);
    let explanations = enumerate_core(&kb);
    assert!(!explanations.is_empty());
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    let cfg = RankPairsConfig {
        k: 5,
        global_samples: 12,
        seed: 5,
        threads: 1,
        ..RankPairsConfig::default()
    };
    let state = ServingState::build(&kb, &cfg).unwrap();
    let tasks = [PairExplanations { start: a, end: b, explanations: &explanations }];
    let warm = state.snapshot().rank(&tasks, &cfg, &Budget::unlimited());
    assert!(warm.batched_evals > 0, "the warm-up pass evaluates cold shapes");
    let evals_before = state.cache().batched_evals();
    let delta_evals_before = state.cache().delta_evals();

    let (pass_done, next_pass) = std::sync::mpsc::channel::<()>();
    let done = AtomicBool::new(false);
    let (reader_evals, passes, patched) = crossbeam::thread::scope(|scope| {
        let (state, tasks, cfg, done) = (&state, &tasks, &cfg, &done);
        let reader = scope.spawn(move |_| {
            let (mut evals, mut passes) = (0, 0);
            while !done.load(Ordering::Acquire) {
                let outcome = state.snapshot().rank(tasks, cfg, &Budget::unlimited());
                assert!(
                    outcome.batched_evals <= outcome.distinct_shapes,
                    "pass {passes}: {} batched evaluations for {} distinct shapes",
                    outcome.batched_evals,
                    outcome.distinct_shapes
                );
                evals += outcome.batched_evals;
                passes += 1;
                // The writer may have hung up already; it only waits for
                // progress, never for the last pass.
                let _ = pass_done.send(());
            }
            (evals, passes)
        });
        let kb = &mut kb;
        let writer = scope.spawn(move |_| {
            let mut patched = 0;
            for round in 0..8usize {
                next_pass.recv().expect("the reader loops until the writer is done");
                // One insert per round, cycling the shape labels so every
                // round touches some cached shape.
                apply_ops(kb, &[(0, round * 7, round * 11 + 3, round % 5, round % 2 == 0)], "w");
                patched += state.maintain(kb).unwrap().maintenance.patched;
            }
            done.store(true, Ordering::Release);
            patched
        });
        let (evals, passes) = reader.join().unwrap();
        (evals, passes, writer.join().unwrap())
    })
    .unwrap();

    assert!(passes > 0, "the reader must make progress");
    assert!(patched > 0, "the script must make maintenance patch");
    assert_eq!(
        reader_evals,
        state.cache().batched_evals() - evals_before,
        "reader outcomes ({reader_evals}) must account for every batched evaluation of the \
         shared cache"
    );
    assert_eq!(
        patched,
        state.cache().delta_evals() - delta_evals_before,
        "writer patches ({patched}) must account for every delta evaluation"
    );
}
