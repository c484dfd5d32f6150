//! Robustness suite: cooperative budgets, no-trace aborted evaluations,
//! pair-by-pair degradation, admission control, and fault-injected
//! maintenance recovery.
//!
//! Every test that evaluates patterns holds [`metrics::scoped`], so the
//! process-global evaluation counters are deterministic within this
//! binary — this is where the *exact* "a whole batch or nothing" staging
//! promise (deferred by the relstore unit tests, which share their
//! binary with unscoped evaluators) is pinned down.

use std::time::Duration;

use proptest::prelude::*;
use rex_core::enumerate::GeneralEnumerator;
use rex_core::measures::DistributionCache;
use rex_core::ranking::fault::site;
use rex_core::ranking::{
    rank_pairs_with, FaultAction, FaultPlan, PairExplanations, RankPairsConfig, ServingState,
};
use rex_core::{CoreError, EnumConfig, Explanation};
use rex_kb::{KnowledgeBase, NodeId};
use rex_relstore::budget::{AbortReason, Budget, CancelToken};
use rex_relstore::engine::{ShardSpec, ShardedEdgeIndex};
use rex_relstore::{metrics, RelError};
use rex_tests::scaffold::{apply_ops, base_kb};

/// The suite's deterministic base KB (distinct tail from the other
/// suites via the salt).
fn suite_kb(seed: u64) -> KnowledgeBase {
    base_kb(seed, 0x0B0D)
}

fn enumerate_core(kb: &KnowledgeBase) -> Vec<Explanation> {
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    GeneralEnumerator::new(EnumConfig::default().with_max_nodes(3)).enumerate(kb, a, b).explanations
}

fn cfg() -> RankPairsConfig {
    RankPairsConfig { k: 5, global_samples: 10, seed: 3, threads: 1, row_ceiling: None, shards: 1 }
}

/// Everything observable about a [`DistributionCache`] short of walking
/// its entries: the published-generation pointer (generations are
/// immutable once published, so an unchanged pointer proves nothing was
/// published), entry count, hit/miss counters, evaluation counters,
/// tiling stats, and epoch. A budgeted call that aborts must leave this
/// tuple bit-identical.
#[allow(clippy::type_complexity)]
fn fingerprint(
    cache: &DistributionCache,
) -> (usize, usize, (usize, usize), usize, usize, (usize, usize), u64) {
    (
        cache.generation_fingerprint(),
        cache.len(),
        cache.stats(),
        cache.batched_evals(),
        cache.delta_evals(),
        cache.tiling_stats(),
        cache.current_epoch(),
    )
}

/// A cancelled budget aborts with the typed reason before any tile runs,
/// and the cache is left byte-identical — then the very same call under
/// no budget succeeds and *does* move the cache.
#[test]
fn cancelled_evaluation_leaves_no_trace() {
    let _scope = metrics::scoped();
    let kb = suite_kb(1);
    let explanations = enumerate_core(&kb);
    assert!(!explanations.is_empty());
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
    let starts: Vec<NodeId> = kb.node_ids().collect();
    let cache = DistributionCache::new();

    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    let before = fingerprint(&cache);
    let err = cache.all_starts(&index, &explanations[0], &starts, &budget).unwrap_err();
    assert!(matches!(err, RelError::Aborted(AbortReason::Cancelled)), "{err}");
    assert_eq!(fingerprint(&cache), before, "aborted evaluation left a trace in the cache");

    let entry = cache.all_starts(&index, &explanations[0], &starts, &Budget::unlimited()).unwrap();
    let entry = entry.batch;
    assert!(entry.domain_len() > 0);
    assert_ne!(fingerprint(&cache), before, "the successful evaluation must publish");
}

/// An already-expired deadline aborts with `DeadlineExpired`; a row
/// budget too small for a multi-tile batch aborts with
/// `RowBudgetExhausted` at the next tile boundary. Both leave the cache
/// untouched.
#[test]
fn deadline_and_row_budget_abort_with_typed_reasons() {
    let _scope = metrics::scoped();
    let kb = suite_kb(2);
    let explanations = enumerate_core(&kb);
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
    let starts: Vec<NodeId> = kb.node_ids().collect();

    let cache = DistributionCache::new();
    let before = fingerprint(&cache);
    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    let err = cache.all_starts(&index, &explanations[0], &starts, &expired).unwrap_err();
    assert!(matches!(err, RelError::Aborted(AbortReason::DeadlineExpired)), "{err}");
    assert_eq!(fingerprint(&cache), before);

    // A row ceiling of 1 splits the batch into one tile per start, so a
    // 1-row budget is exhausted after the first tile's charge and the
    // second tile's boundary check aborts.
    let tiny_tiles = DistributionCache::with_row_ceiling(1);
    let before = fingerprint(&tiny_tiles);
    let starved = Budget::unlimited().with_row_budget(1);
    let err = tiny_tiles.all_starts(&index, &explanations[0], &starts, &starved).unwrap_err();
    assert!(matches!(err, RelError::Aborted(AbortReason::RowBudgetExhausted)), "{err}");
    assert_eq!(fingerprint(&tiny_tiles), before);
}

/// The exact staging determinism this binary exists to pin: with the
/// metrics scope held, a successful batch publishes its whole counter
/// traffic at once, and an aborted batch publishes **exactly zero** —
/// with exactly one aborted-evaluation drain.
#[test]
fn aborted_evaluation_publishes_exactly_zero_counter_traffic() {
    let scope = metrics::scoped();
    let kb = suite_kb(3);
    let explanations = enumerate_core(&kb);
    let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
    let starts: Vec<NodeId> = kb.node_ids().collect();

    // Success: exactly one full evaluation, at least one tile, nothing
    // streamed.
    let cache = DistributionCache::new();
    let c0 = scope.counts();
    cache.all_starts(&index, &explanations[0], &starts, &Budget::unlimited()).unwrap();
    let committed = scope.counts().since(&c0);
    assert_eq!(committed.full, 1, "one batch commits one full evaluation");
    assert!(committed.tiles >= 1);
    assert_eq!(committed.streaming, 0);

    // Abort: a bit-identical counter snapshot and one drain.
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    let cold = DistributionCache::new();
    let aborts_before = metrics::aborted_evals();
    let c1 = scope.counts();
    cold.all_starts(&index, &explanations[0], &starts, &budget).unwrap_err();
    assert_eq!(scope.counts(), c1, "aborted batch published partial counter traffic");
    assert_eq!(metrics::aborted_evals(), aborts_before + 1, "exactly one staged drain");
}

/// Budgeted ranking degrades pair-by-pair: under an unlimited budget the
/// outcome matches the unbudgeted driver exactly; under a cancelled
/// budget every pair is shed with the typed reason, the rankings are
/// empty, and the shared cache is untouched.
#[test]
fn budgeted_ranking_sheds_pairs_not_the_workload() {
    let _scope = metrics::scoped();
    let kb = suite_kb(4);
    let explanations = enumerate_core(&kb);
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    let tasks = [PairExplanations { start: a, end: b, explanations: &explanations }; 2];
    let cfg = cfg();

    let state = ServingState::build(&kb, &cfg).unwrap();
    let snap = state.snapshot();
    let baseline = rank_pairs_with(&tasks, &cfg, snap.index(), snap.frame(), snap.cache());
    assert!(baseline.shed.is_empty());

    let unlimited = snap.rank(&tasks, &cfg, &Budget::unlimited());
    assert!(unlimited.shed.is_empty());
    for (u, v) in baseline.rankings.iter().zip(&unlimited.rankings) {
        let uv: Vec<(usize, f64)> = u.iter().map(|r| (r.index, r.score)).collect();
        let vv: Vec<(usize, f64)> = v.iter().map(|r| (r.index, r.score)).collect();
        assert_eq!(uv, vv);
    }

    // A cancelled budget sheds every pair — and the warm cache (already
    // holding every shape from the runs above) must not change shape
    // either: aborted position reads install nothing new.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Budget::unlimited().with_cancel(token);
    let cold = ServingState::build(&kb, &cfg).unwrap();
    let before = fingerprint(cold.cache());
    let outcome = cold.snapshot().rank(&tasks, &cfg, &cancelled);
    assert_eq!(outcome.shed.len(), tasks.len(), "every pair shed");
    for shed in &outcome.shed {
        assert_eq!(shed.reason, AbortReason::Cancelled);
        assert!(outcome.rankings[shed.pair].is_empty(), "shed pairs rank nothing");
    }
    assert_eq!(fingerprint(cold.cache()), before, "shed pairs left traces in the cache");
}

/// Admission is a row pool with RAII release: one request's cost fills
/// the pool, a second concurrent request is shed with the retryable
/// `Overloaded` error, and dropping the permit restores capacity. A cost
/// above the whole capacity is clamped — the heaviest request is always
/// admissible on an idle pool.
#[test]
fn admission_pool_sheds_overlap_and_releases_on_drop() {
    let _scope = metrics::scoped();
    let kb = suite_kb(5);
    let explanations = enumerate_core(&kb);
    let a = kb.require_node("n0").unwrap();
    let b = kb.require_node("n1").unwrap();
    let tasks = [PairExplanations { start: a, end: b, explanations: &explanations }];
    let cfg = cfg();

    let state = ServingState::build(&kb, &cfg).unwrap();
    let cost = state.snapshot().estimate_request_rows(&tasks);
    assert!(cost >= 1);
    let state = state.with_admission_control(cost);
    let pool = state.admission().expect("admission configured");
    assert_eq!(pool.capacity(), cost);

    let permit = state.admit(cost).unwrap();
    assert_eq!(permit.rows(), cost);
    assert_eq!(pool.available(), 0);
    let err = state.admit(cost).unwrap_err();
    assert!(err.is_retryable(), "shed requests must be retryable: {err}");
    assert!(matches!(err, CoreError::Overloaded { needed, available }
        if needed == cost && available == 0));
    drop(permit);
    assert_eq!(pool.available(), cost, "dropping the permit restores the pool");

    // Oversized requests clamp to capacity instead of starving.
    let oversized = state.admit(cost.saturating_mul(10).saturating_add(7)).unwrap();
    assert_eq!(oversized.rows(), cost);
    drop(oversized);
    assert_eq!(pool.stats(), (2, 1), "(admitted, shed)");

    // try_serve: shed while a permit is held, served after it drops.
    let held = state.admit(cost).unwrap();
    let err = state.try_serve(&tasks, &cfg, &Budget::unlimited()).unwrap_err();
    assert!(err.is_retryable());
    drop(held);
    let outcome = state.try_serve(&tasks, &cfg, &Budget::unlimited()).unwrap();
    assert!(outcome.shed.is_empty());
    assert_eq!(outcome.rankings.len(), tasks.len());
}

/// A scripted `ForceCompaction` pushes maintenance down the full-rebuild
/// fallback even though a faithful delta exists, and a scripted panic in
/// the first rebuild attempt consumes exactly one bounded retry. The
/// session ends up serving the new epoch with scratch-parity answers.
#[test]
fn forced_compaction_rebuild_retries_once_and_recovers() {
    let _scope = metrics::scoped();
    let mut kb = suite_kb(6);
    let explanations = enumerate_core(&kb);
    let cfg = cfg();
    let plan = FaultPlan::seeded(6)
        .one_shot(site::MAINTAIN_DELTA_SOURCE, FaultAction::ForceCompaction)
        .one_shot(site::MAINTAIN_REBUILD_ATTEMPT, FaultAction::Panic);
    let state = ServingState::build(&kb, &cfg).unwrap().with_fault_plan(plan);

    let a = kb.require_node("n2").unwrap();
    let b = kb.require_node("n9").unwrap();
    kb.insert_edge(a, b, rex_kb::LabelId(0), true).unwrap();
    let m = state.maintain(&kb).unwrap();
    assert!(m.compaction_fallback, "the scripted fault forces the fallback");
    assert_eq!(m.rebuild_retries, 1, "the first rebuild attempt panicked");
    assert!(!m.recovered_from_panic, "this is the fallback path, not panic recovery");
    assert_eq!(state.quarantined_epochs(), 0);
    assert_eq!(state.recovery_rebuilds(), 0, "only the panic path counts recoveries");
    assert_eq!(state.epoch(), kb.epoch());

    // Scratch parity at the new epoch.
    let snap = state.snapshot();
    let scratch_index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
    let scratch_cache = DistributionCache::new();
    for e in &explanations {
        let got = snap.global_position_excluding(e, None);
        let unlimited = Budget::unlimited();
        let want = scratch_cache.global_position(
            &scratch_index,
            e,
            snap.frame().starts(),
            None,
            &unlimited,
        );
        let want = want.unwrap();
        assert_eq!(got, want, "shape {}", e.describe(&kb));
    }
}

/// When every bounded rebuild attempt panics, maintenance reports
/// `MaintenanceFailed` (not retryable, not a panic escaping) and the
/// session keeps serving its last good epoch; the next maintenance —
/// faults exhausted — goes through normally.
#[test]
fn exhausted_rebuild_retries_fail_closed_and_keep_serving() {
    let _scope = metrics::scoped();
    let mut kb = suite_kb(7);
    let cfg = cfg();
    let plan = FaultPlan::seeded(7)
        .one_shot(site::MAINTAIN_DELTA_SOURCE, FaultAction::ForceCompaction)
        .one_shot(site::MAINTAIN_REBUILD_ATTEMPT, FaultAction::Panic)
        .one_shot(site::MAINTAIN_REBUILD_ATTEMPT, FaultAction::Panic)
        .one_shot(site::MAINTAIN_REBUILD_ATTEMPT, FaultAction::Panic);
    let state = ServingState::build(&kb, &cfg).unwrap().with_fault_plan(plan);
    let epoch0 = state.epoch();

    let a = kb.require_node("n3").unwrap();
    let b = kb.require_node("n8").unwrap();
    kb.insert_edge(a, b, rex_kb::LabelId(1), true).unwrap();
    let err = state.maintain(&kb).unwrap_err();
    assert!(matches!(err, CoreError::MaintenanceFailed(_)), "{err}");
    assert!(!err.is_retryable());
    assert_eq!(state.epoch(), epoch0, "the session keeps serving its last good epoch");

    // Faults exhausted: the next maintenance succeeds on the delta path.
    let m = state.maintain(&kb).unwrap();
    assert!(!m.compaction_fallback);
    assert_eq!(m.rebuild_retries, 0);
    assert_eq!(state.epoch(), kb.epoch());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any KB mutation history, warm-cache state, and instantly
    /// aborting budget (cancelled or expired deadline), a budgeted
    /// evaluation over a *fresh* domain aborts without changing one
    /// observable bit of the cache — and the identical call under an
    /// unlimited budget then succeeds.
    #[test]
    fn aborted_evaluation_leaves_cache_byte_identical(
        seed in 0u64..6,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..1000, 0usize..1000, 0usize..5, any::<bool>()),
            0..8,
        ),
        cancel in any::<bool>(),
        warm_shapes in 0usize..3,
    ) {
        let _scope = metrics::scoped();
        let mut kb = suite_kb(seed);
        apply_ops(&mut kb, &ops, "r");
        let explanations = enumerate_core(&kb);
        prop_assert!(!explanations.is_empty());
        let index = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        let all: Vec<NodeId> = kb.node_ids().collect();
        let cache = DistributionCache::new();

        // Warm some shapes over a *smaller* domain, so the budgeted call
        // below — full domain — is a guaranteed miss that must evaluate.
        let warm_domain = &all[..all.len() / 2];
        for e in explanations.iter().take(warm_shapes) {
            cache.all_starts(&index, e, warm_domain, &Budget::unlimited()).unwrap();
        }

        let budget = if cancel {
            let token = CancelToken::new();
            token.cancel();
            Budget::unlimited().with_cancel(token)
        } else {
            Budget::unlimited().with_deadline(Duration::ZERO)
        };
        let before = fingerprint(&cache);
        let err = cache
            .all_starts(&index, &explanations[0], &all, &budget)
            .unwrap_err();
        prop_assert!(matches!(err, RelError::Aborted(_)), "{}", err);
        prop_assert_eq!(fingerprint(&cache), before);

        // And the same call, unbudgeted, succeeds and covers the domain.
        let entry = cache.all_starts(&index, &explanations[0], &all, &Budget::unlimited());
        let entry = entry.unwrap().batch;
        for s in &all {
            prop_assert!(entry.covers(s.0 as u64));
        }
    }
}
