//! Deterministic fault injection for the serving stack — the chaos
//! harness behind the robustness test suite and bench scenarios.
//!
//! A [`FaultPlan`] scripts what goes wrong, where: named **sites** in the
//! serving code ([`site`]) call [`FaultPlan::fire`] at the exact points
//! where production failures bite (mid-maintenance before the epoch flip,
//! inside a recovery rebuild, on the admission path), and the plan
//! replies with the next scripted [`FaultAction`] for that site —
//! injected latency, a panic, or a forced log-compaction fallback. The
//! plan is consumed action-by-action (a `one_shot` fires exactly once),
//! so a test can script "panic on the first rebuild attempt, succeed on
//! the second" and assert the retry counter landed on 1.
//!
//! Everything is deterministic: no randomness, no time dependence beyond
//! the scripted delays. The `seed` exists so suites that generate plans
//! programmatically can label them reproducibly; the plan itself never
//! draws from it.
//!
//! Production builds pay nothing: a [`ServingState`] without a plan
//! ([`ServingState::with_fault_plan`] never called) skips the whole
//! machinery behind one `Option` check per site.
//!
//! [`ServingState`]: crate::ranking::ServingState
//! [`ServingState::with_fault_plan`]: crate::ranking::ServingState::with_fault_plan

use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;

/// Named injection points in the serving stack. Each constant is the
/// `site` argument the corresponding code location passes to
/// [`FaultPlan::fire`].
pub mod site {
    /// In [`maintain`] just before the delta source is consulted: a
    /// [`FaultAction::ForceCompaction`] scripted here makes the session
    /// take the compaction-fallback branch even though a faithful delta
    /// exists — the hook for exercising the rebuild path on demand.
    ///
    /// [`maintain`]: crate::ranking::ServingState::maintain
    /// [`FaultAction::ForceCompaction`]: super::FaultAction::ForceCompaction
    pub const MAINTAIN_DELTA_SOURCE: &str = "maintain::delta_source";
    /// In the delta branch of maintenance, after the next index and frame
    /// are built but before the cache is delta-maintained.
    pub const MAINTAIN_APPLY_DELTA: &str = "maintain::apply_delta";
    /// In the delta branch, after all next-epoch state is built and the
    /// cache is maintained, immediately before the publication flip — a
    /// panic here models the worst crash point: maximum work done, none
    /// of it published.
    pub const MAINTAIN_BEFORE_FLIP: &str = "maintain::before_flip";
    /// At the top of each scratch-rebuild attempt during panic recovery
    /// or the compaction fallback — a panic here consumes one bounded
    /// retry.
    pub const MAINTAIN_REBUILD_ATTEMPT: &str = "maintain::rebuild_attempt";
    /// In [`try_serve`] before admission control runs.
    ///
    /// [`try_serve`]: crate::ranking::ServingState::try_serve
    pub const SERVE_ADMIT: &str = "serve::admit";
    /// In [`try_serve`] after admission, before the ranking evaluation.
    ///
    /// [`try_serve`]: crate::ranking::ServingState::try_serve
    pub const SERVE_EVAL: &str = "serve::eval";
    /// In the ingestion governor's commit path, before the WAL append: a
    /// [`FaultAction::TornWrite`] scripted here cuts the record mid-byte
    /// (translated to the WAL writer's scripted fault) and fails the
    /// commit like a crash would.
    ///
    /// [`FaultAction::TornWrite`]: super::FaultAction::TornWrite
    pub const WAL_APPEND: &str = "wal::append";
    /// In the ingestion governor's commit path, at the fsync that
    /// follows the append: a [`FaultAction::FailSync`] scripted here
    /// fails the sync after a fully written record.
    ///
    /// [`FaultAction::FailSync`]: super::FaultAction::FailSync
    pub const WAL_SYNC: &str = "wal::sync";
    /// In the governor's checkpoint path, before the checkpoint file is
    /// renamed into place (crash leaves old checkpoint + full WAL).
    pub const CHECKPOINT_BEFORE: &str = "wal::checkpoint_before";
    /// In the governor's checkpoint path, after the rename but before
    /// the WAL truncation (crash leaves new checkpoint + stale WAL).
    pub const CHECKPOINT_AFTER: &str = "wal::checkpoint_after";
    /// In the governor's enqueue path, before capacity is checked.
    pub const INGEST_ENQUEUE: &str = "ingest::enqueue";
}

/// One scripted failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for the given duration at the site (models a stall: slow
    /// I/O, scheduling hiccup, lock convoy).
    Delay(Duration),
    /// Panic at the site (models a crash mid-operation). The panic
    /// message names the site, so `catch_unwind` recovery paths can be
    /// asserted against it.
    Panic,
    /// At [`site::MAINTAIN_DELTA_SOURCE`]: pretend the KB's delta log was
    /// compacted past the session's epoch, forcing the full-rebuild
    /// fallback. Ignored at every other site.
    ForceCompaction,
    /// At [`site::WAL_APPEND`]: cut the WAL record after this many bytes
    /// and fail the append (a torn write at a scripted byte). Retrieved
    /// through [`FaultPlan::fire_io`]; [`FaultPlan::fire`] treats it as
    /// inert.
    TornWrite(usize),
    /// At [`site::WAL_SYNC`]: fail the fsync after a fully written
    /// record. Retrieved through [`FaultPlan::fire_io`].
    FailSync,
    /// At [`site::CHECKPOINT_BEFORE`] / [`site::CHECKPOINT_AFTER`]:
    /// abort the checkpoint at that point, simulating a crash around the
    /// atomic rename. Retrieved through [`FaultPlan::fire_io`].
    CrashHere,
}

/// A deterministic, consumable script of injected faults, keyed by site.
/// Build with [`FaultPlan::seeded`] and chain [`FaultPlan::one_shot`];
/// attach to a session with [`ServingState::with_fault_plan`].
///
/// [`ServingState::with_fault_plan`]: crate::ranking::ServingState::with_fault_plan
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    scripted: Mutex<HashMap<&'static str, VecDeque<FaultAction>>>,
}

impl FaultPlan {
    /// An empty plan carrying a reproducibility label. The seed is not a
    /// randomness source — the plan only ever replays what was scripted —
    /// but generated suites stamp it so a failing chaos run names its
    /// scenario.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, scripted: Mutex::default() }
    }

    /// The reproducibility label.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends one action to `site`'s queue: the n-th `fire` at that site
    /// consumes the n-th scripted action, and further fires are clean.
    /// Chainable.
    pub fn one_shot(self, site: &'static str, action: FaultAction) -> Self {
        self.scripted.lock().entry(site).or_default().push_back(action);
        self
    }

    /// Scripted actions not yet consumed (a finished chaos test asserts
    /// this reached 0 — every scripted fault actually fired).
    pub fn pending(&self) -> usize {
        self.scripted.lock().values().map(VecDeque::len).sum()
    }

    /// Fires the next scripted action at `site`, if any. Delays sleep
    /// here; panics unwind from here (the caller's `catch_unwind` is the
    /// thing under test); `ForceCompaction` returns `true` and leaves the
    /// interpretation to the site. Unscripted sites cost one mutex lock.
    pub fn fire(&self, site: &'static str) -> bool {
        let action = self.scripted.lock().get_mut(site).and_then(VecDeque::pop_front);
        match action {
            None => false,
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic at {site} (plan seed {})", self.seed)
            }
            Some(FaultAction::ForceCompaction) => true,
            // I/O-shaped actions are inert through the boolean interface;
            // sites that understand them use `fire_io`.
            Some(FaultAction::TornWrite(_) | FaultAction::FailSync | FaultAction::CrashHere) => {
                false
            }
        }
    }

    /// Fires the next scripted action at an I/O site and returns it for
    /// site-specific interpretation (torn-write byte offsets, sync
    /// failures, checkpoint crash points). Delays sleep here and return
    /// `None`; panics unwind from here, as with [`FaultPlan::fire`].
    pub fn fire_io(&self, site: &'static str) -> Option<FaultAction> {
        let action = self.scripted.lock().get_mut(site).and_then(VecDeque::pop_front);
        match action {
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic at {site} (plan seed {})", self.seed)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_actions_fire_in_order_then_exhaust() {
        let plan = FaultPlan::seeded(7)
            .one_shot(site::SERVE_ADMIT, FaultAction::ForceCompaction)
            .one_shot(site::SERVE_ADMIT, FaultAction::Delay(Duration::from_millis(1)));
        assert_eq!(plan.pending(), 2);
        assert!(plan.fire(site::SERVE_ADMIT), "first fire returns the scripted action");
        assert!(!plan.fire(site::SERVE_ADMIT), "delay fires quietly");
        assert!(!plan.fire(site::SERVE_ADMIT), "exhausted site is clean");
        assert!(!plan.fire(site::SERVE_EVAL), "unscripted site is clean");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn injected_panic_names_the_site() {
        let plan = FaultPlan::seeded(3).one_shot(site::MAINTAIN_BEFORE_FLIP, FaultAction::Panic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.fire(site::MAINTAIN_BEFORE_FLIP);
        }))
        .expect_err("scripted panic must unwind");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("maintain::before_flip"), "{msg}");
    }
}
