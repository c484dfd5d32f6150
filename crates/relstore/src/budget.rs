//! Cooperative evaluation budgets — deadlines, cancellation, row limits.
//!
//! REX's interactive contract (§1: explanations surfaced "in real time"
//! next to search results) means an expensive shape evaluation must be
//! *stoppable*: a request that has blown its latency budget should give
//! back its worker instead of finishing an answer nobody is waiting for.
//! The engine's unit of preemption is the **tile** — the batched path
//! ([`crate::engine::count_distributions`]) already splits a batch into
//! bounded chunks, so checking a [`Budget`] at every tile boundary bounds
//! the overshoot past a deadline by one tile's worth of work without any
//! locks, signals, or unwinding inside join code.
//!
//! A [`Budget`] combines three independent, all-optional limits:
//!
//! * a **deadline** (absolute [`Instant`]) — wall-clock latency;
//! * a **cancellation token** ([`CancelToken`]) — caller-driven teardown
//!   (a disconnected client, a superseded request);
//! * a **row budget** (shared atomic pool) — the rows of work a request
//!   may spend, each tile charged the bindings of its widest level, in
//!   the currency of the tiling ceiling and the admission controller's
//!   estimated instance rows.
//!
//! All three are checked *cooperatively*: evaluation only stops at a tile
//! boundary, and stopping is a typed error ([`crate::RelError::Aborted`])
//! carrying the [`AbortReason`], never a panic. The default budget is
//! unlimited, so every pre-existing call path keeps its semantics.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted evaluation stopped at a tile boundary instead of
/// finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The request's [`CancelToken`] was triggered.
    Cancelled,
    /// The shared row budget was exhausted by previous tiles.
    RowBudgetExhausted,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::DeadlineExpired => write!(f, "deadline expired"),
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::RowBudgetExhausted => write!(f, "row budget exhausted"),
        }
    }
}

/// A shared cooperative cancellation token: cloning shares the flag, so a
/// caller can hand one half to an evaluation and trip the other half from
/// any thread. Once cancelled it stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token: every budget sharing it aborts at its next tile
    /// boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The cooperative budget threaded through tiled evaluation: deadline +
/// cancellation + row pool, each optional (see the module docs). `Clone`
/// shares the cancellation flag and the row pool — clones charge the
/// *same* budget, which is what a multi-shape request wants.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    rows: Option<Arc<AtomicUsize>>,
}

impl Budget {
    /// A budget with no limits: never aborts. The implicit budget of
    /// every non-budgeted entry point.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Adds a wall-clock deadline `timeout` from now. A zero timeout is
    /// already expired: the first tile-boundary check aborts. Chainable.
    pub fn with_deadline(self, timeout: Duration) -> Budget {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Adds an absolute wall-clock deadline. Chainable.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a cancellation token (keep a clone to trip it). Chainable.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Adds a row budget: a shared pool of `rows` rows of work; every
    /// completed tile drains its peak rows (its widest level's bindings)
    /// from the pool and an empty pool aborts the next tile. Rejects `0`
    /// loudly — a zero pool can never evaluate anything, which is a
    /// configuration bug, not a request to degrade.
    pub fn with_row_budget(mut self, rows: usize) -> Budget {
        assert!(
            rows > 0,
            "row budget must be positive: a zero-row pool aborts every \
             evaluation before its first tile"
        );
        self.rows = Some(Arc::new(AtomicUsize::new(rows)));
        self
    }

    /// Whether this budget can never abort (no limit is set).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.rows.is_none()
    }

    /// Rows left in the pool, if a row budget is set.
    pub fn remaining_rows(&self) -> Option<usize> {
        self.rows.as_ref().map(|r| r.load(Ordering::Acquire))
    }

    /// The tile-boundary check: `Err` when the budget demands an abort.
    /// Order: cancellation (an explicit caller action) beats the
    /// deadline, which beats row exhaustion.
    pub fn check(&self) -> Result<(), AbortReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(AbortReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(AbortReason::DeadlineExpired);
            }
        }
        if let Some(rows) = &self.rows {
            if rows.load(Ordering::Acquire) == 0 {
                return Err(AbortReason::RowBudgetExhausted);
            }
        }
        Ok(())
    }

    /// Drains `rows` from the pool (saturating at zero). Called *after* a
    /// tile completes — a tile that overruns the pool still returns its
    /// (complete, correct) result; the next [`Budget::check`] aborts.
    pub fn charge_rows(&self, rows: usize) {
        if let Some(pool) = &self.rows {
            let mut cur = pool.load(Ordering::Acquire);
            loop {
                let next = cur.saturating_sub(rows);
                match pool.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_aborts() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.check(), Ok(()));
        b.charge_rows(usize::MAX);
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.remaining_rows(), None);
    }

    #[test]
    fn zero_deadline_is_already_expired() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(AbortReason::DeadlineExpired));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn cancellation_is_shared_and_sticky() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        let clone = b.clone();
        assert_eq!(b.check(), Ok(()));
        token.cancel();
        assert_eq!(b.check(), Err(AbortReason::Cancelled));
        assert_eq!(clone.check(), Err(AbortReason::Cancelled), "clones share the flag");
        assert!(token.is_cancelled());
    }

    #[test]
    fn row_pool_drains_across_clones_and_saturates() {
        let b = Budget::unlimited().with_row_budget(10);
        let clone = b.clone();
        assert_eq!(b.remaining_rows(), Some(10));
        clone.charge_rows(4);
        assert_eq!(b.remaining_rows(), Some(6), "clones share the pool");
        b.charge_rows(100);
        assert_eq!(b.remaining_rows(), Some(0));
        assert_eq!(b.check(), Err(AbortReason::RowBudgetExhausted));
        assert_eq!(clone.check(), Err(AbortReason::RowBudgetExhausted));
    }

    #[test]
    #[should_panic(expected = "row budget must be positive")]
    fn zero_row_budget_is_rejected_loudly() {
        let _ = Budget::unlimited().with_row_budget(0);
    }

    #[test]
    fn cancellation_outranks_deadline_and_rows() {
        let token = CancelToken::new();
        token.cancel();
        let b =
            Budget::unlimited().with_cancel(token).with_deadline(Duration::ZERO).with_row_budget(1);
        b.charge_rows(1);
        assert_eq!(b.check(), Err(AbortReason::Cancelled));
    }
}
