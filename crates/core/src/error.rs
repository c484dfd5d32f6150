//! Error type of the core crate.

/// Errors raised by enumeration and ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A pattern failed structural validation.
    InvalidPattern(String),
    /// The pattern-size limit is too small to hold any explanation.
    LimitTooSmall(usize),
    /// An entity referenced by a query does not exist.
    UnknownEntity(String),
    /// An error bubbled up from the relational engine.
    Relational(String),
    /// A global-distribution sample frame was requested from a knowledge
    /// base with no eligible (degree > 0) start entity.
    EmptySampleFrame {
        /// The requested sample size.
        requested: usize,
        /// Entities in the knowledge base.
        nodes: usize,
    },
    /// A budgeted evaluation stopped cooperatively before one of its
    /// starts — the request's deadline, cancellation token, or row budget
    /// fired.
    /// Nothing partial was published; retrying with a larger budget (or
    /// none) recomputes from the cache's intact state.
    Aborted(rex_relstore::budget::AbortReason),
    /// Admission control shed the request: admitting its estimated rows
    /// would overdraw the serving state's concurrent-request row pool.
    /// **Retryable** — capacity frees as admitted requests finish.
    Overloaded {
        /// Estimated rows the request needed (clamped to pool capacity).
        needed: usize,
        /// Rows available in the pool at the time of the attempt.
        available: usize,
    },
    /// Maintenance recovery gave up: the scratch rebuild kept panicking
    /// through its bounded retries. The serving state still serves its
    /// last published epoch.
    MaintenanceFailed(String),
    /// The durability layer failed: a WAL append or fsync error, a
    /// checkpoint crash, or a delta op the durable KB could not apply.
    /// The failed window is not acknowledged; after a crash, recovery
    /// replays only fully committed batches.
    Durability(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidPattern(msg) => write!(f, "invalid pattern: {msg}"),
            CoreError::LimitTooSmall(n) => {
                write!(f, "pattern-size limit {n} cannot hold an explanation (need ≥ 2)")
            }
            CoreError::UnknownEntity(name) => write!(f, "unknown entity: {name}"),
            CoreError::Relational(msg) => write!(f, "relational engine: {msg}"),
            CoreError::EmptySampleFrame { requested, nodes } => write!(
                f,
                "cannot draw a {requested}-start sample frame: none of the {nodes} entities \
                 has an incident edge"
            ),
            CoreError::Aborted(reason) => write!(f, "evaluation aborted: {reason}"),
            CoreError::Overloaded { needed, available } => write!(
                f,
                "request shed by admission control: needs ~{needed} rows, {available} available \
                 (retryable: capacity frees as admitted requests finish)"
            ),
            CoreError::MaintenanceFailed(msg) => write!(f, "maintenance failed: {msg}"),
            CoreError::Durability(msg) => write!(f, "durability layer: {msg}"),
        }
    }
}

impl CoreError {
    /// Whether the caller should retry the same request after backoff
    /// (only [`CoreError::Overloaded`] — shed requests were never
    /// started, so a retry is safe and expected).
    pub fn is_retryable(&self) -> bool {
        matches!(self, CoreError::Overloaded { .. })
    }
}

impl std::error::Error for CoreError {}

impl From<rex_relstore::RelError> for CoreError {
    fn from(e: rex_relstore::RelError) -> Self {
        match e {
            rex_relstore::RelError::Aborted(reason) => CoreError::Aborted(reason),
            other => CoreError::Relational(other.to_string()),
        }
    }
}

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::LimitTooSmall(1).to_string().contains("limit 1"));
        assert!(CoreError::UnknownEntity("x".into()).to_string().contains('x'));
        let rel: CoreError = rex_relstore::RelError::UnknownColumn("c".into()).into();
        assert!(rel.to_string().contains("unknown column"));
    }
}
