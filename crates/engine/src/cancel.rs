//! Cooperative cancellation and deadlines for in-flight traversals.
//!
//! Long queries — dense product-automaton frontiers, unbounded weighted
//! searches — must be killable by a caller that has lost interest (a client
//! disconnect, a server-side timeout). The engine's unit of interruption is
//! the cursor pull: every [`crate::RowCursor`] pull and every walker advance
//! inside a pull checks its [`CancelToken`]/deadline and aborts with
//! [`crate::EngineError::Cancelled`]. Cancellation is *cooperative* — no
//! thread is killed, no lock is poisoned, and the underlying store stays
//! fully usable; the cursor is simply fused.
//!
//! ```
//! use std::time::Duration;
//! use mrpa_engine::{classic_social_graph, CancelToken, EngineError, Traversal};
//!
//! let g = classic_social_graph();
//! let token = CancelToken::new();
//! token.cancel(); // e.g. from another thread, or a server timeout sweep
//! let err = Traversal::over(&g)
//!     .match_("(knows|created)*")
//!     .cancel_token(&token)
//!     .execute()
//!     .unwrap_err();
//! assert_eq!(err, EngineError::Cancelled);
//!
//! // an expired deadline cancels the same way
//! let err = Traversal::over(&g)
//!     .match_("(knows|created)*")
//!     .timeout(Duration::ZERO)
//!     .execute()
//!     .unwrap_err();
//! assert_eq!(err, EngineError::Cancelled);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::EngineError;

/// A shared cancellation flag: clone it, hand one clone to the executing
/// traversal and keep the other; calling [`CancelToken::cancel`] makes every
/// in-flight pull observing the token fail with
/// [`EngineError::Cancelled`](crate::EngineError). Cheap to clone (one `Arc`)
/// and safe to trigger from any thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the token; every traversal holding a clone aborts at its next
    /// liveness check. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The liveness bounds attached to one cursor: an optional shared token and
/// an optional absolute deadline.
#[derive(Debug, Clone, Default)]
pub(crate) struct Liveness {
    pub(crate) token: Option<CancelToken>,
    pub(crate) deadline: Option<Instant>,
}

impl Liveness {
    /// `None` when no bound is set — lets the hot path skip checks entirely.
    pub(crate) fn active(&self) -> Option<&Liveness> {
        if self.token.is_some() || self.deadline.is_some() {
            Some(self)
        } else {
            None
        }
    }

    /// Errors with [`EngineError::Cancelled`] if the token fired or the
    /// deadline passed.
    pub(crate) fn check(&self) -> Result<(), EngineError> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::Cancelled);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionStrategy;
    use crate::pipeline::Traversal;
    use crate::store::classic_social_graph;
    use std::time::Duration;

    #[test]
    fn expired_timeout_cancels_every_strategy_and_never_poisons_the_store() {
        let g = classic_social_graph();
        for strategy in [
            ExecutionStrategy::Materialized,
            ExecutionStrategy::Streaming,
            ExecutionStrategy::Parallel,
        ] {
            let err = Traversal::over(&g)
                .match_("(knows|created)*")
                .strategy(strategy)
                .timeout(Duration::ZERO)
                .execute()
                .unwrap_err();
            assert_eq!(err, EngineError::Cancelled, "{strategy:?}");
        }
        // reads and writes still work: cancellation left nothing poisoned
        let r = Traversal::over(&g)
            .v(["marko"])
            .out_any()
            .execute()
            .unwrap();
        assert_eq!(r.len(), 3);
        g.add_edge("marko", "knows", "peter");
        assert_eq!(
            Traversal::over(&g).v(["marko"]).out_any().count().unwrap(),
            4
        );
    }

    #[test]
    fn token_cancels_a_cursor_mid_stream() {
        let g = classic_social_graph();
        let token = CancelToken::new();
        let mut cursor = Traversal::over(&g)
            .match_("(knows|created)+")
            .strategy(ExecutionStrategy::Streaming)
            .cancel_token(&token)
            .cursor()
            .unwrap();
        // the first pull succeeds, then the token fires between pulls —
        // the suspended frontier is dropped, not drained
        assert!(cursor.next_row().unwrap().is_some());
        token.cancel();
        assert_eq!(cursor.next_row().unwrap_err(), EngineError::Cancelled);
        // an errored cursor is fused
        assert!(cursor.next_row().unwrap().is_none());
    }

    #[test]
    fn terminals_honour_cancellation() {
        let g = classic_social_graph();
        let token = CancelToken::new();
        token.cancel();
        let t = Traversal::over(&g).out_any().cancel_token(&token);
        assert_eq!(t.clone().first().unwrap_err(), EngineError::Cancelled);
        assert_eq!(t.clone().exists().unwrap_err(), EngineError::Cancelled);
        assert_eq!(t.count().unwrap_err(), EngineError::Cancelled);
    }

    #[test]
    fn token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn liveness_checks_token_and_deadline() {
        let none = Liveness::default();
        assert!(none.active().is_none());
        assert!(none.check().is_ok());

        let token = CancelToken::new();
        let live = Liveness {
            token: Some(token.clone()),
            deadline: None,
        };
        assert!(live.active().is_some());
        assert!(live.check().is_ok());
        token.cancel();
        assert_eq!(live.check(), Err(EngineError::Cancelled));

        let expired = Liveness {
            token: None,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        assert_eq!(expired.check(), Err(EngineError::Cancelled));
        let future = Liveness {
            token: None,
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
        };
        assert!(future.check().is_ok());
    }
}
