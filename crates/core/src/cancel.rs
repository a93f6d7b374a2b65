//! Cooperative cancellation for pipeline runs.
//!
//! Long analyses and region-simulation sweeps are uninterruptible in a
//! one-shot CLI — acceptable there, fatal in a multi-tenant service where
//! a job must honor a timeout or an explicit cancel without taking the
//! whole process down. A [`CancelToken`] is a cheap, clonable flag that
//! callers hand to a pipeline run (via
//! [`crate::LoopPointConfig::with_cancel`]) and trip from any thread; the
//! pipeline checks it at phase boundaries and between region simulations
//! and aborts with [`crate::LoopPointError::Cancelled`].
//!
//! Granularity is deliberately coarse (a phase or a single region, not an
//! individual simulated instruction): checks are free on the hot path and
//! an in-flight region completes before the abort, so partially simulated
//! state never leaks out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A clonable cancellation flag shared between a job's owner and the
/// pipeline executing it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the flag; every pipeline holding a clone aborts at its next
    /// check. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Whether two tokens share one flag (clones of each other).
    pub fn same_flag(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }

    /// Returns `Err(LoopPointError::Cancelled)` if the flag is tripped.
    ///
    /// # Errors
    /// [`crate::LoopPointError::Cancelled`] when cancelled.
    pub fn check(&self) -> Result<(), crate::LoopPointError> {
        if self.is_cancelled() {
            Err(crate::LoopPointError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_once_and_stays_tripped() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(crate::LoopPointError::Cancelled)));
        assert!(t.same_flag(&clone));
        assert!(!t.same_flag(&CancelToken::new()));
    }

    #[test]
    fn cancellation_crosses_threads() {
        let t = CancelToken::new();
        let remote = t.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
