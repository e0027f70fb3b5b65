//! Cooperative cancellation for the expansion kernels.
//!
//! A [`CancelToken`] carries an optional **deadline** and an optional
//! **manual flag**; the cancellable expansion entry points
//! ([`crate::iskr::iskr_into_cancellable`] and friends) poll it at their
//! iteration boundaries and bail with `None` when it has tripped. The
//! contract every kernel honours is *no torn results*: a cancelled run
//! returns nothing rather than a half-refined query, so callers either
//! get a cluster's complete expansion or drop the cluster entirely —
//! which is what lets a serving deadline degrade a response to its
//! finished prefix instead of corrupting it.
//!
//! Cost discipline
//! ---------------
//! The inert token ([`CancelToken::none`]) is two `Option` discriminant
//! tests per poll — branch-predicted noise against a move valuation, and
//! zero allocation, so the zero-alloc serving paths thread tokens through
//! unconditionally. An armed deadline costs one `Instant::now()` per
//! poll; polls sit at iteration granularity (one per greedy move, one per
//! 64-result word of a lane valuation pass), not inside the bitset kernels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cheaply clonable cancellation token: deadline, manual flag, both, or
/// inert. See the module docs for the polling contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// The inert token: never cancels, costs two branch tests per poll.
    pub fn none() -> Self {
        Self::default()
    }

    /// A token that trips once `deadline` passes.
    pub fn until(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            flag: None,
        }
    }

    /// A manually tripped token plus its [`CancelSignal`] handle — for
    /// callers that cancel on an external event (client disconnect,
    /// shutdown) rather than a clock, and for deterministic tests.
    pub fn manual() -> (Self, CancelSignal) {
        let flag = Arc::new(AtomicBool::new(false));
        (
            Self {
                deadline: None,
                flag: Some(Arc::clone(&flag)),
            },
            CancelSignal { flag },
        )
    }

    /// This token with its deadline tightened to `min(own, deadline)`;
    /// the manual flag (if any) is shared with the original. No
    /// allocation — the flag is `Arc`-cloned.
    pub fn with_deadline(&self, deadline: Option<Instant>) -> Self {
        Self {
            deadline: match (self.deadline, deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            flag: self.flag.clone(),
        }
    }

    /// The deadline component, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Polls the **manual flag alone**: `true` once a [`CancelSignal`]
    /// sharing this token's flag has fired, regardless of the deadline.
    /// This is how a front door tells an *explicit* cancellation apart
    /// from a lapsed deadline when deciding which error to complete a
    /// still-queued request with; [`is_cancelled`](Self::is_cancelled)
    /// folds both causes together.
    pub fn flag_tripped(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    }

    /// Whether this token carries a manual flag at all (tripped or not).
    /// A queue holding flagged tokens must *poll* for trips — there is no
    /// waker attached to a [`CancelSignal`] — while deadline-only tokens
    /// can be slept past precisely.
    pub fn has_flag(&self) -> bool {
        self.flag.is_some()
    }

    /// Polls the token: `true` once the manual flag is set or the
    /// deadline has passed. Inert tokens answer without reading the
    /// clock.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Acquire) {
                return true;
            }
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

/// The write half of [`CancelToken::manual`].
#[derive(Debug, Clone)]
pub struct CancelSignal {
    flag: Arc<AtomicBool>,
}

impl CancelSignal {
    /// Trips every token sharing this flag. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.has_flag());
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn deadline_trips_after_it_passes() {
        let t = CancelToken::until(Instant::now() + Duration::from_millis(20));
        assert!(t.deadline().is_some());
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(30));
        assert!(t.is_cancelled());
    }

    #[test]
    fn manual_signal_trips_all_clones() {
        let (t, signal) = CancelToken::manual();
        let t2 = t.clone();
        assert!(!t.is_cancelled() && !t2.is_cancelled());
        signal.cancel();
        assert!(t.is_cancelled());
        assert!(t2.is_cancelled());
    }

    #[test]
    fn with_deadline_takes_the_minimum_and_keeps_the_flag() {
        let near = Instant::now() + Duration::from_millis(5);
        let far = Instant::now() + Duration::from_secs(3600);
        assert_eq!(
            CancelToken::until(far).with_deadline(Some(near)).deadline(),
            Some(near)
        );
        assert_eq!(
            CancelToken::until(near).with_deadline(Some(far)).deadline(),
            Some(near)
        );
        assert_eq!(
            CancelToken::none().with_deadline(Some(far)).deadline(),
            Some(far)
        );
        let (t, signal) = CancelToken::manual();
        let merged = t.with_deadline(Some(far));
        signal.cancel();
        assert!(merged.is_cancelled(), "merged token shares the flag");
    }

    #[test]
    fn with_deadline_merge_is_order_invariant() {
        // Chained merges land on the minimum no matter the order the
        // deadlines arrive in — the front door merges (request deadline,
        // timeout, token deadline) without caring which is tightest.
        let now = Instant::now();
        let a = now + Duration::from_millis(10);
        let b = now + Duration::from_secs(10);
        let c = now + Duration::from_secs(3600);
        for perm in [[a, b, c], [c, b, a], [b, a, c], [c, a, b]] {
            let merged = CancelToken::none()
                .with_deadline(Some(perm[0]))
                .with_deadline(Some(perm[1]))
                .with_deadline(Some(perm[2]));
            assert_eq!(merged.deadline(), Some(a), "min survives any merge order");
        }
        // `None` merges are identity on the deadline, whichever side
        // holds it.
        assert_eq!(
            CancelToken::until(a).with_deadline(None).deadline(),
            Some(a)
        );
        assert_eq!(CancelToken::none().with_deadline(None).deadline(), None);
    }

    #[test]
    fn merging_an_already_expired_deadline_trips_immediately() {
        let past = Instant::now() - Duration::from_millis(5);
        let merged = CancelToken::none().with_deadline(Some(past));
        assert_eq!(merged.deadline(), Some(past));
        assert!(merged.is_cancelled(), "expired deadline trips on arrival");
        // Tightening an already-expired token cannot loosen it.
        let future = Instant::now() + Duration::from_secs(3600);
        assert!(merged.with_deadline(Some(future)).is_cancelled());
    }

    #[test]
    fn flag_tripped_distinguishes_manual_trips_from_deadlines() {
        let past = Instant::now() - Duration::from_millis(5);
        let expired = CancelToken::until(past);
        assert!(expired.is_cancelled());
        assert!(
            !expired.flag_tripped(),
            "a lapsed deadline is not a manual trip"
        );

        let (manual, signal) = CancelToken::manual();
        assert!(!manual.flag_tripped());
        signal.cancel();
        assert!(manual.flag_tripped());

        // The distinction survives a deadline merge (the flag is shared,
        // not copied).
        let (t, signal) = CancelToken::manual();
        let merged = t.with_deadline(Some(past));
        assert!(merged.is_cancelled(), "deadline component already lapsed");
        assert!(!merged.flag_tripped(), "but the flag has not fired");
        signal.cancel();
        assert!(merged.flag_tripped(), "trip reaches the merged clone");
    }
}
