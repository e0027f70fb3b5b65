//! Per-replica circuit breakers for the replicated scatter path.
//!
//! A [`CircuitBreaker`] tracks one replica's consecutive failures and
//! gates whether the selection policy may route work to it:
//!
//! ```text
//!            consecutive_failures >= threshold
//!   ┌────────┐ ────────────────────────────────▶ ┌──────┐
//!   │ Closed │                                   │ Open │──┐ admits
//!   └────────┘ ◀──────────────┐                  └──────┘  │ nothing
//!        ▲                    │ probe succeeds       │     │ until
//!        │              ┌──────────┐  cooldown lapsed│     │ cooled
//!        └── success ── │ Half-open│ ◀───────────────┘ ◀───┘
//!                       └──────────┘ (exactly one probe admitted;
//!                        probe fails └──▶ back to Open, cooldown restarts)
//! ```
//!
//! The struct is all atomics — selection happens inside scatter tasks and
//! coordinators on many threads, and a breaker decision must never take a
//! lock on that path. The half-open transition uses a compare-exchange so
//! exactly **one** prober is admitted per cooldown lapse; racing threads
//! keep seeing the replica as unavailable until the probe resolves.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Where a breaker currently stands (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: nothing is admitted until `cooldown` lapses.
    Open,
    /// Cooling finished: one probe is in flight; its outcome decides
    /// between `Closed` and another `Open` round.
    HalfOpen,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// A lock-free consecutive-failure circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    /// Consecutive failures that trip the breaker; `0` disables tripping
    /// entirely (the breaker stays `Closed` forever).
    threshold: u32,
    /// How long an open breaker refuses everything before admitting one
    /// half-open probe.
    cooldown: Duration,
    /// Reference instant for the atomic `opened_at` clock (an `Instant`
    /// cannot live in an atomic; nanoseconds since `epoch` can).
    epoch: Instant,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// Nanoseconds after `epoch` at which the breaker last opened.
    opened_at: AtomicU64,
    opens: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown` (see [`BreakerState`]).
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold,
            cooldown,
            epoch: Instant::now(),
            state: AtomicU8::new(CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at: AtomicU64::new(0),
            opens: AtomicU64::new(0),
        }
    }

    fn nanos_since_epoch(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64
    }

    /// Whether the caller may route a request to this replica at `now`.
    /// `Closed` admits everyone; `Open` admits no one until the cooldown
    /// lapses, at which point exactly one caller wins the half-open probe
    /// slot (everyone else keeps being refused until the probe reports).
    pub fn try_admit(&self, now: Instant) -> bool {
        match self.state.load(Ordering::Acquire) {
            CLOSED => true,
            HALF_OPEN => false,
            _ => {
                let opened = self.opened_at.load(Ordering::Acquire);
                let cooled =
                    opened.saturating_add(self.cooldown.as_nanos().min(u64::MAX as u128) as u64);
                if self.nanos_since_epoch(now) < cooled {
                    return false;
                }
                // Cooldown lapsed: exactly one CAS winner probes.
                self.state
                    .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            }
        }
    }

    /// Records a successful attempt: the failure streak resets and the
    /// breaker closes (a half-open probe that succeeds heals the replica).
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.state.store(CLOSED, Ordering::Release);
    }

    /// Records a failed attempt at `now`: the streak grows, and the
    /// breaker opens when it reaches `threshold` — or immediately when the
    /// failure was the half-open probe (a sick replica goes straight back
    /// to cooling, it does not get `threshold` fresh chances).
    pub fn record_failure(&self, now: Instant) {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let was = self.state.load(Ordering::Acquire);
        if was == HALF_OPEN || (self.threshold > 0 && streak >= self.threshold) {
            self.opened_at
                .store(self.nanos_since_epoch(now), Ordering::Release);
            if self.state.swap(OPEN, Ordering::AcqRel) != OPEN {
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The breaker's current state (telemetry; racing transitions may be
    /// a step ahead of the returned value).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            CLOSED => BreakerState::Closed,
            OPEN => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// Times the breaker transitioned into `Open` since construction.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_millis(50));
        let now = Instant::now();
        assert!(b.try_admit(now));
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed, "streak of 2 < threshold");
        assert!(b.try_admit(now));
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_admit(now), "open breaker admits nothing");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(2, Duration::from_millis(50));
        let now = Instant::now();
        b.record_failure(now);
        b.record_success();
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed, "streak broken by success");
    }

    #[test]
    fn half_open_admits_exactly_one_probe_after_cooldown() {
        let b = CircuitBreaker::new(1, Duration::from_millis(10));
        let t0 = Instant::now();
        b.record_failure(t0);
        assert!(!b.try_admit(t0), "still cooling");
        let cooled = t0 + Duration::from_millis(11);
        assert!(b.try_admit(cooled), "first caller wins the probe slot");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_admit(cooled), "second caller is refused mid-probe");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_admit(cooled));
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let b = CircuitBreaker::new(2, Duration::from_millis(10));
        let t0 = Instant::now();
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        let cooled = t0 + Duration::from_millis(11);
        assert!(b.try_admit(cooled));
        b.record_failure(cooled);
        assert_eq!(b.state(), BreakerState::Open, "one probe failure reopens");
        assert_eq!(b.opens(), 2);
        assert!(
            !b.try_admit(cooled + Duration::from_millis(5)),
            "cooldown restarted"
        );
    }

    #[test]
    fn zero_threshold_never_opens() {
        let b = CircuitBreaker::new(0, Duration::from_millis(1));
        let now = Instant::now();
        for _ in 0..100 {
            b.record_failure(now);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_admit(now));
        assert_eq!(b.opens(), 0);
    }
}
