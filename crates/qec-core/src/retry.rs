//! Deadline-aware retry backoff for the replicated scatter path.
//!
//! [`Backoff`] produces the wait before each retry round: capped
//! exponential growth with full-range jitter (uniform in `[delay/2,
//! delay]`, a seeded xorshift64 — no `rand` dependency), and a
//! deadline-aware gate ([`next_before`](Backoff::next_before)) that
//! refuses to schedule a retry whose wait alone would outlive the
//! request's effective deadline. A sharded scatter retries its failed
//! shards in rounds, the submitter sleeping one step before each; it
//! uses that refusal as its "stop retrying, omit the shards" signal,
//! which is what keeps retry storms from eating a request's whole
//! budget: backoff never sleeps past the point where the retry could
//! still matter.

use std::time::{Duration, Instant};

/// Capped exponential backoff with jitter. One instance per retried
/// operation; each [`next_before`](Self::next_before) call advances the
/// attempt counter.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base` and doubling per attempt up to `cap`.
    /// `seed` drives the jitter; equal seeds replay the same delays, which
    /// keeps chaos tests deterministic.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base,
            cap,
            attempt: 0,
            // xorshift64 has one fixed point at 0; nudge it off.
            rng: seed | 1,
        }
    }

    fn roll(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The wait before the next retry: `base · 2^attempt` capped at `cap`,
    /// jittered uniformly into `[delay/2, delay]` so synchronized retriers
    /// spread out instead of stampeding in lockstep.
    fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(32);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = raw.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        let jittered = match half {
            0 => nanos,
            h => h + self.roll() % (nanos - h + 1),
        };
        Duration::from_nanos(jittered)
    }

    /// The next retry's wait, or `None` when that wait alone would reach
    /// `deadline` — the caller should give up instead of sleeping into a
    /// guaranteed `DeadlineExceeded`. A `None` deadline always schedules.
    pub fn next_before(&mut self, now: Instant, deadline: Option<Instant>) -> Option<Duration> {
        let delay = self.next_delay();
        match deadline {
            Some(d) if now + delay >= d => None,
            _ => Some(delay),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 42);
        for attempt in 0..5u32 {
            let raw = Duration::from_millis(1 << attempt);
            let d = b.next_delay();
            assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: {d:?} outside [{:?}, {raw:?}]",
                raw / 2
            );
        }
    }

    #[test]
    fn cap_bounds_the_growth() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(25), 7);
        for _ in 0..20 {
            assert!(b.next_delay() <= Duration::from_millis(25));
        }
    }

    #[test]
    fn equal_seeds_replay_equal_delays() {
        let mut a = Backoff::new(Duration::from_micros(500), Duration::from_millis(50), 9);
        let mut b = Backoff::new(Duration::from_micros(500), Duration::from_millis(50), 9);
        for _ in 0..8 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn next_before_refuses_waits_past_the_deadline() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 3);
        let now = Instant::now();
        // Plenty of room: schedules.
        assert!(b
            .next_before(now, Some(now + Duration::from_secs(10)))
            .is_some());
        // The deadline is closer than any possible jittered delay
        // (>= base/2 after the first attempt's growth): refuses.
        assert_eq!(
            b.next_before(now, Some(now + Duration::from_micros(1))),
            None
        );
        // No deadline: always schedules.
        assert!(b.next_before(now, None).is_some());
    }

    #[test]
    fn zero_base_stays_zero() {
        let mut b = Backoff::new(Duration::ZERO, Duration::from_secs(1), 5);
        assert_eq!(b.next_delay(), Duration::ZERO);
        assert_eq!(b.next_delay(), Duration::ZERO);
    }
}
