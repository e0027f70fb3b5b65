//! Observability counters of the front door.

use std::sync::atomic::{AtomicU64, Ordering};

/// Batch-fill histogram buckets: chunk fills of 1, 2, 3–4, 5–8, 9–16,
/// 17–32, 33–64, 65–128 and 129+ requests.
pub const FILL_BUCKETS: usize = 9;

/// Human-readable labels of the [`IngressStats::fill_hist`] buckets.
pub const FILL_BUCKET_LABELS: [&str; FILL_BUCKETS] = [
    "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65-128", "129+",
];

/// Bucket index of a chunk fill of `n` requests (`n >= 1`).
pub(crate) fn fill_bucket(n: usize) -> usize {
    debug_assert!(n >= 1);
    let bits = (usize::BITS - (n - 1).leading_zeros()) as usize;
    bits.min(FILL_BUCKETS - 1)
}

/// The live (atomic) cells behind [`IngressStats`]. Counters are written
/// with relaxed ordering — they are telemetry, not synchronisation.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub submitted: AtomicU64,
    pub dispatched: AtomicU64,
    pub batches: AtomicU64,
    pub queue_sheds: AtomicU64,
    pub expired_in_queue: AtomicU64,
    pub cancelled_in_queue: AtomicU64,
    pub full_closes: AtomicU64,
    pub linger_closes: AtomicU64,
    pub drain_closes: AtomicU64,
    pub degraded: AtomicU64,
    pub partial: AtomicU64,
    pub fill_hist: [AtomicU64; FILL_BUCKETS],
}

impl StatsCells {
    pub fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_batch(&self, fill: usize) {
        debug_assert!(fill >= 1);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.dispatched.fetch_add(fill as u64, Ordering::Relaxed);
        self.fill_hist[fill_bucket(fill)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self, queue_depth: usize) -> IngressStats {
        IngressStats {
            queue_depth,
            submitted: self.submitted.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            queue_sheds: self.queue_sheds.load(Ordering::Relaxed),
            expired_in_queue: self.expired_in_queue.load(Ordering::Relaxed),
            cancelled_in_queue: self.cancelled_in_queue.load(Ordering::Relaxed),
            full_closes: self.full_closes.load(Ordering::Relaxed),
            linger_closes: self.linger_closes.load(Ordering::Relaxed),
            drain_closes: self.drain_closes.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            fill_hist: std::array::from_fn(|i| self.fill_hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time snapshot of the front door's counters
/// ([`Ingress::stats`](crate::Ingress::stats)).
///
/// The three close counters tell the batching story at a glance: chunks
/// closed **full** took [`batch_max`](crate::IngressConfig::batch_max)
/// requests and left more queued (the door is behind), chunks counted in
/// [`linger_closes`](Self::linger_closes) emptied the queue below it (the
/// door keeps up), and **drain** closes happened during shutdown.
/// [`fill_hist`](Self::fill_hist) shows how full dispatched chunks
/// actually were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Requests currently queued (a gauge, read at snapshot time).
    pub queue_depth: usize,
    /// Requests accepted by [`submit`](crate::Ingress::submit) so far.
    pub submitted: u64,
    /// Requests handed to the engine inside dispatched chunks.
    pub dispatched: u64,
    /// Chunks dispatched.
    pub batches: u64,
    /// Submissions refused at the
    /// [`queue_cap`](crate::IngressConfig::queue_cap) backstop.
    pub queue_sheds: u64,
    /// Requests completed with `DeadlineExceeded` while still queued
    /// (including submissions whose deadline had already lapsed).
    pub expired_in_queue: u64,
    /// Requests completed with `Cancelled` while still queued (including
    /// submissions whose token was already tripped).
    pub cancelled_in_queue: u64,
    /// Chunks closed because they reached `batch_max`.
    pub full_closes: u64,
    /// Chunks that emptied the queue below `batch_max` (outside
    /// shutdown). The collector no longer lingers; the field keeps its
    /// name because the benchmark's `ingress.linger_closes` row reads it.
    pub linger_closes: u64,
    /// Chunks closed by the shutdown drain.
    pub drain_closes: u64,
    /// Requests that completed `Ok` but **degraded** — a deadline tripped
    /// after the pipeline existed, so the response carries an intact
    /// prefix of cluster expansions
    /// ([`ExpandStats::degraded`](qec_engine::ExpandStats::degraded)).
    pub degraded: u64,
    /// Requests that completed `Ok` but **partial** — a replicated
    /// scatter omitted at least one shard whose every replica was
    /// unavailable
    /// ([`ExpandStats::shards_omitted`](qec_engine::ExpandStats::shards_omitted)).
    pub partial: u64,
    /// Dispatched-chunk fill histogram; bucket ranges in
    /// [`FILL_BUCKET_LABELS`].
    pub fill_hist: [u64; FILL_BUCKETS],
}

impl IngressStats {
    /// Mean requests per dispatched chunk (`0.0` before the first chunk).
    pub fn mean_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.dispatched as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_buckets_partition_the_fills() {
        let expect = [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
            (17, 5),
            (32, 5),
            (33, 6),
            (64, 6),
            (65, 7),
            (128, 7),
            (129, 8),
            (100_000, 8),
        ];
        for (n, bucket) in expect {
            assert_eq!(fill_bucket(n), bucket, "fill {n}");
        }
    }

    #[test]
    fn mean_fill_handles_zero_batches() {
        assert_eq!(IngressStats::default().mean_fill(), 0.0);
        let cells = StatsCells::default();
        cells.record_batch(4);
        cells.record_batch(8);
        assert_eq!(cells.snapshot(0).mean_fill(), 6.0);
        assert_eq!(cells.snapshot(0).fill_hist[fill_bucket(4)], 1);
    }
}
