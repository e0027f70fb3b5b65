//! Shared state for pool-driven expansion of independent per-cluster
//! instances.
//!
//! The paper expands each cluster of the original result list separately;
//! the instances share the (immutable) arena and nothing else, so they
//! parallelise embarrassingly. The fan-out itself is one
//! [`WorkerPool::run_indexed`](crate::pool::WorkerPool::run_indexed) batch
//! (the engine's flat per-(request, cluster) task set); this module holds
//! the two pieces such a batch needs: [`ScratchPool`], so every task runs
//! on a warmed scratch, and [`DisjointSlots`], so every task writes its
//! own output slot without synchronisation. Results are bit-identical to
//! the sequential algorithm at any worker count, and output order matches
//! input order.

use std::cell::UnsafeCell;
use std::sync::{Mutex, MutexGuard};

use crate::iskr::IskrScratch;

/// A shared pool of reusable scratch values for pool-backed work: tasks
/// acquire a scratch, run, and release it, so a long-lived serving
/// process converges on one warmed scratch per concurrently running task
/// instead of building a fresh one per request. Acquire/release are a
/// mutex-guarded `Vec` pop/push — allocation-free once the pool has grown
/// to its steady-state size.
///
/// Defaults to [`IskrScratch`] (the expansion fan-out's working state),
/// but any `Default` type pools the same way — the engine also keeps a
/// `ScratchPool<SearchScratch>` so cold pipeline builds scheduled on the
/// worker pool reuse warmed search buffers.
#[derive(Debug)]
pub struct ScratchPool<T = IskrScratch> {
    inner: Mutex<Vec<T>>,
}

// Manual impl: `derive(Default)` would require `T: Default` even though an
// empty pool needs no values.
impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool; scratches are created on first acquire and retained
    /// on release.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a pooled scratch, or creates a fresh one when empty.
    pub fn acquire(&self) -> T {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch for later reuse. A scratch left in an unknown
    /// state (e.g. its user panicked mid-run) should be dropped instead —
    /// the pool hands scratches out as-is.
    pub fn release(&self, scratch: T) {
        self.lock().push(scratch);
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Output slots written by disjoint indices from many pool workers. A thin
/// `UnsafeCell` wrapper: soundness rests on the scheduler's guarantee that
/// every index is claimed exactly once
/// ([`WorkerPool::run_indexed`](crate::pool::WorkerPool::run_indexed)), so
/// no two tasks ever touch the same slot. Public so pool-driven serving
/// code (the engine's batched flat task set) can reuse it instead of
/// re-deriving the aliasing argument.
pub struct DisjointSlots<'a, T> {
    slots: &'a [UnsafeCell<T>],
}

// SAFETY: concurrent access is confined to distinct indices (each index of
// a `run_indexed` batch runs exactly once), so shared references to the
// wrapper never alias mutably.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}

impl<'a, T> DisjointSlots<'a, T> {
    /// Wraps a uniquely borrowed slice for disjoint-index writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` → `&[UnsafeCell<T>]` is sound (UnsafeCell is
        // repr(transparent)); the unique borrow is held for `'a`.
        let slots = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { slots }
    }

    /// Mutable access to slot `i`.
    ///
    /// # Safety
    /// No other access to slot `i` may be live — callers must only use
    /// each index from the task that exclusively owns it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, i: usize) -> &mut T {
        unsafe { &mut *self.slots[i].get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ResultSet;
    use crate::cancel::CancelToken;
    use crate::expander::{Expander, Iskr, Pebc};
    use crate::iskr::{ExpandedQuery, IskrConfig};
    use crate::pebc::PebcConfig;
    use crate::pool::{default_parallelism, WorkerPool};
    use crate::problem::{Candidate, ExpansionArena, QecInstance};
    use qec_text::TermId;

    fn arena_with_clusters(n: usize, n_clusters: usize) -> (ExpansionArena, Vec<ResultSet>) {
        // Deterministic structured arena: candidate i contains results with
        // (j * (i + 2)) % 7 != 0; clusters are contiguous slices.
        let candidates: Vec<Candidate> = (0..24u32)
            .map(|i| Candidate {
                term: TermId(i),
                contains: ResultSet::from_indices(
                    n,
                    (0..n).filter(|&j| !(j * (i as usize + 2)).is_multiple_of(7)),
                ),
            })
            .collect();
        let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
        let per = n / n_clusters;
        let clusters: Vec<ResultSet> = (0..n_clusters)
            .map(|c| {
                let lo = c * per;
                let hi = if c == n_clusters - 1 { n } else { lo + per };
                ResultSet::from_indices(n, lo..hi)
            })
            .collect();
        (arena, clusters)
    }

    type Make<'a, 'm> = &'m (dyn Fn(usize) -> QecInstance<'a> + Sync);

    /// The reference every fan-out must reproduce: a plain loop of
    /// [`Expander::expand_into`] over one scratch.
    fn sequential(n: usize, expander: &dyn Expander, make: Make) -> Vec<Option<ExpandedQuery>> {
        let mut scratch = IskrScratch::new();
        (0..n)
            .map(|i| {
                let mut out = ExpandedQuery::default();
                expander.expand_into(&make(i), &mut scratch, &mut out);
                Some(out)
            })
            .collect()
    }

    /// The same instances as one indexed batch on `threads` workers: task
    /// `i` expands on a pooled scratch into slot `i`, which stays `None`
    /// when `cancel` trips first.
    fn fan_out(
        threads: usize,
        n: usize,
        expander: &dyn Expander,
        cancel: &CancelToken,
        make: Make,
    ) -> Vec<Option<ExpandedQuery>> {
        let scratches = ScratchPool::new();
        let mut out = vec![None; n];
        let slots = DisjointSlots::new(&mut out);
        WorkerPool::new(threads).run_indexed(n, &|i| {
            let (mut scratch, mut q) = (scratches.acquire(), ExpandedQuery::default());
            if expander.expand_cancellable(&make(i), &mut scratch, &mut q, cancel) {
                // SAFETY: `run_indexed` hands each index to exactly one task.
                *unsafe { slots.get(i) } = Some(q);
            }
            scratches.release(scratch);
        });
        out
    }

    #[test]
    fn parallel_matches_sequential_at_any_thread_count() {
        let (arena, clusters) = arena_with_clusters(96, 6);
        let strategy = Iskr(IskrConfig::default());
        let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
        let reference = sequential(6, &strategy, &make);
        for threads in [1, 2, 3, 8, 64] {
            let parallel = fan_out(threads, 6, &strategy, &CancelToken::none(), &make);
            assert_eq!(parallel, reference, "threads = {threads}");
        }
    }

    #[test]
    fn auto_thread_count_runs() {
        let (arena, clusters) = arena_with_clusters(64, 4);
        let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
        let strategy = Iskr(IskrConfig::default());
        let out = fan_out(
            default_parallelism(),
            4,
            &strategy,
            &CancelToken::none(),
            &make,
        );
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn empty_cluster_list() {
        let (arena, clusters) = arena_with_clusters(32, 2);
        let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
        let strategy = Iskr(IskrConfig::default());
        assert!(fan_out(2, 0, &strategy, &CancelToken::none(), &make).is_empty());
    }

    #[test]
    fn shared_parts_fanout_matches_owned_clusters() {
        let (arena, clusters) = arena_with_clusters(96, 6);
        let full = ResultSet::full(arena.size());
        let universes: Vec<ResultSet> = clusters.iter().map(|c| full.and_not(c)).collect();
        let strategy = Iskr(IskrConfig::default());
        let owned = sequential(6, &strategy, &|i| {
            QecInstance::new(&arena, clusters[i].clone())
        });
        let shared = |i: usize| QecInstance::from_shared_parts(&arena, &clusters[i], &universes[i]);
        for threads in [1, 4, 16] {
            let out = fan_out(threads, 6, &strategy, &CancelToken::none(), &shared);
            assert_eq!(out, owned, "threads = {threads}");
        }
    }

    #[test]
    fn cancellable_pooled_fanout_matches_when_inert_and_degrades_when_tripped() {
        let (arena, clusters) = arena_with_clusters(96, 6);
        let strategy = Iskr(IskrConfig::default());
        let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
        let inert = fan_out(3, 6, &strategy, &CancelToken::none(), &make);
        assert_eq!(inert, sequential(6, &strategy, &make));

        let (token, signal) = CancelToken::manual();
        signal.cancel();
        let tripped = fan_out(3, 6, &strategy, &token, &make);
        assert!(
            tripped.iter().all(Option::is_none),
            "tripped token completes nothing"
        );
    }

    #[test]
    fn strategy_generic_fanout_matches_sequential() {
        let (arena, clusters) = arena_with_clusters(96, 6);
        let strategy = Pebc(PebcConfig::default());
        let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
        let reference = sequential(6, &strategy, &make);
        for threads in [1, 3, 16] {
            let parallel = fan_out(threads, 6, &strategy, &CancelToken::none(), &make);
            assert_eq!(parallel, reference, "threads = {threads}");
        }
    }
}
