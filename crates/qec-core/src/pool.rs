//! A persistent, work-stealing worker pool — the serving replacement for
//! per-request `std::thread::scope` fan-outs.
//!
//! Why a pool
//! ----------
//! A `std::thread::scope` fan-out spawns fresh OS threads on every call:
//! tens of microseconds of spawn/join cost per request, paid again and
//! again on a serving path whose whole per-cluster expansion often costs
//! less than the spawn. A [`WorkerPool`] pays the spawn cost **once** at
//! engine construction; steady-state dispatch is a deque push and (at
//! most) a condvar wake.
//!
//! Structure
//! ---------
//! * **Fixed worker threads** — `threads` OS threads spawned at
//!   construction, named `qec-pool-N`.
//! * **Per-worker deques** — each worker owns a deque it pops from the
//!   back (LIFO, cache-warm); idle workers steal from other deques' front
//!   (FIFO, oldest/biggest first) — the classic Chase–Lev discipline over
//!   mutex-protected `VecDeque`s, the std-only substitute for lock-free
//!   deques.
//! * **Injector queue** — a shared FIFO for externally
//!   [`spawn`](WorkerPool::spawn)ed jobs; workers drain it when their own
//!   deque is empty, before stealing.
//! * **Park/unpark idling** — a worker that finds no task anywhere parks
//!   on a condvar; submissions bump a wake epoch and notify, so parked
//!   workers never miss work and an idle pool burns no CPU.
//! * **Clean `Drop` shutdown** — dropping the pool flags shutdown, wakes
//!   every worker, and **joins all worker threads**; queued work is
//!   drained before the workers exit, so `Drop` never strands a task.
//!
//! Batch mode and the zero-allocation discipline
//! ---------------------------------------------
//! The serving hot path uses [`run_indexed`](WorkerPool::run_indexed): the
//! caller describes a batch as *`n` indices plus one shared closure*, and
//! the pool deals contiguous index **spans** across the worker deques. A
//! worker splits a span in half before executing (pushing the upper half
//! back where thieves can take it), so granularity adapts to imbalance
//! without per-task boxing. The batch descriptor lives on the submitter's
//! stack and the spans are plain `(ptr, start, end)` triples in deques
//! whose capacity persists — once the pool is warm, scheduling a batch
//! performs **zero heap allocations**, which is what lets the engine's
//! warmed batch serving stay off the heap end to end.
//!
//! `run_indexed` blocks until every index has executed, which is what
//! makes lending non-`'static` closures sound (see the safety notes
//! inline). Do not call it from inside a pool task: a worker waiting on
//! its own pool can deadlock when every peer is doing the same.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// The machine's available parallelism, probed **once** per process and
/// cached — `std::thread::available_parallelism` inspects cgroup and
/// affinity state on every call, which is not something to pay on a
/// serving path (or even per engine build). The engine's pool-size
/// default reads this value.
pub fn default_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A boxed fire-and-forget job for [`WorkerPool::spawn`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The type-erased batch closure of [`WorkerPool::run_indexed`]. The
/// `'static` here is a lie told only inside the pool: `run_indexed` blocks
/// until every index has run, so the erased borrow never outlives the real
/// closure.
type BatchFn = dyn Fn(usize) + Sync;

/// One in-flight `run_indexed` batch. Lives on the **submitter's stack**;
/// workers reach it through the raw pointer carried by their spans.
/// Invariant: `pending` counts indices not yet executed, and every span in
/// any deque is backed by `pending > 0` — so once `pending` hits zero no
/// span referencing this batch exists and the submitter may return.
struct BatchState {
    /// Lifetime-erased shared closure (see [`BatchFn`]).
    f: *const BatchFn,
    /// Indices not yet executed.
    pending: AtomicUsize,
    /// Set when any index's closure panicked; the submitter re-panics.
    panicked: AtomicBool,
}

/// One unit of queued work.
enum Task {
    /// An externally spawned boxed job (injector path).
    Spawned(Job),
    /// A contiguous index span `[start, end)` of an in-flight batch.
    Span {
        batch: *const BatchState,
        start: usize,
        end: usize,
    },
}

// SAFETY: `Spawned` is `Send` by construction. A `Span`'s pointer targets
// a `BatchState` that outlives the span: the submitting thread blocks in
// `run_indexed` until `pending == 0`, and every queued span is backed by
// unexecuted indices counted in `pending`.
unsafe impl Send for Task {}

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// Per-worker deques: owner pops the back, thieves steal the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Shared FIFO for externally spawned jobs.
    injector: Mutex<VecDeque<Task>>,
    /// Wake epoch: bumped on every submission; workers park until it moves.
    epoch: Mutex<u64>,
    /// Workers park here when no task is found anywhere.
    work_cv: Condvar,
    /// Parked-worker count, so hot paths skip the wake lock when nobody
    /// is listening.
    sleepers: AtomicUsize,
    /// Flagged by `Drop`; workers drain remaining work, then exit.
    shutdown: AtomicBool,
    /// Batch-completion handshake (shared by all batches; each submitter
    /// re-checks its own `pending` under this lock).
    done_mutex: Mutex<()>,
    done_cv: Condvar,
}

impl PoolShared {
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bumps the wake epoch and wakes every parked worker.
    fn wake_all(&self) {
        let mut epoch = self.lock(&self.epoch);
        *epoch += 1;
        self.work_cv.notify_all();
    }

    /// [`wake_all`](Self::wake_all), but only when someone is parked —
    /// the split-push hot path takes no lock while all workers are busy.
    fn wake_if_parked(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_all();
        }
    }

    /// Finds the next task for worker `id`: own deque back (LIFO), then
    /// the injector front, then steal the front of the other deques.
    fn find_task(&self, id: usize) -> Option<Task> {
        if let Some(t) = self.lock(&self.deques[id]).pop_back() {
            return Some(t);
        }
        if let Some(t) = self.lock(&self.injector).pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for d in 1..n {
            let victim = (id + d) % n;
            if let Some(t) = self.lock(&self.deques[victim]).pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Runs one task on worker `id`. Panics inside jobs are caught so the
    /// worker survives; batch panics are recorded for the submitter.
    fn run_task(&self, id: usize, task: Task) {
        match task {
            Task::Spawned(job) => {
                // A spawned job has no submitter to re-panic in; swallow
                // so one bad job cannot take a worker down.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Task::Span { batch, start, end } => {
                // SAFETY: spans only exist while their batch's `pending`
                // covers them (see `Task`'s Send justification).
                let b = unsafe { &*batch };
                // Abort guard: if anything below unwinds past the per-index
                // catch (allocator failure in `push_back`, an injected
                // fault), the guard's Drop accounts for the indices this
                // span still owns so the submitter can never hang on
                // `pending`. Defused by the loop driving `start` up to
                // `end`.
                let mut guard = SpanAbort {
                    shared: self,
                    batch,
                    start,
                    end,
                };
                while guard.start < guard.end {
                    if guard.end - guard.start > 1 {
                        // Split: keep the lower half, expose the upper
                        // half to thieves (and to our own later pops).
                        let mid = guard.start + (guard.end - guard.start) / 2;
                        self.lock(&self.deques[id]).push_back(Task::Span {
                            batch,
                            start: mid,
                            end: guard.end,
                        });
                        // The queue owns [mid, end) now; shrink the guard
                        // before anything else can unwind.
                        guard.end = mid;
                        self.wake_if_parked();
                    } else {
                        let i = guard.start;
                        // SAFETY: `f` outlives the batch (erased borrow;
                        // the submitter blocks until `pending == 0`).
                        let f = unsafe { &*b.f };
                        let completed = catch_unwind(AssertUnwindSafe(|| {
                            #[cfg(feature = "failpoints")]
                            if qec_failpoint::check("pool.task").is_err() {
                                return false;
                            }
                            f(i);
                            true
                        }));
                        if !matches!(completed, Ok(true)) {
                            b.panicked.store(true, Ordering::Release);
                        }
                        guard.start += 1;
                        if b.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // Last index of the whole batch: wake the
                            // submitter. `b` must not be touched after
                            // this point — the submitter may free it as
                            // soon as it observes `pending == 0`. (The
                            // guard is exhausted here: a zero batch-wide
                            // `pending` means this span has none left.)
                            let _g = self.lock(&self.done_mutex);
                            self.done_cv.notify_all();
                            return;
                        }
                    }
                }
            }
        }
    }

    fn worker_loop(&self, id: usize) {
        loop {
            // Snapshot the epoch *before* scanning, so a submission that
            // lands between our scan and our park moves the epoch and
            // keeps us awake.
            let seen = *self.lock(&self.epoch);
            if let Some(task) = self.find_task(id) {
                // Belt-and-braces: `run_task` already catches task panics,
                // but an unwind from its own bookkeeping must not kill the
                // worker either — a pool thread dying silently would strand
                // every span it would have stolen.
                let _ = catch_unwind(AssertUnwindSafe(|| self.run_task(id, task)));
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut epoch = self.lock(&self.epoch);
            if *epoch == seen && !self.shutdown.load(Ordering::Acquire) {
                self.sleepers.fetch_add(1, Ordering::Relaxed);
                while *epoch == seen && !self.shutdown.load(Ordering::Acquire) {
                    epoch = self.work_cv.wait(epoch).unwrap_or_else(|e| e.into_inner());
                }
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Unwind-accounting guard for one in-flight span: `[start, end)` are the
/// indices this worker still owes the batch. Normal execution drives
/// `start` up to `end` (and decrements `pending` index by index), leaving
/// the Drop a no-op; an unwind mid-span instead lands here, where the
/// unexecuted remainder is subtracted from `pending` in one step, the
/// batch is flagged panicked, and the submitter is woken if that was the
/// last of it. Without this, a rare unwind in span bookkeeping (allocator
/// failure, injected fault) would leave `pending` stuck and the submitter
/// parked forever.
struct SpanAbort<'a> {
    shared: &'a PoolShared,
    batch: *const BatchState,
    start: usize,
    end: usize,
}

impl Drop for SpanAbort<'_> {
    fn drop(&mut self) {
        let remaining = self.end - self.start;
        if remaining == 0 {
            return;
        }
        // SAFETY: the guard still owns `remaining` unexecuted indices, so
        // `pending >= remaining > 0` and the submitter is still blocked —
        // the batch is alive.
        let b = unsafe { &*self.batch };
        b.panicked.store(true, Ordering::Release);
        if b.pending.fetch_sub(remaining, Ordering::AcqRel) == remaining {
            let _g = self.shared.lock(&self.shared.done_mutex);
            self.shared.done_cv.notify_all();
        }
    }
}

/// A fixed-size, work-stealing pool of persistent worker threads. See the
/// module docs for the scheduling structure and allocation discipline.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .field("sleepers", &self.shared.sleepers.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of exactly `threads` workers (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // Pre-sized queues: a deque holds at most the dealt span plus
        // O(log n) split halves (plus steals), so 64 slots cover any
        // realistic batch without a growth reallocation — part of the
        // warmed zero-allocation discipline of `run_indexed`.
        let shared = Arc::new(PoolShared {
            deques: (0..threads)
                .map(|_| Mutex::new(VecDeque::with_capacity(64)))
                .collect(),
            injector: Mutex::new(VecDeque::with_capacity(64)),
            epoch: Mutex::new(0),
            work_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            done_mutex: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qec-pool-{id}"))
                    .spawn(move || shared.worker_loop(id))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// A pool sized by [`default_parallelism`].
    pub fn with_default_parallelism() -> Self {
        Self::new(default_parallelism())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submits a fire-and-forget job through the injector queue. Panics
    /// inside the job are caught and discarded; the worker survives. Jobs
    /// still queued when the pool is dropped run during shutdown drain.
    pub fn spawn(&self, job: Job) {
        self.shared
            .lock(&self.shared.injector)
            .push_back(Task::Spawned(job));
        self.shared.wake_all();
    }

    /// Runs `f(i)` for every `i in 0..n` across the pool and blocks until
    /// all of them completed. Indices are dealt as contiguous spans (one
    /// per worker) and split-on-execute, so stealing rebalances skew at
    /// index granularity; each index runs **exactly once**, on whichever
    /// worker gets there first.
    ///
    /// Once the pool's deques are warm this call performs no heap
    /// allocation — the batch descriptor lives on this stack frame.
    ///
    /// # Panics
    /// Re-panics after the batch completes if any `f(i)` panicked.
    /// (Every other index still runs: a panic poisons the batch, not the
    /// pool.)
    ///
    /// # Deadlock
    /// Must not be called from inside a pool task of the same pool.
    pub fn run_indexed<'env>(&self, n: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        if n == 0 {
            return;
        }
        // SAFETY: erasing `'env` is sound because this frame blocks until
        // `pending == 0`, i.e. until no worker will ever dereference `f`
        // or `batch` again; both outlive every access.
        let f_static: *const BatchFn = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'env), *const BatchFn>(f)
        };
        let batch = BatchState {
            f: f_static,
            pending: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
        };

        // Deal one contiguous span per worker (fewer when n is small);
        // contiguity keeps each worker on adjacent outputs.
        let shared = &*self.shared;
        let workers = self.handles.len();
        let spans = workers.min(n);
        let chunk = n.div_ceil(spans);
        let mut start = 0;
        for w in 0..spans {
            let end = ((w + 1) * chunk).min(n);
            if start < end {
                shared.lock(&shared.deques[w]).push_back(Task::Span {
                    batch: &batch,
                    start,
                    end,
                });
            }
            start = end;
        }
        shared.wake_all();

        let mut g = shared.lock(&shared.done_mutex);
        while batch.pending.load(Ordering::Acquire) != 0 {
            g = shared.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        if batch.panicked.load(Ordering::Acquire) {
            panic!("WorkerPool::run_indexed: a batch task panicked");
        }
    }
}

impl Drop for WorkerPool {
    /// Flags shutdown, wakes every worker, and joins all of them. Workers
    /// drain any still-queued tasks before exiting, so no submitted work
    /// is lost.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_cached_and_positive() {
        let a = default_parallelism();
        assert!(a >= 1);
        assert_eq!(a, default_parallelism());
    }

    #[test]
    fn run_indexed_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(0, &|_| panic!("never called"));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run_indexed(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_task_fault_poisons_the_batch_not_the_pool() {
        let pool = WorkerPool::new(2);
        let fp = qec_failpoint::arm_times("pool.task", qec_failpoint::FailAction::Error, 1);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(
            result.is_err(),
            "injected fault surfaces as the batch panic"
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            15,
            "exactly the faulted index was skipped"
        );
        drop(fp);
        // The pool took no damage: a clean batch completes fully.
        let again = AtomicUsize::new(0);
        pool.run_indexed(16, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn batch_panic_propagates_but_pool_survives() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 7 {
                    panic!("task 7 fails");
                }
            });
        }));
        assert!(result.is_err(), "submitter observes the panic");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "other indices still ran");
        // The pool is still fully usable.
        let again = AtomicUsize::new(0);
        pool.run_indexed(32, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 32);
    }
}
