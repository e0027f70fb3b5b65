//! A persistent worker pool over **one shared FIFO queue** — the serving
//! replacement for per-request `std::thread::scope` fan-outs, whose
//! spawn/join cost (tens of microseconds) often exceeds the per-cluster
//! expansions being fanned out. A [`WorkerPool`] pays the spawn **once**;
//! steady-state dispatch is one queue push and a condvar notify.
//!
//! Structure
//! ---------
//! The paper expands "one query for each cluster", so the only parallelism
//! the stack has is a flat set of independent, similar-sized tasks. That
//! needs a queue, not a scheduler:
//!
//! * `threads` workers (named `qec-pool-N`) share one
//!   `Mutex<{ VecDeque<Task>, shutdown }>` and wait on one condvar **under
//!   that mutex** — a submission cannot slip between a worker's "queue is
//!   empty" and its wait, so no wake-up is ever lost.
//! * [`run_indexed`](WorkerPool::run_indexed), the one way in, queues
//!   **one entry** for a whole batch of *`n` indices plus one shared
//!   closure*. A worker that finds the batch at the front claims its next
//!   index under the lock and pops the entry with the last claim; the
//!   batch descriptor lives on the submitter's stack, and batches are
//!   served in FIFO order. The queue's capacity persists, so scheduling a
//!   batch of any `n` on a warm pool performs **zero heap allocations**.
//! * Dropping the pool flags shutdown under the lock, wakes every worker
//!   and **joins them**. A queued batch has a submitter blocked on it, so
//!   none is queued while the pool drops.
//!
//! The one invariant
//! -----------------
//! *A batch's pointer is queued exactly while the batch has unclaimed
//! indices.* Unclaimed indices are uncounted ones, so queued ⇒
//! `pending > 0` ⇒ the submitter is still blocked in `run_indexed` ⇒ the
//! pointee is alive. Claims happen **under the queue lock** because that is
//! what makes the invariant checkable: a worker observes "queued" and takes
//! its index in one critical section, so it can never hold a pointer to a
//! batch whose last index someone else has already finished. After the
//! claim, the claimed-but-uncounted index keeps `pending > 0` until the
//! worker's own decrement — and between the two nothing runs but `f(i)`
//! inside `catch_unwind`, so the accounting cannot be skipped by an unwind.
//!
//! No nested waits
//! ---------------
//! A pool task must not call `run_indexed` on its own pool: when every
//! worker does so, nobody is left to run the indices they wait for.

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

/// The type-erased batch closure of [`WorkerPool::run_indexed`]. The
/// `'static` here is a lie told only inside the pool: `run_indexed` blocks
/// until every index has run, so the erased borrow never outlives the real
/// closure.
type BatchFn = dyn Fn(usize) + Sync;

/// One in-flight `run_indexed` batch, on the **submitter's stack**.
struct Batch {
    /// Lifetime-erased shared closure (see [`BatchFn`]).
    f: *const BatchFn,
    /// Number of indices.
    n: usize,
    /// Next unclaimed index. Read and written only under the queue lock,
    /// which orders the accesses; the atomic is just interior mutability
    /// behind the shared pointer.
    next: AtomicUsize,
    /// Indices not yet executed.
    pending: AtomicUsize,
    /// Set when any index's closure panicked; the submitter re-panics.
    panicked: AtomicBool,
}

/// One queue entry: an in-flight batch with indices left to claim.
/// **Invariant** (the module's only one): a `Batch` pointer is queued
/// exactly while its batch has unclaimed indices — hence `pending > 0`,
/// hence its submitter is still blocked in `run_indexed`, hence the
/// pointee is alive.
struct Task(*const Batch);

// SAFETY: a queued `Batch` pointer targets a live `Batch` (the invariant
// on `Task`) whose fields are atomics plus a pointer to a `Sync` closure,
// so any thread may use it.
unsafe impl Send for Task {}

/// The queue and its shutdown flag, under one lock so a worker decides
/// "nothing to do, not shutting down, wait" atomically.
struct Queue {
    tasks: VecDeque<Task>,
    /// Set by `Drop`; workers exit once the queue is empty.
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<Queue>,
    /// Workers wait here, under `queue`, while it is empty.
    work_cv: Condvar,
    /// Batch-completion handshake (shared by all batches; each submitter
    /// re-checks its own `pending` under this lock).
    done_mutex: Mutex<()>,
    done_cv: Condvar,
}

impl PoolShared {
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker_loop(&self) {
        let mut q = self.lock(&self.queue);
        loop {
            match q.tasks.front() {
                None if q.shutdown => return,
                None => q = self.work_cv.wait(q).unwrap_or_else(|e| e.into_inner()),
                Some(&Task(batch)) => {
                    // SAFETY: the pointer is queued, so the batch is alive
                    // (invariant on `Task`).
                    let b = unsafe { &*batch };
                    let i = b.next.fetch_add(1, Ordering::Relaxed);
                    if i + 1 == b.n {
                        // Last claim: unqueue, keeping the invariant.
                        q.tasks.pop_front();
                    }
                    drop(q);
                    self.run_index(batch, i);
                    q = self.lock(&self.queue);
                }
            }
        }
    }

    /// Runs claimed index `i` of `batch` and counts it.
    fn run_index(&self, batch: *const Batch, i: usize) {
        // SAFETY: `i` is claimed but not yet counted, so `pending > 0` and
        // the submitting frame — which owns the batch and the closure `f`
        // borrows — blocks until the decrement below.
        let (b, f) = unsafe { (&*batch, &*(*batch).f) };
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
        if b.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last index of the batch: wake the submitter. `b` must not be
            // touched from here on — the submitter may free it as soon as
            // it observes `pending == 0`.
            let _g = self.lock(&self.done_mutex);
            self.done_cv.notify_all();
        }
    }
}

/// A fixed-size pool of persistent worker threads over one shared FIFO
/// queue. See the module docs for the structure and its one invariant.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of exactly `threads` workers (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            // Pre-sized: the queue holds one entry per in-flight batch, so
            // 64 slots cover serving without a growth reallocation — the
            // warmed zero-allocation discipline of `run_indexed`.
            queue: Mutex::new(Queue {
                tasks: VecDeque::with_capacity(64),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_mutex: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qec-pool-{id}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(i)` for every `i in 0..n` across the pool and blocks until
    /// all of them completed. Each index runs **exactly once**, on
    /// whichever worker claims it; indices are claimed one at a time in
    /// ascending order, so a slow index never strands the rest.
    ///
    /// On a warm pool this call performs no heap allocation — the batch
    /// descriptor lives on this stack frame and takes one queue slot.
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
        let batch = Batch {
            f: f_static,
            n,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
        };
        let shared = &*self.shared;
        shared.lock(&shared.queue).tasks.push_back(Task(&batch));
        shared.work_cv.notify_all();

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
    /// Flags shutdown, wakes every worker, and joins all of them. No batch
    /// is queued by then: each has a submitter blocked on it, borrowing
    /// the pool.
    fn drop(&mut self) {
        self.shared.lock(&self.shared.queue).shutdown = true;
        self.shared.work_cv.notify_all();
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
