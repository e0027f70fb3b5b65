//! The pool's fault accounting: whichever index of a batch faults — its
//! closure panics, or the `pool.task` failpoint fires in its place — the
//! submitter re-panics (it never hangs on the count), every other index
//! still runs exactly once, and the next batch on the same pool is clean.
//!
//! The failpoint registry is process-global and `pool.task` is checked by
//! every `run_indexed` in the process, so this file holds exactly one
//! test: a sibling test's batch could consume the one-shot fault.
#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qec_core::WorkerPool;
use qec_failpoint::{arm_times, FailAction, FailGuard};

/// Runs one batch of `n` that is expected to lose exactly one index.
/// `before(j)` runs first in index `j`'s closure (the place to panic or to
/// arm); an index counts as run once it gets past it. `faulted` names the
/// lost index where the case determines it.
fn faulted_batch(
    pool: &WorkerPool,
    n: usize,
    faulted: Option<usize>,
    before: &(dyn Fn(usize) + Sync),
) {
    let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run_indexed(n, &|j| {
            before(j);
            ran[j].fetch_add(1, Ordering::SeqCst);
        });
    }));
    let what = format!("threads {} n {n} faulted {faulted:?}", pool.threads());
    assert!(result.is_err(), "submitter re-panics ({what})");
    let ran: Vec<usize> = ran.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    assert!(ran.iter().all(|&c| c <= 1), "no index ran twice ({what})");
    assert_eq!(ran.iter().sum::<usize>(), n - 1, "the rest ran ({what})");
    if let Some(i) = faulted {
        assert_eq!(ran[i], 0, "the faulted index is the one lost ({what})");
    }
}

/// The pool took no damage: a clean batch runs every index.
fn clean_batch(pool: &WorkerPool, n: usize) {
    let ran = AtomicUsize::new(0);
    pool.run_indexed(n, &|_| {
        ran.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(ran.load(Ordering::SeqCst), n);
}

#[test]
fn a_fault_at_any_index_fails_only_its_own_batch() {
    for threads in [1, 2, 4] {
        let pool = WorkerPool::new(threads);
        for n in [1, 2, 17] {
            for i in 0..n {
                // The closure itself panics at index `i`.
                faulted_batch(&pool, n, Some(i), &|j| {
                    if j == i {
                        panic!("index {i} fails");
                    }
                });
                clean_batch(&pool, n);
            }

            // The failpoint fires on the batch's first check, once as a
            // typed error and once as a panic inside the pool's own frame;
            // which index gets there first is the workers' race.
            for action in [FailAction::Error, FailAction::Panic] {
                let guard = arm_times("pool.task", action, 1);
                faulted_batch(&pool, n, None, &|_| {});
                drop(guard);
                clean_batch(&pool, n);
            }

            // One worker claims and checks in index order, so arming from
            // inside index `i - 1` — after `i` clean checks — faults
            // exactly index `i`.
            if threads == 1 {
                for i in 1..n {
                    let guard: Mutex<Option<FailGuard>> = Mutex::new(None);
                    faulted_batch(&pool, n, Some(i), &|j| {
                        if j == i - 1 {
                            *guard.lock().unwrap() =
                                Some(arm_times("pool.task", FailAction::Error, 1));
                        }
                    });
                    drop(guard);
                    clean_batch(&pool, n);
                }
            }
        }
    }
}
