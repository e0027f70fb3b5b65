//! Integration tests of the persistent worker pool, stated as behaviour:
//! a batch's indices each run exactly once on whichever worker is free, a
//! blocked index strands nothing, spawned jobs and batches are served in
//! FIFO order, drop drains and joins, and nothing is lost under concurrent
//! submission — plus a pooled expansion fan-out's parity with a sequential
//! `Expander::expand_into` loop. (The fault-accounting proof is
//! `pool_fault.rs`, alone in its process; the zero-allocation dispatch
//! proof is a section of `zero_alloc.rs`.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qec_core::{
    Candidate, DisjointSlots, ExpandedQuery, Expander, ExpansionArena, Iskr, IskrConfig, Pebc,
    QecInstance, ResultSet, ScratchPool, WorkerPool,
};
use qec_text::TermId;

/// Spin-waits (with a yield) until `cond` holds, failing the test after
/// `timeout` — so a lost wakeup or a stranded index shows up as a test
/// failure, not a hung suite.
fn wait_until(timeout: Duration, what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn blocked_index_does_not_strand_the_rest_of_its_batch() {
    // Two workers, 16 tasks. Task 0 blocks until every other task has
    // completed: if any index were tied to the blocked worker, it could
    // never finish and this test would time out.
    let pool = WorkerPool::new(2);
    let done = AtomicUsize::new(0);
    let n = 16;
    pool.run_indexed(n, &|i| {
        if i == 0 {
            wait_until(
                Duration::from_secs(10),
                "the free worker to finish the rest",
                || done.load(Ordering::SeqCst) == n - 1,
            );
        }
        done.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(done.load(Ordering::SeqCst), n);
}

#[test]
fn work_spreads_across_workers() {
    // With 4 workers and 64 equal tasks that each busy a little, more
    // than one worker must participate (every worker claims from the
    // same batch).
    let pool = WorkerPool::new(4);
    let ids = std::sync::Mutex::new(Vec::<std::thread::ThreadId>::new());
    pool.run_indexed(64, &|_| {
        std::thread::sleep(Duration::from_micros(200));
        ids.lock().unwrap().push(std::thread::current().id());
    });
    let seen = ids.into_inner().unwrap();
    assert_eq!(seen.len(), 64);
    let mut distinct: Vec<String> = seen.iter().map(|id| format!("{id:?}")).collect();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "expected several workers to share the batch, got {}",
        distinct.len()
    );
}

#[test]
fn no_task_lost_under_concurrent_submitters() {
    // 4 submitter threads race batches (and spawned jobs) into one
    // 3-worker pool; every index of every batch must run exactly once.
    let pool = Arc::new(WorkerPool::new(3));
    const SUBMITTERS: usize = 4;
    const BATCHES: usize = 8;
    const N: usize = 97;
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..SUBMITTERS * N).map(|_| AtomicUsize::new(0)).collect());
    let spawned = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(SUBMITTERS));
    let mut handles = Vec::new();
    for s in 0..SUBMITTERS {
        let (pool, counts, spawned, barrier) = (
            Arc::clone(&pool),
            Arc::clone(&counts),
            Arc::clone(&spawned),
            Arc::clone(&barrier),
        );
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..BATCHES {
                let sp = Arc::clone(&spawned);
                pool.spawn(Box::new(move || {
                    sp.fetch_add(1, Ordering::SeqCst);
                }));
                pool.run_indexed(N, &|i| {
                    counts[s * N + i].fetch_add(1, Ordering::SeqCst);
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            BATCHES,
            "index {i} ran a wrong number of times"
        );
    }
    // Spawned jobs are fire-and-forget: give the drain a bounded moment.
    wait_until(Duration::from_secs(10), "spawned jobs to drain", || {
        spawned.load(Ordering::SeqCst) == SUBMITTERS * BATCHES
    });
}

#[test]
fn one_worker_serves_jobs_and_batches_in_fifo_order() {
    // One worker, two submitters interleaving `spawn` and `run_indexed`.
    // A job spawned before a batch was submitted is ahead of it in the
    // queue, so it must have run before the batch's first index does —
    // whatever the other submitter queued in between.
    let pool = WorkerPool::new(1);
    const SUBMITTERS: usize = 2;
    const ROUNDS: usize = 50;
    const N: usize = 5;
    let counts: Vec<AtomicUsize> = (0..SUBMITTERS * ROUNDS * N)
        .map(|_| AtomicUsize::new(0))
        .collect();
    let barrier = Barrier::new(SUBMITTERS);
    std::thread::scope(|scope| {
        for s in 0..SUBMITTERS {
            let (pool, counts, barrier) = (&pool, &counts, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    let job_ran = Arc::new(AtomicBool::new(false));
                    let flag = Arc::clone(&job_ran);
                    pool.spawn(Box::new(move || flag.store(true, Ordering::SeqCst)));
                    pool.run_indexed(N, &|i| {
                        assert!(
                            job_ran.load(Ordering::SeqCst),
                            "index {i} of submitter {s} round {r} overtook an earlier job"
                        );
                        counts[(s * ROUNDS + r) * N + i].fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
}

#[test]
fn drop_joins_all_workers_and_strands_no_job() {
    // Queue fire-and-forget jobs, drop the pool immediately: shutdown
    // must drain every queued job before the workers exit, and `drop`
    // must not return until all workers joined.
    let ran = Arc::new(AtomicUsize::new(0));
    let exited = Arc::new(AtomicUsize::new(0));
    const JOBS: usize = 32;
    {
        let pool = WorkerPool::new(3);
        for _ in 0..JOBS {
            let ran = Arc::clone(&ran);
            let exited = Arc::clone(&exited);
            pool.spawn(Box::new(move || {
                std::thread::sleep(Duration::from_micros(100));
                ran.fetch_add(1, Ordering::SeqCst);
                drop(exited); // each job holds a clone until it runs
            }));
        }
        // `pool` drops here: clean shutdown.
    }
    // After drop returns every worker has joined, so all queued jobs have
    // run and released their Arc clones — no polling needed.
    assert_eq!(ran.load(Ordering::SeqCst), JOBS, "no queued job stranded");
    assert_eq!(Arc::strong_count(&exited), 1, "all job closures dropped");
}

#[test]
fn spawned_job_panic_does_not_kill_the_pool() {
    let pool = WorkerPool::new(1);
    let after = Arc::new(AtomicBool::new(false));
    pool.spawn(Box::new(|| panic!("bad job")));
    let flag = Arc::clone(&after);
    pool.spawn(Box::new(move || flag.store(true, Ordering::SeqCst)));
    wait_until(Duration::from_secs(10), "job after panic to run", || {
        after.load(Ordering::SeqCst)
    });
}

/// Deterministic structured arena + contiguous clusters (the shape the
/// `parallel` unit tests use).
fn arena_with_clusters(n: usize, n_clusters: usize) -> (ExpansionArena, Vec<ResultSet>) {
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

/// The reference: a sequential `Expander::expand_into` loop.
fn sequential(n: usize, expander: &dyn Expander, make: Make) -> Vec<ExpandedQuery> {
    (0..n).map(|i| expander.expand(&make(i))).collect()
}

/// The same instances as one indexed batch: task `i` draws a pooled
/// scratch and writes slot `i`.
fn pooled(
    pool: &WorkerPool,
    scratches: &ScratchPool,
    n: usize,
    expander: &dyn Expander,
    make: Make,
) -> Vec<ExpandedQuery> {
    let mut out = vec![ExpandedQuery::default(); n];
    let slots = DisjointSlots::new(&mut out);
    pool.run_indexed(n, &|i| {
        let mut scratch = scratches.acquire();
        // SAFETY: `run_indexed` hands each index to exactly one task.
        expander.expand_into(&make(i), &mut scratch, unsafe { slots.get(i) });
        scratches.release(scratch);
    });
    out
}

#[test]
fn pooled_expansion_matches_sequential_bit_for_bit() {
    let (arena, clusters) = arena_with_clusters(96, 6);
    let make = |i: usize| QecInstance::new(&arena, clusters[i].clone());
    for strategy in [
        &Iskr(IskrConfig::default()) as &dyn Expander,
        &Pebc(Default::default()),
    ] {
        let want = sequential(6, strategy, &make);
        for threads in [1, 2, 8] {
            let got = pooled(
                &WorkerPool::new(threads),
                &ScratchPool::new(),
                6,
                strategy,
                &make,
            );
            assert_eq!(got, want, "{} threads = {threads}", strategy.name());
        }
    }
}

#[test]
fn pooled_shared_parts_match_sequential() {
    let (arena, clusters) = arena_with_clusters(96, 6);
    let full = ResultSet::full(arena.size());
    let universes: Vec<ResultSet> = clusters.iter().map(|c| full.and_not(c)).collect();
    let make = |i: usize| QecInstance::from_shared_parts(&arena, &clusters[i], &universes[i]);
    let strategy = Iskr(IskrConfig::default());
    let want = sequential(6, &strategy, &make);
    let (pool, scratches) = (WorkerPool::new(3), ScratchPool::new());
    // Repeated runs reuse the same warmed scratch pool.
    for _ in 0..3 {
        assert_eq!(pooled(&pool, &scratches, 6, &strategy, &make), want);
    }
}
