//! Proof of the batched serving path's zero-allocation claim: once the
//! shared cache holds the batch's pipeline and the engine's recycled
//! pools (responses, batch scratch, pool-worker expansion scratches) are
//! warm, `try_expand_batch_into` serves a batch of cache-hit requests —
//! analysis, grouping, single-flight probe, flat task-set dispatch across
//! the **persistent worker pool**, response fill — without touching the
//! heap.
//!
//! The counting allocator is process-global, so the armed window counts
//! pool-worker allocations too — the test covers the whole process, not
//! just the submitting thread. Warm-up runs the identical batch many
//! times first: the scratch pool (one warmed `IskrScratch` per worker;
//! every request analyses to the same key, so one arena size and no
//! scratch retargets), response buffers and batch bookkeeping all settle
//! before the window arms. The file holds exactly
//! one test because a concurrently running second test would contaminate
//! the global counter.

use qec_engine::{
    DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandResponse, QecEngine,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warmed_expand_batch_performs_zero_heap_allocations() {
    let engine = EngineBuilder::new()
        .documents((0..60).map(|i| {
            let body = if i % 2 == 0 {
                format!("apple tech gadget{} chip{} market", i % 7, i % 5)
            } else {
                format!("apple farm orchard{} harvest{} cider", i % 7, i % 5)
            };
            DocumentSpec::text("", body)
        }))
        .pool_threads(2)
        .build();
    assert_eq!(engine.pool_threads(), 2);

    // Three spellings of one analysed key ("appl"): the batch exercises
    // grouping (3 requests, 1 group, 1 build) while keeping a single
    // arena size so warmed expansion scratches never retarget.
    let reqs: Vec<ExpandRequest<'_>> = ["apple", "apples", "  APPLE ,"]
        .into_iter()
        .map(|query| ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new(query)
        })
        .collect();

    // 3 requests × 4 clusters: 12 tasks, so every batch goes through the
    // pool. The result vector's capacity is reused across calls.
    let mut results: Vec<Result<ExpandResponse, EngineError>> = Vec::new();
    fn served(
        results: &[Result<ExpandResponse, EngineError>],
    ) -> impl Iterator<Item = &ExpandResponse> {
        results.iter().map(|r| r.as_ref().expect("served"))
    }
    let recycle_all = |engine: &QecEngine, out: &mut Vec<Result<ExpandResponse, EngineError>>| {
        for r in out.drain(..) {
            engine.recycle(r.expect("served"));
        }
    };

    // Warm-up: first batch builds + publishes the pipeline; generous
    // repetition lets every pool worker hold (and warm) an expansion
    // scratch. (The pool's queue is pre-sized; a batch takes one slot.)
    engine.try_expand_batch_into(&reqs, &mut results);
    assert!(
        served(&results)
            .flat_map(|r| r.clusters())
            .any(|c| !c.added.is_empty()),
        "expansion must actually add keywords for this test to mean anything"
    );
    let expected: Vec<Vec<_>> = served(&results).map(|r| r.clusters().to_vec()).collect();
    recycle_all(&engine, &mut results);
    for _ in 0..150 {
        engine.try_expand_batch_into(&reqs, &mut results);
        assert!(served(&results).all(|r| r.stats.arena_cache_hit));
        recycle_all(&engine, &mut results);
    }

    // Armed runs: the whole batch loop must stay off the heap.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        engine.try_expand_batch_into(&reqs, &mut results);
        for (r, want) in served(&results).zip(&expected) {
            assert!(r.stats.arena_cache_hit);
            assert!(
                r.clusters() == *want,
                "warmed batch serving stays deterministic"
            );
        }
        recycle_all(&engine, &mut results);
    }
    ARMED.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        counted, 0,
        "warmed batch serving allocated: {counted} heap allocations counted"
    );

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "one cold build for one analysed key");
    assert_eq!(stats.entries, 1);
}
