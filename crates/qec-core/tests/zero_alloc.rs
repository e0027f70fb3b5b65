//! Proof of the zero-allocation claims: a warmed [`IskrScratch`] lets
//! `iskr_into` run entire expansions — move valuations, maintenance,
//! move application — without touching the heap, and a warmed
//! [`SearchScratch`] does the same for boolean retrieval in **both**
//! semantics (the OR k-way merge state lives in the scratch too).
//!
//! A counting global allocator tallies every `alloc`/`realloc` while a
//! flag is armed. The file holds exactly one test because the allocator
//! count is process-global; a second concurrently running test would
//! contaminate it. (`qec-engine` carries the sibling proof for a warmed
//! `engine.expand` serving loop.) Its last section shows the same for the
//! [`WorkerPool`]'s dispatch: a batch takes one queue slot whatever its
//! `n`, so scheduling 10 000 indices on a warm pool allocates nothing on
//! any thread.

use qec_core::{
    fmeasure_refine_into, iskr_into, Candidate, ExpansionArena, FMeasureConfig, IskrConfig,
    IskrScratch, QecInstance, ResultSet, WorkerPool,
};
use qec_index::{Corpus, CorpusBuilder, DocumentSpec, SearchScratch, Searcher};
use qec_text::TermId;
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

/// Deterministic synthetic arena in the paper's top-500 shape: 500 results,
/// 120 candidates of varying selectivity, a 60-result target cluster.
fn paper_scale_arena() -> (ExpansionArena, Vec<usize>) {
    let n = 500;
    let candidates: Vec<Candidate> = (0..120u32)
        .map(|i| {
            let stride = (i as usize % 13) + 2;
            let phase = (i as usize * 7) % stride;
            Candidate {
                term: TermId(i),
                contains: ResultSet::from_indices(
                    n,
                    (0..n).filter(|&j| !(j + phase).is_multiple_of(stride)),
                ),
            }
        })
        .collect();
    let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
    let cluster: Vec<usize> = (0..60).collect();
    (arena, cluster)
}

/// A corpus with sparse terms (list only) and dense ones (`df · 64 ≥ N`,
/// which also carry a membership probe), so AND evaluation runs both the
/// join and the probe.
fn hybrid_corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..400usize {
        let mut body = String::from("common");
        if i % 2 == 0 {
            body.push_str(" even");
        }
        if i % 129 == 0 {
            body.push_str(" sparse129");
        }
        if i % 150 == 0 {
            body.push_str(" sparse150");
        }
        b.add_document(DocumentSpec::text("", &body));
    }
    b.build()
}

#[test]
fn warmed_iskr_and_search_perform_zero_heap_allocations() {
    let (arena, cluster) = paper_scale_arena();
    let inst = QecInstance::from_members(&arena, cluster);
    let config = IskrConfig::default();
    let mut scratch = IskrScratch::new();

    // Warm-up: sizes every scratch buffer to this arena shape.
    let warm = iskr_into(&inst, &config, &mut scratch);
    assert!(
        !scratch.added().is_empty(),
        "expansion must actually do moves for this test to mean anything"
    );

    // Armed runs: the entire greedy loop must stay off the heap.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        let q = iskr_into(&inst, &config, &mut scratch);
        assert!(q == warm, "warmed runs stay deterministic");
    }
    ARMED.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        counted, 0,
        "iskr_into allocated on a warmed scratch: {counted} heap allocations counted"
    );

    // Exact-ΔF: since its scratch rewrite the baseline is allocation-free
    // too — add moves are valued through the fused three-way weighted
    // kernels, removals through the scratch's one reusable buffer — so the
    // ISKR-vs-exact gap the benches measure is algorithmic cost, not
    // allocator noise.
    let exact_config = FMeasureConfig::default();
    let warm_exact = fmeasure_refine_into(&inst, &exact_config, &mut scratch);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        let q = fmeasure_refine_into(&inst, &exact_config, &mut scratch);
        assert!(q == warm_exact, "warmed exact-ΔF stays deterministic");
    }
    ARMED.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        counted, 0,
        "fmeasure_refine_into allocated on a warmed scratch: {counted} heap \
         allocations counted"
    );

    // Retrieval: AND and OR over every df mix — OR drives the k-way heap
    // merge that lives in the scratch, AND the join and the dense probe.
    // A one-term dense query and an OR over dense terms are the shapes
    // whose path moved when the separate doc-id copy went.
    let corpus = hybrid_corpus();
    let searcher = Searcher::new(&corpus);
    let t = |name: &str| corpus.keyword_term(name).expect("indexed");
    let queries = [
        vec![t("sparse129"), t("sparse150")], // sparse only
        vec![t("sparse129"), t("even")],      // sparse and dense
        vec![t("common"), t("even")],         // dense only
        vec![t("even")],                      // one dense term
        vec![t("even"), t("sparse150")],      // dense OR sparse
    ];
    let mut search_scratch = SearchScratch::new();
    // Two warm-up passes: the AND double-buffer swaps `cur`/`next`, so
    // both buffers reach the workload's high-water mark only after the
    // second pass through the query mix.
    for _ in 0..2 {
        for q in &queries {
            searcher.and_query_into(q, &mut search_scratch);
            searcher.or_query_into(q, &mut search_scratch);
        }
    }
    let or_warm = searcher.or_query(&queries[0]);

    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        for q in &queries {
            searcher.and_query_into(q, &mut search_scratch);
            searcher.or_query_into(q, &mut search_scratch);
        }
        searcher.or_query_into(&queries[0], &mut search_scratch);
        assert!(
            search_scratch.results() == or_warm,
            "warmed OR stays correct"
        );
    }
    ARMED.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        counted, 0,
        "boolean retrieval allocated on a warmed scratch: {counted} heap \
         allocations counted"
    );

    // Pool dispatch. Warm-up: one index per worker, each held until all
    // have started, so every worker thread is up and has touched whatever
    // it lazily allocates before the count is armed.
    let pool = WorkerPool::new(2);
    let started = AtomicUsize::new(0);
    pool.run_indexed(pool.threads(), &|_| {
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < pool.threads() {
            std::thread::yield_now();
        }
    });
    let ran = AtomicUsize::new(0);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    pool.run_indexed(10_000, &|_| {
        ran.fetch_add(1, Ordering::Relaxed);
    });
    ARMED.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(ran.load(Ordering::SeqCst), 10_000);
    assert_eq!(
        counted, 0,
        "run_indexed(10_000) allocated on a warm pool: {counted} heap \
         allocations counted"
    );
}
