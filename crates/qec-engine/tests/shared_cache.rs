//! The cross-session shared arena cache, end to end: concurrency stress
//! (bit-identical results + hot hit rates), engine-level LRU eviction, and
//! analysed-key normalization.

use qec_engine::{DocumentSpec, EngineBuilder, ExpandRequest, QecEngine, QuerySemantics};

/// A three-sense corpus where "apple", "fruit" and "store" each retrieve a
/// non-trivial, clusterable result set.
fn three_sense_docs(docs: usize) -> impl Iterator<Item = DocumentSpec> {
    (0..docs).map(|i| {
        let body = match i % 3 {
            0 => format!("apple tech gadget{} chip{} store market", i % 7, i % 5),
            1 => format!("apple fruit orchard{} harvest{} cider", i % 7, i % 5),
            _ => format!("fruit store retail{} shelf{} market", i % 7, i % 5),
        };
        DocumentSpec::text("", body)
    })
}

fn engine_with(docs: usize, cache_capacity: usize) -> QecEngine {
    EngineBuilder::new()
        .documents(three_sense_docs(docs))
        .cache_capacity(cache_capacity)
        .build()
}

const QUERIES: [&str; 3] = ["apple", "fruit", "store"];

fn req(query: &str) -> ExpandRequest<'_> {
    ExpandRequest {
        k_clusters: 3,
        top_k: 40,
        ..ExpandRequest::new(query)
    }
}

/// N threads × M rounds over a warmed engine: every response must be
/// bit-identical to the single-threaded baseline, and after warm-up every
/// single request must hit the shared cache — hit-rate ≥
/// (N·M·Q − distinct)/(N·M·Q) holds with room to spare because the
/// distinct keys were already cached.
#[test]
fn concurrent_sessions_share_one_cache() {
    let engine = engine_with(90, 128);
    let baselines: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            let r = engine.expand(&req(q));
            assert!(!r.clusters().is_empty(), "{q} must retrieve results");
            r.clusters().to_vec()
        })
        .collect();

    let before = engine.cache_stats();
    assert_eq!(before.entries, QUERIES.len());

    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    for (q, baseline) in QUERIES.iter().zip(&baselines) {
                        let r = engine.expand(&req(q));
                        assert!(r.stats.arena_cache_hit, "{q} warmed");
                        assert_eq!(r.clusters(), &baseline[..], "{q} bit-identical");
                        engine.recycle(r);
                    }
                }
            });
        }
    });

    let after = engine.cache_stats();
    let total = (THREADS * ROUNDS * QUERIES.len()) as u64;
    assert_eq!(
        after.hits - before.hits,
        total,
        "warmed traffic is all hits"
    );
    assert_eq!(after.misses, before.misses, "no rebuilds under load");
    assert_eq!(after.entries, QUERIES.len());
}

/// The single-flight guard, end to end: a cold-start stampede of sessions
/// on **one** hot key runs the pipeline build exactly once — the first
/// prober takes the build ticket, everyone else waits on the per-key
/// latch and hits the published `Arc`.
#[test]
fn cold_stampede_builds_exactly_once() {
    let engine = engine_with(90, 128);
    let reference = engine_with(90, 128);
    let baseline = reference.expand(&req("apple")).clusters().to_vec();

    const THREADS: usize = 6;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                let r = engine.expand(&req("apple"));
                assert_eq!(r.clusters(), &baseline[..], "bit-identical under the race");
                engine.recycle(r);
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "single-flight: exactly one build per hot key"
    );
    assert_eq!(stats.hits, (THREADS - 1) as u64, "every other racer hits");
    assert_eq!(stats.entries, 1);
}

/// The byte-budget bound, end to end: under a mixed `top_k` workload —
/// where a big-arena entry weighs an order of magnitude more than a small
/// one — `bytes_in_use` never exceeds `max_bytes`, eviction fires on byte
/// pressure (the entry count alone would never trip), and serving stays
/// correct throughout.
#[test]
fn byte_budget_bounds_memory_under_mixed_topk() {
    // Measure one big entry's footprint on an unbounded twin.
    let probe = engine_with(90, 128);
    probe.expand(&req("apple"));
    let unit = probe.cache_stats().bytes_in_use;
    assert!(unit > 0, "a cached pipeline must weigh something");

    // Budget ≈ 2.5 big entries, entry capacity far above what fits.
    let engine = EngineBuilder::new()
        .documents(three_sense_docs(90))
        .cache_capacity(128)
        .cache_max_bytes(unit * 5 / 2)
        .build();
    let reference = engine_with(90, 128);

    let queries = [
        "apple",
        "fruit",
        "store",
        "apple fruit",
        "fruit store",
        "apple store",
    ];
    for _ in 0..3 {
        for q in &queries {
            for top_k in [8, 40] {
                let r = engine.expand(&ExpandRequest { top_k, ..req(q) });
                let c = r.stats.cache;
                assert!(
                    c.bytes_in_use <= c.max_bytes,
                    "memory bounded after every request: {} > {}",
                    c.bytes_in_use,
                    c.max_bytes
                );
                engine.recycle(r);
            }
        }
    }

    let stats = engine.cache_stats();
    assert!(stats.evictions > 0, "byte pressure must evict");
    assert!(
        stats.entries < queries.len() * 2,
        "cannot hold the whole key set"
    );

    // The MRU entry survives the pressure, and responses stay
    // bit-identical to an unbounded engine's.
    let last = ExpandRequest {
        top_k: 40,
        ..req("apple store")
    };
    let r = engine.expand(&last);
    assert!(r.stats.arena_cache_hit, "MRU key still cached");
    assert_eq!(r.clusters(), reference.expand(&last).clusters());
}

/// From a cold cache, racing threads across *several* keys stay
/// deterministic, and the single-flight guard caps the misses at one per
/// distinct key no matter how the threads interleave.
#[test]
fn cold_concurrent_races_stay_deterministic() {
    let engine = engine_with(90, 128);
    // An identical twin engine provides the reference outputs (pipeline
    // builds are fully deterministic, so twin == original).
    let reference = engine_with(90, 128);
    let baselines: Vec<_> = QUERIES
        .iter()
        .map(|q| reference.expand(&req(q)).clusters().to_vec())
        .collect();

    const THREADS: usize = 4;
    const ROUNDS: usize = 4;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    for (q, baseline) in QUERIES.iter().zip(&baselines) {
                        let r = engine.expand(&req(q));
                        assert_eq!(r.clusters(), &baseline[..], "{q} bit-identical");
                        engine.recycle(r);
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    let total = (THREADS * ROUNDS * QUERIES.len()) as u64;
    let max_misses = QUERIES.len() as u64;
    assert!(
        stats.misses <= max_misses,
        "single-flight caps misses at one per distinct key: {}",
        stats.misses
    );
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(stats.entries, QUERIES.len());
}

/// Engine-level LRU: a capacity-2 cache evicts the least-recently-used
/// analysed query, re-access refreshes recency, and evicted queries
/// rebuild correctly.
#[test]
fn engine_cache_evicts_lru_and_rebuilds() {
    let engine = engine_with(60, 2);
    let cold = |q: &str| !engine.expand(&req(q)).stats.arena_cache_hit;
    assert!(cold("apple"));
    assert!(cold("fruit"));
    assert!(!cold("apple"), "apple still cached; now the MRU");
    assert!(cold("store"), "third distinct query");
    assert_eq!(engine.cache_stats().evictions, 1, "fruit was the LRU");
    assert!(!cold("apple"), "apple survived the eviction");
    assert!(
        cold("fruit"),
        "fruit was evicted and rebuilds (evicting store)"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 2);
}

/// Queries that analyse to the same sorted term multiset share one entry;
/// distinct analyses never collide.
#[test]
fn analysed_key_normalization() {
    let engine = engine_with(60, 128);
    let base = engine.expand(&req("apple fruit"));
    assert!(!base.stats.arena_cache_hit);

    // Case, whitespace, separators, stemming, term order: all one entry.
    for variant in [
        "apples fruits",
        "  APPLE,   FRUIT  ",
        "fruit apple",
        "Fruits, Apples",
    ] {
        let r = engine.expand(&req(variant));
        assert!(r.stats.arena_cache_hit, "{variant:?} shares the entry");
        assert_eq!(r.clusters(), base.clusters(), "{variant:?} bit-identical");
    }
    assert_eq!(engine.cache_stats().entries, 1);

    // Distinct analyses miss: subset, added term, duplicate multiplicity
    // (duplicates change tf·idf ranking), different knobs.
    for (distinct, why) in [
        (req("apple"), "subset of terms"),
        (req("apple fruit store"), "extra term"),
        (req("apple apple fruit"), "term multiplicity"),
        (
            ExpandRequest {
                k_clusters: 2,
                ..req("apple fruit")
            },
            "different k",
        ),
        (
            ExpandRequest {
                top_k: 10,
                ..req("apple fruit")
            },
            "different top_k",
        ),
        (
            ExpandRequest {
                semantics: QuerySemantics::Or,
                ..req("apple fruit")
            },
            "different semantics",
        ),
    ] {
        assert!(!engine.expand(&distinct).stats.arena_cache_hit, "{why}");
    }

    // Queries whose every keyword is unknown or a stopword analyse to the
    // empty term list — they are genuinely the same (empty) pipeline and
    // deliberately share one entry.
    assert!(!engine.expand(&req("zebra")).stats.arena_cache_hit);
    for empty in ["", "the of and", "xylophone"] {
        let r = engine.expand(&req(empty));
        assert!(r.stats.arena_cache_hit, "{empty:?} analyses to no terms");
        assert!(r.clusters().is_empty());
    }
}

/// Pooled execution (a chunk of 8 or more per-cluster tasks fans out across
/// the worker pool) produces responses bit-identical to the sequential
/// loop on the caller's thread (fewer tasks), on cold, warmed and degraded
/// (pre-tripped token) requests alike.
#[test]
fn fanout_path_matches_sequential() {
    let docs = || {
        (0..90).map(|i| {
            let body = match i % 3 {
                0 => format!("apple tech gadget{} chip{} store market", i % 7, i % 5),
                1 => format!("apple fruit orchard{} harvest{} cider", i % 7, i % 5),
                _ => format!("apple store retail{} shelf{} market", i % 7, i % 5),
            };
            DocumentSpec::text("", body)
        })
    };
    let sequential = EngineBuilder::new().documents(docs()).build();
    let fanned = EngineBuilder::new().documents(docs()).build();
    let serve = |reqs: &[ExpandRequest<'_>]| {
        let mut out = Vec::new();
        fanned.try_expand_batch_into(reqs, &mut out);
        out.into_iter()
            .map(|r| r.expect("served"))
            .collect::<Vec<_>>()
    };

    // Served alone, each request is 2, 4 or 6 tasks — sequential; as one
    // batch they are 12 — fanned out.
    let reqs: Vec<_> = [2, 4, 6]
        .into_iter()
        .map(|k| ExpandRequest {
            k_clusters: k,
            ..req("apple")
        })
        .collect();
    let want: Vec<_> = reqs.iter().map(|r| sequential.expand(r)).collect();
    assert_eq!(want.iter().map(|w| w.clusters().len()).sum::<usize>(), 12);
    for (pass, hit) in [("cold", false), ("warm", true)] {
        for (got, want) in serve(&reqs).iter().zip(&want) {
            assert_eq!(got.stats.arena_cache_hit, hit, "{pass}");
            assert_eq!(got.clusters(), want.clusters(), "{pass} fan-out");
        }
    }

    // A pre-tripped token degrades both paths to the same (empty) prefix
    // of the full response, and leaves its batch siblings whole.
    for victim in 0..reqs.len() {
        let (cancel, trip) = qec_engine::CancelToken::manual();
        trip.cancel();
        let tripped = ExpandRequest {
            cancel,
            ..reqs[victim].clone()
        };
        let want_tripped = sequential.expand(&tripped);
        let mut batch = reqs.clone();
        batch[victim] = tripped;
        let got = serve(&batch);
        assert!(want_tripped.stats.degraded && got[victim].stats.degraded);
        assert_eq!(got[victim].clusters(), want_tripped.clusters());
        assert_eq!(got[victim].stats.clusters, want_tripped.stats.clusters);
        for (i, w) in want.iter().enumerate().filter(|(i, _)| *i != victim) {
            assert_eq!(got[i].clusters(), w.clusters(), "sibling {i} of {victim}");
        }
    }

    // A lone request of 8 or more clusters fans out by itself: warm
    // equals cold, and a pre-tripped token still degrades to nothing.
    for k in [8, 12] {
        let r = ExpandRequest {
            k_clusters: k,
            ..req("apple")
        };
        let cold = fanned.expand(&r);
        assert!(!cold.stats.arena_cache_hit);
        assert_eq!(cold.clusters().len(), k, "k={k} tasks");
        let warm = fanned.expand(&r);
        assert!(warm.stats.arena_cache_hit);
        assert_eq!(warm.clusters(), cold.clusters(), "warm fan-out, k={k}");
        let (cancel, trip) = qec_engine::CancelToken::manual();
        trip.cancel();
        let got = fanned.expand(&ExpandRequest { cancel, ..r });
        assert!(got.stats.degraded && got.clusters().is_empty(), "k={k}");
    }
}

/// Capacity 0 turns the cache off: every request rebuilds and the cache
/// is never touched.
#[test]
fn disabled_or_zero_capacity_cache_always_rebuilds() {
    let zero = EngineBuilder::new()
        .documents((0..30).map(|i| DocumentSpec::text("", format!("apple w{i}"))))
        .cache_capacity(0)
        .build();
    for _ in 0..3 {
        let r = zero.expand(&req("apple"));
        assert!(!r.stats.arena_cache_hit);
        let c = r.stats.cache;
        assert_eq!(
            (c.hits, c.misses, c.entries),
            (0, 0, 0),
            "cache never touched"
        );
    }
    assert_eq!(zero.cache_stats().entries, 0);
}

/// Responses built from an entry that gets evicted mid-flight stay valid:
/// each response copies what it needs, and the `Arc` keeps the pipeline
/// alive for any request still expanding it (the cache-level guarantee is
/// unit-tested in `qec_engine::cache`; this exercises it under serving
/// traffic with constant eviction pressure).
#[test]
fn eviction_pressure_never_corrupts_responses() {
    let engine = engine_with(90, 1); // every distinct query evicts
    let baselines: Vec<_> = QUERIES
        .iter()
        .map(|q| engine.expand(&req(q)).clusters().to_vec())
        .collect();
    let (engine, baselines) = (&engine, &baselines);
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..12 {
                    let pick = (t + i) % QUERIES.len();
                    let r = engine.expand(&req(QUERIES[pick]));
                    assert_eq!(r.clusters(), &baselines[pick][..]);
                    engine.recycle(r);
                }
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 1);
    assert!(stats.evictions > 0, "capacity 1 must have evicted");
}
