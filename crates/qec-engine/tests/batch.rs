//! Behaviour of the batched serving path: `try_expand_batch_into` parity
//! with sequential `expand`, single-build guarantees for duplicate cold keys
//! (in-batch grouping and cross-thread single-flight), chunking, and the
//! `RankIndex`-backed member pagination.

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandResponse,
    ExpandStrategy, QecEngine,
};

/// A deterministic two-sense corpus big enough for real clustering.
fn corpus_docs() -> impl Iterator<Item = DocumentSpec> {
    (0..60).map(|i| {
        let body = if i % 2 == 0 {
            format!("apple tech gadget{} chip{} market", i % 7, i % 5)
        } else {
            format!("apple farm orchard{} harvest{} cider", i % 7, i % 5)
        };
        DocumentSpec::text("", body)
    })
}

fn engine() -> QecEngine {
    EngineBuilder::new().documents(corpus_docs()).build()
}

/// One batch through `try_expand_batch_into`: a `Result` per request, in
/// request order.
fn try_batch(
    e: &QecEngine,
    reqs: &[ExpandRequest<'_>],
) -> Vec<Result<ExpandResponse, EngineError>> {
    let mut out = Vec::new();
    e.try_expand_batch_into(reqs, &mut out);
    out
}

/// [`try_batch`] where every request must be served.
fn batch(e: &QecEngine, reqs: &[ExpandRequest<'_>]) -> Vec<ExpandResponse> {
    try_batch(e, reqs)
        .into_iter()
        .map(|r| r.expect("every request of the batch is served"))
        .collect()
}

/// A mixed request workload: duplicate keys (including spelling variants
/// that analyse identically), distinct `k`/`top_k`, different strategies,
/// and a no-result query.
fn workload() -> Vec<ExpandRequest<'static>> {
    vec![
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apples")
        },
        ExpandRequest {
            k_clusters: 3,
            top_k: 30,
            ..ExpandRequest::new("farm cider")
        },
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            strategy: ExpandStrategy::Pebc,
            ..ExpandRequest::new("  APPLE ,")
        },
        ExpandRequest::new("zebra"),
        ExpandRequest {
            k_clusters: 2,
            top_k: 20,
            ..ExpandRequest::new("tech market")
        },
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
    ]
}

/// The comparable half of a response: everything except the cache-counter
/// snapshot (which legitimately differs between serving orders).
fn essence(
    r: &ExpandResponse,
) -> (
    Vec<ClusterExpansion>,
    usize,
    usize,
    usize,
    bool,
    &'static str,
) {
    (
        r.clusters().to_vec(),
        r.stats.results,
        r.stats.candidates,
        r.stats.clusters,
        r.stats.arena_cache_hit,
        r.stats.strategy,
    )
}

#[test]
fn expand_batch_matches_sequential_expand_bit_for_bit() {
    let reqs = workload();
    // Two engines over the identical corpus: one serves the stream
    // request by request, the other as one batch.
    let sequential: Vec<_> = {
        let e = engine();
        reqs.iter().map(|r| essence(&e.expand(r))).collect()
    };
    let batched = batch(&engine(), &reqs);
    assert_eq!(batched.len(), reqs.len());
    for (i, (resp, want)) in batched.iter().zip(&sequential).enumerate() {
        assert_eq!(&essence(resp), want, "request {i} diverged");
    }
}

#[test]
fn warm_batches_match_sequential_and_hit_everywhere() {
    let reqs = workload();
    let e = engine();
    // Warm every key, then compare a warmed batch against warmed
    // sequential responses from the same engine.
    for r in batch(&e, &reqs) {
        e.recycle(r);
    }
    let sequential: Vec<_> = reqs.iter().map(|r| essence(&e.expand(r))).collect();
    let batched = batch(&e, &reqs);
    for (i, (resp, want)) in batched.iter().zip(&sequential).enumerate() {
        assert_eq!(&essence(resp), want, "request {i} diverged");
        assert!(resp.stats.arena_cache_hit, "request {i} must hit when warm");
    }
}

#[test]
fn batch_of_identical_cold_keys_builds_once() {
    let e = engine();
    let reqs: Vec<ExpandRequest<'_>> = (0..8)
        .map(|_| ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        })
        .collect();
    let resps = batch(&e, &reqs);
    let stats = e.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "one build for eight identical cold requests"
    );
    assert_eq!(stats.entries, 1);
    // The representative reports the cold build; every duplicate reports
    // a hit — exactly as a sequential replay would.
    assert!(!resps[0].stats.arena_cache_hit);
    assert!(resps[1..].iter().all(|r| r.stats.arena_cache_hit));
    for r in &resps[1..] {
        assert_eq!(
            r.clusters(),
            resps[0].clusters(),
            "duplicates share the build"
        );
    }
}

#[test]
fn concurrent_batches_of_one_cold_key_single_flight_to_one_build() {
    let e = std::sync::Arc::new(engine());
    const THREADS: usize = 4;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (e, barrier) = (std::sync::Arc::clone(&e), &barrier);
            scope.spawn(move || {
                barrier.wait();
                let reqs: Vec<ExpandRequest<'_>> = (0..4)
                    .map(|_| ExpandRequest {
                        k_clusters: 4,
                        top_k: 50,
                        ..ExpandRequest::new("apple")
                    })
                    .collect();
                let resps = batch(&e, &reqs);
                assert_eq!(resps.len(), 4);
            });
        }
    });
    assert_eq!(
        e.cache_stats().misses,
        1,
        "one hot key stampeded by {THREADS} batches still builds once"
    );
}

#[test]
fn batch_max_chunking_preserves_results() {
    // The engine serves a batch slice in chunks of at most 64 requests.
    // A slice of more than two chunks, whose duplicate keys straddle the
    // chunk boundaries (the workload's length does not divide 64), must
    // answer every request exactly as sequential serving does.
    let base = workload();
    let reqs: Vec<ExpandRequest<'_>> = (0..2 * 64 + 9)
        .map(|i| base[i % base.len()].clone())
        .collect();
    let sequential: Vec<_> = {
        let e = engine();
        reqs.iter()
            .map(|r| essence(&e.try_expand(r).expect("served")))
            .collect()
    };
    let chunked = batch(&engine(), &reqs);
    assert_eq!(chunked.len(), reqs.len());
    for (i, (resp, want)) in chunked.iter().zip(&sequential).enumerate() {
        assert_eq!(&essence(resp), want, "request {i} diverged under chunking");
    }
}

#[test]
fn cache_disabled_batches_rebuild_every_request_like_sequential() {
    // With the cache off (capacity 0), "every request rebuilds" is the
    // contract: batching must not collapse duplicate keys into one build,
    // and no request may claim a cache hit — exactly what sequential
    // serving of the same stream reports.
    let reqs: Vec<ExpandRequest<'_>> = (0..4)
        .map(|_| ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        })
        .collect();
    let uncached = || {
        EngineBuilder::new()
            .documents(corpus_docs())
            .cache_capacity(0)
            .build()
    };
    let sequential: Vec<_> = {
        let e = uncached();
        reqs.iter().map(|r| essence(&e.expand(r))).collect()
    };
    let batched = batch(&uncached(), &reqs);
    for (i, (resp, want)) in batched.iter().zip(&sequential).enumerate() {
        assert_eq!(&essence(resp), want, "request {i} diverged without a cache");
        assert!(!resp.stats.arena_cache_hit, "request {i}: no cache, no hit");
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let e = engine();
    let mut out = vec![Err(EngineError::BuildFailed)];
    e.try_expand_batch_into(&[], &mut out);
    assert!(out.is_empty(), "`out` is cleared first");
}

#[test]
fn member_pagination_slices_the_full_member_list() {
    let e = engine();
    let base = ExpandRequest {
        k_clusters: 3,
        top_k: 40,
        ..ExpandRequest::new("apple")
    };
    let full = e.expand(&base);
    for (offset, limit) in [(0, 2), (1, 3), (2, 0), (0, 1000), (3, 1)] {
        let page = e.expand(&ExpandRequest {
            member_offset: offset,
            member_limit: limit,
            ..base.clone()
        });
        assert!(
            page.stats.arena_cache_hit,
            "pagination must reuse the cached pipeline (offset {offset}, limit {limit})"
        );
        assert_eq!(page.clusters().len(), full.clusters().len());
        for (c, (got, want)) in page.clusters().iter().zip(full.clusters()).enumerate() {
            let take = if limit == 0 { usize::MAX } else { limit };
            let expect: Vec<_> = want.docs.iter().skip(offset).take(take).copied().collect();
            assert_eq!(
                got.docs, expect,
                "cluster {c} page (offset {offset}, limit {limit})"
            );
            // Pagination shapes the member list only — expansion output
            // is untouched.
            assert_eq!(got.added, want.added);
            assert_eq!(got.quality, want.quality);
        }
    }
    // A page starting beyond the member count is empty.
    let beyond = e.expand(&ExpandRequest {
        member_offset: 10_000,
        ..base.clone()
    });
    assert!(beyond.clusters().iter().all(|c| c.docs.is_empty()));
    assert_eq!(beyond.clusters().len(), full.clusters().len());
}

#[test]
fn member_pagination_applies_to_batches_too() {
    let e = engine();
    let base = ExpandRequest {
        k_clusters: 3,
        top_k: 40,
        ..ExpandRequest::new("apple")
    };
    let full = e.expand(&base);
    let paged = batch(
        &e,
        &[
            ExpandRequest {
                member_offset: 0,
                member_limit: 2,
                ..base.clone()
            },
            ExpandRequest {
                member_offset: 2,
                member_limit: 2,
                ..base.clone()
            },
        ],
    );
    for (r, off) in paged.iter().zip([0usize, 2]) {
        for (got, want) in r.clusters().iter().zip(full.clusters()) {
            let expect: Vec<_> = want.docs.iter().skip(off).take(2).copied().collect();
            assert_eq!(got.docs, expect);
        }
    }
    // All three requests (the cold probe + both pages) shared one entry.
    assert_eq!(e.cache_stats().entries, 1);
    assert_eq!(e.cache_stats().misses, 1);
}

#[test]
fn responses_stay_in_request_order_with_mixed_shed_degraded_ok_members() {
    use std::time::{Duration, Instant};

    use qec_engine::CancelToken;

    let e = engine();
    // Distinct queries with distinct shapes, so a slot answering the
    // wrong request is detectable by content, not just by index.
    let ok_a = ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("apple")
    };
    let ok_b = ExpandRequest {
        k_clusters: 2,
        top_k: 20,
        ..ExpandRequest::new("tech market")
    };
    for req in [&ok_a, &ok_b] {
        e.recycle(e.expand(req));
    }
    let clean_a = e.expand(&ok_a);
    let clean_b = e.expand(&ok_b);

    // Slot 1 is shed (deadline lapsed before admission), slot 2 is
    // degraded whole (pre-tripped token: admitted, but every cluster
    // task observes the trip), slots 0 and 3 are served.
    let (cancel, trip) = CancelToken::manual();
    trip.cancel();
    let reqs = [
        ok_a.clone(),
        ExpandRequest {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..ExpandRequest::new("farm cider")
        },
        ExpandRequest {
            cancel,
            ..ok_a.clone()
        },
        ok_b.clone(),
    ];
    let results = try_batch(&e, &reqs);
    assert_eq!(results.len(), reqs.len(), "one slot per request");

    let a = results[0].as_ref().expect("slot 0 served");
    assert_eq!(a.clusters(), clean_a.clusters(), "slot 0 answers request 0");
    assert!(!a.stats.degraded);

    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &EngineError::DeadlineExceeded,
        "slot 1 carries its own refusal, not a neighbour's response"
    );

    let d = results[2]
        .as_ref()
        .expect("a tripped token degrades, never errors");
    assert!(d.stats.degraded, "slot 2 degraded");
    assert_eq!(d.clusters().len(), 0, "pre-tripped: empty finished prefix");

    let b = results[3].as_ref().expect("slot 3 served");
    assert_eq!(b.clusters(), clean_b.clusters(), "slot 3 answers request 3");
    assert!(!b.stats.degraded);
}

#[test]
fn identical_terms_with_different_strategies_never_share_a_pipeline_entry() {
    // Regression: batch grouping (and the shared cache) key on the
    // strategy too. Three spellings of one analysed key served by three
    // different strategies must build three pipelines and answer each
    // request with **its own** strategy's expansion, not the group
    // representative's.
    let batch_engine = engine();
    let reqs = vec![
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            strategy: ExpandStrategy::Pebc,
            ..ExpandRequest::new("apples")
        },
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            strategy: ExpandStrategy::ExactDeltaF,
            ..ExpandRequest::new("  APPLE ,")
        },
    ];
    let responses = batch(&batch_engine, &reqs);
    for (resp, name) in responses.iter().zip(["iskr", "pebc", "exact-df"]) {
        assert!(!resp.stats.arena_cache_hit, "{name}: distinct cold key");
        assert_eq!(resp.stats.strategy, name);
    }
    let stats = batch_engine.cache_stats();
    assert_eq!(
        stats.misses, 3,
        "three builds for three (terms, strategy) keys"
    );
    assert_eq!(stats.entries, 3);
    // Each batched response is bit-identical to a sequential serve of the
    // same request on a fresh engine.
    let fresh = engine();
    for (req, resp) in reqs.iter().zip(&responses) {
        assert_eq!(essence(resp), essence(&fresh.expand(req)));
    }
    // The same batch again: three hits, still three entries.
    for resp in batch(&batch_engine, &reqs) {
        assert!(resp.stats.arena_cache_hit);
    }
    assert_eq!(batch_engine.cache_stats().entries, 3);
}
