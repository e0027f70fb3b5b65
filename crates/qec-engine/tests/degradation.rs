//! Graceful-degradation contract of the deadline/cancellation path:
//! whatever moment a token trips, the served response is a **prefix** of
//! the undegraded response — same clusters, bit-identical entries, never
//! a torn (half-refined) expansion — and `ExpandStats::degraded` is set
//! exactly when clusters were cut off. The endpoints are deterministic
//! (inert token → whole response; pre-tripped token → empty degraded
//! response); the mid-flight cases race a cancel thread against the
//! expansion loop and assert the prefix property wherever the trip lands.

use std::time::{Duration, Instant};

use qec_engine::{
    CancelToken, DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandStrategy, QecEngine,
};

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

/// The slowest strategy over a warm key — gives a racing cancel thread a
/// real window to land mid-expansion.
fn slow_request() -> ExpandRequest<'static> {
    ExpandRequest {
        k_clusters: 5,
        top_k: 50,
        strategy: ExpandStrategy::ExactDeltaF,
        ..ExpandRequest::new("apple")
    }
}

#[test]
fn degraded_response_is_a_bit_identical_prefix_wherever_the_trip_lands() {
    let engine = engine();
    let req = slow_request();
    let whole = engine.expand(&req);
    let clean = whole.clusters().to_vec();
    let k = clean.len();
    assert!(
        k >= 2,
        "need multiple clusters for prefixes to mean anything"
    );
    engine.recycle(whole);

    // Race a cancel thread against the expansion at a sweep of offsets;
    // every outcome from "nothing served" to "everything served" must be
    // a bit-identical prefix with a consistent degraded flag.
    let mut seen_degraded = false;
    for delay_us in [0u64, 20, 50, 100, 200, 500, 1000, 2000, 5000] {
        let (cancel, trip) = CancelToken::manual();
        let racer = if delay_us == 0 {
            // Deterministic endpoint: tripped before the request starts
            // (a racing thread might lose even a 0µs race on a loaded
            // machine, and the sweep must always exercise degradation).
            trip.cancel();
            None
        } else {
            Some(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                trip.cancel();
            }))
        };
        let resp = engine
            .try_expand(&ExpandRequest {
                cancel,
                ..req.clone()
            })
            .expect("cancellation degrades, never errors");
        if let Some(racer) = racer {
            racer.join().unwrap();
        }
        let n = resp.clusters().len();
        assert!(n <= k);
        assert_eq!(resp.clusters(), &clean[..n], "prefix at delay {delay_us}µs");
        assert_eq!(resp.stats.degraded, n < k, "flag at delay {delay_us}µs");
        assert_eq!(resp.stats.clusters, n);
        seen_degraded |= resp.stats.degraded;
        engine.recycle(resp);
    }
    // At delay 0 the token is tripped before the first cluster: at least
    // one run of the sweep must actually have degraded.
    assert!(seen_degraded, "the sweep never exercised the degraded path");

    // Degradation left no residue: the same key still serves whole.
    let again = engine.expand(&req);
    assert_eq!(again.clusters(), &clean[..], "undegraded serving unchanged");
    assert!(!again.stats.degraded);
}

#[test]
fn pre_tripped_token_serves_empty_degraded_response() {
    let engine = engine();
    let req = slow_request();
    engine.recycle(engine.expand(&req));
    let (cancel, trip) = CancelToken::manual();
    trip.cancel();
    let resp = engine
        .try_expand(&ExpandRequest {
            cancel,
            ..req.clone()
        })
        .expect("a tripped token is degradation, not an error");
    assert!(resp.stats.degraded);
    assert_eq!(resp.clusters().len(), 0);
    assert_eq!(resp.stats.clusters, 0);
    assert!(resp.stats.arena_cache_hit, "the pipeline probe still ran");
}

#[test]
fn expired_deadline_is_refused_before_any_work() {
    let engine = engine();
    let req = slow_request();
    engine.recycle(engine.expand(&req));
    let hits_before = engine.cache_stats().hits;
    let expired = ExpandRequest {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..req.clone()
    };
    assert_eq!(
        engine.try_expand(&expired).unwrap_err(),
        EngineError::DeadlineExceeded
    );
    assert_eq!(
        engine.cache_stats().hits,
        hits_before,
        "refused before the probe"
    );
    // A generous budget serves whole.
    let roomy = ExpandRequest {
        timeout: Some(Duration::from_secs(60)),
        ..req.clone()
    };
    let resp = engine.try_expand(&roomy).unwrap();
    assert!(!resp.stats.degraded);
}

#[test]
fn batch_member_with_tripped_token_degrades_alone() {
    let engine = engine();
    let reqs = vec![
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 3,
            top_k: 30,
            ..ExpandRequest::new("farm cider")
        },
        ExpandRequest {
            k_clusters: 2,
            top_k: 20,
            ..ExpandRequest::new("tech market")
        },
    ];
    for req in &reqs {
        engine.recycle(engine.expand(req));
    }
    let clean: Vec<Vec<_>> = reqs
        .iter()
        .map(|r| engine.expand(r).clusters().to_vec())
        .collect();

    let (cancel, trip) = CancelToken::manual();
    trip.cancel();
    let mut poisoned = reqs.clone();
    poisoned[1] = ExpandRequest {
        cancel,
        ..reqs[1].clone()
    };
    let mut results = Vec::new();
    engine.try_expand_batch_into(&poisoned, &mut results);
    for (i, result) in results.iter().enumerate() {
        let resp = result
            .as_ref()
            .expect("cancellation degrades, never errors");
        if i == 1 {
            assert!(resp.stats.degraded);
            assert_eq!(resp.clusters().len(), 0);
        } else {
            assert!(!resp.stats.degraded);
            assert_eq!(resp.clusters(), &clean[i][..], "sibling {i} served whole");
        }
    }
}

#[test]
fn batch_member_with_expired_deadline_is_refused_alone() {
    let engine = engine();
    let reqs = vec![
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 3,
            top_k: 30,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..ExpandRequest::new("farm cider")
        },
        ExpandRequest {
            k_clusters: 2,
            top_k: 20,
            ..ExpandRequest::new("tech market")
        },
    ];
    for req in [&reqs[0], &reqs[2]] {
        engine.recycle(engine.expand(req));
    }
    let mut results = Vec::new();
    engine.try_expand_batch_into(&reqs, &mut results);
    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &EngineError::DeadlineExceeded
    );
    for i in [0, 2] {
        let resp = results[i].as_ref().expect("siblings served");
        assert!(!resp.stats.degraded);
        assert!(!resp.clusters().is_empty());
    }
    // The refused member built nothing — its key is still cold.
    let misses_before = engine.cache_stats().misses;
    engine.recycle(engine.expand(&ExpandRequest {
        deadline: None,
        ..reqs[1].clone()
    }));
    assert_eq!(
        engine.cache_stats().misses,
        misses_before + 1,
        "key was never built"
    );
}
