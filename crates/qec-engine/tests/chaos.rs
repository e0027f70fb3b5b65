//! Fault-injection (chaos) suite for the serving path, driven through the
//! `qec-failpoint` crate: a poisoned pipeline build or expansion task
//! fails **only its own request** (batch siblings are served bit-identical
//! to a clean run), failed builds are memoized then retried after the TTL,
//! impatient single-flight waiters time out without disturbing the build,
//! and the engine stays fully serviceable after every injected fault.
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! for its whole body.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandResponse,
    QecEngine,
};
use qec_failpoint::{arm, arm_times, FailAction};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The deterministic two-sense corpus the batch suite uses.
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

/// Five requests with five distinct cache keys.
fn workload() -> Vec<ExpandRequest<'static>> {
    vec![
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
        ExpandRequest {
            k_clusters: 3,
            top_k: 40,
            ..ExpandRequest::new("apple harvest")
        },
        ExpandRequest {
            k_clusters: 2,
            top_k: 25,
            ..ExpandRequest::new("gadget1 chip1")
        },
    ]
}

/// The comparable half of a response (everything but the cache-counter
/// snapshot, which legitimately differs between serving orders).
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
        r.stats.degraded,
        r.stats.strategy,
    )
}

#[test]
fn poisoned_build_fails_alone_and_recovers_after_ttl() {
    let _s = serial();
    let ttl = Duration::from_millis(80);
    let engine = EngineBuilder::new()
        .documents(corpus_docs())
        .cache_failure_ttl(ttl)
        .build();
    let reqs = workload();
    let victim = 2;

    // Warm every key except the victim's, so the chaos batch has exactly
    // one cold build — the poisoned one.
    for (i, req) in reqs.iter().enumerate() {
        if i != victim {
            engine.recycle(engine.expand(req));
        }
    }
    let guard = arm_times("engine.build_pipeline", FailAction::Error, 1);
    let results = try_batch(&engine, &reqs);
    assert_eq!(qec_failpoint::hits(guard.name()), 1);
    assert_eq!(results.len(), reqs.len());
    for (i, result) in results.iter().enumerate() {
        if i == victim {
            assert_eq!(result.as_ref().unwrap_err(), &EngineError::BuildFailed);
        } else {
            let resp = result.as_ref().expect("siblings unaffected");
            // Bit-identical to what a clean (warm) serve produces now.
            assert_eq!(
                essence(resp),
                essence(&engine.expand(&reqs[i])),
                "sibling {i}"
            );
        }
    }
    assert!(engine.cache_stats().build_failures >= 1);

    // Within the TTL the failure is memoized: no rebuild attempt (the
    // failpoint is spent — a rebuild would *succeed*), just a fast error.
    let memoized = engine.try_expand(&reqs[victim]);
    assert_eq!(memoized.unwrap_err(), EngineError::BuildFailed);
    assert_eq!(
        qec_failpoint::hits(guard.name()),
        1,
        "no rebuild inside the TTL"
    );
    drop(guard);

    // After the TTL the next request retries and the key heals.
    std::thread::sleep(ttl + Duration::from_millis(20));
    let healed = engine
        .try_expand(&reqs[victim])
        .expect("key heals after TTL");
    assert!(!healed.stats.degraded);
    assert!(healed.clusters().iter().any(|c| !c.added.is_empty()));
}

#[test]
fn panicked_expansion_task_fails_exactly_one_request() {
    let _s = serial();
    let engine = engine();
    let reqs = workload();
    for req in &reqs {
        engine.recycle(engine.expand(req));
    }
    let clean: Vec<_> = reqs.iter().map(|r| essence(&engine.expand(r))).collect();

    // 14 tasks: the chunk's expansions run across the pool.
    let results = {
        let _g = arm_times("engine.expand_task", FailAction::Panic, 1);
        try_batch(&engine, &reqs)
    };
    let failed: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed.len(), 1, "exactly one request absorbs the panic");
    for (i, result) in results.iter().enumerate() {
        match result {
            Err(e) => assert_eq!(*e, EngineError::ExpansionFailed),
            Ok(resp) => assert_eq!(essence(resp), clean[i], "sibling {i} bit-identical"),
        }
    }

    // The engine (pool included) is fully serviceable afterwards.
    let again = try_batch(&engine, &reqs);
    for (i, result) in again.iter().enumerate() {
        assert_eq!(
            essence(result.as_ref().unwrap()),
            clean[i],
            "request {i} after fault"
        );
    }
}

#[test]
fn panicked_fanned_out_single_request_fails_then_serves_clean() {
    // A lone `try_expand` is a chunk of one: below the engine's task-count
    // threshold (8) its expansions run on the caller's thread, from there
    // up they fan out across the pool — behind the same fault boundary as
    // a batch member on both sides.
    let _s = serial();
    let engine = engine();
    for k in [4, 8] {
        let req = ExpandRequest {
            k_clusters: k,
            top_k: 50,
            ..ExpandRequest::new("apple")
        };
        let clean = essence(&engine.expand(&req));
        assert_eq!(clean.0.len(), k, "the task count picks the side under test");

        let faulted = {
            let _g = arm_times("engine.expand_task", FailAction::Panic, 1);
            engine.try_expand(&req)
        };
        assert_eq!(faulted.unwrap_err(), EngineError::ExpansionFailed, "k={k}");
        assert_eq!(essence(&engine.try_expand(&req).unwrap()), clean, "k={k}");
    }
}

#[test]
fn impatient_waiter_times_out_without_disturbing_the_build() {
    let _s = serial();
    let engine = engine();
    let req = ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("apple")
    };
    {
        let _g = arm(
            "engine.build_pipeline",
            FailAction::Delay(Duration::from_millis(250)),
        );
        std::thread::scope(|s| {
            let builder = s.spawn(|| engine.try_expand(&req));
            // Let the builder claim the key's single-flight ticket, then
            // probe the same key with a budget far shorter than the build.
            std::thread::sleep(Duration::from_millis(60));
            let waiter = engine.try_expand(&ExpandRequest {
                timeout: Some(Duration::from_millis(40)),
                ..req.clone()
            });
            assert_eq!(waiter.unwrap_err(), EngineError::DeadlineExceeded);
            let built = builder
                .join()
                .unwrap()
                .expect("builder unaffected by the waiter");
            assert!(!built.stats.degraded);
        });
    }
    // The slow build still published: the key is warm now.
    assert!(engine.try_expand(&req).unwrap().stats.arena_cache_hit);
}
