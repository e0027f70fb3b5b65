//! Chaos suite for the sharded serving path, driven through
//! `qec-failpoint`'s `shard.retrieve` site (checked inside every
//! scattered retrieval task): a single panicking shard attempt **heals
//! via retry** (the response is bit-identical to a clean run), a
//! blacked-out scatter — every attempt of every shard failing — fails
//! **exactly the requests sharing that pipeline build** (batch siblings
//! are served bit-identical to a clean run), a deadline that trips
//! mid-scatter degrades the merged response to an intact prefix (never a
//! torn ranking), and the engine — shared pool included — stays fully
//! serviceable after every injected fault. Replica-targeted faults
//! (failover, hedging, explicit omission) live in `tests/replication_chaos.rs`.
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! for its whole body.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineError, ExpandRequest, ExpandResponse, ShardedEngine,
    ShardedEngineBuilder,
};
use qec_failpoint::{arm, arm_times, FailAction};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The deterministic two-sense corpus the other chaos suite uses, large
/// enough that every shard holds real results for every query.
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

/// A 3-shard engine with the default configuration (failure memoization
/// keeps its 250 ms TTL — the recovery assertions sleep past it).
fn engine() -> ShardedEngine {
    ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build()
}

/// Four requests with four distinct cache keys.
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
fn single_panicked_attempt_heals_via_retry() {
    let _s = serial();
    let clean_engine = engine();
    let engine = engine();
    let req = &workload()[0];
    let clean = clean_engine.expand(req);

    // One shard attempt panics. The scatter retries the shard (same
    // replica — there is only one) after a sub-millisecond backoff and
    // the cold build completes as if nothing happened.
    let healed = {
        let _g = arm_times("shard.retrieve", FailAction::Panic, 1);
        engine
            .try_expand(req)
            .expect("a single shard fault is retried, not surfaced")
    };
    assert_eq!(essence(&healed), essence(&clean));
    assert_eq!(healed.stats.shards_omitted, 0);
    assert!(healed.omitted_shards().is_empty());
    let failures: u64 = engine
        .stats()
        .shards
        .iter()
        .flat_map(|s| s.replicas.iter().map(|r| r.failures))
        .sum();
    assert_eq!(failures, 1, "exactly the injected fault was recorded");
}

#[test]
fn blacked_out_scatter_fails_exactly_that_request() {
    let _s = serial();
    let engine = engine();
    let reqs = workload();
    let victim = 2;

    // Warm every key except the victim's, so the chaos batch has exactly
    // one cold (scattering) build — the poisoned one.
    for (i, req) in reqs.iter().enumerate() {
        if i != victim {
            engine.recycle(engine.expand(req));
        }
    }
    let results = {
        // Every attempt of every shard fails — retries included. With a
        // single replica per shard nothing can fail over, every shard is
        // omitted, and a fully-empty scatter is an error: the requests
        // behind that one pipeline fail — and only those.
        let _g = arm("shard.retrieve", FailAction::Error);
        let mut results = Vec::new();
        engine.try_expand_batch_into(&reqs, &mut results);
        results
    };
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

    // Pool and shards fully serviceable: once the failure memo expires,
    // the victim's key builds cleanly (scattering across all shards).
    std::thread::sleep(Duration::from_millis(300));
    let healed = engine
        .try_expand(&reqs[victim])
        .expect("key heals after the failure TTL");
    assert!(!healed.stats.degraded);
    assert!(
        engine
            .stats()
            .shards
            .iter()
            .all(|s| s.scattered_retrievals > 0),
        "every shard took part in the healed build"
    );
}

#[test]
fn deadline_tripping_mid_scatter_degrades_without_tearing() {
    let _s = serial();
    let sharded = engine();
    let req = ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("apple")
    };
    // A clean serve of the same key on an identical engine, for the
    // prefix comparison below.
    let clean_engine = engine();
    let clean = clean_engine.expand(&req);

    // One shard's retrieval stalls past the request budget. The scatter
    // still completes and publishes the merged pipeline (retrieval is not
    // torn down mid-merge); the deadline then trips **before expansion**,
    // so the response degrades to a prefix of the clean response's
    // clusters — possibly empty, never partial within a cluster.
    let degraded = {
        let _g = arm_times(
            "shard.retrieve",
            FailAction::Delay(Duration::from_millis(150)),
            1,
        );
        sharded
            .try_expand(&ExpandRequest {
                timeout: Some(Duration::from_millis(40)),
                ..req.clone()
            })
            .expect("a tripped deadline degrades, it does not error")
    };
    assert!(degraded.stats.degraded);
    assert!(degraded.clusters().len() < clean.clusters().len());
    for (i, cluster) in degraded.clusters().iter().enumerate() {
        assert_eq!(
            cluster,
            &clean.clusters()[i],
            "degraded cluster {i} is bit-identical to its clean counterpart"
        );
    }

    // The stalled build still published: the same key now serves warm,
    // undegraded, and bit-identical to the clean engine.
    let warm = sharded.expand(&req);
    assert!(warm.stats.arena_cache_hit);
    assert_eq!(essence(&warm), essence(&clean));
}

#[test]
fn sibling_requests_stay_bit_identical_while_a_shard_stalls() {
    let _s = serial();
    let engine = engine();
    let reqs = workload();
    for req in &reqs {
        engine.recycle(engine.expand(req));
    }
    let clean: Vec<_> = reqs.iter().map(|r| essence(&engine.expand(r))).collect();

    // A fresh cold key whose scatter stalls on one shard, batched with
    // the warm workload: the stalled build slows only its own request —
    // every sibling is served from cache, bit-identical to a clean run.
    let mut batch = reqs.clone();
    batch.push(ExpandRequest {
        k_clusters: 2,
        top_k: 25,
        ..ExpandRequest::new("gadget1 chip1")
    });
    let results = {
        let _g = arm_times(
            "shard.retrieve",
            FailAction::Delay(Duration::from_millis(60)),
            1,
        );
        let mut results = Vec::new();
        engine.try_expand_batch_into(&batch, &mut results);
        results
    };
    for (i, clean_essence) in clean.iter().enumerate() {
        let resp = results[i].as_ref().expect("warm sibling unaffected");
        assert_eq!(essence(resp), *clean_essence, "sibling {i}");
    }
    let stalled = results[reqs.len()]
        .as_ref()
        .expect("the stalled request completes, merely late");
    assert!(!stalled.stats.degraded, "no deadline was set");
    assert!(stalled.stats.results > 0);
}
