//! Chaos suite for the **replicated** scatter path, driven through
//! `qec-failpoint`'s replica- and shard-keyed sites
//! (`shard.replica.retrieve.N` fires for replica position `N` of every
//! shard — the moral equivalent of one failed machine in a striped
//! deployment; `shard.retrieve.N` fires for every replica of shard `N` —
//! a whole-shard outage). The four scenarios mirror the failover design
//! one-to-one:
//!
//! 1. **Kill one replica** → retries fail over to the sibling and the
//!    response is bit-identical to a clean run (nothing omitted).
//! 2. **Take a whole shard out** → the response is `Ok` and *explicitly*
//!    partial: `shards_omitted` counts it, `omitted_shards()` names it,
//!    the merged ranking over the surviving shards is intact, and the
//!    partial pipeline is never cached — the next clean build heals.
//! 3. **Stall a replica** → a hedged duplicate races it on the sibling
//!    (after the adaptive hedge delay) and the request completes well
//!    inside its deadline, undegraded.
//! 4. **A spent outage leaves no trace** → once a shard's failures stop,
//!    the very next request is served whole: no replica is held out of
//!    selection by the failures that came before.
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! for its whole body.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse, QecEngine,
    ShardedEngine, ShardedEngineBuilder,
};
use qec_failpoint::{arm, arm_times, hits, FailAction};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The deterministic two-sense corpus the sharding suites use: 60 docs,
/// so 3 shards hold the contiguous doc-id ranges [0,20), [20,40), [40,60).
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

/// The unfaulted single-engine baseline every parity assertion compares
/// against (sharding + replication guarantee bit-identity to this).
fn baseline() -> QecEngine {
    EngineBuilder::new().documents(corpus_docs()).build()
}

/// 3 shards × 2 replicas with this suite's default knobs.
fn replicated() -> ShardedEngine {
    ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .replicas(2)
        .build()
}

fn request() -> ExpandRequest<'static> {
    ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("apple")
    }
}

/// The comparable half of a response (everything but the cache-counter
/// snapshot, which legitimately differs between engines).
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
fn killed_replica_fails_over_bit_identically() {
    let _s = serial();
    let clean = baseline().expand(&request());
    let engine = replicated();

    // Replica 0 of every shard errors exactly once each (a fresh engine's
    // rotation starts every shard on replica 0, so the cold scatter's
    // three first attempts consume the three arms). Each shard retries on
    // its sibling and the build completes as if nothing happened.
    let survived = {
        let _g = arm_times("shard.replica.retrieve.0", FailAction::Error, 3);
        engine
            .try_expand(&request())
            .expect("failover absorbs a single-replica kill")
    };
    assert_eq!(essence(&survived), essence(&clean));
    assert_eq!(survived.stats.shards_omitted, 0);
    assert!(survived.omitted_shards().is_empty());

    let stats = engine.stats();
    for (si, shard) in stats.shards.iter().enumerate() {
        assert_eq!(shard.omissions, 0, "shard {si} was never omitted");
        assert_eq!(
            shard.replicas[0].failures, 1,
            "shard {si}: exactly the injected replica-0 fault"
        );
        assert!(
            shard.replicas[1].retrievals >= 1,
            "shard {si}: the sibling served the retry"
        );
    }
}

#[test]
fn whole_shard_outage_is_explicitly_partial_and_never_cached() {
    let _s = serial();
    let clean = baseline().expand(&request());
    let engine = replicated();
    let dead = 1usize; // global doc ids [20, 40)

    let partial = {
        // Every attempt of shard 1 — both replicas, retries included —
        // fails: nothing can fail over, so the shard is omitted and the
        // response says so instead of pretending completeness.
        let _g = arm("shard.retrieve.1", FailAction::Error);
        engine
            .try_expand(&request())
            .expect("a surviving majority serves an explicitly partial response")
    };
    assert_eq!(partial.stats.shards_omitted, 1);
    assert_eq!(partial.omitted_shards(), &[dead as u32]);
    assert!(!partial.stats.degraded, "partial is not degraded");
    assert!(partial.stats.results > 0, "surviving shards still rank");
    assert!(
        partial.stats.results < clean.stats.results,
        "the omission is visible in the result count"
    );
    for cluster in partial.clusters() {
        for doc in &cluster.docs {
            assert!(
                !(20..40).contains(&doc.0),
                "no dead-shard doc may appear in a partial ranking (got {doc:?})"
            );
        }
    }
    assert_eq!(
        engine.cache_stats().entries,
        0,
        "partial pipelines are served but never published"
    );
    assert_eq!(engine.stats().shards[dead].omissions, 1);

    // The fault is gone: the very next request (no failure memo — the
    // partial build *succeeded*) rebuilds cleanly, bit-identical to the
    // unfaulted baseline, and this time the pipeline is cached.
    let healed = engine.expand(&request());
    assert_eq!(essence(&healed), essence(&clean));
    assert_eq!(healed.stats.shards_omitted, 0);
    assert_eq!(engine.cache_stats().entries, 1);
    assert!(engine.expand(&request()).stats.arena_cache_hit);
}

#[test]
fn stalled_replica_is_hedged_within_the_deadline() {
    let _s = serial();
    let clean = baseline().expand(&request());
    let engine = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .replicas(2)
        // Headroom: three stalled attempts must not starve their hedges.
        .pool_threads(8)
        .build();

    // Replica 0 of every shard stalls far past the request deadline. A
    // fresh replica has no latency sample yet, so after the adaptive
    // delay's 2 ms default each shard hedges a duplicate onto its sibling;
    // the duplicate wins and the response lands undegraded, long before both the stall
    // and the deadline. (If hedging failed, the coordinator would wait
    // out the stall and the deadline would degrade the response.)
    let t0 = Instant::now();
    let hedged = {
        let _g = arm_times(
            "shard.replica.retrieve.0",
            FailAction::Delay(Duration::from_millis(800)),
            3,
        );
        engine
            .try_expand(&ExpandRequest {
                timeout: Some(Duration::from_millis(400)),
                ..request()
            })
            .expect("hedging turns a stall into a fast answer")
    };
    let elapsed = t0.elapsed();
    assert!(!hedged.stats.degraded, "hedged, not degraded");
    assert_eq!(hedged.stats.shards_omitted, 0);
    assert_eq!(essence(&hedged), essence(&clean));
    assert!(
        elapsed < Duration::from_millis(600),
        "hedged response must beat the 800ms stall (took {elapsed:?})"
    );
    let hedges: u64 = engine.stats().shards.iter().map(|s| s.hedges).sum();
    assert!(hedges >= 1, "at least one hedge was dispatched");
}

#[test]
fn spent_shard_outage_leaves_the_next_request_whole() {
    let _s = serial();
    let engine = replicated();
    let other = ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("farm cider")
    };
    let clean = baseline().expand(&other);

    // Shard 1 fails exactly six times: one query served twice, each serve
    // a first attempt plus two retries across both replicas. Both serves
    // are explicitly partial (and, being partial, never cached — so the
    // second serve scatters again).
    {
        let _g = arm_times("shard.retrieve.1", FailAction::Error, 6);
        for serve in 0..2 {
            let partial = engine
                .try_expand(&request())
                .expect("two surviving shards serve a partial response");
            assert_eq!(partial.stats.shards_omitted, 1, "serve {serve}");
            assert_eq!(partial.omitted_shards(), &[1]);
        }
        assert_eq!(hits("shard.retrieve.1"), 6, "every injected fault fired");
    }
    let failures: u64 = engine.stats().shards[1]
        .replicas
        .iter()
        .map(|r| r.failures)
        .sum();
    assert_eq!(failures, 6);

    // The faults are spent. An unrelated query served at once reaches
    // shard 1 like any other: nothing that failed before holds a replica
    // out of selection, so nothing is omitted and the answer is whole.
    let whole = engine
        .try_expand(&other)
        .expect("a healthy shard set serves");
    assert_eq!(whole.stats.shards_omitted, 0);
    assert!(whole.omitted_shards().is_empty());
    assert_eq!(essence(&whole), essence(&clean));
    assert_eq!(engine.stats().shards[1].omissions, 2);
}
