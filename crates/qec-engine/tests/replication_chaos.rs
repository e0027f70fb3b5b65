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
//!    and the request completes well inside its deadline, undegraded.
//! 4. **Persistent replica failure** → its circuit breaker opens after
//!    `breaker_threshold` consecutive failures, scatter stops selecting
//!    it, and after the cooldown a half-open probe heals it back in.
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! (CI additionally runs this binary with `RUST_TEST_THREADS=1`).

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use qec_engine::{
    BreakerState, ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse,
    QecEngine, ShardedEngine, ShardedEngineBuilder,
};
use qec_failpoint::{arm, arm_times, FailAction};

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
        .hedge_after(Some(Duration::from_millis(10)))
        // Headroom: three stalled attempts must not starve their hedges.
        .pool_threads(8)
        .build();

    // Replica 0 of every shard stalls far past the request deadline. At
    // +10ms each shard hedges a duplicate onto its sibling; the duplicate
    // wins and the response lands undegraded, long before both the stall
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
fn breaker_opens_after_threshold_and_heals_via_half_open_probe() {
    let _s = serial();
    let engine = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .replicas(2)
        .breaker_threshold(1)
        .breaker_cooldown(Duration::from_millis(100))
        // Every expand must be a fresh scatter (no warm serving) and
        // hedging must not race the failure bookkeeping under test.
        .cache_capacity(0)
        .hedge_after(Some(Duration::from_secs(10)))
        .build();

    let guard = arm("shard.replica.retrieve.0", FailAction::Error);
    // First scatter: replica 0 fails once per shard — at threshold 1 that
    // opens its breaker — and the sibling serves the retry.
    let resp = engine.try_expand(&request()).expect("sibling absorbs it");
    assert_eq!(resp.stats.shards_omitted, 0);
    for (si, shard) in engine.stats().shards.iter().enumerate() {
        assert_eq!(
            shard.replicas[0].breaker,
            BreakerState::Open,
            "shard {si}: breaker opened after the threshold failure"
        );
    }
    // While open (and not yet cooled), scatter skips replica 0 entirely:
    // further traffic adds no replica-0 failures.
    let failures_before: u64 = engine
        .stats()
        .shards
        .iter()
        .map(|s| s.replicas[0].failures)
        .sum();
    // What the surviving replicas serve meanwhile is the whole answer.
    let clean = essence(&baseline().expand(&request()));
    for _ in 0..2 {
        let resp = engine.expand(&request());
        assert_eq!(essence(&resp), clean, "half-dead steady state");
        assert_eq!(resp.stats.shards_omitted, 0);
        engine.recycle(resp);
    }
    let failures_after: u64 = engine
        .stats()
        .shards
        .iter()
        .map(|s| s.replicas[0].failures)
        .sum();
    assert_eq!(
        failures_before, failures_after,
        "an open breaker takes the replica out of selection"
    );

    // Replica 0 recovers; after the cooldown each shard's next scan that
    // reaches it admits one half-open probe, the probe succeeds, and the
    // breaker closes. A few scatters guarantee every shard's rotation
    // reaches replica 0 at least once.
    drop(guard);
    std::thread::sleep(Duration::from_millis(150));
    let retrievals_before: u64 = engine
        .stats()
        .shards
        .iter()
        .map(|s| s.replicas[0].retrievals)
        .sum();
    for _ in 0..4 {
        engine.recycle(engine.expand(&request()));
    }
    let stats = engine.stats();
    for (si, shard) in stats.shards.iter().enumerate() {
        assert_eq!(
            shard.replicas[0].breaker,
            BreakerState::Closed,
            "shard {si}: the half-open probe healed the breaker"
        );
        assert_eq!(shard.omissions, 0, "shard {si} was never omitted");
    }
    let retrievals_after: u64 = stats.shards.iter().map(|s| s.replicas[0].retrievals).sum();
    assert!(
        retrievals_after > retrievals_before,
        "a healed replica serves traffic again"
    );
}
