//! Chaos suite for the front door, driven through `qec-failpoint` sites
//! that live *below* it (the door itself has none): shutdown while a
//! dispatched chunk is stuck mid-fault must still complete every ticket,
//! and not-quite-whole completions — deadline-degraded and shard-omitted
//! partial responses — must show up in [`IngressStats`].
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! (CI additionally runs this binary with `RUST_TEST_THREADS=1`).

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use qec_engine::{DocumentSpec, EngineBuilder, QecEngine, ShardedEngineBuilder};
use qec_failpoint::{arm, arm_times, FailAction};
use qec_ingress::{IngressBuilder, IngressRequest};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

fn engine() -> Arc<QecEngine> {
    EngineBuilder::new().documents(corpus_docs()).build_shared()
}

#[test]
fn shutdown_mid_fault_completes_every_ticket() {
    let _s = serial();
    // Every cold build stalls; the guard outlives the drop below, so the
    // shutdown drain itself dispatches into the fault.
    let _g = arm(
        "engine.build_pipeline",
        FailAction::Delay(Duration::from_millis(40)),
    );
    let ingress = IngressBuilder::new(engine()).batch_max(2).spawn();

    // Four distinct cold keys: the first chunk is dispatched (and stuck
    // mid-delay) while the rest are still queued when the door drops.
    let tickets: Vec<_> = ["apple", "farm cider", "tech market", "apple harvest"]
        .into_iter()
        .map(|q| {
            ingress
                .submit(IngressRequest {
                    k_clusters: 3,
                    top_k: 30,
                    ..IngressRequest::new(q)
                })
                .expect("queue has room")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    drop(ingress);

    // The drain contract holds under fault: no stranded submitter, every
    // ticket answers — late, but complete and correct.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().expect("drained, not stranded");
        assert!(resp.stats.results > 0, "ticket {i} got a real response");
        assert!(!resp.stats.degraded, "no deadline was set");
    }
}

#[test]
fn degraded_completions_are_counted() {
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).spawn();

    // The build outlives the request budget: the pipeline still lands, so
    // the engine degrades the response (Ok, intact prefix) rather than
    // erroring — and the door counts it.
    let degraded = {
        let _g = arm_times(
            "engine.build_pipeline",
            FailAction::Delay(Duration::from_millis(60)),
            1,
        );
        ingress
            .expand(IngressRequest {
                k_clusters: 4,
                top_k: 50,
                timeout: Some(Duration::from_millis(20)),
                ..IngressRequest::new("apple")
            })
            .expect("a tripped deadline degrades, it does not error")
    };
    assert!(degraded.stats.degraded);
    let stats = ingress.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.partial, 0);
}

#[test]
fn partial_completions_are_counted() {
    let _s = serial();
    // A replicated sharded engine mounted behind the door: 3 shards × 2
    // replicas, with shard 1 fully blacked out below.
    let sharded = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .replicas(2)
        .build();
    let ingress = IngressBuilder::new(Arc::new(sharded.into_engine())).spawn();

    let partial = {
        let _g = arm("shard.retrieve.1", FailAction::Error);
        ingress
            .expand(IngressRequest {
                k_clusters: 4,
                top_k: 50,
                ..IngressRequest::new("apple")
            })
            .expect("a surviving majority still answers")
    };
    assert_eq!(partial.stats.shards_omitted, 1);
    assert_eq!(partial.omitted_shards(), &[1]);
    let stats = ingress.stats();
    assert_eq!(stats.partial, 1);
    assert_eq!(stats.degraded, 0);

    // Healed: the same key now serves whole, and the counter stands.
    let healed = ingress
        .expand(IngressRequest {
            k_clusters: 4,
            top_k: 50,
            ..IngressRequest::new("apple")
        })
        .expect("served");
    assert_eq!(healed.stats.shards_omitted, 0);
    assert_eq!(ingress.stats().partial, 1);
}
