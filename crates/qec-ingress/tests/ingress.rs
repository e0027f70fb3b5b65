//! Behaviour of the front door: response parity with the direct engine
//! path, queued-deadline/cancel semantics (requests dying in the queue
//! never reach the engine), the bounded-queue `Overloaded` backstop,
//! close-reason accounting, and graceful shutdown drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qec_engine::{
    DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandStrategy, QecEngine,
};
use qec_ingress::{CancelToken, IngressBuilder, IngressConfig, IngressRequest};

/// The engine-facing view of a front-door request, for parity checks.
fn as_expand(req: &IngressRequest) -> ExpandRequest<'_> {
    ExpandRequest {
        query: &req.query,
        k_clusters: req.k_clusters,
        top_k: req.top_k,
        semantics: req.semantics,
        strategy: req.strategy,
        member_offset: req.member_offset,
        member_limit: req.member_limit,
        deadline: req.deadline,
        timeout: req.timeout,
        cancel: req.cancel.clone(),
    }
}

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

fn engine() -> Arc<QecEngine> {
    EngineBuilder::new().documents(corpus_docs()).build_shared()
}

/// A mixed workload: duplicate keys, distinct knobs, strategies, and a
/// no-result query.
fn workload() -> Vec<IngressRequest> {
    vec![
        IngressRequest {
            k_clusters: 4,
            top_k: 50,
            ..IngressRequest::new("apple")
        },
        IngressRequest {
            k_clusters: 3,
            top_k: 30,
            ..IngressRequest::new("farm cider")
        },
        IngressRequest {
            k_clusters: 4,
            top_k: 50,
            strategy: ExpandStrategy::Pebc,
            ..IngressRequest::new("  APPLE ,")
        },
        IngressRequest::new("zebra"),
        IngressRequest {
            k_clusters: 2,
            top_k: 20,
            ..IngressRequest::new("tech market")
        },
    ]
}

#[test]
fn responses_match_the_direct_engine_path_bit_for_bit() {
    let reference = engine();
    let ingress = IngressBuilder::new(engine())
        .batch_max(3)
        .linger(Duration::from_millis(2))
        .spawn();

    let tickets: Vec<_> = workload()
        .into_iter()
        .map(|req| ingress.submit(req).expect("queue has room"))
        .collect();
    for (ticket, req) in tickets.into_iter().zip(workload()) {
        let via_ingress = ticket.wait().expect("served");
        let direct = reference.try_expand(&as_expand(&req)).expect("served");
        assert_eq!(via_ingress.clusters(), direct.clusters());
    }

    let stats = ingress.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.dispatched, 5);
    assert!(stats.batches >= 2, "batch_max=3 forces at least two chunks");
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn concurrent_submitters_all_get_their_own_answer() {
    let ingress = IngressBuilder::new(engine())
        .batch_max(16)
        .linger(Duration::from_millis(1))
        .spawn();
    let reference = engine();
    let expected: Vec<_> = workload()
        .iter()
        .map(|req| reference.try_expand(&as_expand(req)).expect("served"))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for (req, want) in workload().into_iter().zip(&expected) {
                    let got = ingress.expand(req).expect("served");
                    assert_eq!(got.clusters(), want.clusters());
                }
            });
        }
    });

    let stats = ingress.stats();
    assert_eq!(stats.submitted, 20);
    assert_eq!(stats.dispatched, 20);
}

#[test]
fn deadline_expiring_in_queue_never_reaches_the_engine() {
    // No fill bound and a linger far beyond the timeout: the only way the
    // request resolves is the queue honouring its deadline.
    let ingress = IngressBuilder::new(engine())
        .batch_max(0)
        .linger(Duration::from_secs(60))
        .spawn();

    let started = Instant::now();
    let ticket = ingress
        .submit(IngressRequest {
            timeout: Some(Duration::from_millis(20)),
            ..IngressRequest::new("apple")
        })
        .expect("accepted while still live");
    assert!(matches!(ticket.wait(), Err(EngineError::DeadlineExceeded)));
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(10),
        "queued deadline must fire near its expiry, not at linger close (waited {waited:?})"
    );

    let stats = ingress.stats();
    assert_eq!(stats.expired_in_queue, 1);
    assert_eq!(stats.dispatched, 0, "the request never formed a chunk");
    let cache = ingress.engine().cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 0),
        "the engine was never probed"
    );
}

#[test]
fn manual_trip_while_parked_completes_with_cancelled() {
    let ingress = IngressBuilder::new(engine())
        .batch_max(0)
        .linger(Duration::from_secs(60))
        .spawn();

    let (token, signal) = CancelToken::manual();
    let ticket = ingress
        .submit(IngressRequest {
            cancel: token,
            ..IngressRequest::new("apple")
        })
        .expect("accepted while still live");
    std::thread::sleep(Duration::from_millis(5));
    assert!(!ticket.is_done(), "still parked before the trip");
    signal.cancel();
    assert!(matches!(ticket.wait(), Err(EngineError::Cancelled)));

    let stats = ingress.stats();
    assert_eq!(stats.cancelled_in_queue, 1);
    assert_eq!(stats.dispatched, 0, "the request never formed a chunk");
}

#[test]
fn zero_linger_door_dispatches_a_lone_request_without_lingering() {
    // A zero linger leaves nothing to wait out: the collector closes a
    // one-request chunk the moment it sees it (a "linger" close whose
    // window is empty) instead of sleeping towards a fuller one. It is a
    // setting; the default keeps a window a burst fits into.
    assert_eq!(IngressConfig::default().linger, Duration::from_micros(200));
    let ingress = IngressBuilder::new(engine()).linger(Duration::ZERO).spawn();
    assert_eq!(ingress.config().linger, Duration::ZERO);
    let direct = engine()
        .try_expand(&as_expand(&IngressRequest::new("apple")))
        .expect("served");
    let resp = ingress
        .expand(IngressRequest::new("apple"))
        .expect("served");
    assert_eq!(resp.clusters(), direct.clusters());
    let stats = ingress.stats();
    assert_eq!((stats.batches, stats.dispatched), (1, 1));
    assert_eq!((stats.linger_closes, stats.full_closes), (1, 0));
    assert_eq!(stats.mean_fill(), 1.0);
}

#[test]
fn dead_on_arrival_submissions_are_refused_on_the_spot() {
    let ingress = IngressBuilder::new(engine()).spawn();

    let expired = IngressRequest {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..IngressRequest::new("apple")
    };
    assert!(matches!(
        ingress.submit(expired),
        Err(EngineError::DeadlineExceeded)
    ));

    // The token's own deadline merges in and is refused the same way.
    let token_expired = IngressRequest {
        cancel: CancelToken::until(Instant::now() - Duration::from_millis(1)),
        ..IngressRequest::new("apple")
    };
    assert!(matches!(
        ingress.submit(token_expired),
        Err(EngineError::DeadlineExceeded)
    ));

    let (token, signal) = CancelToken::manual();
    signal.cancel();
    let tripped = IngressRequest {
        cancel: token,
        ..IngressRequest::new("apple")
    };
    assert!(matches!(
        ingress.submit(tripped),
        Err(EngineError::Cancelled)
    ));

    let stats = ingress.stats();
    assert_eq!(stats.expired_in_queue, 2);
    assert_eq!(stats.cancelled_in_queue, 1);
    assert_eq!(stats.submitted, 0);
}

#[test]
fn full_queue_sheds_submissions_with_overloaded() {
    // A long linger parks the collector with the queue intact, so the
    // third submission deterministically finds it at the cap.
    let ingress = IngressBuilder::new(engine())
        .queue_cap(2)
        .linger(Duration::from_secs(60))
        .spawn();

    let first = ingress.submit(IngressRequest::new("apple")).expect("room");
    let second = ingress.submit(IngressRequest::new("apple")).expect("room");
    match ingress.submit(IngressRequest::new("apple")) {
        Err(EngineError::Overloaded {
            in_flight,
            max_in_flight,
        }) => {
            assert_eq!(in_flight, 2);
            assert_eq!(max_in_flight, 2);
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an accepted ticket"),
    }
    assert_eq!(ingress.stats().queue_sheds, 1);
    assert_eq!(ingress.stats().queue_depth, 2);

    // Shutdown drains the two accepted requests — shedding never strands
    // an accepted submitter.
    drop(ingress);
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
}

#[test]
fn close_reasons_and_fill_histogram_are_accounted() {
    let ingress = IngressBuilder::new(engine())
        .batch_max(4)
        .linger(Duration::from_millis(200))
        .spawn();

    // Four submissions inside one linger window close a full chunk…
    let tickets: Vec<_> = (0..4)
        .map(|_| ingress.submit(IngressRequest::new("apple")).expect("room"))
        .collect();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = ingress.stats();
    assert_eq!(stats.full_closes, 1);
    assert_eq!(stats.linger_closes, 0);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.mean_fill(), 4.0);
    // Fill 4 lands in the "3-4" bucket (index 2 of FILL_BUCKET_LABELS).
    assert_eq!(stats.fill_hist[2], 1);

    // …while a lone submission runs out of patience instead.
    assert!(ingress.expand(IngressRequest::new("apple")).is_ok());
    let stats = ingress.stats();
    assert_eq!(stats.linger_closes, 1);
    assert_eq!(stats.fill_hist[0], 1);
}

#[test]
fn shutdown_drains_queued_requests_instead_of_stranding_them() {
    let ingress = IngressBuilder::new(engine())
        .batch_max(0)
        .linger(Duration::from_secs(60))
        .spawn();

    let tickets: Vec<_> = (0..3)
        .map(|_| ingress.submit(IngressRequest::new("apple")).expect("room"))
        .collect();
    drop(ingress); // shutdown: the drain must still serve all three
    for t in tickets {
        let resp = t.wait().expect("served during drain");
        assert!(!resp.clusters().is_empty());
    }
}

#[test]
fn try_take_polls_without_blocking() {
    let ingress = IngressBuilder::new(engine())
        .batch_max(0)
        .linger(Duration::from_secs(60))
        .spawn();
    let ticket = ingress
        .submit(IngressRequest {
            timeout: Some(Duration::from_millis(10)),
            ..IngressRequest::new("apple")
        })
        .expect("room");
    // Poll until the queued deadline resolves it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(result) = ticket.try_take() {
            assert!(matches!(result, Err(EngineError::DeadlineExceeded)));
            break;
        }
        assert!(Instant::now() < deadline, "ticket never resolved");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A taken result is gone.
    assert!(ticket.try_take().is_none());
    assert!(!ticket.is_done());
}
