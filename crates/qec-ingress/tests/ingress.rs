//! Behaviour of the front door: response parity with the direct engine
//! path, work-conserving chunking (a lone request leaves at once, requests
//! queued behind a chunk in flight leave together), queued-deadline/cancel
//! semantics (requests dying in the queue never reach the engine), the
//! bounded-queue `Overloaded` backstop, close-reason accounting, and
//! graceful shutdown drain.
//!
//! The collector never holds a request back, so a test that needs
//! requests to stay queued parks them behind a stalled dispatch: a first
//! request whose cold build sleeps on the `engine.build_pipeline`
//! failpoint ([`park`]). Failpoints are process-global, so every test
//! takes the `serial()` lock — any test's cold build could otherwise
//! consume another's one-shot stall.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use qec_engine::{
    DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandStrategy, QecEngine,
};
use qec_failpoint::{arm_times, hits, FailAction};
use qec_ingress::{CancelToken, Ingress, IngressBuilder, IngressRequest, Ticket};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// How long a parking request's dispatch stalls: far longer than any test
/// below takes to queue and inspect the requests behind it.
const STALL: Duration = Duration::from_millis(250);

/// Submits a parking request (query `"cider"`, a key no test parks behind
/// it) whose cold build stalls for [`STALL`], and returns its ticket once
/// the stall has begun: until that chunk returns, everything submitted
/// stays queued.
fn park(ingress: &Ingress) -> Ticket {
    let _stall = arm_times("engine.build_pipeline", FailAction::Delay(STALL), 1);
    let ticket = ingress
        .submit(IngressRequest::new("cider"))
        .expect("queue has room");
    while hits("engine.build_pipeline") == 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
    ticket
}

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
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(3).spawn();

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
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(16).spawn();
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
fn idle_door_dispatches_a_lone_request_at_once() {
    // Nothing is queued behind it and the collector never waits to fill a
    // chunk: a lone request on an idle default door leaves as a chunk of
    // one, closed because it emptied the queue.
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).spawn();
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
fn requests_queued_behind_a_chunk_in_flight_leave_together() {
    // Three requests submitted while the parking chunk is stalled in
    // flight form the next chunk, whole: batching happens under load.
    let _s = serial();
    let reference = engine();
    let ingress = IngressBuilder::new(engine()).spawn();
    let parking = park(&ingress);
    let reqs: Vec<_> = workload().into_iter().take(3).collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|req| ingress.submit(req.clone()).expect("queue has room"))
        .collect();
    for (ticket, req) in tickets.into_iter().zip(&reqs) {
        let via_ingress = ticket.wait().expect("served");
        let direct = reference.try_expand(&as_expand(req)).expect("served");
        assert_eq!(via_ingress.clusters(), direct.clusters());
    }
    assert!(parking.wait().is_ok());

    let stats = ingress.stats();
    assert_eq!((stats.batches, stats.dispatched), (2, 4));
    assert_eq!(stats.full_closes, 0, "each chunk emptied the queue");
    assert_eq!(stats.linger_closes, 2);
    // The parking chunk of one, then the three in the "3-4" bucket.
    assert_eq!(stats.fill_hist[0], 1);
    assert_eq!(stats.fill_hist[2], 1);
}

#[test]
fn deadline_expiring_in_queue_never_reaches_the_engine() {
    // No fill bound, and the request waits behind a dispatch stalled far
    // beyond its timeout: it is refused by the sweep when that chunk
    // returns, never dispatched.
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(0).spawn();
    let parking = park(&ingress);

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
        "queued deadline must be refused when the stalled chunk returns (waited {waited:?})"
    );
    assert!(parking.wait().is_ok());

    let stats = ingress.stats();
    assert_eq!(stats.expired_in_queue, 1);
    assert_eq!(
        stats.dispatched, 1,
        "only the parking request formed a chunk"
    );
    let cache = ingress.engine().cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "only the parking request's key was probed"
    );
}

#[test]
fn manual_trip_while_parked_completes_with_cancelled() {
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(0).spawn();
    let parking = park(&ingress);

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
    assert!(parking.wait().is_ok());

    let stats = ingress.stats();
    assert_eq!(stats.cancelled_in_queue, 1);
    assert_eq!(
        stats.dispatched, 1,
        "only the parking request formed a chunk"
    );
}

#[test]
fn dead_on_arrival_submissions_are_refused_on_the_spot() {
    let _s = serial();
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
    // A stalled dispatch keeps the queue intact behind it, so the third
    // submission deterministically finds it at the cap.
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).queue_cap(2).spawn();
    let parking = park(&ingress);

    let first = ingress.submit(IngressRequest::new("apple")).expect("room");
    let second = ingress.submit(IngressRequest::new("apple")).expect("room");
    match ingress.submit(IngressRequest::new("apple")) {
        Err(
            e @ EngineError::Overloaded {
                queue_depth,
                queue_cap,
            },
        ) => {
            assert_eq!(queue_depth, 2);
            assert_eq!(queue_cap, 2);
            assert_eq!(
                e.to_string(),
                "front door queue full: 2 requests queued (cap 2)"
            );
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an accepted ticket"),
    }
    assert_eq!(ingress.stats().queue_sheds, 1);
    assert_eq!(ingress.stats().queue_depth, 2);

    // Shutdown drains the two accepted requests — shedding never strands
    // an accepted submitter.
    drop(ingress);
    assert!(parking.wait().is_ok());
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
}

#[test]
fn close_reasons_and_fill_histogram_are_accounted() {
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(4).spawn();
    let parking = park(&ingress);

    // Four submissions queued behind the stalled chunk close a full
    // chunk…
    let tickets: Vec<_> = (0..4)
        .map(|_| ingress.submit(IngressRequest::new("apple")).expect("room"))
        .collect();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    assert!(parking.wait().is_ok());
    let stats = ingress.stats();
    assert_eq!(stats.full_closes, 1);
    assert_eq!(stats.linger_closes, 1, "only the parking chunk");
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.mean_fill(), 2.5);
    // Fill 4 lands in the "3-4" bucket (index 2 of FILL_BUCKET_LABELS).
    assert_eq!(stats.fill_hist[2], 1);

    // …while a lone submission empties the queue instead.
    assert!(ingress.expand(IngressRequest::new("apple")).is_ok());
    let stats = ingress.stats();
    assert_eq!(stats.linger_closes, 2);
    assert_eq!(stats.fill_hist[0], 2);
}

#[test]
fn shutdown_drains_queued_requests_instead_of_stranding_them() {
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(0).spawn();
    let parking = park(&ingress);

    let tickets: Vec<_> = (0..3)
        .map(|_| ingress.submit(IngressRequest::new("apple")).expect("room"))
        .collect();
    drop(ingress); // shutdown: the drain must still serve all three
    assert!(parking.wait().is_ok());
    for t in tickets {
        let resp = t.wait().expect("served during drain");
        assert!(!resp.clusters().is_empty());
    }
}

#[test]
fn try_take_polls_without_blocking() {
    let _s = serial();
    let ingress = IngressBuilder::new(engine()).batch_max(0).spawn();
    let parking = park(&ingress);
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
    assert!(parking.wait().is_ok());
}
