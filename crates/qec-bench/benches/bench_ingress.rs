//! Continuous batching through the `qec-ingress` front door vs the two
//! ways a client could drive the engine directly.
//!
//! `clients` closed-loop threads each keep a **window** of `WINDOW`
//! requests outstanding (the per-connection pipelining a real service
//! sees) and serve `rounds` windows from a warmed query pool, three ways:
//!
//! * `per_request` — each window member is a sequential
//!   [`QecEngine::try_expand`] call: no batching anywhere.
//! * `hand_batched` — each client batches **its own window** through
//!   [`QecEngine::try_expand_batch_into`]: the best a client can do alone,
//!   capped at fill `WINDOW` because one connection cannot see its
//!   neighbours' requests.
//! * `ingress` — each client submits its window to a shared
//!   [`Ingress`](qec_ingress::Ingress) front door and waits on the
//!   tickets. The collector consolidates **across clients** into chunks
//!   of up to `batch_max`, so fills grow with the client count — the
//!   amortisation a hand-batching client can never reach.
//!
//! Every response (all modes, including `--test` smoke mode) is asserted
//! bit-identical to a clean solo serve of the same query. Timed mode
//! additionally asserts the acceptance claim: at ≥16 clients the ingress
//! path's throughput is at least the hand-batched path's, with a bounded
//! window p99.
//!
//! Set `QEC_BENCH_INGRESS_JSON=/path/file.json` to write the outcomes as
//! a JSON array (see `BENCH_ingress.json` at the repo root).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec};
use qec_cluster::SplitMix64;
use qec_engine::{ClusterExpansion, EngineBuilder, ExpandRequest, QecEngine};
use qec_ingress::{Ingress, IngressBuilder, IngressRequest};

/// Distinct warmed queries the clients draw from.
const POOL: usize = 12;
/// Requests each client keeps outstanding (its pipelining window).
const WINDOW: usize = 4;
/// Front-door chunk bound: large enough to consolidate every client's
/// window at the biggest load point (16 clients × WINDOW).
const BATCH_MAX: usize = 64;
/// Front-door linger: the latency budget traded for fuller chunks.
const LINGER: Duration = Duration::from_micros(300);

fn corpus_spec(test_mode: bool) -> CorpusSpec {
    if test_mode {
        CorpusSpec {
            num_docs: 400,
            vocab: 300,
            doc_len: 16,
            ..CorpusSpec::default()
        }
    } else {
        CorpusSpec {
            num_docs: 2_000,
            vocab: 1_500,
            doc_len: 24,
            ..CorpusSpec::default()
        }
    }
}

fn request(query: &str) -> ExpandRequest<'_> {
    ExpandRequest {
        k_clusters: 4,
        top_k: 40,
        ..ExpandRequest::new(query)
    }
}

fn ingress_request(query: &str) -> IngressRequest {
    IngressRequest {
        k_clusters: 4,
        top_k: 40,
        ..IngressRequest::new(query)
    }
}

/// The window of pool indices client `c` serves in round `r` —
/// deterministic, so every mode replays the identical request stream.
fn window(c: usize, r: usize) -> [usize; WINDOW] {
    let mut rng = SplitMix64::seed_from_u64(((0x1236_0000 + c as u64) << 16) | r as u64);
    std::array::from_fn(|_| (rng.next_u64() % POOL as u64) as usize)
}

/// One (mode, client-count) measurement: merged per-window latencies plus
/// wall-clock throughput, every response parity-checked on the spot.
struct Outcome {
    mode: &'static str,
    clients: usize,
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    /// Mean dispatched-chunk fill (ingress mode only; `WINDOW` or 1 is
    /// the structural ceiling of the direct modes).
    mean_fill: f64,
}

/// Runs the closed loop: `clients` threads × `rounds` windows, each
/// window served by `serve` (which returns after the whole window
/// completed, with every member parity-checked).
fn run_mode<F>(
    mode: &'static str,
    clients: usize,
    rounds: usize,
    mean_fill: f64,
    serve: F,
) -> Outcome
where
    F: Fn(usize, usize) + Sync,
{
    let mut window_ns: Vec<u64> = Vec::with_capacity(clients * rounds);
    let start = Barrier::new(clients + 1);
    let begin = std::sync::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let start = &start;
                let serve = &serve;
                s.spawn(move || {
                    let mut lat: Vec<u64> = Vec::with_capacity(rounds);
                    start.wait();
                    for r in 0..rounds {
                        let t = Instant::now();
                        serve(c, r);
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        start.wait();
        *begin.lock().expect("timer") = Some(Instant::now());
        for h in handles {
            window_ns.extend(h.join().expect("client thread"));
        }
    });
    let elapsed = begin
        .lock()
        .expect("timer")
        .expect("barrier released")
        .elapsed();

    let requests = clients * rounds * WINDOW;
    assert_eq!(window_ns.len(), clients * rounds);
    window_ns.sort_unstable();
    let pct = |q: f64| window_ns[((window_ns.len() - 1) as f64 * q) as usize] as f64 / 1_000.0;
    Outcome {
        mode,
        clients,
        requests,
        throughput_rps: requests as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: *window_ns.last().expect("non-empty") as f64 / 1_000.0,
        mean_fill,
    }
}

/// Serves one load point all three ways over the same request stream.
fn run_point(
    engine: &QecEngine,
    ingress: &Ingress,
    queries: &[String],
    clean: &[Vec<ClusterExpansion>],
    clients: usize,
    rounds: usize,
) -> Vec<Outcome> {
    let check = |p: usize, clusters: &[ClusterExpansion]| {
        assert!(
            clusters == &clean[p][..],
            "response diverged from the clean serve for {:?}",
            queries[p]
        );
    };

    let per_request = run_mode("per_request", clients, rounds, 1.0, |c, r| {
        for p in window(c, r) {
            let resp = engine.try_expand(&request(&queries[p])).expect("no bound");
            check(p, resp.clusters());
            engine.recycle(resp);
        }
    });

    let hand_batched = run_mode("hand_batched", clients, rounds, WINDOW as f64, |c, r| {
        let win = window(c, r);
        let reqs: Vec<ExpandRequest<'_>> = win.iter().map(|&p| request(&queries[p])).collect();
        let mut results = Vec::with_capacity(reqs.len());
        engine.try_expand_batch_into(&reqs, &mut results);
        for (result, &p) in results.into_iter().zip(&win) {
            let resp = result.expect("no bound");
            check(p, resp.clusters());
            engine.recycle(resp);
        }
    });

    let fills_before = ingress.stats();
    let via_ingress = run_mode("ingress", clients, rounds, 0.0, |c, r| {
        let win = window(c, r);
        let tickets: Vec<_> = win
            .iter()
            .map(|&p| {
                ingress
                    .submit(ingress_request(&queries[p]))
                    .expect("queue_cap fits every window")
            })
            .collect();
        for (ticket, &p) in tickets.into_iter().zip(&win) {
            let resp = ticket.wait().expect("no bound");
            check(p, resp.clusters());
            ingress.engine().recycle(resp);
        }
    });
    let fills_after = ingress.stats();
    let via_ingress = Outcome {
        mean_fill: (fills_after.dispatched - fills_before.dispatched) as f64
            / (fills_after.batches - fills_before.batches).max(1) as f64,
        ..via_ingress
    };

    vec![per_request, hand_batched, via_ingress]
}

fn main() {
    let mut h = Harness::new("ingress");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    let queries: Vec<String> = (0..POOL).map(|r| format!("w{r}")).collect();
    let engine = EngineBuilder::from_corpus(synth_corpus(&spec))
        .cache_capacity(POOL * 2)
        .build_shared();
    let ingress = IngressBuilder::new(engine.clone())
        .batch_max(BATCH_MAX)
        .linger(LINGER)
        .spawn();

    // Warm every key and snapshot the clean responses every mode must
    // reproduce bit-identically.
    let clean: Vec<Vec<ClusterExpansion>> = queries
        .iter()
        .map(|q| {
            let resp = engine.try_expand(&request(q)).expect("warming never sheds");
            let clusters = resp.clusters().to_vec();
            engine.recycle(resp);
            clusters
        })
        .collect();

    // Reference point: solo warm serving latency through the front door
    // (one lingering request per chunk — the worst case for ingress).
    h.bench("solo/ingress_expand", || {
        let resp = ingress
            .expand(ingress_request(&queries[0]))
            .expect("solo never sheds");
        engine.recycle(resp);
    });

    let rounds = if test_mode { 5 } else { 150 };
    let mut outcomes: Vec<Outcome> = Vec::new();
    for clients in [4usize, 16] {
        outcomes.extend(run_point(
            &engine, &ingress, &queries, &clean, clients, rounds,
        ));
    }

    for o in &outcomes {
        println!(
            "ingress/mode={} clients={} requests={}: {:.0} req/s, window p50 {:.1} µs p99 {:.1} µs max {:.1} µs, mean fill {:.1}",
            o.mode, o.clients, o.requests, o.throughput_rps, o.p50_us, o.p99_us, o.max_us, o.mean_fill,
        );
    }

    if !test_mode {
        // The acceptance claim: once enough clients share the front door,
        // cross-client consolidation beats the best any client can do by
        // batching its own window — with a bounded tail.
        let at = |mode: &str, clients: usize| {
            outcomes
                .iter()
                .find(|o| o.mode == mode && o.clients == clients)
                .expect("measured")
        };
        let hand = at("hand_batched", 16);
        let door = at("ingress", 16);
        assert!(
            door.throughput_rps >= hand.throughput_rps,
            "16-client ingress ({:.0} req/s) must not lose to hand-batched ({:.0} req/s)",
            door.throughput_rps,
            hand.throughput_rps
        );
        assert!(
            door.mean_fill > WINDOW as f64,
            "the collector must consolidate beyond one client's window (mean fill {:.1})",
            door.mean_fill
        );
        assert!(
            door.p99_us.is_finite() && door.p99_us < 250_000.0,
            "ingress window p99 must stay bounded, got {:.1} µs",
            door.p99_us
        );
    }

    if let Ok(path) = std::env::var("QEC_BENCH_INGRESS_JSON") {
        use std::io::Write;
        let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        writeln!(f, "[").expect("write json");
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(
                f,
                "  {{\"mode\":\"{}\",\"clients\":{},\"window\":{},\"batch_max\":{},\"linger_us\":{},\"requests\":{},\"throughput_rps\":{:.0},\"window_p50_us\":{:.1},\"window_p99_us\":{:.1},\"window_max_us\":{:.1},\"mean_fill\":{:.2}}}{}",
                o.mode,
                o.clients,
                WINDOW,
                BATCH_MAX,
                LINGER.as_micros(),
                o.requests,
                o.throughput_rps,
                o.p50_us,
                o.p99_us,
                o.max_us,
                o.mean_fill,
                if i + 1 < outcomes.len() { "," } else { "" },
            )
            .expect("write json");
        }
        writeln!(f, "]").expect("write json");
        println!("# wrote {path}");
    }

    h.finish();
}
