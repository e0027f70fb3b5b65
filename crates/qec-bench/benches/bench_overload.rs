//! Admission control under overload: shed-rate and accepted-request tail
//! latency when client concurrency exceeds the engine's `max_in_flight`
//! bound.
//!
//! One engine with `SLOTS` admission slots serves a warmed query pool
//! while `clients` threads hammer `try_expand` in a closed loop:
//!
//! * `load=1x` — as many clients as slots. Each client holds at most one
//!   request in flight, so the bound is never exceeded and **zero**
//!   requests are shed (asserted in every mode).
//! * `load=2x` — twice as many clients as slots. Whenever more than
//!   `SLOTS` requests overlap the surplus is refused at admission with
//!   `EngineError::Overloaded` — a typed shed, not a queue — and the
//!   accepted requests keep a bounded tail because they never contend
//!   with more than `SLOTS - 1` peers inside the engine.
//!
//! Every accepted response is checked bit-identical to a clean
//! single-client serve of the same query (parity holds in `--test` smoke
//! mode too), and every refusal must be `Overloaded` with the configured
//! bound echoed back. Timed mode additionally asserts the acceptance
//! claim that 2× load actually sheds, and prints shed-rate plus
//! p50/p99/max of the accepted latencies.
//!
//! Set `QEC_BENCH_OVERLOAD_JSON=/path/file.json` to write the outcomes as
//! a JSON array (see `BENCH_overload.json` at the repo root).

use std::sync::Barrier;
use std::time::Instant;

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec};
use qec_cluster::SplitMix64;
use qec_engine::{ClusterExpansion, EngineBuilder, EngineError, ExpandRequest, QecEngine};

/// Admission slots (`max_in_flight`) of the engine under test.
const SLOTS: usize = 4;
/// Distinct warmed queries the clients draw from.
const POOL: usize = 12;

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

/// What one load point produced: merged accepted latencies plus the shed
/// tally, with every response parity-checked against `clean` on the spot.
struct LoadOutcome {
    label: &'static str,
    clients: usize,
    requests: usize,
    accepted: usize,
    shed: usize,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// Runs `clients` closed-loop threads, each serving `per_client` warmed
/// requests, against `engine`'s admission bound.
fn run_load(
    engine: &QecEngine,
    queries: &[String],
    clean: &[Vec<ClusterExpansion>],
    label: &'static str,
    clients: usize,
    per_client: usize,
) -> LoadOutcome {
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(clients * per_client);
    let mut shed = 0usize;
    // All clients start together — without the barrier, spawn stagger
    // lets early clients drain their share before late ones arrive and
    // the load point underrepresents the overlap it is meant to measure.
    let start = Barrier::new(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    let mut rng = SplitMix64::seed_from_u64(0x0EC1 + c as u64);
                    let mut lat: Vec<u64> = Vec::with_capacity(per_client);
                    let mut shed = 0usize;
                    start.wait();
                    for _ in 0..per_client {
                        let p = (rng.next_u64() % POOL as u64) as usize;
                        let t = Instant::now();
                        match engine.try_expand(&request(&queries[p])) {
                            Ok(resp) => {
                                lat.push(t.elapsed().as_nanos() as u64);
                                assert!(!resp.stats.degraded, "no deadlines were set");
                                assert!(
                                    resp.clusters() == &clean[p][..],
                                    "accepted response diverged under load for {:?}",
                                    queries[p]
                                );
                                engine.recycle(resp);
                            }
                            Err(EngineError::Overloaded {
                                in_flight,
                                max_in_flight,
                            }) => {
                                assert_eq!(max_in_flight, SLOTS, "bound echoed back");
                                assert!(in_flight >= SLOTS, "shed only at the bound");
                                shed += 1;
                            }
                            Err(e) => panic!("overload sheds, never faults: {e}"),
                        }
                    }
                    (lat, shed)
                })
            })
            .collect();
        for h in handles {
            let (lat, s) = h.join().expect("client thread");
            latencies_ns.extend(lat);
            shed += s;
        }
    });

    let requests = clients * per_client;
    let accepted = latencies_ns.len();
    assert_eq!(accepted + shed, requests);
    assert!(accepted > 0, "{label}: overload must not starve everyone");
    latencies_ns.sort_unstable();
    let pct = |q: f64| latencies_ns[((accepted - 1) as f64 * q) as usize] as f64 / 1_000.0;
    LoadOutcome {
        label,
        clients,
        requests,
        accepted,
        shed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: *latencies_ns.last().expect("non-empty") as f64 / 1_000.0,
    }
}

fn main() {
    let mut h = Harness::new("overload");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    let queries: Vec<String> = (0..POOL).map(|r| format!("w{r}")).collect();
    // Per-request admission is the subject: single requests below the
    // fan-out threshold are served on their client thread, so each
    // accepted request costs exactly one thread.
    let engine = EngineBuilder::from_corpus(synth_corpus(&spec))
        .cache_capacity(POOL * 2)
        .max_in_flight(SLOTS)
        .build();

    // Warm every key (single client: never sheds) and snapshot the clean
    // responses the loaded runs must reproduce bit-identically.
    let clean: Vec<Vec<ClusterExpansion>> = queries
        .iter()
        .map(|q| {
            let resp = engine.try_expand(&request(q)).expect("warming never sheds");
            let clusters = resp.clusters().to_vec();
            engine.recycle(resp);
            clusters
        })
        .collect();

    // Reference point: solo warm serving latency, no contention.
    h.bench("solo/warm_expand", || {
        let resp = engine
            .try_expand(&request(&queries[0]))
            .expect("solo never sheds");
        engine.recycle(resp);
    });

    let per_client = if test_mode { 25 } else { 2_000 };
    let outcomes = [
        run_load(&engine, &queries, &clean, "1x", SLOTS, per_client),
        run_load(&engine, &queries, &clean, "2x", SLOTS * 2, per_client),
    ];

    for o in &outcomes {
        let shed_rate = o.shed as f64 / o.requests as f64;
        println!(
            "overload/load={} clients={} requests={}: shed {} ({:.1}%), accepted p50 {:.1} µs p99 {:.1} µs max {:.1} µs",
            o.label, o.clients, o.requests, o.shed, shed_rate * 100.0, o.p50_us, o.p99_us, o.max_us,
        );
    }

    // At 1× load each client holds at most one in-flight request, so the
    // bound is never exceeded: zero sheds, in every mode.
    assert_eq!(outcomes[0].shed, 0, "1x load must never shed");
    if !test_mode {
        // The acceptance claim: 2×-capacity load is actually shed at
        // admission instead of queueing behind the bound.
        assert!(
            outcomes[1].shed > 0,
            "2x load over {SLOTS} slots must shed at admission"
        );
        assert!(outcomes[1].p99_us.is_finite() && outcomes[1].p99_us > 0.0);
    }

    if let Ok(path) = std::env::var("QEC_BENCH_OVERLOAD_JSON") {
        use std::io::Write;
        let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        writeln!(f, "[").expect("write json");
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(
                f,
                "  {{\"load\":\"{}\",\"clients\":{},\"slots\":{},\"requests\":{},\"accepted\":{},\"shed\":{},\"shed_rate\":{:.4},\"p50_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}{}",
                o.label,
                o.clients,
                SLOTS,
                o.requests,
                o.accepted,
                o.shed,
                o.shed as f64 / o.requests as f64,
                o.p50_us,
                o.p99_us,
                o.max_us,
                if i + 1 < outcomes.len() { "," } else { "" },
            )
            .expect("write json");
        }
        writeln!(f, "]").expect("write json");
        println!("# wrote {path}");
    }

    h.finish();
}
