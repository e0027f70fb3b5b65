//! Multi-session serving scalability: shared-arena-cache hit-rate and p50
//! request latency across session count × query skew (Zipfian).
//!
//! Each grid point replays an interleaved request stream — `sessions`
//! logical users, each drawing `per-session` queries from a shared pool
//! under a Zipf(s) skew — against a fresh engine, and reports
//!
//! * the **shared cache** hit rate (from the engine's own counters),
//! * the hit rate the retired **per-session** policy (each session caches
//!   only its previous request, PR 2's design) would have scored on the
//!   identical stream (pure bookkeeping on the same draws), and
//! * per-request **p50 latency**.
//!
//! The suite asserts the shared cache dominates per-session caching for
//! every stream with ≥ 2 sessions — the Nth user of a hot query pays only
//! expansion cost — in `--test` smoke mode too, so CI checks the claim on
//! every push. Two harness cases additionally time the warmed-hit and
//! cache-disabled (always-rebuild) serving paths.
//!
//! Set `QEC_BENCH_SCALABILITY_JSON=/path/file.json` to write the grid as a
//! JSON array (see `BENCH_scalability.json` at the repo root).

use std::hint::black_box;
use std::time::Instant;

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec, ZipfSampler};
use qec_cluster::SplitMix64;
use qec_engine::{EngineBuilder, ExpandRequest, QecEngine};

/// Shared query pool: the head ranks of the synthetic Zipf vocabulary, so
/// every query retrieves a dense, clusterable result set.
const POOL: usize = 24;

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

fn fresh_engine(spec: &CorpusSpec, cache_enabled: bool) -> QecEngine {
    EngineBuilder::from_corpus(synth_corpus(spec))
        .cache_capacity(if cache_enabled { POOL * 2 } else { 0 })
        .build()
}

fn request(query: &str) -> ExpandRequest<'_> {
    ExpandRequest {
        k_clusters: 4,
        top_k: 40,
        ..ExpandRequest::new(query)
    }
}

#[derive(Debug)]
struct Outcome {
    sessions: usize,
    zipf_s: f64,
    requests: usize,
    shared_hits: u64,
    shared_misses: u64,
    per_session_hits: usize,
    p50_ns: u128,
}

impl Outcome {
    fn shared_rate(&self) -> f64 {
        self.shared_hits as f64 / self.requests as f64
    }

    fn per_session_rate(&self) -> f64 {
        self.per_session_hits as f64 / self.requests as f64
    }
}

/// Replays `sessions` interleaved Zipf(s) query streams against a fresh
/// engine, round-robin (session 0's i-th request, session 1's i-th, …) —
/// the arrival order a fair multi-user load balancer produces.
fn replay(
    spec: &CorpusSpec,
    queries: &[String],
    sessions: usize,
    zipf_s: f64,
    per_session: usize,
) -> Outcome {
    let engine = fresh_engine(spec, true);
    let zipf = ZipfSampler::new(queries.len(), zipf_s);
    let mut rngs: Vec<SplitMix64> = (0..sessions)
        .map(|s| SplitMix64::seed_from_u64(0x5CA1AB1E ^ (s as u64) << 8 ^ zipf_s.to_bits()))
        .collect();
    // The retired per-session policy: one entry per session, keyed by the
    // session's previous draw.
    let mut last: Vec<Option<usize>> = vec![None; sessions];
    let mut per_session_hits = 0usize;
    let mut lat_ns: Vec<u128> = Vec::with_capacity(sessions * per_session);

    for _ in 0..per_session {
        for s in 0..sessions {
            let pick = zipf.sample(&mut rngs[s]);
            if last[s] == Some(pick) {
                per_session_hits += 1;
            }
            last[s] = Some(pick);
            let req = request(&queries[pick]);
            let t = Instant::now();
            let resp = engine.expand(black_box(&req));
            lat_ns.push(t.elapsed().as_nanos());
            engine.recycle(resp);
        }
    }

    lat_ns.sort_unstable();
    let stats = engine.cache_stats();
    Outcome {
        sessions,
        zipf_s,
        requests: sessions * per_session,
        shared_hits: stats.hits,
        shared_misses: stats.misses,
        per_session_hits,
        p50_ns: lat_ns[lat_ns.len() / 2],
    }
}

fn main() {
    let mut h = Harness::new("scalability");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    let queries: Vec<String> = (0..POOL).map(|r| format!("w{r}")).collect();

    // Micro cases: the two serving paths the replay amortises between.
    {
        let warmed = fresh_engine(&spec, true);
        let req = request(&queries[0]);
        warmed.recycle(warmed.expand(&req)); // publish the pipeline
        h.bench("expand/warm_shared_hit", || {
            let r = warmed.expand(black_box(&req));
            warmed.recycle(r);
        });
        assert!(warmed.cache_stats().hits > 0);

        let uncached = fresh_engine(&spec, false);
        h.bench("expand/rebuild_no_cache", || {
            let r = uncached.expand(black_box(&req));
            uncached.recycle(r);
        });
    }

    // The grid: session count × skew.
    let (session_grid, zipf_grid, per_session): (&[usize], &[f64], usize) = if test_mode {
        (&[1, 2, 4], &[1.0], 12)
    } else {
        (&[1, 2, 4, 8], &[0.0, 1.0, 1.5], 48)
    };

    let mut outcomes: Vec<Outcome> = Vec::new();
    for &zipf_s in zipf_grid {
        for &sessions in session_grid {
            let o = replay(&spec, &queries, sessions, zipf_s, per_session);
            println!(
                "scalability/replay sessions={:<2} zipf={:<3} shared {:>5.1}% vs per-session {:>5.1}% hits, p50 {:>9} ({} requests)",
                o.sessions,
                o.zipf_s,
                100.0 * o.shared_rate(),
                100.0 * o.per_session_rate(),
                format!("{:.1} µs", o.p50_ns as f64 / 1_000.0),
                o.requests,
            );
            assert_eq!(
                o.shared_hits + o.shared_misses,
                o.requests as u64,
                "every request probes the cache"
            );
            // The acceptance claim: with ≥ 2 concurrent sessions the
            // shared cache strictly beats per-session caching — distinct
            // queries are built once per process, not once per session.
            if o.sessions >= 2 {
                assert!(
                    o.shared_hits > o.per_session_hits as u64,
                    "shared cache must beat per-session caching: {o:?}"
                );
            }
            outcomes.push(o);
        }
    }

    if let Ok(path) = std::env::var("QEC_BENCH_SCALABILITY_JSON") {
        use std::io::Write;
        let mut out = std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        writeln!(out, "[").expect("write json");
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(
                out,
                "  {{\"sessions\":{},\"zipf\":{},\"requests\":{},\"shared_hit_rate\":{:.4},\"per_session_hit_rate\":{:.4},\"p50_ns\":{}}}{}",
                o.sessions,
                o.zipf_s,
                o.requests,
                o.shared_rate(),
                o.per_session_rate(),
                o.p50_ns,
                if i + 1 < outcomes.len() { "," } else { "" },
            )
            .expect("write json");
        }
        writeln!(out, "]").expect("write json");
        println!("# wrote {path}");
    }

    h.finish();
}
