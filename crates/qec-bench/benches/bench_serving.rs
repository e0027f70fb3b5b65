//! Batched serving over the persistent worker pool vs per-request
//! serving: warm Zipf replay throughput × batch size × skew.
//!
//! One engine serves the **identical warmed request stream** (every key
//! pre-built into the shared cache, so the comparison isolates dispatch +
//! expansion — the steady-state serving cost) in two modes:
//!
//! * `seq_expand` — one `expand` per request, sequential per-cluster
//!   expansion on the calling thread (4 tasks is below the engine's
//!   pooling threshold of 8): the single-thread baseline.
//! * `batch=N/pooled` — `try_expand_batch_into` in chunks of `N`: one flat
//!   task set per chunk, spread over the **persistent pool** (worker
//!   threads spawned once at engine build) from `N = 2` up; `batch=1` is
//!   the same 4 tasks served inline through the batch entry point.
//!
//! The suite asserts, in `--test` smoke mode too, that batched pooled
//! responses are **bit-identical** to sequential serving of the same
//! stream.
//!
//! Set `QEC_BENCH_SERVING_JSON=/path/file.json` to write the grid as a
//! JSON array (see `BENCH_serving.json` at the repo root).

use std::hint::black_box;

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec, ZipfSampler};
use qec_cluster::SplitMix64;
use qec_engine::{EngineBuilder, EngineError, ExpandRequest, ExpandResponse, QecEngine};

/// Shared query pool: head ranks of the synthetic Zipf vocabulary, so
/// every query retrieves a dense, clusterable result set.
const POOL: usize = 24;
/// Requests per replayed stream (per timed iteration).
const STREAM: usize = 64;

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

/// Worker threads of the pooled shape. Pinned (rather than auto-probed)
/// so the grid means the same thing on every machine.
const WORKERS: usize = 4;

fn request(query: &str) -> ExpandRequest<'_> {
    ExpandRequest {
        k_clusters: 4,
        top_k: 40,
        ..ExpandRequest::new(query)
    }
}

/// Pre-generates one Zipf(s) request stream over the query pool.
fn stream(zipf_s: f64) -> Vec<usize> {
    let zipf = ZipfSampler::new(POOL, zipf_s);
    let mut rng = SplitMix64::seed_from_u64(0xBA7C4 ^ zipf_s.to_bits());
    (0..STREAM).map(|_| zipf.sample(&mut rng)).collect()
}

/// Warms every query of the pool into an engine's shared cache.
fn warm(engine: &QecEngine, queries: &[String]) {
    for q in queries {
        let r = engine.expand(&request(q));
        engine.recycle(r);
    }
}

/// Serves the whole stream through per-request `expand` calls.
fn serve_sequentially(engine: &QecEngine, queries: &[String], picks: &[usize]) {
    for &p in picks {
        let r = engine.expand(black_box(&request(&queries[p])));
        engine.recycle(r);
    }
}

/// Serves the whole stream through `try_expand_batch_into` in chunks of
/// `batch`, reusing `reqs`/`out` across chunks.
fn serve_batched(
    engine: &QecEngine,
    queries: &[String],
    picks: &[usize],
    batch: usize,
    out: &mut Vec<Result<ExpandResponse, EngineError>>,
) {
    for chunk in picks.chunks(batch) {
        let reqs: Vec<ExpandRequest<'_>> = chunk.iter().map(|&p| request(&queries[p])).collect();
        engine.try_expand_batch_into(black_box(&reqs), out);
        for r in out.drain(..) {
            engine.recycle(r.expect("no bound, no deadline"));
        }
    }
}

#[derive(Debug)]
struct Outcome {
    zipf_s: f64,
    mode: String,
    batch: usize,
    ns_per_request: f64,
}

fn main() {
    let mut h = Harness::new("serving");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    let queries: Vec<String> = (0..POOL).map(|r| format!("w{r}")).collect();
    let engine = EngineBuilder::from_corpus(synth_corpus(&spec))
        .cache_capacity(POOL * 2)
        .pool_threads(WORKERS)
        .build();
    warm(&engine, &queries);

    // Parity first, in every mode: batched pooled serving must be
    // bit-identical to sequential serving of the same stream.
    {
        let picks = stream(1.0);
        let mut out = Vec::new();
        for batch in [1, 3, 8] {
            for chunk in picks.chunks(batch) {
                let reqs: Vec<ExpandRequest<'_>> =
                    chunk.iter().map(|&p| request(&queries[p])).collect();
                engine.try_expand_batch_into(&reqs, &mut out);
                for (resp, &p) in out.iter().zip(chunk) {
                    let resp = resp.as_ref().expect("no bound, no deadline");
                    let want = engine.expand(&request(&queries[p]));
                    assert!(
                        resp.clusters() == want.clusters(),
                        "batch={batch}: batched response diverged from sequential for {:?}",
                        queries[p]
                    );
                    assert!(resp.stats.arena_cache_hit, "warm replay must hit");
                    engine.recycle(want);
                }
                for r in out.drain(..) {
                    engine.recycle(r.expect("no bound, no deadline"));
                }
            }
        }
        println!("serving/parity batched == sequential across batch sizes: ok");
    }

    let (zipf_grid, batch_grid): (&[f64], &[usize]) = if test_mode {
        (&[1.0], &[1, 8])
    } else {
        (&[0.0, 1.0, 1.5], &[1, 2, 4, 8, 16, 32])
    };

    let mut outcomes: Vec<Outcome> = Vec::new();
    for &zipf_s in zipf_grid {
        let picks = stream(zipf_s);
        h.bench(&format!("zipf={zipf_s}/seq_expand"), || {
            serve_sequentially(&engine, &queries, &picks)
        });
        let mut out = Vec::new();
        for &batch in batch_grid {
            h.bench(&format!("zipf={zipf_s}/batch={batch}/pooled"), || {
                serve_batched(&engine, &queries, &picks, batch, &mut out)
            });
        }

        if !test_mode {
            let per_req = |case: &str| {
                h.median_of(case)
                    .map(|ns| ns / STREAM as f64)
                    .unwrap_or(f64::NAN)
            };
            let seq_ns = per_req(&format!("zipf={zipf_s}/seq_expand"));
            outcomes.push(Outcome {
                zipf_s,
                mode: "seq_expand".into(),
                batch: 1,
                ns_per_request: seq_ns,
            });
            for &batch in batch_grid {
                let ns = per_req(&format!("zipf={zipf_s}/batch={batch}/pooled"));
                println!(
                    "serving/summary zipf={zipf_s} batch={batch}: {:.1} µs/req pooled vs {:.1} µs/req sequential ({:.2}x)",
                    ns / 1_000.0,
                    seq_ns / 1_000.0,
                    seq_ns / ns,
                );
                outcomes.push(Outcome {
                    zipf_s,
                    mode: "pooled".into(),
                    batch,
                    ns_per_request: ns,
                });
            }
        }
    }

    if let Ok(path) = std::env::var("QEC_BENCH_SERVING_JSON") {
        use std::io::Write;
        let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        writeln!(f, "[").expect("write json");
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(
                f,
                "  {{\"zipf\":{},\"mode\":\"{}\",\"batch\":{},\"ns_per_request\":{:.1}}}{}",
                o.zipf_s,
                o.mode,
                o.batch,
                o.ns_per_request,
                if i + 1 < outcomes.len() { "," } else { "" },
            )
            .expect("write json");
        }
        writeln!(f, "]").expect("write json");
        println!("# wrote {path}");
    }

    h.finish();
}
