//! Sharded scatter/gather serving vs the single-engine path: cold-build
//! throughput × shard count over a large synthetic corpus.
//!
//! The workload is the sharding tentpole's target shape: a corpus large
//! enough that retrieval + ranking dominate the cold build (dense
//! head-rank queries, small `top_k`), served with the cache **disabled**
//! so every request pays the full retrieve → rank (→ merge) pipeline.
//! Every configuration runs the same retrieve + rank kernel: the 1-shard
//! one is the plain [`QecEngine`](qec_engine::QecEngine) path running it
//! over the whole corpus on the calling thread; sharded ones scatter it
//! over the shards' corpus slices on the worker pool and k-way merge the
//! per-shard top-K lists. The grid therefore measures scatter: what
//! splitting the work across the pool buys, net of dispatch and merge.
//!
//! **Parity is asserted in every mode** (smoke mode included, which is
//! what CI runs): each shard count's responses must be bit-identical to
//! the single engine's. Timed mode reports each shard count's speed-up
//! over one shard; it depends on the machine's core count (printed with
//! the corpus shape), so no ratio is asserted.
//!
//! Set `QEC_BENCH_SHARDING_JSON=/path/file.json` to write the grid as a
//! JSON array (see `BENCH_sharding.json` at the repo root).

use std::hint::black_box;

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec};
use qec_engine::{ExpandRequest, ExpandResponse, ShardedEngine, ShardedEngineBuilder};
use qec_index::Corpus;

/// Head-rank queries: dense result sets whose ranking cost dwarfs the
/// (identical on both paths) clustering of the small top-K arena.
const QUERIES: &[&str] = &["w0", "w1", "w2", "w3"];

/// Shard counts under test; 1 is the plain single-engine baseline.
const SHARD_GRID: &[usize] = &[1, 2, 4, 8];

fn corpus_spec(test_mode: bool) -> CorpusSpec {
    if test_mode {
        CorpusSpec {
            num_docs: 4_000,
            vocab: 2_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    } else {
        // Multi-million-doc corpus with short documents: the head query
        // matches ~45% of it, so cold builds are retrieval/ranking-bound.
        CorpusSpec {
            num_docs: 2_000_000,
            vocab: 10_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    }
}

// The pool keeps its auto-probed size (the machine's parallelism):
// over-subscribing a small runner with a pinned thread count would charge
// the scatter path pure context-switch overhead, and under-sizing a large
// one would hide its scatter parallelism.
fn engine(corpus: Corpus, shards: usize) -> ShardedEngine {
    ShardedEngineBuilder::from_corpus(corpus)
        .num_shards(shards)
        .cache_capacity(0) // every request pays the full cold build
        .build()
}

fn request(query: &str) -> ExpandRequest<'_> {
    ExpandRequest {
        k_clusters: 4,
        top_k: 100,
        ..ExpandRequest::new(query)
    }
}

/// Serves every query once, cold; returns the responses for parity
/// checks.
fn serve_round(engine: &ShardedEngine) -> Vec<ExpandResponse> {
    QUERIES
        .iter()
        .map(|q| engine.expand(black_box(&request(q))))
        .collect()
}

fn main() {
    let mut h = Harness::new("sharding");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    println!(
        "# corpus: {} docs × {} tokens (vocab {}); cores available: {}",
        spec.num_docs,
        spec.doc_len,
        spec.vocab,
        qec_core::default_parallelism()
    );
    let corpus = synth_corpus(&spec);

    // Parity first, in every mode: every shard count must serve every
    // query bit-identical to the single engine.
    let baseline = engine(corpus.clone(), 1);
    let expected = serve_round(&baseline);
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for &shards in SHARD_GRID {
        let sharded = engine(corpus.clone(), shards);
        if shards > 1 {
            for (resp, want) in serve_round(&sharded).iter().zip(&expected) {
                assert!(
                    resp.clusters() == want.clusters()
                        && resp.stats.results == want.stats.results
                        && resp.stats.candidates == want.stats.candidates,
                    "shards={shards}: sharded response diverged from the single engine"
                );
            }
            println!("sharding/parity shards={shards} == single engine: ok");
        }
        h.bench(&format!("cold_round/shards={shards}"), || {
            serve_round(&sharded)
        });
        if !test_mode {
            let base = h
                .median_of("cold_round/shards=1")
                .expect("baseline timed first");
            let this = h
                .median_of(&format!("cold_round/shards={shards}"))
                .expect("case just timed");
            let speedup = base / this;
            println!("sharding/speedup shards={shards}: {speedup:.2}x vs 1 shard");
            speedups.push((shards, speedup));
        }
    }

    if !test_mode {
        if let Ok(path) = std::env::var("QEC_BENCH_SHARDING_JSON") {
            use std::io::Write;
            let mut f =
                std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
            writeln!(f, "[").expect("write json");
            for (i, (shards, speedup)) in speedups.iter().enumerate() {
                let ns = h
                    .median_of(&format!("cold_round/shards={shards}"))
                    .unwrap_or(f64::NAN)
                    / QUERIES.len() as f64;
                writeln!(
                    f,
                    "  {{\"shards\":{},\"ns_per_request\":{:.1},\"speedup_vs_1\":{:.3}}}{}",
                    shards,
                    ns,
                    speedup,
                    if i + 1 < speedups.len() { "," } else { "" },
                )
                .expect("write json");
            }
            writeln!(f, "]").expect("write json");
            println!("# wrote {path}");
        }
    }

    h.finish();
}
