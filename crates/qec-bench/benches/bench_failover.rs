//! Replicated scatter/gather serving with a dead replica: cold-build
//! throughput of 8 shards × 2 replicas, healthy vs "replica 0 of every
//! shard is down" (the moral equivalent of one failed machine in a
//! striped deployment, injected through the
//! `shard.replica.retrieve.0` failpoint).
//!
//! The workload is `bench_sharding`'s: dense head-rank queries over a
//! short-document corpus, cache disabled so every request pays the full
//! scatter → rank → merge pipeline. The dead-replica rounds run after a
//! warm-up that lets every shard's replica-0 circuit breaker open
//! (threshold failures, fast injected errors), so what is measured is the
//! **steady state** of a half-dead deployment: selection skips the dead
//! replica, surviving replicas absorb the load, and the only recurring
//! overhead is the occasional half-open probe.
//!
//! **Parity is asserted in every mode** (smoke mode included, which is
//! what CI runs): healthy and dead-replica responses must both be
//! bit-identical to the single unreplicated engine's, with **zero shards
//! omitted** — failover must never buy throughput with partial answers.
//! Timed mode additionally asserts the acceptance claim: one dead replica
//! costs at most 20% of healthy throughput.
//!
//! Set `QEC_BENCH_FAILOVER_JSON=/path/file.json` to write the result as
//! JSON (see `BENCH_failover.json` at the repo root).

use std::hint::black_box;

use qec_bench::harness::Harness;
use qec_bench::synth::{synth_corpus, CorpusSpec};
use qec_engine::{ExpandRequest, ExpandResponse, ShardedEngine, ShardedEngineBuilder};
use qec_failpoint::{arm, FailAction};
use qec_index::Corpus;

const QUERIES: &[&str] = &["w0", "w1", "w2", "w3"];
const SHARDS: usize = 8;
const REPLICAS: usize = 2;

fn corpus_spec(test_mode: bool) -> CorpusSpec {
    if test_mode {
        CorpusSpec {
            num_docs: 4_000,
            vocab: 2_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    } else {
        // Retrieval/ranking-bound cold builds, sized down from
        // bench_sharding's grid (one topology, but 16 replica engines).
        CorpusSpec {
            num_docs: 400_000,
            vocab: 10_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    }
}

fn replicated(corpus: Corpus) -> ShardedEngine {
    ShardedEngineBuilder::from_corpus(corpus)
        .num_shards(SHARDS)
        .replicas(REPLICAS)
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

/// Serves every query once, cold; asserts completeness on every response.
fn serve_round(engine: &ShardedEngine, label: &str) -> Vec<ExpandResponse> {
    QUERIES
        .iter()
        .map(|q| {
            let resp = engine.expand(black_box(&request(q)));
            assert_eq!(
                resp.stats.shards_omitted, 0,
                "{label}: failover must serve whole responses, never partial ones"
            );
            resp
        })
        .collect()
}

fn assert_parity(got: &[ExpandResponse], want: &[ExpandResponse], label: &str) {
    for (resp, baseline) in got.iter().zip(want) {
        assert!(
            resp.clusters() == baseline.clusters()
                && resp.stats.results == baseline.stats.results
                && resp.stats.candidates == baseline.stats.candidates,
            "{label}: response diverged from the single engine"
        );
    }
    println!("failover/parity {label} == single engine: ok");
}

fn main() {
    let mut h = Harness::new("failover");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    println!(
        "# corpus: {} docs × {} tokens (vocab {}), {SHARDS} shards × {REPLICAS} replicas",
        spec.num_docs, spec.doc_len, spec.vocab
    );
    let corpus = synth_corpus(&spec);

    let baseline = ShardedEngineBuilder::from_corpus(corpus.clone())
        .num_shards(1)
        .cache_capacity(0)
        .build();
    let expected = serve_round(&baseline, "single");
    let engine = replicated(corpus);

    assert_parity(&serve_round(&engine, "healthy"), &expected, "healthy");
    h.bench("cold_round/healthy", || serve_round(&engine, "healthy"));

    // Kill replica 0 of every shard for the rest of the run, then warm
    // until every breaker has opened (default threshold: 3 consecutive
    // failures) so the timed rounds measure the steady state, not the
    // detection transient.
    let _dead = arm("shard.replica.retrieve.0", FailAction::Error);
    for _ in 0..4 {
        serve_round(&engine, "dead-replica warmup");
    }
    assert_parity(
        &serve_round(&engine, "dead-replica"),
        &expected,
        "dead-replica",
    );
    h.bench("cold_round/dead_replica", || {
        serve_round(&engine, "dead-replica")
    });
    let stats = engine.stats();
    assert!(
        stats.shards.iter().all(|s| s.omissions == 0),
        "no shard was ever omitted"
    );
    assert!(
        stats
            .shards
            .iter()
            .all(|s| s.replicas[1].retrievals > s.replicas[0].retrievals),
        "surviving replicas absorbed the load"
    );

    if !test_mode {
        let healthy = h
            .median_of("cold_round/healthy")
            .expect("healthy round timed");
        let dead = h
            .median_of("cold_round/dead_replica")
            .expect("dead round timed");
        let ratio = dead / healthy;
        println!("failover/one_dead_replica: {ratio:.3}x healthy cost");
        assert!(
            ratio <= 1.2,
            "acceptance: one dead replica may cost at most 20% throughput \
             at {SHARDS} shards × {REPLICAS} replicas, measured {ratio:.3}x"
        );

        if let Ok(path) = std::env::var("QEC_BENCH_FAILOVER_JSON") {
            use std::io::Write;
            let per_req = QUERIES.len() as f64;
            let mut f =
                std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
            writeln!(
                f,
                "{{\"shards\":{SHARDS},\"replicas\":{REPLICAS},\
                 \"healthy_ns_per_request\":{:.1},\
                 \"dead_replica_ns_per_request\":{:.1},\
                 \"dead_over_healthy\":{ratio:.3}}}",
                healthy / per_req,
                dead / per_req,
            )
            .expect("write json");
            println!("# wrote {path}");
        }
    }

    h.finish();
}
