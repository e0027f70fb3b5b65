//! Snapshot boot vs cold in-memory rebuild: how much of the build
//! pipeline does `qec-snapshot` let a restart skip?
//!
//! The cold path re-analyzes every document body (tokenize → intern →
//! posting append) and freezes the index; the snapshot path
//! streams the already-frozen sections back and re-derives only the
//! cheap transposed rows. Document bodies are synthesized **once,
//! outside the timed region**, so the rebuild measurement is the real
//! analyzer + index cost and not string generation.
//!
//! Timing is manual (median of [`REBUILDS`] rebuilds vs [`LOADS`]
//! loads) rather than [`Harness::bench`]: one rebuild of the timed
//! corpus takes seconds, so the harness's batch-sizing warmup would
//! multiply the run time for no extra signal.
//!
//! **Parity is asserted in every mode** (smoke mode included, which is
//! what CI runs): an engine over the loaded corpus must answer dense
//! head queries bit-identically to one over the rebuilt corpus. Timed
//! mode additionally asserts that the load beats the cold rebuild it
//! replaces (4–6× on the 2-core box; the 10× of PR 10 dates from a build
//! twice as slow) and hands both medians, the snapshot's bytes and the
//! corpus's documents to the harness ([`Harness::record`]), which writes
//! them with every other suite's rows.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use qec_bench::harness::{Harness, MEDIAN_NS};
use qec_bench::synth::{synth_bodies, CorpusSpec};
use qec_engine::{EngineBuilder, ExpandRequest, QecEngine};
use qec_index::{Corpus, CorpusBuilder, DocumentSpec};

/// Cold rebuilds timed (each takes seconds on the full corpus).
const REBUILDS: usize = 3;
/// Snapshot loads timed.
const LOADS: usize = 5;
/// Dense head queries for the parity check.
const QUERIES: &[&str] = &["w0", "w1", "w2"];

fn corpus_spec(test_mode: bool) -> CorpusSpec {
    if test_mode {
        CorpusSpec {
            num_docs: 4_000,
            vocab: 2_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    } else {
        // The sharding bench's multi-million-doc shape: short documents,
        // Zipfian vocabulary, so the index mixes dense terms (with their
        // membership bitmaps) and a long sparse tail — the representative
        // snapshot payload.
        CorpusSpec {
            num_docs: 2_000_000,
            vocab: 10_000,
            doc_len: 8,
            ..CorpusSpec::default()
        }
    }
}

/// One cold rebuild: the full analyze → intern → index → freeze pass.
fn rebuild(bodies: &[String]) -> Corpus {
    let mut builder = CorpusBuilder::new();
    for body in bodies {
        builder.add_document(DocumentSpec::text("", body));
    }
    builder.build()
}

fn engine(corpus: Corpus) -> QecEngine {
    EngineBuilder::from_corpus(corpus).build()
}

fn assert_parity(rebuilt: &QecEngine, loaded: &QecEngine) {
    for q in QUERIES {
        let req = ExpandRequest {
            k_clusters: 4,
            top_k: 100,
            ..ExpandRequest::new(q)
        };
        let a = rebuilt.expand(black_box(&req));
        let b = loaded.expand(black_box(&req));
        assert!(
            a.clusters() == b.clusters()
                && a.stats.results == b.stats.results
                && a.stats.candidates == b.stats.candidates,
            "query {q}: snapshot-loaded corpus diverged from the rebuild"
        );
    }
    println!("snapshot/parity loaded == rebuilt: ok");
}

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let mut h = Harness::new("snapshot");
    let test_mode = h.test_mode();
    let spec = corpus_spec(test_mode);
    println!(
        "# corpus: {} docs × {} tokens (vocab {})",
        spec.num_docs, spec.doc_len, spec.vocab
    );
    let bodies = synth_bodies(&spec);
    let path: PathBuf =
        std::env::temp_dir().join(format!("qec-bench-snapshot-{}.qsnap", std::process::id()));

    let rebuilds = if test_mode { 1 } else { REBUILDS };
    let loads = if test_mode { 1 } else { LOADS };

    let mut rebuild_samples = Vec::with_capacity(rebuilds);
    let mut corpus = None;
    for _ in 0..rebuilds {
        let t = Instant::now();
        let c = rebuild(black_box(&bodies));
        rebuild_samples.push(t.elapsed().as_nanos() as f64);
        corpus = Some(black_box(c));
    }
    let corpus = corpus.expect("at least one rebuild");
    let rebuild_ns = median_ns(rebuild_samples);

    let summary = qec_snapshot::save_corpus(&corpus, &path).expect("save snapshot");
    println!(
        "# snapshot: {} bytes, {} postings",
        summary.bytes, summary.total_postings
    );

    let mut load_samples = Vec::with_capacity(loads);
    let mut loaded = None;
    for _ in 0..loads {
        let t = Instant::now();
        let c = qec_snapshot::load_corpus(&path).expect("load snapshot");
        load_samples.push(t.elapsed().as_nanos() as f64);
        loaded = Some(black_box(c));
    }
    let loaded = loaded.expect("at least one load");
    let load_ns = median_ns(load_samples);
    std::fs::remove_file(&path).ok();

    // Parity in every mode: the loaded corpus must serve identically.
    assert_parity(&engine(corpus), &engine(loaded));

    let speedup = rebuild_ns / load_ns;
    println!(
        "snapshot/cold_rebuild {:>10.1} ms   (median of {rebuilds})\n\
         snapshot/load         {:>10.1} ms   (median of {loads})\n\
         snapshot/speedup      {speedup:>10.1}x",
        rebuild_ns / 1e6,
        load_ns / 1e6,
    );

    if !test_mode {
        assert!(
            load_ns < rebuild_ns,
            "a snapshot load must beat the cold rebuild it replaces, \
             measured {speedup:.1}x"
        );
    }
    h.record("cold_rebuild", MEDIAN_NS, rebuild_ns);
    h.record("load", MEDIAN_NS, load_ns);
    h.record("file", "bytes", summary.bytes as f64);
    h.record("corpus", "docs", summary.num_docs as f64);

    h.finish();
}
