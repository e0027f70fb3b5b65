//! The cold-build kernels over the seeded synthetic generators, at the
//! paper's result-list sizes (top-30/100/500): TF-vector extraction,
//! cosine k-means driven through the [`Clusterer`] trait the serving
//! facade uses (`k8`, plus the serving default `top100/k5`), and
//! [`ExpansionArena::build`] as the engine calls it (ranked weights,
//! default [`ArenaConfig`]). `cold_build/*` is the whole cold build both
//! ways: `staged` chains those three per-stage front-ends (vectors →
//! clusterer → arena, each reading the term rows for itself), `fused` is
//! the serving path (one [`TermMatrix`] gathered, read by the clusterer
//! and the arena). Plus the arena generator itself (the cost of
//! synthesising one benchmark instance).

use qec_bench::{synth_arena, synth_corpus, ArenaSpec, CorpusSpec, Harness};
use qec_cluster::{doc_tf_vector, Clusterer, KMeansClusterer, KMeansConfig, SparseVec};
use qec_core::{ArenaConfig, ExpansionArena};
use qec_index::{DocId, TermMatrix};
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("cluster");

    // A corpus with realistic Zipfian vocabulary for the vector work.
    let corpus = synth_corpus(&CorpusSpec {
        num_docs: 2_000,
        vocab: 4_000,
        doc_len: 40,
        ..Default::default()
    });
    let clusterer = KMeansClusterer(KMeansConfig {
        seed: 11,
        ..Default::default()
    });

    for n in [30usize, 100, 500] {
        // The "result list": the first n docs stand in for ranked hits.
        let docs: Vec<DocId> = (0..n as u32).map(DocId).collect();
        h.bench(&format!("tf_vectors/top{n}"), || {
            let vectors: Vec<SparseVec> = docs
                .iter()
                .map(|&d| doc_tf_vector(black_box(&corpus), d))
                .collect();
            black_box(vectors.len())
        });

        let vectors: Vec<SparseVec> = docs.iter().map(|&d| doc_tf_vector(&corpus, d)).collect();
        h.bench(&format!("kmeans/top{n}/k8"), || {
            black_box(clusterer.cluster(black_box(&vectors), 8))
        });
        if n == 100 {
            h.bench("kmeans/top100/k5", || {
                black_box(clusterer.cluster(black_box(&vectors), 5))
            });
        }

        // Rank-decaying scores stand in for the retrieval ranking.
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64).sqrt()).collect();
        let config = ArenaConfig::default();
        h.bench(&format!("arena_build/top{n}"), || {
            let arena = ExpansionArena::build(
                black_box(&corpus),
                black_box(&docs),
                Some(&weights),
                &[],
                &config,
            );
            black_box(arena.num_candidates())
        });

        h.bench(&format!("cold_build/top{n}/staged"), || {
            let vectors: Vec<SparseVec> = docs
                .iter()
                .map(|&d| doc_tf_vector(black_box(&corpus), d))
                .collect();
            let assignment = clusterer.cluster(&vectors, 5);
            let arena = ExpansionArena::build(&corpus, &docs, Some(&weights), &[], &config);
            black_box((assignment.num_clusters(), arena.num_candidates()))
        });
        h.bench(&format!("cold_build/top{n}/fused"), || {
            let matrix = TermMatrix::gather(black_box(&corpus), &docs);
            let assignment = clusterer.cluster_matrix(&matrix, 5);
            let arena =
                ExpansionArena::from_matrix(&corpus, &matrix, &docs, Some(&weights), &[], &config);
            black_box((assignment.num_clusters(), arena.num_candidates()))
        });
    }

    // Cost of generating one synthetic expansion arena (what every other
    // suite pays per workload).
    for n in [100usize, 500] {
        let spec = ArenaSpec::top(n, 7);
        h.bench(&format!("synth_arena/top{n}"), || {
            black_box(synth_arena(black_box(&spec)).0.num_candidates())
        });
    }

    h.finish();
}
