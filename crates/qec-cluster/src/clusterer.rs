//! The [`Clusterer`] strategy trait: pluggable result-clustering behind the
//! serving facade.
//!
//! The paper adopts k-means (appendix §C) but treats the clustering method
//! as a replaceable component — any partitioning of the result list yields
//! a valid QEC instance per cluster. `qec-engine` drives clustering through
//! this trait so alternative clusterers (hierarchical, DBSCAN-style,
//! label-driven test doubles) plug in without touching the facade.

use crate::assign::ClusterAssignment;
use crate::kmeans::{kmeans, kmeans_matrix, KMeansConfig};
use crate::vector::{tf_vectors, SparseVec};
use qec_index::TermMatrix;

/// A pluggable result-clustering strategy.
///
/// `Send + Sync` supertraits let an engine own a boxed clusterer while
/// remaining shareable across serving threads; clusterers are plain
/// configuration data.
pub trait Clusterer: Send + Sync {
    /// Short stable identifier (used in serving stats).
    fn name(&self) -> &'static str;

    /// Partitions `vectors` into at most `k` clusters (`k` is the paper's
    /// user-chosen granularity — an upper bound, not a promise).
    fn cluster(&self, vectors: &[SparseVec], k: usize) -> ClusterAssignment;

    /// [`cluster`](Self::cluster) over the TF vectors of `matrix`'s rows —
    /// how the serving path, which gathers a request's term occurrences
    /// once, asks for a clustering. The provided body builds the vectors;
    /// a clusterer that can read the matrix directly overrides it and must
    /// return the same assignment.
    fn cluster_matrix(&self, matrix: &TermMatrix, k: usize) -> ClusterAssignment {
        self.cluster(&tf_vectors(matrix), k)
    }
}

/// [`Clusterer`] wrapping the deterministic cosine k-means of
/// [`kmeans()`](crate::kmeans()). The per-request `k` overrides the config's; seed
/// and iteration cap come from the stored config.
#[derive(Debug, Clone, Default)]
pub struct KMeansClusterer(pub KMeansConfig);

impl Clusterer for KMeansClusterer {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn cluster(&self, vectors: &[SparseVec], k: usize) -> ClusterAssignment {
        kmeans(vectors, &self.with_k(k))
    }

    fn cluster_matrix(&self, matrix: &TermMatrix, k: usize) -> ClusterAssignment {
        kmeans_matrix(matrix, &self.with_k(k))
    }
}

impl KMeansClusterer {
    fn with_k(&self, k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            ..self.0.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(entries: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_entries(entries.to_vec())
    }

    #[test]
    fn kmeans_clusterer_matches_direct_call() {
        let vectors: Vec<SparseVec> = (0..12)
            .map(|i| {
                if i < 6 {
                    v(&[(0, 2.0 + i as f64 * 0.1)])
                } else {
                    v(&[(9, 1.0 + i as f64 * 0.1)])
                }
            })
            .collect();
        let config = KMeansConfig {
            seed: 17,
            ..Default::default()
        };
        let via_trait = KMeansClusterer(config.clone()).cluster(&vectors, 2);
        let direct = kmeans(&vectors, &KMeansConfig { k: 2, ..config });
        assert_eq!(via_trait, direct);
        assert_eq!(via_trait.num_clusters(), 2);
    }

    #[test]
    fn per_request_k_overrides_config_k() {
        let vectors: Vec<SparseVec> = (0..10u32).map(|i| v(&[(i % 4, 1.0 + i as f64)])).collect();
        let c = KMeansClusterer(KMeansConfig {
            k: 9,
            seed: 3,
            ..Default::default()
        });
        assert!(c.cluster(&vectors, 2).num_clusters() <= 2);
    }

    #[test]
    fn matrix_front_end_equals_the_vector_front_end() {
        use crate::rng::SplitMix64;
        use qec_index::{CorpusBuilder, DocId, DocumentSpec};
        let mut rng = SplitMix64::seed_from_u64(0x15_fe);
        let mut b = CorpusBuilder::new();
        for i in 0..90 {
            let mut body = format!("shared topic{}", i % 4);
            for _ in 0..rng.below(9) {
                body.push_str(&format!(" w{}", rng.below(25)));
            }
            b.add_document(DocumentSpec::text("", body));
        }
        b.add_document(DocumentSpec::text("", "the of and"));
        let corpus = b.build();
        // A ranked list is in no particular id order.
        let mut docs: Vec<DocId> = corpus.all_docs().collect();
        for i in (1..docs.len()).rev() {
            docs.swap(i, rng.below(i + 1));
        }
        let matrix = TermMatrix::gather(&corpus, &docs);
        let vectors = tf_vectors(&matrix);
        for (k, seed) in [(1, 1), (2, 2), (5, 3), (5, 4), (8, 5), (90, 6), (91, 7)] {
            let c = KMeansClusterer(KMeansConfig {
                seed,
                ..Default::default()
            });
            assert_eq!(
                c.cluster_matrix(&matrix, k),
                c.cluster(&vectors, k),
                "k {k} seed {seed}"
            );
        }
    }

    /// A label-driven double: proves non-k-means clusterers satisfy the
    /// trait (what the engine relies on for testability).
    struct RoundRobin;

    impl Clusterer for RoundRobin {
        fn name(&self) -> &'static str {
            "round-robin"
        }

        fn cluster(&self, vectors: &[SparseVec], k: usize) -> ClusterAssignment {
            let k = k.max(1) as u32;
            let membership: Vec<u32> = (0..vectors.len() as u32).map(|i| i % k).collect();
            ClusterAssignment::from_membership(&membership)
        }
    }

    #[test]
    fn custom_clusterers_plug_in() {
        let vectors: Vec<SparseVec> = (0..7u32).map(|i| v(&[(i, 1.0)])).collect();
        let boxed: Box<dyn Clusterer> = Box::new(RoundRobin);
        let a = boxed.cluster(&vectors, 3);
        assert_eq!(a.num_clusters(), 3);
        assert_eq!(boxed.name(), "round-robin");
    }
}
