//! Clustering substrate for the QEC reproduction.
//!
//! The paper clusters query results before expansion (§C of the appendix):
//! *"We adopt k-means for result clustering. Each result is modeled as a
//! vector whose components are features in the results and the weight of
//! each component is the TF of the feature. The similarity of two results is
//! the cosine similarity of the vectors."* This crate implements exactly
//! that: sparse TF vectors over the corpus vocabulary, cosine similarity,
//! and a deterministic seeded k-means with k-means++ initialisation.
//!
//! Cluster-quality metrics (purity, NMI) are included for tests and for the
//! simulated user-study judges — the algorithms themselves never see them.

mod assign;
mod clusterer;
mod kmeans;
mod quality;
mod rng;
mod vector;

pub use assign::ClusterAssignment;
pub use clusterer::{Clusterer, KMeansClusterer};
pub use kmeans::{kmeans, KMeansConfig};
pub use quality::{normalized_mutual_information, purity};
pub use rng::SplitMix64;
pub use vector::{cosine_similarity, doc_tf_vector, tf_vectors, SparseVec};
