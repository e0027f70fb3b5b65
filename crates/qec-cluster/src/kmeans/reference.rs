//! The sparse-merge k-means the dense kernel replaced, kept verbatim as
//! the oracle of the differential tests: every similarity re-derives both
//! norms and merge-walks the sparse centroid, every update step rebuilds
//! the sums with [`SparseVec::add_assign`]. The only addition is the count
//! of empty-cluster reseeds, so the tests can assert they reach that arm.

use super::KMeansConfig;
use crate::assign::ClusterAssignment;
use crate::rng::SplitMix64;
use crate::vector::{cosine_similarity, SparseVec};

/// Runs cosine k-means over `vectors` for all `max_iters` unless an
/// iteration changes nothing; returns the assignment and the number of
/// empty-cluster reseeds.
pub(crate) fn kmeans(vectors: &[SparseVec], config: &KMeansConfig) -> (ClusterAssignment, usize) {
    let n = vectors.len();
    if n == 0 {
        return (ClusterAssignment::from_membership(&[]), 0);
    }
    let k = config.k.max(1);
    if n <= k {
        let membership: Vec<u32> = (0..n as u32).collect();
        return (ClusterAssignment::from_membership(&membership), 0);
    }
    let mut reseeds = 0;

    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let mut centroids = seed_plus_plus(vectors, k, &mut rng);
    let mut membership = vec![0u32; n];

    for _ in 0..config.max_iters {
        // Assignment step.
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let best = nearest_centroid(v, &centroids);
            if membership[i] != best {
                membership[i] = best;
                changed = true;
            }
        }

        // Update step: centroid = normalised mean of members.
        let mut sums: Vec<SparseVec> = vec![SparseVec::zero(); k];
        let mut counts = vec![0usize; k];
        for (i, v) in vectors.iter().enumerate() {
            sums[membership[i] as usize].add_assign(v);
            counts[membership[i] as usize] += 1;
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an empty cluster with the point least similar to
                // its current assignment's centroid.
                let farthest = (0..n)
                    .min_by(|&a, &b| {
                        let sa = cosine_similarity(&vectors[a], &centroids[membership[a] as usize]);
                        let sb = cosine_similarity(&vectors[b], &centroids[membership[b] as usize]);
                        sa.partial_cmp(&sb).expect("similarities are finite")
                    })
                    .expect("n > 0");
                centroids[c] = vectors[farthest].clone();
                membership[farthest] = c as u32;
                changed = true;
                reseeds += 1;
            } else {
                let mut mean = sums[c].clone();
                mean.scale(1.0 / counts[c] as f64);
                centroids[c] = mean;
            }
        }

        if !changed {
            break;
        }
    }

    (ClusterAssignment::from_membership(&membership), reseeds)
}

/// Index of the centroid most cosine-similar to `v`; ties break on lower
/// index. Zero vectors go to centroid 0.
fn nearest_centroid(v: &SparseVec, centroids: &[SparseVec]) -> u32 {
    if v.is_zero() {
        return 0;
    }
    let mut best = 0u32;
    let mut best_sim = -1.0;
    for (c, centroid) in centroids.iter().enumerate() {
        let sim = cosine_similarity(v, centroid);
        if sim > best_sim {
            best_sim = sim;
            best = c as u32;
        }
    }
    best
}

/// k-means++ seeding with cosine distance `1 − sim`.
fn seed_plus_plus(vectors: &[SparseVec], k: usize, rng: &mut SplitMix64) -> Vec<SparseVec> {
    let n = vectors.len();
    let first = rng.below(n);
    let mut centroids: Vec<SparseVec> = vec![vectors[first].clone()];
    let mut min_dist: Vec<f64> = vectors
        .iter()
        .map(|v| 1.0 - cosine_similarity(v, &centroids[0]))
        .collect();

    while centroids.len() < k {
        let total: f64 = min_dist.iter().map(|d| d * d).sum();
        let chosen = if total <= f64::EPSILON {
            // All points coincide with existing centroids; pick uniformly.
            rng.below(n)
        } else {
            let mut target = rng.f64_below(total);
            let mut pick = n - 1;
            for (i, d) in min_dist.iter().enumerate() {
                target -= d * d;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.push(vectors[chosen].clone());
        for (i, v) in vectors.iter().enumerate() {
            let d = 1.0 - cosine_similarity(v, centroids.last().expect("just pushed"));
            if d < min_dist[i] {
                min_dist[i] = d;
            }
        }
    }
    centroids
}
