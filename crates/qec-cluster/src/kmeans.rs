//! Deterministic cosine k-means with k-means++ seeding.
//!
//! This is the clustering method the paper adopts (appendix §C). The
//! distance is `1 − cosine(x, centroid)`; centroids are the mean of member
//! vectors. All randomness flows from the caller-supplied seed, so
//! experiments are reproducible run-to-run.
//!
//! Robustness details that matter for the workloads here:
//!
//! * **k-means++ seeding** — the top-30 result lists the paper expands
//!   contain minority senses (one apple-fruit result among 29 Apple-Inc
//!   results); D²-weighted seeding makes it likely that such outliers get
//!   their own initial centre, which is precisely the behaviour the paper's
//!   motivating example requires.
//! * **Empty-cluster handling** — an emptied cluster is reseeded with the
//!   point farthest from its current centroid, keeping `k` effective until
//!   convergence (the assignment later drops genuinely empty clusters).
//! * **Zero vectors** — results with no terms (possible in adversarial
//!   tests) have undefined cosine; they are assigned to cluster 0.
//!
//! # Layout and the float-order contract
//!
//! A run works in a request-local dense space: the input dimensions are
//! remapped once, order-preserving, to `0..D`; the points are one CSR
//! matrix with their norms computed once (`Points`); the `k` centroids
//! are one dense `k × D` buffer whose norms are refreshed when a row is
//! written (`Centroids`). A similarity is then a gather-dot over the
//! point's entries — the assignment step takes four centroids' dots per
//! pass over a point's entries, so `k = 5` reads each point twice, not five
//! times — and the update step a scatter-add into one reused `k × D` sums
//! buffer.
//!
//! `Points` has two front-ends over the one Lloyd kernel: [`kmeans`] remaps
//! the dimensions of caller-built [`SparseVec`]s with a sort of its own,
//! and the serving path ([`Clusterer::cluster_matrix`] of
//! [`KMeansClusterer`]) takes rows, local ids and `D` straight from the
//! request's [`TermMatrix`], whose one sort already produced them — no
//! `SparseVec` per result, no second sort.
//!
//! [`Clusterer::cluster_matrix`]: crate::Clusterer::cluster_matrix
//! [`KMeansClusterer`]: crate::KMeansClusterer
//!
//! The result is **bit-identical** to the sparse-merge k-means this
//! replaced (kept as the test-only `reference` module, which the
//! differential tests compare against), because every `f64` comes from
//! the same operations in the same order:
//!
//! * **Gather-dot order** — the dot product walks the point's ascending
//!   dims, adding `w · c[d]`: the merge's products in the merge's order for
//!   shared dims, and an exact `+0.0` for dims the centroid lacks. The
//!   assignment's several dots per pass each keep their own accumulator,
//!   so each is the same chain of additions as a dot taken alone, and the
//!   similarities are compared in ascending centroid order (ties to the
//!   lower index).
//! * **Point-order sums** — a cluster's sum is accumulated point by point
//!   in input order from `0.0`, the chain of sparse additions; its mean is
//!   `sum · (1.0 / count)`.
//! * **Norms** — `sqrt(Σ w²)` over ascending dims; a dense row's zeros add
//!   an exact `+0.0`. The cosine is `(dot / (na · nb)).clamp(0.0, 1.0)`.
//! * **Partially updated centroids in the reseed** — the update writes
//!   centroids in cluster order, and the farthest-point search of an
//!   emptied cluster `c` reads the rows (and norms) of clusters `< c`
//!   already updated in this iteration and of clusters `> c` not yet.
//!
//! So nothing here may reorder float work: no SIMD horizontal sums, no
//! accumulator shared between dots, no fused multiply-add, no cached
//! similarities for "unchanged" centroids, no local ids that are not
//! order-preserving.

use crate::assign::ClusterAssignment;
use crate::rng::SplitMix64;
use crate::vector::SparseVec;
use qec_index::TermMatrix;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Upper bound on the number of clusters (the paper's user-specified
    /// granularity `k`).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed (seeding + tie-breaking).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 5,
            max_iters: 50,
            seed: 0x5eed,
        }
    }
}

/// Runs cosine k-means over `vectors`, returning a compacted assignment.
///
/// When `vectors.len() <= k`, every item gets its own cluster (matching the
/// paper's treatment of k as an upper bound on granularity).
///
/// Working memory is two dense `k × D` `f64` buffers (centroids and sums),
/// `D` being the number of distinct dimensions in `vectors`: 16·k·D bytes,
/// and each iteration's update touches all of it. At the serving shape
/// (`k = 5`, a few thousand distinct terms) that is well under a megabyte;
/// `k` in the thousands over tens of thousands of terms is gigabytes.
/// Nothing here caps `k` — a caller exposing `k` to untrusted input must
/// (`qec-engine` clamps `ExpandRequest::k_clusters` at its boundary).
pub fn kmeans(vectors: &[SparseVec], config: &KMeansConfig) -> ClusterAssignment {
    lloyd(&Points::new(vectors), config).0
}

/// [`kmeans`] over the TF vectors of `matrix`'s rows, without building
/// them: the same assignment, bit for bit, as `kmeans` of
/// [`tf_vectors`](crate::tf_vectors)`(matrix)`.
pub(crate) fn kmeans_matrix(matrix: &TermMatrix, config: &KMeansConfig) -> ClusterAssignment {
    lloyd(&Points::from_matrix(matrix), config).0
}

/// The Lloyd kernel; also returns how many iterations ran.
fn lloyd(points: &Points, config: &KMeansConfig) -> (ClusterAssignment, usize) {
    let n = points.len();
    if n == 0 {
        return (ClusterAssignment::from_membership(&[]), 0);
    }
    let k = config.k.max(1);
    if n <= k {
        let membership: Vec<u32> = (0..n as u32).collect();
        return (ClusterAssignment::from_membership(&membership), 0);
    }

    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let mut centroids = seed_plus_plus(points, k, &mut rng);
    let mut membership = vec![0u32; n];
    let mut sums = vec![0.0; k * points.dims];
    let mut counts = vec![0usize; k];
    // End state of the previous iteration, kept only when it reseeded.
    let mut after_reseed: Option<(Vec<u32>, Vec<f64>)> = None;
    let mut iters = 0;

    while iters < config.max_iters {
        iters += 1;

        // Assignment step.
        let mut changed = false;
        for (i, slot) in membership.iter_mut().enumerate() {
            let best = centroids.nearest(points, i);
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }

        // Update step: centroid = mean of members.
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in membership.iter().enumerate() {
            let (idx, val) = points.row(i);
            let sum = &mut sums[c as usize * points.dims..][..points.dims];
            for (&d, &w) in idx.iter().zip(val) {
                sum[d as usize] += w;
            }
            counts[c as usize] += 1;
        }
        let mut reseeded = false;
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an empty cluster with the point least similar to
                // its current assignment's centroid (the first such point).
                let mut farthest = 0;
                let mut least = f64::INFINITY;
                for (i, &m) in membership.iter().enumerate() {
                    let sim = centroids.similarity(points, i, m as usize);
                    if sim < least {
                        least = sim;
                        farthest = i;
                    }
                }
                centroids.set_point(c, points, farthest);
                membership[farthest] = c as u32;
                changed = true;
                reseeded = true;
            } else {
                let sum = &sums[c * points.dims..][..points.dims];
                centroids.set_mean(c, sum, 1.0 / counts[c] as f64);
            }
        }

        if !changed {
            break;
        }
        // Fewer distinct vectors than `k`: every iteration empties the same
        // clusters, reseeds them with the same points, and the next
        // assignment sends those points straight back. An iteration is a
        // function of the state it starts from, so once two consecutive
        // iterations end in the same state every later one does too, and
        // stopping here returns what running out `max_iters` would. Only
        // reseeding iterations can repeat (without a reseed, `changed`
        // means membership moved), so reseed-free runs never pay for this.
        if reseeded {
            if after_reseed
                .as_ref()
                .is_some_and(|(m, rows)| *m == membership && *rows == centroids.rows)
            {
                break;
            }
            after_reseed = Some((membership.clone(), centroids.rows.clone()));
        } else {
            after_reseed = None;
        }
    }

    (ClusterAssignment::from_membership(&membership), iters)
}

/// The input vectors as one CSR matrix over the request-local dense
/// dimension space `0..dims`.
struct Points {
    /// Row `i` is `idx[indptr[i]..indptr[i + 1]]` (same range of `val`).
    indptr: Vec<usize>,
    /// Local dimension of each entry, ascending within a row.
    idx: Vec<u32>,
    /// Weight of each entry.
    val: Vec<f64>,
    /// Euclidean norm of each row.
    norms: Vec<f64>,
    /// Number of distinct input dimensions, `D`.
    dims: usize,
}

impl Points {
    fn new(vectors: &[SparseVec]) -> Self {
        let nnz: usize = vectors.iter().map(SparseVec::nnz).sum();
        assert!(u32::try_from(nnz).is_ok(), "fewer than 2^32 entries");
        // One `input dim << 32 | entry position` key per entry: sorted, the
        // keys list the entries by ascending input dim, so a dim's local id
        // is the number of distinct dims before it (order-preserving) and
        // the low half says which CSR slot gets it.
        let mut keys: Vec<u64> = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        let mut indptr = Vec::with_capacity(vectors.len() + 1);
        indptr.push(0);
        for v in vectors {
            for &(d, w) in v.entries() {
                keys.push(u64::from(d) << 32 | keys.len() as u64);
                val.push(w);
            }
            indptr.push(val.len());
        }
        keys.sort_unstable();
        let mut idx = vec![0u32; nnz];
        let mut dims = 0;
        let mut last = None;
        for key in keys {
            let d = (key >> 32) as u32;
            if last != Some(d) {
                last = Some(d);
                dims += 1;
            }
            idx[key as u32 as usize] = dims as u32 - 1;
        }
        Self {
            indptr,
            idx,
            val,
            norms: vectors.iter().map(SparseVec::norm).collect(),
            dims,
        }
    }

    /// The rows of `matrix` as points: its local term ids are the
    /// order-preserving dense dims [`new`](Self::new) sorts for, and a
    /// row's tfs in row order are its vector's weights, so `norms` sums the
    /// squares [`SparseVec::norm`] sums, in its order.
    ///
    /// A zero tf (which a `SparseVec` drops) stays as an explicit zero and
    /// changes no result: it adds an exact `+0.0` to every dot product, sum
    /// and norm it enters, and a row of nothing else has norm 0 like an
    /// empty one — similarity 0 to every centroid, so cluster 0.
    fn from_matrix(matrix: &TermMatrix) -> Self {
        let mut indptr = Vec::with_capacity(matrix.num_rows() + 1);
        let mut idx = Vec::with_capacity(matrix.nnz());
        let mut val = Vec::with_capacity(matrix.nnz());
        let mut norms = Vec::with_capacity(matrix.num_rows());
        indptr.push(0);
        for i in 0..matrix.num_rows() {
            idx.extend_from_slice(matrix.row_local(i));
            val.extend(matrix.row(i).iter().map(|&(_, tf)| tf as f64));
            let row = &val[indptr[i]..];
            norms.push(row.iter().map(|&w| w * w).sum::<f64>().sqrt());
            indptr.push(val.len());
        }
        Self {
            indptr,
            idx,
            val,
            norms,
            dims: matrix.num_terms(),
        }
    }

    fn len(&self) -> usize {
        self.norms.len()
    }

    /// `(local dims, weights)` of point `i`.
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.idx[range.clone()], &self.val[range])
    }
}

/// `k` centroids as one dense row-major `k × dims` buffer.
struct Centroids {
    rows: Vec<f64>,
    /// Euclidean norm of each row, refreshed whenever the row is written.
    norms: Vec<f64>,
    dims: usize,
}

impl Centroids {
    fn new(k: usize, dims: usize) -> Self {
        Self {
            rows: vec![0.0; k * dims],
            norms: vec![0.0; k],
            dims,
        }
    }

    fn row_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.rows[c * self.dims..][..self.dims]
    }

    /// Centroid `c` becomes a copy of point `i`.
    fn set_point(&mut self, c: usize, points: &Points, i: usize) {
        let (idx, val) = points.row(i);
        let row = self.row_mut(c);
        row.fill(0.0);
        for (&d, &w) in idx.iter().zip(val) {
            row[d as usize] = w;
        }
        self.norms[c] = points.norms[i];
    }

    /// Centroid `c` becomes `sum · factor`.
    fn set_mean(&mut self, c: usize, sum: &[f64], factor: f64) {
        let row = self.row_mut(c);
        let mut sq = 0.0;
        for (out, &s) in row.iter_mut().zip(sum) {
            let w = s * factor;
            *out = w;
            sq += w * w;
        }
        self.norms[c] = sq.sqrt();
    }

    /// Cosine similarity of point `i` and centroid `c`, in `[0, 1]`; 0 when
    /// either is the zero vector.
    fn similarity(&self, points: &Points, i: usize, c: usize) -> f64 {
        let [dot] = self.dots::<1>(points, i, c);
        cosine(dot, points.norms[i], self.norms[c])
    }

    /// The dot products of point `i` with centroids `c..c + N`, in one pass
    /// over the point's entries: each its own accumulator, adding `w · c[d]`
    /// in ascending-dim order as [`similarity`](Self::similarity) does.
    #[inline(always)]
    fn dots<const N: usize>(&self, points: &Points, i: usize, c: usize) -> [f64; N] {
        let (idx, val) = points.row(i);
        let rows: [&[f64]; N] =
            std::array::from_fn(|j| &self.rows[(c + j) * self.dims..][..self.dims]);
        let mut dots = [0.0; N];
        for (&d, &w) in idx.iter().zip(val) {
            for (dot, row) in dots.iter_mut().zip(&rows) {
                *dot += w * row[d as usize];
            }
        }
        dots
    }

    /// Index of the centroid most cosine-similar to point `i`; ties break
    /// on lower index. Zero vectors go to centroid 0.
    ///
    /// The dots come four centroids per pass over the point (then one pass
    /// for the last `k mod 4`); the similarities are compared in ascending
    /// centroid order, as one [`similarity`](Self::similarity) per centroid
    /// would be.
    fn nearest(&self, points: &Points, i: usize) -> u32 {
        if points.indptr[i] == points.indptr[i + 1] {
            return 0;
        }
        let na = points.norms[i];
        let mut best = 0u32;
        let mut best_sim = -1.0;
        let mut consider = |first: usize, dots: &[f64]| {
            for (c, &dot) in (first..).zip(dots) {
                let sim = cosine(dot, na, self.norms[c]);
                if sim > best_sim {
                    best_sim = sim;
                    best = c as u32;
                }
            }
        };
        let k = self.norms.len();
        let blocked = k - k % 4;
        for c in (0..blocked).step_by(4) {
            consider(c, &self.dots::<4>(points, i, c));
        }
        match k % 4 {
            1 => consider(blocked, &self.dots::<1>(points, i, blocked)),
            2 => consider(blocked, &self.dots::<2>(points, i, blocked)),
            3 => consider(blocked, &self.dots::<3>(points, i, blocked)),
            _ => {}
        }
        best
    }
}

/// The cosine of two vectors from their dot product and norms, in
/// `[0, 1]`; 0 when either is the zero vector.
#[inline]
fn cosine(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// k-means++ seeding with cosine distance `1 − sim`.
fn seed_plus_plus(points: &Points, k: usize, rng: &mut SplitMix64) -> Centroids {
    let n = points.len();
    let mut centroids = Centroids::new(k, points.dims);
    centroids.set_point(0, points, rng.below(n));
    let mut min_dist: Vec<f64> = (0..n)
        .map(|i| 1.0 - centroids.similarity(points, i, 0))
        .collect();

    for c in 1..k {
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
        centroids.set_point(c, points, chosen);
        for (i, min) in min_dist.iter_mut().enumerate() {
            let d = 1.0 - centroids.similarity(points, i, c);
            if d < *min {
                *min = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn v(entries: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_entries(entries.to_vec())
    }

    /// Two well-separated groups on disjoint dimensions.
    fn two_blobs() -> Vec<SparseVec> {
        let mut out = Vec::new();
        for i in 0..10 {
            out.push(v(&[(0, 5.0 + i as f64 * 0.1), (1, 1.0)]));
        }
        for i in 0..10 {
            out.push(v(&[(10, 3.0 + i as f64 * 0.1), (11, 2.0)]));
        }
        out
    }

    #[test]
    fn separates_disjoint_blobs() {
        let vectors = two_blobs();
        let a = kmeans(
            &vectors,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(a.num_clusters(), 2);
        // All of the first 10 share a cluster; all of the last 10 the other.
        let c0 = a.cluster_of(0);
        assert!((0..10).all(|i| a.cluster_of(i) == c0));
        let c1 = a.cluster_of(10);
        assert!((10..20).all(|i| a.cluster_of(i) == c1));
        assert_ne!(c0, c1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let vectors = two_blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 42,
            ..Default::default()
        };
        let a = kmeans(&vectors, &cfg);
        let b = kmeans(&vectors, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn n_leq_k_gives_singletons() {
        let vectors = vec![v(&[(0, 1.0)]), v(&[(1, 1.0)]), v(&[(2, 1.0)])];
        let a = kmeans(
            &vectors,
            &KMeansConfig {
                k: 5,
                ..Default::default()
            },
        );
        assert_eq!(a.num_clusters(), 3);
        assert_eq!(a.num_items(), 3);
    }

    #[test]
    fn empty_input() {
        let a = kmeans(&[], &KMeansConfig::default());
        assert_eq!(a.num_items(), 0);
    }

    #[test]
    fn outlier_gets_own_cluster() {
        // 19 near-identical vectors plus one on orthogonal dimensions — the
        // paper's "one apple-fruit result in the top 30" situation.
        let mut vectors: Vec<SparseVec> = (0..19)
            .map(|i| v(&[(0, 10.0 + (i % 3) as f64), (1, 5.0)]))
            .collect();
        vectors.push(v(&[(50, 4.0), (51, 4.0)]));
        let a = kmeans(
            &vectors,
            &KMeansConfig {
                k: 2,
                seed: 7,
                ..Default::default()
            },
        );
        assert_eq!(a.num_clusters(), 2);
        let outlier_cluster = a.cluster_of(19);
        let member_count = (0..20)
            .filter(|&i| a.cluster_of(i) == outlier_cluster)
            .count();
        assert_eq!(member_count, 1, "outlier isolated in its own cluster");
    }

    #[test]
    fn zero_vectors_do_not_panic() {
        let vectors = vec![
            SparseVec::zero(),
            v(&[(0, 1.0)]),
            v(&[(5, 2.0)]),
            SparseVec::zero(),
        ];
        let a = kmeans(
            &vectors,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(a.num_items(), 4);
    }

    #[test]
    fn membership_covers_all_items_exactly_once() {
        let vectors = two_blobs();
        let a = kmeans(
            &vectors,
            &KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        let mut seen: Vec<u32> = a.iter_clusters().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..vectors.len() as u32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn at_most_k_clusters() {
        let vectors = two_blobs();
        for k in 1..6 {
            let a = kmeans(
                &vectors,
                &KMeansConfig {
                    k,
                    seed: 11,
                    ..Default::default()
                },
            );
            assert!(a.num_clusters() <= k, "k={k} produced {}", a.num_clusters());
            assert!(a.num_clusters() >= 1);
        }
    }

    /// Random sparse inputs for the differential test. `vocab` small →
    /// heavily overlapping dims; `disjoint` → every vector on dims of its
    /// own; `dup_rate` → share of vectors copied from an earlier one;
    /// `zero_rate` → share of empty vectors; `integral` → tf-like weights.
    struct Shape {
        n: usize,
        vocab: u32,
        nnz: usize,
        disjoint: bool,
        dup_rate: f64,
        zero_rate: f64,
        integral: bool,
    }

    fn random_vectors(shape: &Shape, rng: &mut SplitMix64) -> Vec<SparseVec> {
        let mut out: Vec<SparseVec> = Vec::with_capacity(shape.n);
        for i in 0..shape.n {
            if !out.is_empty() && rng.f64() < shape.dup_rate {
                let copy = out[rng.below(out.len())].clone();
                out.push(copy);
                continue;
            }
            if rng.f64() < shape.zero_rate {
                out.push(SparseVec::zero());
                continue;
            }
            let base = if shape.disjoint {
                i as u32 * shape.vocab
            } else {
                0
            };
            let entries = (0..1 + rng.below(shape.nnz))
                .map(|_| {
                    let dim = base + rng.below(shape.vocab as usize) as u32;
                    let w = if shape.integral {
                        1.0 + rng.below(4) as f64
                    } else {
                        rng.f64_below(10.0)
                    };
                    (dim, w)
                })
                .collect();
            out.push(SparseVec::from_entries(entries));
        }
        out
    }

    #[test]
    fn dense_kernel_matches_the_sparse_reference_on_random_inputs() {
        let mut rng = SplitMix64::seed_from_u64(0x14_d1ff);
        let mut reseeding_cases = 0;
        let mut multi_iteration_cases = 0;
        // Every `k mod 4` the assignment's remainder block branches on,
        // with (k ≥ 4) and without a full block of four, then `k = n − 1`.
        const K_FIXED: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];
        for case in 0..320 {
            let k_choice = case % 8;
            let n_minus_one = k_choice == K_FIXED.len();
            // `k = n − 1` makes the reference quadratic in n; keep most of
            // those small and let the rest range to 200.
            let n_max = if n_minus_one && case % 32 != 7 {
                24
            } else {
                200
            };
            let k_fixed = K_FIXED[k_choice.min(K_FIXED.len() - 1)];
            let n = if n_minus_one {
                3 + rng.below(n_max - 2)
            } else {
                k_fixed + 1 + rng.below(n_max - k_fixed)
            };
            let k = if n_minus_one { n - 1 } else { k_fixed };
            let shape = Shape {
                n,
                vocab: [4, 30, 400, 5_000][rng.below(4)],
                nnz: [1, 3, 12, 40][rng.below(4)],
                disjoint: rng.below(6) == 0,
                dup_rate: [0.0, 0.0, 0.3, 0.95][rng.below(4)],
                zero_rate: [0.0, 0.0, 0.1, 0.5][rng.below(4)],
                integral: rng.below(2) == 0,
            };
            let vectors = random_vectors(&shape, &mut rng);
            let config = KMeansConfig {
                k,
                max_iters: [1, 4, 50][rng.below(3)],
                seed: rng.next_u64(),
            };
            let (expected, reseeds) = reference::kmeans(&vectors, &config);
            let (got, iters) = lloyd(&Points::new(&vectors), &config);
            assert_eq!(got, expected, "case {case}: n {n} k {k}");
            assert!(iters <= config.max_iters);
            reseeding_cases += usize::from(reseeds > 0);
            multi_iteration_cases += usize::from(iters > 2);
        }
        assert!(reseeding_cases >= 20, "reseed arm: {reseeding_cases} cases");
        assert!(multi_iteration_cases >= 20, "{multi_iteration_cases} cases");
    }

    #[test]
    fn duplicates_only_inputs_stop_early_and_equal_the_full_run() {
        let identical: Vec<SparseVec> = vec![v(&[(0, 1.0), (3, 2.0)]); 100];
        let three_distinct: Vec<SparseVec> = (0..60)
            .map(|i| match i % 3 {
                0 => v(&[(0, 2.0), (1, 1.0)]),
                1 => v(&[(1, 1.0), (2, 3.0)]),
                _ => v(&[(5, 1.0)]),
            })
            .collect();
        let two_and_zeros: Vec<SparseVec> = (0..40)
            .map(|i| match i % 4 {
                0 => SparseVec::zero(),
                1 | 2 => v(&[(0, 1.0), (7, 1.0)]),
                _ => v(&[(7, 4.0), (9, 1.0)]),
            })
            .collect();
        for vectors in [&identical, &three_distinct, &two_and_zeros] {
            for k in [5, 8] {
                for seed in 0..16 {
                    let config = KMeansConfig {
                        k,
                        seed,
                        ..Default::default()
                    };
                    let (expected, reseeds) = reference::kmeans(vectors, &config);
                    assert!(reseeds >= config.max_iters, "the reference loops");
                    let (got, iters) = lloyd(&Points::new(vectors), &config);
                    assert_eq!(got, expected, "k {k} seed {seed}");
                    assert!(iters <= 3, "k {k} seed {seed}: {iters} iterations");
                }
            }
        }
    }
}
