//! Sparse vectors and cosine similarity.
//!
//! Result vectors are sparse TF vectors over the shared term-id space
//! (paper §C). Dimensions are stored as sorted `(dim, weight)` pairs, so
//! dot products are linear merges and memory stays proportional to the
//! number of distinct terms per document.

use qec_index::{Corpus, DocId, TermMatrix};
use qec_text::TermId;

/// A sparse vector: sorted, unique dimensions with positive weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(u32, f64)>,
}

impl SparseVec {
    /// Builds from `(dim, weight)` pairs; sorts, merges duplicate dims by
    /// summation, and drops non-positive weights.
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> Self {
        entries.retain(|&(_, w)| w > 0.0 && w.is_finite());
        entries.sort_unstable_by_key(|&(d, _)| d);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for (d, w) in entries {
            match merged.last_mut() {
                Some((last, acc)) if *last == d => *acc += w,
                _ => merged.push((d, w)),
            }
        }
        Self { entries: merged }
    }

    /// Builds from pairs the caller expects to be canonical already:
    /// strictly ascending dims with finite positive weights. One linear
    /// pass verifies that; input that fails it goes through
    /// [`from_entries`](Self::from_entries), so the result is the same
    /// vector either way.
    fn from_sorted_entries(entries: Vec<(u32, f64)>) -> Self {
        if is_canonical(&entries) {
            Self { entries }
        } else {
            Self::from_entries(entries)
        }
    }

    /// The empty vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Number of non-zero dimensions.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted `(dim, weight)` entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another sparse vector (linear merge).
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Whether `entries` is what [`SparseVec`] stores: strictly ascending
/// dims, finite positive weights.
fn is_canonical(entries: &[(u32, f64)]) -> bool {
    let mut prev = None;
    entries.iter().all(|&(d, w)| {
        let ascending = prev.is_none_or(|p| p < d);
        prev = Some(d);
        ascending && w > 0.0 && w.is_finite()
    })
}

/// Cosine similarity in `[0, 1]` for non-negative vectors; 0 when either
/// vector is zero.
pub fn cosine_similarity(a: &SparseVec, b: &SparseVec) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (a.dot(b) / (na * nb)).clamp(0.0, 1.0)
}

/// The TF vector of a document (paper §C: "the weight of each component is
/// the TF of the feature").
pub fn doc_tf_vector(corpus: &Corpus, doc: DocId) -> SparseVec {
    tf_vector(corpus.doc_terms(doc))
}

/// [`Corpus::doc_terms`] rows are strictly sorted with positive tfs, so
/// this is a copy; a row that is not (a corpus is also assembled from
/// snapshot bytes) still yields the canonical vector.
fn tf_vector(row: &[(TermId, u32)]) -> SparseVec {
    SparseVec::from_sorted_entries(row.iter().map(|&(t, tf)| (t.0, tf as f64)).collect())
}

/// [`doc_tf_vector`] of every row of `matrix`: what a [`Clusterer`] that
/// works on vectors is handed when the request's terms were gathered into
/// a [`TermMatrix`].
///
/// [`Clusterer`]: crate::Clusterer
pub fn tf_vectors(matrix: &TermMatrix) -> Vec<SparseVec> {
    (0..matrix.num_rows())
        .map(|i| tf_vector(matrix.row(i)))
        .collect()
}

/// The `SparseVec` arithmetic of the sparse-merge k-means, kept for the
/// test-only reference implementation (`kmeans::reference`).
#[cfg(test)]
mod reference {
    use super::SparseVec;

    impl SparseVec {
        /// Adds `other` into `self` (dense accumulation via merge).
        pub(crate) fn add_assign(&mut self, other: &SparseVec) {
            if other.is_zero() {
                return;
            }
            let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
            let (mut i, mut j) = (0, 0);
            let (a, b) = (&self.entries, &other.entries);
            while i < a.len() || j < b.len() {
                if j >= b.len() || (i < a.len() && a[i].0 < b[j].0) {
                    merged.push(a[i]);
                    i += 1;
                } else if i >= a.len() || b[j].0 < a[i].0 {
                    merged.push(b[j]);
                    j += 1;
                } else {
                    merged.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
            self.entries = merged;
        }

        /// Scales all weights by `factor` (non-positive factor zeroes the
        /// vector).
        pub(crate) fn scale(&mut self, factor: f64) {
            if factor <= 0.0 || !factor.is_finite() {
                self.entries.clear();
                return;
            }
            for (_, w) in &mut self.entries {
                *w *= factor;
            }
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
    fn from_entries_sorts_and_merges() {
        let x = v(&[(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(x.entries(), &[(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn from_entries_drops_nonpositive() {
        let x = v(&[(1, 0.0), (2, -3.0), (4, 1.0), (5, f64::NAN)]);
        assert_eq!(x.entries(), &[(4, 1.0)]);
    }

    #[test]
    fn from_sorted_entries_keeps_canonical_input_and_repairs_the_rest() {
        let canonical = vec![(1, 2.0), (3, 0.5), (9, 1.0)];
        assert!(is_canonical(&canonical));
        assert_eq!(
            SparseVec::from_sorted_entries(canonical.clone()).entries(),
            &canonical[..]
        );
        assert!(is_canonical(&[]));
        for broken in [
            vec![(3, 1.0), (1, 2.0)],           // descending
            vec![(1, 1.0), (1, 2.0)],           // duplicate dim
            vec![(1, 1.0), (2, 0.0)],           // zero weight
            vec![(1, -1.0)],                    // negative weight
            vec![(1, 1.0), (2, f64::INFINITY)], // not finite
            vec![(0, f64::NAN), (2, 1.0)],
        ] {
            assert!(!is_canonical(&broken), "{broken:?}");
            assert_eq!(
                SparseVec::from_sorted_entries(broken.clone()),
                SparseVec::from_entries(broken)
            );
        }
    }

    #[test]
    fn dot_product_on_overlap_only() {
        let a = v(&[(1, 2.0), (3, 1.0)]);
        let b = v(&[(2, 5.0), (3, 4.0)]);
        assert_eq!(a.dot(&b), 4.0);
        assert_eq!(b.dot(&a), 4.0);
    }

    #[test]
    fn norm_matches_hand_computation() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert_eq!(SparseVec::zero().norm(), 0.0);
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = v(&[(0, 1.0), (5, 2.0)]);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = v(&[(0, 1.0)]);
        let b = v(&[(1, 1.0)]);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = v(&[(0, 1.0)]);
        assert_eq!(cosine_similarity(&a, &SparseVec::zero()), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let mut b = a.clone();
        b.scale(7.5);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = v(&[(0, 1.0), (2, 2.0)]);
        a.add_assign(&v(&[(1, 5.0), (2, 3.0)]));
        assert_eq!(a.entries(), &[(0, 1.0), (1, 5.0), (2, 5.0)]);
    }

    #[test]
    fn add_assign_with_zero_noop() {
        let mut a = v(&[(0, 1.0)]);
        a.add_assign(&SparseVec::zero());
        assert_eq!(a.entries(), &[(0, 1.0)]);
    }

    #[test]
    fn scale_nonpositive_zeroes() {
        let mut a = v(&[(0, 1.0)]);
        a.scale(0.0);
        assert!(a.is_zero());
    }

    #[test]
    fn doc_tf_vector_roundtrip() {
        use qec_index::{CorpusBuilder, DocumentSpec};
        let mut b = CorpusBuilder::new();
        let d = b.add_document(DocumentSpec::text("", "java java island"));
        let c = b.build();
        let vec = doc_tf_vector(&c, d);
        assert_eq!(vec.nnz(), 2);
        let java = c.keyword_term("java").unwrap();
        let weight = vec
            .entries()
            .iter()
            .find(|&&(dim, _)| dim == java.0)
            .map(|&(_, w)| w);
        assert_eq!(weight, Some(2.0));
    }

    /// `from_entries` of the same pairs: what `doc_tf_vector` returned
    /// before it trusted (and verified) the row order.
    fn resorted(row: &[(TermId, u32)]) -> SparseVec {
        SparseVec::from_entries(row.iter().map(|&(t, tf)| (t.0, tf as f64)).collect())
    }

    #[test]
    fn doc_tf_vector_equals_from_entries_for_built_and_snapshot_loaded_corpora() {
        use qec_index::{CorpusBuilder, DocumentSpec, Feature};
        let mut b = CorpusBuilder::new();
        for i in 0..40 {
            b.add_document(DocumentSpec::text(
                format!("Title {i}"),
                format!("apple common{} java java island word{}", i % 3, i % 7),
            ));
        }
        b.add_document(DocumentSpec::text("", "the of and"));
        b.add_document(DocumentSpec::structured(
            "Canon PowerShot",
            vec![Feature::new("camera", "brand", "Canon")],
        ));
        let built = b.build();

        let dir = std::env::temp_dir().join(format!("qec-cluster-tfvec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.qsnap");
        qec_snapshot::save_corpus(&built, &path).unwrap();
        let loaded = qec_snapshot::load_corpus(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        for corpus in [&built, &loaded] {
            for d in corpus.all_docs() {
                assert_eq!(doc_tf_vector(corpus, d), resorted(corpus.doc_terms(d)));
            }
        }
    }

    #[test]
    fn tf_vector_falls_back_on_an_unsorted_or_zero_tf_row() {
        let row = [
            (TermId(7), 2),
            (TermId(3), 1),
            (TermId(9), 0),
            (TermId(3), 4),
        ];
        let vec = tf_vector(&row);
        assert_eq!(vec, resorted(&row));
        assert_eq!(vec.entries(), &[(3, 5.0), (7, 2.0)]);
    }
}
