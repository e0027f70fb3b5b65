//! The inverted index: term → posting list.
//!
//! Posting lists are kept sorted by [`DocId`]. Lists are built
//! incrementally by [`crate::CorpusBuilder`]; documents are added in id
//! order, so appends keep lists sorted without an explicit sort.
//!
//! Alongside the tf-carrying posting lists, [`InvertedIndex::finalize`]
//! freezes a **hybrid document-id representation** per term — sorted id
//! vector for sparse terms, dense bitmap for terms with
//! `df ≥ num_docs / 64` (see [`crate::postings`] for the rationale and the
//! intersection kernels). Retrieval reads the hybrid side through
//! [`InvertedIndex::doc_ids`]; tf statistics keep using the posting
//! lists, and [`InvertedIndex::idf`] reads a per-term table frozen at the
//! same moment.

use crate::doc::DocId;
use crate::postings::{DocBitmap, PostingsView};
use qec_text::TermId;

/// One entry of a posting list: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in that document.
    pub tf: u32,
}

/// One term's frozen document-id set (hybrid representation).
#[derive(Debug, Clone)]
enum HybridPostings {
    Sorted(Vec<DocId>),
    Bitmap(DocBitmap),
}

/// One term's frozen document-id set as supplied to
/// [`InvertedIndex::from_frozen_parts`] — the public mirror of the
/// private hybrid representation, so snapshot loaders can hand back
/// bitmaps rebuilt from persisted word slices without re-deriving them
/// bit by bit.
#[derive(Debug, Clone)]
pub enum FrozenPostings {
    /// Sorted document ids (the sparse-term representation).
    Sorted(Vec<DocId>),
    /// Dense document bitmap (the high-df representation).
    Bitmap(DocBitmap),
}

/// Why [`InvertedIndex::from_frozen_parts`] rejected its inputs. Every
/// variant names the offending term so loaders can report *where* a
/// snapshot went bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrozenPartsError {
    /// `lists` and `frozen` differ in length.
    LengthMismatch {
        /// Number of posting lists supplied.
        lists: usize,
        /// Number of frozen representations supplied.
        frozen: usize,
    },
    /// A posting list is not strictly increasing by document id.
    UnsortedList {
        /// Offending term slot.
        term: u32,
    },
    /// A posting references a document `>= num_docs`.
    DocOutOfRange {
        /// Offending term slot.
        term: u32,
    },
    /// A term's frozen doc-id set disagrees with its posting list.
    FrozenDisagreesWithList {
        /// Offending term slot.
        term: u32,
    },
    /// A term's representation violates the density rule
    /// (`df · 64 ≥ num_docs` ⇔ bitmap) that [`InvertedIndex::finalize`]
    /// applies — a loaded index must be structurally identical to a
    /// fresh-built one.
    WrongRepresentation {
        /// Offending term slot.
        term: u32,
    },
    /// A bitmap's universe is not the document count.
    WrongUniverse {
        /// Offending term slot.
        term: u32,
    },
}

impl std::fmt::Display for FrozenPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrozenPartsError::LengthMismatch { lists, frozen } => {
                write!(f, "{lists} posting lists but {frozen} frozen sets")
            }
            FrozenPartsError::UnsortedList { term } => {
                write!(f, "posting list of term {term} is not strictly sorted")
            }
            FrozenPartsError::DocOutOfRange { term } => {
                write!(f, "term {term} references a document beyond num_docs")
            }
            FrozenPartsError::FrozenDisagreesWithList { term } => {
                write!(
                    f,
                    "frozen doc-id set of term {term} disagrees with its postings"
                )
            }
            FrozenPartsError::WrongRepresentation { term } => {
                write!(f, "term {term} violates the density representation rule")
            }
            FrozenPartsError::WrongUniverse { term } => {
                write!(
                    f,
                    "bitmap universe of term {term} is not the document count"
                )
            }
        }
    }
}

impl std::error::Error for FrozenPartsError {}

/// Term → sorted posting list, keyed by dense [`TermId`].
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    lists: Vec<Vec<Posting>>,
    /// Hybrid doc-id representations, built by [`Self::finalize`]; empty
    /// while the index is still being mutated.
    hybrid: Vec<HybridPostings>,
    /// `idf` of every term slot, frozen with `hybrid` (and empty with it):
    /// a cold request reads ~700 idfs, each a division and an `ln`.
    idf: Vec<f64>,
    num_docs: u32,
    total_postings: u64,
}

/// `ln(N / df)`, 0 for a term in no document — the one expression behind
/// [`InvertedIndex::idf`], frozen table or not.
fn ln_idf(num_docs: u32, df: usize) -> f64 {
    if df == 0 || num_docs == 0 {
        return 0.0;
    }
    (num_docs as f64 / df as f64).ln()
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document's term multiset. `terms` must be sorted by `TermId`
    /// and deduplicated with per-term counts; `doc` ids must be added in
    /// strictly increasing order (the corpus builder guarantees both).
    pub fn add_document(&mut self, doc: DocId, terms: &[(TermId, u32)]) {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "terms must be sorted and unique"
        );
        for &(term, tf) in terms {
            let idx = term.index();
            if idx >= self.lists.len() {
                self.lists.resize_with(idx + 1, Vec::new);
            }
            let list = &mut self.lists[idx];
            debug_assert!(
                list.last().is_none_or(|p| p.doc < doc),
                "doc ids must increase"
            );
            list.push(Posting { doc, tf });
            self.total_postings += 1;
        }
        self.num_docs = self.num_docs.max(doc.0 + 1);
        // Any mutation invalidates the frozen side.
        self.hybrid.clear();
        self.idf.clear();
    }

    /// Freezes the hybrid doc-id representation: a term goes dense when its
    /// df reaches one document per bitmap word (`df · 64 ≥ num_docs`), the
    /// point where a bitmap stops costing more memory than the id vector.
    /// Also freezes the idf table. Idempotent; [`Self::add_document`]
    /// un-freezes.
    pub fn finalize(&mut self) {
        if !self.hybrid.is_empty() || self.lists.is_empty() {
            return;
        }
        let n = self.num_docs as usize;
        self.hybrid = self
            .lists
            .iter()
            .map(|list| {
                if list.len() * 64 >= n && n > 0 {
                    let mut b = DocBitmap::empty(n);
                    for p in list {
                        b.insert(p.doc);
                    }
                    HybridPostings::Bitmap(b)
                } else {
                    HybridPostings::Sorted(list.iter().map(|p| p.doc).collect())
                }
            })
            .collect();
        self.idf = idf_table(self.num_docs, &self.lists);
    }

    /// Whether [`Self::finalize`] has run since the last mutation.
    pub fn is_finalized(&self) -> bool {
        self.hybrid.len() == self.lists.len()
    }

    /// Reassembles a finalized index from its frozen parts — the snapshot
    /// load path. Nothing is trusted: every list must be strictly sorted
    /// with in-range documents, every frozen set must agree member-for-
    /// member with its list, and each representation must be the one the
    /// density rule in [`Self::finalize`] would have chosen, so a loaded
    /// index is structurally indistinguishable from a fresh-built one.
    pub fn from_frozen_parts(
        num_docs: u32,
        lists: Vec<Vec<Posting>>,
        frozen: Vec<FrozenPostings>,
    ) -> Result<Self, FrozenPartsError> {
        if lists.len() != frozen.len() {
            return Err(FrozenPartsError::LengthMismatch {
                lists: lists.len(),
                frozen: frozen.len(),
            });
        }
        let n = num_docs as usize;
        let mut total_postings = 0u64;
        for (slot, (list, rep)) in lists.iter().zip(&frozen).enumerate() {
            let term = slot as u32;
            if !list.windows(2).all(|w| w[0].doc < w[1].doc) {
                return Err(FrozenPartsError::UnsortedList { term });
            }
            if list.last().is_some_and(|p| p.doc.index() >= n) {
                return Err(FrozenPartsError::DocOutOfRange { term });
            }
            let dense = list.len() * 64 >= n && n > 0;
            match rep {
                FrozenPostings::Sorted(ids) => {
                    if dense {
                        return Err(FrozenPartsError::WrongRepresentation { term });
                    }
                    if ids.len() != list.len() || !ids.iter().zip(list).all(|(&id, p)| id == p.doc)
                    {
                        return Err(FrozenPartsError::FrozenDisagreesWithList { term });
                    }
                }
                FrozenPostings::Bitmap(b) => {
                    if !dense {
                        return Err(FrozenPartsError::WrongRepresentation { term });
                    }
                    if b.num_docs() != n {
                        return Err(FrozenPartsError::WrongUniverse { term });
                    }
                    if b.len() != list.len() || !list.iter().all(|p| b.contains(p.doc)) {
                        return Err(FrozenPartsError::FrozenDisagreesWithList { term });
                    }
                }
            }
            total_postings += list.len() as u64;
        }
        let hybrid = frozen
            .into_iter()
            .map(|rep| match rep {
                FrozenPostings::Sorted(ids) => HybridPostings::Sorted(ids),
                FrozenPostings::Bitmap(b) => HybridPostings::Bitmap(b),
            })
            .collect();
        Ok(Self {
            idf: idf_table(num_docs, &lists),
            lists,
            hybrid,
            num_docs,
            total_postings,
        })
    }

    /// The frozen document-id set of `term` (empty sorted view for unseen
    /// terms). Panics if the index was mutated after [`Self::finalize`] —
    /// the corpus builder freezes exactly once, at [`crate::Corpus`] build.
    #[inline]
    pub fn doc_ids(&self, term: TermId) -> PostingsView<'_> {
        assert!(
            self.is_finalized() || self.lists.is_empty(),
            "InvertedIndex::finalize() must run before doc_ids()"
        );
        match self.hybrid.get(term.index()) {
            Some(HybridPostings::Sorted(ids)) => PostingsView::Sorted(ids),
            Some(HybridPostings::Bitmap(b)) => PostingsView::Bitmap(b),
            None => PostingsView::Sorted(&[]),
        }
    }

    /// The posting list for `term` (empty slice for unseen terms).
    #[inline]
    pub fn postings(&self, term: TermId) -> &[Posting] {
        self.lists
            .get(term.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Document frequency of `term`.
    #[inline]
    pub fn df(&self, term: TermId) -> u32 {
        self.postings(term).len() as u32
    }

    /// Term frequency of `term` in `doc` (0 when absent). Binary search —
    /// O(log df).
    pub fn tf(&self, term: TermId, doc: DocId) -> u32 {
        let list = self.postings(term);
        match list.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => list[i].tf,
            Err(_) => 0,
        }
    }

    /// Whether `doc` contains `term`.
    #[inline]
    pub fn contains(&self, term: TermId, doc: DocId) -> bool {
        self.tf(term, doc) > 0
    }

    /// Number of documents in the index.
    #[inline]
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Number of distinct terms with at least one posting slot allocated.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// Total number of postings (index size metric).
    pub fn total_postings(&self) -> u64 {
        self.total_postings
    }

    /// Inverse document frequency with the standard `ln(N/df)` form.
    /// Unseen terms get idf 0 (they retrieve nothing anyway). A finalized
    /// index answers from its frozen table — the same expression, taken
    /// once per term.
    #[inline]
    pub fn idf(&self, term: TermId) -> f64 {
        match self.idf.get(term.index()) {
            Some(&idf) => idf,
            None => ln_idf(self.num_docs, self.postings(term).len()),
        }
    }
}

fn idf_table(num_docs: u32, lists: &[Vec<Posting>]) -> Vec<f64> {
    lists
        .iter()
        .map(|list| ln_idf(num_docs, list.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }
    fn d(i: u32) -> DocId {
        DocId(i)
    }

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(d(0), &[(t(0), 2), (t(1), 1)]);
        idx.add_document(d(1), &[(t(1), 3)]);
        idx.add_document(d(2), &[(t(0), 1), (t(2), 5)]);
        idx
    }

    #[test]
    fn postings_are_sorted_by_doc() {
        let idx = sample_index();
        let p0 = idx.postings(t(0));
        assert_eq!(p0.len(), 2);
        assert_eq!(p0[0].doc, d(0));
        assert_eq!(p0[1].doc, d(2));
    }

    #[test]
    fn df_and_tf() {
        let idx = sample_index();
        assert_eq!(idx.df(t(0)), 2);
        assert_eq!(idx.df(t(1)), 2);
        assert_eq!(idx.df(t(2)), 1);
        assert_eq!(idx.df(t(9)), 0);
        assert_eq!(idx.tf(t(0), d(0)), 2);
        assert_eq!(idx.tf(t(0), d(1)), 0);
        assert_eq!(idx.tf(t(2), d(2)), 5);
    }

    #[test]
    fn contains_matches_tf() {
        let idx = sample_index();
        assert!(idx.contains(t(1), d(1)));
        assert!(!idx.contains(t(2), d(0)));
        assert!(!idx.contains(t(42), d(0)));
    }

    #[test]
    fn counts() {
        let idx = sample_index();
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.total_postings(), 5);
        assert_eq!(idx.num_terms(), 3);
    }

    #[test]
    fn idf_is_monotone_in_rarity() {
        let idx = sample_index();
        // t2 (df=1) must have higher idf than t0 (df=2).
        assert!(idx.idf(t(2)) > idx.idf(t(0)));
        assert_eq!(idx.idf(t(9)), 0.0);
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::new();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.postings(t(0)), &[]);
        assert_eq!(idx.idf(t(0)), 0.0);
    }

    #[test]
    fn finalize_picks_representation_by_density() {
        // 200 docs; t0 in every doc (dense → bitmap), t1 in two docs
        // (sparse → sorted: 2 · 64 < 200).
        let mut idx = InvertedIndex::new();
        for i in 0..200 {
            let terms: Vec<(TermId, u32)> = if i == 3 || i == 150 {
                vec![(t(0), 1), (t(1), 1)]
            } else {
                vec![(t(0), 1)]
            };
            idx.add_document(d(i), &terms);
        }
        assert!(!idx.is_finalized());
        idx.finalize();
        assert!(idx.is_finalized());
        match idx.doc_ids(t(0)) {
            PostingsView::Bitmap(b) => assert_eq!(b.len(), 200),
            PostingsView::Sorted(_) => panic!("dense term should freeze to bitmap"),
        }
        match idx.doc_ids(t(1)) {
            PostingsView::Sorted(ids) => assert_eq!(ids, &[d(3), d(150)]),
            PostingsView::Bitmap(_) => panic!("sparse term should stay sorted"),
        }
        // Unseen terms read as an empty sorted view.
        assert!(idx.doc_ids(t(99)).is_empty());
    }

    #[test]
    fn mutation_unfreezes() {
        let mut idx = sample_index();
        idx.finalize();
        assert!(idx.is_finalized());
        idx.add_document(d(3), &[(t(0), 1)]);
        assert!(!idx.is_finalized());
        idx.finalize();
        assert_eq!(idx.doc_ids(t(0)).len(), 3);
    }

    #[test]
    fn frozen_idf_table_has_the_bits_of_the_expression() {
        let mut idx = InvertedIndex::new();
        for i in 0..97u32 {
            let mut terms = vec![(t(0), 1)];
            terms.extend((1..8u32).filter(|k| i % k == 0).map(|k| (t(k), 1)));
            idx.add_document(d(i), &terms);
        }
        let unfrozen: Vec<u64> = (0..10).map(|k| idx.idf(t(k)).to_bits()).collect();
        idx.finalize();
        let frozen: Vec<u64> = (0..10).map(|k| idx.idf(t(k)).to_bits()).collect();
        assert_eq!(frozen, unfrozen);
        assert_eq!(idx.idf(t(0)), 0.0, "a term in every document");
        assert_eq!(idx.idf(t(3)).to_bits(), (97f64 / 33f64).ln().to_bits());
        assert_eq!(idx.idf(t(9)), 0.0, "unseen");

        // Mutation drops the table with the hybrid side; N changed.
        idx.add_document(d(97), &[(t(3), 2)]);
        assert_eq!(idx.idf(t(3)).to_bits(), (98f64 / 34f64).ln().to_bits());
        idx.finalize();
        assert_eq!(idx.idf(t(3)).to_bits(), (98f64 / 34f64).ln().to_bits());
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut idx = sample_index();
        idx.finalize();
        idx.finalize();
        assert!(idx.is_finalized());
        assert_eq!(idx.doc_ids(t(2)).len(), 1);
    }
}
