//! The inverted index: term → posting list.
//!
//! Posting lists are kept sorted by [`DocId`]. The corpus builder and
//! `Corpus::split` transpose their document rows in id order
//! ([`lists_from_rows`]), so their lists come out sorted without an
//! explicit sort; the snapshot loader decodes them from the file.
//!
//! An index exists only frozen: [`InvertedIndex::from_lists`] is its one
//! constructor. The tf-carrying posting lists are the only document-id
//! representation: retrieval and ranking both walk them (see the
//! `postings` module for the join). Beside them it derives the idf table
//! and, for each term with `df ≥ num_docs / 64`, a membership bitmap that
//! AND retrieval probes instead of joining the long list.

use crate::doc::DocId;
use crate::postings::dense_probe;
use qec_bitset::Bitset;
use qec_text::TermId;

/// One entry of a posting list: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in that document.
    pub tf: u32,
}

/// Why [`InvertedIndex::from_lists`] rejected its posting lists. Every
/// variant names the offending term, so a snapshot loader can report
/// *where* a file went bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostingListError {
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
}

impl std::fmt::Display for PostingListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostingListError::UnsortedList { term } => {
                write!(f, "posting list of term {term} is not strictly sorted")
            }
            PostingListError::DocOutOfRange { term } => {
                write!(f, "term {term} references a document beyond num_docs")
            }
        }
    }
}

impl std::error::Error for PostingListError {}

/// Term → sorted posting list, keyed by dense [`TermId`]; frozen from
/// the moment [`Self::from_lists`] builds it.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: Vec<Vec<Posting>>,
    /// The membership probe of every dense term slot, `None` elsewhere.
    probes: Vec<Option<Bitset>>,
    /// `idf` of every term slot: a cold request reads ~700 idfs, each a
    /// division and an `ln`.
    idf: Vec<f64>,
    num_docs: u32,
    total_postings: u64,
}

/// Transposes document rows (row `i` is document `i`'s `(term, tf)`
/// pairs, sorted by `TermId` and deduplicated) into posting lists, one
/// slot per term up to the largest term any row holds. One counting pass
/// sizes every list to its df, so each list is allocated once at its
/// exact length; the second pass fills them in document order, which
/// leaves them sorted.
pub(crate) fn lists_from_rows(rows: &[Vec<(TermId, u32)>]) -> Vec<Vec<Posting>> {
    let mut df: Vec<usize> = Vec::new();
    for row in rows {
        debug_assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "terms must be sorted and unique"
        );
        if let Some(&(last, _)) = row.last() {
            if last.index() >= df.len() {
                df.resize(last.index() + 1, 0);
            }
        }
        for &(term, _) in row {
            df[term.index()] += 1;
        }
    }
    let mut lists: Vec<Vec<Posting>> = df.into_iter().map(Vec::with_capacity).collect();
    for (doc, row) in rows.iter().enumerate() {
        let doc = DocId(doc as u32);
        for &(term, tf) in row {
            lists[term.index()].push(Posting { doc, tf });
        }
    }
    lists
}

impl InvertedIndex {
    /// Freezes posting lists over `num_docs` documents into an index —
    /// the one constructor, shared by the corpus builder, `Corpus::split`
    /// and the snapshot loader. Every list must be strictly sorted by
    /// document with every document `< num_docs`; the first list that is
    /// not is named in the error.
    ///
    /// A term goes dense when its df reaches one document per bitmap word
    /// (`df · 64 ≥ num_docs`) and gets its membership probe; the idf
    /// table is taken here too.
    pub fn from_lists(num_docs: u32, lists: Vec<Vec<Posting>>) -> Result<Self, PostingListError> {
        let n = num_docs as usize;
        for (slot, list) in lists.iter().enumerate() {
            let term = slot as u32;
            if !list.windows(2).all(|w| w[0].doc < w[1].doc) {
                return Err(PostingListError::UnsortedList { term });
            }
            if list.last().is_some_and(|p| p.doc.index() >= n) {
                return Err(PostingListError::DocOutOfRange { term });
            }
        }
        let probes = lists.iter().map(|list| dense_probe(n, list)).collect();
        let idf = lists
            .iter()
            .map(|list| match list.len() {
                0 => 0.0,
                df => (num_docs as f64 / df as f64).ln(),
            })
            .collect();
        Ok(Self {
            total_postings: lists.iter().map(|list| list.len() as u64).sum(),
            lists,
            probes,
            idf,
            num_docs,
        })
    }

    /// The membership probe of `term` over the document universe, when
    /// the term is dense (`None` for sparse and unseen terms).
    #[inline]
    pub(crate) fn probe(&self, term: TermId) -> Option<&Bitset> {
        self.probes.get(term.index())?.as_ref()
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

    /// Inverse document frequency with the standard `ln(N/df)` form, read
    /// from the table frozen with the index. Unseen terms get idf 0 (they
    /// retrieve nothing anyway).
    #[inline]
    pub fn idf(&self, term: TermId) -> f64 {
        self.idf.get(term.index()).copied().unwrap_or(0.0)
    }
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

    /// Freezes `rows` (document `i` is row `i`) through the same
    /// transpose the corpus builder uses.
    fn from_rows(rows: &[Vec<(TermId, u32)>]) -> InvertedIndex {
        InvertedIndex::from_lists(rows.len() as u32, lists_from_rows(rows))
            .expect("rows transpose in order")
    }

    fn sample_index() -> InvertedIndex {
        from_rows(&[
            vec![(t(0), 2), (t(1), 1)],
            vec![(t(1), 3)],
            vec![(t(0), 1), (t(2), 5)],
        ])
    }

    fn p(doc: u32) -> Posting {
        Posting { doc: d(doc), tf: 1 }
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
        let idx = InvertedIndex::from_lists(0, Vec::new()).unwrap();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.postings(t(0)), &[]);
        assert_eq!(idx.idf(t(0)), 0.0);
        assert!(idx.probe(t(0)).is_none());
    }

    #[test]
    fn finalize_picks_representation_by_density() {
        // 200 docs; t0 in every doc (dense → probe), t1 in two docs
        // (sparse → list only: 2 · 64 < 200).
        let rows: Vec<Vec<(TermId, u32)>> = (0..200)
            .map(|i| {
                if i == 3 || i == 150 {
                    vec![(t(0), 1), (t(1), 1)]
                } else {
                    vec![(t(0), 1)]
                }
            })
            .collect();
        let idx = from_rows(&rows);
        let dense = idx.probe(t(0)).expect("dense term has a probe");
        assert_eq!(dense.len(), 200);
        assert!(idx.probe(t(1)).is_none(), "sparse term has none");
        assert_eq!(idx.postings(t(1)), &[p(3), p(150)]);
        assert!(idx.probe(t(99)).is_none(), "unseen term has none");
        // The rule's boundary: df · 64 = num_docs is dense, one fewer
        // document in the list is not.
        let at = InvertedIndex::from_lists(128, vec![vec![p(0), p(127)]]).unwrap();
        let probe = at.probe(t(0)).expect("at the boundary");
        assert!(probe.contains(0) && probe.contains(127) && !probe.contains(1));
        let below = InvertedIndex::from_lists(129, vec![vec![p(0), p(128)]]).unwrap();
        assert!(below.probe(t(0)).is_none());
    }

    #[test]
    fn frozen_idf_table_has_the_bits_of_the_expression() {
        let rows: Vec<Vec<(TermId, u32)>> = (0..97u32)
            .map(|i| {
                let mut terms = vec![(t(0), 1)];
                terms.extend((1..8u32).filter(|k| i % k == 0).map(|k| (t(k), 1)));
                terms
            })
            .collect();
        let idx = from_rows(&rows);
        for k in 0..8 {
            let df = idx.df(t(k));
            assert_eq!(
                idx.idf(t(k)).to_bits(),
                (97f64 / f64::from(df)).ln().to_bits(),
                "term {k}, df {df}"
            );
        }
        assert_eq!(idx.idf(t(0)), 0.0, "a term in every document");
        assert_eq!(idx.idf(t(3)).to_bits(), (97f64 / 33f64).ln().to_bits());
        assert_eq!(idx.idf(t(9)), 0.0, "unseen");
    }

    #[test]
    fn from_lists_rejects_an_unsorted_list_naming_the_term() {
        let ok = vec![p(0), p(2)];
        for bad in [vec![p(3), p(1)], vec![p(1), p(1)]] {
            let err = InvertedIndex::from_lists(5, vec![ok.clone(), bad]).unwrap_err();
            assert_eq!(err, PostingListError::UnsortedList { term: 1 });
            assert!(err.to_string().contains("term 1"), "{err}");
        }
    }

    #[test]
    fn from_lists_rejects_a_document_out_of_range_naming_the_term() {
        let err =
            InvertedIndex::from_lists(3, vec![vec![p(0)], vec![], vec![p(1), p(3)]]).unwrap_err();
        assert_eq!(err, PostingListError::DocOutOfRange { term: 2 });
        assert!(err.to_string().contains("term 2"), "{err}");
        // No documents at all: any posting is out of range.
        let err = InvertedIndex::from_lists(0, vec![vec![p(0)]]).unwrap_err();
        assert_eq!(err, PostingListError::DocOutOfRange { term: 0 });
    }
}
