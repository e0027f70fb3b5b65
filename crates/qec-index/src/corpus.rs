//! Document store + corpus statistics.
//!
//! A [`Corpus`] owns the analyzer (and thus the shared term dictionary), the
//! per-document term multisets, the inverted index, and per-document
//! metadata. It is built once through [`CorpusBuilder`] and is immutable
//! afterwards — every downstream component (clustering, expansion,
//! benchmarks) reads from the same frozen corpus, which is what makes the
//! whole pipeline deterministic.
//!
//! [`CorpusBuilder::add_document`] analyses each document as it arrives,
//! through token and row buffers the builder reuses, so term ids are
//! assigned in first-occurrence order and the builder holds no document
//! body past its own call.

use std::sync::Arc;

use crate::doc::{DocId, DocumentSpec, Feature};
use crate::inverted::{lists_from_rows, InvertedIndex};
use qec_text::{Analyzer, AnalyzerConfig, TermId};

/// Per-document stored metadata (original strings kept for display).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    /// Document title as supplied.
    pub title: String,
    /// Structured features as supplied.
    pub features: Vec<Feature>,
    /// Ground-truth label, if the generator attached one.
    pub label: Option<u32>,
    /// Total token count after analysis (document length).
    pub len: u32,
}

/// Builder for [`Corpus`]. Documents receive dense ids in insertion order.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    analyzer: Analyzer,
    docs: Vec<StoredDoc>,
    /// One `(term, tf)` row per document; [`Self::build`] transposes them
    /// into the posting lists.
    doc_terms: Vec<Vec<(TermId, u32)>>,
    /// The token being analysed.
    token: String,
    /// The term ids of the document being analysed, in text order.
    terms: Vec<TermId>,
    /// The document's `(term, tf)` row as it is counted.
    row: Vec<(TermId, u32)>,
}

impl CorpusBuilder {
    /// Builder with the default analysis pipeline (stemming + stopwords).
    pub fn new() -> Self {
        Self::with_analyzer_config(AnalyzerConfig::default())
    }

    /// Builder with an explicit analyzer configuration.
    pub fn with_analyzer_config(config: AnalyzerConfig) -> Self {
        Self {
            analyzer: Analyzer::with_config(config),
            ..Self::default()
        }
    }

    /// Adds a document and returns its id. The document is analysed here,
    /// through the builder's reused buffers: analysing allocates only to
    /// intern a new term and to store the row at its exact size, never
    /// per token.
    ///
    /// Indexing covers: analysed title tokens, analysed body tokens, the
    /// atomic composite token of each feature, and the analysed feature
    /// value words (so `ipad` matches `product:name:iPad`).
    pub fn add_document(&mut self, spec: DocumentSpec) -> DocId {
        let id = DocId(u32::try_from(self.docs.len()).expect("too many documents"));
        let CorpusBuilder {
            analyzer,
            token,
            terms,
            row,
            ..
        } = self;
        terms.clear();
        analyzer.analyze_into(&spec.title, token, terms);
        analyzer.analyze_into(&spec.body, token, terms);
        for feature in &spec.features {
            feature.composite_token_into(token);
            terms.push(analyzer.intern_verbatim(token));
            analyzer.analyze_into(&feature.value, token, terms);
            analyzer.analyze_into(&feature.attribute, token, terms);
        }
        let len = terms.len() as u32;

        // Multiset → sorted (term, tf) pairs.
        terms.sort_unstable();
        row.clear();
        for &term in terms.iter() {
            match row.last_mut() {
                Some((last, tf)) if *last == term => *tf += 1,
                _ => row.push((term, 1)),
            }
        }
        self.doc_terms.push(row.to_vec());
        self.docs.push(StoredDoc {
            title: spec.title,
            features: spec.features,
            label: spec.label,
            len,
        });
        id
    }

    /// Freezes the builder into an immutable [`Corpus`]: the rows are
    /// transposed into an [`InvertedIndex`] whose posting lists are each
    /// allocated once, at their exact length.
    pub fn build(self) -> Corpus {
        Corpus {
            index: freeze(&self.doc_terms),
            analyzer: Arc::new(self.analyzer),
            docs: self.docs,
            doc_terms: self.doc_terms,
        }
    }
}

/// Freezes document rows into an index over `rows.len()` documents; the
/// transposed lists are valid by construction.
fn freeze(rows: &[Vec<(TermId, u32)>]) -> InvertedIndex {
    let num_docs = u32::try_from(rows.len()).expect("too many documents");
    InvertedIndex::from_lists(num_docs, lists_from_rows(rows))
        .expect("rows transposed in document order")
}

/// An immutable, fully indexed document collection.
///
/// The analyzer (and its term dictionary) lives behind an [`Arc`] so that
/// shards produced by [`split`](Corpus::split) share one dictionary with the
/// parent corpus: a `TermId` means the same thing in every shard, which is
/// what lets a gather engine analyse a query once and scatter raw term ids.
#[derive(Debug, Clone)]
pub struct Corpus {
    analyzer: Arc<Analyzer>,
    docs: Vec<StoredDoc>,
    doc_terms: Vec<Vec<(TermId, u32)>>,
    index: InvertedIndex,
}

/// Why [`Corpus::from_frozen_parts`] rejected its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusPartsError {
    /// `docs` and `doc_terms` differ in length.
    LengthMismatch {
        /// Number of stored documents supplied.
        docs: usize,
        /// Number of per-document term rows supplied.
        doc_terms: usize,
    },
    /// The index covers a different document count.
    IndexMismatch,
    /// A document's term row is not strictly sorted by term id.
    UnsortedDocTerms {
        /// Offending document.
        doc: u32,
    },
    /// A document references a term id beyond the dictionary.
    TermOutOfRange {
        /// Offending document.
        doc: u32,
    },
    /// A document's stored length is not the sum of its term frequencies.
    WrongDocLen {
        /// Offending document.
        doc: u32,
    },
}

impl std::fmt::Display for CorpusPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusPartsError::LengthMismatch { docs, doc_terms } => {
                write!(f, "{docs} stored docs but {doc_terms} term rows")
            }
            CorpusPartsError::IndexMismatch => {
                write!(f, "index covers a different doc count")
            }
            CorpusPartsError::UnsortedDocTerms { doc } => {
                write!(f, "term row of doc {doc} is not strictly sorted")
            }
            CorpusPartsError::TermOutOfRange { doc } => {
                write!(f, "doc {doc} references a term beyond the dictionary")
            }
            CorpusPartsError::WrongDocLen { doc } => {
                write!(f, "stored length of doc {doc} is not the sum of its tfs")
            }
        }
    }
}

impl std::error::Error for CorpusPartsError {}

impl Corpus {
    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// The analysis pipeline (and its term dictionary) — read access for
    /// serializers that persist the dictionary and analyzer config.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Reassembles a corpus from parts a snapshot loader decoded — the
    /// inverse of persisting `analyzer()` + per-doc metadata + the frozen
    /// index. Inputs are validated, not trusted: lengths must agree, the
    /// index must cover the same document count, every term row must be
    /// strictly sorted with in-dictionary ids, and each stored document
    /// length must equal the sum of its term frequencies (the invariant
    /// the builder's analysis path establishes).
    pub fn from_frozen_parts(
        analyzer: Analyzer,
        docs: Vec<StoredDoc>,
        doc_terms: Vec<Vec<(TermId, u32)>>,
        index: InvertedIndex,
    ) -> Result<Self, CorpusPartsError> {
        if docs.len() != doc_terms.len() {
            return Err(CorpusPartsError::LengthMismatch {
                docs: docs.len(),
                doc_terms: doc_terms.len(),
            });
        }
        if index.num_docs() as usize != docs.len() {
            return Err(CorpusPartsError::IndexMismatch);
        }
        let vocab = analyzer.vocab_size();
        for (i, (stored, row)) in docs.iter().zip(&doc_terms).enumerate() {
            let doc = i as u32;
            if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(CorpusPartsError::UnsortedDocTerms { doc });
            }
            if row.last().is_some_and(|&(t, _)| t.index() >= vocab) {
                return Err(CorpusPartsError::TermOutOfRange { doc });
            }
            let sum: u64 = row.iter().map(|&(_, tf)| u64::from(tf)).sum();
            if u64::from(stored.len) != sum {
                return Err(CorpusPartsError::WrongDocLen { doc });
            }
        }
        Ok(Corpus {
            analyzer: Arc::new(analyzer),
            docs,
            doc_terms,
            index,
        })
    }

    /// Vocabulary size (distinct analysed terms).
    pub fn vocab_size(&self) -> usize {
        self.analyzer.vocab_size()
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Stored metadata of `doc`.
    pub fn doc(&self, doc: DocId) -> &StoredDoc {
        &self.docs[doc.index()]
    }

    /// Sorted `(term, tf)` pairs of `doc`.
    pub fn doc_terms(&self, doc: DocId) -> &[(TermId, u32)] {
        &self.doc_terms[doc.index()]
    }

    /// Whether `doc` contains `term` — O(log #distinct-terms-of-doc).
    pub fn doc_contains(&self, doc: DocId, term: TermId) -> bool {
        self.doc_terms[doc.index()]
            .binary_search_by_key(&term, |&(t, _)| t)
            .is_ok()
    }

    /// Maps a raw query keyword to its analysed term id, if indexed.
    pub fn keyword_term(&self, keyword: &str) -> Option<TermId> {
        self.analyzer.lookup_keyword(keyword)
    }

    /// Maps a full keyword query (whitespace/comma separated) to term ids.
    /// Unknown and stopword keywords are dropped, mirroring a search engine
    /// that silently ignores non-matching terms.
    pub fn query_terms(&self, query: &str) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut buf = String::new();
        self.query_terms_into(query, &mut out, &mut buf);
        out
    }

    /// [`query_terms`](Self::query_terms) into caller-owned buffers: term
    /// ids land in `out` (cleared first) and `buf` is per-keyword token
    /// scratch. Once both buffers are warm this analyses a query with zero
    /// heap allocations — the serving engine probes its shared arena cache
    /// with exactly this path on every request.
    pub fn query_terms_into(&self, query: &str, out: &mut Vec<TermId>, buf: &mut String) {
        out.clear();
        for kw in query
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
        {
            if let Some(term) = self.analyzer.lookup_keyword_into(kw, buf) {
                out.push(term);
            }
        }
    }

    /// Human-readable name of a term.
    pub fn term_name(&self, term: TermId) -> &str {
        self.analyzer.dict().name_of(term)
    }

    /// All document ids.
    pub fn all_docs(&self) -> impl Iterator<Item = DocId> + '_ {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// Ground-truth label of `doc`, when present.
    pub fn label(&self, doc: DocId) -> Option<u32> {
        self.docs[doc.index()].label
    }

    /// Splits the corpus into `n` contiguous-`DocId` shards.
    ///
    /// Shard `i` holds global documents `[base(i), base(i)+len(i))` renumbered
    /// from local `DocId(0)`; shard sizes differ by at most one (earlier
    /// shards take the remainder). Each shard gets its own
    /// [`InvertedIndex`] frozen over its slice, while the analyzer — and
    /// with it the term dictionary, so `TermId`s stay globally valid — is
    /// shared via `Arc`. With fewer documents than shards the trailing
    /// shards are empty, which downstream retrieval treats as "no matches".
    ///
    /// Note that a shard's *statistics* (`idf`, `num_docs`) are shard-local;
    /// callers that need corpus-wide scoring across shards must supply
    /// global statistics themselves (see `TfIdfRanker::rank_with_idf_into`
    /// in this crate's `rank` module).
    pub fn split(&self, n: usize) -> Vec<Corpus> {
        let n = n.max(1);
        let total = self.docs.len();
        let base_len = total / n;
        let remainder = total % n;
        let mut shards = Vec::with_capacity(n);
        let mut start = 0usize;
        for i in 0..n {
            let len = base_len + usize::from(i < remainder);
            let end = start + len;
            shards.push(Corpus {
                index: freeze(&self.doc_terms[start..end]),
                analyzer: Arc::clone(&self.analyzer),
                docs: self.docs[start..end].to_vec(),
                doc_terms: self.doc_terms[start..end].to_vec(),
            });
            start = end;
        }
        debug_assert_eq!(start, total);
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Feature;

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document(DocumentSpec::text(
            "Apple Inc",
            "apple computers and the iphone store",
        ));
        b.add_document(DocumentSpec::text(
            "Apple fruit",
            "the apple is a fruit grown in orchards",
        ));
        b.add_document(
            DocumentSpec::structured(
                "Canon PowerShot",
                vec![
                    Feature::new("camera", "brand", "Canon"),
                    Feature::new("camera", "category", "cameras"),
                ],
            )
            .with_label(7),
        );
        b.build()
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut b = CorpusBuilder::new();
        let d0 = b.add_document(DocumentSpec::text("a", "x"));
        let d1 = b.add_document(DocumentSpec::text("b", "y"));
        assert_eq!(d0, DocId(0));
        assert_eq!(d1, DocId(1));
        assert_eq!(b.build().num_docs(), 2);
    }

    #[test]
    fn keyword_lookup_uses_same_analysis_as_documents() {
        let c = small_corpus();
        let apple = c.keyword_term("apples").expect("stemmed apple");
        // Both apple documents must contain the stemmed term.
        assert!(c.doc_contains(DocId(0), apple));
        assert!(c.doc_contains(DocId(1), apple));
        assert!(!c.doc_contains(DocId(2), apple));
    }

    #[test]
    fn stopwords_are_not_indexed() {
        let c = small_corpus();
        assert_eq!(c.keyword_term("the"), None);
    }

    #[test]
    fn features_index_composite_and_value_tokens() {
        let c = small_corpus();
        let canon = c.keyword_term("canon").unwrap();
        assert!(c.doc_contains(DocId(2), canon));
        // The composite token exists in the doc's term list.
        let has_composite = c
            .doc_terms(DocId(2))
            .iter()
            .any(|&(t, _)| c.term_name(t) == "camera:brand:canon");
        assert!(has_composite);
    }

    #[test]
    fn query_terms_splits_on_commas_and_whitespace() {
        let c = small_corpus();
        let terms = c.query_terms("Canon, cameras");
        assert_eq!(terms.len(), 2);
        let terms = c.query_terms("the of and");
        assert!(terms.is_empty());
    }

    #[test]
    fn doc_terms_are_sorted_with_tfs() {
        let c = small_corpus();
        for d in c.all_docs() {
            let terms = c.doc_terms(d);
            assert!(terms.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(terms.iter().all(|&(_, tf)| tf >= 1));
        }
    }

    #[test]
    fn label_passthrough() {
        let c = small_corpus();
        assert_eq!(c.label(DocId(0)), None);
        assert_eq!(c.label(DocId(2)), Some(7));
    }

    #[test]
    fn split_partitions_contiguously_with_balanced_sizes() {
        let mut b = CorpusBuilder::new();
        for i in 0..10 {
            b.add_document(DocumentSpec::text("t", format!("word{i} shared")));
        }
        let c = b.build();
        let shards = c.split(3);
        assert_eq!(shards.len(), 3);
        let sizes: Vec<usize> = shards.iter().map(Corpus::num_docs).collect();
        assert_eq!(sizes, vec![4, 3, 3], "earlier shards take the remainder");
        // Shard-local doc 0 of shard 1 is global doc 4.
        assert_eq!(shards[1].doc(DocId(0)).len, c.doc(DocId(4)).len);
        assert_eq!(shards[1].doc_terms(DocId(0)), c.doc_terms(DocId(4)));
    }

    #[test]
    fn split_shards_share_the_term_dictionary() {
        let mut b = CorpusBuilder::new();
        for i in 0..6 {
            b.add_document(DocumentSpec::text("t", format!("word{i} shared")));
        }
        let c = b.build();
        let shared = c.keyword_term("shared").unwrap();
        for shard in c.split(2) {
            assert_eq!(shard.keyword_term("shared"), Some(shared));
            assert_eq!(shard.index().df(shared), 3);
            assert_eq!(shard.term_name(shared), c.term_name(shared));
        }
    }

    #[test]
    fn split_with_more_shards_than_docs_leaves_trailing_shards_empty() {
        let mut b = CorpusBuilder::new();
        b.add_document(DocumentSpec::text("t", "only doc"));
        let c = b.build();
        let shards = c.split(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].num_docs(), 1);
        for shard in &shards[1..] {
            assert_eq!(shard.num_docs(), 0);
            assert_eq!(shard.keyword_term("doc"), c.keyword_term("doc"));
        }
    }

    #[test]
    fn repeated_words_accumulate_tf() {
        let mut b = CorpusBuilder::new();
        let d = b.add_document(DocumentSpec::text("t", "java java java island"));
        let c = b.build();
        let java = c.keyword_term("java").unwrap();
        assert_eq!(c.index().tf(java, d), 3);
    }
}
