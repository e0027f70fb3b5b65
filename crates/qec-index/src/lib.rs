//! Keyword-search substrate for the QEC reproduction.
//!
//! The paper assumes a keyword search engine over either text documents or
//! structured data, where *"a result of a query is obtained by finding the
//! data unit that contains all the query keywords"* (AND semantics, §2).
//! This crate provides that engine:
//!
//! * the document model ([`DocumentSpec`], [`Feature`]): text documents
//!   ("a set of words") and structured documents ("a set of
//!   `(entity:attribute:value)` features").
//! * [`Corpus`] — document store plus corpus statistics, built through a
//!   shared [`qec_text::Analyzer`] by a [`CorpusBuilder`].
//! * [`InvertedIndex`] — the inverted index (term → posting list), frozen
//!   by [`InvertedIndex::from_lists`] with an idf table and a membership
//!   probe per dense term.
//! * [`Searcher`] — boolean retrieval with AND and OR semantics.
//! * [`TfIdfRanker`] — TF-IDF ranking and top-k selection.
//! * [`TermMatrix`] — a result list's term occurrences gathered once, by
//!   result and by term, for the cold build's two consumers.
//!
//! Retrieval and ranking walk the same posting lists through one adaptive
//! linear/galloping merge-join, switching at [`GALLOP_RATIO`].

mod corpus;
mod doc;
mod inverted;
mod postings;
mod rank;
mod search;
mod term_matrix;

pub use corpus::{Corpus, CorpusBuilder, CorpusPartsError, StoredDoc};
pub use doc::{DocId, DocumentSpec, Feature};
pub use inverted::{InvertedIndex, Posting, PostingListError};
pub use postings::GALLOP_RATIO;
pub use rank::{Hit, TfIdfRanker};
pub use search::{QuerySemantics, SearchScratch, Searcher};
pub use term_matrix::TermMatrix;
