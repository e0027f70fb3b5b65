//! Keyword-search substrate for the QEC reproduction.
//!
//! The paper assumes a keyword search engine over either text documents or
//! structured data, where *"a result of a query is obtained by finding the
//! data unit that contains all the query keywords"* (AND semantics, §2).
//! This crate provides that engine:
//!
//! * [`doc`] — the document model: text documents ("a set of words") and
//!   structured documents ("a set of `(entity:attribute:value)` features").
//! * [`corpus`] — document store plus corpus statistics, built through a
//!   shared [`qec_text::Analyzer`].
//! * [`inverted`] — the inverted index (term → posting list) with a frozen
//!   hybrid doc-id side.
//! * [`postings`] — hybrid posting representations (sorted ids / dense
//!   bitmap) and the adaptive galloping intersection kernels.
//! * [`search`] — boolean retrieval with AND and OR semantics.
//! * [`rank`] — TF-IDF ranking and top-k selection.
//! * [`term_matrix`] — a result list's term occurrences gathered once, by
//!   result and by term, for the cold build's two consumers.

pub mod corpus;
pub mod doc;
pub mod inverted;
pub mod postings;
pub mod rank;
pub mod search;
pub mod term_matrix;

pub use corpus::{Corpus, CorpusBuilder, CorpusPartsError, StoredDoc};
pub use doc::{DocId, DocumentSpec, Feature};
pub use inverted::{FrozenPartsError, FrozenPostings, InvertedIndex, Posting};
pub use postings::{intersect_sorted_into, DocBitmap, PostingsView};
pub use rank::{Hit, TfIdfRanker};
pub use search::{QuerySemantics, SearchScratch, Searcher};
pub use term_matrix::TermMatrix;
