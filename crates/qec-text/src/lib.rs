//! Text-analysis substrate for the QEC reproduction.
//!
//! This crate provides the pieces of a classic IR text pipeline that the
//! paper's search engine assumes but never describes: a tokenizer, the
//! Porter stemming algorithm, an English stopword list, and an interning
//! term dictionary. The pipeline is composed by [`Analyzer`].
//!
//! Design notes
//! ------------
//! * Terms are interned into dense `u32` ids ([`TermId`]) so that the
//!   downstream index, clustering and expansion crates can use vectors and
//!   bitsets instead of string maps on their hot paths.
//! * The hasher used by the dictionary is a small FxHash-style multiply-xor
//!   hasher (see [`fxhash`]); term interning is the hottest string operation
//!   in the whole system and SipHash would dominate profiles otherwise.
//! * Everything is deterministic: no randomness, no iteration-order
//!   dependence escapes this crate.

mod analyzer;
mod dict;
pub mod fxhash;
mod stem;
mod stopwords;
mod token;

pub use analyzer::{Analyzer, AnalyzerConfig};
pub use dict::{TermDict, TermId};
pub use stem::PorterStemmer;
pub use stopwords::StopwordList;
pub use token::Tokenizer;
