//! Crash-safe persistence for the frozen QEC index.
//!
//! Every process used to rebuild the whole index in memory from scratch;
//! this crate gives the engine a durable boot path. A snapshot is a
//! single file holding what [`qec_index::Corpus`] cannot derive: the
//! analyzer configuration and term dictionary, per-document stored
//! metadata, and every posting list. Loading it skips the expensive half
//! of a build — tokenization, stemming, dictionary hashing — and freezes
//! the decoded posting lists with the same `InvertedIndex::from_lists` a
//! build uses.
//!
//! Layout, format version 2 (all integers little-endian; see the `format`
//! module for the diagram):
//!
//! ```text
//! "QECSNAP1" · version · header-CRC
//! META  corpus counts + analyzer config          (CRC32)
//! DICT  term names in dense-id order             (CRC32)
//! DOCS  title / features / label / length per doc (CRC32)
//! POST  per-term posting lists (doc, tf)         (CRC32)
//! TRLR  whole-file CRC32
//! ```
//!
//! Version 1 also stored the dense terms' bitmaps; a loader refuses it
//! with `UnsupportedVersion { found: 1 }`, and the engine rebuilds.
//!
//! Durability protocol — the previous snapshot is **never clobbered**:
//! [`save_corpus`] encodes into a sibling temp file, `fsync`s it,
//! publishes it with an atomic `rename`, then `fsync`s the parent
//! directory. A crash (or injected fault — sites `snapshot.write`,
//! `snapshot.fsync`) at any step leaves the prior generation loadable.
//!
//! Loading — [`load_corpus`] — **never panics** on bad input: a strict
//! structural pass (magic, version, section framing, per-section CRCs,
//! trailer CRC, exact EOF) and a semantic pass (dictionary density,
//! posting order, ranges and tfs, document-length sums) each reject with
//! a typed [`SnapshotError`]. Nothing derived is stored: the loader
//! rebuilds the per-document term rows as the transpose of the posting
//! lists, and the dense terms' bitmaps and the idf table by freezing
//! them, so the file cannot hold two disagreeing copies of the corpus.

mod crc;
mod error;
mod format;
mod read;
mod write;

pub use crc::{crc32, Crc32};
pub use error::SnapshotError;
pub use read::{load_corpus, load_corpus_with_summary};
pub use write::save_corpus;

/// What a save produced or a load verified: sizes, counts, and the
/// dictionary fingerprint used to check that a sharded snapshot set
/// belongs to one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Documents in the corpus.
    pub num_docs: u64,
    /// Dictionary size (distinct analyzed terms).
    pub vocab: u64,
    /// Posting-list slots in the index (`<= vocab`).
    pub index_terms: u64,
    /// Total `(term, doc)` postings.
    pub total_postings: u64,
    /// CRC32 of the dictionary section payload. Two snapshots with equal
    /// `dict_crc` (and `vocab`) interned the same terms in the same
    /// order, so their `TermId`s are interchangeable — the property a
    /// gather engine needs before trusting per-shard snapshot files.
    pub dict_crc: u32,
}

/// Fault-injection shim: a named IO site that chaos tests can arm
/// (`FailAction::ReturnErr(kind)` surfaces as the corresponding
/// `io::Error`). Compiled to a no-op without the `failpoints` feature.
pub(crate) fn failpoint(site: &'static str) -> std::io::Result<()> {
    #[cfg(feature = "failpoints")]
    qec_failpoint::check(site).map_err(std::io::Error::from)?;
    #[cfg(not(feature = "failpoints"))]
    let _ = site;
    Ok(())
}
