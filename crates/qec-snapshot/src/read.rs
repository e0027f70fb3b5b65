//! The strict validation load path.
//!
//! Loading is a two-tier defense. Tier one is *structural*: magic,
//! version, section order, section lengths, per-section CRC32, and the
//! whole-file trailer CRC — any bit flip or truncation anywhere in the
//! file fails here with a typed [`SnapshotError`], never a panic. Tier
//! two is *semantic*: even bytes with valid checksums must describe an
//! index a fresh build could have produced — dense dictionary ids,
//! strictly sorted in-range posting lists with non-zero tfs, the posting
//! total, and per-document length sums. Each check runs once: the
//! constructors in `qec-index` (`InvertedIndex::from_lists`,
//! `Corpus::from_frozen_parts`) enforce their own, and their typed
//! rejections surface as [`SnapshotError::Corrupt`] naming the section;
//! this module checks only what they do not.
//!
//! Nothing derived is read from disk: the per-document term rows are
//! rebuilt as the transpose of the posting lists, and the dense terms'
//! membership bitmaps and the idf table are frozen from them by
//! `InvertedIndex::from_lists` exactly as a build freezes them, so no two
//! views of the corpus can disagree.

use std::path::Path;

use qec_index::{Corpus, DocId, Feature, InvertedIndex, Posting, StoredDoc};
use qec_text::{Analyzer, AnalyzerConfig, TermId};

use crate::crc::crc32;
use crate::error::SnapshotError;
use crate::format::{Reader, MAGIC, TAG_DICT, TAG_DOCS, TAG_META, TAG_POST, TAG_TRLR, VERSION};
use crate::{failpoint, SnapshotSummary};

fn load_failpoint(site: &'static str) -> Result<(), SnapshotError> {
    failpoint(site).map_err(SnapshotError::Io)
}

/// Reads one framed section: tag must match, payload must verify against
/// its stored CRC. Returns the payload and its CRC.
fn section<'a>(
    r: &mut Reader<'a>,
    tag: [u8; 4],
    name: &'static str,
) -> Result<(&'a [u8], u32), SnapshotError> {
    r.set_context(name);
    let found = r.bytes(4)?;
    if found != tag {
        return Err(SnapshotError::UnexpectedSection {
            expected: name,
            found: [found[0], found[1], found[2], found[3]],
        });
    }
    let len = r.u64()?;
    let payload = r.bytes(len as usize)?;
    let stored = r.u32()?;
    if crc32(payload) != stored {
        return Err(SnapshotError::ChecksumMismatch { section: name });
    }
    Ok((payload, stored))
}

fn corrupt(section: &'static str, detail: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt {
        section,
        detail: detail.to_string(),
    }
}

/// Pre-allocation guard for untrusted counts: a corrupted (but
/// CRC-consistent) count field must not drive `Vec::with_capacity` into
/// an abort. Capacity is capped at what the remaining payload could
/// possibly encode (`min_bytes_each` per element); the element loop
/// itself then fails with a typed `Truncated` long before memory does.
fn capped(count: usize, min_bytes_each: usize, remaining: usize) -> usize {
    count.min(remaining / min_bytes_each.max(1))
}

/// Checks a section's payload reader consumed every byte.
fn drained(r: &Reader<'_>, name: &'static str) -> Result<(), SnapshotError> {
    if r.remaining() != 0 {
        return Err(corrupt(
            name,
            format!("{} unconsumed payload bytes", r.remaining()),
        ));
    }
    Ok(())
}

struct Meta {
    num_docs: u64,
    vocab: u64,
    index_terms: u64,
    total_postings: u64,
    config: AnalyzerConfig,
}

fn parse_meta(payload: &[u8]) -> Result<Meta, SnapshotError> {
    let mut r = Reader::new(payload);
    r.set_context("meta");
    let num_docs = r.u64()?;
    let vocab = r.u64()?;
    let index_terms = r.u64()?;
    let total_postings = r.u64()?;
    let stem = r.u8()?;
    let filter_stopwords = r.u8()?;
    drained(&r, "meta")?;
    if num_docs > u64::from(u32::MAX) {
        return Err(corrupt(
            "meta",
            format!("{num_docs} documents overflow u32"),
        ));
    }
    if index_terms > vocab {
        return Err(corrupt(
            "meta",
            format!("{index_terms} index terms exceed vocabulary of {vocab}"),
        ));
    }
    if stem > 1 || filter_stopwords > 1 {
        return Err(corrupt("meta", "analyzer flags must be 0 or 1"));
    }
    Ok(Meta {
        num_docs,
        vocab,
        index_terms,
        total_postings,
        config: AnalyzerConfig {
            stem: stem == 1,
            filter_stopwords: filter_stopwords == 1,
        },
    })
}

fn parse_dict(payload: &[u8], meta: &Meta) -> Result<Analyzer, SnapshotError> {
    let mut r = Reader::new(payload);
    r.set_context("dict");
    let mut analyzer = Analyzer::with_config(meta.config.clone());
    for expected in 0..meta.vocab {
        let name = r.string("dict")?;
        let id = analyzer.intern_verbatim(&name);
        if u64::from(id.0) != expected {
            return Err(corrupt(
                "dict",
                format!("term `{name}` is a duplicate (slot {expected})"),
            ));
        }
    }
    drained(&r, "dict")?;
    Ok(analyzer)
}

fn parse_docs(payload: &[u8], meta: &Meta) -> Result<Vec<StoredDoc>, SnapshotError> {
    let mut r = Reader::new(payload);
    r.set_context("docs");
    // Each stored doc needs at least 13 bytes (title len + label flag +
    // doc len + feature count).
    let mut docs = Vec::with_capacity(capped(meta.num_docs as usize, 13, r.remaining()));
    for _ in 0..meta.num_docs {
        let title = r.string("docs")?;
        let label = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            flag => return Err(corrupt("docs", format!("label flag {flag} must be 0 or 1"))),
        };
        let len = r.u32()?;
        let feature_count = r.u32()?;
        // A feature is at least three empty length-prefixed strings.
        let mut features = Vec::with_capacity(capped(feature_count as usize, 12, r.remaining()));
        for _ in 0..feature_count {
            let entity = r.string("docs")?;
            let attribute = r.string("docs")?;
            let value = r.string("docs")?;
            features.push(Feature {
                entity,
                attribute,
                value,
            });
        }
        docs.push(StoredDoc {
            title,
            features,
            label,
            len,
        });
    }
    drained(&r, "docs")?;
    Ok(docs)
}

/// Decodes POST into posting lists. Order and range are left to
/// `InvertedIndex::from_lists`; what it does not check is checked here:
/// a zero tf, and the posting total against META's.
fn parse_post(payload: &[u8], meta: &Meta) -> Result<Vec<Vec<Posting>>, SnapshotError> {
    let mut r = Reader::new(payload);
    r.set_context("post");
    let mut lists = Vec::with_capacity(capped(meta.index_terms as usize, 4, r.remaining()));
    let mut total = 0u64;
    for slot in 0..meta.index_terms as u32 {
        let df = r.u32()? as usize;
        let mut list = Vec::with_capacity(capped(df, 8, r.remaining()));
        for _ in 0..df {
            let doc = r.u32()?;
            let tf = r.u32()?;
            if tf == 0 {
                return Err(corrupt(
                    "post",
                    format!("zero term frequency for term {slot} in doc {doc}"),
                ));
            }
            list.push(Posting {
                doc: DocId(doc),
                tf,
            });
        }
        total += df as u64;
        lists.push(list);
    }
    drained(&r, "post")?;
    if total != meta.total_postings {
        return Err(corrupt(
            "post",
            format!(
                "posting count {total} disagrees with meta's {}",
                meta.total_postings
            ),
        ));
    }
    Ok(lists)
}

/// Rebuilds the per-document term rows as the transpose of the posting
/// lists. Outer loop ascends by term, so each row comes out sorted by
/// term id — the corpus invariant — without a sort.
fn transpose(index: &InvertedIndex) -> Vec<Vec<(TermId, u32)>> {
    let terms = || (0..index.num_terms() as u32).map(TermId);
    let mut row_lens = vec![0usize; index.num_docs() as usize];
    for term in terms() {
        for p in index.postings(term) {
            row_lens[p.doc.index()] += 1;
        }
    }
    let mut rows: Vec<Vec<(TermId, u32)>> = row_lens.into_iter().map(Vec::with_capacity).collect();
    for term in terms() {
        for p in index.postings(term) {
            rows[p.doc.index()].push((term, p.tf));
        }
    }
    rows
}

/// Loads and validates the snapshot at `path`. See
/// [`load_corpus_with_summary`] for the summary-returning variant.
pub fn load_corpus(path: &Path) -> Result<Corpus, SnapshotError> {
    load_corpus_with_summary(path).map(|(corpus, _)| corpus)
}

/// Loads and validates the snapshot at `path`, returning the corpus and
/// a [`SnapshotSummary`] (byte size, counts, dictionary fingerprint —
/// what sharded loads use to verify that a set of files belongs to one
/// generation).
///
/// Failpoint sites (chaos tests): `snapshot.load.header`,
/// `snapshot.load.meta`, `.dict`, `.docs`, `.post`, `.trailer` — each
/// fires before its section is touched.
pub fn load_corpus_with_summary(path: &Path) -> Result<(Corpus, SnapshotSummary), SnapshotError> {
    load_failpoint("snapshot.load.header")?;
    let buf = std::fs::read(path)?;
    let mut r = Reader::new(&buf);

    // Header: magic, version, header CRC.
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    let header_crc = r.u32()?;
    if crc32(&buf[..12]) != header_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "header" });
    }
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }

    load_failpoint("snapshot.load.meta")?;
    let (meta_payload, _) = section(&mut r, TAG_META, "meta")?;
    let meta = parse_meta(meta_payload)?;

    load_failpoint("snapshot.load.dict")?;
    let (dict_payload, dict_crc) = section(&mut r, TAG_DICT, "dict")?;
    let analyzer = parse_dict(dict_payload, &meta)?;

    load_failpoint("snapshot.load.docs")?;
    let (docs_payload, _) = section(&mut r, TAG_DOCS, "docs")?;
    let docs = parse_docs(docs_payload, &meta)?;

    load_failpoint("snapshot.load.post")?;
    let (post_payload, _) = section(&mut r, TAG_POST, "post")?;
    let lists = parse_post(post_payload, &meta)?;

    // Trailer: whole-file CRC over everything before the trailer tag,
    // then exact EOF.
    load_failpoint("snapshot.load.trailer")?;
    r.set_context("trailer");
    let body_end = r.pos();
    let tag = r.bytes(4)?;
    if tag != TAG_TRLR {
        return Err(SnapshotError::UnexpectedSection {
            expected: "trailer",
            found: [tag[0], tag[1], tag[2], tag[3]],
        });
    }
    let file_crc = r.u32()?;
    if crc32(&buf[..body_end]) != file_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "trailer" });
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            extra: r.remaining(),
        });
    }

    // Assembly through the validating constructors. The index is frozen
    // first: it proves every posting in range, which the transpose needs.
    let index =
        InvertedIndex::from_lists(meta.num_docs as u32, lists).map_err(|e| corrupt("post", e))?;
    let rows = transpose(&index);
    let corpus =
        Corpus::from_frozen_parts(analyzer, docs, rows, index).map_err(|e| corrupt("docs", e))?;

    let summary = SnapshotSummary {
        bytes: buf.len() as u64,
        num_docs: meta.num_docs,
        vocab: meta.vocab,
        index_terms: meta.index_terms,
        total_postings: meta.total_postings,
        dict_crc,
    };
    Ok((corpus, summary))
}
