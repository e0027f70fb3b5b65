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

use std::ops::Range;
use std::path::Path;

use qec_index::{Corpus, DocId, Feature, InvertedIndex, Posting, StoredDoc};
use qec_text::{Analyzer, AnalyzerConfig, TermId};

use crate::crc::crc32;
use crate::error::SnapshotError;
use crate::failpoint;
use crate::format::{Reader, MAGIC, TAG_DICT, TAG_DOCS, TAG_META, TAG_POST, TAG_TRLR, VERSION};

pub(crate) fn load_failpoint(site: &'static str) -> Result<(), SnapshotError> {
    failpoint(site).map_err(SnapshotError::Io)
}

/// Reads one framed section: tag must match, payload must verify against
/// its stored CRC. Returns the payload and its CRC.
pub(crate) fn section<'a>(
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

pub(crate) fn corrupt(section: &'static str, detail: impl std::fmt::Display) -> SnapshotError {
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
pub(crate) fn drained(r: &Reader<'_>, name: &'static str) -> Result<(), SnapshotError> {
    if r.remaining() != 0 {
        return Err(corrupt(
            name,
            format!("{} unconsumed payload bytes", r.remaining()),
        ));
    }
    Ok(())
}

pub(crate) struct Meta {
    pub(crate) num_docs: u64,
    pub(crate) vocab: u64,
    pub(crate) index_terms: u64,
    pub(crate) total_postings: u64,
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

/// Decodes a POST payload of `slots` posting lists, appending list `i`
/// to `lists[i]` (created when missing) at exactly its new length, and
/// returns the postings decoded. A zero tf is refused here. Order and
/// range are left to `InvertedIndex::from_lists`, except in a segment
/// (`segment` = its documents): a segment's lists are appended to the
/// lists of the segments before it, so each posting must ascend inside
/// the segment's range, and a refusal names the segment's file rather
/// than the assembled index.
pub(crate) fn parse_post_into(
    payload: &[u8],
    slots: u64,
    segment: Option<Range<u32>>,
    lists: &mut Vec<Vec<Posting>>,
) -> Result<u64, SnapshotError> {
    let mut r = Reader::new(payload);
    r.set_context("post");
    let mut total = 0u64;
    for slot in 0..slots as u32 {
        let df = r.u32()? as usize;
        if lists.len() == slot as usize {
            lists.push(Vec::new());
        }
        let list = &mut lists[slot as usize];
        list.reserve_exact(capped(df, 8, r.remaining()));
        let mut next = segment.as_ref().map_or(0, |s| s.start);
        for _ in 0..df {
            let doc = r.u32()?;
            let tf = r.u32()?;
            if tf == 0 {
                return Err(corrupt(
                    "post",
                    format!("zero term frequency for term {slot} in doc {doc}"),
                ));
            }
            if let Some(range) = &segment {
                if !range.contains(&doc) {
                    return Err(corrupt(
                        "post",
                        format!(
                            "term {slot} names doc {doc}, outside the segment's documents {range:?}"
                        ),
                    ));
                }
                if doc < next {
                    return Err(corrupt(
                        "post",
                        format!("posting list of term {slot} is not strictly sorted"),
                    ));
                }
                next = doc + 1;
            }
            list.push(Posting {
                doc: DocId(doc),
                tf,
            });
        }
        total += df as u64;
    }
    drained(&r, "post")?;
    Ok(total)
}

/// Refuses a posting total that disagrees with the count `what` stored.
pub(crate) fn check_total(total: u64, stored: u64, what: &str) -> Result<(), SnapshotError> {
    if total != stored {
        return Err(corrupt(
            "post",
            format!("posting count {total} disagrees with {what}'s {stored}"),
        ));
    }
    Ok(())
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

/// Reads the file at `path` whole.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    load_failpoint("snapshot.load.header")?;
    Ok(std::fs::read(path)?)
}

/// Checks the header of the file image `buf` at `r`: magic, header CRC,
/// then `version`.
pub(crate) fn header(r: &mut Reader<'_>, buf: &[u8], version: u32) -> Result<(), SnapshotError> {
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let found = r.u32()?;
    let header_crc = r.u32()?;
    if crc32(&buf[..12]) != header_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "header" });
    }
    if found != version {
        return Err(SnapshotError::UnsupportedVersion { found });
    }
    Ok(())
}

/// Checks the trailer: its tag, the CRC32 of every byte before it, and
/// exact EOF.
pub(crate) fn trailer(r: &mut Reader<'_>, buf: &[u8]) -> Result<(), SnapshotError> {
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
    Ok(())
}

/// What the META, DICT and DOCS sections hold: everything of a corpus
/// but its postings.
pub(crate) struct DocStore {
    pub(crate) meta: Meta,
    /// CRC32 of the DICT payload: the dictionary fingerprint.
    pub(crate) dict_crc: u32,
    analyzer: Analyzer,
    docs: Vec<StoredDoc>,
}

/// Decodes the META, DICT and DOCS sections at `r`.
pub(crate) fn doc_store(r: &mut Reader<'_>) -> Result<DocStore, SnapshotError> {
    load_failpoint("snapshot.load.meta")?;
    let (meta_payload, _) = section(r, TAG_META, "meta")?;
    let meta = parse_meta(meta_payload)?;

    load_failpoint("snapshot.load.dict")?;
    let (dict_payload, dict_crc) = section(r, TAG_DICT, "dict")?;
    let analyzer = parse_dict(dict_payload, &meta)?;

    load_failpoint("snapshot.load.docs")?;
    let (docs_payload, _) = section(r, TAG_DOCS, "docs")?;
    let docs = parse_docs(docs_payload, &meta)?;
    Ok(DocStore {
        meta,
        dict_crc,
        analyzer,
        docs,
    })
}

/// Assembles the corpus through the validating constructors. The index
/// is frozen first: it proves every posting in range, which the
/// transpose needs.
pub(crate) fn assemble(store: DocStore, lists: Vec<Vec<Posting>>) -> Result<Corpus, SnapshotError> {
    let index = InvertedIndex::from_lists(store.meta.num_docs as u32, lists)
        .map_err(|e| corrupt("post", e))?;
    let rows = transpose(&index);
    Corpus::from_frozen_parts(store.analyzer, store.docs, rows, index)
        .map_err(|e| corrupt("docs", e))
}

/// Loads and validates the single-file snapshot at `path`.
///
/// Failpoint sites (chaos tests): `snapshot.load.header`,
/// `snapshot.load.meta`, `.dict`, `.docs`, `.post`, `.trailer` — each
/// fires before its section is touched.
pub fn load_corpus(path: &Path) -> Result<Corpus, SnapshotError> {
    let buf = read_file(path)?;
    let mut r = Reader::new(&buf);
    header(&mut r, &buf, VERSION)?;
    let store = doc_store(&mut r)?;

    load_failpoint("snapshot.load.post")?;
    let (post_payload, _) = section(&mut r, TAG_POST, "post")?;
    let mut lists = Vec::with_capacity(capped(
        store.meta.index_terms as usize,
        4,
        post_payload.len(),
    ));
    let total = parse_post_into(post_payload, store.meta.index_terms, None, &mut lists)?;
    check_total(total, store.meta.total_postings, "meta")?;

    trailer(&mut r, &buf)?;
    assemble(store, lists)
}
