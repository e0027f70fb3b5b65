//! The snapshot set of a sharded deployment: one doc store plus one
//! posting segment per shard, every document and posting stored once.
//!
//! ```text
//! dir/full.qsnap           META · DICT · DOCS    everything but postings
//! dir/shard-0-of-n.qsnap   SEGM · POST           range 0's posting lists
//! …
//! dir/shard-{n-1}-of-n.qsnap
//! ```
//!
//! Segment `i` holds the postings of range `i` of
//! [`doc_ranges`], with the corpus's own document
//! ids, and its SEGM section names that range and the doc store's
//! dictionary fingerprint (`dict_crc` + `vocab`). Every file is written
//! crash-safely like a single-file snapshot and framed, checksummed and
//! parsed by the same code.
//!
//! Loading reads one file at a time: the doc store, then each segment,
//! whose lists are appended to the lists of the segments before it, each
//! at exactly its new length. The concatenated lists are then frozen and
//! transposed once, as a single-file load does. A set either loads whole
//! or is refused whole, naming the file that failed: there is no second
//! copy of any part to fall back on.

use std::ops::Range;
use std::path::{Path, PathBuf};

use qec_index::{doc_ranges, Corpus, Posting};

use crate::crc::crc32;
use crate::error::SnapshotError;
use crate::format::{Reader, SET_VERSION, TAG_DICT, TAG_DOCS, TAG_META, TAG_POST, TAG_SEGM};
use crate::read::{
    assemble, check_total, corrupt, doc_store, drained, header, load_failpoint, parse_post_into,
    read_file, section, trailer, DocStore,
};
use crate::write::{
    dict_payload, docs_payload, frame, meta_payload, post_payload, write_atomically,
};
use crate::SnapshotSummary;

/// File name of a snapshot set's doc store (and of the single-file
/// snapshot an unsharded deployment writes in its place).
pub const FULL_SNAPSHOT: &str = "full.qsnap";

/// File name of segment `i` of an `n`-segment set.
fn segment_name(i: usize, n: usize) -> String {
    format!("shard-{i}-of-{n}.qsnap")
}

/// Writes `corpus` into `dir` (which must exist) as an `n`-segment set:
/// the doc store `full.qsnap`, then `shard-{i}-of-{n}.qsnap` for each
/// [`doc_ranges`] range, each file written crash-safely (see
/// [`save_corpus`](crate::save_corpus)). Returns one summary per file
/// in that order: the doc store's counts are the corpus's, a segment's
/// `num_docs` and `total_postings` its range's, and every one carries
/// the dictionary fingerprint.
pub fn save_corpus_set(
    corpus: &Corpus,
    dir: &Path,
    n: usize,
) -> Result<Vec<SnapshotSummary>, SnapshotError> {
    let index = corpus.index();
    let dict = dict_payload(corpus);
    let whole = SnapshotSummary {
        bytes: 0,
        num_docs: corpus.num_docs() as u64,
        vocab: corpus.vocab_size() as u64,
        index_terms: index.num_terms() as u64,
        total_postings: index.total_postings(),
        dict_crc: crc32(&dict),
    };
    let store = frame(
        SET_VERSION,
        &[
            (TAG_META, &meta_payload(corpus)),
            (TAG_DICT, &dict),
            (TAG_DOCS, &docs_payload(corpus)),
        ],
    );
    write_atomically(&dir.join(FULL_SNAPSHOT), &store)?;
    let mut summaries = vec![SnapshotSummary {
        bytes: store.len() as u64,
        ..whole
    }];
    drop(store);

    let ranges = doc_ranges(corpus.num_docs(), n);
    let count = ranges.len();
    for (i, range) in ranges.into_iter().enumerate() {
        let (post, postings) = post_payload(corpus, range.clone());
        let mut segm = Vec::with_capacity(36);
        segm.extend_from_slice(&range.start.to_le_bytes());
        segm.extend_from_slice(&range.end.to_le_bytes());
        segm.extend_from_slice(&whole.vocab.to_le_bytes());
        segm.extend_from_slice(&whole.dict_crc.to_le_bytes());
        segm.extend_from_slice(&whole.index_terms.to_le_bytes());
        segm.extend_from_slice(&postings.to_le_bytes());
        let buf = frame(SET_VERSION, &[(TAG_SEGM, &segm), (TAG_POST, &post)]);
        write_atomically(&dir.join(segment_name(i, count)), &buf)?;
        summaries.push(SnapshotSummary {
            bytes: buf.len() as u64,
            num_docs: u64::from(range.end - range.start),
            total_postings: postings,
            ..whole
        });
    }
    Ok(summaries)
}

/// Loads the `n`-segment set in `dir` written by [`save_corpus_set`]
/// into one corpus, identical to the saved one.
///
/// Every file passes the single-file loader's checks (framing, CRCs,
/// version — 3, a set file's — tfs, posting counts), and each segment's
/// SEGM section must name exactly its [`doc_ranges`] range of the doc
/// store's document count — a gap, an overlap or another shard count is
/// refused — and the doc store's dictionary fingerprint, or it is from
/// another generation. Each posting must ascend inside its segment's
/// range.
///
/// # Errors
/// The first file refused and why. A set is loaded whole or not at all.
/// Failpoint sites are the single-file loader's, checked per file:
/// `snapshot.load.header` before each file is read, `.meta`, `.dict`,
/// `.docs` in the doc store, `.post` in each segment and `.trailer` in
/// every file.
pub fn load_corpus_set(dir: &Path, n: usize) -> Result<Corpus, (PathBuf, SnapshotError)> {
    let store_path = dir.join(FULL_SNAPSHOT);
    let at = |path: &Path| {
        let path = path.to_path_buf();
        move |e| (path, e)
    };
    let store = load_doc_store(&store_path).map_err(at(&store_path))?;
    let meta = &store.meta;
    let ranges = doc_ranges(meta.num_docs as usize, n);
    let count = ranges.len();
    let mut lists = Vec::with_capacity(meta.index_terms as usize);
    let mut total = 0u64;
    let mut last = store_path.clone();
    for (i, range) in ranges.into_iter().enumerate() {
        last = dir.join(segment_name(i, count));
        let segment = Segment {
            i,
            n: count,
            docs: range,
            store: &store,
        };
        total += segment.load(&last, &mut lists).map_err(at(&last))?;
    }
    check_total(total, meta.total_postings, "the doc store").map_err(at(&last))?;
    assemble(store, lists).map_err(at(&store_path))
}

/// Reads the doc store at `path`.
fn load_doc_store(path: &Path) -> Result<DocStore, SnapshotError> {
    let buf = read_file(path)?;
    let mut r = Reader::new(&buf);
    header(&mut r, &buf, SET_VERSION)?;
    let store = doc_store(&mut r)?;
    trailer(&mut r, &buf)?;
    Ok(store)
}

/// What a segment file must be: segment `i` of `n`, holding `docs`, of
/// the set whose doc store is `store`.
struct Segment<'s> {
    i: usize,
    n: usize,
    docs: Range<u32>,
    store: &'s DocStore,
}

impl Segment<'_> {
    /// Reads the segment at `path`, appends its posting lists to
    /// `lists` and returns its posting count.
    fn load(&self, path: &Path, lists: &mut Vec<Vec<Posting>>) -> Result<u64, SnapshotError> {
        let buf = read_file(path)?;
        let mut r = Reader::new(&buf);
        header(&mut r, &buf, SET_VERSION)?;
        let (segm, _) = section(&mut r, TAG_SEGM, "segment")?;
        let postings = self.check_header(segm)?;

        load_failpoint("snapshot.load.post")?;
        let (post, _) = section(&mut r, TAG_POST, "post")?;
        let slots = self.store.meta.index_terms;
        let total = parse_post_into(post, slots, Some(self.docs.clone()), lists)?;
        check_total(total, postings, "the segment header")?;
        trailer(&mut r, &buf)?;
        Ok(total)
    }

    /// Checks the SEGM payload against the doc store and the range this
    /// segment must hold; returns the posting count it declares.
    fn check_header(&self, payload: &[u8]) -> Result<u64, SnapshotError> {
        let mut r = Reader::new(payload);
        r.set_context("segment");
        let (lo, hi) = (r.u32()?, r.u32()?);
        let vocab = r.u64()?;
        let dict_crc = r.u32()?;
        let index_terms = r.u64()?;
        let postings = r.u64()?;
        drained(&r, "segment")?;
        let meta = &self.store.meta;
        if vocab != meta.vocab || dict_crc != self.store.dict_crc {
            return Err(corrupt(
                "segment",
                "dictionary fingerprint disagrees with the doc store's \
                 (a segment of another snapshot generation)",
            ));
        }
        if (lo..hi) != self.docs {
            return Err(corrupt(
                "segment",
                format!(
                    "holds documents {lo}..{hi} where segment {} of {} over {} documents holds {:?}",
                    self.i, self.n, meta.num_docs, self.docs
                ),
            ));
        }
        if index_terms != meta.index_terms {
            return Err(corrupt(
                "segment",
                format!(
                    "{index_terms} term slots where the doc store has {}",
                    meta.index_terms
                ),
            ));
        }
        Ok(postings)
    }
}
