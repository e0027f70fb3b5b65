//! Encoding and the crash-safe write protocol.
//!
//! A save never touches the destination path until the complete new
//! snapshot is durable: the encoded bytes go to a sibling temp file,
//! `File::sync_all` forces them to disk, an atomic `rename` publishes
//! them, and a final fsync of the parent directory makes the rename
//! itself durable. A crash (or injected fault) at any point leaves the
//! previous snapshot generation untouched — at worst an orphaned
//! `*.tmp` file remains, which the next successful save of the same
//! process overwrites.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use qec_index::Corpus;
use qec_text::TermId;

use crate::crc::crc32;
use crate::error::SnapshotError;
use crate::format::{put_str, MAGIC, TAG_DICT, TAG_DOCS, TAG_META, TAG_POST, TAG_TRLR, VERSION};
use crate::{failpoint, SnapshotSummary};

fn put_section(buf: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    buf.extend_from_slice(&tag);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Encodes `corpus` into the full snapshot byte image.
fn encode(corpus: &Corpus) -> (Vec<u8>, SnapshotSummary) {
    let analyzer = corpus.analyzer();
    let index = corpus.index();
    let num_docs = corpus.num_docs() as u64;
    let vocab = analyzer.vocab_size() as u64;
    let index_terms = index.num_terms() as u64;

    // META — corpus-wide counts + the analyzer configuration, so a load
    // reconstructs the identical pipeline before interning a single term.
    let config = analyzer.config();
    let mut meta = Vec::with_capacity(34);
    meta.extend_from_slice(&num_docs.to_le_bytes());
    meta.extend_from_slice(&vocab.to_le_bytes());
    meta.extend_from_slice(&index_terms.to_le_bytes());
    meta.extend_from_slice(&index.total_postings().to_le_bytes());
    meta.push(u8::from(config.stem));
    meta.push(u8::from(config.filter_stopwords));

    // DICT — term names in dense-id order; re-interning them in order
    // reproduces the exact id assignment.
    let mut dict = Vec::new();
    for (_, name) in analyzer.dict().iter() {
        put_str(&mut dict, name);
    }
    let dict_crc = crc32(&dict);

    // DOCS — stored metadata only. The per-document term rows are *not*
    // persisted: they are the exact transpose of the posting lists, and
    // the loader rebuilds them from POST — one source of truth on disk
    // means the two can never disagree.
    let mut docs = Vec::new();
    for d in corpus.all_docs() {
        let stored = corpus.doc(d);
        put_str(&mut docs, &stored.title);
        match stored.label {
            Some(label) => {
                docs.push(1);
                docs.extend_from_slice(&label.to_le_bytes());
            }
            None => docs.push(0),
        }
        docs.extend_from_slice(&stored.len.to_le_bytes());
        docs.extend_from_slice(&(stored.features.len() as u32).to_le_bytes());
        for feature in &stored.features {
            put_str(&mut docs, &feature.entity);
            put_str(&mut docs, &feature.attribute);
            put_str(&mut docs, &feature.value);
        }
    }

    // POST — every term's posting list. Nothing derived from them is
    // stored: the dense terms' membership bitmaps and the idf table are
    // re-derived on load by the constructor that froze this index, so a
    // flipped bit can't smuggle in a disagreeing copy.
    let mut post = Vec::with_capacity(index.total_postings() as usize * 8 + 4);
    for slot in 0..index_terms {
        let term = TermId(slot as u32);
        let list = index.postings(term);
        post.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for p in list {
            post.extend_from_slice(&p.doc.0.to_le_bytes());
            post.extend_from_slice(&p.tf.to_le_bytes());
        }
    }

    let mut buf =
        Vec::with_capacity(16 + meta.len() + dict.len() + docs.len() + post.len() + 4 * 16 + 8);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let header_crc = crc32(&buf);
    buf.extend_from_slice(&header_crc.to_le_bytes());
    put_section(&mut buf, TAG_META, &meta);
    put_section(&mut buf, TAG_DICT, &dict);
    put_section(&mut buf, TAG_DOCS, &docs);
    put_section(&mut buf, TAG_POST, &post);
    let file_crc = crc32(&buf);
    buf.extend_from_slice(&TAG_TRLR);
    buf.extend_from_slice(&file_crc.to_le_bytes());

    let summary = SnapshotSummary {
        bytes: buf.len() as u64,
        num_docs,
        vocab,
        index_terms,
        total_postings: index.total_postings(),
        dict_crc,
    };
    (buf, summary)
}

fn temp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "snapshot".into());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Writes `corpus` to `path` crash-safely: encode → sibling temp file →
/// fsync → atomic rename → fsync parent directory. On any failure the
/// previous snapshot at `path` is left exactly as it was.
///
/// Failpoint sites (chaos tests): `snapshot.write` before the bytes hit
/// the temp file, `snapshot.fsync` before they are forced to disk.
pub fn save_corpus(corpus: &Corpus, path: &Path) -> Result<SnapshotSummary, SnapshotError> {
    let (buf, summary) = encode(corpus);
    let tmp = temp_path(path);
    let write_result = (|| -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        failpoint("snapshot.write")?;
        file.write_all(&buf)?;
        failpoint("snapshot.fsync")?;
        file.sync_all()
    })();
    if let Err(e) = write_result {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // The rename is only durable once the directory entry is: fsync the
    // parent. (An error here is reported even though the file is already
    // in place — callers treat the save as not-durable and may retry.)
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent).and_then(|d| d.sync_all())?;
    Ok(summary)
}
