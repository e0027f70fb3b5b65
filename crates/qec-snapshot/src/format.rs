//! Binary layout constants and the bounds-checked reader.
//!
//! ```text
//! offset 0      "QECSNAP1"                 8-byte magic
//!        8      version      u32 LE        2: single file; 3: a file of a set
//!        12     header_crc   u32 LE        CRC32 of bytes [0, 12)
//!        16     sections, in the fixed order of the file's kind:
//!                   tag          4 ASCII bytes
//!                   payload_len  u64 LE
//!                   payload      payload_len bytes
//!                   payload_crc  u32 LE     CRC32 of payload
//!        …      "TRLR"                     trailer tag
//!               file_crc     u32 LE        CRC32 of every byte before "TRLR"
//!        EOF    (anything after the trailer is an error)
//! ```
//!
//! The three kinds of file and their sections:
//!
//! ```text
//! single file   (VERSION)       META · DICT · DOCS · POST
//! doc store     (SET_VERSION)   META · DICT · DOCS            full.qsnap
//! segment       (SET_VERSION)   SEGM · POST                   shard-i-of-n.qsnap
//! ```
//!
//! META counts the whole corpus in every kind. A segment's POST has one
//! list per term slot, like the single file's, holding only the
//! postings of the segment's document range; SEGM names that range and
//! the dictionary fingerprint of the doc store it belongs to:
//!
//! ```text
//! SEGM payload  lo u32 · hi u32 · vocab u64 · dict_crc u32 · index_terms u64 · postings u64
//! ```
//!
//! Every multi-byte integer in the file is little-endian. The reader
//! never indexes the buffer directly: all access goes through
//! [`Reader`], whose every method bounds-checks and returns
//! [`SnapshotError::Truncated`] naming what it was reading — that is the
//! property the truncation fuzz suite leans on.

use crate::error::SnapshotError;

/// File magic: identifies a QEC snapshot of any format version.
pub const MAGIC: [u8; 8] = *b"QECSNAP1";
/// Current format version. Every change to the layout bumps it, and the
/// loader refuses any other version with `UnsupportedVersion`. Version 1
/// also stored the dense terms' bitmaps (a `BITS` section after POST);
/// version 2 derives them on load.
pub const VERSION: u32 = 2;
/// Format version of the files of a sharded snapshot set (doc store and
/// segments). A set loader refuses any other version, so a version-2
/// set — a full single-file snapshot beside per-shard sub-corpus files —
/// is refused by its `full.qsnap`.
pub const SET_VERSION: u32 = 3;

/// Corpus-wide counts and the analyzer configuration.
pub const TAG_META: [u8; 4] = *b"META";
/// The analyzed term dictionary, names in dense-id order.
pub const TAG_DICT: [u8; 4] = *b"DICT";
/// Per-document stored metadata (title, features, label, length).
pub const TAG_DOCS: [u8; 4] = *b"DOCS";
/// Per-term posting lists `(doc, tf)`; doc-term rows are its transpose.
pub const TAG_POST: [u8; 4] = *b"POST";
/// A segment's range and dictionary fingerprint.
pub const TAG_SEGM: [u8; 4] = *b"SEGM";
/// Trailer: whole-file CRC.
pub const TAG_TRLR: [u8; 4] = *b"TRLR";

/// Bounds-checked cursor over the in-memory snapshot bytes. `context`
/// tracks which structure is being decoded so truncation errors name it.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            context: "header",
        }
    }

    /// Names the structure subsequent reads decode (used in errors).
    pub fn set_context(&mut self, context: &'static str) {
        self.context = context;
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, section: &'static str) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| SnapshotError::Corrupt {
            section,
            detail: format!("invalid utf-8 string: {e}"),
        })
    }
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("string over 4 GiB");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}
