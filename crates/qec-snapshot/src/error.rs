//! The typed failure vocabulary of the load path.
//!
//! Loading **never panics**: every way a snapshot file can be wrong —
//! unreadable, foreign, from a future version, cut short, bit-flipped, or
//! internally inconsistent despite valid checksums — maps to a
//! [`SnapshotError`] variant precise enough for an operator to act on and
//! for the engine to count before falling back to an in-memory rebuild.

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed (open, read, write,
    /// fsync, rename — or an injected IO fault in chaos tests).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The file is a snapshot, but of a format version this build does
    /// not understand.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The file ends before the structure it promises — the signature of
    /// a torn write or a truncated copy.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored CRC32 — bit rot,
    /// a torn write inside the section, or deliberate tampering.
    ChecksumMismatch {
        /// The section whose checksum failed (`"header"`, `"meta"`,
        /// `"dict"`, `"docs"`, `"post"`, `"trailer"`).
        section: &'static str,
    },
    /// A section tag is not the one the fixed layout requires here.
    UnexpectedSection {
        /// Tag the layout expects at this position.
        expected: &'static str,
        /// The four tag bytes actually present.
        found: [u8; 4],
    },
    /// The bytes decode but describe an impossible index: the semantic
    /// validation pass (dictionary density, posting order and range,
    /// zero tfs, posting total, document-length sums) rejected
    /// them even though every checksum passed.
    Corrupt {
        /// The section whose contents are inconsistent.
        section: &'static str,
        /// What exactly is wrong.
        detail: String,
    },
    /// Valid snapshot followed by garbage bytes.
    TrailingBytes {
        /// Number of unexpected bytes after the trailer.
        extra: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot section `{section}`")
            }
            SnapshotError::UnexpectedSection { expected, found } => write!(
                f,
                "expected snapshot section `{expected}`, found {:?}",
                String::from_utf8_lossy(found)
            ),
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "corrupt snapshot section `{section}`: {detail}")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot trailer")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}
