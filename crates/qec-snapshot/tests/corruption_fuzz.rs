//! Corruption fuzz: no byte pattern on disk may panic the loader.
//!
//! Three deterministic sweeps over a real snapshot image:
//!
//! 1. **bit-flip** — every bit of every byte flipped in turn: the
//!    structural tier (magic/version/framing/CRCs) must reject each one
//!    with a typed [`SnapshotError`];
//! 2. **truncate** — every prefix length: always a typed error, never a
//!    panic, covering every section boundary by construction;
//! 3. **semantic** — payload bytes flipped *and all CRCs re-fixed*, so
//!    the structural tier passes and the semantic validation pass is the
//!    one under fire: it must return (`Ok` for benign flips, e.g. in a
//!    title byte, typed `Err` for inconsistent ones) — and never panic.
//!
//! Plus targeted probes pinning the exact error variant at each section
//! boundary: header magic, version (a future one, and generation 1,
//! which stored bitmaps this format derives), section tags/lengths/
//! checksums of dictionary and postings, and the trailer CRC.
//!
//! The files of a snapshot set — its doc store and a posting segment —
//! take the bit-flip and truncation sweeps too: every mutation refuses
//! the whole set with a typed error naming the mutated file.

use std::path::{Path, PathBuf};

use qec_index::{Corpus, CorpusBuilder, DocumentSpec, Feature};
use qec_snapshot::{
    crc32, load_corpus, load_corpus_set, save_corpus, save_corpus_set, SnapshotError, FULL_SNAPSHOT,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-snap-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small but representative: dense + sparse terms, features, labels, a
/// zero-term document — every section non-trivial, file small enough to
/// fuzz every bit.
fn corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..30 {
        b.add_document(DocumentSpec::text(
            format!("t{i}"),
            format!("common word{} java{}", i % 4, i % 9),
        ));
    }
    b.add_document(DocumentSpec::text("", "the of"));
    b.add_document(
        DocumentSpec::structured("cam", vec![Feature::new("camera", "brand", "canon")])
            .with_label(3),
    );
    b.build()
}

fn snapshot_bytes(tag: &str) -> (PathBuf, Vec<u8>) {
    let dir = temp_dir(tag);
    let path = dir.join("fuzz.qsnap");
    save_corpus(&corpus(), &path).expect("save");
    let bytes = std::fs::read(&path).unwrap();
    (dir, bytes)
}

fn load_bytes(dir: &Path, mutated: &[u8]) -> Result<(), SnapshotError> {
    let path = dir.join("mutated.qsnap");
    std::fs::write(&path, mutated).unwrap();
    load_corpus(&path).map(|_| ())
}

/// Byte offsets of each section's (tag, payload_start, payload_len)
/// walked from the file image itself.
fn section_offsets(bytes: &[u8]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 16; // header: magic(8) + version(4) + crc(4)
    while pos + 4 <= bytes.len() {
        let tag = String::from_utf8_lossy(&bytes[pos..pos + 4]).into_owned();
        if tag == "TRLR" {
            out.push((tag, pos + 4, 4));
            break;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        out.push((tag, pos + 12, len));
        pos += 12 + len + 4;
    }
    out
}

/// Rewrites every checksum (header, each section, trailer) so a mutated
/// payload passes the structural tier and reaches semantic validation.
/// Defensive against mutations in the framing itself (e.g. a flipped
/// length field): when the walk runs off the image it stops and leaves
/// the rest as-is — the loader's structural tier handles those.
fn fix_crcs(bytes: &mut [u8]) {
    if bytes.len() < 16 {
        return;
    }
    let header = crc32(&bytes[..12]);
    bytes[12..16].copy_from_slice(&header.to_le_bytes());
    let mut pos = 16usize;
    while pos + 12 <= bytes.len() {
        if &bytes[pos..pos + 4] == b"TRLR" {
            let file = crc32(&bytes[..pos]);
            bytes[pos + 4..pos + 8].copy_from_slice(&file.to_le_bytes());
            break;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let Some(crc_start) = pos.checked_add(12).and_then(|p| p.checked_add(len)) else {
            break;
        };
        if crc_start + 4 > bytes.len() {
            break;
        }
        let payload_crc = crc32(&bytes[pos + 12..crc_start]);
        bytes[crc_start..crc_start + 4].copy_from_slice(&payload_crc.to_le_bytes());
        pos = crc_start + 4;
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let (dir, bytes) = snapshot_bytes("bitflip");
    let mut mutated = bytes.clone();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            mutated[byte] ^= 1 << bit;
            let result = load_bytes(&dir, &mutated);
            assert!(
                result.is_err(),
                "flip of byte {byte} bit {bit} must not load (CRC32 catches all 1-bit errors)"
            );
            mutated[byte] ^= 1 << bit;
        }
    }
    assert_eq!(mutated, bytes, "fuzz restored the image");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_truncation_length_is_a_typed_error() {
    let (dir, bytes) = snapshot_bytes("truncate");
    for len in 0..bytes.len() {
        let err = load_bytes(&dir, &bytes[..len]).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
            ),
            "prefix of {len} bytes: unexpected {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn semantic_tier_survives_crc_fixed_payload_flips_without_panicking() {
    let (dir, bytes) = snapshot_bytes("semantic");
    // Flip bits across the whole image with CRCs re-fixed: the flip may
    // produce a different-but-valid snapshot (Ok) or an inconsistent one
    // (typed Err) — the assertion is that *neither path panics* and an
    // Ok result is a genuinely coherent corpus.
    let mut mutated = bytes.clone();
    for byte in (0..bytes.len()).step_by(3) {
        for bit in [0, 4, 7] {
            mutated[byte] ^= 1 << bit;
            fix_crcs(&mut mutated);
            let _ = load_bytes(&dir, &mutated);
            mutated.copy_from_slice(&bytes);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-bit flip and every truncation of `file` in a 2-segment
/// set refuses the set with a typed error that names `file`.
fn sweep_set_file(tag: &str, file: &str) {
    let dir = temp_dir(tag);
    save_corpus_set(&corpus(), &dir, 2).expect("save set");
    let path = dir.join(file);
    let bytes = std::fs::read(&path).unwrap();
    let load = |mutated: &[u8]| -> SnapshotError {
        std::fs::write(&path, mutated).unwrap();
        let (at, err) = load_corpus_set(&dir, 2).map(|_| ()).unwrap_err();
        assert_eq!(at, path, "the refusal names the mutated file: {err}");
        err
    };
    let mut mutated = bytes.clone();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            mutated[byte] ^= 1 << bit;
            load(&mutated);
            mutated[byte] ^= 1 << bit;
        }
    }
    for len in 0..bytes.len() {
        let err = load(&bytes[..len]);
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
            ),
            "{file}: prefix of {len} bytes: unexpected {err}"
        );
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(load_corpus_set(&dir, 2).is_ok(), "the restored set loads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_bit_flip_and_truncation_of_a_doc_store_is_a_typed_error() {
    sweep_set_file("set-store", FULL_SNAPSHOT);
}

#[test]
fn every_bit_flip_and_truncation_of_a_segment_is_a_typed_error() {
    sweep_set_file("set-segment", "shard-1-of-2.qsnap");
}

#[test]
fn each_section_boundary_yields_its_precise_error() {
    let (dir, bytes) = snapshot_bytes("targeted");
    let sections = section_offsets(&bytes);
    let by_tag = |tag: &str| {
        sections
            .iter()
            .find(|(t, _, _)| t == tag)
            .unwrap_or_else(|| panic!("section {tag} present"))
            .clone()
    };

    // Header: a flipped magic byte is "not a snapshot".
    let mut m = bytes.clone();
    m[0] ^= 0xFF;
    assert!(matches!(
        load_bytes(&dir, &m).unwrap_err(),
        SnapshotError::BadMagic
    ));

    // A future version and generation 1 (with a *valid* header CRC) are
    // each refused as such.
    for version in [3u32, 1] {
        let mut m = bytes.clone();
        m[8..12].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&m[..12]);
        m[12..16].copy_from_slice(&crc.to_le_bytes());
        match load_bytes(&dir, &m).unwrap_err() {
            SnapshotError::UnsupportedVersion { found } => assert_eq!(found, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other}"),
        }
    }

    // A flipped version byte *without* fixing the CRC is caught by the
    // header checksum instead.
    let mut m = bytes.clone();
    m[8] ^= 1;
    assert!(matches!(
        load_bytes(&dir, &m).unwrap_err(),
        SnapshotError::ChecksumMismatch { section: "header" }
    ));

    // Per-section payload flips → that section's checksum error.
    for (tag, section_name) in [
        ("META", "meta"),
        ("DICT", "dict"),
        ("DOCS", "docs"),
        ("POST", "post"),
    ] {
        let (_, payload_start, payload_len) = by_tag(tag);
        assert!(payload_len > 0, "{tag} payload is non-trivial");
        let mut m = bytes.clone();
        m[payload_start + payload_len / 2] ^= 0x10;
        let err = load_bytes(&dir, &m).unwrap_err();
        match err {
            SnapshotError::ChecksumMismatch { section } => {
                assert_eq!(section, section_name, "flip inside {tag}")
            }
            other => panic!("flip inside {tag}: expected checksum error, got {other}"),
        }
    }

    // A renamed section tag → UnexpectedSection carrying the found bytes.
    let (_, dict_payload_start, _) = by_tag("DICT");
    let tag_pos = dict_payload_start - 12;
    let mut m = bytes.clone();
    m[tag_pos..tag_pos + 4].copy_from_slice(b"JUNK");
    match load_bytes(&dir, &m).unwrap_err() {
        SnapshotError::UnexpectedSection { expected, found } => {
            assert_eq!(expected, "dict");
            assert_eq!(&found, b"JUNK");
        }
        other => panic!("expected UnexpectedSection, got {other}"),
    }

    // A corrupted section length → truncation or checksum, never a panic.
    let mut m = bytes.clone();
    m[tag_pos + 4..tag_pos + 12].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        load_bytes(&dir, &m).unwrap_err(),
        SnapshotError::Truncated { .. }
    ));

    // Trailer CRC flip → trailer checksum mismatch.
    let (_, trailer_crc_start, _) = by_tag("TRLR");
    let mut m = bytes.clone();
    m[trailer_crc_start] ^= 1;
    assert!(matches!(
        load_bytes(&dir, &m).unwrap_err(),
        SnapshotError::ChecksumMismatch { section: "trailer" }
    ));

    // Garbage after the trailer → TrailingBytes with the exact count.
    let mut m = bytes.clone();
    m.extend_from_slice(b"xyz");
    assert!(matches!(
        load_bytes(&dir, &m).unwrap_err(),
        SnapshotError::TrailingBytes { extra: 3 }
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crc_valid_but_inconsistent_payloads_fail_semantic_validation() {
    let (dir, bytes) = snapshot_bytes("inconsistent");
    let sections = section_offsets(&bytes);
    let (_, meta_start, _) = sections
        .iter()
        .find(|(t, _, _)| t == "META")
        .unwrap()
        .clone();

    // Claim one more document than the sections describe (CRCs fixed):
    // the cross-section consistency pass must reject it.
    let mut m = bytes.clone();
    let num_docs = u64::from_le_bytes(m[meta_start..meta_start + 8].try_into().unwrap());
    m[meta_start..meta_start + 8].copy_from_slice(&(num_docs + 1).to_le_bytes());
    fix_crcs(&mut m);
    let err = load_bytes(&dir, &m).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. }
        ),
        "inflated num_docs: {err}"
    );

    // Claim a wrong total posting count: typed Corrupt naming `post`.
    let mut m = bytes.clone();
    let tp_start = meta_start + 24;
    let total = u64::from_le_bytes(m[tp_start..tp_start + 8].try_into().unwrap());
    m[tp_start..tp_start + 8].copy_from_slice(&(total + 1).to_le_bytes());
    fix_crcs(&mut m);
    match load_bytes(&dir, &m).unwrap_err() {
        SnapshotError::Corrupt { section, detail } => {
            assert_eq!(section, "post");
            assert!(detail.contains("disagrees"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }

    // Posting order and range are checked once, by the index constructor
    // the loader freezes through; its refusals name the section and term.
    let (_, post_start, _) = sections
        .iter()
        .find(|(t, _, _)| t == "POST")
        .unwrap()
        .clone();
    let (slot, list_start, df) = first_list_with_two_postings(&bytes[post_start..]);
    let first_doc = post_start + list_start;
    let second_doc = first_doc + 8;
    let last_doc = first_doc + (df - 1) * 8;
    let mut m = bytes.clone();
    m.copy_within(second_doc..second_doc + 4, first_doc);
    fix_crcs(&mut m);
    expect_post_corrupt(&dir, &m, &format!("term {slot} is not strictly sorted"));

    let mut m = bytes.clone();
    let num_docs = u32::from_le_bytes(m[meta_start..meta_start + 4].try_into().unwrap());
    m[last_doc..last_doc + 4].copy_from_slice(&num_docs.to_le_bytes());
    fix_crcs(&mut m);
    expect_post_corrupt(&dir, &m, &format!("term {slot} references a document"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The first posting list in a POST payload with at least two postings:
/// its term slot, the offset of its first `(doc, tf)` pair, and its df.
fn first_list_with_two_postings(post: &[u8]) -> (u32, usize, usize) {
    let mut pos = 0;
    for slot in 0.. {
        let df = u32::from_le_bytes(post[pos..pos + 4].try_into().unwrap()) as usize;
        if df >= 2 {
            return (slot, pos + 4, df);
        }
        pos += 4 + df * 8;
    }
    unreachable!()
}

fn expect_post_corrupt(dir: &Path, mutated: &[u8], want: &str) {
    match load_bytes(dir, mutated).unwrap_err() {
        SnapshotError::Corrupt { section, detail } => {
            assert_eq!(section, "post", "{detail}");
            assert!(detail.contains(want), "{detail} should say `{want}`");
        }
        other => panic!("expected Corrupt naming `{want}`, got {other}"),
    }
}
