//! Snapshot faults on disk, none of them injected: every one must give
//! a typed refusal and a fallback that serves like a fresh build, with
//! `boot_stats` naming the refused file. No test here arms a failpoint,
//! so the suite runs with the failpoints compiled out too
//! (`--no-default-features`); the injected IO faults are
//! `tests/snapshot_chaos.rs`.
//!
//! * a single-file snapshot with a flipped byte, or of format version 1;
//! * a sharded snapshot set — the doc store `full.qsnap` plus one posting
//!   segment per shard — with a truncated segment, a segment from
//!   another generation (dictionary fingerprint), a posting outside its
//!   segment's range, segment ranges with a gap or an overlap, or the
//!   version-2 layout (a full single-file snapshot beside per-shard
//!   sub-corpus files). A set loads whole or not at all: any refused
//!   file rebuilds the whole corpus from the builder's documents.

use std::path::{Path, PathBuf};

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse, QecEngine,
    ShardedEngineBuilder,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-snap-faults-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic two-sense corpus the chaos suites use.
fn corpus_docs() -> impl Iterator<Item = DocumentSpec> {
    (0..60).map(|i| {
        let body = if i % 2 == 0 {
            format!("apple tech gadget{} chip{} market", i % 7, i % 5)
        } else {
            format!("apple farm orchard{} harvest{} cider", i % 7, i % 5)
        };
        DocumentSpec::text("", body)
    })
}

fn fresh() -> QecEngine {
    EngineBuilder::new().documents(corpus_docs()).build()
}

fn essence(
    r: &ExpandResponse,
) -> (
    Vec<ClusterExpansion>,
    usize,
    usize,
    usize,
    bool,
    &'static str,
) {
    (
        r.clusters().to_vec(),
        r.stats.results,
        r.stats.candidates,
        r.stats.clusters,
        r.stats.degraded,
        r.stats.strategy,
    )
}

fn probe_requests() -> [ExpandRequest<'static>; 2] {
    [
        ExpandRequest {
            k_clusters: 3,
            top_k: 40,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 2,
            top_k: 20,
            ..ExpandRequest::new("farm cider")
        },
    ]
}

fn assert_serves_like_fresh(engine: &QecEngine, reference: &QecEngine, tag: &str) {
    for (i, req) in probe_requests().iter().enumerate() {
        assert_eq!(
            essence(&engine.expand(req)),
            essence(&reference.expand(req)),
            "{tag} request {i}"
        );
    }
}

/// Saves the 3-shard snapshot set of the chaos corpus into a fresh
/// directory.
fn saved_set(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build()
        .save_snapshot(&dir)
        .expect("save sharded");
    dir
}

/// Boots a 3-shard deployment from the set in `dir` with the documents
/// beside it, and asserts that the set was refused whole for `file`,
/// with an error line naming it and saying `why`, and that the rebuilt
/// deployment serves like a fresh build.
fn assert_whole_set_fallback(dir: &Path, file: &str, why: &str) {
    let booted = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .load_snapshots(dir)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 0, "{file}: {boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{file}: {boot:?}");
    assert_eq!(
        boot.rebuilt_cold, 4,
        "{file}: the doc store and 3 segments rebuilt: {boot:?}"
    );
    assert!(
        boot.errors[0].contains(file) && boot.errors[0].contains(why),
        "the refusal names {file} and says `{why}`: {:?}",
        boot.errors
    );
    assert_serves_like_fresh(&booted, &fresh(), file);
    std::fs::remove_dir_all(dir).ok();
}

/// Offset of the payload of the section tagged `tag` in a snapshot
/// file image.
fn payload_start(bytes: &[u8], tag: &[u8; 4]) -> usize {
    let mut pos = 16;
    loop {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if &bytes[pos..pos + 4] == tag {
            return pos + 12;
        }
        pos += 12 + len + 4;
    }
}

/// Applies `edit` to the file at `path`, then re-fixes every section
/// CRC and the trailer CRC, so only the semantic checks can refuse it.
fn tamper(path: &Path, edit: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    let mut pos = 16;
    while &bytes[pos..pos + 4] != b"TRLR" {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let end = pos + 12 + len;
        let crc = qec_snapshot::crc32(&bytes[pos + 12..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        pos = end + 4;
    }
    let crc = qec_snapshot::crc32(&bytes[..pos]);
    bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Rewrites the format version of the snapshot at `path` to 1, the
/// generation that also stored the dense terms' bitmaps, with a valid
/// header CRC: the loader refuses it by version before reading a section.
fn downgrade_to_generation_1(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let crc = qec_snapshot::crc32(&bytes[..12]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn a_generation_1_snapshot_is_refused_and_the_engine_rebuilds() {
    let dir = temp_dir("gen1");
    let reference = fresh();

    let path = dir.join("index.qsnap");
    reference.save_snapshot(&path).expect("save");
    downgrade_to_generation_1(&path);
    let booted = EngineBuilder::new()
        .documents(corpus_docs())
        .load_snapshot(&path)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 0, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 1, "{boot:?}");
    assert!(
        boot.errors[0].contains("unsupported snapshot version 1"),
        "the refusal names the version: {:?}",
        boot.errors
    );
    assert_serves_like_fresh(&booted, &reference, "generation-1 file");

    // A whole generation-1 snapshot set: full.qsnap is refused, so no
    // shard file is trusted and the gather corpus and every shard rebuild.
    let set = dir.join("set");
    ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build()
        .save_snapshot(&set)
        .expect("save sharded");
    for entry in std::fs::read_dir(&set).unwrap() {
        downgrade_to_generation_1(&entry.unwrap().path());
    }
    let booted = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .load_snapshots(&set)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 0, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 4, "gather corpus + 3 shards: {boot:?}");
    assert!(
        boot.errors[0].contains("unsupported snapshot version 1"),
        "the refusal names the version: {:?}",
        boot.errors
    );
    for (i, req) in probe_requests().iter().enumerate() {
        assert_eq!(
            essence(&booted.expand(req)),
            essence(&reference.expand(req)),
            "generation-1 set, request {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_snapshot_on_disk_falls_back_and_the_engine_still_serves() {
    let dir = temp_dir("corrupt");
    let path = dir.join("index.qsnap");
    let reference = fresh();
    reference.save_snapshot(&path).expect("save");

    // Flip one payload byte: the structural tier rejects the file and
    // the builder falls back to the documents.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let booted = EngineBuilder::new()
        .documents(corpus_docs())
        .load_snapshot(&path)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 1, "{boot:?}");
    assert!(
        boot.errors[0].contains("checksum"),
        "the CRC caught the flip: {:?}",
        boot.errors
    );
    assert_serves_like_fresh(&booted, &reference, "corrupt file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_shard_file_refuses_the_whole_set_and_the_engine_rebuilds() {
    // Truncate shard 1's segment: its load fails, and with it the set —
    // no other copy of shard 1's postings exists to re-split from.
    let dir = saved_set("shardfault");
    let victim = dir.join("shard-1-of-3.qsnap");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    assert_whole_set_fallback(&dir, "shard-1-of-3.qsnap", "truncated");
}

#[test]
fn a_stale_shard_file_from_another_generation_is_refused_by_fingerprint() {
    // Overwrite shard 2's segment with shard 2 of another corpus's set
    // (another dictionary): internally valid, wrong generation. The
    // fingerprint check must refuse it rather than serve mixed indexes.
    let dir = saved_set("stale");
    let other = temp_dir("stale-other");
    ShardedEngineBuilder::new()
        .documents(
            ["totally different", "vocabulary here", "and there"]
                .map(|body| DocumentSpec::text("stale", body)),
        )
        .num_shards(3)
        .build()
        .save_snapshot(&other)
        .expect("save the other generation");
    std::fs::copy(
        other.join("shard-2-of-3.qsnap"),
        dir.join("shard-2-of-3.qsnap"),
    )
    .unwrap();
    std::fs::remove_dir_all(&other).ok();
    assert_whole_set_fallback(&dir, "shard-2-of-3.qsnap", "fingerprint");
}

#[test]
fn a_posting_outside_its_segments_range_is_refused() {
    // Shard 0 holds documents 0..20. Move the last posting of its first
    // non-empty list to document 25, in shard 1's range: still sorted,
    // checksums re-fixed, but outside the segment.
    let dir = saved_set("outside");
    tamper(&dir.join("shard-0-of-3.qsnap"), |bytes| {
        let mut pos = payload_start(bytes, b"POST");
        loop {
            let df = get_u32(bytes, pos) as usize;
            if df > 0 {
                put_u32(bytes, pos + 4 + (df - 1) * 8, 25);
                return;
            }
            pos += 4;
        }
    });
    assert_whole_set_fallback(&dir, "shard-0-of-3.qsnap", "outside the segment");
}

#[test]
fn segment_ranges_with_a_gap_or_an_overlap_are_refused() {
    // 60 documents over 3 shards: 0..20, 20..40, 40..60. Shard 0 claiming
    // 0..19 leaves a gap; shard 1 claiming 19..40 overlaps shard 0.
    for (file, field, value) in [
        ("shard-0-of-3.qsnap", 4, 19u32),
        ("shard-1-of-3.qsnap", 0, 19u32),
    ] {
        let dir = saved_set(&format!("ranges-{field}"));
        tamper(&dir.join(file), |bytes| {
            let segm = payload_start(bytes, b"SEGM");
            put_u32(bytes, segm + field, value);
        });
        assert_whole_set_fallback(&dir, file, "holds documents");
    }
}

#[test]
fn a_version_2_set_is_refused_by_its_full_snapshot() {
    // The version-2 layout: a full single-file snapshot beside per-shard
    // sub-corpus files, which stored the corpus twice.
    let dir = temp_dir("v2set");
    let engine = fresh();
    qec_snapshot::save_corpus(engine.corpus(), &dir.join("full.qsnap")).expect("save full");
    for (i, part) in engine.corpus().split(3).iter().enumerate() {
        qec_snapshot::save_corpus(part, &dir.join(format!("shard-{i}-of-3.qsnap")))
            .expect("save sub-corpus");
    }
    assert_whole_set_fallback(&dir, "full.qsnap", "unsupported snapshot version 2");
}
