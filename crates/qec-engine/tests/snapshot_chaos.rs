//! Snapshot chaos suite, driven through the `qec-failpoint` IO sites:
//!
//! * a save that crashes mid-write or mid-fsync (`snapshot.write`,
//!   `snapshot.fsync`) reports a typed error and leaves the **previous
//!   snapshot generation loadable** — the atomic-rename protocol never
//!   clobbers it;
//! * an injected fault on **any** load section (`snapshot.load.*`), a
//!   corrupt file, or a missing file makes the engine builder fall back
//!   to the in-memory rebuild — the engine comes up and serves
//!   bit-identical responses, with the fallback counted in `boot_stats`;
//! * so does a snapshot of format generation 1, which the loader refuses
//!   by its version, for a flat engine and for a sharded snapshot set;
//! * a sharded boot survives one corrupt shard file by re-splitting only
//!   that shard, and distrusts every shard file when `full.qsnap` itself
//!   fails (no fingerprint left to verify them against).
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! for its whole body.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse, QecEngine,
    ShardedEngineBuilder, SnapshotError,
};
use qec_failpoint::{arm, arm_times, FailAction};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-snap-chaos-{tag}-{}", std::process::id()));
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

#[test]
fn crash_mid_save_leaves_the_previous_generation_loadable() {
    let _guard = serial();
    let dir = temp_dir("midsave");
    let path = dir.join("index.qsnap");

    // Generation 1: a one-document corpus, durably saved.
    let gen1 = EngineBuilder::new()
        .document(DocumentSpec::text("g1", "first generation"))
        .build();
    gen1.save_snapshot(&path).expect("gen1 save");

    // Generation 2 crashes at each IO step in turn; the file on disk
    // must still load as generation 1 afterwards, with no temp debris.
    let gen2 = fresh();
    for site in ["snapshot.write", "snapshot.fsync"] {
        let fp = arm(site, FailAction::ReturnErr(ErrorKind::WriteZero));
        let err = gen2.save_snapshot(&path).expect_err("injected IO fault");
        assert!(matches!(err, SnapshotError::Io(_)), "{site}: {err}");
        assert!(err.to_string().contains(site), "{site} named: {err}");
        drop(fp);

        let booted = EngineBuilder::new().load_snapshot(&path).build();
        assert_eq!(booted.boot_stats().snapshots_loaded, 1, "{site}");
        assert_eq!(booted.corpus().num_docs(), 1, "{site}: still generation 1");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "{site}: temp debris {stray:?}");
    }

    // With the faults gone the next save replaces the generation whole.
    gen2.save_snapshot(&path).expect("healed save");
    let booted = EngineBuilder::new().load_snapshot(&path).build();
    assert_eq!(booted.corpus().num_docs(), 60, "generation 2 published");
    assert_serves_like_fresh(&booted, &gen2, "healed generation");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_faults_on_every_load_section_fall_back_to_the_rebuild() {
    let _guard = serial();
    let dir = temp_dir("loadfault");
    let path = dir.join("index.qsnap");
    let reference = fresh();
    reference.save_snapshot(&path).expect("save");

    for site in [
        "snapshot.load.header",
        "snapshot.load.meta",
        "snapshot.load.dict",
        "snapshot.load.docs",
        "snapshot.load.post",
        "snapshot.load.trailer",
    ] {
        let _fp = arm(site, FailAction::ReturnErr(ErrorKind::InvalidData));
        let booted = EngineBuilder::new()
            .documents(corpus_docs())
            .load_snapshot(&path)
            .build();
        let boot = booted.boot_stats();
        assert_eq!(boot.snapshots_loaded, 0, "{site}: {boot:?}");
        assert_eq!(boot.snapshot_fallbacks, 1, "{site}: {boot:?}");
        assert_eq!(boot.rebuilt_cold, 1, "{site}: {boot:?}");
        assert!(
            boot.errors[0].contains(site),
            "{site}: the error names the failpoint: {:?}",
            boot.errors
        );
        assert_serves_like_fresh(&booted, &reference, site);
    }

    // The same path with no fault armed loads cleanly — the sites are
    // pass-through when disarmed.
    let booted = EngineBuilder::new().load_snapshot(&path).build();
    assert_eq!(booted.boot_stats().snapshots_loaded, 1);
    std::fs::remove_dir_all(&dir).ok();
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
    let _guard = serial();
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
    let _guard = serial();
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
fn sharded_boot_survives_a_corrupt_shard_file_by_resplitting_that_shard() {
    let _guard = serial();
    let dir = temp_dir("shardfault");
    let reference = fresh();
    let source = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build();
    source.save_snapshot(&dir).expect("save sharded");

    // Truncate shard 1's file: its load fails, the other files stand.
    let victim = dir.join("shard-1-of-3.qsnap");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let booted = ShardedEngineBuilder::new()
        .num_shards(3)
        .load_snapshots(&dir)
        .build();
    let boot = booted.boot_stats();
    // full.qsnap + shards 0 and 2 restored; shard 1 re-split from the
    // loaded gather corpus.
    assert_eq!(boot.snapshots_loaded, 3, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 1, "{boot:?}");
    assert!(
        boot.errors[0].contains("shard-1-of-3.qsnap"),
        "the error names the shard file: {:?}",
        boot.errors
    );
    for (i, req) in probe_requests().iter().enumerate() {
        assert_eq!(
            essence(&booted.expand(req)),
            essence(&reference.expand(req)),
            "request {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_boot_distrusts_every_shard_file_when_the_full_snapshot_fails() {
    let _guard = serial();
    let dir = temp_dir("fullfault");
    let reference = fresh();
    let source = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build();
    source.save_snapshot(&dir).expect("save sharded");

    // The first load of the boot is full.qsnap; failing exactly that one
    // leaves the (valid) shard files with no fingerprint to be verified
    // against, so none may be trusted.
    let _fp = arm_times(
        "snapshot.load.header",
        FailAction::ReturnErr(ErrorKind::InvalidData),
        1,
    );
    let booted = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .load_snapshots(&dir)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 0, "{boot:?}");
    assert_eq!(
        boot.snapshot_fallbacks, 1,
        "only full.qsnap fell back: {boot:?}"
    );
    assert_eq!(
        boot.rebuilt_cold, 4,
        "gather corpus + 3 shards rebuilt: {boot:?}"
    );
    for (i, req) in probe_requests().iter().enumerate() {
        assert_eq!(
            essence(&booted.expand(req)),
            essence(&reference.expand(req)),
            "request {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_shard_file_from_another_generation_is_refused_by_fingerprint() {
    let _guard = serial();
    let dir = temp_dir("stale");
    let reference = fresh();
    let source = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build();
    source.save_snapshot(&dir).expect("save generation 2");

    // Overwrite shard 2's file with a snapshot of a *different* corpus
    // (another dictionary): internally valid, wrong generation. The
    // fingerprint check must refuse it rather than serve mixed indexes.
    let stale = EngineBuilder::new()
        .document(DocumentSpec::text("stale", "totally different vocabulary"))
        .build();
    stale
        .save_snapshot(dir.join("shard-2-of-3.qsnap"))
        .expect("stale overwrite");

    let booted = ShardedEngineBuilder::new()
        .num_shards(3)
        .load_snapshots(&dir)
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 3, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert!(
        boot.errors[0].contains("generation") || boot.errors[0].contains("fingerprint"),
        "the refusal says why: {:?}",
        boot.errors
    );
    for (i, req) in probe_requests().iter().enumerate() {
        assert_eq!(
            essence(&booted.expand(req)),
            essence(&reference.expand(req)),
            "request {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
