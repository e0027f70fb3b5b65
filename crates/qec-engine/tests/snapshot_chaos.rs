//! Snapshot chaos suite, driven through the `qec-failpoint` IO sites:
//!
//! * a save that crashes mid-write or mid-fsync (`snapshot.write`,
//!   `snapshot.fsync`) reports a typed error and leaves the **previous
//!   snapshot generation loadable** — the atomic-rename protocol never
//!   clobbers it;
//! * an injected fault on **any** load section (`snapshot.load.*`) makes
//!   the engine builder fall back to the in-memory rebuild — the engine
//!   comes up and serves bit-identical responses, with the fallback
//!   counted in `boot_stats`;
//! * a sharded boot whose doc store `full.qsnap` fails to load rebuilds
//!   the whole corpus and trusts no segment.
//!
//! Faults on disk that need no failpoint — corrupt, stale, foreign and
//! older-format files — are `tests/snapshot_faults.rs`, which runs with
//! the failpoints compiled out too.
//!
//! Failpoints are process-global, so every test takes the `serial()` lock
//! for its whole body.

use std::io::ErrorKind;
use std::path::PathBuf;
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
