//! Snapshot boot parity: an engine booted from a snapshot must serve
//! responses **bit-identical** to one built fresh from the same documents
//! — across expansion strategies, boolean semantics, shard counts, and
//! pagination pages — because the loaded corpus is structurally identical
//! to the frozen one (same ids, same postings, same dense-term probes
//! and idf table). The suite also pins the boot accounting: loads,
//! cold rebuilds, and fallbacks each count exactly once per corpus.

use std::path::PathBuf;

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse, ExpandStrategy,
    QecEngine, QuerySemantics, ShardedEngine, ShardedEngineBuilder,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-snap-parity-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The three-sense corpus of the sharding parity suite: large enough
/// that every tested shard count splits real result sets.
fn corpus_docs() -> impl Iterator<Item = DocumentSpec> {
    (0..90).map(|i| {
        let body = match i % 3 {
            0 => format!("apple tech gadget{} chip{} market silicon", i % 7, i % 5),
            1 => format!("apple farm orchard{} harvest{} cider rural", i % 7, i % 5),
            _ => format!("apple music vinyl{} concert{} studio record", i % 7, i % 5),
        };
        DocumentSpec::text("", body)
    })
}

fn baseline() -> QecEngine {
    EngineBuilder::new().documents(corpus_docs()).build()
}

/// The comparable half of a response: everything except the cache-counter
/// snapshot (which legitimately differs between engines).
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

/// Strategies × semantics × `k`/`top_k` mixes, plus queries analysing to
/// one, many, and zero terms.
fn workload() -> Vec<ExpandRequest<'static>> {
    let mut reqs = Vec::new();
    for strategy in [
        ExpandStrategy::Iskr,
        ExpandStrategy::Pebc,
        ExpandStrategy::ExactDeltaF,
    ] {
        reqs.push(ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            strategy,
            ..ExpandRequest::new("apple")
        });
    }
    reqs.push(ExpandRequest {
        k_clusters: 3,
        top_k: 30,
        ..ExpandRequest::new("farm cider")
    });
    reqs.push(ExpandRequest {
        k_clusters: 2,
        top_k: 0,
        ..ExpandRequest::new("apple")
    });
    reqs.push(ExpandRequest {
        k_clusters: 3,
        top_k: 40,
        semantics: QuerySemantics::Or,
        ..ExpandRequest::new("orchard1 vinyl1")
    });
    reqs.push(ExpandRequest::new("zebra"));
    reqs.push(ExpandRequest::new("the of"));
    reqs
}

fn assert_serves_identically(booted: &QecEngine, fresh: &QecEngine, tag: &str) {
    for (i, req) in workload().iter().enumerate() {
        let cold = booted.expand(req);
        assert_eq!(
            essence(&cold),
            essence(&fresh.expand(req)),
            "{tag} request {i} cold"
        );
        booted.recycle(cold);
        // Warm serve (cache hit on the booted engine) stays identical.
        let warm = booted.expand(req);
        assert_eq!(
            essence(&warm),
            essence(&fresh.expand(req)),
            "{tag} request {i} warm"
        );
        booted.recycle(warm);
    }
}

#[test]
fn snapshot_booted_engine_is_bit_identical_to_a_fresh_build() {
    let dir = temp_dir("single");
    let path = dir.join("index.qsnap");
    let fresh = baseline();
    fresh.save_snapshot(&path).expect("save");

    // Boot with **no documents**: only the snapshot can produce this
    // corpus, so parity here proves the load path alone.
    let booted = EngineBuilder::new().load_snapshot(&path).build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 1, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 0, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 0, "{boot:?}");
    assert!(boot.errors.is_empty(), "{boot:?}");
    assert_eq!(booted.corpus().num_docs(), 90);

    assert_serves_identically(&booted, &fresh, "snapshot boot");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn builder_save_snapshot_freezes_and_chains_into_an_identical_engine() {
    let dir = temp_dir("chain");
    let path = dir.join("index.qsnap");
    // One chain: add documents, persist, keep building the engine over
    // the frozen corpus.
    let engine = EngineBuilder::new()
        .documents(corpus_docs())
        .save_snapshot(&path)
        .expect("save mid-chain")
        .build();
    let booted = EngineBuilder::new().load_snapshot(&path).build();
    assert_eq!(booted.boot_stats().snapshots_loaded, 1);
    assert_serves_identically(&booted, &engine, "chained save");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_snapshot_set_boots_bit_identical_across_shard_counts() {
    let fresh = baseline();
    for n in [1usize, 2, 3, 8] {
        let dir = temp_dir(&format!("sharded-{n}"));
        let source = ShardedEngineBuilder::new()
            .documents(corpus_docs())
            .num_shards(n)
            .build();
        let summaries = source.save_snapshot(&dir).expect("save sharded");
        // full.qsnap + one file per shard (the n = 1 single-engine path
        // attaches no shard set, so only the full file exists).
        let expected_files = if n > 1 { 1 + n } else { 1 };
        assert_eq!(summaries.len(), expected_files, "n={n}");
        assert!(
            summaries[1..]
                .iter()
                .all(|s| s.dict_crc == summaries[0].dict_crc),
            "every shard file carries the full snapshot's dictionary fingerprint"
        );

        let booted: ShardedEngine = ShardedEngineBuilder::new()
            .num_shards(n)
            .load_snapshots(&dir)
            .build();
        let boot = booted.boot_stats();
        assert_eq!(boot.snapshots_loaded, expected_files, "n={n}: {boot:?}");
        assert_eq!(boot.rebuilt_cold, 0, "n={n}: {boot:?}");
        assert_eq!(booted.num_shards(), n);

        for (i, req) in workload().iter().enumerate() {
            assert_eq!(
                essence(&booted.expand(req)),
                essence(&fresh.expand(req)),
                "n={n} request {i}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn snapshot_booted_pagination_pages_match_the_fresh_engine() {
    let dir = temp_dir("pages");
    let fresh = baseline();
    let source = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .build();
    source.save_snapshot(&dir).expect("save");
    let booted = ShardedEngineBuilder::new()
        .num_shards(3)
        .load_snapshots(&dir)
        .build();

    // Walk a full member listing in pages of 7 (straddling shard
    // boundaries); every page of the snapshot-booted engine matches the
    // fresh single engine's page.
    let full_req = ExpandRequest {
        k_clusters: 3,
        top_k: 0,
        ..ExpandRequest::new("apple")
    };
    let full = fresh.expand(&full_req);
    let full_clusters: Vec<ClusterExpansion> = full.clusters().to_vec();
    let mut reassembled: Vec<Vec<_>> = vec![Vec::new(); full_clusters.len()];
    let mut offset = 0;
    loop {
        let page_req = ExpandRequest {
            member_offset: offset,
            member_limit: 7,
            ..full_req.clone()
        };
        let booted_page = booted.expand(&page_req);
        let fresh_page = fresh.expand(&page_req);
        assert_eq!(
            essence(&booted_page),
            essence(&fresh_page),
            "page at offset {offset}"
        );
        let mut any = false;
        for (c, cluster) in booted_page.clusters().iter().enumerate() {
            any |= !cluster.docs.is_empty();
            reassembled[c].extend(cluster.docs.iter().copied());
        }
        booted.recycle(booted_page);
        fresh.recycle(fresh_page);
        if !any {
            break;
        }
        offset += 7;
    }
    for (c, members) in reassembled.iter().enumerate() {
        assert_eq!(
            members, &full_clusters[c].docs,
            "pages reassemble cluster {c} exactly"
        );
    }
    assert_eq!(
        reassembled.iter().map(Vec::len).sum::<usize>(),
        90,
        "the walk visited every member"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_snapshot_falls_back_to_the_in_memory_rebuild() {
    let dir = temp_dir("missing");
    let fresh = baseline();
    // The registered path does not exist: the build must fall back to
    // the documents, record why, and serve identically anyway.
    let booted = EngineBuilder::new()
        .documents(corpus_docs())
        .load_snapshot(dir.join("never-written.qsnap"))
        .build();
    let boot = booted.boot_stats();
    assert_eq!(boot.snapshots_loaded, 0, "{boot:?}");
    assert_eq!(boot.rebuilt_cold, 1, "{boot:?}");
    assert_eq!(boot.snapshot_fallbacks, 1, "{boot:?}");
    assert_eq!(boot.errors.len(), 1, "{boot:?}");
    assert!(
        boot.errors[0].contains("never-written.qsnap"),
        "the error names the path: {:?}",
        boot.errors
    );
    assert_serves_identically(&booted, &fresh, "fallback boot");
    std::fs::remove_dir_all(&dir).ok();
}
