//! Cross-shard parity suite: a [`ShardedEngine`] must serve responses
//! **bit-identical** to a single [`QecEngine`] over the same corpus — not
//! "equivalent", identical — across shard counts, strategies, boolean
//! semantics, `k`/`top_k` mixes, empty-analysis queries, and pagination
//! pages that straddle shard boundaries.
//!
//! Why exact parity is even possible: every shard scores with the gather
//! corpus's **global** idf, the ranking comparator (score desc, `DocId`
//! asc) is a total order (so per-shard exact top-K + k-way merge equals
//! the global sort's prefix), and shard-local doc ids translate to global
//! ones by adding the shard's base offset, preserving order.

use qec_engine::{
    ClusterExpansion, DocumentSpec, EngineBuilder, ExpandRequest, ExpandResponse, ExpandStrategy,
    QecEngine, QuerySemantics, ShardedEngine, ShardedEngineBuilder,
};

/// A three-sense corpus large enough that every shard count under test
/// splits real result sets (the "apple" result set spans all shards).
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

fn sharded(n: usize) -> ShardedEngine {
    ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(n)
        .build()
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

/// Strategies × semantics × `k`/`top_k` mixes, plus queries that analyse
/// to multiple terms, one term, and **no** terms ("zebra" matches
/// nothing; "the of" is all stopwords).
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
        top_k: 0, // keep every result: full per-shard sort + full merge
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

#[test]
fn sharded_responses_are_bit_identical_across_shard_counts() {
    let baseline = baseline();
    let reqs = workload();
    let expected: Vec<_> = reqs.iter().map(|r| essence(&baseline.expand(r))).collect();
    for n in [1, 2, 3, 8] {
        let sharded = sharded(n);
        assert_eq!(sharded.num_shards(), n);
        for (i, req) in reqs.iter().enumerate() {
            // Cold serve (scatter + merge) and warm serve (cache hit)
            // must both match the single engine bit for bit.
            let cold = sharded.expand(req);
            assert_eq!(essence(&cold), expected[i], "shards={n} request {i} cold");
            sharded.recycle(cold);
            let warm = sharded.expand(req);
            assert_eq!(essence(&warm), expected[i], "shards={n} request {i} warm");
            sharded.recycle(warm);
        }
        if n > 1 {
            let stats = sharded.stats();
            assert_eq!(stats.shards.len(), n);
            assert_eq!(stats.shards.iter().map(|s| s.docs).sum::<usize>(), 90);
            assert!(
                stats.shards.iter().all(|s| s.scattered_retrievals > 0),
                "every shard served scattered retrievals: {stats:?}"
            );
        }
    }
}

#[test]
fn sharded_batch_serving_matches_the_single_engine() {
    let baseline = baseline();
    let reqs = workload();
    let expected: Vec<_> = reqs.iter().map(|r| essence(&baseline.expand(r))).collect();
    for n in [2, 3, 8] {
        let sharded = sharded(n);
        // A batch full of cold keys: the gather engine serializes the
        // scattering builds, then fans expansions out — every response
        // still bit-identical.
        let mut results = Vec::new();
        for pass in ["cold", "warm"] {
            sharded.try_expand_batch_into(&reqs, &mut results);
            for (i, result) in results.iter().enumerate() {
                let resp = result.as_ref().expect("no faults injected");
                assert_eq!(essence(resp), expected[i], "shards={n} {pass} batch {i}");
            }
        }
    }
}

#[test]
fn pagination_pages_straddling_shard_boundaries_match() {
    let baseline = baseline();
    // `top_k: 0` keeps all 90 docs in the arena; with 3 clusters the
    // cluster member lists span every shard boundary of every tested
    // shard count.
    let full_req = ExpandRequest {
        k_clusters: 3,
        top_k: 0,
        ..ExpandRequest::new("apple")
    };
    let full = baseline.expand(&full_req);
    let full_clusters: Vec<ClusterExpansion> = full.clusters().to_vec();
    assert_eq!(
        full_clusters.iter().map(|c| c.docs.len()).sum::<usize>(),
        90,
        "the unpaginated response partitions the whole corpus"
    );
    for n in [2, 3, 8] {
        let sharded = sharded(n);
        // Walk the member lists in pages of 7 (coprime with the shard
        // sizes, so pages straddle shard boundaries) until every cluster
        // is exhausted; each page must match the single engine's page and
        // concatenate back to the unpaginated member lists.
        let limit = 7;
        let mut reassembled: Vec<Vec<_>> = vec![Vec::new(); full_clusters.len()];
        let mut offset = 0;
        loop {
            let page_req = ExpandRequest {
                member_offset: offset,
                member_limit: limit,
                ..full_req.clone()
            };
            let sharded_page = sharded.expand(&page_req);
            let baseline_page = baseline.expand(&page_req);
            assert_eq!(
                essence(&sharded_page),
                essence(&baseline_page),
                "shards={n} page at offset {offset}"
            );
            let mut any = false;
            for (c, cluster) in sharded_page.clusters().iter().enumerate() {
                any |= !cluster.docs.is_empty();
                reassembled[c].extend(cluster.docs.iter().copied());
            }
            sharded.recycle(sharded_page);
            baseline.recycle(baseline_page);
            if !any {
                break;
            }
            offset += limit;
        }
        for (c, members) in reassembled.iter().enumerate() {
            assert_eq!(
                members, &full_clusters[c].docs,
                "shards={n}: pages reassemble cluster {c} exactly"
            );
        }
    }
}

#[test]
fn sharding_respects_strategy_keyed_caching() {
    // The strategy is part of the pipeline cache key on the sharded path
    // exactly as on the single path: same terms + different strategy is a
    // fresh (scattered) build, not a shared entry.
    let sharded = sharded(3);
    let iskr = ExpandRequest {
        k_clusters: 4,
        top_k: 50,
        ..ExpandRequest::new("apple")
    };
    let pebc = ExpandRequest {
        strategy: ExpandStrategy::Pebc,
        ..iskr.clone()
    };
    assert!(!sharded.expand(&iskr).stats.arena_cache_hit);
    assert!(sharded.expand(&iskr).stats.arena_cache_hit);
    assert!(
        !sharded.expand(&pebc).stats.arena_cache_hit,
        "a new strategy is a new key"
    );
    assert!(sharded.expand(&pebc).stats.arena_cache_hit);
    assert_eq!(sharded.cache_stats().entries, 2);
}

#[test]
fn builder_rejects_invalid_topologies_with_typed_errors() {
    use qec_engine::ShardedBuildError;

    // Zero partitions cannot hold a corpus.
    let err = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(0)
        .try_build()
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, ShardedBuildError::ZeroShards);

    // A corpus smaller than the shard count would leave empty shards:
    // refused with the requested/actual numbers, never silently clamped.
    let err = ShardedEngineBuilder::new()
        .documents(corpus_docs().take(5))
        .num_shards(8)
        .try_build()
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, ShardedBuildError::TooManyShards { shards: 8, docs: 5 });
    let msg = err.to_string();
    assert!(
        msg.contains('8') && msg.contains('5'),
        "actionable message: {msg}"
    );

    // The boundary cases stay valid: one doc per shard, and the explicit
    // single-engine path over an empty corpus.
    assert_eq!(
        ShardedEngineBuilder::new()
            .documents(corpus_docs().take(5))
            .num_shards(5)
            .try_build()
            .expect("one doc per shard is a valid topology")
            .num_shards(),
        5
    );
    assert!(ShardedEngineBuilder::new()
        .num_shards(1)
        .try_build()
        .is_ok());
}

#[test]
fn replicated_shards_serve_bit_identical_responses() {
    // Replication is invisible to results: 3 shards × 2 replicas answers
    // bit-identically to the unreplicated baseline, whichever replica the
    // rotation picks.
    let baseline = baseline();
    let replicated = ShardedEngineBuilder::new()
        .documents(corpus_docs())
        .num_shards(3)
        .replicas(2)
        .build();
    for req in [
        ExpandRequest {
            k_clusters: 4,
            top_k: 50,
            ..ExpandRequest::new("apple")
        },
        ExpandRequest {
            k_clusters: 3,
            top_k: 30,
            semantics: QuerySemantics::Or,
            ..ExpandRequest::new("farm cider")
        },
    ] {
        assert_eq!(
            essence(&replicated.expand(&req)),
            essence(&baseline.expand(&req))
        );
    }
    let stats = replicated.stats();
    assert_eq!(stats.shards.len(), 3);
    assert!(stats.shards.iter().all(|s| s.replicas.len() == 2));
    assert!(stats.shards.iter().all(|s| s.scattered_retrievals > 0));
    assert!(stats.shards.iter().all(|s| s.omissions == 0));
}
