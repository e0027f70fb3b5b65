//! End-to-end behaviour of the serving facade.

use qec_engine::{
    Clusterer, DocumentSpec, EngineBuilder, EngineConfig, ExpandRequest, ExpandStrategy, QecEngine,
    QuerySemantics,
};
use qec_index::{CorpusBuilder, DocId, Searcher, TfIdfRanker};

/// The two-sense corpus of the paper's Example 1.1 spirit.
fn two_sense_engine() -> QecEngine {
    let docs = [
        ("Apple Inc", "apple computers iphone ipad store cupertino"),
        ("Apple Store", "apple store retail genius bar iphone"),
        (
            "Apple earnings",
            "apple company quarterly earnings iphone sales",
        ),
        ("Apple orchard", "apple fruit orchard harvest cider"),
        ("Apple pie", "apple fruit pie baking recipe cinnamon"),
        ("Apple varieties", "apple fruit varieties fuji gala orchard"),
        ("Banana bread", "banana fruit bread baking recipe"),
        ("Jobs biography", "steve jobs apple founder biography"),
    ];
    EngineBuilder::new()
        .documents(
            docs.iter()
                .map(|&(title, body)| DocumentSpec::text(title, body)),
        )
        .build()
}

#[test]
fn expands_one_query_per_cluster() {
    let engine = two_sense_engine();
    let req = ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("apple")
    };
    let resp = engine.expand(&req);
    assert_eq!(resp.clusters().len(), 2);
    assert_eq!(resp.stats.clusters, 2);
    assert_eq!(resp.stats.results, 7, "seven docs contain 'apple'");
    assert!(!resp.stats.arena_cache_hit, "first request is cold");
    assert_eq!(resp.stats.strategy, "iskr");
    let total_docs: usize = resp.clusters().iter().map(|c| c.docs.len()).sum();
    assert_eq!(total_docs, 7, "clusters partition the results");
    for c in resp.clusters() {
        assert!(!c.docs.is_empty());
        assert!(c.quality.fmeasure > 0.0);
        // Added terms resolve through the corpus dictionary.
        for &t in &c.added {
            assert!(!engine.corpus().term_name(t).is_empty());
        }
    }
}

#[test]
fn repeat_requests_hit_the_arena_cache() {
    let engine = two_sense_engine();
    let req = ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("apple")
    };
    let cold = engine.expand(&req);
    assert!(!cold.stats.arena_cache_hit);
    let warm = engine.expand(&req);
    assert!(warm.stats.arena_cache_hit, "same request reuses the arena");
    assert_eq!(cold.clusters(), warm.clusters(), "hit changes nothing");
    // A different strategy misses: identical terms served by different
    // strategies must not share a pipeline entry (the strategy is part of
    // the cache key)…
    let pebc_req = ExpandRequest {
        strategy: ExpandStrategy::Pebc,
        ..req.clone()
    };
    let pebc = engine.expand(&pebc_req);
    assert!(!pebc.stats.arena_cache_hit, "new strategy is a new key");
    assert_eq!(pebc.stats.strategy, "pebc");
    assert!(
        engine.expand(&pebc_req).stats.arena_cache_hit,
        "…and then caches under its own key"
    );
    // …but any query analysing to the same terms hits (the cache key is
    // the analysed term list, not the raw string)…
    let plural = engine.expand(&ExpandRequest {
        query: "Apples,",
        ..req.clone()
    });
    assert!(
        plural.stats.arena_cache_hit,
        "\"Apples,\" analyses to \"appl\""
    );
    assert_eq!(plural.clusters(), warm.clusters());
    // …but a different analysed query, k, or top_k misses (the first
    // time; the shared cache then keeps each of them too).
    for miss in [
        ExpandRequest {
            query: "fruit",
            ..req.clone()
        },
        ExpandRequest {
            k_clusters: 3,
            ..req.clone()
        },
        ExpandRequest {
            top_k: 4,
            ..req.clone()
        },
    ] {
        assert!(!engine.expand(&miss).stats.arena_cache_hit, "{miss:?}");
        assert!(
            engine.expand(&miss).stats.arena_cache_hit,
            "now cached: {miss:?}"
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 5, "apple + its pebc twin + three variants");
    assert_eq!(stats.evictions, 0);
}

#[test]
fn all_three_strategies_serve() {
    let engine = two_sense_engine();
    let base = ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("apple")
    };
    let by_strategy: Vec<_> = [
        ExpandStrategy::Iskr,
        ExpandStrategy::ExactDeltaF,
        ExpandStrategy::Pebc,
    ]
    .into_iter()
    .map(|strategy| {
        engine.expand(&ExpandRequest {
            strategy,
            ..base.clone()
        })
    })
    .collect();
    let names: Vec<_> = by_strategy.iter().map(|r| r.stats.strategy).collect();
    assert_eq!(names, vec!["iskr", "exact-df", "pebc"]);
    for r in &by_strategy {
        assert_eq!(r.clusters().len(), 2);
        for c in r.clusters() {
            assert!(c.quality.fmeasure >= 0.0 && c.quality.fmeasure <= 1.0);
        }
    }
    // Exact-ΔF refines at least as well as the partial-elimination
    // baseline on every cluster (same clustering — the cache guarantees
    // it).
    for (exact, pebc) in by_strategy[1]
        .clusters()
        .iter()
        .zip(by_strategy[2].clusters())
    {
        assert!(exact.quality.fmeasure >= pebc.quality.fmeasure - 1e-12);
    }
}

#[test]
fn no_results_yields_empty_response() {
    let engine = two_sense_engine();
    for query in ["zebra", "", "the of and"] {
        let resp = engine.expand(&ExpandRequest::new(query));
        assert!(resp.clusters().is_empty(), "query {query:?}");
        assert_eq!(resp.stats.results, 0);
        assert_eq!(resp.stats.clusters, 0);
    }
}

#[test]
fn or_semantics_widen_the_arena() {
    let engine = two_sense_engine();
    let and = engine.expand(&ExpandRequest::new("apple banana"));
    assert_eq!(and.stats.results, 0, "no doc has both");
    let or = engine.expand(&ExpandRequest {
        semantics: QuerySemantics::Or,
        ..ExpandRequest::new("apple banana")
    });
    assert_eq!(or.stats.results, 8, "every doc has one of them");
}

#[test]
fn top_k_truncates_the_arena() {
    let engine = two_sense_engine();
    let resp = engine.expand(&ExpandRequest {
        top_k: 3,
        ..ExpandRequest::new("apple")
    });
    assert_eq!(resp.stats.results, 3);
    let total: usize = resp.clusters().iter().map(|c| c.docs.len()).sum();
    assert_eq!(total, 3);
}

/// The serving kernel (merge-join scoring + exact top-K) must serve
/// exactly the prefix of the reference ranking (`TfIdfRanker::rank`:
/// per-doc scoring + full sort). One cluster keeps the served docs in
/// arena order, which is rank order.
#[test]
fn served_docs_are_the_reference_ranking_prefix() {
    let engine = EngineBuilder::new()
        .documents((0..48).map(|i| {
            // Varying tf and length, with score ties across the i % 12 classes.
            let body = format!(
                "{} {} filler{}",
                "apple ".repeat(1 + i % 4),
                "store ".repeat(i % 3),
                i % 12
            );
            DocumentSpec::text("", body)
        }))
        .build();
    let corpus = engine.corpus();
    let terms = corpus.query_terms("apple store");
    for semantics in [QuerySemantics::And, QuerySemantics::Or] {
        let matches = Searcher::new(corpus).search(&terms, semantics);
        let reference: Vec<DocId> = TfIdfRanker::new(corpus)
            .rank(&matches, &terms)
            .iter()
            .map(|h| h.doc)
            .collect();
        assert!(reference.len() > 30, "{semantics:?}: corpus too small");
        for top_k in [0, 1, 30, reference.len() + 5] {
            let resp = engine.expand(&ExpandRequest {
                semantics,
                k_clusters: 1,
                top_k,
                ..ExpandRequest::new("apple store")
            });
            let want = match top_k {
                0 => &reference[..],
                k => &reference[..k.min(reference.len())],
            };
            assert_eq!(resp.clusters().len(), 1);
            assert_eq!(resp.clusters()[0].docs, want, "{semantics:?} top_k={top_k}");
        }
    }
}

#[test]
fn response_recycling_preserves_results() {
    let engine = two_sense_engine();
    let req = ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("apple")
    };
    let first = engine.expand(&req);
    let first_clusters = first.clusters().to_vec();
    engine.recycle(first);
    // The recycled buffers must not leak stale state into a smaller
    // response.
    let small = engine.expand(&ExpandRequest {
        top_k: 2,
        k_clusters: 1,
        ..req.clone()
    });
    assert!(small.clusters().len() <= 2);
    engine.recycle(small);
    let again = engine.expand(&req);
    assert_eq!(again.clusters(), &first_clusters[..]);
}

#[test]
fn prebuilt_corpus_and_custom_config() {
    let mut b = CorpusBuilder::new();
    for i in 0..20 {
        let body = if i % 2 == 0 {
            format!("shared even{} alpha", i % 5)
        } else {
            format!("shared odd{} beta", i % 5)
        };
        b.add_document(DocumentSpec::text("", &body));
    }
    let corpus = b.build();
    let mut config = EngineConfig::default();
    config.iskr.max_iters = 3;
    config.kmeans.seed = 99;
    let engine = EngineBuilder::from_corpus(corpus).config(config).build();
    assert_eq!(engine.config().iskr.max_iters, 3);
    let resp = engine.expand(&ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("shared")
    });
    assert_eq!(resp.stats.results, 20);
    assert!(resp.clusters().len() <= 2);
}

#[test]
#[should_panic(expected = "prebuilt")]
fn documents_cannot_extend_a_prebuilt_corpus() {
    let corpus = CorpusBuilder::new().build();
    let _ = EngineBuilder::from_corpus(corpus).document(DocumentSpec::text("t", "body"));
}

/// A round-robin clusterer double proving the plug-in seam end to end.
struct RoundRobin;

impl Clusterer for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn cluster(
        &self,
        vectors: &[qec_cluster::SparseVec],
        k: usize,
    ) -> qec_cluster::ClusterAssignment {
        let k = k.max(1) as u32;
        let membership: Vec<u32> = (0..vectors.len() as u32).map(|i| i % k).collect();
        qec_cluster::ClusterAssignment::from_membership(&membership)
    }
}

#[test]
fn custom_clusterer_plugs_into_the_engine() {
    let engine = EngineBuilder::new()
        .documents((0..6).map(|i| DocumentSpec::text("", format!("shared word{i}"))))
        .clusterer(Box::new(RoundRobin))
        .build();
    let resp = engine.expand(&ExpandRequest {
        k_clusters: 3,
        ..ExpandRequest::new("shared")
    });
    assert_eq!(resp.clusters().len(), 3);
    for c in resp.clusters() {
        assert_eq!(c.docs.len(), 2, "round-robin deals evenly");
    }
}

#[test]
fn concurrent_sessions_are_deterministic() {
    let engine = two_sense_engine();
    let req = ExpandRequest {
        k_clusters: 2,
        ..ExpandRequest::new("apple")
    };
    let baseline = engine.expand(&req);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..10 {
                    let r = engine.expand(&req);
                    assert_eq!(r.clusters(), baseline.clusters());
                    engine.recycle(r);
                }
            });
        }
    });
}

/// `k_clusters` arrives with the request and k-means over `n > k` results
/// holds 16·k·D bytes: the engine clamps it (to 64) before the cache key
/// is formed, so an absurd `k` over a large `top_k` is the `k = 64`
/// request — same pipeline, same cache entry, same response.
#[test]
fn absurd_k_clusters_is_clamped_before_the_cache_key() {
    let engine =
        EngineBuilder::new()
            .documents((0..600).map(|i| {
                DocumentSpec::text("", format!("apple kind{} lot{} item{i}", i % 37, i % 23))
            }))
            .build();
    let with_k = |k_clusters| ExpandRequest {
        k_clusters,
        ..ExpandRequest::new("apple")
    };
    let clamped = engine.expand(&with_k(64));
    assert_eq!(clamped.stats.results, 600, "top_k = 0 keeps every result");
    assert_eq!(clamped.clusters().len(), 64);
    // 599 < n would run Lloyd with 599 dense centroids; `usize::MAX` would
    // make every result its own cluster.
    for absurd in [599, usize::MAX] {
        let resp = engine.expand(&with_k(absurd));
        assert!(resp.stats.arena_cache_hit, "k={absurd} shares the k=64 key");
        assert_eq!(resp.clusters(), clamped.clusters(), "k={absurd}");
    }
    assert_eq!(engine.cache_stats().misses, 1);
}
