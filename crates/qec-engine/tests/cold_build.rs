//! The fused cold build — one `TermMatrix` gathered per request and read
//! by both the clusterer and the arena — against the per-stage front-ends
//! it shares kernels with (`doc_tf_vector` → `Clusterer::cluster` →
//! `ExpansionArena::build`): same membership, same candidates in the same
//! order, same `contains` words, same weight bits, same lane index (which
//! is also the one `from_parts` derives), over seeded random inputs. (The kernels' own oracles are the `reference` modules next to
//! them in `qec-cluster` and `qec-core`.)

use std::sync::Mutex;

use qec_cluster::{
    doc_tf_vector, ClusterAssignment, Clusterer, KMeansClusterer, KMeansConfig, SparseVec,
    SplitMix64,
};
use qec_core::{ArenaConfig, ExpansionArena};
use qec_engine::{EngineBuilder, ExpandRequest, QuerySemantics};
use qec_index::{Corpus, CorpusBuilder, DocId, DocumentSpec, TermMatrix};
use qec_text::{Analyzer, TermId};

/// Arena sizes straddling the bitset word boundaries.
const SIZES: [usize; 6] = [1, 63, 64, 65, 100, 129];

/// `num_docs` random documents over `vocab` tokens (low ranks drawn more
/// often) that all carry `common`; about one in `empty_every` is made of
/// stopwords only, so its term row — and TF vector — is empty.
fn random_corpus(
    num_docs: usize,
    vocab: usize,
    empty_every: usize,
    rng: &mut SplitMix64,
) -> Corpus {
    let mut b = CorpusBuilder::new();
    for _ in 0..num_docs {
        if empty_every > 0 && rng.below(empty_every) == 0 {
            b.add_document(DocumentSpec::text("", "the of and"));
            continue;
        }
        let mut body = String::from("common");
        for _ in 0..1 + rng.below(12) {
            let cap = 1 + rng.below(vocab);
            let rank = rng.below(cap);
            body.push_str(&format!(" tok{rank}"));
        }
        b.add_document(DocumentSpec::text("", body));
    }
    b.build()
}

/// Every document the same text: nothing to tell results apart by.
fn duplicates_only(num_docs: usize) -> Corpus {
    let mut b = CorpusBuilder::new();
    for _ in 0..num_docs {
        b.add_document(DocumentSpec::text("", "common alpha alpha beta"));
    }
    b.build()
}

fn snapshot_round_trip(corpus: &Corpus, tag: usize) -> Corpus {
    let dir = std::env::temp_dir().join(format!("qec-cold-build-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.qsnap");
    qec_snapshot::save_corpus(corpus, &path).unwrap();
    let loaded = qec_snapshot::load_corpus(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    loaded
}

/// `corpus` reassembled from parts with zero-tf entries slipped into some
/// rows — legal input to `Corpus::from_frozen_parts` (rows stay strictly
/// ascending, lengths still sum), but not what a TF vector holds:
/// `doc_tf_vector` drops them, so a vector can turn out empty and a term
/// can be no dimension at all, while the arena counts them as occurrences.
fn with_zero_tfs(corpus: &Corpus, rng: &mut SplitMix64) -> Corpus {
    let mut analyzer = Analyzer::with_config(corpus.analyzer().config().clone());
    for (_, name) in corpus.analyzer().dict().iter() {
        analyzer.intern_verbatim(name);
    }
    let vocab = corpus.vocab_size() as u32;
    let docs = corpus.all_docs().map(|d| corpus.doc(d).clone()).collect();
    let rows = corpus
        .all_docs()
        .map(|d| {
            let mut row = corpus.doc_terms(d).to_vec();
            if rng.below(3) == 0 {
                let term = TermId(rng.below(vocab as usize) as u32);
                if let Err(at) = row.binary_search_by_key(&term, |&(t, _)| t) {
                    row.insert(at, (term, 0));
                }
            }
            row
        })
        .collect();
    Corpus::from_frozen_parts(analyzer, docs, rows, corpus.index().clone())
        .expect("zero tfs pass validation")
}

/// A clusterer that implements only `cluster`, keeps what it was handed,
/// and deals results round-robin.
#[derive(Default)]
struct RoundRobin {
    seen: Mutex<Vec<Vec<SparseVec>>>,
}

impl Clusterer for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn cluster(&self, vectors: &[SparseVec], k: usize) -> ClusterAssignment {
        self.seen.lock().unwrap().push(vectors.to_vec());
        let k = k.max(1) as u32;
        let membership: Vec<u32> = (0..vectors.len() as u32).map(|i| i % k).collect();
        ClusterAssignment::from_membership(&membership)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One case: `docs` of `corpus` built both ways.
fn assert_fused_equals_staged(
    corpus: &Corpus,
    docs: &[DocId],
    k: usize,
    rng: &mut SplitMix64,
    label: &str,
) {
    let n = docs.len();
    let weights: Option<Vec<f64>> =
        (rng.below(2) == 0).then(|| (0..n).map(|_| rng.f64_below(5.0)).collect());
    let query_terms: Vec<TermId> = match rng.below(3) {
        0 => Vec::new(),
        1 => corpus.keyword_term("common").into_iter().collect(),
        _ => corpus
            .doc_terms(docs[rng.below(n)])
            .iter()
            .map(|&(t, _)| t)
            .take(2)
            .collect(),
    };
    let arena_config = ArenaConfig {
        candidate_fraction: [0.2, 1.0][rng.below(2)],
        min_candidates: [0, 5, 32][rng.below(3)],
    };
    let clusterer = KMeansClusterer(KMeansConfig {
        seed: rng.next_u64(),
        ..Default::default()
    });

    let vectors: Vec<SparseVec> = docs.iter().map(|&d| doc_tf_vector(corpus, d)).collect();
    let staged_assignment = clusterer.cluster(&vectors, k);
    let staged = ExpansionArena::build(
        corpus,
        docs,
        weights.as_deref(),
        &query_terms,
        &arena_config,
    );

    let matrix = TermMatrix::gather(corpus, docs);
    let fused_assignment = clusterer.cluster_matrix(&matrix, k);
    let fused = ExpansionArena::from_matrix(
        corpus,
        &matrix,
        docs,
        weights.as_deref(),
        &query_terms,
        &arena_config,
    );

    assert_eq!(fused_assignment, staged_assignment, "{label}: membership");
    assert_eq!(fused.docs, staged.docs, "{label}");
    assert_eq!(bits(&fused.weights), bits(&staged.weights), "{label}");
    let terms = |a: &ExpansionArena| a.candidates.iter().map(|c| c.term).collect::<Vec<_>>();
    assert_eq!(terms(&fused), terms(&staged), "{label}: candidate order");
    for (f, s) in fused.candidates.iter().zip(&staged.candidates) {
        assert_eq!(f.contains.universe(), n, "{label}");
        assert_eq!(f.contains.as_words(), s.contains.as_words(), "{label}");
    }
    // Whole arenas, which takes in the lane index — and that index is the
    // one `from_parts` derives from the candidates alone.
    assert!(fused == staged, "{label}: arena");
    let mut parts = ExpansionArena::from_parts(fused.weights.clone(), fused.candidates.clone());
    parts.docs.clone_from(&fused.docs);
    assert!(parts == fused, "{label}: lane index");

    // The provided trait method hands a vectors-only clusterer exactly the
    // vectors `doc_tf_vector` builds.
    let double = RoundRobin::default();
    assert_eq!(
        double.cluster_matrix(&matrix, k),
        double.cluster(&vectors, k),
        "{label}"
    );
    let seen = double.seen.lock().unwrap();
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0], vectors, "{label}: materialised vectors");
}

#[test]
fn fused_cold_build_equals_the_per_stage_front_ends() {
    let mut rng = SplitMix64::seed_from_u64(0x15_c01d);
    let mut corpora: Vec<(String, Corpus)> = Vec::new();
    for (i, vocab) in [6, 40, 400].into_iter().enumerate() {
        let built = random_corpus(140 + rng.below(60), vocab, [0, 5, 9][i], &mut rng);
        corpora.push((
            format!("snapshot of vocab {vocab}"),
            snapshot_round_trip(&built, i),
        ));
        corpora.push((
            format!("zero tfs over vocab {vocab}"),
            with_zero_tfs(&built, &mut rng),
        ));
        corpora.push((format!("vocab {vocab}"), built));
    }
    corpora.push(("duplicates only".into(), duplicates_only(130)));

    let mut cases = 0;
    let mut zero_tf_cases = 0;
    let mut empty_row_cases = 0;
    for (name, corpus) in &corpora {
        for n in SIZES {
            // The results: `n` distinct docs in a random (ranking) order.
            let mut docs: Vec<DocId> = corpus.all_docs().collect();
            for i in 0..n {
                let j = i + rng.below(docs.len() - i);
                docs.swap(i, j);
            }
            docs.truncate(n);
            let matrix = TermMatrix::gather(corpus, &docs);
            let zero_tf = |i| matrix.row(i).iter().any(|&(_, tf)| tf == 0);
            zero_tf_cases += usize::from((0..n).any(zero_tf));
            empty_row_cases += usize::from((0..n).any(|i| matrix.row(i).is_empty()));

            let mut ks = vec![1, 2, 5, n.saturating_sub(1).max(1), n, n + 1];
            ks.sort_unstable();
            ks.dedup();
            for k in ks {
                let label = format!("{name}, n {n}, k {k}");
                assert_fused_equals_staged(corpus, &docs, k, &mut rng, &label);
                cases += 1;
            }
        }
    }
    assert!(cases >= 300, "{cases} cases");
    assert!(zero_tf_cases >= 10, "{zero_tf_cases} zero-tf cases");
    assert!(empty_row_cases >= 10, "{empty_row_cases} empty-row cases");
}

/// `KMeansClusterer` without its `cluster_matrix` override: the engine
/// reaches it through the provided method, i.e. per-result `SparseVec`s.
struct VectorsOnly(KMeansClusterer);

impl Clusterer for VectorsOnly {
    fn name(&self) -> &'static str {
        "kmeans-vectors-only"
    }

    fn cluster(&self, vectors: &[SparseVec], k: usize) -> ClusterAssignment {
        self.0.cluster(vectors, k)
    }
}

#[test]
fn engine_answers_do_not_depend_on_which_clusterer_front_end_ran() {
    let mut rng = SplitMix64::seed_from_u64(0x15_e2e);
    let built = random_corpus(400, 60, 7, &mut rng);
    for corpus in [with_zero_tfs(&built, &mut rng), built] {
        let fused = EngineBuilder::from_corpus(corpus.clone()).build();
        let staged = EngineBuilder::from_corpus(corpus)
            .clusterer(Box::new(VectorsOnly(KMeansClusterer(
                fused.config().kmeans.clone(),
            ))))
            .build();
        for query in ["common", "tok0", "tok1 tok2", "tok3", "common tok5"] {
            for (semantics, k_clusters, top_k) in [
                (QuerySemantics::And, 5, 100),
                (QuerySemantics::Or, 3, 64),
                (QuerySemantics::And, 2, 0),
            ] {
                let req = ExpandRequest {
                    semantics,
                    k_clusters,
                    top_k,
                    ..ExpandRequest::new(query)
                };
                let (a, b) = (fused.expand(&req), staged.expand(&req));
                assert_eq!(a.stats.results, b.stats.results, "{query}");
                assert_eq!(a.clusters().len(), b.clusters().len(), "{query}");
                for (x, y) in a.clusters().iter().zip(b.clusters()) {
                    assert_eq!(x.docs, y.docs, "{query}");
                    assert_eq!(x.added, y.added, "{query}");
                    assert_eq!(
                        bits(&[x.quality.precision, x.quality.recall, x.quality.fmeasure]),
                        bits(&[y.quality.precision, y.quality.recall, y.quality.fmeasure]),
                        "{query}"
                    );
                }
            }
        }
    }
}
