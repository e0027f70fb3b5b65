//! The corpus build against the per-token-`String` build it replaced:
//! analysing through reused buffers must not change a single id.
//!
//! `CorpusBuilder` analyses each document as it arrives, building every
//! token and stem in one reused buffer. The reference below is the build
//! it replaced, kept here verbatim in spirit: a fresh `String` per token
//! and per stem, each term interned as it is met. Seeded corpora — with
//! features, stopword-only and empty documents, overlong and
//! apostrophe-only tokens, and rare words that keep adding terms — are
//! built under all four `AnalyzerConfig` flag pairs, and through the
//! engine builders. Every build must equal the reference: the dictionary
//! in id order, every row, posting list, idf bit pattern and stored
//! document, and the snapshot file byte for byte (which covers its
//! dictionary checksum).

use std::path::PathBuf;

use qec_cluster::SplitMix64;
use qec_engine::{EngineBuilder, ShardedEngineBuilder};
use qec_index::{
    Corpus, CorpusBuilder, DocId, DocumentSpec, Feature, InvertedIndex, Posting, StoredDoc,
};
use qec_text::{Analyzer, AnalyzerConfig, PorterStemmer, StopwordList, TermId, Tokenizer};

/// Enough documents for the rare words to keep adding terms throughout.
const DOCS: usize = 9_000;

const CONFIGS: [AnalyzerConfig; 4] = [
    AnalyzerConfig {
        stem: true,
        filter_stopwords: true,
    },
    AnalyzerConfig {
        stem: false,
        filter_stopwords: true,
    },
    AnalyzerConfig {
        stem: true,
        filter_stopwords: false,
    },
    AnalyzerConfig {
        stem: false,
        filter_stopwords: false,
    },
];

/// Words drawn into titles, bodies and feature values: stemmable forms,
/// stopwords, mixed case, digits, apostrophes and separators.
const WORDS: &[&str] = &[
    "apple",
    "Apples",
    "running",
    "runs",
    "the",
    "of",
    "AND",
    "don't",
    "o'clock",
    "'''",
    "'",
    "caf\u{e9}",
    "8GB",
    "ddr3",
    "1080p",
    "wp-dc26",
    "generalization",
    "connections",
    "hopping",
    "--",
    "iPhone,",
    "sky.",
    "is",
];

fn word(rng: &mut SplitMix64) -> String {
    match rng.below(10) {
        0..=4 => WORDS[rng.below(WORDS.len())].to_string(),
        5..=7 => format!("w{}", rng.below(300)),
        8 => format!("rare{}ing", rng.below(40_000)),
        _ => match rng.below(4) {
            // One byte past the tokenizer's limit, and exactly at it.
            0 => "x".repeat(65),
            1 => "y".repeat(64),
            2 => "''".to_string(),
            _ => String::new(),
        },
    }
}

fn text(rng: &mut SplitMix64, max: usize) -> String {
    let words: Vec<String> = (0..rng.below(max + 1)).map(|_| word(rng)).collect();
    words.join(" ")
}

/// A seeded corpus of `n` documents: rare synthetic words next to
/// `WORDS`, so later documents meet both known and new terms.
fn corpus_specs(seed: u64, n: usize) -> Vec<DocumentSpec> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let rng = &mut rng;
    (0..n)
        .map(|_| match rng.below(20) {
            0 => DocumentSpec::default(),
            1 => DocumentSpec::text("The", "of and the is"),
            _ => {
                let features = (0..rng.below(4))
                    .map(|_| {
                        let entity = ["paper", "Canon Products", "tv"][rng.below(3)];
                        let attribute =
                            ["venue", "shutter speed", "year", "display area"][rng.below(4)];
                        Feature::new(entity, attribute, text(rng, 3))
                    })
                    .collect();
                let spec = DocumentSpec {
                    title: text(rng, 6),
                    body: text(rng, 12),
                    features,
                    label: None,
                };
                match rng.below(3) {
                    0 => spec.with_label(rng.below(9) as u32),
                    _ => spec,
                }
            }
        })
        .collect()
}

/// The analysis the buffered build replaced: a fresh `String` per token and
/// per stem, each term interned as it is met.
fn reference_analyze(
    analyzer: &mut Analyzer,
    stopwords: &StopwordList,
    config: &AnalyzerConfig,
    text: &str,
) -> Vec<TermId> {
    let mut tokenizer = Tokenizer::new(text);
    let mut tokens = Vec::new();
    loop {
        let mut token = String::new();
        if tokenizer.next_into(&mut token).is_none() {
            break;
        }
        tokens.push(token);
    }
    let mut out = Vec::new();
    for token in tokens {
        if config.filter_stopwords && stopwords.contains(&token) {
            continue;
        }
        let term = if config.stem {
            PorterStemmer::new().stem(&token)
        } else {
            token
        };
        if !term.is_empty() {
            out.push(analyzer.intern_verbatim(&term));
        }
    }
    out
}

/// The one-document-at-a-time build: each document analysed and interned
/// on arrival, its row counted and its postings appended at once.
fn reference_corpus(config: &AnalyzerConfig, specs: Vec<DocumentSpec>) -> Corpus {
    let mut analyzer = Analyzer::with_config(config.clone());
    let stopwords = if config.filter_stopwords {
        StopwordList::english()
    } else {
        StopwordList::none()
    };
    let analyze =
        |analyzer: &mut Analyzer, text: &str| reference_analyze(analyzer, &stopwords, config, text);
    let mut docs = Vec::new();
    let mut doc_terms = Vec::new();
    let mut lists: Vec<Vec<Posting>> = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let mut terms = Vec::new();
        terms.extend(analyze(&mut analyzer, &spec.title));
        terms.extend(analyze(&mut analyzer, &spec.body));
        for feature in &spec.features {
            terms.push(analyzer.intern_verbatim(&feature.composite_token()));
            terms.extend(analyze(&mut analyzer, &feature.value));
            terms.extend(analyze(&mut analyzer, &feature.attribute));
        }
        let len = terms.len() as u32;
        terms.sort_unstable();
        let mut row: Vec<(TermId, u32)> = Vec::new();
        for term in terms {
            match row.last_mut() {
                Some((last, tf)) if *last == term => *tf += 1,
                _ => row.push((term, 1)),
            }
        }
        for &(term, tf) in &row {
            if term.index() >= lists.len() {
                lists.resize_with(term.index() + 1, Vec::new);
            }
            lists[term.index()].push(Posting {
                doc: DocId(i as u32),
                tf,
            });
        }
        doc_terms.push(row);
        docs.push(StoredDoc {
            title: spec.title,
            features: spec.features,
            label: spec.label,
            len,
        });
    }
    let index = InvertedIndex::from_lists(docs.len() as u32, lists).expect("appended in order");
    Corpus::from_frozen_parts(analyzer, docs, doc_terms, index).expect("consistent parts")
}

fn builder(config: &AnalyzerConfig, specs: Vec<DocumentSpec>) -> CorpusBuilder {
    let mut b = CorpusBuilder::with_analyzer_config(config.clone());
    for (i, spec) in specs.into_iter().enumerate() {
        assert_eq!(
            b.add_document(spec),
            DocId(i as u32),
            "ids in insertion order"
        );
    }
    b
}

fn snapshot_bytes(corpus: &Corpus, tag: &str) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "qec-corpus-build-{}-{tag}.qsnap",
        std::process::id()
    ));
    qec_snapshot::save_corpus(corpus, &path).expect("save snapshot");
    let bytes = std::fs::read(&path).expect("read snapshot back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Asserts `got` equals `want` in everything a build produces.
fn assert_same(want: &Corpus, want_bytes: &[u8], got: &Corpus, what: &str) {
    assert_eq!(want.analyzer().config(), got.analyzer().config(), "{what}");
    assert!(
        want.analyzer()
            .dict()
            .iter()
            .eq(got.analyzer().dict().iter()),
        "{what}: dictionary differs in id order"
    );
    assert_eq!(want.num_docs(), got.num_docs(), "{what}");
    for d in want.all_docs() {
        assert_eq!(want.doc_terms(d), got.doc_terms(d), "{what}: row of {d}");
        assert_eq!(want.doc(d), got.doc(d), "{what}: stored {d}");
    }
    let (wi, gi) = (want.index(), got.index());
    assert_eq!(wi.num_terms(), gi.num_terms(), "{what}");
    assert_eq!(wi.total_postings(), gi.total_postings(), "{what}");
    for t in 0..wi.num_terms() as u32 {
        let t = TermId(t);
        let pairs = |list: &[Posting]| -> Vec<(DocId, u32)> {
            list.iter().map(|p| (p.doc, p.tf)).collect()
        };
        assert_eq!(
            pairs(wi.postings(t)),
            pairs(gi.postings(t)),
            "{what}: postings of {t}"
        );
        assert_eq!(
            wi.idf(t).to_bits(),
            gi.idf(t).to_bits(),
            "{what}: idf of {t}"
        );
    }
    assert!(
        want_bytes == snapshot_bytes(got, what),
        "{what}: snapshot file differs"
    );
}

#[test]
fn builds_equal_the_per_token_reference() {
    for (c, config) in CONFIGS.iter().enumerate() {
        let seed = 0xC0A5 + c as u64;
        let want = reference_corpus(config, corpus_specs(seed, DOCS));
        assert!(
            want.vocab_size() > 5_000,
            "the corpus must keep meeting new terms"
        );
        let want_bytes = snapshot_bytes(&want, &format!("ref{c}"));
        let got = builder(config, corpus_specs(seed, DOCS)).build();
        assert_same(&want, &want_bytes, &got, &format!("config {c}"));
    }
}

#[test]
fn engine_builders_build_the_reference_corpus() {
    let config = AnalyzerConfig::default();
    let want = reference_corpus(&config, corpus_specs(7, DOCS));
    let want_bytes = snapshot_bytes(&want, "engine-ref");
    let engine = EngineBuilder::new()
        .documents(corpus_specs(7, DOCS))
        .build();
    assert_same(&want, &want_bytes, engine.corpus(), "EngineBuilder");

    let sharded = ShardedEngineBuilder::new()
        .documents(corpus_specs(7, DOCS))
        .num_shards(3)
        .build();
    assert_same(&want, &want_bytes, sharded.corpus(), "ShardedEngineBuilder");
}

#[test]
fn tiny_and_empty_builds_equal_the_reference() {
    for n in [0, 1, 2, 3, 17] {
        let config = AnalyzerConfig::default();
        let want = reference_corpus(&config, corpus_specs(n as u64, n));
        let want_bytes = snapshot_bytes(&want, &format!("tiny{n}"));
        let got = builder(&config, corpus_specs(n as u64, n)).build();
        assert_same(&want, &want_bytes, &got, &format!("{n} docs"));
    }
}
