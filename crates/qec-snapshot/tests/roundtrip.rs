//! Round-trip equality: a corpus saved and loaded back — as one file or
//! as a snapshot set of any segment count — must be indistinguishable
//! from the original — same dictionary, same stored documents, same term
//! rows, same posting lists, same idf table — across text, structured,
//! labeled, empty, and stopword-only shapes.

use std::path::PathBuf;

use qec_index::{Corpus, CorpusBuilder, DocumentSpec, Feature};
use qec_snapshot::{
    load_corpus, load_corpus_set, save_corpus, save_corpus_set, SnapshotError, FULL_SNAPSHOT,
};
use qec_text::TermId;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-snap-rt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A corpus exercising every serialized shape: plain text, repeated
/// terms (tf > 1), structured features, labels, a stopword-only document
/// (zero terms, zero length), and enough repetition of a common term to
/// freeze it dense (`df · 64 >= num_docs` holds trivially at this size).
fn mixed_corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..40 {
        b.add_document(DocumentSpec::text(
            format!("Title {i}"),
            format!("apple common{} java java island word{}", i % 3, i % 7),
        ));
    }
    b.add_document(DocumentSpec::text("", "the of and"));
    b.add_document(
        DocumentSpec::structured(
            "Canon PowerShot",
            vec![
                Feature::new("camera", "brand", "Canon"),
                Feature::new("camera", "category", "cameras"),
            ],
        )
        .with_label(7),
    );
    b.build()
}

/// Field-for-field corpus equality, through public accessors.
fn assert_corpora_equal(a: &Corpus, b: &Corpus) {
    assert_eq!(a.num_docs(), b.num_docs());
    assert_eq!(a.vocab_size(), b.vocab_size());
    assert_eq!(a.analyzer().config(), b.analyzer().config());
    for t in 0..a.vocab_size() as u32 {
        assert_eq!(a.term_name(TermId(t)), b.term_name(TermId(t)), "term {t}");
    }
    for d in a.all_docs() {
        assert_eq!(a.doc(d), b.doc(d), "stored doc {d}");
        assert_eq!(a.doc_terms(d), b.doc_terms(d), "term row of {d}");
    }
    let (ia, ib) = (a.index(), b.index());
    assert_eq!(ia.num_docs(), ib.num_docs());
    assert_eq!(ia.num_terms(), ib.num_terms());
    assert_eq!(ia.total_postings(), ib.total_postings());
    for t in 0..ia.num_terms() as u32 {
        let term = TermId(t);
        assert_eq!(ia.postings(term), ib.postings(term), "postings of {t}");
        // The derived side: the idf table re-frozen on load.
        assert_eq!(ia.idf(term).to_bits(), ib.idf(term).to_bits(), "idf of {t}");
    }
}

#[test]
fn mixed_corpus_roundtrips_bit_identically() {
    let dir = temp_dir("mixed");
    let path = dir.join("index.qsnap");
    let corpus = mixed_corpus();

    let saved = save_corpus(&corpus, &path).expect("save");
    assert_eq!(saved.num_docs, corpus.num_docs() as u64);
    assert_eq!(saved.vocab, corpus.vocab_size() as u64);
    assert_eq!(saved.total_postings, corpus.index().total_postings());
    assert_eq!(
        saved.bytes,
        std::fs::metadata(&path).unwrap().len(),
        "summary byte count is the file size"
    );

    let loaded = load_corpus(&path).expect("load");
    assert_corpora_equal(&corpus, &loaded);

    // The loaded corpus serves query analysis identically.
    assert_eq!(loaded.keyword_term("apples"), corpus.keyword_term("apples"));
    assert_eq!(loaded.keyword_term("the"), None);
    assert_eq!(
        loaded.query_terms("java island"),
        corpus.query_terms("java island")
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_set_roundtrips_bit_identically_for_every_segment_count() {
    let corpus = mixed_corpus();
    let dir = temp_dir("set");
    let single = save_corpus(&corpus, &dir.join("single.qsnap")).expect("save single");
    for n in [1usize, 2, 3, 8, corpus.num_docs()] {
        let set = dir.join(format!("set-{n}"));
        std::fs::create_dir_all(&set).unwrap();
        let summaries = save_corpus_set(&corpus, &set, n).expect("save set");
        assert_eq!(
            summaries.len(),
            1 + n,
            "the doc store and one segment per range"
        );
        let (store, segments) = (&summaries[0], &summaries[1..]);
        assert_eq!(
            store.bytes,
            std::fs::metadata(set.join(FULL_SNAPSHOT)).unwrap().len()
        );
        assert_eq!(store.total_postings, corpus.index().total_postings());
        assert!(segments.iter().all(|s| s.dict_crc == single.dict_crc));
        assert_eq!(
            segments.iter().map(|s| s.num_docs).sum::<u64>(),
            corpus.num_docs() as u64,
            "n={n}: every document in one segment"
        );
        assert_eq!(
            segments.iter().map(|s| s.total_postings).sum::<u64>(),
            corpus.index().total_postings(),
            "n={n}: every posting in one segment"
        );
        let loaded = load_corpus_set(&set, n).expect("load set");
        assert_corpora_equal(&corpus, &loaded);
    }

    // The empty corpus: one empty range, and back.
    let empty = dir.join("set-empty");
    std::fs::create_dir_all(&empty).unwrap();
    save_corpus_set(&CorpusBuilder::new().build(), &empty, 1).expect("save empty set");
    assert_eq!(load_corpus_set(&empty, 1).expect("load").num_docs(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_corpus_roundtrips() {
    let dir = temp_dir("empty");
    let path = dir.join("empty.qsnap");
    let corpus = CorpusBuilder::new().build();
    save_corpus(&corpus, &path).expect("save empty");
    let loaded = load_corpus(&path).expect("load empty");
    assert_eq!(loaded.num_docs(), 0);
    assert_eq!(loaded.vocab_size(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saving_over_an_existing_snapshot_replaces_it_atomically() {
    let dir = temp_dir("replace");
    let path = dir.join("index.qsnap");

    let mut b = CorpusBuilder::new();
    b.add_document(DocumentSpec::text("one", "first generation"));
    save_corpus(&b.build(), &path).expect("first save");

    let second = mixed_corpus();
    save_corpus(&second, &path).expect("second save");
    let loaded = load_corpus(&path).expect("load replaced");
    assert_corpora_equal(&second, &loaded);

    // No temp debris left behind.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "temp files cleaned up: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loading_a_missing_file_is_a_typed_io_error() {
    let err = load_corpus(std::path::Path::new("/nonexistent/qec/snapshot.qsnap")).unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    assert!(err.to_string().contains("io error"), "{err}");
}

#[test]
fn no_stem_no_stopword_config_survives_the_roundtrip() {
    use qec_text::AnalyzerConfig;
    let dir = temp_dir("config");
    let path = dir.join("cfg.qsnap");
    let mut b = CorpusBuilder::with_analyzer_config(AnalyzerConfig {
        stem: false,
        filter_stopwords: false,
    });
    b.add_document(DocumentSpec::text("t", "The Running Shoes"));
    let corpus = b.build();
    save_corpus(&corpus, &path).unwrap();
    let loaded = load_corpus(&path).unwrap();
    assert_corpora_equal(&corpus, &loaded);
    // Stopwords were indexed (config says keep them) and must still be.
    assert!(loaded.keyword_term("the").is_some());
    assert_eq!(
        loaded.keyword_term("running"),
        corpus.keyword_term("running")
    );
    std::fs::remove_dir_all(&dir).ok();
}
