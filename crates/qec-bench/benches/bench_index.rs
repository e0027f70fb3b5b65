//! Retrieval benchmarks over a Zipfian synthetic corpus: AND and OR over
//! terms picked by df tier — dense (`df · 64 ≥ N`, which carries a
//! membership probe), mid and rare — plus the scratch-reuse vs
//! per-query-allocation comparison. Smoke mode (`--test`) checks every
//! case's result against a naive scan of the corpus.

use qec_bench::{synth_corpus, CorpusSpec, Harness};
use qec_index::{Corpus, DocId, QuerySemantics, SearchScratch, Searcher};
use qec_text::TermId;
use std::hint::black_box;

/// First synthetic term whose df falls in `[lo, hi]`, with its df.
fn term_with_df(corpus: &Corpus, lo: u32, hi: u32) -> (TermId, u32) {
    for rank in 0..50_000 {
        if let Some(t) = qec_bench::synth_term(corpus, rank) {
            let df = corpus.index().df(t);
            if (lo..=hi).contains(&df) {
                return (t, df);
            }
        }
    }
    panic!("no term with df in [{lo}, {hi}]");
}

/// The documents matching `terms` under `semantics`, by scanning every
/// document's row.
fn naive(corpus: &Corpus, terms: &[TermId], semantics: QuerySemantics) -> Vec<DocId> {
    let hit = |d: DocId, t: &TermId| corpus.doc_contains(d, *t);
    corpus
        .all_docs()
        .filter(|&d| match semantics {
            QuerySemantics::And => terms.iter().all(|t| hit(d, t)),
            QuerySemantics::Or => terms.iter().any(|t| hit(d, t)),
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("index");
    let spec = CorpusSpec::default(); // 20k docs, vocab 10k, Zipf 1.0
    let corpus = synth_corpus(&spec);
    let s = Searcher::new(&corpus);

    // Tiers. Dense: df · 64 ≥ N, so the boundary df is ⌈N/64⌉, not
    // ⌊N/64⌋. Mid: sparse but long enough that a rare list gallops
    // through it. Rare: a handful of documents.
    let dense_cut = spec.num_docs.div_ceil(64) as u32;
    let (dense_a, df_da) = term_with_df(&corpus, dense_cut * 4, u32::MAX);
    let (dense_b, df_db) = term_with_df(&corpus, dense_cut, dense_cut * 4);
    let (mid, df_mid) = term_with_df(&corpus, 40, dense_cut - 1);
    let (rare, df_rare) = term_with_df(&corpus, 5, 39);
    println!(
        "# dfs: dense {df_da}/{df_db}, mid {df_mid}, rare {df_rare} over {} docs",
        spec.num_docs
    );

    use QuerySemantics::{And, Or};
    let four = vec![rare, mid, dense_a, dense_b];
    let cases = [
        ("and/dense", And, vec![dense_a]),
        ("and/rare_mid", And, vec![rare, mid]),
        ("and/rare_dense", And, vec![rare, dense_a]),
        ("and/dense_dense", And, vec![dense_a, dense_b]),
        ("and/rare_mid_dense_dense", And, four.clone()),
        ("or/rare_mid", Or, vec![rare, mid]),
        ("or/mid_dense_dense", Or, vec![mid, dense_a, dense_b]),
    ];
    if h.test_mode() {
        for (case, semantics, terms) in &cases {
            let want = naive(&corpus, terms, *semantics);
            assert_eq!(s.search(terms, *semantics), want, "{case}");
        }
    }
    for (case, semantics, terms) in &cases {
        h.bench(case, || black_box(s.search(black_box(terms), *semantics)));
    }

    let mut scratch = SearchScratch::new();
    h.bench("and/rare_mid_dense_dense_scratch_reuse", || {
        s.and_query_into(black_box(&four), &mut scratch);
        black_box(scratch.results().len())
    });

    h.finish();
}
