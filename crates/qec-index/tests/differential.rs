//! Retrieval and ranking against naive references, on seeded random
//! corpora whose dfs straddle both the dense cut (`N/64`) and the join's
//! [`GALLOP_RATIO`], queried with 0–4 terms (duplicates and unseen terms
//! included) under AND and OR:
//!
//! * `and_query_into` / `or_query_into`, on one scratch reused across
//!   every query and corpus, against `BTreeSet` algebra over the
//!   generator's own rows;
//! * `rank_with_idf_into` against `TfIdfRanker::rank`, bit for bit, for
//!   every `top_k` prefix (sampled past [`EVERY_PREFIX_UP_TO`] results)
//!   and the full ranking;
//! * a tally, by the documented selection rules, of which join arm or
//!   dense probe each narrowing and each ranked term takes, so the run
//!   provably reaches every one of them;
//! * range searchers (`Searcher::within`) over random document ranges
//!   and over the shard ranges of `doc_ranges`, against the whole
//!   corpus's results filtered to the range, and their ranking — whose
//!   lists are cut to the range's results — against `TfIdfRanker::rank`,
//!   bit for bit.

use std::collections::BTreeSet;

use qec_index::{
    doc_ranges, Corpus, CorpusBuilder, DocId, DocumentSpec, Hit, QuerySemantics, SearchScratch,
    Searcher, TfIdfRanker, GALLOP_RATIO,
};
use qec_text::{AnalyzerConfig, TermId};

/// Local splitmix64 (the workspace's `rand` substitute lives in
/// `qec-cluster`, which sits above this crate).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const CORPORA: u64 = 10;
const QUERIES: usize = 50;
const VOCAB: usize = 24;
/// Result lists up to this long have every `top_k` checked; longer ones
/// a sample (the first 32, a stride, and the last two).
const EVERY_PREFIX_UP_TO: usize = 256;
/// Each arm must be taken at least this often over the whole run.
const MIN_ARM_RUNS: usize = 50;

/// One vocabulary word of a random corpus: its term (`None` if no
/// document drew it) and the documents holding it.
type Word = (Option<TermId>, BTreeSet<DocId>);

/// A random corpus and its vocabulary. Word `k` lands in a document with
/// a probability spread log-uniformly from about `1/n` to 0.6, so some
/// dfs sit near `n/64` and some far to either side.
fn random_corpus(rng: &mut SplitMix64, n: usize) -> (Corpus, Vec<Word>) {
    let (lo, hi) = (1.0 / n as f64, 0.6f64);
    let probs: Vec<f64> = (0..VOCAB)
        .map(|k| lo * (hi / lo).powf(k as f64 / (VOCAB - 1) as f64))
        .collect();
    let mut b = CorpusBuilder::with_analyzer_config(AnalyzerConfig {
        stem: false,
        filter_stopwords: false,
    });
    let mut sets = vec![BTreeSet::new(); VOCAB];
    for doc in 0..n {
        let mut body = String::new();
        for (k, &p) in probs.iter().enumerate() {
            if rng.unit() < p {
                sets[k].insert(DocId(doc as u32));
                for _ in 0..=rng.below(3) {
                    body.push_str(&format!("w{k} "));
                }
            }
        }
        b.add_document(DocumentSpec::text("", &body));
    }
    let corpus = b.build();
    let words = sets
        .into_iter()
        .enumerate()
        .map(|(k, set)| (corpus.keyword_term(&format!("w{k}")), set))
        .collect();
    (corpus, words)
}

/// Which way a narrowing or a ranked term goes.
#[derive(Clone, Copy)]
enum Arm {
    Linear,
    /// Galloping through the posting list, driven by a short left side.
    GallopList,
    /// Galloping through the left side, driven by a short posting list.
    GallopLeft,
    /// An AND narrowed by a dense term's membership probe.
    Probe,
}

/// The join arm for a left side of `m` documents against a list of `n`
/// postings (`None` when either is empty: the join returns at once).
fn join_arm(m: usize, n: usize) -> Option<Arm> {
    if m == 0 || n == 0 {
        None
    } else if m.max(n) / m.min(n) < GALLOP_RATIO {
        Some(Arm::Linear)
    } else if m < n {
        Some(Arm::GallopList)
    } else {
        Some(Arm::GallopLeft)
    }
}

/// The length of `t`'s posting list cut to the span between the first
/// and last of `docs`: what ranking `docs` joins.
fn run_between(corpus: &Corpus, t: TermId, docs: &[DocId]) -> usize {
    let (Some(&first), Some(&last)) = (docs.first(), docs.last()) else {
        return 0;
    };
    let list = corpus.index().postings(t);
    list.iter()
        .filter(|p| p.doc >= first && p.doc <= last)
        .count()
}

/// A random query of 0–4 terms (duplicates and unseen terms included).
fn random_query(rng: &mut SplitMix64, words: &[Word], unseen: TermId) -> Vec<TermId> {
    (0..rng.below(5))
        .map(|_| match rng.below(10) {
            0 => unseen,
            _ => words[rng.below(VOCAB as u64) as usize].0.unwrap_or(unseen),
        })
        .collect()
}

/// Bit-level equality of two rankings.
fn same_bits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

#[test]
fn retrieval_and_ranking_match_naive_references_on_random_corpora() {
    let unseen = TermId(1_000_000);
    let empty = BTreeSet::new();
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut tally = [0usize; 4];
    let mut checked = 0usize;
    for seed in 0..CORPORA {
        let mut rng = SplitMix64(0x5EED_0000 + seed);
        let n = 300 + rng.below(2700) as usize;
        let (corpus, words) = random_corpus(&mut rng, n);
        let index = corpus.index();
        let searcher = Searcher::new(&corpus);
        let ranker = TfIdfRanker::new(&corpus);
        for q in 0..QUERIES {
            let mut terms: Vec<TermId> = Vec::new();
            let mut sets: Vec<&BTreeSet<DocId>> = Vec::new();
            for _ in 0..rng.below(5) {
                match rng.below(10) {
                    0 => {
                        terms.push(unseen);
                        sets.push(&empty);
                    }
                    1 if !terms.is_empty() => {
                        let i = rng.below(terms.len() as u64) as usize;
                        terms.push(terms[i]);
                        sets.push(sets[i]);
                    }
                    _ => {
                        let (term, set) = &words[rng.below(VOCAB as u64) as usize];
                        terms.push(term.unwrap_or(unseen));
                        sets.push(set);
                    }
                }
            }
            let set_of =
                |t: TermId| sets[terms.iter().position(|&u| u == t).expect("a query term")];
            let idfs: Vec<f64> = terms.iter().map(|&t| index.idf(t)).collect();
            for semantics in [QuerySemantics::And, QuerySemantics::Or] {
                let expected: Vec<DocId> = match (semantics, sets.split_first()) {
                    (_, None) => Vec::new(),
                    (QuerySemantics::And, Some((first, rest))) => first
                        .iter()
                        .filter(|d| rest.iter().all(|s| s.contains(d)))
                        .copied()
                        .collect(),
                    (QuerySemantics::Or, Some(_)) => sets
                        .iter()
                        .flat_map(|s| s.iter().copied())
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect(),
                };
                match semantics {
                    QuerySemantics::And => searcher.and_query_into(&terms, &mut scratch),
                    QuerySemantics::Or => searcher.or_query_into(&terms, &mut scratch),
                }
                let ctx = format!("corpus {seed} (n {n}), query {q} {terms:?}, {semantics:?}");
                assert_eq!(scratch.results(), expected, "{ctx}");

                if semantics == QuerySemantics::And && !terms.is_empty() {
                    // The AND's narrowings: distinct terms by ascending df
                    // (ties by id), the running result replayed from the
                    // reference sets.
                    let mut order = terms.clone();
                    order.sort_unstable();
                    order.dedup();
                    order.sort_by_key(|&t| index.df(t));
                    let mut running = set_of(order[0]).clone();
                    for &t in &order[1..] {
                        if running.is_empty() {
                            break;
                        }
                        let df = index.df(t) as usize;
                        let arm = if df * 64 >= n {
                            Some(Arm::Probe)
                        } else {
                            join_arm(running.len(), df)
                        };
                        if let Some(arm) = arm {
                            tally[arm as usize] += 1;
                        }
                        running.retain(|d| set_of(t).contains(d));
                    }
                }

                let docs = scratch.results();
                for &t in &terms {
                    if let Some(arm) = join_arm(docs.len(), run_between(&corpus, t, docs)) {
                        tally[arm as usize] += 1;
                    }
                }
                let reference = ranker.rank(docs, &terms);
                let len = docs.len();
                let top_ks: Vec<usize> = if len <= EVERY_PREFIX_UP_TO {
                    (0..=len + 1).collect()
                } else {
                    (0..=32)
                        .chain((33..len).step_by(len / 16))
                        .chain([len - 1, len, len + 1])
                        .collect()
                };
                for top_k in top_ks {
                    ranker.rank_with_idf_into(docs, &terms, &idfs, top_k, &mut out);
                    let want = match top_k {
                        0 => &reference[..],
                        k => &reference[..k.min(len)],
                    };
                    assert!(same_bits(&out, want), "{ctx}, top_k {top_k}");
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, CORPORA as usize * QUERIES * 2);
    for (arm, name) in [
        (Arm::Linear, "linear merge"),
        (Arm::GallopList, "gallop through the list"),
        (Arm::GallopLeft, "gallop through the left side"),
        (Arm::Probe, "dense probe"),
    ] {
        let runs = tally[arm as usize];
        assert!(
            runs >= MIN_ARM_RUNS,
            "{name} taken {runs} times, want ≥ {MIN_ARM_RUNS}"
        );
    }
}

#[test]
fn range_retrieval_is_the_whole_retrieval_inside_the_range() {
    let unseen = TermId(1_000_000);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..CORPORA {
        let mut rng = SplitMix64(0x5EED_1000 + seed);
        let n = 300 + rng.below(2700) as usize;
        let (corpus, words) = random_corpus(&mut rng, n);
        let index = corpus.index();
        let whole = Searcher::new(&corpus);
        let ranker = TfIdfRanker::new(&corpus);
        // Random ranges (empty, one document and whole-corpus ones
        // included), then every range of a 2-, 3- and 8-way split.
        let mut ranges: Vec<std::ops::Range<u32>> = (0..12)
            .map(|_| {
                let a = rng.below(n as u64 + 1) as u32;
                let b = rng.below(n as u64 + 1) as u32;
                a.min(b)..a.max(b)
            })
            .collect();
        ranges.extend([0..0, 0..1, n as u32 - 1..n as u32, 0..n as u32]);
        for shards in [2, 3, 8] {
            ranges.extend(doc_ranges(n, shards));
        }
        for _ in 0..QUERIES {
            let terms = random_query(&mut rng, &words, unseen);
            let idfs: Vec<f64> = terms.iter().map(|&t| index.idf(t)).collect();
            for semantics in [QuerySemantics::And, QuerySemantics::Or] {
                let all = whole.search(&terms, semantics);
                for range in &ranges {
                    let searcher = Searcher::within(&corpus, range.clone());
                    match semantics {
                        QuerySemantics::And => searcher.and_query_into(&terms, &mut scratch),
                        QuerySemantics::Or => searcher.or_query_into(&terms, &mut scratch),
                    }
                    let expected: Vec<DocId> = all
                        .iter()
                        .copied()
                        .filter(|d| range.contains(&d.0))
                        .collect();
                    let ctx =
                        format!("corpus {seed} (n {n}), {terms:?} {semantics:?} in {range:?}");
                    assert_eq!(scratch.results(), expected, "{ctx}");
                    let docs = scratch.results();
                    nonempty += usize::from(!docs.is_empty());
                    let reference = ranker.rank(docs, &terms);
                    for top_k in [0, 1, 7, docs.len()] {
                        ranker.rank_with_idf_into(docs, &terms, &idfs, top_k, &mut out);
                        let want = match top_k {
                            0 => &reference[..],
                            k => &reference[..k.min(docs.len())],
                        };
                        assert!(same_bits(&out, want), "{ctx}, top_k {top_k}");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(
        nonempty * 4 >= checked,
        "{nonempty} of {checked} range queries matched anything"
    );
}
