//! Seeded inputs: the corpus, the query pools, the request lists and the
//! arrival schedule. Everything here is a function of `(Scale, seed)` and
//! of nothing else; the program under test only ever sees the outputs.
//!
//! The corpus is DBLP-shaped: a title plus `paper:venue`, `paper:year` and
//! `paper:author` features. Title tokens come 60 % from the vocabulary of
//! the record's latent topic and 40 % from a background vocabulary shared
//! by all topics, so a background keyword is ambiguous across topics:
//! the paper's premise, and the reason its results cluster.

use std::collections::HashSet;
use std::fmt::Write;

use qec_engine::{DocumentSpec, ExpandRequest, ExpandStrategy, QuerySemantics};
use qec_index::Feature;

use crate::rng::{Rng, Zipf};

/// Every request of every workload.
pub const K_CLUSTERS: usize = 5;
pub const TOP_K: usize = 100;

/// Popularity drifts: every `WARM_EPOCH` requests, the query at popularity
/// rank `r` becomes the one `WARM_DRIFT` places further down the pool. A
/// Zipf pick puts a fifth of the traffic on one query; without drift, a
/// seed's metrics would mostly describe the handful of queries it happened
/// to make popular. With it, each run averages over many such handfuls.
/// The drift is coprime with the pool size, so every query gets its turn
/// at every rank.
const WARM_EPOCH: usize = 2_048;
const WARM_DRIFT: usize = 7;

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub docs: usize,
    pub topics: usize,
    pub topic_vocab: usize,
    pub background_vocab: usize,
    pub authors: usize,
    /// Distinct analysed keys in the cold pool.
    pub cold_keys: usize,
    /// Queries in the warm pool (each served under two strategies).
    pub warm_queries: usize,
    /// Every generated query matches at least this many records.
    pub min_matches: usize,
    /// Requests in the pre-drawn `warm_zipf` list (cycled).
    pub warm_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        docs: 100_000,
        topics: 64,
        topic_vocab: 400,
        background_vocab: 20_000,
        authors: 20_000,
        cold_keys: 8_192,
        warm_queries: 48,
        min_matches: 20,
        warm_requests: 1 << 16,
    };

    /// Small enough for the unit tests, same shape.
    pub const SMOKE: Scale = Scale {
        docs: 2_000,
        topics: 8,
        topic_vocab: 60,
        background_vocab: 400,
        authors: 300,
        cold_keys: 192,
        warm_queries: 12,
        min_matches: 8,
        warm_requests: 512,
    };
}

// The warm keys (two strategies per query) fit the engine's default
// 128-entry cache; the cold pools do not.
const _: () = assert!(
    Scale::FULL.warm_queries * 2 <= 128
        && Scale::SMOKE.warm_queries * 2 <= 128
        && Scale::FULL.cold_keys > 128
        && Scale::SMOKE.cold_keys > 128
);

/// One keyword query of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub semantics: QuerySemantics,
    /// Records matching it, by the generator's own count.
    pub matches: usize,
}

/// One request of a workload's list: a pool query plus serving knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub query: u32,
    pub strategy: ExpandStrategy,
    pub member_offset: usize,
    pub member_limit: usize,
}

impl Request {
    pub fn cold(query: usize) -> Self {
        Self {
            query: query as u32,
            strategy: ExpandStrategy::Iskr,
            member_offset: 0,
            member_limit: 0,
        }
    }

    pub fn expand<'q>(&self, pool: &'q [Query]) -> ExpandRequest<'q> {
        let q = &pool[self.query as usize];
        ExpandRequest {
            k_clusters: K_CLUSTERS,
            top_k: TOP_K,
            semantics: q.semantics,
            strategy: self.strategy,
            member_offset: self.member_offset,
            member_limit: self.member_limit,
            ..ExpandRequest::new(&q.text)
        }
    }
}

/// Everything one seed generates.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub docs: Vec<DocumentSpec>,
    /// Distinct analysed keys in shuffled order, so that any prefix has the
    /// pool's mix: 50 % one term, 35 % two-term AND, 15 % two-term OR, the
    /// terms spread over head, mid and tail document frequencies.
    pub cold: Vec<Query>,
    /// One-term and AND queries from the mid band.
    pub warm: Vec<Query>,
    /// Zipf(1.0) picks over `warm` with drifting popularity, `Iskr` 80 % /
    /// `Pebc` 20 %, half paged.
    pub warm_requests: Vec<Request>,
}

/// Generator-side view of a title token.
type Token = u32;

struct Vocabulary {
    scale: Scale,
}

impl Vocabulary {
    fn background(&self, rank: usize) -> Token {
        rank as Token
    }

    fn topic_word(&self, topic: usize, rank: usize) -> Token {
        (self.scale.background_vocab + topic * self.scale.topic_vocab + rank) as Token
    }

    fn len(&self) -> usize {
        self.scale.background_vocab + self.scale.topics * self.scale.topic_vocab
    }

    /// Names end in a digit, which keeps them clear of the stop list and
    /// makes the stemmer leave them alone: one token, one term.
    fn write_name(&self, token: Token, out: &mut String) {
        let t = token as usize;
        let _ = if t < self.scale.background_vocab {
            write!(out, "b{t}")
        } else {
            let t = t - self.scale.background_vocab;
            write!(
                out,
                "t{}w{}",
                t / self.scale.topic_vocab,
                t % self.scale.topic_vocab
            )
        };
    }

    fn name(&self, token: Token) -> String {
        let mut s = String::new();
        self.write_name(token, &mut s);
        s
    }
}

/// Size of the intersection of two ascending lists.
fn intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut from = 0;
    let mut n = 0;
    for &d in short {
        from += long[from..].partition_point(|&x| x < d);
        if long.get(from) == Some(&d) {
            n += 1;
        }
    }
    n
}

pub fn generate(scale: Scale, seed: u64) -> Inputs {
    let vocab = Vocabulary { scale };
    let mut rng = Rng::fork(seed, "corpus");
    let topic_zipf = Zipf::new(scale.topic_vocab, 1.0);
    let background_zipf = Zipf::new(scale.background_vocab, 1.0);
    let author_zipf = Zipf::new(scale.authors, 1.0);
    let venues = scale.topics * 4;

    let mut docs = Vec::with_capacity(scale.docs);
    let mut doc_tokens: Vec<Vec<Token>> = Vec::with_capacity(scale.docs);
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); vocab.len()];
    for d in 0..scale.docs {
        let topic = rng.below(scale.topics);
        let mut tokens = Vec::with_capacity(14);
        let mut title = String::with_capacity(14 * 8);
        for _ in 0..8 + rng.below(7) {
            let token = if rng.f64() < 0.6 {
                vocab.topic_word(topic, topic_zipf.sample(&mut rng))
            } else {
                vocab.background(background_zipf.sample(&mut rng))
            };
            if !title.is_empty() {
                title.push(' ');
            }
            vocab.write_name(token, &mut title);
            tokens.push(token);
        }
        tokens.sort_unstable();
        tokens.dedup();
        for &t in &tokens {
            postings[t as usize].push(d as u32);
        }
        doc_tokens.push(tokens);

        let venue = if rng.f64() < 0.9 {
            topic * 4 + rng.below(4)
        } else {
            rng.below(venues)
        };
        let mut features = vec![
            Feature::new("paper", "venue", format!("v{venue}")),
            Feature::new("paper", "year", (1990 + rng.below(31)).to_string()),
        ];
        for _ in 0..1 + rng.below(4) {
            let author = author_zipf.sample(&mut rng);
            features.push(Feature::new("paper", "author", format!("a{author}")));
        }
        docs.push(DocumentSpec {
            title,
            body: String::new(),
            features,
            label: Some(topic as u32),
        });
    }

    let mut rng = Rng::fork(seed, "queries");
    // Document-frequency bands, as shares of the corpus.
    let head_df = (scale.docs / 100).max(scale.min_matches + 2);
    let mid_df = (scale.docs / 1000).max(scale.min_matches + 1);
    let (mut head, mut mid, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    for (t, p) in postings.iter().enumerate() {
        match p.len() {
            n if n >= head_df => head.push(t as Token),
            n if n >= mid_df => mid.push(t as Token),
            n if n >= scale.min_matches => tail.push(t as Token),
            _ => {}
        }
    }
    for band in [&mut head, &mut mid, &mut tail] {
        rng.shuffle(band);
    }

    let n_or = scale.cold_keys * 15 / 100;
    let n_and = scale.cold_keys * 35 / 100;
    let n_one = scale.cold_keys - n_or - n_and;
    let df = |t: Token| postings[t as usize].len();
    let mut cold: Vec<Query> = Vec::with_capacity(scale.cold_keys);

    // One term: 10 % head, 40 % mid, the rest tail. A band too small for
    // its share passes the remainder down, and what the tail cannot take
    // comes back up.
    let bands = [&head, &mid, &tail];
    let mut take = [n_one / 10, n_one * 4 / 10, 0];
    take[2] = n_one - take[0] - take[1];
    let mut short = 0;
    for (t, band) in take.iter_mut().zip(bands) {
        let want = *t + short;
        *t = want.min(band.len());
        short = want - *t;
    }
    for (t, band) in take.iter_mut().zip(bands).rev() {
        let extra = short.min(band.len() - *t);
        *t += extra;
        short -= extra;
    }
    assert!(
        short == 0,
        "scale too small: {short} one-term queries short of {n_one}"
    );
    for (&t, band) in take.iter().zip(bands) {
        for &token in &band[..t] {
            cold.push(Query {
                text: vocab.name(token),
                semantics: QuerySemantics::And,
                matches: df(token),
            });
        }
    }

    let two_terms = |a: Token, b: Token, semantics, matches| Query {
        text: format!("{} {}", vocab.name(a), vocab.name(b)),
        semantics,
        matches,
    };

    // Two-term AND: two tokens of one record, so the pair co-occurs at
    // least once; kept when it co-occurs often enough.
    let mut seen: HashSet<(Token, Token)> = HashSet::new();
    let mut and_queries = Vec::with_capacity(n_and);
    let mut attempts = 0usize;
    while and_queries.len() < n_and {
        attempts += 1;
        assert!(
            attempts < 400 * n_and,
            "scale too small: cannot find {n_and} AND pairs with {} matches",
            scale.min_matches
        );
        let tokens = &doc_tokens[rng.below(scale.docs)];
        let (i, j) = (rng.below(tokens.len()), rng.below(tokens.len()));
        if i == j {
            continue;
        }
        let (a, b) = (tokens[i].min(tokens[j]), tokens[i].max(tokens[j]));
        if df(a).min(df(b)) < scale.min_matches || seen.contains(&(a, b)) {
            continue;
        }
        let matches = intersection_len(&postings[a as usize], &postings[b as usize]);
        if matches >= scale.min_matches {
            seen.insert((a, b));
            and_queries.push(two_terms(a, b, QuerySemantics::And, matches));
        }
    }

    // Two-term OR: one mid term and one tail term.
    seen.clear();
    let mut or_queries = Vec::with_capacity(n_or);
    while or_queries.len() < n_or {
        let (a, b) = (mid[rng.below(mid.len())], tail[rng.below(tail.len())]);
        if seen.insert((a, b)) {
            let both = intersection_len(&postings[a as usize], &postings[b as usize]);
            or_queries.push(two_terms(a, b, QuerySemantics::Or, df(a) + df(b) - both));
        }
    }

    // The warm pool: mid-band one-term queries and AND pairs, alternating.
    let warm: Vec<Query> = (0..scale.warm_queries)
        .map(|i| {
            if i % 2 == 0 {
                cold[(take[0] + i / 2) % n_one].clone()
            } else {
                and_queries[i / 2].clone()
            }
        })
        .collect();

    cold.append(&mut and_queries);
    cold.append(&mut or_queries);
    rng.shuffle(&mut cold);

    let mut rng = Rng::fork(seed, "warm-requests");
    let pick = Zipf::new(warm.len(), 1.0);
    let warm_requests = (0..scale.warm_requests)
        .map(|i| {
            let drift = i / WARM_EPOCH * WARM_DRIFT;
            let query = ((pick.sample(&mut rng) + drift) % warm.len()) as u32;
            let strategy = if rng.f64() < 0.8 {
                ExpandStrategy::Iskr
            } else {
                ExpandStrategy::Pebc
            };
            let (member_offset, member_limit) = if rng.f64() < 0.5 {
                ([0, 10, 40][rng.below(3)], 10)
            } else {
                (0, 0)
            };
            Request {
                query,
                strategy,
                member_offset,
                member_limit,
            }
        })
        .collect();

    Inputs {
        docs,
        cold,
        warm,
        warm_requests,
    }
}

/// Every key `warm_zipf` can ask for, for the warm-up in set-up.
pub fn warm_keys(inputs: &Inputs) -> impl Iterator<Item = Request> + '_ {
    (0..inputs.warm.len()).flat_map(|q| {
        [ExpandStrategy::Iskr, ExpandStrategy::Pebc].map(|strategy| Request {
            strategy,
            ..Request::cold(q)
        })
    })
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Nanoseconds after the start of the timed phase.
    pub due_ns: u64,
    /// Slot of the warm request list (cycled).
    pub slot: u32,
}

/// The open-loop schedule: `burst` requests fall due together, bursts
/// evenly spaced so that `rate` requests fall due per second; the requests
/// are the warm list's, in order. Bursts rather than single arrivals so
/// that the front door has batches to form; evenly spaced rather than
/// Poisson so that the schedule adds no noise of its own to the tail.
pub fn arrivals(inputs: &Inputs, rate: f64, burst: usize, seconds: f64) -> Vec<Arrival> {
    let gap_ns = burst as f64 / rate * 1e9;
    let bursts = (seconds * 1e9 / gap_ns) as usize;
    (1..bursts)
        .flat_map(|b| (0..burst).map(move |k| (b, (b - 1) * burst + k)))
        .map(|(b, i)| Arrival {
            due_ns: (b as f64 * gap_ns) as u64,
            slot: (i % inputs.warm_requests.len()) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Fnv;
    use qec_engine::Corpus;
    use qec_index::{CorpusBuilder, Searcher};

    /// Digest of the generated records, for the same-seed / other-seed tests.
    fn docs_digest(docs: &[DocumentSpec]) -> u64 {
        let mut h = Fnv::new();
        for d in docs {
            h.bytes(d.title.as_bytes());
            for f in &d.features {
                h.bytes(f.value.as_bytes());
            }
            h.u64(u64::from(d.label.unwrap_or(u32::MAX)));
        }
        h.finish()
    }

    /// Digest of the query pools and request lists.
    fn requests_digest(inputs: &Inputs) -> u64 {
        let mut h = Fnv::new();
        for q in inputs.cold.iter().chain(&inputs.warm) {
            h.bytes(q.text.as_bytes());
            h.u64(q.semantics as u64);
            h.u64(q.matches as u64);
        }
        for r in &inputs.warm_requests {
            h.u64(u64::from(r.query));
            h.u64(r.strategy as u64);
            h.u64(r.member_offset as u64);
            h.u64(r.member_limit as u64);
        }
        h.finish()
    }

    fn corpus_of(inputs: &Inputs) -> Corpus {
        let mut b = CorpusBuilder::new();
        for d in &inputs.docs {
            b.add_document(d.clone());
        }
        b.build()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(Scale::SMOKE, 11);
        let b = generate(Scale::SMOKE, 11);
        let c = generate(Scale::SMOKE, 12);
        assert_eq!(docs_digest(&a.docs), docs_digest(&b.docs));
        assert_eq!(requests_digest(&a), requests_digest(&b));
        assert_ne!(docs_digest(&a.docs), docs_digest(&c.docs));
        assert_ne!(requests_digest(&a), requests_digest(&c));
    }

    /// The program's own analysis and retrieval agree with what the
    /// generator promised about every cold query.
    #[test]
    fn cold_queries_match_enough_and_have_distinct_analysed_keys() {
        for seed in [1, 2, 3] {
            let inputs = generate(Scale::SMOKE, seed);
            assert_eq!(inputs.cold.len(), Scale::SMOKE.cold_keys);
            let corpus = corpus_of(&inputs);
            let searcher = Searcher::new(&corpus);
            let mut keys = HashSet::new();
            for q in &inputs.cold {
                let mut terms = corpus.query_terms(&q.text);
                assert_eq!(
                    terms.len(),
                    q.text.split(' ').count(),
                    "every keyword of {:?} is indexed",
                    q.text
                );
                terms.sort_unstable();
                let found = searcher.search(&terms, q.semantics).len();
                assert_eq!(found, q.matches, "{:?}", q.text);
                assert!(found >= Scale::SMOKE.min_matches, "{:?}", q.text);
                assert!(
                    keys.insert((terms, q.semantics as u8)),
                    "duplicate key {:?}",
                    q.text
                );
            }
        }
    }

    #[test]
    fn arrivals_keep_the_rate_in_bursts_over_the_warm_list() {
        let inputs = generate(Scale::SMOKE, 5);
        let a = arrivals(&inputs, 2_000.0, 4, 2.0);
        assert_eq!(a.len(), 3_996);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a
            .chunks(4)
            .all(|burst| burst.iter().all(|x| x.due_ns == burst[0].due_ns)));
        assert_eq!(a[4].due_ns - a[0].due_ns, 2_000_000);
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, x)| x.slot as usize == i % inputs.warm_requests.len()));
    }
}
