//! Seeded synthetic workload generators.
//!
//! Everything is driven by [`SplitMix64`], so a `(spec, seed)` pair always
//! produces the identical corpus or arena on every platform — benchmark
//! numbers are comparable across machines and PRs.

use std::fmt::Write;

use qec_cluster::SplitMix64;
use qec_core::{Candidate, ExpansionArena, ResultSet};
use qec_index::{Corpus, CorpusBuilder, DocumentSpec};
use qec_text::TermId;

/// Shape of a synthetic text corpus.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Number of documents.
    pub num_docs: usize,
    /// Vocabulary size the Zipfian draws range over.
    pub vocab: usize,
    /// Tokens per document.
    pub doc_len: usize,
    /// Zipf exponent (1.0 ≈ natural text; higher skews harder).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        Self {
            num_docs: 20_000,
            vocab: 10_000,
            doc_len: 40,
            zipf_s: 1.0,
            seed: 42,
        }
    }
}

/// The document bodies of a synthetic corpus: Zipf-distributed tokens
/// where `wK` has rank `K`, so low-K terms are dense (they freeze with a
/// membership bitmap) and high-K terms are sparse — the df mix retrieval
/// must handle. Separate from [`synth_corpus`] so a bench that times the
/// build can generate them outside the timed region.
pub fn synth_bodies(spec: &CorpusSpec) -> Vec<String> {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    let sampler = ZipfSampler::new(spec.vocab, spec.zipf_s);
    (0..spec.num_docs)
        .map(|_| {
            let mut body = String::with_capacity(spec.doc_len * 8);
            for _ in 0..spec.doc_len {
                let rank = sampler.sample(&mut rng);
                let _ = write!(body, "w{rank} ");
            }
            body
        })
        .collect()
}

/// Builds the corpus of [`synth_bodies`]. Stopword filtering and stemming
/// are irrelevant to synthetic tokens; the bodies go through the normal
/// analyzer path so the bench exercises the real build pipeline.
pub fn synth_corpus(spec: &CorpusSpec) -> Corpus {
    let mut builder = CorpusBuilder::new();
    for body in synth_bodies(spec) {
        builder.add_document(DocumentSpec::text("", body));
    }
    builder.build()
}

/// Term id of synthetic token rank `rank` in `corpus`, if it was drawn.
pub fn synth_term(corpus: &Corpus, rank: usize) -> Option<TermId> {
    corpus.keyword_term(&format!("w{rank}"))
}

/// Shape of a synthetic expansion arena.
#[derive(Debug, Clone)]
pub struct ArenaSpec {
    /// Arena size (the paper's workloads: 30, 100, 500).
    pub arena_size: usize,
    /// Number of candidate keywords.
    pub num_candidates: usize,
    /// Number of latent clusters (senses) the results split into.
    pub num_clusters: usize,
    /// `false`: a candidate is in every result except those of the one
    /// sense it discriminates against (it holds ~89 % of the arena).
    /// `true`: it is in results of the one sense it marks and nowhere else
    /// (~7 % of the arena) — the shape of every arena the serving stack
    /// builds, where the tf·idf cut keeps the rare words.
    pub sparse: bool,
    /// Probability the candidate's sense decides a result of that sense:
    /// makes it absent (dense shape, its elimination power) or present
    /// (sparse shape).
    pub discrimination: f64,
    /// Stray results per candidate outside its sense that go the same way
    /// (the noise that makes elimination sets ragged).
    pub leaks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ArenaSpec {
    /// The paper-shaped workload for a given arena size.
    pub fn top(arena_size: usize, seed: u64) -> Self {
        Self {
            arena_size,
            // §C keeps the top-20% tfidf words; candidate counts scale
            // roughly with arena size in the paper's corpora.
            num_candidates: (arena_size / 2).clamp(16, 256),
            num_clusters: 8,
            sparse: false,
            discrimination: 0.9,
            leaks: 1,
            seed,
        }
    }

    /// The serving-shaped workload: twice as many candidates as results
    /// (the repo benchmark's arenas average 67 × 134), each in about half
    /// the results of one sense.
    pub fn sparse(arena_size: usize, seed: u64) -> Self {
        Self {
            num_candidates: (arena_size * 2).clamp(16, 256),
            sparse: true,
            discrimination: 0.5,
            ..Self::top(arena_size, seed)
        }
    }
}

/// Generates a clustered arena mirroring the paper's premise: results carry
/// latent sense labels (the clusters), and each candidate keyword
/// *discriminates against* one foreign sense — it is absent from that
/// sense's results with probability `discrimination`, present elsewhere
/// except for `leaks` stray absences. Elimination sets are therefore
/// concentrated on one cluster plus noise, so a move's delta affects only
/// the keywords discriminating the same sense — the §3 maintenance regime.
/// The [`sparse`](ArenaSpec::sparse) shape is the mirror image: a candidate
/// *marks* one sense and is absent everywhere else. The output is the
/// (arena, clusters-as-bitsets) pair a per-cluster `QecInstance` is built
/// from.
pub fn synth_arena(spec: &ArenaSpec) -> (ExpansionArena, Vec<ResultSet>) {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    let n = spec.arena_size;
    let k = spec.num_clusters.max(1);

    let labels: Vec<usize> = (0..n).map(|_| rng.below(k)).collect();

    let candidates: Vec<Candidate> = (0..spec.num_candidates)
        .map(|i| {
            let sense = i % k;
            // Built as the dense shape's elimination set; the sparse
            // shape contains exactly those results instead.
            let mut decided = ResultSet::empty(n);
            for (j, &label) in labels.iter().enumerate() {
                if label == sense && rng.f64() < spec.discrimination {
                    decided.insert(j);
                }
            }
            for _ in 0..spec.leaks {
                decided.insert(rng.below(n));
            }
            Candidate {
                term: TermId(i as u32),
                contains: if spec.sparse {
                    decided
                } else {
                    ResultSet::full(n).and_not(&decided)
                },
            }
        })
        .collect();

    // Rank-decaying weights mimic the tfidf ranking scores of real runs.
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64).sqrt()).collect();
    let arena = ExpansionArena::from_parts(weights, candidates);

    let clusters: Vec<ResultSet> = (0..k)
        .map(|c| {
            ResultSet::from_indices(
                n,
                labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == c)
                    .map(|(j, _)| j),
            )
        })
        .filter(|s| !s.is_empty())
        .collect();
    (arena, clusters)
}

/// Zipf sampler over ranks `0..n` by inverse-CDF on a precomputed table
/// (`s = 0` degenerates to uniform). Drives the corpus generator.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF table for ranks `0..n` with exponent `s`.
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (1.0 + rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draws one rank.
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_zipfian() {
        let spec = CorpusSpec {
            num_docs: 500,
            vocab: 200,
            doc_len: 20,
            ..Default::default()
        };
        let c1 = synth_corpus(&spec);
        let c2 = synth_corpus(&spec);
        assert_eq!(c1.num_docs(), 500);
        assert_eq!(c1.vocab_size(), c2.vocab_size());
        // Rank-0 token must be much denser than a tail token.
        let head = synth_term(&c1, 0).expect("head token drawn");
        let head_df = c1.index().df(head);
        let tail_df = synth_term(&c1, 180).map(|t| c1.index().df(t)).unwrap_or(0);
        assert!(head_df > tail_df * 3, "head {head_df} vs tail {tail_df}");
    }

    #[test]
    fn arena_matches_spec_shape() {
        let spec = ArenaSpec::top(100, 7);
        let (arena, clusters) = synth_arena(&spec);
        assert_eq!(arena.size(), 100);
        assert_eq!(arena.num_candidates(), spec.num_candidates);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 100, "clusters partition the arena");
        for (i, a) in clusters.iter().enumerate() {
            for b in &clusters[i + 1..] {
                assert!(!a.intersects(b), "clusters are disjoint");
            }
        }
    }

    #[test]
    fn sparse_arena_candidates_hold_a_few_results_of_one_sense() {
        let spec = ArenaSpec::sparse(100, 7);
        let (arena, clusters) = synth_arena(&spec);
        assert_eq!(arena.num_candidates(), 200);
        let held: usize = arena.candidates.iter().map(|c| c.contains.len()).sum();
        let density = held as f64 / (100.0 * 200.0);
        assert!((0.05..=0.10).contains(&density), "density {density}");
        // All but the stray result sit in one cluster.
        for c in &arena.candidates {
            let best = clusters.iter().map(|s| s.intersect_count(&c.contains));
            assert!(best.max().unwrap() + spec.leaks >= c.contains.len());
        }
    }

    #[test]
    fn arena_is_deterministic() {
        let spec = ArenaSpec::top(30, 99);
        let (a1, c1) = synth_arena(&spec);
        let (a2, c2) = synth_arena(&spec);
        assert_eq!(c1, c2);
        for (x, y) in a1.candidates.iter().zip(&a2.candidates) {
            assert_eq!(x.contains, y.contains);
        }
    }
}
