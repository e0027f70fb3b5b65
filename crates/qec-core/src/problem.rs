//! The QEC problem instance (paper Definitions 2.1 / 2.2).
//!
//! All expansion algorithms operate on an [`ExpansionArena`]: the ranked
//! result list of the original user query, re-indexed densely as
//! `0..arena_size`, together with
//!
//! * the ranking weight of each result (uniform when unranked), and
//! * the **candidate keywords** — terms occurring in the results that may
//!   be added to the query — each with the bitset of arena results that
//!   *contain* it. A keyword's elimination set `E(k)` (results that do
//!   *not* contain `k`) is the complement, realised as `and_not`.
//!
//! For one cluster, a [`QecInstance`] pairs the arena with the cluster
//! bitset `C` and the out-of-cluster universe `U` (Definition 2.2: generate
//! `q` maximising F-measure with `C` as ground truth).
//!
//! Candidate pruning follows the experimental setup (§C): "we consider the
//! top-20% words in the results in terms of tfidf for query expansion";
//! the fraction is configurable and 1.0 disables pruning.

use crate::bitset::ResultSet;
use crate::metrics::{query_quality, QueryQuality};
use qec_index::{Corpus, DocId, TermMatrix};
use qec_text::TermId;

/// Index of a candidate keyword within an [`ExpansionArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandId(pub u32);

impl CandId {
    /// The id as a `usize` for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One candidate expansion keyword.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The underlying analysed term.
    pub term: TermId,
    /// Arena results containing the term. `E(k)` is the complement.
    pub contains: ResultSet,
}

/// Configuration for candidate selection.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Keep this fraction of candidate terms, ranked by arena tf·idf
    /// (paper: 0.2). Values ≥ 1.0 keep everything.
    pub candidate_fraction: f64,
    /// Always keep at least this many candidates regardless of fraction
    /// (avoids starving tiny arenas).
    pub min_candidates: usize,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        Self {
            candidate_fraction: 0.2,
            min_candidates: 32,
        }
    }
}

/// The shared context for expanding all clusters of one user query.
///
/// Beside the candidate-major `contains` bitsets the arena carries their
/// transpose, the **lane index**: per result, the ascending ids of the
/// candidates that contain it — or, for a result more than half the
/// candidates contain, of the ones that do not (the row is then
/// *flipped*). Storing whichever side is shorter bounds the index at
/// `size · num_candidates / 2` entries and lets one pass over the results
/// value every candidate at once on either density regime (see "The
/// lane pass" in the `iskr` module docs). Every constructor derives it
/// from `candidates`, which must therefore not be edited afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionArena {
    /// Arena index → original document.
    pub docs: Vec<DocId>,
    /// Ranking score of each arena result (the paper's `S`); uniform 1.0
    /// when the caller has no ranking.
    pub weights: Vec<f64>,
    /// Candidate keywords, sorted by descending arena tf·idf.
    pub candidates: Vec<Candidate>,
    /// Lane-index row `i` is `lanes[lane_starts[i]..lane_starts[i + 1]]`.
    lane_starts: Vec<u32>,
    lanes: Vec<u32>,
    /// The results whose row lists the candidates that do *not* contain
    /// them.
    flipped: ResultSet,
}

impl ExpansionArena {
    /// Builds an arena from `docs` (the ranked results of the user query)
    /// over `corpus`.
    ///
    /// `query_terms` are the original query's terms: they are excluded from
    /// candidacy (they occur in every result under AND semantics, so their
    /// elimination sets are empty). Terms contained in *all* arena results
    /// are likewise excluded — adding them can never change `R(q)`.
    pub fn build(
        corpus: &Corpus,
        docs: &[DocId],
        weights: Option<&[f64]>,
        query_terms: &[TermId],
        config: &ArenaConfig,
    ) -> Self {
        let matrix = TermMatrix::gather(corpus, docs);
        Self::from_matrix(corpus, &matrix, docs, weights, query_terms, config)
    }

    /// [`build`](Self::build) from term occurrences already gathered:
    /// `matrix` must be [`TermMatrix::gather`]`(corpus, docs)`. The serving
    /// path gathers once and hands the same matrix to the clusterer.
    pub fn from_matrix(
        corpus: &Corpus,
        matrix: &TermMatrix,
        docs: &[DocId],
        weights: Option<&[f64]>,
        query_terms: &[TermId],
        config: &ArenaConfig,
    ) -> Self {
        let n = docs.len();
        assert_eq!(matrix.num_rows(), n, "one matrix row per arena result");
        let weights = match weights {
            Some(w) => {
                assert_eq!(w.len(), n, "one weight per arena result");
                normalize_weights(w)
            }
            None => vec![1.0; n],
        };

        // One group per term: its document count is the length of its run
        // (a `doc_terms` row holds a term once) and its arena tf·idf the
        // sum of `tf · idf` over the run. Float-order contract: a run
        // ascends by arena index and the sum starts from `0.0`, which is
        // the order a per-result accumulation adds in, so the ranking below
        // sees the same bits. Only terms that can change `R(q)` survive:
        // not a query term, not in every result.
        struct Group {
            tfidf: f64,
            term: TermId,
            /// The term's local id in `matrix`.
            local: u32,
        }
        let index = corpus.index();
        let mut ranked: Vec<Group> = Vec::new();
        for local in 0..matrix.num_terms() {
            let term = matrix.term(local);
            let run = matrix.term_run(local);
            if run.len() == n || query_terms.contains(&term) {
                continue;
            }
            let idf = index.idf(term);
            let mut tfidf = 0.0;
            for (_, tf) in run {
                tfidf += tf as f64 * idf;
            }
            debug_assert!(tfidf.is_finite() && tfidf.is_sign_positive());
            ranked.push(Group {
                tfidf,
                term,
                local: local as u32,
            });
        }

        // Keep the top `keep` under the total order (tf·idf descending,
        // then `TermId` ascending — terms are distinct, so no two groups
        // compare equal and neither the selection nor the unstable sort
        // can depend on input order). A tf·idf is `+0.0` or positive and
        // finite (tf ≥ 0, and `idf = ln(N / df) ≥ +0.0` since df ≤ N), and
        // the IEEE bit patterns of such doubles order as their values do:
        // compare those, an integer compare.
        let by_rank = |a: &Group, b: &Group| {
            b.tfidf
                .to_bits()
                .cmp(&a.tfidf.to_bits())
                .then_with(|| a.term.cmp(&b.term))
        };
        let keep = if config.candidate_fraction >= 1.0 {
            ranked.len()
        } else {
            let frac = (ranked.len() as f64 * config.candidate_fraction).ceil() as usize;
            frac.max(config.min_candidates).min(ranked.len())
        };
        if keep < ranked.len() {
            ranked.select_nth_unstable_by(keep, by_rank);
            ranked.truncate(keep);
        }
        ranked.sort_unstable_by(by_rank);

        // Bitsets only for the candidates that were kept, straight from
        // their term's run of arena indices.
        let candidates: Vec<Candidate> = ranked
            .into_iter()
            .map(|group| Candidate {
                term: group.term,
                contains: ResultSet::from_indices(
                    n,
                    matrix
                        .term_run(group.local as usize)
                        .map(|(result, _)| result as usize),
                ),
            })
            .collect();

        Self::assemble(docs.to_vec(), weights, candidates)
    }

    /// Builds an arena directly from per-candidate containment sets —
    /// used by unit tests, property tests and synthetic benchmarks that
    /// have no corpus.
    pub fn from_parts(weights: Vec<f64>, candidates: Vec<Candidate>) -> Self {
        let n = weights.len();
        for c in &candidates {
            assert_eq!(c.contains.universe(), n, "candidate universe mismatch");
        }
        Self::assemble((0..n as u32).map(DocId).collect(), weights, candidates)
    }

    /// Every constructor ends here: derives the lane index from
    /// `candidates`. A candidate belongs in result `i`'s row exactly when
    /// `contains(i) != flipped(i)`, so the fill is one XOR per word.
    fn assemble(docs: Vec<DocId>, weights: Vec<f64>, candidates: Vec<Candidate>) -> Self {
        let n = weights.len();
        // With no row flipped yet the listed bits are `contains` itself.
        let mut flipped = ResultSet::empty(n);
        let mut holders = vec![0u32; n];
        each_listed(&candidates, &flipped, |i, _| holders[i] += 1);
        let mut lane_starts = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        for (i, &held) in holders.iter().enumerate() {
            lane_starts.push(total);
            let absent = candidates.len() as u32 - held;
            if absent < held {
                flipped.insert(i);
            }
            total = total
                .checked_add(held.min(absent))
                .expect("lane index under 2^32 entries");
        }
        lane_starts.push(total);

        // `holders` becomes each row's write cursor; candidates are
        // visited in id order, so rows come out ascending.
        let mut cursor = holders;
        cursor.copy_from_slice(&lane_starts[..n]);
        let mut lanes = vec![0u32; total as usize];
        each_listed(&candidates, &flipped, |i, id| {
            lanes[cursor[i] as usize] = id;
            cursor[i] += 1;
        });

        Self {
            docs,
            weights,
            candidates,
            lane_starts,
            lanes,
            flipped,
        }
    }

    /// Number of results in the arena.
    pub fn size(&self) -> usize {
        self.weights.len()
    }

    /// Number of candidate keywords.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The candidate for `id`.
    #[inline]
    pub fn candidate(&self, id: CandId) -> &Candidate {
        &self.candidates[id.index()]
    }

    /// Result `i`'s lane-index row: the ascending ids of the candidates
    /// that contain `i`, or — `i` in [`flipped_rows`](Self::flipped_rows) —
    /// of those that do not, whichever are fewer.
    #[inline]
    pub(crate) fn lane_row(&self, i: usize) -> &[u32] {
        &self.lanes[self.lane_starts[i] as usize..self.lane_starts[i + 1] as usize]
    }

    /// The results whose lane-index row lists the candidates that do *not*
    /// contain them.
    #[inline]
    pub(crate) fn flipped_rows(&self) -> &ResultSet {
        &self.flipped
    }

    /// Heap footprint of the arena in bytes: result list, weights,
    /// candidate containment bitsets and the lane index. This is the
    /// dominant share of a cached pipeline's memory, which the byte-budget
    /// cache eviction weighs entries by.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let candidates: usize = self
            .candidates
            .iter()
            .map(|c| size_of::<Candidate>() + c.contains.heap_bytes())
            .sum();
        self.docs.capacity() * size_of::<DocId>()
            + self.weights.capacity() * size_of::<f64>()
            + candidates
            + (self.lane_starts.capacity() + self.lanes.capacity()) * size_of::<u32>()
            + self.flipped.heap_bytes()
    }

    /// `R(uq ∪ added)`: results containing every added keyword. The
    /// original query matches the whole arena by construction, so with no
    /// additions this is the full set.
    fn results_of(&self, added: &[CandId]) -> ResultSet {
        let mut r = ResultSet::full(self.size());
        for &c in added {
            r.and_assign(&self.candidate(c).contains);
        }
        r
    }
}

/// Visits `(result, candidate)` for every bit of every candidate's
/// `contains ^ mask`, candidates in id order.
fn each_listed(candidates: &[Candidate], mask: &ResultSet, mut visit: impl FnMut(usize, u32)) {
    for (id, c) in candidates.iter().enumerate() {
        let words = c.contains.as_words().iter().zip(mask.as_words());
        for (wi, (&held, &flip)) in words.enumerate() {
            let mut listed = held ^ flip;
            while listed != 0 {
                visit(wi * 64 + listed.trailing_zeros() as usize, id as u32);
                listed &= listed - 1;
            }
        }
    }
}

/// Scales weights so they sum to the arena size (keeps `S(·)` on the same
/// numeric footing as cardinalities; pure cosmetics — every metric is a
/// ratio of `S` values, so any positive scaling is equivalent).
fn normalize_weights(w: &[f64]) -> Vec<f64> {
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return vec![1.0; w.len()];
    }
    let scale = w.len() as f64 / total;
    w.iter().map(|&x| (x * scale).max(0.0)).collect()
}

/// A `(C, U)` bitset slot of a [`QecInstance`]: owned by the instance (the
/// classic construction paths) or borrowed from shared, immutable pipeline
/// state — e.g. an `Arc`-cached cluster pair living across serving
/// sessions. Dereferences to [`ResultSet`], so every read path is oblivious
/// to the variant; the expansion algorithms only ever read `C` and `U`.
#[derive(Debug, Clone)]
pub enum SetSlot<'a> {
    /// The instance owns the bitset.
    Owned(ResultSet),
    /// The bitset is borrowed from shared pipeline state.
    Shared(&'a ResultSet),
}

impl std::ops::Deref for SetSlot<'_> {
    type Target = ResultSet;

    #[inline]
    fn deref(&self) -> &ResultSet {
        match self {
            SetSlot::Owned(s) => s,
            SetSlot::Shared(s) => s,
        }
    }
}

/// One cluster's expansion problem (Definition 2.2).
#[derive(Debug)]
pub struct QecInstance<'a> {
    /// Shared arena.
    pub arena: &'a ExpansionArena,
    /// The cluster `C` (ground truth).
    pub cluster: SetSlot<'a>,
    /// Everything else, `U`.
    pub universe_set: SetSlot<'a>,
}

impl<'a> QecInstance<'a> {
    /// Creates an instance; `U` is derived as the arena complement of `C`.
    pub fn new(arena: &'a ExpansionArena, cluster: ResultSet) -> Self {
        assert_eq!(
            cluster.universe(),
            arena.size(),
            "cluster universe mismatch"
        );
        let universe_set = ResultSet::full(arena.size()).and_not(&cluster);
        Self {
            arena,
            cluster: SetSlot::Owned(cluster),
            universe_set: SetSlot::Owned(universe_set),
        }
    }

    /// Creates an instance from cluster member indices.
    pub fn from_members(
        arena: &'a ExpansionArena,
        members: impl IntoIterator<Item = usize>,
    ) -> Self {
        Self::new(arena, ResultSet::from_indices(arena.size(), members))
    }

    /// Builds an instance over shared `(C, U)` bitsets — the borrow path of
    /// the cross-session arena cache, where the cached pair stays immutable
    /// inside an `Arc`-shared pipeline entry while any number of concurrent
    /// instances read it. No allocation, no copy; `universe_set` must be the
    /// arena complement of `cluster` (checked in debug builds).
    pub fn from_shared_parts(
        arena: &'a ExpansionArena,
        cluster: &'a ResultSet,
        universe_set: &'a ResultSet,
    ) -> Self {
        debug_assert_eq!(cluster.universe(), arena.size());
        debug_assert!(!cluster.intersects(universe_set));
        debug_assert_eq!(cluster.len() + universe_set.len(), arena.size());
        Self {
            arena,
            cluster: SetSlot::Shared(cluster),
            universe_set: SetSlot::Shared(universe_set),
        }
    }

    /// Quality of result set `r` against this instance's cluster.
    pub fn quality_of(&self, r: &ResultSet) -> QueryQuality {
        query_quality(r, &self.cluster, &self.arena.weights)
    }

    /// Quality of the query formed by adding `added` to the user query.
    pub fn quality_of_added(&self, added: &[CandId]) -> QueryQuality {
        self.quality_of(&self.arena.results_of(added))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use qec_index::{CorpusBuilder, DocumentSpec};

    /// Builds the running example of the paper (Example 3.1): query
    /// "apple", cluster of 8 results R1..R8, universe of 10 results
    /// R'1..R'10, four candidate keywords with specified elimination sets.
    pub(crate) fn example_3_1() -> (ExpansionArena, ResultSet) {
        // Arena indices: 0..8 = R1..R8 (cluster), 8..18 = R'1..R'10.
        let n = 18;
        let r = |i: usize| i - 1; // paper R_i (1-based) → arena index
        let u = |i: usize| 7 + i; // paper R'_i (1-based) → arena index

        // E(k) per the paper's table; contains = complement.
        let elim = |cluster_elim: &[usize], universe_elim: &[usize]| -> ResultSet {
            let mut e = ResultSet::empty(n);
            for &i in cluster_elim {
                e.insert(r(i));
            }
            for &i in universe_elim {
                e.insert(u(i));
            }
            e
        };
        let job = elim(&[1, 2, 3, 4, 5, 6], &[1, 2, 3, 4, 5, 6, 7, 8]);
        let store = elim(&[1, 2, 3, 4], &[1, 2, 3, 4, 9]);
        let location = elim(&[2, 3, 4, 5], &[5, 6, 7, 8, 10]);
        let fruit = elim(&[1, 2, 3], &[2, 3, 4]);

        let full = ResultSet::full(n);
        let candidates = vec![
            Candidate {
                term: TermId(0),
                contains: full.and_not(&job),
            },
            Candidate {
                term: TermId(1),
                contains: full.and_not(&store),
            },
            Candidate {
                term: TermId(2),
                contains: full.and_not(&location),
            },
            Candidate {
                term: TermId(3),
                contains: full.and_not(&fruit),
            },
        ];
        let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
        let cluster = ResultSet::from_indices(n, 0..8);
        (arena, cluster)
    }

    #[test]
    fn example_3_1_initial_values_match_paper() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        // Initial benefit/cost from the paper's first table:
        // job 8/6, store 5/4, location 5/4, fruit 3/3.
        let r = arena.results_of(&[]);
        let expected = [(8.0, 6.0), (5.0, 4.0), (5.0, 4.0), (3.0, 3.0)];
        for (i, &(b, c)) in expected.iter().enumerate() {
            let cand = arena.candidate(CandId(i as u32));
            let elim = r.and_not(&cand.contains);
            let benefit = elim.and(&inst.universe_set).weighted_sum(&arena.weights);
            let cost = elim.and(&inst.cluster).weighted_sum(&arena.weights);
            assert_eq!(benefit, b, "candidate {i} benefit");
            assert_eq!(cost, c, "candidate {i} cost");
        }
    }

    #[test]
    fn results_of_intersects_contains() {
        let (arena, _) = example_3_1();
        // Adding "job" (cand 0) leaves C: {R7, R8}, U: {R'9, R'10}.
        let r = arena.results_of(&[CandId(0)]);
        assert_eq!(r.to_vec(), vec![6, 7, 16, 17]);
    }

    #[test]
    fn instance_universe_is_complement() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster.clone());
        assert_eq!(inst.universe_set.len(), 10);
        assert!(!inst.universe_set.intersects(&cluster));
        assert_eq!(inst.universe_set.len() + cluster.len(), arena.size());
    }

    #[test]
    fn quality_of_added_full_query() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        // The paper's final answer q = {apple, store, location} retrieves
        // R6, R7, R8 in C and nothing in U: precision 1, recall 3/8.
        let q = inst.quality_of_added(&[CandId(1), CandId(2)]);
        assert_eq!(q.precision, 1.0);
        assert!((q.recall - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn arena_build_from_corpus_excludes_query_terms_and_universal_terms() {
        let mut b = CorpusBuilder::new();
        let d0 = b.add_document(DocumentSpec::text("", "apple iphone store common"));
        let d1 = b.add_document(DocumentSpec::text("", "apple fruit orchard common"));
        let d2 = b.add_document(DocumentSpec::text("", "apple store location common"));
        let corpus = b.build();
        let apple = corpus.keyword_term("apple").unwrap();
        let arena = ExpansionArena::build(
            &corpus,
            &[d0, d1, d2],
            None,
            &[apple],
            &ArenaConfig {
                candidate_fraction: 1.0,
                min_candidates: 0,
            },
        );
        let names: Vec<&str> = arena
            .candidates
            .iter()
            .map(|c| corpus.term_name(c.term))
            .collect();
        assert!(!names.contains(&"appl"), "query term excluded: {names:?}");
        assert!(
            !names.contains(&"common"),
            "universal term excluded: {names:?}"
        );
        assert!(names.contains(&"store"));
        assert!(names.contains(&"fruit"));
    }

    #[test]
    fn arena_build_ranks_candidates_by_tfidf() {
        let mut b = CorpusBuilder::new();
        // "store" appears twice (df 2), "fruit" once (df 1, higher idf).
        let d0 = b.add_document(DocumentSpec::text("", "apple store"));
        let d1 = b.add_document(DocumentSpec::text("", "apple fruit fruit fruit"));
        let d2 = b.add_document(DocumentSpec::text("", "apple store"));
        let corpus = b.build();
        let apple = corpus.keyword_term("apple").unwrap();
        let arena = ExpansionArena::build(
            &corpus,
            &[d0, d1, d2],
            None,
            &[apple],
            &ArenaConfig::default(),
        );
        // fruit: tf 3 × idf ln(3) > store: tf 2 × idf ln(1.5).
        assert_eq!(corpus.term_name(arena.candidates[0].term), "fruit");
    }

    #[test]
    fn bit_equal_tfidf_ranks_by_term_id() {
        // Fifty terms of tf 1 in one document each: their tf·idf are the
        // same bits, ln(3), above "pear"'s 2 · ln(1.5).
        let mut b = CorpusBuilder::new();
        let ties: String = (0..50).map(|i| format!(" tok{i}")).collect();
        let d0 = b.add_document(DocumentSpec::text("", format!("apple{ties}")));
        let d1 = b.add_document(DocumentSpec::text("", "apple pear"));
        let d2 = b.add_document(DocumentSpec::text("", "apple pear"));
        let corpus = b.build();
        let apple = corpus.keyword_term("apple").unwrap();
        let mut tied: Vec<TermId> = (0..50)
            .map(|i| corpus.keyword_term(&format!("tok{i}")).unwrap())
            .collect();
        let idf = corpus.index().idf(tied[0]).to_bits();
        assert!(tied.iter().all(|&t| corpus.index().idf(t).to_bits() == idf));
        tied.sort_unstable();
        // 51 groups at 0.2 keep 11: the selection cuts through the ties.
        let arena = ExpansionArena::build(
            &corpus,
            &[d0, d1, d2],
            None,
            &[apple],
            &ArenaConfig {
                candidate_fraction: 0.2,
                min_candidates: 0,
            },
        );
        let kept: Vec<TermId> = arena.candidates.iter().map(|c| c.term).collect();
        assert_eq!(kept, tied[..11]);
    }

    #[test]
    fn candidate_fraction_prunes() {
        let mut b = CorpusBuilder::new();
        let docs: Vec<_> = (0..10)
            .map(|i| {
                b.add_document(DocumentSpec::text(
                    "",
                    format!("seed word{i} extra{} bonus{}", i % 3, i % 5),
                ))
            })
            .collect();
        let corpus = b.build();
        let seed = corpus.keyword_term("seed").unwrap();
        let all = ExpansionArena::build(
            &corpus,
            &docs,
            None,
            &[seed],
            &ArenaConfig {
                candidate_fraction: 1.0,
                min_candidates: 0,
            },
        );
        let pruned = ExpansionArena::build(
            &corpus,
            &docs,
            None,
            &[seed],
            &ArenaConfig {
                candidate_fraction: 0.2,
                min_candidates: 1,
            },
        );
        assert!(pruned.num_candidates() < all.num_candidates());
        assert!(pruned.num_candidates() >= 1);
    }

    #[test]
    fn weights_normalized_to_arena_scale() {
        let mut b = CorpusBuilder::new();
        let d0 = b.add_document(DocumentSpec::text("", "x a"));
        let d1 = b.add_document(DocumentSpec::text("", "x b"));
        let corpus = b.build();
        let x = corpus.keyword_term("x").unwrap();
        let arena = ExpansionArena::build(
            &corpus,
            &[d0, d1],
            Some(&[3.0, 1.0]),
            &[x],
            &ArenaConfig::default(),
        );
        let total: f64 = arena.weights.iter().sum();
        assert!((total - 2.0).abs() < 1e-12);
        assert!(arena.weights[0] > arena.weights[1]);
    }

    #[test]
    fn lane_index_is_the_shorter_side_of_the_transpose() {
        use std::collections::BTreeSet;
        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x17_c5a);
        let (mut flipped_rows, mut plain_rows, mut even_rows) = (0, 0, 0);
        for n in [1, 63, 64, 65, 100, 129, 500] {
            for n_cands in [0, 1, 2, 7, 40, 150] {
                // Per-result pull, so one arena has rows of both kinds.
                let pull: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
                let candidates: Vec<Candidate> = (0..n_cands)
                    .map(|i| Candidate {
                        term: TermId(i),
                        contains: ResultSet::from_indices(
                            n,
                            (0..n).filter(|&d| rng.f64() < pull[d]).collect::<Vec<_>>(),
                        ),
                    })
                    .collect();
                let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
                let mut entries = 0;
                for i in 0..n {
                    let holders: BTreeSet<u32> = (0..n_cands)
                        .filter(|&k| arena.candidate(CandId(k)).contains.contains(i))
                        .collect();
                    let others: BTreeSet<u32> =
                        (0..n_cands).filter(|k| !holders.contains(k)).collect();
                    let (row, flipped) = (arena.lane_row(i), arena.flipped_rows().contains(i));
                    assert_eq!(flipped, others.len() < holders.len(), "{n}×{n_cands}: {i}");
                    let listed = if flipped { others } else { holders };
                    // A `BTreeSet` iterates ascending.
                    assert!(row.iter().eq(listed.iter()), "{n}×{n_cands}: row {i}");
                    entries += row.len();
                    flipped_rows += usize::from(flipped);
                    plain_rows += usize::from(!flipped && row.len() * 2 < n_cands as usize);
                    even_rows += usize::from(n_cands > 0 && row.len() * 2 == n_cands as usize);
                }
                assert!(entries <= n * n_cands as usize / 2, "{n}×{n_cands}: bound");
                assert_eq!(arena.lanes.len(), entries);
            }
        }
        assert!(flipped_rows > 500 && plain_rows > 500 && even_rows > 50);
    }

    /// A corpus of `num_docs` random documents over `vocab` tokens (low
    /// ranks drawn more often, so document frequencies and idfs vary) that
    /// all carry the token `common`.
    fn random_corpus(
        num_docs: usize,
        vocab: usize,
        rng: &mut qec_cluster::SplitMix64,
    ) -> qec_index::Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..num_docs {
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

    #[test]
    fn grouped_build_matches_the_btreemap_reference_on_random_corpora() {
        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x14_a7e4a);
        let mut truncated_cases = 0;
        let mut universal_term_cases = 0;
        for case in 0..96 {
            // Arena sizes straddle the bitset word boundaries.
            let n = [1, 63, 64, 65, 100, 129][case % 6];
            let vocab = [6, 40, 400][rng.below(3)];
            let corpus = random_corpus(n + rng.below(60), vocab, &mut rng);
            // The results: `n` distinct docs in a random (ranking) order.
            let mut docs: Vec<DocId> = corpus.all_docs().collect();
            for i in 0..n {
                let j = i + rng.below(docs.len() - i);
                docs.swap(i, j);
            }
            docs.truncate(n);
            let weights: Option<Vec<f64>> =
                (rng.below(2) == 0).then(|| (0..n).map(|_| rng.f64_below(5.0)).collect());
            let query_terms: Vec<TermId> = match rng.below(3) {
                0 => Vec::new(),
                1 => vec![corpus.keyword_term("common").unwrap()],
                _ => corpus
                    .doc_terms(docs[rng.below(n)])
                    .iter()
                    .map(|&(t, _)| t)
                    .take(2)
                    .collect(),
            };
            let config = ArenaConfig {
                candidate_fraction: [0.2, 1.0][rng.below(2)],
                min_candidates: [0, 5, 10_000][rng.below(3)],
            };

            let expected =
                reference::build(&corpus, &docs, weights.as_deref(), &query_terms, &config);
            let got =
                ExpansionArena::build(&corpus, &docs, weights.as_deref(), &query_terms, &config);

            let label = format!("case {case}: n {n}, {config:?}");
            assert_eq!(got.docs, expected.docs, "{label}");
            assert_eq!(
                got.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                expected
                    .weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                "{label}"
            );
            assert_eq!(got.num_candidates(), expected.num_candidates(), "{label}");
            for id in (0..expected.num_candidates() as u32).map(CandId) {
                let (g, e) = (got.candidate(id), expected.candidate(id));
                assert_eq!(g.term, e.term, "{label}: {id:?}");
                assert_eq!(g.contains.universe(), n);
                assert_eq!(g.contains.as_words(), e.contains.as_words(), "{label}");
            }
            // The lane index does not depend on the constructor.
            let mut parts = ExpansionArena::from_parts(got.weights.clone(), got.candidates.clone());
            parts.docs.clone_from(&got.docs);
            assert!(parts == got, "{label}: from_parts == from_matrix");
            let distinct_terms = {
                let mut terms: Vec<TermId> = docs
                    .iter()
                    .flat_map(|&d| corpus.doc_terms(d).iter().map(|&(t, _)| t))
                    .collect();
                terms.sort_unstable();
                terms.dedup();
                terms.len()
            };
            truncated_cases += usize::from(got.num_candidates() + 2 < distinct_terms);
            universal_term_cases += usize::from(n > 1 && query_terms.is_empty());
        }
        assert!(truncated_cases >= 10, "{truncated_cases} truncated cases");
        assert!(universal_term_cases >= 10, "{universal_term_cases} cases");
    }
}
