//! TF-IDF ranking and top-k selection.
//!
//! The paper ranks results "using tfidf of the keywords" (§C) before
//! truncating to the top 30 for expansion. [`TfIdfRanker`] scores a document
//! for a query as `Σ_t tf(t,d)·idf(t)` with a document-length normalisation
//! (dividing by `ln(1+len)`) so long Wikipedia-style documents do not win on
//! bulk alone. Ranking scores then become the *result weights* `S(·)` used
//! by the weighted precision/recall of the expansion metrics.

use crate::corpus::Corpus;
use crate::doc::DocId;
use crate::postings::{join, posting_span};
use qec_text::TermId;

/// A retrieved document with its ranking score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The document.
    pub doc: DocId,
    /// TF-IDF score (≥ 0; higher ranks first).
    pub score: f64,
}

/// TF-IDF scorer over a corpus.
#[derive(Debug, Clone, Copy)]
pub struct TfIdfRanker<'c> {
    corpus: &'c Corpus,
}

impl<'c> TfIdfRanker<'c> {
    /// Creates a ranker over `corpus`.
    pub fn new(corpus: &'c Corpus) -> Self {
        Self { corpus }
    }

    /// Scores one document for `terms`.
    pub fn score(&self, doc: DocId, terms: &[TermId]) -> f64 {
        let index = self.corpus.index();
        let raw: f64 = terms
            .iter()
            .map(|&t| index.tf(t, doc) as f64 * index.idf(t))
            .sum();
        let len = self.corpus.doc(doc).len.max(1) as f64;
        raw / (1.0 + len).ln().max(1.0)
    }

    /// Ranks `docs` for `terms`, highest score first. Ties break by `DocId`
    /// so output is deterministic. The **reference** ranking — per-document
    /// scoring plus a full sort — that
    /// [`rank_with_idf_into`](Self::rank_with_idf_into), the kernel every
    /// serving path runs, must reproduce bit for bit.
    pub fn rank(&self, docs: &[DocId], terms: &[TermId]) -> Vec<Hit> {
        let mut hits: Vec<Hit> = docs
            .iter()
            .map(|&doc| Hit {
                doc,
                score: self.score(doc, terms),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("tf-idf scores are finite")
                .then_with(|| a.doc.cmp(&b.doc))
        });
        hits
    }

    /// The serving ranking kernel: scores `docs` (ascending `DocId`, as
    /// produced by the searcher) for `terms` with **caller-supplied idf**
    /// values — one per query term — and writes the best `top_k` hits into
    /// `out` (all of them, fully sorted, when `top_k == 0`).
    ///
    /// Two things distinguish this from [`rank`](Self::rank):
    ///
    /// * **Scoring is a merge-join** of the sorted result list against each
    ///   term's posting list — the adaptive linear/galloping join AND
    ///   retrieval runs, instead of a per-document binary search —
    ///   accumulating `tf·idf` contributions in term order, i.e. the exact
    ///   floating-point addition order of [`score`](Self::score). Each
    ///   list is first cut to its run between `docs`' first and last
    ///   document, so a shard ranking its range of the corpus walks only
    ///   that range's postings; the matches, and so the bits, are those
    ///   of the whole list. A shard passing the idf values of the corpus
    ///   it was cut from therefore reproduces the global scores
    ///   **bit-for-bit**, so a gather-side merge of per-shard top-k lists
    ///   equals the single-engine ranking exactly.
    /// * **Selection is bounded**: with `top_k > 0` the kernel partitions
    ///   with `select_nth_unstable_by` and sorts only the winners —
    ///   O(matches + k·log k) instead of the full O(matches·log matches)
    ///   sort. The score/`DocId` comparator is a total order (doc ids are
    ///   unique), so the selected prefix is exactly the global sort's.
    pub fn rank_with_idf_into(
        &self,
        docs: &[DocId],
        terms: &[TermId],
        idfs: &[f64],
        top_k: usize,
        out: &mut Vec<Hit>,
    ) {
        assert_eq!(terms.len(), idfs.len(), "one idf per query term");
        debug_assert!(docs.windows(2).all(|w| w[0] < w[1]), "docs must ascend");
        out.clear();
        out.extend(docs.iter().map(|&doc| Hit { doc, score: 0.0 }));
        let index = self.corpus.index();
        if let (Some(first), Some(last)) = (docs.first(), docs.last()) {
            for (&t, &idf) in terms.iter().zip(idfs) {
                let list = index.postings(t);
                join(
                    out,
                    &list[posting_span(list, first.0..last.0 + 1)],
                    |hit, p| hit.score += p.tf as f64 * idf,
                );
            }
        }
        for hit in out.iter_mut() {
            let len = self.corpus.doc(hit.doc).len.max(1) as f64;
            hit.score /= (1.0 + len).ln().max(1.0);
        }
        let cmp = |a: &Hit, b: &Hit| {
            b.score
                .partial_cmp(&a.score)
                .expect("tf-idf scores are finite")
                .then_with(|| a.doc.cmp(&b.doc))
        };
        if top_k > 0 && out.len() > top_k {
            out.select_nth_unstable_by(top_k - 1, cmp);
            out.truncate(top_k);
        }
        out.sort_by(cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::doc::DocumentSpec;
    use crate::search::{QuerySemantics, Searcher};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document(DocumentSpec::text("d0", "java island java java"));
        b.add_document(DocumentSpec::text("d1", "java programming"));
        b.add_document(DocumentSpec::text("d2", "island holiday beach"));
        b.add_document(DocumentSpec::text("d3", "coffee java island trip"));
        b.build()
    }

    #[test]
    fn higher_tf_ranks_higher() {
        let c = corpus();
        let java = c.keyword_term("java").unwrap();
        let r = TfIdfRanker::new(&c);
        let docs: Vec<DocId> = Searcher::new(&c).and_query(&[java]);
        let hits = r.rank(&docs, &[java]);
        assert_eq!(hits[0].doc, DocId(0), "doc with tf=3 first");
    }

    #[test]
    fn scores_are_nonnegative_and_zero_for_nonmatching() {
        let c = corpus();
        let java = c.keyword_term("java").unwrap();
        let r = TfIdfRanker::new(&c);
        assert_eq!(r.score(DocId(2), &[java]), 0.0);
        for d in c.all_docs() {
            assert!(r.score(d, &[java]) >= 0.0);
        }
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let c = corpus();
        let r = TfIdfRanker::new(&c);
        let java = c.keyword_term("java").unwrap(); // df 3
        let coffee = c.keyword_term("coffee").unwrap(); // df 1
                                                        // d3 contains both once; coffee must contribute more.
        let s_java = c.index().idf(java);
        let s_coffee = c.index().idf(coffee);
        assert!(s_coffee > s_java);
        assert!(r.score(DocId(3), &[coffee]) > r.score(DocId(3), &[java]));
    }

    #[test]
    fn top_k_truncates_after_sorting() {
        let c = corpus();
        let java = c.keyword_term("java").unwrap();
        let docs: Vec<DocId> = Searcher::new(&c).and_query(&[java]);
        let mut top1 = Vec::new();
        TfIdfRanker::new(&c).rank_with_idf_into(
            &docs,
            &[java],
            &[c.index().idf(java)],
            1,
            &mut top1,
        );
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].doc, DocId(0));
    }

    #[test]
    fn rank_is_deterministic_on_ties() {
        let c = corpus();
        let r = TfIdfRanker::new(&c);
        let unseen: Vec<DocId> = c.all_docs().collect();
        // Query with no terms ⇒ all scores 0 ⇒ order by DocId.
        let hits = r.rank(&unseen, &[]);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rank_with_idf_into_matches_rank_bit_for_bit() {
        let c = corpus();
        let terms = c.query_terms("java island");
        let idfs: Vec<f64> = terms.iter().map(|&t| c.index().idf(t)).collect();
        let r = TfIdfRanker::new(&c);
        let docs: Vec<DocId> = Searcher::new(&c).search(&terms, QuerySemantics::Or);
        let reference = r.rank(&docs, &terms);
        let mut out = Vec::new();
        r.rank_with_idf_into(&docs, &terms, &idfs, 0, &mut out);
        assert_eq!(out, reference, "full ranking must match exactly");
        for k in 1..=docs.len() {
            r.rank_with_idf_into(&docs, &terms, &idfs, k, &mut out);
            assert_eq!(out, reference[..k], "top-{k} prefix must match exactly");
        }
    }

    #[test]
    fn rank_with_idf_into_scores_with_the_supplied_statistics() {
        // A split-off shard seeing only half the corpus still produces
        // global scores when handed the parent's idf values.
        let c = corpus();
        let java = c.keyword_term("java").unwrap();
        let idfs = vec![c.index().idf(java)];
        let shards = c.split(2);
        let shard = &shards[0]; // holds global docs 0 and 1
        let docs: Vec<DocId> = Searcher::new(shard).and_query(&[java]);
        let mut out = Vec::new();
        TfIdfRanker::new(shard).rank_with_idf_into(&docs, &[java], &idfs, 0, &mut out);
        let global = TfIdfRanker::new(&c);
        for hit in &out {
            assert_eq!(hit.score, global.score(hit.doc, &[java]));
        }
        // Shard-local idf would differ: both shard docs contain java.
        assert_ne!(shard.index().idf(java), c.index().idf(java));
    }

    #[test]
    fn rank_with_idf_into_scores_a_range_through_cut_lists() {
        // A shard retrieving only documents 2..4 ranks them with the
        // corpus's idfs through lists cut to that range; the scores are
        // the whole corpus's, bit for bit.
        let c = corpus();
        let terms = c.query_terms("java island");
        let idfs: Vec<f64> = terms.iter().map(|&t| c.index().idf(t)).collect();
        let docs: Vec<DocId> = Searcher::within(&c, 2..4).or_query(&terms);
        assert_eq!(docs, vec![DocId(2), DocId(3)]);
        let r = TfIdfRanker::new(&c);
        let mut out = Vec::new();
        r.rank_with_idf_into(&docs, &terms, &idfs, 0, &mut out);
        assert_eq!(out, r.rank(&docs, &terms));
        assert!(out.iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn rank_and_query_end_to_end() {
        let c = corpus();
        let terms = c.query_terms("java island");
        let docs = Searcher::new(&c).search(&terms, QuerySemantics::And);
        let hits = TfIdfRanker::new(&c).rank(&docs, &terms);
        let docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs.len(), 2);
        assert!(docs.contains(&DocId(0)) && docs.contains(&DocId(3)));
        assert!(hits[0].score >= hits[1].score);
    }
}
