//! Boolean retrieval: AND and OR semantics over the posting lists.
//!
//! The paper defines a result as a data unit containing **all** query
//! keywords (AND semantics); its appendix notes OR semantics reduces to the
//! identical expansion problem, so both are provided.
//!
//! AND strategy
//! ------------
//! Terms are intersected in ascending-df order so the running result
//! shrinks as early as possible. The query seeds from the rarest term's
//! postings, then narrows by each further term: through the adaptive
//! linear/galloping join ranking also runs (see [`crate::postings`]), or,
//! for a dense term (`df · 64 ≥ N`), through its membership probe, one
//! `O(1)` test per running id.
//!
//! All intermediate state lives in a caller-reusable [`SearchScratch`]; a
//! warmed scratch makes the whole AND pipeline allocation-free, which is
//! what the expansion benchmarks and any future serving path want.
//!
//! OR strategy
//! -----------
//! A k-way merge of every term's postings: a binary heap merges the k
//! sorted lists in `O(total · log k)`. The heap, the per-list cursors,
//! and the list selection all live in [`SearchScratch`], so a warmed
//! scratch makes OR evaluation allocation-free too (asserted by the
//! `zero_alloc` integration test in `qec-core`).
//!
//! Document ranges
//! ---------------
//! A searcher covers a contiguous document range of its corpus
//! ([`Searcher::within`]; [`Searcher::new`] is the whole corpus). Both
//! strategies read each term's run of postings inside the range, cut
//! from the corpus's one list by two binary searches, so a shard of a
//! sharded deployment is a range of the gather corpus, not a copy of
//! it. A dense term's probe covers the whole corpus and is read as is:
//! it is only asked about ids already in the range.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::corpus::Corpus;
use crate::doc::DocId;
use crate::inverted::Posting;
use crate::postings::{join, posting_span};
use qec_text::TermId;

/// Which boolean semantics a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuerySemantics {
    /// A result must contain every keyword (the paper's default).
    #[default]
    And,
    /// A result must contain at least one keyword.
    Or,
}

/// Reusable buffers for query evaluation. Feed the same scratch to many
/// queries and the buffers stabilise at the high-water mark — after which
/// AND evaluation performs no heap allocation.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Result accumulator; holds the final doc ids after a query.
    cur: Vec<DocId>,
    /// Double-buffer partner of `cur` for join rounds.
    next: Vec<DocId>,
    /// Deduplicated query terms in evaluation order.
    terms: Vec<TermId>,
    /// OR: the terms whose posting lists are being merged.
    or_terms: Vec<TermId>,
    /// OR: k-way merge frontier, `(next doc, index into `or_terms`)`.
    or_heap: BinaryHeap<Reverse<(DocId, u32)>>,
    /// OR: per-list cursor (next unread position) and the end of the
    /// list's run inside the searched range.
    or_pos: Vec<(u32, u32)>,
}

impl SearchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The result of the last query evaluated into this scratch.
    pub fn results(&self) -> &[DocId] {
        &self.cur
    }
}

/// Boolean searcher over a contiguous document range of a frozen
/// [`Corpus`].
#[derive(Debug, Clone, Copy)]
pub struct Searcher<'c> {
    corpus: &'c Corpus,
    /// The searched range `[lo, hi)` of document ids.
    lo: u32,
    hi: u32,
}

impl<'c> Searcher<'c> {
    /// Creates a searcher over the whole of `corpus`.
    pub fn new(corpus: &'c Corpus) -> Self {
        Self::within(corpus, 0..corpus.num_docs() as u32)
    }

    /// Creates a searcher over the documents `docs` of `corpus`: results
    /// are the whole-corpus results that lie in `docs`, in the corpus's
    /// own ids.
    pub fn within(corpus: &'c Corpus, docs: Range<u32>) -> Self {
        Self {
            corpus,
            lo: docs.start,
            hi: docs.end,
        }
    }

    /// The positions of `list`'s postings inside the searched range.
    fn span(&self, list: &[Posting]) -> Range<usize> {
        posting_span(list, self.lo..self.hi)
    }

    /// `list`'s run of postings inside the searched range.
    fn run<'l>(&self, list: &'l [Posting]) -> &'l [Posting] {
        &list[self.span(list)]
    }

    /// The corpus being searched.
    pub fn corpus(&self) -> &'c Corpus {
        self.corpus
    }

    /// Retrieves the documents matching `terms` under `semantics`, sorted by
    /// ascending `DocId`.
    ///
    /// AND with an empty term list returns the empty set (a query whose
    /// keywords were all unknown matches nothing, mirroring an engine that
    /// found no index entry). OR with an empty list is also empty.
    pub fn search(&self, terms: &[TermId], semantics: QuerySemantics) -> Vec<DocId> {
        match semantics {
            QuerySemantics::And => self.and_query(terms),
            QuerySemantics::Or => self.or_query(terms),
        }
    }

    /// AND semantics: documents containing every term.
    pub fn and_query(&self, terms: &[TermId]) -> Vec<DocId> {
        let mut scratch = SearchScratch::new();
        self.and_query_into(terms, &mut scratch);
        std::mem::take(&mut scratch.cur)
    }

    /// AND semantics into a reusable scratch; the result lands in
    /// [`SearchScratch::results`]. Allocation-free once the scratch has
    /// warmed to the workload's high-water mark.
    pub fn and_query_into(&self, terms: &[TermId], scratch: &mut SearchScratch) {
        scratch.cur.clear();
        if terms.is_empty() {
            return;
        }
        let index = self.corpus.index();
        // Deduplicate and order by ascending df.
        scratch.terms.clear();
        scratch.terms.extend_from_slice(terms);
        scratch.terms.sort_unstable();
        scratch.terms.dedup();
        scratch.terms.sort_by_key(|&t| index.df(t));

        let seed = self.run(index.postings(scratch.terms[0]));
        scratch.cur.extend(seed.iter().map(|p| p.doc));
        for &term in &scratch.terms[1..] {
            if scratch.cur.is_empty() {
                return;
            }
            if let Some(probe) = index.probe(term) {
                scratch.cur.retain(|d| probe.contains(d.index()));
            } else {
                scratch.next.clear();
                join(
                    &mut scratch.cur,
                    self.run(index.postings(term)),
                    |&mut d, _| scratch.next.push(d),
                );
                std::mem::swap(&mut scratch.cur, &mut scratch.next);
            }
        }
    }

    /// OR semantics: documents containing at least one term.
    pub fn or_query(&self, terms: &[TermId]) -> Vec<DocId> {
        let mut scratch = SearchScratch::new();
        self.or_query_into(terms, &mut scratch);
        std::mem::take(&mut scratch.cur)
    }

    /// OR semantics into a reusable scratch; the result lands in
    /// [`SearchScratch::results`].
    pub fn or_query_into(&self, terms: &[TermId], scratch: &mut SearchScratch) {
        scratch.cur.clear();
        let index = self.corpus.index();
        scratch.terms.clear();
        scratch.terms.extend_from_slice(terms);
        scratch.terms.sort_unstable();
        scratch.terms.dedup();

        // k-way heap merge, O(total · log k). The merge state persists in
        // the scratch; lists are re-resolved from the index per advance (an
        // O(1) lookup) because slices borrowed from the index cannot
        // outlive the call in a reusable scratch.
        scratch.or_terms.clear();
        scratch.or_heap.clear();
        scratch.or_pos.clear();
        for &t in &scratch.terms {
            let list = index.postings(t);
            let run = self.span(list);
            if !run.is_empty() {
                let li = scratch.or_terms.len() as u32;
                scratch.or_terms.push(t);
                scratch.or_heap.push(Reverse((list[run.start].doc, li)));
                scratch.or_pos.push((run.start as u32 + 1, run.end as u32));
            }
        }
        while let Some(Reverse((doc, li))) = scratch.or_heap.pop() {
            if scratch.cur.last() != Some(&doc) {
                scratch.cur.push(doc);
            }
            let list = index.postings(scratch.or_terms[li as usize]);
            let (next, end) = &mut scratch.or_pos[li as usize];
            if *next < *end {
                scratch
                    .or_heap
                    .push(Reverse((list[*next as usize].doc, li)));
                *next += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::doc::DocumentSpec;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document(DocumentSpec::text("d0", "apple iphone store"));
        b.add_document(DocumentSpec::text("d1", "apple fruit orchard"));
        b.add_document(DocumentSpec::text("d2", "apple store location"));
        b.add_document(DocumentSpec::text("d3", "banana fruit"));
        b.build()
    }

    /// A corpus big enough that sparse terms really stay list-only
    /// (df · 64 < N) while frequent terms go dense, so the join and the
    /// probe both run.
    fn hybrid_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for i in 0..400usize {
            let mut body = String::from("common");
            if i % 2 == 0 {
                body.push_str(" even");
            }
            if i % 129 == 0 {
                body.push_str(" sparse129");
            }
            if i % 150 == 0 {
                body.push_str(" sparse150");
            }
            b.add_document(DocumentSpec::text("", &body));
        }
        b.build()
    }

    fn naive_and(c: &Corpus, terms: &[TermId]) -> Vec<DocId> {
        c.all_docs()
            .filter(|&d| terms.iter().all(|&t| c.doc_contains(d, t)))
            .collect()
    }

    #[test]
    fn and_query_intersects() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        let store = c.keyword_term("store").unwrap();
        assert_eq!(s.and_query(&[apple]), vec![DocId(0), DocId(1), DocId(2)]);
        assert_eq!(s.and_query(&[apple, store]), vec![DocId(0), DocId(2)]);
    }

    #[test]
    fn and_query_empty_terms_is_empty() {
        let c = corpus();
        let s = Searcher::new(&c);
        assert!(s.and_query(&[]).is_empty());
    }

    #[test]
    fn and_query_with_unseen_term_is_empty() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        // TermId beyond vocabulary ⇒ empty postings ⇒ empty intersection.
        let unseen = qec_text::TermId(9999);
        assert!(s.and_query(&[apple, unseen]).is_empty());
    }

    #[test]
    fn or_query_merges() {
        let c = corpus();
        let s = Searcher::new(&c);
        let store = c.keyword_term("store").unwrap();
        let fruit = c.keyword_term("fruit").unwrap();
        assert_eq!(
            s.or_query(&[store, fruit]),
            vec![DocId(0), DocId(1), DocId(2), DocId(3)]
        );
    }

    #[test]
    fn or_query_deduplicates() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        assert_eq!(s.or_query(&[apple, apple]).len(), 3);
    }

    #[test]
    fn search_str_parses_full_queries() {
        let c = corpus();
        let s = Searcher::new(&c);
        let search = |query: &str| s.and_query(&c.query_terms(query));
        assert_eq!(search("apple, fruit"), vec![DocId(1)]);
        assert_eq!(search("apple fruits"), vec![DocId(1)], "stemming");
        assert!(search("").is_empty());
    }

    #[test]
    fn duplicate_terms_in_and_are_harmless() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        assert_eq!(s.and_query(&[apple, apple]).len(), 3);
    }

    #[test]
    fn results_always_sorted() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        let fruit = c.keyword_term("fruit").unwrap();
        for res in [s.and_query(&[apple, fruit]), s.or_query(&[apple, fruit])] {
            assert!(res.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn semantics_dispatch() {
        let c = corpus();
        let s = Searcher::new(&c);
        let apple = c.keyword_term("apple").unwrap();
        let fruit = c.keyword_term("fruit").unwrap();
        assert_eq!(
            s.search(&[apple, fruit], QuerySemantics::And),
            vec![DocId(1)]
        );
        assert_eq!(s.search(&[apple, fruit], QuerySemantics::Or).len(), 4);
    }

    #[test]
    fn hybrid_and_all_representation_mixes_match_naive() {
        let c = hybrid_corpus();
        let s = Searcher::new(&c);
        let t = |name: &str| c.keyword_term(name).unwrap();
        let (common, even, s129, s150) = (t("common"), t("even"), t("sparse129"), t("sparse150"));
        // sparse∧sparse (gallopable skew), sparse∧dense, dense∧dense, and
        // the full mix.
        for terms in [
            vec![s129, s150],
            vec![s129, even],
            vec![common, even],
            vec![common, even, s129, s150],
        ] {
            assert_eq!(s.and_query(&terms), naive_and(&c, &terms), "{terms:?}");
        }
    }

    #[test]
    fn hybrid_or_matches_naive_union() {
        let c = hybrid_corpus();
        let s = Searcher::new(&c);
        let t = |name: &str| c.keyword_term(name).unwrap();
        for terms in [
            vec![t("sparse129"), t("sparse150")],
            vec![t("even"), t("sparse129")],
            vec![t("common"), t("even")],
        ] {
            let expect: Vec<DocId> = c
                .all_docs()
                .filter(|&d| terms.iter().any(|&tm| c.doc_contains(d, tm)))
                .collect();
            assert_eq!(s.or_query(&terms), expect, "{terms:?}");
        }
    }

    #[test]
    fn a_range_searcher_returns_the_whole_results_inside_its_range() {
        let c = hybrid_corpus();
        let whole = Searcher::new(&c);
        let t = |name: &str| c.keyword_term(name).unwrap();
        let mut scratch = SearchScratch::new();
        for range in [0..400, 0..1, 129..258, 150..151, 399..400, 200..200] {
            let s = Searcher::within(&c, range.clone());
            let inside = |docs: Vec<DocId>| -> Vec<DocId> {
                docs.into_iter().filter(|d| range.contains(&d.0)).collect()
            };
            for terms in [
                vec![t("sparse129"), t("sparse150")],
                vec![t("even"), t("sparse129")],
                vec![t("common"), t("even")],
                vec![t("common")],
            ] {
                s.and_query_into(&terms, &mut scratch);
                assert_eq!(
                    scratch.results(),
                    inside(whole.and_query(&terms)),
                    "{range:?} {terms:?}"
                );
                s.or_query_into(&terms, &mut scratch);
                assert_eq!(
                    scratch.results(),
                    inside(whole.or_query(&terms)),
                    "{range:?} {terms:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let c = hybrid_corpus();
        let s = Searcher::new(&c);
        let t = |name: &str| c.keyword_term(name).unwrap();
        let mut scratch = SearchScratch::new();
        // Interleave shapes to make sure no state leaks between queries.
        let queries = [
            vec![t("sparse129"), t("even")],
            vec![t("common"), t("even")],
            vec![t("sparse129"), t("sparse150")],
            vec![t("common")],
        ];
        for _ in 0..3 {
            for q in &queries {
                s.and_query_into(q, &mut scratch);
                assert_eq!(scratch.results(), s.and_query(q), "{q:?}");
                s.or_query_into(q, &mut scratch);
                assert_eq!(scratch.results(), s.or_query(q), "{q:?}");
            }
        }
    }
}
