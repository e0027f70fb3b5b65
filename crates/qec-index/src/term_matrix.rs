//! The term occurrences of one result list, gathered once.
//!
//! A cold request reads the `(term, tf)` rows of its results twice:
//! clustering wants them by result (one sparse TF vector per result, over a
//! dense request-local dimension space) and the expansion arena wants them
//! by term (which results contain it, with what tf). A [`TermMatrix`] is
//! both views from one pass over [`Corpus::doc_terms`] and one sort:
//!
//! * **by result** — CSR rows in input order; each occurrence carries its
//!   tf and the term's *local id*, the number of distinct smaller terms in
//!   the matrix. Local ids are order-preserving, so a row ascending by
//!   term (every corpus row is) ascends by local id too;
//! * **by term** — for each distinct term, ascending, the run of its
//!   occurrences by ascending result index.
//!
//! Both come from sorting one `term << 32 | position` key per occurrence:
//! positions ascend with the result index, so the sorted keys list the
//! occurrences by term and, within a term, by result. The keys are pushed
//! in position order and no two are equal, so a *stable* sort on the term
//! half alone gives that same order: an LSD radix over the term's bits
//! (two passes while term ids stay under 2^22), not a comparison sort.

use crate::corpus::Corpus;
use crate::doc::DocId;
use qec_text::TermId;

/// The `(result, term, tf)` occurrences of a result list; see the module
/// docs.
#[derive(Debug, Clone)]
pub struct TermMatrix {
    /// Row `i` is occurrences `row_ptr[i]..row_ptr[i + 1]`.
    row_ptr: Vec<u32>,
    /// `(term, tf)` of each occurrence: the documents' term rows,
    /// concatenated.
    entries: Vec<(TermId, u32)>,
    /// Row (result index) of each occurrence.
    rows: Vec<u32>,
    /// Local term id of each occurrence.
    local: Vec<u32>,
    /// `term << 32 | position` of each occurrence, ascending.
    by_term: Vec<u64>,
    /// Local term `l`'s run is `by_term[run_ptr[l]..run_ptr[l + 1]]`.
    run_ptr: Vec<u32>,
}

impl TermMatrix {
    /// Gathers the term rows of `docs` (row `i` is `docs[i]`).
    pub fn gather(corpus: &Corpus, docs: &[DocId]) -> Self {
        let total: usize = docs.iter().map(|&d| corpus.doc_terms(d).len()).sum();
        assert!(u32::try_from(total).is_ok(), "fewer than 2^32 occurrences");
        // The rows sit all over the heap, one cache miss or two each.
        // Copying them out is a few instructions per row, so many rows'
        // misses are in flight at once; a loop that also built the keys
        // would wait for them one row at a time.
        let mut row_ptr = Vec::with_capacity(docs.len() + 1);
        let mut entries = Vec::with_capacity(total);
        row_ptr.push(0);
        for &doc in docs {
            entries.extend_from_slice(corpus.doc_terms(doc));
            row_ptr.push(entries.len() as u32);
        }

        let mut rows = Vec::with_capacity(total);
        let mut by_term = Vec::with_capacity(total);
        for (i, bounds) in row_ptr.windows(2).enumerate() {
            for at in bounds[0]..bounds[1] {
                let (term, _) = entries[at as usize];
                rows.push(i as u32);
                by_term.push(u64::from(term.0) << 32 | u64::from(at));
            }
        }
        radix_sort_by_term(&mut by_term);

        let mut local = vec![0u32; total];
        let mut run_ptr = Vec::with_capacity(total + 1);
        let mut last = None;
        for (at, &key) in by_term.iter().enumerate() {
            let term = (key >> 32) as u32;
            if last != Some(term) {
                last = Some(term);
                run_ptr.push(at as u32);
            }
            local[key as u32 as usize] = run_ptr.len() as u32 - 1;
        }
        run_ptr.push(total as u32);
        Self {
            row_ptr,
            entries,
            rows,
            local,
            by_term,
            run_ptr,
        }
    }

    /// Number of rows (results).
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of distinct terms: local ids are `0..num_terms()`.
    pub fn num_terms(&self) -> usize {
        self.run_ptr.len() - 1
    }

    /// Number of occurrences.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The term with local id `l`.
    pub fn term(&self, l: usize) -> TermId {
        TermId((self.by_term[self.run_ptr[l] as usize] >> 32) as u32)
    }

    /// Row `i`: the term row of its document, as `(term, tf)` pairs.
    pub fn row(&self, i: usize) -> &[(TermId, u32)] {
        &self.entries[self.row_range(i)]
    }

    /// The local term id of each occurrence of row `i`, parallel to
    /// [`row`](Self::row).
    pub fn row_local(&self, i: usize) -> &[u32] {
        &self.local[self.row_range(i)]
    }

    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// The `(result index, tf)` occurrences of local term `l`, by
    /// ascending result index.
    pub fn term_run(&self, l: usize) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.by_term[self.run_ptr[l] as usize..self.run_ptr[l + 1] as usize]
            .iter()
            .map(|&key| {
                let at = key as u32 as usize;
                (self.rows[at], self.entries[at].1)
            })
    }
}

/// Widest radix digit: its histogram is a 2^11-entry stack array (8 KB).
const MAX_DIGIT_BITS: u32 = 11;

/// Sorts `keys` by their high 32 bits (the term), stably: least significant
/// digit first, in as few passes of at most [`MAX_DIGIT_BITS`] as the
/// largest term needs, the bits split evenly between them.
fn radix_sort_by_term(keys: &mut Vec<u64>) {
    let max_term = keys
        .iter()
        .map(|&key| (key >> 32) as u32)
        .max()
        .unwrap_or(0);
    let bits = u32::BITS - max_term.leading_zeros();
    if bits == 0 {
        return;
    }
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = bits.div_ceil(passes);
    let mask = (1usize << digit_bits) - 1;
    let mut starts = [0u32; 1 << MAX_DIGIT_BITS];
    let starts = &mut starts[..=mask];
    let mut out = vec![0u64; keys.len()];
    for pass in 0..passes {
        let shift = 32 + pass * digit_bits;
        let digit = |key: u64| (key >> shift) as usize & mask;
        starts.fill(0);
        for &key in keys.iter() {
            starts[digit(key)] += 1;
        }
        let mut sum = 0;
        for start in starts.iter_mut() {
            (*start, sum) = (sum, sum + *start);
        }
        for &key in keys.iter() {
            let slot = &mut starts[digit(key)];
            out[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, &mut out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::doc::DocumentSpec;

    #[test]
    fn both_views_hold_every_occurrence_once() {
        let mut b = CorpusBuilder::new();
        let d0 = b.add_document(DocumentSpec::text("", "java island java coffee"));
        let d1 = b.add_document(DocumentSpec::text("", "the of and"));
        let d2 = b.add_document(DocumentSpec::text("", "coffee bean"));
        let corpus = b.build();
        // Ranked order, not id order; the stopword-only document is empty.
        let docs = [d2, d1, d0];
        let m = TermMatrix::gather(&corpus, &docs);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_terms(), 4);
        assert_eq!(m.nnz(), 5);
        assert!((1..m.num_terms()).all(|l| m.term(l - 1) < m.term(l)));

        for (i, &doc) in docs.iter().enumerate() {
            assert_eq!(m.row(i), corpus.doc_terms(doc));
            let terms: Vec<TermId> = m.row_local(i).iter().map(|&l| m.term(l as usize)).collect();
            let expected: Vec<TermId> = m.row(i).iter().map(|&(t, _)| t).collect();
            assert_eq!(terms, expected);
        }
        for l in 0..m.num_terms() {
            let expected: Vec<(u32, u32)> = docs
                .iter()
                .enumerate()
                .filter_map(|(i, &doc)| {
                    let tf = corpus.index().tf(m.term(l), doc);
                    (tf > 0).then_some((i as u32, tf))
                })
                .collect();
            assert_eq!(m.term_run(l).collect::<Vec<_>>(), expected);
        }
        let coffee = corpus.keyword_term("coffee").unwrap();
        let l = (0..m.num_terms()).find(|&l| m.term(l) == coffee).unwrap();
        assert_eq!(m.term_run(l).collect::<Vec<_>>(), [(0, 1), (2, 1)]);
    }

    #[test]
    fn empty_inputs() {
        let corpus = CorpusBuilder::new().build();
        let m = TermMatrix::gather(&corpus, &[]);
        assert_eq!((m.num_rows(), m.num_terms(), m.nnz()), (0, 0, 0));
    }

    /// The radix on `term << 32 | position` keys, positions ascending as
    /// `gather` pushes them, against a full comparison sort.
    fn check_radix(terms: &[u32]) {
        let keys: Vec<u64> = (0..)
            .zip(terms)
            .map(|(at, &term)| u64::from(term) << 32 | at)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let mut got = keys;
        radix_sort_by_term(&mut got);
        assert_eq!(got, expected, "{} keys", terms.len());
    }

    #[test]
    fn radix_sort_by_term_equals_a_comparison_sort() {
        let mut state = 0x27_5eed_u64;
        let mut next = |below: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        // Largest terms needing one pass of ≤ 11 bits, two of 9 (80,918 is
        // the benchmark vocabulary's largest id), and three of 11 (every
        // bit of a `u32`).
        for max_term in [1, 2_000, 80_918, u64::from(u32::MAX)] {
            for len in [0usize, 1, 2, 7, 300, 5_000] {
                // Few distinct terms (long runs) to nearly all distinct.
                for distinct in [1usize, 3, 60, 100_000] {
                    let pool: Vec<u32> = (0..distinct.min(len.max(1)))
                        .map(|_| next(max_term + 1) as u32)
                        .collect();
                    let mut terms: Vec<u32> = (0..len)
                        .map(|_| pool[next(pool.len() as u64) as usize])
                        .collect();
                    if let Some(first) = terms.first_mut() {
                        *first = max_term as u32;
                    }
                    check_radix(&terms);
                }
            }
        }
        check_radix(&[]);
        check_radix(&[u32::MAX]);
        check_radix(&[0]);
        check_radix(&[5; 1_000]);
        check_radix(&[u32::MAX; 100]);
        // Every term its own single-key run, descending.
        let descending: Vec<u32> = (0..4_000).rev().map(|t| t * 1_000_003).collect();
        check_radix(&descending);
    }
}
