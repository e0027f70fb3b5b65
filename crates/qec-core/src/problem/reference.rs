//! The arena build this module's grouped-occurrences build replaced, kept
//! as the oracle of the differential tests: one `contains` bitset and one
//! tf·idf accumulator per distinct result term in two `BTreeMap`s (one
//! `idf()` per occurrence).

use super::{normalize_weights, ArenaConfig, Candidate, ExpansionArena};
use crate::bitset::ResultSet;
use qec_index::{Corpus, DocId};
use qec_text::TermId;

/// [`ExpansionArena::build`] as it was.
pub(crate) fn build(
    corpus: &Corpus,
    docs: &[DocId],
    weights: Option<&[f64]>,
    query_terms: &[TermId],
    config: &ArenaConfig,
) -> ExpansionArena {
    let n = docs.len();
    let weights = match weights {
        Some(w) => {
            assert_eq!(w.len(), n, "one weight per arena result");
            normalize_weights(w)
        }
        None => vec![1.0; n],
    };

    // term → contains bitset, accumulated over arena docs. Dense map by
    // TermId would waste memory (vocab >> arena terms); a sorted-key
    // accumulation via BTreeMap keeps iteration deterministic.
    let mut contains: std::collections::BTreeMap<TermId, ResultSet> =
        std::collections::BTreeMap::new();
    let mut tfidf: std::collections::BTreeMap<TermId, f64> = std::collections::BTreeMap::new();
    let index = corpus.index();
    for (i, &doc) in docs.iter().enumerate() {
        for &(term, tf) in corpus.doc_terms(doc) {
            contains
                .entry(term)
                .or_insert_with(|| ResultSet::empty(n))
                .insert(i);
            *tfidf.entry(term).or_insert(0.0) += tf as f64 * index.idf(term);
        }
    }

    // Filter and rank candidates.
    let mut ranked: Vec<(TermId, f64)> = contains
        .iter()
        .filter(|(term, set)| {
            !query_terms.contains(term) && set.len() < n // not in all results
        })
        .map(|(&term, _)| (term, tfidf[&term]))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("tf-idf finite")
            .then_with(|| a.0.cmp(&b.0))
    });
    let keep = if config.candidate_fraction >= 1.0 {
        ranked.len()
    } else {
        let frac = (ranked.len() as f64 * config.candidate_fraction).ceil() as usize;
        frac.max(config.min_candidates).min(ranked.len())
    };
    ranked.truncate(keep);

    let candidates: Vec<Candidate> = ranked
        .into_iter()
        .map(|(term, _)| Candidate {
            term,
            contains: contains.remove(&term).expect("ranked term present"),
        })
        .collect();

    ExpansionArena::assemble(docs.to_vec(), weights, candidates)
}
