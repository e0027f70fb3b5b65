//! The analysis pipeline: tokenize → stopword-filter → (optionally) stem →
//! intern.
//!
//! [`Analyzer`] owns the [`TermDict`] so that every component of the system
//! (index, clusterer, expansion algorithms, data generators) shares one id
//! space. The paper's engine implicitly does the same: an expanded query's
//! keywords are drawn from the very terms that were indexed.

use crate::dict::{TermDict, TermId};
use crate::stem::PorterStemmer;
use crate::stopwords::StopwordList;
use crate::token::Tokenizer;

/// Configuration for [`Analyzer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Apply the Porter stemmer to each token.
    pub stem: bool,
    /// Filter stopwords.
    pub filter_stopwords: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            stem: true,
            filter_stopwords: true,
        }
    }
}

/// Text-analysis pipeline with a shared term dictionary.
#[derive(Debug, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
    stemmer: PorterStemmer,
    stopwords: StopwordList,
    dict: TermDict,
}

impl Analyzer {
    /// Analyzer with default config (stemming + English stopwords).
    pub fn new() -> Self {
        Self::with_config(AnalyzerConfig::default())
    }

    /// Analyzer with explicit configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        Self {
            stopwords: if config.filter_stopwords {
                StopwordList::english()
            } else {
                StopwordList::none()
            },
            config,
            stemmer: PorterStemmer::new(),
            dict: TermDict::new(),
        }
    }

    /// Analyzes `text` into interned term ids (duplicates preserved — the
    /// index derives term frequencies from repetition).
    pub fn analyze(&mut self, text: &str) -> Vec<TermId> {
        let mut out = Vec::new();
        self.analyze_into(text, &mut String::new(), &mut out);
        out
    }

    /// [`analyze`](Self::analyze) through caller-owned buffers: appends the
    /// id of each analysed term of `text` to `out`, in text order. Every
    /// token is built and stemmed in `buf`, so once `buf` and `out` are
    /// warm only interning a term the dictionary has not met allocates.
    /// This is the pipeline's one normalising loop; the corpus builder
    /// runs every document through it.
    pub fn analyze_into(&mut self, text: &str, buf: &mut String, out: &mut Vec<TermId>) {
        let mut tokens = Tokenizer::new(text);
        while tokens.next_into(buf).is_some() {
            if self.config.filter_stopwords && self.stopwords.contains(buf) {
                continue;
            }
            if self.config.stem {
                self.stemmer.stem_in_place(buf);
            }
            if !buf.is_empty() {
                out.push(self.dict.intern(buf));
            }
        }
    }

    /// Analyzes a *verbatim* term: no tokenization, no stopword filtering,
    /// no stemming — used for structured feature tokens such as
    /// `tv:brand:toshiba` which must stay atomic.
    pub fn intern_verbatim(&mut self, term: &str) -> TermId {
        self.dict.intern(term)
    }

    /// Looks up the analysed form of `keyword` without interning new terms.
    /// Only the first token is considered, so only it is materialised — no
    /// intermediate token vector.
    pub fn lookup_keyword(&self, keyword: &str) -> Option<TermId> {
        let mut buf = String::new();
        self.lookup_keyword_into(keyword, &mut buf)
    }

    /// [`lookup_keyword`](Self::lookup_keyword) through a caller-owned
    /// buffer: the token and its stem are built in `buf` (cleared first), so
    /// once `buf`'s capacity covers the longest keyword the lookup performs
    /// no heap allocation. This is the analysed-cache-key path of the
    /// serving engine.
    pub fn lookup_keyword_into(&self, keyword: &str, buf: &mut String) -> Option<TermId> {
        Tokenizer::new(keyword).next_into(buf)?;
        if self.config.filter_stopwords && self.stopwords.contains(buf) {
            return None;
        }
        if self.config.stem {
            self.stemmer.stem_in_place(buf);
        }
        self.dict.get(buf)
    }

    /// The pipeline configuration this analyzer was built with — what a
    /// snapshot persists so a reload reconstructs the identical pipeline.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Shared dictionary (read access).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Number of distinct terms interned so far.
    pub fn vocab_size(&self) -> usize {
        self.dict.len()
    }

    /// Human-readable name of a term id.
    pub fn term_name(&self, id: TermId) -> &str {
        self.dict.name_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_stems_and_filters() {
        let mut a = Analyzer::new();
        let ids = a.analyze("The apples are in the stores");
        let names: Vec<&str> = ids.iter().map(|&id| a.dict().name_of(id)).collect();
        assert_eq!(names, vec!["appl", "store"]);
    }

    #[test]
    fn duplicates_are_preserved_for_tf() {
        let mut a = Analyzer::new();
        let ids = a.analyze("java java island");
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn no_stem_config() {
        let mut a = Analyzer::with_config(AnalyzerConfig {
            stem: false,
            filter_stopwords: true,
        });
        let ids = a.analyze("running shoes");
        let names: Vec<&str> = ids.iter().map(|&id| a.dict().name_of(id)).collect();
        assert_eq!(names, vec!["running", "shoes"]);
    }

    #[test]
    fn verbatim_terms_stay_atomic() {
        let mut a = Analyzer::new();
        let id = a.intern_verbatim("tv:brand:toshiba");
        assert_eq!(a.dict().name_of(id), "tv:brand:toshiba");
        // Regular analysis of the same string would split it.
        let ids = a.analyze("tv:brand:toshiba");
        assert!(ids.len() > 1);
    }

    #[test]
    fn analyze_keyword_matches_document_analysis() {
        let mut a = Analyzer::new();
        let doc_ids = a.analyze("many locations");
        let kw = a.analyze("location")[0];
        assert!(doc_ids.contains(&kw));
    }

    #[test]
    fn analyze_keyword_stopword_is_none() {
        let mut a = Analyzer::new();
        assert!(a.analyze("the").is_empty());
        assert!(a.analyze("").is_empty());
    }

    #[test]
    fn lookup_keyword_does_not_intern() {
        let mut a = Analyzer::new();
        assert_eq!(a.lookup_keyword("zebra"), None);
        let before = a.vocab_size();
        let _ = a.lookup_keyword("zebra");
        assert_eq!(a.vocab_size(), before);
        let id = a.analyze("zebra")[0];
        assert_eq!(a.lookup_keyword("zebra"), Some(id));
        assert_eq!(a.lookup_keyword("zebras"), Some(id), "stemmed lookup");
    }
}
