//! Document model.
//!
//! The paper (§2) considers keyword queries over two kinds of data:
//!
//! * a **text document**, "modeled as a set of words";
//! * a **structured document**, "modeled as a set of features defined as
//!   `(entity:attribute:value)` triplets, such as `product:name:iPad`".
//!
//! [`DocumentSpec`] covers both: free text plus an optional feature list.
//! Features are indexed twice — once as an atomic composite token
//! (`product:name:ipad`), which is what the paper's shopping expansions
//! select (e.g. *"canonproducts: category: camcorders"*), and once as the
//! analysed value words, so a plain keyword query like `ipad` still matches.

use std::fmt;

/// Dense document identifier, assigned by the corpus in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a `usize` for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An `(entity, attribute, value)` triple of a structured document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// The entity type, e.g. `tv`.
    pub entity: String,
    /// The attribute, e.g. `brand`.
    pub attribute: String,
    /// The value, e.g. `Toshiba`.
    pub value: String,
}

impl Feature {
    /// Convenience constructor.
    pub fn new(
        entity: impl Into<String>,
        attribute: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        Self {
            entity: entity.into(),
            attribute: attribute.into(),
            value: value.into(),
        }
    }

    /// The atomic composite token this feature is indexed under:
    /// lower-cased `entity:attribute:value` with inner whitespace collapsed
    /// to `_` so the token survives tokenization-free interning.
    pub fn composite_token(&self) -> String {
        let mut out = String::new();
        self.composite_token_into(&mut out);
        out
    }

    /// [`composite_token`](Self::composite_token) into a caller-owned
    /// buffer (cleared first): once `out`'s capacity covers the longest
    /// token, no call allocates.
    pub fn composite_token_into(&self, out: &mut String) {
        fn push_norm(s: &str, out: &mut String) {
            let start = out.len();
            let mut last_sep = false;
            for ch in s.chars() {
                if ch.is_ascii_alphanumeric() {
                    out.push(ch.to_ascii_lowercase());
                    last_sep = false;
                } else if !last_sep && out.len() > start {
                    out.push('_');
                    last_sep = true;
                }
            }
            while out.len() > start && out.ends_with('_') {
                out.pop();
            }
        }
        out.clear();
        push_norm(&self.entity, out);
        out.push(':');
        push_norm(&self.attribute, out);
        out.push(':');
        push_norm(&self.value, out);
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.entity, self.attribute, self.value)
    }
}

/// Input to [`crate::CorpusBuilder::add_document`]: everything the engine
/// indexes about one document.
#[derive(Debug, Clone, Default)]
pub struct DocumentSpec {
    /// Short human-readable title; indexed like body text.
    pub title: String,
    /// Free text body.
    pub body: String,
    /// Structured features (may be empty for pure text documents).
    pub features: Vec<Feature>,
    /// Optional ground-truth label (e.g. the generating sense/category).
    /// Never visible to the search or expansion algorithms; used by tests,
    /// cluster-quality metrics and the simulated judges.
    pub label: Option<u32>,
}

impl DocumentSpec {
    /// A pure text document.
    pub fn text(title: impl Into<String>, body: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            body: body.into(),
            features: Vec::new(),
            label: None,
        }
    }

    /// A structured document made of features only.
    pub fn structured(title: impl Into<String>, features: Vec<Feature>) -> Self {
        Self {
            title: title.into(),
            body: String::new(),
            features,
            label: None,
        }
    }

    /// Attaches a ground-truth label.
    pub fn with_label(mut self, label: u32) -> Self {
        self.label = Some(label);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_token_normalizes() {
        let f = Feature::new("Canon Products", "Category", "Camcorders");
        assert_eq!(f.composite_token(), "canon_products:category:camcorders");
    }

    #[test]
    fn composite_token_collapses_punctuation() {
        let f = Feature::new("camera", "shutter speed", "15 - 13,200 sec.");
        assert_eq!(f.composite_token(), "camera:shutter_speed:15_13_200_sec");
    }

    #[test]
    fn composite_token_trims_trailing_separator() {
        let f = Feature::new("tv", "display area", "26\"");
        assert_eq!(f.composite_token(), "tv:display_area:26");
    }

    #[test]
    fn display_joins_with_colons() {
        let f = Feature::new("product", "name", "iPad");
        assert_eq!(f.to_string(), "product:name:iPad");
    }

    #[test]
    fn spec_constructors() {
        let t = DocumentSpec::text("Title", "Body words");
        assert!(t.features.is_empty());
        assert_eq!(t.label, None);
        let s = DocumentSpec::structured("P1", vec![Feature::new("a", "b", "c")]).with_label(3);
        assert_eq!(s.label, Some(3));
        assert_eq!(s.features.len(), 1);
    }
}
