//! Tokenizer: splits raw text into lower-cased word tokens.
//!
//! The paper models a text document simply as "a set of words", so the
//! tokenizer is a classic IR word splitter:
//!
//! * ASCII letters and digits form token characters;
//! * everything else separates tokens;
//! * intra-word apostrophes are dropped (`don't` → `dont`) so possessives
//!   and contractions do not fragment;
//! * tokens are lower-cased;
//! * overly long tokens (> [`MAX_TOKEN_LEN`] bytes) are discarded — they are
//!   almost always markup noise and would bloat the dictionary.
//!
//! Non-ASCII characters are treated as separators. The synthetic corpora are
//! ASCII, and the paper's own datasets were processed as plain English text.

/// Tokens longer than this are dropped.
pub const MAX_TOKEN_LEN: usize = 64;

/// Streaming tokenizer over a string slice.
///
/// Call [`next_into`](Self::next_into) until it returns `None`; each call
/// writes the next token into a caller-owned buffer. Construction is free;
/// all work happens as the tokens are pulled.
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    #[inline]
    fn is_token_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'\''
    }

    /// Advances to the next token, writing its normalized text into `out`
    /// (cleared first) and returning the token's byte offset, or `None` when
    /// the input is exhausted. Reusing one `out` buffer across calls keeps
    /// tokenization allocation-free once the buffer's capacity covers the
    /// longest token — the discipline the serving cache's analysed-key probe
    /// relies on. `out`'s contents are meaningful only on `Some`.
    pub fn next_into(&mut self, out: &mut String) -> Option<usize> {
        loop {
            // Skip separators.
            while self.pos < self.bytes.len() && !Self::is_token_byte(self.bytes[self.pos]) {
                self.pos += 1;
            }
            if self.pos >= self.bytes.len() {
                return None;
            }
            let start = self.pos;
            while self.pos < self.bytes.len() && Self::is_token_byte(self.bytes[self.pos]) {
                self.pos += 1;
            }
            let raw = &self.input[start..self.pos];
            // Strip apostrophes and lowercase in one pass. Document analysis
            // and the query path both reuse one buffer, so the reserve
            // allocates only while that buffer is still growing to the
            // longest token and is a no-op once it is warm.
            out.clear();
            out.reserve(raw.len());
            for &b in raw.as_bytes() {
                if b != b'\'' {
                    out.push(b.to_ascii_lowercase() as char);
                }
            }
            if out.is_empty() || out.len() > MAX_TOKEN_LEN {
                continue; // pure-apostrophe run or noise token: skip it
            }
            return Some(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `input` with its byte offset, pulled through one
    /// reused buffer.
    fn tokens(input: &str) -> Vec<(String, usize)> {
        let mut tokenizer = Tokenizer::new(input);
        let mut buf = String::new();
        let mut out = Vec::new();
        while let Some(offset) = tokenizer.next_into(&mut buf) {
            out.push((buf.clone(), offset));
        }
        out
    }

    fn tokenize(input: &str) -> Vec<String> {
        tokens(input).into_iter().map(|(text, _)| text).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("Apple Inc. makes the iPhone, iPad and Mac."),
            vec!["apple", "inc", "makes", "the", "iphone", "ipad", "and", "mac"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("CANON PowerShot"), vec!["canon", "powershot"]);
    }

    #[test]
    fn keeps_digits_and_alnum_mixtures() {
        assert_eq!(
            tokenize("wp-dc26 8GB ddr3 1080p"),
            vec!["wp", "dc26", "8gb", "ddr3", "1080p"]
        );
    }

    #[test]
    fn drops_apostrophes_inside_words() {
        assert_eq!(
            tokenize("don't o'clock rock's"),
            vec!["dont", "oclock", "rocks"]
        );
    }

    #[test]
    fn pure_apostrophe_runs_are_skipped() {
        assert_eq!(tokenize("'' ' '''"), Vec::<String>::new());
    }

    #[test]
    fn empty_and_separator_only_inputs() {
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("   \t\n--!!.."), Vec::<String>::new());
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let toks = tokens("ab  cd");
        assert_eq!(toks[0].1, 0);
        assert_eq!(toks[1].1, 4);
    }

    #[test]
    fn non_ascii_is_separator() {
        assert_eq!(tokenize("caf\u{e9} nai\u{308}ve"), vec!["caf", "nai", "ve"]);
    }

    #[test]
    fn overlong_tokens_dropped() {
        let long = "a".repeat(MAX_TOKEN_LEN + 1);
        let input = format!("short {long} tail");
        assert_eq!(tokenize(&input), vec!["short", "tail"]);
    }

    #[test]
    fn max_len_token_kept() {
        let edge = "b".repeat(MAX_TOKEN_LEN);
        assert_eq!(tokenize(&edge), vec![edge.clone()]);
    }
}
