//! Content-word filter — the POS-tagger substitution.
//!
//! The paper tags every token with the Stanford POS tagger and keeps only
//! nouns, verbs and hashtags. The tagger exists solely to strip function
//! words before topic modelling, so we substitute a deterministic
//! heuristic with the same effect:
//!
//! * hashtags always pass;
//! * stop words are dropped;
//! * tokens shorter than 3 characters are dropped;
//! * purely numeric tokens are dropped;
//! * `-ly` adverbs (length > 4) are dropped.

use crate::stopwords::is_stopword;

/// Should `token` (lowercased) be kept as a content word?
pub fn is_content_word(token: &str) -> bool {
    if token.starts_with('#') {
        return token.len() > 1;
    }
    if token.len() < 3 {
        return false;
    }
    if is_stopword(token) {
        return false;
    }
    if token.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    if token.len() > 4 && token.ends_with("ly") {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_content_words() {
        for w in ["network", "wireless", "learning", "router", "#iphone"] {
            assert!(is_content_word(w), "{w}");
        }
    }

    #[test]
    fn drops_function_words_and_noise() {
        for w in ["the", "is", "at", "12", "2016", "really", "quickly"] {
            assert!(!is_content_word(w), "{w}");
        }
    }

    #[test]
    fn short_ly_words_survive() {
        // The -ly adverb rule only fires above 4 characters, so short
        // content words ending in "ly" survive.
        assert!(is_content_word("fly"));
        assert!(is_content_word("july"));
        assert!(!is_content_word("really"));
    }

    #[test]
    fn bare_hash_is_dropped() {
        assert!(!is_content_word("#"));
    }
}
