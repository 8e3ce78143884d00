//! Text preprocessing substrate.
//!
//! Reproduces the paper's corpus preparation (Sect. 6.1): lowercasing and
//! tokenisation, stop-word removal, Porter stemming, a content-word filter
//! standing in for the Stanford POS tagger ("we only kept nouns, verbs and
//! hashtags"), pruning of documents with fewer than two remaining words,
//! and vocabulary construction with frequency pruning.
//!
//! The POS tagger substitution is argued in the [`filter`] module docs: the filter
//! keeps hashtags, drops stop words / short tokens / pure numbers / common
//! adverb ("-ly") forms — i.e. it removes function words before topic
//! modelling, which is all the tagger was used for.

pub mod filter;
pub mod pipeline;
pub mod stemmer;
pub mod stopwords;
pub mod tokenizer;
pub mod vocab;

pub use pipeline::{Pipeline, PipelineConfig, ProcessedCorpus, RawDocument};
pub use stemmer::porter_stem;
pub use stopwords::is_stopword;
pub use tokenizer::tokenize;
pub use vocab::Vocabulary;
