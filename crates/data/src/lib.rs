//! Synthetic corpus construction for the RHMD reproduction.
//!
//! Replaces the paper's MalwareDB corpus (3,000 malware + 554 benign Windows
//! programs) with deterministic synthetic programs:
//!
//! * [`config::CorpusConfig`] — scale presets (`tiny` → `paper`), selectable
//!   via the `RHMD_SCALE` environment variable;
//! * [`corpus::Corpus`] — all programs across 6 malware families and 8
//!   benign application classes;
//! * [`splits::Splits`] — the stratified 60/20/20 victim / attacker-train /
//!   attacker-test split of paper §3;
//! * [`traced::TracedCorpus`] — every program executed once (in parallel)
//!   into fine-grained windows, from which any feature spec can be
//!   projected;
//! * [`store::CorpusStore`] — the on-disk data plane: `rhmd corpus build`
//!   traces once into mmap-able feature shards (content-addressed dedup,
//!   checkpointed builds), and evaluation reads zero-copy
//!   [`rhmd_ml::FeatureMatrix`] views back with bounded RSS;
//! * [`source::CorpusSource`] — the streaming trait that makes the traced
//!   corpus and the store interchangeable (and bit-identical) to every
//!   consumer.
//!
//! # Examples
//!
//! ```
//! use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
//! use rhmd_features::{FeatureKind, FeatureSpec};
//! use rhmd_uarch::CoreConfig;
//!
//! let config = CorpusConfig::tiny();
//! let corpus = Corpus::build(&config);
//! let splits = Splits::new(&corpus, config.seed);
//! let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
//! let spec = FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]);
//! let train = traced.window_dataset(&splits.victim_train, &spec);
//! assert!(train.positives() > 0 && train.negatives() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod corpus;
pub mod source;
pub mod splits;
pub mod store;
pub mod traced;

pub use config::CorpusConfig;
pub use corpus::Corpus;
pub use source::{CorpusSource, SourceChunk};
pub use splits::Splits;
pub use store::{CorpusStore, StoreBuilder, StoreManifest, StoreSummary};
pub use traced::{parallel_map_threads, TracedCorpus};
