//! The fixture the replay suites share: the tiny corpus, traced, split,
//! and an LR detector on Architectural features at a 5k period.

use rhmd_core::hmd::Hmd;
use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_uarch::CoreConfig;

pub fn fixture() -> (TracedCorpus, Splits, Hmd) {
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let hmd = Hmd::train(
        Algorithm::Lr,
        FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );
    (traced, splits, hmd)
}
