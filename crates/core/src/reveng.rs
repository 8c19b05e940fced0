//! Reverse-engineering HMDs by black-box querying (paper §4).
//!
//! The attacker (1) queries the victim detector with its own programs,
//! (2) labels its feature vectors with the victim's decisions, (3) trains a
//! surrogate, and (4) measures success as the fraction of decisions on held-
//! out programs where surrogate and victim agree (Fig 1).

use crate::hmd::{BlackBox, Hmd};
use rhmd_data::TracedCorpus;
use rhmd_features::vector::FeatureSpec;
use rhmd_ml::model::Dataset;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use serde::{Deserialize, Serialize};

/// Result of one reverse-engineering attempt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RevengReport {
    /// Surrogate family used.
    pub algorithm: Algorithm,
    /// Attacker's feature hypothesis.
    pub spec_label: String,
    /// Training rows the attacker collected.
    pub train_rows: usize,
    /// Fraction of test decisions where surrogate matches victim.
    pub agreement: f64,
}

/// Builds the attacker's labelled dataset for one feature hypothesis by
/// querying `victim` over `indices` of `traced` (paper Fig 1a).
///
/// The attacker observes the victim's decision *sequence* and pairs its own
/// k-th window with the victim's k-th decision — it has no way to align
/// decisions to instruction counts, so a wrong period hypothesis produces
/// increasingly misaligned (noisy) labels. This is exactly the mechanism
/// behind the paper's Fig 3a period-recovery experiment.
pub fn query_dataset(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    indices: &[usize],
    spec: &FeatureSpec,
) -> Dataset {
    traced.prefetch(indices);
    let mut data = Dataset::new(spec.dims());
    for &i in indices {
        let subs = traced.subwindows(i);
        let labels = victim.decisions(subs);
        let vectors = traced.program_vectors(i, spec);
        for (v, l) in vectors.into_iter().zip(labels) {
            data.push(v, l);
        }
    }
    data
}

/// Trains a surrogate of `victim` with the given hypothesis (feature spec +
/// algorithm) on the attacker-training programs.
pub fn reverse_engineer(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    attacker_train: &[usize],
    spec: FeatureSpec,
    algorithm: Algorithm,
    trainer: &TrainerConfig,
) -> Hmd {
    let data = query_dataset(victim, traced, attacker_train, &spec);
    Hmd::train_on_dataset(algorithm, spec, trainer, &data)
}

/// Fraction of per-window decisions on the attacker-test programs where
/// `surrogate` matches `victim` (paper Fig 1b). Decision sequences are
/// paired index-by-index, mirroring how the attacker observes them.
pub fn agreement(
    victim: &mut dyn BlackBox,
    surrogate: &Hmd,
    traced: &TracedCorpus,
    attacker_test: &[usize],
) -> f64 {
    traced.prefetch(attacker_test);
    let mut same = 0usize;
    let mut total = 0usize;
    for &i in attacker_test {
        let subs = traced.subwindows(i);
        let victim_decisions = victim.decisions(subs);
        let surrogate_decisions = surrogate.decide_windows(subs);
        for (v, s) in victim_decisions.iter().zip(&surrogate_decisions) {
            if v == s {
                same += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        same as f64 / total as f64
    }
}

/// Trains several surrogates with different seeds and keeps the one that
/// best matches the victim on the attacker's *own* training programs — the
/// natural validation step a real attacker performs before investing in
/// binary rewriting.
///
/// # Panics
///
/// Panics if `tries` is zero.
pub fn reverse_engineer_validated(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    attacker_train: &[usize],
    spec: FeatureSpec,
    algorithm: Algorithm,
    base_trainer: &TrainerConfig,
    tries: u32,
) -> Hmd {
    assert!(tries > 0, "need at least one training attempt");
    let data = query_dataset(victim, traced, attacker_train, &spec);
    let mut best: Option<(f64, Hmd)> = None;
    for t in 0..tries {
        let mut trainer = *base_trainer;
        trainer.lr.seed ^= u64::from(t) << 32;
        trainer.svm.seed ^= u64::from(t) << 32;
        trainer.mlp.seed ^= u64::from(t) << 32;
        trainer.forest.seed ^= u64::from(t) << 32;
        let candidate = Hmd::train_on_dataset(algorithm, spec.clone(), &trainer, &data);
        // Validate against the victim's labels on the training queries.
        let fit = {
            let predictions = rhmd_ml::model::predict_all(candidate.model(), &data);
            rhmd_ml::metrics::agreement(&predictions, data.labels())
        };
        if best.as_ref().is_none_or(|(score, _)| fit > *score) {
            best = Some((fit, candidate));
        }
    }
    best.expect("tries > 0").1
}

/// Runs the full attack for one hypothesis and reports agreement.
pub fn attack(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    attacker_train: &[usize],
    attacker_test: &[usize],
    spec: FeatureSpec,
    algorithm: Algorithm,
    trainer: &TrainerConfig,
) -> (Hmd, RevengReport) {
    let data = query_dataset(victim, traced, attacker_train, &spec);
    let train_rows = data.len();
    let surrogate = Hmd::train_on_dataset(algorithm, spec, trainer, &data);
    let agreement = agreement(victim, &surrogate, traced, attacker_test);
    let report = RevengReport {
        algorithm,
        spec_label: surrogate.spec().label(),
        train_rows,
        agreement,
    };
    (surrogate, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::FeatureKind;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    #[test]
    fn matching_hypothesis_reverse_engineers_well() {
        let (traced, splits) = fixture();
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let (_, report) = attack(
            &mut victim,
            &traced,
            &splits.attacker_train,
            &splits.attacker_test,
            spec,
            Algorithm::Lr,
            &TrainerConfig::with_seed(99),
        );
        assert!(report.agreement > 0.8, "agreement {}", report.agreement);
    }

    #[test]
    fn wrong_feature_hypothesis_agrees_less() {
        let (traced, splits) = fixture();
        let victim_spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            victim_spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let (_, matched) = attack(
            &mut victim,
            &traced,
            &splits.attacker_train,
            &splits.attacker_test,
            victim_spec,
            Algorithm::Lr,
            &TrainerConfig::with_seed(99),
        );
        let wrong_spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let (_, mismatched) = attack(
            &mut victim,
            &traced,
            &splits.attacker_train,
            &splits.attacker_test,
            wrong_spec,
            Algorithm::Lr,
            &TrainerConfig::with_seed(99),
        );
        assert!(
            matched.agreement > mismatched.agreement,
            "matched {} vs mismatched {}",
            matched.agreement,
            mismatched.agreement
        );
    }

    #[test]
    fn query_dataset_row_count_matches_windows() {
        let (traced, splits) = fixture();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let one = &splits.attacker_train[..1];
        let data = query_dataset(&mut victim, &traced, one, &spec);
        let expected = traced.program_vectors(one[0], &spec).len();
        assert_eq!(data.len(), expected);
    }
}
