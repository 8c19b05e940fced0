//! The paper's §8.3 future-work design, running: a non-stationary RHMD
//! whose active detector subset is re-drawn from a larger candidate pool,
//! compared against a plain RHMD and a deterministic ensemble under the
//! same reverse-engineer → inject attack.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example nonstationary_defense
//! ```

use rhmd::prelude::*;
use rhmd_core::ensemble::{Combiner, EnsembleHmd};
use rhmd_core::retrain::detection_quality;
use rhmd_core::rhmd::NonStationaryRhmd;

fn main() {
    let config = CorpusConfig::small();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    let trainer = TrainerConfig::default();

    // One shared pool of base detectors: 3 features x 2 periods.
    let train = |spec: FeatureSpec| {
        Hmd::train(Algorithm::Lr, spec, &trainer, &traced, &splits.victim_train)
    };
    let candidates: Vec<Hmd> = pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &opcodes)
        .into_iter()
        .map(train)
        .collect();
    let same_period: Vec<Hmd> = candidates
        .iter()
        .filter(|d| d.spec().period == 10_000)
        .cloned()
        .collect();

    let mut defenders: Vec<(&str, Box<dyn BlackBox>)> = vec![
        (
            "deterministic ensemble",
            Box::new(EnsembleHmd::new(same_period.clone(), Combiner::Majority)),
        ),
        ("stationary RHMD", Box::new(ResilientHmd::new(same_period, 1))),
        (
            "non-stationary RHMD",
            Box::new(NonStationaryRhmd::new(candidates, 3, 8, 2)),
        ),
    ];

    let labels = traced.corpus().labels();
    let malware: Vec<usize> = splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();

    println!(
        "{:>24} {:>7} {:>7} {:>10} {:>12}",
        "defender", "sens", "spec", "agreement", "detected @3"
    );
    for (name, defender) in &mut defenders {
        let quality = detection_quality(defender.as_mut(), &traced, &splits.attacker_test);
        let surrogate = reveng::reverse_engineer(
            defender.as_mut(),
            &traced,
            &splits.attacker_train,
            FeatureSpec::new(FeatureKind::Instructions, 10_000, opcodes.clone()),
            Algorithm::Nn,
            &TrainerConfig::with_seed(9),
        );
        let fidelity =
            reveng::agreement(defender.as_mut(), &surrogate, &traced, &splits.attacker_test);
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(3));
        let trial = evade_corpus(defender.as_mut(), &traced, &malware, &plan);
        println!(
            "{:>24} {:>6.1}% {:>6.1}% {:>9.1}% {:>11.1}%",
            name,
            100.0 * quality.sensitivity_unmodified,
            100.0 * quality.specificity,
            100.0 * fidelity,
            100.0 * trial.detection_rate()
        );
    }
    println!(
        "\nthe non-stationary pool moves its decision boundary over time, so even a \
         faithful snapshot surrogate goes stale — the paper's §8.3 conjecture."
    );
}
