//! The evade–retrain arms race (paper §6, Fig 13): every generation the
//! attacker reverse-engineers the current NN detector and rewrites its
//! malware; the defender then retrains with the captured evasive samples.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example retraining_game
//! ```

use rhmd::prelude::*;

fn main() {
    let config = CorpusConfig::small();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);

    let game = GameConfig {
        algorithm: Algorithm::Nn,
        spec: FeatureSpec::new(FeatureKind::Instructions, 10_000, opcodes),
        surrogate: Algorithm::Nn,
        payload: 2,
        generations: 5,
        trainer: TrainerConfig::default(),
        seed: 0x9a3e,
    };
    println!("playing {} generations of evade-retrain ...\n", game.generations);
    let records = evade_retrain_game(
        &game,
        &traced,
        &splits.victim_train,
        &splits.attacker_train,
        &splits.attacker_test,
    );

    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>14}",
        "gen", "specificity", "unmodified", "current-evasive", "previous-evasive"
    );
    for r in &records {
        println!(
            "{:>4} {:>11.1}% {:>11.1}% {:>13.1}% {:>13.1}%",
            r.generation,
            100.0 * r.specificity,
            100.0 * r.sensitivity_unmodified,
            100.0 * r.sensitivity_current_evasive,
            100.0 * r.sensitivity_previous_evasive,
        );
    }
    println!(
        "\nreading: each generation's detector misses the malware tuned against it \
         (current-evasive low) but catches last generation's (previous-evasive high) — \
         until the classes stop being separable."
    );
}
