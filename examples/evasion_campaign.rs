//! An end-to-end attacker campaign against a deployed HMD (paper §4–§5):
//!
//! 1. train the victim detector (defender side);
//! 2. reverse-engineer it by black-box queries (Fig 1);
//! 3. build a least-weight injection plan from the surrogate's weights;
//! 4. rewrite the malware and measure how much detection survives, and at
//!    what runtime overhead (Figs 8–9).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example evasion_campaign
//! ```

use rhmd::prelude::*;

fn main() {
    let config = CorpusConfig::small();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);

    // Defender: an LR detector over the Instructions feature at 10K.
    let spec = FeatureSpec::new(FeatureKind::Instructions, 10_000, opcodes);
    let mut victim = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );
    println!("victim deployed: {}", victim.name());

    // Attacker: reverse-engineer with its own 20% split.
    let surrogate = reveng::reverse_engineer(
        &mut victim,
        &traced,
        &splits.attacker_train,
        spec,
        Algorithm::Lr,
        &TrainerConfig::with_seed(0xa77ac4),
    );
    let fidelity = reveng::agreement(&mut victim, &surrogate, &traced, &splits.attacker_test);
    println!("surrogate agreement with victim: {:.1}%", 100.0 * fidelity);

    // Evasion sweep: least-weight injection at the basic-block level.
    let labels = traced.corpus().labels();
    let malware: Vec<usize> = splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    println!("\n{:>10} {:>12} {:>12} {:>12}", "payload", "detected", "static ovh", "dynamic ovh");
    for count in [0usize, 1, 2, 3, 5] {
        if count == 0 {
            let trial = evade_corpus(
                &mut victim,
                &traced,
                &malware,
                &rhmd_trace::inject::InjectionPlan::new(vec![], Placement::EveryBlock),
            );
            println!(
                "{:>10} {:>11.1}% {:>12} {:>12}",
                count,
                100.0 * trial.detection_rate(),
                "-",
                "-"
            );
            continue;
        }
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(count));
        let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
        println!(
            "{:>10} {:>11.1}% {:>11.1}% {:>11.1}%",
            count,
            100.0 * trial.detection_rate(),
            100.0 * trial.mean_static_overhead,
            100.0 * trial.mean_dynamic_overhead
        );
    }
    println!("\npayload opcode: {}", {
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(1));
        plan.payload()[0].to_string()
    });
}
