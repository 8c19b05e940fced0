//! Deploying a resilient RHMD and attacking it (paper §7):
//!
//! * assemble pools of 2, 3, and 6 diverse base detectors;
//! * measure the baseline detection cost of randomization;
//! * let the attacker reverse-engineer and evade each pool;
//! * print the PAC Theorem-1 error band the attack is trapped inside (§8);
//! * estimate the hardware cost of the deployed pool.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example resilient_deployment
//! ```

use rhmd::prelude::*;
use rhmd_core::hw;
use rhmd_core::pac;
use rhmd_core::retrain::detection_quality;

fn main() {
    let config = CorpusConfig::small();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    let trainer = TrainerConfig::default();

    let pools: Vec<(&str, Vec<FeatureSpec>)> = vec![
        (
            "2 features",
            pool_specs(
                &[FeatureKind::Memory, FeatureKind::Instructions],
                &[10_000],
                &opcodes,
            ),
        ),
        (
            "3 features",
            pool_specs(&FeatureKind::ALL, &[10_000], &opcodes),
        ),
        (
            "3 features x 2 periods",
            pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &opcodes),
        ),
    ];

    let labels = traced.corpus().labels();
    let malware: Vec<usize> = splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();

    for (name, specs) in pools {
        let mut rhmd = build_pool(
            Algorithm::Lr,
            specs.clone(),
            &trainer,
            &traced,
            &splits.victim_train,
            0x5eed,
        );

        // Baseline quality under randomization.
        let quality = detection_quality(&mut rhmd, &traced, &splits.attacker_test);

        // Attacker: best-effort surrogate over the union of features.
        let combined = FeatureSpec::combined(FeatureKind::ALL.to_vec(), 10_000, opcodes.clone());
        let surrogate = reveng::reverse_engineer(
            &mut rhmd,
            &traced,
            &splits.attacker_train,
            combined,
            Algorithm::Nn,
            &TrainerConfig::with_seed(0xbad),
        );
        let fidelity = reveng::agreement(&mut rhmd, &surrogate, &traced, &splits.attacker_test);

        // ...and evasion tuned to that surrogate.
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(2));
        let trial = evade_corpus(&mut rhmd, &traced, &malware, &plan);

        // Theory: the Theorem 1 band the surrogate error must fall in.
        let detectors = rhmd.detectors();
        let delta = pac::disagreement_matrix(detectors, &traced, &splits.attacker_test);
        let errors = pac::base_errors(detectors, &traced, &splits.attacker_test);
        let band = pac::theorem1_band(&delta, rhmd.probabilities(), &errors);

        // Hardware bill for this pool.
        let cost = hw::overhead(&specs, &hw::UnitCosts::default());

        println!("pool: {name}");
        println!(
            "  detection  sens {:.1}% / spec {:.1}%",
            100.0 * quality.sensitivity_unmodified,
            100.0 * quality.specificity
        );
        println!(
            "  attacker   agreement {:.1}%  (Theorem-1 error band [{:.1}%, {:.1}%])",
            100.0 * fidelity,
            100.0 * band.lower,
            100.0 * band.upper
        );
        println!(
            "  evasion    detection after injection {:.1}% (of {} initially detected)",
            100.0 * trial.detection_rate(),
            trial.initially_detected
        );
        println!(
            "  hardware   +{:.2}% area, +{:.2}% power vs AO486\n",
            cost.area_pct, cost.power_pct
        );
    }
}
