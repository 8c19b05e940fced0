//! Quickstart: build a corpus, train a baseline HMD on the victim split,
//! and score the held-out programs — the paper's Fig 2 setup in miniature.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rhmd::prelude::*;
use rhmd_ml::{auc, score_all};

fn main() {
    // 1. Corpus: 6 synthetic malware families + 8 benign application
    //    classes, standing in for the paper's MalwareDB + Windows programs.
    let config = CorpusConfig::small();
    println!("building corpus of {} programs ...", config.total_programs());
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);

    // 2. Trace every program once through the simulated core (Pin's role).
    let start = std::time::Instant::now();
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    println!("traced in {:?}", start.elapsed());

    // 3. Feature selection on the victim training set (paper §3).
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    println!(
        "top-delta opcodes: {}",
        opcodes
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // 4. Train one detector per feature and evaluate on held-out programs.
    for kind in FeatureKind::ALL {
        let spec = FeatureSpec::new(kind, 10_000, opcodes.clone());
        let hmd = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );

        // Window-level AUC, as in Fig 2.
        let test = traced.window_dataset(&splits.attacker_test, &spec);
        let scores = score_all(hmd.model(), &test);
        let window_auc = auc(&scores, test.labels());

        // Program-level accuracy by majority vote over windows.
        let labels = traced.corpus().labels();
        let correct = splits
            .attacker_test
            .iter()
            .filter(|&&i| hmd.verdict(traced.subwindows(i)).is_malware() == labels[i])
            .count();
        println!(
            "{:>14}: window AUC {:.3}, program accuracy {:.1}% ({}/{})",
            kind.to_string(),
            window_auc,
            100.0 * correct as f64 / splits.attacker_test.len() as f64,
            correct,
            splits.attacker_test.len()
        );
    }
}
