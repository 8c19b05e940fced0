//! Golden regression tests: the headline numbers of the reproduction,
//! checked in at tiny scale and compared to 1e-9.
//!
//! Everything in this pipeline is deterministic — synthetic corpus, seeded
//! simulation, seeded training, seeded switching — so these values are
//! exact, not statistical. A drift beyond 1e-9 means a semantic change to
//! the pipeline (intended or not), never noise; if the change is intended,
//! regenerate with:
//!
//! ```text
//! RHMD_GOLDEN_WRITE=1 cargo test --release --test golden
//! ```
//!
//! and review the diff of `tests/golden_expected.json` like any other code
//! change.

use rhmd_bench::Experiment;
use rhmd_core::detector::{Detector, StreamRng};
use rhmd_core::engine::Evaluator;
use rhmd_core::hmd::Hmd;
use rhmd_core::rhmd::{build_pool, pool_specs};
use rhmd_core::verdict::VerdictPolicy;
use rhmd_data::CorpusConfig;
use rhmd_features::vector::FeatureKind;
use rhmd_ml::metrics::auc;
use rhmd_ml::model::score_all;
use rhmd_ml::trainer::Algorithm;
use rhmd_runtime::pool::Pool;
use rhmd_uarch::faults::FaultConfig;
use serde::{Deserialize, Serialize};

const TOLERANCE: f64 = 1e-9;
const GOLDEN_PATH: &str = "tests/golden_expected.json";

/// Matches the robustness sweep's constants.
const MIN_FILL: f64 = 0.5;
const MIN_COVERAGE: f64 = 0.25;
const FAULT_SEED: u64 = 0xfa17;

#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    /// Window-level AUC per detector, keyed `"algo/feature@period"`.
    detector_aucs: Vec<(String, f64)>,
    /// 6-detector RHMD pool: program-level sensitivity on clean streams.
    rhmd_clean_sensitivity: f64,
    /// Worst program-level sensitivity across the fault grid.
    rhmd_worst_fault_sensitivity: f64,
    /// Clean minus worst — the headline robustness number.
    rhmd_sensitivity_drop: f64,
}

fn fault_grid() -> Vec<FaultConfig> {
    vec![
        FaultConfig::noise(0.05),
        FaultConfig::noise(0.2),
        FaultConfig::dropping(0.1),
        FaultConfig::dropping(0.3),
        FaultConfig::multiplexed(0.25),
        FaultConfig::bursty(0.05, 4),
        FaultConfig::saturating(12),
        FaultConfig::wrapping(12),
    ]
}

fn compute() -> Golden {
    let exp = Experiment::with_config(CorpusConfig::tiny());
    let engine = Evaluator::builder(&exp.traced, exp.config.seed)
        .pool(Pool::available())
        .build();

    // Detector AUC grid: every base algorithm on every feature kind.
    let mut detector_aucs = Vec::new();
    for kind in FeatureKind::ALL {
        let spec = exp.spec(kind, 10_000);
        let test = engine.window_dataset(&exp.splits.attacker_test, &spec);
        for algorithm in [Algorithm::Lr, Algorithm::Dt, Algorithm::Svm, Algorithm::Nn, Algorithm::Rf]
        {
            let train = engine.window_dataset(&exp.splits.victim_train, &spec);
            let hmd = Hmd::train_on_dataset(algorithm, spec.clone(), &exp.trainer, &train);
            let roc_auc = auc(&score_all(hmd.model(), &test), test.labels());
            detector_aucs.push((format!("{algorithm}/{}", spec.label()), roc_auc));
        }
    }

    // The 6-detector RHMD pool under the robustness fault grid.
    let rhmd = build_pool(
        Algorithm::Lr,
        pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &exp.opcodes),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
        0x5eed,
    );
    let policy = VerdictPolicy::majority();
    let measure = |config: FaultConfig| {
        engine
            .degraded_quality(
                &exp.splits.attacker_test,
                config,
                &policy,
                MIN_COVERAGE,
                |i| FAULT_SEED ^ i as u64,
                |_, subs| {
                    Detector::quorum(&rhmd, subs.into(), MIN_FILL, &mut StreamRng::from_seed(rhmd.seed()))
                },
            )
            .sensitivity
    };
    let clean = measure(FaultConfig::none());
    let worst = fault_grid()
        .into_iter()
        .map(measure)
        .fold(f64::INFINITY, f64::min);

    Golden {
        detector_aucs,
        rhmd_clean_sensitivity: clean,
        rhmd_worst_fault_sensitivity: worst,
        rhmd_sensitivity_drop: clean - worst,
    }
}

#[test]
fn golden_numbers_match_checked_in_values() {
    let actual = compute();
    if std::env::var_os("RHMD_GOLDEN_WRITE").is_some() {
        let json = serde_json::to_string_pretty(&actual).expect("serialize golden");
        std::fs::write(GOLDEN_PATH, json + "\n").expect("write golden file");
        eprintln!("[golden] regenerated {GOLDEN_PATH}");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing {GOLDEN_PATH} ({e}); regenerate with RHMD_GOLDEN_WRITE=1")
    });
    let expected: Golden = serde_json::from_str(&text).expect("parse golden file");

    assert_eq!(
        actual.detector_aucs.len(),
        expected.detector_aucs.len(),
        "detector grid changed shape; regenerate the golden file if intended"
    );
    for ((name_a, auc_a), (name_e, auc_e)) in
        actual.detector_aucs.iter().zip(&expected.detector_aucs)
    {
        assert_eq!(name_a, name_e, "detector grid order changed");
        assert!(
            (auc_a - auc_e).abs() <= TOLERANCE,
            "{name_a}: AUC {auc_a} drifted from golden {auc_e} by {:e}",
            (auc_a - auc_e).abs()
        );
    }
    for (what, a, e) in [
        ("clean sensitivity", actual.rhmd_clean_sensitivity, expected.rhmd_clean_sensitivity),
        (
            "worst fault sensitivity",
            actual.rhmd_worst_fault_sensitivity,
            expected.rhmd_worst_fault_sensitivity,
        ),
        ("sensitivity drop", actual.rhmd_sensitivity_drop, expected.rhmd_sensitivity_drop),
    ] {
        assert!(
            (a - e).abs() <= TOLERANCE,
            "RHMD {what}: {a} drifted from golden {e} by {:e}",
            (a - e).abs()
        );
    }
}
