//! Extension experiments beyond the paper's figures:
//!
//! * **Ext 1** — deterministic ensemble (§9.1's baseline) vs RHMD vs the
//!   non-stationary RHMD sketched in §8.3, under the same reverse-engineer +
//!   evade attack.
//! * **Ext 2** — an unsupervised (Tang et al.-style) anomaly detector as the
//!   victim: trained on benign behaviour only, attacked the same way.

use crate::context::Experiment;
use crate::report::Table;
use rhmd_core::detector::Epoch;
use rhmd_core::ensemble::{Combiner, EnsembleHmd};
use rhmd_core::evasion::{evade_corpus, plan_evasion, EvasionConfig};
use rhmd_core::hmd::{BlackBox, Hmd, ProgramVerdict};
use rhmd_core::retrain::detection_quality;
use rhmd_core::reveng;
use rhmd_core::rhmd::{pool_specs, NonStationaryRhmd, ResilientHmd};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{aggregate_with_gaps, RawWindow, SUBWINDOW};
use rhmd_ml::anomaly::{AnomalyConfig, GaussianAnomaly};
use rhmd_ml::model::Classifier;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};

/// Ext 1: one attack, three defender organisations.
pub fn ext_ensemble_vs_rhmd(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Ext 1",
        "deterministic ensemble vs RHMD vs non-stationary RHMD under the same attack \
         (paper §9.1: ensembles are deterministic, hence evadable)",
        &[
            "defender",
            "sens",
            "spec",
            "agreement",
            "detected @2",
            "detected @5",
        ],
    );
    let base_detectors: Vec<Hmd> = pool_specs(&FeatureKind::ALL, &[10_000], &exp.opcodes)
        .into_iter()
        .map(|spec| {
            Hmd::train(
                Algorithm::Lr,
                spec,
                &exp.trainer,
                &exp.traced,
                &exp.splits.victim_train,
            )
        })
        .collect();
    let candidates: Vec<Hmd> = pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &exp.opcodes)
        .into_iter()
        .map(|spec| {
            Hmd::train(
                Algorithm::Lr,
                spec,
                &exp.trainer,
                &exp.traced,
                &exp.splits.victim_train,
            )
        })
        .collect();

    let mut defenders: Vec<(String, Box<dyn BlackBox>)> = vec![
        (
            "ensemble (majority)".into(),
            Box::new(EnsembleHmd::new(base_detectors.clone(), Combiner::Majority)),
        ),
        (
            "RHMD (3 detectors)".into(),
            Box::new(ResilientHmd::new(base_detectors, 0xe1)),
        ),
        (
            "non-stationary (3 of 6)".into(),
            Box::new(NonStationaryRhmd::new(candidates, 3, 8, 0xe2)),
        ),
    ];

    let malware = exp.test_malware();
    for (name, defender) in &mut defenders {
        let quality = detection_quality(defender.as_mut(), &exp.traced, &exp.splits.attacker_test);
        // Attack: the paper's strongest practical attacker — NN surrogate
        // over the union of features, then least-weight injection.
        let surrogate = reveng::reverse_engineer(
            defender.as_mut(),
            &exp.traced,
            &exp.splits.attacker_train,
            exp.combined_spec(&FeatureKind::ALL, 10_000),
            Algorithm::Nn,
            &TrainerConfig::with_seed(0xe3),
        );
        let agreement =
            reveng::agreement(defender.as_mut(), &surrogate, &exp.traced, &exp.splits.attacker_test);
        let mut cells = vec![
            name.clone(),
            Table::pct(quality.sensitivity_unmodified),
            Table::pct(quality.specificity),
            Table::pct(agreement),
        ];
        for count in [2usize, 5] {
            let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(count));
            let trial = evade_corpus(defender.as_mut(), &exp.traced, &malware, &plan);
            cells.push(Table::pct(trial.detection_rate()));
        }
        table.push_row(cells);
    }
    table
}

/// An anomaly-detector-backed HMD: benign-only training, same query surface.
struct AnomalyHmd {
    spec: FeatureSpec,
    model: GaussianAnomaly,
}

impl BlackBox for AnomalyHmd {
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch> {
        let span = (self.spec.period / SUBWINDOW) as usize;
        aggregate_with_gaps(subwindows, self.spec.period, 1.0)
            .iter()
            .map(|w| Epoch {
                vote: Some(self.model.predict(&self.spec.project(w))),
                span,
            })
            .collect()
    }
}

/// Ext 2: the unsupervised detector under the standard attack chain.
pub fn ext_anomaly_detector(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Ext 2",
        "unsupervised anomaly HMD (benign-only training) under reverse-engineering + evasion",
        &["feature", "sens", "spec", "agreement", "detected @2"],
    );
    let labels = exp.traced.corpus().labels();
    let benign_train: Vec<usize> = exp
        .splits
        .victim_train
        .iter()
        .copied()
        .filter(|&i| !labels[i])
        .collect();
    let malware = exp.test_malware();
    exp.traced.prefetch(&benign_train);
    for kind in FeatureKind::ALL {
        let spec = exp.spec(kind, 10_000);
        let benign_rows: Vec<Vec<f64>> = benign_train
            .iter()
            .flat_map(|&i| exp.traced.program_vectors(i, &spec))
            .collect();
        let model = GaussianAnomaly::fit(&AnomalyConfig::default(), &benign_rows);
        let mut victim = AnomalyHmd {
            spec: spec.clone(),
            model,
        };
        let quality = detection_quality(&mut victim, &exp.traced, &exp.splits.attacker_test);

        let surrogate = reveng::reverse_engineer(
            &mut victim,
            &exp.traced,
            &exp.splits.attacker_train,
            spec,
            Algorithm::Nn,
            &TrainerConfig::with_seed(0xe4),
        );
        let agreement =
            reveng::agreement(&mut victim, &surrogate, &exp.traced, &exp.splits.attacker_test);
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(2));
        let trial = evade_corpus(&mut victim, &exp.traced, &malware, &plan);
        table.push_row(vec![
            kind.to_string(),
            Table::pct(quality.sensitivity_unmodified),
            Table::pct(quality.specificity),
            Table::pct(agreement),
            Table::pct(trial.detection_rate()),
        ]);
    }
    table
}

/// Ext 3: does a high-complexity deterministic model (RF) help? Theorem 1's
/// discussion says no — it reverse-engineers like anything deterministic.
pub fn ext_random_forest_victim(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Ext 3",
        "random-forest victim (paper §8.2: complexity raises attack cost, not the outcome)",
        &["surrogate", "agreement", "detected @0", "detected @3"],
    );
    let spec = exp.spec(FeatureKind::Instructions, 10_000);
    let mut victim = Hmd::train(
        Algorithm::Rf,
        spec.clone(),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    );
    let malware = exp.test_malware();
    for surrogate_algo in [Algorithm::Nn, Algorithm::Rf, Algorithm::Lr] {
        let surrogate = reveng::reverse_engineer(
            &mut victim,
            &exp.traced,
            &exp.splits.attacker_train,
            spec.clone(),
            surrogate_algo,
            &TrainerConfig::with_seed(0xe5),
        );
        let agreement =
            reveng::agreement(&mut victim, &surrogate, &exp.traced, &exp.splits.attacker_test);
        // Evasion plan: RF surrogates are opaque; NN/LR surrogates expose
        // weights. This is exactly why the attacker trains a *differentiable*
        // surrogate of a non-differentiable victim.
        let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(3));
        let before = {
            let empty = rhmd_trace::inject::InjectionPlan::new(
                vec![],
                rhmd_trace::inject::Placement::EveryBlock,
            );
            evade_corpus(&mut victim, &exp.traced, &malware, &empty).detection_rate()
        };
        let trial = evade_corpus(&mut victim, &exp.traced, &malware, &plan);
        table.push_row(vec![
            surrogate_algo.to_string(),
            Table::pct(agreement),
            Table::pct(before),
            Table::pct(trial.detection_rate()),
        ]);
    }
    table
}

/// Ext 4: dormant ("slow-start") malware — the §2 boundary case where
/// malware runs benign-looking code before its payload. Modelled by splicing
/// a benign program's windows in front of a malware trace and measuring both
/// the whole-trace verdict and the detection latency (first window index at
/// which the running flag-rate majority flips to malware).
pub fn ext_dormant_malware(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Ext 4",
        "dormant malware: benign prefix spliced before the payload (RHMD, majority verdict)",
        &[
            "benign prefix",
            "detected (whole trace)",
            "mean detection latency (windows)",
        ],
    );
    let mut rhmd = crate::figures::resilient::pool(exp, &FeatureKind::ALL, &[10_000]);
    let labels = exp.traced.corpus().labels();
    let malware: Vec<usize> = exp.test_malware();
    let benign: Vec<usize> = exp
        .splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| !labels[i])
        .collect();

    exp.traced.prefetch(&malware);
    exp.traced.prefetch(&benign[..malware.len().min(benign.len())]);
    for prefix_fraction in [0.0f64, 0.25, 0.5, 0.75] {
        let mut detected = 0usize;
        let mut latency_sum = 0usize;
        let mut latency_count = 0usize;
        for (k, &mi) in malware.iter().enumerate() {
            let mal_subs = exp.traced.subwindows(mi);
            let bi = benign[k % benign.len()];
            let prefix_len =
                ((mal_subs.len() as f64) * prefix_fraction) as usize;
            let mut spliced: Vec<RawWindow> =
                exp.traced.subwindows(bi)[..prefix_len.min(exp.traced.subwindows(bi).len())]
                    .to_vec();
            spliced.extend_from_slice(mal_subs);

            rhmd.reset();
            let stream = rhmd.label_subwindows(&spliced);
            let verdict = ProgramVerdict::from_decisions(&stream);
            if verdict.is_malware() {
                detected += 1;
            }
            // Detection latency: first index where the cumulative majority
            // flips.
            let mut flagged = 0usize;
            for (idx, &d) in stream.iter().enumerate() {
                if d {
                    flagged += 1;
                }
                if 2 * flagged > idx + 1 {
                    latency_sum += idx / 10; // subwindows → 10K windows
                    latency_count += 1;
                    break;
                }
            }
        }
        table.push_row(vec![
            format!("{:.0}%", 100.0 * prefix_fraction),
            Table::pct(detected as f64 / malware.len().max(1) as f64),
            if latency_count == 0 {
                "-".to_owned()
            } else {
                format!("{:.1}", latency_sum as f64 / latency_count as f64)
            },
        ]);
    }
    table
}

#[allow(dead_code)]
fn verdict_of(detector: &mut dyn BlackBox, subs: &[RawWindow]) -> bool {
    ProgramVerdict::from_decisions(&detector.label_subwindows(subs)).is_malware()
}
