//! Ablations beyond the paper's figures, probing the design choices
//! DESIGN.md §5 calls out.

use crate::context::Experiment;
use crate::report::Table;
use rhmd_core::evasion::{evade_corpus, plan_evasion, EvasionConfig, Strategy};
use rhmd_core::hmd::Hmd;
use rhmd_core::pac::{base_errors, disagreement_matrix, pool_baseline_error, theorem1_band};
use rhmd_core::reveng::{attack, reverse_engineer};
use rhmd_core::rhmd::{pool_specs, ResilientHmd};
use rhmd_features::vector::FeatureKind;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::inject::Placement;

/// Ablation A: evasion against each single-feature detector, including the
/// Memory detector (controlled-stride loads) and the Architectural detector
/// (nop dilution) — the paper only exercises the Instructions feature.
pub fn ablation_feature_evasion(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Abl A",
        "surrogate-guided evasion per feature kind (extension: paper only injects vs Instructions)",
        &["feature", "agreement", "detected @0", "detected @2", "detected @5"],
    );
    let malware = exp.test_malware();
    for kind in FeatureKind::ALL {
        let spec = exp.spec(kind, 10_000);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &exp.trainer,
            &exp.traced,
            &exp.splits.victim_train,
        );
        let surrogate = reverse_engineer(
            &mut victim,
            &exp.traced,
            &exp.splits.attacker_train,
            spec,
            Algorithm::Lr,
            &TrainerConfig::with_seed(0xab1),
        );
        let fidelity =
            rhmd_core::reveng::agreement(&mut victim, &surrogate, &exp.traced, &exp.splits.attacker_test);
        let mut cells = vec![kind.to_string(), Table::pct(fidelity)];
        for count in [0usize, 2, 5] {
            if count == 0 {
                let plan =
                    rhmd_trace::inject::InjectionPlan::new(vec![], Placement::EveryBlock);
                let trial = evade_corpus(&mut victim, &exp.traced, &malware, &plan);
                cells.push(Table::pct(trial.detection_rate()));
            } else {
                let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(count));
                let trial = evade_corpus(&mut victim, &exp.traced, &malware, &plan);
                cells.push(Table::pct(trial.detection_rate()));
            }
        }
        table.push_row(cells);
    }
    table
}

/// Ablation B: the Theorem-1 accuracy-vs-resilience trade-off as the
/// selection probabilities shift between an accurate and a diverse detector.
pub fn ablation_probability_tradeoff(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Abl B",
        "RHMD selection-probability trade-off: baseline error vs attacker lower bound (Thm 1)",
        &["p(best detector)", "baseline error", "attacker lower bound"],
    );
    let specs = pool_specs(
        &[FeatureKind::Architectural, FeatureKind::Memory],
        &[10_000],
        &exp.opcodes,
    );
    let detectors: Vec<Hmd> = specs
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
    let delta = disagreement_matrix(&detectors, &exp.traced, &exp.splits.attacker_test);
    let errors = base_errors(&detectors, &exp.traced, &exp.splits.attacker_test);
    for p_best in [1.0, 0.9, 0.75, 0.5, 0.25, 0.0] {
        let probs = vec![p_best, 1.0 - p_best];
        let band = theorem1_band(&delta, &probs, &errors);
        table.push_row(vec![
            format!("{p_best:.2}"),
            Table::pct(pool_baseline_error(&probs, &errors)),
            Table::pct(band.lower),
        ]);
    }
    table
}

/// Ablation C: RHMD switching granularity — per-epoch switching (the paper's
/// design) vs committing to one random detector per program.
pub fn ablation_switching(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Abl C",
        "RHMD switching granularity under least-weight evasion (per-epoch vs per-program draw)",
        &["strategy", "detected @2 (per-epoch)", "detected @2 (per-program)"],
    );
    let specs = pool_specs(&FeatureKind::ALL, &[10_000], &exp.opcodes);
    let detectors: Vec<Hmd> = specs
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
    let malware = exp.test_malware();

    let mut per_epoch = ResilientHmd::new(detectors.clone(), 0xc0);
    let surrogate = reverse_engineer(
        &mut per_epoch,
        &exp.traced,
        &exp.splits.attacker_train,
        exp.spec(FeatureKind::Instructions, 10_000),
        Algorithm::Nn,
        &TrainerConfig::with_seed(0xab3),
    );

    for strategy in [Strategy::LeastWeight, Strategy::Weighted] {
        let plan = plan_evasion(
            &surrogate,
            &EvasionConfig {
                strategy,
                count: 2,
                placement: Placement::EveryBlock,
                seed: 0xab4,
            },
        );
        per_epoch.reset();
        let epoch_trial = evade_corpus(&mut per_epoch, &exp.traced, &malware, &plan);

        // Per-program: a fresh single-detector draw per program, emulated by
        // asking each base detector alone and averaging over the uniform
        // draw.
        let mut detected_before = 0.0;
        let mut detected_after = 0.0;
        for hmd in &detectors {
            let mut solo = hmd.clone();
            let trial = evade_corpus(&mut solo, &exp.traced, &malware, &plan);
            detected_before += trial.initially_detected as f64;
            detected_after += trial.detected_after as f64;
        }
        let program_rate = if detected_before == 0.0 {
            1.0
        } else {
            detected_after / detected_before
        };
        table.push_row(vec![
            strategy.to_string(),
            Table::pct(epoch_trial.detection_rate()),
            Table::pct(program_rate),
        ]);
    }
    table
}

/// Ablation E: the attacker's minimum payload — smallest per-block count the
/// surrogate predicts will evade, its predicted overhead, and the measured
/// detection when that exact plan is applied (paper §2 frames overhead as
/// the attacker's budget).
pub fn ablation_minimal_overhead(exp: &Experiment) -> Table {
    use rhmd_core::optimizer::{mean_block_len, minimal_evasion};
    let mut table = Table::new(
        "Abl E",
        "minimal evasion payload per victim family (predicted by the surrogate, then validated)",
        &[
            "victim",
            "min count",
            "predicted overhead",
            "predicted evasion",
            "measured detection",
        ],
    );
    let spec = exp.spec(FeatureKind::Instructions, 10_000);
    let labels = exp.traced.corpus().labels();
    let attacker_malware: Vec<usize> = exp
        .splits
        .attacker_train
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    exp.traced.prefetch(&attacker_malware);
    let windows: Vec<Vec<f64>> = attacker_malware
        .iter()
        .flat_map(|&i| exp.traced.program_vectors(i, &spec))
        .collect();
    let block_len = {
        let malware = exp.test_malware();
        let lens: Vec<f64> = malware
            .iter()
            .take(16)
            .map(|&i| mean_block_len(exp.traced.corpus().program(i)))
            .collect();
        lens.iter().sum::<f64>() / lens.len().max(1) as f64
    };
    let centroid: Vec<f64> = {
        let mut sum = vec![0.0; spec.dims()];
        for w in &windows {
            for (s, x) in sum.iter_mut().zip(w) {
                *s += x;
            }
        }
        sum.iter().map(|s| s / windows.len().max(1) as f64).collect()
    };
    for algo in [Algorithm::Lr, Algorithm::Nn, Algorithm::Rf] {
        let mut victim = Hmd::train(
            algo,
            spec.clone(),
            &exp.trainer,
            &exp.traced,
            &exp.splits.victim_train,
        );
        let surrogate = rhmd_core::reveng::reverse_engineer_validated(
            &mut victim,
            &exp.traced,
            &exp.splits.attacker_train,
            spec.clone(),
            if algo == Algorithm::Lr { Algorithm::Lr } else { Algorithm::Nn },
            &TrainerConfig::with_seed(0xab6),
            3,
        );
        let result = minimal_evasion(&surrogate, &windows, Some(&centroid), block_len, 12, 0.6);
        let (count_cell, detection_cell) = match (&result.count, &result.plan) {
            (Some(count), Some(plan)) => {
                let malware = exp.test_malware();
                let trial = evade_corpus(&mut victim, &exp.traced, &malware, plan);
                (count.to_string(), Table::pct(trial.detection_rate()))
            }
            _ => ("-".to_owned(), "-".to_owned()),
        };
        table.push_row(vec![
            algo.to_string(),
            count_cell,
            Table::pct(result.predicted_overhead),
            Table::pct(result.predicted_evasion),
            detection_cell,
        ]);
    }
    table
}

/// Ablation F: program-verdict policy under the Fig 16 attack — majority
/// voting vs a benign-calibrated flag-rate threshold (10% program-level FP
/// budget). Which rule is more evasion-resilient depends on the base
/// detectors' specificity: with noisy benign flag rates the calibrated
/// threshold lands *above* ½ and is stricter than majority.
pub fn ablation_verdict_policy(exp: &Experiment) -> Table {
    use rhmd_core::hmd::{BlackBox, ProgramVerdict};
    use rhmd_core::verdict::VerdictPolicy;
    let mut table = Table::new(
        "Abl F",
        "RHMD program verdicts under Instructions-feature evasion: majority vs calibrated threshold",
        &["injected", "majority", "calibrated"],
    );
    let mut rhmd = crate::figures::resilient::pool(exp, &FeatureKind::ALL, &[10_000]);
    let labels = exp.traced.corpus().labels();
    let benign_train: Vec<usize> = exp
        .splits
        .victim_train
        .iter()
        .copied()
        .filter(|&i| !labels[i])
        .collect();
    rhmd.reset();
    let calibrated = VerdictPolicy::calibrated(&mut rhmd, &exp.traced, &benign_train, 0.1)
        .expect("benign training split is non-empty");
    let majority = VerdictPolicy::majority();

    let surrogate = reverse_engineer(
        &mut rhmd,
        &exp.traced,
        &exp.splits.attacker_train,
        exp.spec(FeatureKind::Instructions, 10_000),
        Algorithm::Nn,
        &TrainerConfig::with_seed(0xabf),
    );
    let malware = exp.test_malware();
    exp.traced.prefetch(&malware);
    for count in [0usize, 1, 5, 10] {
        // Trace (possibly rewritten) malware once, judge under both rules.
        let subwindows: Vec<Vec<rhmd_features::window::RawWindow>> = if count == 0 {
            malware
                .iter()
                .map(|&i| exp.traced.subwindows(i).to_vec())
                .collect()
        } else {
            let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(count));
            rhmd_core::retrain::trace_evasive_variants(&exp.traced, &malware, &plan)
        };
        let mut counts = [0usize; 2];
        let mut initially = 0usize;
        for (k, subs) in subwindows.iter().enumerate() {
            rhmd.reset();
            let base_stream = rhmd.label_subwindows(exp.traced.subwindows(malware[k]));
            let initially_detected =
                majority.is_malware(&ProgramVerdict::from_decisions(&base_stream));
            if !initially_detected {
                continue;
            }
            initially += 1;
            rhmd.reset();
            let stream = rhmd.label_subwindows(subs);
            let verdict = ProgramVerdict::from_decisions(&stream);
            if majority.is_malware(&verdict) {
                counts[0] += 1;
            }
            if calibrated.is_malware(&verdict) {
                counts[1] += 1;
            }
        }
        let denom = initially.max(1) as f64;
        table.push_row(vec![
            count.to_string(),
            Table::pct(counts[0] as f64 / denom),
            Table::pct(counts[1] as f64 / denom),
        ]);
    }
    table
}

/// Ablation D: how much of reverse-engineering quality survives when the
/// attacker's query budget (number of attacker-training programs) shrinks.
pub fn ablation_query_budget(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Abl D",
        "surrogate agreement vs attacker query budget (deterministic LR victim)",
        &["attacker programs", "agreement"],
    );
    let spec = exp.spec(FeatureKind::Instructions, 10_000);
    let mut victim = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    );
    let full = exp.splits.attacker_train.clone();
    for frac in [0.1, 0.25, 0.5, 1.0] {
        let take = ((full.len() as f64 * frac).round() as usize).max(2);
        let subset = &full[..take.min(full.len())];
        let (_, report) = attack(
            &mut victim,
            &exp.traced,
            subset,
            &exp.splits.attacker_test,
            spec.clone(),
            Algorithm::Lr,
            &TrainerConfig::with_seed(0xab5),
        );
        table.push_row(vec![take.to_string(), Table::pct(report.agreement)]);
    }
    table
}
