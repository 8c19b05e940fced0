//! Minimal-overhead evasion planning.
//!
//! The paper's threat model (§2) makes overhead the attacker's budget:
//! malware monetized per unit of work cannot afford arbitrary slowdown.
//! This module models the attacker's natural optimization — *the smallest
//! payload that the surrogate predicts will cross the boundary* — by
//! analytically predicting the post-injection Instructions feature vector
//! instead of paying for a full rewrite + re-trace per candidate payload.

use crate::evasion::{plan_evasion_at, EvasionConfig, Strategy};
use crate::hmd::Hmd;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_trace::inject::{InjectionPlan, Placement};
use serde::{Deserialize, Serialize};

/// Predicted post-injection Instructions feature vector.
///
/// Block-level injection of `count` instructions into blocks of mean
/// dynamic length `block_len` dilutes every original frequency by
/// `1 - f` and adds `f · payload_share` to each injected opcode, where
/// `f = count / (count + block_len)` is the injected fraction of the
/// committed stream.
///
/// # Panics
///
/// Panics if the spec's first kind is not Instructions or dimensions
/// mismatch.
pub fn predict_injected_vector(
    spec: &FeatureSpec,
    original: &[f64],
    payload: &[rhmd_trace::Opcode],
    block_len: f64,
) -> Vec<f64> {
    assert_eq!(
        spec.kinds.first(),
        Some(&FeatureKind::Instructions),
        "analytic prediction covers the Instructions feature"
    );
    assert_eq!(original.len(), spec.dims(), "vector does not match spec");
    if payload.is_empty() {
        return original.to_vec();
    }
    let f = payload.len() as f64 / (payload.len() as f64 + block_len.max(1.0));
    let mut predicted: Vec<f64> = original.iter().map(|v| v * (1.0 - f)).collect();
    let share = f / payload.len() as f64;
    for op in payload {
        if let Some(pos) = spec.opcodes.iter().position(|o| o == op) {
            predicted[pos] += share;
        }
    }
    predicted
}

/// Outcome of the minimal-payload search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimalEvasion {
    /// Smallest per-block payload predicted to evade, if any within budget.
    pub count: Option<usize>,
    /// The plan at that count (least-weight strategy).
    pub plan: Option<InjectionPlan>,
    /// Predicted dynamic overhead `count / block_len` at the chosen count.
    pub predicted_overhead: f64,
    /// Fraction of malware windows the surrogate predicts benign at the
    /// chosen count.
    pub predicted_evasion: f64,
}

/// Searches payload sizes `1..=max_count` for the smallest one whose
/// predicted post-injection windows the surrogate classifies benign at
/// rate ≥ `target` (the program-level majority needs just over 0.5).
///
/// `malware_windows` are the attacker's own malware feature vectors under
/// the surrogate's spec; `block_len` the mean dynamic basic-block length of
/// the malware (observable by the attacker from its own binaries).
pub fn minimal_evasion(
    surrogate: &Hmd,
    malware_windows: &[Vec<f64>],
    reference: Option<&[f64]>,
    block_len: f64,
    max_count: usize,
    target: f64,
) -> MinimalEvasion {
    let spec = surrogate.spec();
    for count in 1..=max_count {
        let plan = plan_evasion_at(
            surrogate,
            &EvasionConfig {
                strategy: Strategy::LeastWeight,
                count,
                placement: Placement::EveryBlock,
                seed: 0x0b1,
            },
            reference,
        );
        let benign = malware_windows
            .iter()
            .filter(|w| {
                let predicted = predict_injected_vector(spec, w, plan.payload(), block_len);
                !surrogate.model().predict(&predicted)
            })
            .count();
        let rate = benign as f64 / malware_windows.len().max(1) as f64;
        if rate >= target {
            return MinimalEvasion {
                count: Some(count),
                predicted_overhead: count as f64 / block_len.max(1.0),
                predicted_evasion: rate,
                plan: Some(plan),
            };
        }
    }
    MinimalEvasion {
        count: None,
        plan: None,
        predicted_overhead: max_count as f64 / block_len.max(1.0),
        predicted_evasion: 0.0,
    }
}

/// Mean dynamic basic-block length of a program (committed instructions per
/// block entered), measured from one bounded execution.
pub fn mean_block_len(program: &rhmd_trace::Program) -> f64 {
    let mut sink = rhmd_trace::exec::CountingSink::default();
    let summary = program.execute(
        rhmd_trace::exec::ExecLimits::instructions(20_000),
        &mut sink,
    );
    if summary.blocks == 0 {
        1.0
    } else {
        summary.instructions as f64 / summary.blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_trace::isa::Opcode;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits, FeatureSpec) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let opcodes = traced.select_opcodes(&splits.victim_train, 12);
        let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes);
        (traced, splits, spec)
    }

    #[test]
    fn prediction_preserves_normalization() {
        let spec = FeatureSpec::new(
            FeatureKind::Instructions,
            10_000,
            vec![Opcode::Add, Opcode::Xor],
        );
        let original = vec![0.3, 0.1];
        let predicted = predict_injected_vector(&spec, &original, &[Opcode::Add], 9.0);
        // f = 1/10: frequencies shrink by 0.9, Add gains the full share.
        assert!((predicted[0] - (0.27 + 0.1)).abs() < 1e-12);
        assert!((predicted[1] - 0.09).abs() < 1e-12);
    }

    #[test]
    fn empty_payload_is_identity() {
        let spec = FeatureSpec::new(FeatureKind::Instructions, 10_000, vec![Opcode::Add]);
        let original = vec![0.4];
        assert_eq!(
            predict_injected_vector(&spec, &original, &[], 8.0),
            original
        );
    }

    #[test]
    fn minimal_count_exists_and_is_small_for_lr() {
        let (traced, splits, spec) = fixture();
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let surrogate = crate::reveng::reverse_engineer(
            &mut victim,
            &traced,
            &splits.attacker_train,
            spec.clone(),
            Algorithm::Lr,
            &TrainerConfig::with_seed(1),
        );
        let labels = traced.corpus().labels();
        let windows: Vec<Vec<f64>> = splits
            .attacker_train
            .iter()
            .filter(|&&i| labels[i])
            .flat_map(|&i| traced.program_vectors(i, &spec))
            .collect();
        let block_len = mean_block_len(traced.corpus().program(0));
        let result = minimal_evasion(&surrogate, &windows, None, block_len, 10, 0.6);
        let count = result.count.expect("LR should be evadable within 10");
        assert!(count <= 5, "minimal count {count}");
        assert!(result.predicted_overhead < 1.0);
        assert!(result.predicted_evasion >= 0.6);
    }

    #[test]
    fn mean_block_len_is_plausible() {
        let (traced, _, _) = fixture();
        let len = mean_block_len(traced.corpus().program(0));
        assert!((2.0..30.0).contains(&len), "block len {len}");
    }
}
