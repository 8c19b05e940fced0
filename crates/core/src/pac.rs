//! Empirical instantiation of the paper's PAC-learnability analysis (§8).
//!
//! Theorem 1 bounds the best achievable error of any attacker learning the
//! randomized detector's decision distribution `Q_p`:
//!
//! ```text
//! min_i Σ_{j≠i} p_j · Δ_{i,j}   ≤   e_{p,H}   ≤   2 · max_i e(h_i)
//! ```
//!
//! where `Δ_{i,j}` is the disagreement probability of base detectors `i` and
//! `j`, `p` the selection distribution, and `e(h_i)` the base detectors'
//! errors. This module measures all three quantities on the synthetic
//! corpus so experiments can check that reverse-engineering error lands
//! inside the predicted band.

use crate::hmd::{BlackBox, Hmd};
use rhmd_data::TracedCorpus;
use serde::{Deserialize, Serialize};

/// Per-subwindow decision streams of each base detector over a program set.
fn decision_streams(
    detectors: &[Hmd],
    traced: &TracedCorpus,
    indices: &[usize],
) -> Vec<Vec<bool>> {
    traced.prefetch(indices);
    detectors
        .iter()
        .map(|d| {
            let mut det = d.clone();
            let mut stream = Vec::new();
            for &i in indices {
                stream.extend(det.label_subwindows(traced.subwindows(i)));
            }
            stream
        })
        .collect()
}

/// Pairwise disagreement matrix `Δ_{i,j}` of the base detectors, measured at
/// subwindow granularity over the given programs.
///
/// Streams are truncated to the shortest detector's coverage so every
/// comparison is apples-to-apples.
pub fn disagreement_matrix(
    detectors: &[Hmd],
    traced: &TracedCorpus,
    indices: &[usize],
) -> Vec<Vec<f64>> {
    let streams = decision_streams(detectors, traced, indices);
    let len = streams.iter().map(Vec::len).min().unwrap_or(0);
    let n = detectors.len();
    let mut delta = vec![vec![0.0; n]; n];
    if len == 0 {
        return delta;
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let disagreements = streams[i][..len]
                .iter()
                .zip(&streams[j][..len])
                .filter(|(a, b)| a != b)
                .count();
            let d = disagreements as f64 / len as f64;
            delta[i][j] = d;
            delta[j][i] = d;
        }
    }
    delta
}

/// Ground-truth error `e(h_i)` of each base detector at subwindow
/// granularity over the given programs.
pub fn base_errors(detectors: &[Hmd], traced: &TracedCorpus, indices: &[usize]) -> Vec<f64> {
    traced.prefetch(indices);
    let labels = traced.corpus().labels();
    detectors
        .iter()
        .map(|d| {
            let mut det = d.clone();
            let mut wrong = 0usize;
            let mut total = 0usize;
            for &i in indices {
                let stream = det.label_subwindows(traced.subwindows(i));
                wrong += stream.iter().filter(|&&dec| dec != labels[i]).count();
                total += stream.len();
            }
            if total == 0 {
                0.0
            } else {
                wrong as f64 / total as f64
            }
        })
        .collect()
}

/// The Theorem 1 band for the attacker's achievable error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Theorem1Band {
    /// `min_i Σ_{j≠i} p_j · Δ_{i,j}` — no surrogate can do better than this.
    pub lower: f64,
    /// `2 · max_i e(h_i)` — a surrogate at least this good always exists.
    pub upper: f64,
}

/// Computes the Theorem 1 band from a disagreement matrix, selection
/// probabilities, and base-detector errors.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or `probabilities` is not a
/// distribution.
pub fn theorem1_band(
    delta: &[Vec<f64>],
    probabilities: &[f64],
    errors: &[f64],
) -> Theorem1Band {
    let n = delta.len();
    assert!(n > 0, "need at least one detector");
    assert_eq!(probabilities.len(), n, "one probability per detector");
    assert_eq!(errors.len(), n, "one error per detector");
    assert!(
        (probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "probabilities must sum to 1"
    );
    let lower = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i)
                .map(|j| probabilities[j] * delta[i][j])
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min);
    let upper = 2.0 * errors.iter().copied().fold(0.0, f64::max);
    Theorem1Band { lower, upper }
}

/// The RHMD's baseline (no-attack) error: `Σ_i p_i · e(h_i)` — the paper's
/// observation that randomization costs the average of the base detectors'
/// accuracies (§7).
pub fn pool_baseline_error(probabilities: &[f64], errors: &[f64]) -> f64 {
    probabilities
        .iter()
        .zip(errors)
        .map(|(p, e)| p * e)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::{FeatureKind, FeatureSpec};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits, Vec<Hmd>) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let detectors: Vec<Hmd> = [FeatureKind::Memory, FeatureKind::Architectural]
            .into_iter()
            .map(|kind| {
                Hmd::train(
                    Algorithm::Lr,
                    FeatureSpec::new(kind, 5_000, vec![]),
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        (traced, splits, detectors)
    }

    #[test]
    fn disagreement_is_symmetric_with_zero_diagonal() {
        let (traced, splits, detectors) = fixture();
        let delta = disagreement_matrix(&detectors, &traced, &splits.attacker_test);
        for (i, row) in delta.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, delta[j][i]);
                assert!((0.0..=1.0).contains(cell));
            }
        }
    }

    #[test]
    fn diverse_detectors_disagree() {
        let (traced, splits, detectors) = fixture();
        let delta = disagreement_matrix(&detectors, &traced, &splits.attacker_test);
        assert!(delta[0][1] > 0.01, "diverse detectors should disagree: {delta:?}");
    }

    #[test]
    fn identical_detectors_never_disagree() {
        let (traced, splits, detectors) = fixture();
        let twins = vec![detectors[0].clone(), detectors[0].clone()];
        let delta = disagreement_matrix(&twins, &traced, &splits.attacker_test);
        assert_eq!(delta[0][1], 0.0);
    }

    #[test]
    fn band_orders_correctly() {
        let (traced, splits, detectors) = fixture();
        let delta = disagreement_matrix(&detectors, &traced, &splits.attacker_test);
        let errors = base_errors(&detectors, &traced, &splits.attacker_test);
        let p = vec![0.5, 0.5];
        let band = theorem1_band(&delta, &p, &errors);
        assert!(band.lower >= 0.0);
        assert!(band.upper >= band.lower, "band {band:?}");
        let baseline = pool_baseline_error(&p, &errors);
        assert!((0.0..=1.0).contains(&baseline));
    }

    #[test]
    fn paper_worked_example() {
        // Paper §8.2: randomizing two classifiers of error 0.2 and 0.1 with
        // p = (0.5, 0.5) puts e_{p,H} in [0.15, 0.4]. Disagreement of the
        // two is at least |0.2-0.1| = 0.1 and at most 0.3; take 0.3 for the
        // worked bound.
        let delta = vec![vec![0.0, 0.3], vec![0.3, 0.0]];
        let errors = vec![0.2, 0.1];
        let band = theorem1_band(&delta, &[0.5, 0.5], &errors);
        assert!((band.lower - 0.15).abs() < 1e-12);
        assert!((band.upper - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn band_rejects_bad_distribution() {
        let delta = vec![vec![0.0]];
        let _ = theorem1_band(&delta, &[0.5], &[0.1]);
    }
}
