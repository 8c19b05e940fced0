//! Program-level verdict policies.
//!
//! A detector emits one decision per window; deployment needs one verdict
//! per *program*. The paper raises accuracy "by averaging the decisions
//! across multiple intervals" (§8.2) — majority vote. Majority is brittle
//! for randomized pools, though: if an attacker fully evades one of `k`
//! base detectors, the expected flag rate drops by `1/k` and can sink below
//! ½ even though the remaining detectors still fire on every window they
//! judge. A *calibrated* policy instead thresholds the flag rate just above
//! what benign programs produce, so any sustained excess of flagged windows
//! convicts — the natural operating point for a deployed HMD.

use crate::error::RhmdError;
use crate::hmd::{BlackBox, ProgramVerdict, QuorumVerdict};
use rhmd_data::TracedCorpus;
use serde::{Deserialize, Serialize};

/// Outcome of judging a program whose window stream may be partially
/// corrupted: either a decision, or an explicit abstention when too few
/// windows survived to vote.
///
/// Abstention is the graceful-degradation path: a deployment can fall back
/// to a slower software scan instead of trusting a verdict derived from
/// almost no evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedVerdict {
    /// Enough windows voted; `true` means malware.
    Decided(bool),
    /// Coverage fell below the floor — no trustworthy verdict.
    Abstained,
}

impl DegradedVerdict {
    /// `true` only for a positive decision (abstentions are not flags).
    pub fn is_malware(&self) -> bool {
        matches!(self, DegradedVerdict::Decided(true))
    }

    /// Resolves an abstention to a fallback decision.
    pub fn unwrap_or(self, fallback: bool) -> bool {
        match self {
            DegradedVerdict::Decided(d) => d,
            DegradedVerdict::Abstained => fallback,
        }
    }
}

/// A threshold over a program's window flag rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerdictPolicy {
    threshold: f64,
}

impl VerdictPolicy {
    /// The paper's majority vote at threshold ½: malware if *more* than
    /// half the windows flag, since [`VerdictPolicy::is_malware`] is a
    /// strict `>`. An exact 50/50 split therefore acquits here, while
    /// [`ProgramVerdict::is_malware`] (`2 * flagged >= total`) convicts it.
    pub fn majority() -> VerdictPolicy {
        VerdictPolicy { threshold: 0.5 }
    }

    /// An explicit flag-rate threshold in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Config`] if `threshold` is outside `[0, 1]` or
    /// not finite.
    pub fn fixed(threshold: f64) -> Result<VerdictPolicy, RhmdError> {
        if !threshold.is_finite() || !(0.0..=1.0).contains(&threshold) {
            return Err(RhmdError::config(format!(
                "verdict threshold must be in [0, 1], got {threshold}"
            )));
        }
        Ok(VerdictPolicy { threshold })
    }

    /// Calibrates the threshold on benign programs: the verdict fires when a
    /// program's flag rate exceeds the `(1 - fp_budget)` quantile of benign
    /// flag rates (plus a small margin), bounding the program-level false
    /// positive rate by `fp_budget` on the calibration set.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Calibration`] if `benign_indices` is empty or
    /// `fp_budget` is outside `(0, 1)`.
    pub fn calibrated(
        detector: &mut dyn BlackBox,
        traced: &TracedCorpus,
        benign_indices: &[usize],
        fp_budget: f64,
    ) -> Result<VerdictPolicy, RhmdError> {
        if benign_indices.is_empty() {
            return Err(RhmdError::Calibration(
                "no benign calibration programs given".to_string(),
            ));
        }
        if !fp_budget.is_finite() || fp_budget <= 0.0 || fp_budget >= 1.0 {
            return Err(RhmdError::Calibration(format!(
                "false-positive budget must be in (0, 1), got {fp_budget}"
            )));
        }
        traced.prefetch(benign_indices);
        let mut rates: Vec<f64> = benign_indices
            .iter()
            .map(|&i| {
                let stream = detector.label_subwindows(traced.subwindows(i));
                ProgramVerdict::from_decisions(&stream).flag_rate()
            })
            .collect();
        rates.sort_by(|a, b| a.total_cmp(b));
        let idx = (((1.0 - fp_budget) * rates.len() as f64) as usize).min(rates.len() - 1);
        Ok(VerdictPolicy {
            threshold: (rates[idx] + 0.02).min(0.99),
        })
    }

    /// The flag-rate threshold in effect.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Applies the policy to a verdict.
    pub fn is_malware(&self, verdict: &ProgramVerdict) -> bool {
        verdict.flag_rate() > self.threshold
    }

    /// Convenience: runs `detector` over a trace and applies the policy.
    pub fn judge(
        &self,
        detector: &mut dyn BlackBox,
        subwindows: &[rhmd_features::window::RawWindow],
    ) -> bool {
        let stream = detector.label_subwindows(subwindows);
        self.is_malware(&ProgramVerdict::from_decisions(&stream))
    }

    /// Applies the policy to a quorum verdict with degraded-mode fallback.
    ///
    /// The flag rate is computed over *voted* windows only — abstentions
    /// (corrupted or lost windows) neither convict nor acquit. When no
    /// windows voted at all, or coverage falls below `min_coverage`, the
    /// result is [`DegradedVerdict::Abstained`] so callers can escalate
    /// instead of trusting a verdict built on too little evidence.
    ///
    /// Boundary behavior, pinned by tests:
    ///
    /// * **The coverage floor is inclusive.** The abstain check is strict
    ///   `coverage() < min_coverage`, so a quorum at *exactly* the floor
    ///   (e.g. 2 voted of 4 windows with `min_coverage = 0.5`) still
    ///   decides. `min_coverage = 0.0` therefore only abstains on
    ///   zero-voter quorums.
    /// * **Ties acquit.** The decision is strict `flag_rate() >
    ///   threshold`: a flag rate exactly at the threshold (a 50/50 split
    ///   under [`VerdictPolicy::majority`]) is *benign*. Note this is the
    ///   opposite tie rule from [`QuorumVerdict::is_malware`], whose
    ///   `2 * flagged >= voted` convicts ties — callers mixing the two
    ///   paths must not assume they agree on knife-edge programs.
    pub fn judge_quorum(&self, quorum: &QuorumVerdict, min_coverage: f64) -> DegradedVerdict {
        if quorum.lacks_coverage(min_coverage) {
            rhmd_obs::incr("core.verdict.abstained");
            return DegradedVerdict::Abstained;
        }
        rhmd_obs::incr("core.verdict.decided");
        DegradedVerdict::Decided(quorum.flag_rate() > self.threshold)
    }
}

impl Default for VerdictPolicy {
    fn default() -> VerdictPolicy {
        VerdictPolicy::majority()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmd::Hmd;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::{FeatureKind, FeatureSpec};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits, Hmd) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let hmd = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        (traced, splits, hmd)
    }

    #[test]
    fn majority_matches_program_verdict() {
        let policy = VerdictPolicy::majority();
        let v = ProgramVerdict::from_decisions(&[true, true, false]);
        assert!(policy.is_malware(&v));
        let v2 = ProgramVerdict::from_decisions(&[true, false, false, false]);
        assert!(!policy.is_malware(&v2));
        // The two rules part on an exact tie: 2 of 4 flagged acquits under
        // the policy's strict `>` but convicts under `2 * flagged >= total`.
        // Both rules feed published results, so the split is pinned.
        let tie = ProgramVerdict::from_decisions(&[true, false, true, false]);
        assert!(!policy.is_malware(&tie));
        assert!(tie.is_malware());
    }

    #[test]
    fn calibration_bounds_benign_false_positives() {
        let (traced, splits, hmd) = fixture();
        let labels = traced.corpus().labels();
        let benign_train: Vec<usize> = splits
            .victim_train
            .iter()
            .copied()
            .filter(|&i| !labels[i])
            .collect();
        let mut detector = hmd.clone();
        let policy =
            VerdictPolicy::calibrated(&mut detector, &traced, &benign_train, 0.15).unwrap();

        // On held-out benign programs the violation rate stays moderate.
        let benign_test: Vec<usize> = splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| !labels[i])
            .collect();
        let fp = benign_test
            .iter()
            .filter(|&&i| policy.judge(&mut detector, traced.subwindows(i)))
            .count() as f64
            / benign_test.len().max(1) as f64;
        assert!(fp <= 0.5, "calibrated fp rate {fp}");
    }

    #[test]
    fn calibrated_is_more_sensitive_than_majority_when_benign_is_quiet() {
        let (traced, splits, hmd) = fixture();
        let labels = traced.corpus().labels();
        let benign_train: Vec<usize> = splits
            .victim_train
            .iter()
            .copied()
            .filter(|&i| !labels[i])
            .collect();
        let mut detector = hmd.clone();
        let policy = VerdictPolicy::calibrated(&mut detector, &traced, &benign_train, 0.1).unwrap();
        // A 40%-flagged program is missed by majority but can be convicted
        // by a calibrated threshold below 0.4.
        let v = ProgramVerdict {
            flagged: 4,
            total: 10,
        };
        assert!(!VerdictPolicy::majority().is_malware(&v));
        if policy.threshold() < 0.38 {
            assert!(policy.is_malware(&v));
        }
    }

    #[test]
    fn fixed_validates_range() {
        assert!(VerdictPolicy::fixed(0.3).is_ok());
        let err = VerdictPolicy::fixed(1.5).unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)));
        assert!(err.to_string().contains("[0, 1]"));
        assert!(VerdictPolicy::fixed(f64::NAN).is_err());
    }

    #[test]
    fn calibration_rejects_bad_inputs() {
        let (traced, _, hmd) = fixture();
        let mut detector = hmd.clone();
        let empty = VerdictPolicy::calibrated(&mut detector, &traced, &[], 0.1);
        assert!(matches!(empty, Err(RhmdError::Calibration(_))));
        let bad_budget = VerdictPolicy::calibrated(&mut detector, &traced, &[0], 1.0);
        assert!(matches!(bad_budget, Err(RhmdError::Calibration(_))));
    }

    #[test]
    fn quorum_judgement_abstains_on_thin_coverage() {
        let policy = VerdictPolicy::majority();
        // 3 of 4 surviving windows flagged: decided malware.
        let healthy = QuorumVerdict::from_votes(&[Some(true), Some(true), Some(true), Some(false)]);
        assert_eq!(
            policy.judge_quorum(&healthy, 0.5),
            DegradedVerdict::Decided(true)
        );
        // Only 1 of 4 windows voted: coverage 0.25 < 0.5 floor → abstain.
        let thin = QuorumVerdict::from_votes(&[Some(true), None, None, None]);
        assert_eq!(policy.judge_quorum(&thin, 0.5), DegradedVerdict::Abstained);
        assert!(!policy.judge_quorum(&thin, 0.5).is_malware());
        assert!(policy.judge_quorum(&thin, 0.5).unwrap_or(true));
        // Everything lost: abstain regardless of the floor.
        let lost = QuorumVerdict::from_votes(&[None, None]);
        assert_eq!(policy.judge_quorum(&lost, 0.0), DegradedVerdict::Abstained);
    }

    #[test]
    fn quorum_decides_at_exactly_min_coverage() {
        let policy = VerdictPolicy::majority();
        // 2 voted of 4 windows: coverage is exactly 0.5.
        let edge = QuorumVerdict::from_votes(&[Some(true), Some(true), None, None]);
        assert!((edge.coverage() - 0.5).abs() < 1e-12);
        // The floor is inclusive: exactly at it, the quorum still decides.
        assert_eq!(
            policy.judge_quorum(&edge, 0.5),
            DegradedVerdict::Decided(true)
        );
        // One epsilon above the floor, it abstains.
        assert_eq!(
            policy.judge_quorum(&edge, 0.5 + 1e-9),
            DegradedVerdict::Abstained
        );
        // A zero floor only abstains on zero-voter quorums.
        assert_eq!(
            policy.judge_quorum(&edge, 0.0),
            DegradedVerdict::Decided(true)
        );
    }

    #[test]
    fn flag_rate_exactly_at_threshold_acquits() {
        let policy = VerdictPolicy::majority();
        // A 50/50 split sits exactly on the majority threshold.
        let tie = QuorumVerdict::from_votes(&[Some(true), Some(false)]);
        assert!((tie.flag_rate() - 0.5).abs() < 1e-12);
        // judge_quorum is strict `>`: the tie acquits ...
        assert_eq!(
            policy.judge_quorum(&tie, 0.0),
            DegradedVerdict::Decided(false)
        );
        // ... while the quorum's own majority rule (`2 * flagged >= voted`)
        // convicts the same tie. The divergence is intentional and pinned.
        assert!(tie.is_malware());
        // One extra flag tips judge_quorum over the strict threshold too.
        let over = QuorumVerdict::from_votes(&[Some(true), Some(true), Some(false)]);
        assert_eq!(
            policy.judge_quorum(&over, 0.0),
            DegradedVerdict::Decided(true)
        );
    }
}
