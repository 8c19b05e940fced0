//! Deterministic ensemble HMDs — the related-work baseline the paper
//! contrasts RHMD against (§9.1, citing Khasawneh et al., RAID 2015).
//!
//! "Superficially, ensemble learning is similar to RHMD since it combines
//! the output of multiple diverse detectors through a combiner function such
//! as majority voting [...] However, since ensemble classifiers are
//! deterministic, they can be reverse engineered and evaded." This module
//! implements that baseline so the claim can be tested head-to-head.

use crate::detector::{Detector, Epoch, Gaps, StreamRng};
use crate::hmd::{BlackBox, Hmd, QuorumVerdict};
use rhmd_features::window::{RawWindow, Reads, SUBWINDOW};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the base detectors' window decisions are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Combiner {
    /// Flag when at least half the base detectors flag.
    Majority,
    /// Flag when any base detector flags (high sensitivity, low
    /// specificity).
    Or,
    /// Flag only when every base detector flags.
    And,
}

impl Combiner {
    fn combine(self, votes: usize, total: usize) -> bool {
        match self {
            Combiner::Majority => 2 * votes >= total,
            Combiner::Or => votes > 0,
            Combiner::And => votes == total,
        }
    }
}

impl fmt::Display for Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Combiner::Majority => f.write_str("majority"),
            Combiner::Or => f.write_str("or"),
            Combiner::And => f.write_str("and"),
        }
    }
}

/// A deterministic ensemble: every base detector evaluates every epoch, and
/// a fixed combiner merges their votes. Unlike [`crate::rhmd::ResilientHmd`]
/// there is no randomness — identical traces always produce identical
/// decisions, which is exactly what makes it reverse-engineerable.
///
/// All base detectors share one collection period (the epoch length).
pub struct EnsembleHmd {
    detectors: Vec<Hmd>,
    combiner: Combiner,
    period: u32,
}

impl EnsembleHmd {
    /// Creates an ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty or their collection periods differ
    /// (deterministic ensembles vote per shared epoch).
    pub fn new(detectors: Vec<Hmd>, combiner: Combiner) -> EnsembleHmd {
        assert!(!detectors.is_empty(), "ensemble needs at least one detector");
        let period = detectors[0].spec().period;
        assert!(
            detectors.iter().all(|d| d.spec().period == period),
            "ensemble base detectors must share a collection period"
        );
        EnsembleHmd {
            detectors,
            combiner,
            period,
        }
    }

    /// The base detectors.
    pub fn detectors(&self) -> &[Hmd] {
        &self.detectors
    }

    /// The combiner function.
    pub fn combiner(&self) -> Combiner {
        self.combiner
    }

    /// Program-level quorum verdict over a possibly degraded trace (clean
    /// subwindows or faulted reads).
    pub fn quorum_verdict<'a>(&self, reads: impl Into<Reads<'a>>, min_fill: f64) -> QuorumVerdict {
        self.quorum(reads.into(), min_fill, &mut StreamRng::from_seed(0))
    }
}

impl Detector for EnsembleHmd {
    fn name(&self) -> String {
        let parts: Vec<String> = self.detectors.iter().map(Detector::name).collect();
        format!("Ensemble<{}>{{{}}}", self.combiner, parts.join(", "))
    }

    /// Deterministic: the RNG is ignored. Windows are assembled once and
    /// each base detector scores the whole epoch stream through its batch
    /// path. A base detector abstains on a window whose features fail the
    /// sanity check, and an epoch abstains only when *every* base detector
    /// does — so one corrupted counter channel degrades the vote instead of
    /// poisoning it. Dropped chunks are no epochs, as for [`Hmd`].
    fn walk(&self, reads: Reads<'_>, gaps: Gaps, _rng: &mut StreamRng) -> Vec<Epoch> {
        let span = (self.period / SUBWINDOW) as usize;
        let windows = reads.aggregate(self.period, gaps.min_fill());
        let per_detector: Vec<Vec<Option<bool>>> = self
            .detectors
            .iter()
            .map(|d| d.classify_windows_checked(&windows))
            .collect();
        (0..windows.len())
            .map(|i| {
                let cast: Vec<bool> = per_detector.iter().filter_map(|v| v[i]).collect();
                let flags = cast.iter().filter(|&&v| v).count();
                let vote = (!cast.is_empty()).then(|| self.combiner.combine(flags, cast.len()));
                Epoch { vote, span }
            })
            .collect()
    }
}

impl BlackBox for EnsembleHmd {
    /// Deterministic: nothing persists, so a query is the seeded walk.
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch> {
        self.walk(
            Reads::Clean(subwindows),
            Gaps::Stop,
            &mut StreamRng::from_seed(0),
        )
    }
}

impl fmt::Debug for EnsembleHmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnsembleHmd")
            .field("detectors", &self.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
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
    fn ensemble_is_deterministic() {
        let (traced, _, detectors) = fixture();
        let mut a = EnsembleHmd::new(detectors.clone(), Combiner::Majority);
        let mut b = EnsembleHmd::new(detectors, Combiner::Majority);
        let subs = traced.subwindows(0);
        assert_eq!(a.label_subwindows(subs), b.label_subwindows(subs));
        assert_eq!(a.decisions(subs), a.decisions(subs));
    }

    #[test]
    fn or_flags_at_least_as_much_as_and() {
        let (traced, _, detectors) = fixture();
        let mut or = EnsembleHmd::new(detectors.clone(), Combiner::Or);
        let mut and = EnsembleHmd::new(detectors, Combiner::And);
        for i in 0..traced.corpus().len() {
            let subs = traced.subwindows(i);
            let or_flags = or.decisions(subs).iter().filter(|&&d| d).count();
            let and_flags = and.decisions(subs).iter().filter(|&&d| d).count();
            assert!(or_flags >= and_flags);
        }
    }

    #[test]
    fn combiner_logic() {
        assert!(Combiner::Majority.combine(1, 2));
        assert!(!Combiner::Majority.combine(0, 2));
        assert!(Combiner::Or.combine(1, 3));
        assert!(!Combiner::And.combine(2, 3));
        assert!(Combiner::And.combine(3, 3));
    }

    #[test]
    #[should_panic(expected = "share a collection period")]
    fn mixed_periods_rejected() {
        let (traced, splits, mut detectors) = fixture();
        detectors.push(Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Memory, 10_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        ));
        let _ = EnsembleHmd::new(detectors, Combiner::Majority);
    }

    #[test]
    fn name_names_combiner() {
        let (_, _, detectors) = fixture();
        let e = EnsembleHmd::new(detectors, Combiner::Or);
        assert!(e.name().starts_with("Ensemble<or>"));
    }
}
