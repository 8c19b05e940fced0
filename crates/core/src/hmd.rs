//! Baseline hardware malware detectors (HMDs) and the black-box query
//! interface attackers see.

use crate::detector::{self, Detector, Epoch, Gaps, StreamRng};
use rhmd_data::TracedCorpus;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::{CollectionWindow, RawWindow, Reads, SUBWINDOW};
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::model::{Classifier, Dataset};
use rhmd_ml::trainer::{train, Algorithm, TrainerConfig};
use std::fmt;

/// Largest plausible magnitude for any healthy feature component. Every
/// projection is a frequency, normalized histogram mass, or per-instruction
/// rate, all of order one; values beyond this bound only arise from
/// corrupted counters, and a detector abstains rather than vote on them.
pub const ABSTAIN_BOUND: f64 = 1e3;

/// The black-box interface the attacker can query (paper §2: "the attacker
/// has access to a machine with a similar detector").
///
/// A detector consumes a program's trace and emits a stream of binary
/// decisions, reported at [`SUBWINDOW`] granularity so detectors with
/// different (or randomized) collection periods are comparable: a decision
/// made over one collection window is replicated across all the subwindows
/// it covers. The stream is truncated at the last complete collection
/// window.
///
/// Unlike the defender-side [`Detector`], a black box keeps its switching
/// state itself: every query advances it, as a deployed detector's would.
/// Implementations supply only [`BlackBox::query`], which hands their
/// [`Detector::walk`] (or, outside this crate, their own walk) the state
/// that persists across queries; the label streams are provided.
///
/// Decisions are label-only: no confidence is exposed, matching the paper's
/// threat model (§9.2).
pub trait BlackBox {
    /// One query: the clean walk ([`Gaps::Stop`]) over one program, run on
    /// the state the detector carries from query to query — the switching
    /// RNG of a randomized pool (plus the active subset and its redraw
    /// clock for a non-stationary one), nothing for a deterministic
    /// detector.
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch>;

    /// Per-subwindow decision stream for one traced program.
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        detector::label_stream(&self.query(subwindows))
    }

    /// One decision per detection epoch (collection window), without
    /// subwindow expansion — the granularity at which the attacker actually
    /// observes the detector's output.
    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        detector::decisions(&self.query(subwindows))
    }
}

/// Program-level verdict from a decision stream: the paper raises
/// window-level accuracy "by averaging the decisions across multiple
/// intervals" (§8.2), i.e. majority vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProgramVerdict {
    /// Decisions that flagged malware.
    pub flagged: usize,
    /// Total decisions.
    pub total: usize,
}

impl ProgramVerdict {
    /// Builds a verdict from a decision stream.
    pub fn from_decisions(decisions: &[bool]) -> ProgramVerdict {
        ProgramVerdict {
            flagged: decisions.iter().filter(|&&d| d).count(),
            total: decisions.len(),
        }
    }

    /// Fraction of windows flagged (0.0 for empty streams).
    pub fn flag_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.flagged as f64 / self.total as f64
        }
    }

    /// Majority-vote malware verdict.
    pub fn is_malware(&self) -> bool {
        2 * self.flagged >= self.total.max(1)
    }
}

/// Program-level verdict over a vote stream that may contain abstentions:
/// windows a detector declined to judge (corrupted features, empty windows)
/// count toward coverage but never toward the vote, so a degraded stream
/// cannot silently mis-vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuorumVerdict {
    /// Votes that flagged malware.
    pub flagged: usize,
    /// Windows that produced a vote (flagged or clean).
    pub voted: usize,
    /// Windows the detector abstained on.
    pub abstained: usize,
}

impl QuorumVerdict {
    /// Builds a quorum verdict from per-window votes (`None` = abstain).
    pub fn from_votes(votes: &[Option<bool>]) -> QuorumVerdict {
        let mut v = QuorumVerdict {
            flagged: 0,
            voted: 0,
            abstained: 0,
        };
        for vote in votes {
            match vote {
                Some(true) => {
                    v.flagged += 1;
                    v.voted += 1;
                }
                Some(false) => v.voted += 1,
                None => v.abstained += 1,
            }
        }
        rhmd_obs::add("core.windows.voted", v.voted as u64);
        rhmd_obs::add("core.windows.abstained", v.abstained as u64);
        v
    }

    /// Total windows examined (voted + abstained).
    pub fn total(&self) -> usize {
        self.voted + self.abstained
    }

    /// Fraction of examined windows that produced a vote (1.0 for empty
    /// streams — nothing was degraded).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.voted as f64 / self.total() as f64
        }
    }

    /// Fraction of *voting* windows that flagged (0.0 with no votes).
    pub fn flag_rate(&self) -> f64 {
        if self.voted == 0 {
            0.0
        } else {
            self.flagged as f64 / self.voted as f64
        }
    }

    /// The coverage gate every program verdict applies before it decides:
    /// `true` when no window voted or coverage falls below `min_coverage`.
    /// The floor is inclusive, so a quorum exactly at it decides.
    pub fn lacks_coverage(&self, min_coverage: f64) -> bool {
        self.voted == 0 || self.coverage() < min_coverage
    }

    /// Majority vote over the voting windows only; an exact tie convicts.
    pub fn is_malware(&self) -> bool {
        2 * self.flagged >= self.voted.max(1)
    }

    /// Collapses to a plain [`ProgramVerdict`] over the voting windows.
    pub fn to_program_verdict(&self) -> ProgramVerdict {
        ProgramVerdict {
            flagged: self.flagged,
            total: self.voted,
        }
    }
}

/// How [`Hmd::check_window`] lets one collection window into the vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowCheck {
    /// The window holds no instructions: it abstains.
    Empty,
    /// A projected component is non-finite or beyond [`ABSTAIN_BOUND`]:
    /// it abstains.
    Corrupt,
    /// The projection is in the caller's row buffer, ready to score.
    Row,
    /// A zero-dimension spec's vote, decided without a row.
    Vote(bool),
}

/// A trained baseline HMD: one feature spec + one classifier.
///
/// # Examples
///
/// ```no_run
/// use rhmd_core::hmd::Hmd;
/// use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
/// use rhmd_features::{FeatureKind, FeatureSpec};
/// use rhmd_ml::{Algorithm, TrainerConfig};
/// use rhmd_uarch::CoreConfig;
///
/// let config = CorpusConfig::tiny();
/// let corpus = Corpus::build(&config);
/// let splits = Splits::new(&corpus, config.seed);
/// let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
/// let spec = FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]);
/// let hmd = Hmd::train(
///     Algorithm::Lr,
///     spec,
///     &TrainerConfig::default(),
///     &traced,
///     &splits.victim_train,
/// );
/// let verdict = hmd.verdict(traced.subwindows(0));
/// println!("{}", verdict.flag_rate());
/// ```
#[derive(Clone)]
pub struct Hmd {
    spec: FeatureSpec,
    algorithm: Algorithm,
    model: Box<dyn Classifier>,
}

impl Hmd {
    /// Trains an HMD on the window dataset of `indices` in `traced`.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(
        algorithm: Algorithm,
        spec: FeatureSpec,
        trainer: &TrainerConfig,
        traced: &TracedCorpus,
        indices: &[usize],
    ) -> Hmd {
        let data = traced.window_dataset(indices, &spec);
        Hmd::train_on_dataset(algorithm, spec, trainer, &data)
    }

    /// Trains an HMD on an already-projected dataset (used by retraining
    /// experiments that mix in evasive windows).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or its dimensionality mismatches `spec`.
    pub fn train_on_dataset(
        algorithm: Algorithm,
        spec: FeatureSpec,
        trainer: &TrainerConfig,
        data: &Dataset,
    ) -> Hmd {
        assert_eq!(data.dims(), spec.dims(), "dataset does not match spec");
        let model = train(algorithm, trainer, data);
        Hmd {
            spec,
            algorithm,
            model,
        }
    }

    /// Assembles an HMD from an already-trained classifier (used by model
    /// persistence and by custom detector constructions). Nothing checks
    /// that the model matches the spec — callers are trusted; prefer
    /// [`Hmd::train`] where possible.
    pub fn from_parts(spec: FeatureSpec, algorithm: Algorithm, model: Box<dyn Classifier>) -> Hmd {
        Hmd {
            spec,
            algorithm,
            model,
        }
    }

    /// The feature spec this detector observes.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// The training algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The underlying classifier (for weight extraction by evasion code).
    pub fn model(&self) -> &dyn Classifier {
        self.model.as_ref()
    }

    /// The one rule for whether a window votes, shared by every checked
    /// path (this crate's and `rhmd serve`'s). An empty window abstains; so
    /// does one whose projection carries a non-finite component or one
    /// beyond [`ABSTAIN_BOUND`], the signature of corrupted counters. A
    /// window that votes leaves its projection in `row` (cleared first),
    /// ready to score, except under a zero-dimension spec: no batch can
    /// carry zero-width rows, so the model's vote is decided here.
    pub fn check_window(&self, window: &CollectionWindow, row: &mut Vec<f64>) -> WindowCheck {
        if window.instructions == 0 {
            return WindowCheck::Empty;
        }
        row.clear();
        self.spec.project_into(window, row);
        if row
            .iter()
            .any(|x| !x.is_finite() || x.abs() > ABSTAIN_BOUND)
        {
            return WindowCheck::Corrupt;
        }
        if row.is_empty() {
            return WindowCheck::Vote(self.model.predict(row));
        }
        WindowCheck::Row
    }

    /// Decision with abstention: `None` when [`Hmd::check_window`] keeps
    /// the window from the vote, so callers can skip this detector's vote
    /// instead of recording a meaningless one.
    pub fn classify_window_checked(&self, window: &CollectionWindow) -> Option<bool> {
        let mut row = Vec::with_capacity(self.spec.dims());
        match self.check_window(window, &mut row) {
            WindowCheck::Row => Some(self.model.predict(&row)),
            WindowCheck::Vote(vote) => Some(vote),
            WindowCheck::Empty | WindowCheck::Corrupt => None,
        }
    }

    /// Batch counterpart of [`Hmd::classify_window_checked`]: abstaining
    /// windows are filtered out first, the rest score through one flat
    /// matrix, and votes are scattered back in window order.
    pub fn classify_windows_checked(&self, windows: &[CollectionWindow]) -> Vec<Option<bool>> {
        let dims = self.spec.dims();
        let mut votes: Vec<Option<bool>> = vec![None; windows.len()];
        let mut flat = Vec::with_capacity(windows.len() * dims);
        let mut voters = Vec::with_capacity(windows.len());
        let mut row = Vec::with_capacity(dims);
        for (i, w) in windows.iter().enumerate() {
            match self.check_window(w, &mut row) {
                WindowCheck::Row => {
                    flat.extend_from_slice(&row);
                    voters.push(i);
                }
                WindowCheck::Vote(vote) => votes[i] = Some(vote),
                WindowCheck::Empty | WindowCheck::Corrupt => {}
            }
        }
        let xs = FeatureMatrix::from_flat(dims, flat);
        let mut scores = vec![0.0; xs.len()];
        self.model.score_batch(&xs, &mut scores);
        let threshold = self.model.threshold();
        for (&i, s) in voters.iter().zip(scores) {
            votes[i] = Some(s >= threshold);
        }
        votes
    }

    /// Per-collection-window decisions for a clean program trace.
    pub fn decide_windows(&self, subwindows: &[RawWindow]) -> Vec<bool> {
        self.epoch_decisions(subwindows, &mut StreamRng::from_seed(0))
    }

    /// Program-level verdict by majority vote over collection windows.
    pub fn verdict(&self, subwindows: &[RawWindow]) -> ProgramVerdict {
        ProgramVerdict::from_decisions(&self.decide_windows(subwindows))
    }

    /// Program-level quorum verdict over a possibly degraded trace (clean
    /// subwindows or faulted reads).
    pub fn quorum_verdict<'a>(&self, reads: impl Into<Reads<'a>>, min_fill: f64) -> QuorumVerdict {
        self.quorum(reads.into(), min_fill, &mut StreamRng::from_seed(0))
    }
}

impl Detector for Hmd {
    fn name(&self) -> String {
        format!("{}[{}]", self.algorithm, self.spec.label())
    }

    /// Deterministic: the RNG is ignored. Every window the assembler keeps
    /// at the fill floor is an epoch, voting or abstaining on corrupted
    /// features; a chunk it drops is no epoch at all, so [`Gaps::Stop`]
    /// and [`Gaps::Abstain`] differ only in their floor.
    fn walk(&self, reads: Reads<'_>, gaps: Gaps, _rng: &mut StreamRng) -> Vec<Epoch> {
        let span = (self.spec.period / SUBWINDOW) as usize;
        let windows = reads.aggregate(self.spec.period, gaps.min_fill());
        self.classify_windows_checked(&windows)
            .into_iter()
            .map(|vote| Epoch { vote, span })
            .collect()
    }
}

impl BlackBox for Hmd {
    /// Deterministic: nothing persists, so a query is the seeded walk.
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch> {
        self.walk(
            Reads::Clean(subwindows),
            Gaps::Stop,
            &mut StreamRng::from_seed(0),
        )
    }
}

impl fmt::Debug for Hmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hmd")
            .field("spec", &self.spec.label())
            .field("algorithm", &self.algorithm)
            .finish_non_exhaustive()
    }
}

/// Labels an attacker's windows (at `attacker_period`) with a victim's
/// decision stream, by majority over the covered subwindows — how the
/// attacker transfers black-box query results onto its own training rows
/// (paper Fig 1a).
///
/// Windows extending beyond the victim's decision coverage are dropped;
/// returns one label per *complete* attacker window.
///
/// # Panics
///
/// Panics if `attacker_period` is not a positive multiple of [`SUBWINDOW`].
pub fn transfer_labels(victim_stream: &[bool], attacker_period: u32) -> Vec<bool> {
    assert!(
        attacker_period > 0 && attacker_period.is_multiple_of(SUBWINDOW),
        "attacker period must be a positive multiple of {SUBWINDOW}"
    );
    let per = (attacker_period / SUBWINDOW) as usize;
    victim_stream
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| 2 * c.iter().filter(|&&d| d).count() >= per)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::FeatureKind;
    use rhmd_features::window::aggregate_with_gaps;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    fn arch_spec() -> FeatureSpec {
        FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![])
    }

    #[test]
    fn trained_hmd_beats_chance() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let verdict = hmd.verdict(traced.subwindows(i));
            if verdict.is_malware() == traced.corpus().program(i).class.label() {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.65,
            "program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn subwindow_labels_cover_complete_windows() {
        let (traced, splits) = fixture();
        let mut hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let subs = traced.subwindows(0);
        let labels = hmd.label_subwindows(subs);
        let per = (5_000 / SUBWINDOW) as usize;
        assert_eq!(labels.len() % per, 0);
        assert!(labels.len() <= subs.len());
        // Replication: each window's subwindow labels agree.
        for chunk in labels.chunks(per) {
            assert!(chunk.iter().all(|&d| d == chunk[0]));
        }
    }

    #[test]
    fn verdict_majority_logic() {
        let v = ProgramVerdict::from_decisions(&[true, true, false]);
        assert!(v.is_malware());
        assert!((v.flag_rate() - 2.0 / 3.0).abs() < 1e-12);
        let v2 = ProgramVerdict::from_decisions(&[true, false, false]);
        assert!(!v2.is_malware());
        assert!(!ProgramVerdict::from_decisions(&[]).is_malware());
    }

    #[test]
    fn quorum_verdict_ignores_abstentions() {
        let q = QuorumVerdict::from_votes(&[Some(true), None, Some(true), Some(false), None]);
        assert_eq!(q.flagged, 2);
        assert_eq!(q.voted, 3);
        assert_eq!(q.abstained, 2);
        assert!((q.coverage() - 0.6).abs() < 1e-12);
        assert!((q.flag_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(q.is_malware());
        assert_eq!(q.to_program_verdict().total, 3);
        // All-abstained stream: no vote, full degradation visible.
        let empty = QuorumVerdict::from_votes(&[None, None]);
        assert_eq!(empty.coverage(), 0.0);
        assert!(!empty.is_malware());
    }

    #[test]
    fn checked_classification_abstains_on_corruption() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        // Clean windows vote exactly as the unchecked model would.
        let windows = aggregate_with_gaps(traced.subwindows(0), 5_000, 1.0);
        for w in &windows {
            let unchecked = hmd.model().predict(&hmd.spec().project(w));
            assert_eq!(hmd.classify_window_checked(w), Some(unchecked));
        }
        // An empty window abstains.
        assert_eq!(
            hmd.classify_window_checked(&CollectionWindow::default()),
            None
        );
        // A wildly out-of-range rate abstains.
        let mut corrupt = windows[0].clone();
        corrupt.counters[0] = 1; // instructions
        corrupt.counters[10] = u64::MAX / 2; // l2_misses
        assert_eq!(hmd.classify_window_checked(&corrupt), None);
    }

    /// The collection periods the figures, the sweep and the ablations
    /// use, bracketed by the finest and a coarse one.
    const PERIODS: [u32; 12] = [
        1_000, 2_000, 5_000, 8_000, 9_000, 10_000, 11_000, 12_000, 15_000, 19_000, 20_000, 50_000,
    ];

    /// A model that scores every vector alike, whatever its width.
    #[derive(Debug, Clone)]
    struct Constant(f64);

    impl Classifier for Constant {
        fn score(&self, _: &[f64]) -> f64 {
            self.0
        }
        fn threshold(&self) -> f64 {
            0.5
        }
        fn algorithm(&self) -> &'static str {
            "const"
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn check_window_sorts_every_window() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let windows = aggregate_with_gaps(traced.subwindows(0), 5_000, 1.0);
        let mut row = vec![f64::NAN; 3];
        assert_eq!(hmd.check_window(&windows[0], &mut row), WindowCheck::Row);
        assert_eq!(
            row,
            hmd.spec().project(&windows[0]),
            "row is the projection alone"
        );
        let empty = CollectionWindow::default();
        assert_eq!(hmd.check_window(&empty, &mut row), WindowCheck::Empty);
        let mut corrupt = windows[0].clone();
        corrupt.counters[10] = u64::MAX / 2; // l2_misses
        assert_eq!(hmd.check_window(&corrupt, &mut row), WindowCheck::Corrupt);
        // A zero-dimension spec has no row to batch: the vote is decided
        // in the check, and the batch path agrees window by window.
        let zero = FeatureSpec::new(FeatureKind::Instructions, 5_000, vec![]);
        let hmd = Hmd::from_parts(zero, Algorithm::Lr, Box::new(Constant(0.75)));
        let vote = hmd.model().predict(&[]);
        assert_eq!(
            hmd.check_window(&windows[0], &mut row),
            WindowCheck::Vote(vote)
        );
        assert_eq!(hmd.check_window(&empty, &mut row), WindowCheck::Empty);
        let mut with_empty = windows.clone();
        with_empty.push(empty);
        let each: Vec<Option<bool>> = with_empty
            .iter()
            .map(|w| hmd.classify_window_checked(w))
            .collect();
        assert_eq!(hmd.classify_windows_checked(&with_empty), each);
        assert_eq!(each.last(), Some(&None));
    }

    /// The clean verdict paths score through `classify_windows_checked`,
    /// which is only sound if no clean window abstains: every projected
    /// component of every clean window of the tiny corpus, at every
    /// feature kind and period, is finite and within [`ABSTAIN_BOUND`].
    #[test]
    fn no_clean_window_abstains() {
        use rhmd_features::vector::FeatureKind;
        use rhmd_trace::isa::Opcode;
        let (traced, splits) = fixture();
        for kind in FeatureKind::ALL {
            for period in PERIODS {
                let spec = FeatureSpec::new(kind, period, Opcode::ALL.to_vec());
                for i in 0..traced.corpus().len() {
                    for w in aggregate_with_gaps(traced.subwindows(i), period, 1.0) {
                        assert!(w.instructions > 0);
                        let v = spec.project(&w);
                        assert!(
                            v.iter().all(|x| x.is_finite() && x.abs() <= ABSTAIN_BOUND),
                            "program {i}, {}: {v:?}",
                            spec.label()
                        );
                    }
                }
            }
        }
        // And so the checked batch path never abstains on the clean corpus.
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        for i in 0..traced.corpus().len() {
            let windows = aggregate_with_gaps(traced.subwindows(i), 5_000, 1.0);
            assert!(hmd
                .classify_windows_checked(&windows)
                .iter()
                .all(Option::is_some));
        }
    }

    #[test]
    fn transfer_labels_majority() {
        // Victim stream at 1K granularity; attacker at 2K: pairs.
        let stream = [true, true, false, true, false, false, true];
        let labels = transfer_labels(&stream, 2_000);
        assert_eq!(labels, vec![true, true, false]); // trailing odd element dropped
    }

    #[test]
    fn name_mentions_spec() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Nn,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train[..4],
        );
        assert_eq!(hmd.name(), "NN[Architectural@5k]");
    }
}
