//! Resilient HMDs (paper §7): a pool of diverse base detectors with
//! stochastic, unpredictable switching between them.

use crate::detector::{Detector, StreamRng};
use crate::hmd::{BlackBox, Hmd, QuorumVerdict};
use rhmd_data::TracedCorpus;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{aggregate_with_gaps, RawWindow, SUBWINDOW};
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::isa::Opcode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A randomized ensemble of base detectors.
///
/// At every detection epoch the RHMD draws one base detector (uniformly, or
/// by the configured probabilities), collects features over *that*
/// detector's period, and emits its decision. The attacker observing the
/// decision stream cannot tell which detector produced which decision, which
/// is what makes reverse-engineering provably lossy (paper §8, Theorem 1).
///
/// # Examples
///
/// ```no_run
/// use rhmd_core::hmd::BlackBox;
/// use rhmd_core::rhmd::ResilientHmd;
/// # fn doc(detectors: Vec<rhmd_core::hmd::Hmd>, subs: &[rhmd_features::RawWindow]) {
/// let mut rhmd = ResilientHmd::new(detectors, 42);
/// let decisions = rhmd.label_subwindows(subs);
/// # }
/// ```
pub struct ResilientHmd {
    detectors: Vec<Hmd>,
    probabilities: Vec<f64>,
    rng: SmallRng,
    seed: u64,
}

impl ResilientHmd {
    /// Creates an RHMD switching uniformly among `detectors`.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty.
    pub fn new(detectors: Vec<Hmd>, seed: u64) -> ResilientHmd {
        let n = detectors.len();
        ResilientHmd::with_probabilities(detectors, vec![1.0 / n as f64; n], seed)
    }

    /// Creates an RHMD with explicit selection probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty, lengths differ, or probabilities are
    /// not a distribution.
    pub fn with_probabilities(
        detectors: Vec<Hmd>,
        probabilities: Vec<f64>,
        seed: u64,
    ) -> ResilientHmd {
        assert!(!detectors.is_empty(), "RHMD needs at least one detector");
        assert_eq!(
            detectors.len(),
            probabilities.len(),
            "one probability per detector"
        );
        assert!(
            probabilities.iter().all(|&p| p >= 0.0)
                && (probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "probabilities must form a distribution"
        );
        ResilientHmd {
            detectors,
            probabilities,
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The base detectors.
    pub fn detectors(&self) -> &[Hmd] {
        &self.detectors
    }

    /// The selection probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Restarts the switching RNG so a fresh query sequence is reproducible.
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
    }

    fn draw_from(probabilities: &[f64], rng: &mut SmallRng) -> usize {
        let mut u = rng.gen::<f64>();
        for (i, &p) in probabilities.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        probabilities.len() - 1
    }
}

impl ResilientHmd {
    /// Walks a trace emitting `(vote, subwindows_consumed)` pairs.
    ///
    /// A vote of `None` marks an epoch whose window was truncated by a gap
    /// or whose features failed the sanity check — the epoch is *skipped*
    /// (the cursor still advances) rather than aborting the walk, so one
    /// corrupted window in the middle of a trace does not silence every
    /// detector downstream of it.
    ///
    /// `min_fill` is the minimum fraction of the detector's period an
    /// epoch's window must cover to vote. `1.0` reproduces the strict
    /// behavior on clean streams while still accepting the *over*-full
    /// windows an interrupt-coalescing fault produces (dropped reads merge
    /// into the next surviving one, so those windows span extra
    /// instructions and their rate features renormalize).
    fn walk(
        &mut self,
        subwindows: &[RawWindow],
        min_fill: f64,
        skip_gaps: bool,
    ) -> Vec<(Option<bool>, usize)> {
        Self::walk_with(
            &self.detectors,
            &self.probabilities,
            &mut self.rng,
            subwindows,
            min_fill,
            skip_gaps,
        )
    }

    /// The walk body, parameterized over an explicit RNG so per-program
    /// switching streams can be derived without mutating shared state (the
    /// requirement for order-independent — and therefore parallel —
    /// evaluation).
    fn walk_with(
        detectors: &[Hmd],
        probabilities: &[f64],
        rng: &mut SmallRng,
        subwindows: &[RawWindow],
        min_fill: f64,
        skip_gaps: bool,
    ) -> Vec<(Option<bool>, usize)> {
        // Pass 1: draw the switching stream and aggregate each epoch's
        // window. Detector draws, the cursor, and every break condition
        // depend only on the RNG and window fill — never on scores — so
        // scoring can be deferred and batched per detector.
        let mut meta: Vec<(usize, bool, usize)> = Vec::new();
        let mut pending: Vec<Vec<RawWindow>> = vec![Vec::new(); detectors.len()];
        let mut cursor = 0usize;
        loop {
            let idx = Self::draw_from(probabilities, rng);
            let detector = &detectors[idx];
            let per = (detector.spec().period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let chunk = &subwindows[cursor..cursor + per];
            match aggregate_with_gaps(chunk, detector.spec().period, min_fill).pop() {
                Some(window) => {
                    pending[idx].push(window);
                    meta.push((idx, true, per));
                }
                // Truncated tail of a clean stream: end of usable trace.
                None if !skip_gaps => break,
                None => meta.push((idx, false, per)), // below the fill floor: abstain
            }
            cursor += per;
        }
        // Pass 2: each detector scores its epochs through the flat batch
        // path; votes are reassembled in epoch order.
        batch_walk_votes(detectors, &meta, &pending)
    }

    /// Walks a trace and pools every epoch into a [`QuorumVerdict`],
    /// counting corrupted epochs as abstentions instead of votes. Epochs
    /// whose window covers less than `min_fill` of the drawn detector's
    /// period abstain.
    pub fn quorum_verdict(&mut self, subwindows: &[RawWindow], min_fill: f64) -> QuorumVerdict {
        let votes: Vec<Option<bool>> = self
            .walk(subwindows, min_fill, true)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        QuorumVerdict::from_votes(&votes)
    }
}

impl Detector for ResilientHmd {
    fn name(&self) -> String {
        self.describe()
    }

    /// Draws the switching stream from the caller's `rng`: `&self` only,
    /// so two threads can judge different programs concurrently, and the
    /// result for a program depends only on its subwindows and seed —
    /// never on which other programs were judged before it.
    fn label_stream(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        let mut out = Vec::with_capacity(subwindows.len());
        for (vote, per) in Self::walk_with(
            &self.detectors,
            &self.probabilities,
            rng.small(),
            subwindows,
            1.0,
            false,
        ) {
            if let Some(decision) = vote {
                out.extend(std::iter::repeat_n(decision, per));
            }
        }
        out
    }

    fn epoch_decisions(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        Self::walk_with(
            &self.detectors,
            &self.probabilities,
            rng.small(),
            subwindows,
            1.0,
            false,
        )
        .into_iter()
        .filter_map(|(d, _)| d)
        .collect()
    }

    fn quorum(
        &self,
        subwindows: &[RawWindow],
        min_fill: f64,
        rng: &mut StreamRng,
    ) -> QuorumVerdict {
        let votes: Vec<Option<bool>> = Self::walk_with(
            &self.detectors,
            &self.probabilities,
            rng.small(),
            subwindows,
            min_fill,
            true,
        )
        .into_iter()
        .map(|(v, _)| v)
        .collect();
        QuorumVerdict::from_votes(&votes)
    }
}

impl BlackBox for ResilientHmd {
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        let mut out = Vec::with_capacity(subwindows.len());
        for (vote, per) in self.walk(subwindows, 1.0, false) {
            if let Some(decision) = vote {
                out.extend(std::iter::repeat_n(decision, per));
            }
        }
        out
    }

    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        self.walk(subwindows, 1.0, false)
            .into_iter()
            .filter_map(|(d, _)| d)
            .collect()
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.detectors.iter().map(|d| d.describe()).collect();
        format!("RHMD{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for ResilientHmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientHmd")
            .field("detectors", &self.describe())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Builds the feature specs for a pool of `kinds` × `periods` base
/// detectors (paper §7's construction: two or three features, optionally at
/// 10K and 5K periods).
pub fn pool_specs(kinds: &[FeatureKind], periods: &[u32], opcodes: &[Opcode]) -> Vec<FeatureSpec> {
    let mut specs = Vec::with_capacity(kinds.len() * periods.len());
    for &period in periods {
        for &kind in kinds {
            specs.push(FeatureSpec::new(kind, period, opcodes.to_vec()));
        }
    }
    specs
}

/// Trains one base detector per spec and assembles an RHMD.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn build_pool(
    algorithm: Algorithm,
    specs: Vec<FeatureSpec>,
    trainer: &TrainerConfig,
    traced: &TracedCorpus,
    train_indices: &[usize],
    seed: u64,
) -> ResilientHmd {
    assert!(!specs.is_empty(), "pool needs at least one spec");
    let detectors = specs
        .into_iter()
        .map(|spec| Hmd::train(algorithm, spec, trainer, traced, train_indices))
        .collect();
    ResilientHmd::new(detectors, seed)
}

/// Trains a *stochastic* defender pool: the same construction as
/// [`build_pool`], but every base detector's LR/SVM/NN model is quantized
/// with the given config — normally [`rhmd_ml::Rounding::Stochastic`], which
/// reproduces Stochastic-HMDs' computation-level randomness in software.
/// The rounding seed is defender-private: scores stay byte-reproducible for
/// the defender (rounding is a pure function of seed, row, and feature), but
/// an attacker querying the pool sees a decision boundary that jitters per
/// input on top of the detector switching, making the reverse-engineered
/// surrogate strictly noisier than against a deterministic pool.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn build_stochastic_pool(
    algorithm: Algorithm,
    specs: Vec<FeatureSpec>,
    trainer: &TrainerConfig,
    quant: rhmd_ml::QuantConfig,
    traced: &TracedCorpus,
    train_indices: &[usize],
    seed: u64,
) -> ResilientHmd {
    let trainer = TrainerConfig {
        quant: Some(quant),
        ..*trainer
    };
    build_pool(algorithm, specs, &trainer, traced, train_indices, seed)
}

/// Non-stationary RHMD (paper §8.3, future work): a large candidate pool of
/// detectors of which only a random *subset* is active at any time; the
/// active subset is re-drawn periodically. Even an attacker who knows the
/// full candidate set cannot iteratively evade the active detectors, because
/// the decision boundary itself moves.
pub struct NonStationaryRhmd {
    candidates: Vec<Hmd>,
    active: Vec<usize>,
    active_size: usize,
    /// Number of detection epochs between subset re-draws.
    redraw_every: u32,
    epochs_since_redraw: u32,
    rng: SmallRng,
    seed: u64,
}

impl NonStationaryRhmd {
    /// Creates a non-stationary pool.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, `active_size` is zero or exceeds the
    /// candidate count, or `redraw_every` is zero.
    pub fn new(
        candidates: Vec<Hmd>,
        active_size: usize,
        redraw_every: u32,
        seed: u64,
    ) -> NonStationaryRhmd {
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(
            active_size >= 1 && active_size <= candidates.len(),
            "active subset size out of range"
        );
        assert!(redraw_every > 0, "redraw interval must be positive");
        let mut pool = NonStationaryRhmd {
            candidates,
            active: Vec::new(),
            active_size,
            redraw_every,
            epochs_since_redraw: 0,
            rng: SmallRng::seed_from_u64(seed),
            seed,
        };
        pool.redraw();
        pool
    }

    /// The full candidate pool.
    pub fn candidates(&self) -> &[Hmd] {
        &self.candidates
    }

    /// Indices of the currently active subset.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Restarts the RNG and re-draws the initial subset.
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.epochs_since_redraw = 0;
        self.redraw();
    }

    fn redraw(&mut self) {
        self.active = draw_active(&mut self.rng, self.candidates.len(), self.active_size);
    }

    /// The walk body, parameterized over an explicit RNG: replays exactly
    /// what a freshly constructed pool with the same seed produces (the
    /// constructor's initial subset draw included), without mutating shared
    /// state — the requirement for order-independent parallel evaluation.
    ///
    /// With `skip_gaps`, epochs whose window falls below the fill floor
    /// abstain and the cursor advances; such epochs do not advance the
    /// redraw clock (only voted-on epochs age the active subset, matching
    /// the stateful walk on clean streams).
    fn walk_seeded(
        &self,
        subwindows: &[RawWindow],
        min_fill: f64,
        skip_gaps: bool,
        rng: &mut SmallRng,
    ) -> Vec<(Option<bool>, usize)> {
        // Pass 1: replay the draw/redraw stream and collect each epoch's
        // window. The redraw clock advances only on epochs whose window
        // aggregated cleanly — a fact known before scoring — so draws never
        // depend on scores and scoring can be batched per candidate.
        let mut active = draw_active(rng, self.candidates.len(), self.active_size);
        let mut epochs_since_redraw = 0u32;
        let mut meta: Vec<(usize, bool, usize)> = Vec::new();
        let mut pending: Vec<Vec<RawWindow>> = vec![Vec::new(); self.candidates.len()];
        let mut cursor = 0usize;
        loop {
            if epochs_since_redraw >= self.redraw_every {
                active = draw_active(rng, self.candidates.len(), self.active_size);
                epochs_since_redraw = 0;
            }
            let pick = active[rng.gen_range(0..active.len())];
            let detector = &self.candidates[pick];
            let per = (detector.spec().period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let chunk = &subwindows[cursor..cursor + per];
            match aggregate_with_gaps(chunk, detector.spec().period, min_fill).pop() {
                Some(window) => {
                    epochs_since_redraw += 1;
                    pending[pick].push(window);
                    meta.push((pick, true, per));
                }
                None if !skip_gaps => break, // truncated tail of a clean stream
                None => meta.push((pick, false, per)),
            }
            cursor += per;
        }
        // Pass 2: batch-score per candidate, reassemble in epoch order.
        batch_walk_votes(&self.candidates, &meta, &pending)
    }

    /// Advances one epoch. Outer `None` means the stream is exhausted or
    /// truncated; an inner `None` vote marks an epoch whose features failed
    /// the sanity check, which is skipped rather than terminating the walk.
    fn step(&mut self, subwindows: &[RawWindow], cursor: usize) -> Option<(Option<bool>, usize)> {
        if self.epochs_since_redraw >= self.redraw_every {
            self.redraw();
            self.epochs_since_redraw = 0;
        }
        let pick = self.active[self.rng.gen_range(0..self.active.len())];
        let detector = &self.candidates[pick];
        let per = (detector.spec().period / SUBWINDOW) as usize;
        if cursor + per > subwindows.len() {
            return None;
        }
        // `None` is the truncated tail of a clean stream.
        let window =
            aggregate_with_gaps(&subwindows[cursor..cursor + per], detector.spec().period, 1.0)
                .pop()?;
        self.epochs_since_redraw += 1;
        Some((detector.classify_window_checked(&window), per))
    }
}

impl BlackBox for NonStationaryRhmd {
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        let mut out = Vec::with_capacity(subwindows.len());
        let mut cursor = 0usize;
        while let Some((vote, per)) = self.step(subwindows, cursor) {
            if let Some(decision) = vote {
                out.extend(std::iter::repeat_n(decision, per));
            }
            cursor += per;
        }
        out
    }

    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        while let Some((vote, per)) = self.step(subwindows, cursor) {
            if let Some(decision) = vote {
                out.push(decision);
            }
            cursor += per;
        }
        out
    }

    fn describe(&self) -> String {
        format!(
            "NonStationaryRHMD{{{} of {} candidates, redraw every {} epochs}}",
            self.active_size,
            self.candidates.len(),
            self.redraw_every
        )
    }
}

impl Detector for NonStationaryRhmd {
    fn name(&self) -> String {
        self.describe()
    }

    /// Seeded replay of the full walk, re-drawing the active subset from
    /// the caller's `rng` exactly as a freshly constructed pool would.
    fn label_stream(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        let mut out = Vec::with_capacity(subwindows.len());
        for (vote, per) in self.walk_seeded(subwindows, 1.0, false, rng.small()) {
            if let Some(decision) = vote {
                out.extend(std::iter::repeat_n(decision, per));
            }
        }
        out
    }

    fn epoch_decisions(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        self.walk_seeded(subwindows, 1.0, false, rng.small())
            .into_iter()
            .filter_map(|(d, _)| d)
            .collect()
    }

    fn quorum(
        &self,
        subwindows: &[RawWindow],
        min_fill: f64,
        rng: &mut StreamRng,
    ) -> QuorumVerdict {
        let votes: Vec<Option<bool>> = self
            .walk_seeded(subwindows, min_fill, true, rng.small())
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        QuorumVerdict::from_votes(&votes)
    }
}

/// Scores a drawn epoch stream through each detector's flat batch path and
/// reassembles `(vote, subwindows_consumed)` pairs in epoch order.
///
/// `meta` carries one `(detector index, has_window, subwindows_consumed)`
/// triple per epoch; `pending[d]` holds detector `d`'s windows in epoch
/// order. Epochs without a window abstain. Votes are bit-identical to
/// scoring each epoch inline because the batch path shares the per-row
/// kernels.
fn batch_walk_votes(
    detectors: &[Hmd],
    meta: &[(usize, bool, usize)],
    pending: &[Vec<RawWindow>],
) -> Vec<(Option<bool>, usize)> {
    let mut votes: Vec<std::vec::IntoIter<Option<bool>>> = pending
        .iter()
        .zip(detectors)
        .map(|(windows, d)| d.classify_windows_checked(windows).into_iter())
        .collect();
    meta.iter()
        .map(|&(idx, has_window, per)| {
            let vote = if has_window {
                votes[idx].next().expect("one vote per batched window")
            } else {
                None
            };
            (vote, per)
        })
        .collect()
}

/// Partial Fisher-Yates over candidate indices: the subset-draw primitive
/// shared by the stateful pool and the seeded walk.
fn draw_active(rng: &mut SmallRng, candidates: usize, active_size: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..candidates).collect();
    for i in 0..active_size {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    indices.truncate(active_size);
    indices
}

impl fmt::Debug for NonStationaryRhmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NonStationaryRhmd")
            .field("pool", &self.describe())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmd::ProgramVerdict;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    fn two_detector_pool(traced: &TracedCorpus, train: &[usize], seed: u64) -> ResilientHmd {
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Architectural],
            &[5_000],
            &[],
        );
        build_pool(
            Algorithm::Lr,
            specs,
            &TrainerConfig::default(),
            traced,
            train,
            seed,
        )
    }

    #[test]
    fn pool_specs_cross_product() {
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Instructions],
            &[5_000, 10_000],
            &[Opcode::Xor],
        );
        assert_eq!(specs.len(), 4);
        let labels: Vec<String> = specs.iter().map(FeatureSpec::label).collect();
        assert!(labels.contains(&"Memory@5k".to_owned()));
        assert!(labels.contains(&"Instructions@10k".to_owned()));
    }

    #[test]
    fn label_stream_covers_complete_epochs() {
        let (traced, splits) = fixture();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 1);
        let subs = traced.subwindows(0);
        let stream = rhmd.label_subwindows(subs);
        assert!(!stream.is_empty());
        assert!(stream.len() <= subs.len());
    }

    #[test]
    fn switching_is_stochastic_but_seed_deterministic() {
        let (traced, splits) = fixture();
        let subs = traced.subwindows(0);
        let mut a = two_detector_pool(&traced, &splits.victim_train, 7);
        let mut b = two_detector_pool(&traced, &splits.victim_train, 7);
        assert_eq!(a.label_subwindows(subs), b.label_subwindows(subs));
        // Reset restores the stream.
        let first = {
            a.reset();
            a.label_subwindows(subs)
        };
        a.reset();
        assert_eq!(a.label_subwindows(subs), first);
    }

    #[test]
    fn seeded_walks_match_fresh_serial_walks() {
        let (traced, splits) = fixture();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 0x5eed);
        let subs = traced.subwindows(0);
        // Seeded with the construction seed, the trait walks replay exactly
        // what a freshly reset pool produces.
        rhmd.reset();
        let serial_labels = rhmd.label_subwindows(subs);
        rhmd.reset();
        let serial_decisions = rhmd.decisions(subs);
        rhmd.reset();
        let serial_quorum = rhmd.quorum_verdict(subs, 1.0);
        assert_eq!(
            rhmd.label_stream(subs, &mut StreamRng::from_seed(0x5eed)),
            serial_labels
        );
        assert_eq!(
            rhmd.epoch_decisions(subs, &mut StreamRng::from_seed(0x5eed)),
            serial_decisions
        );
        assert_eq!(
            rhmd.quorum(subs, 1.0, &mut StreamRng::from_seed(0x5eed)),
            serial_quorum
        );
        // And they are order-free: judging another program first changes
        // nothing, unlike the shared-RNG path.
        let _ = rhmd.quorum(traced.subwindows(1), 1.0, &mut StreamRng::from_seed(7));
        assert_eq!(
            rhmd.quorum(subs, 1.0, &mut StreamRng::from_seed(0x5eed)),
            serial_quorum
        );
        // Repeated seeded calls are pure functions of (subwindows, seed).
        assert_eq!(
            rhmd.label_stream(subs, &mut StreamRng::from_seed(1)),
            rhmd.label_stream(subs, &mut StreamRng::from_seed(1))
        );
    }

    #[test]
    fn non_stationary_seeded_walk_matches_fresh_pool() {
        let (traced, splits) = fixture();
        let kinds = [FeatureKind::Memory, FeatureKind::Architectural];
        let candidates: Vec<Hmd> = pool_specs(&kinds, &[5_000, 10_000], &[])
            .into_iter()
            .map(|spec| {
                Hmd::train(
                    Algorithm::Lr,
                    spec,
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        let subs = traced.subwindows(0);
        for seed in [0u64, 42, 0x5eed] {
            let mut pool = NonStationaryRhmd::new(candidates.clone(), 2, 2, seed);
            let stateful = pool.label_subwindows(subs);
            assert_eq!(
                pool.label_stream(subs, &mut StreamRng::from_seed(seed)),
                stateful,
                "seed {seed}: trait walk diverged from fresh stateful walk"
            );
            pool.reset();
            let decisions = pool.decisions(subs);
            assert_eq!(
                pool.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                decisions
            );
        }
    }

    #[test]
    fn stochastic_pool_is_seed_deterministic_and_detects() {
        let (traced, splits) = fixture();
        let specs = || {
            pool_specs(
                &[FeatureKind::Memory, FeatureKind::Architectural],
                &[5_000],
                &[],
            )
        };
        let quant = rhmd_ml::QuantConfig::stochastic(rhmd_ml::QuantBits::Int16, 0xd1ce);
        let build = || {
            build_stochastic_pool(
                Algorithm::Lr,
                specs(),
                &TrainerConfig::default(),
                quant,
                &traced,
                &splits.victim_train,
                9,
            )
        };
        let subs = traced.subwindows(0);
        let mut a = build();
        let mut b = build();
        // Stochastic rounding is seeded: two identically built pools emit
        // byte-identical decision streams.
        assert_eq!(a.label_subwindows(subs), b.label_subwindows(subs));
        // And the pool still detects: program accuracy beats chance.
        let labels = traced.corpus().labels();
        a.reset();
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let stream = a.label_subwindows(traced.subwindows(i));
            let verdict = ProgramVerdict::from_decisions(&stream);
            if verdict.is_malware() == labels[i] {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.6,
            "stochastic pool program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn rhmd_detection_beats_chance() {
        let (traced, splits) = fixture();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 3);
        let labels = traced.corpus().labels();
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let stream = rhmd.label_subwindows(traced.subwindows(i));
            let verdict = ProgramVerdict::from_decisions(&stream);
            if verdict.is_malware() == labels[i] {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.6,
            "program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn mixed_periods_consume_variable_epochs() {
        let (traced, splits) = fixture();
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Architectural],
            &[5_000, 10_000],
            &[],
        );
        let mut rhmd = build_pool(
            Algorithm::Lr,
            specs,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
            5,
        );
        assert_eq!(rhmd.detectors().len(), 4);
        let stream = rhmd.label_subwindows(traced.subwindows(1));
        assert!(!stream.is_empty());
    }

    #[test]
    fn non_stationary_pool_runs_and_redraws() {
        let (traced, splits) = fixture();
        let kinds = [FeatureKind::Memory, FeatureKind::Architectural, FeatureKind::Instructions];
        let candidates: Vec<Hmd> = pool_specs(&kinds, &[5_000, 10_000], &[Opcode::Xor, Opcode::Fpu])
            .into_iter()
            .map(|spec| {
                Hmd::train(
                    Algorithm::Lr,
                    spec,
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        let mut pool = NonStationaryRhmd::new(candidates, 3, 2, 42);
        assert_eq!(pool.active().len(), 3);
        let first_active = pool.active().to_vec();
        let subs = traced.subwindows(0);
        let stream = pool.label_subwindows(subs);
        assert!(!stream.is_empty());
        // After several epochs the active subset should have been re-drawn.
        assert!(
            pool.active() != first_active.as_slice() || {
                // Redraw can coincidentally pick the same subset; force more
                // epochs and check the RNG advanced.
                let more = pool.decisions(subs);
                !more.is_empty()
            }
        );
        // Determinism via reset.
        pool.reset();
        let replay = pool.label_subwindows(subs);
        pool.reset();
        assert_eq!(pool.label_subwindows(subs), replay);
    }

    #[test]
    fn corrupted_epochs_are_skipped_not_fatal() {
        use rhmd_features::window::apply_faults;
        use rhmd_uarch::faults::{FaultConfig, FaultModel};

        let (traced, splits) = fixture();
        let subs = traced.subwindows(0).to_vec();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 11);

        // Dropped reads coalesce into over-full windows: shorter stream,
        // but the surviving epochs still vote.
        let drops = FaultModel::new(FaultConfig::dropping(0.3), 0xfa17);
        let dropped = apply_faults(&subs, &drops);
        assert!(dropped.len() < subs.len(), "drops must coalesce reads");
        let q = rhmd.quorum_verdict(&dropped, 1.0);
        assert!(q.voted > 0, "walk must vote on coalesced windows");

        // A lost mid-stream window drags its epoch below the fill floor:
        // that epoch abstains, epochs on either side keep voting.
        let mut corrupted = subs.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] = rhmd_features::window::RawWindow::default();
        rhmd.reset();
        let q = rhmd.quorum_verdict(&corrupted, 1.0);
        assert!(q.abstained > 0, "garbage windows should force abstentions");
        assert!(q.voted > 0, "walk must continue past corrupted epochs");

        // A clean stream matches decisions().
        rhmd.reset();
        let clean = rhmd.quorum_verdict(&subs, 1.0);
        rhmd.reset();
        let plain = rhmd.decisions(&subs);
        assert_eq!(clean.voted, plain.len());
    }

    #[test]
    #[should_panic(expected = "active subset size")]
    fn non_stationary_validates_subset_size() {
        let (traced, splits) = fixture();
        let pool = two_detector_pool(&traced, &splits.victim_train, 1);
        let _ = NonStationaryRhmd::new(pool.detectors().to_vec(), 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_pool_rejected() {
        let _ = ResilientHmd::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn bad_probabilities_rejected() {
        let (traced, splits) = fixture();
        let pool = two_detector_pool(&traced, &splits.victim_train, 1);
        let detectors = pool.detectors().to_vec();
        let _ = ResilientHmd::with_probabilities(detectors, vec![0.9, 0.9], 0);
    }
}
