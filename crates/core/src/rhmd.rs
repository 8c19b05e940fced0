//! Resilient HMDs (paper §7): a pool of diverse base detectors with
//! stochastic, unpredictable switching between them.

use crate::detector::{Detector, Epoch, Gaps, StreamRng};
use crate::hmd::{BlackBox, Hmd};
use rhmd_data::TracedCorpus;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{CollectionWindow, RawWindow, Reads, SUBWINDOW};
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
}

impl Detector for ResilientHmd {
    fn name(&self) -> String {
        let parts: Vec<String> = self.detectors.iter().map(Detector::name).collect();
        format!("RHMD{{{}}}", parts.join(", "))
    }

    /// Draws the switching stream from the caller's `rng`: `&self` only,
    /// so two threads can judge different programs concurrently, and the
    /// result for a program depends only on its subwindows and seed —
    /// never on which other programs were judged before it.
    fn walk(&self, reads: Reads<'_>, gaps: Gaps, rng: &mut StreamRng) -> Vec<Epoch> {
        let rng = rng.small();
        switching_walk(&self.detectors, reads, gaps, |_| {
            draw_from(&self.probabilities, rng)
        })
    }
}

impl BlackBox for ResilientHmd {
    /// The walk on the pool's own switching RNG, which carries into the
    /// next query.
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch> {
        switching_walk(
            &self.detectors,
            Reads::Clean(subwindows),
            Gaps::Stop,
            |_| draw_from(&self.probabilities, &mut self.rng),
        )
    }
}

impl fmt::Debug for ResilientHmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientHmd")
            .field("detectors", &self.name())
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

/// Trains one base detector per spec, in spec order on the traced
/// corpus's pool, and assembles an RHMD.
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
    traced.prefetch(train_indices);
    let detectors = traced.pool().map(&specs, |_, spec| {
        Hmd::train(algorithm, spec.clone(), trainer, traced, train_indices)
    });
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
    subset: Subset,
    rng: SmallRng,
    seed: u64,
}

/// The active subset of a [`NonStationaryRhmd`] and its redraw clock —
/// with the RNG, the state a non-stationary walk carries from epoch to
/// epoch, and the stateful pool from query to query.
#[derive(Debug, Clone)]
struct Subset {
    active: Vec<usize>,
    candidates: usize,
    size: usize,
    /// Number of detection epochs between subset re-draws.
    redraw_every: u32,
    /// Epochs judged since the last redraw.
    age: u32,
}

impl Subset {
    /// A freshly drawn subset of `size` among `candidates` (a partial
    /// Fisher-Yates over the candidate indices), its clock at zero.
    fn draw(rng: &mut SmallRng, candidates: usize, size: usize, redraw_every: u32) -> Subset {
        let mut active: Vec<usize> = (0..candidates).collect();
        for i in 0..size {
            let j = rng.gen_range(i..active.len());
            active.swap(i, j);
        }
        active.truncate(size);
        Subset {
            active,
            candidates,
            size,
            redraw_every,
            age: 0,
        }
    }

    /// A fresh draw with this subset's shape.
    fn redrawn(&self, rng: &mut SmallRng) -> Subset {
        Subset::draw(rng, self.candidates, self.size, self.redraw_every)
    }

    /// Picks the next epoch's candidate. Only epochs that kept a window age
    /// the subset (`aged` says whether the previous one did); once
    /// `redraw_every` of them have, the subset is re-drawn first.
    fn pick(&mut self, aged: bool, rng: &mut SmallRng) -> usize {
        self.age += u32::from(aged);
        if self.age >= self.redraw_every {
            *self = self.redrawn(rng);
        }
        self.active[rng.gen_range(0..self.active.len())]
    }
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
        let mut rng = SmallRng::seed_from_u64(seed);
        let subset = Subset::draw(&mut rng, candidates.len(), active_size, redraw_every);
        NonStationaryRhmd {
            candidates,
            subset,
            rng,
            seed,
        }
    }

    /// The full candidate pool.
    pub fn candidates(&self) -> &[Hmd] {
        &self.candidates
    }

    /// Indices of the currently active subset.
    pub fn active(&self) -> &[usize] {
        &self.subset.active
    }

    /// Restarts the RNG and re-draws the initial subset.
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.subset = self.subset.redrawn(&mut self.rng);
    }
}

impl Detector for NonStationaryRhmd {
    fn name(&self) -> String {
        format!(
            "NonStationaryRHMD{{{} of {} candidates, redraw every {} epochs}}",
            self.subset.size,
            self.candidates.len(),
            self.subset.redraw_every
        )
    }

    /// Replays exactly what a freshly constructed pool with the same seed
    /// produces — the constructor's initial subset draw included — from
    /// the caller's `rng`, without mutating shared state: the requirement
    /// for order-independent parallel evaluation.
    fn walk(&self, reads: Reads<'_>, gaps: Gaps, rng: &mut StreamRng) -> Vec<Epoch> {
        let rng = rng.small();
        let mut subset = self.subset.redrawn(rng);
        switching_walk(&self.candidates, reads, gaps, |aged| subset.pick(aged, rng))
    }
}

impl BlackBox for NonStationaryRhmd {
    /// The walk on the pool's own RNG and active subset, both of which
    /// carry into the next query.
    fn query(&mut self, subwindows: &[RawWindow]) -> Vec<Epoch> {
        let (subset, rng) = (&mut self.subset, &mut self.rng);
        switching_walk(&self.candidates, Reads::Clean(subwindows), Gaps::Stop, |aged| {
            subset.pick(aged, rng)
        })
    }
}

/// Draws one base detector by the selection probabilities.
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

/// The epoch walk both randomized pools share. At every epoch `draw`
/// picks a base detector — it is told whether the walk's previous epoch
/// kept a window — and the epoch spans that detector's period. A window
/// below the `gaps` floor ends the walk ([`Gaps::Stop`]: the truncated
/// tail of a clean stream) or abstains while the cursor advances
/// ([`Gaps::Abstain`]), so one corrupted window in the middle of a trace
/// does not silence every epoch after it. The walk ends when the drawn
/// period overruns the trace; that draw is consumed too.
///
/// Draws, the cursor and every break condition depend only on the RNG and
/// window fill — never on scores — so pass 1 collects each epoch's window
/// and pass 2 scores them batched per detector, bit-identically to scoring
/// each epoch inline (the batch path shares the per-row kernels), and
/// reassembles the votes in epoch order.
fn switching_walk(
    detectors: &[Hmd],
    reads: Reads<'_>,
    gaps: Gaps,
    mut draw: impl FnMut(bool) -> usize,
) -> Vec<Epoch> {
    let mut meta: Vec<(usize, bool, usize)> = Vec::new();
    let mut pending: Vec<Vec<CollectionWindow>> = vec![Vec::new(); detectors.len()];
    let mut cursor = 0usize;
    let mut kept = false;
    loop {
        let idx = draw(kept);
        let period = detectors[idx].spec().period;
        let span = (period / SUBWINDOW) as usize;
        let Some(chunk) = reads.get(cursor..cursor + span) else {
            break;
        };
        let window = chunk.aggregate(period, gaps.min_fill()).pop();
        kept = window.is_some();
        if !kept && gaps == Gaps::Stop {
            break;
        }
        pending[idx].extend(window);
        meta.push((idx, kept, span));
        cursor += span;
    }
    let mut votes: Vec<_> = pending
        .iter()
        .zip(detectors)
        .map(|(windows, d)| d.classify_windows_checked(windows).into_iter())
        .collect();
    meta.into_iter()
        .map(|(idx, has_window, span)| Epoch {
            vote: has_window
                .then(|| votes[idx].next().expect("one vote per batched window"))
                .flatten(),
            span,
        })
        .collect()
}

impl fmt::Debug for NonStationaryRhmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NonStationaryRhmd")
            .field("pool", &self.name())
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
        let rhmd = two_detector_pool(&traced, &splits.victim_train, 11);
        let rng = || StreamRng::from_seed(11);

        // Dropped reads coalesce into over-full windows: shorter stream,
        // but the surviving epochs still vote.
        let drops = FaultModel::new(FaultConfig::dropping(0.3), 0xfa17);
        let dropped = apply_faults(&subs, &drops);
        assert!(dropped.len() < subs.len(), "drops must coalesce reads");
        let q = rhmd.quorum(Reads::Faulted(&dropped), 1.0, &mut rng());
        assert!(q.voted > 0, "walk must vote on coalesced windows");

        // A lost mid-stream window drags its epoch below the fill floor:
        // that epoch abstains, epochs on either side keep voting.
        let mut corrupted = subs.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] = rhmd_features::window::RawWindow::default();
        let q = rhmd.quorum(Reads::Clean(&corrupted), 1.0, &mut rng());
        assert!(q.abstained > 0, "garbage windows should force abstentions");
        assert!(q.voted > 0, "walk must continue past corrupted epochs");

        // A clean stream matches epoch_decisions().
        let clean = rhmd.quorum(Reads::Clean(&subs), 1.0, &mut rng());
        let plain = rhmd.epoch_decisions(&subs, &mut rng());
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
