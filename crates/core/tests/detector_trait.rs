//! Trait-object equivalence suite: calls through `dyn Detector` must be
//! bit-identical to the results of the per-family walks they replaced, for
//! all four detector families and across seeds. The replaced walks live on
//! here as frozen copies. This is the contract that lets the evaluator and
//! the figures hold detectors behind one trait without changing a single
//! published number.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rhmd_core::detector::{Detector, StreamRng};
use rhmd_core::ensemble::{Combiner, EnsembleHmd};
use rhmd_core::hmd::{BlackBox, Hmd};
use rhmd_core::rhmd::{build_pool, pool_specs, NonStationaryRhmd, ResilientHmd};
use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{aggregate_with_gaps, CollectionWindow, RawWindow, SUBWINDOW};
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_uarch::CoreConfig;

const SEEDS: [u64; 3] = [1, 42, 0x5eed];

fn fixture() -> (TracedCorpus, Splits) {
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    (traced, splits)
}

fn train_one(traced: &TracedCorpus, train: &[usize], kind: FeatureKind, period: u32) -> Hmd {
    Hmd::train(
        Algorithm::Lr,
        FeatureSpec::new(kind, period, vec![]),
        &TrainerConfig::default(),
        traced,
        train,
    )
}

/// The strict window rule the clean paths used before they folded into the
/// assembler: a chunk is kept only when all of its subwindows are full.
fn frozen_aggregate(subwindows: &[RawWindow], period: u32) -> Vec<CollectionWindow> {
    let per = (period / SUBWINDOW) as usize;
    subwindows
        .chunks(per)
        .filter(|c| c.len() == per && c.iter().all(|w| u32::from(w.instructions) == SUBWINDOW))
        .map(|c| {
            let mut merged = CollectionWindow::default();
            for w in c {
                merged.add(w);
            }
            merged
        })
        .collect()
}

/// Frozen `Hmd::classify_window`: the unchecked decision for one window.
fn frozen_classify(hmd: &Hmd, window: &CollectionWindow) -> bool {
    hmd.model().predict(&hmd.spec().project(window))
}

/// Frozen `Hmd::decide_windows`: strict aggregation, unchecked scoring.
fn frozen_decide_windows(hmd: &Hmd, subwindows: &[RawWindow]) -> Vec<bool> {
    frozen_aggregate(subwindows, hmd.spec().period)
        .iter()
        .map(|w| frozen_classify(hmd, w))
        .collect()
}

/// Frozen `BlackBox::label_subwindows` of the deterministic detectors:
/// each decision replicated across its window's subwindows.
fn frozen_replicate(decisions: &[bool], period: u32) -> Vec<bool> {
    let per = (period / SUBWINDOW) as usize;
    decisions.iter().flat_map(|&d| std::iter::repeat_n(d, per)).collect()
}

#[test]
fn hmd_trait_object_matches_inherent_methods() {
    let (traced, splits) = fixture();
    let hmd = train_one(&traced, &splits.victim_train, FeatureKind::Architectural, 5_000);
    let boxed: Box<dyn Detector> = Box::new(hmd.clone());
    let mut legacy = hmd.clone();
    for i in 0..traced.corpus().len().min(4) {
        let subs = traced.subwindows(i);
        for seed in SEEDS {
            // Deterministic detector: every seed produces the frozen result.
            let decisions = frozen_decide_windows(&hmd, subs);
            let labels = frozen_replicate(&decisions, 5_000);
            assert_eq!(boxed.label_stream(subs, &mut StreamRng::from_seed(seed)), labels);
            assert_eq!(legacy.label_subwindows(subs), labels);
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                decisions
            );
            assert_eq!(hmd.decide_windows(subs), decisions);
            assert_eq!(
                boxed.quorum(subs.into(), 1.0, &mut StreamRng::from_seed(seed)),
                hmd.quorum_verdict(subs, 1.0)
            );
        }
    }
    assert_eq!(boxed.name(), "LR[Architectural@5k]");
}

#[test]
fn ensemble_trait_object_matches_inherent_methods() {
    let (traced, splits) = fixture();
    let detectors: Vec<Hmd> = [FeatureKind::Memory, FeatureKind::Architectural]
        .into_iter()
        .map(|k| train_one(&traced, &splits.victim_train, k, 5_000))
        .collect();
    let ensemble = EnsembleHmd::new(detectors.clone(), Combiner::Majority);
    let boxed: Box<dyn Detector> =
        Box::new(EnsembleHmd::new(detectors.clone(), Combiner::Majority));
    let mut legacy = EnsembleHmd::new(ensemble.detectors().to_vec(), Combiner::Majority);
    for i in 0..traced.corpus().len().min(4) {
        let subs = traced.subwindows(i);
        for seed in SEEDS {
            // Frozen `EnsembleHmd::decide_windows`: every base detector
            // scores every strict window, majority combines.
            let windows = frozen_aggregate(subs, 5_000);
            let decisions: Vec<bool> = windows
                .iter()
                .map(|w| {
                    let flags = detectors.iter().filter(|d| frozen_classify(d, w)).count();
                    2 * flags >= detectors.len()
                })
                .collect();
            let labels = frozen_replicate(&decisions, 5_000);
            assert_eq!(boxed.label_stream(subs, &mut StreamRng::from_seed(seed)), labels);
            assert_eq!(legacy.label_subwindows(subs), labels);
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                decisions
            );
            assert_eq!(
                boxed.quorum(subs.into(), 0.5, &mut StreamRng::from_seed(seed)),
                ensemble.quorum_verdict(subs, 0.5)
            );
        }
    }
    assert_eq!(
        boxed.name(),
        "Ensemble<majority>{LR[Memory@5k], LR[Architectural@5k]}"
    );
}

#[test]
fn resilient_trait_object_matches_seeded_and_serial_walks() {
    let (traced, splits) = fixture();
    for seed in SEEDS {
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Architectural],
            &[5_000, 10_000],
            &[],
        );
        let mut pool = build_pool(
            Algorithm::Lr,
            specs,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
            seed,
        );
        let programs = traced.corpus().len().min(3);
        for i in 0..programs {
            let subs = traced.subwindows(i);
            // The stateful walk from a fresh reset, captured first (it
            // needs `&mut`, the trait object only `&`).
            pool.reset();
            let serial = BlackBox::label_subwindows(&mut pool, subs);
            pool.reset();
            let serial_decisions = BlackBox::decisions(&mut pool, subs);
            let boxed: &dyn Detector = &pool;
            // Any stream seed: a pure function of (subwindows, seed), and
            // order-free — judging another program in between changes nothing.
            let other = traced.subwindows((i + 1) % programs);
            for stream_seed in SEEDS {
                let rng = || StreamRng::from_seed(stream_seed);
                let labels = boxed.label_stream(subs, &mut rng());
                let decisions = boxed.epoch_decisions(subs, &mut rng());
                let quorum = boxed.quorum(subs.into(), 1.0, &mut rng());
                let _ = boxed.quorum(other.into(), 1.0, &mut rng());
                assert_eq!(boxed.label_stream(subs, &mut rng()), labels);
                assert_eq!(boxed.epoch_decisions(subs, &mut rng()), decisions);
                assert_eq!(boxed.quorum(subs.into(), 1.0, &mut rng()), quorum);
            }
            // Trait path == the stateful walk from a fresh reset.
            assert_eq!(
                boxed.label_stream(subs, &mut StreamRng::from_seed(seed)),
                serial
            );
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                serial_decisions
            );
        }
    }
}

#[test]
fn non_stationary_trait_object_matches_fresh_pool() {
    let (traced, splits) = fixture();
    let candidates: Vec<Hmd> = pool_specs(
        &[FeatureKind::Memory, FeatureKind::Architectural],
        &[5_000, 10_000],
        &[],
    )
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
    for seed in SEEDS {
        let mut pool = NonStationaryRhmd::new(candidates.clone(), 2, 2, seed);
        let boxed: Box<dyn Detector> = Box::new(NonStationaryRhmd::new(
            candidates.clone(),
            2,
            2,
            seed,
        ));
        for i in 0..traced.corpus().len().min(3) {
            let subs = traced.subwindows(i);
            pool.reset();
            let stateful = BlackBox::label_subwindows(&mut pool, subs);
            assert_eq!(
                boxed.label_stream(subs, &mut StreamRng::from_seed(seed)),
                stateful,
                "seed {seed}, program {i}"
            );
            pool.reset();
            let decisions = BlackBox::decisions(&mut pool, subs);
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                decisions
            );
        }
    }
}

#[test]
fn heterogeneous_detector_collection_is_usable() {
    let (traced, splits) = fixture();
    let hmd = train_one(&traced, &splits.victim_train, FeatureKind::Architectural, 5_000);
    let ensemble = EnsembleHmd::new(
        vec![
            hmd.clone(),
            train_one(&traced, &splits.victim_train, FeatureKind::Memory, 5_000),
        ],
        Combiner::Majority,
    );
    let pool = ResilientHmd::new(
        vec![
            hmd.clone(),
            train_one(&traced, &splits.victim_train, FeatureKind::Memory, 5_000),
        ],
        7,
    );
    let ns = NonStationaryRhmd::new(
        vec![
            hmd.clone(),
            train_one(&traced, &splits.victim_train, FeatureKind::Memory, 10_000),
        ],
        1,
        2,
        7,
    );
    let zoo: Vec<Box<dyn Detector>> =
        vec![Box::new(hmd), Box::new(ensemble), Box::new(pool), Box::new(ns)];
    let subs = traced.subwindows(0);
    for d in &zoo {
        assert!(!d.name().is_empty());
        let a = d.label_stream(subs, &mut StreamRng::from_seed(9));
        let b = d.label_stream(subs, &mut StreamRng::from_seed(9));
        assert_eq!(a, b, "{} must be a pure function of (subs, seed)", d.name());
        let q = d.quorum(subs.into(), 1.0, &mut StreamRng::from_seed(9));
        assert_eq!(q.voted, d.epoch_decisions(subs, &mut StreamRng::from_seed(9)).len());
    }
}

/// Frozen copy of `ResilientHmd`'s stateful walk from before the families
/// folded into one `Detector::walk`: a pool-owned RNG drawn once per
/// attempted epoch, the walk stopping at the first epoch that overruns the
/// trace or lacks a full window.
struct FrozenResilient<'a> {
    detectors: &'a [Hmd],
    probabilities: &'a [f64],
    rng: SmallRng,
}

impl FrozenResilient<'_> {
    fn draw(&mut self) -> usize {
        let mut u = self.rng.gen::<f64>();
        for (i, &p) in self.probabilities.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        self.probabilities.len() - 1
    }

    fn walk(&mut self, subwindows: &[RawWindow]) -> Vec<(Option<bool>, usize)> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        loop {
            let detector = &self.detectors[self.draw()];
            let per = (detector.spec().period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let chunk = &subwindows[cursor..cursor + per];
            match aggregate_with_gaps(chunk, detector.spec().period, 1.0).pop() {
                Some(window) => out.push((detector.classify_window_checked(&window), per)),
                None => break,
            }
            cursor += per;
        }
        out
    }
}

/// Frozen copy of `NonStationaryRhmd`'s stateful `step` walk: the pool's
/// RNG, active subset and redraw clock all carry from query to query.
struct FrozenNonStationary<'a> {
    candidates: &'a [Hmd],
    active: Vec<usize>,
    active_size: usize,
    redraw_every: u32,
    epochs_since_redraw: u32,
    rng: SmallRng,
}

impl<'a> FrozenNonStationary<'a> {
    fn new(candidates: &'a [Hmd], active_size: usize, redraw_every: u32, seed: u64) -> Self {
        let mut pool = FrozenNonStationary {
            candidates,
            active: Vec::new(),
            active_size,
            redraw_every,
            epochs_since_redraw: 0,
            rng: SmallRng::seed_from_u64(seed),
        };
        pool.redraw();
        pool
    }

    fn redraw(&mut self) {
        let mut indices: Vec<usize> = (0..self.candidates.len()).collect();
        for i in 0..self.active_size {
            let j = self.rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(self.active_size);
        self.active = indices;
    }

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
        let window =
            aggregate_with_gaps(&subwindows[cursor..cursor + per], detector.spec().period, 1.0)
                .pop()?;
        self.epochs_since_redraw += 1;
        Some((detector.classify_window_checked(&window), per))
    }

    fn walk(&mut self, subwindows: &[RawWindow]) -> Vec<(Option<bool>, usize)> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        while let Some((vote, per)) = self.step(subwindows, cursor) {
            out.push((vote, per));
            cursor += per;
        }
        out
    }
}

fn frozen_labels(walk: &[(Option<bool>, usize)]) -> Vec<bool> {
    walk.iter()
        .filter_map(|&(vote, per)| vote.map(|d| std::iter::repeat_n(d, per)))
        .flatten()
        .collect()
}

fn frozen_decisions(walk: &[(Option<bool>, usize)]) -> Vec<bool> {
    walk.iter().filter_map(|&(vote, _)| vote).collect()
}

/// The stateful pools judge a run of programs with no `reset` between
/// them, alternating `label_subwindows` and `decisions`, and match the
/// frozen stateful walks call for call — which pins how many draws each
/// query consumes, not only what it returns. The 1k-period candidates let
/// an epoch end exactly on a program's partial last subwindow, where the
/// clean walk stops instead of drawing again.
#[test]
fn stateful_walks_carry_their_state_across_programs() {
    let (traced, splits) = fixture();
    let candidates: Vec<Hmd> = pool_specs(
        &[FeatureKind::Memory, FeatureKind::Architectural],
        &[1_000, 5_000, 10_000],
        &[],
    )
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
    let n = traced.corpus().len();
    let programs: Vec<usize> = (0..n).step_by(n / 10).collect();
    assert!(programs.len() >= 8);
    for seed in SEEDS {
        let probabilities = [0.25, 0.25, 0.2, 0.1, 0.1, 0.1];
        let mut pool =
            ResilientHmd::with_probabilities(candidates.clone(), probabilities.to_vec(), seed);
        let mut frozen = FrozenResilient {
            detectors: &candidates,
            probabilities: &probabilities,
            rng: SmallRng::seed_from_u64(seed),
        };
        let mut ns = NonStationaryRhmd::new(candidates.clone(), 3, 3, seed);
        let mut frozen_ns = FrozenNonStationary::new(&candidates, 3, 3, seed);
        for &i in &programs {
            let subs = traced.subwindows(i);
            assert_eq!(
                pool.label_subwindows(subs),
                frozen_labels(&frozen.walk(subs)),
                "RHMD seed {seed}, program {i}"
            );
            assert_eq!(
                pool.decisions(subs),
                frozen_decisions(&frozen.walk(subs)),
                "RHMD seed {seed}, program {i}"
            );
            assert_eq!(
                ns.label_subwindows(subs),
                frozen_labels(&frozen_ns.walk(subs)),
                "non-stationary seed {seed}, program {i}"
            );
            assert_eq!(
                ns.decisions(subs),
                frozen_decisions(&frozen_ns.walk(subs)),
                "non-stationary seed {seed}, program {i}"
            );
            assert_eq!(ns.active(), frozen_ns.active.as_slice());
        }
    }
}
