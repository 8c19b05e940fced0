//! Trait-object equivalence suite: calls through `dyn Detector` must be
//! bit-identical to the legacy concrete inherent-method results, for all
//! four detector families and across seeds. This is the contract that lets
//! the evaluator and the figures hold detectors behind one trait without
//! changing a single published number.

use rhmd_core::detector::{Detector, StreamRng};
use rhmd_core::ensemble::{Combiner, EnsembleHmd};
use rhmd_core::hmd::{BlackBox, Hmd};
use rhmd_core::rhmd::{build_pool, pool_specs, NonStationaryRhmd, ResilientHmd};
use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
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

#[test]
fn hmd_trait_object_matches_inherent_methods() {
    let (traced, splits) = fixture();
    let hmd = train_one(&traced, &splits.victim_train, FeatureKind::Architectural, 5_000);
    let boxed: Box<dyn Detector> = Box::new(hmd.clone());
    let mut legacy = hmd.clone();
    for i in 0..traced.corpus().len().min(4) {
        let subs = traced.subwindows(i);
        for seed in SEEDS {
            // Deterministic detector: every seed produces the inherent result.
            assert_eq!(
                boxed.label_stream(subs, &mut StreamRng::from_seed(seed)),
                legacy.label_subwindows(subs)
            );
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                hmd.decide_windows(subs)
            );
            assert_eq!(
                boxed.quorum(subs, 1.0, &mut StreamRng::from_seed(seed)),
                hmd.quorum_verdict(subs, 1.0)
            );
        }
    }
    assert_eq!(boxed.name(), legacy.describe());
}

#[test]
fn ensemble_trait_object_matches_inherent_methods() {
    let (traced, splits) = fixture();
    let detectors: Vec<Hmd> = [FeatureKind::Memory, FeatureKind::Architectural]
        .into_iter()
        .map(|k| train_one(&traced, &splits.victim_train, k, 5_000))
        .collect();
    let ensemble = EnsembleHmd::new(detectors.clone(), Combiner::Majority);
    let boxed: Box<dyn Detector> = Box::new(EnsembleHmd::new(detectors, Combiner::Majority));
    let mut legacy = EnsembleHmd::new(ensemble.detectors().to_vec(), Combiner::Majority);
    for i in 0..traced.corpus().len().min(4) {
        let subs = traced.subwindows(i);
        for seed in SEEDS {
            assert_eq!(
                boxed.label_stream(subs, &mut StreamRng::from_seed(seed)),
                legacy.label_subwindows(subs)
            );
            assert_eq!(
                boxed.epoch_decisions(subs, &mut StreamRng::from_seed(seed)),
                ensemble.decide_windows(subs)
            );
            assert_eq!(
                boxed.quorum(subs, 0.5, &mut StreamRng::from_seed(seed)),
                ensemble.quorum_verdict(subs, 0.5)
            );
        }
    }
    assert_eq!(boxed.name(), legacy.describe());
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
            // The legacy stateful walk from a fresh reset, captured first
            // (it needs `&mut`, the trait object only `&`).
            pool.reset();
            let serial = BlackBox::label_subwindows(&mut pool, subs);
            let boxed: &dyn Detector = &pool;
            // Any stream seed: a pure function of (subwindows, seed), and
            // order-free — judging another program in between changes nothing.
            let other = traced.subwindows((i + 1) % programs);
            for stream_seed in SEEDS {
                let rng = || StreamRng::from_seed(stream_seed);
                let labels = boxed.label_stream(subs, &mut rng());
                let decisions = boxed.epoch_decisions(subs, &mut rng());
                let quorum = boxed.quorum(subs, 1.0, &mut rng());
                let _ = boxed.quorum(other, 1.0, &mut rng());
                assert_eq!(boxed.label_stream(subs, &mut rng()), labels);
                assert_eq!(boxed.epoch_decisions(subs, &mut rng()), decisions);
                assert_eq!(boxed.quorum(subs, 1.0, &mut rng()), quorum);
            }
            // Trait path == the legacy stateful walk.
            assert_eq!(
                boxed.label_stream(subs, &mut StreamRng::from_seed(seed)),
                serial
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
        let q = d.quorum(subs, 1.0, &mut StreamRng::from_seed(9));
        assert_eq!(q.voted, d.epoch_decisions(subs, &mut StreamRng::from_seed(9)).len());
    }
}
