//! Serial-vs-parallel equivalence suite: the contract that `--threads N`
//! changes wall-clock and nothing else.
//!
//! Every assertion here is exact (`assert_eq!` on `f64` bit patterns, not
//! tolerances): the engine's claim is bit-exactness, so a 1-ulp drift is a
//! real bug, not noise.

use rhmd_bench::Experiment;
use rhmd_core::engine::Evaluator;
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::detection_quality;
use rhmd_core::rhmd::{build_pool, pool_specs};
use rhmd_core::verdict::VerdictPolicy;
use rhmd_data::CorpusConfig;
use rhmd_features::vector::FeatureKind;
use rhmd_ml::metrics::auc;
use rhmd_ml::model::score_all;
use rhmd_ml::trainer::Algorithm;
use rhmd_runtime::pool::Pool;
use rhmd_uarch::faults::FaultConfig;
use std::sync::OnceLock;

const THREADS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 3] = [0, 0xda7a, u64::MAX];

/// One traced tiny corpus shared by every test in the file (tracing is the
/// expensive part and is itself covered by `trace_threads` equivalence).
fn exp() -> &'static Experiment {
    static EXP: OnceLock<Experiment> = OnceLock::new();
    EXP.get_or_init(|| Experiment::with_config(CorpusConfig::tiny()))
}

fn all_programs() -> Vec<usize> {
    (0..exp().traced.corpus().len()).collect()
}

#[test]
fn feature_vectors_identical_across_thread_counts() {
    let e = exp();
    let indices = all_programs();
    for kind in FeatureKind::ALL {
        let spec = e.spec(kind, 5_000);
        let serial: Vec<Vec<Vec<f64>>> = indices
            .iter()
            .map(|&i| e.traced.program_vectors(i, &spec))
            .collect();
        for threads in THREADS {
            let engine = Evaluator::builder(&e.traced, 0).pool(Pool::new(threads)).build();
            let parallel: Vec<_> = engine
                .pool()
                .map(&indices, |_, &i| engine.vectors(i, &spec));
            for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(s.len(), p.len(), "program {i}, {kind}, threads={threads}");
                assert!(
                    p.iter().eq(s.iter().map(|v| v.as_slice())),
                    "program {i}, {kind}, threads={threads}"
                );
            }
        }
    }
}

#[test]
fn datasets_identical_across_thread_counts_and_seeds() {
    let e = exp();
    let spec = e.spec(FeatureKind::Architectural, 10_000);
    let serial = e.traced.window_dataset(&e.splits.victim_train, &spec);
    for threads in THREADS {
        for run_seed in SEEDS {
            let engine = Evaluator::builder(&e.traced, run_seed).pool(Pool::new(threads)).build();
            let par = engine.window_dataset(&e.splits.victim_train, &spec);
            assert_eq!(par.rows(), serial.rows(), "threads={threads} seed={run_seed:#x}");
            assert_eq!(par.labels(), serial.labels());
        }
    }
}

#[test]
fn trained_models_and_aucs_identical_across_thread_counts() {
    let e = exp();
    let spec = e.spec(FeatureKind::Memory, 5_000);
    // Serial reference: the exact pre-engine training + scoring path.
    let reference = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &e.trainer,
        &e.traced,
        &e.splits.victim_train,
    );
    let ref_test = e.traced.window_dataset(&e.splits.attacker_test, &spec);
    let ref_auc = auc(&score_all(reference.model(), &ref_test), ref_test.labels());

    for threads in THREADS {
        let engine = Evaluator::builder(&e.traced, 7).pool(Pool::new(threads)).build();
        let train = engine.window_dataset(&e.splits.victim_train, &spec);
        let hmd = Hmd::train_on_dataset(Algorithm::Lr, spec.clone(), &e.trainer, &train);
        let test = engine.window_dataset(&e.splits.attacker_test, &spec);
        let roc_auc = auc(&score_all(hmd.model(), &test), test.labels());
        assert_eq!(roc_auc, ref_auc, "threads={threads}");
    }
}

#[test]
fn hmd_verdicts_and_metrics_identical_across_thread_counts() {
    let e = exp();
    for algorithm in [Algorithm::Lr, Algorithm::Dt, Algorithm::Svm] {
        let mut hmd = Hmd::train(
            algorithm,
            e.spec(FeatureKind::Architectural, 5_000),
            &e.trainer,
            &e.traced,
            &e.splits.victim_train,
        );
        let serial = detection_quality(&mut hmd, &e.traced, &e.splits.attacker_test);
        for threads in THREADS {
            let engine = Evaluator::builder(&e.traced, 0).pool(Pool::new(threads)).build();
            let par = engine.quality_hmd(&hmd, &e.splits.attacker_test);
            let at = format!("{algorithm}, threads={threads}");
            assert_eq!(par.sensitivity_unmodified, serial.sensitivity_unmodified, "{at}");
            assert_eq!(par.specificity, serial.specificity, "{at}");
        }
    }
}

#[test]
fn rhmd_quality_identical_across_thread_counts_and_run_seeds() {
    let e = exp();
    let rhmd = build_pool(
        Algorithm::Lr,
        pool_specs(&[FeatureKind::Memory, FeatureKind::Architectural], &[5_000], &[]),
        &e.trainer,
        &e.traced,
        &e.splits.victim_train,
        0x5eed,
    );
    for run_seed in SEEDS {
        let reference = Evaluator::builder(&e.traced, run_seed).pool(Pool::new(1)).build()
            .quality_rhmd(&rhmd, &e.splits.attacker_test);
        for threads in &THREADS[1..] {
            let par = Evaluator::builder(&e.traced, run_seed).pool(Pool::new(*threads)).build()
                .quality_rhmd(&rhmd, &e.splits.attacker_test);
            assert_eq!(
                (par.sensitivity_unmodified, par.specificity),
                (reference.sensitivity_unmodified, reference.specificity),
                "threads={threads} seed={run_seed:#x}"
            );
        }
    }
}

#[test]
fn degraded_verdicts_identical_across_thread_counts_and_fault_configs() {
    let e = exp();
    let hmd = Hmd::train(
        Algorithm::Lr,
        e.spec(FeatureKind::Architectural, 10_000),
        &e.trainer,
        &e.traced,
        &e.splits.victim_train,
    );
    let policy = VerdictPolicy::majority();
    let faults = [
        FaultConfig::none(),
        FaultConfig::noise(0.2),
        FaultConfig::dropping(0.3),
        FaultConfig::bursty(0.05, 4),
        FaultConfig::wrapping(12),
    ];
    for config in faults {
        for fault_seed in SEEDS {
            let serial = Evaluator::builder(&e.traced, 0).pool(Pool::new(1)).build().degraded_quality(
                &e.splits.attacker_test,
                config,
                &policy,
                0.25,
                |i| fault_seed ^ i as u64,
                |_, subs| hmd.quorum_verdict(subs, 0.5),
            );
            for threads in &THREADS[1..] {
                let par = Evaluator::builder(&e.traced, 0).pool(Pool::new(*threads)).build().degraded_quality(
                    &e.splits.attacker_test,
                    config,
                    &policy,
                    0.25,
                    |i| fault_seed ^ i as u64,
                    |_, subs| hmd.quorum_verdict(subs, 0.5),
                );
                assert_eq!(par, serial, "threads={threads} fault={config:?} seed={fault_seed:#x}");
            }
        }
    }
}

#[test]
fn cache_reuse_does_not_change_results() {
    let e = exp();
    let spec = e.spec(FeatureKind::Instructions, 5_000);
    let engine = Evaluator::builder(&e.traced, 3).pool(Pool::new(2)).build();
    // First pass populates the cache, second is served from it entirely.
    let cold = engine.window_dataset(&e.splits.attacker_test, &spec);
    let warm = engine.window_dataset(&e.splits.attacker_test, &spec);
    assert_eq!(cold.rows(), warm.rows());
    assert!(engine.cache().stats().hits > 0, "second pass must hit");
    // And both equal the uncached serial computation.
    let serial = e.traced.window_dataset(&e.splits.attacker_test, &spec);
    assert_eq!(warm.rows(), serial.rows());
}

#[test]
fn tracing_identical_across_thread_counts() {
    use rhmd_data::{Corpus, TracedCorpus};
    use rhmd_uarch::CoreConfig;

    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let serial = TracedCorpus::trace_threads(
        corpus.clone(),
        config.limits(),
        CoreConfig::default(),
        1,
    );
    for threads in &THREADS[1..] {
        let par = TracedCorpus::trace_threads(
            corpus.clone(),
            config.limits(),
            CoreConfig::default(),
            *threads,
        );
        let all: Vec<usize> = (0..corpus.len()).collect();
        par.prefetch(&all);
        for i in 0..corpus.len() {
            assert_eq!(par.subwindows(i), serial.subwindows(i), "program {i}, threads={threads}");
        }
    }
}
