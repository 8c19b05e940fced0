//! Speed floors: the optimized paths must stay bit-identical to the paths
//! they replaced *and* keep paying for themselves.
//!
//! One `#[test]` runs every floor at tiny scale, one after another: the
//! floors time each other's host, and the last one flips the process-global
//! metrics registry on. Each check prints what it measured to stderr
//! (`--nocapture` shows it):
//!
//! - trace: the batched flat-IR pass (`collect_subwindows` + per-spec
//!   projection) ≥1.5x the reference pipeline
//!   (`trace_subwindows_reference` + per-spec projection);
//! - store: reading the mmap'd corpus store back ≥5x regenerating the same
//!   datasets live, with a bounded build time and peak RSS;
//! - fused: the dispatched standardize+dot sweep ≥1.5x the scalar kernel
//!   when the `simd` feature is compiled in and AVX2 is live;
//! - batch (`simd` builds only): `score_batch` ≥0.95x per-row scoring for
//!   LR, NN, RF and SVM;
//! - overhead: the disabled metrics path costs <3% of a metrics-off engine
//!   pass, and a metrics-on pass reproduces its cells.
//!
//! The floors hold only for optimized code, so the test is ignored in debug
//! builds: `cargo test --release -p rhmd-bench --test speed_floors
//! [--features simd]`.

use rhmd_bench::Experiment;
use rhmd_core::engine::Evaluator;
use rhmd_core::hmd::Hmd;
use rhmd_data::{Corpus, CorpusConfig, CorpusStore, StoreBuilder, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::metrics::auc;
use rhmd_ml::model::{score_all, Dataset};
use rhmd_ml::trainer::Algorithm;
use rhmd_obs as obs;
use rhmd_runtime::metrics::preregister_standard;
use rhmd_runtime::pool::Pool;
use std::time::Instant;

/// Best-of trials for every timed path.
const TRIALS: usize = 3;
const MIN_TRACE_SPEEDUP: f64 = 1.5;
const MIN_STORE_SPEEDUP: f64 = 5.0;
const MAX_STORE_BUILD_SECONDS: f64 = 60.0;
/// The whole test process's peak RSS ceiling is `MAX_PEAK_RSS_MIB` plus
/// `MAX_PEAK_RSS_MIB_PER_THREAD` per worker, since every worker adds its own
/// malloc arena, stack and trace scratch. That is about twice the measured
/// peak with `u32` subwindows on a 2-vCPU Linux host, with the worker count
/// forced from 1 to 16: 9, 10, 10, 12–13 and 16 MiB at 1, 2, 4, 8 and 16.
const MAX_PEAK_RSS_MIB: f64 = 18.0;
const MAX_PEAK_RSS_MIB_PER_THREAD: f64 = 1.0;
const MIN_FUSED_SPEEDUP: f64 = 1.5;
#[cfg(feature = "simd")]
const MIN_BATCH_SPEEDUP: f64 = 0.95;
const MAX_DISABLED_OVERHEAD: f64 = 0.03;

#[test]
#[cfg_attr(debug_assertions, ignore = "speed floors hold only in release builds")]
fn speed_floors_hold_at_tiny_scale() {
    let exp = Experiment::with_config(CorpusConfig::tiny());
    trace_floor(&exp);
    store_floor(&exp);
    fused_floor();
    #[cfg(feature = "simd")]
    batch_floor(&exp);
    // Last: it switches the global metrics registry on.
    overhead_ceiling(&exp);
}

/// The best wall-clock of [`TRIALS`] runs of `f`, in seconds.
fn best_of(mut f: impl FnMut()) -> f64 {
    best_of_pair(&mut f, || ()).0
}

/// The best wall-clock of [`TRIALS`] runs each of `a` and `b`, in seconds,
/// alternating the two so host noise lands on both sides alike.
fn best_of_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a.max(1e-12), best_b.max(1e-12))
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every kind at both periods the grid evaluates.
fn specs(exp: &Experiment) -> Vec<FeatureSpec> {
    [10_000, 5_000]
        .into_iter()
        .flat_map(|p| FeatureKind::ALL.map(|k| exp.spec(k, p)))
        .collect()
}

/// The batched flat-IR pass (one execution, every spec projected from its
/// subwindows) against the reference pipeline it replaced (per-event
/// interpreter over the frozen reference µarch, then the same per-spec
/// projection).
fn trace_floor(exp: &Experiment) {
    use rhmd_features::pipeline::{project_windows_into, trace_subwindows_reference};
    use rhmd_features::stream::collect_subwindows;

    let specs = specs(exp);
    let (limits, core) = (exp.traced.limits(), exp.traced.core_config());
    let corpus = exp.traced.corpus();
    let programs = corpus.len().min(24);
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let batched = |id: usize, rows: &mut [Vec<f64>]| {
        let (windows, _) = collect_subwindows(corpus.program(id), limits, core);
        for (spec, out) in specs.iter().zip(rows.iter_mut()) {
            out.clear();
            project_windows_into(&windows, spec, out);
        }
        windows
    };

    for id in 0..programs {
        let reference = trace_subwindows_reference(corpus.program(id), limits, core);
        assert!(
            batched(id, &mut rows) == reference,
            "program {id}: batched subwindows diverged"
        );
        for (spec, rows) in specs.iter().zip(&rows) {
            let mut expect = Vec::new();
            project_windows_into(&reference, spec, &mut expect);
            assert!(
                bits_equal(rows, &expect),
                "program {id}, {}: rows diverged",
                spec.label()
            );
        }
    }

    let (slow, fast) = best_of_pair(
        || {
            for id in 0..programs {
                let windows = trace_subwindows_reference(corpus.program(id), limits, core);
                for spec in &specs {
                    let mut rows = Vec::new();
                    project_windows_into(std::hint::black_box(&windows), spec, &mut rows);
                    std::hint::black_box(&rows);
                }
            }
        },
        || {
            for id in 0..programs {
                std::hint::black_box(batched(id, &mut rows));
                std::hint::black_box(&rows);
            }
        },
    );
    let speedup = slow / fast;
    eprintln!(
        "trace: {programs} programs x {} specs, reference {slow:.3}s vs \
         batched {fast:.3}s ({speedup:.2}x)",
        specs.len()
    );
    assert!(
        speedup >= MIN_TRACE_SPEEDUP,
        "batched trace speedup {speedup:.2}x is below the {MIN_TRACE_SPEEDUP}x floor"
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0 where
/// procfs is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn datasets_identical(a: &Dataset, b: &Dataset) -> bool {
    a.matrix().dims() == b.matrix().dims()
        && a.labels() == b.labels()
        && bits_equal(a.matrix().as_slice(), b.matrix().as_slice())
}

/// Builds a corpus store for the grid's specs, then times regenerating the
/// full-corpus window datasets live (re-trace + project) against opening
/// the store and reading them back through the engine.
fn store_floor(exp: &Experiment) {
    let dir = std::env::temp_dir().join(format!("rhmd-speed-floors-{}", std::process::id()));
    // A stale directory would let the builder resume instead of building.
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Pool::available();
    let specs = specs(exp);
    let every: Vec<usize> = (0..exp.traced.corpus().len()).collect();

    let start = Instant::now();
    let summary = StoreBuilder::new(&dir, exp.config)
        .specs(specs.clone())
        .threads(pool.threads())
        .build()
        .expect("store build");
    let build = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let traced = TracedCorpus::trace_threads(
        Corpus::build(&exp.config),
        exp.traced.limits(),
        exp.traced.core_config(),
        pool.threads(),
    );
    let live: Vec<Dataset> = specs
        .iter()
        .map(|s| traced.window_dataset(&every, s))
        .collect();
    let regenerate = start.elapsed().as_secs_f64();
    drop(traced);

    // Opening the store is part of every second run, so it is timed.
    let mut stored: Vec<Dataset> = Vec::new();
    let read = best_of(|| {
        let store = CorpusStore::open(&dir).expect("store open");
        let engine = Evaluator::builder_from_store(&store, exp.config.seed)
            .pool(pool)
            .build();
        stored = specs
            .iter()
            .map(|s| engine.window_dataset(&every, s))
            .collect();
    });
    let peak = peak_rss_mib();
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = regenerate / read;
    eprintln!(
        "store: build {build:.2}s ({} shards, {} rows); regenerate {regenerate:.3}s vs \
         store read {read:.4}s ({speedup:.1}x); peak RSS {peak:.0} MiB",
        summary.shards, summary.rows
    );
    assert!(summary.shards >= 1 && summary.rows > 0, "empty store");
    assert!(
        live.len() == stored.len()
            && live
                .iter()
                .zip(&stored)
                .all(|(a, b)| datasets_identical(a, b)),
        "store-backed datasets diverged from live regeneration"
    );
    assert!(
        speedup >= MIN_STORE_SPEEDUP,
        "store second-run speedup {speedup:.2}x is below the {MIN_STORE_SPEEDUP}x floor"
    );
    assert!(
        build < MAX_STORE_BUILD_SECONDS,
        "store build took {build:.1}s"
    );
    let ceiling = MAX_PEAK_RSS_MIB + MAX_PEAK_RSS_MIB_PER_THREAD * pool.threads() as f64;
    assert!(
        peak < ceiling,
        "peak RSS {peak:.0} MiB at {} threads (ceiling {ceiling:.0} MiB)",
        pool.threads()
    );
}

/// A splitmix64 step: synthetic kernel inputs that leave the experiment
/// seeds alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fused standardize+dot sweep the linear detectors run per window,
/// scalar kernel vs the feature-dispatched one, on a finite 2,048 x 64
/// matrix of counter-like values (the adversarial inputs are
/// `rhmd-ml`'s `prop_simd` suite's job; a subnormal lane would time a
/// microcode assist, not the kernel).
fn fused_floor() {
    use rhmd_ml::kernel;
    const ROWS: usize = 2_048;
    const DIMS: usize = 64;
    let mut state = 0x5eed_f00d_u64;
    let mut unit = || (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    let w: Vec<f64> = (0..DIMS).map(|_| unit() * 1e-1).collect();
    let mean: Vec<f64> = (0..DIMS).map(|_| unit() * 1e2).collect();
    let std: Vec<f64> = (0..DIMS).map(|_| 1.0 + (unit() * 10.0).abs()).collect();
    let rows: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| {
            (0..DIMS)
                .map(|_| (splitmix(&mut state) % 100_000) as f64)
                .collect()
        })
        .collect();

    for row in &rows {
        let scalar = kernel::scalar::dot_standardized(&w, row, &mean, &std);
        let fused = kernel::dot_standardized(&w, row, &mean, &std);
        assert_eq!(
            scalar.to_bits(),
            fused.to_bits(),
            "fused sweep diverged from scalar"
        );
    }
    let (scalar, fused) = best_of_pair(
        || sweep(&rows, &w, &mean, &std, kernel::scalar::dot_standardized),
        || sweep(&rows, &w, &mean, &std, kernel::dot_standardized),
    );
    let speedup = scalar / fused;
    let live = cfg!(feature = "simd") && kernel::simd::avx2_active();
    eprintln!("fused: scalar {scalar:.4}s vs dispatched {fused:.4}s ({speedup:.2}x, vector path live: {live})");
    if live {
        assert!(
            speedup >= MIN_FUSED_SPEEDUP,
            "fused sweep speedup {speedup:.2}x is below the {MIN_FUSED_SPEEDUP}x floor"
        );
    }
}

/// 100 sweeps of `kernel` over `rows`; generic so each kernel inlines into
/// its own loop.
fn sweep(
    rows: &[Vec<f64>],
    w: &[f64],
    mean: &[f64],
    std: &[f64],
    kernel: impl Fn(&[f64], &[f64], &[f64], &[f64]) -> f64,
) {
    for _ in 0..100 {
        for row in rows {
            std::hint::black_box(kernel(std::hint::black_box(w), row, mean, std));
        }
    }
}

/// Per-row [`rhmd_ml::model::Classifier::score`] against one
/// [`rhmd_ml::model::Classifier::score_batch`] sweep over the held-out
/// windows, per model family.
#[cfg(feature = "simd")]
fn batch_floor(exp: &Experiment) {
    let spec = exp.spec(FeatureKind::Memory, 5_000);
    let train = exp.traced.window_dataset(&exp.splits.victim_train, &spec);
    let test = exp.traced.window_dataset(&exp.splits.attacker_test, &spec);
    let xs = test.matrix();
    // Enough repetitions that the linear kernels run for a measurable time.
    let reps = (200_000 / xs.len().max(1)).max(1);
    for algorithm in [Algorithm::Lr, Algorithm::Nn, Algorithm::Rf, Algorithm::Svm] {
        let model = rhmd_ml::trainer::train(algorithm, &exp.trainer, &train);
        let mut per_row = vec![0.0; xs.len()];
        let mut batch = vec![0.0; xs.len()];
        let (row_seconds, batch_seconds) = best_of_pair(
            || {
                for _ in 0..reps {
                    for (slot, row) in per_row.iter_mut().zip(xs.rows()) {
                        *slot = model.score(std::hint::black_box(row));
                    }
                }
            },
            || {
                for _ in 0..reps {
                    model.score_batch(std::hint::black_box(xs), &mut batch);
                }
            },
        );
        let speedup = row_seconds / batch_seconds;
        eprintln!("batch: {algorithm} per-row {row_seconds:.4}s vs batch {batch_seconds:.4}s ({speedup:.2}x)");
        assert!(
            bits_equal(&per_row, &batch),
            "{algorithm}: batch diverged from per-row"
        );
        assert!(
            speedup >= MIN_BATCH_SPEEDUP,
            "{algorithm}: batch speedup {speedup:.2}x is below the {MIN_BATCH_SPEEDUP}x floor"
        );
    }
}

/// One detector's evaluation on the engine.
#[derive(Debug, PartialEq)]
struct Cell {
    auc: f64,
    sensitivity: f64,
    specificity: f64,
}

/// Scores every detector over the held-out split on a fresh engine.
fn run_engine(exp: &Experiment, grid: &[Hmd]) -> Vec<Cell> {
    let engine = Evaluator::builder(&exp.traced, exp.config.seed)
        .pool(Pool::available())
        .build();
    grid.iter()
        .map(|hmd| {
            let test = engine.window_dataset(&exp.splits.attacker_test, hmd.spec());
            let q = engine.quality_hmd(hmd, &exp.splits.attacker_test);
            Cell {
                auc: auc(&score_all(hmd.model(), &test), test.labels()),
                sensitivity: q.sensitivity_unmodified,
                specificity: q.specificity,
            }
        })
        .collect()
}

/// Prices the disabled metrics path: a microbenched disabled counter call
/// times the events an enabled engine pass records, as a fraction of the
/// metrics-off pass. Leaves the registry enabled.
fn overhead_ceiling(exp: &Experiment) {
    assert!(
        !obs::enabled(),
        "the metrics-off pass must run with metrics off"
    );
    // Linear and shallow models: evaluation cost is window aggregation and
    // projection, where the instrumentation sits.
    let grid: Vec<Hmd> = specs(exp)
        .into_iter()
        .flat_map(|spec| {
            [Algorithm::Lr, Algorithm::Dt, Algorithm::Svm].map(|algorithm| {
                Hmd::train(
                    algorithm,
                    spec.clone(),
                    &exp.trainer,
                    &exp.traced,
                    &exp.splits.victim_train,
                )
            })
        })
        .collect();

    let mut off = Vec::new();
    let off_seconds = best_of(|| off = run_engine(exp, &grid));
    const OPS: u64 = 4_000_000;
    let start = Instant::now();
    for _ in 0..OPS {
        obs::incr(std::hint::black_box("bench.disabled_probe"));
    }
    let ns_per_event = start.elapsed().as_nanos() as f64 / OPS as f64;

    obs::set_enabled(true);
    let mut on = Vec::new();
    let mut events = 0;
    best_of(|| {
        obs::reset();
        preregister_standard();
        on = run_engine(exp, &grid);
        let snapshot = obs::snapshot();
        events = snapshot.counters.values().sum::<u64>()
            + snapshot.histograms.values().map(|h| h.count).sum::<u64>();
    });
    assert_eq!(
        off, on,
        "metrics-on engine cells diverged from the metrics-off pass"
    );

    let overhead = ns_per_event * events as f64 * 1e-9 / off_seconds;
    eprintln!(
        "overhead: {events} events x {ns_per_event:.2} ns = {:.4}% of the {off_seconds:.3}s \
         metrics-off pass",
        100.0 * overhead
    );
    assert!(
        overhead < MAX_DISABLED_OVERHEAD,
        "disabled-path metrics overhead {:.3}% exceeds {:.0}%",
        100.0 * overhead,
        100.0 * MAX_DISABLED_OVERHEAD
    );
}
