//! Throughput benchmark of the parallel corpus-evaluation engine — and the
//! observability overhead gate.
//!
//! Trains one grid of detectors (shared, untimed), then scores every
//! detector over the held-out corpus three times: once the way the
//! pre-engine code did it (serial loop, every detector re-projecting its
//! own datasets), once on the [`Evaluator`] with metrics off (work fans
//! out over the pool, projections land in the feature-vector cache), and
//! once on the engine with the metrics registry enabled. Verifies all
//! three paths are bit-identical, measures the disabled-path cost of the
//! instrumentation (a microbenched counter bump times the number of events
//! an enabled run actually records), asserts it stays under 3% of the
//! engine wall-clock, and writes everything to `BENCH_par.json`.
//!
//! Run with `RHMD_SCALE=tiny cargo run --release -p rhmd-bench --bin
//! bench_par` for a quick pass. `--metrics <path>` / `--metrics-summary`
//! additionally export the enabled pass's snapshot. See `--help`.

use rhmd_bench::flags::parse_env_args;
use rhmd_bench::Experiment;
use rhmd_core::engine::{CacheStats, Evaluator};
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::detection_quality;
use rhmd_data::{Corpus, CorpusStore, StoreBuilder, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::metrics::auc;
use rhmd_ml::model::{score_all, Dataset};
use rhmd_ml::trainer::Algorithm;
use rhmd_obs as obs;
use rhmd_runtime::metrics::preregister_standard;
use rhmd_runtime::pool::Pool;
use serde::Serialize;
use std::time::Instant;

// Linear/shallow models: their inference is a dot product or a short tree
// walk, so evaluation cost is dominated by window aggregation + projection
// — the part the cache elides. (NN/RF inference would dominate either
// path equally and only dilute the comparison.)
const ALGOS: [Algorithm; 3] = [Algorithm::Lr, Algorithm::Dt, Algorithm::Svm];
const PERIODS: [u32; 2] = [10_000, 5_000];

/// The acceptance ceiling on the disabled-path instrumentation cost.
const MAX_DISABLED_OVERHEAD: f64 = 0.03;

/// One detector's evaluation result — compared bit-for-bit between paths.
#[derive(Debug, PartialEq)]
struct Cell {
    label: String,
    auc: f64,
    sensitivity: f64,
    specificity: f64,
}

/// The `BENCH_par.json` document (vendored serde_json has no `json!`
/// macro, so the report is a plain derive).
#[derive(Debug, Serialize)]
struct Report {
    workload: Workload,
    threads: usize,
    available_parallelism: usize,
    serial_seconds: f64,
    serial_program_evals_per_second: f64,
    parallel_cached_seconds: f64,
    parallel_cached_program_evals_per_second: f64,
    speedup: f64,
    cache_hit_rate: f64,
    cache: CacheStats,
    results_bit_identical: bool,
    kernels: Vec<KernelBench>,
    fused: FusedKernelBench,
    quant_kernels: Vec<QuantKernelBench>,
    bench_trace: TraceBench,
    bench_store: StoreBench,
    metrics: MetricsOverhead,
}

/// One model family's kernel throughput: the same held-out feature matrix
/// scored row-by-row through [`rhmd_ml::model::Classifier::score`] and in
/// one [`rhmd_ml::model::Classifier::score_batch`] sweep, best of trials.
#[derive(Debug, Serialize)]
struct KernelBench {
    family: &'static str,
    rows: usize,
    dims: usize,
    per_row_rows_per_sec: f64,
    batch_rows_per_sec: f64,
    speedup: f64,
    /// Whether the two paths produced bit-identical scores (they share the
    /// same kernels, so anything else is a bug).
    bit_identical: bool,
}

/// The four model families the kernel report covers. RF scores batches
/// through the trait's default per-row loop, so its row is a control.
const KERNEL_FAMILIES: [Algorithm; 4] =
    [Algorithm::Lr, Algorithm::Nn, Algorithm::Rf, Algorithm::Svm];

/// Measures per-row vs batched scoring throughput per model family over the
/// held-out windows, and checks the two paths agree to the last bit.
fn kernel_benches(exp: &Experiment) -> Vec<KernelBench> {
    let spec = exp.spec(FeatureKind::Memory, 5_000);
    let train = exp.traced.window_dataset(&exp.splits.victim_train, &spec);
    let test = exp.traced.window_dataset(&exp.splits.attacker_test, &spec);
    let xs = test.matrix();
    let rows = xs.len();
    // Enough repetitions that even the linear kernels run for a measurable
    // stretch at tiny scale.
    let reps = (200_000 / rows.max(1)).max(1);
    const TRIALS: usize = 3;
    KERNEL_FAMILIES
        .iter()
        .map(|&algorithm| {
            let model = rhmd_ml::trainer::train(algorithm, &exp.trainer, &train);
            let mut per_row = vec![0.0; rows];
            let mut batch = vec![0.0; rows];
            let mut per_row_seconds = f64::INFINITY;
            let mut batch_seconds = f64::INFINITY;
            for _ in 0..TRIALS {
                let start = Instant::now();
                for _ in 0..reps {
                    for (slot, row) in per_row.iter_mut().zip(xs.rows()) {
                        *slot = model.score(std::hint::black_box(row));
                    }
                }
                per_row_seconds = per_row_seconds.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                for _ in 0..reps {
                    model.score_batch(std::hint::black_box(xs), &mut batch);
                }
                batch_seconds = batch_seconds.min(start.elapsed().as_secs_f64());
            }
            let scored = (rows * reps) as f64;
            let bit_identical = per_row
                .iter()
                .zip(&batch)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            KernelBench {
                family: algorithm.name(),
                rows,
                dims: xs.dims(),
                per_row_rows_per_sec: scored / per_row_seconds.max(1e-12),
                batch_rows_per_sec: scored / batch_seconds.max(1e-12),
                speedup: per_row_seconds / batch_seconds.max(1e-12),
                bit_identical,
            }
        })
        .collect()
}

/// The fused standardize+dot sweep, scalar vs the feature-dispatched kernel
/// (`rhmd_ml::kernel::dot_standardized`), on a synthetic wide matrix whose
/// values include the adversarial cases the kernels must agree on bit-for-bit
/// (huge magnitudes past the standardizer clamp, subnormals, NaN/Inf).
#[derive(Debug, Serialize)]
struct FusedKernelBench {
    rows: usize,
    dims: usize,
    /// Whether the crate was compiled with the `simd` cargo feature.
    simd_feature_compiled: bool,
    /// Whether AVX2 was detected at runtime, so the vector path actually ran.
    avx2_detected: bool,
    scalar_rows_per_sec: f64,
    fused_rows_per_sec: f64,
    speedup_vs_scalar: f64,
    /// Scalar and dispatched sweeps must agree to the last bit — the SIMD
    /// kernel reproduces the scalar summation order exactly.
    bit_identical: bool,
}

/// The floor the SIMD fused sweep must clear over the scalar kernels when
/// the vector path is compiled in and the CPU supports it.
const MIN_SIMD_SPEEDUP: f64 = 1.5;

/// A tiny deterministic PRNG for the synthetic kernel workload (the bench
/// must not perturb the experiment seeds).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn synthetic_value(state: &mut u64) -> f64 {
    let r = splitmix(state);
    match r % 64 {
        // Rare adversarial probes: the fused kernel zeroes non-finite
        // counters and clamps huge magnitudes; both paths must agree.
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e13,
        4 => -1e13,
        5 => 1e-310, // subnormal
        _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0e4 - 1.0e4,
    }
}

/// Benchmarks the fused standardize+dot sweep the linear detectors run per
/// window: scalar reference vs the feature-dispatched kernel.
///
/// Bit-identity is checked on an *adversarial* matrix (NaN/Inf, subnormals,
/// magnitudes past the standardizer clamp) while throughput is timed on a
/// realistic finite matrix — hardware counters never produce subnormals,
/// and a single subnormal lane drags a whole vector op through a microcoded
/// FP assist, so timing the adversarial matrix would understate both paths.
fn fused_kernel_bench() -> FusedKernelBench {
    use rhmd_ml::kernel;
    const ROWS: usize = 2_048;
    const DIMS: usize = 64;
    const REPS: usize = 100;
    const TRIALS: usize = 3;
    let mut state = 0x5eed_f00d_u64;
    let adversarial: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| (0..DIMS).map(|_| synthetic_value(&mut state)).collect())
        .collect();
    // Model parameters are always finite (the standardizer floors `std` and
    // a fitter never emits NaN weights); only counter rows are adversarial.
    let mut finite = |scale: f64| {
        let r = splitmix(&mut state);
        ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
    };
    let w: Vec<f64> = (0..DIMS).map(|_| finite(1e-1)).collect();
    let mean: Vec<f64> = (0..DIMS).map(|_| finite(1e2)).collect();
    let std: Vec<f64> = (0..DIMS).map(|_| 1.0 + finite(10.0).abs()).collect();
    let mut state2 = 0xcafe_f00d_u64;
    let realistic: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| {
            (0..DIMS)
                .map(|_| (splitmix(&mut state2) % 100_000) as f64)
                .collect()
        })
        .collect();

    let bit_identical = adversarial.iter().all(|row| {
        kernel::scalar::dot_standardized(&w, row, &mean, &std).to_bits()
            == kernel::dot_standardized(&w, row, &mean, &std).to_bits()
    }) && realistic.iter().all(|row| {
        kernel::scalar::dot_standardized(&w, row, &mean, &std).to_bits()
            == kernel::dot_standardized(&w, row, &mean, &std).to_bits()
    });

    let mut sink = 0.0f64;
    let mut scalar_seconds = f64::INFINITY;
    let mut fused_seconds = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..REPS {
            for row in &realistic {
                sink += kernel::scalar::dot_standardized(
                    std::hint::black_box(&w),
                    std::hint::black_box(row),
                    &mean,
                    &std,
                );
            }
        }
        scalar_seconds = scalar_seconds.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..REPS {
            for row in &realistic {
                sink += kernel::dot_standardized(
                    std::hint::black_box(&w),
                    std::hint::black_box(row),
                    &mean,
                    &std,
                );
            }
        }
        fused_seconds = fused_seconds.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    let scored = (ROWS * REPS) as f64;
    FusedKernelBench {
        rows: ROWS,
        dims: DIMS,
        simd_feature_compiled: cfg!(feature = "simd"),
        avx2_detected: kernel::simd::avx2_active(),
        scalar_rows_per_sec: scored / scalar_seconds.max(1e-12),
        fused_rows_per_sec: scored / fused_seconds.max(1e-12),
        speedup_vs_scalar: scalar_seconds / fused_seconds.max(1e-12),
        bit_identical,
    }
}

/// One quantized model's error-envelope and throughput evidence: the
/// quantized scores must sit inside the analytic bound per row, and the
/// batched path must reproduce per-row scoring bit-for-bit.
#[derive(Debug, Serialize)]
struct QuantKernelBench {
    family: &'static str,
    config: String,
    rows: usize,
    max_abs_error: f64,
    max_error_bound: f64,
    within_envelope: bool,
    batch_bit_identical: bool,
    batch_rows_per_sec: f64,
}

/// Scores `exact` and `quant` over the held-out windows, checking the
/// analytic per-row error envelope and batch/per-row bit-identity.
fn quant_bench(
    family: &'static str,
    config: rhmd_ml::QuantConfig,
    exact: &dyn rhmd_ml::model::Classifier,
    quant: &dyn rhmd_ml::model::Classifier,
    bound: impl Fn(&[f64]) -> f64,
    xs: &rhmd_ml::FeatureMatrix,
) -> QuantKernelBench {
    let rows = xs.len();
    let mut max_abs_error = 0.0f64;
    let mut max_error_bound = 0.0f64;
    let mut within_envelope = true;
    let mut per_row = vec![0.0; rows];
    for (slot, row) in per_row.iter_mut().zip(xs.rows()) {
        *slot = quant.score(row);
        let err = (*slot - exact.score(row)).abs();
        let env = bound(row);
        max_abs_error = max_abs_error.max(err);
        max_error_bound = max_error_bound.max(env);
        within_envelope &= err <= env + 1e-9;
    }
    let mut batch = vec![0.0; rows];
    let reps = (200_000 / rows.max(1)).max(1);
    let mut batch_seconds = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            quant.score_batch(std::hint::black_box(xs), &mut batch);
        }
        batch_seconds = batch_seconds.min(start.elapsed().as_secs_f64());
    }
    QuantKernelBench {
        family,
        config: format!("{}/{}", config.bits.name(), config.rounding.name()),
        rows,
        max_abs_error,
        max_error_bound,
        within_envelope,
        batch_bit_identical: per_row
            .iter()
            .zip(&batch)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        batch_rows_per_sec: (rows * reps) as f64 / batch_seconds.max(1e-12),
    }
}

/// Builds int4/int8/int16 × nearest/stochastic variants of the linear +
/// MLP detectors and pins each one inside its error envelope (int4 is the
/// width coarse enough for stochastic rounding to act as a defense, so its
/// envelope is the one the resilience experiments lean on).
fn quant_benches(exp: &Experiment) -> Vec<QuantKernelBench> {
    use rhmd_ml::{QuantBits, QuantConfig, QuantizedLinear, QuantizedMlp};
    let spec = exp.spec(FeatureKind::Memory, 5_000);
    let train = exp.traced.window_dataset(&exp.splits.victim_train, &spec);
    let test = exp.traced.window_dataset(&exp.splits.attacker_test, &spec);
    let xs = test.matrix();
    let configs = [
        QuantConfig::nearest(QuantBits::Int8),
        QuantConfig::nearest(QuantBits::Int16),
        QuantConfig::stochastic(QuantBits::Int16, 0xbead),
        QuantConfig::stochastic(QuantBits::Int4, 0xbead),
    ];
    let lr = rhmd_ml::LogisticRegression::fit(&exp.trainer.lr, &train);
    let svm = rhmd_ml::LinearSvm::fit(&exp.trainer.svm, &train);
    let nn = rhmd_ml::Mlp::fit(&exp.trainer.mlp, &train);
    let mut out = Vec::new();
    for config in configs {
        let qlr = QuantizedLinear::from_lr(&lr, config, &train);
        out.push(quant_bench("LR", config, &lr, &qlr, |x| qlr.score_error_bound(x), xs));
        let qsvm = QuantizedLinear::from_svm(&svm, config, &train);
        out.push(quant_bench("SVM", config, &svm, &qsvm, |x| qsvm.score_error_bound(x), xs));
        let qnn = QuantizedMlp::from_mlp(&nn, config, &train);
        out.push(quant_bench("NN", config, &nn, &qnn, |x| qnn.score_error_bound(x), xs));
    }
    out
}

/// The trace-phase hot path: the seed-era two-phase pipeline (per-event
/// interpreter → buffered subwindows → per-spec projection) against the
/// batched flat-IR streaming pass (one execution, every spec a lane,
/// rows written straight into reused buffers) — same programs, same specs.
#[derive(Debug, Serialize)]
struct TraceBench {
    programs: usize,
    lanes: usize,
    /// Committed instructions per pass, summed over the programs.
    instructions: u64,
    /// The pre-refactor path, frozen in `rhmd_uarch::reference`: reference
    /// interpreter over the seed-era scan-based µarch structures +
    /// `Vec<RawWindow>` + per-spec projection (best of trials).
    two_phase_seconds: f64,
    /// The streaming path: one batched pass per program (best of trials).
    streaming_seconds: f64,
    two_phase_minstr_per_sec: f64,
    streaming_minstr_per_sec: f64,
    /// `two_phase_seconds / streaming_seconds`.
    speedup: f64,
    /// Whether the batched subwindows AND every streamed lane's rows
    /// reproduced the two-phase pipeline bit-for-bit on every program.
    bit_identical: bool,
}

/// Benchmarks the two trace paths and pins their bit-identity.
fn trace_bench(exp: &Experiment) -> TraceBench {
    use rhmd_features::pipeline::{project_windows_into, trace_subwindows_reference};
    use rhmd_features::stream::{collect_subwindows, stream_features_into};

    let specs = specs(exp);
    let limits = exp.traced.limits();
    let core_config = exp.traced.core_config();
    let corpus = exp.traced.corpus();
    let n = corpus.len().min(24);
    const TRIALS: usize = 3;

    // Correctness first: batched subwindows and streamed rows must match
    // the per-event two-phase pipeline bit-for-bit on every program.
    let mut bit_identical = true;
    let mut instructions = 0u64;
    let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    for id in 0..n {
        let program = corpus.program(id);
        let reference = trace_subwindows_reference(program, limits, core_config);
        let (batched, summary) = collect_subwindows(program, limits, core_config);
        bit_identical &= batched == reference;
        instructions += summary.instructions;
        for buf in &mut streamed {
            buf.clear();
        }
        let mut outs: Vec<&mut Vec<f64>> = streamed.iter_mut().collect();
        stream_features_into(program, limits, core_config, &specs, &mut outs);
        for (spec, out) in specs.iter().zip(&streamed) {
            let mut expect = Vec::new();
            project_windows_into(&reference, spec, &mut expect);
            bit_identical &= out.len() == expect.len()
                && out.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
        }
    }

    let mut two_phase_seconds = f64::INFINITY;
    let mut streaming_seconds = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for id in 0..n {
            let windows =
                trace_subwindows_reference(corpus.program(id), limits, core_config);
            for spec in &specs {
                let mut buf = Vec::new();
                project_windows_into(std::hint::black_box(&windows), spec, &mut buf);
                std::hint::black_box(&buf);
            }
        }
        two_phase_seconds = two_phase_seconds.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for id in 0..n {
            for buf in &mut streamed {
                buf.clear();
            }
            let mut outs: Vec<&mut Vec<f64>> = streamed.iter_mut().collect();
            stream_features_into(corpus.program(id), limits, core_config, &specs, &mut outs);
            std::hint::black_box(&streamed);
        }
        streaming_seconds = streaming_seconds.min(start.elapsed().as_secs_f64());
    }

    TraceBench {
        programs: n,
        lanes: specs.len(),
        instructions,
        two_phase_seconds,
        streaming_seconds,
        two_phase_minstr_per_sec: instructions as f64 / 1e6 / two_phase_seconds.max(1e-12),
        streaming_minstr_per_sec: instructions as f64 / 1e6 / streaming_seconds.max(1e-12),
        speedup: two_phase_seconds / streaming_seconds.max(1e-12),
        bit_identical,
    }
}

/// The floor the streaming trace path must clear over the two-phase
/// pipeline (held conservative so tiny-scale CI runs pass; standard scale
/// lands well above it).
const MIN_TRACE_SPEEDUP: f64 = 1.5;

/// The corpus-store data plane: trace-once build cost, then the mmap'd
/// second-run read path against regenerating the same features live
/// (trace + project), with bit-identity between the two and the process
/// peak RSS as evidence the store does not inflate memory.
#[derive(Debug, Serialize)]
struct StoreBench {
    programs: usize,
    canonical: usize,
    duplicates: usize,
    dedup_ratio: f64,
    shards: usize,
    rows: u64,
    store_bytes: u64,
    /// Trace-once store build (parallel, checkpointed), paid a single time.
    build_seconds: f64,
    /// What every later run pays *without* the store: re-trace the corpus
    /// and project every grid spec.
    regenerate_seconds: f64,
    /// What a later run pays *with* the store: open, mmap, read the same
    /// datasets back through the engine (best of trials, open included).
    store_read_seconds: f64,
    /// `regenerate_seconds / store_read_seconds` — the second-run payoff.
    second_run_speedup: f64,
    /// Whether store-backed datasets matched the regenerated ones
    /// bit-for-bit (labels, dims, and every `f64` row value).
    bit_identical: bool,
    /// `VmHWM` of this process in MiB after the store pass (0.0 where
    /// procfs is unavailable) — CI bounds it.
    peak_rss_mib: f64,
}

/// The floor the mmap'd second run must clear over live regeneration.
const MIN_STORE_SPEEDUP: f64 = 5.0;

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or 0.0 where procfs is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bitwise dataset equality: dims, labels, and every row value's bits.
fn datasets_identical(a: &Dataset, b: &Dataset) -> bool {
    a.matrix().dims() == b.matrix().dims()
        && a.labels() == b.labels()
        && a.matrix().as_slice().len() == b.matrix().as_slice().len()
        && a.matrix()
            .as_slice()
            .iter()
            .zip(b.matrix().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Builds a corpus store for the grid's specs in a scratch directory, then
/// times regenerating the full-corpus window datasets live against reading
/// them back through the store-backed engine.
fn store_bench(exp: &Experiment, pool: Pool) -> Result<StoreBench, rhmd_core::RhmdError> {
    let dir = std::env::temp_dir().join(format!("rhmd-bench-store-{}", std::process::id()));
    // A stale directory from a crashed run would let the builder resume
    // instead of measuring a full build.
    let _ = std::fs::remove_dir_all(&dir);
    let specs = specs(exp);
    let every: Vec<usize> = (0..exp.traced.corpus().len()).collect();

    let start = Instant::now();
    let summary = StoreBuilder::new(&dir, exp.config)
        .specs(specs.clone())
        .threads(pool.threads())
        .build()?;
    let build_seconds = start.elapsed().as_secs_f64();

    // The no-store path: trace the whole corpus from scratch and project
    // every spec, exactly what a second experiment run would redo.
    let start = Instant::now();
    let corpus = Corpus::build(&exp.config);
    let traced = TracedCorpus::trace_threads(
        corpus,
        exp.traced.limits(),
        exp.traced.core_config(),
        pool.threads(),
    );
    let live: Vec<Dataset> =
        specs.iter().map(|spec| traced.window_dataset(&every, spec)).collect();
    let regenerate_seconds = start.elapsed().as_secs_f64();
    drop(traced);

    // The store path: open + mmap + read the same datasets back. Open cost
    // is inside the timer — it is part of every second run.
    let mut store_read_seconds = f64::INFINITY;
    let mut stored: Vec<Dataset> = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let store = CorpusStore::open(&dir)?;
        let engine = Evaluator::builder_from_store(&store, exp.config.seed).pool(pool).build();
        stored = specs.iter().map(|spec| engine.window_dataset(&every, spec)).collect();
        store_read_seconds = store_read_seconds.min(start.elapsed().as_secs_f64());
    }

    let bit_identical =
        live.len() == stored.len() && live.iter().zip(&stored).all(|(a, b)| datasets_identical(a, b));
    let peak_rss = peak_rss_mib();
    let _ = std::fs::remove_dir_all(&dir);

    Ok(StoreBench {
        programs: summary.programs,
        canonical: summary.canonical,
        duplicates: summary.duplicates,
        dedup_ratio: summary.duplicates as f64 / summary.programs.max(1) as f64,
        shards: summary.shards,
        rows: summary.rows,
        store_bytes: summary.bytes,
        build_seconds,
        regenerate_seconds,
        store_read_seconds,
        second_run_speedup: regenerate_seconds / store_read_seconds.max(1e-12),
        bit_identical,
        peak_rss_mib: peak_rss,
    })
}

/// The observability overhead gate's evidence, kept in the report so every
/// run re-documents the disabled-path cost.
#[derive(Debug, Serialize)]
struct MetricsOverhead {
    /// Engine wall-clock with the registry enabled (best of trials).
    enabled_seconds: f64,
    /// Instrumentation events one enabled engine pass records (counter
    /// increments + histogram observations).
    events_per_pass: u64,
    /// Microbenched cost of one disabled-path counter call.
    disabled_ns_per_event: f64,
    /// `events_per_pass x disabled_ns_per_event` as a fraction of the
    /// metrics-off engine wall-clock — the number gated below 3%.
    disabled_overhead_fraction: f64,
    /// Whether the enabled pass reproduced the other two bit-for-bit.
    enabled_results_bit_identical: bool,
}

fn specs(exp: &Experiment) -> Vec<FeatureSpec> {
    PERIODS
        .iter()
        .flat_map(|&p| FeatureKind::ALL.iter().map(move |&k| (k, p)))
        .map(|(k, p)| exp.spec(k, p))
        .collect()
}

/// Trains the detector grid once; all measured paths evaluate the *same*
/// detectors, so any timing difference is purely the evaluation engine.
fn train_grid(exp: &Experiment) -> Vec<Hmd> {
    specs(exp)
        .into_iter()
        .flat_map(|spec| {
            ALGOS.map(|algorithm| {
                Hmd::train(
                    algorithm,
                    spec.clone(),
                    &exp.trainer,
                    &exp.traced,
                    &exp.splits.victim_train,
                )
            })
        })
        .collect()
}

/// The pre-engine path: every detector re-projects its own evaluation
/// datasets from scratch, one program at a time.
fn run_serial(exp: &Experiment, grid: &mut [Hmd]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for hmd in grid {
        let test = exp.traced.window_dataset(&exp.splits.attacker_test, hmd.spec());
        let roc_auc = auc(&score_all(hmd.model(), &test), test.labels());
        let q = detection_quality(hmd, &exp.traced, &exp.splits.attacker_test);
        cells.push(Cell {
            label: format!("{}/{}", hmd.algorithm(), hmd.spec().label()),
            auc: roc_auc,
            sensitivity: q.sensitivity_unmodified,
            specificity: q.specificity,
        });
    }
    cells
}

/// The engine path: projections fan out over the pool and land in the
/// cache, so the other algorithms on each spec hit instead of recomputing.
fn run_engine(exp: &Experiment, engine: &Evaluator<'_>, grid: &[Hmd]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for hmd in grid {
        let test = engine.window_dataset(&exp.splits.attacker_test, hmd.spec());
        let roc_auc = auc(&score_all(hmd.model(), &test), test.labels());
        let q = engine.quality_hmd(hmd, &exp.splits.attacker_test);
        cells.push(Cell {
            label: format!("{}/{}", hmd.algorithm(), hmd.spec().label()),
            auc: roc_auc,
            sensitivity: q.sensitivity_unmodified,
            specificity: q.specificity,
        });
    }
    cells
}

/// Microbenches one disabled-path counter call (the relaxed enabled-check
/// plus early return every instrumentation site pays when metrics are off).
fn disabled_ns_per_event() -> f64 {
    assert!(!obs::enabled(), "microbench must run with metrics off");
    const OPS: u64 = 4_000_000;
    let start = Instant::now();
    for _ in 0..OPS {
        obs::incr(std::hint::black_box("bench.disabled_probe"));
    }
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// Instrumentation events recorded in a snapshot: every counter increment
/// and every histogram observation (gauges are set-once and negligible).
fn events_in(snapshot: &obs::Snapshot) -> u64 {
    let counters: u64 = snapshot.counters.values().sum();
    let observations: u64 = snapshot.histograms.values().map(|h| h.count).sum();
    counters + observations
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), rhmd_core::RhmdError> {
    let opts = parse_env_args("bench_par")?;
    // NOTE: metrics install is deliberately deferred — the serial and
    // metrics-off engine passes must run with the registry disabled, or
    // the overhead gate would be measuring an enabled run.
    let exp = Experiment::load();
    let pool = Pool::available();
    let programs = exp.splits.attacker_test.len();
    let cells = specs(&exp).len() * ALGOS.len();
    // Each detector walks the test split twice: window dataset for AUC,
    // program verdicts for sensitivity/specificity.
    let program_evals = cells * 2 * programs;

    eprintln!("[bench_par] training the {cells}-detector grid (shared, untimed) ...");
    let mut grid = train_grid(&exp);

    // Best of three trials per path; every engine trial starts with a cold
    // cache, so no state leaks between repetitions.
    const TRIALS: usize = 3;
    eprintln!("[bench_par] serial baseline ({cells} detectors x {programs} programs) ...");
    let mut serial = Vec::new();
    let mut serial_seconds = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        serial = run_serial(&exp, &mut grid);
        serial_seconds = serial_seconds.min(start.elapsed().as_secs_f64());
    }

    eprintln!("[bench_par] engine, metrics off ({} threads + cache) ...", pool.threads());
    let mut engine = Evaluator::builder(&exp.traced, exp.config.seed).pool(pool).build();
    let mut parallel = Vec::new();
    let mut parallel_seconds = f64::INFINITY;
    for trial in 0..TRIALS {
        if trial > 0 {
            engine = Evaluator::builder(&exp.traced, exp.config.seed).pool(pool).build();
        }
        let start = Instant::now();
        parallel = run_engine(&exp, &engine, &grid);
        parallel_seconds = parallel_seconds.min(start.elapsed().as_secs_f64());
    }

    // The engine must be an optimization, not a semantic change.
    assert_eq!(serial, parallel, "engine results diverged from serial path");
    let stats = engine.cache().stats();

    eprintln!("[bench_par] kernel microbench (per-row vs batch, per family) ...");
    let kernels = kernel_benches(&exp);
    for k in &kernels {
        eprintln!(
            "[bench_par]   {:>3}: per-row {:.3e} rows/s, batch {:.3e} rows/s \
             ({:.2}x, bit_identical={})",
            k.family, k.per_row_rows_per_sec, k.batch_rows_per_sec, k.speedup, k.bit_identical
        );
    }
    assert!(
        kernels.iter().all(|k| k.bit_identical),
        "batched kernels diverged from per-row scoring"
    );

    eprintln!("[bench_par] fused standardize+dot sweep (scalar vs dispatched kernel) ...");
    let fused = fused_kernel_bench();
    eprintln!(
        "[bench_par]   {}x{}: scalar {:.3e} rows/s, fused {:.3e} rows/s \
         ({:.2}x, simd={}, avx2={}, bit_identical={})",
        fused.rows,
        fused.dims,
        fused.scalar_rows_per_sec,
        fused.fused_rows_per_sec,
        fused.speedup_vs_scalar,
        fused.simd_feature_compiled,
        fused.avx2_detected,
        fused.bit_identical
    );
    // Exact mode is a pure optimization: the vector kernel replays the
    // scalar summation order, so divergence at any bit is a bug.
    assert!(fused.bit_identical, "SIMD fused sweep diverged from the scalar kernels");
    if fused.simd_feature_compiled && fused.avx2_detected {
        assert!(
            fused.speedup_vs_scalar >= MIN_SIMD_SPEEDUP,
            "SIMD fused sweep speedup {:.2}x is below the {MIN_SIMD_SPEEDUP}x floor",
            fused.speedup_vs_scalar
        );
    }

    eprintln!("[bench_par] quantized kernels (error envelope + batch identity) ...");
    let quant_kernels = quant_benches(&exp);
    for q in &quant_kernels {
        eprintln!(
            "[bench_par]   {:>3} {}: max |err| {:.3e} <= bound {:.3e} (within={}), \
             batch {:.3e} rows/s, batch_bit_identical={}",
            q.family,
            q.config,
            q.max_abs_error,
            q.max_error_bound,
            q.within_envelope,
            q.batch_rows_per_sec,
            q.batch_bit_identical
        );
    }
    assert!(
        quant_kernels.iter().all(|q| q.within_envelope),
        "a quantized model escaped its analytic error envelope"
    );
    assert!(
        quant_kernels.iter().all(|q| q.batch_bit_identical),
        "a quantized batch sweep diverged from per-row scoring"
    );

    eprintln!("[bench_par] trace pipeline (two-phase reference vs streaming flat-IR) ...");
    let bench_trace = trace_bench(&exp);
    eprintln!(
        "[bench_par]   {} programs x {} lanes, {:.1} Minstr: two-phase {:.3}s \
         ({:.1} Minstr/s) vs streaming {:.3}s ({:.1} Minstr/s) \
         ({:.2}x, bit_identical={})",
        bench_trace.programs,
        bench_trace.lanes,
        bench_trace.instructions as f64 / 1e6,
        bench_trace.two_phase_seconds,
        bench_trace.two_phase_minstr_per_sec,
        bench_trace.streaming_seconds,
        bench_trace.streaming_minstr_per_sec,
        bench_trace.speedup,
        bench_trace.bit_identical,
    );
    // The batched walk and the streaming lanes are pure optimizations:
    // every subwindow and every projected row must match the per-event
    // two-phase pipeline exactly.
    assert!(
        bench_trace.bit_identical,
        "streaming trace path diverged from the two-phase reference pipeline"
    );
    assert!(
        bench_trace.speedup >= MIN_TRACE_SPEEDUP,
        "streaming trace speedup {:.2}x is below the {MIN_TRACE_SPEEDUP}x floor \
         (two-phase {:.3}s vs streaming {:.3}s)",
        bench_trace.speedup,
        bench_trace.two_phase_seconds,
        bench_trace.streaming_seconds,
    );

    eprintln!("[bench_par] corpus store (trace-once build vs regenerate vs mmap read) ...");
    let bench_store = store_bench(&exp, pool)?;
    eprintln!(
        "[bench_par]   build {:.2}s ({} canonical of {} programs, {} shards, {:.1} MiB); \
         regenerate {:.2}s vs store read {:.3}s ({:.1}x, bit_identical={}, peak RSS {:.0} MiB)",
        bench_store.build_seconds,
        bench_store.canonical,
        bench_store.programs,
        bench_store.shards,
        bench_store.store_bytes as f64 / (1024.0 * 1024.0),
        bench_store.regenerate_seconds,
        bench_store.store_read_seconds,
        bench_store.second_run_speedup,
        bench_store.bit_identical,
        bench_store.peak_rss_mib,
    );
    // The store is a serialization of the live data plane, nothing more:
    // reading features back must reproduce regeneration bit-for-bit.
    assert!(bench_store.bit_identical, "store-backed datasets diverged from live regeneration");
    assert!(
        bench_store.second_run_speedup >= MIN_STORE_SPEEDUP,
        "store second-run speedup {:.2}x is below the {MIN_STORE_SPEEDUP}x floor \
         (regenerate {:.3}s vs store read {:.3}s)",
        bench_store.second_run_speedup,
        bench_store.regenerate_seconds,
        bench_store.store_read_seconds,
    );

    // Price the disabled path while the registry is still off, then turn
    // metrics on for the third pass.
    let ns_per_event = disabled_ns_per_event();
    eprintln!("[bench_par] engine, metrics on ...");
    obs::set_enabled(true);
    preregister_standard();
    let mut enabled = Vec::new();
    let mut enabled_seconds = f64::INFINITY;
    let mut events_per_pass = 0;
    for _ in 0..TRIALS {
        obs::reset();
        preregister_standard();
        let engine = Evaluator::builder(&exp.traced, exp.config.seed).pool(pool).build();
        let start = Instant::now();
        enabled = run_engine(&exp, &engine, &grid);
        enabled_seconds = enabled_seconds.min(start.elapsed().as_secs_f64());
        events_per_pass = events_in(&obs::snapshot());
    }

    // Metrics observe; they must never steer. All three passes agree.
    assert_eq!(
        parallel, enabled,
        "metrics-enabled engine results diverged from the metrics-off path"
    );

    let overhead = ns_per_event * events_per_pass as f64 * 1e-9 / parallel_seconds.max(1e-9);
    assert!(
        overhead < MAX_DISABLED_OVERHEAD,
        "disabled-path instrumentation overhead {:.3}% exceeds the {:.0}% gate \
         ({events_per_pass} events x {ns_per_event:.2} ns over {parallel_seconds:.3}s)",
        100.0 * overhead,
        100.0 * MAX_DISABLED_OVERHEAD,
    );
    eprintln!(
        "[bench_par] overhead gate: {events_per_pass} events x {ns_per_event:.2} ns \
         = {:.4}% of the metrics-off pass (< {:.0}% required)",
        100.0 * overhead,
        100.0 * MAX_DISABLED_OVERHEAD,
    );

    let speedup = serial_seconds / parallel_seconds.max(1e-9);
    let report = Report {
        workload: Workload {
            cells,
            algorithms: ALGOS.len(),
            specs: specs(&exp).len(),
            programs,
            program_evaluations: program_evals,
        },
        threads: pool.threads(),
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        serial_seconds,
        serial_program_evals_per_second: program_evals as f64 / serial_seconds.max(1e-9),
        parallel_cached_seconds: parallel_seconds,
        parallel_cached_program_evals_per_second: program_evals as f64
            / parallel_seconds.max(1e-9),
        speedup,
        cache_hit_rate: stats.hit_rate(),
        cache: stats,
        results_bit_identical: true,
        kernels,
        fused,
        quant_kernels,
        bench_trace,
        bench_store,
        metrics: MetricsOverhead {
            enabled_seconds,
            events_per_pass,
            disabled_ns_per_event: ns_per_event,
            disabled_overhead_fraction: overhead,
            enabled_results_bit_identical: true,
        },
    };
    let path = "BENCH_par.json";
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| rhmd_core::RhmdError::config(format!("cannot serialize report: {e}")))?;
    rhmd_runtime::durable::Durable::from_env()?
        .write_atomic(std::path::Path::new(path), (json + "\n").as_bytes())?;
    println!(
        "serial {serial_seconds:.2}s -> engine {parallel_seconds:.2}s \
         ({speedup:.2}x, cache hit rate {:.0}%); report in {path}",
        100.0 * stats.hit_rate()
    );
    opts.metrics.finish()
}

#[derive(Debug, Serialize)]
struct Workload {
    cells: usize,
    algorithms: usize,
    specs: usize,
    programs: usize,
    program_evaluations: usize,
}
