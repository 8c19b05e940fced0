//! CLI subcommand implementations.

use crate::args::Args;
use crate::persist::{load_hmd, save_hmd};
use rhmd_core::detector::Detector;
use rhmd_core::engine::{CacheStats, Evaluator, EvaluatorBuilder};
use rhmd_core::evasion::{evade_corpus, plan_evasion, EvasionConfig, Strategy};
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::detection_quality;
use rhmd_core::reveng;
use rhmd_core::rhmd::{build_pool, pool_specs};
use rhmd_core::verdict::VerdictPolicy;
use rhmd_core::RhmdError;
use rhmd_data::{Corpus, CorpusConfig, CorpusStore, Splits, StoreBuilder, TracedCorpus};
use rhmd_features::pipeline::trace_subwindows;
use rhmd_features::select::select_top_delta_opcodes;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::RawWindow;
use rhmd_ml::metrics::{auc, best_accuracy_threshold};
use rhmd_ml::model::score_all;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_runtime::ckpt::{Journal, Manifest};
use rhmd_runtime::durable::Durable;
use rhmd_runtime::metrics::MetricsOptions;
use rhmd_runtime::pool::{Pool, WatchdogConfig};
use rhmd_trace::inject::Placement;
use rhmd_uarch::faults::FaultConfig;
use rhmd_uarch::CoreConfig;
use std::path::{Path, PathBuf};

fn scale_config(name: &str) -> Result<CorpusConfig, RhmdError> {
    CorpusConfig::from_scale_name(name).map_err(RhmdError::Config)
}

fn parse_kind(name: &str) -> Result<FeatureKind, RhmdError> {
    match name {
        "instructions" => Ok(FeatureKind::Instructions),
        "memory" => Ok(FeatureKind::Memory),
        "architectural" => Ok(FeatureKind::Architectural),
        other => Err(RhmdError::config(format!(
            "unknown feature '{other}' (instructions|memory|architectural)"
        ))),
    }
}

/// Parses `--features f,g` (default: all three kinds).
fn parse_kind_list(args: &Args) -> Result<Vec<FeatureKind>, RhmdError> {
    args.str_or("features", "instructions,memory,architectural")
        .split(',')
        .map(|k| parse_kind(k.trim()))
        .collect()
}

/// Parses `--periods 10000,5000` (default: 10000).
fn parse_period_list(args: &Args) -> Result<Vec<u32>, RhmdError> {
    args.str_or("periods", "10000")
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| RhmdError::parse("--periods", format!("bad period '{p}'")))
        })
        .collect()
}

fn parse_algorithm(name: &str) -> Result<Algorithm, RhmdError> {
    match name {
        "lr" => Ok(Algorithm::Lr),
        "dt" => Ok(Algorithm::Dt),
        "svm" => Ok(Algorithm::Svm),
        "nn" => Ok(Algorithm::Nn),
        "rf" => Ok(Algorithm::Rf),
        other => Err(RhmdError::config(format!(
            "unknown algorithm '{other}' (lr|dt|svm|nn|rf)"
        ))),
    }
}

/// Parses a `--fault kind:intensity` specification, e.g. `noise:0.1`,
/// `drop:0.3`, `multiplex:0.25`, `burst:0.05`, `saturate:12`, `wrap:12`.
fn parse_fault(value: &str) -> Result<FaultConfig, RhmdError> {
    let bad = |message: String| RhmdError::parse("--fault", message);
    let (kind, level) = value
        .split_once(':')
        .ok_or_else(|| bad(format!("expected kind:intensity, got '{value}'")))?;
    let rate = |what: &str| -> Result<f64, RhmdError> {
        let r: f64 = level
            .parse()
            .map_err(|_| bad(format!("{what} must be a number, got '{level}'")))?;
        if !(0.0..=1.0).contains(&r) {
            return Err(bad(format!("{what} must be in [0, 1], got {r}")));
        }
        Ok(r)
    };
    let bits = || -> Result<u32, RhmdError> {
        let b: u32 = level
            .parse()
            .map_err(|_| bad(format!("counter width must be an integer, got '{level}'")))?;
        if !(1..=64).contains(&b) {
            return Err(bad(format!("counter width must be 1..=64 bits, got {b}")));
        }
        Ok(b)
    };
    match kind {
        "noise" => {
            let sigma: f64 = level
                .parse()
                .map_err(|_| bad(format!("noise sigma must be a number, got '{level}'")))?;
            if !sigma.is_finite() || sigma < 0.0 {
                return Err(bad(format!("noise sigma must be >= 0, got {sigma}")));
            }
            Ok(FaultConfig::noise(sigma))
        }
        "drop" => Ok(FaultConfig::dropping(rate("drop rate")?)),
        "multiplex" => Ok(FaultConfig::multiplexed(rate("multiplex rate")?)),
        "burst" => Ok(FaultConfig::bursty(rate("burst rate")?, 4)),
        "saturate" => Ok(FaultConfig::saturating(bits()?)),
        "wrap" => Ok(FaultConfig::wrapping(bits()?)),
        other => Err(bad(format!(
            "unknown fault kind '{other}' (noise|drop|multiplex|burst|saturate|wrap)"
        ))),
    }
}

/// Parses `--quantize int4|int8|int16` and `--stochastic-round <seed>` into a
/// quantization config for the LR/SVM/NN families. `--stochastic-round`
/// alone implies `--quantize int16` (the width whose accuracy cost is
/// negligible); neither flag means exact `f64` models.
fn parse_quant(args: &Args) -> Result<Option<rhmd_ml::QuantConfig>, RhmdError> {
    let bits = match args.get("quantize") {
        None => None,
        Some("int4") => Some(rhmd_ml::QuantBits::Int4),
        Some("int8") => Some(rhmd_ml::QuantBits::Int8),
        Some("int16") => Some(rhmd_ml::QuantBits::Int16),
        Some(other) => {
            return Err(RhmdError::config(format!(
                "unknown quantization '{other}' (int4|int8|int16)"
            )))
        }
    };
    let rounding = match args.get("stochastic-round") {
        None => rhmd_ml::Rounding::Nearest,
        Some(v) => {
            let seed: u64 = v.parse().map_err(|_| {
                RhmdError::parse(
                    "--stochastic-round",
                    format!("invalid seed '{v}' (want an unsigned integer)"),
                )
            })?;
            rhmd_ml::Rounding::Stochastic { seed }
        }
    };
    Ok(match (bits, args.get("stochastic-round").is_some()) {
        (None, false) => None,
        (bits, _) => Some(rhmd_ml::QuantConfig {
            bits: bits.unwrap_or(rhmd_ml::QuantBits::Int16),
            rounding,
        }),
    })
}

/// Human/config-hash description of a quantization config (`none`,
/// `int8/nearest`, `int16/stochastic:42`, ...).
fn quant_label(quant: Option<rhmd_ml::QuantConfig>) -> String {
    match quant {
        None => "none".to_owned(),
        Some(q) => match q.rounding {
            rhmd_ml::Rounding::Nearest => format!("{}/nearest", q.bits.name()),
            rhmd_ml::Rounding::Stochastic { seed } => {
                format!("{}/stochastic:{seed}", q.bits.name())
            }
        },
    }
}

/// Parses `--threads N` (default: the machine's available parallelism).
/// Results are bit-identical at any value; threads only change wall-clock.
fn parse_pool(args: &Args) -> Result<Pool, RhmdError> {
    match args.get("threads") {
        None => Ok(Pool::available()),
        Some(v) => {
            let n: usize = v.parse().map_err(|_| {
                RhmdError::parse("--threads", format!("invalid value '{v}' (want a positive integer)"))
            })?;
            if n == 0 {
                return Err(RhmdError::parse("--threads", "must be at least 1"));
            }
            Ok(Pool::new(n))
        }
    }
}

/// Parsed `--checkpoint` / `--resume` / `--checkpoint-every` flags.
struct CheckpointArgs {
    dir: PathBuf,
    resume_only: bool,
    every: usize,
}

/// Parses the checkpoint flags. `--checkpoint <dir>` creates the directory
/// (auto-resuming when it already holds a manifest); `--resume <dir>`
/// insists the directory exists. Validation runs before any tracing so a
/// bad flag fails in milliseconds.
fn parse_checkpoint(args: &Args) -> Result<Option<CheckpointArgs>, RhmdError> {
    let every: usize = args.parse_or("checkpoint-every", 1)?;
    if every == 0 {
        return Err(RhmdError::parse("--checkpoint-every", "must be at least 1"));
    }
    match (args.get("checkpoint"), args.get("resume")) {
        (Some(_), Some(_)) => Err(RhmdError::config(
            "--checkpoint and --resume are mutually exclusive \
             (--checkpoint auto-resumes when the directory already has a manifest)",
        )),
        (Some(d), None) => Ok(Some(CheckpointArgs {
            dir: PathBuf::from(d),
            resume_only: false,
            every,
        })),
        (None, Some(d)) => {
            let dir = PathBuf::from(d);
            if !dir.is_dir() {
                return Err(RhmdError::io(
                    d.to_owned(),
                    "checkpoint directory does not exist; \
                     pass the directory a previous --checkpoint run created",
                ));
            }
            Ok(Some(CheckpointArgs {
                dir,
                resume_only: true,
                every,
            }))
        }
        (None, None) => {
            if args.get("checkpoint-every").is_some() {
                return Err(RhmdError::config(
                    "--checkpoint-every requires --checkpoint or --resume",
                ));
            }
            Ok(None)
        }
    }
}

/// Parses `--task-deadline <seconds>` into a pool watchdog configuration.
fn parse_deadline(args: &Args) -> Result<Option<WatchdogConfig>, RhmdError> {
    match args.get("task-deadline") {
        None => Ok(None),
        Some(v) => {
            let secs: u64 = v.parse().map_err(|_| {
                RhmdError::parse(
                    "--task-deadline",
                    format!("invalid value '{v}' (want seconds, a positive integer)"),
                )
            })?;
            if secs == 0 {
                return Err(RhmdError::parse("--task-deadline", "must be at least 1 second"));
            }
            Ok(Some(WatchdogConfig::from_secs(secs)))
        }
    }
}

/// Parses `--metrics <path>` / `--metrics-summary` into [`MetricsOptions`].
fn parse_metrics(args: &Args) -> MetricsOptions {
    MetricsOptions::new(args.get("metrics").map(PathBuf::from), args.flag("metrics-summary"))
}

/// Exports the engine's metrics snapshot (`--metrics`) and prints the
/// stderr summary table (`--metrics-summary`) once a command finishes.
/// A no-op when neither flag was given.
fn finish_metrics(metrics: &MetricsOptions, engine: &Evaluator<'_>) -> Result<(), RhmdError> {
    engine.export_metrics()?;
    if let Some(path) = metrics.path() {
        eprintln!("[metrics] snapshot written to {}", path.display());
    }
    metrics.print_summary();
    Ok(())
}

/// Where the evaluation engine's feature rows come from: a live in-RAM
/// trace, or an opened on-disk corpus store (`--corpus-store`).
enum Backing {
    Live(TracedCorpus),
    Store(CorpusStore),
}

struct Workbench {
    backing: Backing,
    splits: Splits,
    opcodes: Vec<rhmd_trace::Opcode>,
    trainer: TrainerConfig,
    pool: Pool,
    seed: u64,
}

impl Workbench {
    /// A parallel evaluation-engine builder over this workbench's data
    /// source; commands add a recorder / watchdog / checkpoint journal as
    /// their flags demand, then `.build()`.
    fn evaluator(&self) -> EvaluatorBuilder<'_> {
        match &self.backing {
            Backing::Live(traced) => Evaluator::builder(traced, self.seed),
            Backing::Store(store) => Evaluator::builder_from_store(store, self.seed),
        }
        .pool(self.pool)
    }

    /// The live traced corpus, for paths that need raw subwindows (attack,
    /// defend, fault injection); a typed error in store mode.
    fn traced(&self) -> Result<&TracedCorpus, RhmdError> {
        match &self.backing {
            Backing::Live(traced) => Ok(traced),
            Backing::Store(store) => Err(RhmdError::config(format!(
                "this command needs raw traces, which the corpus store at {} \
                 does not retain; rerun without --corpus-store",
                store.dir().display()
            ))),
        }
    }

    /// In store mode, insists `spec` was built into the store so a missing
    /// shard fails with a typed error before any evaluation; live mode can
    /// project any spec.
    fn require_spec(&self, spec: &FeatureSpec) -> Result<(), RhmdError> {
        match &self.backing {
            Backing::Live(_) => Ok(()),
            Backing::Store(store) => {
                if store.has_spec(spec) {
                    return Ok(());
                }
                let stored: Vec<String> = store.specs().map(FeatureSpec::label).collect();
                Err(RhmdError::config(format!(
                    "the corpus store at {} was not built with feature {} \
                     (stored: {}); rebuild with: rhmd corpus build --store {} \
                     --features ... --periods ...",
                    store.dir().display(),
                    spec.label(),
                    stored.join(", "),
                    store.dir().display(),
                )))
            }
        }
    }

    /// Checkpoint-summary tag for the data source: `None` for live
    /// generation (summaries stay byte-compatible with older journals),
    /// the store identity otherwise, so a sweep journal written from one
    /// store is never resumed against another.
    fn source_tag(&self) -> Option<String> {
        match &self.backing {
            Backing::Live(_) => None,
            Backing::Store(store) => Some(format!("store:{:016x}", store.identity())),
        }
    }
}

/// Selects the instruction-feature opcodes exactly as the live workbench
/// does — top-delta opcodes over the victim-train subwindows — without
/// keeping the whole corpus traced in RAM.
fn select_opcodes(
    corpus: &Corpus,
    splits: &Splits,
    config: &CorpusConfig,
    pool: Pool,
) -> Vec<rhmd_trace::Opcode> {
    let labels = corpus.labels();
    let windows: Vec<Vec<RawWindow>> = pool.map(&splits.victim_train, |_, &i| {
        trace_subwindows(corpus.program(i), config.limits(), CoreConfig::default())
    });
    let collect = |want: bool| -> Vec<RawWindow> {
        splits
            .victim_train
            .iter()
            .zip(&windows)
            .filter(|&(&i, _)| labels[i] == want)
            .flat_map(|(_, w)| w.iter().cloned())
            .collect()
    };
    select_top_delta_opcodes(&collect(true), &collect(false), 16)
}

fn workbench(args: &Args) -> Result<Workbench, RhmdError> {
    if let Some(dir) = args.get("corpus-store") {
        return store_workbench(args, Path::new(dir));
    }
    let config = scale_config(&args.str_or("scale", "small"))?;
    let pool = parse_pool(args)?;
    eprintln!(
        "[rhmd] building + tracing {} programs ({} threads) ...",
        config.total_programs(),
        pool.threads()
    );
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace_threads(
        corpus,
        config.limits(),
        CoreConfig::default(),
        pool.threads(),
    );
    let labels = traced.corpus().labels();
    let collect = |want: bool| -> Vec<_> {
        splits
            .victim_train
            .iter()
            .filter(|&&i| labels[i] == want)
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect()
    };
    let opcodes = select_top_delta_opcodes(&collect(true), &collect(false), 16);
    let trainer = TrainerConfig {
        quant: parse_quant(args)?,
        ..TrainerConfig::with_seed(config.seed)
    };
    Ok(Workbench {
        backing: Backing::Live(traced),
        splits,
        opcodes,
        trainer,
        pool,
        seed: config.seed,
    })
}

/// `--corpus-store DIR`: open the mmap'd store instead of regenerating and
/// re-tracing the corpus. Splits, seed, and the selected opcodes all come
/// from the store so results are byte-identical to a live run over the
/// same configuration.
fn store_workbench(args: &Args, dir: &Path) -> Result<Workbench, RhmdError> {
    let pool = parse_pool(args)?;
    let store = CorpusStore::open(dir)?;
    let config = *store.config();
    if let Some(scale) = args.get("scale") {
        if scale_config(scale)? != config {
            return Err(RhmdError::config(format!(
                "--scale {scale} does not match the corpus store at {} \
                 ({} programs, seed {:#x}); drop --scale or rebuild the store",
                dir.display(),
                config.total_programs(),
                config.seed
            )));
        }
    }
    eprintln!(
        "[rhmd] corpus store {}: {} programs, {} shard(s), dedup ratio {:.2} ({} threads)",
        dir.display(),
        store.manifest().len(),
        store.manifest().shards.len(),
        store.manifest().dedup_ratio(),
        pool.threads()
    );
    let splits = Splits::from_strata(store.strata(), config.seed);
    let opcodes = store
        .specs()
        .find(|s| !s.opcodes.is_empty())
        .map(|s| s.opcodes.clone())
        .unwrap_or_default();
    let trainer = TrainerConfig {
        quant: parse_quant(args)?,
        ..TrainerConfig::with_seed(config.seed)
    };
    Ok(Workbench {
        backing: Backing::Store(store),
        splits,
        opcodes,
        trainer,
        pool,
        seed: config.seed,
    })
}

/// `rhmd corpus [--scale s]` — build the corpus and print a summary; or
/// `rhmd corpus build --store DIR` — build the on-disk feature-shard store.
pub fn corpus(args: &Args) -> Result<(), RhmdError> {
    match args.action.as_deref() {
        Some("build") => return corpus_build(args),
        Some(other) => {
            return Err(RhmdError::config(format!(
                "unknown corpus action '{other}' (try: rhmd corpus build --store DIR)"
            )))
        }
        None => {}
    }
    let config = scale_config(&args.str_or("scale", "small"))?;
    let corpus = Corpus::build(&config);
    println!("{corpus}");
    let mut by_family: std::collections::BTreeMap<u32, (String, usize, u64)> =
        std::collections::BTreeMap::new();
    for p in corpus.programs() {
        let entry = by_family.entry(p.family).or_insert_with(|| {
            let name = p.name.split('-').next().unwrap_or("?").to_owned();
            (name, 0, 0)
        });
        entry.1 += 1;
        entry.2 += p.static_instruction_count();
    }
    println!("{:>12} {:>8} {:>16}", "family", "programs", "avg static instr");
    for (_, (name, count, instrs)) in by_family {
        println!("{name:>12} {count:>8} {:>16}", instrs / count as u64);
    }
    Ok(())
}

/// `rhmd corpus build --store DIR [--scale s] [--features f,g]
/// [--periods 10000,5000] [--threads n] [--chunk n]` — generate and trace
/// the corpus once into mmap-able feature shards under `DIR`.
///
/// Opcode selection replicates the live workbench (top-delta opcodes over
/// the victim-train subwindows), so `--corpus-store DIR` runs of
/// `train`/`evaluate`/`sweep` are byte-identical to live generation.
/// Builds are checkpointed per chunk: rerunning over an interrupted (or
/// finished) directory resumes instead of re-tracing.
fn corpus_build(args: &Args) -> Result<(), RhmdError> {
    let dir = args.get("store").ok_or_else(|| {
        RhmdError::config("corpus build needs --store <dir> (the shard directory to create)")
    })?;
    let config = scale_config(&args.str_or("scale", "small"))?;
    let pool = parse_pool(args)?;
    let kinds = parse_kind_list(args)?;
    let periods = parse_period_list(args)?;
    let chunk: usize = args.parse_or("chunk", 16)?;
    if chunk == 0 {
        return Err(RhmdError::parse("--chunk", "must be at least 1"));
    }
    eprintln!(
        "[rhmd] building {} programs and selecting opcodes ({} threads) ...",
        config.total_programs(),
        pool.threads()
    );
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let opcodes = select_opcodes(&corpus, &splits, &config, pool);
    let mut specs = Vec::new();
    for &period in &periods {
        for &kind in &kinds {
            specs.push(FeatureSpec::new(kind, period, opcodes.clone()));
        }
    }
    eprintln!(
        "[rhmd] tracing into {} shard(s) under {dir} ...",
        specs.len()
    );
    let started = std::time::Instant::now();
    let summary = StoreBuilder::new(Path::new(dir), config)
        .specs(specs)
        .threads(pool.threads())
        .chunk(chunk)
        .with_corpus(corpus)
        .build()?;
    println!(
        "corpus store built at {dir} in {:.2}s",
        started.elapsed().as_secs_f64()
    );
    println!(
        "  {} programs ({} canonical + {} duplicates), {} shard(s), {} rows, {:.1} MiB{}",
        summary.programs,
        summary.canonical,
        summary.duplicates,
        summary.shards,
        summary.rows,
        summary.bytes as f64 / (1024.0 * 1024.0),
        if summary.resumed_chunks > 0 {
            format!(", {} chunk(s) resumed", summary.resumed_chunks)
        } else {
            String::new()
        },
    );
    println!("evaluate from it with: rhmd sweep --corpus-store {dir}");
    Ok(())
}

/// `rhmd dump [--scale s] [--program name-or-index] [--functions n]` —
/// print an objdump-style listing of one synthetic binary.
pub fn dump(args: &Args) -> Result<(), RhmdError> {
    let config = scale_config(&args.str_or("scale", "tiny"))?;
    let corpus = Corpus::build(&config);
    let selector = args.str_or("program", "0");
    let index = match selector.parse::<usize>() {
        Ok(i) if i < corpus.len() => i,
        Ok(i) => {
            return Err(RhmdError::config(format!(
                "program index {i} out of range (0..{})",
                corpus.len()
            )))
        }
        Err(_) => corpus
            .programs()
            .iter()
            .position(|p| p.name == selector)
            .ok_or_else(|| RhmdError::config(format!("no program named '{selector}'")))?,
    };
    let functions: usize = args.parse_or("functions", 2)?;
    print!(
        "{}",
        rhmd_trace::dump::listing(corpus.program(index), Some(functions))
    );
    Ok(())
}

/// `rhmd train [--scale s] [--feature f] [--algo a] [--period n]
/// [--quantize int4|int8|int16] [--stochastic-round seed] [--threads n]
/// [--out path] [--metrics path] [--metrics-summary]`
pub fn train(args: &Args) -> Result<(), RhmdError> {
    let kind = parse_kind(&args.str_or("feature", "instructions"))?;
    let algorithm = parse_algorithm(&args.str_or("algo", "lr"))?;
    let period: u32 = args.parse_or("period", 10_000)?;
    let metrics = parse_metrics(args);
    metrics.install();
    let bench = workbench(args)?;
    let spec = FeatureSpec::new(kind, period, bench.opcodes.clone());
    bench.require_spec(&spec)?;
    let engine = bench.evaluator().recorder(metrics.recorder()?).build();
    // Dataset assembly fans out over the pool; rows are bit-identical to
    // the serial path, so the trained model is too.
    let train_data = engine.window_dataset(&bench.splits.victim_train, &spec);
    let hmd = Hmd::train_on_dataset(algorithm, spec.clone(), &bench.trainer, &train_data);

    let test = engine.window_dataset(&bench.splits.attacker_test, &spec);
    let scores = score_all(hmd.model(), &test);
    let roc_auc = auc(&scores, test.labels());
    let (_, acc) = best_accuracy_threshold(&scores, test.labels());
    println!(
        "trained {}: window AUC {roc_auc:.3}, window accuracy {:.1}%",
        hmd.name(),
        100.0 * acc
    );

    if let Some(path) = args.get("out") {
        save_hmd(&hmd, &PathBuf::from(path))?;
        println!("model saved to {path}");
    }
    finish_metrics(&metrics, &engine)
}

/// `rhmd evaluate --model path [--scale s] [--threads n] [--fault kind:x]
/// [--fault-seed n] [--metrics path] [--metrics-summary]` — reload a saved
/// detector and score the held-out programs on the parallel engine,
/// optionally through a fault-injected counter stream (e.g.
/// `--fault noise:0.1`).
pub fn evaluate(args: &Args) -> Result<(), RhmdError> {
    let path = args
        .get("model")
        .ok_or_else(|| RhmdError::config("evaluate needs --model <path>"))?
        .to_owned();
    // Validate every flag before the corpus trace so a typo fails in
    // milliseconds, not after minutes of simulation.
    let fault = args.get("fault").map(parse_fault).transpose()?;
    let fault_seed: u64 = args.parse_or("fault-seed", 0xfa17)?;
    let metrics = parse_metrics(args);
    metrics.install();
    let hmd = load_hmd(&PathBuf::from(&path))?;
    let bench = workbench(args)?;
    bench.require_spec(hmd.spec())?;
    if fault.is_some() {
        // Fault injection replays raw subwindows through a degraded
        // counter model, which the store does not retain.
        bench.traced()?;
    }
    let engine = bench.evaluator().recorder(metrics.recorder()?).build();
    let quality = engine.quality_hmd(&hmd, &bench.splits.attacker_test);
    println!(
        "{}: program-level sensitivity {:.1}%, specificity {:.1}%",
        hmd.name(),
        100.0 * quality.sensitivity_unmodified,
        100.0 * quality.specificity
    );

    if let Some(config) = fault {
        let spec = args.get("fault").unwrap_or_default();
        // Per-program fault seeds stay `seed ^ i` (the published derivation
        // of EXPERIMENTS.md) — passed as a closure so the engine does not
        // impose its own.
        let degraded = engine.degraded_quality(
            &bench.splits.attacker_test,
            config,
            &VerdictPolicy::majority(),
            0.25,
            |i| fault_seed ^ i as u64,
            |_, subs| hmd.quorum_verdict(subs, 0.5),
        );
        let total = bench.splits.attacker_test.len();
        let abstained = (degraded.abstain_rate * total as f64).round() as usize;
        println!(
            "under --fault {spec}: sensitivity {:.1}%, specificity {:.1}%, abstained {abstained}/{total}",
            100.0 * degraded.sensitivity,
            100.0 * degraded.specificity,
        );
    }
    finish_metrics(&metrics, &engine)
}

/// `rhmd sweep [--scale s] [--algos lr,dt,...] [--features f,g]
/// [--periods 10000,5000] [--quantize int4|int8|int16] [--stochastic-round seed]
/// [--threads n] [--out bench.json]
/// [--checkpoint dir | --resume dir] [--metrics path] [--metrics-summary]`
/// — train and score every algorithm × feature × period combination on the
/// parallel engine. Detectors sharing a feature spec reuse cached feature
/// vectors, so the grid costs far less than `cells × (project + train +
/// score)`. `--metrics` exports per-stage counters and latency histograms;
/// cells are byte-identical with metrics on or off, at any thread count.
pub fn sweep(args: &Args) -> Result<(), RhmdError> {
    let algos: Vec<Algorithm> = args
        .str_or("algos", "lr,dt,svm,nn,rf")
        .split(',')
        .map(|a| parse_algorithm(a.trim()))
        .collect::<Result<_, _>>()?;
    let kinds = parse_kind_list(args)?;
    let periods = parse_period_list(args)?;
    // Checkpoint, watchdog, and metrics flags are validated here, before
    // the corpus trace, so a typo fails in milliseconds, not after minutes.
    let ckpt = parse_checkpoint(args)?;
    let deadline = parse_deadline(args)?;
    let quant = parse_quant(args)?;
    let metrics = parse_metrics(args);
    metrics.install();
    // A store opens in milliseconds, so in store mode the workbench comes
    // first and the journal summary pins the store identity; live mode
    // keeps journal-before-trace so a bad resume dir fails fast.
    let store_bench = match args.get("corpus-store") {
        Some(_) => Some(workbench(args)?),
        None => None,
    };
    // The config summary excludes --threads: cells are bit-identical at any
    // thread count, so a resume may legally change it. It includes the
    // quantization knobs: a resume that flips `--quantize` or the stochastic
    // seed would silently mix incompatible cells. Store-backed sweeps add
    // the store identity: a journal written from one store is never
    // resumed against another (or against live generation).
    let summary = format!(
        "scale={};algos={};features={};periods={};quant={}{}",
        args.str_or("scale", "small"),
        algos.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(","),
        kinds
            .iter()
            .map(|k| format!("{k:?}").to_lowercase())
            .collect::<Vec<_>>()
            .join(","),
        periods.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(","),
        quant_label(quant),
        store_bench
            .as_ref()
            .and_then(Workbench::source_tag)
            .map(|tag| format!(";source={tag}"))
            .unwrap_or_default(),
    );
    let journal = match &ckpt {
        None => None,
        Some(c) => {
            let manifest = Manifest::new("sweep", &summary);
            let journal = if c.resume_only {
                Journal::resume(&c.dir, &manifest, Durable::from_env()?, c.every)?
            } else {
                Journal::create(&c.dir, &manifest, Durable::from_env()?, c.every)?
            };
            if journal.resumed_units() > 0 {
                eprintln!(
                    "[rhmd] resuming from {}: {} completed cell(s) will be skipped",
                    c.dir.display(),
                    journal.resumed_units()
                );
            }
            Some(journal)
        }
    };

    let bench = match store_bench {
        Some(bench) => bench,
        None => workbench(args)?,
    };
    // In store mode every grid spec must have a shard; fail with a typed
    // error naming the stored specs before any training starts.
    for &period in &periods {
        for &kind in &kinds {
            bench.require_spec(&FeatureSpec::new(kind, period, bench.opcodes.clone()))?;
        }
    }
    let mut builder = bench.evaluator().recorder(metrics.recorder()?);
    if let Some(watchdog) = deadline {
        builder = builder.watchdog(watchdog);
    }
    if let Some(journal) = journal {
        builder = builder.checkpoint(journal);
    }
    let engine = builder.build();
    let started = std::time::Instant::now();

    let mut rows = Vec::new();
    let mut skipped = 0usize;
    println!(
        "{:<6} {:<22} {:>10} {:>12} {:>12}",
        "algo", "feature", "AUC", "sensitivity", "specificity"
    );
    for &period in &periods {
        for &kind in &kinds {
            let spec = FeatureSpec::new(kind, period, bench.opcodes.clone());
            for &algorithm in &algos {
                let compute = || {
                    let train_data = engine.window_dataset(&bench.splits.victim_train, &spec);
                    let hmd = Hmd::train_on_dataset(
                        algorithm,
                        spec.clone(),
                        &bench.trainer,
                        &train_data,
                    );
                    let test = engine.window_dataset(&bench.splits.attacker_test, &spec);
                    let roc_auc = auc(&score_all(hmd.model(), &test), test.labels());
                    let quality = engine.quality_hmd(&hmd, &bench.splits.attacker_test);
                    SweepCell {
                        algorithm: format!("{algorithm}"),
                        feature: spec.label(),
                        auc: roc_auc,
                        sensitivity: quality.sensitivity_unmodified,
                        specificity: quality.specificity,
                    }
                };
                let key = format!("{algorithm}/{}/{period}", spec.label());
                let (cell, cached) = engine.unit(&key, compute)?;
                skipped += usize::from(cached);
                println!(
                    "{:<6} {:<22} {:>10.3} {:>11.1}% {:>11.1}%{}",
                    cell.algorithm,
                    cell.feature,
                    cell.auc,
                    100.0 * cell.sensitivity,
                    100.0 * cell.specificity,
                    if cached { "  (resumed)" } else { "" }
                );
                rows.push(cell);
            }
        }
    }
    engine.sync_checkpoint()?;
    if skipped > 0 {
        if let Some(dir) = engine.checkpoint_dir() {
            eprintln!(
                "[rhmd] checkpoint: {skipped} of {} cell(s) served from {}",
                rows.len(),
                dir.display()
            );
        }
    }
    let watchdog_report = engine.run_report();
    if watchdog_report.degraded() {
        eprintln!(
            "[rhmd] degraded run: {} overdue and {} requeued work unit(s) \
             (deadline {} ms); results are still exact",
            watchdog_report.overdue.len(),
            watchdog_report.requeued.len(),
            watchdog_report.deadline_ms
        );
    }

    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.cache().stats();
    let cells = rows.len();
    let evaluations = cells * bench.splits.attacker_test.len();
    println!(
        "{cells} detectors in {elapsed:.2}s ({:.1} program evaluations/sec) | \
         cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        evaluations as f64 / elapsed.max(1e-9),
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.entries
    );
    if let Some(out) = args.get("out") {
        let report = SweepReport {
            threads: engine.pool().threads(),
            elapsed_seconds: elapsed,
            evaluations_per_second: evaluations as f64 / elapsed.max(1e-9),
            cache_hit_rate: stats.hit_rate(),
            cache: stats,
            cells: rows,
        };
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| RhmdError::config(format!("cannot serialize report: {e}")))?;
        Durable::from_env()?.write_atomic(Path::new(out), (json + "\n").as_bytes())?;
        println!("report saved to {out}");
    }
    finish_metrics(&metrics, &engine)
}

/// One `rhmd sweep` grid cell, as serialized to `--out` and journaled to
/// `--checkpoint` directories.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct SweepCell {
    algorithm: String,
    feature: String,
    auc: f64,
    sensitivity: f64,
    specificity: f64,
}

/// The `rhmd sweep --out` document.
#[derive(Debug, serde::Serialize)]
struct SweepReport {
    threads: usize,
    elapsed_seconds: f64,
    evaluations_per_second: f64,
    cache_hit_rate: f64,
    cache: CacheStats,
    cells: Vec<SweepCell>,
}

/// `rhmd attack [--scale s] [--feature f] [--algo a] [--surrogate a]
/// [--count n] [--strategy s]` — the full reverse-engineer + evade campaign.
pub fn attack(args: &Args) -> Result<(), RhmdError> {
    let kind = parse_kind(&args.str_or("feature", "instructions"))?;
    let victim_algo = parse_algorithm(&args.str_or("algo", "lr"))?;
    let surrogate_algo = parse_algorithm(&args.str_or("surrogate", "lr"))?;
    let count: usize = args.parse_or("count", 2)?;
    let strategy = match args.str_or("strategy", "least-weight").as_str() {
        "random" => Strategy::Random,
        "least-weight" => Strategy::LeastWeight,
        "weighted" => Strategy::Weighted,
        other => {
            return Err(RhmdError::config(format!(
                "unknown strategy '{other}' (random|least-weight|weighted)"
            )))
        }
    };
    let bench = workbench(args)?;
    let traced = bench.traced()?;
    let spec = FeatureSpec::new(kind, 10_000, bench.opcodes.clone());
    let mut victim = Hmd::train(
        victim_algo,
        spec.clone(),
        &bench.trainer,
        traced,
        &bench.splits.victim_train,
    );
    let surrogate = reveng::reverse_engineer(
        &mut victim,
        traced,
        &bench.splits.attacker_train,
        spec,
        surrogate_algo,
        &TrainerConfig::with_seed(0xc11),
    );
    let fidelity = reveng::agreement(
        &mut victim,
        &surrogate,
        traced,
        &bench.splits.attacker_test,
    );
    println!("surrogate agreement: {:.1}%", 100.0 * fidelity);
    let labels = traced.corpus().labels();
    let malware: Vec<usize> = bench
        .splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    let plan = plan_evasion(
        &surrogate,
        &EvasionConfig {
            strategy,
            count,
            placement: Placement::EveryBlock,
            seed: 0xc12,
        },
    );
    let trial = evade_corpus(&mut victim, traced, &malware, &plan);
    println!(
        "evasion ({strategy}, {count}/block): {}/{} still detected ({:.1}%), \
         overhead static {:.1}% dynamic {:.1}%",
        trial.detected_after,
        trial.initially_detected,
        100.0 * trial.detection_rate(),
        100.0 * trial.mean_static_overhead,
        100.0 * trial.mean_dynamic_overhead
    );
    Ok(())
}

/// `rhmd defend [--scale s] [--periods 10000,5000] [--count n]
/// [--quantize int4|int8|int16] [--stochastic-round seed]` — deploy an RHMD pool
/// and report its resilience under the standard attack. With
/// `--stochastic-round` the pool's detectors use seeded stochastic rounding,
/// stacking computation-level randomness on top of detector switching.
pub fn defend(args: &Args) -> Result<(), RhmdError> {
    let periods = parse_period_list(args)?;
    let count: usize = args.parse_or("count", 2)?;
    let bench = workbench(args)?;
    let traced = bench.traced()?;
    let mut rhmd = build_pool(
        Algorithm::Lr,
        pool_specs(&FeatureKind::ALL, &periods, &bench.opcodes),
        &bench.trainer,
        traced,
        &bench.splits.victim_train,
        0xc13,
    );
    let quality = detection_quality(&mut rhmd, traced, &bench.splits.attacker_test);
    println!(
        "pool of {} detectors: sensitivity {:.1}%, specificity {:.1}%",
        rhmd.detectors().len(),
        100.0 * quality.sensitivity_unmodified,
        100.0 * quality.specificity
    );
    let surrogate = reveng::reverse_engineer(
        &mut rhmd,
        traced,
        &bench.splits.attacker_train,
        FeatureSpec::new(FeatureKind::Instructions, 10_000, bench.opcodes.clone()),
        Algorithm::Nn,
        &TrainerConfig::with_seed(0xc14),
    );
    let fidelity = reveng::agreement(
        &mut rhmd,
        &surrogate,
        traced,
        &bench.splits.attacker_test,
    );
    let labels = traced.corpus().labels();
    let malware: Vec<usize> = bench
        .splits
        .attacker_test
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(count));
    rhmd.reset();
    let trial = evade_corpus(&mut rhmd, traced, &malware, &plan);
    println!(
        "attacker: agreement {:.1}%, detection after {count}/block injection {:.1}%",
        100.0 * fidelity,
        100.0 * trial.detection_rate()
    );
    Ok(())
}

/// `rhmd serve`: a resident detection service. Loads a saved model, spawns
/// the sharded engine, and speaks the NDJSON protocol over stdin/stdout —
/// or over a Unix socket with `--listen <path>`. Exits after a graceful
/// drain (stdin EOF, a `{"Drain":{}}` request, or SIGTERM/SIGINT),
/// flushing the `--metrics` snapshot last.
///
/// The session watchdog reuses the sweep's `--task-deadline` flag: a
/// session idle past the deadline is finalized as an explicit abstention
/// rather than held open forever; `--tenant-deadline` does the same for a
/// whole tenant.
pub fn serve(args: &Args) -> Result<(), RhmdError> {
    let model_path = args.get("model").ok_or_else(|| {
        RhmdError::config("serve needs --model <path> (train one with: rhmd train --out model.json)")
    })?;
    let metrics = parse_metrics(args);
    metrics.install();
    let hmd = load_hmd(Path::new(model_path))?;
    let pool = parse_pool(args)?;
    let capacity: usize = args.parse_or("queue-cap", 4096)?;
    let config = rhmd_serve::ServeConfig {
        shards: pool.threads(),
        queue: rhmd_serve::queue::Watermarks {
            capacity,
            high: args.parse_or("high-watermark", capacity.saturating_mul(3) / 4)?,
            low: args.parse_or("low-watermark", capacity / 4)?,
        },
        output: rhmd_serve::queue::Watermarks {
            capacity,
            high: capacity,
            low: 0,
        },
        batch_max: args.parse_or("batch-max", 64)?,
        batch_deadline: std::time::Duration::from_millis(args.parse_or("batch-deadline-ms", 5)?),
        session_deadline: Some(
            parse_deadline(args)?
                .unwrap_or(WatchdogConfig::from_secs(30))
                .deadline,
        ),
        tenant_deadline: Some(std::time::Duration::from_secs(
            args.parse_or("tenant-deadline", 120u64)?.max(1),
        )),
        min_fill: args.parse_or("min-fill", 1.0)?,
        min_coverage: args.parse_or("min-coverage", 0.0)?,
        snapshot_every: std::time::Duration::from_millis(
            args.parse_or("snapshot-every-ms", 25u64)?,
        ),
        restart_budget: args.parse_or("restart-budget", 5u32)?,
        restart_backoff: std::time::Duration::from_millis(
            args.parse_or("restart-backoff-ms", 10u64)?,
        ),
        read_stall: std::time::Duration::from_secs(args.parse_or("read-stall-secs", 5u64)?),
        write_timeout: std::time::Duration::from_secs(args.parse_or("write-timeout-secs", 2u64)?),
    };
    // `Engine::start` reads RHMD_SERVE_FAULTS: the daemon's injectable
    // fault plane for chaos drills stays env-gated, off by default.
    let engine = rhmd_serve::engine::Engine::start(hmd, config)?;
    eprintln!(
        "[serve] model {} (config hash {:016x}), {} shards, queue {}/{}/{} (cap/high/low), restart budget {}",
        model_path,
        engine.config_hash(),
        engine.config().shards,
        engine.config().queue.capacity,
        engine.config().queue.high,
        engine.config().queue.low,
        engine.config().restart_budget,
    );
    let stats = serve_transport(engine, args.get("listen"))?;
    eprintln!(
        "[serve] drained: {} offered = {} decided + {} abstained + {} shed + {} quarantined \
         ({} events offered, {} shed, {} stale dropped, {} shard restarts)",
        stats.offered_sessions,
        stats.decided,
        stats.abstained,
        stats.shed_sessions,
        stats.quarantined,
        stats.offered_events,
        stats.shed_events,
        stats.stale_frames,
        stats.shard_restarts,
    );
    if !stats.accounted() {
        return Err(RhmdError::model(format!(
            "serve accounting identity violated: {stats:?}"
        )));
    }
    metrics.finish()?;
    Ok(())
}

#[cfg(unix)]
fn serve_transport(
    engine: rhmd_serve::engine::Engine,
    listen: Option<&str>,
) -> Result<rhmd_serve::proto::StatsMsg, RhmdError> {
    match listen {
        Some(sock) => {
            eprintln!("[serve] listening on {sock}");
            rhmd_serve::server::serve_listener(engine, Path::new(sock))
        }
        None => rhmd_serve::server::serve_stdio(engine),
    }
}

#[cfg(not(unix))]
fn serve_transport(
    engine: rhmd_serve::engine::Engine,
    listen: Option<&str>,
) -> Result<rhmd_serve::proto::StatsMsg, RhmdError> {
    if listen.is_some() {
        return Err(RhmdError::config("--listen is only supported on Unix"));
    }
    rhmd_serve::server::serve_stdio(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert!(scale_config("tiny").is_ok());
        assert!(scale_config("galactic").is_err());
    }

    #[test]
    fn kind_and_algorithm_parsing() {
        assert_eq!(parse_kind("memory").unwrap(), FeatureKind::Memory);
        assert!(parse_kind("entropy").is_err());
        assert_eq!(parse_algorithm("nn").unwrap(), Algorithm::Nn);
        assert!(parse_algorithm("xgboost").is_err());
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(parse_fault("noise:0.1").unwrap(), FaultConfig::noise(0.1));
        assert_eq!(parse_fault("drop:0.3").unwrap(), FaultConfig::dropping(0.3));
        assert_eq!(
            parse_fault("saturate:12").unwrap(),
            FaultConfig::saturating(12)
        );
        assert_eq!(parse_fault("wrap:16").unwrap(), FaultConfig::wrapping(16));
        assert_eq!(
            parse_fault("burst:0.05").unwrap(),
            FaultConfig::bursty(0.05, 4)
        );
        // Malformed specs become typed parse errors naming the flag.
        for bad in ["noise", "noise:x", "drop:1.5", "saturate:0", "gamma:0.1"] {
            let err = parse_fault(bad).unwrap_err();
            assert!(matches!(err, RhmdError::Parse { .. }), "{bad}: {err}");
            assert!(err.to_string().contains("--fault"));
        }
    }

    #[test]
    fn quant_flag_parsing() {
        let parse = |argv: &[&str]| {
            let mut full = vec!["train"];
            full.extend_from_slice(argv);
            let args = Args::parse(full.into_iter().map(String::from).collect::<Vec<_>>()).unwrap();
            parse_quant(&args)
        };
        assert_eq!(parse(&[]).unwrap(), None);
        assert_eq!(
            parse(&["--quantize", "int8"]).unwrap(),
            Some(rhmd_ml::QuantConfig::nearest(rhmd_ml::QuantBits::Int8))
        );
        assert_eq!(
            parse(&["--quantize", "int16", "--stochastic-round", "42"]).unwrap(),
            Some(rhmd_ml::QuantConfig::stochastic(rhmd_ml::QuantBits::Int16, 42))
        );
        // --stochastic-round alone implies int16.
        assert_eq!(
            parse(&["--stochastic-round", "7"]).unwrap(),
            Some(rhmd_ml::QuantConfig::stochastic(rhmd_ml::QuantBits::Int16, 7))
        );
        assert_eq!(
            parse(&["--quantize", "int4"]).unwrap(),
            Some(rhmd_ml::QuantConfig::nearest(rhmd_ml::QuantBits::Int4))
        );
        // Malformed values become typed errors naming the offender.
        assert!(parse(&["--quantize", "int2"]).unwrap_err().to_string().contains("int2"));
        assert!(parse(&["--stochastic-round", "banana"])
            .unwrap_err()
            .to_string()
            .contains("--stochastic-round"));
    }

    #[test]
    fn quant_labels_pin_the_checkpoint_config_hash() {
        assert_eq!(quant_label(None), "none");
        assert_eq!(
            quant_label(Some(rhmd_ml::QuantConfig::nearest(rhmd_ml::QuantBits::Int8))),
            "int8/nearest"
        );
        assert_eq!(
            quant_label(Some(rhmd_ml::QuantConfig::stochastic(
                rhmd_ml::QuantBits::Int16,
                42
            ))),
            "int16/stochastic:42"
        );
    }

    #[test]
    fn corpus_command_runs_at_tiny_scale() {
        let args = Args::parse(["corpus", "--scale", "tiny"].map(String::from)).unwrap();
        corpus(&args).unwrap();
    }

    #[test]
    fn train_and_evaluate_round_trip() {
        let dir = std::env::temp_dir().join("rhmd-cli-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.json");
        let train_args = Args::parse(
            [
                "train",
                "--scale",
                "tiny",
                "--feature",
                "architectural",
                "--algo",
                "lr",
                "--out",
                model_path.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        train(&train_args).unwrap();
        let eval_args = Args::parse(
            ["evaluate", "--scale", "tiny", "--model", model_path.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        evaluate(&eval_args).unwrap();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn quantized_train_and_evaluate_round_trip() {
        let dir = std::env::temp_dir().join("rhmd-cli-quant-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("q.json");
        let train_args = Args::parse(
            [
                "train",
                "--scale",
                "tiny",
                "--feature",
                "architectural",
                "--algo",
                "svm",
                "--quantize",
                "int16",
                "--stochastic-round",
                "7",
                "--out",
                model_path.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        train(&train_args).unwrap();
        let eval_args = Args::parse(
            ["evaluate", "--scale", "tiny", "--model", model_path.to_str().unwrap()]
                .map(String::from),
        )
        .unwrap();
        evaluate(&eval_args).unwrap();
        std::fs::remove_file(&model_path).ok();
    }
}
