//! Robustness sweep: detection quality under counter fault injection.
//!
//! Sweeps fault intensity × kind over the held-out test programs and
//! reports how each detector family degrades: a single LR and NN baseline,
//! the deterministic majority ensemble, and a 6-detector RHMD pool. The
//! claim under test: RHMD's pooled quorum degrades no faster than its best
//! base detector, because abstention removes corrupted windows from the
//! vote instead of letting them mis-vote.
//!
//! Run with `RHMD_SCALE=tiny cargo run --release -p rhmd-bench --bin
//! robustness_sweep` for a quick pass. `--checkpoint <dir>` journals each
//! fault cell durably and resumes after a crash; `--metrics <path>` /
//! `--metrics-summary` export observability counters. See `--help`.

use rhmd_bench::flags::parse_env_args;
use rhmd_bench::{Experiment, Table};
use rhmd_core::RhmdError;
use rhmd_core::detector::{Detector, StreamRng};
use rhmd_core::engine::{DegradedQuality, Evaluator};
use rhmd_core::ensemble::{Combiner, EnsembleHmd};
use rhmd_core::hmd::{Hmd, QuorumVerdict};
use rhmd_core::rhmd::{build_pool, pool_specs, ResilientHmd};
use rhmd_core::verdict::VerdictPolicy;
use rhmd_features::vector::FeatureKind;
use rhmd_features::window::RawWindow;
use rhmd_ml::trainer::Algorithm;
use rhmd_runtime::pool::Pool;
use rhmd_uarch::faults::FaultConfig;

/// Windows must be at least half-full to vote.
const MIN_FILL: f64 = 0.5;
/// Programs whose surviving-window coverage drops below this abstain.
const MIN_COVERAGE: f64 = 0.25;
/// Base seed for per-program fault models.
const FAULT_SEED: u64 = 0xfa17;

/// The fault grid: identity first, then each kind at escalating intensity.
fn fault_grid() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("noise 5%", FaultConfig::noise(0.05)),
        ("noise 20%", FaultConfig::noise(0.2)),
        ("drop 10%", FaultConfig::dropping(0.1)),
        ("drop 30%", FaultConfig::dropping(0.3)),
        ("multiplex 25%", FaultConfig::multiplexed(0.25)),
        ("burst 5%", FaultConfig::bursty(0.05, 4)),
        ("saturate 12b", FaultConfig::saturating(12)),
        ("wrap 12b", FaultConfig::wrapping(12)),
    ]
}

/// Measures one detector over the fault-corrupted test split on the
/// parallel engine. Per-program fault seeds stay the historical
/// `FAULT_SEED ^ i` derivation, so the table is bit-compatible with the
/// serial sweep this replaced.
fn measure(
    engine: &Evaluator<'_>,
    test: &[usize],
    config: FaultConfig,
    quorum_of: impl Fn(usize, &[RawWindow]) -> QuorumVerdict + Sync,
) -> DegradedQuality {
    engine.degraded_quality(
        test,
        config,
        &VerdictPolicy::majority(),
        MIN_COVERAGE,
        |i| FAULT_SEED ^ i as u64,
        quorum_of,
    )
}

fn cell(q: &DegradedQuality) -> String {
    if q.abstain_rate > 0.0 {
        format!(
            "{} / {} ({}% abst)",
            Table::pct(q.sensitivity),
            Table::pct(q.specificity),
            (100.0 * q.abstain_rate).round()
        )
    } else {
        format!("{} / {}", Table::pct(q.sensitivity), Table::pct(q.specificity))
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), RhmdError> {
    let opts = parse_env_args("robustness_sweep")?;
    opts.metrics.install();
    let exp = Experiment::load();
    let spec = exp.spec(FeatureKind::Architectural, 10_000);
    let journal = rhmd_runtime::ckpt::journal_with(
        opts.ckpt.as_ref(),
        "robustness",
        &format!(
            "programs={};seed={}",
            exp.config.total_programs(),
            exp.config.seed
        ),
    )?;

    eprintln!("[robustness] training detectors ...");
    let lr = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    );
    let nn = Hmd::train(
        Algorithm::Nn,
        spec,
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    );
    let ensemble = EnsembleHmd::new(
        FeatureKind::ALL
            .iter()
            .map(|&k| {
                Hmd::train(
                    Algorithm::Lr,
                    exp.spec(k, 10_000),
                    &exp.trainer,
                    &exp.traced,
                    &exp.splits.victim_train,
                )
            })
            .collect(),
        Combiner::Majority,
    );
    let rhmd: ResilientHmd = build_pool(
        Algorithm::Lr,
        pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &exp.opcodes),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
        0x5eed,
    );
    assert_eq!(rhmd.detectors().len(), 6);

    let mut table = Table::new(
        "Robustness",
        "program-level sensitivity / specificity under counter fault injection \
         (majority verdict over voting windows; abstentions excluded from the vote)",
        &["fault", "LR", "NN", "Ensemble(3)", "RHMD(6)"],
    );
    let mut builder = Evaluator::builder(&exp.traced, FAULT_SEED)
        .pool(Pool::available())
        .recorder(opts.metrics.recorder()?);
    if let Some(journal) = journal {
        builder = builder.checkpoint(journal);
    }
    let engine = builder.build();
    let test = &exp.splits.attacker_test;
    let mut sweep: Vec<[DegradedQuality; 4]> = Vec::new();
    for (name, config) in fault_grid() {
        eprintln!("[robustness] fault: {name}");
        // Each (fault, detector) cell is one independent, journaled work
        // unit: a resumed run skips the finished measurements entirely.
        let (q_lr, _) = engine.unit(&format!("{name}/lr"), || {
            measure(&engine, test, config, |_, subs| lr.quorum_verdict(subs, MIN_FILL))
        })?;
        let (q_nn, _) = engine.unit(&format!("{name}/nn"), || {
            measure(&engine, test, config, |_, subs| nn.quorum_verdict(subs, MIN_FILL))
        })?;
        let (q_en, _) = engine.unit(&format!("{name}/ensemble"), || {
            measure(&engine, test, config, |_, subs| {
                ensemble.quorum_verdict(subs, MIN_FILL)
            })
        })?;
        // The serial sweep reset the pool before every program, i.e. each
        // program saw the switching stream from the construction seed — the
        // trait-path quorum with a construction-seeded StreamRng replays
        // exactly that, without shared state.
        let (q_rh, _) = engine.unit(&format!("{name}/rhmd"), || {
            measure(&engine, test, config, |_, subs| {
                Detector::quorum(&rhmd, subs, MIN_FILL, &mut StreamRng::from_seed(rhmd.seed()))
            })
        })?;
        table.push_row(vec![
            name.to_owned(),
            cell(&q_lr),
            cell(&q_nn),
            cell(&q_en),
            cell(&q_rh),
        ]);
        sweep.push([q_lr, q_nn, q_en, q_rh]);
    }
    engine.sync_checkpoint()?;
    println!("{table}");

    // Degradation summary relative to the fault-free first row.
    let mut degradation = Table::new(
        "Degradation",
        "worst-case sensitivity drop vs the fault-free baseline (percentage points)",
        &["detector", "clean sens", "worst sens", "drop"],
    );
    for (col, label) in ["LR", "NN", "Ensemble(3)", "RHMD(6)"].iter().enumerate() {
        let clean = sweep[0][col].sensitivity;
        let worst = sweep[1..]
            .iter()
            .map(|row| row[col].sensitivity)
            .fold(f64::INFINITY, f64::min);
        degradation.push_row(vec![
            (*label).to_owned(),
            Table::pct(clean),
            Table::pct(worst),
            format!("{:.1}pp", 100.0 * (clean - worst)),
        ]);
    }
    println!("{degradation}");
    opts.metrics.finish()
}
