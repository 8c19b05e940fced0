//! One module per group of paper figures; each function regenerates the
//! corresponding table(s). [`EXPERIMENTS`] lists them all in the order
//! `repro` runs them. See DESIGN.md §4 for the full experiment index.

pub mod ablation;
pub mod baseline;
pub mod evasion;
pub mod extensions;
pub mod resilient;
pub mod retraining;
pub mod reveng;
pub mod robustness;
pub mod theory;

use crate::{Experiment, Table};
use rhmd_core::RhmdError;
use rhmd_runtime::ckpt::CkptOptions;

/// The corpus fingerprint experiments put in their checkpoint manifests.
fn corpus_summary(exp: &Experiment) -> String {
    format!(
        "programs={};seed={}",
        exp.config.total_programs(),
        exp.config.seed
    )
}

/// One experiment `repro` runs.
#[derive(Debug)]
pub struct Entry {
    /// The `repro --only` id, also the experiment's checkpoint subdirectory.
    pub id: &'static str,
    /// The metrics span the experiment runs under: `repro.<id>`.
    pub span: &'static str,
    /// Progress label printed to stderr.
    pub label: &'static str,
    /// Regenerates the tables; checkpointing is on when options are given.
    pub run: fn(&Experiment, Option<&CkptOptions>) -> Result<Vec<Table>, RhmdError>,
}

/// Builds an [`Entry`]; `one f` / `many f` adapt a figure function that
/// returns one table / several.
macro_rules! entry {
    ($id:literal, $label:literal, one $f:path) => {
        entry!($id, $label, |exp, _| Ok(vec![$f(exp)]))
    };
    ($id:literal, $label:literal, many $f:path) => {
        entry!($id, $label, |exp, _| Ok($f(exp)))
    };
    ($id:literal, $label:literal, $run:expr) => {
        Entry {
            id: $id,
            span: concat!("repro.", $id),
            label: $label,
            run: $run,
        }
    };
}

/// Every experiment, in the order a full `repro` run prints them: the
/// paper's figures and tables, then the ablations, then the extensions,
/// then the counter-fault robustness sweep.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Entry] = &[
    entry!("fig02", "Fig 2: baseline detectors", one baseline::fig02),
    entry!("fig03a", "Fig 3a: reverse-engineering the period", one reveng::fig03_period),
    entry!("fig03b", "Fig 3b: reverse-engineering the feature", one reveng::fig03_feature),
    entry!("fig04", "Fig 4: reverse-engineering efficiency", many reveng::fig04),
    entry!("fig06", "Fig 6: random injection", one evasion::fig06),
    entry!("fig08", "Fig 8: least-weight injection", many evasion::fig08),
    entry!("fig09", "Fig 9: injection overhead", one evasion::fig09),
    entry!("fig10", "Fig 10: weighted injection", one evasion::fig10),
    entry!("fig11", "Fig 11: retraining sweep", retraining::fig11),
    entry!("fig13", "Fig 13: evade-retrain generations", |e, c| Ok(vec![retraining::fig13(e, c)?])),
    entry!("fig14", "Fig 14: RHMD reverse-engineering (features)", many resilient::fig14),
    entry!("fig15", "Fig 15: RHMD reverse-engineering (+ periods)", many resilient::fig15),
    entry!("fig16", "Fig 16: RHMD evasion resilience", one resilient::fig16),
    entry!("ext5", "Ext 5: stochastic-rounding defense", one resilient::ext_stochastic_defense),
    entry!("hw", "HW table", one theory::tab_hw),
    entry!("thm1", "Theorem 1 bounds", one theory::thm1),
    entry!("abl-a", "Abl A: per-feature evasion", one ablation::ablation_feature_evasion),
    entry!("abl-b", "Abl B: probability trade-off", one ablation::ablation_probability_tradeoff),
    entry!("abl-c", "Abl C: switching granularity", one ablation::ablation_switching),
    entry!("abl-d", "Abl D: query budget", one ablation::ablation_query_budget),
    entry!("abl-e", "Abl E: minimal overhead", one ablation::ablation_minimal_overhead),
    entry!("abl-f", "Abl F: verdict policy", one ablation::ablation_verdict_policy),
    entry!("ext1", "Ext 1: ensemble vs RHMD", one extensions::ext_ensemble_vs_rhmd),
    entry!("ext2", "Ext 2: anomaly detector", one extensions::ext_anomaly_detector),
    entry!("ext3", "Ext 3: random-forest victim", one extensions::ext_random_forest_victim),
    entry!("ext4", "Ext 4: dormant malware", one extensions::ext_dormant_malware),
    entry!("robust", "Robustness: counter fault injection", robustness::robust),
];
