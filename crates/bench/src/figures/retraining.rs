//! Figs 11, 13 — retraining on evasive malware.
//!
//! Both figures are long multi-stage campaigns, so both are checkpointable:
//! under `repro --checkpoint <dir>` each completed sweep point (Fig 11,
//! `<dir>/fig11`) or played generation (Fig 13, `<dir>/fig13`) is journaled
//! durably; a rerun after a crash skips finished work and produces
//! bit-identical tables.

use super::corpus_summary;
use crate::context::Experiment;
use crate::report::Table;
use rhmd_core::evasion::{plan_evasion, EvasionConfig, Strategy};
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::{
    evade_retrain_game_resumable, retrain_point, trace_evasive_variants, GameConfig, GameState,
};
use rhmd_core::reveng::reverse_engineer;
use rhmd_core::RhmdError;
use rhmd_features::vector::FeatureKind;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_runtime::ckpt::{journal_with, unit_or_compute, CkptOptions};
use rhmd_trace::inject::Placement;

/// Figs 11a/11b: retraining LR and NN with a growing share of evasive
/// malware in the training set.
///
/// Checkpointing is on when `ckpt` is given.
///
/// # Errors
///
/// Checkpoint I/O failures when checkpointing is on (see [`journal_with`]).
pub fn fig11(exp: &Experiment, ckpt: Option<&CkptOptions>) -> Result<Vec<Table>, RhmdError> {
    let spec = exp.spec(FeatureKind::Instructions, 10_000);
    let mut journal = journal_with(ckpt, "fig11", &corpus_summary(exp))?;

    // The evasive malware is built against the *original* LR detector via
    // its reverse-engineered surrogate, with the weighted strategy (paper
    // §5-§6).
    let mut original = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    );
    let surrogate = reverse_engineer(
        &mut original,
        &exp.traced,
        &exp.splits.attacker_train,
        spec.clone(),
        Algorithm::Lr,
        &TrainerConfig::with_seed(0x11a),
    );
    let plan = plan_evasion(
        &surrogate,
        &EvasionConfig {
            strategy: Strategy::Weighted,
            count: 2,
            placement: Placement::EveryBlock,
            seed: 0x11b,
        },
    );
    let evasive_train = trace_evasive_variants(&exp.traced, &exp.train_malware(), &plan);
    let evasive_test = trace_evasive_variants(&exp.traced, &exp.test_malware(), &plan);

    let fractions = [0.0, 0.05, 0.07, 0.10, 0.14, 0.17, 0.20, 0.22, 0.25];
    let mut tables = Vec::new();
    for (algo, id) in [(Algorithm::Lr, "Fig 11a"), (Algorithm::Nn, "Fig 11b")] {
        let mut table = Table::new(
            id,
            format!(
                "retraining {} with evasive malware (paper: LR trades unmodified \
                 sensitivity for evasive sensitivity; NN gains both)",
                algo
            ),
            &[
                "evasive fraction",
                "sens (evasive)",
                "sens (unmodified)",
                "specificity",
            ],
        );
        for &fraction in &fractions {
            // Each sweep point is one independent, journaled work unit.
            let (p, _) = unit_or_compute(&mut journal, &format!("{algo}/{fraction}"), || {
                retrain_point(
                    algo,
                    &spec,
                    &exp.trainer,
                    &exp.traced,
                    &exp.splits.victim_train,
                    &exp.splits.attacker_test,
                    &evasive_train,
                    &evasive_test,
                    fraction,
                )
            })?;
            table.push_row(vec![
                Table::pct(p.fraction),
                Table::pct(p.sensitivity_evasive),
                Table::pct(p.sensitivity_unmodified),
                Table::pct(p.specificity),
            ]);
        }
        tables.push(table);
    }
    if let Some(journal) = journal.as_mut() {
        journal.sync()?;
    }
    Ok(tables)
}

/// Fig 13: the NN evade–retrain game over seven generations.
///
/// Checkpointing is on when `ckpt` is given.
///
/// # Errors
///
/// Checkpoint I/O failures when checkpointing is on, and
/// [`RhmdError::Config`] when the saved game state belongs to a different
/// configuration.
pub fn fig13(exp: &Experiment, ckpt: Option<&CkptOptions>) -> Result<Table, RhmdError> {
    let mut table = Table::new(
        "Fig 13",
        "NN detector across evade-retrain generations (paper: previous-gen evasive caught, \
         current-gen evades, breakdown by gen ~7)",
        &[
            "generation",
            "specificity",
            "sens (unmodified)",
            "sens (current evasive)",
            "sens (previous evasive)",
        ],
    );
    let config = GameConfig {
        algorithm: Algorithm::Nn,
        spec: exp.spec(FeatureKind::Instructions, 10_000),
        surrogate: Algorithm::Nn,
        payload: 2,
        generations: 7,
        trainer: exp.trainer,
        seed: 0x13,
    };
    let summary = format!(
        "{};game={:016x}",
        corpus_summary(exp),
        config.stable_hash()
    );
    let journal = journal_with(ckpt, "fig13", &summary)?;
    let resume = match &journal {
        Some(journal) => {
            let state = journal.load_state::<GameState>()?;
            if let Some(state) = &state {
                eprintln!(
                    "[fig13] resuming after generation {}",
                    state.completed_generations
                );
            }
            state
        }
        None => None,
    };
    let records = evade_retrain_game_resumable(
        &config,
        &exp.traced,
        &exp.splits.victim_train,
        &exp.splits.attacker_train,
        &exp.splits.attacker_test,
        resume,
        &mut |state| match &journal {
            Some(journal) => journal.save_state(state),
            None => Ok(()),
        },
    )?;
    for r in records {
        table.push_row(vec![
            r.generation.to_string(),
            Table::pct(r.specificity),
            Table::pct(r.sensitivity_unmodified),
            Table::pct(r.sensitivity_current_evasive),
            Table::pct(r.sensitivity_previous_evasive),
        ]);
    }
    Ok(table)
}
