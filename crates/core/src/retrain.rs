//! Retraining victim detectors on evasive malware (paper §6).
//!
//! Two experiments:
//!
//! * **Fraction sweep** (Fig 11) — retrain with `f`% of the malware training
//!   windows replaced by evasive ones; measure sensitivity on evasive and
//!   unmodified malware and specificity on benign programs.
//! * **Evade–retrain generations** (Fig 13) — alternate attacker evasion and
//!   defender retraining, tracking how each generation's detector handles
//!   current and previous evasive malware.

use crate::error::RhmdError;
use crate::evasion::{plan_evasion, EvasionConfig};
use crate::hmd::{BlackBox, Hmd, ProgramVerdict};
use crate::reveng;
use rhmd_data::{parallel_map, TracedCorpus};
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::RawWindow;
use rhmd_ml::model::Dataset;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::inject::InjectionPlan;
use rhmd_trace::Program;
use serde::{Deserialize, Serialize};

/// Traces the evasive variant of every program in `indices`, returning the
/// per-program subwindows.
pub fn trace_evasive_variants(
    traced: &TracedCorpus,
    indices: &[usize],
    plan: &InjectionPlan,
) -> Vec<Vec<RawWindow>> {
    let programs: Vec<&Program> = indices.iter().map(|&i| traced.corpus().program(i)).collect();
    parallel_map(&programs, |p| traced.retrace(p, plan).0)
}

/// Builds a retraining dataset where `fraction` of the malware windows are
/// evasive (paper Fig 11's x-axis) and benign windows are unchanged.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
pub fn mixed_training_set(
    traced: &TracedCorpus,
    victim_train: &[usize],
    spec: &FeatureSpec,
    evasive_subwindows: &[Vec<RawWindow>],
    fraction: f64,
) -> Dataset {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let labels = traced.corpus().labels();
    let mut data = Dataset::new(spec.dims());
    // Benign windows: unchanged.
    for &i in victim_train.iter().filter(|&&i| !labels[i]) {
        for v in traced.program_vectors(i, spec) {
            data.push(v, false);
        }
    }
    // Malware windows: keep (1 - fraction) original...
    let malware: Vec<usize> = victim_train.iter().copied().filter(|&i| labels[i]).collect();
    let keep = ((malware.len() as f64) * (1.0 - fraction)).round() as usize;
    for &i in &malware[..keep.min(malware.len())] {
        for v in traced.program_vectors(i, spec) {
            data.push(v, true);
        }
    }
    // ...and draw the remainder from evasive variants.
    let need = malware.len() - keep.min(malware.len());
    for subs in evasive_subwindows.iter().cycle().take(need) {
        for w in rhmd_features::window::aggregate(subs, spec.period) {
            data.push(spec.project(&w), true);
        }
    }
    data
}

/// Program-level detection quality of a detector over a set of programs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionQuality {
    /// Fraction of unmodified malware programs detected.
    pub sensitivity_unmodified: f64,
    /// Fraction of benign programs passed.
    pub specificity: f64,
}

/// Measures program-level sensitivity/specificity over `indices`.
pub fn detection_quality(
    detector: &mut dyn BlackBox,
    traced: &TracedCorpus,
    indices: &[usize],
) -> DetectionQuality {
    let labels = traced.corpus().labels();
    let (mut tp, mut mal, mut tn, mut ben) = (0usize, 0usize, 0usize, 0usize);
    for &i in indices {
        let stream = detector.label_subwindows(traced.subwindows(i));
        let verdict = ProgramVerdict::from_decisions(&stream).is_malware();
        if labels[i] {
            mal += 1;
            if verdict {
                tp += 1;
            }
        } else {
            ben += 1;
            if !verdict {
                tn += 1;
            }
        }
    }
    DetectionQuality {
        sensitivity_unmodified: if mal == 0 { 0.0 } else { tp as f64 / mal as f64 },
        specificity: if ben == 0 { 0.0 } else { tn as f64 / ben as f64 },
    }
}

/// Fraction of evasive variants (given as per-program subwindow traces)
/// flagged as malware.
pub fn evasive_sensitivity(
    detector: &mut dyn BlackBox,
    evasive_subwindows: &[Vec<RawWindow>],
) -> f64 {
    if evasive_subwindows.is_empty() {
        return 0.0;
    }
    let detected = evasive_subwindows
        .iter()
        .filter(|subs| {
            let stream = detector.label_subwindows(subs);
            ProgramVerdict::from_decisions(&stream).is_malware()
        })
        .count();
    detected as f64 / evasive_subwindows.len() as f64
}

/// One point of the Fig 11 retraining sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrainPoint {
    /// Fraction of evasive malware in the training set.
    pub fraction: f64,
    /// Sensitivity on evasive malware (program level).
    pub sensitivity_evasive: f64,
    /// Sensitivity on unmodified malware.
    pub sensitivity_unmodified: f64,
    /// Specificity on benign programs.
    pub specificity: f64,
}

/// Computes one point of the Fig 11 sweep: retrains with `fraction` of the
/// malware windows evasive and measures the retrained detector. Each point
/// is independent of every other, which is what makes the sweep both
/// parallelizable and checkpointable unit-by-unit.
#[allow(clippy::too_many_arguments)]
pub fn retrain_point(
    algorithm: Algorithm,
    spec: &FeatureSpec,
    trainer: &TrainerConfig,
    traced: &TracedCorpus,
    victim_train: &[usize],
    test_indices: &[usize],
    evasive_train: &[Vec<RawWindow>],
    evasive_test: &[Vec<RawWindow>],
    fraction: f64,
) -> RetrainPoint {
    let data = mixed_training_set(traced, victim_train, spec, evasive_train, fraction);
    let mut retrained = Hmd::train_on_dataset(algorithm, spec.clone(), trainer, &data);
    let quality = detection_quality(&mut retrained, traced, test_indices);
    RetrainPoint {
        fraction,
        sensitivity_evasive: evasive_sensitivity(&mut retrained, evasive_test),
        sensitivity_unmodified: quality.sensitivity_unmodified,
        specificity: quality.specificity,
    }
}

/// Runs the Fig 11 sweep for one algorithm.
///
/// `evasive_train` supplies the evasive windows mixed into training;
/// `evasive_test` the held-out evasive variants measured against.
#[allow(clippy::too_many_arguments)]
pub fn retrain_sweep(
    algorithm: Algorithm,
    spec: &FeatureSpec,
    trainer: &TrainerConfig,
    traced: &TracedCorpus,
    victim_train: &[usize],
    test_indices: &[usize],
    evasive_train: &[Vec<RawWindow>],
    evasive_test: &[Vec<RawWindow>],
    fractions: &[f64],
) -> Vec<RetrainPoint> {
    fractions
        .iter()
        .map(|&fraction| {
            retrain_point(
                algorithm,
                spec,
                trainer,
                traced,
                victim_train,
                test_indices,
                evasive_train,
                evasive_test,
                fraction,
            )
        })
        .collect()
}

/// One generation of the evade–retrain game (Fig 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// 1-based generation number.
    pub generation: u32,
    /// Specificity on benign programs.
    pub specificity: f64,
    /// Sensitivity on unmodified malware.
    pub sensitivity_unmodified: f64,
    /// Sensitivity on the evasive malware created against *this* detector.
    pub sensitivity_current_evasive: f64,
    /// Sensitivity on the previous generation's evasive malware.
    pub sensitivity_previous_evasive: f64,
}

/// Configuration of the evade–retrain game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Defender's algorithm (the paper plays this with NN).
    pub algorithm: Algorithm,
    /// Defender's feature spec.
    pub spec: FeatureSpec,
    /// Attacker's surrogate algorithm.
    pub surrogate: Algorithm,
    /// Instructions injected per site each generation.
    pub payload: usize,
    /// Number of generations to play.
    pub generations: u32,
    /// Training hyperparameters.
    pub trainer: TrainerConfig,
    /// Game seed.
    pub seed: u64,
}

impl GameConfig {
    /// A stable hash of the full configuration (FNV-1a over the canonical
    /// debug rendering), used to refuse resuming a checkpoint written by a
    /// different game. `generations` is deliberately excluded so a finished
    /// checkpoint can be extended with more generations.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.generations = 0;
        fnv1a(format!("{canonical:?}").as_bytes())
    }
}

/// FNV-1a over `bytes` — a tiny stable hash for config fingerprints (the
/// richer durable-I/O layer lives in `rhmd-bench`, which this crate must
/// not depend on).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Version of the serialized [`GameState`] layout.
pub const GAME_STATE_VERSION: u32 = 1;

/// The inter-generation state of the evade–retrain game — everything needed
/// to continue the game after generation `completed_generations` exactly as
/// an uninterrupted run would.
///
/// The victim detector itself is *not* stored: it is always retrained from
/// the (deterministic) initial window dataset plus `evasive_rows`, so the
/// resumed detector is bit-identical to the one the interrupted run held.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameState {
    /// Layout version ([`GAME_STATE_VERSION`]).
    pub schema_version: u32,
    /// [`GameConfig::stable_hash`] of the game that wrote this state.
    pub config_hash: u64,
    /// Generations fully played (records + retrain applied).
    pub completed_generations: u32,
    /// One record per completed generation.
    pub records: Vec<GenerationRecord>,
    /// Projected evasive training rows appended so far, in append order.
    pub evasive_rows: Vec<Vec<f64>>,
    /// The evasive test variants of the last completed generation.
    pub previous_evasive_test: Vec<Vec<RawWindow>>,
}

impl GameState {
    /// Validates that this state can seed a resume of `config`.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Version`] on a schema-version mismatch;
    /// [`RhmdError::Config`] when the state was written by a different game
    /// configuration, is internally inconsistent, or already covers at
    /// least `config.generations` generations.
    pub fn validate_for(&self, config: &GameConfig) -> Result<(), RhmdError> {
        if self.schema_version != GAME_STATE_VERSION {
            return Err(RhmdError::Version {
                found: self.schema_version,
                expected: GAME_STATE_VERSION,
            });
        }
        if self.config_hash != config.stable_hash() {
            return Err(RhmdError::config(format!(
                "game checkpoint was written by a different configuration \
                 (checkpoint hash {:016x}, this run {:016x}); rerun with the \
                 original flags or start a fresh checkpoint directory",
                self.config_hash,
                config.stable_hash()
            )));
        }
        if self.records.len() != self.completed_generations as usize {
            return Err(RhmdError::config(format!(
                "game checkpoint is inconsistent: {} generation record(s) for \
                 {} completed generation(s)",
                self.records.len(),
                self.completed_generations
            )));
        }
        Ok(())
    }
}

/// Plays the evade–retrain game and records each generation.
///
/// Per generation: the attacker reverse-engineers the current detector and
/// rewrites the malware; the defender then retrains with the evasive samples
/// added to the training set (as the paper does, "adding malware from the
/// previous generations to the training set").
#[allow(clippy::too_many_arguments)]
pub fn evade_retrain_game(
    config: &GameConfig,
    traced: &TracedCorpus,
    victim_train: &[usize],
    attacker_train: &[usize],
    test_indices: &[usize],
) -> Vec<GenerationRecord> {
    evade_retrain_game_resumable(
        config,
        traced,
        victim_train,
        attacker_train,
        test_indices,
        None,
        &mut |_| Ok(()),
    )
    .expect("game without resume state or fallible callback cannot fail")
}

/// [`evade_retrain_game`] with checkpoint hooks: `resume` (a validated
/// [`GameState`]) fast-forwards past already-played generations, and
/// `on_generation` receives the post-retrain state after every generation so
/// callers can persist it. A resumed game is **bit-identical** to an
/// uninterrupted one: the per-generation seeds derive from `(config.seed,
/// generation)` alone, and retraining is a deterministic function of the
/// initial window dataset plus the recorded evasive rows.
///
/// # Errors
///
/// Propagates [`GameState::validate_for`] failures and any error the
/// `on_generation` callback returns.
#[allow(clippy::too_many_arguments)]
pub fn evade_retrain_game_resumable(
    config: &GameConfig,
    traced: &TracedCorpus,
    victim_train: &[usize],
    attacker_train: &[usize],
    test_indices: &[usize],
    resume: Option<GameState>,
    on_generation: &mut dyn FnMut(&GameState) -> Result<(), RhmdError>,
) -> Result<Vec<GenerationRecord>, RhmdError> {
    let labels = traced.corpus().labels();
    let train_malware: Vec<usize> = victim_train
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    let test_malware: Vec<usize> = test_indices
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();

    let mut training_data = {
        let mut d = traced.window_dataset(victim_train, &config.spec);
        d.extend_from(&Dataset::new(config.spec.dims()));
        d
    };
    let mut previous_evasive_test: Vec<Vec<RawWindow>> = Vec::new();
    let mut records = Vec::with_capacity(config.generations as usize);
    let mut evasive_rows: Vec<Vec<f64>> = Vec::new();
    let mut first_generation = 1u32;
    if let Some(state) = resume {
        state.validate_for(config)?;
        if state.completed_generations >= config.generations {
            // The checkpoint already covers every requested generation.
            return Ok(state.records[..config.generations as usize].to_vec());
        }
        training_data.reserve_rows(state.evasive_rows.len());
        for row in &state.evasive_rows {
            training_data.push_row(row, true);
        }
        first_generation = state.completed_generations + 1;
        records = state.records;
        evasive_rows = state.evasive_rows;
        previous_evasive_test = state.previous_evasive_test;
    }
    let mut victim = Hmd::train_on_dataset(
        config.algorithm,
        config.spec.clone(),
        &config.trainer,
        &training_data,
    );

    for generation in first_generation..=config.generations {
        // Attacker: reverse-engineer the current detector and build a plan.
        let surrogate = reveng::reverse_engineer(
            &mut victim,
            traced,
            attacker_train,
            config.spec.clone(),
            config.surrogate,
            &TrainerConfig::with_seed(config.seed ^ u64::from(generation)),
        );
        let plan = plan_evasion(
            &surrogate,
            &EvasionConfig {
                seed: config.seed ^ (u64::from(generation) << 8),
                ..EvasionConfig::least_weight(config.payload)
            },
        );

        // Evasive variants: of the training malware (for retraining) and the
        // test malware (for evaluation).
        let evasive_train = trace_evasive_variants(traced, &train_malware, &plan);
        let evasive_test = trace_evasive_variants(traced, &test_malware, &plan);

        let quality = detection_quality(&mut victim, traced, test_indices);
        let record = GenerationRecord {
            generation,
            specificity: quality.specificity,
            sensitivity_unmodified: quality.sensitivity_unmodified,
            sensitivity_current_evasive: evasive_sensitivity(&mut victim, &evasive_test),
            sensitivity_previous_evasive: if previous_evasive_test.is_empty() {
                quality.sensitivity_unmodified
            } else {
                evasive_sensitivity(&mut victim, &previous_evasive_test)
            },
        };
        records.push(record);

        // Defender: retrain with the new evasive samples added.
        for subs in &evasive_train {
            for w in rhmd_features::window::aggregate(subs, config.spec.period) {
                let row = config.spec.project(&w);
                training_data.push(row.clone(), true);
                evasive_rows.push(row);
            }
        }
        victim = Hmd::train_on_dataset(
            config.algorithm,
            config.spec.clone(),
            &config.trainer,
            &training_data,
        );
        previous_evasive_test = evasive_test;

        let state = GameState {
            schema_version: GAME_STATE_VERSION,
            config_hash: config.stable_hash(),
            completed_generations: generation,
            records: records.clone(),
            evasive_rows: evasive_rows.clone(),
            previous_evasive_test: previous_evasive_test.clone(),
        };
        on_generation(&state)?;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::FeatureKind;
    use rhmd_features::select::select_top_delta_opcodes;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits, FeatureSpec) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let labels = traced.corpus().labels();
        let mal: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let ben: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| !labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let opcodes = select_top_delta_opcodes(&mal, &ben, 12);
        let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes);
        (traced, splits, spec)
    }

    #[test]
    fn mixed_training_set_swaps_malware_windows() {
        let (traced, splits, spec) = fixture();
        let labels = traced.corpus().labels();
        let malware: Vec<usize> = splits
            .victim_train
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect();
        let plan = InjectionPlan::new(
            vec![rhmd_trace::isa::Opcode::Fpu],
            rhmd_trace::inject::Placement::EveryBlock,
        );
        let evasive = trace_evasive_variants(&traced, &malware[..2], &plan);
        let zero = mixed_training_set(&traced, &splits.victim_train, &spec, &evasive, 0.0);
        let half = mixed_training_set(&traced, &splits.victim_train, &spec, &evasive, 0.5);
        assert!(zero.positives() > 0);
        assert!(half.positives() > 0);
        assert_eq!(zero.negatives(), half.negatives());
    }

    #[test]
    fn detection_quality_bounds() {
        let (traced, splits, spec) = fixture();
        let mut hmd = Hmd::train(
            Algorithm::Lr,
            spec,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let q = detection_quality(&mut hmd, &traced, &splits.attacker_test);
        assert!((0.0..=1.0).contains(&q.sensitivity_unmodified));
        assert!((0.0..=1.0).contains(&q.specificity));
        assert!(q.sensitivity_unmodified > 0.4);
        assert!(q.specificity > 0.4);
    }

    #[test]
    fn game_runs_generations() {
        let (traced, splits, spec) = fixture();
        let config = GameConfig {
            algorithm: Algorithm::Nn,
            spec,
            surrogate: Algorithm::Lr,
            payload: 2,
            generations: 2,
            trainer: TrainerConfig::default(),
            seed: 11,
        };
        let records = evade_retrain_game(
            &config,
            &traced,
            &splits.victim_train,
            &splits.attacker_train,
            &splits.attacker_test,
        );
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].generation, 1);
        for r in &records {
            assert!((0.0..=1.0).contains(&r.sensitivity_current_evasive));
            assert!((0.0..=1.0).contains(&r.specificity));
        }
    }

    #[test]
    fn resumed_game_is_bit_identical_to_uninterrupted() {
        let (traced, splits, spec) = fixture();
        let config = GameConfig {
            algorithm: Algorithm::Nn,
            spec,
            surrogate: Algorithm::Lr,
            payload: 2,
            generations: 3,
            trainer: TrainerConfig::default(),
            seed: 11,
        };
        let golden = evade_retrain_game(
            &config,
            &traced,
            &splits.victim_train,
            &splits.attacker_train,
            &splits.attacker_test,
        );

        // Play one generation, snapshot, "crash", resume from the snapshot.
        let mut snapshots: Vec<GameState> = Vec::new();
        let mut interrupted = config.clone();
        interrupted.generations = 1;
        evade_retrain_game_resumable(
            &interrupted,
            &traced,
            &splits.victim_train,
            &splits.attacker_train,
            &splits.attacker_test,
            None,
            &mut |state| {
                snapshots.push(state.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(snapshots.len(), 1);

        let resumed = evade_retrain_game_resumable(
            &config,
            &traced,
            &splits.victim_train,
            &splits.attacker_train,
            &splits.attacker_test,
            Some(snapshots.pop().unwrap()),
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(resumed.len(), golden.len());
        for (r, g) in resumed.iter().zip(&golden) {
            assert_eq!(r.generation, g.generation);
            assert_eq!(r.specificity.to_bits(), g.specificity.to_bits());
            assert_eq!(
                r.sensitivity_unmodified.to_bits(),
                g.sensitivity_unmodified.to_bits()
            );
            assert_eq!(
                r.sensitivity_current_evasive.to_bits(),
                g.sensitivity_current_evasive.to_bits()
            );
            assert_eq!(
                r.sensitivity_previous_evasive.to_bits(),
                g.sensitivity_previous_evasive.to_bits()
            );
        }
    }

    #[test]
    fn resume_rejects_mismatched_config_and_bad_schema() {
        let (traced, splits, spec) = fixture();
        let config = GameConfig {
            algorithm: Algorithm::Nn,
            spec,
            surrogate: Algorithm::Lr,
            payload: 2,
            generations: 2,
            trainer: TrainerConfig::default(),
            seed: 11,
        };
        let mut other = config.clone();
        other.seed = 12;
        assert_ne!(config.stable_hash(), other.stable_hash());
        // More generations alone is still "the same game".
        let mut extended = config.clone();
        extended.generations = 9;
        assert_eq!(config.stable_hash(), extended.stable_hash());

        let state = GameState {
            schema_version: GAME_STATE_VERSION,
            config_hash: other.stable_hash(),
            completed_generations: 1,
            records: vec![GenerationRecord {
                generation: 1,
                specificity: 1.0,
                sensitivity_unmodified: 1.0,
                sensitivity_current_evasive: 0.5,
                sensitivity_previous_evasive: 1.0,
            }],
            evasive_rows: Vec::new(),
            previous_evasive_test: Vec::new(),
        };
        let err = evade_retrain_game_resumable(
            &config,
            &traced,
            &splits.victim_train,
            &splits.attacker_train,
            &splits.attacker_test,
            Some(state.clone()),
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)), "{err}");
        assert!(err.to_string().contains("different configuration"), "{err}");

        let mut stale = state;
        stale.config_hash = config.stable_hash();
        stale.schema_version = 99;
        assert!(matches!(
            stale.validate_for(&config),
            Err(RhmdError::Version { found: 99, .. })
        ));
    }
}
