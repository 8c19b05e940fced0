//! RHMD core: the primary contribution of *"RHMD: Evasion-Resilient
//! Hardware Malware Detectors"* (Khasawneh, Abu-Ghazaleh, Ponomarev, Yu —
//! MICRO 2017), plus the attacker tooling the paper evaluates it against.
//!
//! The crate follows the paper's narrative:
//!
//! 1. [`hmd`] — baseline hardware malware detectors (feature spec ×
//!    classifier) and the label-only [`hmd::BlackBox`] query interface the
//!    attacker sees; [`detector`] — the unified [`detector::Detector`]
//!    trait every detector family implements, with explicitly seeded
//!    switching streams;
//! 2. [`reveng`] — black-box reverse-engineering: query, relabel, train a
//!    surrogate, measure agreement (§4, Figs 3–4);
//! 3. [`evasion`] — reverse-engineering-driven instruction injection:
//!    random / least-weight / weighted strategies at block or function
//!    level, with static/dynamic overhead accounting (§5, Figs 6–10);
//! 4. [`retrain`] — retraining on evasive samples and the multi-generation
//!    evade–retrain game (§6, Figs 11, 13);
//! 5. [`rhmd`] — the resilient detector: stochastic switching across a
//!    diverse pool of base detectors (§7, Figs 14–16), plus the
//!    non-stationary variant sketched as future work in §8.3;
//!    [`ensemble`] — the deterministic ensemble baseline of §9.1;
//! 6. [`pac`] — the Theorem 1 error band that explains *why* randomization
//!    resists reverse-engineering (§8);
//! 7. [`hw`] — the FPGA cost accounting behind the paper's 1.72% area /
//!    0.78% power overhead claim (§7).
//!
//! # Examples
//!
//! Train a baseline detector, reverse-engineer it, and evade it:
//!
//! ```no_run
//! use rhmd_core::evasion::{evade_corpus, plan_evasion, EvasionConfig};
//! use rhmd_core::hmd::Hmd;
//! use rhmd_core::reveng;
//! use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
//! use rhmd_features::{FeatureKind, FeatureSpec};
//! use rhmd_ml::{Algorithm, TrainerConfig};
//! use rhmd_uarch::CoreConfig;
//!
//! let config = CorpusConfig::small();
//! let corpus = Corpus::build(&config);
//! let splits = Splits::new(&corpus, config.seed);
//! let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
//!
//! let spec = FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]);
//! let mut victim = Hmd::train(Algorithm::Lr, spec.clone(), &TrainerConfig::default(),
//!                             &traced, &splits.victim_train);
//!
//! let surrogate = reveng::reverse_engineer(&mut victim, &traced, &splits.attacker_train,
//!                                          spec, Algorithm::Lr, &TrainerConfig::with_seed(1));
//! let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(2));
//! let malware = traced.corpus().malware_indices();
//! let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
//! println!("detection after evasion: {:.0}%", 100.0 * trial.detection_rate());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detector;
pub mod engine;
pub mod ensemble;
pub mod evasion;
pub mod hmd;
pub mod hw;
pub mod optimizer;
pub mod pac;
pub mod persist;
pub mod retrain;
pub mod reveng;
pub mod rhmd;
pub mod verdict;

// The error module moved to `rhmd-runtime` (the corpus store needs it below
// this crate in the graph); both spellings keep working.
pub use rhmd_runtime::error;
pub use rhmd_runtime::RhmdError;

pub use detector::{Detector, StreamRng};
pub use evasion::{evade_corpus, plan_evasion, EvasionConfig, EvasionTrial, Strategy};
pub use hmd::{transfer_labels, BlackBox, Hmd, ProgramVerdict, QuorumVerdict, ABSTAIN_BOUND};
pub use hw::{overhead as hw_overhead, HwOverhead, UnitCosts};
pub use optimizer::{minimal_evasion, MinimalEvasion};
pub use pac::{base_errors, disagreement_matrix, theorem1_band, Theorem1Band};
pub use persist::{load_hmd, restore, save_hmd, snapshot, SavedHmd, SavedModel};
pub use retrain::{evade_retrain_game, retrain_sweep, GameConfig, GenerationRecord, RetrainPoint};
pub use reveng::{reverse_engineer, RevengReport};
pub use ensemble::{Combiner, EnsembleHmd};
pub use rhmd::{build_pool, pool_specs, NonStationaryRhmd, ResilientHmd};
pub use verdict::{DegradedVerdict, VerdictPolicy};
