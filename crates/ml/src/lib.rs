//! From-scratch machine learning for hardware malware detectors.
//!
//! The RHMD paper trains and reverse-engineers four classic model families;
//! this crate implements all of them with no external ML dependencies:
//!
//! * [`linear::LogisticRegression`] — the hardware-friendly baseline (LR);
//! * [`mlp::Mlp`] — one-hidden-layer `tanh` perceptron (the paper's NN);
//! * [`tree::DecisionTree`] — CART (attacker surrogate);
//! * [`svm::LinearSvm`] — Pegasos-trained linear SVM (attacker surrogate);
//! * [`forest::RandomForest`] — bagged CART ensemble (the paper §8.2's
//!   high-complexity deterministic comparator);
//!
//! plus the shared machinery the experiments need: [`model::Dataset`] and
//! the object-safe [`model::Classifier`] trait, [`metrics`] (ROC/AUC,
//! accuracy-maximizing thresholds, detector agreement), [`scale`]
//! (standardization baked into every model), [`split`] (stratified 60/20/20
//! splits), and [`trainer`] (algorithm-swept training).
//!
//! All training is deterministic given the config seeds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anomaly;
pub mod forest;
pub mod kernel;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod mmap;
pub mod model;
pub mod quant;
pub mod scale;
pub mod split;
pub mod svm;
pub mod trainer;
pub mod tree;

#[cfg(test)]
mod train_diff;

pub use anomaly::{AnomalyConfig, GaussianAnomaly};
pub use forest::{ForestConfig, RandomForest};
pub use linear::{LogisticRegression, LrConfig};
pub use matrix::FeatureMatrix;
pub use metrics::{agreement, auc, best_accuracy_threshold, roc_curve, Confusion, RocPoint};
pub use mlp::{Mlp, MlpConfig};
pub use model::{predict_all, score_all, Classifier, Dataset};
pub use quant::{QuantBits, QuantConfig, QuantizedLinear, QuantizedMlp, Rounding};
pub use scale::Standardizer;
pub use split::stratified_split;
pub use svm::{LinearSvm, SvmConfig};
pub use trainer::{train, Algorithm, TrainerConfig};
pub use tree::{DecisionTree, TreeConfig};
