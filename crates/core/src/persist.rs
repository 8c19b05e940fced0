//! Model persistence: trained detectors round-trip through JSON so a
//! detector trained once can be attacked, deployed, audited, or hot-reloaded
//! into the resident service later.
//!
//! Lives in `rhmd-core` (rather than the CLI) so every deployment surface —
//! the CLI, the `rhmd serve` daemon, and the bench binaries — shares one
//! format. Saves go through `rhmd_runtime::durable` (fsynced atomic rename,
//! retried on transient errors; the `RHMD_IO_FAULTS` fault plane applies).

use crate::error::RhmdError;
use crate::hmd::Hmd;
use rhmd_features::vector::FeatureSpec;
use rhmd_ml::model::Classifier;
use rhmd_ml::trainer::Algorithm;
use rhmd_ml::{
    DecisionTree, LinearSvm, LogisticRegression, Mlp, QuantizedLinear, QuantizedMlp, RandomForest,
};
use rhmd_runtime::durable::Durable;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A concrete, serializable snapshot of any trained model family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SavedModel {
    /// Logistic regression.
    Lr(LogisticRegression),
    /// Decision tree.
    Dt(DecisionTree),
    /// Linear SVM.
    Svm(LinearSvm),
    /// One-hidden-layer perceptron.
    Nn(Mlp),
    /// Random forest.
    Rf(RandomForest),
    /// Quantized LR or SVM (the family is recorded inside the model).
    QLinear(QuantizedLinear),
    /// Quantized perceptron.
    QNn(QuantizedMlp),
}

impl SavedModel {
    fn from_classifier(algorithm: Algorithm, model: &dyn Classifier) -> Option<SavedModel> {
        let any = model.as_any();
        // Quantized LR/SVM/NN report their base family through
        // `Classifier::algorithm`, so try the quantized concrete types
        // before the exact ones.
        if let Some(q) = any.downcast_ref::<QuantizedLinear>() {
            return Some(SavedModel::QLinear(q.clone()));
        }
        if let Some(q) = any.downcast_ref::<QuantizedMlp>() {
            return Some(SavedModel::QNn(q.clone()));
        }
        Some(match algorithm {
            Algorithm::Lr => SavedModel::Lr(any.downcast_ref::<LogisticRegression>()?.clone()),
            Algorithm::Dt => SavedModel::Dt(any.downcast_ref::<DecisionTree>()?.clone()),
            Algorithm::Svm => SavedModel::Svm(any.downcast_ref::<LinearSvm>()?.clone()),
            Algorithm::Nn => SavedModel::Nn(any.downcast_ref::<Mlp>()?.clone()),
            Algorithm::Rf => SavedModel::Rf(any.downcast_ref::<RandomForest>()?.clone()),
        })
    }

    fn into_classifier(self) -> Box<dyn Classifier> {
        match self {
            SavedModel::Lr(m) => Box::new(m),
            SavedModel::Dt(m) => Box::new(m),
            SavedModel::Svm(m) => Box::new(m),
            SavedModel::Nn(m) => Box::new(m),
            SavedModel::Rf(m) => Box::new(m),
            SavedModel::QLinear(m) => Box::new(m),
            SavedModel::QNn(m) => Box::new(m),
        }
    }

    fn algorithm(&self) -> Algorithm {
        match self {
            SavedModel::Lr(_) => Algorithm::Lr,
            SavedModel::Dt(_) => Algorithm::Dt,
            SavedModel::Svm(_) => Algorithm::Svm,
            SavedModel::Nn(_) => Algorithm::Nn,
            SavedModel::Rf(_) => Algorithm::Rf,
            SavedModel::QLinear(m) => m.base_algorithm(),
            SavedModel::QNn(_) => Algorithm::Nn,
        }
    }
}

/// A persisted HMD: feature definition + trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedHmd {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The feature spec the model observes.
    pub spec: FeatureSpec,
    /// The trained model.
    pub model: SavedModel,
}

/// Current persistence format version.
pub const FORMAT_VERSION: u32 = 1;

/// Snapshots an HMD.
///
/// # Errors
///
/// Returns [`RhmdError::Model`] if the model's concrete type does not match
/// its declared algorithm (never the case for `Hmd`s trained by this crate).
pub fn snapshot(hmd: &Hmd) -> Result<SavedHmd, RhmdError> {
    let model = SavedModel::from_classifier(hmd.algorithm(), hmd.model())
        .ok_or_else(|| RhmdError::model(format!("cannot snapshot a {} model", hmd.algorithm())))?;
    Ok(SavedHmd {
        version: FORMAT_VERSION,
        spec: hmd.spec().clone(),
        model,
    })
}

/// Reconstructs an HMD from a snapshot.
pub fn restore(saved: SavedHmd) -> Hmd {
    let algorithm = saved.model.algorithm();
    Hmd::from_parts(saved.spec, algorithm, saved.model.into_classifier())
}

/// Saves an HMD as pretty JSON, atomically: the bytes land in a temp file
/// in the same directory, are fsynced, and are renamed over `path`, so a
/// crash mid-save can never leave a truncated model file behind.
///
/// # Errors
///
/// Returns [`RhmdError::Model`] on snapshot or serialization failure,
/// [`RhmdError::Parse`] when `RHMD_IO_FAULTS` is malformed and
/// [`RhmdError::Io`] when the file cannot be written.
pub fn save_hmd(hmd: &Hmd, path: &Path) -> Result<(), RhmdError> {
    let saved = snapshot(hmd)?;
    let json = serde_json::to_string_pretty(&saved)
        .map_err(|e| RhmdError::model(format!("serializing model: {e}")))?;
    Durable::from_env()?.write_atomic(path, json.as_bytes())
}

/// Loads an HMD from JSON.
///
/// # Errors
///
/// Returns [`RhmdError::Io`] when the file cannot be read (e.g. a missing
/// model file), [`RhmdError::Parse`] on malformed JSON, and
/// [`RhmdError::Version`] on a format-version mismatch.
pub fn load_hmd(path: &Path) -> Result<Hmd, RhmdError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| RhmdError::io(path.display().to_string(), format!("cannot read: {e}")))?;
    let saved: SavedHmd = serde_json::from_str(&json)
        .map_err(|e| RhmdError::parse(path.display().to_string(), e.to_string()))?;
    if saved.version != FORMAT_VERSION {
        return Err(RhmdError::Version {
            found: saved.version,
            expected: FORMAT_VERSION,
        });
    }
    Ok(restore(saved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    use rhmd_features::vector::FeatureKind;
    use rhmd_ml::trainer::TrainerConfig;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    #[test]
    fn snapshot_restore_preserves_decisions() {
        let (traced, splits) = fixture();
        for algorithm in Algorithm::ALL {
            let hmd = Hmd::train(
                algorithm,
                FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
                &TrainerConfig::default(),
                &traced,
                &splits.victim_train,
            );
            let restored = restore(snapshot(&hmd).unwrap());
            for i in 0..5 {
                let subs = traced.subwindows(i);
                assert_eq!(
                    hmd.decide_windows(subs),
                    restored.decide_windows(subs),
                    "{algorithm} decisions changed across round-trip"
                );
            }
        }
    }

    #[test]
    fn quantized_snapshot_round_trips_decisions() {
        let (traced, splits) = fixture();
        let config = TrainerConfig {
            quant: Some(rhmd_ml::QuantConfig::stochastic(rhmd_ml::QuantBits::Int16, 0xd5)),
            ..TrainerConfig::default()
        };
        for algorithm in [Algorithm::Lr, Algorithm::Svm, Algorithm::Nn] {
            let hmd = Hmd::train(
                algorithm,
                FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
                &config,
                &traced,
                &splits.victim_train,
            );
            let restored = restore(snapshot(&hmd).unwrap());
            assert_eq!(restored.algorithm(), algorithm);
            for i in 0..5 {
                let subs = traced.subwindows(i);
                assert_eq!(
                    hmd.decide_windows(subs),
                    restored.decide_windows(subs),
                    "quantized {algorithm} decisions changed across round-trip"
                );
            }
        }
    }

    #[test]
    fn save_round_trips_atomically_and_leaves_no_temp_files() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let dir = std::env::temp_dir().join("rhmd-core-persist-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_hmd(&hmd, &path).unwrap();
        save_hmd(&hmd, &path).unwrap(); // overwrite is atomic too
        let loaded = load_hmd(&path).unwrap();
        assert_eq!(loaded.spec(), hmd.spec());
        assert_eq!(loaded.algorithm(), hmd.algorithm());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "model.json")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Dt,
            FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let mut saved = snapshot(&hmd).unwrap();
        saved.version = 99;
        let dir = std::env::temp_dir().join("rhmd-core-persist-test-version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-version.json");
        std::fs::write(&path, serde_json::to_string(&saved).unwrap()).unwrap();
        let err = load_hmd(&path).unwrap_err();
        assert_eq!(
            err,
            RhmdError::Version {
                found: 99,
                expected: FORMAT_VERSION
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_hmd(Path::new("/nonexistent/rhmd-model.json")).unwrap_err();
        assert!(matches!(err, RhmdError::Io { .. }));
        assert!(err.to_string().contains("rhmd-model.json"));
    }

    #[test]
    fn malformed_json_is_parse_error() {
        let dir = std::env::temp_dir().join("rhmd-core-persist-test-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load_hmd(&path).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_model_file_is_parse_error() {
        // A model file cut off mid-write (the failure atomic saves prevent,
        // but which a pre-hardening save or a bad disk could leave) must be
        // a typed parse error naming the file, not a panic.
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let dir = std::env::temp_dir().join("rhmd-core-persist-test-truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        save_hmd(&hmd, &path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_hmd(&path).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("truncated.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
