//! Model persistence for the CLI: the shared JSON format lives in
//! [`rhmd_core::persist`] (so the `rhmd serve` daemon and the bench
//! binaries load the same files); this module wires its writes through the
//! durable layer (retry/backoff on transient errors, fsynced atomic
//! rename; the `RHMD_IO_FAULTS` fault plane applies in tests).

use rhmd_core::hmd::Hmd;
use rhmd_core::RhmdError;
use rhmd_runtime::durable::Durable;
use std::path::Path;

pub use rhmd_core::persist::load_hmd;

/// Saves an HMD as pretty JSON, atomically: the bytes land in a temp file
/// in the same directory, are fsynced, and are renamed over `path`, so a
/// crash mid-save can never leave a truncated model file behind.
///
/// # Errors
///
/// Returns [`RhmdError::Model`] on snapshot or serialization failure and
/// [`RhmdError::Io`] when the file cannot be written.
pub fn save_hmd(hmd: &Hmd, path: &Path) -> Result<(), RhmdError> {
    let durable = Durable::from_env()?;
    rhmd_core::persist::save_hmd_with(hmd, path, |path, bytes| durable.write_atomic(path, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_core::persist::{snapshot, FORMAT_VERSION};
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    use rhmd_features::vector::{FeatureKind, FeatureSpec};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    #[test]
    fn json_file_round_trip() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let dir = std::env::temp_dir().join("rhmd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_hmd(&hmd, &path).unwrap();
        let loaded = load_hmd(&path).unwrap();
        assert_eq!(loaded.spec(), hmd.spec());
        assert_eq!(loaded.algorithm(), hmd.algorithm());
        std::fs::remove_file(&path).ok();
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
        let dir = std::env::temp_dir().join("rhmd-cli-test");
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_hmd(Path::new("/nonexistent/rhmd-model.json")).unwrap_err();
        assert!(matches!(err, RhmdError::Io { .. }));
        assert!(err.to_string().contains("rhmd-model.json"));
    }

    #[test]
    fn malformed_json_is_parse_error() {
        let dir = std::env::temp_dir().join("rhmd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load_hmd(&path).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }));
        std::fs::remove_file(&path).ok();
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
        let dir = std::env::temp_dir().join("rhmd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        save_hmd(&hmd, &path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_hmd(&path).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("truncated.json"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Dt,
            FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let dir = std::env::temp_dir().join("rhmd-cli-atomic-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_hmd(&hmd, &path).unwrap();
        save_hmd(&hmd, &path).unwrap(); // overwrite is atomic too
        load_hmd(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "model.json")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
