//! Shared experiment setup: corpus, traces, splits, feature selection.

use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::trainer::TrainerConfig;
use rhmd_trace::isa::Opcode;
use rhmd_uarch::CoreConfig;

/// Everything every experiment starts from. Built once per process; scale
/// selected by `RHMD_SCALE` (`tiny`/`small`/`standard`/`paper`).
#[derive(Debug)]
pub struct Experiment {
    /// The corpus scale in effect.
    pub config: CorpusConfig,
    /// Traced corpus (every program traced once, on first read).
    pub traced: TracedCorpus,
    /// Victim / attacker-train / attacker-test split.
    pub splits: Splits,
    /// Top-delta opcodes selected on the victim training set.
    pub opcodes: Vec<Opcode>,
    /// Shared training hyperparameters.
    pub trainer: TrainerConfig,
}

impl Experiment {
    /// Builds the experiment context at the environment-selected scale.
    pub fn load() -> Experiment {
        Experiment::with_config(CorpusConfig::from_env())
    }

    /// Builds the experiment context at an explicit scale.
    pub fn with_config(config: CorpusConfig) -> Experiment {
        eprintln!(
            "[setup] corpus: {} programs, {} instr/trace (RHMD_SCALE to change)",
            config.total_programs(),
            config.max_instructions
        );
        let start = std::time::Instant::now();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let opcodes = traced.select_opcodes(&splits.victim_train, 16);
        eprintln!("[setup] traced + selected features in {:?}", start.elapsed());
        Experiment {
            config,
            traced,
            splits,
            opcodes,
            trainer: TrainerConfig::with_seed(config.seed ^ 0x7a61),
        }
    }

    /// A single-kind feature spec with the victim's opcode table.
    pub fn spec(&self, kind: FeatureKind, period: u32) -> FeatureSpec {
        FeatureSpec::new(kind, period, self.opcodes.clone())
    }

    /// A combined (multi-kind) spec with the victim's opcode table.
    pub fn combined_spec(&self, kinds: &[FeatureKind], period: u32) -> FeatureSpec {
        FeatureSpec::combined(kinds.to_vec(), period, self.opcodes.clone())
    }

    /// Malware program indices within the attacker-test split.
    pub fn test_malware(&self) -> Vec<usize> {
        let labels = self.traced.corpus().labels();
        self.splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect()
    }

    /// Malware program indices within the victim-train split.
    pub fn train_malware(&self) -> Vec<usize> {
        let labels = self.traced.corpus().labels();
        self.splits
            .victim_train
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_context_is_consistent() {
        let exp = Experiment::with_config(CorpusConfig::tiny());
        assert_eq!(exp.opcodes.len(), 16);
        assert!(!exp.test_malware().is_empty());
        assert!(!exp.train_malware().is_empty());
        let spec = exp.spec(FeatureKind::Instructions, 5_000);
        assert_eq!(spec.dims(), 16);
        let combined = exp.combined_spec(&FeatureKind::ALL, 5_000);
        assert!(combined.dims() > spec.dims());
    }
}
