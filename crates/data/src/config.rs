//! Corpus scale presets.
//!
//! The paper's corpus is 3,000 malware + 554 benign programs traced for up
//! to 15M instructions each — several terabytes of Pin traces collected over
//! weeks. The synthetic corpus scales that down by default; the `paper`
//! preset approximates the original counts for users with time to burn.

use rhmd_trace::exec::ExecLimits;
use serde::{Deserialize, Serialize};

/// How large a corpus to build and how long to trace each program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Programs generated per malware family (6 families).
    pub malware_per_family: usize,
    /// Programs generated per benign class (8 classes).
    pub benign_per_class: usize,
    /// Trace budget per program.
    pub max_instructions: u64,
    /// Trace budget per program (system calls).
    pub max_syscalls: u64,
    /// Master seed; programs, splits and detector training all derive from
    /// it.
    pub seed: u64,
}

impl CorpusConfig {
    /// Minimal corpus for unit tests: 88 programs (8 per malware family × 6,
    /// 5 per benign class × 8), each traced for 60K instructions.
    pub fn tiny() -> CorpusConfig {
        CorpusConfig {
            malware_per_family: 8,
            benign_per_class: 5,
            max_instructions: 60_000,
            max_syscalls: 200,
            seed: 0xda7a,
        }
    }

    /// Small corpus for fast experiment iterations (~210 programs).
    pub fn small() -> CorpusConfig {
        CorpusConfig {
            malware_per_family: 20,
            benign_per_class: 12,
            max_instructions: 100_000,
            max_syscalls: 300,
            seed: 0xda7a,
        }
    }

    /// Default experiment corpus (~400 programs, 200K instructions each):
    /// the paper's setup scaled ~7× down in programs and 75× in trace
    /// length.
    pub fn standard() -> CorpusConfig {
        CorpusConfig {
            malware_per_family: 40,
            benign_per_class: 18,
            max_instructions: 200_000,
            max_syscalls: 400,
            seed: 0xda7a,
        }
    }

    /// Paper-scale corpus: 3,000 malware + 552 benign, 1M-instruction
    /// traces. Expect hours of CPU time.
    pub fn paper() -> CorpusConfig {
        CorpusConfig {
            malware_per_family: 500,
            benign_per_class: 69,
            max_instructions: 1_000_000,
            max_syscalls: 5_000,
            seed: 0xda7a,
        }
    }

    /// Looks up a preset by name (`tiny` | `small` | `standard` | `paper`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names when `name` matches none of
    /// them, so callers can surface it to users verbatim.
    pub fn from_scale_name(name: &str) -> Result<CorpusConfig, String> {
        match name {
            "tiny" => Ok(CorpusConfig::tiny()),
            "small" => Ok(CorpusConfig::small()),
            "standard" => Ok(CorpusConfig::standard()),
            "paper" => Ok(CorpusConfig::paper()),
            other => Err(format!(
                "unknown scale '{other}' (expected tiny|small|standard|paper)"
            )),
        }
    }

    /// Reads `RHMD_SCALE` (`tiny` | `small` | `standard` | `paper`) from the
    /// environment, defaulting to [`CorpusConfig::standard`] when unset or
    /// unrecognized.
    pub fn from_env() -> CorpusConfig {
        match std::env::var("RHMD_SCALE") {
            Ok(name) => {
                CorpusConfig::from_scale_name(&name).unwrap_or_else(|_| CorpusConfig::standard())
            }
            Err(_) => CorpusConfig::standard(),
        }
    }

    /// The execution limits implied by the trace budgets.
    pub fn limits(&self) -> ExecLimits {
        ExecLimits {
            max_instructions: self.max_instructions,
            max_original_instructions: u64::MAX,
            max_syscalls: self.max_syscalls,
            max_call_depth: 128,
        }
    }

    /// Total programs this config generates.
    pub fn total_programs(&self) -> usize {
        self.malware_per_family * rhmd_trace::generate::MalwareFamily::ALL.len()
            + self.benign_per_class * rhmd_trace::generate::BenignClass::ALL.len()
    }
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up() {
        assert!(CorpusConfig::tiny().total_programs() < CorpusConfig::small().total_programs());
        assert!(
            CorpusConfig::small().total_programs() < CorpusConfig::standard().total_programs()
        );
        assert!(
            CorpusConfig::standard().total_programs() < CorpusConfig::paper().total_programs()
        );
    }

    #[test]
    fn paper_preset_matches_paper_counts() {
        let p = CorpusConfig::paper();
        assert_eq!(p.malware_per_family * 6, 3_000);
        assert_eq!(p.benign_per_class * 8, 552); // paper: 554
    }

    #[test]
    fn scale_names_resolve() {
        assert_eq!(CorpusConfig::from_scale_name("tiny"), Ok(CorpusConfig::tiny()));
        assert_eq!(CorpusConfig::from_scale_name("paper"), Ok(CorpusConfig::paper()));
        let err = CorpusConfig::from_scale_name("galactic").unwrap_err();
        assert!(err.contains("galactic") && err.contains("tiny|small|standard|paper"));
    }

    /// Every preset's trace budget stays within the largest one whose
    /// merged counts are certain to fit the `u32` fields of a `RawWindow`.
    #[test]
    fn presets_stay_within_the_u32_trace_budget() {
        for name in ["tiny", "small", "standard", "paper"] {
            let config = CorpusConfig::from_scale_name(name).unwrap();
            assert!(
                config.max_instructions <= rhmd_features::MAX_TRACE_INSTRUCTIONS,
                "{name}: {} instructions",
                config.max_instructions
            );
        }
    }

    #[test]
    fn limits_carry_budgets() {
        let c = CorpusConfig::tiny();
        let l = c.limits();
        assert_eq!(l.max_instructions, c.max_instructions);
        assert_eq!(l.max_syscalls, c.max_syscalls);
    }
}
