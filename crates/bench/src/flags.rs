//! Minimal command-line options for the experiment binaries.
//!
//! The figure regenerators and sweeps historically took *no* arguments —
//! checkpointing rode on the `RHMD_CKPT` env var. That stays as the
//! documented fallback, but the long-running binaries now accept proper
//! flags:
//!
//! ```text
//! --checkpoint <dir>   journal completed work units to <dir>
//!                      (auto-resumes when <dir> already has a manifest)
//! --resume <dir>       resume strictly: <dir> must already exist
//! --metrics <path>     export a metrics snapshot as JSON to <path>
//! --metrics-summary    print a metrics summary table to stderr
//! ```

use crate::metrics::MetricsOptions;
use rhmd_core::RhmdError;
use rhmd_runtime::ckpt::CkptOptions;
use std::path::PathBuf;

/// Options shared by the experiment binaries.
#[derive(Debug, Clone, Default)]
pub struct BinOptions {
    /// `--checkpoint` / `--resume`.
    pub ckpt: Option<CkptOptions>,
    /// `--metrics` / `--metrics-summary`.
    pub metrics: MetricsOptions,
}

/// The usage text appended to each binary's `--help`.
pub const USAGE: &str = "\
options:
  --checkpoint <dir>   journal completed work units to <dir> (auto-resume)
  --resume <dir>       resume from <dir>; the directory must already exist
  --metrics <path>     export a metrics snapshot as JSON to <path>
  --metrics-summary    print a metrics summary table to stderr
  --help               show this message

env fallbacks: RHMD_SCALE (tiny|small|standard|paper), RHMD_CKPT (checkpoint
dir when no flag is given), RHMD_IO_FAULTS (I/O fault injection).";

/// Parses the process's own arguments into [`BinOptions`], printing usage
/// and exiting on `--help`.
///
/// # Errors
///
/// [`RhmdError::Config`] on unknown flags, missing values, or
/// `--checkpoint` combined with `--resume`.
pub fn parse_env_args(binary: &str) -> Result<BinOptions, RhmdError> {
    parse(binary, std::env::args().skip(1))
}

fn parse(
    binary: &str,
    raw: impl IntoIterator<Item = String>,
) -> Result<BinOptions, RhmdError> {
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut metrics_summary = false;
    let mut iter = raw.into_iter();
    while let Some(token) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(PathBuf::from)
                .ok_or_else(|| RhmdError::config(format!("flag {flag} needs a value")))
        };
        match token.as_str() {
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--resume" => resume = Some(value("--resume")?),
            "--metrics" => metrics_path = Some(value("--metrics")?),
            "--metrics-summary" => metrics_summary = true,
            "--help" | "-h" => {
                println!("usage: {binary} [options]\n{USAGE}");
                std::process::exit(0);
            }
            other => {
                return Err(RhmdError::config(format!(
                    "unknown argument '{other}' (try --help)"
                )))
            }
        }
    }
    let ckpt = match (checkpoint, resume) {
        (Some(_), Some(_)) => {
            return Err(RhmdError::config(
                "--checkpoint and --resume are mutually exclusive \
                 (--checkpoint auto-resumes when the directory already has a manifest)",
            ))
        }
        (Some(dir), None) => Some(CkptOptions {
            dir,
            resume_only: false,
        }),
        (None, Some(dir)) => {
            // Validated at parse time so a typo fails in milliseconds,
            // not after minutes of corpus tracing.
            if !dir.is_dir() {
                return Err(RhmdError::io(
                    dir.display().to_string(),
                    "checkpoint directory does not exist; \
                     pass the directory a previous --checkpoint run created",
                ));
            }
            Some(CkptOptions {
                dir,
                resume_only: true,
            })
        }
        (None, None) => None,
    };
    Ok(BinOptions {
        ckpt,
        metrics: MetricsOptions::new(metrics_path, metrics_summary),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Result<BinOptions, RhmdError> {
        parse("test", tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn empty_args_mean_everything_off() {
        let opts = args(&[]).unwrap();
        assert!(opts.ckpt.is_none());
        assert!(!opts.metrics.any());
    }

    #[test]
    fn checkpoint_and_resume_parse() {
        let opts = args(&["--checkpoint", "/tmp/ck"]).unwrap();
        let ckpt = opts.ckpt.unwrap();
        assert_eq!(ckpt.dir, PathBuf::from("/tmp/ck"));
        assert!(!ckpt.resume_only);
        let dir = std::env::temp_dir().join(format!("rhmd-flags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = args(&["--resume", dir.to_str().unwrap()]).unwrap();
        assert!(opts.ckpt.unwrap().resume_only);
        std::fs::remove_dir_all(&dir).ok();
        // --resume validates existence at parse time, before any tracing.
        assert!(args(&["--resume", "/tmp/rhmd-definitely-missing"]).is_err());
        assert!(args(&["--checkpoint", "a", "--resume", "b"]).is_err());
    }

    #[test]
    fn metrics_flags_parse() {
        let opts = args(&["--metrics", "m.json", "--metrics-summary"]).unwrap();
        assert!(opts.metrics.any());
        assert_eq!(opts.metrics.path(), Some(std::path::Path::new("m.json")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(args(&["--metrics"]).is_err(), "missing value");
        assert!(args(&["--frobnicate"]).is_err(), "unknown flag");
    }
}
