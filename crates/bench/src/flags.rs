//! Minimal command-line options of the `repro` binary:
//!
//! ```text
//! --only <id,...>      run just these experiments, in this order
//! --checkpoint <dir>   journal completed work units to <dir>
//!                      (auto-resumes when <dir> already has a manifest)
//! --resume <dir>       resume strictly: <dir> must already exist
//! --metrics <path>     export a metrics snapshot as JSON to <path>
//! --metrics-summary    print a metrics summary table to stderr
//! ```
//!
//! [`take_only`] takes `--only` out of the arguments; [`parse`] reads the
//! rest.

use crate::figures::{Entry, EXPERIMENTS};
use rhmd_core::RhmdError;
use rhmd_runtime::ckpt::CkptOptions;
use rhmd_runtime::metrics::MetricsOptions;
use rhmd_runtime::write_help;
use std::io;
use std::path::PathBuf;

/// `repro`'s options other than `--only`.
#[derive(Debug, Clone, Default)]
pub struct BinOptions {
    /// `--checkpoint` / `--resume`.
    pub ckpt: Option<CkptOptions>,
    /// `--metrics` / `--metrics-summary`.
    pub metrics: MetricsOptions,
}

/// The usage text appended to `repro`'s `--help`.
pub const USAGE: &str = "\
options:
  --checkpoint <dir>   journal completed work units to <dir> (auto-resume)
  --resume <dir>       resume from <dir>; the directory must already exist
  --metrics <path>     export a metrics snapshot as JSON to <path>
  --metrics-summary    print a metrics summary table to stderr
  --help               show this message

env: RHMD_SCALE (tiny|small|standard|paper), RHMD_IO_FAULTS (I/O fault
injection).";

/// Parses argument tokens into [`BinOptions`], printing usage and exiting
/// on `--help`.
///
/// # Errors
///
/// [`RhmdError::Config`] on unknown flags or missing values, and the
/// checkpoint errors of [`CkptOptions::from_flags`].
pub fn parse(binary: &str, raw: impl IntoIterator<Item = String>) -> Result<BinOptions, RhmdError> {
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
            "--help" | "-h" => print_help_and_exit(&format!("usage: {binary} [options]\n{USAGE}")),
            other => {
                return Err(RhmdError::config(format!(
                    "unknown argument '{other}' (try --help)"
                )))
            }
        }
    }
    Ok(BinOptions {
        ckpt: CkptOptions::from_flags(checkpoint, resume, None)?,
        metrics: MetricsOptions::new(metrics_path, metrics_summary),
    })
}

/// Answers `--help`: writes `text` to stdout through [`write_help`] and
/// exits 0, or 1 if stdout fails for a reason other than a closed pipe.
fn print_help_and_exit(text: &str) -> ! {
    std::process::exit(i32::from(write_help(&mut io::stdout().lock(), text).is_err()))
}

/// Takes `repro`'s `--only <id,...>` out of `args`: the [`EXPERIMENTS`]
/// it names, each once in first-mention order, or `None` (run them all)
/// when the flag is absent.
///
/// # Errors
///
/// [`RhmdError::Config`] listing the valid ids when an id is unknown or
/// empty.
pub fn take_only(args: &mut Vec<String>) -> Result<Option<Vec<&'static Entry>>, RhmdError> {
    let Some(at) = args.iter().position(|a| a == "--only") else {
        return Ok(None);
    };
    let list = args.get(at + 1).cloned().unwrap_or_default();
    args.drain(at..args.len().min(at + 2));
    let mut picked: Vec<&'static Entry> = Vec::new();
    for id in list.split(',') {
        let Some(entry) = EXPERIMENTS.iter().find(|e| e.id == id) else {
            let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
            let msg = format!("unknown experiment '{id}'; ids: {}", ids.join(","));
            return Err(RhmdError::config(msg));
        };
        if !picked.iter().any(|p| p.id == id) {
            picked.push(entry);
        }
    }
    Ok(Some(picked))
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

    fn split(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    fn only(line: &str) -> Result<Option<Vec<&'static str>>, RhmdError> {
        let picked = take_only(&mut split(line))?;
        Ok(picked.map(|entries| entries.iter().map(|e| e.id).collect()))
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), EXPERIMENTS.len());
    }

    #[test]
    fn only_runs_a_repeated_id_once_and_leaves_other_flags() {
        let picked = only("--only abl-c,fig02,abl-c").unwrap();
        assert_eq!(picked, Some(vec!["abl-c", "fig02"]));
        let mut args = split("--metrics-summary --only fig04 --checkpoint ck");
        assert_eq!(take_only(&mut args).unwrap().unwrap().len(), 1);
        assert_eq!(args, split("--metrics-summary --checkpoint ck"));
        assert_eq!(only("--metrics-summary").unwrap(), None);
    }

    #[test]
    fn only_rejects_unknown_or_empty_ids_listing_the_valid_ones() {
        for bad in ["--only fig99", "--only ", "--only", "--only fig02,,fig04"] {
            let err = only(bad).unwrap_err();
            assert!(matches!(err, RhmdError::Config(_)), "{bad}");
            let msg = err.to_string();
            assert!(EXPERIMENTS.iter().all(|e| msg.contains(e.id)), "{msg}");
        }
    }
}
