//! Glue between the dependency-free metrics crate ([`rhmd_obs`]) and the
//! binaries: the standard key set every pipeline stage emits, the
//! `--metrics` / `--metrics-summary` options shared by the CLI and the
//! experiment binaries, and a [`JsonRecorder`] wired to
//! [`crate::durable`]'s atomic writer.
//!
//! Metrics are **observe-only**: every instrumentation site records counts
//! and latencies of work that happens identically with metrics on or off,
//! so enabling `--metrics` can never change a result — the CLI metrics
//! test suite asserts byte-identical sweep cells either way, at any thread
//! count.

use crate::durable::Durable;
use crate::RhmdError;
use rhmd_obs::{self as obs, JsonRecorder, NoopRecorder, Recorder};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counter names every run preregisters, so exported snapshots always
/// carry the full schema (a clean tiny run legitimately has zero steals,
/// retries, or fault events — consumers still find the keys).
///
/// `pool.maps` counts every parallel map — tracing, the corpus store's
/// hashing and chunk maps, the evasion re-traces and every evaluation loop
/// — including maps short enough to run serially; `pool.steals` counts the
/// blocks those maps rebalanced.
pub const STANDARD_COUNTERS: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "ckpt.journal_appends",
    "ckpt.units_resumed",
    "core.verdict.abstained",
    "core.verdict.decided",
    "core.windows.abstained",
    "core.windows.voted",
    "data.programs_traced",
    "durable.atomic_writes",
    "durable.retries",
    "ml.models_trained",
    "pool.maps",
    "pool.steals",
    "trace.instructions",
    "trace.programs_executed",
    "trace.windows",
    "uarch.windows_corrupted",
    "uarch.windows_dropped",
];

/// Gauge names every run preregisters.
pub const STANDARD_GAUGES: &[&str] = &["pool.threads"];

/// Histogram names every run preregisters.
pub const STANDARD_HISTOGRAMS: &[&str] =
    &["features.project", "features.trace", "ml.score", "ml.train", "trace.exec"];

/// Preregisters the standard key set in the global registry.
pub fn preregister_standard() {
    obs::preregister(STANDARD_COUNTERS, STANDARD_GAUGES, STANDARD_HISTOGRAMS);
}

/// Parsed `--metrics <path>` / `--metrics-summary` options.
///
/// The lifecycle is: [`MetricsOptions::install`] before any instrumented
/// work (flips the global enable switch and preregisters the standard
/// keys), then [`MetricsOptions::finish`] after the run (exports the JSON
/// snapshot and/or prints the stderr summary table). When neither flag is
/// given, both are no-ops and every instrumentation site stays on its
/// near-zero disabled path.
#[derive(Debug, Clone, Default)]
pub struct MetricsOptions {
    path: Option<PathBuf>,
    summary: bool,
}

impl MetricsOptions {
    /// Options from parsed flag values.
    #[must_use]
    pub fn new(path: Option<PathBuf>, summary: bool) -> MetricsOptions {
        MetricsOptions { path, summary }
    }

    /// Metrics fully off (the default).
    #[must_use]
    pub fn off() -> MetricsOptions {
        MetricsOptions::default()
    }

    /// Whether any metrics output was requested.
    #[must_use]
    pub fn any(&self) -> bool {
        self.path.is_some() || self.summary
    }

    /// The `--metrics` output path, if given.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Enables the global registry and preregisters the standard key set
    /// when any metrics output was requested; a no-op otherwise.
    pub fn install(&self) {
        if self.any() {
            obs::set_enabled(true);
            preregister_standard();
        }
    }

    /// The recorder to wire into an evaluation engine: a durably-writing
    /// [`JsonRecorder`] when `--metrics <path>` was given, a
    /// [`NoopRecorder`] otherwise. (`--metrics-summary` alone still
    /// enables collection via [`MetricsOptions::install`]; the summary is
    /// printed by [`MetricsOptions::finish`], not exported.)
    ///
    /// # Errors
    ///
    /// [`RhmdError::Parse`] when `RHMD_IO_FAULTS` is malformed (the writer
    /// goes through [`Durable::from_env`]).
    pub fn recorder(&self) -> Result<Arc<dyn Recorder>, RhmdError> {
        match &self.path {
            None => Ok(Arc::new(NoopRecorder)),
            Some(path) => Ok(Arc::new(json_recorder(path)?)),
        }
    }

    /// Prints the snapshot summary table to stderr when `--metrics-summary`
    /// was given.
    pub fn print_summary(&self) {
        if self.summary {
            eprint!("{}", obs::snapshot().summary_table());
        }
    }

    /// Exports the JSON snapshot (when `--metrics` was given) and prints
    /// the stderr summary (when `--metrics-summary` was given).
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the snapshot cannot be written.
    pub fn finish(&self) -> Result<(), RhmdError> {
        if let Some(path) = &self.path {
            let recorder = json_recorder(path)?;
            recorder.export(&obs::snapshot()).map_err(|e| {
                RhmdError::io(path.display().to_string(), format!("write metrics: {e}"))
            })?;
            eprintln!("[metrics] snapshot written to {}", path.display());
        }
        self.print_summary();
        Ok(())
    }
}

/// A [`JsonRecorder`] whose writes go through [`Durable`]'s atomic,
/// fault-retried `write_atomic` (dependency inversion — `rhmd_obs` stays
/// free of I/O policy).
///
/// # Errors
///
/// [`RhmdError::Parse`] when `RHMD_IO_FAULTS` is malformed.
pub fn json_recorder(path: &Path) -> Result<JsonRecorder, RhmdError> {
    let durable = Durable::from_env()?;
    Ok(JsonRecorder::with_writer(path, move |path, bytes| {
        durable
            .write_atomic(path, bytes)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_options_are_inert() {
        let off = MetricsOptions::off();
        assert!(!off.any());
        assert!(off.path().is_none());
        // install/finish on the off state must not enable the registry.
        off.install();
        off.finish().unwrap();
        assert!(!obs::enabled());
    }

    #[test]
    fn recorder_matches_requested_output() {
        let off = MetricsOptions::off();
        assert!(!off.recorder().unwrap().is_enabled());
        let on = MetricsOptions::new(Some(PathBuf::from("/tmp/m.json")), false);
        assert!(on.any() && on.recorder().unwrap().is_enabled());
        assert_eq!(on.path(), Some(Path::new("/tmp/m.json")));
    }

    #[test]
    fn standard_keys_are_sorted_and_unique() {
        for set in [STANDARD_COUNTERS, STANDARD_GAUGES, STANDARD_HISTOGRAMS] {
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, set, "standard key lists stay sorted and unique");
        }
    }
}
