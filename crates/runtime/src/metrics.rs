//! Glue between the dependency-free metrics crate ([`rhmd_obs`]) and the
//! binaries: the standard key set every pipeline stage emits, the
//! `--metrics` / `--metrics-summary` options shared by the CLI and the
//! experiment binaries, whose snapshot export goes through
//! [`crate::durable`]'s atomic writer.
//!
//! Metrics are **observe-only**: every instrumentation site records counts
//! and latencies of work that happens identically with metrics on or off,
//! so enabling `--metrics` can never change a result — the CLI metrics
//! test suite asserts byte-identical sweep cells either way, at any thread
//! count.

use crate::durable::Durable;
use crate::RhmdError;
use rhmd_obs as obs;
use std::path::{Path, PathBuf};

/// Counter names every run preregisters, so exported snapshots always
/// carry the full schema (a clean tiny run legitimately has zero steals,
/// retries, or fault events — consumers still find the keys).
///
/// `pool.maps` counts every parallel map — tracing, the corpus store's
/// hashing and chunk maps, the evasion re-traces, every evaluation loop and
/// each random forest's trees — including maps short enough to run
/// serially; `pool.steals` counts the blocks those maps rebalanced.
/// `data.programs_traced` counts the corpus programs a run traced (each at
/// most once, on first read), and `data.programs_traced_inline` those of
/// them traced serially by a read that no prefetch came before.
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
    "data.programs_traced_inline",
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

    /// Exports the JSON snapshot (when `--metrics` was given) through
    /// [`Durable::write_atomic`] and prints the stderr summary (when
    /// `--metrics-summary` was given).
    ///
    /// # Errors
    ///
    /// [`RhmdError::Parse`] when `RHMD_IO_FAULTS` is malformed and
    /// [`RhmdError::Io`] when the snapshot cannot be written.
    pub fn finish(&self) -> Result<(), RhmdError> {
        if let Some(path) = &self.path {
            Durable::from_env()?.write_atomic(path, obs::snapshot().to_json().as_bytes())?;
            eprintln!("[metrics] snapshot written to {}", path.display());
        }
        if self.summary {
            eprint!("{}", obs::snapshot().summary_table());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_options_are_inert() {
        let off = MetricsOptions::default();
        assert!(!off.any());
        assert!(off.path().is_none());
        // install/finish on the off state must not enable the registry.
        off.install();
        off.finish().unwrap();
        assert!(!obs::enabled());
    }

    #[test]
    fn path_matches_requested_output() {
        let on = MetricsOptions::new(Some(PathBuf::from("/tmp/m.json")), false);
        assert!(on.any());
        assert_eq!(on.path(), Some(Path::new("/tmp/m.json")));
        assert!(MetricsOptions::new(None, true).any());
    }

    #[test]
    fn finish_writes_exactly_the_snapshot_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("rhmd-metrics-finish-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        MetricsOptions::new(Some(path.clone()), false).finish().unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, obs::snapshot().to_json());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["metrics.json"], "temp files left behind");
        std::fs::remove_dir_all(&dir).ok();
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
