//! Checkpoint/resume for long experiment campaigns.
//!
//! The paper's headline experiments are hours-long multi-stage sweeps — the
//! evade–retrain game plays 7+ generations, RHMD resilience sweeps grid
//! over detector pools and collection periods — and a crash at hour three
//! must not restart from zero. A checkpoint directory makes every such run
//! resumable:
//!
//! ```text
//! <dir>/manifest.json    versioned, checksummed snapshot header:
//!                        schema version + a hash of the experiment
//!                        configuration (resume refuses a mismatch)
//! <dir>/journal.jsonl    one line per completed work unit:
//!                        key \t fnv64(value) \t value-json
//! <dir>/state.json       optional sequential-state snapshot (e.g. the
//!                        evade-retrain game between generations)
//! ```
//!
//! Every write goes through [`crate::durable`]: atomic temp-file + rename +
//! fsync with checksum headers, under retry/backoff. The journal tolerates
//! a torn trailing line (the signature of a crash mid-append): replay stops
//! at the first bad line, truncates it away, and the unit is simply
//! recomputed.
//!
//! **Bit-exactness.** A resumed run returns recorded unit values verbatim
//! (serde_json round-trips `f64` exactly) and recomputes the rest with the
//! same splitmix64-derived per-unit seeds as an uninterrupted run, so final
//! output is byte-identical — which the kill-and-resume CI job asserts by
//! SIGKILLing a sweep mid-flight and diffing the resumed output against a
//! clean run.

use crate::durable::{fnv1a, Durable};
use crate::error::RhmdError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Seek;
use std::path::{Path, PathBuf};

/// Version of the checkpoint directory layout.
pub const SCHEMA_VERSION: u32 = 1;

/// The versioned manifest identifying what a checkpoint directory belongs
/// to. Resume validates all of it before trusting the journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Checkpoint layout version.
    pub schema_version: u32,
    /// Which experiment wrote this checkpoint (`"sweep"`, `"game"`, ...).
    pub experiment: String,
    /// Stable hash of the experiment configuration.
    pub config_hash: u64,
    /// Human-readable configuration summary, for mismatch messages.
    pub config_summary: String,
}

impl Manifest {
    /// A current-version manifest for `experiment` configured by `summary`.
    #[must_use]
    pub fn new(experiment: &str, summary: &str) -> Manifest {
        Manifest {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_owned(),
            config_hash: fnv1a(summary.as_bytes()),
            config_summary: summary.to_owned(),
        }
    }
}

/// Checkpointing options a binary parsed from its command line
/// (`--checkpoint <dir>` / `--resume <dir>` / `--checkpoint-every <n>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptOptions {
    /// The checkpoint directory.
    pub dir: PathBuf,
    /// `--resume`: insist the directory already exists with a manifest
    /// (`--checkpoint` creates it, auto-resuming when it already has one).
    pub resume_only: bool,
    /// `--checkpoint-every`: fsync the journal every this many units.
    pub every: usize,
}

impl CkptOptions {
    /// Options from the flag values, or `None` when checkpointing is off.
    /// `--checkpoint` and `--resume` are mutually exclusive, `--resume`
    /// must name an existing directory, and `--checkpoint-every` must be at
    /// least 1 (the default) and needs one of the two. Called before any
    /// tracing, so a bad flag fails in milliseconds.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] for a conflicting or orphaned flag,
    /// [`RhmdError::Parse`] for `--checkpoint-every 0` and
    /// [`RhmdError::Io`] naming a `--resume` directory that does not exist.
    pub fn from_flags(
        checkpoint: Option<PathBuf>,
        resume: Option<PathBuf>,
        every: Option<usize>,
    ) -> Result<Option<CkptOptions>, RhmdError> {
        if every == Some(0) {
            return Err(RhmdError::parse("--checkpoint-every", "must be at least 1"));
        }
        let (dir, resume_only) = match (checkpoint, resume) {
            (Some(_), Some(_)) => {
                return Err(RhmdError::config(
                    "--checkpoint and --resume are mutually exclusive \
                     (--checkpoint auto-resumes when the directory already has a manifest)",
                ))
            }
            (Some(dir), None) => (dir, false),
            (None, Some(dir)) => {
                if !dir.is_dir() {
                    return Err(RhmdError::io(
                        dir.display().to_string(),
                        "checkpoint directory does not exist; \
                         pass the directory a previous --checkpoint run created",
                    ));
                }
                (dir, true)
            }
            (None, None) if every.is_some() => {
                let message = "--checkpoint-every requires --checkpoint or --resume";
                return Err(RhmdError::config(message));
            }
            (None, None) => return Ok(None),
        };
        Ok(Some(CkptOptions {
            dir,
            resume_only,
            every: every.unwrap_or(1),
        }))
    }
}

/// Opens the journal for `experiment` from `--checkpoint` / `--resume`
/// options, or returns `Ok(None)` (checkpointing off) when none were given.
/// Announces a resume on stderr.
///
/// # Errors
///
/// See [`Journal::create`] / [`Journal::resume`].
pub fn journal_with(
    options: Option<&CkptOptions>,
    experiment: &str,
    summary: &str,
) -> Result<Option<Journal>, RhmdError> {
    let Some(options) = options else {
        return Ok(None);
    };
    let manifest = Manifest::new(experiment, summary);
    let durable = Durable::from_env()?;
    let journal = if options.resume_only {
        Journal::resume(&options.dir, &manifest, durable, options.every)?
    } else {
        Journal::create(&options.dir, &manifest, durable, options.every)?
    };
    if journal.resumed_units() > 0 {
        eprintln!(
            "[ckpt] {experiment}: resuming, {} completed unit(s) will be skipped",
            journal.resumed_units()
        );
    }
    Ok(Some(journal))
}

/// Runs `compute` through the journal when one is open, or directly when
/// checkpointing is off — the one call per work unit every checkpointed
/// run makes. Returns the value and whether it came from the journal.
///
/// # Errors
///
/// See [`Journal::unit`].
pub fn unit_or_compute<T: Serialize + Deserialize>(
    journal: &mut Option<Journal>,
    key: &str,
    compute: impl FnOnce() -> T,
) -> Result<(T, bool), RhmdError> {
    match journal.as_mut() {
        Some(journal) => journal.unit(key, compute),
        None => Ok((compute(), false)),
    }
}

/// A durable journal of completed work units plus the manifest guarding it.
///
/// The core API is [`Journal::unit`]: look the key up, return the recorded
/// value if the unit already completed, otherwise compute, record, and
/// return it. Values round-trip through JSON, so recorded `f64`s come back
/// bit-identical.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    journal_path: PathBuf,
    file: std::fs::File,
    offset: u64,
    completed: HashMap<String, String>,
    resumed_units: usize,
    pending: usize,
    checkpoint_every: usize,
    durable: Durable,
}

impl Journal {
    /// Opens (creating if needed) the checkpoint directory for `manifest`.
    ///
    /// A fresh directory gets the manifest written; an existing one is
    /// validated against `manifest` and its journal replayed, so rerunning
    /// with `--checkpoint` after a crash resumes automatically.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the directory cannot be created or read;
    /// [`RhmdError::Config`] when an existing manifest disagrees with
    /// `manifest` (different experiment, schema version, or config hash) —
    /// the message names both configurations so the user can either rerun
    /// with the original flags or pick a fresh directory.
    pub fn create(
        dir: &Path,
        manifest: &Manifest,
        durable: Durable,
        checkpoint_every: usize,
    ) -> Result<Journal, RhmdError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            RhmdError::io(dir.display().to_string(), format!("create checkpoint dir: {e}"))
        })?;
        let manifest_path = dir.join("manifest.json");
        if manifest_path.exists() {
            return Journal::resume(dir, manifest, durable, checkpoint_every);
        }
        let json = serde_json::to_string_pretty(manifest)
            .map_err(|e| RhmdError::config(format!("cannot serialize manifest: {e}")))?;
        durable.write_checksummed(&manifest_path, json.as_bytes())?;
        Journal::open_journal(dir, durable, checkpoint_every, HashMap::new(), 0)
    }

    /// Resumes from an existing checkpoint directory, validating its
    /// manifest against `expected` and replaying the journal.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the directory has no readable manifest (the
    /// message says the path is not a checkpoint directory);
    /// [`RhmdError::Config`] on a manifest mismatch;
    /// [`RhmdError::Parse`] when the manifest is corrupt.
    pub fn resume(
        dir: &Path,
        expected: &Manifest,
        durable: Durable,
        checkpoint_every: usize,
    ) -> Result<Journal, RhmdError> {
        let manifest_path = dir.join("manifest.json");
        if !manifest_path.exists() {
            return Err(RhmdError::io(
                dir.display().to_string(),
                "not a checkpoint directory (no manifest.json); \
                 pass the directory a previous --checkpoint run created",
            ));
        }
        let bytes = durable.read_checksummed(&manifest_path)?;
        let text = String::from_utf8(bytes).map_err(|e| {
            RhmdError::parse(manifest_path.display().to_string(), e.to_string())
        })?;
        let found: Manifest = serde_json::from_str(&text)
            .map_err(|e| RhmdError::parse(manifest_path.display().to_string(), e.to_string()))?;
        if found.schema_version != expected.schema_version {
            return Err(RhmdError::config(format!(
                "checkpoint schema version {} is not supported (this build writes {}); \
                 start a fresh checkpoint directory",
                found.schema_version, expected.schema_version
            )));
        }
        if found.experiment != expected.experiment {
            return Err(RhmdError::config(format!(
                "checkpoint belongs to experiment '{}', not '{}'; pick the matching \
                 command or a fresh directory",
                found.experiment, expected.experiment
            )));
        }
        if found.config_hash != expected.config_hash {
            return Err(RhmdError::config(format!(
                "checkpoint was written by a different configuration\n  \
                 checkpoint: {}\n  this run:   {}\n\
                 rerun with the original flags, or start a fresh checkpoint directory",
                found.config_summary, expected.config_summary
            )));
        }
        let (completed, keep) = replay_journal(&dir.join("journal.jsonl"), &durable)?;
        let resumed = completed.len();
        let mut journal = Journal::open_journal(dir, durable, checkpoint_every, completed, keep)?;
        journal.resumed_units = resumed;
        Ok(journal)
    }

    fn open_journal(
        dir: &Path,
        durable: Durable,
        checkpoint_every: usize,
        completed: HashMap<String, String>,
        offset: u64,
    ) -> Result<Journal, RhmdError> {
        let journal_path = dir.join("journal.jsonl");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&journal_path)
            .map_err(|e| {
                RhmdError::io(journal_path.display().to_string(), format!("open journal: {e}"))
            })?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            journal_path,
            file,
            offset,
            completed,
            resumed_units: 0,
            pending: 0,
            checkpoint_every: checkpoint_every.max(1),
            durable,
        })
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completed units replayed from disk at open time.
    #[must_use]
    pub fn resumed_units(&self) -> usize {
        self.resumed_units
    }

    /// Whether `key` is already recorded.
    #[must_use]
    pub fn is_done(&self, key: &str) -> bool {
        self.completed.contains_key(key)
    }

    /// Runs (or skips) one work unit: if `key` is already journaled, its
    /// recorded value is returned (`cached = true`) and `compute` never
    /// runs; otherwise `compute` runs, the value is journaled, and
    /// `cached = false`.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Parse`] when a recorded value no longer deserializes as
    /// `T` (a corrupted or hand-edited journal); [`RhmdError::Io`] when the
    /// journal cannot be appended durably.
    pub fn unit<T: Serialize + Deserialize>(
        &mut self,
        key: &str,
        compute: impl FnOnce() -> T,
    ) -> Result<(T, bool), RhmdError> {
        if let Some(json) = self.completed.get(key) {
            let value = serde_json::from_str(json).map_err(|e| {
                RhmdError::parse(
                    self.journal_path.display().to_string(),
                    format!("journaled unit '{key}' is unreadable: {e}"),
                )
            })?;
            rhmd_obs::incr("ckpt.units_resumed");
            return Ok((value, true));
        }
        let value = compute();
        let json = serde_json::to_string(&value)
            .map_err(|e| RhmdError::config(format!("cannot serialize unit '{key}': {e}")))?;
        self.record(key, &json)?;
        Ok((value, false))
    }

    fn record(&mut self, key: &str, value_json: &str) -> Result<(), RhmdError> {
        debug_assert!(
            !key.contains('\t') && !key.contains('\n'),
            "journal keys must not contain tabs or newlines"
        );
        let line = format!("{key}\t{:016x}\t{value_json}\n", fnv1a(value_json.as_bytes()));
        self.offset = self.durable.append_at(
            &self.journal_path,
            &mut self.file,
            self.offset,
            line.as_bytes(),
        )?;
        rhmd_obs::incr("ckpt.journal_appends");
        self.completed.insert(key.to_owned(), value_json.to_owned());
        self.pending += 1;
        if self.pending >= self.checkpoint_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces pending journal records to disk (also called automatically
    /// every `checkpoint_every` records).
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] when the fsync fails persistently.
    pub fn sync(&mut self) -> Result<(), RhmdError> {
        self.durable.sync(&self.journal_path, &mut self.file)?;
        self.pending = 0;
        Ok(())
    }

    /// Saves a sequential-state snapshot (e.g. the evade–retrain game's
    /// inter-generation state) as `state.json`, checksummed and atomic.
    ///
    /// # Errors
    ///
    /// See [`Durable::write_checksummed`].
    pub fn save_state<T: Serialize>(&self, state: &T) -> Result<(), RhmdError> {
        let json = serde_json::to_string(state)
            .map_err(|e| RhmdError::config(format!("cannot serialize state snapshot: {e}")))?;
        self.durable.write_checksummed(&self.dir.join("state.json"), json.as_bytes())
    }

    /// Loads the `state.json` snapshot, if one exists.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Parse`] when the snapshot is corrupt or no longer
    /// matches `T`; [`RhmdError::Io`] when it cannot be read.
    pub fn load_state<T: Deserialize>(&self) -> Result<Option<T>, RhmdError> {
        let path = self.dir.join("state.json");
        if !path.exists() {
            return Ok(None);
        }
        let bytes = self.durable.read_checksummed(&path)?;
        let text = String::from_utf8(bytes)
            .map_err(|e| RhmdError::parse(path.display().to_string(), e.to_string()))?;
        serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| RhmdError::parse(path.display().to_string(), e.to_string()))
    }
}

/// Replays a journal file: completed units up to the first torn or corrupt
/// line (which a crash mid-append legitimately leaves), and the byte offset
/// appends should continue from. The torn tail is truncated away so the
/// next append starts clean.
fn replay_journal(
    path: &Path,
    durable: &Durable,
) -> Result<(HashMap<String, String>, u64), RhmdError> {
    if !path.exists() {
        return Ok((HashMap::new(), 0));
    }
    let text = durable.read_to_string(path)?;
    let mut completed = HashMap::new();
    let mut keep: u64 = 0;
    for line in text.split_inclusive('\n') {
        let Some(record) = parse_journal_line(line) else {
            eprintln!(
                "[ckpt] {}: discarding torn record after {} completed unit(s) \
                 (crash mid-append); the unit will be recomputed",
                path.display(),
                completed.len()
            );
            break;
        };
        completed.insert(record.0, record.1);
        keep += line.len() as u64;
    }
    if keep < text.len() as u64 {
        let mut file = std::fs::OpenOptions::new().write(true).open(path).map_err(|e| {
            RhmdError::io(path.display().to_string(), format!("open journal for repair: {e}"))
        })?;
        file.set_len(keep).map_err(|e| {
            RhmdError::io(path.display().to_string(), format!("truncate torn journal: {e}"))
        })?;
        let _ = file.seek(std::io::SeekFrom::Start(keep));
        file.sync_data().map_err(|e| {
            RhmdError::io(path.display().to_string(), format!("fsync repaired journal: {e}"))
        })?;
    }
    Ok((completed, keep))
}

/// Parses one complete, checksum-verified journal line into `(key, json)`.
fn parse_journal_line(line: &str) -> Option<(String, String)> {
    let body = line.strip_suffix('\n')?;
    let (key, rest) = body.split_once('\t')?;
    let (crc, value_json) = rest.split_once('\t')?;
    let want = u64::from_str_radix(crc, 16).ok()?;
    if fnv1a(value_json.as_bytes()) != want {
        return None;
    }
    // The checksum guards byte integrity; type checks happen at unit() time
    // where the caller knows the expected shape.
    Some((key.to_owned(), value_json.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rhmd-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn units_skip_on_resume_and_round_trip_floats_exactly() {
        let dir = temp_dir("units");
        let manifest = Manifest::new("sweep", "scale=tiny;algos=lr");
        let mut journal = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        let exact = 0.1 + 0.2; // famously not 0.3; must survive the round trip
        let (v, cached) = journal.unit("a", || vec![exact, f64::MIN_POSITIVE]).unwrap();
        assert!(!cached);
        assert_eq!(v, vec![exact, f64::MIN_POSITIVE]);
        journal.sync().unwrap();
        drop(journal);

        let mut journal = Journal::resume(&dir, &manifest, Durable::new(), 1).unwrap();
        assert_eq!(journal.resumed_units(), 1);
        let (v, cached) = journal
            .unit("a", || -> Vec<f64> { panic!("completed unit must not recompute") })
            .unwrap();
        assert!(cached);
        assert!(v[0].to_bits() == exact.to_bits() && v[1] == f64::MIN_POSITIVE);
        let (w, cached) = journal.unit("b", || vec![1.5]).unwrap();
        assert!(!cached && w == vec![1.5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_line_is_discarded_and_unit_recomputed() {
        let dir = temp_dir("torn");
        let manifest = Manifest::new("sweep", "cfg");
        let mut journal = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        journal.unit("one", || 1u32).unwrap();
        journal.unit("two", || 2u32).unwrap();
        drop(journal);
        // Tear the last line mid-record, as a crash during append would.
        let path = dir.join("journal.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();

        let mut journal = Journal::resume(&dir, &manifest, Durable::new(), 1).unwrap();
        assert_eq!(journal.resumed_units(), 1, "torn unit must not count");
        assert!(journal.is_done("one") && !journal.is_done("two"));
        let (v, cached) = journal.unit("two", || 2u32).unwrap();
        assert!(!cached && v == 2);
        // The repaired journal now replays both units cleanly.
        drop(journal);
        let journal = Journal::resume(&dir, &manifest, Durable::new(), 1).unwrap();
        assert_eq!(journal.resumed_units(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_line_checksum_ends_replay() {
        let dir = temp_dir("crc");
        let manifest = Manifest::new("sweep", "cfg");
        let mut journal = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        journal.unit("one", || 1u32).unwrap();
        journal.unit("two", || 2u32).unwrap();
        drop(journal);
        let path = dir.join("journal.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the second record's value.
        let tampered = text.replacen("\t2\n", "\t3\n", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let journal = Journal::resume(&dir, &manifest, Durable::new(), 1).unwrap();
        assert_eq!(journal.resumed_units(), 1, "tampered record must be dropped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_config_and_experiment_mismatch() {
        let dir = temp_dir("mismatch");
        let manifest = Manifest::new("sweep", "scale=tiny;algos=lr,dt");
        Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();

        let other = Manifest::new("sweep", "scale=small;algos=lr,dt");
        let err = Journal::resume(&dir, &other, Durable::new(), 1).unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("scale=tiny") && msg.contains("scale=small"), "{msg}");

        let game = Manifest::new("game", "scale=tiny;algos=lr,dt");
        let err = Journal::resume(&dir, &game, Durable::new(), 1).unwrap_err();
        assert!(err.to_string().contains("experiment 'sweep'"), "{err}");

        // create() on an existing mismatched dir refuses too.
        let err = Journal::create(&dir, &other, Durable::new(), 1).unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_non_checkpoint_dir_is_actionable() {
        let dir = temp_dir("notckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let err =
            Journal::resume(&dir, &Manifest::new("sweep", "cfg"), Durable::new(), 1).unwrap_err();
        assert!(err.to_string().contains("not a checkpoint directory"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn options_from_flags_own_the_checkpoint_rules() {
        let dir = temp_dir("flags");
        std::fs::create_dir_all(&dir).unwrap();
        let parse = |checkpoint: Option<&Path>, resume: Option<&Path>, every| {
            CkptOptions::from_flags(
                checkpoint.map(Path::to_path_buf),
                resume.map(Path::to_path_buf),
                every,
            )
        };
        assert_eq!(parse(None, None, None).unwrap(), None);
        let created = parse(Some(Path::new("ck")), None, None).unwrap().unwrap();
        assert_eq!(created.dir, Path::new("ck"));
        assert_eq!((created.resume_only, created.every), (false, 1));
        let resumed = parse(None, Some(&dir), Some(4)).unwrap().unwrap();
        assert_eq!(resumed.dir, dir);
        assert_eq!((resumed.resume_only, resumed.every), (true, 4));

        let err = parse(Some(&dir), Some(&dir), None).unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)), "{err}");
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let err = parse(None, Some(&dir.join("missing")), None).unwrap_err();
        assert!(matches!(err, RhmdError::Io { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("does not exist") && msg.contains("missing"), "{msg}");
        let err = parse(Some(&dir), None, Some(0)).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("--checkpoint-every"), "{err}");
        let err = parse(None, None, Some(2)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--checkpoint-every requires --checkpoint or --resume"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_snapshot_round_trips() {
        let dir = temp_dir("state");
        let manifest = Manifest::new("game", "cfg");
        let journal = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        assert_eq!(journal.load_state::<Vec<u32>>().unwrap(), None);
        journal.save_state(&vec![3u32, 1, 4]).unwrap();
        assert_eq!(journal.load_state::<Vec<u32>>().unwrap(), Some(vec![3, 1, 4]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
