//! Integration tests of the checkpoint/resume subsystem: a run interrupted
//! mid-sweep and resumed from its journal produces output bit-identical to
//! an uninterrupted run — including under injected I/O faults and with the
//! watchdog pool doing the computing.

use rhmd_bench::par::{Pool, WatchdogConfig};
use rhmd_core::RhmdError;
use rhmd_runtime::ckpt::{Journal, Manifest};
use rhmd_runtime::durable::{Durable, FaultPlane, RetryPolicy};
use rhmd_trace::seed::{derive_seed, splitmix64};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rhmd-ckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic "cell" computation the fake sweep journals: a pure
/// function of (run seed, unit index) exercising exact f64 round-trips.
fn cell_value(seed: u64, unit: usize) -> Vec<f64> {
    let s = derive_seed(seed, unit as u64);
    (0..4)
        .map(|k| {
            let bits = splitmix64(s ^ k);
            // A fully general mantissa, not a round number: resumes must
            // reproduce every bit through the JSON round-trip.
            (bits >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Runs the fake sweep over `journal`, computing only units the journal
/// does not already hold, and returns all values in unit order.
fn run_sweep(journal: &mut Journal, units: usize, seed: u64) -> Result<Vec<Vec<f64>>, RhmdError> {
    let mut out = Vec::new();
    for unit in 0..units {
        let (value, _resumed) =
            journal.unit(&format!("cell/{unit}"), || cell_value(seed, unit))?;
        out.push(value);
    }
    journal.sync()?;
    Ok(out)
}

#[test]
fn interrupted_sweep_resumes_bit_identical() {
    const UNITS: usize = 12;
    const SEED: u64 = 0xc4a1;
    let manifest = Manifest::new("it-sweep", "units=12;seed=0xc4a1");

    // Golden: one uninterrupted run.
    let clean_dir = temp_dir("clean");
    let mut clean = Journal::create(&clean_dir, &manifest, Durable::new(), 1).unwrap();
    let golden = run_sweep(&mut clean, UNITS, SEED).unwrap();

    // "Crashed" run: journal 5 units, then drop the journal on the floor
    // without any graceful shutdown (the in-memory state is simply lost,
    // as after SIGKILL; `checkpoint_every = 1` syncs each record).
    let dir = temp_dir("crash");
    {
        let mut first = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        let partial = run_sweep(&mut first, 5, SEED).unwrap();
        assert_eq!(partial.len(), 5);
    }

    // Resume: creating over an existing checkpoint dir replays the journal.
    let mut resumed = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
    assert_eq!(resumed.resumed_units(), 5, "journal must replay the 5 finished units");
    assert!(resumed.is_done("cell/0") && resumed.is_done("cell/4"));
    assert!(!resumed.is_done("cell/5"));
    let out = run_sweep(&mut resumed, UNITS, SEED).unwrap();

    assert_eq!(out.len(), golden.len());
    for (unit, (a, b)) in out.iter().zip(&golden).enumerate() {
        let a_bits: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "unit {unit} diverged after resume");
    }

    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_under_injected_faults_matches_golden() {
    const UNITS: usize = 10;
    const SEED: u64 = 0xfa57;
    let manifest = Manifest::new("it-faults", "units=10;seed=0xfa57");

    let clean_dir = temp_dir("faults-clean");
    let mut clean = Journal::create(&clean_dir, &manifest, Durable::new(), 1).unwrap();
    let golden = run_sweep(&mut clean, UNITS, SEED).unwrap();

    // 20% transient failures + 20% short writes on every journal
    // operation: retry/backoff must carry the run — and the resume — to
    // completion with the same bits.
    let faulty = || {
        let mut plane = FaultPlane::transient(0.2, 0xd1ce);
        plane.short_write_rate = 0.2;
        Durable::with_plane(
            plane,
            RetryPolicy {
                max_attempts: 64,
                ..RetryPolicy::fast()
            },
        )
    };
    let dir = temp_dir("faults-crash");
    {
        let mut first = Journal::create(&dir, &manifest, faulty(), 1).unwrap();
        run_sweep(&mut first, 7, SEED).unwrap();
    }
    let mut resumed = Journal::create(&dir, &manifest, faulty(), 1).unwrap();
    assert_eq!(resumed.resumed_units(), 7);
    let out = run_sweep(&mut resumed, UNITS, SEED).unwrap();
    for (unit, (a, b)) in out.iter().zip(&golden).enumerate() {
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "unit {unit} diverged under faults"
        );
    }

    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_different_config_is_rejected_actionably() {
    let dir = temp_dir("mismatch");
    let manifest = Manifest::new("it-mismatch", "scale=tiny;seed=1");
    {
        let mut journal = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        run_sweep(&mut journal, 3, 1).unwrap();
    }
    let other = Manifest::new("it-mismatch", "scale=small;seed=2");
    let err = Journal::create(&dir, &other, Durable::new(), 1).unwrap_err();
    assert!(matches!(err, RhmdError::Config(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("scale=tiny;seed=1"), "must quote the stored config: {msg}");
    assert!(msg.contains("scale=small;seed=2"), "must quote the requested config: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_pool_results_journal_and_resume_bit_identical() {
    const SEED: u64 = 0x90a7;
    let items: Vec<usize> = (0..24).collect();
    let watchdog = WatchdogConfig::new(Duration::from_secs(30));

    // Golden: watchdog pool, no journal.
    let (golden, report) = Pool::new(4)
        .map_watchdog(&items, &watchdog, |_, &x| cell_value(SEED, x))
        .unwrap();
    assert!(!report.degraded(), "clean run must not be degraded");

    // Journaled run interrupted after one batch, then resumed: the
    // journaled batches are skipped, the rest recomputed on a pool of a
    // different width, and the combined output matches the golden bits.
    let manifest = Manifest::new("it-watchdog", "items=24");
    let dir = temp_dir("watchdog");
    let batches = [&items[..8], &items[8..]];
    {
        let mut first = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
        let (batch, _) = first
            .unit("batch/0", || {
                Pool::new(4)
                    .map_watchdog(batches[0], &watchdog, |_, &x| cell_value(SEED, x))
                    .unwrap()
                    .0
            })
            .unwrap();
        assert_eq!(batch.len(), 8);
        first.sync().unwrap();
    }
    let mut resumed = Journal::create(&dir, &manifest, Durable::new(), 1).unwrap();
    assert_eq!(resumed.resumed_units(), 1);
    let mut out: Vec<Vec<f64>> = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        let (values, _) = resumed
            .unit(&format!("batch/{b}"), || {
                Pool::new(2)
                    .map_watchdog(batch, &watchdog, |_, &x| cell_value(SEED, x))
                    .unwrap()
                    .0
            })
            .unwrap();
        out.extend(values);
    }
    resumed.sync().unwrap();

    assert_eq!(out.len(), golden.len());
    for (i, (a, b)) in out.iter().zip(&golden).enumerate() {
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "item {i} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
