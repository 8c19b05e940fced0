//! Metrics integration tests of `rhmd sweep --metrics`: the observability
//! layer is observe-only, so a sweep's cells must be byte-identical with
//! metrics on or off, at any `--threads N` — and the exported snapshot
//! must be a well-formed document carrying the standard key schema.
//!
//! Like `kill_resume.rs`, these run the real binary via
//! `CARGO_BIN_EXE_rhmd` so they cover the full flag-parsing → engine →
//! export path.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The vendored `serde_json::from_str` deserializes into a typed `T`; this
/// passthrough keeps the raw [`Value`] tree so the test can walk arbitrary
/// snapshot keys.
struct Raw(Value);

impl serde::Deserialize for Raw {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Raw>(text).expect("snapshot is valid JSON").0
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("expected integer, found {}", other.kind()),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rhmd-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn expect_success(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_rhmd"))
        .args(args)
        .output()
        .expect("spawn rhmd binary");
    assert_eq!(
        out.status.code(),
        Some(0),
        "`rhmd {}` should exit 0; stderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `"cells": [...]` tail of a sweep report — the part that must be
/// byte-identical between runs (timing and cache stats above it may
/// differ).
fn cells_section(json: &str) -> &str {
    let at = json.find("\"cells\"").expect("report has a cells field");
    &json[at..]
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn sweep(out: &Path, threads: &str, extra: &[&str]) {
    let mut args = vec![
        "sweep",
        "--scale",
        "tiny",
        "--algos",
        "lr,dt",
        "--threads",
        threads,
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    expect_success(&args);
}

#[test]
fn metrics_do_not_change_sweep_results_at_any_thread_count() {
    let dir = temp_dir("determinism");
    let baseline = dir.join("baseline.json");
    sweep(&baseline, "1", &[]);
    let golden = read(&baseline);

    for threads in ["1", "4"] {
        let out = dir.join(format!("with-metrics-{threads}.json"));
        let metrics = dir.join(format!("metrics-{threads}.json"));
        sweep(&out, threads, &["--metrics", metrics.to_str().unwrap()]);
        assert_eq!(
            cells_section(&read(&out)),
            cells_section(&golden),
            "--metrics at --threads {threads} changed the sweep cells"
        );
        assert!(metrics.is_file(), "snapshot written at --threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exported_snapshot_carries_the_standard_schema() {
    let dir = temp_dir("schema");
    let out = dir.join("sweep.json");
    let metrics = dir.join("metrics.json");
    sweep(&out, "2", &["--metrics", metrics.to_str().unwrap()]);

    let snap = parse(&read(&metrics));
    as_u64(snap.field("schema_version").expect("schema_version present"));

    let counters = snap.field("counters").expect("counters object");
    for key in rhmd_runtime::metrics::STANDARD_COUNTERS {
        counters
            .field(key)
            .unwrap_or_else(|e| panic!("counter '{key}' preregistered: {e}"));
    }
    // A real sweep must actually have recorded work, not just schema keys.
    for key in ["cache.misses", "pool.maps", "ml.models_trained", "trace.programs_executed"] {
        assert!(
            as_u64(counters.field(key).unwrap()) > 0,
            "counter '{key}' should be nonzero after a sweep"
        );
    }

    let gauges = snap.field("gauges").expect("gauges object");
    assert_eq!(
        gauges.field("pool.threads").expect("pool.threads gauge"),
        &Value::F64(2.0)
    );

    let histograms = snap.field("histograms").expect("histograms object");
    for key in rhmd_runtime::metrics::STANDARD_HISTOGRAMS {
        let h = histograms
            .field(key)
            .unwrap_or_else(|e| panic!("histogram '{key}' preregistered: {e}"));
        let count = as_u64(h.field("count").unwrap());
        let bucket_sum: u64 = h
            .field("buckets")
            .unwrap()
            .seq()
            .expect("buckets array")
            .iter()
            .map(as_u64)
            .sum();
        assert_eq!(bucket_sum, count, "histogram '{key}' buckets sum to its count");
    }
    let projected = histograms.field("features.project").unwrap();
    assert!(
        as_u64(projected.field("count").unwrap()) > 0,
        "a sweep projects feature windows"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_summary_prints_table_to_stderr_only() {
    let dir = temp_dir("summary");
    let out = dir.join("sweep.json");
    let output = {
        let mut args = vec![
            "sweep", "--scale", "tiny", "--algos", "lr", "--features", "memory", "--threads", "2",
            "--out",
        ];
        args.push(out.to_str().unwrap());
        args.push("--metrics-summary");
        expect_success(&args)
    };
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(" metrics "), "summary header on stderr:\n{stderr}");
    assert!(stderr.contains("cache.misses"), "summary lists counters:\n{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("cache.misses  "), "table stays off stdout");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_traces_only_the_splits_it_reads() {
    use rhmd_data::{Corpus, CorpusConfig, Splits};

    let dir = temp_dir("traced");
    let metrics = dir.join("metrics.json");
    expect_success(&[
        "train",
        "--scale",
        "tiny",
        "--threads",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    let snap = parse(&read(&metrics));
    let counters = snap.field("counters").expect("counters object");
    let traced = as_u64(counters.field("data.programs_traced").unwrap());
    let inline = as_u64(counters.field("data.programs_traced_inline").unwrap());

    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    // Opcode selection and training read victim-train, scoring reads
    // attacker-test; attacker-train is never traced.
    let read = splits.victim_train.len() + splits.attacker_test.len();
    assert_eq!(traced, read as u64, "programs traced");
    assert!(traced < corpus.len() as u64, "{traced} of {} traced", corpus.len());
    assert_eq!(inline, 0, "every trace came from a prefetch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_counters_move_only_under_a_fault_model() {
    let dir = temp_dir("faults");
    let model = dir.join("model.json");
    expect_success(&["train", "--scale", "tiny", "--out", model.to_str().unwrap()]);
    let fault_counters = |tag: &str, fault: &[&str]| {
        let metrics = dir.join(format!("{tag}.json"));
        let mut args = vec![
            "evaluate",
            "--scale",
            "tiny",
            "--model",
            model.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ];
        args.extend_from_slice(fault);
        expect_success(&args);
        let snap = parse(&read(&metrics));
        let counters = snap.field("counters").expect("counters object");
        ["uarch.windows_dropped", "uarch.windows_corrupted"]
            .map(|key| as_u64(counters.field(key).unwrap()))
    };
    let [dropped, corrupted] = fault_counters("faulted", &["--fault", "drop:0.2"]);
    assert!(dropped > 0, "a 20% drop rate drops reads");
    assert!(corrupted > 0, "the surviving reads pass through the fault model");
    assert_eq!(fault_counters("clean", &[]), [0, 0], "a clean evaluate reads no faults");
    std::fs::remove_dir_all(&dir).ok();
}
