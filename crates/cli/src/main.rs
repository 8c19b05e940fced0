//! `rhmd` — command-line interface to the RHMD reproduction.
//!
//! ```text
//! rhmd corpus   [--scale tiny|small|standard|paper]
//! rhmd corpus build --store dir [--scale s] [--features f,g]
//!               [--periods 10000,5000] [--threads n] [--chunk n]
//! rhmd train    [--scale s | --corpus-store dir] [--feature f] [--algo a]
//!               [--period n] [--threads n]
//!               [--quantize int4|int8|int16] [--stochastic-round seed] [--out model.json]
//! rhmd evaluate --model model.json [--scale s | --corpus-store dir]
//!               [--threads n] [--fault noise:0.1]
//! rhmd sweep    [--scale s | --corpus-store dir] [--algos lr,dt]
//!               [--features f,g] [--periods 10000,5000]
//!               [--quantize int4|int8|int16] [--stochastic-round seed]
//!               [--threads n] [--out bench.json] [--checkpoint dir | --resume dir]
//!               [--checkpoint-every n] [--task-deadline secs]
//! rhmd attack   [--scale s] [--feature f] [--algo a] [--surrogate a]
//!               [--strategy random|least-weight|weighted] [--count n] [--threads n]
//! rhmd defend   [--scale s] [--periods 10000,5000] [--count n] [--threads n]
//! rhmd serve    --model model.json [--listen path.sock] [--threads n]
//!               [--queue-cap n] [--high-watermark n] [--low-watermark n]
//!               [--batch-max n] [--batch-deadline-ms n] [--task-deadline secs]
//!               [--tenant-deadline secs] [--min-fill f] [--min-coverage f]
//!               [--restart-budget n] [--restart-backoff-ms n]
//!               [--snapshot-every-ms n] [--read-stall-secs n]
//!               [--write-timeout-secs n]
//! rhmd help     (or --help / -h anywhere)
//! ```
//!
//! Every command also takes `--metrics snap.json` and `--metrics-summary`.

mod args;
mod commands;

use args::Args;
use rhmd_core::RhmdError;
use rhmd_runtime::durable::Durable;
use rhmd_runtime::metrics::MetricsOptions;
use std::path::PathBuf;

const USAGE: &str = "\
rhmd — evasion-resilient hardware malware detectors (MICRO'17 reproduction)

USAGE: rhmd <command> [--flag value]...

COMMANDS:
  corpus     build the synthetic corpus and summarize it; `corpus build
             --store DIR` traces it once into mmap-able feature shards
             (content-addressed dedup, checkpointed, resumable)
  dump       print an objdump-style listing of one synthetic binary
  train      train a baseline HMD; optionally save it (--out model.json)
  evaluate   score a saved detector on held-out programs (--model path);
             optionally through faulted counters (--fault noise:0.1,
             also drop:P | multiplex:P | burst:P | saturate:BITS | wrap:BITS)
  sweep      train + score every algorithm x feature x period combination
             in parallel with feature-vector caching (--out bench.json);
             crash-tolerant with --checkpoint/--resume (see below)
  attack     reverse-engineer a victim detector and evade it
  defend     deploy an RHMD pool and measure its resilience
  serve      resident detection service (--model path): stream sessions as
             NDJSON over stdin/stdout or --listen <socket>, with bounded
             queues, load-shedding past --high-watermark (explicit shed
             verdicts, never silent drops), watchdog deadlines, hot model
             reload, and graceful drain on EOF / SIGTERM / {\"Drain\":{}}
  help       print this message (also --help or -h after any command)

COMMON FLAGS:
  --scale tiny|small|standard|paper     corpus size (default: small)
  --feature instructions|memory|architectural
  --algo lr|dt|svm|nn|rf
  --threads N                           worker threads (default: all cores);
                                        results are identical at any N

CORPUS STORE (corpus build; train, evaluate, sweep):
  --store DIR                           (corpus build) shard directory to
                                        create; rebuilding resumes from the
                                        build journal instead of re-tracing
  --chunk N                             (corpus build) programs per
                                        checkpointed build chunk (default 16)
  --corpus-store DIR                    read feature rows from a store built
                                        by `corpus build` instead of
                                        regenerating + re-tracing; mmap'd
                                        zero-copy reads, byte-identical
                                        results, bounded RSS. Fault
                                        injection, attack, and defend need
                                        raw traces and refuse this flag.

QUANTIZATION (train, sweep, attack, defend; LR/SVM/NN only):
  --quantize int4|int8|int16                 post-training quantized inference with
                                        per-feature input scales; tree families
                                        stay exact
  --stochastic-round SEED               round quantized inputs stochastically
                                        (seeded, byte-reproducible at any
                                        --threads N); implies --quantize int16
                                        unless a width is given. Randomized
                                        rounding jitters the decision boundary
                                        seen by a reverse-engineering attacker.

CRASH TOLERANCE (sweep):
  --checkpoint DIR                      journal each finished cell to DIR
                                        (auto-resumes if DIR has a manifest)
  --resume DIR                          resume an interrupted run; refuses a
                                        DIR written by a different config
  --checkpoint-every N                  fsync the journal every N cells (default 1)
  --task-deadline SECS                  flag + requeue work units stuck > SECS
  Resumed runs are bit-identical to uninterrupted ones at any --threads N.

ROBUSTNESS (serve):
  --restart-budget N                    shard-worker restarts the supervisor
                                        may spend before failing fast (default 5)
  --restart-backoff-ms N                base supervisor backoff, doubled per
                                        restart of the same shard (default 10)
  --snapshot-every-ms N                 session-snapshot sync cadence backing
                                        lossless shard restarts (default 25)
  --read-stall-secs N                   disconnect a client stalled mid-frame
                                        (slow loris) after N seconds (default 5)
  --write-timeout-secs N                drop a consumer that blocks verdict
                                        writes for N seconds (default 2)
  Malformed, oversized, stale, or non-finite frames are rejected with typed
  errors (never a crash); sessions that poison the scorer are quarantined
  with explicit abstain verdicts. The drain summary accounts every session:
  offered == decided + abstained + shed + quarantined.

OBSERVABILITY (every command):
  --metrics PATH                        export per-stage counters and latency
                                        histograms as JSON after the run
  --metrics-summary                     print a metrics table to stderr
  Metrics are observe-only: results are byte-identical with metrics on or off.
";

/// A command's entry point.
type Command = fn(&Args) -> Result<(), RhmdError>;

/// Every command, its entry point, and the flags it reads; any other flag
/// is a usage error. `corpus build` is keyed apart from `corpus`, and every
/// command also takes `--metrics` and `--metrics-summary`.
#[rustfmt::skip]
const COMMANDS: &[(&str, Command, &str)] = &[
    ("corpus", commands::corpus, "scale"),
    ("corpus build", commands::corpus, "store scale features periods threads chunk"),
    ("dump", commands::dump, "scale program functions"),
    ("train", commands::train,
     "scale corpus-store threads feature algo period quantize stochastic-round out"),
    ("evaluate", commands::evaluate, "model scale corpus-store threads fault fault-seed"),
    ("sweep", commands::sweep,
     "scale corpus-store threads algos features periods quantize stochastic-round out \
      checkpoint resume checkpoint-every task-deadline"),
    ("attack", commands::attack,
     "scale corpus-store threads feature algo surrogate strategy count quantize stochastic-round"),
    ("defend", commands::defend,
     "scale corpus-store threads periods count quantize stochastic-round"),
    ("serve", commands::serve,
     "model listen threads queue-cap high-watermark low-watermark batch-max batch-deadline-ms \
      task-deadline tenant-deadline min-fill min-coverage restart-budget restart-backoff-ms \
      snapshot-every-ms read-stall-secs write-timeout-secs"),
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&raw) {
        // A closed pipe (`rhmd --help | head -3`) still counts as success.
        let failed = rhmd_runtime::write_help(&mut std::io::stdout().lock(), USAGE).is_err();
        std::process::exit(i32::from(failed));
    }
    let exit = match run(raw) {
        Ok(()) => 0,
        Err(message) => {
            // A closed stderr (`rhmd frobnicate 2>&1 | head -c0`) must not
            // turn the usage error into a panic: the exit code is still 2.
            let text = format!("error: {message}\n\n{USAGE}");
            let _ = rhmd_runtime::write_help(&mut std::io::stderr().lock(), &text);
            2
        }
    };
    std::process::exit(exit);
}

/// `--help` or `-h` anywhere on the command line, or `help` as the command
/// or its action.
fn wants_help(raw: &[String]) -> bool {
    let mut positionals = raw.iter().take_while(|a| !a.starts_with("--")).take(2);
    raw.iter().any(|a| a == "--help" || a == "-h") || positionals.any(|a| a == "help")
}

/// Checks the command and its flags, then runs it between the one metrics
/// install and the one metrics export of the process.
fn run(raw: Vec<String>) -> Result<(), RhmdError> {
    let args = Args::parse(raw)?;
    let command = args.command.as_deref().ok_or_else(|| RhmdError::config("no command given"))?;
    // `corpus` takes an optional action (`corpus build`); every other
    // command rejects stray positionals.
    let key = match (command, args.action.as_deref()) {
        ("corpus", Some("build")) => "corpus build",
        ("corpus", _) => "corpus",
        _ => {
            args.expect_no_action()?;
            command
        }
    };
    let &(_, entry, flags) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == key)
        .ok_or_else(|| RhmdError::config(format!("unknown command '{command}'")))?;
    args.expect_flags(key, &format!("{flags} metrics metrics-summary"))?;
    // The I/O fault plane is read here, before any work, so a malformed
    // RHMD_IO_FAULTS fails in milliseconds rather than at the first write.
    Durable::from_env()?;
    let metrics =
        MetricsOptions::new(args.get("metrics").map(PathBuf::from), args.flag("metrics-summary"));
    metrics.install();
    entry(&args)?;
    metrics.finish()
}
