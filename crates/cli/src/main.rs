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
//!               [--metrics snap.json] [--metrics-summary]
//! rhmd attack   [--scale s] [--feature f] [--algo a] [--surrogate a]
//!               [--strategy random|least-weight|weighted] [--count n]
//! rhmd defend   [--scale s] [--periods 10000,5000] [--count n]
//! rhmd serve    --model model.json [--listen path.sock] [--threads n]
//!               [--queue-cap n] [--high-watermark n] [--low-watermark n]
//!               [--batch-max n] [--batch-deadline-ms n] [--task-deadline secs]
//!               [--tenant-deadline secs] [--min-fill f] [--min-coverage f]
//!               [--restart-budget n] [--restart-backoff-ms n]
//!               [--snapshot-every-ms n] [--read-stall-secs n]
//!               [--write-timeout-secs n]
//!               [--metrics snap.json] [--metrics-summary]
//! rhmd help     (or --help / -h anywhere)
//! ```

mod args;
mod commands;
mod persist;

use args::Args;
use rhmd_core::RhmdError;

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

QUANTIZATION (train, sweep, defend; LR/SVM/NN only):
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

OBSERVABILITY (train, evaluate, sweep):
  --metrics PATH                        export per-stage counters and latency
                                        histograms as JSON after the run
  --metrics-summary                     print a metrics table to stderr
  Metrics are observe-only: results are byte-identical with metrics on or off.
";

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
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
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

fn run(raw: Vec<String>) -> Result<(), RhmdError> {
    let args = Args::parse(raw)?;
    // `corpus` takes an optional action (`corpus build`); every other
    // command rejects stray positionals.
    if args.command.as_deref() != Some("corpus") {
        args.expect_no_action()?;
    }
    match args.command.as_deref() {
        Some("corpus") => commands::corpus(&args),
        Some("dump") => commands::dump(&args),
        Some("train") => commands::train(&args),
        Some("evaluate") => commands::evaluate(&args),
        Some("sweep") => commands::sweep(&args),
        Some("attack") => commands::attack(&args),
        Some("defend") => commands::defend(&args),
        Some("serve") => commands::serve(&args),
        Some(other) => Err(RhmdError::config(format!("unknown command '{other}'"))),
        None => Err(RhmdError::config("no command given")),
    }
}
