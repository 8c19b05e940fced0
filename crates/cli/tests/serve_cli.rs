//! End-to-end tests of the `rhmd serve` subcommand: the real binary, the
//! real NDJSON protocol, a real model file — over stdin/stdout and over a
//! Unix socket with a SIGTERM mid-stream, also under the daemon's env
//! fault plane with hostile clients attached.

use rhmd_data::{Corpus, CorpusConfig, TracedCorpus};
use rhmd_serve::proto::{Request, Response};
use rhmd_uarch::CoreConfig;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn rhmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhmd"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rhmd-serve-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny model with the real CLI and returns its path.
fn train_model(dir: &std::path::Path) -> PathBuf {
    let model = dir.join("model.json");
    let status = rhmd()
        .args(["train", "--scale", "tiny", "--out"])
        .arg(&model)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "rhmd train failed");
    assert!(model.is_file());
    model
}

/// The NDJSON lines replaying `program` as session `(tenant, session)`.
fn session_lines(traced: &TracedCorpus, program: usize, tenant: &str, session: &str) -> Vec<String> {
    let mut lines: Vec<String> = traced
        .subwindows(program)
        .iter()
        .enumerate()
        .map(|(seq, sub)| {
            serde_json::to_string(&Request::Event {
                tenant: tenant.to_owned(),
                session: session.to_owned(),
                seq: seq as u64,
                window: Box::new(sub.clone()),
                deadline_ms: None,
            })
            .unwrap()
        })
        .collect();
    lines.push(
        serde_json::to_string(&Request::End {
            tenant: tenant.to_owned(),
            session: session.to_owned(),
        })
        .unwrap(),
    );
    lines
}

/// Connects to the daemon's socket, waiting up to 5 s for it to bind.
#[cfg(unix)]
fn connect_when_bound(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    for _ in 0..200 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(sock) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("serve never bound {}", sock.display());
}

/// `.counters[key]` of a `--metrics` snapshot file.
#[cfg(unix)]
fn counter(metrics: &std::path::Path, key: &str) -> u64 {
    struct Raw(serde::Value);
    impl serde::Deserialize for Raw {
        fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
            Ok(Raw(value.clone()))
        }
    }
    let text = std::fs::read_to_string(metrics).unwrap();
    let snap = serde_json::from_str::<Raw>(&text).expect("snapshot is valid JSON").0;
    match snap.field("counters").and_then(|c| c.field(key)) {
        Ok(serde::Value::U64(n)) => *n,
        other => panic!("counter {key}: {other:?}"),
    }
}

fn tiny_traced() -> TracedCorpus {
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    TracedCorpus::trace(corpus, config.limits(), CoreConfig::default())
}

#[test]
fn stdio_session_gets_verdict_and_clean_drain_on_eof() {
    let dir = scratch("stdio");
    let model = train_model(&dir);
    let metrics = dir.join("metrics.json");
    let traced = tiny_traced();

    let mut child = rhmd()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--threads", "2", "--metrics"])
        .arg(&metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        for line in session_lines(&traced, 0, "t0", "s0") {
            writeln!(stdin, "{line}").unwrap();
        }
        writeln!(stdin, "this is not json").unwrap();
    }
    drop(child.stdin.take()); // EOF requests the drain
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "serve must exit 0 on a clean drain");

    let stdout = String::from_utf8(output.stdout).unwrap();
    let mut verdicts = 0;
    let mut errors = 0;
    let mut drained = false;
    for line in stdout.lines() {
        match serde_json::from_str::<Response>(line).unwrap() {
            Response::Verdict(v) => {
                verdicts += 1;
                assert_eq!(v.session, "s0");
                assert!(["malware", "benign", "abstain"].contains(&v.verdict.as_str()));
            }
            Response::Error { .. } => errors += 1,
            Response::Drained(stats) => {
                drained = true;
                assert!(stats.accounted());
                assert_eq!(stats.offered_sessions, 1);
                assert_eq!(stats.shed_sessions, 0);
            }
            _ => {}
        }
    }
    assert_eq!(verdicts, 1, "exactly one verdict line per offered session");
    assert_eq!(errors, 1, "the bad line gets a typed error, not a dead stream");
    assert!(drained, "the drained notice must be flushed before exit");
    assert!(metrics.is_file(), "the metrics snapshot is written on drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_mid_stream_drains_gracefully_over_the_socket() {
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    let dir = scratch("sigterm");
    let model = train_model(&dir);
    let metrics = dir.join("metrics.json");
    let sock = dir.join("serve.sock");
    let traced = tiny_traced();

    let mut child = rhmd()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--listen"])
        .arg(&sock)
        .args(["--metrics"])
        .arg(&metrics)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stream = connect_when_bound(&sock);
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // One complete session, then a second session left mid-stream when the
    // SIGTERM lands: the drain must finalize it explicitly, not drop it.
    for line in session_lines(&traced, 0, "t0", "done") {
        writeln!(stream, "{line}").unwrap();
    }
    let partial = session_lines(&traced, 1, "t0", "cut");
    for line in &partial[..partial.len() / 2] {
        writeln!(stream, "{line}").unwrap();
    }
    // A stats request doubles as a read barrier: its reply proves the
    // server has ingested every line written above, so the SIGTERM really
    // does land mid-session for "cut".
    writeln!(stream, "{}", serde_json::to_string(&Request::Stats {}).unwrap()).unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut verdicts: Vec<(String, String)> = Vec::new();
    let mut drained_stats = None;
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up early");
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Verdict(v) => verdicts.push((v.session, v.verdict)),
            Response::Stats(_) => break,
            _ => {}
        }
    }

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    for line in reader.lines() {
        let Ok(line) = line else { break };
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Verdict(v) => verdicts.push((v.session, v.verdict)),
            Response::Drained(stats) => {
                drained_stats = Some(stats);
                break;
            }
            _ => {}
        }
    }
    let status = child.wait().unwrap();
    assert!(status.success(), "SIGTERM must produce a clean (exit 0) drain");

    let stats = drained_stats.expect("drained notice reaches the client");
    assert!(stats.accounted(), "identity after SIGTERM: {stats:?}");
    assert_eq!(stats.offered_sessions, 2);
    assert_eq!(verdicts.len(), 2, "both sessions got verdict lines: {verdicts:?}");
    let cut = verdicts.iter().find(|(s, _)| s == "cut").unwrap();
    assert_eq!(cut.1, "abstain", "the mid-stream session abstains loudly");
    assert!(metrics.is_file(), "metrics snapshot flushed during shutdown");
    assert!(counter(&metrics, "serve.conns.accepted") >= 1);
    assert!(!sock.exists(), "socket file removed on exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// Shutdown must be idempotent: a second (and third) signal landing while
/// the first drain is already in flight — the classic double Ctrl-C, or a
/// process manager escalating SIGTERM → SIGINT — must coalesce into one
/// clean drain, one `Drained` notice, and exit 0.
#[cfg(unix)]
#[test]
fn repeated_signals_coalesce_into_one_clean_drain() {
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    let dir = scratch("double-signal");
    let model = train_model(&dir);
    let sock = dir.join("serve.sock");
    let traced = tiny_traced();

    let child = rhmd()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--listen"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = child;
    let mut stream = connect_when_bound(&sock);
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // A session left mid-stream so the signals land with real state to
    // drain, plus a stats barrier proving the server ingested it all.
    let partial = session_lines(&traced, 0, "t0", "cut");
    for line in &partial[..partial.len() / 2] {
        writeln!(stream, "{line}").unwrap();
    }
    writeln!(stream, "{}", serde_json::to_string(&Request::Stats {}).unwrap()).unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up early");
        if matches!(serde_json::from_str::<Response>(&line).unwrap(), Response::Stats(_)) {
            break;
        }
    }

    let pid = child.id().to_string();
    for sig in ["-TERM", "-TERM", "-INT"] {
        let kill = Command::new("kill").args([sig, &pid]).status().unwrap();
        assert!(kill.success());
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut verdicts = 0;
    let mut drained = 0;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Verdict(_) => verdicts += 1,
            Response::Drained(stats) => {
                drained += 1;
                assert!(stats.accounted(), "identity after signal storm: {stats:?}");
                assert_eq!(stats.offered_sessions, 1);
            }
            _ => {}
        }
    }
    let status = child.wait().unwrap();
    assert!(status.success(), "a signal storm still exits 0, not via abort");
    assert_eq!(drained, 1, "exactly one drain despite three signals");
    assert_eq!(verdicts, 1, "the mid-stream session is finalized exactly once");
    assert!(!sock.exists(), "socket file removed on exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's env fault plane under live socket traffic: the scorer is
/// poisoned through `RHMD_SERVE_FAULTS`, a mid-frame disconnect and a
/// slow-loris connection sit beside the healthy client, and that client's
/// frames run the standard wire-fault mix. Every session still gets one
/// verdict, the faults reach the boundaries they target, and SIGTERM still
/// drains cleanly.
#[cfg(unix)]
#[test]
fn env_fault_plane_and_hostile_clients_leave_the_daemon_draining_cleanly() {
    use rhmd_serve::chaos::WireFaults;
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    const SESSIONS: usize = 16;
    let dir = scratch("chaos");
    let model = train_model(&dir);
    let metrics = dir.join("metrics.json");
    let sock = dir.join("serve.sock");
    let traced = tiny_traced();

    let mut child = rhmd()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--listen"])
        .arg(&sock)
        .args(["--read-stall-secs", "1", "--metrics"])
        .arg(&metrics)
        .env("RHMD_SERVE_FAULTS", "score_panic:0.2,score_nan:0.15,seed:7")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stream = connect_when_bound(&sock);
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // A client that vanishes mid-frame, and a slow-loris that holds half a
    // frame open for the rest of the run.
    let mut vanish = UnixStream::connect(&sock).unwrap();
    vanish.write_all(br#"{"Event":{"tenant":"t0","session":"vanish","#).unwrap();
    vanish.shutdown(std::net::Shutdown::Both).unwrap();
    let mut loris = UnixStream::connect(&sock).unwrap();
    loris.write_all(br#"{"Event":{"tenant":"t0","session":"loris","#).unwrap();
    loris.flush().unwrap();

    let reader = BufReader::new(stream.try_clone().unwrap());
    let verdicts = std::sync::Mutex::new(Vec::new());
    let drained = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            for line in reader.lines() {
                let Ok(line) = line else { break };
                match serde_json::from_str::<Response>(&line).unwrap() {
                    Response::Verdict(v) => verdicts.lock().unwrap().push(v.session),
                    Response::Drained(stats) => return Some(stats),
                    _ => {}
                }
            }
            None
        });
        let wire = WireFaults::standard(7);
        for k in 0..SESSIONS {
            let session = format!("s{k}");
            let lines = session_lines(&traced, k, "t0", &session);
            let (events, end) = lines.split_at(lines.len() - 1);
            for (seq, frame) in events.iter().enumerate() {
                for line in wire.mutate(&session, seq as u64, frame, &events[0]) {
                    writeln!(stream, "{line}").unwrap();
                }
            }
            writeln!(stream, "{}", end[0]).unwrap();
        }
        stream.flush().unwrap();
        let began = Instant::now();
        while verdicts.lock().unwrap().len() < SESSIONS {
            assert!(began.elapsed() < Duration::from_secs(30), "verdicts never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }
        let kill = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .unwrap();
        assert!(kill.success());
        collector.join().unwrap()
    });
    let status = child.wait().unwrap();
    drop(loris);
    assert!(status.success(), "the daemon drains to exit 0 under chaos");
    assert!(!sock.exists(), "socket file removed on exit");

    let stats = drained.expect("drained notice reaches the client");
    assert!(stats.accounted(), "identity under chaos: {stats:?}");
    assert_eq!(stats.offered_sessions, SESSIONS as u64, "{stats:?}");
    let mut sessions = verdicts.into_inner().unwrap();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), SESSIONS, "one verdict per session");
    // The hostile traffic reached the boundaries it targets.
    assert!(counter(&metrics, "serve.requests.malformed") >= 1);
    assert!(counter(&metrics, "serve.sessions.quarantined") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}
