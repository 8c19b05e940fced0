//! Bit-identity under chaos: streaming every test program through the
//! full hostile-input pipeline (bounded frame reader → parser → validator
//! → engine) with wire faults, injected scorer faults *and* shard workers
//! killed mid-session must leave every non-quarantined session's verdict
//! exactly equal to the fault-free replay — same decision, same vote
//! counts, same flag rate — while every quarantine-targeted session gets an
//! explicit `abstain`/`quarantine` line, the four-term accounting identity
//! stays closed, the engine never fails, and every killed shard is back
//! within the recovery bound.

mod common;

use common::fixture;
use rhmd_core::hmd::Hmd;
use rhmd_data::TracedCorpus;
use rhmd_serve::chaos::{EngineFaults, WireFaults};
use rhmd_serve::engine::{Engine, OutEvent};
use rhmd_serve::proto::{parse_request, validate_request, Request, Response, VerdictMsg};
use rhmd_serve::queue::Watermarks;
use rhmd_serve::server::{read_frame, Frame};
use rhmd_serve::ServeConfig;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct ChaosRun {
    verdicts: HashMap<String, VerdictMsg>,
    stats: rhmd_serve::proto::StatsMsg,
    rejected_frames: u64,
    /// Shard workers killed mid-session.
    kills: u64,
    /// Kill-to-serving recovery of every restarted shard, nanoseconds.
    recoveries_ns: Vec<u64>,
}

/// Streams every program through the wire pipeline. With `Some(faults)`,
/// every session's frame stream is expanded by [`WireFaults::mutate`], the
/// engine injects scorer faults, and every third session has shard `k % 2`
/// killed halfway through its stream; with `None` the run is clean.
fn replay(
    traced: &TracedCorpus,
    test: &[usize],
    hmd: &Hmd,
    faults: Option<(WireFaults, EngineFaults)>,
) -> ChaosRun {
    let (wire, engine_faults) = match &faults {
        Some((w, e)) => (Some(w.clone()), e.clone()),
        None => (None, EngineFaults::default()),
    };
    let engine = Engine::start_with_faults(
        hmd.clone(),
        ServeConfig {
            shards: 2,
            queue: Watermarks {
                capacity: 1 << 14,
                high: 1 << 14,
                low: 0,
            },
            session_deadline: None,
            tenant_deadline: None,
            ..ServeConfig::default()
        },
        engine_faults,
    )
    .unwrap();
    let out = engine.output();
    let verdicts = Mutex::new(HashMap::new());
    let mut rejected_frames = 0u64;
    let mut kills = 0u64;
    let stats = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            while let Some(ev) = out.pop() {
                match ev {
                    OutEvent::Response {
                        response: Response::Verdict(v),
                        ..
                    } => {
                        let prev = verdicts.lock().unwrap().insert(v.session.clone(), v);
                        assert!(prev.is_none(), "duplicate verdict");
                    }
                    OutEvent::Response { .. } => {}
                    OutEvent::Closed => break,
                }
            }
        });
        for (k, &prog) in test.iter().enumerate() {
            let session = format!("s{k}");
            // Render the session's stream exactly as a client would put it
            // on the wire, with faults expanding each frame.
            let mut bytes: Vec<u8> = Vec::new();
            let mut first_frame = String::new();
            let subs = traced.subwindows(prog);
            for (seq, sub) in subs.iter().enumerate() {
                let frame = serde_json::to_string(&Request::Event {
                    tenant: "t0".into(),
                    session: session.clone(),
                    seq: seq as u64,
                    window: Box::new(sub.clone()),
                    deadline_ms: None,
                })
                .unwrap();
                if seq == 0 {
                    first_frame = frame.clone();
                }
                let lines = match &wire {
                    Some(w) => w.mutate(&session, seq as u64, &frame, &first_frame),
                    None => vec![frame],
                };
                for line in lines {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
            }
            // Feed the stream through the real hostile-input pipeline.
            let mut input = std::io::Cursor::new(bytes);
            let mut partial = Vec::new();
            let mut submitted = 0usize;
            let mut kill_due = wire.is_some() && k % 3 == 1;
            loop {
                match read_frame(&mut input, &mut partial) {
                    Frame::Line(line) => {
                        match parse_request(&line).and_then(|r| {
                            validate_request(&r)?;
                            Ok(r)
                        }) {
                            Ok(request) => {
                                engine.submit(0, request);
                                submitted += 1;
                            }
                            Err(_) => rejected_frames += 1,
                        }
                    }
                    Frame::Oversized(_) => rejected_frames += 1,
                    Frame::Idle | Frame::Stalled => unreachable!("cursors never block"),
                    Frame::Eof { .. } => break,
                }
                // Mid-session shard kill: live sessions must survive the
                // restart through the snapshot store.
                if kill_due && submitted >= subs.len() / 2 && submitted > 0 {
                    kill_due = false;
                    assert!(engine.kill_shard(k % 2), "kill of shard {} not delivered", k % 2);
                    kills += 1;
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while (engine.recoveries_ns().len() as u64) < kills
                        && !engine.failed()
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            engine.submit_end(0, "t0", &session);
        }
        let stats = engine.drain();
        collector.join().unwrap();
        stats
    });
    assert!(!engine.failed(), "engine failed: {:?}", engine.last_error());
    assert!(stats.accounted(), "identity violated: {stats:?}");
    assert_eq!(stats.offered_sessions, test.len() as u64);
    assert_eq!(stats.shed_sessions, 0, "replay must not shed");
    ChaosRun {
        verdicts: verdicts.into_inner().unwrap(),
        stats,
        rejected_frames,
        kills,
        recoveries_ns: engine.recoveries_ns(),
    }
}

#[test]
fn chaos_changes_no_nonquarantined_verdict() {
    let (traced, splits, hmd) = fixture();
    let test = &splits.attacker_test;
    let wire = WireFaults::standard(7);
    let engine_faults = EngineFaults {
        score_panic: 0.2,
        score_nan: 0.15,
        seed: 7,
    };
    let clean = replay(&traced, test, &hmd, None);
    let chaotic = replay(&traced, test, &hmd, Some((wire.clone(), engine_faults.clone())));

    // The fault plane must actually have fired, or this test is vacuous.
    assert!(chaotic.rejected_frames > 0, "no wire faults surfaced");
    assert!(chaotic.stats.stale_frames > 0, "no re-deliveries surfaced");
    let mut quarantined = 0u64;
    for k in 0..test.len() {
        let session = format!("s{k}");
        let clean_v = &clean.verdicts[&session];
        let chaos_v = &chaotic.verdicts[&session];
        if engine_faults.quarantines("t0", &session) {
            assert_eq!(chaos_v.verdict, "abstain", "{session}");
            assert_eq!(chaos_v.reason.as_deref(), Some("quarantine"), "{session}");
            quarantined += 1;
        } else {
            assert_eq!(
                chaos_v, clean_v,
                "non-quarantined {session} diverged under chaos"
            );
        }
    }
    assert!(quarantined > 0, "no sessions quarantined — rates too low");
    assert_eq!(chaotic.stats.quarantined, quarantined);
    // Clean-run cross-check: quarantine only ever fires when injected.
    assert_eq!(clean.stats.quarantined, 0);
    assert_eq!(clean.rejected_frames, 0);

    // Every killed shard was supervised back up, within the recovery bound.
    assert!(chaotic.kills > 0, "no shard was killed");
    assert!(
        chaotic.stats.shard_restarts >= chaotic.kills,
        "{} kills, {} restarts",
        chaotic.kills,
        chaotic.stats.shard_restarts
    );
    let mut recovery_ms: Vec<f64> =
        chaotic.recoveries_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    recovery_ms.sort_by(f64::total_cmp);
    let p99 = recovery_ms[((recovery_ms.len() - 1) as f64 * 0.99).round() as usize];
    assert!(p99 > 0.0 && p99 < 5_000.0, "recovery p99 {p99:.2} ms");
    assert_eq!(clean.kills, 0);
    assert_eq!(clean.stats.shard_restarts, 0);
}
