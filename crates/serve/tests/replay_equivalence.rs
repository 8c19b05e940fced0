//! Bit-identity between the resident service and the batch evaluation
//! path: every held-out test program, streamed as a session at several
//! shard counts, must produce exactly the verdict `rhmd evaluate` computes
//! — same decision, same vote counts, same flag rate, at any parallelism.

mod common;

use common::fixture;
use rhmd_core::hmd::Hmd;
use rhmd_data::TracedCorpus;
use rhmd_serve::engine::{Engine, OutEvent};
use rhmd_serve::proto::{Response, VerdictMsg};
use rhmd_serve::queue::Watermarks;
use rhmd_serve::ServeConfig;
use std::sync::Mutex;
use std::time::Duration;

/// Streams every test program as one session through an engine with
/// `shards` workers and returns the verdict lines, keyed by session id.
fn replay(traced: &TracedCorpus, test: &[usize], hmd: &Hmd, shards: usize) -> Vec<VerdictMsg> {
    let engine = Engine::start(
        hmd.clone(),
        ServeConfig {
            shards,
            queue: Watermarks {
                capacity: 1 << 14,
                high: 1 << 14,
                low: 0,
            },
            session_deadline: None,
            tenant_deadline: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let out = engine.output();
    let verdicts = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            while let Some(ev) = out.pop() {
                match ev {
                    OutEvent::Response {
                        response: Response::Verdict(v),
                        ..
                    } => verdicts.lock().unwrap().push(v),
                    OutEvent::Response { .. } => {}
                    OutEvent::Closed => break,
                }
            }
        });
        for (k, &prog) in test.iter().enumerate() {
            let session = format!("s{k}");
            // Interleave tenants so per-tenant micro-batching is exercised.
            let tenant = if k % 2 == 0 { "t0" } else { "t1" };
            for (seq, sub) in traced.subwindows(prog).iter().enumerate() {
                engine.submit_event(0, tenant, &session, seq as u64, Box::new(sub.clone()), None);
            }
            engine.submit_end(0, tenant, &session);
            // Keep at most a couple of sessions in flight so the generous
            // queue never sheds and the comparison stays exact.
            while verdicts.lock().unwrap().len() + 2 < k {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let stats = engine.drain();
        collector.join().unwrap();
        assert!(stats.accounted());
        assert_eq!(stats.shed_sessions, 0, "replay must not shed");
        assert_eq!(stats.quarantined, 0, "a clean replay quarantines nothing");
        assert_eq!(stats.offered_sessions, test.len() as u64);
    });
    verdicts.into_inner().unwrap()
}

#[test]
fn streamed_verdicts_match_batch_evaluation_at_any_shard_count() {
    let (traced, splits, hmd) = fixture();
    let test = &splits.attacker_test;
    for shards in [1usize, 2, 3, 4] {
        let verdicts = replay(&traced, test, &hmd, shards);
        assert_eq!(verdicts.len(), test.len());
        for v in &verdicts {
            let k: usize = v.session[1..].parse().unwrap();
            let expected = hmd.verdict(traced.subwindows(test[k]));
            if expected.total == 0 {
                // The batch path silently reports "benign" on a program
                // with zero scorable windows; the service makes the lack
                // of evidence explicit instead.
                assert_eq!(v.verdict, "abstain", "shards {shards} session {k}");
                assert_eq!(v.reason.as_deref(), Some("coverage"));
                continue;
            }
            let want = if expected.is_malware() { "malware" } else { "benign" };
            assert_eq!(v.verdict, want, "shards {shards} session {k}");
            assert_eq!(v.voted, expected.total, "shards {shards} session {k}");
            assert_eq!(
                v.flag_rate,
                expected.flag_rate(),
                "flag rate must be bit-identical (shards {shards} session {k})"
            );
            assert!(v.reason.is_none());
        }
    }
}

#[test]
fn shard_count_is_invisible_in_the_output() {
    let (traced, splits, hmd) = fixture();
    let test = &splits.attacker_test[..splits.attacker_test.len().min(6)];
    let mut baseline = replay(&traced, test, &hmd, 1);
    baseline.sort_by(|a, b| a.session.cmp(&b.session));
    for shards in [2usize, 4] {
        let mut got = replay(&traced, test, &hmd, shards);
        got.sort_by(|a, b| a.session.cmp(&b.session));
        assert_eq!(got, baseline, "shards {shards} diverged from the 1-shard replay");
    }
}
