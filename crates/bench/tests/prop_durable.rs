//! Property tests of the durable-I/O retry layer: every finite transient
//! fault schedule is absorbed, the backoff schedule is monotone and capped,
//! and fatal errors are never retried.

use proptest::prelude::*;
use rhmd_runtime::durable::{fnv1a, is_transient, Durable, FaultPlane, RetryPolicy};
use rhmd_core::RhmdError;
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::time::Duration;

/// A policy with nanosecond delays and an arbitrary (bounded) budget, so
/// cases with many retries still run instantly.
fn fast_policy(max_attempts: u32, jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        jitter_seed,
        ..RetryPolicy::fast()
    }
}

/// The transient error kinds [`is_transient`] recognises.
const TRANSIENT_KINDS: [io::ErrorKind; 3] = [
    io::ErrorKind::Interrupted,
    io::ErrorKind::WouldBlock,
    io::ErrorKind::TimedOut,
];

/// A sample of fatal kinds — anything not in [`TRANSIENT_KINDS`].
const FATAL_KINDS: [io::ErrorKind; 4] = [
    io::ErrorKind::NotFound,
    io::ErrorKind::PermissionDenied,
    io::ErrorKind::AlreadyExists,
    io::ErrorKind::InvalidData,
];

proptest! {
    /// Any schedule of fewer transient failures than the attempt budget
    /// eventually succeeds, with exactly `failures + 1` calls — the retry
    /// layer neither gives up early nor calls more than it must.
    #[test]
    fn finite_transient_schedules_succeed(
        failures in 0u32..8,
        budget in 8u32..32,
        kind_ix in 0usize..TRANSIENT_KINDS.len(),
        seed in any::<u64>(),
    ) {
        let d = Durable::with_plane(
            FaultPlane::transient(0.0, 1),
            fast_policy(budget, seed),
        );
        let calls = Cell::new(0u32);
        let out = d.with_retry("poke", Path::new("x"), || {
            calls.set(calls.get() + 1);
            if calls.get() <= failures {
                Err(io::Error::new(TRANSIENT_KINDS[kind_ix], "injected"))
            } else {
                Ok(calls.get())
            }
        });
        prop_assert_eq!(out.unwrap(), failures + 1);
        prop_assert_eq!(calls.get(), failures + 1);
    }

    /// A transient schedule at least as long as the budget exhausts it:
    /// exactly `budget` calls, then a typed Io error naming the operation,
    /// the path, and the attempt count.
    #[test]
    fn exhausted_budget_is_a_typed_io_error(
        budget in 1u32..12,
        seed in any::<u64>(),
    ) {
        let d = Durable::with_plane(
            FaultPlane::transient(0.0, 1),
            fast_policy(budget, seed),
        );
        let calls = Cell::new(0u32);
        let err = d
            .with_retry("append journal record", Path::new("/tmp/j.jsonl"), || {
                calls.set(calls.get() + 1);
                Err::<(), _>(io::Error::new(io::ErrorKind::Interrupted, "EINTR"))
            })
            .unwrap_err();
        prop_assert_eq!(calls.get(), budget);
        prop_assert!(matches!(err, RhmdError::Io { .. }), "{}", err);
        let msg = err.to_string();
        prop_assert!(msg.contains("append journal record"), "{}", msg);
        prop_assert!(msg.contains("/tmp/j.jsonl"), "{}", msg);
        prop_assert!(msg.contains(&format!("{budget} attempts")), "{}", msg);
    }

    /// Fatal errors are never retried, whatever the budget: one call, and
    /// the error surfaces with operation + path context.
    #[test]
    fn fatal_errors_are_never_retried(
        budget in 1u32..64,
        kind_ix in 0usize..FATAL_KINDS.len(),
        seed in any::<u64>(),
    ) {
        let kind = FATAL_KINDS[kind_ix];
        prop_assert!(!is_transient(&io::Error::new(kind, "x")));
        let d = Durable::with_plane(
            FaultPlane::transient(0.0, 1),
            fast_policy(budget, seed),
        );
        let calls = Cell::new(0u32);
        let err = d
            .with_retry("open model", Path::new("/no/such/model.json"), || {
                calls.set(calls.get() + 1);
                Err::<(), _>(io::Error::new(kind, "nope"))
            })
            .unwrap_err();
        prop_assert_eq!(calls.get(), 1);
        prop_assert!(err.to_string().contains("/no/such/model.json"), "{}", err);
    }

    /// The pre-jitter backoff schedule is monotone non-decreasing in the
    /// attempt number and never exceeds the cap, for arbitrary base/cap
    /// pairs.
    #[test]
    fn backoff_is_monotone_up_to_cap(
        base_nanos in 1u64..1_000_000,
        cap_factor in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_nanos(base_nanos),
            cap: Duration::from_nanos(base_nanos.saturating_mul(cap_factor)),
            jitter_seed: seed,
        };
        let mut last = Duration::ZERO;
        for attempt in 0..64 {
            let d = p.base_delay(attempt);
            prop_assert!(d >= last, "attempt {}: {:?} < {:?}", attempt, d, last);
            prop_assert!(d <= p.cap, "attempt {}: {:?} > cap {:?}", attempt, d, p.cap);
            last = d;
        }
        // The schedule reaches the cap once the exponential passes it.
        prop_assert_eq!(p.base_delay(63), p.cap);
    }

    /// Jitter only ever adds: the actual delay sits in
    /// `[base_delay, base_delay * 1.25]`, and is deterministic — the same
    /// (seed, attempt) pair always sleeps the same time.
    #[test]
    fn jitter_is_bounded_and_deterministic(
        attempt in 0u32..32,
        seed in any::<u64>(),
    ) {
        let p = RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() };
        let base = p.base_delay(attempt);
        let d = p.delay(attempt);
        prop_assert!(d >= base, "{:?} < base {:?}", d, base);
        let ceiling = base + Duration::from_nanos((base.as_nanos() as f64 * 0.25) as u64 + 1);
        prop_assert!(d <= ceiling, "{:?} > {:?}", d, ceiling);
        prop_assert_eq!(p.delay(attempt), d);
    }

    /// Transient classification covers exactly the retryable kinds.
    #[test]
    fn transient_classification_is_exact(kind_ix in 0usize..TRANSIENT_KINDS.len()) {
        prop_assert!(is_transient(&io::Error::new(TRANSIENT_KINDS[kind_ix], "x")));
        for kind in FATAL_KINDS {
            prop_assert!(!is_transient(&io::Error::new(kind, "x")));
        }
    }

    /// FNV-1a is stable and input-sensitive: equal inputs hash equal, and
    /// a one-byte flip changes the digest (no trivial collisions on the
    /// paths the checksum header guards).
    #[test]
    fn fnv1a_detects_single_byte_flips(
        mut bytes in proptest::collection::vec(any::<u8>(), 1..512),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let before = fnv1a(&bytes);
        prop_assert_eq!(before, fnv1a(&bytes));
        let i = at % bytes.len();
        bytes[i] ^= flip;
        prop_assert_ne!(fnv1a(&bytes), before);
    }
}
