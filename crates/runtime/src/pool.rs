//! The one parallel map of the workspace: tracing, the corpus store, the
//! evasion re-traces and the evaluation engine (`rhmd_core::engine`) all
//! run on [`Pool`], optionally under a per-unit deadline watchdog.
//!
//! The pool itself is a scoped-thread work-stealing scheduler: items are
//! pre-split into one contiguous block per worker, a worker drains its own
//! block from the front, and an idle worker steals the back half of the
//! fullest remaining block. No allocation or locking happens per item
//! beyond one short mutex acquisition, and the whole scheduler is ~100
//! lines of std — the approved dependency set has no rayon.

use crate::RhmdError;
use rhmd_obs as obs;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One worker's claim on a contiguous index range `[next, end)`.
///
/// The owner pops from the front; thieves halve from the back. A mutex per
/// block keeps the claim/steal race trivially correct — critical sections
/// are a handful of integer ops, invisible next to per-item costs of
/// microseconds to milliseconds (simulation, training, classification).
struct Block {
    range: Mutex<(usize, usize)>,
}

impl Block {
    fn new(start: usize, end: usize) -> Block {
        Block {
            range: Mutex::new((start, end)),
        }
    }

    /// Claims the next index of this block, if any.
    fn pop_front(&self) -> Option<usize> {
        let mut r = self.range.lock().expect("pool mutex poisoned");
        if r.0 < r.1 {
            let i = r.0;
            r.0 += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Steals the back half of this block (at least one item, only if two
    /// or more remain so the owner keeps making progress).
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut r = self.range.lock().expect("pool mutex poisoned");
        let remaining = r.1.saturating_sub(r.0);
        if remaining < 2 {
            return None;
        }
        let take = remaining / 2;
        let stolen = (r.1 - take, r.1);
        r.1 -= take;
        Some(stolen)
    }

    fn remaining(&self) -> usize {
        let r = self.range.lock().expect("pool mutex poisoned");
        r.1.saturating_sub(r.0)
    }
}

/// The stealing loop both maps run: `workers` (at least 2) scoped threads
/// claim each index of `0..n` once and call `work(worker, index)`; slot `i`
/// of the result holds index `i`'s value (`None` where `work` gave none).
/// A `monitor` runs on one more thread until the flag it is handed turns
/// true, which happens (with an unpark) once every worker is done.
fn steal<R: Send>(
    n: usize,
    workers: usize,
    work: &(dyn Fn(usize, usize) -> Option<R> + Sync),
    monitor: Option<&(dyn Fn(&AtomicBool) + Sync)>,
) -> Vec<Option<R>> {
    // Static split: worker w starts on [w*chunk, ...); stealing
    // rebalances whatever the split got wrong.
    let chunk = n.div_ceil(workers);
    let blocks: Vec<Block> = (0..workers)
        .map(|w| Block::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
        .collect();

    let stop = &AtomicBool::new(false);
    let mut harvested: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let blocks = &blocks;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, R)> = Vec::with_capacity(chunk);
                loop {
                    // Drain the block we own.
                    while let Some(i) = blocks[w].pop_front() {
                        out.extend(work(w, i).map(|r| (i, r)));
                    }
                    // Steal the back half of the fullest victim.
                    let victim = (0..blocks.len())
                        .filter(|&v| v != w)
                        .max_by_key(|&v| blocks[v].remaining());
                    let stolen = victim.and_then(|v| blocks[v].steal_back());
                    match stolen {
                        Some((lo, hi)) => {
                            // Install the loot as our own block so it can
                            // itself be re-stolen if we stall.
                            obs::incr("pool.steals");
                            *blocks[w].range.lock().expect("pool mutex poisoned") = (lo, hi);
                        }
                        None => break, // nothing left anywhere
                    }
                }
                out
            }));
        }
        let monitor = monitor.map(|m| scope.spawn(move || m(stop)));
        for h in handles {
            harvested.push(h.join().expect("pool worker panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(monitor) = monitor {
            monitor.thread().unpark();
            monitor.join().expect("watchdog monitor panicked");
        }
    });

    // Reassemble in input order: every index was claimed exactly once.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, r) in harvested.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(r);
    }
    slots
}

/// A fixed-width scoped-thread work-stealing pool.
///
/// # Examples
///
/// ```
/// use rhmd_runtime::pool::Pool;
///
/// let items: Vec<u64> = (0..100).collect();
/// let doubled = Pool::new(4).map(&items, |_, &x| x * 2);
/// assert_eq!(doubled, Pool::new(1).map(&items, |_, &x| x * 2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn available() -> Pool {
        Pool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool, preserving input order exactly.
    ///
    /// `f` receives `(index, &item)` so callers can derive per-item seeds.
    /// The result is bit-identical to `items.iter().enumerate().map(...)`
    /// at any thread count, provided `f` is a pure function of its
    /// arguments. One worker or fewer than two items run serially on the
    /// calling thread, spawning nothing; a panic in `f` panics the map.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        obs::incr("pool.maps");
        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n < 2 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        steal(n, workers, &|_, i| Some(f(i, &items[i])), None)
            .into_iter()
            .map(|r| r.expect("index never claimed"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Per-task deadline watchdog
// ---------------------------------------------------------------------------

/// Deadline configuration for watchdog-supervised pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long one work unit may run before it is flagged as overdue.
    pub deadline: Duration,
}

impl WatchdogConfig {
    /// A watchdog with the given per-unit deadline.
    #[must_use]
    pub fn new(deadline: Duration) -> WatchdogConfig {
        WatchdogConfig { deadline }
    }

    /// A watchdog with a deadline in whole seconds (the CLI flag unit).
    #[must_use]
    pub fn from_secs(seconds: u64) -> WatchdogConfig {
        WatchdogConfig::new(Duration::from_secs(seconds))
    }
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig::from_secs(30)
    }
}

/// What a watchdog-supervised run observed: how many units ran, which were
/// flagged past their deadline, and which had to be requeued after their
/// first attempt was lost. `overdue`/`requeued` indices are per-map; when
/// reports from several maps are [`RunReport::merge`]d the lists become an
/// aggregate diagnostic, not unit identifiers.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Total work units supervised.
    pub items: u64,
    /// Units observed running past the deadline (they may still have
    /// completed — overdue means slow or stuck, not necessarily lost).
    pub overdue: Vec<u64>,
    /// Units whose first attempt produced no result (worker panic or lost
    /// unit) and were recomputed serially in ascending index order.
    pub requeued: Vec<u64>,
    /// The deadline in force, in milliseconds.
    pub deadline_ms: u64,
}

impl RunReport {
    /// Whether anything went wrong: an overdue or requeued unit.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.overdue.is_empty() || !self.requeued.is_empty()
    }

    /// Folds another map's report into this aggregate.
    pub fn merge(&mut self, other: &RunReport) {
        self.items += other.items;
        self.overdue.extend_from_slice(&other.overdue);
        self.requeued.extend_from_slice(&other.requeued);
        self.deadline_ms = self.deadline_ms.max(other.deadline_ms);
    }
}

/// Renders a panic payload for error messages.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Pool {
    /// [`Pool::map`] under a watchdog: a monitor thread flags units that run
    /// past `watchdog.deadline`, per-unit panics are caught instead of
    /// tearing the run down, and any unit whose first attempt produced no
    /// result is **requeued deterministically** — recomputed serially in
    /// ascending index order, which (since `f` is pure) yields exactly the
    /// value the first attempt would have. Alongside the results comes a
    /// [`RunReport`] so callers surface a degraded run instead of silently
    /// absorbing it.
    ///
    /// Scoped threads cannot be cancelled, so a unit that truly never
    /// returns still blocks the join — the watchdog's job is to *say which
    /// unit is stuck* (on stderr and in the report) so an operator can act,
    /// and to recover the recoverable cases (panics, lost results).
    ///
    /// # Errors
    ///
    /// [`RhmdError::Model`] when a requeued unit fails again — `f` is pure,
    /// so a second identical failure means the unit can never complete.
    pub fn map_watchdog<T, R, F>(
        &self,
        items: &[T],
        watchdog: &WatchdogConfig,
        f: F,
    ) -> Result<(Vec<R>, RunReport), RhmdError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        obs::incr("pool.maps");
        let deadline_ms = watchdog.deadline.as_millis().min(u128::from(u64::MAX)) as u64;
        let mut report = RunReport {
            items: n as u64,
            deadline_ms,
            ..RunReport::default()
        };
        // `f` is pure per the pool contract, so unwinding out of it cannot
        // leave broken shared state behind.
        let attempt = |i: usize| std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
        let workers = self.threads.min(n.max(1));
        let mut slots: Vec<Option<R>> = if workers > 1 && n >= 2 {
            // In-flight tracking: per worker, the unit it is computing
            // (index + 1; 0 = idle) and when it started, in milliseconds
            // since `epoch`. `busy_since` is written before `busy_index` so
            // the monitor never pairs a fresh index with a stale start.
            let busy_index: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            let busy_since: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
            let overdue = Mutex::new(std::collections::BTreeSet::new());
            let epoch = Instant::now();
            let monitor = |stop: &AtomicBool| {
                let tick = (watchdog.deadline / 4)
                    .max(Duration::from_millis(1))
                    .min(Duration::from_millis(50));
                while !stop.load(Ordering::Relaxed) {
                    // Unparked as soon as the workers finish, so a short
                    // map does not wait out a tick.
                    std::thread::park_timeout(tick);
                    let now = epoch.elapsed().as_millis() as u64;
                    for w in 0..workers {
                        let slot = busy_index[w].load(Ordering::Acquire);
                        if slot == 0 {
                            continue;
                        }
                        let started = busy_since[w].load(Ordering::Relaxed);
                        if now.saturating_sub(started) >= deadline_ms
                            && overdue
                                .lock()
                                .expect("watchdog mutex poisoned")
                                .insert(slot - 1)
                        {
                            eprintln!(
                                "[pool] work unit {} exceeded its {:?} deadline on \
                                 worker {w}; it will be requeued if its result is lost",
                                slot - 1,
                                watchdog.deadline
                            );
                        }
                    }
                }
            };
            let work = |w: usize, i: usize| {
                busy_since[w].store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                busy_index[w].store(i + 1, Ordering::Release);
                let result = attempt(i).ok();
                busy_index[w].store(0, Ordering::Release);
                result
            };
            let slots = steal(n, workers, &work, Some(&monitor));
            report.overdue = overdue
                .into_inner()
                .expect("watchdog mutex poisoned")
                .into_iter()
                .map(|i| i as u64)
                .collect();
            slots
        } else {
            (0..n).map(|i| attempt(i).ok()).collect()
        };

        // Deterministic requeue: every unit without a result is recomputed
        // serially in ascending index order. `f(i, item)` depends only on
        // its arguments, so the requeued value is bit-identical to what the
        // lost first attempt would have produced.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            report.requeued.push(i as u64);
            match attempt(i) {
                Ok(r) => *slot = Some(r),
                Err(payload) => {
                    return Err(RhmdError::model(format!(
                        "work unit {i} failed twice ({}); a pure unit failing \
                         deterministically cannot complete — aborting the run",
                        panic_message(&*payload)
                    )));
                }
            }
        }
        let results = slots
            .into_iter()
            .map(|r| r.expect("requeue filled every slot"))
            .collect();
        Ok((results, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_map_matches_serial_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = Pool::new(threads).map(&items, |_, &x| x.wrapping_mul(x) ^ 17);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn pool_map_passes_true_indices() {
        let items = vec!["a"; 100];
        let indices = Pool::new(4).map(&items, |i, _| i);
        assert_eq!(indices, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pool_handles_tiny_inputs() {
        assert_eq!(
            Pool::new(8).map::<u8, u8, _>(&[], |_, &x| x),
            Vec::<u8>::new()
        );
        assert_eq!(Pool::new(8).map(&[3u8], |_, &x| x + 1), vec![4]);
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn one_item_or_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: usize, _: &u8| std::thread::current().id() == caller;
        assert_eq!(Pool::new(8).map(&[0u8], on_caller), vec![true]);
        assert_eq!(Pool::new(1).map(&[0u8; 5], on_caller), vec![true; 5]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn a_panicking_unit_panics_the_map() {
        Pool::new(2).map(&[0u8, 1, 2, 3], |i, _| assert!(i != 2, "unit 2 fails"));
    }

    #[test]
    fn steal_rebalances_skewed_work() {
        // Front-loaded cost: worker 0's static block is ~100x the others'.
        // The test only asserts correctness — order preserved despite
        // stealing — since wall-clock is not observable deterministically.
        let items: Vec<u64> = (0..64).collect();
        let cost = |i: usize, x: u64| {
            if i < 16 {
                // Busy work standing in for an expensive item.
                (0..20_000u64).fold(x, |a, b| a ^ b.wrapping_mul(31))
            } else {
                x
            }
        };
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| cost(i, x)).collect();
        assert_eq!(Pool::new(4).map(&items, |i, &x| cost(i, x)), serial);
    }

    #[test]
    fn watchdog_matches_plain_map_when_clean() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for threads in [1, 4] {
            let (out, report) = Pool::new(threads)
                .map_watchdog(&items, &WatchdogConfig::default(), |_, &x| {
                    x.wrapping_mul(x) ^ 17
                })
                .unwrap();
            assert_eq!(out, serial, "threads={threads}");
            assert!(!report.degraded(), "{report:?}");
            assert_eq!(report.items, 257);
        }
    }

    #[test]
    fn watchdog_requeues_panicked_units_deterministically() {
        let items: Vec<u64> = (0..40).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        // Panic on the *first* attempt of units 5 and 17 only, standing in
        // for a transiently lost worker; the requeue recomputes them.
        let first: Vec<AtomicBool> = (0..40).map(|_| AtomicBool::new(true)).collect();
        let (out, report) = Pool::new(4)
            .map_watchdog(&items, &WatchdogConfig::default(), |i, &x| {
                if (i == 5 || i == 17) && first[i].swap(false, Ordering::SeqCst) {
                    panic!("simulated lost unit {i}");
                }
                x * 3
            })
            .unwrap();
        assert_eq!(out, serial);
        assert_eq!(
            report.requeued,
            vec![5, 17],
            "requeue order must be ascending"
        );
        assert!(report.degraded());
    }

    #[test]
    fn watchdog_reports_deterministic_double_failure() {
        let items: Vec<u64> = (0..8).collect();
        let err = Pool::new(2)
            .map_watchdog(&items, &WatchdogConfig::default(), |i, &x| {
                assert!(i != 3, "unit 3 always fails");
                x
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("work unit 3") && msg.contains("twice"),
            "{msg}"
        );
    }

    #[test]
    fn watchdog_flags_overdue_units() {
        let items = vec![0u8, 1];
        let (out, report) = Pool::new(2)
            .map_watchdog(
                &items,
                &WatchdogConfig::new(Duration::from_millis(5)),
                |i, &x| {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(120));
                    }
                    x + 1
                },
            )
            .unwrap();
        assert_eq!(out, vec![1, 2], "slow units still complete correctly");
        assert!(report.overdue.contains(&0), "{report:?}");
        assert!(
            report.requeued.is_empty(),
            "completed units are not requeued"
        );
    }
}
