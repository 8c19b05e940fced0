//! Parallel corpus-evaluation engine: a dependency-free work-stealing
//! thread pool, a feature-vector cache, and the per-program evaluation
//! loops every experiment shares.
//!
//! Three design rules make parallel runs **bit-exact** with serial ones at
//! any thread count:
//!
//! 1. **Per-program work is pure.** A program's verdict depends only on its
//!    own subwindows and a seed derived from `(run seed, program id)` via
//!    [`rhmd_trace::seed::derive_seed`] — never on shared RNG state or on
//!    which other programs were evaluated before it.
//! 2. **Results are keyed by index.** Workers race over *which item to
//!    compute next*, not over where results land; output order is always
//!    corpus order, so reductions (datasets, tallies) fold identically.
//! 3. **The cache stores finished values.** A [`FeatureCache`] hit returns
//!    the same immutable vectors a miss would compute, so interleaving of
//!    hits and misses cannot change any result, only the wall-clock.
//!
//! The pool itself is a scoped-thread work-stealing scheduler: items are
//! pre-split into one contiguous block per worker, a worker drains its own
//! block from the front, and an idle worker steals the back half of the
//! fullest remaining block. No allocation or locking happens per item
//! beyond one short mutex acquisition, and the whole scheduler is ~100
//! lines of std — the approved dependency set has no rayon.

use rhmd_core::detector::{Detector, StreamRng};
use rhmd_core::hmd::{Hmd, QuorumVerdict};
use rhmd_core::retrain::DetectionQuality;
use rhmd_core::rhmd::ResilientHmd;
use rhmd_core::verdict::{DegradedVerdict, VerdictPolicy};
use rhmd_core::RhmdError;
use rhmd_data::store::CorpusStore;
use rhmd_data::{CorpusSource, TracedCorpus};
use rhmd_features::pipeline::project_windows_into;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::{apply_faults, RawWindow};
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::model::Dataset;
use rhmd_obs::{self as obs, NoopRecorder, Recorder};
use rhmd_runtime::ckpt::Journal;
use rhmd_trace::seed::derive_seed;
use rhmd_uarch::faults::{FaultConfig, FaultModel};
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------------------

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

/// A fixed-width scoped-thread work-stealing pool.
///
/// # Examples
///
/// ```
/// use rhmd_bench::par::Pool;
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
    /// arguments — which every evaluation closure in this crate is.
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

        // Static split: worker w starts on [w*chunk, ...); stealing
        // rebalances whatever the split got wrong.
        let chunk = n.div_ceil(workers);
        let blocks: Vec<Block> = (0..workers)
            .map(|w| Block::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
            .collect();

        let mut harvested: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let blocks = &blocks;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::with_capacity(chunk);
                    loop {
                        // Drain the block we own.
                        while let Some(i) = blocks[w].pop_front() {
                            out.push((i, f(i, &items[i])));
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
            for h in handles {
                harvested.push(h.join().expect("pool worker panicked"));
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
        let workers = self.threads.min(n.max(1));
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);

        if workers > 1 && n >= 2 {
            let chunk = n.div_ceil(workers);
            let blocks: Vec<Block> = (0..workers)
                .map(|w| Block::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
                .collect();
            // In-flight tracking: per worker, the unit it is computing
            // (index + 1; 0 = idle) and when it started, in milliseconds
            // since `epoch`. `busy_since` is written before `busy_index` so
            // the monitor never pairs a fresh index with a stale start.
            let busy_index: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            let busy_since: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
            let stop = AtomicBool::new(false);
            let overdue = Mutex::new(std::collections::BTreeSet::new());
            let epoch = Instant::now();

            let mut harvested: Vec<Vec<(usize, R)>> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let blocks = &blocks;
                    let f = &f;
                    let busy_index = &busy_index;
                    let busy_since = &busy_since;
                    handles.push(scope.spawn(move || {
                        let mut out: Vec<(usize, R)> = Vec::with_capacity(chunk);
                        loop {
                            while let Some(i) = blocks[w].pop_front() {
                                busy_since[w]
                                    .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                                busy_index[w].store(i + 1, Ordering::Release);
                                // `f` is pure per the pool contract, so
                                // unwinding out of it cannot leave broken
                                // shared state behind.
                                let result =
                                    std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                                busy_index[w].store(0, Ordering::Release);
                                if let Ok(r) = result {
                                    out.push((i, r));
                                }
                            }
                            let victim = (0..blocks.len())
                                .filter(|&v| v != w)
                                .max_by_key(|&v| blocks[v].remaining());
                            match victim.and_then(|v| blocks[v].steal_back()) {
                                Some((lo, hi)) => {
                                    obs::incr("pool.steals");
                                    *blocks[w].range.lock().expect("pool mutex poisoned") =
                                        (lo, hi);
                                }
                                None => break,
                            }
                        }
                        out
                    }));
                }
                let monitor = scope.spawn(|| {
                    let tick = (watchdog.deadline / 4)
                        .max(Duration::from_millis(1))
                        .min(Duration::from_millis(50));
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(tick);
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
                });
                for h in handles {
                    harvested.push(h.join().expect("pool worker panicked"));
                }
                stop.store(true, Ordering::Relaxed);
                monitor.join().expect("watchdog monitor panicked");
            });
            for (i, r) in harvested.into_iter().flatten() {
                debug_assert!(slots[i].is_none(), "index {i} computed twice");
                slots[i] = Some(r);
            }
            report.overdue = overdue
                .into_inner()
                .expect("watchdog mutex poisoned")
                .into_iter()
                .map(|i| i as u64)
                .collect();
        } else {
            for (i, t) in items.iter().enumerate() {
                if let Ok(r) = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                    slots[i] = Some(r);
                }
            }
        }

        // Deterministic requeue: every unit without a result is recomputed
        // serially in ascending index order. `f(i, item)` depends only on
        // its arguments, so the requeued value is bit-identical to what the
        // lost first attempt would have produced.
        for i in 0..n {
            if slots[i].is_some() {
                continue;
            }
            report.requeued.push(i as u64);
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                Ok(r) => slots[i] = Some(r),
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

// ---------------------------------------------------------------------------
// Feature-vector cache
// ---------------------------------------------------------------------------

/// Cache key: one projected window set is identified by the backing corpus
/// source, the program, the fault seed, the collection period, the feature
/// definition, and the fault configuration (hashed stably, so keys survive
/// process boundaries).
///
/// `source` is the [`CorpusSource::identity`] of the backing data — `0` for
/// live generation, the store's path/config hash otherwise — so mixing a
/// corpus store and a generated corpus in one process can never alias
/// entries even when program indices and specs coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    source: u64,
    program: usize,
    seed: u64,
    period: u32,
    spec_hash: u64,
    fault_hash: u64,
}

const SHARDS: usize = 16;

/// Where an [`Evaluator`] reads feature rows from: a live traced corpus or
/// an opened on-disk [`CorpusStore`].
///
/// Both sides satisfy the same contract ([`CorpusSource`]): for the same
/// underlying corpus, feature rows are bit-identical — which is what makes
/// `rhmd sweep --corpus-store` byte-identical to live generation.
#[derive(Debug, Clone, Copy)]
pub enum EvalSource<'a> {
    /// Programs traced in RAM this run.
    Traced(&'a TracedCorpus),
    /// Feature rows mmap'd from a prebuilt corpus store.
    Store(&'a CorpusStore),
}

impl EvalSource<'_> {
    /// Number of programs.
    pub fn len(&self) -> usize {
        match self {
            EvalSource::Traced(t) => CorpusSource::len(*t),
            EvalSource::Store(s) => CorpusSource::len(*s),
        }
    }

    /// Whether the source holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ground-truth labels, one per program.
    pub fn labels(&self) -> Vec<bool> {
        match self {
            EvalSource::Traced(t) => CorpusSource::labels(*t),
            EvalSource::Store(s) => CorpusSource::labels(*s),
        }
    }

    /// Stratum ids, one per program.
    pub fn strata(&self) -> Vec<u32> {
        match self {
            EvalSource::Traced(t) => CorpusSource::strata(*t),
            EvalSource::Store(s) => CorpusSource::strata(*s),
        }
    }

    /// The cache-key identity of the backing data (0 = live generation).
    pub fn identity(&self) -> u64 {
        match self {
            EvalSource::Traced(t) => CorpusSource::identity(*t),
            EvalSource::Store(s) => CorpusSource::identity(*s),
        }
    }

    /// Feature rows of one program. Panics on a source mismatch (spec not
    /// stored, index out of range) — evaluation loops are pure and such a
    /// mismatch is a caller bug, validated at CLI level before any loop
    /// runs.
    fn features_of(&self, program: usize, spec: &FeatureSpec) -> FeatureMatrix {
        let result = match self {
            EvalSource::Traced(t) => CorpusSource::features_of(*t, program, spec),
            EvalSource::Store(s) => CorpusSource::features_of(*s, program, spec),
        };
        result.unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Statistics of a [`FeatureCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe cache of projected feature matrices.
///
/// Multi-detector ensembles, RHMD pools, and sweep grids repeatedly project
/// the same `(program, spec, fault)` combination — every detector sharing a
/// spec, every algorithm trained at the same sweep point, every metric pass
/// over the same split. The cache computes each combination once — one flat
/// row-major [`FeatureMatrix`] per program, a single allocation — and hands
/// out `Arc`s to the immutable result.
///
/// Correctness: a hit returns exactly the matrix a miss would compute (both
/// call [`project_windows_into`] on the same inputs), so caching can never
/// change a result — only skip recomputation. The equivalence suite
/// asserts this against the uncached path.
#[derive(Debug)]
pub struct FeatureCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One lock-striped slice of the cache (a flat matrix per key).
type Shard = Mutex<HashMap<CacheKey, Arc<FeatureMatrix>>>;

impl Default for FeatureCache {
    fn default() -> FeatureCache {
        FeatureCache::new()
    }
}

impl FeatureCache {
    /// An empty cache with the default shard count.
    pub fn new() -> FeatureCache {
        FeatureCache::with_shards(SHARDS)
    }

    /// An empty cache lock-striped into `shards` slices (clamped to at
    /// least 1). More shards reduce contention under wide pools; sharding
    /// never changes results, only which mutex a key lands on.
    pub fn with_shards(shards: usize) -> FeatureCache {
        FeatureCache {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        // Program index spreads entries across however many shards exist.
        &self.shards[(key.program ^ key.spec_hash as usize) % self.shards.len()]
    }

    /// Projected feature matrix of program `program` under `spec` (one row
    /// per window), optionally through a fault model `(config, seed)` —
    /// computed on first use, served from the cache afterwards.
    pub fn vectors(
        &self,
        traced: &TracedCorpus,
        program: usize,
        spec: &FeatureSpec,
        fault: Option<(&FaultConfig, u64)>,
    ) -> Arc<FeatureMatrix> {
        self.vectors_source(&EvalSource::Traced(traced), program, spec, fault)
    }

    /// [`FeatureCache::vectors`] over any [`EvalSource`]. Store-backed hits
    /// and misses both return zero-copy views over the mapped shard; the
    /// source identity is part of the key, so a store and a generated
    /// corpus sharing one process never alias entries.
    ///
    /// # Panics
    ///
    /// When `fault` is given for a store source: fault injection corrupts
    /// raw subwindows, which a store does not retain. Degraded evaluations
    /// require a traced source.
    pub fn vectors_source(
        &self,
        source: &EvalSource<'_>,
        program: usize,
        spec: &FeatureSpec,
        fault: Option<(&FaultConfig, u64)>,
    ) -> Arc<FeatureMatrix> {
        let key = CacheKey {
            source: source.identity(),
            program,
            seed: fault.map_or(0, |(_, s)| s),
            period: spec.period,
            spec_hash: spec.stable_hash(),
            fault_hash: fault.map_or(0, |(c, _)| c.stable_hash()),
        };
        if let Some(found) = self.shard(&key).lock().expect("cache mutex poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::incr("cache.hits");
            return Arc::clone(found);
        }
        // Compute outside the lock: projections are pure, so two racing
        // computations of the same key produce identical matrices and either
        // may win the insert.
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::incr("cache.misses");
        let projected = match (source, fault) {
            (EvalSource::Traced(traced), Some((config, seed))) => {
                let subs = traced.subwindows(program);
                let mut flat = Vec::new();
                let model = FaultModel::new(*config, seed);
                let windows = project_windows_into(&apply_faults(subs, &model), spec, &mut flat);
                if spec.dims() == 0 {
                    // Flat storage cannot infer a row count at zero dims;
                    // keep the window count by pushing empty rows.
                    let mut m = FeatureMatrix::new(0);
                    for _ in 0..windows {
                        m.push_row(&[]);
                    }
                    m
                } else {
                    FeatureMatrix::from_flat(spec.dims(), flat)
                }
            }
            (EvalSource::Store(_), Some(_)) => panic!(
                "fault injection needs raw subwindows, which a corpus store does not \
                 retain; evaluate degraded runs from a traced corpus"
            ),
            // Clean stream: both sources produce bit-identical rows (a
            // store-backed matrix is a zero-copy view into the shard).
            (_, None) => source.features_of(program, spec),
        };
        let value = Arc::new(projected);
        let mut shard = self.shard(&key).lock().expect("cache mutex poisoned");
        Arc::clone(shard.entry(key).or_insert(value))
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache mutex poisoned").len())
                .sum(),
        }
    }

    /// Drops every entry (statistics keep accumulating).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache mutex poisoned").clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus evaluator
// ---------------------------------------------------------------------------

/// Sensitivity / specificity / abstention over a degraded (fault-injected)
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegradedQuality {
    /// Fraction of decided malware programs flagged.
    pub sensitivity: f64,
    /// Fraction of decided benign programs passed.
    pub specificity: f64,
    /// Fraction of programs abstained on.
    pub abstain_rate: f64,
}

/// Configures and builds an [`Evaluator`].
///
/// Obtained from [`Evaluator::builder`]; every knob has a sensible default
/// (single-threaded pool, 16 cache shards, no fault model, no watchdog, no
/// checkpoint, metrics off), so callers name only what they deviate on:
///
/// ```
/// use rhmd_bench::par::Evaluator;
/// # fn doc(traced: &rhmd_data::TracedCorpus) {
/// let engine = Evaluator::builder(traced, 0xabc).threads(4).build();
/// # }
/// ```
pub struct EvaluatorBuilder<'a> {
    source: EvalSource<'a>,
    run_seed: u64,
    pool: Pool,
    cache_shards: usize,
    fault: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    recorder: Arc<dyn Recorder>,
    checkpoint: Option<Journal>,
}

impl<'a> EvaluatorBuilder<'a> {
    /// Sets the worker count (equivalent to `.pool(Pool::new(threads))`).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// Uses an explicit [`Pool`] (e.g. [`Pool::available`]).
    #[must_use]
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Lock-stripes the feature cache into `shards` slices (default 16).
    #[must_use]
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Attaches a counter fault model; [`Evaluator::fault_config`] hands it
    /// back to evaluation loops that inject degradation.
    #[must_use]
    pub fn fault(mut self, config: FaultConfig) -> Self {
        self.fault = Some(config);
        self
    }

    /// Supervises every evaluation loop with a per-unit deadline watchdog;
    /// stuck/lost units are flagged, requeued deterministically, and
    /// accumulated into [`Evaluator::run_report`]. Results stay
    /// bit-identical to an unsupervised run — the watchdog only recovers
    /// lost work, it never alters values.
    #[must_use]
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Attaches a metrics [`Recorder`]. An enabled recorder switches the
    /// global metrics registry on at [`EvaluatorBuilder::build`] time;
    /// [`Evaluator::export_metrics`] then snapshots and exports through it.
    /// The default [`NoopRecorder`] leaves metrics off (and every
    /// instrumentation site on its near-zero disabled path).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a checkpoint [`Journal`]; [`Evaluator::unit`] then skips
    /// work units the journal already holds and records fresh ones.
    #[must_use]
    pub fn checkpoint(mut self, journal: Journal) -> Self {
        self.checkpoint = Some(journal);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Evaluator<'a> {
        if self.recorder.is_enabled() {
            obs::set_enabled(true);
        }
        obs::set_gauge("pool.threads", self.pool.threads() as f64);
        Evaluator {
            source: self.source,
            pool: self.pool,
            cache: FeatureCache::with_shards(self.cache_shards),
            run_seed: self.run_seed,
            fault: self.fault,
            watchdog: self.watchdog,
            recorder: self.recorder,
            checkpoint: self.checkpoint.map(Mutex::new),
            report: Mutex::new(RunReport::default()),
        }
    }
}

/// The parallel corpus-evaluation engine: a [`Pool`], a [`FeatureCache`],
/// and a run seed from which every per-program seed is derived — plus the
/// optional run services every experiment shares (fault model, watchdog,
/// metrics recorder, checkpoint journal), all configured through
/// [`Evaluator::builder`].
///
/// Every loop is bit-exact with its serial counterpart at any thread count;
/// the equivalence suite (`tests/equivalence.rs`) enforces this for thread
/// counts {1, 2, 8} across seeds and fault configs.
pub struct Evaluator<'a> {
    source: EvalSource<'a>,
    pool: Pool,
    cache: FeatureCache,
    run_seed: u64,
    fault: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    recorder: Arc<dyn Recorder>,
    checkpoint: Option<Mutex<Journal>>,
    report: Mutex<RunReport>,
}

impl fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("pool", &self.pool)
            .field("run_seed", &self.run_seed)
            .field("fault", &self.fault)
            .field("watchdog", &self.watchdog)
            .field("checkpointed", &self.checkpoint.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> Evaluator<'a> {
    /// Starts configuring an engine over `traced` with the given run seed.
    pub fn builder(traced: &'a TracedCorpus, run_seed: u64) -> EvaluatorBuilder<'a> {
        Evaluator::builder_from_source(EvalSource::Traced(traced), run_seed)
    }

    /// Starts configuring an engine over an opened corpus store: feature
    /// rows come back as zero-copy views over the mapped shards, and every
    /// clean-stream loop ([`Evaluator::vectors`],
    /// [`Evaluator::window_dataset`], [`Evaluator::quality_hmd`]) produces
    /// bit-identical results to a traced-corpus engine over the same
    /// underlying corpus. Subwindow-dependent loops
    /// ([`Evaluator::quality_rhmd`], [`Evaluator::degraded_quality`],
    /// [`Evaluator::vectors_faulted`]) need raw traces and panic in store
    /// mode.
    pub fn builder_from_store(store: &'a CorpusStore, run_seed: u64) -> EvaluatorBuilder<'a> {
        Evaluator::builder_from_source(EvalSource::Store(store), run_seed)
    }

    /// Starts configuring an engine over any [`EvalSource`].
    pub fn builder_from_source(
        source: EvalSource<'a>,
        run_seed: u64,
    ) -> EvaluatorBuilder<'a> {
        EvaluatorBuilder {
            source,
            run_seed,
            pool: Pool::new(1),
            cache_shards: SHARDS,
            fault: None,
            watchdog: None,
            recorder: Arc::new(NoopRecorder),
            checkpoint: None,
        }
    }

    /// The accumulated degraded-run report across every supervised loop run
    /// so far (empty and non-degraded when no watchdog is configured).
    pub fn run_report(&self) -> RunReport {
        self.report.lock().expect("report mutex poisoned").clone()
    }

    /// The fault model attached at build time, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// The attached metrics recorder ([`NoopRecorder`] by default).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Snapshots the global metrics registry and exports it through the
    /// attached recorder. A no-op (returning `Ok`) under [`NoopRecorder`].
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the recorder cannot write its output.
    pub fn export_metrics(&self) -> Result<(), RhmdError> {
        if !self.recorder.is_enabled() {
            return Ok(());
        }
        self.recorder.export(&obs::snapshot()).map_err(|e| {
            RhmdError::io("metrics export".to_owned(), e.to_string())
        })
    }

    /// Runs (or skips) one checkpointed work unit: with a journal attached,
    /// already-recorded keys return their journaled value (`cached = true`)
    /// and fresh ones are computed and recorded; without one, `compute`
    /// simply runs (`cached = false`).
    ///
    /// # Errors
    ///
    /// See [`Journal::unit`].
    pub fn unit<T: serde::Serialize + serde::Deserialize>(
        &self,
        key: &str,
        compute: impl FnOnce() -> T,
    ) -> Result<(T, bool), RhmdError> {
        match &self.checkpoint {
            None => Ok((compute(), false)),
            Some(journal) => journal
                .lock()
                .expect("journal mutex poisoned")
                .unit(key, compute),
        }
    }

    /// The attached checkpoint directory, if any.
    pub fn checkpoint_dir(&self) -> Option<std::path::PathBuf> {
        self.checkpoint.as_ref().map(|journal| {
            journal.lock().expect("journal mutex poisoned").dir().to_path_buf()
        })
    }

    /// Forces pending checkpoint records to disk (no-op without a journal).
    ///
    /// # Errors
    ///
    /// See [`Journal::sync`].
    pub fn sync_checkpoint(&self) -> Result<(), RhmdError> {
        match &self.checkpoint {
            None => Ok(()),
            Some(journal) => journal.lock().expect("journal mutex poisoned").sync(),
        }
    }

    /// Completed units replayed from the checkpoint at open time (0 without
    /// a journal).
    pub fn resumed_units(&self) -> usize {
        self.checkpoint.as_ref().map_or(0, |journal| {
            journal.lock().expect("journal mutex poisoned").resumed_units()
        })
    }

    /// Dispatches a map through the watchdog when one is configured.
    ///
    /// A unit failing twice is deterministic (pool closures are pure), so
    /// it aborts the run via panic with the typed error's message — the
    /// same observable behavior `Pool::map` has for any worker panic, minus
    /// the recoverable cases the watchdog absorbs.
    fn run_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.watchdog {
            None => self.pool.map(items, f),
            Some(config) => {
                let (out, report) = self
                    .pool
                    .map_watchdog(items, &config, f)
                    .unwrap_or_else(|e| panic!("{e}"));
                self.report
                    .lock()
                    .expect("report mutex poisoned")
                    .merge(&report);
                out
            }
        }
    }

    /// The corpus source under evaluation.
    pub fn source(&self) -> EvalSource<'a> {
        self.source
    }

    /// The traced corpus under evaluation.
    ///
    /// # Panics
    ///
    /// In store-backed mode (see [`Evaluator::builder_from_store`]): raw
    /// traces are not retained on disk. Callers that need subwindows must
    /// run from a traced corpus.
    pub fn traced(&self) -> &TracedCorpus {
        match self.source {
            EvalSource::Traced(t) => t,
            EvalSource::Store(s) => panic!(
                "this evaluation needs raw subwindows, which the corpus store at {} \
                 does not retain; rerun from live generation",
                s.dir().display()
            ),
        }
    }

    /// The worker pool.
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// The feature-vector cache.
    pub fn cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// The run seed.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// The derived seed of program `index` — stable across runs, thread
    /// counts, and evaluation order.
    pub fn program_seed(&self, index: usize) -> u64 {
        derive_seed(self.run_seed, index as u64)
    }

    /// Runs `f` over the given program indices on the pool; results come
    /// back in `indices` order. `f` receives `(program index, derived
    /// program seed)`.
    pub fn map_programs<R, F>(&self, indices: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        self.run_map(indices, |_, &i| f(i, self.program_seed(i)))
    }

    /// Cached projected feature matrix of one program (clean stream) —
    /// from the traced corpus or, in store mode, a zero-copy shard view.
    pub fn vectors(&self, program: usize, spec: &FeatureSpec) -> Arc<FeatureMatrix> {
        self.cache.vectors_source(&self.source, program, spec, None)
    }

    /// Cached projected feature matrix of one program through a fault model
    /// seeded with the program's derived seed.
    ///
    /// # Panics
    ///
    /// In store-backed mode — see [`Evaluator::traced`].
    pub fn vectors_faulted(
        &self,
        program: usize,
        spec: &FeatureSpec,
        config: &FaultConfig,
    ) -> Arc<FeatureMatrix> {
        self.cache
            .vectors(self.traced(), program, spec, Some((config, self.program_seed(program))))
    }

    /// Window-level dataset over `indices` — the parallel, cached
    /// equivalent of [`TracedCorpus::window_dataset`]: projections fan out
    /// over the pool (or come from the cache), assembly is sequential in
    /// `indices` order, so rows are bit-identical to the serial path.
    pub fn window_dataset(&self, indices: &[usize], spec: &FeatureSpec) -> Dataset {
        let labels = self.source.labels();
        let per_program = self.run_map(indices, |_, &i| self.vectors(i, spec));
        let mut data = Dataset::new(spec.dims());
        data.reserve_rows(per_program.iter().map(|m| m.len()).sum());
        for (&i, matrix) in indices.iter().zip(&per_program) {
            data.extend_from_flat(matrix.as_slice(), labels[i]);
        }
        data
    }

    /// Program-level detection quality of a deterministic [`Hmd`] over
    /// `indices`, evaluated on the pool. Matches
    /// [`rhmd_core::retrain::detection_quality`] exactly — an `Hmd` holds no
    /// evaluation state, so order cannot matter. Window projections come
    /// from the cache ([`Hmd::decide_windows`] is precisely "predict each
    /// row of the projected matrix"), so detectors sharing a spec classify
    /// without re-projecting, and each program's windows score through one
    /// [`rhmd_ml::model::Classifier::score_batch`] sweep.
    pub fn quality_hmd(&self, hmd: &Hmd, indices: &[usize]) -> DetectionQuality {
        let threshold = hmd.model().threshold();
        let verdicts = self.run_map(indices, |_, &i| {
            let matrix = self.vectors(i, hmd.spec());
            let mut scores = vec![0.0; matrix.len()];
            hmd.model().score_batch(&matrix, &mut scores);
            let decisions: Vec<bool> = scores.into_iter().map(|s| s >= threshold).collect();
            rhmd_core::hmd::ProgramVerdict::from_decisions(&decisions).is_malware()
        });
        self.tally(indices, &verdicts)
    }

    /// Program-level detection quality of an RHMD pool over `indices`,
    /// using per-program switching streams seeded from the *detector's*
    /// construction seed mixed with each program id — order-independent by
    /// construction, unlike the shared-RNG serial walk.
    pub fn quality_rhmd(&self, rhmd: &ResilientHmd, indices: &[usize]) -> DetectionQuality {
        let traced = self.traced();
        let verdicts = self.run_map(indices, |_, &i| {
            let mut rng = StreamRng::from_seed(derive_seed(rhmd.seed(), i as u64));
            let stream = Detector::label_stream(rhmd, traced.subwindows(i), &mut rng);
            rhmd_core::hmd::ProgramVerdict::from_decisions(&stream).is_malware()
        });
        self.tally(indices, &verdicts)
    }

    fn tally(&self, indices: &[usize], verdicts: &[bool]) -> DetectionQuality {
        let labels = self.source.labels();
        let (mut tp, mut mal, mut tn, mut ben) = (0usize, 0usize, 0usize, 0usize);
        for (&i, &flagged) in indices.iter().zip(verdicts) {
            if labels[i] {
                mal += 1;
                if flagged {
                    tp += 1;
                }
            } else {
                ben += 1;
                if !flagged {
                    tn += 1;
                }
            }
        }
        DetectionQuality {
            sensitivity_unmodified: if mal == 0 { 0.0 } else { tp as f64 / mal as f64 },
            specificity: if ben == 0 { 0.0 } else { tn as f64 / ben as f64 },
        }
    }

    /// Degraded (fault-injected) program-level quality: `quorum_of`
    /// receives each program's index and its fault-corrupted subwindows and
    /// returns a quorum verdict; `policy` then decides or abstains at
    /// `min_coverage`. `seed_of` derives each program's fault seed —
    /// callers preserving historical sweeps pass their legacy derivation,
    /// new callers pass [`Evaluator::program_seed`].
    pub fn degraded_quality<Q, S>(
        &self,
        indices: &[usize],
        config: FaultConfig,
        policy: &VerdictPolicy,
        min_coverage: f64,
        seed_of: S,
        quorum_of: Q,
    ) -> DegradedQuality
    where
        Q: Fn(usize, &[RawWindow]) -> QuorumVerdict + Sync,
        S: Fn(usize) -> u64 + Sync,
    {
        let traced = self.traced();
        let labels = self.source.labels();
        let judged: Vec<DegradedVerdict> = self.run_map(indices, |_, &i| {
            let model = FaultModel::new(config, seed_of(i));
            let subs = apply_faults(traced.subwindows(i), &model);
            policy.judge_quorum(&quorum_of(i, &subs), min_coverage)
        });
        let (mut tp, mut malware, mut tn, mut benign, mut abstained) =
            (0u32, 0u32, 0u32, 0u32, 0u32);
        for (&i, verdict) in indices.iter().zip(&judged) {
            match verdict {
                DegradedVerdict::Abstained => abstained += 1,
                DegradedVerdict::Decided(flag) => {
                    if labels[i] {
                        malware += 1;
                        tp += u32::from(*flag);
                    } else {
                        benign += 1;
                        tn += u32::from(!*flag);
                    }
                }
            }
        }
        DegradedQuality {
            sensitivity: f64::from(tp) / f64::from(malware.max(1)),
            specificity: f64::from(tn) / f64::from(benign.max(1)),
            abstain_rate: f64::from(abstained) / indices.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig};
    use rhmd_features::vector::FeatureKind;
    use rhmd_uarch::CoreConfig;

    fn traced() -> TracedCorpus {
        let cfg = CorpusConfig::tiny();
        TracedCorpus::trace(Corpus::build(&cfg), cfg.limits(), CoreConfig::default())
    }

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
        assert_eq!(Pool::new(8).map::<u8, u8, _>(&[], |_, &x| x), Vec::<u8>::new());
        assert_eq!(Pool::new(8).map(&[3u8], |_, &x| x + 1), vec![4]);
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn steal_rebalances_skewed_work() {
        // Front-loaded cost: worker 0's static block is ~100x the others'.
        // The test only asserts correctness — order preserved despite
        // stealing — since wall-clock is not observable deterministically.
        let items: Vec<u64> = (0..64).collect();
        let out = Pool::new(4).map(&items, |i, &x| {
            if i < 16 {
                // Busy work standing in for an expensive item.
                (0..20_000u64).fold(x, |a, b| a ^ b.wrapping_mul(31))
            } else {
                x
            }
        });
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if i < 16 {
                    (0..20_000u64).fold(x, |a, b| a ^ b.wrapping_mul(31))
                } else {
                    x
                }
            })
            .collect();
        assert_eq!(out, serial);
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
        use std::sync::atomic::AtomicBool;
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
        assert_eq!(report.requeued, vec![5, 17], "requeue order must be ascending");
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
        assert!(msg.contains("work unit 3") && msg.contains("twice"), "{msg}");
    }

    #[test]
    fn watchdog_flags_overdue_units() {
        let items = vec![0u8, 1];
        let (out, report) = Pool::new(2)
            .map_watchdog(
                &items,
                &WatchdogConfig::new(std::time::Duration::from_millis(5)),
                |i, &x| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(120));
                    }
                    x + 1
                },
            )
            .unwrap();
        assert_eq!(out, vec![1, 2], "slow units still complete correctly");
        assert!(report.overdue.contains(&0), "{report:?}");
        assert!(report.requeued.is_empty(), "completed units are not requeued");
    }

    #[test]
    fn evaluator_watchdog_keeps_results_and_accumulates_report() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let indices: Vec<usize> = (0..t.corpus().len()).collect();
        let plain = Evaluator::builder(&t, 0xabc).threads(4).build();
        let supervised = Evaluator::builder(&t, 0xabc)
            .threads(4)
            .watchdog(WatchdogConfig::default())
            .build();
        let a = plain.window_dataset(&indices, &spec);
        let b = supervised.window_dataset(&indices, &spec);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.labels(), b.labels());
        let report = supervised.run_report();
        assert_eq!(report.items, indices.len() as u64);
        assert!(!report.degraded());
        assert!(!plain.run_report().degraded());
    }

    #[test]
    fn cache_hits_return_identical_vectors() {
        let t = traced();
        let cache = FeatureCache::new();
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let first = cache.vectors(&t, 0, &spec, None);
        let again = cache.vectors(&t, 0, &spec, None);
        assert!(Arc::ptr_eq(&first, &again), "second lookup must hit");
        let direct = rhmd_features::pipeline::project_windows(t.subwindows(0), &spec);
        assert_eq!(first.len(), direct.len());
        assert!(first.iter().eq(direct.iter().map(|v| v.as_slice())));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_keys_separate_fault_configs_and_seeds() {
        let t = traced();
        let cache = FeatureCache::new();
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let clean = cache.vectors(&t, 0, &spec, None);
        let noisy = cache.vectors(&t, 0, &spec, Some((&FaultConfig::noise(0.2), 7)));
        let noisy_other_seed = cache.vectors(&t, 0, &spec, Some((&FaultConfig::noise(0.2), 8)));
        assert_ne!(*clean, *noisy);
        assert_ne!(*noisy, *noisy_other_seed);
        assert_eq!(cache.stats().entries, 3);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn evaluator_dataset_matches_traced_corpus() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let indices: Vec<usize> = (0..t.corpus().len()).step_by(3).collect();
        let serial = t.window_dataset(&indices, &spec);
        for threads in [1, 4] {
            let eval = Evaluator::builder(&t, 0xabc).threads(threads).build();
            let par = eval.window_dataset(&indices, &spec);
            assert_eq!(par.len(), serial.len());
            assert_eq!(par.rows(), serial.rows(), "threads={threads}");
            assert_eq!(par.labels(), serial.labels());
        }
    }

    #[test]
    fn program_seeds_are_order_free_and_distinct() {
        let t = traced();
        let eval = Evaluator::builder(&t, 99).threads(2).build();
        let a: Vec<u64> = (0..10).map(|i| eval.program_seed(i)).collect();
        let b: Vec<u64> = (0..10).rev().map(|i| eval.program_seed(i)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }
}
