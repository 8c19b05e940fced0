//! `rhmd_obs` — a dependency-free observability layer for the RHMD pipeline.
//!
//! Every stage of the pipeline (tracing, feature extraction, training,
//! quorum verdicts, the parallel evaluator, checkpointing, durable I/O,
//! fault injection) reports into one process-wide [`MetricsRegistry`]:
//! monotonic **counters**, last-write-wins **gauges**, and fixed-bucket
//! log2-nanosecond latency **histograms** fed by scoped [`Span`] timers.
//!
//! Metrics are **disabled by default**. Every recording entry point starts
//! with a single relaxed atomic load of the global enable flag and returns
//! immediately when it is off, so an uninstrumented run pays one predicted
//! branch per call site — the `bench_par` binary measures and gates this
//! disabled-path overhead. Turning metrics on cannot change any result:
//! nothing in the registry feeds back into computation, and all updates are
//! commutative atomics, so totals are identical at any thread count.
//!
//! # Examples
//!
//! ```
//! rhmd_obs::set_enabled(true);
//! rhmd_obs::add("doc.items", 3);
//! {
//!     let _span = rhmd_obs::span("doc.work");
//! } // drop records the elapsed time under "doc.work"
//! let snap = rhmd_obs::snapshot();
//! assert_eq!(snap.counters["doc.items"], 3);
//! assert_eq!(snap.histograms["doc.work"].count, 1);
//! rhmd_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log2-nanosecond histogram buckets. Bucket `0` holds zero
/// durations; bucket `i > 0` holds durations in `[2^(i-1), 2^i)` ns. The
/// last bucket absorbs everything from ~9 minutes (`2^39` ns) up.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Schema version stamped into every exported snapshot.
pub const SCHEMA_VERSION: u32 = 1;

const SHARDS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global metrics recording on or off. Off is the default; when off,
/// every recording call is a load-and-branch no-op.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global metrics recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A map of named metrics split over independently locked shards, so
/// concurrent registration from pool workers rarely contends. The values
/// themselves are atomics behind `Arc`s: once a caller holds a handle, hot
/// updates never take a lock at all.
#[derive(Debug)]
struct ShardedMap<T> {
    shards: Vec<Mutex<HashMap<String, Arc<T>>>>,
}

impl<T> ShardedMap<T> {
    fn new() -> ShardedMap<T> {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Arc<T>>> {
        &self.shards[(fnv1a(name.as_bytes()) as usize) % SHARDS]
    }

    fn get_or(&self, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
        let mut shard = self.shard(name).lock().expect("metrics shard poisoned");
        if let Some(v) = shard.get(name) {
            return Arc::clone(v);
        }
        let v = Arc::new(make());
        shard.insert(name.to_owned(), Arc::clone(&v));
        v
    }

    fn collect(&self) -> BTreeMap<String, Arc<T>> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (k, v) in shard.iter() {
                out.insert(k.clone(), Arc::clone(v));
            }
        }
        out
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("metrics shard poisoned").clear();
        }
    }
}

/// A fixed-bucket log2-nanosecond latency histogram. All fields update with
/// relaxed atomics, so `count` always equals the sum of `buckets` in any
/// quiescent snapshot — the exported JSON is validated against exactly that
/// invariant in CI.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a duration: 0 for zero, else `64 - leading_zeros`,
    /// clamped into the fixed range.
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Histogram::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// The process-wide metrics store: sharded counters, gauges, and
/// histograms, all addressed by dotted string names (`"cache.hits"`).
///
/// Use the free functions ([`add`], [`set_gauge`], [`span`]) for
/// enable-gated recording; use the registry directly (via [`global`]) to
/// cache an [`Arc`] handle for a hot loop or to build a private registry in
/// tests.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: ShardedMap<AtomicU64>,
    gauges: ShardedMap<AtomicU64>,
    histograms: ShardedMap<Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry. The process normally uses the [`global`] one.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: ShardedMap::new(),
            gauges: ShardedMap::new(),
            histograms: ShardedMap::new(),
        }
    }

    /// Returns (registering if needed) the counter `name`. The handle can
    /// be cached: updates through it are lock-free.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        self.counters.get_or(name, || AtomicU64::new(0))
    }

    /// Returns (registering if needed) the gauge `name`. Gauges store
    /// `f64::to_bits`.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        self.gauges.get_or(name, || AtomicU64::new(0f64.to_bits()))
    }

    /// Returns (registering if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histograms.get_or(name, Histogram::new)
    }

    /// Registers every name with a zero value, so exported snapshots carry
    /// the full documented key set even when nothing incremented them.
    pub fn preregister(&self, counters: &[&str], gauges: &[&str], histograms: &[&str]) {
        for name in counters {
            self.counter(name);
        }
        for name in gauges {
            self.gauge(name);
        }
        for name in histograms {
            self.histogram(name);
        }
    }

    /// A point-in-time copy of every registered metric, with
    /// deterministically (lexicographically) ordered keys.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .collect()
                .into_iter()
                .map(|(k, v)| (k, v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .collect()
                .into_iter()
                .map(|(k, v)| (k, f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .histograms
                .collect()
                .into_iter()
                .map(|(k, v)| (k, v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered metric. Meant for tests.
    pub fn clear(&self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

/// The process-wide registry all instrumentation reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Adds `n` to counter `name`; no-op when metrics are disabled.
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        global().counter(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to counter `name`; no-op when metrics are disabled.
#[inline]
pub fn incr(name: &str) {
    add(name, 1);
}

/// Sets gauge `name` to `value`; no-op when metrics are disabled.
#[inline]
pub fn set_gauge(name: &str, value: f64) {
    if enabled() {
        global()
            .gauge(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Records `ns` into histogram `name`; no-op when metrics are disabled.
#[inline]
pub fn observe_ns(name: &str, ns: u64) {
    if enabled() {
        global().histogram(name).record_ns(ns);
    }
}

/// Builds a labeled metric name `base.label`, sanitizing `label` so
/// caller-supplied strings (tenant names, file paths) cannot inject metric
/// namespace separators or unbounded cardinality: every character outside
/// `[A-Za-z0-9_-]` maps to `_`, the label is truncated to 48 characters,
/// and an empty label becomes `_`.
///
/// This is how the serving layer gets per-tenant counters
/// (`serve.tenant.<tenant>.decided`) without trusting the wire.
pub fn labeled(base: &str, label: &str) -> String {
    let mut out = String::with_capacity(base.len() + 1 + label.len().min(48));
    out.push_str(base);
    out.push('.');
    let mut wrote = false;
    for c in label.chars().take(48) {
        out.push(if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            c
        } else {
            '_'
        });
        wrote = true;
    }
    if !wrote {
        out.push('_');
    }
    out
}

/// Registers the given names with zero values in the global registry (see
/// [`MetricsRegistry::preregister`]). Unlike the recording functions this
/// is *not* gated on [`enabled`]: callers preregister exactly when they
/// intend to export.
pub fn preregister(counters: &[&str], gauges: &[&str], histograms: &[&str]) {
    global().preregister(counters, gauges, histograms);
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry. Meant for tests.
pub fn reset() {
    global().clear();
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A scoped timer: created by [`span`], it pushes its name onto a
/// thread-local stack and, on drop, pops it and records the elapsed
/// nanoseconds into the histogram of the same name. When metrics are
/// disabled the span holds no start time and drop does nothing.
#[derive(Debug)]
#[must_use = "a span records its timing when dropped; binding it to _ drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            global().histogram(self.name).record_ns(ns);
        }
    }
}

/// Opens a scoped timer named `name`. Spans nest: the thread-local stack
/// tracks the chain of open spans (inspect it with [`span_depth`]), and
/// each span records its own wall-clock duration on drop.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        name,
        start: Some(Instant::now()),
    }
}

/// Number of spans currently open on this thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Point-in-time values of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded samples; always equals the sum of `buckets`.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Fixed log2-ns buckets (length [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of a registry, with deterministic key order —
/// renderable as JSON ([`Snapshot::to_json`]) or a text table
/// ([`Snapshot::summary_table`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{:?}` always keeps a decimal point or exponent, so the output
        // round-trips as a JSON number ("4.0", not "4" → still fine either
        // way, but unambiguous).
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

impl Snapshot {
    /// Renders the snapshot as a self-contained JSON document:
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "counters": {"cache.hits": 5},
    ///   "gauges": {"pool.threads": 4.0},
    ///   "histograms": {"ml.train": {"count": 2, "sum_ns": 81920, "buckets": [0, ...]}}
    /// }
    /// ```
    ///
    /// Hand-rendered (the vendored `serde_json` has no `json!` macro and
    /// this crate is dependency-free); keys are sorted, so equal snapshots
    /// produce byte-equal documents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema_version\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        out.push_str(",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_json(k, &mut out);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_json(k, &mut out);
            out.push_str(": ");
            json_f64(*v, &mut out);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_json(k, &mut out);
            let _ = write!(out, ": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [", h.count, h.sum_ns);
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a fixed-width text table (for `--metrics-summary` on
    /// stderr): counters and gauges one per line, histograms with sample
    /// count and mean latency.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(out, "{:-^w$}", " metrics ", w = width + 26);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<w$}  {v:>12}", w = width);
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:<w$}  {v:>12.2}", w = width);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<w$}  {:>12}  {:>10}",
                "-- histogram --",
                "samples",
                "mean",
                w = width
            );
            for (k, h) in &self.histograms {
                let mean_us = h.mean_ns() / 1_000.0;
                let _ = writeln!(
                    out,
                    "{k:<w$}  {:>12}  {mean_us:>8.1}us",
                    h.count,
                    w = width
                );
            }
        }
        out
    }
}

/// Where a finished run delivers its metrics snapshot.
///
/// [`NoopRecorder`] is the disabled default: it reports
/// [`Recorder::is_enabled`]` == false`, so pipeline stages skip even
/// snapshotting. [`JsonRecorder`] renders [`Snapshot::to_json`] to a file;
/// the bench/CLI layers construct it with a durable atomic writer
/// (`rhmd_runtime::durable`) injected via [`JsonRecorder::with_writer`].
pub trait Recorder: Send + Sync {
    /// Whether recording is live. Callers use this to decide whether to
    /// flip the global [`set_enabled`] switch.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Delivers a finished snapshot.
    fn export(&self, snapshot: &Snapshot) -> std::io::Result<()>;
}

impl std::fmt::Debug for dyn Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recorder")
    }
}

/// The zero-cost disabled recorder: never enables metrics, exports nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }

    fn export(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        Ok(())
    }
}

type WriterFn = dyn Fn(&Path, &[u8]) -> std::io::Result<()> + Send + Sync;

/// Exports snapshots as JSON to a file. The default writer does a
/// same-directory temp-file-and-rename; callers that want fsynced,
/// fault-retried durability inject one with [`JsonRecorder::with_writer`].
pub struct JsonRecorder {
    path: PathBuf,
    writer: Box<WriterFn>,
}

impl std::fmt::Debug for JsonRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonRecorder").field("path", &self.path).finish()
    }
}

impl JsonRecorder {
    /// A recorder writing to `path` with the default (rename-atomic,
    /// not fsynced) writer.
    pub fn new(path: impl Into<PathBuf>) -> JsonRecorder {
        JsonRecorder::with_writer(path, |path, bytes| {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, path)
        })
    }

    /// A recorder writing to `path` through a caller-supplied atomic
    /// writer (dependency inversion: `rhmd_runtime::durable` supplies its
    /// fault-retried `write_atomic` here without this crate depending on
    /// it).
    pub fn with_writer(
        path: impl Into<PathBuf>,
        writer: impl Fn(&Path, &[u8]) -> std::io::Result<()> + Send + Sync + 'static,
    ) -> JsonRecorder {
        JsonRecorder {
            path: path.into(),
            writer: Box::new(writer),
        }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Recorder for JsonRecorder {
    fn export(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        (self.writer)(&self.path, snapshot.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the global enable flag and registry, so anything that
    /// touches them serializes here.
    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        let out = f();
        reset();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        with_global(|| {
            add("t.counter", 5);
            set_gauge("t.gauge", 1.5);
            observe_ns("t.hist", 10);
            let _span = span("t.span");
            drop(_span);
            let snap = snapshot();
            assert!(snap.counters.is_empty());
            assert!(snap.gauges.is_empty());
            assert!(snap.histograms.is_empty());
        });
    }

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        with_global(|| {
            set_enabled(true);
            add("t.counter", 2);
            incr("t.counter");
            set_gauge("t.gauge", 4.25);
            observe_ns("t.hist", 1024);
            observe_ns("t.hist", 0);
            let snap = snapshot();
            assert_eq!(snap.counters["t.counter"], 3);
            assert_eq!(snap.gauges["t.gauge"], 4.25);
            let h = &snap.histograms["t.hist"];
            assert_eq!(h.count, 2);
            assert_eq!(h.sum_ns, 1024);
            assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        });
    }

    #[test]
    fn histogram_bucket_sum_always_equals_count() {
        let h = Histogram::new();
        for ns in [0, 1, 2, 3, 1_000, 1_000_000, u64::MAX] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        // u64::MAX lands in the final catch-all bucket.
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn spans_nest_on_the_thread_local_stack() {
        with_global(|| {
            set_enabled(true);
            assert_eq!(span_depth(), 0);
            {
                let _outer = span("t.outer");
                assert_eq!(span_depth(), 1);
                {
                    let _inner = span("t.inner");
                    assert_eq!(span_depth(), 2);
                }
                assert_eq!(span_depth(), 1);
            }
            assert_eq!(span_depth(), 0);
            let snap = snapshot();
            assert_eq!(snap.histograms["t.outer"].count, 1);
            assert_eq!(snap.histograms["t.inner"].count, 1);
        });
    }

    #[test]
    fn preregistered_keys_appear_with_zero_values() {
        with_global(|| {
            preregister(&["t.zero"], &["t.gz"], &["t.hz"]);
            let snap = snapshot();
            assert_eq!(snap.counters["t.zero"], 0);
            assert_eq!(snap.gauges["t.gz"], 0.0);
            assert_eq!(snap.histograms["t.hz"].count, 0);
        });
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.two".into(), 2);
        snap.counters.insert("a.one".into(), 1);
        snap.gauges.insert("g".into(), 4.0);
        snap.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum_ns: 7,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            },
        );
        let json = snap.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        // BTreeMap ordering: a.one before b.two.
        assert!(json.find("a.one").unwrap() < json.find("b.two").unwrap());
        assert_eq!(json, snap.clone().to_json());
        assert!(json.contains("\"g\": 4.0"));
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_recorder_writes_the_snapshot() {
        let dir = std::env::temp_dir().join(format!("rhmd-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let recorder = JsonRecorder::new(&path);
        let mut snap = Snapshot::default();
        snap.counters.insert("x".into(), 9);
        recorder.export(&snap).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 9"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        assert!(!NoopRecorder.is_enabled());
        assert!(NoopRecorder.export(&Snapshot::default()).is_ok());
    }

    #[test]
    fn labeled_sanitizes_untrusted_labels() {
        assert_eq!(labeled("serve.tenant", "acme-01"), "serve.tenant.acme-01");
        assert_eq!(labeled("serve.tenant", "a.b/c d"), "serve.tenant.a_b_c_d");
        assert_eq!(labeled("serve.tenant", ""), "serve.tenant._");
        let long = "x".repeat(200);
        assert_eq!(labeled("t", &long).len(), "t.".len() + 48);
    }

    #[test]
    fn summary_table_lists_every_metric() {
        let mut snap = Snapshot::default();
        snap.counters.insert("cache.hits".into(), 12);
        snap.histograms.insert(
            "ml.train".into(),
            HistogramSnapshot {
                count: 2,
                sum_ns: 4_000,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            },
        );
        let table = snap.summary_table();
        assert!(table.contains("cache.hits"));
        assert!(table.contains("ml.train"));
        assert!(table.contains("12"));
    }
}
