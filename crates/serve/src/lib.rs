//! `rhmd-serve`: a resident detection service over the RHMD pipeline.
//!
//! The batch pipeline answers "is this corpus malware?" offline; this crate
//! answers it *online*: many concurrent program sessions stream
//! committed-event subwindows over a line protocol ([`proto`]), a sharded
//! engine ([`engine`]) assembles them into collection windows per session
//! ([`session`]), micro-batches the feature rows per tenant ([`batch`]),
//! scores them through the same `Classifier::score_batch` hot path the
//! batch evaluator uses, and emits exactly one verdict per session.
//!
//! The robustness contract, in order of importance:
//!
//! 1. **No silent drops.** Every offered session reaches exactly one
//!    terminal state — decided, abstained, shed, or quarantined — and the
//!    accounting identity
//!    `offered == decided + abstained + shed + quarantined` is checkable
//!    at any moment via the `stats` message.
//! 2. **Explicit backpressure.** Shard queues are bounded ([`queue`]); past
//!    the high watermark new work is refused and the affected sessions
//!    degrade to an explicit `abstain`/`shed` verdict instead of queueing
//!    without bound. Hysteresis (recover at the low watermark) prevents
//!    flapping.
//! 3. **Bit-identical replay.** With strict assembly (`min_fill = 1.0`) and
//!    no overload, replaying a corpus through the service yields the same
//!    per-program verdicts as `rhmd evaluate`, at any shard count — and
//!    wire-level chaos ([`chaos`]) must not change any non-quarantined
//!    session's verdict.
//! 4. **Blast-radius isolation.** A poison session — one whose windows
//!    panic the scorer or yield non-finite scores — is bisected out of its
//!    micro-batch, quarantined with an explicit `abstain`/`quarantine`
//!    verdict, and never takes down the batch, the shard, or the daemon.
//! 5. **Supervised recovery.** A dead shard worker is restarted from
//!    incremental session snapshots under a bounded restart budget with
//!    deterministic exponential backoff; an exhausted budget fails fast
//!    (every stored session gets an `abstain`/`shard-down` verdict and the
//!    engine flags itself failed) instead of limping silently.
//! 6. **Graceful degradation everywhere else.** Session, tenant, and
//!    per-request client deadlines turn stalls into abstentions; hot
//!    reload swaps the model atomically and rejects config-hash mismatches
//!    while continuing to serve the old model; drain finishes in-flight
//!    work before exiting.

#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod engine;
pub mod proto;
pub mod queue;
pub mod server;
pub mod session;

use crate::queue::Watermarks;
use rhmd_core::RhmdError;
use std::time::Duration;

/// Tunables for the resident service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard worker threads (each owns a disjoint set of sessions).
    pub shards: usize,
    /// Watermarks for each shard's ingest queue.
    pub queue: Watermarks,
    /// Watermarks for the verdict/output queue (offer is never used on it,
    /// only blocking pushes, so only `capacity` matters).
    pub output: Watermarks,
    /// Micro-batch size trigger (rows).
    pub batch_max: usize,
    /// Micro-batch deadline trigger, measured from a batch's first row.
    pub batch_deadline: Duration,
    /// Idle deadline after which a session is finalized as an abstention
    /// with reason `"deadline"`. `None` disables the session watchdog.
    pub session_deadline: Option<Duration>,
    /// Idle deadline after which *all* of a tenant's live sessions are
    /// finalized with reason `"tenant-deadline"`. `None` disables it.
    pub tenant_deadline: Option<Duration>,
    /// Gap-tolerance floor for window assembly (1.0 = strict, the
    /// bit-identical-replay setting).
    pub min_fill: f64,
    /// Coverage floor below which a session's verdict abstains with reason
    /// `"coverage"`. The floor is inclusive, as in
    /// `VerdictPolicy::judge_quorum`, but the majority past it is
    /// `QuorumVerdict::is_malware`'s: an exact tie convicts, where
    /// `judge_quorum` acquits it.
    pub min_coverage: f64,
    /// How often each shard worker syncs dirty sessions into its in-memory
    /// snapshot store (the recovery substrate for shard restarts).
    pub snapshot_every: Duration,
    /// How many times the supervisor may restart any single shard before
    /// declaring the engine failed. `0` disables supervision restarts
    /// (first death fails fast).
    pub restart_budget: u32,
    /// Base delay of the supervisor's deterministic exponential backoff:
    /// restart `n` of a shard waits `restart_backoff * 2^n`.
    pub restart_backoff: Duration,
    /// How long a socket connection may stall *mid-frame* before it is
    /// disconnected as a slow-loris client. Idle connections with no
    /// partial frame buffered are never disconnected by this.
    pub read_stall: Duration,
    /// Per-write timeout for socket consumers; a client too slow to accept
    /// its verdicts is disconnected rather than allowed to wedge the
    /// writer thread (verdict delivery is per-connection best-effort; the
    /// accounting counters are the durable record).
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue: Watermarks {
                capacity: 4096,
                high: 3072,
                low: 1024,
            },
            output: Watermarks {
                capacity: 4096,
                high: 4096,
                low: 0,
            },
            batch_max: 64,
            batch_deadline: Duration::from_millis(5),
            session_deadline: Some(Duration::from_secs(30)),
            tenant_deadline: Some(Duration::from_secs(120)),
            min_fill: 1.0,
            min_coverage: 0.0,
            snapshot_every: Duration::from_millis(25),
            restart_budget: 5,
            restart_backoff: Duration::from_millis(10),
            read_stall: Duration::from_secs(5),
            write_timeout: Duration::from_secs(2),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Config`] on nonsensical values (zero shards,
    /// inconsistent watermarks, out-of-range floors).
    pub fn validate(&self) -> Result<(), RhmdError> {
        if self.shards == 0 {
            return Err(RhmdError::config("serve: shards must be at least 1"));
        }
        self.queue
            .validate()
            .map_err(|e| RhmdError::config(format!("serve ingest queue: {e}")))?;
        self.output
            .validate()
            .map_err(|e| RhmdError::config(format!("serve output queue: {e}")))?;
        if self.batch_max == 0 {
            return Err(RhmdError::config("serve: batch-max must be at least 1"));
        }
        if !self.min_fill.is_finite() || !(0.0..=1.0).contains(&self.min_fill) {
            return Err(RhmdError::config(format!(
                "serve: min-fill must be in [0, 1], got {}",
                self.min_fill
            )));
        }
        if !self.min_coverage.is_finite() || !(0.0..=1.0).contains(&self.min_coverage) {
            return Err(RhmdError::config(format!(
                "serve: min-coverage must be in [0, 1], got {}",
                self.min_coverage
            )));
        }
        if self.snapshot_every.is_zero() {
            return Err(RhmdError::config(
                "serve: snapshot-every must be positive",
            ));
        }
        if self.restart_budget > 0 && self.restart_backoff.is_zero() {
            return Err(RhmdError::config(
                "serve: restart-backoff must be positive when restarts are budgeted",
            ));
        }
        if self.read_stall.is_zero() || self.write_timeout.is_zero() {
            return Err(RhmdError::config(
                "serve: read-stall and write-timeout must be positive",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let mut c = ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(c.validate(), Err(RhmdError::Config(_))));
        c.shards = 1;
        c.min_fill = 1.5;
        assert!(c.validate().is_err());
        c.min_fill = 1.0;
        c.queue.low = c.queue.capacity + 1;
        assert!(c.validate().is_err());
        c.queue.low = 0;
        c.snapshot_every = Duration::ZERO;
        assert!(c.validate().is_err());
        c.snapshot_every = Duration::from_millis(25);
        c.restart_backoff = Duration::ZERO;
        assert!(c.validate().is_err());
        c.restart_budget = 0;
        assert!(c.validate().is_ok(), "unbudgeted restarts need no backoff");
    }
}
