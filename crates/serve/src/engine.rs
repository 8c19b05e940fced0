//! The sharded serving engine: session routing, micro-batched scoring,
//! load-shedding, poison-pill quarantine, shard supervision, watchdogs,
//! hot reload, and drain.
//!
//! Sessions hash to one of `shards` worker threads; each worker owns its
//! sessions outright (no shared session state, no locks on the hot path)
//! and pulls from a bounded ingest queue. Admission control happens on the
//! *submitting* thread via [`BoundedQueue::offer`]: past the high
//! watermark the offer is refused, the session is marked shed, and a
//! capacity-exempt control message tells the owning worker to finalize it
//! as an explicit `abstain`/`shed` verdict — overload degrades loudly,
//! never silently.
//!
//! The engine, its supervisor and every worker hold one `Arc` of shared
//! state: the serving model, the output queue, the accounting counters,
//! the configuration, the fault plane and the shard handles. Every session
//! verdict leaves through one function on it, which bumps exactly one of
//! the four accounting terms and emits exactly one verdict line, so
//! `offered == decided + abstained + shed + quarantined` holds by
//! construction. The verdict rules themselves are `rhmd_core`'s:
//! [`Hmd::check_window`] decides whether a window votes, and
//! [`QuorumVerdict::lacks_coverage`] gates a session's verdict before its
//! majority (ties convict, [`QuorumVerdict::is_malware`]) decides it.
//!
//! Verdicts leave through a bounded output queue with *blocking* pushes:
//! a slow verdict consumer stalls the workers, the ingest queues fill, and
//! the admission path starts shedding — backpressure propagates end to end
//! with no unbounded buffer anywhere.
//!
//! Two failure boundaries sit between a hostile session and the daemon:
//!
//! * **Poison-pill quarantine.** Every micro-batch scores inside a
//!   [`std::panic::catch_unwind`] fence. A panicking or non-finite batch
//!   is bisected to isolate the offending rows; their sessions are
//!   finalized as `abstain`/`quarantine` (counted separately in the
//!   accounting identity) and tombstoned at the door, while every other
//!   session in the batch keeps its exact score — scoring is
//!   row-independent, so the bisection cannot perturb innocent verdicts.
//! * **Shard supervision.** Each worker syncs dirty sessions into an
//!   in-memory snapshot store (create, then every
//!   [`ServeConfig::snapshot_every`]); a supervisor thread detects worker
//!   death, restarts the shard with sessions restored from the store under
//!   a bounded restart budget with deterministic exponential backoff, and
//!   fails fast (explicit `abstain`/`shard-down` verdicts, engine flagged
//!   failed) when the budget is exhausted. The one unavoidable hole is the
//!   single message being processed at the instant of death; everything
//!   else is restored, and a [`Engine::kill_shard`] kill (which flushes
//!   and syncs before dying) recovers bit-identically.

use crate::batch::MicroBatcher;
use crate::chaos::EngineFaults;
use crate::proto::{Request, Response, StatsMsg, VerdictMsg};
use crate::queue::BoundedQueue;
use crate::session::{SessionKey, SessionState, Slot};
use crate::ServeConfig;
use rhmd_core::hmd::{Hmd, QuorumVerdict, WindowCheck};
use rhmd_core::RhmdError;
use rhmd_features::window::{CollectionWindow, RawWindow, Sealed};
use rhmd_ml::matrix::FeatureMatrix;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Broadcast connection id: the server fans these messages out to every
/// connected client (used for the final `drained` notice).
pub const BROADCAST_CONN: u64 = u64::MAX;

/// An immutable model snapshot served between reloads.
#[derive(Debug)]
pub struct ModelSnapshot {
    hmd: Hmd,
    config_hash: u64,
}

impl ModelSnapshot {
    /// Wraps a trained HMD with its feature-spec config hash.
    pub fn new(hmd: Hmd) -> ModelSnapshot {
        let config_hash = hmd.spec().stable_hash();
        ModelSnapshot { hmd, config_hash }
    }

    /// The detector being served.
    pub fn hmd(&self) -> &Hmd {
        &self.hmd
    }

    /// Stable hash of the feature spec (the reload compatibility key).
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }
}

/// An element of the engine's output stream.
#[derive(Debug)]
pub enum OutEvent {
    /// A protocol response routed to `conn` (or everyone, for
    /// [`BROADCAST_CONN`]).
    Response {
        /// Destination connection id.
        conn: u64,
        /// The response to deliver.
        response: Response,
    },
    /// No further output will follow; consumers should exit.
    Closed,
}

/// Atomic accounting counters (see [`StatsMsg`] for the identity they
/// maintain).
#[derive(Debug, Default)]
pub struct Counts {
    offered_sessions: AtomicU64,
    decided: AtomicU64,
    abstained: AtomicU64,
    shed_sessions: AtomicU64,
    quarantined: AtomicU64,
    offered_events: AtomicU64,
    shed_events: AtomicU64,
    stale_frames: AtomicU64,
    shard_restarts: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_rejected: AtomicU64,
}

impl Counts {
    fn snapshot(&self) -> StatsMsg {
        StatsMsg {
            offered_sessions: self.offered_sessions.load(Ordering::Relaxed),
            decided: self.decided.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            shed_sessions: self.shed_sessions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            offered_events: self.offered_events.load(Ordering::Relaxed),
            shed_events: self.shed_events.load(Ordering::Relaxed),
            stale_frames: self.stale_frames.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            reloads_ok: self.reloads_ok.load(Ordering::Relaxed),
            reloads_rejected: self.reloads_rejected.load(Ordering::Relaxed),
        }
    }
}

enum ShardMsg {
    Event {
        key: SessionKey,
        conn: u64,
        seq: u64,
        window: Box<RawWindow>,
        deadline_ms: Option<u64>,
    },
    End {
        key: SessionKey,
        conn: u64,
        at: Instant,
    },
    Shed {
        key: SessionKey,
        conn: u64,
    },
    /// Chaos hook: the worker flushes its batches, syncs every session to
    /// the snapshot store, and dies — exercising lossless supervision
    /// recovery.
    Kill,
    Drain,
}

struct ShardHandle {
    queue: BoundedQueue<ShardMsg>,
    /// Sessions currently refused at admission; their later events drop at
    /// the door (counted) without touching the queue. Lives on the engine
    /// side, so it survives worker death.
    shed: Mutex<HashSet<SessionKey>>,
    /// Incremental session snapshots, the restart substrate. Workers insert
    /// at session creation and re-sync dirty sessions periodically; every
    /// finalize path removes its key, so leftovers after worker death are
    /// exactly the sessions that still need a verdict.
    store: Mutex<HashMap<SessionKey, SessionState>>,
}

/// How a session ends: with its quorum, everything [`Shared::finalize`]
/// needs to pick the verdict line and the one accounting term it bumps.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// The stream ended: `abstain`/`coverage` below the coverage floor,
    /// otherwise `malware` or `benign` by majority (ties convict).
    Judged,
    /// A lifecycle abstention: `drain`, `deadline` or `tenant-deadline`.
    Abstain(&'static str),
    /// The shard died for good (`abstain`/`shard-down`).
    ShardDown,
    /// Refused at admission (`abstain`/`shed`).
    Shed,
    /// Its scoring panicked or went non-finite (`abstain`/`quarantine`).
    Quarantine,
}

/// The state the engine, its supervisor and every shard worker share.
struct Shared {
    model: RwLock<Arc<ModelSnapshot>>,
    out: Arc<BoundedQueue<OutEvent>>,
    counts: Counts,
    config: ServeConfig,
    faults: EngineFaults,
    shards: Vec<ShardHandle>,
    draining: AtomicBool,
    failed: AtomicBool,
    last_error: Mutex<Option<String>>,
    recovery_ns: Mutex<Vec<u64>>,
}

type Workers = Arc<Mutex<Vec<Option<JoinHandle<()>>>>>;

impl Shared {
    fn current_model(&self) -> Arc<ModelSnapshot> {
        match self.model.read() {
            Ok(g) => Arc::clone(&g),
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    fn offer_session(&self) {
        self.counts.offered_sessions.fetch_add(1, Ordering::Relaxed);
        rhmd_obs::incr("serve.sessions.offered");
    }

    /// The one place a session verdict leaves the engine: bumps exactly
    /// one of the four accounting terms for `outcome` and emits exactly
    /// one verdict line, so `offered == decided + abstained + shed +
    /// quarantined` holds wherever a session ends.
    fn finalize(
        &self,
        conn: u64,
        key: &SessionKey,
        quorum: &QuorumVerdict,
        outcome: Outcome,
        since: Instant,
    ) {
        let c = &self.counts;
        let (verdict, reason, term, metric) = match outcome {
            Outcome::Judged if quorum.lacks_coverage(self.config.min_coverage) => {
                ("abstain", Some("coverage"), &c.abstained, None)
            }
            Outcome::Judged if quorum.is_malware() => ("malware", None, &c.decided, None),
            Outcome::Judged => ("benign", None, &c.decided, None),
            Outcome::Abstain(reason) => ("abstain", Some(reason), &c.abstained, None),
            Outcome::ShardDown => (
                "abstain",
                Some("shard-down"),
                &c.abstained,
                Some("serve.sessions.shard_down"),
            ),
            Outcome::Shed => (
                "abstain",
                Some("shed"),
                &c.shed_sessions,
                Some("serve.sessions.shed"),
            ),
            Outcome::Quarantine => (
                "abstain",
                Some("quarantine"),
                &c.quarantined,
                Some("serve.sessions.quarantined"),
            ),
        };
        term.fetch_add(1, Ordering::Relaxed);
        if let Some(metric) = metric {
            rhmd_obs::incr(metric);
        }
        rhmd_obs::observe_ns(
            "serve.verdict_latency",
            since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        if rhmd_obs::enabled() {
            let base = rhmd_obs::labeled("serve.tenant", &key.tenant);
            let tally = if reason.is_some() {
                "abstained"
            } else {
                "decided"
            };
            rhmd_obs::incr(&format!("{base}.{tally}"));
        }
        let msg = VerdictMsg {
            tenant: key.tenant.to_string(),
            session: key.session.to_string(),
            verdict: verdict.to_string(),
            reason: reason.map(str::to_string),
            voted: quorum.voted,
            abstained: quorum.abstained,
            flag_rate: quorum.flag_rate(),
        };
        // Blocking push: verdicts are never dropped; a slow consumer stalls
        // this worker, which is exactly how backpressure reaches admission.
        let _ = self.out.push(OutEvent::Response {
            conn,
            response: Response::Verdict(msg),
        });
    }

    /// Finalizes every session left in shard `idx`'s snapshot store as
    /// `abstain`/`shard-down` — the fail-fast and drain catch-all for a
    /// shard that is never coming back.
    fn finalize_store(&self, idx: usize) {
        let orphans: Vec<(SessionKey, SessionState)> =
            lock(&self.shards[idx].store).drain().collect();
        for (key, state) in orphans {
            let quorum = QuorumVerdict::from_votes(&state.votes_lossy());
            self.finalize(
                state.conn,
                &key,
                &quorum,
                Outcome::ShardDown,
                Instant::now(),
            );
        }
    }
}

/// The resident serving engine. One per `rhmd serve` process (or embedded
/// in-process by the serve test suites and the performance ledger).
pub struct Engine {
    shared: Arc<Shared>,
    workers: Workers,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

/// Contained panics inside shard workers (injected scorer faults, chaos
/// kills) are expected events under test; the default panic hook would
/// flood stderr with backtraces for failures that are caught, counted, and
/// recovered. Silence the hook for engine worker threads only — the
/// supervisor surfaces real deaths through `shard_restarts`, `last_error`,
/// and metrics.
fn silence_worker_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("rhmd-serve-"));
            if !ours {
                prev(info);
            }
        }));
    });
}

impl Engine {
    /// Validates `config`, installs `hmd` as the serving snapshot, and
    /// spawns the shard workers and their supervisor. Engine-side fault
    /// injection is read from the `RHMD_SERVE_FAULTS` environment variable.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Config`] for invalid configuration and
    /// [`RhmdError::Parse`] for a malformed fault spec — a misconfigured
    /// chaos run fails loudly at startup instead of silently serving
    /// without faults.
    pub fn start(hmd: Hmd, config: ServeConfig) -> Result<Engine, RhmdError> {
        Engine::start_with_faults(hmd, config, EngineFaults::from_env()?)
    }

    /// [`Engine::start`] with an explicit fault plane (ignores the
    /// environment), so a clean run stays clean whatever
    /// `RHMD_SERVE_FAULTS` says while a chaos run injects exactly the
    /// faults it names.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Config`] for invalid configuration.
    pub fn start_with_faults(
        hmd: Hmd,
        config: ServeConfig,
        faults: EngineFaults,
    ) -> Result<Engine, RhmdError> {
        config.validate()?;
        silence_worker_panics();
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            shards.push(ShardHandle {
                queue: BoundedQueue::try_new(config.queue)?,
                shed: Mutex::default(),
                store: Mutex::default(),
            });
        }
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(ModelSnapshot::new(hmd))),
            out: Arc::new(BoundedQueue::try_new(config.output)?),
            counts: Counts::default(),
            config,
            faults,
            shards,
            draining: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            last_error: Mutex::new(None),
            recovery_ns: Mutex::default(),
        });
        let workers = (0..shared.shards.len())
            .map(|idx| Worker::spawn(&shared, idx, false).map(Some))
            .collect::<Result<Vec<_>, _>>()?;
        let workers = Arc::new(Mutex::new(workers));
        let supervisor = Supervisor {
            shared: Arc::clone(&shared),
            workers: Arc::clone(&workers),
        };
        let supervisor = std::thread::Builder::new()
            .name("rhmd-supervise".to_string())
            .spawn(move || supervisor.run())
            .map_err(|e| RhmdError::config(format!("serve: spawn supervisor: {e}")))?;
        Ok(Engine {
            shared,
            workers,
            supervisor: Mutex::new(Some(supervisor)),
        })
    }

    /// The engine's output stream (verdicts + control replies). Consume it
    /// from a dedicated thread; slow consumption propagates backpressure
    /// into load-shedding by design.
    pub fn output(&self) -> Arc<BoundedQueue<OutEvent>> {
        Arc::clone(&self.shared.out)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> StatsMsg {
        self.shared.counts.snapshot()
    }

    /// The serving feature-spec config hash.
    pub fn config_hash(&self) -> u64 {
        self.shared.current_model().config_hash()
    }

    /// Whether any shard is currently refusing admissions.
    pub fn is_shedding(&self) -> bool {
        self.shared.shards.iter().any(|s| s.queue.is_shedding())
    }

    /// Whether the engine has failed fast (a shard exhausted its restart
    /// budget or could not be respawned). Front-ends poll this and initiate
    /// a drain: a failed engine refuses to limp along silently.
    pub fn failed(&self) -> bool {
        self.shared.failed.load(Ordering::SeqCst)
    }

    /// The most recent supervision error (shard death or fail-fast cause).
    pub fn last_error(&self) -> Option<String> {
        lock(&self.shared.last_error).clone()
    }

    /// Wall-clock nanoseconds of each completed shard recovery
    /// (death detection through restored worker running, backoff
    /// included) — the samples behind the chaos suite's recovery p99.
    pub fn recoveries_ns(&self) -> Vec<u64> {
        lock(&self.shared.recovery_ns).clone()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Chaos hook: asks shard `idx` to flush, sync its snapshot store, and
    /// die — the supervisor then restarts it from the store. Returns
    /// whether the kill was delivered (in-range shard, queue open).
    pub fn kill_shard(&self, idx: usize) -> bool {
        self.shared
            .shards
            .get(idx)
            .is_some_and(|s| s.queue.push_control(ShardMsg::Kill).is_ok())
    }

    /// Routes one subwindow event. Never blocks: under overload the event
    /// (and the rest of its session) is shed, with the session finalized as
    /// an explicit `abstain`/`shed` verdict by the owning worker.
    pub fn submit_event(
        &self,
        conn: u64,
        tenant: &str,
        session: &str,
        seq: u64,
        window: Box<RawWindow>,
        deadline_ms: Option<u64>,
    ) {
        let shared = &self.shared;
        if shared.draining.load(Ordering::Relaxed) {
            return; // post-drain stragglers are refused before being offered
        }
        let key = SessionKey::new(tenant, session);
        let shard = &shared.shards[key.shard(shared.shards.len())];
        {
            let shed = lock(&shard.shed);
            if shed.contains(&key) {
                drop(shed);
                shared.counts.shed_events.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        match shard.queue.offer(ShardMsg::Event {
            key: key.clone(),
            conn,
            seq,
            window,
            deadline_ms,
        }) {
            Ok(()) => {
                shared.counts.offered_events.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.counts.shed_events.fetch_add(1, Ordering::Relaxed);
                rhmd_obs::incr("serve.shed.events");
                lock(&shard.shed).insert(key.clone());
                // Capacity-exempt: the shed notice must reach the worker or
                // the session would vanish without a verdict.
                let _ = shard.queue.push_control(ShardMsg::Shed { key, conn });
            }
        }
    }

    /// Marks a session's stream complete; its verdict will be emitted once
    /// in-flight windows score.
    pub fn submit_end(&self, conn: u64, tenant: &str, session: &str) {
        if self.shared.draining.load(Ordering::Relaxed) {
            return;
        }
        let key = SessionKey::new(tenant, session);
        let shard = &self.shared.shards[key.shard(self.shared.shards.len())];
        lock(&shard.shed).remove(&key);
        let _ = shard.queue.push_control(ShardMsg::End {
            key,
            conn,
            at: Instant::now(),
        });
    }

    /// Hot-swaps the serving model.
    ///
    /// # Errors
    ///
    /// Returns [`RhmdError::Config`] (and keeps serving the old model) when
    /// the new model's feature-spec config hash differs — a reload must not
    /// change what the service measures mid-stream.
    pub fn reload(&self, hmd: Hmd) -> Result<u64, RhmdError> {
        let next = ModelSnapshot::new(hmd);
        let current = self.config_hash();
        let counts = &self.shared.counts;
        if next.config_hash() != current {
            counts.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            rhmd_obs::incr("serve.reload.rejected");
            return Err(RhmdError::config(format!(
                "reload rejected: feature-spec config hash {} does not match serving hash {current}; \
                 the old model remains active",
                next.config_hash()
            )));
        }
        let hash = next.config_hash();
        match self.shared.model.write() {
            Ok(mut g) => *g = Arc::new(next),
            Err(p) => *p.into_inner() = Arc::new(next),
        }
        counts.reloads_ok.fetch_add(1, Ordering::Relaxed);
        rhmd_obs::incr("serve.reload.ok");
        Ok(hash)
    }

    /// Hot-reloads from a model file written by `rhmd train --out`.
    ///
    /// # Errors
    ///
    /// Propagates load errors ([`RhmdError::Io`]/[`RhmdError::Parse`]/
    /// [`RhmdError::Version`]) and the config-hash mismatch from
    /// [`Engine::reload`]; all of them leave the old model serving.
    pub fn reload_path(&self, path: &Path) -> Result<u64, RhmdError> {
        let hmd = rhmd_core::persist::load_hmd(path).inspect_err(|_| {
            self.shared
                .counts
                .reloads_rejected
                .fetch_add(1, Ordering::Relaxed);
            rhmd_obs::incr("serve.reload.rejected");
        })?;
        self.reload(hmd)
    }

    /// Dispatches one parsed request. Returns `true` when the client asked
    /// for a drain (the caller owns the engine and performs it).
    pub fn submit(&self, conn: u64, request: Request) -> bool {
        match request {
            Request::Event {
                tenant,
                session,
                seq,
                window,
                deadline_ms,
            } => self.submit_event(conn, &tenant, &session, seq, window, deadline_ms),
            Request::End { tenant, session } => self.submit_end(conn, &tenant, &session),
            Request::Reload { model } => {
                let response = match self.reload_path(Path::new(&model)) {
                    Ok(config_hash) => Response::Reloaded { model, config_hash },
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                };
                self.respond(conn, response);
            }
            Request::Stats {} => self.respond(conn, Response::Stats(self.stats())),
            Request::Drain {} => return true,
        }
        false
    }

    /// Routes one response to the output stream (used by front-ends for
    /// request-level errors the engine itself never sees, e.g. unparseable
    /// lines).
    pub fn respond(&self, conn: u64, response: Response) {
        let _ = self.shared.out.push(OutEvent::Response { conn, response });
    }

    /// Graceful drain: stops admissions, lets workers finish in-flight
    /// batches, finalizes un-ended sessions as `abstain`/`drain` (and any
    /// sessions orphaned by an unrecovered shard as `abstain`/
    /// `"shard-down"`), emits a broadcast [`Response::Drained`] and
    /// [`OutEvent::Closed`], and returns the final accounting. Idempotent:
    /// later calls just return the final stats.
    pub fn drain(&self) -> StatsMsg {
        let shared = &self.shared;
        if shared.draining.swap(true, Ordering::SeqCst) {
            return self.stats();
        }
        // Supervision stops first so a worker exiting on Drain is never
        // mistaken for a death (and never restarted mid-drain).
        if let Some(sup) = lock(&self.supervisor).take() {
            let _ = sup.join();
        }
        for shard in &shared.shards {
            let _ = shard.queue.push_control(ShardMsg::Drain);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.workers)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for worker in handles {
            let _ = worker.join();
        }
        for shard in &shared.shards {
            shard.queue.close();
        }
        // A worker that drained cleanly emptied its store; leftovers mean
        // the shard died undrained — finalize them so the identity holds.
        for idx in 0..shared.shards.len() {
            shared.finalize_store(idx);
        }
        let stats = self.stats();
        debug_assert!(stats.accounted(), "drain accounting violated: {stats:?}");
        self.respond(BROADCAST_CONN, Response::Drained(stats));
        let _ = shared.out.push(OutEvent::Closed);
        shared.out.close();
        stats
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // A dropped (not drained) engine must not leave workers spinning.
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            if let Some(sup) = lock(&self.supervisor).take() {
                let _ = sup.join();
            }
            for shard in &self.shared.shards {
                shard.queue.close();
            }
            self.shared.out.close();
            for worker in lock(&self.workers).iter_mut().filter_map(Option::take) {
                let _ = worker.join();
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// The supervision loop: detect dead shard workers, restart them from the
/// snapshot store under the restart budget with deterministic exponential
/// backoff, fail fast when the budget runs out. Exits as soon as the
/// engine begins draining.
struct Supervisor {
    shared: Arc<Shared>,
    workers: Workers,
}

impl Supervisor {
    fn run(self) {
        let shared = &self.shared;
        let mut restarts = vec![0u32; shared.shards.len()];
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            for (idx, spent) in restarts.iter_mut().enumerate() {
                let finished = lock(&self.workers)[idx]
                    .as_ref()
                    .is_some_and(JoinHandle::is_finished);
                if !finished {
                    continue;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                let began = Instant::now();
                let handle = lock(&self.workers)[idx].take();
                let cause = match handle.map(JoinHandle::join) {
                    Some(Err(payload)) => Some(panic_message(payload.as_ref())),
                    _ => None, // clean exit (engine dropping) — not a death
                };
                let Some(cause) = cause else { continue };
                rhmd_obs::incr("serve.shard.deaths");
                let budget = shared.config.restart_budget;
                if *spent >= budget {
                    self.fail_shard(
                        idx,
                        &format!("died ({cause}) with restart budget {budget} exhausted"),
                    );
                    continue;
                }
                // Deterministic exponential backoff: restart n waits
                // base * 2^n, capped so a misconfigured base cannot stall
                // supervision for minutes.
                let backoff = shared
                    .config
                    .restart_backoff
                    .saturating_mul(1u32 << (*spent).min(16))
                    .min(Duration::from_secs(2));
                std::thread::sleep(backoff);
                *spent += 1;
                *lock(&shared.last_error) =
                    Some(format!("shard {idx} died ({cause}); restart {spent}"));
                match Worker::spawn(shared, idx, true) {
                    Ok(h) => {
                        lock(&self.workers)[idx] = Some(h);
                        shared.counts.shard_restarts.fetch_add(1, Ordering::Relaxed);
                        let ns = began.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        rhmd_obs::incr("serve.shard.restarts");
                        rhmd_obs::observe_ns("serve.shard.recovery", ns);
                        lock(&shared.recovery_ns).push(ns);
                    }
                    Err(e) => self.fail_shard(idx, &format!("respawn failed: {e}")),
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Fail-fast: close the shard's ingest (new sessions are refused before
    /// they are ever offered), give every stored session an explicit
    /// `abstain`/`shard-down` verdict, and flag the engine failed so
    /// front-ends drain instead of limping.
    fn fail_shard(&self, idx: usize, why: &str) {
        let shared = &self.shared;
        shared.shards[idx].queue.close();
        *lock(&shared.last_error) = Some(format!("shard {idx}: {why}"));
        rhmd_obs::incr("serve.shard.failed");
        shared.finalize_store(idx);
        shared.failed.store(true, Ordering::SeqCst);
    }
}

/// The window a sealed chunk keeps, if any; a chunk dropped below the
/// fill floor is counted in `serve.windows.gap_dropped`.
fn kept_window(sealed: Option<Sealed>) -> Option<Box<CollectionWindow>> {
    match sealed? {
        Sealed::Window(w) => Some(w),
        Sealed::Dropped => {
            rhmd_obs::incr("serve.windows.gap_dropped");
            None
        }
    }
}

/// Best-effort panic payload extraction (`&str` / `String` payloads only).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Entry {
    Live(Box<SessionState>),
    /// The session already got its (shed/quarantine) verdict; later events
    /// are ignored until the watchdog expires the marker.
    Tombstone(Instant),
}

struct Worker {
    idx: usize,
    shared: Arc<Shared>,
    /// Sessions mutated since the last snapshot sync.
    dirty: HashSet<SessionKey>,
    sessions: HashMap<SessionKey, Entry>,
    batchers: HashMap<Arc<str>, MicroBatcher>,
    tenant_activity: HashMap<Arc<str>, Instant>,
    row: Vec<f64>,
    last_sweep: Instant,
    sweep_every: Duration,
    last_sync: Instant,
    /// Earliest client-requested verdict deadline across live sessions.
    nearest_deadline: Option<Instant>,
}

impl Worker {
    /// Spawns shard `idx`'s worker thread, first rebuilding its sessions
    /// from the snapshot store when `restore` (a supervisor restart).
    fn spawn(shared: &Arc<Shared>, idx: usize, restore: bool) -> Result<JoinHandle<()>, RhmdError> {
        let config = &shared.config;
        let shortest = config
            .session_deadline
            .into_iter()
            .chain(config.tenant_deadline)
            .min()
            .unwrap_or(Duration::from_secs(4));
        let mut worker = Worker {
            idx,
            shared: Arc::clone(shared),
            dirty: HashSet::new(),
            sessions: HashMap::new(),
            batchers: HashMap::new(),
            tenant_activity: HashMap::new(),
            row: Vec::new(),
            last_sweep: Instant::now(),
            sweep_every: (shortest / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)),
            last_sync: Instant::now(),
            nearest_deadline: None,
        };
        if restore {
            worker.restore_sessions();
        }
        std::thread::Builder::new()
            .name(format!("rhmd-serve-{idx}"))
            .spawn(move || worker.run())
            .map_err(|e| RhmdError::config(format!("serve: spawn worker {idx}: {e}")))
    }

    fn shard(&self) -> &ShardHandle {
        &self.shared.shards[self.idx]
    }

    /// Rebuilds sessions from the snapshot store after a shard restart.
    /// Counts are untouched — these sessions were already offered.
    fn restore_sessions(&mut self) {
        let saved: Vec<(SessionKey, SessionState)> = lock(&self.shard().store)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        if saved.is_empty() {
            return;
        }
        let now = Instant::now();
        rhmd_obs::add("serve.shard.sessions_restored", saved.len() as u64);
        for (key, state) in saved {
            self.tenant_activity.insert(key.tenant.clone(), now);
            let state = state.restore(now);
            if let Some(at) = state.deadline_at {
                self.nearest_deadline = Some(self.nearest_deadline.map_or(at, |n| n.min(at)));
            }
            self.sessions.insert(key, Entry::Live(Box::new(state)));
        }
    }

    fn run(mut self) {
        loop {
            let timeout = self.next_timeout();
            match self.shard().queue.pop_timeout(timeout) {
                Some(ShardMsg::Drain) => {
                    self.drain();
                    return;
                }
                Some(ShardMsg::Kill) => self.die(),
                Some(msg) => self.handle(msg),
                None => {
                    if self.shard().queue.is_closed() {
                        return; // engine dropped without drain
                    }
                }
            }
            self.tick(Instant::now());
        }
    }

    /// The chaos kill path: resolve every pending vote, sync every live
    /// session into the snapshot store, then die. Because the store is
    /// complete at the instant of death, the supervisor's restart is
    /// lossless and the recovered shard's verdicts are bit-identical.
    fn die(&mut self) -> ! {
        self.flush_all();
        self.sync_all();
        rhmd_obs::incr("serve.shard.killed");
        panic!("shard {} killed by kill_shard (chaos)", self.idx);
    }

    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Event {
                key,
                conn,
                seq,
                window,
                deadline_ms,
            } => self.on_event(key, conn, seq, &window, deadline_ms),
            ShardMsg::End { key, conn, at } => self.on_end(&key, conn, at),
            ShardMsg::Shed { key, conn } => self.on_shed(key, conn),
            // Only reachable from drain()'s inner loop, where both are
            // no-ops (the shard is already terminating).
            ShardMsg::Drain | ShardMsg::Kill => {}
        }
    }

    /// Time until the nearest open batch deadline, clamped so watchdog
    /// sweeps and client deadlines stay timely even on an idle shard.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = Duration::from_millis(50).min(self.sweep_every);
        for batcher in self.batchers.values() {
            if let Some(at) = batcher.deadline_at() {
                timeout = timeout.min(at.saturating_duration_since(now));
            }
        }
        if let Some(at) = self.nearest_deadline {
            timeout = timeout.min(at.saturating_duration_since(now));
        }
        timeout.max(Duration::from_millis(1))
    }

    fn on_event(
        &mut self,
        key: SessionKey,
        conn: u64,
        seq: u64,
        window: &RawWindow,
        deadline_ms: Option<u64>,
    ) {
        let now = Instant::now();
        self.tenant_activity.insert(key.tenant.clone(), now);
        let snap = self.shared.current_model();
        if !self.sessions.contains_key(&key) {
            self.shared.offer_session();
            let state = SessionState::new(
                snap.hmd().spec().period,
                self.shared.config.min_fill,
                conn,
                now,
            );
            // Synced at creation: a session's *existence* must survive
            // worker death, or its verdict could be lost and the
            // accounting identity broken.
            lock(&self.shard().store).insert(key.clone(), state.clone());
            self.sessions
                .insert(key.clone(), Entry::Live(Box::new(state)));
        }
        let state = match self.sessions.get_mut(&key) {
            Some(Entry::Live(s)) => s,
            _ => return, // already verdicted (shed/quarantined)
        };
        state.last_activity = now;
        state.conn = conn;
        if let Some(ms) = deadline_ms {
            state.tighten_deadline(now + Duration::from_millis(ms));
            let at = state.deadline_at.unwrap_or(now);
            self.nearest_deadline = Some(self.nearest_deadline.map_or(at, |n| n.min(at)));
        }
        let Some(gap) = state.admit_seq(seq) else {
            // Stale or duplicate re-delivery: repaired by dropping, which
            // is exactly what makes a redelivered stream assemble
            // bit-identically to a clean one.
            self.shared
                .counts
                .stale_frames
                .fetch_add(1, Ordering::Relaxed);
            rhmd_obs::incr("serve.frames.stale_dropped");
            return;
        };
        if gap > 0 {
            rhmd_obs::add("serve.seq_gaps", gap);
        }
        self.dirty.insert(key.clone());
        if let Some(w) = kept_window(state.assembler.push(window)) {
            if self.enqueue_vote(&key, snap.hmd(), &w, now) {
                rhmd_obs::incr("serve.batch.flush_full");
                self.flush_tenant(&key.tenant.clone());
            }
        }
    }

    /// Reserves one sealed window's vote slot: a window `hmd` lets vote
    /// joins its tenant's micro-batch, any other resolves now. Returns
    /// `true` when the batch hit its size trigger.
    fn enqueue_vote(
        &mut self,
        key: &SessionKey,
        hmd: &Hmd,
        window: &CollectionWindow,
        now: Instant,
    ) -> bool {
        let Some(Entry::Live(state)) = self.sessions.get_mut(key) else {
            return false;
        };
        let slot = state.slots.len();
        let vote = match hmd.check_window(window, &mut self.row) {
            WindowCheck::Row => {
                state.slots.push(Slot::Pending);
                let (dims, config) = (self.row.len(), &self.shared.config);
                let batcher = self.batchers.entry(key.tenant.clone()).or_insert_with(|| {
                    MicroBatcher::new(dims, config.batch_max, config.batch_deadline)
                });
                return batcher.push(key.clone(), slot, &self.row, now);
            }
            WindowCheck::Vote(vote) => Some(vote),
            WindowCheck::Corrupt => {
                rhmd_obs::incr("serve.windows.abstained_corrupt");
                None
            }
            WindowCheck::Empty => None,
        };
        state.slots.push(Slot::Done(vote));
        false
    }

    fn flush_all(&mut self) {
        let tenants: Vec<Arc<str>> = self.batchers.keys().cloned().collect();
        for tenant in tenants {
            self.flush_tenant(&tenant);
        }
    }

    /// Scores a tenant's buffered batch inside the poison-pill fence and
    /// scatters votes back into the owning sessions' slots. Rows whose
    /// scoring panicked or produced non-finite values quarantine their
    /// session; every other row keeps its exact score.
    fn flush_tenant(&mut self, tenant: &Arc<str>) {
        let Some(batcher) = self.batchers.get_mut(tenant) else {
            return;
        };
        if batcher.is_empty() {
            return;
        }
        let dims = batcher.dims();
        let taken = batcher.take();
        let snap = self.shared.current_model();
        let rows = taken.entries.len();
        let keys: Vec<SessionKey> = taken.entries.iter().map(|(k, _)| k.clone()).collect();
        let mut scores: Vec<Option<f64>> = vec![None; rows];
        self.score_guarded(snap.hmd(), dims, &taken.flat, &keys, &mut scores);
        let threshold = snap.hmd().model().threshold();
        rhmd_obs::incr("serve.batch.flushes");
        rhmd_obs::add("serve.windows.scored", rows as u64);
        if rhmd_obs::enabled() {
            rhmd_obs::add(
                &format!(
                    "{}.windows_scored",
                    rhmd_obs::labeled("serve.tenant", tenant)
                ),
                rows as u64,
            );
        }
        let mut poisoned: Vec<SessionKey> = Vec::new();
        for ((key, slot), score) in taken.entries.into_iter().zip(scores) {
            if let Some(Entry::Live(state)) = self.sessions.get_mut(&key) {
                if let Some(s) = state.slots.get_mut(slot) {
                    *s = Slot::Done(score.map(|v| v >= threshold));
                }
            }
            if score.is_none() && !poisoned.contains(&key) {
                poisoned.push(key);
            }
        }
        for key in poisoned {
            self.end(&key, Outcome::Quarantine, Instant::now());
        }
    }

    /// Scores `keys`' rows (`flat`, `dims` wide) inside a `catch_unwind`
    /// fence, bisecting on panic to isolate poison rows. `scores[i]`
    /// becomes `Some(score)` for healthy rows, `None` for poisoned ones
    /// (panicked or non-finite). Scoring is row-independent, so healthy
    /// rows score identically whether or not the batch was bisected around
    /// them — quarantine cannot perturb innocent sessions' verdicts.
    fn score_guarded(
        &self,
        hmd: &Hmd,
        dims: usize,
        flat: &[f64],
        keys: &[SessionKey],
        scores: &mut [Option<f64>],
    ) {
        if keys.is_empty() {
            return;
        }
        let faults = &self.shared.faults;
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let xs = FeatureMatrix::from_flat(dims, flat.to_vec());
            let mut s = vec![0.0; keys.len()];
            hmd.model().score_batch(&xs, &mut s);
            for (i, key) in keys.iter().enumerate() {
                if faults.panics(&key.tenant, &key.session) {
                    panic!("injected scorer panic for {}/{}", key.tenant, key.session);
                }
                if faults.nans(&key.tenant, &key.session) {
                    s[i] = f64::NAN;
                }
            }
            s
        }));
        match attempt {
            Ok(s) => {
                for (score, v) in scores.iter_mut().zip(s) {
                    *score = v.is_finite().then_some(v);
                }
            }
            Err(_) if keys.len() == 1 => scores[0] = None,
            Err(_) => {
                rhmd_obs::incr("serve.batch.bisects");
                let mid = keys.len() / 2;
                let (flat_lo, flat_hi) = flat.split_at(mid * dims);
                let (keys_lo, keys_hi) = keys.split_at(mid);
                let (scores_lo, scores_hi) = scores.split_at_mut(mid);
                self.score_guarded(hmd, dims, flat_lo, keys_lo, scores_lo);
                self.score_guarded(hmd, dims, flat_hi, keys_hi, scores_hi);
            }
        }
    }

    /// Ends a live session with `outcome` (a no-op once it has its
    /// verdict): removes it from the live map, the dirty set and the
    /// snapshot store, tombstones a shed or quarantined session so the
    /// rest of its stream drops at the door, and finalizes it from its
    /// votes. Callers flush the session's tenant first.
    fn end(&mut self, key: &SessionKey, outcome: Outcome, since: Instant) {
        if !matches!(self.sessions.get(key), Some(Entry::Live(_))) {
            return;
        }
        let Some(Entry::Live(state)) = self.forget(key) else {
            return;
        };
        if matches!(outcome, Outcome::Shed | Outcome::Quarantine) {
            self.sessions.insert(key.clone(), Entry::Tombstone(since));
        }
        let quorum = QuorumVerdict::from_votes(&state.votes());
        self.shared
            .finalize(state.conn, key, &quorum, outcome, since);
    }

    /// Removes a session (live or tombstoned) from the live map, the dirty
    /// set, and the snapshot store, so the store never resurrects a
    /// verdicted session.
    fn forget(&mut self, key: &SessionKey) -> Option<Entry> {
        self.dirty.remove(key);
        lock(&self.shard().store).remove(key);
        self.sessions.remove(key)
    }

    /// Re-syncs sessions mutated since the last sync into the store.
    fn sync_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut store = lock(&self.shared.shards[self.idx].store);
        for key in self.dirty.drain() {
            if let Some(Entry::Live(state)) = self.sessions.get(&key) {
                store.insert(key, (**state).clone());
            }
        }
    }

    /// Syncs every live session (the kill path's lossless handoff).
    fn sync_all(&mut self) {
        self.dirty.clear();
        let mut store = lock(&self.shard().store);
        for (key, entry) in &self.sessions {
            if let Entry::Live(state) = entry {
                store.insert(key.clone(), (**state).clone());
            }
        }
    }

    fn on_end(&mut self, key: &SessionKey, conn: u64, at: Instant) {
        self.tenant_activity.insert(key.tenant.clone(), at);
        match self.sessions.get(key) {
            None => {
                // A session whose stream was empty: offered and judged on
                // no evidence at all (`abstain`/`coverage`) in one step.
                self.shared.offer_session();
                let empty = QuorumVerdict::from_votes(&[]);
                self.shared.finalize(conn, key, &empty, Outcome::Judged, at);
            }
            Some(Entry::Live(_)) => {
                let snap = self.shared.current_model();
                let tail = match self.sessions.get_mut(key) {
                    Some(Entry::Live(state)) => state.assembler.finish(),
                    _ => None,
                };
                if let Some(w) = kept_window(tail) {
                    self.enqueue_vote(key, snap.hmd(), &w, Instant::now());
                }
                // Resolve every pending slot before judging. This can
                // quarantine `key` itself, in which case its quarantine
                // verdict stands and `end` does nothing.
                self.flush_tenant(&key.tenant.clone());
                self.end(key, Outcome::Judged, at);
            }
            Some(Entry::Tombstone(_)) => {} // shed or quarantined: verdict already out
        }
        // The stream is over, so a tombstone's door closes with it.
        self.forget(key);
    }

    fn on_shed(&mut self, key: SessionKey, conn: u64) {
        let now = Instant::now();
        self.tenant_activity.insert(key.tenant.clone(), now);
        match self.sessions.get(&key) {
            Some(Entry::Live(_)) => {
                // Mid-stream shed: resolve what already scored so the
                // verdict line reports how far the session got. The flush
                // can quarantine the session, which then keeps that
                // verdict instead.
                self.flush_tenant(&key.tenant.clone());
                if let Some(Entry::Live(state)) = self.sessions.get_mut(&key) {
                    state.conn = conn; // the refused connection hears it
                }
                self.end(&key, Outcome::Shed, now);
            }
            Some(Entry::Tombstone(_)) => {} // duplicate shed notice
            None => {
                // First contact under overload: the session is offered and
                // shed in one step.
                self.shared.offer_session();
                self.sessions.insert(key.clone(), Entry::Tombstone(now));
                let empty = QuorumVerdict::from_votes(&[]);
                self.shared.finalize(conn, &key, &empty, Outcome::Shed, now);
            }
        }
    }

    /// Deadline batch flushes, client-deadline enforcement, snapshot
    /// syncs, and (rate-limited) watchdog sweeps.
    fn tick(&mut self, now: Instant) {
        let expired: Vec<Arc<str>> = self
            .batchers
            .iter()
            .filter(|(_, b)| b.expired(now))
            .map(|(t, _)| t.clone())
            .collect();
        for tenant in expired {
            rhmd_obs::incr("serve.batch.flush_deadline");
            self.flush_tenant(&tenant);
        }
        self.enforce_request_deadlines(now);
        if now.saturating_duration_since(self.last_sync) >= self.shared.config.snapshot_every {
            self.last_sync = now;
            self.sync_dirty();
        }
        if now.saturating_duration_since(self.last_sweep) >= self.sweep_every {
            self.last_sweep = now;
            self.sweep(now);
        }
    }

    /// Live sessions matching `pred`.
    fn live_keys(&self, pred: impl Fn(&SessionKey, &SessionState) -> bool) -> Vec<SessionKey> {
        self.sessions
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Live(s) if pred(k, s) => Some(k.clone()),
                _ => None,
            })
            .collect()
    }

    /// Flushes `key`'s tenant, then ends the session as an abstention.
    fn abstain(&mut self, key: &SessionKey, reason: &'static str) {
        self.flush_tenant(&key.tenant.clone());
        self.end(key, Outcome::Abstain(reason), Instant::now());
    }

    /// Per-request deadline propagation: a session whose client-requested
    /// deadline passed finalizes as an explicit `abstain`/`deadline` right
    /// now — a late verdict becomes an abstention, never a stall.
    fn enforce_request_deadlines(&mut self, now: Instant) {
        let Some(at) = self.nearest_deadline else {
            return;
        };
        if now < at {
            return;
        }
        for key in self.live_keys(|_, s| s.past_deadline(now)) {
            rhmd_obs::incr("serve.watchdog.request_deadline");
            self.abstain(&key, "deadline");
        }
        self.nearest_deadline = self
            .sessions
            .values()
            .filter_map(|e| match e {
                Entry::Live(s) => s.deadline_at,
                Entry::Tombstone(_) => None,
            })
            .min();
    }

    fn sweep(&mut self, now: Instant) {
        // Tombstones always expire, even with the idle watchdog disabled —
        // they are door markers, not sessions, and must not accumulate.
        let ttl = self
            .shared
            .config
            .session_deadline
            .unwrap_or(Duration::from_secs(60));
        self.sessions.retain(|_, e| match e {
            Entry::Tombstone(at) => now.saturating_duration_since(*at) < ttl,
            Entry::Live(_) => true,
        });
        if let Some(deadline) = self.shared.config.session_deadline {
            let idle = |_: &SessionKey, s: &SessionState| {
                now.saturating_duration_since(s.last_activity) >= deadline
            };
            for key in self.live_keys(idle) {
                rhmd_obs::incr("serve.watchdog.session_expired");
                self.abstain(&key, "deadline");
            }
        }
        if let Some(deadline) = self.shared.config.tenant_deadline {
            let stale_tenants: Vec<Arc<str>> = self
                .tenant_activity
                .iter()
                .filter(|(_, at)| now.saturating_duration_since(**at) >= deadline)
                .map(|(t, _)| t.clone())
                .collect();
            for tenant in stale_tenants {
                rhmd_obs::incr("serve.watchdog.tenant_expired");
                for key in self.live_keys(|k, _| k.tenant == tenant) {
                    self.abstain(&key, "tenant-deadline");
                }
                self.tenant_activity.remove(&tenant);
            }
        }
    }

    /// Drain: absorb already-queued stragglers, flush every batch, and
    /// finalize whatever is still live as `abstain`/`drain`.
    fn drain(&mut self) {
        while let Some(msg) = self.shard().queue.pop_timeout(Duration::from_millis(10)) {
            self.handle(msg);
        }
        self.flush_all();
        for key in self.live_keys(|_, _| true) {
            rhmd_obs::incr("serve.sessions.drained");
            self.abstain(&key, "drain");
        }
        // Anything left in the store is a tombstoned leftover already
        // verdicted; clear it so the engine's drain catch-all does not
        // double-finalize.
        lock(&self.shard().store).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    use rhmd_features::vector::{FeatureKind, FeatureSpec};
    use rhmd_features::window::{aggregate_with_gaps, SUBWINDOW};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_uarch::CoreConfig;
    use std::sync::atomic::AtomicUsize;

    fn fixture() -> (TracedCorpus, Splits, Hmd) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let hmd = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        (traced, splits, hmd)
    }

    /// Collects exactly `expect` verdicts, or a typed error if the output
    /// closes first — supervision-observable instead of a panic.
    fn collect_verdicts(
        out: &BoundedQueue<OutEvent>,
        expect: usize,
    ) -> Result<HashMap<(String, String), VerdictMsg>, RhmdError> {
        let mut verdicts = HashMap::new();
        while verdicts.len() < expect {
            match out.pop() {
                Some(OutEvent::Response {
                    response: Response::Verdict(v),
                    ..
                }) => {
                    let prev = verdicts.insert((v.tenant.clone(), v.session.clone()), v);
                    assert!(prev.is_none(), "duplicate verdict for a session");
                }
                Some(_) => {}
                None => {
                    return Err(RhmdError::io(
                        "serve output",
                        format!("closed after {} of {expect} verdicts", verdicts.len()),
                    ))
                }
            }
        }
        Ok(verdicts)
    }

    /// Tallies the emitted verdict lines by (verdict, reason) and checks
    /// each accounting term against them: `decided` counts the
    /// non-abstain lines, `shed_sessions` and `quarantined` the lines with
    /// their reasons, and `abstained` every other abstention.
    fn assert_terms_match_verdicts<'a>(
        verdicts: impl IntoIterator<Item = &'a VerdictMsg>,
        stats: &StatsMsg,
    ) {
        let mut tally = [0u64; 4]; // decided, abstained, shed, quarantined
        for v in verdicts {
            let term = match (v.verdict.as_str(), v.reason.as_deref()) {
                ("abstain", Some("shed")) => 2,
                ("abstain", Some("quarantine")) => 3,
                ("abstain", _) => 1,
                _ => 0,
            };
            tally[term] += 1;
        }
        let terms = [
            stats.decided,
            stats.abstained,
            stats.shed_sessions,
            stats.quarantined,
        ];
        assert_eq!(
            terms, tally,
            "accounting terms vs emitted verdicts: {stats:?}"
        );
    }

    #[test]
    fn overload_sheds_loudly_and_accounts_everything() {
        let (traced, _, hmd) = fixture();
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                queue: crate::queue::Watermarks {
                    capacity: 8,
                    high: 2,
                    low: 0,
                },
                output: crate::queue::Watermarks {
                    capacity: 1,
                    high: 1,
                    low: 0,
                },
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        let subs = traced.subwindows(0);
        // Two quick sessions: the first verdict fills the output queue (no
        // consumer yet), the second blocks the worker on its push.
        for s in ["warm0", "warm1"] {
            for (seq, sub) in subs.iter().take(10).enumerate() {
                engine.submit_event(0, "t0", s, seq as u64, Box::new(sub.clone()), None);
            }
            engine.submit_end(0, "t0", s);
        }
        // Give the worker time to wedge against the full output queue.
        std::thread::sleep(Duration::from_millis(100));
        // Flood distinct sessions: the tiny ingest queue saturates and most
        // of these are refused at admission.
        for i in 0..40 {
            engine.submit_event(
                0,
                "t0",
                &format!("flood{i}"),
                0,
                Box::new(subs[0].clone()),
                None,
            );
        }
        assert!(engine.stats().shed_events > 0, "flood did not shed");
        // Now consume the output so the pipeline unwedges, then drain.
        let collector = std::thread::spawn({
            let out = Arc::clone(&out);
            move || {
                let mut verdicts: Vec<VerdictMsg> = Vec::new();
                while let Some(ev) = out.pop() {
                    match ev {
                        OutEvent::Response {
                            response: Response::Verdict(v),
                            ..
                        } => verdicts.push(v),
                        OutEvent::Closed => break,
                        _ => {}
                    }
                }
                verdicts
            }
        });
        let stats = engine.drain();
        let verdicts = collector.join().unwrap();
        assert!(stats.accounted(), "{stats:?}");
        assert_terms_match_verdicts(&verdicts, &stats);
        assert!(stats.shed_sessions > 0, "{stats:?}");
        assert_eq!(
            verdicts.len() as u64,
            stats.offered_sessions,
            "exactly one verdict per offered session: {stats:?}"
        );
        let shed_lines = verdicts
            .iter()
            .filter(|v| v.reason.as_deref() == Some("shed"))
            .count() as u64;
        assert_eq!(shed_lines, stats.shed_sessions);
        // No session got two verdicts.
        let mut ids: Vec<&str> = verdicts.iter().map(|v| v.session.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), verdicts.len());
    }

    /// Four unpaced senders flood the shards through queues shaped like a
    /// sweep point past saturation: every offered session still gets
    /// exactly one verdict line, the identity closes, and the sessions that
    /// were served see their verdict within a bounded p99.
    #[test]
    fn concurrent_flood_answers_every_session_once_with_bounded_p99() {
        let (traced, splits, hmd) = fixture();
        let test = &splits.attacker_test;
        let events: usize = test.iter().map(|&i| traced.subwindows(i).len()).sum();
        let capacity = (8 * events / test.len()).clamp(512, 1 << 15);
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
                queue: crate::queue::Watermarks {
                    capacity,
                    high: capacity * 3 / 4,
                    low: capacity / 4,
                },
                output: crate::queue::Watermarks {
                    capacity: 1 << 16,
                    high: 1 << 16,
                    low: 0,
                },
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        let sessions = (8 * test.len()).clamp(64, 512);
        let next = AtomicUsize::new(0);
        let ends: Mutex<HashMap<String, Instant>> = Mutex::new(HashMap::new());
        let (stats, verdicts, mut served_ms) = std::thread::scope(|scope| {
            let collector = scope.spawn(|| {
                let mut verdicts: Vec<VerdictMsg> = Vec::new();
                let mut served_ms: Vec<f64> = Vec::new();
                while let Some(ev) = out.pop() {
                    match ev {
                        OutEvent::Response {
                            response: Response::Verdict(v),
                            ..
                        } => {
                            let end = lock(&ends).remove(&v.session);
                            if let (Some(at), false) = (end, v.reason.as_deref() == Some("shed")) {
                                served_ms.push(at.elapsed().as_secs_f64() * 1e3);
                            }
                            verdicts.push(v);
                        }
                        OutEvent::Response { .. } => {}
                        OutEvent::Closed => break,
                    }
                }
                (verdicts, served_ms)
            });
            let senders: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= sessions {
                            break;
                        }
                        let tenant = if k.is_multiple_of(2) { "t0" } else { "t1" };
                        let session = format!("s{k}");
                        let subs = traced.subwindows(test[k % test.len()]);
                        for (seq, sub) in subs.iter().enumerate() {
                            let window = Box::new(sub.clone());
                            engine.submit_event(0, tenant, &session, seq as u64, window, None);
                        }
                        lock(&ends).insert(session.clone(), Instant::now());
                        engine.submit_end(0, tenant, &session);
                    })
                })
                .collect();
            for sender in senders {
                sender.join().unwrap();
            }
            let stats = engine.drain();
            let (verdicts, served_ms) = collector.join().unwrap();
            (stats, verdicts, served_ms)
        });
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.offered_sessions, sessions as u64, "{stats:?}");
        assert_eq!(
            verdicts.len(),
            sessions,
            "exactly one verdict per offered session: {stats:?}"
        );
        let mut ids: Vec<&str> = verdicts.iter().map(|v| v.session.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sessions, "a session got two verdicts");
        assert!(!served_ms.is_empty(), "no session was served: {stats:?}");
        served_ms.sort_by(f64::total_cmp);
        let p99 = served_ms[((served_ms.len() - 1) as f64 * 0.99).round() as usize];
        assert!(p99 < 1_000.0, "served end-to-verdict p99 {p99:.2} ms");
    }

    #[test]
    fn reload_validates_config_hash_and_keeps_serving() {
        let (traced, splits, hmd) = fixture();
        let engine =
            Engine::start_with_faults(hmd.clone(), ServeConfig::default(), EngineFaults::default())
                .unwrap();
        let before = engine.config_hash();
        // Same spec, retrained: accepted.
        let same = Hmd::train(
            Algorithm::Dt,
            hmd.spec().clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        assert_eq!(engine.reload(same).unwrap(), before);
        // Different period => different config hash: rejected, old model
        // stays.
        let other = Hmd::train(
            Algorithm::Lr,
            FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let err = engine.reload(other).unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)));
        assert_eq!(engine.config_hash(), before);
        let stats = engine.stats();
        assert_eq!(stats.reloads_ok, 1);
        assert_eq!(stats.reloads_rejected, 1);
    }

    #[test]
    fn session_watchdog_abstains_stalled_sessions() {
        let (traced, _, hmd) = fixture();
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                session_deadline: Some(Duration::from_millis(50)),
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        // One event, never an End: the watchdog must finalize it.
        engine.submit_event(
            0,
            "t0",
            "stalled",
            0,
            Box::new(traced.subwindows(0)[0].clone()),
            None,
        );
        let verdicts = collect_verdicts(&out, 1).unwrap();
        let v = &verdicts[&("t0".to_string(), "stalled".to_string())];
        assert_eq!(v.verdict, "abstain");
        assert_eq!(v.reason.as_deref(), Some("deadline"));
        let stats = engine.drain();
        assert!(stats.accounted());
        assert_terms_match_verdicts(verdicts.values(), &stats);
        assert_eq!(stats.abstained, 1);
    }

    #[test]
    fn client_deadline_turns_stall_into_abstention() {
        let (traced, _, hmd) = fixture();
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        // The frame carries a 30ms verdict deadline; the End never comes.
        engine.submit_event(
            0,
            "t0",
            "slow",
            0,
            Box::new(traced.subwindows(0)[0].clone()),
            Some(30),
        );
        let verdicts = collect_verdicts(&out, 1).unwrap();
        let v = &verdicts[&("t0".to_string(), "slow".to_string())];
        assert_eq!(v.verdict, "abstain");
        assert_eq!(v.reason.as_deref(), Some("deadline"));
        let stats = engine.drain();
        assert!(stats.accounted(), "{stats:?}");
    }

    /// The flush before a deadline abstention can quarantine the session
    /// itself; it then keeps its tombstone, so its later frames drop at the
    /// door instead of opening a second session with a second verdict.
    #[test]
    fn quarantine_on_a_deadline_flush_keeps_the_door_shut() {
        let (traced, _, hmd) = fixture();
        let per = (hmd.spec().period / SUBWINDOW) as usize;
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                batch_deadline: Duration::from_secs(60),
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults {
                score_nan: 1.0,
                ..EngineFaults::default()
            },
        )
        .unwrap();
        let out = engine.output();
        // One sealed window waits in its batch when the 30 ms verdict
        // deadline fires.
        let subs = traced.subwindows(0);
        for (seq, sub) in subs.iter().take(per).enumerate() {
            engine.submit_event(0, "t0", "s", seq as u64, Box::new(sub.clone()), Some(30));
        }
        let first = collect_verdicts(&out, 1).unwrap();
        let v = &first[&("t0".to_string(), "s".to_string())];
        assert_eq!(v.reason.as_deref(), Some("quarantine"));
        engine.submit_event(0, "t0", "s", per as u64, Box::new(subs[per].clone()), None);
        engine.submit_end(0, "t0", "s");
        let stats = engine.drain();
        let mut later = 0;
        while let Some(OutEvent::Response { response, .. }) = out.pop() {
            later += usize::from(matches!(response, Response::Verdict(_)));
        }
        assert_eq!(later, 0, "a quarantined session got a second verdict");
        assert_eq!(
            (stats.offered_sessions, stats.quarantined),
            (1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn stale_and_duplicate_frames_are_repaired_not_fatal() {
        let (traced, splits, hmd) = fixture();
        let program = splits.attacker_test[0];
        let subs = traced.subwindows(program);
        let run = |chaotic: bool| {
            let engine = Engine::start_with_faults(
                hmd.clone(),
                ServeConfig {
                    shards: 1,
                    session_deadline: None,
                    tenant_deadline: None,
                    ..ServeConfig::default()
                },
                EngineFaults::default(),
            )
            .unwrap();
            let out = engine.output();
            for (seq, sub) in subs.iter().enumerate() {
                engine.submit_event(0, "t0", "s", seq as u64, Box::new(sub.clone()), None);
                if chaotic {
                    // Duplicate of the frame just sent, plus a stale replay
                    // of frame 0: both must drop at the sequence filter.
                    engine.submit_event(0, "t0", "s", seq as u64, Box::new(sub.clone()), None);
                    engine.submit_event(0, "t0", "s", 0, Box::new(subs[0].clone()), None);
                }
            }
            engine.submit_end(0, "t0", "s");
            let verdicts = collect_verdicts(&out, 1).unwrap();
            let stats = engine.drain();
            (
                verdicts[&("t0".to_string(), "s".to_string())].clone(),
                stats,
            )
        };
        let (clean, _) = run(false);
        let (faulted, stats) = run(true);
        assert_eq!(clean, faulted, "re-deliveries changed the verdict");
        assert!(stats.accounted(), "{stats:?}");
        assert!(stats.stale_frames > 0, "{stats:?}");
    }

    #[test]
    fn poison_sessions_quarantine_without_harming_neighbors() {
        let (traced, splits, hmd) = fixture();
        let programs: Vec<usize> = splits.attacker_test.iter().copied().take(6).collect();
        let faults = EngineFaults {
            score_panic: 0.5,
            score_nan: 0.3,
            seed: 11,
        };
        let run = |f: EngineFaults| {
            let engine = Engine::start_with_faults(
                hmd.clone(),
                ServeConfig {
                    shards: 2,
                    session_deadline: None,
                    tenant_deadline: None,
                    ..ServeConfig::default()
                },
                f,
            )
            .unwrap();
            let out = engine.output();
            for &i in &programs {
                let session = format!("p{i}");
                for (seq, sub) in traced.subwindows(i).iter().enumerate() {
                    engine.submit_event(0, "t0", &session, seq as u64, Box::new(sub.clone()), None);
                }
                engine.submit_end(0, "t0", &session);
            }
            let verdicts = collect_verdicts(&out, programs.len()).unwrap();
            let stats = engine.drain();
            (verdicts, stats)
        };
        let (clean, _) = run(EngineFaults::default());
        let (chaotic, stats) = run(faults.clone());
        assert!(stats.accounted(), "{stats:?}");
        assert_terms_match_verdicts(chaotic.values(), &stats);
        let mut quarantined = 0u64;
        for &i in &programs {
            let id = ("t0".to_string(), format!("p{i}"));
            if faults.quarantines("t0", &format!("p{i}")) {
                assert_eq!(chaotic[&id].verdict, "abstain", "p{i}");
                assert_eq!(chaotic[&id].reason.as_deref(), Some("quarantine"), "p{i}");
                quarantined += 1;
            } else {
                assert_eq!(chaotic[&id], clean[&id], "untargeted p{i} perturbed");
            }
        }
        assert!(
            quarantined > 0,
            "fault rates too low to exercise quarantine"
        );
        assert_eq!(stats.quarantined, quarantined, "{stats:?}");
        assert_eq!(
            stats.decided + stats.abstained,
            programs.len() as u64 - quarantined
        );
    }

    #[test]
    fn killed_shard_recovers_bit_identically() {
        let (traced, splits, hmd) = fixture();
        let programs: Vec<usize> = splits.attacker_test.iter().copied().take(4).collect();
        let run = |kill: bool| {
            let engine = Engine::start_with_faults(
                hmd.clone(),
                ServeConfig {
                    shards: 1,
                    session_deadline: None,
                    tenant_deadline: None,
                    ..ServeConfig::default()
                },
                EngineFaults::default(),
            )
            .unwrap();
            let out = engine.output();
            // First half of every session's stream...
            for &i in &programs {
                let session = format!("p{i}");
                let subs = traced.subwindows(i);
                for (seq, sub) in subs.iter().take(subs.len() / 2).enumerate() {
                    engine.submit_event(0, "t0", &session, seq as u64, Box::new(sub.clone()), None);
                }
            }
            if kill {
                // ...then the shard dies (flush + sync + panic) and the
                // supervisor restores it from snapshots...
                assert!(engine.kill_shard(0));
                let began = Instant::now();
                while engine.stats().shard_restarts == 0 {
                    assert!(began.elapsed() < Duration::from_secs(10), "no restart");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            // ...and the streams complete as if nothing happened.
            for &i in &programs {
                let session = format!("p{i}");
                let subs = traced.subwindows(i);
                for (seq, sub) in subs.iter().enumerate().skip(subs.len() / 2) {
                    engine.submit_event(0, "t0", &session, seq as u64, Box::new(sub.clone()), None);
                }
                engine.submit_end(0, "t0", &session);
            }
            let verdicts = collect_verdicts(&out, programs.len()).unwrap();
            let stats = engine.drain();
            (verdicts, stats)
        };
        let (clean, _) = run(false);
        let (recovered, stats) = run(true);
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.shard_restarts, 1, "{stats:?}");
        for (id, v) in &clean {
            assert_eq!(
                recovered[id], *v,
                "verdict changed across kill/restore: {id:?}"
            );
        }
        assert!(!recovered.is_empty());
    }

    #[test]
    fn exhausted_restart_budget_fails_fast_with_exact_accounting() {
        let (traced, _, hmd) = fixture();
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                restart_budget: 0,
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        let subs = traced.subwindows(0);
        for (seq, sub) in subs.iter().take(3).enumerate() {
            engine.submit_event(0, "t0", "doomed", seq as u64, Box::new(sub.clone()), None);
        }
        assert!(engine.kill_shard(0));
        let began = Instant::now();
        while !engine.failed() {
            assert!(
                began.elapsed() < Duration::from_secs(10),
                "engine never failed fast"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(engine.last_error().unwrap().contains("budget"));
        // The doomed session got an explicit shard-down abstention.
        let verdicts = collect_verdicts(&out, 1).unwrap();
        let v = &verdicts[&("t0".to_string(), "doomed".to_string())];
        assert_eq!(v.verdict, "abstain");
        assert_eq!(v.reason.as_deref(), Some("shard-down"));
        let stats = engine.drain();
        assert!(stats.accounted(), "{stats:?}");
        assert_terms_match_verdicts(verdicts.values(), &stats);
        assert_eq!(stats.shard_restarts, 0);
    }

    /// Serve's verdict rule, pinned: the coverage floor is inclusive, as
    /// in `VerdictPolicy::judge_quorum`, but an exact tie convicts
    /// (`QuorumVerdict::is_malware`), where `judge_quorum` acquits it.
    #[test]
    fn ties_convict_and_the_coverage_floor_is_inclusive() {
        let (traced, _, hmd) = fixture();
        let per = (hmd.spec().period / SUBWINDOW) as usize;
        // One full window of each vote, taken from the traced corpus.
        let mut chunks: [Option<Vec<RawWindow>>; 2] = [None, None];
        for program in 0..traced.corpus().labels().len() {
            for chunk in traced.subwindows(program).chunks_exact(per) {
                let window = aggregate_with_gaps(chunk, hmd.spec().period, 1.0);
                if let [w] = window.as_slice() {
                    if let Some(flagged) = hmd.classify_window_checked(w) {
                        chunks[usize::from(flagged)].get_or_insert_with(|| chunk.to_vec());
                    }
                }
            }
        }
        let [Some(benign), Some(flagged)] = chunks else {
            panic!("the fixture model never votes both ways");
        };
        // The widest load count a subwindow can carry, against an
        // instruction counter that reads zero: no healthy window reaches
        // that rate, the core's window check finds the projection corrupt,
        // and this window abstains.
        let mut corrupt = benign.clone();
        corrupt[0].counters.loads = u16::MAX;
        for sub in &mut corrupt {
            sub.counters.instructions = 0;
        }
        let engine = Engine::start_with_faults(
            hmd,
            ServeConfig {
                shards: 1,
                min_coverage: 0.5,
                session_deadline: None,
                tenant_deadline: None,
                ..ServeConfig::default()
            },
            EngineFaults::default(),
        )
        .unwrap();
        let out = engine.output();
        let sessions: [(&str, Vec<&[RawWindow]>); 3] = [
            ("tie", vec![&flagged, &benign]),
            ("at-floor", vec![&flagged, &corrupt]),
            ("below-floor", vec![&flagged, &corrupt, &corrupt]),
        ];
        for (session, windows) in &sessions {
            let subs = windows.iter().flat_map(|w| w.iter());
            for (seq, sub) in subs.enumerate() {
                engine.submit_event(0, "t0", session, seq as u64, Box::new(sub.clone()), None);
            }
            engine.submit_end(0, "t0", session);
        }
        let verdicts = collect_verdicts(&out, sessions.len()).unwrap();
        let line = |s: &str| {
            let v = &verdicts[&("t0".to_string(), s.to_string())];
            (
                v.verdict.as_str(),
                v.reason.as_deref(),
                v.voted,
                v.abstained,
            )
        };
        assert_eq!(line("tie"), ("malware", None, 2, 0), "a tie convicts");
        assert_eq!(
            line("at-floor"),
            ("malware", None, 1, 1),
            "coverage 0.5 decides"
        );
        assert_eq!(line("below-floor"), ("abstain", Some("coverage"), 1, 2));
        let stats = engine.drain();
        assert_terms_match_verdicts(verdicts.values(), &stats);
    }
}
