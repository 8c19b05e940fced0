//! Per-session state: the sequence filter, the session's
//! [`WindowAssembler`] and the vote ledger a session's verdict is built
//! from.
//!
//! Sessions assemble windows through [`rhmd_features::window`]'s
//! assembler, the same one [`rhmd_features::window::aggregate_with_gaps`]
//! folds over on the batch `rhmd evaluate` path, which is what makes
//! `rhmd serve` replay verdicts bit-identical to it. A snapshot is a
//! clone of the whole [`SessionState`], assembler included, so a restored
//! session continues assembly exactly where it left off.

use rhmd_features::window::WindowAssembler;
use std::sync::Arc;
use std::time::Instant;

/// Identity of one program session within a tenant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// The tenant owning the session.
    pub tenant: Arc<str>,
    /// The session id, unique within the tenant.
    pub session: Arc<str>,
}

impl SessionKey {
    /// Builds a key from borrowed names.
    pub fn new(tenant: &str, session: &str) -> SessionKey {
        SessionKey {
            tenant: Arc::from(tenant),
            session: Arc::from(session),
        }
    }

    /// Stable shard index for this key (FNV-1a over tenant + session).
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self
            .tenant
            .as_bytes()
            .iter()
            .chain([0xffu8].iter())
            .chain(self.session.as_bytes())
        {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % shards as u64) as usize
    }
}

/// One vote slot in a session's ledger: reserved when a window seals,
/// resolved when its micro-batch flushes (or immediately, for abstaining
/// windows that never reach the scorer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Reserved; a batch flush will fill it.
    Pending,
    /// Resolved: `Some(flagged)` vote or `None` abstention.
    Done(Option<bool>),
}

/// Live state of one session on its owning shard worker. The engine's
/// snapshot store holds clones of it; [`SessionState::restore`] turns one
/// back into a live session on a restarted shard.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Streaming window assembly.
    pub assembler: WindowAssembler,
    /// Per-collection-window vote ledger, in window order.
    pub slots: Vec<Slot>,
    /// Next expected subwindow sequence number.
    pub next_seq: u64,
    /// Last time any message touched this session (watchdog input).
    pub last_activity: Instant,
    /// Earliest client-requested verdict deadline, if any frame carried
    /// one; past it the session finalizes as `abstain`/`deadline`.
    pub deadline_at: Option<Instant>,
    /// The connection that opened the session (verdict routing).
    pub conn: u64,
}

impl SessionState {
    /// Fresh state for a session first seen now.
    pub fn new(period: u32, min_fill: f64, conn: u64, now: Instant) -> SessionState {
        SessionState {
            assembler: WindowAssembler::new(period, min_fill),
            slots: Vec::new(),
            next_seq: 0,
            last_activity: now,
            deadline_at: None,
            conn,
        }
    }

    /// Sequence admission filter: `Some(gap)` admits the frame (recording
    /// how many sequence numbers were skipped), `None` drops it as a stale
    /// or duplicate re-delivery. Dropping rather than aborting is what
    /// makes redelivered streams assemble bit-identically to clean ones —
    /// the batch aggregator only ever sees each subwindow once.
    pub fn admit_seq(&mut self, seq: u64) -> Option<u64> {
        if seq < self.next_seq {
            return None;
        }
        let gap = seq - self.next_seq;
        self.next_seq = seq + 1;
        Some(gap)
    }

    /// Tightens the session's verdict deadline to `at` if it is earlier
    /// than any previously requested deadline.
    pub fn tighten_deadline(&mut self, at: Instant) {
        self.deadline_at = Some(match self.deadline_at {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Whether the client-requested verdict deadline has passed.
    pub fn past_deadline(&self, now: Instant) -> bool {
        self.deadline_at.is_some_and(|at| now >= at)
    }

    /// Resolved votes, in window order.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any slot is still pending — callers flush the
    /// session's micro-batch before finalizing.
    pub fn votes(&self) -> Vec<Option<bool>> {
        self.slots
            .iter()
            .map(|slot| match slot {
                Slot::Done(v) => *v,
                Slot::Pending => {
                    debug_assert!(false, "finalize before batch flush");
                    None
                }
            })
            .collect()
    }

    /// Resolved votes with pending slots degraded to abstentions — the
    /// shard-down path, where a slot's micro-batch died with its worker
    /// and will never flush.
    pub fn votes_lossy(&self) -> Vec<Option<bool>> {
        self.slots
            .iter()
            .map(|slot| match slot {
                Slot::Done(v) => *v,
                Slot::Pending => None,
            })
            .collect()
    }

    /// Rebuilds a live session from a snapshot (a clone taken on a shard
    /// that has since died). Slots that were pending at capture time
    /// resolve to abstentions (their batch never flushed); slots resolved
    /// before the snapshot keep their votes, so a kill after a full batch
    /// flush + snapshot sync recovers bit-identically.
    pub fn restore(mut self, now: Instant) -> SessionState {
        for slot in &mut self.slots {
            if *slot == Slot::Pending {
                *slot = Slot::Done(None);
            }
        }
        self.last_activity = now;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_features::window::{CollectionWindow, RawWindow, Sealed, SUBWINDOW};

    fn sub(instructions: u16) -> RawWindow {
        let mut w = RawWindow {
            instructions,
            ..RawWindow::default()
        };
        w.opcode_counts[0] = instructions;
        w
    }

    fn streamed(subs: &[RawWindow], period: u32, min_fill: f64) -> Vec<CollectionWindow> {
        let mut asm = WindowAssembler::new(period, min_fill);
        let mut out = Vec::new();
        for s in subs {
            if let Some(Sealed::Window(w)) = asm.push(s) {
                out.push(*w);
            }
        }
        if let Some(Sealed::Window(w)) = asm.finish() {
            out.push(*w);
        }
        out
    }

    #[test]
    fn partial_tail_drops_at_full_fill() {
        let subs: Vec<RawWindow> = (0..7).map(|_| sub(SUBWINDOW as u16)).collect();
        // 7 subwindows at period 5k: one full window, tail of 2 drops.
        assert_eq!(streamed(&subs, 5_000, 1.0).len(), 1);
        // With a permissive floor the 2k-instruction tail survives.
        assert_eq!(streamed(&subs, 5_000, 0.3).len(), 2);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let a = SessionKey::new("tenant-a", "s1");
        let b = SessionKey::new("tenant-a", "s1");
        assert_eq!(a, b);
        assert_eq!(a.shard(7), b.shard(7));
        for i in 0..50 {
            let k = SessionKey::new("t", &format!("s{i}"));
            assert!(k.shard(4) < 4);
        }
        // The separator byte keeps (tenant, session) concatenation
        // ambiguity out of the shard hash.
        let x = SessionKey::new("ab", "c");
        let y = SessionKey::new("a", "bc");
        assert_ne!(
            (x.tenant.len(), x.shard(1 << 30)),
            (y.tenant.len(), y.shard(1 << 30))
        );
    }

    #[test]
    fn vote_ledger_resolves() {
        let mut s = SessionState::new(5_000, 1.0, 0, Instant::now());
        s.slots.push(Slot::Done(Some(true)));
        s.slots.push(Slot::Done(None));
        assert_eq!(s.votes(), vec![Some(true), None]);
    }

    #[test]
    fn seq_filter_drops_stale_and_duplicate_frames() {
        let mut s = SessionState::new(5_000, 1.0, 0, Instant::now());
        assert_eq!(s.admit_seq(0), Some(0));
        assert_eq!(s.admit_seq(0), None, "duplicate dropped");
        assert_eq!(s.admit_seq(1), Some(0));
        assert_eq!(s.admit_seq(0), None, "stale dropped");
        assert_eq!(s.admit_seq(4), Some(2), "gap admitted and counted");
        assert_eq!(s.admit_seq(3), None, "out-of-order behind cursor dropped");
        assert_eq!(s.admit_seq(5), Some(0), "cursor resumes past the gap");
        assert_eq!(s.next_seq, 6);
    }

    #[test]
    fn deadline_tightens_to_earliest() {
        let now = Instant::now();
        let mut s = SessionState::new(5_000, 1.0, 0, now);
        assert!(!s.past_deadline(now));
        s.tighten_deadline(now + std::time::Duration::from_millis(100));
        s.tighten_deadline(now + std::time::Duration::from_millis(500));
        assert_eq!(
            s.deadline_at,
            Some(now + std::time::Duration::from_millis(100))
        );
        assert!(s.past_deadline(now + std::time::Duration::from_millis(100)));
    }

    #[test]
    fn snapshot_restore_resumes_assembly_exactly() {
        let subs: Vec<RawWindow> = (0..7).map(|i| sub(1_000 + i)).collect();
        // Straight-through assembly.
        let direct = streamed(&subs, 5_000, 0.0);
        // Snapshot after 3 subwindows, restore, continue with the rest.
        let mut s = SessionState::new(5_000, 0.0, 7, Instant::now());
        let mut resumed_out = Vec::new();
        for w in &subs[..3] {
            if let Some(Sealed::Window(w)) = s.assembler.push(w) {
                resumed_out.push(*w);
            }
        }
        s.slots.push(Slot::Done(Some(false)));
        s.slots.push(Slot::Pending);
        let mut r = s.clone().restore(Instant::now());
        assert_eq!(r.conn, 7);
        assert_eq!(
            r.slots,
            vec![Slot::Done(Some(false)), Slot::Done(None)],
            "pending slots degrade to abstentions on restore"
        );
        for w in &subs[3..] {
            if let Some(Sealed::Window(w)) = r.assembler.push(w) {
                resumed_out.push(*w);
            }
        }
        if let Some(Sealed::Window(w)) = r.assembler.finish() {
            resumed_out.push(*w);
        }
        assert_eq!(resumed_out, direct, "kill/restore does not perturb windows");
    }
}
