//! Frozen pre-refactor µarch implementation, kept as the differential
//! oracle for the optimized structures.
//!
//! These are the seed-era scan-based structures exactly as they shipped
//! before the trace-phase hot-path work: the cache divides by the set
//! count at runtime, probes ways with a linear scan, and picks its LRU
//! victim with a second `min_by_key` pass over the stamps; the TLB scans
//! every entry on each translation. [`ReferenceCore`] wires them together
//! with the original per-event commit-stage body.
//!
//! **Do not optimize this module.** Its entire value is that it shares no
//! code with [`crate::cache::Cache`], [`crate::tlb::Tlb`], or the batched
//! [`crate::CoreModel`] paths, so agreement between the two is evidence of
//! correctness rather than of a shared bug. It also serves as the "before"
//! leg of the trace floor in `crates/bench/tests/speed_floors.rs`: the
//! pre-refactor path the speedup gate is measured against.

use crate::branch::{Btb, GsharePredictor};
use crate::cache::CacheConfig;
use crate::core::{CoreConfig, CounterSource};
use crate::events::CounterSet;
use crate::tlb::{TlbConfig, PAGE_BYTES};
use rhmd_trace::exec::{BranchKind, ExecEvent, Observer};

/// Seed-era set-associative LRU cache: runtime division for the set index,
/// linear way scan, and a stamp `min_by_key` pass to find the victim.
#[derive(Debug, Clone)]
pub struct ScanCache {
    ways: usize,
    sets: u32,
    line_shift: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl ScanCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> ScanCache {
        let sets = config.sets();
        let entries = (sets * config.ways) as usize;
        ScanCache {
            ways: config.ways as usize,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; entries],
            stamps: vec![0; entries],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Performs one access; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line % u64::from(self.sets)) as usize;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        self.misses += 1;
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Accesses that straddle a line boundary touch both lines; returns the
    /// number of misses incurred (0–2).
    pub fn access_range(&mut self, addr: u64, size: u8) -> u32 {
        let first = u32::from(!self.access(addr));
        if size > 1 {
            let last = addr + u64::from(size) - 1;
            if (last >> self.line_shift) != (addr >> self.line_shift) {
                return first + u32::from(!self.access(last));
            }
        }
        first
    }
}

/// Seed-era fully-associative TLB: a linear scan over every entry per
/// translation, stamp-based LRU eviction.
#[derive(Debug, Clone)]
pub struct ScanTlb {
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// Total translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

impl ScanTlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the entry count is zero.
    pub fn new(config: TlbConfig) -> ScanTlb {
        assert!(config.entries > 0, "TLB needs at least one entry");
        ScanTlb {
            pages: vec![u64::MAX; config.entries as usize],
            stamps: vec![0; config.entries as usize],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Translates one address; returns `true` on hit. Misses install the
    /// page, evicting the LRU entry.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let page = addr / PAGE_BYTES;
        if let Some(slot) = self.pages.iter().position(|&p| p == page) {
            self.stamps[slot] = self.clock;
            return true;
        }
        self.misses += 1;
        let victim = (0..self.pages.len())
            .min_by_key(|&i| self.stamps[i])
            .expect("entries > 0");
        self.pages[victim] = page;
        self.stamps[victim] = self.clock;
        false
    }
}

/// The seed-era commit-stage model: scan-based structures driven one
/// [`ExecEvent`] at a time. Decision-identical to [`crate::CoreModel`] —
/// and kept around precisely so that claim stays testable.
#[derive(Debug, Clone)]
pub struct ReferenceCore {
    icache: ScanCache,
    dcache: ScanCache,
    l2: ScanCache,
    itlb: ScanTlb,
    dtlb: ScanTlb,
    gshare: GsharePredictor,
    btb: Btb,
    counters: CounterSet,
}

impl ReferenceCore {
    /// Creates a core with cold structures.
    pub fn new(config: CoreConfig) -> ReferenceCore {
        ReferenceCore {
            icache: ScanCache::new(config.icache),
            dcache: ScanCache::new(config.dcache),
            l2: ScanCache::new(config.l2),
            itlb: ScanTlb::new(config.itlb),
            dtlb: ScanTlb::new(config.dtlb),
            gshare: GsharePredictor::new(config.branch.ghr_bits),
            btb: Btb::new(config.branch.btb_entries),
            counters: CounterSet::default(),
        }
    }

    /// Read-only view of the counters accumulated so far.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }
}

impl CounterSource for ReferenceCore {
    fn drain_counters(&mut self) -> CounterSet {
        std::mem::take(&mut self.counters)
    }
}

impl Observer for ReferenceCore {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        let c = &mut self.counters;
        c.instructions += 1;

        // Instruction fetch.
        if !self.itlb.access(ev.pc) {
            c.itlb_misses += 1;
        }
        let ic_misses = self.icache.access_range(ev.pc, 4);
        c.icache_misses += ic_misses;
        if ic_misses > 0 && !self.l2.access(ev.pc) {
            c.l2_misses += 1;
        }

        // Data access.
        if let Some(mem) = ev.mem {
            if !self.dtlb.access(mem.addr) {
                c.dtlb_misses += 1;
            }
            let misses = self.dcache.access_range(mem.addr, mem.size);
            c.dcache_misses += misses;
            if misses > 0 && !self.l2.access(mem.addr) {
                c.l2_misses += 1;
            }
            if ev.opcode.is_load() {
                c.loads += 1;
            }
            if ev.opcode.is_store() {
                c.stores += 1;
            }
            if mem.is_unaligned() {
                c.unaligned += 1;
            }
        }

        // Control flow.
        if let Some(branch) = ev.branch {
            match branch.kind {
                BranchKind::Conditional => {
                    c.cond_branches += 1;
                    if !self.gshare.predict_and_update(ev.pc, branch.taken) {
                        c.mispredicts += 1;
                    }
                }
                BranchKind::Call => c.calls += 1,
                BranchKind::Return => c.returns += 1,
                BranchKind::Jump => {}
            }
            if branch.taken {
                c.taken_branches += 1;
                if !self.btb.lookup_and_update(ev.pc, branch.target) {
                    c.btb_misses += 1;
                }
            }
        }

        if ev.syscall {
            c.syscalls += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreModel, Tlb};
    use crate::cache::Cache;
    use rhmd_trace::exec::ExecLimits;
    use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                               ProgramGenerator};

    /// The optimized per-event core must be decision-identical to the
    /// frozen seed implementation over realistic traces.
    #[test]
    fn optimized_core_matches_reference() {
        let profiles = [
            benign_profile(BenignClass::Browser),
            benign_profile(BenignClass::SpecCompute),
            malware_profile(MalwareFamily::Worm),
            malware_profile(MalwareFamily::Keylogger),
        ];
        for (seed, profile) in profiles.into_iter().enumerate() {
            let p = ProgramGenerator::new(profile).generate(seed as u64 + 11);
            let mut reference = ReferenceCore::new(CoreConfig::default());
            let mut optimized = CoreModel::new(CoreConfig::default());
            p.execute(ExecLimits::instructions(30_000), &mut reference);
            p.execute(ExecLimits::instructions(30_000), &mut optimized);
            assert_eq!(reference.drain_counters(), optimized.drain_counters());
        }
    }

    /// Structure-level cross-check on adversarial address streams.
    #[test]
    fn scan_structures_match_optimized_structures() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let cache_cfg = CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 };
        let tlb_cfg = TlbConfig { entries: 4 };
        let mut scan_cache = ScanCache::new(cache_cfg);
        let mut cache = Cache::new(cache_cfg);
        let mut scan_tlb = ScanTlb::new(tlb_cfg);
        let mut tlb = Tlb::new(tlb_cfg);
        // Misses counted from the optimized structures' answers.
        let (mut cache_misses, mut tlb_misses) = (0u64, 0u64);
        for _ in 0..50_000 {
            let addr = next() % (1 << 16);
            let cache_hit = cache.access(addr);
            let tlb_hit = tlb.access(addr);
            assert_eq!(scan_cache.access(addr), cache_hit);
            assert_eq!(scan_tlb.access(addr), tlb_hit);
            cache_misses += u64::from(!cache_hit);
            tlb_misses += u64::from(!tlb_hit);
        }
        assert_eq!(scan_cache.misses, cache_misses);
        assert_eq!(scan_tlb.misses, tlb_misses);
    }
}
