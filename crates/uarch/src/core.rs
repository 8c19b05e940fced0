//! The in-order core model that turns committed instructions into hardware
//! events.

use crate::branch::{BranchConfig, Btb, GsharePredictor};
use crate::cache::{Cache, CacheConfig};
use crate::events::CounterSet;
use crate::tlb::{PageMemo, Tlb, TlbConfig};
use rhmd_trace::exec::{BranchKind, BranchOutcome, ExecEvent, MemAccess, Observer};
use serde::{Deserialize, Serialize};

/// Full core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Unified second-level cache geometry.
    pub l2: CacheConfig,
    /// Instruction-TLB geometry.
    pub itlb: TlbConfig,
    /// Data-TLB geometry.
    pub dtlb: TlbConfig,
    /// Branch unit configuration.
    pub branch: BranchConfig,
}

impl Default for CoreConfig {
    /// 32 KiB L1I + 32 KiB L1D, 4K-entry gshare, 512-entry BTB — an
    /// AO486-class embedded core scaled to modern L1 sizes.
    fn default() -> CoreConfig {
        CoreConfig {
            icache: CacheConfig::l1_32k(),
            dcache: CacheConfig::l1_32k(),
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            itlb: TlbConfig { entries: 32 },
            dtlb: TlbConfig { entries: 64 },
            branch: BranchConfig::default(),
        }
    }
}

/// Commit-stage models that accumulate a [`CounterSet`] and can be
/// drained per collection window.
///
/// Implemented by the optimized [`CoreModel`] and the frozen
/// [`crate::reference::ReferenceCore`], so window accumulation can run
/// against either without caring which substrate is underneath.
pub trait CounterSource {
    /// Returns the counters accumulated since the last drain and resets
    /// them. Microarchitectural state (cache contents, predictor tables)
    /// persists, as in real hardware.
    fn drain_counters(&mut self) -> CounterSet;
}

/// Commit-stage model: consumes [`ExecEvent`]s, updates caches and
/// predictors, and accumulates [`CounterSet`] readings.
///
/// The paper's detectors "collect information from the commit stage of the
/// pipeline" (§7); this type is that collection logic.
///
/// # Examples
///
/// ```
/// use rhmd_trace::exec::ExecLimits;
/// use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
/// use rhmd_uarch::core::{CoreConfig, CoreModel};
///
/// let program = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(0);
/// let mut core = CoreModel::new(CoreConfig::default());
/// program.execute(ExecLimits::instructions(10_000), &mut core);
/// let counters = core.drain_counters();
/// assert_eq!(counters.instructions, 10_000);
/// assert!(counters.cond_branches > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CoreModel {
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    gshare: GsharePredictor,
    btb: Btb,
    counters: CounterSet,
}

impl CoreModel {
    /// Creates a core with cold structures.
    pub fn new(config: CoreConfig) -> CoreModel {
        CoreModel {
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            gshare: GsharePredictor::new(config.branch.ghr_bits),
            btb: Btb::new(config.branch.btb_entries),
            counters: CounterSet::default(),
        }
    }

    /// Returns the counters accumulated since the last drain and resets
    /// them. Microarchitectural state (cache contents, predictor tables)
    /// persists, as in real hardware.
    pub fn drain_counters(&mut self) -> CounterSet {
        std::mem::take(&mut self.counters)
    }

    /// Read-only view of the counters accumulated so far.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Bytes guaranteed to share one I-cache line *and* one page. After one
    /// [`CoreModel::fetch_one`] in such a span, further fetches in it hit
    /// the line at the front of its set and the page at the head of the
    /// I-TLB's recency list, which changes no state and no counter, so a
    /// batched caller fetches once per span.
    pub fn fetch_span_bytes(&self) -> u64 {
        u64::from(self.icache.config().line_bytes).min(crate::tlb::PAGE_BYTES)
    }

    /// Bulk-adds `n` committed instructions to the counters.
    #[inline]
    pub fn add_instructions(&mut self, n: u32) {
        self.counters.instructions += n;
    }

    /// One full instruction fetch at `pc` — the fetch section of
    /// [`Observer::observe`], with the I-TLB's last-page fast path.
    /// Bit-identical counter and structure evolution.
    #[inline]
    pub fn fetch_one(&mut self, pc: u64) {
        let c = &mut self.counters;
        if !self.itlb.access_memoized(pc) {
            c.itlb_misses += 1;
        }
        let ic_misses = self.icache.access_range(pc, 4);
        c.icache_misses += ic_misses;
        if ic_misses > 0 && !self.l2.access(pc) {
            c.l2_misses += 1;
        }
    }

    /// The data-access section of [`Observer::observe`] — D-TLB, D-cache
    /// (with straddle), L2 on miss, and the load/store/unaligned counters —
    /// with a caller-owned per-stream D-TLB memo. The D-TLB's internal
    /// last-page memo is depth 1 and thrashes when logical address streams
    /// interleave; a caller that knows which stream issued the access (the
    /// batched executor carries the stream id in the flat IR) keeps one
    /// [`PageMemo`] per stream and recovers the locality. Bit-identical
    /// counter and structure evolution.
    #[inline]
    pub fn data_access_hinted(
        &mut self,
        addr: u64,
        size: u8,
        is_load: bool,
        is_store: bool,
        memo: &mut PageMemo,
    ) {
        let dtlb_hit = self.dtlb.access_hinted(addr, memo);
        self.data_access(dtlb_hit, addr, size, is_load, is_store);
    }

    /// Everything of a data access after the D-TLB lookup.
    #[inline]
    fn data_access(&mut self, dtlb_hit: bool, addr: u64, size: u8, is_load: bool, is_store: bool) {
        let c = &mut self.counters;
        if !dtlb_hit {
            c.dtlb_misses += 1;
        }
        let misses = self.dcache.access_range(addr, size);
        c.dcache_misses += misses;
        if misses > 0 && !self.l2.access(addr) {
            c.l2_misses += 1;
        }
        if is_load {
            c.loads += 1;
        }
        if is_store {
            c.stores += 1;
        }
        if (MemAccess { addr, size }).is_unaligned() {
            c.unaligned += 1;
        }
    }

    /// The control-flow section of [`Observer::observe`]: direction
    /// prediction, BTB lookup, and the branch-class counters.
    #[inline]
    pub fn branch_event(&mut self, pc: u64, branch: &BranchOutcome) {
        let c = &mut self.counters;
        match branch.kind {
            BranchKind::Conditional => {
                c.cond_branches += 1;
                if !self.gshare.predict_and_update(pc, branch.taken) {
                    c.mispredicts += 1;
                }
            }
            BranchKind::Call => c.calls += 1,
            BranchKind::Return => c.returns += 1,
            BranchKind::Jump => {}
        }
        if branch.taken {
            c.taken_branches += 1;
            if !self.btb.lookup_and_update(pc, branch.target) {
                c.btb_misses += 1;
            }
        }
    }

    /// Counts one system call.
    #[inline]
    pub fn count_syscall(&mut self) {
        self.counters.syscalls += 1;
    }
}

impl CounterSource for CoreModel {
    fn drain_counters(&mut self) -> CounterSet {
        CoreModel::drain_counters(self)
    }
}

impl Observer for CoreModel {
    /// One committed instruction through the same sections the batched
    /// paths call; the memoized TLB paths are state-identical to the plain
    /// ones (`structure_diff` checks them access by access).
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self.counters.instructions += 1;
        self.fetch_one(ev.pc);
        if let Some(mem) = ev.mem {
            let dtlb_hit = self.dtlb.access_memoized(mem.addr);
            self.data_access(
                dtlb_hit,
                mem.addr,
                mem.size,
                ev.opcode.is_load(),
                ev.opcode.is_store(),
            );
        }
        if let Some(branch) = ev.branch {
            self.branch_event(ev.pc, &branch);
        }
        if ev.syscall {
            self.count_syscall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_trace::exec::ExecLimits;
    use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                               ProgramGenerator};

    fn run(core: &mut CoreModel, seed: u64) -> CounterSet {
        let p = ProgramGenerator::new(benign_profile(BenignClass::SpecCompute)).generate(seed);
        p.execute(ExecLimits::instructions(20_000), core);
        core.drain_counters()
    }

    #[test]
    fn counts_are_consistent() {
        let mut core = CoreModel::new(CoreConfig::default());
        let c = run(&mut core, 1);
        assert_eq!(c.instructions, 20_000);
        assert!(c.loads > 0 && c.stores > 0);
        assert!(c.cond_branches > 0);
        assert!(c.mispredicts <= c.cond_branches);
        assert!(c.taken_branches >= c.calls + c.returns);
        assert!(c.icache_misses <= 2 * c.instructions);
    }

    #[test]
    fn drain_resets_counters() {
        let mut core = CoreModel::new(CoreConfig::default());
        let first = run(&mut core, 1);
        assert!(first.instructions > 0);
        assert_eq!(core.counters().instructions, 0);
    }

    #[test]
    fn warm_structures_miss_less() {
        let mut core = CoreModel::new(CoreConfig::default());
        let cold = run(&mut core, 7);
        // Same program again on warm structures.
        let warm = run(&mut core, 7);
        assert!(
            warm.icache_misses < cold.icache_misses,
            "warm {} vs cold {}",
            warm.icache_misses,
            cold.icache_misses
        );
        assert!(warm.mispredicts <= cold.mispredicts);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CoreModel::new(CoreConfig::default());
        let mut b = CoreModel::new(CoreConfig::default());
        assert_eq!(run(&mut a, 3), run(&mut b, 3));
    }

    #[test]
    fn classes_produce_different_profiles() {
        let mut a = CoreModel::new(CoreConfig::default());
        let spec = ProgramGenerator::new(benign_profile(BenignClass::SpecCompute)).generate(0);
        spec.execute(ExecLimits::instructions(30_000), &mut a);
        let compute = a.drain_counters();

        let mut b = CoreModel::new(CoreConfig::default());
        let worm = ProgramGenerator::new(malware_profile(MalwareFamily::Worm)).generate(0);
        worm.execute(ExecLimits::instructions(30_000), &mut b);
        let scanner = b.drain_counters();

        // A scanner's erratic control flow mispredicts far more than a
        // compute kernel's regular loops, and it performs many more system
        // calls — the class-level signals the Architectural feature uses.
        let compute_rate = compute.mispredicts as f64 / compute.cond_branches.max(1) as f64;
        let scanner_rate = scanner.mispredicts as f64 / scanner.cond_branches.max(1) as f64;
        assert!(
            scanner_rate > compute_rate,
            "scanner {scanner_rate} vs compute {compute_rate}"
        );
        assert!(scanner.syscalls > compute.syscalls);
    }
}
