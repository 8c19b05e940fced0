//! Differential structure suite: [`Cache`] against the frozen [`ScanCache`]
//! and [`Tlb`] against [`ScanTlb`], access by access — the hit/miss
//! sequence, and the frozen structures' `accesses` and `misses` against
//! the same tallies counted from the fast structure's answers. Streams mix
//! repeats, strides, local and far random addresses and addresses at the
//! very top of the address space, with straddling sizes from 1 to 255 and
//! runs of repeats after fetch-style accesses, each of which must hit on
//! both sides.
//!
//! [`ReferenceCore`](crate::ReferenceCore) shares [`GsharePredictor`],
//! [`Btb`] and [`MemAccess::is_unaligned`] with the optimized core, so the
//! branch-free forms of those are checked here against frozen copies of
//! the branchy code they replaced: [`BranchyGshare`], [`BranchyBtb`] and
//! [`unaligned_by_remainder`]. `PROPTEST_CASES` deepens the search.

use crate::branch::{Btb, GsharePredictor};
use crate::cache::{Cache, CacheConfig};
use crate::reference::{ScanCache, ScanTlb};
use crate::tlb::{PageMemo, Tlb, TlbConfig, PAGE_BYTES};
use proptest::prelude::*;
use rhmd_trace::exec::MemAccess;

/// The gshare predictor as it was before its update went branch-free:
/// the outcome picks which saturating step runs.
struct BranchyGshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
    predictions: u64,
    mispredictions: u64,
}

impl BranchyGshare {
    fn new(ghr_bits: u32) -> BranchyGshare {
        let size = 1usize << ghr_bits;
        BranchyGshare {
            table: vec![1; size],
            history: 0,
            mask: (size - 1) as u64,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.predictions += 1;
        let idx = self.index(pc);
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        if !correct {
            self.mispredictions += 1;
        }
        self.table[idx] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        correct
    }
}

/// The BTB as it was before it wrote its slot on every lookup: only a
/// miss installs.
struct BranchyBtb {
    tags: Vec<u64>,
    targets: Vec<u64>,
    mask: u64,
    lookups: u64,
    misses: u64,
}

impl BranchyBtb {
    fn new(entries: u32) -> BranchyBtb {
        BranchyBtb {
            tags: vec![u64::MAX; entries as usize],
            targets: vec![0; entries as usize],
            mask: u64::from(entries - 1),
            lookups: 0,
            misses: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn lookup_and_update(&mut self, pc: u64, target: u64) -> bool {
        self.lookups += 1;
        let idx = self.index(pc);
        let hit = self.tags[idx] == pc && self.targets[idx] == target;
        if !hit {
            self.misses += 1;
            self.tags[idx] = pc;
            self.targets[idx] = target;
        }
        hit
    }
}

/// The misalignment predicate as a remainder, before power-of-two sizes
/// took a mask.
fn unaligned_by_remainder(addr: u64, size: u8) -> bool {
    size > 1 && !addr.is_multiple_of(u64::from(size))
}

/// SplitMix64: the stream generator, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An address stream for a structure that holds `reach` bytes.
struct Stream {
    rng: Mix,
    prev: u64,
    stride: u64,
    span: u64,
}

impl Stream {
    fn new(seed: u64, reach: u64) -> Stream {
        let mut rng = Mix(seed);
        // Working sets from half the reach (mostly hits) to four times it
        // (eviction pressure).
        let span = (reach / 2).max(1) << rng.below(4);
        let stride = [1, 4, 8, 64, 4096, 4100][rng.below(6) as usize];
        Stream {
            rng,
            prev: 0,
            stride,
            span,
        }
    }

    fn addr(&mut self) -> u64 {
        let addr = match self.rng.below(7) {
            0 => self.prev,
            1 => self.prev.wrapping_add(self.rng.below(8)),
            2 => self.prev.wrapping_add(self.stride),
            3 | 4 => self.rng.below(self.span),
            // The top page's number, 2^52 - 1, packs into the TLB index
            // word nearest the empty marker.
            5 => u64::MAX - self.rng.below(self.span),
            _ => self.rng.next(),
        };
        self.prev = addr;
        addr
    }

    /// A `size`-byte access address; `access_range` computes
    /// `addr + size - 1`, which must not overflow.
    fn range(&mut self, size: u8) -> u64 {
        self.addr().min(u64::MAX - u64::from(size))
    }

    fn size(&mut self) -> u8 {
        1 + self.rng.below(255) as u8
    }
}

proptest! {
    /// The 4- and 8-way sets take the fixed-size move-to-front; every other
    /// associativity, powers of two or not, takes the carry loop.
    #[test]
    fn cache_matches_scan_cache(
        ways in prop::sample::select(vec![1u32, 2, 3, 4, 6, 8, 16, 32]),
        sets_log2 in 0u32..7,
        line_log2 in 1u32..13,
        seed in any::<u64>(),
        len in 1usize..1500,
    ) {
        let config = CacheConfig {
            size_bytes: (ways << sets_log2) << line_log2,
            line_bytes: 1 << line_log2,
            ways,
        };
        let mut fast = Cache::new(config);
        let mut scan = ScanCache::new(config);
        let mut s = Stream::new(seed, u64::from(config.size_bytes));
        // Tallies of the fast cache's answers: lines touched and missed.
        let (mut accesses, mut misses) = (0u64, 0u64);
        let straddles = |addr: u64, size: u8| {
            u64::from(size > 1 && (addr + u64::from(size) - 1) >> line_log2 != addr >> line_log2)
        };
        for i in 0..len {
            match s.rng.below(8) {
                // A fetch, then a run of repeats on the line it touched last.
                0 => {
                    let pc = s.range(4) & !3;
                    let missed = fast.access_range(pc, 4);
                    prop_assert_eq!(missed, scan.access_range(pc, 4), "fetch {}", i);
                    accesses += 1 + straddles(pc, 4);
                    misses += u64::from(missed);
                    let last = if (pc + 3) >> line_log2 != pc >> line_log2 { pc + 3 } else { pc };
                    let n = 1 + s.rng.below(16);
                    for _ in 0..n {
                        prop_assert!(fast.access(last), "repeat after fetch {} missed", i);
                        prop_assert!(scan.access(last), "scan repeat after fetch {} missed", i);
                    }
                    accesses += n;
                }
                1..=3 => {
                    let addr = s.addr();
                    let hit = fast.access(addr);
                    prop_assert_eq!(hit, scan.access(addr), "access {} at {:#x}", i, addr);
                    accesses += 1;
                    misses += u64::from(!hit);
                }
                _ => {
                    let size = s.size();
                    let addr = s.range(size);
                    let missed = fast.access_range(addr, size);
                    prop_assert_eq!(
                        missed,
                        scan.access_range(addr, size),
                        "range {} at {:#x} size {}", i, addr, size
                    );
                    accesses += 1 + straddles(addr, size);
                    misses += u64::from(missed);
                }
            }
            prop_assert_eq!(accesses, scan.accesses, "accesses after op {}", i);
            prop_assert_eq!(misses, scan.misses, "misses after op {}", i);
        }
    }

    /// Every translation path of the TLB — plain, last-page memo and
    /// per-stream memo, then runs of repeats of the page just translated —
    /// against the stamp scan.
    #[test]
    fn tlb_matches_scan_tlb(
        entries in prop::sample::select(vec![1u32, 2, 3, 64, 4095]),
        seed in any::<u64>(),
        len in 1usize..1500,
    ) {
        let config = TlbConfig { entries };
        let mut fast = Tlb::new(config);
        let mut scan = ScanTlb::new(config);
        let mut memos = [PageMemo::default(); 3];
        let mut s = Stream::new(seed, u64::from(entries) * PAGE_BYTES);
        // Tallies of the fast TLB's answers.
        let (mut accesses, mut misses) = (0u64, 0u64);
        for i in 0..len {
            let addr = s.addr();
            let hit = match s.rng.below(4) {
                0 => fast.access(addr),
                1 => fast.access_memoized(addr),
                _ => fast.access_hinted(addr, &mut memos[s.rng.below(3) as usize]),
            };
            prop_assert_eq!(hit, scan.access(addr), "access {} at {:#x}", i, addr);
            accesses += 1;
            misses += u64::from(!hit);
            // A fetch-style run: repeats of the page just translated.
            if s.rng.below(8) == 0 {
                let n = 1 + s.rng.below(16);
                for _ in 0..n {
                    prop_assert!(fast.access(addr), "repeat after access {} missed", i);
                    prop_assert!(scan.access(addr), "scan repeat after access {} missed", i);
                }
                accesses += n;
            }
            prop_assert_eq!(accesses, scan.accesses, "accesses after op {}", i);
            prop_assert_eq!(misses, scan.misses, "misses after op {}", i);
        }
    }

    /// The branch-free predictor against the branchy one, branch by
    /// branch: the verdict, both counters, the history and the counter the
    /// branch trained. Few pcs and runs of one outcome drive counters into
    /// saturation at 0 and at 3 and hold them there.
    #[test]
    fn gshare_matches_branchy_gshare(
        ghr_bits in 4u32..13,
        seed in any::<u64>(),
        len in 1usize..1500,
    ) {
        let mut fast = GsharePredictor::new(ghr_bits);
        let mut slow = BranchyGshare::new(ghr_bits);
        // Tallies of the fast predictor's verdicts.
        let (mut predictions, mut mispredictions) = (0u64, 0u64);
        let mut rng = Mix(seed);
        let pcs: Vec<u64> = (0..1 + rng.below(8)).map(|_| rng.next()).collect();
        // Taken with probability bias/8: never, always, or in between.
        let bias = rng.below(9);
        let mut taken = false;
        for i in 0..len {
            let pc = pcs[rng.below(pcs.len() as u64) as usize];
            // Mostly repeat the last outcome, so runs outlast the counters.
            if rng.below(8) == 0 {
                taken = rng.below(8) < bias;
            }
            let idx = slow.index(pc);
            let correct = fast.predict_and_update(pc, taken);
            prop_assert_eq!(correct, slow.predict_and_update(pc, taken), "branch {} at {:#x}", i, pc);
            predictions += 1;
            mispredictions += u64::from(!correct);
            prop_assert_eq!(predictions, slow.predictions, "predictions after {}", i);
            prop_assert_eq!(mispredictions, slow.mispredictions, "mispredictions after {}", i);
            prop_assert_eq!(fast.history(), slow.history, "history after {}", i);
            prop_assert_eq!(fast.counter(idx), slow.table[idx], "counter {} after {}", idx, i);
        }
    }

    /// The always-writing BTB against the miss-only writer, lookup by
    /// lookup: the verdict, both counters and the slot the lookup used.
    /// Pcs alias onto shared slots (including the top of the address space
    /// and the invalid tag itself) and change targets.
    #[test]
    fn btb_matches_branchy_btb(
        entries in prop::sample::select(vec![1u32, 2, 16, 512]),
        seed in any::<u64>(),
        len in 1usize..1500,
    ) {
        let mut fast = Btb::new(entries);
        let mut slow = BranchyBtb::new(entries);
        // Tallies of the fast BTB's verdicts.
        let (mut lookups, mut misses) = (0u64, 0u64);
        let mut rng = Mix(seed);
        let alias = u64::from(entries) * 4;
        let bases = [0, rng.next() & !3, u64::MAX - rng.below(4 * alias), u64::MAX];
        let targets = [0, 4, rng.next(), u64::MAX];
        for i in 0..len {
            let pc = bases[rng.below(4) as usize].wrapping_add(alias * rng.below(3));
            let target = targets[rng.below(4) as usize];
            let idx = slow.index(pc);
            let hit = fast.lookup_and_update(pc, target);
            prop_assert_eq!(
                hit,
                slow.lookup_and_update(pc, target),
                "lookup {} at {:#x} -> {:#x}", i, pc, target
            );
            lookups += 1;
            misses += u64::from(!hit);
            prop_assert_eq!(lookups, slow.lookups, "lookups after {}", i);
            prop_assert_eq!(misses, slow.misses, "misses after {}", i);
            prop_assert_eq!(
                fast.slot(idx),
                (slow.tags[idx], slow.targets[idx]),
                "slot {} after {}", idx, i
            );
        }
    }

    /// The masked misalignment predicate against the remainder, for every
    /// size from 0 to 255 at addresses near 0, near `u64::MAX` and anywhere.
    #[test]
    fn unaligned_matches_remainder(near in 0u8..3, raw in any::<u64>()) {
        let addr = match near {
            0 => raw % 4096,
            1 => u64::MAX - raw % 4096,
            _ => raw,
        };
        for size in 0..=u8::MAX {
            prop_assert_eq!(
                MemAccess { addr, size }.is_unaligned(),
                unaligned_by_remainder(addr, size),
                "addr {:#x} size {}", addr, size
            );
        }
    }
}
