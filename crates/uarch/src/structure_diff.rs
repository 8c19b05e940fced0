//! Differential structure suite: [`Cache`] against the frozen [`ScanCache`]
//! and [`Tlb`] against [`ScanTlb`], access by access — the hit/miss
//! sequence, `accesses` and `misses`. Streams mix repeats, strides, local
//! and far random addresses and addresses at the very top of the address
//! space, with straddling sizes from 1 to 255 and `bulk_repeat` runs after
//! fetch-style accesses. `PROPTEST_CASES` deepens the search.

use crate::cache::{Cache, CacheConfig};
use crate::reference::{ScanCache, ScanTlb};
use crate::tlb::{PageMemo, Tlb, TlbConfig, PAGE_BYTES};
use proptest::prelude::*;

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
    #[test]
    fn cache_matches_scan_cache(
        ways in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
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
        for i in 0..len {
            match s.rng.below(8) {
                // A fetch, then a run of repeats on the line it touched last.
                0 => {
                    let pc = s.range(4) & !3;
                    prop_assert_eq!(fast.access_range(pc, 4), scan.access_range(pc, 4), "fetch {}", i);
                    let last = if (pc + 3) >> line_log2 != pc >> line_log2 { pc + 3 } else { pc };
                    let n = 1 + s.rng.below(16);
                    fast.bulk_repeat(n);
                    for _ in 0..n {
                        prop_assert!(scan.access(last), "repeat after fetch {} missed", i);
                    }
                }
                1..=3 => {
                    let addr = s.addr();
                    prop_assert_eq!(fast.access(addr), scan.access(addr), "access {} at {:#x}", i, addr);
                }
                _ => {
                    let size = s.size();
                    let addr = s.range(size);
                    prop_assert_eq!(
                        fast.access_range(addr, size),
                        scan.access_range(addr, size),
                        "range {} at {:#x} size {}", i, addr, size
                    );
                }
            }
            prop_assert_eq!(fast.accesses, scan.accesses, "accesses after op {}", i);
            prop_assert_eq!(fast.misses, scan.misses, "misses after op {}", i);
        }
    }

    /// Every translation path of the TLB — plain, last-page memo,
    /// per-stream memo and bulk repeat — against the stamp scan.
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
        for i in 0..len {
            let addr = s.addr();
            let hit = match s.rng.below(4) {
                0 => fast.access(addr),
                1 => fast.access_memoized(addr),
                _ => fast.access_hinted(addr, &mut memos[s.rng.below(3) as usize]),
            };
            prop_assert_eq!(hit, scan.access(addr), "access {} at {:#x}", i, addr);
            // A fetch-style run: repeats of the page just translated.
            if s.rng.below(8) == 0 {
                let n = 1 + s.rng.below(16);
                fast.bulk_repeat(n);
                for _ in 0..n {
                    prop_assert!(scan.access(addr), "repeat after access {} missed", i);
                }
            }
            prop_assert_eq!(fast.accesses, scan.accesses, "accesses after op {}", i);
            prop_assert_eq!(fast.misses, scan.misses, "misses after op {}", i);
        }
    }
}
