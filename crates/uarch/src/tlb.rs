//! Translation lookaside buffers: small fully-associative LRU caches over
//! 4 KiB pages. TLB miss rates are another commit-stage event channel the
//! Architectural feature can observe — pointer-chasing malware walks many
//! more pages than a strided kernel.
//!
//! The model is true LRU over `entries` slots. The original implementation
//! kept per-slot stamps and did an O(entries) scan per translation plus an
//! O(entries) min-stamp search per eviction; this one keeps a sparse
//! page→slot index and an intrusive recency list, making every translation
//! O(1) while preserving the exact hit/miss and eviction decisions: stamps
//! were unique and strictly increasing, so stamp order *is* recency order,
//! and the only ties — never-used slots, all stamp zero — broke toward the
//! lowest slot index, which is the order the free list pops. The golden
//! suites pin this equivalence against seed-era traces.

use serde::{Deserialize, Serialize};

/// Page size covered by one TLB entry.
pub const PAGE_BYTES: u64 = 4096;

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: u32,
}

impl Default for TlbConfig {
    /// A 64-entry L1 TLB.
    fn default() -> TlbConfig {
        TlbConfig { entries: 64 }
    }
}

/// Marker for an empty index word / invalid page.
const EMPTY: u64 = u64::MAX;

/// Bits of an index word that hold the slot.
const SLOT_BITS: u32 = 12;

/// Largest supported entry count. Slots then stay below `0xFFF`, so a
/// packed word — even for the top page, `2^52 - 1` — never equals
/// [`EMPTY`].
const MAX_ENTRIES: u32 = (1 << SLOT_BITS) - 1;

/// Index words per TLB entry: at ~3% load nearly every probe chain ends at
/// its first word, which is what the miss path (get, remove, insert) needs.
const WORDS_PER_ENTRY: usize = 32;

/// Open-addressed page→slot map with linear probing and backward-shift
/// deletion. Each word packs `page << 12 | slot`, so a probe reads one
/// array. One insert and one remove per TLB miss; one lookup per
/// translation.
#[derive(Debug, Clone)]
struct PageIndex {
    words: Vec<u64>,
    mask: usize,
}

impl PageIndex {
    fn new(entries: u32) -> PageIndex {
        let cap = (entries as usize * WORDS_PER_ENTRY).next_power_of_two();
        PageIndex {
            words: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    #[inline]
    fn start(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    #[inline]
    fn get(&self, page: u64) -> Option<u32> {
        let mut i = self.start(page);
        loop {
            let w = self.words[i];
            // EMPTY first: its page bits read as the top page.
            if w == EMPTY {
                return None;
            }
            if w >> SLOT_BITS == page {
                return Some((w & u64::from(MAX_ENTRIES)) as u32);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn insert(&mut self, page: u64, slot: u32) {
        let mut i = self.start(page);
        while self.words[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.words[i] = page << SLOT_BITS | u64::from(slot);
    }

    /// Removes `page`, which must be present.
    #[inline]
    fn remove(&mut self, page: u64) {
        let mask = self.mask;
        let mut i = self.start(page);
        // As in `get`, an empty word's page bits read as the top page.
        while self.words[i] == EMPTY || self.words[i] >> SLOT_BITS != page {
            i = (i + 1) & mask;
        }
        // Backward-shift deletion keeps probe chains intact without
        // tombstones.
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let w = self.words[j];
            if w == EMPTY {
                break;
            }
            let home = self.start(w >> SLOT_BITS);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.words[i] = w;
                i = j;
            }
        }
        self.words[i] = EMPTY;
    }
}

/// Caller-owned memo of where one access stream last translated, for
/// [`Tlb::access_hinted`]. The memo is self-validating: a hit requires the
/// remembered slot to still hold the remembered page, so a stale memo
/// simply falls back to the indexed lookup.
#[derive(Debug, Clone, Copy)]
pub struct PageMemo {
    page: u64,
    slot: usize,
}

impl Default for PageMemo {
    fn default() -> PageMemo {
        PageMemo {
            page: u64::MAX,
            slot: 0,
        }
    }
}

/// A fully-associative, true-LRU TLB.
///
/// # Examples
///
/// ```
/// use rhmd_uarch::tlb::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 2 });
/// assert!(!tlb.access(0x0000)); // cold
/// assert!(tlb.access(0x0004));  // same page
/// assert!(!tlb.access(0x2000)); // new page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Page held by each slot; [`EMPTY`] = never used.
    pages: Vec<u64>,
    /// Intrusive recency list over slots: `next` points toward LRU.
    next: Vec<u32>,
    /// Intrusive recency list over slots: `prev` points toward MRU.
    prev: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot — the eviction victim.
    tail: u32,
    index: PageIndex,
    /// Page of the most recent translation; `u64::MAX` = none yet. Only
    /// [`Tlb::access`] mutates the entry array, so the last-translated page
    /// cannot have been evicted between consecutive accesses — a repeat of
    /// it is a guaranteed hit, which the memoized fast path exploits to skip
    /// even the indexed lookup.
    last_page: u64,
    /// Slot holding `last_page`.
    last_slot: usize,
    /// Total translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the entry count is zero or above 4095 (the packed index
    /// keeps a slot in 12 bits).
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.entries <= MAX_ENTRIES,
            "TLB supports at most 4095 entries"
        );
        let n = config.entries as usize;
        // Recency order of never-used slots must pop 0, 1, 2, … to match
        // the stamp implementation's first-lowest-index tie-break: slot 0
        // is the tail, n-1 the head.
        let next: Vec<u32> = (0..n).map(|i| i.wrapping_sub(1) as u32).collect();
        let prev: Vec<u32> = (0..n).map(|i| (i + 1) as u32).collect();
        Tlb {
            pages: vec![EMPTY; n],
            next,
            prev,
            head: (n - 1) as u32,
            tail: 0,
            index: PageIndex::new(config.entries),
            last_page: u64::MAX,
            last_slot: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Moves `slot` to the MRU head of the recency list.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if slot == self.head {
            return;
        }
        // Unlink.
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        self.next[p as usize] = n;
        if slot == self.tail {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        // Link at head.
        self.next[slot as usize] = self.head;
        self.prev[self.head as usize] = slot;
        self.head = slot;
    }

    /// Translates one address; returns `true` on hit. Misses install the
    /// page, evicting the LRU entry.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr / PAGE_BYTES;
        if let Some(slot) = self.index.get(page) {
            self.touch(slot);
            self.last_page = page;
            self.last_slot = slot as usize;
            return true;
        }
        self.misses += 1;
        let victim = self.tail;
        let old = self.pages[victim as usize];
        if old != EMPTY {
            self.index.remove(old);
        }
        self.index.insert(page, victim);
        self.pages[victim as usize] = page;
        self.touch(victim);
        self.last_page = page;
        self.last_slot = victim as usize;
        false
    }

    /// [`Tlb::access`] with a last-page fast path: repeat translations of
    /// the most recently used page skip even the indexed lookup. State
    /// (entries, recency order, statistics) is identical to the plain
    /// path — a repeat of the last page is always a hit on the slot already
    /// at the MRU head, so its only effect is the access count.
    #[inline]
    pub fn access_memoized(&mut self, addr: u64) -> bool {
        if addr / PAGE_BYTES == self.last_page {
            self.accesses += 1;
            return true;
        }
        self.access(addr)
    }

    /// [`Tlb::access`] with a caller-owned per-stream memo on top of the
    /// internal last-page fast path. A repeat of the memoized page is a hit
    /// **iff** its remembered slot still holds it (`pages[slot] == page`) —
    /// one array read proves residency regardless of intervening evictions,
    /// because install only happens on a miss, so a page never occupies two
    /// slots. State evolution is identical to the plain path.
    #[inline]
    pub fn access_hinted(&mut self, addr: u64, memo: &mut PageMemo) -> bool {
        let page = addr / PAGE_BYTES;
        if page == self.last_page {
            self.accesses += 1;
            memo.page = page;
            memo.slot = self.last_slot;
            return true;
        }
        if page == memo.page && self.pages[memo.slot] == page {
            self.accesses += 1;
            self.touch(memo.slot as u32);
            self.last_page = page;
            self.last_slot = memo.slot;
            return true;
        }
        let hit = self.access(addr);
        memo.page = page;
        memo.slot = self.last_slot;
        hit
    }

    /// Applies `count` further translations of the most recently used page
    /// in one step — bit-identical to `count` calls of [`Tlb::access`] on
    /// that page, which would each hit the slot already at the MRU head.
    ///
    /// Callers must have translated at least one address beforehand; the
    /// batched executor guarantees this by construction.
    #[inline]
    pub fn bulk_repeat(&mut self, count: u64) {
        debug_assert!(self.last_page != EMPTY, "bulk_repeat before any access");
        self.accesses += count;
    }

    /// Miss rate over all translations so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert!(!tlb.access(0x1000));
        for offset in (0..PAGE_BYTES).step_by(64) {
            assert!(tlb.access(0x1000 + offset));
        }
        assert_eq!(tlb.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(TlbConfig { entries: 2 });
        let (a, b, c) = (0, PAGE_BYTES, 2 * PAGE_BYTES);
        tlb.access(a);
        tlb.access(b);
        tlb.access(a); // A hit → B is LRU
        tlb.access(c); // C evicts B
        assert!(tlb.access(a));
        assert!(!tlb.access(b));
    }

    #[test]
    fn page_walk_heavy_pattern_misses() {
        let mut tlb = Tlb::new(TlbConfig::default());
        // Touch 1000 distinct pages round-robin: far exceeds capacity.
        for i in 0..10_000u64 {
            tlb.access((i % 1000) * PAGE_BYTES);
        }
        assert!(tlb.miss_rate() > 0.9, "miss rate {}", tlb.miss_rate());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Tlb::new(TlbConfig { entries: 0 });
    }

    #[test]
    #[should_panic(expected = "at most 4095")]
    fn too_many_entries_rejected() {
        let _ = Tlb::new(TlbConfig { entries: 4096 });
    }

    /// Reference reimplementation of the original stamp-scan TLB, kept to
    /// pin the indexed implementation to the seed-era decision sequence.
    struct StampTlb {
        pages: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampTlb {
        fn new(entries: u32) -> StampTlb {
            StampTlb {
                pages: vec![u64::MAX; entries as usize],
                stamps: vec![0; entries as usize],
                clock: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let page = addr / PAGE_BYTES;
            if let Some(slot) = self.pages.iter().position(|&p| p == page) {
                self.stamps[slot] = self.clock;
                return true;
            }
            let victim = (0..self.pages.len())
                .min_by_key(|&i| self.stamps[i])
                .unwrap();
            self.pages[victim] = page;
            self.stamps[victim] = self.clock;
            false
        }
    }

    /// The O(1) indexed TLB makes exactly the decisions the stamp-scan
    /// implementation made, slot for slot, under heavy random eviction.
    #[test]
    fn indexed_matches_stamp_scan() {
        for entries in [1u32, 2, 4, 64] {
            let mut new = Tlb::new(TlbConfig { entries });
            let mut old = StampTlb::new(entries);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..50_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (3 * u64::from(entries) * PAGE_BYTES);
                assert_eq!(old.access(addr), new.access(addr), "entries {entries}, access {i}");
                assert_eq!(old.pages, new.pages, "entries {entries}, access {i}");
            }
        }
    }

    /// The memoized and bulk paths evolve the TLB identically to the plain
    /// path, including under heavy eviction pressure.
    #[test]
    fn memoized_paths_are_state_identical() {
        let cfg = TlbConfig { entries: 4 };
        let mut plain = Tlb::new(cfg);
        let mut memo = Tlb::new(cfg);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (64 * PAGE_BYTES);
            assert_eq!(plain.access(addr), memo.access_memoized(addr));
            if i % 5 == 0 {
                for _ in 0..3 {
                    plain.access(addr);
                }
                memo.bulk_repeat(3);
            }
        }
        assert_eq!(plain.accesses, memo.accesses);
        assert_eq!(plain.misses, memo.misses);
        assert_eq!(plain.pages, memo.pages);
        assert_eq!(plain.next, memo.next);
        assert_eq!(plain.prev, memo.prev);
        assert_eq!(plain.head, memo.head);
        assert_eq!(plain.tail, memo.tail);
    }

    /// The hinted path evolves the TLB identically to the plain path under
    /// interleaved streams whose memos go stale via eviction.
    #[test]
    fn hinted_path_is_state_identical() {
        let cfg = TlbConfig { entries: 4 };
        let mut plain = Tlb::new(cfg);
        let mut hinted = Tlb::new(cfg);
        let mut memos = [PageMemo::default(); 3];
        let mut x = 0x0135_79bd_f246_8ace_u64;
        for i in 0..20_000u64 {
            let s = (i % 3) as usize;
            let addr = match s {
                // Stream 0 walks pages slowly; stream 1 stays on one page;
                // stream 2 jumps randomly across 16 pages (evicts heavily).
                0 => (i / 8) * PAGE_BYTES + (i % 8) * 64,
                1 => 0x100_0000 + (i % 100),
                _ => {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 16) * PAGE_BYTES
                }
            };
            assert_eq!(
                plain.access(addr),
                hinted.access_hinted(addr, &mut memos[s]),
                "access {i}"
            );
        }
        assert_eq!(plain.accesses, hinted.accesses);
        assert_eq!(plain.misses, hinted.misses);
        assert_eq!(plain.pages, hinted.pages);
        assert_eq!(plain.next, hinted.next);
        assert_eq!(plain.prev, hinted.prev);
        assert_eq!(plain.head, hinted.head);
        assert_eq!(plain.tail, hinted.tail);
        assert_eq!(plain.last_page, hinted.last_page);
        assert_eq!(plain.last_slot, hinted.last_slot);
    }

    /// The open-addressed index stays consistent through random
    /// insert/remove churn (backward-shift deletion preserves chains).
    #[test]
    fn page_index_survives_churn() {
        let mut idx = PageIndex::new(64);
        let mut reference = std::collections::HashMap::new();
        let mut x = 0xfeed_face_cafe_beefu64;
        for _ in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Half the pages sit at the top of the address space, where a
            // packed word's page bits come closest to the empty marker.
            let page = if x & 1 == 0 {
                x % 96
            } else {
                (1 << 52) - 1 - x % 96
            };
            match reference.remove(&page) {
                Some(_) => idx.remove(page),
                None => {
                    if reference.len() < 64 {
                        let slot = (x >> 32) as u32 % 64;
                        reference.insert(page, slot);
                        idx.insert(page, slot);
                    }
                }
            }
            for (&p, &s) in &reference {
                assert_eq!(idx.get(p), Some(s));
            }
            assert_eq!(idx.get(x % 96 + 1000), None);
        }
    }
}
