//! Set-associative cache model with LRU replacement.
//!
//! Feeds the cache-miss components of the paper's Architectural feature.
//! Timing is not modelled — only hit/miss behaviour matters to the detectors.

use serde::{Deserialize, Serialize};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// A 32 KiB, 4-way, 64 B-line L1 configuration.
    pub fn l1_32k() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// or capacity not divisible into sets) or lines are 1 byte: the line
    /// number of address `u64::MAX` would then equal the cache's
    /// invalid-tag marker.
    pub fn sets(&self) -> u32 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.line_bytes >= 2, "line size must be at least 2 bytes");
        assert!(self.ways > 0, "associativity must be positive");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "capacity must divide into an integral number of sets"
        );
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// One set-associative cache with true-LRU replacement.
///
/// Each set keeps its tags in recency order, most recent first
/// (move-to-front): a hit at way `k` rotates ways `0..=k` by one, a miss
/// shifts the whole set down and installs at way 0, so the victim is
/// always the last way. This makes the same decisions as per-way LRU
/// stamps with a lowest-index tie-break: recency order *is* stamp order,
/// and invalid ways (never touched, stamp zero) sit at the tail, so a cold
/// set fills before anything valid is evicted.
///
/// # Examples
///
/// ```
/// use rhmd_uarch::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1_32k());
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1000));  // hit
/// assert!(c.access(0x1004));  // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets - 1`; set selection is a mask, not a division (set counts are
    /// validated powers of two).
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    /// Tags per set, most recently used first; `u64::MAX` = invalid. Lines
    /// are at least 2 bytes, so no address maps to the invalid marker.
    tags: Vec<u64>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            config,
            set_mask: u64::from(sets) - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
            tags: vec![u64::MAX; (sets * config.ways) as usize],
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs one access; returns `true` on hit. Misses allocate.
    ///
    /// The accessed line moves to the front of its set and every tag in
    /// front of its old way moves one way down; a miss shifts the whole set
    /// and drops the last (LRU) way. Sets of 4 and 8 ways (every default
    /// geometry) go through `move_to_front` on a fixed-size array, fully
    /// unrolled with the set in registers. Other associativities take
    /// `carry_to_front`. Both leave the set in the same order.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        match self.ways {
            4 => move_to_front(<&mut [u64; 4]>::try_from(set).expect("4-way set"), line),
            8 => move_to_front(<&mut [u64; 8]>::try_from(set).expect("8-way set"), line),
            _ => carry_to_front(set, line),
        }
    }

    /// Accesses that straddle a line boundary touch both lines; returns the
    /// number of misses incurred (0–2).
    #[inline]
    pub fn access_range(&mut self, addr: u64, size: u8) -> u32 {
        let first = !self.access(addr) as u32;
        if size > 1 {
            let last = addr + u64::from(size) - 1;
            if (last >> self.line_shift) != (addr >> self.line_shift) {
                return first + !self.access(last) as u32;
            }
        }
        first
    }

    /// Clears contents.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// Move-to-front of `line` in an `N`-way set; returns whether it was
/// resident. Way `w` keeps its tag once the line has been seen in ways
/// `0..w` and takes way `w - 1`'s otherwise, so a hit at way `k` rotates
/// ways `0..=k` and a miss (or a hit at the last way) shifts the whole set
/// down: the state [`carry_to_front`] reaches.
///
/// Written as a select per way. LLVM turns the chain into compares that
/// stop storing at the hit way, and that measured faster than a
/// conditional-move form that always rewrites all `N` ways.
#[inline]
fn move_to_front<const N: usize>(set: &mut [u64; N], line: u64) -> bool {
    let old = *set;
    let mut found = false;
    set[0] = line;
    for w in 1..N {
        found |= old[w - 1] == line;
        set[w] = if found { old[w] } else { old[w - 1] };
    }
    found | (old[N - 1] == line)
}

/// Move-to-front for any associativity: carries each tag one way down
/// until it meets `line` (a hit, which ends the rotation) or falls off the
/// end (a miss, dropping the LRU way).
#[inline]
fn carry_to_front(set: &mut [u64], line: u64) -> bool {
    let mut carry = line;
    for tag in set {
        let held = std::mem::replace(tag, carry);
        if held == line {
            return true;
        }
        carry = held;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::l1_32k();
        assert_eq!(c.sets(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig {
            size_bytes: 1024,
            line_bytes: 48,
            ways: 2,
        }
        .sets();
    }

    /// Address `u64::MAX` on 1-byte lines is line `u64::MAX`, the invalid
    /// tag: a cold cache would report it as a hit.
    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn one_byte_lines_panic() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 1,
            ways: 4,
        });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7f)); // same 64B line
        assert!(!c.access(0x80)); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny cache: 1 set, 2 ways, 64B lines.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 64,
            ways: 2,
        });
        assert!(!c.access(0)); // A
        assert!(!c.access(64)); // B (set 0 too: 1 set)
        assert!(c.access(0)); // A hit, B is now LRU
        assert!(!c.access(128)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(64)); // B was evicted
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        let misses = c.access_range(0x3e, 8); // crosses 0x40 boundary
        assert_eq!(misses, 2);
        assert_eq!(c.access_range(0x3e, 8), 0); // both lines now resident
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        });
        // Stream over 64 KiB twice: the cumulative miss rate stays above
        // 0.99 because the second pass still misses (capacity).
        let misses: usize = (0..2)
            .map(|_| (0..1024u64).filter(|&i| !c.access(i * 64)).count())
            .sum();
        assert!(misses as f64 / 2048.0 > 0.99, "misses {misses}");
    }

    #[test]
    fn small_working_set_hits() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        let misses: usize = (0..10)
            .map(|_| (0..64u64).filter(|&i| !c.access(i * 64)).count())
            .sum();
        let rate = misses as f64 / 640.0;
        assert!(rate < 0.15, "miss rate {rate}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        for i in 0..64u64 {
            c.access(i * 64);
        }
        c.reset();
        for i in 0..64u64 {
            assert!(!c.access(i * 64), "line {i} cold again");
        }
    }
}
