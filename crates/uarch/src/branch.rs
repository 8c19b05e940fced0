//! Branch prediction: gshare direction predictor plus a direct-mapped BTB.
//!
//! Supplies the branch-prediction components of the Architectural feature
//! (mispredict counts, BTB misses). Predictor *accuracy* differences between
//! program classes — driven by branch bias and outcome persistence — are a
//! real discriminating signal, as in the prior HMD work the paper builds on.

use serde::{Deserialize, Serialize};

/// Configuration of the branch unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchConfig {
    /// log2 of the number of 2-bit counters in the gshare table.
    pub ghr_bits: u32,
    /// Number of BTB entries (power of two).
    pub btb_entries: u32,
}

impl Default for BranchConfig {
    /// 4K-entry gshare, 512-entry BTB.
    fn default() -> BranchConfig {
        BranchConfig {
            ghr_bits: 12,
            btb_entries: 512,
        }
    }
}

/// Gshare direction predictor: global history XOR pc indexing a table of
/// 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    history: u64,
    mask: u64,
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
}

impl GsharePredictor {
    /// Creates a predictor with `2^ghr_bits` counters, initialized weakly
    /// not-taken.
    pub fn new(ghr_bits: u32) -> GsharePredictor {
        assert!((4..=24).contains(&ghr_bits), "ghr_bits out of range");
        let size = 1usize << ghr_bits;
        GsharePredictor {
            table: vec![1; size],
            history: 0,
            mask: (size - 1) as u64,
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts and updates on the actual outcome; returns `true` if the
    /// prediction was correct.
    ///
    /// Both saturating steps of the counter are computed and the outcome
    /// selects one, so the update has no branch on `taken`.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.predictions += 1;
        let idx = self.index(pc);
        let counter = self.table[idx];
        let correct = (counter >= 2) == taken;
        self.mispredictions += u64::from(!correct);
        let up = counter + u8::from(counter < 3);
        let down = counter - u8::from(counter > 0);
        self.table[idx] = if taken { up } else { down };
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        correct
    }

    /// The 2-bit counter in slot `idx`.
    #[cfg(test)]
    pub(crate) fn counter(&self, idx: usize) -> u8 {
        self.table[idx]
    }

    /// The global history register.
    #[cfg(test)]
    pub(crate) fn history(&self) -> u64 {
        self.history
    }

    /// Fraction of conditional branches mispredicted.
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// Direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<u64>,
    mask: u64,
    /// Taken control transfers looked up.
    pub lookups: u64,
    /// Lookups that missed or carried a stale target.
    pub misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32) -> Btb {
        assert!(entries.is_power_of_two(), "BTB entries must be a power of two");
        Btb {
            tags: vec![u64::MAX; entries as usize],
            targets: vec![0; entries as usize],
            mask: u64::from(entries - 1),
            lookups: 0,
            misses: 0,
        }
    }

    /// Looks up a taken transfer and installs the real target; returns
    /// `true` when the buffered target was present and correct.
    ///
    /// The slot is written on every lookup; on a hit the write stores the
    /// values already there.
    #[inline]
    pub fn lookup_and_update(&mut self, pc: u64, target: u64) -> bool {
        self.lookups += 1;
        let idx = ((pc >> 2) & self.mask) as usize;
        let hit = (self.tags[idx] == pc) & (self.targets[idx] == target);
        self.misses += u64::from(!hit);
        self.tags[idx] = pc;
        self.targets[idx] = target;
        hit
    }

    /// The `(tag, target)` held in slot `idx`.
    #[cfg(test)]
    pub(crate) fn slot(&self, idx: usize) -> (u64, u64) {
        (self.tags[idx], self.targets[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_constant_branch() {
        let mut p = GsharePredictor::new(10);
        for _ in 0..100 {
            p.predict_and_update(0x400000, true);
        }
        // Warm-up touches one counter per distinct history value (~ghr_bits
        // of them); after that, mispredictions stop.
        let warmup = p.mispredictions;
        assert!(warmup <= 15, "mispredictions {warmup}");
        for _ in 0..100 {
            p.predict_and_update(0x400000, true);
        }
        assert_eq!(p.mispredictions, warmup, "steady state should be perfect");
    }

    #[test]
    fn predictor_learns_alternating_pattern() {
        let mut p = GsharePredictor::new(12);
        let mut taken = false;
        for _ in 0..2000 {
            taken = !taken;
            p.predict_and_update(0x400010, taken);
        }
        // Global history captures period-2 patterns almost perfectly.
        assert!(
            p.misprediction_rate() < 0.1,
            "rate {}",
            p.misprediction_rate()
        );
    }

    #[test]
    fn predictor_struggles_on_random_branch() {
        let mut p = GsharePredictor::new(12);
        let mut state = 0x12345u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.predict_and_update(0x400020, state >> 63 == 1);
        }
        assert!(
            p.misprediction_rate() > 0.35,
            "rate {}",
            p.misprediction_rate()
        );
    }

    #[test]
    fn btb_caches_targets() {
        let mut b = Btb::new(16);
        assert!(!b.lookup_and_update(0x400000, 0x401000));
        assert!(b.lookup_and_update(0x400000, 0x401000));
        // Target change invalidates.
        assert!(!b.lookup_and_update(0x400000, 0x402000));
    }

    #[test]
    fn btb_conflicts_evict() {
        let mut b = Btb::new(2);
        b.lookup_and_update(0x0, 0x100);
        b.lookup_and_update(0x8, 0x200); // same slot ((pc>>2)&1): 0x8>>2=2&1=0
        assert!(!b.lookup_and_update(0x0, 0x100));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn btb_size_validated() {
        let _ = Btb::new(3);
    }
}
