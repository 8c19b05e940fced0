//! Hardware event counters — the performance-monitoring unit the paper's
//! Architectural feature reads.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Sub;

/// One sample of the performance counters.
///
/// All counts are deltas over some interval: one drain of a core, which
/// every trace path takes once per 1,000-instruction subwindow. Counts are
/// `u32`: a core raises each channel by at most a few per committed
/// instruction, so a subwindow's channels stay in the low thousands and
/// even one whole trace's sum fits. Sums of readings go through
/// [`CounterSet::checked_add`], which fails with [`CountOverflow`] instead
/// of wrapping. A core that is never drained counts its whole run in these
/// fields, so a direct [`crate::CoreModel`] observer must stay well below
/// `u32::MAX` events per channel; debug builds trap an overflowing count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSet {
    /// Committed instructions.
    pub instructions: u32,
    /// Load micro-accesses.
    pub loads: u32,
    /// Store micro-accesses.
    pub stores: u32,
    /// Unaligned memory accesses.
    pub unaligned: u32,
    /// Conditional branches executed.
    pub cond_branches: u32,
    /// Taken control transfers (all kinds).
    pub taken_branches: u32,
    /// Direction mispredictions.
    pub mispredicts: u32,
    /// BTB misses on taken transfers.
    pub btb_misses: u32,
    /// Instruction-cache misses.
    pub icache_misses: u32,
    /// Data-cache misses.
    pub dcache_misses: u32,
    /// Unified L2 misses.
    pub l2_misses: u32,
    /// Instruction-TLB misses.
    pub itlb_misses: u32,
    /// Data-TLB misses.
    pub dtlb_misses: u32,
    /// Function calls.
    pub calls: u32,
    /// Function returns.
    pub returns: u32,
    /// System calls.
    pub syscalls: u32,
}

/// Number of scalar event channels exported to the Architectural feature.
pub const COUNTER_DIMS: usize = 16;

/// Names of the exported channels, in [`CounterSet::to_array`] order.
pub const COUNTER_NAMES: [&str; COUNTER_DIMS] = [
    "instructions",
    "loads",
    "stores",
    "unaligned",
    "cond_branches",
    "taken_branches",
    "mispredicts",
    "btb_misses",
    "icache_misses",
    "dcache_misses",
    "l2_misses",
    "itlb_misses",
    "dtlb_misses",
    "calls",
    "returns",
    "syscalls",
];

impl CounterSet {
    /// Exports the counters as a fixed-order array (see [`COUNTER_NAMES`]).
    pub fn to_array(&self) -> [u32; COUNTER_DIMS] {
        [
            self.instructions,
            self.loads,
            self.stores,
            self.unaligned,
            self.cond_branches,
            self.taken_branches,
            self.mispredicts,
            self.btb_misses,
            self.icache_misses,
            self.dcache_misses,
            self.l2_misses,
            self.itlb_misses,
            self.dtlb_misses,
            self.calls,
            self.returns,
            self.syscalls,
        ]
    }

    /// Rebuilds a counter set from a fixed-order array (inverse of
    /// [`CounterSet::to_array`]).
    pub fn from_array(a: [u32; COUNTER_DIMS]) -> CounterSet {
        CounterSet {
            instructions: a[0],
            loads: a[1],
            stores: a[2],
            unaligned: a[3],
            cond_branches: a[4],
            taken_branches: a[5],
            mispredicts: a[6],
            btb_misses: a[7],
            icache_misses: a[8],
            dcache_misses: a[9],
            l2_misses: a[10],
            itlb_misses: a[11],
            dtlb_misses: a[12],
            calls: a[13],
            returns: a[14],
            syscalls: a[15],
        }
    }
}

/// Normalizes a fixed-order reading (see [`COUNTER_NAMES`]), at any width
/// up to `u64`, by its committed-instruction count in channel 0: the
/// Architectural feature's per-instruction rates.
pub fn rates(counts: &[u64; COUNTER_DIMS]) -> [f64; COUNTER_DIMS] {
    let denom = counts[0].max(1) as f64;
    let mut rates = [0.0; COUNTER_DIMS];
    for (r, &v) in rates.iter_mut().zip(counts) {
        *r = v as f64 / denom;
    }
    // Channel 0 would always be 1.0; expose it as window fill instead
    // (useful for truncated final windows).
    rates[0] = 1.0;
    rates
}

impl CounterSet {
    /// Channel-wise sum of two readings, or [`CountOverflow`] naming the
    /// first channel (in [`COUNTER_NAMES`] order) whose sum does not fit a
    /// `u32`. Never wraps.
    ///
    /// # Errors
    ///
    /// Returns [`CountOverflow`] when any channel's sum exceeds `u32::MAX`.
    pub fn checked_add(&self, rhs: &CounterSet) -> Result<CounterSet, CountOverflow> {
        let (a, b) = (self.to_array(), rhs.to_array());
        let mut sum = [0u32; COUNTER_DIMS];
        for (i, s) in sum.iter_mut().enumerate() {
            *s = a[i].checked_add(b[i]).ok_or(CountOverflow {
                channel: COUNTER_NAMES[i],
            })?;
        }
        Ok(CounterSet::from_array(sum))
    }
}

/// A sum of counts that does not fit the `u32` width of a [`CounterSet`]
/// (or of a subwindow's other channels): the typed failure of every
/// checked window sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOverflow {
    /// The channel whose sum overflowed: a [`COUNTER_NAMES`] entry, or
    /// `"instructions"`, `"opcode_counts"` or `"mem_delta_hist"` for a
    /// subwindow's own channels.
    pub channel: &'static str,
}

impl fmt::Display for CountOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "count sum overflows u32 in channel `{}`", self.channel)
    }
}

impl std::error::Error for CountOverflow {}

impl Sub for CounterSet {
    type Output = CounterSet;

    /// Pairwise saturating difference, for delta-over-interval readings.
    fn sub(self, rhs: CounterSet) -> CounterSet {
        CounterSet {
            instructions: self.instructions.saturating_sub(rhs.instructions),
            loads: self.loads.saturating_sub(rhs.loads),
            stores: self.stores.saturating_sub(rhs.stores),
            unaligned: self.unaligned.saturating_sub(rhs.unaligned),
            cond_branches: self.cond_branches.saturating_sub(rhs.cond_branches),
            taken_branches: self.taken_branches.saturating_sub(rhs.taken_branches),
            mispredicts: self.mispredicts.saturating_sub(rhs.mispredicts),
            btb_misses: self.btb_misses.saturating_sub(rhs.btb_misses),
            icache_misses: self.icache_misses.saturating_sub(rhs.icache_misses),
            dcache_misses: self.dcache_misses.saturating_sub(rhs.dcache_misses),
            l2_misses: self.l2_misses.saturating_sub(rhs.l2_misses),
            itlb_misses: self.itlb_misses.saturating_sub(rhs.itlb_misses),
            dtlb_misses: self.dtlb_misses.saturating_sub(rhs.dtlb_misses),
            calls: self.calls.saturating_sub(rhs.calls),
            returns: self.returns.saturating_sub(rhs.returns),
            syscalls: self.syscalls.saturating_sub(rhs.syscalls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_matches_names() {
        let c = CounterSet {
            instructions: 1,
            syscalls: 13,
            ..CounterSet::default()
        };
        let a = c.to_array();
        assert_eq!(a.len(), COUNTER_NAMES.len());
        assert_eq!(a[0], 1);
        assert_eq!(a[COUNTER_DIMS - 1], 13);
    }

    #[test]
    fn rates_normalize_by_instructions() {
        let c = CounterSet {
            instructions: 200,
            loads: 50,
            ..CounterSet::default()
        };
        let r = rates(&c.to_array().map(u64::from));
        assert_eq!(r[0], 1.0);
        assert!((r[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rates_survive_zero_instructions() {
        let r = rates(&CounterSet::default().to_array().map(u64::from));
        assert!(r.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = CounterSet {
            instructions: 10,
            loads: 4,
            ..CounterSet::default()
        };
        let b = CounterSet {
            instructions: 7,
            loads: 1,
            mispredicts: 2,
            ..CounterSet::default()
        };
        assert_eq!(a.checked_add(&b).unwrap() - b, a);
    }

    #[test]
    fn checked_add_names_the_overflowing_channel() {
        let full = CounterSet {
            instructions: 1,
            dcache_misses: u32::MAX,
            ..CounterSet::default()
        };
        let one = CounterSet {
            instructions: 1,
            dcache_misses: 1,
            ..CounterSet::default()
        };
        let err = full.checked_add(&one).unwrap_err();
        assert_eq!(err.channel, "dcache_misses");
        assert!(err.to_string().contains("dcache_misses"));
        let exact = full.checked_add(&CounterSet::default()).unwrap();
        assert_eq!(exact.dcache_misses, u32::MAX);
    }

    #[test]
    fn sub_saturates() {
        let small = CounterSet {
            instructions: 1,
            ..CounterSet::default()
        };
        let big = CounterSet {
            instructions: 5,
            ..CounterSet::default()
        };
        assert_eq!((small - big).instructions, 0);
    }
}
