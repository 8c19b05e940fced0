//! Hardware event counters — the performance-monitoring unit the paper's
//! Architectural feature reads.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Sub;

/// One sample of the performance counters, at count width `C`.
///
/// All counts are deltas over some interval: one drain of a core, which
/// every trace path takes once per 1,000-instruction subwindow. A core
/// counts in `u32` (the default width): it raises each channel by at most
/// 2 per committed instruction, so a subwindow's channels stay in the low
/// thousands and even one whole trace's sum fits. Whole-trace sums go
/// through [`CounterSet::checked_add`], which fails with [`CountOverflow`]
/// instead of wrapping. A core that is never drained counts its whole run
/// in these fields, so a direct [`crate::CoreModel`] observer must stay
/// well below `u32::MAX` events per channel; debug builds trap an
/// overflowing count. A sealed subwindow keeps its reading as
/// `CounterSet<u16>`, and widens it back with [`From`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet<C = u32> {
    /// Committed instructions.
    pub instructions: C,
    /// Load micro-accesses.
    pub loads: C,
    /// Store micro-accesses.
    pub stores: C,
    /// Unaligned memory accesses.
    pub unaligned: C,
    /// Conditional branches executed.
    pub cond_branches: C,
    /// Taken control transfers (all kinds).
    pub taken_branches: C,
    /// Direction mispredictions.
    pub mispredicts: C,
    /// BTB misses on taken transfers.
    pub btb_misses: C,
    /// Instruction-cache misses.
    pub icache_misses: C,
    /// Data-cache misses.
    pub dcache_misses: C,
    /// Unified L2 misses.
    pub l2_misses: C,
    /// Instruction-TLB misses.
    pub itlb_misses: C,
    /// Data-TLB misses.
    pub dtlb_misses: C,
    /// Function calls.
    pub calls: C,
    /// Function returns.
    pub returns: C,
    /// System calls.
    pub syscalls: C,
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

impl<C: Copy> CounterSet<C> {
    /// Exports the counters as a fixed-order array (see [`COUNTER_NAMES`]).
    pub fn to_array(&self) -> [C; COUNTER_DIMS] {
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
    pub fn from_array(a: [C; COUNTER_DIMS]) -> CounterSet<C> {
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

// Written out because the derive does not take type parameters; the shape
// is the derived one: an object with one field per channel, in
// `COUNTER_NAMES` order.
impl<C: Copy + Serialize> Serialize for CounterSet<C> {
    fn serialize(&self) -> serde::Value {
        let values = self.to_array();
        serde::Value::Map(
            COUNTER_NAMES
                .iter()
                .zip(&values)
                .map(|(name, v)| (name.to_string(), v.serialize()))
                .collect(),
        )
    }
}

impl<C: Copy + Default + Deserialize> Deserialize for CounterSet<C> {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let mut values = [C::default(); COUNTER_DIMS];
        for (v, name) in values.iter_mut().zip(COUNTER_NAMES) {
            *v = C::deserialize(value.field(name)?)?;
        }
        Ok(CounterSet::from_array(values))
    }
}

impl From<CounterSet<u16>> for CounterSet {
    /// Widens a subwindow's reading to the core's width.
    fn from(narrow: CounterSet<u16>) -> CounterSet {
        CounterSet::from_array(narrow.to_array().map(u32::from))
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

/// A sum of counts that does not fit the `u32` width of a [`CounterSet`]:
/// the typed failure of [`CounterSet::checked_add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOverflow {
    /// The channel whose sum overflowed: a [`COUNTER_NAMES`] entry.
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
        let c: CounterSet = CounterSet {
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
        let r = rates(&CounterSet::<u32>::default().to_array().map(u64::from));
        assert!(r.iter().all(|v| v.is_finite()));
    }

    /// A subwindow's `u16` reading serializes to the same JSON object as
    /// a core's `u32` reading of the same counts, reads back, and widens
    /// to it.
    #[test]
    fn narrow_readings_serialize_and_widen_like_core_readings() {
        let narrow = CounterSet::<u16>::from_array(std::array::from_fn(|i| 1_000 + i as u16));
        let wide = CounterSet::from_array(std::array::from_fn(|i| 1_000 + i as u32));
        let json = serde_json::to_string(&narrow).unwrap();
        assert_eq!(json, serde_json::to_string(&wide).unwrap());
        assert!(
            json.starts_with(r#"{"instructions":1000,"loads":1001,"#),
            "{json}"
        );
        assert_eq!(
            serde_json::from_str::<CounterSet<u16>>(&json).unwrap(),
            narrow
        );
        assert_eq!(CounterSet::from(narrow), wide);
        let past = json.replace("1015", "65536");
        assert!(serde_json::from_str::<CounterSet<u16>>(&past).is_err());
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
