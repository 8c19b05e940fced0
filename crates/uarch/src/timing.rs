//! Approximate cycle accounting on top of the event counters.
//!
//! The paper reports evasion overhead as *execution time* (Fig 9); the
//! executor counts instructions. This module closes the gap with a simple
//! in-order timing model: every committed instruction costs one base cycle
//! plus event penalties. It is deliberately coarse — the detectors never see
//! cycles — but it lets the harness express overheads the way the paper
//! does and exposes IPC as a diagnostic.

use crate::events::CounterSet;
use serde::{Deserialize, Serialize};

/// Cycle penalties charged per event, on top of 1 cycle per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// L1 (instruction or data) miss that hits in L2.
    pub l1_miss_penalty: f64,
    /// L2 miss (memory access).
    pub l2_miss_penalty: f64,
    /// TLB miss (page walk).
    pub tlb_miss_penalty: f64,
    /// Branch direction misprediction (pipeline flush).
    pub mispredict_penalty: f64,
    /// BTB miss on a taken transfer (fetch bubble).
    pub btb_miss_penalty: f64,
    /// System call (privilege transition).
    pub syscall_penalty: f64,
}

impl Default for TimingModel {
    /// Penalties typical of a small in-order core with an on-chip L2.
    fn default() -> TimingModel {
        TimingModel {
            l1_miss_penalty: 10.0,
            l2_miss_penalty: 80.0,
            tlb_miss_penalty: 20.0,
            mispredict_penalty: 12.0,
            btb_miss_penalty: 3.0,
            syscall_penalty: 150.0,
        }
    }
}

impl TimingModel {
    /// Estimated cycles to execute the events in `counters`.
    pub fn cycles(&self, counters: &CounterSet) -> f64 {
        // L1 misses that also missed L2 are charged both penalties, like a
        // real hierarchy; l2_misses is a subset of (icache+dcache) misses.
        let sum = |a: u32, b: u32| (u64::from(a) + u64::from(b)) as f64;
        f64::from(counters.instructions)
            + sum(counters.icache_misses, counters.dcache_misses) * self.l1_miss_penalty
            + f64::from(counters.l2_misses) * self.l2_miss_penalty
            + sum(counters.itlb_misses, counters.dtlb_misses) * self.tlb_miss_penalty
            + f64::from(counters.mispredicts) * self.mispredict_penalty
            + f64::from(counters.btb_misses) * self.btb_miss_penalty
            + f64::from(counters.syscalls) * self.syscall_penalty
    }

    /// Instructions per cycle implied by the counters.
    pub fn ipc(&self, counters: &CounterSet) -> f64 {
        let cycles = self.cycles(counters);
        if cycles == 0.0 {
            0.0
        } else {
            f64::from(counters.instructions) / cycles
        }
    }

    /// Relative execution-time overhead of `modified` vs `baseline` traces
    /// of the same original workload — the paper's Fig 9 dynamic-overhead
    /// metric expressed in time.
    pub fn time_overhead(&self, baseline: &CounterSet, modified: &CounterSet) -> f64 {
        let base = self.cycles(baseline);
        if base == 0.0 {
            0.0
        } else {
            (self.cycles(modified) - base) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(instructions: u32) -> CounterSet {
        CounterSet {
            instructions,
            ..CounterSet::default()
        }
    }

    #[test]
    fn ideal_stream_is_one_ipc() {
        let model = TimingModel::default();
        let c = counters(1_000);
        assert_eq!(model.cycles(&c), 1_000.0);
        assert_eq!(model.ipc(&c), 1.0);
    }

    #[test]
    fn penalties_reduce_ipc() {
        let model = TimingModel::default();
        let mut c = counters(1_000);
        c.dcache_misses = 50;
        c.mispredicts = 20;
        assert!(model.ipc(&c) < 1.0);
        assert_eq!(model.cycles(&c), 1_000.0 + 500.0 + 240.0);
    }

    #[test]
    fn l2_misses_cost_more_than_l1() {
        let model = TimingModel::default();
        let mut l1_only = counters(1_000);
        l1_only.dcache_misses = 10;
        let mut through_l2 = l1_only;
        through_l2.l2_misses = 10;
        assert!(model.cycles(&through_l2) > model.cycles(&l1_only));
    }

    #[test]
    fn overhead_is_relative() {
        let model = TimingModel::default();
        let base = counters(1_000);
        let mut modified = counters(1_300);
        modified.syscalls = 0;
        let overhead = model.time_overhead(&base, &modified);
        assert!((overhead - 0.3).abs() < 1e-12);
        assert_eq!(model.time_overhead(&counters(0), &modified), 0.0);
    }

    #[test]
    fn zero_counters_are_safe() {
        let model = TimingModel::default();
        assert_eq!(model.ipc(&CounterSet::default()), 0.0);
    }
}
