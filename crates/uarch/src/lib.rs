//! Microarchitecture simulation substrate for the RHMD reproduction.
//!
//! The paper's Architectural feature vector reads hardware performance
//! counters: cache miss rates, branch prediction outcomes, unaligned
//! accesses, and similar commit-stage events. Since we have no hardware
//! PMU, this crate simulates the structures those counters observe:
//!
//! * [`cache`] — set-associative LRU caches (L1I / L1D);
//! * [`branch`] — a gshare direction predictor and a direct-mapped BTB;
//! * [`tlb`] — fully-associative instruction/data TLBs;
//! * [`timing`] — approximate cycle/IPC accounting over the counters;
//! * [`events`] — the counter architecture ([`events::CounterSet`]);
//! * [`core`] — the commit-stage model tying them together as a
//!   [`rhmd_trace::exec::Observer`];
//! * [`faults`] — seeded counter fault injection (noise, saturation,
//!   wraparound, dropped reads, multiplexing, burst corruption);
//! * [`reference`](mod@reference) — the frozen pre-refactor scan-based implementation,
//!   kept as the differential oracle for the optimized structures.
//!
//! # Examples
//!
//! ```
//! use rhmd_trace::exec::ExecLimits;
//! use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};
//! use rhmd_uarch::{CoreConfig, CoreModel};
//!
//! let bot = ProgramGenerator::new(malware_profile(MalwareFamily::ClickFraud)).generate(3);
//! let mut core = CoreModel::new(CoreConfig::default());
//! bot.execute(ExecLimits::instructions(50_000), &mut core);
//! assert!(core.counters().dcache_misses > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod core;
pub mod events;
pub mod faults;
pub mod reference;
pub mod timing;
pub mod tlb;

#[cfg(test)]
mod structure_diff;

pub use crate::core::{CoreConfig, CoreModel, CounterSource};
pub use branch::{BranchConfig, Btb, GsharePredictor};
pub use cache::{Cache, CacheConfig};
pub use events::{CounterSet, COUNTER_DIMS, COUNTER_NAMES};
pub use faults::{FaultConfig, FaultModel, FaultedCore, Overflow};
pub use reference::ReferenceCore;
pub use timing::TimingModel;
pub use tlb::{PageMemo, Tlb, TlbConfig};
