//! Reproduction harness for every table and figure in the RHMD paper.
//!
//! One binary, `repro`, regenerates them from the experiment table in
//! [`figures`]: `cargo run --release -p rhmd-bench --bin repro` runs the
//! whole evaluation and writes a combined report; `--only fig08,abl-c`
//! prints just those experiments.
//! Criterion benches (in `benches/`) cover the performance of the
//! substrate itself: feature extraction, simulation, training, inference,
//! injection and RHMD switching.
//!
//! Scale is selected with `RHMD_SCALE` (`tiny` | `small` | `standard` |
//! `paper`); experiments default to `standard`.

pub mod context;
pub mod figures;
pub mod flags;
pub mod report;

pub use context::Experiment;
pub use report::Table;

/// [`rhmd_core::engine`] under its old path, only for the ledger's imports
/// until ROADMAP item 6 lands.
pub use rhmd_core::engine as par;
/// [`rhmd_runtime::pool::Pool`] under its old path, only for the ledger's
/// imports until ROADMAP item 6 lands.
pub use rhmd_runtime::pool::Pool;
