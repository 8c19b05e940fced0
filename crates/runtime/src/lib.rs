//! Shared runtime plane for the RHMD reproduction.
//!
//! These modules started life scattered across `rhmd-core` (errors) and
//! `rhmd-bench` (durable I/O, checkpoint journals), which pinned them near
//! the top of the crate graph. The on-disk corpus store (`rhmd_data::store`)
//! needs all three from *below* `rhmd-core`, so they live here — just above
//! `rhmd-trace`:
//!
//! * [`error::RhmdError`] — the typed error hierarchy (also re-exported as
//!   `rhmd_core::RhmdError`);
//! * [`durable`] — atomic writes, checksummed payloads, seeded I/O fault
//!   plane with bounded retry;
//! * [`ckpt`] — manifest-guarded journals for crash-tolerant, bit-identical
//!   resume.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckpt;
pub mod durable;
pub mod error;

pub use error::RhmdError;
