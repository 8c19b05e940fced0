//! Windowed hardware-feature extraction for the RHMD reproduction.
//!
//! Implements the three feature vectors of paper §3 over collection windows
//! of committed instructions:
//!
//! * **Instructions** — frequencies of the opcodes whose executed frequency
//!   differs most between malware and benign training programs
//!   ([`select::select_top_delta_opcodes`]);
//! * **Memory** — a histogram of log2-binned deltas between consecutive
//!   memory-reference addresses;
//! * **Architectural** — per-instruction rates of hardware events
//!   (cache misses, mispredictions, unaligned accesses, …) from
//!   [`rhmd_uarch`].
//!
//! Extraction is two-phase, and there is one path for each phase:
//! [`pipeline::trace_subwindows`] runs a program once at fine granularity
//! on the batched flat-IR walk ([`stream`]), and any [`vector::FeatureSpec`]
//! (kind × period × opcode subset) is then projected from the subwindows by
//! [`pipeline::project_windows_into`] — the pattern every period/feature
//! sweep in the paper relies on, and the one the corpus store builds its
//! shards with. Faulted reads go through [`window::apply_faults`] first.
//! Every consumer — clean projection, [`window::aggregate_with_gaps`], and
//! `rhmd serve`'s sessions — assembles windows through one incremental
//! [`window::WindowAssembler`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pipeline;
pub mod select;
pub mod stream;
pub mod vector;
pub mod window;

pub use pipeline::{extract, project_windows, trace_subwindows};
pub use stream::collect_subwindows;
pub use select::{select_top_delta_opcodes, DEFAULT_TOP_K};
pub use vector::{FeatureKind, FeatureSpec};
pub use window::{CollectionWindow, RawWindow, Reads, MAX_TRACE_INSTRUCTIONS, MEM_BINS, SUBWINDOW};
