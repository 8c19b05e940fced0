//! The unified, defender-side [`Detector`] trait.
//!
//! Every detector family in this crate — the deterministic
//! [`Hmd`](crate::hmd::Hmd) and
//! [`EnsembleHmd`](crate::ensemble::EnsembleHmd), the randomized
//! [`ResilientHmd`](crate::rhmd::ResilientHmd), and the
//! [`NonStationaryRhmd`](crate::rhmd::NonStationaryRhmd) — historically
//! grew its own near-duplicate method family (`label_subwindows`,
//! `decisions`, `quorum_verdict`, plus seeded variants for the parallel
//! evaluator). This module collapses all of them behind one
//! trait whose randomness is an *explicit parameter*: every call takes a
//! caller-seeded [`StreamRng`], so
//!
//! * deterministic detectors simply ignore it,
//! * randomized detectors draw their switching stream from it, and
//! * callers control reproducibility — the same `(subwindows, seed)` pair
//!   always yields the same output, regardless of call order or thread
//!   count. That property is what lets the parallel evaluator fan programs
//!   out without sharing RNG state.
//!
//! # Examples
//!
//! ```no_run
//! use rhmd_core::detector::{Detector, StreamRng};
//! # fn doc(rhmd: rhmd_core::rhmd::ResilientHmd, subs: &[rhmd_features::RawWindow]) {
//! let detector: &dyn Detector = &rhmd;
//! let mut rng = StreamRng::from_seed(0x5eed);
//! let labels = detector.label_stream(subs, &mut rng);
//! # }
//! ```

use crate::hmd::QuorumVerdict;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rhmd_features::window::RawWindow;
use std::fmt;

/// An explicitly seeded per-stream RNG, passed by the caller into every
/// [`Detector`] call (the splitmix-style discipline used across the
/// codebase: derive one seed per program, construct one `StreamRng` per
/// query stream).
///
/// Wraps `SmallRng::seed_from_u64`, so a stream is a pure function of its
/// seed.
pub struct StreamRng {
    rng: SmallRng,
}

impl StreamRng {
    /// A stream RNG seeded with `stream_seed`.
    pub fn from_seed(stream_seed: u64) -> StreamRng {
        StreamRng {
            rng: SmallRng::seed_from_u64(stream_seed),
        }
    }

    /// The underlying RNG, for detector implementations.
    pub fn small(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

impl fmt::Debug for StreamRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StreamRng")
    }
}

/// The single detection API all four detector families implement.
///
/// All methods take `&self` plus an explicit [`StreamRng`]: state that the
/// legacy API hid inside `&mut self` (the switching RNG of randomized
/// detectors) is now owned by the caller, which makes every call a pure
/// function of `(detector, subwindows, rng seed)` — the contract the
/// parallel evaluator and the checkpoint/resume machinery rely on for
/// bit-identical results at any thread count.
///
/// Deterministic detectors ([`Hmd`], `EnsembleHmd`) ignore the RNG
/// entirely; for them every method is trivially seed-independent.
///
/// [`Hmd`]: crate::hmd::Hmd
pub trait Detector {
    /// Short human-readable description for reports (e.g. `LR[Arch@10k]`).
    fn name(&self) -> String;

    /// Per-subwindow decision stream for one traced program: each
    /// detection epoch's decision is replicated across the subwindows it
    /// covers, truncated at the last complete epoch.
    fn label_stream(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool>;

    /// One decision per detection epoch (collection window), without
    /// subwindow expansion.
    fn epoch_decisions(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool>;

    /// Program-level quorum verdict over a possibly degraded trace:
    /// epochs whose window covers less than `min_fill` of the period, or
    /// whose features fail the sanity check, abstain instead of voting.
    fn quorum(&self, subwindows: &[RawWindow], min_fill: f64, rng: &mut StreamRng)
        -> QuorumVerdict;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rng_is_deterministic_per_seed() {
        use rand::Rng;
        let mut a = StreamRng::from_seed(42);
        let mut b = StreamRng::from_seed(42);
        let va: Vec<u64> = (0..8).map(|_| a.small().gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.small().gen()).collect();
        assert_eq!(va, vb);
        let mut c = StreamRng::from_seed(43);
        let vc: Vec<u64> = (0..8).map(|_| c.small().gen()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn stream_rng_matches_legacy_construction() {
        use rand::Rng;
        let mut legacy = SmallRng::seed_from_u64(7);
        let mut stream = StreamRng::from_seed(7);
        for _ in 0..16 {
            assert_eq!(legacy.gen::<f64>(), stream.small().gen::<f64>());
        }
    }
}
