//! The unified, defender-side [`Detector`] trait.
//!
//! Every detector family in this crate — the deterministic
//! [`Hmd`](crate::hmd::Hmd) and
//! [`EnsembleHmd`](crate::ensemble::EnsembleHmd), the randomized
//! [`ResilientHmd`](crate::rhmd::ResilientHmd), and the
//! [`NonStationaryRhmd`](crate::rhmd::NonStationaryRhmd) — implements one
//! method, [`Detector::walk`]: the program's epochs, each with its vote
//! and span. The clean label stream, the per-epoch decisions and the
//! quorum verdict are provided over it, and the attacker's stateful
//! [`BlackBox`](crate::hmd::BlackBox) runs the same walk on the detector's
//! own switching state, so each family's detection logic exists once.
//!
//! Randomness is an *explicit parameter*: every call takes a caller-seeded
//! [`StreamRng`], so
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
use rhmd_features::window::{RawWindow, Reads};
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

/// How a [`Detector::walk`] treats an epoch whose window falls short of
/// the fill floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gaps {
    /// The clean rule: a window must cover its whole period, and a
    /// randomized walk stops at the first epoch without one (the truncated
    /// tail of a clean stream).
    Stop,
    /// The degraded rule: an epoch whose window covers less than this
    /// fraction of its period abstains, and the walk continues.
    Abstain(f64),
}

impl Gaps {
    /// The fraction of a period a window must cover to be judged.
    pub fn min_fill(self) -> f64 {
        match self {
            Gaps::Stop => 1.0,
            Gaps::Abstain(min_fill) => min_fill,
        }
    }
}

/// One detection epoch of a [`Detector::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// The decision; `None` = abstain (window below the fill floor, or
    /// features that fail the sanity check).
    pub vote: Option<bool>,
    /// Subwindows the epoch spans.
    pub span: usize,
}

/// The single detection API all four detector families implement.
///
/// All methods take `&self` plus an explicit [`StreamRng`]: state that the
/// stateful [`BlackBox`](crate::hmd::BlackBox) keeps inside `&mut self`
/// (the switching RNG of randomized detectors) is owned by the caller here,
/// which makes every call a pure function of `(detector, subwindows, rng
/// seed)` — the contract the parallel evaluator and the checkpoint/resume
/// machinery rely on for bit-identical results at any thread count.
///
/// Deterministic detectors ([`Hmd`], `EnsembleHmd`) ignore the RNG
/// entirely; for them every method is trivially seed-independent.
///
/// [`Hmd`]: crate::hmd::Hmd
pub trait Detector {
    /// Short human-readable description for reports (e.g. `LR[Arch@10k]`).
    fn name(&self) -> String;

    /// The detector's epochs over one program's reads (clean subwindows or
    /// faulted reads), in order, under the `gaps` rule. A randomized
    /// detector draws from `rng` once per epoch it attempts, so how a walk
    /// ends decides how much of `rng` it uses.
    fn walk(&self, reads: Reads<'_>, gaps: Gaps, rng: &mut StreamRng) -> Vec<Epoch>;

    /// Per-subwindow decision stream for one traced program: each
    /// detection epoch's decision is replicated across the subwindows it
    /// covers, truncated at the last complete epoch.
    fn label_stream(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        label_stream(&self.walk(Reads::Clean(subwindows), Gaps::Stop, rng))
    }

    /// One decision per detection epoch (collection window), without
    /// subwindow expansion.
    fn epoch_decisions(&self, subwindows: &[RawWindow], rng: &mut StreamRng) -> Vec<bool> {
        decisions(&self.walk(Reads::Clean(subwindows), Gaps::Stop, rng))
    }

    /// Program-level quorum verdict over a possibly degraded trace (clean
    /// subwindows or faulted reads): epochs whose window covers less than
    /// `min_fill` of the period, or whose features fail the sanity check,
    /// abstain instead of voting.
    fn quorum(&self, reads: Reads<'_>, min_fill: f64, rng: &mut StreamRng) -> QuorumVerdict {
        let votes: Vec<Option<bool>> = self
            .walk(reads, Gaps::Abstain(min_fill), rng)
            .iter()
            .map(|epoch| epoch.vote)
            .collect();
        QuorumVerdict::from_votes(&votes)
    }
}

/// Each voting epoch's decision replicated across the subwindows it spans.
pub(crate) fn label_stream(epochs: &[Epoch]) -> Vec<bool> {
    let mut out = Vec::with_capacity(epochs.iter().map(|e| e.span).sum());
    for epoch in epochs {
        if let Some(decision) = epoch.vote {
            out.extend(std::iter::repeat_n(decision, epoch.span));
        }
    }
    out
}

/// The voting epochs' decisions, one per epoch.
pub(crate) fn decisions(epochs: &[Epoch]) -> Vec<bool> {
    epochs.iter().filter_map(|e| e.vote).collect()
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
