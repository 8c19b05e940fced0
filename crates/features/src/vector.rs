//! Feature-vector definitions: the three vectors of paper §3 plus the
//! "combined" vectors the attacker uses against RHMDs (Figs 14–15).

use crate::window::{CollectionWindow, MEM_BINS};
use rhmd_trace::isa::Opcode;
use rhmd_uarch::events::COUNTER_DIMS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which low-level feature a detector observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Executed instruction mix over a selected opcode subset (paper:
    /// "Instructions").
    Instructions,
    /// Histogram of address deltas between consecutive memory references
    /// (paper: "Memory").
    Memory,
    /// Architectural event rates (paper: "Architectural").
    Architectural,
}

impl FeatureKind {
    /// The three base kinds.
    pub const ALL: [FeatureKind; 3] = [
        FeatureKind::Instructions,
        FeatureKind::Memory,
        FeatureKind::Architectural,
    ];
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureKind::Instructions => f.write_str("Instructions"),
            FeatureKind::Memory => f.write_str("Memory"),
            FeatureKind::Architectural => f.write_str("Architectural"),
        }
    }
}

/// A complete feature definition: what to extract and over which collection
/// period.
///
/// `FeatureSpec` is the unit of detector diversity in RHMD: base detectors
/// differ in `kind` and/or `period`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Kinds concatenated into the vector. One entry for a base detector;
    /// several for the attacker's "combined" reverse-engineering vectors.
    pub kinds: Vec<FeatureKind>,
    /// Collection period in committed instructions.
    pub period: u32,
    /// Opcode subset observed by [`FeatureKind::Instructions`] components
    /// (the top-delta opcodes chosen on the victim's training set).
    pub opcodes: Vec<Opcode>,
}

impl FeatureSpec {
    /// A single-kind spec.
    pub fn new(kind: FeatureKind, period: u32, opcodes: Vec<Opcode>) -> FeatureSpec {
        FeatureSpec {
            kinds: vec![kind],
            period,
            opcodes,
        }
    }

    /// A combined spec concatenating several kinds (attacker's union
    /// feature, Figs 14–15).
    pub fn combined(kinds: Vec<FeatureKind>, period: u32, opcodes: Vec<Opcode>) -> FeatureSpec {
        FeatureSpec {
            kinds,
            period,
            opcodes,
        }
    }

    /// Dimensionality of vectors produced by this spec.
    pub fn dims(&self) -> usize {
        self.kinds
            .iter()
            .map(|k| match k {
                FeatureKind::Instructions => self.opcodes.len(),
                FeatureKind::Memory => MEM_BINS,
                FeatureKind::Architectural => COUNTER_DIMS,
            })
            .sum()
    }

    /// Human-readable names of each dimension.
    pub fn dim_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.dims());
        for kind in &self.kinds {
            match kind {
                FeatureKind::Instructions => {
                    names.extend(self.opcodes.iter().map(|op| format!("freq[{op}]")));
                }
                FeatureKind::Memory => {
                    names.extend((0..MEM_BINS).map(|b| format!("mem_delta[2^{b}]")));
                }
                FeatureKind::Architectural => {
                    names.extend(
                        rhmd_uarch::events::COUNTER_NAMES
                            .iter()
                            .map(|n| format!("rate[{n}]")),
                    );
                }
            }
        }
        names
    }

    /// Projects a collection window onto this spec's feature vector.
    ///
    /// Instruction components are opcode *frequencies* (counts normalized by
    /// window instructions); memory components are a normalized delta
    /// histogram; architectural components are per-instruction event rates.
    ///
    /// Normalization is by the window's *actual* counts, so short (gap- or
    /// fault-truncated) windows renormalize instead of skewing low, and any
    /// non-finite component (possible only on corrupted inputs) is guarded
    /// to zero so downstream models never see NaN/Inf.
    pub fn project(&self, window: &CollectionWindow) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dims());
        self.project_into(window, &mut out);
        out
    }

    /// [`FeatureSpec::project`] appending into a caller-owned buffer: the
    /// flat-matrix hot path. Exactly [`FeatureSpec::dims`] values are
    /// appended (prior contents are untouched) and the non-finite guard
    /// applies only to the appended region.
    pub fn project_into(&self, window: &CollectionWindow, out: &mut Vec<f64>) {
        let start = out.len();
        for kind in &self.kinds {
            match kind {
                FeatureKind::Instructions => {
                    let denom = window.instructions.max(1) as f64;
                    out.extend(
                        self.opcodes
                            .iter()
                            .map(|op| window.opcode_counts[op.index()] as f64 / denom),
                    );
                }
                FeatureKind::Memory => {
                    let denom = window.mem_accesses().max(1) as f64;
                    out.extend(window.mem_delta_hist.iter().map(|&c| c as f64 / denom));
                }
                FeatureKind::Architectural => {
                    out.extend(window.counter_rates());
                }
            }
        }
        for v in &mut out[start..] {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }

    /// A stable 64-bit digest of everything that determines this spec's
    /// projection: kinds (in order), collection period, and the opcode
    /// subset (in order). Two specs that project every window identically
    /// hash identically across processes, which is what lets cached feature
    /// vectors be keyed by spec instead of recomputed per detector.
    pub fn stable_hash(&self) -> u64 {
        use rhmd_trace::seed::mix_seed;
        let mut h = 0x6665_6174_7370_6563; // b"featspec"
        for kind in &self.kinds {
            h = mix_seed(
                h,
                match kind {
                    FeatureKind::Instructions => 1,
                    FeatureKind::Memory => 2,
                    FeatureKind::Architectural => 3,
                },
            );
        }
        h = mix_seed(h, u64::from(self.period));
        for op in &self.opcodes {
            h = mix_seed(h, op.index() as u64);
        }
        h
    }

    /// Short label such as `"Instructions@10k"` or
    /// `"Instructions+Memory@5k"`.
    pub fn label(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join("+");
        format!("{kinds}@{}k", self.period / 1000)
    }
}

impl fmt::Display for FeatureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::RawWindow;

    fn spec(kind: FeatureKind) -> FeatureSpec {
        FeatureSpec::new(kind, 10_000, vec![Opcode::Add, Opcode::Xor, Opcode::Load])
    }

    fn window() -> CollectionWindow {
        let mut w = RawWindow {
            instructions: 100,
            ..RawWindow::default()
        };
        w.opcode_counts[Opcode::Add.index()] = 30;
        w.opcode_counts[Opcode::Xor.index()] = 10;
        w.opcode_counts[Opcode::Load.index()] = 20;
        w.mem_delta_hist[0] = 5;
        w.mem_delta_hist[3] = 15;
        w.counters.instructions = 100;
        w.counters.loads = 20;
        CollectionWindow::from(&w)
    }

    #[test]
    fn dims_match_projection() {
        for kind in FeatureKind::ALL {
            let s = spec(kind);
            assert_eq!(s.project(&window()).len(), s.dims());
            assert_eq!(s.dim_names().len(), s.dims());
        }
    }

    #[test]
    fn instruction_features_are_frequencies() {
        let v = spec(FeatureKind::Instructions).project(&window());
        assert_eq!(v, vec![0.3, 0.1, 0.2]);
    }

    #[test]
    fn memory_features_sum_to_one() {
        let v = spec(FeatureKind::Memory).project(&window());
        let total: f64 = v.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(v[0], 0.25);
        assert_eq!(v[3], 0.75);
    }

    #[test]
    fn architectural_features_are_rates() {
        let v = spec(FeatureKind::Architectural).project(&window());
        assert_eq!(v[0], 1.0); // window fill
        assert!((v[1] - 0.2).abs() < 1e-12); // loads rate
    }

    #[test]
    fn combined_concatenates() {
        let s = FeatureSpec::combined(
            vec![FeatureKind::Instructions, FeatureKind::Memory],
            10_000,
            vec![Opcode::Add],
        );
        assert_eq!(s.dims(), 1 + MEM_BINS);
        assert_eq!(s.project(&window()).len(), s.dims());
        assert_eq!(s.label(), "Instructions+Memory@10k");
    }

    #[test]
    fn labels_are_readable() {
        assert_eq!(spec(FeatureKind::Memory).label(), "Memory@10k");
    }

    #[test]
    fn stable_hash_tracks_projection_identity() {
        let a = spec(FeatureKind::Instructions);
        assert_eq!(a.stable_hash(), spec(FeatureKind::Instructions).stable_hash());
        // Any field that changes the projection changes the hash.
        assert_ne!(a.stable_hash(), spec(FeatureKind::Memory).stable_hash());
        let other_period = FeatureSpec::new(FeatureKind::Instructions, 5_000, a.opcodes.clone());
        assert_ne!(a.stable_hash(), other_period.stable_hash());
        let other_opcodes =
            FeatureSpec::new(FeatureKind::Instructions, 10_000, vec![Opcode::Add, Opcode::Xor]);
        assert_ne!(a.stable_hash(), other_opcodes.stable_hash());
        // Kind order matters for combined specs (the vector layout differs).
        let ab = FeatureSpec::combined(
            vec![FeatureKind::Instructions, FeatureKind::Memory],
            10_000,
            vec![],
        );
        let ba = FeatureSpec::combined(
            vec![FeatureKind::Memory, FeatureKind::Instructions],
            10_000,
            vec![],
        );
        assert_ne!(ab.stable_hash(), ba.stable_hash());
    }
}
