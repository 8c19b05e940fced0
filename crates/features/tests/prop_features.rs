//! Property-based tests of feature extraction invariants.

use proptest::prelude::*;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{
    aggregate_with_gaps, delta_bin, CollectionWindow, RawWindow, MEM_BINS, SUBWINDOW,
};
use rhmd_trace::isa::{Opcode, OPCODE_COUNT};

fn any_window() -> impl Strategy<Value = RawWindow> {
    (
        prop::collection::vec(0u16..50, OPCODE_COUNT),
        prop::collection::vec(0u16..50, MEM_BINS),
    )
        .prop_map(|(ops, hist)| {
            let mut w = RawWindow::default();
            for (slot, v) in w.opcode_counts.iter_mut().zip(&ops) {
                *slot = *v;
            }
            for (slot, v) in w.mem_delta_hist.iter_mut().zip(&hist) {
                *slot = *v;
            }
            w.instructions = w.opcode_counts.iter().sum::<u16>().max(1);
            w.counters.instructions = w.instructions;
            w
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Memory feature vectors are a probability distribution over bins
    /// whenever any access was recorded.
    #[test]
    fn memory_projection_normalizes(w in any_window()) {
        let spec = FeatureSpec::new(FeatureKind::Memory, 10_000, vec![]);
        let v = spec.project(&CollectionWindow::from(&w));
        prop_assert_eq!(v.len(), MEM_BINS);
        let total: f64 = v.iter().sum();
        if CollectionWindow::from(&w).mem_accesses() > 0 {
            prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        } else {
            prop_assert_eq!(total, 0.0);
        }
    }

    /// Instruction frequencies never exceed one and respect counts.
    #[test]
    fn instruction_projection_bounds(w in any_window()) {
        let opcodes: Vec<Opcode> = Opcode::ALL[..8].to_vec();
        let spec = FeatureSpec::new(FeatureKind::Instructions, 10_000, opcodes.clone());
        let v = spec.project(&CollectionWindow::from(&w));
        for (f, op) in v.iter().zip(&opcodes) {
            prop_assert!((0.0..=1.0).contains(f));
            let expected = w.opcode_counts[op.index()] as f64 / w.instructions as f64;
            prop_assert!((f - expected).abs() < 1e-12);
        }
    }

    /// Aggregation is additive: the merged window carries exactly the
    /// component sums.
    #[test]
    fn aggregation_is_additive(windows in prop::collection::vec(any_window(), 1..10)) {
        // Regularize sizes to exactly one subwindow each.
        let mut subs = windows;
        for w in &mut subs {
            w.instructions = SUBWINDOW as u16;
            w.counters.instructions = SUBWINDOW as u16;
        }
        let n = subs.len() as u32;
        let merged = aggregate_with_gaps(&subs, n * SUBWINDOW, 1.0);
        prop_assert_eq!(merged.len(), 1);
        for op in 0..OPCODE_COUNT {
            let total: u64 = subs.iter().map(|w| u64::from(w.opcode_counts[op])).sum();
            prop_assert_eq!(merged[0].opcode_counts[op], total);
        }
        for bin in 0..MEM_BINS {
            let total: u64 = subs.iter().map(|w| u64::from(w.mem_delta_hist[bin])).sum();
            prop_assert_eq!(merged[0].mem_delta_hist[bin], total);
        }
    }

    /// delta_bin is symmetric and monotone in the delta magnitude.
    #[test]
    fn delta_bin_properties(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(delta_bin(a, b), delta_bin(b, a));
        let bin = delta_bin(a, b);
        prop_assert!(bin < MEM_BINS);
        if a == b {
            prop_assert_eq!(bin, 0);
        }
    }

    #[test]
    fn delta_bin_monotone(base in 0u64..1_000_000, d1 in 0u64..1_000_000, extra in 1u64..1_000_000) {
        let small = delta_bin(base, base + d1);
        let big = delta_bin(base, base + d1 + extra);
        prop_assert!(big >= small, "bin({d1})={small} > bin({})={big}", d1 + extra);
    }

    /// Projection dimensionality always matches the spec, including combined
    /// specs.
    #[test]
    fn dims_always_match(w in any_window(), k in 1usize..OPCODE_COUNT) {
        let opcodes: Vec<Opcode> = Opcode::ALL[..k].to_vec();
        for kinds in [
            vec![FeatureKind::Instructions],
            vec![FeatureKind::Memory, FeatureKind::Architectural],
            vec![FeatureKind::Instructions, FeatureKind::Memory, FeatureKind::Architectural],
        ] {
            let spec = FeatureSpec::combined(kinds, 10_000, opcodes.clone());
            prop_assert_eq!(spec.project(&CollectionWindow::from(&w)).len(), spec.dims());
        }
    }
}
