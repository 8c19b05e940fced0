//! Property-based tests pinning the batched trace→features hot path to
//! the per-event reference pipeline, bit for bit.
//!
//! The batched path (flat IR, batched µarch simulation) claims to be a pure
//! optimization of the seed-era per-event pipeline. These properties check
//! that claim across random programs, execution budgets, feature kinds and
//! collection periods. Rows are clean: faulted streams take `apply_faults`
//! first, which `tests/prop_faults.rs` covers.

use proptest::prelude::*;
use rhmd_features::pipeline::{project_windows_into, trace_subwindows_reference};
use rhmd_features::stream::collect_subwindows;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_trace::exec::ExecLimits;
use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                           ProgramGenerator};
use rhmd_trace::Program;
use rhmd_uarch::CoreConfig;

fn any_profile_seeded() -> impl Strategy<Value = Program> {
    (0usize..14, 0u64..1000).prop_map(|(class, seed)| {
        if class < 6 {
            ProgramGenerator::new(malware_profile(MalwareFamily::ALL[class])).generate(seed)
        } else {
            ProgramGenerator::new(benign_profile(BenignClass::ALL[class - 6])).generate(seed)
        }
    })
}

fn any_kind() -> impl Strategy<Value = FeatureKind> {
    prop::sample::select(FeatureKind::ALL.to_vec())
}

/// A period that is a positive multiple of the subwindow size.
fn any_period() -> impl Strategy<Value = u32> {
    (1u32..12).prop_map(|k| k * 1_000)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched flat-IR walk seals exactly the subwindows the per-event
    /// reference accumulator produces, on any program and budget.
    #[test]
    fn batched_subwindows_match_reference(
        program in any_profile_seeded(),
        budget in 1_000u64..30_000,
    ) {
        let limits = ExecLimits::instructions(budget);
        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        let (batched, summary) = collect_subwindows(&program, limits, CoreConfig::default());
        prop_assert_eq!(&batched, &reference);
        prop_assert_eq!(
            summary.instructions,
            batched.iter().map(|w| u64::from(w.instructions)).sum::<u64>()
        );
    }

    /// One batched trace projected per spec (mixed kinds and periods, as
    /// the corpus store builds its shards) reproduces the reference trace's
    /// rows bit-for-bit.
    #[test]
    fn batched_rows_match_reference_rows(
        program in any_profile_seeded(),
        budget in 1_000u64..30_000,
        specs in prop::collection::vec((any_kind(), any_period()), 1..4),
    ) {
        let limits = ExecLimits::instructions(budget);
        let (batched, _) = collect_subwindows(&program, limits, CoreConfig::default());
        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        for (kind, period) in specs {
            let spec = FeatureSpec::new(kind, period, vec![]);
            let (mut rows, mut expect) = (Vec::new(), Vec::new());
            let n = project_windows_into(&batched, &spec, &mut rows);
            prop_assert_eq!(n, project_windows_into(&reference, &spec, &mut expect));
            prop_assert!(bits_equal(&rows, &expect), "{} diverged", spec.label());
        }
    }
}
