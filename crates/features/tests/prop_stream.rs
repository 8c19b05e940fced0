//! Property-based tests pinning the streaming trace→features hot path to
//! the two-phase reference pipeline, bit for bit.
//!
//! The streaming path (flat IR, batched µarch simulation, incremental
//! lanes) claims to be a pure optimization of the seed-era per-event
//! pipeline. These properties check that claim across random programs,
//! execution budgets, feature kinds and collection periods. Lanes are
//! clean: faulted streams take `apply_faults` and the two-phase path,
//! which `tests/prop_faults.rs` covers.

use proptest::prelude::*;
use rhmd_features::pipeline::{project_windows_into, trace_subwindows_reference};
use rhmd_features::stream::{collect_subwindows, stream_features_into};
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

    /// A streaming lane reproduces trace → aggregate → project
    /// bit-for-bit, for any spec kind and period.
    #[test]
    fn clean_lane_matches_two_phase(
        program in any_profile_seeded(),
        budget in 1_000u64..30_000,
        kind in any_kind(),
        period in any_period(),
    ) {
        let limits = ExecLimits::instructions(budget);
        let spec = FeatureSpec::new(kind, period, vec![]);
        let mut out = Vec::new();
        let outcome = stream_features_into(
            &program,
            limits,
            CoreConfig::default(),
            std::slice::from_ref(&spec),
            &mut [&mut out],
        );

        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        let mut expect = Vec::new();
        let rows = project_windows_into(&reference, &spec, &mut expect);
        prop_assert_eq!(outcome.rows, vec![rows]);
        prop_assert!(bits_equal(&out, &expect));
    }

    /// Lanes are independent: a multi-lane pass (mixed kinds and periods)
    /// produces exactly what each lane would alone.
    #[test]
    fn lanes_are_independent(
        program in any_profile_seeded(),
        budget in 5_000u64..25_000,
        periods in prop::collection::vec(any_period(), 2..4),
    ) {
        let limits = ExecLimits::instructions(budget);
        let specs: Vec<FeatureSpec> = periods
            .iter()
            .zip(FeatureKind::ALL.iter().cycle())
            .map(|(&p, &k)| FeatureSpec::new(k, p, vec![]))
            .collect();
        let mut bufs: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut outs: Vec<&mut Vec<f64>> = bufs.iter_mut().collect();
        let joint =
            stream_features_into(&program, limits, CoreConfig::default(), &specs, &mut outs);

        for (i, spec) in specs.iter().enumerate() {
            let mut solo = Vec::new();
            let alone = stream_features_into(
                &program,
                limits,
                CoreConfig::default(),
                std::slice::from_ref(spec),
                &mut [&mut solo],
            );
            prop_assert_eq!(joint.rows[i], alone.rows[0]);
            prop_assert!(bits_equal(&bufs[i], &solo), "lane {} diverged", i);
        }
    }
}
