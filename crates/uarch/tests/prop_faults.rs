//! Property-based tests of the counter fault-injection model.

use proptest::prelude::*;
use rhmd_uarch::events::CounterSet;
use rhmd_uarch::faults::{FaultConfig, FaultModel};

fn any_counters() -> impl Strategy<Value = CounterSet> {
    (0u32..5_000, 0u32..2_000, 0u32..2_000, 0u32..500).prop_map(|(i, l, s, m)| CounterSet {
        instructions: i,
        loads: l,
        stores: s,
        l2_misses: m,
        ..CounterSet::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A zero-intensity fault model is a bit-exact identity on every read
    /// of a counter stream, for any seed: no read is dropped and each
    /// window's counters come back unchanged.
    #[test]
    fn zero_intensity_is_identity(
        stream in prop::collection::vec(any_counters(), 1..40),
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(FaultConfig::none(), seed);
        prop_assert!(model.is_identity());
        let mut prev: Option<CounterSet> = None;
        for (i, &clean) in stream.iter().enumerate() {
            prop_assert!(!model.drops_window(i as u64));
            let mut read = clean;
            model.corrupt_counters(i as u64, &mut read, prev.as_ref());
            prop_assert_eq!(read, clean);
            prev = Some(read);
        }
    }

    /// Saturating counters never exceed the channel maximum implied by the
    /// configured width, and wrapping counters stay within it too.
    #[test]
    fn overflow_respects_counter_width(
        value in any::<u64>(),
        window in 0u64..1_000,
        channel in 0u64..64,
        bits in 4u32..32,
        seed in any::<u64>(),
    ) {
        let max = (1u64 << bits) - 1;
        let sat = FaultModel::new(FaultConfig::saturating(bits), seed);
        let v = sat.corrupt_value(window, channel, value, None);
        prop_assert!(v <= max, "saturated {v} exceeds {max}");
        prop_assert_eq!(v, value.min(max));
        let wrap = FaultModel::new(FaultConfig::wrapping(bits), seed);
        let w = wrap.corrupt_value(window, channel, value, None);
        prop_assert!(w <= max, "wrapped {w} exceeds {max}");
        prop_assert_eq!(w, value & max);
    }

    /// The fraction of dropped windows matches the configured rate within
    /// a statistical tolerance.
    #[test]
    fn drop_rate_is_calibrated(rate in 0.05f64..0.6, seed in any::<u64>()) {
        let model = FaultModel::new(FaultConfig::dropping(rate), seed);
        let n = 4_000u64;
        let dropped = (0..n).filter(|&w| model.drops_window(w)).count() as f64;
        let observed = dropped / n as f64;
        prop_assert!(
            (observed - rate).abs() < 0.05,
            "configured {rate}, observed {observed}"
        );
    }

    /// Corruption is a pure function of (seed, window, channel, value):
    /// re-evaluating in any order reproduces identical results.
    #[test]
    fn corruption_is_deterministic(
        value in any::<u64>(),
        windows in prop::collection::vec(0u64..500, 1..20),
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(FaultConfig::noise(0.2), seed);
        let forward: Vec<u64> = windows
            .iter()
            .map(|&w| model.corrupt_value(w, 3, value, None))
            .collect();
        let backward: Vec<u64> = windows
            .iter()
            .rev()
            .map(|&w| model.corrupt_value(w, 3, value, None))
            .collect();
        let backward: Vec<u64> = backward.into_iter().rev().collect();
        prop_assert_eq!(forward, backward);
    }

    /// Noise preserves non-negativity and a different seed decorrelates the
    /// corruption pattern.
    #[test]
    fn noise_stays_in_range(counters in any_counters(), window in 0u64..1_000) {
        let model = FaultModel::new(FaultConfig::noise(0.3), 7);
        let mut a = counters;
        model.corrupt_counters(window, &mut a, None);
        // u64 fields are non-negative by construction; the interesting
        // invariant is that corruption terminates and produces a value for
        // every channel without panicking, including zero counters.
        let mut zero = CounterSet::default();
        model.corrupt_counters(window, &mut zero, None);
        prop_assert_eq!(zero.instructions, 0, "noise on zero stays zero");
    }
}
