//! Property-based tests: fault injection composed with the feature
//! pipeline never poisons downstream consumers.

use proptest::prelude::*;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{
    aggregate_with_gaps, apply_faults, CollectionWindow, RawWindow, SUBWINDOW,
};
use rhmd_trace::isa::{Opcode, OPCODE_COUNT};
use rhmd_uarch::events::{CounterSet, COUNTER_DIMS};
use rhmd_uarch::faults::{FaultConfig, FaultModel};

/// A full subwindow with plausible opcode / memory / counter content.
fn any_subwindow() -> impl Strategy<Value = RawWindow> {
    (
        prop::collection::vec(0u16..200, OPCODE_COUNT),
        prop::collection::vec(0u16..200, 16),
        0u16..500,
    )
        .prop_map(|(ops, hist, misses)| {
            let mut w = RawWindow::default();
            for (slot, v) in w.opcode_counts.iter_mut().zip(&ops) {
                *slot = *v;
            }
            for (slot, v) in w.mem_delta_hist.iter_mut().zip(&hist) {
                *slot = *v;
            }
            w.instructions = SUBWINDOW as u16;
            w.counters.instructions = SUBWINDOW as u16;
            w.counters.loads = hist.iter().sum();
            w.counters.l2_misses = misses;
            w
        })
}

fn any_stream() -> impl Strategy<Value = Vec<RawWindow>> {
    prop::collection::vec(any_subwindow(), 5..30)
}

fn any_fault() -> impl Strategy<Value = FaultConfig> {
    (0usize..6, 0.05f64..0.5, 8u32..24).prop_map(|(kind, rate, bits)| match kind {
        0 => FaultConfig::noise(rate),
        1 => FaultConfig::dropping(rate),
        2 => FaultConfig::multiplexed(rate),
        3 => FaultConfig::bursty(rate / 2.0, 4),
        4 => FaultConfig::saturating(bits),
        _ => FaultConfig::wrapping(bits),
    })
}

/// Any fault kind with some channel multiplexing on top (so a read's
/// stale value matters) and no dropped reads.
fn any_read_fault() -> impl Strategy<Value = FaultConfig> {
    (any_fault(), 0.0f64..0.5).prop_map(|(config, mux)| FaultConfig {
        drop_rate: 0.0,
        multiplex_rate: mux,
        ..config
    })
}

fn all_specs() -> Vec<FeatureSpec> {
    let opcodes: Vec<Opcode> = Opcode::ALL[..8].to_vec();
    FeatureKind::ALL
        .iter()
        .map(|&k| FeatureSpec::new(k, 10_000, opcodes.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero-intensity fault injection leaves the subwindow stream AND every
    /// extracted feature vector bit-identical.
    #[test]
    fn zero_intensity_pipeline_is_bit_exact(
        stream in any_stream(),
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(FaultConfig::none(), seed);
        let faulted = apply_faults(&stream, &model);
        let widened: Vec<CollectionWindow> = stream.iter().map(CollectionWindow::from).collect();
        prop_assert_eq!(&faulted, &widened);
        for spec in all_specs() {
            for (a, b) in stream.iter().zip(&faulted) {
                let va = spec.project(&CollectionWindow::from(a));
                let vb = spec.project(b);
                prop_assert!(
                    va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "feature vectors must be bit-identical under {}",
                    spec.label()
                );
            }
        }
    }

    /// With no dropped reads, `apply_faults` is per-read corruption, checked
    /// channel by channel and in reverse window order against the model's
    /// per-value entry points (which decide the burst for every value):
    /// window `i`'s counters are `corrupt_counters(i, prev)` and each
    /// opcode and memory-delta channel is `corrupt_read` at its channel
    /// index, where `prev` is the previous *observed* window. The
    /// committed instruction count is never corrupted.
    #[test]
    fn undropped_reads_are_corrupted_channel_by_channel(
        stream in any_stream(),
        config in any_read_fault(),
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(config, seed);
        let faulted = apply_faults(&stream, &model);
        prop_assert_eq!(faulted.len(), stream.len());
        // Every faulted channel is a 32-bit read.
        let read32 = |v: u64| u32::try_from(v).expect("a faulted read fits u32");
        for i in (0..stream.len()).rev() {
            let (clean, read, window) = (&stream[i], &faulted[i], i as u64);
            let prev = i.checked_sub(1).map(|j| &faulted[j]);
            prop_assert_eq!(read.instructions, u64::from(clean.instructions));
            let mut counters = CounterSet::from(clean.counters);
            let stale = prev.map(|p| CounterSet::from_array(p.counters.map(read32)));
            model.corrupt_counters(window, &mut counters, stale.as_ref());
            prop_assert_eq!(read.counters, counters.to_array().map(u64::from), "counters of window {}", i);
            for (k, (&got, &v)) in read.opcode_counts.iter().zip(&clean.opcode_counts).enumerate() {
                let channel = (COUNTER_DIMS + k) as u64;
                let stale = prev.map(|p| read32(p.opcode_counts[k]));
                let want = model.corrupt_read(window, channel, u32::from(v), stale);
                prop_assert_eq!(got, u64::from(want));
            }
            for (k, (&got, &v)) in read.mem_delta_hist.iter().zip(&clean.mem_delta_hist).enumerate() {
                let channel = (COUNTER_DIMS + OPCODE_COUNT + k) as u64;
                let stale = prev.map(|p| read32(p.mem_delta_hist[k]));
                let want = model.corrupt_read(window, channel, u32::from(v), stale);
                prop_assert_eq!(got, u64::from(want));
            }
        }
    }

    /// Faulted pipelines never emit NaN/Inf features, for any fault kind,
    /// intensity, and seed — corrupted windows renormalize or zero out.
    #[test]
    fn faulted_features_are_always_finite(
        stream in any_stream(),
        config in any_fault(),
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(config, seed);
        let faulted = apply_faults(&stream, &model);
        for spec in all_specs() {
            for window in aggregate_with_gaps(&faulted, 10_000, 0.0) {
                let v = spec.project(&window);
                prop_assert!(
                    v.iter().all(|x| x.is_finite()),
                    "non-finite feature under {} with {config:?}",
                    spec.label()
                );
            }
        }
    }

    /// Dropped reads coalesce instead of vanishing: ground-truth committed
    /// instructions are conserved up to the truncated trailing run, and the
    /// surviving count matches the configured drop rate within tolerance.
    #[test]
    fn drops_coalesce_and_match_rate(
        stream in prop::collection::vec(any_subwindow(), 40..120),
        rate in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let model = FaultModel::new(FaultConfig::dropping(rate), seed);
        let faulted = apply_faults(&stream, &model);
        let original: u64 = stream.iter().map(|w| u64::from(w.instructions)).sum();
        let surviving: u64 = faulted.iter().map(|w| w.instructions).sum();
        prop_assert!(surviving <= original);
        // Any shortfall is exactly a trailing run of dropped reads.
        let tail = (original - surviving) / u64::from(SUBWINDOW);
        prop_assert!(
            (0..tail).all(|k| model.drops_window(stream.len() as u64 - 1 - k)),
            "missing instructions must come from a dropped trailing run"
        );
        // Surviving read count tracks (1 - rate) within a loose tolerance.
        let expected = (1.0 - rate) * stream.len() as f64;
        prop_assert!(
            (faulted.len() as f64 - expected).abs() < 0.25 * stream.len() as f64,
            "{} surviving of {}, expected ~{expected:.0}",
            faulted.len(),
            stream.len()
        );
    }
}
