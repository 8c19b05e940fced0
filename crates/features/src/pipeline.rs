//! End-to-end extraction: program → subwindows → feature vectors.

use crate::vector::FeatureSpec;
use crate::window::{
    CollectionWindow, RawWindow, Sealed, WindowAccumulator, WindowAssembler, SUBWINDOW,
};
use rhmd_trace::exec::ExecLimits;
use rhmd_trace::Program;
use rhmd_uarch::{CoreConfig, ReferenceCore};

/// Executes `program` once and returns its fine-grained subwindows.
///
/// One call serves every collection period that divides into
/// [`crate::window::SUBWINDOW`] multiples — execute once, aggregate many
/// times. Runs on the batched flat-IR path
/// ([`crate::stream::collect_subwindows`]); bit-identical to
/// [`trace_subwindows_reference`].
pub fn trace_subwindows(
    program: &Program,
    limits: ExecLimits,
    config: CoreConfig,
) -> Vec<RawWindow> {
    let _span = rhmd_obs::span("features.trace");
    crate::stream::collect_subwindows(program, limits, config).0
}

/// [`trace_subwindows`] on the frozen pre-refactor path: the reference
/// interpreter driving a [`WindowAccumulator`] over
/// [`rhmd_uarch::reference`]'s seed-era scan-based structures. Kept as the
/// differential oracle for the batched walk — it shares no µarch code with
/// the optimized path — and as the "before" leg of the trace floor in
/// `crates/bench/tests/speed_floors.rs`.
pub fn trace_subwindows_reference(
    program: &Program,
    limits: ExecLimits,
    config: CoreConfig,
) -> Vec<RawWindow> {
    let mut acc = WindowAccumulator::new(ReferenceCore::new(config));
    rhmd_trace::exec::Executor::new(program, limits).run_reference(&mut acc);
    acc.finish()
}

/// Projects pre-traced subwindows onto a spec's vectors at the spec's
/// period.
pub fn project_windows(subwindows: &[RawWindow], spec: &FeatureSpec) -> Vec<Vec<f64>> {
    let _span = rhmd_obs::span("features.project");
    clean_windows(subwindows, spec.period)
        .map(|w| spec.project(&w))
        .collect()
}

/// [`project_windows`] writing flat row-major values into a caller-owned
/// buffer (appending `windows × spec.dims()` doubles) and returning the
/// number of windows projected — one allocation per program instead of one
/// per window.
pub fn project_windows_into(
    subwindows: &[RawWindow],
    spec: &FeatureSpec,
    out: &mut Vec<f64>,
) -> usize {
    let _span = rhmd_obs::span("features.project");
    let windows = clean_windows(subwindows, spec.period);
    out.reserve(subwindows.len() / (spec.period / SUBWINDOW) as usize * spec.dims());
    let mut projected = 0;
    for w in windows {
        spec.project_into(&w, out);
        projected += 1;
    }
    projected
}

/// The windows a clean [`WindowAssembler`] (`min_fill = 1.0`) seals from
/// `subwindows` at `period`, each as it seals: every chunk of full
/// subwindows, the partial tail dropped. Panics on a bad `period`.
fn clean_windows(
    subwindows: &[RawWindow],
    period: u32,
) -> impl Iterator<Item = CollectionWindow> + '_ {
    let mut assembler = WindowAssembler::new(period, 1.0);
    let mut rest = subwindows.iter();
    std::iter::from_fn(move || {
        rest.by_ref()
            .find_map(|w| assembler.push(w))
            .or_else(|| assembler.finish())
    })
    .filter_map(Sealed::into_window)
}

/// Convenience: trace and project in one call.
///
/// # Examples
///
/// ```
/// use rhmd_features::pipeline::extract;
/// use rhmd_features::vector::{FeatureKind, FeatureSpec};
/// use rhmd_trace::exec::ExecLimits;
/// use rhmd_trace::generate::{benign_profile, BenignClass, ProgramGenerator};
/// use rhmd_uarch::CoreConfig;
///
/// let program = ProgramGenerator::new(benign_profile(BenignClass::Browser)).generate(0);
/// let spec = FeatureSpec::new(FeatureKind::Memory, 10_000, vec![]);
/// let vectors = extract(&program, &spec, ExecLimits::instructions(50_000), CoreConfig::default());
/// // At most 50k instructions → at most five 10k-instruction windows;
/// // the program may retire fewer if it terminates early.
/// assert!(!vectors.is_empty() && vectors.len() <= 5);
/// assert_eq!(vectors[0].len(), spec.dims());
/// ```
pub fn extract(
    program: &Program,
    spec: &FeatureSpec,
    limits: ExecLimits,
    config: CoreConfig,
) -> Vec<Vec<f64>> {
    project_windows(&trace_subwindows(program, limits, config), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::FeatureKind;
    use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};
    use rhmd_trace::isa::Opcode;

    #[test]
    fn one_trace_serves_many_periods() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Keylogger)).generate(4);
        let limits = ExecLimits {
            max_instructions: 40_000,
            max_original_instructions: u64::MAX,
            max_syscalls: u64::MAX,
            max_call_depth: 128,
        };
        let subs = trace_subwindows(&p, limits, CoreConfig::default());
        let spec5 = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let spec10 = FeatureSpec::new(FeatureKind::Memory, 10_000, vec![]);
        assert_eq!(project_windows(&subs, &spec5).len(), 8);
        assert_eq!(project_windows(&subs, &spec10).len(), 4);
    }

    #[test]
    fn extraction_is_deterministic() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Worm)).generate(0);
        let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, vec![Opcode::Xor, Opcode::Add]);
        let a = extract(&p, &spec, ExecLimits::instructions(20_000), CoreConfig::default());
        let b = extract(&p, &spec, ExecLimits::instructions(20_000), CoreConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn flat_projection_matches_per_window_projection() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Keylogger)).generate(7);
        let subs = trace_subwindows(&p, ExecLimits::instructions(30_000), CoreConfig::default());
        let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, vec![Opcode::Xor, Opcode::Add]);
        let nested = project_windows(&subs, &spec);
        let mut flat = vec![42.0]; // pre-existing contents must survive
        let n = project_windows_into(&subs, &spec, &mut flat);
        assert_eq!(n, nested.len());
        assert_eq!(flat[0], 42.0);
        let expected: Vec<f64> = nested.iter().flatten().copied().collect();
        assert_eq!(&flat[1..], expected.as_slice());
    }

    #[test]
    fn vectors_have_spec_dims() {
        let p = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(2);
        for kind in FeatureKind::ALL {
            let spec = FeatureSpec::new(kind, 5_000, vec![Opcode::Xor]);
            let vs = extract(&p, &spec, ExecLimits::instructions(10_000), CoreConfig::default());
            assert!(vs.iter().all(|v| v.len() == spec.dims()));
        }
    }
}
