//! Developing evasive malware (paper §5): turning a (reverse-engineered)
//! detector model into an instruction-injection plan, and measuring how well
//! the rewritten malware hides.

use crate::hmd::{BlackBox, Hmd, ProgramVerdict};
use rhmd_data::TracedCorpus;
use rhmd_features::stream::collect_subwindows;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::MEM_BINS;
use rhmd_ml::linear::LogisticRegression;
use rhmd_ml::mlp::Mlp;
use rhmd_ml::svm::LinearSvm;
use rhmd_trace::inject::{apply, InjectionPlan, Placement};
use rhmd_trace::isa::Opcode;
use rhmd_trace::Program;
use rhmd_uarch::{CoreConfig, CounterSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How the payload instructions are chosen (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Uniformly random injectable opcodes — the control experiment (Fig 6).
    Random,
    /// Repeat the single most negative-weight feature's instruction
    /// (Figs 8a/8b).
    LeastWeight,
    /// Sample among all negative-weight instructions with probability
    /// proportional to |weight| (Fig 10).
    Weighted,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Random => f.write_str("random"),
            Strategy::LeastWeight => f.write_str("least-weight"),
            Strategy::Weighted => f.write_str("weighted"),
        }
    }
}

/// Per-dimension linear(ized) weights of a detector model, in raw feature
/// space.
///
/// `None` when the model exposes no usable weight structure (e.g. a decision
/// tree).
pub fn extract_weights(hmd: &Hmd) -> Option<Vec<f64>> {
    extract_weights_at(hmd, None)
}

/// Like [`extract_weights`], but linearizes non-linear models *around a
/// reference point* (typically the attacker's malware centroid) instead of
/// using the paper's global weight-collapsing heuristic. The local gradient
/// gives a far better evasive direction against NN victims, whose decision
/// surfaces are non-monotone.
pub fn extract_weights_at(hmd: &Hmd, reference: Option<&[f64]>) -> Option<Vec<f64>> {
    let any = hmd.model().as_any();
    if let Some(lr) = any.downcast_ref::<LogisticRegression>() {
        return Some(lr.input_space_weights().0);
    }
    if let Some(svm) = any.downcast_ref::<LinearSvm>() {
        return Some(svm.input_space_weights().0);
    }
    if let Some(nn) = any.downcast_ref::<Mlp>() {
        return Some(match reference {
            // Local linearization at the malware centroid.
            Some(point) => nn.input_gradient(point),
            // The paper's heuristic: collapse the network into one weight
            // per input by summing products along all paths (§5).
            None => nn.collapsed_input_weights(),
        });
    }
    None
}

/// The weights of a spec's components, split per feature kind.
///
/// Multi-kind (combined) specs concatenate dimensions; this view recovers
/// which slice belongs to which kind so a strategy can target each.
#[derive(Debug, Clone)]
pub struct WeightView<'a> {
    spec: &'a FeatureSpec,
    weights: &'a [f64],
}

impl<'a> WeightView<'a> {
    /// Creates a view.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the spec's dimensionality.
    pub fn new(spec: &'a FeatureSpec, weights: &'a [f64]) -> WeightView<'a> {
        assert_eq!(weights.len(), spec.dims(), "weights do not match spec dims");
        WeightView { spec, weights }
    }

    fn kind_slice(&self, wanted: FeatureKind) -> Option<&'a [f64]> {
        let mut offset = 0usize;
        for kind in &self.spec.kinds {
            let len = match kind {
                FeatureKind::Instructions => self.spec.opcodes.len(),
                FeatureKind::Memory => MEM_BINS,
                FeatureKind::Architectural => rhmd_uarch::events::COUNTER_DIMS,
            };
            if *kind == wanted {
                return Some(&self.weights[offset..offset + len]);
            }
            offset += len;
        }
        None
    }

    /// `(opcode, weight)` pairs of the Instructions component, if present.
    pub fn opcode_weights(&self) -> Option<Vec<(Opcode, f64)>> {
        let slice = self.kind_slice(FeatureKind::Instructions)?;
        Some(
            self.spec
                .opcodes
                .iter()
                .copied()
                .zip(slice.iter().copied())
                .collect(),
        )
    }

    /// `(delta_bin, weight)` pairs of the Memory component, if present.
    pub fn memory_bin_weights(&self) -> Option<Vec<(usize, f64)>> {
        let slice = self.kind_slice(FeatureKind::Memory)?;
        Some(slice.iter().copied().enumerate().collect())
    }
}

/// Everything needed to build payloads against one detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvasionConfig {
    /// Payload-selection strategy.
    pub strategy: Strategy,
    /// Instructions injected per site.
    pub count: usize,
    /// Block-level or function-level placement.
    pub placement: Placement,
    /// RNG seed (random / weighted strategies).
    pub seed: u64,
}

impl EvasionConfig {
    /// Least-weight block-level injection of `count` instructions — the
    /// paper's headline attack.
    pub fn least_weight(count: usize) -> EvasionConfig {
        EvasionConfig {
            strategy: Strategy::LeastWeight,
            count,
            placement: Placement::EveryBlock,
            seed: 0xe7a5,
        }
    }
}

/// Builds an injection plan against `model_hmd` (usually the attacker's
/// reverse-engineered surrogate).
///
/// The payload targets whatever feature kinds the surrogate observes:
///
/// * **Instructions** — inject negative-weight opcodes;
/// * **Memory** — inject loads/stores whose scratch stride lands in the most
///   negative-weight delta bin;
/// * **Architectural** — fall back to `nop` dilution (the paper notes these
///   effects "may not be directly controllable").
///
/// With no usable weights (decision-tree model) or the `Random` strategy,
/// payloads are uniformly random injectable opcodes.
pub fn plan_evasion(model_hmd: &Hmd, config: &EvasionConfig) -> InjectionPlan {
    plan_evasion_at(model_hmd, config, None)
}

/// Like [`plan_evasion`], linearizing non-linear surrogates around
/// `reference` (see [`extract_weights_at`]).
pub fn plan_evasion_at(
    model_hmd: &Hmd,
    config: &EvasionConfig,
    reference: Option<&[f64]>,
) -> InjectionPlan {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let weights = extract_weights_at(model_hmd, reference);
    let spec = model_hmd.spec();

    let mut payload: Vec<Opcode> = Vec::with_capacity(config.count);
    let mut mem_delta = 64u32;

    let injectable: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| op.is_injectable())
        .collect();

    match (&weights, config.strategy) {
        (Some(w), Strategy::LeastWeight | Strategy::Weighted) => {
            let view = WeightView::new(spec, w);
            // Memory component: steer the scratch stride into the most
            // negative bin. Bin b >= 1 covers [2^(b-1), 2^b).
            if let Some(bins) = view.memory_bin_weights() {
                if let Some(&(bin, w)) = bins
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                {
                    if w < 0.0 {
                        mem_delta = if bin == 0 { 0 } else { 1u32 << (bin - 1).min(30) };
                    }
                }
            }
            if let Some(op_weights) = view.opcode_weights() {
                let negatives: Vec<(Opcode, f64)> = op_weights
                    .iter()
                    .copied()
                    .filter(|&(op, w)| w < 0.0 && op.is_injectable())
                    .collect();
                if negatives.is_empty() {
                    // Nothing pulls toward benign: dilute with nops.
                    payload.extend(std::iter::repeat_n(Opcode::Nop, config.count));
                } else {
                    match config.strategy {
                        Strategy::LeastWeight => {
                            let (op, _) = negatives
                                .iter()
                                .copied()
                                .min_by(|a, b| a.1.total_cmp(&b.1))
                                .expect("non-empty");
                            payload.extend(std::iter::repeat_n(op, config.count));
                        }
                        Strategy::Weighted => {
                            let total: f64 = negatives.iter().map(|(_, w)| w.abs()).sum();
                            for _ in 0..config.count {
                                let mut u = rng.gen::<f64>() * total;
                                let mut chosen = negatives[0].0;
                                for &(op, w) in &negatives {
                                    if u < w.abs() {
                                        chosen = op;
                                        break;
                                    }
                                    u -= w.abs();
                                }
                                payload.push(chosen);
                            }
                        }
                        Strategy::Random => unreachable!(),
                    }
                }
            } else if view.memory_bin_weights().is_some() {
                // Memory-only detector: payload is loads into the steered
                // scratch stride.
                payload.extend(std::iter::repeat_n(Opcode::Load, config.count));
            } else {
                // Architectural-only detector: dilute event rates.
                payload.extend(std::iter::repeat_n(Opcode::Nop, config.count));
            }
        }
        _ => {
            // Random strategy or opaque model: fresh random opcodes at every
            // site (the paper's Fig 6 control).
            let _ = &mut rng;
            return InjectionPlan::random(
                injectable,
                config.count,
                config.placement,
                config.seed,
            )
            .with_mem_delta(mem_delta);
        }
    }

    InjectionPlan::new(payload, config.placement).with_mem_delta(mem_delta)
}

/// Static, dynamic, and time cost of applying a plan to a program
/// (paper Fig 9; the paper's overheads are execution-time based, which the
/// `time_overhead` field models through [`rhmd_uarch::timing::TimingModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Text growth relative to the original binary.
    pub static_overhead: f64,
    /// Executed-instruction growth relative to the original stream.
    pub dynamic_overhead: f64,
    /// Estimated execution-time growth (cycle model over the event
    /// counters).
    pub time_overhead: f64,
}

/// Rewrites `program` and measures all three overheads by executing both
/// versions to the same amount of *original* work on the batched flat-IR
/// path, summing each run's per-window event counters.
pub fn measure_overhead(
    program: &Program,
    plan: &InjectionPlan,
    limits: rhmd_trace::exec::ExecLimits,
) -> OverheadReport {
    let (modified, static_overhead) = apply(program, plan);
    let budget = limits.max_instructions.min(1 << 40);
    let bounded = rhmd_trace::exec::ExecLimits::original_instructions(budget);

    let run = |p: &Program| {
        let (windows, summary) = collect_subwindows(p, bounded, CoreConfig::default());
        let counters = windows.iter().fold(CounterSet::default(), |sum, w| sum + w.counters);
        (summary, counters)
    };
    let (_, base_counters) = run(program);
    let (summary, mod_counters) = run(&modified);
    let timing = rhmd_uarch::timing::TimingModel::default();
    OverheadReport {
        static_overhead: static_overhead.ratio(),
        dynamic_overhead: summary.dynamic_overhead(),
        time_overhead: timing.time_overhead(&base_counters, &mod_counters),
    }
}

/// Outcome of an evasion campaign over the initially-detected malware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvasionTrial {
    /// Malware programs the victim detected before modification (the
    /// denominator; the paper evaluates evasion on exactly this set).
    pub initially_detected: usize,
    /// Of those, how many the victim still detects after injection.
    pub detected_after: usize,
    /// Mean static overhead across rewritten programs.
    pub mean_static_overhead: f64,
    /// Mean dynamic overhead across rewritten programs.
    pub mean_dynamic_overhead: f64,
}

impl EvasionTrial {
    /// Post-injection detection rate over the initially-detected set
    /// (1.0 when nothing was initially detected — nothing to evade).
    pub fn detection_rate(&self) -> f64 {
        if self.initially_detected == 0 {
            1.0
        } else {
            self.detected_after as f64 / self.initially_detected as f64
        }
    }
}

/// Rewrites every initially-detected malware program in `malware_indices`
/// with `plan` and re-queries `victim` (paper Figs 6, 8, 10, 16).
///
/// Modified programs are re-traced on the batched flat-IR path with an
/// instruction budget scaled by the plan's static inflation (see
/// [`TracedCorpus::retrace`]), so the malware still executes (at least) its
/// original workload.
pub fn evade_corpus(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    malware_indices: &[usize],
    plan: &InjectionPlan,
) -> EvasionTrial {
    // 1. Which malware does the victim detect unmodified?
    let detected: Vec<usize> = malware_indices
        .iter()
        .copied()
        .filter(|&i| {
            let stream = victim.label_subwindows(traced.subwindows(i));
            ProgramVerdict::from_decisions(&stream).is_malware()
        })
        .collect();

    if detected.is_empty() {
        return EvasionTrial {
            initially_detected: 0,
            detected_after: 0,
            mean_static_overhead: 0.0,
            mean_dynamic_overhead: 0.0,
        };
    }

    // 2. Rewrite and re-trace them (parallel: tracing dominates).
    let rewritten = traced.pool().map(&detected, |_, &i| {
        let (subs, static_overhead, summary) = traced.retrace(traced.corpus().program(i), plan);
        (subs, static_overhead.ratio(), summary.dynamic_overhead())
    });

    // 3. Re-query the victim.
    let mut detected_after = 0usize;
    let mut static_sum = 0.0;
    let mut dynamic_sum = 0.0;
    for (subs, st, dy) in &rewritten {
        let stream = victim.label_subwindows(subs);
        if ProgramVerdict::from_decisions(&stream).is_malware() {
            detected_after += 1;
        }
        static_sum += st;
        dynamic_sum += dy;
    }
    let n = rewritten.len() as f64;
    EvasionTrial {
        initially_detected: detected.len(),
        detected_after,
        mean_static_overhead: static_sum / n,
        mean_dynamic_overhead: dynamic_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::window::{RawWindow, WindowAccumulator};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};
    use rhmd_trace::exec::ExecLimits;
    use rhmd_uarch::timing::TimingModel;
    use rhmd_uarch::CoreModel;

    fn fixture() -> (TracedCorpus, Splits, Vec<Opcode>) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let labels = traced.corpus().labels();
        let mal: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let ben: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| !labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let opcodes = rhmd_features::select::select_top_delta_opcodes(&mal, &ben, 12);
        (traced, splits, opcodes)
    }

    fn instr_spec(opcodes: &[Opcode]) -> FeatureSpec {
        FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes.to_vec())
    }

    #[test]
    fn weights_extracted_for_linear_models() {
        let (traced, splits, opcodes) = fixture();
        let spec = instr_spec(&opcodes);
        for algo in [Algorithm::Lr, Algorithm::Svm, Algorithm::Nn] {
            let hmd = Hmd::train(
                algo,
                spec.clone(),
                &TrainerConfig::default(),
                &traced,
                &splits.victim_train,
            );
            let w = extract_weights(&hmd).expect("weights for linear-ish model");
            assert_eq!(w.len(), spec.dims());
        }
        let dt = Hmd::train(
            Algorithm::Dt,
            spec,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        assert!(extract_weights(&dt).is_none());
    }

    #[test]
    fn least_weight_payload_repeats_one_opcode() {
        let (traced, splits, opcodes) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            instr_spec(&opcodes),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let plan = plan_evasion(&hmd, &EvasionConfig::least_weight(3));
        assert_eq!(plan.payload_len(), 3);
        assert!(plan.payload().windows(2).all(|w| w[0] == w[1]));
        // The chosen opcode must carry negative weight.
        let w = extract_weights(&hmd).unwrap();
        let view = WeightView::new(hmd.spec(), &w);
        let op_weights = view.opcode_weights().unwrap();
        let chosen = plan.payload()[0];
        let weight = op_weights
            .iter()
            .find(|(op, _)| *op == chosen)
            .map(|(_, w)| *w);
        if let Some(weight) = weight {
            assert!(weight < 0.0, "chosen opcode weight {weight}");
        }
    }

    #[test]
    fn evasion_reduces_detection_against_lr() {
        let (traced, splits, opcodes) = fixture();
        let spec = instr_spec(&opcodes);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let labels = traced.corpus().labels();
        let malware: Vec<usize> = splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect();
        let plan = {
            let hmd_clone = victim.clone();
            plan_evasion(&hmd_clone, &EvasionConfig::least_weight(3))
        };
        let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
        assert!(trial.initially_detected > 0, "victim detects nothing");
        assert!(
            trial.detection_rate() < 0.8,
            "evasion did not help: {:?}",
            trial
        );
        assert!(trial.mean_dynamic_overhead > 0.0);
    }

    #[test]
    fn random_payload_is_diverse_and_harmless() {
        let (traced, splits, opcodes) = fixture();
        let mut victim = Hmd::train(
            Algorithm::Lr,
            instr_spec(&opcodes),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let labels = traced.corpus().labels();
        let malware: Vec<usize> = splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect();
        // Paper Fig 6: random injection is the weak control. A single
        // seed's outcome over 4 malware samples is a coin flip, so
        // average over a seed sweep and compare against the targeted
        // least-weight attack, which reliably evades this victim.
        let seeds = [0u64, 1, 2, 3, 4, 5, 6, 7];
        let mut total_rate = 0.0;
        for &seed in &seeds {
            let plan = plan_evasion(
                &victim.clone(),
                &EvasionConfig {
                    strategy: Strategy::Random,
                    count: 2,
                    placement: Placement::EveryBlock,
                    seed,
                },
            );
            let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
            assert!(trial.mean_static_overhead > 0.0);
            assert!(trial.mean_dynamic_overhead > 0.0);
            total_rate += trial.detection_rate();
        }
        let random_rate = total_rate / seeds.len() as f64;
        let targeted_plan = plan_evasion(&victim.clone(), &EvasionConfig::least_weight(2));
        let targeted = evade_corpus(&mut victim, &traced, &malware, &targeted_plan);
        assert!(
            random_rate > targeted.detection_rate() + 0.2,
            "random injection should evade far less than targeted: \
             random {random_rate}, targeted {}",
            targeted.detection_rate()
        );
    }

    #[test]
    fn overhead_grows_with_payload() {
        let (traced, _, opcodes) = fixture();
        let program = traced.corpus().program(0);
        let spec = instr_spec(&opcodes);
        let _ = spec;
        let plan1 = InjectionPlan::new(vec![Opcode::Nop], Placement::EveryBlock);
        let plan5 = InjectionPlan::new(vec![Opcode::Nop; 5], Placement::EveryBlock);
        let o1 = measure_overhead(program, &plan1, traced.limits());
        let o5 = measure_overhead(program, &plan5, traced.limits());
        assert!(o5.static_overhead > o1.static_overhead);
        assert!(o5.dynamic_overhead > o1.dynamic_overhead);
        assert!(o1.static_overhead > 0.05 && o1.static_overhead < 0.6);
    }

    /// The per-event route the batched re-trace replaced, kept as the
    /// differential oracle: the rewrite runs through `Program::execute` into
    /// a `WindowAccumulator<CoreModel>`, one event at a time.
    fn retrace_per_event(
        traced: &TracedCorpus,
        program: &Program,
        plan: &InjectionPlan,
    ) -> (Vec<RawWindow>, f64, f64) {
        let (modified, static_overhead) = apply(program, plan);
        let factor = 1.05 + static_overhead.ratio();
        let limits = ExecLimits {
            max_instructions: (traced.limits().max_instructions as f64 * factor) as u64,
            ..traced.limits()
        };
        let mut acc = WindowAccumulator::new(CoreModel::new(traced.core_config()));
        let summary = modified.execute(limits, &mut acc);
        (acc.finish(), static_overhead.ratio(), summary.dynamic_overhead())
    }

    /// `evade_corpus` re-tracing every rewrite serially on the per-event
    /// route, querying the victim in the same order.
    fn evade_corpus_per_event(
        victim: &mut dyn BlackBox,
        traced: &TracedCorpus,
        malware: &[usize],
        plan: &InjectionPlan,
    ) -> EvasionTrial {
        let flagged = |victim: &mut dyn BlackBox, subs: &[RawWindow]| {
            ProgramVerdict::from_decisions(&victim.label_subwindows(subs)).is_malware()
        };
        let detected: Vec<usize> = malware
            .iter()
            .copied()
            .filter(|&i| flagged(victim, traced.subwindows(i)))
            .collect();
        let mut trial = EvasionTrial {
            initially_detected: detected.len(),
            detected_after: 0,
            mean_static_overhead: 0.0,
            mean_dynamic_overhead: 0.0,
        };
        if detected.is_empty() {
            return trial;
        }
        for &i in &detected {
            let (subs, st, dy) = retrace_per_event(traced, traced.corpus().program(i), plan);
            trial.detected_after += usize::from(flagged(victim, &subs));
            trial.mean_static_overhead += st;
            trial.mean_dynamic_overhead += dy;
        }
        trial.mean_static_overhead /= detected.len() as f64;
        trial.mean_dynamic_overhead /= detected.len() as f64;
        trial
    }

    /// `measure_overhead` on the per-event route: each run drives a
    /// `CoreModel` through `Program::execute` and drains its counters once.
    fn measure_overhead_per_event(
        program: &Program,
        plan: &InjectionPlan,
        limits: ExecLimits,
    ) -> OverheadReport {
        let (modified, static_overhead) = apply(program, plan);
        let bounded = ExecLimits::original_instructions(limits.max_instructions.min(1 << 40));
        let run = |p: &Program| {
            let mut core = CoreModel::new(CoreConfig::default());
            let summary = p.execute(bounded, &mut core);
            (summary, core.drain_counters())
        };
        let (_, base_counters) = run(program);
        let (summary, mod_counters) = run(&modified);
        OverheadReport {
            static_overhead: static_overhead.ratio(),
            dynamic_overhead: summary.dynamic_overhead(),
            time_overhead: TimingModel::default().time_overhead(&base_counters, &mod_counters),
        }
    }

    fn random_plan(count: usize, seed: u64) -> InjectionPlan {
        let injectable = Opcode::ALL.iter().copied().filter(|op| op.is_injectable()).collect();
        InjectionPlan::random(injectable, count, Placement::EveryBlock, seed)
    }

    fn trial_bits(t: &EvasionTrial) -> (usize, usize, u64, u64) {
        (
            t.initially_detected,
            t.detected_after,
            t.mean_static_overhead.to_bits(),
            t.mean_dynamic_overhead.to_bits(),
        )
    }

    #[test]
    fn retrace_matches_per_event_oracle() {
        let (traced, _, _) = fixture();
        let plan = random_plan(2, 0xe7a5);
        for i in traced.corpus().malware_indices() {
            let program = traced.corpus().program(i);
            let (subs, static_overhead, summary) = traced.retrace(program, &plan);
            let (oracle_subs, oracle_static, oracle_dynamic) =
                retrace_per_event(&traced, program, &plan);
            assert_eq!(subs, oracle_subs, "program {i}");
            assert_eq!(static_overhead.ratio().to_bits(), oracle_static.to_bits());
            assert_eq!(summary.dynamic_overhead().to_bits(), oracle_dynamic.to_bits());
        }
    }

    #[test]
    fn evade_corpus_matches_per_event_oracle() {
        let (traced, splits, opcodes) = fixture();
        let victim = Hmd::train(
            Algorithm::Lr,
            instr_spec(&opcodes),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let malware = traced.corpus().malware_indices();
        let plans = [
            random_plan(3, 7),
            plan_evasion(&victim, &EvasionConfig::least_weight(3)),
        ];
        for plan in &plans {
            let trial = evade_corpus(&mut victim.clone(), &traced, &malware, plan);
            let oracle = evade_corpus_per_event(&mut victim.clone(), &traced, &malware, plan);
            assert!(trial.initially_detected > 0, "victim detects nothing");
            assert_eq!(trial_bits(&trial), trial_bits(&oracle), "{trial:?} vs {oracle:?}");
        }
    }

    /// `evade_corpus` and `trace_evasive_variants` re-trace on the pool the
    /// corpus was traced on, and give the same results at any width.
    #[test]
    fn re_traces_run_on_the_traced_pool_at_any_width() {
        let config = CorpusConfig::tiny();
        let splits = Splits::new(&Corpus::build(&config), config.seed);
        let traced = |threads| {
            let corpus = Corpus::build(&config);
            TracedCorpus::trace_threads(corpus, config.limits(), CoreConfig::default(), threads)
        };
        let (one, three) = (traced(1), traced(3));
        assert_eq!((one.pool().threads(), three.pool().threads()), (1, 3));
        let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![]);
        let trainer = TrainerConfig::default();
        let victim = Hmd::train(Algorithm::Lr, spec, &trainer, &one, &splits.victim_train);
        let malware = one.corpus().malware_indices();
        let plan = random_plan(3, 7);
        let trial = |t| trial_bits(&evade_corpus(&mut victim.clone(), t, &malware, &plan));
        assert!(trial(&one).0 > 1, "the victim must detect enough malware to map over");
        assert_eq!(trial(&one), trial(&three));
        let variants = |t| crate::retrain::trace_evasive_variants(t, &malware, &plan);
        assert_eq!(variants(&one), variants(&three));
    }

    #[test]
    fn measure_overhead_matches_per_event_oracle() {
        let (traced, _, _) = fixture();
        let plan = random_plan(3, 11);
        for i in 0..traced.corpus().len() {
            let program = traced.corpus().program(i);
            let report = measure_overhead(program, &plan, traced.limits());
            let oracle = measure_overhead_per_event(program, &plan, traced.limits());
            let bits = |r: &OverheadReport| {
                [r.static_overhead, r.dynamic_overhead, r.time_overhead].map(f64::to_bits)
            };
            assert_eq!(bits(&report), bits(&oracle), "program {i}: {report:?} vs {oracle:?}");
        }
    }
}
