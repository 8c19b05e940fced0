//! Integration tests of the corpus's class-level signal structure — the
//! properties that make the substitution for real malware defensible
//! (DESIGN.md §2): malware families and benign classes must differ in
//! exactly the channels the paper's features read, without being trivially
//! separable.

use rhmd::prelude::*;
use rhmd_ml::{auc, score_all};
use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                           ProgramGenerator};
use rhmd_uarch::CoreModel;

fn mean_counters(
    programs: &[rhmd_trace::Program],
    budget: u64,
) -> rhmd_uarch::CounterSet {
    let mut total = rhmd_uarch::CounterSet::default();
    for p in programs {
        let mut core = CoreModel::new(CoreConfig::default());
        p.execute(ExecLimits::instructions(budget), &mut core);
        total = total
            .checked_add(&core.drain_counters())
            .expect("a few programs' counters fit u32");
    }
    total
}

fn sample(family: MalwareFamily, n: u64) -> Vec<rhmd_trace::Program> {
    let generator = ProgramGenerator::new(malware_profile(family));
    (0..n).map(|i| generator.generate(i)).collect()
}

fn sample_benign(class: BenignClass, n: u64) -> Vec<rhmd_trace::Program> {
    let generator = ProgramGenerator::new(benign_profile(class));
    (0..n).map(|i| generator.generate(i)).collect()
}

#[test]
fn malware_is_more_syscall_intensive_than_benign_on_average() {
    let malware: Vec<_> = MalwareFamily::ALL
        .iter()
        .flat_map(|&f| sample(f, 3))
        .collect();
    let benign: Vec<_> = BenignClass::ALL
        .iter()
        .flat_map(|&c| sample_benign(c, 3))
        .collect();
    let m = mean_counters(&malware, 30_000);
    let b = mean_counters(&benign, 30_000);
    let m_rate = m.syscalls as f64 / m.instructions as f64;
    let b_rate = b.syscalls as f64 / b.instructions as f64;
    assert!(
        m_rate > 1.5 * b_rate,
        "malware syscall rate {m_rate} vs benign {b_rate}"
    );
}

#[test]
fn ransomware_is_xor_heavy_compute_is_fpu_heavy() {
    use rhmd_trace::isa::Opcode;
    let count_opcode = |programs: &[rhmd_trace::Program], op: Opcode| -> f64 {
        let mut hits = 0u64;
        let mut total = 0u64;
        for p in programs {
            p.execute(
                ExecLimits::instructions(20_000),
                &mut |ev: &rhmd_trace::ExecEvent| {
                    total += 1;
                    if ev.opcode == op {
                        hits += 1;
                    }
                },
            );
        }
        hits as f64 / total as f64
    };
    let ransomware = sample(MalwareFamily::Ransomware, 4);
    let compute = sample_benign(BenignClass::SpecCompute, 4);
    assert!(
        count_opcode(&ransomware, rhmd_trace::Opcode::Xor)
            > 2.0 * count_opcode(&compute, rhmd_trace::Opcode::Xor),
        "crypto loops should be xor-heavy"
    );
    assert!(
        count_opcode(&compute, rhmd_trace::Opcode::Fpu)
            > 2.0 * count_opcode(&ransomware, rhmd_trace::Opcode::Fpu),
        "numeric kernels should be fpu-heavy"
    );
}

#[test]
fn no_single_family_is_the_whole_signal() {
    // Dropping any one malware family from training must not collapse the
    // detector: the malware/benign signal is distributed across families.
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes);
    let strata = traced.corpus().strata();

    let dropped_family = 100; // Spambot
    let reduced: Vec<usize> = splits
        .victim_train
        .iter()
        .copied()
        .filter(|&i| strata[i] != dropped_family)
        .collect();
    let hmd = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &TrainerConfig::default(),
        &traced,
        &reduced,
    );
    let test = traced.window_dataset(&splits.attacker_test, &spec);
    let a = auc(&score_all(hmd.model(), &test), test.labels());
    assert!(a > 0.65, "AUC without spambots {a}");
}

#[test]
fn classes_overlap_enough_to_be_nontrivial() {
    // A detector must NOT reach near-perfect window accuracy — the paper's
    // regime is imperfect separability (Fig 2).
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    for kind in FeatureKind::ALL {
        let spec = FeatureSpec::new(kind, 5_000, opcodes.clone());
        let hmd = Hmd::train(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let test = traced.window_dataset(&splits.attacker_test, &spec);
        let a = auc(&score_all(hmd.model(), &test), test.labels());
        assert!(
            (0.6..0.995).contains(&a),
            "{kind}: AUC {a} outside the paper's imperfect-separability regime"
        );
    }
}

#[test]
fn families_differ_from_each_other_not_just_from_benign() {
    // Within-malware diversity: two families should be distinguishable from
    // each other in instruction-mix space (otherwise "families" are labels
    // without substance).
    use rhmd_features::{select_top_delta_opcodes, trace_subwindows};
    let a = sample(MalwareFamily::Ransomware, 6);
    let b = sample(MalwareFamily::Keylogger, 6);
    let limits = ExecLimits::instructions(30_000);
    let wa: Vec<_> = a
        .iter()
        .flat_map(|p| trace_subwindows(p, limits, CoreConfig::default()))
        .collect();
    let wb: Vec<_> = b
        .iter()
        .flat_map(|p| trace_subwindows(p, limits, CoreConfig::default()))
        .collect();
    // The top-delta opcodes between the two families must carry real mass
    // difference.
    let top = select_top_delta_opcodes(&wa, &wb, 4);
    let mean_freq = |ws: &[rhmd_features::RawWindow], op: rhmd_trace::Opcode| -> f64 {
        ws.iter()
            .map(|w| w.opcode_counts[op.index()] as f64 / w.instructions as f64)
            .sum::<f64>()
            / ws.len() as f64
    };
    let gap: f64 = top
        .iter()
        .map(|&op| (mean_freq(&wa, op) - mean_freq(&wb, op)).abs())
        .sum();
    assert!(gap > 0.02, "inter-family instruction-mix gap {gap}");
}
