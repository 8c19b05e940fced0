//! Cross-crate integration tests: the complete attacker/defender loops of
//! the paper, exercised through the public facade API on the tiny corpus.

use rhmd::prelude::*;

fn fixture() -> (TracedCorpus, Splits, Vec<Opcode>) {
    let config = CorpusConfig::tiny();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    let opcodes = traced.select_opcodes(&splits.victim_train, 16);
    (traced, splits, opcodes)
}

fn malware_of(traced: &TracedCorpus, indices: &[usize]) -> Vec<usize> {
    let labels = traced.corpus().labels();
    indices.iter().copied().filter(|&i| labels[i]).collect()
}

#[test]
fn full_evasion_loop_defeats_deterministic_detector() {
    let (traced, splits, opcodes) = fixture();
    let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes);
    let mut victim = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );

    // Reverse-engineer through the black-box interface only.
    let surrogate = reveng::reverse_engineer(
        &mut victim,
        &traced,
        &splits.attacker_train,
        spec,
        Algorithm::Lr,
        &TrainerConfig::with_seed(1),
    );
    let fidelity = reveng::agreement(&mut victim, &surrogate, &traced, &splits.attacker_test);
    assert!(fidelity > 0.75, "surrogate fidelity {fidelity}");

    // Surrogate-guided injection must beat the victim.
    let malware = malware_of(&traced, &splits.attacker_test);
    let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(3));
    let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
    assert!(trial.initially_detected > 0);
    assert!(
        trial.detection_rate() < 0.5,
        "evasion failed: {:?}",
        trial
    );
    // ...at bounded overhead (the paper's threat model demands this).
    assert!(trial.mean_dynamic_overhead < 1.0);
}

#[test]
fn same_attack_fails_against_rhmd() {
    let (traced, splits, opcodes) = fixture();
    let specs = pool_specs(&FeatureKind::ALL, &[5_000], &opcodes);
    let mut rhmd = build_pool(
        Algorithm::Lr,
        specs,
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
        7,
    );

    // Attacker targets the Instructions feature, as in the paper.
    let surrogate = reveng::reverse_engineer(
        &mut rhmd,
        &traced,
        &splits.attacker_train,
        FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes.clone()),
        Algorithm::Nn,
        &TrainerConfig::with_seed(2),
    );
    // Use every malware program in the corpus: the tiny attacker-test split
    // alone is too small for a stable rate.
    let malware = traced.corpus().malware_indices();
    let plan = plan_evasion(&surrogate, &EvasionConfig::least_weight(2));
    rhmd.reset();
    let trial = evade_corpus(&mut rhmd, &traced, &malware, &plan);
    assert!(trial.initially_detected > 10);

    // Reference point: the identical attack against the deterministic
    // Instructions detector alone.
    let mut deterministic = Hmd::train(
        Algorithm::Lr,
        FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );
    let solo = evade_corpus(&mut deterministic, &traced, &malware, &plan);

    assert!(
        trial.detection_rate() > solo.detection_rate() + 0.25,
        "RHMD must resist the single-feature attack far better than the \
         deterministic detector: rhmd {:?} vs solo {:?}",
        trial,
        solo
    );
}

#[test]
fn rhmd_reverse_engineering_is_lossier_than_deterministic() {
    let (traced, splits, opcodes) = fixture();
    let spec = FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes.clone());

    let mut deterministic = Hmd::train(
        Algorithm::Lr,
        spec.clone(),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );
    let det_surrogate = reveng::reverse_engineer(
        &mut deterministic,
        &traced,
        &splits.attacker_train,
        spec.clone(),
        Algorithm::Lr,
        &TrainerConfig::with_seed(3),
    );
    let det_agreement = reveng::agreement(
        &mut deterministic,
        &det_surrogate,
        &traced,
        &splits.attacker_test,
    );

    let mut rhmd = build_pool(
        Algorithm::Lr,
        pool_specs(&FeatureKind::ALL, &[5_000], &opcodes),
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
        9,
    );
    let rhmd_surrogate = reveng::reverse_engineer(
        &mut rhmd,
        &traced,
        &splits.attacker_train,
        spec,
        Algorithm::Lr,
        &TrainerConfig::with_seed(3),
    );
    rhmd.reset();
    let rhmd_agreement =
        reveng::agreement(&mut rhmd, &rhmd_surrogate, &traced, &splits.attacker_test);

    assert!(
        det_agreement > rhmd_agreement + 0.05,
        "deterministic {det_agreement} vs rhmd {rhmd_agreement}"
    );
}

#[test]
fn injection_preserves_malware_semantics_end_to_end() {
    let (traced, _, opcodes) = fixture();
    let malware_idx = traced.corpus().malware_indices()[0];
    let program = traced.corpus().program(malware_idx);

    let plan = rhmd_trace::inject::InjectionPlan::new(
        vec![opcodes[0]].into_iter().filter(|o| o.is_injectable()).collect(),
        Placement::EveryBlock,
    );
    let (modified, _) = rhmd_trace::inject::apply(program, &plan);

    let limits = ExecLimits::original_instructions(40_000);
    let mut fp_a = rhmd_trace::exec::OriginalFingerprint::default();
    let mut fp_b = rhmd_trace::exec::OriginalFingerprint::default();
    let original = program.execute(limits, &mut fp_a);
    let rewritten = modified.execute(limits, &mut fp_b);
    // Same original-work budget => identical fingerprint.
    assert_eq!(fp_a, fp_b);
    assert!(rewritten.instructions > original.instructions || plan.payload_len() == 0);
}

#[test]
fn retraining_game_improves_previous_generation_detection() {
    let (traced, splits, opcodes) = fixture();
    let config = GameConfig {
        algorithm: Algorithm::Nn,
        spec: FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes),
        surrogate: Algorithm::Lr,
        payload: 2,
        generations: 3,
        trainer: TrainerConfig::default(),
        seed: 5,
    };
    let records = evade_retrain_game(
        &config,
        &traced,
        &splits.victim_train,
        &splits.attacker_train,
        &splits.attacker_test,
    );
    assert_eq!(records.len(), 3);
    // After the first retrain, the detector must handle the previous
    // generation's evasive malware markedly better than that malware evaded
    // it at creation time.
    let evaded_then = records[0].sensitivity_current_evasive;
    let caught_now = records[1].sensitivity_previous_evasive;
    assert!(
        caught_now > evaded_then,
        "retraining did not catch previous evasive ({evaded_then} -> {caught_now})"
    );
}

#[test]
fn program_verdicts_aggregate_windows() {
    let (traced, splits, opcodes) = fixture();
    let spec = FeatureSpec::new(FeatureKind::Architectural, 5_000, opcodes);
    let hmd = Hmd::train(
        Algorithm::Lr,
        spec,
        &TrainerConfig::default(),
        &traced,
        &splits.victim_train,
    );
    for &i in splits.attacker_test.iter().take(5) {
        let verdict = hmd.verdict(traced.subwindows(i));
        assert!(verdict.total > 0);
        assert!(verdict.flagged <= verdict.total);
        assert_eq!(verdict.is_malware(), verdict.flag_rate() >= 0.5);
    }
}
