//! Figs 6, 8, 9, 10 — instruction-injection evasion and its overhead.

use crate::context::Experiment;
use crate::report::Table;
use rhmd_core::evasion::{
    evade_corpus, measure_overhead, plan_evasion, plan_evasion_at, EvasionConfig, Strategy,
};
use rhmd_core::hmd::Hmd;

use rhmd_features::vector::FeatureKind;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::inject::Placement;

fn train_victim(exp: &Experiment, algorithm: Algorithm) -> Hmd {
    Hmd::train(
        algorithm,
        exp.spec(FeatureKind::Instructions, 10_000),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    )
}

fn surrogate_of(exp: &Experiment, victim: &mut Hmd, algorithm: Algorithm) -> Hmd {
    let spec = victim.spec().clone();
    rhmd_core::reveng::reverse_engineer_validated(
        victim,
        &exp.traced,
        &exp.splits.attacker_train,
        spec,
        algorithm,
        &TrainerConfig::with_seed(0x5e),
        3,
    )
}

/// Mean malware feature vector over the attacker's own training programs —
/// the linearization point for gradient-based payload selection against
/// non-linear surrogates.
fn malware_centroid(exp: &Experiment, spec: &rhmd_features::vector::FeatureSpec) -> Vec<f64> {
    let labels = exp.traced.corpus().labels();
    let mut sum = vec![0.0; spec.dims()];
    let mut n = 0usize;
    let malware: Vec<usize> = exp
        .splits
        .attacker_train
        .iter()
        .copied()
        .filter(|&i| labels[i])
        .collect();
    exp.traced.prefetch(&malware);
    for &i in &malware {
        for v in exp.traced.program_vectors(i, spec) {
            for (s, x) in sum.iter_mut().zip(&v) {
                *s += x;
            }
            n += 1;
        }
    }
    for s in &mut sum {
        *s /= n.max(1) as f64;
    }
    sum
}

/// Detection rate of initially-detected malware after injecting a plan
/// derived from `model` with the given strategy/count/placement.
fn detection_after(
    exp: &Experiment,
    victim: &mut Hmd,
    model: &Hmd,
    strategy: Strategy,
    count: usize,
    placement: Placement,
    reference: Option<&[f64]>,
) -> f64 {
    if count == 0 {
        return 1.0;
    }
    let plan = plan_evasion_at(
        model,
        &EvasionConfig {
            strategy,
            count,
            placement,
            seed: 0xf16 ^ count as u64,
        },
        reference,
    );
    let malware = exp.test_malware();
    evade_corpus(victim, &exp.traced, &malware, &plan).detection_rate()
}

/// Fig 6: random instruction injection does not evade.
pub fn fig06(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Fig 6",
        "detection with random instruction injection (paper: stays ~100%)",
        &["injected", "basic block", "function"],
    );
    let mut victim = train_victim(exp, Algorithm::Lr);
    let model = victim.clone();
    for count in [0usize, 1, 2, 3] {
        table.push_row(vec![
            count.to_string(),
            Table::pct(detection_after(
                exp,
                &mut victim,
                &model,
                Strategy::Random,
                count,
                Placement::EveryBlock,
                None,
            )),
            Table::pct(detection_after(
                exp,
                &mut victim,
                &model,
                Strategy::Random,
                count,
                Placement::BeforeReturn,
                None,
            )),
        ]);
    }
    table
}

/// Figs 8a/8b: least-weight injection against LR and NN victims, with plans
/// derived from the victim itself (white box) and from the
/// reverse-engineered surrogate.
pub fn fig08(exp: &Experiment) -> Vec<Table> {
    [(Algorithm::Lr, "Fig 8a"), (Algorithm::Nn, "Fig 8b")]
        .into_iter()
        .map(|(algo, id)| {
            let mut table = Table::new(
                id,
                format!(
                    "detection with least-weight injection, {} victim \
                     (paper: LR evaded with 1-2 instrs; NN needs ~2 for 80% evasion)",
                    algo
                ),
                &[
                    "injected",
                    "bb (victim)",
                    "fn (victim)",
                    "bb (reversed)",
                    "fn (reversed)",
                ],
            );
            let mut victim = train_victim(exp, algo);
            let white_box = victim.clone();
            // The surrogate family matches the victim's capability class, as
            // in the paper (NN surrogates can mimic NN victims).
            let surrogate_algo = if algo == Algorithm::Lr {
                Algorithm::Lr
            } else {
                Algorithm::Nn
            };
            let surrogate = surrogate_of(exp, &mut victim, surrogate_algo);
            let centroid = malware_centroid(exp, surrogate.spec());
            for count in [0usize, 1, 2, 3, 5, 10, 15] {
                let mut cells = vec![count.to_string()];
                for (model, placement) in [
                    (&white_box, Placement::EveryBlock),
                    (&white_box, Placement::BeforeReturn),
                    (&surrogate, Placement::EveryBlock),
                    (&surrogate, Placement::BeforeReturn),
                ] {
                    cells.push(Table::pct(detection_after(
                        exp,
                        &mut victim,
                        model,
                        Strategy::LeastWeight,
                        count,
                        placement,
                        Some(&centroid),
                    )));
                }
                table.push_row(cells);
            }
            table
        })
        .collect()
}

/// Fig 9: static and dynamic overhead of injection (paper: ~10% at one
/// instruction per block).
pub fn fig09(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Fig 9",
        "injection overhead (paper: ~10% static+dynamic at 1 instr/block, function level cheaper)",
        &[
            "injected",
            "static (bb)",
            "dynamic (bb)",
            "time (bb)",
            "static (fn)",
            "dynamic (fn)",
            "time (fn)",
        ],
    );
    let mut victim = train_victim(exp, Algorithm::Lr);
    let surrogate = surrogate_of(exp, &mut victim, Algorithm::Lr);
    let malware = exp.test_malware();
    let sample: Vec<usize> = malware.iter().copied().take(24).collect();
    for count in [1usize, 2, 5, 15] {
        let mut cells = vec![count.to_string()];
        for placement in [Placement::EveryBlock, Placement::BeforeReturn] {
            let plan = plan_evasion(
                &surrogate,
                &EvasionConfig {
                    strategy: Strategy::LeastWeight,
                    count,
                    placement,
                    seed: 9,
                },
            );
            let (mut st, mut dy, mut tm) = (0.0, 0.0, 0.0);
            for &i in &sample {
                let o = measure_overhead(
                    exp.traced.corpus().program(i),
                    &plan,
                    exp.traced.limits(),
                );
                st += o.static_overhead;
                dy += o.dynamic_overhead;
                tm += o.time_overhead;
            }
            cells.push(Table::pct(st / sample.len() as f64));
            cells.push(Table::pct(dy / sample.len() as f64));
            cells.push(Table::pct(tm / sample.len() as f64));
        }
        table.push_row(cells);
    }
    table
}

/// Fig 10: weighted injection against the LR victim — evasion via the
/// surrogate nearly matches evasion via the victim's own weights.
pub fn fig10(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Fig 10",
        "detection with weighted injection, LR victim (paper: reversed ≈ victim)",
        &[
            "injected",
            "bb (victim)",
            "fn (victim)",
            "bb (reversed)",
            "fn (reversed)",
        ],
    );
    let mut victim = train_victim(exp, Algorithm::Lr);
    let white_box = victim.clone();
    let surrogate = surrogate_of(exp, &mut victim, Algorithm::Lr);
    for count in [0usize, 1, 2, 3, 5, 10, 15] {
        let mut cells = vec![count.to_string()];
        for (model, placement) in [
            (&white_box, Placement::EveryBlock),
            (&white_box, Placement::BeforeReturn),
            (&surrogate, Placement::EveryBlock),
            (&surrogate, Placement::BeforeReturn),
        ] {
            cells.push(Table::pct(detection_after(
                exp,
                &mut victim,
                model,
                Strategy::Weighted,
                count,
                placement,
                None,
            )));
        }
        table.push_row(cells);
    }
    table
}
