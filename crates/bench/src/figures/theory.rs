//! §7 hardware table and §8 Theorem-1 bounds.

use crate::context::Experiment;
use crate::report::Table;
use rhmd_core::hw::{overhead, paper_configuration, pool_cost, UnitCosts};
use rhmd_core::pac::{base_errors, disagreement_matrix, pool_baseline_error, theorem1_band};
use rhmd_core::reveng::attack;
use rhmd_core::rhmd::pool_specs;
use rhmd_features::vector::FeatureKind;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};

/// §7 hardware-overhead table: the paper's synthesized three-detector
/// configuration plus the larger pools, against the AO486 baseline.
pub fn tab_hw(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "HW §7",
        "detector hardware overhead vs AO486 (paper: 1.72% area, 0.78% power \
         for 3 detectors with shared collection logic)",
        &["configuration", "area", "power", "weight bits"],
    );
    let costs = UnitCosts::default();
    let mut add = |name: &str, specs: &[rhmd_features::vector::FeatureSpec]| {
        let o = overhead(specs, &costs);
        let c = pool_cost(specs, &costs);
        table.push_row(vec![
            name.to_owned(),
            format!("{:.2}%", o.area_pct),
            format!("{:.2}%", o.power_pct),
            format!("{:.0}", c.memory_bits),
        ]);
    };
    add("paper: 3 features @10k", &paper_configuration(16, 10_000));
    add(
        "2 features @10k",
        &pool_specs(
            &[FeatureKind::Memory, FeatureKind::Instructions],
            &[10_000],
            &exp.opcodes,
        ),
    );
    add(
        "3 features @10k",
        &pool_specs(&FeatureKind::ALL, &[10_000], &exp.opcodes),
    );
    add(
        "3 features x 2 periods",
        &pool_specs(&FeatureKind::ALL, &[10_000, 5_000], &exp.opcodes),
    );
    table
}

/// §8 / Theorem 1: the attacker's measured error against the six-detector
/// pool, sandwiched by the theoretical band (paper: measured ≈ 25%).
pub fn thm1(exp: &Experiment) -> Table {
    let mut table = Table::new(
        "Thm 1 §8",
        "PAC band vs measured surrogate error (paper: six-detector pool error ~25%)",
        &[
            "pool",
            "baseline error",
            "band lower",
            "measured error",
            "band upper",
            "in band",
            "in 0.8x-1.2x band",
        ],
    );
    let pools: Vec<(&str, Vec<FeatureKind>, Vec<u32>)> = vec![
        (
            "2 features",
            vec![FeatureKind::Memory, FeatureKind::Instructions],
            vec![10_000],
        ),
        ("3 features", FeatureKind::ALL.to_vec(), vec![10_000]),
        (
            "6 detectors (3f x 2p)",
            FeatureKind::ALL.to_vec(),
            vec![10_000, 5_000],
        ),
    ];
    for (name, kinds, periods) in pools {
        let mut rhmd = crate::figures::resilient::pool(exp, &kinds, &periods);
        let delta = disagreement_matrix(rhmd.detectors(), &exp.traced, &exp.splits.attacker_test);
        let errors = base_errors(rhmd.detectors(), &exp.traced, &exp.splits.attacker_test);
        let band = theorem1_band(&delta, rhmd.probabilities(), &errors);
        let baseline = pool_baseline_error(rhmd.probabilities(), &errors);

        // Attacker's best shot: union-feature NN surrogate.
        let (_, report) = attack(
            &mut rhmd,
            &exp.traced,
            &exp.splits.attacker_train,
            &exp.splits.attacker_test,
            exp.combined_spec(&kinds, 10_000),
            Algorithm::Nn,
            &TrainerConfig::with_seed(0x81),
        );
        let measured = 1.0 - report.agreement;
        table.push_row(vec![
            name.to_owned(),
            Table::pct(baseline),
            Table::pct(band.lower),
            Table::pct(measured),
            Table::pct(band.upper),
            (band.lower <= measured && measured <= band.upper).to_string(),
            // Slack: the lower bound holds asymptotically for the best
            // surrogate in H; a finite-sample surrogate may sit slightly
            // below it.
            (measured >= band.lower * 0.8 && measured <= band.upper * 1.2).to_string(),
        ]);
    }
    table
}
