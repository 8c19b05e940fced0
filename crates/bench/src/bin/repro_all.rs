//! Runs the full evaluation — every table and figure of the paper — and
//! writes the combined report to stdout and `EXPERIMENTS-data.txt`.
//!
//! ```sh
//! RHMD_SCALE=standard cargo run --release -p rhmd-bench --bin repro_all
//! ```

use rhmd_bench::figures;
use rhmd_bench::{Experiment, Table};
use rhmd_core::RhmdError;
use rhmd_runtime::durable::Durable;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), RhmdError> {
    let exp = Experiment::load();
    let mut out = String::new();
    let record = &mut |tables: Vec<Table>| {
        for t in tables {
            println!("{t}");
            out.push_str(&t.to_string());
            out.push('\n');
        }
    };

    let t0 = std::time::Instant::now();
    let step = |name: &str| {
        eprintln!("[repro] {name} (t+{:.1}s)", t0.elapsed().as_secs_f64());
    };

    step("Fig 2: baseline detectors");
    record(vec![figures::baseline::fig02(&exp)]);
    step("Fig 3a: reverse-engineering the period");
    record(vec![figures::reveng::fig03_period(&exp)]);
    step("Fig 3b: reverse-engineering the feature");
    record(vec![figures::reveng::fig03_feature(&exp)]);
    step("Fig 4: reverse-engineering efficiency");
    record(figures::reveng::fig04(&exp));
    step("Fig 6: random injection");
    record(vec![figures::evasion::fig06(&exp)]);
    step("Fig 8: least-weight injection");
    record(figures::evasion::fig08(&exp));
    step("Fig 9: injection overhead");
    record(vec![figures::evasion::fig09(&exp)]);
    step("Fig 10: weighted injection");
    record(vec![figures::evasion::fig10(&exp)]);
    step("Fig 11: retraining sweep");
    record(figures::retraining::fig11(&exp, None)?);
    step("Fig 13: evade-retrain generations");
    record(vec![figures::retraining::fig13(&exp, None)?]);
    step("Fig 14: RHMD reverse-engineering (features)");
    record(figures::resilient::fig14(&exp));
    step("Fig 15: RHMD reverse-engineering (features + periods)");
    record(figures::resilient::fig15(&exp));
    step("Fig 16: RHMD evasion resilience");
    record(vec![figures::resilient::fig16(&exp)]);
    step("Ext 5: stochastic-rounding defense");
    record(vec![figures::resilient::ext_stochastic_defense(&exp)]);
    step("HW table");
    record(vec![figures::theory::tab_hw(&exp)]);
    step("Theorem 1 bounds");
    record(vec![figures::theory::thm1(&exp)]);
    step("done");

    let path = "EXPERIMENTS-data.txt";
    Durable::from_env()?.write_atomic(std::path::Path::new(path), out.as_bytes())?;
    eprintln!("[repro] full report written to {path}");
    Ok(())
}
