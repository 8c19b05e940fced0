//! Regenerates every table and figure of the paper, then the ablations and
//! extensions, from the table `rhmd_bench::figures::EXPERIMENTS`.
//!
//! A full run prints the report and writes it to `EXPERIMENTS-data.txt`;
//! `--only fig11,fig13,abl-c` prints just those ids, in that order.
//! `--checkpoint <dir>` journals Figs 11 and 13 and the robustness sweep
//! under `<dir>/<id>`;
//! `--metrics` records one `repro.<id>` span per experiment. See `--help`.

use rhmd_bench::figures::EXPERIMENTS;
use rhmd_bench::{flags, Experiment};
use rhmd_core::RhmdError;
use rhmd_runtime::{ckpt::CkptOptions, durable::Durable};

fn main() {
    if let Err(e) = run(std::env::args().skip(1).collect()) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run(mut args: Vec<String>) -> Result<(), RhmdError> {
    let only = flags::take_only(&mut args)?;
    let opts = flags::parse("repro [--only ID,...]", args)?;
    opts.metrics.install();
    let exp = Experiment::load();
    let mut out = String::new();
    for entry in only.clone().unwrap_or_else(|| EXPERIMENTS.iter().collect()) {
        eprintln!("[repro] {}", entry.label);
        // `--resume` has checked that the directory exists; each
        // experiment's subdirectory is created or resumed as needed.
        let ckpt = opts.ckpt.as_ref().map(|c| CkptOptions {
            dir: c.dir.join(entry.id),
            resume_only: false,
            every: c.every,
        });
        let _span = rhmd_obs::span(entry.span);
        for table in (entry.run)(&exp, ckpt.as_ref())? {
            println!("{table}");
            out += &format!("{table}\n");
        }
    }
    if only.is_none() {
        let path = std::path::Path::new("EXPERIMENTS-data.txt");
        Durable::from_env()?.write_atomic(path, out.as_bytes())?;
        eprintln!("[repro] full report written to {}", path.display());
    }
    opts.metrics.finish()
}
