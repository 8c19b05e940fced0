//! Traced corpus: every program executed once, on first read, at fine
//! window granularity, so any feature kind × period combination can be
//! projected without re-simulation.
//!
//! This mirrors the paper's methodology: traces are collected once (weeks of
//! Pin runs in the original) and the many detector configurations are all
//! derived from the stored traces. A program no run reads is never traced:
//! batch readers [`TracedCorpus::prefetch`] their indices, which traces the
//! missing ones on the corpus's pool before the serial walk starts.

use crate::corpus::Corpus;
use rhmd_features::pipeline::{project_windows_into, trace_subwindows};
use rhmd_features::select::select_labelled_opcodes;
use rhmd_features::stream::collect_subwindows;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::RawWindow;
use rhmd_ml::model::Dataset;
use rhmd_runtime::pool::Pool;
use rhmd_trace::exec::{ExecLimits, ExecSummary};
use rhmd_trace::inject::{apply, InjectionPlan, StaticOverhead};
use rhmd_trace::{Opcode, Program};
use rhmd_uarch::CoreConfig;
use std::fmt;
use std::sync::OnceLock;

/// `Pool::new(threads).map` over `items`, only for the performance ledger's
/// imports until ROADMAP item 6 lands.
pub fn parallel_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::new(threads).map(items, |_, t| f(t))
}

/// A corpus plus its per-program subwindow traces, each filled the first
/// time anything reads it.
pub struct TracedCorpus {
    corpus: Corpus,
    limits: ExecLimits,
    core_config: CoreConfig,
    subwindows: Vec<OnceLock<Vec<RawWindow>>>,
    pool: Pool,
}

impl TracedCorpus {
    /// A traced view of `corpus` on [`Pool::available`]: every program is
    /// traced once, on first read.
    pub fn trace(corpus: Corpus, limits: ExecLimits, core_config: CoreConfig) -> TracedCorpus {
        let threads = Pool::available().threads();
        TracedCorpus::trace_threads(corpus, limits, core_config, threads)
    }

    /// Like [`TracedCorpus::trace`] with an explicit width for the pool
    /// that [`TracedCorpus::prefetch`] traces on. Traces are bit-identical
    /// at any `threads` value and in any read order — each program's
    /// simulation is self-contained.
    pub fn trace_threads(
        corpus: Corpus,
        limits: ExecLimits,
        core_config: CoreConfig,
        threads: usize,
    ) -> TracedCorpus {
        let subwindows = corpus.programs().iter().map(|_| OnceLock::new()).collect();
        TracedCorpus {
            corpus,
            limits,
            core_config,
            subwindows,
            pool: Pool::new(threads),
        }
    }

    /// The pool this corpus traces on. Re-traces of its programs
    /// (`rhmd_core::evasion::evade_corpus`, the retraining game's evasive
    /// variants) map on it too, so a caller's thread count reaches them.
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// Traces every program at `indices` not traced yet, on the corpus's
    /// pool, so that a serial walk over them afterwards reads only
    /// resident traces. Each program is traced at most once however many
    /// threads read or prefetch it at the same time.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn prefetch(&self, indices: &[usize]) {
        let pending: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| !self.is_traced(i))
            .collect();
        if !pending.is_empty() {
            self.pool.map(&pending, |_, &i| {
                self.slot(i, false);
            });
        }
    }

    /// Whether program `index` has been traced.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_traced(&self, index: usize) -> bool {
        self.subwindows[index].get().is_some()
    }

    /// Program `index`'s subwindows, traced now if no one has read them
    /// yet; `inline` marks a first read outside [`TracedCorpus::prefetch`].
    fn slot(&self, index: usize, inline: bool) -> &[RawWindow] {
        self.subwindows[index].get_or_init(|| {
            rhmd_obs::incr("data.programs_traced");
            if inline {
                rhmd_obs::incr("data.programs_traced_inline");
            }
            trace_subwindows(self.corpus.program(index), self.limits, self.core_config)
        })
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The per-program trace limits used.
    pub fn limits(&self) -> ExecLimits {
        self.limits
    }

    /// The core model configuration used.
    pub fn core_config(&self) -> CoreConfig {
        self.core_config
    }

    /// Subwindows of program `index`. The first read traces the program
    /// on the calling thread; loops over many programs
    /// [`TracedCorpus::prefetch`] them first.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn subwindows(&self, index: usize) -> &[RawWindow] {
        self.slot(index, true)
    }

    /// Feature vectors of program `index` under `spec` (one per window).
    pub fn program_vectors(&self, index: usize, spec: &FeatureSpec) -> Vec<Vec<f64>> {
        rhmd_features::pipeline::project_windows(self.subwindows(index), spec)
    }

    /// Builds a window-level dataset over the given program indices,
    /// labelling every window with its program's ground truth.
    ///
    /// Each program is projected into one reused flat buffer and appended
    /// to the dataset's backing matrix in a single extend — no per-window
    /// allocation.
    pub fn window_dataset(&self, indices: &[usize], spec: &FeatureSpec) -> Dataset {
        self.prefetch(indices);
        let mut data = Dataset::new(spec.dims());
        let mut buf = Vec::new();
        for &i in indices {
            let label = self.corpus.program(i).class.label();
            buf.clear();
            project_windows_into(self.subwindows(i), spec, &mut buf);
            data.extend_from_flat(&buf, label);
        }
        data
    }

    /// The `k` top-delta opcodes over the programs at `indices` (paper
    /// §3): malware versus benign mean opcode frequencies, summed over each
    /// program's subwindows in `indices` order without copying a window.
    /// Every experiment selects its instruction features this way on the
    /// victim-train split.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the opcode count, or if an index is
    /// out of range.
    pub fn select_opcodes(&self, indices: &[usize], k: usize) -> Vec<Opcode> {
        self.prefetch(indices);
        select_labelled_opcodes(
            indices
                .iter()
                .map(|&i| (self.corpus.program(i).class.label(), self.subwindows(i))),
            k,
        )
    }

    /// Traces a standalone program (e.g. an injected variant) with this
    /// corpus's limits and core configuration, scaling the instruction
    /// budget by `budget_factor` so payload-inflated programs still cover
    /// their original behaviour.
    pub fn trace_program(&self, program: &Program, budget_factor: f64) -> Vec<RawWindow> {
        self.trace_scaled(program, budget_factor).0
    }

    /// Rewrites `program` with `plan` and traces the variant, scaling the
    /// instruction budget by 1.05 plus the plan's static inflation so the
    /// rewritten program still executes (at least) its original workload.
    ///
    /// Returns the variant's subwindows, its static overhead, and the
    /// execution summary (whose [`ExecSummary::dynamic_overhead`] is the
    /// executed-instruction growth).
    pub fn retrace(
        &self,
        program: &Program,
        plan: &InjectionPlan,
    ) -> (Vec<RawWindow>, StaticOverhead, ExecSummary) {
        let (modified, overhead) = apply(program, plan);
        let (windows, summary) = self.trace_scaled(&modified, 1.05 + overhead.ratio());
        (windows, overhead, summary)
    }

    /// Runs `program` on the batched flat-IR path with the instruction
    /// budget scaled by `budget_factor`.
    fn trace_scaled(&self, program: &Program, budget_factor: f64) -> (Vec<RawWindow>, ExecSummary) {
        let _span = rhmd_obs::span("features.trace");
        let limits = ExecLimits {
            max_instructions: (self.limits.max_instructions as f64 * budget_factor) as u64,
            ..self.limits
        };
        collect_subwindows(program, limits, self.core_config)
    }
}

impl fmt::Debug for TracedCorpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedCorpus")
            .field("programs", &self.corpus.len())
            .field("traced", &self.subwindows.iter().filter(|s| s.get().is_some()).count())
            .field("limits", &self.limits)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;
    use rhmd_features::vector::FeatureKind;

    fn traced() -> TracedCorpus {
        let cfg = CorpusConfig::tiny();
        TracedCorpus::trace(Corpus::build(&cfg), cfg.limits(), CoreConfig::default())
    }

    #[test]
    fn every_program_is_traced() {
        let t = traced();
        for i in 0..t.corpus().len() {
            assert!(!t.subwindows(i).is_empty(), "program {i} has no windows");
        }
    }

    #[test]
    fn window_dataset_labels_follow_programs() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let malware = t.corpus().malware_indices();
        let data = t.window_dataset(&malware[..2.min(malware.len())], &spec);
        assert!(!data.is_empty());
        assert_eq!(data.positives(), data.len());
    }

    #[test]
    fn opcode_selection_matches_selecting_over_copied_windows() {
        let t = traced();
        let indices: Vec<usize> = (0..t.corpus().len()).step_by(2).collect();
        let collect = |malware: bool| -> Vec<&RawWindow> {
            indices
                .iter()
                .filter(|&&i| t.corpus().program(i).class.label() == malware)
                .flat_map(|&i| t.subwindows(i))
                .collect()
        };
        let copied =
            rhmd_features::select::select_top_delta_opcodes(collect(true), collect(false), 12);
        assert_eq!(t.select_opcodes(&indices, 12), copied);
    }

    #[test]
    fn concurrent_first_reads_trace_each_program_once() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let cfg = CorpusConfig::tiny();
        let corpus = Corpus::build(&cfg);
        let t = TracedCorpus::trace(corpus.clone(), cfg.limits(), CoreConfig::default());
        let traced = || (0..corpus.len()).filter(|&i| t.is_traced(i)).count();
        assert_eq!(traced(), 0, "construction traces nothing");
        // Every third program, read by 4 workers in 4 different orders.
        let read: Vec<usize> = (0..corpus.len()).step_by(3).collect();
        let orders: Vec<Vec<usize>> = (0..4)
            .map(|seed| {
                let mut order = read.clone();
                order.shuffle(&mut SmallRng::seed_from_u64(seed));
                order
            })
            .collect();
        Pool::new(4).map(&orders, |_, order| {
            for &i in order {
                t.subwindows(i);
            }
        });
        for i in 0..corpus.len() {
            assert_eq!(t.is_traced(i), read.contains(&i), "program {i}");
        }
        for &i in &read {
            let direct = trace_subwindows(corpus.program(i), cfg.limits(), CoreConfig::default());
            assert_eq!(t.subwindows(i), direct.as_slice(), "program {i}");
        }
        t.prefetch(&read);
        assert_eq!(traced(), read.len(), "prefetch of traced programs traced more");
        t.prefetch(&[1, 1, 2]);
        assert_eq!(traced(), read.len() + 2);
    }

    #[test]
    fn tracing_matches_direct_extraction() {
        let cfg = CorpusConfig::tiny();
        let corpus = Corpus::build(&cfg);
        let t = TracedCorpus::trace(corpus.clone(), cfg.limits(), CoreConfig::default());
        let direct = trace_subwindows(corpus.program(3), cfg.limits(), CoreConfig::default());
        assert_eq!(t.subwindows(3), direct.as_slice());
    }
}
