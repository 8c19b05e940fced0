//! Traced corpus: every program executed once at fine window granularity,
//! so any feature kind × period combination can be projected without
//! re-simulation.
//!
//! This mirrors the paper's methodology: traces are collected once (weeks of
//! Pin runs in the original) and the many detector configurations are all
//! derived from the stored traces.

use crate::corpus::Corpus;
use rhmd_features::pipeline::{project_windows_into, trace_subwindows};
use rhmd_features::stream::collect_subwindows;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::RawWindow;
use rhmd_ml::model::Dataset;
use rhmd_runtime::pool::Pool;
use rhmd_trace::exec::{ExecLimits, ExecSummary};
use rhmd_trace::inject::{apply, InjectionPlan, StaticOverhead};
use rhmd_trace::Program;
use rhmd_uarch::CoreConfig;
use std::fmt;

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

/// A corpus plus its per-program subwindow traces.
pub struct TracedCorpus {
    corpus: Corpus,
    limits: ExecLimits,
    core_config: CoreConfig,
    subwindows: Vec<Vec<RawWindow>>,
    pool: Pool,
}

impl TracedCorpus {
    /// Traces every program in `corpus` on [`Pool::available`].
    pub fn trace(corpus: Corpus, limits: ExecLimits, core_config: CoreConfig) -> TracedCorpus {
        let threads = Pool::available().threads();
        TracedCorpus::trace_threads(corpus, limits, core_config, threads)
    }

    /// Like [`TracedCorpus::trace`] with an explicit worker count. Traces
    /// are bit-identical at any `threads` value — each program's simulation
    /// is self-contained.
    pub fn trace_threads(
        corpus: Corpus,
        limits: ExecLimits,
        core_config: CoreConfig,
        threads: usize,
    ) -> TracedCorpus {
        let pool = Pool::new(threads);
        let subwindows =
            pool.map(corpus.programs(), |_, p| trace_subwindows(p, limits, core_config));
        rhmd_obs::add("data.programs_traced", subwindows.len() as u64);
        TracedCorpus {
            corpus,
            limits,
            core_config,
            subwindows,
            pool,
        }
    }

    /// The pool this corpus was traced on. Re-traces of its programs
    /// (`rhmd_core::evasion::evade_corpus`, the retraining game's evasive
    /// variants) map on it too, so a caller's thread count reaches them.
    pub fn pool(&self) -> Pool {
        self.pool
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

    /// Subwindows of program `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn subwindows(&self, index: usize) -> &[RawWindow] {
        &self.subwindows[index]
    }

    /// Feature vectors of program `index` under `spec` (one per window).
    pub fn program_vectors(&self, index: usize, spec: &FeatureSpec) -> Vec<Vec<f64>> {
        rhmd_features::pipeline::project_windows(&self.subwindows[index], spec)
    }

    /// Builds a window-level dataset over the given program indices,
    /// labelling every window with its program's ground truth.
    ///
    /// Each program is projected into one reused flat buffer and appended
    /// to the dataset's backing matrix in a single extend — no per-window
    /// allocation.
    pub fn window_dataset(&self, indices: &[usize], spec: &FeatureSpec) -> Dataset {
        let mut data = Dataset::new(spec.dims());
        let mut buf = Vec::new();
        for &i in indices {
            let label = self.corpus.program(i).class.label();
            buf.clear();
            project_windows_into(&self.subwindows[i], spec, &mut buf);
            data.extend_from_flat(&buf, label);
        }
        data
    }

    /// Like [`TracedCorpus::window_dataset`] but also returns, for each row,
    /// the index of the program it came from — needed for program-level
    /// (vote-averaged) decisions.
    pub fn window_dataset_with_owners(
        &self,
        indices: &[usize],
        spec: &FeatureSpec,
    ) -> (Dataset, Vec<usize>) {
        let mut data = Dataset::new(spec.dims());
        let mut owners = Vec::new();
        let mut buf = Vec::new();
        for &i in indices {
            let label = self.corpus.program(i).class.label();
            buf.clear();
            let windows = project_windows_into(&self.subwindows[i], spec, &mut buf);
            data.extend_from_flat(&buf, label);
            owners.extend(std::iter::repeat_n(i, windows));
        }
        (data, owners)
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
    fn owners_align_with_rows() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let idx = vec![0usize, 1];
        let (data, owners) = t.window_dataset_with_owners(&idx, &spec);
        assert_eq!(data.len(), owners.len());
        assert!(owners.iter().all(|o| idx.contains(o)));
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
