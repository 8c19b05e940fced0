//! [`EvalSource`]: where feature rows come from — the corpus traced in RAM
//! this run, or the mmap'd on-disk store.
//!
//! The evaluator, the CLI verbs, and the bench figure binaries all consume
//! per-program feature matrices plus labels. Both backings answer the same
//! questions with bit-identical rows, which the `store-smoke` CI job
//! asserts by diffing sweep cells, model files and evaluation output from
//! both paths. This enum is the one place that tells the two apart.

use crate::store::CorpusStore;
use crate::traced::TracedCorpus;
use rhmd_features::pipeline::project_windows_into;
use rhmd_features::vector::FeatureSpec;
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_runtime::RhmdError;

/// A corpus of labelled programs whose feature rows can be read one program
/// at a time: live from a [`TracedCorpus`] or from an opened
/// [`CorpusStore`].
///
/// For the same underlying corpus, [`EvalSource::features_of`] returns
/// identical rows whether they were just projected or read back from a
/// shard.
#[derive(Debug, Clone, Copy)]
pub enum EvalSource<'a> {
    /// Programs traced in RAM this run.
    Traced(&'a TracedCorpus),
    /// Feature rows mmap'd from a prebuilt corpus store.
    Store(&'a CorpusStore),
}

impl<'a> EvalSource<'a> {
    /// Number of programs.
    pub fn len(&self) -> usize {
        match self {
            EvalSource::Traced(t) => t.corpus().len(),
            EvalSource::Store(s) => s.len(),
        }
    }

    /// Whether the source holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ground-truth label per program (`true` = malware).
    pub fn labels(&self) -> Vec<bool> {
        match self {
            EvalSource::Traced(t) => t.corpus().labels(),
            EvalSource::Store(s) => s.labels().to_vec(),
        }
    }

    /// Stratum id per program, for stratified splitting.
    pub fn strata(&self) -> Vec<u32> {
        match self {
            EvalSource::Traced(t) => t.corpus().strata(),
            EvalSource::Store(s) => s.strata().to_vec(),
        }
    }

    /// A stable identity for the backing data, folded into feature-cache
    /// keys and checkpoint summaries: `0` for live generation, the store's
    /// path/config hash otherwise. Two sources with different identities
    /// never share cache entries.
    pub fn identity(&self) -> u64 {
        match self {
            EvalSource::Traced(_) => 0,
            EvalSource::Store(s) => s.identity(),
        }
    }

    /// All feature rows of program `index` under `spec` (one row per
    /// collection window). Store-backed matrices are zero-copy views over
    /// the mapped shard.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] when `index` is out of range or the source
    /// cannot produce `spec` (a store built without it).
    pub fn features_of(
        &self,
        index: usize,
        spec: &FeatureSpec,
    ) -> Result<FeatureMatrix, RhmdError> {
        let traced = match self {
            EvalSource::Traced(t) => t,
            EvalSource::Store(s) => return s.features_of(index, spec),
        };
        if index >= traced.corpus().len() {
            return Err(RhmdError::config(format!(
                "program index {index} out of range ({} programs)",
                traced.corpus().len()
            )));
        }
        let mut buf = Vec::new();
        let rows = project_windows_into(traced.subwindows(index), spec, &mut buf);
        if spec.dims() == 0 {
            // Degenerate specs still count windows; preserve the row count
            // the store path records.
            let mut m = FeatureMatrix::new(0);
            for _ in 0..rows {
                m.push_row(&[]);
            }
            return Ok(m);
        }
        Ok(FeatureMatrix::from_flat(spec.dims(), buf))
    }

    /// Traces the programs at `indices` that a traced corpus has not traced
    /// yet ([`TracedCorpus::prefetch`]); a store holds every row already.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range of a traced corpus.
    pub fn prefetch(&self, indices: &[usize]) {
        if let EvalSource::Traced(t) = self {
            t.prefetch(indices);
        }
    }

    /// The live traced corpus, for paths that need raw subwindows (attack,
    /// defend, fault injection, RHMD switching).
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] naming the store directory in store mode: a
    /// store keeps projected rows, not traces.
    pub fn traced(&self) -> Result<&'a TracedCorpus, RhmdError> {
        match self {
            EvalSource::Traced(t) => Ok(t),
            EvalSource::Store(s) => Err(RhmdError::config(format!(
                "this command needs raw traces, which the corpus store at {} \
                 does not retain; rerun without --corpus-store",
                s.dir().display()
            ))),
        }
    }

    /// Insists `spec` can be served, so a missing shard fails with a typed
    /// error before any evaluation. A traced corpus projects any spec.
    ///
    /// # Errors
    ///
    /// [`RhmdError::Config`] in store mode when the store was not built with
    /// `spec`; the message lists the stored specs.
    pub fn require_spec(&self, spec: &FeatureSpec) -> Result<(), RhmdError> {
        match self {
            EvalSource::Store(s) if !s.has_spec(spec) => {
                let stored: Vec<String> = s.specs().map(FeatureSpec::label).collect();
                Err(RhmdError::config(format!(
                    "the corpus store at {} was not built with feature {} \
                     (stored: {}); rebuild with: rhmd corpus build --store {} \
                     --features ... --periods ...",
                    s.dir().display(),
                    spec.label(),
                    stored.join(", "),
                    s.dir().display(),
                )))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;
    use crate::corpus::Corpus;
    use rhmd_features::vector::FeatureKind;
    use rhmd_uarch::CoreConfig;

    fn traced() -> TracedCorpus {
        let cfg = CorpusConfig::tiny();
        TracedCorpus::trace(Corpus::build(&cfg), cfg.limits(), CoreConfig::default())
    }

    #[test]
    fn traced_source_matches_inherent_vectors() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let m = EvalSource::Traced(&t).features_of(0, &spec).unwrap();
        let direct = t.program_vectors(0, &spec);
        assert_eq!(m.len(), direct.len());
        for (row, want) in (0..m.len()).zip(&direct) {
            assert_eq!(m.row(row), want.as_slice());
        }
    }

    #[test]
    fn out_of_range_is_a_config_error() {
        let t = traced();
        let spec = FeatureSpec::new(FeatureKind::Memory, 5_000, vec![]);
        let err = EvalSource::Traced(&t)
            .features_of(100_000, &spec)
            .unwrap_err();
        assert!(matches!(err, RhmdError::Config(_)));
    }
}
