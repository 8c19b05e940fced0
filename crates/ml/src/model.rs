//! Dataset container and the classifier abstraction shared by all models.

use crate::matrix::{FeatureMatrix, Rows};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A labelled feature-vector dataset (label `true` = malware, as in the
/// paper's 0/1 convention).
///
/// Rows live in one contiguous [`FeatureMatrix`]; appending is an
/// amortized-growth extend of the flat buffer, never a per-row box.
///
/// # Examples
///
/// ```
/// use rhmd_ml::model::Dataset;
///
/// let mut d = Dataset::new(2);
/// d.push(vec![0.1, 0.9], true);
/// d.push(vec![0.8, 0.2], false);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.positives(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    x: FeatureMatrix,
    labels: Vec<bool>,
}

impl Dataset {
    /// Creates an empty dataset of `dims`-dimensional rows.
    pub fn new(dims: usize) -> Dataset {
        Dataset {
            x: FeatureMatrix::new(dims),
            labels: Vec::new(),
        }
    }

    /// Builds a dataset from a flat row-major buffer and parallel labels —
    /// `labels.len()` rows of `dims` values each, no per-row allocation.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != dims * labels.len()` or any value is
    /// non-finite.
    pub fn from_flat(dims: usize, flat: Vec<f64>, labels: Vec<bool>) -> Dataset {
        assert_eq!(
            flat.len(),
            dims * labels.len(),
            "flat buffer must hold labels.len() rows of dims values"
        );
        Dataset::from_matrix(FeatureMatrix::from_flat(dims, flat), labels)
    }

    /// Builds a dataset directly from a matrix and parallel labels.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any value is non-finite.
    pub fn from_matrix(x: FeatureMatrix, labels: Vec<bool>) -> Dataset {
        assert_eq!(x.len(), labels.len(), "rows and labels must align");
        assert!(
            x.as_slice().iter().all(|v| v.is_finite()),
            "feature values must be finite"
        );
        Dataset { x, labels }
    }

    /// Appends one labelled row.
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality mismatches or contains non-finite
    /// values.
    pub fn push(&mut self, row: Vec<f64>, label: bool) {
        self.push_row(&row, label);
    }

    /// Appends one labelled row from a borrowed slice (no ownership
    /// transfer, no per-row allocation).
    ///
    /// # Panics
    ///
    /// Panics if the row's dimensionality mismatches or contains non-finite
    /// values.
    pub fn push_row(&mut self, row: &[f64], label: bool) {
        assert!(
            row.iter().all(|v| v.is_finite()),
            "feature values must be finite"
        );
        self.x.push_row(row);
        self.labels.push(label);
    }

    /// Appends every row of `other` in one flat extend.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn extend_from(&mut self, other: &Dataset) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() && self.dims() == 0 {
            self.x = FeatureMatrix::new(other.dims());
        }
        assert_eq!(self.dims(), other.dims(), "row has wrong dimensionality");
        self.x.extend_flat(other.x.as_slice());
        self.labels.extend_from_slice(&other.labels);
    }

    /// Appends a flat run of whole rows, all sharing one label — the
    /// zero-copy append used when a projected window matrix joins a
    /// training set.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not a whole number of rows or contains
    /// non-finite values.
    pub fn extend_from_flat(&mut self, flat: &[f64], label: bool) {
        assert!(
            flat.iter().all(|v| v.is_finite()),
            "feature values must be finite"
        );
        let appended = self.x.extend_flat(flat);
        self.labels.resize(self.labels.len() + appended, label);
    }

    /// Reserves storage for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.x.reserve_rows(additional);
        self.labels.reserve(additional);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Row dimensionality.
    pub fn dims(&self) -> usize {
        self.x.dims()
    }

    /// A view of the feature rows.
    pub fn rows(&self) -> Rows<'_> {
        self.x.rows()
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.x.row(i)
    }

    /// The backing feature matrix.
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.x
    }

    /// The labels, parallel to [`Dataset::rows`].
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Count of positive (malware) rows.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Count of negative (benign) rows.
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }

    /// Iterates `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], bool)> + '_ {
        self.x.iter().zip(self.labels.iter().copied())
    }

    /// Returns a dataset with the same rows but labels replaced by
    /// `new_labels` — how the attacker relabels its training set with the
    /// victim's decisions (paper Fig 1a).
    ///
    /// # Panics
    ///
    /// Panics if `new_labels` has the wrong length.
    #[must_use]
    pub fn with_labels(&self, new_labels: Vec<bool>) -> Dataset {
        assert_eq!(new_labels.len(), self.len(), "label count must match rows");
        Dataset {
            x: self.x.clone(),
            labels: new_labels,
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} rows x {} dims, {} malware / {} benign)",
            self.len(),
            self.dims(),
            self.positives(),
            self.negatives()
        )
    }
}

/// A trained binary classifier.
///
/// `score` returns a real-valued malware-likeness; `predict` applies the
/// model's operating threshold. All models here pick the threshold
/// maximizing training accuracy — the paper's "point on the ROC which
/// maximizes the accuracy".
///
/// Per-row `score` and batched `score_batch` share one set of summation
/// kernels, so for every model family the two paths are bit-identical.
///
/// This trait is object-safe: RHMD pools store `Box<dyn Classifier>`.
pub trait Classifier: fmt::Debug + Send + Sync {
    /// Malware-likeness score for a feature vector.
    fn score(&self, x: &[f64]) -> f64;

    /// Scores every row of `xs` into `out`, bit-identically to calling
    /// [`Classifier::score`] per row. Models override this to amortize
    /// scratch buffers and sweep the flat matrix without per-row dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`.
    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            *slot = self.score(row);
        }
    }

    /// The operating threshold applied by [`Classifier::predict`].
    fn threshold(&self) -> f64;

    /// Hard decision: `true` = malware.
    fn predict(&self, x: &[f64]) -> bool {
        self.score(x) >= self.threshold()
    }

    /// Short algorithm name (e.g. `"LR"`, `"NN"`).
    fn algorithm(&self) -> &'static str;

    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Classifier>;

    /// Access to the concrete type, so strategy code (e.g. evasion weight
    /// extraction) can downcast.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Box<dyn Classifier> {
        self.clone_box()
    }
}

/// Scores every row of a dataset through the batch path.
pub fn score_all(model: &dyn Classifier, data: &Dataset) -> Vec<f64> {
    let _span = rhmd_obs::span("ml.score");
    let mut out = vec![0.0; data.len()];
    model.score_batch(data.matrix(), &mut out);
    out
}

/// Predicts every row of a dataset through the batch path.
pub fn predict_all(model: &dyn Classifier, data: &Dataset) -> Vec<bool> {
    let threshold = model.threshold();
    let mut scores = vec![0.0; data.len()];
    model.score_batch(data.matrix(), &mut scores);
    scores.into_iter().map(|s| s >= threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_counts() {
        let mut d = Dataset::new(1);
        d.push(vec![1.0], true);
        d.push(vec![2.0], false);
        d.push(vec![3.0], true);
        assert_eq!(d.positives(), 2);
        assert_eq!(d.negatives(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn push_rejects_wrong_dims() {
        let mut d = Dataset::new(2);
        d.push(vec![1.0], true);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_rejects_nan() {
        let mut d = Dataset::new(1);
        d.push(vec![f64::NAN], true);
    }

    #[test]
    #[should_panic(expected = "flat buffer")]
    fn from_flat_rejects_ragged_length() {
        let _ = Dataset::from_flat(2, vec![1.0, 2.0, 3.0], vec![true, false]);
    }

    #[test]
    fn with_labels_replaces() {
        let d = Dataset::from_flat(1, vec![1.0, 2.0], vec![true, true]);
        let relabelled = d.with_labels(vec![false, true]);
        assert_eq!(relabelled.labels(), &[false, true]);
        assert_eq!(relabelled.rows(), d.rows());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Dataset::from_flat(1, vec![1.0], vec![true]);
        let b = Dataset::from_flat(1, vec![2.0], vec![false]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.labels(), &[true, false]);
    }

    #[test]
    fn extend_from_empty_is_noop() {
        let mut a = Dataset::from_flat(1, vec![1.0], vec![true]);
        a.extend_from(&Dataset::new(3));
        assert_eq!(a.len(), 1);
        assert_eq!(a.dims(), 1);
    }

    #[test]
    fn extend_from_flat_shares_one_label() {
        let mut d = Dataset::new(2);
        d.extend_from_flat(&[1.0, 2.0, 3.0, 4.0], true);
        assert_eq!(d.len(), 2);
        assert_eq!(d.labels(), &[true, true]);
        assert_eq!(d.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn extend_from_flat_rejects_nan() {
        let mut d = Dataset::new(1);
        d.extend_from_flat(&[f64::NAN], true);
    }

    #[test]
    fn display_summarizes() {
        let d = Dataset::from_flat(2, vec![0.0, 0.0], vec![true]);
        assert_eq!(format!("{d}"), "Dataset(1 rows x 2 dims, 1 malware / 0 benign)");
    }
}
