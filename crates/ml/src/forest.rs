//! Random forest — the "high-complexity, high-accuracy" classifier the
//! paper's §8.2 discussion contrasts with pools of weak detectors.

use crate::metrics::best_accuracy_threshold;
use crate::model::{Classifier, Dataset};
use crate::tree::{DecisionTree, Presorted, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rhmd_runtime::pool::Pool;
use serde::{Deserialize, Serialize};

/// Training hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub trees: u32,
    /// Per-tree CART settings.
    pub tree: TreeConfig,
    /// Bootstrap-sampling seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> ForestConfig {
        ForestConfig {
            trees: 32,
            tree: TreeConfig {
                max_depth: 12,
                min_split: 4,
                min_leaf: 2,
            },
            seed: 0xf0_4e57,
        }
    }
}

/// A bagged ensemble of CART trees; scores are the mean leaf malware
/// fraction across trees.
///
/// Note the contrast the paper draws (§8.2): a random forest is a
/// *deterministic* combination of many trees, so — unlike an RHMD — it can
/// still be reverse-engineered to arbitrary precision.
///
/// # Examples
///
/// ```
/// use rhmd_ml::forest::{ForestConfig, RandomForest};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// let data = Dataset::from_flat(
///     1,
///     vec![0.1, 0.2, 0.8, 0.9],
///     vec![false, false, true, true],
/// );
/// let forest = RandomForest::fit(&ForestConfig::default(), &data);
/// assert!(forest.predict(&[0.85]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    threshold: f64,
}

impl RandomForest {
    /// Trains `config.trees` CART trees on bootstrap resamples, grown in
    /// parallel on every available core. The forest does not depend on the
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.trees` is zero.
    pub fn fit(config: &ForestConfig, data: &Dataset) -> RandomForest {
        RandomForest::fit_on(&Pool::available(), config, data)
    }

    /// [`RandomForest::fit`] with the trees grown on `pool`. Every tree's
    /// bootstrap draws come first, in tree order from the one generator, so
    /// each tree sees the same resample whichever worker grows it.
    pub(crate) fn fit_on(pool: &Pool, config: &ForestConfig, data: &Dataset) -> RandomForest {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(config.trees > 0, "forest needs at least one tree");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n = data.len();
        let draws: Vec<Vec<u32>> = (0..config.trees)
            .map(|_| {
                let mut counts = vec![0u32; n];
                for _ in 0..n {
                    counts[rng.gen_range(0..n)] += 1;
                }
                counts
            })
            .collect();
        let presorted = Presorted::new(data);
        let trees = pool.map(&draws, |_, counts| {
            DecisionTree::fit_presorted(&config.tree, presorted.resample(counts, data.labels()))
        });
        RandomForest::calibrated(trees, data)
    }

    /// The row-copying forest that [`RandomForest::fit`] replaced: the same
    /// bootstrap draws, each sample copied into a new dataset and grown by
    /// the per-node-sort reference CART. The differential oracle for `fit`.
    #[cfg(test)]
    pub(crate) fn fit_reference(config: &ForestConfig, data: &Dataset) -> RandomForest {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n = data.len();
        let trees = (0..config.trees)
            .map(|_| {
                let mut sample = Dataset::new(data.dims());
                sample.reserve_rows(n);
                for _ in 0..n {
                    let i = rng.gen_range(0..n);
                    sample.push_row(data.row(i), data.labels()[i]);
                }
                DecisionTree::fit_reference(&config.tree, &sample)
            })
            .collect();
        RandomForest::calibrated(trees, data)
    }

    /// Wraps `trees` with the threshold that maximizes accuracy on `data`.
    fn calibrated(trees: Vec<DecisionTree>, data: &Dataset) -> RandomForest {
        let mut model = RandomForest {
            trees,
            threshold: 0.5,
        };
        let mut scores = vec![0.0; data.len()];
        model.score_batch(data.matrix(), &mut scores);
        let (threshold, _) = best_accuracy_threshold(&scores, data.labels());
        model.threshold = if threshold.is_finite() { threshold } else { 0.5 };
        model
    }

    /// Every tree's [`DecisionTree::to_bits`], then the threshold's bits.
    #[cfg(test)]
    pub(crate) fn to_bits(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.trees.iter().flat_map(DecisionTree::to_bits).collect();
        out.push(self.threshold.to_bits());
        out
    }

    /// Number of trees in the ensemble.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// A forest always contains at least one tree.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Classifier for RandomForest {
    // Never inlined, so per-row scoring and the default `score_batch` loop
    // run one compiled walk. With two copies, which one ran faster depended
    // on where the linker placed them (0.73x to 1.45x batch over per-row
    // between builds whose forest code was identical).
    #[inline(never)]
    fn score(&self, x: &[f64]) -> f64 {
        let total: f64 = self.trees.iter().map(|t| t.score(x)).sum();
        total / self.trees.len() as f64
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "RF"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.gen::<bool>();
            let b = rng.gen::<bool>();
            d.push(
                vec![
                    f64::from(u8::from(a)) + (rng.gen::<f64>() - 0.5) * 0.3,
                    f64::from(u8::from(b)) + (rng.gen::<f64>() - 0.5) * 0.3,
                ],
                a != b,
            );
        }
        d
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let data = xor_data(400, 1);
        let forest = RandomForest::fit(&ForestConfig::default(), &data);
        let acc = data
            .iter()
            .filter(|(row, label)| forest.predict(row) == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let mut rng = SmallRng::seed_from_u64(2);
        // Signal in dim 0; pure noise in dims 1-3.
        let mut d = Dataset::new(4);
        for _ in 0..300 {
            let malware = rng.gen::<bool>();
            d.push(
                vec![
                    if malware { 0.6 } else { 0.4 } + (rng.gen::<f64>() - 0.5) * 0.5,
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                ],
                malware,
            );
        }
        let shallow = TreeConfig {
            max_depth: 12,
            min_split: 4,
            min_leaf: 2,
        };
        let tree = DecisionTree::fit(&shallow, &d);
        let forest = RandomForest::fit(&ForestConfig::default(), &d);
        // Evaluate on fresh data from the same process.
        let mut test = Dataset::new(4);
        for _ in 0..300 {
            let malware = rng.gen::<bool>();
            test.push(
                vec![
                    if malware { 0.6 } else { 0.4 } + (rng.gen::<f64>() - 0.5) * 0.5,
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                ],
                malware,
            );
        }
        let acc = |m: &dyn Classifier| {
            test.iter().filter(|(r, l)| m.predict(r) == *l).count() as f64 / test.len() as f64
        };
        assert!(
            acc(&forest) >= acc(&tree) - 0.02,
            "forest {} vs tree {}",
            acc(&forest),
            acc(&tree)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let data = xor_data(100, 3);
        let a = RandomForest::fit(&ForestConfig::default(), &data);
        let b = RandomForest::fit(&ForestConfig::default(), &data);
        assert_eq!(a, b);
    }

    #[test]
    fn scores_are_leaf_fractions() {
        let data = xor_data(100, 4);
        let forest = RandomForest::fit(&ForestConfig::default(), &data);
        for (row, _) in data.iter() {
            let s = forest.score(row);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(forest.len(), 32);
    }
}
