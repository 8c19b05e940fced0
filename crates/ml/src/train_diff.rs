//! Differential training suite: [`DecisionTree::fit`],
//! [`RandomForest::fit`] and [`Mlp::fit`] against the reference fitters
//! they replaced (per-node-sort CART, row-copying forest, per-unit SGD).
//! Every `f64` of every model is compared by `to_bits`, since the derived
//! `PartialEq` takes `-0.0 == 0.0`. `PROPTEST_CASES` deepens the search.

use crate::forest::{ForestConfig, RandomForest};
use crate::mlp::{Mlp, MlpConfig};
use crate::model::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Values for tie-heavy columns. A column draws from the first 3–5, so
/// `-0.0` and `0.0` (equal under `==`, ordered by `total_cmp`) always mix.
const TIE_LEVELS: [f64; 5] = [-0.0, 0.0, 1.0, -2.5, 3.0];

/// How a generated training set is built.
#[derive(Debug, Clone, Copy)]
struct Shape {
    dims: usize,
    rows: usize,
    /// Distinct values per column, drawn from [`TIE_LEVELS`]; 0 draws
    /// continuous values instead.
    levels: usize,
    single_class: bool,
    /// Some rows repeat an earlier row, label included.
    duplicate_rows: bool,
    /// Column 1 repeats column 0, so two features tie on every candidate.
    duplicate_column: bool,
    seed: u64,
}

impl Shape {
    fn build(self) -> Dataset {
        let Shape { dims, rows, .. } = self;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let class = rng.gen::<bool>();
        let mut flat = Vec::with_capacity(dims * rows);
        let mut labels = Vec::with_capacity(rows);
        for r in 0..rows {
            if self.duplicate_rows && r > 0 && rng.gen_bool(0.4) {
                let src = rng.gen_range(0..r);
                flat.extend_from_within(src * dims..(src + 1) * dims);
                labels.push(labels[src]);
                continue;
            }
            for _ in 0..dims {
                flat.push(if self.levels == 0 {
                    rng.gen_range(-10.0..10.0)
                } else {
                    TIE_LEVELS[rng.gen_range(0..self.levels)]
                });
            }
            if self.duplicate_column && dims >= 2 {
                flat[r * dims + 1] = flat[r * dims];
            }
            labels.push(if self.single_class { class } else { rng.gen() });
        }
        Dataset::from_flat(dims, flat, labels)
    }
}

/// Shapes of 1–4 dims and 1–`max_rows` rows; a quarter are single-class,
/// and `flags` switches duplicate rows and a duplicate column.
fn shape(max_rows: usize) -> impl Strategy<Value = Shape> {
    (
        1usize..=4,
        1usize..=max_rows,
        prop::sample::select(vec![0usize, 3, 4, 5]),
        0u8..4,
        0u8..4,
        any::<u64>(),
    )
        .prop_map(|(dims, rows, levels, flags, class_mode, seed)| Shape {
            dims,
            rows,
            levels,
            single_class: class_mode == 0,
            duplicate_rows: flags & 1 != 0,
            duplicate_column: flags & 2 != 0,
            seed,
        })
}

/// A CART config and a training set whose row count is random or sits at
/// `min_split ± 1` or at `2 × min_leaf ± 1` (the smallest splittable node).
fn tree_case() -> impl Strategy<Value = (TreeConfig, Dataset)> {
    (
        prop::sample::select(vec![0u32, 1, 2, 3, 10]),
        0usize..=8,
        0usize..=4,
        0u8..7,
        shape(48),
    )
        .prop_map(|(max_depth, min_split, min_leaf, rows_at, mut shape)| {
            shape.rows = match usize::from(rows_at) {
                k @ 1..=3 => (min_split + k).saturating_sub(2),
                k @ 4..=6 => (2 * min_leaf + k).saturating_sub(5),
                _ => shape.rows,
            }
            .max(1);
            let config = TreeConfig {
                max_depth,
                min_split,
                min_leaf,
            };
            (config, shape.build())
        })
}

fn forest_case() -> impl Strategy<Value = (ForestConfig, Dataset)> {
    (tree_case(), 1u32..=4, any::<u64>())
        .prop_map(|((tree, data), trees, seed)| (ForestConfig { trees, tree, seed }, data))
}

/// MLP configs with hidden widths below, at and above the input width.
fn mlp_case() -> impl Strategy<Value = (MlpConfig, Dataset)> {
    (
        0usize..=6,
        prop::sample::select(vec![0u32, 1, 3, 8]),
        prop::sample::select(vec![0.08, 0.5]),
        any::<bool>(),
        any::<u64>(),
        shape(32),
    )
        .prop_map(
            |(hidden, epochs, learning_rate, balance_classes, seed, shape)| {
                let config = MlpConfig {
                    epochs,
                    learning_rate,
                    seed,
                    balance_classes,
                    hidden: (hidden > 0).then_some(hidden),
                    ..MlpConfig::default()
                };
                (config, shape.build())
            },
        )
}

fn mlp_bits(model: &Mlp) -> Vec<u64> {
    let (scaler, w1, b1, w2, b2, threshold) = model.parts();
    let mut out: Vec<u64> = [w1.len(), w1.first().map_or(0, Vec::len)]
        .map(|n| n as u64)
        .to_vec();
    out.extend(
        scaler
            .mean()
            .iter()
            .chain(scaler.std())
            .chain(w1.iter().flatten())
            .chain(b1)
            .chain(w2)
            .chain([&b2, &threshold])
            .map(|v| v.to_bits()),
    );
    out
}

proptest! {
    #[test]
    fn presorted_tree_matches_reference((config, data) in tree_case()) {
        prop_assert_eq!(
            DecisionTree::fit(&config, &data).to_bits(),
            DecisionTree::fit_reference(&config, &data).to_bits()
        );
    }

    #[test]
    fn presorted_forest_matches_reference((config, data) in forest_case()) {
        prop_assert_eq!(
            RandomForest::fit(&config, &data).to_bits(),
            RandomForest::fit_reference(&config, &data).to_bits()
        );
    }

    #[test]
    fn hidden_major_mlp_matches_reference((config, data) in mlp_case()) {
        prop_assert_eq!(
            mlp_bits(&Mlp::fit(&config, &data)),
            mlp_bits(&Mlp::fit_reference(&config, &data))
        );
    }
}
