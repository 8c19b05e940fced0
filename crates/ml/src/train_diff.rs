//! Differential training suite: [`DecisionTree::fit`],
//! [`RandomForest::fit`] and [`Mlp::fit`] against the reference fitters
//! they replaced (per-node-sort CART, row-copying forest, per-unit SGD).
//! Every `f64` of every model is compared by `to_bits`, since the derived
//! `PartialEq` takes `-0.0 == 0.0`. `PROPTEST_CASES` deepens the search.
//!
//! The MLP cases run [`Mlp::fit`] and every compiled instance of its SGD
//! step (portable, and AVX2 where the CPU has it), whatever the `simd`
//! feature selects. The step's building blocks are checked on their own:
//! the register-blocked forward pass against per-unit sums, the integer
//! subnormal path its bias momentum runs through against the hardware
//! expressions it replaces, and the memo in front of that path against
//! the path itself. One MLP case trains long enough on saturating data
//! that saturated units' bias momentum decays into the subnormal range.

use crate::forest::{ForestConfig, RandomForest};
use crate::mlp::{forward, momentum_step, mul_subnormal, Mlp, MlpConfig, StepMemo};
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

/// MLP configs with the paper's width (`hidden = dims`, drawn as 0) or a
/// hidden width that differs from the input width: below, at and around
/// the 4- and 16-lane blocks of the forward pass, and past two 16-lane
/// blocks.
fn mlp_case() -> impl Strategy<Value = (MlpConfig, Dataset)> {
    (
        prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 33]),
        prop::sample::select(vec![0u32, 1, 3, 8]),
        prop::sample::select(vec![0.08, 0.5]),
        any::<bool>(),
        any::<u64>(),
        shape(32),
    )
        .prop_map(
            |(hidden, epochs, learning_rate, balance_classes, seed, mut shape)| {
                // `Mlp::fit` widens a single unit to two.
                if hidden > 0 && shape.dims == hidden.max(2) {
                    shape.dims = hidden.max(2) % 4 + 1;
                }
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

/// MLP configs whose hidden units saturate (`tanh` exactly ±1) early and
/// stay saturated, so the bias momentum of those units decays through the
/// subnormal range: to zero under momentum 0.5, and to a fixed point a few
/// quanta above zero under 0.95. Under momentum 1e-30 it turns subnormal
/// within a dozen saturated rows, so a later unsaturated row meets it with
/// a normal gradient.
fn saturating_mlp_case() -> impl Strategy<Value = (MlpConfig, Dataset)> {
    (
        prop::sample::select(vec![(0.5, 48u32), (0.95, 480), (1e-30, 48)]),
        prop::sample::select(vec![2.0, 8.0]),
        1usize..=4,
        any::<u64>(),
    )
        .prop_map(|((momentum, epochs), learning_rate, hidden, seed)| {
            let config = MlpConfig {
                epochs,
                learning_rate,
                momentum,
                seed,
                hidden: Some(hidden),
                ..MlpConfig::default()
            };
            // Two well-separated clusters with one far outlier per class.
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut flat, mut labels) = (Vec::new(), Vec::new());
            for r in 0..32 {
                let label = r % 2 == 0;
                let centre = if label { 1.0 } else { -1.0 };
                let spread = if r < 2 { 40.0 } else { 1.0 };
                flat.extend((0..2).map(|_| centre * spread + rng.gen_range(-0.2..0.2)));
                labels.push(label);
            }
            (config, Dataset::from_flat(2, flat, labels))
        })
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

/// Checks [`Mlp::fit`] and every compiled instance of its SGD step against the
/// per-unit reference loop, bit for bit.
fn mlp_instances_match_reference(config: &MlpConfig, data: &Dataset) -> Result<(), TestCaseError> {
    let reference = mlp_bits(&Mlp::fit_reference(config, data));
    for (instance, model) in Mlp::fit_instances(config, data) {
        prop_assert_eq!(
            &mlp_bits(&model),
            &reference,
            "{} instance differs from the reference",
            instance
        );
    }
    Ok(())
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
        mlp_instances_match_reference(&config, &data)?;
    }

    #[test]
    fn saturated_mlp_matches_reference((config, data) in saturating_mlp_case()) {
        mlp_instances_match_reference(&config, &data)?;
    }
}

const MAX_SUBNORMAL: u64 = (1 << 52) - 1;

/// `2^exp` for a normal exponent.
fn pow2(exp: i32) -> f64 {
    f64::from_bits(((exp + 1023) as u64) << 52)
}

/// Positive subnormals: every `N < 2¹²`, 4096 random `N < 2⁵²` and the
/// largest.
fn subnormal_mantissas() -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(0x5ab);
    let mut out: Vec<u64> = (1..1 << 12).collect();
    out.extend((0..4096).map(|_| rng.gen_range(1..=MAX_SUBNORMAL)));
    out.push(MAX_SUBNORMAL);
    out
}

/// Momentum coefficients: the defaults, exact halves and quarters (ties),
/// and random values in (0, 1) across every normal exponent.
fn momenta() -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(0x3e7a);
    let mut out = vec![0.95, 0.9, 0.5, 0.25, 0.75, 1f64.next_down(), f64::MIN_POSITIVE];
    out.extend((0..16).map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0)));
    out.extend((0..16).map(|_| {
        f64::from_bits(rng.gen_range(1u64..=1022) << 52 | rng.gen_range(0..=MAX_SUBNORMAL))
    }));
    out
}

/// Both signs of every value.
fn signed(values: &[f64]) -> Vec<f64> {
    values.iter().flat_map(|&x| [x, -x]).collect()
}

/// Gradients around the absorbing threshold 2⁻⁹⁶⁸, plus zeros, subnormals,
/// normals and non-finite values.
fn gradients() -> Vec<f64> {
    let mut out = signed(&[
        0.0,
        f64::from_bits(1),
        f64::from_bits(1 << 51),
        f64::from_bits(MAX_SUBNORMAL),
        f64::MIN_POSITIVE,
        pow2(-969),
        pow2(-968).next_down(),
        pow2(-968),
        pow2(-968).next_up(),
        1e-300,
        0.5,
        1.0,
        3.0,
        f64::MAX,
        f64::INFINITY,
    ]);
    out.push(f64::NAN);
    out
}

#[test]
fn mul_subnormal_matches_hardware() {
    for m in momenta() {
        for n in subnormal_mantissas() {
            for v in signed(&[f64::from_bits(n)]) {
                assert_eq!(mul_subnormal(m, v).to_bits(), (m * v).to_bits(), "{m:e} * {v:e}");
            }
        }
    }
}

#[test]
fn mul_subnormal_rounds_ties_to_even() {
    // (m, N, rounded m·N): every product sits exactly halfway.
    let ties = [(0.5, 1, 0), (0.5, 3, 2), (0.5, 5, 2), (0.5, 7, 4), (0.75, 2, 2), (0.75, 6, 4)];
    for (m, n, q) in ties {
        for sign in [0, 1 << 63] {
            let v = f64::from_bits(sign | n);
            assert_eq!(mul_subnormal(m, v).to_bits(), sign | q, "{m} * {n}");
            assert_eq!((m * v).to_bits(), sign | q, "{m} * {n}");
        }
    }
}

#[test]
fn momentum_step_matches_hardware() {
    let mut vs: Vec<f64> = subnormal_mantissas().into_iter().step_by(17).map(f64::from_bits).collect();
    vs.extend([0.0, f64::MIN_POSITIVE, 1e-300, 0.5]);
    // Momenta outside (0, 1) or not normal take the hardware path.
    let mut ms = momenta();
    ms.extend([0.0, 1.0, 1.5, -0.5, f64::from_bits(1), f64::NAN]);
    for m in ms {
        for &v in &signed(&vs) {
            for g in gradients() {
                assert_eq!(
                    momentum_step(m, v, g).to_bits(),
                    (m * v - g).to_bits(),
                    "{m:e} * {v:e} - {g:e}"
                );
            }
        }
    }
}

#[test]
fn memoized_step_matches_momentum_step() {
    // `v = 1` quantum under m = 0.5 or 1e-30 makes `p = m·v` zero.
    let vs = signed(&[1, 2, 3, 19, 20, 1 << 40, MAX_SUBNORMAL].map(f64::from_bits));
    let gs = signed(&[0.0, f64::from_bits(1), 1e-310, pow2(-968), 0.5]);
    for m in [0.95, 0.5, 0.25, 1e-30] {
        let mut memo = StepMemo::default();
        let mut check = |v: f64, g: f64| {
            let expected = momentum_step(m, v, g).to_bits();
            // Twice in a row: a miss, then a hit on the same key.
            for _ in 0..2 {
                assert_eq!(memo.step(m, v, g).to_bits(), expected, "{m:e} * {v:e} - {g:e}");
            }
        };
        // One `v` under every `g`, then one `g` under every `v`: a key
        // that drops either half returns a stale step.
        for &v in &vs {
            for &g in &gs {
                check(v, g);
            }
        }
        for &g in &gs {
            for &v in &vs {
                check(v, g);
            }
        }
    }
}

#[test]
fn blocked_forward_matches_per_unit_sums() {
    let mut rng = SmallRng::seed_from_u64(0xf0d);
    for hidden in 1..=40 {
        for dims in [1, 2, 3, 5, 16] {
            // Signed zeros in both operands: a unit whose products are all
            // `-0.0` sums to `-0.0` only from a `-0.0` start.
            let pick = |rng: &mut SmallRng| match rng.gen_range(0..4) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-3.0..3.0),
            };
            let w1: Vec<f64> = (0..dims * hidden).map(|_| pick(&mut rng)).collect();
            let mixed = (0..dims).map(|_| pick(&mut rng)).collect();
            let rows = [vec![-0.0; dims], vec![0.0; dims], mixed];
            for row in &rows {
                let mut act = vec![f64::NAN; hidden];
                forward(&w1, row, &mut act);
                for (h, a) in act.iter().enumerate() {
                    let sum: f64 = (0..dims).map(|d| w1[d * hidden + h] * row[d]).sum();
                    assert_eq!(a.to_bits(), sum.to_bits(), "unit {h} of {hidden}, {dims} dims");
                }
            }
        }
    }
}
