//! Multi-layer perceptron — the paper's non-linear detector (§4): one hidden
//! layer with as many neurons as input features, `tanh` activations, sigmoid
//! output.

use crate::kernel;
use crate::matrix::FeatureMatrix;
use crate::metrics::best_accuracy_threshold;
use crate::model::{Classifier, Dataset};
use crate::scale::Standardizer;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Borrowed internals handed to the quantizer:
/// `(scaler, w1, b1, w2, b2, threshold)`.
pub(crate) type MlpParts<'a> = (&'a Standardizer, &'a [Vec<f64>], &'a [f64], &'a [f64], f64, f64);

/// Training hyperparameters for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Passes over the training set.
    pub epochs: u32,
    /// Initial SGD step size (decays as 1/(1 + epoch)).
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Weight-initialization and shuffling seed.
    pub seed: u64,
    /// Reweight samples inversely to class frequency.
    pub balance_classes: bool,
    /// Hidden-layer width override; `None` = number of input features
    /// (the paper's architecture).
    pub hidden: Option<usize>,
}

impl Default for MlpConfig {
    fn default() -> MlpConfig {
        MlpConfig {
            epochs: 300,
            learning_rate: 0.08,
            momentum: 0.95,
            l2: 1e-4,
            seed: 0x0de1,
            balance_classes: true,
            hidden: None,
        }
    }
}

/// A trained one-hidden-layer perceptron detector.
///
/// # Examples
///
/// ```
/// use rhmd_ml::mlp::{Mlp, MlpConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// // XOR-like data that no linear model can fit.
/// let data = Dataset::from_flat(
///     2,
///     vec![0., 0., 1., 1., 0., 1., 1., 0.],
///     vec![false, false, true, true],
/// );
/// let nn = Mlp::fit(&MlpConfig { epochs: 400, ..MlpConfig::default() }, &data);
/// assert!(nn.predict(&[0.9, 0.1]));
/// assert!(!nn.predict(&[0.95, 0.9]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    scaler: Standardizer,
    /// `hidden × input` weights.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    /// `hidden` output weights.
    w2: Vec<f64>,
    b2: f64,
    threshold: f64,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Mlp {
    /// Trains with backpropagation (SGD + momentum).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(config: &MlpConfig, data: &Dataset) -> Mlp {
        Mlp::fit_with(config, data, sgd)
    }

    /// [`Mlp::fit`] on the per-unit SGD loop it replaced, kept as the
    /// differential oracle for the hidden-major loop.
    #[cfg(test)]
    pub(crate) fn fit_reference(config: &MlpConfig, data: &Dataset) -> Mlp {
        Mlp::fit_with(config, data, sgd_reference)
    }

    /// [`Mlp::fit`] as dispatched, then on each compiled instance of its
    /// SGD step: the portable one, and the AVX2 one where the CPU has AVX2,
    /// whatever the `simd` feature selects.
    #[cfg(test)]
    pub(crate) fn fit_instances(config: &MlpConfig, data: &Dataset) -> Vec<(&'static str, Mlp)> {
        let mut fits = vec![
            ("dispatched", Mlp::fit(config, data)),
            ("portable", Mlp::fit_with(config, data, sgd_portable)),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked.
            let avx2: SgdLoop = |c, d, m, r| unsafe { sgd_avx2(c, d, m, r) };
            fits.push(("avx2", Mlp::fit_with(config, data, avx2)));
        }
        fits
    }

    /// Standardizes `data`, initializes the weights, runs `train` over them
    /// and calibrates the threshold.
    fn fit_with(config: &MlpConfig, data: &Dataset, train: SgdLoop) -> Mlp {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let scaler = Standardizer::fit(data);
        let scaled = scaler.transform_dataset(data);
        let dims = scaled.dims();
        let hidden = config.hidden.unwrap_or(dims).max(2);

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let xavier = (1.0 / dims.max(1) as f64).sqrt();
        let w1: Vec<Vec<f64>> = (0..hidden)
            .map(|_| (0..dims).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * xavier).collect())
            .collect();
        let hx = (1.0 / hidden as f64).sqrt();
        let w2: Vec<f64> = (0..hidden).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * hx).collect();
        let mut model = Mlp {
            scaler,
            w1,
            b1: vec![0.0; hidden],
            w2,
            b2: 0.0,
            threshold: 0.5,
        };
        train(config, &scaled, &mut model, &mut rng);

        let mut scores = vec![0.0; data.len()];
        model.score_batch(data.matrix(), &mut scores);
        let (threshold, _) = best_accuracy_threshold(&scores, data.labels());
        model.threshold = if threshold.is_finite() { threshold } else { 0.5 };
        model
    }

    /// Hidden-layer width.
    pub fn hidden_units(&self) -> usize {
        self.w2.len()
    }

    /// The gradient of the network's score with respect to the *raw* input
    /// features, evaluated at `x`.
    ///
    /// This is the local, exact version of the paper's weight-collapsing
    /// heuristic: collapsing sums `w1·w2` ignoring each hidden unit's
    /// activation regime, while the gradient weights unit `h` by its local
    /// slope `1 - tanh²(z_h)`. Evasion payloads built from the gradient at a
    /// malware centroid transfer much better against non-linear victims.
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        let z = self.scaler.transform(x);
        let dims = self.scaler.dims();
        let mut grad = vec![0.0; dims];
        for ((w, b), &wout) in self.w1.iter().zip(&self.b1).zip(&self.w2) {
            let pre: f64 = b + w.iter().zip(&z).map(|(wi, xi)| wi * xi).sum::<f64>();
            let t = pre.tanh();
            let slope = 1.0 - t * t;
            for (g, &wi) in grad.iter_mut().zip(w) {
                *g += wout * slope * wi;
            }
        }
        for (g, &s) in grad.iter_mut().zip(self.scaler.std()) {
            *g /= s;
        }
        grad
    }

    /// Collapses the network into one per-input weight vector using the
    /// paper's heuristic (§5): the weight of input `j` is
    /// `Σ_i w1[i][j] · w2[i]`, summed over all hidden neurons. Returned in
    /// *raw feature space* (scaling folded in), so evasion strategies can
    /// treat it exactly like an LR weight vector — approximately, since the
    /// true surface is non-linear.
    pub fn collapsed_input_weights(&self) -> Vec<f64> {
        let dims = self.scaler.dims();
        let mut w = vec![0.0; dims];
        for (row, &wout) in self.w1.iter().zip(&self.w2) {
            for (acc, &wi) in w.iter_mut().zip(row) {
                *acc += wi * wout;
            }
        }
        for (acc, &s) in w.iter_mut().zip(self.scaler.std()) {
            *acc /= s;
        }
        w
    }

    /// Internal parts for post-training quantization:
    /// `(scaler, w1, b1, w2, b2, threshold)`.
    pub(crate) fn parts(&self) -> MlpParts<'_> {
        (&self.scaler, &self.w1, &self.b1, &self.w2, self.b2, self.threshold)
    }

    /// Forward pass on an already-standardized row: hidden `tanh` layer
    /// then sigmoid output. Both `score` and `score_batch` funnel through
    /// here, so the two are bit-identical.
    fn score_standardized(&self, z: &[f64]) -> f64 {
        let mut sum = self.b2;
        for ((w, b), &wout) in self.w1.iter().zip(&self.b1).zip(&self.w2) {
            let a = b + kernel::dot(w, z);
            sum += wout * a.tanh();
        }
        sigmoid(sum)
    }
}

/// A training loop: SGD over `model`'s weights on the standardized set,
/// drawing its shuffles from `rng`.
type SgdLoop = fn(&MlpConfig, &Dataset, &mut Mlp, &mut SmallRng);

/// Per-class sample weights: inversely proportional to class frequency
/// when `balance_classes` is set.
fn class_weights(config: &MlpConfig, data: &Dataset) -> (f64, f64) {
    let n = data.len();
    let (pos, neg) = (data.positives().max(1), data.negatives().max(1));
    if config.balance_classes {
        (n as f64 / (2.0 * pos as f64), n as f64 / (2.0 * neg as f64))
    } else {
        (1.0, 1.0)
    }
}

/// SGD with momentum on a hidden-major copy of `w1` (`dims × hidden`,
/// contiguous), dispatched like [`kernel::dot`]: to the AVX2 instance of
/// the step when the `simd` feature is enabled and the CPU has AVX2, to
/// the portable instance otherwise. Both compile [`sgd_lanes`] and give
/// the same bits.
fn sgd(config: &MlpConfig, scaled: &Dataset, model: &mut Mlp, rng: &mut SmallRng) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked.
            return unsafe { sgd_avx2(config, scaled, model, rng) };
        }
    }
    sgd_portable(config, scaled, model, rng);
}

/// [`sgd_lanes`] for the baseline target.
fn sgd_portable(config: &MlpConfig, scaled: &Dataset, model: &mut Mlp, rng: &mut SmallRng) {
    sgd_lanes(config, scaled, model, rng);
}

/// [`sgd_lanes`] on 4-wide AVX2 lanes (no FMA: every lane op is the IEEE
/// op of the portable instance).
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(all(target_arch = "x86_64", any(feature = "simd", test)))]
#[target_feature(enable = "avx2")]
unsafe fn sgd_avx2(config: &MlpConfig, scaled: &Dataset, model: &mut Mlp, rng: &mut SmallRng) {
    sgd_lanes(config, scaled, model, rng);
}

/// The SGD step over hidden units as lanes.
///
/// Every weight sees the arithmetic of the per-unit loop it replaced
/// ([`sgd_reference`]), in the same order, so the result is bit-identical:
/// - each unit's pre-activation still sums `w·x` for `d = 0..dims` from
///   `-0.0` (where `Sum for f64` starts), then adds the bias; [`forward`]
///   only decides which units share registers;
/// - `v2`, `w2` and `delta_h` (from the old `w2[h]`) are computed in one
///   lane-wise loop, the `b1` momentum in a second: each reads only unit
///   `h`'s own state;
/// - the `w1` update of unit `h` reads only `delta_h`, the row and unit
///   `h`'s own weights, so sweeping it afterwards changes nothing;
/// - the `b1` momentum of a subnormal `vb1` goes through [`momentum_step`]
///   (via [`StepMemo`]), which returns the hardware's bits without
///   multiplying a subnormal.
#[inline(always)]
fn sgd_lanes(config: &MlpConfig, scaled: &Dataset, model: &mut Mlp, rng: &mut SmallRng) {
    let (wt_pos, wt_neg) = class_weights(config, scaled);
    let (dims, hidden) = (scaled.dims(), model.w2.len());
    let (momentum, l2) = (config.momentum, config.l2);
    let mut w1 = vec![0.0; dims * hidden];
    for (h, unit) in model.w1.iter().enumerate() {
        for (d, &w) in unit.iter().enumerate() {
            w1[d * hidden + h] = w;
        }
    }
    let Mlp { b1, w2, b2, .. } = model;

    // Momentum buffers; `v1` is hidden-major like `w1`.
    let mut v1 = vec![0.0; dims * hidden];
    let mut vb1 = vec![0.0; hidden];
    let mut v2 = vec![0.0; hidden];
    let mut vb2 = 0.0;
    let mut memo = vec![StepMemo::default(); hidden];

    let mut order: Vec<usize> = (0..scaled.len()).collect();
    let mut act = vec![0.0; hidden];
    let mut delta = vec![0.0; hidden];
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let lr = config.learning_rate / (1.0 + 0.02 * f64::from(epoch));
        for &i in &order {
            let row = scaled.row(i);
            let y = f64::from(u8::from(scaled.labels()[i]));
            let sample_weight = if scaled.labels()[i] { wt_pos } else { wt_neg };

            // Forward.
            forward(&w1, row, &mut act);
            for (a, b) in act.iter_mut().zip(b1.iter()) {
                *a = (b + *a).tanh();
            }
            let out = sigmoid(*b2 + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>());

            // Backward.
            let delta_out = (out - y) * sample_weight;
            for (((w, v), &a), d) in w2.iter_mut().zip(&mut v2).zip(&act).zip(&mut delta) {
                let grad2 = delta_out * a + l2 * *w;
                *v = momentum * *v - lr * grad2;
                *d = delta_out * *w * (1.0 - a * a);
                *w += *v;
            }
            // Kept apart from the loop above: merged into it, the compiler
            // vectorizes `momentum_step` by computing both its integer path
            // and the hardware `m·v` on every lane and blending, so a
            // subnormal lane pays the multiply's microcode assist.
            let bias = vb1.iter_mut().zip(b1.iter_mut());
            for (((v, b), &d), memo) in bias.zip(&delta).zip(&mut memo) {
                let g = lr * d;
                *v = if is_subnormal(*v) {
                    memo.step(momentum, *v, g)
                } else {
                    momentum * *v - g
                };
                *b += *v;
            }
            for ((&x, w), v) in row
                .iter()
                .zip(w1.chunks_exact_mut(hidden))
                .zip(v1.chunks_exact_mut(hidden))
            {
                for ((wi, vi), &delta_h) in w.iter_mut().zip(v.iter_mut()).zip(&delta) {
                    let grad1 = delta_h * x + l2 * *wi;
                    *vi = momentum * *vi - lr * grad1;
                    *wi += *vi;
                }
            }
            vb2 = momentum * vb2 - lr * delta_out;
            *b2 += vb2;
        }
    }

    for (h, unit) in model.w1.iter_mut().enumerate() {
        for (d, w) in unit.iter_mut().enumerate() {
            *w = w1[d * hidden + h];
        }
    }
}

/// Hidden pre-activations `act[h] = Σ_d w1[d·hidden + h]·row[d]`, without
/// the bias. Units go in register blocks of 16 lanes, then 4, then one;
/// within a block each lane starts from `-0.0` and adds its products for
/// `d = 0..dims` in order, exactly as the per-unit sum does.
#[inline(always)]
pub(crate) fn forward(w1: &[f64], row: &[f64], act: &mut [f64]) {
    let hidden = act.len();
    let mut h = 0;
    while h + 16 <= hidden {
        forward_block::<16>(w1, row, hidden, h, act);
        h += 16;
    }
    while h + 4 <= hidden {
        forward_block::<4>(w1, row, hidden, h, act);
        h += 4;
    }
    while h < hidden {
        forward_block::<1>(w1, row, hidden, h, act);
        h += 1;
    }
}

/// Units `h0..h0 + L` of [`forward`], accumulated in `L` registers.
#[inline(always)]
fn forward_block<const L: usize>(
    w1: &[f64],
    row: &[f64],
    hidden: usize,
    h0: usize,
    act: &mut [f64],
) {
    let mut acc = [-0.0f64; L];
    for (&x, w) in row.iter().zip(w1.chunks_exact(hidden)) {
        let w: &[f64; L] = w[h0..h0 + L].try_into().expect("block inside the row");
        for (a, &wi) in acc.iter_mut().zip(w) {
            *a += wi * x;
        }
    }
    act[h0..h0 + L].copy_from_slice(&acc);
}

/// One hidden unit's last out-of-line bias momentum step for each sign of
/// `g`, keyed on the bits of `(v, g)`. The momentum is fixed within a fit,
/// so [`momentum_step`] is a pure function of `(v, g)` there, and a
/// repeated key returns its bits. A saturated unit repeats its keys step
/// after step: `vb1` sits a few quanta above zero, where `0.95·N` rounds
/// back to `N`, and `g` is `+0` or `-0` with the sign of the output error,
/// so one entry per sign holds both. The zero key never matches, since
/// only a subnormal `v` is looked up.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepMemo([(u64, u64, f64); 2]);

impl StepMemo {
    /// `momentum_step(m, v, g)`, for the fit's one `m`.
    #[inline(always)]
    pub(crate) fn step(&mut self, m: f64, v: f64, g: f64) -> f64 {
        let (v_bits, g_bits) = (v.to_bits(), g.to_bits());
        let entry = &mut self.0[(g_bits >> 63) as usize];
        if (entry.0, entry.1) != (v_bits, g_bits) {
            *entry = (v_bits, g_bits, momentum_step(m, v, g));
        }
        entry.2
    }
}

const SIGN: u64 = 1 << 63;
const MANTISSA: u64 = (1 << 52) - 1;
/// Biased exponent of 2⁻⁹⁶⁸. Half the gap below any finite `|g|` from here
/// up is at least 2⁻¹⁰²², so subtracting `g` from a subnormal gives `-g`.
const ABSORBING_EXP: u64 = 55;

fn biased_exp(x: f64) -> u64 {
    (x.to_bits() >> 52) & 0x7ff
}

fn is_subnormal(x: f64) -> bool {
    let magnitude = x.to_bits() & !SIGN;
    magnitude != 0 && magnitude <= MANTISSA
}

/// `m * v` for a subnormal `v` and a normal `0 < m < 1`, rounded to
/// nearest, ties to even, on the subnormal grid in integers.
///
/// `v = N·2⁻¹⁰⁷⁴` and `m = M·2^(e−1075)` with `M` the 53-bit significand,
/// so `m·v = (N·M >> (1075 − e))·2⁻¹⁰⁷⁴`. The product fits in 105 bits;
/// from a shift of 106 up it rounds to 0, so the shift is capped at 127.
pub(crate) fn mul_subnormal(m: f64, v: f64) -> f64 {
    let (mb, vb) = (m.to_bits(), v.to_bits());
    let product = u128::from(vb & MANTISSA) * u128::from(mb & MANTISSA | 1 << 52);
    let shift = (1075 - (mb >> 52)).min(127) as u32;
    let (q, rem, half) = (product >> shift, product & ((1 << shift) - 1), 1 << (shift - 1));
    let q = q + u128::from(rem > half || (rem == half && q & 1 == 1));
    f64::from_bits(vb & SIGN | q as u64)
}

/// `m * v - g`, bit-identical to the hardware expression. For a subnormal
/// `v` it avoids float ops on subnormals where the result is provable:
/// `p - ±0` is `p` for `p ≠ 0`, and against a finite `|g| ≥ 2⁻⁹⁶⁸` the
/// subnormal-or-zero `p` is below half an ulp of `g`, so the result is `-g`.
///
/// Kept out of line, so the compiler cannot if-convert it into the `vb1`
/// loop of [`sgd_lanes`]; training reaches it only on a [`StepMemo`] miss.
#[inline(never)]
#[cold]
pub(crate) fn momentum_step(m: f64, v: f64, g: f64) -> f64 {
    if !(is_subnormal(v) && m.is_normal() && 0.0 < m && m < 1.0) {
        return m * v - g;
    }
    let p = mul_subnormal(m, v);
    if g.to_bits() & !SIGN == 0 && p.to_bits() & !SIGN != 0 {
        p
    } else if g.is_finite() && biased_exp(g) >= ABSORBING_EXP {
        -g
    } else {
        p - g
    }
}

/// The per-unit SGD loop over `Vec<Vec<f64>>` weights that [`sgd`]
/// replaced, behind [`Mlp::fit_reference`].
#[cfg(test)]
fn sgd_reference(config: &MlpConfig, scaled: &Dataset, model: &mut Mlp, rng: &mut SmallRng) {
    let (wt_pos, wt_neg) = class_weights(config, scaled);
    let (dims, hidden) = (scaled.dims(), model.w2.len());
    let Mlp { w1, b1, w2, b2, .. } = model;

    // Momentum buffers.
    let mut v1 = vec![vec![0.0; dims]; hidden];
    let mut vb1 = vec![0.0; hidden];
    let mut v2 = vec![0.0; hidden];
    let mut vb2 = 0.0;

    let mut order: Vec<usize> = (0..scaled.len()).collect();
    let mut act = vec![0.0; hidden];
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let lr = config.learning_rate / (1.0 + 0.02 * f64::from(epoch));
        for &i in &order {
            let row = scaled.row(i);
            let y = f64::from(u8::from(scaled.labels()[i]));
            let sample_weight = if scaled.labels()[i] { wt_pos } else { wt_neg };

            // Forward.
            for (a, (w, b)) in act.iter_mut().zip(w1.iter().zip(b1.iter())) {
                let z: f64 = b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>();
                *a = z.tanh();
            }
            let out = sigmoid(*b2 + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>());

            // Backward.
            let delta_out = (out - y) * sample_weight;
            for h in 0..hidden {
                let grad2 = delta_out * act[h] + config.l2 * w2[h];
                v2[h] = config.momentum * v2[h] - lr * grad2;
                let delta_h = delta_out * w2[h] * (1.0 - act[h] * act[h]);
                for d in 0..dims {
                    let grad1 = delta_h * row[d] + config.l2 * w1[h][d];
                    v1[h][d] = config.momentum * v1[h][d] - lr * grad1;
                    w1[h][d] += v1[h][d];
                }
                vb1[h] = config.momentum * vb1[h] - lr * delta_h;
                b1[h] += vb1[h];
                w2[h] += v2[h];
            }
            vb2 = config.momentum * vb2 - lr * delta_out;
            *b2 += vb2;
        }
    }
}

impl Classifier for Mlp {
    fn score(&self, x: &[f64]) -> f64 {
        let mut z = Vec::with_capacity(x.len());
        self.scaler.transform_into(x, &mut z);
        self.score_standardized(&z)
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        // Batched hidden-layer GEMV: one scratch standardization buffer
        // reused across every row instead of an allocation per row.
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let mut z = Vec::with_capacity(xs.dims());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            self.scaler.transform_into(row, &mut z);
            *slot = self.score_standardized(&z);
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "NN"
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
            let x = f64::from(u8::from(a)) + (rng.gen::<f64>() - 0.5) * 0.3;
            let y = f64::from(u8::from(b)) + (rng.gen::<f64>() - 0.5) * 0.3;
            d.push(vec![x, y], a != b);
        }
        d
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let data = xor_data(400, 1);
        let nn = Mlp::fit(
            &MlpConfig {
                epochs: 200,
                hidden: Some(8),
                ..MlpConfig::default()
            },
            &data,
        );
        let acc = data
            .iter()
            .filter(|(row, label)| nn.predict(row) == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn default_hidden_width_equals_input_dims() {
        let data = xor_data(50, 2);
        let nn = Mlp::fit(&MlpConfig { epochs: 5, ..MlpConfig::default() }, &data);
        assert_eq!(nn.hidden_units(), 2);
    }

    #[test]
    fn training_is_deterministic() {
        let data = xor_data(100, 3);
        let cfg = MlpConfig { epochs: 20, ..MlpConfig::default() };
        assert_eq!(Mlp::fit(&cfg, &data), Mlp::fit(&cfg, &data));
    }

    #[test]
    fn scores_are_probabilities() {
        let data = xor_data(100, 4);
        let nn = Mlp::fit(&MlpConfig { epochs: 20, ..MlpConfig::default() }, &data);
        for (row, _) in data.iter() {
            let s = nn.score(row);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    /// [`Mlp::input_gradient`] as first written, evaluating `tanh` twice
    /// per hidden unit.
    fn input_gradient_two_tanh_calls(nn: &Mlp, x: &[f64]) -> Vec<f64> {
        let z = nn.scaler.transform(x);
        let mut grad = vec![0.0; nn.scaler.dims()];
        for ((w, b), &wout) in nn.w1.iter().zip(&nn.b1).zip(&nn.w2) {
            let pre: f64 = b + w.iter().zip(&z).map(|(wi, xi)| wi * xi).sum::<f64>();
            let slope = 1.0 - pre.tanh() * pre.tanh();
            for (g, &wi) in grad.iter_mut().zip(w) {
                *g += wout * slope * wi;
            }
        }
        for (g, &s) in grad.iter_mut().zip(nn.scaler.std()) {
            *g /= s;
        }
        grad
    }

    #[test]
    fn input_gradient_matches_two_tanh_calls() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for seed in 0..12 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dims = rng.gen_range(1..=6);
            let mut d = Dataset::new(dims);
            for _ in 0..60 {
                d.push((0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect(), rng.gen());
            }
            let config = MlpConfig {
                epochs: 5,
                seed,
                hidden: Some(rng.gen_range(2..=9)),
                ..MlpConfig::default()
            };
            let nn = Mlp::fit(&config, &d);
            // Inputs near the data and far out, where units saturate.
            for scale in [1.0, 10.0, 1e3] {
                let x: Vec<f64> = (0..dims).map(|_| rng.gen_range(-scale..scale)).collect();
                assert_eq!(
                    bits(nn.input_gradient(&x)),
                    bits(input_gradient_two_tanh_calls(&nn, &x)),
                    "seed {seed}, scale {scale}"
                );
            }
        }
    }

    #[test]
    fn collapsed_weights_have_input_dims() {
        let data = xor_data(100, 5);
        let nn = Mlp::fit(&MlpConfig { epochs: 10, ..MlpConfig::default() }, &data);
        assert_eq!(nn.collapsed_input_weights().len(), 2);
    }

    #[test]
    fn collapsed_weights_track_linear_signal() {
        // One informative dimension: collapsed weight should be positive for
        // the malware-increasing feature.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut d = Dataset::new(2);
        for _ in 0..300 {
            let malware = rng.gen::<bool>();
            let x = if malware { 1.0 } else { 0.0 } + (rng.gen::<f64>() - 0.5) * 0.4;
            let noise = rng.gen::<f64>();
            d.push(vec![x, noise], malware);
        }
        let nn = Mlp::fit(&MlpConfig { epochs: 60, ..MlpConfig::default() }, &d);
        let w = nn.collapsed_input_weights();
        assert!(
            w[0] > w[1].abs(),
            "informative weight {} vs noise {}",
            w[0],
            w[1]
        );
    }
}
