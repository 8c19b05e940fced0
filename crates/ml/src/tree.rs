//! CART decision tree — one of the attacker's surrogate model families
//! (paper §4 uses DT to reverse-engineer victims).

use crate::model::{Classifier, Dataset};
use serde::{Deserialize, Serialize};

/// Training hyperparameters for [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: u32,
    /// Minimum samples required to split a node.
    pub min_split: usize,
    /// Minimum samples in each child of a split.
    pub min_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 10,
            min_split: 8,
            min_leaf: 3,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Fraction of malware samples at the leaf (the score).
        malware_frac: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained CART classifier (Gini impurity, axis-aligned splits).
///
/// # Examples
///
/// ```
/// use rhmd_ml::tree::{DecisionTree, TreeConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// let data = Dataset::from_flat(
///     1,
///     vec![0.1, 0.2, 0.8, 0.9],
///     vec![false, false, true, true],
/// );
/// let tree = DecisionTree::fit(&TreeConfig::default(), &data);
/// assert!(tree.predict(&[0.85]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    depth: u32,
    leaves: u32,
}

impl DecisionTree {
    /// Grows a tree on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(config: &TreeConfig, data: &Dataset) -> DecisionTree {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        DecisionTree::fit_presorted(config, Presorted::new(data))
    }

    /// Grows a tree on rows already sorted per feature — how
    /// [`crate::forest::RandomForest`] trains on bootstrap resamples of
    /// one presorted dataset.
    pub(crate) fn fit_presorted(config: &TreeConfig, rows: Presorted) -> DecisionTree {
        let (len, positives) = (rows.len, rows.positives);
        let mut grower = Grower {
            config,
            goes_left: vec![false; rows.source_rows],
            scratch: Vec::new(),
            rows,
            depth: 0,
            leaves: 0,
        };
        let root = grower.grow(0, len, positives, 0);
        DecisionTree {
            root,
            depth: grower.depth,
            leaves: grower.leaves,
        }
    }

    /// The per-node-sort CART that [`DecisionTree::fit`] replaced, kept as
    /// the differential oracle for the presorted grower.
    #[cfg(test)]
    pub(crate) fn fit_reference(config: &TreeConfig, data: &Dataset) -> DecisionTree {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut stats = (0u32, 0u32); // (max depth seen, leaves)
        let root = grow_reference(config, data, &indices, 0, &mut stats);
        DecisionTree {
            root,
            depth: stats.0,
            leaves: stats.1,
        }
    }

    /// Depth of the grown tree.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of leaves.
    pub fn leaves(&self) -> u32 {
        self.leaves
    }

    /// Every field of the tree as raw bits, in preorder: `[depth, leaves]`,
    /// then `[0, malware_frac]` per leaf and `[1, feature, threshold]` per
    /// split. Unlike the derived `PartialEq`, it tells `-0.0` from `0.0`.
    #[cfg(test)]
    pub(crate) fn to_bits(&self) -> Vec<u64> {
        fn walk(node: &Node, out: &mut Vec<u64>) {
            match node {
                Node::Leaf { malware_frac } => out.extend([0, malware_frac.to_bits()]),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.extend([1, *feature as u64, threshold.to_bits()]);
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = vec![u64::from(self.depth), u64::from(self.leaves)];
        walk(&self.root, &mut out);
        out
    }

    /// Flattens the pointer tree into structure-of-arrays form for
    /// branchless batch traversal.
    pub(crate) fn flatten(&self) -> FlatTree {
        let mut flat = FlatTree {
            nodes: Vec::new(),
            value: Vec::new(),
            depth: self.depth,
        };
        flat.push_subtree(&self.root);
        flat
    }
}

/// One flattened tree node: the three fields a descent step reads, packed
/// into a single 24-byte record so each step touches one cache line. Leaves
/// point both children back at themselves.
#[derive(Debug, Clone, PartialEq)]
struct FlatNode {
    threshold: f64,
    feature: u32,
    /// `[left, right]`, self-looping at leaves.
    kids: [u32; 2],
}

/// Flat tree for batch traversal: nodes live in one contiguous preorder
/// array instead of a web of `Box`es, split off from a parallel `value`
/// array holding the leaf payloads. The layout is deliberate: descent is
/// *random* access, so the fields a step reads together (feature,
/// threshold, children) are interleaved in [`FlatNode`] — one line per
/// step — while the leaf value, read once per walk, stays out of the hot
/// records. (A fully column-split layout was measured first: it spreads
/// every step across three arrays and ran ~2x slower on trace-window
/// batches.) Batch scoring walks rows level-synchronously
/// ([`FlatTree::walk_rows`], branchless) and lands on the pointer walk's
/// leaf.
///
/// `walk_rows`'s child predicate is `!(x <= t)`, not `x > t`: the two
/// differ on NaN inputs, and only the former routes NaN right exactly like
/// the pointer walk's `if x <= t { left } else { right }`. Leaf values are
/// returned untouched, so flat scores are bit-identical to
/// [`DecisionTree::score`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlatTree {
    nodes: Vec<FlatNode>,
    /// Leaf malware fraction (internal nodes hold an unread 0.0).
    value: Vec<f64>,
    depth: u32,
}

impl FlatTree {
    /// Appends `node`'s subtree in preorder and returns its index.
    fn push_subtree(&mut self, node: &Node) -> u32 {
        let i = self.nodes.len() as u32;
        self.nodes.push(FlatNode {
            threshold: 0.0,
            feature: 0,
            kids: [i, i],
        });
        self.value.push(0.0);
        match node {
            Node::Leaf { malware_frac } => self.value[i as usize] = *malware_frac,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                self.nodes[i as usize].feature = *feature as u32;
                self.nodes[i as usize].threshold = *threshold;
                let l = self.push_subtree(left);
                let r = self.push_subtree(right);
                self.nodes[i as usize].kids = [l, r];
            }
        }
        i
    }

    /// Branchless single-row walk, bit-identical to the pointer walk.
    /// Production paths batch through [`FlatTree::walk_rows`]; this stays
    /// as the differential tests' per-row reference for the flat layout.
    #[cfg(test)]
    #[inline]
    // Same NaN-routes-right negation as `step` below.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn score(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        for _ in 0..self.depth {
            let n = &self.nodes[i];
            let go_right = usize::from(!(x[n.feature as usize] <= n.threshold));
            i = n.kids[go_right] as usize;
        }
        self.value[i]
    }

    /// One branchless descent step from node `i` for row `x`.
    ///
    /// The node array is indexed unchecked: `i` can only come from `kids`,
    /// whose entries [`FlatTree::push_subtree`] fills with in-bounds node
    /// indices. Row access stays checked — the caller controls `x`, and a
    /// short row must panic like the pointer walk.
    #[inline(always)]
    // The negated `<=` is load-bearing: NaN must route right, exactly like
    // the pointer walk's `else` arm, and the negation keeps the step a
    // branchless select instead of a two-arm compare.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn step(&self, i: u32, x: &[f64]) -> u32 {
        // SAFETY: see above — `i` is a valid node index by construction.
        let n = unsafe { self.nodes.get_unchecked(i as usize) };
        let go_right = usize::from(!(x[n.feature as usize] <= n.threshold));
        n.kids[go_right]
    }

    /// Leaf value at node `i`.
    #[inline(always)]
    pub(crate) fn leaf_value(&self, i: u32) -> f64 {
        self.value[i as usize]
    }

    /// Level-synchronous batch walk: every row descends one level per pass,
    /// leaving `idx[r]` at row `r`'s leaf. Walking rows in the *inner* loop
    /// keeps many independent descent chains in flight at once — a single
    /// row's walk is a serial chain of dependent loads, but adjacent rows'
    /// chains overlap in the out-of-order window, which is where the
    /// structure-of-arrays layout actually pays off.
    pub(crate) fn walk_rows(&self, xs: &crate::matrix::FeatureMatrix, idx: &mut [u32]) {
        debug_assert_eq!(xs.len(), idx.len());
        if self.depth == 0 {
            idx.iter_mut().for_each(|i| *i = 0);
            return;
        }
        // Rows at a leaf step onto themselves, so "did not move" is an
        // exact settled test. CART trees are unbalanced — mean leaf depth
        // sits well under `depth` — so rows walk in fixed blocks and each
        // block stops at its *local* deepest leaf instead of padding every
        // row to the deepest leaf of the whole tree. Blocks of 16 keep the
        // live node indices in registers/L1 while still giving the
        // out-of-order window 16 independent descent chains to overlap.
        const BLOCK: usize = 16;
        let mut base = 0usize;
        for chunk in idx.chunks_mut(BLOCK) {
            let n = chunk.len();
            let mut cur = [0u32; BLOCK];
            let mut rows: [&[f64]; BLOCK] = [&[]; BLOCK];
            for (k, slot) in rows[..n].iter_mut().enumerate() {
                *slot = xs.row(base + k);
            }
            for _ in 0..self.depth {
                let mut moved = 0u32;
                for (c, row) in cur[..n].iter_mut().zip(&rows[..n]) {
                    let next = self.step(*c, row);
                    moved |= next ^ *c;
                    *c = next;
                }
                if moved == 0 {
                    break;
                }
            }
            chunk.copy_from_slice(&cur[..n]);
            base += n;
        }
    }
}

fn gini(pos: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        let p = pos / total;
        2.0 * p * (1.0 - p)
    }
}

/// The split point between adjacent distinct values `lo < hi`: their
/// midpoint when it lands in `[lo, hi)`. The midpoint rounds onto `hi` for
/// neighbouring floats and overflows to infinity near `f64::MAX`; either
/// would send every row to one side, so those cases split at `lo`.
fn split_threshold(lo: f64, hi: f64) -> f64 {
    let mid = (lo + hi) / 2.0;
    if lo <= mid && mid < hi {
        mid
    } else {
        lo
    }
}

/// One row's value in one feature's sorted order, with the row's label
/// carried along so the Gini scan reads a single sequential stream.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    value: f64,
    row: u32,
    label: bool,
}

/// A training set sorted once per feature: `dims` column-major runs of
/// `len` entries, each in ascending `total_cmp` order. A tree node owns the
/// same index range of every run, and splitting a node stable-partitions
/// each run so it stays sorted down the tree — no node ever sorts again.
///
/// The order among tied values is arbitrary, and that is why the grown
/// tree does not depend on it: the Gini scan scores only boundaries between
/// *distinct* values, where the left side is exactly "every row below the
/// boundary" whatever order its ties came in.
#[derive(Debug)]
pub(crate) struct Presorted {
    /// Entries per run (bootstrap duplicates included).
    len: usize,
    /// Malware rows among them.
    positives: usize,
    /// Rows of the source dataset, which `Entry::row` indexes.
    source_rows: usize,
    entries: Vec<Entry>,
}

impl Presorted {
    /// Sorts every feature of `data`.
    pub(crate) fn new(data: &Dataset) -> Presorted {
        let (n, dims) = (data.len(), data.dims());
        assert!(u32::try_from(n).is_ok(), "too many rows to presort");
        let mut entries = vec![Entry::default(); n * dims];
        for (r, (x, label)) in data.iter().enumerate() {
            for (f, &value) in x.iter().enumerate() {
                entries[f * n + r] = Entry {
                    value,
                    row: r as u32,
                    label,
                };
            }
        }
        if n > 0 {
            for run in entries.chunks_exact_mut(n) {
                run.sort_by(|a, b| a.value.total_cmp(&b.value));
            }
        }
        Presorted {
            len: n,
            positives: data.positives(),
            source_rows: n,
            entries,
        }
    }

    /// The bootstrap resample holding source row `r` `counts[r]` times,
    /// sorted by expanding each entry in place instead of sorting again.
    /// `labels` are the source rows' labels.
    pub(crate) fn resample(&self, counts: &[u32], labels: &[bool]) -> Presorted {
        debug_assert_eq!(counts.len(), self.source_rows);
        let len = counts.iter().map(|&c| c as usize).sum();
        let mut entries = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            entries.extend(std::iter::repeat_n(*e, counts[e.row as usize] as usize));
        }
        Presorted {
            len,
            positives: counts
                .iter()
                .zip(labels)
                .filter(|(_, &label)| label)
                .map(|(&c, _)| c as usize)
                .sum(),
            source_rows: self.source_rows,
            entries,
        }
    }
}

/// The best split found at a node.
struct Split {
    impurity: f64,
    feature: usize,
    threshold: f64,
    /// Rows (and malware rows) that go left: the sorted prefix of
    /// `feature`'s run.
    left_n: usize,
    left_pos: usize,
}

/// CART over a [`Presorted`] training set.
struct Grower<'a> {
    config: &'a TreeConfig,
    rows: Presorted,
    /// Per source row: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// The right side of a run while it is partitioned.
    scratch: Vec<Entry>,
    /// Deepest node so far.
    depth: u32,
    leaves: u32,
}

impl Grower<'_> {
    /// Grows the node owning entries `lo..hi` of every run, `pos` of them
    /// malware.
    fn grow(&mut self, lo: usize, hi: usize, pos: usize, depth: u32) -> Node {
        self.depth = self.depth.max(depth);
        let total = (hi - lo) as f64;
        let node_gini = gini(pos as f64, total);
        if depth >= self.config.max_depth || hi - lo < self.config.min_split || node_gini == 0.0 {
            return self.leaf(pos, total);
        }
        match self.best_split(lo, hi, pos as f64, total) {
            Some(split) if split.impurity < node_gini - 1e-12 => {
                let mid = lo + split.left_n;
                self.partition(lo, hi, mid, split.feature);
                Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left: Box::new(self.grow(lo, mid, split.left_pos, depth + 1)),
                    right: Box::new(self.grow(mid, hi, pos - split.left_pos, depth + 1)),
                }
            }
            _ => self.leaf(pos, total),
        }
    }

    fn leaf(&mut self, pos: usize, total: f64) -> Node {
        self.leaves += 1;
        // Nodes are never empty: every split leaves a row on each side.
        Node::Leaf {
            malware_frac: pos as f64 / total,
        }
    }

    /// The lowest-impurity split of entries `lo..hi`, candidates visited in
    /// (feature, boundary) order with the first of equal impurities kept.
    fn best_split(&self, lo: usize, hi: usize, pos: f64, total: f64) -> Option<Split> {
        let min_leaf = self.config.min_leaf;
        let mut best: Option<Split> = None;
        for (feature, column) in self.rows.entries.chunks_exact(self.rows.len).enumerate() {
            let mut left_pos = 0.0;
            for (k, pair) in column[lo..hi].windows(2).enumerate() {
                if pair[0].label {
                    left_pos += 1.0;
                }
                let left_n = (k + 1) as f64;
                let right_n = total - left_n;
                let (a, b) = (pair[0].value, pair[1].value);
                if a == b || (k + 1) < min_leaf || (right_n as usize) < min_leaf {
                    continue;
                }
                let right_pos = pos - left_pos;
                let weighted =
                    (left_n * gini(left_pos, left_n) + right_n * gini(right_pos, right_n)) / total;
                if best.as_ref().is_none_or(|b| weighted < b.impurity) {
                    best = Some(Split {
                        impurity: weighted,
                        feature,
                        threshold: split_threshold(a, b),
                        left_n: k + 1,
                        left_pos: left_pos as usize,
                    });
                }
            }
        }
        best
    }

    /// Splits entries `lo..hi` of every run at `mid`. `feature`'s run is
    /// already split (its left rows are the sorted prefix); every other run
    /// is stable-partitioned by the same rows, so each stays sorted.
    fn partition(&mut self, lo: usize, hi: usize, mid: usize, feature: usize) {
        let len = self.rows.len;
        let split_run = &self.rows.entries[feature * len..][lo..hi];
        for (k, e) in split_run.iter().enumerate() {
            self.goes_left[e.row as usize] = lo + k < mid;
        }
        for (f, column) in self.rows.entries.chunks_exact_mut(len).enumerate() {
            if f == feature {
                continue;
            }
            let run = &mut column[lo..hi];
            self.scratch.clear();
            let mut left = 0;
            for k in 0..run.len() {
                let e = run[k];
                if self.goes_left[e.row as usize] {
                    run[left] = e;
                    left += 1;
                } else {
                    self.scratch.push(e);
                }
            }
            run[left..].copy_from_slice(&self.scratch);
        }
    }
}

/// The per-node-sort grower behind [`DecisionTree::fit_reference`].
#[cfg(test)]
fn grow_reference(
    config: &TreeConfig,
    data: &Dataset,
    indices: &[usize],
    depth: u32,
    stats: &mut (u32, u32),
) -> Node {
    stats.0 = stats.0.max(depth);
    let total = indices.len() as f64;
    let pos = indices.iter().filter(|&&i| data.labels()[i]).count() as f64;
    let node_gini = gini(pos, total);
    let make_leaf = |stats: &mut (u32, u32)| {
        stats.1 += 1;
        Node::Leaf {
            malware_frac: if total > 0.0 { pos / total } else { 0.0 },
        }
    };
    if depth >= config.max_depth
        || indices.len() < config.min_split
        || node_gini == 0.0
    {
        return make_leaf(stats);
    }

    // Best axis-aligned split by Gini gain.
    let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
    let mut sorted = indices.to_vec();
    for feature in 0..data.dims() {
        sorted.sort_by(|&a, &b| data.row(a)[feature].total_cmp(&data.row(b)[feature]));
        let mut left_pos = 0.0;
        for (k, window) in sorted.windows(2).enumerate() {
            if data.labels()[window[0]] {
                left_pos += 1.0;
            }
            let left_n = (k + 1) as f64;
            let right_n = total - left_n;
            let lo = data.row(window[0])[feature];
            let hi = data.row(window[1])[feature];
            if lo == hi || (k + 1) < config.min_leaf || (right_n as usize) < config.min_leaf {
                continue;
            }
            let right_pos = pos - left_pos;
            let weighted =
                (left_n * gini(left_pos, left_n) + right_n * gini(right_pos, right_n)) / total;
            if best.is_none_or(|(bi, _, _)| weighted < bi) {
                best = Some((weighted, feature, split_threshold(lo, hi)));
            }
        }
    }

    match best {
        Some((impurity, feature, threshold)) if impurity < node_gini - 1e-12 => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.row(i)[feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow_reference(config, data, &left_idx, depth + 1, stats)),
                right: Box::new(grow_reference(config, data, &right_idx, depth + 1, stats)),
            }
        }
        _ => make_leaf(stats),
    }
}

impl Classifier for DecisionTree {
    fn score(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { malware_frac } => return *malware_frac,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    fn score_batch(&self, xs: &crate::matrix::FeatureMatrix, out: &mut [f64]) {
        // Flatten once (one preorder pass, amortized across the batch),
        // then run the branchless level-synchronous walk. Each flat walk
        // lands on the same leaf as the pointer walk, so scores are
        // bit-identical to `score`.
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let flat = self.flatten();
        let mut idx = vec![0u32; xs.len()];
        flat.walk_rows(xs, &mut idx);
        for (slot, &i) in out.iter_mut().zip(&idx) {
            *slot = flat.leaf_value(i);
        }
    }

    fn threshold(&self) -> f64 {
        0.5
    }

    fn algorithm(&self) -> &'static str {
        "DT"
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pure_data_yields_single_leaf() {
        let data = Dataset::from_flat(1, vec![1.0, 2.0], vec![true, true]);
        let tree = DecisionTree::fit(&TreeConfig::default(), &data);
        assert_eq!(tree.leaves(), 1);
        assert!(tree.predict(&[5.0]));
    }

    #[test]
    fn learns_threshold_split() {
        let data = Dataset::from_flat(
            1,
            (0..40).map(f64::from).collect(),
            (0..40).map(|i| i >= 20).collect(),
        );
        let tree = DecisionTree::fit(&TreeConfig::default(), &data);
        assert!(tree.predict(&[30.0]));
        assert!(!tree.predict(&[10.0]));
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn learns_xor() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = Dataset::new(2);
        for _ in 0..400 {
            let a = rng.gen::<bool>();
            let b = rng.gen::<bool>();
            d.push(
                vec![
                    f64::from(u8::from(a)) + (rng.gen::<f64>() - 0.5) * 0.2,
                    f64::from(u8::from(b)) + (rng.gen::<f64>() - 0.5) * 0.2,
                ],
                a != b,
            );
        }
        let tree = DecisionTree::fit(&TreeConfig::default(), &d);
        let acc = d
            .iter()
            .filter(|(row, label)| tree.predict(row) == *label)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut d = Dataset::new(3);
        for _ in 0..300 {
            d.push(
                vec![rng.gen(), rng.gen(), rng.gen()],
                rng.gen::<bool>(),
            );
        }
        let tree = DecisionTree::fit(
            &TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            &d,
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn flat_walk_matches_pointer_walk() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut d = Dataset::new(3);
        for _ in 0..300 {
            d.push(vec![rng.gen(), rng.gen(), rng.gen()], rng.gen::<bool>());
        }
        let tree = DecisionTree::fit(&TreeConfig::default(), &d);
        let flat = tree.flatten();
        for (row, _) in d.iter() {
            assert_eq!(flat.score(row).to_bits(), tree.score(row).to_bits());
        }
        // NaN routes right at every split in the pointer walk (`<=` is
        // false); the flat predicate must agree.
        for probe in [
            [f64::NAN, 0.5, 0.5],
            [0.5, f64::NAN, f64::NAN],
            [f64::NAN, f64::NAN, f64::NAN],
            [f64::INFINITY, f64::NEG_INFINITY, 0.5],
        ] {
            assert_eq!(flat.score(&probe).to_bits(), tree.score(&probe).to_bits());
        }
    }

    #[test]
    fn flat_walk_handles_single_leaf() {
        let d = Dataset::from_flat(1, vec![1.0, 2.0], vec![true, true]);
        let tree = DecisionTree::fit(&TreeConfig::default(), &d);
        assert_eq!(tree.flatten().score(&[5.0]), 1.0);
    }

    /// A 20-row, one-feature set that splits perfectly between `lo` and
    /// `hi` must grow one split with pure leaves, whatever `(lo + hi) / 2`
    /// rounds to.
    fn assert_splits_cleanly(lo: f64, hi: f64) {
        let flat = [[lo; 10], [hi; 10]].concat();
        let labels = (0..20).map(|i| i >= 10).collect();
        let tree = DecisionTree::fit(&TreeConfig::default(), &Dataset::from_flat(1, flat, labels));
        assert_eq!((tree.depth(), tree.leaves()), (1, 2));
        assert_eq!(tree.score(&[lo]), 0.0);
        assert_eq!(tree.score(&[hi]), 1.0);
    }

    #[test]
    fn threshold_between_neighbouring_floats_stays_below_hi() {
        // (1+ε + 1+2ε) / 2 rounds onto 1+2ε.
        assert_splits_cleanly(1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
    }

    #[test]
    fn threshold_near_f64_max_does_not_overflow() {
        // 1e308 + 1.5e308 overflows to +inf.
        assert_splits_cleanly(1e308, 1.5e308);
    }

    #[test]
    fn training_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let flat: Vec<f64> = (0..200).map(|_| rng.gen()).collect();
        let labels: Vec<bool> = (0..100).map(|_| rng.gen()).collect();
        let d = Dataset::from_flat(2, flat, labels);
        let a = DecisionTree::fit(&TreeConfig::default(), &d);
        let b = DecisionTree::fit(&TreeConfig::default(), &d);
        assert_eq!(a, b);
    }
}
