//! Deterministic CART-style decision tree.
//!
//! The paper stops at near neighbors and the SVM, but its follow-on
//! line (Balamane et al., the Tiramisu unrolling model — see PAPERS.md)
//! shows richer models pay off on this task. The tree is the
//! *interpretable* member of the zoo: every internal node is a readable
//! `feature <= threshold` test over the same min-max-normalized space
//! the other models see, so the split features can be compared directly
//! against the mutual-information ranking in
//! [`crate::feature_select::mutual_information`] (see
//! [`DecisionTree::split_features`]).
//!
//! Training is deterministic by construction — no randomness anywhere:
//! candidate thresholds are midpoints between adjacent *distinct* sorted
//! values, split scores are computed from integer class counts, and ties
//! break on the fixed (impurity gain, feature index, threshold) order.
//! Two fits of the same data are bit-identical at any `LOOPML_THREADS`
//! because the fit never consults the worker pool.

use crate::classify::{expect_kind, Classifier};
use crate::dataset::{Dataset, MinMaxNormalizer};
use loopml_rt::Json;

/// Hyperparameters of a [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum number of split levels above a leaf (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum examples each side of a split must keep.
    pub min_leaf: usize,
}

impl Default for TreeParams {
    /// Depth 6 with 2-example leaves: deep enough to separate the
    /// paper's 8 classes, shallow enough to stay readable.
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_leaf: 2,
        }
    }
}

impl TreeParams {
    /// Serializes the hyperparameters (the identity-bearing part of a
    /// saved tree, see `loopml::model_fingerprint`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("max_depth", Json::Num(self.max_depth as f64)),
            ("min_leaf", Json::Num(self.min_leaf as f64)),
        ])
    }

    /// Parses hyperparameters written by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("tree params have no whole {key}"))
        };
        let max_depth = field("max_depth")?;
        let min_leaf = field("min_leaf")?;
        if min_leaf == 0 {
            return Err("tree min_leaf must be at least 1".into());
        }
        Ok(TreeParams {
            max_depth,
            min_leaf,
        })
    }
}

/// One node of the flattened tree. `feature == usize::MAX` marks a leaf
/// (the serialized form uses `null` instead of the sentinel).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    feature: usize,
    threshold: f64,
    left: usize,
    right: usize,
    label: usize,
}

const LEAF: usize = usize::MAX;

/// A CART-style classification tree with Gini-impurity splits.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: TreeParams,
    normalizer: Option<MinMaxNormalizer>,
    nodes: Vec<Node>,
    classes: usize,
    dims: usize,
}

impl DecisionTree {
    /// An *unfitted* tree carrying only its hyperparameters; call
    /// [`Classifier::fit`] before use. Until then it predicts class 0.
    ///
    /// # Panics
    ///
    /// Panics if `min_leaf` is zero.
    pub fn new(params: TreeParams) -> Self {
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        DecisionTree {
            params,
            normalizer: None,
            nodes: Vec::new(),
            classes: 0,
            dims: 0,
        }
    }

    /// Trains a tree on the normalized dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `min_leaf` is zero.
    pub fn fit(data: &Dataset, params: TreeParams) -> Self {
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        let normalizer = MinMaxNormalizer::fit(&data.x);
        let xs = normalizer.transform(&data.x);
        let mut tree = DecisionTree {
            params,
            normalizer: Some(normalizer),
            nodes: Vec::new(),
            classes: data.classes,
            dims: data.dims(),
        };
        let idx: Vec<usize> = (0..data.len()).collect();
        tree.build(&xs, &data.y, &idx, 0);
        tree
    }

    /// Grows the subtree over `idx` and returns its node id.
    fn build(&mut self, xs: &[Vec<f64>], ys: &[usize], idx: &[usize], depth: usize) -> usize {
        let n = idx.len();
        let mut counts = vec![0u64; self.classes];
        for &i in idx {
            counts[ys[i]] += 1;
        }
        // Majority label; exact ties go to the smallest class index so
        // the tree never depends on anything but the data.
        let label = majority(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        let leaf_id = |nodes: &mut Vec<Node>| {
            nodes.push(Node {
                feature: LEAF,
                threshold: 0.0,
                left: 0,
                right: 0,
                label,
            });
            nodes.len() - 1
        };
        if pure || depth >= self.params.max_depth || n < 2 * self.params.min_leaf {
            return leaf_id(&mut self.nodes);
        }

        // The no-split score: sum of squared class counts over n. A
        // split is only taken when it strictly beats this — maximizing
        // sum(left²)/n_left + sum(right²)/n_right is exactly minimizing
        // the count-weighted Gini impurity, computed from integers so
        // every platform agrees bitwise.
        let parent_score = score(&counts, n);
        let mut best: Option<(f64, usize, f64, Vec<usize>, usize)> = None;
        let mut sorted = idx.to_vec();
        // Indexing `xs[example][feature]` column-by-column; an iterator
        // over rows cannot express the per-feature scan.
        #[allow(clippy::needless_range_loop)]
        for feature in 0..self.dims {
            // Stable order: by value, then example index — ties in the
            // data can never reorder the candidate scan.
            sorted.sort_by(|&a, &b| xs[a][feature].total_cmp(&xs[b][feature]).then(a.cmp(&b)));
            let mut left = vec![0u64; self.classes];
            let mut right = counts.clone();
            for k in 1..n {
                let moved = sorted[k - 1];
                left[ys[moved]] += 1;
                right[ys[moved]] -= 1;
                let (lo, hi) = (xs[sorted[k - 1]][feature], xs[sorted[k]][feature]);
                if lo == hi || k < self.params.min_leaf || n - k < self.params.min_leaf {
                    continue;
                }
                let gain = score(&left, k) + score(&right, n - k);
                // Strictly-greater keeps the first candidate in
                // (feature asc, threshold asc) scan order on ties.
                if best.as_ref().is_none_or(|(g, ..)| gain > *g) {
                    let mut threshold = lo + (hi - lo) / 2.0;
                    if !(threshold > lo && threshold < hi) {
                        // Adjacent floats: fall back to the exact left
                        // value so `<= threshold` still splits at k.
                        threshold = lo;
                    }
                    best = Some((gain, feature, threshold, sorted.clone(), k));
                }
            }
        }
        let Some((gain, feature, threshold, order, k)) = best else {
            return leaf_id(&mut self.nodes);
        };
        if gain <= parent_score {
            return leaf_id(&mut self.nodes);
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            feature,
            threshold,
            left: 0,
            right: 0,
            label,
        });
        let left = self.build(xs, ys, &order[..k], depth + 1);
        let right = self.build(xs, ys, &order[k..], depth + 1);
        self.nodes[id].left = left;
        self.nodes[id].right = right;
        id
    }

    /// Every internal node's `(feature, threshold)` test, in node-creation
    /// (depth-first, root-first) order — the interpretability surface the
    /// EXPERIMENTS doc compares against the mutual-information ranking.
    pub fn split_features(&self) -> Vec<(usize, f64)> {
        self.nodes
            .iter()
            .filter(|n| n.feature != LEAF)
            .map(|n| (n.feature, n.threshold))
            .collect()
    }

    /// Number of nodes (0 before the first fit).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` until the first fit.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The hyperparameters this tree was constructed with.
    pub fn params(&self) -> TreeParams {
        self.params
    }
}

/// Index of the largest count; exact ties go to the smallest class.
fn majority(counts: &[u64]) -> usize {
    let mut best = 0usize;
    for (c, &v) in counts.iter().enumerate() {
        if v > counts[best] {
            best = c;
        }
    }
    best
}

/// `sum(counts²) / n` — the negated, count-weighted Gini impurity term.
fn score(counts: &[u64], n: usize) -> f64 {
    let sq: u64 = counts.iter().map(|&c| c * c).sum();
    sq as f64 / n as f64
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        *self = DecisionTree::fit(data, self.params);
    }

    fn predict(&self, x: &[f64]) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        assert_eq!(
            x.len(),
            self.dims,
            "tree fitted on {} features cannot score a {}-feature query",
            self.dims,
            x.len()
        );
        let mut q = x.to_vec();
        if let Some(n) = &self.normalizer {
            n.apply(&mut q);
        }
        let mut at = 0usize;
        loop {
            let node = self.nodes[at];
            if node.feature == LEAF {
                return node.label;
            }
            at = if q[node.feature] <= node.threshold {
                node.left
            } else {
                node.right
            };
        }
    }

    fn name(&self) -> &str {
        "Tree"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(DecisionTree::new(self.params))
    }

    fn save(&self) -> Json {
        Json::obj([
            ("kind", Json::Str("Tree".into())),
            ("params", self.params.to_json()),
            ("classes", Json::Num(self.classes as f64)),
            ("dims", Json::Num(self.dims as f64)),
            (
                "normalizer",
                match &self.normalizer {
                    Some(n) => n.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::obj([
                                (
                                    "feature",
                                    if n.feature == LEAF {
                                        Json::Null
                                    } else {
                                        Json::Num(n.feature as f64)
                                    },
                                ),
                                ("threshold", Json::Num(n.threshold)),
                                ("left", Json::Num(n.left as f64)),
                                ("right", Json::Num(n.right as f64)),
                                ("label", Json::Num(n.label as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "Tree")?;
        let params = TreeParams::from_json(state.get("params").ok_or("Tree state has no params")?)?;
        let whole = |key: &str| {
            state
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("Tree state has no whole {key}"))
        };
        let classes = whole("classes")?;
        let dims = whole("dims")?;
        let normalizer = match state.get("normalizer") {
            Some(Json::Null) => None,
            Some(doc) => Some(MinMaxNormalizer::from_json(doc)?),
            None => return Err("Tree state has no normalizer".into()),
        };
        let raw = state
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("Tree state has no nodes")?;
        let mut nodes = Vec::with_capacity(raw.len());
        for doc in raw {
            let whole = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("Tree node has no whole {key}"))
            };
            let feature = match doc.get("feature") {
                Some(Json::Null) => LEAF,
                Some(v) => {
                    let f = v
                        .as_usize()
                        .ok_or("Tree node feature is not a whole number")?;
                    if f >= dims {
                        return Err(format!("Tree node splits on feature {f} of {dims}"));
                    }
                    f
                }
                None => return Err("Tree node has no feature".into()),
            };
            let threshold = doc
                .get("threshold")
                .and_then(Json::as_num)
                .ok_or("Tree node has no threshold")?;
            if !threshold.is_finite() {
                return Err("Tree node threshold is not finite".into());
            }
            let node = Node {
                feature,
                threshold,
                left: whole("left")?,
                right: whole("right")?,
                label: whole("label")?,
            };
            if node.label >= classes.max(1) {
                return Err("Tree node label out of class range".into());
            }
            if node.feature != LEAF && (node.left >= raw.len() || node.right >= raw.len()) {
                return Err("Tree node child index out of range".into());
            }
            nodes.push(node);
        }
        *self = DecisionTree {
            params,
            normalizer,
            nodes,
            classes,
            dims,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(x: Vec<Vec<f64>>, y: Vec<usize>, classes: usize) -> Dataset {
        let n = x.len();
        let d = x[0].len();
        Dataset::new(
            x,
            y,
            classes,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    fn clusters() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
            for k in 0..6 {
                x.push(vec![cx + 0.2 * (k % 3) as f64, cy + 0.2 * (k / 3) as f64]);
                y.push(c);
            }
        }
        dataset(x, y, 3)
    }

    #[test]
    fn learns_separable_clusters() {
        let d = clusters();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        for (x, &y) in d.x.iter().zip(&d.y) {
            assert_eq!(Classifier::predict(&tree, x), y);
        }
        assert!(!tree.split_features().is_empty());
    }

    #[test]
    fn splits_pick_the_informative_feature() {
        // Feature 0 is pure noise-free signal, feature 1 is constant:
        // every split must test feature 0.
        let d = dataset(
            vec![
                vec![0.0, 7.0],
                vec![1.0, 7.0],
                vec![10.0, 7.0],
                vec![11.0, 7.0],
            ],
            vec![0, 0, 1, 1],
            2,
        );
        let tree = DecisionTree::fit(
            &d,
            TreeParams {
                min_leaf: 1,
                ..TreeParams::default()
            },
        );
        let splits = tree.split_features();
        assert!(!splits.is_empty());
        assert!(splits.iter().all(|&(f, _)| f == 0), "{splits:?}");
    }

    #[test]
    fn depth_zero_is_the_majority_leaf() {
        let d = dataset(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1, 1, 0], 2);
        let tree = DecisionTree::fit(
            &d,
            TreeParams {
                max_depth: 0,
                min_leaf: 1,
            },
        );
        assert_eq!(tree.len(), 1);
        for x in &d.x {
            assert_eq!(Classifier::predict(&tree, x), 1);
        }
    }

    #[test]
    fn majority_ties_pick_the_smallest_class() {
        assert_eq!(majority(&[2, 2, 1]), 0);
        assert_eq!(majority(&[1, 3, 3]), 1);
        assert_eq!(majority(&[0, 0, 0]), 0);
    }

    #[test]
    fn min_leaf_bounds_leaf_sizes() {
        let d = clusters();
        let tree = DecisionTree::fit(
            &d,
            TreeParams {
                max_depth: 16,
                min_leaf: 4,
            },
        );
        // Count examples reaching each leaf by replaying the training set.
        let mut reach = vec![0usize; tree.len()];
        let xs = tree.normalizer.as_ref().unwrap().transform(&d.x);
        for q in &xs {
            let mut at = 0usize;
            loop {
                let node = tree.nodes[at];
                if node.feature == LEAF {
                    reach[at] += 1;
                    break;
                }
                at = if q[node.feature] <= node.threshold {
                    node.left
                } else {
                    node.right
                };
            }
        }
        for (id, node) in tree.nodes.iter().enumerate() {
            if node.feature == LEAF {
                assert!(reach[id] >= 4, "leaf {id} holds {} examples", reach[id]);
            }
        }
    }

    #[test]
    fn refit_is_deterministic() {
        let d = clusters();
        let a = DecisionTree::fit(&d, TreeParams::default());
        let b = DecisionTree::fit(&d, TreeParams::default());
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn unfitted_predicts_zero() {
        let tree = DecisionTree::new(TreeParams::default());
        assert_eq!(Classifier::predict(&tree, &[1.0, 2.0]), 0);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let d = clusters();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let state = tree.save();
        let reparsed = Json::parse(&state.to_string()).expect("valid JSON");
        let mut copy = DecisionTree::new(TreeParams {
            max_depth: 1,
            min_leaf: 1,
        });
        copy.load(&reparsed).expect("load");
        assert_eq!(copy.nodes, tree.nodes);
        assert_eq!(copy.params, tree.params);
        for x in &d.x {
            assert_eq!(Classifier::predict(&copy, x), Classifier::predict(&tree, x));
        }
    }

    #[test]
    fn load_rejects_malformed_states() {
        let d = clusters();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let good = tree.save().to_string();
        let mut victim = DecisionTree::new(TreeParams::default());
        for bad in [
            good.replace("\"kind\":\"Tree\"", "\"kind\":\"NN\""),
            good.replace("\"min_leaf\":2", "\"min_leaf\":0"),
            good.replace("\"left\":", "\"left\":99999, \"was\":"),
            good.replace("\"label\":", "\"label\":0.5, \"was\":"),
        ] {
            let doc = Json::parse(&bad).expect("still JSON");
            assert!(victim.load(&doc).is_err(), "should reject: {bad}");
        }
        assert!(victim.is_empty(), "failed loads must not mutate");
    }

    #[test]
    #[should_panic(expected = "tree fitted on 2 features")]
    fn query_dimension_mismatch_rejected() {
        let d = clusters();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let _ = Classifier::predict(&tree, &[0.0]);
    }
}
