//! Bagged forest of deterministic CART trees.
//!
//! Bootstrap aggregation over [`DecisionTree`]: each member tree trains
//! on an n-of-n sample drawn *with replacement* from the training set,
//! and prediction is a majority vote with ties broken toward the
//! smallest class index. The resample for tree `t` comes from its own
//! [`loopml_rt::Rng`] stream seeded by `seed` and `t` alone — never by
//! execution order — so fitting is bit-identical however the trees are
//! scheduled, and refits of the same data reproduce the same forest
//! exactly. Trees are fitted sequentially: the callers that parallelize
//! (LOOCV, LOGO, the sweep) already fan out across folds, and a nested
//! pool would add scheduling without adding work.

use crate::classify::{expect_kind, Classifier};
use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeParams};
use loopml_rt::{Json, Rng};

/// Hyperparameters of a [`BaggedForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of bootstrap trees.
    pub trees: usize,
    /// Hyperparameters of every member tree.
    pub tree: TreeParams,
    /// Seed of the bootstrap streams (tree `t` uses a stream derived
    /// from `seed` and `t`).
    pub seed: u64,
}

impl Default for ForestParams {
    /// 16 default trees — enough for the vote to stabilize on the
    /// paper-scale corpus while keeping LOGO sweeps cheap.
    fn default() -> Self {
        ForestParams {
            trees: 16,
            tree: TreeParams::default(),
            seed: 0x666f_7265,
        }
    }
}

impl ForestParams {
    /// Serializes the hyperparameters.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trees", Json::Num(self.trees as f64)),
            ("tree", self.tree.to_json()),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    /// Parses hyperparameters written by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let trees = doc
            .get("trees")
            .and_then(Json::as_usize)
            .filter(|&v| v >= 1)
            .ok_or("forest params have no positive tree count")?;
        let tree =
            TreeParams::from_json(doc.get("tree").ok_or("forest params have no tree block")?)?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_num)
            .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64)
            .map(|v| v as u64)
            .ok_or("forest params have no whole seed")?;
        Ok(ForestParams { trees, tree, seed })
    }
}

/// A bootstrap-aggregated ensemble of [`DecisionTree`]s.
#[derive(Debug, Clone)]
pub struct BaggedForest {
    params: ForestParams,
    members: Vec<DecisionTree>,
    classes: usize,
}

impl BaggedForest {
    /// An *unfitted* forest carrying only its hyperparameters; call
    /// [`Classifier::fit`] before use. Until then it predicts class 0.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is zero or `tree.min_leaf` is zero.
    pub fn new(params: ForestParams) -> Self {
        assert!(params.trees >= 1, "a forest needs at least one tree");
        assert!(params.tree.min_leaf >= 1, "min_leaf must be at least 1");
        BaggedForest {
            params,
            members: Vec::new(),
            classes: 0,
        }
    }

    /// Trains the forest: one bootstrap resample and one tree per member.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, params: ForestParams) -> Self {
        let mut forest = BaggedForest::new(params);
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        let n = data.len();
        forest.classes = data.classes;
        forest.members = (0..params.trees)
            .map(|t| {
                // Seed depends on (seed, t) only: tree t's sample is the
                // same whether the forest is fitted alone or inside a
                // parallel cross-validation fold.
                let mut rng = Rng::seed_from_u64(
                    params.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let pick: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let boot = Dataset::new(
                    pick.iter().map(|&i| data.x[i].clone()).collect(),
                    pick.iter().map(|&i| data.y[i]).collect(),
                    data.classes,
                    data.feature_names.clone(),
                    pick.iter()
                        .map(|&i| data.example_names[i].clone())
                        .collect(),
                );
                DecisionTree::fit(&boot, params.tree)
            })
            .collect();
        forest
    }

    /// Number of fitted member trees (0 before the first fit).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` until the first fit.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The hyperparameters this forest was constructed with.
    pub fn params(&self) -> ForestParams {
        self.params
    }
}

impl Classifier for BaggedForest {
    fn fit(&mut self, data: &Dataset) {
        *self = BaggedForest::fit(data, self.params);
    }

    fn predict(&self, x: &[f64]) -> usize {
        if self.members.is_empty() {
            return 0;
        }
        let mut votes = vec![0u64; self.classes.max(1)];
        for tree in &self.members {
            let c = tree.predict(x);
            if c < votes.len() {
                votes[c] += 1;
            }
        }
        // Majority with ties toward the smallest class, mirroring the
        // member trees' own tie-break.
        let mut best = 0usize;
        for (c, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = c;
            }
        }
        best
    }

    fn name(&self) -> &str {
        "Forest"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(BaggedForest::new(self.params))
    }

    fn save(&self) -> Json {
        Json::obj([
            ("kind", Json::Str("Forest".into())),
            ("params", self.params.to_json()),
            ("classes", Json::Num(self.classes as f64)),
            (
                "members",
                Json::Arr(self.members.iter().map(Classifier::save).collect()),
            ),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "Forest")?;
        let params =
            ForestParams::from_json(state.get("params").ok_or("Forest state has no params")?)?;
        let classes = state
            .get("classes")
            .and_then(Json::as_usize)
            .ok_or("Forest state has no class count")?;
        let raw = state
            .get("members")
            .and_then(Json::as_arr)
            .ok_or("Forest state has no members")?;
        let mut members = Vec::with_capacity(raw.len());
        for doc in raw {
            let mut tree = DecisionTree::new(params.tree);
            tree.load(doc)
                .map_err(|e| format!("Forest member failed to load: {e}"))?;
            members.push(tree);
        }
        *self = BaggedForest {
            params,
            members,
            classes,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
            for k in 0..6 {
                x.push(vec![cx + 0.2 * (k % 3) as f64, cy + 0.2 * (k / 3) as f64]);
                y.push(c);
            }
        }
        let n = x.len();
        Dataset::new(
            x,
            y,
            3,
            vec!["a".into(), "b".into()],
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn learns_separable_clusters() {
        let d = clusters();
        let forest = BaggedForest::fit(&d, ForestParams::default());
        assert_eq!(forest.len(), 16);
        for (x, &y) in d.x.iter().zip(&d.y) {
            assert_eq!(Classifier::predict(&forest, x), y);
        }
    }

    #[test]
    fn refit_is_deterministic() {
        let d = clusters();
        let a = BaggedForest::fit(&d, ForestParams::default());
        let b = BaggedForest::fit(&d, ForestParams::default());
        assert_eq!(a.save().to_string(), b.save().to_string());
    }

    #[test]
    fn different_seeds_draw_different_bootstraps() {
        let d = clusters();
        let a = BaggedForest::fit(&d, ForestParams::default());
        let b = BaggedForest::fit(
            &d,
            ForestParams {
                seed: 1234,
                ..ForestParams::default()
            },
        );
        assert_ne!(a.save().to_string(), b.save().to_string());
    }

    #[test]
    fn unfitted_predicts_zero() {
        let forest = BaggedForest::new(ForestParams::default());
        assert_eq!(Classifier::predict(&forest, &[1.0, 2.0]), 0);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let d = clusters();
        let forest = BaggedForest::fit(
            &d,
            ForestParams {
                trees: 5,
                ..ForestParams::default()
            },
        );
        let state = forest.save();
        let reparsed = Json::parse(&state.to_string()).expect("valid JSON");
        let mut copy = BaggedForest::new(ForestParams::default());
        copy.load(&reparsed).expect("load");
        assert_eq!(copy.len(), 5);
        for x in &d.x {
            assert_eq!(
                Classifier::predict(&copy, x),
                Classifier::predict(&forest, x)
            );
        }
    }

    #[test]
    fn load_rejects_malformed_states() {
        let d = clusters();
        let forest = BaggedForest::fit(
            &d,
            ForestParams {
                trees: 2,
                ..ForestParams::default()
            },
        );
        let good = forest.save().to_string();
        let mut victim = BaggedForest::new(ForestParams::default());
        for bad in [
            good.replace("\"kind\":\"Forest\"", "\"kind\":\"Tree\""),
            good.replace("\"trees\":2", "\"trees\":0"),
            good.replace("\"kind\":\"Tree\"", "\"kind\":\"NN\""),
        ] {
            let doc = Json::parse(&bad).expect("still JSON");
            assert!(victim.load(&doc).is_err(), "should reject: {bad}");
        }
        assert!(victim.is_empty(), "failed loads must not mutate");
    }
}
