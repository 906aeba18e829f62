//! The object-safe classifier interface.
//!
//! Every model the pipeline can train — near neighbors, the multi-class
//! SVM, and heuristic baselines adapted from feature vectors — implements
//! [`Classifier`], so training loops, LOOCV, leave-one-benchmark-out
//! evaluation, and the learned heuristic all work with `&mut dyn
//! Classifier` / `Box<dyn Classifier>` instead of closure-returning
//! `train_*` functions.
//!
//! The protocol: construct an *unfitted* classifier carrying its
//! hyperparameters (e.g. `NearNeighbors::new(radius)`), then call
//! [`Classifier::fit`] with a training set — possibly many times, as
//! cross-validation refits the same object per fold. Predictions before
//! the first `fit` are a defined fallback (class 0), never a panic.
//!
//! Classifiers are `Send + Sync` so cross-validation can hand one
//! prototype to several worker threads; [`Classifier::fresh`] mints the
//! per-worker unfitted copies.

use crate::dataset::Dataset;
use loopml_rt::Json;

/// A trainable multi-class classifier over raw feature vectors.
///
/// The `Send + Sync` supertraits let cross-validation share a prototype
/// classifier across [`loopml_rt::par_map`] workers; every model in this
/// workspace is plain data, so the bounds are free.
pub trait Classifier: Send + Sync {
    /// Fits (or refits) the model to `data`, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);

    /// Predicts a class label in `0..classes` for a raw feature vector.
    /// Unfitted classifiers predict 0.
    fn predict(&self, x: &[f64]) -> usize;

    /// Short human-readable model name for reports ("NN", "SVM", …).
    fn name(&self) -> &str;

    /// A fresh *unfitted* classifier carrying the same hyperparameters —
    /// the per-worker constructor behind parallel cross-validation, where
    /// each fold trains its own copy instead of refitting one shared
    /// `&mut` object.
    fn fresh(&self) -> Box<dyn Classifier>;

    /// Serializes the trained state — weights, normalizer, and the
    /// hyperparameters — as a [`Json`] value. The document carries a
    /// `"kind"` tag naming the model so [`load`](Classifier::load) can
    /// reject a state written by a different model. Every finite `f64`
    /// survives the JSON round trip bit-exactly, so a loaded model
    /// predicts bit-identically to the one that was saved.
    fn save(&self) -> Json;

    /// Restores a state produced by [`save`](Classifier::save) on a
    /// classifier of the same kind, replacing any previous fit. A
    /// malformed, truncated, or wrong-kind document is an error and
    /// leaves `self` unchanged.
    fn load(&mut self, state: &Json) -> Result<(), String>;

    /// Predicts a batch of raw feature vectors, in order. Equivalent to
    /// mapping [`predict`](Classifier::predict) — and bit-identical to
    /// it at any worker count — but models may amortize per-query setup
    /// across the batch (the serving layer's fast path).
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Reads the `"kind"` tag of a saved state, erroring when it is absent
/// or different from what the loading model expects.
pub(crate) fn expect_kind(state: &Json, kind: &str) -> Result<(), String> {
    match state.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => Ok(()),
        Some(k) => Err(format!("state is for model kind {k:?}, not {kind:?}")),
        None => Err("state has no \"kind\" tag".into()),
    }
}

/// A classifier that always predicts the same class — the "never unroll" /
/// fixed-factor baseline, and a handy stub in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constant {
    class: usize,
}

impl Constant {
    /// A classifier that always answers `class`.
    pub fn new(class: usize) -> Self {
        Constant { class }
    }
}

impl Classifier for Constant {
    fn fit(&mut self, _data: &Dataset) {}

    fn predict(&self, _x: &[f64]) -> usize {
        self.class
    }

    fn name(&self) -> &str {
        "constant"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(*self)
    }

    fn save(&self) -> Json {
        Json::obj([
            ("kind", Json::Str("constant".into())),
            ("class", Json::Num(self.class as f64)),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "constant")?;
        self.class = state
            .get("class")
            .and_then(Json::as_usize)
            .ok_or("constant state has no class")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{BaggedForest, ForestParams};
    use crate::mlp::{Mlp, MlpParams};
    use crate::nn::{NearNeighbors, DEFAULT_RADIUS};
    use crate::svm::{MulticlassSvm, SvmParams};
    use crate::tree::{DecisionTree, TreeParams};

    /// One unfitted model of every kind in the zoo.
    fn zoo() -> Vec<Box<dyn Classifier>> {
        vec![
            Box::new(NearNeighbors::new(DEFAULT_RADIUS)),
            Box::new(MulticlassSvm::new(SvmParams::default())),
            Box::new(DecisionTree::new(TreeParams::default())),
            Box::new(BaggedForest::new(ForestParams {
                trees: 4,
                ..ForestParams::default()
            })),
            Box::new(Mlp::new(MlpParams::default())),
            Box::new(Constant::new(1)),
        ]
    }

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![0.0], vec![0.2], vec![5.0], vec![5.2]],
            vec![0, 0, 1, 1],
            2,
            vec!["f".into()],
            (0..4).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn constant_always_answers_its_class() {
        let mut c = Constant::new(3);
        c.fit(&toy());
        assert_eq!(c.predict(&[123.0]), 3);
        assert_eq!(c.name(), "constant");
    }

    #[test]
    fn fresh_copies_are_unfitted_with_same_hyperparameters() {
        let mut nn = NearNeighbors::new(0.7);
        nn.fit(&toy());
        let copy = Classifier::fresh(&nn);
        // Unfitted: falls back to class 0 everywhere.
        assert_eq!(copy.predict(&[5.1]), 0);
        let mut svm = MulticlassSvm::new(SvmParams::default());
        svm.fit(&toy());
        assert_eq!(Classifier::fresh(&svm).predict(&[5.1]), 0);
        assert_eq!(Classifier::fresh(&Constant::new(2)).predict(&[0.0]), 2);
        // The whole zoo: fit, mint a fresh copy, and the copy is unfitted.
        for mut m in zoo() {
            if m.name() == "constant" {
                continue;
            }
            m.fit(&toy());
            assert_eq!(m.fresh().predict(&[5.1]), 0, "{} fresh not blank", m.name());
        }
    }

    #[test]
    fn trait_objects_are_interchangeable() {
        let mut models = zoo();
        let data = toy();
        for m in &mut models {
            m.fit(&data);
            assert!(m.predict(&data.x[0]) < data.classes.max(2));
            assert!(!m.name().is_empty());
        }
        // Every real model learns the separable toy problem (Constant,
        // last in the zoo, is exempt by design).
        for m in &models[..models.len() - 1] {
            assert_eq!(m.predict(&[0.1]), 0, "{} missed class 0", m.name());
            assert_eq!(m.predict(&[5.1]), 1, "{} missed class 1", m.name());
        }
    }

    #[test]
    fn unfitted_models_predict_zero_not_panic() {
        for m in zoo() {
            if m.name() == "constant" {
                continue;
            }
            assert_eq!(m.predict(&[1.0, 2.0]), 0, "{} not unfitted", m.name());
        }
    }

    #[test]
    fn save_load_round_trips_every_model() {
        let data = toy();
        let mut models = zoo();
        models.push(Box::new(NearNeighbors::new(0.45)));
        models.push(Box::new(MulticlassSvm::new(SvmParams {
            gamma: 2.0,
            ..SvmParams::default()
        })));
        for mut m in models {
            m.fit(&data);
            let state = m.save();
            // Round trip through the serialized text, as an artifact
            // file would.
            let reparsed = loopml_rt::Json::parse(&state.to_string()).expect("valid JSON");
            let mut copy = m.fresh();
            copy.load(&reparsed).expect("load");
            for x in &data.x {
                assert_eq!(copy.predict(x), m.predict(x), "{} diverged", m.name());
            }
        }
    }

    #[test]
    fn load_rejects_wrong_kind_and_garbage() {
        let mut nn = NearNeighbors::new(DEFAULT_RADIUS);
        nn.fit(&toy());
        let before = nn.predict(&[5.1]);
        let svm_state = MulticlassSvm::new(SvmParams::default()).save();
        assert!(Classifier::load(&mut nn, &svm_state).is_err());
        assert!(Classifier::load(&mut nn, &Json::Null).is_err());
        assert!(Classifier::load(&mut nn, &Json::obj([])).is_err());
        // A failed load leaves the previous fit intact.
        assert_eq!(nn.predict(&[5.1]), before);
        // Cross-load every pair of distinct zoo kinds: all must refuse.
        let data = toy();
        let mut fitted = zoo();
        for m in &mut fitted {
            m.fit(&data);
        }
        for donor in &fitted {
            for receiver in &mut zoo() {
                if donor.name() == receiver.name() {
                    continue;
                }
                assert!(
                    receiver.load(&donor.save()).is_err(),
                    "{} accepted a {} state",
                    receiver.name(),
                    donor.name()
                );
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let data = toy();
        let mut models = zoo();
        let queries: Vec<Vec<f64>> = vec![vec![0.1], vec![2.6], vec![5.1], vec![123.0]];
        for m in &mut models {
            m.fit(&data);
            let batch = m.predict_batch(&queries);
            let serial: Vec<usize> = queries.iter().map(|q| m.predict(q)).collect();
            assert_eq!(batch, serial, "{} batch diverged", m.name());
        }
    }

    #[test]
    fn refitting_replaces_previous_fit() {
        let mut nn = NearNeighbors::new(DEFAULT_RADIUS);
        nn.fit(&toy());
        assert_eq!(Classifier::predict(&nn, &[5.1]), 1);
        // Swap the labels and refit: predictions must flip.
        let flipped = Dataset::new(
            vec![vec![0.0], vec![0.2], vec![5.0], vec![5.2]],
            vec![1, 1, 0, 0],
            2,
            vec!["f".into()],
            (0..4).map(|i| format!("e{i}")).collect(),
        );
        nn.fit(&flipped);
        assert_eq!(Classifier::predict(&nn, &[5.1]), 0);
    }
}
