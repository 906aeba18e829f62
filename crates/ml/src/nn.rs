//! Radius-based near neighbor classification (paper §5.1).
//!
//! The classifier "trains" by memorizing the (normalized) training set.
//! A query is answered by majority vote among the examples within a fixed
//! radius (0.3 in the paper); when there is no clear winner — or no
//! neighbor at all — it falls back to the label of the single nearest
//! example. The vote fraction doubles as a confidence score, which the
//! paper suggests using for outlier triage.

use crate::classify::{expect_kind, Classifier};
use crate::dataset::{dist2, Dataset, MinMaxNormalizer};
use loopml_rt::Json;

/// Default neighborhood radius (determined experimentally in the paper).
pub const DEFAULT_RADIUS: f64 = 0.3;

/// A trained near-neighbors classifier.
#[derive(Debug, Clone)]
pub struct NearNeighbors {
    radius: f64,
    normalizer: Option<MinMaxNormalizer>,
    xs: Vec<Vec<f64>>,
    ys: Vec<usize>,
    classes: usize,
}

/// A prediction with its vote confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnPrediction {
    /// Predicted class.
    pub label: usize,
    /// Fraction of in-radius neighbors agreeing with the prediction, or
    /// 0.0 when the 1-NN fallback was used.
    pub confidence: f64,
    /// Number of neighbors inside the radius.
    pub neighbors: usize,
}

impl NearNeighbors {
    /// An *unfitted* classifier carrying only its radius; call
    /// [`Classifier::fit`] before use. Until then it predicts class 0.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not positive.
    pub fn new(radius: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        NearNeighbors {
            radius,
            normalizer: None,
            xs: Vec::new(),
            ys: Vec::new(),
            classes: 0,
        }
    }

    /// Trains (memorizes) the normalized dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or the radius is not positive.
    pub fn fit(data: &Dataset, radius: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        let normalizer = MinMaxNormalizer::fit(&data.x);
        NearNeighbors {
            radius,
            xs: normalizer.transform(&data.x),
            ys: data.y.clone(),
            classes: data.classes,
            normalizer: Some(normalizer),
        }
    }

    /// Trains on *raw* feature values, skipping normalization — the
    /// regime the paper warns about, where large-valued features such as
    /// trip counts dominate the Euclidean distance. Exposed for the
    /// normalization ablation.
    pub fn fit_unnormalized(data: &Dataset, radius: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        NearNeighbors {
            radius,
            xs: data.x.clone(),
            ys: data.y.clone(),
            classes: data.classes,
            normalizer: None,
        }
    }

    /// Predicts the label of a raw (unnormalized) feature vector.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_confidence(x).label
    }

    /// Predicts with the vote confidence, excluding no training example.
    pub fn predict_with_confidence(&self, x: &[f64]) -> NnPrediction {
        self.predict_excluding(x, usize::MAX)
    }

    /// Predicts while pretending training example `exclude` does not
    /// exist — the primitive that makes leave-one-out evaluation of NN
    /// exact without retraining.
    ///
    /// # Panics
    ///
    /// Panics if the classifier is fitted and `x`'s length differs from
    /// the training dimension — covers both the normalized path (where
    /// the normalizer would reject it) and `fit_unnormalized` (where the
    /// old `dist2` would have silently truncated).
    pub fn predict_excluding(&self, x: &[f64], exclude: usize) -> NnPrediction {
        if let Some(xi) = self.xs.first() {
            assert_eq!(
                x.len(),
                xi.len(),
                "NN fitted on {} features cannot score a {}-feature query",
                xi.len(),
                x.len()
            );
        }
        let mut q = x.to_vec();
        if let Some(n) = &self.normalizer {
            n.apply(&mut q);
        }
        let r2 = self.radius * self.radius;

        let mut votes = vec![0usize; self.classes];
        let mut in_radius = 0usize;
        let mut nearest: Option<(f64, usize)> = None;
        for (i, xi) in self.xs.iter().enumerate() {
            if i == exclude {
                continue;
            }
            let d2 = dist2(&q, xi);
            if d2 <= r2 {
                votes[self.ys[i]] += 1;
                in_radius += 1;
            }
            if nearest.is_none_or(|(best, _)| d2 < best) {
                nearest = Some((d2, self.ys[i]));
            }
        }

        let best_class = (0..self.classes).max_by_key(|&c| votes[c]).unwrap_or(0);
        let best_votes = votes.get(best_class).copied().unwrap_or(0);
        let runner_up = (0..self.classes)
            .filter(|&c| c != best_class)
            .map(|c| votes[c])
            .max()
            .unwrap_or(0);

        // Clear winner inside the radius?
        if in_radius > 0 && best_votes > runner_up {
            return NnPrediction {
                label: best_class,
                confidence: best_votes as f64 / in_radius as f64,
                neighbors: in_radius,
            };
        }
        // Low confidence (tie or empty ball): single nearest neighbor.
        let label = nearest.map(|(_, y)| y).unwrap_or(0);
        NnPrediction {
            label,
            confidence: 0.0,
            neighbors: in_radius,
        }
    }

    /// The neighborhood radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of memorized examples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if the database is empty (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

impl Classifier for NearNeighbors {
    fn fit(&mut self, data: &Dataset) {
        *self = NearNeighbors::fit(data, self.radius);
    }

    fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_confidence(x).label
    }

    fn name(&self) -> &str {
        "NN"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(NearNeighbors::new(self.radius))
    }

    fn save(&self) -> Json {
        Json::obj([
            ("kind", Json::Str("NN".into())),
            ("radius", Json::Num(self.radius)),
            ("classes", Json::Num(self.classes as f64)),
            (
                "normalizer",
                match &self.normalizer {
                    Some(n) => n.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "xs",
                Json::Arr(self.xs.iter().map(|r| Json::from_f64s(r)).collect()),
            ),
            ("ys", Json::from_usizes(&self.ys)),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "NN")?;
        let radius = state
            .get("radius")
            .and_then(Json::as_num)
            .filter(|r| *r > 0.0)
            .ok_or("NN state has no positive radius")?;
        let classes = state
            .get("classes")
            .and_then(Json::as_usize)
            .ok_or("NN state has no class count")?;
        let normalizer = match state.get("normalizer") {
            Some(Json::Null) => None,
            Some(doc) => Some(MinMaxNormalizer::from_json(doc)?),
            None => return Err("NN state has no normalizer".into()),
        };
        let xs: Vec<Vec<f64>> = state
            .get("xs")
            .and_then(Json::as_arr)
            .ok_or("NN state has no xs")?
            .iter()
            .map(Json::as_f64s)
            .collect::<Option<_>>()
            .ok_or("NN state has a non-numeric example row")?;
        let ys = state
            .get("ys")
            .and_then(Json::as_usizes)
            .ok_or("NN state has no ys")?;
        if xs.len() != ys.len() {
            return Err(format!(
                "NN state: {} rows vs {} labels",
                xs.len(),
                ys.len()
            ));
        }
        if let Some(first) = xs.first() {
            if xs.iter().any(|r| r.len() != first.len()) {
                return Err("NN state has ragged example rows".into());
            }
        }
        if ys.iter().any(|&y| y >= classes) {
            return Err("NN state has a label out of class range".into());
        }
        *self = NearNeighbors {
            radius,
            normalizer,
            xs,
            ys,
            classes,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(x: Vec<Vec<f64>>, y: Vec<usize>) -> Dataset {
        let n = x.len();
        let d = x[0].len();
        Dataset::new(
            x,
            y,
            8,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn majority_vote_wins() {
        // Two tight clusters; query lands in the label-2 cluster.
        let d = dataset(
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.0],
                vec![0.0, 0.1],
                vec![10.0, 10.0],
            ],
            vec![2, 2, 2, 5],
        );
        let nn = NearNeighbors::fit(&d, DEFAULT_RADIUS);
        let p = nn.predict_with_confidence(&[0.05, 0.05]);
        assert_eq!(p.label, 2);
        assert!(p.confidence >= 0.99);
        assert!(p.neighbors >= 3);
    }

    #[test]
    fn fallback_to_single_nearest() {
        let d = dataset(vec![vec![0.0, 0.0], vec![10.0, 10.0]], vec![1, 7]);
        let nn = NearNeighbors::fit(&d, 0.05);
        // Query far from both balls: falls back to nearest (label 7).
        let p = nn.predict_with_confidence(&[8.0, 8.0]);
        assert_eq!(p.label, 7);
        assert_eq!(p.confidence, 0.0);
    }

    #[test]
    fn tie_uses_nearest() {
        let d = dataset(
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.45, 0.45]],
            vec![1, 3, 1],
        );
        // Normalized space: query equidistant-ish with one vote each for
        // labels 1 and 3 at a huge radius -> tie -> nearest decides.
        let nn = NearNeighbors::fit(&d, 10.0);
        let p = nn.predict_with_confidence(&[0.9, 0.9]);
        // votes: label1 x2, label3 x1 -> no tie here; make a real tie:
        let d2 = dataset(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![1, 3]);
        let nn2 = NearNeighbors::fit(&d2, 10.0);
        let p2 = nn2.predict_with_confidence(&[0.9, 0.9]);
        assert_eq!(p2.label, 3, "nearest breaks the tie");
        assert_eq!(p2.confidence, 0.0);
        assert_eq!(p.label, 1);
    }

    #[test]
    fn exclusion_hides_an_example() {
        let d = dataset(vec![vec![0.0], vec![5.0]], vec![0, 1]);
        let nn = NearNeighbors::fit(&d, 0.1);
        // Querying example 0's own position but excluding it: the only
        // remaining example has label 1.
        let p = nn.predict_excluding(&[0.0], 0);
        assert_eq!(p.label, 1);
    }

    #[test]
    fn normalization_balances_feature_scales() {
        // Feature 1 has a huge range; without normalization it would
        // dominate. The query is near cluster A in normalized space.
        let d = dataset(
            vec![vec![0.0, 0.0], vec![1.0, 100_000.0], vec![0.0, 90_000.0]],
            vec![0, 1, 1],
        );
        let nn = NearNeighbors::fit(&d, DEFAULT_RADIUS);
        assert_eq!(nn.predict(&[0.0, 95_000.0]), 1);
    }

    #[test]
    #[should_panic(expected = "NN fitted on 2 features")]
    fn query_dimension_mismatch_rejected() {
        let d = dataset(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![0, 1]);
        // Unnormalized: the path where truncating dist2 used to produce a
        // silently wrong distance instead of an error.
        let nn = NearNeighbors::fit_unnormalized(&d, DEFAULT_RADIUS);
        let _ = nn.predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let d = dataset(vec![vec![0.0]], vec![0]);
        let _ = NearNeighbors::fit(&d, 0.0);
    }
}
