//! A tiny zero-dependency multi-layer perceptron.
//!
//! One tanh hidden layer and a softmax output, trained by plain
//! stochastic gradient descent on the cross-entropy loss — the smallest
//! member of the model family Balamane et al. ("Using Deep Neural
//! Networks for Estimating Loop Unrolling Factor", PAPERS.md) showed
//! beats classical classifiers on exactly this task.
//!
//! The determinism contract is the strictest of the zoo and the
//! simplest to honor: weights initialize from one [`loopml_rt::Rng`]
//! stream seeded by the hyperparameters alone, and the SGD schedule is
//! *fixed* — `epochs` passes over the examples in index order, one
//! update per example. Training never consults the worker pool, so a
//! fit is bit-identical at any `LOOPML_THREADS`, and refitting the same
//! data reproduces the same weights bit-for-bit.

use crate::classify::{expect_kind, Classifier};
use crate::dataset::{Dataset, MinMaxNormalizer};
use loopml_rt::{Json, Rng};

/// Hyperparameters of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpParams {
    /// Hidden-layer width.
    pub hidden: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Full passes over the training set (each in index order).
    pub epochs: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for MlpParams {
    /// A 16-unit hidden layer, 120 index-order epochs at rate 0.1 —
    /// small enough that a LOGO sweep refits it per fold in milliseconds
    /// on the paper-scale corpus.
    fn default() -> Self {
        MlpParams {
            hidden: 16,
            lr: 0.1,
            epochs: 120,
            seed: 0x006d_6c70,
        }
    }
}

impl MlpParams {
    /// Serializes the hyperparameters.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", Json::Num(self.hidden as f64)),
            ("lr", Json::Num(self.lr)),
            ("epochs", Json::Num(self.epochs as f64)),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    /// Parses hyperparameters written by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let whole = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("MLP params have no whole {key}"))
        };
        let hidden = whole("hidden")?;
        if hidden == 0 {
            return Err("MLP hidden width must be at least 1".into());
        }
        let lr = doc
            .get("lr")
            .and_then(Json::as_num)
            .filter(|v| *v > 0.0 && v.is_finite())
            .ok_or("MLP params have no positive lr")?;
        let epochs = whole("epochs")?;
        let seed = whole("seed")? as u64;
        Ok(MlpParams {
            hidden,
            lr,
            epochs,
            seed,
        })
    }
}

/// A one-hidden-layer perceptron classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: MlpParams,
    normalizer: Option<MinMaxNormalizer>,
    /// `hidden × dims` input weights, row-major per hidden unit.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    /// `classes × hidden` output weights, row-major per class.
    w2: Vec<Vec<f64>>,
    b2: Vec<f64>,
    classes: usize,
    dims: usize,
}

impl Mlp {
    /// An *unfitted* MLP carrying only its hyperparameters; call
    /// [`Classifier::fit`] before use. Until then it predicts class 0.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is zero or `lr` is not positive.
    pub fn new(params: MlpParams) -> Self {
        assert!(params.hidden >= 1, "hidden width must be at least 1");
        assert!(
            params.lr > 0.0 && params.lr.is_finite(),
            "learning rate must be positive"
        );
        Mlp {
            params,
            normalizer: None,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: Vec::new(),
            classes: 0,
            dims: 0,
        }
    }

    /// Trains the network with the fixed deterministic SGD schedule.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, params: MlpParams) -> Self {
        let mut net = Mlp::new(params);
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        let normalizer = MinMaxNormalizer::fit(&data.x);
        let xs = normalizer.transform(&data.x);
        let (h, d, c) = (params.hidden, data.dims(), data.classes.max(1));
        let mut rng = Rng::seed_from_u64(params.seed);
        let scale1 = 1.0 / (d.max(1) as f64).sqrt();
        let scale2 = 1.0 / (h as f64).sqrt();
        let mut init = |fan: usize, scale: f64| -> Vec<f64> {
            (0..fan)
                .map(|_| (2.0 * rng.next_f64() - 1.0) * scale)
                .collect()
        };
        net.w1 = (0..h).map(|_| init(d, scale1)).collect();
        net.b1 = vec![0.0; h];
        net.w2 = (0..c).map(|_| init(h, scale2)).collect();
        net.b2 = vec![0.0; c];
        net.classes = data.classes;
        net.dims = d;
        net.normalizer = Some(normalizer);

        let mut hidden = vec![0.0f64; h];
        let mut probs = vec![0.0f64; c];
        let mut dpre = vec![0.0f64; h];
        for _ in 0..params.epochs {
            for (x, &y) in xs.iter().zip(&data.y) {
                net.forward(x, &mut hidden, &mut probs);
                // Softmax + cross-entropy gradient at the logits.
                probs[y] -= 1.0;
                // Backprop into the hidden layer with the *pre-update*
                // output weights.
                for (j, dj) in dpre.iter_mut().enumerate() {
                    let upstream: f64 = net
                        .w2
                        .iter()
                        .zip(&probs)
                        .map(|(row, &dl)| dl * row[j])
                        .sum();
                    *dj = upstream * (1.0 - hidden[j] * hidden[j]);
                }
                let lr = params.lr;
                for (row, &dl) in net.w2.iter_mut().zip(&probs) {
                    for (w, &hj) in row.iter_mut().zip(&hidden) {
                        *w -= lr * dl * hj;
                    }
                }
                for (b, &dl) in net.b2.iter_mut().zip(&probs) {
                    *b -= lr * dl;
                }
                for (row, &dj) in net.w1.iter_mut().zip(&dpre) {
                    for (w, &xi) in row.iter_mut().zip(x) {
                        *w -= lr * dj * xi;
                    }
                }
                for (b, &dj) in net.b1.iter_mut().zip(&dpre) {
                    *b -= lr * dj;
                }
            }
        }
        net
    }

    /// Forward pass over a normalized input; fills `hidden` with tanh
    /// activations and `out` with softmax probabilities.
    fn forward(&self, x: &[f64], hidden: &mut [f64], out: &mut [f64]) {
        for (hj, (row, &b)) in hidden.iter_mut().zip(self.w1.iter().zip(&self.b1)) {
            let z: f64 = row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f64>() + b;
            *hj = z.tanh();
        }
        let mut max = f64::NEG_INFINITY;
        for (o, (row, &b)) in out.iter_mut().zip(self.w2.iter().zip(&self.b2)) {
            let z: f64 = row
                .iter()
                .zip(hidden.iter())
                .map(|(&w, &h)| w * h)
                .sum::<f64>()
                + b;
            *o = z;
            if z > max {
                max = z;
            }
        }
        let mut total = 0.0;
        for o in out.iter_mut() {
            *o = (*o - max).exp();
            total += *o;
        }
        for o in out.iter_mut() {
            *o /= total;
        }
    }

    /// The hyperparameters this network was constructed with.
    pub fn params(&self) -> MlpParams {
        self.params
    }
}

/// Reads a required matrix field: an array of equal-length numeric rows.
fn matrix_field(
    state: &Json,
    key: &str,
    rows: usize,
    cols: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let m: Vec<Vec<f64>> = state
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("MLP state has no {key}"))?
        .iter()
        .map(Json::as_f64s)
        .collect::<Option<_>>()
        .ok_or_else(|| format!("MLP state {key} has a non-numeric row"))?;
    if m.len() != rows || m.iter().any(|r| r.len() != cols) {
        return Err(format!("MLP state {key} is not {rows}x{cols}"));
    }
    Ok(m)
}

impl Classifier for Mlp {
    fn fit(&mut self, data: &Dataset) {
        *self = Mlp::fit(data, self.params);
    }

    fn predict(&self, x: &[f64]) -> usize {
        if self.w1.is_empty() {
            return 0;
        }
        assert_eq!(
            x.len(),
            self.dims,
            "MLP fitted on {} features cannot score a {}-feature query",
            self.dims,
            x.len()
        );
        let mut q = x.to_vec();
        if let Some(n) = &self.normalizer {
            n.apply(&mut q);
        }
        let mut hidden = vec![0.0f64; self.params.hidden];
        let mut probs = vec![0.0f64; self.classes.max(1)];
        self.forward(&q, &mut hidden, &mut probs);
        // Argmax with ties toward the smallest class index.
        let mut best = 0usize;
        for (c, &p) in probs.iter().enumerate() {
            if p > probs[best] {
                best = c;
            }
        }
        best
    }

    fn name(&self) -> &str {
        "MLP"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(Mlp::new(self.params))
    }

    fn save(&self) -> Json {
        let matrix = |m: &[Vec<f64>]| Json::Arr(m.iter().map(|r| Json::from_f64s(r)).collect());
        Json::obj([
            ("kind", Json::Str("MLP".into())),
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
            ("w1", matrix(&self.w1)),
            ("b1", Json::from_f64s(&self.b1)),
            ("w2", matrix(&self.w2)),
            ("b2", Json::from_f64s(&self.b2)),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "MLP")?;
        let params = MlpParams::from_json(state.get("params").ok_or("MLP state has no params")?)?;
        let whole = |key: &str| {
            state
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("MLP state has no whole {key}"))
        };
        let classes = whole("classes")?;
        let dims = whole("dims")?;
        let normalizer = match state.get("normalizer") {
            Some(Json::Null) => None,
            Some(doc) => Some(MinMaxNormalizer::from_json(doc)?),
            None => return Err("MLP state has no normalizer".into()),
        };
        let w1 = matrix_field(state, "w1", params.hidden, dims)?;
        let w2 = matrix_field(state, "w2", classes.max(1), params.hidden)?;
        let vector = |key: &str, len: usize| -> Result<Vec<f64>, String> {
            let v = state
                .get(key)
                .and_then(Json::as_f64s)
                .ok_or_else(|| format!("MLP state has no {key}"))?;
            if v.len() != len {
                return Err(format!("MLP state {key} has {} of {len} entries", v.len()));
            }
            Ok(v)
        };
        let b1 = vector("b1", params.hidden)?;
        let b2 = vector("b2", classes.max(1))?;
        *self = Mlp {
            params,
            normalizer,
            w1,
            b1,
            w2,
            b2,
            classes,
            dims,
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
        let net = Mlp::fit(&d, MlpParams::default());
        for (x, &y) in d.x.iter().zip(&d.y) {
            assert_eq!(Classifier::predict(&net, x), y);
        }
    }

    #[test]
    fn refit_is_bit_identical() {
        let d = clusters();
        let a = Mlp::fit(&d, MlpParams::default());
        let b = Mlp::fit(&d, MlpParams::default());
        assert_eq!(a.save().to_string(), b.save().to_string());
    }

    #[test]
    fn different_seeds_train_different_weights() {
        let d = clusters();
        let a = Mlp::fit(&d, MlpParams::default());
        let b = Mlp::fit(
            &d,
            MlpParams {
                seed: 99,
                ..MlpParams::default()
            },
        );
        assert_ne!(a.save().to_string(), b.save().to_string());
    }

    #[test]
    fn unfitted_predicts_zero() {
        let net = Mlp::new(MlpParams::default());
        assert_eq!(Classifier::predict(&net, &[1.0, 2.0]), 0);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let d = clusters();
        let net = Mlp::fit(
            &d,
            MlpParams {
                hidden: 5,
                ..MlpParams::default()
            },
        );
        let state = net.save();
        let reparsed = Json::parse(&state.to_string()).expect("valid JSON");
        let mut copy = Mlp::new(MlpParams::default());
        copy.load(&reparsed).expect("load");
        for x in &d.x {
            assert_eq!(Classifier::predict(&copy, x), Classifier::predict(&net, x));
        }
    }

    #[test]
    fn load_rejects_malformed_states() {
        let d = clusters();
        let net = Mlp::fit(
            &d,
            MlpParams {
                hidden: 3,
                ..MlpParams::default()
            },
        );
        let good = net.save().to_string();
        let mut victim = Mlp::new(MlpParams::default());
        for bad in [
            good.replace("\"kind\":\"MLP\"", "\"kind\":\"SVM\""),
            good.replace("\"hidden\":3", "\"hidden\":4"),
            good.replace("\"lr\":0.1", "\"lr\":0"),
        ] {
            let doc = Json::parse(&bad).expect("still JSON");
            assert!(victim.load(&doc).is_err(), "should reject: {bad}");
        }
        assert_eq!(Classifier::predict(&victim, &d.x[0]), 0, "still unfitted");
    }

    #[test]
    fn zero_epochs_is_the_initialized_network() {
        // epochs: 0 must be legal (pure init, no training) and still
        // answer in-range classes.
        let d = clusters();
        let net = Mlp::fit(
            &d,
            MlpParams {
                epochs: 0,
                ..MlpParams::default()
            },
        );
        for x in &d.x {
            assert!(Classifier::predict(&net, x) < d.classes);
        }
    }
}
