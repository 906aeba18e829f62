//! Support vector machines trained by dual coordinate descent.
//!
//! The paper trains its multi-class classifier with the LS-SVMlab toolkit:
//! kernel machines with an RBF kernel, combined through one-vs-rest output
//! codes (§5.2). This module implements a soft-margin SVM in the
//! *bias-through-kernel* formulation (`K' = K + 1`), whose dual has only
//! box constraints and therefore admits simple, warm-startable coordinate
//! descent — the property the exact-ish leave-one-out path in
//! [`MulticlassSvm::loo_predictions`] exploits: removing a non-support
//! vector provably does not change the solution, and removing a support
//! vector only requires a short re-converge from the warm start.

use crate::classify::{expect_kind, Classifier};
use crate::dataset::{dist2, Dataset, MinMaxNormalizer};
use crate::distcache::{DistanceMatrix, KernelAlloc};
use loopml_rt::{par_map, Json};

/// SVM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// RBF kernel width: `k(x,y) = exp(-gamma * ||x-y||^2)`.
    pub gamma: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Maximum full coordinate sweeps during training.
    pub max_sweeps: usize,
    /// Re-converge sweeps per leave-one-out retrain.
    pub loo_sweeps: usize,
}

impl SvmParams {
    /// Serializes the hyperparameters for a model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("c", Json::Num(self.c)),
            ("gamma", Json::Num(self.gamma)),
            ("tol", Json::Num(self.tol)),
            ("max_sweeps", Json::Num(self.max_sweeps as f64)),
            ("loo_sweeps", Json::Num(self.loo_sweeps as f64)),
        ])
    }

    /// Parses hyperparameters written by [`to_json`](SvmParams::to_json).
    pub fn from_json(doc: &Json) -> Result<SvmParams, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("SVM params have no numeric {key:?}"))
        };
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("SVM params {key:?} is not a whole count"))
        };
        Ok(SvmParams {
            c: num("c")?,
            gamma: num("gamma")?,
            tol: num("tol")?,
            max_sweeps: count("max_sweeps")?,
            loo_sweeps: count("loo_sweeps")?,
        })
    }
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            c: 10.0,
            gamma: 1.0,
            tol: 1e-3,
            max_sweeps: 60,
            loo_sweeps: 6,
        }
    }
}

/// Precomputed RBF kernel matrix (with the +1 bias term folded in).
///
/// Every n×n buffer a cache holds is registered with the crate-wide
/// kernel-byte accounting ([`crate::peak_kernel_bytes`]) for its whole
/// lifetime — cloning a cache registers a second buffer — so the
/// scaling-gate peak reflects kernels as faithfully as distances.
#[derive(Debug, Clone)]
pub struct KernelCache {
    n: usize,
    k: Vec<f64>,
    /// RAII registration of `k`'s bytes with the kernel accounting.
    _alloc: KernelAlloc,
}

impl KernelCache {
    /// Computes the full kernel matrix over normalized rows: each pair's
    /// entry once, mirrored, with no intermediate distance matrix. The
    /// entries are bit-identical to [`from_distances`] over a
    /// [`DistanceMatrix`] of the same rows (the same `dist2` per pair,
    /// the diagonal from a zero distance, the same `exp(-γ·d²) + 1`).
    ///
    /// [`from_distances`]: KernelCache::from_distances
    pub fn compute(xs: &[Vec<f64>], gamma: f64) -> Self {
        let n = xs.len();
        let entry = |d2: f64| (-gamma * d2).exp() + 1.0;
        let mut kc = Self::zeroed(n);
        for i in 0..n {
            kc.k[i * n + i] = entry(0.0);
            for j in (i + 1)..n {
                let v = entry(dist2(&xs[i], &xs[j]));
                kc.k[i * n + j] = v;
                kc.k[j * n + i] = v;
            }
        }
        kc
    }

    /// Derives the RBF kernel matrix (with the +1 bias term folded in)
    /// from an already-computed pairwise distance matrix, for any gamma,
    /// without re-touching feature vectors — compute the distances once,
    /// sweep gamma for free.
    pub fn from_distances(dm: &DistanceMatrix, gamma: f64) -> Self {
        let n = dm.n();
        let alloc = KernelAlloc::new((n * n * 8) as u64);
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            let drow = dm.row(i);
            let krow = &mut k[i * n..(i + 1) * n];
            for (kv, &d2) in krow.iter_mut().zip(drow) {
                *kv = (-gamma * d2).exp() + 1.0;
            }
        }
        KernelCache {
            n,
            k,
            _alloc: alloc,
        }
    }

    /// An all-zero n×n cache for the streaming sweep to fill row by row
    /// through [`entries_mut`](KernelCache::entries_mut), bit-identical
    /// to [`from_distances`](KernelCache::from_distances), without ever
    /// holding a full distance matrix.
    pub(crate) fn zeroed(n: usize) -> Self {
        KernelCache {
            n,
            k: vec![0.0; n * n],
            _alloc: KernelAlloc::new((n * n * 8) as u64),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.k[i * self.n..(i + 1) * self.n]
    }

    /// The flat n×n kernel entries, row-major, for in-place filling.
    pub(crate) fn entries_mut(&mut self) -> &mut [f64] {
        &mut self.k
    }

    /// The flat n×n kernel entries — exposed so sweep tests can compare a
    /// [`from_distances`](KernelCache::from_distances)-derived kernel
    /// against a direct [`compute`](KernelCache::compute) bit-for-bit.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[f64] {
        &self.k
    }
}

/// Trains one binary machine by dual coordinate descent.
///
/// `labels` are ±1. `alpha0` warm-starts the solver; `frozen` pins one
/// index at zero (the left-out example during LOO). `active` restricts
/// the coordinates optimized (and the decision values maintained) to a
/// subset — the support-vector set during LOO re-convergence, where
/// removing one point perturbs mostly the other support vectors. Returns
/// the dual variables.
pub(crate) fn train_binary(
    kc: &KernelCache,
    labels: &[f64],
    params: &SvmParams,
    alpha0: Option<&[f64]>,
    frozen: Option<usize>,
    sweeps: usize,
    active: Option<&[usize]>,
) -> Vec<f64> {
    let n = kc.n;
    let mut alpha = match alpha0 {
        Some(a) => a.to_vec(),
        None => vec![0.0; n],
    };
    if let Some(i) = frozen {
        alpha[i] = 0.0;
    }
    let full: Vec<usize>;
    let active: &[usize] = match active {
        Some(a) => a,
        None => {
            full = (0..n).collect();
            &full
        }
    };

    // f[p] = sum_j alpha_j y_j K'(active[p], j), maintained for the
    // active coordinates only.
    let mut f = vec![0.0; active.len()];
    for (p, &i) in active.iter().enumerate() {
        let row = kc.row(i);
        f[p] = alpha
            .iter()
            .zip(labels)
            .zip(row)
            .filter(|((a, _), _)| **a != 0.0)
            .map(|((a, y), k)| a * y * k)
            .sum();
    }

    for _sweep in 0..sweeps {
        let mut max_violation: f64 = 0.0;
        for (p, &i) in active.iter().enumerate() {
            if Some(i) == frozen {
                continue;
            }
            let yi = labels[i];
            let g = yi * f[p] - 1.0; // gradient of the dual w.r.t alpha_i (negated)
            let violation = if alpha[i] <= 0.0 {
                (-g).max(0.0)
            } else if alpha[i] >= params.c {
                g.max(0.0)
            } else {
                g.abs()
            };
            max_violation = max_violation.max(violation);
            if violation <= params.tol {
                continue;
            }
            let kii = kc.row(i)[i];
            let new_alpha = (alpha[i] - g / kii).clamp(0.0, params.c);
            let delta = new_alpha - alpha[i];
            if delta.abs() < 1e-12 {
                continue;
            }
            alpha[i] = new_alpha;
            let row = kc.row(i);
            let dy = delta * yi;
            for (q, &t) in active.iter().enumerate() {
                f[q] += dy * row[t];
            }
        }
        if max_violation <= params.tol {
            break;
        }
    }
    alpha
}

/// Decision value of a binary machine at training point `i`.
pub(crate) fn decision_at(kc: &KernelCache, labels: &[f64], alpha: &[f64], i: usize) -> f64 {
    let row = kc.row(i);
    alpha
        .iter()
        .zip(labels)
        .zip(row)
        .filter(|((a, _), _)| **a != 0.0)
        .map(|((a, y), k)| a * y * k)
        .sum()
}

/// A trained multi-class SVM using one-vs-rest output codes with Hamming
/// decoding (margin tie-break), as in the paper.
///
/// The fitted machine keeps no kernel matrix: a query needs only its
/// own kernel row against the support set, and
/// [`loo_predictions`](MulticlassSvm::loo_predictions), the one reader
/// of training-pair entries, builds the kernel it reads.
#[derive(Debug, Clone)]
pub struct MulticlassSvm {
    params: SvmParams,
    normalizer: MinMaxNormalizer,
    xs: Vec<Vec<f64>>,
    ys: Vec<usize>,
    classes: usize,
    /// Per-class dual variables.
    alphas: Vec<Vec<f64>>,
    /// Training examples with a nonzero dual variable in some class, in
    /// index order: the rows a query's kernel row is computed against.
    support: Vec<usize>,
    /// Per class, `(p, α_j·y_j)` for each of its support vectors
    /// `j = support[p]`, in index order.
    machines: Vec<Vec<(usize, f64)>>,
}

impl MulticlassSvm {
    /// An *unfitted* machine carrying only its hyperparameters; call
    /// [`Classifier::fit`] before use. Until then it predicts class 0.
    pub fn new(params: SvmParams) -> Self {
        Self::assemble(
            params,
            MinMaxNormalizer::identity(),
            Vec::new(),
            Vec::new(),
            0,
            Vec::new(),
        )
    }

    /// A machine from its stored state, with the decision path's support
    /// set and per-class `(p, α·y)` lists derived once. `y_j` is exactly
    /// ±1.0, so `α_j·y_j` is exact, and the sums in
    /// [`decision_values`](MulticlassSvm::decision_values) are the float
    /// operations of `Σ α_j·y_j·k_j` over every training row.
    fn assemble(
        params: SvmParams,
        normalizer: MinMaxNormalizer,
        xs: Vec<Vec<f64>>,
        ys: Vec<usize>,
        classes: usize,
        alphas: Vec<Vec<f64>>,
    ) -> Self {
        let support: Vec<usize> = (0..xs.len())
            .filter(|&j| alphas.iter().any(|a| a[j] != 0.0))
            .collect();
        let machines = alphas
            .iter()
            .enumerate()
            .map(|(c, a)| {
                support
                    .iter()
                    .enumerate()
                    .filter(|&(_, &j)| a[j] != 0.0)
                    .map(|(p, &j)| (p, a[j] * if ys[j] == c { 1.0 } else { -1.0 }))
                    .collect()
            })
            .collect();
        MulticlassSvm {
            params,
            normalizer,
            xs,
            ys,
            classes,
            alphas,
            support,
            machines,
        }
    }

    /// Trains one binary machine per class (one-vs-rest). The per-class
    /// trainers are independent and run in parallel, bit-identical to a
    /// serial fit. They share one n×n kernel, dropped once they finish.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, params: SvmParams) -> Self {
        assert!(!data.is_empty(), "cannot fit to an empty dataset");
        let normalizer = MinMaxNormalizer::fit(&data.x);
        let xs = normalizer.transform(&data.x);
        let kernel = KernelCache::compute(&xs, params.gamma);
        let classes: Vec<usize> = (0..data.classes).collect();
        let alphas = par_map(&classes, |&class| {
            let labels: Vec<f64> = data
                .y
                .iter()
                .map(|&y| if y == class { 1.0 } else { -1.0 })
                .collect();
            train_binary(
                &kernel,
                &labels,
                &params,
                None,
                None,
                params.max_sweeps,
                None,
            )
        });
        drop(kernel);
        Self::assemble(params, normalizer, xs, data.y.clone(), data.classes, alphas)
    }

    /// Per-class decision values for a raw feature vector: one kernel row
    /// against the support set, then each class's `Σ α_j·y_j·k_j` in
    /// index order. Both [`predict`](MulticlassSvm::predict) and the
    /// batch path answer through here.
    ///
    /// # Panics
    ///
    /// Panics if the machine is fitted and `x`'s length differs from the
    /// training dimension (the normalizer and `dist2` both reject
    /// mismatched lengths rather than computing a wrong answer).
    pub fn decision_values(&self, x: &[f64]) -> Vec<f64> {
        if let Some(xi) = self.xs.first() {
            assert_eq!(
                x.len(),
                xi.len(),
                "SVM fitted on {} features cannot score a {}-feature query",
                xi.len(),
                x.len()
            );
        }
        let mut q = x.to_vec();
        self.normalizer.apply(&mut q);
        let krow: Vec<f64> = self
            .support
            .iter()
            .map(|&j| (-self.params.gamma * dist2(&q, &self.xs[j])).exp() + 1.0)
            .collect();
        self.machines
            .iter()
            .map(|m| m.iter().map(|&(p, w)| w * krow[p]).sum())
            .collect()
    }

    /// Predicts the class of a raw feature vector via output-code
    /// decoding.
    pub fn predict(&self, x: &[f64]) -> usize {
        decode(&self.decision_values(x))
    }

    /// Exact-leaning leave-one-out predictions for every training
    /// example: machines in which the example is not a support vector are
    /// reused as-is (removal provably does not change them); the rest are
    /// re-converged from a warm start with the example frozen out. The
    /// per-example folds only read the trained machine, so they run in
    /// parallel, bit-identical to a serial pass. Builds the n×n kernel
    /// the folds read, the same one [`fit`](MulticlassSvm::fit) trained
    /// on, and drops it on return.
    pub fn loo_predictions(&self) -> Vec<usize> {
        let n = self.xs.len();
        let kernel = KernelCache::compute(&self.xs, self.params.gamma);
        // Per-class machinery computed once: one-vs-rest labels and the
        // support-vector active sets used for warm-start re-convergence.
        let labels_by_class: Vec<Vec<f64>> = (0..self.classes)
            .map(|c| {
                self.ys
                    .iter()
                    .map(|&y| if y == c { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        let active_by_class: Vec<Vec<usize>> = self
            .alphas
            .iter()
            .map(|a| (0..n).filter(|&j| a[j] > 0.0).collect())
            .collect();

        let indices: Vec<usize> = (0..n).collect();
        par_map(&indices, |&i| {
            let mut decisions = Vec::with_capacity(self.classes);
            for c in 0..self.classes {
                let labels = &labels_by_class[c];
                let d = if self.alphas[c][i] == 0.0 {
                    // Removing a non-support vector provably leaves the
                    // solution unchanged: reuse the trained machine.
                    decision_at(&kernel, labels, &self.alphas[c], i)
                } else {
                    let alpha = train_binary(
                        &kernel,
                        labels,
                        &self.params,
                        Some(&self.alphas[c]),
                        Some(i),
                        self.params.loo_sweeps,
                        Some(&active_by_class[c]),
                    );
                    decision_at(&kernel, labels, &alpha, i)
                };
                decisions.push(d);
            }
            decode(&decisions)
        })
    }

    /// Number of support vectors per class machine.
    pub fn support_counts(&self) -> Vec<usize> {
        self.alphas
            .iter()
            .map(|a| a.iter().filter(|&&v| v > 0.0).count())
            .collect()
    }
}

impl Classifier for MulticlassSvm {
    fn fit(&mut self, data: &Dataset) {
        *self = MulticlassSvm::fit(data, self.params);
    }

    fn predict(&self, x: &[f64]) -> usize {
        MulticlassSvm::predict(self, x)
    }

    fn name(&self) -> &str {
        "SVM"
    }

    fn fresh(&self) -> Box<dyn Classifier> {
        Box::new(MulticlassSvm::new(self.params))
    }

    fn save(&self) -> Json {
        Json::obj([
            ("kind", Json::Str("SVM".into())),
            ("params", self.params.to_json()),
            ("classes", Json::Num(self.classes as f64)),
            ("normalizer", self.normalizer.to_json()),
            (
                "xs",
                Json::Arr(self.xs.iter().map(|r| Json::from_f64s(r)).collect()),
            ),
            ("ys", Json::from_usizes(&self.ys)),
            (
                "alphas",
                Json::Arr(self.alphas.iter().map(|a| Json::from_f64s(a)).collect()),
            ),
        ])
    }

    fn load(&mut self, state: &Json) -> Result<(), String> {
        expect_kind(state, "SVM")?;
        let params = SvmParams::from_json(state.get("params").unwrap_or(&Json::Null))?;
        let classes = state
            .get("classes")
            .and_then(Json::as_usize)
            .ok_or("SVM state has no class count")?;
        let normalizer =
            MinMaxNormalizer::from_json(state.get("normalizer").unwrap_or(&Json::Null))?;
        let xs: Vec<Vec<f64>> = state
            .get("xs")
            .and_then(Json::as_arr)
            .ok_or("SVM state has no xs")?
            .iter()
            .map(Json::as_f64s)
            .collect::<Option<_>>()
            .ok_or("SVM state has a non-numeric example row")?;
        let ys = state
            .get("ys")
            .and_then(Json::as_usizes)
            .ok_or("SVM state has no ys")?;
        let alphas: Vec<Vec<f64>> = state
            .get("alphas")
            .and_then(Json::as_arr)
            .ok_or("SVM state has no alphas")?
            .iter()
            .map(Json::as_f64s)
            .collect::<Option<_>>()
            .ok_or("SVM state has a non-numeric alpha row")?;
        if xs.len() != ys.len() {
            return Err(format!(
                "SVM state: {} rows vs {} labels",
                xs.len(),
                ys.len()
            ));
        }
        if let Some(first) = xs.first() {
            if xs.iter().any(|r| r.len() != first.len()) {
                return Err("SVM state has ragged example rows".into());
            }
        }
        if ys.iter().any(|&y| y >= classes) {
            return Err("SVM state has a label out of class range".into());
        }
        if alphas.len() != classes || alphas.iter().any(|a| a.len() != xs.len()) {
            return Err("SVM state alphas do not match classes x examples".into());
        }
        *self = MulticlassSvm::assemble(params, normalizer, xs, ys, classes, alphas);
        Ok(())
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        par_map(xs, |x| MulticlassSvm::predict(self, x))
    }
}

/// Output-code decoding for one-vs-rest: the codeword for class `c` is the
/// indicator vector `e_c`; the query's code is the sign pattern of the
/// decision values. The class at minimum Hamming distance wins; ties are
/// broken by the larger decision margin.
pub fn decode(decisions: &[f64]) -> usize {
    let bits: Vec<bool> = decisions.iter().map(|&d| d > 0.0).collect();
    let mut best = 0usize;
    let mut best_key = (usize::MAX, f64::NEG_INFINITY);
    for (c, &dec) in decisions.iter().enumerate() {
        let hamming: usize = bits
            .iter()
            .enumerate()
            .map(|(k, &b)| usize::from(b != (k == c)))
            .sum();
        let key = (hamming, dec);
        if key.0 < best_key.0 || (key.0 == best_key.0 && key.1 > best_key.1) {
            best = c;
            best_key = key;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_rt::with_threads;

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

    /// Three well-separated clusters in 2-D.
    fn clusters() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..8 {
                let dx = (k % 3) as f64 * 0.3;
                let dy = (k / 3) as f64 * 0.3;
                x.push(vec![cx + dx, cy + dy]);
                y.push(c);
            }
        }
        dataset(x, y, 3)
    }

    #[test]
    fn separable_clusters_classified() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        for (xi, &yi) in d.x.iter().zip(&d.y) {
            assert_eq!(svm.predict(xi), yi, "training point misclassified");
        }
        // Novel points near the centers.
        assert_eq!(svm.predict(&[0.4, 0.4]), 0);
        assert_eq!(svm.predict(&[10.2, 0.1]), 1);
        assert_eq!(svm.predict(&[0.1, 10.4]), 2);
    }

    #[test]
    fn loo_on_separable_data_is_accurate() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        let preds = svm.loo_predictions();
        let correct = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count();
        assert!(
            correct as f64 / d.len() as f64 >= 0.9,
            "LOO accuracy {correct}/{}",
            d.len()
        );
    }

    #[test]
    fn decode_prefers_unique_positive_bit() {
        assert_eq!(decode(&[-1.0, 2.0, -3.0]), 1);
    }

    #[test]
    fn decode_breaks_ties_by_margin() {
        // Two positive bits: both at Hamming distance 1 from their
        // codewords; the larger margin wins.
        assert_eq!(decode(&[1.0, 3.0, -1.0]), 1);
        // No positive bit: all at distance 1; least-negative wins.
        assert_eq!(decode(&[-5.0, -0.1, -2.0]), 1);
    }

    #[test]
    fn kernel_from_distances_matches_compute() {
        let d = clusters();
        let xs = MinMaxNormalizer::fit(&d.x).transform(&d.x);
        let dm = DistanceMatrix::compute(&xs);
        for gamma in [0.5, 1.0, 4.0] {
            let direct = KernelCache::compute(&xs, gamma);
            let derived = KernelCache::from_distances(&dm, gamma);
            assert_eq!(direct.k, derived.k, "gamma={gamma}");
        }
    }

    #[test]
    #[should_panic(expected = "SVM fitted on 2 features")]
    fn predict_rejects_wrong_dimension() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        let _ = svm.predict(&[0.0, 0.0, 0.0]);
    }

    #[test]
    fn parallel_training_and_loo_are_bit_identical_to_serial() {
        let d = clusters();
        let p = SvmParams::default();
        let fit_and_loo = |threads| {
            with_threads(threads, || {
                let svm = MulticlassSvm::fit(&d, p);
                let loo = svm.loo_predictions();
                (svm, loo)
            })
        };
        let (serial, serial_loo) = fit_and_loo(1);
        for threads in [2, 4] {
            let (par, par_loo) = fit_and_loo(threads);
            assert_eq!(serial.alphas, par.alphas, "alphas diverged at {threads}");
            assert_eq!(serial_loo, par_loo, "LOO diverged at {threads}");
        }
        assert_eq!(serial_loo, MulticlassSvm::fit(&d, p).loo_predictions());
    }

    #[test]
    fn support_vectors_exist_and_are_bounded() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        for (c, &count) in svm.support_counts().iter().enumerate() {
            assert!(count > 0, "class {c} has no support vectors");
            assert!(count <= d.len());
        }
    }

    #[test]
    fn alphas_respect_box_constraints() {
        let d = clusters();
        let p = SvmParams::default();
        let svm = MulticlassSvm::fit(&d, p);
        for a in &svm.alphas {
            assert!(a.iter().all(|&v| (0.0..=p.c + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn support_set_decisions_match_the_sum_over_every_row() {
        // The decision path sums over the support set only; the
        // reference sums `α_j·y_j·k_j` over every training row with a
        // nonzero α. The terms and their order are the same, so the
        // values must be equal bit for bit.
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        assert!(
            svm.support.len() < d.len(),
            "some example must be outside the support set"
        );
        let reference = |x: &[f64]| -> Vec<f64> {
            let mut q = x.to_vec();
            svm.normalizer.apply(&mut q);
            let krow: Vec<f64> = svm
                .xs
                .iter()
                .map(|xi| (-svm.params.gamma * dist2(&q, xi)).exp() + 1.0)
                .collect();
            (0..svm.classes)
                .map(|c| {
                    svm.alphas[c]
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| **a != 0.0)
                        .map(|(j, a)| {
                            let yj = if svm.ys[j] == c { 1.0 } else { -1.0 };
                            a * yj * krow[j]
                        })
                        .sum()
                })
                .collect()
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut queries = d.x.clone();
        queries.extend([vec![0.4, 0.4], vec![5.0, 5.0], vec![-3.0, 12.0]]);
        for q in &queries {
            assert_eq!(bits(svm.decision_values(q)), bits(reference(q)), "{q:?}");
        }
        let one_by_one: Vec<usize> = queries.iter().map(|q| svm.predict(q)).collect();
        assert_eq!(Classifier::predict_batch(&svm, &queries), one_by_one);
    }

    #[test]
    fn loaded_svm_is_bit_identical() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        let state = Json::parse(&Classifier::save(&svm).to_string()).unwrap();
        let mut copy = MulticlassSvm::new(SvmParams::default());
        Classifier::load(&mut copy, &state).expect("load");
        assert_eq!(svm.alphas, copy.alphas);
        assert_eq!(svm.support, copy.support);
        assert_eq!(svm.machines, copy.machines);
        for xi in &d.x {
            assert_eq!(svm.decision_values(xi), copy.decision_values(xi));
        }
        // The kernel LOO builds from the loaded rows drives it identically.
        assert_eq!(svm.loo_predictions(), copy.loo_predictions());
    }

    #[test]
    fn unfitted_svm_round_trips() {
        let svm = MulticlassSvm::new(SvmParams {
            gamma: 0.25,
            ..SvmParams::default()
        });
        let state = Classifier::save(&svm);
        let mut copy = MulticlassSvm::new(SvmParams::default());
        Classifier::load(&mut copy, &state).expect("load");
        assert_eq!(copy.params, svm.params);
        assert_eq!(Classifier::predict(&copy, &[1.0]), 0);
    }

    #[test]
    fn load_rejects_mismatched_alpha_shape() {
        let d = clusters();
        let svm = MulticlassSvm::fit(&d, SvmParams::default());
        let mut state = Classifier::save(&svm);
        if let Json::Obj(map) = &mut state {
            map.insert("alphas".into(), Json::Arr(vec![Json::from_f64s(&[0.0])]));
        }
        let mut copy = MulticlassSvm::new(SvmParams::default());
        assert!(Classifier::load(&mut copy, &state).is_err());
    }

    #[test]
    fn kernel_bytes_are_tracked_for_the_caches_lifetime() {
        use crate::distcache::peak_kernel_bytes;
        let d = clusters();
        let xs = MinMaxNormalizer::fit(&d.x).transform(&d.x);
        let n = xs.len() as u64;
        let before = peak_kernel_bytes();
        let kc = KernelCache::compute(&xs, 1.0);
        // The accounting is process-global and other tests allocate
        // kernels concurrently, so assert only what must hold: the peak
        // grew by at least this cache's bytes, and a clone registers a
        // second live buffer.
        assert!(
            peak_kernel_bytes() >= before.max(n * n * 8),
            "peak must cover a live {n}x{n} kernel"
        );
        let copy = kc.clone();
        assert!(
            peak_kernel_bytes() >= 2 * n * n * 8,
            "clone holds a second buffer"
        );
        drop(copy);
        drop(kc);
    }

    #[test]
    fn noisy_overlap_does_not_crash_and_respects_c() {
        // Overlapping clusters: some points unclassifiable; alphas cap at C.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..20 {
            let v = k as f64 * 0.1;
            x.push(vec![v]);
            y.push(k % 2);
        }
        let d = dataset(x, y, 2);
        let svm = MulticlassSvm::fit(
            &d,
            SvmParams {
                c: 1.0,
                ..SvmParams::default()
            },
        );
        let _ = svm.loo_predictions();
    }
}
