//! # loopml-ml — the supervised-learning stack
//!
//! From-scratch implementations of every learning component the paper
//! uses (*Stephenson & Amarasinghe, CGO 2005*):
//!
//! * [`Dataset`] / [`MinMaxNormalizer`] — labeled loop examples with the
//!   paper's equal-weight feature normalization;
//! * [`Classifier`] — the object-safe `fit`/`predict`/`name` interface
//!   every model implements, so pipelines work with `&mut dyn Classifier`;
//! * [`NearNeighbors`] — radius-0.3 near-neighbor classification with
//!   majority vote, 1-NN fallback, and vote confidence (§5.1);
//! * [`MulticlassSvm`] — RBF-kernel soft-margin SVMs combined through
//!   one-vs-rest output codes with Hamming decoding (§5.2);
//! * [`DecisionTree`] / [`BaggedForest`] / [`Mlp`] — the post-paper model
//!   zoo: a deterministic CART tree with interpretable splits, a
//!   bootstrap-aggregated forest over it, and a one-hidden-layer
//!   perceptron with a fixed SGD schedule — all behind [`Classifier`];
//! * [`loocv_nn`] / [`loocv_svm`] / [`loocv`] — leave-one-out
//!   cross validation (§4.2), plus [`logo_predictions`] for the
//!   leave-one-benchmark-out protocol of Figures 4/5;
//! * [`Lda2d`] — the 2-D linear-discriminant projection behind Figures
//!   1 and 2;
//! * [`mutual_information`] / [`greedy_forward`] — the feature-selection
//!   methods of Tables 3 and 4, with [`greedy_forward_nn`] the
//!   incremental fast path for the 1-NN criterion;
//! * [`FeatureDistCache`] — per-feature distance columns: greedy
//!   selection evaluates every candidate subset with one O(n²) scan over
//!   row strips of the selected set's distances (distances are additive
//!   across features); [`DistanceMatrix`] is the materialized full
//!   matrix, kept as a bit-identity reference;
//! * [`sweep`] — LOGO-scored hyperparameter selection across every model
//!   family (SVM gamma × C grid, NN radius, tree depth/min-leaf, forest
//!   size, MLP width/lr) over exactly one streamed distance pass, with a
//!   deterministic cross-family winner;
//! * [`linalg`] — the small dense linear-algebra kernel underneath LDA.
//!
//! Cross-validation folds, greedy candidates, and the one-vs-rest SVM
//! trainers all fan out across [`loopml_rt::par_map`] workers
//! (`LOOPML_THREADS` overrides the count), with results bit-identical to
//! serial runs — each unit of work is a pure function, the pool only
//! reschedules it.
//!
//! # Examples
//!
//! ```
//! use loopml_ml::{loocv_nn, Dataset, DEFAULT_RADIUS};
//!
//! // Two separable classes.
//! let x = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]];
//! let y = vec![0, 0, 1, 1];
//! let data = Dataset::new(
//!     x, y, 2,
//!     vec!["f".into()],
//!     (0..4).map(|i| format!("e{i}")).collect(),
//! );
//! let cv = loocv_nn(&data, DEFAULT_RADIUS);
//! assert_eq!(cv.accuracy, 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classify;
pub mod dataset;
pub mod distcache;
pub mod feature_select;
pub mod forest;
pub mod lda;
pub mod linalg;
pub mod loocv;
pub mod mlp;
pub mod nn;
pub mod svm;
pub mod sweep;
pub mod tree;

pub use classify::{Classifier, Constant};
pub use dataset::{dist2, Dataset, MinMaxNormalizer};
pub use distcache::{
    distance_builds, peak_distance_bytes, peak_kernel_bytes, reset_distance_bytes,
    reset_kernel_bytes, tile_budget_bytes, tile_rows_for, DistanceMatrix, FeatureDistCache,
    DEFAULT_TILE_BUDGET_BYTES,
};
pub use feature_select::{
    greedy_forward, greedy_forward_nn, mutual_information, nn1_training_error, GreedyStep,
    ScoredFeature, MIS_BINS,
};
pub use forest::{BaggedForest, ForestParams};
pub use lda::Lda2d;
pub use linalg::Matrix;
pub use loocv::{logo_accuracy, logo_predictions, loocv, loocv_nn, loocv_svm, CvResult};
pub use mlp::{Mlp, MlpParams};
pub use nn::{NearNeighbors, NnPrediction, DEFAULT_RADIUS};
pub use svm::{decode, KernelCache, MulticlassSvm, SvmParams};
pub use sweep::{
    sweep, ForestCell, ForestGrid, MlpCell, MlpGrid, RadiusCell, SvmCell, SvmGrid, SweepConfig,
    SweepReport, TreeCell, TreeGrid,
};
pub use tree::{DecisionTree, TreeParams};

#[cfg(test)]
mod proptests {
    use super::*;
    use loopml_rt::{check, Rng};

    /// Random dataset: 2..5 classes, 8..30 examples, 1..4 features with
    /// values in [-100, 100).
    fn arb_dataset(rng: &mut Rng) -> Dataset {
        let classes = rng.gen_range(2..5usize);
        let n = rng.gen_range(8..30usize);
        let d = rng.gen_range(1..4usize);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
        Dataset::new(
            x,
            y,
            classes,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn normalization_bounds() {
        check("normalization_bounds", 24, |rng| {
            let data = arb_dataset(rng);
            let n = MinMaxNormalizer::fit(&data.x);
            for row in n.transform(&data.x) {
                for v in row {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        });
    }

    #[test]
    fn nn_loocv_accuracy_is_fraction() {
        check("nn_loocv_accuracy_is_fraction", 24, |rng| {
            let data = arb_dataset(rng);
            let r = loocv_nn(&data, DEFAULT_RADIUS);
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert_eq!(r.predictions.len(), data.len());
            for p in r.predictions {
                assert!(p < data.classes);
            }
        });
    }

    #[test]
    fn svm_predictions_in_range() {
        check("svm_predictions_in_range", 24, |rng| {
            let data = arb_dataset(rng);
            let svm = MulticlassSvm::fit(
                &data,
                SvmParams {
                    max_sweeps: 15,
                    ..SvmParams::default()
                },
            );
            for x in &data.x {
                assert!(svm.predict(x) < data.classes);
            }
        });
    }

    #[test]
    fn mis_is_nonnegative_and_complete() {
        check("mis_is_nonnegative_and_complete", 24, |rng| {
            let data = arb_dataset(rng);
            let scores = mutual_information(&data);
            assert_eq!(scores.len(), data.dims());
            for s in scores {
                assert!(s.score >= -1e-9);
            }
        });
    }
}
