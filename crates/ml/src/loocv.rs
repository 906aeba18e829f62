//! Leave-one-out cross validation (paper §4.2).
//!
//! LOOCV is the accuracy methodology of the paper: train on N−1 examples,
//! classify the held-out one, repeat N times. For the two classifiers we
//! care about there are fast exact(-leaning) paths — NN supports
//! exclusion at query time, and the SVM only changes when a support
//! vector is removed — plus a fully generic path for arbitrary
//! classifiers.
//!
//! Every fold is a pure function of the dataset, so all three entry
//! points fan folds out across [`loopml_rt::par_map`] workers
//! (`LOOPML_THREADS` overrides the count) with results bit-identical to
//! a serial run: the pool changes *when* a fold runs, never what it
//! computes or where its prediction lands. The generic path hands each
//! worker a [`Classifier::fresh`] copy of the prototype classifier and
//! one scratch training set reused across that worker's folds
//! ([`Dataset::copy_excluding_into`]), so the per-fold dataset clone of
//! the naive implementation disappears.

use crate::classify::Classifier;
use crate::dataset::Dataset;
use crate::nn::NearNeighbors;
use crate::svm::{MulticlassSvm, SvmParams};
use loopml_rt::{num_threads, par_map, par_map_threads};

/// Result of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Predicted label for each example when it was held out.
    pub predictions: Vec<usize>,
    /// Fraction of held-out examples classified correctly.
    pub accuracy: f64,
}

fn result_from(predictions: Vec<usize>, truth: &[usize]) -> CvResult {
    let correct = predictions
        .iter()
        .zip(truth)
        .filter(|(p, y)| p == y)
        .count();
    let accuracy = if truth.is_empty() {
        0.0
    } else {
        correct as f64 / truth.len() as f64
    };
    CvResult {
        predictions,
        accuracy,
    }
}

/// Splits `0..n` into at most `parts` contiguous, balanced ranges. The
/// partition only affects which worker computes which folds, never the
/// folds' results, so any `parts` yields identical predictions.
fn fold_blocks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut blocks = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        blocks.push(start..start + len);
        start += len;
    }
    blocks
}

/// An empty dataset to use as a reusable scratch training set.
fn scratch_dataset() -> Dataset {
    Dataset {
        x: Vec::new(),
        y: Vec::new(),
        classes: 0,
        feature_names: Vec::new(),
        example_names: Vec::new(),
    }
}

/// LOOCV for radius near neighbors: exact, via query-time exclusion.
/// Queries run in parallel. Already streaming: each fold touches only
/// the fitted model's rows, so there is no n×n buffer to tile. Folds are
/// batched into contiguous blocks — one scheduling unit per worker
/// instead of one per query — which matters once the corpus scales to
/// tens of thousands of loops; predictions are position-indexed, so any
/// block partition reassembles to the identical result.
pub fn loocv_nn(data: &Dataset, radius: f64) -> CvResult {
    let threads = num_threads();
    let nn = NearNeighbors::fit(data, radius);
    let blocks = fold_blocks(data.len(), threads);
    let per_block: Vec<Vec<usize>> = par_map_threads(threads, &blocks, |block| {
        block
            .clone()
            .map(|i| nn.predict_excluding(&data.x[i], i).label)
            .collect()
    });
    result_from(per_block.concat(), &data.y)
}

/// LOOCV for the multi-class SVM: exact for examples that are not support
/// vectors, warm-start re-converged otherwise. Both the one-vs-rest
/// training and the per-example folds run in parallel.
pub fn loocv_svm(data: &Dataset, params: SvmParams) -> CvResult {
    let svm = MulticlassSvm::fit(data, params);
    result_from(svm.loo_predictions(), &data.y)
}

/// Generic LOOCV: trains a [`Classifier::fresh`] copy of `clf` on the
/// N−1 remaining examples for every fold. Use only for small datasets or
/// cheap classifiers; the fast paths above avoid the N retrains. Folds
/// run in parallel, bit-identical to a serial run; `clf` itself is never
/// mutated.
pub fn loocv(data: &Dataset, clf: &dyn Classifier) -> CvResult {
    let threads = num_threads();
    let blocks = fold_blocks(data.len(), threads);
    let per_block: Vec<Vec<usize>> = par_map_threads(threads, &blocks, |block| {
        let mut model = clf.fresh();
        let mut train = scratch_dataset();
        block
            .clone()
            .map(|i| {
                data.copy_excluding_into(i, &mut train);
                model.fit(&train);
                model.predict(&data.x[i])
            })
            .collect()
    });
    result_from(per_block.concat(), &data.y)
}

/// Leave-one-*group*-out predictions (the Figure 4/5 protocol: when
/// compiling a benchmark, all of its loops are excluded from training).
/// `group` assigns each example to a group; a [`Classifier::fresh`] copy
/// of `clf` is fitted once per group with that group held out, with the
/// groups processed in parallel (bit-identical to serial). Groups whose
/// exclusion would empty the training set predict class 0.
pub fn logo_predictions(data: &Dataset, group: &[usize], clf: &dyn Classifier) -> Vec<usize> {
    assert_eq!(group.len(), data.len());
    let mut groups: Vec<usize> = group.to_vec();
    groups.sort_unstable();
    groups.dedup();
    let per_group: Vec<Vec<(usize, usize)>> = par_map(&groups, |&g| {
        let members: Vec<usize> = (0..data.len()).filter(|&i| group[i] == g).collect();
        let drop: Vec<bool> = group.iter().map(|&gi| gi == g).collect();
        let train = data.without_examples(&drop);
        if train.is_empty() {
            return members.into_iter().map(|i| (i, 0)).collect();
        }
        let mut model = clf.fresh();
        model.fit(&train);
        members
            .into_iter()
            .map(|i| (i, model.predict(&data.x[i])))
            .collect()
    });
    let mut predictions = vec![0usize; data.len()];
    for (i, p) in per_group.into_iter().flatten() {
        predictions[i] = p;
    }
    predictions
}

/// Leave-one-group-out *accuracy* of `clf`: the fraction of examples
/// predicted correctly by [`logo_predictions`]. The scalar the
/// hyperparameter sweep ranks every model-family cell by.
pub fn logo_accuracy(data: &Dataset, group: &[usize], clf: &dyn Classifier) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let preds = logo_predictions(data, group, clf);
    let correct = preds.iter().zip(&data.y).filter(|(p, y)| p == y).count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::DEFAULT_RADIUS;
    use loopml_rt::with_threads;

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
    fn nn_loocv_high_on_separable() {
        let r = loocv_nn(&clusters(), DEFAULT_RADIUS);
        assert!(r.accuracy >= 0.9, "{}", r.accuracy);
        assert_eq!(r.predictions.len(), 18);
    }

    #[test]
    fn svm_loocv_high_on_separable() {
        let r = loocv_svm(&clusters(), SvmParams::default());
        assert!(r.accuracy >= 0.9, "{}", r.accuracy);
    }

    #[test]
    fn generic_matches_nn_fast_path() {
        let d = clusters();
        let fast = loocv_nn(&d, DEFAULT_RADIUS);
        let slow = loocv(&d, &NearNeighbors::new(DEFAULT_RADIUS));
        assert_eq!(fast.predictions, slow.predictions);
    }

    #[test]
    fn logo_excludes_whole_groups() {
        let d = clusters();
        // Each cluster its own group: training never sees the cluster, so
        // accuracy collapses — proving the group really was excluded.
        let group: Vec<usize> = d.y.clone();
        let preds = logo_predictions(&d, &group, &NearNeighbors::new(DEFAULT_RADIUS));
        let correct = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count();
        assert_eq!(correct, 0, "held-out clusters must be unpredictable");
    }

    #[test]
    fn accuracy_is_a_fraction() {
        let r = loocv_nn(&clusters(), DEFAULT_RADIUS);
        assert!((0.0..=1.0).contains(&r.accuracy));
    }

    #[test]
    fn fold_blocks_cover_everything_in_order() {
        for n in [0usize, 1, 5, 18, 100] {
            for parts in [1usize, 2, 3, 4, 7, 200] {
                let blocks = fold_blocks(n, parts);
                let flat: Vec<usize> = blocks.iter().flat_map(|b| b.clone()).collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn nn_loocv_blocked_matches_every_thread_count() {
        let d = clusters();
        let serial = with_threads(1, || loocv_nn(&d, DEFAULT_RADIUS));
        for threads in [2, 4, 7] {
            assert_eq!(
                serial,
                with_threads(threads, || loocv_nn(&d, DEFAULT_RADIUS)),
                "diverged at {threads} threads"
            );
        }
        assert_eq!(serial, loocv_nn(&d, DEFAULT_RADIUS));
    }

    #[test]
    fn parallel_loocv_is_bit_identical_to_serial() {
        // The determinism contract mirrored from parallel labeling: any
        // thread count must reproduce the serial fold-by-fold reference
        // exactly — predictions, order, accuracy.
        let d = clusters();
        let nn = NearNeighbors::new(DEFAULT_RADIUS);
        let svm = MulticlassSvm::new(SvmParams::default());
        for clf in [&nn as &dyn Classifier, &svm as &dyn Classifier] {
            let serial = with_threads(1, || loocv(&d, clf));
            for threads in [2, 4] {
                assert_eq!(
                    serial,
                    with_threads(threads, || loocv(&d, clf)),
                    "{} diverged at {threads} threads",
                    clf.name()
                );
            }
            // And through the default (env/core-count) entry point.
            assert_eq!(serial, loocv(&d, clf));
        }
    }

    #[test]
    fn logo_accuracy_counts_correct_predictions() {
        let d = clusters();
        let group: Vec<usize> = (0..d.len()).map(|i| i % 2).collect();
        let nn = NearNeighbors::new(DEFAULT_RADIUS);
        let preds = logo_predictions(&d, &group, &nn);
        let correct = preds.iter().zip(&d.y).filter(|(p, y)| p == y).count();
        let expected = correct as f64 / d.len() as f64;
        assert_eq!(logo_accuracy(&d, &group, &nn), expected);
        for threads in [1, 4] {
            let accuracy = with_threads(threads, || logo_accuracy(&d, &group, &nn));
            assert_eq!(accuracy, expected);
        }
    }

    #[test]
    fn parallel_logo_is_bit_identical_to_serial() {
        let d = clusters();
        let group: Vec<usize> = (0..d.len()).map(|i| i % 5).collect();
        let nn = NearNeighbors::new(DEFAULT_RADIUS);
        let serial = with_threads(1, || logo_predictions(&d, &group, &nn));
        for threads in [2, 4] {
            assert_eq!(
                serial,
                with_threads(threads, || logo_predictions(&d, &group, &nn)),
                "diverged at {threads} threads"
            );
        }
        assert_eq!(serial, logo_predictions(&d, &group, &nn));
    }
}
