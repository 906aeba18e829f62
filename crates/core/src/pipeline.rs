//! End-to-end pipeline glue: labeled loops → ML datasets → trained
//! classifiers → compile-time heuristics.

use loopml_ml::{
    greedy_forward_nn, mutual_information, Classifier, Dataset, MulticlassSvm, SvmParams,
};

use crate::features::FEATURE_NAMES;
use crate::label::LabeledLoop;

/// Converts labeled loops into an ML dataset over all 38 features.
///
/// # Panics
///
/// Panics if `labeled` is empty or a feature vector is not 38 wide.
pub fn to_dataset(labeled: &[LabeledLoop]) -> Dataset {
    assert!(!labeled.is_empty(), "no labeled loops");
    Dataset::new(
        labeled.iter().map(|l| l.features.clone()).collect(),
        labeled.iter().map(|l| l.label).collect(),
        8,
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        labeled.iter().map(|l| l.name.clone()).collect(),
    )
}

/// The benchmark index of each example (for leave-one-benchmark-out).
pub fn benchmark_groups(labeled: &[LabeledLoop]) -> Vec<usize> {
    labeled.iter().map(|l| l.benchmark).collect()
}

/// Selects the informative feature subset the paper uses for its
/// classification experiments (§6–§7): the union of the top `k` features
/// by mutual information and the top `k` chosen by greedy forward
/// selection with a leave-self-out 1-NN criterion.
pub fn informative_features(data: &Dataset, k: usize) -> Vec<usize> {
    let mis = mutual_information(data);
    let mut cols: Vec<usize> = mis.iter().take(k).map(|s| s.index).collect();
    // The incremental cached greedy: O(n²) per candidate instead of
    // rebuilding the subset's pairwise distances from scratch.
    for step in greedy_forward_nn(data, k) {
        if !cols.contains(&step.index) {
            cols.push(step.index);
        }
    }
    cols.sort_unstable();
    cols
}

/// Training error of an SVM on `data` (used by greedy feature selection
/// for the SVM column of Table 4).
pub fn svm_training_error(data: &Dataset, params: SvmParams) -> f64 {
    let svm = MulticlassSvm::fit(data, params);
    let errors = data
        .x
        .iter()
        .zip(&data.y)
        .filter(|(x, &y)| svm.predict(x) != y)
        .count();
    errors as f64 / data.len() as f64
}

/// Convenience: LOOCV accuracy of an arbitrary [`Classifier`] (used for
/// ablations on small datasets). `clf` is the unfitted prototype; each
/// fold trains a [`Classifier::fresh`] copy, in parallel.
pub fn loocv_accuracy(data: &Dataset, clf: &dyn Classifier) -> f64 {
    loopml_ml::loocv(data, clf).accuracy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{label_benchmark, LabelConfig};
    use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
    use loopml_machine::{NoiseModel, SwpMode};

    fn labeled() -> Vec<LabeledLoop> {
        let b = synthesize(
            &ROSTER[2],
            &SuiteConfig {
                min_loops: 14,
                max_loops: 16,
                ..SuiteConfig::default()
            },
        );
        let cfg = LabelConfig {
            noise: NoiseModel::exact(),
            ..LabelConfig::paper(SwpMode::Disabled)
        };
        label_benchmark(&b, 3, &cfg, &loopml_rt::FaultPlane::disabled()).labeled
    }

    #[test]
    fn dataset_round_trip() {
        let l = labeled();
        let d = to_dataset(&l);
        assert_eq!(d.len(), l.len());
        assert_eq!(d.dims(), crate::features::NUM_FEATURES);
        assert_eq!(d.classes, 8);
        assert!(benchmark_groups(&l).iter().all(|&g| g == 3));
    }

    #[test]
    fn informative_features_are_a_reasonable_subset() {
        let d = to_dataset(&labeled());
        let cols = informative_features(&d, 5);
        assert!(!cols.is_empty());
        assert!(cols.len() <= 10);
        assert!(cols.iter().all(|&c| c < d.dims()));
        // Sorted and unique.
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, cols);
    }

    #[test]
    fn trained_classifiers_predict_valid_classes() {
        let d = to_dataset(&labeled());
        let mut models: Vec<Box<dyn Classifier>> = vec![
            Box::new(loopml_ml::NearNeighbors::new(loopml_ml::DEFAULT_RADIUS)),
            Box::new(loopml_ml::MulticlassSvm::new(SvmParams::default())),
        ];
        for m in &mut models {
            m.fit(&d);
            for x in &d.x {
                assert!(m.predict(x) < 8, "{} out of range", m.name());
            }
        }
    }

    #[test]
    fn loocv_accuracy_works_on_any_classifier() {
        let d = to_dataset(&labeled());
        let acc = loocv_accuracy(&d, &loopml_ml::Constant::new(0));
        assert!((0.0..=1.0).contains(&acc));
        let nn_acc = loocv_accuracy(&d, &loopml_ml::NearNeighbors::new(0.3));
        assert!((0.0..=1.0).contains(&nn_acc));
    }

    #[test]
    fn svm_training_error_is_fraction() {
        let d = to_dataset(&labeled());
        let e = svm_training_error(&d, SvmParams::default());
        assert!((0.0..=1.0).contains(&e));
    }
}
