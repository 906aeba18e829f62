//! One-call pipeline assembly: corpus → label → feature-select → train
//! → evaluate, with the paper's defaults baked in.
//!
//! [`PipelineBuilder`] replaces the hand-wired sequence of
//! `full_suite` / `label_suite` / `to_dataset` / `informative_features`
//! / classifier training that every example and experiment used to
//! repeat. The finished [`Pipeline`] owns the suite, the labeled loops
//! and both datasets, and turns any [`Classifier`] into a deployable
//! [`LearnedHeuristic`] with one call.
//!
//! ```
//! use loopml::PipelineBuilder;
//! use loopml_corpus::SuiteConfig;
//! use loopml_ml::{NearNeighbors, DEFAULT_RADIUS};
//!
//! let pipeline = PipelineBuilder::paper()
//!     .suite_config(SuiteConfig { min_loops: 8, max_loops: 10, ..SuiteConfig::default() })
//!     .take_benchmarks(6)
//!     .build();
//! let nn = pipeline.heuristic("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
//! assert_eq!(loopml::UnrollHeuristic::name(&nn), "NN");
//! ```

use loopml_corpus::{full_suite, SuiteConfig};
use loopml_ir::Benchmark;
use loopml_machine::SwpMode;
use loopml_ml::{
    Classifier, CvResult, Dataset, ForestParams, MlpParams, SvmParams, SweepConfig, SweepReport,
    TreeParams, DEFAULT_RADIUS,
};
use loopml_rt::FaultPlane;

use crate::artifact::{model_fingerprint, ModelArtifact};
use crate::evaluate::EvalConfig;
use crate::fault::DegradationReport;
use crate::heuristics::LearnedHeuristic;
use crate::label::{fail_on_crash, label_suite_resilient, LabelConfig, LabelRun, LabeledLoop};
use crate::pipeline::{benchmark_groups, informative_features, to_dataset};

/// Builds a [`Pipeline`] from the paper's defaults, with every stage
/// overridable.
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    suite_config: SuiteConfig,
    swp: SwpMode,
    label_config: Option<LabelConfig>,
    eval_config: Option<EvalConfig>,
    feature_count: Option<usize>,
    suite: Option<Vec<Benchmark>>,
    take: Option<usize>,
    tune: Option<SweepConfig>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder::paper()
    }
}

impl PipelineBuilder {
    /// The paper's configuration: the full 72-benchmark corpus, labeling
    /// with measurement noise, software pipelining disabled (Figure 4's
    /// regime), and the §7 informative feature subset (top 5 by mutual
    /// information ∪ top 5 by greedy selection).
    pub fn paper() -> Self {
        PipelineBuilder {
            suite_config: SuiteConfig::default(),
            swp: SwpMode::Disabled,
            label_config: None,
            eval_config: None,
            feature_count: Some(5),
            suite: None,
            take: None,
            tune: None,
        }
    }

    /// Runs this LOGO sweep during [`build`](Self::build) (see
    /// [`loopml_ml::sweep`]); [`Pipeline::svm_params`],
    /// [`Pipeline::nn_radius`], [`Pipeline::tree_params`],
    /// [`Pipeline::forest_params`] and [`Pipeline::mlp_params`] then
    /// return each swept family's winner. A family whose grid is empty
    /// is not swept and keeps its defaults.
    pub fn tune(mut self, cfg: SweepConfig) -> Self {
        self.tune = Some(cfg);
        self
    }

    /// Sets the software pipelining regime (Figure 4: disabled; Figure
    /// 5: enabled). Applies to the default label and eval configs; an
    /// explicit [`label_config`](Self::label_config) wins.
    pub fn swp(mut self, swp: SwpMode) -> Self {
        self.swp = swp;
        self
    }

    /// Overrides the corpus synthesis configuration.
    pub fn suite_config(mut self, cfg: SuiteConfig) -> Self {
        self.suite_config = cfg;
        self
    }

    /// Uses a pre-built suite instead of synthesizing one.
    pub fn suite(mut self, suite: Vec<Benchmark>) -> Self {
        self.suite = Some(suite);
        self
    }

    /// Keeps only the first `n` benchmarks of the suite (small smoke
    /// runs).
    pub fn take_benchmarks(mut self, n: usize) -> Self {
        self.take = Some(n);
        self
    }

    /// Overrides the labeling configuration entirely.
    pub fn label_config(mut self, cfg: LabelConfig) -> Self {
        self.label_config = Some(cfg);
        self
    }

    /// Disables measurement noise in labeling and evaluation
    /// (deterministic-by-construction runs and tests).
    pub fn exact(mut self) -> Self {
        let mut lc = self
            .label_config
            .unwrap_or_else(|| LabelConfig::paper(self.swp));
        lc.noise = loopml_machine::NoiseModel::exact();
        self.label_config = Some(lc);
        self.eval_config = Some(EvalConfig::exact(self.swp));
        self
    }

    /// Trains on all 38 features, skipping feature selection.
    pub fn all_features(mut self) -> Self {
        self.feature_count = None;
        self
    }

    /// Synthesizes, labels, featurizes and selects. Labeling runs through
    /// [`label_suite_resilient`] under the environment's fault plane
    /// ([`FaultPlane::env_or_disabled`]), so injected faults (`LOOPML_FAULTS`) and non-finite measurements are
    /// retried and quarantined instead of crashing the build; the
    /// accounting lands in [`Pipeline::degradation`].
    ///
    /// # Panics
    ///
    /// Panics if a benchmark's labeling crashes without an injected
    /// fault (a bug, or a transform-validation deny under
    /// `LintLevel::Deny`), or if labeling produces no training examples
    /// (a corpus or filter misconfiguration).
    pub fn build(self) -> Pipeline {
        let mut suite = self.suite.unwrap_or_else(|| full_suite(&self.suite_config));
        if let Some(n) = self.take {
            suite.truncate(n);
        }
        let label_config = self
            .label_config
            .unwrap_or_else(|| LabelConfig::paper(self.swp));
        let eval_config = self
            .eval_config
            .unwrap_or_else(|| EvalConfig::paper(self.swp));
        let LabelRun {
            labeled,
            report: degradation,
            ..
        } = label_suite_resilient(&suite, &label_config, &FaultPlane::env_or_disabled());
        fail_on_crash(&degradation);
        if label_config.lint.is_enabled() {
            let mut lint = loopml_lint::Report::with_env_suppressions();
            lint.merge(loopml_lint::lint_quarantine(
                degradation.labeled,
                degradation.quarantined.len(),
            ));
            lint.enforce(label_config.lint, "labeling run");
        }
        assert!(
            !labeled.is_empty(),
            "labeling produced no training examples"
        );
        let full_dataset = to_dataset(&labeled);
        let feature_subset = self
            .feature_count
            .map(|k| informative_features(&full_dataset, k));
        let dataset = match &feature_subset {
            Some(cols) => full_dataset.select_features(cols),
            None => full_dataset.clone(),
        };
        let groups = benchmark_groups(&labeled);
        if label_config.lint.is_enabled() {
            let mut lint = loopml_lint::Report::with_env_suppressions();
            lint.merge(loopml_lint::lint_dataset(&full_dataset, Some(&groups)));
            lint.enforce(label_config.lint, "training dataset");
        }
        let sweep = self
            .tune
            .map(|cfg| loopml_ml::sweep(&dataset, &groups, &cfg));
        Pipeline {
            suite,
            labeled,
            full_dataset,
            dataset,
            feature_subset,
            groups,
            label_config,
            eval_config,
            degradation,
            sweep,
        }
    }
}

/// The assembled pipeline: everything downstream experiments need,
/// computed once.
#[derive(Debug)]
pub struct Pipeline {
    /// The synthesized (or supplied) benchmark suite.
    pub suite: Vec<Benchmark>,
    /// Labeled loops that survived the paper's filters.
    pub labeled: Vec<LabeledLoop>,
    /// Dataset over all 38 features.
    pub full_dataset: Dataset,
    /// Training dataset (projected onto the informative subset, or the
    /// full 38 features).
    pub dataset: Dataset,
    /// Columns of the informative subset, `None` when training on all
    /// features.
    pub feature_subset: Option<Vec<usize>>,
    /// Benchmark index of each example (leave-one-benchmark-out groups).
    pub groups: Vec<usize>,
    /// The labeling configuration used.
    pub label_config: LabelConfig,
    /// The evaluation configuration for whole-benchmark measurements.
    pub eval_config: EvalConfig,
    /// What labeling retried and quarantined (empty on a clean run).
    pub degradation: DegradationReport,
    /// The hyperparameter sweep report when the builder was asked to
    /// tune ([`PipelineBuilder::tune`]); `None` means paper defaults
    /// throughout.
    pub sweep: Option<SweepReport>,
}

impl Pipeline {
    /// Number of labeled examples.
    pub fn len(&self) -> usize {
        self.labeled.len()
    }

    /// `true` if no loops survived labeling (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.labeled.is_empty()
    }

    /// Fits `classifier` on the training dataset and deploys it as a
    /// compile-time heuristic over the matching feature projection.
    pub fn heuristic(
        &self,
        name: impl Into<String>,
        classifier: Box<dyn Classifier>,
    ) -> LearnedHeuristic {
        LearnedHeuristic::fit(name, self.feature_subset.clone(), classifier, &self.dataset)
    }

    /// Like [`heuristic`](Self::heuristic), but excludes benchmark
    /// `held_out` from training — the Figure 4/5 protocol: when
    /// compiling a benchmark, none of its loops may appear in the
    /// training set.
    pub fn heuristic_excluding(
        &self,
        name: impl Into<String>,
        classifier: Box<dyn Classifier>,
        held_out: usize,
    ) -> LearnedHeuristic {
        let drop: Vec<bool> = self.groups.iter().map(|&g| g == held_out).collect();
        let train = self.dataset.without_examples(&drop);
        LearnedHeuristic::fit(name, self.feature_subset.clone(), classifier, &train)
    }

    /// Leave-one-out cross validation of `classifier` (an unfitted
    /// prototype; each fold trains a fresh copy, in parallel) on the
    /// training dataset.
    pub fn loocv(&self, classifier: &dyn Classifier) -> CvResult {
        loopml_ml::loocv(&self.dataset, classifier)
    }

    /// SVM hyperparameters downstream training should use: the sweep
    /// winner when the builder tuned (and actually swept a non-empty
    /// grid), the paper defaults otherwise.
    pub fn svm_params(&self) -> SvmParams {
        match &self.sweep {
            Some(s) if !s.svm_cells.is_empty() => s.selected_svm,
            _ => SvmParams::default(),
        }
    }

    /// NN neighborhood radius downstream training should use: the sweep
    /// winner when the builder tuned (and swept at least one radius),
    /// the paper's [`DEFAULT_RADIUS`] otherwise.
    pub fn nn_radius(&self) -> f64 {
        match &self.sweep {
            Some(s) if !s.nn_cells.is_empty() => s.selected_radius,
            _ => DEFAULT_RADIUS,
        }
    }

    /// Decision-tree hyperparameters downstream training should use:
    /// the sweep winner when the builder tuned the tree grid, the
    /// defaults otherwise.
    pub fn tree_params(&self) -> TreeParams {
        match &self.sweep {
            Some(s) if !s.tree_cells.is_empty() => s.selected_tree,
            _ => TreeParams::default(),
        }
    }

    /// Bagged-forest hyperparameters downstream training should use:
    /// the sweep winner when the builder tuned the ensemble sizes, the
    /// defaults otherwise.
    pub fn forest_params(&self) -> ForestParams {
        match &self.sweep {
            Some(s) if !s.forest_cells.is_empty() => s.selected_forest,
            _ => ForestParams::default(),
        }
    }

    /// MLP hyperparameters downstream training should use: the sweep
    /// winner when the builder tuned the width × learning-rate grid,
    /// the defaults otherwise.
    pub fn mlp_params(&self) -> MlpParams {
        match &self.sweep {
            Some(s) if !s.mlp_cells.is_empty() => s.selected_mlp,
            _ => MlpParams::default(),
        }
    }

    /// Fingerprint of the training corpus this pipeline was built from
    /// (every feature bit and label of the full 38-feature dataset).
    pub fn dataset_fingerprint(&self) -> u64 {
        crate::artifact::dataset_fingerprint(&self.full_dataset)
    }

    /// Subset a model of `kind` serves behind: the ORC baseline is a
    /// stateless function of the *full* 38-feature vector (its column
    /// indices are part of the heuristic's definition), so it carries
    /// no projection; trained models see the pipeline's subset.
    fn artifact_subset(&self, kind: Option<&str>) -> Option<Vec<usize>> {
        if kind == Some("ORC") {
            None
        } else {
            self.feature_subset.clone()
        }
    }

    /// Trains `classifier` exactly as [`heuristic`](Self::heuristic)
    /// would and packages it as a versioned, fingerprinted
    /// [`ModelArtifact`] ready to [`write`](ModelArtifact::write) to
    /// disk and serve.
    pub fn train_artifact(
        &self,
        name: impl Into<String>,
        classifier: Box<dyn Classifier>,
    ) -> ModelArtifact {
        let name = name.into();
        let kind = classifier.save();
        let subset = self.artifact_subset(kind.get("kind").and_then(loopml_rt::Json::as_str));
        let h = match &subset {
            Some(_) => self.heuristic(name.clone(), classifier),
            // No projection: train (a no-op for ORC) on all 38 features.
            None => LearnedHeuristic::fit(name.clone(), None, classifier, &self.full_dataset),
        };
        let state = h.classifier().save();
        let fingerprint = model_fingerprint(self.dataset_fingerprint(), subset.as_deref(), &state);
        ModelArtifact::new(name, subset, fingerprint, state)
    }

    /// Reconstructs the deployable heuristic from an artifact, first
    /// verifying that the artifact's fingerprint matches what *this*
    /// pipeline would stamp — i.e. the artifact was trained under this
    /// corpus, feature subset, and the recorded hyperparameters. A
    /// stale artifact is a loud error, never a silently wrong model.
    pub fn load_artifact(&self, artifact: &ModelArtifact) -> Result<LearnedHeuristic, String> {
        let subset = self.artifact_subset(Some(artifact.kind()));
        let expect = model_fingerprint(
            self.dataset_fingerprint(),
            subset.as_deref(),
            artifact.state(),
        );
        if expect != artifact.fingerprint {
            return Err(format!(
                "artifact fingerprint {:#018x} does not match this pipeline's {expect:#018x}: \
                 it was trained under a different corpus, feature subset, or hyperparameters",
                artifact.fingerprint
            ));
        }
        artifact.to_heuristic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::UnrollHeuristic;
    use loopml_ml::{
        Constant, ForestGrid, MlpGrid, NearNeighbors, SvmGrid, TreeGrid, DEFAULT_RADIUS,
    };

    /// A sweep over only the given SVM grid and NN radii: every other
    /// family's grid is empty.
    fn tune_svm_nn(svm: SvmGrid, radii: Vec<f64>) -> SweepConfig {
        SweepConfig {
            svm,
            radii,
            tree: TreeGrid {
                max_depths: vec![],
                min_leafs: vec![],
            },
            forest: ForestGrid {
                sizes: vec![],
                ..ForestGrid::default()
            },
            mlp: MlpGrid {
                hiddens: vec![],
                lrs: vec![],
                ..MlpGrid::default()
            },
        }
    }

    fn quick() -> PipelineBuilder {
        PipelineBuilder::paper()
            .suite_config(SuiteConfig {
                min_loops: 8,
                max_loops: 10,
                ..SuiteConfig::default()
            })
            .take_benchmarks(4)
    }

    #[test]
    fn paper_defaults_build_a_training_set() {
        let p = quick().build();
        assert_eq!(p.suite.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.full_dataset.dims(), crate::features::NUM_FEATURES);
        assert!(p.dataset.dims() <= p.full_dataset.dims());
        assert_eq!(p.groups.len(), p.len());
        let subset = p.feature_subset.as_ref().expect("default selects features");
        assert_eq!(p.dataset.dims(), subset.len());
    }

    #[test]
    fn all_features_skips_selection() {
        let p = quick().all_features().build();
        assert!(p.feature_subset.is_none());
        assert_eq!(p.dataset.dims(), crate::features::NUM_FEATURES);
    }

    #[test]
    fn heuristic_trains_and_chooses() {
        let p = quick().exact().build();
        let nn = p.heuristic("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
        for w in &p.suite[0].loops {
            assert!((1..=8).contains(&nn.choose(&w.body)));
        }
    }

    #[test]
    fn heuristic_excluding_never_sees_the_held_out_benchmark() {
        let p = quick().exact().build();
        // Training on everything-but-0 must use exactly the non-0 rows.
        let n_excluded = p.groups.iter().filter(|&&g| g == 0).count();
        assert!(n_excluded > 0, "benchmark 0 contributed no examples");
        let h = p.heuristic_excluding("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)), 0);
        assert_eq!(UnrollHeuristic::name(&h), "NN");
    }

    #[test]
    fn loocv_runs_any_classifier() {
        let p = quick().exact().build();
        let cv = p.loocv(&Constant::new(0));
        assert_eq!(cv.predictions.len(), p.len());
        assert!((0.0..=1.0).contains(&cv.accuracy));
    }

    #[test]
    fn exact_builds_are_reproducible() {
        let a = quick().exact().build();
        let b = quick().exact().build();
        assert_eq!(a.labeled, b.labeled);
        assert_eq!(a.feature_subset, b.feature_subset);
    }

    #[test]
    fn untuned_pipeline_uses_paper_defaults() {
        let p = quick().exact().build();
        assert!(p.sweep.is_none());
        assert_eq!(p.svm_params(), SvmParams::default());
        assert_eq!(p.nn_radius(), DEFAULT_RADIUS);
    }

    #[test]
    fn tuned_pipeline_consumes_the_sweep_winner() {
        let grid = SvmGrid {
            gammas: vec![0.5, 2.0],
            cs: vec![1.0, 10.0],
            ..SvmGrid::default()
        };
        let radii = vec![0.2, 0.3, 0.5, 0.8];
        let p = quick()
            .exact()
            .tune(tune_svm_nn(grid.clone(), radii.clone()))
            .build();
        let sweep = p.sweep.as_ref().expect("tuning ran");
        assert_eq!(sweep.svm_cells.len(), 4);
        assert_eq!(sweep.nn_cells.len(), 4);
        assert!(grid.gammas.contains(&p.svm_params().gamma));
        assert!(grid.cs.contains(&p.svm_params().c));
        assert!(radii.contains(&p.nn_radius()));
    }

    #[test]
    fn tuning_the_zoo_families_consumes_their_winners() {
        let p = quick()
            .exact()
            .tune(SweepConfig {
                svm: SvmGrid {
                    gammas: vec![],
                    cs: vec![],
                    ..SvmGrid::default()
                },
                radii: vec![],
                tree: TreeGrid {
                    max_depths: vec![2, 4],
                    min_leafs: vec![1],
                },
                forest: ForestGrid {
                    sizes: vec![4],
                    ..ForestGrid::default()
                },
                mlp: MlpGrid {
                    hiddens: vec![4],
                    lrs: vec![0.1],
                    ..MlpGrid::default()
                },
            })
            .build();
        let s = p.sweep.as_ref().expect("tuning ran");
        assert_eq!(s.tree_cells.len(), 2);
        assert_eq!(s.forest_cells.len(), 1);
        assert_eq!(s.mlp_cells.len(), 1);
        assert!(s.svm_cells.is_empty() && s.nn_cells.is_empty());
        assert!([2, 4].contains(&p.tree_params().max_depth));
        assert_eq!(p.forest_params().trees, 4);
        assert_eq!(p.mlp_params().hidden, 4);
        assert!(["tree", "forest", "mlp"].contains(&s.winner_family.as_str()));
        // The untuned families keep their paper defaults.
        assert_eq!(p.svm_params(), SvmParams::default());
        assert_eq!(p.nn_radius(), DEFAULT_RADIUS);
    }

    #[test]
    fn tuning_one_axis_keeps_the_other_at_defaults() {
        let no_svm = SvmGrid {
            gammas: vec![],
            cs: vec![],
            ..SvmGrid::default()
        };
        let p = quick()
            .exact()
            .tune(tune_svm_nn(no_svm, vec![0.2, 0.4]))
            .build();
        let sweep = p.sweep.as_ref().expect("tuning ran");
        assert!(sweep.svm_cells.is_empty());
        assert_eq!(p.svm_params(), SvmParams::default());
        assert!([0.2, 0.4].contains(&p.nn_radius()));
    }

    #[test]
    fn artifacts_round_trip_through_the_pipeline() {
        let p = quick().exact().build();
        let artifact = p.train_artifact("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
        assert_eq!(artifact.kind(), "NN");
        assert_eq!(artifact.feature_subset, p.feature_subset);
        // Through the serialized text, as a file would carry it.
        let text = artifact.to_json().to_string();
        let back = ModelArtifact::from_json(&loopml_rt::Json::parse(&text).unwrap()).unwrap();
        let loaded = p.load_artifact(&back).expect("fingerprint matches");
        let direct = p.heuristic("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
        for b in &p.suite {
            for w in &b.loops {
                assert_eq!(loaded.choose(&w.body), direct.choose(&w.body));
            }
        }
    }

    #[test]
    fn stale_artifact_is_rejected_loudly() {
        let p = quick().exact().build();
        let other = quick().take_benchmarks(3).exact().build();
        let stale = other.train_artifact("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
        let err = p.load_artifact(&stale).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        // Same pipeline, tampered hyperparameters: also rejected.
        let mut artifact = p.train_artifact("NN", Box::new(NearNeighbors::new(0.3)));
        let tampered =
            loopml_rt::Json::parse(&artifact.state().to_string().replace("0.3", "0.7")).unwrap();
        artifact = ModelArtifact::new(
            "NN",
            artifact.feature_subset.clone(),
            artifact.fingerprint,
            tampered,
        );
        assert!(p.load_artifact(&artifact).is_err());
    }

    #[test]
    #[should_panic(expected = "crashed")]
    fn uninjected_labeling_crash_fails_the_build() {
        let mut suite = full_suite(&SuiteConfig {
            min_loops: 8,
            max_loops: 10,
            ..SuiteConfig::default()
        });
        crate::label::break_first_latch(&mut suite[2]);
        let deny = LabelConfig {
            lint: loopml_lint::LintLevel::Deny,
            ..LabelConfig::paper(SwpMode::Disabled)
        };
        quick().suite(suite).label_config(deny).build();
    }

    #[test]
    fn clean_build_reports_no_quarantine() {
        let p = quick().build();
        let report = &p.degradation;
        assert!(report.quarantined.is_empty());
        assert!(report.fault_sites.is_empty());
        assert_eq!(report.completed, p.suite.len());
        assert_eq!(report.labeled, p.len());
    }
}
