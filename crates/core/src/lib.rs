//! # loopml — predicting unroll factors using supervised classification
//!
//! A production-quality Rust reproduction of *Stephenson & Amarasinghe,
//! "Predicting Unroll Factors Using Supervised Classification", CGO
//! 2005*. This crate is the top of the stack: it combines the compiler
//! substrate ([`loopml_ir`], [`loopml_opt`]), the Itanium-2-flavoured
//! machine model ([`loopml_machine`]), the synthetic training corpus
//! ([`loopml_corpus`]) and the learning algorithms ([`loopml_ml`]) into
//! the paper's methodology:
//!
//! 1. [`features::extract`] — 38 static loop features (Table 1);
//! 2. [`label::label_suite`] — measure every loop at unroll factors
//!    1..=8 through the noisy-measurement model, filter, and label;
//! 3. [`pipeline::to_dataset`] + [`loopml_ml`] — train NN / SVM
//!    classifiers and evaluate with leave-one-out cross validation;
//! 4. [`heuristics`] — deploy classifiers as compile-time heuristics
//!    next to the hand-written ORC-style baselines;
//! 5. [`evaluate`] — realize whole-benchmark speedups (Figures 4/5).
//!
//! Labeling and evaluation are deterministic *and* parallel: every
//! measurement-noise stream is seeded per loop, so labeling produces
//! bit-identical results at any worker count (see `crates/rt`). Any
//! model implementing the object-safe [`loopml_ml::Classifier`] trait
//! plugs into the pipeline unchanged.
//!
//! There is one labeling engine, in-process and fault-tolerant:
//! [`label::label_suite_resilient`] retries transient failures under
//! fresh deterministic seeds, quarantines work that exhausts its budget
//! (reported via [`fault::DegradationReport`]), and withstands the
//! deterministic chaos of [`loopml_rt::FaultPlane`] (`LOOPML_FAULTS`).
//! [`label::label_suite`] is its fault-free view, and
//! [`PipelineBuilder`] labels through it with the environment's fault
//! plane; both fail fast on a benchmark crash that no fault injected.
//!
//! # Examples
//!
//! Assemble the pipeline with [`PipelineBuilder`] and deploy a trained
//! classifier as a compile-time heuristic:
//!
//! ```
//! use loopml::{PipelineBuilder, UnrollHeuristic};
//! use loopml_corpus::SuiteConfig;
//! use loopml_ml::{NearNeighbors, DEFAULT_RADIUS};
//!
//! let pipeline = PipelineBuilder::paper()
//!     .suite_config(SuiteConfig { min_loops: 12, max_loops: 14, ..SuiteConfig::default() })
//!     .take_benchmarks(4)
//!     .exact()
//!     .all_features()
//!     .build();
//! let nn = pipeline.heuristic("nn", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
//! let factor = nn.choose(&pipeline.suite[0].loops[0].body);
//! assert!((1..=8).contains(&factor));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod builder;
pub mod evaluate;
pub mod fault;
pub mod features;
pub mod heuristics;
pub mod label;
pub mod pipeline;

pub use artifact::{
    classifier_for_kind, dataset_fingerprint, model_fingerprint, ModelArtifact, MODEL_SCHEMA,
};
pub use builder::{Pipeline, PipelineBuilder};
pub use evaluate::{
    improvement, measure_benchmark, measure_oracle, oracle_choices, run_benchmark, EvalConfig,
};
pub use fault::{
    BenchmarkOutcome, DegradationReport, LabelError, QuarantineEntry, QuarantineScope,
    DEGRADATION_SCHEMA,
};
pub use features::{extract, FEATURE_NAMES, NUM_FEATURES};
pub use heuristics::{
    LearnedHeuristic, OrcClassifier, OrcHeuristic, OrcSwpHeuristic, UnrollHeuristic,
};
pub use label::{
    attempt_seed, hot_footprint, label_benchmark, label_suite, label_suite_resilient, LabelConfig,
    LabelRun, LabeledLoop, MAX_UNROLL, RETRY_BUDGET,
};
pub use pipeline::{
    benchmark_groups, informative_features, loocv_accuracy, svm_training_error, to_dataset,
};
