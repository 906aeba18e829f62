//! The serving determinism contract: batched answers are bit-identical
//! at any `LOOPML_THREADS`.

use loopml::PipelineBuilder;
use loopml_corpus::SuiteConfig;
use loopml_ml::{MulticlassSvm, SvmParams};
use loopml_rt::with_threads;
use loopml_serve::ServeModel;

#[test]
fn served_batches_are_bit_identical_at_any_thread_count() {
    let p = PipelineBuilder::paper()
        .suite_config(SuiteConfig {
            min_loops: 8,
            max_loops: 10,
            ..SuiteConfig::default()
        })
        .take_benchmarks(4)
        .exact()
        .build();
    let loops: Vec<loopml_ir::Loop> = p
        .suite
        .iter()
        .flat_map(|b| b.loops.iter().map(|w| w.body.clone()))
        .collect();
    let artifact = p.train_artifact("SVM", Box::new(MulticlassSvm::new(SvmParams::default())));
    let model = ServeModel::from_artifact(artifact).expect("reconstruct");

    let answers: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|threads| with_threads(threads, || model.choose_loops(&loops)))
        .collect();
    assert_eq!(answers[0], answers[1], "1 vs 2 threads diverged");
    assert_eq!(answers[0], answers[2], "1 vs 4 threads diverged");
}
