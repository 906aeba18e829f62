//! End-to-end serving equivalence: a daemon loop over a trained
//! artifact must answer exactly what the in-process heuristic answers.

use loopml::{PipelineBuilder, UnrollHeuristic};
use loopml_corpus::SuiteConfig;
use loopml_ir::Loop;
use loopml_ml::{
    BaggedForest, DecisionTree, ForestParams, Mlp, MlpParams, MulticlassSvm, NearNeighbors,
    SvmParams, TreeParams, DEFAULT_RADIUS,
};
use loopml_rt::Json;
use loopml_serve::{serve_lines_with, Request, Response, ServeModel, ServeOptions};

fn quick_pipeline() -> loopml::Pipeline {
    PipelineBuilder::paper()
        .suite_config(SuiteConfig {
            min_loops: 8,
            max_loops: 10,
            ..SuiteConfig::default()
        })
        .take_benchmarks(4)
        .exact()
        .build()
}

fn all_loops(p: &loopml::Pipeline) -> Vec<Loop> {
    p.suite
        .iter()
        .flat_map(|b| b.loops.iter().map(|w| w.body.clone()))
        .collect()
}

#[test]
fn served_predictions_match_the_in_process_heuristic() {
    let p = quick_pipeline();
    let loops = all_loops(&p);
    for (name, classifier) in [
        (
            "NN",
            Box::new(NearNeighbors::new(DEFAULT_RADIUS)) as Box<dyn loopml_ml::Classifier>,
        ),
        ("SVM", Box::new(MulticlassSvm::new(SvmParams::default()))),
        ("ORC", Box::new(loopml::OrcClassifier)),
        ("Tree", Box::new(DecisionTree::new(TreeParams::default()))),
        (
            "Forest",
            Box::new(BaggedForest::new(ForestParams::default())),
        ),
        ("MLP", Box::new(Mlp::new(MlpParams::default()))),
    ] {
        let artifact = p.train_artifact(name, classifier);
        let model = ServeModel::from_artifact(artifact).expect("reconstruct");
        let direct = model.heuristic();
        let batched = model.choose_loops(&loops);
        for (l, &factor) in loops.iter().zip(&batched) {
            assert_eq!(factor, direct.choose(l), "{name} diverged on {}", l.name);
        }
    }
}

#[test]
fn line_daemon_round_trips_loops_and_features() {
    let p = quick_pipeline();
    let loops = all_loops(&p);
    let artifact = p.train_artifact("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
    let model = ServeModel::from_artifact(artifact).expect("reconstruct");

    // Two loop batches, one projected-feature batch, one garbage line.
    let mid = loops.len() / 2;
    let mut input = String::new();
    for (i, chunk) in [&loops[..mid], &loops[mid..]].iter().enumerate() {
        let req = Request::Loops {
            id: Json::Num(i as f64),
            loops: chunk.to_vec(),
        };
        input.push_str(&req.to_json().to_string());
        input.push('\n');
    }
    let rows: Vec<Vec<f64>> = loops.iter().map(loopml::extract).collect();
    input.push_str(
        &Request::Features {
            id: Json::Num(2.0),
            rows,
        }
        .to_json()
        .to_string(),
    );
    input.push_str("\nnot json at all\n\n");

    let mut output = Vec::new();
    let stats = serve_lines_with(
        &model,
        &ServeOptions::from_env(),
        input.as_bytes(),
        &mut output,
    )
    .expect("serve");
    assert_eq!(stats.batches, 4);

    let text = String::from_utf8(output).unwrap();
    let responses: Vec<Response> = text
        .lines()
        .map(|l| Response::from_json(&Json::parse(l).unwrap()).unwrap())
        .collect();
    assert_eq!(responses.len(), 4);

    // Loop batches: identical to LearnedHeuristic::choose.
    let want: Vec<u32> = loops.iter().map(|l| model.heuristic().choose(l)).collect();
    let (got0, got1) = match (&responses[0], &responses[1]) {
        (Response::Factors { factors: a, .. }, Response::Factors { factors: b, .. }) => {
            (a.clone(), b.clone())
        }
        other => panic!("expected factors, got {other:?}"),
    };
    let got: Vec<u32> = got0.into_iter().chain(got1).collect();
    assert_eq!(got, want);

    // Feature batch: full 38-dim rows, projected server-side. Raw rows
    // carry no unrollability bit, so only compare on unrollable loops.
    match &responses[2] {
        Response::Factors { id, factors } => {
            assert_eq!(id, &Json::Num(2.0));
            assert_eq!(factors.len(), loops.len());
            for ((l, &f), &w) in loops.iter().zip(factors).zip(&want) {
                if l.is_unrollable() {
                    assert_eq!(f, w, "feature path diverged on {}", l.name);
                }
            }
        }
        other => panic!("expected factors, got {other:?}"),
    }

    // The garbage line got an error answer, and the daemon kept going.
    assert!(matches!(&responses[3], Response::Error { .. }));
}

#[test]
fn wrong_dimension_features_answer_an_error_not_a_crash() {
    let p = quick_pipeline();
    let artifact = p.train_artifact("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
    let model = ServeModel::from_artifact(artifact).expect("reconstruct");
    let req = Request::Features {
        id: Json::Num(9.0),
        rows: vec![vec![1.0, 2.0, 3.0]],
    };
    let input = format!("{}\n", req.to_json());
    let mut output = Vec::new();
    serve_lines_with(
        &model,
        &ServeOptions::from_env(),
        input.as_bytes(),
        &mut output,
    )
    .expect("serve");
    let text = String::from_utf8(output).unwrap();
    let resp = Response::from_json(&Json::parse(text.trim()).unwrap()).unwrap();
    match resp {
        Response::Error { id, code, message } => {
            assert_eq!(id, Json::Num(9.0));
            assert_eq!(code.as_deref(), Some(loopml_serve::code::PREDICT));
            assert!(message.contains("feature row"), "{message}");
        }
        other => panic!("expected an error answer, got {other:?}"),
    }
}
