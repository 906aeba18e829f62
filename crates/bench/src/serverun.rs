//! `repro train` / `repro serve-bench` — the prediction-as-a-service
//! measurement surface.
//!
//! `repro train` builds the training pipeline, trains one classifier
//! (`--model nn|svm|orc|tree|forest|mlp`, optionally
//! hyperparameter-tuned with `--tune`), and writes the versioned,
//! fingerprinted model artifact (`MODEL_ml.json` by default) that
//! `loopml-serve` loads.
//!
//! `repro serve-bench` rebuilds the *same* pipeline, loads the artifact
//! back through the fingerprint check (a stale artifact is a loud
//! [`EXIT_FAIL`](crate::cli::EXIT_FAIL), never a silently wrong model),
//! replays the whole suite through the in-process serving loop in
//! batches, and verifies every served factor against
//! [`LearnedHeuristic::choose`]. It does not time the replay: serving
//! throughput and latency are measured by perfbench's `serve` workload.
//! `--dump-requests`/`--dump-responses` write the exact line-protocol
//! traffic, which is how `scripts/check.sh` drives the `loopml-serve`
//! binary with identical input and diffs its answers.

use std::path::PathBuf;

use loopml::{LearnedHeuristic, ModelArtifact, Pipeline, UnrollHeuristic};
use loopml_ir::Loop;
use loopml_ml::{
    BaggedForest, Classifier, DecisionTree, Mlp, MulticlassSvm, NearNeighbors, SweepConfig,
};
use loopml_rt::Json;
use loopml_serve::{Request, Response, ServeModel, ServeOptions, ServeSession, SessionReply};

use crate::cli::Parsed;
use crate::cli::Scale;

/// Schema tag of the `repro serve-bench` stdout report.
pub const SERVE_BENCH_SCHEMA: &str = "loopml/serve-bench/v2";

/// Default artifact path shared by `train` and `serve-bench`.
pub const DEFAULT_ARTIFACT: &str = "MODEL_ml.json";

/// Loops per replayed batch when `--batch` is not given.
pub const DEFAULT_BATCH: usize = 32;

/// Builds the training pipeline for `scale`. `--smoke` cuts to the
/// first 8 benchmarks, mirroring `repro label --smoke`; `train` and
/// `serve-bench` must call this with the same arguments (including
/// `--corpus-scale`) or the artifact fingerprint will (correctly)
/// refuse to load.
pub fn pipeline_for(scale: Scale, corpus_scale: usize, smoke: bool, tune: bool) -> Pipeline {
    let mut b = scale.builder(corpus_scale);
    if smoke {
        b = b.take_benchmarks(8);
    }
    if tune {
        b = b.tune(SweepConfig::default());
    }
    b.build()
}

/// The classifier `--model` names, with hyperparameters taken from the
/// pipeline (i.e. the sweep winner when it tuned, paper defaults
/// otherwise).
fn classifier_for_model(
    p: &Pipeline,
    model: &str,
) -> Result<(&'static str, Box<dyn Classifier>), String> {
    match model {
        "nn" => Ok(("NN", Box::new(NearNeighbors::new(p.nn_radius())))),
        "svm" => Ok(("SVM", Box::new(MulticlassSvm::new(p.svm_params())))),
        "orc" => Ok(("ORC", Box::new(loopml::OrcClassifier))),
        "tree" => Ok(("Tree", Box::new(DecisionTree::new(p.tree_params())))),
        "forest" => Ok(("Forest", Box::new(BaggedForest::new(p.forest_params())))),
        "mlp" => Ok(("MLP", Box::new(Mlp::new(p.mlp_params())))),
        other => Err(format!(
            "unknown --model {other} (expected nn, svm, orc, tree, forest, or mlp)"
        )),
    }
}

/// Parsed `repro train` options.
#[derive(Debug, Clone)]
pub struct TrainArgs {
    /// Corpus scale.
    pub scale: Scale,
    /// Corpus size multiplier (`--corpus-scale`).
    pub corpus_scale: usize,
    /// Smoke cut (first 8 benchmarks).
    pub smoke: bool,
    /// Which model to train (`nn`, `svm`, `orc`, `tree`, `forest`, or
    /// `mlp`).
    pub model: String,
    /// Run the LOGO hyperparameter sweep before training.
    pub tune: bool,
    /// Artifact output path.
    pub out: PathBuf,
}

impl TrainArgs {
    /// Lifts a [`Parsed`] `train` invocation into typed arguments.
    pub fn from_parsed(p: &Parsed) -> TrainArgs {
        TrainArgs {
            scale: p.scale,
            corpus_scale: p.corpus_scale,
            smoke: p.smoke,
            model: p.option("--model").unwrap_or("nn").to_string(),
            tune: p.has("--tune"),
            out: PathBuf::from(p.option("--out").unwrap_or(DEFAULT_ARTIFACT)),
        }
    }
}

/// Trains the requested model and writes its artifact. Prints a
/// one-line JSON summary on stdout.
pub fn run_train(args: &TrainArgs) -> Result<(), String> {
    eprintln!(
        "[train] building pipeline ({:?}{})...",
        args.scale,
        if args.smoke { ", smoke" } else { "" }
    );
    let p = pipeline_for(args.scale, args.corpus_scale, args.smoke, args.tune);
    let (name, classifier) = classifier_for_model(&p, &args.model)?;
    eprintln!("[train] training {name} on {} labeled loops...", p.len());
    let artifact = p.train_artifact(name, classifier);
    artifact
        .write(&args.out)
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    let summary = Json::obj([
        ("schema", Json::Str("loopml/train/v1".into())),
        ("model", Json::Str(artifact.kind().into())),
        ("out", Json::Str(args.out.display().to_string())),
        (
            "fingerprint",
            Json::Str(format!("{:#018x}", artifact.fingerprint)),
        ),
        ("examples", Json::Num(p.len() as f64)),
        ("tuned", Json::Bool(args.tune)),
    ]);
    println!("{summary}");
    eprintln!(
        "[train] wrote {} ({} model, fingerprint {:#018x})",
        args.out.display(),
        artifact.kind(),
        artifact.fingerprint
    );
    Ok(())
}

/// Parsed `repro serve-bench` options.
#[derive(Debug, Clone)]
pub struct ServeBenchArgs {
    /// Corpus scale (must match the `train` run).
    pub scale: Scale,
    /// Corpus size multiplier (must match the `train` run).
    pub corpus_scale: usize,
    /// Smoke cut (must match the `train` run).
    pub smoke: bool,
    /// Artifact to load.
    pub artifact: PathBuf,
    /// Loops per replayed batch.
    pub batch: usize,
    /// Dump the line-protocol requests here (for driving the daemon).
    pub dump_requests: Option<PathBuf>,
    /// Dump the line-protocol responses here (for diffing the daemon).
    pub dump_responses: Option<PathBuf>,
}

impl ServeBenchArgs {
    /// Lifts a [`Parsed`] `serve-bench` invocation into typed arguments.
    pub fn from_parsed(p: &Parsed) -> Result<ServeBenchArgs, String> {
        let batch = match p.option("--batch") {
            None => DEFAULT_BATCH,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad --batch value: {v}")),
            },
        };
        Ok(ServeBenchArgs {
            scale: p.scale,
            corpus_scale: p.corpus_scale,
            smoke: p.smoke,
            artifact: PathBuf::from(p.option("--artifact").unwrap_or(DEFAULT_ARTIFACT)),
            batch,
            dump_requests: p.option("--dump-requests").map(PathBuf::from),
            dump_responses: p.option("--dump-responses").map(PathBuf::from),
        })
    }
}

/// Everything a replay produced: its volume plus the exact wire traffic
/// and the flattened served factors, for dumping and diffing.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Requests answered, resends included.
    pub batches: usize,
    /// Total predictions served.
    pub predictions: usize,
    /// The line-protocol request stream that was replayed.
    pub requests: String,
    /// The line-protocol response stream the model answered.
    pub responses: String,
    /// Served unroll factors, in suite order.
    pub served: Vec<u32>,
}

/// Replays `loops` through the in-process serving loop in batches of
/// `batch_size` and records the exact wire traffic. The serving session
/// is the exact state machine `loopml-serve` runs on its stdin, under
/// the same environment configuration (`LOOPML_FAULTS`,
/// `LOOPML_SERVE_*`) — so a chaos replay exercises the daemon's retry
/// path, and the dumped request stream (resends included) drives the
/// daemon binary to byte-identical responses.
///
/// Mirroring the labeling retry contract, a batch answered with the
/// retryable [`loopml_serve::code::FAULT`] error (in-daemon retry
/// budget exhausted) is resent with bounded deterministic backoff
/// (`2^attempt` ms, same budget as the session's); the resent request
/// draws fresh fault coins. A fault-free replay takes every batch on
/// attempt 0 and is bit-identical to the legacy single-pass replay.
pub fn replay_batches(
    model: &ServeModel,
    loops: &[Loop],
    batch_size: usize,
) -> Result<ReplayOutcome, String> {
    replay_batches_with(model, &ServeOptions::from_env(), loops, batch_size)
}

/// [`replay_batches`] under an explicit configuration instead of the
/// environment's (chaos tests pass a [`loopml_rt::FaultPlane`] directly
/// so they cannot race other tests on process-global state).
pub fn replay_batches_with(
    model: &ServeModel,
    opts: &ServeOptions,
    loops: &[Loop],
    batch_size: usize,
) -> Result<ReplayOutcome, String> {
    assert!(batch_size >= 1, "batch_size must be at least 1");
    let resend_budget = opts.retry_budget;
    let mut session = ServeSession::new(model, opts.clone());
    let mut requests = String::new();
    let mut responses = String::new();
    let mut served = Vec::with_capacity(loops.len());
    for (i, chunk) in loops.chunks(batch_size).enumerate() {
        let line = Request::Loops {
            id: Json::Num(i as f64),
            loops: chunk.to_vec(),
        }
        .to_json()
        .to_string();
        let mut attempt = 0u32;
        loop {
            requests.push_str(&line);
            requests.push('\n');
            let reply = session
                .answer_line(&line)
                .expect("a request line is never blank");
            let response = match reply {
                SessionReply::Answer(r) => r,
                other => return Err(format!("batch {i} answered a control reply: {other:?}")),
            };
            responses.push_str(&response.to_json().to_string());
            responses.push('\n');
            match response {
                Response::Factors { factors, .. } => {
                    served.extend(factors);
                    break;
                }
                Response::Error { id, code, message } => {
                    if code.as_deref() == Some(loopml_serve::code::FAULT) && attempt < resend_budget
                    {
                        attempt += 1;
                        // Bounded deterministic backoff, mirroring the
                        // labeling retry contract: 2, 4, 8... ms.
                        std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                        continue;
                    }
                    return Err(format!("batch {id} answered an error: {message}"));
                }
            }
        }
    }
    let stats = session.into_stats();
    Ok(ReplayOutcome {
        batches: stats.batches,
        predictions: stats.predictions,
        requests,
        responses,
        served,
    })
}

fn all_loops(p: &Pipeline) -> Vec<Loop> {
    p.suite
        .iter()
        .flat_map(|b| b.loops.iter().map(|w| w.body.clone()))
        .collect()
}

/// Loads the artifact through the fingerprint check, replays the whole
/// suite through the serving loop, verifies bit-identity against the
/// in-process heuristic, and prints the replay report on stdout.
pub fn run_serve_bench(args: &ServeBenchArgs) -> Result<(), String> {
    eprintln!(
        "[serve-bench] building pipeline ({:?}{})...",
        args.scale,
        if args.smoke { ", smoke" } else { "" }
    );
    let p = pipeline_for(args.scale, args.corpus_scale, args.smoke, false);
    let artifact = ModelArtifact::read(&args.artifact)?;
    // The loud staleness gate: the artifact must have been trained under
    // this exact corpus, feature subset, and hyperparameters.
    let verified: LearnedHeuristic = p.load_artifact(&artifact)?;
    let model = ServeModel::from_artifact(artifact)?;
    let loops = all_loops(&p);
    eprintln!(
        "[serve-bench] replaying {} loops in batches of {} through {} ({})...",
        loops.len(),
        args.batch,
        model.name(),
        model.artifact().kind()
    );
    let outcome = replay_batches(&model, &loops, args.batch)?;
    if let Some(path) = &args.dump_requests {
        std::fs::write(path, &outcome.requests)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &args.dump_responses {
        std::fs::write(path, &outcome.responses)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let want: Vec<u32> = loops.iter().map(|l| verified.choose(l)).collect();
    if outcome.served != want {
        return Err(format!(
            "served predictions diverged from the in-process heuristic on {} of {} loops",
            outcome
                .served
                .iter()
                .zip(&want)
                .filter(|(a, b)| a != b)
                .count(),
            want.len()
        ));
    }
    let report = Json::obj([
        ("schema", Json::Str(SERVE_BENCH_SCHEMA.into())),
        ("model", Json::Str(model.artifact().kind().into())),
        ("batches", Json::Num(outcome.batches as f64)),
        ("batch_size", Json::Num(args.batch as f64)),
        ("predictions", Json::Num(outcome.predictions as f64)),
        ("matched", Json::Bool(true)),
    ]);
    println!("{report}");
    eprintln!(
        "[serve-bench] {} predictions in {} batches, all bit-identical to the in-process heuristic",
        outcome.predictions, outcome.batches
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ml::DEFAULT_RADIUS;

    #[test]
    fn train_and_serve_bench_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("loopml_servebench_{}", std::process::id()));
        let out = dir.join("model.json");
        let train = TrainArgs {
            scale: Scale::Quick,
            corpus_scale: 1,
            smoke: true,
            model: "nn".into(),
            tune: false,
            out: out.clone(),
        };
        run_train(&train).expect("train");

        let bench = ServeBenchArgs {
            scale: Scale::Quick,
            corpus_scale: 1,
            smoke: true,
            artifact: out,
            batch: 16,
            dump_requests: Some(dir.join("req.jsonl")),
            dump_responses: Some(dir.join("resp.jsonl")),
        };
        run_serve_bench(&bench).expect("serve-bench");
        let req = std::fs::read_to_string(dir.join("req.jsonl")).unwrap();
        let resp = std::fs::read_to_string(dir.join("resp.jsonl")).unwrap();
        assert_eq!(req.lines().count(), resp.lines().count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_is_bit_identical_to_choose_for_every_model() {
        let p = pipeline_for(Scale::Quick, 1, true, false);
        let loops = all_loops(&p);
        for model in ["nn", "orc", "tree", "forest", "mlp"] {
            let (name, classifier) = classifier_for_model(&p, model).expect("known model");
            let model =
                ServeModel::from_artifact(p.train_artifact(name, classifier)).expect("model");
            let outcome = replay_batches(&model, &loops, 8).expect("replay");
            let want: Vec<u32> = loops.iter().map(|l| model.heuristic().choose(l)).collect();
            assert_eq!(outcome.served, want, "{name} diverged");
            assert_eq!(outcome.predictions, loops.len());
            assert_eq!(outcome.batches, loops.len().div_ceil(8));
        }
    }

    #[test]
    fn chaos_replay_retries_exhausted_batches_and_stays_bit_identical() {
        use loopml_rt::fault::site;
        use loopml_rt::FaultPlane;
        let p = pipeline_for(Scale::Quick, 1, true, false);
        let loops = all_loops(&p);
        let model = ServeModel::from_artifact(
            p.train_artifact("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS))),
        )
        .expect("model");
        let want: Vec<u32> = loops.iter().map(|l| model.heuristic().choose(l)).collect();
        let clean =
            replay_batches_with(&model, &ServeOptions::quiet(), &loops, 8).expect("clean replay");
        assert_eq!(clean.served, want);

        // A fault rate high enough to exhaust the in-daemon budget on
        // some batch: the replay layer must resend (visible as extra
        // dumped request lines) and the recovered run must still answer
        // bit-identically. The plane is deterministic, so scan seeds
        // until one produces a successful resend.
        let mut resent = false;
        for seed in 0..200u64 {
            let opts = ServeOptions {
                faults: FaultPlane::new(seed, 0.7).at_site(site::SERVE_PREDICT),
                retry_budget: 1,
                ..ServeOptions::default()
            };
            let Ok(outcome) = replay_batches_with(&model, &opts, &loops, 8) else {
                continue;
            };
            assert_eq!(outcome.served, want, "seed {seed}: chaos replay diverged");
            if outcome.requests.lines().count() > clean.requests.lines().count() {
                resent = true;
                break;
            }
        }
        assert!(
            resent,
            "no seed exercised the resend path; retune the rates"
        );
    }

    #[test]
    fn stale_artifact_fails_the_bench_loudly() {
        let dir = std::env::temp_dir().join(format!("loopml_stale_{}", std::process::id()));
        let out = dir.join("model.json");
        run_train(&TrainArgs {
            scale: Scale::Quick,
            corpus_scale: 1,
            smoke: true,
            model: "nn".into(),
            tune: false,
            out: out.clone(),
        })
        .expect("train");
        // Same scale but no smoke cut: a different corpus, so the
        // fingerprint must refuse.
        let err = run_serve_bench(&ServeBenchArgs {
            scale: Scale::Quick,
            corpus_scale: 1,
            smoke: false,
            artifact: out,
            batch: 8,
            dump_requests: None,
            dump_responses: None,
        })
        .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
