//! Production-hardening guarantees of the serving loop: admission
//! limits answer structured errors and resync the transport, panics in
//! prediction are isolated per request, injected chaos is retried to
//! byte-identical answers, and the graceful drain flushes a validated
//! serve-stats document.

use loopml::{dataset_fingerprint, model_fingerprint, ModelArtifact};
use loopml_ml::{Classifier, Dataset, NearNeighbors};
use loopml_rt::fault::site;
use loopml_rt::{with_threads, FaultPlane, Json};
use loopml_serve::{
    code, serve_lines_with, validate_serve_stats, Request, Response, ServeLimits, ServeModel,
    ServeOptions,
};

/// A tiny NN model trained on 4 hand-written 2-feature examples —
/// enough to serve real predictions without building a corpus. With
/// `subset = Some([0, 1])` it accepts 2-value (projected) rows; with
/// `subset = None` the admission layer expects 38-feature rows the
/// 2-feature classifier cannot score, which is the genuine-panic vector
/// the isolation test exploits.
fn toy_model(subset: Option<Vec<usize>>) -> ServeModel {
    ServeModel::from_artifact(toy_artifact(subset)).expect("reconstruct")
}

/// The artifact behind [`toy_model`], before it becomes a model.
fn toy_artifact(subset: Option<Vec<usize>>) -> ModelArtifact {
    let data = Dataset::new(
        vec![
            vec![0.0, 1.0],
            vec![0.2, 0.9],
            vec![5.0, -2.0],
            vec![5.2, -2.2],
        ],
        vec![0, 0, 1, 1],
        2,
        vec!["a".into(), "b".into()],
        (0..4).map(|i| format!("e{i}")).collect(),
    );
    let mut nn = NearNeighbors::new(0.45);
    Classifier::fit(&mut nn, &data);
    let state = Classifier::save(&nn);
    let fp = model_fingerprint(dataset_fingerprint(&data), subset.as_deref(), &state);
    ModelArtifact::new("NN", subset, fp, state)
}

fn feature_request(id: f64, rows: Vec<Vec<f64>>) -> String {
    Request::Features {
        id: Json::Num(id),
        rows,
    }
    .to_json()
    .to_string()
}

fn parse_response(line: &str) -> Response {
    Response::from_json(&Json::parse(line).expect("valid JSON")).expect("a response document")
}

fn error_code(line: &str) -> String {
    match parse_response(line) {
        Response::Error { code, .. } => code.expect("structured error code"),
        other => panic!("expected an error answer, got {other:?}"),
    }
}

#[test]
fn overlong_lines_answer_errors_and_the_drain_flushes_valid_stats() {
    let model = toy_model(Some(vec![0, 1]));
    let opts = ServeOptions {
        limits: ServeLimits {
            max_line: 64,
            ..ServeLimits::default()
        },
        ..ServeOptions::quiet()
    };
    let input = format!(
        "{}\n{}\n{}\n{}\nnever reached\n",
        "x".repeat(500),
        feature_request(7.0, vec![vec![5.0, -2.0]]),
        "{\"control\": \"ping\"}",
        "{\"control\": \"shutdown\"}",
    );
    let mut out = Vec::new();
    let stats = serve_lines_with(&model, &opts, input.as_bytes(), &mut out).expect("serve");
    assert!(stats.drained, "shutdown sentinel must drain the daemon");
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.controls, 2);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "nothing is served past the drain");
    assert_eq!(error_code(lines[0]), code::LIMIT_LINE);
    assert_eq!(
        parse_response(lines[1]),
        Response::Factors {
            id: Json::Num(7.0),
            factors: vec![2],
        }
    );
    let pong = Json::parse(lines[2]).unwrap();
    assert_eq!(pong.get("control").and_then(Json::as_str), Some("pong"));
    assert_eq!(pong.get("model").and_then(Json::as_str), Some("NN"));
    assert_eq!(
        pong.get("fingerprint").and_then(Json::as_str),
        Some(model.fingerprint_hex().as_str())
    );

    // The drain reply is the serve-stats document, schema-validated.
    let doc = Json::parse(lines[3]).unwrap();
    validate_serve_stats(&doc).expect("drain stats validate");
    assert_eq!(doc.get("drained"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("served").and_then(Json::as_num), Some(2.0));
    assert_eq!(doc.get("errors").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        doc.get("fingerprint").and_then(Json::as_str),
        Some(model.fingerprint_hex().as_str())
    );
}

#[test]
fn over_cap_batches_and_stats_requests_are_answered_in_place() {
    let model = toy_model(Some(vec![0, 1]));
    let opts = ServeOptions {
        limits: ServeLimits {
            max_batch: 2,
            ..ServeLimits::default()
        },
        ..ServeOptions::quiet()
    };
    let input = format!(
        "{}\n{}\n{}\n",
        feature_request(0.0, vec![vec![0.0, 1.0]; 3]),
        feature_request(1.0, vec![vec![0.0, 1.0]; 2]),
        "{\"control\": \"stats\"}",
    );
    let mut out = Vec::new();
    let stats = serve_lines_with(&model, &opts, input.as_bytes(), &mut out).expect("serve");
    assert!(!stats.drained, "EOF is not a drain");

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(error_code(lines[0]), code::LIMIT_BATCH);
    assert_eq!(
        parse_response(lines[1]),
        Response::Factors {
            id: Json::Num(1.0),
            factors: vec![1, 1],
        }
    );
    // The in-flight stats control answers the same validated document.
    let doc = Json::parse(lines[2]).unwrap();
    validate_serve_stats(&doc).expect("stats validate");
    assert_eq!(doc.get("drained"), Some(&Json::Bool(false)));
}

#[test]
fn a_genuine_panic_in_predict_is_answered_not_fatal() {
    // No feature subset: admission expects 38-feature rows, but the
    // classifier was fitted on 2 — scoring asserts, i.e. a real panic
    // (not an injected fault) inside the prediction path.
    let model = toy_model(None);
    let input = format!(
        "{}\n{}\n",
        feature_request(3.0, vec![vec![0.0; 38]]),
        "{\"control\": \"ping\"}",
    );
    let mut out = Vec::new();
    let stats = serve_lines_with(&model, &ServeOptions::quiet(), input.as_bytes(), &mut out)
        .expect("serve");
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.controls, 1, "the daemon must keep serving");

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    match parse_response(lines[0]) {
        Response::Error { id, code, message } => {
            assert_eq!(id, Json::Num(3.0));
            assert_eq!(code.as_deref(), Some(loopml_serve::code::PANIC));
            assert!(message.contains("prediction panicked"), "{message}");
            // A one-row batch predicts on the daemon's own thread, so
            // the answer carries the classifier's own panic text.
            assert!(message.contains("NN fitted on 2 features"), "{message}");
        }
        other => panic!("expected the panic answer, got {other:?}"),
    }
    let pong = Json::parse(lines[1]).unwrap();
    assert_eq!(pong.get("control").and_then(Json::as_str), Some("pong"));
}

#[test]
fn out_of_range_feature_subsets_fail_to_load() {
    // Column 40 is past the 38 features; so is 60. Either would make
    // every loop query panic, so neither may become a model.
    for (subset, bad) in [(vec![0, 40], "40"), (vec![0, 60], "60")] {
        let artifact = toy_artifact(Some(subset));
        let err = artifact.to_heuristic().unwrap_err();
        assert!(err.contains(bad), "{err}");
        let err = ServeModel::from_artifact(artifact).unwrap_err();
        assert!(err.contains(bad) && err.contains("out of range"), "{err}");
    }
    // The last valid column still loads.
    assert!(toy_artifact(Some(vec![0, 37])).to_heuristic().is_ok());
}

/// The chaos contract, at 1 and 4 worker threads: under a fault plane
/// firing at all three serve sites, every well-formed request is
/// answered byte-identically to a clean run (predictions are pure, so
/// in-daemon retries reconstruct the exact answer), and the injected
/// faults are visible in the drain counters.
#[test]
fn chaos_serving_is_byte_identical_to_a_clean_run_at_any_thread_count() {
    let model = toy_model(Some(vec![0, 1]));
    let mut input = String::new();
    for i in 0..6 {
        let v = f64::from(i);
        input.push_str(&feature_request(
            v,
            vec![vec![v / 2.0, 1.0 - v], vec![5.0, -2.0]],
        ));
        input.push('\n');
    }
    input.push_str("{\"control\": \"shutdown\"}\n");

    let mut clean = Vec::new();
    serve_lines_with(&model, &ServeOptions::quiet(), input.as_bytes(), &mut clean)
        .expect("clean serve");
    let clean_text = String::from_utf8(clean).unwrap();
    let clean_answers: Vec<&str> = clean_text.lines().collect();

    for threads in [1, 4] {
        let opts = ServeOptions {
            // No site filter: serve.decode, serve.predict and
            // serve.write all fire. The generous budget makes attempt
            // exhaustion (rate 0.3, three sites) vanishingly unlikely,
            // and everything is seed-deterministic either way.
            faults: FaultPlane::new(0x51EE9, 0.3),
            retry_budget: 30,
            ..ServeOptions::quiet()
        };
        let mut out = Vec::new();
        let stats = with_threads(threads, || {
            serve_lines_with(&model, &opts, input.as_bytes(), &mut out).expect("chaos serve")
        });
        let chaos_text = String::from_utf8(out).unwrap();
        let chaos_answers: Vec<&str> = chaos_text.lines().collect();

        assert_eq!(chaos_answers.len(), clean_answers.len());
        // Every request answer is byte-identical; only the final drain
        // document differs (it reports the fault/retry counters).
        for (chaos, clean) in chaos_answers
            .iter()
            .zip(&clean_answers)
            .take(clean_answers.len() - 1)
        {
            assert_eq!(chaos, clean, "chaos diverged at {threads} thread(s)");
        }
        let total_faults: usize = stats.faults.values().sum();
        assert!(total_faults > 0, "the plane must actually fire");
        assert!(stats.retries > 0, "faults are survived by retrying");
        assert_eq!(stats.errors, 0, "no request may exhaust the budget");
        for s in [site::SERVE_DECODE, site::SERVE_PREDICT, site::SERVE_WRITE] {
            assert!(
                stats.faults.contains_key(s),
                "site {s} never fired at rate 0.3 over 7 requests x 31 attempts"
            );
        }
        let drain = Json::parse(chaos_answers.last().unwrap()).unwrap();
        validate_serve_stats(&drain).expect("chaos drain stats validate");
    }
}
