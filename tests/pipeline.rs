//! End-to-end integration tests: corpus → labels → classifiers →
//! heuristics → whole-benchmark evaluation, crossing every crate.

use loopml::{
    improvement, label_suite, label_suite_resilient, oracle_choices, run_benchmark, to_dataset,
    EvalConfig, LabelConfig, LabeledLoop, LearnedHeuristic, OrcHeuristic, PipelineBuilder,
    UnrollHeuristic,
};
use loopml_corpus::{full_suite, synthesize, SuiteConfig, ROSTER};
use loopml_ir::Benchmark;
use loopml_machine::{NoiseModel, SwpMode};
use loopml_ml::{
    greedy_forward, greedy_forward_nn, loocv_nn, nn1_training_error, NearNeighbors, DEFAULT_RADIUS,
};
use loopml_rt::{with_threads, FaultPlane};

fn small_suite_cfg() -> SuiteConfig {
    SuiteConfig {
        min_loops: 10,
        max_loops: 14,
        ..SuiteConfig::default()
    }
}

/// One benchmark's labels, as the first (index 0) benchmark of a suite.
fn label_one(b: &Benchmark, cfg: &LabelConfig) -> Vec<LabeledLoop> {
    label_suite(std::slice::from_ref(b), cfg)
}

fn exact_labels() -> LabelConfig {
    LabelConfig {
        noise: NoiseModel::exact(),
        ..LabelConfig::paper(SwpMode::Disabled)
    }
}

#[test]
fn full_pipeline_smoke() {
    // Label a slice of the corpus.
    let suite: Vec<_> = ROSTER
        .iter()
        .take(10)
        .map(|e| synthesize(e, &small_suite_cfg()))
        .collect();
    let labeled = label_suite(&suite, &exact_labels());
    assert!(labeled.len() >= 20, "got {} labeled loops", labeled.len());

    // Train and deploy a classifier.
    let data = to_dataset(&labeled);
    let nn = LearnedHeuristic::fit(
        "NN",
        None,
        Box::new(NearNeighbors::new(DEFAULT_RADIUS)),
        &data,
    );

    // Compile a benchmark with it and compare against rolled code.
    let ec = EvalConfig::exact(SwpMode::Disabled);
    let b = &suite[0];
    let choices: Vec<u32> = b.loops.iter().map(|w| nn.choose(&w.body)).collect();
    let t_nn = run_benchmark(b, &choices, &ec);
    let t_rolled = run_benchmark(b, &vec![1; b.len()], &ec);
    assert!(
        t_nn < t_rolled,
        "learned compilation should beat rolled: {t_nn} vs {t_rolled}"
    );
}

#[test]
fn learned_beats_baseline_in_loocv_accuracy() {
    let suite: Vec<_> = ROSTER
        .iter()
        .take(12)
        .map(|e| synthesize(e, &small_suite_cfg()))
        .collect();
    let labeled = label_suite(&suite, &exact_labels());
    let data = to_dataset(&labeled);
    let nn_acc = loocv_nn(&data, DEFAULT_RADIUS).accuracy;

    // ORC heuristic accuracy on the same loops.
    let by_name: std::collections::HashMap<&str, &loopml_ir::Loop> = suite
        .iter()
        .flat_map(|b| b.loops.iter().map(|w| (w.body.name.as_str(), &w.body)))
        .collect();
    let orc_correct = labeled
        .iter()
        .filter(|l| OrcHeuristic.choose(by_name[l.name.as_str()]) == l.best_factor())
        .count();
    let orc_acc = orc_correct as f64 / labeled.len() as f64;
    assert!(
        nn_acc > orc_acc,
        "learned {nn_acc:.2} must beat hand heuristic {orc_acc:.2}"
    );
}

#[test]
fn oracle_dominates_heuristics_without_noise() {
    let b = synthesize(&ROSTER[3], &small_suite_cfg());
    let ec = EvalConfig::exact(SwpMode::Disabled);
    let oracle = run_benchmark(&b, &oracle_choices(&b, &ec), &ec);
    for choices in [
        vec![1u32; b.len()],
        b.loops
            .iter()
            .map(|w| OrcHeuristic.choose(&w.body))
            .collect(),
        b.loops
            .iter()
            .map(|w| if w.body.is_unrollable() { 8 } else { 1 })
            .collect(),
    ] {
        let t = run_benchmark(&b, &choices, &ec);
        assert!(
            improvement(t, oracle) >= -1e-9,
            "oracle {oracle} beaten by {t}"
        );
    }
}

#[test]
fn oracle_picks_the_exact_label_of_every_kept_loop() {
    // Noise-free, the labeler and the oracle cost the same eight
    // variants of each loop, so the oracle must choose the label.
    let suite: Vec<Benchmark> = ROSTER
        .iter()
        .take(12)
        .map(|e| synthesize(e, &small_suite_cfg()))
        .collect();
    for swp in [SwpMode::Disabled, SwpMode::Enabled] {
        let cfg = LabelConfig {
            noise: NoiseModel::exact(),
            ..LabelConfig::paper(swp)
        };
        let ec = EvalConfig::exact(swp);
        let labeled = label_suite(&suite, &cfg);
        assert!(labeled.len() >= 50, "{swp:?}: {} kept loops", labeled.len());
        for (bi, b) in suite.iter().enumerate() {
            let oracle = oracle_choices(b, &ec);
            for l in labeled.iter().filter(|l| l.benchmark == bi) {
                let li = b
                    .loops
                    .iter()
                    .position(|w| w.body.name == l.name)
                    .expect("a labeled loop comes from its benchmark");
                assert_eq!(oracle[li], l.best_factor(), "{swp:?}: {}", l.name);
            }
        }
    }
}

#[test]
fn labeling_and_evaluation_are_reproducible() {
    let b = synthesize(&ROSTER[5], &small_suite_cfg());
    let cfg = LabelConfig::paper(SwpMode::Disabled);
    assert_eq!(label_one(&b, &cfg), label_one(&b, &cfg));
    let ec = EvalConfig::paper(SwpMode::Disabled);
    let h = OrcHeuristic;
    assert_eq!(
        loopml::measure_benchmark(&b, &h, &ec),
        loopml::measure_benchmark(&b, &h, &ec)
    );
}

#[test]
fn corpus_scale_is_paper_scale() {
    // The default configuration labels >2,500 loops like the paper; the
    // check here uses the raw suite to stay fast.
    let suite = full_suite(&SuiteConfig::default());
    assert_eq!(suite.len(), 72);
    let loops: usize = suite.iter().map(|b| b.len()).sum();
    assert!(loops >= 4000, "default suite has {loops} raw loops");
    let spec = loopml_corpus::spec2000(&SuiteConfig::default());
    assert_eq!(spec.len(), 24);
}

#[test]
fn parallel_suite_labeling_matches_serial_end_to_end() {
    // The determinism contract, exercised across crates: with measurement
    // noise on, the labeling engine must be bit-identical to its serial
    // run at any worker count.
    let suite: Vec<_> = ROSTER
        .iter()
        .take(6)
        .map(|e| synthesize(e, &small_suite_cfg()))
        .collect();
    let cfg = LabelConfig::paper(SwpMode::Disabled);
    let faults = FaultPlane::disabled();
    let run = |threads| with_threads(threads, || label_suite_resilient(&suite, &cfg, &faults));
    let serial = run(1);
    assert!(!serial.labeled.is_empty());
    for threads in [2, 4, 7] {
        assert_eq!(serial, run(threads));
    }
    assert_eq!(serial.labeled, label_suite(&suite, &cfg));
}

#[test]
fn builder_pipeline_matches_hand_wired_pipeline() {
    // The one-call builder must produce the same training set as the
    // spelled-out corpus → label → dataset sequence.
    let suite: Vec<_> = ROSTER
        .iter()
        .take(5)
        .map(|e| synthesize(e, &small_suite_cfg()))
        .collect();
    let labeled = label_suite(&suite, &exact_labels());
    let by_hand = to_dataset(&labeled);

    let p = PipelineBuilder::paper()
        .suite(suite)
        .label_config(exact_labels())
        .all_features()
        .build();
    assert_eq!(p.full_dataset, by_hand);
    assert_eq!(p.dataset, by_hand);

    // And the deployed heuristic predicts valid factors for every loop.
    let nn = p.heuristic("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)));
    for b in &p.suite {
        for w in &b.loops {
            assert!((1..=8).contains(&nn.choose(&w.body)));
        }
    }
}

#[test]
fn swp_labels_differ_from_non_swp_labels() {
    // The paper trains separate heuristics per regime because the best
    // factor changes when the pipeliner is on.
    let b = synthesize(&ROSTER[2], &small_suite_cfg());
    let off = label_one(&b, &exact_labels());
    let on_cfg = LabelConfig {
        noise: NoiseModel::exact(),
        ..LabelConfig::paper(SwpMode::Enabled)
    };
    let on = label_one(&b, &on_cfg);
    // Same loops may survive differently; compare the overlap.
    let off_map: std::collections::HashMap<&str, usize> =
        off.iter().map(|l| (l.name.as_str(), l.label)).collect();
    let mut differing = 0;
    let mut common = 0;
    for l in &on {
        if let Some(&lab) = off_map.get(l.name.as_str()) {
            common += 1;
            if lab != l.label {
                differing += 1;
            }
        }
    }
    assert!(common > 0, "regimes should share some surviving loops");
    assert!(
        differing > 0,
        "pipelining should change at least one optimal factor ({common} shared)"
    );
}

#[test]
fn cached_greedy_matches_the_direct_oracle_on_labeled_loops() {
    // Real loop features are small integers, so distances tie exactly
    // far more often than on random floats: the incremental cache must
    // still pick the same feature with the same error at every one of
    // the 38 steps as the recompute-from-scratch oracle.
    let quick = SuiteConfig {
        min_loops: 8,
        max_loops: 12,
        ..SuiteConfig::default()
    };
    let suite: Vec<_> = ROSTER
        .iter()
        .take(16)
        .map(|e| synthesize(e, &quick))
        .collect();
    let data = to_dataset(&label_suite(&suite, &LabelConfig::paper(SwpMode::Disabled)));
    let d = data.dims();
    let cached = greedy_forward_nn(&data, d);
    assert_eq!(cached.len(), d);
    assert_eq!(cached, greedy_forward(&data, d, nn1_training_error));
}
