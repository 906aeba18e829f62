//! Integration tests for the fault-tolerant labeling pipeline: a
//! benchmark that always faults never contaminates its siblings, chaos
//! runs are deterministic at any thread count, and the evaluation layer
//! degrades gracefully.

use loopml::{
    label_benchmark, label_suite_resilient, measure_benchmark, EvalConfig, LabelConfig, LabelRun,
    LabeledLoop, OrcHeuristic, QuarantineScope,
};
use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
use loopml_ir::Benchmark;
use loopml_machine::SwpMode;
use loopml_rt::fault::site;
use loopml_rt::{par_map_result, with_threads, FaultPlane};

fn small_suite() -> Vec<Benchmark> {
    ROSTER
        .iter()
        .take(4)
        .map(|e| {
            synthesize(
                e,
                &SuiteConfig {
                    min_loops: 6,
                    max_loops: 8,
                    ..SuiteConfig::default()
                },
            )
        })
        .collect()
}

fn cfg() -> LabelConfig {
    LabelConfig::paper(SwpMode::Disabled)
}

/// The whole suite labeled under `faults` on `threads` workers.
fn run_on(threads: usize, suite: &[Benchmark], faults: FaultPlane) -> LabelRun {
    with_threads(threads, || label_suite_resilient(suite, &cfg(), &faults))
}

/// The headline guarantee: a corpus where one synthetic benchmark
/// *always* faults still labels every other benchmark — bit-identically
/// to labeling them in isolation — at 1 and 4 worker threads.
#[test]
fn crashing_benchmark_never_contaminates_siblings() {
    let suite = small_suite();
    let poisoned = 2usize; // fault_key of site label.loop is the index
    let alone: Vec<LabeledLoop> = suite
        .iter()
        .enumerate()
        .filter(|(bi, _)| *bi != poisoned)
        .flat_map(|(bi, b)| label_benchmark(b, bi, &cfg(), &FaultPlane::disabled()).labeled)
        .collect();
    assert!(!alone.is_empty());

    for threads in [1usize, 4] {
        let plane = FaultPlane::new(0, 1.0)
            .at_site(site::LABEL_LOOP)
            .only_keys(vec![poisoned as u64]);
        let run = run_on(threads, &suite, plane);
        assert_eq!(
            run.labeled, alone,
            "survivors diverged at {threads} thread(s)"
        );
        assert!(run.attempts.iter().all(|&a| a == 0), "no retries expected");
        assert_eq!(run.report.completed, suite.len() - 1);
        assert_eq!(run.report.quarantined.len(), 1);
        let q = &run.report.quarantined[0];
        assert_eq!(q.scope, QuarantineScope::Benchmark);
        assert_eq!(q.benchmark, poisoned);
        assert_eq!(q.name, suite[poisoned].name);
        assert_eq!(q.site.as_deref(), Some(site::LABEL_LOOP));
    }
}

/// Seeded chaos at a moderate rate: the run completes, produces labels,
/// retries some loops, and is bit-reproducible — across reruns and
/// across thread counts.
#[test]
fn chaos_runs_complete_and_reproduce() {
    let suite = small_suite();
    let plane = || FaultPlane::new(0x20260806, 0.08).at_site(site::LABEL_MEASURE);
    let reference = run_on(1, &suite, plane());
    assert!(!reference.labeled.is_empty(), "chaos must not stop the run");
    assert!(
        reference.report.fault_sites[site::LABEL_MEASURE] > 0,
        "the plane must actually fire"
    );
    assert!(
        reference.attempts.iter().any(|&a| a > 0),
        "some loops should have needed retries"
    );
    for threads in [2usize, 4] {
        let run = run_on(threads, &suite, plane());
        assert_eq!(run, reference, "chaos diverged at {threads} threads");
    }
    assert_eq!(
        run_on(1, &suite, plane()),
        reference,
        "rerun must be bit-identical"
    );

    // Labels the chaos run produced without retries match a fault-free
    // run exactly (the fault plane costs coverage, never accuracy).
    let clean = run_on(1, &suite, FaultPlane::disabled());
    for (l, &a) in reference.labeled.iter().zip(&reference.attempts) {
        if a == 0 {
            let c = clean
                .labeled
                .iter()
                .find(|c| c.name == l.name)
                .expect("untouched label exists in the clean run");
            assert_eq!(l, c, "untouched label {} drifted", l.name);
        }
    }
}

/// The evaluation layer: an injected `eval.bench` fault panics for
/// exactly the targeted benchmark, and `par_map_result` turns it into a
/// per-item error with the fault site attached while every other
/// measurement is unaffected.
#[test]
fn eval_faults_are_isolated_per_benchmark() {
    let suite = small_suite();
    let clean_ec = EvalConfig::exact(SwpMode::Disabled);
    let clean: Vec<f64> = suite
        .iter()
        .map(|b| measure_benchmark(b, &OrcHeuristic, &clean_ec))
        .collect();

    let poisoned = loopml_rt::fault_key_str(&suite[1].name);
    let mut chaos_ec = EvalConfig::exact(SwpMode::Disabled);
    chaos_ec.faults = FaultPlane::new(0, 1.0)
        .at_site(site::EVAL_BENCH)
        .only_keys(vec![poisoned]);

    let results = par_map_result(&suite, |b| measure_benchmark(b, &OrcHeuristic, &chaos_ec));
    assert_eq!(results.len(), suite.len());
    for (bi, (r, want)) in results.into_iter().zip(&clean).enumerate() {
        if bi == 1 {
            let err = r.expect_err("poisoned benchmark must fail");
            assert_eq!(err.injected, Some(site::EVAL_BENCH));
            assert_eq!(err.index, 1);
        } else {
            assert_eq!(r.expect("healthy benchmark"), *want, "benchmark {bi}");
        }
    }
}
