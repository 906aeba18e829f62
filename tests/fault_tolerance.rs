//! Integration tests for the fault-tolerant labeling pipeline: a
//! benchmark that always faults never contaminates its siblings, chaos
//! runs are deterministic at any thread count, the evaluation layer
//! degrades gracefully, and checkpoint/resume is bit-identical.

use loopml::{
    label_benchmark, label_suite_resilient, measure_benchmark, EvalConfig, LabelConfig, LabelRun,
    LabeledLoop, OrcHeuristic, QuarantineScope, ResilienceConfig,
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

fn resilience(faults: FaultPlane) -> ResilienceConfig {
    ResilienceConfig {
        faults,
        ..ResilienceConfig::default()
    }
}

/// The whole suite labeled under `faults` on `threads` workers.
fn run_on(threads: usize, suite: &[Benchmark], faults: FaultPlane) -> LabelRun {
    with_threads(threads, || {
        label_suite_resilient(suite, &cfg(), &resilience(faults), None)
    })
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
        .flat_map(|(bi, b)| {
            label_benchmark(b, bi, &cfg(), &resilience(FaultPlane::disabled())).labeled
        })
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

/// Kill/resume: a checkpointed chaos run, interrupted by deleting and
/// corrupting checkpoint files, resumes to byte-identical artifacts.
#[test]
fn resume_after_partial_loss_is_bit_identical() {
    let suite = small_suite();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault_tolerance_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let plane = || FaultPlane::new(0xFEED, 0.05).at_site(site::LABEL_MEASURE);
    let full_cfg = ResilienceConfig {
        faults: plane(),
        ckpt_dir: Some(dir.clone()),
        ..ResilienceConfig::default()
    };
    let full = with_threads(2, || label_suite_resilient(&suite, &cfg(), &full_cfg, None));

    // "Crash": one checkpoint disappears, another is truncated mid-write.
    let gone = loopml::checkpoint_path(&dir, 0, &suite[0].name);
    std::fs::remove_file(&gone).expect("checkpoint existed");
    let torn = loopml::checkpoint_path(&dir, 3, &suite[3].name);
    let text = std::fs::read_to_string(&torn).expect("checkpoint existed");
    std::fs::write(&torn, &text[..text.len() / 3]).expect("truncate");

    let resume_cfg = ResilienceConfig {
        resume: true,
        ..full_cfg
    };
    let resumed = with_threads(2, || {
        label_suite_resilient(&suite, &cfg(), &resume_cfg, None)
    });
    assert_eq!(resumed.labeled, full.labeled);
    assert_eq!(resumed.attempts, full.attempts);
    assert_eq!(resumed.report.resumed, 2, "two checkpoints survived");
    assert_eq!(
        resumed.report.to_json().to_string(),
        full.report.to_json().to_string(),
        "degradation reports must serialize identically"
    );

    // A config change invalidates every checkpoint instead of reusing
    // stale measurements.
    let reseeded = LabelConfig {
        seed: cfg().seed ^ 1,
        ..cfg()
    };
    let fresh = with_threads(2, || {
        label_suite_resilient(&suite, &reseeded, &resume_cfg, None)
    });
    assert_eq!(fresh.report.resumed, 0, "stale checkpoints must be ignored");
}

/// Killed-shard recovery, in-process: a shard worker dying mid-run
/// leaves checkpoints behind; a resumed rerun emits a byte-identical
/// shard document, and the merged labels match a single-process run
/// exactly. A corrupted shard file is caught by its payload
/// fingerprint; a duplicated shard set is a spec error.
#[test]
fn killed_shard_resumes_and_merges_bit_identically() {
    use loopml::Shard;
    use loopml_bench::labelrun::{
        labels_to_json, labels_to_json_sharded, run_label_merge, MergeError,
    };

    let suite = small_suite();
    let config = cfg();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault_tolerance_shards");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ckpt");
    let res = |resume: bool| ResilienceConfig {
        ckpt_dir: Some(ckpt.clone()),
        resume,
        ..ResilienceConfig::default()
    };
    let single = labels_to_json(
        &label_suite_resilient(&suite, &config, &ResilienceConfig::default(), None),
        config.swp,
    );

    let count = 2usize;
    let shard = |index| Shard { index, count };
    // Shard 0 completes normally.
    let run0 = label_suite_resilient(&suite, &config, &res(false), Some(shard(0)));
    let path0 = dir.join("shard0.json");
    let doc0 = labels_to_json_sharded(&run0, config.swp, Some(shard(0))).to_string();
    std::fs::write(&path0, format!("{doc0}\n")).unwrap();

    // Shard 1 is "killed": its checkpoints exist but one is lost and no
    // shard document was ever written.
    let killed = label_suite_resilient(&suite, &config, &res(false), Some(shard(1)));
    std::fs::remove_file(loopml::checkpoint_path(&ckpt, 1, &suite[1].name))
        .expect("shard 1's checkpoint existed");

    // The restarted worker resumes the surviving checkpoints and emits
    // a byte-identical shard document.
    let resumed = label_suite_resilient(&suite, &config, &res(true), Some(shard(1)));
    assert_eq!(resumed.labeled, killed.labeled);
    assert_eq!(resumed.attempts, killed.attempts);
    assert!(resumed.report.resumed > 0, "surviving checkpoints reused");
    let path1 = dir.join("shard1.json");
    let doc1 = labels_to_json_sharded(&resumed, config.swp, Some(shard(1))).to_string();
    assert_eq!(
        doc1,
        labels_to_json_sharded(&killed, config.swp, Some(shard(1))).to_string(),
        "recovered shard document must be byte-identical"
    );
    std::fs::write(&path1, format!("{doc1}\n")).unwrap();

    // Merge: byte-identical to the single-process labels document.
    let paths = vec![
        path0.to_string_lossy().into_owned(),
        path1.to_string_lossy().into_owned(),
    ];
    let merged_path = dir.join("merged.json");
    run_label_merge(&paths, &merged_path, None).expect("merge");
    assert_eq!(
        std::fs::read_to_string(&merged_path).unwrap(),
        format!("{single}\n")
    );

    // Corruption is caught by the shard payload fingerprint...
    let pristine = std::fs::read_to_string(&path1).unwrap();
    std::fs::write(&path1, pristine.replacen("\"label\":", "\"label\":7", 1)).unwrap();
    assert!(matches!(
        run_label_merge(&paths, &merged_path, None),
        Err(MergeError::Data(m)) if m.contains("fingerprint")
    ));
    std::fs::write(&path1, &pristine).unwrap();

    // ...and a duplicated shard set is rejected as a spec error.
    let dup = vec![paths[0].clone(), paths[0].clone()];
    assert!(matches!(
        run_label_merge(&dup, &merged_path, None),
        Err(MergeError::Spec(_))
    ));
}
