//! `repro` — regenerate the paper's tables and figures, and drive the
//! measurement subcommands, behind one uniform CLI surface.
//!
//! ```text
//! repro [--quick] [target...]        render reports (default: all)
//! repro lint [--stats]               legality-prover corpus scan + gates
//! repro sweep [--smoke|--quick]      LOGO hyperparameter sweep -> SWEEP_ml.json
//! repro label [--smoke] [...]        fault-tolerant labeling -> LABEL_ml.json
//! repro label-diff <clean> <chaos>   chaos run may cost coverage, not accuracy
//! repro train [--model KIND]         emit the versioned model artifact
//!                                    (nn, svm, orc, tree, forest, mlp)
//! repro serve-bench [--artifact F]   replay batches, verify, dump the traffic
//! repro serve-stats-check <F>        validate a loopml/serve-stats/v1 drain doc
//! repro help                         generated overview
//! ```
//!
//! Every subcommand accepts `--quick`, `--smoke`, `--corpus-scale S`
//! and `--help` with identical meaning (see [`loopml_bench::cli`]), and
//! exits 0 on success, 1 when the work failed, 2 on a usage error.
//! `LOOPML_THREADS` sets the worker count; outputs are bit-identical
//! at any count. Report targets: `all`, `table1`..`table4`,
//! `fig1`..`fig5`, `lint` (reachable as `repro report lint`; the bare
//! `repro lint` is the prover scan above), `ablate-norm`,
//! `ablate-radius`, `ablate-features`, `ablate-filter`.

use std::path::PathBuf;
use std::time::Instant;

use loopml::FEATURE_NAMES;
use loopml_bench::cli::{self, FlagSpec, Parsed, Spec, EXIT_FAIL, EXIT_OK, EXIT_USAGE};
use loopml_bench::{experiments, labelrun, lintrun, report, serverun, sweeprun, Scale};
use loopml_machine::SwpMode;
use loopml_rt::Json;

/// Report targets accepted by the default subcommand, in `all` order.
const ALL_TARGETS: [&str; 14] = [
    "lint",
    "table1",
    "fig3",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "ablate-norm",
    "ablate-radius",
    "ablate-features",
    "ablate-filter",
];

const REPORT_SPEC: Spec = Spec {
    name: "report",
    summary: "render the paper's tables, figures and ablations (default subcommand)",
    positionals: "[target...]",
    flags: &[],
};

const LINT_SPEC: Spec = Spec {
    name: "lint",
    summary: "legality-prover corpus scan: coverage stats and the disagreement gate",
    positionals: "",
    flags: &[FlagSpec {
        flag: "--stats",
        value: None,
        help: "print the machine-readable stats block to stdout",
    }],
};

const SWEEP_SPEC: Spec = Spec {
    name: "sweep",
    summary: "LOGO hyperparameter sweep over one distance pass -> SWEEP_ml.json",
    positionals: "",
    flags: &[],
};

const LABEL_SPEC: Spec = Spec {
    name: "label",
    summary: "fault-tolerant labeling with retries and quarantine",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "labels output path (default LABEL_ml.json)",
        },
        FlagSpec {
            flag: "--degradation",
            value: Some("FILE"),
            help: "degradation report path (default LABEL_degradation.json)",
        },
    ],
};

const LABEL_DIFF_SPEC: Spec = Spec {
    name: "label-diff",
    summary: "verify a chaos labeling run cost coverage, never accuracy",
    positionals: "<clean.json> <chaos.json>",
    flags: &[FlagSpec {
        flag: "--expect-quarantine",
        value: None,
        help: "require the chaos run to have quarantined something",
    }],
};

const TRAIN_SPEC: Spec = Spec {
    name: "train",
    summary: "train one model and write the versioned artifact loopml-serve loads",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--model",
            value: Some("KIND"),
            help: "nn, svm, orc, tree, forest, or mlp (default nn)",
        },
        FlagSpec {
            flag: "--tune",
            value: None,
            help: "LOGO-sweep hyperparameters before training",
        },
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "artifact path (default MODEL_ml.json)",
        },
    ],
};

const SERVE_BENCH_SPEC: Spec = Spec {
    name: "serve-bench",
    summary: "replay batches through the serving loop, verify bit-identity, dump the traffic",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--artifact",
            value: Some("FILE"),
            help: "artifact to load (default MODEL_ml.json)",
        },
        FlagSpec {
            flag: "--batch",
            value: Some("N"),
            help: "loops per batch (default 32)",
        },
        FlagSpec {
            flag: "--dump-requests",
            value: Some("FILE"),
            help: "write the replayed line-protocol requests",
        },
        FlagSpec {
            flag: "--dump-responses",
            value: Some("FILE"),
            help: "write the served line-protocol responses",
        },
    ],
};

const SERVE_STATS_CHECK_SPEC: Spec = Spec {
    name: "serve-stats-check",
    summary: "validate a loopml/serve-stats/v1 drain document written by loopml-serve",
    positionals: "<stats.json>",
    flags: &[
        FlagSpec {
            flag: "--require-faults",
            value: None,
            help: "fail unless at least one injected fault was recorded",
        },
        FlagSpec {
            flag: "--require-drained",
            value: None,
            help: "fail unless the daemon exited via graceful drain",
        },
    ],
};

const SPECS: [Spec; 8] = [
    REPORT_SPEC,
    LINT_SPEC,
    SWEEP_SPEC,
    LABEL_SPEC,
    LABEL_DIFF_SPEC,
    TRAIN_SPEC,
    SERVE_BENCH_SPEC,
    SERVE_STATS_CHECK_SPEC,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", cli::overview(&SPECS));
            EXIT_OK
        }
        Some("lint") => dispatch(&LINT_SPEC, &args[1..], cmd_lint),
        Some("sweep") => dispatch(&SWEEP_SPEC, &args[1..], cmd_sweep),
        Some("label") => dispatch(&LABEL_SPEC, &args[1..], cmd_label),
        Some("label-diff") => dispatch(&LABEL_DIFF_SPEC, &args[1..], cmd_label_diff),
        Some("train") => dispatch(&TRAIN_SPEC, &args[1..], cmd_train),
        Some("serve-bench") => dispatch(&SERVE_BENCH_SPEC, &args[1..], cmd_serve_bench),
        Some("serve-stats-check") => {
            dispatch(&SERVE_STATS_CHECK_SPEC, &args[1..], cmd_serve_stats_check)
        }
        // Anything else is the default report subcommand: bare targets
        // (`repro --quick table2`) keep working, no arguments means all.
        Some("report") => dispatch(&REPORT_SPEC, &args[1..], cmd_report),
        _ => dispatch(&REPORT_SPEC, args, cmd_report),
    }
}

/// Parses against `spec`, handles `--help`, and routes usage errors to
/// the uniform exit code.
fn dispatch(spec: &Spec, args: &[String], cmd: fn(&Parsed) -> i32) -> i32 {
    let parsed = match cli::parse(spec, args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repro {}: {e}", spec.name);
            eprintln!("run `repro {} --help` for usage", spec.name);
            return EXIT_USAGE;
        }
    };
    if parsed.help {
        print!("{}", spec.help());
        return EXIT_OK;
    }
    cmd(&parsed)
}

fn cmd_lint(p: &Parsed) -> i32 {
    let scan = lintrun::run_lint(p.scale, p.smoke.then_some(8), p.corpus_scale);
    if p.has("--stats") {
        println!("{}", scan.to_json());
    }
    let s = &scan.stats;
    eprintln!(
        "[lint] {} benchmark(s), {} loop(s) ({} indirect), {} (loop, factor) pair(s): \
         {} proven, {} refuted, {} unknown; coverage {:.1}%, {} cross-checked, \
         {} disagreement(s), {} oracle run(s)",
        scan.benchmarks,
        scan.loops,
        scan.indirect_loops,
        s.total(),
        s.proven,
        s.refuted,
        s.total() - s.resolved(),
        s.coverage() * 100.0,
        s.cross_checked,
        s.disagreements,
        s.oracle_runs,
    );
    match scan.gate() {
        Ok(()) => {
            eprintln!("[lint] gate ok");
            EXIT_OK
        }
        Err(e) => {
            eprintln!("[lint] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_sweep(p: &Parsed) -> i32 {
    let run = sweeprun::run_sweep_scaled(p.scale, p.corpus_scale);
    let json = run.to_json();
    std::fs::write("SWEEP_ml.json", format!("{json}\n")).expect("write SWEEP_ml.json");
    println!("{json}");
    if run.report.distance_builds != 1 {
        eprintln!(
            "[sweep] FAIL: {} distance passes, expected exactly 1",
            run.report.distance_builds
        );
        return EXIT_FAIL;
    }
    // The cross-family winner is only meaningful as a comparison: at
    // least two families must actually have been scored.
    if run.families_scored() < 2 {
        eprintln!(
            "[sweep] FAIL: only {} model family scored; the cross-family winner needs >= 2",
            run.families_scored()
        );
        return EXIT_FAIL;
    }
    eprintln!(
        "[sweep] wrote SWEEP_ml.json (1 distance build, {} families scored, winner {})",
        run.families_scored(),
        run.report.winner_family
    );
    EXIT_OK
}

fn cmd_label(p: &Parsed) -> i32 {
    let defaults = labelrun::LabelArgs::default();
    let a = labelrun::LabelArgs {
        scale: p.scale,
        take: p.smoke.then_some(8),
        corpus_scale: p.corpus_scale,
        out: p.option("--out").map(PathBuf::from).unwrap_or(defaults.out),
        degradation: p
            .option("--degradation")
            .map(PathBuf::from)
            .unwrap_or(defaults.degradation),
    };
    match labelrun::run_label(&a) {
        Ok(0) => EXIT_OK,
        Ok(denies) => {
            eprintln!("[label] FAIL: {denies} deny diagnostic(s)");
            EXIT_FAIL
        }
        Err(e) => {
            eprintln!("[label] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_serve_stats_check(p: &Parsed) -> i32 {
    let [path] = &p.positionals[..] else {
        eprintln!(
            "usage: repro serve-stats-check <stats.json> [--require-faults] [--require-drained]"
        );
        return EXIT_USAGE;
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("parse {path}: {e}")))
        .and_then(|doc| {
            loopml_serve::validate_serve_stats(&doc)?;
            let faults: f64 = match doc.get("faults") {
                // fold, not sum: Sum<f64> yields -0.0 for an empty map.
                Some(Json::Obj(m)) => m.values().filter_map(Json::as_num).fold(0.0, |a, b| a + b),
                _ => 0.0,
            };
            if p.has("--require-faults") && faults == 0.0 {
                return Err("no injected faults recorded (fault plane inactive?)".into());
            }
            if p.has("--require-drained") && doc.get("drained") != Some(&Json::Bool(true)) {
                return Err("daemon did not exit via graceful drain".into());
            }
            let n = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0);
            eprintln!(
                "[serve-stats-check] ok: {} request(s), {} error(s), {} retrie(s), \
                 {} fault(s), {} control(s)",
                n("served"),
                n("errors"),
                n("retries"),
                faults,
                n("controls"),
            );
            Ok(())
        });
    match checked {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[serve-stats-check] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_label_diff(p: &Parsed) -> i32 {
    let [clean, chaos] = &p.positionals[..] else {
        eprintln!("usage: repro label-diff <clean.json> <chaos.json> [--expect-quarantine]");
        return EXIT_USAGE;
    };
    match labelrun::run_label_diff(clean, chaos, p.has("--expect-quarantine")) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[label-diff] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_train(p: &Parsed) -> i32 {
    match serverun::run_train(&serverun::TrainArgs::from_parsed(p)) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[train] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_serve_bench(p: &Parsed) -> i32 {
    let args = match serverun::ServeBenchArgs::from_parsed(p) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro serve-bench: {e}");
            return EXIT_USAGE;
        }
    };
    match serverun::run_serve_bench(&args) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[serve-bench] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_report(p: &Parsed) -> i32 {
    let targets: Vec<&str> = p.positionals.iter().map(String::as_str).collect();
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        ALL_TARGETS.to_vec()
    } else {
        targets
    };
    if let Some(bad) = targets
        .iter()
        .find(|t| !ALL_TARGETS.contains(t) && **t != "all")
    {
        eprintln!("repro report: unknown target: {bad}");
        eprintln!("targets: all {}", ALL_TARGETS.join(" "));
        return EXIT_USAGE;
    }
    render_reports(&targets, p.scale, p.corpus_scale);
    EXIT_OK
}

fn render_reports(targets: &[&str], scale: Scale, corpus_scale: usize) {
    let needs_swp_off = targets.iter().any(|t| *t != "fig5");
    let needs_swp_on = targets.contains(&"fig5");

    let t0 = Instant::now();
    let ctx_off = needs_swp_off.then(|| {
        eprintln!("[repro] building SWP-off context ({scale:?})...");
        scale.builder(corpus_scale).build()
    });
    let ctx_on = needs_swp_on.then(|| {
        eprintln!("[repro] building SWP-on context ({scale:?})...");
        scale.builder(corpus_scale).swp(SwpMode::Enabled).build()
    });
    if let Some(c) = &ctx_off {
        eprintln!(
            "[repro] corpus: {} benchmarks, {} labeled loops, {} informative features ({:.1?})",
            c.suite.len(),
            c.len(),
            c.dataset.dims(),
            t0.elapsed()
        );
    }

    for target in targets {
        let t = Instant::now();
        match *target {
            "lint" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let mut r = loopml_lint::Report::with_env_suppressions();
                for b in &ctx.suite {
                    r.merge(loopml_lint::verify_benchmark(b));
                }
                r.merge(loopml_lint::lint_dataset(
                    &ctx.full_dataset,
                    Some(&ctx.groups),
                ));
                println!("{}", r.to_json());
                eprintln!(
                    "[repro] lint: {} deny, {} warning across {} benchmarks and {} examples",
                    r.deny_count(),
                    r.warning_count(),
                    ctx.suite.len(),
                    ctx.len()
                );
            }
            "table1" => {
                println!(
                    "Table 1. Features used for loop classification ({} total)",
                    FEATURE_NAMES.len()
                );
                for (i, name) in FEATURE_NAMES.iter().enumerate() {
                    println!("  {:>2}. {}", i + 1, name);
                }
            }
            "table2" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_table2(&experiments::table2(ctx)));
            }
            "table3" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_table3(&experiments::table3(ctx), 5));
            }
            "table4" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let (nn, svm) = experiments::table4(ctx, 5);
                println!("{}", report::render_table4(&nn, &svm));
            }
            "fig1" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let pts = experiments::fig1(ctx);
                println!(
                    "{}",
                    report::render_scatter(
                        "Figure 1. Near neighbor data on the LDA plane",
                        &pts,
                        100,
                        30
                    )
                );
            }
            "fig2" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let (pts, grid) = experiments::fig2(ctx, 40);
                println!(
                    "{}",
                    report::render_scatter(
                        "Figure 2. SVM binary classification on the LDA plane",
                        &pts,
                        100,
                        30
                    )
                );
                if !grid.is_empty() {
                    println!("decision regions (U = unroll, . = keep rolled):");
                    for row in grid.iter().rev() {
                        let line: String = row.iter().map(|&b| if b { 'U' } else { '.' }).collect();
                        println!("  {line}");
                    }
                }
            }
            "fig3" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_fig3(&experiments::fig3(ctx)));
            }
            "fig4" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let f = experiments::speedup_figure(ctx);
                println!(
                    "{}",
                    report::render_speedups(
                        "Figure 4. SPEC 2000 improvement over ORC, SWP disabled",
                        &f
                    )
                );
            }
            "fig5" => {
                let ctx = ctx_on.as_ref().expect("ctx");
                let f = experiments::speedup_figure(ctx);
                println!(
                    "{}",
                    report::render_speedups(
                        "Figure 5. SPEC 2000 improvement over ORC, SWP enabled",
                        &f
                    )
                );
            }
            "ablate-norm" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: feature normalization",
                        &experiments::ablate_normalization(ctx)
                    )
                );
            }
            "ablate-radius" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: radius vote vs 1-NN",
                        &experiments::ablate_radius(ctx)
                    )
                );
            }
            "ablate-features" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: informative subset vs all 38 features",
                        &experiments::ablate_features(ctx)
                    )
                );
            }
            "ablate-filter" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: label filtering",
                        &experiments::ablate_filter(ctx)
                    )
                );
            }
            other => unreachable!("target {other} validated in cmd_report"),
        }
        eprintln!("[repro] {target} done in {:.1?}", t.elapsed());
    }
}
