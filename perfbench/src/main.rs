//! The loopml benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <label|tune|tune_scaled|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one compiler-integration session — label a corpus,
//! tune a model on it, serve unroll queries — in which one phase is the
//! workload's subject and is measured for `--seconds`; the other phases
//! run at a small fixed size so that every end-to-end metric is measured
//! on every workload, in rounds interleaved with the subject so that each
//! metric's samples span the run. `--trace 0` prints the end-to-end metrics, measured
//! with tracing off. `--trace 1` runs the subject phase through the
//! program's entry point, then through the benchmark's own calls into
//! each layer with spans off and with spans on, checks that the traced
//! output equals the program's, and prints the per-layer metrics. The
//! last line of standard output is the result object; the line before it
//! records the run (seed, threads, corpus sizes, toolchain, commit) and
//! the checks.

mod reference;
mod session;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use loopml_ml::tile_budget_bytes;
use loopml_rt::Json;

use reference::Check;
use session::{
    with_threads, CorpusSize, Grid, Labeled, Served, ServedModel, Server, BLOCK, SERVE_BATCHES,
    TAIL_BATCHES,
};
use trace::{Clock, Span};

const USAGE: &str = "usage: loopml-perfbench --workload <label|tune|tune_scaled|serve> \
--seed <n> --seconds <s> --trace <0|1> [--record-reference]
worker threads: LOOPML_THREADS (default min(2, nproc), never more than nproc)";

/// End-to-end metrics, printed by every `--trace 0` run. The batch tail
/// (p99 where at least ten samples lie beyond it) is reported in the run
/// line with its sample count, not here: it follows the host's stalls
/// more than the program (see the README).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("loops_per_s", "1/s"),
    ("tune_s", "s"),
    ("logo_accuracy", "ratio"),
    ("predictions_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("corpus.synthesize_ms", "ms"),
    ("core.label.loops", "count"),
    ("core.label.kept_ratio", "ratio"),
    ("core.label.self_ms", "ms"),
    ("opt.unroll.calls", "count"),
    ("opt.unroll.busy_ms", "ms"),
    ("machine.cost.calls", "count"),
    ("machine.cost.busy_ms", "ms"),
    ("core.features.calls", "count"),
    ("core.features.busy_ms", "ms"),
    ("ml.select.busy_ms", "ms"),
    ("ml.distance.builds", "count"),
    ("ml.distance.busy_ms", "ms"),
    ("ml.distance.peak_bytes", "bytes"),
    ("ml.kernel.busy_ms", "ms"),
    ("ml.kernel.peak_bytes", "bytes"),
    ("ml.sweep.nn.busy_ms", "ms"),
    ("ml.sweep.nn.fits", "count"),
    ("ml.sweep.svm.busy_ms", "ms"),
    ("ml.sweep.svm.fits", "count"),
    ("ml.sweep.tree.busy_ms", "ms"),
    ("ml.sweep.tree.fits", "count"),
    ("ml.sweep.forest.busy_ms", "ms"),
    ("ml.sweep.forest.fits", "count"),
    ("ml.sweep.mlp.busy_ms", "ms"),
    ("ml.sweep.mlp.fits", "count"),
    ("rt.json.parse_ms", "ms"),
    ("rt.json.bytes", "bytes"),
    ("serve.wire.decode_ms", "ms"),
    ("serve.wire.encode_ms", "ms"),
    ("serve.errors", "count"),
    ("ml.predict.busy_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Set-up repeats at least this often and for at least `SETUP_MIN_S`
/// seconds; `setup_s` is the median repetition, so a set-up of a few
/// milliseconds (synthesis alone) is repeated many times.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Passes of a tail tuning phase at least; `tune_s` is their median.
const TAIL_TUNE_PASSES: usize = 5;

/// Rounds of the `label` workload at least.
const LABEL_MIN_ROUNDS: usize = 5;

/// Tail tuning passes per `label` round.
const TAIL_TUNE_PER_ROUND: usize = 2;

/// Tail rounds on each side of the subject on `tune` and `tune_scaled`.
const SIDE_ROUNDS: usize = 2;

/// Benchmarks a tail labeling pass of `serve` labels: about 570 loops,
/// half a second on one worker (the whole corpus would take four).
const SERVE_TAIL_BENCHMARKS: usize = 8;

/// Workers of every tail phase. Tail passes are short (0.2–2 s) and a
/// short pass fanned out over both vCPUs of a 2-vCPU machine slows far
/// more under host load than the same pass on one worker (a tail tuning
/// pass: 2.1x against 1.5x when the host stole a quarter of the CPU).
const TAIL_THREADS: usize = 1;

/// Whether another set-up repetition is due after `done` of them.
fn more_setup(done: usize, started: Instant) -> bool {
    done < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Label,
    Tune,
    TuneScaled,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "label" => Some(Workload::Label),
            "tune" => Some(Workload::Tune),
            "tune_scaled" => Some(Workload::TuneScaled),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Label => "label",
            Workload::Tune => "tune",
            Workload::TuneScaled => "tune_scaled",
            Workload::Serve => "serve",
        }
    }

    fn corpus(self) -> CorpusSize {
        match self {
            Workload::Label | Workload::Serve => CorpusSize::Full,
            Workload::Tune => CorpusSize::Quick,
            Workload::TuneScaled => CorpusSize::QuickX4,
        }
    }

    /// The grid of the tuning phase: the subject's grid on the tuning
    /// workloads, one tree cell elsewhere.
    fn grid(self) -> Grid {
        match self {
            Workload::Tune => Grid::Default,
            Workload::TuneScaled => Grid::SvmCell,
            Workload::Label | Workload::Serve => Grid::TreeCell,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    record: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String], nproc: usize, env_threads: Option<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or(format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let threads = match env_threads {
        None => nproc.min(2),
        Some(t) => match t.trim().parse::<usize>() {
            Ok(n) if (1..=nproc).contains(&n) => n,
            Ok(n) if n > nproc => {
                return Err(format!(
                "{n} worker threads requested but nproc is {nproc}; never more threads than cores"
            ))
            }
            _ => return Err(format!("bad thread count {t:?}")),
        },
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        record,
    })
}

/// Metric names: a letter or digit, then at most 63 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What a run measured and checked.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    detail: BTreeMap<&'static str, Json>,
    checks: BTreeMap<&'static str, Check>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, key: &'static str, value: Json) {
        self.detail.insert(key, value);
    }

    /// Folds `check` into the named check: skipped stays skipped only
    /// while every part was skipped; failures add up.
    fn check(&mut self, key: &'static str, check: Check) {
        self.failed += check.failures();
        let merged = match (self.checks.get(key).copied(), check) {
            (None | Some(Check::Skipped), c) | (Some(c), Check::Skipped) => c,
            (Some(a), b) => match a.failures() + b.failures() {
                0 => Check::Passed,
                n => Check::Failed(n),
            },
        };
        self.checks.insert(key, merged);
    }

    /// The result object, with every metric of `names` present.
    fn result(&self, names: &[(&'static str, &'static str)]) -> Json {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                assert!(valid_metric_name(name), "bad metric name {name:?}");
                // A missing or non-finite value is a defect: it prints as
                // null and makes the run incorrect.
                let value = match self.metrics.get(name) {
                    Some(v) if v.is_finite() => Json::Num(*v),
                    _ => Json::Null,
                };
                (
                    name,
                    Json::obj([("value", value), ("unit", Json::Str(unit.into()))]),
                )
            })
            .collect::<Vec<_>>();
        let correct = self.failed == 0
            && self.attempted > 0
            && names
                .iter()
                .all(|(n, _)| self.metrics.get(n).is_some_and(|v| v.is_finite()));
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Steal and total ticks of all CPUs since boot, from `/proc/stat`.
/// Steal is time the hypervisor ran something else while a vCPU of this
/// machine was ready to run; its share during a run is recorded with the
/// run, because the timings follow it.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Pins `LOOPML_TILE_BYTES` to a quarter of the dense n×n distance
/// matrix, as `repro perf`'s scaled stages do, so the tiled distance and
/// kernel paths run. Called before any worker thread exists.
fn pin_tile_budget(n: usize, threads: usize) {
    let dense = 8 * (n as u64) * (n as u64);
    let budget = (dense / 4).max(4 * threads as u64 * 8 * n as u64);
    std::env::set_var("LOOPML_TILE_BYTES", budget.to_string());
}

/// Labeling passes over one suite. The first pass's output is the
/// workload's data; every later pass must reproduce it, and each pass
/// adds a labeling rate.
struct Labeling {
    data: Labeled,
    entries: Vec<String>,
    rates: Vec<f64>,
}

impl Labeling {
    /// Labels `suite` once; also returns the pass's seconds.
    fn new(suite: Vec<loopml_ir::Benchmark>) -> (Labeling, f64) {
        let (labeled, t) = session::label(&suite);
        let entries = reference::label_entries(&suite, &labeled);
        let rate = session::unrollable_loops(&suite) as f64 / t;
        let data = Labeled::new(suite, labeled);
        let labeling = Labeling {
            data,
            entries,
            rates: vec![rate],
        };
        (labeling, t)
    }

    /// Labels the suite again with `threads` workers. A pass whose
    /// output differs from the first pass's is one failure. Returns the
    /// pass's entries.
    fn again(&mut self, threads: usize, out: &mut Outcome) -> Vec<String> {
        let (labeled, t) = with_threads(threads, || session::label(&self.data.suite));
        let suite = &self.data.suite;
        self.rates.push(session::unrollable_loops(suite) as f64 / t);
        let entries = reference::label_entries(suite, &labeled);
        out.attempted += 1;
        out.check(
            "passes_repeatable",
            if entries == self.entries {
                Check::Passed
            } else {
                Check::Failed(1)
            },
        );
        entries
    }
}

/// Set-up of every workload but `label`: synthesize and label the
/// training corpus repeatedly (see [`more_setup`]). Returns the first
/// repetition's labeling, with a rate per repetition, and the
/// per-repetition set-up seconds; a repetition that labels differently
/// from the first is one failure.
fn setup_labeled(args: &Args, out: &mut Outcome) -> (Labeling, Vec<f64>) {
    let cfg = session::suite_config(args.workload.corpus(), args.seed);
    let mut setup_s = Vec::new();
    let mut first: Option<Labeling> = None;
    let started = Instant::now();
    while more_setup(setup_s.len(), started) {
        let (suite, synth_s) = session::synthesize(&cfg);
        let (labeling, label_s) = Labeling::new(suite);
        setup_s.push(synth_s + label_s);
        match &mut first {
            None => first = Some(labeling),
            Some(f) => {
                f.rates.extend(&labeling.rates);
                out.attempted += 1;
                out.check(
                    "setup_repeatable",
                    if labeling.entries == f.entries {
                        Check::Passed
                    } else {
                        Check::Failed(1)
                    },
                );
            }
        }
    }
    (first.expect("at least one set-up repetition"), setup_s)
}

/// Records the corpus sizes of a labeled corpus in the run stamp.
fn note_corpus(out: &mut Outcome, data: &Labeled) {
    out.note(
        "corpus",
        Json::obj([
            ("loops", num(session::total_loops(&data.suite) as f64)),
            (
                "unrollable",
                num(session::unrollable_loops(&data.suite) as f64),
            ),
            ("examples", num(data.labeled.len() as f64)),
            ("groups", num(data.n_groups() as f64)),
        ]),
    );
}

/// A tuning phase: its grid, data and reference, and what its passes
/// measured and checked so far.
///
/// On `tune` and `tune_scaled` the phase is the subject: the workload's
/// grid over the whole corpus, each scored family checked against the
/// seed's reference. Elsewhere it is a tail: selection and one default
/// tree cell over [`session::TAIL_PER_GROUP`] kept loops per benchmark,
/// at least [`TAIL_TUNE_PASSES`] times, with the passes spread over the
/// workload's subject so that the median `tune_s` does not rest on one
/// stretch of the host's speed. A one-cell grid can only select its
/// cell, so its selection is not checked. Every sweep must build its
/// distance matrix exactly once.
struct Tuning {
    cfg: loopml_ml::SweepConfig,
    sample: Option<(loopml_ml::Dataset, Vec<usize>)>,
    reference: Option<Option<Vec<String>>>,
    min_passes: usize,
    refname: &'static str,
    seed: u64,
    record: bool,
    checks: Outcome,
    times: Vec<f64>,
    last: Option<session::Tuned>,
}

impl Tuning {
    fn new(args: &Args, data: &Labeled) -> Self {
        let grid = args.workload.grid();
        let refname = args.workload.name();
        let (reference, sample, min_passes) = match grid {
            Grid::TreeCell => (
                None,
                Some(data.sample(session::TAIL_PER_GROUP)),
                TAIL_TUNE_PASSES,
            ),
            Grid::Default | Grid::SvmCell => (Some(reference::load(refname, args.seed)), None, 1),
        };
        Tuning {
            cfg: session::sweep_config(grid),
            sample,
            reference,
            min_passes,
            refname,
            seed: args.seed,
            record: args.record,
            checks: Outcome::default(),
            times: Vec::new(),
            last: None,
        }
    }

    /// The examples and groups the passes tune on.
    fn data<'a>(&'a self, data: &'a Labeled) -> (&'a loopml_ml::Dataset, &'a [usize]) {
        self.sample
            .as_ref()
            .map_or((&data.full, &data.groups[..]), |(d, g)| (d, &g[..]))
    }

    /// One tuning pass, checked.
    fn pass(&mut self, data: &Labeled) {
        let (full, groups) = self.data(data);
        let tune = || session::tune(full, groups, &self.cfg);
        let tuned = if self.sample.is_some() {
            with_threads(TAIL_THREADS, tune)
        } else {
            tune()
        };
        self.times.push(tuned.seconds);
        self.checks.attempted += 1;
        if let Some(reference) = &self.reference {
            let entries = reference::family_entries(&tuned.report);
            self.checks.attempted += entries.len() as u64;
            if self.record {
                let header = format!(
                    "{} selected hyperparameters, seed {}",
                    self.refname, self.seed
                );
                reference::record(self.refname, self.seed, &header, &entries)
                    .expect("write the tune reference");
            }
            self.checks.check(
                "families",
                reference::compare(reference.as_deref(), &entries),
            );
        }
        self.checks.check(
            "distance_builds",
            if tuned.report.distance_builds == 1 {
                Check::Passed
            } else {
                Check::Failed(1)
            },
        );
        self.last = Some(tuned);
    }

    /// Passes until at least the phase's minimum and `seconds` of them.
    fn run(&mut self, data: &Labeled, seconds: f64) {
        let started = Instant::now();
        while self.times.len() < self.min_passes || started.elapsed().as_secs_f64() < seconds {
            self.pass(data);
        }
    }

    /// Records the phase's metrics and checks in `out`.
    fn finish(self, data: &Labeled, out: &mut Outcome) -> session::Tuned {
        out.attempted += self.checks.attempted;
        for (key, check) in &self.checks.checks {
            out.check(key, *check);
        }
        let examples = self.data(data).0.len();
        let tuned = self.last.expect("at least one tuning pass");
        out.metric("tune_s", stats::median(&self.times));
        out.metric("logo_accuracy", tuned.report.winner_accuracy);
        out.note(
            "tuning",
            Json::obj([
                (
                    "pass_s",
                    Json::Arr(self.times.iter().map(|&t| num(t)).collect()),
                ),
                ("examples", num(examples as f64)),
                ("family", Json::Str(tuned.report.winner_family.clone())),
                ("accuracy", num(tuned.report.winner_accuracy)),
            ]),
        );
        tuned
    }
}

/// Records what a serve phase measured and checked.
fn record_serving(served: &Served, model: &loopml_serve::ServeModel, out: &mut Outcome) {
    let n = served.latencies_ms.len();
    out.attempted += n as u64;
    out.check(
        "serve_vs_choose",
        if served.failed == 0 {
            Check::Passed
        } else {
            Check::Failed(served.failed)
        },
    );
    let sorted = stats::sorted(&served.latencies_ms);
    out.metric("predictions_per_s", served.predictions_per_s());
    out.metric("batch_p50_ms", stats::nearest_rank(&sorted, 50.0));
    let tail = stats::tail_percentile(n);
    out.note(
        "batches",
        Json::obj([
            ("samples", num(n as f64)),
            ("batch_loops", num(session::BATCH as f64)),
            ("model", Json::Str(model.name().into())),
            ("tail_percentile", tail.map_or(Json::Null, Json::Num)),
            (
                "tail_samples_beyond",
                tail.map_or(Json::Null, |p| num(stats::beyond(p, n) as f64)),
            ),
            (
                "tail_ms",
                tail.map_or(Json::Null, |p| num(stats::nearest_rank(&sorted, p))),
            ),
        ]),
    );
}

/// The tail serve phase's model: a default decision tree trained on the
/// whole corpus, over the features selection keeps on the first
/// [`session::TAIL_PER_GROUP`] kept loops of every benchmark (the data
/// of a tail tuning pass).
fn tail_model(data: &Labeled) -> loopml_serve::ServeModel {
    let (sample, _) = data.sample(session::TAIL_PER_GROUP);
    let cols = loopml::informative_features(&sample, session::SELECT_K);
    session::train(ServedModel::Tree, &data.full, &cols)
}

/// `label`: set-up is synthesis alone; then rounds of a labeling pass
/// (the subject), [`TAIL_TUNE_PER_ROUND`] tail tuning passes and one
/// tail serve block, until `--seconds` and at least
/// [`LABEL_MIN_ROUNDS`] rounds.
fn label_session(args: &Args, out: &mut Outcome) {
    let cfg = session::suite_config(CorpusSize::Full, args.seed);
    let mut setup_s = Vec::new();
    let mut suite = Vec::new();
    let started = Instant::now();
    while more_setup(setup_s.len(), started) {
        let (s, t) = session::synthesize(&cfg);
        setup_s.push(t);
        suite = s;
    }
    out.metric("setup_s", stats::median(&setup_s));
    out.note("setup_reps", num(setup_s.len() as f64));
    let attempted = session::unrollable_loops(&suite) as u64;
    let reference = reference::load("label", args.seed);
    let check_loops = |entries: &[String], out: &mut Outcome| {
        out.attempted += attempted;
        out.check("loops", reference::compare(reference.as_deref(), entries));
    };
    let started = Instant::now();
    let (mut labeling, _) = Labeling::new(suite);
    check_loops(&labeling.entries, out);
    if args.record {
        let header = format!(
            "label: per attempted loop in suite order, FNV-1a of (label, runtimes) \
             or - when filtered; seed {}",
            args.seed
        );
        reference::record("label", args.seed, &header, &labeling.entries)
            .expect("write the label reference");
    }
    let mut tuning = Tuning::new(args, &labeling.data);
    let model = tail_model(&labeling.data);
    let mut server = Server::new(&model, args.seed, false);
    let mut rounds = 0;
    loop {
        if rounds > 0 {
            let entries = labeling.again(args.threads, out);
            check_loops(&entries, out);
        }
        for _ in 0..TAIL_TUNE_PER_ROUND {
            tuning.pass(&labeling.data);
        }
        server.block(TAIL_BATCHES / LABEL_MIN_ROUNDS);
        rounds += 1;
        if rounds >= LABEL_MIN_ROUNDS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out.metric("loops_per_s", stats::median(&labeling.rates));
    out.note("label_passes", num(labeling.rates.len() as f64));
    note_corpus(out, &labeling.data);
    tuning.finish(&labeling.data, out);
    record_serving(&server.served, &model, out);
}

/// `tune` and `tune_scaled`: set-up labels the corpus; the subject
/// tuning pass runs between [`SIDE_ROUNDS`] tail rounds before it and as
/// many after it, each a one-worker labeling pass and a tail serve
/// block.
fn tune_session(args: &Args, out: &mut Outcome) {
    let (mut labeling, setup_s) = setup_labeled(args, out);
    out.metric("setup_s", stats::median(&setup_s));
    out.note("setup_reps", num(setup_s.len() as f64));
    note_corpus(out, &labeling.data);
    if args.workload == Workload::TuneScaled {
        pin_tile_budget(labeling.data.full.len(), args.threads);
    }
    let mut tuning = Tuning::new(args, &labeling.data);
    let model = tail_model(&labeling.data);
    let mut server = Server::new(&model, args.seed, false);
    // loops_per_s here is the tail passes' rate alone: they run with one
    // worker, set-up with the workload's count.
    labeling.rates.clear();
    let mut tail_round = |labeling: &mut Labeling, out: &mut Outcome| {
        labeling.again(TAIL_THREADS, out);
        server.block(TAIL_BATCHES / (2 * SIDE_ROUNDS));
    };
    for _ in 0..SIDE_ROUNDS {
        tail_round(&mut labeling, out);
    }
    tuning.run(&labeling.data, args.seconds);
    for _ in 0..SIDE_ROUNDS {
        tail_round(&mut labeling, out);
    }
    out.metric("loops_per_s", stats::median(&labeling.rates));
    tuning.finish(&labeling.data, out);
    record_serving(&server.served, &model, out);
}

/// `serve`: set-up labels the corpus, selects features and trains the
/// paper's SVM; then blocks of [`BLOCK`] batches (the subject), each
/// followed by a tail tuning pass and every other one by a one-worker
/// labeling pass of the corpus's first [`SERVE_TAIL_BENCHMARKS`]
/// benchmarks, until `--seconds` of service and at least
/// [`SERVE_BATCHES`] batches.
fn serve_session(args: &Args, out: &mut Outcome) {
    let (labeling, setup_s) = setup_labeled(args, out);
    let data = &labeling.data;
    note_corpus(out, data);
    let t = Instant::now();
    let cols = loopml::informative_features(&data.full, session::SELECT_K);
    let model = session::train(ServedModel::Svm, &data.full, &cols);
    let train_s = t.elapsed().as_secs_f64();
    out.metric("setup_s", stats::median(&setup_s) + train_s);
    out.note("setup_reps", num(setup_s.len() as f64));
    out.note("train_s", num(train_s));
    let mut tuning = Tuning::new(args, data);
    let head = data.suite[..SERVE_TAIL_BENCHMARKS].to_vec();
    let (mut tail_labeling, _) = with_threads(TAIL_THREADS, || Labeling::new(head));
    let mut server = Server::new(&model, args.seed, false);
    while server.served.latencies_ms.len() < SERVE_BATCHES
        || server.served.service_s() < args.seconds
    {
        server.block(BLOCK);
        tuning.pass(data);
        if server.served.latencies_ms.len().is_multiple_of(2 * BLOCK) {
            tail_labeling.again(TAIL_THREADS, out);
        }
    }
    tuning.run(data, 0.0);
    out.metric("loops_per_s", stats::median(&tail_labeling.rates));
    tuning.finish(data, out);
    record_serving(&server.served, &model, out);
}

/// `--trace 0`: every end-to-end metric, tracing off.
fn untraced_run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match args.workload {
        Workload::Label => label_session(args, &mut out),
        Workload::Tune | Workload::TuneScaled => tune_session(args, &mut out),
        Workload::Serve => serve_session(args, &mut out),
    }
    // Read last, so tune_scaled records the budget it pinned.
    out.note("tile_budget_bytes", num(tile_budget_bytes() as f64));
    out.metric("peak_rss_mib", peak_rss_mib());
    out
}

/// Where the traced run writes its spans.
fn trace_path(args: &Args) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("perfbench").join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// `--trace 1`: the subject phase untraced and then traced, outputs
/// compared, and every per-layer metric from the traced spans.
fn traced_run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let clock = Clock::default();
    let mut spans: Vec<Span> = Vec::new();
    let cfg = session::suite_config(args.workload.corpus(), args.seed);
    let label_cfg = session::label_config();

    // Set-up under its own root: synthesis, plus labeling when labeling
    // is not the subject.
    let mut rec = clock.recorder(None);
    let (suite, setup_labeled) = rec.span("setup", |rec| {
        let suite = rec.span("corpus", |_| loopml_corpus::full_suite(&cfg));
        let labeled = (args.workload != Workload::Label).then(|| {
            let (labeled, worker_spans) =
                traced::label(&clock, rec.current(), &suite, &label_cfg, args.threads);
            spans.extend(worker_spans);
            labeled
        });
        (suite, labeled)
    });
    spans.extend(rec.into_spans());
    let attempted_loops = session::unrollable_loops(&suite);

    // The subject runs three times: the program's own path, whose output
    // the traced pass must reproduce; then the benchmark's calls into the
    // layers with spans off and with spans on. The overhead compares the
    // last two, which do the same work.
    let off = Clock::off();
    let (untraced_s, traced_s, kept, data) = match args.workload {
        Workload::Label => {
            let (labeled, _) = session::label(&suite);
            let t = Instant::now();
            traced::label(&off, None, &suite, &label_cfg, args.threads);
            let untraced_s = t.elapsed().as_secs_f64();
            let mut rec = clock.recorder(None);
            let t = Instant::now();
            let (traced_labeled, worker_spans) = rec.span("pass", |rec| {
                traced::label(&clock, rec.current(), &suite, &label_cfg, args.threads)
            });
            let traced_s = t.elapsed().as_secs_f64();
            spans.extend(worker_spans);
            spans.extend(rec.into_spans());
            let want = reference::label_entries(&suite, &labeled);
            out.attempted += attempted_loops as u64;
            out.check(
                "loops",
                reference::compare(reference::load("label", args.seed).as_deref(), &want),
            );
            out.check(
                "traced_equals_untraced",
                reference::compare(
                    Some(&want),
                    &reference::label_entries(&suite, &traced_labeled),
                ),
            );
            let kept = traced_labeled.len();
            (untraced_s, traced_s, kept, Labeled::new(suite, labeled))
        }
        Workload::Tune | Workload::TuneScaled | Workload::Serve => {
            let traced_labeled = setup_labeled.expect("set-up labeled the corpus");
            let (labeled, _) = session::label(&suite);
            out.check(
                "setup_traced_equals_untraced",
                reference::compare(
                    Some(&reference::label_entries(&suite, &labeled)),
                    &reference::label_entries(&suite, &traced_labeled),
                ),
            );
            let kept = traced_labeled.len();
            let data = Labeled::new(suite, labeled);
            if args.workload == Workload::Serve {
                let cols = loopml::informative_features(&data.full, session::SELECT_K);
                let model = session::train(ServedModel::Svm, &data.full, &cols);
                let mut server = Server::new(&model, args.seed, true);
                while server.served.latencies_ms.len() < SERVE_BATCHES {
                    server.block(BLOCK);
                }
                let untraced = server.served;
                let lines = session::Requests::new(args.seed).lines(SERVE_BATCHES);
                // One worker, as `Server::block` answers.
                let (base, _) = with_threads(1, || traced::serve(&off, &model, &lines));
                let (t, serve_spans) = with_threads(1, || traced::serve(&clock, &model, &lines));
                spans.extend(serve_spans);
                out.attempted += untraced.latencies_ms.len() as u64;
                out.check(
                    "serve_vs_choose",
                    if untraced.failed == 0 {
                        Check::Passed
                    } else {
                        Check::Failed(untraced.failed)
                    },
                );
                out.check(
                    "traced_equals_untraced",
                    reference::compare(Some(&untraced.replies), &t.replies),
                );
                out.metric("rt.json.bytes", t.bytes as f64);
                out.metric("serve.errors", t.errors as f64);
                (base.seconds, t.seconds, kept, data)
            } else {
                if args.workload == Workload::TuneScaled {
                    pin_tile_budget(data.full.len(), args.threads);
                }
                let grid = session::sweep_config(args.workload.grid());
                let untraced = session::tune(&data.full, &data.groups, &grid);
                let t0 = Instant::now();
                traced::tune(&off, &data.full, &data.groups, &grid, args.threads);
                let untraced_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let (t, tune_spans) =
                    traced::tune(&clock, &data.full, &data.groups, &grid, args.threads);
                let traced_s = t0.elapsed().as_secs_f64();
                spans.extend(tune_spans);
                let families = reference::family_entries(&untraced.report);
                out.attempted += families.len() as u64 + 1;
                out.check(
                    "families",
                    reference::compare(
                        reference::load(args.workload.name(), args.seed).as_deref(),
                        &families,
                    ),
                );
                let bad_sweeps = std::iter::once(&untraced.report)
                    .chain(t.families.iter().map(|(_, r)| r))
                    .filter(|r| r.distance_builds != 1)
                    .count() as u64;
                out.check(
                    "distance_builds",
                    if bad_sweeps == 0 {
                        Check::Passed
                    } else {
                        Check::Failed(bad_sweeps)
                    },
                );
                out.check(
                    "traced_equals_untraced",
                    if t.matches(&untraced.report) && t.cols == untraced.cols {
                        Check::Passed
                    } else {
                        Check::Failed(1)
                    },
                );
                out.metric("ml.distance.builds", t.builds_per_sweep as f64);
                out.metric("ml.distance.peak_bytes", t.distance_peak_bytes as f64);
                out.metric("ml.kernel.peak_bytes", t.kernel_peak_bytes as f64);
                for (family, r) in &t.families {
                    let fits = reference::cells(r, family) * r.n_groups;
                    out.metric(traced::sweep_layer(family).2, fits as f64);
                }
                (untraced_s, traced_s, kept, data)
            }
        }
    };
    note_corpus(&mut out, &data);
    // Read last, so tune_scaled records the budget it pinned.
    out.note("tile_budget_bytes", num(tile_budget_bytes() as f64));
    out.metric("core.label.loops", attempted_loops as f64);
    out.metric(
        "core.label.kept_ratio",
        kept as f64 / attempted_loops as f64,
    );

    let a = trace::analyze(&spans);
    let busy = |layer: &str| a.layer(layer).self_ms();
    let calls = |layer: &str| a.layer(layer).calls as f64;
    let layer_metrics = [
        ("corpus.synthesize_ms", busy("corpus")),
        ("core.label.self_ms", busy("core.label")),
        ("opt.unroll.calls", calls("opt.unroll")),
        ("opt.unroll.busy_ms", busy("opt.unroll")),
        ("machine.cost.calls", calls("machine.cost")),
        ("machine.cost.busy_ms", busy("machine.cost")),
        ("core.features.calls", calls("core.features")),
        ("core.features.busy_ms", busy("core.features")),
        ("ml.select.busy_ms", busy("ml.select")),
        ("ml.distance.busy_ms", busy("ml.distance")),
        ("ml.kernel.busy_ms", busy("ml.kernel")),
        ("rt.json.parse_ms", busy("rt.json")),
        ("serve.wire.decode_ms", busy("serve.wire.decode")),
        ("serve.wire.encode_ms", busy("serve.wire.encode")),
        ("ml.predict.busy_ms", busy("ml.predict")),
        ("trace.coverage", a.coverage()),
        ("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0),
        ("trace.spans", spans.len() as f64),
    ];
    for (name, value) in layer_metrics {
        out.metric(name, value);
    }
    for (_, span, busy_metric, _) in traced::SWEEP_LAYERS {
        out.metric(busy_metric, busy(span));
    }
    // Layers this workload never calls read 0.
    for (name, _) in PER_LAYER {
        out.metrics.entry(name).or_insert(0.0);
    }
    let path = trace_path(args);
    let written = trace::write_jsonl(&path, &spans);
    out.note(
        "traced",
        Json::obj([
            ("untraced_s", num(untraced_s)),
            ("traced_s", num(traced_s)),
            ("coverage", num(a.coverage())),
            ("peak_rss_mib", num(peak_rss_mib())),
            ("spans", num(spans.len() as f64)),
            (
                "trace_file",
                Json::Str(match written {
                    Ok(()) => path.display().to_string(),
                    Err(e) => format!("not written: {e}"),
                }),
            ),
        ]),
    );
    out
}

/// The run stamp and checks, as one JSON line.
fn detail_line(args: &Args, nproc: usize, out: &Outcome) -> Json {
    let mut detail: BTreeMap<String, Json> = out
        .detail
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    detail.insert("workload".into(), Json::Str(args.workload.name().into()));
    detail.insert("seed".into(), num(args.seed as f64));
    detail.insert("seconds".into(), num(args.seconds));
    detail.insert("trace".into(), Json::Bool(args.trace));
    detail.insert("threads".into(), num(args.threads as f64));
    detail.insert("nproc".into(), num(nproc as f64));
    detail.insert(
        "rustc".into(),
        Json::Str(command_line("rustc", &["--version"])),
    );
    detail.insert(
        "commit".into(),
        Json::Str(command_line(
            "git",
            &["--git-dir=.git", "rev-parse", "HEAD"],
        )),
    );
    detail.insert(
        "checks".into(),
        Json::Obj(
            out.checks
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Str(v.describe())))
                .collect(),
        ),
    );
    Json::obj([("run", Json::Obj(detail))])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse_args(&argv, nproc, std::env::var("LOOPML_THREADS").ok()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The load shape: `threads` workers, and none of the fault, lint,
    // serving-limit or tile-budget overrides. No thread exists yet.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            k.starts_with("LOOPML_SERVE_")
                || matches!(
                    k.as_str(),
                    "LOOPML_FAULTS" | "LOOPML_LINT" | "LOOPML_LINT_SUPPRESS" | "LOOPML_TILE_BYTES"
                )
        })
        .collect();
    for k in overrides {
        std::env::remove_var(k);
    }
    std::env::set_var("LOOPML_THREADS", args.threads.to_string());

    let ticks = cpu_ticks();
    let mut out = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        out.note("host_steal_pct", num(100.0 * share));
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", detail_line(&args, nproc, &out));
    println!("{}", out.result(names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ms@", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
        assert!(valid_metric_name("0.a-b_c"));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> =
                list.iter().map(|&(n, u)| (n.into(), u.into())).collect();
            assert_eq!(declared, emitted, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, ["label", "tune", "tune_scaled", "serve"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn thread_counts_above_nproc_are_usage_errors() {
        let base = "--workload tune --seed 1 --seconds 10 --trace 0";
        let ok = parse_args(&args(base), 2, None).expect("defaults parse");
        assert_eq!(ok.threads, 2);
        assert_eq!(
            parse_args(&args(base), 1, None).expect("one core").threads,
            1
        );
        assert_eq!(
            parse_args(&args(base), 2, Some("1".into()))
                .expect("LOOPML_THREADS=1")
                .threads,
            1
        );
        let err = parse_args(&args(base), 2, Some("3".into())).unwrap_err();
        assert!(err.contains("nproc"), "{err}");
        assert!(parse_args(&args(base), 2, Some("0".into())).is_err());
        assert!(parse_args(&args(base), 2, Some("two".into())).is_err());
        assert!(parse_args(&args(&format!("{base} --threads 1")), 2, None).is_err());
        assert!(parse_args(
            &args("--workload nope --seed 1 --seconds 1 --trace 0"),
            2,
            None
        )
        .is_err());
        assert!(parse_args(
            &args("--workload tune --seed 1 --seconds 1 --trace 2"),
            2,
            None
        )
        .is_err());
        assert!(parse_args(&args("--workload tune --seconds 1 --trace 0"), 2, None).is_err());
        let hex = parse_args(
            &args("--workload tune --seed 0xC602005 --seconds 1 --trace 1"),
            2,
            None,
        )
        .expect("hex seed");
        assert_eq!(hex.seed, 0xC602005);
        assert!(hex.trace);
    }

    #[test]
    fn result_reports_every_metric_and_fails_on_missing_ones() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.metric(name, 1.5);
        }
        let doc = out.result(&END_TO_END);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        out.metrics.remove("tune_s");
        assert_eq!(
            out.result(&END_TO_END).get("correct"),
            Some(&Json::Bool(false))
        );
        out.metric("tune_s", 2.0);
        out.check("loops", Check::Failed(2));
        let doc = out.result(&END_TO_END);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(2.0));
    }
}
