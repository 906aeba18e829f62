//! The phases a workload runs, through the workspace's public entry
//! points and with tracing off: corpus synthesis, labeling, tuning
//! (feature selection then the LOGO sweep) and closed-loop serving.

use std::time::Instant;

use loopml::{
    benchmark_groups, dataset_fingerprint, informative_features, model_fingerprint, to_dataset,
    LabelConfig, LabeledLoop, LearnedHeuristic, ModelArtifact, UnrollHeuristic,
};
use loopml_corpus::{full_suite, SuiteConfig};
use loopml_ir::{Benchmark, Loop};
use loopml_machine::SwpMode;
use loopml_ml::{
    sweep, Classifier, Dataset, DecisionTree, MulticlassSvm, SvmParams, SweepConfig, SweepReport,
    TreeGrid, TreeParams, DEFAULT_RADIUS,
};
use loopml_rt::{fault_key, par_map, Json};
use loopml_serve::{Request, Response, ServeModel, ServeOptions, ServeSession, SessionReply};

use crate::stats::median;

/// Loops per serve request: one compilation unit's worth of queries.
pub const BATCH: usize = 32;

/// Batches the `serve` workload sends, and each traced serve pass: the
/// fewest for which p99 has ten samples beyond it.
pub const SERVE_BATCHES: usize = 1000;

/// Batches every other serve phase sends: enough for a steady median;
/// their highest reported percentile is p95.
pub const TAIL_BATCHES: usize = 300;

/// Batches the `serve` workload prepares, sends and checks as one block.
pub const BLOCK: usize = 100;

/// Kept examples per benchmark in the data of a tail tuning phase: about
/// 1.5 times the quick corpus's 469 examples over 72 groups.
pub const TAIL_PER_GROUP: usize = 10;

/// Features kept by selection (`PipelineBuilder::paper`'s k).
pub const SELECT_K: usize = 5;

/// Stream tag separating request corpora from the training corpus.
const REQUEST_STREAM: u64 = 0x5E_12E0_0E57;

/// Corpus size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusSize {
    /// 72 benchmarks of 65–85 loops (the paper-scale corpus).
    Full,
    /// 72 benchmarks of 8–12 loops (`--quick`).
    Quick,
    /// The quick corpus with every benchmark grown 4×.
    QuickX4,
}

/// The `SuiteConfig` of a corpus size at `seed`.
pub fn suite_config(size: CorpusSize, seed: u64) -> SuiteConfig {
    let full = SuiteConfig {
        seed,
        ..SuiteConfig::default()
    };
    let quick = SuiteConfig {
        min_loops: 8,
        max_loops: 12,
        ..full
    };
    match size {
        CorpusSize::Full => full,
        CorpusSize::Quick => quick,
        CorpusSize::QuickX4 => SuiteConfig {
            corpus_scale: 4,
            ..quick
        },
    }
}

/// The paper's labeling configuration, SWP disabled.
pub fn label_config() -> LabelConfig {
    LabelConfig::paper(SwpMode::Disabled)
}

/// Loops in a suite.
pub fn total_loops(suite: &[Benchmark]) -> usize {
    suite.iter().map(|b| b.loops.len()).sum()
}

/// Unrollable loops in a suite: the loops labeling measures at all
/// eight factors.
pub fn unrollable_loops(suite: &[Benchmark]) -> usize {
    suite.iter().map(|b| b.unrollable().count()).sum()
}

/// A labeled corpus and the dataset built from it.
#[derive(Debug)]
pub struct Labeled {
    /// The synthesized suite.
    pub suite: Vec<Benchmark>,
    /// The examples the filters kept.
    pub labeled: Vec<LabeledLoop>,
    /// All 38 features of every kept example.
    pub full: Dataset,
    /// Benchmark group of every example.
    pub groups: Vec<usize>,
}

impl Labeled {
    /// Builds the dataset for `labeled`, `label_suite`'s output on `suite`.
    pub fn new(suite: Vec<Benchmark>, labeled: Vec<LabeledLoop>) -> Self {
        let full = to_dataset(&labeled);
        let groups = benchmark_groups(&labeled);
        Labeled {
            suite,
            labeled,
            full,
            groups,
        }
    }

    /// Distinct benchmark groups.
    pub fn n_groups(&self) -> usize {
        let mut g = self.groups.clone();
        g.sort_unstable();
        g.dedup();
        g.len()
    }

    /// The dataset and groups of the first `per_group` kept examples of
    /// every benchmark.
    pub fn sample(&self, per_group: usize) -> (Dataset, Vec<usize>) {
        let mut taken = vec![0usize; self.suite.len()];
        let kept: Vec<LabeledLoop> = self
            .labeled
            .iter()
            .filter(|l| {
                taken[l.benchmark] += 1;
                taken[l.benchmark] <= per_group
            })
            .cloned()
            .collect();
        (to_dataset(&kept), benchmark_groups(&kept))
    }
}

/// Synthesizes a suite, timing it.
pub fn synthesize(cfg: &SuiteConfig) -> (Vec<Benchmark>, f64) {
    let t = Instant::now();
    let suite = full_suite(cfg);
    (suite, t.elapsed().as_secs_f64())
}

/// Labels a suite with `label_suite`, timing it.
pub fn label(suite: &[Benchmark]) -> (Vec<LabeledLoop>, f64) {
    let t = Instant::now();
    let labeled = loopml::label_suite(suite, &label_config());
    (labeled, t.elapsed().as_secs_f64())
}

/// Which sweep grid a tuning phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// `SweepConfig::default()`: all five families (`repro train --tune`).
    Default,
    /// One SVM cell (γ 1, C 10) and one radius, other families empty:
    /// `repro perf`'s `sweep_scaled` stage.
    SvmCell,
    /// One default decision-tree cell, other families empty: the
    /// cheapest complete tuning pass.
    TreeCell,
}

/// The sweep configuration of a grid.
pub fn sweep_config(grid: Grid) -> SweepConfig {
    match grid {
        Grid::Default => SweepConfig::default(),
        Grid::SvmCell => {
            let mut cfg = only_family(&SweepConfig::default(), "svm");
            cfg.svm.gammas = vec![1.0];
            cfg.svm.cs = vec![10.0];
            cfg.radii = vec![DEFAULT_RADIUS];
            cfg
        }
        Grid::TreeCell => {
            let p = TreeParams::default();
            let mut cfg = only_family(&SweepConfig::default(), "tree");
            cfg.tree = TreeGrid {
                max_depths: vec![p.max_depth],
                min_leafs: vec![p.min_leaf],
            };
            cfg
        }
    }
}

/// The same configuration with every family but `family` emptied.
pub fn only_family(cfg: &SweepConfig, family: &str) -> SweepConfig {
    let mut out = cfg.clone();
    if family != "svm" {
        out.svm.gammas.clear();
        out.svm.cs.clear();
    }
    if family != "nn" {
        out.radii.clear();
    }
    if family != "tree" {
        out.tree.max_depths.clear();
        out.tree.min_leafs.clear();
    }
    if family != "forest" {
        out.forest.sizes.clear();
    }
    if family != "mlp" {
        out.mlp.hiddens.clear();
        out.mlp.lrs.clear();
    }
    out
}

/// Result of one tuning pass.
#[derive(Debug)]
pub struct Tuned {
    /// Selected feature columns.
    pub cols: Vec<usize>,
    /// The sweep's report.
    pub report: SweepReport,
    /// Seconds from the labeled dataset to the selected winner.
    pub seconds: f64,
}

/// Feature selection then the LOGO sweep, as `repro train --tune` does.
pub fn tune(full: &Dataset, groups: &[usize], cfg: &SweepConfig) -> Tuned {
    let t = Instant::now();
    let cols = informative_features(full, SELECT_K);
    let data = full.select_features(&cols);
    let report = sweep(&data, groups, cfg);
    Tuned {
        cols,
        report,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Model a serve phase answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedModel {
    /// The paper's SVM (`repro train --model svm`).
    Svm,
    /// A default decision tree (`repro train --model tree`).
    Tree,
}

/// Trains a model on the `cols` subset of `full` and packages it the
/// way `repro train` does, ready to serve.
pub fn train(model: ServedModel, full: &Dataset, cols: &[usize]) -> ServeModel {
    let (name, clf): (&str, Box<dyn Classifier>) = match model {
        ServedModel::Svm => ("SVM", Box::new(MulticlassSvm::new(SvmParams::default()))),
        ServedModel::Tree => ("Tree", Box::new(DecisionTree::new(TreeParams::default()))),
    };
    let data = full.select_features(cols);
    let h = LearnedHeuristic::fit(name, Some(cols.to_vec()), clf, &data);
    let state = h.classifier().save();
    let fp = model_fingerprint(dataset_fingerprint(full), Some(cols), &state);
    let artifact = ModelArtifact::new(name, Some(cols.to_vec()), fp, state);
    ServeModel::from_artifact(artifact).expect("a freshly trained artifact reconstructs")
}

/// Request loops: whole corpora synthesized from seeds derived from the
/// workload seed, so no loop repeats within a run and none is a training
/// loop. A new corpus is drawn whenever the current one runs out.
#[derive(Debug)]
pub struct Requests {
    seed: u64,
    corpora: u64,
    loops: Vec<Loop>,
    next: usize,
    sent: usize,
}

impl Requests {
    /// Request stream of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        Requests {
            seed,
            corpora: 0,
            loops: Vec::new(),
            next: 0,
            sent: 0,
        }
    }

    /// The next batch: the request line carrying the next [`BATCH`]
    /// loops, with id the batch's position in the stream, and the loops.
    pub fn next_batch(&mut self) -> (String, Vec<Loop>) {
        let mut loops = Vec::with_capacity(BATCH);
        while loops.len() < BATCH {
            if self.next == self.loops.len() {
                let seed = fault_key(&[self.seed, REQUEST_STREAM, self.corpora]);
                self.corpora += 1;
                self.loops = full_suite(&suite_config(CorpusSize::Full, seed))
                    .into_iter()
                    .flat_map(|b| b.loops.into_iter().map(|w| w.body))
                    .collect();
                self.next = 0;
            }
            loops.push(self.loops[self.next].clone());
            self.next += 1;
        }
        let line = Request::Loops {
            id: Json::Num(self.sent as f64),
            loops: loops.clone(),
        }
        .to_json()
        .to_string();
        self.sent += 1;
        (line, loops)
    }

    /// The request lines of the next `n` batches.
    pub fn lines(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_batch().0).collect()
    }
}

/// Runs `f` with `threads` workers (`LOOPML_THREADS`), then restores the
/// workload's count. Called only while no worker thread is running.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let workload = std::env::var("LOOPML_THREADS").ok();
    std::env::set_var("LOOPML_THREADS", threads.to_string());
    let r = f();
    match workload {
        Some(t) => std::env::set_var("LOOPML_THREADS", t),
        None => std::env::remove_var("LOOPML_THREADS"),
    }
    r
}

/// What a serve phase measured and checked.
#[derive(Debug, Default)]
pub struct Served {
    /// Client-side milliseconds around each `answer_line` call.
    pub latencies_ms: Vec<f64>,
    /// Factors each batch answered (0 for a failed batch).
    pub answered: Vec<usize>,
    /// Batches whose reply was an error or disagreed with
    /// `LearnedHeuristic::choose`.
    pub failed: u64,
    /// Reply lines, when asked to keep them.
    pub replies: Vec<String>,
}

impl Served {
    /// Seconds of client-timed service.
    pub fn service_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }

    /// Answered factors per second of client-timed service, batch by
    /// batch: the median over batches of the factors a batch answered
    /// divided by its latency. When every batch answers its [`BATCH`]
    /// loops this is `BATCH` over the median latency. The rate over the
    /// whole run is a mean, which a few host stalls moved by up to 30%
    /// between runs of the same seed.
    pub fn predictions_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.answered)
            .map(|(ms, &n)| n as f64 * 1e3 / ms)
            .collect();
        median(&rates)
    }
}

/// A closed loop with one client: request lines go through
/// `ServeSession::answer_line`, the next only after the previous reply.
pub struct Server<'m> {
    model: &'m ServeModel,
    session: ServeSession<'m>,
    requests: Requests,
    keep_replies: bool,
    /// What the blocks sent so far measured and checked.
    pub served: Served,
}

impl<'m> Server<'m> {
    /// A client of `model` sending the request stream of workload seed
    /// `seed`, keeping the reply lines when `keep_replies`.
    pub fn new(model: &'m ServeModel, seed: u64, keep_replies: bool) -> Self {
        Server {
            model,
            session: ServeSession::new(model, ServeOptions::quiet()),
            requests: Requests::new(seed),
            keep_replies,
            served: Served::default(),
        }
    }

    /// Sends the next `n` batches, each timed at the client. The request
    /// lines, and the factors `LearnedHeuristic::choose` gives their
    /// loops, are prepared before the first timed batch and the replies
    /// checked after the last, so neither synthesis nor checking runs
    /// between timed batches. Batches are answered with one worker: a
    /// batch takes about 10 ms, and fanning it out over both vCPUs of a
    /// 2-vCPU machine times how soon the host wakes the second one,
    /// which under load costs more than the batch's own work.
    pub fn block(&mut self, n: usize) {
        let prepared: Vec<(String, Vec<u32>)> = (0..n)
            .map(|_| {
                let (line, loops) = self.requests.next_batch();
                let want = par_map(&loops, |l| self.model.heuristic().choose(l));
                (line, want)
            })
            .collect();
        let mut replies = Vec::with_capacity(n);
        with_threads(1, || {
            for (line, _) in &prepared {
                let t = Instant::now();
                let reply = self.session.answer_line(line);
                self.served
                    .latencies_ms
                    .push(t.elapsed().as_secs_f64() * 1e3);
                replies.push(reply);
            }
        });
        let first = self.served.latencies_ms.len() - n;
        for (i, ((_, want), reply)) in prepared.iter().zip(replies).enumerate() {
            let answered = match &reply {
                Some(SessionReply::Answer(Response::Factors {
                    id: echoed,
                    factors,
                })) if *echoed == Json::Num((first + i) as f64) && factors == want => factors.len(),
                _ => {
                    self.served.failed += 1;
                    0
                }
            };
            self.served.answered.push(answered);
            if self.keep_replies {
                self.served
                    .replies
                    .push(reply.map_or(String::new(), |r| r.to_json().to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_moves_one_batch_of_predictions_per_s_not_the_figure() {
        let mut served = Served {
            latencies_ms: vec![10.0; 100],
            answered: vec![BATCH; 100],
            ..Served::default()
        };
        let steady = BATCH as f64 * 100.0;
        assert!((served.predictions_per_s() - steady).abs() < 1e-9);
        // A 500 ms stall in one batch halves the run's mean rate...
        served.latencies_ms[3] += 500.0;
        let mean = served.answered.iter().sum::<usize>() as f64 / served.service_s();
        assert!(mean < 0.7 * steady);
        // ...but leaves the median batch where it was.
        assert!((served.predictions_per_s() - steady).abs() < 1e-9);
        // Failed batches answer nothing: past half of them, the median is 0.
        served.answered[..60].fill(0);
        assert_eq!(served.predictions_per_s(), 0.0);
    }
}
