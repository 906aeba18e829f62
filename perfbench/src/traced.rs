//! The traced run: the same work as the untraced phases, with the
//! benchmark calling each layer's public functions itself, in the order
//! the program calls them, inside a span per call.

use std::time::Instant;

use loopml::{
    attempt_seed, extract, hot_footprint, informative_features, LabelConfig, LabeledLoop,
    MAX_UNROLL, NUM_FEATURES,
};
use loopml_ir::{Benchmark, WeightedLoop};
use loopml_machine::{icache_entry_cost, loop_cost};
use loopml_ml::{
    peak_distance_bytes, peak_kernel_bytes, reset_distance_bytes, reset_kernel_bytes, sweep,
    Dataset, DistanceMatrix, KernelCache, MinMaxNormalizer, SweepConfig, SweepReport,
};
use loopml_opt::unroll_and_optimize;
use loopml_rt::{par_map_threads, Json, Rng};
use loopml_serve::{Request, Response, ServeModel};

use crate::reference::FAMILIES;
use crate::session::{only_family, SELECT_K};
use crate::trace::{Clock, Recorder, Span};

/// Labels `suite` exactly as `label_suite` does — benchmarks spread over
/// `threads` workers, loops of one benchmark in order — with a
/// `core.label` span per benchmark on its worker and `opt.unroll`,
/// `machine.cost` and `core.features` spans around every call into
/// those layers. Worker spans hang under `parent`.
pub fn label(
    clock: &Clock,
    parent: Option<u32>,
    suite: &[Benchmark],
    cfg: &LabelConfig,
    threads: usize,
) -> (Vec<LabeledLoop>, Vec<Span>) {
    assert!(
        !cfg.lint.is_enabled(),
        "the traced labeler mirrors the unvalidated labeling path"
    );
    let indexed: Vec<(usize, &Benchmark)> = suite.iter().enumerate().collect();
    let per_benchmark = par_map_threads(threads, &indexed, |&(bi, b)| {
        let mut rec = clock.recorder(parent);
        rec.set_request(bi as u64);
        let kept = rec.span("core.label", |rec| label_benchmark(rec, b, bi, cfg));
        (kept, rec.into_spans())
    });
    let mut labeled = Vec::new();
    let mut spans = Vec::new();
    for (kept, s) in per_benchmark {
        labeled.extend(kept);
        spans.extend(s);
    }
    (labeled, spans)
}

/// `label_benchmark` for one benchmark: every unrollable loop measured at
/// factors 1..=8 through the noise model, then the paper's filters.
fn label_benchmark(
    rec: &mut Recorder<'_>,
    b: &Benchmark,
    bi: usize,
    cfg: &LabelConfig,
) -> Vec<LabeledLoop> {
    let footprint = hot_footprint(b);
    let mut out = Vec::new();
    for (li, w) in b.unrollable() {
        let mut rng = Rng::seed_from_u64(attempt_seed(cfg.seed, bi, li, 0));
        let mut runtimes = [0.0f64; MAX_UNROLL as usize];
        for f in 1..=MAX_UNROLL {
            let truth = true_cycles(rec, w, f, footprint, cfg);
            let measured = cfg.noise.measure(truth, &mut rng);
            assert!(
                measured.is_finite(),
                "non-finite measurement of {} at factor {f}",
                w.body.name
            );
            runtimes[(f - 1) as usize] = measured;
        }
        let (best_idx, &best) = runtimes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("eight runtimes");
        let mean: f64 = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
        if best < cfg.min_cycles || mean / best < cfg.min_benefit {
            continue;
        }
        let features = rec.span("core.features", |_| extract(&w.body));
        out.push(LabeledLoop {
            name: w.body.name.clone(),
            benchmark: bi,
            features,
            label: best_idx,
            runtimes,
        });
    }
    out
}

/// `true_cycles` with a span around each unroll and each cost query.
fn true_cycles(
    rec: &mut Recorder<'_>,
    w: &WeightedLoop,
    factor: u32,
    footprint: u64,
    cfg: &LabelConfig,
) -> f64 {
    let rolled = rec.span("opt.unroll", |_| unroll_and_optimize(&w.body, 1, &cfg.opt));
    let rolled_cost = rec.span("machine.cost", |_| {
        loop_cost(&rolled, 0.0, &cfg.machine, cfg.swp)
    });
    let (cost, trips) = if factor == 1 {
        (rolled_cost, rolled.body.trip_count.dynamic())
    } else {
        let u = rec.span("opt.unroll", |_| {
            unroll_and_optimize(&w.body, factor, &cfg.opt)
        });
        let c = rec.span("machine.cost", |_| {
            loop_cost(&u, rolled_cost.per_iter, &cfg.machine, cfg.swp)
        });
        (c, u.body.trip_count.dynamic())
    };
    let icache = icache_entry_cost(cost.code_bytes, footprint, &cfg.machine);
    cost.total(trips, w.entries) + icache * w.entries as f64
}

/// Per family: its sweep's span name, busy-time metric and fits metric.
pub const SWEEP_LAYERS: [(&str, &str, &str, &str); 5] = [
    (
        "nn",
        "ml.sweep.nn",
        "ml.sweep.nn.busy_ms",
        "ml.sweep.nn.fits",
    ),
    (
        "svm",
        "ml.sweep.svm",
        "ml.sweep.svm.busy_ms",
        "ml.sweep.svm.fits",
    ),
    (
        "tree",
        "ml.sweep.tree",
        "ml.sweep.tree.busy_ms",
        "ml.sweep.tree.fits",
    ),
    (
        "forest",
        "ml.sweep.forest",
        "ml.sweep.forest.busy_ms",
        "ml.sweep.forest.fits",
    ),
    (
        "mlp",
        "ml.sweep.mlp",
        "ml.sweep.mlp.busy_ms",
        "ml.sweep.mlp.fits",
    ),
];

/// The [`SWEEP_LAYERS`] row of `family`.
pub fn sweep_layer(family: &str) -> (&'static str, &'static str, &'static str) {
    SWEEP_LAYERS
        .iter()
        .find(|row| row.0 == family)
        .map(|&(_, span, busy, fits)| (span, busy, fits))
        .unwrap_or_else(|| unreachable!("unknown family {family}"))
}

/// Grid cells `cfg` gives a family.
pub fn grid_cells(cfg: &SweepConfig, family: &str) -> usize {
    match family {
        "nn" => cfg.radii.len(),
        "svm" => cfg.svm.gammas.len() * cfg.svm.cs.len(),
        "tree" => cfg.tree.max_depths.len() * cfg.tree.min_leafs.len(),
        "forest" => cfg.forest.sizes.len(),
        "mlp" => cfg.mlp.hiddens.len() * cfg.mlp.lrs.len(),
        other => unreachable!("unknown family {other}"),
    }
}

/// Everything a family contributes to a sweep report: its cells, its
/// selected hyperparameters and their accuracy, bit for bit.
pub fn family_signature(r: &SweepReport, family: &str) -> String {
    match family {
        "nn" => format!(
            "{:?} {:?} {:?}",
            r.nn_cells, r.selected_radius, r.nn_accuracy
        ),
        "svm" => format!(
            "{:?} {:?} {:?}",
            r.svm_cells, r.selected_svm, r.svm_accuracy
        ),
        "tree" => format!(
            "{:?} {:?} {:?}",
            r.tree_cells, r.selected_tree, r.tree_accuracy
        ),
        "forest" => format!(
            "{:?} {:?} {:?}",
            r.forest_cells, r.selected_forest, r.forest_accuracy
        ),
        "mlp" => format!(
            "{:?} {:?} {:?}",
            r.mlp_cells, r.selected_mlp, r.mlp_accuracy
        ),
        other => unreachable!("unknown family {other}"),
    }
}

/// The traced tuning pass, one sweep per family.
#[derive(Debug)]
pub struct TracedTune {
    /// Selected feature columns.
    pub cols: Vec<usize>,
    /// Each scored family with the report of its own sweep.
    pub families: Vec<(&'static str, SweepReport)>,
    /// Largest `distance_builds` of any one sweep (the contract is 1).
    pub builds_per_sweep: u64,
    /// Peak distance bytes live during the family sweeps.
    pub distance_peak_bytes: u64,
    /// Peak kernel bytes live during the family sweeps.
    pub kernel_peak_bytes: u64,
}

impl TracedTune {
    /// The cross-family winner by the sweep's rule: highest accuracy,
    /// ties to the earlier family in [`FAMILIES`] order.
    pub fn winner(&self) -> Option<(&'static str, f64)> {
        let mut best: Option<(&'static str, f64)> = None;
        for (f, r) in &self.families {
            let acc = crate::reference::accuracy(r, f);
            if best.is_none_or(|(_, b)| acc > b) {
                best = Some((f, acc));
            }
        }
        best
    }

    /// Whether this pass reproduces the untraced report exactly.
    pub fn matches(&self, untraced: &SweepReport) -> bool {
        let scored: Vec<&str> = FAMILIES
            .iter()
            .copied()
            .filter(|f| crate::reference::cells(untraced, f) > 0)
            .collect();
        scored.len() == self.families.len()
            && self.families.iter().zip(&scored).all(|((f, r), g)| {
                f == g && family_signature(r, f) == family_signature(untraced, f)
            })
            && self.winner().map(|(f, a)| (f.to_string(), a))
                == Some((untraced.winner_family.clone(), untraced.winner_accuracy))
    }
}

/// Feature selection, the dense distance matrix and per-gamma kernels
/// the sweep builds first, then one sweep per family with the other
/// families' grids emptied — all under one `pass` root span.
pub fn tune(
    clock: &Clock,
    full: &Dataset,
    groups: &[usize],
    cfg: &SweepConfig,
    threads: usize,
) -> (TracedTune, Vec<Span>) {
    let mut rec = clock.recorder(None);
    let out = rec.span("pass", |rec| {
        let cols = rec.span("ml.select", |_| informative_features(full, SELECT_K));
        let data = full.select_features(&cols);
        let dm = rec.span("ml.distance", |_| {
            let xs = MinMaxNormalizer::fit(&data.x).transform(&data.x);
            DistanceMatrix::compute(&xs)
        });
        rec.span("ml.kernel", |_| {
            let kernels = par_map_threads(threads, &cfg.svm.gammas, |&g| {
                KernelCache::from_distances(&dm, g)
            });
            std::hint::black_box(kernels);
        });
        drop(dm);
        // Peaks below are the sweeps' own, not the probe calls' above.
        reset_distance_bytes();
        reset_kernel_bytes();
        let mut families = Vec::new();
        for family in FAMILIES {
            if grid_cells(cfg, family) == 0 {
                continue;
            }
            let one = only_family(cfg, family);
            let r = rec.span(sweep_layer(family).0, |_| sweep(&data, groups, &one));
            families.push((family, r));
        }
        TracedTune {
            cols,
            builds_per_sweep: families
                .iter()
                .map(|(_, r)| r.distance_builds)
                .max()
                .unwrap_or(0),
            families,
            distance_peak_bytes: peak_distance_bytes(),
            kernel_peak_bytes: peak_kernel_bytes(),
        }
    });
    (out, rec.into_spans())
}

/// What a serve pass through the layers answered.
#[derive(Debug, Default)]
pub struct TracedServe {
    /// Reply lines, in batch order.
    pub replies: Vec<String>,
    /// Request bytes parsed.
    pub bytes: usize,
    /// Batches that could not be answered with factors.
    pub errors: u64,
    /// Seconds spent answering, summed over batches.
    pub seconds: f64,
}

/// Answers request `lines` — the lines the untraced serve phase sends —
/// through the layers `answer_line` runs: `rt.json` parse,
/// `serve.wire.decode`, `core.features`, `ml.predict`,
/// `serve.wire.encode`, under one `serve.batch` root per request.
pub fn serve(clock: &Clock, model: &ServeModel, lines: &[String]) -> (TracedServe, Vec<Span>) {
    let cols = model
        .artifact()
        .feature_subset
        .clone()
        .expect("served models carry a feature subset");
    assert!(
        cols.iter().all(|&c| c < NUM_FEATURES),
        "the traced serve path extracts the 38 static features only"
    );
    let mut rec = clock.recorder(None);
    let mut out = TracedServe::default();
    for (id, line) in lines.iter().enumerate() {
        out.bytes += line.len();
        rec.set_request(id as u64);
        let t = Instant::now();
        let reply = rec.span("serve.batch", |rec| answer(rec, model, &cols, line));
        out.seconds += t.elapsed().as_secs_f64();
        match reply {
            Some(text) => out.replies.push(text),
            None => {
                out.errors += 1;
                out.replies.push(String::new());
            }
        }
    }
    (out, rec.into_spans())
}

/// One batch through the layers; `None` when it cannot be answered with
/// factors.
fn answer(
    rec: &mut Recorder<'_>,
    model: &ServeModel,
    cols: &[usize],
    line: &str,
) -> Option<String> {
    let doc = rec.span("rt.json", |_| Json::parse(line)).ok()?;
    let request = rec.span("serve.wire.decode", |_| Request::from_json(&doc));
    let Ok(Request::Loops { id, loops }) = request else {
        return None;
    };
    let (rows, unrollable) = rec.span("core.features", |_| {
        let mut rows = Vec::new();
        let mut unrollable = Vec::new();
        for (i, l) in loops.iter().enumerate() {
            if l.is_unrollable() {
                let full = extract(l);
                rows.push(cols.iter().map(|&c| full[c]).collect::<Vec<f64>>());
                unrollable.push(i);
            }
        }
        (rows, unrollable)
    });
    let classes = rec.span("ml.predict", |_| {
        model.heuristic().classifier().predict_batch(&rows)
    });
    let mut factors = vec![1u32; loops.len()];
    for (&i, class) in unrollable.iter().zip(classes) {
        factors[i] = (class as u32 + 1).min(MAX_UNROLL);
    }
    Some(rec.span("serve.wire.encode", |_| {
        Response::Factors { id, factors }.to_json().to_string()
    }))
}
