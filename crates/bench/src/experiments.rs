//! The experiment implementations, one per table/figure of the paper.

use loopml::{
    improvement, measure_benchmark, measure_oracle, EvalConfig, OrcHeuristic, OrcSwpHeuristic,
    Pipeline, UnrollHeuristic, FEATURE_NAMES,
};
use loopml_machine::SwpMode;
use loopml_ml::{
    greedy_forward, greedy_forward_nn, loocv_nn, loocv_svm, mutual_information, Dataset,
    GreedyStep, Lda2d, MulticlassSvm, NearNeighbors, ScoredFeature, SvmParams, DEFAULT_RADIUS,
};
use loopml_rt::par_map_result;

// ---------------------------------------------------------------------
// Table 2 — prediction-rank distribution and mispredict cost
// ---------------------------------------------------------------------

/// One classifier column of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RankColumn {
    /// Classifier name.
    pub name: String,
    /// `dist[r]` = fraction of predictions whose factor ranked `r`-th
    /// best (0 = optimal).
    pub dist: [f64; 8],
}

impl RankColumn {
    /// Fraction of optimal predictions.
    pub fn optimal(&self) -> f64 {
        self.dist[0]
    }

    /// Fraction of optimal-or-second-best predictions.
    pub fn near_optimal(&self) -> f64 {
        self.dist[0] + self.dist[1]
    }
}

/// Table 2: rank distributions for NN, SVM and the ORC baseline, plus
/// the average mispredict cost per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// NN, SVM, ORC columns.
    pub columns: Vec<RankColumn>,
    /// `cost[r]` = mean runtime penalty (× optimal) of predicting the
    /// rank-`r` factor.
    pub cost: [f64; 8],
}

fn rank_distribution(ctx: &Pipeline, predictions: &[u32], name: &str) -> RankColumn {
    let mut dist = [0.0f64; 8];
    for (l, &p) in ctx.labeled.iter().zip(predictions) {
        dist[l.rank_of(p)] += 1.0;
    }
    for d in &mut dist {
        *d /= ctx.labeled.len() as f64;
    }
    RankColumn {
        name: name.to_string(),
        dist,
    }
}

/// Runs the Table 2 experiment.
pub fn table2(ctx: &Pipeline) -> Table2 {
    // NN and SVM: leave-one-out over the informative-feature dataset.
    let nn_cv = loocv_nn(&ctx.dataset, DEFAULT_RADIUS);
    let svm_cv = loocv_svm(&ctx.dataset, SvmParams::default());
    let nn_pred: Vec<u32> = nn_cv.predictions.iter().map(|&c| c as u32 + 1).collect();
    let svm_pred: Vec<u32> = svm_cv.predictions.iter().map(|&c| c as u32 + 1).collect();

    // ORC baseline: no training involved. In the non-SWP regime the
    // decision is a pure function of the stored features, so the
    // [`loopml::OrcClassifier`] adapter answers directly; the SWP-era
    // heuristic consults the scheduler and needs the loop itself.
    let orc_pred: Vec<u32> = match ctx.label_config.swp {
        SwpMode::Disabled => {
            use loopml_ml::Classifier;
            ctx.labeled
                .iter()
                .map(|l| loopml::OrcClassifier.predict(&l.features) as u32 + 1)
                .collect()
        }
        SwpMode::Enabled => {
            let orc = OrcSwpHeuristic::default();
            let by_name: std::collections::HashMap<&str, &loopml_ir::Loop> = ctx
                .suite
                .iter()
                .flat_map(|b| b.loops.iter().map(|w| (w.body.name.as_str(), &w.body)))
                .collect();
            ctx.labeled
                .iter()
                .map(|l| orc.choose(by_name[l.name.as_str()]))
                .collect()
        }
    };

    // Cost column: average penalty of landing at each rank.
    let mut cost = [0.0f64; 8];
    for l in &ctx.labeled {
        let ranked = l.ranked_factors();
        let best = ranked[0].1;
        for (r, &(_, t)) in ranked.iter().enumerate() {
            cost[r] += t / best;
        }
    }
    for c in &mut cost {
        *c /= ctx.labeled.len() as f64;
    }

    Table2 {
        columns: vec![
            rank_distribution(ctx, &nn_pred, "NN"),
            rank_distribution(ctx, &svm_pred, "SVM"),
            rank_distribution(ctx, &orc_pred, "ORC"),
        ],
        cost,
    }
}

// ---------------------------------------------------------------------
// Figure 3 — histogram of optimal unroll factors
// ---------------------------------------------------------------------

/// Figure 3: fraction of loops whose optimal factor is each of 1..=8.
pub fn fig3(ctx: &Pipeline) -> [f64; 8] {
    let mut hist = [0.0f64; 8];
    for l in &ctx.labeled {
        hist[l.label] += 1.0;
    }
    for h in &mut hist {
        *h /= ctx.labeled.len() as f64;
    }
    hist
}

// ---------------------------------------------------------------------
// Figures 1 & 2 — LDA projections
// ---------------------------------------------------------------------

/// A projected point for the scatter plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedPoint {
    /// Plane coordinates.
    pub x: f64,
    /// Second plane coordinate.
    pub y: f64,
    /// Optimal unroll factor of the loop.
    pub factor: u32,
}

/// Figure 1: loops with factors {1,2,4,8} whose optimum beats the other
/// three factors by ≥30%, projected onto the LDA plane.
pub fn fig1(ctx: &Pipeline) -> Vec<ProjectedPoint> {
    let keep_factors = [1u32, 2, 4, 8];
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut factors = Vec::new();
    for l in &ctx.labeled {
        let f = l.best_factor();
        if !keep_factors.contains(&f) {
            continue;
        }
        // ≥30% better than the other three displayed factors.
        let own = l.runtimes[l.label];
        let others_ok = keep_factors
            .iter()
            .filter(|&&k| k != f)
            .all(|&k| l.runtimes[(k - 1) as usize] / own >= 1.3);
        if !others_ok {
            continue;
        }
        rows.push(l.features.clone());
        labels.push(keep_factors.iter().position(|&k| k == f).expect("kept"));
        factors.push(f);
    }
    if rows.len() < 8 {
        return Vec::new();
    }
    let d = Dataset::new(
        rows.clone(),
        labels,
        4,
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        (0..rows.len()).map(|i| format!("p{i}")).collect(),
    );
    let lda = Lda2d::fit(&d);
    d.x.iter()
        .zip(&factors)
        .map(|(x, &factor)| {
            let (px, py) = lda.project(x);
            ProjectedPoint {
                x: px,
                y: py,
                factor,
            }
        })
        .collect()
}

/// Figure 2: binary (unroll vs. don't) projection with the SVM's decision
/// on a grid over the plane. Returns the points and a decision grid
/// sampled at `grid x grid` positions (true = unroll).
pub fn fig2(ctx: &Pipeline, grid: usize) -> (Vec<ProjectedPoint>, Vec<Vec<bool>>) {
    // Binary problem: factor 1 vs factor > 1, with a 30% margin.
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for l in &ctx.labeled {
        let own = l.runtimes[l.label];
        let other_best = if l.label == 0 {
            l.runtimes[1..]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
        } else {
            l.runtimes[0]
        };
        if other_best / own < 1.3 {
            continue;
        }
        rows.push(l.features.clone());
        labels.push(usize::from(l.label > 0));
    }
    if rows.len() < 8 {
        return (Vec::new(), Vec::new());
    }
    let d = Dataset::new(
        rows.clone(),
        labels.clone(),
        2,
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        (0..rows.len()).map(|i| format!("p{i}")).collect(),
    );
    let lda = Lda2d::fit(&d);
    let points: Vec<ProjectedPoint> =
        d.x.iter()
            .zip(&labels)
            .map(|(x, &l)| {
                let (px, py) = lda.project(x);
                ProjectedPoint {
                    x: px,
                    y: py,
                    factor: if l == 1 { 2 } else { 1 },
                }
            })
            .collect();

    // Train an SVM on the 2-D projected data and sample its decisions.
    let projected: Vec<Vec<f64>> = points.iter().map(|p| vec![p.x, p.y]).collect();
    let d2 = Dataset::new(
        projected,
        labels,
        2,
        vec!["lda-1".into(), "lda-2".into()],
        (0..points.len()).map(|i| format!("p{i}")).collect(),
    );
    let svm = MulticlassSvm::fit(
        &d2,
        SvmParams {
            gamma: 4.0,
            ..SvmParams::default()
        },
    );
    let (xmin, xmax) = min_max(points.iter().map(|p| p.x));
    let (ymin, ymax) = min_max(points.iter().map(|p| p.y));
    let mut grid_out = Vec::with_capacity(grid);
    for gy in 0..grid {
        let mut row = Vec::with_capacity(grid);
        for gx in 0..grid {
            let x = xmin + (xmax - xmin) * gx as f64 / (grid - 1).max(1) as f64;
            let y = ymin + (ymax - ymin) * gy as f64 / (grid - 1).max(1) as f64;
            row.push(svm.predict(&[x, y]) == 1);
        }
        grid_out.push(row);
    }
    (points, grid_out)
}

fn min_max(it: impl Iterator<Item = f64>) -> (f64, f64) {
    it.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

// ---------------------------------------------------------------------
// Figures 4 & 5 — realized SPEC 2000 speedups
// ---------------------------------------------------------------------

/// One benchmark row of Figure 4/5.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// `true` for SPECfp-side benchmarks.
    pub is_fp: bool,
    /// NN improvement over ORC.
    pub nn: f64,
    /// SVM improvement over ORC.
    pub svm: f64,
    /// Oracle improvement over ORC.
    pub oracle: f64,
}

/// Figure 4/5 result: per-benchmark rows plus aggregate means.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// Per-benchmark improvements.
    pub rows: Vec<SpeedupRow>,
    /// Arithmetic-mean improvements (NN, SVM, oracle) over all rows.
    pub mean: (f64, f64, f64),
    /// Means over the SPECfp subset.
    pub mean_fp: (f64, f64, f64),
    /// Count of benchmarks where (NN, SVM) beat ORC.
    pub wins: (usize, usize),
}

/// Runs the Figure 4 (SWP disabled) or Figure 5 (SWP enabled)
/// experiment: for each SPEC 2000 benchmark, train on every *other*
/// benchmark's loops, compile, and compare against the ORC baseline and
/// the oracle.
///
/// The 24 leave-one-benchmark-out rows are independent — each trains its
/// own classifier pair and measures through a per-benchmark-seeded noise
/// stream — so they are evaluated in parallel across cores with results
/// identical to a serial run. A row whose measurement crashes (e.g. an
/// injected `eval.bench` fault under `LOOPML_FAULTS`) is dropped from
/// the figure with a stderr note instead of taking down the run.
pub fn speedup_figure(ctx: &Pipeline) -> SpeedupFigure {
    let swp = ctx.label_config.swp;
    let ec = EvalConfig::paper(swp);

    let spec: Vec<(usize, &loopml_ir::Benchmark)> = ctx
        .suite
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            loopml_corpus::ROSTER
                .iter()
                .any(|e| e.spec2000 && e.name == b.name)
        })
        .collect();

    let results = par_map_result(&spec, |&(bi, b)| {
        // Exclude this benchmark's loops from training (paper protocol).
        let nn_h = ctx.heuristic_excluding("NN", Box::new(NearNeighbors::new(DEFAULT_RADIUS)), bi);
        let svm_h = ctx.heuristic_excluding(
            "SVM",
            Box::new(MulticlassSvm::new(SvmParams::default())),
            bi,
        );
        let orc: Box<dyn UnrollHeuristic> = match swp {
            SwpMode::Disabled => Box::new(OrcHeuristic),
            SwpMode::Enabled => Box::new(OrcSwpHeuristic::default()),
        };

        let t_orc = measure_benchmark(b, orc.as_ref(), &ec);
        let t_nn = measure_benchmark(b, &nn_h, &ec);
        let t_svm = measure_benchmark(b, &svm_h, &ec);
        let t_oracle = measure_oracle(b, &ec);

        SpeedupRow {
            name: b.name.clone(),
            is_fp: b.is_fp,
            nn: improvement(t_orc, t_nn),
            svm: improvement(t_orc, t_svm),
            oracle: improvement(t_orc, t_oracle),
        }
    });
    let rows: Vec<SpeedupRow> = spec
        .iter()
        .zip(results)
        .filter_map(|(&(_, b), r)| match r {
            Ok(row) => Some(row),
            Err(e) => {
                eprintln!("[speedup] dropping {}: {}", b.name, e.message);
                None
            }
        })
        .collect();

    let mean3 = |f: &dyn Fn(&SpeedupRow) -> f64, rows: &[&SpeedupRow]| {
        rows.iter().map(|r| f(r)).sum::<f64>() / rows.len().max(1) as f64
    };
    let all: Vec<&SpeedupRow> = rows.iter().collect();
    let fp: Vec<&SpeedupRow> = rows.iter().filter(|r| r.is_fp).collect();
    SpeedupFigure {
        mean: (
            mean3(&|r| r.nn, &all),
            mean3(&|r| r.svm, &all),
            mean3(&|r| r.oracle, &all),
        ),
        mean_fp: (
            mean3(&|r| r.nn, &fp),
            mean3(&|r| r.svm, &fp),
            mean3(&|r| r.oracle, &fp),
        ),
        wins: (
            rows.iter().filter(|r| r.nn > 0.0).count(),
            rows.iter().filter(|r| r.svm > 0.0).count(),
        ),
        rows,
    }
}

// ---------------------------------------------------------------------
// Tables 3 & 4 — feature selection
// ---------------------------------------------------------------------

/// Table 3: features ranked by mutual information score.
pub fn table3(ctx: &Pipeline) -> Vec<ScoredFeature> {
    mutual_information(&ctx.full_dataset)
}

/// Table 4: greedy forward selection traces for the 1-NN and SVM
/// criteria.
pub fn table4(ctx: &Pipeline, steps: usize) -> (Vec<GreedyStep>, Vec<GreedyStep>) {
    // Incremental distance cache: same trace as the direct
    // `nn1_training_error` criterion, O(n²) per candidate.
    let nn_trace = greedy_forward_nn(&ctx.full_dataset, steps);
    // The SVM criterion is expensive; subsample large datasets.
    let svm_data = subsample(&ctx.full_dataset, 400);
    let svm_trace = greedy_forward(&svm_data, steps, |d| {
        loopml::svm_training_error(
            d,
            SvmParams {
                max_sweeps: 20,
                ..SvmParams::default()
            },
        )
    });
    (nn_trace, svm_trace)
}

/// Keeps every ~stride-th example so the subsample spans all benchmarks.
fn subsample(data: &Dataset, cap: usize) -> Dataset {
    if data.len() <= cap {
        return data.clone();
    }
    let stride = data.len() as f64 / cap as f64;
    let mut drop = vec![true; data.len()];
    let mut t = 0.0f64;
    while (t as usize) < data.len() {
        drop[t as usize] = false;
        t += stride;
    }
    data.without_examples(&drop)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Named accuracy result for an ablation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Variant description.
    pub variant: String,
    /// LOOCV accuracy.
    pub accuracy: f64,
}

/// Ablation: NN with and without feature normalization (paper §5.1:
/// "the feature vector is normalized to weigh all features equally;
/// otherwise, features with large values such as loop tripcount would
/// grossly outweigh small-valued features").
pub fn ablate_normalization(ctx: &Pipeline) -> Vec<Ablation> {
    use loopml_ml::NearNeighbors;
    let with = loocv_nn(&ctx.dataset, DEFAULT_RADIUS).accuracy;
    // Raw feature values: trip counts dominate the Euclidean distance.
    // The radius is scaled up so the raw classifier still finds
    // neighbors at all; the point is the distance *weighting*.
    let raw_nn = NearNeighbors::fit_unnormalized(&ctx.dataset, 100.0);
    let correct = (0..ctx.dataset.len())
        .filter(|&i| raw_nn.predict_excluding(&ctx.dataset.x[i], i).label == ctx.dataset.y[i])
        .count();
    let raw = correct as f64 / ctx.dataset.len() as f64;
    vec![
        Ablation {
            variant: "NN, min-max normalized features".into(),
            accuracy: with,
        },
        Ablation {
            variant: "NN, raw (unnormalized) features".into(),
            accuracy: raw,
        },
    ]
}

/// Ablation: radius-vote NN vs pure 1-NN.
pub fn ablate_radius(ctx: &Pipeline) -> Vec<Ablation> {
    let radius = loocv_nn(&ctx.dataset, DEFAULT_RADIUS).accuracy;
    let tiny = loocv_nn(&ctx.dataset, 1e-6).accuracy; // degenerates to 1-NN
    vec![
        Ablation {
            variant: format!("NN, radius {DEFAULT_RADIUS} majority vote"),
            accuracy: radius,
        },
        Ablation {
            variant: "NN, pure nearest neighbor".into(),
            accuracy: tiny,
        },
    ]
}

/// Ablation: informative feature subset vs all 38 features.
pub fn ablate_features(ctx: &Pipeline) -> Vec<Ablation> {
    let subset = loocv_nn(&ctx.dataset, DEFAULT_RADIUS).accuracy;
    let all = loocv_nn(&ctx.full_dataset, DEFAULT_RADIUS).accuracy;
    vec![
        Ablation {
            variant: format!("NN, {} informative features", ctx.dataset.dims()),
            accuracy: subset,
        },
        Ablation {
            variant: "NN, all 38 features".into(),
            accuracy: all,
        },
    ]
}

/// Ablation: label filtering (≥50k cycles, ≥1.05× benefit) on vs off.
pub fn ablate_filter(ctx: &Pipeline) -> Vec<Ablation> {
    use loopml::LabelConfig;
    let filtered = loocv_nn(&ctx.dataset, DEFAULT_RADIUS).accuracy;
    let lax_cfg = LabelConfig {
        min_cycles: 0.0,
        min_benefit: 1.0,
        ..ctx.label_config.clone()
    };
    let lax_labeled = loopml::label_suite(&ctx.suite, &lax_cfg);
    let lax_full = loopml::to_dataset(&lax_labeled);
    let lax_data = match &ctx.feature_subset {
        Some(cols) => lax_full.select_features(cols),
        None => lax_full,
    };
    let lax = loocv_nn(&lax_data, DEFAULT_RADIUS).accuracy;
    vec![
        Ablation {
            variant: "NN, filtered labels (paper)".into(),
            accuracy: filtered,
        },
        Ablation {
            variant: "NN, unfiltered labels".into(),
            accuracy: lax,
        },
    ]
}
