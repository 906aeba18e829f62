//! Shape assertions on the paper's experiments at reduced (Quick) scale:
//! the qualitative findings that must hold for the reproduction to be
//! meaningful, independent of exact percentages.

use loopml::Pipeline;
use loopml_bench::{experiments, Scale};
use std::sync::OnceLock;

fn ctx_off() -> &'static Pipeline {
    static CTX: OnceLock<Pipeline> = OnceLock::new();
    CTX.get_or_init(|| Scale::Quick.builder(1).build())
}

#[test]
fn labeled_corpus_is_nontrivial() {
    let ctx = ctx_off();
    assert!(ctx.len() >= 100, "quick corpus has {} examples", ctx.len());
    assert!(ctx.dataset.dims() >= 5);
    assert!(ctx.dataset.dims() <= 10, "informative subset stays small");
}

#[test]
fn table2_learned_beats_orc_and_costs_are_monotone() {
    let t = experiments::table2(ctx_off());
    let nn = &t.columns[0];
    let svm = &t.columns[1];
    let orc = &t.columns[2];
    assert!(nn.optimal() > orc.optimal(), "NN must beat ORC");
    assert!(svm.optimal() > orc.optimal(), "SVM must beat ORC");
    assert!(nn.optimal() >= 0.5, "NN optimal-rate {:.2}", nn.optimal());
    assert!(svm.near_optimal() >= 0.7);
    // Distributions are probability vectors.
    for c in &t.columns {
        let sum: f64 = c.dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", c.name);
    }
    // Mispredict cost grows with rank (paper's Cost column).
    for w in t.cost.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "cost not monotone: {:?}", t.cost);
    }
    assert!((t.cost[0] - 1.0).abs() < 1e-9);
}

#[test]
fn fig3_histogram_shape() {
    let h = experiments::fig3(ctx_off());
    let sum: f64 = h.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // Power-of-two factors dominate (paper: "non-power of two unroll
    // factors are rarely optimal").
    let pow2 = h[0] + h[1] + h[3] + h[7];
    assert!(pow2 >= 0.6, "power-of-two mass only {pow2:.2}: {h:?}");
    // No single factor is "dominantly better than the others".
    assert!(h.iter().all(|&f| f <= 0.85), "{h:?}");
}

#[test]
fn fig1_points_exist_and_project_finite() {
    let pts = experiments::fig1(ctx_off());
    assert!(pts.len() >= 8, "only {} margin-filtered points", pts.len());
    for p in &pts {
        assert!(p.x.is_finite() && p.y.is_finite());
        assert!([1, 2, 4, 8].contains(&p.factor));
    }
}

#[test]
fn fig2_grid_has_both_regions() {
    let (pts, grid) = experiments::fig2(ctx_off(), 16);
    assert!(!pts.is_empty());
    let cells: Vec<bool> = grid.into_iter().flatten().collect();
    assert!(cells.iter().any(|&b| b), "no unroll region learned");
    // The keep-rolled region only exists if the margin-filtered data has
    // both classes (in our machine model, "never unroll" winners are
    // rare — see EXPERIMENTS.md).
    let has_rolled_class = pts.iter().any(|p| p.factor == 1);
    if has_rolled_class {
        assert!(cells.iter().any(|&b| !b), "no keep-rolled region learned");
    }
}

#[test]
fn table3_and_table4_produce_plausible_rankings() {
    let ctx = ctx_off();
    let mis = experiments::table3(ctx);
    assert_eq!(mis.len(), loopml::NUM_FEATURES);
    assert!(mis[0].score >= mis[4].score);
    assert!(mis[0].score > 0.0, "top feature must carry information");

    let (nn_trace, svm_trace) = experiments::table4(ctx, 3);
    assert_eq!(nn_trace.len(), 3);
    assert_eq!(svm_trace.len(), 3);
    // Greedy errors never increase along a trace.
    for t in [&nn_trace, &svm_trace] {
        for w in t.windows(2) {
            assert!(w[1].error <= w[0].error + 1e-9, "{t:?}");
        }
    }
}

#[test]
fn ablations_point_the_right_way() {
    let ctx = ctx_off();
    let norm = experiments::ablate_normalization(ctx);
    assert!(
        norm[0].accuracy > norm[1].accuracy,
        "normalization must help NN: {norm:?}"
    );
    let feats = experiments::ablate_features(ctx);
    assert!(
        feats[0].accuracy >= feats[1].accuracy - 0.02,
        "informative subset should not hurt: {feats:?}"
    );
}
