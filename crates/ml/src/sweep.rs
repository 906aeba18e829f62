//! Hyperparameter sweeps over one streamed distance pass.
//!
//! The paper fixes the NN radius (0.3) and the SVM kernel width by hand;
//! this module *selects* them by the same train-many/pick-by-held-out-
//! error discipline the paper applies to feature selection (§6). The
//! expensive quantity every candidate shares is the pairwise distance
//! over normalized features, and everything downstream is a cheap
//! function of it:
//!
//! * an RBF kernel for any gamma is one exp per distance — never a
//!   second O(n²·d) distance computation;
//! * a different C re-runs coordinate descent on an existing kernel;
//! * a different NN radius is just a new threshold over the same d².
//!
//! So the whole sweep evaluates every pairwise distance **exactly once**,
//! row by row, feeding each row to the radius tallies and to every
//! gamma's kernel before the next row overwrites it (asserted via
//! [`distance_builds`] by tests and by the `repro sweep` report). Each
//! grid cell is scored by leave-one-benchmark-out (LOGO) accuracy — the
//! Figure 4/5 protocol: all loops of a benchmark are excluded from
//! training when that benchmark is evaluated. For the SVM this uses the
//! dual coordinate-descent trainer's active-set restriction: dual
//! variables stay zero outside the training fold, so the full-corpus
//! kernel serves every fold without per-fold kernels.
//!
//! Beyond the paper's two models, the sweep carries a **model-family
//! axis**: decision-tree depth × min-leaf, bagged-forest size, and MLP
//! width × learning rate are scored by the same LOGO protocol and ranked
//! against the NN and SVM winners, yielding a single cross-family winner
//! per report. These families are *distance-free* — each cell refits on
//! raw feature vectors per fold (with per-fold min-max normalization,
//! unlike the shared-pass NN/SVM path; see DESIGN.md §16) and never
//! touches the distances, so [`distance_builds`] still advances by
//! exactly one per sweep. Ties between families go to the fixed order
//! NN, SVM, tree, forest, MLP.
//!
//! One deliberate deviation from a fully per-fold protocol: features are
//! min-max normalized over the *full* dataset, not refitted per LOGO fold
//! (refitting would need per-fold distances, defeating the single shared
//! pass). The same normalization is used for every cell, so the
//! comparison between cells — the argmax the sweep exists to find — is
//! apples-to-apples. See DESIGN.md §10.
//!
//! Rows and grid cells fan out across [`loopml_rt::par_map`] workers;
//! every unit of work is a pure function and per-cell error tallies are
//! integers, so results are bit-identical at any `LOOPML_THREADS`
//! setting.

use crate::dataset::{dist2, Dataset, MinMaxNormalizer};
use crate::distcache::{distance_builds, record_streaming_build, DistAlloc};
use crate::forest::{BaggedForest, ForestParams};
use crate::loocv::logo_accuracy;
use crate::mlp::{Mlp, MlpParams};
use crate::nn::DEFAULT_RADIUS;
use crate::svm::{decision_at, decode, train_binary, KernelCache, SvmParams};
use crate::tree::{DecisionTree, TreeParams};
use loopml_rt::{num_threads, par_map, par_map_threads};
use std::sync::Mutex;

/// The gamma × C grid swept for the SVM, plus the non-swept
/// hyperparameters every cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmGrid {
    /// RBF kernel widths to try.
    pub gammas: Vec<f64>,
    /// Soft-margin penalties to try.
    pub cs: Vec<f64>,
    /// Tolerance / sweep budget shared by every cell; `base.gamma` and
    /// `base.c` are ignored (overwritten per cell).
    pub base: SvmParams,
}

impl Default for SvmGrid {
    /// A 3×3 grid bracketing the paper defaults (gamma 1.0, C 10.0) by
    /// 4× / 10× in each direction, with a reduced sweep budget — the
    /// sweep ranks cells, it does not need each to be converged to the
    /// last KKT digit.
    fn default() -> Self {
        SvmGrid {
            gammas: vec![0.25, 1.0, 4.0],
            cs: vec![1.0, 10.0, 100.0],
            base: SvmParams {
                max_sweeps: 30,
                ..SvmParams::default()
            },
        }
    }
}

/// The decision-tree depth × min-leaf grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeGrid {
    /// Maximum tree depths to try.
    pub max_depths: Vec<usize>,
    /// Minimum leaf sizes to try (each ≥ 1).
    pub min_leafs: Vec<usize>,
}

impl Default for TreeGrid {
    /// Shallow, default, and deep trees, with and without leaf smoothing.
    fn default() -> Self {
        TreeGrid {
            max_depths: vec![3, 6, 10],
            min_leafs: vec![1, 4],
        }
    }
}

/// The bagged-forest size axis, plus the per-tree hyperparameters and
/// bootstrap seed every cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestGrid {
    /// Ensemble sizes to try.
    pub sizes: Vec<usize>,
    /// Member-tree hyperparameters and bootstrap seed shared by every
    /// cell; `base.trees` is ignored (overwritten per cell).
    pub base: ForestParams,
}

impl Default for ForestGrid {
    /// Half and full default ensembles around the default member tree.
    fn default() -> Self {
        ForestGrid {
            sizes: vec![8, 16],
            base: ForestParams::default(),
        }
    }
}

/// The MLP hidden-width × learning-rate grid, plus the epoch budget and
/// init seed every cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrid {
    /// Hidden-layer widths to try.
    pub hiddens: Vec<usize>,
    /// Learning rates to try.
    pub lrs: Vec<f64>,
    /// Epochs and seed shared by every cell; `base.hidden` and `base.lr`
    /// are ignored (overwritten per cell).
    pub base: MlpParams,
}

impl Default for MlpGrid {
    /// Narrow and default widths at a gentle and an aggressive rate.
    fn default() -> Self {
        MlpGrid {
            hiddens: vec![8, 16],
            lrs: vec![0.05, 0.2],
            base: MlpParams::default(),
        }
    }
}

/// Everything `sweep` needs besides the data: one grid per model family.
/// A family with an empty grid (no cells) is skipped and cannot win.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// SVM gamma × C grid.
    pub svm: SvmGrid,
    /// NN neighborhood radii to try.
    pub radii: Vec<f64>,
    /// Decision-tree depth × min-leaf grid.
    pub tree: TreeGrid,
    /// Bagged-forest sizes.
    pub forest: ForestGrid,
    /// MLP width × learning-rate grid.
    pub mlp: MlpGrid,
}

impl Default for SweepConfig {
    /// Every family's default grid, with five radii bracketing the
    /// paper's 0.3.
    fn default() -> Self {
        SweepConfig {
            svm: SvmGrid::default(),
            radii: vec![0.15, 0.3, 0.45, 0.6, 1.0],
            tree: TreeGrid::default(),
            forest: ForestGrid::default(),
            mlp: MlpGrid::default(),
        }
    }
}

/// One evaluated SVM grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmCell {
    /// RBF kernel width of this cell.
    pub gamma: f64,
    /// Soft-margin penalty of this cell.
    pub c: f64,
    /// Leave-one-benchmark-out accuracy.
    pub accuracy: f64,
}

/// One evaluated NN radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusCell {
    /// Neighborhood radius.
    pub radius: f64,
    /// Leave-one-benchmark-out accuracy.
    pub accuracy: f64,
}

/// One evaluated decision-tree grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeCell {
    /// Maximum depth of this cell.
    pub max_depth: usize,
    /// Minimum leaf size of this cell.
    pub min_leaf: usize,
    /// Leave-one-benchmark-out accuracy.
    pub accuracy: f64,
}

/// One evaluated forest size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestCell {
    /// Ensemble size of this cell.
    pub trees: usize,
    /// Leave-one-benchmark-out accuracy.
    pub accuracy: f64,
}

/// One evaluated MLP grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpCell {
    /// Hidden width of this cell.
    pub hidden: usize,
    /// Learning rate of this cell.
    pub lr: f64,
    /// Leave-one-benchmark-out accuracy.
    pub accuracy: f64,
}

/// The full result of a hyperparameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Every SVM grid cell, gamma-major (all C for the first gamma, then
    /// the next gamma, …).
    pub svm_cells: Vec<SvmCell>,
    /// Every NN radius, in configuration order.
    pub nn_cells: Vec<RadiusCell>,
    /// The winning SVM hyperparameters (highest LOGO accuracy; ties go to
    /// the earliest cell in grid order). `base` defaults when the grid is
    /// empty.
    pub selected_svm: SvmParams,
    /// LOGO accuracy of [`selected_svm`](Self::selected_svm) (0.0 when
    /// the grid is empty).
    pub svm_accuracy: f64,
    /// The winning NN radius ([`DEFAULT_RADIUS`] when no radii given).
    pub selected_radius: f64,
    /// LOGO accuracy of [`selected_radius`](Self::selected_radius) (0.0
    /// when no radii were given).
    pub nn_accuracy: f64,
    /// Every decision-tree cell, depth-major (all min-leaf values for the
    /// first depth, then the next depth, …).
    pub tree_cells: Vec<TreeCell>,
    /// The winning tree hyperparameters (defaults when the grid is empty).
    pub selected_tree: TreeParams,
    /// LOGO accuracy of [`selected_tree`](Self::selected_tree) (0.0 when
    /// the grid is empty).
    pub tree_accuracy: f64,
    /// Every forest size, in configuration order.
    pub forest_cells: Vec<ForestCell>,
    /// The winning forest hyperparameters (`base` defaults when the size
    /// list is empty).
    pub selected_forest: ForestParams,
    /// LOGO accuracy of [`selected_forest`](Self::selected_forest) (0.0
    /// when the size list is empty).
    pub forest_accuracy: f64,
    /// Every MLP cell, width-major (all rates for the first width, then
    /// the next width, …).
    pub mlp_cells: Vec<MlpCell>,
    /// The winning MLP hyperparameters (`base` defaults when the grid is
    /// empty).
    pub selected_mlp: MlpParams,
    /// LOGO accuracy of [`selected_mlp`](Self::selected_mlp) (0.0 when
    /// the grid is empty).
    pub mlp_accuracy: f64,
    /// The model family with the highest LOGO accuracy among the families
    /// that scored at least one cell: `"nn"`, `"svm"`, `"tree"`,
    /// `"forest"`, or `"mlp"`. Ties break toward that fixed order;
    /// `"nn"` when no family scored anything.
    pub winner_family: String,
    /// LOGO accuracy of [`winner_family`](Self::winner_family) (0.0 when
    /// no family scored anything).
    pub winner_accuracy: f64,
    /// How many pairwise distance passes the sweep performed (the
    /// [`distance_builds`] delta) — the design says exactly one, and this
    /// is the proof. The distance-free families (tree, forest, MLP) never
    /// advance it.
    pub distance_builds: u64,
    /// Number of examples swept over.
    pub n_examples: usize,
    /// Number of LOGO groups (benchmarks).
    pub n_groups: usize,
}

/// Sweeps every family's grid over `data`, scoring every candidate by
/// leave-one-group-out accuracy (`group[i]` is example `i`'s benchmark),
/// with exactly one pairwise distance pass.
///
/// The pairwise distance pass is streamed (`stream_rows`): the full
/// n×n distance matrix never exists, distance memory stays at
/// `workers · n · 8` bytes, and kernel memory is the `G · n² · 8` bytes
/// the SVM trainer needs for G gammas.
///
/// # Panics
///
/// Panics if `data` is empty or `group.len() != data.len()`.
pub fn sweep(data: &Dataset, group: &[usize], cfg: &SweepConfig) -> SweepReport {
    assert!(!data.is_empty(), "cannot sweep an empty dataset");
    assert_eq!(group.len(), data.len(), "one group per example");
    let builds_before = distance_builds();

    let n = data.len();
    let xs = MinMaxNormalizer::fit(&data.x).transform(&data.x);
    let (kernels, nn_correct) = stream_rows(&xs, data, group, cfg, num_threads());
    let nn_cells: Vec<RadiusCell> = cfg
        .radii
        .iter()
        .zip(&nn_correct)
        .map(|(&radius, &c)| RadiusCell {
            radius,
            accuracy: c as f64 / n as f64,
        })
        .collect();

    finish_report(data, group, cfg, &kernels, nn_cells, builds_before)
}

/// The sweep's one distance pass. The rows split into one contiguous
/// block per worker, and each worker holds one n-length distance row at
/// a time: row `i` feeds the NN radius tallies, then is exponentiated
/// into row `i` of every gamma's kernel — the same `exp(-γ·d²) + 1`
/// entries [`KernelCache::from_distances`] produces — written in place,
/// then is overwritten. Returns one kernel per gamma and one correct
/// count per radius. Counts toward [`distance_builds`] as one build
/// (every pair is touched exactly once).
///
/// Bit-identical at any `threads`: every row is a pure function of `xs`
/// and the tallies are integers. `dist2` is bitwise symmetric, so the
/// rows also equal those of a mirrored
/// [`DistanceMatrix`](crate::DistanceMatrix).
fn stream_rows(
    xs: &[Vec<f64>],
    data: &Dataset,
    group: &[usize],
    cfg: &SweepConfig,
    threads: usize,
) -> (Vec<KernelCache>, Vec<u64>) {
    record_streaming_build();
    let n = xs.len();
    let r2s: Vec<f64> = cfg.radii.iter().map(|r| r * r).collect();
    let mut kernels: Vec<KernelCache> = cfg
        .svm
        .gammas
        .iter()
        .map(|_| KernelCache::zeroed(n))
        .collect();

    // Each block's rows of every gamma's kernel. `par_map_threads` hands
    // a job only `&T`, so the rows sit behind a Mutex that the one worker
    // claiming the block locks; blocks are disjoint, so no lock is ever
    // contended.
    let workers = threads.clamp(1, n);
    let mut blocks: Vec<_> = (0..workers)
        .map(|w| {
            (
                (w * n / workers, (w + 1) * n / workers),
                Mutex::new(Vec::new()),
            )
        })
        .collect();
    for kc in &mut kernels {
        let mut rest = kc.entries_mut();
        for ((lo, hi), rows) in &mut blocks {
            let (block, tail) = rest.split_at_mut((*hi - *lo) * n);
            rows.get_mut().expect("not yet shared").push(block);
            rest = tail;
        }
    }
    let per_block: Vec<Vec<u64>> = par_map_threads(threads, &blocks, |((lo, hi), rows)| {
        let mut rows = rows
            .lock()
            .expect("no worker panicked holding a kernel block");
        let _acct = DistAlloc::new((n * 8) as u64);
        let mut d2row = vec![0.0f64; n];
        let mut correct = vec![0u64; r2s.len()];
        for (r, i) in (*lo..*hi).enumerate() {
            for (d2, xj) in d2row.iter_mut().zip(xs) {
                *d2 = dist2(&xs[i], xj);
            }
            for (c, &r2) in correct.iter_mut().zip(&r2s) {
                if nn_predict_row(&d2row, i, data, group, r2) == data.y[i] {
                    *c += 1;
                }
            }
            for (krows, &g) in rows.iter_mut().zip(&cfg.svm.gammas) {
                for (kv, &d2) in krows[r * n..(r + 1) * n].iter_mut().zip(&d2row) {
                    *kv = (-g * d2).exp() + 1.0;
                }
            }
        }
        correct
    });

    let mut nn_correct = vec![0u64; r2s.len()];
    for correct in per_block {
        for (t, c) in nn_correct.iter_mut().zip(correct) {
            *t += c;
        }
    }
    (kernels, nn_correct)
}

/// Predicted label for example `i` given row `i` of the pairwise d²
/// matrix: `predict_excluding`'s vote semantics with `i`'s whole group
/// excluded (majority within the radius when strict, else nearest).
fn nn_predict_row(d2row: &[f64], i: usize, data: &Dataset, group: &[usize], r2: f64) -> usize {
    let mut votes = vec![0usize; data.classes];
    let mut in_radius = 0usize;
    let mut nearest: Option<(f64, usize)> = None;
    for (j, &d2) in d2row.iter().enumerate() {
        if group[j] == group[i] {
            continue;
        }
        if d2 <= r2 {
            votes[data.y[j]] += 1;
            in_radius += 1;
        }
        if nearest.is_none_or(|(best, _)| d2 < best) {
            nearest = Some((d2, data.y[j]));
        }
    }
    let best_class = (0..data.classes).max_by_key(|&c| votes[c]).unwrap_or(0);
    let best_votes = votes.get(best_class).copied().unwrap_or(0);
    let runner_up = (0..data.classes)
        .filter(|&c| c != best_class)
        .map(|c| votes[c])
        .max()
        .unwrap_or(0);
    if in_radius > 0 && best_votes > runner_up {
        best_class
    } else {
        nearest.map(|(_, y)| y).unwrap_or(0)
    }
}

/// Scores the SVM grid by LOGO over the per-gamma kernels and the
/// distance-free families by refitting per fold, picks the winners, and
/// assembles the report.
fn finish_report(
    data: &Dataset,
    group: &[usize],
    cfg: &SweepConfig,
    kernels: &[KernelCache],
    nn_cells: Vec<RadiusCell>,
    builds_before: u64,
) -> SweepReport {
    let n = data.len();
    let mut groups: Vec<usize> = group.to_vec();
    groups.sort_unstable();
    groups.dedup();

    // Flatten (gamma, C, held-out group) into independent jobs: each
    // trains one multiclass machine on the fold's active set and counts
    // correct predictions on the held-out members. Integer tallies make
    // any job-to-worker assignment sum to the same accuracy.
    let n_groups = groups.len();
    let jobs: Vec<(usize, usize, usize)> = (0..cfg.svm.gammas.len())
        .flat_map(|gi| {
            (0..cfg.svm.cs.len()).flat_map(move |ci| (0..n_groups).map(move |fi| (gi, ci, fi)))
        })
        .collect();
    let correct_per_job: Vec<u64> = par_map(&jobs, |&(gi, ci, fi)| {
        let g = groups[fi];
        let members: Vec<usize> = (0..n).filter(|&i| group[i] == g).collect();
        let active: Vec<usize> = (0..n).filter(|&i| group[i] != g).collect();
        if active.is_empty() {
            // Empty training fold predicts class 0, like `logo_predictions`.
            return members.iter().filter(|&&i| data.y[i] == 0).count() as u64;
        }
        let params = SvmParams {
            gamma: cfg.svm.gammas[gi],
            c: cfg.svm.cs[ci],
            ..cfg.svm.base
        };
        let kc = &kernels[gi];
        let labels_by_class: Vec<Vec<f64>> = (0..data.classes)
            .map(|class| {
                data.y
                    .iter()
                    .map(|&y| if y == class { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        // One-vs-rest machines restricted to the fold's training set:
        // dual variables stay zero outside `active`, so the full-corpus
        // kernel is exact for this fold.
        let alphas: Vec<Vec<f64>> = labels_by_class
            .iter()
            .map(|labels| {
                train_binary(
                    kc,
                    labels,
                    &params,
                    None,
                    None,
                    params.max_sweeps,
                    Some(&active),
                )
            })
            .collect();
        members
            .iter()
            .filter(|&&i| {
                let decisions: Vec<f64> = labels_by_class
                    .iter()
                    .zip(&alphas)
                    .map(|(labels, alpha)| decision_at(kc, labels, alpha, i))
                    .collect();
                decode(&decisions) == data.y[i]
            })
            .count() as u64
    });

    let mut svm_cells = Vec::with_capacity(cfg.svm.gammas.len() * cfg.svm.cs.len());
    for (cell, chunk) in correct_per_job.chunks(groups.len().max(1)).enumerate() {
        let gi = cell / cfg.svm.cs.len().max(1);
        let ci = cell % cfg.svm.cs.len().max(1);
        svm_cells.push(SvmCell {
            gamma: cfg.svm.gammas[gi],
            c: cfg.svm.cs[ci],
            accuracy: chunk.iter().sum::<u64>() as f64 / n as f64,
        });
    }

    let best_svm = argmax_accuracy(svm_cells.iter().map(|c| c.accuracy));
    let (selected_svm, svm_accuracy) = match best_svm {
        Some(k) => (
            SvmParams {
                gamma: svm_cells[k].gamma,
                c: svm_cells[k].c,
                ..cfg.svm.base
            },
            svm_cells[k].accuracy,
        ),
        None => (cfg.svm.base, 0.0),
    };
    let best_nn = argmax_accuracy(nn_cells.iter().map(|c| c.accuracy));
    let (selected_radius, nn_accuracy) = match best_nn {
        Some(k) => (nn_cells[k].radius, nn_cells[k].accuracy),
        None => (DEFAULT_RADIUS, 0.0),
    };

    // Distance-free families: every cell refits per LOGO fold directly on
    // the feature vectors, never touching the distances or the builds
    // counter. Cells run in configuration order; the folds inside each
    // fan out across the workers with integer tallies, so any thread
    // count scores a cell identically.
    let mut tree_cells = Vec::with_capacity(cfg.tree.max_depths.len() * cfg.tree.min_leafs.len());
    for &max_depth in &cfg.tree.max_depths {
        for &min_leaf in &cfg.tree.min_leafs {
            let clf = DecisionTree::new(TreeParams {
                max_depth,
                min_leaf,
            });
            tree_cells.push(TreeCell {
                max_depth,
                min_leaf,
                accuracy: logo_accuracy(data, group, &clf),
            });
        }
    }
    let (selected_tree, tree_accuracy) =
        match argmax_accuracy(tree_cells.iter().map(|c| c.accuracy)) {
            Some(k) => (
                TreeParams {
                    max_depth: tree_cells[k].max_depth,
                    min_leaf: tree_cells[k].min_leaf,
                },
                tree_cells[k].accuracy,
            ),
            None => (TreeParams::default(), 0.0),
        };

    let mut forest_cells = Vec::with_capacity(cfg.forest.sizes.len());
    for &trees in &cfg.forest.sizes {
        let clf = BaggedForest::new(ForestParams {
            trees,
            ..cfg.forest.base
        });
        forest_cells.push(ForestCell {
            trees,
            accuracy: logo_accuracy(data, group, &clf),
        });
    }
    let (selected_forest, forest_accuracy) =
        match argmax_accuracy(forest_cells.iter().map(|c| c.accuracy)) {
            Some(k) => (
                ForestParams {
                    trees: forest_cells[k].trees,
                    ..cfg.forest.base
                },
                forest_cells[k].accuracy,
            ),
            None => (cfg.forest.base, 0.0),
        };

    let mut mlp_cells = Vec::with_capacity(cfg.mlp.hiddens.len() * cfg.mlp.lrs.len());
    for &hidden in &cfg.mlp.hiddens {
        for &lr in &cfg.mlp.lrs {
            let clf = Mlp::new(MlpParams {
                hidden,
                lr,
                ..cfg.mlp.base
            });
            mlp_cells.push(MlpCell {
                hidden,
                lr,
                accuracy: logo_accuracy(data, group, &clf),
            });
        }
    }
    let (selected_mlp, mlp_accuracy) = match argmax_accuracy(mlp_cells.iter().map(|c| c.accuracy)) {
        Some(k) => (
            MlpParams {
                hidden: mlp_cells[k].hidden,
                lr: mlp_cells[k].lr,
                ..cfg.mlp.base
            },
            mlp_cells[k].accuracy,
        ),
        None => (cfg.mlp.base, 0.0),
    };

    // Cross-family winner: highest accuracy among the families that
    // scored at least one cell, ties toward the fixed order below.
    let families = [
        ("nn", !nn_cells.is_empty(), nn_accuracy),
        ("svm", !svm_cells.is_empty(), svm_accuracy),
        ("tree", !tree_cells.is_empty(), tree_accuracy),
        ("forest", !forest_cells.is_empty(), forest_accuracy),
        ("mlp", !mlp_cells.is_empty(), mlp_accuracy),
    ];
    let mut winner: Option<(&str, f64)> = None;
    for (name, scored, acc) in families {
        if scored && winner.is_none_or(|(_, best)| acc > best) {
            winner = Some((name, acc));
        }
    }
    let (winner_family, winner_accuracy) = winner.unwrap_or(("nn", 0.0));

    SweepReport {
        svm_cells,
        nn_cells,
        selected_svm,
        svm_accuracy,
        selected_radius,
        nn_accuracy,
        tree_cells,
        selected_tree,
        tree_accuracy,
        forest_cells,
        selected_forest,
        forest_accuracy,
        mlp_cells,
        selected_mlp,
        mlp_accuracy,
        winner_family: winner_family.to_string(),
        winner_accuracy,
        distance_builds: distance_builds() - builds_before,
        n_examples: n,
        n_groups: groups.len(),
    }
}

/// Index of the highest accuracy; exact ties go to the earliest index
/// (grid order), which is what makes selection independent of the worker
/// schedule.
fn argmax_accuracy(accuracies: impl Iterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (k, a) in accuracies.enumerate() {
        if best.is_none_or(|(_, b)| a > b) {
            best = Some((k, a));
        }
    }
    best.map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distcache::DistanceMatrix;
    use loopml_rt::with_threads;

    /// Three well-separated clusters, each split across two "benchmarks"
    /// so LOGO folds still see every class.
    fn clusters() -> (Dataset, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut group = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..8 {
                x.push(vec![cx + (k % 3) as f64 * 0.3, cy + (k / 3) as f64 * 0.3]);
                y.push(c);
                group.push(k % 2);
            }
        }
        let n = x.len();
        let data = Dataset::new(
            x,
            y,
            3,
            vec!["a".into(), "b".into()],
            (0..n).map(|i| format!("e{i}")).collect(),
        );
        (data, group)
    }

    #[test]
    fn sweep_scores_every_cell_and_selects_a_winner() {
        let (data, group) = clusters();
        let cfg = SweepConfig::default();
        let r = with_threads(1, || sweep(&data, &group, &cfg));
        assert_eq!(r.svm_cells.len(), cfg.svm.gammas.len() * cfg.svm.cs.len());
        assert_eq!(r.nn_cells.len(), cfg.radii.len());
        assert_eq!(r.n_examples, data.len());
        assert_eq!(r.n_groups, 2);
        for cell in &r.svm_cells {
            assert!((0.0..=1.0).contains(&cell.accuracy));
        }
        // Separable clusters with both groups covering every class: the
        // winners must classify well.
        assert!(r.svm_accuracy >= 0.9, "svm accuracy {}", r.svm_accuracy);
        assert!(r.nn_accuracy >= 0.9, "nn accuracy {}", r.nn_accuracy);
        assert!(cfg.svm.gammas.contains(&r.selected_svm.gamma));
        assert!(cfg.svm.cs.contains(&r.selected_svm.c));
        assert!(cfg.radii.contains(&r.selected_radius));
        // The selected accuracy really is the maximum over cells.
        let max_svm = r
            .svm_cells
            .iter()
            .map(|c| c.accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.svm_accuracy, max_svm);
        // The family axis scored every cell of every family.
        assert_eq!(
            r.tree_cells.len(),
            cfg.tree.max_depths.len() * cfg.tree.min_leafs.len()
        );
        assert_eq!(r.forest_cells.len(), cfg.forest.sizes.len());
        assert_eq!(r.mlp_cells.len(), cfg.mlp.hiddens.len() * cfg.mlp.lrs.len());
        assert!(cfg.tree.max_depths.contains(&r.selected_tree.max_depth));
        assert!(cfg.forest.sizes.contains(&r.selected_forest.trees));
        assert!(cfg.mlp.hiddens.contains(&r.selected_mlp.hidden));
        // The winner is the best-scoring family, and its accuracy is the
        // max over family accuracies.
        let family_best = [
            r.nn_accuracy,
            r.svm_accuracy,
            r.tree_accuracy,
            r.forest_accuracy,
            r.mlp_accuracy,
        ]
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.winner_accuracy, family_best);
        assert!(["nn", "svm", "tree", "forest", "mlp"].contains(&r.winner_family.as_str()));
    }

    #[test]
    fn streamed_rows_match_the_dense_reference() {
        // The streamed pass must write every gamma's kernel bit-for-bit
        // as a from-scratch KernelCache, and tally each radius exactly as
        // rows of a materialized DistanceMatrix would — at worker counts
        // that split the 24 rows evenly and raggedly.
        let (data, group) = clusters();
        let cfg = SweepConfig::default();
        let xs = MinMaxNormalizer::fit(&data.x).transform(&data.x);
        let dm = DistanceMatrix::compute(&xs);
        let want_nn: Vec<u64> = cfg
            .radii
            .iter()
            .map(|r| {
                (0..data.len())
                    .filter(|&i| nn_predict_row(dm.row(i), i, &data, &group, r * r) == data.y[i])
                    .count() as u64
            })
            .collect();
        for threads in [1, 2, 5] {
            let (kernels, nn_correct) = stream_rows(&xs, &data, &group, &cfg, threads);
            assert_eq!(nn_correct, want_nn, "threads={threads}");
            for (kc, &gamma) in kernels.iter().zip(&cfg.svm.gammas) {
                let direct = KernelCache::compute(&xs, gamma);
                assert_eq!(
                    kc.entries(),
                    direct.entries(),
                    "gamma={gamma} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_grid_falls_back_to_defaults() {
        let (data, group) = clusters();
        let cfg = SweepConfig {
            svm: SvmGrid {
                gammas: vec![],
                cs: vec![],
                ..SvmGrid::default()
            },
            radii: vec![],
            tree: TreeGrid {
                max_depths: vec![],
                min_leafs: vec![],
            },
            forest: ForestGrid {
                sizes: vec![],
                ..ForestGrid::default()
            },
            mlp: MlpGrid {
                hiddens: vec![],
                lrs: vec![],
                ..MlpGrid::default()
            },
        };
        let r = with_threads(1, || sweep(&data, &group, &cfg));
        assert!(r.svm_cells.is_empty());
        assert!(r.nn_cells.is_empty());
        assert!(r.tree_cells.is_empty());
        assert!(r.forest_cells.is_empty());
        assert!(r.mlp_cells.is_empty());
        assert_eq!(r.selected_svm, cfg.svm.base);
        assert_eq!(r.selected_radius, DEFAULT_RADIUS);
        assert_eq!(r.selected_tree, TreeParams::default());
        assert_eq!(r.selected_forest, cfg.forest.base);
        assert_eq!(r.selected_mlp, cfg.mlp.base);
        // No family scored anything: the winner falls back to NN at 0.
        assert_eq!(r.winner_family, "nn");
        assert_eq!(r.winner_accuracy, 0.0);
    }

    #[test]
    fn ties_select_the_earliest_cell() {
        assert_eq!(argmax_accuracy([0.5, 0.5, 0.5].into_iter()), Some(0));
        assert_eq!(argmax_accuracy([0.1, 0.7, 0.7].into_iter()), Some(1));
        assert_eq!(argmax_accuracy(std::iter::empty()), None);
    }

    #[test]
    fn singleton_group_predicts_like_logo() {
        // One group holds everything: every fold's training set is empty,
        // so predictions are class 0 — the `logo_predictions` convention.
        let (data, _) = clusters();
        let group = vec![0usize; data.len()];
        let cfg = SweepConfig::default();
        let r = with_threads(1, || sweep(&data, &group, &cfg));
        let class0 = data.y.iter().filter(|&&y| y == 0).count() as f64 / data.len() as f64;
        for cell in &r.svm_cells {
            assert_eq!(cell.accuracy, class0);
        }
        assert_eq!(r.n_groups, 1);
    }
}
