//! Feature selection (paper §7): mutual information scoring and greedy
//! forward selection.
//!
//! Greedy forward selection re-evaluates a classifier for every candidate
//! feature at every step — the most expensive search in the paper. Two
//! accelerations live here: the candidate evaluations of each round fan
//! out across [`loopml_rt::par_map`] workers (bit-identical to serial —
//! candidates are scanned in index order and ties keep the lowest index
//! either way), and for the leave-self-out 1-NN criterion,
//! [`greedy_forward_nn`] swaps the O(n²·|S|) per-candidate distance
//! recompute for one O(n²) scan over row strips of the accumulated
//! distance matrix, built from the [`FeatureDistCache`]. The strips are
//! kept across rounds while the n×n matrix fits the memory budget and
//! rebuilt every round past it; both give the same bits.

use crate::dataset::{Dataset, MinMaxNormalizer};
use crate::distcache::{tile_budget_bytes, tile_rows_for, FeatureDistCache, Strip};
use loopml_rt::{num_threads, par_map};

/// Number of equal-width bins used to discretize continuous features
/// before estimating probability mass functions.
pub const MIS_BINS: usize = 10;

/// A feature with its mutual information score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredFeature {
    /// Column index into the dataset.
    pub index: usize,
    /// Feature name.
    pub name: String,
    /// Mutual information score in bits.
    pub score: f64,
}

/// Computes the mutual information `I(f; u)` between each feature and the
/// label, returning features sorted by descending score (Table 3).
///
/// Continuous features are min-max normalized and binned into
/// [`MIS_BINS`] equal-width bins.
pub fn mutual_information(data: &Dataset) -> Vec<ScoredFeature> {
    let n = data.len();
    assert!(n > 0, "empty dataset");
    let norm = MinMaxNormalizer::fit(&data.x);
    let xs = norm.transform(&data.x);
    let d = data.dims();
    let classes = data.classes;

    let mut out = Vec::with_capacity(d);
    for j in 0..d {
        // Joint histogram over (bin, label).
        let mut joint = vec![vec![0.0f64; classes]; MIS_BINS];
        for (row, &y) in xs.iter().zip(&data.y) {
            let b = ((row[j] * MIS_BINS as f64) as usize).min(MIS_BINS - 1);
            joint[b][y] += 1.0;
        }
        let total = n as f64;
        let p_bin: Vec<f64> = joint
            .iter()
            .map(|r| r.iter().sum::<f64>() / total)
            .collect();
        let mut p_lab = vec![0.0f64; classes];
        for r in &joint {
            for (c, v) in r.iter().enumerate() {
                p_lab[c] += v / total;
            }
        }
        let mut mi = 0.0;
        for (b, r) in joint.iter().enumerate() {
            for (c, v) in r.iter().enumerate() {
                let p = v / total;
                if p > 0.0 {
                    mi += p * (p / (p_bin[b] * p_lab[c])).log2();
                }
            }
        }
        out.push(ScoredFeature {
            index: j,
            name: data.feature_names[j].clone(),
            score: mi,
        });
    }
    // total_cmp, not partial_cmp: a degenerate binning (constant column,
    // single-class fold) can yield a NaN score, and the ranking must
    // never panic on it. Tied scores break toward the lower column
    // index, so the ranking is a total, deterministic function of the
    // data alone.
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
    out
}

/// One step of the greedy trace: the feature chosen and the training
/// error after adding it.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyStep {
    /// Column index of the chosen feature.
    pub index: usize,
    /// Feature name.
    pub name: String,
    /// Training error with the selected set so far.
    pub error: f64,
}

/// Greedy forward feature selection (Table 4).
///
/// Starting from the empty set, repeatedly adds the feature that
/// minimizes the training error of the classifier built by `train_error`:
/// a callback receiving a candidate dataset (the selected features plus
/// one candidate) and returning the training error in `[0, 1]`. Runs for
/// `steps` rounds. The candidate evaluations of each round run in
/// parallel (`train_error` must therefore be a pure function of the
/// dataset), bit-identical to a serial scan. For the 1-NN criterion,
/// prefer [`greedy_forward_nn`], which avoids rebuilding distances per
/// candidate entirely.
pub fn greedy_forward<F>(data: &Dataset, steps: usize, train_error: F) -> Vec<GreedyStep>
where
    F: Fn(&Dataset) -> f64 + Sync,
{
    greedy_rounds(data, steps, |selected, candidates| {
        par_map(candidates, |&cand| {
            let mut cols = selected.to_vec();
            cols.push(cand);
            train_error(&data.select_features(&cols))
        })
    })
}

/// Greedy forward selection under the leave-self-out 1-NN criterion
/// (the NN column of Table 4), incremental: distances are additive
/// across features, so the accumulated distance matrix of the selected
/// set gains each chosen feature once, and every candidate `S ∪ {f}` is
/// evaluated with one O(n²) scan over the [`FeatureDistCache`] instead
/// of the O(n²·|S|) recompute [`greedy_forward`] +
/// [`nn1_training_error`] performs. Traces are bit-identical to that
/// direct path (both sum distances strictly left-to-right in selection
/// order) at any worker count.
///
/// The matrix lives in row strips, one work item each. While all n²
/// entries fit the [`tile_budget_bytes`] budget the strips are kept
/// across rounds, about one per worker; past it every round rebuilds
/// strips of [`tile_rows_for`] rows and drops them, so peak memory stays
/// at `workers · tile_rows · n · 8` bytes (DESIGN.md §13).
pub fn greedy_forward_nn(data: &Dataset, steps: usize) -> Vec<GreedyStep> {
    let threads = num_threads();
    let n = data.len();
    let keep = (n as u64) * (n as u64) * 8 <= tile_budget_bytes();
    let rows = tile_rows_for(n, threads).min(n.div_ceil(threads));
    greedy_nn_over_strips(data, steps, rows, keep, threads)
}

/// [`greedy_forward_nn`] over strips of `rows` rows, kept across rounds
/// if `keep`, on `threads` workers.
fn greedy_nn_over_strips(
    data: &Dataset,
    steps: usize,
    rows: usize,
    keep: bool,
    threads: usize,
) -> Vec<GreedyStep> {
    let cache = FeatureDistCache::fit(data);
    let strips = Strip::cover(data.len(), rows);
    greedy_rounds(data, steps, |selected, candidates| {
        cache.nn1_errors(&strips, selected, candidates, keep, threads)
    })
}

/// The greedy search itself: for `steps` rounds (at most one per
/// feature), scores every unselected candidate with `errors(selected,
/// candidates)` and adds the first strict minimum.
fn greedy_rounds(
    data: &Dataset,
    steps: usize,
    mut errors: impl FnMut(&[usize], &[usize]) -> Vec<f64>,
) -> Vec<GreedyStep> {
    let d = data.dims();
    let mut selected: Vec<usize> = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..steps.min(d) {
        let candidates: Vec<usize> = (0..d).filter(|c| !selected.contains(c)).collect();
        let errors = errors(&selected, &candidates);
        let Some((idx, err)) = argmin(&candidates, &errors) else {
            break;
        };
        selected.push(idx);
        trace.push(GreedyStep {
            index: idx,
            name: data.feature_names[idx].clone(),
            error: err,
        });
    }
    trace
}

/// First strict minimum over `(candidates, errors)` — the same candidate
/// a serial ascending scan with `<` would pick.
fn argmin(candidates: &[usize], errors: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (&cand, &err) in candidates.iter().zip(errors) {
        if best.is_none_or(|(_, e)| err < e) {
            best = Some((cand, err));
        }
    }
    best
}

/// Training error of a 1-nearest-neighbor classifier evaluated
/// leave-self-out (the "single closest point" variant the paper uses for
/// greedy selection with NN).
///
/// Distances are summed strictly left-to-right over the dataset's
/// columns — the same floating-point operation sequence the
/// [`FeatureDistCache`] produces when it accumulates one feature column
/// at a time (candidate last), so the greedy trace from this direct
/// evaluator is bit-identical to the cached one. The chunked
/// [`crate::dist2`] kernel reassociates the sum and can flip
/// exactly-tied nearest neighbors; do not substitute it here.
pub fn nn1_training_error(data: &Dataset) -> f64 {
    let norm = MinMaxNormalizer::fit(&data.x);
    let xs = norm.transform(&data.x);
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let mut errors = 0usize;
    for i in 0..n {
        let mut best = (f64::INFINITY, 0usize);
        for j in 0..n {
            if j == i {
                continue;
            }
            let mut d2 = 0.0;
            for (a, b) in xs[i].iter().zip(&xs[j]) {
                let d = a - b;
                d2 += d * d;
            }
            if d2 < best.0 {
                best = (d2, j);
            }
        }
        if data.y[best.1] != data.y[i] {
            errors += 1;
        }
    }
    errors as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_rt::with_threads;

    /// Label is a function of feature 0; feature 1 is noise; feature 2 is
    /// constant.
    fn toy() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..40 {
            let informative = (k % 4) as f64;
            let noise = ((k * 7919) % 13) as f64;
            x.push(vec![informative, noise, 3.0]);
            y.push(k % 4);
        }
        let n = x.len();
        Dataset::new(
            x,
            y,
            4,
            vec!["informative".into(), "noise".into(), "const".into()],
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn mis_ranks_informative_first() {
        let scores = mutual_information(&toy());
        assert_eq!(scores[0].name, "informative");
        assert!(scores[0].score > scores[1].score);
    }

    #[test]
    fn constant_feature_scores_zero() {
        let scores = mutual_information(&toy());
        let c = scores.iter().find(|s| s.name == "const").unwrap();
        assert!(c.score.abs() < 1e-9);
    }

    #[test]
    fn all_constant_columns_rank_stably_without_panicking() {
        // Regression: the ranking used partial_cmp().expect("finite
        // scores"), which panics the moment any score comparison is
        // unordered. Every column constant → every score ties at ~0;
        // the sort must survive and fall back to ascending column index.
        let n = 12;
        let data = Dataset::new(
            (0..n).map(|_| vec![7.0, 7.0, 7.0]).collect(),
            (0..n).map(|k| k % 2).collect(),
            2,
            vec!["c0".into(), "c1".into(), "c2".into()],
            (0..n).map(|i| format!("e{i}")).collect(),
        );
        let scores = mutual_information(&data);
        assert_eq!(
            scores.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "tied scores must break toward the lower column index"
        );
    }

    #[test]
    fn tied_scores_break_toward_lower_index() {
        // Two identical informative columns: identical MI scores, and the
        // ranking must list the lower column index first every time.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..20 {
            let v = (k % 2) as f64;
            x.push(vec![v, v]);
            y.push(k % 2);
        }
        let n = x.len();
        let data = Dataset::new(
            x,
            y,
            2,
            vec!["twin_a".into(), "twin_b".into()],
            (0..n).map(|i| format!("e{i}")).collect(),
        );
        let scores = mutual_information(&data);
        assert_eq!(scores[0].score, scores[1].score);
        assert_eq!(scores[0].index, 0);
        assert_eq!(scores[1].index, 1);
    }

    #[test]
    fn mis_scores_nonnegative() {
        for s in mutual_information(&toy()) {
            assert!(s.score >= -1e-12, "{s:?}");
        }
    }

    #[test]
    fn greedy_picks_informative_then_stalls() {
        let d = toy();
        let trace = greedy_forward(&d, 3, nn1_training_error);
        assert_eq!(trace[0].name, "informative");
        assert!(trace[0].error < 0.05, "{trace:?}");
        // Error never increases along the greedy trace by construction of
        // the search (it can plateau).
        for w in trace.windows(2) {
            assert!(w[1].error <= w[0].error + 0.25, "{trace:?}");
        }
    }

    #[test]
    fn nn1_error_perfect_on_clean_clusters() {
        let d = toy().select_features(&[0]);
        assert!(nn1_training_error(&d) < 0.05);
    }

    #[test]
    fn greedy_respects_step_budget() {
        let d = toy();
        assert_eq!(greedy_forward(&d, 2, nn1_training_error).len(), 2);
        assert!(greedy_forward(&d, 99, nn1_training_error).len() <= 3);
    }

    #[test]
    fn parallel_greedy_is_bit_identical_to_serial() {
        let d = toy();
        let direct = || greedy_forward(&d, 3, nn1_training_error);
        let cached = || greedy_forward_nn(&d, 3);
        let serial = with_threads(1, direct);
        let serial_nn = with_threads(1, cached);
        for threads in [2, 4] {
            assert_eq!(
                serial,
                with_threads(threads, direct),
                "direct greedy diverged at {threads} threads"
            );
            assert_eq!(
                serial_nn,
                with_threads(threads, cached),
                "cached greedy diverged at {threads} threads"
            );
        }
        // And through the default (env/core-count) worker count.
        assert_eq!(serial, direct());
        assert_eq!(serial_nn, cached());
    }

    #[test]
    fn cached_greedy_matches_direct_greedy() {
        // On the toy data and on random datasets the incremental path
        // must pick the same features with the same errors as the
        // recompute-from-scratch path.
        let d = toy();
        assert_eq!(
            greedy_forward(&d, 3, nn1_training_error),
            greedy_forward_nn(&d, 3)
        );
        let mut rng = loopml_rt::Rng::seed_from_u64(0x6EE0);
        for _ in 0..5 {
            let n = rng.gen_range(6..20usize);
            let dims = rng.gen_range(2..7usize);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect();
            let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
            let data = Dataset::new(
                x,
                y,
                3,
                (0..dims).map(|j| format!("f{j}")).collect(),
                (0..n).map(|i| format!("e{i}")).collect(),
            );
            let direct = greedy_forward(&data, dims, nn1_training_error);
            let cached = greedy_forward_nn(&data, dims);
            assert_eq!(direct, cached);
        }
    }

    /// Random dataset of `n` examples over 6 features, seeded from
    /// `(tile, n)` so every boundary case gets distinct data.
    fn boundary_dataset(tile: usize, n: usize) -> Dataset {
        let mut rng = loopml_rt::Rng::seed_from_u64(0x7A11ED ^ ((tile as u64) << 32) ^ n as u64);
        let d = 6;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        Dataset::new(
            x,
            y,
            3,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn strips_match_direct_greedy_at_boundary_sizes() {
        // Kept and dropped strips must reproduce the direct greedy trace
        // bit for bit at every strip boundary: corpora smaller than a
        // strip, exactly one strip, one row past a strip, and a ragged
        // final strip — at 1 and 4 workers. n = 1 has no neighbor, so
        // every candidate reports the full error.
        for &tile in &[1usize, 7, 64] {
            for n in [1, tile.saturating_sub(1), tile, tile + 1, 3 * tile + 2] {
                if n == 0 {
                    continue;
                }
                let data = boundary_dataset(tile, n);
                let d = data.dims();
                let direct = greedy_forward(&data, d, nn1_training_error);
                assert_eq!(direct.len(), d);
                if n == 1 {
                    assert!(direct.iter().all(|s| s.error == 1.0), "{direct:?}");
                }
                for keep in [true, false] {
                    for threads in [1, 4] {
                        assert_eq!(
                            greedy_nn_over_strips(&data, d, tile, keep, threads),
                            direct,
                            "tile {tile}, n {n}, keep {keep}, threads {threads}"
                        );
                    }
                }
            }
        }
    }
}
