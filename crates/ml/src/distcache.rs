//! Incremental pairwise-distance caching — the algebra that makes greedy
//! feature selection cheap.
//!
//! Squared Euclidean distance over a feature subset `S` is *additive
//! across features*:
//!
//! ```text
//! dist2_S(i, j) = Σ_{f ∈ S} (x[i][f] − x[j][f])²
//! ```
//!
//! so the n×n distance matrix of `S ∪ {f}` is the matrix of `S` plus
//! feature `f`'s own n×n contribution. [`FeatureDistCache`] exploits
//! this: it normalizes the data once and keeps each feature's normalized
//! column — an exact rank-1 factoring of that feature's contribution
//! matrix (`(col[i] − col[j])²`) — so greedy forward selection holds the
//! accumulated matrix of `S` in row strips, adds each chosen feature to
//! it once, and evaluates every candidate subset `S ∪ {f}` with an O(n²)
//! scan instead of an O(n²·|S|) recompute. Past the memory budget the
//! strips are dropped after each round and rebuilt the next.
//!
//! The columns are deliberately *not* expanded into dense per-feature
//! matrices: at full-corpus scale those are `d·n²·8 ≈ 3.6 GB` and every
//! greedy sweep streams them from DRAM, which measures *slower* than
//! recomputing `(col[i] − col[j])²` on the fly from the ~1 MB of columns
//! that stay resident in L2 (one subtract and multiply per pair versus a
//! DRAM load). See DESIGN.md §8 for the measurements.
//!
//! Min-max normalization is per-column, so normalizing the full dataset
//! once yields bitwise the same columns as normalizing any
//! `select_features` subset — the cached contributions are exact for
//! every subset.
//!
//! [`DistanceMatrix`] is the full pairwise matrix, materialized, and
//! [`crate::KernelCache::from_distances`] derives an RBF kernel from it.
//! The program builds neither: the LOGO sweep streams the same distances
//! row by row and writes its kernels in place. Both stay as the
//! bit-identity reference of the tests and of perfbench's distance and
//! kernel probes.

use crate::dataset::{dist2, Dataset, MinMaxNormalizer};
use loopml_rt::par_map_threads;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-global count of [`DistanceMatrix::compute`] invocations. The
/// sweep subsystem's whole premise is "one distance pass, many kernels";
/// this counter turns that claim into something a test (and the `repro
/// sweep` report) can assert instead of trusting.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of pairwise distance-matrix builds performed by this process so
/// far. Monotonic; callers snapshot it before a sweep and assert the
/// delta (the counter is process-global, so absolute values are
/// meaningless in a multi-test process).
pub fn distance_builds() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

/// Counts one streaming distance pass toward [`distance_builds`]. The
/// streaming sweep touches every pair exactly once without materializing
/// a [`DistanceMatrix`], so it still counts as one build — the "one
/// distance pass, many kernels" invariant the sweep gate asserts.
pub(crate) fn record_streaming_build() {
    BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Live bytes currently held in pairwise-distance buffers (dense
/// matrices, greedy base matrices and strips, the sweep's streamed rows).
static CUR_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CUR_BYTES`] since the last reset.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// High-water mark, in bytes, of concurrently-live pairwise-distance
/// buffers since the last [`reset_distance_bytes`]. This is the number
/// the memory-contract test bounds: greedy selection past the budget
/// keeps it at `workers · tile_rows · n · 8` instead of `n² · 8`, and
/// the sweep at `workers · n · 8`.
pub fn peak_distance_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Zeroes the live/peak distance-buffer accounting. Call at a
/// measurement boundary (buffers created before the reset are no longer
/// counted when they drop — the counters saturate at zero rather than
/// underflow).
pub fn reset_distance_bytes() {
    CUR_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
}

/// RAII accounting for one distance buffer: registers `bytes` as live on
/// creation (bumping the peak), releases them on drop.
pub(crate) struct DistAlloc(u64);

impl DistAlloc {
    pub(crate) fn new(bytes: u64) -> Self {
        let cur = CUR_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(cur, Ordering::Relaxed);
        DistAlloc(bytes)
    }
}

impl Drop for DistAlloc {
    fn drop(&mut self) {
        // Saturating: a reset between creation and drop zeroed CUR.
        let _ = CUR_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(self.0))
        });
    }
}

/// Live bytes currently held in RBF kernel buffers (one n×n matrix per
/// gamma) — the *other* quadratic resident, and the largest matrices
/// the sweep keeps. Tracked by the same RAII discipline as the distance
/// buffers so the memory accounting covers every n×n allocation, not
/// just distances.
static KERNEL_CUR: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`KERNEL_CUR`] since the last reset.
static KERNEL_PEAK: AtomicU64 = AtomicU64::new(0);

/// High-water mark, in bytes, of concurrently-live RBF kernel buffers
/// since the last [`reset_kernel_bytes`]. The memory-contract test
/// bounds the sweep's at one kernel per gamma — a budget claim over
/// distance bytes alone is vacuous if per-gamma kernels dwarf it
/// unobserved.
pub fn peak_kernel_bytes() -> u64 {
    KERNEL_PEAK.load(Ordering::Relaxed)
}

/// Zeroes the live/peak kernel-buffer accounting, mirroring
/// [`reset_distance_bytes`] (same saturating-drop semantics for buffers
/// that straddle the reset).
pub fn reset_kernel_bytes() {
    KERNEL_CUR.store(0, Ordering::Relaxed);
    KERNEL_PEAK.store(0, Ordering::Relaxed);
}

/// RAII accounting for one kernel buffer: registers `bytes` as live on
/// creation (bumping the kernel peak), releases them on drop. Cloning
/// registers a second allocation — a cloned `KernelCache` really does
/// hold a second n×n buffer.
#[derive(Debug)]
pub(crate) struct KernelAlloc(u64);

impl KernelAlloc {
    pub(crate) fn new(bytes: u64) -> Self {
        let cur = KERNEL_CUR.fetch_add(bytes, Ordering::Relaxed) + bytes;
        KERNEL_PEAK.fetch_max(cur, Ordering::Relaxed);
        KernelAlloc(bytes)
    }
}

impl Clone for KernelAlloc {
    fn clone(&self) -> Self {
        KernelAlloc::new(self.0)
    }
}

impl Drop for KernelAlloc {
    fn drop(&mut self) {
        // Saturating: a reset between creation and drop zeroed CUR.
        let _ = KERNEL_CUR.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(self.0))
        });
    }
}

/// Default budget a full n×n distance buffer may occupy before greedy
/// selection switches to row strips: 256 MiB.
pub const DEFAULT_TILE_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// The distance-buffer budget in bytes. `LOOPML_TILE_BYTES` overrides
/// the default (invalid or zero values fall back silently — the budget
/// only selects an execution strategy, every strategy is bit-identical).
pub fn tile_budget_bytes() -> u64 {
    match std::env::var("LOOPML_TILE_BYTES") {
        Ok(s) => s
            .trim()
            .parse()
            .ok()
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_TILE_BUDGET_BYTES),
        Err(_) => DEFAULT_TILE_BUDGET_BYTES,
    }
}

/// Tile height (rows per strip) such that `threads` concurrent strip
/// buffers of `tile_rows × n` stay within the [`tile_budget_bytes`]
/// budget. At least 1 (a single row is the smallest streamable unit),
/// at most `n`.
pub fn tile_rows_for(n: usize, threads: usize) -> usize {
    let workers = threads.max(1) as u64;
    let row_bytes = 8 * n.max(1) as u64;
    let per_worker = tile_budget_bytes() / workers / row_bytes;
    (per_worker as usize).clamp(1, n.max(1))
}

/// Full pairwise squared-distance matrix over a set of rows, stored flat
/// row-major (`d2[i * n + j]`).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    d2: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise squared distances (symmetric; each pair is
    /// computed once and mirrored).
    pub fn compute(xs: &[Vec<f64>]) -> Self {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = xs.len();
        // Record the dense buffer against the peak tracker. The matrix
        // outlives this function, so the bytes are registered as a
        // transient high-water bump rather than held live (callers that
        // care about sustained footprint use the streaming paths, which
        // account their tiles with RAII guards).
        drop(DistAlloc::new((n * n * 8) as u64));
        let mut d2 = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = dist2(&xs[i], &xs[j]);
                d2[i * n + j] = v;
                d2[j * n + i] = v;
            }
        }
        DistanceMatrix { n, d2 }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Squared distance between rows `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.d2[i * self.n + j]
    }

    /// Row `i` of the matrix: squared distances from `i` to every row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.d2[i * self.n..(i + 1) * self.n]
    }
}

/// Per-feature pairwise squared-distance contributions over a normalized
/// dataset, plus the labels — everything the leave-self-out 1-NN greedy
/// criterion needs.
///
/// Each feature's contribution matrix is held in factored form as its
/// normalized column (`(col[i] − col[j])²` on demand); the full column
/// set is `d · n · 8` bytes and stays cache-resident even at corpus
/// scale, so deriving a contribution costs one subtract-multiply per
/// pair instead of a DRAM load from a dense `d · n²` expansion.
#[derive(Debug, Clone)]
pub struct FeatureDistCache {
    n: usize,
    d: usize,
    /// Normalized feature columns, column-major: `cols[f * n + i]`.
    cols: Vec<f64>,
    labels: Vec<usize>,
}

/// Rows `lo..hi` of the accumulated distance matrix of the features
/// greedy selection has chosen: `sums` holds the first `summed` chosen
/// features' contributions, row-major, or is `None` while the strip is
/// dropped (then `summed` is 0).
pub(crate) struct Strip {
    lo: usize,
    hi: usize,
    summed: usize,
    sums: Option<(Vec<f64>, DistAlloc)>,
}

impl Strip {
    /// Dropped strips of `rows` rows each (at least one; the last may be
    /// shorter) covering `0..n`.
    pub(crate) fn cover(n: usize, rows: usize) -> Vec<Mutex<Strip>> {
        let rows = rows.max(1);
        (0..n)
            .step_by(rows)
            .map(|lo| {
                Mutex::new(Strip {
                    lo,
                    hi: (lo + rows).min(n),
                    summed: 0,
                    sums: None,
                })
            })
            .collect()
    }
}

impl FeatureDistCache {
    /// Normalizes `data` (per-column min-max, exactly as every classifier
    /// in this crate does) and caches the per-feature columns.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len();
        let d = data.dims();
        let mut cols = vec![0.0; d * n];
        if n > 0 {
            let norm = MinMaxNormalizer::fit(&data.x);
            let xs = norm.transform(&data.x);
            for (i, row) in xs.iter().enumerate() {
                for (f, &v) in row.iter().enumerate() {
                    cols[f * n + i] = v;
                }
            }
        }
        FeatureDistCache {
            n,
            d,
            cols,
            labels: data.y.clone(),
        }
    }

    /// Number of examples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Leave-self-out 1-NN training errors of every candidate subset
    /// `S ∪ {f}`, `f` over `candidates`, where `S` is `selected` in
    /// selection order: the hot loop of greedy forward selection. The
    /// accumulated distance matrix of `S` lives in row `strips`, one work
    /// item each. Each strip adds the selected features it has not summed
    /// yet (only the newest if it was kept from the last round, all of
    /// them if it was dropped), scans its rows for every candidate while
    /// they are cache-hot, and is then kept for the next round if `keep`,
    /// else dropped: peak memory is `n² · 8` bytes with kept strips and
    /// `workers · strip rows · n · 8` with dropped ones.
    ///
    /// Bit-identical at any strip height, `keep` and `threads`: every
    /// matrix element is the same left-to-right sum over `S` that
    /// [`crate::nn1_training_error`] computes, each row's argmin is the
    /// same two-pass scan, and error counts are integers.
    ///
    /// # Panics
    ///
    /// Panics if any feature index is out of range.
    pub(crate) fn nn1_errors(
        &self,
        strips: &[Mutex<Strip>],
        selected: &[usize],
        candidates: &[usize],
        keep: bool,
        threads: usize,
    ) -> Vec<f64> {
        for &f in selected.iter().chain(candidates) {
            assert!(f < self.d, "feature index out of range");
        }
        let n = self.n;
        if n < 2 {
            return vec![1.0; candidates.len()];
        }
        let counts = par_map_threads(threads, strips, |strip| {
            let mut guard = strip.lock().expect("no worker panicked holding a strip");
            let strip = &mut *guard;
            let (lo, hi) = (strip.lo, strip.hi);
            let (sums, _acct) = strip.sums.get_or_insert_with(|| {
                let len = (hi - lo) * n;
                (vec![0.0f64; len], DistAlloc::new((len * 8) as u64))
            });
            for &f in &selected[strip.summed..] {
                let col = &self.cols[f * n..(f + 1) * n];
                for (row, i) in sums.chunks_exact_mut(n).zip(lo..hi) {
                    let ci = col[i];
                    for (b, &cj) in row.iter_mut().zip(col) {
                        let d = ci - cj;
                        *b += d * d;
                    }
                }
            }
            let mut errs = vec![0u32; candidates.len()];
            for (row, i) in sums.chunks_exact(n).zip(lo..hi) {
                self.scan_row_candidates(row, i, candidates, &mut errs);
            }
            if keep {
                strip.summed = selected.len();
            } else {
                strip.sums = None;
                strip.summed = 0;
            }
            errs
        });
        Self::sum_error_counts(counts, candidates.len(), n)
    }

    /// One example's contribution to every candidate's error count:
    /// finds `i`'s nearest neighbor under `S ∪ {f}` for each candidate
    /// `f` (via the shared two-pass argmin) and bumps the candidate's
    /// error if the labels differ. `brow` is row `i` of the accumulated
    /// matrix of `S`.
    fn scan_row_candidates(&self, brow: &[f64], i: usize, candidates: &[usize], errs: &mut [u32]) {
        let n = self.n;
        for (ci, &f) in candidates.iter().enumerate() {
            let col = &self.cols[f * n..(f + 1) * n];
            let ci_v = col[i];
            let lo = min_col_range(brow, col, ci_v, 0, i);
            let hi = min_col_range(brow, col, ci_v, i + 1, n);
            // `<=` sends exact cross-range ties to the first
            // range: the lowest index wins, just like the serial
            // ascending scan.
            let nearest = if lo <= hi {
                find_col(brow, col, ci_v, 0, i, lo)
            } else {
                find_col(brow, col, ci_v, i + 1, n, hi)
            };
            if self.labels[nearest] != self.labels[i] {
                errs[ci] += 1;
            }
        }
    }

    /// Sums per-strip integer error counts and converts to error rates.
    /// Integer tallies make the result independent of the strip
    /// partition, hence of `threads` and the strip height.
    fn sum_error_counts(counts: Vec<Vec<u32>>, len: usize, n: usize) -> Vec<f64> {
        let mut total = vec![0u64; len];
        for block in counts {
            for (t, c) in total.iter_mut().zip(block) {
                *t += u64::from(c);
            }
        }
        total.into_iter().map(|e| e as f64 / n as f64).collect()
    }
}

/// Minimum of `brow[j] + (ci − col[j])²` over `j ∈ [lo, hi)` (`+∞` when
/// empty). Min-only on purpose: without index tracking the loop is a
/// pure arithmetic-and-min reduction the compiler vectorizes, and the
/// compare-select keeps the minimum equal to one of the computed values
/// exactly, so the winning index is recovered afterwards by an equality
/// scan ([`find_col`]) over the same values.
///
/// `inline(never)`: compiled standalone this is a clean packed-min loop;
/// inlined into the candidate sweep it merges with surrounding control
/// flow and loses half its throughput (measured ~2.5× slower on the
/// smoke corpus). The call overhead is amortized over an O(n) scan.
#[inline(never)]
fn min_col_range(brow: &[f64], col: &[f64], ci: f64, lo: usize, hi: usize) -> f64 {
    const LANES: usize = 4;
    let a = &brow[lo..hi];
    let c = &col[lo..hi];
    let chunks = a.len() / LANES * LANES;
    let mut mv = [f64::INFINITY; LANES];
    let mut k = 0;
    while k < chunks {
        for l in 0..LANES {
            // Compare-select rather than `f64::min`: identical for the
            // NaN-free sums here, and it compiles to the packed-min
            // instruction `f64::min`'s NaN handling blocks.
            let d = ci - c[k + l];
            let v = a[k + l] + d * d;
            mv[l] = if v < mv[l] { v } else { mv[l] };
        }
        k += LANES;
    }
    let mut m = mv[0].min(mv[1]).min(mv[2].min(mv[3]));
    for k in chunks..a.len() {
        let d = ci - c[k];
        m = m.min(a[k] + d * d);
    }
    m
}

/// First `j ∈ [lo, hi)` with `brow[j] + (ci − col[j])² == target` — the
/// lowest index attaining the minimum, the same winner a serial
/// ascending strict-`<` scan picks.
///
/// # Panics
///
/// Panics if no element equals `target` (impossible when `target` came
/// from [`min_col_range`] over the same range).
#[inline]
fn find_col(brow: &[f64], col: &[f64], ci: f64, lo: usize, hi: usize, target: f64) -> usize {
    (lo..hi)
        .find(|&j| {
            let d = ci - col[j];
            brow[j] + d * d == target
        })
        .expect("minimum came from this range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_rt::Rng;

    fn arb_dataset(rng: &mut Rng, n: usize, d: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4usize)).collect();
        Dataset::new(
            x,
            y,
            4,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn distance_matrix_matches_dist2() {
        let mut rng = Rng::seed_from_u64(7);
        let data = arb_dataset(&mut rng, 12, 5);
        let dm = DistanceMatrix::compute(&data.x);
        for i in 0..data.len() {
            for j in 0..data.len() {
                assert_eq!(
                    dm.get(i, j).to_bits(),
                    dist2(&data.x[i], &data.x[j]).to_bits()
                );
            }
            assert_eq!(dm.row(i)[i], 0.0);
        }
    }

    #[test]
    fn tiny_datasets_report_full_error() {
        let data = arb_dataset(&mut Rng::seed_from_u64(1), 1, 2);
        let cache = FeatureDistCache::fit(&data);
        for keep in [true, false] {
            let errors = cache.nn1_errors(&Strip::cover(1, 1), &[], &[0, 1], keep, 1);
            assert_eq!(errors, vec![1.0, 1.0]);
        }
    }

    /// Every candidate's strip error must equal the direct
    /// `nn1_training_error` of `S ∪ {f}`, bit for bit, as `S` grows one
    /// feature a round: at every strip height, kept or dropped, at every
    /// thread count, and on tie-heavy integer data where argmin
    /// tie-breaking (lowest index wins) actually gets exercised.
    #[test]
    fn strip_errors_match_direct_error_of_every_candidate() {
        use crate::feature_select::nn1_training_error;
        let mut rng = Rng::seed_from_u64(0x417);
        for round in 0..12 {
            let n = rng.gen_range(4..24usize);
            let d = rng.gen_range(1..8usize);
            let data = if round % 2 == 0 {
                arb_dataset(&mut rng, n, d)
            } else {
                // Small-integer features: many exactly-tied distances.
                let x: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..d).map(|_| rng.gen_range(0..3) as f64).collect())
                    .collect();
                let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
                Dataset::new(
                    x,
                    y,
                    3,
                    (0..d).map(|j| format!("f{j}")).collect(),
                    (0..n).map(|i| format!("e{i}")).collect(),
                )
            };
            let cache = FeatureDistCache::fit(&data);
            for rows in [1, 3, n] {
                for keep in [true, false] {
                    for threads in [1, 2, 4] {
                        let strips = Strip::cover(n, rows);
                        // Select the features last to first.
                        let mut selected: Vec<usize> = Vec::new();
                        for f in (0..d).rev() {
                            let candidates: Vec<usize> = (0..=f).collect();
                            let errors =
                                cache.nn1_errors(&strips, &selected, &candidates, keep, threads);
                            for (&c, &err) in candidates.iter().zip(&errors) {
                                let cols: Vec<usize> =
                                    selected.iter().copied().chain([c]).collect();
                                let direct = nn1_training_error(&data.select_features(&cols));
                                assert_eq!(
                                    err, direct,
                                    "round {round}, S ∪ {{f}} = {cols:?}, {rows} rows, \
                                     keep {keep}, {threads} threads"
                                );
                            }
                            selected.push(f);
                        }
                    }
                }
            }
        }
    }
}
