//! Order statistics for timings: medians and nearest-rank percentiles,
//! with the rule that a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer would make the tail one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Returns a sorted copy of `xs`.
///
/// # Panics
///
/// Panics on NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`. The small offset keeps a
/// product such as 99.9 · 10000 / 100, which is 9990 on paper, from
/// rounding up past an exact rank.
pub fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of already sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Rank ceil(p·n/100): for 1..=10, p50 is the 5th value, p90 the
        // 9th, p91 the 10th.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(nearest_rank(&xs, 90.0), 9.0);
        assert_eq!(nearest_rank(&xs, 91.0), 10.0);
        assert_eq!(nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p99 needs 1,000 samples (rank 990, ten beyond it).
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        // 999 samples: p99 would rest on 9, so the tail reported is p95.
        let xs = sorted(&(0..999).rev().map(f64::from).collect::<Vec<_>>());
        let p = tail_percentile(xs.len()).expect("a tail");
        assert_eq!(p, 95.0);
        assert_eq!(nearest_rank(&xs, p), 949.0);
        assert_eq!(beyond(p, xs.len()), 49);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(xs.len()), Some(99.0));
        assert_eq!(nearest_rank(&xs, 99.0), 989.0);
        assert_eq!(beyond(99.0, xs.len()), 10);
    }
}
