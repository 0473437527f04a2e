//! Order statistics used by the report: medians, quartiles, and the
//! tail-percentile rule.

/// Percentiles the report may quote for a tail, in per mille, highest
/// first (999 is p99.9).
const TAIL_CANDIDATES: [u32; 5] = [999, 990, 950, 900, 750];

/// Samples a quoted tail percentile must have strictly beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Sorted copy of `values` (total order; NaN never occurs in timings).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let m = v.len() + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// 1-based nearest rank of the per-mille percentile `pm` among `n`
/// samples (integer arithmetic, so p99.9 of 10 000 is exactly 9 990).
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `values` at `pm` per mille
/// (0 < pm <= 1000): the smallest sample with at least that share of
/// the samples at or below it.
pub fn percentile(values: &[f64], pm: u32) -> f64 {
    assert!(!values.is_empty() && pm > 0 && pm <= 1000);
    let v = sorted(values);
    v[rank(v.len(), pm) - 1]
}

/// Samples strictly above the nearest-rank percentile at `pm` per mille
/// of `n` samples.
pub fn beyond(n: usize, pm: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pm)
    }
}

/// The highest quotable tail percentile for `n` samples: the highest
/// candidate with at least [`TAIL_MIN_BEYOND`] samples beyond it, or
/// `None` when even the lowest candidate has too few.
pub fn highest_tail(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| beyond(n, pm) >= TAIL_MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 100.0);
        assert_eq!(percentile(&v, 950), 190.0);
        assert_eq!(percentile(&v, 1000), 200.0);
        assert_eq!(percentile(&[7.0], 950), 7.0);
        assert_eq!(beyond(200, 950), 10);
        assert_eq!(beyond(10_000, 999), 10);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(39), None, "p75 of 39 has only 9 beyond");
        assert_eq!(highest_tail(40), Some(750));
        assert_eq!(highest_tail(100), Some(900));
        assert_eq!(highest_tail(199), Some(900), "p95 of 199 has only 9 beyond");
        assert_eq!(highest_tail(200), Some(950));
        assert_eq!(highest_tail(208), Some(950));
        assert_eq!(highest_tail(1000), Some(990));
        assert_eq!(highest_tail(10_000), Some(999));
    }
}
