//! Order statistics and ratios for the report.

/// Cut points dividing `xs` into `n` equal-probability groups, by the
/// same rule as Python's `statistics.quantiles(xs, n=n)` (the default
/// "exclusive" method), so the benchmark's spreads match an external
/// check's exactly. Needs at least two samples.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(xs.len() >= 2 && n >= 1, "quantiles need two samples");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// The middle value (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50)
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`): a yield or
/// share over zero attempts reads as nothing gained.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten of `samples` beyond it; 50 (the median) when none has.
pub fn tail_percentile(samples: usize) -> u32 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| samples as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .unwrap_or(50)
}

/// The `p`-th percentile of `xs` by linear interpolation between closest
/// ranks.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty() && p <= 100);
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = (data.len() - 1) as f64 * p as f64 / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    data[lo] + (data[hi] - data[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // Few samples extrapolate past the extremes, as in Python:
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quantiles(&[5.0, 1.0], 4), vec![0.0, 3.0, 6.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=10)
        let q = quantiles(&[1.0, 2.0, 4.0, 8.0, 16.0], 10);
        assert_eq!(q, vec![0.6, 1.2, 1.8, 2.8, 4.0, 6.4, 9.6, 14.4, 19.2]);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn ratio_guards_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 75), 7.5);
        assert_eq!(percentile(&xs, 100), 10.0);
        assert_eq!(percentile(&[2.0, 4.0], 50), 3.0);
    }
}
