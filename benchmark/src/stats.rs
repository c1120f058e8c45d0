//! Order statistics: the percentile rule the latency metrics use and the
//! quartile spread the stability check uses.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it — the one a sample of this size can support.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // In per mille, so that "ten beyond the 90th of a hundred" is exact.
    [999, 990, 900]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

pub fn sort(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median; 0 for an empty sample (a layer that saw no work).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sort(values.to_vec());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median of whole-number readings (a stamp in whole microseconds),
/// interpolated within the unit-wide class that holds it — the textbook
/// median of grouped data — so that it resolves below the stamp's step.
pub fn grouped_median(values: &[f64]) -> f64 {
    let class = median(values).round();
    let below = values.iter().filter(|&&v| v < class).count() as f64;
    let within = values.iter().filter(|&&v| v == class).count() as f64;
    if within == 0.0 {
        return class;
    }
    class - 0.5 + (values.len() as f64 / 2.0 - below) / within
}

/// The interquartile mean: the mean of what is left once the lowest and
/// the highest quarter (rounded down) of the values are set aside. As deaf
/// to outliers as the median, but an average of several values, so it
/// does not inherit the coarse steps of any one of them (a slice's CPU
/// time is read in 10 ms ticks).
pub fn midmean(values: &[f64]) -> f64 {
    let sorted = sort(values.to_vec());
    let trim = sorted.len() / 4;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sort(values.to_vec());
    let m = sorted.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 101 samples: ceil(90.9) = 91st value.
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90.0), 91.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(50), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn grouped_median_resolves_below_the_step() {
        // Ten readings of 1 µs and ten of 2 µs: the median sits on the
        // boundary between the classes [0.5, 1.5) and [1.5, 2.5).
        let even: Vec<f64> = [1.0; 10].into_iter().chain([2.0; 10]).collect();
        assert_eq!(grouped_median(&even), 1.5);
        // Three quarters at 1 µs: the median is two thirds into class 1.
        let mostly_one: Vec<f64> = [1.0; 15].into_iter().chain([2.0; 5]).collect();
        assert!((grouped_median(&mostly_one) - (0.5 + 10.0 / 15.0)).abs() < 1e-12);
        assert_eq!(grouped_median(&[]), 0.0);
    }

    #[test]
    fn midmean_sets_the_outer_quarters_aside() {
        // Ten values: two dropped at each end, six averaged.
        let values = [100.0, 200.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, -3.0, -50.0];
        assert_eq!(midmean(&values), 7.5);
        assert_eq!(midmean(&[4.0]), 4.0);
        assert_eq!(midmean(&[1.0, 3.0, 100.0]), 104.0 / 3.0);
        assert_eq!(midmean(&[0.0, 1.0, 3.0, 100.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(spread(&values), 1.0);
    }
}
