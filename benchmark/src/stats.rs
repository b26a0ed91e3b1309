//! Order statistics and the round-to-round summary every metric is reported with.

/// One reported number: the value, how many samples stand behind it, and the
/// quartile spread of the rounds it is the median of (`None` for single
/// measurements).
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    pub spread: Option<f64>,
}

impl Stat {
    /// A single measurement (no rounds behind it).
    pub fn single(value: f64, unit: &'static str) -> Stat {
        Stat {
            value,
            unit,
            samples: 1,
            spread: None,
        }
    }

    /// The median of per-round values, with their spread.
    pub fn of_rounds(mut rounds: Vec<f64>, unit: &'static str, samples: u64) -> Stat {
        let value = median(&mut rounds);
        let spread = quartile_spread(&mut rounds);
        Stat {
            value,
            unit,
            samples,
            spread,
        }
    }
}

/// The distance between the first and the third quartile as a share of the
/// median — the spread the driver checks against a metric's bound, with
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
/// `None` for fewer than two values or a median of 0. Sorts in place.
pub fn quartile_spread(values: &mut [f64]) -> Option<f64> {
    let mid = median(values);
    let n = values.len();
    if n < 2 || mid == 0.0 {
        return None;
    }
    let quartile = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)) / mid.abs())
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a p99 needs before it is reported as one: 1,000, which leaves
/// ten beyond it.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Splits `0..n` into at most `parts` contiguous, near-equal index ranges.
pub fn split_rounds(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(n).max(1);
    (0..parts)
        .map(|i| (i * n / parts)..((i + 1) * n / parts))
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn rounds_report_median_and_spread() {
        let s = Stat::of_rounds(vec![10.0, 12.0, 11.0, 9.0, 13.0], "us", 50);
        assert_eq!(s.value, 11.0);
        // Python: statistics.quantiles([9, 10, 11, 12, 13], n=4) == [9.5, 11.0, 12.5]
        assert!((s.spread.unwrap() - 3.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128], n=4) == [2.5, 12.0, 56.0]
        let mut v = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert!((quartile_spread(&mut v).unwrap() - 53.5 / 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&mut [5.0]), None);
        assert_eq!(Stat::of_rounds(vec![], "us", 0).value, 0.0);
        assert_eq!(split_rounds(7, 5).len(), 5);
        assert_eq!(split_rounds(3, 5).len(), 3);
    }
}
