//! Medians, quartiles and exact percentiles over raw samples.
//!
//! Latency percentiles are taken from the raw `OpRecord`s by nearest
//! rank, never from `twobit_obs::Histogram`: its power-of-two buckets
//! stop at 2048 and already pin the soak's p99.

/// One reported number: the median of its samples with their quartiles
/// and count. A value that is exact for a fixed seed has `n` identical
/// samples, so `q1 == value == q3`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Measured {
    /// A value every repetition agreed on.
    pub fn exact(value: f64, n: usize) -> Self {
        Measured {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// The median and quartiles of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(samples);
        Measured {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// numbers printed here are the ones the acceptance rule computes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Percentiles as parts per 10,000, so that ranks are whole-number
/// arithmetic (`0.99 * n` in floating point can land just above a whole
/// rank and round up to the next sample).
pub const P50: usize = 5_000;
pub const P99: usize = 9_900;

/// The nearest-rank percentile of an ascending slice: the smallest
/// element with at least `per_10k / 10,000` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[u64], per_10k: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * per_10k).div_ceil(10_000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.99 / p99.9 / p99 / p90 that still has at least ten
/// of `n` samples beyond it, as a label and parts per 10,000; `None`
/// below 100 samples.
pub fn highest_percentile(n: usize) -> Option<(&'static str, usize)> {
    [
        ("p99.99", 9_999),
        ("p99.9", 9_990),
        ("p99", P99),
        ("p90", 9_000),
    ]
    .into_iter()
    .find(|(_, per_10k)| n * (10_000 - per_10k) >= 10 * 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // Ten values, as the acceptance rule uses.
        let ten: Vec<f64> = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3].map(f64::from).to_vec();
        assert_eq!(quartiles(&ten), (1.75, 3.5, 5.25));
        assert_eq!(quartiles(&[7.5]), (7.5, 7.5, 7.5));
    }

    #[test]
    fn measured_spread_is_iqr_over_median() {
        let m = Measured::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((m.value, m.n), (4.0, 7));
        assert!((m.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Measured::exact(3.0, 7).spread(), 0.0);
        assert_eq!(Measured::exact(0.0, 7).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_is_exact_on_raw_samples() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, P50), 50);
        assert_eq!(nearest_rank(&hundred, P99), 99);
        assert_eq!(nearest_rank(&hundred, 10_000), 100);
        assert_eq!(nearest_rank(&hundred, 0), 1);
        // 0.99 * 8000 is 7920.000000000001 in floating point.
        let many: Vec<u64> = (1..=8_000).collect();
        assert_eq!(nearest_rank(&many, P99), 7_920);
        // A value above the histogram's last bucket bound stays itself.
        let tail = [3, 5, 8, 4100, 90_000];
        assert_eq!(nearest_rank(&tail, P99), 90_000);
        assert_eq!(nearest_rank(&tail, 8_000), 4100);
        assert_eq!(nearest_rank(&[7], P99), 7);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100).unwrap().0, "p90");
        assert_eq!(highest_percentile(999).unwrap().0, "p90");
        assert_eq!(highest_percentile(1_000).unwrap().0, "p99");
        assert_eq!(highest_percentile(6_000).unwrap().0, "p99");
        assert_eq!(highest_percentile(10_000).unwrap().0, "p99.9");
        assert_eq!(highest_percentile(100_000).unwrap().0, "p99.99");
    }
}
