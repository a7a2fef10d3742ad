//! Small statistics helpers for experiment reporting (the paper reports
//! medians with box plots over repeated runs).

use serde::{Deserialize, Serialize};

/// Five-number summary of a sample: min, lower quartile, median, upper
/// quartile, max.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Percentile of a sample (p ∈ [0, 100]), interpolated linearly between
/// the two closest ranks of the sorted data, so the median of an even-sized
/// sample is the mean of its middle pair (nearest-rank rounding would make
/// the median of two runs their maximum).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Computes the five-number summary of a sample.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        min: percentile(values, 0.0),
        q1: percentile(values, 25.0),
        median: percentile(values, 50.0),
        q3: percentile(values, 75.0),
        max: percentile(values, 100.0),
    }
}

/// Geometric mean (transmission ratios are multiplicative quantities).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // n = 1: every percentile is the value.
        assert_eq!(summarize(&[7.0]), summarize(&[7.0, 7.0]));
        // n = 2: the median is the mean, not the maximum.
        let s = summarize(&[10.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (2.0, 4.0, 6.0, 8.0, 10.0)
        );
        // n = 4: quartiles at ranks 0.75, 1.5, 2.25.
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.75, 2.5, 3.25, 4.0)
        );
    }

    #[test]
    fn summary_ordered() {
        let v: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        let s = summarize(&v);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 99.0);
        assert_eq!(s.median, 50.0);
    }

    #[test]
    fn single_value_summary() {
        let s = summarize(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let v = [0.01, 1.0];
        assert!((geometric_mean(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
