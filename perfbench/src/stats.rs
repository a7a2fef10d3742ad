//! Order statistics computed here rather than through
//! `muse_bench::stats::summarize`, whose nearest-rank rule makes the
//! median of two samples their maximum.

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`),
/// NaN when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let xs: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
    quantile_f64(&xs, q)
}

fn quantile_f64(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Arithmetic mean, NaN when empty.
pub fn mean(values: &[u64]) -> f64 {
    values.iter().map(|&x| x as f64).sum::<f64>() / values.len() as f64
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    quantile_f64(&xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_two_is_their_mean() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0, 10, 20, 30, 40];
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.99), 39.6);
        assert_eq!(quantile(&xs, 1.0), 40.0);
    }
}
