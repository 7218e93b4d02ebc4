//! Order statistics used by every metric.

/// Nearest-rank percentile of `values` (need not be sorted); 0 when empty.
/// `q` is a fraction in `[0, 1]`: the smallest value with at least `q` of
/// the samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never touched).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 0.9), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Nearest rank never interpolates: the median of an even count is
        // the lower middle sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
