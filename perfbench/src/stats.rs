//! Order statistics over timing samples.

/// Nearest-rank percentile of `values` at `q ∈ (0, 1]`: the smallest
/// sample with at least `q·n` samples at or below it.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 0.5)
}

/// The tail quantile a sample of `n` supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still
/// leaves ten beyond (the median when the sample is that small).
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    (n as f64 - 10.0) / n as f64
}

/// The highest supported percentile (≤ p99) of `values` and the
/// quantile it sits at.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let q = tail_quantile(values.len()).min(0.99);
    (nearest_rank(values, q), q)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_fixture() {
        // The classic nearest-rank example: {15, 20, 35, 40, 50}.
        let v = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(nearest_rank(&v, 0.05), 15.0);
        assert_eq!(nearest_rank(&v, 0.30), 20.0);
        assert_eq!(nearest_rank(&v, 0.40), 20.0);
        assert_eq!(nearest_rank(&v, 0.50), 35.0);
        assert_eq!(nearest_rank(&v, 1.00), 50.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), 99.0);
        assert_eq!(median(&hundred), 50.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [21usize, 60, 500, 1000, 2400] {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (value, q) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n} q={q} beyond={beyond}");
            assert!(q <= 0.99);
        }
        assert_eq!(tail(&[1.0, 2.0, 3.0]).1, 0.5);
    }
}
