//! Order statistics over raw samples. Latency percentiles are computed
//! from every recorded sample, never from bucketed histograms: two runs
//! of the same system must not differ by a bucket boundary.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two closest ranks (the "linear" method of NumPy and R's
/// type 7). `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `xs` in any order (`None` when empty).
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert!((quantile(&v, 0.99).unwrap() - 3.97).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_of_a_hundred_samples_sits_between_the_top_two() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.99).unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.5), Some(50.5));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
