//! Order statistics of the benchmark's samples.

/// Median of `v` (0 for an empty slice); see [`quantile`].
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Harrell–Davis estimate of the quantile `p` ∈ (0, 1) of `v` (0 for an
/// empty slice): a weighted mean of all order statistics, the `i`-th of
/// `n` weighted by the mass a Beta(p(n+1), (1−p)(n+1)) distribution puts
/// on `[(i−1)/n, i/n]`. On the small samples here (15 requests in a
/// `certify` pass, a handful of passes per run) it varies much less
/// from run to run than a single order statistic does.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    // Midpoint rule, `STEPS` points per order statistic, in log space
    // so that the density's scale never overflows.
    const STEPS: usize = 64;
    let h = 1.0 / (n * STEPS) as f64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let t = (j as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let mut weight = vec![0.0; n];
    for (j, l) in log_density.iter().enumerate() {
        weight[j / STEPS] += (l - top).exp();
    }
    let total: f64 = weight.iter().sum();
    weight.iter().zip(&sorted).map(|(w, x)| w * x).sum::<f64>() / total
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n - rank.min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_symmetric_samples_is_their_centre() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!((median(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p95 = quantile(&v, 0.95);
        assert!(p95 > 94.0 && p95 < 97.0, "{p95}");
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(15, 0.5), 7);
        assert_eq!(beyond(15, 0.95), 0);
        assert_eq!(beyond(240, 0.95), 12);
    }
}
