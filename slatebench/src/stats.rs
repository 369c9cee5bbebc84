//! Order statistics and the reduction of per-epoch samples to latency
//! quantiles.

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of quantile `q` among `n` samples: `ceil(q n)`, with a
/// tolerance so that 0.9 × 100 (90.00000000000001 in binary) is 90.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice. `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank percentile of an unsorted, non-empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// A timing metric: one value per epoch, and their reduction to the
/// reported value — a median over epochs, so that one disturbed stretch of
/// the sandbox, or one unlucky daemon instance, cannot move the figure.
#[derive(Debug, Clone)]
pub struct Segmented {
    /// The reported value.
    pub value: f64,
    /// The per-epoch values, in time order; their min–max is the
    /// within-run spread.
    pub segments: Vec<f64>,
    /// Samples behind the smallest epoch.
    pub min_samples: usize,
}

impl Segmented {
    /// Reduces per-epoch values to their median.
    pub fn of(segments: Vec<f64>, min_samples: usize) -> Self {
        Self {
            value: median(&segments),
            segments,
            min_samples,
        }
    }
}

/// Latency quantile `q` over a run: `epochs` holds each epoch's samples.
/// Where every epoch can support the quantile on its own, the value is the
/// median of the per-epoch quantiles. Where epochs are too small for that
/// (`sim_paper`: a dozen sweeps each), the samples of the whole run are
/// pooled and the pool must support it. `Err` when neither does, unless
/// `relaxed`.
pub fn latency_quantile(epochs: &[Vec<f64>], q: f64, relaxed: bool) -> Result<Segmented, String> {
    let smallest = epochs.iter().map(Vec::len).min().unwrap_or(0);
    if smallest == 0 {
        return Err("an epoch completed no op".to_string());
    }
    let per_epoch: Vec<f64> = epochs.iter().map(|e| quantile(e, q)).collect();
    if supports(smallest, q) {
        return Ok(Segmented::of(per_epoch, smallest));
    }
    let pool: Vec<f64> = epochs.iter().flatten().copied().collect();
    if !relaxed && !supports(pool.len(), q) {
        return Err(format!(
            "{} samples in {} epochs: fewer than {MIN_BEYOND} beyond p{}",
            pool.len(),
            epochs.len(),
            q * 100.0
        ));
    }
    Ok(Segmented {
        value: quantile(&pool, q),
        segments: per_epoch,
        min_samples: pool.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(100, 0.9));
        assert!(supports(20, 0.5));
    }

    #[test]
    fn large_epochs_reduce_per_epoch_and_small_ones_pool() {
        let epoch = |base: f64| (0..100).map(|i| base + f64::from(i)).collect::<Vec<_>>();
        let big = [epoch(0.0), epoch(1000.0), epoch(10.0)];
        let p90 = latency_quantile(&big, 0.9, false).unwrap();
        assert_eq!(p90.segments, vec![89.0, 1089.0, 99.0]);
        assert_eq!(
            p90.value, 99.0,
            "median of the epochs: the outlier epoch is ignored"
        );
        assert_eq!(p90.min_samples, 100);

        let small: Vec<Vec<f64>> = (0..20)
            .map(|e| (0..10).map(|i| f64::from(e * 10 + i)).collect())
            .collect();
        let p90 = latency_quantile(&small, 0.9, false).unwrap();
        assert_eq!(p90.value, 179.0, "pooled: 200 samples");
        assert_eq!(p90.min_samples, 200);
        assert!(latency_quantile(&small[..5], 0.9, false).is_err());
        assert!(latency_quantile(&small[..5], 0.9, true).is_ok());
        assert!(latency_quantile(&[vec![], vec![1.0]], 0.5, true).is_err());
    }
}
