//! Order statistics with the sample-count rule: a tail percentile is
//! only trustworthy when at least [`MIN_BEYOND`] samples lie beyond it,
//! so every reported percentile carries its count of samples beyond.

/// Samples that must lie beyond a percentile for it to be reportable.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    /// Whether enough samples lie beyond the percentile to report it.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The `q`-quantile (0 < q ≤ 1) by nearest rank: the value at 1-based
/// rank ⌈q·n⌉ of the sorted samples. `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let r = rank(n, q);
    Some(Pct {
        value: sorted[r - 1],
        samples: n,
        beyond: n - r,
    })
}

/// The median (nearest-rank p50); `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_beyond_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).expect("non-empty");
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        let p90 = percentile(&v, 0.9).expect("non-empty");
        assert_eq!((p90.value, p90.beyond, p90.samples), (90.0, 10, 100));
        assert!(p90.reportable());
        let p99 = percentile(&v, 0.99).expect("non-empty");
        assert_eq!(p99.beyond, 1);
        assert!(!p99.reportable());
    }

    #[test]
    fn order_and_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let one = percentile(&[7.0], 0.9).expect("non-empty");
        assert_eq!((one.value, one.beyond), (7.0, 0));
    }

    #[test]
    fn p90_needs_a_hundred_samples_and_p50_twenty() {
        let reportable = |n: usize, q: f64| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            percentile(&v, q).expect("non-empty").reportable()
        };
        assert!(!reportable(99, 0.9) && reportable(100, 0.9));
        assert!(!reportable(19, 0.5) && reportable(20, 0.5));
    }
}
