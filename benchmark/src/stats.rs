//! Order statistics for latency samples.

/// Candidate tail percentiles, highest first.  A workload reports the
/// highest one that still has at least [`TAIL_MIN_BEYOND`] samples beyond it
/// at its fixed sample count.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond the reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples, computed in
/// integer hundredths of a percent so that e.g. p99 of 1000 is rank 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail percentile a workload with `n` samples reports.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of an unordered sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The p50 and the tail of one latency sample.
#[derive(Debug, Clone)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(400), 95.0);
        assert_eq!(tail_percentile(9_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [20, 100, 250, 400, 999, 1_000, 5_000, 20_000] {
            assert!(
                n - rank(n, tail_percentile(n)) >= TAIL_MIN_BEYOND,
                "n = {n}"
            );
        }
    }

    #[test]
    fn nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(rank(1_000, 99.0), 990);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
