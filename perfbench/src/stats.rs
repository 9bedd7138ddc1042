//! Order statistics for the report.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Sorts a copy and summarizes it.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary { sorted }
}

pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    pub fn median(&self) -> f64 {
        self.p(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Whether `p` has at least ten samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        highest_supported_percentile(self.len()).is_some_and(|top| top >= p)
    }
}

/// Median of a few repeated measurements.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        let s = summarize(&vec![1.0; 1500]);
        assert!(s.supports(99.0) && !s.supports(99.9));
    }

    #[test]
    fn summary_is_order_independent() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.p(100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
