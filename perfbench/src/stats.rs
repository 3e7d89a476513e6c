//! Percentiles over latency samples in which a failed request counts as
//! +∞, and the rule that a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A latency percentile, or the reason it cannot be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Percentile {
    /// The value (`f64::INFINITY` when the rank falls on a failed request).
    Value(f64),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the rank.
    TooFewSamples {
        /// Samples in the set.
        samples: usize,
        /// Samples beyond the rank.
        beyond: usize,
    },
}

impl Percentile {
    /// The value, if reportable.
    pub fn value(self) -> Option<f64> {
        match self {
            Percentile::Value(v) => Some(v),
            Percentile::TooFewSamples { .. } => None,
        }
    }
}

/// Nearest-rank percentile `p` (in `0..1`) of `samples`, where `None` is a
/// failed request and sorts as +∞.
pub fn percentile(samples: &[Option<f64>], p: f64) -> Percentile {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Percentile::TooFewSamples { samples: n, beyond };
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    Percentile::Value(sorted[rank - 1])
}

/// Median of finite values (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(n: usize) -> Vec<Option<f64>> {
        (1..=n).map(|i| Some(i as f64)).collect()
    }

    #[test]
    fn nearest_rank_on_complete_samples() {
        let s = ok(1000);
        assert_eq!(percentile(&s, 0.50), Percentile::Value(500.0));
        assert_eq!(percentile(&s, 0.99), Percentile::Value(990.0));
    }

    #[test]
    fn failed_requests_count_as_infinity() {
        let mut s = ok(990);
        s.extend(std::iter::repeat_n(None, 10));
        // Ranks 991..=1000 are the failures: p99 (rank 990) is still finite,
        // p99.5 (rank 995) lands on a failure.
        assert_eq!(percentile(&s, 0.99), Percentile::Value(990.0));
        let mut s = ok(980);
        s.extend(std::iter::repeat_n(None, 20));
        assert_eq!(percentile(&s, 0.99), Percentile::Value(f64::INFINITY));
        // A failure sorts last even when listed first.
        let mut s = vec![None; 600];
        s.extend(ok(400));
        assert_eq!(percentile(&s, 0.50), Percentile::Value(f64::INFINITY));
    }

    #[test]
    fn refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        // 999 samples: rank of p99 is 990, only 9 beyond.
        assert_eq!(
            percentile(&ok(999), 0.99),
            Percentile::TooFewSamples {
                samples: 999,
                beyond: 9
            }
        );
        assert!(percentile(&ok(1000), 0.99).value().is_some());
        assert!(percentile(&ok(19), 0.50).value().is_none());
        assert!(percentile(&ok(20), 0.50).value().is_some());
        assert!(percentile(&[], 0.50).value().is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
