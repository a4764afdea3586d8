//! Order statistics for latency samples.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (or none exist).
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 0.99).is_some());
        // 999 samples: p99 is rank 990, leaving 9 beyond.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..10], 0.5), None);
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        // The median of 21 samples leaves 10 beyond.
        assert_eq!(percentile(&v[..21], 0.5), Some(11));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
