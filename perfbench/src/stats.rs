//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the "inclusive" definition). 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The arithmetic mean of `samples` (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples` (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Per position, the least of the repeats' samples: the best-of-run
/// time of each step when every repeat times the same steps in the same
/// order. Empty for no repeats.
pub fn best_of(repeats: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = repeats.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile
/// by nearest rank: the percentile is the `⌈pct/100 · n⌉`-th smallest
/// sample, and every sample ranked after it is beyond it.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    // The epsilon keeps float noise in `pct · n` (e.g. 99.9 · 10⁴) from
    // rounding an exact rank up by one.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    n - rank.min(n)
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least `min_beyond` of `n` samples beyond it — the tail percentile the
/// sample count can support. `None` when even the lowest candidate
/// leaves too few.
pub fn tail_percentile(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_takes_each_position_minimum() {
        let repeats = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.5],
            vec![2.5, 0.5, 6.0],
        ];
        assert_eq!(best_of(&repeats), vec![2.0, 0.5, 5.0]);
        assert!(best_of(&[]).is_empty());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn counts_samples_beyond_a_percentile() {
        // p90 of 168 hourly samples is the 152nd; 16 lie beyond it.
        assert_eq!(samples_beyond(168, 90.0), 16);
        assert_eq!(samples_beyond(168, 99.0), 1);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn picks_highest_percentile_with_ten_beyond() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(tail_percentile(168, &candidates, 10), Some(90.0));
        assert_eq!(tail_percentile(100, &candidates, 10), Some(90.0));
        assert_eq!(tail_percentile(99, &candidates, 10), Some(50.0));
        assert_eq!(tail_percentile(1000, &candidates, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, &candidates, 10), Some(99.9));
        assert_eq!(tail_percentile(19, &candidates, 10), None);
        assert_eq!(tail_percentile(20, &candidates, 10), Some(50.0));
    }
}
