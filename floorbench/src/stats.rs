//! Order statistics over latency samples.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// The 0-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    let k = (p as usize * n).div_ceil(100);
    k.clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest whole percentile, capped at 99, that leaves at least ten
/// of `n` samples beyond it. Workloads pass the sample count their fleet
/// guarantees, so the chosen percentile is the same on every run.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99).rev().find(|&p| beyond(n, p) >= 10).unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(100), 90);
        for n in [40, 100, 333, 1000, 5000] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            assert!(p == 99 || beyond(n, p + 1) < 10, "n={n} p={p}");
        }
    }

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(percentile(&v, 50), 2.0);
        assert_eq!(percentile(&v, 99), 4.0);
    }
}
