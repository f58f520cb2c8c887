//! Order statistics for the report.

/// Samples a reported rank must have beyond it. A p99 over 200 samples
/// would rest on two observations; requiring ten keeps every reported tail
/// backed by a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `ceil(p/100 · n)`. `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank, i.e. the sample is too small to report `p`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts a copy and takes the percentile.
pub fn percentile_of(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// The median of a small set of repeated measurements (set-up times,
/// repeated phases). Unlike [`percentile`] this has no sample floor: it
/// summarizes repetitions, not a latency distribution.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples per window of the reported latency percentiles: enough that
/// a window's p99 has more than ten samples beyond it.
pub const WINDOW_SAMPLES: usize = 1_100;
/// The median, over consecutive windows of [`WINDOW_SAMPLES`] values (in
/// schedule order), of each window's percentile `p`. The host's hiccups
/// (multi-millisecond stalls a few times a minute) land in a few short
/// windows and leave the median alone. `None` when there is not one full
/// window.
pub fn windowed(values: &[f64], p: f64) -> Option<f64> {
    let per_window: Option<Vec<f64>> = values
        .chunks_exact(WINDOW_SAMPLES)
        .map(|w| percentile_of(w, p))
        .collect();
    per_window.filter(|v| !v.is_empty()).map(|v| median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn ranks_without_ten_samples_beyond_are_not_reported() {
        // p99 of 1000 has exactly 10 beyond it; of 999, only 9.
        assert!(percentile(&ramp(1000), 99.0).is_some());
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p50 needs 20 samples.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(5000), 100.0), None);
    }

    #[test]
    fn windowed_percentiles_shrug_off_a_stalled_window() {
        // Ten windows of a flat 100 with one window holding a 50-sample
        // stall: the median of the window p99s stays at 100.
        let mut values = vec![100.0; WINDOW_SAMPLES * 10];
        for v in &mut values[WINDOW_SAMPLES * 3..WINDOW_SAMPLES * 3 + 50] {
            *v = 5_000.0;
        }
        assert_eq!(windowed(&values, 99.0), Some(100.0));
        assert_eq!(windowed(&values[..WINDOW_SAMPLES - 1], 50.0), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
