//! Small summary-statistics helpers for the experiment harness.
//!
//! Derived *rates* are not computed here: the harness reads them off
//! [`sea_core::BatchOutcome`], whose methods call the engine's one
//! implementation, so a number in bench JSON and the same number on the
//! outcome can never disagree.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation (the paper reports stddev over its
    /// 20 trials, not a sample-corrected estimate).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Computes summary statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub(crate) fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        Summary {
            mean,
            stddev: var.sqrt(),
            min,
            max,
            n,
        }
    }
}

/// Nearest-rank percentile over an **already sorted** sample: `p` in
/// `[0, 1]` selects `sorted[round((n - 1) · p)]`. This is the one
/// percentile definition the whole workspace uses (wall-clock harness
/// and virtual-time aggregation alike), consolidated here so the two
/// can never drift.
///
/// # Panics
///
/// Panics on an empty sample.
pub(crate) fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let idx = ((n - 1) as f64 * p).round() as usize;
    sorted[idx.min(n - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Summary::of(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn known_values() {
        // Population stddev of [2, 4, 4, 4, 5, 5, 7, 9] is exactly 2.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10);
        assert_eq!(percentile_sorted(&sorted, 0.5), 30);
        assert_eq!(percentile_sorted(&sorted, 0.99), 50);
        assert_eq!(percentile_sorted(&sorted, 1.0), 50);
        assert_eq!(percentile_sorted(&[7.5], 0.5), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        let _: f64 = percentile_sorted(&[], 0.5);
    }
}
