//! Order statistics for the benchmark's samples.
//!
//! Quantiles follow Python's `statistics.quantiles` (the "exclusive"
//! method the acceptance check uses for its quartiles): position
//! `q·(n+1)` in the sorted samples, linearly interpolated, clamped to the
//! observed range.

/// Summary of one metric's samples, as printed and stored in result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub p90: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(fraction, value)`; absent below eleven samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (any order).
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN sample: both mean the caller
    /// measured nothing.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.9),
            tail: tail_percentile(sorted.len()).map(|q| (q, quantile_sorted(&sorted, q))),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The `q`-quantile of `samples` (any order).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// The median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` samples.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - frac) + sorted[j] * frac
}

/// The highest percentile (as a fraction) that still has at least ten of
/// `n` samples beyond it; `None` when fewer than eleven samples exist, so
/// no tail can be stated at all.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n >= 11).then(|| 1.0 - 10.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.25), 2.75);
        assert_eq!(quantile_sorted(&v, 0.5), 5.5);
        assert_eq!(quantile_sorted(&v, 0.75), 8.25);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quantile_sorted(&w, 0.25), 1.5);
        assert_eq!(quantile_sorted(&w, 0.5), 4.0);
        assert_eq!(quantile_sorted(&w, 0.75), 12.0);
    }

    #[test]
    fn quantiles_stay_inside_the_observed_range() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.9), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 3.0);
    }

    #[test]
    fn tail_percentile_needs_eleven_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(1.0 - 10.0 / 11.0));
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert!((tail_percentile(1000).unwrap() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_the_tail_only_when_it_exists() {
        let few = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!((few.n, few.min, few.median), (3, 1.0, 2.0));
        assert_eq!(few.tail, None);
        let many: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!(s.tail, Some((0.5, 10.5)));
        assert_eq!((s.p25, s.p75), (5.25, 15.75));
        assert!((s.p90 - 18.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_refused() {
        let _ = Summary::of(&[]);
    }
}
