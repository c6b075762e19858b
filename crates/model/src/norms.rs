//! Numerical error norms (paper eq. 7).
//!
//! The per-step error is `e_k = h^d Σ_i |ū(t_k, x_i) − û_i^k|²` and the
//! total error is `e = Σ_k e_k`.

/// Accumulates per-step errors into the total `e = Σ_k e_k`.
#[derive(Debug, Default, Clone)]
pub struct ErrorAccumulator {
    per_step: Vec<f64>,
}

impl ErrorAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one step's `e_k`.
    pub fn push(&mut self, e_k: f64) {
        self.per_step.push(e_k);
    }

    /// Total error `e = Σ_k e_k`.
    pub fn total(&self) -> f64 {
        self.per_step.iter().sum()
    }

    /// Largest single-step error.
    pub fn max_step(&self) -> f64 {
        self.per_step.iter().copied().fold(0.0, f64::max)
    }
}

/// One step's error `e_k = h^d Σ |ū − û|²` from (exact, numeric) pairs.
pub(crate) fn step_error(h: f64, d: u32, pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let sum: f64 = pairs.map(|(a, b)| (a - b) * (a - b)).sum();
    h.powi(d as i32) * sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_error_matches_hand_computation() {
        // h=0.5, d=2: e = 0.25 · ((1-0)² + (2-4)²) = 0.25·5
        let e = step_error(0.5, 2, vec![(1.0, 0.0), (2.0, 4.0)].into_iter());
        assert!((e - 1.25).abs() < 1e-15);
    }

    #[test]
    fn step_error_zero_for_exact_match() {
        let e = step_error(0.1, 2, vec![(3.0, 3.0), (-1.0, -1.0)].into_iter());
        assert_eq!(e, 0.0);
    }

    #[test]
    fn accumulator_totals() {
        let mut acc = ErrorAccumulator::new();
        acc.push(1.0);
        acc.push(2.5);
        acc.push(0.5);
        assert_eq!(acc.total(), 4.0);
        assert_eq!(acc.max_step(), 2.5);
        assert_eq!(acc.per_step.len(), 3);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = ErrorAccumulator::new();
        assert_eq!(acc.total(), 0.0);
        assert_eq!(acc.max_step(), 0.0);
    }
}
