//! Influence function J and the conductivity constant c.
//!
//! The paper takes J = 1 for simplicity (§3) and derives, by matching the
//! Taylor expansion of the nonlocal operator against the classical
//! Laplacian (eq. 2):
//!
//! ```text
//! c = k / (ε³ M₂)      in 1d
//! c = 2k / (π ε⁴ M₃)   in 2d,      Mᵢ = ∫₀¹ J(r) rⁱ dr
//! ```

/// The influence (kernel) function J(r) on the normalized distance
/// r ∈ [0, 1].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Influence {
    /// J(r) = 1 — the paper's choice.
    Constant,
    /// J(r) = 1 − r — a common peridynamics kernel, included to show the
    /// framework is not tied to J = 1.
    Triangular,
}

impl Influence {
    /// Evaluate J(r) for normalized distance `r` (0 outside [0, 1]).
    pub(crate) fn eval(&self, r: f64) -> f64 {
        if !(0.0..=1.0).contains(&r) {
            return 0.0;
        }
        match self {
            Influence::Constant => 1.0,
            Influence::Triangular => 1.0 - r,
        }
    }

    /// The i-th moment Mᵢ = ∫₀¹ J(r) rⁱ dr (closed form).
    pub(crate) fn moment(&self, i: u32) -> f64 {
        let i = f64::from(i);
        match self {
            Influence::Constant => 1.0 / (i + 1.0),
            Influence::Triangular => 1.0 / (i + 1.0) - 1.0 / (i + 2.0),
        }
    }
}

/// The 2d conductivity constant c = 2k / (π ε⁴ M₃) (paper eq. 2).
pub(crate) fn conductivity_constant_2d(k: f64, eps: f64, j: Influence) -> f64 {
    2.0 * k / (std::f64::consts::PI * eps.powi(4) * j.moment(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn constant_moments() {
        let j = Influence::Constant;
        assert!((j.moment(2) - 1.0 / 3.0).abs() < 1e-15);
        assert!((j.moment(3) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn triangular_moments() {
        let j = Influence::Triangular;
        // ∫ (1-r) r² = 1/3 - 1/4 = 1/12
        assert!((j.moment(2) - 1.0 / 12.0).abs() < 1e-15);
        // ∫ (1-r) r³ = 1/4 - 1/5 = 1/20
        assert!((j.moment(3) - 0.05).abs() < 1e-15);
    }

    #[test]
    fn moments_match_numerical_quadrature() {
        for j in [Influence::Constant, Influence::Triangular] {
            for i in 0..5u32 {
                let n = 100_000;
                let dr = 1.0 / n as f64;
                let num: f64 = (0..n)
                    .map(|s| {
                        let r = (s as f64 + 0.5) * dr;
                        j.eval(r) * r.powi(i as i32) * dr
                    })
                    .sum();
                assert!(
                    (num - j.moment(i)).abs() < 1e-6,
                    "moment {i} of {j:?}: {num} vs {}",
                    j.moment(i)
                );
            }
        }
    }

    #[test]
    fn constant_2d_reduces_to_closed_form() {
        // J = 1: c = 2k/(π ε⁴ · 1/4) = 8k/(π ε⁴)
        let c = conductivity_constant_2d(1.0, 0.1, Influence::Constant);
        assert!((c - 8.0 / (PI * 0.1f64.powi(4))).abs() / c < 1e-14);
    }

    #[test]
    fn eval_outside_horizon_is_zero() {
        assert_eq!(Influence::Constant.eval(1.5), 0.0);
        assert_eq!(Influence::Triangular.eval(-0.1), 0.0);
    }

    #[test]
    fn conductivity_scales_linearly_with_k() {
        let c1 = conductivity_constant_2d(1.0, 0.05, Influence::Constant);
        let c3 = conductivity_constant_2d(3.0, 0.05, Influence::Constant);
        assert!((c3 / c1 - 3.0).abs() < 1e-12);
    }
}
