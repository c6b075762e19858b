//! Manufactured solution for validation (paper §3.2).
//!
//! With `w(t,x) = cos(2πt)·sin(2πx₁)·sin(2πx₂)` inside D (zero outside) and
//! the source chosen as `b = ∂w/∂t − c ∫ J (w(y) − w(x)) dy` (eq. 6), the
//! exact solution of the continuous problem is `u = w`.
//!
//! **Quadrature note (documented substitution):** the paper evaluates the
//! integral in `b` with some quadrature; we evaluate it with the *same*
//! discrete sum the solver uses, which makes `w` the exact solution of the
//! semi-discrete system. The measured error then isolates the forward-Euler
//! time discretization, which shrinks as h (and with it Δt, tied through
//! the stability bound) decreases — exactly the decay Fig. 8 shows.
//!
//! Because `w` separates as `cos(2πt)·S(x)`, the discrete operator applied
//! to `w` is `cos(2πt)·L` with a *time-independent* field
//! `L_i = Σ_j w_j (S_j − S_i)`, so `b` evaluation is O(1) per cell after a
//! one-time precomputation of S and L. L *is* the solver's interaction sum
//! applied to S, so it is computed by the solver's own core
//! (`NonlocalKernel::interaction_sums`), not by a second loop here.
//!
//! `b(t, x_i) = (−2π·sin 2πt)·S_i − (c·cos 2πt)·L_i`: the two bracketed
//! factors depend on time only. [`Manufactured::source`] evaluates them per
//! cell; as a [`Source`] for the step kernel the type evaluates them once
//! per kernel call ([`Source::at_time`]) and then fills whole row segments
//! from S and L, with the same association, hence the same bits.

use crate::kernel::{NonlocalKernel, RowSource, Source, SourceFn, VectorLevel};
use nlheat_mesh::{Grid, Tile};
use std::f64::consts::PI;
use std::sync::Arc;

/// Precomputed manufactured-solution fields for one grid resolution.
pub struct Manufactured {
    grid: Grid,
    c: f64,
    /// S(x) on the padded grid (zero on the collar).
    s: Tile,
    /// L_i = Σ_j w_j (S_j − S_i) on the interior.
    l: Tile,
}

impl Manufactured {
    /// Precompute S and L for `grid` under `kernel`.
    ///
    /// # Panics
    /// Panics for non-square grids (the validation study uses squares).
    pub(crate) fn new(grid: &Grid, kernel: &NonlocalKernel) -> Self {
        Self::at_level(grid, kernel, VectorLevel::detect())
    }

    /// [`new`](Self::new) with L summed at `level` (the pin below runs
    /// every level; the fields are the same bits at each).
    fn at_level(grid: &Grid, kernel: &NonlocalKernel, level: VectorLevel) -> Self {
        assert_eq!(
            grid.nx, grid.ny,
            "manufactured solution expects a square grid"
        );
        let n = grid.nx;
        let halo = grid.halo;
        let mut s = Tile::new(n, halo);
        for lj in -halo..n + halo {
            for li in -halo..n + halo {
                if grid.in_domain(li, lj) {
                    let x = grid.coord(li);
                    let y = grid.coord(lj);
                    s.set(li, lj, (2.0 * PI * x).sin() * (2.0 * PI * y).sin());
                }
                // collar cells stay zero: w ≡ 0 outside D
            }
        }
        // same shape as `s`, so a storage index means the same cell in both
        let mut l = Tile::new(n, halo);
        let l_data = l.data_mut();
        let plan = kernel.plan_at(s.stride(), level);
        kernel.interaction_sums(&s, &s.interior_rect(), &plan, 1, |li, lj, _, sums| {
            let first = s.storage_index(li, lj);
            l_data[first..first + sums.len()].copy_from_slice(sums);
        });
        Manufactured {
            grid: *grid,
            c: kernel.c,
            s,
            l,
        }
    }

    /// Exact solution `w(t, x_i)` (zero outside D).
    pub fn exact(&self, t: f64, gi: i64, gj: i64) -> f64 {
        if !self.grid.in_domain(gi, gj) {
            return 0.0;
        }
        (2.0 * PI * t).cos() * self.s.get(gi, gj)
    }

    /// Initial condition `u₀(x_i) = w(0, x_i)`.
    pub fn initial(&self, gi: i64, gj: i64) -> f64 {
        self.exact(0.0, gi, gj)
    }

    /// The time-only factors `(−2π·sin 2πt, c·cos 2πt)` of the source.
    fn time_factors(&self, t: f64) -> (f64, f64) {
        let phase = 2.0 * PI * t;
        (-2.0 * PI * phase.sin(), self.c * phase.cos())
    }

    /// Source `b(t, x_i)` per eq. 6 with the discrete quadrature.
    pub(crate) fn source(&self, t: f64, gi: i64, gj: i64) -> f64 {
        debug_assert!(self.grid.in_domain(gi, gj));
        let (ds, dl) = self.time_factors(t);
        ds * self.s.get(gi, gj) - dl * self.l.get(gi, gj)
    }

    /// The source in the form the solvers take.
    pub fn source_fn(self: &Arc<Self>) -> SourceFn {
        self.clone()
    }
}

impl Source for Manufactured {
    fn at(&self, t: f64, gi: i64, gj: i64) -> f64 {
        self.source(t, gi, gj)
    }

    fn at_time<'a>(&'a self, t: f64) -> RowSource<'a> {
        let (ds, dl) = self.time_factors(t);
        Box::new(move |gi0, gj, out| {
            debug_assert!(self.grid.in_domain(gi0, gj));
            debug_assert!(self.grid.in_domain(gi0 + out.len() as i64 - 1, gj));
            let first = self.s.storage_index(gi0, gj);
            let s = &self.s.data()[first..first + out.len()];
            let l = &self.l.data()[first..first + out.len()];
            for ((b, s), l) in out.iter_mut().zip(s).zip(l) {
                *b = ds * s - dl * l;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influence::Influence;

    fn setup(n: usize, eps_mult: f64) -> (Grid, NonlocalKernel, Manufactured) {
        let grid = Grid::square(n, eps_mult);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        let m = Manufactured::new(&grid, &kernel);
        (grid, kernel, m)
    }

    #[test]
    fn l_and_source_equal_the_naive_per_cell_formulas_bitwise() {
        // The reference: L as its own scalar loop over the stencil, b with
        // sin and cos evaluated per cell — what this module computed before
        // it shared the kernel's core and hoisted the time factors. 23 cells
        // per side reach the 8-, 4-, 2- and 1-wide segment bodies, at every
        // vector level; Triangular makes the weights non-uniform.
        let grid = Grid::square(23, 3.0);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Triangular);
        for level in VectorLevel::available() {
            let m = Arc::new(Manufactured::at_level(&grid, &kernel, level));
            let src = m.source_fn();
            for t in [0.0, 0.013, 0.4] {
                let row_source = src.at_time(t);
                let phase = 2.0 * PI * t;
                for gj in 0..grid.ny {
                    let mut row = vec![0.0; grid.nx as usize];
                    row_source(0, gj, &mut row);
                    for gi in 0..grid.nx {
                        let si = m.s.get(gi, gj);
                        let mut l = 0.0;
                        for (&(di, dj), &w) in kernel.stencil.offsets.iter().zip(&kernel.weights) {
                            l += w * (m.s.get(gi + di, gj + dj) - si);
                        }
                        assert_eq!(m.l.get(gi, gj).to_bits(), l.to_bits(), "L at ({gi},{gj})");
                        let b = -2.0 * PI * phase.sin() * si - kernel.c * phase.cos() * l;
                        assert_eq!(m.source(t, gi, gj).to_bits(), b.to_bits());
                        assert_eq!(src.at(t, gi, gj).to_bits(), b.to_bits());
                        assert_eq!(row[gi as usize].to_bits(), b.to_bits());
                    }
                }
            }
            // the halo of L stays zero
            assert_eq!(m.l.get(-1, 0), 0.0);
        }
    }

    #[test]
    fn exact_is_zero_outside_domain() {
        let (_, _, m) = setup(16, 2.0);
        assert_eq!(m.exact(0.3, -1, 5), 0.0);
        assert_eq!(m.exact(0.3, 16, 5), 0.0);
    }

    #[test]
    fn exact_at_t0_equals_initial() {
        let (g, _, m) = setup(16, 2.0);
        for gj in 0..g.ny {
            for gi in 0..g.nx {
                assert_eq!(m.initial(gi, gj), m.exact(0.0, gi, gj));
            }
        }
    }

    #[test]
    fn initial_matches_analytic_sine_product() {
        let (g, _, m) = setup(32, 2.0);
        let (gi, gj) = (10, 20);
        let expected = (2.0 * PI * g.coord(gi)).sin() * (2.0 * PI * g.coord(gj)).sin();
        assert!((m.initial(gi, gj) - expected).abs() < 1e-14);
    }

    #[test]
    fn time_dependence_is_cosine() {
        let (_, _, m) = setup(16, 2.0);
        let v0 = m.exact(0.0, 8, 8);
        let v_quarter = m.exact(0.25, 8, 8);
        let v_half = m.exact(0.5, 8, 8);
        assert!(v_quarter.abs() < 1e-12, "cos(π/2) = 0");
        assert!((v_half + v0).abs() < 1e-12, "cos(π) = −1");
    }

    #[test]
    fn source_makes_w_a_discrete_steady_state() {
        // For the semi-discrete system dû/dt = b + cΣw(û_j − û_i),
        // û = w(t) must satisfy dû/dt = ∂w/∂t exactly. At t=0, ∂w/∂t = 0,
        // so b(0) + c·L·cos(0) must vanish identically.
        let (g, kernel, m) = setup(24, 3.0);
        for gj in 0..g.ny {
            for gi in 0..g.nx {
                let rhs = m.source(0.0, gi, gj) + kernel.c * m.l.get(gi, gj);
                assert!(rhs.abs() < 1e-10, "residual {rhs} at ({gi},{gj})");
            }
        }
    }

    #[test]
    fn l_field_is_negative_where_s_peaks() {
        // The nonlocal Laplacian of sin·sin is ≈ −8π²·S (scaled by c):
        // where S is maximal, L must be negative.
        let (g, kernel, m) = setup(64, 4.0);
        // S peaks near x = y = 0.25 -> cell 16
        let (gi, gj) = (15, 15);
        assert!(m.s.get(gi, gj) > 0.9);
        assert!(m.l.get(gi, gj) < 0.0);
        // The scaled operator approximates the local Laplacian eigenvalue:
        // c·L ≈ −8π²·k·S, within the nonlocal + boundary truncation error.
        let ratio = kernel.c * m.l.get(gi, gj) / (-8.0 * PI * PI * m.s.get(gi, gj));
        assert!(
            (0.7..1.3).contains(&ratio),
            "scaled operator ratio {ratio} too far from 1"
        );
        let _ = g;
    }
}
