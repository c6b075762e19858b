//! Single-threaded reference solver.
//!
//! The paper's development path starts from "a single-threaded version"
//! (§6); this solver is that baseline. The whole mesh is one padded tile
//! (the collar stays zero, enforcing the boundary condition of eq. 4), and
//! every timestep applies the discrete operator of eq. 5 over the interior.
//! The distributed solvers are validated against it bit-for-bit.

use crate::kernel::{KernelPlan, NonlocalKernel, SourceFn};
use crate::manufactured::Manufactured;
use crate::norms::{step_error, ErrorAccumulator};
use crate::problem::ProblemParts;
use nlheat_mesh::{Grid, Rect, Tile};
use std::sync::Arc;

/// Forward-Euler time-stepping on a single thread.
pub struct SerialSolver {
    grid: Grid,
    kernel: NonlocalKernel,
    source: SourceFn,
    curr: Tile,
    next: Tile,
    plan: KernelPlan,
    dt: f64,
    step: usize,
    /// Present when built via [`SerialSolver::manufactured`]; enables
    /// [`run_with_error`](Self::run_with_error).
    exact: Option<Arc<Manufactured>>,
}

impl SerialSolver {
    /// Build a solver from grid + kernel + source + initial condition.
    ///
    /// # Panics
    /// Panics for non-square grids.
    pub(crate) fn new(
        grid: &Grid,
        kernel: NonlocalKernel,
        source: SourceFn,
        initial: impl Fn(i64, i64) -> f64,
        dt: f64,
    ) -> Self {
        assert_eq!(grid.nx, grid.ny, "serial solver expects a square grid");
        assert!(dt > 0.0);
        let mut curr = Tile::new(grid.nx, grid.halo);
        for lj in 0..grid.ny {
            for li in 0..grid.nx {
                curr.set(li, lj, initial(li, lj));
            }
        }
        let next = Tile::new(grid.nx, grid.halo);
        let plan = kernel.plan(curr.stride());
        SerialSolver {
            grid: *grid,
            kernel,
            source,
            curr,
            next,
            plan,
            dt,
            step: 0,
            exact: None,
        }
    }

    /// The manufactured-solution configuration of [`ProblemParts`].
    pub fn manufactured(parts: &ProblemParts) -> Self {
        let m = parts.manufactured.clone();
        let init = {
            let m = m.clone();
            move |gi: i64, gj: i64| m.initial(gi, gj)
        };
        let mut solver = SerialSolver::new(
            &parts.grid,
            parts.kernel.clone(),
            m.source_fn(),
            init,
            parts.dt,
        );
        solver.exact = Some(m);
        solver
    }

    /// Advance one timestep.
    pub(crate) fn step(&mut self) {
        let region = Rect::new(0, 0, self.grid.nx, self.grid.ny);
        let t = self.time();
        self.kernel.apply_region_blocked(
            &self.curr,
            &mut self.next,
            &region,
            &self.plan,
            (0, 0),
            t,
            self.dt,
            &self.source,
            1,
        );
        std::mem::swap(&mut self.curr, &mut self.next);
        self.step += 1;
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance `n` steps, recording the error (eq. 7) against the
    /// manufactured solution after every step.
    ///
    /// # Panics
    /// Panics unless the solver was built via
    /// [`SerialSolver::manufactured`].
    pub fn run_with_error(&mut self, n: usize) -> ErrorAccumulator {
        let m = self
            .exact
            .clone()
            .expect("run_with_error requires a manufactured-solution solver");
        let mut acc = ErrorAccumulator::new();
        for _ in 0..n {
            self.step();
            acc.push(self.error_vs(|t, gi, gj| m.exact(t, gi, gj)));
        }
        acc
    }

    /// Current numerical error `e_k` against an exact-solution closure.
    pub(crate) fn error_vs(&self, exact: impl Fn(f64, i64, i64) -> f64) -> f64 {
        let t = self.time();
        let pairs = (0..self.grid.ny).flat_map(|gj| (0..self.grid.nx).map(move |gi| (gi, gj)));
        step_error(
            self.grid.h,
            2,
            pairs.map(|(gi, gj)| (exact(t, gi, gj), self.curr.get(gi, gj))),
        )
    }

    /// Simulated time `t_k = k·Δt`.
    pub(crate) fn time(&self) -> f64 {
        self.step as f64 * self.dt
    }

    /// Row-major copy of the interior field (for comparisons).
    pub fn field(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.grid.n_dofs());
        for gj in 0..self.grid.ny {
            for gi in 0..self.grid.nx {
                out.push(self.curr.get(gi, gj));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SerialSolver {
        /// The timestep in use.
        fn dt(&self) -> f64 {
            self.dt
        }
    }
    use crate::influence::Influence;
    use crate::kernel::tests::zero_source;
    use crate::problem::ProblemSpec;

    #[test]
    fn zero_initial_zero_source_stays_zero() {
        let grid = Grid::square(16, 2.0);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        let dt = kernel.stable_dt(0.5);
        let mut s = SerialSolver::new(&grid, kernel, zero_source(), |_, _| 0.0, dt);
        s.run(5);
        assert_eq!(s.field().iter().map(|v| v.abs()).sum::<f64>(), 0.0);
    }

    #[test]
    fn heat_decays_without_source() {
        // With zero boundary and no source, total heat must decay.
        let grid = Grid::square(16, 2.0);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        let dt = kernel.stable_dt(0.5);
        let mut s = SerialSolver::new(&grid, kernel, zero_source(), |_, _| 1.0, dt);
        let sum0: f64 = s.field().iter().sum();
        s.run(20);
        let sum1: f64 = s.field().iter().sum();
        assert!(sum1 < sum0, "heat must leak into the zero collar");
        assert!(sum1 > 0.0, "but not vanish in 20 steps");
    }

    #[test]
    fn solution_stays_bounded_at_stable_dt() {
        let grid = Grid::square(20, 3.0);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        let dt = kernel.stable_dt(0.9);
        let mut s = SerialSolver::new(
            &grid,
            kernel,
            zero_source(),
            |gi, gj| if (gi + gj) % 2 == 0 { 1.0 } else { -1.0 },
            dt,
        );
        s.run(50);
        let max = s.field().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max <= 1.0 + 1e-9, "oscillatory mode must not grow: {max}");
    }

    #[test]
    fn manufactured_error_is_small() {
        let parts = ProblemSpec::square(24, 3.0).build();
        let mut s = SerialSolver::manufactured(&parts);
        let m = parts.manufactured.clone();
        s.run(10);
        let e = s.error_vs(|t, gi, gj| m.exact(t, gi, gj));
        assert!(e < 1e-5, "manufactured error too large: {e}");
    }

    #[test]
    fn manufactured_error_decreases_with_mesh() {
        // The Fig. 8 property at test scale: e(h) decreasing in h.
        let mut errors = Vec::new();
        for n in [8usize, 16, 32] {
            let parts = ProblemSpec::square(n, 2.0).build();
            let mut s = SerialSolver::manufactured(&parts);
            let m = parts.manufactured.clone();
            let mut acc = ErrorAccumulator::new();
            for _ in 0..8 {
                s.step();
                acc.push(s.error_vs(|t, gi, gj| m.exact(t, gi, gj)));
            }
            errors.push(acc.total());
        }
        assert!(
            errors[0] > errors[1] && errors[1] > errors[2],
            "errors must decrease with h: {errors:?}"
        );
    }

    #[test]
    fn time_advances_by_dt() {
        let parts = ProblemSpec::square(8, 2.0).build();
        let mut s = SerialSolver::manufactured(&parts);
        assert_eq!(s.time(), 0.0);
        s.run(3);
        assert!((s.time() - 3.0 * s.dt()).abs() < 1e-15);
        assert_eq!(s.step, 3);
    }
}
