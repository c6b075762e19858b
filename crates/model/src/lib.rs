//! # nlheat-model — the nonlocal heat (diffusion) equation
//!
//! Implements §3 of Gadikar, Diehl & Jha 2021: the 2d nonlocal diffusion
//! equation over the unit square (eq. 1), its finite-difference /
//! forward-Euler discretization (eq. 5), the conductivity constant (eq. 2),
//! the manufactured solution used for validation (§3.2, eq. 6), the error
//! norm (eq. 7), and a single-threaded reference solver — the paper's "first
//! implemented a single-threaded version" baseline (§6).
//!
//! ```
//! use nlheat_model::prelude::*;
//!
//! let spec = ProblemSpec::square(16, 2.0);
//! let parts = spec.build();
//! let mut solver = SerialSolver::manufactured(&parts);
//! let err = solver.run_with_error(10);
//! assert!(err.total() < 1e-2);
//! ```

mod influence;
mod kernel;
mod manufactured;
mod norms;
mod problem;
mod serial;

pub mod prelude {
    pub use crate::influence::Influence;
    pub use crate::kernel::{KernelPlan, NonlocalKernel, RowSource, Source, SourceFn, VectorLevel};
    pub use crate::manufactured::Manufactured;
    pub use crate::norms::ErrorAccumulator;
    pub use crate::problem::{ProblemParts, ProblemSpec};
    pub use crate::serial::SerialSolver;
}

pub use prelude::*;
