//! # nlheat-bench — figure regeneration harness
//!
//! One function per figure of the paper's evaluation section (§8), each
//! returning a [`FigData`] table with the same series the paper plots,
//! plus the ablation studies in [`ablations`]. The `figures` binary
//! prints them as markdown; `cargo bench` runs the one `hotpath` suite.
//!
//! Measurement substrate per figure (README "Regenerating figures" has
//! the rationale):
//!
//! | figure | substrate |
//! |---|---|
//! | Fig 8 (convergence)        | real serial solver (`nlheat-model`) |
//! | Fig 9–13 (scaling)         | discrete-event simulator (`nlheat-sim`) |
//! | Fig 14 (load balancing)    | Algorithm 1 (`nlheat-core::balance`) |
//! | correctness of all paths   | real distributed runtime (`nlheat-core::dist`), asserted in tests |

pub mod ablations;
pub mod figdata;
pub mod figures;

pub use figdata::{FigData, Series};
pub use figures::{fig10, fig11, fig12, fig13, fig14, fig8, fig9, Fig14Output};
