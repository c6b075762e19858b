//! # nlheat-sim — discrete-event simulation of the distributed solver
//!
//! The paper's evaluation ran on a cluster of 40-core Skylake nodes; this
//! reproduction runs in a single-core container where wall-clock parallel
//! speedups are physically unmeasurable. Per the documented substitution
//! (README "Regenerating figures"), the scaling figures are regenerated
//! with a deterministic discrete-event simulator that executes the *same
//! step* as the real solver in `nlheat-core`: per rank and ownership epoch
//! it builds the driver's own [`nlheat_core::ghost::StepLayout`] and
//! charges it in virtual time — the local halo fill, one ghost bundle per
//! step and ordered rank pair with latency + bandwidth + NIC serialization,
//! each bundle's scatter releasing the case-1 regions it completes, the
//! driver's work-grouped tasks list-scheduled on per-node cores at per-node
//! speeds — and Algorithm-1 load-balancing epochs driven by the simulated
//! busy times. The two substrates share the step; only the clocks differ.
//!
//! The real runtime remains the source of truth for *numerics* (its output
//! is tested bit-for-bit against the serial solver); the simulator is the
//! source of *timing shape*: strong-scaling saturation, weak-scaling
//! flatness, partition-quality effects, and load-balancer convergence.
//!
//! No wall-clock enters the simulation: it is fully deterministic.
//!
//! The one entry point is [`simulate`]: a [`Scenario`] in, the unified
//! [`RunReport`] out (`scenario.run_sim()` and [`SimSubstrate`] are
//! spellings of it). The cost model is derived from the scenario's
//! stencil; there is no simulator-side configuration type.

pub mod cost;
pub mod engine;
pub mod scenario;

pub use cost::CostModel;
pub use engine::simulate;
pub use nlheat_core::balance::{LbSchedule, LbSpec};
pub use nlheat_core::scenario::{PartitionSpec, RunReport, Scenario, VirtualNode};
pub use nlheat_netmodel::{Net, NetSpec};
pub use scenario::{RunSim, SimSubstrate};
