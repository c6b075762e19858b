//! # nlheat-core — distributed nonlocal solver + load balancing
//!
//! The primary contribution of Gadikar, Diehl & Jha 2021, rebuilt in Rust:
//!
//! * [`dist`] — the fully distributed solver (§6) and the one step loop of
//!   the real runtime: per-locality drivers, ghost-zone bundles, case-2
//!   computation overlapped with communication and case-1 computation gated
//!   on the bundles' arrival (§6.3), plus online load balancing epochs;
//!   on one locality it is the shared-memory solver (§8.2).
//! * [`balance`] — **Algorithm 1**: busy-time-derived node power (eq. 8),
//!   expected SD counts (eq. 10), load imbalance (eq. 9), the
//!   data-dependency tree with topological ordering (Fig. 7), and
//!   contiguity-preserving uniform SD borrowing (Fig. 6) — one leaf of
//!   the `LbSpec` record, beside diffusion and greedy-steal, the
//!   hierarchical planner, the adaptive-λ/μ controllers and the cut-drift
//!   monitor, all run by one `Planner`.
//! * [`ghost`] — the halo-exchange schedule: one bundle of patch records
//!   per step and ordered rank pair, derived from ownership alone.
//! * [`ownership`] — the SD→node ownership map shared by all of the above.
//! * [`workload`] — heterogeneity models (per-node speed, per-SD work
//!   factors such as the crack scenario of §7).

pub mod balance;
pub mod dist;
pub mod ghost;
pub mod ownership;
pub mod scenario;
pub mod workload;

/// The named library scenarios (`scenario::library` under its working
/// name): paper baseline, lopsided two-rack redistribution, propagating
/// crack, heterogeneous cluster, incast duplex.
pub use scenario::library as scenarios;

pub use balance::{
    plan_rebalance, LbNetwork, LbPolicy, LbSchedule, LbSpec, LoadMetrics, MigrationPlan, Move,
    MoveWeights,
};
pub use dist::run_distributed;
pub use ownership::Ownership;
pub use scenario::sweep::{Axis, JsonlSink, RunRecord, ScenarioSweep, SweepSink, SweepSummary};
pub use scenario::{
    ClusterSpec, DistSubstrate, LbInput, PartitionSpec, RunExtras, RunReport, Scenario, Substrate,
    VirtualNode,
};
pub use workload::WorkModel;
