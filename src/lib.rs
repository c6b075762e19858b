//! # nonlocalheat — distributed nonlocal models with asynchronous tasking
//!
//! A from-scratch Rust reproduction of *"Load balancing for distributed
//! nonlocal models within asynchronous many-task systems"* (Gadikar, Diehl
//! & Jha, 2021, arXiv:2102.03819): a 2d nonlocal heat-equation solver
//! decomposed into square sub-domains, distributed over simulated compute
//! nodes by a multilevel mesh partitioner, executed on an asynchronous
//! many-task runtime with ghost-exchange hiding, and re-balanced online by
//! the paper's busy-time-driven load balancing algorithm.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`amt`] — the AMT runtime (HPX substitute): work-stealing pools,
//!   future/promise LCOs, performance counters, localities + parcels.
//! * [`mesh`] — grids, ε-ball stencils, sub-domains, halo plans,
//!   case-1/case-2 splits.
//! * [`partition`] — multilevel k-way partitioner (METIS substitute).
//! * [`model`] — the nonlocal diffusion model, manufactured solution and
//!   serial reference solver.
//! * [`core`] — the distributed solver, whose one driver on one locality
//!   is the shared-memory solver, + **Algorithm 1**, and the declarative
//!   **`Scenario` API** (one experiment description, both substrates, one
//!   unified `RunReport`).
//! * [`sim`] — the deterministic discrete-event cluster simulator used for
//!   the scaling figures (`scenario.run_sim()`).
//!
//! ## Quickstart
//!
//! ```
//! use nonlocalheat::prelude::*;
//!
//! // a 16x16 mesh with eps = 2h: one scenario, both substrates
//! let scenario = Scenario::square(16, 2.0, 4, 5)
//!     .on(ClusterSpec::uniform(2, 1))
//!     .with_record_error(true);
//! let real = scenario.run_dist(); // real AMT runtime (bit-exact numerics)
//! let sim = scenario.run_sim(); // discrete-event timing model
//! assert!(real.error.unwrap().total() < 1e-4);
//! assert!(sim.makespan > 0.0);
//! ```

#![forbid(unsafe_code)]

mod frozen;

pub use nlheat_amt as amt;
pub use nlheat_mesh as mesh;
pub use nlheat_model as model;
pub use nlheat_netmodel as netmodel;
pub use nlheat_partition as partition;
pub use nlheat_sim as sim;

/// [`nlheat_core`], and the legacy names the frozen repo benchmark reads
/// at the paths it reads them from (`src/frozen.rs`): an item declared
/// here shadows the glob import of the same name.
pub mod core {
    pub use nlheat_core::*;

    /// [`nlheat_core::dist`], with the benchmark's `run_distributed`.
    pub mod dist {
        pub use crate::frozen::{run_distributed, DistReport};
        pub use nlheat_core::dist::*;
    }

    /// The benchmark's shared-memory solver: one locality of the one
    /// driver.
    pub mod shared {
        pub use crate::frozen::{SharedConfig, SharedReport, SharedSolver};
    }
}

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use nlheat_amt::prelude::*;
    pub use nlheat_core::balance::{
        plan_rebalance, EpochTrace, LbNetwork, LbPolicy, LbSchedule, LbSpec, MigrationPlan,
        MoveScore, MoveWeights,
    };
    pub use nlheat_core::dist::run_distributed;
    pub use nlheat_core::ownership::Ownership;
    pub use nlheat_core::scenario::sweep::{
        Axis, FnSink, JsonlSink, RunRecord, ScenarioSweep, SweepSink, SweepSummary,
    };
    pub use nlheat_core::scenario::{
        ClusterEvent, ClusterSpec, DistSubstrate, LbInput, PartitionSpec, RunExtras, RunReport,
        Scenario, Substrate,
    };
    pub use nlheat_core::scenarios;
    pub use nlheat_core::workload::WorkModel;
    pub use nlheat_mesh::{Grid, SdGrid};
    pub use nlheat_model::prelude::*;
    pub use nlheat_partition::{part_mesh_dual, PartitionConfig, SdGraph};
    pub use nlheat_sim::{simulate, RunSim, SimSubstrate, VirtualNode};
}
