//! **Algorithm 1** — the paper's novel load balancing algorithm (§7).
//!
//! The pipeline per balancing iteration:
//!
//! 1. read the per-node `busy_time` performance counters;
//! 2. compute node *power* `Power(N_i) = SD̄(N_i)/Busy(N_i)` (eq. 8),
//!    *expected* SD counts `E(N_i) = total·Power_i/ΣPower` (eq. 10) and the
//!    *load imbalance* `E(N_i) − SD̄(N_i)` (eq. 9) — [`power`];
//! 3. build the data-dependency tree over node adjacency, rooted at the
//!    node of minimum imbalance, and order nodes topologically
//!    (BFS preorder, Fig. 7) — [`tree`];
//! 4. in that order, each node borrows/lends SDs from its not-yet-visited
//!    adjacent nodes, `LoadImbalance/L` per neighbour, realized by uniform
//!    ring growth along the shared frontier to preserve the contiguity the
//!    mesh partitioner established (Fig. 6) — [`transfer`];
//! 5. emit the migration plan and reset the busy-time counters
//!    (Algorithm 1 line 35) — [`algorithm`].
//!
//! What the balancer optimises has a one-file answer, [`score`]: every
//! candidate move — in the tree walk, in diffusion, in greedy stealing and
//! at every level of the hierarchical planner — is scored by one
//! [`MoveScore`],
//!
//! ```text
//! relief − λ·migration_seconds − μ·ghost_delta_seconds
//! ```
//!
//! and realized only while that stays non-negative. The two weights travel
//! in one [`MoveWeights`], held by the [`LbSpec`] record and kept live by
//! the [`Planner`] it builds.
//!
//! * λ makes the stack **communication-aware**: migration bytes priced by
//!   the [`nlheat_netmodel::CommCost`] of the active `NetSpec` make the
//!   dependency forest prefer cheap links, the remainder distribution
//!   favour cheap neighbours, and the frontier selection gate transfers
//!   whose busy-time relief does not cover their shipping time.
//! * μ makes it **ghost-traffic-aware**: migration bytes are paid once,
//!   but an ownership's edge cut over the SD adjacency / halo-volume graph
//!   ([`SdGraph`], built from the same halo plans the runtimes execute) is
//!   paid *every timestep*. μ prices each candidate move's cut delta
//!   ([`ghost_delta_seconds`]) so the balancer can refuse — or favour —
//!   moves by the recurring traffic they leave behind (cf. Lifflander et
//!   al., arXiv:2404.16793).
//!
//! With `λ = μ = 0` (or over a free network) the whole stack degenerates —
//! byte-identically, because an inactive term is absent rather than
//! multiplied by zero — to the paper's count-based planner. There is one
//! planner entry point, [`plan_rebalance`], and one settlement walk
//! (`algorithm::settle`) that the rank-level planner and every hierarchy
//! level share. Every realized epoch is recorded as an [`EpochTrace`]
//! (plan size, migration bytes, cut before/after).
//!
//! The epoch itself — stall feedback, busy selection, membership mask,
//! metrics, `plan`, trace — is written once, in [`epoch`]: every substrate
//! measures, calls [`LbEpoch::plan`], and executes what comes back.
//!
//! The tree planner is one leaf of the [`policy`] layer: both substrates
//! describe their balancer as one [`policy::LbSpec`] record inside a
//! [`policy::LbSchedule`] (a leaf — tree, diffusion, greedy-steal — with
//! the hierarchical memory-aware planner of [`hier`], the adaptive-λ/μ
//! controllers and the monitor below as options), one [`Planner`] runs it,
//! and every plan honours the same single-hop [`MigrationPlan`] contract.
//!
//! Incremental policies only ever nudge ownership; [`repart`] adds the
//! global escape hatch: a cut-drift monitor that re-invokes the
//! multilevel partitioner on the live [`SdGraph`] when the live cut
//! decays past a threshold (or the cluster membership changes) and
//! stages the old→new diff as budgeted single-hop plans.

pub mod algorithm;
pub mod epoch;
pub mod hier;
pub mod policy;
pub mod power;
pub mod repart;
pub mod score;
pub mod trace;
pub mod transfer;
pub mod tree;

pub use algorithm::{plan_rebalance, MigrationPlan, Move, PlanComm};
pub use epoch::{EpochConfig, EpochLog, EpochMeasure, EpochPlan, LbEpoch};
pub use hier::{hierarchy_is_degenerate, plan_hierarchical};
pub use nlheat_partition::SdGraph;
pub use policy::{LbNetwork, LbPolicy, LbSchedule, LbSpec, Leaf, Planner, RepartitionSpec};
pub use power::{compute_metrics, LoadMetrics};
pub use repart::DriftInfo;
pub use score::{ghost_delta_seconds, MoveScore, MoveWeights};
pub use trace::EpochTrace;
pub use transfer::{select_transfer, select_transfer_scored};
pub use tree::{build_forest, build_forest_weighted, DependencyTree};
