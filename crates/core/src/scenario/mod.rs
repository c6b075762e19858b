//! The declarative experiment surface: one [`Scenario`] drives both
//! execution substrates.
//!
//! The paper's whole argument rests on running the *same* experiment on
//! the real AMT runtime and on the discrete-event simulator. A
//! [`Scenario`] declares the experiment once — problem, decomposition,
//! cluster shape, network, initial partition, workload (possibly
//! time-varying), overlap mode and load-balancing schedule — and is
//! *executed* through the [`Substrate`] abstraction:
//! [`Scenario::run_dist`] on the real runtime, and `Scenario::run_sim`
//! (provided by `nlheat-sim`) on the simulator. Both return the same
//! [`RunReport`], with substrate-specific measurements nested in
//! [`RunExtras`] instead of forked into parallel types.
//!
//! Both substrates execute a `Scenario` directly, and the real runtime's
//! [`run_distributed`] returns the `RunReport` itself — so code that
//! drives a `Cluster` it owns gets the report [`Scenario::run_dist`] does.
//!
//! Declarative scenario/phase descriptions are what let one harness sweep
//! many workloads across heterogeneous backends (cf. Lifflander et al.,
//! arXiv:2404.16793, and the adaptive work-stealing evaluation of
//! arXiv:2401.04494).

pub mod library;
pub mod plan;
pub mod sweep;

pub use plan::{PlanExtras, PlanSubstrate};

use crate::balance::{EpochConfig, EpochTrace, LbSchedule, Move};
use crate::dist::run_distributed;
use crate::ownership::Ownership;
use crate::workload::WorkModel;
use nlheat_amt::cluster::{Cluster, ClusterBuilder};
use nlheat_amt::counters::{threads_counter_name, NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
use nlheat_mesh::{Grid, SdGrid, Stencil};
use nlheat_model::{ErrorAccumulator, ProblemSpec};
use nlheat_netmodel::NetSpec;
use nlheat_partition::{part_mesh_dual, strip_partition};
use std::sync::Arc;
use std::time::Duration;

/// The declared shape of one cluster node: `cores` workers at relative
/// `speed`. The simulator realizes it as a virtual node; the real runtime
/// as a locality with `cores` worker threads and the same speed factor —
/// [`ClusterSpec`] is the one source of truth both substrates consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualNode {
    /// Worker cores.
    pub cores: usize,
    /// Relative speed (1.0 = nominal).
    pub speed: f64,
    /// Memory capacity in bytes; `None` = unbounded (the historical
    /// behaviour). A capped node's resident footprint — its SD tiles plus
    /// their ghost buffers ([`nlheat_partition::SdGraph::resident_bytes`])
    /// — must never exceed this: memory-aware planners reject
    /// overflowing migrations, and [`Scenario::validate`] rejects initial
    /// partitions that already overflow.
    pub memory_bytes: Option<u64>,
}

impl VirtualNode {
    /// `n` nominal-speed cores, unbounded memory.
    pub fn with_cores(cores: usize) -> Self {
        VirtualNode {
            cores,
            speed: 1.0,
            memory_bytes: None,
        }
    }

    /// Cap this node's memory at `bytes` (chainable).
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }
}

/// The declared cluster: how many nodes, how many cores each, and their
/// relative speed factors. Rack structure is declared by the scenario's
/// [`NetSpec`] (a `Topology` spec assigns nodes to racks), so one
/// `ClusterSpec` + `NetSpec` pair fully describes the machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSpec {
    /// Per-node shapes, in node-id order.
    pub nodes: Vec<VirtualNode>,
}

impl ClusterSpec {
    /// An empty spec to chain [`ClusterSpec::node`] onto.
    pub fn new() -> Self {
        ClusterSpec::default()
    }

    /// `n` identical nominal-speed nodes of `cores` cores each.
    pub fn uniform(n: usize, cores: usize) -> Self {
        ClusterSpec {
            nodes: vec![VirtualNode::with_cores(cores); n],
        }
    }

    /// Single-core nodes with the given relative speeds.
    pub fn speeds(speeds: &[f64]) -> Self {
        ClusterSpec {
            nodes: speeds
                .iter()
                .map(|&speed| VirtualNode {
                    cores: 1,
                    speed,
                    memory_bytes: None,
                })
                .collect(),
        }
    }

    /// Append one node (chainable).
    pub fn node(mut self, cores: usize, speed: f64) -> Self {
        self.nodes.push(VirtualNode {
            cores,
            speed,
            memory_bytes: None,
        });
        self
    }

    /// Cap the memory of node `idx` at `bytes` (chainable).
    ///
    /// # Panics
    /// Panics when `idx` names no declared node.
    pub fn with_node_memory(mut self, idx: usize, bytes: u64) -> Self {
        assert!(idx < self.nodes.len(), "node {idx} is not declared");
        self.nodes[idx].memory_bytes = Some(bytes);
        self
    }

    /// Per-node memory capacities with `u64::MAX` for unbounded nodes —
    /// the table memory-aware planners consume ([`crate::balance::LbNetwork`]).
    pub fn memory_capacities(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.memory_bytes.unwrap_or(u64::MAX))
            .collect()
    }

    /// True when any node declares a memory cap — the gate for building
    /// footprint tables (memory-blind scenarios skip that work entirely).
    pub fn has_memory_caps(&self) -> bool {
        self.nodes.iter().any(|n| n.memory_bytes.is_some())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are declared.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The per-node speed factors, in node-id order.
    pub fn speed_factors(&self) -> Vec<f64> {
        self.nodes.iter().map(|n| n.speed).collect()
    }

    /// A [`ClusterBuilder`] realizing this spec over the given network
    /// model — the real-runtime leg of the cluster seam.
    pub fn builder(&self, net: NetSpec) -> ClusterBuilder {
        let mut b = ClusterBuilder::new().net(net);
        for n in &self.nodes {
            b = b.node(n.cores, n.speed);
        }
        b
    }

    /// Reject a degenerate cluster at configuration time (mirroring
    /// `WorkModel::validate`: every declared number must be usable before
    /// a driver thread could trip over it mid-run).
    ///
    /// # Panics
    /// Panics on an empty spec, a zero-core node, a non-finite or
    /// non-positive speed factor, or a zero memory capacity (a rank that
    /// can hold nothing cannot host any partition; capacities are `u64`,
    /// so NaN/negative spellings cannot be constructed).
    pub fn validate(&self) {
        assert!(!self.nodes.is_empty(), "cluster needs at least one node");
        for (i, n) in self.nodes.iter().enumerate() {
            assert!(n.cores >= 1, "node {i} needs at least one core");
            assert!(
                n.speed.is_finite() && n.speed > 0.0,
                "node {i} speed must be finite and positive, got {}",
                n.speed
            );
            if let Some(cap) = n.memory_bytes {
                assert!(cap > 0, "node {i} memory capacity must be positive");
            }
        }
    }
}

/// One elastic cluster-membership change, scheduled by step like
/// `work_schedule` entries. Events change what the *planner* sees — the
/// active-rank mask on its [`crate::balance::LbNetwork`] — never the
/// numerics: a drained or failed rank keeps computing the SDs it still
/// owns until the [`repartition`](crate::balance::LbSpec::repartition)
/// monitor has evacuated them, so the field stays bit-exact through any
/// membership timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// The rank becomes available for work from this step on. A rank
    /// whose *first* event is a `Join` starts the run inactive (it is
    /// declared in the [`ClusterSpec`] but holds nothing until it joins);
    /// the next replan spreads load onto it.
    Join {
        /// The joining rank.
        rank: u32,
    },
    /// The rank is gracefully decommissioned: its capacity drops to zero
    /// and the replanner evacuates its SDs (under the migration budget),
    /// but its in-flight ghost contributions still count.
    Drain {
        /// The draining rank.
        rank: u32,
    },
    /// The rank fail-stops: like [`ClusterEvent::Drain`], plus its
    /// in-flight ghost contributions are dropped from the planner-grade
    /// traffic counters for the steps it spends failed.
    Fail {
        /// The failing rank.
        rank: u32,
    },
}

impl ClusterEvent {
    /// The rank this event concerns.
    pub fn rank(&self) -> u32 {
        match self {
            ClusterEvent::Join { rank }
            | ClusterEvent::Drain { rank }
            | ClusterEvent::Fail { rank } => *rank,
        }
    }
}

/// The active-rank mask *before* any event fires: every declared rank is
/// active except those whose earliest event is a [`ClusterEvent::Join`]
/// (they are declared but have not joined yet).
pub fn initial_active(n_nodes: usize, events: &[(usize, ClusterEvent)]) -> Vec<bool> {
    let mut active = vec![true; n_nodes];
    let mut seen = vec![false; n_nodes];
    for (_, ev) in events {
        let r = ev.rank() as usize;
        if !seen[r] {
            seen[r] = true;
            if matches!(ev, ClusterEvent::Join { .. }) {
                active[r] = false;
            }
        }
    }
    active
}

/// The active-rank mask in effect at `step`: [`initial_active`] with every
/// event scheduled at or before `step` applied in order — shared by both
/// substrates (like [`work_at`]) so they can never disagree on the
/// membership timeline.
pub fn active_at(n_nodes: usize, events: &[(usize, ClusterEvent)], step: usize) -> Vec<bool> {
    let mut active = initial_active(n_nodes, events);
    for (from, ev) in events {
        if *from <= step {
            active[ev.rank() as usize] = matches!(ev, ClusterEvent::Join { .. });
        }
    }
    active
}

/// The failed-rank mask in effect at `step`: ranks whose latest applied
/// event is a [`ClusterEvent::Fail`]. Both substrates drop ghost
/// contributions touching these ranks from the planner-grade counters (a
/// fail-stopped rank's parcels are lost to the application even though
/// the solver keeps its numerics alive underneath).
pub fn failed_at(n_nodes: usize, events: &[(usize, ClusterEvent)], step: usize) -> Vec<bool> {
    let mut failed = vec![false; n_nodes];
    for (from, ev) in events {
        if *from <= step {
            failed[ev.rank() as usize] = matches!(ev, ClusterEvent::Fail { .. });
        }
    }
    failed
}

/// How the initial SD → node distribution is produced — the one partition
/// selection both substrates consume (it merges the former
/// `PartitionMethod` and `SimPartition` enums).
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// The multilevel dual-mesh partitioner (the paper's METIS path).
    Metis { seed: u64 },
    /// Row-major strips (naive baseline, ablation A1).
    Strip,
    /// An explicit assignment (used by Fig.-14-style experiments to start
    /// from a deliberately imbalanced state).
    Explicit(Vec<u32>),
}

impl PartitionSpec {
    /// Realize the initial owners over `sds` for `n_nodes` — the single
    /// implementation both substrates call, so they can never diverge on
    /// what an initial distribution means.
    ///
    /// # Panics
    /// Panics when an explicit assignment's length does not match the SD
    /// grid or names a node outside the cluster.
    pub fn initial_owners(&self, sds: &SdGrid, n_nodes: u32) -> Vec<u32> {
        match self {
            PartitionSpec::Metis { seed } => part_mesh_dual(sds, n_nodes, *seed).parts,
            PartitionSpec::Strip => strip_partition(sds, n_nodes),
            PartitionSpec::Explicit(owners) => {
                assert_eq!(owners.len(), sds.count(), "explicit ownership length");
                assert!(
                    owners.iter().all(|&o| o < n_nodes),
                    "explicit ownership names a node outside the cluster"
                );
                owners.clone()
            }
        }
    }
}

/// What the load-balancing policies plan from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LbInput {
    /// Measured busy times — wall-clock counters on the real runtime,
    /// virtual-time windows in the simulator — plus the substrate's
    /// stall/ghost-stall feedback to adaptive policies. The paper's mode.
    #[default]
    Measured,
    /// Deterministic busy times derived from the declared [`WorkModel`]
    /// and speed factors ([`modeled_busy`]), with runtime feedback
    /// disabled. Both substrates then see byte-identical planner inputs,
    /// so one scenario yields *identical* migration-plan sequences on the
    /// simulator and the real runtime — the cross-substrate parity mode.
    Modeled,
}

/// The nominal per-DP compute cost used by modeled planning inputs and by
/// the simulator's calibrated [`CostModel`](../../nlheat_sim/struct.CostModel.html):
/// roughly 2 ns per neighbour interaction.
pub fn nominal_sec_per_dp(stencil_points: usize) -> f64 {
    stencil_points.max(1) as f64 * 2e-9
}

/// Deterministic per-node busy seconds derived from the declared work
/// model: each owned SD contributes `cells · factor / speed · sec_per_dp`.
/// Shared by both substrates under [`LbInput::Modeled`], so their planner
/// inputs are byte-identical by construction.
pub fn modeled_busy(
    sds: &SdGrid,
    owners: &[u32],
    n_nodes: u32,
    work: &WorkModel,
    speeds: &[f64],
    sec_per_dp: f64,
) -> Vec<f64> {
    let mut busy = vec![0.0f64; n_nodes as usize];
    let cells = sds.cells_per_sd() as f64;
    for sd in sds.ids() {
        let node = owners[sd as usize] as usize;
        busy[node] += cells * work.factor(sds, sd) * sec_per_dp / speeds[node];
    }
    for b in &mut busy {
        *b = b.max(1e-12);
    }
    busy
}

/// One declarative experiment, runnable on either substrate.
///
/// Build with [`Scenario::square`] and the chainable `with_*` methods;
/// execute with [`Scenario::run_dist`] (real runtime) or `run_sim`
/// (simulator, provided by `nlheat-sim`); compare the unified
/// [`RunReport`]s.
///
/// ```
/// use nlheat_core::scenario::{ClusterSpec, Scenario};
/// use nlheat_core::balance::LbSchedule;
///
/// let report = Scenario::square(16, 2.0, 4, 5)
///     .on(ClusterSpec::uniform(2, 1))
///     .with_lb(LbSchedule::every(2))
///     .run_dist();
/// assert!(!report.busy.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The physical problem (manufactured source and initial condition).
    pub problem: ProblemSpec,
    /// Decomposition: SD side length in cells.
    pub sd_size: usize,
    /// Timesteps.
    pub steps: usize,
    /// The declared cluster (node count, cores, speed factors).
    pub cluster: ClusterSpec,
    /// Network cost model — drives the real fabric's delivery delays and
    /// the simulator's virtual time identically, and declares the rack
    /// structure cost-aware balancing prices.
    pub net: NetSpec,
    /// Initial SD distribution.
    pub partition: PartitionSpec,
    /// Per-SD work factors (crack scenario etc.).
    pub work: WorkModel,
    /// Time-varying workload: `(from_step, model)` switch points, sorted
    /// by step. At step `s` the last entry with `from_step ≤ s` overrides
    /// `work` — a *propagating* crack. Runs on both substrates.
    pub work_schedule: Vec<(usize, WorkModel)>,
    /// Elastic cluster-membership timeline: `(from_step, event)` entries
    /// sorted by step, applied by both substrates ([`active_at`]). Events
    /// require an [`LbSpec::repartition`](crate::balance::LbSpec::repartition)
    /// policy — only the replanner evacuates drained and failed ranks or
    /// spreads load onto joiners.
    pub cluster_events: Vec<(usize, ClusterEvent)>,
    /// Case-1/case-2 overlap (§6.3); `false` waits for all ghosts before
    /// computing anything (ablation A2).
    pub overlap: bool,
    /// Optional load balancing (one schedule, both substrates).
    pub lb: Option<LbSchedule>,
    /// Record the eq.-7 error every step (real runtime only; the
    /// simulator carries no field).
    pub record_error: bool,
    /// What the balancing policies plan from (measured or modeled busy).
    pub lb_input: LbInput,
    /// Intra-step tile-task work stealing: decompose each SD's step
    /// update into row-band tasks so idle pool workers steal pieces of a
    /// straggler SD *within* a timestep. Orthogonal to `lb` — stealing
    /// absorbs transients inside a node, migration fixes persistent skew
    /// across nodes. Numerics are bit-identical either way. The simulator
    /// schedules the same row-band tasks.
    pub intra_step_stealing: bool,
}

impl Scenario {
    /// A square `n`×`n` mesh with horizon `eps_mult`·h, `sd_size`-cell
    /// SDs, `steps` timesteps, on one nominal single-core node over the
    /// default cluster interconnect ([`NetSpec::cluster`]). Chain `with_*`
    /// builders to declare the rest.
    pub fn square(n: usize, eps_mult: f64, sd_size: usize, steps: usize) -> Self {
        Scenario {
            problem: ProblemSpec::square(n, eps_mult),
            sd_size,
            steps,
            cluster: ClusterSpec::uniform(1, 1),
            net: NetSpec::cluster(),
            partition: PartitionSpec::Metis { seed: 1 },
            work: WorkModel::Uniform,
            work_schedule: Vec::new(),
            cluster_events: Vec::new(),
            overlap: true,
            lb: None,
            record_error: false,
            lb_input: LbInput::Measured,
            intra_step_stealing: false,
        }
    }

    /// Declare the cluster.
    pub fn on(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Declare the network model.
    pub fn with_net(mut self, net: NetSpec) -> Self {
        self.net = net;
        self
    }

    /// Declare the initial partition.
    pub fn with_partition(mut self, partition: PartitionSpec) -> Self {
        self.partition = partition;
        self
    }

    /// Declare the (static) workload.
    pub fn with_work(mut self, work: WorkModel) -> Self {
        self.work = work;
        self
    }

    /// Declare a time-varying workload (switch points sorted by step).
    pub fn with_work_schedule(mut self, schedule: Vec<(usize, WorkModel)>) -> Self {
        self.work_schedule = schedule;
        self
    }

    /// Declare the elastic cluster-membership timeline (events sorted by
    /// step). Requires a `Repartition` LB policy — see
    /// [`Scenario::validate`].
    pub fn with_cluster_events(mut self, events: Vec<(usize, ClusterEvent)>) -> Self {
        self.cluster_events = events;
        self
    }

    /// Toggle case-1/case-2 overlap.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Schedule load balancing.
    pub fn with_lb(mut self, lb: LbSchedule) -> Self {
        self.lb = Some(lb);
        self
    }

    /// Disable load balancing (the off leg of an LB on/off comparison —
    /// library scenarios ship with their schedule set).
    pub fn without_lb(mut self) -> Self {
        self.lb = None;
        self
    }

    /// Record the eq.-7 error every step (real runtime).
    pub fn with_record_error(mut self, record: bool) -> Self {
        self.record_error = record;
        self
    }

    /// Select what the balancer plans from.
    pub fn with_lb_input(mut self, input: LbInput) -> Self {
        self.lb_input = input;
        self
    }

    /// Toggle intra-step tile-task work stealing.
    pub fn with_intra_step_stealing(mut self, on: bool) -> Self {
        self.intra_step_stealing = on;
        self
    }

    /// The workload in effect at `step`.
    pub fn work_at(&self, step: usize) -> &WorkModel {
        work_at(&self.work, &self.work_schedule, step)
    }

    /// The SD grid this scenario decomposes into.
    pub fn sd_grid(&self) -> SdGrid {
        SdGrid::tile_mesh(self.problem.n, self.problem.n, self.sd_size)
    }

    /// The nominal per-DP seconds of this scenario's stencil — the scale
    /// [`modeled_busy`] and the simulator's calibrated cost model share.
    pub fn sec_per_dp(&self) -> f64 {
        let grid = Grid::square(self.problem.n, self.problem.eps_mult);
        nominal_sec_per_dp(Stencil::build(grid.h, grid.eps).len())
    }

    /// The SD adjacency / halo-volume graph of this scenario's
    /// decomposition — the same graph both substrates attach to their
    /// planners, built from geometry alone.
    pub fn sd_graph(&self) -> nlheat_partition::SdGraph {
        let grid = Grid::square(self.problem.n, self.problem.eps_mult);
        nlheat_partition::SdGraph::build(&self.sd_grid(), grid.halo)
    }

    /// Per-SD resident memory footprints (tile + ghost buffers), indexed
    /// by SD id — what each node's `memory_bytes` capacity is balanced
    /// against ([`nlheat_partition::SdGraph::footprints`]).
    pub fn sd_footprints(&self) -> Vec<u64> {
        self.sd_graph().footprints()
    }

    /// Reject an internally inconsistent scenario at configuration time,
    /// on the caller's thread — before any driver thread could panic
    /// mid-run and deadlock a cluster.
    ///
    /// # Panics
    /// Panics on: a mesh that does not tile into `sd_size` SDs; zero
    /// steps; a degenerate cluster ([`ClusterSpec::validate`]); an invalid
    /// network spec; an explicit partition of the wrong length; an invalid
    /// work model ([`WorkModel::validate`]) in `work` or any schedule
    /// entry; an unsorted `work_schedule`; or an invalid LB schedule.
    pub fn validate(&self) {
        assert!(self.steps >= 1, "scenario needs at least one timestep");
        assert!(
            self.sd_size >= 1 && self.problem.n.is_multiple_of(self.sd_size),
            "mesh of {} cells does not tile into {}-cell SDs",
            self.problem.n,
            self.sd_size
        );
        self.cluster.validate();
        self.net.validate();
        let sds = self.sd_grid();
        if let PartitionSpec::Explicit(owners) = &self.partition {
            assert_eq!(owners.len(), sds.count(), "explicit ownership length");
            assert!(
                owners.iter().all(|&o| (o as usize) < self.cluster.len()),
                "explicit ownership names a node outside the cluster"
            );
        }
        self.work.validate(&sds);
        let mut prev = 0usize;
        for (i, (from, model)) in self.work_schedule.iter().enumerate() {
            assert!(
                i == 0 || *from >= prev,
                "work_schedule must be sorted by step"
            );
            prev = *from;
            model.validate(&sds);
        }
        if let Some(lb) = &self.lb {
            lb.validate();
        }
        // Elastic-membership checks: the timeline must be well-formed and
        // the run must be able to react to it.
        if !self.cluster_events.is_empty() {
            assert!(
                self.lb
                    .as_ref()
                    .is_some_and(|lb| lb.spec.repartition.is_some()),
                "cluster events require an LbSpec::repartition policy \
                 (only the replanner evacuates drained/failed ranks \
                 and spreads load onto joiners)"
            );
            let n = self.cluster.len();
            let mut prev = 0usize;
            for (i, (from, ev)) in self.cluster_events.iter().enumerate() {
                assert!(
                    *from >= 1,
                    "cluster events take effect from step 1 (step 0 is the \
                     initial condition — declare late joiners by making Join \
                     their first event)"
                );
                assert!(
                    i == 0 || *from >= prev,
                    "cluster_events must be sorted by step"
                );
                prev = *from;
                assert!(
                    (ev.rank() as usize) < n,
                    "cluster event names rank {} outside the {n}-rank cluster",
                    ev.rank()
                );
            }
            // The cluster may never go fully inactive — walk the timeline.
            let mut active = initial_active(n, &self.cluster_events);
            assert!(
                active.iter().any(|&a| a),
                "cluster events leave no initially active rank"
            );
            for (_, ev) in &self.cluster_events {
                active[ev.rank() as usize] = matches!(ev, ClusterEvent::Join { .. });
                assert!(
                    active.iter().any(|&a| a),
                    "cluster events leave the cluster with no active rank"
                );
            }
            // Initial SDs must sit on initially-active ranks (a rank that
            // has not joined yet cannot own anything).
            let init = initial_active(n, &self.cluster_events);
            let owners = self.partition.initial_owners(&sds, n as u32);
            for (sd, &o) in owners.iter().enumerate() {
                assert!(
                    init[o as usize],
                    "initial partition places SD {sd} on rank {o}, which \
                     only joins later"
                );
            }
        }
        // Memory-aware configuration checks, skipped entirely for
        // memory-blind clusters (no footprint table to build).
        if self.cluster.has_memory_caps() {
            let footprints = self.sd_footprints();
            let total: u64 = footprints.iter().sum();
            let capacity = self
                .cluster
                .nodes
                .iter()
                .try_fold(0u64, |acc, n| acc.checked_add(n.memory_bytes?))
                .unwrap_or(u64::MAX);
            assert!(
                capacity >= total,
                "cluster capacity ({capacity} B) cannot hold the mesh's \
                 resident footprint ({total} B)"
            );
            let owners = self
                .partition
                .initial_owners(&sds, self.cluster.len() as u32);
            let mut usage = vec![0u64; self.cluster.len()];
            for (sd, &o) in owners.iter().enumerate() {
                usage[o as usize] += footprints[sd];
            }
            for (i, n) in self.cluster.nodes.iter().enumerate() {
                if let Some(cap) = n.memory_bytes {
                    assert!(
                        usage[i] <= cap,
                        "node {i}'s initial partition ({} B) overflows its \
                         memory capacity ({cap} B)",
                        usage[i]
                    );
                }
            }
        }
    }

    /// The planning-relevant slice of this scenario, for the
    /// [`LbEpoch`](crate::balance::LbEpoch) driver of a substrate that
    /// executes the scenario directly (`sd_graph` is the graph of the halo
    /// plans that substrate runs).
    pub fn epoch_config<'a>(
        &'a self,
        lb: &'a LbSchedule,
        sd_graph: Arc<nlheat_partition::SdGraph>,
    ) -> EpochConfig<'a> {
        EpochConfig {
            lb,
            net: &self.net,
            cells_per_sd: self.sd_grid().cells_per_sd(),
            sd_graph,
            memory_caps: self
                .cluster
                .has_memory_caps()
                .then(|| self.cluster.memory_capacities()),
            lb_input: self.lb_input,
            cluster_events: &self.cluster_events,
            work: &self.work,
            work_schedule: &self.work_schedule,
            speeds: self.cluster.speed_factors(),
            sec_per_dp: self.sec_per_dp(),
        }
    }

    /// The scenario itself: [`run_distributed`] reads it directly. Only
    /// the frozen repo benchmark still calls this.
    pub fn dist_config(&self) -> &Scenario {
        self
    }

    /// Build the real cluster this scenario declares (localities with the
    /// declared cores and speed factors over the declared network model).
    pub fn build_cluster(&self) -> Cluster {
        self.cluster.builder(self.net).build()
    }

    /// Execute on the real AMT runtime.
    ///
    /// # Panics
    /// Panics on an invalid scenario — see [`Scenario::validate`].
    pub fn run_dist(&self) -> RunReport {
        DistSubstrate.run(self)
    }
}

/// The workload in effect at `step` under a base model + switch schedule —
/// shared by [`Scenario`] and the epoch driver so the substrates cannot
/// disagree on what a schedule means.
pub fn work_at<'a>(
    base: &'a WorkModel,
    schedule: &'a [(usize, WorkModel)],
    step: usize,
) -> &'a WorkModel {
    schedule
        .iter()
        .rev()
        .find(|&&(from, _)| from <= step)
        .map(|(_, m)| m)
        .unwrap_or(base)
}

/// An execution substrate: anything that can realize a [`Scenario`] and
/// measure it into a [`RunReport`]. `nlheat-core` ships the real runtime
/// ([`DistSubstrate`]); `nlheat-sim` ships the discrete-event simulator.
pub trait Substrate {
    /// Short label for tables and report tagging.
    fn name(&self) -> &'static str;

    /// Execute the scenario.
    fn run(&self, scenario: &Scenario) -> RunReport;
}

/// The real AMT runtime as a [`Substrate`].
pub struct DistSubstrate;

impl Substrate for DistSubstrate {
    fn name(&self) -> &'static str {
        "dist"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        run_distributed(&scenario.build_cluster(), scenario)
    }
}

/// Substrate-specific measurements of a run — nested in the unified
/// [`RunReport`] instead of forked into parallel report types.
#[derive(Debug, Clone)]
pub enum RunExtras {
    /// Real-runtime extras.
    Dist(DistExtras),
    /// Simulator extras.
    Sim(SimExtras),
    /// Plan-only extras ([`PlanSubstrate`]: one planning call, no
    /// execution).
    Plan(PlanExtras),
}

/// The fields of a real run that the frozen repo benchmark reads, filled
/// from [`RunReport::counters`] by one function. Everything else a real
/// run counts is in `counters` under its registry name.
#[derive(Debug, Clone, PartialEq)]
pub struct DistExtras {
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// [`NETWORK_MESSAGES`].
    pub wire_messages: u64,
    /// [`NETWORK_CROSS_BYTES`].
    pub wire_cross_bytes: u64,
    /// Per locality, its pool's `count/steals` ([`threads_counter_name`]).
    pub pool_steals: Vec<u64>,
    /// Per locality, its pool's `count/steal-fails`.
    pub pool_steal_fails: Vec<u64>,
    /// Per locality, its pool's `count/parks`.
    pub pool_parks: Vec<u64>,
}

impl DistExtras {
    /// The frozen fields of a real run of `elapsed` over `n_ranks`
    /// localities whose registry read `counters` at its end.
    pub(crate) fn from_counters(
        elapsed: Duration,
        counters: &[(String, u64)],
        n_ranks: u32,
    ) -> Self {
        let read = |name: &str| counter_in(counters, name).expect("a cluster counter");
        let per_rank = |name| {
            (0..n_ranks)
                .map(|r| read(&threads_counter_name(r, name)))
                .collect()
        };
        DistExtras {
            elapsed,
            wire_messages: read(NETWORK_MESSAGES),
            wire_cross_bytes: read(NETWORK_CROSS_BYTES),
            pool_steals: per_rank("count/steals"),
            pool_steal_fails: per_rank("count/steal-fails"),
            pool_parks: per_rank("count/parks"),
        }
    }
}

/// The value of counter `name` in a sorted registry snapshot.
pub(crate) fn counter_in(counters: &[(String, u64)], name: &str) -> Option<u64> {
    let at = counters
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()?;
    Some(counters[at].1)
}

/// What only the simulator can measure.
#[derive(Debug, Clone)]
pub struct SimExtras {
    /// Per-node busy fraction: busy / (cores · makespan).
    pub busy_fraction: Vec<f64>,
    /// Bytes crossing node boundaries in virtual time (ghosts +
    /// migrations).
    pub cross_bytes: u64,
    /// Messages crossing node boundaries: one ghost bundle per step and
    /// ordered rank pair that share a halo, plus one per migrated SD.
    pub messages: u64,
}

/// The unified outcome of running one [`Scenario`] on either substrate.
///
/// The shared fields mean the same thing on both sides and cover the
/// whole run: `makespan` and `busy` are seconds (wall-clock on the real
/// runtime, virtual time in the simulator); the ghost/migration byte
/// counters are planner-grade wire estimates (`patch_wire_bytes`:
/// payload and framing word) counted by the same formula on both
/// substrates, so identical plans produce identical counters;
/// `lb_plans`/`epoch_traces` record one entry per *realized* balancing
/// epoch, and [`RunReport::ownership_history`] replays the ownerships
/// they imply. On the real runtime `busy`, `migrations`, `ghost_bytes`
/// and `inter_rack_ghost_bytes` are sums over [`RunReport::counters`],
/// the registry's reading at the end of the run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which substrate produced this report (`"dist"` or `"sim"`).
    pub substrate: &'static str,
    /// Seconds from step 0 to the last node finishing.
    pub makespan: f64,
    /// Per-node busy seconds.
    pub busy: Vec<f64>,
    /// Total SDs migrated by load balancing.
    pub migrations: usize,
    /// Planner-grade migration payload bytes (sum over realized epochs).
    pub migration_bytes: u64,
    /// The inter-rack share of `migration_bytes`.
    pub inter_rack_migration_bytes: u64,
    /// Planner-grade ghost-exchange bytes between nodes over the whole
    /// run.
    pub ghost_bytes: u64,
    /// The inter-rack share of `ghost_bytes`.
    pub inter_rack_ghost_bytes: u64,
    /// The realized migration plan of each epoch, in epoch order.
    pub lb_plans: Vec<Vec<Move>>,
    /// One [`EpochTrace`] per realized balancing epoch.
    pub epoch_traces: Vec<EpochTrace>,
    /// Final SD ownership.
    pub final_ownership: Ownership,
    /// Final interior field, row-major over the global mesh (real runtime
    /// only; the simulator carries no numerics).
    pub field: Option<Vec<f64>>,
    /// Summed per-step errors when requested (real runtime only).
    pub error: Option<ErrorAccumulator>,
    /// Per-node memory capacities (`u64::MAX` = unbounded) when the
    /// scenario declared any — what [`RunReport::check_invariants`]
    /// replays the recorded plans against.
    pub memory_bytes: Option<Vec<u64>>,
    /// Per-SD resident footprints paired with `memory_bytes`.
    pub sd_footprint: Option<Vec<u64>>,
    /// Every counter of the cluster's registry at the end of a real run,
    /// sorted by name (read one with [`RunReport::counter`]); empty on the
    /// other substrates.
    pub counters: Vec<(String, u64)>,
    /// Substrate-specific measurements.
    pub extras: RunExtras,
}

impl RunReport {
    /// `report` with the given wire statistics stored in its
    /// [`DistExtras`]. Only the frozen repo benchmark still calls it.
    pub fn from_dist(
        report: impl Into<RunReport>,
        wire_messages: u64,
        wire_cross_bytes: u64,
    ) -> Self {
        let mut report = report.into();
        if let RunExtras::Dist(d) = &mut report.extras {
            (d.wire_messages, d.wire_cross_bytes) = (wire_messages, wire_cross_bytes);
        }
        report
    }

    /// The real run's counter `name` at its end; `None` if the registry
    /// had no such counter or the report is not from the real runtime.
    pub fn counter(&self, name: &str) -> Option<u64> {
        counter_in(&self.counters, name)
    }

    /// Attach the scenario's memory-aware planning tables (when it
    /// declared any capacity), so [`RunReport::check_invariants`] can
    /// replay the recorded plans against them. Every substrate calls this
    /// on the report it assembles.
    pub fn with_scenario_memory(mut self, scenario: &Scenario) -> Self {
        if scenario.cluster.has_memory_caps() {
            self.memory_bytes = Some(scenario.cluster.memory_capacities());
            self.sd_footprint = Some(scenario.sd_footprints());
        }
        self
    }

    /// The real-runtime extras, if this report came from the real runtime.
    pub fn dist_extras(&self) -> Option<&DistExtras> {
        match &self.extras {
            RunExtras::Dist(d) => Some(d),
            _ => None,
        }
    }

    /// The simulator extras, if this report came from the simulator.
    pub fn sim_extras(&self) -> Option<&SimExtras> {
        match &self.extras {
            RunExtras::Sim(s) => Some(s),
            _ => None,
        }
    }

    /// The ownership at the start of the run followed by the ownership
    /// after each realized epoch, in epoch order: `lb_plans.len() + 1`
    /// entries, the last one `final_ownership`. Plans are single-hop and
    /// each SD moves at most once per epoch, so undoing the recorded plans
    /// *backward* from the final ownership visits exactly those states.
    ///
    /// # Panics
    /// Panics when the recorded plans and the final ownership disagree.
    pub fn ownership_history(&self) -> Vec<Ownership> {
        let mut own = self.final_ownership.clone();
        let mut states = vec![own.clone()];
        for (epoch, moves) in self.lb_plans.iter().enumerate().rev() {
            for m in moves {
                assert_eq!(
                    own.owner(m.sd),
                    m.to,
                    "{}: epoch {epoch} moved SD {} to where the replay does not find it",
                    self.substrate,
                    m.sd
                );
                own.set_owner(m.sd, m.from);
            }
            states.push(own.clone());
        }
        states.reverse();
        states
    }

    /// Assert the cross-substrate report invariants — what the scenario
    /// smoke suite checks for every library scenario on both substrates.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        assert!(
            !self.busy.is_empty(),
            "{}: empty busy vector",
            self.substrate
        );
        assert!(
            self.busy.iter().all(|b| b.is_finite() && *b >= 0.0),
            "{}: busy vector must be finite and non-negative: {:?}",
            self.substrate,
            self.busy
        );
        assert!(
            self.makespan.is_finite() && self.makespan >= 0.0,
            "{}: makespan {} must be finite",
            self.substrate,
            self.makespan
        );
        assert_eq!(
            self.lb_plans.len(),
            self.epoch_traces.len(),
            "{}: one recorded plan per realized epoch",
            self.substrate
        );
        assert_eq!(
            self.migrations,
            self.epoch_traces.iter().map(|t| t.moves).sum::<usize>(),
            "{}: traces must cover every migration",
            self.substrate
        );
        assert_eq!(
            self.migrations,
            self.lb_plans.iter().map(Vec::len).sum::<usize>(),
            "{}: recorded plans must cover every migration",
            self.substrate
        );
        assert_eq!(
            self.migration_bytes,
            self.epoch_traces
                .iter()
                .map(|t| t.migration_bytes)
                .sum::<u64>(),
            "{}: migration bytes must equal the trace sum",
            self.substrate
        );
        assert!(
            self.inter_rack_migration_bytes <= self.migration_bytes,
            "{}: inter-rack migration share exceeds the total",
            self.substrate
        );
        assert!(
            self.inter_rack_ghost_bytes <= self.ghost_bytes,
            "{}: inter-rack ghost share exceeds the total",
            self.substrate
        );
        match &self.extras {
            RunExtras::Sim(s) => {
                assert_eq!(
                    self.ghost_bytes + self.migration_bytes,
                    s.cross_bytes,
                    "sim: ghost + migration bytes must partition the cross traffic"
                );
            }
            RunExtras::Dist(_) => {
                // wire bytes carry the parcel headers and the LB protocol
                // on top of the planner-grade counters
                let wire = self.counter(NETWORK_CROSS_BYTES);
                assert!(
                    Some(self.ghost_bytes + self.migration_bytes) <= wire,
                    "dist: planner-grade bytes ({} + {}) exceed the wire ({wire:?})",
                    self.ghost_bytes,
                    self.migration_bytes,
                );
            }
            // a plan-only run carries no traffic counters to cross-check
            RunExtras::Plan(_) => {}
        }
        // Memory invariant: with the scenario's capacity/footprint tables
        // attached, no ownership the run ever passed through may overflow
        // a node's capacity.
        if let (Some(caps), Some(fp)) = (&self.memory_bytes, &self.sd_footprint) {
            assert_eq!(
                fp.len(),
                self.final_ownership.owners().len(),
                "{}: footprint table must cover every SD",
                self.substrate
            );
            for (state, own) in self.ownership_history().iter().enumerate() {
                let mut usage = vec![0u64; caps.len()];
                for (sd, &o) in own.owners().iter().enumerate() {
                    usage[o as usize] = usage[o as usize].saturating_add(fp[sd]);
                }
                for (node, (&used, &cap)) in usage.iter().zip(caps.iter()).enumerate() {
                    assert!(
                        used <= cap,
                        "{}: node {node} holds {used} B after {state} realized epochs, \
                         over its {cap} B capacity",
                        self.substrate
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::LbSpec;

    #[test]
    fn cluster_spec_builders() {
        let u = ClusterSpec::uniform(3, 2);
        assert_eq!(u.len(), 3);
        assert!(u.nodes.iter().all(|n| n.cores == 2 && n.speed == 1.0));
        let s = ClusterSpec::speeds(&[2.0, 1.0, 0.5]);
        assert_eq!(s.speed_factors(), vec![2.0, 1.0, 0.5]);
        let chained = ClusterSpec::new().node(1, 2.0).node(4, 1.0);
        assert_eq!(chained.len(), 2);
        assert_eq!(chained.nodes[1].cores, 4);
        let cluster = chained.builder(NetSpec::Instant).build();
        assert_eq!(cluster.len(), 2);
        assert_eq!(cluster.locality(0).speed(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        ClusterSpec::new().validate();
    }

    #[test]
    #[should_panic(expected = "speed must be finite and positive")]
    fn bad_speed_rejected() {
        ClusterSpec::new().node(1, 0.0).validate();
    }

    #[test]
    #[should_panic(expected = "memory capacity must be positive")]
    fn zero_memory_capacity_rejected() {
        ClusterSpec::uniform(2, 1).with_node_memory(1, 0).validate();
    }

    #[test]
    fn memory_capacity_table_defaults_to_unbounded() {
        let spec = ClusterSpec::uniform(3, 1).with_node_memory(1, 1 << 20);
        assert!(spec.has_memory_caps());
        assert_eq!(spec.memory_capacities(), vec![u64::MAX, 1 << 20, u64::MAX]);
        assert!(!ClusterSpec::uniform(2, 1).has_memory_caps());
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "overflows its memory capacity")]
    fn initially_overflowing_partition_rejected() {
        // node 0 owns everything but is capped below one SD's footprint
        Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1).with_node_memory(0, 64))
            .with_partition(PartitionSpec::Explicit(vec![0; 16]))
            .validate();
    }

    #[test]
    #[should_panic(expected = "cannot hold the mesh's resident footprint")]
    fn undersized_total_capacity_rejected() {
        let sc = Scenario::square(16, 2.0, 4, 4).on(ClusterSpec::uniform(2, 1)
            .with_node_memory(0, 64)
            .with_node_memory(1, 64));
        sc.validate();
    }

    #[test]
    fn memory_aware_scenario_with_room_validates() {
        let sc = Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1).with_node_memory(0, 1 << 30));
        sc.validate();
        // footprints cover every SD and are at least the tile payload
        let fp = sc.sd_footprints();
        assert_eq!(fp.len(), sc.sd_grid().count());
        assert!(fp.iter().all(|&f| f >= 4 * 4 * 8));
    }

    #[test]
    fn partition_spec_realizes_all_variants() {
        let sds = SdGrid::new(4, 4, 4);
        let metis = PartitionSpec::Metis { seed: 1 }.initial_owners(&sds, 2);
        let strip = PartitionSpec::Strip.initial_owners(&sds, 2);
        assert_eq!(metis.len(), 16);
        assert_eq!(strip.len(), 16);
        let explicit = PartitionSpec::Explicit(vec![0; 16]).initial_owners(&sds, 2);
        assert_eq!(explicit, vec![0; 16]);
    }

    #[test]
    #[should_panic(expected = "outside the cluster")]
    fn explicit_partition_checks_node_range() {
        let sds = SdGrid::new(2, 2, 4);
        let _ = PartitionSpec::Explicit(vec![0, 0, 0, 7]).initial_owners(&sds, 2);
    }

    #[test]
    fn scenario_defaults_and_builders() {
        // a bare scenario *is* the paper configuration
        let paper = Scenario::square(400, 8.0, 25, 5);
        assert_eq!(paper.net, NetSpec::cluster());
        assert_eq!(paper.partition, PartitionSpec::Metis { seed: 1 });
        assert!(paper.overlap);
        assert_eq!(paper.work, WorkModel::Uniform);
        assert!(paper.work_schedule.is_empty() && paper.cluster_events.is_empty());
        assert!(paper.lb.is_none());
        assert_eq!(paper.lb_input, LbInput::Measured);

        let sc = Scenario::square(16, 2.0, 4, 5)
            .on(ClusterSpec::uniform(2, 1))
            .with_net(NetSpec::Instant)
            .with_partition(PartitionSpec::Strip)
            .with_lb(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)))
            .with_overlap(false)
            .with_record_error(true)
            .with_lb_input(LbInput::Modeled);
        sc.validate();
        assert_eq!(sc.cluster.len(), 2);
        assert!(!sc.overlap);
        assert!(sc.record_error);
        assert_eq!(sc.lb_input, LbInput::Modeled);
        assert!(std::ptr::eq(sc.dist_config(), &sc));
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn untileable_scenario_rejected() {
        Scenario::square(16, 2.0, 5, 4).validate();
    }

    #[test]
    #[should_panic(expected = "work_schedule must be sorted")]
    fn unsorted_schedule_rejected() {
        Scenario::square(16, 2.0, 4, 4)
            .with_work_schedule(vec![(4, WorkModel::Uniform), (2, WorkModel::Uniform)])
            .validate();
    }

    #[test]
    fn work_at_follows_the_schedule() {
        let sc = Scenario::square(16, 2.0, 4, 8).with_work_schedule(vec![
            (
                2,
                WorkModel::Crack {
                    y_cell: 8,
                    half_width: 2,
                    factor: 0.5,
                },
            ),
            (5, WorkModel::Uniform),
        ]);
        assert_eq!(sc.work_at(0), &WorkModel::Uniform);
        assert!(matches!(sc.work_at(3), WorkModel::Crack { .. }));
        assert_eq!(sc.work_at(6), &WorkModel::Uniform);
    }

    #[test]
    fn membership_masks_follow_the_event_timeline() {
        let events = vec![
            (2, ClusterEvent::Join { rank: 3 }),
            (4, ClusterEvent::Drain { rank: 1 }),
            (6, ClusterEvent::Fail { rank: 0 }),
        ];
        // rank 3's first event is Join: it starts inactive
        assert_eq!(initial_active(4, &events), vec![true, true, true, false]);
        assert_eq!(active_at(4, &events, 1), vec![true, true, true, false]);
        assert_eq!(active_at(4, &events, 2), vec![true, true, true, true]);
        assert_eq!(active_at(4, &events, 5), vec![true, false, true, true]);
        assert_eq!(active_at(4, &events, 6), vec![false, false, true, true]);
        // only Fail marks a rank failed; Drain does not
        assert_eq!(failed_at(4, &events, 5), vec![false; 4]);
        assert_eq!(failed_at(4, &events, 6), vec![true, false, false, false]);
        // a later Join clears the failed state (elastic replacement)
        let rejoin = vec![
            (2, ClusterEvent::Fail { rank: 0 }),
            (5, ClusterEvent::Join { rank: 0 }),
        ];
        assert_eq!(initial_active(2, &rejoin), vec![true, true]);
        assert_eq!(active_at(2, &rejoin, 3), vec![false, true]);
        assert_eq!(active_at(2, &rejoin, 5), vec![true, true]);
        assert_eq!(failed_at(2, &rejoin, 3), vec![true, false]);
        assert_eq!(failed_at(2, &rejoin, 5), vec![false, false]);
    }

    fn elastic_scenario() -> Scenario {
        Scenario::square(16, 2.0, 4, 8)
            .on(ClusterSpec::uniform(2, 1))
            .with_lb(LbSchedule::every(2).with_spec(LbSpec::repartition(
                LbSpec::greedy_steal(1),
                f64::INFINITY,
                1,
                u64::MAX,
            )))
            .with_cluster_events(vec![(3, ClusterEvent::Drain { rank: 1 })])
    }

    #[test]
    fn elastic_scenario_validates() {
        elastic_scenario().validate();
    }

    #[test]
    #[should_panic(expected = "require an LbSpec::repartition policy")]
    fn cluster_events_require_a_repartition_policy() {
        elastic_scenario()
            .with_lb(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)))
            .validate();
    }

    #[test]
    #[should_panic(expected = "must be sorted by step")]
    fn unsorted_cluster_events_rejected() {
        elastic_scenario()
            .with_cluster_events(vec![
                (4, ClusterEvent::Drain { rank: 1 }),
                (2, ClusterEvent::Join { rank: 1 }),
            ])
            .validate();
    }

    #[test]
    #[should_panic(expected = "outside the 2-rank cluster")]
    fn cluster_event_rank_range_checked() {
        elastic_scenario()
            .with_cluster_events(vec![(3, ClusterEvent::Fail { rank: 7 })])
            .validate();
    }

    #[test]
    #[should_panic(expected = "take effect from step 1")]
    fn cluster_event_at_step_zero_rejected() {
        elastic_scenario()
            .with_cluster_events(vec![(0, ClusterEvent::Drain { rank: 1 })])
            .validate();
    }

    #[test]
    #[should_panic(expected = "no active rank")]
    fn fully_draining_the_cluster_rejected() {
        elastic_scenario()
            .with_cluster_events(vec![
                (3, ClusterEvent::Drain { rank: 0 }),
                (3, ClusterEvent::Drain { rank: 1 }),
            ])
            .validate();
    }

    #[test]
    #[should_panic(expected = "which only joins later")]
    fn initial_partition_must_avoid_unjoined_ranks() {
        // Metis over 2 ranks places SDs on rank 1, but rank 1 only joins
        // at step 3.
        elastic_scenario()
            .with_cluster_events(vec![(3, ClusterEvent::Join { rank: 1 })])
            .validate();
    }

    #[test]
    fn modeled_busy_is_deterministic_and_speed_scaled() {
        let sds = SdGrid::new(4, 1, 4);
        let owners = vec![0u32, 0, 1, 1];
        let busy = modeled_busy(&sds, &owners, 2, &WorkModel::Uniform, &[2.0, 1.0], 1e-9);
        // node 0 is twice as fast over the same two SDs
        assert!((busy[1] / busy[0] - 2.0).abs() < 1e-12);
        let again = modeled_busy(&sds, &owners, 2, &WorkModel::Uniform, &[2.0, 1.0], 1e-9);
        assert_eq!(busy, again);
    }

    #[test]
    fn scenario_runs_on_the_real_substrate() {
        let report = Scenario::square(16, 2.0, 4, 3)
            .on(ClusterSpec::uniform(2, 1))
            .with_net(NetSpec::Instant)
            .run_dist();
        report.check_invariants();
        assert_eq!(report.substrate, "dist");
        assert_eq!(report.busy.len(), 2);
        assert!(report.field.is_some());
        assert!(report.ghost_bytes > 0, "two nodes must exchange ghosts");
        assert!(report.counter(NETWORK_MESSAGES) > Some(0));
    }
}
