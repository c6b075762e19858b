//! Fully distributed asynchronous solver with online load balancing.
//!
//! Implements §6 of the paper end to end: SDs distributed over localities
//! by the mesh partitioner (§6.2), ghost zones exchanged as one bundle
//! parcel per step and ordered rank pair (see [`crate::ghost`]), the
//! case-2 (foreign-independent) computation launched immediately while
//! each SD's case-1 computation is released by a countdown of the bundles
//! that fill its halo (§6.3, Fig. 5) — so communication hides behind
//! computation — and, every
//! [`LbSchedule::period`] steps, a full load-balancing epoch: busy-time
//! gather, plan on locality 0 via the configured [`LbSpec`] policy
//! (Algorithm 1 by default), broadcast — the round
//! [`nlheat_amt::collectives`] provides — SD migration, counter reset (§7).
//!
//! This is the only step loop of the real runtime: on one locality no
//! ghost is foreign, every SD is all case 2, and the loop is the paper's
//! shared-memory solver (§8.2) — see [`crate::shared`].
//!
//! There is deliberately **no global barrier between timesteps**: tags
//! carry the step index, so a fast node may run ahead and its bundles are
//! stashed by the receiver's rendezvous table until expected — the
//! asynchronous pipelining an AMT runtime buys.

pub use crate::balance::LbSpec;
use crate::balance::{
    EpochConfig, EpochLog, EpochMeasure, EpochTrace, LbEpoch, LbSchedule, Move, SdGraph,
};
use crate::ghost::{reverse_index, GhostSchedule, PatchRecord};
use crate::ownership::Ownership;
use crate::scenario::{failed_at, nominal_sec_per_dp, LbInput, PartitionSpec};
use crate::workload::WorkModel;
use bytes::{Buf, Bytes, BytesMut};
use nlheat_amt::cluster::{Cluster, ClusterBuilder};
use nlheat_amt::codec::{decode_f64_rows, decode_ghost_record, encode_f64_rows, WireError};
use nlheat_amt::collectives;
use nlheat_amt::future::{when_all, Future};
use nlheat_amt::locality::Locality;
use nlheat_amt::parcel::tag;
use nlheat_amt::task::Task;
use nlheat_mesh::{
    build_halo_plan, split_cases, CaseSplit, HaloPlan, PatchSource, Rect, SdGrid, SdId, Stencil,
    Tile,
};
use nlheat_model::{
    ErrorAccumulator, KernelPlan, NonlocalKernel, ProblemParts, ProblemSpec, SourceFn,
};
use nlheat_netmodel::{LinkClass, NetSpec};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parcel tag classes of the solver protocol (the LB round's gather and
/// broadcast travel under the collectives' own class).
const CLASS_GHOST: u8 = 1;
const CLASS_MIGRATE: u8 = 4;

/// Configuration of a distributed run — the low-level execution config of
/// the real runtime. Describe experiments with
/// [`crate::scenario::Scenario`] (which compiles into this via
/// [`crate::scenario::Scenario::dist_config`]); `DistConfig` remains for
/// code that must own the [`Cluster`] it runs on and so drives
/// [`run_distributed`] directly.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// The physical problem (manufactured source and initial condition).
    pub spec: ProblemSpec,
    /// SD side length in cells.
    pub sd_size: usize,
    /// Timesteps.
    pub n_steps: usize,
    /// Initial distribution method (shared with the simulator).
    pub partition: PartitionSpec,
    /// Case-1/case-2 overlap (§6.3); `false` waits for all ghosts before
    /// computing anything (ablation A2).
    pub overlap: bool,
    /// Optional load balancing.
    pub lb: Option<LbSchedule>,
    /// Record the eq.-7 error every step.
    pub record_error: bool,
    /// Per-SD work factors (crack scenario etc.).
    pub work: WorkModel,
    /// Time-varying workload: `(from_step, model)` switch points, sorted
    /// by step; the last entry with `from_step ≤ s` overrides `work` at
    /// step `s`. The same propagating-crack schedule the simulator
    /// executes — the work factor is emulated by kernel repetition, so
    /// the numerics stay bit-exact while the busy times shift.
    pub work_schedule: Vec<(usize, WorkModel)>,
    /// Elastic cluster-membership timeline (`(from_step, event)`, sorted
    /// by step; see [`crate::scenario::ClusterEvent`]). Events change the
    /// planner's view — the active-rank mask locality 0's [`LbEpoch`]
    /// plans under and the failure mask the ghost counters honour —
    /// never the execution: every locality keeps computing the SDs it
    /// owns until a replan evacuates them, so the field stays bit-exact.
    pub cluster_events: Vec<(usize, crate::scenario::ClusterEvent)>,
    /// Network cost model for the cluster fabric — the same [`NetSpec`]
    /// the simulator consumes, so one configuration describes both
    /// substrates. Applied by [`DistConfig::cluster`]; a cluster built
    /// directly via `ClusterBuilder` keeps whatever model it was given.
    pub net: NetSpec,
    /// What the balancing policies plan from: measured wall-clock busy
    /// times (the paper's mode) or deterministic modeled busy times
    /// ([`LbInput::Modeled`], the cross-substrate parity mode).
    pub lb_input: LbInput,
    /// Group each SD's per-step compute into one task per row band
    /// instead of one task per case, so idle workers steal pieces of a
    /// straggler SD *within* a timestep (intra-epoch balancing; the LB
    /// policies only move SD ownership *between* epochs). The grouping is
    /// deterministic and every cell is written exactly once from `curr`
    /// by the same task body, so the field is bit-identical either way.
    pub intra_step_stealing: bool,
    /// Per-locality memory capacities in bytes (`None` = unbounded),
    /// indexed by locality id. Empty = memory-blind planning (the
    /// historical behaviour). When any cap is set the planner sees the
    /// capacities and the per-SD resident footprints, so memory-aware
    /// policies gate destinations on them.
    pub memory_bytes: Vec<Option<u64>>,
}

impl DistConfig {
    /// Defaults mirroring the paper's distributed experiments.
    pub fn new(n: usize, eps_mult: f64, sd_size: usize, n_steps: usize) -> Self {
        DistConfig {
            spec: ProblemSpec::square(n, eps_mult),
            sd_size,
            n_steps,
            partition: PartitionSpec::Metis { seed: 1 },
            overlap: true,
            lb: None,
            record_error: false,
            work: WorkModel::Uniform,
            work_schedule: Vec::new(),
            cluster_events: Vec::new(),
            net: NetSpec::Instant,
            lb_input: LbInput::Measured,
            intra_step_stealing: false,
            memory_bytes: Vec::new(),
        }
    }

    /// The workload in effect at `step`.
    pub fn work_at(&self, step: usize) -> &WorkModel {
        crate::scenario::work_at(&self.work, &self.work_schedule, step)
    }

    /// A [`ClusterBuilder`] pre-configured with this config's network
    /// model, so examples and tests select the transport in one place:
    ///
    /// ```
    /// use nlheat_core::dist::{run_distributed, DistConfig};
    /// use nlheat_netmodel::NetSpec;
    ///
    /// let mut cfg = DistConfig::new(16, 2.0, 4, 2);
    /// cfg.net = NetSpec::shared(1e-6, 10e9);
    /// let cluster = cfg.cluster().uniform(2, 1).build();
    /// let _report = run_distributed(&cluster, &cfg);
    /// ```
    pub fn cluster(&self) -> ClusterBuilder {
        ClusterBuilder::new().net(self.net)
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Wall time of the whole run (all localities).
    pub elapsed: Duration,
    /// Summed per-step errors when requested.
    pub error: Option<ErrorAccumulator>,
    /// Final interior field, row-major over the global mesh.
    pub field: Vec<f64>,
    /// Final SD ownership.
    pub final_ownership: Ownership,
    /// Per-locality busy nanoseconds (since the last counter reset).
    pub busy_ns: Vec<u64>,
    /// Total SDs migrated by load balancing.
    pub migrations: usize,
    /// Planner-grade migration payload bytes (sum of the realized plans'
    /// [`EpochTrace::migration_bytes`] — the same `patch_wire_bytes`
    /// accounting the simulator charges, so identical plans produce
    /// identical counters on both substrates).
    pub migration_bytes: u64,
    /// The inter-rack share of `migration_bytes` (per the configured
    /// [`NetSpec`]'s link classes; 0 for rack-less models).
    pub inter_rack_migration_bytes: u64,
    /// Planner-grade ghost-exchange bytes between localities over the
    /// whole run, counted per foreign halo patch with the same
    /// `patch_wire_bytes` formula the simulator charges — exactly the
    /// payload bytes of the ghost bundles (the wire adds only the 24-byte
    /// parcel header per bundle).
    pub ghost_bytes: u64,
    /// The inter-rack share of `ghost_bytes`.
    pub inter_rack_ghost_bytes: u64,
    /// Foreign halo patches shipped over the whole run (counted beside
    /// `ghost_bytes`, under the same failure mask): the records inside
    /// the bundles, and the number of ghost messages the simulator's
    /// per-patch model sends.
    pub ghost_patches: u64,
    /// Per-node SD counts after each balancing epoch.
    pub lb_history: Vec<Vec<usize>>,
    /// The realized migration plan of each epoch, in epoch order (empty
    /// plans are skipped, matching `lb_history`).
    pub lb_plans: Vec<Vec<Move>>,
    /// One [`EpochTrace`] per realized balancing epoch (recorded on
    /// locality 0, in epoch order): plan size, migration bytes, and the
    /// recurring ghost-traffic cut before/after — the per-epoch data
    /// A8/A9-style plots are drawn from.
    pub epoch_traces: Vec<EpochTrace>,
    /// Per-locality successful task steals in the worker pools (includes
    /// injector grabs; peer-to-peer steals are what intra-step stealing
    /// adds on a straggler step).
    pub pool_steals: Vec<u64>,
    /// Per-locality dry victim scans (steal attempts that found nothing).
    pub pool_steal_fails: Vec<u64>,
    /// Per-locality worker park events (idle workers going to sleep).
    pub pool_parks: Vec<u64>,
}

/// Ownership-independent, cluster-wide setup shared by all drivers.
struct Setup {
    cfg: DistConfig,
    parts: ProblemParts,
    sds: SdGrid,
    /// Halo plan per SD (geometry only — never changes).
    plans: Vec<HaloPlan>,
    /// Reverse index: for each source SD, the `(destination SD, patch
    /// index)` pairs that read from it.
    reverse: Vec<Vec<(SdId, u16)>>,
    /// The SD adjacency / halo-volume graph derived from `plans` — the
    /// planner's view of the recurring ghost traffic the real parcels
    /// produce.
    sd_graph: Arc<SdGraph>,
    initial_owners: Vec<u32>,
    /// Per-locality memory capacities (`u64::MAX` = unbounded) when any
    /// locality declares a cap.
    memory_caps: Option<Vec<u64>>,
    n_nodes: u32,
    /// Per-locality speed factors (from the cluster), for modeled busy.
    speeds: Vec<f64>,
    /// Nominal per-DP seconds of this problem's stencil — the scale the
    /// modeled planning inputs share with the simulator's calibrated cost
    /// model.
    sec_per_dp: f64,
}

impl Setup {
    fn build(cfg: DistConfig, n_nodes: u32, speeds: Vec<f64>) -> Self {
        let parts = cfg.spec.build();
        let grid = parts.grid;
        let sds = SdGrid::tile_mesh(grid.nx as usize, grid.ny as usize, cfg.sd_size);
        // Reject an unpriceable work model on the caller's thread, not on
        // a driver thread mid-run (where the panic would deadlock the
        // other localities).
        cfg.work.validate(&sds);
        for (_, model) in &cfg.work_schedule {
            model.validate(&sds);
        }
        let plans: Vec<HaloPlan> = sds
            .ids()
            .map(|id| build_halo_plan(&sds, grid.halo, id))
            .collect();
        let reverse = reverse_index(&plans);
        let initial_owners = cfg.partition.initial_owners(&sds, n_nodes);
        let sd_graph = Arc::new(SdGraph::from_plans(&sds, &plans));
        let sec_per_dp = nominal_sec_per_dp(Stencil::build(grid.h, grid.eps).len());
        let memory_caps = cfg.memory_bytes.iter().any(Option::is_some).then(|| {
            assert_eq!(
                cfg.memory_bytes.len(),
                n_nodes as usize,
                "memory_bytes must name every locality"
            );
            cfg.memory_bytes
                .iter()
                .map(|c| c.unwrap_or(u64::MAX))
                .collect()
        });
        Setup {
            cfg,
            parts,
            sds,
            plans,
            reverse,
            sd_graph,
            initial_owners,
            memory_caps,
            n_nodes,
            speeds,
            sec_per_dp,
        }
    }
}

/// Double-buffered SD storage shared between the driver and its tasks.
struct SdCell {
    curr: RwLock<Tile>,
    next: Mutex<Tile>,
}

/// Raw pointer into an SD's `next` buffer, through which the SD's compute
/// tasks of one step write their pairwise-disjoint regions without a lock
/// around the compute. The safety argument lives at its one dereference,
/// in [`compute_tasks`].
#[derive(Clone, Copy)]
struct NextPtr(*mut f64);
// SAFETY: the pointer is only dereferenced by the compute tasks of one
// step, which write pairwise-disjoint regions and all complete before the
// step barrier releases the buffer for the swap.
unsafe impl Send for NextPtr {}

impl NextPtr {
    /// Capture `cell`'s next buffer, once per SD and step: the swap ending
    /// a step rotates the tiles between the lock slots, and deriving the
    /// pointer again would invalidate the one running tasks write through.
    ///
    /// # Panics
    /// If the tiles differ in geometry: tasks index `next` by `curr`'s.
    fn capture(cell: &SdCell) -> Self {
        let curr = cell.curr.read();
        let mut next = cell.next.lock();
        assert!(
            curr.stride() == next.stride() && curr.halo() == next.halo(),
            "the curr and next tiles of an SD differ in geometry: stride or halo"
        );
        NextPtr(next.data_mut().as_mut_ptr())
    }
}

/// Split `rect` into horizontal bands of height ≤ `band`, top to bottom.
/// Deterministic in the inputs and an exact cover of `rect`, so banded
/// execution visits every cell exactly once in a schedule-independent
/// decomposition.
fn row_bands(rect: &Rect, band: i64) -> Vec<Rect> {
    debug_assert!(band >= 1);
    let mut out = Vec::with_capacity(((rect.h + band - 1) / band).max(0) as usize);
    let mut y = rect.y0;
    while y < rect.y1() {
        let h = band.min(rect.y1() - y);
        out.push(Rect::new(rect.x0, y, rect.w, h));
        y += h;
    }
    out
}

/// One owned SD with its task-facing state.
struct NodeSd {
    origin: (i64, i64),
    cell: Arc<SdCell>,
}

/// What every compute task of a run shares: the kernel, its plan for the
/// tile stride, the source and the timestep.
struct StepKernel {
    kernel: NonlocalKernel,
    plan: KernelPlan,
    source: SourceFn,
    dt: f64,
}

/// The tasks that update `rects` of `unit` at time `t`, writing through
/// `next`. There is one task body: a task owns a group of regions and runs
/// the kernel over each. `band` only sets the grouping — `None`: every
/// non-empty rect in one task (no task if all are empty); `Some(h)`: one
/// task per row band of height ≤ `h`, the piece an idle worker steals
/// within a step. Every cell is computed once, from the same `curr` with
/// the same arithmetic, so the field does not depend on the grouping.
fn compute_tasks(
    kern: &Arc<StepKernel>,
    t: f64,
    unit: &NodeSd,
    next: NextPtr,
    repeats: u32,
    rects: &[Rect],
    band: Option<i64>,
) -> Vec<Task> {
    let regions: Vec<Rect> = rects
        .iter()
        .filter(|r| !r.is_empty())
        .flat_map(|r| row_bands(r, band.unwrap_or(r.h)))
        .collect();
    regions
        .chunks(band.map_or(usize::MAX, |_| 1))
        .map(|group| {
            let group = group.to_vec();
            let k = kern.clone();
            let cell = unit.cell.clone();
            let origin = unit.origin;
            Box::new(move || {
                // bind the wrapper, not its field: edition-2021 disjoint
                // capture would otherwise move the bare `*mut f64` into
                // the closure, which is !Send
                let next = next;
                let curr = cell.curr.read();
                for rect in &group {
                    // SAFETY: `NextPtr::capture` took `next` from this
                    // cell's next tile after asserting that it has
                    // `curr`'s stride and halo, and the storage stays put
                    // until the driver swaps the buffers. The SD's tasks of
                    // one step write pairwise disjoint regions: bands
                    // partition their rect, and the rects of the step's two
                    // calls — case 2 now, case 1 gated — tile the interior
                    // (`split_cases`; overlap off: nothing, then all of
                    // it). Nothing reads `next` before the step barriers
                    // have seen every task complete.
                    unsafe {
                        k.kernel.apply_region_blocked_raw(
                            &curr, next.0, rect, &k.plan, origin, t, k.dt, &k.source, repeats,
                        );
                    }
                }
            }) as Task
        })
        .collect()
}

/// Everything a driver derives from ownership alone, rebuilt when a
/// migration epoch rewrites it: the ghost schedule (shared with the bundle
/// continuations) and the case-1/case-2 split of every owned SD, parallel
/// to `schedule.owned`.
fn ownership_view(setup: &Setup, owners: &[u32], me: u32) -> (Arc<GhostSchedule>, Vec<CaseSplit>) {
    let schedule = GhostSchedule::build(&setup.plans, &setup.reverse, owners, me);
    let halo = setup.parts.grid.halo;
    let splits = schedule
        .owned
        .iter()
        .map(|&sd| {
            let plan = &setup.plans[sd as usize];
            split_cases(setup.sds.sd, halo, plan, |n| owners[n as usize] != me)
        })
        .collect();
    (Arc::new(schedule), splits)
}

/// One owned SD's halo gate for one step: the bundle continuations write
/// the foreign patches into `cell` and count `awaiting` down; the one that
/// reaches zero has seen the SD's halo completed and releases `gated`.
struct SdGate {
    cell: Arc<SdCell>,
    /// Incoming bundles that have not yet delivered into this halo.
    awaiting: AtomicU32,
    /// The SD's compute tasks that read foreign ghost cells.
    gated: Mutex<Vec<Task>>,
}

/// Scatter one incoming bundle into the destination halos: check every
/// record against the schedule's `records`, decode it straight into its
/// tile of `gates` (parallel to the schedule's `owned`), and hand the gated
/// tasks of each SD whose last awaited bundle this was to `release`. A
/// bundle that disagrees with the schedule — a record for another patch, a
/// short run, bytes after the last record — is an error, and no record at
/// or after the disagreement is written.
fn scatter_bundle(
    mut payload: Bytes,
    records: &[PatchRecord],
    gates: &[SdGate],
    mut release: impl FnMut(Task),
) -> Result<(), WireError> {
    for run in records.chunk_by(|a, b| a.tile == b.tile) {
        let gate = &gates[run[0].tile as usize];
        {
            let mut curr = gate.cell.curr.write();
            for rec in run {
                let rows = curr.rect_rows_mut(&rec.rect);
                decode_ghost_record(&mut payload, rec.header(), rows)?;
            }
        }
        // AcqRel: every bundle's decrement releases its halo writes, and
        // the decrement that reaches zero acquires them all before the
        // gated tasks are handed out.
        if gate.awaiting.fetch_sub(1, Ordering::AcqRel) == 1 {
            std::mem::take(&mut *gate.gated.lock())
                .into_iter()
                .for_each(&mut release);
        }
    }
    if payload.has_remaining() {
        return Err(WireError::TrailingBytes(payload.remaining()));
    }
    Ok(())
}

/// Per-node report returned by each driver.
struct NodeReport {
    sd_fields: Vec<(SdId, Vec<f64>)>,
    error_partials: Vec<f64>,
    busy_ns: u64,
    in_migrations: usize,
    /// Planner-grade ghost bytes this locality *sent* to other localities.
    ghost_bytes: u64,
    inter_rack_ghost_bytes: u64,
    ghost_patches: u64,
    /// The run's epoch record — locality 0 plans, so only it has one.
    lb_log: Option<EpochLog>,
    /// Worker-pool steal counters of this locality over the whole run.
    pool_steals: u64,
    pool_steal_fails: u64,
    pool_parks: u64,
}

/// Run the distributed solver on `cluster`.
///
/// # Panics
/// Panics if the mesh does not tile into SDs or the configuration is
/// internally inconsistent.
pub fn run_distributed(cluster: &Cluster, cfg: &DistConfig) -> DistReport {
    // Guard the config/cluster seam in both directions: the fabric delays
    // parcels by the cluster's model while the LB epoch prices moves and
    // the ghost counters classify links by the config's, so a mismatch
    // would silently measure a different transport than it plans for (and
    // than the paired simulation).
    assert!(
        cluster.net_spec() == &cfg.net,
        "DistConfig.net is {:?} but the cluster was built with {:?}; \
         build the cluster with DistConfig::cluster() so both agree",
        cfg.net,
        cluster.net_spec()
    );
    // Reject a degenerate policy parameter here (covers direct field
    // assignment that bypassed `with_spec`): a panic inside the locality-0
    // driver at the first LB epoch would leave the other localities
    // blocked on the plan rendezvous forever.
    if let Some(lb) = &cfg.lb {
        lb.validate();
    }
    let n_nodes = cluster.len() as u32;
    let speeds: Vec<f64> = cluster.localities().iter().map(|l| l.speed()).collect();
    let setup = Arc::new(Setup::build(cfg.clone(), n_nodes, speeds));
    let t0 = Instant::now();
    let mut reports = cluster.run(|loc| driver(loc, setup.clone()));
    let elapsed = t0.elapsed();

    // Assemble the global field.
    let (nx, ny) = setup.sds.mesh_extent();
    let mut field = vec![0.0; (nx * ny) as usize];
    let mut final_owners = vec![0u32; setup.sds.count()];
    for (node, report) in reports.iter().enumerate() {
        for (sd, values) in &report.sd_fields {
            final_owners[*sd as usize] = node as u32;
            let origin = setup.sds.origin(*sd);
            let mut it = values.iter();
            for lj in 0..setup.sds.sd {
                for li in 0..setup.sds.sd {
                    field[((origin.1 + lj) * nx + origin.0 + li) as usize] =
                        *it.next().expect("field size");
                }
            }
        }
    }
    // Sum error partials across nodes per step.
    let error = cfg.record_error.then(|| {
        let mut acc = ErrorAccumulator::new();
        for k in 0..cfg.n_steps {
            acc.push(reports.iter().map(|r| r.error_partials[k]).sum());
        }
        acc
    });
    let migrations = reports.iter().map(|r| r.in_migrations).sum();
    let lb_log = reports[0].lb_log.take().unwrap_or_default();
    DistReport {
        elapsed,
        error,
        field,
        final_ownership: Ownership::new(setup.sds, final_owners, n_nodes),
        busy_ns: reports.iter().map(|r| r.busy_ns).collect(),
        migrations,
        migration_bytes: lb_log.migration_bytes,
        inter_rack_migration_bytes: lb_log.inter_rack_migration_bytes,
        ghost_bytes: reports.iter().map(|r| r.ghost_bytes).sum(),
        inter_rack_ghost_bytes: reports.iter().map(|r| r.inter_rack_ghost_bytes).sum(),
        ghost_patches: reports.iter().map(|r| r.ghost_patches).sum(),
        lb_history: lb_log.history,
        lb_plans: lb_log.plans,
        epoch_traces: lb_log.traces,
        pool_steals: reports.iter().map(|r| r.pool_steals).collect(),
        pool_steal_fails: reports.iter().map(|r| r.pool_steal_fails).collect(),
        pool_parks: reports.iter().map(|r| r.pool_parks).collect(),
    }
}

/// Serialize `rect` of `tile` into a wire payload, streaming the strided
/// rows straight into the buffer (no intermediate `Vec<f64>`). The buffer
/// is sized exactly, so encoding is one allocation and `rect.h + 1`
/// memcpys.
fn pack_tile_rect(tile: &Tile, rect: &Rect) -> Bytes {
    let mut buf = BytesMut::with_capacity(rect.area() as usize * 8 + 8);
    encode_f64_rows(rect.area() as usize, tile.rect_rows(rect), &mut buf);
    buf.freeze()
}

#[allow(clippy::too_many_lines)]
fn driver(loc: Arc<Locality>, setup: Arc<Setup>) -> NodeReport {
    let me = loc.id();
    let cfg = &setup.cfg;
    let sds = setup.sds;
    let halo = setup.parts.grid.halo;
    let dt = setup.parts.dt;
    let kern = Arc::new(StepKernel {
        kernel: setup.parts.kernel.clone(),
        plan: setup.parts.kernel.plan(sds.sd + 2 * halo),
        source: setup.parts.manufactured.source_fn(),
        dt,
    });
    let manufactured = setup.parts.manufactured.clone();

    let mut owners = setup.initial_owners.clone();
    let mut states: HashMap<SdId, NodeSd> = HashMap::new();
    for sd in sds.ids() {
        if owners[sd as usize] != me {
            continue;
        }
        let origin = sds.origin(sd);
        let mut curr = Tile::new(sds.sd, halo);
        for lj in 0..sds.sd {
            for li in 0..sds.sd {
                curr.set(li, lj, manufactured.initial(origin.0 + li, origin.1 + lj));
            }
        }
        states.insert(
            sd,
            NodeSd {
                origin,
                cell: Arc::new(SdCell {
                    curr: RwLock::new(curr),
                    next: Mutex::new(Tile::new(sds.sd, halo)),
                }),
            },
        );
    }

    // Tiles reclaimed from migrated-away SDs, reused (zeroed) for incoming
    // migrations so steady-state balancing stops allocating tile pairs.
    let mut tile_pool: Vec<Tile> = Vec::new();
    let mut error_partials = Vec::with_capacity(cfg.n_steps);
    let mut in_migrations = 0usize;
    // Planner-grade ghost-traffic counters (what this locality sends):
    // per foreign patch the same `patch_wire_bytes` the simulator charges
    // and the SdGraph weighs, so both substrates' counters agree under
    // identical ownership sequences.
    let mut ghost_bytes = 0u64;
    let mut inter_rack_ghost_bytes = 0u64;
    let mut ghost_patches = 0u64;
    // Ghost-stall accounting: each step's worst ghost-arrival delay
    // (wall time from task spawn to the last bundle continuation firing),
    // accumulated per balancing window — the adaptive-μ feedback signal.
    let step_ghost_wait = Arc::new(AtomicU64::new(0));
    let mut window_ghost_ns = 0u64;
    let spawner = loc.spawner();

    // Locality 0 plans every epoch through one driver, kept alive across
    // epochs so stateful policies (the adaptive-λ decorator) can learn
    // from the measured migration stalls. Its planning view carries the SD
    // graph of the *real* halo plans, so μ-weighted policies price exactly
    // the record bytes this driver's ghost bundles carry every step.
    let mut lb_epoch = cfg.lb.as_ref().filter(|_| me == 0).map(|lb| {
        LbEpoch::new(EpochConfig {
            lb,
            net: &cfg.net,
            cells_per_sd: sds.cells_per_sd(),
            sd_graph: setup.sd_graph.clone(),
            memory_caps: setup.memory_caps.clone(),
            lb_input: cfg.lb_input,
            cluster_events: &cfg.cluster_events,
            work: &cfg.work,
            work_schedule: &cfg.work_schedule,
            speeds: setup.speeds.clone(),
            sec_per_dp: setup.sec_per_dp,
        })
    });
    // Link classes for the ghost counters: the very CommCost the planner
    // prices moves with.
    let comm_cost = cfg.net.comm_cost();
    // Wall time this locality spent in the previous epoch's migration
    // exchange (gathered with the busy times as the adaptive-λ stall
    // signal) and, on locality 0, the length of the previous window.
    let mut prev_stall_ns = 0u64;
    let mut prev_window_secs: Option<f64> = None;
    let mut window_t0 = Instant::now();

    // The owned-SD list, the ghost bundles and the case splits change only
    // when a migration epoch rewrites ownership, so they are rebuilt there
    // instead of being rederived every step.
    let (mut schedule, mut splits) = ownership_view(&setup, &owners, me);
    let full = Rect::new(0, 0, sds.sd, sds.sd);
    for step in 0..cfg.n_steps {
        let owned = &schedule.owned;

        // --- 1. local halo fill (same-node neighbours: plain copies) ---
        for &sd in owned {
            let dst_cell = states[&sd].cell.clone();
            let mut dst = dst_cell.curr.write();
            for patch in &setup.plans[sd as usize].patches {
                if let PatchSource::Sd(src) = patch.source {
                    if owners[src as usize] == me {
                        let src_cell = states[&src].cell.clone();
                        let src_tile = src_cell.curr.read();
                        dst.copy_rect_from(&src_tile, &patch.src_rect, &patch.dst_rect);
                    }
                }
            }
        }

        // --- 2. sends: one ghost bundle per neighbour rank ---
        //
        // Failure mask of this step: bundles to or from a fail-stopped
        // rank still flow (the solver's numerics are sacred) but stop
        // counting toward the planner-grade ghost counters — a failed
        // rank's in-flight contributions are lost to the application.
        let failed_now = (!cfg.cluster_events.is_empty())
            .then(|| failed_at(setup.n_nodes as usize, &cfg.cluster_events, step));
        if !schedule.sends.is_empty() {
            // No task of this step is running yet, so the read locks are
            // uncontended; records index this list by tile.
            let tiles: Vec<_> = owned.iter().map(|sd| states[sd].cell.curr.read()).collect();
            for bundle in &schedule.sends {
                let counted = failed_now
                    .as_ref()
                    .is_none_or(|f| !f[me as usize] && !f[bundle.peer as usize]);
                if counted {
                    ghost_patches += bundle.records.len() as u64;
                    ghost_bytes += bundle.wire_bytes as u64;
                    if comm_cost.link_class(me, bundle.peer) == LinkClass::InterRack {
                        inter_rack_ghost_bytes += bundle.wire_bytes as u64;
                    }
                }
                loc.send(
                    bundle.peer,
                    tag(CLASS_GHOST, step as u64, me as u64, 0),
                    bundle.pack(&tiles),
                );
            }
        }

        // --- 3. spawn compute tasks (case 2 immediately, case 1 gated) ---
        let t = step as f64 * dt;
        let ghost_t0 = Instant::now();
        let work_now = cfg.work_at(step);
        // Intra-step stealing: one task per row band of this height — a
        // function of the config alone, never of timing.
        let band = cfg
            .intra_step_stealing
            .then(|| (sds.sd / (2 * loc.pool().n_workers() as i64)).max(1));
        let mut step_futures: Vec<Future<()>> = Vec::new();
        let mut gates = Vec::with_capacity(owned.len());
        for (i, &sd) in owned.iter().enumerate() {
            let unit = &states[&sd];
            let split = &splits[i];
            // The work factor in effect *now* (the schedule may have
            // switched models): emulated by kernel repetition, so the
            // numerics stay bit-exact while the busy time shifts.
            let repeats = work_now.repeats(&sds, sd, loc.speed());
            // case 2 now, case 1 when the halo is complete; a fully local
            // SD is all case 2. The overlap-off ablation makes an SD with
            // foreign ghosts wait for them before computing anything.
            let (now, gated) = if cfg.overlap || split.is_all_case2() {
                (split.case2, &split.case1[..])
            } else {
                (Rect::empty(), std::slice::from_ref(&full))
            };
            let next = NextPtr::capture(&unit.cell);
            for task in compute_tasks(&kern, t, unit, next, repeats, &[now], band) {
                step_futures.push(spawner.async_call(task));
            }
            gates.push(SdGate {
                cell: unit.cell.clone(),
                awaiting: AtomicU32::new(schedule.awaited[i]),
                gated: Mutex::new(compute_tasks(&kern, t, unit, next, repeats, gated, band)),
            });
        }
        // One continuation per incoming bundle: check every record against
        // the schedule, decode it straight into the destination halo, and
        // release each SD whose last awaited bundle this was. The released
        // tasks' futures are the continuation's value, so the second
        // barrier below sees exactly the tasks that were spawned.
        let gates = Arc::new(gates);
        let mut bundle_futures = Vec::with_capacity(schedule.recvs.len());
        for b in 0..schedule.recvs.len() {
            let peer = schedule.recvs[b].peer;
            let schedule = schedule.clone();
            let gates = gates.clone();
            let ghost_wait = step_ghost_wait.clone();
            let spawn_in = spawner.clone();
            let arrival = loc.expect(tag(CLASS_GHOST, step as u64, peer as u64, 0));
            bundle_futures.push(arrival.then(&spawner, move |payload| {
                // the worst ghost-arrival delay of the step — the μ
                // feedback signal
                ghost_wait.fetch_max(ghost_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let mut released = Vec::new();
                let records = &schedule.recvs[b].records;
                scatter_bundle(payload, records, &gates, |task| {
                    released.push(spawn_in.async_call(task));
                })
                .unwrap_or_else(|e| {
                    panic!("step {step}: ghost bundle from rank {peer} to rank {me}: {e}")
                });
                released
            }));
        }
        when_all(step_futures).get();
        // Every continuation has run once its future is ready, so this is
        // the complete set of gated tasks (none on a single locality).
        let released: Vec<Future<()>> = when_all(bundle_futures)
            .get()
            .into_iter()
            .flatten()
            .collect();
        when_all(released).get();
        // The gates share the SD cells; a migration below wants them back
        // uniquely owned to recycle their tiles.
        drop(gates);
        window_ghost_ns += step_ghost_wait.swap(0, Ordering::Relaxed);

        // --- 4. swap buffers ---
        for &sd in owned {
            let cell = &states[&sd].cell;
            let mut curr = cell.curr.write();
            let mut next = cell.next.lock();
            std::mem::swap(&mut *curr, &mut *next);
        }

        // --- 5. error recording ---
        if cfg.record_error {
            let t_now = (step + 1) as f64 * dt;
            let h = setup.parts.grid.h;
            let mut sum = 0.0;
            for &sd in owned {
                let unit = &states[&sd];
                let curr = unit.cell.curr.read();
                for lj in 0..sds.sd {
                    for li in 0..sds.sd {
                        let (gi, gj) = (unit.origin.0 + li, unit.origin.1 + lj);
                        let d = manufactured.exact(t_now, gi, gj) - curr.get(li, lj);
                        sum += d * d;
                    }
                }
            }
            error_partials.push(h * h * sum);
        } else {
            error_partials.push(0.0);
        }

        // --- 6. load-balancing epoch (the configured LbSpec policy) ---
        if let Some(lb_cfg) = cfg.lb.as_ref().filter(|lb| lb.due(step, cfg.n_steps)) {
            let epoch = ((step + 1) / lb_cfg.period) as u64;
            // gather busy times on locality 0, piggybacking the wall time
            // each locality spent in the *previous* epoch's migration
            // exchange — the cluster-wide stall signal adaptive policies
            // feed on (locality 0's own exchange alone would miss
            // migrations flowing entirely between other localities)
            let stat = (
                loc.busy_time_ns(),
                states.len() as u64,
                prev_stall_ns,
                window_ghost_ns,
            );
            let moves = collectives::gather(&loc, setup.n_nodes, epoch, &stat)
                .and_then(|stats| {
                    // the gather lands on locality 0, the one that plans
                    let plan = stats.zip(lb_epoch.as_mut()).map(|(stats, lb_epoch)| {
                        // seconds, so relief is commensurable with the
                        // CommCost transfer estimates the planner weighs in
                        let busy = stats.iter().map(|s| s.0 as f64 * 1e-9).collect();
                        let max_stall_ns = stats.iter().map(|s| s.2).max().unwrap_or(0);
                        let max_ghost_ns = stats.iter().map(|s| s.3).max().unwrap_or(0);
                        // The worst locality's stalls as fractions of their
                        // windows: the previous epoch's migration exchange
                        // over the previous window, this window's ghost
                        // waits over this window.
                        let window_now = window_t0.elapsed().as_secs_f64().max(1e-9);
                        let measure = EpochMeasure {
                            busy,
                            ghost_stall_frac: (max_ghost_ns as f64 * 1e-9) / window_now,
                            prev_migration_stall_frac: prev_window_secs
                                .map(|window| (max_stall_ns as f64 * 1e-9) / window.max(1e-9)),
                        };
                        let ownership = Ownership::new(sds, owners.clone(), setup.n_nodes);
                        let plan = lb_epoch.plan(step, &ownership, measure).plan;
                        let wire = plan.moves.iter().map(|m| (m.sd as u64, m.from, m.to));
                        wire.collect::<Vec<(u64, u32, u32)>>()
                    });
                    collectives::broadcast(&loc, setup.n_nodes, epoch, plan.as_ref())
                })
                .unwrap_or_else(|e| panic!("LB epoch {epoch} on rank {me}: {e}"));
            let migrate_t0 = Instant::now();
            // send outgoing SDs first, then collect incoming; tiles of
            // migrated-away SDs go back to the pool (all step tasks have
            // completed, so the Arc is uniquely held) and incoming SDs
            // draw from it, so repeated epochs stop allocating tile pairs
            let mut incoming: Vec<(SdId, Future<Bytes>)> = Vec::new();
            for &(sd64, from, to) in &moves {
                let sd = sd64 as SdId;
                if from == me {
                    let unit = states.remove(&sd).expect("migrating unowned SD");
                    {
                        let curr = unit.cell.curr.read();
                        let payload = pack_tile_rect(&curr, &curr.interior_rect());
                        loc.send(to, tag(CLASS_MIGRATE, epoch, sd as u64, 0), payload);
                    }
                    if let Ok(cell) = Arc::try_unwrap(unit.cell) {
                        tile_pool.push(cell.curr.into_inner());
                        tile_pool.push(cell.next.into_inner());
                    }
                }
                if to == me {
                    incoming.push((sd, loc.expect(tag(CLASS_MIGRATE, epoch, sd as u64, 0))));
                }
                owners[sd as usize] = to;
            }
            let fresh_tile = |pool: &mut Vec<Tile>| {
                pool.pop()
                    .map(|mut t| {
                        // pooled tiles must look newly constructed
                        t.data_mut().fill(0.0);
                        t
                    })
                    .unwrap_or_else(|| Tile::new(sds.sd, halo))
            };
            for (sd, fut) in incoming {
                let mut payload = fut.get();
                let origin = sds.origin(sd);
                let mut curr = fresh_tile(&mut tile_pool);
                decode_f64_rows(
                    &mut payload,
                    curr.rect_rows_mut(&Rect::new(0, 0, sds.sd, sds.sd)),
                )
                .expect("corrupt migration");
                let next = fresh_tile(&mut tile_pool);
                states.insert(
                    sd,
                    NodeSd {
                        origin,
                        cell: Arc::new(SdCell {
                            curr: RwLock::new(curr),
                            next: Mutex::new(next),
                        }),
                    },
                );
                in_migrations += 1;
            }
            if !moves.is_empty() {
                (schedule, splits) = ownership_view(&setup, &owners, me);
            }
            // Record this locality's migration-exchange time for the next
            // epoch's stat gather (0 for an empty plan — nothing
            // shipped, nothing stalled).
            prev_stall_ns = if moves.is_empty() {
                0
            } else {
                migrate_t0.elapsed().as_nanos() as u64
            };
            // The ghost-stall window restarts with the busy window.
            window_ghost_ns = 0;
            // Algorithm 1 line 35: reset the busy-time counters so the next
            // epoch measures a fresh interval.
            loc.busy_counter().reset();
            if me == 0 {
                prev_window_secs = Some(window_t0.elapsed().as_secs_f64());
                window_t0 = Instant::now();
            }
        }
    }

    // final per-SD fields
    let mut sd_fields: Vec<(SdId, Vec<f64>)> = states
        .iter()
        .map(|(&sd, unit)| {
            let curr = unit.cell.curr.read();
            (sd, curr.pack(&Rect::new(0, 0, sds.sd, sds.sd)))
        })
        .collect();
    sd_fields.sort_by_key(|(sd, _)| *sd);
    NodeReport {
        sd_fields,
        error_partials,
        busy_ns: loc.busy_time_ns(),
        in_migrations,
        ghost_bytes,
        inter_rack_ghost_bytes,
        ghost_patches,
        lb_log: lb_epoch.map(LbEpoch::into_log),
        pool_steals: loc.pool().steals_total(),
        pool_steal_fails: loc.pool().steal_fails_total(),
        pool_parks: loc.pool().parks_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::MoveWeights;
    use nlheat_amt::cluster::ClusterBuilder;
    use nlheat_model::SerialSolver;

    fn serial_field(n: usize, eps_mult: f64, steps: usize) -> Vec<f64> {
        let parts = ProblemSpec::square(n, eps_mult).build();
        let mut s = SerialSolver::manufactured(&parts);
        s.run(steps);
        s.field()
    }

    #[test]
    fn two_nodes_match_serial_bitwise() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 5);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
    }

    #[test]
    fn four_nodes_match_serial_bitwise() {
        let cluster = ClusterBuilder::new().uniform(4, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 5);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
    }

    #[test]
    fn intra_step_stealing_matches_serial_bitwise() {
        // Multi-core localities so the row-band tasks really execute on
        // several workers — the decomposition must not perturb a bit.
        let cluster = ClusterBuilder::new().uniform(2, 4).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 5);
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
        assert!(
            report.pool_steals.iter().sum::<u64>() > 0,
            "band tasks should move through the work-stealing scheduler"
        );
    }

    #[test]
    fn intra_step_stealing_straggler_sd_matches_serial_bitwise() {
        // One 8x-slow SD on a single 4-worker locality: idle workers
        // steal the straggler's bands, numerics stay pinned.
        let cluster = ClusterBuilder::new().uniform(1, 4).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        let mut work = vec![1.0; 16];
        work[0] = 8.0;
        cfg.work = WorkModel::PerSd(work);
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn intra_step_stealing_composes_with_lb() {
        // Stealing within steps + migration between epochs: both on, the
        // field still matches the serial solver bitwise.
        let cluster = ClusterBuilder::new().uniform(2, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
    }

    #[test]
    fn intra_step_stealing_overlap_off_matches_serial_bitwise() {
        // The non-overlap ablation gates *all* bands on the ghosts; the
        // deferred-futures barrier must still cover them.
        let cluster = ClusterBuilder::new().uniform(3, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.overlap = false;
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn overlap_off_same_numerics() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.overlap = false;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn strip_partition_same_numerics() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.partition = PartitionSpec::Strip;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn multi_ring_halo_across_nodes() {
        // sd=4 with eps=6h: halo 6 > sd, ghosts come from two rings away.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let cfg = DistConfig::new(16, 6.0, 4, 3);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 6.0, 3));
    }

    #[test]
    fn error_recorded_and_small() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.record_error = true;
        let report = run_distributed(&cluster, &cfg);
        let total = report.error.unwrap().total();
        assert!(total < 1e-4, "distributed error {total}");
    }

    #[test]
    fn load_balancing_epoch_preserves_numerics() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        // plans from the modeled load: the balance outcome is a pure
        // function of counts and speeds, not of µs-sized wall-clock luck
        cfg.lb_input = LbInput::Modeled;
        // start from a deliberately imbalanced explicit assignment:
        // node 0 owns everything except one SD
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert_eq!(report.migrations, 7, "15/1 → 8/8 in one epoch");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn heterogeneous_cluster_balances_toward_fast_node() {
        // node 0 is 4x faster; with LB (planning from the modeled load,
        // so the direction does not rest on measured µs) it ends up with
        // the power-proportional share of the 16 SDs
        let cluster = ClusterBuilder::new().node(1, 1.0).node(1, 0.25).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 8);
        cfg.lb = Some(LbSchedule::every(2));
        cfg.lb_input = LbInput::Modeled;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 8));
        assert_eq!(report.final_ownership.counts(), vec![13, 3]);
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn degenerate_lambda_rejected_before_the_run() {
        // Even a spec written directly into the struct (bypassing
        // `with_spec`) must fail up front on the caller's thread, not
        // inside the locality-0 driver where a panic at the first LB
        // epoch would deadlock the other localities.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.lb = Some(LbSchedule {
            period: 2,
            spec: LbSpec::Tree {
                weights: MoveWeights {
                    lambda: -1.0,
                    mu: 0.0,
                },
            },
        });
        let _ = run_distributed(&cluster, &cfg);
    }

    #[test]
    fn diffusion_policy_preserves_numerics_and_migrates() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::diffusion(1.0, 8)));
        cfg.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert!(report.migrations > 0, "15/1 start must diffuse");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn greedy_steal_policy_preserves_numerics_and_migrates() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)));
        cfg.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert!(report.migrations > 0, "15/1 start must shed work");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn adaptive_policy_preserves_numerics() {
        // stays on `LbInput::Measured` (the default): the assertion is
        // numerics-only, and the measured-busy path keeps a driver test
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::adaptive(LbSpec::tree(0.0), 0.2)));
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
    }

    #[test]
    fn noop_epochs_emit_no_lb_history() {
        // A single-node cluster plans a no-op every epoch: the history
        // must stay empty instead of recording unchanged counts.
        let cluster = ClusterBuilder::new().uniform(1, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert_eq!(report.migrations, 0);
        assert!(
            report.lb_history.is_empty(),
            "no-op epochs must not emit metrics: {:?}",
            report.lb_history
        );
        assert!(
            report.epoch_traces.is_empty(),
            "no-op epochs must not emit traces: {:?}",
            report.epoch_traces
        );
    }

    #[test]
    fn epoch_traces_record_realized_epochs() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        cfg.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert!(report.migrations > 0);
        // one trace per realized epoch, aligned with lb_history
        assert_eq!(report.epoch_traces.len(), report.lb_history.len());
        let total_moves: usize = report.epoch_traces.iter().map(|t| t.moves).sum();
        assert_eq!(
            total_moves, report.migrations,
            "traces must cover all moves"
        );
        for t in &report.epoch_traces {
            assert_eq!(t.policy, "tree");
            assert!(t.step >= 2 && t.step % 2 == 0, "schedule steps: {}", t.step);
            assert!(
                t.ghost_bytes_before > 0,
                "the real runtime always attaches its SdGraph"
            );
        }
        // the 15/1 start has a tiny cut; balancing toward 8/8 must grow it
        // (more boundary), which the recorded cut reflects
        let first = &report.epoch_traces[0];
        assert!(first.ghost_bytes_after != first.ghost_bytes_before);
    }

    #[test]
    fn no_rendezvous_leaks() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 4);
        let _ = run_distributed(&cluster, &cfg);
        for i in 0..cluster.len() {
            assert_eq!(
                cluster.locality(i).rendezvous().outstanding(),
                0,
                "locality {i} leaked rendezvous entries"
            );
        }
    }

    /// Three ranks, the last at quarter speed, under a two-ring halo: the
    /// fast ranks run ahead, so the slow rank finds later steps' bundles
    /// stashed in its rendezvous table before it expects them.
    fn run_ahead(lb: Option<LbSchedule>) -> DistReport {
        let cluster = ClusterBuilder::new()
            .node(1, 1.0)
            .node(1, 1.0)
            .node(1, 0.25)
            .build();
        let mut cfg = DistConfig::new(24, 6.0, 4, 6);
        cfg.lb = lb;
        // the plan (not the execution) comes from the modeled load, so
        // "the slow rank sheds" does not depend on wall-clock luck
        cfg.lb_input = LbInput::Modeled;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(24, 6.0, 6));
        for i in 0..cluster.len() {
            assert_eq!(
                cluster.locality(i).rendezvous().outstanding(),
                0,
                "locality {i} leaked rendezvous entries"
            );
        }
        report
    }

    #[test]
    fn ranks_running_ahead_keep_the_field_exact() {
        let report = run_ahead(None);
        // 6 steps x the 6 ordered pairs of 3 mutually adjacent ranks is
        // the most bundles there can be; each carries many patches
        assert!(report.ghost_patches > 6 * 6);
    }

    #[test]
    fn schedule_rebuilt_mid_run_keeps_the_field_exact() {
        // The slow rank sheds SDs at the epochs, so sender and receiver
        // schedules are rebuilt on every rank between two steps.
        let report = run_ahead(Some(LbSchedule::every(2)));
        assert!(report.migrations > 0, "the quarter-speed rank must shed");
    }

    /// Three 4-cell SDs in a row, one per rank, halo 2: the middle rank
    /// awaits one bundle from each side. Returns the two bundles' payloads,
    /// the middle rank's schedule, its one gate (a single gated task that
    /// bumps the returned counter), and the two source tiles the payloads
    /// were packed from.
    fn middle_rank_gate() -> (
        [Bytes; 2],
        GhostSchedule,
        Vec<SdGate>,
        Arc<AtomicU32>,
        [Tile; 2],
    ) {
        let sds = SdGrid::new(3, 1, 4);
        let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(&sds, 2, id)).collect();
        let reverse = reverse_index(&plans);
        let owners = [0, 1, 2];
        let sources = [0u32, 2].map(|rank| {
            let mut tile = Tile::new(4, 2);
            for (i, (x, y)) in tile.interior_rect().cells().enumerate() {
                tile.set(x, y, f64::from(rank) * 100.0 + i as f64);
            }
            tile
        });
        let payloads = [0usize, 1].map(|k| {
            let rank = [0u32, 2][k];
            let sender = GhostSchedule::build(&plans, &reverse, &owners, rank);
            assert_eq!(sender.sends[0].peer, 1);
            sender.sends[0].pack(&[&sources[k]])
        });
        let schedule = GhostSchedule::build(&plans, &reverse, &owners, 1);
        assert_eq!(schedule.awaited, vec![2]);
        let ran = Arc::new(AtomicU32::new(0));
        let task_ran = ran.clone();
        let gates = vec![SdGate {
            cell: Arc::new(SdCell {
                curr: RwLock::new(Tile::new(4, 2)),
                next: Mutex::new(Tile::new(4, 2)),
            }),
            awaiting: AtomicU32::new(2),
            gated: Mutex::new(vec![Box::new(move || {
                task_ran.fetch_add(1, Ordering::Relaxed);
            }) as Task]),
        }];
        (payloads, schedule, gates, ran, sources)
    }

    #[test]
    fn the_last_awaited_bundle_releases_the_gated_tasks() {
        let (payloads, schedule, gates, ran, sources) = middle_rank_gate();
        let run_now = |task: Task| task();
        let [left, right] = payloads;
        scatter_bundle(left, &schedule.recvs[0].records, &gates, run_now).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "one bundle still awaited");
        scatter_bundle(right, &schedule.recvs[1].records, &gates, run_now).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        // both halo strips hold exactly what a local copy would have put there
        let plans = build_halo_plan(&SdGrid::new(3, 1, 4), 2, 1);
        let mut want = Tile::new(4, 2);
        for (_, src, patch) in plans.sd_patches() {
            let from = &sources[usize::from(src == 2)];
            want.copy_rect_from(from, &patch.src_rect, &patch.dst_rect);
        }
        assert_eq!(gates[0].cell.curr.read().data(), want.data());
    }

    #[test]
    fn a_bundle_that_disagrees_with_the_schedule_is_rejected() {
        // bytes after the last scheduled record
        let (payloads, schedule, gates, ran, _) = middle_rank_gate();
        let mut long = BytesMut::new();
        long.extend_from_slice(&payloads[0]);
        long.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            scatter_bundle(long.freeze(), &schedule.recvs[0].records, &gates, |_| ()),
            Err(WireError::TrailingBytes(8))
        );
        // the right neighbour's bundle where the left one's is expected:
        // refused at the first header, nothing scattered, nothing released
        let (payloads, schedule, gates, _, _) = middle_rank_gate();
        let [_, right] = payloads;
        let err = scatter_bundle(right, &schedule.recvs[0].records, &gates, |_| ()).unwrap_err();
        assert!(
            matches!(err, WireError::RecordMismatch { expected, found }
                if expected == schedule.recvs[0].records[0].header()
                    && found == schedule.recvs[1].records[0].header()),
            "{err}"
        );
        assert!(gates[0].cell.curr.read().data().iter().all(|&v| v == 0.0));
        assert_eq!(gates[0].awaiting.load(Ordering::Relaxed), 2);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    /// The kernel of a 16-cell mesh at ε = 2h, the `curr` tile of one of
    /// its 8-cell SDs with every storage cell different, and a region list
    /// shaped like a case split: a wide rect, a strip, an empty rect.
    fn lone_sd() -> (Arc<StepKernel>, Tile, [Rect; 3]) {
        let parts = ProblemSpec::square(16, 2.0).build();
        let mut curr = Tile::new(8, parts.grid.halo);
        for (i, v) in curr.data_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let kern = Arc::new(StepKernel {
            plan: parts.kernel.plan(curr.stride()),
            kernel: parts.kernel,
            source: parts.manufactured.source_fn(),
            dt: parts.dt,
        });
        let rects = [Rect::new(2, 0, 6, 8), Rect::new(0, 0, 2, 8), Rect::empty()];
        (kern, curr, rects)
    }

    /// Build the tasks for `rects` over a fresh cell holding `curr`, run
    /// them here, and return their number and the `next` tile they wrote.
    fn run_tasks(
        kern: &Arc<StepKernel>,
        curr: &Tile,
        rects: &[Rect],
        repeats: u32,
        band: Option<i64>,
    ) -> (usize, Tile) {
        let unit = NodeSd {
            origin: (8, 8),
            cell: Arc::new(SdCell {
                curr: RwLock::new(curr.clone()),
                next: Mutex::new(Tile::new(curr.sd(), curr.halo())),
            }),
        };
        let next = NextPtr::capture(&unit.cell);
        let tasks = compute_tasks(kern, 0.25, &unit, next, repeats, rects, band);
        let n = tasks.len();
        tasks.into_iter().for_each(|task| task());
        let written = unit.cell.next.lock().clone();
        (n, written)
    }

    #[test]
    fn stealing_off_is_one_task_per_region_list() {
        let (kern, curr, rects) = lone_sd();
        assert_eq!(run_tasks(&kern, &curr, &rects, 1, None).0, 1);
        assert_eq!(run_tasks(&kern, &curr, &rects[..1], 1, None).0, 1);
        // nothing to compute, nothing to schedule
        let (n, written) = run_tasks(&kern, &curr, &[Rect::empty(), Rect::empty()], 1, None);
        assert_eq!(n, 0);
        assert!(written.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stealing_on_is_one_task_per_row_band() {
        let (kern, curr, rects) = lone_sd();
        for band in [1, 3, 8] {
            let bands: usize = rects.iter().map(|r| row_bands(r, band).len()).sum();
            assert_eq!(run_tasks(&kern, &curr, &rects, 1, Some(band)).0, bands);
        }
        // 8 rows in bands of 3 are 3 + 3 + 2, for both non-empty rects
        assert_eq!(run_tasks(&kern, &curr, &rects, 1, Some(3)).0, 6);
        assert_eq!(run_tasks(&kern, &curr, &[Rect::empty()], 1, Some(3)).0, 0);
    }

    #[test]
    fn grouping_does_not_change_a_bit() {
        let (kern, curr, rects) = lone_sd();
        for repeats in [1, 3] {
            let mut want = Tile::new(curr.sd(), curr.halo());
            for rect in &rects {
                kern.kernel.apply_region_blocked(
                    &curr,
                    &mut want,
                    rect,
                    &kern.plan,
                    (8, 8),
                    0.25,
                    kern.dt,
                    &kern.source,
                    repeats,
                );
            }
            assert_ne!(want.get(0, 0), 0.0);
            let (_, whole) = run_tasks(&kern, &curr, &rects, repeats, None);
            let (_, banded) = run_tasks(&kern, &curr, &rects, repeats, Some(3));
            assert_eq!(whole.data(), want.data(), "repeats {repeats}");
            assert_eq!(banded.data(), want.data(), "repeats {repeats}");
        }
    }

    #[test]
    #[should_panic(expected = "differ in geometry: stride or halo")]
    fn next_of_another_geometry_is_refused_at_capture() {
        // equal strides, so every offset is in bounds — but of the wrong
        // cells: refused before any task exists, let alone writes
        let cell = SdCell {
            curr: RwLock::new(Tile::new(10, 2)),
            next: Mutex::new(Tile::new(8, 3)),
        };
        let _ = NextPtr::capture(&cell);
    }

    #[test]
    #[should_panic(expected = "build the cluster with")]
    fn instant_config_on_a_priced_cluster_is_rejected() {
        // the direction the one-sided guard let through: the fabric would
        // delay parcels by rack while the LB epoch plans over a free network
        let cluster = ClusterBuilder::new()
            .net(NetSpec::shared(1e-6, 10e9))
            .uniform(2, 1)
            .build();
        let cfg = DistConfig::new(16, 2.0, 4, 2);
        assert_eq!(cfg.net, NetSpec::Instant);
        let _ = run_distributed(&cluster, &cfg);
    }

    #[test]
    fn single_node_cluster_works() {
        let cluster = ClusterBuilder::new().uniform(1, 2).build();
        let cfg = DistConfig::new(16, 2.0, 4, 4);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn work_schedule_runs_on_the_real_runtime_bit_exact() {
        // The propagating crack on real hardware: the schedule switches
        // the work model mid-run (kernel repetition emulates the factor),
        // so the numerics must stay bit-exact while only timing shifts.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.work_schedule = vec![
            (
                0,
                WorkModel::Crack {
                    y_cell: 4,
                    half_width: 2,
                    factor: 2.0,
                },
            ),
            (
                3,
                WorkModel::Crack {
                    y_cell: 12,
                    half_width: 2,
                    factor: 2.0,
                },
            ),
        ];
        cfg.lb = Some(LbSchedule::every(2));
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert_eq!(cfg.work_at(0), &cfg.work_schedule[0].1);
        assert_eq!(cfg.work_at(4), &cfg.work_schedule[1].1);
    }

    #[test]
    #[should_panic(expected = "PerSd work model has 3 factors")]
    fn per_sd_length_mismatch_fails_before_the_run() {
        // Satellite contract: the bad factor vector must fail on the
        // caller's thread at configuration time, not by out-of-bounds
        // indexing inside a driver mid-run.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.work = WorkModel::PerSd(vec![1.0, 1.0, 1.0]); // grid has 16 SDs
        let _ = run_distributed(&cluster, &cfg);
    }

    #[test]
    fn ghost_byte_counters_match_the_planner_grade_formula() {
        // LB-free run on 2 nodes: the only parcels are the ghost bundles,
        // one per step and direction, and their payload is exactly the
        // planner-grade volume — the ownership cut of the SD graph, which
        // is also what the simulator charges for this scenario.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 3);
        cfg.partition = PartitionSpec::Strip;
        let report = run_distributed(&cluster, &cfg);
        let sds = SdGrid::tile_mesh(16, 16, 4);
        let graph = SdGraph::build(&sds, cfg.spec.build().grid.halo);
        let cut = graph.cut_bytes(report.final_ownership.owners());
        assert!(cut > 0);
        assert_eq!(report.ghost_bytes, 3 * cut);
        assert_eq!(report.migration_bytes, 0);
        // rack-less model: no inter-rack share
        assert_eq!(report.inter_rack_ghost_bytes, 0);
        // 4 boundary SD pairs with 3 patches each way (side + 2 corners,
        // minus the 2 x 2 corners that fall off the strip's ends)
        assert_eq!(report.ghost_patches, 3 * 2 * (4 * 3 - 2));
        let stats = cluster.net_stats();
        assert_eq!(stats.messages(), 3 * 2, "one bundle per step and rank pair");
        // the wire adds only the 24-byte parcel header per bundle
        assert_eq!(
            report.ghost_bytes + 24 * stats.messages(),
            stats.cross_bytes()
        );
    }

    #[test]
    fn failed_rank_is_evacuated_and_numerics_hold() {
        // Fail-stop at step 3: the repartition policy must evacuate the
        // rank at the next epoch, the solver's numerics must stay
        // bit-exact throughout (the rank keeps computing until its SDs
        // are gone — membership is a planner-level fact), and nothing
        // may move back afterwards.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 8);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        )));
        cfg.cluster_events = vec![(3, crate::scenario::ClusterEvent::Fail { rank: 1 })];
        cfg.lb_input = LbInput::Modeled;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 8));
        assert!(report.migrations > 0, "the failed rank must be evacuated");
        let counts = report.final_ownership.counts();
        assert_eq!(counts[1], 0, "failed rank must end empty: {counts:?}");
        assert_eq!(counts[0], 16);
        // the evacuation epoch is recorded as a replan
        assert!(
            report.epoch_traces.iter().any(|t| t.replan),
            "the evacuation must be flagged as a replan: {:?}",
            report.epoch_traces
        );
    }

    #[test]
    fn modeled_lb_input_is_deterministic_and_preserves_numerics() {
        // Parity mode: plans derive from the declared work model, so two
        // runs produce identical plan sequences (wall clock never enters)
        // and the numerics stay bit-exact.
        let run = || {
            let cluster = ClusterBuilder::new().uniform(2, 1).build();
            let mut cfg = DistConfig::new(16, 2.0, 4, 6);
            cfg.lb = Some(LbSchedule::every(2));
            cfg.lb_input = LbInput::Modeled;
            let mut owners = vec![0u32; 16];
            owners[15] = 1;
            cfg.partition = PartitionSpec::Explicit(owners);
            run_distributed(&cluster, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.field, serial_field(16, 2.0, 6));
        assert!(a.migrations > 0, "lopsided start must migrate");
        assert_eq!(a.lb_plans, b.lb_plans, "modeled plans are deterministic");
        assert_eq!(a.lb_history, b.lb_history);
        assert_eq!(a.ghost_bytes, b.ghost_bytes);
    }
}
