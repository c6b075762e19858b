//! Fully distributed asynchronous solver with online load balancing.
//!
//! Implements §6 of the paper end to end: SDs distributed over localities
//! by the mesh partitioner (§6.2), ghost zones exchanged as one bundle
//! parcel per step and ordered rank pair (see [`crate::ghost`]), the
//! case-2 (foreign-independent) computation launched immediately while
//! each SD's case-1 computation is released by a countdown of the bundles
//! that fill its halo (§6.3, Fig. 5) — so communication hides behind
//! computation — and, after the first step and then every
//! [`LbSchedule::period`] steps ([`LbSchedule::due`]), a full
//! load-balancing epoch: busy-time gather, plan on locality 0 via the
//! configured [`LbSpec`] policy (Algorithm 1 by default), broadcast — the
//! round [`nlheat_amt::collectives`] provides — SD migration, and a new
//! busy-time window (§7).
//!
//! This is the only step loop of the real runtime: on one locality no
//! ghost is foreign, every SD is all case 2, and the loop is the paper's
//! shared-memory solver (§8.2) — a [`Scenario`] on
//! [`ClusterSpec::uniform`]`(1, n)`.
//!
//! The step is **built once per ownership epoch and replayed**: what
//! changes only when ownership does — the tile table that owns the SD
//! buffers, the local halo fill as a flat copy list, each SD's at-spawn
//! and gated regions, the halo gates, the kernel repeats of the work model
//! in force — lives in one `StepPlan` over a [`crate::ghost::StepLayout`],
//! rebuilt at the start of the run and after a non-empty migration plan.
//! A step then copies, packs, deals regions into tasks that each carry at
//! least [`crate::ghost::TASK_WORK_FLOOR`] of work (a task owns a list of
//! regions of any tiles; with `intra_step_stealing` one row band), waits
//! for them, re-arms the gates and swaps — per step the driver's own work
//! is O(tasks + bundles), not O(SDs). Everything a driver counts — where
//! its step loop went, phase by phase ([`STEP_PHASES`]), its ghost
//! traffic and its in-migrations — is a counter of the cluster's registry
//! ([`dist_counter_name`]), and the report reads them from there.
//!
//! **A step is a scope** ([`PoolHandle::scope`]): its region tasks and
//! bundle continuations borrow the plan and the kernel, write each SD's
//! `next` tile through a [`TileWriter`] that hands each region out once,
//! and have all finished when the scope returns. So fill and send before
//! it and gates, swap and the error sum after it hold the plan by `&mut`:
//! no lock and no atomic, checked by the borrow checker. Inside, `curr`
//! keeps its lock, because there it is shared: on a multi-worker rank a
//! bundle continuation writes an SD's foreign halo (`scatter_bundle`)
//! while an at-spawn task of that SD reads it.
//!
//! There is deliberately **no global barrier between timesteps**: tags
//! carry the step index, so a fast node may run ahead and its bundles are
//! stashed by the receiver's rendezvous table until expected — the
//! asynchronous pipelining an AMT runtime buys.
//!
//! [`LbSchedule::period`]: crate::balance::LbSchedule::period
//! [`LbSchedule::due`]: crate::balance::LbSchedule::due
//! [`ClusterSpec::uniform`]: crate::scenario::ClusterSpec::uniform
//! [`PoolHandle::scope`]: nlheat_amt::pool::PoolHandle::scope

pub use crate::balance::LbSpec;
use crate::balance::{EpochLog, EpochMeasure, LbEpoch, SdGraph};
use crate::ghost::{group_by_work, halo_plans, PatchRecord, Region, RegionCut, StepLayout};
use crate::ownership::Ownership;
use crate::scenario::{counter_in, failed_at, DistExtras, RunExtras, RunReport, Scenario};
use crate::workload::WorkModel;
use bytes::{Buf, Bytes, BytesMut};
use nlheat_amt::cluster::Cluster;
use nlheat_amt::codec::{decode_f64_rows, decode_ghost_record, encode_f64_rows, WireError};
use nlheat_amt::collectives;
use nlheat_amt::counters::{threads_counter_name, Counter};
use nlheat_amt::future::Future;
use nlheat_amt::locality::Locality;
use nlheat_amt::parcel::{tag, TAG_A_MAX, TAG_B_MAX};
use nlheat_amt::pool::Scope;
use nlheat_mesh::{DisjointRects, HaloPlan, Rect, SdGrid, SdId, Tile, TileWriter};
use nlheat_model::{ErrorAccumulator, KernelPlan, NonlocalKernel, ProblemParts, SourceFn};
use nlheat_netmodel::LinkClass;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Parcel tag classes of the solver protocol (the LB round's gather and
/// broadcast travel under the collectives' own class).
const CLASS_GHOST: u8 = 1;
const CLASS_MIGRATE: u8 = 4;

/// Ownership-independent, cluster-wide setup shared by all drivers.
struct Setup<'a> {
    sc: &'a Scenario,
    parts: ProblemParts,
    sds: SdGrid,
    /// Halo plan per SD (geometry only — never changes).
    plans: Vec<HaloPlan>,
    /// Reverse index: for each source SD, the `(destination SD, patch
    /// index)` pairs that read from it.
    reverse: Vec<Vec<(SdId, u16)>>,
    /// The SD adjacency / halo-volume graph derived from `plans` — the
    /// planner's view of the recurring ghost traffic the real parcels
    /// produce. Only planning reads it, so it exists only beside an LB
    /// schedule.
    sd_graph: Option<Arc<SdGraph>>,
    initial_owners: Vec<u32>,
    n_nodes: u32,
}

impl<'a> Setup<'a> {
    /// The setup of a scenario [`Scenario::validate`] has accepted.
    fn build(sc: &'a Scenario) -> Self {
        let parts = sc.problem.build();
        let sds = sc.sd_grid();
        let (plans, reverse) = halo_plans(&sds, parts.grid.halo);
        let n_nodes = sc.cluster.len() as u32;
        let initial_owners = sc.partition.initial_owners(&sds, n_nodes);
        let sd_graph = sc
            .lb
            .is_some()
            .then(|| Arc::new(SdGraph::from_plans(&sds, &plans)));
        Setup {
            sc,
            parts,
            sds,
            plans,
            reverse,
            sd_graph,
            initial_owners,
            n_nodes,
        }
    }
}

/// One owned SD in the epoch's tile table: its double buffer.
struct TileSlot {
    origin: (i64, i64),
    /// Locked only inside a step's scope, where a bundle continuation may
    /// write its halo while a task of the SD reads it.
    curr: RwLock<Tile>,
    /// Written by the step's tasks through a [`TileWriter`].
    next: Tile,
}

impl TileSlot {
    fn new(origin: (i64, i64), curr: Tile, next: Tile) -> Self {
        TileSlot {
            origin,
            curr: RwLock::new(curr),
            next,
        }
    }
}

/// What every compute task of a run shares: the kernel, its plan for the
/// tile stride, the source and the timestep.
struct StepKernel {
    kernel: NonlocalKernel,
    plan: KernelPlan,
    source: SourceFn,
    dt: f64,
    /// Cell updates the tasks have executed, kernel repeats included
    /// (Σ region cells × repeats): the work the pool was actually given.
    cell_updates: Counter,
}

/// The step of one ownership epoch, built when ownership changes and
/// replayed every step until it changes again: the layout ownership
/// implies, and per owned SD (in the schedule's `owned` order) the tile
/// slot that *owns* its buffers for the epoch, the regions its tasks
/// write, a halo gate, and the kernel repeats of the work model in force.
struct StepPlan {
    layout: StepLayout,
    tiles: Vec<TileSlot>,
    /// The at-spawn and gated regions, checked pairwise disjoint: what a
    /// step's [`TileWriter`] hands out, each once.
    writes: Vec<DisjointRects>,
    /// The incoming bundles that have not yet delivered into the SD's halo
    /// this step, counted down by the bundle continuations — the one that
    /// reaches zero releases the SD's gated regions.
    gates: Vec<AtomicU32>,
    /// The kernel repetitions emulating the work factor ([`Self::set_work`]).
    repeats: Vec<u32>,
}

impl StepPlan {
    /// The plan of `layout` over `tiles` (`tiles[i]` is the slot of
    /// `layout.schedule.owned[i]`), gates armed, under uniform work.
    ///
    /// # Panics
    /// If an SD's regions overlap, leave its tile, or are not numbered in
    /// the order of its write list.
    fn new(layout: StepLayout, mut tiles: Vec<TileSlot>) -> Self {
        assert_eq!(tiles.len(), layout.schedule.owned.len());
        let writes = (0..tiles.len() as u32).zip(&mut tiles).map(|(tile, slot)| {
            let regions = layout.at_spawn.of(tile).iter().chain(layout.gated.of(tile));
            let numbered = regions.clone().zip(0..).all(|(r, i)| r.write == i);
            assert!(numbered, "tile {tile}'s regions are misnumbered");
            DisjointRects::new(slot.curr.get_mut(), regions.map(|r| r.rect))
        });
        let gates = layout.schedule.awaited.iter().map(|&n| AtomicU32::new(n));
        StepPlan {
            writes: writes.collect(),
            gates: gates.collect(),
            repeats: vec![1; tiles.len()],
            layout,
            tiles,
        }
    }

    /// Refresh the repeats table for `work` on a locality of `speed`. The
    /// work factor is emulated by kernel repetition, so the numerics stay
    /// bit-exact while the busy time shifts — which also means a stale
    /// table is invisible in the field: the driver calls this whenever the
    /// plan is new or the model in force changes.
    fn set_work(&mut self, work: &WorkModel, sds: &SdGrid, speed: f64) {
        let owned = &self.layout.schedule.owned;
        self.repeats.clear();
        self.repeats
            .extend(owned.iter().map(|&sd| work.repeats(sds, sd, speed)));
    }

    /// Re-arm the gates between two steps' scopes.
    fn reset_gates(&mut self) {
        for (gate, &n) in self.gates.iter_mut().zip(&self.layout.schedule.awaited) {
            *gate.get_mut() = n;
        }
    }

    /// Lend the plan to the tasks of the step at time `t`, run by `kern`.
    fn lend<'s>(&'s mut self, kern: &'s StepKernel, t: f64) -> Step<'s> {
        let slots = self.tiles.iter_mut().zip(&mut self.writes);
        let tiles = slots
            .zip(&self.repeats)
            .map(|((slot, writes), &repeats)| StepTile {
                origin: slot.origin,
                curr: &slot.curr,
                next: TileWriter::new(&mut slot.next, writes),
                repeats,
            });
        Step {
            kern,
            layout: &self.layout,
            gates: &self.gates,
            tiles: tiles.collect(),
            t,
        }
    }
}

/// An owned SD as the tasks of one step see it.
struct StepTile<'s> {
    origin: (i64, i64),
    curr: &'s RwLock<Tile>,
    next: TileWriter<'s>,
    repeats: u32,
}

/// The plan as one step's tasks borrow it ([`StepPlan::lend`]).
struct Step<'s> {
    kern: &'s StepKernel,
    layout: &'s StepLayout,
    gates: &'s [AtomicU32],
    /// Parallel to the schedule's `owned`.
    tiles: Vec<StepTile<'s>>,
    t: f64,
}

impl<'s> Step<'s> {
    /// The one compute-task body: update `regions` — of any tiles — each
    /// claimed from its tile's writer. Every cell is computed once, from
    /// the same `curr` with the same arithmetic, so the field does not
    /// depend on how regions were grouped into tasks.
    fn run(&self, regions: &[Region]) {
        let k = self.kern;
        let mut cell_updates = 0;
        for run in regions.chunk_by(|a, b| a.tile == b.tile) {
            let tile = &self.tiles[run[0].tile as usize];
            let (curr, origin, repeats) = (tile.curr.read(), tile.origin, tile.repeats);
            for region in run {
                let out = tile.next.claim(region.write as usize);
                k.kernel.apply_into(
                    &curr, out, &k.plan, origin, self.t, k.dt, &k.source, repeats,
                );
                cell_updates += region.rect.area() as u64 * u64::from(repeats);
            }
        }
        k.cell_updates.add(cell_updates);
    }

    /// Deal `lists` — region lists of this step's tiles — into tasks worth
    /// scheduling ([`group_by_work`]) and spawn them into `scope`.
    fn spawn_grouped<'a>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        lists: impl IntoIterator<Item = &'a [Region]>,
    ) {
        let stencil_points = self.kern.kernel.stencil.len() as u64;
        let with_work = lists.into_iter().filter_map(|list| {
            let tile = list.first()?.tile as usize;
            Some((list, u64::from(self.tiles[tile].repeats) * stencil_points))
        });
        group_by_work(with_work, &self.layout.cut, |regions| {
            let regions = regions.to_vec();
            scope.spawn(move || self.run(&regions));
        });
    }

    /// Scatter one incoming bundle into the destination halos: check every
    /// record against the schedule's `records`, decode it straight into its
    /// tile, count the tile's gate down once, and report each tile whose
    /// last awaited bundle this was to `release`. A bundle that disagrees
    /// with the schedule — a record for another patch, a short run, bytes
    /// after the last record — is an error, and no record at or after the
    /// disagreement is written.
    fn scatter_bundle(
        &self,
        mut payload: Bytes,
        records: &[PatchRecord],
        mut release: impl FnMut(u32),
    ) -> Result<(), WireError> {
        for run in records.chunk_by(|a, b| a.tile == b.tile) {
            let tile = run[0].tile;
            {
                let mut curr = self.tiles[tile as usize].curr.write();
                for rec in run {
                    let rows = curr.rect_rows_mut(&rec.rect);
                    decode_ghost_record(&mut payload, rec.header(), rows)?;
                }
            }
            // AcqRel: every bundle's decrement releases its halo writes,
            // and the decrement that reaches zero acquires them all before
            // the gated regions are handed out.
            if self.gates[tile as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                release(tile);
            }
        }
        if payload.has_remaining() {
            return Err(WireError::TrailingBytes(payload.remaining()));
        }
        Ok(())
    }
}

/// The sections of a driver step, in order. Each rank accumulates the
/// wall time it spends in each into the raw counter
/// [`dist_counter_name`]`(rank, "phase/{phase}")` of the cluster's
/// registry; the sections are contiguous, so the six sum to the rank's
/// step loop, `time/loop`.
pub const STEP_PHASES: [&str; 6] = ["fill", "send", "spawn", "wait", "swap", "lb"];

/// Registry name of counter `name` of locality `locality`'s driver. Each
/// driver registers (and so restarts at zero) these raw counters:
/// - `phase/{phase}`, `time/loop`: ns in each of [`STEP_PHASES`] and in
///   the whole step loop;
/// - `count/cell-updates`: cell updates its compute tasks executed, kernel
///   repeats included;
/// - `count/ghost-bytes`, `count/inter-rack-ghost-bytes`,
///   `count/ghost-patches`: the planner-grade bytes of the ghost bundles
///   it sent to live ranks, their inter-rack share, and their records;
/// - `count/migrations-in`: SDs it received from LB migrations.
pub fn dist_counter_name(locality: u32, name: &str) -> String {
    format!("/dist{{locality#{locality}}}/{name}")
}

/// Registry name of the [`nlheat_model::VectorLevel`] the drivers' kernel
/// plan chose, as [`VectorLevel::index`](nlheat_model::VectorLevel::index)
/// (0 = baseline, 1 = AVX2). One name for the cluster: its localities
/// share a process, hence a CPU, and every driver publishes the same value.
pub const KERNEL_VECTOR_LEVEL_COUNTER: &str = "/model/kernel/vector_level";

/// Index into [`STEP_PHASES`].
#[derive(Clone, Copy)]
enum Phase {
    Fill,
    Send,
    Spawn,
    Wait,
    Swap,
    Lb,
}

/// Lap clock over [`STEP_PHASES`]: `end(phase)` charges the time since the
/// previous `end` (or `start`) to `phase`.
struct PhaseClock {
    counters: [Counter; 6],
    lap: Instant,
}

impl PhaseClock {
    fn start(loc: &Locality) -> Self {
        let register = |phase| {
            let name = dist_counter_name(loc.id(), &format!("phase/{phase}"));
            loc.registry().register(name, Counter::raw())
        };
        PhaseClock {
            counters: STEP_PHASES.map(register),
            lap: Instant::now(),
        }
    }

    fn end(&mut self, phase: Phase) {
        let now = Instant::now();
        self.counters[phase as usize].add((now - self.lap).as_nanos() as u64);
        self.lap = now;
    }
}

/// Per-node report returned by each driver: its data. What it counted is
/// in the registry.
struct NodeReport {
    sd_fields: Vec<(SdId, Vec<f64>)>,
    error_partials: Vec<f64>,
    /// The run's epoch record — locality 0 plans, so only it has one.
    lb_log: Option<EpochLog>,
}

/// Run `sc` on `cluster`, which must be the cluster `sc` declares
/// ([`Scenario::build_cluster`]), and report it: the registry's counters
/// at the end of the run ([`RunReport::counters`]) and the scenario's
/// memory tables ([`RunReport::with_scenario_memory`]) included.
///
/// # Panics
/// On the caller's thread, before any driver starts: if the scenario is
/// invalid ([`Scenario::validate`]) or overflows a parcel-tag field, or if
/// `cluster` differs from the scenario's declaration in network model,
/// node count, cores or speeds.
pub fn run_distributed(cluster: &Cluster, sc: &Scenario) -> RunReport {
    // A panic on a driver thread mid-run leaves the other localities
    // blocked on a rendezvous forever, so everything checkable is checked
    // here.
    sc.validate();
    // Ghost bundles carry the step and LB parcels the epoch (below the
    // step) in the tag's `a` field; a migration carries its SD id in `b`.
    // `tag` asserts both budgets, but only once a driver gets there.
    assert!(
        sc.steps as u64 <= TAG_A_MAX + 1,
        "{} steps exceed the real runtime's limit of {} (TAG_A_MAX + 1), \
         the parcel tag's step field",
        sc.steps,
        TAG_A_MAX + 1
    );
    if sc.lb.is_some() {
        let n_sds = sc.sd_grid().count() as u64;
        assert!(
            n_sds <= TAG_B_MAX + 1,
            "load balancing over {n_sds} SDs exceeds the real runtime's limit of {} \
             (TAG_B_MAX + 1), the migration tag's SD field",
            TAG_B_MAX + 1
        );
    }
    // Guard the scenario/cluster seam: the fabric delays parcels by the
    // cluster's model and the pools run the cluster's workers at its
    // speeds, while the LB epoch prices moves, models busy times and
    // classifies links by the scenario's — a mismatch would silently
    // measure a different machine than it plans for (and than the paired
    // simulation).
    assert!(
        cluster.net_spec() == &sc.net,
        "the scenario's net is {:?} but the cluster was built with {:?}; \
         build the cluster with Scenario::build_cluster() so both agree",
        sc.net,
        cluster.net_spec()
    );
    let declared: Vec<_> = sc
        .cluster
        .nodes
        .iter()
        .map(|n| (n.cores, n.speed))
        .collect();
    let built: Vec<_> = cluster
        .localities()
        .iter()
        .map(|l| (l.n_workers(), l.speed()))
        .collect();
    assert!(
        declared == built,
        "the scenario declares nodes of (cores, speed) {declared:?} but the \
         cluster has {built:?}; build the cluster with \
         Scenario::build_cluster() so both agree"
    );
    let setup = Setup::build(sc);
    let n_nodes = setup.n_nodes;
    let t0 = Instant::now();
    let mut reports = cluster.run(|loc| driver(loc, &setup));
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
    let error = sc.record_error.then(|| {
        let mut acc = ErrorAccumulator::new();
        for k in 0..sc.steps {
            acc.push(reports.iter().map(|r| r.error_partials[k]).sum());
        }
        acc
    });
    let lb_log = reports[0].lb_log.take().unwrap_or_default();
    // a worker adds a task's busy time after the task has finished — and
    // so after the step's scope has seen it finish: drain the pools so the
    // counters are final
    cluster.localities().iter().for_each(|loc| loc.wait_idle());
    let counters = cluster.registry().snapshot("");
    let ranks = || 0..n_nodes;
    let read = |name: String| counter_in(&counters, &name).expect("a driver's counter");
    let sum = |name| {
        ranks()
            .map(|r| read(dist_counter_name(r, name)))
            .sum::<u64>()
    };
    RunReport {
        substrate: "dist",
        makespan: elapsed.as_secs_f64(),
        busy: ranks()
            .map(|r| read(threads_counter_name(r, "time/busy")) as f64 * 1e-9)
            .collect(),
        migrations: sum("count/migrations-in") as usize,
        migration_bytes: lb_log.migration_bytes,
        inter_rack_migration_bytes: lb_log.inter_rack_migration_bytes,
        ghost_bytes: sum("count/ghost-bytes"),
        inter_rack_ghost_bytes: sum("count/inter-rack-ghost-bytes"),
        lb_plans: lb_log.plans,
        epoch_traces: lb_log.traces,
        final_ownership: Ownership::new(setup.sds, final_owners, n_nodes),
        field: Some(field),
        error,
        memory_bytes: None,
        sd_footprint: None,
        extras: RunExtras::Dist(DistExtras::from_counters(elapsed, &counters, n_nodes)),
        counters,
    }
    .with_scenario_memory(sc)
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
fn driver(loc: Arc<Locality>, setup: &Setup) -> NodeReport {
    let me = loc.id();
    let sc = setup.sc;
    let sds = setup.sds;
    let halo = setup.parts.grid.halo;
    let dt = setup.parts.dt;
    let registry = loc.registry();
    let count = |name| registry.register(dist_counter_name(me, name), Counter::raw());
    let kern = StepKernel {
        kernel: setup.parts.kernel.clone(),
        plan: setup.parts.kernel.plan(sds.sd + 2 * halo),
        source: setup.parts.manufactured.source_fn(),
        dt,
        cell_updates: count("count/cell-updates"),
    };
    // `register` replaces, so the counter reads the level, not a sum over
    // drivers
    registry
        .register(KERNEL_VECTOR_LEVEL_COUNTER, Counter::raw())
        .add(kern.plan.level().index());
    let manufactured = setup.parts.manufactured.clone();
    let cut = RegionCut::new(sc, halo, loc.n_workers());
    // The step plan of `owners`, its tiles drawn from `slot_of`. Rebuilt
    // only when a migration epoch rewrites ownership.
    let plan_for = |owners: &[u32], slot_of: &mut dyn FnMut(SdId) -> TileSlot| {
        let layout = StepLayout::build(&setup.plans, &setup.reverse, owners, me, &cut);
        let tiles = layout
            .schedule
            .owned
            .iter()
            .map(|&sd| slot_of(sd))
            .collect();
        StepPlan::new(layout, tiles)
    };

    let mut owners = setup.initial_owners.clone();
    let mut plan = plan_for(&owners, &mut |sd| {
        let origin = sds.origin(sd);
        let mut curr = Tile::new(sds.sd, halo);
        for lj in 0..sds.sd {
            for li in 0..sds.sd {
                curr.set(li, lj, manufactured.initial(origin.0 + li, origin.1 + lj));
            }
        }
        TileSlot::new(origin, curr, Tile::new(sds.sd, halo))
    });
    // The work model `plan.repeats` was computed from; `None` while the
    // plan is new.
    let mut work_set: Option<&WorkModel> = None;

    // Tiles reclaimed from migrated-away SDs, reused (zeroed) for incoming
    // migrations so steady-state balancing stops allocating tile pairs.
    let mut tile_pool: Vec<Tile> = Vec::new();
    let mut error_partials = Vec::with_capacity(sc.steps);
    let in_migrations = count("count/migrations-in");
    // Planner-grade ghost-traffic counters (what this locality sends):
    // per bundle the wire bytes the simulator charges and the SdGraph
    // weighs, so both substrates' counters agree under identical
    // ownership sequences.
    let ghost_bytes = count("count/ghost-bytes");
    let inter_rack_ghost_bytes = count("count/inter-rack-ghost-bytes");
    let ghost_patches = count("count/ghost-patches");
    // Failure mask, re-evaluated at event steps: bundles to or from a
    // fail-stopped rank still flow (the solver's numerics are sacred) but
    // stop counting toward the planner-grade ghost counters — a failed
    // rank's in-flight contributions are lost to the application.
    let mut failed = vec![false; setup.n_nodes as usize];
    // Ghost-stall accounting: each step's worst ghost-arrival delay
    // (wall time from task spawn to the last bundle continuation firing),
    // accumulated per balancing window — the adaptive-μ feedback signal.
    let mut window_ghost_ns = 0u64;
    let pool = loc.pool().handle();

    // Locality 0 plans every epoch through one driver, kept alive across
    // epochs so stateful policies (the adaptive-λ decorator) can learn
    // from the measured migration stalls. Its planning view carries the SD
    // graph of the *real* halo plans, so μ-weighted policies price exactly
    // the record bytes this driver's ghost bundles carry every step.
    let mut lb_epoch = sc.lb.as_ref().filter(|_| me == 0).map(|lb| {
        let sd_graph = setup.sd_graph.clone();
        LbEpoch::new(sc.epoch_config(lb, sd_graph.expect("built beside the LB schedule")))
    });
    // Link classes for the ghost counters: the very CommCost the planner
    // prices moves with.
    let comm_cost = sc.net.comm_cost();
    // Wall time this locality spent in the previous epoch's migration
    // exchange (gathered with the busy times as the adaptive-λ stall
    // signal) and, on locality 0, the length of the previous window.
    let mut prev_stall_ns = 0u64;
    let mut prev_window_secs: Option<f64> = None;
    let mut window_t0 = Instant::now();
    // The busy-time counter's reading where the current balancing window
    // began: the window's busy time is the difference.
    let mut window_busy_ns = loc.busy_time_ns();

    let loop_ns = count("time/loop");
    let loop_t0 = Instant::now();
    let mut clock = PhaseClock::start(&loc);
    for step in 0..sc.steps {
        // no task of the step exists yet: fill and send take no lock
        let StepPlan { layout, tiles, .. } = &mut plan;

        // --- 1. local halo fill (same-node neighbours: plain copies) ---
        for fill in &layout.fills {
            let [dst, src] = tiles
                .get_disjoint_mut([fill.dst_tile as usize, fill.src_tile as usize])
                .expect("a halo patch is filled from another SD's tile");
            let (dst, src) = (dst.curr.get_mut(), src.curr.get_mut());
            dst.copy_rect_from(src, &fill.src_rect, &fill.dst_rect);
        }
        clock.end(Phase::Fill);

        // --- 2. sends: one ghost bundle per neighbour rank ---
        if sc.cluster_events.iter().any(|&(from, _)| from == step) {
            failed = failed_at(failed.len(), &sc.cluster_events, step);
        }
        for bundle in &layout.schedule.sends {
            if !failed[me as usize] && !failed[bundle.peer as usize] {
                ghost_patches.add(bundle.records.len() as u64);
                ghost_bytes.add(bundle.wire_bytes as u64);
                if comm_cost.link_class(me, bundle.peer) == LinkClass::InterRack {
                    inter_rack_ghost_bytes.add(bundle.wire_bytes as u64);
                }
            }
            loc.send(
                bundle.peer,
                tag(CLASS_GHOST, step as u64, me as u64, 0),
                bundle.pack(tiles, |slot| slot.curr.get_mut()),
            );
        }
        clock.end(Phase::Send);

        // --- 3. the step's scope: compute tasks (case 2 immediately, case
        // 1 gated), waited for when the scope ends ---
        //
        // The work factor in effect *now* (the schedule may have switched
        // models since the table was made).
        let work_now = sc.work_at(step);
        if !work_set.is_some_and(|set| std::ptr::eq(set, work_now)) {
            plan.set_work(work_now, &sds, loc.speed());
            work_set = Some(work_now);
        }
        let ghost_t0 = Instant::now();
        let ghost_wait = AtomicU64::new(0);
        let lent = plan.lend(&kern, step as f64 * dt);
        pool.scope(|s| {
            let (lent, ghost_wait) = (&lent, &ghost_wait);
            lent.spawn_grouped(s, lent.layout.at_spawn.lists());
            // One continuation per incoming bundle: check every record
            // against the schedule, decode it straight into the destination
            // halo, and spawn the gated regions of each SD whose last
            // awaited bundle this was, grouped like the ones above.
            for bundle in &lent.layout.schedule.recvs {
                let peer = bundle.peer;
                let arrival = loc.expect(tag(CLASS_GHOST, step as u64, peer as u64, 0));
                s.spawn_on(arrival, move |payload| {
                    // the worst ghost-arrival delay of the step — the μ
                    // feedback signal
                    ghost_wait.fetch_max(ghost_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let mut released = Vec::new();
                    lent.scatter_bundle(payload, &bundle.records, |tile| released.push(tile))
                        .unwrap_or_else(|e| {
                            panic!("step {step}: ghost bundle from rank {peer} to rank {me}: {e}")
                        });
                    let gated = &lent.layout.gated;
                    lent.spawn_grouped(s, released.iter().map(|&tile| gated.of(tile)));
                });
            }
            clock.end(Phase::Spawn);
        });
        drop(lent);
        window_ghost_ns += ghost_wait.into_inner();
        clock.end(Phase::Wait);

        // --- 4. re-arm the gates, swap buffers ---
        plan.reset_gates();
        let tiles = &mut plan.tiles;
        for slot in tiles.iter_mut() {
            std::mem::swap(slot.curr.get_mut(), &mut slot.next);
        }

        // --- 5. error recording ---
        if sc.record_error {
            let t_now = (step + 1) as f64 * dt;
            let h = setup.parts.grid.h;
            let mut sum = 0.0;
            for slot in tiles {
                let curr = slot.curr.get_mut();
                for lj in 0..sds.sd {
                    for li in 0..sds.sd {
                        let (gi, gj) = (slot.origin.0 + li, slot.origin.1 + lj);
                        let d = manufactured.exact(t_now, gi, gj) - curr.get(li, lj);
                        sum += d * d;
                    }
                }
            }
            error_partials.push(h * h * sum);
        } else {
            error_partials.push(0.0);
        }
        clock.end(Phase::Swap);

        // --- 6. load-balancing epoch (the configured LbSpec policy) ---
        if let Some(lb_cfg) = sc.lb.as_ref().filter(|lb| lb.due(step, sc.steps)) {
            // due steps are the multiples of the period, so this ordinal
            // tags each epoch's collectives and migrations apart
            let epoch = (step / lb_cfg.period) as u64;
            // gather busy times on locality 0, piggybacking the wall time
            // each locality spent in the *previous* epoch's migration
            // exchange — the cluster-wide stall signal adaptive policies
            // feed on (locality 0's own exchange alone would miss
            // migrations flowing entirely between other localities)
            let stat = (
                loc.busy_time_ns() - window_busy_ns,
                plan.tiles.len() as u64,
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
            if !moves.is_empty() {
                // Ownership changes, so the epoch's plan ends here: take
                // the tiles back out of its table.
                let StepPlan { layout, tiles, .. } = plan;
                let mut slots: HashMap<SdId, TileSlot> =
                    layout.schedule.owned.into_iter().zip(tiles).collect();
                // send outgoing SDs first, then collect incoming; tiles of
                // migrated-away SDs go back to the pool and incoming SDs
                // draw from it, so repeated epochs stop allocating tile
                // pairs
                let mut incoming: Vec<(SdId, Future<Bytes>)> = Vec::new();
                for &(sd64, from, to) in &moves {
                    let sd = sd64 as SdId;
                    if from == me {
                        let slot = slots.remove(&sd).unwrap_or_else(|| {
                            panic!("rank {me} is to migrate SD {sd}, which it does not own")
                        });
                        let (curr, next) = (slot.curr.into_inner(), slot.next);
                        let payload = pack_tile_rect(&curr, &curr.interior_rect());
                        loc.send(to, tag(CLASS_MIGRATE, epoch, sd as u64, 0), payload);
                        tile_pool.extend([curr, next]);
                    }
                    if to == me {
                        incoming.push((sd, loc.expect(tag(CLASS_MIGRATE, epoch, sd as u64, 0))));
                    }
                    owners[sd as usize] = to;
                }
                let mut fresh_tile = || {
                    tile_pool
                        .pop()
                        .map(|mut t| {
                            // pooled tiles must look newly constructed
                            t.data_mut().fill(0.0);
                            t
                        })
                        .unwrap_or_else(|| Tile::new(sds.sd, halo))
                };
                in_migrations.add(incoming.len() as u64);
                for (sd, fut) in incoming {
                    let mut payload = fut.get();
                    let mut curr = fresh_tile();
                    decode_f64_rows(&mut payload, curr.rect_rows_mut(&curr.interior_rect()))
                        .expect("corrupt migration");
                    slots.insert(sd, TileSlot::new(sds.origin(sd), curr, fresh_tile()));
                }
                plan = plan_for(&owners, &mut |sd| {
                    slots.remove(&sd).expect("an owned SD has a tile")
                });
                assert!(slots.is_empty(), "rank {me} holds tiles of SDs it lost");
                work_set = None;
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
            // Algorithm 1 line 35 resets the busy-time counters here so
            // the next epoch measures a fresh interval; the counter is
            // monotone, so the next window starts at this reading.
            window_busy_ns = loc.busy_time_ns();
            if me == 0 {
                prev_window_secs = Some(window_t0.elapsed().as_secs_f64());
                window_t0 = Instant::now();
            }
        }
        clock.end(Phase::Lb);
    }
    loop_ns.add(loop_t0.elapsed().as_nanos() as u64);

    // final per-SD fields, ascending by SD like the plan's table
    let owned = plan.layout.schedule.owned.iter();
    let sd_fields = owned
        .zip(&plan.tiles)
        .map(|(&sd, slot)| {
            let curr = slot.curr.read();
            (sd, curr.pack(&curr.interior_rect()))
        })
        .collect();
    NodeReport {
        sd_fields,
        error_partials,
        lb_log: lb_epoch.map(LbEpoch::into_log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::LbSchedule;
    use crate::balance::MoveWeights;
    use crate::ghost::{row_bands, RegionLists};
    use crate::scenario::{ClusterEvent, ClusterSpec, LbInput, PartitionSpec};
    use nlheat_amt::counters::{NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
    use nlheat_amt::pool::ThreadPool;
    use nlheat_mesh::build_halo_plan;
    use nlheat_model::{ProblemSpec, SerialSolver};
    use nlheat_netmodel::NetSpec;

    /// The square problem on `cluster` over the instant network.
    fn scenario(
        cluster: ClusterSpec,
        n: usize,
        eps_mult: f64,
        sd: usize,
        steps: usize,
    ) -> Scenario {
        Scenario::square(n, eps_mult, sd, steps)
            .on(cluster)
            .with_net(NetSpec::Instant)
    }

    /// Run `sc` on the cluster it declares.
    fn run(sc: &Scenario) -> RunReport {
        run_distributed(&sc.build_cluster(), sc)
    }

    /// Counter `name(rank)` of the run, summed over its ranks.
    fn rank_sum(report: &RunReport, name: impl Fn(u32) -> String) -> u64 {
        let ranks = 0..report.busy.len() as u32;
        ranks
            .map(|r| report.counter(&name(r)).expect("registered"))
            .sum()
    }

    fn serial_field(n: usize, eps_mult: f64, steps: usize) -> Vec<f64> {
        let parts = ProblemSpec::square(n, eps_mult).build();
        let mut s = SerialSolver::manufactured(&parts);
        s.run(steps);
        s.field()
    }

    #[test]
    fn two_nodes_match_serial_bitwise() {
        let sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 5);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 5)));
    }

    #[test]
    fn four_nodes_match_serial_bitwise() {
        let sc = scenario(ClusterSpec::uniform(4, 1), 16, 2.0, 4, 5);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 5)));
    }

    #[test]
    fn intra_step_stealing_matches_serial_bitwise() {
        // Multi-core localities so the row-band tasks really execute on
        // several workers — the decomposition must not perturb a bit.
        let mut sc = scenario(ClusterSpec::uniform(2, 4), 16, 2.0, 4, 5);
        sc.intra_step_stealing = true;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 5)));
        assert!(
            rank_sum(&report, |r| threads_counter_name(r, "count/steals")) > 0,
            "band tasks should move through the work-stealing scheduler"
        );
    }

    #[test]
    fn intra_step_stealing_straggler_sd_matches_serial_bitwise() {
        // One 8x-slow SD on a single 4-worker locality: idle workers
        // steal the straggler's bands, numerics stay pinned.
        let mut sc = scenario(ClusterSpec::uniform(1, 4), 16, 2.0, 4, 4);
        let mut work = vec![1.0; 16];
        work[0] = 8.0;
        sc.work = WorkModel::PerSd(work);
        sc.intra_step_stealing = true;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 4)));
    }

    #[test]
    fn intra_step_stealing_composes_with_lb() {
        // Stealing within steps + migration between epochs: both on, the
        // field still matches the serial solver bitwise.
        let mut sc = scenario(ClusterSpec::uniform(2, 2), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2));
        sc.intra_step_stealing = true;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
    }

    #[test]
    fn intra_step_stealing_overlap_off_matches_serial_bitwise() {
        // The non-overlap ablation gates *all* bands on the ghosts; the
        // step's scope must still wait for them.
        let mut sc = scenario(ClusterSpec::uniform(3, 2), 16, 2.0, 4, 4);
        sc.overlap = false;
        sc.intra_step_stealing = true;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 4)));
    }

    #[test]
    fn overlap_off_same_numerics() {
        let mut sc = scenario(ClusterSpec::uniform(3, 1), 16, 2.0, 4, 4);
        sc.overlap = false;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 4)));
    }

    #[test]
    fn strip_partition_same_numerics() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 4);
        sc.partition = PartitionSpec::Strip;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 4)));
    }

    #[test]
    fn multi_ring_halo_across_nodes() {
        // sd=4 with eps=6h: halo 6 > sd, ghosts come from two rings away.
        let sc = scenario(ClusterSpec::uniform(2, 1), 16, 6.0, 4, 3);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 6.0, 3)));
    }

    #[test]
    fn error_recorded_and_small() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.record_error = true;
        let report = run(&sc);
        let total = report.error.unwrap().total();
        assert!(total < 1e-4, "distributed error {total}");
    }

    #[test]
    fn load_balancing_epoch_preserves_numerics() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2));
        // plans from the modeled load: the balance outcome is a pure
        // function of counts and speeds, not of µs-sized wall-clock luck
        sc.lb_input = LbInput::Modeled;
        // start from a deliberately imbalanced explicit assignment:
        // node 0 owns everything except one SD
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        sc.partition = PartitionSpec::Explicit(owners);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
        assert_eq!(report.migrations, 7, "15/1 → 8/8 in one epoch");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn heterogeneous_cluster_balances_toward_fast_node() {
        // node 0 is 4x faster; with LB (planning from the modeled load,
        // so the direction does not rest on measured µs) it ends up with
        // the power-proportional share of the 16 SDs
        let mut sc = scenario(ClusterSpec::new().node(1, 1.0).node(1, 0.25), 16, 2.0, 4, 8);
        sc.lb = Some(LbSchedule::every(2));
        sc.lb_input = LbInput::Modeled;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 8)));
        assert_eq!(report.final_ownership.counts(), vec![13, 3]);
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn degenerate_lambda_rejected_before_the_run() {
        // Even a spec written directly into the struct (bypassing
        // `with_spec`) must fail up front on the caller's thread, not
        // inside the locality-0 driver where a panic at the first LB
        // epoch would deadlock the other localities.
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 4);
        sc.lb = Some(LbSchedule {
            period: 2,
            spec: LbSpec {
                weights: MoveWeights {
                    lambda: -1.0,
                    mu: 0.0,
                },
                ..LbSpec::default()
            },
        });
        let _ = run(&sc);
    }

    #[test]
    fn diffusion_policy_preserves_numerics_and_migrates() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2).with_spec(LbSpec::diffusion(1.0, 8)));
        sc.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        sc.partition = PartitionSpec::Explicit(owners);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
        assert!(report.migrations > 0, "15/1 start must diffuse");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn greedy_steal_policy_preserves_numerics_and_migrates() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)));
        sc.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        sc.partition = PartitionSpec::Explicit(owners);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
        assert!(report.migrations > 0, "15/1 start must shed work");
        assert_eq!(report.final_ownership.counts(), vec![8, 8]);
    }

    #[test]
    fn adaptive_policy_preserves_numerics() {
        // stays on `LbInput::Measured` (the default): the assertion is
        // numerics-only, and the measured-busy path keeps a driver test
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2).with_spec(LbSpec::adaptive(LbSpec::tree(0.0), 0.2)));
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        sc.partition = PartitionSpec::Explicit(owners);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
    }

    #[test]
    fn noop_epochs_leave_no_record() {
        // A single-node cluster plans a no-op every epoch: the plan log
        // must stay empty instead of recording empty plans.
        let mut sc = scenario(ClusterSpec::uniform(1, 2), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2));
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
        assert_eq!(report.migrations, 0);
        assert!(
            report.lb_plans.is_empty(),
            "no-op epochs must not emit plans: {:?}",
            report.lb_plans
        );
        assert!(
            report.epoch_traces.is_empty(),
            "no-op epochs must not emit traces: {:?}",
            report.epoch_traces
        );
    }

    #[test]
    fn epoch_traces_record_realized_epochs() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.lb = Some(LbSchedule::every(2));
        sc.lb_input = LbInput::Modeled;
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        sc.partition = PartitionSpec::Explicit(owners);
        let report = run(&sc);
        assert!(report.migrations > 0);
        // one trace per realized epoch, aligned with lb_plans
        assert_eq!(report.epoch_traces.len(), report.lb_plans.len());
        let total_moves: usize = report.epoch_traces.iter().map(|t| t.moves).sum();
        assert_eq!(
            total_moves, report.migrations,
            "traces must cover all moves"
        );
        for t in &report.epoch_traces {
            assert_eq!(t.policy, "tree");
            // epochs follow steps 0, 2, 4: plans take effect before the
            // odd steps
            assert!(t.step % 2 == 1, "schedule steps: {}", t.step);
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
        let sc = scenario(ClusterSpec::uniform(3, 1), 16, 2.0, 4, 4);
        let cluster = sc.build_cluster();
        let _ = run_distributed(&cluster, &sc);
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
    fn run_ahead(lb: Option<LbSchedule>) -> RunReport {
        let mut sc = scenario(ClusterSpec::speeds(&[1.0, 1.0, 0.25]), 24, 6.0, 4, 6);
        sc.lb = lb;
        // the plan (not the execution) comes from the modeled load, so
        // "the slow rank sheds" does not depend on wall-clock luck
        sc.lb_input = LbInput::Modeled;
        let cluster = sc.build_cluster();
        let report = run_distributed(&cluster, &sc);
        assert_eq!(report.field, Some(serial_field(24, 6.0, 6)));
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
        assert!(rank_sum(&report, |r| dist_counter_name(r, "count/ghost-patches")) > 6 * 6);
    }

    #[test]
    fn schedule_rebuilt_mid_run_keeps_the_field_exact() {
        // The slow rank sheds SDs at the epochs, so sender and receiver
        // schedules are rebuilt on every rank between two steps.
        let report = run_ahead(Some(LbSchedule::every(2)));
        assert!(report.migrations > 0, "the quarter-speed rank must shed");
    }

    /// A kernel bundle for tests: `parts`' kernel planned for `stride`,
    /// counting into a counter of its own.
    fn step_kernel(parts: ProblemParts, stride: i64) -> StepKernel {
        StepKernel {
            plan: parts.kernel.plan(stride),
            kernel: parts.kernel,
            source: parts.manufactured.source_fn(),
            dt: parts.dt,
            cell_updates: Counter::raw(),
        }
    }

    /// Three 4-cell SDs in a row, one per rank, halo 2: the middle rank
    /// awaits one bundle from each side. Returns the two bundles' payloads,
    /// the middle rank's plan (one tile, all of it gated) and kernel, and
    /// the two source tiles the payloads were packed from.
    fn middle_rank_gate() -> ([Bytes; 2], StepPlan, StepKernel, [Tile; 2]) {
        let sds = SdGrid::new(3, 1, 4);
        let (plans, reverse) = halo_plans(&sds, 2);
        let owners = [0, 1, 2];
        let cut = RegionCut {
            sd: 4,
            halo: 2,
            overlap: true,
            band: None,
        };
        let sources = [0u32, 2].map(|rank| {
            let mut tile = Tile::new(4, 2);
            for (i, (x, y)) in tile.interior_rect().cells().enumerate() {
                tile.set(x, y, f64::from(rank) * 100.0 + i as f64);
            }
            tile
        });
        let payloads = [0usize, 1].map(|k| {
            let rank = [0u32, 2][k];
            let sender = StepLayout::build(&plans, &reverse, &owners, rank, &cut).schedule;
            assert_eq!(sender.sends[0].peer, 1);
            sender.sends[0].pack(&mut [&sources[k]], |tile| *tile)
        });
        let layout = StepLayout::build(&plans, &reverse, &owners, 1, &cut);
        assert_eq!(layout.schedule.awaited, vec![2]);
        // both sides foreign: the margins swallow the 4-cell SD
        assert!(layout.at_spawn.of(0).is_empty());
        assert_eq!(layout.gated.of(0).len(), 1);
        let slot = TileSlot::new(sds.origin(1), Tile::new(4, 2), Tile::new(4, 2));
        // ε = 2h on a 12-cell mesh has the halo of 2 the tiles were made with
        let parts = ProblemSpec::square(12, 2.0).build();
        assert_eq!(parts.grid.halo, 2);
        let kern = step_kernel(parts, 8);
        let plan = StepPlan::new(layout, vec![slot]);
        (payloads, plan, kern, sources)
    }

    #[test]
    fn the_last_awaited_bundle_releases_the_gated_tasks() {
        let (payloads, mut plan, kern, sources) = middle_rank_gate();
        let mut released = Vec::new();
        let [left, right] = payloads;
        let pool = ThreadPool::new(1, "gate");
        {
            let lent = plan.lend(&kern, 0.0);
            let recvs = &lent.layout.schedule.recvs;
            let scatter = |payload, b: usize, released: &mut Vec<u32>| {
                lent.scatter_bundle(payload, &recvs[b].records, |tile| {
                    released.push(tile);
                })
                .unwrap();
            };
            scatter(left, 0, &mut released);
            assert!(released.is_empty(), "one bundle still awaited");
            scatter(right, 1, &mut released);
            assert_eq!(released, vec![0]);
            // both halo strips hold exactly what a local copy would have
            // put there
            let plans = build_halo_plan(&SdGrid::new(3, 1, 4), 2, 1);
            let mut want = Tile::new(4, 2);
            for (_, src, patch) in plans.sd_patches() {
                let from = &sources[usize::from(src == 2)];
                want.copy_rect_from(from, &patch.src_rect, &patch.dst_rect);
            }
            assert_eq!(lent.tiles[0].curr.read().data(), want.data());
            // the released tile's gated regions become tasks that update
            // the whole interior from that halo
            let lists = released.iter().map(|&tile| lent.layout.gated.of(tile));
            pool.handle().scope(|s| lent.spawn_grouped(s, lists));
            pool.wait_idle();
            assert_eq!(pool.tasks_executed(), 1);
        }
        let next = &plan.tiles[0].next;
        assert!(next
            .interior_rect()
            .cells()
            .all(|(x, y)| next.get(x, y) != 0.0));
        assert_eq!(kern.cell_updates.read(), 16);
        // the driver re-arms the gate between steps
        assert_eq!(*plan.gates[0].get_mut(), 0);
        plan.reset_gates();
        assert_eq!(*plan.gates[0].get_mut(), 2);
    }

    #[test]
    fn a_bundle_that_disagrees_with_the_schedule_is_rejected() {
        // bytes after the last scheduled record
        let (payloads, mut plan, kern, _) = middle_rank_gate();
        let lent = plan.lend(&kern, 0.0);
        let recvs = &lent.layout.schedule.recvs;
        let mut long = BytesMut::new();
        long.extend_from_slice(&payloads[0]);
        long.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            lent.scatter_bundle(long.freeze(), &recvs[0].records, |_| ()),
            Err(WireError::TrailingBytes(8))
        );
        // the right neighbour's bundle where the left one's is expected:
        // refused at the first header, nothing scattered, nothing released
        let (payloads, mut plan, kern, _) = middle_rank_gate();
        let lent = plan.lend(&kern, 0.0);
        let recvs = &lent.layout.schedule.recvs;
        let [_, right] = payloads;
        let mut released = 0;
        let err = lent
            .scatter_bundle(right, &recvs[0].records, |_| {
                released += 1;
            })
            .unwrap_err();
        assert!(
            matches!(err, WireError::RecordMismatch { expected, found }
                if expected == recvs[0].records[0].header()
                    && found == recvs[1].records[0].header()),
            "{err}"
        );
        assert!(lent.tiles[0].curr.read().data().iter().all(|&v| v == 0.0));
        assert_eq!(lent.gates[0].load(Ordering::Relaxed), 2);
        assert_eq!(released, 0);
    }

    /// A one-SD plan over the kernel of a 16-cell mesh at ε = 2h — the SD's
    /// `curr` tile has every storage cell different — whose one region
    /// list, run at spawn, is `rects` cut by `band`; and the kernel.
    fn lone_sd(repeats: u32, band: Option<i64>, rects: &[Rect]) -> (StepPlan, StepKernel) {
        let parts = ProblemSpec::square(16, 2.0).build();
        let halo = parts.grid.halo;
        let mut curr = Tile::new(8, halo);
        for (i, v) in curr.data_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let cut = RegionCut {
            sd: 8,
            halo,
            overlap: true,
            band,
        };
        let (plans, reverse) = halo_plans(&SdGrid::new(1, 1, 8), halo);
        let mut layout = StepLayout::build(&plans, &reverse, &[0], 0, &cut);
        layout.at_spawn = RegionLists::default();
        layout.at_spawn.push_tile(rects, band, 0);
        let kern = step_kernel(parts, curr.stride());
        let slot = TileSlot::new((8, 8), curr, Tile::new(8, halo));
        let mut plan = StepPlan::new(layout, vec![slot]);
        plan.repeats = vec![repeats];
        (plan, kern)
    }

    /// A case split's region list: a wide rect, a strip, an empty rect.
    const RECTS: [Rect; 3] = [
        Rect {
            x0: 2,
            y0: 0,
            w: 6,
            h: 8,
        },
        Rect {
            x0: 0,
            y0: 0,
            w: 2,
            h: 8,
        },
        Rect {
            x0: 0,
            y0: 0,
            w: 0,
            h: 0,
        },
    ];

    /// Deal [`lone_sd`]'s region list into tasks, run them on a pool, and
    /// return their number and the `next` tile they wrote.
    fn run_tasks(band: Option<i64>, rects: &[Rect], repeats: u32) -> (u64, Tile) {
        let (mut plan, kern) = lone_sd(repeats, band, rects);
        let pool = ThreadPool::new(2, "lone");
        let lent = plan.lend(&kern, 0.25);
        pool.handle()
            .scope(|s| lent.spawn_grouped(s, lent.layout.at_spawn.lists()));
        drop(lent);
        // a worker counts a task after the task's scope has seen it end
        pool.wait_idle();
        (pool.tasks_executed(), plan.tiles[0].next.clone())
    }

    #[test]
    fn stealing_off_is_one_task_per_region_list() {
        assert_eq!(run_tasks(None, &RECTS, 1).0, 1);
        assert_eq!(run_tasks(None, &RECTS[..1], 1).0, 1);
        // nothing to compute, nothing to schedule
        let (n, written) = run_tasks(None, &[Rect::empty(), Rect::empty()], 1);
        assert_eq!(n, 0);
        assert!(written.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stealing_on_is_one_task_per_row_band() {
        for band in [1, 3, 8] {
            let bands: usize = RECTS.iter().map(|r| row_bands(r, band).count()).sum();
            assert_eq!(run_tasks(Some(band), &RECTS, 1).0, bands as u64);
        }
        // 8 rows in bands of 3 are 3 + 3 + 2, for both non-empty rects
        assert_eq!(run_tasks(Some(3), &RECTS, 1).0, 6);
        assert_eq!(run_tasks(Some(3), &[Rect::empty()], 1).0, 0);
    }

    #[test]
    fn grouping_does_not_change_a_bit() {
        for repeats in [1, 3] {
            let (mut plan, kern) = lone_sd(repeats, None, &RECTS);
            let curr = plan.tiles[0].curr.get_mut();
            let mut want = Tile::new(curr.sd(), curr.halo());
            for rect in &RECTS {
                kern.kernel.apply_region_blocked(
                    curr,
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
            let (_, whole) = run_tasks(None, &RECTS, repeats);
            let (_, banded) = run_tasks(Some(3), &RECTS, repeats);
            assert_eq!(whole.data(), want.data(), "repeats {repeats}");
            assert_eq!(banded.data(), want.data(), "repeats {repeats}");
        }
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn a_region_dealt_twice_in_one_step_panics() {
        // the same list spawned a second time — a continuation releasing a
        // gated list the step already dealt — is refused, not computed twice
        let (mut plan, kern) = lone_sd(1, None, &RECTS);
        let pool = ThreadPool::new(1, "twice");
        let lent = plan.lend(&kern, 0.25);
        pool.handle().scope(|s| {
            lent.spawn_grouped(s, lent.layout.at_spawn.lists());
            lent.spawn_grouped(s, lent.layout.at_spawn.lists());
        });
    }

    #[test]
    #[should_panic(expected = "build the cluster with")]
    fn instant_config_on_a_priced_cluster_is_rejected() {
        // the direction the one-sided guard let through: the fabric would
        // delay parcels by rack while the LB epoch plans over a free network
        let sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 2);
        let cluster = sc.cluster.builder(NetSpec::shared(1e-6, 10e9)).build();
        assert_eq!(sc.net, NetSpec::Instant);
        let _ = run_distributed(&cluster, &sc);
    }

    #[test]
    #[should_panic(
        expected = "load balancing over 1050625 SDs exceeds the real runtime's \
                    limit of 1048576 (TAG_B_MAX + 1)"
    )]
    fn too_many_sds_to_migrate_are_rejected_before_the_run() {
        // SD ids ≥ 2^20 do not fit a migration tag: a driver would panic
        // at the first such move and park the other localities
        let sc = Scenario::square(2050, 2.0, 2, 1)
            .on(ClusterSpec::uniform(2, 1))
            .with_net(NetSpec::Instant)
            .with_partition(PartitionSpec::Strip)
            .with_lb(LbSchedule::every(1));
        assert_eq!(sc.sd_grid().count(), 1_050_625);
        let _ = run(&sc);
    }

    #[test]
    #[should_panic(
        expected = "16777218 steps exceed the real runtime's limit of 16777216 \
                    (TAG_A_MAX + 1)"
    )]
    fn too_many_steps_are_rejected_before_the_run() {
        let sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, (1 << 24) + 2);
        let _ = run(&sc);
    }

    /// `sc` handed to a cluster built from `other`'s declaration.
    fn run_on_the_cluster_of(other: ClusterSpec, sc: &Scenario) {
        let _ = run_distributed(&other.builder(sc.net).build(), sc);
    }

    #[test]
    #[should_panic(
        expected = "declares nodes of (cores, speed) [(1, 1.0), (1, 1.0)] but the cluster has [(1, 1.0), (1, 1.0), (1, 1.0)]"
    )]
    fn a_cluster_of_another_node_count_is_rejected() {
        // the drivers of the third locality would index past the
        // scenario's speeds and capacities
        let sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 2);
        run_on_the_cluster_of(ClusterSpec::uniform(3, 1), &sc);
    }

    #[test]
    #[should_panic(
        expected = "declares nodes of (cores, speed) [(2, 1.0), (2, 1.0)] but the cluster has [(2, 1.0), (1, 1.0)]"
    )]
    fn a_cluster_of_another_worker_count_is_rejected() {
        let sc = scenario(ClusterSpec::uniform(2, 2), 16, 2.0, 4, 2);
        run_on_the_cluster_of(ClusterSpec::new().node(2, 1.0).node(1, 1.0), &sc);
    }

    #[test]
    #[should_panic(
        expected = "declares nodes of (cores, speed) [(1, 1.0), (1, 0.5)] but the cluster has [(1, 1.0), (1, 0.25)]"
    )]
    fn a_cluster_of_another_speed_is_rejected() {
        // the pools would repeat kernels for a quarter-speed rank while the
        // LB epoch models a half-speed one
        let sc = scenario(ClusterSpec::speeds(&[1.0, 0.5]), 16, 2.0, 4, 2);
        run_on_the_cluster_of(ClusterSpec::speeds(&[1.0, 0.25]), &sc);
    }

    #[test]
    #[should_panic(expected = "work_schedule must be sorted by step")]
    fn an_unsorted_work_schedule_fails_before_the_run() {
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.work_schedule = vec![(4, WorkModel::Uniform), (2, WorkModel::Uniform)];
        let _ = run(&sc);
    }

    #[test]
    #[should_panic(expected = "cluster event names rank 2 outside the 2-rank cluster")]
    fn an_event_for_a_rank_outside_the_cluster_fails_before_the_run() {
        // `failed_at` would index its mask with it on a driver thread
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        let spec = LbSpec::repartition(LbSpec::greedy_steal(1), f64::INFINITY, 1, u64::MAX);
        sc.lb = Some(LbSchedule::every(2).with_spec(spec));
        sc.cluster_events = vec![(3, ClusterEvent::Fail { rank: 2 })];
        let _ = run(&sc);
    }

    #[test]
    fn single_node_cluster_works() {
        let sc = scenario(ClusterSpec::uniform(1, 2), 16, 2.0, 4, 4);
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 4)));
    }

    // The shared-memory solver (§8.2) is this driver on one locality: no
    // ghost is foreign, so no bundle is sent or awaited and every SD is
    // all case 2.

    #[test]
    fn one_locality_matches_serial_solver_bitwise() {
        let sc = scenario(ClusterSpec::uniform(1, 2), 16, 2.0, 4, 5).with_record_error(true);
        let field = run(&sc).field.expect("the real runtime reports its field");
        let serial = serial_field(16, 2.0, 5);
        assert_eq!(field.len(), serial.len());
        for (i, (a, b)) in field.iter().zip(&serial).enumerate() {
            assert_eq!(a, b, "cell {i} differs: one locality {a} vs serial {b}");
        }
    }

    #[test]
    fn one_locality_single_sd_equals_many_sds() {
        let one = run(&scenario(ClusterSpec::uniform(1, 1), 16, 2.0, 16, 4));
        let many = run(&scenario(ClusterSpec::uniform(1, 3), 16, 2.0, 4, 4));
        assert_eq!(
            one.field, many.field,
            "decomposition must not change numerics"
        );
    }

    #[test]
    fn one_locality_error_stays_small() {
        let sc = scenario(ClusterSpec::uniform(1, 2), 24, 3.0, 8, 8).with_record_error(true);
        let total = run(&sc).error.unwrap().total();
        assert!(total < 1e-4, "error {total}");
    }

    #[test]
    fn one_locality_tasks_scale_with_sds_and_steps() {
        // The tasks and busy time the locality's pool executed.
        let pool_counts = |sc: &Scenario| {
            let cluster = sc.build_cluster();
            let _ = run_distributed(&cluster, sc);
            // The step barrier resolves inside the final task, slightly
            // before the pool retires it — drain fully so the counters are
            // final.
            let loc = cluster.locality(0);
            loc.wait_idle();
            (loc.pool().tasks_executed(), loc.pool().busy_ns_total())
        };
        // 16 SDs x 3 steps of 16 cells x 13 stencil points each: far below
        // the work floor, so SDs share tasks — at least one a step, never
        // more than one per SD and step
        let (tasks, busy_ns) = pool_counts(&scenario(ClusterSpec::uniform(1, 2), 16, 2.0, 4, 3));
        assert!((3..=48).contains(&tasks), "{tasks} tasks");
        assert!(busy_ns > 0);
        // 4 SDs x 2 steps of 1024 cells x 197 stencil points: every SD is
        // above the floor and keeps a task of its own
        let cells = 32 * 32 * ProblemSpec::square(64, 8.0).build().kernel.stencil.len();
        assert!(cells as u64 >= crate::ghost::TASK_WORK_FLOOR);
        let (tasks, _) = pool_counts(&scenario(ClusterSpec::uniform(1, 2), 64, 8.0, 32, 2));
        assert_eq!(tasks, 8);
    }

    #[test]
    fn one_locality_work_model_changes_cost_not_result() {
        let uniform = scenario(ClusterSpec::uniform(1, 2), 16, 2.0, 4, 3);
        let crack = uniform.clone().with_work(WorkModel::Crack {
            y_cell: 8,
            half_width: 2,
            factor: 3.0,
        });
        assert_eq!(run(&uniform).field, run(&crack).field);
    }

    #[test]
    fn work_schedule_runs_on_the_real_runtime_bit_exact() {
        // The propagating crack on real hardware: the schedule switches
        // the work model mid-run (kernel repetition emulates the factor),
        // so the numerics must stay bit-exact while only timing shifts.
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
        sc.work_schedule = vec![
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
        sc.lb = Some(LbSchedule::every(2));
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 6)));
        assert_eq!(sc.work_at(0), &sc.work_schedule[0].1);
        assert_eq!(sc.work_at(4), &sc.work_schedule[1].1);
    }

    /// A run whose work model switches at steps 2 and 5 — neither an LB
    /// step of the period-4 schedule — between per-SD factor tables that
    /// differ on every SD.
    fn switching_work(cluster: ClusterSpec, n_steps: usize) -> Scenario {
        let mut sc = scenario(cluster, 16, 2.0, 4, n_steps);
        let table = |shift: usize| {
            WorkModel::PerSd((0..16).map(|sd| 1.0 + ((sd + shift) % 3) as f64).collect())
        };
        sc.work = table(0);
        sc.work_schedule = vec![(2, table(1)), (5, table(2))];
        sc.lb = Some(LbSchedule::every(4));
        sc.lb_input = LbInput::Modeled;
        sc
    }

    #[test]
    fn set_work_gives_the_repeats_of_the_model_in_force() {
        let sc = switching_work(ClusterSpec::speeds(&[1.0, 0.5]), 8);
        let setup = Setup::build(&sc);
        let cut = RegionCut {
            sd: 4,
            halo: setup.parts.grid.halo,
            overlap: true,
            band: None,
        };
        for (me, speed) in [(0, 1.0), (1, 0.5)] {
            let owners = &setup.initial_owners;
            let layout = StepLayout::build(&setup.plans, &setup.reverse, owners, me, &cut);
            let owned = layout.schedule.owned.clone();
            let tile = || Tile::new(4, cut.halo);
            let tiles = owned.iter().map(|_| TileSlot::new((0, 0), tile(), tile()));
            let mut plan = StepPlan::new(layout, tiles.collect());
            assert!(!owned.is_empty());
            for step in 0..sc.steps {
                let work = sc.work_at(step);
                plan.set_work(work, &setup.sds, speed);
                let want: Vec<u32> = owned
                    .iter()
                    .map(|&sd| work.repeats(&setup.sds, sd, speed))
                    .collect();
                assert_eq!(plan.repeats, want, "rank {me}, step {step}");
            }
        }
    }

    #[test]
    fn a_stale_repeats_table_cannot_hide() {
        // Kernel repetition recomputes the same value, so the field is
        // blind to a work factor baked in when the plan was built. The
        // cell-update counters are not: they must add up to the repeats of
        // the model in force at every step — on one locality, where the
        // plan is never rebuilt, and on two, where an LB epoch rebuilds it
        // between the switches.
        let sc = switching_work(ClusterSpec::uniform(1, 1), 8);
        let sds = SdGrid::tile_mesh(16, 16, 4);
        let want: u64 = (0..sc.steps)
            .flat_map(|step| sds.ids().map(move |sd| (step, sd)))
            .map(|(step, sd)| 16 * u64::from(sc.work_at(step).repeats(&sds, sd, 1.0)))
            .sum();
        assert_ne!(want, 8 * 256 * u64::from(sc.work.repeats(&sds, 0, 1.0)));
        for n_nodes in [1, 2] {
            let mut sc = sc.clone().on(ClusterSpec::uniform(n_nodes, 1));
            // lopsided, so the epoch after step 3 migrates
            let mut owners = vec![0u32; 16];
            owners[15] = n_nodes as u32 - 1;
            sc.partition = PartitionSpec::Explicit(owners);
            let report = run(&sc);
            assert_eq!(report.field, Some(serial_field(16, 2.0, 8)));
            assert_eq!(report.migrations > 0, n_nodes == 2);
            let executed = rank_sum(&report, |r| dist_counter_name(r, "count/cell-updates"));
            assert_eq!(executed, want, "{n_nodes} localities");
        }
    }

    #[test]
    fn the_phase_counters_add_up_to_the_step_loop() {
        let mut sc = switching_work(ClusterSpec::uniform(2, 1), 8);
        sc.partition = PartitionSpec::Strip;
        sc.record_error = true;
        let report = run(&sc);
        for rank in 0..2u32 {
            let read = |name: &str| {
                let name = dist_counter_name(rank, name);
                report.counter(&name).expect("registered")
            };
            let phases = STEP_PHASES.map(|phase| read(&format!("phase/{phase}")));
            assert!(phases.iter().all(|&ns| ns > 0), "{phases:?}");
            let (sum, whole) = (phases.iter().sum::<u64>(), read("time/loop"));
            assert!(
                sum <= whole && sum as f64 >= 0.95 * whole as f64,
                "rank {rank}: phases {phases:?} sum to {sum} of a {whole} ns loop"
            );
        }
        // ... and say which kernel instantiation they timed
        let level = nlheat_model::VectorLevel::detect().index();
        assert_eq!(report.counter(KERNEL_VECTOR_LEVEL_COUNTER), Some(level));
    }

    #[test]
    fn busy_covers_the_whole_run_across_lb_epochs() {
        // Epochs after steps 0, 4, 8 and 12 each start a new busy window;
        // the report's busy time is still every nanosecond the pools spent
        // on tasks, read off the pools themselves once the run is over.
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 32, 2.0, 4, 16);
        let lb = LbSchedule::every(4);
        let epochs = (0..sc.steps).filter(|&step| lb.due(step, sc.steps)).count();
        assert_eq!(epochs, 4);
        sc.lb = Some(lb);
        sc.lb_input = LbInput::Modeled;
        let cluster = sc.build_cluster();
        let report = run_distributed(&cluster, &sc);
        for (r, &busy) in report.busy.iter().enumerate() {
            let pool = cluster.locality(r).pool().busy_ns_total();
            assert_eq!(busy, pool as f64 * 1e-9, "rank {r}");
        }
    }

    #[test]
    fn long_runs_of_scoped_steps_on_two_workers_match_serial_bitwise() {
        // Every step lends the plan to its scope: tasks claim their regions
        // from the `next` writers on two workers per rank while bundle
        // continuations write halos under `curr`'s lock, and each step's
        // scope must end with every region written once and the gates,
        // swap and migration seeing all of it. Long runs under `-O` (the
        // CI step), where those interleavings vary most: the many-task
        // ghost-heavy shape, and 25-cell SDs from the Metis partition with
        // a crack that moves, so LB epochs rebuild the plan mid-run; each
        // with overlap on and off and with stealing.
        let steps = if cfg!(debug_assertions) { 24 } else { 200 };
        let cluster = ClusterSpec::new().node(2, 1.0).node(2, 0.5);
        let ghost_heavy = {
            let mut sc = scenario(cluster.clone(), 100, 4.0, 5, steps);
            let owners = crate::scenarios::drifted_owners(&SdGrid::tile_mesh(100, 100, 5), 2);
            sc.partition = PartitionSpec::Explicit(owners);
            sc
        };
        let metis_lb = {
            let mut sc = scenario(cluster, 100, 4.0, 25, steps);
            let crack = |y_cell| WorkModel::Crack {
                y_cell,
                half_width: 10,
                factor: 3.0,
            };
            sc.work_schedule = vec![(0, crack(20)), (steps / 2, crack(80))];
            sc.lb = Some(LbSchedule::every(4));
            sc.lb_input = LbInput::Modeled;
            sc
        };
        let want = Some(serial_field(100, 4.0, steps));
        for (shape, sc) in [("ghost-heavy", ghost_heavy), ("metis + lb", metis_lb)] {
            for (overlap, stealing) in [(true, false), (false, false), (true, true)] {
                let mut sc = sc.clone();
                sc.overlap = overlap;
                sc.intra_step_stealing = stealing;
                let report = run(&sc);
                let what = format!("{shape}, overlap {overlap}, stealing {stealing}");
                assert!(report.field == want, "{what}: field differs from serial");
                assert_eq!(report.migrations > 0, sc.lb.is_some(), "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "PerSd work model has 3 factors")]
    fn per_sd_length_mismatch_fails_before_the_run() {
        // Satellite contract: the bad factor vector must fail on the
        // caller's thread at configuration time, not by out-of-bounds
        // indexing inside a driver mid-run.
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 4);
        sc.work = WorkModel::PerSd(vec![1.0, 1.0, 1.0]); // grid has 16 SDs
        let _ = run(&sc);
    }

    #[test]
    fn ghost_byte_counters_match_the_planner_grade_formula() {
        // LB-free run on 2 nodes: the only parcels are the ghost bundles,
        // one per step and direction, and their payload is exactly the
        // planner-grade volume — the ownership cut of the SD graph, which
        // is also what the simulator charges for this scenario.
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 3);
        sc.partition = PartitionSpec::Strip;
        let cluster = sc.build_cluster();
        let report = run_distributed(&cluster, &sc);
        let sds = SdGrid::tile_mesh(16, 16, 4);
        let graph = SdGraph::build(&sds, sc.problem.build().grid.halo);
        let cut = graph.cut_bytes(report.final_ownership.owners());
        assert!(cut > 0);
        assert_eq!(report.ghost_bytes, 3 * cut);
        assert_eq!(report.migration_bytes, 0);
        // rack-less model: no inter-rack share
        assert_eq!(report.inter_rack_ghost_bytes, 0);
        // 4 boundary SD pairs with 3 patches each way (side + 2 corners,
        // minus the 2 x 2 corners that fall off the strip's ends)
        let patches = rank_sum(&report, |r| dist_counter_name(r, "count/ghost-patches"));
        assert_eq!(patches, 3 * 2 * (4 * 3 - 2));
        let stats = cluster.net_stats();
        assert_eq!(stats.messages(), 3 * 2, "one bundle per step and rank pair");
        // ... which the report carries
        assert_eq!(
            (
                report.counter(NETWORK_MESSAGES),
                report.counter(NETWORK_CROSS_BYTES)
            ),
            (Some(stats.messages()), Some(stats.cross_bytes()))
        );
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
        let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 8);
        sc.lb = Some(LbSchedule::every(2).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        )));
        sc.cluster_events = vec![(3, ClusterEvent::Fail { rank: 1 })];
        sc.lb_input = LbInput::Modeled;
        let report = run(&sc);
        assert_eq!(report.field, Some(serial_field(16, 2.0, 8)));
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
        let run_once = || {
            let mut sc = scenario(ClusterSpec::uniform(2, 1), 16, 2.0, 4, 6);
            sc.lb = Some(LbSchedule::every(2));
            sc.lb_input = LbInput::Modeled;
            let mut owners = vec![0u32; 16];
            owners[15] = 1;
            sc.partition = PartitionSpec::Explicit(owners);
            run(&sc)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.field, Some(serial_field(16, 2.0, 6)));
        assert!(a.migrations > 0, "lopsided start must migrate");
        assert_eq!(a.lb_plans, b.lb_plans, "modeled plans are deterministic");
        assert_eq!(a.ghost_bytes, b.ghost_bytes);
    }
}
