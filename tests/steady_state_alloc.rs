//! Allocation counts of the program's hot paths, counted through a
//! counting global allocator, not timed, so there is no wall-clock luck in
//! them. A global allocator serves a whole binary, so every such count
//! lives in this one. Each test holds [`SERIAL`] while it counts: the
//! step-loop test counts the allocations of every thread of its cluster,
//! the others only those of their own thread, which the test harness's
//! threads cannot touch.

use nonlocalheat::amt::codec::decode_ghost_record;
use nonlocalheat::core::balance::{compute_metrics, LbNetwork, LbSchedule, LbSpec, MigrationPlan};
use nonlocalheat::core::ghost::{halo_plans, GhostSchedule, RegionCut, StepLayout};
use nonlocalheat::core::scenario::{modeled_busy, ClusterSpec, LbInput, PartitionSpec, Scenario};
use nonlocalheat::core::{scenarios, Ownership, WorkModel};
use nonlocalheat::mesh::{Grid, SdGrid, Tile};
use nonlocalheat::netmodel::NetSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly `WATCHED_BYTES` bytes.
static WATCHED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WATCHED_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    /// Allocations of the current thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

/// Held by every test while it counts. It guards no data, so a failed
/// test's poison is cleared, not passed on.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size == WATCHED_BYTES.load(Ordering::Relaxed) {
            WATCHED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // a thread being torn down has no counter left to bump
        let _ = MINE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are plain atomics
// and a const-initialised thread-local `Cell`, none of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's block, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `sc` on the real runtime; return the allocations made meanwhile,
/// all of them and those of `watched` bytes.
fn allocations_of(sc: &Scenario, watched: usize) -> (u64, u64) {
    WATCHED_BYTES.store(watched, Ordering::Relaxed);
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        WATCHED_ALLOCS.load(Ordering::Relaxed),
    );
    let report = sc.run_dist();
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        WATCHED_ALLOCS.load(Ordering::Relaxed),
    );
    drop(report);
    (after.0 - before.0, after.1 - before.1)
}

/// Run `f`; return the allocations it made on this thread, and its result.
fn own_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = MINE.with(Cell::get);
    let out = f();
    (MINE.with(Cell::get) - before, out)
}

#[test]
fn a_steady_state_step_allocates_per_task_not_per_sd() {
    let _serial = serial();
    // `dist_ghost_heavy` at a quarter of its size: 400 five-cell SDs in
    // alternating columns on 2 one-worker ranks. Everything but the steps
    // (cluster, set-up, step plan, field read-out) is the same in a run of
    // n and of 2n steps, so the difference is n steady-state steps.
    let ghost_heavy = |steps| {
        let base = Scenario::square(100, 4.0, 5, steps);
        let owners = scenarios::drifted_owners(&base.sd_grid(), 2);
        base.on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Explicit(owners))
            .with_net(NetSpec::Instant)
    };
    // The kernel boxes one row source per call (`Source::at_time`) and the
    // step calls it once per region — a cost of the kernel's interface,
    // not of the driver — so that many allocations are set aside.
    let sc = ghost_heavy(1);
    let (sds, halo) = (sc.sd_grid(), sc.problem.build().grid.halo);
    let (plans, reverse) = halo_plans(&sds, halo);
    let owners = sc.partition.initial_owners(&sds, 2);
    let cut = RegionCut {
        sd: sds.sd,
        halo,
        overlap: true,
        band: None,
    };
    let kernel_calls: usize = (0..2)
        .map(|me| {
            let layout = StepLayout::build(&plans, &reverse, &owners, me, &cut);
            layout
                .at_spawn
                .lists()
                .chain(layout.gated.lists())
                .flatten()
                .count()
        })
        .sum();
    // one region per SD (its margins swallow it), three in the four corners
    assert_eq!(kernel_calls, 408);

    let n = 8;
    allocations_of(&ghost_heavy(2), usize::MAX); // warm up the process
    let (short, _) = allocations_of(&ghost_heavy(n), usize::MAX);
    let (long, _) = allocations_of(&ghost_heavy(2 * n), usize::MAX);
    let per_step = (long - short) as f64 / n as f64;
    let per_sd_step = (per_step - kernel_calls as f64) / sds.count() as f64;
    println!("step: {per_step} allocations, {per_sd_step} per SD and step besides the kernel's");
    // Measured: 0.152 (1.152 with the kernel's boxes), in debug and under
    // -O. With a promise/future pair per task, before each step became a
    // scope, it read 0.182; before the step was replayed, with a gate,
    // two task lists, two boxed closures and two futures per SD and step,
    // 10.04 (9.04).
    assert!(
        per_sd_step < 0.165,
        "{per_step} allocations a step, {kernel_calls} of them the kernel's: \
         {per_sd_step} per SD and step"
    );

    // Ping-pong balancing: every epoch the heavy half of a 16-SD mesh
    // flips between the two ranks' strips, so SDs migrate back and forth.
    // A rank that sends SDs away pools their tiles and draws on the pool
    // when SDs come back, so once both directions have run no epoch
    // allocates a tile: a run of 6 epochs allocates exactly as many as a
    // run of 2.
    let ping_pong = |epochs: usize| {
        let heavy = |top: bool| {
            let factor = |sd: usize| if (sd < 8) == top { 3.0 } else { 1.0 };
            WorkModel::PerSd((0..16).map(factor).collect())
        };
        let flips = (0..epochs).map(|e| (2 * e, heavy(e % 2 == 0))).collect();
        Scenario::square(20, 3.0, 5, 2 * epochs + 1)
            .on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Strip)
            .with_net(NetSpec::Instant)
            .with_work_schedule(flips)
            .with_lb(LbSchedule::every(2))
            .with_lb_input(LbInput::Modeled)
    };
    let report = ping_pong(6).run_dist();
    assert_eq!(report.lb_plans.len(), 6, "every epoch migrates");
    for (epoch, plan) in report.lb_plans.iter().enumerate() {
        let from = (epoch % 2) as u32;
        assert!(
            plan.iter().all(|m| m.from == from),
            "epoch {epoch}: {plan:?}"
        );
    }
    let stride = 5 + 2 * ping_pong(1).problem.build().grid.halo as usize;
    let tile_bytes = stride * stride * 8;
    let (_, two_epochs) = allocations_of(&ping_pong(2), tile_bytes);
    let (_, six_epochs) = allocations_of(&ping_pong(6), tile_bytes);
    assert!(two_epochs >= 2 * 16, "{two_epochs} tiles for 16 SDs");
    assert_eq!(
        six_epochs, two_epochs,
        "tile allocations after the second epoch"
    );
}

/// Allocations of one `spec.build().plan(..)` on `sc`'s starting state,
/// its inputs built the way both substrates build them, and the plan.
fn plan_allocations(sc: &Scenario, spec: &LbSpec) -> (u64, MigrationPlan) {
    let sds = sc.sd_grid();
    let n_nodes = sc.cluster.len() as u32;
    let owners = sc.partition.initial_owners(&sds, n_nodes);
    let busy = modeled_busy(
        &sds,
        &owners,
        n_nodes,
        sc.work_at(0),
        &sc.cluster.speed_factors(),
        sc.sec_per_dp(),
    );
    let ownership = Ownership::new(sds, owners, n_nodes);
    let metrics = compute_metrics(&ownership.counts(), &busy);
    let net =
        LbNetwork::for_sd_tiles(&sc.net, sds.cells_per_sd()).with_sd_graph(Arc::new(sc.sd_graph()));
    own_allocations(|| spec.build().plan(&ownership, &metrics, &net))
}

#[test]
fn a_leaf_plan_grows_its_rings_without_a_set_per_ring() {
    let _serial = serial();
    // One leaf plan on the library's full-size `lopsided_two_rack` (256
    // SDs, 4 ranks, a Fig.-14 start), where realising the transfers by
    // ring growth in `balance::transfer` is most of the call. `tree_mu`
    // and `greedy` are the one-SD-per-call paths (μ active, or stealing one
    // SD at a time). Measured: 650 / 1 495 / 1 316; with the hash set of
    // the borrower's territory and the scan of the lender per ring back
    // (`transfer::tests::select_transfer_hashset` as the body), 6 352 /
    // 17 020 / 35 363.
    let sc = scenarios::lopsided_two_rack(false);
    for (name, spec, bound) in [
        ("tree", LbSpec::tree(0.0), 970),
        ("tree_mu", LbSpec::tree(0.0).with_mu(0.25), 2_240),
        ("greedy", LbSpec::greedy_steal(1), 1_970),
    ] {
        let (allocs, plan) = plan_allocations(&sc, &spec);
        println!("{name}: {allocs} allocations, {} moves", plan.moves.len());
        assert!(!plan.is_noop(), "{name} plans nothing to count");
        assert!(allocs <= bound, "{name}: {allocs} allocations > {bound}");
    }
}

#[test]
fn the_sd_graph_allocates_a_constant_number_of_times() {
    let _serial = serial();
    // `plan_scale(25)` and `plan_scale(250)`: 2 500 and 24 964 five-cell
    // SDs. The graph is written row by row from the grid's one halo
    // template into arrays allocated at their exact size, so ten times the
    // SDs make no more allocations. Measured: 6 and 6; with a halo plan
    // built and dropped per SD and a counting sort of the edge list,
    // 2 524 and 24 991.
    let [small, large] = [25, 250].map(|ranks| {
        let sc = scenarios::plan_scale(ranks);
        let (allocs, graph) = own_allocations(|| sc.sd_graph());
        println!("sd_graph: {allocs} allocations for {} SDs", graph.n_sds());
        allocs
    });
    assert_eq!(small, large, "allocations grow with the SD count");
    assert!(large <= 8, "{large} allocations for one SD graph");
}

#[test]
fn a_hierarchical_plan_allocates_linearly_in_ranks() {
    let _serial = serial();
    // At 10× the ranks and SDs, 10× the allocations, not 100×: a collapse
    // that grows with the square of the ranks (a node adjacency recomputed
    // per settled group) breaks the ratio. Measured: 10 384 → 111 251;
    // with that recompute, 6 482 020 → 775 704 422.
    let spec = LbSpec::hierarchical(LbSpec::tree(0.0), 0.0);
    let [small, large] = [250, 2_500].map(|ranks| {
        let (allocs, plan) = plan_allocations(&scenarios::plan_scale(ranks), &spec);
        assert!(!plan.is_noop(), "{ranks} ranks plan nothing to count");
        allocs
    });
    println!("hierarchical: {small} allocations at 250 ranks, {large} at 2 500");
    assert!(
        large <= 15 * small,
        "{small} → {large} allocations at 10× the ranks"
    );
}

#[test]
fn a_ghost_bundle_packs_into_one_buffer_and_scatters_in_place() {
    let _serial = serial();
    // One rank's whole bundle of the repository benchmark's
    // `dist_ghost_heavy`: 4 602 records of 16-20 cells in rows of 4 or 5,
    // packed from its 800 tiles and scattered into them record by record,
    // as the driver's send phase and bundle continuation do. Measured:
    // pack 2 (the buffer, and the shared handle it freezes into), scatter 0;
    // with a `Vec<f64>` per record between tile and wire, 15 368 and 4 602.
    // A `Bytes` handle cloned per record allocates nothing, so no count
    // sees it; the benchmark's `mesh.halo.unpack_ns_per_patch` does.
    let sds = SdGrid::tile_mesh(200, 200, 5);
    let halo = Grid::square(200, 4.0).halo;
    let owners = scenarios::drifted_owners(&sds, 2);
    let (plans, reverse) = halo_plans(&sds, halo);
    let [mine, peer] = [0, 1].map(|rank| GhostSchedule::build(&plans, &reverse, &owners, rank));
    let tiles_of = |schedule: &GhostSchedule| -> Vec<Tile> {
        let tile = |&sd| {
            let mut tile = Tile::new(sds.sd, halo);
            for (i, (x, y)) in tile.interior_rect().cells().enumerate() {
                tile.set(x, y, f64::from(sd) + i as f64 * 0.01);
            }
            tile
        };
        schedule.owned.iter().map(tile).collect()
    };
    let mut tiles = tiles_of(&mine);
    let (pack, _) = own_allocations(|| mine.sends[0].pack(&mut tiles, |tile| tile));
    let incoming = peer.sends[0].pack(&mut tiles_of(&peer), |tile| tile);
    let records = &mine.recvs[0].records;
    assert_eq!(records.len(), 4_602);
    let (scatter, _) = own_allocations(|| {
        let mut payload = incoming.clone();
        for rec in records {
            let rows = tiles[rec.tile as usize].rect_rows_mut(&rec.rect);
            decode_ghost_record(&mut payload, rec.header(), rows).unwrap();
        }
        assert!(payload.is_empty());
    });
    println!(
        "bundle of {} records: pack {pack}, scatter {scatter} allocations",
        records.len()
    );
    assert!(pack <= 3, "pack: {pack} allocations");
    assert_eq!(scatter, 0, "scatter allocations");
}
