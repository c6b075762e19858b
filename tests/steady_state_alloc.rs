//! Steady-state allocation counts of the real runtime's step loop —
//! counted through a counting global allocator, not timed, so there is no
//! wall-clock luck in it. One test, in a binary of its own, so the
//! allocator sees nothing else.

use nonlocalheat::core::balance::LbSchedule;
use nonlocalheat::core::ghost::{reverse_index, RegionCut, StepLayout};
use nonlocalheat::core::scenario::{ClusterSpec, LbInput, PartitionSpec, Scenario};
use nonlocalheat::core::{scenarios, WorkModel};
use nonlocalheat::mesh::build_halo_plan;
use nonlocalheat::netmodel::NetSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly `WATCHED_BYTES` bytes.
static WATCHED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WATCHED_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Counting;

impl Counting {
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size == WATCHED_BYTES.load(Ordering::Relaxed) {
            WATCHED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are plain atomics.
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

#[test]
fn a_steady_state_step_allocates_per_task_not_per_sd() {
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
    let plans: Vec<_> = sds
        .ids()
        .map(|id| build_halo_plan(&sds, halo, id))
        .collect();
    let owners = sc.partition.initial_owners(&sds, 2);
    let cut = RegionCut {
        sd: sds.sd,
        halo,
        overlap: true,
        band: None,
    };
    let kernel_calls: usize = (0..2)
        .map(|me| {
            let layout = StepLayout::build(&plans, &reverse_index(&plans), &owners, me, &cut);
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
    // Measured: 0.21 (1.21 with the kernel's boxes); the parent, which
    // built a gate, two task lists, two boxed closures and two futures
    // per SD and step, read 10.04 (9.04).
    assert!(
        per_sd_step < 0.25,
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
