//! The hot-path regression suite: sim event-core throughput, halo codec
//! pack/unpack, the nonlocal kernel, and end-to-end quick scenarios on both
//! substrates.
//!
//! Run `cargo bench -p nlheat-bench --bench hotpath` (add `-- --quick` for
//! the CI smoke budget). With `NLHEAT_BENCH_JSON=<path>` the criterion shim
//! writes machine-readable results that `bench_gate` diffs against the
//! committed `BENCH_hotpath.json` snapshot — a regression beyond the
//! tolerance band fails the build.
//!
//! Workload shapes are identical in quick and full mode (only the
//! measurement budget shrinks), so quick-mode numbers are comparable with
//! the snapshot.

use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nlheat_core::balance::{compute_metrics, LbNetwork, LbSpec, LoadMetrics};
use nlheat_core::ghost::{reverse_index, GhostSchedule};
use nlheat_core::scenario::sweep::{Axis, ScenarioSweep};
use nlheat_core::scenario::{modeled_busy, work_at, ClusterSpec, PartitionSpec, Scenario};
use nlheat_core::scenarios;
use nlheat_core::Ownership;
use nlheat_mesh::{build_halo_plan, Grid, Rect, SdGrid, Tile};
use nlheat_model::{zero_source, Influence, NonlocalKernel, VectorLevel};
use nlheat_sim::engine::simulate;
use nlheat_sim::scenario::{RunSim, SimSubstrate};
use nlheat_sim::LbSchedule;
use std::sync::Once;

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var_os("NLHEAT_BENCH_QUICK").is_some();
        if quick && std::env::var_os("NLHEAT_BENCH_TARGET_MS").is_none() {
            // Same workloads, smaller measurement budget: numbers stay
            // comparable with full runs, the suite finishes in seconds.
            std::env::set_var("NLHEAT_BENCH_TARGET_MS", "80");
        }
    });
}

fn event_core_bench(c: &mut Criterion) {
    init();
    let mut g = c.benchmark_group("event_core");
    // 256 SDs, 12 steps, LB every 4 — arrivals, per-node scheduling and
    // realized migration epochs all on the measured path.
    // (a heterogeneous cluster — one 2x-fast node — so the balancer
    // actually plans and realizes migrations inside the event loop)
    let lb_cfg = Scenario::square(400, 8.0, 25, 12)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0]))
        .with_lb(LbSchedule::every(4));
    g.bench_function("sim_lb_256sd_4n_12st", |b| {
        b.iter(|| black_box(simulate(&lb_cfg)))
    });
    // 1024 SDs over 8 nodes without LB: pure ghost-arrival + scheduling
    // throughput at 4x the SD count.
    let nolb_cfg = Scenario::square(800, 8.0, 25, 6).on(ClusterSpec::uniform(8, 2));
    g.bench_function("sim_nolb_1024sd_8n_6st", |b| {
        b.iter(|| black_box(simulate(&nolb_cfg)))
    });
    g.finish();
}

fn halo_codec_bench(c: &mut Criterion) {
    init();
    // One paper-scale side patch: 8x50 cells at eps = 8h.
    let mut tile = Tile::new(50, 8);
    for (i, (x, y)) in tile.interior_rect().cells().enumerate() {
        tile.set(x, y, (i % 13) as f64 * 0.1);
    }
    let edge = Rect::new(0, 0, 8, 50);
    let halo_rect = Rect::new(-8, 0, 8, 50);
    let wire_cap = edge.area() as usize * 8 + 8;

    let mut g = c.benchmark_group("halo");
    // The strided rows streamed straight onto / off the wire, no
    // intermediate Vec<f64>.
    let pack = |tile: &Tile| {
        let mut buf = BytesMut::with_capacity(wire_cap);
        nlheat_amt::codec::encode_f64_rows(edge.area() as usize, tile.rect_rows(&edge), &mut buf);
        buf.freeze()
    };
    g.bench_function("pack_zerocopy_8x50", |b| b.iter(|| black_box(pack(&tile))));
    let packed = pack(&tile);
    g.bench_function("unpack_zerocopy_8x50", |b| {
        b.iter(|| {
            let mut payload = packed.clone();
            nlheat_amt::codec::decode_f64_rows(&mut payload, tile.rect_rows_mut(&halo_rect))
                .unwrap();
        })
    });
    // The other end of the scale, where the 8x50 pair is blind: one rank's
    // whole bundle of the repository benchmark's `dist_ghost_heavy` — 4 602
    // records of 16-20 cells in rows of 4 or 5 — packed from its 800 tiles
    // and scattered into them record by record, exactly as the driver's
    // send phase and bundle continuation do. Per-record cost (header, row
    // dispatch, a copy of 32-40 bytes) is all there is to time here.
    let sds = SdGrid::tile_mesh(200, 200, 5);
    let halo = Grid::square(200, 4.0).halo;
    let owners = scenarios::drifted_owners(&sds, 2);
    let plans: Vec<_> = sds
        .ids()
        .map(|id| build_halo_plan(&sds, halo, id))
        .collect();
    let reverse = reverse_index(&plans);
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
    g.bench_function("bundle_pack_ghost_heavy", |b| {
        b.iter(|| black_box(mine.sends[0].pack(&mut tiles, |tile| tile)))
    });
    let incoming = peer.sends[0].pack(&mut tiles_of(&peer), |tile| tile);
    let records = &mine.recvs[0].records;
    assert_eq!(records.len(), 4602);
    g.bench_function("bundle_scatter_ghost_heavy", |b| {
        b.iter(|| {
            let mut payload = incoming.clone();
            for rec in records {
                let rows = tiles[rec.tile as usize].rect_rows_mut(&rec.rect);
                nlheat_amt::codec::decode_ghost_record(&mut payload, rec.header(), rows).unwrap();
            }
            assert!(payload.is_empty());
        })
    });
    g.finish();
}

fn kernel_bench(c: &mut Criterion) {
    init();
    // One paper-scale SD (50x50 DPs, eps = 8h) and a serial-solver-scale
    // region (200x200) where cache behaviour dominates.
    let grid = Grid::square(400, 8.0);
    let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
    let dt = kernel.stable_dt(0.5);
    let src = zero_source();
    // which instantiation `blocked_*` (and every solver below) ran
    criterion::record_meta("vector_level", VectorLevel::detect().name());

    let mut g = c.benchmark_group("kernel");
    for (label, n) in [("50x50", 50i64), ("200x200", 200i64)] {
        let mut curr = Tile::new(n, grid.halo);
        for (i, (x, y)) in curr.interior_rect().cells().enumerate() {
            curr.set(x, y, (i % 13) as f64 * 0.1);
        }
        let mut next = Tile::new(n, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let region = curr.interior_rect();
        g.bench_function(&format!("scalar_{label}_eps8h"), |b| {
            b.iter(|| {
                kernel.apply_region(
                    black_box(&curr),
                    &mut next,
                    &region,
                    &offsets,
                    (0, 0),
                    0.0,
                    dt,
                    &src,
                    1,
                );
            })
        });
        // The production kernel at the level the solvers run on this CPU
        // (`blocked_*`), and at the baseline level every CPU runs
        // (`blocked_baseline_*`) — the same entry twice where the CPU has
        // nothing wider.
        for (name, plan) in [
            ("blocked", kernel.plan(curr.stride())),
            (
                "blocked_baseline",
                kernel.plan_at(curr.stride(), VectorLevel::Baseline),
            ),
        ] {
            g.bench_function(&format!("{name}_{label}_eps8h"), |b| {
                b.iter(|| {
                    kernel.apply_region_blocked(
                        black_box(&curr),
                        &mut next,
                        &region,
                        &plan,
                        (0, 0),
                        0.0,
                        dt,
                        &src,
                        1,
                    );
                })
            });
        }
    }
    g.finish();
}

fn e2e_bench(c: &mut Criterion) {
    init();
    let mut g = c.benchmark_group("e2e");
    let baseline = scenarios::paper_baseline(true);
    g.bench_function("paper_baseline_quick_sim", |b| {
        b.iter(|| black_box(baseline.run_sim()))
    });
    g.bench_function("paper_baseline_quick_dist", |b| {
        b.iter(|| black_box(baseline.run_dist()))
    });
    let lopsided = scenarios::lopsided_two_rack(true);
    g.bench_function("lopsided_two_rack_quick_sim", |b| {
        b.iter(|| black_box(lopsided.run_sim()))
    });
    g.finish();
}

fn sweep_bench(c: &mut Criterion) {
    init();
    // Sweep throughput (runs/second) is a first-class performance surface:
    // a 16-run λ × μ grid of tree-planner simulations on the two-rack
    // workload, through the parallel runner at 1 and 4 workers. On a
    // multi-core host the 4-worker leg should be well under the 1-worker
    // leg; on any host it must not be slower beyond queue overhead — the
    // `bench_gate` pair check enforces exactly that.
    let mut g = c.benchmark_group("sweep");
    let base = Scenario::square(200, 8.0, 25, 8)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(scenarios::two_rack_net());
    for (label, parallelism) in [("1thr", 1usize), ("4thr", 4)] {
        let sweep = ScenarioSweep::new(base.clone())
            .axis(Axis::numeric("lambda", &[0.0, 0.5, 1.0, 2.0], |sc, l| {
                sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::tree(l)))
            }))
            .axis(Axis::numeric(
                "mu",
                &[0.0, 0.05, 0.1, 0.25],
                |mut sc, mu| {
                    if let Some(lb) = &mut sc.lb {
                        lb.spec = lb.spec.clone().with_mu(mu);
                    }
                    sc
                },
            ))
            .with_parallelism(parallelism);
        g.bench_function(&format!("quick_grid_16runs_{label}"), |b| {
            b.iter(|| black_box(sweep.run_collect(&SimSubstrate)))
        });
    }
    g.finish();
}

fn pool_bench(c: &mut Criterion) {
    init();
    // Raw spawn/steal throughput of the AMT pool: 1024 tiny tasks pushed
    // through the injector and drained by the workers, measured at one
    // worker (no contention — pure deque overhead) and at eight (every
    // worker fighting over the injector and each other's deques). Locked
    // and lock-free (Chase–Lev) deques read alike here: 10 alternating
    // pairs on a 2-vCPU VM, median of 200 loops, lock-free → locked,
    // 1 worker 446 → 473 µs, 8 workers 1245 → 1176 µs.
    use nlheat_amt::pool::ThreadPool;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut g = c.benchmark_group("pool");
    for (label, workers) in [("1thr", 1usize), ("8thr", 8)] {
        let pool = ThreadPool::new(workers, &format!("bench-{label}"));
        g.bench_function(&format!("spawn_steal_{label}"), |b| {
            b.iter(|| {
                let hits = Arc::new(AtomicU64::new(0));
                for _ in 0..1024 {
                    let hits = hits.clone();
                    pool.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                pool.wait_idle();
                assert_eq!(hits.load(Ordering::Relaxed), 1024);
            })
        });
    }
    g.finish();
}

fn plan_bench(c: &mut Criterion) {
    init();
    // Plan-time regression at cluster scale, on the plan_scale harness the
    // A10b figure sweeps: the flat tree planner at 1000 ranks (10 SDs/rank
    // — its global walk is quadratic in ranks, so the lower density keeps
    // it inside a bench budget), the hierarchical planner at 10k ranks
    // over a million SDs, and the cut-aware repartitioning decorator at
    // the same 10k-rank scale. The repart leg is configured so *every*
    // iteration takes the replan path (threshold 0.5 sits below any real
    // live/fresh cut ratio, period 1, unbounded budget drains the staged
    // diff each call): one iteration = one full multilevel
    // `repartition_capacitated` over the million-SD graph plus the
    // old→new diff, the dominant cost a drift-triggered epoch pays.
    // Grid, SD graph and modeled busy times are built once outside the
    // timer; the measured quantity is exactly one `plan` call, the same
    // invocation `PlanSubstrate` wall-clocks. The snapshot band keeps the
    // hierarchical planner's near-linearity honest — a superlinear
    // regression at 10k ranks blows far past any tolerance.
    let mut g = c.benchmark_group("plan");
    for (label, sc, spec) in [
        (
            "flat_1k",
            scenarios::plan_scale_with_density(1000, 10),
            LbSpec::tree(0.0),
        ),
        (
            "hier_10k",
            scenarios::plan_scale(10_000),
            LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
        ),
        (
            "repart_10k",
            scenarios::plan_scale(10_000),
            // λ=1e9 gates the inner tree so a surprise non-replan epoch
            // stays cheap instead of paying the quadratic flat walk.
            LbSpec::repartition(LbSpec::tree(1e9), 0.5, 1, u64::MAX),
        ),
    ] {
        let (ownership, metrics, net) = plan_inputs(&sc);
        // a policy per call: the repartition decorator remembers its
        // fresh partition, and this entry is the call that computes it
        g.bench_function(label, |b| {
            b.iter(|| black_box(spec.build().plan(&ownership, &metrics, &net)))
        });
    }
    // The other end of the scale, which the entries above cannot see
    // (`node_adjacency` or the partitioner dominates them): one leaf plan
    // on the library's full-size `lopsided_two_rack` — 256 SDs, 4 ranks, a
    // Fig.-14 start — where realizing the transfers, i.e. frontier ring
    // growth in `balance::transfer`, is most of the call. `tree_mu` and
    // `greedy` are the one-SD-per-call paths (μ active, or stealing one SD
    // at a time). Ring growth that scans the whole grid through a hash set
    // per ring again reads 9-19x here.
    let sc = scenarios::lopsided_two_rack(false);
    let (ownership, metrics, net) = plan_inputs(&sc);
    for (label, spec) in [
        ("tree_256sd", LbSpec::tree(0.0)),
        ("tree_mu_256sd", LbSpec::tree(0.0).with_mu(0.25)),
        ("greedy_256sd", LbSpec::greedy_steal(1)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| black_box(spec.build().plan(&ownership, &metrics, &net)))
        });
    }
    // The planning substrate at the repository benchmark's `plan_scale`
    // shape (2500 ranks, 250k SDs): building the SD graph every plan
    // reads, and the drift monitor's *steady* tick — the second and later
    // `plan` calls of one repartition policy whose membership, caps and
    // footprints did not change, which reuse the fresh partition the first
    // call computed. A builder back on per-vertex hash maps, or a monitor
    // that repartitions every tick again, lands far outside the band
    // (2-3x and ~15x).
    let sc = scenarios::plan_scale(2500);
    g.bench_function("sdgraph_build_250k", |b| {
        b.iter(|| black_box(sc.sd_graph()))
    });
    let (ownership, metrics, net) = plan_inputs(&sc);
    let mut monitor = LbSpec::repartition(LbSpec::tree(1e9), 0.5, 1, u64::MAX).build();
    black_box(monitor.plan(&ownership, &metrics, &net));
    g.bench_function("repart_monitor_steady", |b| {
        b.iter(|| black_box(monitor.plan(&ownership, &metrics, &net)))
    });
    g.finish();
}

/// What one `plan` call reads, built the way both substrates build it.
fn plan_inputs(sc: &Scenario) -> (Ownership, LoadMetrics, LbNetwork) {
    let sds = sc.sd_grid();
    let n_nodes = sc.cluster.len() as u32;
    let owners = sc.partition.initial_owners(&sds, n_nodes);
    let busy = modeled_busy(
        &sds,
        &owners,
        n_nodes,
        work_at(&sc.work, &sc.work_schedule, 0),
        &sc.cluster.speed_factors(),
        sc.sec_per_dp(),
    );
    let ownership = Ownership::new(sds, owners, n_nodes);
    let metrics = compute_metrics(&ownership.counts(), &busy);
    let net = LbNetwork::for_sd_tiles(&sc.net, sds.cells_per_sd())
        .with_sd_graph(std::sync::Arc::new(sc.sd_graph()));
    (ownership, metrics, net)
}

fn dist_bench(c: &mut Criterion) {
    init();
    let mut g = c.benchmark_group("dist");
    // One straggler SD on a single 4-core locality: SD 0 costs 8x its
    // peers, so without intra-step stealing three workers idle at the step
    // barrier while one grinds the hot SD. The snapshot seed was captured
    // with stealing off on the mutex-shim deque; the current entry runs
    // with stealing on, so the band also guards the chunked task path.
    let mut work = vec![1.0f64; 16];
    work[0] = 8.0;
    let straggler = Scenario::square(64, 4.0, 16, 4)
        .on(ClusterSpec::uniform(1, 4))
        .with_work(nlheat_core::WorkModel::PerSd(work))
        .with_intra_step_stealing(true);
    g.bench_function("step_straggler", |b| {
        b.iter(|| black_box(straggler.run_dist()))
    });
    // The many-patch exchange: 400 five-cell SDs whose columns alternate
    // between 2 ranks, so every SD trades ~20 tiny patches with the other
    // rank each step (the repository benchmark's `dist_ghost_heavy` at a
    // quarter of its size). The kernel is negligible; what is timed is
    // the halo exchange — per *message* cost if patches travel one by
    // one, per *byte* cost when each rank pair shares one bundle a step.
    let base = Scenario::square(100, 4.0, 5, 4);
    let owners = scenarios::drifted_owners(&base.sd_grid(), 2);
    let ghost_heavy = base
        .on(ClusterSpec::uniform(2, 1))
        .with_partition(PartitionSpec::Explicit(owners));
    g.bench_function("step_ghost_heavy", |b| {
        b.iter(|| black_box(ghost_heavy.run_dist()))
    });
    g.finish();
}

criterion_group!(
    benches,
    event_core_bench,
    halo_codec_bench,
    kernel_bench,
    e2e_bench,
    sweep_bench,
    pool_bench,
    plan_bench,
    dist_bench
);
criterion_main!(benches);
