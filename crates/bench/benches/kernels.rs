//! Microbenchmarks of the hot paths: the nonlocal stencil kernel, halo
//! pack/unpack, the partitioner and one Algorithm-1 planning round.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nlheat_core::balance::{compute_metrics, plan_rebalance, LbNetwork, MoveWeights};
use nlheat_core::ownership::Ownership;
use nlheat_mesh::{Grid, Rect, SdGrid, Tile};
use nlheat_model::{zero_source, Influence, NonlocalKernel};
use nlheat_partition::part_mesh_dual;

fn kernel_bench(c: &mut Criterion) {
    // One paper-scale SD: 50x50 DPs, eps = 8h on a 400x400 mesh.
    let grid = Grid::square(400, 8.0);
    let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
    let mut curr = Tile::new(50, grid.halo);
    for (i, (x, y)) in curr.interior_rect().cells().enumerate() {
        curr.set(x, y, (i % 13) as f64 * 0.1);
    }
    let mut next = Tile::new(50, grid.halo);
    let plan = kernel.plan(curr.stride());
    let region = curr.interior_rect();
    let dt = kernel.stable_dt(0.5);
    let src = zero_source();

    let mut g = c.benchmark_group("kernel");
    g.bench_function("apply_sd_50x50_eps8h", |b| {
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
    g.finish();
}

fn halo_bench(c: &mut Criterion) {
    let mut tile = Tile::new(50, 8);
    tile.fill_rect(&Rect::new(0, 0, 50, 50), 1.5);
    let edge = Rect::new(0, 0, 8, 50); // a side patch at eps = 8h
    let packed = tile.pack(&edge);
    let halo_rect = Rect::new(-8, 0, 8, 50);

    let mut g = c.benchmark_group("halo");
    g.bench_function("pack_8x50", |b| b.iter(|| black_box(tile.pack(&edge))));
    g.bench_function("unpack_8x50", |b| {
        b.iter(|| tile.unpack(&halo_rect, black_box(&packed)))
    });
    g.finish();
}

fn partition_bench(c: &mut Criterion) {
    let sds = SdGrid::new(16, 16, 50); // the Fig. 13 coarse mesh
    let mut g = c.benchmark_group("partition");
    g.sample_size(20);
    g.bench_function("part_mesh_dual_256sd_8way", |b| {
        b.iter(|| black_box(part_mesh_dual(&sds, 8, 1)))
    });
    g.finish();
}

fn balance_bench(c: &mut Criterion) {
    let sds = SdGrid::new(16, 16, 50);
    let parts = part_mesh_dual(&sds, 8, 1);
    let own = Ownership::from_partition(sds, &parts);
    // skew busy times so the plan actually moves SDs
    let busy: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.3).collect();
    let mut g = c.benchmark_group("balance");
    g.sample_size(20);
    g.bench_function("rebalance_256sd_8nodes", |b| {
        b.iter(|| {
            let metrics = compute_metrics(&own.counts(), &busy);
            black_box(plan_rebalance(
                &own,
                &metrics,
                &LbNetwork::free(),
                MoveWeights::default(),
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    kernel_bench,
    halo_bench,
    partition_bench,
    balance_bench
);
criterion_main!(benches);
