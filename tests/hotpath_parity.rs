//! Numerics pin for the hot-path optimizations: the 8-wide register-blocked
//! kernel, the zero-copy halo codec and the pooled migration buffers must
//! be invisible in the results. Every optimized path is compared against
//! the retained scalar/copying reference — `apply_region` with a flat
//! offset table, and `pack` + `Vec<f64>`'s element-wise `Wire` encoding —
//! bit for bit, at scenario scope. CI runs this file in release as well:
//! the kernel's vectorised form only exists under the optimiser.

use bytes::BytesMut;
use nlheat_amt::codec::{decode_f64_rows, encode_f64_rows};
use nlheat_amt::counters::threads_counter_name;
use nlheat_core::ghost::{reverse_index, GhostSchedule};
use nlheat_mesh::{build_halo_plan, Rect, Tile};
use nonlocalheat::prelude::*;

/// Row stride of the one tile that holds the whole mesh.
fn whole_mesh_stride(parts: &ProblemParts) -> i64 {
    Tile::new(parts.grid.nx, parts.grid.halo).stride()
}

/// Forward-Euler on one whole-mesh tile, `step(curr, next, region, t)`
/// being one time step; returns the final interior, row-major.
fn integrate_whole_mesh(
    sc: &Scenario,
    parts: &ProblemParts,
    mut step: impl FnMut(&Tile, &mut Tile, &Rect, f64),
) -> Vec<f64> {
    let grid = parts.grid;
    let mut curr = Tile::new(grid.nx, grid.halo);
    let region = curr.interior_rect();
    for (gi, gj) in region.cells() {
        curr.set(gi, gj, parts.manufactured.initial(gi, gj));
    }
    let mut next = Tile::new(grid.nx, grid.halo);
    for k in 0..sc.steps {
        step(&curr, &mut next, &region, k as f64 * parts.dt);
        std::mem::swap(&mut curr, &mut next);
    }
    curr.pack(&region)
}

/// The whole-mesh integration via the *scalar* kernel path — the
/// pre-optimization reference the runtimes are pinned against.
fn scalar_reference_field(sc: &Scenario) -> Vec<f64> {
    let parts = sc.problem.build();
    let offsets = parts
        .kernel
        .storage_offsets(parts.grid.nx + 2 * parts.grid.halo);
    let source = parts.manufactured.source_fn();
    integrate_whole_mesh(sc, &parts, |curr, next, region, t| {
        parts.kernel.apply_region(
            curr,
            next,
            region,
            &offsets,
            (0, 0),
            t,
            parts.dt,
            &source,
            1,
        );
    })
}

/// 23-cell SDs whose ghost-dependent margins are 3 = 2+1 cells wide: the
/// regions the runtime updates are 3 cells wide, or 23 = 8+8+4+2+1 less
/// one or two margins (20 = 8+8+4, 17 = 8+8+1), so every segment width of
/// the kernel runs — on non-uniform (triangular) weights, with the slower
/// rank repeating its sums 3×.
fn odd_tiles() -> Scenario {
    let mut sc = Scenario::square(46, 3.0, 23, 5).on(ClusterSpec::speeds(&[1.0, 0.4]));
    sc.problem.influence = Influence::Triangular;
    sc
}

fn pinned_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("paper-baseline", scenarios::paper_baseline(true)),
        ("lopsided-two-rack", scenarios::lopsided_two_rack(true)),
        ("odd-tiles", odd_tiles()),
    ]
}

#[test]
fn optimized_runtime_matches_scalar_reference_bitwise() {
    // The real runtime now runs the blocked kernel, streams halos through
    // the zero-copy codec and recycles migration tiles — the field must
    // still equal the scalar single-tile integration bit for bit.
    for (name, sc) in pinned_scenarios() {
        let reference = scalar_reference_field(&sc);
        let report = sc.run_dist();
        let field = report.field.expect("real runs carry the field");
        assert_eq!(field.len(), reference.len(), "{name}");
        for (i, (got, want)) in field.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: cell {i} diverged from the scalar reference"
            );
        }
    }
}

#[test]
fn intra_step_stealing_matches_scalar_reference_bitwise() {
    // Intra-step stealing chops each SD's update into row-band tasks that
    // race across pool workers and write `next` through a raw pointer —
    // a pure scheduling change. On multi-core re-clusterings of the
    // pinned scenarios (1-core nodes give thieves nothing to steal), the
    // field must still equal the scalar reference bit for bit.
    for (name, sc) in pinned_scenarios() {
        let reference = scalar_reference_field(&sc);
        let cores = ClusterSpec::uniform(sc.cluster.nodes.len(), 4);
        let sc = sc.on(cores).with_intra_step_stealing(true);
        let report = sc.run_dist();
        let field = report.field.as_ref().expect("real runs carry the field");
        assert_eq!(field.len(), reference.len(), "{name}");
        for (i, (got, want)) in field.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: cell {i} diverged under intra-step stealing"
            );
        }
        let steals: u64 = (0..report.busy.len() as u32)
            .map(|r| report.counter(&threads_counter_name(r, "count/steals")))
            .map(|steals| steals.expect("a pool counter"))
            .sum();
        assert!(steals > 0, "{name}: stealing run scheduled no steals");
    }
}

#[test]
fn serial_solver_blocked_path_matches_scalar_reference() {
    // The serial solver switched to the blocked kernel too; pin it against
    // the same scalar reference.
    for (name, sc) in pinned_scenarios() {
        let reference = scalar_reference_field(&sc);
        let parts = sc.problem.build();
        let mut serial = SerialSolver::manufactured(&parts);
        serial.run(sc.steps);
        assert_eq!(serial.field(), reference, "{name}");
    }
}

#[test]
fn every_vector_level_integrates_to_the_scalar_reference() {
    // The solvers above run the level the CPU reports; a rank on another
    // machine may run another. Whole-mesh integration through the blocked
    // kernel at *each* level this CPU has must give the same bits.
    for (name, sc) in pinned_scenarios() {
        let reference = scalar_reference_field(&sc);
        let parts = sc.problem.build();
        let source = parts.manufactured.source_fn();
        for level in VectorLevel::available() {
            let plan = parts.kernel.plan_at(whole_mesh_stride(&parts), level);
            let field = integrate_whole_mesh(&sc, &parts, |curr, next, region, t| {
                parts.kernel.apply_region_blocked(
                    curr,
                    next,
                    region,
                    &plan,
                    (0, 0),
                    t,
                    parts.dt,
                    &source,
                    1,
                );
            });
            assert_eq!(field, reference, "{name} at {level:?}");
        }
    }
}

#[test]
fn report_counters_unchanged_across_substrates() {
    // Plan-derived counters must not notice the optimizations: under
    // modeled planning input both substrates still produce identical plan
    // sequences, final ownership and planner-grade byte counters.
    for (name, sc) in pinned_scenarios() {
        let sc = sc.with_lb_input(LbInput::Modeled);
        let sim = sc.run_sim();
        let real = sc.run_dist();
        assert_eq!(sim.lb_plans, real.lb_plans, "{name}");
        assert_eq!(
            sim.final_ownership.owners(),
            real.final_ownership.owners(),
            "{name}"
        );
        assert_eq!(
            (sim.ghost_bytes, sim.inter_rack_ghost_bytes),
            (real.ghost_bytes, real.inter_rack_ghost_bytes),
            "{name}"
        );
        assert_eq!(
            (sim.migrations, sim.migration_bytes),
            (real.migrations, real.migration_bytes),
            "{name}"
        );
    }
}

#[test]
fn zero_copy_codec_wire_format_matches_copying_path() {
    // Same payload bytes on the wire, same values after decode — the
    // zero-copy rows codec is a drop-in for pack + element-wise encode.
    let mut tile = Tile::new(12, 3);
    for (i, (x, y)) in tile.padded_rect().cells().enumerate() {
        tile.set(x, y, (i as f64).sin());
    }
    for rect in [
        Rect::new(0, 0, 3, 12),  // case-2 edge strip
        Rect::new(-3, 0, 3, 12), // halo destination strip
        Rect::new(0, 0, 12, 12), // whole interior (migration payload)
    ] {
        let copied = tile.pack(&rect).to_bytes();
        let streamed = {
            let mut buf = BytesMut::new();
            encode_f64_rows(rect.area() as usize, tile.rect_rows(&rect), &mut buf);
            buf.freeze()
        };
        assert_eq!(
            copied, streamed,
            "wire bytes must be identical for {rect:?}"
        );

        let mut via_vec = Tile::new(12, 3);
        let values = Vec::<f64>::from_bytes(copied).unwrap();
        for ((x, y), v) in rect.cells().zip(values) {
            via_vec.set(x, y, v);
        }
        let mut via_rows = Tile::new(12, 3);
        decode_f64_rows(&mut streamed.clone(), via_rows.rect_rows_mut(&rect)).unwrap();
        assert_eq!(via_vec, via_rows, "decoded tiles must match for {rect:?}");
    }

    // ... and at the other end of the scale, where rows are four or five
    // cells and go through the codec's fixed-width arms: one rank's whole
    // send bundle of the ghost-heavy shape (4 602 records), record by
    // record against header words + pack + element-wise encode.
    let sds = SdGrid::tile_mesh(200, 200, 5);
    let halo = Grid::square(200, 4.0).halo;
    let plans: Vec<_> = sds
        .ids()
        .map(|id| build_halo_plan(&sds, halo, id))
        .collect();
    let owners = scenarios::drifted_owners(&sds, 2);
    let schedule = GhostSchedule::build(&plans, &reverse_index(&plans), &owners, 0);
    let mut tiles: Vec<Tile> = schedule
        .owned
        .iter()
        .map(|&sd| {
            let mut tile = Tile::new(sds.sd, halo);
            for (i, (x, y)) in tile.padded_rect().cells().enumerate() {
                tile.set(x, y, (f64::from(sd) * 0.7 + i as f64).sin());
            }
            tile
        })
        .collect();
    let bundle = &schedule.sends[0];
    assert_eq!(bundle.records.len(), 4602);
    let packed = bundle.pack(&mut tiles, |tile| tile);
    let mut at = 0;
    for rec in &bundle.records {
        let header = rec.header();
        let mut copied = BytesMut::new();
        header.dst_sd.encode(&mut copied);
        header.pidx.encode(&mut copied);
        tiles[rec.tile as usize].pack(&rec.rect).encode(&mut copied);
        assert_eq!(
            &packed[at..at + copied.len()],
            &copied[..],
            "record {header} at byte {at}"
        );
        at += copied.len();
    }
    assert_eq!(at, packed.len());
}
