//! Property-based tests of the core invariants (proptest).

use bytes::Bytes;
use nonlocalheat::amt::codec::{decode_f64_rows, encode_f64_rows, Wire};
use nonlocalheat::amt::rendezvous::Rendezvous;
use nonlocalheat::core::balance::{
    compute_metrics, plan_rebalance, LbNetwork, LbSpec, MoveWeights,
};
use nonlocalheat::core::ghost::{
    group_by_work, halo_plans, GhostSchedule, RankBundle, Region, RegionCut, StepLayout,
    TASK_WORK_FLOOR,
};
use nonlocalheat::core::ownership::Ownership;
use nonlocalheat::mesh::{build_halo_plan, split_cases, PatchSource, Rect, SdGrid};
use nonlocalheat::netmodel::{CommCost, LinkSpec, NetSpec, TopologySpec};
use nonlocalheat::partition::{balance as part_balance, part_graph, Csr, PartitionConfig, SdGraph};
use proptest::prelude::*;
use std::sync::Arc;

// ---------- codec ----------

proptest! {
    #[test]
    fn codec_roundtrip_f64_vec(values in proptest::collection::vec(-1e12f64..1e12, 0..200)) {
        // the row codec against `Vec<f64>`'s element-wise `Wire` impl,
        // in both directions
        let mut buf = bytes::BytesMut::new();
        encode_f64_rows(values.len(), values.chunks(7), &mut buf);
        let mut b = buf.freeze();
        prop_assert_eq!(&b, &values.to_bytes());
        prop_assert_eq!(&Vec::<f64>::decode(&mut b.clone()).unwrap(), &values);
        let mut back = vec![0.0; values.len()];
        decode_f64_rows(&mut b, back.chunks_mut(5)).unwrap();
        prop_assert_eq!(back, values);
        prop_assert_eq!(b.len(), 0);
    }

    #[test]
    fn codec_roundtrip_nested(
        a in any::<u64>(),
        b in any::<u32>(),
        s in "[a-z]{0,12}",
        v in proptest::collection::vec(any::<bool>(), 0..20),
    ) {
        let value = (a, (b, s.clone()), v.clone());
        let bytes = value.to_bytes();
        let back = <(u64, (u32, String), Vec<bool>)>::from_bytes(bytes).unwrap();
        prop_assert_eq!(back, value);
    }

    #[test]
    fn codec_rejects_truncation(payload in proptest::collection::vec(any::<u64>(), 1..20)) {
        let bytes = payload.to_bytes();
        // any strict prefix must fail to decode as the same type
        let cut = bytes.len() - 1;
        let res = Vec::<u64>::from_bytes(bytes.slice(0..cut));
        prop_assert!(res.is_err());
    }
}

// ---------- rendezvous ----------

proptest! {
    #[test]
    fn rendezvous_any_interleaving_matches(order in proptest::collection::vec(any::<bool>(), 1..40)) {
        // For each tag t we either expect-then-deliver or deliver-then-
        // expect depending on the generated boolean; all must match.
        let rv = Rendezvous::new();
        let mut futures = Vec::new();
        for (t, first_expect) in order.iter().enumerate() {
            let tag = t as u64;
            let payload = Bytes::from(tag.to_le_bytes().to_vec());
            if *first_expect {
                futures.push((tag, rv.expect(tag)));
                rv.deliver(tag, payload);
            } else {
                rv.deliver(tag, payload);
                futures.push((tag, rv.expect(tag)));
            }
        }
        for (tag, fut) in futures {
            let got = fut.get();
            prop_assert_eq!(got.as_ref(), &tag.to_le_bytes());
        }
        prop_assert_eq!(rv.outstanding(), 0);
    }
}

// ---------- halo plans & case splits ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn halo_patches_tile_ring(
        nsx in 1i64..6,
        nsy in 1i64..6,
        sd in 1i64..8,
        halo in 0i64..10,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, sd as usize);
        for id in grid.ids() {
            let plan = build_halo_plan(&grid, halo, id);
            let padded = Rect::new(-halo, -halo, sd + 2 * halo, sd + 2 * halo);
            let interior = Rect::new(0, 0, sd, sd);
            let mut covered = 0i64;
            for (i, p) in plan.patches.iter().enumerate() {
                covered += p.dst_rect.area();
                prop_assert!(padded.contains_rect(&p.dst_rect));
                prop_assert!(p.dst_rect.intersect(&interior).is_empty());
                for q in plan.patches.iter().skip(i + 1) {
                    prop_assert!(p.dst_rect.intersect(&q.dst_rect).is_empty());
                }
            }
            prop_assert_eq!(covered, padded.area() - interior.area());
        }
    }

    #[test]
    fn case_split_tiles_interior(
        nsx in 2i64..5,
        nsy in 2i64..5,
        sd in 2i64..8,
        halo in 1i64..6,
        owner_bits in any::<u64>(),
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, sd as usize);
        for id in grid.ids() {
            let plan = build_halo_plan(&grid, halo, id);
            let split = split_cases(sd, halo, &plan, |n| (owner_bits >> (n % 64)) & 1 == 1);
            let mut area = split.case2.area();
            for (i, r) in split.case1().iter().enumerate() {
                area += r.area();
                prop_assert!(r.intersect(&split.case2).is_empty());
                for q in split.case1().iter().skip(i + 1) {
                    prop_assert!(r.intersect(q).is_empty());
                }
            }
            prop_assert_eq!(area, sd * sd);
        }
    }
}

// ---------- ghost exchange schedule ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn ghost_bundles_mirror_and_sum_to_the_cut(
        nsx in 2i64..6,
        nsy in 2i64..6,
        sd in 2i64..6,
        halo in 1i64..9,
        n_ranks in 2u32..5,
        seed in any::<u64>(),
    ) {
        // Every rank derives its schedule on its own; nothing but the
        // shared ordering rule keeps sender and receiver in step.
        let grid = SdGrid::new(nsx as usize, nsy as usize, sd as usize);
        let (plans, reverse) = halo_plans(&grid, halo);
        let owners = scrambled_owners(grid.count(), n_ranks, seed);
        let schedules: Vec<GhostSchedule> = (0..n_ranks)
            .map(|me| GhostSchedule::build(&plans, &reverse, &owners, me))
            .collect();
        let keys = |b: &RankBundle| -> Vec<_> {
            b.records.iter().map(|r| (r.dst_sd, r.pidx, r.rect.area())).collect()
        };
        let mut payload = 0u64;
        for (src, sender) in schedules.iter().enumerate() {
            for (dst, receiver) in schedules.iter().enumerate() {
                let sent = sender.sends.iter().find(|b| b.peer as usize == dst);
                let expected = receiver.recvs.iter().find(|b| b.peer as usize == src);
                prop_assert_eq!(sent.map(keys), expected.map(keys), "pair {} -> {}", src, dst);
                prop_assert_eq!(
                    sent.map(|b| b.wire_bytes),
                    expected.map(|b| b.wire_bytes)
                );
                payload += sent.map_or(0, |b| b.wire_bytes as u64);
            }
            // every record reads from / writes into a tile this rank owns
            for bundle in sender.sends.iter().chain(&sender.recvs) {
                prop_assert!(bundle.peer as usize != src && !bundle.records.is_empty());
                for r in &bundle.records {
                    prop_assert_eq!(owners[sender.owned[r.tile as usize] as usize], src as u32);
                }
            }
        }
        // the bundles carry exactly the planner's view of the recurring
        // traffic under this ownership
        prop_assert_eq!(payload, SdGraph::build(&grid, halo).cut_bytes(&owners));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn step_layout_is_an_exact_cover(
        nsx in 2i64..6,
        nsy in 2i64..6,
        sd in 2i64..6,
        halo in 1i64..9,
        n_ranks in 2u32..5,
        overlap in any::<bool>(),
        band in 0i64..4,
        seed in any::<u64>(),
    ) {
        // What a rank replays every step of an ownership epoch, derived
        // from a random owner map: halo <= and > the SD, overlap on and
        // off, stealing off (band 0) and on.
        let grid = SdGrid::new(nsx as usize, nsy as usize, sd as usize);
        let (plans, reverse) = halo_plans(&grid, halo);
        let owners = scrambled_owners(grid.count(), n_ranks, seed);
        let cut = RegionCut { sd, halo, overlap, band: (band > 0).then_some(band) };
        // a scrambled half of the SDs is heavy enough for tasks of its own
        let heavy = |sd_id: u32| (seed.rotate_left(sd_id % 64) ^ u64::from(sd_id)) & 1 == 0;
        let work_per_cell = |sd_id: u32| if heavy(sd_id) { TASK_WORK_FLOOR } else { 13 };
        for me in 0..n_ranks {
            let layout = StepLayout::build(&plans, &reverse, &owners, me, &cut);
            let owned = &layout.schedule.owned;
            let n = owned.len() as u32;

            // the flat fill list is exactly the local-source patches, one
            // visit per destination tile
            let mut want_fills = Vec::new();
            for &dst in owned {
                for patch in &plans[dst as usize].patches {
                    if let PatchSource::Sd(src) = patch.source {
                        if owners[src as usize] == me {
                            want_fills.push((dst, src, patch.src_rect, patch.dst_rect));
                        }
                    }
                }
            }
            let sd_of = |tile: u32| owned[tile as usize];
            let fills: Vec<_> = layout
                .fills
                .iter()
                .map(|f| (sd_of(f.dst_tile), sd_of(f.src_tile), f.src_rect, f.dst_rect))
                .collect();
            prop_assert_eq!(fills, want_fills);
            prop_assert!(layout.fills.windows(2).all(|w| w[0].dst_tile <= w[1].dst_tile));

            // deal the step's tasks the way the driver does: the at-spawn
            // lists once, and per incoming bundle (here: last rank first)
            // the gated lists of the tiles whose gate it takes to zero
            let work_of = |list: &[Region]| work_per_cell(sd_of(list[0].tile));
            let mut tasks: Vec<Vec<Region>> = Vec::new();
            let mut dealings = vec![0];
            let spawn_lists = layout.at_spawn.lists().map(|list| (list, work_of(list)));
            group_by_work(spawn_lists, &cut, |regions| tasks.push(regions.to_vec()));
            dealings.push(tasks.len());
            // a gate is armed with the number of bundles that carry
            // records for its tile, and only a gated tile awaits any
            let mut gates = layout.schedule.awaited.clone();
            for tile in 0..n {
                let carrying = layout.schedule.recvs.iter();
                let carrying = carrying.filter(|b| b.records.iter().any(|r| r.tile == tile));
                prop_assert_eq!(gates[tile as usize] as usize, carrying.count());
                let is_gated = !layout.gated.of(tile).is_empty();
                prop_assert_eq!(gates[tile as usize] > 0, is_gated, "tile {}", tile);
            }
            for bundle in layout.schedule.recvs.iter().rev() {
                let mut released = Vec::new();
                for run in bundle.records.chunk_by(|a, b| a.tile == b.tile) {
                    let gate = &mut gates[run[0].tile as usize];
                    *gate -= 1;
                    if *gate == 0 {
                        released.push(run[0].tile);
                    }
                }
                let lists = released.iter().map(|&tile| layout.gated.of(tile));
                let lists = lists.map(|list| (list, work_of(list)));
                group_by_work(lists, &cut, |regions| tasks.push(regions.to_vec()));
                dealings.push(tasks.len());
            }
            prop_assert!(gates.iter().all(|&g| g == 0));

            // the tasks' regions tile every owned interior exactly once
            let mut cover = vec![0u32; (n as i64 * sd * sd) as usize];
            for region in tasks.iter().flatten() {
                prop_assert!(Rect::new(0, 0, sd, sd).contains_rect(&region.rect));
                for (x, y) in region.rect.cells() {
                    cover[(i64::from(region.tile) * sd * sd + y * sd + x) as usize] += 1;
                }
            }
            prop_assert!(cover.iter().all(|&c| c == 1), "cover {:?}", cover);

            let task_work = |task: &[Region]| -> u64 {
                let work = |r: &Region| r.rect.area() as u64 * work_per_cell(sd_of(r.tile));
                task.iter().map(work).sum()
            };
            if let Some(band) = cut.band {
                // stealing on: a task is one row band, never more
                for task in &tasks {
                    prop_assert_eq!(task.len(), 1);
                    prop_assert!(task[0].rect.h <= band);
                }
            } else {
                for tile in 0..n {
                    let lists = [layout.at_spawn.of(tile), layout.gated.of(tile)];
                    let mine: Vec<_> = tasks
                        .iter()
                        .filter(|task| task.iter().any(|r| r.tile == tile))
                        .collect();
                    if heavy(sd_of(tile)) {
                        // at or above the floor: the task set of one task
                        // per SD and case, nothing merged in
                        let want = lists.iter().filter(|l| !l.is_empty()).count();
                        prop_assert_eq!(mine.len(), want);
                        prop_assert!(mine.iter().all(|task| task.iter().all(|r| r.tile == tile)));
                    }
                }
                // below it: only the last task of a dealing may fall short
                for deal in dealings.windows(2) {
                    let dealt = &tasks[deal[0]..deal[1]];
                    for task in dealt.iter().rev().skip(1) {
                        prop_assert!(task_work(task) >= TASK_WORK_FLOOR, "{:?}", task);
                    }
                }
            }
        }
    }
}

// ---------- partitioner ----------

fn random_grid_graph(w: usize, h: usize, weights: &[i64]) -> Csr {
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y), 1));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1), 1));
            }
        }
    }
    Csr::from_edges(w * h, &edges, weights.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn partition_is_valid_and_roughly_balanced(
        w in 3usize..9,
        h in 3usize..9,
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let weights = vec![1i64; w * h];
        let g = random_grid_graph(w, h, &weights);
        let p = part_graph(&g, &PartitionConfig::new(k).with_seed(seed));
        prop_assert_eq!(p.parts.len(), w * h);
        prop_assert!(p.parts.iter().all(|&x| x < k));
        if (k as usize) * 2 <= w * h {
            // every part non-empty when comfortably fewer parts than cells
            for part in 0..k {
                prop_assert!(p.parts.contains(&part), "part {} empty", part);
            }
            let b = part_balance(&g, &p.parts, k);
            prop_assert!(b < 1.7, "balance {} too skewed", b);
        }
    }
}

// ---------- load balancer ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn rebalance_plan_is_applicable_and_conserving(
        nsx in 2i64..6,
        nsy in 2i64..6,
        n_nodes in 1u32..5,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.1f64..10.0, 4),
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        // pseudo-random but deterministic ownership from the seed
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let plan = plan_rebalance(&own, &metrics, &LbNetwork::free(), MoveWeights::default());

        // 1. moves apply sequentially from the initial state
        let mut working = own.clone();
        for m in &plan.moves {
            prop_assert_eq!(working.owner(m.sd), m.from);
            prop_assert!(m.to < n_nodes);
            working.set_owner(m.sd, m.to);
        }
        // 2. result matches the plan's claimed new ownership
        prop_assert_eq!(&working, &plan.new_ownership);
        // 3. SD conservation
        prop_assert_eq!(
            working.counts().iter().sum::<usize>(),
            count
        );
        // 4. metrics imbalance sums to zero
        prop_assert_eq!(plan.metrics.imbalance.iter().sum::<i64>(), 0);
    }
}

// The single-hop invariant, across count-based and cost-aware plans:
// within one `MigrationPlan`, no SD may appear as a transfer source
// (`from`) after having appeared as a destination (`to`) — the
// distributed driver ships every migrating tile concurrently from its
// pre-epoch owner, so a chained plan would ask a node to forward a tile
// it never received (panic "migrating unowned SD", then cluster
// deadlock). Random ownerships, busy vectors and λ weights over a 2-rack
// topology whose uplink is slow enough for the λ gate to actually fire on
// some cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn no_sd_moves_again_after_arriving(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        lambda in 0.0f64..4.0,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let net = LbNetwork::from_spec(
            &NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-3, 1e6),
                inter_rack: LinkSpec::new(0.5, 2e4),
            }),
            4 * 4 * 8 + 24,
        );
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let plan = plan_rebalance(&own, &metrics, &net, MoveWeights::new(lambda, 0.0));

        let mut arrived = std::collections::HashSet::new();
        for m in &plan.moves {
            prop_assert!(
                !arrived.contains(&m.sd),
                "SD {} re-moved after arriving (λ={})", m.sd, lambda
            );
            // `from` is always the pre-epoch owner: the collapse folded
            // any internal chain into one direct hop
            prop_assert_eq!(own.owner(m.sd), m.from);
            prop_assert!(m.from != m.to);
            arrived.insert(m.sd);
        }
        // applying the single hops lands exactly on the claimed ownership
        let mut check = own.clone();
        for m in &plan.moves {
            check.set_owner(m.sd, m.to);
        }
        prop_assert_eq!(&check, &plan.new_ownership);
    }
}

// The same single-hop contract, but for *every* `LbSpec` variant of the
// pluggable policy layer: whatever strategy plans the epoch, the emitted
// plan must never move an SD twice, never ship an SD to its current
// owner, and must land exactly on the claimed post-epoch ownership —
// over the same random ownership/busy generator as above (`which`
// selects the policy, so the proptest sweep covers all variants).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_lb_spec_yields_single_hop_plans(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        which in 0usize..8,
        mu in 0.0f64..3.0,
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        // ghost graph attached and μ swept: the single-hop contract must
        // survive ghost-aware gating and one-at-a-time realization too
        let net = LbNetwork::new(
            CommCost::from_spec(&NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-3, 1e6),
                inter_rack: LinkSpec::new(0.5, 2e4),
            })),
            4 * 4 * 8 + 24,
        )
        .with_sd_graph(Arc::new(SdGraph::build(&grid, halo)));
        let spec = match which {
            0 => LbSpec::tree(0.0),
            1 => LbSpec::tree(1.5),
            2 => LbSpec::diffusion(1.0, 6),
            3 => LbSpec::greedy_steal(1),
            4 => LbSpec::adaptive(LbSpec::greedy_steal(1), 0.1),
            5 => LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2),
            6 => LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
            _ => LbSpec::hierarchical(LbSpec::greedy_steal(1), 1.5),
        }
        .with_mu(mu);
        let mut policy = spec.build();
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let plan = policy.plan(&own, &metrics, &net);

        let mut arrived = std::collections::HashSet::new();
        for m in &plan.moves {
            prop_assert!(
                !arrived.contains(&m.sd),
                "{}: SD {} re-moved after arriving", spec.name(), m.sd
            );
            prop_assert_eq!(own.owner(m.sd), m.from, "{}: stale source", spec.name());
            prop_assert!(m.from != m.to, "{}: SD shipped to its own owner", spec.name());
            arrived.insert(m.sd);
        }
        let mut check = own.clone();
        for m in &plan.moves {
            check.set_owner(m.sd, m.to);
        }
        prop_assert_eq!(&check, &plan.new_ownership);
        // conservation: no SD appears or disappears
        prop_assert_eq!(
            plan.new_ownership.counts().iter().sum::<usize>(),
            count
        );
    }
}

// The ghost-aware degenerate case, across every `LbSpec` variant: with
// μ = 0, attaching the SD adjacency / halo-volume graph to the planning
// view must not change a single move — the whole ghost machinery
// (edge-cut deltas, one-at-a-time realization, projected neighbour
// graphs) must be pinned inert, so pre-μ configurations reproduce their
// plans bit for bit after the upgrade. Random ownerships, busy vectors
// and halo widths over the same 2-rack topology as above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mu_zero_plans_byte_identical_with_and_without_graph(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        which in 0usize..8,
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let plain = LbNetwork::new(
            CommCost::from_spec(&NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-3, 1e6),
                inter_rack: LinkSpec::new(0.5, 2e4),
            })),
            4 * 4 * 8 + 24,
        );
        let with_graph = plain.clone().with_sd_graph(Arc::new(SdGraph::build(&grid, halo)));
        let spec = match which {
            0 => LbSpec::tree(0.0),
            1 => LbSpec::tree(1.5),
            2 => LbSpec::diffusion(1.0, 6),
            3 => LbSpec::greedy_steal(1),
            4 => LbSpec::adaptive(LbSpec::tree(0.5), 0.1),
            5 => LbSpec::adaptive_mu(LbSpec::tree(0.5), 0.2),
            6 => LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
            _ => LbSpec::hierarchical(LbSpec::tree(0.5), 1.5),
        };
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let blind = spec.build().plan(&own, &metrics, &plain);
        let ghosted = spec.build().plan(&own, &metrics, &with_graph);
        prop_assert_eq!(&blind.moves, &ghosted.moves, "{}", spec.name());
        prop_assert_eq!(&blind.new_ownership, &ghosted.new_ownership);
        prop_assert_eq!(blind.comm, ghosted.comm);
    }
}

// The hierarchical planner's degenerate case: on a cluster whose comm
// model carries no topology (every pair of ranks is one flat tier) and
// with no memory capacities attached, `LbSpec::Hierarchical` must
// delegate to its inner leaf — plans byte-identical to running the leaf
// directly, so single-rack configurations pay nothing for the wrapper.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn hierarchical_degenerates_to_flat_on_single_rack(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        lambda in 0.0f64..2.0,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let net = LbNetwork::new(
            CommCost::from_spec(&NetSpec::shared(1e-4, 1e8)),
            4 * 4 * 8 + 24,
        );
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let flat = LbSpec::tree(lambda).build().plan(&own, &metrics, &net);
        let hier = LbSpec::hierarchical(LbSpec::tree(lambda), 1.5)
            .build()
            .plan(&own, &metrics, &net);
        prop_assert_eq!(&flat.moves, &hier.moves, "λ={}", lambda);
        prop_assert_eq!(&flat.new_ownership, &hier.new_ownership);
        prop_assert_eq!(flat.comm, hier.comm);
    }
}

// The memory capacity gate, under adversarial inputs: random ownerships,
// random per-node headroom (including zero — a full node must receive
// nothing), footprints from the real SdGraph. Whatever the hierarchical
// planner emits, applying the whole plan must leave every rank at or
// under its declared capacity — the invariant `RunReport::check_invariants`
// replays for every recorded scenario epoch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn hierarchical_plan_never_overflows_destinations(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        headroom in proptest::collection::vec(0u64..3, 8),
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners: Vec<u32> = (0..count)
            .map(|i| ((owner_seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
            .collect();
        let graph = Arc::new(SdGraph::build(&grid, halo));
        let fp = Arc::new(graph.footprints());
        // capacities: each rank's initial residency plus 0–2 of the
        // largest footprint — tight enough that the gate must refuse
        // moves on most cases
        let mut usage = vec![0u64; n_nodes as usize];
        for (sd, &o) in owners.iter().enumerate() {
            usage[o as usize] += fp[sd];
        }
        let max_fp = fp.iter().copied().max().unwrap_or(1).max(1);
        let caps: Vec<u64> = usage
            .iter()
            .enumerate()
            .map(|(i, &u)| (u + headroom[i % headroom.len()] * max_fp).max(1))
            .collect();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let net = LbNetwork::new(
            CommCost::from_spec(&NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-3, 1e6),
                inter_rack: LinkSpec::new(0.5, 2e4),
            })),
            4 * 4 * 8 + 24,
        )
        .with_sd_graph(graph.clone())
        .with_memory(Arc::new(caps.clone()), fp.clone());
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let plan = LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)
            .build()
            .plan(&own, &metrics, &net);
        let mut after = usage.clone();
        for m in &plan.moves {
            prop_assert_eq!(own.owner(m.sd), m.from);
            after[m.from as usize] -= fp[m.sd as usize];
            after[m.to as usize] += fp[m.sd as usize];
        }
        for (node, (&used, &cap)) in after.iter().zip(caps.iter()).enumerate() {
            prop_assert!(
                used <= cap,
                "rank {} holds {} B after the plan, over its {} B capacity",
                node, used, cap
            );
        }
    }
}

// ---------- cut-aware repartitioning ----------

/// The shared random-ownership generator of the sections above, as a
/// helper: pseudo-random but deterministic owners from a seed.
fn scrambled_owners(count: usize, n_nodes: u32, seed: u64) -> Vec<u32> {
    (0..count)
        .map(|i| ((seed >> (i % 60)) as u32 ^ i as u32) % n_nodes)
        .collect()
}

fn two_rack_lb_net() -> LbNetwork {
    LbNetwork::new(
        CommCost::from_spec(&NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: LinkSpec::new(1e-3, 1e6),
            inter_rack: LinkSpec::new(0.5, 2e4),
        })),
        4 * 4 * 8 + 24,
    )
}

// `LbSpec::Repartition` under adversarial inputs, across the whole staged
// drain: every epoch's plan must be single-hop (the distributed driver
// ships all moves concurrently from pre-epoch owners), and every epoch
// where the drift monitor is driving (`drift_info().replan`) must stay
// under `max_bytes_per_epoch` — the budget is what makes a replan safe to
// run inside a balancing epoch. Uniform 16-cell tiles are 152 wire bytes,
// so any budget of at least one tile makes the bound exact (the one-move
// progress guarantee never needs to exceed it).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn repartition_drain_is_single_hop_and_budgeted(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        budget_tiles in 1u64..6,
        threshold in 1.0f64..2.0,
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners = scrambled_owners(count, n_nodes, owner_seed);
        let net = two_rack_lb_net()
            .with_sd_graph(Arc::new(SdGraph::build(&grid, halo)));
        let budget = budget_tiles * (4 * 4 * 8 + 24);
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), threshold, 1, budget).build();
        let mut current = Ownership::new(grid, owners, n_nodes);
        for _epoch in 0..12 {
            let busy_vec: Vec<f64> =
                (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
            let metrics = compute_metrics(&current.counts(), &busy_vec);
            let plan = policy.plan(&current, &metrics, &net);
            let replanning = policy.drift_info().expect("repartition reports drift").replan;
            let mut arrived = std::collections::HashSet::new();
            for m in &plan.moves {
                prop_assert!(!arrived.contains(&m.sd), "SD {} re-moved", m.sd);
                prop_assert_eq!(current.owner(m.sd), m.from, "stale source");
                prop_assert!(m.from != m.to, "SD shipped to its own owner");
                arrived.insert(m.sd);
            }
            if replanning {
                prop_assert!(
                    plan.comm.total_bytes <= budget,
                    "replan epoch shipped {} B > budget {} B",
                    plan.comm.total_bytes, budget
                );
            }
            let mut check = current.clone();
            for m in &plan.moves {
                check.set_owner(m.sd, m.to);
            }
            prop_assert_eq!(&check, &plan.new_ownership);
            prop_assert_eq!(check.counts().iter().sum::<usize>(), count);
            current = plan.new_ownership;
        }
    }
}

// The capacity contract of a replan: whatever fresh partition the drift
// monitor installs, applying the epoch's moves must leave every rank at or
// under its declared `memory_bytes` — a rank with one footprint of
// headroom must never be handed more than it can hold. Budget unbounded,
// so the whole diff lands in the replan epoch (the adversarial case: the
// largest possible burst of arrivals).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn repartition_never_overflows_destination_capacities(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        headroom in proptest::collection::vec(1u64..4, 8),
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners = scrambled_owners(count, n_nodes, owner_seed);
        let graph = Arc::new(SdGraph::build(&grid, halo));
        let fp = Arc::new(graph.footprints());
        let mut usage = vec![0u64; n_nodes as usize];
        for (sd, &o) in owners.iter().enumerate() {
            usage[o as usize] += fp[sd];
        }
        let max_fp = fp.iter().copied().max().unwrap_or(1).max(1);
        // at least one max footprint of slack per rank keeps the caps
        // feasible for single-vertex repair, yet tight enough to bind
        let caps: Vec<u64> = usage
            .iter()
            .enumerate()
            .map(|(i, &u)| u + headroom[i % headroom.len()] * max_fp)
            .collect();
        let net = two_rack_lb_net()
            .with_sd_graph(graph)
            .with_memory(Arc::new(caps.clone()), fp.clone());
        let mut policy =
            LbSpec::repartition(LbSpec::tree(0.0), 0.5, 1, u64::MAX).build();
        let own = Ownership::new(grid, owners, n_nodes);
        let busy_vec: Vec<f64> =
            (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
        let metrics = compute_metrics(&own.counts(), &busy_vec);
        let plan = policy.plan(&own, &metrics, &net);
        if !policy.drift_info().expect("repartition reports drift").replan {
            return; // already at the fresh partition: nothing staged
        }
        let mut after = usage.clone();
        for m in &plan.moves {
            prop_assert_eq!(own.owner(m.sd), m.from);
            after[m.from as usize] -= fp[m.sd as usize];
            after[m.to as usize] += fp[m.sd as usize];
        }
        for (node, (&used, &cap)) in after.iter().zip(caps.iter()).enumerate() {
            prop_assert!(
                used <= cap,
                "rank {} holds {} B after the replan, over its {} B capacity \
                 (nsx={nsx} nsy={nsy} n_nodes={n_nodes} owner_seed={owner_seed} \
                 headroom={headroom:?} halo={halo})",
                node, used, cap
            );
        }
    }
}

// The transparency contract: with an infinite drift threshold and no
// membership events, the Repartition decorator must be *byte-identical*
// to its inner policy — same moves, same claimed ownership, same comm
// estimate, epoch after epoch — so wrapping an existing configuration
// costs nothing until a threshold or a cluster event is configured.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn infinite_threshold_repartition_is_byte_identical_to_inner(
        nsx in 2i64..7,
        nsy in 2i64..7,
        n_nodes in 2u32..6,
        owner_seed in any::<u64>(),
        busy in proptest::collection::vec(0.05f64..10.0, 8),
        which in 0usize..4,
        halo in 1i64..6,
    ) {
        let grid = SdGrid::new(nsx as usize, nsy as usize, 4);
        let count = grid.count();
        let owners = scrambled_owners(count, n_nodes, owner_seed);
        let net = two_rack_lb_net()
            .with_sd_graph(Arc::new(SdGraph::build(&grid, halo)));
        let inner = match which {
            0 => LbSpec::tree(0.0),
            1 => LbSpec::tree(1.5),
            2 => LbSpec::greedy_steal(1),
            _ => LbSpec::diffusion(1.0, 6),
        };
        let mut plain = inner.clone().build();
        let mut wrapped =
            LbSpec::repartition(inner, f64::INFINITY, 1, u64::MAX).build();
        let mut current = Ownership::new(grid, owners, n_nodes);
        for _epoch in 0..4 {
            let busy_vec: Vec<f64> =
                (0..n_nodes as usize).map(|i| busy[i % busy.len()]).collect();
            let metrics = compute_metrics(&current.counts(), &busy_vec);
            let a = plain.plan(&current, &metrics, &net);
            let b = wrapped.plan(&current, &metrics, &net);
            prop_assert_eq!(&a.moves, &b.moves);
            prop_assert_eq!(&a.new_ownership, &b.new_ownership);
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(check_counts(&a.new_ownership), count);
            current = a.new_ownership;
        }
    }
}

fn check_counts(own: &Ownership) -> usize {
    own.counts().iter().sum()
}
