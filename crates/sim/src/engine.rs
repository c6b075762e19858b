//! The discrete-event engine: per-step task graphs, asynchronous per-node
//! clocks (no global barrier between steps, like the real solver), and
//! load-balancing epochs.

use crate::cost::CostModel;
use nlheat_core::balance::{EpochMeasure, LbEpoch};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::{failed_at, RunExtras, RunReport, Scenario, SimExtras};
use nlheat_mesh::{build_halo_plan, split_cases, Grid, HaloPlan, PatchSource, SdGrid, Stencil};
use nlheat_netmodel::{LinkClass, Msg};
use nlheat_partition::SdGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

struct Geometry {
    sds: SdGrid,
    plans: Vec<HaloPlan>,
    halo: i64,
    /// Per-SD ghost cells expected from neighbouring SDs — fixed geometry,
    /// hoisted out of the per-step unpack-cost computation.
    ghost_cells: Vec<f64>,
}

impl Geometry {
    fn build(sds: SdGrid, grid: &Grid) -> Self {
        let plans: Vec<HaloPlan> = sds
            .ids()
            .map(|id| build_halo_plan(&sds, grid.halo, id))
            .collect();
        let ghost_cells = plans
            .iter()
            .map(|p| p.ghost_cells_from_sds() as f64)
            .collect();
        Geometry {
            sds,
            plans,
            halo: grid.halo,
            ghost_cells,
        }
    }
}

/// One cross-node ghost transfer, precomputed in exact arrival-call order
/// (destination SDs ascending, patches in plan order) so replaying the
/// list hits the stateful [`nlheat_netmodel::Net`] with the identical
/// call sequence the per-step scan used to produce.
struct GhostSend {
    src: u32,
    dst: u32,
    /// Destination SD the payload feeds.
    sd: u32,
    /// Patch area in cells (prices the sender-side pack delay).
    area: i64,
    /// Wire bytes on the link.
    bytes: u64,
    /// Whether the link crosses a rack boundary under the run's topology.
    inter_rack: bool,
}

/// Everything the event loop derives from ownership alone. The per-step
/// scan used to rebuild all of this (owner copies, cross-node patch scans,
/// case splits) every step; ownership only changes at realized balancing
/// epochs, so the view is computed once and swapped on migration.
struct OwnershipView {
    /// Per-node owned SDs, ascending id (the order `owned_by` yields).
    owned: Vec<Vec<u32>>,
    /// Cross-node ghost sends in arrival-call order.
    sends: Vec<GhostSend>,
    /// Per-node cells copied for node-local halo patches each step.
    local_copy_cells: Vec<i64>,
    /// Per-SD (case-1 area, case-2 area) under this ownership.
    splits: Vec<(i64, i64)>,
}

impl OwnershipView {
    fn build(
        geo: &Geometry,
        ownership: &Ownership,
        nn: usize,
        comm: &nlheat_netmodel::CommCost,
    ) -> Self {
        let owners = ownership.owners();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nn];
        let mut sends = Vec::new();
        let mut local_copy_cells = vec![0i64; nn];
        let mut splits = Vec::with_capacity(geo.sds.count());
        for sd in geo.sds.ids() {
            let dst_node = owners[sd as usize] as usize;
            owned[dst_node].push(sd);
            for patch in &geo.plans[sd as usize].patches {
                if let PatchSource::Sd(src) = patch.source {
                    let src_node = owners[src as usize] as usize;
                    if src_node == dst_node {
                        local_copy_cells[dst_node] += patch.dst_rect.area();
                        continue;
                    }
                    let bytes = nlheat_partition::patch_wire_bytes(patch.dst_rect.area());
                    sends.push(GhostSend {
                        src: src_node as u32,
                        dst: dst_node as u32,
                        sd,
                        area: patch.dst_rect.area(),
                        bytes,
                        inter_rack: comm.link_class(src_node as u32, dst_node as u32)
                            == LinkClass::InterRack,
                    });
                }
            }
            let split = split_cases(geo.sds.sd, geo.halo, &geo.plans[sd as usize], |n| {
                owners[n as usize] as usize != dst_node
            });
            splits.push((split.case1_area(), split.case2_area()));
        }
        OwnershipView {
            owned,
            sends,
            local_copy_cells,
            splits,
        }
    }
}

/// Per-step scratch buffers reused across the whole run: the event loop
/// proper performs no heap allocation once these reach steady-state size.
struct StepScratch {
    /// Ghost arrival times keyed by destination SD.
    arrivals: Vec<Vec<f64>>,
    /// (ready, duration) task list for the node being scheduled.
    tasks: Vec<(f64, f64)>,
    /// Core-free-time heap for the list scheduler.
    free: BinaryHeap<Reverse<Ordered>>,
}

impl StepScratch {
    fn new(sd_count: usize, max_cores: usize) -> Self {
        StepScratch {
            arrivals: vec![Vec::new(); sd_count],
            tasks: Vec::new(),
            free: BinaryHeap::with_capacity(max_cores.max(1)),
        }
    }
}

/// List-schedule `tasks` (ready, duration) onto `cores` cores that are
/// free from `t0`, reusing the caller's `free` heap (cleared on entry) so
/// the per-step hot path never allocates. Returns (finish time, busy
/// seconds).
///
/// Virtual times are finite and `>= +0.0` (the `debug_assert!` below), and
/// on such values the IEEE bit patterns order exactly like `total_cmp`, so
/// the sort compares `to_bits()` pairs. Equal (ready, duration) pairs are
/// interchangeable under list scheduling, so the unstable sort leaves
/// results bit-identical. A node with one core has no choice of core to
/// make: its loop carries the one free time in a local, same additions in
/// the same order as the heap would see.
fn list_schedule(
    tasks: &mut [(f64, f64)],
    cores: usize,
    t0: f64,
    free: &mut BinaryHeap<Reverse<Ordered>>,
) -> (f64, f64) {
    let is_time = |t: f64| t.is_finite() && t.is_sign_positive();
    debug_assert!(tasks
        .iter()
        .all(|&(ready, dur)| is_time(ready) && is_time(dur)));
    tasks.sort_unstable_by_key(|&(ready, dur)| (ready.to_bits(), dur.to_bits()));
    let mut finish = t0;
    let mut busy = 0.0;
    if cores <= 1 {
        let mut core_free = t0;
        for &(ready, dur) in tasks.iter() {
            core_free = ready.max(core_free) + dur;
            busy += dur;
            finish = finish.max(core_free);
        }
        return (finish, busy);
    }
    free.clear();
    free.extend((0..cores).map(|_| Reverse(Ordered(t0))));
    for &(ready, dur) in tasks.iter() {
        let Reverse(Ordered(core_free)) = free.pop().unwrap();
        let end = ready.max(core_free) + dur;
        busy += dur;
        finish = finish.max(end);
        free.push(Reverse(Ordered(end)));
    }
    (finish, busy)
}

/// Total-ordered f64 wrapper for the scheduler heap.
#[derive(PartialEq)]
struct Ordered(f64);
impl Eq for Ordered {}
impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Run `sc` on the discrete-event simulator.
///
/// The cost model is calibrated from the scenario's own stencil, so the
/// modeled planning inputs ([`nlheat_core::scenario::modeled_busy`]) use
/// exactly the per-DP seconds the event loop charges.
///
/// # Panics
/// Panics on an invalid scenario — see [`Scenario::validate`].
pub fn simulate(sc: &Scenario) -> RunReport {
    sc.validate();
    let grid = Grid::square(sc.problem.n, sc.problem.eps_mult);
    let cost = CostModel::calibrated(Stencil::build(grid.h, grid.eps).len());
    let geo = Geometry::build(sc.sd_grid(), &grid);
    let nodes = &sc.cluster.nodes;
    let nn = nodes.len();
    let owners0 = sc.partition.initial_owners(&geo.sds, nn as u32);
    let mut ownership = Ownership::new(geo.sds, owners0, nn as u32);

    let mut node_time = vec![0.0f64; nn];
    let mut busy_total = vec![0.0f64; nn];
    let mut busy_window = vec![0.0f64; nn]; // since last LB counter reset
    let mut net = sc.net.build(nn);
    let mut cross_bytes = 0u64;
    let mut messages = 0u64;
    let mut ghost_bytes = 0u64;
    let mut inter_rack_ghost_bytes = 0u64;
    // Worst ghost-arrival delay per node per step, accumulated per
    // balancing window — the adaptive-μ feedback signal (virtual-time
    // analogue of the real driver's wall-clock measurement).
    let mut ghost_wait_window = vec![0.0f64; nn];
    // One epoch driver lives across the run (stateful policies learn from
    // the simulated migration stalls), and the SD adjacency /
    // halo-volume graph it prices μ against is built from the very halo
    // plans whose messages the loop below charges.
    let mut lb_epoch = sc.lb.as_ref().map(|lb| {
        let sd_graph = Arc::new(SdGraph::from_plans(&geo.sds, &geo.plans));
        LbEpoch::new(sc.epoch_config(lb, sd_graph))
    });
    // Link classes for the virtual-time ghost accounting: the very
    // CommCost the planner prices moves with, so counter and μ term can
    // never disagree on what crosses a rack.
    let comm = sc.net.comm_cost();
    // The previous epoch's migration stall, fed to the policy with the
    // next epoch's measurement.
    let mut prev_stall_frac: Option<f64> = None;
    let mut last_barrier = 0.0f64;
    let max_cores = nodes.iter().map(|n| n.cores).max().unwrap_or(1);
    let mut scratch = StepScratch::new(geo.sds.count(), max_cores);
    let mut view = OwnershipView::build(&geo, &ownership, nn, &comm);

    for step in 0..sc.steps {
        // --- ghost messages: (dst node, dst sd) -> arrival time ---
        // replay the precomputed send list (destination SDs in id order,
        // the order sender NICs serialize in).
        for v in scratch.arrivals.iter_mut() {
            v.clear();
        }
        // Failure mask of this step: transfers to or from a fail-stopped
        // rank still happen (the nodes keep executing until evacuated, so
        // virtual time is unchanged) but stop counting toward the
        // planner-grade counters — mirroring the real runtime, and
        // keeping `cross_bytes == ghost_bytes + migration_bytes` intact.
        let failed_now =
            (!sc.cluster_events.is_empty()).then(|| failed_at(nn, &sc.cluster_events, step));
        for s in &view.sends {
            // pack cost delays the send readiness a little
            let ready = node_time[s.src as usize] + cost.copy_sec_per_cell * s.area as f64;
            let arr = net.arrival(
                ready,
                &Msg {
                    src: s.src,
                    dst: s.dst,
                    bytes: s.bytes,
                },
            );
            scratch.arrivals[s.sd as usize].push(arr);
            let counted = failed_now
                .as_ref()
                .is_none_or(|f| !f[s.src as usize] && !f[s.dst as usize]);
            if counted {
                cross_bytes += s.bytes;
                ghost_bytes += s.bytes;
                if s.inter_rack {
                    inter_rack_ghost_bytes += s.bytes;
                }
                messages += 1;
            }
        }

        // --- per-node task graphs and scheduling ---
        let work = sc.work_at(step);
        for node in 0..nn {
            let spec = nodes[node];
            let owned = &view.owned[node];
            // serial driver phase: local halo copies + task spawns
            let n_tasks_approx = owned.len().max(1);
            let serial = cost.copy_sec_per_cell * view.local_copy_cells[node] as f64
                + cost.spawn_sec * n_tasks_approx as f64;
            let t0 = node_time[node] + serial;

            scratch.tasks.clear();
            let mut step_ghost_delay = 0.0f64;
            for &sd in owned {
                let factor = work.factor(&geo.sds, sd);
                let (case1_area, case2_area) = view.splits[sd as usize];
                let arrived = &scratch.arrivals[sd as usize];
                let ghosts_in = if arrived.is_empty() {
                    t0
                } else {
                    let unpack = cost.copy_sec_per_cell * geo.ghost_cells[sd as usize];
                    let ready = arrived.iter().fold(t0, |m, &a| m.max(a)) + unpack;
                    step_ghost_delay = step_ghost_delay.max(ready - t0);
                    ready
                };
                if sc.overlap {
                    if case2_area > 0 {
                        scratch
                            .tasks
                            .push((t0, cost.task_sec(case2_area, factor, spec.speed)));
                    }
                    if case1_area > 0 {
                        scratch
                            .tasks
                            .push((ghosts_in, cost.task_sec(case1_area, factor, spec.speed)));
                    }
                } else {
                    scratch.tasks.push((
                        ghosts_in,
                        cost.task_sec(geo.sds.cells_per_sd() as i64, factor, spec.speed),
                    ));
                }
            }
            let (finish, busy) =
                list_schedule(&mut scratch.tasks, spec.cores, t0, &mut scratch.free);
            node_time[node] = finish;
            busy_total[node] += busy;
            busy_window[node] += busy;
            ghost_wait_window[node] += step_ghost_delay;
        }

        // --- load-balancing epoch (the configured LbSpec policy) ---
        if let Some(lb_epoch) = lb_epoch.as_mut().filter(|e| e.due(step, sc.steps)) {
            // collective: everyone synchronizes for the gather/plan
            let barrier = node_time.iter().cloned().fold(0.0, f64::max) + cost.lb_plan_sec;
            for t in node_time.iter_mut() {
                *t = barrier;
            }
            let window = (barrier - last_barrier).max(1e-12);
            let worst_ghost = ghost_wait_window.iter().cloned().fold(0.0, f64::max);
            let measure = EpochMeasure {
                busy: busy_window.clone(),
                ghost_stall_frac: worst_ghost / window,
                prev_migration_stall_frac: prev_stall_frac,
            };
            let plan = lb_epoch.plan(step, &ownership, measure).plan;
            // An empty plan pays the planning barrier and nothing else.
            if !plan.moves.is_empty() {
                // migration costs: tile payloads over the network
                net.reset(barrier);
                for mv in &plan.moves {
                    let bytes = lb_epoch.net().sd_bytes;
                    let arr = net.arrival(
                        node_time[mv.from as usize],
                        &Msg {
                            src: mv.from,
                            dst: mv.to,
                            bytes,
                        },
                    );
                    let dst = mv.to as usize;
                    node_time[dst] = node_time[dst].max(arr);
                    cross_bytes += bytes;
                    messages += 1;
                }
                ownership = plan.new_ownership;
                view = OwnershipView::build(&geo, &ownership, nn, &comm);
            }
            // How much of the balancing window the epoch's migrations
            // stalled the cluster.
            let after = node_time.iter().cloned().fold(0.0, f64::max);
            prev_stall_frac = Some((after - barrier) / window);
            last_barrier = barrier;
            // Algorithm 1 line 35: reset the busy and ghost-stall windows
            busy_window.fill(0.0);
            ghost_wait_window.fill(0.0);
        }
    }

    let makespan = node_time.iter().cloned().fold(0.0, f64::max);
    let busy_fraction = busy_total
        .iter()
        .zip(nodes)
        .map(|(&b, n)| {
            if makespan > 0.0 {
                b / (n.cores as f64 * makespan)
            } else {
                0.0
            }
        })
        .collect();
    let log = lb_epoch.map(LbEpoch::into_log).unwrap_or_default();
    RunReport {
        substrate: "sim",
        makespan,
        busy: busy_total,
        migrations: log.plans.iter().map(Vec::len).sum(),
        migration_bytes: log.migration_bytes,
        inter_rack_migration_bytes: log.inter_rack_migration_bytes,
        ghost_bytes,
        inter_rack_ghost_bytes,
        lb_history: log.history,
        lb_plans: log.plans,
        epoch_traces: log.traces,
        final_ownership: ownership,
        field: None,
        error: None,
        memory_bytes: None,
        sd_footprint: None,
        extras: RunExtras::Sim(SimExtras {
            busy_fraction,
            cross_bytes,
            messages,
        }),
    }
    .with_scenario_memory(sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_core::balance::{LbSchedule, LbSpec, MoveWeights};
    use nlheat_core::scenario::{ClusterEvent, ClusterSpec, LbInput, PartitionSpec};
    use nlheat_core::workload::WorkModel;
    use nlheat_netmodel::NetSpec;

    /// The paper problem (ε = 8h) on `cluster`.
    fn paper(mesh_n: usize, sd_size: usize, n_steps: usize, cluster: ClusterSpec) -> Scenario {
        Scenario::square(mesh_n, 8.0, sd_size, n_steps).on(cluster)
    }

    fn shared_cfg(n_sds_side: usize, cores: usize) -> Scenario {
        // 400x400 paper mesh decomposed into n x n SDs, one node.
        paper(400, 400 / n_sds_side, 5, ClusterSpec::uniform(1, cores))
    }

    /// Four single-core nodes, the first twice as fast.
    fn het4() -> ClusterSpec {
        ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0])
    }

    fn cross_bytes(run: &RunReport) -> u64 {
        run.sim_extras().expect("sim extras").cross_bytes
    }

    #[test]
    fn deterministic() {
        let cfg = shared_cfg(4, 2);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.busy, b.busy);
    }

    #[test]
    fn single_sd_cannot_use_extra_cores() {
        // Fig. 9's 1-SD data point: speedup stays 1.
        let t1 = simulate(&shared_cfg(1, 1)).makespan;
        let t4 = simulate(&shared_cfg(1, 4)).makespan;
        assert!((t1 / t4) < 1.05, "one task cannot speed up: {}", t1 / t4);
    }

    #[test]
    fn many_sds_scale_with_cores() {
        // Fig. 9's 64-SD point: 4 cores approach 4x.
        let t1 = simulate(&shared_cfg(8, 1)).makespan;
        let t4 = simulate(&shared_cfg(8, 4)).makespan;
        let speedup = t1 / t4;
        assert!(
            (3.0..=4.2).contains(&speedup),
            "64 SDs on 4 cores: speedup {speedup}"
        );
    }

    #[test]
    fn distributed_nodes_scale() {
        // Fig. 13 shape: 1 vs 4 single-core nodes on a fixed mesh.
        let mk = |n: usize| paper(400, 50, 5, ClusterSpec::uniform(n, 1));
        let t1 = simulate(&mk(1)).makespan;
        let t4 = simulate(&mk(4)).makespan;
        let speedup = t1 / t4;
        assert!((3.0..=4.2).contains(&speedup), "4-node speedup {speedup}");
    }

    #[test]
    fn communication_counted_only_across_nodes() {
        let single = simulate(&shared_cfg(8, 4));
        assert_eq!(cross_bytes(&single), 0, "one node never crosses");
        let two = simulate(&paper(400, 50, 5, ClusterSpec::uniform(2, 1)));
        assert!(cross_bytes(&two) > 0);
        assert!(two.sim_extras().unwrap().messages > 0);
    }

    #[test]
    fn metis_beats_strip_on_cross_traffic() {
        // Ablation A1 at test scale: block-ish multilevel partitions move
        // fewer ghost bytes than strips for 4 nodes.
        let metis = paper(400, 25, 3, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Metis { seed: 1 });
        let strip = metis.clone().with_partition(PartitionSpec::Strip);
        let mb = cross_bytes(&simulate(&metis));
        let sb = cross_bytes(&simulate(&strip));
        assert!(mb < sb, "metis {mb} bytes should undercut strip {sb} bytes");
    }

    #[test]
    fn overlap_helps_on_slow_network() {
        // Every SD borders foreign territory (4 SDs per node, quadrants)
        // and the latency is comparable to one SD's compute time, so the
        // case-2 work is exactly what hides the wait.
        let cfg =
            paper(200, 50, 5, ClusterSpec::uniform(4, 1)).with_net(NetSpec::shared(5e-3, 1e9));
        let with = simulate(&cfg.clone().with_overlap(true)).makespan;
        let without = simulate(&cfg.with_overlap(false)).makespan;
        assert!(
            with < without * 0.95,
            "overlap {with} must clearly beat no-overlap {without} on a slow net"
        );
    }

    #[test]
    fn lb_balances_heterogeneous_nodes() {
        let run = simulate(&paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4)));
        assert!(run.migrations > 0);
        let counts = run.final_ownership.counts();
        // fast node should end up with roughly 2/5 of 256 SDs ≈ 102
        assert!(
            counts[0] > counts[1],
            "fast node must hold more SDs: {counts:?}"
        );
        // and total preserved
        assert_eq!(counts.iter().sum::<usize>(), 256);
    }

    #[test]
    fn lb_reduces_makespan_under_heterogeneity() {
        let base = paper(400, 25, 24, het4());
        let without = simulate(&base).makespan;
        let with = simulate(&base.with_lb(LbSchedule::every(4))).makespan;
        assert!(
            with < without,
            "LB {with} must beat no-LB {without} on a 2x-fast node"
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn degenerate_lambda_rejected_at_configuration() {
        let _ = LbSchedule::every(4).with_spec(LbSpec {
            weights: MoveWeights {
                lambda: f64::NAN,
                mu: 0.0,
            },
            ..LbSpec::default()
        });
    }

    #[test]
    fn noop_epochs_emit_no_metrics() {
        // One node: every plan is a no-op. The balancer must not record
        // history entries or migration traffic for idle epochs (it still
        // pays the planning barrier).
        let run = simulate(&shared_cfg(4, 2).with_lb(LbSchedule::every(2)));
        assert_eq!(run.migrations, 0);
        assert_eq!(run.migration_bytes, 0);
        assert!(
            run.lb_history.is_empty(),
            "no-op epochs must not emit metrics: {:?}",
            run.lb_history
        );
        assert!(
            run.epoch_traces.is_empty(),
            "no-op epochs must not emit traces: {:?}",
            run.epoch_traces
        );
    }

    #[test]
    fn ghost_bytes_split_out_of_cross_traffic() {
        // Two uniform nodes, no LB: all cross traffic is ghost traffic
        // and a rack-less model never crosses racks.
        let cfg = paper(400, 50, 5, ClusterSpec::uniform(2, 1));
        let run = simulate(&cfg);
        assert!(run.ghost_bytes > 0);
        assert_eq!(run.ghost_bytes, cross_bytes(&run));
        assert_eq!(run.inter_rack_ghost_bytes, 0, "uniform model has no racks");
        // 2 racks x 1 node: every cross message is inter-rack
        let racked = cfg.with_net(NetSpec::Topology(nlheat_netmodel::TopologySpec::two_tier(
            1,
        )));
        let rr = simulate(&racked);
        assert_eq!(rr.inter_rack_ghost_bytes, rr.ghost_bytes);
        // and with LB on, migration bytes stay separate from ghost bytes
        let lb = paper(400, 25, 12, ClusterSpec::speeds(&[2.0, 1.0])).with_lb(LbSchedule::every(4));
        let lr = simulate(&lb);
        assert!(lr.migrations > 0);
        assert_eq!(cross_bytes(&lr), lr.ghost_bytes + lr.migration_bytes);
    }

    #[test]
    fn epoch_traces_record_the_cut_from_the_sim_graph() {
        let run = simulate(&paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4)));
        assert!(run.migrations > 0);
        assert_eq!(run.epoch_traces.len(), run.lb_history.len());
        let moves: usize = run.epoch_traces.iter().map(|t| t.moves).sum();
        assert_eq!(moves, run.migrations, "traces cover every migration");
        for t in &run.epoch_traces {
            assert_eq!(t.policy, "tree");
            assert!(t.ghost_bytes_before > 0, "sim always attaches its graph");
            assert!(t.migration_bytes > 0);
        }
    }

    #[test]
    fn mu_reduces_steady_state_ghost_cut() {
        // Ghost-aware balancing end to end in the simulator: a Fig.-14
        // lopsided start on a 2-rack cluster forces a mass
        // redistribution, and μ shapes *where* the cross-rack territories
        // grow. The shaped plan must leave strictly less recurring
        // inter-rack ghost traffic (the recorded cut and the counted
        // virtual-time bytes both say so) at unchanged makespan.
        let sds = SdGrid::tile_mesh(400, 400, 25);
        let mut owners = vec![0u32; 256];
        owners[sds.id(15, 0) as usize] = 1;
        owners[sds.id(0, 15) as usize] = 2;
        owners[sds.id(15, 15) as usize] = 3;
        let cfg = paper(400, 25, 24, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Explicit(owners))
            .with_net(NetSpec::Topology(nlheat_netmodel::TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: nlheat_netmodel::LinkSpec::new(1e-7, 5e9),
                intra_rack: nlheat_netmodel::LinkSpec::new(1e-4, 1e8),
                inter_rack: nlheat_netmodel::LinkSpec::new(4e-4, 2.5e7),
            }));
        let with_tree = |spec: LbSpec| cfg.clone().with_lb(LbSchedule::every(4).with_spec(spec));
        let blind = simulate(&with_tree(LbSpec::tree(0.0)));
        let aware = simulate(&with_tree(LbSpec::tree(0.0).with_mu(0.25)));
        assert!(blind.migrations > 0 && aware.migrations > 0);
        let last_cut = |run: &RunReport| {
            run.epoch_traces
                .last()
                .unwrap()
                .inter_rack_ghost_bytes_after
        };
        assert!(
            last_cut(&aware) < last_cut(&blind),
            "μ must leave a better inter-rack cut: {} vs {}",
            last_cut(&aware),
            last_cut(&blind)
        );
        assert!(
            aware.inter_rack_ghost_bytes < blind.inter_rack_ghost_bytes,
            "recurring inter-rack traffic must shrink: {} vs {}",
            aware.inter_rack_ghost_bytes,
            blind.inter_rack_ghost_bytes
        );
        assert!(
            aware.makespan <= blind.makespan * 1.05,
            "makespan must stay within noise: {} vs {}",
            aware.makespan,
            blind.makespan
        );
    }

    #[test]
    fn diffusion_and_greedy_balance_heterogeneous_nodes() {
        // The policy seam end to end in the simulator: both alternative
        // policies must migrate work toward the 2x-fast node, like the
        // tree planner does in `lb_balances_heterogeneous_nodes`.
        for spec in [
            LbSpec::diffusion(1.0, 8),
            LbSpec::greedy_steal(1),
            LbSpec::adaptive(LbSpec::tree(0.0), 0.2),
        ] {
            let cfg =
                paper(400, 25, 24, het4()).with_lb(LbSchedule::every(4).with_spec(spec.clone()));
            let run = simulate(&cfg);
            assert!(run.migrations > 0, "{} must migrate", spec.name());
            let counts = run.final_ownership.counts();
            assert!(
                counts[0] > counts[1],
                "{}: fast node must hold more SDs: {counts:?}",
                spec.name()
            );
            assert_eq!(counts.iter().sum::<usize>(), 256, "{}", spec.name());
        }
    }

    fn repart_lb(period: usize) -> LbSchedule {
        LbSchedule::every(period).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        ))
    }

    #[test]
    fn join_event_spreads_load_onto_the_new_rank() {
        // Rank 2 is declared but only joins at step 3; its first replan
        // after the join must spread SDs onto it.
        let sds = SdGrid::tile_mesh(400, 400, 50);
        let owners: Vec<u32> = (0..sds.count()).map(|sd| (sd % 2) as u32).collect();
        let cfg = paper(400, 50, 12, ClusterSpec::uniform(3, 1))
            .with_partition(PartitionSpec::Explicit(owners))
            .with_lb(repart_lb(2))
            .with_cluster_events(vec![(3, ClusterEvent::Join { rank: 2 })])
            .with_lb_input(LbInput::Modeled);
        let run = simulate(&cfg);
        let counts = run.final_ownership.counts();
        assert!(counts[2] > 0, "joined rank must receive work: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(run.epoch_traces.iter().any(|t| t.replan));
    }

    #[test]
    fn fail_drops_ghost_contributions_drain_does_not() {
        // Fail vs Drain on the same timeline: both zero the rank's
        // capacity at the same step, so the membership masks — and under
        // modeled planning the plan sequences — are identical. The Fail
        // leg additionally drops the failed rank's in-flight ghost
        // contributions from the planner-grade counters for the steps it
        // spends failed, so it must count strictly fewer ghost bytes
        // while the sim's cross-traffic partition invariant holds on
        // both.
        let mk = |ev: ClusterEvent| {
            simulate(
                &paper(400, 50, 10, ClusterSpec::uniform(2, 1))
                    .with_lb(repart_lb(2))
                    .with_cluster_events(vec![(3, ev)])
                    .with_lb_input(LbInput::Modeled),
            )
        };
        let fail = mk(ClusterEvent::Fail { rank: 1 });
        let drain = mk(ClusterEvent::Drain { rank: 1 });
        assert_eq!(fail.lb_plans, drain.lb_plans, "same masks, same plans");
        assert_eq!(fail.final_ownership.counts()[1], 0);
        assert_eq!(drain.final_ownership.counts()[1], 0);
        assert!(
            fail.ghost_bytes < drain.ghost_bytes,
            "fail must drop in-flight contributions: {} vs {}",
            fail.ghost_bytes,
            drain.ghost_bytes
        );
        for run in [&fail, &drain] {
            assert_eq!(
                cross_bytes(run),
                run.ghost_bytes + run.migration_bytes,
                "the cross-traffic partition must survive the event"
            );
        }
    }

    #[test]
    fn work_schedule_switches_models() {
        let cfg = paper(100, 25, 4, ClusterSpec::uniform(1, 1))
            .with_work_schedule(vec![(2, WorkModel::PerSd(vec![0.5; 16]))]);
        // half-work from step 2 must shorten the run vs uniform
        let scheduled = simulate(&cfg).makespan;
        let uniform = simulate(&cfg.with_work_schedule(Vec::new())).makespan;
        assert!(scheduled < uniform);
    }

    #[test]
    fn moving_crack_keeps_lb_busy() {
        // A crack band marching upward; with LB the balancer re-migrates
        // as the cheap region moves, beating the static assignment.
        // One jump at mid-run: the dwell time (16 steps) must exceed the
        // balancer's adaptation time (period + one stale window) for LB to
        // amortize the migrations — faster cracks are a genuinely
        // adversarial regime, reported by ablation A5b.
        // Bands straddle strip boundaries: eq. 8 estimates power per
        // node, so a band hiding entirely inside one node's strip makes
        // that node's power estimate unsound (see ablation A5b notes).
        let schedule = (0..2)
            .map(|seg| {
                (
                    seg * 16,
                    WorkModel::Crack {
                        y_cell: 200 + 100 * seg as i64,
                        half_width: 30,
                        factor: 0.25,
                    },
                )
            })
            .collect();
        let cfg = paper(400, 25, 32, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Strip)
            .with_work_schedule(schedule);
        let off = simulate(&cfg);
        let on = simulate(&cfg.with_lb(LbSchedule::every(4)));
        assert!(
            on.makespan < off.makespan,
            "LB must track the moving crack: on {} off {}",
            on.makespan,
            off.makespan
        );
        assert!(on.migrations > 0);
    }

    #[test]
    fn weak_scaling_holds_time_roughly_constant() {
        // Fig. 10/12 shape: problem grows with node count.
        let t1 = simulate(&paper(100, 50, 5, ClusterSpec::uniform(1, 1))).makespan;
        let t4 = simulate(&paper(200, 50, 5, ClusterSpec::uniform(4, 1))).makespan;
        let efficiency = t1 / t4;
        assert!(
            efficiency > 0.8,
            "weak-scaling efficiency {efficiency} too low"
        );
    }
}
