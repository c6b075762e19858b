//! The discrete-event engine: per-step task graphs, asynchronous per-node
//! clocks (no global barrier between steps, like the real solver), and
//! load-balancing epochs.
//!
//! The step is the real runtime's: per rank and ownership epoch the engine
//! builds the driver's [`StepLayout`] and charges it in virtual time — the
//! local fills as one copy, each send bundle as one network arrival after
//! its pack, each receive bundle's scatter as one copy that releases the
//! gated regions waiting on it, and each [`group_by_work`] task as one
//! list-scheduled task. Only the clock differs.

use crate::cost::CostModel;
use nlheat_core::balance::{EpochMeasure, LbEpoch};
use nlheat_core::ghost::{group_by_work, halo_plans, RankBundle, Region, RegionCut, StepLayout};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::{failed_at, RunExtras, RunReport, Scenario, SimExtras, VirtualNode};
use nlheat_core::workload::WorkModel;
use nlheat_mesh::{Grid, HaloPlan, SdGrid, SdId, Stencil};
use nlheat_netmodel::{CommCost, LinkClass, Msg};
use std::sync::Arc;

/// One ghost bundle as the clock sees it.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Bundle {
    /// The rank at the other end.
    peer: u32,
    /// Payload bytes on the link ([`RankBundle::wire_bytes`]).
    bytes: u64,
    /// Cells packed (send) or scattered (receive): the copy it costs.
    cells: f64,
    /// Whether the link crosses a rack boundary under the run's topology.
    inter_rack: bool,
}

/// One rank's step under one ownership map and work model: its
/// [`StepLayout`] reduced to what the clock charges.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct RankStep {
    /// Cells of the local halo fill.
    fill_cells: f64,
    /// Send and receive bundles, ascending by peer.
    sends: Vec<Bundle>,
    recvs: Vec<Bundle>,
    /// Durations of the tasks dealt at spawn, in spawn order.
    at_spawn: Vec<f64>,
    /// Per distinct set of receive bundles gated tiles await (a mask of
    /// [`bit`]s): the set, and where its tasks end in `gated`.
    sets: Vec<(u64, u32)>,
    /// Durations of the gated tasks, set by set, each in spawn order.
    gated: Vec<f64>,
    /// Per tile its awaited set: scratch of the derivation.
    tile_sets: Vec<u64>,
}

/// The bit of receive bundle `b` in an awaited set: one per bundle, the
/// last shared by all past the 63rd (a rank with that many neighbours
/// waits for all of those at once).
fn bit(b: usize) -> u64 {
    1 << b.min(63)
}

/// What every rank's step derives from: the run's halo plans with their
/// reverse index, the per-node region cuts the driver uses, and the prices.
struct StepSource<'a> {
    sds: SdGrid,
    plans: Vec<HaloPlan>,
    reverse: Vec<Vec<(SdId, u16)>>,
    cuts: Vec<RegionCut>,
    nodes: &'a [VirtualNode],
    comm: CommCost,
    cost: CostModel,
    stencil_points: u64,
}

impl<'a> StepSource<'a> {
    /// The halo plans, cuts and prices of `sc`'s steps.
    fn new(sc: &'a Scenario) -> Self {
        let grid = Grid::square(sc.problem.n, sc.problem.eps_mult);
        let stencil_points = Stencil::build(grid.h, grid.eps).len();
        let sds = sc.sd_grid();
        let (plans, reverse) = halo_plans(&sds, grid.halo);
        let nodes = &sc.cluster.nodes;
        StepSource {
            sds,
            plans,
            reverse,
            cuts: nodes
                .iter()
                .map(|n| RegionCut::new(sc, grid.halo, n.cores))
                .collect(),
            nodes,
            // Link classes for the virtual-time ghost accounting: the very
            // CommCost the planner prices moves with, so counter and μ term
            // can never disagree on what crosses a rack.
            comm: sc.net.comm_cost(),
            cost: CostModel::calibrated(stencil_points),
            stencil_points: stencil_points as u64,
        }
    }

    /// Mark stale the steps of the ranks a move of `sd` touches: its two
    /// owners, and the owners (under `owners`) of every SD that reads from
    /// it — which are the SDs it reads from, the halo being symmetric.
    fn touch(&self, stale: &mut [bool], sd: SdId, from: u32, to: u32, owners: &[u32]) {
        stale[from as usize] = true;
        stale[to as usize] = true;
        for &(reader, _) in &self.reverse[sd as usize] {
            stale[owners[reader as usize] as usize] = true;
        }
    }

    /// Re-derive `out` as the step of `rank` under `owners` and `work`.
    fn derive(&self, out: &mut RankStep, rank: u32, owners: &[u32], work: &WorkModel) {
        let cut = &self.cuts[rank as usize];
        let layout = StepLayout::build(&self.plans, &self.reverse, owners, rank, cut);
        let (schedule, speed) = (&layout.schedule, self.nodes[rank as usize].speed);
        let bundle = |b: &RankBundle| Bundle {
            peer: b.peer,
            bytes: b.wire_bytes as u64,
            cells: b.records.iter().map(|r| r.rect.area()).sum::<i64>() as f64,
            inter_rack: self.comm.link_class(rank, b.peer) == LinkClass::InterRack,
        };
        out.fill_cells = layout.fills.iter().map(|f| f.dst_rect.area()).sum::<i64>() as f64;
        out.sends.clear();
        out.sends.extend(schedule.sends.iter().map(bundle));
        out.recvs.clear();
        out.recvs.extend(schedule.recvs.iter().map(bundle));
        // the driver's grouping (kernel repeats × stencil points per cell);
        // a task costs what its SDs' regions do, at the exact work factor
        let sd_of = |list: &[Region]| schedule.owned[list[0].tile as usize];
        let with_work = |list| {
            let repeats = work.repeats(&self.sds, sd_of(list), speed);
            (list, u64::from(repeats) * self.stencil_points)
        };
        let duration = |regions: &[Region]| {
            let runs = regions.chunk_by(|a, b| a.tile == b.tile);
            runs.fold(0.0, |d, run| {
                let cells: i64 = run.iter().map(|r| r.rect.area()).sum();
                let factor = work.factor(&self.sds, sd_of(run));
                d + self.cost.task_sec(cells, factor, speed)
            })
        };
        out.at_spawn.clear();
        let lists = layout.at_spawn.lists().map(with_work);
        group_by_work(lists, cut, |regions| out.at_spawn.push(duration(regions)));

        // Tiles awaiting the same bundles are released by the same scatter:
        // deal each such set's gated lists as one continuation of the
        // driver does.
        let tile_sets = &mut out.tile_sets;
        tile_sets.clear();
        tile_sets.resize(schedule.owned.len(), 0);
        for (b, recv) in schedule.recvs.iter().enumerate() {
            for run in recv.records.chunk_by(|x, y| x.tile == y.tile) {
                tile_sets[run[0].tile as usize] |= bit(b);
            }
        }
        out.sets.clear();
        for &set in tile_sets.iter() {
            if set != 0 && !out.sets.iter().any(|&(known, _)| known == set) {
                out.sets.push((set, 0));
            }
        }
        out.gated.clear();
        for (set, end) in out.sets.iter_mut() {
            let tiles = (0..tile_sets.len() as u32).filter(|&t| tile_sets[t as usize] == *set);
            let lists = tiles.map(|t| layout.gated.of(t)).filter(|l| !l.is_empty());
            group_by_work(lists.map(with_work), cut, |regions| {
                out.gated.push(duration(regions))
            });
            *end = out.gated.len() as u32;
        }
    }
}

/// List-schedule `tasks` (ready, duration), in the order given, each onto
/// the earliest free of the cores whose free times are `free`. Returns
/// (finish time, busy seconds).
fn list_schedule(tasks: impl Iterator<Item = (f64, f64)>, free: &mut [f64]) -> (f64, f64) {
    let is_time = |t: f64| t.is_finite() && t.is_sign_positive();
    let tasks = tasks.inspect(|&(ready, dur)| debug_assert!(is_time(ready) && is_time(dur)));
    let (mut finish, mut busy) = (free[0], 0.0);
    for (ready, dur) in tasks {
        let core = (1..free.len()).fold(0, |c, i| if free[i] < free[c] { i } else { c });
        free[core] = ready.max(free[core]) + dur;
        busy += dur;
        finish = finish.max(free[core]);
    }
    (finish, busy)
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
    let source = StepSource::new(sc);
    let (cost, sds, nodes) = (source.cost, source.sds, source.nodes);
    let nn = nodes.len();
    let owners0 = sc.partition.initial_owners(&sds, nn as u32);
    let mut ownership = Ownership::new(sds, owners0, nn as u32);

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
    // halo-volume graph it prices μ against is built from the same halo
    // geometry as the plans whose bundles the loop below charges.
    let mut lb_epoch = sc.lb.as_ref().map(|lb| {
        let sd_graph = Arc::new(sc.sd_graph());
        LbEpoch::new(sc.epoch_config(lb, sd_graph))
    });
    // The previous epoch's migration stall, fed to the policy with the
    // next epoch's measurement.
    let mut prev_stall_frac: Option<f64> = None;
    let mut last_barrier = 0.0f64;
    // Every rank's step, re-derived when the work model in force changes
    // and, for the ranks a migration touches, when ownership does.
    let mut steps: Vec<RankStep> = (0..nn).map(|_| RankStep::default()).collect();
    let mut stale = vec![true; nn];
    let mut work_set: Option<&WorkModel> = None;
    // per-step scratch: bundle arrivals at `[dst · nn + src]`, when each
    // driver has packed, and per node its scatters, set releases and cores
    let (mut arrivals, mut packed) = (vec![0.0; nn * nn], vec![0.0; nn]);
    let (mut scattered, mut released, mut free) = (Vec::new(), Vec::new(), Vec::new());

    for step in 0..sc.steps {
        let work = sc.work_at(step);
        if !work_set.is_some_and(|set| std::ptr::eq(set, work)) {
            stale.fill(true);
            work_set = Some(work);
        }
        for (rank, _) in stale.iter().enumerate().filter(|(_, s)| **s) {
            source.derive(&mut steps[rank], rank as u32, ownership.owners(), work);
        }
        stale.fill(false);
        // Failure mask of this step: transfers to or from a fail-stopped
        // rank still happen (the nodes keep executing until evacuated, so
        // virtual time is unchanged) but stop counting toward the
        // planner-grade counters — mirroring the real runtime, and
        // keeping `cross_bytes == ghost_bytes + migration_bytes` intact.
        let failed_now =
            (!sc.cluster_events.is_empty()).then(|| failed_at(nn, &sc.cluster_events, step));

        // --- fill, then pack and send one bundle per peer ---
        for (src, rs) in steps.iter().enumerate() {
            let mut t = node_time[src] + cost.copy_sec_per_cell * rs.fill_cells;
            for b in &rs.sends {
                t += cost.copy_sec_per_cell * b.cells;
                let (src, dst) = (src as u32, b.peer);
                let msg = Msg {
                    src,
                    dst,
                    bytes: b.bytes,
                };
                arrivals[dst as usize * nn + src as usize] = net.arrival(t, &msg);
                let counted = failed_now
                    .as_ref()
                    .is_none_or(|f| !f[src as usize] && !f[dst as usize]);
                if counted {
                    cross_bytes += b.bytes;
                    ghost_bytes += b.bytes;
                    if b.inter_rack {
                        inter_rack_ghost_bytes += b.bytes;
                    }
                    messages += 1;
                }
            }
            packed[src] = t;
        }

        // --- per-node task graphs and scheduling ---
        for (node, rs) in steps.iter().enumerate() {
            // the driver spawns the at-spawn tasks; each incoming bundle
            // is scattered once it has arrived and they exist
            let t0 = packed[node] + cost.spawn_sec * rs.at_spawn.len() as f64;
            let arrived = &arrivals[node * nn..(node + 1) * nn];
            let scatter =
                |b: &Bundle| arrived[b.peer as usize].max(t0) + cost.copy_sec_per_cell * b.cells;
            scattered.clear();
            scattered.extend(rs.recvs.iter().map(scatter));
            let step_ghost_delay = scattered.iter().fold(0.0, |m, &s| f64::max(m, s - t0));
            // Tasks in the order they are released, each release's in
            // spawn order: the at-spawn tasks, then each set's gated tasks
            // once its last bundle is scattered.
            released.clear();
            for (s, &(set, _)) in rs.sets.iter().enumerate() {
                let awaited = scattered
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| set & bit(b) != 0);
                released.push((awaited.fold(t0, |ready, (_, &done)| ready.max(done)), s));
            }
            released.sort_unstable_by_key(|&(ready, s)| (ready.to_bits(), s));
            let gated = released.iter().flat_map(|&(ready, s)| {
                let start = s.checked_sub(1).map_or(0, |p| rs.sets[p].1 as usize);
                let tasks = &rs.gated[start..rs.sets[s].1 as usize];
                tasks.iter().map(move |&dur| (ready, dur))
            });
            let at_spawn = rs.at_spawn.iter().map(|&dur| (t0, dur));
            free.clear();
            free.resize(nodes[node].cores, t0);
            let (finish, busy) = list_schedule(at_spawn.chain(gated), &mut free);
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
                    let owners = plan.new_ownership.owners();
                    source.touch(&mut stale, mv.sd, mv.from, mv.to, owners);
                }
                ownership = plan.new_ownership;
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
        lb_plans: log.plans,
        epoch_traces: log.traces,
        final_ownership: ownership,
        field: None,
        error: None,
        memory_bytes: None,
        sd_footprint: None,
        counters: Vec::new(),
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
    fn measured_lb_moves_work_off_the_slow_rank_after_the_first_step() {
        // The benchmark's heterogeneous-LB shape at test scale: speeds
        // 1 / 0.5, strip start, two racks, busy times measured every 4
        // steps. The first window is one step long, so the slow rank sheds
        // SDs before step 1 instead of running `period` steps on half the
        // mesh.
        let sc = paper(400, 25, 12, ClusterSpec::speeds(&[1.0, 0.5]))
            .with_partition(PartitionSpec::Strip)
            .with_net(nlheat_core::scenario::library::two_rack_net())
            .with_lb(LbSchedule::every(4))
            .with_lb_input(LbInput::Measured);
        let run = simulate(&sc);
        assert_eq!(run.epoch_traces[0].step, 1, "first epoch after step 0");
        let history = run.ownership_history();
        let (start, first) = (history[0].counts(), history[1].counts());
        assert!(
            first[1] < start[1],
            "slow rank keeps {first:?} of {start:?}"
        );
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
        // plans or migration traffic for idle epochs (it still pays the
        // planning barrier).
        let run = simulate(&shared_cfg(4, 2).with_lb(LbSchedule::every(2)));
        assert_eq!(run.migrations, 0);
        assert_eq!(run.migration_bytes, 0);
        assert!(
            run.lb_plans.is_empty(),
            "no-op epochs must not emit plans: {:?}",
            run.lb_plans
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
        assert_eq!(run.epoch_traces.len(), run.lb_plans.len());
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
        // both. The event is off an epoch boundary: epochs follow steps
        // 0, 2, 4, …, so an event at step 4 is first seen by the epoch
        // after step 4 and rank 1 computes step 4 failed while it still
        // owns SDs.
        let mk = |ev: ClusterEvent| {
            simulate(
                &paper(400, 50, 10, ClusterSpec::uniform(2, 1))
                    .with_lb(repart_lb(2))
                    .with_cluster_events(vec![(4, ev)])
                    .with_lb_input(LbInput::Modeled),
            )
        };
        let fail = mk(ClusterEvent::Fail { rank: 1 });
        let drain = mk(ClusterEvent::Drain { rank: 1 });
        assert_eq!(fail.lb_plans, drain.lb_plans, "same masks, same plans");
        assert_eq!(fail.final_ownership.counts()[1], 0);
        assert_eq!(drain.final_ownership.counts()[1], 0);
        // rank 1 owns SDs until the plan that takes effect before step 5
        let history = fail.ownership_history();
        let evacuated = history.iter().position(|own| own.counts()[1] == 0);
        let evacuated = evacuated.expect("the failed rank is evacuated");
        assert_eq!(fail.epoch_traces[evacuated - 1].step, 5);
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
    fn a_move_marks_every_rank_whose_step_it_changes() {
        // Three ranks in a scrambled ownership under a two-ring halo: only
        // the marked ranks re-derive their step after a migration, so
        // moving any SD to any other rank must mark every rank whose step
        // the move changes.
        let sc = Scenario::square(24, 6.0, 4, 1).on(ClusterSpec::uniform(3, 2));
        let source = StepSource::new(&sc);
        let owners: Vec<u32> = (0..36u32).map(|sd| (sd * 7 + sd / 5) % 3).collect();
        let steps_of = |owners: &[u32]| -> Vec<RankStep> {
            (0..3)
                .map(|rank| {
                    let mut step = RankStep::default();
                    source.derive(&mut step, rank, owners, &WorkModel::Uniform);
                    step
                })
                .collect()
        };
        let before = steps_of(&owners);
        for sd in 0..36u32 {
            for to in (0..3).filter(|&to| to != owners[sd as usize]) {
                let mut moved = owners.clone();
                moved[sd as usize] = to;
                let mut stale = vec![false; 3];
                source.touch(&mut stale, sd, owners[sd as usize], to, &moved);
                for (rank, after) in steps_of(&moved).iter().enumerate() {
                    let changed = *after != before[rank];
                    assert!(stale[rank] || !changed, "SD {sd} to {to}: rank {rank}");
                }
            }
        }
    }

    #[test]
    fn a_rank_may_border_more_ranks_than_a_set_has_bits() {
        // Rank 0 owns every fourth SD of a 20 x 20 grid and borders all
        // 69 other ranks: receive bundles past the 63rd share one bit.
        let owners: Vec<u32> = (0..400u32)
            .map(|sd| if sd % 4 == 0 { 0 } else { 1 + sd % 69 })
            .collect();
        let sc = Scenario::square(80, 2.0, 4, 2)
            .on(ClusterSpec::uniform(70, 1))
            .with_partition(PartitionSpec::Explicit(owners));
        let run = simulate(&sc);
        run.check_invariants();
        assert!(run.makespan.is_finite() && run.makespan > 0.0);
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
