//! Cut-aware repartitioning and elastic-membership evacuation — the
//! global-replan escape hatch behind
//! [`LbSpec::repartition`](crate::balance::LbSpec::repartition).
//!
//! Every incremental policy (tree, diffusion, greedy-steal, hierarchical)
//! only ever *nudges* ownership, so μ-gating merely slows ghost-cut decay:
//! over a long run the live ownership drifts arbitrarily far from
//! fresh-partitioner quality, and none of the incremental planners can
//! absorb a rank joining, draining, or failing mid-run. This module closes
//! both gaps with one mechanism (cf. Lifflander et al., arXiv:2404.16793):
//!
//! - **Drift monitoring.** On a cadence (`period` epochs) the monitor
//!   compares the live ownership's cut against a fresh capacity-aware
//!   k-way cut of the live [`SdGraph`] from [`repartition_capacitated`]:
//!   `cut_drift = live_cut / fresh_cut`. While drift stays under
//!   `drift_threshold` the incremental planner plans the epoch as if the
//!   monitor were absent.
//! - **Replanning.** When drift exceeds the threshold — or the active-rank
//!   mask changed ([`LbNetwork::active`]), or an SD is stranded on an
//!   inactive rank — the fresh partition *becomes the target ownership*:
//!   the old→new diff is staged and emitted as standard single-hop
//!   [`MigrationPlan`]s through the same `finish_plan` collapse every
//!   planner uses, at most `max_bytes_per_epoch` migration payload bytes
//!   per epoch (evacuations off inactive ranks are scheduled first). The
//!   incremental planner is suspended while a diff is draining so it
//!   cannot fight the target.
//!
//! **The fresh partition is computed once per membership, not once per
//! tick.** It is a function of the SD graph, the active ranks, their byte
//! capacities, the per-SD footprints and a fixed seed — *not* of the live
//! ownership, the load metrics or the epoch count, which only decide what
//! is done with it. `FreshMemo` therefore keeps the last result beside
//! exactly those inputs and a tick recomputes only when one of them
//! compares unequal: a steady-membership run partitions once however many
//! ticks it monitors, and a `Join`/`Drain`/`Fail` recomputes because the
//! active ranks differ, not because anything was told to forget. The key is
//! complete because `FreshPartition::compute` takes nothing else.
//!
//! An infinite `drift_threshold` with no membership events makes the
//! monitor fully transparent — byte-identical plans to the same spec
//! without it (property-pinned in `tests/properties.rs`).

use crate::balance::algorithm::{finish_plan, MigrationPlan, Move};
use crate::balance::policy::{LbNetwork, RepartitionSpec};
use crate::balance::power::LoadMetrics;
use crate::ownership::Ownership;
use nlheat_mesh::SdId;
use nlheat_partition::{repartition_capacitated, PartitionConfig, SdGraph};
use std::sync::Arc;

/// What the drift monitor saw at the last balancing epoch — surfaced
/// through [`LbPolicy::drift_info`](crate::balance::LbPolicy::drift_info)
/// so both substrates can record trigger points in their
/// [`EpochTrace`](crate::balance::EpochTrace)s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftInfo {
    /// Ratio of the live ownership's ghost cut to a freshly computed
    /// k-way cut (≥ 1 means the partitioner would do better; 0 until the
    /// first cadence check).
    pub cut_drift: f64,
    /// True when this epoch triggered (or continued staging) a global
    /// replan instead of an incremental plan.
    pub replan: bool,
}

/// Seed for the mid-run repartitioner — fixed so both substrates compute
/// identical fresh partitions from identical planner inputs (the
/// cross-substrate parity contract).
const REPART_SEED: u64 = 0x9e3e_11a7;

/// A fresh capacity-aware partition beside everything it was computed
/// from (see the module docs: nothing else enters the computation).
struct FreshPartition {
    graph: Arc<SdGraph>,
    /// Ranks plans may target, ascending; part `p` is rank `active[p]`.
    active: Vec<u32>,
    /// Byte capacity per active rank (`u64::MAX` = unbounded).
    caps: Vec<u64>,
    /// The caller's footprint table; `None` = derived from `graph`.
    footprints: Option<Arc<Vec<u64>>>,
    /// Target owner of every SD.
    target: Vec<u32>,
    /// Ghost cut of `target`, in bytes per timestep.
    cut: u64,
}

impl FreshPartition {
    fn compute(
        graph: Arc<SdGraph>,
        active: Vec<u32>,
        caps: Vec<u64>,
        footprints: Option<Arc<Vec<u64>>>,
    ) -> Self {
        let derived;
        let bytes: &[u64] = match &footprints {
            Some(table) => table,
            None => {
                derived = graph.footprints();
                &derived
            }
        };
        let cfg = PartitionConfig::new(active.len() as u32).with_seed(REPART_SEED);
        let part = repartition_capacitated(graph.csr(), bytes, &caps, &cfg);
        FreshPartition {
            target: part.parts.iter().map(|&p| active[p as usize]).collect(),
            cut: part.edgecut.max(0) as u64,
            graph,
            active,
            caps,
            footprints,
        }
    }
}

/// The last [`FreshPartition`], reused while its inputs compare equal.
#[derive(Default)]
struct FreshMemo {
    last: Option<FreshPartition>,
    /// How often [`FreshPartition::compute`] ran.
    #[cfg(test)]
    computations: usize,
}

impl FreshMemo {
    /// The fresh partition for this epoch's membership: the remembered one
    /// when every input compares equal (an `Arc` by pointer first, then by
    /// value), a recomputed one otherwise.
    fn get(&mut self, own: &Ownership, net: &LbNetwork, graph: &Arc<SdGraph>) -> &FreshPartition {
        let active = Monitor::active_ranks(own, net);
        let caps: Vec<u64> = active
            .iter()
            .map(|&r| {
                net.memory_bytes
                    .as_ref()
                    .map_or(u64::MAX, |c| c[r as usize])
            })
            .collect();
        let reusable = self.last.as_ref().is_some_and(|fresh| {
            fresh.graph == *graph
                && fresh.active == active
                && fresh.caps == caps
                && fresh.footprints == net.sd_footprint
        });
        if !reusable {
            #[cfg(test)]
            {
                self.computations += 1;
            }
            self.last = Some(FreshPartition::compute(
                graph.clone(),
                active,
                caps,
                net.sd_footprint.clone(),
            ));
        }
        self.last.as_ref().expect("present or just computed")
    }
}

/// The cut-drift monitor of [`LbSpec::repartition`]: the state a
/// [`Planner`](crate::balance::Planner) carries across epochs for it.
///
/// [`LbSpec::repartition`]: crate::balance::LbSpec::repartition
pub(crate) struct Monitor {
    /// Parameters as validated by `LbSpec::validate`.
    cfg: RepartitionSpec,
    /// Balancing epochs seen (the cadence counter).
    epochs: usize,
    /// Target ownership of an in-flight replan; `None` when fully drained.
    target: Option<Vec<u32>>,
    /// The active mask seen at the previous epoch, for change detection.
    last_mask: Option<Vec<bool>>,
    /// What the monitor reported at the last epoch.
    last: DriftInfo,
    fresh: FreshMemo,
}

impl Monitor {
    pub(crate) fn new(cfg: RepartitionSpec) -> Self {
        Monitor {
            cfg,
            epochs: 0,
            target: None,
            last_mask: None,
            last: DriftInfo {
                cut_drift: 0.0,
                replan: false,
            },
            fresh: FreshMemo::default(),
        }
    }

    /// Ranks plans may target: the active mask, or everyone without one.
    fn active_ranks(own: &Ownership, net: &LbNetwork) -> Vec<u32> {
        match net.active.as_deref() {
            Some(mask) => {
                assert_eq!(
                    mask.len(),
                    own.n_nodes() as usize,
                    "active mask must cover every rank"
                );
                let active: Vec<u32> = (0..own.n_nodes()).filter(|&r| mask[r as usize]).collect();
                assert!(!active.is_empty(), "at least one rank must stay active");
                active
            }
            None => (0..own.n_nodes()).collect(),
        }
    }

    /// Emit the next chunk of the staged old→new diff: evacuations off
    /// inactive ranks first, then the rest in SD order, under the
    /// per-epoch byte budget (with a one-move progress guarantee when a
    /// single tile alone exceeds the budget). Clears the target once the
    /// diff is fully drained.
    fn emit_chunk(
        &mut self,
        own: &Ownership,
        metrics: &LoadMetrics,
        net: &LbNetwork,
    ) -> MigrationPlan {
        let target = self.target.as_ref().expect("staging requires a target");
        let owners = own.owners();
        let inactive = |rank: u32| net.active.as_deref().is_some_and(|m| !m[rank as usize]);
        let mut pending: Vec<SdId> = (0..owners.len() as SdId)
            .filter(|&sd| owners[sd as usize] != target[sd as usize])
            .collect();
        // Evacuations cannot wait: a drained/failed rank keeps paying for
        // every SD stranded on it, so they outrank cut repairs.
        pending.sort_by_key(|&sd| (!inactive(owners[sd as usize]), sd));
        let ship = |sd: SdId| Move {
            sd,
            from: owners[sd as usize],
            to: target[sd as usize],
        };
        let mut raw: Vec<Move> = Vec::new();
        let mut bytes = 0u64;
        for &sd in &pending {
            if bytes.saturating_add(net.sd_bytes) > self.cfg.max_bytes_per_epoch {
                break;
            }
            bytes += net.sd_bytes;
            raw.push(ship(sd));
        }
        if raw.is_empty() {
            // Progress guarantee: a tile larger than the whole budget
            // would stall the drain forever — ship the lowest SD id.
            raw.extend(pending.iter().min().map(|&sd| ship(sd)));
        }
        if raw.len() == pending.len() {
            self.target = None; // drained
        }
        plan_of(raw, own, metrics, net)
    }

    /// What the monitor reported at the last epoch.
    pub(crate) fn drift_info(&self) -> DriftInfo {
        self.last
    }

    /// The monitor's part of one epoch: `Some` staged chunk of a global
    /// replan, or `None` — the incremental planner plans this epoch (and
    /// [`drop_moves_onto_inactive`] filters what it returns).
    pub(crate) fn replan(
        &mut self,
        own: &Ownership,
        metrics: &LoadMetrics,
        net: &LbNetwork,
    ) -> Option<MigrationPlan> {
        self.epochs += 1;
        self.last.replan = false;

        let mask_changed = match (&self.last_mask, net.active.as_deref()) {
            (Some(prev), Some(now)) => prev.as_slice() != now,
            (None, Some(_)) => false, // first sighting is the baseline, not a change
            (Some(_), None) | (None, None) => false,
        };
        self.last_mask = net.active.as_deref().map(|m| m.to_vec());

        // No SD graph: nothing to monitor or diff against.
        let graph = net.sd_graph.clone()?;

        // An in-flight diff drains before anything else happens — unless
        // membership changed under it, which invalidates the target.
        if self.target.is_some() && !mask_changed {
            self.last.replan = true;
            return Some(self.emit_chunk(own, metrics, net));
        }
        if mask_changed {
            self.target = None;
        }

        let stranded = net
            .active
            .as_deref()
            .is_some_and(|mask| own.owners().iter().any(|&o| !mask[o as usize]));
        let due = (self.epochs - 1).is_multiple_of(self.cfg.period);
        let monitor = due && self.cfg.drift_threshold.is_finite();
        if !(monitor || mask_changed || stranded) {
            return None;
        }

        let fresh = self.fresh.get(own, net, &graph);
        let live_cut = graph.cut_bytes(own.owners());
        let cut_drift = if fresh.cut == 0 {
            if live_cut == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            live_cut as f64 / fresh.cut as f64
        };
        if monitor {
            self.last.cut_drift = cut_drift;
        }
        if !(cut_drift > self.cfg.drift_threshold || mask_changed || stranded) {
            return None;
        }
        if fresh.target.as_slice() == own.owners() {
            // Already at the fresh partition (e.g. a Join event before any
            // imbalance): nothing to stage.
            return None;
        }
        self.target = Some(fresh.target.clone());
        self.last.replan = true;
        Some(self.emit_chunk(own, metrics, net))
    }
}

/// `plan` without its moves onto inactive ranks (the incremental planners
/// are membership-blind).
pub(crate) fn drop_moves_onto_inactive(
    plan: MigrationPlan,
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
) -> MigrationPlan {
    let Some(mask) = net.active.as_deref() else {
        return plan;
    };
    if plan.moves.iter().all(|m| mask[m.to as usize]) {
        return plan;
    }
    let raw = plan
        .moves
        .into_iter()
        .filter(|m| mask[m.to as usize])
        .collect();
    plan_of(raw, own, metrics, net)
}

/// The plan that applies `raw` to `own`.
fn plan_of(
    raw: Vec<Move>,
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
) -> MigrationPlan {
    let mut working = own.clone();
    for m in &raw {
        working.set_owner(m.sd, m.to);
    }
    finish_plan(metrics.clone(), working, raw, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::policy::{LbPolicy, LbSpec, Planner};
    use crate::balance::power::compute_metrics;
    use nlheat_mesh::SdGrid;
    use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};
    use nlheat_partition::SdGraph;
    use std::sync::Arc;

    fn two_rack() -> NetSpec {
        NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(1e-7, 5e9),
            intra_rack: LinkSpec::new(1e-4, 1e8),
            inter_rack: LinkSpec::new(4e-4, 2.5e7),
        })
    }

    fn metrics_for(own: &Ownership) -> LoadMetrics {
        let busy: Vec<f64> = own.counts().iter().map(|&c| c.max(1) as f64).collect();
        compute_metrics(&own.counts(), &busy)
    }

    /// A deliberately scrambled 6x6 ownership over 4 nodes whose cut is
    /// far above fresh-partitioner quality.
    fn scrambled() -> (Ownership, Arc<SdGraph>) {
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36u32).map(|sd| (sd * 7 + sd / 6) % 4).collect();
        let graph = Arc::new(SdGraph::build(&sds, 2));
        (Ownership::new(sds, owners, 4), graph)
    }

    fn net_with_graph(graph: Arc<SdGraph>) -> LbNetwork {
        LbNetwork::for_sd_tiles(&two_rack(), 16).with_sd_graph(graph)
    }

    #[test]
    fn high_drift_triggers_a_replan_that_heals_the_cut() {
        let (own, graph) = scrambled();
        let net = net_with_graph(graph.clone());
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), 1.5, 1, u64::MAX).build();
        let plan = policy.plan(&own, &metrics_for(&own), &net);
        let info = policy.drift_info().expect("repartition reports drift");
        assert!(info.replan, "scrambled ownership must trigger a replan");
        assert!(info.cut_drift > 1.5, "drift {}", info.cut_drift);
        assert!(!plan.is_noop());
        let healed = graph.cut_bytes(plan.new_ownership.owners());
        let before = graph.cut_bytes(own.owners());
        assert!(
            healed * 3 < before * 2,
            "replan must cut ghost traffic substantially: {before} -> {healed}"
        );
    }

    #[test]
    fn below_threshold_delegates_to_inner() {
        // A block-clean ownership: drift ≈ 1, so a threshold of 3 never
        // fires and plans must match the bare inner policy.
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36u32)
            .map(|sd| {
                let (sx, sy) = (sd % 6, sd / 6);
                u32::from(sx >= 3) + 2 * u32::from(sy >= 3)
            })
            .collect();
        let own = Ownership::new(sds, owners, 4);
        let graph = Arc::new(SdGraph::build(&sds, 2));
        let net = net_with_graph(graph);
        let mut wrapped = LbSpec::repartition(LbSpec::tree(0.0), 3.0, 1, u64::MAX).build();
        let mut bare = LbSpec::tree(0.0).build();
        let m = metrics_for(&own);
        let a = wrapped.plan(&own, &m, &net);
        let b = bare.plan(&own, &m, &net);
        assert_eq!(a.moves, b.moves, "no-replan epoch must be the inner plan");
        let info = wrapped.drift_info().unwrap();
        assert!(!info.replan);
        assert!(
            info.cut_drift >= 1.0 && info.cut_drift <= 3.0,
            "{}",
            info.cut_drift
        );
    }

    #[test]
    fn byte_budget_stages_the_diff_across_epochs() {
        let (own, graph) = scrambled();
        let net = net_with_graph(graph);
        // ~36 SDs of 16 cells: each tile is 16*8+24 = 152 wire bytes.
        let budget = 3 * 152u64;
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), 1.2, 1, budget).build();
        let mut current = own.clone();
        let mut epochs_with_moves = 0;
        let mut total_moves = 0;
        for _ in 0..40 {
            let m = metrics_for(&current);
            let plan = policy.plan(&current, &m, &net);
            assert!(
                plan.comm.total_bytes <= budget,
                "epoch shipped {} > budget {budget}",
                plan.comm.total_bytes
            );
            assert!(plan.moves.len() <= 3);
            if plan.is_noop() {
                break;
            }
            epochs_with_moves += 1;
            total_moves += plan.moves.len();
            current = plan.new_ownership;
        }
        assert!(
            epochs_with_moves >= 3,
            "a large diff must be staged over multiple epochs, got {epochs_with_moves}"
        );
        assert!(total_moves > 6);
    }

    #[test]
    fn inactive_rank_is_evacuated_first_and_fully() {
        let (own, graph) = scrambled();
        let mut net = net_with_graph(graph);
        // rank 3 drained: mask off
        net.active = Some(Arc::new(vec![true, true, true, false]));
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), f64::INFINITY, 1, u64::MAX).build();
        let m = metrics_for(&own);
        let plan = policy.plan(&own, &m, &net);
        assert!(
            policy.drift_info().unwrap().replan,
            "stranded SDs force a replan"
        );
        let counts = plan.new_ownership.counts();
        assert_eq!(counts[3], 0, "rank 3 must end empty: {counts:?}");
        assert!(plan.moves.iter().all(|mv| mv.to != 3));
    }

    #[test]
    fn evacuations_outrank_cut_repairs_under_a_budget() {
        let (own, graph) = scrambled();
        let mut net = net_with_graph(graph);
        net.active = Some(Arc::new(vec![true, true, true, false]));
        let stranded: Vec<_> = own
            .owners()
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == 3)
            .map(|(sd, _)| sd as SdId)
            .collect();
        assert!(!stranded.is_empty());
        let budget = 152 * stranded.len() as u64; // exactly the evacuation
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), f64::INFINITY, 1, budget).build();
        let m = metrics_for(&own);
        let plan = policy.plan(&own, &m, &net);
        for sd in &stranded {
            assert!(
                plan.moves.iter().any(|mv| mv.sd == *sd),
                "stranded SD {sd} must be in the first chunk: {:?}",
                plan.moves
            );
        }
    }

    #[test]
    fn infinite_threshold_without_events_is_transparent() {
        let (own, graph) = scrambled();
        let net = net_with_graph(graph);
        let mut wrapped =
            LbSpec::repartition(LbSpec::greedy_steal(1), f64::INFINITY, 1, u64::MAX).build();
        let mut bare = LbSpec::greedy_steal(1).build();
        let m = metrics_for(&own);
        let a = wrapped.plan(&own, &m, &net);
        let b = bare.plan(&own, &m, &net);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.new_ownership, b.new_ownership);
        assert_eq!(
            wrapped.drift_info().unwrap().cut_drift,
            0.0,
            "monitor never ran"
        );
    }

    #[test]
    fn cadence_skips_off_period_epochs() {
        let (own, graph) = scrambled();
        let net = net_with_graph(graph);
        // period 3: epochs 1 and 4 are due; wrap an inert inner (huge
        // threshold would hide the replan, so use a small one and watch
        // which epochs report a fresh drift).
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), 1e6, 3, u64::MAX).build();
        let m = metrics_for(&own);
        policy.plan(&own, &m, &net);
        let d1 = policy.drift_info().unwrap().cut_drift;
        assert!(d1 > 0.0, "epoch 1 is due");
        // mutate nothing; epochs 2 and 3 must not recompute
        policy.plan(&own, &m, &net);
        policy.plan(&own, &m, &net);
        assert_eq!(policy.drift_info().unwrap().cut_drift, d1);
    }

    /// `tree(0)` behind a monitor that is due every epoch — the concrete
    /// planner, so the tests below can read the memo's computation count.
    fn monitor(drift_threshold: f64, max_bytes_per_epoch: u64) -> Planner {
        let spec = LbSpec::repartition(LbSpec::tree(0.0), drift_threshold, 1, max_bytes_per_epoch);
        Planner::new(&spec)
    }

    fn state(planner: &mut Planner) -> &mut Monitor {
        planner.monitor.as_mut().expect("built with a monitor")
    }

    #[test]
    fn steady_membership_partitions_once() {
        let (own, graph) = scrambled();
        let net = net_with_graph(graph);
        // a threshold no drift reaches: every epoch monitors, none replans,
        // the inner tree keeps changing the ownership under the monitor
        let mut policy = monitor(1e6, u64::MAX);
        let mut current = own;
        let mut owners_seen = std::collections::HashSet::new();
        for _ in 0..6 {
            owners_seen.insert(current.owners().to_vec());
            current = policy
                .plan(&current, &metrics_for(&current), &net)
                .new_ownership;
            assert!(policy.drift_info().unwrap().cut_drift > 0.0);
        }
        assert!(owners_seen.len() > 1, "the ownership must move under it");
        assert_eq!(state(&mut policy).fresh.computations, 1);
    }

    #[test]
    fn each_changed_input_recomputes_exactly_once() {
        let (own, graph) = scrambled();
        let footprints = graph.footprints();
        let total: u64 = footprints.iter().sum();
        let with = |caps: Vec<u64>, footprints: Vec<u64>, mask: [bool; 4]| {
            let mut net =
                net_with_graph(graph.clone()).with_memory(Arc::new(caps), Arc::new(footprints));
            net.active = Some(Arc::new(mask.to_vec()));
            net
        };
        let m = metrics_for(&own);
        let mut policy = monitor(1e6, u64::MAX);
        let mut computed_after = |net: &LbNetwork| {
            // twice: the second call must be served from the memo
            policy.plan(&own, &m, net);
            policy.plan(&own, &m, net);
            state(&mut policy).fresh.computations
        };
        let base = with(vec![total; 4], footprints.clone(), [true; 4]);
        assert_eq!(computed_after(&base), 1);
        // equal values behind new `Arc`s: the key compares by value
        let again = with(vec![total; 4], footprints.clone(), [true; 4]);
        assert_eq!(computed_after(&again), 1);
        let masked = with(
            vec![total; 4],
            footprints.clone(),
            [true, true, true, false],
        );
        assert_eq!(computed_after(&masked), 2);
        let capped = with(
            vec![total, total, total / 2, total],
            footprints.clone(),
            [true, true, true, false],
        );
        assert_eq!(computed_after(&capped), 3);
        let mut heavier = footprints.clone();
        heavier[0] += 8;
        let refooted = with(
            vec![total, total, total / 2, total],
            heavier,
            [true, true, true, false],
        );
        assert_eq!(computed_after(&refooted), 4);
        // a cap of an *inactive* rank is not an input
        let idle_cap = {
            let mut heavier = footprints.clone();
            heavier[0] += 8;
            with(
                vec![total, total, total / 2, 1],
                heavier,
                [true, true, true, false],
            )
        };
        assert_eq!(computed_after(&idle_cap), 4);
    }

    #[test]
    fn memoised_monitor_matches_one_that_forgets_every_epoch() {
        let (own, graph) = scrambled();
        let mut net = net_with_graph(graph);
        // a budget of five tiles stages every diff over several epochs
        let mut kept = monitor(1.2, 5 * 152);
        let mut forgetful = monitor(1.2, 5 * 152);
        let masks = [
            [true, true, true, true],
            [true, true, true, false], // rank 3 drains at epoch 5
            [true, true, true, true],  // and rejoins at epoch 11
        ];
        let mut current = own;
        let mut replans = 0;
        for epoch in 0..18 {
            net.active = Some(Arc::new(
                masks[(epoch >= 4) as usize + (epoch >= 10) as usize].to_vec(),
            ));
            let m = metrics_for(&current);
            state(&mut forgetful).fresh = FreshMemo::default();
            let a = kept.plan(&current, &m, &net);
            let b = forgetful.plan(&current, &m, &net);
            assert_eq!(a.moves, b.moves, "epoch {epoch}");
            assert_eq!(
                state(&mut kept).target,
                state(&mut forgetful).target,
                "epoch {epoch}"
            );
            assert_eq!(kept.drift_info(), forgetful.drift_info(), "epoch {epoch}");
            replans += usize::from(kept.drift_info().unwrap().replan);
            current = a.new_ownership;
        }
        assert!(replans >= 6, "staged replans must be part of the run");
        // one partition per membership (the memo holds the last one only)
        assert_eq!(state(&mut kept).fresh.computations, 3);
    }

    #[test]
    fn join_spreads_load_onto_the_new_rank() {
        // Everything on ranks {0,1}; rank 2 joins (mask flips on) with
        // the monitor forced by the membership change.
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36u32).map(|sd| sd % 2).collect();
        let own = Ownership::new(sds, owners, 3);
        let graph = Arc::new(SdGraph::build(&sds, 2));
        let mut net = LbNetwork::for_sd_tiles(&two_rack(), 16).with_sd_graph(graph);
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), f64::INFINITY, 1, u64::MAX).build();
        // epoch 1: only {0,1} active — baseline
        net.active = Some(Arc::new(vec![true, true, false]));
        let m = metrics_for(&own);
        let p1 = policy.plan(&own, &m, &net);
        assert!(p1.moves.iter().all(|mv| mv.to != 2));
        // epoch 2: rank 2 joins — mask change forces a replan onto it
        net.active = Some(Arc::new(vec![true, true, true]));
        let p2 = policy.plan(&own, &m, &net);
        assert!(policy.drift_info().unwrap().replan);
        assert!(
            p2.new_ownership.counts()[2] > 0,
            "join must receive load: {:?}",
            p2.new_ownership.counts()
        );
    }

    #[test]
    fn no_graph_degenerates_to_inner_with_filtering() {
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 0, 1], 2);
        let net = LbNetwork::free();
        let mut wrapped = LbSpec::repartition(LbSpec::tree(0.0), 1.01, 1, u64::MAX).build();
        let mut bare = LbSpec::tree(0.0).build();
        let m = metrics_for(&own);
        assert_eq!(
            wrapped.plan(&own, &m, &net).moves,
            bare.plan(&own, &m, &net).moves
        );
        assert!(policy_reports_no_monitor(&*wrapped));
    }

    fn policy_reports_no_monitor(p: &dyn LbPolicy) -> bool {
        p.drift_info()
            .is_some_and(|d| d.cut_drift == 0.0 && !d.replan)
    }

    #[test]
    fn respects_memory_caps_in_the_fresh_partition() {
        let (own, graph) = scrambled();
        let footprints = Arc::new(graph.footprints());
        // rank 0 can barely hold a quarter of the total; others are loose
        let total: u64 = footprints.iter().sum();
        let caps = Arc::new(vec![total / 4, total, total, total]);
        let net = net_with_graph(graph.clone()).with_memory(caps.clone(), footprints.clone());
        let mut policy = LbSpec::repartition(LbSpec::tree(0.0), 1.2, 1, u64::MAX).build();
        let m = metrics_for(&own);
        let plan = policy.plan(&own, &m, &net);
        assert!(policy.drift_info().unwrap().replan);
        let mut usage = [0u64; 4];
        for (sd, &o) in plan.new_ownership.owners().iter().enumerate() {
            usage[o as usize] += footprints[sd];
        }
        assert!(
            usage[0] <= caps[0],
            "rank 0 over its cap: {} > {}",
            usage[0],
            caps[0]
        );
    }
}
