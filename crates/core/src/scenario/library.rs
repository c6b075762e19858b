//! Named, parameterized library scenarios — the workloads the ablations,
//! examples and CI smoke runs share instead of hand-building configs.
//!
//! Every entry comes in two sizes: `quick = true` is a toy size that runs
//! on *both* substrates in well under a second (the CI smoke contract);
//! `quick = false` is the paper-scale simulator workload the ablation
//! figures sweep.

use super::{ClusterEvent, ClusterSpec, LbInput, PartitionSpec, Scenario};
use crate::balance::{LbSchedule, LbSpec};
use crate::workload::WorkModel;
use nlheat_mesh::SdGrid;
use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};
use nlheat_partition::strip_partition;

/// The canonical two-rack interconnect of ablations A6–A9: 100 µs /
/// 100 MB/s inside a rack, 4× the latency and a quarter of the bandwidth
/// across racks, near-free intra-node links.
pub fn two_rack_net() -> NetSpec {
    NetSpec::Topology(TopologySpec {
        ranks_per_node: 1,
        nodes_per_rack: 2,
        intra_node: LinkSpec::new(1e-7, 5e9),
        intra_rack: LinkSpec::new(1e-4, 1e8),
        inter_rack: LinkSpec::new(4e-4, 2.5e7),
    })
}

/// A Fig.-14-style lopsided explicit start over `n_nodes`: node 0 owns
/// everything except one far-corner seed SD per other node, so every
/// territory is non-empty (all policies can find frontiers) and the
/// balancer must redistribute most of the mesh.
///
/// # Panics
/// Panics when `n_nodes` exceeds the five supported seeds (node 0 plus
/// four corners) or the grid is too small for the seeds to be distinct —
/// a silent collision would leave a territory empty, breaking the
/// non-empty guarantee above.
pub fn lopsided_owners(sds: &SdGrid, n_nodes: u32) -> Vec<u32> {
    let mut owners = vec![0u32; sds.count()];
    let (nsx, nsy) = (sds.nsx, sds.nsy);
    let corners = [
        (nsx - 1, 0),
        (0, nsy - 1),
        (nsx - 1, nsy - 1),
        (nsx / 2, nsy - 1),
    ];
    assert!(
        (n_nodes as usize) <= corners.len() + 1,
        "lopsided_owners seeds at most {} nodes, got {n_nodes}",
        corners.len() + 1
    );
    let mut seeded = std::collections::HashSet::new();
    for node in 1..n_nodes {
        let (x, y) = corners[node as usize - 1];
        let id = sds.id(x, y) as usize;
        assert!(
            id != 0 && seeded.insert(id),
            "grid of {nsx}x{nsy} SDs is too small for {n_nodes} distinct corner seeds"
        );
        owners[id] = node;
    }
    owners
}

/// The paper's baseline distributed experiment: uniform 4-node cluster,
/// METIS-style initial partition, Algorithm-1 balancing.
pub fn paper_baseline(quick: bool) -> Scenario {
    let base = if quick {
        Scenario::square(16, 2.0, 4, 6)
    } else {
        Scenario::square(400, 8.0, 25, 40)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_lb(LbSchedule::every(if quick { 2 } else { 4 }))
}

/// The 2-rack lopsided redistribution of ablation A9: a Fig.-14 start on
/// equal-speed nodes over the two-rack interconnect, balanced by the
/// ghost-aware tree planner (μ in the shaping band), so *where* the
/// cross-rack territories grow is the experiment.
pub fn lopsided_two_rack(quick: bool) -> Scenario {
    // The quick size keeps 8-cell SDs and a wider stencil (like the
    // heterogeneous entry) so per-SD busy relief clears the ~100 µs link
    // estimates μ weighs it against — at 4-cell SDs any practical μ gated
    // the whole redistribution (the old A9 smoke-scale caveat) and the
    // quick variant had to plan ghost-blind. μ stays small because the
    // modeled planning input sees one step of busy, not a whole epoch
    // window; 0.01 shapes plans without gating them in either mode.
    let base = if quick {
        Scenario::square(48, 4.0, 8, 8)
    } else {
        Scenario::square(400, 8.0, 25, 48)
    };
    let sds = base.sd_grid();
    let mu = if quick { 0.01 } else { 0.25 };
    base.on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_partition(PartitionSpec::Explicit(lopsided_owners(&sds, 4)))
        .with_lb(
            LbSchedule::every(if quick { 2 } else { 4 }).with_spec(LbSpec::tree(0.0).with_mu(mu)),
        )
}

/// A *propagating* crack (the paper's §9 outlook toward fracture): the
/// quarter-work band jumps mid-run, so the balancer must keep chasing the
/// cheap region. Runs on both substrates — the real runtime executes the
/// same `work_schedule` the simulator models.
pub fn propagating_crack(quick: bool) -> Scenario {
    let (base, y0, dy, half_width, jump_step) = if quick {
        (Scenario::square(16, 2.0, 4, 8), 4i64, 8i64, 2i64, 4usize)
    } else {
        (Scenario::square(400, 8.0, 25, 32), 200, 100, 30, 16)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_partition(PartitionSpec::Strip)
        .with_work_schedule(vec![
            (
                0,
                WorkModel::Crack {
                    y_cell: y0,
                    half_width,
                    factor: 0.25,
                },
            ),
            (
                jump_step,
                WorkModel::Crack {
                    y_cell: y0 + dy,
                    half_width,
                    factor: 0.25,
                },
            ),
        ])
        .with_lb(LbSchedule::every(if quick { 2 } else { 4 }))
}

/// The heterogeneous cluster of ablation A4 / the example: speeds
/// 2 : 1 : 1 : 0.5, so without balancing the slow node drags every step.
pub fn heterogeneous_cluster(quick: bool) -> Scenario {
    // The quick size keeps 8-cell SDs and a wider stencil so per-SD
    // compute dominates the (speed-independent) spawn overhead in the
    // simulator's cost model — otherwise the virtual busy times barely
    // differentiate and the toy run never migrates.
    let base = if quick {
        Scenario::square(32, 4.0, 8, 8)
    } else {
        Scenario::square(400, 8.0, 25, 40)
    };
    base.on(ClusterSpec::speeds(&[2.0, 1.0, 1.0, 0.5]))
        .with_lb(LbSchedule::every(if quick { 2 } else { 4 }))
}

/// Incast over the duplex model: a strip distribution on a
/// receiver-ingress-serialized network ([`NetSpec::duplex`]), the only
/// model where many senders converging on one receiver queue at its NIC.
pub fn incast_duplex(quick: bool) -> Scenario {
    let base = if quick {
        Scenario::square(16, 2.0, 4, 4)
    } else {
        Scenario::square(400, 8.0, 25, 20)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_partition(PartitionSpec::Strip)
        .with_net(NetSpec::duplex(1e-4, 1e8))
}

/// Memory pressure (the Lifflander-et-al. motivation): node 3 is twice as
/// fast as its peers, so a capacity-blind planner funnels SDs onto it —
/// but its memory holds only ~1.5 SD footprints beyond its strip start.
/// The hierarchical planner's capacity gate must stop exactly at the cap
/// while still shedding load toward the other under-loaded nodes;
/// [`super::RunReport::check_invariants`] replays every recorded plan
/// against the declared capacity.
pub fn memory_pressure(quick: bool) -> Scenario {
    // Same sizing rationale as the heterogeneous entry: 8-cell SDs and a
    // wider stencil so the speed contrast actually shows up in the
    // modeled busy times at toy scale.
    let base = if quick {
        Scenario::square(32, 4.0, 8, 8)
    } else {
        Scenario::square(400, 8.0, 25, 32)
    };
    let sds = base.sd_grid();
    let owners = PartitionSpec::Strip.initial_owners(&sds, 4);
    let footprints = base.sd_footprints();
    let mut usage = [0u64; 4];
    for (sd, &o) in owners.iter().enumerate() {
        usage[o as usize] += footprints[sd];
    }
    // headroom for ~1.5 of the largest footprints on top of the strip
    // start — far less than the fast node's fair share wants
    let cap = usage[3] + 3 * footprints.iter().copied().max().unwrap_or(0) / 2;
    base.on(ClusterSpec::speeds(&[1.0, 1.0, 1.0, 2.0]).with_node_memory(3, cap))
        .with_net(two_rack_net())
        .with_partition(PartitionSpec::Strip)
        .with_lb(
            LbSchedule::every(if quick { 2 } else { 4 })
                .with_spec(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)),
        )
}

/// A deliberately decayed ownership over `n_nodes`: node 0 holds a
/// lopsided majority while the other nodes own single-SD islands
/// interleaved through its territory — the kind of map a long run of
/// purely incremental balancing leaves behind (ragged frontiers, high
/// recurring cut, skewed counts). Every node owns at least one SD as
/// long as the grid has `2·n_nodes` SDs.
pub fn drifted_owners(sds: &SdGrid, n_nodes: u32) -> Vec<u32> {
    assert!(n_nodes >= 2, "drift needs somebody to drift against");
    (0..sds.count() as u32)
        .map(|sd| {
            let slot = sd % (2 * n_nodes);
            if slot % 2 == 1 {
                (slot / 2) % (n_nodes - 1) + 1
            } else {
                0
            }
        })
        .collect()
}

/// Cut drift on the two-rack cluster (ablation A12): the run starts from
/// [`drifted_owners`] — a lopsided, island-riddled map whose recurring
/// ghost cut is far above a fresh k-way partition's — and a propagating
/// crack keeps the balancer working. Incremental policies can fix the
/// count skew but never heal the islands; the [`LbSpec::repartition`]
/// decorator's drift monitor compares the live cut against a fresh
/// partition each epoch and re-invokes the multilevel partitioner once
/// the ratio passes the threshold. A12 swaps the spec to compare
/// repartitioning, the incremental policies alone, and the composed
/// decorator. Modeled planning input, so both substrates produce
/// identical plan sequences.
pub fn cut_drift(quick: bool) -> Scenario {
    let base = if quick {
        Scenario::square(48, 4.0, 8, 10)
    } else {
        Scenario::square(400, 8.0, 25, 48)
    };
    let sds = base.sd_grid();
    let (y0, dy, half_width, jump_step) = if quick {
        (12i64, 24i64, 6i64, 4usize)
    } else {
        (100, 200, 30, 16)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_partition(PartitionSpec::Explicit(drifted_owners(&sds, 4)))
        .with_work_schedule(vec![
            (
                0,
                WorkModel::Crack {
                    y_cell: y0,
                    half_width,
                    factor: 0.25,
                },
            ),
            (
                jump_step,
                WorkModel::Crack {
                    y_cell: y0 + dy,
                    half_width,
                    factor: 0.25,
                },
            ),
        ])
        .with_lb(
            LbSchedule::every(if quick { 2 } else { 4 }).with_spec(LbSpec::repartition(
                LbSpec::tree(0.0),
                1.15,
                1,
                u64::MAX,
            )),
        )
        .with_lb_input(LbInput::Modeled)
}

/// Elastic scale-out: the run starts on half the declared cluster (ranks
/// 2 and 3 are declared but unjoined), then the spare ranks join mid-run
/// and the replanner spreads load onto the fresh capacity. The ∞ drift
/// threshold makes membership changes the *only* replan trigger, so the
/// timeline is the whole experiment. Modeled planning input — both
/// substrates must realize identical plan sequences.
pub fn elastic_scale_out(quick: bool) -> Scenario {
    let base = if quick {
        Scenario::square(32, 4.0, 8, 10)
    } else {
        Scenario::square(400, 8.0, 25, 32)
    };
    let sds = base.sd_grid();
    let (joins, period) = if quick {
        (vec![3usize, 5usize], 2)
    } else {
        (vec![8, 16], 4)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_partition(PartitionSpec::Explicit(strip_partition(&sds, 2)))
        .with_cluster_events(vec![
            (joins[0], ClusterEvent::Join { rank: 2 }),
            (joins[1], ClusterEvent::Join { rank: 3 }),
        ])
        .with_lb(LbSchedule::every(period).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        )))
        .with_lb_input(LbInput::Modeled)
}

/// Rank failure: rank 3 fail-stops mid-run. The replanner must evacuate
/// it at the next epoch (it keeps computing its SDs until then — the
/// membership timeline is a planner-level fact, so the numerics stay
/// bit-exact), and its in-flight ghost contributions are dropped from the
/// planner-grade counters for the steps it spends failed.
pub fn rank_failure(quick: bool) -> Scenario {
    let (base, fail_step, period) = if quick {
        (Scenario::square(32, 4.0, 8, 10), 5, 2)
    } else {
        (Scenario::square(400, 8.0, 25, 32), 16, 4)
    };
    base.on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_cluster_events(vec![(fail_step, ClusterEvent::Fail { rank: 3 })])
        .with_lb(LbSchedule::every(period).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        )))
        .with_lb_input(LbInput::Modeled)
}

/// Synthetic planning-scale harness for the hierarchical planner: ~100
/// SDs per rank on a square SD grid, four ranks per node, 25 nodes per
/// rack, and a deterministic 7-period speed skew so the strip start is
/// genuinely imbalanced at every scale. One declared timestep — this
/// scenario exists to be *planned*, not run: drive it through
/// [`super::PlanSubstrate`] (the plan-time sweeps and the repository
/// benchmark's `plan_scale`), which is why it is not in [`all`].
pub fn plan_scale(n_ranks: usize) -> Scenario {
    plan_scale_with_density(n_ranks, 100)
}

/// [`plan_scale`] at an explicit SDs-per-rank density. The repository
/// benchmark plans 500 ranks at 10 SDs/rank: dense enough that the flat
/// planner's global walk dominates, sparse enough to fit its budget.
pub fn plan_scale_with_density(n_ranks: usize, sds_per_rank: usize) -> Scenario {
    assert!(n_ranks >= 2, "plan_scale needs at least two ranks");
    let sd_size = 5usize;
    // `sds_per_rank` SDs per rank, squared up (the count bends to the square)
    let side = (((n_ranks * sds_per_rank) as f64).sqrt().round() as usize).max(2);
    let speeds: Vec<f64> = (0..n_ranks).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    Scenario::square(side * sd_size, 2.0, sd_size, 1)
        .on(ClusterSpec::speeds(&speeds))
        .with_net(NetSpec::Topology(TopologySpec {
            ranks_per_node: 4,
            nodes_per_rack: 25,
            intra_node: LinkSpec::new(1e-7, 5e9),
            intra_rack: LinkSpec::new(1e-4, 1e8),
            inter_rack: LinkSpec::new(4e-4, 2.5e7),
        }))
        .with_partition(PartitionSpec::Strip)
        .with_lb(LbSchedule::every(2).with_spec(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)))
}

/// Every named library scenario at the chosen scale, in a stable order.
pub fn all(quick: bool) -> Vec<(&'static str, Scenario)> {
    vec![
        ("paper-baseline", paper_baseline(quick)),
        ("lopsided-two-rack", lopsided_two_rack(quick)),
        ("propagating-crack", propagating_crack(quick)),
        ("heterogeneous-cluster", heterogeneous_cluster(quick)),
        ("incast-duplex", incast_duplex(quick)),
        ("memory-pressure", memory_pressure(quick)),
        ("cut-drift", cut_drift(quick)),
        ("elastic-scale-out", elastic_scale_out(quick)),
        ("rank-failure", rank_failure(quick)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_library_scenario_validates_at_both_scales() {
        for quick in [true, false] {
            for (name, sc) in all(quick) {
                sc.validate();
                assert!(sc.cluster.len() >= 2, "{name}: multi-node by design");
            }
        }
    }

    #[test]
    fn quick_scenarios_run_on_the_real_runtime() {
        // the CI smoke contract at unit scope: the real-runtime leg of
        // every library scenario completes at toy size with a sane report
        for (name, sc) in all(true) {
            let report = sc.run_dist();
            report.check_invariants();
            assert!(report.field.is_some(), "{name}");
        }
    }

    #[test]
    fn quick_imbalanced_scenarios_produce_non_empty_plans() {
        // The A9 smoke-scale caveat is fixed: every quick scenario that
        // *starts* imbalanced must actually redistribute, with its real
        // μ/λ spec, under the deterministic modeled planning input (the
        // quick lopsided entry used to need a ghost-blind μ = 0 to move
        // at all). paper-baseline (already balanced) and incast-duplex
        // (no balancer) legitimately plan nothing.
        for name in [
            "lopsided-two-rack",
            "propagating-crack",
            "heterogeneous-cluster",
        ] {
            let (_, sc) = all(true)
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("library entry");
            let report = sc.with_lb_input(super::super::LbInput::Modeled).run_dist();
            report.check_invariants();
            assert!(
                !report.lb_plans.is_empty() && report.migrations > 0,
                "{name}: quick variant must produce non-empty plans \
                 (got {} plans, {} migrations)",
                report.lb_plans.len(),
                report.migrations
            );
        }
    }

    #[test]
    fn cut_drift_scenario_replans_at_least_once() {
        // The A12 smoke contract: the drifting quick scenario must
        // trigger the drift monitor (≥ 1 replanned epoch) on the real
        // runtime, and the drift column must be populated.
        let report = cut_drift(true).run_dist();
        report.check_invariants();
        assert!(
            report.epoch_traces.iter().any(|t| t.replan),
            "drift monitor must fire at least once: {:?}",
            report
                .epoch_traces
                .iter()
                .map(|t| (t.step, t.cut_drift, t.replan))
                .collect::<Vec<_>>()
        );
        assert!(
            report.epoch_traces.iter().any(|t| t.cut_drift > 0.0),
            "monitored epochs must record the measured drift"
        );
    }

    #[test]
    fn elastic_scale_out_spreads_onto_joined_ranks() {
        let report = elastic_scale_out(true).run_dist();
        report.check_invariants();
        let counts = report.final_ownership.counts();
        assert!(
            counts[2] > 0 && counts[3] > 0,
            "joined ranks must receive work: {counts:?}"
        );
        assert!(report.epoch_traces.iter().any(|t| t.replan));
    }

    #[test]
    fn rank_failure_evacuates_the_failed_rank() {
        let report = rank_failure(true).run_dist();
        report.check_invariants();
        let counts = report.final_ownership.counts();
        assert_eq!(counts[3], 0, "failed rank must end empty: {counts:?}");
        assert!(report.migrations > 0);
    }

    #[test]
    fn lopsided_owners_leave_no_empty_territory() {
        let sds = SdGrid::new(4, 4, 4);
        for n_nodes in 2..=5u32 {
            let owners = lopsided_owners(&sds, n_nodes);
            for node in 0..n_nodes {
                assert!(owners.contains(&node), "node {node} must own a seed");
            }
            assert_eq!(
                owners.iter().filter(|&&o| o == 0).count(),
                16 - (n_nodes as usize - 1)
            );
        }
    }

    #[test]
    #[should_panic(expected = "seeds at most 5 nodes")]
    fn lopsided_owners_reject_too_many_nodes() {
        let sds = SdGrid::new(4, 4, 4);
        let _ = lopsided_owners(&sds, 6);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn lopsided_owners_reject_colliding_seeds() {
        // a 2x1 grid cannot host four distinct corner seeds
        let sds = SdGrid::new(2, 1, 4);
        let _ = lopsided_owners(&sds, 4);
    }
}
