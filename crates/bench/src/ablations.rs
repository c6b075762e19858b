//! Ablation studies for the design choices the README's sections argue.

use crate::figdata::{FigData, Series};
use nlheat_amt::counters::threads_counter_name;
use nlheat_core::balance::{LbSchedule, LbSpec};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::sweep::{Axis, ScenarioSweep};
use nlheat_core::scenario::{
    ClusterSpec, LbInput, PartitionSpec, PlanSubstrate, RunReport, Scenario,
};
use nlheat_core::scenarios::{
    cut_drift, elastic_scale_out, heterogeneous_cluster, lopsided_owners, memory_pressure,
    plan_scale, propagating_crack, rank_failure, two_rack_net,
};
use nlheat_core::workload::WorkModel;
use nlheat_mesh::{Grid, SdGrid};
use nlheat_netmodel::{LinkClass, NetSpec};
use nlheat_partition::{edge_cut, sd_dual_graph, strip_partition, SdGraph};
use nlheat_sim::{RunSim, SimSubstrate};

/// The paper problem (ε = 8h) on `cluster` — the simulator legs' base.
fn paper(mesh: usize, sd: usize, steps: usize, cluster: ClusterSpec) -> Scenario {
    Scenario::square(mesh, 8.0, sd, steps).on(cluster)
}

/// Bytes the simulated run moved between nodes.
fn cross_bytes(report: &RunReport) -> u64 {
    report.sim_extras().expect("sim extras").cross_bytes
}

/// **A1** — partition quality: multilevel METIS-substitute vs naive
/// strips, by dual-graph edge cut and simulated cross-node traffic.
pub fn a1_partition_quality(quick: bool) -> FigData {
    let mesh = if quick { 200 } else { 800 };
    let sd = 25;
    let steps = if quick { 3 } else { 20 };
    let mut fig = FigData::new(
        format!("A1 — partition quality on {mesh}x{mesh}, SD {sd}x{sd}"),
        "#nodes",
        "edge cut (cells) / cross-traffic (MB)",
    );
    let sds = SdGrid::tile_mesh(mesh, mesh, sd);
    let dual = sd_dual_graph(&sds);
    let mut cut_metis = Series::new("edgecut-metis");
    let mut cut_strip = Series::new("edgecut-strip");
    let mut mb_metis = Series::new("MB-metis");
    let mut mb_strip = Series::new("MB-strip");
    for &k in &[2usize, 4, 8] {
        let metis = nlheat_partition::part_mesh_dual(&sds, k as u32, 1);
        let strip = strip_partition(&sds, k as u32);
        cut_metis.push(k as f64, metis.edgecut as f64);
        cut_strip.push(k as f64, edge_cut(&dual, &strip) as f64);
        let sc = paper(mesh, sd, steps, ClusterSpec::uniform(k, 1));
        let metis_run = sc
            .clone()
            .with_partition(PartitionSpec::Metis { seed: 1 })
            .run_sim();
        mb_metis.push(k as f64, cross_bytes(&metis_run) as f64 / 1e6);
        let strip_run = sc.with_partition(PartitionSpec::Strip).run_sim();
        mb_strip.push(k as f64, cross_bytes(&strip_run) as f64 / 1e6);
    }
    fig.series = vec![cut_metis, cut_strip, mb_metis, mb_strip];
    fig
}

/// **A2** — hiding data-exchange time: case-1/case-2 overlap ON vs OFF
/// across a network-latency sweep (time ratio OFF/ON; > 1 means overlap
/// wins).
pub fn a2_overlap(quick: bool) -> FigData {
    let steps = if quick { 3 } else { 20 };
    let mut fig = FigData::new(
        "A2 — communication hiding: no-overlap time / overlap time",
        "latency (µs)",
        "slowdown without overlap",
    );
    let mut ratio = Series::new("no-overlap / overlap");
    for &lat_us in &[1.0f64, 100.0, 1000.0, 5000.0] {
        let sc = paper(200, 50, steps, ClusterSpec::uniform(4, 1))
            .with_net(NetSpec::shared(lat_us * 1e-6, 1e9));
        let with = sc.clone().with_overlap(true).run_sim().makespan;
        let without = sc.with_overlap(false).run_sim().makespan;
        ratio.push(lat_us, without / with);
    }
    fig.series.push(ratio);
    fig
}

/// **A3** — SD size sweep (§6.1: "the size of an SD can be tuned"):
/// total time vs SD side length for a fixed mesh and node count.
pub fn a3_sd_size(quick: bool) -> FigData {
    let mesh = 400;
    let steps = if quick { 3 } else { 20 };
    let mut fig = FigData::new(
        "A3 — SD granularity on 400x400, 4 nodes x 2 cores",
        "SD side (cells)",
        "total time (ms)",
    );
    let mut t = Series::new("time");
    for &sd in &[10usize, 20, 25, 50, 100, 200] {
        let sc = paper(mesh, sd, steps, ClusterSpec::uniform(4, 2));
        t.push(sd as f64, sc.run_sim().makespan * 1e3);
    }
    fig.series.push(t);
    fig
}

/// **A4** — load balancer ON vs OFF on a heterogeneous cluster
/// (one node twice as fast).
pub fn a4_lb_heterogeneous(quick: bool) -> FigData {
    let steps = if quick { 8 } else { 40 };
    let mut fig = FigData::new(
        "A4 — LB under node heterogeneity (speeds 2:1:1:1)",
        "LB period (steps; 0 = off)",
        "total time (ms)",
    );
    let mut t = Series::new("time");
    let sc = paper(400, 25, steps, ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0]));
    t.push(0.0, sc.run_sim().makespan * 1e3);
    for &period in &[2usize, 4, 8] {
        let on = sc.clone().with_lb(LbSchedule::every(period));
        t.push(period as f64, on.run_sim().makespan * 1e3);
    }
    fig.series.push(t);
    fig
}

/// **A5** — the crack workload (§7 motivation): a low-work crack band
/// makes its host SDs cheap; LB ON vs OFF.
pub fn a5_crack(quick: bool) -> FigData {
    let steps = if quick { 8 } else { 40 };
    let mut fig = FigData::new(
        "A5 — crack workload (band of quarter-work SDs), 4 symmetric nodes",
        "LB period (steps; 0 = off)",
        "total time (ms)",
    );
    let mut t = Series::new("time");
    // crack through the middle: the strip partition gives one node the
    // whole cheap band, so the others become the bottleneck
    let sc = paper(400, 25, steps, ClusterSpec::uniform(4, 1))
        .with_partition(PartitionSpec::Strip)
        .with_work(WorkModel::Crack {
            y_cell: 200,
            half_width: 30,
            factor: 0.25,
        });
    t.push(0.0, sc.run_sim().makespan * 1e3);
    for &period in &[2usize, 4, 8] {
        let on = sc.clone().with_lb(LbSchedule::every(period));
        t.push(period as f64, on.run_sim().makespan * 1e3);
    }
    fig.series.push(t);
    fig
}

/// **A5b** — a *propagating* crack (the §9 outlook toward fracture): the
/// quarter-work band jumps to a new position every `dwell` steps. The
/// balancer (period 4) wins when the dwell exceeds its adaptation time and
/// loses when the crack outruns it — the boundary this ablation maps out.
pub fn a5b_moving_crack(quick: bool) -> FigData {
    let steps = if quick { 32 } else { 64 };
    let mut fig = FigData::new(
        "A5b - propagating crack: LB gain vs crack dwell time",
        "dwell (steps between crack jumps)",
        "time without LB / time with LB (period 4)",
    );
    let mut ratio = Series::new("no-LB / LB");
    for &dwell in &[4usize, 8, 16, 32] {
        let jumps = steps / dwell;
        // Partial band (as in A5): eq. 8 models power per *node*, so a
        // crack that makes a whole strip cheap inflates that node's power
        // estimate and the plan oscillates — a granularity limitation of
        // the algorithm documented in EXPERIMENTS.md. A partial band keeps
        // the per-node estimate sound.
        let schedule = (0..jumps)
            .map(|seg| {
                (
                    seg * dwell,
                    WorkModel::Crack {
                        y_cell: 100 + ((seg * 100) % 300) as i64,
                        half_width: 30,
                        factor: 0.25,
                    },
                )
            })
            .collect();
        let sc = paper(400, 25, steps, ClusterSpec::uniform(4, 1))
            .with_partition(PartitionSpec::Strip)
            .with_work_schedule(schedule);
        let off = sc.run_sim().makespan;
        let on = sc.with_lb(LbSchedule::every(4)).run_sim().makespan;
        ratio.push(dwell as f64, off / on);
    }
    fig.series.push(ratio);
    fig
}

/// **A6** — network-model sweep (the pluggable `NetSpec` layer): the same
/// heterogeneous-cluster workload under increasingly contended network
/// models, with the load balancer off and on. Shows how much of the LB win
/// survives as communication stops being free — the premise of
/// communication-aware balancing (Lifflander et al., arXiv:2404.16793).
pub fn a6_network_models(quick: bool) -> FigData {
    let steps = if quick { 8 } else { 40 };
    let mut fig = FigData::new(
        "A6 — network models on a heterogeneous 4-node cluster (speeds 2:1:1:1)",
        "model (0=instant 1=constant 2=shared 3=topology)",
        "total time (ms)",
    );
    // A deliberately tight network so the serialization term matters:
    // 100 µs latency, 100 MB/s per NIC; the topology variant splits the
    // four nodes into two racks with a 4x slower inter-rack uplink
    // (the shared library interconnect, `scenarios::two_rack_net`).
    let specs: [(f64, NetSpec); 4] = [
        (0.0, NetSpec::Instant),
        (1.0, NetSpec::constant(1e-4, 1e8)),
        (2.0, NetSpec::shared(1e-4, 1e8)),
        (3.0, two_rack_net()),
    ];
    let mut net_axis = Axis::new("net");
    for (x, spec) in specs {
        net_axis = net_axis.value(format!("{x}"), x, move |sc: Scenario| sc.with_net(spec));
    }
    let sweep = ScenarioSweep::new(paper(
        400,
        25,
        steps,
        ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0]),
    ))
    .axis(net_axis)
    .axis(
        Axis::new("lb")
            .value("off", 0.0, |sc: Scenario| sc)
            .value("on", 1.0, |sc: Scenario| sc.with_lb(LbSchedule::every(4))),
    )
    .with_parallelism(2);
    let mut off = Series::new("LB off");
    let mut on = Series::new("LB on (period 4)");
    for record in sweep.run_collect(&SimSubstrate) {
        let x = record.axis_x("net").expect("net axis");
        let series = match record.axis_label("lb") {
            Some("off") => &mut off,
            _ => &mut on,
        };
        series.push(x, record.makespan * 1e3);
    }
    fig.series = vec![off, on];
    fig
}

/// **A7** — communication-aware rebalancing: λ sweep on the two-rack
/// topology. Speeds are `[2, 1, 2, 1]` with racks `{0,1}` and `{2,3}`, so
/// each rack pairs one fast and one slow node and the *useful*
/// rebalancing flow (slow → fast) is entirely intra-rack; the even
/// neighbour split of Algorithm 1 nevertheless routes part of every
/// settlement across the rack boundary at λ = 0. Sweeping λ up gates
/// those transfers once their busy-time relief stops covering
/// `λ ×` the estimated inter-rack transfer seconds: inter-rack migration
/// bytes fall monotonically to zero while the makespan stays within noise
/// of the count-based baseline, because the same imbalance settles over
/// the cheap links instead.
pub fn a7_comm_aware_lambda(quick: bool) -> FigData {
    let steps = if quick { 16 } else { 48 };
    let mut fig = FigData::new(
        "A7 — cost-aware LB: λ sweep on 2 racks x 2 nodes (speeds 2:1:2:1)",
        "lambda",
        "inter-rack migration KB / total migration KB / time (ms)",
    );
    let base = Scenario::square(400, 8.0, 25, steps)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(two_rack_net());
    let sweep = ScenarioSweep::new(base)
        .axis(Axis::numeric(
            "lambda",
            &[0.0, 0.5, 1.0, 2.0, 4.0],
            |sc, lambda| sc.with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(lambda))),
        ))
        .with_parallelism(2);
    let mut inter = Series::new("inter-rack-KB");
    let mut total = Series::new("migration-KB");
    let mut time = Series::new("time-ms");
    for record in sweep.run_collect(&SimSubstrate) {
        let lambda = record.axis_x("lambda").expect("lambda axis");
        inter.push(lambda, record.inter_rack_migration_bytes as f64 / 1e3);
        total.push(lambda, record.migration_bytes as f64 / 1e3);
        time.push(lambda, record.makespan * 1e3);
    }
    fig.series = vec![inter, total, time];
    fig
}

/// The A8 policy roster: every [`LbSpec`] variant, in the fixed order the
/// figure's x-axis uses.
pub fn a8_policies() -> Vec<(&'static str, LbSpec)> {
    vec![
        ("tree λ=1", LbSpec::tree(1.0)),
        ("diffusion", LbSpec::diffusion(1.0, 8)),
        ("greedy-steal", LbSpec::greedy_steal(1)),
        ("adaptive-λ", LbSpec::adaptive(LbSpec::tree(0.0), 0.05)),
        ("adaptive-μ", LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.3)),
    ]
}

/// **A8** — pluggable balancing policies head to head on the A7 two-rack
/// topology (speeds 2:1:2:1, strip start): every `LbSpec` variant runs the
/// same workload through **both substrates** — the discrete-event
/// simulator at paper scale (makespan, migration traffic, inter-rack
/// bytes) and the real distributed runtime at smoke scale (migrations
/// observed on a 4-locality cluster from a deliberately lopsided explicit
/// start). A no-LB simulator baseline anchors the comparison. Both legs
/// plan from `LbInput::Modeled`, so the real column is deterministic too.
pub fn a8_policy_comparison(quick: bool) -> FigData {
    let steps = if quick { 16 } else { 48 };
    let mut fig = FigData::new(
        "A8 — LB policies on 2 racks x 2 nodes (speeds 2:1:2:1; x: 0=tree λ=1, \
         1=diffusion, 2=greedy-steal, 3=adaptive-λ, 4=adaptive-μ)",
        "policy",
        "sim time (ms) / sim migration KB / sim inter-rack KB / real migrations",
    );
    // One scenario per substrate leg: the simulator sweeps the paper
    // scale, the real runtime a smoke scale — same network, same policy.
    let sim_base = Scenario::square(400, 8.0, 25, steps)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(two_rack_net());
    // Real-runtime leg at smoke scale: 16x16 mesh, 4 localities on the
    // same 2-rack NetSpec, node 0 holding everything except the three far
    // corners (a Fig. 14-style lopsided start that leaves every territory
    // non-empty, so all policies can find frontiers).
    let real_base = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_lb_input(LbInput::Modeled);
    let real_owners = lopsided_owners(&real_base.sd_grid(), 4);
    let mut baseline = Series::new("time-ms-no-LB");
    let no_lb = sim_base.clone().run_sim().makespan * 1e3;
    let mut time = Series::new("time-ms");
    let mut total = Series::new("migration-KB");
    let mut inter = Series::new("inter-rack-KB");
    let mut real = Series::new("real-migrations");
    for (i, (_name, spec)) in a8_policies().into_iter().enumerate() {
        let x = i as f64;
        baseline.push(x, no_lb);
        // simulator leg at paper scale
        let run = sim_base
            .clone()
            .with_lb(LbSchedule::every(4).with_spec(spec.clone()))
            .run_sim();
        time.push(x, run.makespan * 1e3);
        total.push(x, run.migration_bytes as f64 / 1e3);
        inter.push(x, run.inter_rack_migration_bytes as f64 / 1e3);
        let report = real_base
            .clone()
            .with_partition(PartitionSpec::Explicit(real_owners.clone()))
            .with_lb(LbSchedule::every(2).with_spec(spec))
            .run_dist();
        real.push(x, report.migrations as f64);
    }
    fig.series = vec![time, total, inter, real, baseline];
    fig
}

/// **A9** — ghost-traffic-aware balancing: μ sweep on the 2-rack
/// topology from a Fig.-14 lopsided start (node 0 owns everything except
/// three far-corner seeds), equal node speeds. Rebalancing must
/// redistribute ~3/4 of the mesh, and μ decides *where* the cross-rack
/// territories grow: each candidate SD pays its [`SdGraph`] edge-cut
/// delta (recurring ghost seconds per step) against its busy-time relief.
///
/// Simulator leg (paper scale): in the shaping band (μ ≲ 0.5) the
/// steady-state inter-rack ghost cut falls ~20% at **identical** makespan
/// and migration count — the planner picks cut-healing SDs within each
/// frontier for free. Past the band (μ = 1) the gate freezes cross-rack
/// borrowing: the cut collapses further but makespan pays — A9 maps that
/// boundary, like A7 does for λ.
///
/// Real-runtime leg (smoke scale, planned from `LbInput::Modeled` like
/// A8's, so the column is deterministic): μ must not leave a worse
/// recurring cut than the ghost-blind run. The final inter-rack cut is
/// read from the recorded [`nlheat_core::balance::EpochTrace`]s, falling
/// back to the initial cut when every epoch was gated.
pub fn a9_ghost_aware_mu(quick: bool) -> FigData {
    let steps = if quick { 24 } else { 48 };
    let mut fig = FigData::new(
        "A9 — ghost-aware LB: μ sweep, lopsided start on 2 racks x 2 nodes \
         (sim: steady-state inter-rack ghost cut + makespan; real: final cut)",
        "mu",
        "sim inter-rack ghost KB/step / sim time (ms) / sim migrations / real inter-rack ghost KB/step",
    );
    // Both substrate legs share the library's lopsided start and two-rack
    // interconnect; only the scale differs.
    let sim_base = Scenario::square(400, 8.0, 25, steps)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net());
    let real_base = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(two_rack_net())
        .with_lb_input(LbInput::Modeled);
    let sim_sds = sim_base.sd_grid();
    let real_sds = real_base.sd_grid();
    let sim_owners = lopsided_owners(&sim_sds, 4);
    let real_owners = lopsided_owners(&real_sds, 4);
    // initial cuts for the gated-everything fallback, from the same
    // SdGraph the substrates plan with
    let comm = two_rack_net().comm_cost();
    let inter_cut = |graph: &SdGraph, owners: &[u32]| {
        graph.cut_bytes_where(owners, |a, b| comm.link_class(a, b) == LinkClass::InterRack)
    };
    let sim_graph = SdGraph::build(&sim_sds, Grid::square(400, 8.0).halo);
    let real_graph = SdGraph::build(&real_sds, Grid::square(16, 2.0).halo);

    let mut sim_inter = Series::new("sim-inter-rack-ghost-KB");
    let mut sim_time = Series::new("sim-time-ms");
    let mut sim_migr = Series::new("sim-migrations");
    let mut real_inter = Series::new("real-inter-rack-ghost-KB");
    for &mu in &[0.0, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let run = sim_base
            .clone()
            .with_partition(PartitionSpec::Explicit(sim_owners.clone()))
            .with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(0.0).with_mu(mu)))
            .run_sim();
        let cut = run
            .epoch_traces
            .last()
            .map(|t| t.inter_rack_ghost_bytes_after)
            .unwrap_or_else(|| inter_cut(&sim_graph, &sim_owners));
        sim_inter.push(mu, cut as f64 / 1e3);
        sim_time.push(mu, run.makespan * 1e3);
        sim_migr.push(mu, run.migrations as f64);

        let report = real_base
            .clone()
            .with_partition(PartitionSpec::Explicit(real_owners.clone()))
            .with_lb(LbSchedule::every(2).with_spec(LbSpec::tree(0.0).with_mu(mu)))
            .run_dist();
        let rcut = report
            .epoch_traces
            .last()
            .map(|t| t.inter_rack_ghost_bytes_after)
            .unwrap_or_else(|| inter_cut(&real_graph, &real_owners));
        real_inter.push(mu, rcut as f64 / 1e3);
    }
    fig.series = vec![sim_inter, sim_time, sim_migr, real_inter];
    fig
}

/// Peak capacity overflow over the whole run, in KB: the worst
/// `Σ max(0, used − cap)` any state of [`RunReport::ownership_history`]
/// (the states [`RunReport::check_invariants`] asserts on) reaches. Zero
/// when the report carries no memory tables.
fn peak_overflow_kb(report: &RunReport) -> f64 {
    let (Some(caps), Some(fp)) = (&report.memory_bytes, &report.sd_footprint) else {
        return 0.0;
    };
    let overflow = |own: &Ownership| -> u64 {
        let mut usage = vec![0u64; caps.len()];
        for (sd, &o) in own.owners().iter().enumerate() {
            usage[o as usize] = usage[o as usize].saturating_add(fp[sd]);
        }
        usage
            .iter()
            .zip(caps.iter())
            .map(|(&used, &cap)| used.saturating_sub(cap))
            .sum()
    };
    let peak = report.ownership_history().iter().map(overflow).max();
    peak.unwrap_or(0) as f64 / 1e3
}

/// **A10** — memory-aware planning under pressure: the `memory-pressure`
/// library scenario (node 3 twice as fast but capped ~1.5 SD footprints
/// above its strip start) planned by the capacity-blind flat tree vs the
/// hierarchical planner. The flat leg funnels SDs onto the fast node past
/// its capacity — the peak-overflow series quantifies by how much — while
/// the hierarchical capacity gate must hold overflow at exactly zero and
/// still shed load toward the other under-loaded nodes.
pub fn a10_memory_pressure(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "A10 — memory pressure: capacity-blind flat tree vs hierarchical planner \
         (x: 0=flat tree λ=0, 1=hierarchical)",
        "planner",
        "sim time (ms) / migrations / peak capacity overflow (KB)",
    );
    let base = memory_pressure(quick);
    let mut time = Series::new("time-ms");
    let mut migr = Series::new("migrations");
    let mut over = Series::new("peak-overflow-KB");
    for (x, spec) in [
        (0.0, LbSpec::tree(0.0)),
        (1.0, LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)),
    ] {
        let mut sc = base.clone();
        if let Some(lb) = &mut sc.lb {
            lb.spec = spec;
        }
        let run = sc.run_sim();
        time.push(x, run.makespan * 1e3);
        migr.push(x, run.migrations as f64);
        over.push(x, peak_overflow_kb(&run));
    }
    fig.series = vec![time, migr, over];
    fig
}

/// **A10b** — plan time vs cluster size on the plan-only substrate: the
/// synthetic `plan_scale` harness (~100 SDs per rank, 4 ranks/node, 25
/// nodes/rack, 7-period speed skew from a strip start) swept over rank
/// counts through [`ScenarioSweep`] + [`PlanSubstrate`], hierarchical vs
/// flat tree. The hierarchical series must grow near-linearly — that is
/// the subsystem's claim, whose allocations `tests/steady_state_alloc.rs`
/// counts at 250 and 2 500 ranks — while the flat planner's global
/// frontier walk goes superlinear.
/// Sweeps run at parallelism 1: plan time is the measured quantity, and
/// concurrent legs would contend for the cores the clock charges.
pub fn a10b_plan_time_scaling(quick: bool) -> FigData {
    let hier_sizes: &[usize] = if quick {
        &[16, 36, 64]
    } else {
        &[1000, 2500, 5000, 10_000]
    };
    // The flat walk is ~quadratic in rank count (the point of the
    // figure), so its full-mode leg stops at 1000 ranks — already ~10 s
    // of pure planning — while the hierarchical leg rides to 10k.
    let flat_sizes: &[usize] = if quick {
        &[16, 36, 64]
    } else {
        &[250, 500, 1000]
    };
    let mut fig = FigData::new(
        "A10b — plan time vs cluster size (plan-only substrate, ~100 SDs/rank)",
        "#ranks",
        "plan time (ms)",
    );
    let leg = |label: &str, sizes: &[usize], spec: LbSpec| -> Series {
        let mut axis = Axis::new("ranks");
        for &n in sizes {
            let mut sc = plan_scale(n);
            if let Some(lb) = &mut sc.lb {
                lb.spec = spec.clone();
            }
            axis = axis.value(format!("{n}"), n as f64, move |_| sc.clone());
        }
        let sweep = ScenarioSweep::new(plan_scale(sizes[0]))
            .axis(axis)
            .with_parallelism(1);
        let mut s = Series::new(label);
        for record in sweep.run_collect(&PlanSubstrate) {
            s.push(
                record.axis_x("ranks").expect("ranks axis"),
                record.makespan * 1e3,
            );
        }
        s
    };
    fig.series = vec![
        leg(
            "hier-plan-ms",
            hier_sizes,
            LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
        ),
        leg("flat-plan-ms", flat_sizes, LbSpec::tree(0.0)),
    ];
    fig
}

/// **A11** — intra-epoch work stealing vs epoch-level migration: the
/// pool's row-band stealing path dueled and composed with the LB
/// policies on the real runtime (the simulator charges the same row-band
/// tasks, each on its node's earliest free core — the ideal a stealing
/// pool approaches; this figure measures the pool itself). Four legs per
/// scenario — neither, LB only,
/// stealing only, both — on multi-core re-clusterings of the crack and
/// heterogeneous-cluster scenarios (the library versions pin one core
/// per node, where a band task has no one to steal it).
///
/// Stealing is a pure scheduling change, so every leg's field is
/// asserted bit-identical to the baseline leg's, and the stealing legs
/// must actually exercise the scheduler (nonzero pool steals).
pub fn a11_intra_step_stealing(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "A11 — intra-step stealing vs epoch LB (real runtime, multi-core nodes)",
        "leg (0 = neither, 1 = LB, 2 = stealing, 3 = both)",
        "makespan (ms)",
    );
    let cases: Vec<(&str, Scenario)> = vec![
        (
            "crack",
            propagating_crack(quick).on(ClusterSpec::uniform(4, 4)),
        ),
        (
            "hetero",
            heterogeneous_cluster(quick).on(ClusterSpec::new()
                .node(4, 2.0)
                .node(4, 1.0)
                .node(4, 1.0)
                .node(4, 0.5)),
        ),
    ];
    for (name, base) in cases {
        let mut series = Series::new(name);
        let mut base_field: Option<Vec<f64>> = None;
        for (leg, (lb_on, steal_on)) in [(false, false), (true, false), (false, true), (true, true)]
            .into_iter()
            .enumerate()
        {
            let mut sc = base.clone().with_intra_step_stealing(steal_on);
            if !lb_on {
                sc.lb = None;
            }
            let report = sc.run_dist();
            let field = report.field.as_ref().expect("dist runs carry the field");
            match &base_field {
                None => base_field = Some(field.clone()),
                Some(reference) => assert_eq!(
                    reference, field,
                    "{name} leg {leg}: scheduling must not perturb the field"
                ),
            }
            if steal_on {
                let steals: u64 = (0..report.busy.len() as u32)
                    .map(|r| report.counter(&threads_counter_name(r, "count/steals")))
                    .map(|steals| steals.expect("a pool counter"))
                    .sum();
                assert!(steals > 0, "{name} leg {leg}: no steals observed");
            }
            series.push(leg as f64, report.makespan * 1e3);
        }
        fig.series.push(series);
    }
    fig
}

/// The A12 roster: the incremental policies, the repartitioner alone, and
/// the composed decorator, in the fixed x-axis order of the figure.
/// "repart-only" wraps a tree whose λ gates every incremental move, so
/// the only migrations it ever emits are staged replan diffs.
pub fn a12_policies() -> Vec<(&'static str, LbSpec)> {
    vec![
        ("tree λ=0", LbSpec::tree(0.0)),
        ("greedy-steal", LbSpec::greedy_steal(1)),
        ("hierarchical", LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)),
        (
            "repart-only",
            LbSpec::repartition(LbSpec::tree(1e9), 1.15, 1, u64::MAX),
        ),
        (
            "repart+tree",
            LbSpec::repartition(LbSpec::tree(0.0), 1.15, 1, u64::MAX),
        ),
    ]
}

/// **A12** — cut-aware repartitioning vs incremental balancing: the
/// `cut-drift` library scenario (a decayed, island-riddled ownership on
/// the two-rack cluster plus a propagating crack) planned by every
/// [`a12_policies`] roster entry. Incremental policies can fix the count
/// skew but inherit the islands, so their steady-state inter-rack ghost
/// cut stays high; the drift monitor of [`LbSpec::repartition`] re-invokes
/// the multilevel partitioner, and every repartitioning leg must land a
/// strictly lower recurring cut — at equal-or-better makespan for at
/// least one of them. Sim leg at `quick` scale, real leg at smoke scale
/// (A8 pattern).
///
/// Two elasticity timelines ride along on **both substrates**, asserting
/// the membership half of the subsystem end to end: `rank-failure` (the
/// evacuating replan must leave the failed rank empty) and
/// `elastic-scale-out` (the joining ranks must end up owning SDs), with
/// the plan sequences bit-identical across substrates under
/// `LbInput::Modeled`.
pub fn a12_repartition(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "A12 — cut-aware repartitioning on the drifted 2-rack start (x: 0=tree λ=0, \
         1=greedy-steal, 2=hierarchical, 3=repart-only, 4=repart+tree)",
        "policy",
        "sim inter-rack ghost KB/step / sim time (ms) / sim replans / real inter-rack ghost KB/step",
    );
    let sim_base = cut_drift(quick);
    let real_base = cut_drift(true);
    let mut sim_cut = Series::new("sim-inter-rack-ghost-KB");
    let mut sim_time = Series::new("sim-time-ms");
    let mut sim_replans = Series::new("sim-replans");
    let mut real_cut = Series::new("real-inter-rack-ghost-KB");
    for (i, (_name, spec)) in a12_policies().into_iter().enumerate() {
        let x = i as f64;
        let mut sc = sim_base.clone();
        if let Some(lb) = &mut sc.lb {
            lb.spec = spec.clone();
        }
        let run = sc.run_sim();
        let trace = run.epoch_traces.last().expect("LB epochs must realize");
        sim_cut.push(x, trace.inter_rack_ghost_bytes_after as f64 / 1e3);
        sim_time.push(x, run.makespan * 1e3);
        sim_replans.push(
            x,
            run.epoch_traces.iter().filter(|t| t.replan).count() as f64,
        );

        let mut rc = real_base.clone();
        if let Some(lb) = &mut rc.lb {
            lb.spec = spec;
        }
        let report = rc.run_dist();
        let rtrace = report.epoch_traces.last().expect("LB epochs must realize");
        real_cut.push(x, rtrace.inter_rack_ghost_bytes_after as f64 / 1e3);
    }
    assert!(
        sim_replans.points[3..].iter().all(|p| p.1 >= 1.0),
        "the drift monitor must fire on the repartitioning legs: {:?}",
        sim_replans.points
    );

    // Elasticity timelines: both substrates, plans asserted identical.
    let mut elastic = Series::new("elastic-SDs (0/1: failed-rank, 2/3: joined-ranks)");
    for (x, sc, check) in [
        (
            0.0,
            rank_failure(true),
            (|counts: &[usize]| counts[3] as f64) as fn(&[usize]) -> f64,
        ),
        (2.0, elastic_scale_out(true), |counts: &[usize]| {
            (counts[2] + counts[3]) as f64
        }),
    ] {
        let real = sc.run_dist();
        let sim = sc.run_sim();
        real.check_invariants();
        sim.check_invariants();
        assert_eq!(
            real.lb_plans, sim.lb_plans,
            "elasticity timeline at x={x}: substrates must plan identically"
        );
        for (offset, report) in [(0.0, &real), (1.0, &sim)] {
            let y = check(&report.final_ownership.counts());
            if x == 0.0 {
                assert_eq!(
                    y, 0.0,
                    "{}: the failed rank must end evacuated",
                    report.substrate
                );
            } else {
                assert!(
                    y > 0.0,
                    "{}: the joined ranks must end up owning SDs",
                    report.substrate
                );
            }
            elastic.push(x + offset, y);
        }
    }
    fig.series = vec![sim_cut, sim_time, sim_replans, real_cut, elastic];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a5b_lb_wins_for_slow_cracks() {
        let fig = a5b_moving_crack(true);
        let pts = &fig.series[0].points;
        let at = |d: f64| pts.iter().find(|p| p.0 == d).unwrap().1;
        assert!(
            at(32.0) > 1.02,
            "a static-ish crack (dwell 32) must favour LB: ratio {}",
            at(32.0)
        );
        assert!(
            at(32.0) > at(4.0),
            "LB gain must grow with dwell: {:?}",
            pts
        );
    }

    #[test]
    fn a1_metis_cuts_less_than_strip_for_many_parts() {
        // For k = 2 a horizontal strip IS the optimal bisection of a
        // square, so parity is acceptable there; the multilevel partition
        // must win once strips become thin (k = 8 on the quick 8x8 SD
        // grid).
        let fig = a1_partition_quality(true);
        let metis = &fig.series[0].points;
        let strip = &fig.series[1].points;
        let at = |pts: &[(f64, f64)], k: f64| pts.iter().find(|p| p.0 == k).map(|p| p.1).unwrap();
        assert!(
            at(metis, 8.0) < at(strip, 8.0),
            "k=8: metis {} vs strip {}",
            at(metis, 8.0),
            at(strip, 8.0)
        );
        assert!(
            at(metis, 2.0) <= at(strip, 2.0) * 1.6,
            "k=2: metis must stay within 1.6x of the optimal strip"
        );
    }

    #[test]
    fn a2_overlap_gain_grows_with_latency() {
        let fig = a2_overlap(true);
        let pts = &fig.series[0].points;
        assert!(
            pts.last().unwrap().1 > pts.first().unwrap().1,
            "{}",
            fig.to_markdown()
        );
        assert!(pts.last().unwrap().1 > 1.05, "{}", fig.to_markdown());
    }

    #[test]
    fn a4_lb_improves_heterogeneous_makespan() {
        let fig = a4_lb_heterogeneous(true);
        let pts = &fig.series[0].points;
        let off = pts[0].1;
        let best_on = pts[1..].iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(best_on < off, "LB should help: off {off} on {best_on}");
    }

    #[test]
    fn a6_contention_is_monotone_and_lb_still_helps() {
        let fig = a6_network_models(true);
        let off = &fig.series[0].points;
        let on = &fig.series[1].points;
        // makespan must not decrease as the model gets more contended
        // (instant -> constant -> shared)
        assert!(off[0].1 <= off[1].1 * (1.0 + 1e-9), "{:?}", off);
        assert!(off[1].1 <= off[2].1 * (1.0 + 1e-9), "{:?}", off);
        // and the balancer must still win under every model
        for (o, w) in off.iter().zip(on) {
            assert!(
                w.1 < o.1,
                "LB must beat static under model {}: {} vs {}",
                o.0,
                w.1,
                o.1
            );
        }
    }

    #[test]
    fn a7_lambda_cuts_inter_rack_bytes_without_hurting_makespan() {
        let fig = a7_comm_aware_lambda(true);
        let inter = &fig.series[0].points;
        let time = &fig.series[2].points;
        assert!(
            inter[0].1 > 0.0,
            "the count-based baseline must cross racks: {inter:?}"
        );
        // inter-rack migration bytes fall monotonically in λ ...
        for w in inter.windows(2) {
            assert!(
                w[1].1 <= w[0].1,
                "inter-rack bytes must not grow with λ: {inter:?}"
            );
        }
        // ... and strictly below the λ=0 baseline once λ bites
        assert!(
            inter.last().unwrap().1 < inter[0].1,
            "λ must cut inter-rack migration bytes: {inter:?}"
        );
        // while the makespan stays within noise of the count-based plan
        let t0 = time[0].1;
        for &(lambda, t) in time {
            assert!(
                t <= t0 * 1.10,
                "λ={lambda} makespan {t} drifted from baseline {t0}"
            );
        }
    }

    #[test]
    fn a8_every_policy_beats_the_static_baseline() {
        // Both legs plan from modeled busy times, so every assertion is
        // deterministic.
        let fig = a8_policy_comparison(true);
        let time = &fig.series[0].points;
        let real = &fig.series[3].points;
        let no_lb = fig.series[4].points[0].1;
        assert_eq!(time.len(), 5, "all five policy variants must run");
        for (i, &(x, t)) in time.iter().enumerate() {
            assert!(t.is_finite() && t > 0.0, "policy {x} produced time {t}");
            // The strip start on 2:1:2:1 speeds is badly imbalanced, so
            // every policy must recover most of the static penalty. The
            // adaptive decorators may briefly gate while their weights
            // settle, hence the small allowance.
            assert!(
                t <= no_lb * 1.05,
                "policy {x} (series idx {i}) lost to no-LB: {t} vs {no_lb}"
            );
            assert!(real[i].1.is_finite(), "real run {x} must record a count");
        }
        let inter = &fig.series[2].points;
        assert!(
            inter.iter().all(|p| p.1.is_finite()),
            "inter-rack bytes must be recorded: {inter:?}"
        );
        // Migration counts must be positive for the ungated policies
        // (indices 1–3: diffusion, greedy-steal, adaptive-λ at its initial
        // λ=0); tree λ=1 legitimately gates everything at smoke scale,
        // where no move's modeled busy relief outweighs its λ-weighted
        // migration seconds.
        assert!(
            real[1..=3].iter().all(|p| p.1 > 0.0),
            "ungated policies must migrate in the real runtime: {real:?}"
        );
    }

    #[test]
    fn a9_mu_cuts_recurring_inter_rack_ghost_traffic() {
        // Both legs plan from modeled busy times, so every assertion is
        // deterministic. Simulator leg: the steady-state inter-rack ghost
        // cut is monotone non-increasing in μ, strictly below the
        // ghost-blind baseline once μ bites, and the makespan holds within
        // noise across the shaping band (μ ≤ 0.5; μ = 1 maps the freeze
        // boundary and is exempt, like A7's over-large λ). Real leg: the
        // end-to-end claim only.
        let fig = a9_ghost_aware_mu(true);
        let inter = &fig.series[0].points;
        let time = &fig.series[1].points;
        let migr = &fig.series[2].points;
        assert!(
            inter[0].1 > 0.0,
            "the blind baseline must pay inter-rack ghost traffic: {inter:?}"
        );
        for w in inter.windows(2) {
            assert!(
                w[1].1 <= w[0].1,
                "inter-rack ghost cut must not grow with μ: {inter:?}"
            );
        }
        let in_band: Vec<_> = inter.iter().filter(|p| p.0 <= 0.5).collect();
        assert!(
            in_band.last().unwrap().1 < inter[0].1,
            "μ must cut the recurring traffic within the shaping band: {inter:?}"
        );
        let t0 = time[0].1;
        for &(mu, t) in time.iter().filter(|p| p.0 <= 0.5) {
            assert!(
                t <= t0 * 1.10,
                "μ={mu} makespan {t} drifted from baseline {t0}"
            );
        }
        for &(mu, m) in migr.iter().filter(|p| p.0 <= 0.5) {
            assert!(m > 0.0, "μ={mu} must keep balancing in the shaping band");
        }
        // real leg: μ-gated runs must not end with more recurring
        // inter-rack traffic than the ghost-blind run
        let real = &fig.series[3].points;
        assert!(
            real.last().unwrap().1 <= real[0].1,
            "real runtime: large μ must not leave a worse inter-rack cut: {real:?}"
        );
    }

    #[test]
    fn a10_hierarchical_holds_the_capacity_line() {
        // Both legs run the same deterministic simulation, so the
        // contrast is exact: the hierarchical planner must never exceed
        // any node's declared capacity (the gate it exists for), while
        // still planning migrations off the slow nodes; the capacity-
        // blind flat leg must overflow at least as much.
        let fig = a10_memory_pressure(true);
        let migr = &fig.series[1].points;
        let over = &fig.series[2].points;
        let flat_over = over[0].1;
        let hier_over = over[1].1;
        assert_eq!(hier_over, 0.0, "hierarchical leg overflowed: {over:?}");
        assert!(
            flat_over >= hier_over,
            "flat must not beat the gated planner on overflow: {over:?}"
        );
        assert!(
            migr[1].1 > 0.0,
            "the capacity gate must not freeze balancing entirely: {migr:?}"
        );
    }

    #[test]
    fn a10b_plan_time_scaling_covers_both_planners() {
        let fig = a10b_plan_time_scaling(true);
        assert_eq!(fig.series.len(), 2);
        for series in &fig.series {
            assert_eq!(series.points.len(), 3, "{}", series.label);
            for &(ranks, ms) in &series.points {
                assert!(
                    ms.is_finite() && ms > 0.0,
                    "{} at {ranks} ranks reported {ms} ms",
                    series.label
                );
            }
        }
    }

    #[test]
    fn a5_lb_improves_crack_makespan() {
        let fig = a5_crack(true);
        let pts = &fig.series[0].points;
        let off = pts[0].1;
        let best_on = pts[1..].iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(best_on < off, "LB should help: off {off} on {best_on}");
    }

    #[test]
    fn a12_repartitioning_heals_the_cut_policies_cannot() {
        // Everything here is deterministic (`LbInput::Modeled` planning on
        // both substrates), so the contrasts are exact.
        let fig = a12_repartition(true);
        let cut = &fig.series[0].points;
        let time = &fig.series[1].points;
        let replans = &fig.series[2].points;
        let real_cut = &fig.series[3].points;
        assert_eq!(cut.len(), 5, "all five roster entries must run");
        // the drift monitor must fire on the repartitioning legs and
        // never on the incremental ones
        for i in 0..3 {
            assert_eq!(replans[i].1, 0.0, "leg {i} cannot replan: {replans:?}");
        }
        for i in 3..5 {
            assert!(replans[i].1 >= 1.0, "leg {i} must replan: {replans:?}");
        }
        // every repartitioning leg lands a strictly lower steady-state
        // inter-rack ghost cut than the best incremental policy ...
        let best_cut = cut[..3].iter().map(|p| p.1).fold(f64::MAX, f64::min);
        let best_time = time[..3].iter().map(|p| p.1).fold(f64::MAX, f64::min);
        for i in 3..5 {
            assert!(
                cut[i].1 < best_cut,
                "leg {i} must beat every incremental cut: {cut:?}"
            );
        }
        // ... and at least one does so at equal-or-better makespan (the
        // headline claim); the composed leg keeps rebalancing against the
        // crack, so its makespan may trail the best incremental one by
        // migration overhead, but never by more than noise
        assert!(
            (3..5).any(|i| cut[i].1 < best_cut && time[i].1 <= best_time),
            "some repartitioning leg must win the cut at equal-or-better \
             makespan: cut {cut:?} time {time:?}"
        );
        assert!(
            time[4].1 <= best_time * 1.10,
            "the composed leg's makespan must stay within noise: {time:?}"
        );
        let best_real = real_cut[..3].iter().map(|p| p.1).fold(f64::MAX, f64::min);
        for i in 3..5 {
            assert!(
                real_cut[i].1 < best_real,
                "real leg {i} must beat every incremental cut: {real_cut:?}"
            );
        }
        // elasticity timelines: the failed rank ends empty, the joined
        // ranks end loaded, on both substrates
        let elastic = &fig.series[4].points;
        assert_eq!(elastic[0].1, 0.0, "real failed-rank SDs: {elastic:?}");
        assert_eq!(elastic[1].1, 0.0, "sim failed-rank SDs: {elastic:?}");
        assert!(elastic[2].1 > 0.0, "real joined-rank SDs: {elastic:?}");
        assert!(elastic[3].1 > 0.0, "sim joined-rank SDs: {elastic:?}");
    }

    #[test]
    fn a11_legs_run_bitwise_with_observable_steals() {
        // The bit-identity and steals>0 assertions live inside the
        // ablation itself; this pins the figure shape.
        let fig = a11_intra_step_stealing(true);
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert_eq!(s.points.len(), 4, "four legs per scenario");
        }
    }
}
