//! `plan_scale`: the planners alone, at cluster scale, single-threaded.
//!
//! A pass plans three times: the hierarchical planner and the
//! repartitioning decorator over 2500 ranks / 250 000 SDs, and the flat
//! tree planner over 500 ranks (its walk is quadratic in ranks). The
//! planner inputs — SD graph, ownership, load metrics — are rebuilt before
//! every pass and reported as set-up, so work moved out of `plan` and into
//! them shows.

use super::{speed_ladder, Leg, Off, Workload};
use crate::calib::Reference;
use crate::metrics::LayerMetrics;
use crate::runner::Ctx;
use crate::stats::Summary;
use nonlocalheat::core::balance::{
    compute_metrics, LbNetwork, LbSpec, LoadMetrics, MigrationPlan, SdGraph,
};
use nonlocalheat::core::scenario::{modeled_busy, ClusterSpec, Scenario};
use nonlocalheat::core::{scenarios, Ownership};
use nonlocalheat::partition::{
    balance, part_mesh_dual, repartition_capacitated, sd_dual_graph, PartitionConfig,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Everything a `plan` call reads, built the way both substrates build it.
struct PlanInput {
    ownership: Ownership,
    metrics: LoadMetrics,
    net: LbNetwork,
    graph: Arc<SdGraph>,
    graph_build_s: f64,
}

impl PlanInput {
    fn build(sc: &Scenario, ctx: &mut Ctx) -> Self {
        let tr = &mut ctx.tracer;
        let sds = tr.span("Scenario::sd_grid", |_| sc.sd_grid());
        let n_nodes = sc.cluster.len() as u32;
        let owners = tr.span("PartitionSpec::initial_owners", |_| {
            sc.partition.initial_owners(&sds, n_nodes)
        });
        let busy = modeled_busy(
            &sds,
            &owners,
            n_nodes,
            &sc.work,
            &sc.cluster.speed_factors(),
            sc.sec_per_dp(),
        );
        let ownership = Ownership::new(sds, owners, n_nodes);
        let metrics = tr.span("compute_metrics", |_| {
            compute_metrics(&ownership.counts(), &busy)
        });
        let t0 = Instant::now();
        let graph = Arc::new(tr.span("Scenario::sd_graph", |_| sc.sd_graph()));
        let graph_build_s = t0.elapsed().as_secs_f64();
        let net = LbNetwork::for_sd_tiles(&sc.net, sds.cells_per_sd()).with_sd_graph(graph.clone());
        PlanInput {
            ownership,
            metrics,
            net,
            graph,
            graph_build_s,
        }
    }

    /// One `plan` call of a fresh `spec` policy, bracketed by calibration
    /// sweeps: the plan, its milliseconds, and the same in sweep units.
    fn plan(&self, spec: &LbSpec, span: &'static str, ctx: &mut Ctx) -> (MigrationPlan, f64, f64) {
        let mut policy = spec.build();
        let (plan, ms, calib_ms) = ctx.timed(|ctx| {
            let id = ctx.tracer.begin(span);
            let plan = policy.plan(&self.ownership, &self.metrics, &self.net);
            ctx.tracer.count(id, "moves", plan.moves.len() as f64);
            ctx.tracer.end(id);
            plan
        });
        (plan, ms, ms / calib_ms)
    }

    /// Σ |expected − count| over ranks under `counts`.
    fn imbalance(&self, counts: &[usize]) -> i64 {
        self.metrics
            .expected
            .iter()
            .zip(counts)
            .map(|(e, &c)| (e - c as i64).abs())
            .sum()
    }

    /// Every SD moves at most once, away from its current owner, to a
    /// rank that exists.
    fn single_hop(&self, plan: &MigrationPlan) -> bool {
        let mut moved = vec![false; self.ownership.owners().len()];
        plan.moves.iter().all(|m| {
            let first = !std::mem::replace(&mut moved[m.sd as usize], true);
            first
                && m.from == self.ownership.owner(m.sd)
                && m.to != m.from
                && m.to < self.ownership.n_nodes()
        })
    }
}

/// `plan_scale(n_ranks)`-style scenario with the speed ladder rotated by
/// the seed.
fn seeded(sc: Scenario, seed: u64) -> Scenario {
    let speeds = speed_ladder(sc.cluster.len(), seed);
    sc.on(ClusterSpec::speeds(&speeds))
}

/// Milliseconds and move counts of the last pass, hierarchical /
/// repartition / flat.
#[derive(Default, Clone, Copy)]
struct PassTimes {
    ms: [f64; 3],
    moves: [usize; 3],
}

pub struct PlanScale {
    big: Scenario,
    small: Scenario,
    hier: LbSpec,
    repart: LbSpec,
    flat: LbSpec,
    inputs: Option<(PlanInput, PlanInput)>,
    moves_seen: Option<[usize; 3]>,
    last: PassTimes,
    seed: u64,
}

impl PlanScale {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (big_ranks, small_ranks) = if smoke { (500, 125) } else { (2500, 500) };
        PlanScale {
            big: seeded(scenarios::plan_scale(big_ranks), seed),
            small: seeded(scenarios::plan_scale_with_density(small_ranks, 10), seed),
            hier: LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
            // Threshold 0.5 sits below any live/fresh cut ratio, so every
            // call takes the full replan path; λ = 1e9 gates the inner
            // tree so a surprise non-replan epoch stays cheap.
            repart: LbSpec::repartition(LbSpec::tree(1e9), 0.5, 1, u64::MAX),
            flat: LbSpec::tree(0.0),
            inputs: None,
            moves_seen: None,
            last: PassTimes::default(),
            seed,
        }
    }
}

impl Workload for PlanScale {
    fn reference(&self) -> (Reference, usize) {
        (Reference::General, 1)
    }

    fn on_leg(&mut self, ctx: &mut Ctx) -> Leg {
        // free the previous inputs first: peak memory is one set, not two
        self.inputs = None;
        let t0 = Instant::now();
        let span = ctx.tracer.begin("build planner inputs");
        let big = PlanInput::build(&self.big, ctx);
        let small = PlanInput::build(&self.small, ctx);
        ctx.tracer.end(span);
        let setup_s = t0.elapsed().as_secs_f64();

        let (hier, hier_ms, hier_rel) = big.plan(&self.hier, "plan: hierarchical", ctx);
        let (repart, repart_ms, repart_rel) = big.plan(&self.repart, "plan: repartition", ctx);
        let (flat, flat_ms, flat_rel) = small.plan(&self.flat, "plan: flat tree", ctx);
        let times = PassTimes {
            ms: [hier_ms, repart_ms, flat_ms],
            moves: [hier.moves.len(), repart.moves.len(), flat.moves.len()],
        };

        let span = ctx.tracer.begin("plan checks");
        for (name, input, plan) in [("hierarchical", &big, &hier), ("flat", &small, &flat)] {
            ctx.checks
                .check(&format!("{name}: single-hop plan"), input.single_hop(plan));
            ctx.checks.check(
                &format!("{name}: imbalance does not grow"),
                input.imbalance(&plan.new_ownership.counts())
                    <= input.imbalance(&input.ownership.counts()),
            );
        }
        ctx.checks
            .check("repartition: single-hop plan", big.single_hop(&repart));
        ctx.checks.check(
            "repartition: ghost cut does not grow",
            big.graph.cut_bytes(repart.new_ownership.owners())
                <= big.graph.cut_bytes(big.ownership.owners()),
        );
        let seen = *self.moves_seen.get_or_insert(times.moves);
        ctx.checks
            .check("move counts repeat across reps", seen == times.moves);
        ctx.tracer.end(span);

        self.last = times;
        self.inputs = Some((big, small));
        Leg {
            unit_ms: times.ms.iter().sum(),
            unit_rel: hier_rel + repart_rel + flat_rel,
            setup_s,
        }
    }

    /// The hierarchy's gain where the flat planner still runs: both plan
    /// the same 500-rank shape.
    fn off_leg(&mut self, ctx: &mut Ctx) -> Off {
        let (_, small) = self.inputs.as_ref().expect("the on leg built the inputs");
        const CALLS: usize = 8;
        let id = ctx.tracer.begin("plan: hierarchical (flat's shape)");
        let t0 = Instant::now();
        for _ in 0..CALLS {
            black_box(
                self.hier
                    .build()
                    .plan(&small.ownership, &small.metrics, &small.net),
            );
        }
        let hier_ms = t0.elapsed().as_secs_f64() * 1e3 / CALLS as f64;
        ctx.tracer.end(id);
        Off::Gain(self.last.ms[2] / hier_ms)
    }

    fn probes(&mut self, ctx: &mut Ctx, layers: &mut LayerMetrics, unit: &Summary) {
        let (big, small) = self.inputs.as_ref().expect("probes run after the legs");
        layers.set("core.balance.plan_ms", unit.median);
        layers.set("core.balance.hier_plan_s", self.last.ms[0] / 1e3);
        layers.set("core.balance.repart_plan_s", self.last.ms[1] / 1e3);
        layers.set("core.balance.flat_plan_s", self.last.ms[2] / 1e3);
        layers.set("core.balance.moves_hier", self.last.moves[0] as f64);
        layers.set("core.balance.moves_repart", self.last.moves[1] as f64);
        layers.set("core.balance.moves_flat", self.last.moves[2] as f64);
        layers.set("partition.sdgraph_build_ms", big.graph_build_s * 1e3);
        let k = big.ownership.n_nodes();
        let id = ctx.tracer.begin("probe: repartition_capacitated");
        let t0 = Instant::now();
        black_box(repartition_capacitated(
            big.graph.csr(),
            &big.graph.footprints(),
            &vec![u64::MAX; k as usize],
            &PartitionConfig::new(k).with_seed(self.seed),
        ));
        layers.set("partition.repart_ms", t0.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.end(id);
        // the k-way partitioner on the small shape: at 2500 parts over
        // 250 000 SDs one call takes seconds
        let id = ctx.tracer.begin("probe: part_mesh_dual");
        let t0 = Instant::now();
        let part = part_mesh_dual(small.ownership.sds(), small.ownership.n_nodes(), self.seed);
        layers.set("partition.part_ms", t0.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.end(id);
        layers.set("partition.edge_cut", part.edgecut as f64);
        layers.set(
            "partition.balance",
            balance(&sd_dual_graph(small.ownership.sds()), &part.parts, part.k),
        );
    }
}
