//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists exactly these; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The six workloads and why each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "dist_uniform",
        "paper baseline at paper scale: 400x400 mesh, eps=8h, 2 equal ranks, METIS start; the kernel is ~85% of a step, so kernel, pool and driver work show here; mechanism = ghost/compute overlap",
    ),
    (
        "dist_hetero_lb",
        "the paper's headline: ranks of speed 1 and 0.5, strip start, modeled two-rack fabric, busy-time LB every 4 steps; the LB epoch decides the result; mechanism = load balancing on vs off",
    ),
    (
        "dist_ghost_heavy",
        "1600 tiny SDs interleaved across 2 ranks: ~9k parcels per step, the kernel is small, so halo pack/unpack, codec, fabric and futures dominate; a kernel gain must not show here",
    ),
    (
        "dist_straggler_tiles",
        "one locality, 2 workers, one SD at 32x work: row-band tile tasks and peer steals instead of one task per SD; mechanism = intra-step stealing on vs off",
    ),
    (
        "sim_sweep",
        "the second substrate: library scenarios x 7 LB policies x 5 network models plus one cluster-scale run on the simulator; mechanism = simulated makespan without vs with LB",
    ),
    (
        "plan_scale",
        "planners only: hierarchical and repartition plans at 2500 ranks / 250k SDs and the flat tree plan at 500 ranks; mechanism = flat vs hierarchical plan time on one shape",
    ),
];

/// True for the workloads that run the real runtime on two compute
/// threads and therefore need two hardware threads to mean anything.
pub fn needs_two_threads(workload: &str) -> bool {
    workload.starts_with("dist_")
}

/// End-to-end metrics, every one defined on every workload, with the
/// share of the parent's median by which each may worsen.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (lower("unit_rel", "x_calib"), 0.25),
    (higher("mech_gain", "ratio"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
];

/// Per-layer metrics (no bounds). A workload that does not touch a layer
/// reports 0 for it, which is itself the "bypasses this layer" evidence.
pub const PER_LAYER: [MetricDef; 72] = [
    // model: the nonlocal kernel on one SD tile of the workload's shape
    lower("model.kernel.ns_per_dp", "ns"),
    higher("model.kernel.gflops", "Gflop/s"),
    higher("model.kernel.ops_per_byte", "flop/B"),
    lower("model.kernel.blocked_over_scalar", "ratio"),
    lower("model.kernel.est_ms_per_step", "ms"),
    // mesh + codec: halo pack/unpack on the workload's median patch
    lower("mesh.halo.pack_ns_per_patch", "ns"),
    lower("mesh.halo.unpack_ns_per_patch", "ns"),
    lower("mesh.halo.patches_per_step", "count"),
    lower("mesh.halo.plan_build_ms", "ms"),
    lower("mesh.halo.est_ms_per_step", "ms"),
    lower("amt.codec.bytes_per_step", "B"),
    // fabric and network model
    lower("amt.network.msgs_per_step", "count"),
    lower("amt.network.cross_bytes_per_step", "B"),
    lower("amt.network.rtt_us_instant", "us"),
    lower("amt.network.rtt_us_modeled", "us"),
    lower("amt.network.pipelined_ns_per_msg", "ns"),
    lower("amt.network.est_ms_per_step", "ms"),
    lower("netmodel.cost_ns_per_msg", "ns"),
    // pool and futures
    lower("amt.pool.task_ns", "ns"),
    lower("amt.pool.steals_per_step", "count"),
    lower("amt.pool.steal_fail_ratio", "ratio"),
    lower("amt.pool.parks_per_step", "count"),
    lower("amt.future.then_ns", "ns"),
    // balancing
    lower("core.balance.plan_ms", "ms"),
    lower("core.balance.epochs", "count"),
    lower("core.balance.moves", "count"),
    lower("core.balance.migration_bytes", "B"),
    lower("core.balance.cut_ratio", "ratio"),
    lower("core.balance.imbalance_final", "ratio"),
    lower("core.balance.hier_plan_s", "s"),
    lower("core.balance.repart_plan_s", "s"),
    lower("core.balance.flat_plan_s", "s"),
    lower("core.balance.moves_hier", "count"),
    lower("core.balance.moves_repart", "count"),
    lower("core.balance.moves_flat", "count"),
    // partitioner
    lower("partition.part_ms", "ms"),
    lower("partition.edge_cut", "count"),
    lower("partition.balance", "ratio"),
    lower("partition.sdgraph_build_ms", "ms"),
    lower("partition.repart_ms", "ms"),
    // the distributed step as a whole
    lower("core.dist.step_ms", "ms"),
    lower("core.dist.step_ms_p90", "ms"),
    higher("core.dist.par_eff", "ratio"),
    higher("core.dist.overlap_ratio", "ratio"),
    lower("core.dist.vs_shared", "ratio"),
    higher("core.dist.tile_steal_gain", "ratio"),
    higher("core.dist.busy_frac", "ratio"),
    lower("core.dist.unattributed_frac", "ratio"),
    lower("core.shared.step_ms", "ms"),
    // simulator and sweep runner
    lower("sim.engine.ns_per_sd_step", "ns"),
    lower("sim.engine.msgs", "count"),
    lower("sim.engine.cross_bytes", "B"),
    lower("sim.engine.makespan_s", "s"),
    higher("core.scenario.sweep.runs_per_s_1t", "1/s"),
    higher("core.scenario.sweep.runs_per_s_2t", "1/s"),
    higher("core.scenario.sweep.speedup", "ratio"),
    lower("core.scenario.sweep.jsonl_bytes_per_run", "B"),
    lower("sim.fidelity.makespan_ratio", "ratio"),
    lower("sim.fidelity.makespan_gap", "ratio"),
    // set-up pieces, timed one public call at a time
    lower("core.scenario.validate_ms", "ms"),
    lower("model.problem.build_ms", "ms"),
    lower("amt.cluster.build_ms", "ms"),
    lower("model.serial.step_ms", "ms"),
    // the benchmark itself
    lower("bench.calib_1t_ms", "ms"),
    lower("bench.calib_nt_ms", "ms"),
    lower("bench.calib_ref_ms", "ms"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.unit_ms", "ms"),
    lower("bench.unit_ms_p90", "ms"),
    lower("bench.off_unit_ms", "ms"),
    higher("bench.reps", "count"),
    lower("bench.degraded", "count"),
];

/// The per-layer values of one traced run: every declared metric, zero
/// until a probe sets it.
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn new() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Record `value` for the declared metric `name`.
    ///
    /// # Panics
    /// Panics on a name [`PER_LAYER`] does not declare: the result would
    /// silently miss from `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names_of(list: &Json) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads = doc.get("workloads").unwrap();
        assert_eq!(
            names_of(workloads),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        for (w, (_, why)) in workloads.as_array().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(
            names_of(e2e),
            END_TO_END.iter().map(|m| m.0.name).collect::<Vec<_>>()
        );
        for (m, (def, bound)) in e2e.as_array().unwrap().iter().zip(END_TO_END) {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap();
        assert_eq!(
            names_of(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, def) in layers.as_array().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "undeclared per-layer metric")]
    fn undeclared_layer_metric_is_a_bug() {
        LayerMetrics::new().set("no.such.metric", 1.0);
    }
}
