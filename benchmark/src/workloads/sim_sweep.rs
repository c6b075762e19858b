//! `sim_sweep`: the discrete-event simulator driven by the sweep runner.
//!
//! One pass is the library grid — every named library scenario under each
//! of the seven `LbSpec` variants (entries whose cluster events or memory
//! caps tie them to their own policy run it once) crossed with the
//! five-rung network ladder — plus one cluster-scale run. The pass is
//! timed at sweep parallelism 1, the simulator's own cost, one network
//! rung at a time so each chunk has its own calibration; the
//! parallelism-2 pass runs once per process for the determinism check and
//! in the probes for the runner's speed-up.

use super::{speed_ladder, Leg, Off, Workload};
use crate::calib::Reference;
use crate::metrics::LayerMetrics;
use crate::runner::Ctx;
use crate::stats::Summary;
use nonlocalheat::core::balance::{LbSchedule, LbSpec};
use nonlocalheat::core::scenario::sweep::{Axis, FnSink, RunRecord, ScenarioSweep};
use nonlocalheat::core::scenario::{ClusterSpec, PartitionSpec, RunReport, Scenario};
use nonlocalheat::core::scenarios;
use nonlocalheat::netmodel::NetSpec;
use nonlocalheat::sim::{RunSim, SimSubstrate};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn lb_specs() -> Vec<(&'static str, LbSpec)> {
    vec![
        ("tree", LbSpec::tree(0.0)),
        ("diffusion", LbSpec::diffusion(1.0, 8)),
        ("greedy-steal", LbSpec::greedy_steal(1)),
        ("adaptive-lambda", LbSpec::adaptive(LbSpec::tree(0.5), 0.05)),
        ("adaptive-mu", LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.05)),
        ("hierarchical", LbSpec::hierarchical(LbSpec::tree(0.0), 0.0)),
        (
            "repartition",
            LbSpec::repartition(LbSpec::tree(0.0), 1.15, 1, u64::MAX),
        ),
    ]
}

fn nets() -> Vec<(&'static str, NetSpec)> {
    vec![
        ("instant", NetSpec::Instant),
        ("constant", NetSpec::constant(1e-4, 1e8)),
        ("shared", NetSpec::shared(1e-4, 1e8)),
        ("duplex", NetSpec::duplex(1e-4, 1e8)),
        ("two-rack", scenarios::two_rack_net()),
    ]
}

/// The library at the chosen scale, METIS starts re-seeded with `seed`.
fn library(seed: u64, smoke: bool) -> Vec<(&'static str, Scenario)> {
    scenarios::all(smoke)
        .into_iter()
        .map(|(name, mut sc)| {
            if matches!(sc.partition, PartitionSpec::Metis { .. }) {
                sc.partition = PartitionSpec::Metis { seed };
            }
            (name, sc)
        })
        .collect()
}

/// True when the scenario's policy can be swapped: cluster events need
/// their repartitioning policy and memory caps their memory-aware one.
fn takes_any_policy(sc: &Scenario) -> bool {
    sc.cluster_events.is_empty() && !sc.cluster.has_memory_caps()
}

type Net = (&'static str, NetSpec);

fn net_axis(nets: &[Net]) -> Axis {
    nets.iter()
        .enumerate()
        .fold(Axis::new("net"), |axis, (i, &(name, net))| {
            axis.value(name, i as f64, move |sc: Scenario| sc.with_net(net))
        })
}

/// The grid: (scenario, policy) cases × the given network models.
fn grid(seed: u64, smoke: bool, nets: &[Net]) -> ScenarioSweep {
    let mut cases: Vec<(String, Scenario)> = Vec::new();
    for (name, sc) in library(seed, smoke) {
        if takes_any_policy(&sc) {
            let period = sc.lb.as_ref().map_or(4, |lb| lb.period);
            for (policy, spec) in lb_specs() {
                let lb = LbSchedule::every(period).with_spec(spec);
                cases.push((format!("{name}/{policy}"), sc.clone().with_lb(lb)));
            }
        } else {
            cases.push((format!("{name}/own"), sc));
        }
    }
    ScenarioSweep::new(scenarios::paper_baseline(smoke))
        .axis(Axis::scenarios("case", cases))
        .axis(net_axis(nets))
}

/// The same scenarios with balancing switched off, for the simulated gain.
fn grid_without_lb(seed: u64, smoke: bool) -> ScenarioSweep {
    let cases: Vec<(&str, Scenario)> = library(seed, smoke)
        .into_iter()
        .filter(|(_, sc)| takes_any_policy(sc))
        .map(|(name, sc)| (name, sc.without_lb()))
        .collect();
    ScenarioSweep::new(scenarios::paper_baseline(smoke))
        .axis(Axis::scenarios("case", cases))
        .axis(net_axis(&nets()))
}

/// One simulation far beyond the library's node counts: 4096 SDs on 64
/// nodes whose speeds are a seeded rotation of a fixed ladder.
fn cluster_scale(seed: u64, smoke: bool) -> Scenario {
    let (mesh, nodes, steps) = if smoke { (400, 16, 10) } else { (1600, 64, 40) };
    Scenario::square(mesh, 8.0, 25, steps)
        .on(ClusterSpec::speeds(&speed_ladder(nodes, seed)))
        .with_partition(PartitionSpec::Strip)
        .with_lb(LbSchedule::every(4))
}

/// What one pass over the grid produced.
#[derive(Default)]
struct Pass {
    runs: usize,
    makespan_s: f64,
    msgs: u64,
    cross_bytes: u64,
    jsonl_bytes: usize,
    invariant_failures: usize,
    /// `(index, makespan bits, migrations, ghost bytes)` per run.
    outcomes: Vec<(usize, u64, usize, u64)>,
    /// JSON lines, kept only when asked for.
    lines: Option<Vec<String>>,
}

impl Pass {
    fn record(&mut self, record: &RunRecord, report: &RunReport) {
        self.runs += 1;
        self.makespan_s += report.makespan;
        if let Some(sim) = report.sim_extras() {
            self.msgs += sim.messages;
            self.cross_bytes += sim.cross_bytes;
        }
        if catch_unwind(AssertUnwindSafe(|| report.check_invariants())).is_err() {
            self.invariant_failures += 1;
        }
        self.outcomes.push((
            record.index,
            report.makespan.to_bits(),
            report.migrations,
            report.ghost_bytes,
        ));
        if let Some(lines) = &mut self.lines {
            let line = record.to_json_line();
            self.jsonl_bytes += line.len() + 1;
            lines.push(line);
        }
    }

    /// Fold in the pass over network rung `rung` of `rungs`, re-indexing
    /// its runs to their cells in the full grid (network varies fastest).
    fn absorb(&mut self, chunk: Pass, rung: usize, rungs: usize) {
        self.runs += chunk.runs;
        self.makespan_s += chunk.makespan_s;
        self.msgs += chunk.msgs;
        self.cross_bytes += chunk.cross_bytes;
        self.invariant_failures += chunk.invariant_failures;
        self.outcomes.extend(chunk.outcomes.into_iter().map(
            |(index, makespan, migrations, ghost)| {
                (index * rungs + rung, makespan, migrations, ghost)
            },
        ));
    }

    /// Order-independent digest of the outcomes (FNV-1a over the runs in
    /// grid order).
    fn digest(&mut self) -> u64 {
        self.outcomes.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(index, makespan, migrations, ghost) in &self.outcomes {
            for word in [index as u64, makespan, migrations as u64, ghost] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

fn run_pass(sweep: &ScenarioSweep, keep_lines: bool) -> Pass {
    let mut pass = Pass {
        lines: keep_lines.then(Vec::new),
        ..Pass::default()
    };
    sweep.run(
        &SimSubstrate,
        &mut FnSink(|record: &RunRecord, report: &RunReport| pass.record(record, report)),
    );
    pass
}

pub struct SimSweep {
    seed: u64,
    smoke: bool,
    reference_digest: u64,
    /// Simulated makespan without balancing over makespan with it.
    gain: f64,
    /// SD-steps simulated per pass (grid plus cluster-scale run).
    sd_steps: f64,
    last: Pass,
    last_cluster_makespan_s: f64,
}

impl SimSweep {
    pub fn new(seed: u64, smoke: bool, ctx: &mut Ctx) -> Self {
        // Parallelism 1 against 2: same records whatever the worker count.
        let span = ctx.tracer.begin("determinism oracle (parallelism 1 vs 2)");
        let mut one = run_pass(&grid(seed, smoke, &nets()).with_parallelism(1), true);
        let mut two = run_pass(&grid(seed, smoke, &nets()).with_parallelism(2), true);
        let sorted = |pass: &mut Pass| {
            let mut lines = pass.lines.take().expect("lines kept");
            lines.sort_unstable();
            lines
        };
        let same_jsonl = sorted(&mut one) == sorted(&mut two);
        ctx.tracer.end(span);
        ctx.checks
            .check("sorted JSONL identical at parallelism 1 and 2", same_jsonl);

        // The simulated gain of balancing: each unbalanced run stands
        // against the seven policies that replace it in the grid.
        let unbalanced = run_pass(&grid_without_lb(seed, smoke), false);
        let runs = grid(seed, smoke, &nets()).expand();
        let mut balanced_s = 0.0;
        let mut sd_steps = 0.0;
        one.outcomes.sort_unstable();
        for (run, &(index, makespan_bits, _, _)) in runs.iter().zip(&one.outcomes) {
            assert_eq!(run.index, index, "one outcome per grid cell");
            sd_steps += (run.scenario.sd_grid().count() * run.scenario.steps) as f64;
            if takes_any_policy(&run.scenario) {
                balanced_s += f64::from_bits(makespan_bits);
            }
        }
        let scale = cluster_scale(seed, smoke);
        sd_steps += (scale.sd_grid().count() * scale.steps) as f64;
        let gain = lb_specs().len() as f64 * unbalanced.makespan_s / balanced_s;
        SimSweep {
            seed,
            smoke,
            reference_digest: one.digest(),
            gain,
            sd_steps,
            last: one,
            last_cluster_makespan_s: 0.0,
        }
    }
}

impl Workload for SimSweep {
    /// The stencil, not the general loop: run alternately against both,
    /// the pass spread by 11 % over the stencil and 14 % over the general
    /// loop.
    fn reference(&self) -> (Reference, usize) {
        (Reference::Stencil, 1)
    }

    fn on_leg(&mut self, ctx: &mut Ctx) -> Leg {
        let t0 = Instant::now();
        let span = ctx
            .tracer
            .begin("build grid + ScenarioSweep::expand + validate");
        let rungs = nets();
        let chunks: Vec<ScenarioSweep> = rungs
            .iter()
            .map(|&net| grid(self.seed, self.smoke, &[net]).with_parallelism(1))
            .collect();
        for sweep in &chunks {
            for run in sweep.expand() {
                run.scenario.validate();
            }
        }
        let scale = cluster_scale(self.seed, self.smoke);
        scale.validate();
        ctx.tracer.end(span);
        let setup_s = t0.elapsed().as_secs_f64();

        let mut pass = Pass::default();
        let (mut unit_ms, mut unit_rel) = (0.0, 0.0);
        for (rung, sweep) in chunks.iter().enumerate() {
            let (chunk, ms, calib_ms) = ctx.timed(|ctx| {
                let span = ctx.tracer.begin("ScenarioSweep::run (one network rung)");
                let chunk = run_pass(sweep, false);
                ctx.tracer.count(span, "runs", chunk.runs as f64);
                ctx.tracer.count(span, "sim_msgs", chunk.msgs as f64);
                ctx.tracer.end(span);
                chunk
            });
            pass.absorb(chunk, rung, rungs.len());
            unit_ms += ms;
            unit_rel += ms / calib_ms;
        }
        let (big, ms, calib_ms) = ctx.timed(|ctx| {
            let span = ctx.tracer.begin("Scenario::run_sim (cluster-scale)");
            let big = scale.run_sim();
            ctx.tracer
                .count(span, "sds", scale.sd_grid().count() as f64);
            ctx.tracer.count(span, "migrations", big.migrations as f64);
            ctx.tracer.end(span);
            big
        });
        unit_ms += ms;
        unit_rel += ms / calib_ms;

        ctx.checks.check(
            "report invariants hold on every grid record",
            pass.invariant_failures == 0,
        );
        ctx.checks.check(
            "grid outcomes (makespan, migrations, ghost bytes) repeat bit-exactly",
            pass.digest() == self.reference_digest,
        );
        ctx.checks
            .guard("cluster-scale report invariants", || big.check_invariants());
        self.last = pass;
        self.last_cluster_makespan_s = big.makespan;
        Leg {
            unit_ms,
            unit_rel,
            setup_s,
        }
    }

    fn off_leg(&mut self, _ctx: &mut Ctx) -> Off {
        Off::Gain(self.gain)
    }

    fn probes(&mut self, ctx: &mut Ctx, layers: &mut LayerMetrics, unit: &Summary) {
        let mut timed = |span: &'static str, parallelism: usize| {
            let sweep = grid(self.seed, self.smoke, &nets()).with_parallelism(parallelism);
            let id = ctx.tracer.begin(span);
            let t0 = Instant::now();
            let pass = run_pass(&sweep, true);
            let secs = t0.elapsed().as_secs_f64();
            ctx.tracer.end(id);
            (pass, secs)
        };
        let (one, one_s) = timed("probe: grid at parallelism 1", 1);
        let (two, two_s) = timed("probe: grid at parallelism 2", 2);
        layers.set("core.scenario.sweep.runs_per_s_1t", one.runs as f64 / one_s);
        layers.set("core.scenario.sweep.runs_per_s_2t", two.runs as f64 / two_s);
        layers.set("core.scenario.sweep.speedup", one_s / two_s);
        layers.set(
            "core.scenario.sweep.jsonl_bytes_per_run",
            one.jsonl_bytes as f64 / one.runs as f64,
        );
        layers.set(
            "sim.engine.ns_per_sd_step",
            unit.median * 1e6 / self.sd_steps,
        );
        layers.set("sim.engine.msgs", self.last.msgs as f64);
        layers.set("sim.engine.cross_bytes", self.last.cross_bytes as f64);
        layers.set(
            "sim.engine.makespan_s",
            self.last.makespan_s + self.last_cluster_makespan_s,
        );
    }
}
