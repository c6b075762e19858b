//! The four `dist_*` workloads: the real AMT runtime on two compute
//! threads, each checked bit-for-bit against the serial solver.

use super::dist_probes::Shape;
use super::{Leg, Off, Workload};
use crate::calib::Reference;
use crate::metrics::LayerMetrics;
use crate::runner::Ctx;
use crate::stats::Summary;
use nonlocalheat::core::balance::LbSchedule;
use nonlocalheat::core::dist::run_distributed;
use nonlocalheat::core::scenario::{ClusterSpec, LbInput, PartitionSpec, RunReport, Scenario};
use nonlocalheat::core::shared::{SharedConfig, SharedSolver};
use nonlocalheat::core::{scenarios, WorkModel};
use nonlocalheat::model::SerialSolver;
use nonlocalheat::netmodel::NetSpec;
use nonlocalheat::sim::RunSim;
use std::time::Instant;

/// One leg of a distributed workload: its scenario and what its output is
/// checked against.
struct DistLeg {
    name: &'static str,
    scenario: Scenario,
    /// The serial solver's field after this leg's step count.
    oracle: Vec<f64>,
    /// Whether the leg's ghost traffic is the same every rep (no measured-
    /// input balancing in it), so its byte counter must repeat exactly.
    ghost_repeats: bool,
    ghost_seen: Option<u64>,
}

/// One distributed workload: its two legs.
pub struct Dist {
    on: DistLeg,
    off: DistLeg,
    serial_step_ms: f64,
    seed: u64,
    /// Kernel-bound workloads are timed against the stencil, the
    /// parcel-bound one against the general loop.
    reference: Reference,
    last_on: Option<RunReport>,
}

fn steps(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 4).max(2)
    } else {
        full
    }
}

impl Dist {
    pub fn new(name: &str, seed: u64, smoke: bool, ctx: &mut Ctx) -> Self {
        let (on, off, ghost_repeats) = match name {
            "dist_uniform" => {
                let on = Scenario::square(400, 8.0, 25, steps(16, smoke))
                    .on(ClusterSpec::uniform(2, 1))
                    .with_partition(PartitionSpec::Metis { seed })
                    .with_net(NetSpec::Instant)
                    .with_lb(LbSchedule::every(4))
                    .with_lb_input(LbInput::Measured);
                let mut off = on.clone().with_overlap(false);
                off.steps = steps(8, smoke);
                (on, off, (false, false))
            }
            "dist_hetero_lb" => {
                // the seed picks which rank is the slow one
                let speeds = if seed.is_multiple_of(2) {
                    [0.5, 1.0]
                } else {
                    [1.0, 0.5]
                };
                let on = Scenario::square(400, 8.0, 25, steps(24, smoke))
                    .on(ClusterSpec::speeds(&speeds))
                    .with_partition(PartitionSpec::Strip)
                    .with_net(scenarios::two_rack_net())
                    .with_lb(LbSchedule::every(4))
                    .with_lb_input(LbInput::Measured);
                let mut off = on.clone().without_lb();
                off.steps = steps(8, smoke);
                (on, off, (false, true))
            }
            "dist_ghost_heavy" => {
                let base = Scenario::square(200, 4.0, 5, steps(12, smoke));
                // the seed flips which rank owns the even islands
                let flip = (seed % 2) as u32;
                let owners = scenarios::drifted_owners(&base.sd_grid(), 2)
                    .into_iter()
                    .map(|o| o ^ flip)
                    .collect();
                let on = base
                    .on(ClusterSpec::uniform(2, 1))
                    .with_partition(PartitionSpec::Explicit(owners))
                    .with_net(NetSpec::Instant);
                let mut off = on.clone().with_overlap(false);
                off.steps = steps(8, smoke);
                (on, off, (true, true))
            }
            "dist_straggler_tiles" => {
                // Seed-independent: where the straggler sits in spawn order
                // decides what the stealing-off leg costs (SD 1 against SD 2
                // moved the gain by a tenth), so no position is neutral.
                let mut work = vec![1.0; 16];
                work[1] = 32.0;
                let on = Scenario::square(400, 8.0, 100, steps(6, smoke))
                    .on(ClusterSpec::uniform(1, 2))
                    .with_net(NetSpec::Instant)
                    .with_work(WorkModel::PerSd(work))
                    .with_intra_step_stealing(true);
                let mut off = on.clone().with_intra_step_stealing(false);
                off.steps = steps(4, smoke);
                (on, off, (true, true))
            }
            other => panic!("not a dist workload: {other}"),
        };

        // The oracle: one serial run, snapshotted at both legs' step counts.
        let span = ctx.tracer.begin("SerialSolver (oracle)");
        let parts = on.problem.build();
        let mut serial = SerialSolver::manufactured(&parts);
        let (first, second) = (on.steps.min(off.steps), on.steps.max(off.steps));
        let t0 = Instant::now();
        serial.run(first);
        let at_first = serial.field();
        serial.run(second - first);
        let serial_step_ms = t0.elapsed().as_secs_f64() * 1e3 / second as f64;
        let at_second = serial.field();
        ctx.tracer.end(span);
        let (oracle_on, oracle_off) = if on.steps <= off.steps {
            (at_first, at_second)
        } else {
            (at_second, at_first)
        };
        let leg = |name, scenario, oracle, ghost_repeats| DistLeg {
            name,
            scenario,
            oracle,
            ghost_repeats,
            ghost_seen: None,
        };
        Dist {
            on: leg("on", on, oracle_on, ghost_repeats.0),
            off: leg("off", off, oracle_off, ghost_repeats.1),
            serial_step_ms,
            seed,
            reference: if name == "dist_ghost_heavy" {
                Reference::General
            } else {
                Reference::Stencil
            },
            last_on: None,
        }
    }

    /// Run `sc` on the real runtime. Traced, the same sequence
    /// `Scenario::run_dist` performs is spelled out with a span around
    /// each public call. Returns the report and the wall seconds of the
    /// whole call.
    fn execute(sc: &Scenario, ctx: &mut Ctx) -> (RunReport, f64) {
        let t0 = Instant::now();
        let report = if ctx.tracer.enabled() {
            let tr = &mut ctx.tracer;
            tr.span("Scenario::validate", |_| sc.validate());
            let cluster = tr.span("Scenario::build_cluster", |_| sc.build_cluster());
            let cfg = sc.dist_config();
            let id = tr.begin("run_distributed");
            let dist = run_distributed(&cluster, &cfg);
            tr.count(id, "steps", sc.steps as f64);
            tr.count(id, "timed_section_ms", dist.elapsed.as_secs_f64() * 1e3);
            tr.count(id, "migrations", dist.migrations as f64);
            tr.count(id, "ghost_bytes", dist.ghost_bytes as f64);
            tr.count(id, "wire_messages", cluster.net_stats().messages() as f64);
            tr.end(id);
            let stats = cluster.net_stats();
            let report = RunReport::from_dist(dist, stats.messages(), stats.cross_bytes())
                .with_scenario_memory(sc);
            tr.span("Cluster::drop", |_| drop(cluster));
            report
        } else {
            sc.run_dist()
        };
        (report, t0.elapsed().as_secs_f64())
    }

    fn timed_section_s(report: &RunReport) -> f64 {
        report
            .dist_extras()
            .expect("the real runtime reports dist extras")
            .elapsed
            .as_secs_f64()
    }

    /// Milliseconds per step of `sc`, run once untraced-style inside a
    /// probe span (field checked against nothing: probes vary the
    /// configuration, the legs carry the correctness checks).
    fn probe_step_ms(ctx: &mut Ctx, span: &'static str, sc: &Scenario) -> f64 {
        let id = ctx.tracer.begin(span);
        let report = sc.run_dist();
        ctx.tracer.end(id);
        Self::timed_section_s(&report) * 1e3 / sc.steps as f64
    }
}

/// One run of a leg: its report, the milliseconds per step raw and in
/// units of the reference loop, and what the call cost outside its timed
/// section.
struct LegRun {
    report: RunReport,
    unit_ms: f64,
    unit_rel: f64,
    setup_s: f64,
}

impl DistLeg {
    /// Run the leg once, calibrated, and check its output.
    fn run(&mut self, ctx: &mut Ctx) -> LegRun {
        let ((report, wall_s), _, calib_ms) = ctx.timed(|ctx| Dist::execute(&self.scenario, ctx));
        let leg = self.name;

        let span = ctx.tracer.begin("oracle compare");
        let field = report.field.as_deref().unwrap_or(&[]);
        let bit_equal = field.len() == self.oracle.len()
            && field
                .iter()
                .zip(&self.oracle)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        ctx.tracer.end(span);
        ctx.checks.check(
            &format!("{leg}: field bit-equal to the serial solver"),
            bit_equal,
        );
        ctx.checks.guard(&format!("{leg}: report invariants"), || {
            report.check_invariants()
        });
        if self.ghost_repeats {
            let seen = *self.ghost_seen.get_or_insert(report.ghost_bytes);
            ctx.checks.check(
                &format!("{leg}: ghost bytes repeat across reps"),
                seen == report.ghost_bytes,
            );
        }

        let timed_s = Dist::timed_section_s(&report);
        let unit_ms = timed_s * 1e3 / self.scenario.steps as f64;
        LegRun {
            report,
            unit_ms,
            unit_rel: unit_ms / calib_ms,
            setup_s: wall_s - timed_s,
        }
    }
}

impl Workload for Dist {
    fn reference(&self) -> (Reference, usize) {
        (self.reference, 2)
    }

    fn on_leg(&mut self, ctx: &mut Ctx) -> Leg {
        let run = self.on.run(ctx);
        self.last_on = Some(run.report);
        Leg {
            unit_ms: run.unit_ms,
            unit_rel: run.unit_rel,
            setup_s: run.setup_s,
        }
    }

    fn off_leg(&mut self, ctx: &mut Ctx) -> Off {
        let run = self.off.run(ctx);
        Off::Leg {
            unit_ms: run.unit_ms,
            unit_rel: run.unit_rel,
        }
    }

    fn probes(&mut self, ctx: &mut Ctx, layers: &mut LayerMetrics, unit: &Summary) {
        let sc = &self.on.scenario;
        let last = self.last_on.as_ref().expect("probes run after the legs");
        let tr = &mut ctx.tracer;
        let shape = Shape::set_up(sc, last, self.seed, tr, layers);
        layers.set("model.serial.step_ms", self.serial_step_ms);
        let kernel_est_ms = shape.kernel(tr, layers);
        let halo_est_ms = shape.halo(tr, layers);
        let net_est_ms = shape.network(tr, layers);
        shape.pool(tr, layers);
        let lb_est_ms = shape.balance(tr, layers);
        shape.partition(tr, layers);

        // --- the distributed step against its alternatives ---
        layers.set("core.dist.step_ms", unit.median);
        layers.set("core.dist.step_ms_p90", unit.p90);
        let short = self.off.scenario.steps;
        let variant = |f: &dyn Fn(Scenario) -> Scenario| {
            let mut v = f(sc.clone());
            v.steps = short;
            v
        };
        let one = variant(&|s| {
            s.on(ClusterSpec::uniform(1, 1))
                .with_partition(PartitionSpec::Strip)
                .without_lb()
                .with_work(WorkModel::Uniform)
                .with_intra_step_stealing(false)
        });
        let one_ms = Self::probe_step_ms(ctx, "probe: 1x1 run", &one);
        let here_ms = Self::probe_step_ms(ctx, "probe: workload run", &variant(&|s| s));
        let no_overlap = variant(&|s| s.with_overlap(false));
        let no_overlap_ms = Self::probe_step_ms(ctx, "probe: overlap off", &no_overlap);
        let flipped = variant(&|s| {
            let stealing = s.intra_step_stealing;
            s.with_intra_step_stealing(!stealing)
        });
        let flipped_ms = Self::probe_step_ms(ctx, "probe: stealing flipped", &flipped);
        let (steal_off_ms, steal_on_ms) = if sc.intra_step_stealing {
            (flipped_ms, here_ms)
        } else {
            (here_ms, flipped_ms)
        };
        layers.set("core.dist.par_eff", one_ms / (2.0 * here_ms));
        layers.set("core.dist.overlap_ratio", no_overlap_ms / here_ms);
        layers.set("core.dist.tile_steal_gain", steal_off_ms / steal_on_ms);
        let id = ctx.tracer.begin("probe: SharedSolver");
        let shared = SharedSolver::new(SharedConfig {
            spec: sc.problem,
            sd_size: sc.sd_size,
            n_steps: short,
            n_threads: 2,
            record_error: false,
            work: sc.work.clone(),
        })
        .run();
        ctx.tracer.end(id);
        let shared_ms = shared.elapsed.as_secs_f64() * 1e3 / short as f64;
        layers.set("core.shared.step_ms", shared_ms);
        layers.set("core.dist.vs_shared", here_ms / shared_ms);
        let cores: usize = sc.cluster.nodes.iter().map(|n| n.cores).sum();
        layers.set(
            "core.dist.busy_frac",
            last.busy.iter().sum::<f64>() / (last.makespan * cores as f64),
        );
        layers.set(
            "core.dist.unattributed_frac",
            1.0 - (kernel_est_ms + halo_est_ms + net_est_ms + lb_est_ms) / unit.median,
        );

        // --- what the simulator predicts for this very scenario ---
        let id = ctx.tracer.begin("Scenario::run_sim");
        let sim = sc.run_sim();
        ctx.tracer.end(id);
        let ratio = sim.makespan / last.makespan;
        layers.set("sim.fidelity.makespan_ratio", ratio);
        layers.set("sim.fidelity.makespan_gap", (ratio - 1.0).abs());
    }
}
