//! Shared-memory solver (§8.2): the one-locality instance of the §6 driver.
//!
//! One node, many threads: each timestep spawns the SDs' updates as tasks
//! onto the work-stealing pool — one per SD, or one per group of SDs too
//! small to be worth a task each (see
//! [`crate::ghost::TASK_WORK_FLOOR`]) — and futurization synchronizes the
//! step (Listing 1's `hpx::async`/`hpx::future` pattern). [`crate::dist`]'s
//! step loop does exactly that on a cluster of one locality — no ghost is
//! foreign, so no bundle is sent or awaited and no case-1 work exists — so
//! this module describes such a run and reads the result; it has no loop
//! of its own.

use crate::dist::run_distributed;
use crate::scenario::{ClusterSpec, Scenario};
use crate::workload::WorkModel;
use nlheat_model::{ErrorAccumulator, ProblemSpec};
use nlheat_netmodel::NetSpec;
use std::time::Duration;

/// Configuration of a shared-memory run.
#[derive(Debug, Clone)]
pub struct SharedConfig {
    /// The physical problem.
    pub spec: ProblemSpec,
    /// SD side length in cells (must divide the mesh).
    pub sd_size: usize,
    /// Timesteps to run.
    pub n_steps: usize,
    /// Worker threads.
    pub n_threads: usize,
    /// Record the eq.-7 error against the manufactured solution each step.
    pub record_error: bool,
    /// Per-SD work factors.
    pub work: WorkModel,
}

impl SharedConfig {
    /// Paper-style configuration (manufactured problem, uniform work).
    pub fn new(n: usize, eps_mult: f64, sd_size: usize, n_steps: usize, n_threads: usize) -> Self {
        SharedConfig {
            spec: ProblemSpec::square(n, eps_mult),
            sd_size,
            n_steps,
            n_threads,
            record_error: false,
            work: WorkModel::Uniform,
        }
    }
}

/// Outcome of a shared-memory run.
#[derive(Debug, Clone)]
pub struct SharedReport {
    /// Wall time on the locality: initial condition, steps, field read-out.
    pub elapsed: Duration,
    /// Per-step errors when requested.
    pub error: Option<ErrorAccumulator>,
    /// Final interior field, row-major over the global mesh.
    pub field: Vec<f64>,
    /// Total busy nanoseconds across workers.
    pub busy_ns: u64,
    /// Tasks executed by the pool.
    pub tasks: u64,
}

/// The shared-memory solver: one locality of `n_threads` workers.
pub struct SharedSolver {
    cfg: SharedConfig,
}

impl SharedSolver {
    /// A solver for `cfg`; all work happens in [`run`](Self::run).
    pub fn new(cfg: SharedConfig) -> Self {
        SharedSolver { cfg }
    }

    /// Run the configured number of steps and report.
    pub fn run(self) -> SharedReport {
        let cfg = self.cfg;
        let scenario = Scenario {
            problem: cfg.spec,
            ..Scenario::square(cfg.spec.n, cfg.spec.eps_mult, cfg.sd_size, cfg.n_steps)
        }
        .on(ClusterSpec::uniform(1, cfg.n_threads))
        .with_net(NetSpec::Instant)
        .with_work(cfg.work)
        .with_record_error(cfg.record_error);
        let cluster = scenario.build_cluster();
        let report = run_distributed(&cluster, &scenario);
        // The step barrier resolves inside the final task, slightly before
        // the pool retires it — drain fully so the counters below are final.
        let locality = cluster.locality(0);
        locality.wait_idle();
        SharedReport {
            elapsed: report.elapsed,
            error: report.error,
            field: report.field,
            busy_ns: locality.pool().busy_ns_total(),
            tasks: locality.pool().tasks_executed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_model::SerialSolver;

    #[test]
    fn matches_serial_solver_bitwise() {
        let mut cfg = SharedConfig::new(16, 2.0, 4, 5, 2);
        cfg.record_error = true;
        let report = SharedSolver::new(cfg).run();

        let parts = ProblemSpec::square(16, 2.0).build();
        let mut serial = SerialSolver::manufactured(&parts);
        serial.run(5);
        let serial_field = serial.field();

        assert_eq!(report.field.len(), serial_field.len());
        for (i, (a, b)) in report.field.iter().zip(&serial_field).enumerate() {
            assert_eq!(a, b, "cell {i} differs: shared {a} vs serial {b}");
        }
    }

    #[test]
    fn single_sd_equals_many_sds() {
        let one = SharedSolver::new(SharedConfig::new(16, 2.0, 16, 4, 1)).run();
        let many = SharedSolver::new(SharedConfig::new(16, 2.0, 4, 4, 3)).run();
        assert_eq!(
            one.field, many.field,
            "decomposition must not change numerics"
        );
    }

    #[test]
    fn error_stays_small() {
        let mut cfg = SharedConfig::new(24, 3.0, 8, 8, 2);
        cfg.record_error = true;
        let report = SharedSolver::new(cfg).run();
        let total = report.error.unwrap().total();
        assert!(total < 1e-4, "error {total}");
    }

    #[test]
    fn tasks_scale_with_sds_and_steps() {
        // 16 SDs x 3 steps of 16 cells x 13 stencil points each: far below
        // the work floor, so SDs share tasks — at least one a step, never
        // more than one per SD and step
        let report = SharedSolver::new(SharedConfig::new(16, 2.0, 4, 3, 2)).run();
        assert!((3..=48).contains(&report.tasks), "{} tasks", report.tasks);
        assert!(report.busy_ns > 0);
        // 4 SDs x 2 steps of 1024 cells x 197 stencil points: every SD is
        // above the floor and keeps a task of its own
        let cells = 32 * 32 * ProblemSpec::square(64, 8.0).build().kernel.stencil.len();
        assert!(cells as u64 >= crate::ghost::TASK_WORK_FLOOR);
        let report = SharedSolver::new(SharedConfig::new(64, 8.0, 32, 2, 2)).run();
        assert_eq!(report.tasks, 8);
    }

    #[test]
    fn work_model_changes_cost_not_result() {
        let uniform = SharedSolver::new(SharedConfig::new(16, 2.0, 4, 3, 2)).run();
        let mut cfg = SharedConfig::new(16, 2.0, 4, 3, 2);
        cfg.work = WorkModel::Crack {
            y_cell: 8,
            half_width: 2,
            factor: 3.0,
        };
        let crack = SharedSolver::new(cfg).run();
        assert_eq!(uniform.field, crack.field);
    }
}
