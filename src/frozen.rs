//! The names the frozen repo benchmark (`benchmark/src`) reads and the
//! program no longer has, re-exported at the paths it imports them from:
//! `core::dist::run_distributed` and `core::shared::{SharedConfig,
//! SharedSolver}`. Each is an adapter over the one run path it names —
//! [`nlheat_core::dist::run_distributed`] and [`Scenario::run_dist`] — and
//! holds exactly what the benchmark reads; no crate of the workspace
//! names them (`tests/frozen_contract.rs` scans `crates/` for it).
//!
//! Two inherent items of `nlheat_core` cannot move here, so they stay
//! there as one-line forwards. They are the rest of the debt the
//! benchmark's re-base retires, together with this module:
//! - [`Scenario::dist_config`], the identity;
//! - [`RunReport::from_dist`], which stores the wire statistics it is
//!   given in the report it is handed (a [`DistReport`] converts into its
//!   [`RunReport`]).

use nlheat_amt::cluster::Cluster;
use nlheat_core::scenario::{ClusterSpec, RunReport, Scenario};
use nlheat_core::workload::WorkModel;
use nlheat_model::ProblemSpec;
use nlheat_netmodel::NetSpec;
use std::time::Duration;

/// Wall time of a real-runtime run.
fn elapsed(report: &RunReport) -> Duration {
    report
        .dist_extras()
        .expect("the real runtime reports dist extras")
        .elapsed
}

/// The three fields the benchmark's traced run reads of a real-runtime
/// run, beside the [`RunReport`] they come from.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Wall time of the run.
    pub elapsed: Duration,
    /// [`RunReport::migrations`].
    pub migrations: usize,
    /// [`RunReport::ghost_bytes`].
    pub ghost_bytes: u64,
    report: RunReport,
}

impl From<DistReport> for RunReport {
    fn from(view: DistReport) -> Self {
        view.report
    }
}

/// [`nlheat_core::dist::run_distributed`], its report seen as a
/// [`DistReport`].
pub fn run_distributed(cluster: &Cluster, sc: &Scenario) -> DistReport {
    let report = nlheat_core::dist::run_distributed(cluster, sc);
    DistReport {
        elapsed: elapsed(&report),
        migrations: report.migrations,
        ghost_bytes: report.ghost_bytes,
        report,
    }
}

/// A shared-memory run (§8.2): the square problem `spec` on one locality
/// of `n_threads` workers over the instant network.
#[derive(Debug, Clone)]
pub struct SharedConfig {
    /// The physical problem.
    pub spec: ProblemSpec,
    /// SD side length in cells.
    pub sd_size: usize,
    /// Timesteps to run.
    pub n_steps: usize,
    /// Worker threads.
    pub n_threads: usize,
    /// Record the eq.-7 error each step.
    pub record_error: bool,
    /// Per-SD work factors.
    pub work: WorkModel,
}

/// What the benchmark reads of a shared-memory run.
#[derive(Debug, Clone)]
pub struct SharedReport {
    /// Wall time of the run.
    pub elapsed: Duration,
}

/// The shared-memory solver: the [`SharedConfig`]'s scenario through
/// [`Scenario::run_dist`].
pub struct SharedSolver {
    cfg: SharedConfig,
}

impl SharedSolver {
    /// A solver for `cfg`; all work happens in [`run`](Self::run).
    pub fn new(cfg: SharedConfig) -> Self {
        SharedSolver { cfg }
    }

    /// Run the configured steps.
    pub fn run(self) -> SharedReport {
        let cfg = self.cfg;
        let report = Scenario {
            problem: cfg.spec,
            ..Scenario::square(cfg.spec.n, cfg.spec.eps_mult, cfg.sd_size, cfg.n_steps)
        }
        .on(ClusterSpec::uniform(1, cfg.n_threads))
        .with_net(NetSpec::Instant)
        .with_work(cfg.work)
        .with_record_error(cfg.record_error)
        .run_dist();
        SharedReport {
            elapsed: elapsed(&report),
        }
    }
}
