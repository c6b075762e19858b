//! The load-balancing **epoch** of Algorithm 1, written once.
//!
//! Every substrate runs the same loop at every due step: read the busy
//! times, compute eqs. 8–10, plan, migrate, reset the counters (line 35).
//! Only the first and the fourth differ between them — the real runtime
//! gathers wall-clock counters and ships tiles, the simulator reads
//! virtual-time windows and charges arrivals, a plan-only run measures
//! nothing and applies the moves. Everything in between lives here:
//! [`LbEpoch`] owns the run's live [`LbPolicy`] and its [`LbNetwork`]
//! planning view, and [`LbEpoch::plan`] turns one epoch's measurement
//! into the plan to execute, recording every realized epoch in the
//! [`EpochLog`] the run hands back. A substrate therefore *cannot*
//! disagree with another about stall feedback order, the membership mask,
//! which work model a modeled input reads, or what a trace contains.

use crate::balance::algorithm::{MigrationPlan, Move};
use crate::balance::policy::{LbNetwork, LbPolicy, LbSchedule};
use crate::balance::power::compute_metrics;
use crate::balance::trace::EpochTrace;
use crate::ownership::Ownership;
use crate::scenario::{active_at, modeled_busy, work_at, ClusterEvent, LbInput};
use crate::workload::WorkModel;
use nlheat_netmodel::NetSpec;
use nlheat_partition::SdGraph;
use std::sync::Arc;
use std::time::Instant;

/// The planning-relevant slice of a run's configuration — what an
/// [`LbEpoch`] is built from, once per run.
pub struct EpochConfig<'a> {
    /// When to balance and with which policy.
    pub lb: &'a LbSchedule,
    /// The network the run executes on; the planner prices moves with its
    /// [`nlheat_netmodel::CommCost`].
    pub net: &'a NetSpec,
    /// Cells per SD tile (sizes the migrating tile's wire bytes).
    pub cells_per_sd: usize,
    /// The SD adjacency / halo-volume graph of the halo plans the
    /// substrate executes.
    pub sd_graph: Arc<SdGraph>,
    /// Per-rank memory capacities (`u64::MAX` = unbounded); `None` =
    /// memory-blind planning.
    pub memory_caps: Option<Vec<u64>>,
    /// What the policy plans from.
    pub lb_input: LbInput,
    /// The elastic membership timeline (empty = fixed membership).
    pub cluster_events: &'a [(usize, ClusterEvent)],
    /// Base work model — read, like the three fields below, only under
    /// [`LbInput::Modeled`].
    pub work: &'a WorkModel,
    /// Switch points over `work` ([`work_at`]).
    pub work_schedule: &'a [(usize, WorkModel)],
    /// Per-rank speed factors.
    pub speeds: Vec<f64>,
    /// Nominal per-DP seconds of the problem's stencil.
    pub sec_per_dp: f64,
}

/// What a substrate measured over the balancing window that ends at this
/// epoch. The stall fractions reach the policy only under
/// [`LbInput::Measured`]; modeled planning takes no runtime feedback, so a
/// substrate with nothing to measure passes the default.
#[derive(Debug, Clone, Default)]
pub struct EpochMeasure {
    /// Per-rank busy seconds since the last counter reset (ignored under
    /// [`LbInput::Modeled`]).
    pub busy: Vec<f64>,
    /// Fraction of this window the worst rank spent waiting for ghosts.
    pub ghost_stall_frac: f64,
    /// Fraction of the *previous* window the previous epoch's migrations
    /// stalled the cluster; `None` at the first epoch.
    pub prev_migration_stall_frac: Option<f64>,
}

/// One epoch's decision, handed back for the substrate to execute.
pub struct EpochPlan {
    /// The single-hop plan (possibly empty).
    pub plan: MigrationPlan,
    /// The per-rank busy seconds the planner saw.
    pub busy: Vec<f64>,
    /// Wall seconds spent inside the policy's `plan` call.
    pub plan_seconds: f64,
}

/// The record of a run's *realized* epochs (empty plans leave no entry),
/// in epoch order.
#[derive(Debug, Clone, Default)]
pub struct EpochLog {
    /// One trace per realized epoch.
    pub traces: Vec<EpochTrace>,
    /// The realized plans.
    pub plans: Vec<Vec<Move>>,
    /// Planner-grade migration payload bytes over all realized plans.
    pub migration_bytes: u64,
    /// The inter-rack share of `migration_bytes`.
    pub inter_rack_migration_bytes: u64,
}

/// The epoch driver: one per run, on whichever rank plans.
pub struct LbEpoch<'a> {
    cfg: EpochConfig<'a>,
    policy: Box<dyn LbPolicy>,
    net: LbNetwork,
    log: EpochLog,
}

impl<'a> LbEpoch<'a> {
    /// Build the policy and the planning view it will see all run long.
    /// The schedule is taken as validated (`Scenario::validate`,
    /// `run_distributed`) — on the caller's thread, not at the first epoch
    /// inside a driver.
    pub fn new(cfg: EpochConfig<'a>) -> Self {
        let policy = cfg.lb.spec.build();
        Self::with_policy(cfg, policy)
    }

    /// [`LbEpoch::new`] around a given policy — the seam the unit tests
    /// script the driver through.
    fn with_policy(mut cfg: EpochConfig<'a>, policy: Box<dyn LbPolicy>) -> Self {
        let mut net =
            LbNetwork::for_sd_tiles(cfg.net, cfg.cells_per_sd).with_sd_graph(cfg.sd_graph.clone());
        if let Some(caps) = cfg.memory_caps.take() {
            net = net.with_memory(Arc::new(caps), Arc::new(cfg.sd_graph.footprints()));
        }
        LbEpoch {
            cfg,
            policy,
            net,
            log: EpochLog::default(),
        }
    }

    /// True when an epoch follows timestep `step` of an `n_steps` run.
    pub fn due(&self, step: usize, n_steps: usize) -> bool {
        self.cfg.lb.due(step, n_steps)
    }

    /// The planning view (transfer costs, tile wire sizes, link classes)
    /// — substrates charge their traffic with the same numbers.
    pub fn net(&self) -> &LbNetwork {
        &self.net
    }

    /// Plan the epoch that follows timestep `step` from `own`.
    pub fn plan(&mut self, step: usize, own: &Ownership, measure: EpochMeasure) -> EpochPlan {
        let busy = match self.cfg.lb_input {
            LbInput::Measured => {
                // Controller updates before planning, so the nudged λ/μ
                // steer *this* epoch's plan.
                if let Some(prev) = measure.prev_migration_stall_frac {
                    self.policy.observe_stall(prev);
                }
                self.policy.observe_ghost_stall(measure.ghost_stall_frac);
                // A rank that computed nothing must not divide by zero in
                // eq. 8.
                let mut busy = measure.busy;
                for b in &mut busy {
                    *b = b.max(1e-12);
                }
                busy
            }
            LbInput::Modeled => modeled_busy(
                own.sds(),
                own.owners(),
                own.n_nodes(),
                work_at(self.cfg.work, self.cfg.work_schedule, step),
                &self.cfg.speeds,
                self.cfg.sec_per_dp,
            ),
        };
        // Under an elastic timeline the planner sees the membership in
        // effect when the plan would be executed.
        if !self.cfg.cluster_events.is_empty() {
            let active = active_at(own.n_nodes() as usize, self.cfg.cluster_events, step + 1);
            self.net.active = Some(Arc::new(active));
        }
        let metrics = compute_metrics(&own.counts(), &busy);
        let t0 = Instant::now();
        let plan = self.policy.plan(own, &metrics, &self.net);
        let plan_seconds = t0.elapsed().as_secs_f64();
        // An idle epoch emits nothing: no-op entries would skew the
        // migration accounting.
        if !plan.moves.is_empty() {
            let trace = EpochTrace::record(step + 1, self.policy.name(), &plan, own, &self.net)
                .with_drift(self.policy.drift_info());
            self.log.migration_bytes += trace.migration_bytes;
            self.log.inter_rack_migration_bytes += trace.inter_rack_migration_bytes;
            self.log.traces.push(trace);
            self.log.plans.push(plan.moves.clone());
        }
        EpochPlan {
            plan,
            busy,
            plan_seconds,
        }
    }

    /// Hand the run's epoch record back.
    pub fn into_log(self) -> EpochLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::algorithm::finish_plan;
    use crate::balance::power::LoadMetrics;
    use crate::balance::repart::DriftInfo;
    use nlheat_mesh::SdGrid;
    use std::sync::Mutex;

    /// What the scripted policy saw, in call order.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Stall(f64),
        GhostStall(f64),
        Plan {
            busy: Vec<f64>,
            active: Option<Vec<bool>>,
        },
    }

    /// Logs every driver-facing call and plays back canned move lists
    /// (an exhausted script plans nothing).
    struct Scripted {
        calls: Arc<Mutex<Vec<Call>>>,
        script: Vec<Vec<Move>>,
    }

    impl LbPolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn plan(&mut self, own: &Ownership, m: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
            self.calls.lock().unwrap().push(Call::Plan {
                busy: m.busy.clone(),
                active: net.active.as_deref().cloned(),
            });
            let moves = if self.script.is_empty() {
                Vec::new()
            } else {
                self.script.remove(0)
            };
            let mut working = own.clone();
            for mv in &moves {
                working.set_owner(mv.sd, mv.to);
            }
            finish_plan(m.clone(), working, moves, net)
        }

        fn observe_stall(&mut self, frac: f64) {
            self.calls.lock().unwrap().push(Call::Stall(frac));
        }

        fn observe_ghost_stall(&mut self, frac: f64) {
            self.calls.lock().unwrap().push(Call::GhostStall(frac));
        }

        fn drift_info(&self) -> Option<DriftInfo> {
            Some(DriftInfo {
                cut_drift: 1.5,
                replan: true,
            })
        }
    }

    /// 4 SDs in a row, the first three on rank 0.
    fn ownership() -> Ownership {
        Ownership::new(SdGrid::new(4, 1, 4), vec![0, 0, 0, 1], 2)
    }

    struct Fixture {
        lb: LbSchedule,
        net: NetSpec,
        work: WorkModel,
        work_schedule: Vec<(usize, WorkModel)>,
        cluster_events: Vec<(usize, ClusterEvent)>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                lb: LbSchedule::every(2),
                net: NetSpec::cluster(),
                work: WorkModel::Uniform,
                work_schedule: Vec::new(),
                cluster_events: Vec::new(),
            }
        }

        /// A driver over `script` plus the call log it writes.
        fn driver(
            &self,
            lb_input: LbInput,
            script: Vec<Vec<Move>>,
        ) -> (LbEpoch<'_>, Arc<Mutex<Vec<Call>>>) {
            let calls = Arc::new(Mutex::new(Vec::new()));
            let own = ownership();
            let cfg = EpochConfig {
                lb: &self.lb,
                net: &self.net,
                cells_per_sd: own.sds().cells_per_sd(),
                sd_graph: Arc::new(SdGraph::build(own.sds(), 1)),
                memory_caps: None,
                lb_input,
                cluster_events: &self.cluster_events,
                work: &self.work,
                work_schedule: &self.work_schedule,
                speeds: vec![1.0, 2.0],
                sec_per_dp: 1e-9,
            };
            let policy = Box::new(Scripted {
                calls: calls.clone(),
                script,
            });
            (LbEpoch::with_policy(cfg, policy), calls)
        }
    }

    fn measure(busy: [f64; 2], ghost: f64, prev: Option<f64>) -> EpochMeasure {
        EpochMeasure {
            busy: busy.to_vec(),
            ghost_stall_frac: ghost,
            prev_migration_stall_frac: prev,
        }
    }

    fn plan_call(busy: [f64; 2]) -> Call {
        Call::Plan {
            busy: busy.to_vec(),
            active: None,
        }
    }

    #[test]
    fn measured_epochs_feed_back_then_plan() {
        let fx = Fixture::new();
        let (mut epoch, calls) = fx.driver(LbInput::Measured, Vec::new());
        let own = ownership();
        // first epoch: no previous migration to report; a zero busy time
        // is clamped before eq. 8 divides by it
        epoch.plan(1, &own, measure([3.0, 0.0], 0.125, None));
        epoch.plan(3, &own, measure([2.0, 1.0], 0.25, Some(0.5)));
        epoch.plan(5, &own, measure([1.0, 1.0], 0.0, Some(0.0)));
        assert_eq!(
            *calls.lock().unwrap(),
            vec![
                Call::GhostStall(0.125),
                plan_call([3.0, 1e-12]),
                Call::Stall(0.5),
                Call::GhostStall(0.25),
                plan_call([2.0, 1.0]),
                Call::Stall(0.0),
                Call::GhostStall(0.0),
                plan_call([1.0, 1.0]),
            ]
        );
    }

    #[test]
    fn modeled_epochs_take_no_feedback_and_read_the_work_model_at_the_step() {
        let mut fx = Fixture::new();
        fx.work_schedule = vec![(1, WorkModel::PerSd(vec![4.0, 1.0, 1.0, 1.0]))];
        let (mut epoch, calls) = fx.driver(LbInput::Modeled, Vec::new());
        let own = ownership();
        let modeled = |step: usize| {
            modeled_busy(
                own.sds(),
                own.owners(),
                2,
                work_at(&fx.work, &fx.work_schedule, step),
                &[1.0, 2.0],
                1e-9,
            )
        };
        assert_ne!(modeled(0), modeled(1), "the switch must be visible");
        // measurements are ignored wholesale
        let planned = epoch.plan(1, &own, measure([9.0, 9.0], 0.5, Some(0.5)));
        assert_eq!(planned.busy, modeled(1));
        assert_eq!(
            *calls.lock().unwrap(),
            vec![Call::Plan {
                busy: modeled(1),
                active: None
            }]
        );
    }

    #[test]
    fn only_realized_epochs_are_logged() {
        let fx = Fixture::new();
        let mv = Move {
            sd: 2,
            from: 0,
            to: 1,
        };
        let (mut epoch, _) = fx.driver(LbInput::Measured, vec![Vec::new(), vec![mv]]);
        let own = ownership();
        let idle = epoch.plan(1, &own, measure([1.0, 1.0], 0.0, None));
        assert!(idle.plan.moves.is_empty());
        let moved = epoch.plan(3, &own, measure([1.0, 1.0], 0.0, Some(0.0)));
        assert_eq!(moved.plan.moves, vec![mv]);
        let log = epoch.into_log();
        assert_eq!(log.plans, vec![vec![mv]]);
        assert_eq!(log.traces.len(), 1);
        let trace = &log.traces[0];
        assert_eq!((trace.step, trace.policy, trace.moves), (4, "scripted", 1));
        // the policy's drift monitor rides along
        assert_eq!((trace.cut_drift, trace.replan), (1.5, true));
        assert!(trace.ghost_bytes_before > 0, "the SD graph prices the cut");
        assert_eq!(log.migration_bytes, trace.migration_bytes);
        assert!(log.migration_bytes > 0);
    }

    #[test]
    fn membership_mask_is_the_timeline_at_the_next_step() {
        let mut fx = Fixture::new();
        fx.cluster_events = vec![(2, ClusterEvent::Drain { rank: 1 })];
        let (mut epoch, calls) = fx.driver(LbInput::Modeled, Vec::new());
        let own = ownership();
        // the event at step 2 is in force for a plan executed after step 1
        epoch.plan(0, &own, EpochMeasure::default());
        epoch.plan(1, &own, EpochMeasure::default());
        let masks: Vec<Option<Vec<bool>>> = calls
            .lock()
            .unwrap()
            .iter()
            .map(|c| match c {
                Call::Plan { active, .. } => active.clone(),
                other => panic!("modeled planning must not observe: {other:?}"),
            })
            .collect();
        assert_eq!(
            masks,
            vec![
                Some(active_at(2, &fx.cluster_events, 1)),
                Some(active_at(2, &fx.cluster_events, 2)),
            ]
        );
        assert_eq!(masks[1], Some(vec![true, false]));
    }

    #[test]
    fn due_is_every_period_but_never_after_the_last_step() {
        for period in 1..=4usize {
            let mut fx = Fixture::new();
            fx.lb = LbSchedule::every(period);
            let (epoch, _) = fx.driver(LbInput::Measured, Vec::new());
            for n_steps in 1..=9usize {
                // after `period`, `2·period`, … completed steps, while
                // steps remain
                let expected: Vec<usize> = (period..n_steps)
                    .step_by(period)
                    .map(|done| done - 1)
                    .collect();
                let due: Vec<usize> = (0..n_steps).filter(|&s| epoch.due(s, n_steps)).collect();
                assert_eq!(due, expected, "period {period}, {n_steps} steps");
            }
        }
    }
}
