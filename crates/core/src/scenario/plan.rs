//! Plan-only execution: measure *planning*, not the run it would steer.
//!
//! The hierarchical planner's claim is about plan **time** at cluster
//! scale — 10k ranks over a million SDs — where actually timestepping the
//! mesh (on either substrate) would swamp the measurement and the memory
//! of a CI box. [`PlanSubstrate`] realizes a [`Scenario`] as exactly one
//! load-balancing epoch — the scenario's first — through the same
//! [`LbEpoch`] driver both real substrates plan with, under the
//! deterministic [`super::LbInput::Modeled`] input (there is no run to
//! measure), and reports the plan itself with the wall time of the
//! policy's `plan` call — through the same [`RunReport`] shape, so
//! [`super::sweep::ScenarioSweep`] can sweep plan time over rank counts
//! like any other measurement.
//!
//! `makespan` is the planning wall time in seconds (the quantity the
//! near-linearity benches regress); `lb_plans`/`epoch_traces` carry the
//! single emitted plan, so [`RunReport::check_invariants`] replays it
//! against the scenario's memory capacities exactly as it does for full
//! runs.

use super::{LbInput, RunExtras, RunReport, Scenario, Substrate};
use crate::balance::{EpochConfig, EpochMeasure, LbEpoch};
use crate::ownership::Ownership;
use std::sync::Arc;

/// What only a plan-only run can measure.
#[derive(Debug, Clone)]
pub struct PlanExtras {
    /// Wall seconds of the single `plan` call (same value as `makespan`).
    pub plan_seconds: f64,
    /// Ranks planned over.
    pub n_ranks: usize,
    /// SDs planned over.
    pub n_sds: usize,
}

/// The planning phase as a [`Substrate`]: one policy invocation, timed.
pub struct PlanSubstrate;

impl Substrate for PlanSubstrate {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        scenario.validate();
        let lb = scenario
            .lb
            .as_ref()
            .expect("PlanSubstrate needs an LB schedule: there is nothing to time without one");
        let sds = scenario.sd_grid();
        let n_nodes = scenario.cluster.len() as u32;
        let owners = scenario.partition.initial_owners(&sds, n_nodes);
        let ownership = Ownership::new(sds, owners, n_nodes);
        // There is nothing to measure without a run, so the planner input
        // is the deterministic modeled one whatever the scenario declares.
        let mut epoch = LbEpoch::new(EpochConfig {
            lb_input: LbInput::Modeled,
            ..scenario.epoch_config(lb, Arc::new(scenario.sd_graph()))
        });

        // The scenario's first epoch: the first step the schedule is due
        // after. A scenario that exists only to be planned may declare a
        // single step, so the run is taken to be at least long enough for
        // one epoch. The driver times the planning call alone (everything
        // around it is setup either real substrate amortizes over a whole
        // run).
        let n_steps = scenario.steps.max(2);
        let first = (0..n_steps).find(|&s| lb.due(s, n_steps));
        let first = first.expect("a run of two steps or more has an epoch");
        let planned = epoch.plan(first, &ownership, EpochMeasure::default());
        let log = epoch.into_log();
        RunReport {
            substrate: "plan",
            makespan: planned.plan_seconds,
            busy: planned.busy,
            migrations: planned.plan.moves.len(),
            migration_bytes: log.migration_bytes,
            inter_rack_migration_bytes: log.inter_rack_migration_bytes,
            ghost_bytes: 0,
            inter_rack_ghost_bytes: 0,
            lb_plans: log.plans,
            epoch_traces: log.traces,
            final_ownership: planned.plan.new_ownership,
            field: None,
            error: None,
            memory_bytes: None,
            sd_footprint: None,
            counters: Vec::new(),
            extras: RunExtras::Plan(PlanExtras {
                plan_seconds: planned.plan_seconds,
                n_ranks: n_nodes as usize,
                n_sds: sds.count(),
            }),
        }
        .with_scenario_memory(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::LbSchedule;
    use crate::scenario::library;
    use crate::scenario::{ClusterSpec, PartitionSpec};

    /// 15 SDs on rank 0, one on rank 1.
    fn lopsided_owners() -> Vec<u32> {
        let mut o = vec![0u32; 16];
        o[15] = 1;
        o
    }

    fn lopsided() -> Scenario {
        Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Explicit(lopsided_owners()))
            .with_lb(LbSchedule::every(2))
    }

    #[test]
    fn plan_substrate_reports_one_epoch() {
        let report = PlanSubstrate.run(&lopsided());
        report.check_invariants();
        assert_eq!(report.substrate, "plan");
        assert!(report.migrations > 0, "the 15/1 start must plan moves");
        assert_eq!(report.lb_plans.len(), 1, "exactly one epoch");
        assert!(report.field.is_none());
        let RunExtras::Plan(extras) = &report.extras else {
            panic!("plan extras")
        };
        assert_eq!(extras.n_ranks, 2);
        assert_eq!(extras.n_sds, 16);
        assert!(extras.plan_seconds >= 0.0);
        assert_eq!(report.makespan, extras.plan_seconds);
        // the plan moved SDs off the overloaded rank
        let counts = report.final_ownership.counts();
        assert!(counts[0] < 15 && counts[1] > 1, "counts {counts:?}");
        // undoing the plan from the final ownership lands on the start
        let history = report.ownership_history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].owners(), lopsided_owners());
        assert_eq!(history[1].owners(), report.final_ownership.owners());
    }

    #[test]
    #[should_panic(expected = "to where the replay does not find it")]
    fn a_plan_the_final_ownership_contradicts_is_refused() {
        let mut report = PlanSubstrate.run(&lopsided());
        // the recorded move now claims its SD stayed where it was
        let m = &mut report.lb_plans[0][0];
        m.to = m.from;
        let _ = report.ownership_history();
    }

    #[test]
    fn balanced_start_plans_nothing() {
        let sc = Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(2, 1))
            .with_partition(PartitionSpec::Strip)
            .with_lb(LbSchedule::every(2));
        let report = PlanSubstrate.run(&sc);
        report.check_invariants();
        assert_eq!(report.migrations, 0);
        assert!(report.lb_plans.is_empty(), "no realized epoch");
        assert!(report.epoch_traces.is_empty());
    }

    #[test]
    fn memory_tables_ride_along_and_replay() {
        let sc = library::memory_pressure(true);
        let report = PlanSubstrate.run(&sc);
        assert!(
            report.memory_bytes.is_some() && report.sd_footprint.is_some(),
            "memory scenario must attach its tables"
        );
        // replays the emitted plan against the declared capacities
        report.check_invariants();
    }

    #[test]
    #[should_panic(expected = "needs an LB schedule")]
    fn missing_lb_schedule_rejected() {
        let sc = Scenario::square(16, 2.0, 4, 4).on(ClusterSpec::uniform(2, 1));
        let _ = PlanSubstrate.run(&sc);
    }

    #[test]
    fn hierarchical_scale_scenario_plans_under_a_budget() {
        // tiny instance of the plan-scale harness: exercises the
        // hierarchical policy through the plan-only substrate end to end
        let sc = library::plan_scale(100);
        let report = PlanSubstrate.run(&sc);
        report.check_invariants();
        let RunExtras::Plan(extras) = &report.extras else {
            panic!("plan extras")
        };
        assert_eq!(extras.n_ranks, 100);
        assert!(
            report.migrations > 0,
            "the skewed speed profile must imbalance the strip start"
        );
    }
}
