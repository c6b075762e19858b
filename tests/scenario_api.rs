//! The declarative `Scenario` API end to end: cross-substrate parity,
//! the scenario library, and the unified `RunReport` invariants.
//!
//! The parity test is the tentpole acceptance criterion: one `Scenario`
//! under `NetSpec::Instant` + an explicit partition + modeled planning
//! input yields **identical** `MigrationPlan` sequences and final
//! ownership from both substrates, for every `LbSpec` variant — the two
//! runtimes provably execute the same experiment, not two similar ones.

use nonlocalheat::prelude::*;

/// The Fig.-14-style lopsided start both parity legs redistribute.
fn parity_scenario(spec: LbSpec) -> Scenario {
    let base = Scenario::square(16, 2.0, 4, 8)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(NetSpec::Instant)
        .with_lb_input(LbInput::Modeled);
    let sds = base.sd_grid();
    base.with_partition(PartitionSpec::Explicit(scenarios::lopsided_owners(&sds, 4)))
        .with_lb(LbSchedule::every(2).with_spec(spec))
}

#[test]
fn cross_substrate_parity_for_every_lb_spec() {
    // Under Instant + Modeled, both substrates feed the policies
    // byte-identical planner inputs, so plan sequences, traces, final
    // ownership AND the planner-grade ghost counters must agree exactly
    // — for every policy variant.
    let specs = [
        LbSpec::tree(0.0),
        LbSpec::tree(1.5),
        LbSpec::diffusion(1.0, 8),
        LbSpec::greedy_steal(1),
        LbSpec::adaptive(LbSpec::tree(0.0), 0.1),
        LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2),
    ];
    for spec in specs {
        let scenario = parity_scenario(spec.clone());
        let sim = scenario.run_sim();
        let real = scenario.run_dist();
        sim.check_invariants();
        real.check_invariants();
        assert_eq!(
            sim.lb_plans,
            real.lb_plans,
            "{}: migration plan sequences must be identical",
            spec.name()
        );
        assert_eq!(
            sim.epoch_traces,
            real.epoch_traces,
            "{}: epoch traces must be identical",
            spec.name()
        );
        assert_eq!(
            sim.final_ownership.owners(),
            real.final_ownership.owners(),
            "{}: final ownership must be identical",
            spec.name()
        );
        assert_eq!(
            (sim.ghost_bytes, sim.inter_rack_ghost_bytes),
            (real.ghost_bytes, real.inter_rack_ghost_bytes),
            "{}: planner-grade ghost counters must be identical",
            spec.name()
        );
        assert_eq!(
            (sim.migrations, sim.migration_bytes),
            (real.migrations, real.migration_bytes),
            "{}: migration counters must be identical",
            spec.name()
        );
        // the baseline spec must actually exercise the machinery
        if spec == LbSpec::tree(0.0) {
            assert!(sim.migrations > 0, "the lopsided start must migrate");
        }
    }
}

#[test]
fn parity_runs_are_reproducible() {
    // Modeled planning removes every wall-clock input, so repeating the
    // real-runtime leg reproduces the exact plan sequence.
    let scenario = parity_scenario(LbSpec::tree(0.0));
    let a = scenario.run_dist();
    let b = scenario.run_dist();
    assert_eq!(a.lb_plans, b.lb_plans);
    assert_eq!(a.field, b.field);
    assert_eq!(a.ghost_bytes, b.ghost_bytes);
}

#[test]
fn library_scenarios_pass_invariants_on_both_substrates() {
    // The CI smoke contract at test scope: every named scenario runs at
    // toy size on both substrates and the unified report holds its
    // invariants.
    for (name, sc) in scenarios::all(true) {
        let sim = sc.run_sim();
        sim.check_invariants();
        assert_eq!(sim.substrate, "sim", "{name}");
        let real = sc.run_dist();
        real.check_invariants();
        assert_eq!(real.substrate, "dist", "{name}");
        assert!(real.field.is_some(), "{name}: real runs carry the field");
        // migration bytes ≤ cross bytes, stated directly for the sim leg
        let cross = sim.sim_extras().expect("sim extras").cross_bytes;
        assert!(
            sim.migration_bytes <= cross,
            "{name}: migration bytes within cross traffic"
        );
    }
}

#[test]
fn library_scenario_numerics_stay_bit_exact() {
    // Whatever the scenario declares — schedules, nets, policies — the
    // real runtime's numerics must match the serial solver bit for bit.
    for (name, sc) in scenarios::all(true) {
        let parts = sc.problem.build();
        let mut serial = SerialSolver::manufactured(&parts);
        serial.run(sc.steps);
        let report = sc.run_dist();
        assert_eq!(
            report.field.as_deref(),
            Some(serial.field().as_slice()),
            "{name}: numerics must be bit-exact"
        );
    }
}

#[test]
fn propagating_crack_runs_on_both_substrates() {
    // The formerly simulator-only work_schedule, exercised through the
    // library scenario on both substrates.
    let sc = scenarios::propagating_crack(true);
    assert!(!sc.work_schedule.is_empty());
    let sim = sc.run_sim();
    let real = sc.run_dist();
    assert!(sim.migrations > 0, "the moving band must keep LB busy");
    assert!(real.field.is_some());
}

#[test]
fn scenario_validation_rejects_bad_per_sd_vectors() {
    // Satellite: the PerSd length check fires at configuration time.
    let sc = Scenario::square(16, 2.0, 4, 4).with_work(WorkModel::PerSd(vec![1.0; 3]));
    let err = std::panic::catch_unwind(|| sc.validate()).unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("PerSd work model has 3 factors"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn plan_only_run_plans_the_first_epoch_of_the_full_run() {
    // A plan-only run goes through the same epoch driver at the first due
    // step, so it reads the work model in force *there* (not at step 0):
    // balanced strips under the uniform start, rank 0 four times as heavy
    // from step 1 on, first epoch after step 1.
    use nonlocalheat::core::scenario::PlanSubstrate;
    let base = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::uniform(2, 1))
        .with_net(NetSpec::Instant)
        .with_partition(PartitionSpec::Strip)
        .with_lb(LbSchedule::every(2))
        .with_lb_input(LbInput::Modeled);
    let owners = base.partition.initial_owners(&base.sd_grid(), 2);
    let heavy_on_rank0 = owners
        .iter()
        .map(|&o| if o == 0 { 4.0 } else { 1.0 })
        .collect();
    let sc = base.with_work_schedule(vec![(1, WorkModel::PerSd(heavy_on_rank0))]);
    let plan = PlanSubstrate.run(&sc);
    let sim = sc.run_sim();
    assert!(
        !sim.lb_plans.is_empty(),
        "the switch must unbalance the run"
    );
    assert_eq!(plan.lb_plans[0], sim.lb_plans[0]);
    assert_eq!(plan.epoch_traces[0], sim.epoch_traces[0]);
}

#[test]
fn plan_only_trace_carries_the_drift_monitor_columns() {
    // The repartition decorator's drift monitor fires on the decayed
    // start; a plan-only run must report it like the simulator does.
    use nonlocalheat::core::scenario::PlanSubstrate;
    let sc = scenarios::cut_drift(true);
    let plan = PlanSubstrate.run(&sc);
    let trace = &plan.epoch_traces[0];
    let sim = sc.run_sim();
    let sim_trace = sim
        .epoch_traces
        .iter()
        .find(|t| t.step == trace.step)
        .expect("the simulator realizes the same first epoch");
    assert_eq!(
        (trace.cut_drift, trace.replan),
        (sim_trace.cut_drift, sim_trace.replan)
    );
    assert!(
        trace.replan && trace.cut_drift > 1.0,
        "the monitor must fire"
    );
}
