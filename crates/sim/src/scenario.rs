//! The simulator leg of the declarative [`Scenario`] API: the engine runs
//! a scenario directly ([`simulate`]); this module gives it the
//! [`Substrate`] and `scenario.run_sim()` spellings.

use crate::engine::simulate;
use nlheat_core::scenario::{RunReport, Scenario, Substrate};

/// The discrete-event simulator as a [`Substrate`].
pub struct SimSubstrate;

impl Substrate for SimSubstrate {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> RunReport {
        simulate(scenario)
    }
}

/// Extension trait giving [`Scenario`] its simulator leg —
/// `scenario.run_sim()` next to `scenario.run_dist()`. Blanket-available
/// through the `nonlocalheat` prelude.
pub trait RunSim {
    /// Execute on the discrete-event simulator.
    fn run_sim(&self) -> RunReport;
}

impl RunSim for Scenario {
    fn run_sim(&self) -> RunReport {
        SimSubstrate.run(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_core::balance::LbSchedule;
    use nlheat_core::scenario::{ClusterSpec, LbInput, PartitionSpec, Scenario};
    use nlheat_netmodel::NetSpec;

    #[test]
    fn run_sim_produces_a_valid_unified_report() {
        let sc = Scenario::square(16, 2.0, 4, 6)
            .on(ClusterSpec::uniform(2, 1))
            .with_net(NetSpec::Instant)
            .with_partition(PartitionSpec::Explicit({
                let mut o = vec![0u32; 16];
                o[15] = 1;
                o
            }))
            .with_lb(LbSchedule::every(2))
            .with_lb_input(LbInput::Modeled);
        let report = sc.run_sim();
        report.check_invariants();
        assert_eq!(report.substrate, "sim");
        assert!(report.field.is_none(), "the simulator carries no numerics");
        assert!(report.migrations > 0, "lopsided start must migrate");
        assert_eq!(report.lb_plans.len(), report.epoch_traces.len());
        assert!(report.sim_extras().is_some());
    }
}
