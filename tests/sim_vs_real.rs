//! Consistency between the discrete-event simulator and the real runtime.
//! Both replay one `StepLayout` per rank and ownership epoch, so their
//! communication structure agrees by construction: one ghost bundle per
//! step and ordered rank pair, carrying the same planner-grade bytes, and
//! the wire adds only the 24-byte parcel header per bundle. What is left
//! to check is that the counters say so, and that both substrates plan
//! alike. One `Scenario` value drives both; the unified `RunReport` carries
//! the counters.

use nonlocalheat::amt::counters::{NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
use nonlocalheat::core::dist::dist_counter_name;
use nonlocalheat::prelude::*;

/// LB-free ghost traffic of one scenario on both substrates.
struct Traffic {
    steps: u64,
    /// Ordered rank pairs `(src, dst)` that share a halo under the
    /// scenario's (static) ownership.
    halo_pairs: u64,
    real: RunReport,
    sim: RunReport,
}

fn traffic(n: usize, eps_mult: f64, sd: usize, nodes: usize, steps: usize) -> Traffic {
    let scenario = Scenario::square(n, eps_mult, sd, steps)
        .on(ClusterSpec::uniform(nodes, 1))
        .with_partition(PartitionSpec::Strip)
        .with_net(NetSpec::Instant);
    let real = scenario.run_dist();
    let sim = scenario.run_sim();
    let graph = scenario.sd_graph();
    let owners = real.final_ownership.owners();
    let mut pairs = std::collections::BTreeSet::new();
    for sd in scenario.sd_grid().ids() {
        for (nb, _) in graph.neighbours(sd) {
            let (a, b) = (owners[sd as usize], owners[nb as usize]);
            if a != b {
                pairs.insert((a, b));
            }
        }
    }
    Traffic {
        steps: steps as u64,
        halo_pairs: pairs.len() as u64,
        real,
        sim,
    }
}

impl Traffic {
    /// The identities every LB-free run satisfies; returns
    /// `(ghost patches, bundles)` for the callers' magnitude checks.
    fn check(&self) -> (u64, u64) {
        let count = |name: &str| self.real.counter(name).expect("a cluster counter");
        let (messages, cross_bytes) = (count(NETWORK_MESSAGES), count(NETWORK_CROSS_BYTES));
        let sim = self.sim.sim_extras().expect("sim extras");
        // one bundle per step and ordered rank pair, on both substrates
        assert_eq!(
            messages,
            self.steps * self.halo_pairs,
            "{} steps x {} halo-sharing rank pairs",
            self.steps,
            self.halo_pairs
        );
        assert_eq!(sim.messages, messages, "sim vs real bundles");
        // record bytes are exactly planner-grade on both substrates; only
        // the parcel header per bundle is extra on the wire
        let headers = 24 * messages;
        assert_eq!(self.real.ghost_bytes + headers, cross_bytes);
        assert_eq!(sim.cross_bytes + headers, cross_bytes);
        let ranks = 0..self.real.busy.len() as u32;
        let patches = ranks.map(|r| count(&dist_counter_name(r, "count/ghost-patches")));
        (patches.sum(), messages)
    }
}

#[test]
fn message_counts_agree_exactly() {
    let two = traffic(24, 2.0, 4, 2, 3);
    assert_eq!(two.halo_pairs, 2);
    let (patches, bundles) = two.check();
    assert_eq!(bundles, 6);
    assert!(patches > bundles, "bundles coalesce: {patches} patches");
    // four strips: only adjacent strips share a halo (3 pairs, both ways)
    let four = traffic(24, 2.0, 4, 4, 2);
    assert_eq!(four.halo_pairs, 6);
    four.check();
}

#[test]
fn byte_volumes_agree_within_framing() {
    // Both substrates count the bundles' records; the real parcel adds its
    // own 24-byte header once per bundle.
    let t = traffic(24, 2.0, 4, 2, 3);
    t.check();
    let sim = t.sim.sim_extras().unwrap();
    assert_eq!(sim.cross_bytes, t.real.ghost_bytes);
    assert_eq!(sim.cross_bytes, t.sim.ghost_bytes);
}

#[test]
fn planner_grade_ghost_counters_agree_exactly() {
    // The unified RunReport counts ghost bytes with the same
    // patch_wire_bytes formula on both substrates, so for one scenario
    // the numbers are *identical* — no framing allowance needed.
    let scenario = Scenario::square(24, 2.0, 4, 3)
        .on(ClusterSpec::uniform(2, 1))
        .with_partition(PartitionSpec::Strip)
        .with_net(NetSpec::Instant);
    let real = scenario.run_dist();
    let sim = scenario.run_sim();
    assert!(real.ghost_bytes > 0);
    assert_eq!(real.ghost_bytes, sim.ghost_bytes);
    assert_eq!(real.inter_rack_ghost_bytes, sim.inter_rack_ghost_bytes);
}

#[test]
fn multi_ring_traffic_agrees() {
    // eps spanning two SD rings: the heavier communication pattern must
    // match too — many more patches, still one bundle per rank pair.
    let t = traffic(16, 6.0, 4, 2, 2);
    let (patches, bundles) = t.check();
    assert_eq!(bundles, 4);
    let (one_ring, _) = traffic(16, 2.0, 4, 2, 2).check();
    assert!(patches > 2 * one_ring, "{patches} vs {one_ring} patches");
}

/// Run a library scenario on both substrates and assert the planner made
/// *identical* decisions — same epochs, same plans, move for move. Under
/// `LbInput::Modeled` the planner sees deterministic busy times, so any
/// divergence means the substrates disagree about membership masks,
/// drift state, or epoch scheduling.
fn assert_plan_parity(scenario: &Scenario) -> (RunReport, RunReport) {
    let real = scenario.run_dist();
    let sim = scenario.run_sim();
    real.check_invariants();
    sim.check_invariants();
    assert_eq!(real.lb_plans, sim.lb_plans, "plan sequences must match");
    assert_eq!(
        real.final_ownership.owners(),
        sim.final_ownership.owners(),
        "identical plans must land identical ownership"
    );
    (real, sim)
}

#[test]
fn elastic_scale_out_plans_identically_on_both_substrates() {
    let scenario = scenarios::elastic_scale_out(true);
    let (real, _) = assert_plan_parity(&scenario);
    let counts = real.final_ownership.counts();
    assert!(
        counts[2] > 0 && counts[3] > 0,
        "joined ranks must end up owning SDs: {counts:?}"
    );
}

#[test]
fn rank_failure_plans_identically_on_both_substrates() {
    let scenario = scenarios::rank_failure(true);
    let (real, _) = assert_plan_parity(&scenario);
    let counts = real.final_ownership.counts();
    assert_eq!(counts[3], 0, "failed rank must be evacuated: {counts:?}");
    assert!(real.migrations > 0, "evacuation must move SDs");
}

#[test]
fn cut_drift_replans_identically_on_both_substrates() {
    let scenario = scenarios::cut_drift(true);
    let (real, sim) = assert_plan_parity(&scenario);
    let drift = |r: &RunReport| {
        r.epoch_traces
            .iter()
            .map(|t| (t.step, t.replan))
            .collect::<Vec<_>>()
    };
    assert_eq!(drift(&real), drift(&sim), "drift decisions must match");
    assert!(
        real.epoch_traces.iter().any(|t| t.replan),
        "the drift monitor must fire on the decayed start"
    );
}

#[test]
fn sim_strong_scaling_shape_matches_theory() {
    // With communication negligible and one core per node, the speedup on
    // k nodes of a perfectly divisible problem approaches k.
    let mk = |k: usize| {
        Scenario::square(400, 8.0, 50, 5)
            .on(ClusterSpec::uniform(k, 1))
            .run_sim()
            .makespan
    };
    let t1 = mk(1);
    for k in [2usize, 4, 8] {
        let tk = mk(k);
        let speedup = t1 / tk;
        assert!(
            speedup > 0.85 * k as f64 && speedup <= 1.02 * k as f64,
            "{k}-node speedup {speedup}"
        );
    }
}
