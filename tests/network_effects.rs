//! Asynchrony correctness: message delay must never change the numerics —
//! only the timing. These tests run the distributed solver over a fabric
//! with real (sleeping) delivery driven by each pluggable network model, so
//! ghost parcels genuinely arrive late and the case-1/case-2 machinery is
//! exercised under pressure. The simulator side checks the ordering
//! property the models promise: makespan is monotonically non-decreasing
//! as the model gets more contended (instant ≤ constant ≤ shared ≤ duplex).
//! Every run is described through the declarative `Scenario` API, so the
//! network model is one field swap.

use nonlocalheat::amt::counters::{NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
use nonlocalheat::core::dist::dist_counter_name;
use nonlocalheat::prelude::*;
use std::time::Duration;

fn serial_field(n: usize, eps_mult: f64, steps: usize) -> Vec<f64> {
    let parts = ProblemSpec::square(n, eps_mult).build();
    let mut s = SerialSolver::manufactured(&parts);
    s.run(steps);
    s.field()
}

/// Every network model produces bit-identical numerics on the same
/// distributed run: the transport decides *when* ghosts arrive, never
/// *what* arrives.
#[test]
fn every_net_model_same_numerics() {
    let reference = serial_field(16, 2.0, 4);
    let specs = [
        NetSpec::Instant,
        NetSpec::constant(200e-6, 5e6),
        NetSpec::shared(200e-6, 5e6),
        NetSpec::duplex(200e-6, 5e6),
        NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: LinkSpec::new(100e-6, 1e7),
            inter_rack: LinkSpec::new(500e-6, 2e6),
        }),
    ];
    for spec in specs {
        let report = Scenario::square(16, 2.0, 4, 4)
            .on(ClusterSpec::uniform(3, 1))
            .with_net(spec)
            .run_dist();
        assert_eq!(
            report.field.as_ref(),
            Some(&reference),
            "numerics must not depend on the network model: {spec:?}"
        );
    }
}

/// Simulator counterpart: one communication-heavy scenario swept across
/// the model ladder; each rung may only slow things down.
#[test]
fn sim_makespan_monotone_in_contention() {
    let lat = 2e-3;
    let bw = 5e7;
    // no case-1/case-2 overlap: every ghost delay lands on the critical
    // path, so the model ladder is directly visible
    let base = Scenario::square(200, 8.0, 25, 4)
        .on(ClusterSpec::uniform(4, 1))
        .with_overlap(false);
    let run = |net: NetSpec| base.clone().with_net(net).run_sim().makespan;
    let t_instant = run(NetSpec::Instant);
    let t_constant = run(NetSpec::constant(lat, bw));
    let t_shared = run(NetSpec::shared(lat, bw));
    let t_duplex = run(NetSpec::duplex(lat, bw));
    assert!(
        t_instant <= t_constant * (1.0 + 1e-12),
        "instant {t_instant} must not exceed constant {t_constant}"
    );
    assert!(
        t_constant <= t_shared * (1.0 + 1e-12),
        "constant {t_constant} must not exceed shared {t_shared}"
    );
    assert!(
        t_shared <= t_duplex * (1.0 + 1e-12),
        "shared {t_shared} must not exceed duplex {t_duplex}"
    );
    // The ladder must actually bite at these parameters, or the test
    // degenerates into 0 <= 0.
    assert!(t_constant > t_instant, "latency must cost something");
    assert!(
        t_shared > t_constant,
        "NIC serialization must cost something"
    );
    assert!(
        t_duplex > t_shared,
        "receiver-ingress serialization (incast) must cost something"
    );
}

#[test]
fn latency_does_not_change_results() {
    let reference = serial_field(16, 2.0, 4);
    let report = Scenario::square(16, 2.0, 4, 4)
        .on(ClusterSpec::uniform(3, 1))
        .with_net(NetSpec::constant(
            Duration::from_micros(500).as_secs_f64(),
            f64::INFINITY,
        ))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn bandwidth_limit_does_not_change_results() {
    let reference = serial_field(16, 2.0, 4);
    // ~2 MB/s: a 3 KB ghost message takes ~1.5 ms on the wire
    let report = Scenario::square(16, 2.0, 4, 4)
        .on(ClusterSpec::uniform(2, 1))
        .with_net(NetSpec::constant(
            Duration::from_micros(100).as_secs_f64(),
            2e6,
        ))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn latency_with_load_balancing_still_exact() {
    let reference = serial_field(16, 2.0, 6);
    let report = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::new().node(1, 1.0).node(1, 0.5))
        .with_net(NetSpec::constant(
            Duration::from_micros(300).as_secs_f64(),
            f64::INFINITY,
        ))
        .with_lb(LbSchedule::every(2))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn shared_nic_with_load_balancing_still_exact() {
    // The stateful model (sender NICs mutate on every send) must also be
    // transparent to the numerics, including across SD migrations.
    let reference = serial_field(16, 2.0, 6);
    let report = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::new().node(1, 1.0).node(1, 0.5))
        .with_net(NetSpec::shared(200e-6, 4e6))
        .with_lb(LbSchedule::every(2))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn overlap_off_under_latency_still_exact() {
    let reference = serial_field(16, 2.0, 3);
    let report = Scenario::square(16, 2.0, 4, 3)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(NetSpec::constant(
            Duration::from_micros(400).as_secs_f64(),
            f64::INFINITY,
        ))
        .with_overlap(false)
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn traffic_statistics_are_plausible() {
    let report = Scenario::square(16, 2.0, 4, 3)
        .on(ClusterSpec::uniform(2, 1))
        .run_dist();
    // 4x4 SDs halved: 4 boundary SD pairs + diagonals, both directions,
    // 3 steps, shipped as one bundle per step and direction; an LB-free
    // run has no other messages.
    let count = |name: &str| report.counter(name).expect("a cluster counter");
    let messages = count(NETWORK_MESSAGES);
    assert_eq!(messages, 3 * 2);
    let patches: u64 = (0..2)
        .map(|r| count(&dist_counter_name(r, "count/ghost-patches")))
        .sum();
    assert!(patches > messages);
    assert!(report.ghost_bytes > 0);
    // planner-grade bytes + the 24-byte parcel header per bundle = wire
    assert_eq!(
        report.ghost_bytes + 24 * messages,
        count(NETWORK_CROSS_BYTES)
    );

    // Per-pair attribution through the real driver path: a symmetric
    // decomposition sends symmetric ghosts. The pair counters live on
    // the fabric, so this leg runs on a cluster it keeps
    // (scenario.build_cluster() keeps the declared net).
    let scenario = Scenario::square(16, 2.0, 4, 3).on(ClusterSpec::uniform(2, 1));
    let cluster = scenario.build_cluster();
    let _ = run_distributed(&cluster, &scenario);
    let stats = cluster.net_stats();
    assert_eq!(
        stats.pair_bytes(0, 1),
        stats.pair_bytes(1, 0),
        "symmetric decomposition sends symmetric ghosts"
    );
}
