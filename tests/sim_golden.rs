//! Golden simulated clocks: what the discrete-event simulator *times*,
//! pinned across commits as FNV-1a digests of `(makespan bits, per-rank
//! busy bits, ghost_bytes, migrations)`.
//!
//! `tests/plan_golden.rs` pins plans, not clocks, and the repository
//! benchmark's "grid outcomes repeat bit-exactly" digest is computed by
//! the very binary it checks — neither would notice a change to the
//! engine's list scheduler or its cost arithmetic moving a makespan by
//! one ulp. [`GOLDEN`] was re-recorded once, when the engine began
//! charging the driver's own `StepLayout` instead of a step of its own —
//! one arrival per rank-pair bundle instead of one per patch, the
//! driver's work-grouped tasks instead of one per SD and case, one
//! scatter copy per bundle instead of one per ghost cell — which moved
//! every simulated clock by design. Every library scenario runs on
//! one-core nodes; the last two rows put the crack scenario on a 2-core
//! and a 4-core cluster so the choice of core is pinned too. After an
//! intended change to simulated time, re-record: the failure message
//! prints the full table.
//!
//! [`MODELED_GOLDEN`] pins what no clock may move: under
//! `LbInput::Modeled` plans do not depend on time, and the ghost bytes are
//! the bundles' payload by definition. It was recorded from a scratch
//! clone of the commit before that change (`3187a9a`), with this very
//! file dropped into its `tests/`, and passes unmodified on the change.

use nonlocalheat::prelude::*;

/// `(scenario, network / cluster, digest)` of the simulated clocks.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("paper-baseline", "own net", 0x79c1425456a22de1),
    ("paper-baseline", "two-rack net", 0x95648c646a2d8c95),
    ("lopsided-two-rack", "own net", 0xfa66b3c462778a4d),
    ("lopsided-two-rack", "two-rack net", 0xfa66b3c462778a4d),
    ("propagating-crack", "own net", 0xf053aae6e4e98122),
    ("propagating-crack", "two-rack net", 0x560d34030cf9da9a),
    ("heterogeneous-cluster", "own net", 0x02f079d7e40795c8),
    ("heterogeneous-cluster", "two-rack net", 0xb299472ae0074232),
    ("incast-duplex", "own net", 0x02d5b0c50a545165),
    ("incast-duplex", "two-rack net", 0x2aaad9405b8554e2),
    ("memory-pressure", "own net", 0xeb9d6c578431b145),
    ("memory-pressure", "two-rack net", 0xeb9d6c578431b145),
    ("cut-drift", "own net", 0x01342637e546ac20),
    ("cut-drift", "two-rack net", 0x01342637e546ac20),
    ("elastic-scale-out", "own net", 0x89a149b77cccc5b6),
    ("elastic-scale-out", "two-rack net", 0x89a149b77cccc5b6),
    ("rank-failure", "own net", 0x42e86df795d9d4e0),
    ("rank-failure", "two-rack net", 0x42e86df795d9d4e0),
    ("propagating-crack", "4 nodes x 2 cores", 0x6eedfb834fb7a4c6),
    ("propagating-crack", "2 nodes x 4 cores", 0x667c45f65600328a),
];

/// `(scenario, network, digest)` of what the clock must not move: every
/// library scenario planned from `LbInput::Modeled`, digested by
/// [`clock_free_digest`].
const MODELED_GOLDEN: &[(&str, &str, u64)] = &[
    ("paper-baseline", "own net", 0xf6374b4fc9eb05cc),
    ("paper-baseline", "two-rack net", 0xfa0a93a50dd56e2c),
    ("lopsided-two-rack", "own net", 0xe8ff912dd06b1976),
    ("lopsided-two-rack", "two-rack net", 0xe8ff912dd06b1976),
    ("propagating-crack", "own net", 0x4f4034bf04e62a48),
    ("propagating-crack", "two-rack net", 0x8eb429b6ffb7dc26),
    ("heterogeneous-cluster", "own net", 0x7f91f55923627e9f),
    ("heterogeneous-cluster", "two-rack net", 0x1e9d335851793533),
    ("incast-duplex", "own net", 0xc0ca455a34018e45),
    ("incast-duplex", "two-rack net", 0x780763aed4957dee),
    ("memory-pressure", "own net", 0xfecd857f88197d68),
    ("memory-pressure", "two-rack net", 0xfecd857f88197d68),
    ("cut-drift", "own net", 0x6a1c289b165765f9),
    ("cut-drift", "two-rack net", 0x6a1c289b165765f9),
    ("elastic-scale-out", "own net", 0xacb22ff916114d49),
    ("elastic-scale-out", "two-rack net", 0xacb22ff916114d49),
    ("rank-failure", "own net", 0x83a6a45ae3ee3643),
    ("rank-failure", "two-rack net", 0x83a6a45ae3ee3643),
];

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, report.makespan.to_bits());
    for busy in &report.busy {
        fnv1a(&mut h, busy.to_bits());
    }
    fnv1a(&mut h, report.ghost_bytes);
    fnv1a(&mut h, report.migrations as u64);
    h
}

/// FNV-1a over what no clock may move: every realized plan
/// (length-prefixed, so epoch boundaries count), the final owner of every
/// SD, the ghost and inter-rack ghost bytes, and the migration count.
fn clock_free_digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for plan in &report.lb_plans {
        fnv1a(&mut h, plan.len() as u64);
        for m in plan {
            fnv1a(&mut h, u64::from(m.sd));
            fnv1a(&mut h, u64::from(m.from));
            fnv1a(&mut h, u64::from(m.to));
        }
    }
    for &o in report.final_ownership.owners() {
        fnv1a(&mut h, u64::from(o));
    }
    fnv1a(&mut h, report.ghost_bytes);
    fnv1a(&mut h, report.inter_rack_ghost_bytes);
    fnv1a(&mut h, report.migrations as u64);
    h
}

#[test]
fn modeled_plans_and_bytes_match_the_digests_recorded_at_the_parent() {
    let mut actual: Vec<(&str, &str, u64)> = Vec::new();
    for (name, sc) in scenarios::all(true) {
        let sc = sc.with_lb_input(LbInput::Modeled);
        let two_rack = sc.clone().with_net(scenarios::two_rack_net());
        for (leg, sc) in [("own net", sc), ("two-rack net", two_rack)] {
            actual.push((name, leg, clock_free_digest(&SimSubstrate.run(&sc))));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, l, d)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == MODELED_GOLDEN,
        "modeled plans or ghost bytes moved; if intended, MODELED_GOLDEN becomes:\n{table}"
    );
}

#[test]
fn simulated_clocks_match_the_digests_recorded_at_the_parent() {
    let mut cases: Vec<(&str, &str, Scenario)> = Vec::new();
    for (name, sc) in scenarios::all(true) {
        cases.push((name, "own net", sc.clone()));
        cases.push((name, "two-rack net", sc.with_net(scenarios::two_rack_net())));
    }
    let crack = scenarios::propagating_crack(true).with_net(scenarios::two_rack_net());
    for (cluster, nodes, cores) in [("4 nodes x 2 cores", 4, 2), ("2 nodes x 4 cores", 2, 4)] {
        let sc = crack.clone().on(ClusterSpec::uniform(nodes, cores));
        cases.push(("propagating-crack", cluster, sc));
    }
    let actual: Vec<(&str, &str, u64)> = cases
        .iter()
        .map(|(name, leg, sc)| (*name, *leg, digest(&SimSubstrate.run(sc))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(s, l, d)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == GOLDEN,
        "simulated clocks moved; if intended, GOLDEN becomes:\n{table}"
    );
}
